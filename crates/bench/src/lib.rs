//! Shared helpers for the benchmark harness: the closure workload queries, JSON
//! rendering and a peak-memory probe, read by `tpath-bench` and the workspace
//! analyzer (`crates/check`).  The paper's experiments live in the `paper` binary.

pub mod json;

/// Name of the reachability workload in perf reports: transitive contact chains
/// through the structural Kleene closure — the query family unlocked by the engine's
/// fixpoint operator (it has no Q-number in the paper).
pub const REACH_QUERY_NAME: &str = "REACH";

/// Text of the [`REACH_QUERY_NAME`] workload.
pub const REACH_QUERY_TEXT: &str = "MATCH (x:Person {risk = 'high'})\
                                    -/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";

/// Name of the recurring-contact workload in perf reports: chains of meetings each
/// followed by a step forward in time, ending on a positive test — *mixed*
/// structural/temporal repetition, executed by the engine's time-aware closure.
pub const RECUR_QUERY_NAME: &str = "RECUR";

/// Text of the [`RECUR_QUERY_NAME`] workload.
pub const RECUR_QUERY_TEXT: &str = "MATCH (x:Person {risk = 'high'})\
                                    -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) \
                                    ON contact_tracing";

/// The peak resident set size of this process in bytes (`VmHWM`), if the platform
/// exposes it through `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::GraphRelations;
    use workload::ContactTracingConfig;

    #[test]
    fn reach_and_recur_queries_parse_and_run() {
        let itpg = workload::generate(&ContactTracingConfig::with_persons(60));
        let graph = GraphRelations::from_itpg(&itpg);
        for text in [REACH_QUERY_TEXT, RECUR_QUERY_TEXT] {
            let query = engine::Query::parse(text).unwrap();
            let stats = query.run(&graph).stats();
            assert!(stats.total_time >= stats.interval_time, "{text}");
        }
    }

    #[test]
    fn environment_defaults_are_sane() {
        // Peak RSS is best-effort: Some on Linux, None elsewhere — never a panic.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }
}
