//! Shared helpers for the benchmark harness: building graphs at the paper's scale
//! factors (optionally scaled down), and formatting result tables.
//!
//! Every experiment binary honours two environment variables:
//!
//! * `TPATH_SCALE_DIVISOR` — divides the person counts of Table I (default 25, so the
//!   sweep runs 50 … 4,000 persons instead of 1,000 … 100,000); set it to 1 to
//!   reproduce the paper's sizes exactly if you have the memory and patience.
//! * `TPATH_THREADS` — the number of worker threads (default: all cores).

use std::time::Instant;

use engine::{ExecutionOptions, GraphRelations};
use trpq::queries::QueryId;
use workload::{ContactTracingConfig, ScaleFactor};

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

/// The scale divisor taken from `TPATH_SCALE_DIVISOR` (default 25).
pub fn scale_divisor() -> usize {
    std::env::var("TPATH_SCALE_DIVISOR").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

/// The execution options taken from `TPATH_THREADS` (default: all cores).
pub fn execution_options() -> ExecutionOptions {
    match std::env::var("TPATH_THREADS").ok().and_then(|s| s.parse().ok()) {
        Some(threads) => ExecutionOptions::with_threads(threads),
        None => ExecutionOptions::default(),
    }
}

/// The peak resident set size of this process in bytes (`VmHWM`), if the platform
/// exposes it through `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The generator configuration for one scale factor under the current divisor.
pub fn config_at(scale: ScaleFactor) -> ContactTracingConfig {
    scale.scaled_config(scale_divisor())
}

/// Generates the graph for one scale factor and loads it into the engine, reporting
/// how long both took.
pub fn build_graph(scale: ScaleFactor) -> (GraphRelations, BuildReport) {
    build_graph_with(config_at(scale))
}

/// Generates a graph from an explicit configuration.
pub fn build_graph_with(config: ContactTracingConfig) -> (GraphRelations, BuildReport) {
    let start = Instant::now();
    let itpg = workload::generate(&config);
    let generate_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let relations = GraphRelations::from_itpg(&itpg);
    let load_seconds = start.elapsed().as_secs_f64();
    let stats = relations.stats();
    (
        relations,
        BuildReport {
            persons: config.trajectories.num_persons,
            nodes: stats.nodes,
            edges: stats.edges,
            temporal_nodes: stats.temporal_nodes,
            temporal_edges: stats.temporal_edges,
            generate_seconds,
            load_seconds,
        },
    )
}

/// Sizes and build times of one generated graph (one row of Table I).
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Number of persons requested from the generator.
    pub persons: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of temporal node states.
    pub temporal_nodes: usize,
    /// Number of temporal edge states.
    pub temporal_edges: usize,
    /// Seconds spent generating the trajectories and the ITPG.
    pub generate_seconds: f64,
    /// Seconds spent loading the ITPG into the engine relations.
    pub load_seconds: f64,
}

/// One measured query execution (one row of Table II).
#[derive(Debug, Clone, Copy)]
pub struct QueryMeasurement {
    /// Interval-based time (Steps 1–2), in seconds.
    pub interval_seconds: f64,
    /// Total time (Steps 1–3), in seconds.
    pub total_seconds: f64,
    /// Number of interval-level intermediate matches after Steps 1–2.
    pub interval_rows: usize,
    /// Output size in binding-table rows.
    pub output_size: usize,
}

/// Runs one of the paper's benchmark queries and records its measurements.
pub fn measure(
    id: QueryId,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> QueryMeasurement {
    let answers = engine::Query::benchmark(id).with_options(*options).run(graph);
    let out = answers.into_output().expect("the default mode materialises");
    QueryMeasurement {
        interval_seconds: out.stats.interval_time.as_secs_f64(),
        total_seconds: out.stats.total_time.as_secs_f64(),
        interval_rows: out.stats.interval_rows,
        output_size: out.stats.output_rows,
    }
}

/// Prints the standard experiment preamble.
pub fn print_preamble(experiment: &str) {
    println!("# {experiment}");
    println!(
        "# scale divisor = {} (set TPATH_SCALE_DIVISOR=1 for the paper's full sizes), threads = {}",
        scale_divisor(),
        execution_options().parallelism.threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_can_be_built_and_measured_at_the_smallest_scale() {
        let (graph, report) = build_graph_with(ContactTracingConfig::with_persons(120));
        assert_eq!(report.persons, 120);
        assert!(report.temporal_nodes >= report.nodes);
        let m = measure(QueryId::Q1, &graph, &ExecutionOptions::sequential());
        assert!(m.output_size > 0);
        assert!(m.total_seconds >= m.interval_seconds);
    }

    #[test]
    fn reach_and_recur_queries_parse_and_run() {
        let (graph, _) = build_graph_with(ContactTracingConfig::with_persons(60));
        for text in [REACH_QUERY_TEXT, RECUR_QUERY_TEXT] {
            let query = engine::Query::parse(text).unwrap();
            let stats = query.with_options(ExecutionOptions::sequential()).run(&graph).stats();
            assert!(stats.total_time >= stats.interval_time, "{text}");
        }
    }

    #[test]
    fn environment_defaults_are_sane() {
        assert!(scale_divisor() >= 1);
        assert!(execution_options().parallelism.threads() >= 1);
        // Peak RSS is best-effort: Some on Linux, None elsewhere — never a panic.
        let _ = peak_rss_bytes();
    }
}
