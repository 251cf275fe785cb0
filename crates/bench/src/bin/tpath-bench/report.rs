//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and what is done with measured values:
//! the result line, the multi-run report file and `compare`.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the driver;
//! a unit test keeps the two equal.

use std::collections::BTreeMap;

use bench::json::Json;

use crate::jsonio;
use crate::stats::median;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "adhoc-g6",
        "Q1-Q12 from query text on four bulk G6 graphs: parse, analyze, SPJ joins and Step 3 do all the work, the closure fixpoints none",
    ),
    (
        "closure-g2",
        "REACH and RECUR on 24 G2 graphs, the answer shape rotating: both closure fixpoints and IntervalSet algebra do the work, joins little",
    ),
    (
        "stream-g5",
        "the G5 contact stream ingested batch by batch with four maintained queries and no readers: apply_delta, seeded refresh, closure fallback, epoch publish",
    ),
    (
        "serve-g3",
        "one closed-loop client on a 1-worker server beside an open-loop writer of the G3 stream: queueing, pinning, snapshot churn, writer interference",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric.  Every workload
/// reports all of them; what an *operation* is differs per workload (README).
/// A bound covers the metric on all four workloads, so the noisiest sets it:
/// `serve-g3` for the two timings, the seeds' graph sizes for `peak_rss_mb`;
/// `setup_s` is given the largest the driver allows.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("op_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric.  A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The tail of the untraced rounds' operation latency.  Not end-to-end: on
    // the bulk workloads it is set by which graph the seed made slowest.
    ("op_ms_p95", "ms", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("workload.stream_generate_s", "s", "lower"),
    ("engine.relations.load_ms", "ms", "lower"),
    ("engine.relations.bytes_per_row", "B/row", "lower"),
    ("trpq.parse_us", "us", "lower"),
    ("engine.compile_us", "us", "lower"),
    ("engine.schema_summary_ms", "ms", "lower"),
    ("engine.analyze_us", "us", "lower"),
    ("engine.analyze.pruned", "count", "higher"),
    ("engine.step12_ms", "ms", "lower"),
    ("engine.interval_rows", "count", "lower"),
    ("engine.rows_per_result", "ratio", "lower"),
    ("engine.closure_ms", "ms", "lower"),
    ("engine.closure_rounds", "count", "lower"),
    ("engine.time_rounds", "count", "lower"),
    ("engine.join_decisions.hash", "count", "lower"),
    ("engine.join_decisions.merge", "count", "higher"),
    ("engine.step3_ms", "ms", "lower"),
    ("engine.compact_ms", "ms", "lower"),
    ("engine.compact_ratio", "ratio", "higher"),
    ("engine.cursor_first_page_us", "us", "lower"),
    ("engine.cursor_drain_ms", "ms", "lower"),
    ("engine.cursor_page_delay_us_max", "us", "lower"),
    ("engine.cursor_peak_buffered_rows", "count", "lower"),
    ("closure.reach_table_ms_p50", "ms", "lower"),
    ("closure.recur_table_ms_p50", "ms", "lower"),
    ("closure.recur_first_page_ms_p50", "ms", "lower"),
    ("closure.recur_compact_ms_p50", "ms", "lower"),
    ("dataflow.hash_join_ns_per_row", "ns/row", "lower"),
    ("dataflow.merge_join_gallop_ns_per_row", "ns/row", "lower"),
    ("dataflow.interval_hash_join_ns_per_row", "ns/row", "lower"),
    ("dataflow.interval_merge_join_gallop_ns_per_row", "ns/row", "lower"),
    ("dataflow.coalesce_ns_per_row", "ns/row", "lower"),
    ("dataflow.kway_merge_dedup_ns_per_row", "ns/row", "lower"),
    ("tgraph.interval_set.union_ns", "ns", "lower"),
    ("tgraph.interval_set.intersection_ns", "ns", "lower"),
    ("tgraph.interval_set.difference_ns", "ns", "lower"),
    ("tgraph.apply_batch_ms", "ms", "lower"),
    ("engine.relations.apply_delta_ms", "ms", "lower"),
    ("engine.relations.snapshot_us", "us", "lower"),
    ("engine.relations.shared_columns", "count", "higher"),
    ("engine.relations.dead_row_ratio", "ratio", "lower"),
    ("live.refresh_ms.Q1", "ms", "lower"),
    ("live.refresh_ms.Q5", "ms", "lower"),
    ("live.refresh_ms.Q9", "ms", "lower"),
    ("live.refresh_ms.REACH", "ms", "lower"),
    ("live.apply_publish_ms", "ms", "lower"),
    ("live.refresh.affected_seeds", "count", "lower"),
    ("live.refresh.fallback_share", "ratio", "lower"),
    ("live.refresh_vs_full", "ratio", "lower"),
    ("live.epoch.published", "count", "lower"),
    ("live.epoch.retired", "count", "higher"),
    ("live.epoch.retained_max", "count", "lower"),
    ("live.epoch.pin_us", "us", "lower"),
    ("live.serve.registered_us_p50", "us", "lower"),
    ("live.serve.queue_wait_us_mean", "us", "lower"),
    ("live.serve.service_ms_mean", "ms", "lower"),
    ("live.serve.worker_busy_share", "ratio", "lower"),
    ("live.serve.writer_ingest_ms_p50", "ms", "lower"),
    ("live.serve.writer_lateness_ms_max", "ms", "lower"),
    ("obs.telemetry_overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, for a workload to fill in the ones it measures.
pub fn empty_layers() -> Metrics {
    PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect()
}

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer ones (traced run).
    pub metrics: Metrics,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, unit, _, _)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

/// The one-line JSON object the driver reads from the last line of stdout.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The values one or more runs of one workload reported, per metric.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, Vec<f64>>,
}

impl WorkloadRuns {
    /// Folds one run's result line in.
    pub fn push(&mut self, line: &str) -> Result<(), String> {
        let result = jsonio::parse(line)?;
        let count = |key| jsonio::get(&result, key).and_then(jsonio::number).unwrap_or(0.0) as u64;
        self.attempted += count("attempted");
        self.failed += count("failed");
        let Some(Json::Obj(metrics)) = jsonio::get(&result, "metrics") else {
            return Err("result line has no metrics".to_owned());
        };
        for (name, entry) in metrics {
            let value = jsonio::get(entry, "value").and_then(jsonio::number).unwrap_or(0.0);
            self.values.entry(name.clone()).or_default().push(value);
        }
        Ok(())
    }
}

/// The report file: every workload's runs.
pub fn report_json(seed: u64, seconds: u64, traced: bool, runs: &[(String, WorkloadRuns)]) -> Json {
    let workloads = runs
        .iter()
        .map(|(name, w)| {
            let values = w
                .values
                .iter()
                .map(|(m, vs)| (m.clone(), Json::Arr(vs.iter().map(|&v| Json::Float(v)).collect())))
                .collect();
            let entry = Json::obj([
                ("attempted", Json::UInt(w.attempted)),
                ("failed", Json::UInt(w.failed)),
                ("metrics", Json::Obj(values)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    Json::obj([
        ("seed", Json::UInt(seed)),
        ("seconds", Json::UInt(seconds)),
        ("traced", Json::Bool(traced)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Reads a report file's workloads back.
pub fn parse_report(text: &str) -> Result<Vec<(String, WorkloadRuns)>, String> {
    let report = jsonio::parse(text)?;
    let Some(Json::Obj(workloads)) = jsonio::get(&report, "workloads") else {
        return Err("report has no workloads".to_owned());
    };
    workloads
        .iter()
        .map(|(name, entry)| {
            let count =
                |key| jsonio::get(entry, key).and_then(jsonio::number).unwrap_or(0.0) as u64;
            let Some(Json::Obj(metrics)) = jsonio::get(entry, "metrics") else {
                return Err(format!("workload {name} has no metrics"));
            };
            let values = metrics
                .iter()
                .map(|(metric, vs)| {
                    let vs = match vs {
                        Json::Arr(items) => items.iter().filter_map(jsonio::number).collect(),
                        _ => Vec::new(),
                    };
                    (metric.clone(), vs)
                })
                .collect();
            Ok((
                name.clone(),
                WorkloadRuns { attempted: count("attempted"), failed: count("failed"), values },
            ))
        })
        .collect()
}

/// Prints one workload's metrics: the median of its runs, and their spread when
/// there are several.
pub fn print_runs(name: &str, runs: &WorkloadRuns) {
    println!("{name}: ops_attempted {} ops_failed {}", runs.attempted, runs.failed);
    for (metric, values) in &runs.values {
        let spread = if values.len() >= 2 {
            let q = quartile_spread(values);
            format!("  (n={}, IQR/median {:.3})", values.len(), q)
        } else {
            String::new()
        };
        println!("  {metric:<48} {:>14.4} {}{spread}", median(values), unit_of(metric));
    }
}

/// (Q3 − Q1) ÷ median with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the driver's spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    let mid = median(&sorted);
    if n < 2 || mid == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / mid
    }
}

/// `compare A B`: per workload × end-to-end metric, both medians, the relative
/// change and the bound.  Returns the lines to print and whether B regressed:
/// a metric worse beyond its bound, or a higher share of failed operations.
pub fn compare(a: &[(String, WorkloadRuns)], b: &[(String, WorkloadRuns)]) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    )];
    let mut regressed = false;
    for (name, runs_a) in a {
        let Some((_, runs_b)) = b.iter().find(|(n, _)| n == name) else {
            lines.push(format!("{name:<12} missing from B"));
            regressed = true;
            continue;
        };
        for &(metric, unit, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (runs_a.values.get(metric), runs_b.values.get(metric))
            else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse_by = match better {
                "lower" => (mb - ma) / ma,
                _ => (ma - mb) / ma,
            };
            let verdict = if worse_by > bound { "  REGRESSED" } else { "" };
            regressed |= worse_by > bound;
            lines.push(format!(
                "{name:<12} {metric:<12} {ma:>14.4} {mb:>14.4} {:>+8.1}% {:>6.0}% {unit}{verdict}",
                worse_by * 100.0,
                bound * 100.0
            ));
        }
        let share = |w: &WorkloadRuns| w.failed as f64 / w.attempted.max(1) as f64;
        if share(runs_b) > share(runs_a) {
            lines.push(format!(
                "{name:<12} failed-op share rose: {:.4} -> {:.4}  REGRESSED",
                share(runs_a),
                share(runs_b)
            ));
            regressed = true;
        }
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(pairs: &[(&str, &[f64])], failed: u64) -> WorkloadRuns {
        WorkloadRuns {
            attempted: 100,
            failed,
            values: pairs.iter().map(|&(m, vs)| (m.to_owned(), vs.to_vec())).collect(),
        }
    }

    #[test]
    fn the_result_line_is_what_the_driver_expects_and_folds_into_a_report() {
        let outcome = Outcome {
            attempted: 120,
            failed: 0,
            metrics: [("op_ms_p50", 21.5), ("setup_s", 0.61234567)].into(),
            notes: Vec::new(),
        };
        let line = result_line(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 21.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.61234567, \"unit\": \"s\"}}}"
        );
        let mut folded = WorkloadRuns::default();
        folded.push(&line).unwrap();
        folded.push(&line).unwrap();
        assert_eq!(folded.attempted, 240);
        assert_eq!(folded.values["op_ms_p50"], vec![21.5, 21.5]);

        let report = vec![("adhoc-g6".to_owned(), folded)];
        let text = report_json(42, 15, false, &report).render();
        assert_eq!(parse_report(&text).unwrap()[0].1.values["op_ms_p50"], vec![21.5, 21.5]);
        assert_eq!(parse_report(&text).unwrap()[0].1.attempted, 240);
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound_in_the_bad_direction() {
        let a = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[20.0, 22.0, 21.0]), ("ops_per_s", &[16.0])], 0),
        )];
        let slower_within = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[24.0]), ("ops_per_s", &[15.0])], 0),
        )];
        assert!(!compare(&a, &slower_within).1);
        let much_faster = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[5.0]), ("ops_per_s", &[60.0])], 0),
        )];
        assert!(!compare(&a, &much_faster).1, "an improvement is never a regression");
        let slower_beyond = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[27.0]), ("ops_per_s", &[16.0])], 0),
        )];
        assert!(compare(&a, &slower_beyond).1);
        let less_throughput = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[21.0]), ("ops_per_s", &[11.0])], 0),
        )];
        assert!(compare(&a, &less_throughput).1);
        let failing = vec![(
            "adhoc-g6".to_owned(),
            runs(&[("op_ms_p50", &[21.0]), ("ops_per_s", &[16.0])], 1),
        )];
        assert!(compare(&a, &failing).1, "a higher failed-op share is a regression");
        assert!(compare(&a, &[]).1, "a missing workload is a regression");
    }

    #[test]
    fn the_spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program emits.  They must say the same thing.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above CARGO_MANIFEST_DIR");
        };
        let file = jsonio::parse(&text).unwrap();
        let field = |entry: &Json, key: &str| match jsonio::get(entry, key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} must be a string, got {other:?}"),
        };
        let list = |key: &str| match jsonio::get(&file, key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} must be an array, got {other:?}"),
        };
        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|&(n, w)| (n.to_owned(), w.to_owned())).collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = jsonio::get(m, "bound").and_then(jsonio::number).unwrap();
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_owned(), u.to_owned(), b.to_owned(), bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> =
            PER_LAYER.iter().map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned())).collect();
        assert_eq!(per_layer, expected);
        assert_eq!(list("paths"), vec![Json::str("crates/bench/src/bin/tpath-bench")]);
    }
}
