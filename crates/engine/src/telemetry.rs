//! The engine's handles into the process-wide metric registry.
//!
//! Handles are resolved once (first telemetry-enabled execution) and cached in
//! a `OnceLock`, so the hot paths never touch the registry's lock — they
//! record straight through the `Arc`s.  Everything here is gated on
//! [`crate::ExecutionOptions::telemetry`] at the call sites: a disabled run
//! never calls [`metrics`] at all.
//!
//! The span tree of one query execution, aggregated per node into the
//! `tpath_engine_span_seconds{span=...}` histogram family:
//!
//! ```text
//! query                      total execution
//! ├── compile                parse + plan compilation (Query::parse)
//! ├── analyze                semantic optimizer pass (optimize = true)
//! │   └── schema_scan        the SchemaSummary scan — only in the first
//! │                          optimized execution on a relations version
//! ├── step12                 structural + temporal interval evaluation
//! │   └── closure            closure fixpoints inside Steps 1–2
//! └── step3 | compact | cursor_open
//!                            point expansion, compact construction, or
//!                            enumeration-cursor setup (mode-dependent)
//! ```

use std::sync::{Arc, OnceLock};

use obs::{Counter, Histogram};

/// One histogram per span-tree node, plus the engine's counters.
pub(crate) struct EngineMetrics {
    /// `tpath_engine_queries_total` — executions through `execute` /
    /// `execute_answers`, any answer mode.
    pub queries: Arc<Counter>,
    /// `span="query"` — total wall time of one execution.
    pub span_query: Arc<Histogram>,
    /// `span="query/compile"` — parse + compile (recorded by `Query::parse` /
    /// `Query::from_clause`, where no options exist yet).
    pub span_compile: Arc<Histogram>,
    /// `span="query/analyze"` — the semantic optimizer pass.
    pub span_analyze: Arc<Histogram>,
    /// `span="query/analyze/schema_scan"` — the one `SchemaSummary` scan of a
    /// relations version, recorded by the execution that found the memo empty.
    pub span_schema_scan: Arc<Histogram>,
    /// `tpath_engine_schema_scans_total` — scans recorded in that span.
    pub schema_scans: Arc<Counter>,
    /// `span="query/step12"` — Steps 1–2 (interval phase).
    pub span_step12: Arc<Histogram>,
    /// `span="query/step12/closure"` — time inside closure fixpoints.
    pub span_closure: Arc<Histogram>,
    /// `span="query/step3"` — Step 3 materialisation.
    pub span_step3: Arc<Histogram>,
    /// `span="query/compact"` — compact answer construction.
    pub span_compact: Arc<Histogram>,
    /// `span="query/cursor_open"` — enumeration cursor setup.
    pub span_cursor_open: Arc<Histogram>,
    /// `tpath_engine_rows_total{stage="interval"}` — interval-level rows out
    /// of Steps 1–2.
    pub rows_interval: Arc<Counter>,
    /// `tpath_engine_rows_total{stage="output"}` — rows reported eagerly
    /// (table length; 0 for lazy modes, whose rows flow through
    /// `cursor_rows`).
    pub rows_output: Arc<Counter>,
    /// `tpath_engine_closure_rounds_total{kind="structural"}`.
    pub closure_rounds: Arc<Counter>,
    /// `tpath_engine_closure_rounds_total{kind="time"}`.
    pub time_rounds: Arc<Counter>,
    /// `tpath_engine_join_decisions_total{algorithm="hash"}` — adjacency
    /// probes: one per cursor a structural hop looks up in the adjacency index
    /// ([`crate::StepStats::hop_probes`]).
    pub joins_hash: Arc<Counter>,
    /// `tpath_engine_hop_cursors_total` — cursors those hops produced.
    /// `rows_total{stage="interval"}` over this is the yield of Steps 1–2:
    /// the share of traversals that survived every later filter.
    pub hop_cursors: Arc<Counter>,
    /// `tpath_engine_viability_passes_total{outcome="built"}` — backward
    /// viability passes that reached the seeds — among them every exact walk of
    /// an existential suffix.
    pub viability_built: Arc<Counter>,
    /// `outcome="skipped"` — runs left unmasked: no selective anchor, a sample
    /// batch that wasted too little to pay for the anchor's scan, or an anchor
    /// that keeps more than half its relation's rows.
    pub viability_skipped: Arc<Counter>,
    /// `tpath_engine_viability_rows_total` — row indices those passes looked
    /// at; against the fall of `hop_cursors` it is what the masks cost.
    pub viability_rows: Arc<Counter>,
    /// `tpath_engine_cursor_rows_total` — rows yielded by enumeration
    /// cursors (recorded when the cursor drops).
    pub cursor_rows: Arc<Counter>,
    /// `tpath_engine_cursor_peak_buffered_rows` — per-cursor high-water mark
    /// of buffered rows, recorded when the cursor drops so the measurement
    /// survives cursors abandoned mid-drain.
    pub cursor_peak_buffered: Arc<Histogram>,
}

const SPAN_FAMILY: &str = "tpath_engine_span_seconds";
const SPAN_HELP: &str =
    "Wall time of engine execution span-tree nodes, labelled by slash-separated path.";

fn span(reg: &obs::Registry, path: &'static str) -> Arc<Histogram> {
    reg.latency_histogram(SPAN_FAMILY, SPAN_HELP, &[("span", path)])
}

/// The cached handle set, resolved against [`obs::global`] on first use.
pub(crate) fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        let rows_help = "Rows produced by query executions, by pipeline stage.";
        let rounds_help = "Closure fixpoint rounds executed, by closure kind.";
        let joins_help = "Adjacency probes made by structural hops, by join algorithm.";
        let passes_help = "Backward viability passes over multi-batch fixpoint-free plans \
                           and plans with an existential suffix, by outcome.";
        let passes = |outcome: &'static str| {
            reg.counter("tpath_engine_viability_passes_total", passes_help, &[("outcome", outcome)])
        };
        EngineMetrics {
            queries: reg.counter(
                "tpath_engine_queries_total",
                "Query executions, any answer mode.",
                &[],
            ),
            span_query: span(reg, "query"),
            span_compile: span(reg, "query/compile"),
            span_analyze: span(reg, "query/analyze"),
            span_schema_scan: span(reg, "query/analyze/schema_scan"),
            schema_scans: reg.counter(
                "tpath_engine_schema_scans_total",
                "SchemaSummary scans run by optimized executions (one per relations version).",
                &[],
            ),
            span_step12: span(reg, "query/step12"),
            span_closure: span(reg, "query/step12/closure"),
            span_step3: span(reg, "query/step3"),
            span_compact: span(reg, "query/compact"),
            span_cursor_open: span(reg, "query/cursor_open"),
            rows_interval: reg.counter(
                "tpath_engine_rows_total",
                rows_help,
                &[("stage", "interval")],
            ),
            rows_output: reg.counter("tpath_engine_rows_total", rows_help, &[("stage", "output")]),
            closure_rounds: reg.counter(
                "tpath_engine_closure_rounds_total",
                rounds_help,
                &[("kind", "structural")],
            ),
            time_rounds: reg.counter(
                "tpath_engine_closure_rounds_total",
                rounds_help,
                &[("kind", "time")],
            ),
            joins_hash: reg.counter(
                "tpath_engine_join_decisions_total",
                joins_help,
                &[("algorithm", "hash")],
            ),
            hop_cursors: reg.counter(
                "tpath_engine_hop_cursors_total",
                "Cursors produced by structural hop joins (traversals made by Steps 1-2).",
                &[],
            ),
            viability_built: passes("built"),
            viability_skipped: passes("skipped"),
            viability_rows: reg.counter(
                "tpath_engine_viability_rows_total",
                "Row indices visited by backward viability passes.",
                &[],
            ),
            cursor_rows: reg.counter(
                "tpath_engine_cursor_rows_total",
                "Rows yielded by enumeration cursors (recorded on cursor drop).",
                &[],
            ),
            cursor_peak_buffered: reg.histogram(
                "tpath_engine_cursor_peak_buffered_rows",
                "Per-cursor high-water mark of rows buffered between expansion and \
                 emission, recorded on cursor drop.",
                &[],
            ),
        }
    })
}
