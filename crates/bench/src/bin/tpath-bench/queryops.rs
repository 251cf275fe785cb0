//! One ad-hoc query operation — query text in, answers out — run the way a
//! user runs it, or layer by layer under spans in a traced round.

use std::collections::BTreeMap;

use engine::bindings::{Binding, BindingTable};
use engine::{
    analyze, compile, execute_answers, AnswerMode, Answers, CompactAnswers, ExecutionOptions,
    GraphRelations, Query, SchemaSummary,
};
use obs::Stopwatch;

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{layer_self_ns, self_times, Tracer};

/// Rows in the first page pulled from an enumeration cursor, and in every page
/// of the drain after it.
pub const PAGE_ROWS: usize = 50;

/// Sums by key over one round; `Vec<Tally>` holds a run's rounds.
pub type Tally = BTreeMap<&'static str, f64>;

pub fn add(tally: &mut Tally, key: &'static str, value: f64) {
    *tally.entry(key).or_default() += value;
}

pub fn keep_max(tally: &mut Tally, key: &'static str, value: f64) {
    let slot = tally.entry(key).or_default();
    *slot = slot.max(value);
}

/// The median over rounds of one key.
pub fn median_of(rounds: &[Tally], key: &str) -> f64 {
    median(&rounds.iter().map(|r| r.get(key).copied().unwrap_or(0.0)).collect::<Vec<f64>>())
}

/// The answers of one operation, fully delivered.
#[derive(Debug)]
pub enum Delivered {
    Table(BindingTable),
    /// Every row of a drained enumeration cursor, in delivery order.
    Streamed(Vec<Vec<Binding>>),
    Compact(CompactAnswers),
}

/// One completed operation.
#[derive(Debug)]
pub struct Done {
    /// Text in → last answer out.
    pub latency_ms: f64,
    /// Text in → first [`PAGE_ROWS`] rows out (enumeration only, else 0).
    pub first_page_ms: f64,
    pub delivered: Delivered,
}

/// The default user configuration on one thread, telemetry as given: on only
/// where a traced operation is there to read it.
pub fn user_options(telemetry: bool) -> ExecutionOptions {
    ExecutionOptions::with_threads(1).with_telemetry(telemetry)
}

/// Runs query operations and tallies what the layers report.
pub struct QueryRunner {
    pub tracer: Tracer,
    /// Layer counts of the current round; the caller takes it at round end.
    pub tally: Tally,
}

impl QueryRunner {
    pub fn new(traced_run: bool) -> Self {
        QueryRunner { tracer: Tracer::new(traced_run), tally: Tally::new() }
    }

    /// One operation.  `spans` selects the layer-by-layer path; both paths do
    /// the same work in the same order.
    pub fn run(
        &mut self,
        graph: &GraphRelations,
        text: &str,
        mode: AnswerMode,
        spans: bool,
    ) -> Result<Done, String> {
        self.tracer.set_enabled(spans);
        let watch = Stopwatch::start();
        let options = user_options(spans).with_mode(mode);
        let answers = if spans {
            self.tracer.enter("op");
            match self.run_layers(graph, text, options) {
                Ok(answers) => answers,
                Err(error) => {
                    self.tracer.close_all();
                    return Err(error);
                }
            }
        } else {
            Query::parse(text).map_err(|e| e.to_string())?.with_options(options).run(graph)
        };
        let (delivered, first_page_ms) = self.deliver(answers, &watch, spans);
        if spans {
            self.tracer.exit();
        }
        Ok(Done { latency_ms: watch.elapsed().as_secs_f64() * 1e3, first_page_ms, delivered })
    }

    /// What `Query::parse(text)?.run(graph)` does, one public call per layer.
    fn run_layers(
        &mut self,
        graph: &GraphRelations,
        text: &str,
        options: ExecutionOptions,
    ) -> Result<Answers, String> {
        let clause = self
            .tracer
            .span("trpq.parse", || trpq::parser::parse_match(text))
            .map_err(|e| e.to_string())?;
        let plans =
            self.tracer.span("engine.compile", || compile(&clause)).map_err(|e| e.to_string())?;
        let schema = self.tracer.span("engine.schema_summary", || SchemaSummary::of(graph));
        let analysis = self.tracer.span("engine.analyze", || analyze(&plans, &schema));
        add(
            &mut self.tally,
            "pruned",
            (analysis.pruned_plans + analysis.pruned_alternatives + analysis.tightened_closures)
                as f64,
        );
        self.tracer.enter("engine.execute");
        let answers = execute_answers(&analysis.optimized, graph, &options.with_optimize(false));
        let stats = answers.stats();
        let step12 = obs::duration_nanos(stats.interval_time);
        let rest = obs::duration_nanos(stats.total_time).saturating_sub(step12);
        let shaping = match options.answer_mode {
            AnswerMode::Materialized => "engine.step3",
            AnswerMode::Compact => "engine.compact",
            AnswerMode::Enumerate => "engine.cursor_open",
        };
        self.tracer.reported(&[("engine.step12", step12), (shaping, rest)]);
        self.tracer.exit();
        add(&mut self.tally, "interval_rows", stats.interval_rows as f64);
        add(&mut self.tally, "closure_rounds", stats.closure_rounds as f64);
        add(&mut self.tally, "time_rounds", stats.time_rounds as f64);
        Ok(answers)
    }

    /// Takes delivery of the answers: a table or compact set as they are, an
    /// enumeration cursor page by page until it runs dry.
    fn deliver(&mut self, answers: Answers, watch: &Stopwatch, spans: bool) -> (Delivered, f64) {
        let (delivered, first_page_ms) = match answers.mode() {
            AnswerMode::Materialized => {
                (Delivered::Table(answers.into_table().expect("mode is materialized")), 0.0)
            }
            AnswerMode::Compact => {
                (Delivered::Compact(answers.into_compact().expect("mode is compact")), 0.0)
            }
            AnswerMode::Enumerate => {
                let mut cursor = answers.into_cursor().expect("mode is enumerate");
                self.tracer.enter("engine.cursor.first_page");
                let mut rows = cursor.page(PAGE_ROWS);
                self.tracer.exit();
                let first_page_ms = watch.elapsed().as_secs_f64() * 1e3;
                self.tracer.enter("engine.cursor.drain");
                let mut max_delay_ns = 0u64;
                loop {
                    let page_watch = spans.then(Stopwatch::start);
                    let page = cursor.page(PAGE_ROWS);
                    if let Some(page_watch) = page_watch {
                        max_delay_ns = max_delay_ns.max(page_watch.elapsed_nanos());
                    }
                    if page.is_empty() {
                        break;
                    }
                    rows.extend(page);
                }
                self.tracer.exit();
                if spans {
                    keep_max(&mut self.tally, "page_delay_ns_max", max_delay_ns as f64);
                    let peak = cursor.peak_buffered_rows() as f64;
                    keep_max(&mut self.tally, "peak_buffered_rows", peak);
                }
                (Delivered::Streamed(rows), first_page_ms)
            }
        };
        if spans {
            add(&mut self.tally, "output_rows", delivered.output_rows() as f64);
        }
        (delivered, first_page_ms)
    }

    /// Closes a traced round that began at span mark `from`: folds the round's
    /// span self times (ns, by span name, and `layers_ns` for all but the
    /// roots) into its tally and hands it over.
    pub fn end_traced_round(&mut self, from: usize) -> Tally {
        let mut tally = std::mem::take(&mut self.tally);
        let spans = &self.tracer.spans()[from..];
        for (name, nanos) in self_times(spans) {
            add(&mut tally, name, nanos as f64);
        }
        add(&mut tally, "layers_ns", layer_self_ns(spans) as f64);
        tally
    }
}

impl Delivered {
    /// Rows delivered, or `(source, target)` pairs of a compact answer.
    pub fn output_rows(&self) -> usize {
        match self {
            Delivered::Table(table) => table.len(),
            Delivered::Streamed(rows) => rows.len(),
            Delivered::Compact(compact) => compact.num_pairs(),
        }
    }
}

/// An obs histogram's `(count, sum)` or a counter's `(value, value)`, for
/// diffing around a round.  `label` is the value of the series' only label.
pub fn obs_read(family: &str, label: &str) -> (u64, u64) {
    for snapshot in obs::global().snapshot() {
        if snapshot.name != family {
            continue;
        }
        for series in &snapshot.series {
            if label.is_empty() || series.labels.iter().any(|(_, v)| v == label) {
                return match &series.value {
                    obs::SeriesValue::Counter(v) => (*v, *v),
                    obs::SeriesValue::Gauge(v) => (*v as u64, *v as u64),
                    obs::SeriesValue::Histogram(h) => (h.count, h.sum),
                };
            }
        }
    }
    (0, 0)
}

/// The engine-side obs readings a query round is diffed against.
#[derive(Debug, Clone, Copy)]
pub struct EngineObs {
    closure_ns: u64,
    hash_joins: u64,
    merge_joins: u64,
}

impl EngineObs {
    pub fn read() -> Self {
        EngineObs {
            closure_ns: obs_read("tpath_engine_span_seconds", "query/step12/closure").1,
            hash_joins: obs_read("tpath_engine_join_decisions_total", "hash").0,
            merge_joins: obs_read("tpath_engine_join_decisions_total", "merge").0,
        }
    }

    /// Adds what happened since `self` was read to a round's tally.
    pub fn diff_into(self, tally: &mut Tally) {
        let now = EngineObs::read();
        add(tally, "closure_ns", (now.closure_ns - self.closure_ns) as f64);
        add(tally, "hash_joins", (now.hash_joins - self.hash_joins) as f64);
        add(tally, "merge_joins", (now.merge_joins - self.merge_joins) as f64);
    }
}

/// The per-layer metrics every query workload derives from its traced rounds.
pub fn query_layers(rounds: &[Tally], layers: &mut Metrics) {
    let ns = |key: &str| median_of(rounds, key);
    layers.insert("trpq.parse_us", ns("trpq.parse") / 1e3);
    layers.insert("engine.compile_us", ns("engine.compile") / 1e3);
    layers.insert("engine.schema_summary_ms", ns("engine.schema_summary") / 1e6);
    layers.insert("engine.analyze_us", ns("engine.analyze") / 1e3);
    layers.insert("engine.analyze.pruned", ns("pruned"));
    layers.insert("engine.step12_ms", ns("engine.step12") / 1e6);
    layers.insert("engine.interval_rows", ns("interval_rows"));
    let outputs = ns("output_rows");
    layers.insert(
        "engine.rows_per_result",
        if outputs > 0.0 { ns("interval_rows") / outputs } else { 0.0 },
    );
    layers.insert("engine.closure_ms", ns("closure_ns") / 1e6);
    layers.insert("engine.closure_rounds", ns("closure_rounds"));
    layers.insert("engine.time_rounds", ns("time_rounds"));
    layers.insert("engine.join_decisions.hash", ns("hash_joins"));
    layers.insert("engine.join_decisions.merge", ns("merge_joins"));
    layers.insert("engine.step3_ms", ns("engine.step3") / 1e6);
    layers.insert("engine.compact_ms", ns("engine.compact") / 1e6);
    layers.insert("engine.cursor_first_page_us", ns("engine.cursor.first_page") / 1e3);
    layers.insert("engine.cursor_drain_ms", ns("engine.cursor.drain") / 1e6);
    layers.insert("engine.cursor_page_delay_us_max", ns("page_delay_ns_max") / 1e3);
    layers.insert("engine.cursor_peak_buffered_rows", ns("peak_buffered_rows"));
}
