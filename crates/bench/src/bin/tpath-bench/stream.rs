//! `stream-g5`: the contact stream ingested batch by batch into an empty
//! `ServeGraph` that maintains Q1, Q5, Q9 and REACH — the write path, no readers.

use engine::plan::PlanSet;
use engine::{execute, ExecutionOptions, GraphRelations};
use live::{LiveQueryId, ServeGraph};
use obs::Stopwatch;
use tgraph::{Batch, Interval, Itpg};
use trpq::queries::QueryId;
use workload::ScaleFactor;

use crate::check::{self, Digests};
use crate::queryops::{add, keep_max, median_of, user_options, Tally};
use crate::report::{empty_layers, Metrics, Outcome};
use crate::stats::{median, quantile, tail_note};
use crate::trace::{self, Tracer};
use crate::RunArgs;

const NAME: &str = "stream-g5";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The queries a live graph maintains: a structural scan, a structural join, a
/// temporal query, and — `with_reach` — the closure whose refresh falls back
/// to a full recompute.
pub fn maintained_plans(with_reach: bool) -> Vec<(&'static str, PlanSet)> {
    let mut plans: Vec<(&'static str, PlanSet)> = [QueryId::Q1, QueryId::Q5, QueryId::Q9]
        .into_iter()
        .map(|id| (id.name(), engine::queries::plan_for(id)))
        .collect();
    if with_reach {
        let clause = trpq::parser::parse_match(bench::REACH_QUERY_TEXT).expect("REACH parses");
        plans.push((bench::REACH_QUERY_NAME, engine::compile(&clause).expect("REACH compiles")));
    }
    plans
}

/// An empty serving graph with `plans` registered.
pub fn empty_graph(
    plans: &[(&'static str, PlanSet)],
    options: ExecutionOptions,
) -> (ServeGraph, Vec<LiveQueryId>) {
    let graph = ServeGraph::with_options(Itpg::empty(Interval::of(0, 1)), options);
    let ids = plans.iter().map(|(_, plan)| graph.register(plan.clone())).collect();
    (graph, ids)
}

/// The stream of one scale at `seed`, with the time generating it took.
pub fn generate_stream(scale: ScaleFactor, seed: u64) -> (Vec<Batch>, f64) {
    let watch = Stopwatch::start();
    let batches = workload::stream_contact_batches(&scale.paper_config().with_seed(seed));
    (batches, watch.elapsed().as_secs_f64())
}

/// Whether every maintained table of the current epoch equals a from-scratch
/// `execute` on that epoch's relations, and the tables' digests.
pub fn verify_maintained(
    graph: &ServeGraph,
    ids: &[LiveQueryId],
    plans: &[(&'static str, PlanSet)],
) -> (bool, Digests) {
    let pinned = graph.pin();
    let mut digests = Digests::new();
    let mut agree = true;
    for (&id, (name, plan)) in ids.iter().zip(plans) {
        let expected = execute(plan, pinned.relations(), &user_options(false)).table;
        match pinned.table(id) {
            Some(table) => {
                agree &= **table == expected;
                digests.insert((*name).to_owned(), check::digest_table(table));
            }
            None => agree = false,
        }
    }
    (agree, digests)
}

/// The epoch layer's counters at the end of a pass, and what a `pin()` costs.
pub fn epoch_tally(graph: &ServeGraph, tally: &mut Tally) {
    let stats = graph.stats();
    tally.insert("published", stats.published as f64);
    tally.insert("retired", stats.retired as f64);
    let pins: Vec<f64> = (0..101)
        .map(|_| {
            let watch = Stopwatch::start();
            std::hint::black_box(graph.pin());
            watch.elapsed_nanos() as f64
        })
        .collect();
    tally.insert("pin_ns", median(&pins));
}

/// The per-layer metrics read from [`epoch_tally`]'s keys (`retained_max` is
/// kept by the pass itself, sampled while it runs).
pub fn epoch_layers(tallies: &[Tally], layers: &mut Metrics) {
    layers.insert("live.epoch.published", median_of(tallies, "published"));
    layers.insert("live.epoch.retired", median_of(tallies, "retired"));
    layers.insert("live.epoch.retained_max", median_of(tallies, "retained_max"));
    layers.insert("live.epoch.pin_us", median_of(tallies, "pin_ns") / 1e3);
}

/// What one pass over the stream measured.
struct Pass {
    ingest_ms: Vec<f64>,
    failed: u64,
    tally: Tally,
    digests: Digests,
}

fn pass(
    batches: &[Batch],
    plans: &[(&'static str, PlanSet)],
    tracer: &mut Tracer,
    spans: bool,
) -> Pass {
    let (graph, ids) = empty_graph(plans, user_options(spans));
    let mut out =
        Pass { ingest_ms: Vec::new(), failed: 0, tally: Tally::new(), digests: Digests::new() };
    tracer.set_enabled(spans);
    let from = tracer.mark();
    for (index, batch) in batches.iter().enumerate() {
        tracer.enter("live.ingest");
        let watch = Stopwatch::start();
        let report = graph.ingest(batch);
        out.ingest_ms.push(watch.elapsed().as_secs_f64() * 1e3);
        let Ok(report) = report else {
            tracer.close_all();
            out.failed += 1;
            continue;
        };
        if !spans {
            tracer.exit();
            continue;
        }
        let refreshes: Vec<(&'static str, u64)> =
            ["live.refresh.Q1", "live.refresh.Q5", "live.refresh.Q9", "live.refresh.REACH"]
                .into_iter()
                .zip(&report.refreshes)
                .map(|(name, stats)| (name, obs::duration_nanos(stats.duration)))
                .collect();
        tracer.reported(&refreshes);
        tracer.exit();
        let tally = &mut out.tally;
        for stats in &report.refreshes {
            add(tally, "affected_seeds", stats.affected_seeds as f64);
            add(tally, "fallbacks", f64::from(u8::from(stats.fallback_full)));
            add(tally, "refreshes", 1.0);
        }
        keep_max(tally, "retained_max", graph.stats().retained as f64);
        // Every 8th batch: what recomputing the four answers from scratch on
        // the same epoch would have cost, against what the refreshes did cost.
        if index % 8 == 7 {
            let pinned = graph.pin();
            let watch = Stopwatch::start();
            for (_, plan) in plans {
                std::hint::black_box(execute(plan, pinned.relations(), &user_options(false)));
            }
            add(tally, "full_ns", watch.elapsed_nanos() as f64);
            add(tally, "sampled_refresh_ns", refreshes.iter().map(|&(_, ns)| ns as f64).sum());
        }
    }
    if spans {
        let recorded = &tracer.spans()[from..];
        for (name, nanos) in trace::self_times(recorded) {
            add(&mut out.tally, name, nanos as f64);
        }
        add(&mut out.tally, "layers_ns", trace::layer_self_ns(recorded) as f64);
        epoch_tally(&graph, &mut out.tally);
    }
    let (agree, digests) = verify_maintained(&graph, &ids, plans);
    if !agree || graph.batches_applied() != batches.len() {
        out.failed = batches.len() as u64;
    }
    out.digests = digests;
    out
}

/// The stream replayed on a benchmark-owned `Itpg` + `GraphRelations`, timing
/// the two layers `ServeGraph::ingest` calls first.
fn replay(batches: &[Batch], layers: &mut Metrics) {
    let mut itpg = Itpg::empty(Interval::of(0, 1));
    let mut relations = GraphRelations::from_itpg(&itpg);
    let (mut apply_batch_ns, mut apply_delta_ns) = (0u64, 0u64);
    let (mut snapshot_ns, mut shared): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for batch in batches {
        let watch = Stopwatch::start();
        let snapshot = relations.snapshot();
        snapshot_ns.push(watch.elapsed_nanos() as f64);
        let watch = Stopwatch::start();
        let Ok(applied) = itpg.apply_batch(batch) else { continue };
        apply_batch_ns += watch.elapsed_nanos();
        let watch = Stopwatch::start();
        relations.apply_delta(&itpg, &applied.touched);
        apply_delta_ns += watch.elapsed_nanos();
        shared.push(relations.shared_columns(&snapshot) as f64);
    }
    let dead_nodes =
        (0..relations.node_rows().len() as u32).filter(|&r| !relations.is_node_row_live(r)).count();
    let dead_edges =
        (0..relations.edge_rows().len() as u32).filter(|&r| !relations.is_edge_row_live(r)).count();
    let rows = (relations.node_rows().len() + relations.edge_rows().len()).max(1);
    layers.insert("tgraph.apply_batch_ms", apply_batch_ns as f64 / 1e6);
    layers.insert("engine.relations.apply_delta_ms", apply_delta_ns as f64 / 1e6);
    layers.insert("engine.relations.snapshot_us", median(&snapshot_ns) / 1e3);
    layers.insert("engine.relations.shared_columns", median(&shared));
    layers
        .insert("engine.relations.dead_row_ratio", (dead_nodes + dead_edges) as f64 / rows as f64);
}

pub fn run(args: &RunArgs) -> Outcome {
    let plans = maintained_plans(true);
    let mut setups: Vec<f64> = Vec::new();
    let mut generated: Vec<f64> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let watch = Stopwatch::start();
        let (stream, generate_s) = generate_stream(ScaleFactor::G5, args.seed);
        std::hint::black_box(empty_graph(&plans, user_options(false)));
        setups.push(watch.elapsed().as_secs_f64());
        generated.push(generate_s);
        batches = stream;
    }
    let mutations = workload::mutation_count(&batches);

    let mut tracer = Tracer::new(args.traced);
    pass(&batches, &plans, &mut tracer, false);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let measure = Stopwatch::start();
    while plain.len() + traced.len() < 2 || measure.elapsed().as_secs_f64() < args.seconds {
        let spans = args.traced && (plain.len() + traced.len()) % 2 == 1;
        let done = pass(&batches, &plans, &mut tracer, spans);
        if spans { &mut traced } else { &mut plain }.push(done);
    }

    let attempted = ((plain.len() + traced.len()) * batches.len()) as u64;
    let mut failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    let pass_ms = |passes: &[Pass]| {
        median(&passes.iter().map(|p| p.ingest_ms.iter().sum::<f64>()).collect::<Vec<_>>())
    };
    let samples: Vec<f64> = plain.iter().flat_map(|p| p.ingest_ms.iter().copied()).collect();
    let mut notes = vec![
        format!(
            "{NAME}: {} batches, {mutations} mutations, {} plain + {} traced passes, pass {:.1} ms",
            batches.len(),
            plain.len(),
            traced.len(),
            pass_ms(&plain)
        ),
        format!(
            "ingest samples: {}; highest percentile with >=10 samples beyond it: {}",
            samples.len(),
            tail_note(&samples)
        ),
    ];
    if let Some(note) = check::pin_failure(args, NAME, &plain[0].digests) {
        notes.push(note);
        failed = attempted;
    }

    let metrics = if args.traced {
        let mut layers = empty_layers();
        let (plain_ms, traced_ms) = (pass_ms(&plain), pass_ms(&traced));
        let tallies: Vec<Tally> = traced.into_iter().map(|p| p.tally).collect();
        let of = |key: &str| median_of(&tallies, key);
        layers.insert("op_ms_p95", quantile(&samples, 0.95));
        layers.insert("workload.stream_generate_s", median(&generated));
        for (metric, span) in [
            ("live.refresh_ms.Q1", "live.refresh.Q1"),
            ("live.refresh_ms.Q5", "live.refresh.Q5"),
            ("live.refresh_ms.Q9", "live.refresh.Q9"),
            ("live.refresh_ms.REACH", "live.refresh.REACH"),
            ("live.apply_publish_ms", "live.ingest"),
        ] {
            layers.insert(metric, of(span) / 1e6);
        }
        layers.insert("live.refresh.affected_seeds", of("affected_seeds"));
        layers.insert("live.refresh.fallback_share", of("fallbacks") / of("refreshes"));
        layers.insert("live.refresh_vs_full", of("sampled_refresh_ns") / of("full_ns"));
        epoch_layers(&tallies, &mut layers);
        replay(&batches, &mut layers);
        layers.insert("obs.telemetry_overhead_pct", (traced_ms - plain_ms) / plain_ms * 100.0);
        // The refreshes' share of an untraced pass; the rest is apply + publish.
        layers.insert("trace.coverage", of("layers_ns") / 1e6 / plain_ms);
        crate::write_trace(NAME, tracer.spans());
        layers
    } else {
        let pass_s = pass_ms(&plain) / 1e3;
        Metrics::from([
            ("setup_s", median(&setups)),
            ("op_ms_p50", median(&samples)),
            ("ops_per_s", mutations as f64 / pass_s),
        ])
    };
    Outcome { attempted, failed, metrics, notes }
}
