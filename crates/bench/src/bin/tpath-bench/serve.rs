//! `serve-g3`: reads beside writes.  One writer thread ingests the second half of
//! a G3 stream on an open-loop schedule — a batch is *due* every [`PERIOD_MS`], whether or not
//! the last one finished — while one closed-loop client drives a 1-worker
//! `Server`: the next request goes out only when the previous one came back.
//!
//! A run cycles its passes through [`STREAMS`] streams generated from sub-seeds
//! of `--seed`: what a request costs moves ±15 % with the generator seed, and
//! several streams average that out where one would carry it into every metric.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use engine::plan::PlanSet;
use engine::{execute, AnswerMode, CompactAnswers};
use live::{LiveQueryId, Request, Response, ServeGraph, Server};
use obs::Stopwatch;
use tgraph::Batch;
use trpq::queries::QueryId;
use workload::ScaleFactor;

use crate::check;
use crate::queryops::{keep_max, median_of, obs_read, user_options, Tally};
use crate::report::{empty_layers, Metrics, Outcome};
use crate::stats::{lateness, mean_over_groups, median, quantile, sub_seed, tail_note, SplitMix64};
use crate::stream::{
    empty_graph, epoch_layers, epoch_tally, generate_stream, maintained_plans, verify_maintained,
};
use crate::trace::Tracer;
use crate::RunArgs;

const NAME: &str = "serve-g3";
const PERIOD_MS: f64 = 100.0;
/// Streams per run, each set up once on the clock (`setup_s` is the median).
/// Six passes fit in a 15 s run, so each stream gets one.
const STREAMS: usize = 6;
/// Batches ingested before the clock starts.  A closed-loop client sends more
/// requests while they are cheap, so a pass that began on an empty graph would
/// draw most of its samples from a graph nobody serves from.
const PRELOADED: usize = 24;
/// Every this-many-th response is checked against `execute` at its own epoch.
const VERIFY_EVERY: usize = 50;

/// One kind of request in the client's rotation, with the plan that checks it.
struct Variant {
    request: Request,
    plan: PlanSet,
    adhoc: bool,
}

/// The rotation: each block of four is one `Registered` read of Q1/Q5/Q9 and
/// three `AdHoc` executions drawn, in an order the seed fixes, from
/// {Q1, Q5, Q9, Q12, REACH} × {table, cursor, compact}.
fn rotation(seed: u64, ids: &[LiveQueryId], plans: &[(&'static str, PlanSet)]) -> Vec<Variant> {
    let texts = [
        QueryId::Q1.text(),
        QueryId::Q5.text(),
        QueryId::Q9.text(),
        QueryId::Q12.text(),
        bench::REACH_QUERY_TEXT,
    ];
    let mut adhoc: Vec<Variant> = Vec::new();
    for text in texts {
        let clause = trpq::parser::parse_match(text).expect("benchmark queries parse");
        let plan = engine::compile(&clause).expect("benchmark queries compile");
        for mode in [AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact] {
            let request = Request::AdHoc { text: text.to_owned(), mode };
            adhoc.push(Variant { request, plan: plan.clone(), adhoc: true });
        }
    }
    SplitMix64(seed).shuffle(&mut adhoc);
    let mut adhoc = adhoc.into_iter();
    let mut out = Vec::new();
    for block in 0..texts.len() {
        let registered = block % ids.len();
        out.push(Variant {
            request: Request::Registered(ids[registered]),
            plan: plans[registered].1.clone(),
            adhoc: false,
        });
        out.extend(adhoc.by_ref().take(3));
    }
    out
}

/// Whether a response equals a from-scratch execution at the epoch it pinned.
fn verified(variant: &Variant, response: &Response) -> bool {
    let expected = execute(&variant.plan, response.epoch.relations(), &user_options(false)).table;
    match (response.answer.rows(), response.answer.compact()) {
        (Some(rows), _) => *rows == expected,
        (None, Some(compact)) => *compact == CompactAnswers::from_table(&expected),
        (None, None) => false,
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    /// Which of the run's streams it ran on.
    stream: usize,
    adhoc_ms: Vec<f64>,
    registered_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    wall_ms: f64,
    attempted: u64,
    failed: u64,
    tally: Tally,
    digests: check::Digests,
}

impl Pass {
    fn requests_per_s(&self) -> f64 {
        let busy_ms: f64 = self.adhoc_ms.iter().chain(&self.registered_ms).sum();
        (self.adhoc_ms.len() + self.registered_ms.len()) as f64 / (busy_ms / 1e3)
    }

    fn late(&self) -> bool {
        self.lateness_ms.iter().any(|&l| l > PERIOD_MS)
    }
}

/// What a pass needs before its clock starts — the workload's set-up: an empty
/// graph maintaining Q1/Q5/Q9, the first [`PRELOADED`] batches ingested, a
/// 1-worker server.  Also returns how many of those ingests failed.
fn set_up(
    batches: &[Batch],
    plans: &[(&'static str, PlanSet)],
    spans: bool,
) -> (Arc<ServeGraph>, Vec<LiveQueryId>, Server, u64) {
    let (graph, ids) = empty_graph(plans, user_options(spans));
    let failures = batches[..PRELOADED].iter().filter(|batch| graph.ingest(batch).is_err()).count();
    let graph = Arc::new(graph);
    let server = Server::start(Arc::clone(&graph), 1);
    (graph, ids, server, failures as u64)
}

fn pass(
    streams: &[Vec<Batch>],
    stream: usize,
    seed: u64,
    tracer: &mut Tracer,
    spans: bool,
) -> Pass {
    let batches = &streams[stream];
    let plans = maintained_plans(false);
    let (graph, ids, server, failures) = set_up(batches, &plans, spans);
    let variants = rotation(sub_seed(seed, stream), &ids, &plans);
    let mut out = Pass { stream, failed: failures, ..Pass::default() };
    let batches = &batches[PRELOADED..];
    tracer.set_enabled(spans);
    let queue_wait = obs_read("tpath_serve_queue_wait_seconds", "");
    let served = obs_read("tpath_serve_request_seconds", "");
    let done = AtomicBool::new(false);
    let origin = Stopwatch::start();

    let (starts_ms, ingest_ms, ingest_failures) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let (mut starts, mut ingests, mut failures) = (Vec::new(), Vec::new(), 0u64);
            for (index, batch) in batches.iter().enumerate() {
                let due_ms = index as f64 * PERIOD_MS;
                let now_ms = origin.elapsed().as_secs_f64() * 1e3;
                if now_ms < due_ms {
                    std::thread::sleep(Duration::from_secs_f64((due_ms - now_ms) / 1e3));
                }
                starts.push(origin.elapsed().as_secs_f64() * 1e3);
                let watch = Stopwatch::start();
                failures += u64::from(graph.ingest(batch).is_err());
                ingests.push(watch.elapsed().as_secs_f64() * 1e3);
            }
            done.store(true, Ordering::Release);
            (starts, ingests, failures)
        });

        let mut sent = 0usize;
        while !done.load(Ordering::Acquire) {
            let variant = &variants[sent % variants.len()];
            sent += 1;
            out.attempted += 1;
            let watch = Stopwatch::start();
            let response =
                tracer.span("live.serve.request", || server.submit(variant.request.clone()).wait());
            let latency_ms = watch.elapsed().as_secs_f64() * 1e3;
            let Ok(response) = response else {
                out.failed += 1;
                continue;
            };
            if variant.adhoc { &mut out.adhoc_ms } else { &mut out.registered_ms }.push(latency_ms);
            if sent % VERIFY_EVERY == 0 && !verified(variant, &response) {
                out.failed += 1;
            }
            if spans {
                keep_max(&mut out.tally, "retained_max", graph.stats().retained as f64);
            }
        }
        writer.join().expect("the writer thread does not panic")
    });
    out.wall_ms = origin.elapsed().as_secs_f64() * 1e3;
    server.shutdown();

    out.attempted += batches.len() as u64;
    out.failed += ingest_failures;
    out.lateness_ms = lateness(&starts_ms, PERIOD_MS);
    out.ingest_ms = ingest_ms;
    if spans {
        let (wait_now, served_now) = (
            obs_read("tpath_serve_queue_wait_seconds", ""),
            obs_read("tpath_serve_request_seconds", ""),
        );
        let tally = &mut out.tally;
        tally.insert("requests", (served_now.0 - served.0) as f64);
        tally.insert("queue_wait_ns", (wait_now.1 - queue_wait.1) as f64);
        tally.insert("served_ns", (served_now.1 - served.1) as f64);
        epoch_tally(&graph, tally);
    }
    let (agree, digests) = verify_maintained(&graph, &ids, &plans);
    if !agree || graph.batches_applied() != PRELOADED + batches.len() {
        out.failed = out.attempted;
    }
    out.digests = digests;
    out
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut setups: Vec<f64> = Vec::new();
    let mut generated: Vec<f64> = Vec::new();
    let mut streams: Vec<Vec<Batch>> = Vec::new();
    for index in 0..STREAMS {
        let watch = Stopwatch::start();
        let (stream, generate_s) = generate_stream(ScaleFactor::G3, sub_seed(args.seed, index));
        assert!(stream.len() > PRELOADED, "the stream has one batch per time slot");
        set_up(&stream, &maintained_plans(false), false).2.shutdown();
        setups.push(watch.elapsed().as_secs_f64());
        generated.push(generate_s);
        streams.push(stream);
    }

    // Plain and traced passes each cycle through the streams on their own, and
    // the plain ones visit every stream before the clock may stop the run.
    let mut tracer = Tracer::new(args.traced);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let measure = Stopwatch::start();
    while plain.len() < STREAMS || measure.elapsed().as_secs_f64() < args.seconds {
        let spans = args.traced && (plain.len() + traced.len()) % 2 == 1;
        let passes = if spans { &mut traced } else { &mut plain };
        let stream = passes.len() % STREAMS;
        passes.push(pass(&streams, stream, args.seed, &mut tracer, spans));
    }

    let attempted: u64 = plain.iter().chain(&traced).map(|p| p.attempted).sum();
    let mut failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    // The first pass ran on the stream of `--seed` itself, whose tables are pinned.
    let pinned_digests = std::mem::take(&mut plain[0].digests);
    // A pass whose writer slipped a whole period behind its schedule measured a
    // different workload; it is set aside unless every pass did.
    let late = plain.iter().filter(|p| p.late()).count();
    if late < plain.len() {
        plain.retain(|p| !p.late());
    }
    let adhoc: Vec<f64> = plain.iter().flat_map(|p| p.adhoc_ms.iter().copied()).collect();
    let lateness_max =
        plain.iter().chain(&traced).flat_map(|p| p.lateness_ms.iter().copied()).fold(0.0, f64::max);
    let mut notes = vec![
        format!(
            "{NAME}: {STREAMS} streams, {PRELOADED} batches preloaded, {} due every {PERIOD_MS} ms, {} plain + {} traced passes, {late} set aside as late (max lateness {lateness_max:.1} ms)",
            streams[0].len() - PRELOADED,
            plain.len(),
            traced.len()
        ),
        format!(
            "AdHoc samples: {}; highest percentile with >=10 samples beyond it: {}",
            adhoc.len(),
            tail_note(&adhoc)
        ),
    ];
    if let Some(note) = check::pin_failure(args, NAME, &pinned_digests) {
        notes.push(note);
        failed = attempted;
    }
    // Both per stream, then averaged over the streams (a stream whose passes
    // were all set aside is left out).
    let rate = |passes: &[Pass]| {
        mean_over_groups(
            passes,
            STREAMS,
            |p| p.stream,
            |of_stream| median(&of_stream.iter().map(|p| p.requests_per_s()).collect::<Vec<_>>()),
        )
    };
    let op_ms_p50 = mean_over_groups(
        &plain,
        STREAMS,
        |p| p.stream,
        |of_stream| {
            median(&of_stream.iter().flat_map(|p| p.adhoc_ms.iter().copied()).collect::<Vec<_>>())
        },
    );

    let metrics = if args.traced {
        let mut layers = empty_layers();
        let tallies: Vec<Tally> = traced.iter().map(|p| p.tally.clone()).collect();
        let of = |key: &str| median_of(&tallies, key);
        let requests = of("requests");
        let registered: Vec<f64> =
            plain.iter().flat_map(|p| p.registered_ms.iter().map(|ms| ms * 1e3)).collect();
        let ingests: Vec<f64> = plain.iter().flat_map(|p| p.ingest_ms.iter().copied()).collect();
        let traced_wall_ms = median(&traced.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
        let traced_busy_ms: f64 = median(
            &traced
                .iter()
                .map(|p| p.adhoc_ms.iter().chain(&p.registered_ms).sum::<f64>())
                .collect::<Vec<_>>(),
        );
        layers.insert("op_ms_p95", quantile(&adhoc, 0.95));
        layers.insert("workload.stream_generate_s", median(&generated));
        epoch_layers(&tallies, &mut layers);
        layers.insert("live.serve.registered_us_p50", median(&registered));
        layers.insert("live.serve.queue_wait_us_mean", of("queue_wait_ns") / requests / 1e3);
        layers.insert(
            "live.serve.service_ms_mean",
            (of("served_ns") - of("queue_wait_ns")) / requests / 1e6,
        );
        layers.insert(
            "live.serve.worker_busy_share",
            (of("served_ns") - of("queue_wait_ns")) / 1e6 / traced_wall_ms,
        );
        layers.insert("live.serve.writer_ingest_ms_p50", median(&ingests));
        layers.insert("live.serve.writer_lateness_ms_max", lateness_max);
        layers.insert(
            "obs.telemetry_overhead_pct",
            (rate(&plain) - rate(&traced)) / rate(&plain) * 100.0,
        );
        // Server-side request time over client-side latency: what the client
        // waited for that the server accounts for.
        layers.insert("trace.coverage", of("served_ns") / 1e6 / traced_busy_ms);
        crate::write_trace(NAME, tracer.spans());
        layers
    } else {
        Metrics::from([
            ("setup_s", median(&setups)),
            ("op_ms_p50", op_ms_p50),
            ("ops_per_s", rate(&plain)),
        ])
    };
    Outcome { attempted, failed, metrics, notes }
}
