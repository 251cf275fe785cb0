//! `tpath-serve` — the concurrent query-serving demo binary.
//!
//! Stands up the MVCC serving stack end to end: a single writer streams the
//! contact-tracing workload into a [`live::serve::ServeGraph`] batch by batch
//! while a [`live::serve::Server`] worker pool answers registered reads and
//! ad-hoc queries (all three answer modes) from pinned epoch snapshots.  Every
//! response is verified against a from-scratch `execute` on the relations of
//! the epoch it pinned, and the binary exits non-zero on any divergence — so
//! it doubles as a standalone concurrency smoke test.
//!
//! ```text
//! cargo run --release -p bench --bin tpath-serve -- \
//!     [--persons N] [--time-points T] [--seed S] [--readers R] [--query TEXT]... \
//!     [--watch] [--dump-metrics PATH]
//! ```
//!
//! * `--persons`      — workload size (default 200).
//! * `--time-points`  — temporal domain length (default 24).
//! * `--seed`         — workload RNG seed (default the perf seed).
//! * `--readers`      — worker threads / concurrent clients (default 4).
//! * `--query`        — extra ad-hoc `MATCH …` text to serve alongside the
//!   registered set (repeatable; default none).
//! * `--watch`        — periodically scrape [`Request::Metrics`] while serving
//!   and print the counter/gauge lines (the live dashboard view).
//! * `--dump-metrics` — write the final Prometheus scrape to a file.
//!
//! The registered set is Q1, Q5, Q9 and the REACH closure.
//!
//! Besides verifying every answer, the binary scrapes its own metrics through
//! the server (mid-ingest, so queries are genuinely in flight) and fails if
//! the scrape does not cover the `tpath_engine_` / `tpath_live_` /
//! `tpath_epoch_` / `tpath_serve_` families — a standalone end-to-end check
//! of the observability layer.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use engine::{execute, execute_answers, AnswerMode, ExecutionOptions, PlanSet};
use live::serve::{MetricsFormat, Request, ServeGraph, Server};
use tgraph::{Interval, Itpg};
use trpq::queries::QueryId;
use workload::ContactTracingConfig;

/// Matches the `tpath-perf` seed so the served graph is the perf graph.
const SERVE_SEED: u64 = 0x7e_a7_05;

struct Args {
    persons: usize,
    time_points: u64,
    seed: u64,
    readers: usize,
    queries: Vec<String>,
    watch: bool,
    dump_metrics: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        persons: 200,
        time_points: 24,
        seed: SERVE_SEED,
        readers: 4,
        queries: Vec::new(),
        watch: false,
        dump_metrics: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--persons" => {
                args.persons = value("--persons")?.parse().map_err(|e| format!("{e}"))?
            }
            "--time-points" => {
                args.time_points = value("--time-points")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--readers" => {
                args.readers = value("--readers")?.parse().map_err(|e| format!("{e}"))?
            }
            "--query" => args.queries.push(value("--query")?),
            "--watch" => args.watch = true,
            "--dump-metrics" => args.dump_metrics = Some(value("--dump-metrics")?),
            "--help" | "-h" => {
                println!(
                    "tpath-serve [--persons N] [--time-points T] [--seed S] [--readers R] \
                     [--query TEXT]... [--watch] [--dump-metrics PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tpath-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    let options = ExecutionOptions::with_threads(1);
    let config = ContactTracingConfig::with_persons(args.persons)
        .with_seed(args.seed)
        .with_time_points(args.time_points)
        .with_positivity_rate(0.1);
    let batches = workload::stream_contact_batches(&config);
    let mutations = workload::mutation_count(&batches);

    // The registered (maintained) set plus any ad-hoc texts from the CLI.
    let mut registered: Vec<(String, PlanSet)> = [QueryId::Q1, QueryId::Q5, QueryId::Q9]
        .into_iter()
        .map(|id| (id.name().to_string(), engine::queries::plan_for(id)))
        .collect();
    let reach = trpq::parser::parse_match(bench::REACH_QUERY_TEXT).expect("REACH parses");
    registered.push((
        bench::REACH_QUERY_NAME.to_string(),
        engine::compile(&reach).expect("REACH compiles"),
    ));
    let mut adhoc: Vec<(String, Arc<PlanSet>)> = Vec::new();
    for text in &args.queries {
        let clause = match trpq::parser::parse_match(text) {
            Ok(clause) => clause,
            Err(error) => {
                eprintln!("tpath-serve: cannot parse {text:?}: {error}");
                return ExitCode::FAILURE;
            }
        };
        match engine::compile(&clause) {
            Ok(plan) => adhoc.push((text.clone(), Arc::new(plan))),
            Err(error) => {
                eprintln!("tpath-serve: cannot compile {text:?}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }

    let graph = Arc::new(ServeGraph::with_options(Itpg::empty(Interval::of(0, 1)), options));
    let ids: Vec<_> = registered.iter().map(|(_, plan)| graph.register(plan.clone())).collect();
    let plans: Vec<Arc<PlanSet>> =
        registered.iter().map(|(_, plan)| Arc::new(plan.clone())).collect();
    let server = Server::start(Arc::clone(&graph), args.readers);
    println!(
        "# tpath-serve: {} persons, {} batches, {} mutations, {} registered queries, \
         {} ad-hoc queries, {} workers",
        args.persons,
        batches.len(),
        mutations,
        registered.len(),
        adhoc.len(),
        args.readers,
    );

    // Warm-up: one compiled request proves the pool serves queries and seeds
    // the engine metric families before the first scrape looks for them.
    server
        .submit(Request::Compiled { plan: Arc::clone(&plans[0]), mode: AnswerMode::Materialized })
        .wait()
        .expect("warm-up request");

    let done = AtomicBool::new(false);
    let agree = AtomicBool::new(true);
    let inflight_scrape_ok = AtomicBool::new(false);
    let requests = AtomicUsize::new(0);
    let start = Instant::now();
    let mut writer_seconds = 0.0f64;
    std::thread::scope(|scope| {
        if args.watch {
            let (server, done) = (&server, &done);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(400));
                    let Ok(scrape) =
                        server.submit(Request::Metrics(MetricsFormat::Prometheus)).wait()
                    else {
                        return;
                    };
                    let Some(text) = scrape.answer.metrics() else { return };
                    println!(
                        "# watch: epoch {:?}, {} refreshes ({} full), {} retained epochs, \
                         {} pinned readers",
                        scrape.epoch.epoch(),
                        scrape.health.refreshes,
                        scrape.health.fallback_refreshes,
                        scrape.health.retained_epochs,
                        scrape.health.pinned_readers,
                    );
                    // Counter and gauge lines only; the full histogram series
                    // go to --dump-metrics.
                    for line in text.lines() {
                        if !line.starts_with('#') && !line.contains("_bucket{") {
                            println!("# watch: {line}");
                        }
                    }
                }
            });
        }
        for reader in 0..args.readers {
            let (server, done, agree, requests) = (&server, &done, &agree, &requests);
            let (plans, ids, adhoc) = (&plans, &ids, &adhoc);
            scope.spawn(move || {
                let modes = [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate];
                let mut round = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let index = (reader + round) % plans.len();
                    let mode = modes[round % modes.len()];
                    let maintained = server.submit(Request::Registered(ids[index])).wait().unwrap();
                    let expected = execute(&plans[index], maintained.epoch.relations(), &options);
                    if maintained.answer.rows().unwrap() != &expected.table {
                        agree.store(false, Ordering::Relaxed);
                    }
                    // Ad-hoc: the CLI queries when given, else the registered
                    // plans re-executed from scratch on the snapshot.
                    let plan = if adhoc.is_empty() {
                        Arc::clone(&plans[index])
                    } else {
                        Arc::clone(&adhoc[round % adhoc.len()].1)
                    };
                    let response = server
                        .submit(Request::Compiled { plan: Arc::clone(&plan), mode })
                        .wait()
                        .unwrap();
                    let ok = match mode {
                        AnswerMode::Materialized | AnswerMode::Enumerate => {
                            let expected = execute(&plan, response.epoch.relations(), &options);
                            response.answer.rows().unwrap() == &expected.table
                        }
                        AnswerMode::Compact => {
                            let expected = execute_answers(
                                &plan,
                                response.epoch.relations(),
                                &options.with_mode(mode),
                            )
                            .into_compact()
                            .expect("compact answers");
                            response.answer.compact().unwrap() == &expected
                        }
                    };
                    if !ok {
                        agree.store(false, Ordering::Relaxed);
                    }
                    requests.fetch_add(2, Ordering::Relaxed);
                    round += 1;
                    if finished {
                        break;
                    }
                }
            });
        }
        let midpoint = batches.len() / 2;
        for (index, batch) in batches.iter().enumerate() {
            let ingest_start = Instant::now();
            graph.ingest(batch).expect("streamed batches are valid against their prefix");
            writer_seconds += ingest_start.elapsed().as_secs_f64();
            if index == midpoint {
                // Scrape through the server while readers are mid-flight: the
                // exposition must already cover every subsystem's families.
                let scrape = server
                    .submit(Request::Metrics(MetricsFormat::Prometheus))
                    .wait()
                    .expect("in-flight metrics request");
                let covered = scrape.answer.metrics().is_some_and(families_covered);
                inflight_scrape_ok.store(covered, Ordering::Relaxed);
            }
        }
        done.store(true, Ordering::Release);
    });
    let serve_seconds = start.elapsed().as_secs_f64();
    let stats = graph.stats();
    let final_scrape = server
        .submit(Request::Metrics(MetricsFormat::Prometheus))
        .wait()
        .expect("final metrics request");
    let health = final_scrape.health;
    let metrics_text = final_scrape.answer.metrics().expect("metrics answer").to_string();
    drop(final_scrape);
    server.shutdown();

    let total_requests = requests.load(Ordering::Relaxed);
    println!(
        "# served {} requests in {:.3}s ({:.0} q/s) while ingesting {}/{} batches \
         ({:.3}s writer time, {:.0} mutations/s)",
        total_requests,
        serve_seconds,
        total_requests as f64 / serve_seconds.max(f64::EPSILON),
        graph.batches_applied(),
        batches.len(),
        writer_seconds,
        mutations as f64 / writer_seconds.max(f64::EPSILON),
    );
    println!(
        "# epochs: {} published, {} retired, {} retained, {} pinned readers",
        stats.published, stats.retired, stats.retained, stats.pinned_readers
    );
    println!(
        "# health: {} refreshes ({} full fallbacks), {} retained epochs, {} pinned readers",
        health.refreshes, health.fallback_refreshes, health.retained_epochs, health.pinned_readers
    );
    println!(
        "# metrics: in-flight scrape covered all families: {}",
        inflight_scrape_ok.load(Ordering::Relaxed)
    );
    for (index, (name, _)) in registered.iter().enumerate() {
        println!("# {name}: {} maintained rows", graph.pin().table(ids[index]).unwrap().len());
    }
    if let Some(path) = &args.dump_metrics {
        if let Err(error) = std::fs::write(path, &metrics_text) {
            eprintln!("tpath-serve: cannot write {path:?}: {error}");
            return ExitCode::FAILURE;
        }
        println!("# metrics: final scrape written to {path}");
    }

    if !agree.load(Ordering::Relaxed) {
        eprintln!("tpath-serve: FAILED — a snapshot read diverged from its epoch-pinned execute");
        return ExitCode::FAILURE;
    }
    if graph.batches_applied() != batches.len() {
        eprintln!("tpath-serve: FAILED — the writer was starved");
        return ExitCode::FAILURE;
    }
    if !inflight_scrape_ok.load(Ordering::Relaxed) {
        eprintln!("tpath-serve: FAILED — the in-flight metrics scrape missed a family");
        return ExitCode::FAILURE;
    }
    if !families_covered(&metrics_text) {
        eprintln!("tpath-serve: FAILED — the final metrics scrape missed a family");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// True if a Prometheus scrape exposes all four subsystem metric families.
fn families_covered(text: &str) -> bool {
    ["tpath_engine_", "tpath_live_", "tpath_epoch_", "tpath_serve_"]
        .iter()
        .all(|prefix| text.contains(prefix))
}
