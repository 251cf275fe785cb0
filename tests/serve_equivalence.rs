//! Serving-path equivalence: every snapshot read served by the MVCC layer —
//! maintained tables of registered queries and ad-hoc executions in all three
//! answer modes, including reads submitted concurrently through the worker
//! pool while the writer ingests — equals a from-scratch `execute` on the
//! graph materialised at the pinned epoch.
//!
//! The suite covers the paper's Q1–Q12 plus the REACH structural closure and
//! the RECUR time-aware closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use engine::plan::PlanSet;
use engine::{compile, execute, execute_answers, AnswerMode, ExecutionOptions, GraphRelations};
use live::serve::{Request, ServeGraph, Server};
use tgraph::{Batch, Interval, Itpg};
use trpq::queries::QueryId;
use workload::{stream_contact_batches, ContactTracingConfig};

const REACH: &str = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON live";
const RECUR: &str = "MATCH (x:Person {risk = 'high'})\
                     -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON live";

/// Q1–Q12 plus the two closure queries, with display names.
fn suite() -> Vec<(String, PlanSet)> {
    let mut out: Vec<(String, PlanSet)> = QueryId::ALL
        .into_iter()
        .map(|id| (id.name().to_string(), engine::queries::plan_for(id)))
        .collect();
    for (name, text) in [("REACH", REACH), ("RECUR", RECUR)] {
        let clause = trpq::parser::parse_match(text).expect("closure queries parse");
        out.push((name.to_string(), compile(&clause).expect("closure queries compile")));
    }
    out
}

fn workload_batches() -> Vec<Batch> {
    let config = ContactTracingConfig::with_persons(28)
        .with_seed(11)
        .with_time_points(10)
        .with_positivity_rate(0.25);
    stream_contact_batches(&config)
}

/// Sequential half: pin every epoch of the stream, and require that reading
/// each pinned snapshot — the maintained table of every registered query and
/// a direct execution over the pinned relations — equals a from-scratch
/// `execute` on a bulk rebuild of the graph at that epoch.
#[test]
fn pinned_snapshot_reads_equal_from_scratch_execution() {
    let batches = workload_batches();
    let suite = suite();
    let options = ExecutionOptions::default();
    let graph = ServeGraph::with_options(Itpg::empty(Interval::of(0, 1)), options);
    let ids: Vec<_> = suite.iter().map(|(_, plan)| graph.register(plan.clone())).collect();

    // Stream the workload, keeping one pin and one reference graph per epoch.
    let mut reference = Itpg::empty(Interval::of(0, 1));
    let mut checkpoints = Vec::new();
    for batch in &batches {
        graph.ingest(batch).unwrap();
        reference.apply_batch(batch).unwrap();
        checkpoints.push((graph.pin(), reference.clone()));
    }

    for (pin, reference) in &checkpoints {
        let scratch = GraphRelations::from_itpg(reference);
        for (index, (name, plan)) in suite.iter().enumerate() {
            let expected = execute(plan, &scratch, &options);
            let direct = execute(plan, pin.relations(), &options);
            assert_eq!(
                direct.table,
                expected.table,
                "{name} at epoch {:?}: snapshot execution diverged",
                pin.epoch()
            );
            assert_eq!(
                pin.table(ids[index]).unwrap().as_ref(),
                &expected.table,
                "{name} at epoch {:?}: maintained table diverged",
                pin.epoch()
            );
        }
    }
}

/// Concurrent half: worker threads serve registered reads and ad-hoc queries
/// in every answer mode while the writer streams batches.  Each response is
/// verified against a from-scratch execution on the graph materialised at the
/// response's *own* pinned epoch.
#[test]
fn concurrent_serving_agrees_with_the_pinned_epoch() {
    let batches = workload_batches();
    let suite = suite();
    let options = ExecutionOptions::default();

    // From-scratch reference relations per epoch, computed up front.
    let mut reference = Itpg::empty(Interval::of(0, 1));
    let mut scratch_at: BTreeMap<Option<u64>, GraphRelations> = BTreeMap::new();
    scratch_at.insert(None, GraphRelations::from_itpg(&reference));
    for batch in &batches {
        reference.apply_batch(batch).unwrap();
        scratch_at.insert(Some(batch.epoch), GraphRelations::from_itpg(&reference));
    }

    let graph = Arc::new(ServeGraph::with_options(Itpg::empty(Interval::of(0, 1)), options));
    let ids: Vec<_> = suite.iter().map(|(_, plan)| graph.register(plan.clone())).collect();
    let plans: Vec<Arc<PlanSet>> = suite.iter().map(|(_, plan)| Arc::new(plan.clone())).collect();
    let server = Server::start(Arc::clone(&graph), 4);

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..3usize {
            let server = &server;
            let done = &done;
            let scratch_at = &scratch_at;
            let suite = &suite;
            let ids = &ids;
            let plans = &plans;
            scope.spawn(move || {
                let modes = [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate];
                let mut round = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let index = (reader + round) % suite.len();
                    let mode = modes[round % modes.len()];
                    let (name, _) = &suite[index];

                    // A registered read and an ad-hoc execution, both
                    // verified against the epoch each response pinned.
                    let maintained = server.submit(Request::Registered(ids[index])).wait().unwrap();
                    let scratch = &scratch_at[&maintained.epoch.epoch()];
                    let expected = execute(&plans[index], scratch, &options);
                    assert_eq!(
                        maintained.answer.rows().unwrap(),
                        &expected.table,
                        "{name}: maintained read diverged at epoch {:?}",
                        maintained.epoch.epoch()
                    );

                    let adhoc = server
                        .submit(Request::Compiled { plan: Arc::clone(&plans[index]), mode })
                        .wait()
                        .unwrap();
                    let scratch = &scratch_at[&adhoc.epoch.epoch()];
                    let served_options = options.with_mode(mode);
                    match mode {
                        AnswerMode::Materialized | AnswerMode::Enumerate => {
                            let expected = execute(&plans[index], scratch, &options);
                            assert_eq!(
                                adhoc.answer.rows().unwrap(),
                                &expected.table,
                                "{name} ({mode:?}) diverged at epoch {:?}",
                                adhoc.epoch.epoch()
                            );
                        }
                        AnswerMode::Compact => {
                            let expected = execute_answers(&plans[index], scratch, &served_options)
                                .into_compact()
                                .expect("compact answers");
                            assert_eq!(
                                adhoc.answer.compact().unwrap(),
                                &expected,
                                "{name} (compact) diverged at epoch {:?}",
                                adhoc.epoch.epoch()
                            );
                        }
                    }
                    round += 1;
                    if finished {
                        break;
                    }
                }
            });
        }
        for batch in &batches {
            graph.ingest(batch).unwrap();
        }
        done.store(true, Ordering::Release);
    });

    // The writer was never starved by the readers: every batch landed and
    // the final epoch is the stream's last.
    assert_eq!(graph.batches_applied(), batches.len());
    assert_eq!(graph.pin().epoch(), Some(batches.last().unwrap().epoch));
    assert_eq!(graph.stats().pinned_readers, 0, "every response released its pin");
    server.shutdown();
}
