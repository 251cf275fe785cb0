//! Cross-validation of the interval-based engine against the reference evaluators of
//! the `trpq` crate: the engine's binding tables, projected onto the first and last
//! bound variables, must agree with the relation `⟦path⟧_G` computed by the
//! polynomial-time evaluator of Theorem C.1 over the expanded point-based graph.

use std::collections::BTreeSet;

use engine::{ExecutionOptions, GraphRelations, TimeRef};
use tgraph::{Itpg, TemporalObject};
use trpq::eval::tpg::eval_path;
use trpq::queries::QueryId;
use trpq::rewrite::rewrite_match;
use workload::{figure1, ContactTracingConfig};

/// Runs a benchmark query through the `Query` builder, materialised.
fn run_query(
    id: QueryId,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> engine::QueryOutput {
    let answers = engine::Query::benchmark(id).with_options(*options).run(graph);
    answers.into_output().expect("the default mode materialises")
}

/// The engine's first-variable bindings, expanded to `(object, time)` points.
fn engine_sources(graph: &GraphRelations, id: QueryId) -> BTreeSet<TemporalObject> {
    let out = run_query(id, graph, &ExecutionOptions::default());
    let mut set = BTreeSet::new();
    for row in out.table.rows() {
        let first = &row[0];
        match first.time {
            TimeRef::Point(t) => {
                set.insert(TemporalObject::new(first.object, t));
            }
            TimeRef::Interval(iv) => {
                for t in iv.points() {
                    set.insert(TemporalObject::new(first.object, t));
                }
            }
        }
    }
    set
}

/// The reference evaluator's sources for the same query: the distinct `(o, t)` that
/// start a path satisfying the rewritten `NavL` expression.
fn reference_sources(itpg: &Itpg, id: QueryId) -> BTreeSet<TemporalObject> {
    let rewritten = rewrite_match(&id.clause()).expect("benchmark queries rewrite");
    eval_path(&rewritten.path, itpg).sources().into_iter().collect()
}

fn compare_all_queries(itpg: &Itpg, label: &str) {
    let relations = GraphRelations::from_itpg(itpg);
    for id in QueryId::ALL {
        let engine_side = engine_sources(&relations, id);
        let reference_side = reference_sources(itpg, id);
        assert_eq!(
            engine_side,
            reference_side,
            "{label}: engine and reference evaluator disagree on {}",
            id.name()
        );
    }
}

#[test]
fn figure1_agrees_with_the_reference_evaluator() {
    compare_all_queries(&figure1(), "figure 1");
}

#[test]
fn small_synthetic_graphs_agree_with_the_reference_evaluator() {
    for seed in [1u64, 2, 3] {
        let mut config = ContactTracingConfig::with_persons(14).with_seed(seed);
        config.positivity_rate = 0.3;
        config.trajectories.num_rooms = 4;
        config.trajectories.num_meeting_locations = 5;
        config.trajectories.num_time_points = 16;
        let graph = workload::generate(&config);
        compare_all_queries(&graph, &format!("synthetic seed {seed}"));
    }
}

#[test]
fn engine_pairs_match_reference_pairs_for_two_variable_queries() {
    // For queries whose last pattern binds a variable, the full (source, destination)
    // relation must match, not just the sources.
    let itpg = figure1();
    let relations = GraphRelations::from_itpg(&itpg);
    for id in [QueryId::Q5, QueryId::Q6, QueryId::Q7, QueryId::Q8] {
        let rewritten = rewrite_match(&id.clause()).unwrap();
        let reference: BTreeSet<(TemporalObject, TemporalObject)> =
            eval_path(&rewritten.path, &itpg).iter().map(|q| (q.src, q.dst)).collect();

        let out = run_query(id, &relations, &ExecutionOptions::default());
        let mut engine_pairs = BTreeSet::new();
        for row in out.table.rows() {
            let first = &row[0];
            let last = &row[row.len() - 1];
            match (first.time, last.time) {
                (TimeRef::Point(a), TimeRef::Point(b)) => {
                    engine_pairs.insert((
                        TemporalObject::new(first.object, a),
                        TemporalObject::new(last.object, b),
                    ));
                }
                (TimeRef::Interval(iv), TimeRef::Interval(_)) => {
                    // Structural queries: the whole row shares each snapshot time.
                    for t in iv.points() {
                        engine_pairs.insert((
                            TemporalObject::new(first.object, t),
                            TemporalObject::new(last.object, t),
                        ));
                    }
                }
                other => panic!("unexpected mixed binding {other:?}"),
            }
        }
        assert_eq!(engine_pairs, reference, "pair mismatch for {}", id.name());
    }
}

#[test]
fn itpg_membership_checks_agree_with_the_tpg_relation() {
    // Spot-check the fragment-specific ITPG evaluators against the TPG evaluator on
    // the rewritten benchmark queries (membership of a sample of tuples).
    let itpg = figure1();
    for id in [QueryId::Q1, QueryId::Q2, QueryId::Q6, QueryId::Q7, QueryId::Q9, QueryId::Q12] {
        let rewritten = rewrite_match(&id.clause()).unwrap();
        let reference = eval_path(&rewritten.path, &itpg);
        // Every tuple of the reference relation must be accepted by the ITPG evaluator…
        for quad in reference.iter().take(50) {
            assert!(
                trpq::eval::eval_contains_itpg(&rewritten.path, &itpg, quad.src, quad.dst).unwrap(),
                "{}: reference tuple rejected over the ITPG",
                id.name()
            );
        }
        // …and a few non-tuples must be rejected.
        let objects: Vec<_> = itpg.objects().collect();
        let mut rejected = 0;
        'outer: for &o1 in objects.iter().take(6) {
            for &o2 in objects.iter().take(6) {
                for t in [1u64, 5, 9] {
                    let src = TemporalObject::new(o1, t);
                    let dst = TemporalObject::new(o2, t);
                    if !reference.contains(&trpq::eval::quad_table::Quad::new(src, dst)) {
                        assert!(
                            !trpq::eval::eval_contains_itpg(&rewritten.path, &itpg, src, dst)
                                .unwrap(),
                            "{}: non-tuple accepted over the ITPG",
                            id.name()
                        );
                        rejected += 1;
                        if rejected > 20 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(rejected > 0);
    }
}
