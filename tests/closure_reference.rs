//! Property tests pinning the engine's structural Kleene-closure operator
//! (`MicroOp::Closure`) against the reference evaluators: on random small ITPGs and
//! random star / bounded-repetition contact-chain queries, the engine's binding
//! table — expanded to `(x, t) → (y, t)` pairs — must equal the relation computed by
//! the polynomial-time TPG evaluator on the expanded graph, and membership must agree
//! with `trpq::eval::eval_contains_itpg` (the ground-truth dispatcher over the
//! interval representation).
//!
//! The generated graphs are referentially consistent (an edge exists only while both
//! endpoints exist), as produced by every loader in this repository; on such graphs
//! the engine's row-based navigation — which implicitly requires traversed objects to
//! exist — coincides with the formal axis semantics for the label-tested bodies the
//! surface language produces.

use std::collections::BTreeSet;

use proptest::prelude::*;

use engine::{ExecutionOptions, GraphRelations, TimeRef};
use tgraph::{Interval, IntervalSet, Itpg, ItpgBuilder, TemporalObject, Time};
use trpq::eval::quad_table::Quad;
use trpq::eval::{eval_contains_itpg, tpg::eval_path};
use trpq::parser::parse_match;
use trpq::rewrite::rewrite_match;

const MAX_TIME: Time = 5;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=3u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

/// A compact description of a random contact graph: person nodes with existence
/// intervals and `meets` / `visits` edges clamped to their endpoints' joint lifetime.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<Vec<Interval>>,
    edges: Vec<(usize, usize, Interval, bool)>,
}

fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    let nodes = prop::collection::vec(prop::collection::vec(interval_strategy(), 1..3), 2..5);
    let edges =
        prop::collection::vec((0..4usize, 0..4usize, interval_strategy(), any::<bool>()), 0..6);
    (nodes, edges).prop_map(|(nodes, edges)| GraphSpec { nodes, edges })
}

fn build_graph(spec: &GraphSpec) -> Itpg {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let mut node_ids = Vec::new();
    for (i, intervals) in spec.nodes.iter().enumerate() {
        let id = b.add_node(&format!("n{i}"), "Person").unwrap();
        let mut existence = IntervalSet::empty();
        for iv in intervals {
            b.add_existence(id, *iv).unwrap();
            existence.insert(*iv);
        }
        node_ids.push((id, existence));
    }
    let mut edge_count = 0usize;
    for (src, tgt, desired, meets) in &spec.edges {
        let (src_id, src_exist) = &node_ids[src % node_ids.len()];
        let (tgt_id, tgt_exist) = &node_ids[tgt % node_ids.len()];
        let joint = src_exist.intersection(tgt_exist);
        let clamped = joint.clamp(desired);
        if clamped.is_empty() {
            continue;
        }
        let label = if *meets { "meets" } else { "visits" };
        let id = b.add_edge(&format!("e{edge_count}"), label, *src_id, *tgt_id).unwrap();
        edge_count += 1;
        for iv in clamped.intervals() {
            b.add_existence(id, *iv).unwrap();
        }
    }
    b.build().expect("generated graphs are well formed by construction")
}

/// Random star / bounded-repetition queries over structural contact-chain bodies,
/// including degenerate ([1,1], [0,0]) and unsatisfiable ([2,1]) indicators.
fn closure_query_strategy() -> impl Strategy<Value = String> {
    let body = prop_oneof![
        Just("FWD/:meets/FWD"),
        Just("BWD/:meets/BWD"),
        Just("FWD/:meets/FWD + BWD/:meets/BWD"),
        Just("FWD/:meets/FWD/FWD/:meets/FWD"),
        Just("FWD/:meets/FWD + FWD/:visits/FWD"),
    ];
    let repetition = prop_oneof![
        Just("*".to_owned()),
        Just("[1,_]".to_owned()),
        Just("[1,1]".to_owned()),
        Just("[0,0]".to_owned()),
        Just("[2,1]".to_owned()),
        (0..3u32, 0..3u32).prop_map(|(n, d)| format!("[{n},{}]", n + d)),
    ];
    (body, repetition)
        .prop_map(|(body, rep)| format!("MATCH (x:Person)-/({body}){rep}/-(y:Person) ON g"))
}

/// Random *mixed* structural/temporal repetition queries, `(FWD/NEXT)*`-style: each
/// body interleaves contact hops with temporal steps (possibly carrying their own
/// indicators, unions, or purely temporal alternatives), and the whole group is
/// repeated — the engine's time-aware closure.
fn mixed_query_strategy() -> impl Strategy<Value = String> {
    let body = prop_oneof![
        Just("FWD/:meets/FWD/NEXT"),
        Just("FWD/:meets/FWD/PREV"),
        Just("BWD/:meets/BWD/PREV"),
        Just("NEXT/FWD/:meets/FWD"),
        Just("FWD/:meets/FWD/NEXT[0,2]"),
        Just("FWD/:meets/FWD/NEXT*"),
        Just("FWD/:meets/FWD/NEXT + BWD/:meets/BWD/PREV"),
        Just("FWD/:meets/FWD/NEXT + PREV"),
    ];
    let repetition = prop_oneof![
        Just("*".to_owned()),
        Just("[1,_]".to_owned()),
        Just("[1,1]".to_owned()),
        Just("[0,0]".to_owned()),
        Just("[2,1]".to_owned()),
        (0..3u32, 0..3u32).prop_map(|(n, d)| format!("[{n},{}]", n + d)),
    ];
    (body, repetition)
        .prop_map(|(body, rep)| format!("MATCH (x:Person)-/({body}){rep}/-(y:Person) ON g"))
}

/// The engine's binding table expanded to `(x, t) → (y, t′)` temporal-object pairs.
/// Purely structural results bind snapshot intervals (`t = t′`); time-crossing
/// results (mixed repetition) bind points on both sides.
fn engine_pairs(graph: &GraphRelations, query: &str) -> BTreeSet<(TemporalObject, TemporalObject)> {
    let out = engine::Query::parse(query)
        .expect("closure queries compile onto the engine")
        .with_options(ExecutionOptions::default())
        .run(graph)
        .into_output()
        .expect("the default mode materialises");
    let mut pairs = BTreeSet::new();
    for row in out.table.rows() {
        let (x, y) = (&row[0], &row[1]);
        match (x.time, y.time) {
            (TimeRef::Interval(ix), TimeRef::Interval(iy)) => {
                assert_eq!(ix, iy, "structural bindings share the snapshot interval");
                for t in ix.points() {
                    pairs.insert((
                        TemporalObject::new(x.object, t),
                        TemporalObject::new(y.object, t),
                    ));
                }
            }
            (TimeRef::Point(tx), TimeRef::Point(ty)) => {
                pairs
                    .insert((TemporalObject::new(x.object, tx), TemporalObject::new(y.object, ty)));
            }
            other => panic!("unexpected mixed binding kinds {other:?}"),
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closure_engine_agrees_with_the_reference_evaluators(
        spec in graph_spec_strategy(),
        query in closure_query_strategy(),
    ) {
        let itpg = build_graph(&spec);
        let relations = GraphRelations::from_itpg(&itpg);

        // Reference: the full relation over the expanded point-based graph.
        let clause = parse_match(&query).unwrap();
        let rewritten = rewrite_match(&clause).unwrap();
        let reference: BTreeSet<(TemporalObject, TemporalObject)> =
            eval_path(&rewritten.path, &itpg)
                .iter()
                .map(|q| (q.src, q.dst))
                .collect();

        let engine = engine_pairs(&relations, &query);
        prop_assert_eq!(&engine, &reference, "engine vs TPG reference on {}", query);

        // Membership spot-checks against the ITPG ground-truth dispatcher: a few
        // pairs in the relation and a few outside it.
        let tpg_table = eval_path(&rewritten.path, &itpg);
        let mut checked = 0usize;
        for &(src, dst) in reference.iter().take(3) {
            prop_assert!(
                eval_contains_itpg(&rewritten.path, &itpg, src, dst).unwrap(),
                "eval_contains_itpg misses ({:?}, {:?}) for {}", src, dst, query
            );
            checked += 1;
        }
        'outer: for o1 in itpg.objects() {
            for t in [0u64, 2, MAX_TIME] {
                let src = TemporalObject::new(o1, t);
                let dst = TemporalObject::new(o1, t);
                if !tpg_table.contains(&Quad::new(src, dst)) {
                    prop_assert!(
                        !eval_contains_itpg(&rewritten.path, &itpg, src, dst).unwrap(),
                        "eval_contains_itpg spuriously accepts ({:?}, {:?}) for {}", src, dst, query
                    );
                    checked += 1;
                    if checked >= 6 {
                        break 'outer;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mixed_closure_engine_agrees_with_the_reference_evaluators(
        spec in graph_spec_strategy(),
        query in mixed_query_strategy(),
    ) {
        let itpg = build_graph(&spec);
        let relations = GraphRelations::from_itpg(&itpg);

        // Reference: the full relation over the expanded point-based graph, under
        // the practical-language convention that repetition (including everything
        // inside a repeated group) walks only through existing temporal objects.
        let clause = parse_match(&query).unwrap();
        let rewritten = rewrite_match(&clause).unwrap();
        let reference: BTreeSet<(TemporalObject, TemporalObject)> =
            eval_path(&rewritten.path, &itpg)
                .iter()
                .map(|q| (q.src, q.dst))
                .collect();

        let engine = engine_pairs(&relations, &query);
        prop_assert_eq!(&engine, &reference, "engine vs TPG reference on {}", query);

        // Membership spot-checks against the ITPG ground-truth dispatcher.
        for &(src, dst) in reference.iter().take(2) {
            prop_assert!(
                eval_contains_itpg(&rewritten.path, &itpg, src, dst).unwrap(),
                "eval_contains_itpg misses ({:?}, {:?}) for {}", src, dst, query
            );
        }
    }
}

/// A deterministic end-to-end case: the iconic multi-hop contact chain
/// `(FWD/:meets/FWD)*` on a 4-person chain with staggered meeting windows.
#[test]
fn contact_chain_example_matches_reference() {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, 9));
    let ids: Vec<_> = (0..4).map(|i| b.add_node(&format!("p{i}"), "Person").unwrap()).collect();
    for &id in &ids {
        b.add_existence(id, Interval::of(0, 9)).unwrap();
    }
    for (i, window) in
        [(0usize, Interval::of(1, 6)), (1, Interval::of(4, 8)), (2, Interval::of(5, 5))]
    {
        let e = b.add_edge(&format!("m{i}"), "meets", ids[i], ids[i + 1]).unwrap();
        b.add_existence(e, window).unwrap();
    }
    let itpg = b.build().unwrap();
    let relations = GraphRelations::from_itpg(&itpg);
    let query = "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g";

    let clause = parse_match(query).unwrap();
    let rewritten = rewrite_match(&clause).unwrap();
    let reference: BTreeSet<(TemporalObject, TemporalObject)> =
        eval_path(&rewritten.path, &itpg).iter().map(|q| (q.src, q.dst)).collect();
    assert_eq!(engine_pairs(&relations, query), reference);
    // The three-hop chain p0 → p3 is only live at the single instant where all
    // meeting windows intersect.
    let p0 = TemporalObject::new(tgraph::Object::Node(ids[0]), 5);
    let p3 = TemporalObject::new(tgraph::Object::Node(ids[3]), 5);
    assert!(reference.contains(&(p0, p3)));
    assert!(eval_contains_itpg(&rewritten.path, &itpg, p0, p3).unwrap());
}

/// A deterministic time-crossing case: the recurring-contact chain
/// `(FWD/:meets/FWD/NEXT)*` — each meeting is followed by exactly one step forward in
/// time — on the same 4-person graph.
#[test]
fn recurring_contact_chain_matches_reference() {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, 9));
    let ids: Vec<_> = (0..4).map(|i| b.add_node(&format!("p{i}"), "Person").unwrap()).collect();
    for &id in &ids {
        b.add_existence(id, Interval::of(0, 9)).unwrap();
    }
    for (i, window) in
        [(0usize, Interval::of(1, 6)), (1, Interval::of(4, 8)), (2, Interval::of(5, 5))]
    {
        let e = b.add_edge(&format!("m{i}"), "meets", ids[i], ids[i + 1]).unwrap();
        b.add_existence(e, window).unwrap();
    }
    let itpg = b.build().unwrap();
    let relations = GraphRelations::from_itpg(&itpg);
    let query = "MATCH (x)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g";

    let clause = parse_match(query).unwrap();
    let rewritten = rewrite_match(&clause).unwrap();
    let reference: BTreeSet<(TemporalObject, TemporalObject)> =
        eval_path(&rewritten.path, &itpg).iter().map(|q| (q.src, q.dst)).collect();
    assert_eq!(engine_pairs(&relations, query), reference);
    // The full three-meeting recurrence threads p0@3 → p1@4 → p2@5 → p3@6: the last
    // meeting only happens at 5, forcing the whole schedule.
    let p0 = TemporalObject::new(tgraph::Object::Node(ids[0]), 3);
    let p3 = TemporalObject::new(tgraph::Object::Node(ids[3]), 6);
    assert!(reference.contains(&(p0, p3)));
    // One step later at the start and the schedule no longer fits.
    let late = TemporalObject::new(tgraph::Object::Node(ids[0]), 4);
    assert!(!reference.contains(&(late, p3)));
    assert!(eval_contains_itpg(&rewritten.path, &itpg, p0, p3).unwrap());
}
