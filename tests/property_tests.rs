//! Property-based tests of the core invariants:
//!
//! * interval sets behave like sets of time points and stay coalesced;
//! * the fragment-specific ITPG evaluators agree with the polynomial-time
//!   evaluator of Theorem C.1, run over the same graph read point by point, on
//!   randomly generated graphs and expressions;
//! * a relation delta leaves the relations a bulk build would produce, keeps
//!   every row whose state it does not change and retracts only the rows whose
//!   state it does.

use std::fmt::Debug;

use proptest::prelude::*;

use engine::GraphRelations;
use tgraph::{
    Batch, Interval, IntervalSet, Itpg, ItpgBuilder, Mutation, Object, TemporalObject, Time,
};
use trpq::ast::{Axis, Path, TestExpr};
use trpq::eval::itpg_anoi::eval_contains_anoi;
use trpq::eval::itpg_full::eval_contains_full;
use trpq::eval::itpg_pc::eval_contains_pc;
use trpq::eval::quad_table::Quad;
use trpq::eval::tpg::eval_path;

const MAX_TIME: Time = 7;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=3u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

prop_compose! {
    fn intervals_strategy()(intervals in prop::collection::vec(interval_strategy(), 0..6)) -> Vec<Interval> {
        intervals
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interval_sets_behave_like_point_sets(a in intervals_strategy(), b in intervals_strategy()) {
        let set_a = IntervalSet::from_intervals(a.clone());
        let set_b = IntervalSet::from_intervals(b.clone());
        prop_assert!(set_a.is_coalesced());
        prop_assert!(set_b.is_coalesced());
        let union = set_a.union(&set_b);
        let intersection = set_a.intersection(&set_b);
        prop_assert!(union.is_coalesced());
        prop_assert!(intersection.is_coalesced());
        for t in 0..=MAX_TIME {
            let in_a = a.iter().any(|iv| iv.contains(t));
            let in_b = b.iter().any(|iv| iv.contains(t));
            prop_assert_eq!(set_a.contains(t), in_a);
            prop_assert_eq!(union.contains(t), in_a || in_b);
            prop_assert_eq!(intersection.contains(t), in_a && in_b);
        }
        // Point counts agree with the point-set view.
        let count = (0..=MAX_TIME).filter(|&t| a.iter().any(|iv| iv.contains(t))).count() as u128;
        prop_assert_eq!(set_a.num_points(), count);
        // Containment relation is consistent with point membership.
        if set_a.contained_in(&set_b) {
            for t in 0..=MAX_TIME {
                if set_a.contains(t) {
                    prop_assert!(set_b.contains(t));
                }
            }
        }
    }

    #[test]
    fn insertion_order_does_not_matter(mut intervals in intervals_strategy()) {
        let bulk = IntervalSet::from_intervals(intervals.clone());
        let mut incremental = IntervalSet::empty();
        intervals.reverse();
        for iv in intervals {
            incremental.insert(iv);
        }
        prop_assert_eq!(bulk, incremental);
    }
}

/// A compact description of a random temporal graph, turned into an [`Itpg`] by
/// [`build_graph`].
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<(Vec<Interval>, bool)>, // existence intervals, high-risk flag
    edges: Vec<(usize, usize, Interval, u8)>, // src, tgt, desired interval, label choice
}

fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    let nodes = prop::collection::vec(
        (prop::collection::vec(interval_strategy(), 1..3), any::<bool>()),
        2..5,
    );
    let edges = prop::collection::vec((0..4usize, 0..4usize, interval_strategy(), 0..2u8), 0..5);
    (nodes, edges).prop_map(|(nodes, edges)| GraphSpec { nodes, edges })
}

fn build_graph(spec: &GraphSpec) -> Itpg {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let mut node_ids = Vec::new();
    for (i, (intervals, high)) in spec.nodes.iter().enumerate() {
        let label = if i % 2 == 0 { "Person" } else { "Room" };
        let id = b.add_node(&format!("n{i}"), label).unwrap();
        let mut existence = IntervalSet::empty();
        for iv in intervals {
            b.add_existence(id, *iv).unwrap();
            existence.insert(*iv);
        }
        let risk = if *high { "high" } else { "low" };
        for iv in existence.intervals() {
            b.set_property(id, "risk", risk, *iv).unwrap();
        }
        node_ids.push((id, existence));
    }
    let mut edge_count = 0usize;
    for (src, tgt, desired, label_choice) in &spec.edges {
        let (src_id, src_exist) = &node_ids[src % node_ids.len()];
        let (tgt_id, tgt_exist) = &node_ids[tgt % node_ids.len()];
        let joint = src_exist.intersection(tgt_exist);
        let clamped = joint.clamp(desired);
        if clamped.is_empty() {
            continue;
        }
        let label = if *label_choice == 0 { "meets" } else { "visits" };
        let id = b.add_edge(&format!("e{edge_count}"), label, *src_id, *tgt_id).unwrap();
        edge_count += 1;
        for iv in clamped.intervals() {
            b.add_existence(id, *iv).unwrap();
        }
    }
    b.build().expect("generated graphs are well formed by construction")
}

/// Random expressions of `NavL[PC]` (no occurrence indicators).
fn pc_path_strategy() -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        Just(Path::axis(Axis::Fwd)),
        Just(Path::axis(Axis::Bwd)),
        Just(Path::axis(Axis::Next)),
        Just(Path::axis(Axis::Prev)),
        Just(Path::test(TestExpr::Node)),
        Just(Path::test(TestExpr::Edge)),
        Just(Path::test(TestExpr::Exists)),
        Just(Path::test(TestExpr::label("Person"))),
        Just(Path::test(TestExpr::label("meets"))),
        Just(Path::test(TestExpr::prop("risk", "high"))),
        (0..=MAX_TIME).prop_map(|k| Path::test(TestExpr::TimeLt(k))),
        Just(Path::test(TestExpr::Exists.not())),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.then(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|p| Path::test(TestExpr::path_test(p))),
        ]
    })
}

/// Random expressions of `NavL[ANOI]` (indicators only on axes, no path conditions).
fn anoi_path_strategy() -> impl Strategy<Value = Path> {
    let axis = prop_oneof![Just(Axis::Fwd), Just(Axis::Bwd), Just(Axis::Next), Just(Axis::Prev)];
    let leaf = prop_oneof![
        (axis.clone(), 0..3u32, 0..3u32)
            .prop_map(|(a, n, extra)| Path::axis(a).repeat(n, n + extra)),
        axis.prop_map(Path::axis),
        Just(Path::test(TestExpr::Exists)),
        Just(Path::test(TestExpr::label("Person"))),
        Just(Path::test(TestExpr::prop("risk", "low"))),
        Just(Path::axis(Axis::Next).repeat_at_least(1)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.then(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

fn sample_temporal_objects(graph: &Itpg) -> Vec<TemporalObject> {
    let mut out = Vec::new();
    for o in graph.objects() {
        for t in [0u64, 2, 5, MAX_TIME] {
            out.push(TemporalObject::new(o, t));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pc_evaluators_agree_with_the_tpg_reference(
        spec in graph_spec_strategy(),
        path in pc_path_strategy(),
    ) {
        let itpg = build_graph(&spec);
        let reference = eval_path(&path, &itpg);
        let samples = sample_temporal_objects(&itpg);
        for (i, &src) in samples.iter().enumerate() {
            // Keep the quadratic sampling small.
            for &dst in samples.iter().skip(i % 3).step_by(3) {
                let expected = reference.contains(&Quad::new(src, dst));
                let via_pc = eval_contains_pc(&path, &itpg, src, dst).unwrap();
                prop_assert_eq!(via_pc, expected, "PC evaluator disagrees on {:?} -> {:?}", src, dst);
                let via_full = eval_contains_full(&path, &itpg, src, dst);
                prop_assert_eq!(via_full, expected, "full evaluator disagrees on {:?} -> {:?}", src, dst);
            }
        }
    }

    #[test]
    fn anoi_evaluator_agrees_with_the_tpg_reference(
        spec in graph_spec_strategy(),
        path in anoi_path_strategy(),
    ) {
        let itpg = build_graph(&spec);
        let reference = eval_path(&path, &itpg);
        let samples = sample_temporal_objects(&itpg);
        for (i, &src) in samples.iter().enumerate() {
            for &dst in samples.iter().skip(i % 4).step_by(4) {
                let expected = reference.contains(&Quad::new(src, dst));
                let via_anoi = eval_contains_anoi(&path, &itpg, src, dst).unwrap();
                prop_assert_eq!(via_anoi, expected, "ANOI evaluator disagrees on {:?} -> {:?}", src, dst);
            }
        }
    }
}

/// One random change to an existing object of a graph, made valid against the
/// graph by clamping its interval to where the object (or, for an edge's
/// existence, both endpoints) exists; see [`mutations`].
#[derive(Debug, Clone)]
struct ChangeSpec {
    object: usize,
    kind: u8,
    interval: Interval,
    high: bool,
}

fn change_spec_strategy() -> impl Strategy<Value = ChangeSpec> {
    (0..16usize, 0..4u8, interval_strategy(), any::<bool>())
        .prop_map(|(object, kind, interval, high)| ChangeSpec { object, kind, interval, high })
}

/// The mutations `spec` makes on `graph`.  A node grows its existence (kind 0),
/// grows it with a risk (kind 1), or has its risk (kind 2) or test (kind 3) set
/// where it exists.  An edge grows its existence where both endpoints exist
/// (kinds 0 and 1), or has its weight set where it exists (kinds 2 and 3).
/// Setting a value an object already holds is a touch that changes nothing.
fn mutations(graph: &Itpg, spec: &ChangeSpec) -> Vec<Mutation> {
    let objects: Vec<Object> = graph.objects().collect();
    let object = objects[spec.object % objects.len()];
    let name = graph.name(object).to_owned();
    let value = if spec.high { "high" } else { "low" };
    let set = |prop: &str, within: &IntervalSet| -> Vec<Mutation> {
        let pieces = within.clamp(&spec.interval);
        let set = |&interval| Mutation::SetProperty {
            object: name.clone(),
            prop: prop.into(),
            value: value.into(),
            interval,
        };
        pieces.intervals().iter().map(set).collect()
    };
    let grow = |within: &IntervalSet| -> Vec<Mutation> {
        let pieces = within.clamp(&spec.interval);
        let grow = |&interval| Mutation::AddExistence { object: name.clone(), interval };
        pieces.intervals().iter().map(grow).collect()
    };
    let whole = IntervalSet::from_interval(Interval::of(0, MAX_TIME));
    match (object, spec.kind) {
        (Object::Node(_), 0) => grow(&whole),
        (Object::Node(_), 1) => [grow(&whole), set("risk", &whole)].concat(),
        (Object::Node(_), kind) => {
            set(if kind == 2 { "risk" } else { "test" }, graph.existence(object))
        }
        (Object::Edge(e), 0 | 1) => {
            let ends = graph
                .existence(graph.src(e).into())
                .intersection(graph.existence(graph.tgt(e).into()));
            grow(&ends)
        }
        (Object::Edge(_), _) => set("weight", graph.existence(object)),
    }
}

/// Checks one relation of a delta against the relations before it: every row
/// live on both sides holds the same content, `retracted` counts exactly the
/// rows it killed, `added` the rows it appended, and no appended row repeats
/// a killed one — a state the delta did not change keeps its row.
fn check_rows<R: PartialEq + Debug>(
    (before, live_before): (&[R], impl Fn(u32) -> bool),
    (after, live_after): (&[R], impl Fn(u32) -> bool),
    (retracted, added): (usize, usize),
) -> Result<(), TestCaseError> {
    let mut killed = Vec::new();
    for row in (0..before.len() as u32).filter(|&row| live_before(row)) {
        if live_after(row) {
            prop_assert_eq!(&after[row as usize], &before[row as usize]);
        } else {
            killed.push(&before[row as usize]);
        }
    }
    prop_assert_eq!(retracted, killed.len());
    let appended = &after[before.len()..];
    prop_assert_eq!(added, appended.len());
    for row in appended {
        prop_assert!(!killed.contains(&row), "{:?} was retracted and appended again", row);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deltas_keep_the_rows_they_do_not_change(
        spec in graph_spec_strategy(),
        batches in prop::collection::vec(prop::collection::vec(change_spec_strategy(), 1..5), 1..4),
    ) {
        let mut itpg = build_graph(&spec);
        let mut rel = GraphRelations::from_itpg(&itpg);
        for (epoch, changes) in batches.iter().enumerate() {
            let mut batch = Batch::new(epoch as u64 + 1);
            batch.mutations = changes.iter().flat_map(|change| mutations(&itpg, change)).collect();
            let before = rel.snapshot();
            let applied = itpg.apply_batch(&batch).expect("clamped changes are valid");
            let stats = rel.apply_delta(&itpg, &applied.touched);
            prop_assert_eq!(
                rel.canonical_snapshot(),
                GraphRelations::from_itpg(&itpg).canonical_snapshot()
            );
            check_rows(
                (before.node_rows(), |row| before.is_node_row_live(row)),
                (rel.node_rows(), |row| rel.is_node_row_live(row)),
                (stats.node_rows_retracted, stats.node_rows_added),
            )?;
            check_rows(
                (before.edge_rows(), |row| before.is_edge_row_live(row)),
                (rel.edge_rows(), |row| rel.is_edge_row_live(row)),
                (stats.edge_rows_retracted, stats.edge_rows_added),
            )?;
        }
    }
}
