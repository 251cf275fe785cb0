//! Exactness of the row-level apply: random batch sequences go through
//! `LiveGraph::apply`, which writes each batch to the relations without an
//! `Itpg`, and through the reference replay `Itpg::apply_batch` +
//! `GraphRelations::apply_delta`.  After every batch the two agree on the
//! outcome — an equal `AppliedBatch` and `DeltaStats`, or an equal
//! `GraphError` — and the relations are *physically* equal: row vectors,
//! liveness flags, per-object row lists, adjacency lists, names, existence and
//! domain, index for index.  A rejected batch changes neither the relations
//! nor the names the live graph resolves.
//!
//! The batches mix objects created without existence and given it later,
//! edges to nodes created in the same batch, overlapping assignments of one
//! property (the later one wins), rewrites at past times that split a row at
//! one point, intervals reaching `Time::MAX`, and batches rejected for unknown
//! or duplicate names, dangling edges and properties outside existence.

use engine::{EdgeRow, GraphRelations, NodeRow};
use live::{LiveError, LiveGraph};
use proptest::prelude::*;
use tgraph::{Batch, EdgeId, Interval, IntervalSet, Itpg, Mutation, NodeId, Object, Time};

const NODES: [&str; 4] = ["a", "b", "c", "d"];
const EDGES: [&str; 3] = ["e", "f", "g"];

/// Everything a relations value stores, at its physical indices.
#[derive(Debug, PartialEq)]
struct Physical {
    domain: Interval,
    nodes: Vec<NodeRow>,
    edges: Vec<EdgeRow>,
    node_live: Vec<bool>,
    edge_live: Vec<bool>,
    rows_of_node: Vec<Vec<u32>>,
    rows_of_edge: Vec<Vec<u32>>,
    out_edges: Vec<Vec<u32>>,
    in_edges: Vec<Vec<u32>>,
    names: Vec<String>,
    existence: Vec<IntervalSet>,
}

fn physical(rel: &GraphRelations) -> Physical {
    let node_ids = || (0..rel.num_nodes() as u32).map(NodeId);
    let edge_ids = || (0..rel.num_edges() as u32).map(EdgeId);
    let objects = || node_ids().map(Object::Node).chain(edge_ids().map(Object::Edge));
    Physical {
        domain: rel.domain(),
        nodes: rel.nodes().iter().cloned().collect(),
        edges: rel.edges().iter().cloned().collect(),
        node_live: (0..rel.nodes().len() as u32).map(|r| rel.is_node_row_live(r)).collect(),
        edge_live: (0..rel.edges().len() as u32).map(|r| rel.is_edge_row_live(r)).collect(),
        rows_of_node: node_ids().map(|n| rel.rows_of_node(n).to_vec()).collect(),
        rows_of_edge: edge_ids().map(|e| rel.rows_of_edge(e).to_vec()).collect(),
        out_edges: node_ids().map(|n| rel.out_edge_rows(n).to_vec()).collect(),
        in_edges: node_ids().map(|n| rel.in_edge_rows(n).to_vec()).collect(),
        names: objects().map(|o| rel.object_name(o).to_owned()).collect(),
        existence: objects().map(|o| rel.existence(o).clone()).collect(),
    }
}

/// The reference: an `Itpg` and the relations it feeds through `apply_delta`.
struct Oracle {
    itpg: Itpg,
    relations: GraphRelations,
}

impl Oracle {
    fn new(domain: Interval) -> Self {
        let itpg = Itpg::empty(domain);
        let relations = GraphRelations::from_itpg(&itpg);
        Oracle { itpg, relations }
    }
}

/// Applies `batch` to both sides and holds them to each other.
fn apply_both(
    live: &mut LiveGraph,
    oracle: &mut Oracle,
    batch: &Batch,
) -> Result<(), TestCaseError> {
    let before = physical(live.relations());
    let expected = oracle.itpg.apply_batch(batch).map(|applied| {
        let delta = oracle.relations.apply_delta(&oracle.itpg, &applied.touched);
        (applied, delta)
    });
    match (live.apply(batch), expected) {
        (Ok(stats), Ok((applied, delta))) => {
            prop_assert_eq!(&stats.applied, &applied, "epoch {}", batch.epoch);
            prop_assert_eq!(stats.delta, delta, "epoch {}", batch.epoch);
            prop_assert_eq!(stats.mutations, batch.len());
        }
        (Err(LiveError::Graph(got)), Err(want)) => {
            prop_assert_eq!(&got, &want, "epoch {}", batch.epoch);
            prop_assert_eq!(physical(live.relations()), before, "rejected with {}", got);
        }
        (got, want) => prop_assert!(false, "epoch {}: {:?} vs {:?}", batch.epoch, got, want),
    }
    prop_assert_eq!(physical(live.relations()), physical(&oracle.relations));
    for name in NODES.iter().chain(&EDGES) {
        prop_assert_eq!(live.object_by_name(name), oracle.itpg.object_by_name(name), "{}", name);
    }
    Ok(())
}

/// Small times, and the last two time points there are.
fn time_strategy() -> impl Strategy<Value = Time> {
    (0..12u64).prop_map(|i| if i < 10 { i } else { Time::MAX - (11 - i) })
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (time_strategy(), time_strategy()).prop_map(|(a, b)| Interval::of(a.min(b), a.max(b)))
}

/// Mostly names of the right kind, now and then one of the other kind.
fn name(
    pool: &'static [&'static str],
    other: &'static [&'static str],
) -> impl Strategy<Value = String> {
    (0..16usize).prop_map(move |i| {
        if i < 14 { pool[i % pool.len()] } else { other[i % other.len()] }.to_owned()
    })
}

fn object_name() -> impl Strategy<Value = String> {
    prop_oneof![name(&NODES, &EDGES), name(&NODES, &EDGES), name(&EDGES, &NODES)]
}

/// Existence and property mutations outnumber creations three to one, and
/// one property in two is `risk`, so assignments of one property overlap.
fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    let add_existence = || {
        (object_name(), interval_strategy())
            .prop_map(|(object, interval)| Mutation::AddExistence { object, interval })
    };
    let set_property = || {
        (object_name(), 0..4usize, 0..3usize, interval_strategy()).prop_map(
            |(object, prop, value, interval)| Mutation::SetProperty {
                object,
                prop: ["risk", "risk", "test", "loc"][prop].into(),
                value: ["low", "high", "pos"][value].into(),
                interval,
            },
        )
    };
    prop_oneof![
        name(&NODES, &EDGES).prop_map(|name| Mutation::AddNode { name, label: "Person".into() }),
        (name(&EDGES, &NODES), name(&NODES, &EDGES), name(&NODES, &EDGES)).prop_map(
            |(name, src, tgt)| Mutation::AddEdge { name, label: "meets".into(), src, tgt }
        ),
        add_existence(),
        add_existence(),
        add_existence(),
        set_property(),
        set_property(),
        set_property(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_row_level_apply_equals_the_reference_replay(
        batches in prop::collection::vec(prop::collection::vec(mutation_strategy(), 1..7), 1..16),
    ) {
        let mut live = LiveGraph::new(Interval::of(0, 9));
        let mut oracle = Oracle::new(Interval::of(0, 9));
        for (epoch, mutations) in batches.into_iter().enumerate() {
            apply_both(&mut live, &mut oracle, &Batch { epoch: epoch as u64 + 1, mutations })?;
        }
    }
}

fn iv(a: Time, b: Time) -> Interval {
    Interval::of(a, b)
}

/// Each case the random batches may or may not draw, in one fixed sequence.
#[test]
fn each_listed_case_matches_the_reference_replay() {
    let mut batches = Vec::new();
    // Objects created without existence, an edge to nodes of the same batch.
    let mut b = Batch::new(1);
    b.add_edge("e", "meets", "a", "b").add_node("b", "Person").add_node("a", "Person");
    batches.push(b);
    // Existence arrives later, reaching the end of time, with overlapping
    // assignments of one property: the later one wins on [4, 6].
    let mut b = Batch::new(2);
    b.add_existence("a", iv(1, Time::MAX))
        .add_existence("b", iv(2, 9))
        .add_existence("e", iv(3, 8))
        .set_property("a", "risk", "low", iv(1, 6))
        .set_property("a", "risk", "high", iv(4, 9))
        .set_property("e", "loc", "park", iv(3, 8))
        .set_property("a", "test", "pos", iv(9, Time::MAX));
    batches.push(b);
    // Rejected: a dangling edge, a property outside existence, unknown and
    // duplicate names.
    let mut b = Batch::new(3);
    b.add_existence("e", iv(1, 9));
    batches.push(b);
    let mut b = Batch::new(4);
    b.set_property("b", "risk", "low", iv(8, 12));
    batches.push(b);
    let mut b = Batch::new(5);
    b.add_node("c", "Person").add_existence("ghost", iv(1, 2));
    batches.push(b);
    let mut b = Batch::new(6);
    b.add_node("c", "Person").add_edge("c", "meets", "a", "b");
    batches.push(b);
    // A past rewrite splitting a row at one point, and one re-asserting a
    // state, which changes no row.
    let mut b = Batch::new(7);
    b.set_property("e", "loc", "bar", iv(5, 5)).set_property("a", "risk", "low", iv(2, 3));
    batches.push(b);
    // Existence joining two rows with equal properties, and growing the domain.
    let mut b = Batch::new(8);
    b.add_existence("b", iv(10, 20)).add_node("c", "Room").add_existence("c", iv(0, 0));
    batches.push(b);

    let mut live = LiveGraph::new(iv(1, 9));
    let mut oracle = Oracle::new(iv(1, 9));
    let mut rejected = 0;
    for batch in &batches {
        apply_both(&mut live, &mut oracle, batch).unwrap();
        rejected += usize::from(live.epoch() != Some(batch.epoch));
    }
    assert_eq!(rejected, 4);
    assert_eq!(live.object_by_name("c"), Some(Object::Node(NodeId(2))));
    assert!(live.relations().rows_of_edge(EdgeId(0)).len() == 3, "the split made three rows");
}

/// Batches that append more than a chunk of rows (1024) to each relation,
/// and retract some, while a snapshot of every earlier version is held: after
/// each batch, each snapshot still equals the relations it was taken of.
#[test]
fn held_snapshots_keep_their_version_while_batches_append_past_a_chunk() {
    const PEOPLE: usize = 400;
    let mut live = LiveGraph::new(iv(0, 9));
    let mut oracle = Oracle::new(iv(0, 9));
    let mut held: Vec<(GraphRelations, Physical)> = Vec::new();
    for epoch in 1..=4u64 {
        let mut b = Batch::new(epoch);
        for i in 0..PEOPLE {
            let person = format!("p{epoch}_{i}");
            b.add_node(&person, "Person").add_existence(&person, iv(1, 9)).set_property(
                &person,
                "risk",
                "low",
                iv(1, 9),
            );
            // Each meets the next of their own batch, and the last batch's
            // first eighth turn high-risk from 6 on: one row retracted, two
            // appended each.
            let (contact, next) =
                (format!("m{epoch}_{i}"), format!("p{epoch}_{}", (i + 1) % PEOPLE));
            b.add_edge(&contact, "meets", &person, next).add_existence(&contact, iv(2, 5));
            if epoch > 1 && i < PEOPLE / 8 {
                b.set_property(format!("p{}_{i}", epoch - 1), "risk", "high", iv(6, 9));
            }
        }
        held.push((live.relations().snapshot(), physical(live.relations())));
        apply_both(&mut live, &mut oracle, &b).unwrap();
        for (version, (snapshot, then)) in held.iter().enumerate() {
            assert_eq!(&physical(snapshot), then, "the snapshot before batch {}", version + 1);
        }
    }
    let rel = live.relations();
    assert_eq!(rel.nodes().len(), 4 * PEOPLE + 3 * 2 * (PEOPLE / 8));
    assert_eq!(rel.edges().len(), 4 * PEOPLE);
    assert!(held[2].1.nodes.len() < 1024 && held[3].1.nodes.len() > 1024, "crossed in batch 3");
}
