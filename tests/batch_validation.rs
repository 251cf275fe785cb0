//! Batch acceptance: random mutation batches over a small pool of names go
//! through `Itpg::apply_batch`, and every outcome is held to the builder.
//!
//! The batches mix duplicate names, unknown names, edge names used as endpoints,
//! edge existence outside its endpoints' prospective existence, properties
//! outside their object's existence and intervals reaching `Time::MAX`.  For
//! every batch:
//!
//! * applying it does not panic;
//! * a rejected batch leaves the graph exactly as it was;
//! * an accepted batch leaves a graph that validates and equals an
//!   `ItpgBuilder` replay of the accepted batches, in `apply_batch`'s order;
//! * a batch rejected for Definition A.1 alone (`DanglingEdge`,
//!   `PropertyWithoutExistence`) makes the replay's `build()` fail with the
//!   same kind of error.

use std::collections::BTreeMap;
use std::mem::discriminant;

use proptest::prelude::*;

use tgraph::{Batch, GraphError, Interval, Itpg, ItpgBuilder, Mutation, Object, Time};

/// Node names and edge names come from two small pools, and one draw in eight
/// takes a name from the other pool: batches collide, reference names no batch
/// created, and use edges as endpoints.
const NODES: [&str; 3] = ["a", "b", "c"];
const EDGES: [&str; 3] = ["e", "f", "g"];

fn name_strategy(
    pool: &'static [&'static str; 3],
    other: &'static [&'static str; 3],
) -> impl Strategy<Value = String> {
    (0..24usize).prop_map(move |i| if i < 21 { pool[i % 3] } else { other[i % 3] }.to_owned())
}

fn node_name() -> impl Strategy<Value = String> {
    name_strategy(&NODES, &EDGES)
}

fn edge_name() -> impl Strategy<Value = String> {
    name_strategy(&EDGES, &NODES)
}

fn object_name() -> impl Strategy<Value = String> {
    prop_oneof![node_name(), edge_name()]
}

/// Small times, and the last two time points there are.
fn time_strategy() -> impl Strategy<Value = Time> {
    (0..12u64).prop_map(|i| if i < 10 { i } else { Time::MAX - (11 - i) })
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (time_strategy(), time_strategy()).prop_map(|(a, b)| Interval::of(a.min(b), a.max(b)))
}

/// Existence and property mutations outnumber creations four to one.
fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    let add_existence = || {
        (object_name(), interval_strategy())
            .prop_map(|(object, interval)| Mutation::AddExistence { object, interval })
    };
    let set_property = || {
        (object_name(), 0..2usize, any::<bool>(), interval_strategy()).prop_map(
            |(object, prop, high, interval)| Mutation::SetProperty {
                object,
                prop: ["risk", "test"][prop].into(),
                value: if high { "high" } else { "low" }.into(),
                interval,
            },
        )
    };
    prop_oneof![
        node_name().prop_map(|name| Mutation::AddNode { name, label: "Person".into() }),
        (edge_name(), node_name(), node_name()).prop_map(|(name, src, tgt)| {
            Mutation::AddEdge { name, label: "meets".into(), src, tgt }
        }),
        add_existence(),
        add_existence(),
        add_existence(),
        add_existence(),
        set_property(),
        set_property(),
        set_property(),
        set_property(),
    ]
}

/// Replays batches through the builder in `apply_batch`'s order: per batch,
/// new nodes by name, new edges by name, existence, then properties.  Every
/// name a batch mentions must resolve.
fn replay<'a>(
    domain: Interval,
    batches: impl IntoIterator<Item = &'a Batch>,
) -> Result<Itpg, GraphError> {
    let mut b = ItpgBuilder::new();
    let mut names: BTreeMap<&str, Object> = BTreeMap::new();
    for batch in batches {
        let mut nodes: Vec<(&str, &str)> = Vec::new();
        let mut edges: Vec<(&str, &str, &str, &str)> = Vec::new();
        for m in &batch.mutations {
            match m {
                Mutation::AddNode { name, label } => nodes.push((name, label)),
                Mutation::AddEdge { name, label, src, tgt } => edges.push((name, label, src, tgt)),
                _ => {}
            }
        }
        nodes.sort_unstable();
        edges.sort_unstable();
        for (name, label) in nodes {
            names.insert(name, Object::Node(b.add_node(name, label)?));
        }
        for (name, label, src, tgt) in edges {
            let node = |name: &str| names[name].as_node().expect("endpoints are nodes");
            let edge = b.add_edge(name, label, node(src), node(tgt))?;
            names.insert(name, Object::Edge(edge));
        }
        for m in &batch.mutations {
            if let Mutation::AddExistence { object, interval } = m {
                b.add_existence(names[object.as_str()], *interval)?;
            }
        }
        for m in &batch.mutations {
            if let Mutation::SetProperty { object, prop, value, interval } = m {
                b.set_property(names[object.as_str()], prop, value.clone(), *interval)?;
            }
        }
    }
    b.domain(domain).build()
}

/// The starting graph: nodes `a`, `b`, `c` and edges `e = a → b`, `f = b → c`.
fn start() -> Batch {
    let mut b = Batch::new(0);
    b.add_node("a", "Person")
        .add_node("b", "Person")
        .add_node("c", "Room")
        .add_edge("e", "meets", "a", "b")
        .add_edge("f", "visits", "b", "c")
        .add_existence("a", Interval::of(0, 9))
        .add_existence("b", Interval::of(2, 7))
        .add_existence("c", Interval::of(0, 4))
        .add_existence("e", Interval::of(3, 5))
        .add_existence("f", Interval::of(2, 3))
        .set_property("a", "risk", "low", Interval::of(0, 9));
    b
}

/// The domain `apply_batch` would grow `graph`'s to for `batch`.
fn grown_domain(graph: &Itpg, batch: &Batch) -> Interval {
    batch.mutations.iter().fold(graph.domain(), |domain, m| match m {
        Mutation::AddExistence { interval, .. } | Mutation::SetProperty { interval, .. } => {
            domain.hull(interval)
        }
        Mutation::AddNode { .. } | Mutation::AddEdge { .. } => domain,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batches_are_held_to_the_builder(
        batches in prop::collection::vec(prop::collection::vec(mutation_strategy(), 1..6), 1..13),
    ) {
        let mut graph = Itpg::empty(Interval::of(0, 9));
        let mut accepted = vec![start()];
        graph.apply_batch(&accepted[0]).expect("the starting graph is valid");
        for (epoch, mutations) in batches.into_iter().enumerate() {
            let batch = Batch { epoch: epoch as u64 + 1, mutations };
            let before = graph.clone();
            match graph.apply_batch(&batch) {
                Ok(_) => {
                    prop_assert!(graph.validate().is_ok(), "{:?}", graph.validate());
                    accepted.push(batch);
                    let rebuilt = replay(graph.domain(), &accepted);
                    prop_assert_eq!(rebuilt.as_ref(), Ok(&graph));
                }
                Err(err) => {
                    prop_assert_eq!(&graph, &before, "rejected with {}", err);
                    let definition_a1 = matches!(
                        err,
                        GraphError::DanglingEdge { .. }
                            | GraphError::PropertyWithoutExistence { .. }
                    );
                    if definition_a1 {
                        let domain = grown_domain(&graph, &batch);
                        let rebuilt = replay(domain, accepted.iter().chain([&batch])).err();
                        let kind = rebuilt.as_ref().map(discriminant);
                        prop_assert_eq!(kind, Some(discriminant(&err)), "{:?} vs {}", rebuilt, err);
                    }
                }
            }
        }
    }
}
