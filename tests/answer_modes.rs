//! Property tests of the answer-mode contract, on randomly generated ITPGs:
//!
//! * `AnswerMode::Enumerate` streams exactly the rows of the materialised
//!   `BindingTable`, in its canonical order;
//! * `AnswerMode::Compact` equals the projection of the materialised table onto
//!   `(first object, last object, last binding time)`, coalesced;
//!
//! for all benchmark queries Q1–Q12 plus the REACH / RECUR closure workloads.

use proptest::prelude::*;

use engine::{AnswerMode, Binding, CompactAnswers, ExecutionOptions, GraphRelations, Query};
use tgraph::{Interval, IntervalSet, Itpg, ItpgBuilder, Time};
use trpq::queries::QueryId;

const MAX_TIME: Time = 7;

/// The closure workloads of the perf harness (`bench::REACH_QUERY_TEXT` /
/// `RECUR_QUERY_TEXT`), the queries whose output most rewards lazy answers.
const REACH: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";
const RECUR: &str = "MATCH (x:Person {risk = 'high'})\
                     -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON contact_tracing";

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=3u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

/// A compact description of a random temporal graph: per node its existence
/// intervals, a high-risk flag, and a positive-test flag; per edge the endpoints,
/// a desired interval, and the label choice.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<(Vec<Interval>, bool, bool)>,
    edges: Vec<(usize, usize, Interval, u8)>,
}

fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    let nodes = prop::collection::vec(
        (prop::collection::vec(interval_strategy(), 1..3), any::<bool>(), any::<bool>()),
        2..5,
    );
    let edges = prop::collection::vec((0..4usize, 0..4usize, interval_strategy(), 0..2u8), 0..6);
    (nodes, edges).prop_map(|(nodes, edges)| GraphSpec { nodes, edges })
}

fn build_graph(spec: &GraphSpec) -> Itpg {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let mut node_ids = Vec::new();
    for (i, (intervals, high, positive)) in spec.nodes.iter().enumerate() {
        let label = if i % 3 == 2 { "Room" } else { "Person" };
        let id = b.add_node(&format!("n{i}"), label).unwrap();
        let mut existence = IntervalSet::empty();
        for iv in intervals {
            b.add_existence(id, *iv).unwrap();
            existence.insert(*iv);
        }
        let risk = if *high { "high" } else { "low" };
        for iv in existence.intervals() {
            b.set_property(id, "risk", risk, *iv).unwrap();
            if *positive {
                b.set_property(id, "test", "pos", *iv).unwrap();
            }
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

/// Checks all three answer modes of one compiled query against each other.
fn check_modes(query: &Query, graph: &GraphRelations, label: &str) {
    let table = query
        .clone()
        .with_mode(AnswerMode::Materialized)
        .run(graph)
        .into_table()
        .expect("materialised mode returns a table");

    let mut answers = query.clone().with_mode(AnswerMode::Enumerate).run(graph);
    let cursor = answers.cursor_mut().expect("enumerate mode returns a cursor");
    let streamed: Vec<Vec<Binding>> = cursor.by_ref().collect();
    assert_eq!(
        streamed.as_slice(),
        table.rows(),
        "{label}: cursor must stream the canonical table"
    );
    assert_eq!(answers.stats().output_rows, table.len(), "{label}: honest cursor stats");

    let answers = query.clone().with_mode(AnswerMode::Compact).run(graph);
    let compact = answers.compact().expect("compact mode returns interval answers");
    assert_eq!(
        compact,
        &CompactAnswers::from_table(&table),
        "{label}: compact answers must equal the coalesced table projection"
    );
    assert_eq!(answers.stats().output_rows, compact.num_pairs(), "{label}: honest pair stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn answer_modes_agree_on_random_graphs(spec in graph_spec_strategy()) {
        let graph = GraphRelations::from_itpg(&build_graph(&spec));
        let options = ExecutionOptions::default();
        for id in QueryId::ALL {
            let query = Query::benchmark(id).with_options(options);
            check_modes(&query, &graph, id.name());
        }
        for (name, text) in [("REACH", REACH), ("RECUR", RECUR)] {
            let query = Query::parse(text).expect("closure workloads compile").with_options(options);
            check_modes(&query, &graph, name);
        }
    }
}
