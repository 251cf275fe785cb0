//! Property tests pinning the live-graph subsystem to the batch engine:
//!
//! * **(a) ingestion** — applying a randomly chunked (and rotated-within-epoch)
//!   batch sequence yields an `Itpg` independent of the chunking and a
//!   `GraphRelations` whose canonical snapshot is identical to a bulk
//!   `from_itpg` build of the final graph;
//! * **(b) maintenance** — after every batch, every maintained query answer
//!   (Q1–Q12 plus the REACH structural closure and the RECUR time-aware
//!   closure) equals a from-scratch `execute` on the materialized graph,
//!   through a tail of batches overwriting properties at
//!   times already ingested, extending stays and splitting rows so that new
//!   rows lie at times a batch misses; each refresh's `rows_added` and
//!   `rows_retracted` are the set differences of consecutive from-scratch
//!   answers;
//! * **(c) statistics** — after every batch, retractions included, the
//!   `SchemaSummary` memoised in the maintained relations equals the summary
//!   of a bulk build of the graph.

use proptest::prelude::*;

use engine::{compile, execute, BindingTable, ExecutionOptions, GraphRelations, SchemaSummary};
use live::LiveGraph;
use tgraph::{Batch, Interval, IntervalSet, Itpg, Mutation};
use trpq::queries::QueryId;

const MAX_TIME: u64 = 14;

const REACH: &str = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON live";
const RECUR: &str = "MATCH (x:Person {risk = 'high'})\
                     -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON live";

/// Raw generator output for one node: existence layout plus property draws.
#[derive(Debug, Clone)]
struct NodeSpec {
    start: u64,
    len: u64,
    second_gap: Option<(u64, u64)>,
    room: bool,
    high_risk: bool,
    /// Positive test: offset into the existence, as a fraction index.
    test_offset: Option<u64>,
}

/// Raw generator output for one edge: endpoint indices plus where within the
/// endpoints' common existence the edge lives.
#[derive(Debug, Clone)]
struct EdgeSpec {
    src: usize,
    tgt: usize,
    label: usize,
    offset: u64,
    len: u64,
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        0..8u64,
        0..5u64,
        (any::<bool>(), 1..3u64, 0..3u64).prop_map(|(s, gap, len)| s.then_some((gap, len))),
        any::<bool>(),
        any::<bool>(),
        (any::<bool>(), 0..6u64).prop_map(|(s, offset)| s.then_some(offset)),
    )
        .prop_map(|(start, len, second_gap, room, high_risk, test_offset)| NodeSpec {
            start,
            len,
            second_gap,
            room,
            high_risk,
            test_offset,
        })
}

fn edge_spec() -> impl Strategy<Value = EdgeSpec> {
    (0..6usize, 0..6usize, 0..3usize, 0..4u64, 0..4u64)
        .prop_map(|(src, tgt, label, offset, len)| EdgeSpec { src, tgt, label, offset, len })
}

/// Expands the raw specs into a canonical, validity-ordered mutation list: all
/// nodes (creation, existence, properties) first, then all edges.  Any chunking
/// of this list is valid batch by batch, because everything an edge depends on
/// precedes it.
fn build_mutations(nodes: &[NodeSpec], edges: &[EdgeSpec]) -> Vec<Mutation> {
    let mut out: Vec<Mutation> = Vec::new();
    let mut existence: Vec<IntervalSet> = Vec::new();
    for (index, spec) in nodes.iter().enumerate() {
        let name = format!("n{index}");
        let mut set = IntervalSet::empty();
        let first = Interval::of(spec.start, (spec.start + spec.len).min(MAX_TIME));
        set.insert(first);
        if let Some((gap, len2)) = spec.second_gap {
            let start2 = first.end() + 1 + gap;
            if start2 <= MAX_TIME {
                set.insert(Interval::of(start2, (start2 + len2).min(MAX_TIME)));
            }
        }
        out.push(Mutation::AddNode {
            name: name.clone(),
            label: if spec.room { "Room".into() } else { "Person".into() },
        });
        let risk = if spec.high_risk { "high" } else { "low" };
        for &interval in set.intervals() {
            out.push(Mutation::AddExistence { object: name.clone(), interval });
            if !spec.room {
                out.push(Mutation::SetProperty {
                    object: name.clone(),
                    prop: "risk".into(),
                    value: risk.into(),
                    interval,
                });
            }
        }
        if let (false, Some(offset)) = (spec.room, spec.test_offset) {
            // Positive from an offset into the lifespan to the end of life.
            let last = set.max().expect("non-empty existence");
            let from = set.min().expect("non-empty existence").saturating_add(offset);
            if from <= last {
                let tail = IntervalSet::from_interval(Interval::of(from, last));
                for &interval in set.intersection(&tail).intervals() {
                    out.push(Mutation::SetProperty {
                        object: name.clone(),
                        prop: "test".into(),
                        value: "pos".into(),
                        interval,
                    });
                }
            }
        }
        existence.push(set);
    }
    let labels = ["meets", "visits", "cohabits"];
    for (index, spec) in edges.iter().enumerate() {
        let (src, tgt) = (spec.src % nodes.len(), spec.tgt % nodes.len());
        if src == tgt {
            continue;
        }
        let name = format!("e{index}");
        out.push(Mutation::AddEdge {
            name: name.clone(),
            label: labels[spec.label].into(),
            src: format!("n{src}"),
            tgt: format!("n{tgt}"),
        });
        // The edge exists over a sub-interval of the first common existence
        // interval of its endpoints, when there is one.
        let common = existence[src].intersection(&existence[tgt]);
        if let Some(&window) = common.intervals().first() {
            let start = (window.start() + spec.offset).min(window.end());
            let end = (start + spec.len).min(window.end());
            out.push(Mutation::AddExistence {
                object: name.clone(),
                interval: Interval::of(start, end),
            });
        }
    }
    out
}

/// Splits a mutation list into consecutive batches at the given cut fractions
/// and rotates each batch's mutations — exercising both "how the stream is
/// chunked" and "in what order mutations arrive within an epoch".
fn chunk(mutations: &[Mutation], cuts: &[usize], rotations: &[usize]) -> Vec<Batch> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (mutations.len() + 1)).collect();
    bounds.push(0);
    bounds.push(mutations.len());
    bounds.sort_unstable();
    bounds.dedup();
    let mut out = Vec::new();
    for (index, window) in bounds.windows(2).enumerate() {
        let mut batch = Batch::new(index as u64 + 1);
        batch.mutations = mutations[window[0]..window[1]].to_vec();
        let len = batch.mutations.len();
        if len > 1 {
            batch.mutations.rotate_left(rotations.get(index).copied().unwrap_or(0) % len);
        }
        if !batch.is_empty() {
            out.push(batch);
        }
    }
    out
}

fn ingest(batches: &[Batch]) -> Itpg {
    let mut graph = Itpg::empty(Interval::of(0, MAX_TIME));
    for batch in batches {
        graph.apply_batch(batch).expect("generated batches are valid");
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property (a): chunking and within-epoch order do not matter, and the
    /// incrementally maintained relations are canonically identical to a bulk
    /// build of the final graph.
    #[test]
    fn chunked_ingestion_equals_the_bulk_build(
        nodes in prop::collection::vec(node_spec(), 2..6),
        edges in prop::collection::vec(edge_spec(), 0..8),
        cuts_a in prop::collection::vec(0..64usize, 0..4),
        cuts_b in prop::collection::vec(0..64usize, 0..4),
        rotations in prop::collection::vec(0..16usize, 8),
    ) {
        let mutations = build_mutations(&nodes, &edges);
        let batches_a = chunk(&mutations, &cuts_a, &rotations);
        let batches_b = chunk(&mutations, &cuts_b, &[]);

        // The final graph is independent of chunking and within-epoch order.
        let final_a = ingest(&batches_a);
        let final_b = ingest(&batches_b);
        prop_assert_eq!(&final_a, &final_b);
        final_a.validate().expect("live graphs stay well-formed");

        // Incrementally maintained relations == bulk from_itpg, canonically.
        let mut live = LiveGraph::new(Interval::of(0, MAX_TIME));
        for batch in &batches_a {
            live.apply(batch).expect("generated batches are valid");
        }
        let bulk = GraphRelations::from_itpg(&final_a);
        prop_assert_eq!(
            live.relations().canonical_snapshot(),
            bulk.canonical_snapshot()
        );
        prop_assert_eq!(live.relations().stats(), bulk.stats());
    }

    /// Property (b): maintained answers equal from-scratch execution for the
    /// full benchmark suite, at every epoch.  The stream ends with the flips of
    /// property (c), which change answers at times whose rows a refresh has
    /// already cached, then with every person's return, and then with a flip
    /// at one point inside a longer row, which appends rows at times the batch
    /// misses: a refresh that skips a seed row it should re-run keeps a stale
    /// answer or loses one.
    #[test]
    fn maintained_answers_equal_from_scratch_execution(
        nodes in prop::collection::vec(node_spec(), 2..5),
        edges in prop::collection::vec(edge_spec(), 0..7),
        cuts in prop::collection::vec(0..64usize, 1..3),
        rotations in prop::collection::vec(0..16usize, 4),
        flips in prop::collection::vec(any::<bool>(), 5),
    ) {
        let mutations = build_mutations(&nodes, &edges);
        let batches = chunk(&mutations, &cuts, &rotations);

        let mut plan_sets = Vec::new();
        let mut names = Vec::new();
        for id in QueryId::ALL {
            plan_sets.push(engine::queries::plan_for(id));
            names.push(id.name().to_string());
        }
        for (name, text) in [("REACH", REACH), ("RECUR", RECUR)] {
            let clause = trpq::parser::parse_match(text).expect("closure queries parse");
            plan_sets.push(compile(&clause).expect("closure queries compile"));
            names.push(name.to_string());
        }

        let options = ExecutionOptions::default();
        let mut live =
            LiveGraph::with_options(Itpg::empty(Interval::of(0, MAX_TIME)), options);
        // The reference semantics, replaying every batch the live graph takes.
        let mut oracle = Itpg::empty(Interval::of(0, MAX_TIME));
        let handles: Vec<_> = plan_sets.iter().map(|p| live.register(p.clone())).collect();
        // The from-scratch answers at the previous epoch.
        let mut previous: Vec<BindingTable> =
            handles.iter().map(|&handle| live.table(handle).clone()).collect();
        let check = |live: &mut LiveGraph,
                     oracle: &mut Itpg,
                     previous: &mut [BindingTable],
                     batch: &Batch|
         -> Result<(), TestCaseError> {
            live.apply(batch).expect("generated batches are valid");
            oracle.apply_batch(batch).expect("the oracle takes what the live graph took");
            let refreshed = live.refresh_all();
            let scratch = GraphRelations::from_itpg(oracle);
            for (index, (plan_set, name)) in plan_sets.iter().zip(&names).enumerate() {
                let expected = execute(plan_set, &scratch, &options);
                prop_assert_eq!(
                    live.table(handles[index]),
                    &expected.table,
                    "{} at epoch {:?} diverged",
                    name,
                    live.epoch()
                );
                prop_assert_eq!(refreshed[index].output_rows, expected.table.len());
                let before = &previous[index];
                prop_assert_eq!(
                    (refreshed[index].rows_added, refreshed[index].rows_retracted),
                    (rows_not_in(&expected.table, before), rows_not_in(before, &expected.table)),
                    "{} at epoch {:?} miscounted its change",
                    name,
                    live.epoch()
                );
                previous[index] = expected.table;
            }
            Ok(())
        };
        for batch in &batches {
            check(&mut live, &mut oracle, &mut previous, batch)?;
        }
        for (index, spec) in nodes.iter().enumerate() {
            if let Some(batch) = flip_batch(&live, index, spec, flips[index]) {
                check(&mut live, &mut oracle, &mut previous, &batch)?;
            }
        }
        for (index, spec) in nodes.iter().enumerate() {
            if let Some(batch) = return_batch(&live, index, spec) {
                check(&mut live, &mut oracle, &mut previous, &batch)?;
            }
        }
        for (index, spec) in nodes.iter().enumerate() {
            if let Some(batch) = split_batch(&live, index, spec) {
                check(&mut live, &mut oracle, &mut previous, &batch)?;
            }
        }
    }

    /// Property (c): the summary the optimizer reads is the scan of the current
    /// version.  It is read before each batch, so a memo carried across the
    /// delta would be caught after it.  The delta language never deletes an
    /// object; what retracts schema content is overwriting a property, so the
    /// stream ends with batches flipping every drawn person's `risk` and
    /// overwriting their `test`, which removes `(risk, high)` or `(test, pos)`
    /// from the alphabet when the last carrier flips.
    #[test]
    fn memoised_summary_equals_the_bulk_summary_after_every_batch(
        nodes in prop::collection::vec(node_spec(), 2..6),
        edges in prop::collection::vec(edge_spec(), 0..8),
        cuts in prop::collection::vec(0..64usize, 0..4),
        rotations in prop::collection::vec(0..16usize, 8),
        flips in prop::collection::vec(any::<bool>(), 6),
    ) {
        let mut live = LiveGraph::new(Interval::of(0, MAX_TIME));
        let mut oracle = Itpg::empty(Interval::of(0, MAX_TIME));
        for batch in &chunk(&build_mutations(&nodes, &edges), &cuts, &rotations) {
            apply_and_compare_summaries(&mut live, &mut oracle, batch);
        }
        for (index, spec) in nodes.iter().enumerate() {
            if let Some(batch) = flip_batch(&live, index, spec, flips[index]) {
                apply_and_compare_summaries(&mut live, &mut oracle, &batch);
            }
        }
    }
}

/// The rows of canonical table `a` that canonical table `b` lacks.
fn rows_not_in(a: &BindingTable, b: &BindingTable) -> usize {
    a.iter().filter(|row| b.rows().binary_search(row).is_err()).count()
}

/// The batch of the tail a stream ends with: one batch per drawn person (`None`
/// for the others) overwriting `risk` (flipped) and `test` (to `neg`) over the
/// person's whole existence in `live` — changes at times already ingested,
/// retractions included.
fn flip_batch(live: &LiveGraph, index: usize, spec: &NodeSpec, flip: bool) -> Option<Batch> {
    if !flip || spec.room {
        return None;
    }
    let mut batch = Batch::new(live.epoch().map_or(1, |epoch| epoch + 1));
    let name = format!("n{index}");
    let node = live.object_by_name(&name).expect("every node was ingested");
    for &interval in live.relations().existence(node).intervals() {
        let risk = if spec.high_risk { "low" } else { "high" };
        batch.set_property(name.as_str(), "risk", risk, interval);
        batch.set_property(name.as_str(), "test", "neg", interval);
    }
    Some(batch)
}

/// The batch bringing a person (`None` for a room) back for one time point two
/// past the end of their existence in `live`, with their drawn risk.  It
/// touches the person, but changes none of their rows: it appends one row,
/// the only one its times meet.
fn return_batch(live: &LiveGraph, index: usize, spec: &NodeSpec) -> Option<Batch> {
    if spec.room {
        return None;
    }
    let name = format!("n{index}");
    let node = live.object_by_name(&name).expect("every node was ingested");
    let back = Interval::point(live.relations().existence(node).max().expect("people exist") + 2);
    let risk = if spec.high_risk { "high" } else { "low" };
    let mut batch = Batch::new(live.epoch().map_or(1, |epoch| epoch + 1));
    batch.add_existence(name.as_str(), back).set_property(name.as_str(), "risk", risk, back);
    Some(batch)
}

/// The batch flipping a person's risk (`None` for a room, or for a person
/// with no row of three time points or more) at the second time point of
/// their first such row in `live`.  The row dies and three rows replace it:
/// the point before the flip, the flipped point and the rest of the row.  The batch's
/// times meet only the flipped point, so a refresh that re-runs the other two
/// rows only because they are new is what keeps their answers.
fn split_batch(live: &LiveGraph, index: usize, spec: &NodeSpec) -> Option<Batch> {
    if spec.room {
        return None;
    }
    let name = format!("n{index}");
    let node = live.object_by_name(&name).expect("every node was ingested");
    let relations = live.relations();
    let rows = relations.rows_of_node(node.as_node().expect("people are nodes"));
    let row = rows
        .iter()
        .map(|&row| &relations.node_rows()[row as usize])
        .find(|row| row.interval.end() >= row.interval.start() + 2)?;
    let risk = if row.prop("risk") == Some(&"high".into()) { "low" } else { "high" };
    let inside = Interval::point(row.interval.start() + 1);
    let mut batch = Batch::new(live.epoch().map_or(1, |epoch| epoch + 1));
    batch.set_property(name.as_str(), "risk", risk, inside);
    Some(batch)
}

fn apply_and_compare_summaries(live: &mut LiveGraph, oracle: &mut Itpg, batch: &Batch) {
    let before = SchemaSummary::of(live.relations());
    live.apply(batch).expect("generated batches are valid");
    oracle.apply_batch(batch).expect("the oracle takes what the live graph took");
    let after = SchemaSummary::of(live.relations());
    assert!(!std::sync::Arc::ptr_eq(&before, &after), "a delta must start a new memo");
    let bulk = GraphRelations::from_itpg(oracle);
    assert_eq!(after, SchemaSummary::of(&bulk), "epoch {:?}", live.epoch());
}
