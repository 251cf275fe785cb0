//! Backward viability masks: which rows a match may sit on and still reach the end
//! of its plan.
//!
//! Steps 1–2 evaluate a plan left to right, so a filter near the *end* of the plan
//! (`({test = 'pos'})` closes Q9–Q12) prunes nothing until every hop before it has
//! fanned out.  For a plan without fixpoints this module walks the plan once in the
//! opposite direction: one dense scan of the relation the last selective filter
//! applies to, then sparse propagation through the adjacency indexes read in reverse,
//! leaving one [`RowMask`] wherever the forward pass *chooses* a row — the seeds, the
//! rows a hop lands on, the rows a shift lands on.  The forward pass tests the bit
//! before it reads the row.
//!
//! A mask is a sound over-approximation, so it never removes a match that would have
//! survived — chains are the same, in the same order, with and without it:
//!
//! * a cursor's interval always lies inside the interval of the row it sits on, so
//!   two rows whose intervals are disjoint cannot be joined by any cursor;
//! * a filter is row-level: [`ObjFilter::matches_row`] reads the row alone, and a
//!   [`ObjFilter::clamp_interval`] that leaves nothing of the row's interval leaves
//!   nothing of any interval inside it;
//! * a shift stays on one object, so only rows of an object with a viable row can
//!   become viable through it (the arrival window is not consulted: object-level);
//! * everything after the last selective filter is left unconstrained;
//! * the pass only follows the indexes, which hold no tombstoned row, and its one
//!   dense scan skips dead rows.
//!
//! Nothing here is kept: the executor builds the masks of one plan inside one
//! `run_plan_seeded` call — when its sample batch says the plan wastes its
//! traversals, see the gate there — and drops them with it.

use crate::plan::{EnginePlan, HopDirection, MicroOp, ObjFilter, TemporalLink};
use crate::relations::GraphRelations;

/// A set of physical row indices of one relation, one bit per row.  Which relation
/// is known from where the mask is consulted: a fixpoint-free plan alternates between
/// node and edge rows at its hops and nowhere else.
#[derive(Debug)]
pub struct RowMask {
    words: Vec<u64>,
}

impl RowMask {
    fn empty(rows: usize) -> Self {
        RowMask { words: vec![0; rows.div_ceil(64)] }
    }

    /// True if a match may sit on `row`.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        self.words[(row >> 6) as usize] >> (row & 63) & 1 == 1
    }

    fn insert(&mut self, row: u32) {
        self.words[(row >> 6) as usize] |= 1 << (row & 63);
    }

    /// The rows of the set, ascending.
    fn rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    (index as u32) << 6 | bit
                })
            })
        })
    }

    fn len(&self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Removes the rows `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for (index, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                if !keep((index as u32) << 6 | bit) {
                    *word &= !(1 << bit);
                }
            }
        }
    }
}

/// The masks of one segment: where a match may start it, and where each of its hops
/// may land.  `None` means unconstrained.
#[derive(Debug)]
pub struct SegmentMasks {
    entry: Option<RowMask>,
    landing: Vec<Option<RowMask>>,
}

impl SegmentMasks {
    /// The rows a match may start the segment on: seed rows for the first segment,
    /// the rows a shift lands on for the others.
    pub fn entry(&self) -> Option<&RowMask> {
        self.entry.as_ref()
    }

    /// The rows the hop at `op` (an index into [`crate::plan::Segment::ops`]) may
    /// land on.
    pub fn landing(&self, op: usize) -> Option<&RowMask> {
        self.landing[op].as_ref()
    }
}

/// The outcome of one backward pass over a plan.
#[derive(Debug)]
pub(crate) struct Viability {
    segments: Vec<SegmentMasks>,
    /// Row indices the pass looked at: the live rows of its dense scan plus every
    /// set bit it reversed and every adjacent row it tested.
    pub(crate) rows_visited: usize,
    /// False if the budget ran out before the pass reached the seeds.  The masks
    /// built until then — the ones nearest the selective end, at least the scanned
    /// one — stay in force; the steps before them are unconstrained.
    pub(crate) complete: bool,
}

impl Viability {
    /// Walks `plan` backwards from its last selective filter, visiting at most
    /// `budget` rows.  `None` if there is nothing to build masks from: the plan has
    /// a fixpoint (a closure reaches rows of either kind any number of hops away),
    /// none of its filters selects rows, or the budget does not cover the dense scan.
    pub(crate) fn build(plan: &EnginePlan, graph: &GraphRelations, budget: usize) -> Option<Self> {
        let mut segments: Vec<SegmentMasks> = plan
            .segments
            .iter()
            .map(|segment| SegmentMasks {
                entry: None,
                landing: segment.ops.iter().map(|_| None).collect(),
            })
            .collect();
        let mut pass = Pass { graph, budget, visited: 0 };
        // Seeds are node rows and only a hop changes the kind of row under the cursor.
        let mut on_nodes = plan.hop_count() % 2 == 0;
        // The rows a match may sit on before the step last walked over; `None`
        // until the walk meets the filter it anchors on.
        let mut current: Option<RowMask> = None;
        let complete = 'walk: {
            for (index, segment) in plan.segments.iter().enumerate().rev() {
                for (op_index, op) in segment.ops.iter().enumerate().rev() {
                    match op {
                        MicroOp::Bind(_) => {}
                        MicroOp::Filter(filter) => match &mut current {
                            Some(mask) => pass.filter(mask, filter, on_nodes),
                            None if selects_rows(filter) => {
                                current = Some(pass.scan(filter, on_nodes)?);
                            }
                            None => {}
                        },
                        MicroOp::Hop(direction) => {
                            let landed_on_nodes = on_nodes;
                            on_nodes = !on_nodes;
                            if let Some(landing) = current.take() {
                                current = pass.reverse_hop(&landing, *direction, landed_on_nodes);
                                segments[index].landing[op_index] = Some(landing);
                                if current.is_none() {
                                    break 'walk false;
                                }
                            }
                        }
                        MicroOp::Closure(_) => return None,
                    }
                }
                if index > 0 {
                    if matches!(plan.links[index - 1], TemporalLink::Closure(_)) {
                        return None;
                    }
                    if let Some(entry) = current.take() {
                        current = pass.reverse_shift(&entry, on_nodes);
                        segments[index].entry = Some(entry);
                        if current.is_none() {
                            break 'walk false;
                        }
                    }
                }
            }
            true
        };
        if complete {
            segments[0].entry = Some(current?);
        }
        Some(Viability { segments, rows_visited: pass.visited, complete })
    }

    /// The masks of the segment at `index`.
    pub(crate) fn segment(&self, index: usize) -> &SegmentMasks {
        &self.segments[index]
    }
}

/// True if the filter can tell two rows of one relation apart.  Which relation a
/// step sits on is fixed by the plan, so `require_node` alone selects nothing.
fn selects_rows(filter: &ObjFilter) -> bool {
    filter.label.is_some() || !filter.props.is_empty() || !filter.time.is_empty()
}

/// One backward walk: the graph, and the row visits spent against the budget.
struct Pass<'a> {
    graph: &'a GraphRelations,
    budget: usize,
    visited: usize,
}

impl Pass<'_> {
    /// Counts `rows` visits; false once the budget is overdrawn.
    fn charge(&mut self, rows: usize) -> bool {
        self.visited += rows;
        self.visited <= self.budget
    }

    /// True if a cursor sitting on `row` can pass `filter` with a non-empty interval.
    fn accepts(&self, filter: &ObjFilter, on_nodes: bool, row: u32) -> bool {
        if filter.require_node.is_some_and(|node| node != on_nodes) {
            return false;
        }
        let (label, props, interval) = if on_nodes {
            let row = &self.graph.node_rows()[row as usize];
            (&row.label, &row.props, row.interval)
        } else {
            let row = &self.graph.edge_rows()[row as usize];
            (&row.label, &row.props, row.interval)
        };
        filter.matches_row(label, props) && filter.clamp_interval(interval).is_some()
    }

    /// The dense scan the walk starts from: the live rows of the relation that pass
    /// `filter`.  `None` if the budget does not cover the scan.
    fn scan(&mut self, filter: &ObjFilter, on_nodes: bool) -> Option<RowMask> {
        let stats = self.graph.stats();
        let (rows, live) = if on_nodes {
            (self.graph.node_rows().len(), stats.temporal_nodes)
        } else {
            (self.graph.edge_rows().len(), stats.temporal_edges)
        };
        if !self.charge(live) {
            return None;
        }
        let mut mask = RowMask::empty(rows);
        for row in 0..rows as u32 {
            let is_live = if on_nodes {
                self.graph.is_node_row_live(row)
            } else {
                self.graph.is_edge_row_live(row)
            };
            if is_live && self.accepts(filter, on_nodes, row) {
                mask.insert(row);
            }
        }
        Some(mask)
    }

    /// Walks back over a filter: the rows of `mask` that pass it.  Bounded by what
    /// the step before already paid for, so it is counted but never stops the walk.
    fn filter(&mut self, mask: &mut RowMask, filter: &ObjFilter, on_nodes: bool) {
        self.visited += mask.len();
        mask.retain(|row| self.accepts(filter, on_nodes, row));
    }

    /// Walks back over a hop: the rows from which the hop reaches a row of `landing`
    /// at a time both rows exist.  A forward hop node → edge came from a row of the
    /// edge's source and edge → node from an edge whose target the node is; a
    /// backward hop swaps the endpoints.  `None` if the budget ran out.
    fn reverse_hop(
        &mut self,
        landing: &RowMask,
        direction: HopDirection,
        landed_on_nodes: bool,
    ) -> Option<RowMask> {
        let graph = self.graph;
        let (node_rows, edge_rows) = (graph.node_rows(), graph.edge_rows());
        let forward = direction == HopDirection::Forward;
        if landed_on_nodes {
            let mut from = RowMask::empty(edge_rows.len());
            for row in landing.rows() {
                let node = &node_rows[row as usize];
                let adjacent = if forward {
                    graph.in_edge_rows(node.node)
                } else {
                    graph.out_edge_rows(node.node)
                };
                if !self.charge(1 + adjacent.len()) {
                    return None;
                }
                for &edge in adjacent {
                    if !from.contains(edge)
                        && edge_rows[edge as usize].interval.overlaps(&node.interval)
                    {
                        from.insert(edge);
                    }
                }
            }
            Some(from)
        } else {
            let mut from = RowMask::empty(node_rows.len());
            for row in landing.rows() {
                let edge = &edge_rows[row as usize];
                let states = graph.rows_of_node(if forward { edge.src } else { edge.tgt });
                if !self.charge(1 + states.len()) {
                    return None;
                }
                for &node in states {
                    if !from.contains(node)
                        && node_rows[node as usize].interval.overlaps(&edge.interval)
                    {
                        from.insert(node);
                    }
                }
            }
            Some(from)
        }
    }

    /// Walks back over a shift: every row of an object that has a row in `landing`.
    /// `None` if the budget ran out.
    fn reverse_shift(&mut self, landing: &RowMask, on_nodes: bool) -> Option<RowMask> {
        let graph = self.graph;
        let rows = if on_nodes { graph.node_rows().len() } else { graph.edge_rows().len() };
        let mut from = RowMask::empty(rows);
        for row in landing.rows() {
            // The rows of one object are reversed together by its first viable row.
            if from.contains(row) {
                continue;
            }
            let states = if on_nodes {
                graph.rows_of_node(graph.node_rows()[row as usize].node)
            } else {
                graph.rows_of_edge(graph.edge_rows()[row as usize].edge)
            };
            if !self.charge(1 + states.len()) {
                return None;
            }
            for &state in states {
                from.insert(state);
            }
        }
        Some(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Segment;
    use tgraph::{Batch, Interval, Itpg, ItpgBuilder};

    const Q9: &str =
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g";

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn plan(text: &str) -> EnginePlan {
        let clause = trpq::parser::parse_match(text).expect("parses");
        let mut plans = crate::compiler::compile(&clause).expect("compiles").plans;
        assert_eq!(plans.len(), 1, "{text}");
        plans.remove(0)
    }

    /// Ann and dee are high-risk, bob tests positive from time 8 (two rows), cal and
    /// the lab never do.  `ann -m1-> bob`, `ann -m2-> cal`, `ann -v1-> lab`,
    /// `dee -m3-> ann`, `bob -m4-> dee`.
    fn contacts() -> Itpg {
        let mut b = ItpgBuilder::new();
        let all = iv(1, 10);
        let persons: Vec<_> = ["ann", "bob", "cal", "dee"]
            .iter()
            .map(|name| {
                let node = b.add_node(name, "Person").unwrap();
                b.add_existence(node, all).unwrap();
                let risk = if matches!(*name, "ann" | "dee") { "high" } else { "low" };
                b.set_property(node, "risk", risk, all).unwrap();
                node
            })
            .collect();
        let (ann, bob, cal, dee) = (persons[0], persons[1], persons[2], persons[3]);
        b.set_property(bob, "test", "pos", iv(8, 10)).unwrap();
        let lab = b.add_node("lab", "Room").unwrap();
        b.add_existence(lab, all).unwrap();
        for (name, label, src, tgt, during) in [
            ("m1", "meets", ann, bob, iv(2, 3)),
            ("m2", "meets", ann, cal, iv(4, 6)),
            ("v1", "visits", ann, lab, iv(2, 6)),
            ("m3", "meets", dee, ann, iv(5, 7)),
            ("m4", "meets", bob, dee, iv(2, 4)),
        ] {
            let edge = b.add_edge(name, label, src, tgt).unwrap();
            b.add_existence(edge, during).unwrap();
        }
        b.domain(all).build().unwrap()
    }

    fn node_rows_named(graph: &GraphRelations, mask: &RowMask) -> Vec<(String, Interval)> {
        mask.rows()
            .map(|row| {
                let row = &graph.node_rows()[row as usize];
                (graph.object_name(row.node.into()).to_owned(), row.interval)
            })
            .collect()
    }

    fn edge_rows_named(graph: &GraphRelations, mask: &RowMask) -> Vec<String> {
        mask.rows()
            .map(|row| graph.object_name(graph.edge_rows()[row as usize].edge.into()).to_owned())
            .collect()
    }

    fn build_all(plan: &EnginePlan, graph: &GraphRelations) -> Viability {
        let built = Viability::build(plan, graph, usize::MAX).expect("the plan has an anchor");
        assert!(built.complete);
        built
    }

    #[test]
    fn a_shift_stays_on_its_object_and_hops_reverse_to_the_right_endpoint() {
        let graph = GraphRelations::from_itpg(&contacts());
        // Segment 0 is [filter, bind x, FWD, :meets, FWD], segment 1 the end filter.
        let forward = build_all(&plan(Q9), &graph);
        let end = forward.segment(1).entry().expect("the scanned mask");
        assert_eq!(node_rows_named(&graph, end), [("bob".to_owned(), iv(8, 10))]);
        // Back over NEXT*: every row of bob and of nobody else; m1 exists during
        // the first of them only, which is enough.
        let arrived = forward.segment(0).landing(4).expect("edge → node");
        assert_eq!(
            node_rows_named(&graph, arrived),
            [("bob".to_owned(), iv(1, 7)), ("bob".to_owned(), iv(8, 10))]
        );
        // FWD edge → node came from an edge whose *target* is bob (m4 leaves bob),
        // FWD node → edge from a row of that edge's *source*.
        let crossed = forward.segment(0).landing(2).expect("node → edge");
        assert_eq!(edge_rows_named(&graph, crossed), ["m1"]);
        let seeds = forward.segment(0).entry().expect("complete");
        assert_eq!(node_rows_named(&graph, seeds), [("ann".to_owned(), iv(1, 10))]);
        assert!(forward.segment(0).landing(0).is_none(), "only hops have landing masks");

        // BWD swaps the endpoints: the edge is one *leaving* bob, the seed its target.
        let backward = build_all(&plan(&Q9.replace("FWD", "BWD")), &graph);
        assert_eq!(edge_rows_named(&graph, backward.segment(0).landing(2).unwrap()), ["m4"]);
        let seeds = backward.segment(0).entry().unwrap();
        assert_eq!(node_rows_named(&graph, seeds), [("dee".to_owned(), iv(1, 10))]);
    }

    #[test]
    fn rows_tombstoned_by_a_delta_are_never_viable() {
        let mut itpg = contacts();
        let mut graph = GraphRelations::from_itpg(&itpg);
        let dead: Vec<u32> = graph.rows_of_node(graph.node_rows()[1].node).to_vec();
        assert_eq!(graph.object_name(graph.node_rows()[1].node.into()), "bob");
        // Touch bob and m1: their rows die in place, identical ones are appended.
        let mut batch = Batch::new(1);
        batch.set_property("bob", "name", "Bob", iv(1, 10)).add_existence("m1", iv(3, 3));
        let applied = itpg.apply_batch(&batch).unwrap();
        graph.apply_delta(&itpg, &applied.touched);
        assert!(dead.iter().all(|&row| !graph.is_node_row_live(row)));
        // The dead `pos` row still reads as positive through the row slice.
        assert!(dead.iter().any(|&row| graph.node_rows()[row as usize].prop("test").is_some()));

        let built = build_all(&plan(Q9), &graph);
        let first = built.segment(0);
        for mask in [built.segment(1).entry(), first.landing(4), first.entry()] {
            let mask = mask.expect("complete");
            assert!(mask.rows().all(|row| graph.is_node_row_live(row)));
            assert!(mask.len() > 0);
        }
        let crossed = first.landing(2).unwrap();
        assert!(crossed.rows().all(|row| graph.is_edge_row_live(row)));
        assert_eq!(edge_rows_named(&graph, crossed), ["m1"]);
        assert_eq!(
            node_rows_named(&graph, built.segment(1).entry().unwrap()),
            [("bob".to_owned(), iv(8, 10))]
        );
    }

    #[test]
    fn a_time_filter_excludes_the_rows_it_clamps_to_nothing() {
        let graph = GraphRelations::from_itpg(&contacts());
        let early = plan("MATCH (x:Person)-[:meets]->(y:Person {time < '8'}) ON g");
        let built = build_all(&early, &graph);
        // Segment ops: [filter x, bind, FWD, filter :meets, FWD, filter y, bind].
        let end = node_rows_named(&graph, built.segment(0).landing(4).expect("edge → node"));
        assert!(end.contains(&("bob".to_owned(), iv(1, 7))));
        assert!(!end.contains(&("bob".to_owned(), iv(8, 10))), "[8, 10] clamps to nothing");
        assert_eq!(end.len(), 4, "one row per person: {end:?}");
        // A filter further back clamps the same way: no meeting exists before 2.
        let never = plan("MATCH (x:Person)-[:meets {time < '2'}]->(y:Person) ON g");
        let built = build_all(&never, &graph);
        assert_eq!(built.segment(0).landing(2).map(RowMask::len), Some(0));
        assert_eq!(built.segment(0).entry().map(RowMask::len), Some(0));
    }

    #[test]
    fn plans_without_an_anchor_or_with_a_fixpoint_yield_no_masks() {
        let graph = GraphRelations::from_itpg(&contacts());
        // No filter that tells rows apart: the kind of row is fixed by the plan.
        let kind_only = |node| ObjFilter { require_node: Some(node), ..Default::default() };
        let unselective = EnginePlan {
            segments: vec![Segment {
                ops: vec![
                    MicroOp::Filter(ObjFilter::default()),
                    MicroOp::Hop(HopDirection::Forward),
                    MicroOp::Filter(kind_only(false)),
                    MicroOp::Hop(HopDirection::Forward),
                    MicroOp::Filter(kind_only(true)),
                ],
            }],
            links: vec![],
        };
        assert!(Viability::build(&unselective, &graph, usize::MAX).is_none());
        // Filters that select nothing after the anchor do not hide it.
        let mut anchored = unselective.clone();
        anchored.segments[0].ops[2] =
            MicroOp::Filter(ObjFilter { label: Some("visits".into()), ..Default::default() });
        let built = build_all(&anchored, &graph);
        assert_eq!(edge_rows_named(&graph, built.segment(0).landing(1).unwrap()), ["v1"]);
        assert!(built.segment(0).landing(3).is_none(), "unconstrained past the anchor");

        for text in [
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-({test = 'pos'}) ON g",
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON g",
        ] {
            let fixpoint = plan(text);
            assert!(fixpoint.has_fixpoint(), "{text}");
            assert!(Viability::build(&fixpoint, &graph, usize::MAX).is_none(), "{text}");
        }
    }

    #[test]
    fn a_spent_budget_keeps_the_masks_nearest_the_end() {
        let graph = GraphRelations::from_itpg(&contacts());
        let q9 = plan(Q9);
        let full = build_all(&q9, &graph);
        // In plan order; the walk fills them from the back.
        let masks = |v: &Viability| -> Vec<Option<Vec<u32>>> {
            let first = v.segment(0);
            [first.entry(), first.landing(2), first.landing(4), v.segment(1).entry()]
                .map(|mask| mask.map(|m| m.rows().collect()))
                .into()
        };
        let scan = graph.stats().temporal_nodes;
        assert!(Viability::build(&q9, &graph, scan - 1).is_none(), "cannot pay for the scan");
        let mut stages = std::collections::BTreeSet::new();
        for budget in scan..=full.rows_visited {
            let built = Viability::build(&q9, &graph, budget).expect("the scan is paid for");
            let have = masks(&built);
            let missing = have.iter().take_while(|mask| mask.is_none()).count();
            assert!(missing < have.len(), "the scanned mask is always kept");
            // What was built is whole, and everything before it is unconstrained.
            assert_eq!(have[missing..], masks(&full)[missing..], "budget {budget}");
            assert_eq!(built.complete, missing == 0, "budget {budget}");
            assert!(built.rows_visited >= scan && built.rows_visited <= full.rows_visited);
            stages.insert(missing);
        }
        assert_eq!(stages.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
    }
}
