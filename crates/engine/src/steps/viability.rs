//! Backward viability masks: which rows a match may sit on and still reach the end
//! of its plan.
//!
//! Steps 1–2 evaluate a plan left to right, so a filter near the *end* of the plan
//! (`({test = 'pos'})` closes Q9–Q12 and RECUR) prunes nothing until every hop before
//! it has fanned out.  This module walks the plan once in the opposite direction: one
//! dense scan of the relation the last selective filter applies to, then sparse
//! propagation through the adjacency indexes read in reverse, leaving one [`RowMask`]
//! wherever the forward pass *chooses* a row — the seeds, the rows a hop lands on, the
//! rows a shift lands on, and inside a closure body the rows each hop and shift of it
//! lands on.  The forward pass tests the bit before it reads the row.
//!
//! A mask is a sound over-approximation, so it never removes a match that would have
//! survived — chains are the same, in the same order, with and without it:
//!
//! * a cursor's interval always lies inside the interval of the row it sits on, so
//!   two rows whose intervals are disjoint cannot be joined by any cursor;
//! * a filter is row-level: [`ObjFilter::matches_row`] reads the row alone, and a
//!   [`ObjFilter::clamp_interval`] that leaves nothing of the row's interval leaves
//!   nothing of any interval inside it;
//! * a shift is row-level too: a row `s` is kept only if the arrival window of its
//!   whole interval, [`Shift::arrival_from_interval`] within the existence interval
//!   that holds it, meets a viable row of the same object — the window of any cursor
//!   on `s` lies inside that one, it respects the direction and the bounds, and it
//!   never crosses an existence gap.  (The first version marked every row of an
//!   object with a viable row: 53 % of a G2 graph's person rows, and walking RECUR
//!   back through it bought 0 %, 1918 → 1909 ms over `closure-g2`'s 24 graphs.)
//! * a closure is walked back as the least fixpoint `V = M ∪ pre_body(V)` over row
//!   bitsets, `M` the rows after it: semi-naive, a row enters each body step's delta
//!   at most once, and the rows every body hop and shift lands on are kept as that
//!   step's mask.  `V` is backward-closed at row granularity — every state a viable
//!   state is derived from sits on a viable row — so the states the forward fixpoint
//!   no longer derives are exactly those on rows that lead nowhere; its semi-naive
//!   subtraction per `(source, row)` and its canonical emission see the same states
//!   on every viable row as before.  `[n, m]` windows are ignored, which only makes
//!   `V` looser;
//! * everything after the last selective filter is left unconstrained;
//! * the pass only follows the indexes, which hold no tombstoned row, and its one
//!   dense scan skips dead rows.
//!
//! Masks are all or nothing: a pass that starts walks back to the seeds, and its cost
//! is bounded by the graph — a row crosses each plan step at most once.  Nothing here
//! is kept: the executor builds the masks of one plan inside one `run_plan_seeded`
//! call, under the scan limit its gate sets, and drops them with it.

use tgraph::{Interval, Object};

use crate::plan::{
    ClosureOp, ClosureStep, EnginePlan, HopDirection, MicroOp, ObjFilter, Shift, TemporalLink,
};
use crate::relations::GraphRelations;

/// A set of physical row indices of one relation, one bit per row.  Which relation
/// is known from where the mask is consulted: hops alternate between node and edge
/// rows, and every closure body the pass walks through makes an even number of them.
#[derive(Debug, Clone)]
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

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// Adds the rows of `other`, a mask of the same relation.
    fn insert_all(&mut self, other: &RowMask) {
        self.words.iter_mut().zip(&other.words).for_each(|(word, other)| *word |= other);
    }

    /// Removes the rows of `other`, a mask of the same relation.
    fn remove_all(&mut self, other: &RowMask) {
        self.words.iter_mut().zip(&other.words).for_each(|(word, other)| *word &= !other);
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

/// The masks of one closure: the rows it may emit a state onto, and per step of
/// each body alternative the rows that step may land on.
#[derive(Debug)]
pub struct ClosureMasks {
    exit: RowMask,
    steps: Vec<Vec<Option<RowMask>>>,
}

impl ClosureMasks {
    /// The rows after the closure from which the plan can still end.
    pub fn exit(&self) -> &RowMask {
        &self.exit
    }

    /// Per step of the body alternative at `index`, the rows it may land on: `Some`
    /// for hops and shifts, `None` for filters.
    pub fn steps(&self, index: usize) -> &[Option<RowMask>] {
        &self.steps[index]
    }
}

/// What the walk left where a plan step chooses rows.
#[derive(Debug)]
enum StepMasks {
    /// The rows a seed, a hop or a shift may choose.
    Rows(RowMask),
    /// The masks of a closure.
    Closure(ClosureMasks),
}

impl StepMasks {
    fn rows(&self) -> Option<&RowMask> {
        match self {
            StepMasks::Rows(mask) => Some(mask),
            StepMasks::Closure(_) => None,
        }
    }

    fn closure(&self) -> Option<&ClosureMasks> {
        match self {
            StepMasks::Closure(masks) => Some(masks),
            StepMasks::Rows(_) => None,
        }
    }
}

/// The masks of one segment: how a match may enter it, and where each of its hops
/// and closures may take it.  `None` means unconstrained.
#[derive(Debug)]
pub struct SegmentMasks {
    entry: Option<StepMasks>,
    ops: Vec<Option<StepMasks>>,
}

impl SegmentMasks {
    /// The rows a match may start the segment on: seed rows for the first segment,
    /// the rows a shift lands on for the others.
    pub fn entry(&self) -> Option<&RowMask> {
        self.entry.as_ref().and_then(StepMasks::rows)
    }

    /// The masks of the closure link that enters the segment.
    pub fn entry_closure(&self) -> Option<&ClosureMasks> {
        self.entry.as_ref().and_then(StepMasks::closure)
    }

    /// The rows the hop at `op` (an index into [`crate::plan::Segment::ops`]) may
    /// land on.
    pub fn landing(&self, op: usize) -> Option<&RowMask> {
        self.ops[op].as_ref().and_then(StepMasks::rows)
    }

    /// The masks of the closure at `op`.
    pub fn closure(&self, op: usize) -> Option<&ClosureMasks> {
        self.ops[op].as_ref().and_then(StepMasks::closure)
    }
}

/// The outcome of one backward pass over a plan.
#[derive(Debug)]
pub(crate) struct Viability {
    segments: Vec<SegmentMasks>,
    /// Row indices the pass looked at: the live rows of its dense scan plus every
    /// set bit it reversed and every adjacent row it tested.
    pub(crate) rows_visited: usize,
}

impl Viability {
    /// Walks `plan` backwards from its last selective filter — the *anchor* — to its
    /// seeds, leaving a mask at every step.  `Err` carries the rows visited when the
    /// pass builds nothing:
    ///
    /// * `Err(0)`, reading no row, when the plan has no filter that selects rows, a
    ///   closure body that does not return to the kind of row it started on or that
    ///   nests another closure, or an anchor whose relation has more than
    ///   `scan_limit` live rows;
    /// * `Err(live)`, after the dense scan of those `live` rows, when the anchor keeps
    ///   more than half of them ([`anchor_is_selective`]).
    pub(crate) fn build(
        plan: &EnginePlan,
        graph: &GraphRelations,
        scan_limit: usize,
    ) -> Result<Self, usize> {
        if !plan.closures().all(keeps_row_kind) {
            return Err(0);
        }
        let mut segments: Vec<SegmentMasks> = plan
            .segments
            .iter()
            .map(|segment| SegmentMasks {
                entry: None,
                ops: segment.ops.iter().map(|_| None).collect(),
            })
            .collect();
        let mut pass = Pass { graph, visited: 0 };
        // Seeds are node rows and only a hop outside a closure changes the kind of
        // row under the cursor.
        let mut on_nodes = plan.hop_count() % 2 == 0;
        // The rows a match may sit on before the step last walked over; `None`
        // until the walk meets the filter it anchors on.
        let mut current: Option<RowMask> = None;
        for (index, segment) in plan.segments.iter().enumerate().rev() {
            for (op_index, op) in segment.ops.iter().enumerate().rev() {
                let slot = &mut segments[index].ops[op_index];
                match op {
                    MicroOp::Bind(_) => {}
                    MicroOp::Filter(filter) => match &mut current {
                        Some(mask) => pass.filter(mask, filter, on_nodes),
                        None if selects_rows(filter) => {
                            current = Some(pass.scan(filter, on_nodes, scan_limit)?);
                        }
                        None => {}
                    },
                    MicroOp::Hop(direction) => {
                        let landed_on_nodes = on_nodes;
                        on_nodes = !on_nodes;
                        if let Some(landing) = current.take() {
                            current = Some(pass.reverse_hop(&landing, *direction, landed_on_nodes));
                            *slot = Some(StepMasks::Rows(landing));
                        }
                    }
                    MicroOp::Closure(closure) => {
                        if let Some(after) = current.take() {
                            let (before, masks) = pass.reverse_closure(closure, after, on_nodes);
                            current = Some(before);
                            *slot = Some(StepMasks::Closure(masks));
                        }
                    }
                }
            }
            if index == 0 {
                break;
            }
            let Some(entry) = current.take() else { continue };
            let (before, masks) = match &plan.links[index - 1] {
                TemporalLink::Shift(shift) => {
                    (pass.reverse_shift(&entry, shift, on_nodes), StepMasks::Rows(entry))
                }
                TemporalLink::Closure(closure) => {
                    let (before, masks) = pass.reverse_closure(closure, entry, on_nodes);
                    (before, StepMasks::Closure(masks))
                }
            };
            segments[index].entry = Some(masks);
            current = Some(before);
        }
        segments[0].entry = Some(StepMasks::Rows(current.ok_or(0usize)?));
        Ok(Viability { segments, rows_visited: pass.visited })
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

/// True if the anchor keeps at most half of its relation's `live` rows, the rule
/// that admits masks for every plan.  A mask removes only rows from which the anchor
/// cannot be reached, and the rows the anchor keeps are viable by definition, so an
/// anchor that keeps most rows cannot remove most of the work — while the backward
/// pass reads every row it keeps through the same indexes as the forward pass.
fn anchor_is_selective(kept: usize, live: usize) -> bool {
    2 * kept <= live
}

/// True if every alternative of the body ends on the kind of row it started on —
/// an even number of hops — and nests no closure, so the walk knows which relation
/// each of its steps sits on.
fn keeps_row_kind(closure: &ClosureOp) -> bool {
    closure.alternatives.iter().all(|steps| {
        let hops = steps.iter().filter(|step| matches!(step, ClosureStep::Micro(MicroOp::Hop(_))));
        let nested =
            steps.iter().any(|step| matches!(step, ClosureStep::Micro(MicroOp::Closure(_))));
        !nested && hops.count() % 2 == 0
    })
}

/// One backward walk: the graph, and the rows it visited.
struct Pass<'a> {
    graph: &'a GraphRelations,
    visited: usize,
}

impl Pass<'_> {
    /// Counts `rows` visits.
    fn charge(&mut self, rows: usize) {
        self.visited += rows;
    }

    /// An empty mask of the node or the edge relation.
    fn empty(&self, on_nodes: bool) -> RowMask {
        RowMask::empty(self.relation_len(on_nodes))
    }

    /// The number of rows, live or dead, of the node or the edge relation.
    fn relation_len(&self, on_nodes: bool) -> usize {
        if on_nodes {
            self.graph.node_rows().len()
        } else {
            self.graph.edge_rows().len()
        }
    }

    /// The object a row describes and the interval it describes it over.
    fn row(&self, on_nodes: bool, row: u32) -> (Object, Interval) {
        if on_nodes {
            let row = &self.graph.node_rows()[row as usize];
            (Object::Node(row.node), row.interval)
        } else {
            let row = &self.graph.edge_rows()[row as usize];
            (Object::Edge(row.edge), row.interval)
        }
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
    /// `filter`.  `Err(0)`, reading nothing, if the relation has more than
    /// `scan_limit` live rows; `Err(live)` if the filter keeps more than half of them.
    fn scan(
        &mut self,
        filter: &ObjFilter,
        on_nodes: bool,
        scan_limit: usize,
    ) -> Result<RowMask, usize> {
        let stats = self.graph.stats();
        let live = if on_nodes { stats.temporal_nodes } else { stats.temporal_edges };
        if live > scan_limit {
            return Err(0);
        }
        self.charge(live);
        let rows = self.relation_len(on_nodes);
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
        if anchor_is_selective(mask.len(), live) {
            Ok(mask)
        } else {
            Err(live)
        }
    }

    /// Walks back over a filter: the rows of `mask` that pass it.
    fn filter(&mut self, mask: &mut RowMask, filter: &ObjFilter, on_nodes: bool) {
        self.charge(mask.len());
        mask.retain(|row| self.accepts(filter, on_nodes, row));
    }

    /// Walks back over a hop: the rows from which the hop reaches a row of `landing`
    /// at a time both rows exist.  A forward hop node → edge came from a row of the
    /// edge's source and edge → node from an edge whose target the node is; a
    /// backward hop swaps the endpoints.
    fn reverse_hop(
        &mut self,
        landing: &RowMask,
        direction: HopDirection,
        landed_on_nodes: bool,
    ) -> RowMask {
        let graph = self.graph;
        let (node_rows, edge_rows) = (graph.node_rows(), graph.edge_rows());
        let forward = direction == HopDirection::Forward;
        let mut from = self.empty(!landed_on_nodes);
        if landed_on_nodes {
            for row in landing.rows() {
                let node = &node_rows[row as usize];
                let adjacent = if forward {
                    graph.in_edge_rows(node.node)
                } else {
                    graph.out_edge_rows(node.node)
                };
                self.charge(1 + adjacent.len());
                for &edge in adjacent {
                    if !from.contains(edge)
                        && edge_rows[edge as usize].interval.overlaps(&node.interval)
                    {
                        from.insert(edge);
                    }
                }
            }
        } else {
            for row in landing.rows() {
                let edge = &edge_rows[row as usize];
                let states = graph.rows_of_node(if forward { edge.src } else { edge.tgt });
                self.charge(1 + states.len());
                for &node in states {
                    if !from.contains(node)
                        && node_rows[node as usize].interval.overlaps(&edge.interval)
                    {
                        from.insert(node);
                    }
                }
            }
        }
        from
    }

    /// Walks back over a shift: the rows of the same object from which `shift`
    /// arrives, within the existence interval that holds the row, at a time some row
    /// of `landing` covers.
    fn reverse_shift(&mut self, landing: &RowMask, shift: &Shift, on_nodes: bool) -> RowMask {
        let graph = self.graph;
        let mut from = self.empty(on_nodes);
        for row in landing.rows() {
            let (object, target) = self.row(on_nodes, row);
            let states = match object {
                Object::Node(node) => graph.rows_of_node(node),
                Object::Edge(edge) => graph.rows_of_edge(edge),
            };
            self.charge(1 + states.len());
            for &state in states {
                if from.contains(state) {
                    continue;
                }
                let (_, departure) = self.row(on_nodes, state);
                let arrives = graph
                    .existence_interval_at(object, departure.start())
                    .and_then(|within| shift.arrival_from_interval(departure, within))
                    .is_some_and(|arrival| arrival.overlaps(&target));
                if arrives {
                    from.insert(state);
                }
            }
        }
        from
    }

    /// Walks back over a closure that may emit onto the rows of `after`: the least
    /// fixpoint `V = after ∪ pre_body(V)`, with `pre_body` the union over the body's
    /// alternatives of their steps reversed right to left.  Semi-naive: every step
    /// keeps the rows already reversed across it and reverses only the new ones, so
    /// a row crosses each step at most once and the work is bounded by the graph,
    /// whatever the window.  Returns `V` and the masks: `after` as the exit, and what
    /// crossed each hop and shift as the rows it may land on.
    fn reverse_closure(
        &mut self,
        closure: &ClosureOp,
        after: RowMask,
        on_nodes: bool,
    ) -> (RowMask, ClosureMasks) {
        // Per alternative and step, the rows after the step already reversed.
        let mut crossed: Vec<Vec<RowMask>> = closure
            .alternatives
            .iter()
            .map(|steps| {
                let mut kind = on_nodes;
                let mut masks: Vec<RowMask> = steps
                    .iter()
                    .rev()
                    .map(|step| {
                        let mask = self.empty(kind);
                        kind ^= matches!(step, ClosureStep::Micro(MicroOp::Hop(_)));
                        mask
                    })
                    .collect();
                masks.reverse();
                masks
            })
            .collect();
        let mut viable = after.clone();
        let mut delta = after.clone();
        while !delta.is_empty() {
            let mut found = self.empty(on_nodes);
            for (steps, crossed) in closure.alternatives.iter().zip(&mut crossed) {
                let mut rows = delta.clone();
                let mut kind = on_nodes;
                for (step, crossed) in steps.iter().zip(crossed).rev() {
                    rows.remove_all(crossed);
                    if rows.is_empty() {
                        break;
                    }
                    crossed.insert_all(&rows);
                    match step {
                        ClosureStep::Micro(MicroOp::Filter(filter)) => {
                            self.filter(&mut rows, filter, kind)
                        }
                        ClosureStep::Micro(MicroOp::Hop(direction)) => {
                            rows = self.reverse_hop(&rows, *direction, kind);
                            kind = !kind;
                        }
                        ClosureStep::Shift(shift) => rows = self.reverse_shift(&rows, shift, kind),
                        // Bodies bind nothing, and nested closures were refused.
                        ClosureStep::Micro(MicroOp::Bind(_) | MicroOp::Closure(_)) => {}
                    }
                }
                found.insert_all(&rows);
            }
            found.remove_all(&viable);
            viable.insert_all(&found);
            delta = found;
        }
        let steps = closure
            .alternatives
            .iter()
            .zip(crossed)
            .map(|(steps, crossed)| {
                steps
                    .iter()
                    .zip(crossed)
                    .map(|(step, crossed)| match step {
                        ClosureStep::Micro(MicroOp::Hop(_)) | ClosureStep::Shift(_) => {
                            Some(crossed)
                        }
                        ClosureStep::Micro(_) => None,
                    })
                    .collect()
            })
            .collect();
        (viable, ClosureMasks { exit: after, steps })
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
        Viability::build(plan, graph, usize::MAX).expect("the plan has a selective anchor")
    }

    #[test]
    fn a_shift_stays_on_its_object_and_hops_reverse_to_the_right_endpoint() {
        let graph = GraphRelations::from_itpg(&contacts());
        // Segment 0 is [filter, bind x, FWD, :meets, FWD], segment 1 the end filter.
        let forward = build_all(&plan(Q9), &graph);
        let end = forward.segment(1).entry().expect("the scanned mask");
        assert_eq!(node_rows_named(&graph, end), [("bob".to_owned(), iv(8, 10))]);
        // Back over NEXT*: the rows of bob from which NEXT* arrives during the
        // positive one — both, since bob exists throughout — and of nobody else; m1
        // exists during the first of them only, which is enough.
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
            assert!(!mask.is_empty());
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
        let early =
            plan("MATCH (x:Person)-[:meets]->(y:Person {risk = 'low' AND time < '8'}) ON g");
        let built = build_all(&early, &graph);
        // Segment ops: [filter x, bind, FWD, filter :meets, FWD, filter y, bind].
        let end = node_rows_named(&graph, built.segment(0).landing(4).expect("edge → node"));
        assert!(end.contains(&("bob".to_owned(), iv(1, 7))));
        assert!(!end.contains(&("bob".to_owned(), iv(8, 10))), "[8, 10] clamps to nothing");
        assert_eq!(end.len(), 2, "one row per low-risk person: {end:?}");
        // A filter further back clamps the same way: no meeting exists before 2.
        let never = plan("MATCH (x:Person)-[:meets {time < '2'}]->(y:Person {risk = 'low'}) ON g");
        let built = build_all(&never, &graph);
        assert_eq!(built.segment(0).landing(2).map(RowMask::len), Some(0));
        assert_eq!(built.segment(0).entry().map(RowMask::len), Some(0));
    }

    #[test]
    fn plans_yield_masks_through_closures_and_without_an_anchor_none() {
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
        assert_eq!(Viability::build(&unselective, &graph, usize::MAX).err(), Some(0));
        // Filters that select nothing after the anchor do not hide it.
        let mut anchored = unselective.clone();
        anchored.segments[0].ops[2] =
            MicroOp::Filter(ObjFilter { label: Some("visits".into()), ..Default::default() });
        let built = build_all(&anchored, &graph);
        assert_eq!(edge_rows_named(&graph, built.segment(0).landing(1).unwrap()), ["v1"]);
        assert!(built.segment(0).landing(3).is_none(), "unconstrained past the anchor");

        // Through a structural closure: bob is positive only after every meeting,
        // so nothing reaches him, and the body's hops keep what they crossed.
        let star =
            plan("MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-({test = 'pos'}) ON g");
        let built = build_all(&star, &graph);
        // Segment ops: [filter x, bind, closure, filter pos].
        let masks = built.segment(0).closure(2).expect("the closure has masks");
        assert_eq!(node_rows_named(&graph, masks.exit()), [("bob".to_owned(), iv(8, 10))]);
        let body = masks.steps(0);
        assert_eq!(
            node_rows_named(&graph, body[2].as_ref().unwrap()),
            [("bob".to_owned(), iv(8, 10))]
        );
        assert_eq!(body[0].as_ref().map(RowMask::len), Some(0), "no meeting while bob is positive");
        assert!(body[1].is_none(), "filters have no landing masks");
        assert_eq!(built.segment(0).entry().map(RowMask::len), Some(0));

        // Through a time-aware closure: RECUR.  The positive row, then the rows NEXT*
        // reaches it from, then everything a chain of meetings reaches those from.
        let recur = plan(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON g",
        );
        let built = build_all(&recur, &graph);
        let end = built.segment(2).entry().expect("the scanned mask");
        assert_eq!(node_rows_named(&graph, end), [("bob".to_owned(), iv(8, 10))]);
        let masks = built.segment(1).entry_closure().expect("the closure link has masks");
        let bob = [("bob".to_owned(), iv(1, 7)), ("bob".to_owned(), iv(8, 10))];
        assert_eq!(node_rows_named(&graph, masks.exit()), bob);
        // Body [FWD, :meets, FWD, NEXT]: bob ← m1 ← ann ← m3 ← dee ← m4 ← bob.
        let body = masks.steps(0);
        let viable = [
            ("ann".to_owned(), iv(1, 10)),
            ("bob".to_owned(), iv(1, 7)),
            ("bob".to_owned(), iv(8, 10)),
            ("dee".to_owned(), iv(1, 10)),
        ];
        assert_eq!(node_rows_named(&graph, body[3].as_ref().unwrap()), viable);
        assert_eq!(node_rows_named(&graph, body[2].as_ref().unwrap()), viable);
        assert_eq!(edge_rows_named(&graph, body[0].as_ref().unwrap()), ["m1", "m3", "m4"]);
        assert!(body[1].is_none());
        let seeds = built.segment(0).entry().expect("complete");
        assert_eq!(
            node_rows_named(&graph, seeds),
            [("ann".to_owned(), iv(1, 10)), ("dee".to_owned(), iv(1, 10))]
        );

        // REACH ends on `(y:Person)`: five of the six node rows.  The scan is all
        // the pass reads.
        let reach = plan("MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON g");
        let live = graph.stats().temporal_nodes;
        assert_eq!(Viability::build(&reach, &graph, usize::MAX).err(), Some(live));

        // A body that ends on the other kind of row, or nests a closure, leaves the
        // walk not knowing which relation it is on.
        for text in [
            "MATCH (x:Person {risk = 'high'})-/FWD*/-({test = 'pos'}) ON g",
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD + FWD)*/-({test = 'pos'}) ON g",
            "MATCH (x:Person {risk = 'high'})-/((FWD/:meets/FWD)*/NEXT)*/-({test = 'pos'}) ON g",
        ] {
            let fixpoint = plan(text);
            assert!(fixpoint.has_fixpoint(), "{text}");
            assert_eq!(Viability::build(&fixpoint, &graph, usize::MAX).err(), Some(0), "{text}");
        }
    }

    /// Eve exists on [1, 5] and again on [10, 30]: high-risk until 14, positive on
    /// [20, 22], on ward `a` from 27 — six rows, [1, 5], [10, 14], [15, 19],
    /// [20, 22], [23, 26] and [27, 30].
    fn stays() -> Itpg {
        let mut b = ItpgBuilder::new();
        let eve = b.add_node("eve", "Person").unwrap();
        b.add_existence(eve, iv(1, 5)).unwrap();
        b.add_existence(eve, iv(10, 30)).unwrap();
        for (during, risk) in [(iv(1, 5), "high"), (iv(10, 14), "high"), (iv(15, 30), "low")] {
            b.set_property(eve, "risk", risk, during).unwrap();
        }
        b.set_property(eve, "test", "pos", iv(20, 22)).unwrap();
        b.set_property(eve, "ward", "a", iv(27, 30)).unwrap();
        b.domain(iv(1, 30)).build().unwrap()
    }

    /// The start intervals of the seed rows `text` may start from.
    fn seeds_of(graph: &GraphRelations, text: &str) -> Vec<Interval> {
        let built = build_all(&plan(text), graph);
        node_rows_named(graph, built.segment(0).entry().unwrap())
            .into_iter()
            .map(|(_, iv)| iv)
            .collect()
    }

    #[test]
    fn a_shift_reverses_row_by_row_within_one_stay() {
        let mut itpg = stays();
        let mut graph = GraphRelations::from_itpg(&itpg);
        assert_eq!(graph.stats().temporal_nodes, 6);
        let check = |graph: &GraphRelations| {
            // NEXT* reaches [20, 22] from the rows of the second stay up to it: not
            // from the first stay, and not from after it.
            let star = seeds_of(graph, "MATCH (x:Person)-/NEXT*/-({test = 'pos'}) ON g");
            assert_eq!(star, [iv(10, 14), iv(15, 19), iv(20, 22)]);
            // NEXT arrives one step later: [10, 14] arrives on [11, 15] at the latest.
            let next = seeds_of(graph, "MATCH (x:Person)-/NEXT/-({test = 'pos'}) ON g");
            assert_eq!(next, [iv(15, 19), iv(20, 22)]);
            // PREV[0, 12] back to a high-risk row: [27, 30] is 13 steps from [10, 14].
            let prev = seeds_of(graph, "MATCH (x:Person)-/PREV[0,12]/-({risk = 'high'}) ON g");
            assert_eq!(prev, [iv(1, 5), iv(10, 14), iv(15, 19), iv(20, 22), iv(23, 26)]);
        };
        check(&graph);
        // A delta touching eve kills her six rows in place and appends six new ones:
        // the masks name only the new ones.
        let dead: Vec<u32> = (0..6).collect();
        let mut batch = Batch::new(1);
        batch.set_property("eve", "name", "Eve", iv(1, 5));
        let applied = itpg.apply_batch(&batch).unwrap();
        graph.apply_delta(&itpg, &applied.touched);
        assert!(dead.iter().all(|&row| !graph.is_node_row_live(row)));
        check(&graph);
        let q = plan("MATCH (x:Person)-/PREV[0,12]/-({risk = 'high'}) ON g");
        let built = build_all(&q, &graph);
        for mask in [built.segment(0).entry(), built.segment(1).entry()] {
            assert!(mask.unwrap().rows().all(|row| graph.is_node_row_live(row)));
        }
    }

    #[test]
    fn the_scan_limit_admits_an_anchor_relation_of_at_most_that_many_live_rows() {
        let graph = GraphRelations::from_itpg(&contacts());
        let q9 = plan(Q9);
        // In plan order.
        let masks = |v: &Viability| -> [Vec<u32>; 4] {
            let first = v.segment(0);
            [first.entry(), first.landing(2), first.landing(4), v.segment(1).entry()]
                .map(|mask| mask.expect("every step chooses under a mask").rows().collect())
        };
        let live = graph.stats().temporal_nodes;
        let refused = Viability::build(&q9, &graph, live - 1);
        assert_eq!(refused.err(), Some(0), "one live row too many, so nothing is read");
        let at_limit = Viability::build(&q9, &graph, live).expect("the scan fits");
        let unlimited = build_all(&q9, &graph);
        assert_eq!(masks(&at_limit), masks(&unlimited));
        assert_eq!(at_limit.rows_visited, unlimited.rows_visited);
        assert!(at_limit.rows_visited > live, "the walk goes on past the scan");
    }
}
