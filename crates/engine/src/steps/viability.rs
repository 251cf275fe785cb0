//! Backward viability: which rows — and, past a plan's last bound variable, which
//! times — a match may sit on and still reach the end of its plan.
//!
//! Steps 1–2 evaluate a plan left to right, so a filter near the *end* of the plan
//! (`({test = 'pos'})` closes Q9–Q12 and RECUR) prunes nothing until every hop before
//! it has fanned out.  This module walks a plan in the opposite direction, in two
//! ways that share one dense scan of the relation the plan's last filter applies to.
//!
//! **The exact suffix walk** (`Viability::build_suffix`).  When anything follows a
//! plan's last [`MicroOp::Bind`] — RECUR and Q9–Q12 bind only `x` — that *existential
//! suffix* needs no forward matching at all: the answer needs only the `(row, time)`
//! points at the last bound variable from which the rest of the plan can still
//! finish, one set with no source dimension.  The walk computes it right to left as a
//! `TimeSet` — per row, sorted coalesced pieces of its interval — starting from the
//! scan of the suffix's last filter (or of the whole relation, if the suffix ends on
//! none):
//!
//! * a filter keeps the rows it matches and clamps their pieces
//!   ([`ObjFilter::clamp_interval`]);
//! * a hop reverses through the adjacency indexes, each piece intersected with the
//!   interval of the row it came from;
//! * a shift groups the pieces by object and takes their pre-image inside the maximal
//!   existence interval holding them ([`Shift::departure_into`]: `[x1 − max, x2 − min]`
//!   for `NEXT`, mirrored for `PREV`, an open bound running to the existence
//!   interval's edge), then splits it back onto the object's live rows;
//! * a closure — a segment op or a [`TemporalLink::Closure`] — is the least fixpoint
//!   `V = M ∪ pre_body(V)`, `M` the set after it: the first `min` rounds replace the
//!   set, then at most `max − min` semi-naive rounds add what is new per row.  Every
//!   step is a relation on `(row, time)` points, so breadth-first layers are exactly the
//!   depths, the argument the forward fixpoints' depth bounds rest on.
//!
//! Each step is exact on time points, so the set is exactly where the suffix can
//! finish, never an over-approximation.  The forward pass runs the plan only up to its
//! last `Bind` and cuts every cursor to the pieces of its row's set inside its interval
//! (`TimeSet::within`); Step 3 and the compact answers already treat a chain's last
//! segment as the end of the plan.  A purely structural plan therefore answers with
//! one interval row per maximal piece of the bound row rather than one per path — the
//! same snapshots.  The row-level walk below continues from the split back to the
//! seeds, anchored on the rows of the set — unless the prefix holds a closure, which
//! it does not enter: such a prefix runs unmasked.
//!
//! **The row-level walk** (`Viability::build`, for plans without fixpoints): one
//! dense scan of the relation the last selective filter applies to, then sparse
//! propagation through the adjacency indexes read in reverse, leaving one [`RowMask`]
//! wherever the forward pass *chooses* a row — the seeds, the rows a hop lands on and
//! the rows a shift lands on.  The forward pass tests the bit before it reads the row.
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
//! * everything after the last selective filter is left unconstrained;
//! * the pass only follows the indexes, which hold no tombstoned row, and its one
//!   dense scan skips dead rows.
//!
//! Masks are all or nothing: a pass that starts walks back to the seeds, and its cost
//! is bounded by the graph — a row crosses each plan step at most once.  Nothing here
//! is kept: the executor builds the masks of one plan inside one `run_plan_seeded`
//! call — for a plan with an existential suffix always, for a plan without fixpoints
//! under the scan limit its gate sets — reads them for every seed batch of the call,
//! and drops them with it.

use std::sync::atomic::Ordering;

use tgraph::{Interval, Object};

use crate::chain::Position;
use crate::plan::{
    ClosureOp, ClosureStep, EnginePlan, HopDirection, MicroOp, ObjFilter, Shift, TemporalLink,
};
use crate::relations::GraphRelations;
use crate::steps::structural::{filter_interval, hop_from};
use crate::steps::StepStats;

/// A set of physical row indices of one relation, one bit per row.  Which relation
/// is known from where the mask is consulted: hops alternate between node and edge
/// rows, and the row-level walk never enters a closure.
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

/// Per row of one relation, the time points from which a match sitting there can
/// still finish its plan: pieces `(row, interval)` sorted by `(row, start)`, the pieces
/// of a row disjoint and never adjacent, each inside its row's interval.  Sorted
/// vectors rather than a map of interval sets: the walk builds each set once per step
/// and the forward pass only looks rows up.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimeSet {
    pieces: Vec<(u32, Interval)>,
}

impl TimeSet {
    /// The set of arbitrary pieces: sorted, then coalesced per row.  The sort is
    /// stable, so two sorted runs one after the other merge in one pass.
    fn from_pieces(mut pieces: Vec<(u32, Interval)>) -> Self {
        pieces.sort_by_key(|&(row, piece)| (row, piece.start()));
        pieces.dedup_by(|(row, piece), (kept_row, kept)| {
            let joins = row == kept_row && piece.start() <= kept.end().saturating_add(1);
            if joins {
                *kept = kept.hull(piece);
            }
            joins
        });
        TimeSet { pieces }
    }

    fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// The pieces grouped by row, ascending.
    fn by_row(&self) -> impl Iterator<Item = (u32, &[(u32, Interval)])> {
        self.pieces.chunk_by(|a, b| a.0 == b.0).map(|pieces| (pieces[0].0, pieces))
    }

    /// The rows with a piece, as a mask of a relation of `rows` rows.
    fn row_mask(&self, rows: usize) -> RowMask {
        let mut mask = RowMask::empty(rows);
        for (row, _) in self.by_row() {
            mask.insert(row);
        }
        mask
    }

    fn union(&self, other: &TimeSet) -> TimeSet {
        TimeSet::from_pieces(self.pieces.iter().chain(&other.pieces).copied().collect())
    }

    /// The points of `self` not in `other`, row by row: one merge of the two sorted
    /// piece lists.
    fn difference(&self, other: &TimeSet) -> TimeSet {
        let cuts = &other.pieces;
        let mut pieces = Vec::new();
        let mut first = 0;
        for &(row, piece) in &self.pieces {
            // Skip the cuts wholly before this piece; later pieces start later.
            while first < cuts.len()
                && (cuts[first].0 < row
                    || cuts[first].0 == row && cuts[first].1.end() < piece.start())
            {
                first += 1;
            }
            // What is left of the piece starts at `start`, if anything is.
            let mut start = Some(piece.start());
            for &(_, cut) in cuts[first..]
                .iter()
                .take_while(|&&(cut_row, cut)| cut_row == row && cut.start() <= piece.end())
            {
                let Some(from) = start else { break };
                if cut.start() > from {
                    pieces.push((row, Interval::of(from, cut.start() - 1)));
                }
                start = (cut.end() < piece.end()).then(|| cut.end() + 1);
            }
            if let Some(from) = start {
                pieces.push((row, Interval::of(from, piece.end())));
            }
        }
        TimeSet { pieces }
    }

    /// The pieces of `row` inside `interval`, ascending: where a cursor on `row` over
    /// `interval` can still finish the plan.
    pub(crate) fn within(
        &self,
        row: u32,
        interval: Interval,
    ) -> impl Iterator<Item = Interval> + '_ {
        let first = self.pieces.partition_point(|&(other, piece)| {
            other < row || other == row && piece.end() < interval.start()
        });
        self.pieces[first..]
            .iter()
            .take_while(move |&&(other, piece)| other == row && piece.start() <= interval.end())
            .filter_map(move |(_, piece)| piece.intersect(&interval))
    }
}

/// The masks of one segment: how a match may enter it, and where each of its hops
/// may take it.  `None` means unconstrained.
#[derive(Debug)]
pub struct SegmentMasks {
    entry: Option<RowMask>,
    ops: Vec<Option<RowMask>>,
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
        self.ops[op].as_ref()
    }
}

/// The outcome of one backward pass over a plan.
#[derive(Debug)]
pub(crate) struct Viability {
    segments: Vec<SegmentMasks>,
    /// For a plan with an existential suffix, the exact times per row at its last
    /// `Bind` from which the suffix finishes.
    suffix: Option<TimeSet>,
    /// Row indices the pass looked at: the live rows of its dense scan plus every
    /// row or piece it reversed and every adjacent row it tested.
    pub(crate) rows_visited: usize,
}

impl Viability {
    /// Walks `plan`, which has no fixpoint, backwards from its last selective filter —
    /// the *anchor* — to its seeds, leaving a mask at every step.  `Err` carries the
    /// rows visited when the pass builds nothing:
    ///
    /// * `Err(0)`, reading no row, when the plan has no filter that selects rows, or
    ///   an anchor whose relation has more than `scan_limit` live rows;
    /// * `Err(live)`, after the dense scan of those `live` rows, when the anchor keeps
    ///   more than half of them ([`anchor_is_selective`]).
    pub(crate) fn build(
        plan: &EnginePlan,
        graph: &GraphRelations,
        scan_limit: usize,
    ) -> Result<Self, usize> {
        debug_assert!(!plan.has_fixpoint(), "the row-level walk never enters a closure");
        let steps = steps_back(plan);
        let (anchor, filter, on_nodes) = steps
            .iter()
            .enumerate()
            .find_map(|(index, back)| match back.step {
                Step::Op(_, MicroOp::Filter(filter)) if anchors(filter, back.on_nodes) => {
                    Some((index, filter, back.on_nodes))
                }
                _ => None,
            })
            .ok_or(0usize)?;
        let mut pass = Pass { graph, visited: 0 };
        let kept = pass.scan_rows(filter, on_nodes, scan_limit)?;
        let mut segments = unconstrained(plan);
        let seeds = pass.rows_back(&steps[anchor + 1..], kept, &mut segments);
        segments[0].entry = Some(seeds);
        Ok(Viability { segments, suffix: None, rows_visited: pass.visited })
    }

    /// Splits a plan with an existential suffix at its last `Bind` and walks the
    /// suffix back exactly; then, unless the rest of the plan holds a closure, walks
    /// that rest back to its seeds at row level, anchored on the rows the suffix can
    /// finish from.  Returns the prefix the forward pass runs — the plan up to and
    /// including that `Bind` — with the masks of its steps (none if it holds a
    /// closure) and the suffix's times, or `None`, reading no row, when nothing
    /// follows the last `Bind` (or the plan binds nothing), or when a closure body
    /// does not return to the kind of row it started on or nests another closure.
    ///
    /// The backward closure fixpoints count their rounds and their time in `stats`,
    /// as the forward ones do.
    pub(crate) fn build_suffix(
        plan: &EnginePlan,
        graph: &GraphRelations,
        stats: &StepStats,
    ) -> Option<(EnginePlan, Self)> {
        if !plan.closures().all(keeps_row_kind) {
            return None;
        }
        let steps = steps_back(plan);
        let (split, segment, op, on_nodes) =
            steps.iter().enumerate().find_map(|(index, back)| match back.step {
                Step::Op(op, MicroOp::Bind(_)) => Some((index, back.segment, op, back.on_nodes)),
                _ => None,
            })?;
        if split == 0 {
            return None;
        }
        let mut pass = Pass { graph, visited: 0 };
        let times = pass
            .times_back(&steps[..split], stats)
            .unwrap_or_else(|| pass.scan_times(&ObjFilter::default(), on_nodes));
        let prefix = plan.prefix(segment, op);
        let mut segments = unconstrained(plan);
        if !prefix.has_fixpoint() {
            let kept = times.row_mask(graph.row_counts(on_nodes).0);
            let seeds = pass.rows_back(&steps[split + 1..], kept, &mut segments);
            segments[0].entry = Some(seeds);
        }
        let viability = Viability { segments, suffix: Some(times), rows_visited: pass.visited };
        Some((prefix, viability))
    }

    /// The masks of the segment at `index`.
    pub(crate) fn segment(&self, index: usize) -> &SegmentMasks {
        &self.segments[index]
    }

    /// The times of an existential suffix, per row at the plan's last `Bind`.
    pub(crate) fn suffix(&self) -> Option<&TimeSet> {
        self.suffix.as_ref()
    }
}

/// No mask anywhere in `plan` yet.
fn unconstrained(plan: &EnginePlan) -> Vec<SegmentMasks> {
    plan.segments
        .iter()
        .map(|segment| SegmentMasks {
            entry: None,
            ops: segment.ops.iter().map(|_| None).collect(),
        })
        .collect()
}

/// One step of a plan as the walk meets it, right to left.
struct BackStep<'p> {
    /// The segment the step belongs to; a link belongs to the segment it enters.
    segment: usize,
    /// Whether the cursor sits on a node row just *after* the step: the kind of row
    /// a hop lands on, the kind every other step stays on.
    on_nodes: bool,
    step: Step<'p>,
}

enum Step<'p> {
    /// The op at this index of the segment.
    Op(usize, &'p MicroOp),
    /// The link entering the segment.
    Link(&'p TemporalLink),
}

/// The steps of `plan` from its last to its first.  Seeds are node rows and only a
/// hop outside a closure changes the kind of row under the cursor, given closure
/// bodies that return to the kind they started on ([`keeps_row_kind`]).
fn steps_back(plan: &EnginePlan) -> Vec<BackStep<'_>> {
    let mut steps = Vec::new();
    let mut on_nodes = plan.hop_count() % 2 == 0;
    for (segment, ops) in plan.segments.iter().enumerate().rev() {
        for (op, micro) in ops.ops.iter().enumerate().rev() {
            steps.push(BackStep { segment, on_nodes, step: Step::Op(op, micro) });
            on_nodes ^= matches!(micro, MicroOp::Hop(_));
        }
        if segment > 0 {
            steps.push(BackStep { segment, on_nodes, step: Step::Link(&plan.links[segment - 1]) });
        }
    }
    steps
}

/// True if the filter can tell two rows of one relation apart, or rejects the whole
/// relation it sits on.  Which relation a step sits on is fixed by the plan, so a
/// `require_node` that agrees with it selects nothing.
fn anchors(filter: &ObjFilter, on_nodes: bool) -> bool {
    filter.label.is_some()
        || !filter.props.is_empty()
        || !filter.time.is_empty()
        || filter.require_node.is_some_and(|node| node != on_nodes)
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
        RowMask::empty(self.graph.row_counts(on_nodes).0)
    }

    /// True if `row` is of the kind `filter` requires and carries its label and
    /// properties; the time part is [`ObjFilter::clamp_interval`]'s.
    fn matches(&self, filter: &ObjFilter, on_nodes: bool, row: u32) -> bool {
        let row = self.graph.row(Position::on(on_nodes, row));
        filter.require_node.is_none_or(|node| node == on_nodes)
            && filter.matches_row(row.label, row.props)
    }

    /// The dense scan both walks start from: every live row of the relation that
    /// passes `filter`, handed to `keep` with its clamped interval, ascending.
    fn scan(&mut self, filter: &ObjFilter, on_nodes: bool, mut keep: impl FnMut(u32, Interval)) {
        self.charge(self.graph.row_counts(on_nodes).1);
        if filter.require_node.is_some_and(|node| node != on_nodes) {
            return;
        }
        self.graph.visit_live_rows(on_nodes, |position, row| {
            if !filter.matches_row(row.label, row.props) {
                return;
            }
            if let Some(interval) = filter.clamp_interval(row.interval) {
                keep(position.row(), interval);
            }
        });
    }

    /// The row-level walk's anchor: the live rows that pass `filter`.  `Err(0)`,
    /// reading nothing, if the relation has more than `scan_limit` live rows;
    /// `Err(live)` if the filter keeps more than half of them.
    fn scan_rows(
        &mut self,
        filter: &ObjFilter,
        on_nodes: bool,
        scan_limit: usize,
    ) -> Result<RowMask, usize> {
        let live = self.graph.row_counts(on_nodes).1;
        if live > scan_limit {
            return Err(0);
        }
        let mut mask = self.empty(on_nodes);
        self.scan(filter, on_nodes, |row, _| mask.insert(row));
        if anchor_is_selective(mask.len(), live) {
            Ok(mask)
        } else {
            Err(live)
        }
    }

    /// The exact walk's start: the live rows that pass `filter`, each over its
    /// clamped interval.
    fn scan_times(&mut self, filter: &ObjFilter, on_nodes: bool) -> TimeSet {
        let mut pieces = Vec::new();
        self.scan(filter, on_nodes, |row, interval| pieces.push((row, interval)));
        TimeSet { pieces }
    }

    /// Walks back over a filter: the rows of `mask` that pass it.
    fn filter(&mut self, mask: &mut RowMask, filter: &ObjFilter, on_nodes: bool) {
        self.charge(mask.len());
        let graph = self.graph;
        mask.retain(|row| {
            let at = Position::on(on_nodes, row);
            filter_interval(graph, at, at.row_interval(graph), filter).is_some()
        });
    }

    /// Walks exactly back over a filter: the pieces of the rows that pass it, clamped.
    fn filter_times(&mut self, set: &mut TimeSet, filter: &ObjFilter, on_nodes: bool) {
        self.charge(set.pieces.len());
        let mut last: Option<(u32, bool)> = None;
        set.pieces.retain_mut(|(row, piece)| {
            let matched = match last {
                Some((seen, matched)) if seen == *row => matched,
                _ => {
                    let matched = self.matches(filter, on_nodes, *row);
                    last = Some((*row, matched));
                    matched
                }
            };
            matched && filter.clamp_interval(*piece).map(|clamped| *piece = clamped).is_some()
        });
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
        let mut from = self.empty(!landed_on_nodes);
        for row in landing.rows() {
            self.hop_back(row, direction, landed_on_nodes, |origin, _| from.insert(origin));
        }
        from
    }

    /// Calls `reach` with every row from which a `direction` hop lands on `row` (of
    /// the node relation if `landed_on_nodes`) and the time both rows exist: the hop
    /// the other way, through the adjacency [`hop_from`] reads.
    fn hop_back(
        &mut self,
        row: u32,
        direction: HopDirection,
        landed_on_nodes: bool,
        mut reach: impl FnMut(u32, Interval),
    ) {
        let (graph, at) = (self.graph, Position::on(landed_on_nodes, row));
        let back = match direction {
            HopDirection::Forward => HopDirection::Backward,
            HopDirection::Backward => HopDirection::Forward,
        };
        let land = |origin: Position, during| reach(origin.row(), during);
        self.charge(1 + hop_from(graph, at, at.row_interval(graph), back, |_| true, land));
    }

    /// Walks back over a shift: the rows of the same object from which `shift`
    /// arrives, within the existence interval that holds the row, at a time some row
    /// of `landing` covers.
    fn reverse_shift(&mut self, landing: &RowMask, shift: &Shift, on_nodes: bool) -> RowMask {
        let graph = self.graph;
        let mut from = self.empty(on_nodes);
        for row in landing.rows() {
            let landed = graph.row(Position::on(on_nodes, row));
            let (object, target) = (landed.object, landed.interval);
            let mut states = 0;
            graph.visit_rows_of(object, |state, departure| {
                states += 1;
                if from.contains(state.row()) {
                    return;
                }
                let departure = departure.interval;
                let arrives = graph
                    .existence_interval_at(object, departure.start())
                    .and_then(|within| shift.arrival_from_interval(departure, within))
                    .is_some_and(|arrival| arrival.overlaps(&target));
                if arrives {
                    from.insert(state.row());
                }
            });
            self.charge(1 + states);
        }
        from
    }

    /// Walks `steps`, which hold no closure, back at row level from `current`, the
    /// rows a match may sit on just after the first of them, leaving a mask in
    /// `segments` at every step that chooses rows; returns the rows the plan may start
    /// on.
    fn rows_back(
        &mut self,
        steps: &[BackStep<'_>],
        mut current: RowMask,
        segments: &mut [SegmentMasks],
    ) -> RowMask {
        for back in steps {
            let (masks, on_nodes) = (&mut segments[back.segment], back.on_nodes);
            match back.step {
                Step::Op(_, MicroOp::Bind(_)) => {}
                Step::Op(_, MicroOp::Filter(filter)) => self.filter(&mut current, filter, on_nodes),
                Step::Op(op, MicroOp::Hop(direction)) => {
                    let from = self.reverse_hop(&current, *direction, on_nodes);
                    masks.ops[op] = Some(std::mem::replace(&mut current, from));
                }
                Step::Link(TemporalLink::Shift(shift)) => {
                    let from = self.reverse_shift(&current, shift, on_nodes);
                    masks.entry = Some(std::mem::replace(&mut current, from));
                }
                Step::Op(_, MicroOp::Closure(_)) | Step::Link(TemporalLink::Closure(_)) => {
                    unreachable!("the row-level walk never enters a closure")
                }
            }
        }
        current
    }

    /// Walks an existential suffix — `steps`, which bind nothing — back exactly: the
    /// times, per row just before the first of them, from which the plan finishes.
    /// `None` while nothing constrains them yet: every live row over its whole
    /// interval, which a step that moves the cursor scans for before reversing.
    fn times_back(&mut self, steps: &[BackStep<'_>], stats: &StepStats) -> Option<TimeSet> {
        let mut current: Option<TimeSet> = None;
        for back in steps {
            let on_nodes = back.on_nodes;
            if let Step::Op(_, MicroOp::Filter(filter)) = back.step {
                match &mut current {
                    Some(set) => self.filter_times(set, filter, on_nodes),
                    None if anchors(filter, on_nodes) => {
                        current = Some(self.scan_times(filter, on_nodes));
                    }
                    None => {}
                }
                continue;
            }
            let after =
                current.take().unwrap_or_else(|| self.scan_times(&ObjFilter::default(), on_nodes));
            current = Some(match back.step {
                Step::Op(_, MicroOp::Hop(direction)) => {
                    self.reverse_hop_times(&after, *direction, on_nodes)
                }
                Step::Op(_, MicroOp::Closure(closure))
                | Step::Link(TemporalLink::Closure(closure)) => {
                    self.reverse_closure_times(closure, after, on_nodes, stats)
                }
                Step::Link(TemporalLink::Shift(shift)) => {
                    self.reverse_shift_times(&after, shift, on_nodes)
                }
                // Filters are walked above; a suffix binds nothing.
                Step::Op(_, MicroOp::Filter(_) | MicroOp::Bind(_)) => after,
            });
        }
        current
    }

    /// Walks exactly back over a hop: per row the hop may start on, the times at
    /// which it reaches a piece of `landing` — each piece intersected with the
    /// interval of the row it came from, through the adjacency [`Pass::reverse_hop`]
    /// reads.
    fn reverse_hop_times(
        &mut self,
        landing: &TimeSet,
        direction: HopDirection,
        landed_on_nodes: bool,
    ) -> TimeSet {
        let mut from = Vec::new();
        for (row, pieces) in landing.by_row() {
            self.hop_back(row, direction, landed_on_nodes, |origin, during| {
                from.extend(
                    pieces
                        .iter()
                        .filter_map(|(_, piece)| Some((origin, piece.intersect(&during)?))),
                );
            });
        }
        TimeSet::from_pieces(from)
    }

    /// Walks exactly back over a shift: the pieces grouped by object, their
    /// departures taken inside the maximal existence interval holding each
    /// ([`Shift::departure_into`]) — never across an existence gap — and split back
    /// onto the object's live rows.
    fn reverse_shift_times(&mut self, landing: &TimeSet, shift: &Shift, on_nodes: bool) -> TimeSet {
        let graph = self.graph;
        self.charge(landing.pieces.len());
        let mut departures: Vec<(Object, Interval)> = landing
            .pieces
            .iter()
            .filter_map(|&(row, piece)| {
                let object = graph.row(Position::on(on_nodes, row)).object;
                let within = graph.existence_interval_at(object, piece.start())?;
                Some((object, shift.departure_into(piece, within)?))
            })
            .collect();
        departures.sort_unstable_by_key(|&(object, departure)| (object, departure.start()));
        let mut from = Vec::new();
        for group in departures.chunk_by(|a, b| a.0 == b.0) {
            let mut rows = 0;
            graph.visit_rows_of(group[0].0, |position, row| {
                rows += 1;
                let during = row.interval;
                from.extend(group.iter().filter_map(|(_, departure)| {
                    Some((position.row(), departure.intersect(&during)?))
                }));
            });
            self.charge(rows);
        }
        TimeSet::from_pieces(from)
    }

    /// Walks exactly back over a closure that may emit onto `after`: the least
    /// fixpoint `V = after ∪ pre_body(V)` under the closure's depth bounds.  The first
    /// `min` rounds replace the set — a point reached in fewer iterations is not
    /// reached at depth `min` — then at most `max − min` semi-naive rounds reverse only
    /// what the previous round newly found, per row.  Breadth-first layers of a
    /// pointwise relation are its depths, so the bounded semi-naive phase is exact.
    /// Rounds count as the forward fixpoint's kind of round, time as closure time.
    fn reverse_closure_times(
        &mut self,
        closure: &ClosureOp,
        after: TimeSet,
        on_nodes: bool,
        stats: &StepStats,
    ) -> TimeSet {
        let watch = stats.timed.then(obs::Stopwatch::start);
        let rounds = if closure.is_time_crossing() {
            &stats.time_closure_rounds
        } else {
            &stats.closure_rounds
        };
        let round = |pass: &mut Self, set: &TimeSet| {
            rounds.fetch_add(1, Ordering::Relaxed);
            pass.pre_body(closure, set, on_nodes)
        };
        let viable = 'fixpoint: {
            if closure.max.is_some_and(|max| max < closure.min) {
                break 'fixpoint TimeSet::default();
            }
            let mut frontier = after;
            for _ in 0..closure.min {
                if frontier.is_empty() {
                    break 'fixpoint frontier;
                }
                frontier = round(self, &frontier);
            }
            let mut viable = frontier.clone();
            let mut delta = frontier;
            let mut remaining = closure.max.map(|max| max - closure.min);
            while !delta.is_empty() && remaining != Some(0) {
                delta = round(self, &delta).difference(&viable);
                viable = viable.union(&delta);
                remaining = remaining.map(|left| left - 1);
            }
            viable
        };
        if let Some(watch) = watch {
            stats.closure_nanos.fetch_add(watch.elapsed_nanos(), Ordering::Relaxed);
        }
        viable
    }

    /// One backward application of a closure body: the union over its alternatives
    /// of their steps walked exactly back, right to left, from `after`.
    fn pre_body(&mut self, closure: &ClosureOp, after: &TimeSet, on_nodes: bool) -> TimeSet {
        let mut found = Vec::new();
        for steps in &closure.alternatives {
            let mut set = after.clone();
            let mut kind = on_nodes;
            for step in steps.iter().rev() {
                if set.is_empty() {
                    break;
                }
                match step {
                    ClosureStep::Micro(MicroOp::Filter(filter)) => {
                        self.filter_times(&mut set, filter, kind)
                    }
                    ClosureStep::Micro(MicroOp::Hop(direction)) => {
                        set = self.reverse_hop_times(&set, *direction, kind);
                        kind = !kind;
                    }
                    ClosureStep::Shift(shift) => set = self.reverse_shift_times(&set, shift, kind),
                    // Fails identically in debug and release, as the forward
                    // evaluator does: a binding inside a repetition has nowhere
                    // to be recorded.
                    ClosureStep::Micro(MicroOp::Bind(_)) => {
                        unreachable!("the compiler places a Bind only in a segment")
                    }
                    // Nested closures were refused.
                    ClosureStep::Micro(MicroOp::Closure(_)) => {}
                }
            }
            found.extend(set.pieces);
        }
        TimeSet::from_pieces(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Segment;
    use crate::relations::DeltaStats;
    use tgraph::{Batch, EdgeId, Interval, Itpg, ItpgBuilder, NodeId};

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
        let m1 = graph.rows_of_edge(EdgeId(0)).to_vec();
        // Name bob and re-assert m1: bob's rows die in place and named ones are
        // appended, m1's row is kept.
        let mut batch = Batch::new(1);
        batch.set_property("bob", "name", "Bob", iv(1, 10)).add_existence("m1", iv(3, 3));
        let applied = itpg.apply_batch(&batch).unwrap();
        graph.apply_delta(&itpg, &applied.touched);
        assert!(dead.iter().all(|&row| !graph.is_node_row_live(row)));
        assert_eq!(graph.rows_of_edge(EdgeId(0)), m1);
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
    fn plans_yield_masks_from_an_anchor_and_none_behind_a_closure() {
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

        // A suffix behind a closure is walked back exactly, but the row-level walk
        // does not enter the closure: the prefix runs unmasked.  Ann meets bob on
        // [2, 3] and bob tests positive later.
        let behind = plan(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)[0,2]/-(w:Person)\
             -/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g",
        );
        let (prefix, built) =
            Viability::build_suffix(&behind, &graph, &StepStats::default()).expect("a suffix");
        assert!(prefix.has_fixpoint());
        let times = built.suffix().expect("the suffix's times");
        let ann = graph.rows_of_node(graph.node_rows()[0].node)[0];
        assert_eq!(times.pieces, [(ann, iv(2, 3))]);
        assert!(built.segment(0).entry().is_none(), "no seed mask behind a closure");
        assert!((0..prefix.segments[0].ops.len()).all(|op| built.segment(0).landing(op).is_none()));
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

    /// Applies a batch to `stays` and its relations that re-asserts eve's risk
    /// and test where they already hold.
    fn reassert_eve(itpg: &mut Itpg, graph: &mut GraphRelations) -> DeltaStats {
        let mut batch = Batch::new(1);
        batch.set_property("eve", "risk", "high", iv(1, 5));
        batch.set_property("eve", "test", "pos", iv(21, 22));
        let applied = itpg.apply_batch(&batch).unwrap();
        graph.apply_delta(itpg, &applied.touched)
    }

    /// Applies a batch to `stays` and its relations that names eve on both
    /// stays, which changes the state of every row of hers.
    fn name_eve(itpg: &mut Itpg, graph: &mut GraphRelations) -> DeltaStats {
        let mut batch = Batch::new(2);
        batch.set_property("eve", "name", "Eve", iv(1, 5));
        batch.set_property("eve", "name", "Eve", iv(10, 30));
        let applied = itpg.apply_batch(&batch).unwrap();
        graph.apply_delta(itpg, &applied.touched)
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
        // A delta that re-asserts eve's state touches her and changes no row.
        let dead: Vec<u32> = (0..6).collect();
        assert_eq!(reassert_eve(&mut itpg, &mut graph), DeltaStats::default());
        assert_eq!(graph.rows_of_node(NodeId(0)), dead);
        check(&graph);
        // Naming her on both stays kills her six rows in place and appends six
        // new ones: the masks name only the new ones.
        let stats = name_eve(&mut itpg, &mut graph);
        assert_eq!((stats.node_rows_retracted, stats.node_rows_added), (6, 6));
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

    #[test]
    fn time_sets_coalesce_per_row_and_subtract_row_by_row() {
        let unsorted =
            vec![(3, iv(5, 6)), (1, iv(4, 9)), (1, iv(1, 3)), (3, iv(1, 2)), (3, iv(2, 4))];
        let set = TimeSet::from_pieces(unsorted);
        assert_eq!(set.pieces, [(1, iv(1, 9)), (3, iv(1, 6))], "adjacent and overlapping merge");
        let cuts = TimeSet::from_pieces(vec![
            (1, iv(0, 1)),
            (1, iv(4, 4)),
            (1, iv(9, 12)),
            (2, iv(0, 9)),
            (3, iv(3, 3)),
        ]);
        let left = set.difference(&cuts);
        assert_eq!(left.pieces, [(1, iv(2, 3)), (1, iv(5, 8)), (3, iv(1, 2)), (3, iv(4, 6))]);
        assert!(set.difference(&set).is_empty());
        assert_eq!(left.union(&cuts).pieces, [(1, iv(0, 12)), (2, iv(0, 9)), (3, iv(1, 6))]);
        let within = |row, interval| left.within(row, interval).collect::<Vec<_>>();
        assert_eq!(within(1, iv(3, 6)), [iv(3, 3), iv(5, 6)]);
        assert_eq!(within(3, iv(0, 99)), [iv(1, 2), iv(4, 6)]);
        assert!(within(2, iv(0, 99)).is_empty() && within(1, iv(4, 4)).is_empty());
    }

    #[test]
    fn time_sets_subtract_cuts_reaching_time_max() {
        let max = tgraph::Time::MAX;
        let all = TimeSet::from_pieces(vec![(0, iv(0, max)), (1, iv(max - 1, max))]);
        let tail = TimeSet::from_pieces(vec![(0, iv(6, max)), (1, iv(max, max))]);
        assert_eq!(all.difference(&tail).pieces, [(0, iv(0, 5)), (1, iv(max - 1, max - 1))]);
        let head = TimeSet::from_pieces(vec![(0, iv(0, 6)), (1, iv(0, max - 1))]);
        assert_eq!(all.difference(&head).pieces, [(0, iv(7, max)), (1, iv(max, max))]);
        assert!(all.difference(&all).is_empty());
    }

    /// The exact times `text`'s existential suffix leaves at its last `Bind`, named by
    /// the node each row describes.
    fn times_of(graph: &GraphRelations, text: &str) -> Vec<(String, Interval)> {
        let (_, built) = Viability::build_suffix(&plan(text), graph, &StepStats::default())
            .expect("the plan has an existential suffix");
        let times = built.suffix().expect("a suffix walk leaves times");
        assert!(times.pieces.iter().all(|&(row, _)| graph.is_node_row_live(row)), "{text}");
        times
            .pieces
            .iter()
            .map(|&(row, piece)| {
                let node = graph.node_rows()[row as usize].node;
                (graph.object_name(node.into()).to_owned(), piece)
            })
            .collect()
    }

    fn eve(pieces: &[Interval]) -> Vec<(String, Interval)> {
        pieces.iter().map(|&piece| ("eve".to_owned(), piece)).collect()
    }

    #[test]
    fn an_exact_shift_takes_its_pre_image_within_one_stay() {
        let graph = GraphRelations::from_itpg(&stays());
        // NEXT* reaches [20, 22] from the second stay up to it — never across the gap
        // from the first.
        let star = times_of(&graph, "MATCH (x:Person)-/NEXT*/-({test = 'pos'}) ON g");
        assert_eq!(star, eve(&[iv(10, 14), iv(15, 19), iv(20, 22)]));
        // A bounded shift keeps pieces of rows, not whole rows.
        let near = times_of(&graph, "MATCH (x:Person)-/NEXT[0,2]/-({test = 'pos'}) ON g");
        assert_eq!(near, eve(&[iv(18, 19), iv(20, 22)]));
        let next = times_of(&graph, "MATCH (x:Person)-/NEXT/-({test = 'pos'}) ON g");
        assert_eq!(next, eve(&[iv(19, 19), iv(20, 21)]));
    }

    #[test]
    fn an_exact_prev_mirrors_next() {
        let graph = GraphRelations::from_itpg(&stays());
        // PREV[0, 12] back to high risk: the first stay from itself, the second up to
        // 14 + 12 = 26.
        let prev = times_of(&graph, "MATCH (x:Person)-/PREV[0,12]/-({risk = 'high'}) ON g");
        assert_eq!(prev, eve(&[iv(1, 5), iv(10, 14), iv(15, 19), iv(20, 22), iv(23, 26)]));
        // Exactly 13 back: [23, 27] into the second stay's high rows; reaching the
        // first stay's would need departures at 14–18, across the gap.
        let far = times_of(&graph, "MATCH (x:Person)-/PREV[13,13]/-({risk = 'high'}) ON g");
        assert_eq!(far, eve(&[iv(23, 26), iv(27, 27)]));
    }

    #[test]
    fn an_exact_hop_keeps_the_times_both_rows_exist_and_the_prefix_is_masked() {
        let graph = GraphRelations::from_itpg(&contacts());
        // Ann meets bob on [2, 3] and bob tests positive later.
        assert_eq!(times_of(&graph, Q9), [("ann".to_owned(), iv(2, 3))]);
        // Backwards, the meeting must *leave* bob: m4 to dee on [2, 4].
        let backward = Q9.replace("FWD", "BWD");
        assert_eq!(times_of(&graph, &backward), [("dee".to_owned(), iv(2, 4))]);
        // The forward pass runs `[filter x, bind x]` from ann's row only.
        let (prefix, built) =
            Viability::build_suffix(&plan(Q9), &graph, &StepStats::default()).unwrap();
        assert_eq!(prefix.segments.len(), 1);
        assert_eq!(prefix.segments[0].ops.len(), 2);
        let seeds = built.segment(0).entry().expect("the walk reaches the seeds");
        assert_eq!(node_rows_named(&graph, seeds), [("ann".to_owned(), iv(1, 10))]);
        // A plan whose last `Bind` ends it, that binds nothing, or whose closure body
        // changes row kind has no exact walk, and reads no row deciding so.
        for text in [
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON g",
            "MATCH (:Person {risk = 'high'})-/FWD/:meets/FWD/-({test = 'pos'}) ON g",
            "MATCH (x:Person {risk = 'high'})-/FWD*/-({test = 'pos'}) ON g",
        ] {
            let refused = Viability::build_suffix(&plan(text), &graph, &StepStats::default());
            assert!(refused.is_none(), "{text}");
        }
    }

    /// Persons p0 → p1 → p2 → p3 → p4 meeting throughout [0, 9], p4 positive.
    fn line() -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let all = iv(0, 9);
        let persons: Vec<_> = (0..5)
            .map(|i| {
                let node = b.add_node(&format!("p{i}"), "Person").unwrap();
                b.add_existence(node, all).unwrap();
                node
            })
            .collect();
        b.set_property(persons[4], "test", "pos", all).unwrap();
        for (i, pair) in persons.windows(2).enumerate() {
            let edge = b.add_edge(&format!("m{i}"), "meets", pair[0], pair[1]).unwrap();
            b.add_existence(edge, all).unwrap();
        }
        GraphRelations::from_itpg(&b.domain(all).build().unwrap())
    }

    #[test]
    fn an_exact_closure_honours_its_depth_window_and_counts_its_rounds() {
        let graph = line();
        let names = |text: &str| -> Vec<String> {
            times_of(&graph, text).into_iter().map(|(name, _)| name).collect()
        };
        // Two or three meetings from the positive person: not p3 (one) or p4 (none).
        let window = "MATCH (x:Person)-/(FWD/:meets/FWD)[2,3]/-({test = 'pos'}) ON g";
        assert_eq!(names(window), ["p1", "p2"]);
        let open = "MATCH (x:Person)-/(FWD/:meets/FWD)[1,_]/-({test = 'pos'}) ON g";
        assert_eq!(names(open), ["p0", "p1", "p2", "p3"]);
        // Two meetings, each followed by one step forward: from p2, ending by 9.
        let stats = StepStats::default();
        let timed = plan("MATCH (x:Person)-/(FWD/:meets/FWD/NEXT)[2,2]/-({test = 'pos'}) ON g");
        let (_, built) = Viability::build_suffix(&timed, &graph, &stats).unwrap();
        let times = built.suffix().unwrap();
        let p2 = graph.rows_of_node(graph.node_rows()[2].node)[0];
        assert_eq!(times.pieces, [(p2, iv(0, 7))]);
        // Exactly the two depth rounds, counted as the forward fixpoint's kind.
        assert_eq!(stats.time_closure_rounds.load(Ordering::Relaxed), 2);
        assert_eq!(stats.closure_rounds.load(Ordering::Relaxed), 0);
        let stats = StepStats::default();
        Viability::build_suffix(&plan(window), &graph, &stats).unwrap();
        assert!(stats.closure_rounds.load(Ordering::Relaxed) >= 2);
        assert_eq!(stats.time_closure_rounds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn exact_times_name_live_rows_only_after_a_delta() {
        let mut itpg = stays();
        let mut graph = GraphRelations::from_itpg(&itpg);
        let texts = [
            "MATCH (x:Person)-/NEXT[0,2]/-({test = 'pos'}) ON g",
            "MATCH (x:Person)-/PREV[0,12]/-({risk = 'high'}) ON g",
        ];
        let before = texts.map(|text| times_of(&graph, text));
        // Re-asserting eve's state changes no row.
        assert_eq!(reassert_eve(&mut itpg, &mut graph), DeltaStats::default());
        assert_eq!(graph.rows_of_node(NodeId(0)), [0, 1, 2, 3, 4, 5]);
        assert_eq!(texts.map(|text| times_of(&graph, text)), before);
        // Naming her, her six rows die in place and six new ones are appended;
        // the dead positive row still reads as positive through the row slice.
        name_eve(&mut itpg, &mut graph);
        assert!((0..6).all(|row| !graph.is_node_row_live(row)));
        assert!((0..6).any(|row| graph.node_rows()[row as usize].prop("test").is_some()));
        // `times_of` asserts every piece sits on a live row.
        assert_eq!(texts.map(|text| times_of(&graph, text)), before);
        let (_, built) =
            Viability::build_suffix(&plan(texts[0]), &graph, &StepStats::default()).unwrap();
        let seeds = built.segment(0).entry().unwrap();
        assert!(seeds.len() > 0 && seeds.rows().all(|row| graph.is_node_row_live(row)));
    }
}
