//! The interval-aware transitive-closure operators: fixpoint evaluation of
//! `(…)*` / `(…)[n,m]` over repeated sub-expressions.
//!
//! Two fixpoints live here, sharing the seed handling and the hop and filter
//! primitives of [`crate::steps::structural`]:
//!
//! **Structural closure** (`apply_closure`).  A purely structural [`ClosureOp`]
//! (hops and filters, possibly with union alternatives and nested closures) is
//! evaluated *semi-naively* (delta-driven), one start state at a time: after the
//! mandatory first `min` iterations, each round applies the body only to the
//! `(position, interval)` pairs the state discovered in the previous round, keeps only
//! the pieces its reached set does not cover yet, and feeds those — coalesced — into
//! the next round.  Because all structural micro-operations act pointwise in time —
//! filters clamp and hops intersect validity intervals — exploring a time point once,
//! at its first discovery, is sufficient; re-deriving it later can only reproduce
//! already-known results.  The time domain and the row relations are finite, so the
//! accumulated coverage grows monotonically and the loop terminates.  The body runs
//! depth-first per delta entry, with no intermediate vectors, and a derived state is
//! checked against the reached set on the spot: one slot per node row and per edge
//! row, which one executor call allocates once and keeps for every batch it runs,
//! stamped with the state's generation, so the next state starts from an empty set
//! without clearing anything (a row's coverage is one inline interval until it
//! splits into an [`IntervalSet`]).  A closure nested in the body depends on its
//! start state alone, so it runs each state once per call of the outer closure and
//! hands the result on from then on.  Coalescing each round's new pieces makes the
//! next frontier the maximal intervals of the points the round reached first,
//! whatever the order of the derivations, so the rounds a state runs and the hops
//! it makes are a function of the state.
//!
//! **Time-aware closure** ([`apply_time_closure`]).  When the repeated body mixes
//! structural and temporal navigation (`(FWD/NEXT)*`-style, [`ClosureStep::Shift`]s
//! between the hops), the start and end of the traversal sit at *different* time
//! points, so per-snapshot intervals no longer suffice.  The frontier instead tracks
//! interval-annotated reachable states — *bands* `(source, position, departure
//! interval, arrival interval, lag)` describing exactly the relation
//! `{(t, t′) | t ∈ dep, t′ ∈ cur, t′ − t ∈ lag}`.  Structural steps intersect the
//! arrival coordinate, and a shift advances it through the maximal existence interval
//! of the current object via [`Shift::arrival_from_interval`] while widening the lag
//! by the shift bounds.  Composing two such constraints is *exact*: three interval
//! constraints on a line admit a common witness whenever they pairwise intersect
//! (Helly's theorem in dimension one), so no precision is lost between hops.  The
//! semi-naive loop subtracts known coverage per `(source, position, dep, lag)` group
//! with [`IntervalSet::difference`] and coalesces arrival intervals between rounds
//! exactly like the structural fixpoint; normalisation clamps every band to its
//! satisfiable core, which bounds the state space and guarantees termination.
//!
//! `[n, m]` bounds are honoured by tracking iteration depth in both fixpoints:
//! rounds 1…n run without accumulation (reaching a state earlier than depth `n` does
//! not make it part of the result), and the semi-naive phase runs at most `m − n`
//! further rounds.  Reaching a state at its minimal depth maximises the remaining
//! iteration budget, so the semi-naive pruning stays exact even under a finite upper
//! bound.
//!
//! Both fixpoints seed once per *distinct* start state: input cursors sharing their
//! `(position, interval)` — e.g. many chains entering a closure on the same row —
//! share one run and its result, so duplicate seeds add no rounds and no
//! re-derivation.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use tgraph::{Interval, IntervalSet, Time};

use crate::chain::{Cursor, Position, TimeLag, Trail, TrailEvent};
use crate::plan::{ClosureOp, ClosureStep, MicroOp, Shift};
use crate::relations::GraphRelations;
use crate::steps::structural::{apply_op, filter_interval, hop_from, StructuralCursor};
use crate::steps::StepStats;

/// Maps each input cursor to a seed index, deduplicating cursors that share their
/// start state.  Returns the distinct `(position, interval)` seeds in ascending order
/// plus the seed index of every input cursor.
fn dedup_seeds<C: StructuralCursor>(cursors: &[C]) -> (Vec<(Position, Interval)>, Vec<u32>) {
    let key = |index: u32| {
        let cursor = &cursors[index as usize];
        (cursor.position(), cursor.interval())
    };
    let mut order: Vec<u32> = (0..cursors.len() as u32).collect();
    order.sort_unstable_by_key(|&index| key(index));
    let mut distinct: Vec<(Position, Interval)> = Vec::new();
    let mut seed_of = vec![0; cursors.len()];
    for index in order {
        if distinct.last() != Some(&key(index)) {
            distinct.push(key(index));
        }
        seed_of[index as usize] = distinct.len() as u32 - 1;
    }
    (distinct, seed_of)
}

/// Applies a purely structural closure operator to a batch of cursors, returning one
/// output cursor per reachable `(source, row, coalesced interval)` triple.  The output
/// is emitted in canonical `(input cursor, position, interval)` order, so its
/// cardinality and content are independent of the order the inner hops derive rows in.
/// `reached` is the caller's scratch, sized to `graph` at its first use and kept for
/// the next call over the same graph.
pub(crate) fn apply_closure<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    closure: &ClosureOp,
    reached: &mut Reached,
    stats: &mut StepStats,
) -> Vec<C> {
    let watch = stats.timed.then(obs::Stopwatch::start);
    let out = apply_closure_untimed(graph, cursors, closure, reached, stats);
    if let Some(watch) = watch {
        stats.closure_nanos += watch.elapsed_nanos();
    }
    out
}

fn apply_closure_untimed<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    closure: &ClosureOp,
    reached: &mut Reached,
    stats: &mut StepStats,
) -> Vec<C> {
    debug_assert!(
        !closure.is_time_crossing(),
        "time-crossing closures compile to a TemporalLink, not a segment micro-op"
    );
    let (distinct, seed_of) = dedup_seeds(&cursors);
    let mut fixpoint = Fixpoint::new(graph, closure, std::mem::take(reached));
    let mut results = Vec::new();
    let mut result_of = Vec::with_capacity(distinct.len());
    for &(position, interval) in &distinct {
        let start = results.len();
        fixpoint.run(position, interval, stats, &mut results);
        result_of.push(start..results.len());
    }
    *reached = fixpoint.reached;

    // Emit per input cursor, in input order: cursors sharing a start state share its
    // result instead of having re-derived it.
    let mut out = Vec::new();
    for (cursor, &seed) in cursors.iter().zip(&seed_of) {
        let result = &results[result_of[seed as usize].clone()];
        out.extend(result.iter().map(|&(position, interval)| cursor.moved_to(position, interval)));
    }
    out
}

/// The structural fixpoint of one closure, run one start state at a time over scratch
/// that lives at least as long as the call: the state's reached set, its frontier,
/// and the closures nested in the body.
struct Fixpoint<'a> {
    graph: &'a GraphRelations,
    closure: &'a ClosureOp,
    /// The flat index of each alternative's first step.
    first_step: Vec<usize>,
    /// The round being applied, counted from 0 at the state's seed.
    round: usize,
    /// Whether the round accumulates into `reached` (phase 2) or replaces the
    /// frontier (phase 1).
    accumulate: bool,
    reached: Reached,
    /// The round's input, coalesced and sorted by `(position, interval)`.
    frontier: Vec<(Position, Interval)>,
    /// What the round derives (phase 1), or the pieces of it not reached before
    /// (phase 2).
    next: Vec<(Position, Interval)>,
    /// Per flat step, the closure nested there, built on first use.
    nested: Vec<Option<Nested<'a>>>,
}

/// A closure nested in a body step: its fixpoint, and the result of every start
/// state it has run.  A result depends on the start state alone, so each state
/// runs once per call of the outer closure.
struct Nested<'a> {
    fixpoint: Fixpoint<'a>,
    /// Where each start state's result sits in `results`.
    seen: HashMap<(Position, Interval), Range<usize>>,
    results: Vec<(Position, Interval)>,
}

impl<'a> Fixpoint<'a> {
    fn new(graph: &'a GraphRelations, closure: &'a ClosureOp, reached: Reached) -> Self {
        let mut first_step = Vec::with_capacity(closure.alternatives.len());
        let mut steps = 0;
        for alternative in &closure.alternatives {
            first_step.push(steps);
            steps += alternative.len();
        }
        Fixpoint {
            graph,
            closure,
            first_step,
            round: 0,
            accumulate: false,
            reached,
            frontier: Vec::new(),
            next: Vec::new(),
            nested: (0..steps).map(|_| None).collect(),
        }
    }

    /// Runs the start state `(position, interval)` to its fixpoint, counting into
    /// `stats`, and appends its result to `out`, sorted by `(position, interval)`.
    fn run(
        &mut self,
        position: Position,
        interval: Interval,
        stats: &mut StepStats,
        out: &mut Vec<(Position, Interval)>,
    ) {
        let closure = self.closure;
        // An unsatisfiable indicator ([n, m] with n > m) relates nothing.  The compiler
        // normalises these away, but plans can also be built programmatically.
        if closure.max.is_some_and(|m| m < closure.min) {
            return;
        }
        self.frontier.clear();
        self.frontier.push((position, interval));
        self.round = 0;

        // Phase 1: exactly `min` applications.  Iteration depth is significant here —
        // reaching a row in fewer than `min` steps does not put it in the result — so the
        // rounds replace the frontier instead of accumulating, coalescing within each
        // depth level only.
        self.accumulate = false;
        while self.round < closure.min as usize {
            self.apply_body(stats);
            if self.frontier.is_empty() {
                stats.closure_rounds += self.round;
                return;
            }
        }

        // Phase 2: semi-naive expansion of up to `max − min` further applications.
        // `reached` is the result accumulator; the frontier holds only the coverage
        // discovered in the previous round.
        self.reached.start(self.graph);
        for &(position, interval) in &self.frontier {
            self.reached.cover(position, interval, &mut self.next);
        }
        self.accumulate = true;
        let mut remaining = closure.max.map(|m| m - closure.min);
        while !self.frontier.is_empty() && remaining != Some(0) {
            self.apply_body(stats);
            remaining = remaining.map(|r| r - 1);
        }
        stats.closure_rounds += self.round;
        self.reached.emit(out);
    }

    /// One round: every alternative of the body applied to every frontier entry.  What
    /// it derives (phase 1) or newly reaches (phase 2), coalesced, is the next
    /// frontier.  Coalescing makes the frontier a canonical function of the points
    /// derived, so every round — and every count — is independent of derivation order.
    fn apply_body(&mut self, stats: &mut StepStats) {
        self.next.clear();
        let frontier = std::mem::take(&mut self.frontier);
        for &(position, interval) in &frontier {
            for alternative in 0..self.closure.alternatives.len() {
                self.walk(alternative, 0, position, interval, stats);
            }
        }
        self.frontier = std::mem::replace(&mut self.next, frontier);
        coalesce(&mut self.frontier);
        self.round += 1;
    }

    /// Takes one state depth-first through the body alternative at `alternative`, from
    /// step `step` on: a hop fans out over the adjacency index, a filter clamps, a
    /// nested closure hands on its memoised result for the state.  What leaves the
    /// last step is derived at once — in phase 2, checked against the reached set on
    /// the spot.
    fn walk(
        &mut self,
        alternative: usize,
        step: usize,
        position: Position,
        interval: Interval,
        stats: &mut StepStats,
    ) {
        let (graph, closure) = (self.graph, self.closure);
        let Some(op) = closure.alternatives[alternative].get(step) else {
            if self.accumulate {
                self.reached.cover(position, interval, &mut self.next);
            } else {
                self.next.push((position, interval));
            }
            return;
        };
        match op {
            ClosureStep::Micro(MicroOp::Filter(filter)) => {
                if let Some(interval) = filter_interval(graph, position, interval, filter) {
                    self.walk(alternative, step + 1, position, interval, stats);
                }
            }
            ClosureStep::Micro(MicroOp::Hop(direction)) => {
                stats.hop_probes += 1;
                hop_from(
                    graph,
                    position,
                    interval,
                    *direction,
                    |_| true,
                    |position, interval| {
                        stats.hop_cursors += 1;
                        self.walk(alternative, step + 1, position, interval, stats);
                    },
                );
            }
            ClosureStep::Micro(MicroOp::Closure(inner)) => {
                // Out of its slot while the walk goes on: the walk from here only
                // reaches later steps.
                let flat = self.first_step[alternative] + step;
                let mut nested = self.nested[flat].take().unwrap_or_else(|| Nested {
                    fixpoint: Fixpoint::new(graph, inner, Reached::default()),
                    seen: HashMap::new(),
                    results: Vec::new(),
                });
                let result = match nested.seen.get(&(position, interval)) {
                    Some(result) => result.clone(),
                    None => {
                        let start = nested.results.len();
                        nested.fixpoint.run(position, interval, stats, &mut nested.results);
                        nested.seen.insert((position, interval), start..nested.results.len());
                        start..nested.results.len()
                    }
                };
                for &(position, interval) in &nested.results[result] {
                    self.walk(alternative, step + 1, position, interval, stats);
                }
                self.nested[flat] = Some(nested);
            }
            // `EnginePlan::new` refuses a binding inside a repetition: it would have
            // nowhere to be recorded.
            ClosureStep::Micro(MicroOp::Bind(_)) => {
                unreachable!("a plan binds only in its segments")
            }
            ClosureStep::Shift(_) => unreachable!("structural closures contain no temporal steps"),
        }
    }
}

/// Sorts entries by `(position, interval)` and merges the intervals of one row that
/// overlap or meet, leaving each row's maximal intervals.
fn coalesce(entries: &mut Vec<(Position, Interval)>) {
    entries.sort_unstable();
    entries.dedup_by(|(position, interval), (kept_position, kept)| {
        let merge = position == kept_position && kept.overlaps_or_meets(interval);
        if merge {
            *kept = kept.hull(interval);
        }
        merge
    });
}

/// The coverage one start state has reached: a slot per node row and per edge row,
/// current only while it carries the state's generation, so moving on to the next
/// state clears nothing.  A row covered by one interval keeps it inline; a row whose
/// coverage splits moves it into an [`IntervalSet`].  The slots are sized to the
/// graph at the first state, so an owner keeps one only while it reads one graph:
/// the executor for one call, a nested closure for one call of its outer one.
#[derive(Debug, Default)]
pub(crate) struct Reached {
    /// Node rows first, then edge rows.
    slots: Vec<Slot>,
    /// The slot of edge row 0.
    edge_base: usize,
    generation: u32,
    /// The coverage of this state's split rows, indexed by [`Slot::split`].
    split: Vec<IntervalSet>,
    /// The rows this state has reached, in discovery order.
    rows: Vec<Position>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    /// [`INLINE`] while `cover` is the row's coverage, its index in
    /// [`Reached::split`] once that has split.
    split: u32,
    cover: Interval,
}

const INLINE: u32 = u32::MAX;

impl Reached {
    /// Starts the next state's reached set.
    fn start(&mut self, graph: &GraphRelations) {
        let rows = graph.nodes().len() + graph.edges().len();
        if self.slots.is_empty() {
            self.edge_base = graph.nodes().len();
            let vacant = Slot { generation: 0, split: INLINE, cover: Interval::point(0) };
            self.slots = vec![vacant; rows];
        }
        debug_assert_eq!(self.slots.len(), rows, "scratch sized for another graph");
        if self.generation == u32::MAX {
            self.slots.iter_mut().for_each(|slot| slot.generation = 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.split.clear();
        self.rows.clear();
    }

    fn slot(&self, position: Position) -> usize {
        match position {
            Position::NodeRow(row) => row as usize,
            Position::EdgeRow(row) => self.edge_base + row as usize,
        }
    }

    /// Adds `interval` on `position` to the coverage, pushing onto `fresh` the pieces
    /// of it that were not covered yet.
    fn cover(
        &mut self,
        position: Position,
        interval: Interval,
        fresh: &mut Vec<(Position, Interval)>,
    ) {
        let index = self.slot(position);
        let slot = &mut self.slots[index];
        if slot.generation != self.generation {
            *slot = Slot { generation: self.generation, split: INLINE, cover: interval };
            self.rows.push(position);
            fresh.push((position, interval));
            return;
        }
        if slot.split == INLINE {
            let cover = slot.cover;
            if !cover.overlaps_or_meets(&interval) {
                slot.split = self.split.len() as u32;
                self.split.push(IntervalSet::from_intervals([cover, interval]));
                fresh.push((position, interval));
                return;
            }
            if interval.start() < cover.start() {
                let end = interval.end().min(cover.start() - 1);
                fresh.push((position, Interval::of(interval.start(), end)));
            }
            if interval.end() > cover.end() {
                let start = interval.start().max(cover.end() + 1);
                fresh.push((position, Interval::of(start, interval.end())));
            }
            slot.cover = cover.hull(&interval);
            return;
        }
        let set = &mut self.split[slot.split as usize];
        let covered = set.intervals();
        let pushed = fresh.len();
        // The first point of `interval` not known to be covered, if any.
        let mut from = Some(interval.start());
        for known in &covered[covered.partition_point(|known| known.end() < interval.start())..] {
            let Some(lo) = from else { break };
            if known.start() > interval.end() {
                break;
            }
            if known.start() > lo {
                fresh.push((position, Interval::of(lo, known.start() - 1)));
            }
            from = (known.end() < interval.end()).then(|| known.end() + 1);
        }
        if let Some(lo) = from {
            fresh.push((position, Interval::of(lo, interval.end())));
        }
        if fresh.len() > pushed {
            set.insert(interval);
        }
    }

    /// Appends the state's coverage, sorted by `(position, interval)`.
    fn emit(&mut self, out: &mut Vec<(Position, Interval)>) {
        self.rows.sort_unstable();
        for &position in &self.rows {
            let slot = &self.slots[self.slot(position)];
            match slot.split {
                INLINE => out.push((position, slot.cover)),
                split => out.extend(
                    self.split[split as usize].intervals().iter().map(|&cover| (position, cover)),
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------------
// The time-aware fixpoint.
// ---------------------------------------------------------------------------------

/// One state of the time-aware fixpoint: an interval-annotated reachable state
/// describing the exact relation `{(t, t′) | t ∈ dep, t′ ∈ cur, t′ − t ∈ lag}`
/// between the departure times of the seed and the arrival times on `position`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BandState {
    /// Index into the closure's distinct seed list.
    source: u32,
    /// Current row.
    position: Position,
    /// Departure times at the seed for which this traversal is possible.
    dep: Interval,
    /// Arrival times on the current row.
    cur: Interval,
    /// Admissible signed arrival − departure differences.
    lag: TimeLag,
}

impl StructuralCursor for BandState {
    fn position(&self) -> Position {
        self.position
    }

    fn interval(&self) -> Interval {
        self.cur
    }

    fn moved_to(&self, position: Position, interval: Interval) -> Self {
        BandState { position, cur: interval, ..*self }
    }

    fn with_interval(mut self, interval: Interval) -> Self {
        self.cur = interval;
        self
    }
}

/// Intersects an interval with a signed time window, treating out-of-range windows as
/// empty.
fn intersect_signed(interval: Interval, lo: i128, hi: i128) -> Option<Interval> {
    if lo > hi || hi < 0 || lo > Time::MAX as i128 {
        return None;
    }
    let window = Interval::of(lo.max(0) as Time, hi.min(Time::MAX as i128) as Time);
    interval.intersect(&window)
}

/// Clamps a band to its satisfiable core: departure times that have an admissible
/// arrival, arrival times that have an admissible departure, and lag bounds actually
/// realisable between the two.  Returns `None` if the band relates nothing.  The
/// clamping bounds every component by the graph's time domain, which makes the state
/// space finite and the fixpoint terminate.
fn normalize(mut band: BandState) -> Option<BandState> {
    loop {
        let dep = intersect_signed(
            band.dep,
            band.cur.start() as i128 - band.lag.hi,
            band.cur.end() as i128 - band.lag.lo,
        )?;
        let cur = intersect_signed(
            band.cur,
            dep.start() as i128 + band.lag.lo,
            dep.end() as i128 + band.lag.hi,
        )?;
        let lag = TimeLag {
            lo: band.lag.lo.max(cur.start() as i128 - dep.end() as i128),
            hi: band.lag.hi.min(cur.end() as i128 - dep.start() as i128),
        };
        if lag.lo > lag.hi {
            return None;
        }
        let changed = dep != band.dep || cur != band.cur || lag != band.lag;
        band.dep = dep;
        band.cur = cur;
        band.lag = lag;
        if !changed {
            return Some(band);
        }
    }
}

/// Applies a temporal shift to a band: the arrival coordinate advances through the
/// maximal existence interval of the current object (every intermediate time point
/// must exist), the lag widens by the shift bounds, and the result lands on every row
/// of the object intersecting the arrival window.
fn shift_band(graph: &GraphRelations, band: &BandState, shift: &Shift, out: &mut Vec<BandState>) {
    if shift.is_unsatisfiable() {
        return;
    }
    // Normalise *before* widening the lag: the departure window must be tightened
    // against the still-tight pre-shift lag (the exact composition of two bands
    // intersects the departures with `[cur.start − lag.hi, cur.end − lag.lo]`);
    // afterwards the information is gone.
    let Some(band) = normalize(*band) else {
        return;
    };
    let object = band.position.object(graph);
    // `cur` is contained in the current row's validity interval, which never spans an
    // existence gap, so one maximal existence interval covers every departure point.
    let Some(within) = graph.existence_interval_at(object, band.cur.start()) else {
        return;
    };
    let Some(arrival) = shift.arrival_from_interval(band.cur, within) else {
        return;
    };
    // An open-ended bound can move at most across the whole existence interval, so
    // using its span keeps the lag window exact.
    let span = (within.end() - within.start()) as i128;
    let (add_lo, add_hi) = if shift.forward {
        (shift.min as i128, shift.max.map_or(span, |m| m as i128))
    } else {
        (-shift.max.map_or(span, |m| m as i128), -(shift.min as i128))
    };
    let lag = TimeLag { lo: band.lag.lo + add_lo, hi: band.lag.hi + add_hi };
    graph.visit_rows_of(object, |position, row| {
        let Some(cur) = arrival.intersect(&row.interval) else { return };
        if let Some(next) = normalize(BandState { position, cur, lag, ..band }) {
            out.push(next);
        }
    });
}

/// Applies the step sequence of the body alternative at `alternative` to a band
/// batch.
fn apply_band_steps(
    graph: &GraphRelations,
    mut bands: Vec<BandState>,
    closure: &ClosureOp,
    alternative: usize,
    stats: &mut StepStats,
) -> Vec<BandState> {
    for step in &closure.alternatives[alternative] {
        if bands.is_empty() {
            break;
        }
        bands = match step {
            // A nested time-crossing closure runs its own band fixpoint over the
            // current states; a structural nested closure is just a micro-op.
            ClosureStep::Micro(MicroOp::Closure(inner)) if inner.is_time_crossing() => {
                run_band_fixpoint(graph, bands, inner, stats)
            }
            ClosureStep::Micro(op) => apply_op(graph, bands, op, None, stats),
            ClosureStep::Shift(shift) => {
                let mut out = Vec::new();
                for band in &bands {
                    shift_band(graph, band, shift, &mut out);
                }
                out
            }
        };
    }
    bands
}

/// One application of a time-crossing closure body: every union alternative is
/// applied to the frontier and the results are unioned and canonicalised.
fn apply_band_round(
    graph: &GraphRelations,
    mut frontier: Vec<BandState>,
    closure: &ClosureOp,
    stats: &mut StepStats,
) -> Vec<BandState> {
    stats.time_closure_rounds += 1;
    let mut produced = Vec::new();
    for index in 0..closure.alternatives.len() {
        let input = if index + 1 == closure.alternatives.len() {
            std::mem::take(&mut frontier)
        } else {
            frontier.clone()
        };
        produced.extend(apply_band_steps(graph, input, closure, index, stats));
    }
    canonicalize_bands(produced)
}

/// Canonicalises a band batch: normalises every band, groups by
/// `(source, position, dep, lag)`, coalesces the arrival intervals of each group, and
/// emits the groups in sorted order.  Merging arrival intervals of bands that share
/// their departure interval and lag is exact: the merged band relates precisely the
/// union of the merged relations.
fn canonicalize_bands(bands: Vec<BandState>) -> Vec<BandState> {
    let mut grouped: BTreeMap<(u32, Position, Interval, TimeLag), IntervalSet> = BTreeMap::new();
    for band in bands {
        let Some(band) = normalize(band) else { continue };
        grouped
            .entry((band.source, band.position, band.dep, band.lag))
            .or_default()
            .insert(band.cur);
    }
    let mut out = Vec::new();
    for ((source, position, dep, lag), set) in grouped {
        out.extend(set.intervals().iter().map(|&cur| BandState {
            source,
            position,
            dep,
            cur,
            lag,
        }));
    }
    out
}

/// One accumulated band of the `reached` map: the arrival coverage discovered so far
/// for a `(departure interval, lag)` pair.
#[derive(Debug)]
struct StoredBand {
    dep: Interval,
    lag: TimeLag,
    cur: IntervalSet,
}

/// The semi-naive band fixpoint: repeats the closure body over arbitrary input bands
/// between `min` and `max` times and returns every reachable band.  Inputs need not
/// be diagonal, so the same loop serves top-level mixed closures (seeded with
/// zero-lag bands) and nested ones (seeded with the current frontier).
fn run_band_fixpoint(
    graph: &GraphRelations,
    seeds: Vec<BandState>,
    closure: &ClosureOp,
    stats: &mut StepStats,
) -> Vec<BandState> {
    if seeds.is_empty() || closure.max.is_some_and(|m| m < closure.min) {
        return Vec::new();
    }
    let mut frontier = canonicalize_bands(seeds);

    // Phase 1: exactly `min` applications, replacing the frontier per depth level.
    for _ in 0..closure.min {
        frontier = apply_band_round(graph, frontier, closure, stats);
        if frontier.is_empty() {
            return Vec::new();
        }
    }

    // Phase 2: semi-naive expansion.  A produced band is folded into `reached` by
    // subtracting, via `IntervalSet::difference`, the arrival coverage of every
    // stored band that dominates it (wider departure window and wider lag — whose
    // relation therefore contains the overlapping pairs); only the fresh remainder
    // re-enters the loop.
    let mut reached: BTreeMap<(u32, Position), Vec<StoredBand>> = BTreeMap::new();
    for band in &frontier {
        fold_into(&mut reached, band);
    }
    let mut delta = frontier;
    let mut remaining = closure.max.map(|m| u64::from(m - closure.min));
    while !delta.is_empty() && remaining != Some(0) {
        let produced = apply_band_round(graph, delta, closure, stats);
        let mut novel = Vec::new();
        for band in produced {
            let stored = reached.entry((band.source, band.position)).or_default();
            let mut covering = IntervalSet::empty();
            for sb in stored.iter() {
                if sb.dep.contains_interval(&band.dep)
                    && sb.lag.lo <= band.lag.lo
                    && band.lag.hi <= sb.lag.hi
                {
                    covering = covering.union(&sb.cur);
                }
            }
            let fresh = IntervalSet::from_interval(band.cur).difference(&covering);
            if fresh.is_empty() {
                continue;
            }
            match stored.iter_mut().find(|sb| sb.dep == band.dep && sb.lag == band.lag) {
                Some(sb) => sb.cur = sb.cur.union(&fresh),
                None => {
                    stored.push(StoredBand { dep: band.dep, lag: band.lag, cur: fresh.clone() })
                }
            }
            novel.extend(fresh.intervals().iter().map(|&cur| BandState { cur, ..band }));
        }
        delta = novel;
        remaining = remaining.map(|r| r - 1);
    }

    // Emit in canonical order so the result is independent of derivation order.
    let mut out = Vec::new();
    for ((source, position), stored) in &reached {
        for sb in stored {
            out.extend(sb.cur.intervals().iter().map(|&cur| BandState {
                source: *source,
                position: *position,
                dep: sb.dep,
                cur,
                lag: sb.lag,
            }));
        }
    }
    out.sort_by(|a, b| {
        (a.source, a.position, a.dep, a.lag, a.cur)
            .cmp(&(b.source, b.position, b.dep, b.lag, b.cur))
    });
    out
}

fn fold_into(reached: &mut BTreeMap<(u32, Position), Vec<StoredBand>>, band: &BandState) {
    let stored = reached.entry((band.source, band.position)).or_default();
    match stored.iter_mut().find(|sb| sb.dep == band.dep && sb.lag == band.lag) {
        Some(sb) => sb.cur = sb.cur.union(&IntervalSet::from_interval(band.cur)),
        None => stored.push(StoredBand {
            dep: band.dep,
            lag: band.lag,
            cur: IntervalSet::from_interval(band.cur),
        }),
    }
}

/// Applies a time-crossing closure link to a batch of cursors: each cursor's current
/// segment ends at the departure times for which the closure admits a traversal, a
/// new segment starts on the reached row over the arrival times, and the admissible
/// time skew is recorded as a [`TimeLag`] for Step 3's point expansion — two trail
/// entries per emitted band, on top of the history the cursor shares with the
/// other bands of its seed.
pub fn apply_time_closure(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    closure: &ClosureOp,
    trail: &mut Trail,
    stats: &mut StepStats,
) -> Vec<Cursor> {
    let watch = stats.timed.then(obs::Stopwatch::start);
    let out = apply_time_closure_untimed(graph, cursors, closure, trail, stats);
    if let Some(watch) = watch {
        stats.closure_nanos += watch.elapsed_nanos();
    }
    out
}

fn apply_time_closure_untimed(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    closure: &ClosureOp,
    trail: &mut Trail,
    stats: &mut StepStats,
) -> Vec<Cursor> {
    if cursors.is_empty() || closure.max.is_some_and(|m| m < closure.min) {
        return Vec::new();
    }
    let (distinct, seed_of) = dedup_seeds(&cursors);
    let seeds: Vec<BandState> = distinct
        .iter()
        .enumerate()
        .map(|(i, &(position, interval))| BandState {
            source: i as u32,
            position,
            dep: interval,
            cur: interval,
            lag: TimeLag::zero(),
        })
        .collect();
    let bands = run_band_fixpoint(graph, seeds, closure, stats);

    let mut by_source: Vec<Vec<&BandState>> = vec![Vec::new(); distinct.len()];
    for band in &bands {
        by_source[band.source as usize].push(band);
    }
    let mut out = Vec::new();
    for (cursor, seed) in cursors.iter().zip(&seed_of) {
        for band in &by_source[*seed as usize] {
            let ended = trail.record(cursor.trail, TrailEvent::SegmentEnd(band.dep));
            let crossed = trail.record(ended, TrailEvent::Lag(band.lag));
            out.push(cursor.next_segment(crossed, band.position, band.cur));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use crate::plan::{HopDirection, MicroOp, ObjFilter};
    use tgraph::ItpgBuilder;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// A meets-chain a → b → c → d with staggered edge validity:
    /// a—b on [1,6], b—c on [4,8], c—d on [5,5].
    fn chain_graph() -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let na = b.add_node("a", "Person").unwrap();
        let nb = b.add_node("b", "Person").unwrap();
        let nc = b.add_node("c", "Person").unwrap();
        let nd = b.add_node("d", "Person").unwrap();
        let e1 = b.add_edge("e1", "meets", na, nb).unwrap();
        let e2 = b.add_edge("e2", "meets", nb, nc).unwrap();
        let e3 = b.add_edge("e3", "meets", nc, nd).unwrap();
        for n in [na, nb, nc, nd] {
            b.add_existence(n, iv(0, 9)).unwrap();
        }
        b.add_existence(e1, iv(1, 6)).unwrap();
        b.add_existence(e2, iv(4, 8)).unwrap();
        b.add_existence(e3, iv(5, 5)).unwrap();
        GraphRelations::from_itpg(&b.domain(iv(0, 9)).build().unwrap())
    }

    fn meets_hop() -> Vec<MicroOp> {
        vec![
            MicroOp::Hop(HopDirection::Forward),
            MicroOp::Filter(ObjFilter { label: Some("meets".into()), ..Default::default() }),
            MicroOp::Hop(HopDirection::Forward),
        ]
    }

    fn star() -> ClosureOp {
        ClosureOp::structural(vec![meets_hop()], 0, None)
    }

    /// `(FWD/:meets/FWD/NEXT)*`: one meets-hop followed by one step forward in time.
    fn mixed_star() -> ClosureOp {
        let mut steps: Vec<ClosureStep> = meets_hop().into_iter().map(ClosureStep::Micro).collect();
        steps.push(ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) }));
        ClosureOp { alternatives: vec![steps], min: 0, max: None }
    }

    fn row_of(graph: &GraphRelations, name: &str) -> u32 {
        graph
            .node_rows()
            .iter()
            .position(|r| graph.object_name(tgraph::Object::Node(r.node)) == name)
            .unwrap() as u32
    }

    fn reached(graph: &GraphRelations, out: &[Cursor]) -> Vec<(String, Interval)> {
        out.iter()
            .map(|c| (graph.object_name(c.position.object(graph)).to_owned(), c.interval))
            .collect()
    }

    fn run(graph: &GraphRelations, seeds: Vec<Cursor>, op: &ClosureOp) -> Vec<Cursor> {
        run_counted(graph, seeds, op, &mut StepStats::default())
    }

    fn run_counted(
        graph: &GraphRelations,
        seeds: Vec<Cursor>,
        op: &ClosureOp,
        stats: &mut StepStats,
    ) -> Vec<Cursor> {
        apply_closure(graph, seeds, op, &mut Reached::default(), stats)
    }

    /// Crosses the closure and spells the arrivals out as chains.
    fn run_time(graph: &GraphRelations, seeds: Vec<Cursor>, op: &ClosureOp) -> Vec<Chain> {
        let mut trail = Trail::default();
        let out = apply_time_closure(graph, seeds, op, &mut trail, &mut StepStats::default());
        out.iter().map(|c| trail.materialize(c)).collect()
    }

    #[test]
    fn star_reaches_transitively_with_narrowing_intervals() {
        let g = chain_graph();
        let seed = Cursor::seed(row_of(&g, "a"), &g);
        let out = run(&g, vec![seed], &star());
        // 0 steps: a on [0,9]; 1 step: b on [1,6]; 2 steps: c on [4,6]; 3: d on [5,5].
        assert_eq!(
            reached(&g, &out),
            vec![
                ("a".to_owned(), iv(0, 9)),
                ("b".to_owned(), iv(1, 6)),
                ("c".to_owned(), iv(4, 6)),
                ("d".to_owned(), iv(5, 5)),
            ]
        );
    }

    #[test]
    fn bounds_control_iteration_depth() {
        let g = chain_graph();
        let seed = || vec![Cursor::seed(row_of(&g, "a"), &g)];
        // Exactly two hops: only c, over the intersection [4,6].
        let exact2 = ClosureOp::structural(vec![meets_hop()], 2, Some(2));
        assert_eq!(reached(&g, &run(&g, seed(), &exact2)), vec![("c".to_owned(), iv(4, 6))]);
        // One to three hops: b, c and d but not the starting point.
        let one_to_three = ClosureOp::structural(vec![meets_hop()], 1, Some(3));
        assert_eq!(
            reached(&g, &run(&g, seed(), &one_to_three)),
            vec![
                ("b".to_owned(), iv(1, 6)),
                ("c".to_owned(), iv(4, 6)),
                ("d".to_owned(), iv(5, 5)),
            ]
        );
        // Zero iterations only: the identity.
        let zero = ClosureOp::structural(vec![meets_hop()], 0, Some(0));
        assert_eq!(reached(&g, &run(&g, seed(), &zero)), vec![("a".to_owned(), iv(0, 9))]);
        // Unsatisfiable bounds relate nothing.
        let unsat = ClosureOp::structural(vec![meets_hop()], 3, Some(1));
        assert!(run(&g, seed(), &unsat).is_empty());
    }

    #[test]
    fn cycles_terminate_and_coalesce_coverage() {
        // a → b → a cycle: the closure must reach the fixpoint and stop.
        let mut b = ItpgBuilder::new();
        let na = b.add_node("a", "Person").unwrap();
        let nb = b.add_node("b", "Person").unwrap();
        let e1 = b.add_edge("e1", "meets", na, nb).unwrap();
        let e2 = b.add_edge("e2", "meets", nb, na).unwrap();
        for o in [na, nb] {
            b.add_existence(o, iv(0, 9)).unwrap();
        }
        b.add_existence(e1, iv(2, 5)).unwrap();
        b.add_existence(e2, iv(4, 7)).unwrap();
        let g = GraphRelations::from_itpg(&b.domain(iv(0, 9)).build().unwrap());
        let mut stats = StepStats::default();
        let out = run_counted(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &star(), &mut stats);
        // a over its whole row (0 steps; the [4,5] round trip adds no new coverage),
        // b over the edge window [2,5].
        assert_eq!(reached(&g, &out), vec![("a".to_owned(), iv(0, 9)), ("b".to_owned(), iv(2, 5))]);
        assert!(stats.closure_rounds >= 2);
    }

    #[test]
    fn union_alternatives_expand_both_directions() {
        let g = chain_graph();
        let backward = vec![
            MicroOp::Hop(HopDirection::Backward),
            MicroOp::Filter(ObjFilter { label: Some("meets".into()), ..Default::default() }),
            MicroOp::Hop(HopDirection::Backward),
        ];
        let both = ClosureOp::structural(vec![meets_hop(), backward], 0, None);
        let out = run(&g, vec![Cursor::seed(row_of(&g, "c"), &g)], &both);
        let names: Vec<String> = reached(&g, &out).into_iter().map(|(n, _)| n).collect();
        // From c, forward reaches d, backward reaches b and then a.
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn existence_gaps_split_coverage() {
        // The edge exists on two disjoint windows; coverage of b stays split.
        let mut b = ItpgBuilder::new();
        let na = b.add_node("a", "Person").unwrap();
        let nb = b.add_node("b", "Person").unwrap();
        let e1 = b.add_edge("e1", "meets", na, nb).unwrap();
        for o in [na, nb] {
            b.add_existence(o, iv(0, 9)).unwrap();
        }
        b.add_existence(e1, iv(1, 2)).unwrap();
        b.add_existence(e1, iv(6, 7)).unwrap();
        let g = GraphRelations::from_itpg(&b.domain(iv(0, 9)).build().unwrap());
        let out = run(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &star());
        assert_eq!(
            reached(&g, &out),
            vec![
                ("a".to_owned(), iv(0, 9)),
                ("b".to_owned(), iv(1, 2)),
                ("b".to_owned(), iv(6, 7)),
            ]
        );
    }

    #[test]
    fn duplicate_seeds_share_the_fixpoint() {
        // Two chains entering the closure on the same (row, interval) must not add
        // rounds: the fixpoint is seeded once per distinct start state.
        let g = chain_graph();
        let seed = || Cursor::seed(row_of(&g, "a"), &g);
        let mut single_stats = StepStats::default();
        let single = run_counted(&g, vec![seed()], &star(), &mut single_stats);
        let mut dup_stats = StepStats::default();
        let dup = run_counted(&g, vec![seed(), seed()], &star(), &mut dup_stats);
        assert_eq!(
            single_stats.closure_rounds, dup_stats.closure_rounds,
            "duplicate seeds added fixpoint rounds"
        );
        // Both input cursors still receive the full result.
        assert_eq!(dup.len(), 2 * single.len());

        // Same for the time-aware fixpoint.
        let mut single_stats = StepStats::default();
        apply_time_closure(
            &g,
            vec![seed()],
            &mixed_star(),
            &mut Trail::default(),
            &mut single_stats,
        );
        let mut dup_stats = StepStats::default();
        let dup_seeds = vec![seed(), seed()];
        apply_time_closure(&g, dup_seeds, &mixed_star(), &mut Trail::default(), &mut dup_stats);
        assert_eq!(
            single_stats.time_closure_rounds, dup_stats.time_closure_rounds,
            "duplicate seeds added time-crossing rounds"
        );
    }

    /// `(closure_rounds, hop_cursors, hop_probes)`.
    fn counts(stats: &StepStats) -> (usize, usize, usize) {
        (stats.closure_rounds, stats.hop_cursors, stats.hop_probes)
    }

    #[test]
    fn states_of_different_depth_count_their_own_rounds() {
        // From a the body reaches b, c, d and then probes d's empty out-list: four
        // rounds, two hops a round for three of them.  From c: d, then the probe.
        let g = chain_graph();
        let seeds = vec![Cursor::seed(row_of(&g, "c"), &g), Cursor::seed(row_of(&g, "a"), &g)];
        let mut stats = StepStats::default();
        let out = run_counted(&g, seeds, &star(), &mut stats);
        assert_eq!(
            reached(&g, &out),
            vec![
                ("c".to_owned(), iv(0, 9)),
                ("d".to_owned(), iv(5, 5)),
                ("a".to_owned(), iv(0, 9)),
                ("b".to_owned(), iv(1, 6)),
                ("c".to_owned(), iv(4, 6)),
                ("d".to_owned(), iv(5, 5)),
            ]
        );
        // Rounds: 4 + 2.  Hops: 6 + 2.  Probes: two a round but one in each last.
        assert_eq!(counts(&stats), (6, 8, 10));
    }

    #[test]
    fn a_window_drops_the_states_that_die_before_it_opens() {
        // [2,3]: from c the second application finds nothing, so c drops out of the
        // result in phase 1; from a phase 1 ends on c and phase 2 adds d.
        let g = chain_graph();
        let window = ClosureOp::structural(vec![meets_hop()], 2, Some(3));
        let seeds = vec![Cursor::seed(row_of(&g, "a"), &g), Cursor::seed(row_of(&g, "c"), &g)];
        let mut stats = StepStats::default();
        let out = run_counted(&g, seeds, &window, &mut stats);
        assert_eq!(reached(&g, &out), vec![("c".to_owned(), iv(4, 6)), ("d".to_owned(), iv(5, 5))]);
        assert!(out.iter().all(|c| c.seed == row_of(&g, "a")));
        // Rounds: 3 from a, 2 from c.  Hops: 6 + 2.  Probes: 6 + 3.
        assert_eq!(counts(&stats), (5, 8, 9));
    }

    /// Persons `a`…`e` on [0,9], joined by `meets` edges `(source, target, start, end)`.
    fn meets_graph(edges: &[(&str, &str, u64, u64)]) -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let nodes: Vec<_> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|&name| {
                let node = b.add_node(name, "Person").unwrap();
                b.add_existence(node, iv(0, 9)).unwrap();
                node
            })
            .collect();
        let node = |name: &str| nodes[(name.as_bytes()[0] - b'a') as usize];
        for (index, &(src, tgt, start, end)) in edges.iter().enumerate() {
            let edge = b.add_edge(&format!("e{index}"), "meets", node(src), node(tgt)).unwrap();
            b.add_existence(edge, iv(start, end)).unwrap();
        }
        GraphRelations::from_itpg(&b.domain(iv(0, 9)).build().unwrap())
    }

    #[test]
    fn split_coverage_is_bridged_and_each_round_coalesces_what_it_reached() {
        // Round 0 reaches b in two pieces, [1,2] and [6,7].  Round 1 bridges them
        // from c (new: [0,0], [3,5], [8,9]) and reaches d in five pieces — [1,2] and
        // [6,7] from b, the rest from c — that coalesce to one [0,9].
        let g = meets_graph(&[
            ("a", "b", 1, 2),
            ("a", "b", 6, 7),
            ("a", "c", 0, 9),
            ("c", "b", 0, 9),
            ("b", "d", 0, 9),
            ("c", "d", 0, 9),
            ("d", "e", 0, 9),
        ]);
        let mut stats = StepStats::default();
        let out = run_counted(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &star(), &mut stats);
        let everyone = ["a", "b", "c", "d", "e"].map(|name| (name.to_owned(), iv(0, 9)));
        assert_eq!(reached(&g, &out), everyone);
        // Hops: 6 in round 0, 8 in round 1, then 6 from b's three new pieces and 2
        // from d's one — five uncoalesced pieces of d would make 10.  Probes, one per
        // row a hop leaves: 4, then 7, then 6 + 2, then e's.
        assert_eq!(counts(&stats), (4, 22, 20));
    }

    #[test]
    fn a_union_body_runs_its_nested_closure_once_per_state() {
        // (FWD/:meets/FWD)[1,2] + BWD/:meets/BWD, repeated, from b and from c.  From
        // b the nested closure reaches c and d, the backward hop a; the second round
        // reaches nothing new.  From c: d and b, then a, then nothing new.
        let g = chain_graph();
        let backward = vec![
            MicroOp::Hop(HopDirection::Backward),
            MicroOp::Filter(ObjFilter { label: Some("meets".into()), ..Default::default() }),
            MicroOp::Hop(HopDirection::Backward),
        ];
        let nested = MicroOp::Closure(ClosureOp::structural(vec![meets_hop()], 1, Some(2)));
        let union = ClosureOp::structural(vec![vec![nested], backward], 0, None);
        let seeds = vec![Cursor::seed(row_of(&g, "b"), &g), Cursor::seed(row_of(&g, "c"), &g)];
        let mut stats = StepStats::default();
        let out = run_counted(&g, seeds, &union, &mut stats);
        assert_eq!(
            reached(&g, &out),
            vec![
                ("a".to_owned(), iv(1, 6)),
                ("b".to_owned(), iv(0, 9)),
                ("c".to_owned(), iv(4, 8)),
                ("d".to_owned(), iv(5, 5)),
                ("a".to_owned(), iv(4, 6)),
                ("b".to_owned(), iv(4, 8)),
                ("c".to_owned(), iv(0, 9)),
                ("d".to_owned(), iv(5, 5)),
            ]
        );
        // `(rounds, hops, probes)`.  From b: the outer loop (2, 6, 7); the nested
        // closure from b (2, 4, 4), then from a (2, 4, 4), c (2, 2, 3) and d (1, 0,
        // 1).  From c: the outer loop (3, 6, 7); the nested closure from c (2, 2, 3),
        // b over [4, 8] (2, 4, 4) and a (2, 4, 4) — d's result is already known.
        assert_eq!(counts(&stats), (18, 32, 37));
    }

    #[test]
    fn mixed_closure_advances_through_time() {
        let g = chain_graph();
        let out = run_time(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &mixed_star());
        // Each iteration is one meets-hop (intersecting the edge window) followed by
        // exactly one step forward in time; the band tracks which departures at `a`
        // admit the traversal and at which (shifted) arrival times it lands.
        let summary: Vec<(String, Interval, Interval, TimeLag)> = out
            .iter()
            .map(|c| {
                (
                    g.object_name(c.position.object(&g)).to_owned(),
                    *c.seg_intervals.last().unwrap(),
                    c.interval,
                    *c.lags.last().unwrap(),
                )
            })
            .collect();
        assert!(summary.contains(&("a".to_owned(), iv(0, 9), iv(0, 9), TimeLag::zero())));
        // One meets-hop during the a—b window [1,6], then NEXT: departures [1,6],
        // arrivals [2,7], arrival − departure exactly 1.
        assert!(summary.contains(&("b".to_owned(), iv(1, 6), iv(2, 7), TimeLag { lo: 1, hi: 1 })));
        // Two hops: meet b in [1,6], step to [2,7], meet c within b—c's [4,8] (so
        // departures from a are [3,6]), step again: arrive [5,8] with lag 2.
        assert!(summary.contains(&("c".to_owned(), iv(3, 6), iv(5, 8), TimeLag { lo: 2, hi: 2 })));
        // Three hops: c—d exists only at 5, reached from departures at 3, arriving 6.
        assert!(summary.contains(&("d".to_owned(), iv(3, 3), iv(6, 6), TimeLag { lo: 3, hi: 3 })));
        assert_eq!(summary.len(), 4);
    }

    #[test]
    fn a_crossing_records_two_trail_entries_per_band() {
        let g = chain_graph();
        let mut trail = Trail::default();
        // The cursor arrives with one entry of its own, shared by its four bands.
        let mut seed = Cursor::seed(row_of(&g, "a"), &g);
        seed.bind(0, &g, &mut trail);
        let out = apply_time_closure(
            &g,
            vec![seed],
            &mixed_star(),
            &mut trail,
            &mut StepStats::default(),
        );
        assert_eq!(out.len(), 4);
        assert_eq!(trail.len(), 1 + 2 * out.len());
        for cursor in &out {
            let chain = trail.materialize(cursor);
            assert_eq!((chain.bound.len(), chain.seg_intervals.len(), chain.lags.len()), (1, 1, 1));
            assert_eq!((cursor.seed, cursor.segment), (seed.seed, 1));
        }
    }

    #[test]
    fn mixed_closure_respects_depth_bounds() {
        let g = chain_graph();
        let body = mixed_star();
        let exactly_two = ClosureOp { min: 2, max: Some(2), ..body.clone() };
        let out = run_time(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &exactly_two);
        let names: Vec<&str> = out.iter().map(|c| g.object_name(c.position.object(&g))).collect();
        assert_eq!(names, vec!["c"]);
        let unsat = ClosureOp { min: 3, max: Some(1), ..body };
        assert!(run_time(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &unsat).is_empty());
    }

    #[test]
    fn backward_mixed_closure_has_negative_lags() {
        let g = chain_graph();
        // (BWD/:meets/BWD/PREV)*: walk contact chains backwards in graph and time.
        let mut steps: Vec<ClosureStep> = vec![
            ClosureStep::Micro(MicroOp::Hop(HopDirection::Backward)),
            ClosureStep::Micro(MicroOp::Filter(ObjFilter {
                label: Some("meets".into()),
                ..Default::default()
            })),
            ClosureStep::Micro(MicroOp::Hop(HopDirection::Backward)),
        ];
        steps.push(ClosureStep::Shift(Shift { forward: false, min: 1, max: Some(1) }));
        let op = ClosureOp { alternatives: vec![steps], min: 1, max: Some(1) };
        let out = run_time(&g, vec![Cursor::seed(row_of(&g, "b"), &g)], &op);
        assert_eq!(out.len(), 1);
        let chain = &out[0];
        assert_eq!(g.object_name(chain.position.object(&g)), "a");
        // Departures on the a—b window [1,6] (b's side), arrivals one earlier [0,5].
        assert_eq!(chain.seg_intervals.last(), Some(&iv(1, 6)));
        assert_eq!(chain.interval, iv(0, 5));
        assert_eq!(chain.lags.last(), Some(&TimeLag { lo: -1, hi: -1 }));
    }

    #[test]
    fn band_normalisation_clamps_to_the_satisfiable_core() {
        let band = BandState {
            source: 0,
            position: Position::NodeRow(0),
            dep: iv(0, 10),
            cur: iv(8, 20),
            lag: TimeLag { lo: 0, hi: 5 },
        };
        let n = normalize(band).unwrap();
        // Arrivals cannot exceed dep.end + 5 = 15; departures cannot be below
        // cur.start − 5 = 3.
        assert_eq!(n.dep, iv(3, 10));
        assert_eq!(n.cur, iv(8, 15));
        assert_eq!(n.lag, TimeLag { lo: 0, hi: 5 });
        // An unsatisfiable band relates nothing.
        let dead = BandState {
            source: 0,
            position: Position::NodeRow(0),
            dep: iv(0, 1),
            cur: iv(10, 11),
            lag: TimeLag { lo: 0, hi: 2 },
        };
        assert!(normalize(dead).is_none());
    }

    #[test]
    fn covers_reaching_time_max_leave_no_piece_past_it() {
        let graph = chain_graph();
        let max = Time::MAX;
        let row = Position::NodeRow(0);
        let mut reached = Reached::default();
        let mut fresh = Vec::new();
        // One inline cover grown to `[0, MAX]`: only the uncovered head is fresh.
        reached.start(&graph);
        reached.cover(row, iv(5, max), &mut fresh);
        reached.cover(row, iv(0, max), &mut fresh);
        reached.cover(row, iv(max, max), &mut fresh);
        assert_eq!(fresh, [(row, iv(5, max)), (row, iv(0, 4))]);
        // A split cover: the gap between its pieces is fresh, nothing past `MAX`.
        fresh.clear();
        reached.start(&graph);
        reached.cover(row, iv(0, 2), &mut fresh);
        reached.cover(row, iv(10, max), &mut fresh);
        reached.cover(row, iv(0, max), &mut fresh);
        reached.cover(row, iv(1, max), &mut fresh);
        assert_eq!(fresh, [(row, iv(0, 2)), (row, iv(10, max)), (row, iv(3, 9))]);
    }
}
