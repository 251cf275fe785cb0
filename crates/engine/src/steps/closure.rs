//! The interval-aware transitive-closure operators: fixpoint evaluation of
//! `(…)*` / `(…)[n,m]` over repeated sub-expressions.
//!
//! Two fixpoints live here, sharing the seed handling and the join machinery of
//! [`crate::steps::structural`]:
//!
//! **Structural closure** ([`apply_closure`]).  A purely structural [`ClosureOp`]
//! (hops and filters, possibly with union alternatives) is evaluated *semi-naively*
//! (delta-driven): after the mandatory first `min` iterations, each round applies the
//! inner pipeline only to the `(source, position, interval)` triples discovered in the
//! previous round, subtracts the coverage already reached (per source and row, as a
//! coalesced [`IntervalSet`]), and feeds only the genuinely new intervals into the
//! next round.  Because all structural micro-operations act pointwise in time —
//! filters clamp and hops intersect validity intervals — exploring a time point once,
//! at its first discovery, is sufficient; re-deriving it later can only reproduce
//! already-known results.  The time domain and the row relations are finite, so the
//! accumulated coverage grows monotonically and the loop terminates.
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
//! share one seed and one `reached` map, so duplicate seeds add no rounds and no
//! re-derivation (the per-seed-chunk duplication previously tracked in ROADMAP.md).
//!
//! Both fixpoints run under the executor's backward viability masks when the plan's
//! anchor is selective ([`crate::steps::viability`], [`ClosureMasks`]): a body hop
//! lands only on the rows its step's mask allows (`apply_round` /
//! `apply_band_steps` hand the mask to `apply_op`), a body shift likewise
//! (`shift_band`), and a reached state is emitted only onto a row of the exit mask.
//! A state on any other row has no descendant from which the plan can still end, so
//! the semi-naive loop simply never derives it; on the rows it does derive, the
//! `(source, row)` subtraction and the canonical emission order are those of the
//! unmasked run.  Nested closures run unmasked.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use tgraph::{Interval, IntervalSet, Time};

use crate::chain::{Cursor, Position, TimeLag, Trail, TrailEvent};
use crate::plan::{ClosureOp, ClosureStep, MicroOp, Shift};
use crate::relations::GraphRelations;
use crate::steps::structural::{apply_op, StructuralCursor};
use crate::steps::viability::{ClosureMasks, RowMask};
use crate::steps::StepStats;

/// Maps each input cursor to a seed index, deduplicating cursors that share their
/// start state.  Returns the distinct `(position, interval)` seeds in first-appearance
/// order plus the seed index of every input cursor.
fn dedup_seeds<C: StructuralCursor>(cursors: &[C]) -> (Vec<(Position, Interval)>, Vec<u32>) {
    let mut distinct: Vec<(Position, Interval)> = Vec::new();
    let mut index: BTreeMap<(Position, Interval), u32> = BTreeMap::new();
    let mut seed_of = Vec::with_capacity(cursors.len());
    for cursor in cursors {
        let key = (cursor.position(), cursor.interval());
        let next_id = distinct.len() as u32;
        let id = *index.entry(key).or_insert_with(|| {
            distinct.push(key);
            next_id
        });
        seed_of.push(id);
    }
    (distinct, seed_of)
}

/// One frontier entry of the structural fixpoint: the index of the distinct seed it
/// descends from, the row it sits on, and the validity interval it covers.  This is
/// the lightweight "delta" cursor the structural pipeline is driven with inside the
/// loop; the full input cursors are only touched again when the results are emitted.
#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    /// Index into the closure's distinct seed list.
    source: u32,
    /// Current row.
    position: Position,
    /// Validity interval of the partial traversal.
    interval: Interval,
}

impl StructuralCursor for FrontierEntry {
    fn position(&self) -> Position {
        self.position
    }

    fn interval(&self) -> Interval {
        self.interval
    }

    fn moved_to(&self, position: Position, interval: Interval) -> Self {
        FrontierEntry { source: self.source, position, interval }
    }

    fn with_interval(mut self, interval: Interval) -> Self {
        self.interval = interval;
        self
    }
}

/// Applies a purely structural closure operator to a batch of cursors, returning one
/// output cursor per reachable `(source, row, coalesced interval)` triple.  The output
/// is emitted in canonical `(input cursor, position, interval)` order, so its
/// cardinality and content are independent of the order the inner hops derive rows in.
/// Under `masks` the body's hops land, and the output sits, only on viable rows.
pub fn apply_closure<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    closure: &ClosureOp,
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<C> {
    let watch = stats.timed.then(obs::Stopwatch::start);
    let out = apply_closure_untimed(graph, cursors, closure, masks, stats);
    if let Some(watch) = watch {
        stats.closure_nanos.fetch_add(watch.elapsed_nanos(), Ordering::Relaxed);
    }
    out
}

fn apply_closure_untimed<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    closure: &ClosureOp,
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<C> {
    debug_assert!(
        !closure.is_time_crossing(),
        "time-crossing closures compile to a TemporalLink, not a segment micro-op"
    );
    // An unsatisfiable indicator ([n, m] with n > m) relates nothing.  The compiler
    // normalises these away, but plans can also be built programmatically.
    if cursors.is_empty() || closure.max.is_some_and(|m| m < closure.min) {
        return Vec::new();
    }

    let (distinct, seed_of) = dedup_seeds(&cursors);
    let seed: Vec<FrontierEntry> = distinct
        .iter()
        .enumerate()
        .map(|(i, &(position, interval))| FrontierEntry { source: i as u32, position, interval })
        .collect();
    let mut frontier = coalesce_frontier(seed);

    // Phase 1: exactly `min` applications.  Iteration depth is significant here —
    // reaching a row in fewer than `min` steps does not put it in the result — so the
    // rounds replace the frontier instead of accumulating, coalescing within each
    // depth level only.
    for _ in 0..closure.min {
        frontier = apply_round(graph, frontier, closure, masks, stats);
        if frontier.is_empty() {
            return Vec::new();
        }
    }

    // Phase 2: semi-naive expansion of up to `max − min` further applications.
    // `reached` is the result accumulator; `delta` holds only the coverage discovered
    // in the previous round.
    let mut reached: BTreeMap<u32, BTreeMap<Position, IntervalSet>> = BTreeMap::new();
    for entry in &frontier {
        reached
            .entry(entry.source)
            .or_default()
            .entry(entry.position)
            .or_default()
            .insert(entry.interval);
    }
    let mut delta = frontier;
    let mut remaining = closure.max.map(|m| u64::from(m - closure.min));
    while !delta.is_empty() && remaining != Some(0) {
        let produced = apply_round(graph, delta, closure, masks, stats);
        let mut novel = Vec::new();
        for entry in produced {
            let seen = reached.entry(entry.source).or_default().entry(entry.position).or_default();
            let fresh = IntervalSet::from_interval(entry.interval).difference(seen);
            if fresh.is_empty() {
                continue;
            }
            *seen = seen.union(&fresh);
            novel.extend(fresh.intervals().iter().map(|&interval| FrontierEntry {
                source: entry.source,
                position: entry.position,
                interval,
            }));
        }
        // `novel` is already canonical: `produced` is sorted by (source, position)
        // with per-key coalesced (disjoint, non-adjacent) intervals, and subtracting
        // `seen` only carves pieces out of them in order.
        delta = novel;
        remaining = remaining.map(|r| r - 1);
    }

    // Emit per input cursor, in input order: cursors sharing a seed share the
    // fixpoint's `reached` map instead of having re-derived it.
    let mut out = Vec::new();
    for (cursor, seed) in cursors.iter().zip(&seed_of) {
        let Some(rows) = reached.get(seed) else { continue };
        for (position, covered) in rows {
            if !exits_onto(masks, *position) {
                continue;
            }
            for &interval in covered.intervals() {
                out.push(cursor.moved_to(*position, interval));
            }
        }
    }
    out
}

/// True if the closure may emit a state onto `position` under `masks`.
fn exits_onto(masks: Option<&ClosureMasks>, position: Position) -> bool {
    masks.is_none_or(|masks| masks.exit().contains(position.row()))
}

/// The landing mask of step `step` of the body alternative at `alternative`.
fn landing(masks: Option<&ClosureMasks>, alternative: usize, step: usize) -> Option<&RowMask> {
    masks.and_then(|masks| masks.steps(alternative)[step].as_ref())
}

/// One application of the inner pipeline: every union alternative is applied to the
/// frontier and the results are unioned and coalesced.
fn apply_round(
    graph: &GraphRelations,
    mut frontier: Vec<FrontierEntry>,
    closure: &ClosureOp,
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<FrontierEntry> {
    stats.closure_rounds.fetch_add(1, Ordering::Relaxed);
    let mut produced = Vec::new();
    for (index, steps) in closure.alternatives.iter().enumerate() {
        let mut current = if index + 1 == closure.alternatives.len() {
            std::mem::take(&mut frontier)
        } else {
            frontier.clone()
        };
        for (step_index, step) in steps.iter().enumerate() {
            if current.is_empty() {
                break;
            }
            match step {
                ClosureStep::Micro(op) => {
                    let landing = landing(masks, index, step_index);
                    current = apply_op(graph, current, op, landing, stats);
                }
                ClosureStep::Shift(_) => {
                    unreachable!("structural closures contain no temporal steps")
                }
            }
        }
        produced.extend(current);
    }
    coalesce_frontier(produced)
}

/// Canonicalises a frontier: groups entries by `(source, position)`, coalesces their
/// intervals, and emits them in sorted order.  This keeps round inputs and outputs
/// independent of derivation order and bounds the frontier size by the number of
/// `(source, row)` pairs times the number of coalesced intervals.
fn coalesce_frontier(entries: Vec<FrontierEntry>) -> Vec<FrontierEntry> {
    let mut grouped: BTreeMap<(u32, Position), IntervalSet> = BTreeMap::new();
    for entry in entries {
        grouped.entry((entry.source, entry.position)).or_default().insert(entry.interval);
    }
    let mut out = Vec::new();
    for ((source, position), set) in grouped {
        out.extend(set.intervals().iter().map(|&interval| FrontierEntry {
            source,
            position,
            interval,
        }));
    }
    out
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
/// of the object intersecting the arrival window — of `landing`'s rows, under a mask.
fn shift_band(
    graph: &GraphRelations,
    band: &BandState,
    shift: &Shift,
    landing: Option<&RowMask>,
    out: &mut Vec<BandState>,
) {
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
    let rows: &[u32] = match object {
        tgraph::Object::Node(node) => graph.rows_of_node(node),
        tgraph::Object::Edge(edge) => graph.rows_of_edge(edge),
    };
    for &row in rows.iter().filter(|&&row| landing.is_none_or(|mask| mask.contains(row))) {
        let (position, row_interval) = match band.position {
            Position::NodeRow(_) => {
                (Position::NodeRow(row), graph.node_rows()[row as usize].interval)
            }
            Position::EdgeRow(_) => {
                (Position::EdgeRow(row), graph.edge_rows()[row as usize].interval)
            }
        };
        let Some(cur) = arrival.intersect(&row_interval) else { continue };
        if let Some(next) = normalize(BandState { position, cur, lag, ..band }) {
            out.push(next);
        }
    }
}

/// Applies the step sequence of the body alternative at `alternative` to a band
/// batch.
fn apply_band_steps(
    graph: &GraphRelations,
    mut bands: Vec<BandState>,
    closure: &ClosureOp,
    alternative: usize,
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<BandState> {
    for (index, step) in closure.alternatives[alternative].iter().enumerate() {
        if bands.is_empty() {
            break;
        }
        let landing = landing(masks, alternative, index);
        bands = match step {
            // A nested time-crossing closure runs its own band fixpoint over the
            // current states; a structural nested closure is just a micro-op.
            ClosureStep::Micro(MicroOp::Closure(inner)) if inner.is_time_crossing() => {
                run_band_fixpoint(graph, bands, inner, None, stats)
            }
            ClosureStep::Micro(op) => apply_op(graph, bands, op, landing, stats),
            ClosureStep::Shift(shift) => {
                let mut out = Vec::new();
                for band in &bands {
                    shift_band(graph, band, shift, landing, &mut out);
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
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<BandState> {
    stats.time_closure_rounds.fetch_add(1, Ordering::Relaxed);
    let mut produced = Vec::new();
    for index in 0..closure.alternatives.len() {
        let input = if index + 1 == closure.alternatives.len() {
            std::mem::take(&mut frontier)
        } else {
            frontier.clone()
        };
        produced.extend(apply_band_steps(graph, input, closure, index, masks, stats));
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
    masks: Option<&ClosureMasks>,
    stats: &StepStats,
) -> Vec<BandState> {
    if seeds.is_empty() || closure.max.is_some_and(|m| m < closure.min) {
        return Vec::new();
    }
    let mut frontier = canonicalize_bands(seeds);

    // Phase 1: exactly `min` applications, replacing the frontier per depth level.
    for _ in 0..closure.min {
        frontier = apply_band_round(graph, frontier, closure, masks, stats);
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
        let produced = apply_band_round(graph, delta, closure, masks, stats);
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
/// other bands of its seed.  Under `masks` the body's hops and shifts land, and the
/// emitted bands sit, only on viable rows.
pub fn apply_time_closure(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    closure: &ClosureOp,
    masks: Option<&ClosureMasks>,
    trail: &mut Trail,
    stats: &StepStats,
) -> Vec<Cursor> {
    let watch = stats.timed.then(obs::Stopwatch::start);
    let out = apply_time_closure_untimed(graph, cursors, closure, masks, trail, stats);
    if let Some(watch) = watch {
        stats.closure_nanos.fetch_add(watch.elapsed_nanos(), Ordering::Relaxed);
    }
    out
}

fn apply_time_closure_untimed(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    closure: &ClosureOp,
    masks: Option<&ClosureMasks>,
    trail: &mut Trail,
    stats: &StepStats,
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
    let bands = run_band_fixpoint(graph, seeds, closure, masks, stats);

    let mut by_source: Vec<Vec<&BandState>> = vec![Vec::new(); distinct.len()];
    for band in bands.iter().filter(|band| exits_onto(masks, band.position)) {
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
        apply_closure(graph, seeds, op, None, &StepStats::default())
    }

    /// Crosses the closure and spells the arrivals out as chains.
    fn run_time(graph: &GraphRelations, seeds: Vec<Cursor>, op: &ClosureOp) -> Vec<Chain> {
        let mut trail = Trail::default();
        let out = apply_time_closure(graph, seeds, op, None, &mut trail, &StepStats::default());
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
        let stats = StepStats::default();
        let out = apply_closure(&g, vec![Cursor::seed(row_of(&g, "a"), &g)], &star(), None, &stats);
        // a over its whole row (0 steps; the [4,5] round trip adds no new coverage),
        // b over the edge window [2,5].
        assert_eq!(reached(&g, &out), vec![("a".to_owned(), iv(0, 9)), ("b".to_owned(), iv(2, 5))]);
        assert!(stats.closure_rounds.load(Ordering::Relaxed) >= 2);
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
        let single_stats = StepStats::default();
        let single = apply_closure(&g, vec![seed()], &star(), None, &single_stats);
        let dup_stats = StepStats::default();
        let dup = apply_closure(&g, vec![seed(), seed()], &star(), None, &dup_stats);
        assert_eq!(
            single_stats.closure_rounds.load(Ordering::Relaxed),
            dup_stats.closure_rounds.load(Ordering::Relaxed),
            "duplicate seeds added fixpoint rounds"
        );
        // Both input cursors still receive the full result.
        assert_eq!(dup.len(), 2 * single.len());

        // Same for the time-aware fixpoint.
        let single_stats = StepStats::default();
        apply_time_closure(
            &g,
            vec![seed()],
            &mixed_star(),
            None,
            &mut Trail::default(),
            &single_stats,
        );
        let dup_stats = StepStats::default();
        let dup_seeds = vec![seed(), seed()];
        apply_time_closure(&g, dup_seeds, &mixed_star(), None, &mut Trail::default(), &dup_stats);
        assert_eq!(
            single_stats.time_closure_rounds.load(Ordering::Relaxed),
            dup_stats.time_closure_rounds.load(Ordering::Relaxed),
            "duplicate seeds added time-crossing rounds"
        );
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
            None,
            &mut trail,
            &StepStats::default(),
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
}
