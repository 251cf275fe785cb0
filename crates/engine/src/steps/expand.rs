//! Step 3 of query evaluation (Section VI): expansion of interval-based intermediate
//! results into point-based bindings.
//!
//! Queries without temporal navigation keep their (coalesced) interval bindings.  For
//! queries with temporal navigation, the time points of the different segments are
//! correlated through the temporal links, so the final binding table must be
//! point-based: each chain is expanded by enumerating, segment by segment, the time
//! points that satisfy the link constraints — a [`crate::plan::Shift`]'s step bounds
//! for plain temporal moves, or the chain's recorded [`crate::chain::TimeLag`] for
//! time-aware closure boundaries.  Segments that bind no output variable and are not needed to
//! constrain a later bound segment are only checked for feasibility, never enumerated.

use tgraph::Time;

use crate::bindings::Binding;
use crate::chain::Chain;
use crate::plan::{EnginePlan, TemporalLink};

/// Expands the chains produced by a plan into binding rows of `num_slots`
/// bindings each and appends them to `rows`.  What depends on the plan alone is
/// worked out once, and the per-chain state borrows from the chain, so a chain
/// costs no allocation beyond its rows.
pub fn expand_chains(
    plan: &EnginePlan,
    num_slots: usize,
    chains: &[Chain],
    rows: &mut Vec<Vec<Binding>>,
) {
    let lag_indices = plan.lag_indices();
    let mut times: Vec<Time> = Vec::with_capacity(plan.segments().len());
    for chain in chains {
        expand_chain(plan, &lag_indices, num_slots, chain, &mut times, rows);
    }
}

fn expand_chain(
    plan: &EnginePlan,
    lag_indices: &[Option<usize>],
    num_slots: usize,
    chain: &Chain,
    times: &mut Vec<Time>,
    rows: &mut Vec<Vec<Binding>>,
) {
    if plan.is_purely_structural() {
        // All bindings share the chain's final interval, interpreted snapshot-wise.
        let mut row = Vec::with_capacity(num_slots);
        for slot in 0..num_slots {
            let Some(var) = chain.bound.iter().find(|b| b.slot as usize == slot) else {
                debug_assert!(false, "variable slot {slot} was never bound");
                return;
            };
            row.push(Binding::over_interval(var.object, chain.interval));
        }
        rows.push(row);
        return;
    }

    // The last segment that actually binds an output variable; later segments only
    // need a feasibility check.
    let last_bound_segment = chain.bound.iter().map(|b| b.segment as usize).max().unwrap_or(0);
    let ctx = Expansion { plan, chain, lag_indices, last_bound_segment };
    enumerate(&ctx, num_slots, 0, times, rows);
}

/// The per-chain context of one point expansion.
struct Expansion<'a> {
    plan: &'a EnginePlan,
    chain: &'a Chain,
    /// [`EnginePlan::lag_indices`], so the per-point admissibility checks stay O(1).
    lag_indices: &'a [Option<usize>],
    last_bound_segment: usize,
}

impl Expansion<'_> {
    /// Number of segments the chain covers, the current (finished) one included.
    fn segments(&self) -> usize {
        self.chain.seg_intervals.len() + 1
    }

    /// The final interval of a segment of the chain.
    fn interval(&self, segment: usize) -> tgraph::Interval {
        self.chain.seg_intervals.get(segment).copied().unwrap_or(self.chain.interval)
    }

    /// True if the temporal link entering `segment` admits moving from time `from` to
    /// time `to` for this chain: a plain shift checks its step bounds, a time-aware
    /// closure checks the time skew the chain recorded while crossing it.
    fn link_admits(&self, segment: usize, from: Time, to: Time) -> bool {
        match &self.plan.links()[segment - 1] {
            TemporalLink::Shift(shift) => shift.admits(from, to),
            TemporalLink::Closure(_) => {
                debug_assert!(
                    self.lag_indices[segment - 1].is_some(),
                    "closure links carry a lag index"
                );
                match self.lag_indices[segment - 1] {
                    Some(index) => self.chain.lags[index].admits(from, to),
                    // Unreachable by construction; admitting keeps the
                    // expansion total without panicking on the hot path.
                    None => true,
                }
            }
        }
    }
}

/// Recursively enumerates the time point of segment `segment`, given the time points
/// chosen for the previous segments, and emits a binding row once every bound segment
/// has a time.
fn enumerate(
    ctx: &Expansion<'_>,
    num_slots: usize,
    segment: usize,
    times: &mut Vec<Time>,
    rows: &mut Vec<Vec<Binding>>,
) {
    if segment > ctx.last_bound_segment {
        // All remaining segments are unbound: check that a consistent completion
        // exists, then emit the row.
        // `segment > last_bound_segment >= 0` implies at least one prior push.
        debug_assert!(!times.is_empty(), "at least one segment enumerated");
        if let Some(&last) = times.last() {
            if feasible(ctx, segment, last) {
                emit_row(ctx.chain, num_slots, times, rows);
            }
        }
        return;
    }
    for t in ctx.interval(segment).points() {
        if segment > 0 && !ctx.link_admits(segment, times[segment - 1], t) {
            continue;
        }
        times.push(t);
        if segment == ctx.last_bound_segment && segment + 1 >= ctx.segments() {
            emit_row(ctx.chain, num_slots, times, rows);
        } else {
            enumerate(ctx, num_slots, segment + 1, times, rows);
        }
        times.pop();
    }
}

/// True if segments `segment..` can be assigned time points consistent with the link
/// constraints, given that segment `segment - 1` was assigned `previous`.
fn feasible(ctx: &Expansion<'_>, segment: usize, previous: Time) -> bool {
    if segment >= ctx.segments() {
        return true;
    }
    ctx.interval(segment)
        .points()
        .any(|t| ctx.link_admits(segment, previous, t) && feasible(ctx, segment + 1, t))
}

fn emit_row(chain: &Chain, num_slots: usize, times: &[Time], rows: &mut Vec<Vec<Binding>>) {
    let mut row = Vec::with_capacity(num_slots);
    for slot in 0..num_slots {
        let Some(var) = chain.bound.iter().find(|b| b.slot as usize == slot) else {
            debug_assert!(false, "variable slot {slot} was never bound");
            return;
        };
        row.push(Binding::at_point(var.object, times[var.segment as usize]));
    }
    rows.push(row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::TimeRef;
    use crate::chain::{BoundVar, Position, TimeLag};
    use crate::plan::{ClosureOp, ClosureStep, Segment, Shift};
    use tgraph::{Interval, NodeId, Object};

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn structural_plan() -> EnginePlan {
        EnginePlan::new(vec![Segment::default()], vec![]).unwrap()
    }

    fn shifted_plan(shift: Shift) -> EnginePlan {
        EnginePlan::new(vec![Segment::default(); 2], vec![TemporalLink::Shift(shift)]).unwrap()
    }

    /// Expansion reads only that the link is a closure, not its body.
    fn closure_plan() -> EnginePlan {
        let next = ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) });
        let closure = ClosureOp { alternatives: vec![vec![next]], min: 0, max: None };
        EnginePlan::new(vec![Segment::default(); 2], vec![TemporalLink::Closure(closure)]).unwrap()
    }

    fn obj() -> Object {
        Object::Node(NodeId(0))
    }

    /// The sorted, deduplicated `(x, y)` time points one chain expands to.
    fn point_pairs(plan: &EnginePlan, chain: Chain) -> Vec<(Time, Time)> {
        let mut rows = Vec::new();
        expand_chains(plan, 2, &[chain], &mut rows);
        rows.sort_unstable();
        rows.dedup();
        rows.iter()
            .map(|r| (r[0].time.as_point().unwrap(), r[1].time.as_point().unwrap()))
            .collect()
    }

    #[test]
    fn structural_chains_keep_interval_bindings() {
        let chain = Chain {
            seed: 0,
            seg_intervals: vec![],
            lags: vec![],
            bound: vec![BoundVar { slot: 0, segment: 0, object: obj() }],
            position: Position::NodeRow(0),
            interval: iv(2, 5),
        };
        let mut rows = Vec::new();
        expand_chains(&structural_plan(), 1, &[chain], &mut rows);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].time, TimeRef::Interval(iv(2, 5)));
        assert_eq!(rows[0][0].time.num_points(), 4);
    }

    #[test]
    fn point_expansion_respects_shift_constraints() {
        // Two segments on the same object: seg0 over [3,4], seg1 over [5,9], linked by
        // NEXT[2,4]; both segments bind a variable.
        let chain = Chain {
            seed: 0,
            seg_intervals: vec![iv(3, 4)],
            lags: vec![],
            bound: vec![
                BoundVar { slot: 0, segment: 0, object: obj() },
                BoundVar { slot: 1, segment: 1, object: obj() },
            ],
            position: Position::NodeRow(0),
            interval: iv(5, 9),
        };
        let plan = shifted_plan(Shift { forward: true, min: 2, max: Some(4) });
        let pairs = point_pairs(&plan, chain);
        // Valid pairs: t0 in [3,4], t1 in [5,9], t1 - t0 in [2,4].
        let expected: Vec<(Time, Time)> = (3..=4u64)
            .flat_map(|t0| (5..=9u64).map(move |t1| (t0, t1)))
            .filter(|(t0, t1)| t1 - t0 >= 2 && t1 - t0 <= 4)
            .collect();
        assert_eq!(pairs.len(), expected.len());
        for p in expected {
            assert!(pairs.contains(&p), "missing pair {p:?}");
        }
    }

    #[test]
    fn trailing_unbound_segments_are_feasibility_checked_not_enumerated() {
        // Only segment 0 binds a variable; segment 1 must merely be reachable.
        let chain = Chain {
            seed: 0,
            seg_intervals: vec![iv(0, 6)],
            lags: vec![],
            bound: vec![BoundVar { slot: 0, segment: 0, object: obj() }],
            position: Position::NodeRow(0),
            interval: iv(8, 9),
        };
        let plan = shifted_plan(Shift { forward: true, min: 0, max: Some(2) });
        let mut rows = Vec::new();
        expand_chains(&plan, 1, &[chain], &mut rows);
        rows.sort_unstable();
        // Only departure times 6, 7 … wait: departures are [0,6] and arrivals [8,9]
        // with a maximum shift of 2, so only t0 = 6 (→ 8) is feasible.
        let times: Vec<Time> = rows.iter().map(|r| r[0].time.as_point().unwrap()).collect();
        assert_eq!(times, vec![6]);
    }

    #[test]
    fn backward_shifts_expand_correctly() {
        let chain = Chain {
            seed: 0,
            seg_intervals: vec![iv(7, 8)],
            lags: vec![],
            bound: vec![
                BoundVar { slot: 0, segment: 0, object: obj() },
                BoundVar { slot: 1, segment: 1, object: obj() },
            ],
            position: Position::NodeRow(0),
            interval: iv(2, 6),
        };
        let plan = shifted_plan(Shift { forward: false, min: 1, max: Some(1) });
        assert_eq!(point_pairs(&plan, chain), vec![(7, 6)]);
    }

    #[test]
    fn closure_links_expand_through_the_recorded_lag() {
        // A time-aware closure boundary: the chain carries the admissible skew
        // itself instead of reading it off the plan.
        let chain = Chain {
            seed: 0,
            seg_intervals: vec![iv(3, 5)],
            lags: vec![TimeLag { lo: 2, hi: 3 }],
            bound: vec![
                BoundVar { slot: 0, segment: 0, object: obj() },
                BoundVar { slot: 1, segment: 1, object: obj() },
            ],
            position: Position::NodeRow(0),
            interval: iv(6, 7),
        };
        // t0 in [3,5], t1 in [6,7], t1 − t0 in [2,3].
        assert_eq!(point_pairs(&closure_plan(), chain), vec![(3, 6), (4, 6), (4, 7), (5, 7)]);

        // A negative lag (backward navigation inside the closure).
        let backward = Chain {
            seed: 0,
            seg_intervals: vec![iv(6, 7)],
            lags: vec![TimeLag { lo: -2, hi: -2 }],
            bound: vec![
                BoundVar { slot: 0, segment: 0, object: obj() },
                BoundVar { slot: 1, segment: 1, object: obj() },
            ],
            position: Position::NodeRow(0),
            interval: iv(3, 5),
        };
        assert_eq!(point_pairs(&closure_plan(), backward), vec![(6, 4), (7, 5)]);
    }
}
