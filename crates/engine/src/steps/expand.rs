//! Step 3 of query evaluation (Section VI): expansion of interval-based intermediate
//! results into point-based bindings.
//!
//! Queries without temporal navigation keep their (coalesced) interval bindings.  For
//! queries with temporal navigation, the time points of the different segments are
//! correlated through the temporal links, so the final binding table must be
//! point-based: each chain is expanded by enumerating, segment by segment, the time
//! points that satisfy the link constraints — a [`crate::plan::Shift`]'s step bounds
//! for plain temporal moves, or the chain's recorded [`crate::chain::TimeLag`] for
//! time-aware closure boundaries.  Segments after the last bound one are never
//! enumerated: they only narrow the last bound segment to the times from which
//! they can be completed, worked out interval by interval.
//!
//! Every reader of a chain in Step 3 — the table, the enumeration cursor's lower
//! bounds and the compact answers — reads it through one `ChainView`.

use tgraph::{Interval, Object, Time};

use crate::bindings::{Binding, TimeRef};
use crate::chain::{Chain, TimeLag};
use crate::plan::{ChainLayout, EnginePlan, LinkLag};

/// Expands the chains produced by a plan into binding rows, one binding per
/// variable slot, and appends them to `rows`.
pub fn expand_chains(plan: &EnginePlan, chains: &[Chain], rows: &mut Vec<Vec<Binding>>) {
    let mut times = Vec::new();
    for chain in chains {
        ChainView::new(plan, chain).expand(&mut times, rows);
    }
}

/// One chain read through its plan's [`ChainLayout`]: what Step 3 needs of it.
pub(crate) struct ChainView<'a> {
    layout: &'a ChainLayout,
    chain: &'a Chain,
}

impl<'a> ChainView<'a> {
    /// Reads `chain`, a chain of `plan`.
    pub(crate) fn new(plan: &'a EnginePlan, chain: &'a Chain) -> Self {
        ChainView { layout: plan.layout(), chain }
    }

    /// Appends the chain's binding rows to `rows`, using `times` as scratch: for a
    /// plan without temporal links its one row, its own lower bound; for any other
    /// each variable at a time point of its segment, for every choice the links
    /// admit.
    pub(crate) fn expand(&self, times: &mut Vec<Time>, rows: &mut Vec<Vec<Binding>>) {
        if self.layout.links().is_empty() {
            rows.push(self.lower_bound());
        } else if let Some(window) = self.window(self.layout.last_bound_segment()) {
            times.clear();
            self.enumerate(0, window, times, rows);
        }
    }

    /// A row no greater than any the chain expands to: every variable at the start
    /// of its segment's interval, or over it for a plan without temporal links.
    pub(crate) fn lower_bound(&self) -> Vec<Binding> {
        let (intervals, points) = (&self.chain.intervals, !self.layout.links().is_empty());
        self.row(|segment| match points {
            true => TimeRef::Point(intervals[segment].start()),
            false => TimeRef::Interval(intervals[segment]),
        })
    }

    /// The compact answer of the chain: the objects of the first and the last
    /// variable, and the times the last can be bound at in some full match —
    /// `None` if there are none, or no variables.
    pub(crate) fn compact(&self) -> Option<(Object, Object, Interval)> {
        let (&first, &last) = (self.layout.by_slot().first()?, self.layout.by_slot().last()?);
        let (_, segment) = self.layout.binds()[last];
        Some((self.chain.bound[first], self.chain.bound[last], self.window(segment)?))
    }

    /// The times of `segment` from which every later segment the chain covers can
    /// be given a time the links admit: its interval narrowed back from the last
    /// segment, link by link, through [`TimeLag::departure_into`].
    ///
    /// That is the exact set.  Each link admits a band of signed skews and tests
    /// nothing else ([`crate::plan::Shift::admits`], [`TimeLag::admits`]), so the
    /// times of a segment that reach some time of an interval form an interval.
    /// Expansion checks the earlier segments point by point; the compact answer
    /// needs no check of them, since the executor builds every point of a
    /// segment's interval to be reachable from some point of its predecessor's
    /// (shift windows are unions of per-departure windows, time-closure bands are
    /// normalised so every arrival has an admissible departure).
    fn window(&self, segment: usize) -> Option<Interval> {
        let intervals = &self.chain.intervals;
        let mut window = intervals[intervals.len() - 1];
        for link in (segment..intervals.len() - 1).rev() {
            window = self.lag(link).departure_into(window, intervals[link])?;
        }
        Some(window)
    }

    /// The admissible skew of link `link` for this chain.
    fn lag(&self, link: usize) -> TimeLag {
        match self.layout.links()[link] {
            LinkLag::Fixed(lag) => lag,
            LinkLag::Recorded(index) => self.chain.lags[index],
        }
    }

    /// Chooses the time point of `segment` given those of the segments before it
    /// in `times`, up to the last bound segment, whose points are `window`'s, and
    /// emits a row per full choice.
    fn enumerate(
        &self,
        segment: usize,
        window: Interval,
        times: &mut Vec<Time>,
        rows: &mut Vec<Vec<Binding>>,
    ) {
        let last = segment == self.layout.last_bound_segment();
        let interval = if last { window } else { self.chain.intervals[segment] };
        for t in interval.points() {
            if segment > 0 && !self.lag(segment - 1).admits(times[segment - 1], t) {
                continue;
            }
            times.push(t);
            if last {
                rows.push(self.row(|segment| TimeRef::Point(times[segment])));
            } else {
                self.enumerate(segment + 1, window, times, rows);
            }
            times.pop();
        }
    }

    /// One binding per slot, in slot order: its object at the time `time` gives
    /// its segment.
    fn row(&self, time: impl Fn(usize) -> TimeRef) -> Vec<Binding> {
        let binds = self.layout.binds();
        let binding =
            |&bind: &usize| Binding { object: self.chain.bound[bind], time: time(binds[bind].1) };
        self.layout.by_slot().iter().map(binding).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Intervals;
    use crate::plan::{ClosureOp, ClosureStep, MicroOp, Segment, Shift, TemporalLink};
    use tgraph::NodeId;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// A segment binding `slots`.
    fn binding(slots: &[usize]) -> Segment {
        Segment { ops: slots.iter().map(|&slot| MicroOp::Bind(slot)).collect() }
    }

    fn structural_plan() -> EnginePlan {
        EnginePlan::new(vec![binding(&[0])], vec![]).unwrap()
    }

    /// Two segments linked by `link`, binding x in the first and y in the second.
    fn linked_plan(link: TemporalLink) -> EnginePlan {
        EnginePlan::new(vec![binding(&[0]), binding(&[1])], vec![link]).unwrap()
    }

    /// Expansion reads only that the link is a closure, not its body.
    fn closure_link() -> TemporalLink {
        let next = ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) });
        TemporalLink::Closure(ClosureOp { alternatives: vec![vec![next]], min: 0, max: None })
    }

    fn obj() -> Object {
        Object::Node(NodeId(0))
    }

    fn chain(bound: usize, intervals: Vec<Interval>, lags: Vec<TimeLag>) -> Chain {
        Chain { seed: 0, bound: vec![obj(); bound], intervals: Intervals::Many(intervals), lags }
    }

    /// The sorted, deduplicated time points of every row one chain expands to.
    fn point_rows(plan: &EnginePlan, chain: Chain) -> Vec<Vec<Time>> {
        let mut rows = Vec::new();
        expand_chains(plan, &[chain], &mut rows);
        rows.sort_unstable();
        rows.dedup();
        rows.iter().map(|r| r.iter().map(|b| b.time.as_point().unwrap()).collect()).collect()
    }

    fn pairs(rows: Vec<Vec<Time>>) -> Vec<(Time, Time)> {
        rows.iter().map(|r| (r[0], r[1])).collect()
    }

    #[test]
    fn structural_chains_keep_interval_bindings() {
        let mut rows = Vec::new();
        expand_chains(&structural_plan(), &[chain(1, vec![iv(2, 5)], vec![])], &mut rows);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].time, TimeRef::Interval(iv(2, 5)));
        assert_eq!(rows[0][0].time.num_points(), 4);
    }

    #[test]
    fn point_expansion_respects_shift_constraints() {
        // Two segments on the same object: seg0 over [3,4], seg1 over [5,9], linked by
        // NEXT[2,4]; both segments bind a variable.
        let plan = linked_plan(TemporalLink::Shift(Shift { forward: true, min: 2, max: Some(4) }));
        let found = pairs(point_rows(&plan, chain(2, vec![iv(3, 4), iv(5, 9)], vec![])));
        // Valid pairs: t0 in [3,4], t1 in [5,9], t1 - t0 in [2,4].
        let expected: Vec<(Time, Time)> = (3..=4u64)
            .flat_map(|t0| (5..=9u64).map(move |t1| (t0, t1)))
            .filter(|(t0, t1)| t1 - t0 >= 2 && t1 - t0 <= 4)
            .collect();
        assert_eq!(found, expected);
    }

    #[test]
    fn trailing_unbound_segments_are_feasibility_checked_not_enumerated() {
        // Only segment 0 binds a variable; segment 1 must merely be reachable:
        // departures [0,6], arrivals [8,9], at most 2 steps, so only t0 = 6 (→ 8).
        let next = TemporalLink::Shift(Shift { forward: true, min: 0, max: Some(2) });
        let plan = EnginePlan::new(vec![binding(&[0]), Segment::default()], vec![next]).unwrap();
        assert_eq!(point_rows(&plan, chain(1, vec![iv(0, 6), iv(8, 9)], vec![])), [[6]]);
    }

    /// Every `(t0, t1)` of segments 0 and 1, the only bound ones, for which times of
    /// the trailing segments exist that `links` admit, by brute force.
    fn completable(links: &[TimeLag], intervals: &[Interval]) -> Vec<(Time, Time)> {
        fn completes(links: &[TimeLag], intervals: &[Interval], from: Time) -> bool {
            let Some((first, rest)) = intervals.split_first() else { return true };
            first.points().any(|t| links[0].admits(from, t) && completes(&links[1..], rest, t))
        }
        let (i0, i1) = (intervals[0], intervals[1]);
        let firsts = i0.points().flat_map(|t0| i1.points().map(move |t1| (t0, t1)));
        firsts
            .filter(|&(t0, t1)| {
                links[0].admits(t0, t1) && completes(&links[1..], &intervals[2..], t1)
            })
            .collect()
    }

    #[test]
    fn trailing_windows_agree_with_a_point_by_point_search() {
        // Two bound segments, then two unbound ones behind a closure lag and an open
        // backward shift: the window is exactly the brute-force set.
        let prev_star = Shift { forward: false, min: 1, max: None };
        let next = Shift { forward: true, min: 1, max: Some(2) };
        let plan = EnginePlan::new(
            vec![binding(&[0]), binding(&[1]), Segment::default(), Segment::default()],
            vec![TemporalLink::Shift(next), closure_link(), TemporalLink::Shift(prev_star)],
        )
        .unwrap();
        let links = |lag| [next.lag(), lag, prev_star.lag()];
        for (lag, intervals) in [
            (TimeLag { lo: 2, hi: 3 }, [iv(0, 5), iv(1, 7), iv(6, 9), iv(2, 4)]),
            (TimeLag { lo: -4, hi: -1 }, [iv(2, 6), iv(3, 8), iv(0, 3), iv(0, 1)]),
            (TimeLag { lo: 0, hi: 0 }, [iv(0, 3), iv(1, 5), iv(5, 5), iv(5, 9)]),
        ] {
            let expected = completable(&links(lag), &intervals);
            let found = pairs(point_rows(&plan, chain(2, intervals.to_vec(), vec![lag])));
            assert_eq!(found, expected, "{lag:?} over {intervals:?}");
        }
    }

    #[test]
    fn backward_shifts_expand_correctly() {
        let plan = linked_plan(TemporalLink::Shift(Shift { forward: false, min: 1, max: Some(1) }));
        assert_eq!(pairs(point_rows(&plan, chain(2, vec![iv(7, 8), iv(2, 6)], vec![]))), [(7, 6)]);
    }

    #[test]
    fn closure_links_expand_through_the_recorded_lag() {
        // A time-aware closure boundary: the chain carries the admissible skew
        // itself instead of reading it off the plan.  t0 in [3,5], t1 in [6,7],
        // t1 − t0 in [2,3].
        let plan = linked_plan(closure_link());
        let forward = chain(2, vec![iv(3, 5), iv(6, 7)], vec![TimeLag { lo: 2, hi: 3 }]);
        assert_eq!(pairs(point_rows(&plan, forward)), [(3, 6), (4, 6), (4, 7), (5, 7)]);
        // A negative lag (backward navigation inside the closure).
        let backward = chain(2, vec![iv(6, 7), iv(3, 5)], vec![TimeLag { lo: -2, hi: -2 }]);
        assert_eq!(pairs(point_rows(&plan, backward)), [(6, 4), (7, 5)]);
    }

    #[test]
    fn slots_read_their_objects_in_slot_order() {
        // y is bound before x: the chain records y's object first, the row puts x's
        // first.
        let (x, y) = (Object::Node(NodeId(1)), Object::Node(NodeId(2)));
        let plan = EnginePlan::new(vec![binding(&[1, 0])], vec![]).unwrap();
        let chain =
            Chain { seed: 0, bound: vec![y, x], intervals: Intervals::One(iv(1, 2)), lags: vec![] };
        let view = ChainView::new(&plan, &chain);
        let lower = view.lower_bound();
        assert_eq!(lower.iter().map(|b| b.object).collect::<Vec<_>>(), [x, y]);
        assert_eq!(view.compact(), Some((x, y, iv(1, 2))));
        let mut rows = Vec::new();
        view.expand(&mut Vec::new(), &mut rows);
        assert_eq!(rows, [lower]);
    }

    #[test]
    fn lower_bounds_and_compact_windows_bound_the_rows() {
        // x over [3,4], y over [5,8] (what NEXT[2,4] reaches from it), then an
        // unbound segment over [8,9] reached by NEXT[0,1]: y lies in [7,8].
        let next = |min, max| TemporalLink::Shift(Shift { forward: true, min, max: Some(max) });
        let plan = EnginePlan::new(
            vec![binding(&[0]), binding(&[1]), Segment::default()],
            vec![next(2, 4), next(0, 1)],
        )
        .unwrap();
        let chain = chain(2, vec![iv(3, 4), iv(5, 8), iv(8, 9)], vec![]);
        let view = ChainView::new(&plan, &chain);
        let lower: Vec<TimeRef> = view.lower_bound().iter().map(|b| b.time).collect();
        assert_eq!(lower, [TimeRef::Point(3), TimeRef::Point(5)]);
        assert_eq!(view.compact(), Some((obj(), obj(), iv(7, 8))));
        assert_eq!(pairs(point_rows(&plan, chain.clone())), [(3, 7), (4, 7), (4, 8)]);
        // Unreachable trailing segment: no rows, no compact answer.
        let dead =
            Chain { intervals: Intervals::Many(vec![iv(3, 4), iv(5, 6), iv(9, 9)]), ..chain };
        assert_eq!(ChainView::new(&plan, &dead).compact(), None);
        assert!(point_rows(&plan, dead).is_empty());
    }
}
