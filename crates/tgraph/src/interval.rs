//! Closed time intervals `[a, b]` over the natural numbers and the subset of Allen's
//! interval algebra used by the paper (Appendix A).
//!
//! An interval `[a, b]` with `a ≤ b` is a concise representation of the set of time
//! points `{ i | a ≤ i ≤ b }`.  Intervals are the basic building block of the
//! interval-timestamped representation of temporal property graphs (ITPGs) and of the
//! interval-based query engine of Section VI.

use std::fmt;

use crate::error::{GraphError, Result};

/// A time point.  The paper represents the universe of time points by the natural
/// numbers; the unit (seconds, 5-minute windows, …) is application specific.
pub type Time = u64;

/// A closed interval `[start, end]` of time points with `start ≤ end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Creates a new interval, returning an error if `start > end`.
    pub fn new(start: Time, end: Time) -> Result<Self> {
        if start > end {
            Err(GraphError::InvalidInterval { start, end })
        } else {
            Ok(Interval { start, end })
        }
    }

    /// Creates a new interval, panicking if `start > end`.  Convenient for literals.
    #[track_caller]
    pub fn of(start: Time, end: Time) -> Self {
        Interval::new(start, end).expect("interval start must not exceed end")
    }

    /// Creates the singleton interval `[t, t]`.
    pub fn point(t: Time) -> Self {
        Interval { start: t, end: t }
    }

    /// The starting point of the interval.
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// The ending point of the interval (inclusive).
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// The number of time points contained in the interval.  A `u128`, because
    /// `[0, Time::MAX]` holds one point more than a `u64` can count.
    #[inline]
    pub fn num_points(&self) -> u128 {
        u128::from(self.end - self.start) + 1
    }

    /// True if the interval contains the time point `t`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t <= self.end
    }

    /// True if the interval contains every point of `other`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.during(self)
    }

    /// Allen relation *during* (reflexively): `self` occurs during `other` if
    /// `other.start ≤ self.start` and `self.end ≤ other.end`.
    #[inline]
    pub fn during(&self, other: &Interval) -> bool {
        other.start <= self.start && self.end <= other.end
    }

    /// Allen relation *meets* as used by the paper: `[a1,b1]` meets `[a2,b2]` if
    /// `b1 + 1 = a2`, i.e. the second interval starts exactly one time unit after the
    /// first ends (the two are temporally adjacent).
    #[inline]
    pub fn meets(&self, other: &Interval) -> bool {
        self.end.checked_add(1) == Some(other.start)
    }

    /// Allen relation *before*: `[a1,b1]` is before `[a2,b2]` if `b1 + 1 < a2`, i.e.
    /// there is at least one time point strictly between the two intervals.
    #[inline]
    pub fn before(&self, other: &Interval) -> bool {
        self.end.checked_add(1).is_some_and(|next| next < other.start)
    }

    /// True if the two intervals share at least one time point.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// True if the two intervals share a point or are temporally adjacent, i.e. their
    /// union is a single interval.
    #[inline]
    pub fn overlaps_or_meets(&self, other: &Interval) -> bool {
        self.overlaps(other) || self.meets(other) || other.meets(self)
    }

    /// The intersection of the two intervals, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// The smallest interval containing both intervals (their convex hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// The union of two intervals that overlap or meet, as a single interval.  Returns
    /// `None` if the union would not be a single interval.
    pub fn union_adjacent(&self, other: &Interval) -> Option<Interval> {
        if self.overlaps_or_meets(other) {
            Some(Interval { start: self.start.min(other.start), end: self.end.max(other.end) })
        } else {
            None
        }
    }

    /// Shifts the interval forward in time by `[lo, hi]` units, producing the interval
    /// of all time points reachable by `NEXT[lo, hi]` from any point of `self`,
    /// clamped to `domain`.  Returns `None` if the shifted interval falls entirely
    /// outside the domain.
    ///
    /// This is the interval-level reasoning used by Step 2 of the engine (Section VI)
    /// for temporal navigation with numeric occurrence indicators.
    pub fn shift_forward(&self, lo: u64, hi: u64, domain: &Interval) -> Option<Interval> {
        let start = self.start.checked_add(lo)?;
        let end = self.end.checked_add(hi)?;
        Interval { start, end }.intersect(domain)
    }

    /// Shifts the interval backward in time by `[lo, hi]` units (the `PREV[lo, hi]`
    /// operator), clamped to `domain`.  Returns `None` if the result is empty.
    pub fn shift_backward(&self, lo: u64, hi: u64, domain: &Interval) -> Option<Interval> {
        let start = self.start.saturating_sub(hi);
        if self.end < lo {
            return None;
        }
        let end = self.end - lo;
        if start > end {
            return None;
        }
        Interval { start, end }.intersect(domain)
    }

    /// Iterates over every time point of the interval in increasing order.
    pub fn points(&self) -> impl Iterator<Item = Time> + '_ {
        self.start..=self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl From<(Time, Time)> for Interval {
    fn from((start, end): (Time, Time)) -> Self {
        Interval::of(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::of(3, 8);
        assert_eq!(i.start(), 3);
        assert_eq!(i.end(), 8);
        assert_eq!(i.num_points(), 6);
        assert!(Interval::new(5, 4).is_err());
        assert_eq!(Interval::point(7), Interval::of(7, 7));
    }

    #[test]
    fn point_counts_reach_the_end_of_time() {
        assert_eq!(Interval::of(0, Time::MAX).num_points(), u128::from(Time::MAX) + 1);
        assert_eq!(Interval::point(Time::MAX).num_points(), 1);
    }

    #[test]
    fn containment() {
        let i = Interval::of(2, 6);
        assert!(i.contains(2) && i.contains(6) && i.contains(4));
        assert!(!i.contains(1) && !i.contains(7));
        assert!(Interval::of(3, 5).during(&i));
        assert!(i.during(&i));
        assert!(!Interval::of(1, 5).during(&i));
        assert!(i.contains_interval(&Interval::of(2, 2)));
    }

    #[test]
    fn allen_relations() {
        // [1,4] meets [5,6]: adjacent.
        assert!(Interval::of(1, 4).meets(&Interval::of(5, 6)));
        assert!(!Interval::of(1, 4).meets(&Interval::of(6, 7)));
        // [1,2] is before [6,8].
        assert!(Interval::of(1, 2).before(&Interval::of(6, 8)));
        assert!(!Interval::of(1, 4).before(&Interval::of(5, 6)));
        assert!(Interval::of(1, 4).overlaps(&Interval::of(4, 9)));
        assert!(!Interval::of(1, 4).overlaps(&Interval::of(5, 9)));
        assert!(Interval::of(1, 4).overlaps_or_meets(&Interval::of(5, 9)));
        // Nothing meets or follows an interval ending at the last time point.
        let last = Interval::of(5, Time::MAX);
        assert!(!last.meets(&Interval::of(0, 3)) && !last.before(&Interval::of(0, 3)));
        assert!(Interval::of(0, 4).meets(&last) && Interval::of(0, 3).before(&last));
    }

    #[test]
    fn intersection_and_union() {
        let a = Interval::of(1, 5);
        let b = Interval::of(4, 9);
        assert_eq!(a.intersect(&b), Some(Interval::of(4, 5)));
        assert_eq!(a.intersect(&Interval::of(7, 9)), None);
        assert_eq!(a.union_adjacent(&b), Some(Interval::of(1, 9)));
        assert_eq!(a.union_adjacent(&Interval::of(6, 9)), Some(Interval::of(1, 9)));
        assert_eq!(a.union_adjacent(&Interval::of(7, 9)), None);
        assert_eq!(a.hull(&Interval::of(7, 9)), Interval::of(1, 9));
    }

    #[test]
    fn temporal_shifts() {
        let dom = Interval::of(0, 20);
        let i = Interval::of(5, 7);
        // NEXT[0,3]: reachable times are [5, 10].
        assert_eq!(i.shift_forward(0, 3, &dom), Some(Interval::of(5, 10)));
        // PREV[2,4]: reachable times are [1, 5].
        assert_eq!(i.shift_backward(2, 4, &dom), Some(Interval::of(1, 5)));
        // Shift past the start of time is clamped.
        assert_eq!(Interval::of(1, 2).shift_backward(0, 10, &dom), Some(Interval::of(0, 2)));
        // Entirely before time 0.
        assert_eq!(Interval::of(1, 2).shift_backward(5, 10, &dom), None);
        // Clamped by the domain on the right.
        assert_eq!(Interval::of(18, 19).shift_forward(1, 5, &dom), Some(Interval::of(19, 20)));
        assert_eq!(Interval::of(25, 30).shift_forward(0, 0, &dom), None);
    }

    #[test]
    fn point_iteration() {
        let pts: Vec<Time> = Interval::of(3, 6).points().collect();
        assert_eq!(pts, vec![3, 4, 5, 6]);
    }
}
