//! Coalesced families of intervals (the `FC` sets of Appendix A).
//!
//! A finite family of intervals is *coalesced* when its intervals are pairwise
//! disjoint, non-adjacent, and stored in increasing order: every interval is strictly
//! *before* the next one (there is a gap of at least one time point between them).
//! Point-based temporal semantics requires the interval-timestamped representation to
//! be coalesced, and this property is maintained through all operations.

use std::fmt;

use crate::interval::{Interval, Time};

/// A coalesced, ordered set of intervals.  Conceptually a finite set of time points,
/// stored compactly as maximal intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set of time points.
    pub fn empty() -> Self {
        IntervalSet { intervals: Vec::new() }
    }

    /// A set containing a single interval.
    pub fn from_interval(interval: Interval) -> Self {
        IntervalSet { intervals: vec![interval] }
    }

    /// Builds a coalesced set from an arbitrary collection of intervals, merging
    /// overlapping and adjacent intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut v: Vec<Interval> = intervals.into_iter().collect();
        v.sort_by_key(|i| (i.start(), i.end()));
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match out.last_mut() {
                Some(last) if last.overlaps_or_meets(&iv) => {
                    *last = last
                        .union_adjacent(&iv)
                        .expect("overlapping or adjacent intervals coalesce");
                }
                _ => out.push(iv),
            }
        }
        IntervalSet { intervals: out }
    }

    /// Builds a coalesced set from a collection of time points.
    pub fn from_points<I: IntoIterator<Item = Time>>(points: I) -> Self {
        IntervalSet::from_intervals(points.into_iter().map(Interval::point))
    }

    /// True if the set contains no time point.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The number of maximal intervals in the set.
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// The total number of time points in the set.
    pub fn num_points(&self) -> u128 {
        self.intervals.iter().map(|i| i.num_points()).sum()
    }

    /// The maximal intervals, in increasing order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The earliest time point of the set, if any.
    pub fn min(&self) -> Option<Time> {
        self.intervals.first().map(|i| i.start())
    }

    /// The latest time point of the set, if any.
    pub fn max(&self) -> Option<Time> {
        self.intervals.last().map(|i| i.end())
    }

    /// True if the set contains the time point `t` (binary search over the maximal
    /// intervals).
    pub fn contains(&self, t: Time) -> bool {
        self.intervals
            .binary_search_by(|iv| {
                if iv.end() < t {
                    std::cmp::Ordering::Less
                } else if iv.start() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The earliest time point of `intervals` (sorted and disjoint) that the
    /// set does not contain — the minimum of their difference with the set,
    /// found without building it.
    pub fn first_missing(&self, intervals: &[Interval]) -> Option<Time> {
        // `own[at..]` are the set's intervals not ending before the current one.
        let (own, mut at) = (&self.intervals, 0);
        for interval in intervals {
            at += own[at..].partition_point(|iv| iv.end() < interval.start());
            match own.get(at) {
                // Coalesced: the point after a covering interval is missing.
                Some(iv) if iv.start() <= interval.start() => {
                    if iv.end() < interval.end() {
                        return Some(iv.end() + 1);
                    }
                }
                _ => return Some(interval.start()),
            }
        }
        None
    }

    /// Adds a single interval to the set, preserving coalescing.
    pub fn insert(&mut self, interval: Interval) {
        // Find the insertion window of intervals that overlap or meet the new one.
        let mut merged = interval;
        let mut first = self.intervals.len();
        let mut last = self.intervals.len();
        for (idx, iv) in self.intervals.iter().enumerate() {
            if iv.overlaps_or_meets(&merged) {
                if first == self.intervals.len() {
                    first = idx;
                }
                last = idx + 1;
                merged =
                    merged.union_adjacent(iv).expect("overlapping or adjacent intervals coalesce");
            } else if merged.before(iv) {
                if first == self.intervals.len() {
                    first = idx;
                    last = idx;
                }
                break;
            }
        }
        if first == self.intervals.len() {
            self.intervals.push(merged);
        } else {
            self.intervals.splice(first..last, std::iter::once(merged));
        }
    }

    /// Adds a single time point to the set, preserving coalescing.
    pub fn insert_point(&mut self, t: Time) {
        self.insert(Interval::point(t));
    }

    /// The set union of two interval sets (coalesced).
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_intervals(self.intervals.iter().chain(other.intervals.iter()).copied())
    }

    /// The set intersection of two interval sets (coalesced).  Linear merge over the
    /// two sorted interval lists.
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.intervals.len() && j < other.intervals.len() {
            let a = &self.intervals[i];
            let b = &other.intervals[j];
            if let Some(x) = a.intersect(b) {
                out.push(x);
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { intervals: out }
    }

    /// The set difference `self ∖ other` (coalesced).  Linear merge over the two
    /// sorted interval lists: each interval of `self` is carved by the intervals of
    /// `other` that overlap it, and the surviving pieces are emitted in order.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0usize;
        for iv in &self.intervals {
            // `lo` is the first time point of `iv` not yet covered by `other`.
            let mut lo = iv.start();
            let mut consumed = false;
            while j < other.intervals.len() && other.intervals[j].end() < iv.start() {
                j += 1;
            }
            let mut k = j;
            while k < other.intervals.len() && other.intervals[k].start() <= iv.end() {
                let cut = &other.intervals[k];
                if cut.start() > lo {
                    out.push(Interval::of(lo, cut.start() - 1));
                }
                if cut.end() >= iv.end() {
                    consumed = true;
                    break;
                }
                lo = cut.end() + 1;
                k += 1;
            }
            if !consumed && lo <= iv.end() {
                out.push(Interval::of(lo, iv.end()));
            }
        }
        IntervalSet { intervals: out }
    }

    /// Restricts the set to the time points that fall inside `window`.
    pub fn clamp(&self, window: &Interval) -> IntervalSet {
        IntervalSet {
            intervals: self.intervals.iter().filter_map(|iv| iv.intersect(window)).collect(),
        }
    }

    /// True if every interval of `self` occurs during some interval of `other`
    /// (the containment relation `⊑` of Appendix A).
    pub fn contained_in(&self, other: &IntervalSet) -> bool {
        self.intervals.iter().all(|iv| other.intervals.iter().any(|o| iv.during(o)))
    }

    /// True if the two sets share at least one time point.
    pub fn intersects(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.intervals.len() && j < other.intervals.len() {
            let a = &self.intervals[i];
            let b = &other.intervals[j];
            if a.overlaps(b) {
                return true;
            }
            if a.end() < b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// True if the set contains at least one point of `interval`: a binary
    /// search for the first interval ending at or after its start.
    pub fn intersects_interval(&self, interval: &Interval) -> bool {
        let first = self.intervals.partition_point(|iv| iv.end() < interval.start());
        self.intervals.get(first).is_some_and(|iv| iv.start() <= interval.end())
    }

    /// Iterates over every time point of the set in increasing order.
    pub fn points(&self) -> impl Iterator<Item = Time> + '_ {
        self.intervals.iter().flat_map(|iv| iv.points())
    }

    /// Checks the coalescing invariant: intervals are sorted and pairwise *before*
    /// each other.  Used by tests and debug assertions.
    pub fn is_coalesced(&self) -> bool {
        self.intervals.windows(2).all(|w| w[0].before(&w[1]))
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl FromIterator<Time> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Time>>(iter: I) -> Self {
        IntervalSet::from_points(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: Time, b: Time) -> Interval {
        Interval::of(a, b)
    }

    #[test]
    fn from_points_coalesces_maximally() {
        // Example from Section III.B: ξ(n,1)=ξ(n,2)=ξ(n,3)=ξ(n,5)=true, ξ(n,4)=false
        // must yield {[1,3],[5,5]}, not {[1,2],[3,3],[5,5]}.
        let s = IntervalSet::from_points([1, 2, 3, 5]);
        assert_eq!(s.intervals(), &[iv(1, 3), iv(5, 5)]);
        assert!(s.is_coalesced());
    }

    #[test]
    fn inserts_reaching_the_end_of_time_coalesce() {
        let mut s = IntervalSet::from_interval(iv(0, 3));
        s.insert(iv(5, Time::MAX));
        assert_eq!(s.intervals(), &[iv(0, 3), iv(5, Time::MAX)]);
        s.insert(iv(2, 4));
        assert_eq!(s.intervals(), &[iv(0, Time::MAX)]);
        let mut s = IntervalSet::from_interval(iv(7, Time::MAX));
        s.insert(iv(1, 2));
        assert_eq!(s.intervals(), &[iv(1, 2), iv(7, Time::MAX)]);
    }

    #[test]
    fn from_intervals_merges_adjacent_and_overlapping() {
        let s = IntervalSet::from_intervals([iv(1, 2), iv(3, 4), iv(6, 8), iv(7, 10)]);
        assert_eq!(s.intervals(), &[iv(1, 4), iv(6, 10)]);
        assert!(s.is_coalesced());
    }

    #[test]
    fn point_counts_reach_the_end_of_time() {
        let all = IntervalSet::from_interval(iv(0, Time::MAX));
        assert_eq!(all.num_points(), u128::from(Time::MAX) + 1);
        assert_eq!(IntervalSet::from_interval(iv(Time::MAX, Time::MAX)).num_points(), 1);
        let tail = IntervalSet::from_intervals([iv(0, 9), iv(20, Time::MAX)]);
        assert_eq!(tail.num_points(), 10 + u128::from(Time::MAX - 20) + 1);
    }

    #[test]
    fn membership_and_counts() {
        let s = IntervalSet::from_intervals([iv(1, 4), iv(6, 8)]);
        assert!(s.contains(1) && s.contains(4) && s.contains(7));
        assert!(!s.contains(5) && !s.contains(0) && !s.contains(9));
        assert_eq!(s.num_points(), 7);
        assert_eq!(s.num_intervals(), 2);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(8));
        assert!(IntervalSet::empty().is_empty());
    }

    #[test]
    fn insert_preserves_coalescing() {
        let mut s = IntervalSet::from_intervals([iv(1, 2), iv(6, 8), iv(12, 14)]);
        s.insert(iv(3, 5)); // bridges the first two.
        assert_eq!(s.intervals(), &[iv(1, 8), iv(12, 14)]);
        s.insert_point(10);
        assert_eq!(s.intervals(), &[iv(1, 8), iv(10, 10), iv(12, 14)]);
        s.insert(iv(9, 20));
        assert_eq!(s.intervals(), &[iv(1, 20)]);
        assert!(s.is_coalesced());
    }

    #[test]
    fn insert_into_empty_and_at_ends() {
        let mut s = IntervalSet::empty();
        s.insert(iv(5, 6));
        s.insert(iv(1, 2));
        s.insert(iv(9, 9));
        assert_eq!(s.intervals(), &[iv(1, 2), iv(5, 6), iv(9, 9)]);
    }

    #[test]
    fn difference_with_a_cut_ending_at_time_max() {
        let all = IntervalSet::from_interval(iv(0, Time::MAX));
        let tail = IntervalSet::from_interval(iv(5, Time::MAX));
        assert_eq!(all.difference(&tail).intervals(), &[iv(0, 4)]);
        assert!(IntervalSet::from_interval(iv(9, Time::MAX)).difference(&all).is_empty());
        let cuts = IntervalSet::from_intervals([iv(3, 4), iv(Time::MAX, Time::MAX)]);
        assert_eq!(all.difference(&cuts).intervals(), &[iv(0, 2), iv(5, Time::MAX - 1)]);
        let last = IntervalSet::from_intervals([iv(0, 1), iv(Time::MAX - 1, Time::MAX)]);
        assert_eq!(last.difference(&tail).intervals(), &[iv(0, 1)]);
    }

    #[test]
    fn difference_carves_out_covered_points() {
        let a = IntervalSet::from_intervals([iv(1, 10)]);
        let b = IntervalSet::from_intervals([iv(3, 4), iv(7, 7)]);
        assert_eq!(a.difference(&b).intervals(), &[iv(1, 2), iv(5, 6), iv(8, 10)]);
        // Covering set removes everything; empty subtrahend removes nothing.
        assert!(a.difference(&IntervalSet::from_interval(iv(0, 12))).is_empty());
        assert_eq!(a.difference(&IntervalSet::empty()), a);
        assert!(IntervalSet::empty().difference(&a).is_empty());
        // Partial overlaps at both ends, across several intervals of self.
        let c = IntervalSet::from_intervals([iv(0, 2), iv(5, 6), iv(9, 12)]);
        let d = IntervalSet::from_intervals([iv(2, 5), iv(11, 20)]);
        assert_eq!(c.difference(&d).intervals(), &[iv(0, 1), iv(6, 6), iv(9, 10)]);
        assert!(c.difference(&d).is_coalesced());
        // Point-wise cross-check.
        for t in 0..=20 {
            assert_eq!(c.difference(&d).contains(t), c.contains(t) && !d.contains(t), "t={t}");
        }
    }

    #[test]
    fn union_and_intersection() {
        let a = IntervalSet::from_intervals([iv(1, 4), iv(8, 10)]);
        let b = IntervalSet::from_intervals([iv(3, 6), iv(9, 12)]);
        assert_eq!(a.union(&b).intervals(), &[iv(1, 6), iv(8, 12)]);
        assert_eq!(a.intersection(&b).intervals(), &[iv(3, 4), iv(9, 10)]);
        assert!(a.intersects(&b));
        let c = IntervalSet::from_intervals([iv(5, 7)]);
        assert!(!a.intersects(&c));
        assert!(a.intersects_interval(&iv(4, 5)));
        assert!(!a.intersects_interval(&iv(5, 7)));
        assert!(a.intersects_interval(&iv(0, 1)) && a.intersects_interval(&iv(10, 20)));
        assert!(!a.intersects_interval(&iv(0, 0)) && !a.intersects_interval(&iv(11, 20)));
        assert!(
            a.intersects_interval(&iv(2, 9))
                && !IntervalSet::empty().intersects_interval(&iv(2, 9))
        );
    }

    #[test]
    fn containment_relation() {
        // F1 ⊑ F2 iff every interval of F1 occurs during an interval of F2.
        let f1 = IntervalSet::from_intervals([iv(2, 3), iv(9, 9)]);
        let f2 = IntervalSet::from_intervals([iv(1, 4), iv(8, 10)]);
        assert!(f1.contained_in(&f2));
        assert!(!f2.contained_in(&f1));
        assert!(IntervalSet::empty().contained_in(&f1));
    }

    #[test]
    fn clamp_restricts_to_window() {
        let s = IntervalSet::from_intervals([iv(1, 4), iv(8, 10)]);
        assert_eq!(s.clamp(&iv(3, 9)).intervals(), &[iv(3, 4), iv(8, 9)]);
        assert!(s.clamp(&iv(5, 7)).is_empty());
    }

    #[test]
    fn point_iteration_is_sorted() {
        let s = IntervalSet::from_intervals([iv(1, 2), iv(5, 6)]);
        assert_eq!(s.points().collect::<Vec<_>>(), vec![1, 2, 5, 6]);
    }

    #[test]
    fn the_first_missing_point_is_the_minimum_of_the_difference() {
        let set = IntervalSet::from_intervals([iv(2, 4), iv(7, 9), iv(12, Time::MAX)]);
        let cases: [&[Interval]; 9] = [
            &[],
            &[iv(2, 4)],
            &[iv(3, 3), iv(8, 9), iv(20, Time::MAX)],
            &[iv(1, 3)],
            &[iv(3, 5)],
            &[iv(2, 4), iv(6, 6)],
            &[iv(8, 13)],
            &[iv(10, 11)],
            &[iv(0, 1), iv(Time::MAX, Time::MAX)],
        ];
        for intervals in cases {
            let expected =
                IntervalSet::from_intervals(intervals.iter().copied()).difference(&set).min();
            assert_eq!(set.first_missing(intervals), expected, "{intervals:?}");
        }
        assert_eq!(IntervalSet::empty().first_missing(&[iv(5, 6)]), Some(5));
    }
}
