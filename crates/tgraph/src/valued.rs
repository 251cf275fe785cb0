//! Coalesced families of *valued* intervals (the `vFC` sets of Appendix A), used to
//! represent the history of a property of a node or an edge in an ITPG.
//!
//! A family `{(v1, [a1,b1]), …, (vn, [an,bn])}` is coalesced when consecutive entries
//! are either strictly separated in time, or adjacent with *different* values; two
//! adjacent intervals carrying the same value must be stored as one interval.

use std::fmt;

use crate::interval::{Interval, Time};
use crate::interval_set::IntervalSet;
use crate::value::Value;

/// The value history of one property: a coalesced, time-ordered list of
/// `(value, interval)` pairs with non-overlapping intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValuedIntervals {
    entries: Vec<(Value, Interval)>,
}

impl ValuedIntervals {
    /// An empty history.
    pub fn empty() -> Self {
        ValuedIntervals { entries: Vec::new() }
    }

    /// Builds a coalesced history from arbitrary `(value, interval)` pairs.
    ///
    /// Overlapping intervals with conflicting values are resolved in favour of the
    /// pair appearing later in the input (last-write-wins), which matches the
    /// behaviour of the graph builders where later assignments overwrite earlier ones.
    pub fn from_entries<I: IntoIterator<Item = (Value, Interval)>>(entries: I) -> Self {
        let mut out = ValuedIntervals::empty();
        for (value, interval) in entries {
            out.assign(value, interval);
        }
        out
    }

    /// True if no value is recorded at any time point.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The number of `(value, interval)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries in increasing time order.
    pub fn entries(&self) -> &[(Value, Interval)] {
        &self.entries
    }

    /// The value of the property at time `t`, if any.
    pub fn value_at(&self, t: Time) -> Option<&Value> {
        let idx = self
            .entries
            .binary_search_by(|(_, iv)| {
                if iv.end() < t {
                    std::cmp::Ordering::Less
                } else if iv.start() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()?;
        Some(&self.entries[idx].0)
    }

    /// The set of time points at which the property takes the given value.
    pub fn support_of(&self, value: &Value) -> IntervalSet {
        IntervalSet::from_intervals(
            self.entries.iter().filter(|(v, _)| v == value).map(|(_, iv)| *iv),
        )
    }

    /// The set of time points at which the property has any value.
    pub fn support(&self) -> IntervalSet {
        IntervalSet::from_intervals(self.entries.iter().map(|(_, iv)| *iv))
    }

    /// Assigns `value` to the property over `interval`, overwriting any previous
    /// values in that range, and re-establishes the coalescing invariant.
    pub fn assign(&mut self, value: Value, interval: Interval) {
        // Collect the surviving fragments of existing entries plus the new one, then
        // rebuild.  Histories are short (a handful of changes per object), so the
        // simplicity of rebuilding wins over a clever in-place splice.
        let mut pieces: Vec<(Value, Interval)> = Vec::with_capacity(self.entries.len() + 1);
        for (v, iv) in self.entries.drain(..) {
            if let Some(overlap) = iv.intersect(&interval) {
                // Keep the part of the old entry before the overwritten range.
                if iv.start() < overlap.start() {
                    pieces.push((v.clone(), Interval::of(iv.start(), overlap.start() - 1)));
                }
                // Keep the part after.
                if iv.end() > overlap.end() {
                    pieces.push((v.clone(), Interval::of(overlap.end() + 1, iv.end())));
                }
            } else {
                pieces.push((v, iv));
            }
        }
        pieces.push((value, interval));
        pieces.sort_by_key(|(_, iv)| iv.start());
        // Coalesce adjacent entries with equal values.
        let mut out: Vec<(Value, Interval)> = Vec::with_capacity(pieces.len());
        for (v, iv) in pieces {
            match out.last_mut() {
                Some((lv, liv)) if *lv == v && (liv.overlaps_or_meets(&iv)) => {
                    *liv = liv.union_adjacent(&iv).expect("adjacent intervals coalesce");
                }
                _ => out.push((v, iv)),
            }
        }
        self.entries = out;
    }

    /// Checks the coalescing invariant of Appendix A: consecutive entries are either
    /// *before* each other, or *meet* with different values.
    pub fn is_coalesced(&self) -> bool {
        self.entries.windows(2).all(|w| {
            let (v1, i1) = &w[0];
            let (v2, i2) = &w[1];
            i1.before(i2) || (i1.meets(i2) && v1 != v2)
        })
    }

    /// Iterates over `(time, value)` pairs for every time point with a value.
    pub fn points(&self) -> impl Iterator<Item = (Time, &Value)> + '_ {
        self.entries.iter().flat_map(|(v, iv)| iv.points().map(move |t| (t, v)))
    }
}

impl fmt::Display for ValuedIntervals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, iv)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({v}, {iv})")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Value, Interval)> for ValuedIntervals {
    fn from_iter<I: IntoIterator<Item = (Value, Interval)>>(iter: I) -> Self {
        ValuedIntervals::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: Time, b: Time) -> Interval {
        Interval::of(a, b)
    }

    #[test]
    fn assign_and_lookup() {
        // risk history of node n2 from Figure 1: low on [1,4], high on [5,9].
        let mut h = ValuedIntervals::empty();
        h.assign(Value::str("low"), iv(1, 4));
        h.assign(Value::str("high"), iv(5, 9));
        assert_eq!(h.value_at(1), Some(&Value::str("low")));
        assert_eq!(h.value_at(4), Some(&Value::str("low")));
        assert_eq!(h.value_at(5), Some(&Value::str("high")));
        assert_eq!(h.value_at(9), Some(&Value::str("high")));
        assert_eq!(h.value_at(10), None);
        assert_eq!(h.value_at(0), None);
        assert!(h.is_coalesced());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn an_overwrite_reaching_time_max_keeps_no_piece_past_it() {
        // `[k, MAX]` inside `[0, MAX]`: the old entry keeps only `[0, k - 1]`, and
        // no piece starts past `MAX`.
        let mut h = ValuedIntervals::empty();
        h.assign(Value::str("low"), iv(0, Time::MAX));
        h.assign(Value::str("high"), iv(7, Time::MAX));
        assert_eq!(
            h.entries(),
            &[(Value::str("low"), iv(0, 6)), (Value::str("high"), iv(7, Time::MAX))]
        );
        // A point overwrite just below `MAX` keeps the piece `[MAX, MAX]` after it.
        h.assign(Value::str("low"), iv(Time::MAX - 1, Time::MAX - 1));
        assert_eq!(h.value_at(Time::MAX), Some(&Value::str("high")));
        assert_eq!(h.value_at(Time::MAX - 1), Some(&Value::str("low")));
        // Overwriting all of `[0, MAX]` leaves one entry.
        h.assign(Value::str("v"), iv(0, Time::MAX));
        assert_eq!(h.entries(), &[(Value::str("v"), iv(0, Time::MAX))]);
        assert!(h.is_coalesced());
    }

    #[test]
    fn adjacent_equal_values_coalesce() {
        // {(v,[1,2]),(v,[3,4])} is *not* coalesced per Appendix A; assigning both
        // must produce {(v,[1,4])}.
        let mut h = ValuedIntervals::empty();
        h.assign(Value::str("v"), iv(1, 2));
        h.assign(Value::str("v"), iv(3, 4));
        assert_eq!(h.entries(), &[(Value::str("v"), iv(1, 4))]);
        assert!(h.is_coalesced());
    }

    #[test]
    fn adjacent_different_values_stay_separate() {
        let h = ValuedIntervals::from_entries([
            (Value::str("v"), iv(1, 2)),
            (Value::str("w"), iv(3, 4)),
        ]);
        assert_eq!(h.len(), 2);
        assert!(h.is_coalesced());
    }

    #[test]
    fn overwrite_splits_previous_entries() {
        let mut h = ValuedIntervals::empty();
        h.assign(Value::str("a"), iv(1, 10));
        h.assign(Value::str("b"), iv(4, 6));
        assert_eq!(
            h.entries(),
            &[
                (Value::str("a"), iv(1, 3)),
                (Value::str("b"), iv(4, 6)),
                (Value::str("a"), iv(7, 10)),
            ]
        );
        assert!(h.is_coalesced());
        // Overwriting back with 'a' restores a single coalesced run.
        h.assign(Value::str("a"), iv(4, 6));
        assert_eq!(h.entries(), &[(Value::str("a"), iv(1, 10))]);
    }

    #[test]
    fn support_sets() {
        let h = ValuedIntervals::from_entries([
            (Value::str("low"), iv(1, 4)),
            (Value::str("high"), iv(5, 9)),
            (Value::str("low"), iv(12, 13)),
        ]);
        assert_eq!(h.support().intervals(), &[iv(1, 9), iv(12, 13)]);
        assert_eq!(h.support_of(&Value::str("low")).intervals(), &[iv(1, 4), iv(12, 13)]);
        assert_eq!(h.support_of(&Value::str("high")).intervals(), &[iv(5, 9)]);
        assert!(h.support_of(&Value::str("none")).is_empty());
    }

    #[test]
    fn point_iteration() {
        let mut h = ValuedIntervals::empty();
        h.assign(Value::Int(1), Interval::point(3));
        h.assign(Value::Int(2), Interval::point(4));
        let pts: Vec<(Time, i64)> = h.points().map(|(t, v)| (t, v.as_int().unwrap())).collect();
        assert_eq!(pts, vec![(3, 1), (4, 2)]);
    }
}
