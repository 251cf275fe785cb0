//! Temporal coalescing of keyed interval rows.
//!
//! Point-based temporal semantics requires value-equivalent, temporally adjacent rows
//! to be stored as a single row with the merged interval; this operator restores that
//! invariant after joins and unions, mirroring the "temporally coalesced" result
//! tables of Section VI.

use tgraph::Interval;

use crate::sorted::coalesce_sorted;

/// Coalesces `(key, interval)` rows: rows with the same key whose intervals overlap or
/// meet are merged into maximal intervals.  The output is sorted by key and interval.
///
/// Implemented as sort + one linear coalescing pass.
pub fn coalesce<K>(mut rows: Vec<(K, Interval)>) -> Vec<(K, Interval)>
where
    K: Ord + Clone,
{
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    coalesce_sorted(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_adjacent_and_overlapping_rows_per_key() {
        let rows = vec![
            ("a", Interval::of(1, 3)),
            ("a", Interval::of(4, 6)),
            ("a", Interval::of(9, 9)),
            ("b", Interval::of(2, 5)),
            ("b", Interval::of(4, 7)),
        ];
        let coalesced = coalesce(rows);
        assert_eq!(
            coalesced,
            vec![("a", Interval::of(1, 6)), ("a", Interval::of(9, 9)), ("b", Interval::of(2, 7)),]
        );
    }

    #[test]
    fn empty_input() {
        let rows: Vec<(&str, Interval)> = Vec::new();
        assert!(coalesce(rows).is_empty());
    }
}
