//! The merge machinery for sorted runs.
//!
//! [`kway_merge_dedup`] combines several sorted runs (for example the Step-3
//! expansions of a query's plan alternatives) into one sorted, duplicate-free run with a
//! binary heap instead of re-sorting the concatenation; `coalesce_sorted` is the
//! linear pass behind [`crate::operators::coalesce::coalesce`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tgraph::Interval;

/// Merges sorted runs into one sorted sequence with a binary heap.
///
/// Each run must be sorted (`Ord` on the element type); ties across runs are broken by
/// run index, making the merge deterministic.
fn kway_merge<T: Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<T>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some(head) = iter.next() {
            heap.push(Reverse((head, run)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((value, run))) = heap.pop() {
        out.push(value);
        if let Some(next) = iters[run].next() {
            heap.push(Reverse((next, run)));
        }
    }
    out
}

/// Merges sorted runs into one sorted sequence in which equal elements (within or
/// across runs) are emitted once — the order-exploiting rewrite of
/// `concatenate + sort + dedup` used to combine per-alternative outputs.
pub fn kway_merge_dedup<T: Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut out = kway_merge(runs);
    out.dedup();
    out
}

/// Coalesces `(key, interval)` rows that are sorted by `(key, interval.start)` in one
/// linear pass: rows with the same key whose intervals overlap or meet are merged into
/// maximal intervals.
pub(crate) fn coalesce_sorted<K, I>(rows: I) -> Vec<(K, Interval)>
where
    K: Ord + Clone,
    I: IntoIterator<Item = (K, Interval)>,
{
    let mut out: Vec<(K, Interval)> = Vec::new();
    let mut current: Option<(K, Interval)> = None;
    for (key, interval) in rows {
        if let Some((cur_key, cur_iv)) = &mut current {
            debug_assert!(
                (&*cur_key, cur_iv.start()) <= (&key, interval.start()),
                "coalesce_sorted: input rows not sorted by (key, start)"
            );
            // Overlapping or meeting: start ≤ end + 1.  `saturating_add` is exact here
            // because an interval ending at Time::MAX leaves no representable gap.
            if *cur_key == key && interval.start() <= cur_iv.end().saturating_add(1) {
                *cur_iv = Interval::of(cur_iv.start(), cur_iv.end().max(interval.end()));
                continue;
            }
            out.push((cur_key.clone(), *cur_iv));
        }
        current = Some((key, interval));
    }
    if let Some(last) = current {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::coalesce::coalesce;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    #[test]
    fn kway_merge_combines_runs_in_order() {
        let runs = vec![vec![1u32, 4, 9], vec![2, 2, 5], vec![], vec![3, 9]];
        assert_eq!(kway_merge(runs.clone()), vec![1, 2, 2, 3, 4, 5, 9, 9]);
        assert_eq!(kway_merge_dedup(runs), vec![1, 2, 3, 4, 5, 9]);
        assert_eq!(kway_merge::<u32>(vec![]), Vec::<u32>::new());
    }

    #[test]
    fn coalesce_sorted_matches_hash_coalesce() {
        let rows = vec![
            ("a", iv(1, 3)),
            ("a", iv(4, 6)),
            ("a", iv(9, 9)),
            ("b", iv(2, 5)),
            ("b", iv(4, 7)),
        ];
        assert_eq!(coalesce_sorted(rows.clone()), coalesce(rows));
        assert_eq!(coalesce_sorted(Vec::<(&str, Interval)>::new()), vec![]);
    }

    #[test]
    fn coalesce_kway_merges_across_runs() {
        // Sorted runs merged by `kway_merge` are sorted input for `coalesce_sorted`.
        let runs =
            vec![vec![("a", iv(1, 3)), ("b", iv(0, 0))], vec![("a", iv(4, 6)), ("b", iv(2, 4))]];
        let mut flat: Vec<(&str, Interval)> = runs.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(coalesce_sorted(kway_merge(runs)), coalesce(flat));
    }
}
