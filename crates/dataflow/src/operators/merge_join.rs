//! Sort-merge joins over key-sorted slices.
//!
//! The merge join is the order-exploiting counterpart of [`crate::operators::join`]:
//! when both inputs are sorted by the join key, a single linear pass pairs up the
//! matching key groups without building a hash table.  The interval variant keeps only
//! temporally-aligned matches, exactly like `interval_hash_join`.  The engine no longer
//! executes these kernels (its hops probe the adjacency indexes); the gallop variants
//! are read only by the benchmark's kernel timings and the plain variants are the
//! reference `tests/merge_equivalence.rs` pins them to.

use tgraph::Interval;

/// True if `key` is non-decreasing over `items` — the precondition of the merge joins.
fn is_key_sorted<T, K, F>(items: &[T], key: F) -> bool
where
    K: Ord,
    F: Fn(&T) -> K,
{
    items.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

/// Plain equi merge join: returns every pair of left and right rows with equal keys.
///
/// Both inputs **must** be sorted by their key (checked with a debug assertion); the
/// output is produced in left-major order (left groups in key order, the pairs of one
/// group in right order).  The result multiset is identical to
/// [`crate::operators::join::hash_join`] on the same inputs.
pub fn merge_join<'a, L, R, K, FL, FR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
) -> Vec<(&'a L, &'a R)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
{
    debug_assert!(is_key_sorted(left, &left_key), "merge_join: left input not key-sorted");
    debug_assert!(is_key_sorted(right, &right_key), "merge_join: right input not key-sorted");
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left_key(&left[i]);
        let rk = right_key(&right[j]);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            // Delimit the two key groups and emit their cross product.
            let i_end = group_end(left, i, &left_key);
            let j_end = group_end(right, j, &right_key);
            for l in &left[i..i_end] {
                for r in &right[j..j_end] {
                    out.push((l, r));
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// Temporally-aligned merge join: joins key-sorted rows with equal keys whose validity
/// intervals intersect, producing the intersection as the validity interval of the
/// output row.  The merge counterpart of
/// [`crate::operators::join::interval_hash_join`].
pub fn interval_merge_join<'a, L, R, K, FL, FR, IL, IR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
    left_interval: IL,
    right_interval: IR,
) -> Vec<(&'a L, &'a R, Interval)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
    IL: Fn(&L) -> Interval,
    IR: Fn(&R) -> Interval,
{
    merge_join(left, right, left_key, right_key)
        .into_iter()
        .filter_map(|(l, r)| left_interval(l).intersect(&right_interval(r)).map(|iv| (l, r, iv)))
        .collect()
}

/// Plain equi merge join with *galloping* group seeks: identical output to
/// [`merge_join`], but on a key mismatch the lagging side jumps to the next
/// candidate group with an exponential probe followed by a binary search instead
/// of advancing one row at a time.
///
/// A join that matches only a few key groups of a long key-sorted permutation
/// therefore costs `O(matches + Σ log(jump distance))` rather than
/// `O(|permutation|)` — the merge-path counterpart of probing a hash index,
/// while still streaming both inputs in order.
pub fn merge_join_gallop<'a, L, R, K, FL, FR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
) -> Vec<(&'a L, &'a R)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
{
    debug_assert!(is_key_sorted(left, &left_key), "merge_join_gallop: left input not key-sorted");
    debug_assert!(
        is_key_sorted(right, &right_key),
        "merge_join_gallop: right input not key-sorted"
    );
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left_key(&left[i]);
        let rk = right_key(&right[j]);
        if lk < rk {
            i = gallop_to(left, i, &left_key, &rk);
        } else if lk > rk {
            j = gallop_to(right, j, &right_key, &lk);
        } else {
            let i_end = group_end(left, i, &left_key);
            let j_end = group_end(right, j, &right_key);
            for l in &left[i..i_end] {
                for r in &right[j..j_end] {
                    out.push((l, r));
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// Temporally-aligned merge join with galloping group seeks: identical output to
/// [`interval_merge_join`], with the seek behaviour of [`merge_join_gallop`].
/// Run against the key-sorted row permutations, very selective probes stop paying
/// for the whole permutation.
pub fn interval_merge_join_gallop<'a, L, R, K, FL, FR, IL, IR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
    left_interval: IL,
    right_interval: IR,
) -> Vec<(&'a L, &'a R, Interval)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
    IL: Fn(&L) -> Interval,
    IR: Fn(&R) -> Interval,
{
    merge_join_gallop(left, right, left_key, right_key)
        .into_iter()
        .filter_map(|(l, r)| left_interval(l).intersect(&right_interval(r)).map(|iv| (l, r, iv)))
        .collect()
}

/// The first index `>= start` whose key is `>= target`, found by an exponential
/// probe (1, 2, 4, … steps) followed by a binary search of the overshot window —
/// `O(log d)` for a jump of distance `d`.
fn gallop_to<T, K, F>(items: &[T], start: usize, key: &F, target: &K) -> usize
where
    K: Ord,
    F: Fn(&T) -> K,
{
    if start >= items.len() || key(&items[start]) >= *target {
        return start;
    }
    // Invariant: items[lo] < target; items[hi..] is unexplored or >= target.
    let mut step = 1usize;
    let mut lo = start;
    let mut hi = start + step;
    while hi < items.len() && key(&items[hi]) < *target {
        lo = hi;
        step = step.saturating_mul(2);
        hi = lo + step;
    }
    let mut hi = hi.min(items.len());
    let mut next = lo + 1;
    while next < hi {
        let mid = next + (hi - next) / 2;
        if key(&items[mid]) < *target {
            next = mid + 1;
        } else {
            hi = mid;
        }
    }
    next
}

fn group_end<T, K, F>(items: &[T], start: usize, key: &F) -> usize
where
    K: Ord,
    F: Fn(&T) -> K,
{
    let k = key(&items[start]);
    let mut end = start + 1;
    while end < items.len() && key(&items[end]) == k {
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::join::{hash_join, interval_hash_join};

    #[derive(Debug, PartialEq)]
    struct Row {
        key: u32,
        interval: Interval,
        payload: &'static str,
    }

    fn row(key: u32, a: u64, b: u64, payload: &'static str) -> Row {
        Row { key, interval: Interval::of(a, b), payload }
    }

    #[test]
    fn merge_join_matches_hash_join_on_sorted_inputs() {
        let left =
            vec![row(1, 0, 5, "l1"), row(2, 0, 5, "l2"), row(2, 6, 9, "l2b"), row(4, 0, 9, "l4")];
        let right = vec![row(2, 0, 9, "r2"), row(2, 3, 4, "r2b"), row(3, 0, 9, "r3")];
        let mut merged: Vec<(&'static str, &'static str)> =
            merge_join(&left, &right, |l| l.key, |r| r.key)
                .into_iter()
                .map(|(l, r)| (l.payload, r.payload))
                .collect();
        let mut hashed: Vec<(&'static str, &'static str)> =
            hash_join(&left, &right, |l| l.key, |r| r.key)
                .into_iter()
                .map(|(l, r)| (l.payload, r.payload))
                .collect();
        merged.sort_unstable();
        hashed.sort_unstable();
        assert_eq!(merged, hashed);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn interval_merge_join_intersects_validity() {
        let people =
            vec![row(10, 1, 9, "ann"), row(20, 1, 4, "bob-low"), row(20, 5, 9, "bob-high")];
        let meets = vec![row(20, 3, 3, "cafe"), row(20, 5, 6, "park")];
        let joined = interval_merge_join(
            &people,
            &meets,
            |p| p.key,
            |m| m.key,
            |p| p.interval,
            |m| m.interval,
        );
        let mut described: Vec<(&str, &str, Interval)> =
            joined.iter().map(|(p, m, iv)| (p.payload, m.payload, *iv)).collect();
        described.sort_unstable();
        let mut expected = interval_hash_join(
            &people,
            &meets,
            |p| p.key,
            |m| m.key,
            |p| p.interval,
            |m| m.interval,
        )
        .into_iter()
        .map(|(p, m, iv)| (p.payload, m.payload, iv))
        .collect::<Vec<_>>();
        expected.sort_unstable();
        assert_eq!(described, expected);
        assert_eq!(
            described,
            vec![("bob-high", "park", Interval::of(5, 6)), ("bob-low", "cafe", Interval::of(3, 3))]
        );
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        let left = vec![row(1, 0, 2, "l")];
        let right: Vec<Row> = Vec::new();
        assert!(merge_join(&left, &right, |l| l.key, |r| r.key).is_empty());
        let right = vec![row(1, 3, 5, "r")];
        // Keys join but the intervals are disjoint.
        assert_eq!(merge_join(&left, &right, |l| l.key, |r| r.key).len(), 1);
        assert!(interval_merge_join(
            &left,
            &right,
            |l| l.key,
            |r| r.key,
            |l| l.interval,
            |r| r.interval
        )
        .is_empty());
    }

    #[test]
    fn galloping_join_matches_the_linear_scan() {
        // A few probe keys against a long, many-group "permutation": the gallop
        // must skip the unmatched groups without changing the result.
        let left = vec![row(7, 0, 9, "l7"), row(7, 2, 4, "l7b"), row(900, 0, 9, "l900")];
        let right: Vec<Row> =
            (0..1000u32).map(|k| row(k, (k % 5) as u64, (k % 5 + 3) as u64, "r")).collect();
        let plain: Vec<(u32, u32)> = merge_join(&left, &right, |l| l.key, |r| r.key)
            .into_iter()
            .map(|(l, r)| (l.key, r.key))
            .collect();
        let galloped: Vec<(u32, u32)> = merge_join_gallop(&left, &right, |l| l.key, |r| r.key)
            .into_iter()
            .map(|(l, r)| (l.key, r.key))
            .collect();
        assert_eq!(plain, galloped);
        assert_eq!(galloped.len(), 3);

        let plain_iv = interval_merge_join(
            &left,
            &right,
            |l| l.key,
            |r| r.key,
            |l| l.interval,
            |r| r.interval,
        );
        let galloped_iv = interval_merge_join_gallop(
            &left,
            &right,
            |l| l.key,
            |r| r.key,
            |l| l.interval,
            |r| r.interval,
        );
        assert_eq!(
            plain_iv.iter().map(|(l, r, iv)| (l.key, r.key, *iv)).collect::<Vec<_>>(),
            galloped_iv.iter().map(|(l, r, iv)| (l.key, r.key, *iv)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gallop_seeks_land_on_group_starts() {
        let items: Vec<u32> = vec![1, 1, 3, 3, 3, 8, 9, 9, 12];
        let key = |&x: &u32| x;
        assert_eq!(gallop_to(&items, 0, &key, &1), 0);
        assert_eq!(gallop_to(&items, 0, &key, &2), 2);
        assert_eq!(gallop_to(&items, 0, &key, &3), 2);
        assert_eq!(gallop_to(&items, 1, &key, &9), 6);
        assert_eq!(gallop_to(&items, 0, &key, &12), 8);
        assert_eq!(gallop_to(&items, 0, &key, &13), items.len());
        assert_eq!(gallop_to(&items, 8, &key, &1), 8);
        assert_eq!(gallop_to(&items, 9, &key, &1), 9);
        // Large jumps from every starting offset stay consistent with a scan.
        let long: Vec<u32> = (0..257).map(|i| i / 3).collect();
        for start in 0..long.len() {
            for target in [0u32, 1, 40, 85, 100] {
                let expected =
                    (start..long.len()).find(|&i| long[i] >= target).unwrap_or(long.len());
                assert_eq!(gallop_to(&long, start, &key, &target), expected, "{start} {target}");
            }
        }
    }

    #[test]
    fn sortedness_predicate() {
        assert!(is_key_sorted(&[1, 1, 2, 5], |&x| x));
        assert!(!is_key_sorted(&[1, 3, 2], |&x| x));
        assert!(is_key_sorted::<u32, u32, _>(&[], |&x| x));
    }
}
