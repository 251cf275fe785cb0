//! Property tests pinning the sorted/merge operators to their references: on
//! arbitrary keyed interval relations,
//!
//! * `interval_merge_join` produces the same multiset of joined rows as
//!   `interval_hash_join`, and its galloping variant exactly the same rows;
//! * `kway_merge_dedup` of sorted runs equals sorting and deduplicating their
//!   concatenation.

use proptest::prelude::*;

use dataflow::{
    interval_hash_join, interval_merge_join, interval_merge_join_gallop, kway_merge_dedup,
};
use tgraph::Interval;

const MAX_TIME: u64 = 15;
const MAX_KEY: u32 = 5;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Row {
    key: u32,
    interval: Interval,
    id: u32,
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=4u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0..=MAX_KEY, interval_strategy()), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (key, interval))| Row { key, interval, id: id as u32 })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interval_merge_join_equals_interval_hash_join(
        mut left in rows_strategy(),
        mut right in rows_strategy(),
    ) {
        // The merge join requires key-sorted inputs; the hash join accepts any order
        // but produces the same multiset either way.
        left.sort();
        right.sort();
        let mut merged: Vec<(u32, u32, Interval)> =
            interval_merge_join(&left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval)
                .into_iter()
                .map(|(l, r, iv)| (l.id, r.id, iv))
                .collect();
        let mut hashed: Vec<(u32, u32, Interval)> =
            interval_hash_join(&left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval)
                .into_iter()
                .map(|(l, r, iv)| (l.id, r.id, iv))
                .collect();
        merged.sort_unstable();
        hashed.sort_unstable();
        prop_assert_eq!(merged, hashed);
    }

    #[test]
    fn galloping_merge_join_equals_the_linear_merge_join(
        mut left in rows_strategy(),
        mut right in rows_strategy(),
    ) {
        // The galloping group seeks must not change the join output in any way —
        // same rows, same order (both joins emit left-major key-group order).
        left.sort();
        right.sort();
        let plain: Vec<(u32, u32, Interval)> =
            interval_merge_join(&left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval)
                .into_iter()
                .map(|(l, r, iv)| (l.id, r.id, iv))
                .collect();
        let galloped: Vec<(u32, u32, Interval)> = interval_merge_join_gallop(
            &left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval,
        )
        .into_iter()
        .map(|(l, r, iv)| (l.id, r.id, iv))
        .collect();
        prop_assert_eq!(plain, galloped);
    }

    #[test]
    fn semi_naive_delta_rounds_agree_across_join_strategies(
        mut edges in rows_strategy(),
        seeds in prop::collection::vec((0..=MAX_KEY, interval_strategy()), 1..8),
    ) {
        // The closure operator's semi-naive loop joins a frontier of
        // (key, interval) deltas against an adjacency relation once per round,
        // coalescing the results between rounds.  Both physical join strategies must
        // produce the same canonical frontier at every round.  `Row.id` doubles as
        // the destination key, wrapped into the key range.
        edges.sort();
        let canonical = |joined: Vec<(u32, Interval)>| -> Vec<(u32, Interval)> {
            let mut grouped: std::collections::BTreeMap<u32, Vec<Interval>> = Default::default();
            for (key, iv) in joined {
                grouped.entry(key).or_default().push(iv);
            }
            grouped
                .into_iter()
                .flat_map(|(key, ivs)| {
                    tgraph::IntervalSet::from_intervals(ivs)
                        .intervals()
                        .iter()
                        .map(move |&iv| (key, iv))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let destination = |r: &Row| r.id % (MAX_KEY + 1);

        let mut frontier = canonical(seeds);
        for round in 0..3 {
            let hashed: Vec<(u32, Interval)> = interval_hash_join(
                &frontier,
                &edges,
                |f| f.0,
                |r| r.key,
                |f| f.1,
                |r| r.interval,
            )
            .into_iter()
            .map(|(_, r, iv)| (destination(r), iv))
            .collect();
            // The frontier is canonical, hence key-sorted — exactly what the merge
            // path requires.
            let merged: Vec<(u32, Interval)> = interval_merge_join(
                &frontier,
                &edges,
                |f| f.0 as usize,
                |r| r.key as usize,
                |f| f.1,
                |r| r.interval,
            )
            .into_iter()
            .map(|(_, r, iv)| (destination(r), iv))
            .collect();
            let next = canonical(hashed);
            prop_assert_eq!(&next, &canonical(merged), "round {} diverged", round);
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
    }

    #[test]
    fn kway_merge_dedup_equals_sort_dedup(runs in prop::collection::vec(
        prop::collection::vec(0..50u32, 0..12), 0..5,
    )) {
        let mut sorted_runs = runs.clone();
        for run in &mut sorted_runs {
            run.sort_unstable();
        }
        let merged = kway_merge_dedup(sorted_runs);
        let mut reference: Vec<u32> = runs.into_iter().flatten().collect();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(merged, reference);
    }
}
