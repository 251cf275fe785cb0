//! The benchmark's own arithmetic: order statistics over latency samples, the
//! seeded generator behind every rotation, and open-loop schedule lateness.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it.  0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even-sized set so a
/// two-class mixture does not flip between its classes run to run.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten samples
/// beyond it — the tail a sample count can honestly support.  `None` below 40
/// samples, where not even p75 qualifies.
pub fn tail_percentile(count: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| count - (f64::from(p) / 100.0 * count as f64).ceil() as usize >= 10)
}

/// That tail of `samples_ms`, spelled out for a run's printed summary.
pub fn tail_note(samples_ms: &[f64]) -> String {
    tail_percentile(samples_ms.len()).map_or("none".to_owned(), |p| {
        format!("p{p} = {:.3} ms", quantile(samples_ms, f64::from(p) / 100.0))
    })
}

/// SplitMix64: the benchmark's only source of randomness, so a `--seed` fixes
/// every sub-seed and every request rotation.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The generator seed of a run's `index`-th graph or stream: `--seed` itself for
/// the first, then seeds a fixed stride apart.  What a query costs swings with
/// the generator seed, so a run measures several and averages them.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64 * 0x9e37_79b9)
}

/// The mean over the groups `0..groups` of `value` of each group's items,
/// leaving out a group with no items: a run's passes grouped by the stream they
/// ran on.  Pooled instead, a median would be the middle stream's and swing with
/// the seed.
pub fn mean_over_groups<T>(
    items: &[T],
    groups: usize,
    group_of: impl Fn(&T) -> usize,
    value: impl Fn(&[&T]) -> f64,
) -> f64 {
    let values: Vec<f64> = (0..groups)
        .map(|group| items.iter().filter(|item| group_of(item) == group).collect::<Vec<&T>>())
        .filter(|of_group| !of_group.is_empty())
        .map(|of_group| value(&of_group))
        .collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// How late an open-loop generator ran: for each operation, the time between
/// when it was due (`index · period`) and when it actually started, never
/// negative.  Starts are offsets from the schedule's origin, in the period's unit.
pub fn lateness(starts: &[f64], period: f64) -> Vec<f64> {
    starts.iter().enumerate().map(|(i, &start)| (start - i as f64 * period).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_the_nearest_rank_rule() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.95), 95.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn a_seed_fixes_the_rotation() {
        let mut a: Vec<u32> = (0..15).collect();
        let mut b = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<u32>>());
        assert_ne!(SplitMix64(7).next_u64(), SplitMix64(8).next_u64());
    }

    #[test]
    fn groups_are_averaged_and_empty_ones_left_out() {
        // Group 0: median 2, group 2: median 10, group 1 empty.
        let items = [(0, 1.0), (0, 2.0), (0, 9.0), (2, 10.0)];
        let mean = mean_over_groups(
            &items,
            3,
            |item| item.0,
            |of_group| median(&of_group.iter().map(|item| item.1).collect::<Vec<_>>()),
        );
        assert_eq!(mean, 6.0);
        assert_eq!(mean_over_groups(&items[..0], 3, |item| item.0, |_| 1.0), 0.0);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        // Due at 0, 100, 200, 300: on time, 5 late, early (clamped), 150 late.
        assert_eq!(lateness(&[0.0, 105.0, 190.0, 450.0], 100.0), vec![0.0, 5.0, 0.0, 150.0]);
    }
}
