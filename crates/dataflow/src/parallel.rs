//! A chunked data-parallel executor built on `std::thread::scope`.
//!
//! The paper's implementation uses Rayon as "an interface over dataflow operators";
//! this module provides the same programming model — split an input collection into
//! chunks, apply an operator to every chunk on its own worker thread, and concatenate
//! the per-chunk outputs — with an explicit, configurable degree of parallelism.

use std::num::NonZeroUsize;

/// Degree of parallelism for the chunked operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Runs everything on the calling thread.
    pub fn sequential() -> Self {
        Parallelism { threads: NonZeroUsize::new(1).unwrap() }
    }

    /// Uses exactly `threads` worker threads (values of zero are clamped to one).
    pub fn with_threads(threads: usize) -> Self {
        Parallelism { threads: NonZeroUsize::new(threads.max(1)).unwrap() }
    }

    /// Uses one worker per available CPU core.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Parallelism::with_threads(threads)
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// Applies `op` to roughly equal chunks of `items` in parallel and concatenates the
/// results in chunk order.  The operator receives each chunk as a slice.
///
/// Produces exactly `min(threads, items.len())` chunks whose sizes differ by at most
/// one, so every worker gets work and no worker gets a disproportionate share (a
/// ceiling-division chunk size can leave workers idle — e.g. 9 items over 4 threads
/// used to become three chunks of 3 with one thread unused).
pub fn par_chunk_flat_map<T, U, F>(items: &[T], parallelism: Parallelism, op: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> Vec<U> + Sync,
{
    let threads = parallelism.threads().min(items.len());
    if threads <= 1 {
        return op(items);
    }
    let chunks = balanced_chunks(items, threads);
    let op = &op;
    let results: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.iter().map(|chunk| scope.spawn(move || op(chunk))).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("dataflow worker thread panicked"))
            .collect()
    });
    let total: usize = results.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for r in results {
        out.extend(r);
    }
    out
}

/// Splits `items` into exactly `chunks` non-empty slices whose lengths differ by at
/// most one, preserving order.  Requires `1 <= chunks <= items.len()`.
fn balanced_chunks<T>(items: &[T], chunks: usize) -> Vec<&[T]> {
    debug_assert!(chunks >= 1 && chunks <= items.len());
    let base = items.len() / chunks;
    let remainder = items.len() % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for index in 0..chunks {
        let size = base + usize::from(index < remainder);
        out.push(&items[start..start + size]);
        start += size;
    }
    debug_assert_eq!(start, items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_configuration() {
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert_eq!(Parallelism::with_threads(0).threads(), 1);
        assert_eq!(Parallelism::with_threads(7).threads(), 7);
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn chunked_flat_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let doubled = par_chunk_flat_map(&items, Parallelism::with_threads(threads), |chunk| {
                chunk.iter().map(|x| x * 2).collect()
            });
            assert_eq!(
                doubled,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_filter_and_flat_map() {
        // Chunk operators whose outputs shrink or grow still concatenate in order.
        let items: Vec<u64> = (0..100).collect();
        let p = Parallelism::with_threads(4);
        let run = |op: fn(&u64) -> Vec<u64>| {
            par_chunk_flat_map(&items, p, |chunk| chunk.iter().flat_map(op).collect())
        };
        assert_eq!(run(|x| vec![x + 1])[99], 100);
        assert_eq!(run(|x| if x % 2 == 0 { vec![*x] } else { vec![] }).len(), 50);
        let expanded = run(|x| vec![*x, *x]);
        assert_eq!(expanded.len(), 200);
        assert_eq!(&expanded[0..4], &[0, 0, 1, 1]);
    }

    /// Records the chunk sizes `par_chunk_flat_map` actually hands to workers.
    fn observed_chunk_sizes(len: usize, threads: usize) -> Vec<usize> {
        let items: Vec<u64> = (0..len as u64).collect();
        let sizes = std::sync::Mutex::new(Vec::new());
        let result = par_chunk_flat_map(&items, Parallelism::with_threads(threads), |chunk| {
            sizes.lock().unwrap().push(chunk.len());
            chunk.to_vec()
        });
        assert_eq!(result, items, "len={len} threads={threads}");
        let mut sizes = sizes.into_inner().unwrap();
        sizes.sort_unstable();
        sizes
    }

    #[test]
    fn chunks_are_balanced_and_use_every_worker() {
        // Regression: ceiling-division sizing used to produce fewer chunks than
        // workers (9 items / 4 threads -> three chunks of 3) and, in the worst case,
        // one oversized chunk for everything.
        assert_eq!(observed_chunk_sizes(9, 4), vec![2, 2, 2, 3]);
        assert_eq!(observed_chunk_sizes(5, 4), vec![1, 1, 1, 2]);
        assert_eq!(observed_chunk_sizes(1000, 3), vec![333, 333, 334]);
        // Small inputs: one chunk of one item per worker that can be fed.
        assert_eq!(observed_chunk_sizes(3, 16), vec![1, 1, 1]);
        for (len, threads) in [(2, 2), (7, 7), (64, 5), (100, 64)] {
            let sizes = observed_chunk_sizes(len, threads);
            assert_eq!(sizes.len(), len.min(threads), "len={len} threads={threads}");
            assert_eq!(sizes.iter().sum::<usize>(), len);
            assert!(sizes.last().unwrap() - sizes.first().unwrap() <= 1);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn degenerate_inputs() {
        let times_ten = |chunk: &[u64]| chunk.iter().map(|x| x * 10).collect::<Vec<_>>();
        assert!(par_chunk_flat_map(&[], Parallelism::with_threads(8), times_ten).is_empty());
        assert_eq!(par_chunk_flat_map(&[42], Parallelism::with_threads(8), times_ten), vec![420]);
        // More threads than items.
        let few: Vec<u64> = (0..3).collect();
        assert_eq!(
            par_chunk_flat_map(&few, Parallelism::with_threads(16), times_ten),
            vec![0, 10, 20]
        );
    }
}
