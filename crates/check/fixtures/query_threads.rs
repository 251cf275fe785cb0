//! Seeded violation for the `query-threads` lint (never compiled; exercised
//! by `cargo run -p check -- --self-test`).

pub fn run_seeds(seed_rows: &[u32]) -> usize {
    // VIOLATION: splits one query's seeds across worker threads sized by the
    // core count; a query runs its seed batches on the thread that asks for it.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        let chunk = seed_rows.len().div_ceil(workers).max(1);
        let handles: Vec<_> =
            seed_rows.chunks(chunk).map(|rows| scope.spawn(move || rows.len())).collect();
        handles.into_iter().map(|handle| handle.join().unwrap_or(0)).sum()
    })
}
