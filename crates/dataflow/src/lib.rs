//! # dataflow — interval-relational dataflow substrate
//!
//! The small dataflow layer the TRPQ engine (Section VI of the paper) is built on:
//! temporally-aligned hash joins ([`operators::join`]) — the one join the engine
//! executes — next to sort-merge kernels over key-sorted inputs
//! ([`mod@operators::merge_join`]) that only the benchmark's kernel timings read,
//! temporal coalescing ([`mod@operators::coalesce`]), the k-way merge of sorted
//! runs ([`sorted`]), and a chunked parallel executor on `std::thread::scope`
//! ([`parallel`]) standing in for the paper's use of Itertools + Rayon.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod operators;
pub mod parallel;
pub mod sorted;

pub use operators::{
    coalesce, hash_join, interval_hash_join, interval_merge_join, interval_merge_join_gallop,
    merge_join, merge_join_gallop,
};
pub use parallel::{par_chunk_flat_map, Parallelism};
pub use sorted::kway_merge_dedup;
