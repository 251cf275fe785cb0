//! # dataflow — interval-relational dataflow substrate
//!
//! The small dataflow layer the TRPQ engine (Section VI of the paper) is built on:
//! an in-memory [`Relation`] with the classic operators (filter, map, flat-map, union,
//! distinct), temporally-aligned hash joins ([`operators::join`]) — the one join the
//! engine executes — next to sort-merge kernels over key-sorted inputs
//! ([`mod@operators::merge_join`]) that only the benchmark's kernel timings read, a
//! sorted columnar interval representation with k-way-merge coalescing ([`sorted`]),
//! temporal coalescing ([`mod@operators::coalesce`]), and a chunked parallel executor
//! on `std::thread::scope` ([`parallel`]) standing in for the paper's use of
//! Itertools + Rayon.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod operators;
pub mod parallel;
pub mod relation;
pub mod sorted;

pub use operators::{
    coalesce, hash_join, interval_hash_join, interval_merge_join, interval_merge_join_gallop,
    is_key_sorted, merge_join, merge_join_gallop, point_count,
};
pub use parallel::{par_chunk_flat_map, par_filter, par_flat_map, par_map, Parallelism};
pub use relation::Relation;
pub use sorted::{coalesce_kway, coalesce_sorted, kway_merge, kway_merge_dedup, SortedRelation};
