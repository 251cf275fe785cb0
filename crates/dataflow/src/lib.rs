//! # dataflow — interval-relational dataflow substrate
//!
//! The small dataflow layer of the TRPQ engine (Section VI of the paper).  The
//! engine runs one operator of it, the k-way merge of sorted runs
//! ([`kway_merge_dedup`]), standing in for the paper's use of Itertools.  The
//! paper's Rayon has no counterpart: a query runs on the thread that asks for it.  The
//! temporally-aligned hash joins ([`operators::join`]), sort-merge joins
//! ([`mod@operators::merge_join`]) and temporal coalescing
//! ([`mod@operators::coalesce`]) run only in the benchmark's kernel timings.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod operators;
pub mod sorted;

pub use operators::{
    coalesce, hash_join, interval_hash_join, interval_merge_join, interval_merge_join_gallop,
    merge_join, merge_join_gallop,
};
pub use sorted::kway_merge_dedup;
