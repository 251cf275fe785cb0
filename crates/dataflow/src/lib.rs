//! # dataflow — interval-relational dataflow substrate
//!
//! The operators a dataflow implementation of the paper's engine (Section VI) is
//! built from: temporally-aligned hash joins ([`operators::join`]), sort-merge joins
//! ([`mod@operators::merge_join`]), temporal coalescing
//! ([`mod@operators::coalesce`]) and the k-way merge of sorted runs
//! ([`kway_merge_dedup`]), which stands in for the paper's use of Itertools.  The
//! engine runs none of them: a query runs on the thread that asks for it, its hops
//! probe adjacency indexes built at load time, and its Step 3 is one sort.  They run
//! only in the benchmark's kernel timings.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod operators;
pub mod sorted;

pub use operators::{
    coalesce, hash_join, interval_hash_join, interval_merge_join, interval_merge_join_gallop,
    merge_join, merge_join_gallop,
};
pub use sorted::kway_merge_dedup;
