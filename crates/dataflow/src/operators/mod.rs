//! Relational dataflow operators with temporal awareness.

pub mod coalesce;
pub mod join;
pub mod merge_join;

pub use coalesce::coalesce;
pub use join::{hash_join, interval_hash_join};
pub use merge_join::{
    interval_merge_join, interval_merge_join_gallop, merge_join, merge_join_gallop,
};
