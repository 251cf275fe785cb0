//! # tgraph — temporal property graphs
//!
//! The data model underlying *Temporal Regular Path Queries* (ICDE 2022): the
//! interval-timestamped temporal property graph ([`Itpg`], Appendix A), together
//! with the interval machinery it is built from ([`Interval`], [`IntervalSet`],
//! [`ValuedIntervals`]).  The paper's point-timestamped graph (Definition III.1) is
//! `can(I)`, an [`Itpg`] read point by point: [`Itpg::exists_at`] and
//! [`Itpg::prop_value_at`] are its existence and property functions ξ and σ.
//!
//! ```
//! use tgraph::{Interval, ItpgBuilder, Object};
//!
//! let mut b = ItpgBuilder::new();
//! let ann = b.add_node("n1", "Person").unwrap();
//! let bob = b.add_node("n2", "Person").unwrap();
//! let e1 = b.add_edge("e1", "meets", ann, bob).unwrap();
//! b.add_existence(ann, Interval::of(1, 9)).unwrap();
//! b.add_existence(bob, Interval::of(1, 9)).unwrap();
//! b.add_existence(e1, Interval::of(3, 3)).unwrap();
//! b.set_property(bob, "risk", "low", Interval::of(1, 4)).unwrap();
//! b.set_property(bob, "risk", "high", Interval::of(5, 9)).unwrap();
//! let graph = b.build().unwrap();
//!
//! assert!(graph.exists_at(Object::Edge(e1), 3));
//! assert_eq!(graph.prop_value_at(Object::Node(bob), "risk", 7).unwrap().as_str(), Some("high"));
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod ids;
pub mod interval;
pub mod interval_set;
pub mod itpg;
pub mod value;
pub mod valued;

pub use delta::{AppliedBatch, Batch, Mutation};
pub use error::{GraphError, Result};
pub use ids::{EdgeId, NodeId, Object, TemporalObject};
pub use interval::{Interval, Time};
pub use interval_set::IntervalSet;
pub use itpg::{check_edge, check_support, Itpg, ItpgBuilder};
pub use value::Value;
pub use valued::ValuedIntervals;
