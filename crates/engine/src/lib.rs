//! # engine — the interval-based TRPQ query engine
//!
//! The implementation described in Section VI of *Temporal Regular Path Queries*
//! (ICDE 2022): queries in the practical `MATCH … -/…/- … ON graph` syntax are
//! compiled into plans whose structural parts are evaluated as select–project–join
//! pipelines over interval-timestamped `Nodes` / `Edges` relations (Step 1), temporal
//! navigation is pruned with interval arithmetic (Step 2), and the final binding table
//! is expanded to point-based bindings only when the query requires it (Step 3).
//! Structural repetition (`(FWD/:meets/FWD)*` and friends) runs as an interval-aware
//! transitive-closure fixpoint inside Step 1, and repetition of groups *mixing*
//! structural and temporal navigation (`(FWD/NEXT)*` and friends) runs as a
//! time-aware band fixpoint linking two segments ([`steps::closure`]).  A query runs
//! on the thread that asks for it; the seed rows go through Steps 1–2 in batches.
//!
//! ```
//! use engine::{GraphRelations, Query};
//! use tgraph::{Interval, ItpgBuilder};
//!
//! let mut b = ItpgBuilder::new();
//! let ann = b.add_node("ann", "Person").unwrap();
//! b.add_existence(ann, Interval::of(1, 9)).unwrap();
//! b.set_property(ann, "risk", "high", Interval::of(1, 9)).unwrap();
//! let graph = GraphRelations::from_itpg(&b.build().unwrap());
//!
//! let answers = Query::parse("MATCH (x:Person {risk = 'high'}) ON g").unwrap().run(&graph);
//! assert_eq!(answers.stats().output_rows, 1);
//! ```
//!
//! Besides the materialised [`BindingTable`], answers come in two output-sensitive
//! shapes ([`answers`]): a lazy [`AnswerCursor`] streaming rows in canonical order
//! with bounded delay, and [`CompactAnswers`] — per-`(source, target)` coalesced
//! interval sets computed without point expansion.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod bindings;
pub mod chain;
pub mod compiler;
pub mod executor;
pub mod plan;
pub mod queries;
pub mod relations;
pub mod steps;
mod telemetry;

pub use answers::{AnswerCursor, AnswerMode, AnswerSet, Answers, CompactAnswers, Query};
pub use bindings::{Binding, BindingTable, TimeRef};
pub use chain::TimeLag;
pub use compiler::compile;
pub use executor::{
    execute, execute_answers, run_plan_seeded, ExecutionOptions, QueryOutput, QueryStats,
};
pub use plan::analyze::{
    analyze, static_bounds, Analysis, Diagnostic, DiagnosticKind, PlanBounds, SchemaSummary,
    Severity,
};
pub use plan::audit::{AuditError, AuditIssue};
pub use plan::{
    ClosureOp, ClosureStep, EnginePlan, HopDirection, MicroOp, ObjFilter, PlanSet, Segment, Shift,
    TemporalLink,
};
pub use relations::{
    CanonicalRelations, DeltaStats, EdgeRow, GraphRelations, NodeRow, ObjectSegments, Props,
    RelationStats, Rows,
};
pub use steps::StepStats;
