//! # live — streaming ingestion and incremental query maintenance
//!
//! The paper evaluates TRPQs over a frozen graph, but the contact-tracing
//! scenario it motivates is inherently *live*: new contacts and test results
//! arrive continuously.  This crate turns the batch engine into a serving
//! system: a [`LiveGraph`] ingests an append-only sequence of epoched mutation
//! [`Batch`]es (see [`tgraph::delta`]) and *maintains* the answers of registered
//! queries instead of re-running them from scratch.
//!
//! Maintenance is **exact** and works in three layers:
//!
//! 1. **Relation deltas** — every batch is applied to the engine's
//!    interval-timestamped relations in place, and those relations are the
//!    live graph's one copy of the graph: a [`LiveGraph`] keeps no
//!    [`tgraph::Itpg`].  It resolves the batch's names through the writer's
//!    own name index, checks Definition A.1 against the relations' existence
//!    columns ([`tgraph::check_edge`], [`tgraph::check_support`]) and derives
//!    each touched object's new segments from its old rows plus the batch's
//!    mutations, with the semantics of [`tgraph::Itpg::apply_batch`].  One
//!    writer ([`engine::GraphRelations::apply_segments`]) matches them against
//!    the object's rows: the rows whose state changed are retracted and the new
//!    states appended, and every other row — an untouched object's, or a
//!    touched object's the batch left as it was — keeps its index.  A bulk
//!    load ([`engine::GraphRelations::from_itpg`]) is the writer's other
//!    producer of segments, the delta that creates every object, so a live
//!    graph's rows and a rebuild's come from the same code.  Nothing derived
//!    from the rows is maintained: the first reader of the new version
//!    recomputes what it asks for.
//! 2. **Delta-seeded evaluation** — for a plan with a statically known hop
//!    count `H` (every plan without a closure fixpoint), a chain seeded at a
//!    node can only observe objects within `H` structural hops of that node, so
//!    a batch can only change the results of seeds within `H` hops of a touched
//!    object, which a sweep of the relations' adjacency finds.  A refresh re-runs the SPJ pipeline from those seeds alone
//!    ([`engine::run_plan_seeded`]) and splices the per-seed results into the
//!    cached answer.  The maintained table keeps a count per row, so the rows
//!    the re-run replaced and produced merge into it as one counted delta,
//!    and nothing re-sorts the whole table.
//! 3. **Time-seeded evaluation** — a plan with no temporal link answers at
//!    time `t` from the snapshot at `t` alone, and a batch changes the graph
//!    only at its [`tgraph::AppliedBatch::times`].  Such a plan, closures
//!    included, re-runs only the seed rows that are new or whose interval
//!    meets those times.  A plan that moves in time and has unbounded reach
//!    re-runs every live seed row; the refresh reports this through
//!    [`RefreshStats::fallback_full`].  The answer is exact either way.
//!
//! On top of the single-threaded [`LiveGraph`], the crate serves queries
//! *concurrently* through epoch-based MVCC ([`epoch`]): each published epoch
//! is an immutable copy-on-write snapshot that readers pin and the writer
//! never waits for, and a [`serve::Server`] worker pool executes registered
//! and ad-hoc queries against pinned snapshots while a single writer ingests
//! batches ([`serve::ServeGraph`]).
//!
//! ```
//! use live::LiveGraph;
//! use tgraph::{Batch, Interval};
//!
//! let mut graph = LiveGraph::new(Interval::of(1, 10));
//! let risky = graph
//!     .register_text("MATCH (x:Person {risk = 'high'}) ON live")
//!     .unwrap();
//!
//! let mut batch = Batch::new(1);
//! batch.add_node("ann", "Person").add_existence("ann", Interval::of(1, 9)).set_property(
//!     "ann",
//!     "risk",
//!     "high",
//!     Interval::of(1, 9),
//! );
//! graph.apply(&batch).unwrap();
//! let stats = graph.refresh(risky);
//! assert_eq!(stats.rows_added, 1);
//! assert_eq!(graph.table(risky).len(), 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod error;
pub mod graph;
pub mod query;
pub mod sched;
pub mod serve;
mod telemetry;
mod write;

pub use epoch::{EpochManager, EpochSnapshot, EpochStats, PinnedEpoch};
pub use error::LiveError;
pub use graph::{IngestStats, LiveGraph};
pub use query::{LiveQueryId, RefreshStats};
pub use serve::{
    IngestReport, MetricsFormat, Request, Response, ServeAnswer, ServeGraph, ServeHealth, Server,
    Ticket,
};
pub use tgraph::{AppliedBatch, Batch, Mutation};
