//! # tpath — Temporal Regular Path Queries
//!
//! A single-crate facade over the workspace implementing *Temporal Regular Path
//! Queries* (Arenas, Bahamondes, Aghasadeghi, Stoyanovich — ICDE 2022):
//!
//! * [`tgraph`] — interval-timestamped temporal property graphs
//!   ([`tgraph::Itpg`]), whose point-wise reading is the paper's point-based graph;
//! * [`trpq`] — the `NavL[PC,NOI]` query language: AST, practical `MATCH` syntax,
//!   fragments, complexity, and the paper's reference evaluation algorithms;
//! * [`engine`] — the interval-based three-step query engine of Section VI;
//! * [`live`] — live graphs: streaming ingestion of epoched mutation batches,
//!   incremental maintenance of registered queries, and concurrent serving —
//!   epoch-based MVCC snapshots ([`live::epoch`]) behind a multi-threaded query
//!   server ([`live::serve`]);
//! * [`workload`] — the Figure 1 running example and the synthetic contact-tracing
//!   graphs of the experimental evaluation (bulk and streamed).
//!
//! ```
//! use tpath::engine::{GraphRelations, Query};
//! use tpath::workload::figure1;
//!
//! // Who is at risk? High-risk people who met someone who later tested positive.
//! let graph = GraphRelations::from_itpg(&figure1());
//! let answers = Query::parse(
//!     "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) \
//!      ON contact_tracing",
//! )
//! .unwrap()
//! .run(&graph);
//! assert_eq!(answers.stats().output_rows, 3);
//! ```

pub use engine;
pub use live;
pub use tgraph;
pub use trpq;
pub use workload;
