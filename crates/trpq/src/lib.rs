//! # trpq — temporal regular path queries
//!
//! The query language of *Temporal Regular Path Queries* (ICDE 2022): the formal
//! language `NavL[PC,NOI]` ([`ast::Path`]), its fragments and their complexity
//! ([`fragment`]), the practical `MATCH … -/…/- … ON graph` surface syntax
//! ([`parser`]) with its rewriting into the formal language ([`rewrite`]), the
//! reference evaluation algorithms of the paper's appendix ([`eval`]: Theorem C.1
//! over `can(I)`, an `Itpg` read point by point, and the fragment algorithms over
//! the `Itpg` itself), and the twelve
//! benchmark queries Q1–Q12 ([`queries`]).
//!
//! ```
//! use tgraph::{Interval, ItpgBuilder, Object, TemporalObject};
//! use trpq::ast::{Axis, Path, TestExpr};
//! use trpq::eval::tpg::eval_path;
//!
//! // A person who tests positive at time 5, over a week-long domain.
//! let mut b = ItpgBuilder::new();
//! let eve = b.add_node("eve", "Person").unwrap();
//! b.add_existence(eve, Interval::of(0, 6)).unwrap();
//! b.set_property(eve, "test", "pos", Interval::of(5, 6)).unwrap();
//! let graph = b.domain(Interval::of(0, 6)).build().unwrap();
//!
//! // (Node ∧ test ↦ pos) / P / (Node ∧ ∃): the state immediately before the test.
//! let query = Path::test(TestExpr::Node.and(TestExpr::prop("test", "pos")))
//!     .then(Path::axis(Axis::Prev))
//!     .then(Path::test(TestExpr::Node.and(TestExpr::Exists)));
//! let result = eval_path(&query, &graph);
//! let eve = Object::Node(eve);
//! assert!(result.contains(&trpq::eval::quad_table::Quad::new(
//!     TemporalObject::new(eve, 5),
//!     TemporalObject::new(eve, 4),
//! )));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod fragment;
pub mod indicator;
pub mod parser;
pub mod queries;
pub mod rewrite;

pub use ast::{Axis, Path, TestExpr};
pub use error::{QueryError, Result};
pub use fragment::{classify, Complexity, Fragment};
pub use indicator::{classify_repeat, intersect_repeat, repeat_width, RepeatClass};
pub use parser::{parse_match, Constraint, EdgePattern, MatchClause, NodePattern, PatternPart};
pub use rewrite::{rewrite_match, RewrittenQuery, Variable};
