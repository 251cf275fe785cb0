//! Deterministic fault-handling tests for the query server: hostile ad-hoc
//! query text (non-ASCII, nested past the parser's bound, or a repetition
//! tower past the plan audit's) answered with an error, abortive close, and
//! graceful shutdown draining.
//!
//! A malformed plan never reaches a worker: `Request::Compiled` carries a
//! `PlanSet`, and the plan constructors refuse a malformed plan in every build
//! profile.  The plan that once panicked a worker — a `Bind` smuggled inside
//! a closure body — is refused where it is built.  Worker-panic containment is
//! tested in `serve.rs`'s own tests, on servers whose workers panic on
//! purpose.

use std::sync::Arc;

use engine::plan::{ClosureOp, ClosureStep, EnginePlan, MicroOp};
use engine::{compile, AnswerMode, ExecutionOptions};
use live::serve::{Request, ServeGraph, Server};
use live::LiveError;
use tgraph::{Batch, Interval, Itpg};

fn iv(a: u64, b: u64) -> Interval {
    Interval::of(a, b)
}

const HEALTHY: &str = "MATCH (x:Person) ON live";

fn populated_graph() -> Arc<ServeGraph> {
    let graph =
        Arc::new(ServeGraph::with_options(Itpg::empty(iv(1, 10)), ExecutionOptions::default()));
    let mut batch = Batch::new(1);
    batch.add_node("ann", "Person").add_existence("ann", iv(1, 9));
    graph.ingest(&batch).unwrap();
    graph
}

fn healthy_request() -> Request {
    Request::AdHoc { text: HEALTHY.into(), mode: AnswerMode::Materialized }
}

/// The plan that once panicked a worker in release builds, a `Bind` inside a
/// closure body, is refused at construction with an issue naming the closure.
#[test]
fn a_bind_inside_a_closure_is_refused_at_construction() {
    let plan_set = compile(&trpq::parser::parse_match(HEALTHY).unwrap()).unwrap();
    let plan = &plan_set.plans()[0];
    let mut segments = plan.segments().to_vec();
    let bad = ClosureOp {
        alternatives: vec![vec![ClosureStep::Micro(MicroOp::Bind(0))]],
        min: 1,
        max: Some(1),
    };
    segments[0].ops.push(MicroOp::Closure(bad));
    let closure_at = format!("segment 0, op {}", segments[0].ops.len() - 1);
    let error = EnginePlan::new(segments, plan.links().to_vec()).unwrap_err();
    let binds = error
        .issues
        .iter()
        .find(|issue| issue.message.contains("closure alternative 0 binds slot 0"))
        .unwrap_or_else(|| panic!("{error}"));
    assert_eq!(binds.location, closure_at);
    assert_eq!(binds.plan, None);
}

#[test]
fn deeply_nested_query_text_is_an_error_not_an_abort() {
    // 10 000 nested groups: a parser recursing once per level would overflow
    // the worker's 2 MiB stack and abort the whole process.
    let server = Server::start(populated_graph(), 1);
    let depth = 10_000;
    let text = format!("MATCH (x)-/{}FWD{}/-(y) ON live", "(".repeat(depth), ")".repeat(depth));
    let request = Request::AdHoc { text, mode: AnswerMode::Materialized };
    let err = server.submit(request).wait().unwrap_err();
    assert!(matches!(err, LiveError::Query(trpq::QueryError::Parse { .. })), "{err:?}");
    // The worker keeps serving.
    assert!(server.submit(healthy_request()).wait().is_ok());
    server.shutdown();
}

#[test]
fn a_repetition_tower_past_the_audit_bound_is_an_error_not_a_panic() {
    // Nine nested `(…)*` groups parse, but the plan audit accepts eight: the
    // compiler refuses the text rather than hand the worker a plan it refuses.
    let server = Server::start(populated_graph(), 1);
    let text = format!("MATCH (x)-/{}FWD{}/-(y) ON live", "(".repeat(9), ")*".repeat(9));
    let request = Request::AdHoc { text, mode: AnswerMode::Materialized };
    let err = server.submit(request).wait().unwrap_err();
    let LiveError::Query(trpq::QueryError::UnsupportedFragment { reason, .. }) = &err else {
        panic!("expected a query error, got: {err:?}");
    };
    assert!(reason.contains("nesting depth 9"), "{reason}");
    assert!(server.submit(healthy_request()).wait().is_ok());
    server.shutdown();
}

#[test]
fn non_ascii_query_text_is_an_error_not_a_panic() {
    let server = Server::start(populated_graph(), 1);
    for text in ["MATCH (x:Personé) ON live", "MATCH (x:Person) ON livà", "MATCH (x:Person) ON g😀"]
    {
        let request = Request::AdHoc { text: text.into(), mode: AnswerMode::Materialized };
        let err = server.submit(request).wait().unwrap_err();
        assert!(matches!(err, LiveError::Query(trpq::QueryError::Parse { .. })), "{text}: {err:?}");
    }
    server.shutdown();
}

#[test]
fn close_fails_subsequent_submissions_fast() {
    let graph = populated_graph();
    let server = Server::start(Arc::clone(&graph), 2);
    assert!(!server.is_closed());
    server.close();
    assert!(server.is_closed());
    for _ in 0..3 {
        assert_eq!(server.submit(healthy_request()).wait().unwrap_err(), LiveError::ServerClosed);
    }
    // `close` is idempotent, and shutdown still joins cleanly afterwards.
    server.close();
    server.shutdown();
}

#[test]
fn every_ticket_resolves_across_an_abortive_close() {
    let graph = populated_graph();
    let server = Server::start(Arc::clone(&graph), 1);
    let before: Vec<_> = (0..8).map(|_| server.submit(healthy_request())).collect();
    server.close();
    let after = server.submit(healthy_request());
    // Tickets submitted before the close either executed already or are
    // drained as ServerClosed — none may hang or be dropped silently.
    for (i, ticket) in before.into_iter().enumerate() {
        match ticket.wait() {
            Ok(response) => assert!(!response.answer.rows().unwrap().is_empty()),
            Err(LiveError::ServerClosed) => {}
            Err(other) => panic!("ticket {i}: unexpected error {other:?}"),
        }
    }
    assert_eq!(after.wait().unwrap_err(), LiveError::ServerClosed);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let graph = populated_graph();
    let server = Server::start(Arc::clone(&graph), 1);
    let tickets: Vec<_> = (0..4).map(|_| server.submit(healthy_request())).collect();
    server.shutdown();
    for ticket in tickets {
        assert!(!ticket.wait().unwrap().answer.rows().unwrap().is_empty());
    }
}
