//! Deterministic fault-handling tests for the query server: worker-panic
//! containment, hostile ad-hoc query text (non-ASCII, nested past the
//! parser's bound, or a repetition tower past the plan audit's) answered with
//! an error, abortive close, and graceful shutdown draining.
//!
//! The panic tests submit a request whose execution panics *deterministically*
//! in every build profile: the plan smuggles a `Bind` inside a closure body,
//! which the debug-mode plan audit rejects up front.  In release, whichever
//! evaluator reaches the body refuses it with an `unreachable!`: the closure
//! sits after the plan's last `Bind`, so it is an existential suffix and the
//! backward suffix walk meets it first, and the forward closure evaluator
//! refuses it the same way.  Either way the worker thread unwinds and the
//! server must contain it.

use std::sync::Arc;

use engine::plan::{ClosureOp, ClosureStep, MicroOp};
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

/// A pre-compiled request whose execution panics deterministically (see the
/// module docs).  It must reach the server as `Request::Compiled`: the parser
/// and compiler can never produce this shape, which is exactly why the
/// executor treats it as a hard internal error.
fn panicking_request() -> Request {
    let mut plan = compile(&trpq::parser::parse_match(HEALTHY).unwrap()).unwrap();
    let bad = ClosureOp {
        alternatives: vec![vec![ClosureStep::Micro(MicroOp::Bind(0))]],
        min: 1,
        max: Some(1),
    };
    plan.plans[0].segments[0].ops.push(MicroOp::Closure(bad));
    Request::Compiled { plan: Arc::new(plan), mode: AnswerMode::Materialized }
}

#[test]
fn a_panicking_request_is_contained_and_the_worker_survives() {
    let graph = populated_graph();
    let server = Server::start(Arc::clone(&graph), 1);
    let err = server.submit(panicking_request()).wait().unwrap_err();
    let LiveError::WorkerPanicked(message) = err else {
        panic!("expected WorkerPanicked, got: {err:?}");
    };
    assert!(!message.is_empty(), "the panic payload is carried to the requester");
    // One worker only: the very thread that just unwound must serve this.
    let response = server.submit(healthy_request()).wait().unwrap();
    assert!(!response.answer.rows().unwrap().is_empty());
    server.shutdown();
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
fn panicking_requests_do_not_take_down_neighbours() {
    let graph = populated_graph();
    let server = Server::start(Arc::clone(&graph), 2);
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                server.submit(panicking_request())
            } else {
                server.submit(healthy_request())
            }
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.wait();
        if i % 2 == 0 {
            assert!(matches!(result, Err(LiveError::WorkerPanicked(_))), "ticket {i}: {result:?}");
        } else {
            let response = result.unwrap_or_else(|e| panic!("ticket {i} failed: {e}"));
            assert!(!response.answer.rows().unwrap().is_empty());
        }
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
