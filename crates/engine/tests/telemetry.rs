//! End-to-end pins for the engine's telemetry: the `telemetry = false` knob
//! really records nothing, enabled runs count executions, the cursors their
//! hop joins produced and the backward viability pass a low-yield multi-batch
//! run takes — or a plan with an existential suffix, whose exact backward pass
//! counts as built and whose backward fixpoint counts its rounds, while any other
//! plan with a fixpoint records no pass — and an enumeration cursor's peak-buffered
//! high-water mark survives being abandoned mid-drain (the regression that
//! motivated recording it on cursor drop).
//!
//! Everything lives in one test function: the metrics are process-global, and
//! a single test per binary keeps the before/after assertions race-free.

use engine::{AnswerMode, ExecutionOptions, GraphRelations, Query};
use tgraph::{Interval, ItpgBuilder};

const QUERY: &str = "MATCH (x:Person {risk = 'high'}) ON g";

/// One match of two hops: of the four persons only ann has an outgoing edge.
const HOP_QUERY: &str = "MATCH (x:Person {risk = 'high'})-[:meets]->(y:Person) ON g";

/// Four high-risk persons, each an independent answer row — enough to drain a
/// cursor partially and leave work buffered behind it — and one meeting.
fn graph() -> GraphRelations {
    let mut b = ItpgBuilder::new();
    let mut persons = Vec::new();
    for name in ["ann", "bob", "cal", "dee"] {
        let node = b.add_node(name, "Person").unwrap();
        b.add_existence(node, Interval::of(1, 9)).unwrap();
        b.set_property(node, "risk", "high", Interval::of(1, 9)).unwrap();
        persons.push(node);
    }
    let meets = b.add_edge("m", "meets", persons[0], persons[1]).unwrap();
    b.add_existence(meets, Interval::of(2, 3)).unwrap();
    GraphRelations::from_itpg(&b.build().unwrap())
}

/// Ends on a filter one person in fifty passes, bound to `y`: matched forward, nearly
/// every traversal is wasted.
const LOW_YIELD_QUERY: &str =
    "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-(y {test = 'pos'}) ON g";

/// The closure workloads of `closure-g2`: RECUR ends on the filter one person in
/// fifty passes, after its last bound variable; REACH on every person, bound.
const RECUR: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON g";
const REACH: &str = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON g";

/// `people` persons in a ring, each meeting the next three, every third one
/// high-risk, every fiftieth one testing positive late.
fn ring(people: usize) -> GraphRelations {
    let mut b = ItpgBuilder::new();
    let nodes: Vec<_> =
        (0..people).map(|i| b.add_node(&format!("p{i}"), "Person").unwrap()).collect();
    for (i, &node) in nodes.iter().enumerate() {
        b.add_existence(node, Interval::of(1, 10)).unwrap();
        let risk = if i % 3 == 0 { "high" } else { "low" };
        b.set_property(node, "risk", risk, Interval::of(1, 10)).unwrap();
        if i % 50 == 0 {
            b.set_property(node, "test", "pos", Interval::of(8, 10)).unwrap();
        }
        for ahead in 1..=3 {
            let meets = b
                .add_edge(&format!("m{i}_{ahead}"), "meets", node, nodes[(i + ahead) % people])
                .unwrap();
            b.add_existence(meets, Interval::of(2, 6)).unwrap();
        }
    }
    GraphRelations::from_itpg(&b.build().unwrap())
}

#[test]
fn telemetry_gates_and_peak_buffered_retention() {
    let graph = graph();
    let reg = obs::global();
    // Get-or-create returns the engine's own series, so these handles observe
    // exactly what the executor records.
    let queries = reg.counter("tpath_engine_queries_total", "Query executions.", &[]);
    let peak_hist = reg.histogram(
        "tpath_engine_cursor_peak_buffered_rows",
        "Per-cursor peak buffered rows.",
        &[],
    );

    // A disabled run is a no-op on the registry.
    let before = queries.get();
    let answers = Query::parse(QUERY)
        .unwrap()
        .with_options(ExecutionOptions::sequential().with_telemetry(false))
        .run(&graph);
    let expected_rows = answers.stats().output_rows;
    assert!(expected_rows >= 1);
    drop(answers);
    assert_eq!(queries.get(), before, "telemetry = false must record nothing");

    // An enabled run counts the execution.
    let answers =
        Query::parse(QUERY).unwrap().with_options(ExecutionOptions::sequential()).run(&graph);
    assert_eq!(answers.stats().output_rows, expected_rows);
    assert_eq!(queries.get(), before + 1);
    drop(answers);

    // Hop outputs are flushed once per execution, and only by an enabled one.
    let hop_cursors = reg.counter("tpath_engine_hop_cursors_total", "Hop join outputs.", &[]);
    let hops_before = hop_cursors.get();
    let run_hops = |telemetry| {
        let options = ExecutionOptions::sequential().with_telemetry(telemetry);
        Query::parse(HOP_QUERY).unwrap().with_options(options).run(&graph).stats().interval_rows
    };
    assert_eq!(run_hops(false), 1);
    assert_eq!(hop_cursors.get(), hops_before, "telemetry = false must record nothing");
    assert_eq!(run_hops(true), 1);
    assert_eq!(hop_cursors.get(), hops_before + 2, "node → edge → node, one cursor each");

    // A multi-batch run of a fixpoint-free plan records one gate outcome, and
    // the rows its backward pass visited: here the sample batch wastes its
    // traversals and the pass reaches the seeds.  Nothing moves with telemetry off.
    let three_batches = ring(2400);
    let passes = |outcome| {
        let help = "Backward viability passes.";
        reg.counter("tpath_engine_viability_passes_total", help, &[("outcome", outcome)]).get()
    };
    let visited = reg.counter("tpath_engine_viability_rows_total", "Rows visited.", &[]);
    let viability = || (passes("built"), passes("skipped"), visited.get());
    let (built, skipped, rows) = viability();
    let hops_before = hop_cursors.get();
    let run_low_yield = |telemetry| {
        let options = ExecutionOptions::sequential().with_telemetry(telemetry);
        Query::parse(LOW_YIELD_QUERY).unwrap().with_options(options).run(&three_batches).stats()
    };
    let matches = run_low_yield(false).interval_rows;
    assert_eq!(matches, 48, "one of the three persons before each of the 48 positives");
    assert_eq!(viability(), (built, skipped, rows), "telemetry = false");
    assert_eq!(run_low_yield(true).interval_rows, matches);
    assert_eq!((passes("built"), passes("skipped")), (built + 1, skipped));
    assert!(visited.get() > rows + 2400, "at least the dense scan of the node rows");
    let masked_traversals = hop_cursors.get() - hops_before;
    assert!(
        masked_traversals < 800 * 6 / 2,
        "800 high-risk seeds make 6 traversals each unmasked, {masked_traversals} masked"
    );
    // The structural queries above ran one batch: no gate, no outcome.
    assert_eq!(run_hops(true), 1);
    assert_eq!(viability().1, skipped);

    // RECUR ends after its last bound variable: its suffix — the closure included —
    // is walked back exactly, one built pass per run whose rounds count as time
    // rounds and whose time is closure time.  REACH binds its last node and runs
    // unmasked: no outcome, no row visited.
    let small = ring(60);
    let time_rounds =
        reg.counter("tpath_engine_closure_rounds_total", "Rounds.", &[("kind", "time")]);
    let closure_span = reg.latency_histogram(
        "tpath_engine_span_seconds",
        "Span wall time.",
        &[("span", "query/step12/closure")],
    );
    let closure_work = || (time_rounds.get(), closure_span.snapshot().count);
    let run_closure = |text, telemetry| {
        let options = ExecutionOptions::sequential().with_telemetry(telemetry);
        Query::parse(text).unwrap().with_options(options).run(&small).stats()
    };
    let (before, work_before) = (viability(), closure_work());
    let (recur, reach) = (run_closure(RECUR, false), run_closure(REACH, false));
    assert!(recur.interval_rows > 0 && reach.interval_rows > 0);
    assert!(recur.time_rounds > 0, "the backward fixpoint iterated");
    assert_eq!((viability(), closure_work()), (before, work_before), "telemetry = false");
    let enabled = run_closure(RECUR, true);
    assert_eq!(
        (enabled.interval_rows, enabled.time_rounds),
        (recur.interval_rows, recur.time_rounds)
    );
    let (built, skipped, rows) = before;
    let (recur_built, recur_skipped, recur_rows) = viability();
    assert_eq!((recur_built, recur_skipped), (built + 1, skipped));
    assert!(recur_rows > rows + 62, "the scan and the walk back through the closure");
    let (rounds, spans) = closure_work();
    assert_eq!(rounds, work_before.0 + recur.time_rounds as u64);
    assert_eq!(spans, work_before.1 + 1, "one closure span per execution");
    assert_eq!(run_closure(REACH, true).interval_rows, reach.interval_rows);
    assert_eq!(viability(), (built + 1, skipped, recur_rows));

    // Enumerate, drain two of eight rows, then abandon the cursor: stats()
    // exposes the live high-water mark mid-drain, and dropping the cursor
    // retains that peak in the histogram — it is not lost with the cursor.
    let peak_before = peak_hist.snapshot();
    let mut answers = Query::parse(QUERY)
        .unwrap()
        .with_options(ExecutionOptions::sequential())
        .with_mode(AnswerMode::Enumerate)
        .run(&graph);
    {
        let cursor = answers.cursor_mut().expect("enumerate mode hands out a cursor");
        assert_eq!(cursor.page(2).len(), 2);
    }
    let mid_drain_peak = answers.stats().peak_buffered_rows;
    assert!(mid_drain_peak >= 1, "mid-drain stats expose the cursor's high-water mark");
    drop(answers);
    let peak_after = peak_hist.snapshot();
    assert_eq!(peak_after.count, peak_before.count + 1, "cursor drop records its peak");
    assert!(
        peak_after.sum >= peak_before.sum + mid_drain_peak as u64,
        "the retained peak is at least the mid-drain one"
    );
}
