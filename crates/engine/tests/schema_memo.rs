//! Pins for the `SchemaSummary` memo the relations carry: the scan behind the
//! semantic optimizer runs once per *version* of a `GraphRelations` — never at
//! load, on a snapshot or on a delta, and never again however many executions,
//! clones and snapshots read that version.
//!
//! Everything lives in one test function: the scan counter is process-global,
//! and a single test per binary keeps the before/after deltas race-free.

use std::sync::Arc;

use engine::{AnswerMode, ExecutionOptions, GraphRelations, Query, SchemaSummary};
use tgraph::{Batch, Interval, Itpg, ItpgBuilder};
use trpq::queries::QueryId;

fn graph() -> Itpg {
    let all = Interval::of(1, 9);
    let mut b = ItpgBuilder::new();
    let ann = b.add_node("ann", "Person").unwrap();
    let bob = b.add_node("bob", "Person").unwrap();
    let meets = b.add_edge("m1", "meets", ann, bob).unwrap();
    for node in [ann, bob] {
        b.add_existence(node, all).unwrap();
    }
    b.add_existence(meets, Interval::of(2, 4)).unwrap();
    b.set_property(ann, "risk", "high", all).unwrap();
    b.set_property(bob, "risk", "low", all).unwrap();
    b.domain(Interval::of(1, 10)).build().unwrap()
}

/// Q1–Q12 in each of the three answer modes plus twelve plain `execute`s: 48
/// optimized executions.
fn run_48(graph: &GraphRelations, options: ExecutionOptions) {
    for id in QueryId::ALL {
        for mode in [AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact] {
            drop(Query::benchmark(id).with_options(options.with_mode(mode)).run(graph));
        }
        engine::execute(&engine::queries::plan_for(id), graph, &options);
    }
}

#[test]
fn one_scan_per_relations_version() {
    let reg = obs::global();
    // Get-or-create returns the engine's own series.
    let scans = reg.counter("tpath_engine_schema_scans_total", "SchemaSummary scans.", &[]);
    let scan_span = reg.latency_histogram(
        "tpath_engine_span_seconds",
        "Span wall time.",
        &[("span", "query/analyze/schema_scan")],
    );
    let options = ExecutionOptions::default();

    // Loading computes nothing: the scan is still owed, and exactly one of the
    // 48 executions pays it.
    let mut itpg = graph();
    let mut relations = GraphRelations::from_itpg(&itpg);
    let base = scans.get();
    let base_spans = scan_span.snapshot().count;
    run_48(&relations, options);
    assert_eq!(scans.get() - base, 1, "48 optimized executions, one scan");
    assert_eq!(scan_span.snapshot().count - base_spans, 1, "the scan is timed once");

    // Snapshots and clones share the memo, in both directions.
    let pinned = relations.snapshot();
    let summary = SchemaSummary::of(&relations);
    assert!(Arc::ptr_eq(&summary, &SchemaSummary::of(&pinned)));
    assert!(Arc::ptr_eq(&summary, &SchemaSummary::of(&pinned.clone())));
    run_48(&pinned, options);
    assert_eq!(scans.get() - base, 1, "a snapshot of a scanned version never scans");

    // A delta starts a new version.  The snapshot keeps the old summary; the
    // mutated value owes one scan, paid by its first optimized execution.
    let mut batch = Batch::new(1);
    batch
        .add_node("lab", "Room")
        .add_existence("lab", Interval::of(1, 9))
        .add_edge("v1", "visits", "ann", "lab")
        .add_existence("v1", Interval::of(3, 5))
        .set_property("bob", "risk", "high", Interval::of(1, 9));
    let applied = itpg.apply_batch(&batch).unwrap();
    relations.apply_delta(&itpg, &applied.touched);
    assert_eq!(scans.get() - base, 1, "apply_delta scans nothing");
    assert!(Arc::ptr_eq(&summary, &SchemaSummary::of(&pinned)), "the snapshot keeps its summary");
    let unpublished = relations.snapshot();
    run_48(&unpublished, options);
    run_48(&relations, options);
    assert_eq!(scans.get() - base, 2, "the new version scans once, through either handle");
    let mutated = SchemaSummary::of(&relations);
    assert!(!Arc::ptr_eq(&summary, &mutated));
    assert_ne!(summary, mutated, "the new version has a Room, a visits edge and no low risk");
    assert_eq!(mutated, SchemaSummary::of(&GraphRelations::from_itpg(&itpg)));

    // A telemetry-off execution may be the one that scans: it records nothing,
    // and the enabled executions after it find the memo filled.
    let quiet = GraphRelations::from_itpg(&itpg);
    let before = scans.get();
    run_48(&quiet, options.with_telemetry(false));
    run_48(&quiet, options);
    assert_eq!(scans.get(), before, "the scan ran unrecorded, once");
}
