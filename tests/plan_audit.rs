//! Fuzzed plan-audit tests: the static analyzer (`engine::plan::audit`) must
//! accept every plan the compiler produces — over randomly generated surface
//! queries spanning the whole practical fragment — and must reject every
//! random structural mutation that breaks one of the invariants the executor
//! and live maintenance rely on.

use engine::plan::audit::{audit, hop_depth};
use engine::plan::{ClosureOp, MicroOp, PlanSet, Shift, TemporalLink};
use engine::{compile, ExecutionOptions, GraphRelations};
use proptest::prelude::*;
use tgraph::{Interval, ItpgBuilder};
use trpq::parser::parse_match;

/// A random repetition indicator: `*`, `[n,m]` (possibly degenerate or
/// unsatisfiable at the surface level — normalization must handle it), or
/// `[n,_]`.
fn indicator() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_string()),
        (0..3u32, 0..4u32).prop_map(|(n, len)| format!("[{},{}]", n, n + len)),
        (0..4u32, 0..3u32).prop_map(|(n, m)| format!("[{n},{m}]")),
        (0..3u32).prop_map(|n| format!("[{n},_]")),
    ]
}

/// A random path expression of the practical fragment, as surface syntax:
/// structural hops, label tests, temporal indicators, unions and repetitions
/// (nested up to depth 3).
fn path_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("FWD".to_string()),
        Just("BWD".to_string()),
        Just("FWD/:meets/FWD".to_string()),
        Just("BWD/:meets/BWD".to_string()),
        Just("NEXT".to_string()),
        Just("PREV".to_string()),
        indicator().prop_map(|i| format!("NEXT{i}")),
        indicator().prop_map(|i| format!("PREV{i}")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}/{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner, indicator()).prop_map(|(p, i)| format!("({p}){i}")),
        ]
    })
}

fn tiny_graph() -> GraphRelations {
    let mut b = ItpgBuilder::new();
    let mia = b.add_node("mia", "Person").unwrap();
    let eve = b.add_node("eve", "Person").unwrap();
    let meets = b.add_edge("meets1", "meets", mia, eve).unwrap();
    b.add_existence(mia, Interval::of(1, 8)).unwrap();
    b.add_existence(eve, Interval::of(1, 8)).unwrap();
    b.add_existence(meets, Interval::of(2, 3)).unwrap();
    GraphRelations::from_itpg(&b.domain(Interval::of(1, 8)).build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every compilable query yields a plan set the audit certifies: the
    /// compiler's normalization (degenerate/unsatisfiable indicators dropped,
    /// closures placed by time-crossing, links matching segment arity) is
    /// exactly what the analyzer checks.
    #[test]
    fn compiled_plans_always_pass_the_audit(path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        // Some surface forms are rejected at compile time (e.g. a path that is
        // pure time navigation under an outer star); those never reach the
        // executor, so only successful compilations are audited.
        if let Ok(plan_set) = compile(&clause) {
            let report = audit(&plan_set)
                .unwrap_or_else(|e| panic!("compiled plan set failed the audit for {text}: {e}"));
            prop_assert_eq!(report.hop_depths.len(), plan_set.plans.len());
            for (plan, hops) in plan_set.plans.iter().zip(&report.hop_depths) {
                prop_assert_eq!(hop_depth(plan), *hops);
            }
        }
    }

    /// An audited plan set executes without panicking (the executor's own
    /// debug-assertion audit agrees with the standalone one).
    #[test]
    fn audited_plans_execute(path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        if let Ok(plan_set) = compile(&clause) {
            let graph = tiny_graph();
            engine::execute(&plan_set, &graph, &ExecutionOptions::default());
        }
    }

    /// Every invariant-breaking mutation of a well-formed plan is rejected
    /// with a diagnostic naming the defect.
    #[test]
    fn mutated_plans_always_fail_the_audit(mutation in 0..8usize, path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        let Ok(plan_set) = compile(&clause) else { return Ok(()) };
        if plan_set.plans.is_empty() {
            return Ok(());
        }
        let broken = break_plan(plan_set, mutation);
        let error = audit(&broken).expect_err("a broken plan must be rejected");
        prop_assert!(!error.issues.is_empty());
        for issue in &error.issues {
            prop_assert!(issue.plan.is_some(), "issues name the offending plan");
            prop_assert!(!issue.message.is_empty());
        }
    }
}

/// Applies one of eight invariant-breaking mutations to the first plan.
fn break_plan(mut plan_set: PlanSet, mutation: usize) -> PlanSet {
    let unsat = Shift { forward: true, min: 3, max: Some(1) };
    let plan = &mut plan_set.plans[0];
    match mutation {
        // Link-arity violations.
        0 => plan.segments.push(engine::plan::Segment::default()),
        1 => plan.links.push(TemporalLink::Shift(unsat)),
        // Unsatisfiable / degenerate operators the compiler normalizes away.
        2 => {
            plan.segments.push(engine::plan::Segment::default());
            plan.links.push(TemporalLink::Shift(unsat));
        }
        3 => plan.segments[0].ops.push(MicroOp::Closure(ClosureOp::structural(
            vec![vec![]],
            0,
            None,
        ))),
        4 => plan.segments[0].ops.push(MicroOp::Closure(ClosureOp {
            alternatives: vec![],
            min: 0,
            max: None,
        })),
        5 => plan.segments[0].ops.push(MicroOp::Closure(ClosureOp::structural(
            vec![vec![MicroOp::Hop(engine::plan::HopDirection::Forward)]],
            1,
            Some(1),
        ))),
        // Binding violations: out-of-range slot, then a duplicate bind.
        6 => plan.segments[0].ops.push(MicroOp::Bind(usize::MAX)),
        _ => {
            plan.segments[0].ops.push(MicroOp::Bind(0));
            plan.segments[0].ops.push(MicroOp::Bind(0));
        }
    }
    plan_set
}
