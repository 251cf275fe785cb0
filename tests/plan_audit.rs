//! Fuzzed plan-audit tests: the plan constructors, which run the static
//! analyzer (`engine::plan::audit`), must accept every plan the compiler
//! produces — over randomly generated surface queries spanning the whole
//! practical fragment — and must refuse every random structural mutation that
//! breaks one of the invariants the executor and live maintenance rely on.

use engine::plan::{ClosureOp, EnginePlan, MicroOp, PlanSet, Segment, Shift, TemporalLink};
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

    /// Every generated query compiles, so its plan set passed the audit: the
    /// compiler's normalization (degenerate/unsatisfiable indicators dropped,
    /// closures placed by time-crossing, links matching segment arity) is
    /// exactly what the analyzer checks.  The generated texts bind two
    /// distinct variables and expand to far fewer than `MAX_PLANS` plans, the
    /// compiler's other two refusals.
    #[test]
    fn compiled_plans_always_pass_the_audit(path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        let compiled = compile(&clause);
        prop_assert!(compiled.is_ok(), "the audit refused the plans of {}: {:?}", text, compiled);
    }

    /// A compiled plan set executes without panicking.
    #[test]
    fn audited_plans_execute(path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        if let Ok(plan_set) = compile(&clause) {
            let graph = tiny_graph();
            engine::execute(&plan_set, &graph, &ExecutionOptions::default());
        }
    }

    /// Every invariant-breaking mutation of a well-formed plan is refused
    /// with a diagnostic naming the defect: by `EnginePlan::new`, or, for the
    /// out-of-range slot that only the variables reveal, by `PlanSet::new`,
    /// which names the plan.
    #[test]
    fn mutated_plans_always_fail_the_audit(mutation in 0..8usize, path in path_strategy()) {
        let text = format!("MATCH (x:Person)-/{path}/-(y) ON g");
        let clause = parse_match(&text).expect("generated query is well-formed");
        let Ok(plan_set) = compile(&clause) else { return Ok(()) };
        let Some(first) = plan_set.plans().first() else { return Ok(()) };
        let (segments, links) = break_plan(first, mutation);
        let built = EnginePlan::new(segments, links);
        let error = if mutation == 6 {
            let mut plans = plan_set.plans().to_vec();
            plans[0] = built.expect("a plan alone has no variables to range-check its slots");
            PlanSet::new(plans, plan_set.variables().to_vec())
                .expect_err("a slot past the variables must be rejected")
        } else {
            built.expect_err("a broken plan must be rejected")
        };
        prop_assert!(!error.issues.is_empty());
        for issue in &error.issues {
            prop_assert_eq!(issue.plan, (mutation == 6).then_some(0), "only a set names plans");
            prop_assert!(!issue.message.is_empty());
        }
    }
}

/// Applies one of eight invariant-breaking mutations to copies of a plan's
/// segments and links.
fn break_plan(plan: &EnginePlan, mutation: usize) -> (Vec<Segment>, Vec<TemporalLink>) {
    let unsat = Shift { forward: true, min: 3, max: Some(1) };
    let (mut segments, mut links) = (plan.segments().to_vec(), plan.links().to_vec());
    match mutation {
        // Link-arity violations.
        0 => segments.push(Segment::default()),
        1 => links.push(TemporalLink::Shift(unsat)),
        // Unsatisfiable / degenerate operators the compiler normalizes away.
        2 => {
            segments.push(Segment::default());
            links.push(TemporalLink::Shift(unsat));
        }
        3 => segments[0].ops.push(MicroOp::Closure(ClosureOp::structural(vec![vec![]], 0, None))),
        4 => segments[0].ops.push(MicroOp::Closure(ClosureOp {
            alternatives: vec![],
            min: 0,
            max: None,
        })),
        5 => segments[0].ops.push(MicroOp::Closure(ClosureOp::structural(
            vec![vec![MicroOp::Hop(engine::plan::HopDirection::Forward)]],
            1,
            Some(1),
        ))),
        // Binding violations: out-of-range slot, then a duplicate bind.
        6 => segments[0].ops.push(MicroOp::Bind(usize::MAX)),
        _ => {
            segments[0].ops.push(MicroOp::Bind(0));
            segments[0].ops.push(MicroOp::Bind(0));
        }
    }
    (segments, links)
}
