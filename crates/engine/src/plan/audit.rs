//! Static analysis of compiled plans: every invariant the executor, Step-3
//! expansion and live delta seeding rely on, checked *before* execution.
//!
//! The compiler ([`crate::compiler`]) upholds these invariants by construction,
//! but plans can also be built by hand ([`EnginePlan`]'s fields are public) or
//! arrive from a cache, and the executor indexes into `links`, the Step-3
//! expansion pairs segment intervals through [`TimeLag`](crate::chain::TimeLag)s
//! recorded per time-crossing closure, and live maintenance
//! ([`crate::executor::run_plan_seeded`] callers) trusts the statically derived
//! hop count.  A malformed plan therefore fails *late* and far from its cause —
//! this module fails it *early* with a diagnostic naming the offending segment,
//! link or operation.
//!
//! The audit is wired into the executor as a debug assertion (every
//! `cargo test` execution audits every plan it runs) and is exposed through
//! [`audit`] / [`audit_plan`] for standalone use: the workspace analyzer
//! (`cargo run -p check -- --plans`) audits the precompiled Q1–Q12 table plus
//! the benchmark closure queries on every CI run.

use std::fmt;

use crate::plan::{ClosureOp, ClosureStep, EnginePlan, MicroOp, PlanSet, Segment, TemporalLink};

/// The deepest closure nesting the audit accepts.  The surface syntax has no
/// practical use for repetition towers beyond a couple of levels; anything
/// deeper than this is almost certainly a plan-construction bug (or an
/// adversarial input) and would make the fixpoint state space explode.
pub const MAX_CLOSURE_DEPTH: usize = 8;

/// The largest statically-known hop count the audit accepts.  Live delta
/// seeding runs a breadth-first sweep of the object graph to this depth on
/// every refresh ([`hop_depth`]), so an absurd hop count turns each refresh
/// into a full traversal; real plans stay in the single digits.
pub const MAX_STATIC_HOPS: usize = 256;

/// The most plans [`compile`](crate::compile) expands one clause's unions to:
/// a run of unions is their cartesian product, so it grows exponentially with
/// the run; the benchmark queries compile to one or two plans each.
pub const MAX_PLANS: usize = 1024;

/// One defect found in a plan, with enough location context to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditIssue {
    /// Index of the offending plan within the audited [`PlanSet`] (`None` when
    /// a single [`EnginePlan`] was audited on its own).
    pub plan: Option<usize>,
    /// Where in the plan the defect sits (`"segment 2, op 0"`, `"link 1"`, …).
    pub location: String,
    /// What is wrong and what the invariant requires instead.
    pub message: String,
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.plan {
            Some(p) => write!(f, "plan {p}, {}: {}", self.location, self.message),
            None => write!(f, "{}: {}", self.location, self.message),
        }
    }
}

/// The error of a failed [`audit`]: every issue found, not just the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The defects, in plan order.
    pub issues: Vec<AuditIssue>,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan audit failed with {} issue(s):", self.issues.len())?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditError {}

/// What a successful audit certifies, per plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The statically-known structural hop count of each plan, in plan order;
    /// `None` marks plans containing a closure fixpoint (unbounded reach —
    /// live maintenance must take its conservative full-recompute path).
    pub hop_depths: Vec<Option<usize>>,
    /// The deepest closure nesting seen across all plans.
    pub max_closure_depth: usize,
}

/// Audits a compiled plan set against every executor/expansion/maintenance
/// invariant.  Returns a certificate of the statically derived facts on
/// success and the full list of defects on failure.
///
/// An *empty* plan set (zero plans) is valid: the compiler produces it for
/// queries whose every alternative is unsatisfiable, and the executor returns
/// an empty answer for it.
pub fn audit(plan_set: &PlanSet) -> Result<AuditReport, AuditError> {
    let mut issues = Vec::new();
    let mut hop_depths = Vec::with_capacity(plan_set.plans.len());
    let mut max_depth = 0usize;
    for (index, plan) in plan_set.plans.iter().enumerate() {
        let found = audit_plan(plan, Some(plan_set.variables.len()));
        issues.extend(found.into_iter().map(|mut issue| {
            issue.plan = Some(index);
            issue
        }));
        hop_depths.push(hop_depth(plan));
        max_depth = max_depth.max(closure_depth(plan));
    }
    if issues.is_empty() {
        Ok(AuditReport { hop_depths, max_closure_depth: max_depth })
    } else {
        Err(AuditError { issues })
    }
}

/// Audits a single plan.  `num_slots` is the number of variable slots of the
/// surrounding plan set; pass `None` to skip the slot-range check when the
/// plan is audited without its plan set (e.g. from
/// [`crate::executor::run_plan_seeded`]).
pub fn audit_plan(plan: &EnginePlan, num_slots: Option<usize>) -> Vec<AuditIssue> {
    let mut issues = Vec::new();
    // Link arity: the executor walks `links[index - 1]` for every segment
    // index > 0, so a mismatch is an out-of-bounds panic (or silently dropped
    // links) at execution time.
    if plan.segments.is_empty() {
        issues.push(issue(
            "plan",
            "a plan must have at least one segment; the compiler always starts \
             from one empty segment",
        ));
    }
    let expected_links = plan.segments.len().saturating_sub(1);
    if plan.links.len() != expected_links {
        issues.push(issue(
            "links",
            &format!(
                "{} segments require exactly {} temporal link(s), found {}; every \
                 consecutive segment pair must be joined by exactly one link",
                plan.segments.len(),
                expected_links,
                plan.links.len()
            ),
        ));
    }
    for (index, link) in plan.links.iter().enumerate() {
        audit_link(index, link, &mut issues);
    }
    let mut bound = Vec::new();
    for (seg_index, segment) in plan.segments.iter().enumerate() {
        audit_segment(seg_index, segment, num_slots, &mut bound, &mut issues);
    }
    let depth = closure_depth(plan);
    if depth > MAX_CLOSURE_DEPTH {
        issues.push(issue(
            "plan",
            &format!(
                "closure nesting depth {depth} exceeds the supported maximum of \
                 {MAX_CLOSURE_DEPTH}; flatten the repetition tower or raise \
                 MAX_CLOSURE_DEPTH deliberately"
            ),
        ));
    }
    if let Some(hops) = hop_depth(plan) {
        if hops > MAX_STATIC_HOPS {
            issues.push(issue(
                "plan",
                &format!(
                    "statically-known hop count {hops} exceeds {MAX_STATIC_HOPS}; \
                     live delta seeding sweeps the object graph to this depth on \
                     every refresh, so a plan this deep must be a construction bug"
                ),
            ));
        }
    }
    issues
}

/// The number of structural hops a plan performs, or `None` if the plan
/// contains a closure fixpoint (whose reach is not statically bounded).
///
/// This is the bound live delta seeding depends on: a chain seeded at a node
/// can only observe objects within this many structural hops of it, so a
/// refresh only needs to re-evaluate seeds within that distance of a touched
/// object ([`crate::executor::run_plan_seeded`]).
pub fn hop_depth(plan: &EnginePlan) -> Option<usize> {
    (!plan.has_fixpoint()).then(|| plan.hop_count())
}

fn issue(location: &str, message: &str) -> AuditIssue {
    AuditIssue { plan: None, location: location.to_owned(), message: message.to_owned() }
}

fn audit_link(index: usize, link: &TemporalLink, issues: &mut Vec<AuditIssue>) {
    let location = format!("link {index}");
    match link {
        TemporalLink::Shift(shift) => {
            if shift.is_unsatisfiable() {
                issues.push(issue(
                    &location,
                    &format!(
                        "unsatisfiable shift [{}, {}]: the compiler drops n > m \
                         indicators (the whole alternative relates nothing), so an \
                         executed plan must never contain one",
                        shift.min,
                        shift.max.map_or_else(|| "_".into(), |m| m.to_string())
                    ),
                ));
            }
        }
        TemporalLink::Closure(closure) => {
            if !closure.is_time_crossing() {
                issues.push(issue(
                    &location,
                    "purely structural closure used as a temporal link: Step-3 \
                     expansion expects every closure link to record a TimeLag per \
                     chain, which only time-crossing bodies produce; structural \
                     repetition belongs inside a segment as MicroOp::Closure",
                ));
            }
            audit_closure(&location, closure, issues);
        }
    }
}

fn audit_segment(
    seg_index: usize,
    segment: &Segment,
    num_slots: Option<usize>,
    bound: &mut Vec<usize>,
    issues: &mut Vec<AuditIssue>,
) {
    for (op_index, op) in segment.ops.iter().enumerate() {
        let location = format!("segment {seg_index}, op {op_index}");
        match op {
            MicroOp::Bind(slot) => {
                if num_slots.is_some_and(|n| *slot >= n) {
                    issues.push(issue(
                        &location,
                        &format!(
                            "bind targets slot {slot} but the plan set declares only \
                             {} variable(s); slots index PlanSet::variables",
                            num_slots.unwrap_or(0)
                        ),
                    ));
                }
                if bound.contains(slot) {
                    issues.push(issue(
                        &location,
                        &format!(
                            "slot {slot} is bound twice; the compiler rejects \
                             duplicate variables, so each slot is bound at most once \
                             per plan"
                        ),
                    ));
                }
                bound.push(*slot);
            }
            MicroOp::Closure(closure) => {
                if closure.is_time_crossing() {
                    issues.push(issue(
                        &location,
                        "time-crossing closure inside a structural segment: a body \
                         containing shifts relates different time points and must \
                         compile to a TemporalLink::Closure splitting the segments",
                    ));
                }
                audit_closure(&location, closure, issues);
            }
            MicroOp::Hop(_) | MicroOp::Filter(_) => {}
        }
    }
}

fn audit_closure(location: &str, closure: &ClosureOp, issues: &mut Vec<AuditIssue>) {
    if closure.alternatives.is_empty() {
        issues.push(issue(
            location,
            "closure with no alternatives: the fixpoint body would be the empty \
             union, which matches nothing — the compiler drops such repetitions \
             entirely",
        ));
    }
    for (alt_index, alternative) in closure.alternatives.iter().enumerate() {
        if alternative.is_empty() {
            issues.push(issue(
                location,
                &format!(
                    "closure alternative {alt_index} is empty: an empty body makes \
                     every iteration a no-op and the fixpoint either trivial or \
                     non-terminating; degenerate repetitions are normalised away \
                     during compilation"
                ),
            ));
        }
        for step in alternative {
            match step {
                ClosureStep::Micro(MicroOp::Bind(slot)) => {
                    issues.push(issue(
                        location,
                        &format!(
                            "closure alternative {alt_index} binds slot {slot}: the \
                             surface language cannot bind variables inside a repeated \
                             group, and Step-3 expansion does not model per-iteration \
                             bindings"
                        ),
                    ));
                }
                ClosureStep::Micro(MicroOp::Closure(inner)) => {
                    audit_closure(location, inner, issues);
                }
                ClosureStep::Shift(shift) => {
                    if shift.is_unsatisfiable() {
                        issues.push(issue(
                            location,
                            &format!(
                                "closure alternative {alt_index} contains an \
                                 unsatisfiable shift [{}, {}]; the compiler drops \
                                 n > m indicators before they reach a plan",
                                shift.min,
                                shift.max.map_or_else(|| "_".into(), |m| m.to_string())
                            ),
                        ));
                    }
                }
                ClosureStep::Micro(MicroOp::Hop(_) | MicroOp::Filter(_)) => {}
            }
        }
    }
    if closure.max.is_some_and(|m| m < closure.min) {
        issues.push(issue(
            location,
            &format!(
                "unsatisfiable repetition bounds [{}, {}]: n > m relates nothing and \
                 is dropped during compilation",
                closure.min,
                closure.max.unwrap_or(0)
            ),
        ));
    }
    if closure.min == closure.max.unwrap_or(u32::MAX) && closure.min <= 1 {
        issues.push(issue(
            location,
            &format!(
                "degenerate repetition bounds [{n}, {n}]: p[0,0] is the empty path \
                 and p[1,1] is p itself — both are normalised away during \
                 compilation and must not reach the fixpoint operator",
                n = closure.min
            ),
        ));
    }
}

/// The deepest closure nesting in the plan (0 for closure-free plans).
fn closure_depth(plan: &EnginePlan) -> usize {
    fn op_depth(op: &MicroOp) -> usize {
        match op {
            MicroOp::Closure(c) => closure_op_depth(c),
            _ => 0,
        }
    }
    fn closure_op_depth(closure: &ClosureOp) -> usize {
        1 + closure
            .alternatives
            .iter()
            .flatten()
            .map(|step| match step {
                ClosureStep::Micro(op) => op_depth(op),
                ClosureStep::Shift(_) => 0,
            })
            .max()
            .unwrap_or(0)
    }
    let segment_depth =
        plan.segments.iter().flat_map(|s| s.ops.iter()).map(op_depth).max().unwrap_or(0);
    let link_depth = plan
        .links
        .iter()
        .map(|link| match link {
            TemporalLink::Closure(c) => closure_op_depth(c),
            TemporalLink::Shift(_) => 0,
        })
        .max()
        .unwrap_or(0);
    segment_depth.max(link_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::plan::{HopDirection, ObjFilter, Shift};
    use trpq::parser::parse_match;
    use trpq::queries::QueryId;

    fn hop() -> MicroOp {
        MicroOp::Hop(HopDirection::Forward)
    }

    fn shift(min: u32, max: Option<u32>) -> Shift {
        Shift { forward: true, min, max }
    }

    #[test]
    fn benchmark_queries_pass_the_audit() {
        for id in QueryId::ALL {
            let plan_set = crate::queries::plan_for(id);
            let report = audit(&plan_set).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert_eq!(report.hop_depths.len(), plan_set.plans.len(), "{}", id.name());
        }
    }

    #[test]
    fn closure_queries_pass_and_report_unbounded_hops() {
        for text in [
            "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g",
            "MATCH (x)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g",
            "MATCH (x)-/((FWD/NEXT)[1,2]/BWD)*/-(y) ON g",
        ] {
            let plan_set = compile(&parse_match(text).unwrap()).unwrap();
            let report = audit(&plan_set).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(
                report.hop_depths.iter().all(Option::is_none),
                "{text}: closures have no static hop bound"
            );
            assert!(report.max_closure_depth >= 1, "{text}");
        }
    }

    #[test]
    fn empty_plan_sets_are_valid() {
        let plan_set = compile(&parse_match("MATCH (x)-/NEXT[3,1]/-(y) ON g").unwrap()).unwrap();
        assert!(plan_set.plans.is_empty());
        assert_eq!(
            audit(&plan_set).unwrap(),
            AuditReport { hop_depths: vec![], max_closure_depth: 0 }
        );
    }

    fn base() -> PlanSet {
        compile(&parse_match("MATCH (x:Person)-/FWD/:meets/FWD/NEXT*/-(y) ON g").unwrap()).unwrap()
    }

    #[test]
    fn link_arity_mismatch_is_rejected() {
        let mut broken = base();
        broken.plans[0].links.clear();
        let err = audit(&broken).unwrap_err();
        assert_eq!(err.issues.len(), 1);
        assert!(err.issues[0].message.contains("exactly 1 temporal link(s), found 0"), "{err}");
        assert_eq!(err.issues[0].plan, Some(0));

        let mut extra = base();
        extra.plans[0].links.push(TemporalLink::Shift(shift(0, None)));
        assert!(audit(&extra).unwrap_err().issues[0].message.contains("found 2"));

        let no_segments =
            PlanSet { plans: vec![EnginePlan { segments: vec![], links: vec![] }], ..base() };
        let err = audit(&no_segments).unwrap_err();
        assert!(err.issues.iter().any(|i| i.message.contains("at least one segment")), "{err}");
    }

    #[test]
    fn unsatisfiable_and_degenerate_indicators_are_rejected() {
        let mut broken = base();
        broken.plans[0].links[0] = TemporalLink::Shift(shift(3, Some(1)));
        let err = audit(&broken).unwrap_err();
        assert!(err.issues[0].message.contains("unsatisfiable shift [3, 1]"), "{err}");

        let unsat_closure = ClosureOp::structural(vec![vec![hop()]], 4, Some(2));
        let mut closure_plan = base();
        closure_plan.plans[0].segments[0].ops.push(MicroOp::Closure(unsat_closure));
        let err = audit(&closure_plan).unwrap_err();
        assert!(err.issues[0].message.contains("unsatisfiable repetition bounds [4, 2]"), "{err}");

        let degenerate = ClosureOp::structural(vec![vec![hop()]], 1, Some(1));
        let mut degenerate_plan = base();
        degenerate_plan.plans[0].segments[0].ops.push(MicroOp::Closure(degenerate));
        let err = audit(&degenerate_plan).unwrap_err();
        assert!(err.issues[0].message.contains("degenerate repetition bounds [1, 1]"), "{err}");
    }

    #[test]
    fn closure_placement_is_checked() {
        // A time-crossing closure smuggled into a segment.
        let mixed = ClosureOp {
            alternatives: vec![vec![hop().into(), ClosureStep::Shift(shift(1, Some(1)))]],
            min: 0,
            max: None,
        };
        let mut in_segment = base();
        in_segment.plans[0].segments[0].ops.push(MicroOp::Closure(mixed.clone()));
        let err = audit(&in_segment).unwrap_err();
        assert!(
            err.issues[0].message.contains("time-crossing closure inside a structural segment"),
            "{err}"
        );

        // A structural closure masquerading as a temporal link.
        let structural = ClosureOp::structural(vec![vec![hop()]], 0, None);
        let mut as_link = base();
        as_link.plans[0].links[0] = TemporalLink::Closure(structural);
        let err = audit(&as_link).unwrap_err();
        assert!(
            err.issues[0].message.contains("structural closure used as a temporal link"),
            "{err}"
        );
    }

    #[test]
    fn closure_bodies_are_checked() {
        let empty_union = ClosureOp { alternatives: vec![], min: 0, max: None };
        let mut plan = base();
        plan.plans[0].segments[0].ops.push(MicroOp::Closure(empty_union));
        let err = audit(&plan).unwrap_err();
        assert!(err.issues[0].message.contains("no alternatives"), "{err}");

        let empty_body = ClosureOp { alternatives: vec![vec![]], min: 0, max: None };
        let mut plan = base();
        plan.plans[0].segments[0].ops.push(MicroOp::Closure(empty_body));
        let err = audit(&plan).unwrap_err();
        assert!(err.issues[0].message.contains("alternative 0 is empty"), "{err}");

        let binding = ClosureOp {
            alternatives: vec![vec![hop().into(), MicroOp::Bind(0).into()]],
            min: 0,
            max: None,
        };
        let mut plan = base();
        plan.plans[0].segments[0].ops.push(MicroOp::Closure(binding));
        let err = audit(&plan).unwrap_err();
        assert!(err.issues[0].message.contains("binds slot 0"), "{err}");
    }

    #[test]
    fn bind_slots_are_range_and_uniqueness_checked() {
        let mut out_of_range = base();
        out_of_range.plans[0].segments[0].ops.push(MicroOp::Bind(9));
        let err = audit(&out_of_range).unwrap_err();
        assert!(err.issues[0].message.contains("slot 9"), "{err}");

        let mut duplicate = base();
        duplicate.plans[0].segments[1].ops.push(MicroOp::Bind(0));
        let err = audit(&duplicate).unwrap_err();
        assert!(err.issues[0].message.contains("bound twice"), "{err}");

        // Without a plan set the slot-range check is skipped but structure is
        // still audited.
        let mut lone = base().plans.remove(0);
        lone.segments[0].ops.push(MicroOp::Bind(9));
        assert!(audit_plan(&lone, None).is_empty());
        lone.links.clear();
        assert!(!audit_plan(&lone, None).is_empty());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let mut closure = ClosureOp::structural(vec![vec![hop()]], 0, None);
        for _ in 0..MAX_CLOSURE_DEPTH {
            closure = ClosureOp {
                alternatives: vec![vec![ClosureStep::Micro(MicroOp::Closure(closure))]],
                min: 0,
                max: None,
            };
        }
        let mut plan = base();
        plan.plans[0].segments[0].ops.push(MicroOp::Closure(closure));
        let err = audit(&plan).unwrap_err();
        assert!(err.issues.iter().any(|i| i.message.contains("nesting depth")), "{err}");
    }

    #[test]
    fn hop_depth_counts_hops_and_rejects_closures() {
        let filter = MicroOp::Filter(ObjFilter::default());
        let plain = EnginePlan {
            segments: vec![Segment { ops: vec![filter, hop(), hop()] }],
            links: vec![],
        };
        assert_eq!(hop_depth(&plain), Some(2));
        let shifted = EnginePlan {
            segments: vec![Segment { ops: vec![hop()] }, Segment { ops: vec![hop()] }],
            links: vec![TemporalLink::Shift(shift(0, None))],
        };
        assert_eq!(hop_depth(&shifted), Some(2));
        let closure = ClosureOp::structural(vec![vec![hop()]], 0, None);
        let with_closure = EnginePlan {
            segments: vec![Segment { ops: vec![MicroOp::Closure(closure.clone())] }],
            links: vec![],
        };
        assert_eq!(hop_depth(&with_closure), None);
        let with_time_closure = EnginePlan {
            segments: vec![Segment::default(), Segment::default()],
            links: vec![TemporalLink::Closure(closure)],
        };
        assert_eq!(hop_depth(&with_time_closure), None);
    }

    #[test]
    fn diagnostics_render_with_plan_and_location() {
        let mut broken = base();
        broken.plans[0].links.clear();
        let err = audit(&broken).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("plan audit failed with 1 issue(s)"), "{rendered}");
        assert!(rendered.contains("plan 0, links:"), "{rendered}");
    }
}
