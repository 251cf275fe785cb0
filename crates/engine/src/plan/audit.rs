//! Static analysis of plans: every invariant the executor, Step-3 expansion
//! and live delta seeding rely on, checked by the only two ways to build a
//! plan, [`EnginePlan::new`] and [`PlanSet::new`], in every build.
//!
//! The executor indexes into a plan's links, the Step-3 expansion pairs
//! segment intervals through [`TimeLag`](crate::chain::TimeLag)s recorded per
//! time-crossing closure, and live maintenance
//! ([`crate::executor::run_plan_seeded`] callers) trusts the statically
//! derived hop count.  A malformed plan would therefore fail *late* and far
//! from its cause — the constructors refuse it *early* with a diagnostic
//! naming the offending segment, link or operation, and a plan that exists
//! is valid.  The workspace analyzer (`cargo run -p check -- --plans`)
//! reports the hop depth and closure nesting of the Q1–Q12 plans on every CI
//! run.
//!
//! The checks allocate nothing unless they find a defect: a location string
//! is built only for an issue that is reported.

use std::fmt;

use crate::plan::{ClosureOp, ClosureStep, EnginePlan, MicroOp, PlanSet, Segment, TemporalLink};

/// The deepest closure nesting the audit accepts.  The surface syntax has no
/// practical use for repetition towers beyond a couple of levels; anything
/// deeper than this is almost certainly a plan-construction bug (or an
/// adversarial input) and would make the fixpoint state space explode.
pub const MAX_CLOSURE_DEPTH: usize = 8;

/// The most structural hops outside closures the audit accepts.  Live delta
/// seeding runs a breadth-first sweep of the object graph to a fixpoint-free
/// plan's hop count on every refresh ([`hop_depth`]), so an absurd hop count
/// turns each refresh into a full traversal; real plans stay in the single
/// digits.  A plan with closures is held to it too: the optimizer drops a
/// closure it proves idle, which leaves the hops without one.
pub const MAX_STATIC_HOPS: usize = 256;

/// The most plans a [`PlanSet`] holds, and so the most [`compile`](crate::compile)
/// expands one clause's unions to: a run of unions is their cartesian product,
/// so it grows exponentially with the run; the benchmark queries compile to one
/// or two plans each.
pub const MAX_PLANS: usize = 1024;

/// One defect found in a plan, with enough location context to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditIssue {
    /// Index of the offending plan within the refused [`PlanSet`] (`None` when
    /// [`EnginePlan::new`] refused a single plan).
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

/// The error of a refused plan or plan set: every issue found, not just the
/// first.
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

/// The checks of [`EnginePlan::new`]: every invariant of a plan on its own.
pub(crate) fn audit_plan(plan: &EnginePlan) -> Result<(), AuditError> {
    let mut issues = Vec::new();
    // Link arity: the executor walks `links[index - 1]` for every segment
    // index > 0, so a mismatch is an out-of-bounds panic (or silently dropped
    // links) at execution time.
    let (segments, links) = (plan.segments(), plan.links());
    if segments.is_empty() {
        issues.push(issue(
            &"plan",
            "a plan must have at least one segment; the compiler always starts \
             from one empty segment",
        ));
    }
    let expected_links = segments.len().saturating_sub(1);
    if links.len() != expected_links {
        issues.push(issue(
            &"links",
            format!(
                "{} segments require exactly {} temporal link(s), found {}; every \
                 consecutive segment pair must be joined by exactly one link",
                segments.len(),
                expected_links,
                links.len()
            ),
        ));
    }
    for (index, link) in links.iter().enumerate() {
        audit_link(index, link, &mut issues);
    }
    for (seg_index, segment) in segments.iter().enumerate() {
        audit_segment(seg_index, segment, &mut issues);
    }
    // Plans bind a handful of slots: comparing each bind with the ones before
    // it needs no set.
    for (index, (seg_index, op_index, slot)) in binds(plan).enumerate() {
        if binds(plan).take(index).any(|(.., earlier)| earlier == slot) {
            issues.push(issue(
                &format_args!("segment {seg_index}, op {op_index}"),
                format!(
                    "slot {slot} is bound twice; the compiler rejects duplicate \
                     variables, so each slot is bound at most once per plan"
                ),
            ));
        }
    }
    let depth = closure_depth(plan);
    if depth > MAX_CLOSURE_DEPTH {
        issues.push(issue(
            &"plan",
            format!(
                "closure nesting depth {depth} exceeds the supported maximum of \
                 {MAX_CLOSURE_DEPTH}; flatten the repetition tower or raise \
                 MAX_CLOSURE_DEPTH deliberately"
            ),
        ));
    }
    let hops = plan.hop_count();
    if hops > MAX_STATIC_HOPS {
        issues.push(issue(
            &"plan",
            format!(
                "statically-known hop count {hops} exceeds {MAX_STATIC_HOPS}; \
                 live delta seeding sweeps the object graph to this depth on \
                 every refresh, so a plan this deep must be a construction bug"
            ),
        ));
    }
    refuse_any(issues)
}

/// The checks of [`PlanSet::new`], which only the set can make: at most
/// [`MAX_PLANS`] plans, each binding every variable slot of the set and no
/// other.  [`EnginePlan::new`] has already refused a slot bound twice, so each
/// slot is bound exactly once, which Step 3 relies on to read a row's objects
/// through [`ChainLayout::by_slot`](crate::plan::ChainLayout::by_slot).
pub(crate) fn audit_plan_set(plan_set: &PlanSet) -> Result<(), AuditError> {
    let mut issues = Vec::new();
    let (plans, variables) = (plan_set.plans(), plan_set.variables());
    let slots = variables.len();
    if plans.len() > MAX_PLANS {
        issues.push(issue(
            &"plans",
            format!(
                "{} plans exceed the supported maximum of {MAX_PLANS}; a run of unions \
                 multiplies its alternatives, so the compiler refuses one that expands \
                 this far",
                plans.len()
            ),
        ));
    }
    for (index, plan) in plans.iter().enumerate() {
        for (seg_index, op_index, slot) in binds(plan).filter(|&(.., slot)| slot >= slots) {
            let message = format!(
                "bind targets slot {slot} but the plan set declares only {slots} \
                 variable(s); slots index PlanSet::variables"
            );
            let issue = issue(&format_args!("segment {seg_index}, op {op_index}"), message);
            issues.push(AuditIssue { plan: Some(index), ..issue });
        }
        let bound = |slot| plan.layout().binds().iter().any(|&(bound, _)| bound == slot);
        for (slot, name) in variables.iter().enumerate().filter(|&(slot, _)| !bound(slot)) {
            let message = format!(
                "slot {slot} (`{name}`) is never bound; every plan of a set binds \
                 every variable, since a binding row has a column for each"
            );
            issues.push(AuditIssue { plan: Some(index), ..issue(&"binds", message) });
        }
    }
    refuse_any(issues)
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

/// An issue of no plan index; `location` is rendered only here, once a
/// defect is found.
fn issue(location: &dyn fmt::Display, message: impl Into<String>) -> AuditIssue {
    AuditIssue { plan: None, location: location.to_string(), message: message.into() }
}

/// The `(segment, op, slot)` of every `Bind` in a plan's segments.
fn binds(plan: &EnginePlan) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    plan.segments().iter().enumerate().flat_map(|(seg_index, segment)| {
        segment.ops.iter().enumerate().filter_map(move |(op_index, op)| match op {
            MicroOp::Bind(slot) => Some((seg_index, op_index, *slot)),
            _ => None,
        })
    })
}

fn refuse_any(issues: Vec<AuditIssue>) -> Result<(), AuditError> {
    match issues.is_empty() {
        true => Ok(()),
        false => Err(AuditError { issues }),
    }
}

fn audit_link(index: usize, link: &TemporalLink, issues: &mut Vec<AuditIssue>) {
    match link {
        TemporalLink::Shift(shift) => {
            if shift.is_unsatisfiable() {
                issues.push(issue(
                    &format_args!("link {index}"),
                    format!(
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
                    &format_args!("link {index}"),
                    "purely structural closure used as a temporal link: Step-3 \
                     expansion expects every closure link to record a TimeLag per \
                     chain, which only time-crossing bodies produce; structural \
                     repetition belongs inside a segment as MicroOp::Closure",
                ));
            }
            audit_closure(&format_args!("link {index}"), closure, issues);
        }
    }
}

fn audit_segment(seg_index: usize, segment: &Segment, issues: &mut Vec<AuditIssue>) {
    for (op_index, op) in segment.ops.iter().enumerate() {
        if let MicroOp::Closure(closure) = op {
            if closure.is_time_crossing() {
                issues.push(issue(
                    &format_args!("segment {seg_index}, op {op_index}"),
                    "time-crossing closure inside a structural segment: a body \
                     containing shifts relates different time points and must \
                     compile to a TemporalLink::Closure splitting the segments",
                ));
            }
            audit_closure(&format_args!("segment {seg_index}, op {op_index}"), closure, issues);
        }
    }
}

fn audit_closure(location: &dyn fmt::Display, closure: &ClosureOp, issues: &mut Vec<AuditIssue>) {
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
                format!(
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
                        format!(
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
                            format!(
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
            format!(
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
            format!(
                "degenerate repetition bounds [{n}, {n}]: p[0,0] is the empty path \
                 and p[1,1] is p itself — both are normalised away during \
                 compilation and must not reach the fixpoint operator",
                n = closure.min
            ),
        ));
    }
}

/// The deepest closure nesting in the plan (0 for closure-free plans).
pub fn closure_depth(plan: &EnginePlan) -> usize {
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
        plan.segments().iter().flat_map(|s| s.ops.iter()).map(op_depth).max().unwrap_or(0);
    let link_depth = plan
        .links()
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

    /// A closure whose body moves through time, so it belongs on a link.
    fn mixed() -> ClosureOp {
        ClosureOp {
            alternatives: vec![vec![hop().into(), ClosureStep::Shift(shift(1, Some(1)))]],
            min: 0,
            max: None,
        }
    }

    #[test]
    fn benchmark_queries_pass_the_audit() {
        for id in QueryId::ALL {
            let plan_set = crate::queries::plan_for(id);
            let plans = plan_set
                .plans()
                .iter()
                .map(|plan| EnginePlan::new(plan.segments().to_vec(), plan.links().to_vec()))
                .collect::<Result<Vec<_>, _>>()
                .unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            let rebuilt = PlanSet::new(plans, plan_set.variables().to_vec())
                .unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert_eq!(rebuilt, plan_set, "{}", id.name());
        }
    }

    #[test]
    fn closure_queries_pass_and_report_unbounded_hops() {
        for text in [
            "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g",
            "MATCH (x)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g",
            "MATCH (x)-/((FWD/NEXT)[1,2]/BWD)*/-(y) ON g",
        ] {
            let plan_set =
                compile(&parse_match(text).unwrap()).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(
                plan_set.plans().iter().all(|plan| hop_depth(plan).is_none()),
                "{text}: closures have no static hop bound"
            );
            assert!(plan_set.plans().iter().map(closure_depth).max() >= Some(1), "{text}");
        }
    }

    #[test]
    fn empty_plan_sets_are_valid() {
        let plan_set = compile(&parse_match("MATCH (x)-/NEXT[3,1]/-(y) ON g").unwrap()).unwrap();
        assert!(plan_set.plans().is_empty());
        assert_eq!(PlanSet::new(vec![], plan_set.variables().to_vec()), Ok(plan_set));
    }

    /// The segments and links of a valid two-segment plan binding slots 0
    /// and 1, to break, and its variables.
    fn base() -> (Vec<Segment>, Vec<TemporalLink>, Vec<String>) {
        let plan_set =
            compile(&parse_match("MATCH (x:Person)-/FWD/:meets/FWD/NEXT*/-(y) ON g").unwrap())
                .unwrap();
        let plan = &plan_set.plans()[0];
        (plan.segments().to_vec(), plan.links().to_vec(), plan_set.variables().to_vec())
    }

    #[test]
    fn link_arity_mismatch_is_rejected() {
        let (segments, mut links, _) = base();
        links.clear();
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert_eq!(err.issues.len(), 1);
        assert!(err.issues[0].message.contains("exactly 1 temporal link(s), found 0"), "{err}");
        assert_eq!(err.issues[0].plan, None);

        let (segments, mut links, _) = base();
        links.push(TemporalLink::Shift(shift(0, None)));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues[0].message.contains("found 2"));

        let err = EnginePlan::new(vec![], vec![]).unwrap_err();
        assert!(err.issues.iter().any(|i| i.message.contains("at least one segment")), "{err}");
    }

    #[test]
    fn unsatisfiable_and_degenerate_indicators_are_rejected() {
        let (segments, mut links, _) = base();
        links[0] = TemporalLink::Shift(shift(3, Some(1)));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues[0].message.contains("unsatisfiable shift [3, 1]"), "{err}");

        let unsat_closure = ClosureOp::structural(vec![vec![hop()]], 4, Some(2));
        let (mut segments, links, _) = base();
        segments[0].ops.push(MicroOp::Closure(unsat_closure));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues[0].message.contains("unsatisfiable repetition bounds [4, 2]"), "{err}");

        let degenerate = ClosureOp::structural(vec![vec![hop()]], 1, Some(1));
        let (mut segments, links, _) = base();
        segments[0].ops.push(MicroOp::Closure(degenerate));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues[0].message.contains("degenerate repetition bounds [1, 1]"), "{err}");
    }

    #[test]
    fn closure_placement_is_checked() {
        // A time-crossing closure smuggled into a segment.
        let (mut segments, links, _) = base();
        segments[0].ops.push(MicroOp::Closure(mixed()));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(
            err.issues[0].message.contains("time-crossing closure inside a structural segment"),
            "{err}"
        );

        // A structural closure masquerading as a temporal link.
        let structural = ClosureOp::structural(vec![vec![hop()]], 0, None);
        let (segments, mut links, _) = base();
        links[0] = TemporalLink::Closure(structural);
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(
            err.issues[0].message.contains("structural closure used as a temporal link"),
            "{err}"
        );
    }

    #[test]
    fn closure_bodies_are_checked() {
        let refused = |closure: ClosureOp| {
            let (mut segments, links, _) = base();
            segments[0].ops.push(MicroOp::Closure(closure));
            EnginePlan::new(segments, links).unwrap_err()
        };
        let err = refused(ClosureOp { alternatives: vec![], min: 0, max: None });
        assert!(err.issues[0].message.contains("no alternatives"), "{err}");

        let err = refused(ClosureOp { alternatives: vec![vec![]], min: 0, max: None });
        assert!(err.issues[0].message.contains("alternative 0 is empty"), "{err}");

        let err = refused(ClosureOp {
            alternatives: vec![vec![hop().into(), MicroOp::Bind(0).into()]],
            min: 0,
            max: None,
        });
        assert!(err.issues[0].message.contains("binds slot 0"), "{err}");
    }

    #[test]
    fn bind_slots_are_range_and_uniqueness_checked() {
        // A plan on its own has no variables to range-check its slots against:
        // its set does that, and structure is still audited without it.
        let (mut segments, links, variables) = base();
        segments[0].ops.push(MicroOp::Bind(9));
        let out_of_range = EnginePlan::new(segments.clone(), links).unwrap();
        let err = PlanSet::new(vec![out_of_range], variables).unwrap_err();
        assert!(err.issues[0].message.contains("slot 9"), "{err}");
        assert_eq!(err.issues[0].plan, Some(0));
        assert!(!EnginePlan::new(segments, vec![]).unwrap_err().issues.is_empty());

        let (mut segments, links, _) = base();
        segments[1].ops.push(MicroOp::Bind(0));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues[0].message.contains("bound twice"), "{err}");
    }

    #[test]
    fn a_plan_leaving_a_slot_unbound_is_refused_by_its_set() {
        // The second plan binds x but not y: alone it is a valid plan, in a set
        // of two variables it leaves a column empty.
        let (segments, links, variables) = base();
        let whole = EnginePlan::new(segments.clone(), links.clone()).unwrap();
        let mut without_y = segments;
        without_y[1].ops.retain(|op| *op != MicroOp::Bind(1));
        let partial = EnginePlan::new(without_y, links).unwrap();
        assert!(PlanSet::new(vec![whole.clone()], variables.clone()).is_ok());
        let err = PlanSet::new(vec![whole, partial], variables).unwrap_err();
        assert_eq!(err.issues.len(), 1, "{err}");
        assert_eq!((err.issues[0].plan, err.issues[0].location.as_str()), (Some(1), "binds"));
        assert!(err.issues[0].message.contains("slot 1 (`y`) is never bound"), "{err}");
    }

    #[test]
    fn plan_sets_past_the_plan_bound_are_rejected() {
        let (segments, links, variables) = base();
        let plan = EnginePlan::new(segments, links).unwrap();
        assert!(PlanSet::new(vec![plan.clone(); MAX_PLANS], variables.clone()).is_ok());
        let err = PlanSet::new(vec![plan; MAX_PLANS + 1], variables).unwrap_err();
        assert_eq!(err.issues.len(), 1);
        assert_eq!(err.issues[0].location, "plans");
        assert!(err.issues[0].message.contains("1025 plans exceed"), "{err}");
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
        let (mut segments, links, _) = base();
        segments[0].ops.push(MicroOp::Closure(closure));
        let err = EnginePlan::new(segments, links).unwrap_err();
        assert!(err.issues.iter().any(|i| i.message.contains("nesting depth")), "{err}");
    }

    #[test]
    fn hop_depth_counts_hops_and_rejects_closures() {
        let filter = MicroOp::Filter(ObjFilter::default());
        let plain = EnginePlan::new(vec![Segment { ops: vec![filter, hop(), hop()] }], vec![]);
        assert_eq!(hop_depth(&plain.unwrap()), Some(2));
        let shifted = EnginePlan::new(
            vec![Segment { ops: vec![hop()] }, Segment { ops: vec![hop()] }],
            vec![TemporalLink::Shift(shift(0, None))],
        );
        assert_eq!(hop_depth(&shifted.unwrap()), Some(2));
        let closure = ClosureOp::structural(vec![vec![hop()]], 0, None);
        let with_closure =
            EnginePlan::new(vec![Segment { ops: vec![MicroOp::Closure(closure)] }], vec![]);
        assert_eq!(hop_depth(&with_closure.unwrap()), None);
        let with_time_closure = EnginePlan::new(
            vec![Segment::default(), Segment::default()],
            vec![TemporalLink::Closure(mixed())],
        );
        assert_eq!(hop_depth(&with_time_closure.unwrap()), None);
    }

    #[test]
    fn diagnostics_render_with_plan_and_location() {
        let (segments, mut links, variables) = base();
        links.clear();
        let rendered = EnginePlan::new(segments.clone(), links).unwrap_err().to_string();
        assert!(rendered.contains("plan audit failed with 1 issue(s)"), "{rendered}");
        assert!(rendered.contains("  - links:"), "{rendered}");

        let mut binds_past = segments;
        binds_past[0].ops.push(MicroOp::Bind(9));
        let plan = EnginePlan::new(binds_past, base().1).unwrap();
        let rendered = PlanSet::new(vec![plan], variables).unwrap_err().to_string();
        assert!(rendered.contains("plan 0, segment 0, op "), "{rendered}");
    }
}
