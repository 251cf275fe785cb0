//! Compilation of parsed `MATCH` clauses into engine plans.
//!
//! The engine implements the whole practical `MATCH` surface syntax: patterns whose
//! regular expressions combine structural steps (`FWD`/`BWD` and label / property
//! tests, optionally under repetition — compiled to the [`MicroOp::Closure`] fixpoint
//! operator) with temporal navigation (`NEXT`/`PREV`, optionally carrying a numerical
//! occurrence indicator or the Kleene star), plus unions.  Repetition of a group that
//! *mixes* structural and temporal navigation (e.g. `(FWD/NEXT)*`) compiles to a
//! [`TemporalLink::Closure`] — the time-aware fixpoint of
//! [`crate::steps::closure`] — which splits the surrounding segments the same way a
//! plain shift does.  Degenerate indicators are normalised during compilation:
//! `p[1,1]` is `p`, `p[0,0]` is the empty path, and an unsatisfiable `p[n,m]` with
//! `n > m` relates nothing (its alternative is dropped).

use trpq::ast::Axis;
use trpq::parser::{
    Direction, EdgePattern, MatchClause, NodePattern, PatternPart, Regex, RegexAtom, RegexItem,
};
use trpq::{QueryError, Result};

use crate::plan::audit::{audit, MAX_PLANS};
use crate::plan::{
    ClosureOp, ClosureStep, EnginePlan, HopDirection, MicroOp, ObjFilter, PlanSet, Segment, Shift,
    TemporalLink,
};

/// Compiles a parsed clause into a set of engine plans (one per union alternative).
/// A clause whose unions expand to more than [`MAX_PLANS`] plans, or whose plans
/// the [`audit`] refuses, is a [`QueryError::UnsupportedFragment`] in every build.
pub fn compile(clause: &MatchClause) -> Result<PlanSet> {
    // Assign variable slots in order of first appearance.
    let mut variables: Vec<String> = Vec::new();
    for part in &clause.parts {
        let var = match part {
            PatternPart::Node(n) => n.var.as_ref(),
            PatternPart::Edge(e) => e.var.as_ref(),
            PatternPart::Regex(_) => None,
        };
        if let Some(name) = var {
            if variables.contains(name) {
                return Err(QueryError::InvalidVariable(name.clone()));
            }
            variables.push(name.clone());
        }
    }

    // Each pattern part contributes a list of alternative op sequences; the plan set
    // is their cartesian product.
    let mut alternatives: Vec<Vec<PlanOp>> = vec![Vec::new()];
    for part in &clause.parts {
        alternatives = product(&alternatives, &compile_part(part, &variables)?)?;
    }

    let plans = alternatives.into_iter().map(assemble_plan).collect::<Result<Vec<_>>>()?;
    let plan_set = PlanSet { plans, variables, graph: clause.graph.clone() };
    // The executor asserts the audit in debug builds only.
    audit(&plan_set).map_err(|error| unsupported(error.issues[0].to_string()))?;
    Ok(plan_set)
}

/// The error of a clause the engine compiles but will not run.
fn unsupported(reason: String) -> QueryError {
    QueryError::UnsupportedFragment { expression: "the MATCH pattern".to_owned(), reason }
}

/// An error if `count` alternatives are more than [`MAX_PLANS`].
fn within_plan_bound(count: usize) -> Result<()> {
    match count > MAX_PLANS {
        true => Err(unsupported(format!("its unions expand to more than {MAX_PLANS} plans"))),
        false => Ok(()),
    }
}

/// Every `prefix` followed by every `suffix`, prefixes outermost; an error,
/// counted before anything is built, if that is more than [`MAX_PLANS`].
fn product(prefixes: &[Vec<PlanOp>], suffixes: &[Vec<PlanOp>]) -> Result<Vec<Vec<PlanOp>>> {
    let count = prefixes.len().saturating_mul(suffixes.len());
    within_plan_bound(count)?;
    let mut out = Vec::with_capacity(count);
    for prefix in prefixes {
        for suffix in suffixes {
            let mut combined = prefix.clone();
            combined.extend(suffix.iter().cloned());
            out.push(combined);
        }
    }
    Ok(out)
}

/// Intermediate op used during compilation: a structural micro-op, a temporal shift
/// separating two segments, or a time-crossing closure doing the same.
#[derive(Debug, Clone, PartialEq)]
enum PlanOp {
    Micro(MicroOp),
    Shift(Shift),
    TimeClosure(ClosureOp),
}

fn assemble_plan(ops: Vec<PlanOp>) -> Result<EnginePlan> {
    let mut plan = EnginePlan { segments: vec![Segment::default()], links: Vec::new() };
    for op in ops {
        match op {
            PlanOp::Micro(m) => plan.segments.last_mut().expect("at least one segment").ops.push(m),
            PlanOp::Shift(s) => {
                plan.links.push(TemporalLink::Shift(s));
                plan.segments.push(Segment::default());
            }
            PlanOp::TimeClosure(c) => {
                plan.links.push(TemporalLink::Closure(c));
                plan.segments.push(Segment::default());
            }
        }
    }
    Ok(plan)
}

fn slot_of(variables: &[String], name: &str) -> usize {
    variables
        .iter()
        .position(|v| v == name)
        .expect("variable was registered during slot assignment")
}

fn compile_part(part: &PatternPart, variables: &[String]) -> Result<Vec<Vec<PlanOp>>> {
    match part {
        PatternPart::Node(node) => Ok(vec![compile_node(node, variables)]),
        PatternPart::Edge(edge) => Ok(vec![compile_edge(edge, variables)]),
        PatternPart::Regex(regex) => compile_regex(regex, variables),
    }
}

fn compile_node(node: &NodePattern, variables: &[String]) -> Vec<PlanOp> {
    let filter = ObjFilter::from_pattern(Some(true), node.label.as_deref(), &node.constraints);
    let mut ops = vec![PlanOp::Micro(MicroOp::Filter(filter))];
    if let Some(var) = &node.var {
        ops.push(PlanOp::Micro(MicroOp::Bind(slot_of(variables, var))));
    }
    ops
}

fn compile_edge(edge: &EdgePattern, variables: &[String]) -> Vec<PlanOp> {
    let hop = match edge.direction {
        Direction::Out => HopDirection::Forward,
        Direction::In => HopDirection::Backward,
    };
    let filter = ObjFilter::from_pattern(Some(false), edge.label.as_deref(), &edge.constraints);
    let mut ops = vec![PlanOp::Micro(MicroOp::Hop(hop)), PlanOp::Micro(MicroOp::Filter(filter))];
    if let Some(var) = &edge.var {
        ops.push(PlanOp::Micro(MicroOp::Bind(slot_of(variables, var))));
    }
    ops.push(PlanOp::Micro(MicroOp::Hop(hop)));
    ops
}

/// Expands a regex into alternatives of op sequences (distributing unions).
fn compile_regex(regex: &Regex, variables: &[String]) -> Result<Vec<Vec<PlanOp>>> {
    let mut out = Vec::new();
    for seq in &regex.alternatives {
        // Each item contributes its own alternatives; combine by cartesian product.
        let mut seq_alternatives: Vec<Vec<PlanOp>> = vec![Vec::new()];
        for item in &seq.items {
            seq_alternatives = product(&seq_alternatives, &compile_regex_item(item, variables)?)?;
        }
        out.extend(seq_alternatives);
        within_plan_bound(out.len())?;
    }
    Ok(out)
}

fn compile_regex_item(item: &RegexItem, variables: &[String]) -> Result<Vec<Vec<PlanOp>>> {
    let Some((min, max)) = item.repeat else {
        return compile_regex_atom(&item.atom, variables);
    };
    // Constant-fold the indicator (shared classification with the semantic
    // analyzer, see `trpq::indicator`): an unsatisfiable `n > m` relates nothing,
    // so the whole concatenation containing it is empty (zero alternatives,
    // matching the reference evaluators); `[0,0]` is the zero-repetition identity
    // and `[1,1]` is the body itself.
    match trpq::classify_repeat(min, max) {
        trpq::RepeatClass::Unsatisfiable => return Ok(Vec::new()),
        trpq::RepeatClass::Identity => return Ok(vec![Vec::new()]),
        trpq::RepeatClass::Once => return compile_regex_atom(&item.atom, variables),
        trpq::RepeatClass::Range => {}
    }
    match &item.atom {
        // A repeated temporal axis walks through existing states of the same object:
        // one shift with the indicator's bounds.
        RegexAtom::Axis(axis @ (Axis::Next | Axis::Prev)) => {
            Ok(vec![vec![PlanOp::Shift(Shift { forward: *axis == Axis::Next, min, max })]])
        }
        // A repeated structural axis is a transitive closure over the adjacency.
        RegexAtom::Axis(axis @ (Axis::Fwd | Axis::Bwd)) => {
            let hop =
                if *axis == Axis::Fwd { HopDirection::Forward } else { HopDirection::Backward };
            Ok(vec![vec![PlanOp::Micro(MicroOp::Closure(ClosureOp::structural(
                vec![vec![MicroOp::Hop(hop)]],
                min,
                max,
            )))]])
        }
        // A test is idempotent, so test[n,m] is the test itself when at least one
        // repetition is required; with n = 0 the zero-repetition identity absorbs it.
        RegexAtom::Label(_) | RegexAtom::Props(_) => {
            if min == 0 {
                Ok(vec![Vec::new()])
            } else {
                compile_regex_atom(&item.atom, variables)
            }
        }
        RegexAtom::Group(inner) => {
            // A purely temporal group (a single NEXT/PREV, possibly with an existing
            // indicator), e.g. (NEXT)[0,12], composes into one shift when the set of
            // reachable step counts stays contiguous; otherwise it falls through to
            // the general time-aware closure below.
            if let Some(shift) = purely_temporal_group(inner) {
                if shift.is_unsatisfiable() {
                    // The inner expression relates nothing: the repetition is the
                    // identity when zero iterations are allowed and empty otherwise.
                    return Ok(if min == 0 { vec![Vec::new()] } else { Vec::new() });
                }
                if let Some(s) = combine_repetition(shift, (min, max)) {
                    return Ok(vec![vec![PlanOp::Shift(s)]]);
                }
            }
            // The general case: a closure whose alternatives are the compiled union
            // branches of the inner expression (unions must stay inside the fixpoint:
            // the closure of a union is not the union of the closures).  A purely
            // structural body stays a segment micro-op; a body that moves through
            // time — any shift, or a nested time-crossing closure — becomes a
            // time-aware closure link splitting the surrounding segments.
            let inner_alternatives = compile_regex(inner, variables)?;
            if inner_alternatives.is_empty() {
                // Every inner branch was unsatisfiable.
                return Ok(if min == 0 { vec![Vec::new()] } else { Vec::new() });
            }
            let mut alternatives = Vec::with_capacity(inner_alternatives.len());
            for alternative in inner_alternatives {
                let steps = alternative
                    .into_iter()
                    .map(|op| match op {
                        PlanOp::Micro(m) => ClosureStep::Micro(m),
                        PlanOp::Shift(s) => ClosureStep::Shift(s),
                        PlanOp::TimeClosure(c) => ClosureStep::Micro(MicroOp::Closure(c)),
                    })
                    .collect();
                alternatives.push(steps);
            }
            let closure = ClosureOp { alternatives, min, max };
            if closure.is_time_crossing() {
                Ok(vec![vec![PlanOp::TimeClosure(closure)]])
            } else {
                Ok(vec![vec![PlanOp::Micro(MicroOp::Closure(closure))]])
            }
        }
    }
}

/// Compiles a regex atom without a repetition postfix.
fn compile_regex_atom(atom: &RegexAtom, variables: &[String]) -> Result<Vec<Vec<PlanOp>>> {
    match atom {
        RegexAtom::Axis(Axis::Fwd) => {
            Ok(vec![vec![PlanOp::Micro(MicroOp::Hop(HopDirection::Forward))]])
        }
        RegexAtom::Axis(Axis::Bwd) => {
            Ok(vec![vec![PlanOp::Micro(MicroOp::Hop(HopDirection::Backward))]])
        }
        RegexAtom::Axis(axis @ (Axis::Next | Axis::Prev)) => Ok(vec![vec![PlanOp::Shift(Shift {
            forward: *axis == Axis::Next,
            min: 1,
            max: Some(1),
        })]]),
        RegexAtom::Label(label) => {
            let filter = ObjFilter { label: Some(label.clone()), ..Default::default() };
            Ok(vec![vec![PlanOp::Micro(MicroOp::Filter(filter))]])
        }
        RegexAtom::Props(constraints) => {
            let filter = ObjFilter::from_pattern(None, None, constraints);
            Ok(vec![vec![PlanOp::Micro(MicroOp::Filter(filter))]])
        }
        RegexAtom::Group(inner) => compile_regex(inner, variables),
    }
}

/// If the group consists of exactly one alternative with exactly one temporal axis
/// item, returns the corresponding shift.
fn purely_temporal_group(regex: &Regex) -> Option<Shift> {
    if regex.alternatives.len() != 1 || regex.alternatives[0].items.len() != 1 {
        return None;
    }
    let item = &regex.alternatives[0].items[0];
    match (&item.atom, item.repeat) {
        (RegexAtom::Axis(axis @ (Axis::Next | Axis::Prev)), repeat) => {
            let (min, max) = match repeat {
                None => (1, Some(1)),
                Some((n, m)) => (n, m),
            };
            Some(Shift { forward: *axis == Axis::Next, min, max })
        }
        _ => None,
    }
}

/// Composes an inner shift with an outer repetition: `(NEXT[a,b])[n,m]` moves between
/// `a·n` and `b·m` steps, provided the set of reachable step counts — the union of
/// `[a·k, b·k]` over `k ∈ [n, m]` — is a contiguous range (otherwise a single shift
/// cannot represent it and the construct is rejected).  Open-ended bounds stay
/// open-ended.
fn combine_repetition(inner: Shift, (n, m): (u32, Option<u32>)) -> Option<Shift> {
    let a = inner.min as u64;
    let min = a.checked_mul(n as u64)?;
    let b = match inner.max {
        Some(b) => b as u64,
        // An open-ended inner bound makes every count ≥ a·n reachable.  With n = 0 the
        // zero-repetition case adds the count 0, which is only contiguous with the
        // rest when a ≤ 1.
        None => {
            if n == 0 && a > 1 {
                return None;
            }
            return Some(Shift {
                forward: inner.forward,
                min: u32::try_from(min).ok()?,
                max: None,
            });
        }
    };
    // Contiguity: consecutive repetition counts k and k+1 must produce overlapping or
    // adjacent ranges, i.e. a·(k+1) ≤ b·k + 1.  The gap a·(k+1) − b·k is largest at the
    // smallest k, so checking k = n suffices (for m = None the counts are unbounded and
    // the same check applies).
    let upper_k = m.map(|m| m as u64);
    if upper_k != Some(n as u64) {
        let k = n as u64;
        if a.checked_mul(k + 1)? > b.checked_mul(k)?.checked_add(1)? {
            return None;
        }
    }
    let max = match upper_k {
        Some(m) => Some(u32::try_from(b.checked_mul(m)?).ok()?),
        None => None,
    };
    Some(Shift { forward: inner.forward, min: u32::try_from(min).ok()?, max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trpq::parser::parse_match;
    use trpq::queries::QueryId;

    fn compile_text(text: &str) -> PlanSet {
        compile(&parse_match(text).unwrap()).unwrap()
    }

    /// The plan's links, asserted to all be plain shifts.
    fn shifts(plan: &EnginePlan) -> Vec<Shift> {
        plan.links.iter().map(|l| *l.as_shift().expect("link is a plain shift")).collect()
    }

    #[test]
    fn q1_compiles_to_a_single_filter_segment() {
        let plan_set = compile_text("MATCH (x:Person) ON contact_tracing");
        assert_eq!(plan_set.variables, vec!["x".to_string()]);
        assert_eq!(plan_set.plans.len(), 1);
        let plan = &plan_set.plans[0];
        assert!(plan.is_purely_structural());
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].ops.len(), 2); // Filter + Bind
        assert_eq!(plan.segments[0].bound_slots(), vec![0]);
    }

    #[test]
    fn q5_compiles_to_hop_filter_hop() {
        let plan_set = compile_text(
            "MATCH (x:Person {risk = 'low'})-[z:meets]->(y:Person {risk = 'high'}) ON g",
        );
        assert_eq!(plan_set.variables, vec!["x", "z", "y"]);
        let ops = &plan_set.plans[0].segments[0].ops;
        // x filter, bind, hop, edge filter, bind, hop, y filter, bind.
        assert_eq!(ops.len(), 8);
        assert!(matches!(ops[2], MicroOp::Hop(HopDirection::Forward)));
        assert!(matches!(ops[5], MicroOp::Hop(HopDirection::Forward)));
    }

    #[test]
    fn temporal_operators_split_segments() {
        let plan_set =
            compile_text("MATCH (x:Person {test = 'pos'})-/PREV/FWD/:visits/FWD/-(z:Room) ON g");
        let plan = &plan_set.plans[0];
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(shifts(plan), vec![Shift { forward: false, min: 1, max: Some(1) }]);
        // Segment 1 holds the structural part after PREV plus the Room filter/bind.
        assert!(plan.segments[1].ops.len() >= 4);
        assert_eq!(plan.segments[1].bound_slots(), vec![1]);

        let star =
            compile_text("MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON g");
        assert_eq!(shifts(&star.plans[0]), vec![Shift { forward: false, min: 0, max: None }]);

        let bounded = compile_text(
            "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT[0,12]/-({test = 'pos'}) ON g",
        );
        assert_eq!(shifts(&bounded.plans[0]), vec![Shift { forward: true, min: 0, max: Some(12) }]);
    }

    #[test]
    fn only_repetitions_of_a_group_are_fixpoints() {
        for id in QueryId::ALL {
            let plan_set = compile(&id.clause()).unwrap();
            assert!(plan_set.plans.iter().all(|plan| !plan.has_fixpoint()), "{}", id.name());
        }
        // `NEXT*` above is a plain shift; a repeated group is a closure, inside a
        // segment when structural and between two when it crosses time.
        for text in [
            "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g",
            "MATCH (x:Person)-/(FWD/:meets/FWD/NEXT)[0,2]/-(y:Person) ON g",
        ] {
            assert!(compile_text(text).plans[0].has_fixpoint(), "{text}");
        }
    }

    #[test]
    fn unions_expand_into_multiple_plans() {
        let plan_set = compile(&QueryId::Q12.clause()).unwrap();
        assert_eq!(plan_set.plans.len(), 2);
        // Both alternatives end with the same NEXT[0,12] shift and a final filter.
        for plan in &plan_set.plans {
            assert_eq!(plan.segments.len(), 2);
            assert_eq!(shifts(plan), vec![Shift { forward: true, min: 0, max: Some(12) }]);
        }
        // The meets alternative is shorter than the visits alternative.
        let lengths: Vec<usize> = plan_set.plans.iter().map(|p| p.segments[0].ops.len()).collect();
        assert!(lengths[0] != lengths[1]);
    }

    #[test]
    fn all_benchmark_queries_compile() {
        for id in QueryId::ALL {
            let plan_set = compile(&id.clause()).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert!(!plan_set.plans.is_empty());
            let expects_shifts = id.uses_temporal_navigation();
            assert_eq!(!plan_set.is_purely_structural(), expects_shifts, "{}", id.name());
        }
    }

    #[test]
    fn mixed_repetition_compiles_to_a_time_aware_closure() {
        // Repetition of a group mixing structural and temporal navigation used to be
        // rejected with `UnsupportedFragment`; it now compiles to a closure *link*
        // splitting the surrounding segments like a shift does.
        for text in [
            "MATCH (x)-/(FWD/NEXT)[0,3]/-(y) ON g",
            "MATCH (x)-/(FWD/:meets/FWD/PREV)*/-(y) ON g",
            "MATCH (x)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g",
        ] {
            let plan_set = compile(&parse_match(text).unwrap()).unwrap();
            assert_eq!(plan_set.plans.len(), 1, "{text}");
            let plan = &plan_set.plans[0];
            assert_eq!(plan.segments.len(), 2, "{text}");
            assert!(!plan.is_purely_structural(), "{text}");
            match &plan.links[0] {
                TemporalLink::Closure(closure) => {
                    assert!(closure.is_time_crossing(), "{text}");
                    assert!(closure
                        .alternatives
                        .iter()
                        .flatten()
                        .any(|s| matches!(s, ClosureStep::Shift(_))));
                }
                other => panic!("{text}: expected a closure link, got {other:?}"),
            }
        }

        // A nested time-crossing closure rides inside the outer closure's steps.
        let nested = compile_text("MATCH (x)-/((FWD/NEXT)[1,2]/BWD)*/-(y) ON g");
        match &nested.plans[0].links[0] {
            TemporalLink::Closure(outer) => {
                assert!(outer.alternatives[0].iter().any(|s| matches!(
                    s,
                    ClosureStep::Micro(MicroOp::Closure(inner)) if inner.is_time_crossing()
                )));
            }
            other => panic!("expected a closure link, got {other:?}"),
        }

        // Non-contiguous nested temporal repetitions, previously rejected, now run as
        // a time-aware closure as well: (NEXT[2,3])[0,2] reaches {0, 2..6} steps.
        let gappy = compile_text("MATCH (x)-/(NEXT[2,3])[0,2]/-(y) ON g");
        assert!(matches!(gappy.plans[0].links[0], TemporalLink::Closure(_)));
    }

    /// The closure op of the first segment of the first plan.
    fn find_closure(plan_set: &PlanSet) -> &ClosureOp {
        plan_set.plans[0].segments[0]
            .ops
            .iter()
            .find_map(|op| match op {
                MicroOp::Closure(c) => Some(c),
                _ => None,
            })
            .expect("the plan contains a closure")
    }

    #[test]
    fn structural_repetition_compiles_to_a_closure() {
        // A repeated structural axis.
        let plan_set = compile_text("MATCH (x)-/FWD*/-(y) ON g");
        let closure = find_closure(&plan_set);
        assert_eq!(closure.min, 0);
        assert_eq!(closure.max, None);
        assert!(!closure.is_time_crossing());
        assert_eq!(
            closure.alternatives,
            vec![vec![ClosureStep::Micro(MicroOp::Hop(HopDirection::Forward))]]
        );

        // The iconic contact-chain query: a repeated structural group.
        let plan_set = compile_text("MATCH (x)-/(FWD/:meets/FWD)*/-(y) ON g");
        let closure = find_closure(&plan_set);
        assert_eq!(closure.alternatives.len(), 1);
        assert_eq!(closure.alternatives[0].len(), 3);
        assert!(plan_set.plans[0].is_purely_structural());

        // Unions stay inside the fixpoint as closure alternatives.
        let plan_set = compile_text("MATCH (x)-/(FWD/:meets/FWD + BWD/:meets/BWD)[1,4]/-(y) ON g");
        assert_eq!(plan_set.plans.len(), 1, "the union must not be distributed");
        let closure = find_closure(&plan_set);
        assert_eq!(closure.alternatives.len(), 2);
        assert_eq!((closure.min, closure.max), (1, Some(4)));

        // Nested repetition of structural groups also stays in the fragment.
        let nested = compile_text("MATCH (x)-/((FWD/:meets/FWD)[1,2])*/-(y) ON g");
        let outer = find_closure(&nested);
        assert!(matches!(outer.alternatives[0][0], ClosureStep::Micro(MicroOp::Closure(_))));
    }

    #[test]
    fn degenerate_repetitions_are_normalised() {
        // p[1,1] is p itself: same plan as the unrepeated atom.
        let repeated = compile_text("MATCH (x)-/:meets[1,1]/-(y) ON g");
        let plain = compile_text("MATCH (x)-/:meets/-(y) ON g");
        assert_eq!(repeated.plans, plain.plans);
        let hop = compile_text("MATCH (x)-/FWD[1,1]/-(y) ON g");
        let plain_hop = compile_text("MATCH (x)-/FWD/-(y) ON g");
        assert_eq!(hop.plans, plain_hop.plans);
        let group = compile_text("MATCH (x)-/(FWD/:meets/FWD)[1,1]/-(y) ON g");
        let plain_group = compile_text("MATCH (x)-/FWD/:meets/FWD/-(y) ON g");
        assert_eq!(group.plans, plain_group.plans);

        // p[0,0] is the empty path: the item vanishes from the pipeline, leaving only
        // the two node patterns (filter + bind each).
        let zero = compile_text("MATCH (x)-/:Room[0,0]/-(y) ON g");
        assert_eq!(zero.plans[0].segments[0].ops.len(), 4);
        let zero_group = compile_text("MATCH (x)-/(FWD/:meets/FWD)[0,0]/-(y) ON g");
        assert_eq!(zero_group.plans, zero.plans);

        // Repeated tests are idempotent.
        let test_rep = compile_text("MATCH (x)-/:Room[2,5]/-(y) ON g");
        let test_plain = compile_text("MATCH (x)-/:Room/-(y) ON g");
        assert_eq!(test_rep.plans, test_plain.plans);
        let test_opt = compile_text("MATCH (x)-/:Room[0,2]/-(y) ON g");
        assert_eq!(test_opt.plans, zero.plans);
    }

    #[test]
    fn unsatisfiable_indicators_drop_the_alternative() {
        // n > m relates nothing: the plan set is empty and execution returns no rows.
        for text in [
            "MATCH (x)-/NEXT[3,1]/-(y) ON g",
            "MATCH (x)-/FWD[3,1]/-(y) ON g",
            "MATCH (x)-/:Room[3,1]/-(y) ON g",
            "MATCH (x)-/(FWD/:meets/FWD)[3,1]/-(y) ON g",
            "MATCH (x)-/(NEXT[2,1])[1,3]/-(y) ON g",
        ] {
            let plan_set = compile(&parse_match(text).unwrap()).unwrap();
            assert!(plan_set.plans.is_empty(), "{text} should compile to no plans");
        }
        // A satisfiable union branch survives next to an unsatisfiable one.
        let plan_set = compile_text("MATCH (x)-/(NEXT[3,1] + FWD)/-(y) ON g");
        assert_eq!(plan_set.plans.len(), 1);
        // Zero repetitions of an unsatisfiable expression is still the identity.
        let zero_of_unsat = compile_text("MATCH (x)-/(NEXT[3,1])[0,5]/-(y) ON g");
        let zero = compile_text("MATCH (x)-/:Room[0,0]/-(y) ON g");
        assert_eq!(zero_of_unsat.plans, zero.plans);
    }

    #[test]
    fn repeated_purely_temporal_groups_compose() {
        let plan_set = compile_text("MATCH (x)-/(NEXT)[0,12]/-(y) ON g");
        assert_eq!(
            shifts(&plan_set.plans[0]),
            vec![Shift { forward: true, min: 0, max: Some(12) }]
        );
        let plan_set = compile_text("MATCH (x)-/(PREV[2,3])[2,2]/-(y) ON g");
        assert_eq!(
            shifts(&plan_set.plans[0]),
            vec![Shift { forward: false, min: 4, max: Some(6) }]
        );
    }

    #[test]
    fn duplicate_variables_are_rejected() {
        let err = compile(&parse_match("MATCH (x)-[x:meets]->(y) ON g").unwrap()).unwrap_err();
        assert!(matches!(err, QueryError::InvalidVariable(_)));
    }
}
