//! Rewriting of the practical query language into the formal language `NavL[PC,NOI]`,
//! following Section V.A of the paper.
//!
//! The translation rules are:
//!
//! * a node pattern `(x:Person {risk = 'high'})` becomes the test
//!   `Node ∧ ∃ ∧ Person ∧ risk ↦ high` (the practical language binds variables only to
//!   *existing* temporal objects, so `∃` is always added);
//! * an edge pattern `-[z:meets]->` becomes `F / (Edge ∧ ∃ ∧ meets) / F`, and its
//!   reversed form `<-[…]-` uses `B` instead of `F`;
//! * inside `-/…/-`, `FWD`/`BWD`/`NEXT`/`PREV` become the axes `F`/`B`/`N`/`P`; a label
//!   atom `:visits` becomes `(visits ∧ ∃)`; a property atom `{p = 'v'}` becomes
//!   `(p ↦ v ∧ ∃)`; an axis with a repetition, e.g. `NEXT[0,12]` or `PREV*`, becomes
//!   `(N/∃)[0,12]` or `(P/∃)[0,_]` — repetition in the practical language walks only
//!   through existing temporal objects, exactly as in the translation of Q8 and Q12
//!   given in the paper.  The same convention applies *inside a repeated group*:
//!   every axis within, e.g., `(FWD/:meets/FWD/NEXT)*` is followed by `∃`, because a
//!   repetition traverses unboundedly many intermediate temporal objects and the
//!   practical language requires all of them to exist (this is also what makes mixed
//!   structural/temporal repetition executable by the interval engine's time-aware
//!   closure);
//! * the reserved word `time` becomes the `< k` test and its Boolean combinations.

use crate::ast::{Axis, Path, TestExpr};
use crate::error::{QueryError, Result};
use crate::parser::{
    CmpOp, Constraint, Direction, EdgePattern, MatchClause, NodePattern, PatternPart, Regex,
    RegexAtom, RegexItem,
};

/// Where a bound variable sits in the pattern, used by engines to build binding
/// tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// The variable name.
    pub name: String,
    /// Index of the pattern part (node or edge pattern) that binds the variable.
    pub part_index: usize,
}

/// The result of rewriting a practical `MATCH` clause into the formal language.
#[derive(Debug, Clone, PartialEq)]
pub struct RewrittenQuery {
    /// The `NavL[PC,NOI]` expression equivalent to the pattern: its evaluation
    /// `⟦path⟧_G` relates the temporal objects bound to the first and last node
    /// patterns.
    pub path: Path,
    /// The variables bound by the pattern, in pattern order.
    pub variables: Vec<Variable>,
    /// The name of the graph the query runs on.
    pub graph: String,
}

/// Rewrites a parsed `MATCH` clause into the formal language.
pub fn rewrite_match(clause: &MatchClause) -> Result<RewrittenQuery> {
    let mut variables = Vec::new();
    let mut pieces = Vec::with_capacity(clause.parts.len());
    for (index, part) in clause.parts.iter().enumerate() {
        match part {
            PatternPart::Node(node) => {
                if let Some(var) = &node.var {
                    if variables.iter().any(|v: &Variable| v.name == *var) {
                        return Err(QueryError::InvalidVariable(var.clone()));
                    }
                    variables.push(Variable { name: var.clone(), part_index: index });
                }
                pieces.push(rewrite_node_pattern(node));
            }
            PatternPart::Edge(edge) => {
                if let Some(var) = &edge.var {
                    if variables.iter().any(|v: &Variable| v.name == *var) {
                        return Err(QueryError::InvalidVariable(var.clone()));
                    }
                    variables.push(Variable { name: var.clone(), part_index: index });
                }
                pieces.push(rewrite_edge_pattern(edge));
            }
            PatternPart::Regex(regex) => pieces.push(rewrite_regex(regex)),
        }
    }
    Ok(RewrittenQuery { path: Path::seq_all(pieces), variables, graph: clause.graph.clone() })
}

/// Rewrites a node pattern into its test expression.
pub fn rewrite_node_pattern(node: &NodePattern) -> Path {
    let mut tests = vec![TestExpr::Node, TestExpr::Exists];
    if let Some(label) = &node.label {
        tests.push(TestExpr::label(label.clone()));
    }
    tests.extend(node.constraints.iter().map(rewrite_constraint));
    Path::Test(TestExpr::all(tests))
}

/// Rewrites a conventional edge pattern into `F / (Edge ∧ ∃ ∧ …) / F` (or `B … B` for
/// the reversed direction).
pub fn rewrite_edge_pattern(edge: &EdgePattern) -> Path {
    let axis = match edge.direction {
        Direction::Out => Axis::Fwd,
        Direction::In => Axis::Bwd,
    };
    let mut tests = vec![TestExpr::Edge, TestExpr::Exists];
    if let Some(label) = &edge.label {
        tests.push(TestExpr::label(label.clone()));
    }
    tests.extend(edge.constraints.iter().map(rewrite_constraint));
    Path::axis(axis).then(Path::Test(TestExpr::all(tests))).then(Path::axis(axis))
}

/// Rewrites a temporal regular expression from the `-/…/-` surface syntax.
pub fn rewrite_regex(regex: &Regex) -> Path {
    rewrite_regex_mode(regex, false)
}

/// Rewrites a regex; with `repeated` set, the expression sits (syntactically) under a
/// repetition, so every axis walks only through existing temporal objects.
fn rewrite_regex_mode(regex: &Regex, repeated: bool) -> Path {
    Path::alt_all(
        regex
            .alternatives
            .iter()
            .map(|seq| Path::seq_all(seq.items.iter().map(|i| rewrite_regex_item(i, repeated)))),
    )
}

fn rewrite_regex_item(item: &RegexItem, repeated: bool) -> Path {
    let base = match &item.atom {
        RegexAtom::Axis(axis) => {
            // A repeated axis — or any axis inside a repeated group — walks only
            // through existing temporal objects: NEXT[n,m] ⇒ (N/∃)[n,m] and
            // (FWD/NEXT)* ⇒ ((F/∃)/(N/∃))[0,_].
            if repeated || item.repeat.is_some() {
                Path::axis(*axis).then(Path::Test(TestExpr::Exists))
            } else {
                Path::axis(*axis)
            }
        }
        RegexAtom::Label(label) => Path::Test(TestExpr::label(label.clone()).and(TestExpr::Exists)),
        RegexAtom::Props(constraints) => {
            let mut tests = vec![TestExpr::Exists];
            tests.extend(constraints.iter().map(rewrite_constraint));
            Path::Test(TestExpr::all(tests))
        }
        RegexAtom::Group(inner) => rewrite_regex_mode(inner, repeated || item.repeat.is_some()),
    };
    match item.repeat {
        None => base,
        Some((n, Some(m))) => base.repeat(n, m),
        Some((n, None)) => base.repeat_at_least(n),
    }
}

/// Rewrites a single property or time constraint into a test.
pub fn rewrite_constraint(constraint: &Constraint) -> TestExpr {
    match constraint {
        Constraint::Prop(p, v) => TestExpr::prop(p.clone(), v.clone()),
        Constraint::Time(op, k) => match op {
            CmpOp::Eq => TestExpr::time_eq(*k),
            CmpOp::Lt => TestExpr::TimeLt(*k),
            CmpOp::Le => TestExpr::time_le(*k),
            CmpOp::Gt => TestExpr::time_gt(*k),
            CmpOp::Ge => TestExpr::time_ge(*k),
        },
    }
}

/// Parses and rewrites a practical query in one step.
pub fn compile(query_text: &str) -> Result<RewrittenQuery> {
    let clause = crate::parser::parse_match(query_text)?;
    rewrite_match(&clause)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{classify, Fragment};
    use crate::parser::parse_match;

    fn rewrite(text: &str) -> RewrittenQuery {
        rewrite_match(&parse_match(text).unwrap()).unwrap()
    }

    #[test]
    fn node_patterns_add_node_and_existence_tests() {
        let q = rewrite("MATCH (x:Person {risk = 'low'}) ON g");
        assert_eq!(q.graph, "g");
        assert_eq!(q.variables, vec![Variable { name: "x".into(), part_index: 0 }]);
        match &q.path {
            Path::Test(t) => {
                let shown = t.to_string();
                assert!(shown.contains("Node"));
                assert!(shown.contains("exists"));
                assert!(shown.contains("Person"));
                assert!(shown.contains("risk -> 'low'"));
            }
            other => panic!("unexpected path {other:?}"),
        }
    }

    #[test]
    fn edge_patterns_become_fwd_test_fwd() {
        let q = rewrite("MATCH (x)-[z:meets]->(y) ON g");
        let shown = q.path.to_string();
        assert!(shown.contains("F"));
        assert!(shown.contains("meets"));
        assert_eq!(q.variables.len(), 3);
        assert_eq!(q.variables[1], Variable { name: "z".into(), part_index: 1 });
        // Reversed edges use the backward axis.
        let q = rewrite("MATCH (x)<-[:meets]-(y) ON g");
        assert!(q.path.to_string().contains("B"));
    }

    #[test]
    fn repeated_axes_require_existence_of_intermediate_objects() {
        // Q8: PREV*/FWD/:visits/FWD must become (P/∃)[0,_]/F/(visits ∧ ∃)/F.
        let q = rewrite(
            "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON contact_tracing",
        );
        let shown = q.path.to_string();
        assert!(shown.contains("(P / exists)[0, _]"), "got {shown}");
        assert!(shown.contains("(visits and exists)"), "got {shown}");
        // Plain (unrepeated) axes are left bare, as in the paper's translation of Q6.
        let q6 = rewrite("MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person) ON g");
        let shown6 = q6.path.to_string();
        assert!(shown6.contains(" / P)"), "got {shown6}");
        assert!(!shown6.contains("(P / exists)"), "got {shown6}");
    }

    #[test]
    fn axes_inside_repeated_groups_require_existence() {
        // The repetition convention reaches inside repeated groups: every axis of a
        // repeated body walks only through existing temporal objects.
        let q = rewrite("MATCH (x:Person)-/(FWD/:meets/FWD/NEXT)*/-(y:Person) ON g");
        let shown = q.path.to_string();
        assert!(shown.contains("(F / exists)"), "got {shown}");
        assert!(shown.contains("(N / exists)"), "got {shown}");
        // Also through nested (unrepeated) groups under a repetition.
        let nested = rewrite("MATCH (x)-/((FWD/NEXT)/BWD)[1,3]/-(y) ON g");
        let shown = nested.path.to_string();
        assert!(shown.contains("(B / exists)"), "got {shown}");
        assert!(!shown.contains("/ B)[") || shown.contains("(B / exists)"), "got {shown}");
        // Outside any repetition, group axes stay bare (the `exists` below comes from
        // the node patterns, not the axes).
        let plain = rewrite("MATCH (x)-/(FWD/NEXT)/-(y) ON g");
        let shown = plain.path.to_string();
        assert!(shown.contains("(F / N)"), "got {shown}");
        assert!(!shown.contains("(F / exists)"), "got {shown}");
    }

    #[test]
    fn numerical_indicators_and_unions_are_preserved() {
        let q = rewrite(
            "MATCH (x:Person {risk = 'high'})-\
             /(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]/-\
             ({test = 'pos'}) ON g",
        );
        let shown = q.path.to_string();
        assert!(shown.contains("(N / exists)[0, 12]"), "got {shown}");
        assert!(shown.contains(" + "), "got {shown}");
        assert!(q.path.has_occurrence_indicator());
        assert!(!q.path.has_path_condition());
        // No variable other than x is bound.
        assert_eq!(q.variables.len(), 1);
    }

    #[test]
    fn time_constraints_use_the_lt_test() {
        let q = rewrite("MATCH (x:Person {risk = 'low' AND time < '10'}) ON g");
        assert!(q.path.to_string().contains("< 10"));
        let q3 = rewrite("MATCH (x:Person {risk = 'low' AND time = '1'}) ON g");
        let shown = q3.path.to_string();
        // time = 1 expands to (< 2 ∧ ¬ < 1).
        assert!(shown.contains("< 2"), "got {shown}");
        assert!(shown.contains("(not < 1)"), "got {shown}");
    }

    #[test]
    fn rewritten_queries_stay_in_tractable_fragments() {
        // None of the paper's example queries uses path conditions, so all rewrites
        // land in NavL[NOI] or below — evaluable in PTIME over TPGs.
        for text in [
            "MATCH (x:Person) ON g",
            "MATCH (x:Person {risk = 'low'})-[z:meets]->(y:Person {risk = 'high'}) ON g",
            "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON g",
            "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g",
        ] {
            let q = rewrite(text);
            let fragment = classify(&q.path);
            assert!(fragment.is_sub_fragment_of(Fragment::Noi), "{text} classified as {fragment}");
        }
    }

    #[test]
    fn duplicate_variables_are_rejected() {
        let err =
            rewrite_match(&parse_match("MATCH (x)-[x:meets]->(y) ON g").unwrap()).unwrap_err();
        assert!(matches!(err, QueryError::InvalidVariable(_)));
    }

    #[test]
    fn compile_is_parse_plus_rewrite() {
        let q = compile("MATCH (x:Person) ON contact_tracing").unwrap();
        assert_eq!(q.graph, "contact_tracing");
        assert!(compile("MATCH (x:Person ON g").is_err());
    }
}
