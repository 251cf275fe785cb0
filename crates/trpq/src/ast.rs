//! Abstract syntax of `NavL[PC,NOI]`, the formal temporal regular path query language
//! of Section V.A.
//!
//! The grammar (2)–(4) of the paper is:
//!
//! ```text
//! path ::= test | axis | (path/path) | (path + path) | path[n, m] | path[n, _]
//! test ::= Node | Edge | ℓ | p ↦ v | < k | ∃ | (?path) | (test ∨ test) | (test ∧ test) | (¬test)
//! axis ::= F | B | N | P
//! ```
//!
//! [`Path`] and [`TestExpr`] mirror this grammar one-to-one.  Constructors and
//! combinator methods are provided so that queries can be written fluently in Rust;
//! [`std::fmt::Display`] renders expressions back in the paper's notation.

use std::fmt;

use tgraph::{Time, Value};

/// A navigation axis: single-step structural or temporal movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `F` / `FWD`: move forward along an edge (node → edge → target node), staying at
    /// the same time point.
    Fwd,
    /// `B` / `BWD`: move backward against an edge (node → edge → source node), staying
    /// at the same time point.
    Bwd,
    /// `N` / `NEXT`: move one unit of time into the future on the same object.
    Next,
    /// `P` / `PREV`: move one unit of time into the past on the same object.
    Prev,
}

impl Axis {
    /// True for the structural axes `F` and `B`.
    pub fn is_structural(self) -> bool {
        matches!(self, Axis::Fwd | Axis::Bwd)
    }

    /// True for the temporal axes `N` and `P`.
    pub fn is_temporal(self) -> bool {
        !self.is_structural()
    }

    /// The axis navigating in the opposite direction.
    pub fn inverse(self) -> Axis {
        match self {
            Axis::Fwd => Axis::Bwd,
            Axis::Bwd => Axis::Fwd,
            Axis::Next => Axis::Prev,
            Axis::Prev => Axis::Next,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Axis::Fwd => "F",
            Axis::Bwd => "B",
            Axis::Next => "N",
            Axis::Prev => "P",
        };
        f.write_str(s)
    }
}

/// A condition on a temporal object `(o, t)` (grammar (3) of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum TestExpr {
    /// `Node`: the object is a node.
    Node,
    /// `Edge`: the object is an edge.
    Edge,
    /// `ℓ`: the label of the object is `ℓ`.
    Label(String),
    /// `p ↦ v`: property `p` of the object has value `v` at the current time point.
    Prop(String, Value),
    /// `∃`: the object exists at the current time point (`ξ(o, t) = true`).
    Exists,
    /// `< k`: the current time point is strictly less than `k`.
    TimeLt(Time),
    /// `(?path)`: a path conforming to `path` starts at the current temporal object.
    PathTest(Box<Path>),
    /// Conjunction of two tests.
    And(Box<TestExpr>, Box<TestExpr>),
    /// Disjunction of two tests.
    Or(Box<TestExpr>, Box<TestExpr>),
    /// Negation of a test.
    Not(Box<TestExpr>),
}

impl TestExpr {
    /// The label test `ℓ`.
    pub fn label(l: impl Into<String>) -> Self {
        TestExpr::Label(l.into())
    }

    /// The property test `p ↦ v`.
    pub fn prop(p: impl Into<String>, v: impl Into<Value>) -> Self {
        TestExpr::Prop(p.into(), v.into())
    }

    /// The derived equality test `= k`, expressed as `(< k+1 ∧ ¬(< k))` exactly as
    /// suggested in Section V.A.
    pub fn time_eq(k: Time) -> Self {
        TestExpr::TimeLt(k + 1).and(TestExpr::TimeLt(k).not())
    }

    /// The derived test `≤ k`, i.e. `< k+1`.
    pub fn time_le(k: Time) -> Self {
        TestExpr::TimeLt(k + 1)
    }

    /// The derived test `> k`, i.e. `¬(< k+1)`.
    pub fn time_gt(k: Time) -> Self {
        TestExpr::TimeLt(k + 1).not()
    }

    /// The derived test `≥ k`, i.e. `¬(< k)`.
    pub fn time_ge(k: Time) -> Self {
        TestExpr::TimeLt(k).not()
    }

    /// A path condition `(?path)`.
    pub fn path_test(path: Path) -> Self {
        TestExpr::PathTest(Box::new(path))
    }

    /// Conjunction combinator.
    pub fn and(self, other: TestExpr) -> Self {
        TestExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction combinator.
    pub fn or(self, other: TestExpr) -> Self {
        TestExpr::Or(Box::new(self), Box::new(other))
    }

    /// Negation combinator.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        TestExpr::Not(Box::new(self))
    }

    /// Conjunction of an iterator of tests; `∃ ∨ ¬∃` (a tautology) for an empty input.
    pub fn all<I: IntoIterator<Item = TestExpr>>(tests: I) -> Self {
        let mut iter = tests.into_iter();
        match iter.next() {
            None => TestExpr::Exists.or(TestExpr::Exists.not()),
            Some(first) => iter.fold(first, TestExpr::and),
        }
    }

    /// True if the test contains a path condition `(?path)` anywhere.
    pub fn has_path_condition(&self) -> bool {
        match self {
            TestExpr::PathTest(_) => true,
            TestExpr::And(a, b) | TestExpr::Or(a, b) => {
                a.has_path_condition() || b.has_path_condition()
            }
            TestExpr::Not(a) => a.has_path_condition(),
            _ => false,
        }
    }

    /// True if the test contains a numerical occurrence indicator inside a path
    /// condition.
    pub fn has_occurrence_indicator(&self) -> bool {
        match self {
            TestExpr::PathTest(p) => p.has_occurrence_indicator(),
            TestExpr::And(a, b) | TestExpr::Or(a, b) => {
                a.has_occurrence_indicator() || b.has_occurrence_indicator()
            }
            TestExpr::Not(a) => a.has_occurrence_indicator(),
            _ => false,
        }
    }

    /// Wraps the test into a path expression.
    pub fn into_path(self) -> Path {
        Path::Test(self)
    }
}

impl fmt::Display for TestExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestExpr::Node => f.write_str("Node"),
            TestExpr::Edge => f.write_str("Edge"),
            TestExpr::Label(l) => write!(f, "{l}"),
            TestExpr::Prop(p, v) => write!(f, "{p} -> {v}"),
            TestExpr::Exists => f.write_str("exists"),
            TestExpr::TimeLt(k) => write!(f, "< {k}"),
            TestExpr::PathTest(p) => write!(f, "(? {p})"),
            TestExpr::And(a, b) => write!(f, "({a} and {b})"),
            TestExpr::Or(a, b) => write!(f, "({a} or {b})"),
            TestExpr::Not(a) => write!(f, "(not {a})"),
        }
    }
}

/// A temporal regular path query (grammar (2) of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Path {
    /// A test: stays on the current temporal object if the test is satisfied.
    Test(TestExpr),
    /// A single navigation step.
    Axis(Axis),
    /// Concatenation `path1 / path2`.
    Seq(Box<Path>, Box<Path>),
    /// Union `path1 + path2`.
    Alt(Box<Path>, Box<Path>),
    /// Bounded or unbounded repetition: `path[n, m]` when the upper bound is `Some(m)`
    /// and `path[n, _]` when it is `None`.  The Kleene star is `path[0, _]`.
    Repeat(Box<Path>, u32, Option<u32>),
}

impl Path {
    /// A test path.
    pub fn test(test: TestExpr) -> Self {
        Path::Test(test)
    }

    /// A single-axis path.
    pub fn axis(axis: Axis) -> Self {
        Path::Axis(axis)
    }

    /// Concatenation combinator: `self / other`.
    pub fn then(self, other: Path) -> Self {
        Path::Seq(Box::new(self), Box::new(other))
    }

    /// Union combinator: `self + other`.
    pub fn or(self, other: Path) -> Self {
        Path::Alt(Box::new(self), Box::new(other))
    }

    /// Bounded repetition `self[n, m]`.
    pub fn repeat(self, n: u32, m: u32) -> Self {
        Path::Repeat(Box::new(self), n, Some(m))
    }

    /// Lower-bounded repetition `self[n, _]`.
    pub fn repeat_at_least(self, n: u32) -> Self {
        Path::Repeat(Box::new(self), n, None)
    }

    /// Kleene star: `self[0, _]`.
    pub fn star(self) -> Self {
        self.repeat_at_least(0)
    }

    /// One-or-more: `self[1, _]`.
    pub fn plus(self) -> Self {
        self.repeat_at_least(1)
    }

    /// Zero-or-one: `self[0, 1]`.
    pub fn optional(self) -> Self {
        self.repeat(0, 1)
    }

    /// Concatenation of an iterator of paths; the empty concatenation is the identity
    /// (a tautological test).
    pub fn seq_all<I: IntoIterator<Item = Path>>(paths: I) -> Self {
        let mut iter = paths.into_iter();
        match iter.next() {
            None => Path::Test(TestExpr::all([])),
            Some(first) => iter.fold(first, Path::then),
        }
    }

    /// Union of an iterator of paths.  Panics on an empty iterator because the empty
    /// union (the always-empty relation) is not expressible in the grammar.
    pub fn alt_all<I: IntoIterator<Item = Path>>(paths: I) -> Self {
        let mut iter = paths.into_iter();
        let first = iter.next().expect("alt_all requires at least one alternative");
        iter.fold(first, Path::or)
    }

    /// True if the expression contains a path condition `(?path)` anywhere.
    pub fn has_path_condition(&self) -> bool {
        match self {
            Path::Test(t) => t.has_path_condition(),
            Path::Axis(_) => false,
            Path::Seq(a, b) | Path::Alt(a, b) => a.has_path_condition() || b.has_path_condition(),
            Path::Repeat(p, _, _) => p.has_path_condition(),
        }
    }

    /// True if the expression contains a numerical occurrence indicator anywhere.
    pub fn has_occurrence_indicator(&self) -> bool {
        match self {
            Path::Test(t) => t.has_occurrence_indicator(),
            Path::Axis(_) => false,
            Path::Seq(a, b) | Path::Alt(a, b) => {
                a.has_occurrence_indicator() || b.has_occurrence_indicator()
            }
            Path::Repeat(_, _, _) => true,
        }
    }

    /// True if every numerical occurrence indicator is applied directly to an axis
    /// (the `ANOI` restriction of Appendix B/D).
    pub fn occurrence_indicators_only_on_axes(&self) -> bool {
        fn test_ok(t: &TestExpr) -> bool {
            match t {
                TestExpr::PathTest(p) => p.occurrence_indicators_only_on_axes(),
                TestExpr::And(a, b) | TestExpr::Or(a, b) => test_ok(a) && test_ok(b),
                TestExpr::Not(a) => test_ok(a),
                _ => true,
            }
        }
        match self {
            Path::Test(t) => test_ok(t),
            Path::Axis(_) => true,
            Path::Seq(a, b) | Path::Alt(a, b) => {
                a.occurrence_indicators_only_on_axes() && b.occurrence_indicators_only_on_axes()
            }
            Path::Repeat(p, _, _) => matches!(**p, Path::Axis(_)),
        }
    }

    /// The number of AST nodes of the expression (its size `‖path‖` up to a constant
    /// factor), used by complexity-related bounds and tests.
    pub fn size(&self) -> usize {
        match self {
            Path::Test(t) => test_size(t),
            Path::Axis(_) => 1,
            Path::Seq(a, b) | Path::Alt(a, b) => 1 + a.size() + b.size(),
            Path::Repeat(p, _, _) => 1 + p.size(),
        }
    }

    /// An upper bound on the net temporal displacement a single traversal of this
    /// expression can produce, i.e. the number of `N`/`P` axes it can take (treating
    /// unbounded repetition as unbounded).  Used by the memoized `NavL[PC]` evaluator
    /// to bound the intermediate time points of a concatenation (Algorithm 3).
    pub fn max_temporal_steps(&self) -> Option<u64> {
        match self {
            Path::Test(_) => Some(0),
            Path::Axis(a) => Some(if a.is_temporal() { 1 } else { 0 }),
            Path::Seq(a, b) => {
                Some(a.max_temporal_steps()?.saturating_add(b.max_temporal_steps()?))
            }
            Path::Alt(a, b) => Some(a.max_temporal_steps()?.max(b.max_temporal_steps()?)),
            Path::Repeat(p, _, Some(m)) => Some(p.max_temporal_steps()?.saturating_mul(*m as u64)),
            Path::Repeat(p, _, None) => {
                if p.max_temporal_steps()? == 0 {
                    Some(0)
                } else {
                    None
                }
            }
        }
    }
}

fn test_size(test: &TestExpr) -> usize {
    match test {
        TestExpr::PathTest(p) => 1 + p.size(),
        TestExpr::And(a, b) | TestExpr::Or(a, b) => 1 + test_size(a) + test_size(b),
        TestExpr::Not(a) => 1 + test_size(a),
        _ => 1,
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Test(t) => write!(f, "{t}"),
            Path::Axis(a) => write!(f, "{a}"),
            Path::Seq(a, b) => write!(f, "({a} / {b})"),
            Path::Alt(a, b) => write!(f, "({a} + {b})"),
            Path::Repeat(p, n, Some(m)) => write!(f, "{p}[{n}, {m}]"),
            Path::Repeat(p, n, None) => write!(f, "{p}[{n}, _]"),
        }
    }
}

impl From<TestExpr> for Path {
    fn from(test: TestExpr) -> Self {
        Path::Test(test)
    }
}

impl From<Axis> for Path {
    fn from(axis: Axis) -> Self {
        Path::Axis(axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_properties() {
        assert!(Axis::Fwd.is_structural() && Axis::Bwd.is_structural());
        assert!(Axis::Next.is_temporal() && Axis::Prev.is_temporal());
        assert_eq!(Axis::Fwd.inverse(), Axis::Bwd);
        assert_eq!(Axis::Next.inverse(), Axis::Prev);
    }

    #[test]
    fn q8_expression_builds_and_prints() {
        // (Node ∧ Person ∧ test ↦ pos)/(P/∃)[0,_]/F/(visits ∧ ∃)/F/(Node ∧ Room)
        let q8 = Path::test(
            TestExpr::Node.and(TestExpr::label("Person")).and(TestExpr::prop("test", "pos")),
        )
        .then(Path::axis(Axis::Prev).then(TestExpr::Exists.into_path()).star())
        .then(Path::axis(Axis::Fwd))
        .then(TestExpr::label("visits").and(TestExpr::Exists).into_path())
        .then(Path::axis(Axis::Fwd))
        .then(TestExpr::Node.and(TestExpr::label("Room")).into_path());
        assert!(q8.has_occurrence_indicator());
        assert!(!q8.has_path_condition());
        assert!(q8.size() > 10);
        let shown = q8.to_string();
        assert!(shown.contains("[0, _]"));
        assert!(shown.contains("Person"));
    }

    #[test]
    fn fragment_predicates() {
        let pc = Path::test(TestExpr::path_test(Path::axis(Axis::Next)));
        assert!(pc.has_path_condition());
        assert!(!pc.has_occurrence_indicator());

        let noi = Path::axis(Axis::Next).repeat(0, 5);
        assert!(noi.has_occurrence_indicator());
        assert!(!noi.has_path_condition());
        assert!(noi.occurrence_indicators_only_on_axes());

        let not_anoi = Path::axis(Axis::Next).then(Path::axis(Axis::Fwd)).repeat(1, 2);
        assert!(!not_anoi.occurrence_indicators_only_on_axes());

        let nested = Path::test(TestExpr::path_test(Path::axis(Axis::Next).repeat(2, 3)));
        assert!(nested.has_occurrence_indicator());
    }

    #[test]
    fn derived_time_tests() {
        // = k is (< k+1 ∧ ¬< k).
        match TestExpr::time_eq(10) {
            TestExpr::And(a, b) => {
                assert_eq!(*a, TestExpr::TimeLt(11));
                assert_eq!(*b, TestExpr::TimeLt(10).not());
            }
            other => panic!("unexpected shape {other:?}"),
        }
        assert_eq!(TestExpr::time_le(4), TestExpr::TimeLt(5));
    }

    #[test]
    fn max_temporal_steps_bounds() {
        assert_eq!(Path::axis(Axis::Fwd).max_temporal_steps(), Some(0));
        assert_eq!(Path::axis(Axis::Next).max_temporal_steps(), Some(1));
        let q = Path::axis(Axis::Next).then(Path::axis(Axis::Prev)).repeat(0, 12);
        assert_eq!(q.max_temporal_steps(), Some(24));
        assert_eq!(Path::axis(Axis::Next).star().max_temporal_steps(), None);
        assert_eq!(Path::test(TestExpr::Exists).star().max_temporal_steps(), Some(0));
    }

    #[test]
    fn combinators_shape() {
        let p =
            Path::seq_all([Path::axis(Axis::Fwd), Path::axis(Axis::Fwd), Path::axis(Axis::Next)]);
        assert_eq!(p.size(), 5);
        let a = Path::alt_all([Path::axis(Axis::Fwd), Path::axis(Axis::Bwd)]);
        assert!(matches!(a, Path::Alt(_, _)));
        assert!(matches!(Path::axis(Axis::Next).optional(), Path::Repeat(_, 0, Some(1))));
        assert!(matches!(Path::axis(Axis::Next).plus(), Path::Repeat(_, 1, None)));
    }
}
