//! Membership checking for the full language `NavL[PC,NOI]` over interval-timestamped
//! graphs (Algorithms 4–5, TUPLE-EVAL-SOLVE).
//!
//! The evaluation problem over ITPGs for the full language is PSPACE-complete
//! (Theorem V.1), so no polynomial-time algorithm is expected.  This module implements
//! the paper's recursive algorithm: concatenations and repetitions iterate over
//! candidate intermediate temporal objects, and numerical occurrence indicators are
//! decomposed by halving (`r[n,n]` as `r[⌊n/2⌋,⌊n/2⌋]` twice, `r[0,m]` as
//! `r[0,⌊m/2⌋]` twice), so the recursion depth stays polynomial in the input size.
//!
//! As a practical concession the implementation memoizes sub-results keyed by
//! `(sub-expression, bounds, source, destination)`; this does not change the answers
//! and keeps the evaluator usable on the small graphs used for validation.  Unbounded
//! repetitions `r[n,_]` are capped at `n + M` steps, where `M = |Ω| · (|N| + |E|)` is
//! the number of temporal objects: `r[0,_]` is reachability over at most `M` states,
//! so a witness of length at most `M` always exists (a slight strengthening of the
//! `M²` bound used in the paper's proof).

use std::collections::HashMap;

use tgraph::{Itpg, Object, TemporalObject};

use crate::ast::{Axis, Path, TestExpr};

/// Decides `(src, dst) ∈ ⟦path⟧_I` for an arbitrary `NavL[PC,NOI]` expression.
pub fn eval_contains_full(
    path: &Path,
    graph: &Itpg,
    src: TemporalObject,
    dst: TemporalObject,
) -> bool {
    let mut solver = FullSolver::new(graph);
    solver.solve(path, src, dst)
}

#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct RepeatKey {
    expr: usize,
    lo: u32,
    hi: u32,
    src: TemporalObject,
    dst: TemporalObject,
}

struct FullSolver<'g> {
    graph: &'g Itpg,
    objects: Vec<Object>,
    memo: HashMap<(usize, TemporalObject, TemporalObject), bool>,
    repeat_memo: HashMap<RepeatKey, bool>,
}

impl<'g> FullSolver<'g> {
    fn new(graph: &'g Itpg) -> Self {
        FullSolver {
            graph,
            objects: graph.objects().collect(),
            memo: HashMap::new(),
            repeat_memo: HashMap::new(),
        }
    }

    /// `M = |Ω| · (|N| + |E|)`, the number of temporal objects.
    fn temporal_object_count(&self) -> u128 {
        self.graph.domain().num_points() * self.objects.len() as u128
    }

    fn solve(&mut self, path: &Path, src: TemporalObject, dst: TemporalObject) -> bool {
        let key = (path as *const Path as usize, src, dst);
        if let Some(&cached) = self.memo.get(&key) {
            return cached;
        }
        let result = self.solve_uncached(path, src, dst);
        self.memo.insert(key, result);
        result
    }

    fn solve_uncached(&mut self, path: &Path, src: TemporalObject, dst: TemporalObject) -> bool {
        let g = self.graph;
        match path {
            Path::Test(test) => src == dst && self.check_test(test, src),
            Path::Axis(axis) => axis_step(g, *axis, src, dst),
            Path::Alt(a, b) => self.solve(a, src, dst) || self.solve(b, src, dst),
            Path::Seq(a, b) => self.split(src, dst, |solver, mid| {
                solver.solve(a, src, mid) && solver.solve(b, mid, dst)
            }),
            Path::Repeat(inner, n, Some(m)) => self.solve_repeat(inner, *n, *m, src, dst),
            Path::Repeat(inner, n, None) => {
                let cap = u128::from(*n).saturating_add(self.temporal_object_count());
                let m = u32::try_from(cap).unwrap_or(u32::MAX);
                self.solve_repeat(inner, *n, m, src, dst)
            }
        }
    }

    /// Tries every temporal object as the split point of a concatenation.
    fn split<F>(&mut self, _src: TemporalObject, _dst: TemporalObject, mut f: F) -> bool
    where
        F: FnMut(&mut Self, TemporalObject) -> bool,
    {
        let domain = self.graph.domain();
        let objects = self.objects.clone();
        for &o in &objects {
            for t in domain.points() {
                if f(self, TemporalObject::new(o, t)) {
                    return true;
                }
            }
        }
        false
    }

    /// Membership in `⟦inner[n, m]⟧`, decomposed exactly as in Algorithm 5.
    fn solve_repeat(
        &mut self,
        inner: &Path,
        n: u32,
        m: u32,
        src: TemporalObject,
        dst: TemporalObject,
    ) -> bool {
        // An unsatisfiable indicator [n, m] with n > m is the union over an empty set
        // of repetition counts: it relates nothing.
        if n > m {
            return false;
        }
        let key = RepeatKey { expr: inner as *const Path as usize, lo: n, hi: m, src, dst };
        if let Some(&cached) = self.repeat_memo.get(&key) {
            return cached;
        }
        let result = if n == m {
            // Exact repetition r[n, n], by halving.
            match n {
                0 => src == dst,
                1 => self.solve(inner, src, dst),
                _ => {
                    let half = n / 2;
                    if n % 2 == 0 {
                        self.split(src, dst, |solver, mid| {
                            solver.solve_repeat(inner, half, half, src, mid)
                                && solver.solve_repeat(inner, half, half, mid, dst)
                        })
                    } else {
                        self.split(src, dst, |solver, mid| {
                            solver.solve_repeat(inner, half, half, src, mid)
                                && solver.split(mid, dst, |solver, mid2| {
                                    solver.solve(inner, mid, mid2)
                                        && solver.solve_repeat(inner, half, half, mid2, dst)
                                })
                        })
                    }
                }
            }
        } else if n == 0 {
            // r[0, m], by halving.
            match m {
                1 => src == dst || self.solve(inner, src, dst),
                _ => {
                    let half = m / 2;
                    if m % 2 == 0 {
                        self.split(src, dst, |solver, mid| {
                            solver.solve_repeat(inner, 0, half, src, mid)
                                && solver.solve_repeat(inner, 0, half, mid, dst)
                        })
                    } else {
                        self.split(src, dst, |solver, mid| {
                            solver.solve_repeat(inner, 0, half, src, mid)
                                && solver.split(mid, dst, |solver, mid2| {
                                    solver.solve_repeat(inner, 0, 1, mid, mid2)
                                        && solver.solve_repeat(inner, 0, half, mid2, dst)
                                })
                        })
                    }
                }
            }
        } else {
            // r[n, m] = r[n, n] / r[0, m - n].
            self.split(src, dst, |solver, mid| {
                solver.solve_repeat(inner, n, n, src, mid)
                    && solver.solve_repeat(inner, 0, m - n, mid, dst)
            })
        };
        self.repeat_memo.insert(key, result);
        result
    }

    fn check_test(&mut self, test: &TestExpr, to: TemporalObject) -> bool {
        match test {
            TestExpr::And(a, b) => self.check_test(a, to) && self.check_test(b, to),
            TestExpr::Or(a, b) => self.check_test(a, to) || self.check_test(b, to),
            TestExpr::Not(a) => !self.check_test(a, to),
            TestExpr::PathTest(p) => {
                let domain = self.graph.domain();
                let objects = self.objects.clone();
                for &o in &objects {
                    for t in domain.points() {
                        if self.solve(p, to, TemporalObject::new(o, t)) {
                            return true;
                        }
                    }
                }
                false
            }
            basic => super::itpg_pc::check_basic_test(basic, self.graph, to),
        }
    }
}

/// Single-step axis semantics over an ITPG, shared with the ANOI evaluator.
pub(crate) fn axis_step(
    graph: &Itpg,
    axis: Axis,
    src: TemporalObject,
    dst: TemporalObject,
) -> bool {
    let domain = graph.domain();
    match axis {
        Axis::Next => {
            src.object == dst.object && dst.time == src.time + 1 && domain.contains(dst.time)
        }
        Axis::Prev => {
            src.object == dst.object
                && src.time > 0
                && dst.time + 1 == src.time
                && domain.contains(dst.time)
        }
        Axis::Fwd => {
            src.time == dst.time
                && match (src.object, dst.object) {
                    (Object::Node(n), Object::Edge(e)) => graph.src(e) == n,
                    (Object::Edge(e), Object::Node(n)) => graph.tgt(e) == n,
                    _ => false,
                }
        }
        Axis::Bwd => {
            src.time == dst.time
                && match (src.object, dst.object) {
                    (Object::Node(n), Object::Edge(e)) => graph.tgt(e) == n,
                    (Object::Edge(e), Object::Node(n)) => graph.src(e) == n,
                    _ => false,
                }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, ItpgBuilder, NodeId};

    /// A single node that exists over the whole domain — the shape of the ITPGs used
    /// in the paper's hardness reductions.
    fn single_node(domain_end: u64) -> Itpg {
        let mut b = ItpgBuilder::new();
        let v = b.add_node("v", "l").unwrap();
        b.add_existence(v, Interval::of(0, domain_end)).unwrap();
        b.domain(Interval::of(0, domain_end)).build().unwrap()
    }

    fn at(t: u64) -> TemporalObject {
        TemporalObject::new(Object::Node(NodeId(0)), t)
    }

    #[test]
    fn exact_repetition_counts_time_steps() {
        let g = single_node(20);
        // N[5,5] moves exactly 5 steps forward.
        let p = Path::axis(Axis::Next).repeat(5, 5);
        assert!(eval_contains_full(&p, &g, at(3), at(8)));
        assert!(!eval_contains_full(&p, &g, at(3), at(7)));
        assert!(!eval_contains_full(&p, &g, at(3), at(9)));
        // Out of domain.
        assert!(!eval_contains_full(&p, &g, at(18), at(23)));
    }

    #[test]
    fn ranged_repetition() {
        let g = single_node(20);
        let p = Path::axis(Axis::Next).repeat(2, 6);
        for d in 0..=10u64 {
            let expected = (2..=6).contains(&d);
            assert_eq!(eval_contains_full(&p, &g, at(1), at(1 + d)), expected, "delta {d}");
        }
    }

    #[test]
    fn unsatisfiable_indicator_is_empty() {
        // N[3,1] relates nothing — no panic, no spurious matches, even nested.
        let g = single_node(10);
        let p = Path::axis(Axis::Next).repeat(3, 1);
        for d in 0..=5u64 {
            assert!(!eval_contains_full(&p, &g, at(0), at(d)), "delta {d}");
        }
        let nested = Path::axis(Axis::Next).repeat(3, 1).or(Path::axis(Axis::Next).repeat(1, 1));
        assert!(eval_contains_full(&nested, &g, at(0), at(1)));
        assert!(!eval_contains_full(&nested, &g, at(0), at(2)));
        let seq = Path::test(TestExpr::Exists).then(Path::axis(Axis::Next).repeat(2, 0));
        assert!(!eval_contains_full(&seq, &g, at(0), at(0)));
    }

    #[test]
    fn unbounded_repetition_reaches_everything_forward() {
        let g = single_node(12);
        let p = Path::axis(Axis::Next).repeat_at_least(3);
        assert!(eval_contains_full(&p, &g, at(0), at(3)));
        assert!(eval_contains_full(&p, &g, at(0), at(12)));
        assert!(!eval_contains_full(&p, &g, at(0), at(2)));
    }

    #[test]
    fn subset_sum_style_choice_expression() {
        // The NP-hardness reduction of Theorem D.1 uses expressions of the form
        // (N[a1,a1] + N[0,0]) / … / (N[an,an] + N[0,0]) to encode subset-sum.
        // A = {3, 5, 7}, S = 12 = 5 + 7 is solvable; S = 4 is not.
        let g = single_node(16);
        let choice =
            |a: u32| Path::axis(Axis::Next).repeat(a, a).or(Path::axis(Axis::Next).repeat(0, 0));
        let r = choice(3).then(choice(5)).then(choice(7));
        assert!(eval_contains_full(&r, &g, at(0), at(12)));
        assert!(eval_contains_full(&r, &g, at(0), at(15)));
        assert!(eval_contains_full(&r, &g, at(0), at(0)));
        assert!(!eval_contains_full(&r, &g, at(0), at(4)));
        assert!(!eval_contains_full(&r, &g, at(0), at(1)));
    }

    #[test]
    fn bit_testing_expression_from_the_pspace_reduction() {
        // r_i = ?( P[2^i, 2^i][0,_] / (< 2^i ∧ ¬ < 2^(i-1)) ) holds at (v, t) iff the
        // i-th bit of t is 1 (Appendix C-D, Step 1).
        let g = single_node(31);
        let bit = |i: u32| {
            let step = 1u32 << i;
            TestExpr::path_test(Path::axis(Axis::Prev).repeat(step, step).repeat_at_least(0).then(
                Path::test(TestExpr::TimeLt(1 << i).and(TestExpr::TimeLt(1 << (i - 1)).not())),
            ))
        };
        // The paper indexes bits from 1, so bit i of t is (t >> (i - 1)) & 1.
        for t in 0..=15u64 {
            let expr = Path::test(bit(1));
            let expected = t & 1 == 1;
            assert_eq!(eval_contains_full(&expr, &g, at(t), at(t)), expected, "bit 1 of {t}");
            let expr3 = Path::test(bit(3));
            let expected3 = (t >> 2) & 1 == 1;
            assert_eq!(eval_contains_full(&expr3, &g, at(t), at(t)), expected3, "bit 3 of {t}");
        }
    }

    #[test]
    fn structural_axes_and_tests_still_work() {
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let c = b.add_node("c", "Person").unwrap();
        let m = b.add_edge("m", "meets", a, c).unwrap();
        b.add_existence(a, Interval::of(0, 5)).unwrap();
        b.add_existence(c, Interval::of(0, 5)).unwrap();
        b.add_existence(m, Interval::of(1, 2)).unwrap();
        let g = b.domain(Interval::of(0, 5)).build().unwrap();
        let p = Path::test(TestExpr::label("Person").and(TestExpr::Exists))
            .then(Path::axis(Axis::Fwd))
            .then(Path::test(TestExpr::label("meets").and(TestExpr::Exists)))
            .then(Path::axis(Axis::Fwd))
            .then(Path::test(TestExpr::Node));
        let src = TemporalObject::new(Object::Node(a), 1);
        let dst = TemporalObject::new(Object::Node(c), 1);
        assert!(eval_contains_full(&p, &g, src, dst));
        let dst_wrong_time = TemporalObject::new(Object::Node(c), 2);
        assert!(!eval_contains_full(&p, &g, src, dst_wrong_time));
        let src_no_edge = TemporalObject::new(Object::Node(a), 4);
        assert!(!eval_contains_full(&p, &g, src_no_edge, TemporalObject::new(Object::Node(c), 4)));
    }
}
