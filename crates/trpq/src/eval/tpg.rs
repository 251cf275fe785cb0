//! Polynomial-time evaluation of full `NavL[PC,NOI]` over point-timestamped graphs
//! (Theorem C.1).
//!
//! The point-timestamped graph is `can(I)`: an [`Itpg`] read point by point.  Its
//! temporal objects are the graph's objects × the points of its domain, and the
//! tests read the existence and property functions ξ and σ one point at a time
//! ([`Itpg::exists_at`], [`Itpg::prop_value_at`]).
//!
//! The evaluator walks the parse tree of the expression bottom-up.  Each node of the
//! tree is materialised as a [`QuadTable`] with at most `M²` tuples, where
//! `M = |Ω| · (|N| + |E|)` is the number of temporal objects; concatenation is a
//! sort-merge join, union is a merge, and numerical occurrence indicators are handled
//! with exponentiation by squaring (Algorithms 1 and 2 of the paper).

use tgraph::{Itpg, Object, TemporalObject, Value};

use crate::ast::{Axis, Path, TestExpr};
use crate::eval::quad_table::{Quad, QuadTable};

/// Evaluates a `NavL[PC,NOI]` expression over `can(graph)`, returning the full
/// relation `⟦path⟧_G` as a table of `(o, t, o', t')` tuples.
pub fn eval_path(path: &Path, graph: &Itpg) -> QuadTable {
    Evaluator::new(graph).path(path)
}

/// Evaluates a test expression over `can(graph)`, returning the temporal objects
/// `(o, t)` satisfying it.
pub fn eval_test(test: &TestExpr, graph: &Itpg) -> Vec<TemporalObject> {
    Evaluator::new(graph).test(test)
}

/// Decides the membership problem `Eval(TPG, NavL[PC,NOI])`: is `(src, dst) ∈ ⟦path⟧_G`?
pub fn eval_contains(path: &Path, graph: &Itpg, src: TemporalObject, dst: TemporalObject) -> bool {
    eval_path(path, graph).contains(&Quad::new(src, dst))
}

struct Evaluator<'g> {
    graph: &'g Itpg,
    /// The identity relation over all temporal objects of the graph; reused as the
    /// base case of repetition operators.
    identity: QuadTable,
    /// All temporal objects of the graph in canonical order.
    universe: Vec<TemporalObject>,
}

impl<'g> Evaluator<'g> {
    fn new(graph: &'g Itpg) -> Self {
        let domain = graph.domain();
        let universe: Vec<TemporalObject> = graph
            .objects()
            .flat_map(|o| domain.points().map(move |t| TemporalObject::new(o, t)))
            .collect();
        let identity = QuadTable::identity_over(universe.iter().copied());
        Evaluator { graph, identity, universe }
    }

    fn path(&self, path: &Path) -> QuadTable {
        match path {
            Path::Test(test) => QuadTable::identity_over(self.test(test)),
            Path::Axis(axis) => self.axis(*axis),
            Path::Seq(a, b) => self.path(a).compose(&self.path(b)),
            Path::Alt(a, b) => self.path(a).union(&self.path(b)),
            Path::Repeat(p, n, Some(m)) => self.path(p).repeat_range(*n, *m, &self.identity),
            Path::Repeat(p, n, None) => self.path(p).repeat_at_least(*n, &self.identity),
        }
    }

    /// Evaluation of the navigation axes, exactly as defined in Section V.B.  Note
    /// that the axes do not require objects to exist at the traversed time points.
    fn axis(&self, axis: Axis) -> QuadTable {
        let g = self.graph;
        let domain = g.domain();
        let mut quads = Vec::new();
        match axis {
            Axis::Fwd => {
                for e in g.edge_ids() {
                    let (src, tgt) = (g.src(e), g.tgt(e));
                    for t in domain.points() {
                        quads.push(Quad::new(
                            TemporalObject::new(Object::Node(src), t),
                            TemporalObject::new(Object::Edge(e), t),
                        ));
                        quads.push(Quad::new(
                            TemporalObject::new(Object::Edge(e), t),
                            TemporalObject::new(Object::Node(tgt), t),
                        ));
                    }
                }
            }
            Axis::Bwd => {
                for e in g.edge_ids() {
                    let (src, tgt) = (g.src(e), g.tgt(e));
                    for t in domain.points() {
                        quads.push(Quad::new(
                            TemporalObject::new(Object::Node(tgt), t),
                            TemporalObject::new(Object::Edge(e), t),
                        ));
                        quads.push(Quad::new(
                            TemporalObject::new(Object::Edge(e), t),
                            TemporalObject::new(Object::Node(src), t),
                        ));
                    }
                }
            }
            Axis::Next => {
                for o in g.objects() {
                    for t in domain.start()..domain.end() {
                        quads.push(Quad::new(
                            TemporalObject::new(o, t),
                            TemporalObject::new(o, t + 1),
                        ));
                    }
                }
            }
            Axis::Prev => {
                for o in g.objects() {
                    for t in domain.start()..domain.end() {
                        quads.push(Quad::new(
                            TemporalObject::new(o, t + 1),
                            TemporalObject::new(o, t),
                        ));
                    }
                }
            }
        }
        QuadTable::from_quads(quads)
    }

    fn test(&self, test: &TestExpr) -> Vec<TemporalObject> {
        match test {
            TestExpr::And(a, b) => {
                let left = self.test(a);
                let right = self.test(b);
                sorted_intersection(&left, &right)
            }
            TestExpr::Or(a, b) => {
                let mut v = self.test(a);
                v.extend(self.test(b));
                v.sort_unstable();
                v.dedup();
                v
            }
            TestExpr::Not(a) => {
                let inner = self.test(a);
                self.universe.iter().copied().filter(|o| inner.binary_search(o).is_err()).collect()
            }
            TestExpr::PathTest(p) => self.path(p).sources(),
            basic => self
                .universe
                .iter()
                .copied()
                .filter(|to| self.satisfies_basic(basic, *to))
                .collect(),
        }
    }

    fn satisfies_basic(&self, test: &TestExpr, to: TemporalObject) -> bool {
        let g = self.graph;
        match test {
            TestExpr::Node => to.object.is_node(),
            TestExpr::Edge => to.object.is_edge(),
            TestExpr::Label(l) => g.label(to.object) == l,
            TestExpr::Prop(p, v) => g.prop_value_at(to.object, p, to.time) == Some(v),
            TestExpr::Exists => g.exists_at(to.object, to.time),
            TestExpr::TimeLt(k) => to.time < *k,
            _ => unreachable!("composite tests are handled by Evaluator::test"),
        }
    }
}

/// Checks whether a single temporal object satisfies a test (the relation
/// `(o, t) |= test` of Section V.B).  Composite tests recurse; path conditions fall
/// back to a full evaluation of the inner path.
pub fn satisfies(test: &TestExpr, graph: &Itpg, to: TemporalObject) -> bool {
    match test {
        TestExpr::Node => to.object.is_node(),
        TestExpr::Edge => to.object.is_edge(),
        TestExpr::Label(l) => graph.label(to.object) == l,
        TestExpr::Prop(p, v) => graph.prop_value_at(to.object, p, to.time) == Some(v as &Value),
        TestExpr::Exists => graph.exists_at(to.object, to.time),
        TestExpr::TimeLt(k) => to.time < *k,
        TestExpr::And(a, b) => satisfies(a, graph, to) && satisfies(b, graph, to),
        TestExpr::Or(a, b) => satisfies(a, graph, to) || satisfies(b, graph, to),
        TestExpr::Not(a) => !satisfies(a, graph, to),
        TestExpr::PathTest(p) => eval_path(p, graph).iter().any(|q| q.src == to),
    }
}

fn sorted_intersection(a: &[TemporalObject], b: &[TemporalObject]) -> Vec<TemporalObject> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, ItpgBuilder, NodeId};

    /// A small chain Person -(meets)-> Person -(visits)-> Room over a handful of time
    /// points, with one property change.
    fn sample() -> Itpg {
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let c = b.add_node("c", "Person").unwrap();
        let r = b.add_node("r", "Room").unwrap();
        let m = b.add_edge("m", "meets", a, c).unwrap();
        let v = b.add_edge("v", "visits", c, r).unwrap();
        b.add_existence(a, Interval::of(1, 6)).unwrap();
        b.add_existence(c, Interval::of(1, 8)).unwrap();
        b.add_existence(r, Interval::of(2, 8)).unwrap();
        b.add_existence(m, Interval::of(2, 3)).unwrap();
        b.add_existence(v, Interval::of(4, 5)).unwrap();
        b.set_property(a, "risk", "low", Interval::of(1, 3)).unwrap();
        b.set_property(a, "risk", "high", Interval::of(4, 6)).unwrap();
        b.set_property(c, "test", "pos", Interval::of(7, 8)).unwrap();
        b.domain(Interval::of(1, 8)).build().unwrap()
    }

    fn node(g: &Itpg, name: &str) -> Object {
        Object::Node(g.node_by_name(name).unwrap())
    }

    fn edge(g: &Itpg, name: &str) -> Object {
        Object::Edge(g.edge_by_name(name).unwrap())
    }

    #[test]
    fn axis_semantics_follow_the_definition() {
        let g = sample();
        let fwd = eval_path(&Path::axis(Axis::Fwd), &g);
        // F relates (src, t) to (e, t) and (e, t) to (tgt, t) for every t in Ω,
        // regardless of existence.
        let m = edge(&g, "m");
        let a = node(&g, "a");
        let c = node(&g, "c");
        assert!(fwd.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(m, 1))));
        assert!(fwd.contains(&Quad::new(TemporalObject::new(m, 8), TemporalObject::new(c, 8))));
        assert!(!fwd.contains(&Quad::new(TemporalObject::new(c, 1), TemporalObject::new(m, 1))));
        // 2 edges × 8 time points × 2 hops.
        assert_eq!(fwd.len(), 2 * 8 * 2);

        let next = eval_path(&Path::axis(Axis::Next), &g);
        assert!(next.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(a, 2))));
        assert!(!next.contains(&Quad::new(TemporalObject::new(a, 8), TemporalObject::new(a, 9))));
        // 5 objects × 7 transitions.
        assert_eq!(next.len(), 5 * 7);

        let prev = eval_path(&Path::axis(Axis::Prev), &g);
        assert!(prev.contains(&Quad::new(TemporalObject::new(a, 2), TemporalObject::new(a, 1))));
        assert_eq!(prev.len(), 5 * 7);
    }

    #[test]
    fn tests_select_the_right_temporal_objects() {
        let g = sample();
        let person_low = eval_test(
            &TestExpr::Node.and(TestExpr::label("Person")).and(TestExpr::prop("risk", "low")),
            &g,
        );
        let a = node(&g, "a");
        assert_eq!(
            person_low,
            vec![TemporalObject::new(a, 1), TemporalObject::new(a, 2), TemporalObject::new(a, 3),]
        );

        let exists_rooms = eval_test(&TestExpr::label("Room").and(TestExpr::Exists), &g);
        assert_eq!(exists_rooms.len(), 7); // r exists on [2,8].

        let lt3 = eval_test(&TestExpr::TimeLt(3), &g);
        assert_eq!(lt3.len(), 5 * 2); // every object at times 1 and 2.

        // Negation complements within all temporal objects.
        let not_node = eval_test(&TestExpr::Node.not(), &g);
        assert_eq!(not_node.len(), 2 * 8);
    }

    #[test]
    fn concatenation_and_union() {
        let g = sample();
        // Person with risk high at t, then one FWD step onto the meets edge.
        let p = Path::test(TestExpr::prop("risk", "high"))
            .then(Path::axis(Axis::Fwd))
            .then(Path::test(TestExpr::label("meets")));
        let table = eval_path(&p, &g);
        let a = node(&g, "a");
        let m = edge(&g, "m");
        // a is high risk on [4,6]; FWD onto m keeps the time.
        assert_eq!(
            table.quads(),
            &[
                Quad::new(TemporalObject::new(a, 4), TemporalObject::new(m, 4)),
                Quad::new(TemporalObject::new(a, 5), TemporalObject::new(m, 5)),
                Quad::new(TemporalObject::new(a, 6), TemporalObject::new(m, 6)),
            ]
        );

        let u = Path::axis(Axis::Next).or(Path::axis(Axis::Prev));
        let tbl = eval_path(&u, &g);
        assert_eq!(tbl.len(), 2 * 5 * 7);
    }

    #[test]
    fn repetition_with_existence_walks_time() {
        let g = sample();
        let c = node(&g, "c");
        // (N/∃)[0,_] starting from a positive test walks forward only through times
        // where the object exists.
        let p = Path::test(TestExpr::prop("test", "pos"))
            .then(Path::axis(Axis::Prev).then(Path::test(TestExpr::Exists)).star());
        let table = eval_path(&p, &g);
        // c tests positive at 7 and 8; PREV* reaches every earlier time ≥ 1.
        assert!(table.contains(&Quad::new(TemporalObject::new(c, 7), TemporalObject::new(c, 1))));
        assert!(table.contains(&Quad::new(TemporalObject::new(c, 8), TemporalObject::new(c, 8))));
        assert!(table.contains(&Quad::new(TemporalObject::new(c, 7), TemporalObject::new(c, 7))));
        assert!(!table.contains(&Quad::new(TemporalObject::new(c, 7), TemporalObject::new(c, 8))));
        let sources = table.sources();
        assert_eq!(sources, vec![TemporalObject::new(c, 7), TemporalObject::new(c, 8)]);
    }

    #[test]
    fn bounded_repetition_counts_steps() {
        let g = sample();
        let a = node(&g, "a");
        // NEXT[2,3] moves forward between 2 and 3 time units.
        let p = Path::axis(Axis::Next).repeat(2, 3);
        let table = eval_path(&p, &g);
        assert!(table.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(a, 3))));
        assert!(table.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(a, 4))));
        assert!(!table.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(a, 2))));
        assert!(!table.contains(&Quad::new(TemporalObject::new(a, 1), TemporalObject::new(a, 5))));
    }

    #[test]
    fn unsatisfiable_indicator_is_empty() {
        // NEXT[3,1] relates nothing over the whole relation, and composes to nothing.
        let g = sample();
        let p = Path::axis(Axis::Next).repeat(3, 1);
        assert!(eval_path(&p, &g).is_empty());
        let seq = Path::test(TestExpr::label("Person")).then(p);
        assert!(eval_path(&seq, &g).is_empty());
    }

    #[test]
    fn path_conditions_inspect_the_future() {
        let g = sample();
        // Temporal objects from which a positive test is reachable by moving forward
        // in time on the same object: (? (N/∃)[0,_] / test ↦ pos ).
        let cond = TestExpr::path_test(
            Path::axis(Axis::Next)
                .then(Path::test(TestExpr::Exists))
                .star()
                .then(Path::test(TestExpr::prop("test", "pos"))),
        );
        let sat = eval_test(&cond, &g);
        let c = node(&g, "c");
        // Only node c satisfies it, at every time from 1 to 8.
        assert_eq!(sat.len(), 8);
        assert!(sat.iter().all(|to| to.object == c));
        // And the negation holds everywhere else.
        let unsat = eval_test(&cond.not(), &g);
        assert_eq!(unsat.len(), 5 * 8 - 8);
    }

    #[test]
    fn membership_helper_and_pointwise_satisfaction_agree() {
        let g = sample();
        let a = node(&g, "a");
        let test = TestExpr::prop("risk", "high").and(TestExpr::Exists);
        for t in 1..=8 {
            let to = TemporalObject::new(a, t);
            let direct = satisfies(&test, &g, to);
            let via_eval = eval_test(&test, &g).contains(&to);
            assert_eq!(direct, via_eval, "disagreement at time {t}");
        }
        let p = Path::axis(Axis::Next);
        assert!(eval_contains(&p, &g, TemporalObject::new(a, 1), TemporalObject::new(a, 2)));
        assert!(!eval_contains(&p, &g, TemporalObject::new(a, 2), TemporalObject::new(a, 1)));
    }

    #[test]
    fn room_availability_example_from_section_v() {
        // (Room ∧ ¬∃)/(N/¬∃)[0,_]/(Room ∧ ∃): from a time where the room is
        // unavailable, find the next time it becomes available.
        let mut b = ItpgBuilder::new();
        let r = b.add_node("room", "Room").unwrap();
        b.add_existence(r, Interval::of(1, 2)).unwrap();
        b.add_existence(r, Interval::of(6, 8)).unwrap();
        let g = b.domain(Interval::of(1, 8)).build().unwrap();
        let room = Object::Node(NodeId(0));

        let p = Path::test(TestExpr::label("Room").and(TestExpr::Exists.not()))
            .then(Path::axis(Axis::Next).then(Path::test(TestExpr::Exists.not())).star())
            .then(Path::axis(Axis::Next))
            .then(Path::test(TestExpr::label("Room").and(TestExpr::Exists)));
        let table = eval_path(&p, &g);
        // From time 3 (unavailable) the room becomes available at 6.
        assert!(
            table.contains(&Quad::new(TemporalObject::new(room, 3), TemporalObject::new(room, 6)))
        );
        assert!(
            table.contains(&Quad::new(TemporalObject::new(room, 5), TemporalObject::new(room, 6)))
        );
        assert!(
            !table.contains(&Quad::new(TemporalObject::new(room, 3), TemporalObject::new(room, 7)))
        );
        assert!(
            !table.contains(&Quad::new(TemporalObject::new(room, 1), TemporalObject::new(room, 6)))
        );
    }
}
