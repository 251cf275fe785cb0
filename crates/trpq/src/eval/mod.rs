//! Reference evaluators for `NavL[PC,NOI]` and its fragments.
//!
//! | Evaluator | Graph | Fragment | Complexity | Paper |
//! |---|---|---|---|---|
//! | [`tpg::eval_path`] | `can(I)`: an `Itpg` read point by point | `NavL[PC,NOI]` | polynomial | Theorem C.1, Algorithms 1–2 |
//! | [`itpg_pc::eval_contains_pc`] | ITPG | `NavL[PC]` | polynomial | Algorithm 3 |
//! | [`itpg_anoi::eval_contains_anoi`] | ITPG | `NavL[ANOI]` | NP (determinised) | Algorithms 6–7 |
//! | [`itpg_full::eval_contains_full`] | ITPG | `NavL[PC,NOI]` | PSPACE | Algorithms 4–5 |
//!
//! These evaluators materialise relations over individual temporal objects and are
//! meant as executable semantics — the ground truth that the interval-based engine in
//! the `engine` crate is validated against — not as the fast path for large graphs.

pub mod itpg_anoi;
pub mod itpg_full;
pub mod itpg_pc;
pub mod quad_table;
pub mod tpg;

use tgraph::{Itpg, TemporalObject};

use crate::ast::Path;
use crate::error::Result;
use crate::fragment::{classify, Fragment};

/// Decides `(src, dst) ∈ ⟦path⟧_I` over an interval-timestamped graph, dispatching to
/// the cheapest evaluator whose fragment contains the expression.
pub fn eval_contains_itpg(
    path: &Path,
    graph: &Itpg,
    src: TemporalObject,
    dst: TemporalObject,
) -> Result<bool> {
    match classify(path) {
        Fragment::Core | Fragment::Pc => itpg_pc::eval_contains_pc(path, graph, src, dst),
        Fragment::Anoi => itpg_anoi::eval_contains_anoi(path, graph, src, dst),
        Fragment::Noi | Fragment::PcAnoi | Fragment::PcNoi => {
            Ok(itpg_full::eval_contains_full(path, graph, src, dst))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axis, TestExpr};
    use tgraph::{Interval, ItpgBuilder, NodeId, Object};

    fn tiny() -> Itpg {
        let mut b = ItpgBuilder::new();
        let v = b.add_node("v", "Person").unwrap();
        b.add_existence(v, Interval::of(0, 6)).unwrap();
        b.set_property(v, "test", "pos", Interval::of(5, 6)).unwrap();
        b.domain(Interval::of(0, 6)).build().unwrap()
    }

    fn at(t: u64) -> TemporalObject {
        TemporalObject::new(Object::Node(NodeId(0)), t)
    }

    #[test]
    fn dispatch_agrees_across_fragments() {
        let g = tiny();
        // A PC expression, an ANOI expression and a full expression that all express
        // "a positive test happens within three steps in the future".
        let pc = Path::test(TestExpr::path_test(
            Path::axis(Axis::Next)
                .then(Path::axis(Axis::Next))
                .then(Path::axis(Axis::Next))
                .then(Path::test(TestExpr::prop("test", "pos"))),
        ));
        let anoi =
            Path::axis(Axis::Next).repeat(3, 3).then(Path::test(TestExpr::prop("test", "pos")));
        for t in 0..=6u64 {
            let anoi_result = eval_contains_itpg(&anoi, &g, at(t), at(t + 3)).unwrap();
            let expected = t + 3 <= 6 && t + 3 >= 5;
            assert_eq!(anoi_result, expected, "ANOI at {t}");
        }
        assert!(eval_contains_itpg(&pc, &g, at(2), at(2)).unwrap());
        assert!(!eval_contains_itpg(&pc, &g, at(0), at(0)).unwrap());

        // The full evaluator accepts everything, including mixed PC + NOI.
        let mixed = Path::test(TestExpr::path_test(
            Path::axis(Axis::Next).repeat(1, 3).then(Path::test(TestExpr::prop("test", "pos"))),
        ));
        assert!(eval_contains_itpg(&mixed, &g, at(3), at(3)).unwrap());
        assert!(!eval_contains_itpg(&mixed, &g, at(0), at(0)).unwrap());
    }
}
