//! Step 1 of query evaluation (Section VI): structural navigation over the
//! interval-timestamped relations.
//!
//! A segment is a select–project–join pipeline evaluated entirely on intervals: every
//! hop is a temporally-aligned join between the current chains and the adjacent
//! Nodes/Edges rows (equal adjacency keys, intersecting validity intervals), every
//! filter prunes rows and clamps intervals, and a [`MicroOp::Closure`] repeats an
//! inner pipeline to a fixpoint (see [`crate::steps::closure`]).  Every hop probes the
//! per-node adjacency indexes [`GraphRelations`] builds at load time — a hash join
//! whose build side is precomputed.
//!
//! The pipeline is generic over a [`StructuralCursor`] — a `Copy` position-plus-interval
//! that a hop moves and a filter narrows: the executor drives it with lean
//! [`Cursor`]s, whose recorded history lives in the batch's [`Trail`], and the
//! time-aware closure with its band states.  The structural closure walks its body one
//! state at a time through the same one-row primitives (`hop_from`,
//! `filter_interval`).  Nothing a hop or a filter does allocates per cursor.
//!
//! A hop is also where a match *chooses* rows, and so where the executor's backward
//! viability masks ([`crate::steps::viability`]) are consulted: when the segment comes
//! with masks, an adjacent row whose bit is clear is skipped before its row struct is
//! read — no match landing there could reach the end of the plan.  The closure
//! fixpoints run unmasked.

use tgraph::Interval;

use crate::chain::{Cursor, Position, Trail};
use crate::plan::{HopDirection, MicroOp, ObjFilter, Segment};
use crate::relations::GraphRelations;
use crate::steps::closure::{apply_closure, Reached};
use crate::steps::viability::{RowMask, SegmentMasks};
use crate::steps::StepStats;

/// The state threaded through a structural pipeline: a position in the row relations
/// plus the validity interval accumulated so far.  Implemented by [`Cursor`] (the
/// executor's in-flight match) and by the time-aware closure's band states.  The
/// `Copy` bound is the point: a hop fans one cursor out to every adjacent row, so
/// whatever implements this is copied once per traversal.
pub trait StructuralCursor: Copy {
    /// The row the cursor currently sits on.
    fn position(&self) -> Position;

    /// The validity interval accumulated since the segment started.
    fn interval(&self) -> Interval;

    /// A copy of the cursor moved to another row with a narrowed interval.  Used by
    /// hops, which fan one cursor out to several adjacent rows.
    fn moved_to(&self, position: Position, interval: Interval) -> Self;

    /// The cursor with its interval narrowed.  Used by filters, which keep the
    /// position and never fan out.
    fn with_interval(self, interval: Interval) -> Self;
}

impl StructuralCursor for Cursor {
    fn position(&self) -> Position {
        self.position
    }

    fn interval(&self) -> Interval {
        self.interval
    }

    fn moved_to(&self, position: Position, interval: Interval) -> Self {
        Cursor { position, interval, ..*self }
    }

    fn with_interval(mut self, interval: Interval) -> Self {
        self.interval = interval;
        self
    }
}

/// Applies every operation of a segment to the given cursors, returning the
/// survivors.  Bindings are recorded in `trail`; hop probes, hop outputs and closure
/// rounds are counted in `stats`.  With `viable`, a hop lands only on the rows the
/// segment's masks allow; a closure runs unmasked, over the caller's `reached`
/// scratch.
pub(crate) fn apply_segment(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    segment: &Segment,
    viable: Option<&SegmentMasks>,
    reached: &mut Reached,
    trail: &mut Trail,
    stats: &mut StepStats,
) -> Vec<Cursor> {
    let mut current = cursors;
    for (index, op) in segment.ops.iter().enumerate() {
        match op {
            // A segment is the only place the compiler puts a binding, and the only
            // cursor with somewhere to record one is the executor's.
            MicroOp::Bind(_) => {
                for cursor in &mut current {
                    cursor.bind(graph, trail);
                }
            }
            MicroOp::Closure(closure) => {
                current = apply_closure(graph, current, closure, reached, stats)
            }
            op => {
                let landing = viable.and_then(|masks| masks.landing(index));
                current = apply_op(graph, current, op, landing, stats);
            }
        }
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Applies one micro-operation to a batch of cursors, a hop landing only on the rows
/// of `landing`, if given.  Also driven directly by the time-aware closure fixpoint,
/// which interleaves micro-operations with temporal steps and passes no mask.  A
/// closure reached here is nested in another one and runs over scratch of its own.
pub(crate) fn apply_op<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    op: &MicroOp,
    landing: Option<&RowMask>,
    stats: &mut StepStats,
) -> Vec<C> {
    match op {
        MicroOp::Filter(filter) => {
            cursors.into_iter().filter_map(|cursor| apply_filter(graph, cursor, filter)).collect()
        }
        // `EnginePlan::new` refuses a binding inside a repetition, the only place
        // this is reached from; silently dropping it would corrupt query output.
        MicroOp::Bind(_) => unreachable!("a plan binds only in its segments"),
        // Two copies of the join: the one every unmasked batch or closure runs tests
        // nothing per adjacent row.
        MicroOp::Hop(direction) => match landing {
            None => apply_hop(graph, &cursors, *direction, |_| true, stats),
            Some(mask) => apply_hop(graph, &cursors, *direction, |row| mask.contains(row), stats),
        },
        MicroOp::Closure(closure) => {
            apply_closure(graph, cursors, closure, &mut Reached::default(), stats)
        }
    }
}

/// One structural step for a whole batch of cursors: node → incident edge (a join
/// with the Edges relation on the adjacency key: source node for forward hops,
/// target node for backward ones), or edge → endpoint node (a join with the Nodes
/// relation on the endpoint key), keeping only temporally-aligned matches (non-empty
/// interval intersections).  A batch is homogeneous in position kind by construction
/// (hops alternate between node and edge rows) except past a closure that reaches
/// both; each cursor is dispatched on its own kind and counts one probe.  `viable`
/// (a landing mask's bit test: no mask exists past a closure, so a masked batch
/// lands on one kind of row) is asked before the adjacent row itself is read.
fn apply_hop<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: &[C],
    direction: HopDirection,
    viable: impl Fn(u32) -> bool,
    stats: &mut StepStats,
) -> Vec<C> {
    let mut out = Vec::with_capacity(cursors.len());
    for cursor in cursors {
        let (position, interval) = (cursor.position(), cursor.interval());
        hop_from(graph, position, interval, direction, &viable, |position, interval| {
            out.push(cursor.moved_to(position, interval))
        });
    }
    stats.hop_probes += cursors.len();
    stats.hop_cursors += out.len();
    out
}

/// One hop from one row: calls `land` with every adjacent row `viable` admits whose
/// validity meets `interval`, and the intersection; returns the number of adjacent
/// rows.  The adjacent rows of a node row are its incident edge rows (out-edges
/// forward, in-edges backward), those of an edge row the rows of its endpoint node;
/// `viable` is asked before the adjacent row itself is read.
#[inline]
pub(crate) fn hop_from(
    graph: &GraphRelations,
    position: Position,
    interval: Interval,
    direction: HopDirection,
    viable: impl Fn(u32) -> bool,
    mut land: impl FnMut(Position, Interval),
) -> usize {
    let (nodes, edges) = (graph.nodes(), graph.edges());
    match position {
        Position::NodeRow(r) => {
            let node = nodes.get(r).node;
            let adjacent = match direction {
                HopDirection::Forward => graph.out_edge_rows(node),
                HopDirection::Backward => graph.in_edge_rows(node),
            };
            for &row in adjacent.iter().filter(|&&row| viable(row)) {
                if let Some(interval) = interval.intersect(&edges.get(row).interval) {
                    land(Position::EdgeRow(row), interval);
                }
            }
            adjacent.len()
        }
        Position::EdgeRow(r) => {
            let edge = edges.get(r);
            let endpoint = match direction {
                HopDirection::Forward => edge.tgt,
                HopDirection::Backward => edge.src,
            };
            let states = graph.rows_of_node(endpoint);
            for &row in states.iter().filter(|&&row| viable(row)) {
                if let Some(interval) = interval.intersect(&nodes.get(row).interval) {
                    land(Position::NodeRow(row), interval);
                }
            }
            states.len()
        }
    }
}

fn apply_filter<C: StructuralCursor>(
    graph: &GraphRelations,
    cursor: C,
    filter: &ObjFilter,
) -> Option<C> {
    let interval = filter_interval(graph, cursor.position(), cursor.interval(), filter)?;
    Some(cursor.with_interval(interval))
}

/// What a filter leaves of `interval` on `position`: the interval clamped to the
/// filter's time constraints if the row passes it, `None` otherwise.
pub(crate) fn filter_interval(
    graph: &GraphRelations,
    position: Position,
    interval: Interval,
    filter: &ObjFilter,
) -> Option<Interval> {
    let row = graph.row(position);
    let kind = filter.require_node.is_none_or(|node| node == row.object.is_node());
    if !kind || !filter.matches_row(row.label, row.props) {
        return None;
    }
    filter.clamp_interval(interval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, ItpgBuilder, Value};
    use trpq::parser::Constraint;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn graph() -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let ann = b.add_node("ann", "Person").unwrap();
        let bob = b.add_node("bob", "Person").unwrap();
        let room = b.add_node("room", "Room").unwrap();
        let meets = b.add_edge("m", "meets", ann, bob).unwrap();
        let visits = b.add_edge("v", "visits", bob, room).unwrap();
        b.add_existence(ann, iv(1, 9)).unwrap();
        b.add_existence(bob, iv(1, 9)).unwrap();
        b.add_existence(room, iv(3, 8)).unwrap();
        b.add_existence(meets, iv(5, 6)).unwrap();
        b.add_existence(visits, iv(6, 8)).unwrap();
        b.set_property(ann, "risk", "low", iv(1, 9)).unwrap();
        b.set_property(bob, "risk", "high", iv(1, 9)).unwrap();
        GraphRelations::from_itpg(&b.domain(iv(1, 11)).build().unwrap())
    }

    /// Applies the segment to one seed cursor per node row: the survivors, and the
    /// trail they recorded to.
    fn apply_to_all_nodes(graph: &GraphRelations, segment: &Segment) -> (Vec<Cursor>, Trail) {
        let seeds = (0..graph.node_rows().len() as u32).map(|r| Cursor::seed(r, graph)).collect();
        let mut trail = Trail::default();
        let mut stats = StepStats::default();
        let cursors = apply_segment(
            graph,
            seeds,
            segment,
            None,
            &mut Reached::default(),
            &mut trail,
            &mut stats,
        );
        (cursors, trail)
    }

    #[test]
    fn filters_prune_rows_and_clamp_intervals() {
        let g = graph();
        let filter = ObjFilter::from_pattern(
            Some(true),
            Some("Person"),
            &[Constraint::Prop("risk".into(), Value::str("high"))],
        );
        let segment = Segment { ops: vec![MicroOp::Filter(filter), MicroOp::Bind(0)] };
        let (result, trail) = apply_to_all_nodes(&g, &segment);
        assert_eq!(result.len(), 1);
        let bob = result[0].position.object(&g);
        assert_eq!(g.object_name(bob), "bob");
        assert_eq!(result[0].interval, iv(1, 9));
        assert_eq!(trail.materialize(&result[0]).bound, [bob]);

        let time_filter = ObjFilter::from_pattern(
            Some(true),
            None,
            &[Constraint::Time(trpq::parser::CmpOp::Lt, 4)],
        );
        let (clamped, _) =
            apply_to_all_nodes(&g, &Segment { ops: vec![MicroOp::Filter(time_filter)] });
        // Every node row survives but clamped below time 4; the Room row starts at 3.
        assert_eq!(clamped.len(), 3);
        assert!(clamped.iter().all(|c| c.interval.end() <= 3));
    }

    #[test]
    fn hops_follow_edges_and_intersect_intervals() {
        let g = graph();
        // ann --meets--> bob: hop forward twice from Person rows labelled 'low'.
        let segment = Segment {
            ops: vec![
                MicroOp::Filter(ObjFilter::from_pattern(
                    Some(true),
                    None,
                    &[Constraint::Prop("risk".into(), Value::str("low"))],
                )),
                MicroOp::Hop(HopDirection::Forward),
                MicroOp::Filter(ObjFilter { label: Some("meets".into()), ..Default::default() }),
                MicroOp::Hop(HopDirection::Forward),
            ],
        };
        let (result, _) = apply_to_all_nodes(&g, &segment);
        assert_eq!(result.len(), 1);
        assert_eq!(g.object_name(result[0].position.object(&g)), "bob");
        // Interval is the intersection of ann [1,9], meets [5,6], bob [1,9].
        assert_eq!(result[0].interval, iv(5, 6));
    }

    #[test]
    fn backward_hops_traverse_against_edge_direction() {
        let g = graph();
        // Start from the Room, go backward over `visits` to the visitor.
        let segment = Segment {
            ops: vec![
                MicroOp::Filter(ObjFilter { label: Some("Room".into()), ..Default::default() }),
                MicroOp::Hop(HopDirection::Backward),
                MicroOp::Filter(ObjFilter { label: Some("visits".into()), ..Default::default() }),
                MicroOp::Hop(HopDirection::Backward),
            ],
        };
        let (result, _) = apply_to_all_nodes(&g, &segment);
        assert_eq!(result.len(), 1);
        assert_eq!(g.object_name(result[0].position.object(&g)), "bob");
        assert_eq!(result[0].interval, iv(6, 8));
    }

    #[test]
    fn dead_ends_produce_no_chains() {
        let g = graph();
        let segment = Segment {
            ops: vec![
                MicroOp::Filter(ObjFilter { label: Some("Room".into()), ..Default::default() }),
                MicroOp::Hop(HopDirection::Forward),
            ],
        };
        // The room has no outgoing edges.
        assert!(apply_to_all_nodes(&g, &segment).0.is_empty());
    }
}
