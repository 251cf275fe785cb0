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
//! The pipeline is generic over a [`StructuralCursor`]: the executor drives it with
//! full [`Chain`]s, while the closure operator drives the same joins with its
//! lightweight tagged frontier entries (the "delta" of the semi-naive iteration).

use tgraph::Interval;

use crate::chain::{BoundVar, Chain, Position};
use crate::plan::{HopDirection, MicroOp, ObjFilter, Segment};
use crate::relations::GraphRelations;
use crate::steps::closure::apply_closure;
use crate::steps::StepStats;

/// The state threaded through a structural pipeline: a position in the row relations
/// plus the validity interval accumulated so far.  Implemented by [`Chain`] (the
/// executor's full match state) and by the closure fixpoint's frontier entries.
pub trait StructuralCursor: Clone {
    /// The row the cursor currently sits on.
    fn position(&self) -> Position;

    /// The validity interval accumulated since the segment started.
    fn interval(&self) -> Interval;

    /// A copy of the cursor moved to another row with a narrowed interval.  Used by
    /// hops, which fan one cursor out to several adjacent rows.
    fn moved_to(&self, position: Position, interval: Interval) -> Self;

    /// The cursor with its interval narrowed in place.  Used by filters, which keep
    /// the position and never fan out, so no clone is needed.
    fn with_interval(self, interval: Interval) -> Self;

    /// Records a variable binding at the current position.  Only full chains carry
    /// bindings; the compiler never places a [`MicroOp::Bind`] inside a closure, so
    /// frontier cursors treat this as unreachable.
    fn record_binding(&mut self, slot: u32, graph: &GraphRelations);
}

impl StructuralCursor for Chain {
    fn position(&self) -> Position {
        self.position
    }

    fn interval(&self) -> Interval {
        self.interval
    }

    fn moved_to(&self, position: Position, interval: Interval) -> Self {
        let mut next = self.clone();
        next.position = position;
        next.interval = interval;
        next
    }

    fn with_interval(mut self, interval: Interval) -> Self {
        self.interval = interval;
        self
    }

    fn record_binding(&mut self, slot: u32, graph: &GraphRelations) {
        self.bound.push(BoundVar {
            slot,
            segment: self.current_segment(),
            object: self.position.object(graph),
        });
    }
}

/// Applies every operation of a segment to the given chains, returning the surviving
/// chains.  Hop joins and closure rounds are counted in `stats`.
pub fn apply_segment(
    graph: &GraphRelations,
    chains: Vec<Chain>,
    segment: &Segment,
    stats: &StepStats,
) -> Vec<Chain> {
    apply_ops(graph, chains, &segment.ops, stats)
}

/// Applies a sequence of micro-operations to a batch of cursors.
pub(crate) fn apply_ops<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    ops: &[MicroOp],
    stats: &StepStats,
) -> Vec<C> {
    let mut current = cursors;
    for op in ops {
        current = apply_op(graph, current, op, stats);
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Applies one micro-operation to a batch of cursors.  Also driven directly by the
/// closure fixpoints, which interleave micro-operations with temporal steps.
pub(crate) fn apply_op<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    op: &MicroOp,
    stats: &StepStats,
) -> Vec<C> {
    match op {
        MicroOp::Filter(filter) => {
            cursors.into_iter().filter_map(|cursor| apply_filter(graph, cursor, filter)).collect()
        }
        MicroOp::Bind(slot) => cursors
            .into_iter()
            .map(|mut cursor| {
                cursor.record_binding(*slot as u32, graph);
                cursor
            })
            .collect(),
        MicroOp::Hop(direction) => apply_hop(graph, cursors, *direction, stats),
        MicroOp::Closure(closure) => apply_closure(graph, cursors, closure, stats),
    }
}

/// One structural step for a whole batch of cursors: node → incident edge, or edge →
/// endpoint node, keeping only temporally-aligned matches (non-empty interval
/// intersections).  A batch is homogeneous in position kind by construction (hops
/// alternate between node and edge rows), but both kinds are handled for robustness.
fn apply_hop<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: Vec<C>,
    direction: HopDirection,
    stats: &StepStats,
) -> Vec<C> {
    let (node_cursors, edge_cursors): (Vec<C>, Vec<C>) =
        cursors.into_iter().partition(|c| matches!(c.position(), Position::NodeRow(_)));
    let mut out = Vec::with_capacity(node_cursors.len() + edge_cursors.len());
    if !node_cursors.is_empty() {
        hop_from_nodes(graph, &node_cursors, direction, stats, &mut out);
    }
    if !edge_cursors.is_empty() {
        hop_from_edges(graph, &edge_cursors, direction, stats, &mut out);
    }
    out
}

/// Counts one hop join (per hop batch, not per cursor) into the step stats.
fn count_join(stats: &StepStats) {
    stats.hash_joins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Joins node-positioned cursors with the Edges relation on the adjacency key
/// (source node for forward hops, target node for backward hops).
fn hop_from_nodes<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: &[C],
    direction: HopDirection,
    stats: &StepStats,
    out: &mut Vec<C>,
) {
    count_join(stats);
    for cursor in cursors {
        let node = graph.node_rows()[match cursor.position() {
            Position::NodeRow(r) => r,
            Position::EdgeRow(_) => unreachable!("node hop over an edge-positioned cursor"),
        } as usize]
            .node;
        let rows = match direction {
            HopDirection::Forward => graph.out_edge_rows(node),
            HopDirection::Backward => graph.in_edge_rows(node),
        };
        extend_with_edge_rows(graph, cursor, rows, out);
    }
}

/// Joins edge-positioned cursors with the Nodes relation on the endpoint key
/// (target node for forward hops, source node for backward hops).
fn hop_from_edges<C: StructuralCursor>(
    graph: &GraphRelations,
    cursors: &[C],
    direction: HopDirection,
    stats: &StepStats,
    out: &mut Vec<C>,
) {
    let endpoint = |c: &C| {
        let row = &graph.edge_rows()[match c.position() {
            Position::EdgeRow(r) => r,
            Position::NodeRow(_) => unreachable!("edge hop over a node-positioned cursor"),
        } as usize];
        match direction {
            HopDirection::Forward => row.tgt,
            HopDirection::Backward => row.src,
        }
    };
    count_join(stats);
    for cursor in cursors {
        extend_with_node_rows(graph, cursor, graph.rows_of_node(endpoint(cursor)), out);
    }
}

fn apply_filter<C: StructuralCursor>(
    graph: &GraphRelations,
    cursor: C,
    filter: &ObjFilter,
) -> Option<C> {
    let ok = match cursor.position() {
        Position::NodeRow(r) => {
            let row = &graph.node_rows()[r as usize];
            filter.require_node != Some(false) && filter.matches_row(&row.label, &row.props)
        }
        Position::EdgeRow(r) => {
            let row = &graph.edge_rows()[r as usize];
            filter.require_node != Some(true) && filter.matches_row(&row.label, &row.props)
        }
    };
    if !ok {
        return None;
    }
    let interval = filter.clamp_interval(cursor.interval())?;
    Some(cursor.with_interval(interval))
}

fn extend_with_edge_rows<C: StructuralCursor>(
    graph: &GraphRelations,
    cursor: &C,
    rows: &[u32],
    out: &mut Vec<C>,
) {
    for &edge_row in rows {
        let row_interval = graph.edge_rows()[edge_row as usize].interval;
        if let Some(interval) = cursor.interval().intersect(&row_interval) {
            out.push(cursor.moved_to(Position::EdgeRow(edge_row), interval));
        }
    }
}

fn extend_with_node_rows<C: StructuralCursor>(
    graph: &GraphRelations,
    cursor: &C,
    rows: &[u32],
    out: &mut Vec<C>,
) {
    for &node_row in rows {
        let row_interval = graph.node_rows()[node_row as usize].interval;
        if let Some(interval) = cursor.interval().intersect(&row_interval) {
            out.push(cursor.moved_to(Position::NodeRow(node_row), interval));
        }
    }
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

    fn seeds(graph: &GraphRelations) -> Vec<Chain> {
        (0..graph.node_rows().len() as u32).map(|r| Chain::seed(r, graph)).collect()
    }

    /// Applies the segment to one seed chain per node row.
    fn apply_to_all_nodes(graph: &GraphRelations, segment: &Segment) -> Vec<Chain> {
        apply_segment(graph, seeds(graph), segment, &StepStats::default())
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
        let result = apply_to_all_nodes(&g, &segment);
        assert_eq!(result.len(), 1);
        assert_eq!(g.object_name(result[0].position.object(&g)), "bob");
        assert_eq!(result[0].interval, iv(1, 9));
        assert_eq!(result[0].bound.len(), 1);

        let time_filter = ObjFilter::from_pattern(
            Some(true),
            None,
            &[Constraint::Time(trpq::parser::CmpOp::Lt, 4)],
        );
        let clamped = apply_to_all_nodes(&g, &Segment { ops: vec![MicroOp::Filter(time_filter)] });
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
        let result = apply_to_all_nodes(&g, &segment);
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
        let result = apply_to_all_nodes(&g, &segment);
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
        assert!(apply_to_all_nodes(&g, &segment).is_empty());
    }
}
