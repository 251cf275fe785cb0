//! Intermediate state of plan evaluation: partially-matched pattern instances.
//!
//! Steps 1–2 carry a match as a [`Cursor`]: a fixed-width `Copy` value holding only
//! what a hop or a filter reads and writes (row, accumulated interval, segment
//! index).  What a match has *recorded* — variable bindings, the final interval of
//! every finished segment, the time skew of every closure boundary crossed — is
//! appended to the batch's [`Trail`], a parent-linked arena the cursor points into.
//! A hop is therefore a plain copy, a cursor a filter drops costs nothing, and the
//! cursors a step fans one match out to share their history.  Only a cursor that
//! survives every step is spelled out, once, as the owned [`Chain`] that Step 3 and
//! the answer shapes consume.

use tgraph::{Interval, Object, Time};

use crate::relations::GraphRelations;

/// Where the evaluation cursor currently sits: on a row of the Nodes relation or on a
/// row of the Edges relation.  The ordering (node rows before edge rows, then by row
/// index) is used by the closure fixpoint to keep its frontier canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Position {
    /// Index into [`GraphRelations::node_rows`].
    NodeRow(u32),
    /// Index into [`GraphRelations::edge_rows`].
    EdgeRow(u32),
}

impl Position {
    /// The position of `row` in the node relation if `on_nodes`, else in the
    /// edge relation.
    pub(crate) fn on(on_nodes: bool, row: u32) -> Position {
        if on_nodes {
            Position::NodeRow(row)
        } else {
            Position::EdgeRow(row)
        }
    }

    /// The object the position refers to.
    pub fn object(self, graph: &GraphRelations) -> Object {
        graph.row(self).object
    }

    /// The index of the row in its relation.
    pub fn row(self) -> u32 {
        match self {
            Position::NodeRow(r) | Position::EdgeRow(r) => r,
        }
    }

    /// The validity interval of the underlying row.
    pub fn row_interval(self, graph: &GraphRelations) -> Interval {
        graph.row(self).interval
    }
}

/// The admissible time skew across a time-crossing closure boundary: arrival minus
/// departure lies in `[lo, hi]` (signed — backward navigation yields negative lags).
///
/// Together with the departure and arrival intervals of the two segments it delimits,
/// a lag describes *exactly* the set of `(departure, arrival)` pairs the closure
/// relates for one chain: three interval constraints on a line always admit a common
/// witness when they pairwise intersect (Helly's theorem in dimension one), so
/// composing the per-step constraints loses no precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimeLag {
    /// Minimum signed arrival − departure difference.
    pub lo: i128,
    /// Maximum signed arrival − departure difference.
    pub hi: i128,
}

impl TimeLag {
    /// The zero lag: arrival equals departure.
    pub fn zero() -> Self {
        TimeLag { lo: 0, hi: 0 }
    }

    /// True if moving from departure time `from` to arrival time `to` respects the
    /// lag bounds.
    pub fn admits(&self, from: Time, to: Time) -> bool {
        let delta = to as i128 - from as i128;
        self.lo <= delta && delta <= self.hi
    }
}

/// One binding recorded while matching: `(variable slot, segment index, object)`.
/// The binding time is the time point eventually chosen for that segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundVar {
    /// Variable slot (index into [`crate::plan::PlanSet::variables`]).
    pub slot: u32,
    /// The segment during which the variable was bound.
    pub segment: u32,
    /// The bound node or edge.
    pub object: Object,
}

/// A partially (or fully) matched pattern instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The node row this chain was seeded at (Step 1 seeds one chain per live node
    /// row).  Live query maintenance groups chains by the seed's node to reuse
    /// results of seeds a delta cannot have affected.
    pub seed: u32,
    /// Final validity intervals of the segments completed so far, in order.
    pub seg_intervals: Vec<Interval>,
    /// The admissible time skew of every time-crossing closure boundary crossed so
    /// far, in crossing order.  Plain shift boundaries carry their constraint in the
    /// plan ([`crate::plan::TemporalLink::Shift`]) and contribute no entry here.
    pub lags: Vec<TimeLag>,
    /// Variables bound so far.
    pub bound: Vec<BoundVar>,
    /// The cursor position within the current segment.
    pub position: Position,
    /// The validity interval of the current segment so far: the intersection of the
    /// validity intervals of every row traversed and every filter applied since the
    /// segment started.
    pub interval: Interval,
}

impl Chain {
    /// All segment intervals including the (finished) current one.
    pub fn all_segment_intervals(&self) -> Vec<Interval> {
        let mut out = self.seg_intervals.clone();
        out.push(self.interval);
        out
    }
}

/// The in-flight state of one match during Steps 1–2: everything a hop or a filter
/// touches, and a link into the batch's [`Trail`] for everything else.
///
/// `Copy` and at most 40 bytes (pinned below), so moving a match to an adjacent row
/// is a plain copy with no heap traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cursor {
    /// The node row this match was seeded at ([`Chain::seed`]).
    pub seed: u32,
    /// The latest [`Trail`] entry of this match, [`Trail::ROOT`] if it has recorded
    /// nothing yet.
    pub trail: u32,
    /// Index of the segment currently being matched.
    pub segment: u32,
    /// The cursor position within the current segment.
    pub position: Position,
    /// The validity interval of the current segment so far ([`Chain::interval`]).
    pub interval: Interval,
}

const _: () = assert!(std::mem::size_of::<Cursor>() <= 40);

impl Cursor {
    /// A fresh cursor starting the first segment at the given node row.
    pub fn seed(row_index: u32, graph: &GraphRelations) -> Self {
        let position = Position::NodeRow(row_index);
        Cursor {
            seed: row_index,
            trail: Trail::ROOT,
            segment: 0,
            position,
            interval: position.row_interval(graph),
        }
    }

    /// Records a variable binding at the current position.
    pub fn bind(&mut self, slot: u32, graph: &GraphRelations, trail: &mut Trail) {
        let var = BoundVar { slot, segment: self.segment, object: self.position.object(graph) };
        self.trail = trail.record(self.trail, TrailEvent::Bind(var));
    }

    /// The cursor starting the next segment at `position`, its history continuing
    /// from the trail entry `trail`: the [`TrailEvent::SegmentEnd`] recorded after
    /// this cursor's latest entry (or a [`TrailEvent::Lag`] on top of it) — one
    /// entry, however many rows the next segment starts on.
    pub fn next_segment(&self, trail: u32, position: Position, interval: Interval) -> Self {
        Cursor { seed: self.seed, trail, segment: self.segment + 1, position, interval }
    }
}

/// One thing a match recorded on its way through Steps 1–2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrailEvent {
    /// A variable was bound ([`Chain::bound`]).
    Bind(BoundVar),
    /// A segment finished over this interval ([`Chain::seg_intervals`]).
    SegmentEnd(Interval),
    /// A time-crossing closure boundary was crossed with this skew ([`Chain::lags`]).
    Lag(TimeLag),
}

/// The recorded history of one batch of cursors: an append-only arena of
/// [`TrailEvent`]s, each linked to the event recorded before it by the same match.
/// Matches that fan out from a common prefix share its entries, and entries of
/// matches that died are simply never visited again; the whole arena is dropped with
/// its batch.
#[derive(Debug, Default)]
pub struct Trail {
    events: Vec<(u32, TrailEvent)>,
}

impl Trail {
    /// The parent of a match's first event: no entry.
    pub const ROOT: u32 = u32::MAX;

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event after `parent` and returns its index.
    pub fn record(&mut self, parent: u32, event: TrailEvent) -> u32 {
        assert!(self.events.len() < Self::ROOT as usize, "a trail indexes its events with a u32");
        self.events.push((parent, event));
        (self.events.len() - 1) as u32
    }

    /// Spells a cursor out as the owned [`Chain`] it stands for: one walk up the
    /// parent links, every component in recording order.
    pub fn materialize(&self, cursor: &Cursor) -> Chain {
        let mut seg_intervals = Vec::with_capacity(cursor.segment as usize);
        let mut lags = Vec::new();
        let mut bound = Vec::new();
        let mut at = cursor.trail;
        while at != Self::ROOT {
            let (parent, event) = self.events[at as usize];
            match event {
                TrailEvent::Bind(var) => bound.push(var),
                TrailEvent::SegmentEnd(interval) => seg_intervals.push(interval),
                TrailEvent::Lag(lag) => lags.push(lag),
            }
            at = parent;
        }
        seg_intervals.reverse();
        lags.reverse();
        bound.reverse();
        Chain {
            seed: cursor.seed,
            seg_intervals,
            lags,
            bound,
            position: cursor.position,
            interval: cursor.interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::NodeId;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn var(slot: u32, segment: u32) -> BoundVar {
        BoundVar { slot, segment, object: Object::Node(NodeId(slot)) }
    }

    #[test]
    fn a_branching_trail_spells_out_every_leaf_in_recording_order() {
        let mut trail = Trail::default();
        let root = Cursor {
            seed: 7,
            trail: Trail::ROOT,
            segment: 0,
            position: Position::NodeRow(7),
            interval: iv(0, 9),
        };
        // A cursor that recorded nothing is a chain with empty history.
        let bare = trail.materialize(&root);
        assert_eq!((bare.seed, bare.position, bare.interval), (7, root.position, iv(0, 9)));
        assert!(bare.bound.is_empty() && bare.seg_intervals.is_empty() && bare.lags.is_empty());

        // Shared prefix: bind x, end segment 0.  Then two branches: a plain shift
        // arrival that binds y, and a closure crossing that ends a second segment,
        // records a lag, crosses again and binds z.
        let x = trail.record(root.trail, TrailEvent::Bind(var(0, 0)));
        let ended = trail.record(x, TrailEvent::SegmentEnd(iv(1, 3)));
        let left = Cursor {
            trail: trail.record(ended, TrailEvent::Bind(var(1, 1))),
            segment: 1,
            position: Position::EdgeRow(2),
            interval: iv(4, 5),
            ..root
        };
        let first = TimeLag { lo: 1, hi: 2 };
        let second = TimeLag { lo: -3, hi: 0 };
        let mut at = trail.record(ended, TrailEvent::Lag(first));
        at = trail.record(at, TrailEvent::SegmentEnd(iv(2, 2)));
        at = trail.record(at, TrailEvent::Lag(second));
        at = trail.record(at, TrailEvent::Bind(var(2, 2)));
        let right = Cursor { trail: at, segment: 2, interval: iv(6, 8), ..root };
        assert_eq!(trail.len(), 7);

        assert_eq!(
            trail.materialize(&left),
            Chain {
                seed: 7,
                seg_intervals: vec![iv(1, 3)],
                lags: vec![],
                bound: vec![var(0, 0), var(1, 1)],
                position: Position::EdgeRow(2),
                interval: iv(4, 5),
            }
        );
        assert_eq!(
            trail.materialize(&right),
            Chain {
                seed: 7,
                seg_intervals: vec![iv(1, 3), iv(2, 2)],
                lags: vec![first, second],
                bound: vec![var(0, 0), var(2, 2)],
                position: Position::NodeRow(7),
                interval: iv(6, 8),
            }
        );
        // Materialising reads the trail; the other leaf is still intact.
        assert_eq!(trail.materialize(&left).bound, vec![var(0, 0), var(1, 1)]);
    }
}
