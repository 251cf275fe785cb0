//! Intermediate state of plan evaluation: partially-matched pattern instances.
//!
//! Steps 1–2 carry a match as a [`Cursor`]: a fixed-width `Copy` value holding only
//! what a hop or a filter reads and writes (row, accumulated interval, segment
//! index).  What a match has *recorded* — the objects it bound, the final interval
//! of every finished segment, the time skew of every closure boundary crossed — is
//! appended to the batch's [`Trail`], a parent-linked arena the cursor points into.
//! A hop is therefore a plain copy, a cursor a filter drops costs nothing, and the
//! cursors a step fans one match out to share their history.  Only a cursor that
//! survives every step is spelled out, once, as the owned [`Chain`] that Step 3 and
//! the answer shapes consume.
//!
//! What is the same for every match of a plan — which variable binds in which
//! segment, where each link's time skew comes from — is not recorded at all: it is
//! the plan's [`ChainLayout`](crate::plan::ChainLayout), worked out once when the
//! plan is built, and a chain is read through it.

use std::ops::Deref;

use tgraph::{Interval, Object, Time};

use crate::relations::GraphRelations;

/// Where the evaluation cursor currently sits: on a row of the Nodes relation or on a
/// row of the Edges relation.  The ordering (node rows before edge rows, then by row
/// index) is used by the closure fixpoint to keep its frontier canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Position {
    /// Index into [`GraphRelations::nodes`].
    NodeRow(u32),
    /// Index into [`GraphRelations::edges`].
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

    /// The times of `within` from which some time of `arrival` is reached with a
    /// skew the lag admits, if any: `[arrival.start − hi, arrival.end − lo]`
    /// clamped to `within`.  Exact, since the pre-image of an interval under a
    /// band of skews is an interval.
    pub fn departure_into(&self, arrival: Interval, within: Interval) -> Option<Interval> {
        let lo = (arrival.start() as i128).saturating_sub(self.hi).max(within.start() as i128);
        let hi = (arrival.end() as i128).saturating_sub(self.lo).min(within.end() as i128);
        (lo <= hi).then(|| Interval::of(lo as u64, hi as u64))
    }
}

/// A matched pattern instance, as Steps 1–2 leave it: only what varies from one
/// match of its plan to the next.  The plan's
/// [`ChainLayout`](crate::plan::ChainLayout) says what each entry is.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The node row this chain was seeded at (Step 1 seeds one chain per live node
    /// row).  Live query maintenance groups chains by the seed's node to reuse
    /// results of seeds a delta cannot have affected.
    pub seed: u32,
    /// The bound objects, in the plan's bind order
    /// ([`ChainLayout::binds`](crate::plan::ChainLayout::binds)).
    pub bound: Vec<Object>,
    /// The validity interval of each segment the chain covers, in segment order
    /// (the current one last): the intersection of the validity intervals of every
    /// row traversed and every filter applied in that segment.
    pub intervals: Intervals,
    /// The admissible time skew of every time-crossing closure boundary crossed,
    /// in crossing order.  Plain shift boundaries carry their constraint in the
    /// plan ([`crate::plan::LinkLag::Fixed`]) and contribute no entry here.
    pub lags: Vec<TimeLag>,
}

/// The interval of each segment a chain covers, read as one slice.  Most chains
/// cover one segment (every chain of a plan without temporal links), and theirs is
/// held inline: spelling such a chain out allocates only its bound objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Intervals {
    /// The interval of a chain's only segment.
    One(Interval),
    /// The intervals of two or more segments.
    Many(Vec<Interval>),
}

impl Deref for Intervals {
    type Target = [Interval];

    fn deref(&self) -> &[Interval] {
        match self {
            Intervals::One(interval) => std::slice::from_ref(interval),
            Intervals::Many(intervals) => intervals,
        }
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
    /// The validity interval of the current segment so far (the last of
    /// [`Chain::intervals`]).
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

    /// Records the object at the current position as the plan's next binding.
    pub fn bind(&mut self, graph: &GraphRelations, trail: &mut Trail) {
        let object = self.position.object(graph);
        self.trail = trail.record(self.trail, TrailEvent::Bind(object));
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
    /// The next variable was bound to this object ([`Chain::bound`]).
    Bind(Object),
    /// A segment finished over this interval ([`Chain::intervals`]).
    SegmentEnd(Interval),
    /// A time-crossing closure boundary was crossed with this skew ([`Chain::lags`]).
    Lag(TimeLag),
}

/// The recorded history of one batch of cursors: an append-only arena of
/// [`TrailEvent`]s, each linked to the event recorded before it by the same match.
/// Matches that fan out from a common prefix share its entries, and entries of
/// matches that died are simply never visited again; the whole arena is dropped with
/// its batch.  An event records only what varies between matches: a bind records
/// its object, since the plan fixes its slot and segment.
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
        let mut intervals = Vec::with_capacity(cursor.segment as usize);
        let (mut bound, mut lags) = (Vec::new(), Vec::new());
        let mut at = cursor.trail;
        while at != Self::ROOT {
            let (parent, event) = self.events[at as usize];
            match event {
                TrailEvent::Bind(object) => bound.push(object),
                TrailEvent::SegmentEnd(interval) => intervals.push(interval),
                TrailEvent::Lag(lag) => lags.push(lag),
            }
            at = parent;
        }
        bound.reverse();
        lags.reverse();
        let intervals = match cursor.segment {
            0 => Intervals::One(cursor.interval),
            _ => {
                intervals.reverse();
                intervals.push(cursor.interval);
                Intervals::Many(intervals)
            }
        };
        Chain { seed: cursor.seed, bound, intervals, lags }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::NodeId;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn node(id: u32) -> Object {
        Object::Node(NodeId(id))
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
        assert_eq!((bare.seed, &*bare.intervals), (7, &[iv(0, 9)][..]));
        assert!(bare.bound.is_empty() && bare.lags.is_empty());

        // Shared prefix: bind x, end segment 0.  Then two branches: a plain shift
        // arrival that binds y, and a closure crossing that ends a second segment,
        // records a lag, crosses again and binds z.
        let x = trail.record(root.trail, TrailEvent::Bind(node(0)));
        let ended = trail.record(x, TrailEvent::SegmentEnd(iv(1, 3)));
        let left = Cursor {
            trail: trail.record(ended, TrailEvent::Bind(node(1))),
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
        at = trail.record(at, TrailEvent::Bind(node(2)));
        let right = Cursor { trail: at, segment: 2, interval: iv(6, 8), ..root };
        assert_eq!(trail.len(), 7);

        assert_eq!(
            trail.materialize(&left),
            Chain {
                seed: 7,
                bound: vec![node(0), node(1)],
                intervals: Intervals::Many(vec![iv(1, 3), iv(4, 5)]),
                lags: vec![],
            }
        );
        assert_eq!(
            trail.materialize(&right),
            Chain {
                seed: 7,
                bound: vec![node(0), node(2)],
                intervals: Intervals::Many(vec![iv(1, 3), iv(2, 2), iv(6, 8)]),
                lags: vec![first, second],
            }
        );
        // Materialising reads the trail; the other leaf is still intact.
        assert_eq!(trail.materialize(&left).bound, vec![node(0), node(1)]);
    }
}
