//! Step 2 of query evaluation (Section VI): interval-based reasoning for temporal
//! navigation.
//!
//! A [`Shift`] moves the cursor in time on the object the previous
//! segment ended on.  In the practical language every traversed temporal object must
//! exist, so the move is confined to the maximal existence interval containing the
//! departure times; the arrival window is computed with interval arithmetic and
//! intersected with the object's rows, which both starts the next segment and prunes
//! matches that can never satisfy the temporal constraint (the pruning the paper
//! describes for Q7).
//!
//! A shift ends a segment, which is something a match *records*: the departure
//! interval goes to the batch's [`Trail`] once per shifted cursor, and the cursors
//! that start the next segment — one per row of the object the arrival window
//! meets — all continue from that one entry.
//!
//! Those rows are *chosen* here, so this is also where the next segment's entry mask
//! ([`crate::steps::viability`]) is consulted: a row of the object from which no match
//! can reach the end of the plan is skipped before its interval is intersected, and a
//! cursor whose object has no viable row records nothing, like one that lands nowhere.

use crate::chain::{Cursor, Trail, TrailEvent};
use crate::plan::Shift;
use crate::relations::GraphRelations;
use crate::steps::viability::RowMask;

/// Applies a temporal shift to every cursor, finishing their current segment and
/// seeding the next one on the same object at the shifted times — on the rows of
/// `landing` only, when the next segment comes with an entry mask.
pub fn apply_shift(
    graph: &GraphRelations,
    cursors: Vec<Cursor>,
    shift: &Shift,
    landing: Option<&RowMask>,
    trail: &mut Trail,
) -> Vec<Cursor> {
    let viable = |row: u32| landing.is_none_or(|mask| mask.contains(row));
    let mut out = Vec::with_capacity(cursors.len());
    for cursor in &cursors {
        let object = cursor.position.object(graph);
        // The departure interval lies inside a single maximal existence interval of
        // the object (rows never span existence gaps), and the practical language
        // requires every intermediate time point to exist, so arrivals stay inside it.
        let Some(within) = graph.existence_interval_at(object, cursor.interval.start()) else {
            continue;
        };
        let Some(arrival) = shift.arrival_from_interval(cursor.interval, within) else {
            continue;
        };
        // Recorded by the first row the cursor lands on, shared by the rest.
        let mut ended = None;
        graph.visit_rows_of(object, |position, row| {
            if !viable(position.row()) {
                return;
            }
            if let Some(interval) = arrival.intersect(&row.interval) {
                let entry = *ended.get_or_insert_with(|| {
                    trail.record(cursor.trail, TrailEvent::SegmentEnd(cursor.interval))
                });
                out.push(cursor.next_segment(entry, position, interval));
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use tgraph::{Interval, ItpgBuilder};

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// Eve exists on [2,8] and again on [10,11], testing positive on [7,8].
    fn graph() -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let eve = b.add_node("eve", "Person").unwrap();
        b.add_existence(eve, iv(2, 8)).unwrap();
        b.add_existence(eve, iv(10, 11)).unwrap();
        b.set_property(eve, "test", "pos", iv(7, 8)).unwrap();
        GraphRelations::from_itpg(&b.domain(iv(0, 12)).build().unwrap())
    }

    /// Shifts the seed cursor of one node row: the arrivals, each with the chain it
    /// spells out.
    fn shift_from(graph: &GraphRelations, row: usize, shift: &Shift) -> Vec<(Cursor, Chain)> {
        let mut trail = Trail::default();
        let shifted =
            apply_shift(graph, vec![Cursor::seed(row as u32, graph)], shift, None, &mut trail);
        shifted.iter().map(|c| (*c, trail.materialize(c))).collect()
    }

    #[test]
    fn backward_shift_stays_within_the_existence_interval() {
        let g = graph();
        // Row 1 is eve's [7,8] "pos" state (row 0 is [2,6], row 2 is [10,11]).
        let pos_row = g
            .node_rows()
            .iter()
            .position(|r| r.prop("test").is_some())
            .expect("positive-test row exists");
        assert_eq!(Cursor::seed(pos_row as u32, &g).interval, iv(7, 8));
        // PREV*: arrival anywhere earlier within the existence interval [2,8].
        let shifted = shift_from(&g, pos_row, &Shift { forward: false, min: 0, max: None });
        let intervals: Vec<Interval> = shifted.iter().map(|(c, _)| c.interval).collect();
        assert_eq!(intervals.len(), 2); // lands on the [2,6] row and the [7,8] row
        assert!(intervals.contains(&iv(2, 6)));
        assert!(intervals.contains(&iv(7, 8)));
        assert!(shifted.iter().all(|(c, chain)| *chain.intervals == [iv(7, 8), c.interval]));

        // PREV[0,1]: at most one step back.
        let shifted = shift_from(&g, pos_row, &Shift { forward: false, min: 0, max: Some(1) });
        let intervals: Vec<Interval> = shifted.iter().map(|(c, _)| c.interval).collect();
        assert!(intervals.contains(&iv(6, 6)));
        assert!(intervals.contains(&iv(7, 8)));
    }

    #[test]
    fn forward_shift_cannot_jump_over_an_existence_gap() {
        let g = graph();
        // NEXT* from the [2,6] state: can reach up to time 8, but never the [10,11]
        // state across the gap.
        let shifted = shift_from(&g, 0, &Shift { forward: true, min: 0, max: None });
        assert!(shifted.iter().all(|(c, _)| c.interval.end() <= 8));
        assert_eq!(shifted.len(), 2);
    }

    #[test]
    fn minimum_step_counts_prune_departures() {
        let g = graph();
        // NEXT[5,_] from [2,6]: only departures early enough can move 5 steps while
        // existing.
        let shifted = shift_from(&g, 0, &Shift { forward: true, min: 5, max: None });
        // Arrival window is [7, 8]: reachable only from departure times 2 or 3.
        assert_eq!(shifted.len(), 1);
        assert_eq!(shifted[0].0.interval, iv(7, 8));
        // A shift larger than the existence interval yields nothing.
        assert!(shift_from(&g, 0, &Shift { forward: true, min: 12, max: Some(20) }).is_empty());
    }

    #[test]
    fn a_shift_records_one_segment_end_however_many_rows_it_lands_on() {
        let g = graph();
        let mut trail = Trail::default();
        let star = Shift { forward: true, min: 0, max: None };
        let landed = apply_shift(&g, vec![Cursor::seed(0, &g)], &star, None, &mut trail);
        assert_eq!(landed.len(), 2);
        assert_eq!(trail.len(), 1, "two arrivals share one segment-end entry");
        assert!(landed.iter().all(|c| c.trail == 0 && c.segment == 1 && c.seed == 0));
        // A cursor that lands nowhere records nothing.
        let nowhere = Shift { forward: true, min: 12, max: Some(20) };
        assert!(apply_shift(&g, vec![Cursor::seed(0, &g)], &nowhere, None, &mut trail).is_empty());
        assert_eq!(trail.len(), 1);
    }
}
