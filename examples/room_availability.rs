//! Navigating through *non-existing* temporal objects: the room-availability example
//! of Section V.A.
//!
//! The formal language does not force traversed objects to exist, which makes queries
//! such as "from a time at which the room is unavailable, find the next time it
//! becomes available" expressible:
//!
//! ```text
//! (Room ∧ ¬∃) / (N / ¬∃)[0, _] / N / (Room ∧ ∃)
//! ```
//!
//! This example runs the reference evaluator of Theorem C.1 over a graph of
//! lecture-room bookings, read point by point.
//!
//! Run with `cargo run --release --example room_availability`.

use tpath::tgraph::{Interval, ItpgBuilder, Object, TemporalObject};
use tpath::trpq::ast::{Axis, Path, TestExpr};
use tpath::trpq::eval::tpg::eval_path;

fn main() {
    // Three rooms with different booking patterns over a 12-slot day: a room "exists"
    // when it is available (not booked).
    let mut b = ItpgBuilder::new().domain(Interval::of(0, 11));
    let lecture_hall = b.add_node("lecture_hall", "Room").unwrap();
    b.add_existence(lecture_hall, Interval::of(0, 2)).unwrap();
    b.add_existence(lecture_hall, Interval::of(8, 11)).unwrap();
    let seminar_room = b.add_node("seminar_room", "Room").unwrap();
    b.add_existence(seminar_room, Interval::of(0, 4)).unwrap();
    b.add_existence(seminar_room, Interval::of(6, 6)).unwrap();
    b.add_existence(seminar_room, Interval::of(9, 11)).unwrap();
    let lab = b.add_node("lab", "Room").unwrap();
    b.add_existence(lab, Interval::of(5, 11)).unwrap();
    let graph = b.build().unwrap();

    // From an unavailable slot, skip forward over unavailable slots until the room
    // becomes available again.
    let next_available = Path::test(TestExpr::label("Room").and(TestExpr::Exists.not()))
        .then(Path::axis(Axis::Next).then(Path::test(TestExpr::Exists.not())).star())
        .then(Path::axis(Axis::Next))
        .then(Path::test(TestExpr::label("Room").and(TestExpr::Exists)));
    let relation = eval_path(&next_available, &graph);

    println!("next availability per (room, blocked slot):");
    for room in [lecture_hall, seminar_room, lab] {
        let object = Object::Node(room);
        for t in graph.domain().points() {
            if graph.exists_at(object, t) {
                continue;
            }
            let next = relation
                .iter()
                .filter(|q| q.src == TemporalObject::new(object, t))
                .map(|q| q.dst.time)
                .min();
            match next {
                Some(next) => println!(
                    "  {:<14} blocked at {:>2} → free again at {next}",
                    graph.name(object),
                    t
                ),
                None => println!(
                    "  {:<14} blocked at {:>2} → not available again today",
                    graph.name(object),
                    t
                ),
            }
        }
    }

    // The dual query: how long does an availability streak last?  From an available
    // slot, walk forward while the room stays available.
    let still_available = Path::test(TestExpr::label("Room").and(TestExpr::Exists))
        .then(Path::axis(Axis::Next).then(Path::test(TestExpr::Exists)).star());
    let streaks = eval_path(&still_available, &graph);
    println!("\nlongest availability streak starting at slot 0:");
    for room in [lecture_hall, seminar_room, lab] {
        let object = Object::Node(room);
        let reach = streaks
            .iter()
            .filter(|q| q.src == TemporalObject::new(object, 0))
            .map(|q| q.dst.time)
            .max();
        match reach {
            Some(until) => {
                println!("  {:<14} available from 0 through {until}", graph.name(object))
            }
            None => println!("  {:<14} not available at slot 0", graph.name(object)),
        }
    }
}
