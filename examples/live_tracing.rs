//! Live contact tracing: the Figure 1 story replayed as a stream of epoched
//! mutation batches against a `LiveGraph` with *maintained* queries.
//!
//! The batch engine answers "which high-risk people met someone who later
//! tested positive?" over a frozen graph; here the same graph arrives epoch by
//! epoch — people first, then meetings and room visits, and finally Eve's
//! positive test — and the registered queries are refreshed incrementally
//! instead of re-run.  The at-risk answer is empty until the positive test
//! lands, at which point the maintained table grows to the three bindings the
//! quickstart example computes in one shot.  Each ingested epoch prints the
//! rows it appended and retracted: a batch keeps every row whose state it
//! does not change.
//!
//! Run with `cargo run --release --example live_tracing`.

use tpath::live::{LiveGraph, LiveQueryId};
use tpath::tgraph::{Batch, Interval};

const AT_RISK: &str = "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-\
                       (y:Person {test = 'pos'}) ON live_tracing";
const EVERYONE: &str = "MATCH (x:Person) ON live_tracing";

fn main() {
    let iv = Interval::of;
    let mut graph = LiveGraph::new(iv(1, 11));

    // Register the queries up front; the engine maintains them from here on.
    let everyone = graph.register_text(EVERYONE).expect("query compiles");
    let at_risk = graph.register_text(AT_RISK).expect("query compiles");
    println!("registered 2 live queries over an empty graph\n{AT_RISK}\n");

    // Epoch 1: the people and rooms of Figure 1 check in, with their risk
    // profiles and lifespans.
    let mut people = Batch::new(1);
    for (name, label, (a, b)) in [
        ("n1", "Person", (1, 9)),
        ("n2", "Person", (1, 9)),
        ("n3", "Person", (1, 7)),
        ("n4", "Room", (3, 8)),
        ("n5", "Room", (3, 7)),
        ("n6", "Person", (2, 11)),
        ("n7", "Person", (1, 8)),
    ] {
        people.add_node(name, label).add_existence(name, iv(a, b));
    }
    people
        .set_property("n1", "risk", "low", iv(1, 9))
        .set_property("n2", "risk", "low", iv(1, 4))
        .set_property("n2", "risk", "high", iv(5, 9))
        .set_property("n3", "risk", "high", iv(1, 7))
        .set_property("n6", "risk", "low", iv(2, 11))
        .set_property("n7", "risk", "high", iv(1, 8));
    ingest(&mut graph, people, "people and rooms check in");
    report(&mut graph, everyone, "everyone");
    report(&mut graph, at_risk, "at-risk");

    // Epoch 2: the meetings and visits of the figure stream in.
    let mut contacts = Batch::new(2);
    for (name, label, src, tgt, (a, b)) in [
        ("e1", "meets", "n1", "n2", (3, 3)),
        ("e2", "meets", "n2", "n3", (1, 2)),
        ("e3", "visits", "n3", "n4", (6, 7)),
        ("e5", "cohabits", "n2", "n3", (3, 7)),
        ("e6", "visits", "n6", "n5", (5, 6)),
        ("e7", "visits", "n1", "n5", (5, 6)),
        ("e8", "visits", "n6", "n4", (7, 8)),
        ("e9", "visits", "n7", "n4", (6, 8)),
        ("e10", "meets", "n7", "n6", (5, 6)),
        ("e11", "meets", "n3", "n6", (4, 4)),
    ] {
        contacts.add_edge(name, label, src, tgt).add_existence(name, iv(a, b));
    }
    contacts.add_existence("e1", iv(5, 6));
    ingest(&mut graph, contacts, "meetings and room visits stream in");
    report(&mut graph, at_risk, "at-risk");

    // Epoch 3: Carl (n3) stays two more days, now at low risk.  His high-risk
    // row keeps its index; only the new state is appended, and nothing is
    // retracted.
    let mut stay = Batch::new(3);
    stay.add_existence("n3", iv(8, 9)).set_property("n3", "risk", "low", iv(8, 9));
    ingest(&mut graph, stay, "Carl stays on at low risk");
    report(&mut graph, at_risk, "at-risk");

    // Epoch 9: Eve's positive test arrives — the maintained answer grows.
    let mut test = Batch::new(9);
    test.set_property("n6", "test", "pos", iv(9, 9));
    ingest(&mut graph, test, "a positive test result arrives for Eve (n6)");
    report(&mut graph, at_risk, "at-risk");

    let answer = graph.table(at_risk);
    println!("\n{}", answer.display(|o| graph.relations().object_name(o).to_owned()));
    println!("{} bindings — the same three the batch quickstart computes.", answer.len());
    assert_eq!(answer.len(), 3, "the Figure 1 answer has three at-risk bindings");
}

/// Applies one batch and prints what the ingestion did.
fn ingest(graph: &mut LiveGraph, batch: Batch, what: &str) {
    let stats = graph.apply(&batch).expect("the Figure 1 batches are valid");
    println!(
        "epoch {}: {} — {} mutations, +{} node rows / +{} edge rows (-{} retracted)",
        batch.epoch,
        what,
        stats.mutations,
        stats.delta.node_rows_added,
        stats.delta.edge_rows_added,
        stats.delta.node_rows_retracted + stats.delta.edge_rows_retracted,
    );
}

/// Refreshes one maintained query and prints what changed.
fn report(graph: &mut LiveGraph, id: LiveQueryId, name: &str) {
    let stats = graph.refresh(id);
    println!(
        "    {name}: {} rows (+{} / -{}), {} seed rows re-run{} in {:?}",
        stats.output_rows,
        stats.rows_added,
        stats.rows_retracted,
        stats.seed_rows,
        if stats.fallback_full { " (full fallback)" } else { "" },
        stats.duration,
    );
}
