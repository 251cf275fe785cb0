//! Deterministic epoch-lifecycle tests for the MVCC layer: pin → apply batch →
//! read the stale snapshot → unpin → retire, proving that
//!
//! * a pinned epoch is never reclaimed, no matter how many batches the writer
//!   publishes over it, and
//! * a reader can never observe a half-applied batch — every pinned snapshot is
//!   canonically identical to a bulk `from_itpg` build of the graph at that
//!   epoch, even while the writer is mid-stream on other threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use engine::{ExecutionOptions, GraphRelations};
use live::serve::ServeGraph;
use live::EpochStats;
use tgraph::{Batch, Interval, Itpg};
use workload::{stream_contact_batches, ContactTracingConfig};

fn iv(a: u64, b: u64) -> Interval {
    Interval::of(a, b)
}

/// A three-epoch story: people arrive, then meet, then a test comes back
/// positive.
fn story() -> Vec<Batch> {
    let mut b1 = Batch::new(1);
    b1.add_node("mia", "Person")
        .add_node("eve", "Person")
        .add_existence("mia", iv(1, 10))
        .add_existence("eve", iv(1, 10))
        .set_property("mia", "risk", "high", iv(1, 10));
    let mut b2 = Batch::new(2);
    b2.add_edge("meets1", "meets", "mia", "eve").add_existence("meets1", iv(2, 3));
    let mut b3 = Batch::new(8);
    b3.set_property("eve", "test", "pos", iv(8, 10));
    vec![b1, b2, b3]
}

/// The canonical relations of the graph obtained by replaying a batch prefix
/// over the given initial domain — the from-scratch reference a pinned
/// snapshot must match.
fn reference_at(domain: Interval, batches: &[Batch]) -> engine::CanonicalRelations {
    let mut itpg = Itpg::empty(domain);
    for batch in batches {
        itpg.apply_batch(batch).expect("test batches are valid");
    }
    GraphRelations::from_itpg(&itpg).canonical_snapshot()
}

#[test]
fn pin_apply_read_unpin_retire() {
    let graph = ServeGraph::new(iv(1, 10));
    let batches = story();
    graph.ingest(&batches[0]).unwrap();

    // Pin the epoch of batch 1, then let the writer move two epochs ahead.
    let pin = graph.pin();
    let pinned_version = pin.version();
    assert_eq!(pin.epoch(), Some(1));
    graph.ingest(&batches[1]).unwrap();
    graph.ingest(&batches[2]).unwrap();

    // The pinned epoch is retained and still reads the state of batch 1 —
    // no trace of the meeting or the positive test.
    assert!(graph.epochs().is_retained(pinned_version));
    assert_eq!(pin.relations().canonical_snapshot(), reference_at(iv(1, 10), &batches[..1]));
    assert_eq!(graph.pin().relations().canonical_snapshot(), reference_at(iv(1, 10), &batches));

    // Unpinning retires the stale epoch; the current one stays.
    let before = graph.stats();
    assert_eq!(before.pinned_readers, 1);
    drop(pin);
    assert!(!graph.epochs().is_retained(pinned_version), "unpin retires the stale epoch");
    let after = graph.stats();
    assert_eq!(after.retired, before.retired + 1);
    assert_eq!(after.pinned_readers, 0);
    assert_eq!(after.retained, 1, "only the current epoch remains");
}

#[test]
fn every_epoch_of_a_stream_is_individually_pinnable() {
    let graph = ServeGraph::new(iv(1, 10));
    let batches = story();
    let mut pins = Vec::new();
    for batch in &batches {
        graph.ingest(batch).unwrap();
        pins.push(graph.pin());
    }
    // All three epochs are alive at once, each reading its own prefix.
    for (index, pin) in pins.iter().enumerate() {
        assert_eq!(pin.epoch(), Some(batches[index].epoch));
        assert_eq!(
            pin.relations().canonical_snapshot(),
            reference_at(iv(1, 10), &batches[..=index])
        );
    }
    let stats = graph.stats();
    assert_eq!(stats.pinned_readers, 3);
    assert_eq!(stats.retained, 3, "two stale pinned epochs plus the current one");

    // Dropping the pins oldest-first retires exactly the stale ones.
    let versions: Vec<u64> = pins.iter().map(|p| p.version()).collect();
    for (index, pin) in pins.into_iter().enumerate() {
        drop(pin);
        let stale = index + 1 < versions.len();
        assert_eq!(
            graph.epochs().is_retained(versions[index]),
            !stale,
            "epoch {index} should be retained iff it is current"
        );
    }
    assert_eq!(
        graph.stats(),
        EpochStats { published: 4, retained: 1, retired: 3, pinned_readers: 0 }
    );
}

#[test]
fn registration_publishes_an_epoch_with_the_new_table() {
    let graph = ServeGraph::new(iv(1, 10));
    let before = graph.pin();
    assert_eq!(before.num_queries(), 0);
    let id = graph.register_text("MATCH (x:Person {risk = 'high'}) ON live").unwrap();
    let after = graph.pin();
    assert_eq!(after.num_queries(), 1);
    assert!(before.table(id).is_none(), "the old epoch does not know the new query");
    assert!(after.table(id).unwrap().is_empty());

    // A refresh swaps the table handle; the pinned epoch keeps the old one.
    graph.ingest(&story()[0]).unwrap();
    let refreshed = graph.pin();
    assert_eq!(refreshed.table(id).unwrap().len(), 1, "mia is high-risk");
    assert!(after.table(id).unwrap().is_empty(), "the pinned epoch's answer is immutable");
}

/// The concurrency half: reader threads pin snapshots at arbitrary points while
/// the writer streams the contact-tracing workload, and every pinned snapshot
/// must be canonically identical to a from-scratch build of the graph at that
/// epoch — i.e. a reader can never observe a half-applied batch.
#[test]
fn concurrent_readers_never_observe_half_applied_batches() {
    let config = ContactTracingConfig::with_persons(24)
        .with_seed(17)
        .with_time_points(10)
        .with_positivity_rate(0.25);
    let batches = stream_contact_batches(&config);
    assert!(batches.len() >= 4, "the stream spans several epochs");

    // From-scratch reference per epoch, computed before any concurrency.
    let mut references: BTreeMap<Option<u64>, engine::CanonicalRelations> = BTreeMap::new();
    references.insert(None, reference_at(iv(0, 1), &[]));
    for end in 1..=batches.len() {
        references.insert(Some(batches[end - 1].epoch), reference_at(iv(0, 1), &batches[..end]));
    }

    let graph =
        Arc::new(ServeGraph::with_options(Itpg::empty(iv(0, 1)), ExecutionOptions::default()));
    let done = AtomicBool::new(false);
    let verified = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut local = 0usize;
                // Keep pinning until the writer finishes, then once more so the
                // final epoch is checked even if the readers started late.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let pin = graph.pin();
                    let reference = references
                        .get(&pin.epoch())
                        .expect("every pinned epoch corresponds to a batch prefix");
                    assert_eq!(
                        &pin.relations().canonical_snapshot(),
                        reference,
                        "snapshot at epoch {:?} diverged from the from-scratch build",
                        pin.epoch()
                    );
                    local += 1;
                    if finished {
                        break;
                    }
                }
                verified.fetch_add(local, Ordering::Relaxed);
            });
        }
        for batch in &batches {
            graph.ingest(batch).unwrap();
        }
        done.store(true, Ordering::Release);
    });

    assert!(verified.load(Ordering::Relaxed) >= 3, "every reader verified at least one snapshot");
    // The writer was never starved: every batch landed.
    assert_eq!(graph.batches_applied(), batches.len());
    let stats = graph.stats();
    assert_eq!(stats.published as usize, batches.len() + 1);
    assert_eq!(stats.pinned_readers, 0, "all reader pins were released");
    assert_eq!(stats.retained, 1, "only the current epoch outlives the readers");
    assert_eq!(stats.retired as usize, batches.len(), "every stale epoch retired");
}
