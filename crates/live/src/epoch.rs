//! Epoch-based MVCC over the live graph: immutable snapshots, pinned by
//! readers, retired only once unpinned.
//!
//! Every publish (a batch ingested, a query registered) creates a new
//! [`EpochSnapshot`]: a copy-on-write view of the engine relations
//! ([`engine::GraphRelations::snapshot`] — column-level sharing, so a snapshot
//! is a handful of reference-count bumps) plus shared handles to the maintained
//! answer table of every registered query.  Readers [`EpochManager::pin`] the
//! current snapshot and run against it without ever taking the writer's lock;
//! the [`PinnedEpoch`] guard keeps the snapshot retained until dropped.
//!
//! Retirement is *pin-aware*: when a new epoch is published, every older epoch
//! with no pinned readers is retired immediately, and a pinned epoch is kept
//! until its last reader unpins (at which point it retires right away if it is
//! no longer current).  A pinned snapshot is therefore never reclaimed, and a
//! reader can never observe a half-applied batch — it only ever sees fully
//! published epochs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use engine::bindings::BindingTable;
use engine::GraphRelations;

use crate::query::LiveQueryId;

/// One immutable published state of the live graph: the engine relations at
/// that epoch plus the maintained answer of every registered query.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// The batch epoch this snapshot reflects (`None` before any batch).
    epoch: Option<u64>,
    /// The publish sequence number — unlike batch epochs this also advances on
    /// query registration, so it totally orders every published state.
    version: u64,
    relations: GraphRelations,
    tables: Vec<Arc<BindingTable>>,
}

impl EpochSnapshot {
    /// The epoch of the last batch folded into this snapshot, if any.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// The publish sequence number of this snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable relation view — what ad-hoc queries execute against.
    pub fn relations(&self) -> &GraphRelations {
        &self.relations
    }

    /// The maintained answer of a registered query as of this epoch, if the
    /// query was registered when the snapshot was published.
    pub fn table(&self, id: LiveQueryId) -> Option<&Arc<BindingTable>> {
        self.tables.get(id.0)
    }

    /// The number of registered queries this snapshot carries answers for.
    pub fn num_queries(&self) -> usize {
        self.tables.len()
    }
}

/// Bookkeeping counters of an [`EpochManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// Snapshots published so far (including the initial one).
    pub published: u64,
    /// Snapshots currently retained (the current one plus every pinned one).
    pub retained: usize,
    /// Snapshots retired (freed after their last reader unpinned, or
    /// immediately on publish when unpinned).
    pub retired: u64,
    /// Total pins currently held by readers, across all retained epochs.
    pub pinned_readers: usize,
}

#[derive(Debug)]
struct RetainedEpoch {
    snapshot: Arc<EpochSnapshot>,
    pins: usize,
}

#[derive(Debug)]
struct ManagerInner {
    /// Every retained epoch by version; always contains `current`.
    retained: BTreeMap<u64, RetainedEpoch>,
    /// Version of the currently served epoch.
    current: u64,
    published: u64,
    retired: u64,
}

/// The epoch registry: publishes snapshots, hands out pins, retires epochs
/// once their last reader is gone.
///
/// All bookkeeping hides behind one short-lived mutex, held only for the
/// O(log epochs) bookkeeping itself: never during query execution, and never
/// while a retired epoch is freed.  A publish drops the epochs it retires
/// after releasing the guard, and an unpin retires an epoch while the reader's
/// guard still holds it, so the guard frees it last.
#[derive(Debug)]
pub struct EpochManager {
    inner: Mutex<ManagerInner>,
    /// Pre-resolved metric handles when telemetry is on.  Recording through
    /// them is lock-free, so the protocol methods update the epoch gauges
    /// while still holding the bookkeeping mutex — the counters can never
    /// disagree with the state transition they describe.  Gauges move by
    /// deltas, so several managers in one process aggregate.
    metrics: Option<&'static crate::telemetry::EpochMetrics>,
}

impl EpochManager {
    /// A manager whose initial epoch is the given state (version 0).
    pub(crate) fn new(
        epoch: Option<u64>,
        relations: GraphRelations,
        tables: Vec<Arc<BindingTable>>,
        telemetry: bool,
    ) -> Arc<Self> {
        let snapshot = Arc::new(EpochSnapshot { epoch, version: 0, relations, tables });
        let mut retained = BTreeMap::new();
        retained.insert(0, RetainedEpoch { snapshot, pins: 0 });
        let metrics = telemetry.then(crate::telemetry::epoch_metrics);
        if let Some(metrics) = metrics {
            metrics.published.inc();
            metrics.retained.add(1);
        }
        Arc::new(EpochManager {
            inner: Mutex::new(ManagerInner { retained, current: 0, published: 1, retired: 0 }),
            metrics,
        })
    }

    /// Publishes the next epoch and retires every older epoch with no pinned
    /// readers.  Returns the new version.
    pub(crate) fn publish(
        self: &Arc<Self>,
        epoch: Option<u64>,
        relations: GraphRelations,
        tables: Vec<Arc<BindingTable>>,
    ) -> u64 {
        crate::sched::yield_point("epoch:publish");
        let mut inner = self.lock();
        let version = inner.current + 1;
        let snapshot = Arc::new(EpochSnapshot { epoch, version, relations, tables });
        inner.retained.insert(version, RetainedEpoch { snapshot, pins: 0 });
        inner.current = version;
        inner.published += 1;
        let stale: Vec<u64> = inner
            .retained
            .iter()
            .filter(|(&v, e)| v != version && e.pins == 0)
            .map(|(&v, _)| v)
            .collect();
        let retired = stale.len();
        // Taken out under the lock, freed outside it: when the manager holds
        // the last reference, dropping an epoch frees its relations and
        // tables, and a concurrent `pin` must not wait for that.
        let mut freed = Vec::with_capacity(retired);
        for v in stale {
            freed.extend(inner.retained.remove(&v));
            inner.retired += 1;
        }
        if let Some(metrics) = self.metrics {
            metrics.published.inc();
            metrics.retired.add(retired as u64);
            metrics.retained.add(1 - retired as i64);
        }
        drop(inner);
        drop(freed);
        version
    }

    /// Pins the current epoch: the returned guard keeps its snapshot retained
    /// (and its memory alive) until dropped, no matter how many epochs the
    /// writer publishes in the meantime.
    pub fn pin(self: &Arc<Self>) -> PinnedEpoch {
        crate::sched::yield_point("epoch:pin");
        let mut inner = self.lock();
        let current = inner.current;
        // No `.expect()` while the guard is held: a panic here would poison
        // the registry for every other reader.  The current epoch is retained
        // by construction (publish inserts before retiring, unpin never
        // removes the current version), so the miss arm is unreachable — but
        // it releases the guard before saying so.
        let snapshot = match inner.retained.get_mut(&current) {
            Some(entry) => {
                entry.pins += 1;
                Arc::clone(&entry.snapshot)
            }
            None => {
                drop(inner);
                unreachable!("the current epoch is always retained");
            }
        };
        drop(inner);
        if let Some(metrics) = self.metrics {
            metrics.pinned_readers.add(1);
        }
        PinnedEpoch { manager: Arc::clone(self), snapshot }
    }

    /// The bookkeeping counters (for tests, stats endpoints and the bench
    /// harness).
    pub fn stats(&self) -> EpochStats {
        let inner = self.lock();
        EpochStats {
            published: inner.published,
            retained: inner.retained.len(),
            retired: inner.retired,
            pinned_readers: inner.retained.values().map(|e| e.pins).sum(),
        }
    }

    /// True if the given version is still retained (current or pinned).
    pub fn is_retained(&self, version: u64) -> bool {
        self.lock().retained.contains_key(&version)
    }

    /// The version of the currently served epoch.
    pub fn current_version(&self) -> u64 {
        self.lock().current
    }

    /// Republishes the current snapshot's state as a new epoch — the model
    /// checker's stand-in for an ingest, exercising the exact publish/retire
    /// bookkeeping without a writer graph (and without the writer mutex, so
    /// schedule-explorer scripts may run several concurrent publishers).
    #[cfg(any(debug_assertions, feature = "model-check"))]
    #[doc(hidden)]
    pub fn republish_for_check(self: &Arc<Self>) -> u64 {
        let (epoch, relations, tables) = {
            let inner = self.lock();
            let snapshot = match inner.retained.get(&inner.current) {
                Some(entry) => Arc::clone(&entry.snapshot),
                None => {
                    drop(inner);
                    unreachable!("the current epoch is always retained");
                }
            };
            drop(inner);
            (snapshot.epoch, snapshot.relations.snapshot(), snapshot.tables.clone())
        };
        self.publish(epoch, relations, tables)
    }

    fn unpin(&self, version: u64) {
        crate::sched::yield_point("epoch:unpin");
        let mut inner = self.lock();
        // As in `pin`, never panic while holding the guard.  A miss would mean
        // a double-unpin or an unpin of a reclaimed epoch — report it outside
        // the lock in debug builds, keep serving in release.
        let Some(entry) = inner.retained.get_mut(&version) else {
            drop(inner);
            debug_assert!(false, "unpinned version {version} is no longer retained");
            return;
        };
        debug_assert!(entry.pins > 0);
        entry.pins -= 1;
        let retired = entry.pins == 0 && version != inner.current;
        if retired {
            inner.retained.remove(&version);
            inner.retired += 1;
        }
        if let Some(metrics) = self.metrics {
            metrics.pinned_readers.sub(1);
            if retired {
                metrics.retired.inc();
                metrics.retained.sub(1);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ManagerInner> {
        // A poisoned registry would only mean a reader panicked mid-bookkeeping;
        // the data itself is a plain map, so keep serving.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A reader's lease on one epoch: dereferences to the [`EpochSnapshot`] and
/// unpins it on drop.  Cloning the guard pins the same epoch again, so a
/// response can hand the snapshot on without letting it retire.
#[derive(Debug)]
pub struct PinnedEpoch {
    manager: Arc<EpochManager>,
    snapshot: Arc<EpochSnapshot>,
}

impl PinnedEpoch {
    /// The snapshot this pin holds.
    pub fn snapshot(&self) -> &EpochSnapshot {
        &self.snapshot
    }
}

impl std::ops::Deref for PinnedEpoch {
    type Target = EpochSnapshot;

    fn deref(&self) -> &EpochSnapshot {
        &self.snapshot
    }
}

impl Clone for PinnedEpoch {
    fn clone(&self) -> Self {
        crate::sched::yield_point("epoch:clone");
        let mut inner = self.manager.lock();
        // `self` holds a pin, so its version is retained; as in `pin`, the
        // unreachable miss arm still releases the guard before panicking.
        match inner.retained.get_mut(&self.snapshot.version) {
            Some(entry) => entry.pins += 1,
            None => {
                drop(inner);
                unreachable!("a pinned epoch stays retained while its guard is alive");
            }
        }
        drop(inner);
        if let Some(metrics) = self.manager.metrics {
            metrics.pinned_readers.add(1);
        }
        PinnedEpoch { manager: Arc::clone(&self.manager), snapshot: Arc::clone(&self.snapshot) }
    }
}

impl Drop for PinnedEpoch {
    fn drop(&mut self) {
        self.manager.unpin(self.snapshot.version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, Itpg};

    fn manager() -> Arc<EpochManager> {
        let relations = GraphRelations::from_itpg(&Itpg::empty(Interval::of(1, 10)));
        EpochManager::new(None, relations, Vec::new(), false)
    }

    fn republish(manager: &Arc<EpochManager>, epoch: u64) -> u64 {
        let relations = GraphRelations::from_itpg(&Itpg::empty(Interval::of(1, 10)));
        manager.publish(Some(epoch), relations, Vec::new())
    }

    #[test]
    fn unpinned_epochs_retire_on_publish() {
        let m = manager();
        assert_eq!(
            m.stats(),
            EpochStats { published: 1, retained: 1, retired: 0, pinned_readers: 0 }
        );
        republish(&m, 1);
        republish(&m, 2);
        let stats = m.stats();
        assert_eq!(stats.published, 3);
        assert_eq!(stats.retained, 1, "only the current epoch is retained");
        assert_eq!(stats.retired, 2);
    }

    #[test]
    fn pinned_epochs_survive_publishes_and_retire_on_unpin() {
        let m = manager();
        let pin = m.pin();
        assert_eq!(pin.version(), 0);
        let v1 = republish(&m, 1);
        republish(&m, 2);
        assert!(m.is_retained(0), "a pinned epoch is never reclaimed");
        assert!(!m.is_retained(v1), "the unpinned intermediate epoch retired");
        assert_eq!(m.stats().retained, 2);
        assert_eq!(m.stats().pinned_readers, 1);

        // The pin still reads version 0 state.
        assert_eq!(pin.epoch(), None);
        drop(pin);
        assert!(!m.is_retained(0), "the last unpin retires a stale epoch");
        assert_eq!(
            m.stats(),
            EpochStats { published: 3, retained: 1, retired: 2, pinned_readers: 0 }
        );
    }

    #[test]
    fn cloned_pins_count_separately() {
        let m = manager();
        let a = m.pin();
        let b = a.clone();
        republish(&m, 1);
        assert_eq!(m.stats().pinned_readers, 2);
        drop(a);
        assert!(m.is_retained(0), "the second pin still holds the epoch");
        drop(b);
        assert!(!m.is_retained(0));
    }

    #[test]
    fn pinning_the_current_epoch_never_retires_it() {
        let m = manager();
        let pin = m.pin();
        drop(pin);
        assert!(m.is_retained(0), "the current epoch survives its last unpin");
        assert_eq!(m.stats().retired, 0);
    }
}
