//! The metric registry: get-or-create families, snapshot, and the process
//! global.
//!
//! The registry's internal `Mutex` is taken only by registration
//! ([`Registry::counter`] and friends) and by exposition
//! ([`Registry::snapshot`]).  Hot paths hold `Arc` handles obtained once at
//! startup and record through the lock-free primitives in [`crate::metric`];
//! [`Registry::lock_acquisitions`] counts every acquisition of the internal
//! lock so tests can prove that recording never touches it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// What a metric family measures, in Prometheus' vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// A level that moves both ways.
    Gauge,
    /// A log2-bucket value distribution.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for the exposition format.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labelled series' handle inside a family.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A metric family: one name, one kind, many label sets.
#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Multiplier applied to histogram bucket bounds and sums at exposition
    /// time (1e-9 turns recorded nanoseconds into rendered seconds).
    scale: f64,
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A point-in-time copy of one labelled series.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// The label set, sorted by label name.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SeriesValue,
}

/// The value of one series at snapshot time.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's buckets, count, and raw-unit sum.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of one metric family.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// The family name (`tpath_engine_queries_total`).
    pub name: String,
    /// The `# HELP` text.
    pub help: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Exposition multiplier for histogram bounds and sums.
    pub scale: f64,
    /// Every labelled series of the family, sorted by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// Get-or-create metric families keyed by name, handing out shared handles
/// whose recording operations never take a lock.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
    lock_acquisitions: AtomicU64,
}

impl Registry {
    /// An empty registry.  `const` so the process [`global`] needs no
    /// once-initialization.
    pub const fn new() -> Self {
        Registry { families: Mutex::new(BTreeMap::new()), lock_acquisitions: AtomicU64::new(0) }
    }

    /// Locks the family map, recovering from poison (a panicking registrant
    /// cannot leave the map structurally broken: every mutation is a single
    /// insert) and counting the acquisition.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Family>> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.families.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of times the registry's internal mutex has been acquired.
    /// Registration and exposition lock; recording through handles must not —
    /// the lock-freedom tests assert this count stays flat across recording.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    fn handle(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Handle {
        let mut key: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect();
        key.sort();
        let mut families = self.lock();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            scale,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family `{name}` registered as {:?} and requested as {kind:?}",
            family.kind
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Handle::Counter(Arc::new(Counter::new())),
                MetricKind::Gauge => Handle::Gauge(Arc::new(Gauge::new())),
                MetricKind::Histogram => Handle::Histogram(Arc::new(Histogram::new())),
            })
            .clone()
    }

    /// Returns the counter `name{labels}`, creating it at zero on first use.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.handle(name, help, MetricKind::Counter, 1.0, labels) {
            Handle::Counter(c) => c,
            Handle::Gauge(_) | Handle::Histogram(_) => unreachable!("kind checked in handle()"),
        }
    }

    /// Returns the gauge `name{labels}`, creating it at zero on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        match self.handle(name, help, MetricKind::Gauge, 1.0, labels) {
            Handle::Gauge(g) => g,
            Handle::Counter(_) | Handle::Histogram(_) => unreachable!("kind checked in handle()"),
        }
    }

    /// Returns the histogram `name{labels}` with raw-unit buckets (bucket `i`
    /// counts values `<= 2^i`), creating it empty on first use.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.scaled_histogram(name, help, 1.0, labels)
    }

    /// Returns the histogram `name{labels}` that records *nanoseconds* and
    /// renders bounds and sums in seconds.  This is the target type for
    /// [`crate::Span`] timers.
    pub fn latency_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.scaled_histogram(name, help, 1e-9, labels)
    }

    fn scaled_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.handle(name, help, MetricKind::Histogram, scale, labels) {
            Handle::Histogram(h) => h,
            Handle::Counter(_) | Handle::Gauge(_) => unreachable!("kind checked in handle()"),
        }
    }

    /// Copies every family out.  Values are read series-by-series while
    /// writers keep recording, so cross-series totals are exact only when
    /// writers are quiescent.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        let families = self.lock();
        families
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: (*name).to_owned(),
                help: family.help.to_owned(),
                kind: family.kind,
                scale: family.scale,
                series: family
                    .series
                    .iter()
                    .map(|(labels, handle)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match handle {
                            Handle::Counter(c) => SeriesValue::Counter(c.get()),
                            Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
                            Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                        },
                    })
                    .collect(),
            })
            .collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// The process-wide registry.  Engine, live, and server telemetry all record
/// here; the query server exposes it through `Request::Metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_series() {
        let reg = Registry::new();
        let a = reg.counter("events_total", "events", &[("kind", "x")]);
        let b = reg.counter("events_total", "events", &[("kind", "x")]);
        let other = reg.counter("events_total", "events", &[("kind", "y")]);
        a.inc();
        b.inc();
        other.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(other.get(), 5);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.gauge("depth", "queue depth", &[("pool", "p"), ("shard", "0")]);
        let b = reg.gauge("depth", "queue depth", &[("shard", "0"), ("pool", "p")]);
        a.set(7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn snapshot_sees_all_kinds() {
        let reg = Registry::new();
        reg.counter("c_total", "c", &[]).add(3);
        reg.gauge("g", "g", &[]).set(-2);
        reg.latency_histogram("h_seconds", "h", &[]).record(1500);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        let names: Vec<&str> = snap.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["c_total", "g", "h_seconds"]);
        assert!(matches!(snap[0].series[0].value, SeriesValue::Counter(3)));
        assert!(matches!(snap[1].series[0].value, SeriesValue::Gauge(-2)));
        match &snap[2].series[0].value {
            SeriesValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 1500);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert!((snap[2].scale - 1e-9).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "registered as Counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("m", "m", &[]);
        let _ = reg.gauge("m", "m", &[]);
    }

    #[test]
    fn recording_does_not_lock() {
        let reg = Registry::new();
        let c = reg.counter("c_total", "c", &[]);
        let g = reg.gauge("g", "g", &[]);
        let h = reg.histogram("h", "h", &[]);
        let before = reg.lock_acquisitions();
        for i in 0..1000 {
            c.inc();
            g.set(i);
            h.record(i as u64);
        }
        assert_eq!(reg.lock_acquisitions(), before, "recording must not touch the registry lock");
    }
}
