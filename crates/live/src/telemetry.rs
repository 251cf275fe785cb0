//! The live subsystem's handles into the process-wide metric registry.
//!
//! Three handle sets, each resolved once into a `OnceLock` so hot paths (and
//! code holding the epoch manager's or writer's `Mutex`) record through
//! lock-free `Arc` handles only:
//!
//! * [`live_metrics`] — batch ingestion and incremental refresh
//!   (`tpath_live_*`): apply latency and the ingest phases, mutation counts,
//!   refresh latency and its phases, the delta-vs-full-fallback split, rows added/retracted.
//! * [`epoch_metrics`] — the MVCC epoch protocol (`tpath_epoch_*`): publish /
//!   retire counters, retained-snapshot and pinned-reader gauges.  Recorded
//!   inside the manager's protocol lock, which is safe precisely because
//!   recording never takes a lock (pinned by the lock-freedom tests).
//! * [`serve_metrics`] — the query server (`tpath_serve_*`): per-request
//!   end-to-end and queue-wait histograms, per-answer-mode request counters,
//!   worker-utilization and queue-depth gauges, and the writer-starvation
//!   gauge (nanoseconds the last ingest waited for the writer lock).

use std::sync::{Arc, OnceLock};

use obs::{Counter, Gauge, Histogram};

/// Ingestion and refresh metrics (`tpath_live_*`).
#[derive(Debug)]
pub(crate) struct LiveMetrics {
    /// `tpath_live_batches_total` — batches applied.
    pub batches: Arc<Counter>,
    /// `tpath_live_mutations_total` — mutations across applied batches.
    pub mutations: Arc<Counter>,
    /// `tpath_live_apply_seconds` — batch apply latency.
    pub apply_seconds: Arc<Histogram>,
    /// `tpath_live_ingest_phase_seconds{phase="validate"}` — resolving a
    /// batch's names and checking Definition A.1 (`IngestStats::validate`).
    pub ingest_validate_seconds: Arc<Histogram>,
    /// `tpath_live_ingest_phase_seconds{phase="write"}` — deriving and
    /// writing the touched objects' segments (`IngestStats::write`).
    pub ingest_write_seconds: Arc<Histogram>,
    /// `tpath_live_ingest_phase_seconds{phase="publish"}` — publishing the
    /// ingest's epoch (`IngestReport::publish`).
    pub ingest_publish_seconds: Arc<Histogram>,
    /// `tpath_live_refreshes_total{kind="delta"}` — refreshes that re-ran
    /// only the seed rows the pending batches can have changed.
    pub refreshes_delta: Arc<Counter>,
    /// `tpath_live_refreshes_total{kind="full"}` — refreshes in which some
    /// plan alternative re-ran every live seed row
    /// (`RefreshStats::fallback_full`); the ratio of the two series is the
    /// fallback rate.
    pub refreshes_full: Arc<Counter>,
    /// `tpath_live_refresh_seconds` — refresh latency.
    pub refresh_seconds: Arc<Histogram>,
    /// `tpath_live_refresh_phase_seconds{phase="seeding"}` — choosing the seed
    /// rows to re-run (`RefreshStats::seeding`).
    pub refresh_seeding_seconds: Arc<Histogram>,
    /// `tpath_live_refresh_phase_seconds{phase="rerun"}` — re-running the plan
    /// alternatives from them (`RefreshStats::rerun`).
    pub refresh_rerun_seconds: Arc<Histogram>,
    /// `tpath_live_refresh_phase_seconds{phase="merge"}` — merging the counted
    /// delta into the table (`RefreshStats::merge`).
    pub refresh_merge_seconds: Arc<Histogram>,
    /// `tpath_live_refresh_rows_total{change="added"}`.
    pub rows_added: Arc<Counter>,
    /// `tpath_live_refresh_rows_total{change="retracted"}`.
    pub rows_retracted: Arc<Counter>,
}

/// Epoch protocol metrics (`tpath_epoch_*`).
#[derive(Debug)]
pub(crate) struct EpochMetrics {
    /// `tpath_epoch_published_total` — snapshots published.
    pub published: Arc<Counter>,
    /// `tpath_epoch_retired_total` — snapshots retired.
    pub retired: Arc<Counter>,
    /// `tpath_epoch_retained` — snapshots currently retained.
    pub retained: Arc<Gauge>,
    /// `tpath_epoch_pinned_readers` — pins currently held by readers.
    pub pinned_readers: Arc<Gauge>,
}

/// Query server metrics (`tpath_serve_*`).
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// `tpath_serve_requests_total{mode="registered"}`.
    pub req_registered: Arc<Counter>,
    /// `tpath_serve_requests_total{mode="full"}`.
    pub req_full: Arc<Counter>,
    /// `tpath_serve_requests_total{mode="compact"}`.
    pub req_compact: Arc<Counter>,
    /// `tpath_serve_requests_total{mode="enum"}`.
    pub req_enum: Arc<Counter>,
    /// `tpath_serve_requests_total{mode="metrics"}`.
    pub req_metrics: Arc<Counter>,
    /// `tpath_serve_request_seconds` — submit-to-response wall time.
    pub request_seconds: Arc<Histogram>,
    /// `tpath_serve_queue_wait_seconds` — submit-to-dequeue wall time.
    pub queue_wait_seconds: Arc<Histogram>,
    /// `tpath_serve_busy_workers` — workers currently executing a request.
    pub busy_workers: Arc<Gauge>,
    /// `tpath_serve_workers` — workers in the pool.
    pub workers: Arc<Gauge>,
    /// `tpath_serve_queue_depth` — requests submitted but not yet dequeued.
    pub queue_depth: Arc<Gauge>,
    /// `tpath_serve_writer_lock_wait_nanos` — nanoseconds the most recent
    /// ingest spent waiting for the writer lock (the writer-starvation
    /// signal: readers never take that lock, so any wait is writer-vs-writer
    /// contention with registrations or other ingests).
    pub writer_lock_wait_nanos: Arc<Gauge>,
    /// `tpath_serve_worker_panics_total` — requests whose worker panicked
    /// (the panic is contained; the worker keeps serving).
    pub worker_panics: Arc<Counter>,
}

pub(crate) fn live_metrics() -> &'static LiveMetrics {
    static METRICS: OnceLock<LiveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        let refreshes_help =
            "Query refreshes, split by seeded (delta) vs re-running every live seed row (full).";
        let rows_help = "Rows added to / retracted from maintained answers by refreshes.";
        let phase = |phase: &'static str| {
            reg.latency_histogram(
                "tpath_live_refresh_phase_seconds",
                "Refresh latency per phase: seeding, rerun and merge.",
                &[("phase", phase)],
            )
        };
        let ingest_phase = |phase: &'static str| {
            reg.latency_histogram(
                "tpath_live_ingest_phase_seconds",
                "Ingest latency per phase: validate, write and publish.",
                &[("phase", phase)],
            )
        };
        LiveMetrics {
            batches: reg.counter("tpath_live_batches_total", "Mutation batches applied.", &[]),
            mutations: reg.counter(
                "tpath_live_mutations_total",
                "Mutations across applied batches.",
                &[],
            ),
            apply_seconds: reg.latency_histogram(
                "tpath_live_apply_seconds",
                "Batch apply latency (validate + write + dirty marking).",
                &[],
            ),
            ingest_validate_seconds: ingest_phase("validate"),
            ingest_write_seconds: ingest_phase("write"),
            ingest_publish_seconds: ingest_phase("publish"),
            refreshes_delta: reg.counter(
                "tpath_live_refreshes_total",
                refreshes_help,
                &[("kind", "delta")],
            ),
            refreshes_full: reg.counter(
                "tpath_live_refreshes_total",
                refreshes_help,
                &[("kind", "full")],
            ),
            refresh_seconds: reg.latency_histogram(
                "tpath_live_refresh_seconds",
                "Incremental refresh latency per registered query.",
                &[],
            ),
            refresh_seeding_seconds: phase("seeding"),
            refresh_rerun_seconds: phase("rerun"),
            refresh_merge_seconds: phase("merge"),
            rows_added: reg.counter(
                "tpath_live_refresh_rows_total",
                rows_help,
                &[("change", "added")],
            ),
            rows_retracted: reg.counter(
                "tpath_live_refresh_rows_total",
                rows_help,
                &[("change", "retracted")],
            ),
        }
    })
}

pub(crate) fn epoch_metrics() -> &'static EpochMetrics {
    static METRICS: OnceLock<EpochMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        EpochMetrics {
            published: reg.counter(
                "tpath_epoch_published_total",
                "Epoch snapshots published (ingests and registrations).",
                &[],
            ),
            retired: reg.counter(
                "tpath_epoch_retired_total",
                "Epoch snapshots retired after their last reader unpinned.",
                &[],
            ),
            retained: reg.gauge(
                "tpath_epoch_retained",
                "Epoch snapshots currently retained (current plus pinned).",
                &[],
            ),
            pinned_readers: reg.gauge(
                "tpath_epoch_pinned_readers",
                "Pins currently held by readers, across all retained epochs.",
                &[],
            ),
        }
    })
}

pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        let req_help = "Requests served, by answer mode.";
        let req = |mode: &'static str| {
            reg.counter("tpath_serve_requests_total", req_help, &[("mode", mode)])
        };
        ServeMetrics {
            req_registered: req("registered"),
            req_full: req("full"),
            req_compact: req("compact"),
            req_enum: req("enum"),
            req_metrics: req("metrics"),
            request_seconds: reg.latency_histogram(
                "tpath_serve_request_seconds",
                "End-to-end request latency, submit to response.",
                &[],
            ),
            queue_wait_seconds: reg.latency_histogram(
                "tpath_serve_queue_wait_seconds",
                "Time a request waited in the queue before a worker dequeued it.",
                &[],
            ),
            busy_workers: reg.gauge(
                "tpath_serve_busy_workers",
                "Workers currently executing a request.",
                &[],
            ),
            workers: reg.gauge("tpath_serve_workers", "Workers in the pool.", &[]),
            queue_depth: reg.gauge(
                "tpath_serve_queue_depth",
                "Requests submitted but not yet dequeued by a worker.",
                &[],
            ),
            writer_lock_wait_nanos: reg.gauge(
                "tpath_serve_writer_lock_wait_nanos",
                "Nanoseconds the most recent ingest waited for the writer lock \
                 (writer-starvation signal).",
                &[],
            ),
            worker_panics: reg.counter(
                "tpath_serve_worker_panics_total",
                "Requests whose worker panicked (contained; the worker keeps serving).",
                &[],
            ),
        }
    })
}
