//! Concurrency pins for the observability layer at the server boundary:
//!
//! * a worker pool hammering the process-wide registry produces exactly the
//!   totals a serial replay of the same requests would (no lost updates,
//!   no double counts);
//! * recording from workers — including the epoch bookkeeping that runs while
//!   the manager's `MutexGuard` is live — never acquires the registry lock
//!   (the worker-pool variant of obs's own `recording_does_not_lock` pin);
//! * the `SchemaSummary` scan behind ad-hoc requests runs once per published
//!   epoch however many workers race for it, and never on the writer;
//! * a `Request::Metrics` scrape served by the same pool while requests are in
//!   flight covers all four families (`tpath_engine_`, `tpath_live_`,
//!   `tpath_epoch_`, `tpath_serve_`), the refresh and ingest phases among them,
//!   and is well-formed in both formats;
//! * an ingest's validate, write and publish phases sum to no more than the
//!   ingest, and
//!   every `Response` carries a populated [`ServeHealth`].
//!
//! Everything lives in one test function: the registry is process-global, and
//! a single test per binary keeps the before/after deltas race-free.

use std::sync::Arc;

use engine::{AnswerMode, ExecutionOptions};
use live::serve::{MetricsFormat, Request, ServeGraph, Server};
use tgraph::{Batch, Interval, Itpg};

const QUERY: &str = "MATCH (x:Person) ON live";

fn populated_graph() -> Arc<ServeGraph> {
    let graph = Arc::new(ServeGraph::with_options(
        Itpg::empty(Interval::of(1, 10)),
        ExecutionOptions::default(),
    ));
    let mut batch = Batch::new(1);
    batch.add_node("ann", "Person").add_existence("ann", Interval::of(1, 9));
    graph.ingest(&batch).unwrap();
    graph
}

fn request(mode: AnswerMode) -> Request {
    Request::AdHoc { text: QUERY.into(), mode }
}

#[test]
fn worker_pool_recording_matches_serial_replay_without_locking() {
    let reg = obs::global();
    let graph = populated_graph();
    let registered_id = graph.register_text(QUERY).unwrap();

    // The engine's own handles for the same series: get-or-create returns the
    // series the server records into, so deltas observe its behaviour exactly.
    let req_help = "Requests served, by answer mode.";
    let req_full = reg.counter("tpath_serve_requests_total", req_help, &[("mode", "full")]);
    let req_compact = reg.counter("tpath_serve_requests_total", req_help, &[("mode", "compact")]);
    let req_enum = reg.counter("tpath_serve_requests_total", req_help, &[("mode", "enum")]);
    let req_registered =
        reg.counter("tpath_serve_requests_total", req_help, &[("mode", "registered")]);
    let request_seconds =
        reg.latency_histogram("tpath_serve_request_seconds", "End-to-end latency.", &[]);
    let queue_wait = reg.latency_histogram("tpath_serve_queue_wait_seconds", "Queue wait.", &[]);
    let busy = reg.gauge("tpath_serve_busy_workers", "Busy workers.", &[]);
    let depth = reg.gauge("tpath_serve_queue_depth", "Queue depth.", &[]);
    let workers = reg.gauge("tpath_serve_workers", "Workers in the pool.", &[]);
    let scans = reg.counter("tpath_engine_schema_scans_total", "SchemaSummary scans.", &[]);

    let server = Server::start(Arc::clone(&graph), 4);
    // Warm-up: one request per code path, so every OnceLock handle set and
    // every registry series exists before the lock baseline is taken.
    server.submit(request(AnswerMode::Materialized)).wait().unwrap();
    server.submit(Request::Registered(registered_id)).wait().unwrap();

    let base_full = req_full.get();
    let base_compact = req_compact.get();
    let base_enum = req_enum.get();
    let base_registered = req_registered.get();
    let base_requests = request_seconds.snapshot().count;
    let base_waits = queue_wait.snapshot().count;
    let base_locks = reg.lock_acquisitions();

    // The hammer: 4 workers racing over 80 mixed-mode requests, with ingests
    // (epoch publish/retire under the manager's lock) interleaved from this
    // thread.  A serial replay of the same workload would count 20 per mode.
    const PER_MODE: u64 = 20;
    let mut tickets = Vec::new();
    for i in 0..PER_MODE {
        tickets.push(server.submit(request(AnswerMode::Materialized)));
        tickets.push(server.submit(request(AnswerMode::Compact)));
        tickets.push(server.submit(request(AnswerMode::Enumerate)));
        tickets.push(server.submit(Request::Registered(registered_id)));
        if i % 5 == 0 {
            let mut batch = Batch::new(i + 2);
            let name = format!("p{i}");
            batch.add_node(&name, "Person").add_existence(&name, Interval::of(1, 9));
            graph.ingest(&batch).unwrap();
        }
    }
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        // Satellite pin: every response carries the health block.
        assert!(response.health.retained_epochs >= 1);
        assert_eq!(response.health.fallback_refreshes, 0, "deltas must not fall back here");
    }

    // Totals match the serial replay exactly — relaxed atomics lose nothing.
    assert_eq!(req_full.get() - base_full, PER_MODE);
    assert_eq!(req_compact.get() - base_compact, PER_MODE);
    assert_eq!(req_enum.get() - base_enum, PER_MODE);
    assert_eq!(req_registered.get() - base_registered, PER_MODE);
    assert_eq!(request_seconds.snapshot().count - base_requests, 4 * PER_MODE);
    assert_eq!(queue_wait.snapshot().count - base_waits, 4 * PER_MODE);
    // The pool is quiescent again: the utilization gauges drained to idle.
    assert_eq!(busy.get(), 0, "busy-worker gauge must drain to zero");
    assert_eq!(depth.get(), 0, "queue-depth gauge must drain to zero");

    // Lock-freedom, worker-pool variant: none of the recording above — spans,
    // counters, the epoch gauges updated while the manager's MutexGuard was
    // live — touched the registry lock.  Only registration and snapshots do.
    assert_eq!(reg.lock_acquisitions(), base_locks, "metric recording acquired the registry lock");

    // One schema scan per epoch.  An ingest publishes a new relations version
    // and costs the writer no scan; of the ad-hoc requests the four workers then
    // race over at that epoch exactly one scans, the rest share its memo through
    // their pins; the next epoch owes one scan again.
    for epoch in [PER_MODE + 2, PER_MODE + 3] {
        let base_scans = scans.get();
        let mut batch = Batch::new(epoch);
        let name = format!("q{epoch}");
        batch.add_node(&name, "Person").add_existence(&name, Interval::of(1, 9));
        let watch = obs::Stopwatch::start();
        let report = graph.ingest(&batch).unwrap();
        let elapsed = watch.elapsed();
        // The ingest's phases are disjoint pieces of it.
        let phases = report.ingest.validate + report.ingest.write + report.publish + report.retire;
        assert!(phases <= elapsed, "{phases:?} of phases in a {elapsed:?} ingest");
        let published = report.version;
        assert_eq!(scans.get(), base_scans, "ingest and publish scan nothing");
        let tickets: Vec<_> =
            [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate]
                .into_iter()
                .cycle()
                .take(24)
                .map(|mode| server.submit(request(mode)))
                .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().epoch.version(), published);
        }
        assert_eq!(scans.get() - base_scans, 1, "24 ad-hoc requests at one epoch, one scan");
    }

    // A scrape through the same worker pool, submitted while requests are in
    // flight: the exposition already covers every subsystem's family —
    // `tpath_engine_`, `tpath_live_`, `tpath_epoch_` and `tpath_serve_` series
    // are each asserted below.
    let in_flight: Vec<_> = [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate]
        .into_iter()
        .cycle()
        .take(12)
        .map(|mode| server.submit(request(mode)))
        .collect();
    let response = server.submit(Request::Metrics(MetricsFormat::Prometheus)).wait().unwrap();
    for ticket in in_flight {
        ticket.wait().unwrap();
    }
    let text = response.answer.metrics().expect("a Metrics request answers with rendered text");
    let lines: Vec<&str> = text.lines().collect();
    for header in [
        "# TYPE tpath_serve_requests_total counter",
        "# TYPE tpath_engine_span_seconds histogram",
        "# TYPE tpath_live_refresh_phase_seconds histogram",
        "# TYPE tpath_live_ingest_phase_seconds histogram",
    ] {
        assert!(lines.contains(&header), "scrape is missing {header:?}");
    }
    for series in [
        "tpath_serve_requests_total{mode=\"metrics\"} ",
        "tpath_serve_requests_total{mode=\"full\"} ",
        "tpath_engine_span_seconds_bucket{span=\"query\",le=\"+Inf\"} ",
        "tpath_epoch_retained ",
        "tpath_live_refreshes_total{kind=\"delta\"} ",
        "tpath_live_refresh_phase_seconds_bucket{phase=\"seeding\",le=\"+Inf\"} ",
        "tpath_live_refresh_phase_seconds_bucket{phase=\"rerun\",le=\"+Inf\"} ",
        "tpath_live_refresh_phase_seconds_bucket{phase=\"merge\",le=\"+Inf\"} ",
        "tpath_live_ingest_phase_seconds_bucket{phase=\"validate\",le=\"+Inf\"} ",
        "tpath_live_ingest_phase_seconds_bucket{phase=\"write\",le=\"+Inf\"} ",
        "tpath_live_ingest_phase_seconds_bucket{phase=\"publish\",le=\"+Inf\"} ",
        "tpath_live_ingest_phase_seconds_bucket{phase=\"retire\",le=\"+Inf\"} ",
    ] {
        assert!(lines.iter().any(|line| line.starts_with(series)), "scrape is missing {series:?}");
    }
    assert!(response.health.refreshes >= 1, "ingests refreshed the registered query");

    let response = server.submit(Request::Metrics(MetricsFormat::Json)).wait().unwrap();
    let json = response.answer.metrics().unwrap();
    assert!(json.starts_with('[') && json.ends_with(']'), "render_json is one JSON array");
    assert!(json.contains("\"name\":\"tpath_serve_requests_total\""));

    let pool_size = workers.get();
    server.shutdown();
    assert_eq!(workers.get(), pool_size - 4, "joined workers leave the pool gauge");
}
