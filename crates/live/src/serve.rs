//! Concurrent query serving: a single-writer [`ServeGraph`] publishing MVCC
//! epochs and a worker-pool [`Server`] answering queries against pinned
//! snapshots.
//!
//! The serving model is single-writer / multi-reader:
//!
//! * **Writers** go through [`ServeGraph::ingest`]: one mutex serialises batch
//!   application, the maintained queries are refreshed, and the result is
//!   *published* as the next epoch ([`crate::epoch::EpochManager`]).  Relation
//!   columns are copy-on-write ([`engine::GraphRelations::snapshot`]), so
//!   publishing is a handful of reference-count bumps and the writer never
//!   waits for readers.
//! * **Readers** never take the writer lock.  They pin the current epoch and
//!   execute against that immutable snapshot — a registered query's maintained
//!   answer is a shared table handle, an ad-hoc query is a from-scratch
//!   execution over the pinned relations in any [`AnswerMode`].  Every
//!   [`Response`] carries its [`PinnedEpoch`], so callers can check *which*
//!   state they read and verify it against a from-scratch execution at that
//!   exact epoch.
//!
//! ```
//! use live::serve::{Request, ServeGraph, Server};
//! use std::sync::Arc;
//! use tgraph::{Batch, Interval};
//!
//! let graph = Arc::new(ServeGraph::new(Interval::of(1, 10)));
//! let risky = graph.register_text("MATCH (x:Person {risk = 'high'}) ON live").unwrap();
//! let server = Server::start(Arc::clone(&graph), 2);
//!
//! let mut batch = Batch::new(1);
//! batch.add_node("ann", "Person").add_existence("ann", Interval::of(1, 9)).set_property(
//!     "ann",
//!     "risk",
//!     "high",
//!     Interval::of(1, 9),
//! );
//! graph.ingest(&batch).unwrap();
//!
//! let response = server.submit(Request::Registered(risky)).wait().unwrap();
//! assert_eq!(response.epoch.epoch(), Some(1));
//! assert_eq!(response.answer.rows().unwrap().len(), 1);
//! server.shutdown();
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use obs::Stopwatch;

use engine::bindings::BindingTable;
use engine::plan::PlanSet;
use engine::{compile, AnswerMode, CompactAnswers, ExecutionOptions, GraphRelations};
use tgraph::{Batch, Interval, Itpg};
use trpq::queries::QueryId;

use crate::epoch::{EpochManager, EpochStats, PinnedEpoch};
use crate::error::LiveError;
use crate::graph::{IngestStats, LiveGraph};
use crate::query::{LiveQueryId, RefreshStats};

/// What one [`ServeGraph::ingest`] call did: the writer-side ingestion stats,
/// the refresh stats of every maintained query, and the version of the epoch
/// the result was published as, how long publishing it took and how long
/// freeing the epochs it retired took.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Graph- and row-level ingestion outcome (see [`crate::LiveGraph::apply`]).
    pub ingest: IngestStats,
    /// One refresh record per registered query, in registration order.
    pub refreshes: Vec<RefreshStats>,
    /// The version of the newly published epoch.
    pub version: u64,
    /// Wall-clock time spent publishing that epoch, without `retire`.
    pub publish: Duration,
    /// Wall-clock time spent freeing the epochs the publish retired: the
    /// relations and tables that no newer epoch shares.
    pub retire: Duration,
}

/// The shared serving handle: a mutex-serialised writer [`LiveGraph`] plus the
/// epoch registry readers pin snapshots from.
///
/// Ingestion and registration are writer operations (they briefly hold the
/// writer lock and end by publishing a new epoch); [`ServeGraph::pin`] and
/// everything the [`Server`] does are reader operations and never touch the
/// writer lock.
#[derive(Debug)]
pub struct ServeGraph {
    writer: Mutex<LiveGraph>,
    epochs: Arc<EpochManager>,
    options: ExecutionOptions,
    /// Maintained-query refreshes performed by ingests, and how many of them
    /// fell back to a full recompute — the serving-level fallback rate every
    /// [`Response`] reports through [`ServeHealth`].
    refreshes: AtomicU64,
    fallback_refreshes: AtomicU64,
}

impl ServeGraph {
    /// An empty serving graph over an initial temporal domain, with default
    /// execution options.
    pub fn new(domain: Interval) -> Self {
        ServeGraph::with_options(Itpg::empty(domain), ExecutionOptions::default())
    }

    /// A serving graph starting from an existing (bulk-loaded) graph with
    /// explicit execution options.  The options also govern ad-hoc executions;
    /// a request's [`AnswerMode`] overrides the mode per query.
    pub fn with_options(itpg: Itpg, options: ExecutionOptions) -> Self {
        let graph = LiveGraph::with_options(itpg, options);
        let epochs = EpochManager::new(
            graph.epoch(),
            graph.relations().snapshot(),
            graph.table_handles(),
            options.telemetry,
        );
        ServeGraph {
            writer: Mutex::new(graph),
            epochs,
            options,
            refreshes: AtomicU64::new(0),
            fallback_refreshes: AtomicU64::new(0),
        }
    }

    /// Registers a compiled plan set for maintenance and publishes a new epoch
    /// carrying its initial answer.
    pub fn register(&self, plan_set: PlanSet) -> LiveQueryId {
        let mut writer = self.writer();
        let id = writer.register(plan_set);
        self.publish(&writer);
        id
    }

    /// Registers a query in the practical `MATCH …` surface syntax.
    pub fn register_text(&self, query: &str) -> Result<LiveQueryId, LiveError> {
        let clause = trpq::parser::parse_match(query)?;
        Ok(self.register(compile(&clause)?))
    }

    /// Registers one of the paper's benchmark queries Q1–Q12.
    pub fn register_query(&self, id: QueryId) -> LiveQueryId {
        self.register(engine::queries::plan_for(id))
    }

    /// Ingests one batch and publishes the result as the next epoch: apply the
    /// batch, refresh every maintained query, publish.  Readers pinned to
    /// earlier epochs are unaffected — they keep their snapshot until they
    /// drop it.  A rejected batch publishes nothing.
    pub fn ingest(&self, batch: &Batch) -> Result<IngestReport, LiveError> {
        let waited = self.options.telemetry.then(Stopwatch::start);
        let mut writer = self.writer();
        if let Some(waited) = waited {
            // Readers never take the writer lock, so any wait here is
            // writer-vs-writer contention — the starvation signal.
            let wait = i64::try_from(waited.elapsed_nanos()).unwrap_or(i64::MAX);
            crate::telemetry::serve_metrics().writer_lock_wait_nanos.set(wait);
        }
        let ingest = writer.apply(batch)?;
        let refreshes = writer.refresh_all();
        self.refreshes.fetch_add(refreshes.len() as u64, Ordering::Relaxed);
        let fallbacks = refreshes.iter().filter(|r| r.fallback_full).count() as u64;
        self.fallback_refreshes.fetch_add(fallbacks, Ordering::Relaxed);
        let published = Stopwatch::start();
        let (version, retire) = self.publish(&writer);
        let publish = published.elapsed().saturating_sub(retire);
        if self.options.telemetry {
            let metrics = crate::telemetry::live_metrics();
            metrics.ingest_publish_seconds.record(obs::duration_nanos(publish));
            metrics.ingest_retire_seconds.record(obs::duration_nanos(retire));
        }
        Ok(IngestReport { ingest, refreshes, version, publish, retire })
    }

    /// Pins the current epoch for reading (see [`EpochManager::pin`]).
    pub fn pin(&self) -> PinnedEpoch {
        self.epochs.pin()
    }

    /// The epoch registry, for stats and direct pinning.
    pub fn epochs(&self) -> &Arc<EpochManager> {
        &self.epochs
    }

    /// The epoch registry's bookkeeping counters.
    pub fn stats(&self) -> EpochStats {
        self.epochs.stats()
    }

    /// The serving-health snapshot every [`Response`] carries: refresh and
    /// fallback totals plus the epoch registry's retention state.
    pub fn health(&self) -> ServeHealth {
        let epochs = self.epochs.stats();
        ServeHealth {
            refreshes: self.refreshes.load(Ordering::Relaxed),
            fallback_refreshes: self.fallback_refreshes.load(Ordering::Relaxed),
            retained_epochs: epochs.retained,
            pinned_readers: epochs.pinned_readers,
        }
    }

    /// The number of batches the writer has applied so far.
    pub fn batches_applied(&self) -> usize {
        self.writer().batches_applied()
    }

    /// The execution options ad-hoc requests run under (modulo per-request
    /// answer mode).
    pub fn options(&self) -> &ExecutionOptions {
        &self.options
    }

    /// Publishes the writer's state; returns what [`EpochManager::publish`]
    /// returns.
    fn publish(&self, writer: &LiveGraph) -> (u64, Duration) {
        self.epochs.publish(writer.epoch(), writer.relations().snapshot(), writer.table_handles())
    }

    fn writer(&self) -> MutexGuard<'_, LiveGraph> {
        // Writer state stays consistent even if a caller panicked mid-ingest:
        // `apply` is transactional at the graph level, so keep serving.
        self.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// One query request submitted to the [`Server`].
#[derive(Debug, Clone)]
pub enum Request {
    /// Read the maintained answer of a registered query from the pinned epoch
    /// (no execution — the snapshot already carries the table handle).
    Registered(LiveQueryId),
    /// Parse, compile and execute a `MATCH …` query from scratch against the
    /// pinned snapshot, answering in the given mode.
    AdHoc {
        /// The query in the practical surface syntax.
        text: String,
        /// How to shape the answers (materialise / compact / enumerate).
        mode: AnswerMode,
    },
    /// Execute a pre-compiled plan set against the pinned snapshot — what a
    /// client with a prepared statement submits.
    Compiled {
        /// The compiled plan set (shared, so resubmission is free).
        plan: Arc<PlanSet>,
        /// How to shape the answers.
        mode: AnswerMode,
    },
    /// Render the process-wide metric registry — the scrape endpoint.  Served
    /// by the same worker pool as queries, so a scrape observes the server
    /// exactly as it is while queries are in flight.
    Metrics(MetricsFormat),
}

/// The exposition format of a [`Request::Metrics`] scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format 0.0.4
    /// ([`obs::Registry::render_prometheus`]).
    Prometheus,
    /// The JSON rendering ([`obs::Registry::render_json`]).
    Json,
}

/// The serving-health counters attached to every [`Response`]: how much
/// maintenance work ingests have done and how the fallback rate and epoch
/// retention look right now.  Clients see staleness pressure (full-recompute
/// fallbacks) and snapshot build-up (pinned readers holding old epochs)
/// without a separate stats round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeHealth {
    /// Maintained-query refreshes performed by ingests so far.
    pub refreshes: u64,
    /// How many of those refreshes re-ran some plan alternative from every
    /// live seed row ([`RefreshStats::fallback_full`]).
    pub fallback_refreshes: u64,
    /// Epoch snapshots currently retained (the current one plus every pinned
    /// one).
    pub retained_epochs: usize,
    /// Pins currently held by readers, across all retained epochs.
    pub pinned_readers: usize,
}

/// The answer payload of a [`Response`], shaped by the request's
/// [`AnswerMode`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeAnswer {
    /// The maintained answer of a registered query — a shared handle into the
    /// pinned epoch, no rows copied.
    Maintained(Arc<BindingTable>),
    /// A materialised ad-hoc answer ([`AnswerMode::Materialized`]).
    Rows(BindingTable),
    /// Per-`(source, target)` coalesced interval answers
    /// ([`AnswerMode::Compact`]).
    Compact(CompactAnswers),
    /// An ad-hoc answer streamed row-by-row through the bounded-delay cursor
    /// ([`AnswerMode::Enumerate`]), drained in canonical order.
    Streamed {
        /// The streamed rows, in the canonical table order.
        rows: BindingTable,
        /// The cursor's peak buffered-row count — the bounded-delay evidence.
        peak_buffered: usize,
    },
    /// A rendered metrics scrape ([`Request::Metrics`]).
    Metrics(String),
}

impl ServeAnswer {
    /// The answer as a binding table, if the mode produced one (maintained,
    /// materialised or streamed answers; `None` for compact answers).
    pub fn rows(&self) -> Option<&BindingTable> {
        match self {
            ServeAnswer::Maintained(table) => Some(table),
            ServeAnswer::Rows(table) => Some(table),
            ServeAnswer::Streamed { rows, .. } => Some(rows),
            ServeAnswer::Compact(_) | ServeAnswer::Metrics(_) => None,
        }
    }

    /// The compact interval answers, if the request asked for them.
    pub fn compact(&self) -> Option<&CompactAnswers> {
        match self {
            ServeAnswer::Compact(compact) => Some(compact),
            _ => None,
        }
    }

    /// The rendered metrics scrape, if the request was [`Request::Metrics`].
    pub fn metrics(&self) -> Option<&str> {
        match self {
            ServeAnswer::Metrics(text) => Some(text),
            _ => None,
        }
    }
}

/// A served answer plus the pinned epoch it was computed on.  Holding the
/// response keeps the epoch pinned, so the caller can re-read (or verify) the
/// exact snapshot the answer came from.
#[derive(Debug)]
pub struct Response {
    /// The epoch the request was executed against, still pinned.
    pub epoch: PinnedEpoch,
    /// The answer payload.
    pub answer: ServeAnswer,
    /// Serving health at response time: refresh/fallback totals and epoch
    /// retention (see [`ServeGraph::health`]).
    pub health: ServeHealth,
}

struct Job {
    request: Request,
    reply: mpsc::Sender<Result<Response, LiveError>>,
    /// Started at submission when telemetry is on; measures queue wait at
    /// dequeue and end-to-end latency at reply.
    submitted: Option<Stopwatch>,
}

/// A pending response: blocks on [`Ticket::wait`] until a worker replies.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, LiveError>>,
}

impl Ticket {
    /// Blocks until the server responds.  Returns
    /// [`LiveError::ServerClosed`] if the server shut down first.
    pub fn wait(self) -> Result<Response, LiveError> {
        self.rx.recv().unwrap_or(Err(LiveError::ServerClosed))
    }
}

/// A pool of worker threads answering [`Request`]s against pinned snapshots of
/// one [`ServeGraph`].
///
/// Workers pull jobs from a shared queue; each job pins the *current* epoch at
/// execution time, runs entirely against that immutable snapshot, and replies
/// with a [`Response`] that keeps the epoch pinned.  The pool never blocks the
/// writer: ingestion can proceed while every worker is mid-query.
///
/// The pool is panic-contained: a request whose execution panics resolves its
/// own ticket to [`LiveError::WorkerPanicked`] and the worker keeps serving —
/// one bad request can never wedge the server or take other requests down.
#[derive(Debug)]
pub struct Server {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    closed: Arc<AtomicBool>,
    workers: Vec<thread::JoinHandle<()>>,
    telemetry: bool,
}

impl Server {
    /// Spawns `workers` worker threads serving queries against `graph`.
    /// At least one worker is always spawned.
    pub fn start(graph: Arc<ServeGraph>, workers: usize) -> Self {
        Server::with_handler(graph, workers, handle)
    }

    /// [`Server::start`] with workers that answer each request with `handler`.
    fn with_handler(graph: Arc<ServeGraph>, workers: usize, handler: Handler) -> Self {
        let telemetry = graph.options().telemetry;
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let closed = Arc::new(AtomicBool::new(false));
        let handles = (0..workers.max(1))
            .map(|_| {
                let graph = Arc::clone(&graph);
                let rx = Arc::clone(&rx);
                let closed = Arc::clone(&closed);
                thread::spawn(move || worker_loop(&graph, &rx, &closed, handler))
            })
            .collect();
        Server { tx: Mutex::new(Some(tx)), closed, workers: handles, telemetry }
    }

    /// Enqueues a request; any idle worker picks it up.  The returned
    /// [`Ticket`] resolves to the response (or [`LiveError::ServerClosed`] if
    /// the server shuts down first).
    pub fn submit(&self, request: Request) -> Ticket {
        let (reply, rx) = mpsc::channel();
        let submitted = self.telemetry.then(Stopwatch::start);
        match &*self.sender() {
            Some(tx) if !self.closed.load(Ordering::Acquire) => {
                if tx.send(Job { request, reply: reply.clone(), submitted }).is_err() {
                    let _ = reply.send(Err(LiveError::ServerClosed));
                } else if self.telemetry {
                    crate::telemetry::serve_metrics().queue_depth.add(1);
                }
            }
            _ => {
                let _ = reply.send(Err(LiveError::ServerClosed));
            }
        }
        Ticket { rx }
    }

    /// True once [`Server::close`] has been called (or the server is mid-drop).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the server abortively through a shared reference: subsequent
    /// submissions fail fast with [`LiveError::ServerClosed`], and jobs still
    /// sitting in the queue resolve to [`LiveError::ServerClosed`] instead of
    /// executing.  Requests already mid-execution run to completion.  Workers
    /// are joined later, by [`Server::shutdown`] or drop.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        drop(self.sender().take());
    }

    /// Drains the queue and joins every worker.  (Dropping the server does the
    /// same; this form surfaces the join explicitly.)
    pub fn shutdown(mut self) {
        self.join();
    }

    fn sender(&self) -> MutexGuard<'_, Option<mpsc::Sender<Job>>> {
        // The guarded value is a plain sender handle; a poisoned lock cannot
        // leave it inconsistent, so recover and keep serving.
        self.tx.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn join(&mut self) {
        drop(self.sender().take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

/// What a worker does with one request: [`handle`] it, in every server but the
/// ones this module's tests start to prove that a panic is contained.
type Handler = fn(&ServeGraph, Request) -> Result<Response, LiveError>;

fn worker_loop(
    graph: &ServeGraph,
    rx: &Mutex<mpsc::Receiver<Job>>,
    closed: &AtomicBool,
    handler: Handler,
) {
    let metrics = graph.options().telemetry.then(crate::telemetry::serve_metrics);
    if let Some(metrics) = metrics {
        metrics.workers.add(1);
    }
    loop {
        // Hold the queue lock only for the dequeue, never during execution.
        let job = {
            let queue = match rx.lock() {
                Ok(queue) => queue,
                Err(poisoned) => poisoned.into_inner(),
            };
            queue.recv()
        };
        match job {
            Ok(job) => {
                if let Some(metrics) = metrics {
                    metrics.queue_depth.sub(1);
                    metrics.busy_workers.add(1);
                    if let Some(submitted) = &job.submitted {
                        metrics.queue_wait_seconds.record(submitted.elapsed_nanos());
                    }
                }
                let result = if closed.load(Ordering::Acquire) {
                    // Abortive close: drain queued jobs without executing them.
                    Err(LiveError::ServerClosed)
                } else {
                    // Contain a panic: it becomes `WorkerPanicked` on this job's
                    // ticket and the thread serves on.  The handler only reads the
                    // shared graph (snapshots are immutable, the writer mutex
                    // recovers from poisoning), so unwinding tears no shared state.
                    panic::catch_unwind(AssertUnwindSafe(|| handler(graph, job.request)))
                        .unwrap_or_else(|p| Err(LiveError::WorkerPanicked(panic_message(&p))))
                };
                if let Some(metrics) = metrics {
                    metrics.busy_workers.sub(1);
                    if matches!(&result, Err(LiveError::WorkerPanicked(_))) {
                        metrics.worker_panics.inc();
                    }
                    if let Some(submitted) = &job.submitted {
                        metrics.request_seconds.record(submitted.elapsed_nanos());
                    }
                }
                // A send error means the client dropped its ticket; fine.
                let _ = job.reply.send(result);
            }
            Err(mpsc::RecvError) => {
                // Server shut down; the channel is drained.
                if let Some(metrics) = metrics {
                    metrics.workers.sub(1);
                }
                return;
            }
        }
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Executes one request against a freshly pinned snapshot.
fn handle(graph: &ServeGraph, request: Request) -> Result<Response, LiveError> {
    let metrics = graph.options().telemetry.then(crate::telemetry::serve_metrics);
    let epoch = graph.pin();
    let answer = match request {
        Request::Registered(id) => {
            if let Some(metrics) = metrics {
                metrics.req_registered.inc();
            }
            let table = epoch.table(id).ok_or(LiveError::UnknownQuery(id))?;
            ServeAnswer::Maintained(Arc::clone(table))
        }
        Request::AdHoc { text, mode } => {
            if let Some(metrics) = metrics {
                mode_counter(metrics, mode).inc();
            }
            let clause = trpq::parser::parse_match(&text)?;
            let plan = compile(&clause)?;
            execute_on(&plan, epoch.relations(), *graph.options(), mode)
        }
        Request::Compiled { plan, mode } => {
            if let Some(metrics) = metrics {
                mode_counter(metrics, mode).inc();
            }
            execute_on(&plan, epoch.relations(), *graph.options(), mode)
        }
        Request::Metrics(format) => {
            // Counted before rendering, so a scrape observes itself.
            if let Some(metrics) = metrics {
                metrics.req_metrics.inc();
            }
            ServeAnswer::Metrics(match format {
                MetricsFormat::Prometheus => obs::global().render_prometheus(),
                MetricsFormat::Json => obs::global().render_json(),
            })
        }
    };
    Ok(Response { epoch, answer, health: graph.health() })
}

/// The per-mode request counter an ad-hoc or prepared execution bumps.
fn mode_counter(metrics: &crate::telemetry::ServeMetrics, mode: AnswerMode) -> &obs::Counter {
    match mode {
        AnswerMode::Materialized => &metrics.req_full,
        AnswerMode::Compact => &metrics.req_compact,
        AnswerMode::Enumerate => &metrics.req_enum,
    }
}

/// Runs a plan set against an immutable snapshot in the requested answer mode.
fn execute_on(
    plan: &PlanSet,
    relations: &GraphRelations,
    options: ExecutionOptions,
    mode: AnswerMode,
) -> ServeAnswer {
    let answers = engine::execute_answers(plan, relations, &options.with_mode(mode));
    match mode {
        AnswerMode::Materialized => {
            ServeAnswer::Rows(answers.into_table().expect("materialized answers"))
        }
        AnswerMode::Compact => {
            ServeAnswer::Compact(answers.into_compact().expect("compact answers"))
        }
        AnswerMode::Enumerate => {
            let mut cursor = answers.into_cursor().expect("enumerated answers");
            let columns = cursor.columns().to_vec();
            let mut rows = Vec::new();
            for row in cursor.by_ref() {
                rows.push(row);
            }
            let peak_buffered = cursor.peak_buffered_rows();
            ServeAnswer::Streamed { rows: BindingTable::from_rows(columns, rows), peak_buffered }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::execute;
    use tgraph::Interval;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn story() -> Vec<Batch> {
        let mut b1 = Batch::new(1);
        b1.add_node("mia", "Person")
            .add_node("eve", "Person")
            .add_node("room", "Room")
            .add_existence("mia", iv(1, 10))
            .add_existence("eve", iv(1, 10))
            .add_existence("room", iv(1, 10))
            .set_property("mia", "risk", "high", iv(1, 10))
            .set_property("eve", "risk", "low", iv(1, 10));
        let mut b2 = Batch::new(2);
        b2.add_edge("meets1", "meets", "mia", "eve")
            .add_existence("meets1", iv(2, 3))
            .add_edge("visits1", "visits", "eve", "room")
            .add_existence("visits1", iv(5, 6));
        let mut b3 = Batch::new(8);
        b3.set_property("eve", "test", "pos", iv(8, 10));
        vec![b1, b2, b3]
    }

    const Q9ISH: &str =
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON live";

    #[test]
    fn served_answers_match_direct_execution() {
        let graph =
            Arc::new(ServeGraph::with_options(Itpg::empty(iv(1, 10)), ExecutionOptions::default()));
        let q = graph.register_text(Q9ISH).unwrap();
        let server = Server::start(Arc::clone(&graph), 2);
        for batch in story() {
            graph.ingest(&batch).unwrap();
        }

        let maintained = server.submit(Request::Registered(q)).wait().unwrap();
        assert_eq!(maintained.epoch.epoch(), Some(8));
        let adhoc = server
            .submit(Request::AdHoc { text: Q9ISH.into(), mode: AnswerMode::Materialized })
            .wait()
            .unwrap();
        let expected = execute(
            &compile(&trpq::parser::parse_match(Q9ISH).unwrap()).unwrap(),
            adhoc.epoch.relations(),
            &ExecutionOptions::default(),
        );
        assert_eq!(adhoc.answer.rows().unwrap(), &expected.table);
        assert_eq!(maintained.answer.rows().unwrap(), &expected.table);
        assert_eq!(expected.table.len(), 2);
        server.shutdown();
    }

    #[test]
    fn all_answer_modes_are_served() {
        let graph =
            Arc::new(ServeGraph::with_options(Itpg::empty(iv(1, 10)), ExecutionOptions::default()));
        let server = Server::start(Arc::clone(&graph), 2);
        for batch in story() {
            graph.ingest(&batch).unwrap();
        }
        let plan = Arc::new(compile(&trpq::parser::parse_match(Q9ISH).unwrap()).unwrap());
        let full = server
            .submit(Request::Compiled { plan: Arc::clone(&plan), mode: AnswerMode::Materialized })
            .wait()
            .unwrap();
        let streamed = server
            .submit(Request::Compiled { plan: Arc::clone(&plan), mode: AnswerMode::Enumerate })
            .wait()
            .unwrap();
        let compact =
            server.submit(Request::Compiled { plan, mode: AnswerMode::Compact }).wait().unwrap();
        let table = full.answer.rows().unwrap();
        assert_eq!(streamed.answer.rows().unwrap(), table);
        if let ServeAnswer::Streamed { peak_buffered, .. } = streamed.answer {
            assert!(peak_buffered <= table.len().max(1));
        }
        assert!(compact.answer.compact().is_some());
        server.shutdown();
    }

    #[test]
    fn responses_pin_the_epoch_they_were_served_from() {
        let graph = Arc::new(ServeGraph::new(iv(1, 10)));
        let server = Server::start(Arc::clone(&graph), 1);
        let batches = story();
        graph.ingest(&batches[0]).unwrap();
        let early = server
            .submit(Request::AdHoc { text: Q9ISH.into(), mode: AnswerMode::Materialized })
            .wait()
            .unwrap();
        let early_version = early.epoch.version();
        graph.ingest(&batches[1]).unwrap();
        graph.ingest(&batches[2]).unwrap();
        assert!(graph.epochs().is_retained(early_version), "the response pins its epoch");
        assert_eq!(early.epoch.epoch(), Some(1));
        assert!(early.answer.rows().unwrap().is_empty(), "nothing positive at epoch 1");
        drop(early);
        assert!(!graph.epochs().is_retained(early_version), "dropping the response unpins");
        server.shutdown();
    }

    #[test]
    fn unknown_queries_and_closed_servers_error() {
        let graph = Arc::new(ServeGraph::new(iv(1, 5)));
        let server = Server::start(Arc::clone(&graph), 1);
        let bogus = LiveQueryId(7);
        assert_eq!(
            server.submit(Request::Registered(bogus)).wait().unwrap_err(),
            LiveError::UnknownQuery(bogus)
        );
        let ticket = {
            let server = Server::start(Arc::clone(&graph), 1);
            let ticket = server.submit(Request::AdHoc {
                text: "MATCH (x:Person) ON g".into(),
                mode: AnswerMode::Materialized,
            });
            // Shutdown drains the queue first, so this ticket still resolves.
            server.shutdown();
            ticket
        };
        assert!(ticket.wait().is_ok(), "queued work drains before shutdown");
        server.shutdown();
    }

    const HEALTHY: &str = "MATCH (x:Person) ON live";

    fn populated_graph() -> Arc<ServeGraph> {
        let graph =
            Arc::new(ServeGraph::with_options(Itpg::empty(iv(1, 10)), ExecutionOptions::default()));
        let mut batch = Batch::new(1);
        batch.add_node("ann", "Person").add_existence("ann", iv(1, 9));
        graph.ingest(&batch).unwrap();
        graph
    }

    fn healthy_request() -> Request {
        Request::AdHoc { text: HEALTHY.into(), mode: AnswerMode::Materialized }
    }

    /// A valid plan cannot panic a worker, so these servers inject the fault:
    /// their workers panic on every compiled request and `handle` the rest.
    fn panics_on_compiled(graph: &ServeGraph, request: Request) -> Result<Response, LiveError> {
        if let Request::Compiled { .. } = request {
            panic!("injected fault: a compiled request panics its worker");
        }
        handle(graph, request)
    }

    fn panicking_request() -> Request {
        let plan = compile(&trpq::parser::parse_match(HEALTHY).unwrap()).unwrap();
        Request::Compiled { plan: Arc::new(plan), mode: AnswerMode::Materialized }
    }

    #[test]
    fn a_panicking_request_is_contained_and_the_worker_survives() {
        let graph = populated_graph();
        let server = Server::with_handler(Arc::clone(&graph), 1, panics_on_compiled);
        let err = server.submit(panicking_request()).wait().unwrap_err();
        let LiveError::WorkerPanicked(message) = err else {
            panic!("expected WorkerPanicked, got: {err:?}");
        };
        assert!(!message.is_empty(), "the panic payload is carried to the requester");
        // One worker only: the very thread that just unwound must serve this.
        let response = server.submit(healthy_request()).wait().unwrap();
        assert!(!response.answer.rows().unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn panicking_requests_do_not_take_down_neighbours() {
        let graph = populated_graph();
        let server = Server::with_handler(Arc::clone(&graph), 2, panics_on_compiled);
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    server.submit(panicking_request())
                } else {
                    server.submit(healthy_request())
                }
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait();
            if i % 2 == 0 {
                assert!(
                    matches!(result, Err(LiveError::WorkerPanicked(_))),
                    "ticket {i}: {result:?}"
                );
            } else {
                let response = result.unwrap_or_else(|e| panic!("ticket {i} failed: {e}"));
                assert!(!response.answer.rows().unwrap().is_empty());
            }
        }
        server.shutdown();
    }
}
