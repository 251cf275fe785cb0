//! The live graph handle: batch ingestion, epoch bookkeeping, and the registry
//! of maintained queries.

use std::time::Duration;

use engine::bindings::BindingTable;
use engine::plan::PlanSet;
use engine::{compile, DeltaStats, ExecutionOptions, GraphRelations};
use tgraph::{AppliedBatch, Batch, Interval, Itpg, Object};
use trpq::queries::QueryId;

use crate::error::LiveError;
use crate::query::{LiveQueryId, QueryState, RefreshStats};
use crate::write::NameIndex;

/// What one [`LiveGraph::apply`] call did: the graph-level outcome plus the
/// row-level delta written to the engine relations, and how long the two
/// phases of the apply took.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestStats {
    /// The graph-level outcome (created and touched objects, and the times
    /// the batch changed).
    pub applied: AppliedBatch,
    /// The row-level relation delta.
    pub delta: DeltaStats,
    /// Number of mutations in the batch.
    pub mutations: usize,
    /// Wall-clock time spent resolving the batch's names and checking
    /// Definition A.1 against the prospective existence.
    pub validate: Duration,
    /// Wall-clock time spent deriving the touched objects' segments and
    /// writing them to the rows.
    pub write: Duration,
}

/// A temporal graph that is fed by an append-only stream of epoched mutation
/// batches and maintains the answers of registered queries.
///
/// The graph is held once, as the interval relations ([`GraphRelations`]):
/// `apply` resolves a batch's names through the writer's name index,
/// validates it against the relations' existence columns and writes each
/// touched object's new segments to the rows, with the semantics of
/// [`Itpg::apply_batch`].  Beside the rows the graph keeps only that name
/// index and one maintained result table per registered query.  `apply`
/// marks every registered query dirty; `refresh` folds the accumulated
/// deltas into one query's answer (see [`RefreshStats`] for what a refresh
/// reports).
#[derive(Debug, Clone)]
pub struct LiveGraph {
    relations: GraphRelations,
    /// Name → object, with the labels and endpoints no row carries yet.
    index: NameIndex,
    options: ExecutionOptions,
    last_epoch: Option<u64>,
    batches_applied: usize,
    queries: Vec<QueryState>,
}

impl LiveGraph {
    /// An empty live graph over an initial temporal domain (the domain grows
    /// automatically as batches mention later time points), with default
    /// execution options.
    pub fn new(domain: Interval) -> Self {
        LiveGraph::with_options(Itpg::empty(domain), ExecutionOptions::default())
    }

    /// A live graph starting from an existing (bulk-loaded) graph — epoch zero
    /// of the delta log — with explicit execution options.
    pub fn with_options(itpg: Itpg, options: ExecutionOptions) -> Self {
        LiveGraph {
            relations: GraphRelations::from_itpg(&itpg),
            index: NameIndex::of(&itpg),
            options,
            last_epoch: None,
            batches_applied: 0,
            queries: Vec::new(),
        }
    }

    /// The incrementally maintained engine relations: the current graph,
    /// the state after every applied batch.
    pub fn relations(&self) -> &GraphRelations {
        &self.relations
    }

    /// The object a batch names `name`, if one was created.
    pub fn object_by_name(&self, name: &str) -> Option<Object> {
        self.index.object(name)
    }

    /// The epoch of the last applied batch, if any.
    pub fn epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// The number of batches applied so far.
    pub fn batches_applied(&self) -> usize {
        self.batches_applied
    }

    /// The execution options queries are maintained under.
    pub fn options(&self) -> &ExecutionOptions {
        &self.options
    }

    /// Ingests one batch: validates it and writes it to the relations, and
    /// marks every registered query dirty.  Epochs must be strictly
    /// increasing; a rejected batch leaves the relations, the name index and
    /// the queries untouched.
    pub fn apply(&mut self, batch: &Batch) -> Result<IngestStats, LiveError> {
        let watch = self.options.telemetry.then(obs::Stopwatch::start);
        if let Some(last) = self.last_epoch {
            if batch.epoch <= last {
                return Err(LiveError::NonMonotonicEpoch { last, got: batch.epoch });
            }
        }
        let written = self.index.apply(&mut self.relations, batch)?;
        for query in &mut self.queries {
            query.note_applied(&written.applied, &written.ends);
        }
        self.last_epoch = Some(batch.epoch);
        self.batches_applied += 1;
        if let Some(watch) = watch {
            let metrics = crate::telemetry::live_metrics();
            metrics.batches.inc();
            metrics.mutations.add(batch.mutations.len() as u64);
            metrics.apply_seconds.record(watch.elapsed_nanos());
            metrics.ingest_validate_seconds.record(obs::duration_nanos(written.validate));
            metrics.ingest_write_seconds.record(obs::duration_nanos(written.write));
        }
        Ok(IngestStats {
            applied: written.applied,
            delta: written.delta,
            mutations: batch.mutations.len(),
            validate: written.validate,
            write: written.write,
        })
    }

    /// Registers a compiled plan set for maintenance.  The initial answer is
    /// computed immediately (a full evaluation); subsequent [`LiveGraph::refresh`]
    /// calls keep it in sync with applied batches.
    pub fn register(&mut self, plan_set: PlanSet) -> LiveQueryId {
        let state = QueryState::build(plan_set, &self.relations);
        self.queries.push(state);
        LiveQueryId(self.queries.len() - 1)
    }

    /// Registers a query given in the practical `MATCH …` surface syntax.
    pub fn register_text(&mut self, query: &str) -> Result<LiveQueryId, LiveError> {
        let clause = trpq::parser::parse_match(query)?;
        Ok(self.register(compile(&clause)?))
    }

    /// Registers one of the paper's benchmark queries Q1–Q12.
    pub fn register_query(&mut self, id: QueryId) -> LiveQueryId {
        self.register(engine::queries::plan_for(id))
    }

    /// Folds every batch applied since the last refresh into the query's
    /// maintained answer.  A refresh with nothing pending is a cheap no-op.
    pub fn refresh(&mut self, id: LiveQueryId) -> RefreshStats {
        let stats = self.queries[id.0].refresh(&self.relations, self.last_epoch);
        if self.options.telemetry {
            let metrics = crate::telemetry::live_metrics();
            if stats.fallback_full {
                metrics.refreshes_full.inc();
            } else {
                metrics.refreshes_delta.inc();
            }
            metrics.refresh_seconds.record(obs::duration_nanos(stats.duration));
            metrics.refresh_seeding_seconds.record(obs::duration_nanos(stats.seeding));
            metrics.refresh_rerun_seconds.record(obs::duration_nanos(stats.rerun));
            metrics.refresh_merge_seconds.record(obs::duration_nanos(stats.merge));
            metrics.rows_added.add(stats.rows_added as u64);
            metrics.rows_retracted.add(stats.rows_retracted as u64);
        }
        stats
    }

    /// Refreshes every registered query, returning one stats record per query
    /// in registration order.
    pub fn refresh_all(&mut self) -> Vec<RefreshStats> {
        (0..self.queries.len()).map(|i| self.refresh(LiveQueryId(i))).collect()
    }

    /// The maintained answer of a registered query, current as of its last
    /// refresh.
    pub fn table(&self, id: LiveQueryId) -> &BindingTable {
        self.queries[id.0].table()
    }

    /// The number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The compiled plan set of a registered query — what a from-scratch
    /// re-execution of the maintained answer runs.
    pub fn plan_set(&self, id: LiveQueryId) -> &PlanSet {
        self.queries[id.0].plan_set()
    }

    /// Shared handles to every maintained answer table, in registration order.
    /// Cloning a handle is O(1); this is what MVCC epoch snapshots retain so
    /// pinned readers keep the epoch's answers while later refreshes swap in
    /// new tables.
    pub fn table_handles(&self) -> Vec<std::sync::Arc<BindingTable>> {
        self.queries.iter().map(|q| q.table_handle()).collect()
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

    /// Replays the tiny contact-tracing story of the executor tests as a stream.
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

    /// The reference semantics: `batches` replayed into an `Itpg` over `domain`.
    fn oracle(domain: Interval, batches: &[Batch]) -> Itpg {
        let mut itpg = Itpg::empty(domain);
        for batch in batches {
            itpg.apply_batch(batch).unwrap();
        }
        itpg
    }

    const Q9ISH: &str =
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON live";

    #[test]
    fn maintained_answers_track_the_stream() {
        let mut graph =
            LiveGraph::with_options(Itpg::empty(iv(1, 10)), ExecutionOptions::default());
        let q = graph.register_text(Q9ISH).unwrap();
        assert!(graph.table(q).is_empty());

        let batches = story();
        graph.apply(&batches[0]).unwrap();
        let stats = graph.refresh(q);
        assert_eq!(stats.output_rows, 0, "no meetings and no positive test yet");
        assert!(!stats.fallback_full, "a fixed-hop plan never falls back");

        graph.apply(&batches[1]).unwrap();
        let stats = graph.refresh(q);
        assert_eq!(stats.output_rows, 0, "still nobody positive");
        assert!(stats.affected_seeds > 0);

        graph.apply(&batches[2]).unwrap();
        let stats = graph.refresh(q);
        assert_eq!(stats.rows_added, 2, "mia's meeting times 2 and 3 become answers");
        assert_eq!(stats.rows_retracted, 0);
        assert_eq!(graph.table(q).len(), 2);

        // The maintained answer matches a from-scratch execution exactly.
        let scratch = GraphRelations::from_itpg(&oracle(iv(1, 10), &batches));
        let clause = trpq::parser::parse_match(Q9ISH).unwrap();
        let expected = execute(&compile(&clause).unwrap(), &scratch, &ExecutionOptions::default());
        assert_eq!(graph.table(q), &expected.table);
    }

    #[test]
    fn structural_closures_rerun_only_the_seed_rows_a_batch_can_reach() {
        const REACH: &str = "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON live";
        const RECUR: &str =
            "MATCH (x:Person)-/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON live";
        // Over a domain this wide, RECUR's time-advancing closure has no hop
        // bound the sweep may use.
        let options = ExecutionOptions::default();
        let mut graph = LiveGraph::with_options(Itpg::empty(iv(1, 1000)), options);
        let reach = graph.register_text(REACH).unwrap();
        let recur = graph.register_text(RECUR).unwrap();
        let mut stream = story();
        // zoe arrives after everyone else's rows end...
        let mut b4 = Batch::new(9);
        b4.add_node("zoe", "Person").add_existence("zoe", iv(12, 14));
        // ...and mia's test at time 2 splits her row, meeting eve's row before
        // her positive test and the room's row, but not eve's later row or zoe's.
        let mut b5 = Batch::new(10);
        b5.set_property("mia", "test", "pos", iv(2, 2));
        stream.extend([b4, b5]);
        // REACH re-runs the rows that are new or meet the batch's times: all
        // three at first; the three `[1, 10]` rows the edges' times meet; eve's
        // two new rows beside mia's and the room's; zoe's row alone; mia's three
        // new rows, eve's `[1, 7]` and the room's.
        let reach_seed_rows = [3, 3, 4, 1, 5];
        let mut oracle = Itpg::empty(iv(1, 1000));
        for (batch, expected_rows) in stream.iter().zip(reach_seed_rows) {
            graph.apply(batch).unwrap();
            oracle.apply_batch(batch).unwrap();
            let live_rows = graph.relations().seed_rows().len();
            let stats = graph.refresh(reach);
            assert!(!stats.fallback_full, "a structural closure never re-runs every seed");
            assert_eq!(stats.seed_rows, expected_rows, "REACH at epoch {}", batch.epoch);
            let stats = graph.refresh(recur);
            assert!(stats.fallback_full, "a time-moving unbounded plan re-runs every seed");
            assert_eq!(stats.seed_rows, live_rows);
            let scratch = GraphRelations::from_itpg(&oracle);
            for (id, text) in [(reach, REACH), (recur, RECUR)] {
                let clause = trpq::parser::parse_match(text).unwrap();
                let expected = execute(&compile(&clause).unwrap(), &scratch, &options);
                assert_eq!(graph.table(id), &expected.table, "{text} at epoch {}", batch.epoch);
            }
        }
        assert_eq!(graph.relations().seed_rows().len(), 7);
    }

    #[test]
    fn a_row_two_seeds_produce_survives_one_of_them_leaving() {
        const HIGH: &str = "MATCH (:Person {risk = 'high'})-/FWD/:meets/FWD/-(y) ON live";
        let options = ExecutionOptions::default();
        let mut graph = LiveGraph::with_options(Itpg::empty(iv(1, 10)), options);
        let q = graph.register_text(HIGH).unwrap();
        // ann and bob are both high-risk and both meet cat at time 3, so cat's
        // row at 3 is cached twice, once per seed.
        let mut b1 = Batch::new(1);
        for name in ["ann", "bob", "cat"] {
            b1.add_node(name, "Person").add_existence(name, iv(1, 10));
        }
        b1.set_property("ann", "risk", "high", iv(1, 10))
            .set_property("bob", "risk", "high", iv(1, 10))
            .add_edge("m1", "meets", "ann", "cat")
            .add_existence("m1", iv(3, 3))
            .add_edge("m2", "meets", "bob", "cat")
            .add_existence("m2", iv(3, 3));
        graph.apply(&b1).unwrap();
        let stats = graph.refresh(q);
        assert_eq!((stats.rows_added, stats.rows_retracted, stats.output_rows), (1, 0, 1));
        // ann turns low-risk: her seed row no longer yields cat's row, bob's does.
        let mut b2 = Batch::new(2);
        b2.set_property("ann", "risk", "low", iv(1, 10));
        graph.apply(&b2).unwrap();
        let stats = graph.refresh(q);
        assert!(stats.seed_rows > 0, "ann's new row is re-run");
        assert_eq!((stats.rows_added, stats.rows_retracted, stats.output_rows), (0, 0, 1));
        let scratch = GraphRelations::from_itpg(&oracle(iv(1, 10), &[b1, b2]));
        let clause = trpq::parser::parse_match(HIGH).unwrap();
        let expected = execute(&compile(&clause).unwrap(), &scratch, &options);
        assert_eq!(graph.table(q), &expected.table);
        // bob turns low-risk too: now the row goes.
        let mut b3 = Batch::new(3);
        b3.set_property("bob", "risk", "low", iv(1, 10));
        graph.apply(&b3).unwrap();
        let stats = graph.refresh(q);
        assert_eq!((stats.rows_added, stats.rows_retracted, stats.output_rows), (0, 1, 0));
        assert!(stats.seeding + stats.rerun + stats.merge <= stats.duration);
    }

    #[test]
    fn epochs_must_increase() {
        let mut graph = LiveGraph::new(iv(1, 5));
        let mut b = Batch::new(3);
        b.add_node("a", "Person").add_existence("a", iv(1, 2));
        graph.apply(&b).unwrap();
        let mut stale = Batch::new(3);
        stale.add_node("b", "Person").add_existence("b", iv(1, 2));
        assert!(matches!(
            graph.apply(&stale),
            Err(LiveError::NonMonotonicEpoch { last: 3, got: 3 })
        ));
        assert_eq!(graph.epoch(), Some(3));
        assert_eq!(graph.batches_applied(), 1);
        stale.epoch = 4;
        graph.apply(&stale).unwrap();
        assert_eq!(graph.relations().stats().nodes, 2);
    }

    #[test]
    fn refresh_without_pending_deltas_is_a_no_op() {
        let mut graph = LiveGraph::new(iv(1, 10));
        let q = graph.register_query(QueryId::Q1);
        let mut b = Batch::new(1);
        b.add_node("p", "Person").add_existence("p", iv(1, 9));
        graph.apply(&b).unwrap();
        let first = graph.refresh(q);
        assert_eq!(first.rows_added, 1);
        let second = graph.refresh(q);
        assert_eq!((second.rows_added, second.rows_retracted, second.affected_seeds), (0, 0, 0));
        assert_eq!(second.output_rows, 1);
    }

    #[test]
    fn registration_after_ingestion_sees_the_current_graph() {
        let mut graph = LiveGraph::new(iv(1, 10));
        for batch in story() {
            graph.apply(&batch).unwrap();
        }
        let q = graph.register_text(Q9ISH).unwrap();
        assert_eq!(graph.table(q).len(), 2);
        // And keeps being maintained afterwards.
        let mut b4 = Batch::new(9);
        b4.add_node("zoe", "Person")
            .add_existence("zoe", iv(1, 10))
            .set_property("zoe", "risk", "high", iv(1, 10))
            .add_edge("meets2", "meets", "zoe", "eve")
            .add_existence("meets2", iv(4, 4));
        graph.apply(&b4).unwrap();
        let stats = graph.refresh(q);
        assert_eq!(stats.rows_added, 1, "zoe's meeting at time 4 reaches the positive test");
        assert_eq!(graph.table(q).len(), 3);
    }
}
