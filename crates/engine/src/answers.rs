//! The layered answer surface of the engine: one [`Query`] entry point, three
//! [`AnswerMode`]s, and output-sensitive evaluation underneath the lazy two.
//!
//! Closure-heavy queries materialise binding tables that can dwarf the graph (the
//! Figure-7 output-size blowup of the paper), yet most callers page the first few
//! answers or only need per-pair reachability windows.  The [`Answers`] returned by
//! [`Query::run`] therefore comes in three shapes:
//!
//! * **[`AnswerMode::Materialized`]** (default) — the full [`BindingTable`], exactly
//!   what [`crate::executor::execute`] produces.
//! * **[`AnswerMode::Enumerate`]** — an [`AnswerCursor`]: a pull-based iterator that
//!   runs Steps 1–2 eagerly but performs Step-3 expansion lazily, one due
//!   [`Chain`] at a time, into one min-heap of rows, so rows stream out in the
//!   table's canonical order with bounded delay and without ever buffering more
//!   than the chains whose outputs overlap the current position.
//! * **[`AnswerMode::Compact`]** — [`CompactAnswers`]: per-`(source, target)`
//!   coalesced [`IntervalSet`]s computed straight from the interval-level chains,
//!   skipping Step-3 entirely (the compressed answer sets of *Compact Answers to
//!   Temporal Path Queries*).
//!
//! The enumeration order and the compact projection are both pinned against the
//! materialised table by `tests/answer_modes.rs` on random graphs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use tgraph::{Interval, IntervalSet, Object};
use trpq::parser::MatchClause;
use trpq::queries::QueryId;
use trpq::Result;

use crate::bindings::{Binding, BindingTable, TimeRef};
use crate::chain::Chain;
use crate::executor::{execute_answers, ExecutionOptions, QueryOutput, QueryStats};
use crate::plan::{EnginePlan, PlanSet};
use crate::relations::GraphRelations;
use crate::steps::expand::{expand_chains, ChainView};

/// How [`Query::run`] shapes its answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerMode {
    /// Materialise the full binding table (Step 3 runs eagerly).
    #[default]
    Materialized,
    /// Skip Step 3: return per-`(source, target)` coalesced interval sets.
    Compact,
    /// Defer Step 3: return a cursor that expands chains on demand, streaming rows
    /// in the table's canonical order.
    Enumerate,
}

impl AnswerMode {
    /// The mode's name as it appears in perf reports (`full` / `compact` / `enum`).
    pub fn name(self) -> &'static str {
        match self {
            AnswerMode::Materialized => "full",
            AnswerMode::Compact => "compact",
            AnswerMode::Enumerate => "enum",
        }
    }
}

/// A compiled query plus the options to run it with — the single entry point that
/// replaces the deprecated `execute_clause` / `execute_text` / `execute_query`
/// trio.
///
/// ```
/// use engine::{GraphRelations, Query};
/// use tgraph::{Interval, ItpgBuilder};
///
/// let mut b = ItpgBuilder::new();
/// let ann = b.add_node("ann", "Person").unwrap();
/// b.add_existence(ann, Interval::of(1, 9)).unwrap();
/// let graph = GraphRelations::from_itpg(&b.build().unwrap());
///
/// let answers = Query::parse("MATCH (x:Person) ON g").unwrap().run(&graph);
/// assert_eq!(answers.stats().output_rows, 1);
/// assert_eq!(answers.table().unwrap().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    plan_set: PlanSet,
    options: ExecutionOptions,
}

impl Query {
    /// Parses and compiles a query given in the practical surface syntax.
    pub fn parse(text: &str) -> Result<Self> {
        Query::from_clause(&trpq::parser::parse_match(text)?)
    }

    /// Compiles a parsed `MATCH` clause.
    pub fn from_clause(clause: &MatchClause) -> Result<Self> {
        // Compilation happens before any `ExecutionOptions` exist, so the
        // compile span is gated on the default telemetry setting (on): it is
        // a cold path, entered once per query text.
        let _span = obs::Span::enter(
            ExecutionOptions::default()
                .telemetry
                .then(|| &crate::telemetry::metrics().span_compile),
        );
        Ok(Query::from_plan_set(crate::compiler::compile(clause)?))
    }

    /// One of the paper's benchmark queries Q1–Q12, from the precompiled plan table
    /// of [`crate::queries`].
    pub fn benchmark(id: QueryId) -> Self {
        Query::from_plan_set(crate::queries::plan_for(id))
    }

    /// Wraps an already-compiled plan set.
    pub fn from_plan_set(plan_set: PlanSet) -> Self {
        Query { plan_set, options: ExecutionOptions::default() }
    }

    /// Replaces the execution options wholesale.
    pub fn with_options(mut self, options: ExecutionOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the answer mode.
    pub fn with_mode(mut self, mode: AnswerMode) -> Self {
        self.options = self.options.with_mode(mode);
        self
    }

    /// The compiled plan set.
    pub fn plan_set(&self) -> &PlanSet {
        &self.plan_set
    }

    /// The options the query will run with.
    pub fn options(&self) -> &ExecutionOptions {
        &self.options
    }

    /// Runs the query over a graph, shaping the answers according to
    /// [`ExecutionOptions::answer_mode`].
    pub fn run(&self, graph: &GraphRelations) -> Answers {
        execute_answers(&self.plan_set, graph, &self.options)
    }
}

/// The answers of one query execution, in the shape selected by the
/// [`AnswerMode`], plus honest statistics.
#[derive(Debug)]
pub struct Answers {
    set: AnswerSet,
    base: QueryStats,
}

/// The mode-specific payload of an [`Answers`].
#[derive(Debug)]
pub enum AnswerSet {
    /// The materialised binding table.
    Table(BindingTable),
    /// Per-`(source, target)` coalesced interval answers.
    Compact(CompactAnswers),
    /// A lazy cursor over the binding table's canonical order.
    Cursor(AnswerCursor),
}

impl Answers {
    pub(crate) fn new(set: AnswerSet, base: QueryStats) -> Self {
        Answers { set, base }
    }

    /// The mode these answers were produced under.
    pub fn mode(&self) -> AnswerMode {
        match &self.set {
            AnswerSet::Table(_) => AnswerMode::Materialized,
            AnswerSet::Compact(_) => AnswerMode::Compact,
            AnswerSet::Cursor(_) => AnswerMode::Enumerate,
        }
    }

    /// Mode-aware statistics: `output_rows` is the table's row count when
    /// materialised, the number of `(source, target)` pairs for compact answers,
    /// and the number of rows yielded *so far* for a cursor (it grows as the
    /// cursor drains — lazy evaluation cannot know the total without doing the
    /// work).  `total_time` likewise covers only the work done eagerly: for the
    /// lazy modes that is Steps 1–2 plus answer construction, never Step 3.
    pub fn stats(&self) -> QueryStats {
        let mut stats = self.base;
        match &self.set {
            AnswerSet::Table(_) => {}
            AnswerSet::Compact(compact) => stats.output_rows = compact.num_pairs(),
            AnswerSet::Cursor(cursor) => {
                stats.output_rows = cursor.rows_yielded();
                // Keep the cursor's buffering high-water mark in the stats:
                // without this, the measurement was lost as soon as the
                // cursor was consumed or dropped mid-drain.
                stats.peak_buffered_rows = cursor.peak_buffered_rows();
            }
        }
        stats
    }

    /// The mode-specific payload.
    pub fn set(&self) -> &AnswerSet {
        &self.set
    }

    /// The binding table, if the mode was [`AnswerMode::Materialized`].
    pub fn table(&self) -> Option<&BindingTable> {
        match &self.set {
            AnswerSet::Table(table) => Some(table),
            _ => None,
        }
    }

    /// The compact answers, if the mode was [`AnswerMode::Compact`].
    pub fn compact(&self) -> Option<&CompactAnswers> {
        match &self.set {
            AnswerSet::Compact(compact) => Some(compact),
            _ => None,
        }
    }

    /// The cursor, if the mode was [`AnswerMode::Enumerate`].
    pub fn cursor_mut(&mut self) -> Option<&mut AnswerCursor> {
        match &mut self.set {
            AnswerSet::Cursor(cursor) => Some(cursor),
            _ => None,
        }
    }

    /// Consumes the answers, returning the binding table if materialised.
    pub fn into_table(self) -> Option<BindingTable> {
        match self.set {
            AnswerSet::Table(table) => Some(table),
            _ => None,
        }
    }

    /// Consumes the answers, returning the cursor if enumerating.
    pub fn into_cursor(self) -> Option<AnswerCursor> {
        match self.set {
            AnswerSet::Cursor(cursor) => Some(cursor),
            _ => None,
        }
    }

    /// Consumes the answers, returning the compact answer set if compact.
    pub fn into_compact(self) -> Option<CompactAnswers> {
        match self.set {
            AnswerSet::Compact(compact) => Some(compact),
            _ => None,
        }
    }

    /// Consumes materialised answers into the classic `{ table, stats }` output.
    pub fn into_output(self) -> Option<QueryOutput> {
        let stats = self.stats();
        self.into_table().map(|table| QueryOutput { table, stats })
    }
}

// ---------------------------------------------------------------------------
// Compact answers
// ---------------------------------------------------------------------------

/// Per-`(source, target)` coalesced interval answers, computed without Step-3
/// expansion.
///
/// The source is the object bound to the query's first variable and the target the
/// object bound to its last; the interval set collects every time point the last
/// variable can be bound at in some full match of that pair — exactly the
/// projection of the materialised table onto `(first object, last object, last
/// binding time)`, coalesced (see [`CompactAnswers::from_table`], which computes
/// that projection and is what the property tests compare against).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactAnswers {
    /// Variable names of the source and target columns.
    columns: (String, String),
    pairs: BTreeMap<(Object, Object), IntervalSet>,
}

impl CompactAnswers {
    /// The `(source, target)` variable names.
    pub fn columns(&self) -> (&str, &str) {
        (&self.columns.0, &self.columns.1)
    }

    /// The number of `(source, target)` pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pair has answers.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The answer intervals for one pair, if any.
    pub fn get(&self, source: Object, target: Object) -> Option<&IntervalSet> {
        self.pairs.get(&(source, target))
    }

    /// Iterates over the pairs and their coalesced answer intervals, in
    /// `(source, target)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Object, Object), &IntervalSet)> {
        self.pairs.iter()
    }

    /// The total number of time points across all pairs.
    pub fn num_points(&self) -> u128 {
        self.pairs.values().map(IntervalSet::num_points).sum()
    }

    /// The projection of a materialised binding table onto
    /// `(first object, last object, last binding time)`, coalesced — the reference
    /// semantics of compact answers, used to pin the chain-level construction.
    pub fn from_table(table: &BindingTable) -> Self {
        let columns = (
            table.columns.first().cloned().unwrap_or_default(),
            table.columns.last().cloned().unwrap_or_default(),
        );
        let mut pairs: BTreeMap<(Object, Object), IntervalSet> = BTreeMap::new();
        for row in table.iter() {
            let (Some(first), Some(last)) = (row.first(), row.last()) else { continue };
            let interval = match last.time {
                TimeRef::Point(t) => Interval::point(t),
                TimeRef::Interval(iv) => iv,
            };
            pairs.entry((first.object, last.object)).or_default().insert(interval);
        }
        CompactAnswers { columns, pairs }
    }

    fn insert(&mut self, source: Object, target: Object, interval: Interval) {
        self.pairs.entry((source, target)).or_default().insert(interval);
    }
}

/// Builds compact answers from the interval-level chains of every plan, without
/// expanding a single row: per chain, the target's answer times are the times of
/// its segment from which every later segment can be completed
/// ([`ChainView::compact`]).
pub(crate) fn compact_from_chains(
    plan_set: &PlanSet,
    per_plan_chains: &[Vec<Chain>],
) -> CompactAnswers {
    let mut compact = CompactAnswers {
        columns: (
            plan_set.variables().first().cloned().unwrap_or_default(),
            plan_set.variables().last().cloned().unwrap_or_default(),
        ),
        pairs: BTreeMap::new(),
    };
    for (plan, chains) in plan_set.plans().iter().zip(per_plan_chains) {
        for chain in chains {
            if let Some((source, target, window)) = ChainView::new(plan, chain).compact() {
                compact.insert(source, target, window);
            }
        }
    }
    compact
}

// ---------------------------------------------------------------------------
// The enumeration cursor
// ---------------------------------------------------------------------------

/// A pull-based cursor over a query's binding rows, in the table's canonical
/// (sorted, deduplicated) order, expanding chains lazily.
///
/// The cursor owns the interval-level chains of Steps 1–2.  Every chain has a
/// cheap *lower bound* on the rows it can produce (its bound objects at each
/// segment interval's start); chains are kept sorted by that bound and expanded
/// only once the smallest buffered row reaches it.  Expanded rows wait in one
/// min-heap, so the delay between two rows is bounded by the expansion of the
/// chains that come due, and the buffered rows by the output of the chains whose
/// row ranges overlap the current position, never the full table.
#[derive(Debug)]
pub struct AnswerCursor {
    columns: Vec<String>,
    plans: Vec<EnginePlan>,
    /// Unopened chains, ascending by `lower`; `next_pending` indexes the first.
    pending: Vec<PendingChain>,
    next_pending: usize,
    /// Expanded rows not yet emitted, smallest first.  A row two chains expand to
    /// sits in it twice.
    heap: BinaryHeap<Reverse<Vec<Binding>>>,
    rows_yielded: usize,
    peak_buffered_rows: usize,
    /// Whether the drop handler folds this cursor's yield count and buffering
    /// high-water mark into the metric registry — the only place those
    /// measurements survive a cursor abandoned mid-drain.
    telemetry: bool,
}

/// An unopened chain: the plan it belongs to plus the lower bound on its rows.
#[derive(Debug)]
struct PendingChain {
    lower: Vec<Binding>,
    plan: usize,
    chain: Chain,
}

impl AnswerCursor {
    /// Builds a cursor over the chains of every plan alternative.  `plans` and
    /// `chains` are indexed alike; the cursor owns both (expansion needs no graph
    /// access).
    pub(crate) fn new(
        plan_set: &PlanSet,
        per_plan_chains: Vec<Vec<Chain>>,
        telemetry: bool,
    ) -> Self {
        let mut pending = Vec::new();
        for (plan_index, chains) in per_plan_chains.into_iter().enumerate() {
            let plan = &plan_set.plans()[plan_index];
            for chain in chains {
                let lower = ChainView::new(plan, &chain).lower_bound();
                pending.push(PendingChain { lower, plan: plan_index, chain });
            }
        }
        pending.sort_by(|a, b| a.lower.cmp(&b.lower));
        AnswerCursor {
            columns: plan_set.variables().to_vec(),
            plans: plan_set.plans().to_vec(),
            pending,
            next_pending: 0,
            heap: BinaryHeap::new(),
            rows_yielded: 0,
            peak_buffered_rows: 0,
            telemetry,
        }
    }

    /// The variable names, in column order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The number of rows yielded so far.
    pub fn rows_yielded(&self) -> usize {
        self.rows_yielded
    }

    /// The maximum number of rows ever buffered between expansion and emission —
    /// the cursor's answer-memory high-water mark, reported by the perf harness
    /// against the materialised table's row count.
    pub fn peak_buffered_rows(&self) -> usize {
        self.peak_buffered_rows
    }

    /// Pulls the next `n` rows (fewer if the answers run out).
    pub fn page(&mut self, n: usize) -> Vec<Vec<Binding>> {
        self.by_ref().take(n).collect()
    }

    /// Expands every pending chain whose lower bound does not exceed the smallest
    /// buffered row into the heap.
    ///
    /// After this returns, every still-unopened chain has a lower bound strictly
    /// greater than the heap's minimum — so every copy of that row is already in
    /// the heap, and it is safe to emit.
    fn open_due(&mut self) {
        let mut rows = Vec::new();
        while let Some(due) = self.pending.get(self.next_pending) {
            if self.heap.peek().is_some_and(|Reverse(min)| due.lower > *min) {
                break;
            }
            self.next_pending += 1;
            let chain = std::slice::from_ref(&due.chain);
            expand_chains(&self.plans[due.plan], chain, &mut rows);
            self.heap.extend(rows.drain(..).map(Reverse));
        }
        self.peak_buffered_rows = self.peak_buffered_rows.max(self.heap.len());
    }
}

impl Drop for AnswerCursor {
    /// Retains the cursor's measurements past its lifetime: the yield count
    /// and the buffering high-water mark go to the metric registry, so a
    /// cursor dropped mid-drain (where `Answers::stats` can no longer be
    /// asked) still reports how much memory bounded-delay enumeration used.
    fn drop(&mut self) {
        if self.telemetry {
            let m = crate::telemetry::metrics();
            m.cursor_rows.add(self.rows_yielded as u64);
            m.cursor_peak_buffered.record(self.peak_buffered_rows as u64);
        }
    }
}

impl Iterator for AnswerCursor {
    type Item = Vec<Binding>;

    fn next(&mut self) -> Option<Vec<Binding>> {
        self.open_due();
        let Reverse(row) = self.heap.pop()?;
        // Every copy of the minimum is in the heap (see `open_due`): drop the rest.
        while self.heap.peek().is_some_and(|Reverse(next)| *next == row) {
            self.heap.pop();
        }
        self.rows_yielded += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, Itpg, ItpgBuilder};

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// The miniature contact-tracing graph of the executor tests, plus a second
    /// meeting of mia and eve over the same times: two edges, so two chains of one
    /// plan expand to the same rows.
    fn tiny() -> Itpg {
        let mut b = ItpgBuilder::new();
        let mia = b.add_node("mia", "Person").unwrap();
        let eve = b.add_node("eve", "Person").unwrap();
        let room = b.add_node("room", "Room").unwrap();
        let meets = b.add_edge("meets1", "meets", mia, eve).unwrap();
        let again = b.add_edge("meets2", "meets", mia, eve).unwrap();
        let visits = b.add_edge("visits1", "visits", eve, room).unwrap();
        b.add_existence(mia, iv(1, 10)).unwrap();
        b.add_existence(eve, iv(1, 10)).unwrap();
        b.add_existence(room, iv(1, 10)).unwrap();
        b.add_existence(meets, iv(2, 3)).unwrap();
        b.add_existence(again, iv(2, 3)).unwrap();
        b.add_existence(visits, iv(5, 6)).unwrap();
        b.set_property(mia, "risk", "high", iv(1, 10)).unwrap();
        b.set_property(eve, "risk", "low", iv(1, 10)).unwrap();
        b.set_property(eve, "test", "pos", iv(8, 10)).unwrap();
        b.domain(iv(1, 10)).build().unwrap()
    }

    fn relations() -> GraphRelations {
        GraphRelations::from_itpg(&tiny())
    }

    const QUERIES: &[&str] = &[
        "MATCH (x:Person {risk = 'high'}) ON g",
        "MATCH (x:Person {risk = 'high'})-[z:meets]->(y:Person {risk = 'low'}) ON g",
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g",
        "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON g",
        "MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g",
        "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT*)[1,_]/-({test = 'pos'}) ON g",
        "MATCH (x:Person)-/(FWD/:meets/FWD + FWD/:visits/FWD)*/-(y) ON g",
        "MATCH (x)-/NEXT[3,1]/-(y) ON g",
        PARALLEL,
        ALTERNATIVES,
    ];

    /// A row twice from one plan: once through each of the two meetings.
    const PARALLEL: &str = "MATCH (x:Person)-/FWD/:meets/FWD/NEXT/-(y:Person) ON g";

    /// A row twice across plan alternatives: a meeting is also an edge.
    const ALTERNATIVES: &str = "MATCH (x:Person)-/(FWD/:meets/FWD + FWD/FWD)/-(y:Person) ON g";

    /// The rows each chain of each plan alternative of `text` expands to.
    fn expansions(g: &GraphRelations, text: &str) -> Vec<Vec<Vec<Vec<Binding>>>> {
        let query = Query::parse(text).unwrap();
        let plan_set = query.plan_set();
        let mut stats = crate::steps::StepStats::default();
        let seeds = g.seed_rows();
        let per_plan = plan_set.plans().iter().map(|plan| {
            let chains = crate::executor::run_plan_seeded(plan, g, &seeds, &mut stats);
            let expand = |chain: &Chain| {
                let mut rows = Vec::new();
                expand_chains(plan, std::slice::from_ref(chain), &mut rows);
                rows
            };
            chains.iter().map(expand).collect()
        });
        per_plan.collect()
    }

    #[test]
    fn the_duplicate_queries_expand_a_row_twice() {
        let g = relations();
        let shared = |a: &[Vec<Binding>], b: &[Vec<Binding>]| a.iter().any(|row| b.contains(row));
        // Both copies come from chains of one plan...
        let parallel = expansions(&g, PARALLEL);
        assert_eq!(parallel.len(), 1);
        let chains = &parallel[0];
        assert!(chains.len() == 2 && shared(&chains[0], &chains[1]), "{chains:?}");
        // ...or from two plan alternatives.
        let alternatives: Vec<Vec<Vec<Binding>>> =
            expansions(&g, ALTERNATIVES).into_iter().map(|plan| plan.concat()).collect();
        assert_eq!(alternatives.len(), 2);
        assert!(shared(&alternatives[0], &alternatives[1]), "{alternatives:?}");
        let table = Query::parse(ALTERNATIVES).unwrap().run(&g).into_table().unwrap();
        assert!(table.len() < alternatives.concat().len());
    }

    #[test]
    fn cursor_streams_the_materialized_table_in_order() {
        let g = relations();
        for query in QUERIES {
            let q = Query::parse(query).unwrap().with_options(ExecutionOptions::default());
            let table = q.run(&g).into_table().expect("default mode materialises");
            let mut cursor =
                q.with_mode(AnswerMode::Enumerate).run(&g).into_cursor().expect("cursor mode");
            let streamed: Vec<Vec<Binding>> = cursor.by_ref().collect();
            assert_eq!(streamed.as_slice(), table.rows(), "{query}");
            assert_eq!(cursor.rows_yielded(), table.len(), "{query}");
            assert!(cursor.next().is_none(), "cursor is fused after draining");
        }
    }

    #[test]
    fn cursor_pages_without_buffering_everything() {
        let g = relations();
        // The structural closure produces one row per chain; paging the first two
        // rows must not expand every chain.
        let q = Query::parse("MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g")
            .unwrap()
            .with_options(ExecutionOptions::default())
            .with_mode(AnswerMode::Enumerate);
        let table = q.clone().with_mode(AnswerMode::Materialized).run(&g).into_table().unwrap();
        let mut answers = q.run(&g);
        let cursor = answers.cursor_mut().unwrap();
        let first = cursor.page(2);
        assert_eq!(first.as_slice(), &table.rows()[..2]);
        assert!(
            cursor.peak_buffered_rows() < table.len(),
            "paging 2 of {} rows buffered {}",
            table.len(),
            cursor.peak_buffered_rows()
        );
        // Honest stats: output_rows tracks what was actually yielded.
        assert_eq!(answers.stats().output_rows, 2);
        // A page longer than what is left returns the rest, without reserving it.
        let rest = answers.cursor_mut().unwrap().page(usize::MAX);
        assert_eq!(rest.as_slice(), &table.rows()[2..]);
        assert!(answers.cursor_mut().unwrap().page(usize::MAX).is_empty());
        assert_eq!(answers.stats().output_rows, table.len());
    }

    #[test]
    fn compact_answers_match_the_table_projection() {
        let g = relations();
        for query in QUERIES {
            let q = Query::parse(query).unwrap().with_options(ExecutionOptions::default());
            let table = q.run(&g).into_table().unwrap();
            let answers = q.with_mode(AnswerMode::Compact).run(&g);
            assert_eq!(answers.mode(), AnswerMode::Compact);
            let compact = answers.compact().unwrap();
            assert_eq!(compact, &CompactAnswers::from_table(&table), "{query}");
            assert_eq!(answers.stats().output_rows, compact.num_pairs(), "{query}");
        }
    }

    #[test]
    fn compact_answers_expose_pairs_and_windows() {
        let g = relations();
        let answers = Query::parse(QUERIES[2])
            .unwrap()
            .with_options(ExecutionOptions::default())
            .with_mode(AnswerMode::Compact)
            .run(&g);
        let compact = answers.into_compact().unwrap();
        // Mia met Eve at times 2 and 3 — one (mia, mia) pair (the query binds only
        // x), answered over [2, 3].
        assert_eq!(compact.num_pairs(), 1);
        assert_eq!(compact.num_points(), 2);
        let ((source, target), set) = compact.iter().next().unwrap();
        assert_eq!(source, target);
        assert_eq!(set.intervals(), &[iv(2, 3)]);
        assert_eq!(compact.get(*source, *target), Some(set));
        assert_eq!(compact.columns(), ("x", "x"));
    }

    #[test]
    fn query_builder_runs_benchmarks_and_plan_sets() {
        let g = relations();
        let by_id = Query::benchmark(QueryId::Q1).run(&g);
        let by_plan = Query::from_plan_set(crate::queries::plan_for(QueryId::Q1)).run(&g);
        assert_eq!(by_id.table(), by_plan.table());
        assert_eq!(by_id.mode(), AnswerMode::Materialized);
        // Builder knobs land in the options.
        let q = Query::benchmark(QueryId::Q1).with_mode(AnswerMode::Compact);
        assert_eq!(q.options().answer_mode, AnswerMode::Compact);
        assert_eq!(AnswerMode::Enumerate.name(), "enum");
    }
}
