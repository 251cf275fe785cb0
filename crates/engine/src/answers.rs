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
//!   runs Steps 1–2 eagerly but performs Step-3 expansion lazily, one
//!   [`Chain`] batch at a time, k-way-merging the sorted per-chain runs so rows
//!   stream out in the table's canonical order with bounded delay and without ever
//!   buffering more than the chains whose outputs overlap the current position.
//! * **[`AnswerMode::Compact`]** — [`CompactAnswers`]: per-`(source, target)`
//!   coalesced [`IntervalSet`]s computed straight from the interval-level chains,
//!   skipping Step-3 entirely (the compressed answer sets of *Compact Answers to
//!   Temporal Path Queries*).
//!
//! The enumeration order and the compact projection are both pinned against the
//! materialised table by `tests/answer_modes.rs` on random graphs.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use tgraph::{Interval, IntervalSet, Object};
use trpq::parser::MatchClause;
use trpq::queries::QueryId;
use trpq::Result;

use crate::bindings::{Binding, BindingTable, TimeRef};
use crate::chain::Chain;
use crate::executor::{execute_answers, ExecutionOptions, QueryOutput, QueryStats};
use crate::plan::{EnginePlan, PlanSet, TemporalLink};
use crate::relations::GraphRelations;
use crate::steps::expand::expand_sorted;
use dataflow::kway_merge_dedup;

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
/// expanding a single row.
///
/// Per chain, the target's answer times are the *feasible* time points of its
/// segment: the segment's interval intersected with the backward-propagated
/// admissibility window of all later segments.  Forward feasibility needs no
/// check — the executor's interval construction guarantees every point of a
/// segment's final interval is reachable from some point of its predecessor
/// (shift windows are unions of per-departure windows; time-closure bands are
/// normalised so every arrival has an admissible departure) — so interval-wise
/// backward propagation is exact.
pub(crate) fn compact_from_chains(
    plan_set: &PlanSet,
    per_plan_chains: &[Vec<Chain>],
) -> CompactAnswers {
    let num_slots = plan_set.variables.len();
    let mut compact = CompactAnswers {
        columns: (
            plan_set.variables.first().cloned().unwrap_or_default(),
            plan_set.variables.last().cloned().unwrap_or_default(),
        ),
        pairs: BTreeMap::new(),
    };
    if num_slots == 0 {
        return compact;
    }
    for (plan, chains) in plan_set.plans.iter().zip(per_plan_chains) {
        let lag_indices = plan.lag_indices();
        for chain in chains {
            let (Some(source), Some(target)) = (
                chain.bound.iter().find(|b| b.slot == 0),
                chain.bound.iter().find(|b| b.slot as usize == num_slots - 1),
            ) else {
                debug_assert!(false, "first or last variable slot was never bound");
                continue;
            };
            if plan.is_purely_structural() {
                compact.insert(source.object, target.object, chain.interval);
                continue;
            }
            let intervals = chain.all_segment_intervals();
            if let Some(window) =
                feasible_window(plan, chain, &lag_indices, &intervals, target.segment as usize)
            {
                compact.insert(source.object, target.object, window);
            }
        }
    }
    compact
}

/// The time points of `segment` from which all *later* segments can be assigned
/// consistent time points: interval-wise backward propagation of the link
/// constraints from the last segment, exact because each link's preimage of an
/// interval is an interval.
fn feasible_window(
    plan: &EnginePlan,
    chain: &Chain,
    lag_indices: &[Option<usize>],
    intervals: &[Interval],
    segment: usize,
) -> Option<Interval> {
    let mut window = *intervals.last().expect("chains cover at least one segment");
    for i in (segment..intervals.len() - 1).rev() {
        // `window` holds the feasible times of segment i + 1; pull it back through
        // the link between segments i and i + 1 (arrival − departure bounds, as
        // signed arithmetic to survive open-ended and backward links).
        let (lo, hi) = match &plan.links[i] {
            TemporalLink::Shift(shift) => {
                if shift.forward {
                    let lo = match shift.max {
                        Some(m) => window.start() as i128 - m as i128,
                        None => i128::MIN,
                    };
                    (lo, window.end() as i128 - shift.min as i128)
                } else {
                    let hi = match shift.max {
                        Some(m) => window.end() as i128 + m as i128,
                        None => i128::MAX,
                    };
                    (window.start() as i128 + shift.min as i128, hi)
                }
            }
            TemporalLink::Closure(_) => {
                let index = lag_indices[i].expect("closure links carry a lag index");
                let lag = chain.lags[index];
                (window.start() as i128 - lag.hi, window.end() as i128 - lag.lo)
            }
        };
        let own = intervals[i];
        let lo = lo.max(own.start() as i128);
        let hi = hi.min(own.end() as i128);
        if lo > hi {
            return None;
        }
        window = Interval::of(lo as u64, hi as u64);
    }
    Some(window)
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
/// only once the merge frontier reaches it.  Chains opened together are merged
/// into a single deduplicated run, and runs are k-way merged through a min-heap —
/// so the delay between two rows is bounded by one chain-batch expansion, and the
/// buffered rows are bounded by the (deduplicated) output of the chains whose row
/// ranges overlap the current position, never the full table.
#[derive(Debug)]
pub struct AnswerCursor {
    columns: Vec<String>,
    num_slots: usize,
    plans: Vec<EnginePlan>,
    /// Unopened chains, ascending by `lower`; `next_pending` indexes the first.
    pending: Vec<PendingChain>,
    next_pending: usize,
    /// Open runs, min-heap by current head row.
    heap: BinaryHeap<OpenRun>,
    last: Option<Vec<Binding>>,
    rows_yielded: usize,
    buffered_rows: usize,
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

/// An opened, sorted, deduplicated run with a cursor; ordered by head row
/// (reversed, so [`BinaryHeap`] pops the minimum).
#[derive(Debug)]
struct OpenRun {
    rows: Vec<Vec<Binding>>,
    next: usize,
}

impl OpenRun {
    fn head(&self) -> &[Binding] {
        &self.rows[self.next]
    }
}

impl PartialEq for OpenRun {
    fn eq(&self, other: &Self) -> bool {
        self.head() == other.head()
    }
}

impl Eq for OpenRun {}

impl PartialOrd for OpenRun {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpenRun {
    fn cmp(&self, other: &Self) -> Ordering {
        other.head().cmp(self.head())
    }
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
        let num_slots = plan_set.variables.len();
        let mut pending = Vec::new();
        for (plan_index, chains) in per_plan_chains.into_iter().enumerate() {
            let plan = &plan_set.plans[plan_index];
            for chain in chains {
                if let Some(lower) = lower_bound_row(plan, num_slots, &chain) {
                    pending.push(PendingChain { lower, plan: plan_index, chain });
                }
            }
        }
        pending.sort_by(|a, b| a.lower.cmp(&b.lower));
        AnswerCursor {
            columns: plan_set.variables.clone(),
            num_slots,
            plans: plan_set.plans.clone(),
            pending,
            next_pending: 0,
            heap: BinaryHeap::new(),
            last: None,
            rows_yielded: 0,
            buffered_rows: 0,
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
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next() {
                Some(row) => out.push(row),
                None => break,
            }
        }
        out
    }

    /// Opens every pending chain whose lower bound does not exceed the merge
    /// frontier, merging the freshly expanded runs into one deduplicated run.
    ///
    /// After this returns, every still-unopened chain has a lower bound strictly
    /// greater than the heap's minimum head — so that head row is safe to emit.
    fn open_due(&mut self) {
        if self.next_pending >= self.pending.len() {
            return;
        }
        // The merge frontier: the smallest row any open run can still produce.
        let mut frontier: Option<Vec<Binding>> = self.heap.peek().map(|run| run.head().to_vec());
        if let Some(ref row) = frontier {
            if self.pending[self.next_pending].lower > *row {
                return;
            }
        }
        let mut batch: Vec<Vec<Vec<Binding>>> = Vec::new();
        while self.next_pending < self.pending.len() {
            let due = match &frontier {
                None => true,
                Some(row) => self.pending[self.next_pending].lower <= *row,
            };
            if !due {
                break;
            }
            let p = &self.pending[self.next_pending];
            self.next_pending += 1;
            let run =
                expand_sorted(&self.plans[p.plan], self.num_slots, std::slice::from_ref(&p.chain));
            if let Some(first) = run.first() {
                if frontier.as_ref().is_none_or(|row| first < row) {
                    frontier = Some(first.clone());
                }
                batch.push(run);
            }
        }
        if !batch.is_empty() {
            let merged = kway_merge_dedup(batch);
            self.buffered_rows += merged.len();
            self.peak_buffered_rows = self.peak_buffered_rows.max(self.buffered_rows);
            self.heap.push(OpenRun { rows: merged, next: 0 });
        }
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
        loop {
            self.open_due();
            let mut run = self.heap.pop()?;
            let row = std::mem::take(&mut run.rows[run.next]);
            run.next += 1;
            self.buffered_rows -= 1;
            if run.next < run.rows.len() {
                self.heap.push(run);
            }
            // Runs are deduplicated individually; duplicates across runs arrive
            // consecutively in the (globally non-decreasing) merged stream.
            if self.last.as_ref() != Some(&row) {
                self.last = Some(row.clone());
                self.rows_yielded += 1;
                return Some(row);
            }
        }
    }
}

/// A row that compares less than or equal to every row `chain` can produce.
///
/// Structural plans expand a chain into exactly one row, which is its own bound.
/// Temporal plans bind each slot's object at some time point inside its segment's
/// interval, so binding every slot at its interval's *start* is component-wise (and
/// therefore lexicographically) below every produced row.
fn lower_bound_row(plan: &EnginePlan, num_slots: usize, chain: &Chain) -> Option<Vec<Binding>> {
    let mut row = Vec::with_capacity(num_slots);
    let structural = plan.is_purely_structural();
    let intervals = if structural { Vec::new() } else { chain.all_segment_intervals() };
    for slot in 0..num_slots {
        let Some(var) = chain.bound.iter().find(|b| b.slot as usize == slot) else {
            debug_assert!(false, "variable slot {slot} was never bound");
            return None;
        };
        if structural {
            row.push(Binding::over_interval(var.object, chain.interval));
        } else {
            row.push(Binding::at_point(var.object, intervals[var.segment as usize].start()));
        }
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Interval, Itpg, ItpgBuilder};

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// The miniature contact-tracing graph of the executor tests.
    fn tiny() -> Itpg {
        let mut b = ItpgBuilder::new();
        let mia = b.add_node("mia", "Person").unwrap();
        let eve = b.add_node("eve", "Person").unwrap();
        let room = b.add_node("room", "Room").unwrap();
        let meets = b.add_edge("meets1", "meets", mia, eve).unwrap();
        let visits = b.add_edge("visits1", "visits", eve, room).unwrap();
        b.add_existence(mia, iv(1, 10)).unwrap();
        b.add_existence(eve, iv(1, 10)).unwrap();
        b.add_existence(room, iv(1, 10)).unwrap();
        b.add_existence(meets, iv(2, 3)).unwrap();
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
    ];

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
        let rest: Vec<_> = answers.cursor_mut().unwrap().collect();
        assert_eq!(rest.len(), table.len() - 2);
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
        assert_eq!(q.plan_set().graph, "contact_tracing");
        assert_eq!(AnswerMode::Enumerate.name(), "enum");
    }
}
