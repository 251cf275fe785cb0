//! The query executor: runs compiled plans over the interval relations, following the
//! three-step architecture of Section VI (structural interval evaluation → interval
//! temporal pruning → point expansion), on the thread that asks for the query.  A
//! plan with an *existential suffix* — anything after its last bound variable — runs
//! that suffix backwards, once, as exact per-row time sets
//! ([`crate::steps::viability`]), and matches forward only up to the last `Bind`.
//! Every plan takes its seeds through Steps 1–2 in batches (`SEED_BATCH`) so the
//! intermediate vectors stay small, and one call keeps the structural closure's
//! scratch from one batch to the next.  The first batch of a
//! fixpoint-free plan also tells the rest what the plan is like: when it throws most
//! of its traversals away at a later filter, the remaining batches may run under
//! backward viability masks, built only when the filter they would anchor on is
//! selective (`viability_gate`).
//! Inside a batch a match is a fixed-width [`Cursor`] writing its history to the
//! batch's [`Trail`]; the owned [`Chain`]s everything downstream consumes are built at
//! the end of the batch, for the cursors that survived it.

use std::time::Duration;

use obs::{Span, Stopwatch};

use crate::answers::{compact_from_chains, AnswerCursor, AnswerMode, AnswerSet, Answers};
use crate::bindings::BindingTable;
use crate::chain::{Chain, Cursor, Trail};
use crate::plan::analyze::{analyze, SchemaSummary};
use crate::plan::{EnginePlan, PlanSet, TemporalLink};
use crate::relations::GraphRelations;
use crate::steps::closure::{apply_time_closure, Reached};
use crate::steps::expand::expand_chains;
use crate::steps::structural::apply_segment;
use crate::steps::temporal::apply_shift;
use crate::steps::viability::Viability;
use crate::steps::StepStats;

/// Knobs controlling the execution of a query.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionOptions {
    /// How [`execute_answers`] (and [`crate::answers::Query::run`]) shapes its
    /// answers: a materialised table, compact per-pair interval sets, or a lazy
    /// enumeration cursor.  [`execute`] always materialises and ignores this knob.
    pub answer_mode: AnswerMode,
    /// Whether the semantic optimizer pass ([`crate::plan::analyze`]) runs before
    /// execution: statically-empty plans are dropped, dead closure alternatives
    /// pruned and closure `[n, m]` windows tightened against the graph schema.
    /// On by default; the rewrites are output-equivalent by construction (pinned
    /// by the property tests in `tests/plan_optimizer.rs`).
    pub optimize: bool,
    /// Whether this execution records into the process-wide metric registry
    /// ([`obs::global`]): span timings, row counters, adjacency probes,
    /// closure rounds.  On by default — recording is a handful of relaxed
    /// atomics per *query* (not per row), cheap enough for release builds.
    /// When off, spans are no-ops that never read the clock and nothing is
    /// recorded (pinned by `tests/telemetry.rs`).
    pub telemetry: bool,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions { answer_mode: AnswerMode::Materialized, optimize: true, telemetry: true }
    }
}

impl ExecutionOptions {
    /// The same as [`ExecutionOptions::default`], whatever `threads` says: a query
    /// runs on the thread that asks for it.  Kept only because the benchmark's
    /// `user_options` still calls `with_threads(1)`; ROADMAP item 3, the next
    /// change to the benchmark, switches that call to `default()` and removes this.
    pub fn with_threads(_threads: usize) -> Self {
        ExecutionOptions::default()
    }

    /// Selects the answer mode for [`execute_answers`].
    pub fn with_mode(mut self, mode: AnswerMode) -> Self {
        self.answer_mode = mode;
        self
    }

    /// Enables or disables the semantic optimizer pass.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Enables or disables telemetry recording for this execution.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Timing and cardinality measurements of one query execution, mirroring the columns
/// of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Time spent in Steps 1–2 (structural evaluation and interval-based temporal
    /// pruning) — the "interval-based time" column.
    pub interval_time: Duration,
    /// Total execution time including Step 3 (point expansion) — the "total time"
    /// column.
    pub total_time: Duration,
    /// Number of interval-level intermediate matches after Steps 1–2.
    pub interval_rows: usize,
    /// Number of rows of the final binding table — the "output size" column.
    pub output_rows: usize,
    /// Number of closure fixpoint rounds executed during Step 1: applications of a
    /// repeated structural sub-expression to the frontier of one start state, summed
    /// over the start states, or backward rounds through an existential suffix
    /// ([`StepStats::closure_rounds`]); 0 for plans without structural repetition.
    pub closure_rounds: usize,
    /// Number of time-crossing closure rounds executed (applications of a repeated
    /// group mixing structural and temporal navigation, e.g. `(FWD/NEXT)*`, to a
    /// band frontier, or backward through an existential suffix); 0 for plans
    /// without mixed repetition.
    pub time_rounds: usize,
    /// High-water mark of rows the enumeration cursor ever buffered between
    /// expansion and emission.  0 for the eager modes and before any draining;
    /// [`Answers::stats`] keeps it current as the cursor drains, and the
    /// `tpath_engine_cursor_peak_buffered_rows` histogram retains it past the
    /// cursor's drop (a cursor abandoned mid-drain is otherwise unreportable).
    pub peak_buffered_rows: usize,
}

/// The result of executing a query: the binding table plus measurements.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The binding table.
    pub table: BindingTable,
    /// Timing and cardinality measurements.
    pub stats: QueryStats,
}

/// The plan set a query actually runs: the semantic optimizer's rewrite when
/// [`ExecutionOptions::optimize`] is on (the default), the compiled plans verbatim
/// otherwise.  The optimizer reads the summary memoised in `graph`; only the
/// first optimized execution on a version of the relations pays (and, with
/// telemetry on, records) the scan behind it.
fn effective_plan_set<'a>(
    plan_set: &'a PlanSet,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> std::borrow::Cow<'a, PlanSet> {
    if options.optimize {
        let _span =
            Span::enter(options.telemetry.then(|| &crate::telemetry::metrics().span_analyze));
        let schema = SchemaSummary::of_recorded(graph, options.telemetry);
        std::borrow::Cow::Owned(analyze(plan_set, &schema).optimized)
    } else {
        std::borrow::Cow::Borrowed(plan_set)
    }
}

/// The outcome of Steps 1–2: the interval-level chains of every union alternative,
/// with the measurements taken so far.  Step 3 (or its lazy/compact replacement)
/// decides what becomes of the chains.
struct IntervalPhase {
    per_plan_chains: Vec<Vec<Chain>>,
    interval_time: Duration,
    interval_rows: usize,
    step_stats: StepStats,
    start: Stopwatch,
}

impl IntervalPhase {
    /// Finalises the measurements: `total_time` covers everything since the phase
    /// started, `output_rows` is whatever the answer shape reports eagerly (lazy
    /// shapes override it through [`Answers::stats`]).
    fn finish(&self, output_rows: usize) -> QueryStats {
        QueryStats {
            interval_time: self.interval_time,
            total_time: self.start.elapsed(),
            interval_rows: self.interval_rows,
            output_rows,
            closure_rounds: self.step_stats.closure_rounds,
            time_rounds: self.step_stats.time_closure_rounds,
            peak_buffered_rows: 0,
        }
    }

    /// Folds the finished execution into the metric registry: one histogram
    /// sample per span-tree node with a measured duration, plus the row /
    /// round / probe counters.  No-op when telemetry is off.
    fn record_metrics(&self, stats: &QueryStats, telemetry: bool) {
        if !telemetry {
            return;
        }
        let m = crate::telemetry::metrics();
        m.queries.inc();
        m.span_query.record(obs::duration_nanos(stats.total_time));
        m.span_step12.record(obs::duration_nanos(stats.interval_time));
        m.rows_interval.add(stats.interval_rows as u64);
        m.rows_output.add(stats.output_rows as u64);
        m.closure_rounds.add(stats.closure_rounds as u64);
        m.time_rounds.add(stats.time_rounds as u64);
        m.joins_hash.add(self.step_stats.hop_probes as u64);
        m.hop_cursors.add(self.step_stats.hop_cursors as u64);
        for (counter, count) in [
            (&m.viability_built, self.step_stats.viability_built),
            (&m.viability_skipped, self.step_stats.viability_skipped),
            (&m.viability_rows, self.step_stats.viability_rows_visited),
        ] {
            counter.add(count as u64);
        }
        let closure_nanos = self.step_stats.closure_nanos;
        if closure_nanos > 0 {
            m.span_closure.record(closure_nanos);
        }
    }
}

/// Runs Steps 1–2 (structural interval evaluation and temporal pruning) of every
/// union alternative.
fn run_interval_phase(
    plan_set: &PlanSet,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> IntervalPhase {
    let mut step_stats = StepStats { timed: options.telemetry, ..StepStats::default() };
    let start = Stopwatch::start();
    let per_plan_chains: Vec<Vec<Chain>> =
        plan_set.plans().iter().map(|plan| run_plan(plan, graph, &mut step_stats)).collect();
    let interval_time = start.elapsed();
    let interval_rows = per_plan_chains.iter().map(Vec::len).sum();
    IntervalPhase { per_plan_chains, interval_time, interval_rows, step_stats, start }
}

/// Step 3: expands the interval-level chains of every plan alternative into one
/// vector of binding rows, sorts and deduplicates it into the full binding table,
/// then finalises and records the measurements.
fn materialize(
    plan_set: &PlanSet,
    options: &ExecutionOptions,
    phase: &IntervalPhase,
) -> QueryOutput {
    let step3 = Span::enter(options.telemetry.then(|| &crate::telemetry::metrics().span_step3));
    let num_slots = plan_set.variables().len();
    let mut rows = Vec::new();
    for (plan, chains) in plan_set.plans().iter().zip(&phase.per_plan_chains) {
        expand_chains(plan, num_slots, chains, &mut rows);
    }
    rows.sort_unstable();
    rows.dedup();
    let table = BindingTable::from_rows(plan_set.variables().to_vec(), rows);
    step3.finish();
    let stats = phase.finish(table.len());
    phase.record_metrics(&stats, options.telemetry);
    QueryOutput { table, stats }
}

/// Executes a compiled plan set over a graph, materialising the full binding table
/// regardless of [`ExecutionOptions::answer_mode`].
pub fn execute(
    plan_set: &PlanSet,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> QueryOutput {
    let plan_set = effective_plan_set(plan_set, graph, options);
    let phase = run_interval_phase(&plan_set, graph, options);
    materialize(&plan_set, options, &phase)
}

/// Executes a compiled plan set over a graph, shaping the answers according to
/// [`ExecutionOptions::answer_mode`]: the full table, compact per-pair interval
/// sets (no Step-3 expansion), or a lazy enumeration cursor (Step-3 on demand).
pub fn execute_answers(
    plan_set: &PlanSet,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> Answers {
    let plan_set = effective_plan_set(plan_set, graph, options);
    let plan_set = plan_set.as_ref();
    let telemetry = options.telemetry;
    let phase = run_interval_phase(plan_set, graph, options);
    match options.answer_mode {
        AnswerMode::Materialized => {
            let QueryOutput { table, stats } = materialize(plan_set, options, &phase);
            Answers::new(AnswerSet::Table(table), stats)
        }
        AnswerMode::Compact => {
            let span = Span::enter(telemetry.then(|| &crate::telemetry::metrics().span_compact));
            let compact = compact_from_chains(plan_set, &phase.per_plan_chains);
            span.finish();
            let stats = phase.finish(0);
            phase.record_metrics(&stats, telemetry);
            Answers::new(AnswerSet::Compact(compact), stats)
        }
        AnswerMode::Enumerate => {
            let stats = phase.finish(0);
            phase.record_metrics(&stats, telemetry);
            let span =
                Span::enter(telemetry.then(|| &crate::telemetry::metrics().span_cursor_open));
            let cursor = AnswerCursor::new(plan_set, phase.per_plan_chains, telemetry);
            span.finish();
            Answers::new(AnswerSet::Cursor(cursor), stats)
        }
    }
}

/// Runs Steps 1–2 of a single plan: seeds the first segment with every live node row,
/// then alternates structural segments and temporal links (plain shifts or time-aware
/// closures).
fn run_plan(plan: &EnginePlan, graph: &GraphRelations, stats: &mut StepStats) -> Vec<Chain> {
    run_plan_seeded(plan, graph, &graph.seed_rows(), stats)
}

/// Runs Steps 1–2 of a single plan from an explicit set of seed node rows.
///
/// This is the entry point of delta-seeded live query maintenance (`crates/live`):
/// a refresh re-runs the SPJ pipeline and fixpoints only from the node rows a batch
/// could have affected, instead of from every row like [`execute`] does.  The
/// returned chains record their seed row ([`Chain::seed`]), so callers can group
/// them back by starting node.  The chains of a plan with an existential suffix end
/// at its last bound variable, one per piece of the times the suffix finishes from;
/// those times are computed over the whole graph, so a seed's chains never depend on
/// which other seeds run beside it.
pub fn run_plan_seeded(
    plan: &EnginePlan,
    graph: &GraphRelations,
    seed_rows: &[u32],
    stats: &mut StepStats,
) -> Vec<Chain> {
    run_plan_batched(plan, graph, seed_rows, stats, SEED_BATCH)
}

/// Seed rows a pipeline takes through Steps 1–2 at a time.
///
/// A hop can fan one seed out to dozens of cursors and every step holds its
/// input and its output at once, so all seeds in one batch peak at several
/// times the matches that survive, in vectors of tens of MB.  Vectors that size
/// are beyond what the allocator recycles: whether such a query grows the heap
/// and gives it back, one page fault per 4 KB, or finds the room already there
/// depends on the state of the heap it starts from, which no query controls —
/// unbatched, `adhoc-g6` takes 0 or ≈ 90 000 faults a round (a quarter of
/// `ops_per_s`) from one run to the next.  A batch keeps the intermediate
/// vectors in the hundreds of KB; only the surviving chains grow large.  A
/// batch also bounds the [`Trail`]: the history of every match the batch
/// started, dead or alive, is dropped with it.  The size is not tuned: 256 to
/// 8192 time the same.
///
/// A closure runs each distinct start state of the batch it is handed once, so
/// a start state that cursors of several batches reach runs once per batch.
/// That happens only to a closure that starts somewhere other than the seed row
/// — after a hop, or nested in another closure — and `closure_rounds` and
/// `hop_cursors` count the repeats ([`StepStats`]).  REACH's closure starts on
/// the seed row.
const SEED_BATCH: usize = 1024;

/// [`run_plan_seeded`] with the batch length as a parameter, for the tests that
/// pin chains and counters on graphs far smaller than [`SEED_BATCH`] rows.
///
/// Every plan takes its seeds batch by batch, in one loop that keeps one closure
/// scratch for all its batches and writes straight into the returned vector.  A plan
/// with an existential suffix is split at its last `Bind`: the suffix is walked back
/// exactly, once ([`Viability::build_suffix`], counted as a built pass), and the
/// prefix runs cut to its times, under its masks.  Otherwise a plan with a fixpoint,
/// and any seeds that fit one batch, run unmasked.  Anything else runs its first
/// batch as the *sample* that sets the scan limit of [`viability_gate`], then the
/// rest under whatever masks the gate built.  Masks never change the chains or their
/// order, which is by seed whatever the batching.
pub(crate) fn run_plan_batched(
    plan: &EnginePlan,
    graph: &GraphRelations,
    seed_rows: &[u32],
    stats: &mut StepStats,
    batch_len: usize,
) -> Vec<Chain> {
    let mut chains = Vec::with_capacity(seed_rows.len());
    // Sized to the graph at its first use; the graph is the same for the call.
    let mut reached = Reached::default();
    let suffix = Viability::build_suffix(plan, graph, stats);
    let gate;
    let (plan, seed_rows, viability) = match &suffix {
        Some((prefix, viability)) => (prefix, seed_rows, Some(viability)),
        None if plan.has_fixpoint() || seed_rows.len() <= batch_len => (plan, seed_rows, None),
        None => {
            let (sample, rest) = seed_rows.split_at(batch_len);
            let before = stats.hop_cursors;
            run_batch(plan, graph, sample, None, &mut reached, stats, &mut chains);
            let traversals = stats.hop_cursors - before;
            let batches = rest.len().div_ceil(batch_len);
            gate = viability_gate(plan, graph, traversals, chains.len(), batches, stats);
            (plan, rest, gate.as_ref())
        }
    };
    for batch in seed_rows.chunks(batch_len) {
        run_batch(plan, graph, batch, viability, &mut reached, stats, &mut chains);
    }
    chains
}

/// Decides whether the remaining batches of a fixpoint-free plan that binds its last
/// node run under backward viability masks ([`crate::steps::viability`]), builds
/// them if so, and counts the outcome — built or skipped — with the rows the backward
/// pass visited.  There is no option: the inputs are the plan, the graph, and what
/// the plan's sample batch did — `traversals` hop outputs, of which `survivors`
/// chains came through — with `batches` left to run; from them comes the scan limit,
/// the most live rows the pass may scan for its anchor.  Masks are all or nothing:
/// the pass either reads no row, stops after the scan, or walks back to the seeds.
/// (Two kinds of plan never come here.  A plan with an existential suffix — Q9–Q12,
/// RECUR — has its suffix walked back exactly and the rest masked from there,
/// whatever the filters keep, unless the rest holds a closure.  Any other plan with
/// a fixpoint runs unmasked.)
///
/// *Anchor: at most half of its relation's live rows, for every plan.*  A mask
/// removes only rows from which the anchor cannot be reached, so an anchor that
/// keeps most rows cannot remove most of the work (argued beside the rule in
/// [`crate::steps::viability`]).  The benchmark's masked anchor sits far from the
/// line: Q5's keeps ≈ 18 % of the node rows (high-risk persons).
///
/// *Scan limit.*  What the sample batch says the remaining batches will waste.  A
/// survivor went through every hop of the plan, so of the sample's traversals
/// `survivors × hops` were useful and the rest were thrown away by a later filter.  A mask removes wasted traversals only, so a sample that
/// wastes at most half cannot even halve the work, and the limit is 0.  Otherwise
/// it is `waste × batches`: a row the scan reads and a traversal the
/// forward pass wastes both cost one row-struct read (≈ 85–120 ns at G6), so the
/// expected waste must pay for the scan.  On a G6 graph (26 792 node rows, 27
/// batches) the sample wastes nothing for Q1–Q4 and Q6, which make no hops, and
/// ≈ 83 % of Q5's traversals; Q7 and Q8 start on `test = 'pos'` and waste most of a
/// sample of ≈ 50–110 traversals — a limit of 1–2 k rows against a 26 792-row scan,
/// refused without reading a row.
///
/// *No budget.*  Once the scan is read the walk goes on to the seeds, because a row
/// crosses each plan step at most once — a hop or a shift reverses each row of its
/// landing mask and adds each row it finds once (`from.contains`) — so a finished
/// walk costs a fixed number of passes over the relations, however many traversals
/// the forward pass would make.
fn viability_gate(
    plan: &EnginePlan,
    graph: &GraphRelations,
    traversals: usize,
    survivors: usize,
    batches: usize,
    stats: &mut StepStats,
) -> Option<Viability> {
    let waste = traversals.saturating_sub(survivors * plan.hop_count());
    let scan_limit = if 2 * waste > traversals { waste * batches } else { 0 };
    Viability::build(plan, graph, scan_limit, stats)
}

/// Steps 1–2 of one plan from one batch of seed rows: the surviving cursors are
/// appended to `chains`, each spelled out from the batch's trail.  Under
/// `viability` a seed, a shift and a hop only choose rows the masks allow, and if it
/// carries the times of an existential suffix — `plan` is then the prefix up to the
/// last `Bind` — every survivor is cut to the pieces of its row's times inside its
/// interval, one cursor per piece.  The structural closures run over `reached`.
fn run_batch(
    plan: &EnginePlan,
    graph: &GraphRelations,
    rows: &[u32],
    viability: Option<&Viability>,
    reached: &mut Reached,
    stats: &mut StepStats,
    chains: &mut Vec<Chain>,
) {
    let mut trail = Trail::default();
    let masks = |segment: usize| viability.map(|v| v.segment(segment));
    let seeds = masks(0).and_then(|first| first.entry());
    let mut cursors: Vec<Cursor> = match seeds {
        None => rows.iter().map(|&r| Cursor::seed(r, graph)).collect(),
        Some(mask) => {
            rows.iter().filter(|&&r| mask.contains(r)).map(|&r| Cursor::seed(r, graph)).collect()
        }
    };
    for (index, segment) in plan.segments().iter().enumerate() {
        let viable = masks(index);
        if index > 0 {
            cursors = match &plan.links()[index - 1] {
                TemporalLink::Shift(shift) => {
                    let landing = viable.and_then(|next| next.entry());
                    apply_shift(graph, cursors, shift, landing, &mut trail)
                }
                TemporalLink::Closure(closure) => {
                    apply_time_closure(graph, cursors, closure, &mut trail, stats)
                }
            };
        }
        cursors = apply_segment(graph, cursors, segment, viable, reached, &mut trail, stats);
        if cursors.is_empty() {
            return;
        }
    }
    if let Some(times) = viability.and_then(Viability::suffix) {
        cursors = cursors
            .iter()
            .flat_map(|cursor| {
                let pieces = times.within(cursor.position.row(), cursor.interval);
                pieces.map(|interval| Cursor { interval, ..*cursor })
            })
            .collect();
    }
    chains.extend(cursors.iter().map(|cursor| trail.materialize(cursor)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::Query;
    use tgraph::{Interval, Itpg, ItpgBuilder};
    use trpq::queries::QueryId;
    use trpq::Result;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// A miniature contact-tracing graph: two people meet, one of them later tests
    /// positive, and one of them visits a room.
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

    /// The tests run everything through the [`Query`] builder.
    fn execute_text(
        query: &str,
        graph: &GraphRelations,
        options: &ExecutionOptions,
    ) -> Result<QueryOutput> {
        let answers = Query::parse(query)?.with_options(*options).run(graph);
        Ok(answers.into_output().expect("the default mode materialises"))
    }

    fn execute_query(
        id: QueryId,
        graph: &GraphRelations,
        options: &ExecutionOptions,
    ) -> QueryOutput {
        let answers = Query::benchmark(id).with_options(*options).run(graph);
        answers.into_output().expect("the default mode materialises")
    }

    fn names(graph: &GraphRelations, output: &QueryOutput) -> Vec<Vec<String>> {
        output.table.render(|o| graph.object_name(o).to_owned())
    }

    #[test]
    fn structural_query_returns_interval_bindings() {
        let g = relations();
        let out =
            execute_text("MATCH (x:Person {risk = 'high'}) ON g", &g, &ExecutionOptions::default())
                .unwrap();
        assert_eq!(out.stats.output_rows, 1);
        assert_eq!(names(&g, &out), vec![vec!["mia".to_string(), "[1, 10]".into()]]);
        assert_eq!(out.stats.interval_rows, 1);
        assert!(out.stats.interval_time <= out.stats.total_time);
    }

    #[test]
    fn edge_pattern_query_joins_on_intervals() {
        let g = relations();
        let out = execute_text(
            "MATCH (x:Person {risk = 'high'})-[z:meets]->(y:Person {risk = 'low'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        assert_eq!(out.stats.output_rows, 1);
        assert_eq!(
            names(&g, &out),
            vec![vec![
                "mia".to_string(),
                "[2, 3]".into(),
                "meets1".into(),
                "[2, 3]".into(),
                "eve".into(),
                "[2, 3]".into()
            ]]
        );
    }

    #[test]
    fn temporal_query_produces_point_bindings() {
        // High-risk people who met someone who subsequently tested positive (Q9 shape).
        let g = relations();
        let out = execute_text(
            "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        // Mia met Eve at times 2 and 3; Eve tested positive at 8-10, reachable via NEXT*.
        assert_eq!(
            names(&g, &out),
            vec![vec!["mia".to_string(), "2".into()], vec!["mia".to_string(), "3".into()],]
        );
    }

    #[test]
    fn backward_temporal_query() {
        // Rooms visited at or before the time of the positive test (Q8 shape).
        let g = relations();
        let out = execute_text(
            "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        let rows = names(&g, &out);
        // x is bound at times 8..10, z at visit times 5..6: 3 × 2 combinations.
        assert_eq!(rows.len(), 6);
        assert!(rows.contains(&vec!["eve".to_string(), "8".into(), "room".into(), "5".into()]));
        assert!(rows.contains(&vec!["eve".to_string(), "10".into(), "room".into(), "6".into()]));
        assert!(!rows.contains(&vec!["eve".to_string(), "5".into(), "room".into(), "5".into()]));
    }

    #[test]
    fn structural_closure_queries_run_on_the_engine() {
        let g = relations();
        let out = execute_text(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        // Zero iterations keep mia over her whole row; one meets-hop reaches eve over
        // the edge's validity [2,3].  The whole query stays interval-coalesced.
        let rows = names(&g, &out);
        assert!(rows.contains(&vec![
            "mia".to_string(),
            "[1, 10]".into(),
            "mia".into(),
            "[1, 10]".into()
        ]));
        assert!(rows.contains(&vec![
            "mia".to_string(),
            "[2, 3]".into(),
            "eve".into(),
            "[2, 3]".into()
        ]));
        assert_eq!(rows.len(), 2);
        assert!(out.stats.closure_rounds > 0, "the fixpoint must have iterated");

        // A mandatory first iteration drops the zero-step match.
        let plus = execute_text(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)[1,_]/-(y:Person) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        assert_eq!(
            names(&g, &plus),
            vec![vec!["mia".to_string(), "[2, 3]".into(), "eve".into(), "[2, 3]".into()]]
        );

        // Closure composes with temporal navigation: reachable contacts who later
        // test positive (a transitive Q9).
        let temporal = execute_text(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)[1,3]/NEXT*/-({test = 'pos'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        assert_eq!(
            names(&g, &temporal),
            vec![vec!["mia".to_string(), "2".into()], vec!["mia".to_string(), "3".into()]]
        );
    }

    #[test]
    fn mixed_repetition_runs_on_the_engine() {
        let g = relations();
        // The transitive Q9: chains of meetings, each followed by a forward walk in
        // time, ending on someone who tests positive.  On the tiny graph one
        // iteration connects mia's meeting times to eve's positive window.
        let out = execute_text(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT*)[1,_]/-({test = 'pos'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        assert_eq!(
            names(&g, &out),
            vec![vec!["mia".to_string(), "2".into()], vec!["mia".to_string(), "3".into()]]
        );
        assert!(out.stats.time_rounds > 0, "the time-aware fixpoint must have iterated");
        assert_eq!(out.stats.closure_rounds, 0, "no structural closure in this plan");

        // The strict recurrence (exactly one step forward after each meeting) finds
        // nothing here: eve meets no one after meeting mia.
        let strict = execute_text(
            "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/-({test = 'pos'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        assert_eq!(strict.stats.output_rows, 0);
    }

    #[test]
    fn a_structural_suffix_answers_one_row_per_piece_of_the_bound_row() {
        // Ann meets bob on [2, 4] and cal on [3, 6]; both are high-risk.
        let mut b = ItpgBuilder::new();
        let all = iv(1, 9);
        let people: Vec<_> = ["ann", "bob", "cal"]
            .iter()
            .map(|name| {
                let node = b.add_node(name, "Person").unwrap();
                b.add_existence(node, all).unwrap();
                node
            })
            .collect();
        for &node in &people[1..] {
            b.set_property(node, "risk", "high", all).unwrap();
        }
        for (name, met, during) in [("m1", people[1], iv(2, 4)), ("m2", people[2], iv(3, 6))] {
            let edge = b.add_edge(name, "meets", people[0], met).unwrap();
            b.add_existence(edge, during).unwrap();
        }
        let g = GraphRelations::from_itpg(&b.domain(all).build().unwrap());
        let options = ExecutionOptions::default();
        // Matched forward, one row per path...
        let bound = "MATCH (x:Person)-[:meets]->(y:Person {risk = 'high'}) ON g";
        let forward = execute_text(bound, &g, &options).unwrap();
        let paths = [["ann", "[2, 4]", "bob", "[2, 4]"], ["ann", "[3, 6]", "cal", "[3, 6]"]];
        assert_eq!(names(&g, &forward), paths);
        // ...walked back, one row per maximal piece of ann's row: the same snapshots.
        let suffix = "MATCH (x:Person)-[:meets]->(:Person {risk = 'high'}) ON g";
        assert_eq!(names(&g, &execute_text(suffix, &g, &options).unwrap()), [["ann", "[2, 6]"]]);
    }

    #[test]
    fn unsatisfiable_queries_return_empty_tables() {
        let g = relations();
        for query in [
            "MATCH (x)-/NEXT[3,1]/-(y) ON g",
            "MATCH (x)-/FWD[3,1]/-(y) ON g",
            "MATCH (x:Person)-/(FWD/:meets/FWD)[2,0]/-(y) ON g",
        ] {
            let out = execute_text(query, &g, &ExecutionOptions::default()).unwrap();
            assert_eq!(out.stats.output_rows, 0, "{query}");
            assert_eq!(out.stats.interval_rows, 0, "{query}");
        }
    }

    #[test]
    fn union_queries_merge_alternatives() {
        let g = relations();
        let out = execute_text(
            "MATCH (x:Person {risk = 'high'})-\
             /(FWD/:meets/FWD + FWD/:visits/FWD)/NEXT*/-({test = 'pos'}) ON g",
            &g,
            &ExecutionOptions::default(),
        )
        .unwrap();
        // Only the meets alternative matches (mia does not visit the room).
        assert_eq!(out.stats.output_rows, 2);
    }

    /// `people` persons in a ring, each meeting the next three, every third one
    /// high-risk and every fiftieth one testing positive late: more seed rows than
    /// one batch, and a query ending on `test = 'pos'` throws nearly every
    /// traversal away.
    fn ring(people: usize) -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let nodes: Vec<_> =
            (0..people).map(|i| b.add_node(&format!("p{i}"), "Person").unwrap()).collect();
        for (i, &node) in nodes.iter().enumerate() {
            b.add_existence(node, iv(1, 10)).unwrap();
            let risk = if i % 3 == 0 { "high" } else { "low" };
            b.set_property(node, "risk", risk, iv(1, 10)).unwrap();
            if i % 50 == 0 {
                b.set_property(node, "test", "pos", iv(8, 10)).unwrap();
            }
            for ahead in 1..=3 {
                let name = format!("m{i}_{ahead}");
                let meets = b.add_edge(&name, "meets", node, nodes[(i + ahead) % people]).unwrap();
                b.add_existence(meets, iv(2 + ((i + ahead) % 4) as u64, 6)).unwrap();
            }
        }
        GraphRelations::from_itpg(&b.domain(iv(1, 10)).build().unwrap())
    }

    fn plans(text: &str) -> Vec<EnginePlan> {
        crate::compiler::compile(&trpq::parser::parse_match(text).unwrap())
            .unwrap()
            .plans()
            .to_vec()
    }

    /// `(passes that built masks, gate outcomes of any kind)`.
    fn viability_outcomes(stats: &StepStats) -> (usize, usize) {
        let masked = stats.viability_built;
        (masked, masked + stats.viability_skipped)
    }

    /// Q9 as the benchmark writes it — an existential suffix after `x` — and with its
    /// last node bound, which matches the whole path forward.
    const Q9: &str =
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) ON g";
    const Q9_Y: &str =
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-(y {test = 'pos'}) ON g";

    /// `[hop_probes, hop_cursors, closure_rounds]`.
    fn work(stats: &StepStats) -> [usize; 3] {
        [stats.hop_probes, stats.hop_cursors, stats.closure_rounds]
    }

    #[test]
    fn seed_batches_leave_chains_and_hop_joins_as_one_batch_would() {
        let g = ring(2 * SEED_BATCH + 300);
        let seeds = g.seed_rows();
        assert!(seeds.len() > 2 * SEED_BATCH);
        // Five slices against three batches, their bounds apart: only a count per
        // cursor or per state adds up the same both ways.
        let slice_len = SEED_BATCH / 2 - 7;
        let mut masked_queries = Vec::new();
        for text in [
            "MATCH (x:Person {risk = 'high'})-[z:meets]->(y:Person {risk = 'low'}) ON g",
            Q9_Y,
            "MATCH (x:Person {risk = 'none'})-/FWD/:meets/FWD/-(y) ON g",
            REACH,
        ] {
            for plan in &plans(text) {
                let mut batched = StepStats::default();
                let chains = run_plan_seeded(plan, &g, &seeds, &mut batched);
                // Slices no longer than a batch run as one batch each: no sample,
                // no gate, no mask.
                let (mut expected, mut sliced) = (Vec::new(), [0; 3]);
                for slice in seeds.chunks(slice_len) {
                    let mut stats = StepStats::default();
                    expected.extend(run_plan_seeded(plan, &g, slice, &mut stats));
                    for (sum, count) in sliced.iter_mut().zip(work(&stats)) {
                        *sum += count;
                    }
                    assert_eq!(viability_outcomes(&stats), (0, 0), "{text}");
                }
                assert_eq!(chains, expected, "{text}");
                assert_eq!(chains.is_empty(), text.contains("'none'"), "{text}");
                assert_eq!(sliced[0] == 0, chains.is_empty(), "{text}");
                assert_eq!(sliced[2] > 0, plan.has_fixpoint(), "{text}");
                // Every counter is a sum of what ran, so the slices add up to the
                // whole — unless a mask kept the later batches off rows that lead
                // nowhere.  REACH's closure starts on the seed row, so its start
                // states are the seeds however they are batched.
                let (masked, outcomes) = viability_outcomes(&batched);
                let gated = usize::from(!plan.has_fixpoint());
                assert_eq!(outcomes, gated, "one gate decision per multi-batch call: {text}");
                let whole = work(&batched);
                assert!(whole[1] >= chains.len(), "{text}");
                if masked == 0 {
                    assert_eq!(whole, sliced, "{text}");
                } else {
                    assert!(whole[0] < sliced[0] && whole[1] < sliced[1], "{text}");
                }
                masked_queries.extend((masked == 1).then_some(text));
            }
        }
        // Only the query ending on the rare filter wastes more than half its sample.
        assert_eq!(masked_queries, [Q9_Y]);

        // Q9 as written walks its suffix back once per call, one batch or many, and
        // its forward pass makes no hop: every chain ends in the segment of `x`.
        let q9 = &plans(Q9)[0];
        let mut whole = StepStats::default();
        let chains = run_plan_seeded(q9, &g, &seeds, &mut whole);
        let mut sliced = Vec::new();
        for slice in seeds.chunks(slice_len) {
            let mut stats = StepStats::default();
            sliced.extend(run_plan_seeded(q9, &g, slice, &mut stats));
            assert_eq!(viability_outcomes(&stats), (1, 1));
        }
        assert_eq!(chains, sliced);
        assert!(!chains.is_empty() && chains.iter().all(|chain| chain.seg_intervals.is_empty()));
        assert_eq!(viability_outcomes(&whole), (1, 1));
        assert_eq!(work(&whole)[..2], [0, 0]);
    }

    #[test]
    fn a_wasteful_sample_behind_an_unselective_anchor_is_skipped_after_the_scan() {
        let g = ring(2 * SEED_BATCH + 300);
        let seeds = g.seed_rows();
        // Every edge of the ring is a meeting, so the sample throws all its
        // traversals away at `:visits` — but the anchor, `(y:Person)`, keeps every
        // node row.
        let plan = &plans("MATCH (x:Person)-[z:visits]->(y:Person) ON g")[0];
        let mut stats = StepStats::default();
        let chains = run_plan_seeded(plan, &g, &seeds, &mut stats);
        assert!(chains.is_empty());
        assert!(stats.hop_cursors > 0, "every traversal is wasted");
        assert_eq!(viability_outcomes(&stats), (0, 1));
        let visited = stats.viability_rows_visited;
        assert_eq!(visited, g.stats().temporal_nodes, "the scan and nothing else");
    }

    /// A hand-built contact graph of 36 persons and three rooms, small enough to
    /// reason about and irregular enough to matter: meetings with the next, second
    /// next and fifth next person at different times, one or two room visits each,
    /// existence gaps, risk flipping mid-life (several rows per person), a late
    /// positive test on every ninth.  Person `i` is high-risk when `i % 3` is
    /// `high_residue`: the first seed row is high-risk for residue 0 and low-risk
    /// for 1, and wasteful for the queries seeded from its kind either way — what
    /// a sample of one row needs to see.
    fn contact(high_residue: usize) -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let people = 36;
        let nodes: Vec<_> =
            (0..people).map(|i| b.add_node(&format!("p{i}"), "Person").unwrap()).collect();
        let rooms: Vec<_> = (0..3).map(|i| b.add_node(&format!("r{i}"), "Room").unwrap()).collect();
        for &room in &rooms {
            b.add_existence(room, iv(1, 20)).unwrap();
        }
        let lifetime =
            |i: usize| if i % 7 == 3 { vec![iv(1, 8), iv(11, 20)] } else { vec![iv(1, 20)] };
        // An edge exists only while both its endpoints do.
        let while_both = |during: Interval, i: usize, j: Option<usize>| -> Vec<Interval> {
            let mut parts = vec![during];
            for alive in [Some(i), j].into_iter().flatten().map(lifetime) {
                parts = parts
                    .iter()
                    .flat_map(|part| alive.iter().filter_map(|a| part.intersect(a)))
                    .collect();
            }
            parts
        };
        for (i, &node) in nodes.iter().enumerate() {
            let high = i % 3 == high_residue;
            for alive in lifetime(i) {
                b.add_existence(node, alive).unwrap();
                let (risk, flipped) = if high { ("high", "low") } else { ("low", "high") };
                if i % 4 == 2 && alive.contains_interval(&iv(9, 10)) {
                    b.set_property(node, "risk", risk, iv(alive.start(), 9)).unwrap();
                    b.set_property(node, "risk", flipped, iv(10, 20)).unwrap();
                } else {
                    b.set_property(node, "risk", risk, alive).unwrap();
                }
            }
            if i % 9 == 4 {
                b.set_property(node, "test", "pos", iv(15, 20)).unwrap();
            }
            let k = i as u64;
            for (ahead, during) in
                [(1, iv(2 + k % 5, 6 + k % 5)), (2, iv(9, 12)), (5, iv(14 + k % 3, 17))]
            {
                let other = (i + ahead) % people;
                let name = format!("m{i}_{ahead}");
                let meets = b.add_edge(&name, "meets", node, nodes[other]).unwrap();
                for part in while_both(during, i, Some(other)) {
                    b.add_existence(meets, part).unwrap();
                }
            }
            let visits = b.add_edge(&format!("v{i}"), "visits", node, rooms[(i / 2) % 3]).unwrap();
            let second = (i % 2 == 0).then_some(iv(12, 14));
            for during in std::iter::once(iv(3 + k % 4, 7 + k % 4)).chain(second) {
                for part in while_both(during, i, None) {
                    b.add_existence(visits, part).unwrap();
                }
            }
        }
        GraphRelations::from_itpg(&b.domain(iv(1, 20)).build().unwrap())
    }

    /// The plans of a benchmark query with its last node bound.  Q9–Q12 end on an
    /// anonymous `({test = 'pos'})`, an existential suffix the executor walks back
    /// exactly; bound to `y`, Steps 1–2 match the whole path forward, which is what
    /// the mask pins need.
    fn bound_last(id: QueryId) -> Vec<EnginePlan> {
        plans(&id.text().replace("({test = 'pos'})", "(y {test = 'pos'})"))
    }

    #[test]
    fn masked_batches_return_the_unmasked_chains_in_the_same_order() {
        use QueryId::{Q10, Q11, Q12, Q5, Q9};
        for (high_residue, low_yield) in [(0, &[Q9, Q10, Q11, Q12][..]), (1, &[Q5][..])] {
            let g = contact(high_residue);
            let seeds = g.seed_rows();
            let mut answered = 0;
            for id in QueryId::ALL {
                // As written, Q9–Q12 walk their suffix back once per call: the same
                // chains whatever the batching.
                let suffixed = matches!(id, Q9 | Q10 | Q11 | Q12);
                for plan in crate::queries::plan_for(id).plans().iter().filter(|_| suffixed) {
                    let mut one = StepStats::default();
                    let expected = run_plan_batched(plan, &g, &seeds, &mut one, seeds.len());
                    assert_eq!(viability_outcomes(&one), (1, 1), "{}", id.name());
                    for batch_len in [1, 3] {
                        let mut stats = StepStats::default();
                        let chains = run_plan_batched(plan, &g, &seeds, &mut stats, batch_len);
                        assert_eq!(chains, expected, "{} × {batch_len}", id.name());
                        assert_eq!(viability_outcomes(&stats), (1, 1), "{}", id.name());
                    }
                }
                for plan in &bound_last(id) {
                    // All seeds in one batch: the run no mask can touch.
                    let mut plain = StepStats::default();
                    let expected = run_plan_batched(plan, &g, &seeds, &mut plain, seeds.len());
                    assert_eq!(viability_outcomes(&plain), (0, 0));
                    answered += usize::from(!expected.is_empty());
                    for batch_len in [1, 3, 8] {
                        let context = format!("{} × {batch_len}", id.name());
                        let mut stats = StepStats::default();
                        let chains = run_plan_batched(plan, &g, &seeds, &mut stats, batch_len);
                        assert_eq!(chains, expected, "{context}");
                        let (masked, outcomes) = viability_outcomes(&stats);
                        assert_eq!(outcomes, 1, "{context}");
                        let (whole, unmasked) = (stats.hop_cursors, plain.hop_cursors);
                        assert!(whole <= unmasked, "{context}");
                        if low_yield.contains(&id) {
                            assert_eq!(masked, 1, "{context}: the sample wastes its traversals");
                            assert!(whole < unmasked, "{context}");
                        }
                    }
                }
            }
            assert!(answered >= 10, "most plans must match something: {answered}");
        }
    }

    /// RECUR as `closure-g2` runs it: an existential suffix after `x`.
    const RECUR: &str =
        "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON g";

    /// REACH as `closure-g2` runs it.
    const REACH: &str = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON g";

    /// `closure-g2`'s two plans with their last node bound, REACH also ending on
    /// RECUR's rare filter: behind a selective anchor or not, they run unmasked.
    const FIXPOINTS: [&str; 3] = [
        "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y {test = 'pos'}) ON g",
        "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-(y {test = 'pos'}) ON g",
        REACH,
    ];

    /// Closures that start somewhere other than the seed row — after a hop, or
    /// nested in another closure — so a start state can recur in several batches.
    const OFF_SEED: [&str; 2] = [
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/(FWD/:meets/FWD)*/-(y:Person) ON g",
        "MATCH (x:Person {risk = 'high'})-/((FWD/:meets/FWD)[1,2] + BWD/:meets/BWD)*/-(y) ON g",
    ];

    #[test]
    fn masked_fixpoints_return_the_unmasked_chains_in_the_same_order() {
        let window = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)[2,3]/-(y:Person) ON g";
        for g in [contact(0), contact(1), ring(150)] {
            let seeds = g.seed_rows();
            // RECUR as written runs its closure backwards only, once per call.
            let recur = &plans(RECUR)[0];
            let mut stats = StepStats::default();
            let chains = run_plan_seeded(recur, &g, &seeds, &mut stats);
            assert_eq!(viability_outcomes(&stats), (1, 1), "RECUR");
            let rounds = stats.time_closure_rounds;
            assert!(rounds > 0, "the backward fixpoint counts its rounds");
            assert!(!chains.is_empty());
            assert!(chains.iter().all(|chain| chain.lags.is_empty()), "no closure crossed");
            for text in FIXPOINTS.iter().chain([&window]).chain(&OFF_SEED) {
                let plan = &plans(text)[0];
                assert!(plan.has_fixpoint());
                // All seeds in one batch and no masks.
                let mut plain = StepStats::default();
                let expected = run_plan_batched(plan, &g, &seeds, &mut plain, seeds.len());
                assert!(!expected.is_empty(), "{text}");
                for batch_len in [1, 3, 8, SEED_BATCH] {
                    let context = format!("{text} × {batch_len}");
                    let mut stats = StepStats::default();
                    let chains = run_plan_batched(plan, &g, &seeds, &mut stats, batch_len);
                    assert_eq!(chains, expected, "{context}");
                    assert_eq!(viability_outcomes(&stats), (0, 0), "{context}: no gate");
                    // A start state runs once per batch that reaches it: the seed
                    // rows are distinct, so a closure on them does no more work.
                    let (batched, whole) = (work(&stats), work(&plain));
                    if OFF_SEED.contains(text) {
                        assert!(batched.iter().zip(&whole).all(|(b, w)| b >= w), "{context}");
                    } else {
                        assert_eq!(batched, whole, "{context}");
                    }
                    // The band fixpoint moves a batch's start states through the
                    // rounds together: each batch runs as many as its deepest.
                    let (rounds, unbatched) =
                        (stats.time_closure_rounds, plain.time_closure_rounds);
                    if batch_len >= seeds.len() {
                        assert_eq!(rounds, unbatched, "{context}");
                    } else {
                        assert!(rounds >= unbatched, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_queries_run_on_the_tiny_graph() {
        let g = relations();
        for id in QueryId::ALL {
            let out = execute_query(id, &g, &ExecutionOptions::default());
            assert_eq!(out.stats.output_rows, out.table.len(), "{}", id.name());
        }
    }
}
