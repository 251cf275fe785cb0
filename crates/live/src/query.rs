//! Maintained query state: per-plan result caches, delta-seeded refresh, and the
//! statistics a refresh reports.
//!
//! A refresh re-runs a plan from the seed rows a pending batch can have changed
//! and nowhere else.  Two facts bound them.  A chain observes only objects within
//! the plan's hop bound of its seed, so a hop-bounded plan re-runs the seeds of
//! the nodes near a touched object (`affected_nodes`, a sweep of the
//! relations' adjacency).  And a plan with no
//! temporal link answers at time `t` from the snapshot at `t` alone, so a purely
//! structural plan re-runs only the seed rows that are new or whose interval
//! meets the times the batch changed ([`tgraph::AppliedBatch::times`]), however
//! far its closures reach.  Every cached binding row remembers its seed row, so a
//! re-run replaces exactly what it recomputes.
//!
//! The maintained table is kept with a count per row: how many cached rows, over
//! every plan alternative and seed, equal it.  A refresh moves the rows it
//! replaces out of the caches and merges them, with the re-run's rows, into the
//! table as one counted delta (`merge_delta`), so it sorts only what changed.

use std::sync::Arc;
use std::time::Duration;

use engine::bindings::{Binding, BindingTable};
use engine::chain::Chain;
use engine::plan::{EnginePlan, PlanSet};
use engine::steps::expand::expand_chains;
use engine::steps::StepStats;
use engine::{run_plan_seeded, GraphRelations};
use tgraph::{AppliedBatch, Interval, IntervalSet, NodeId};

/// Handle to a query registered on a [`crate::LiveGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LiveQueryId(pub(crate) usize);

/// What one refresh of a maintained query did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// The epoch of the last batch folded into this refresh, if any batch has
    /// ever been applied.
    pub epoch: Option<u64>,
    /// Binding-table rows added relative to the previous maintained answer.
    pub rows_added: usize,
    /// Binding-table rows retracted relative to the previous maintained answer.
    pub rows_retracted: usize,
    /// Rows of the maintained answer after the refresh.
    pub output_rows: usize,
    /// Nodes within the hop bound of a touched object, summed over the
    /// hop-bounded plan alternatives (0 when no alternative is hop-bounded or
    /// nothing was pending).
    pub affected_seeds: usize,
    /// Seed node rows the plan was re-run from, summed over its alternatives.
    pub seed_rows: usize,
    /// True if at least one plan alternative re-ran every live seed row: one
    /// whose temporal links move time and whose hop reach is unbounded (or
    /// beyond the sweep cap), such as a time-aware closure.  A purely
    /// structural plan never takes it, whatever its closures.
    pub fallback_full: bool,
    /// Structural-closure fixpoint rounds executed during the refresh, summed
    /// over the start states ([`engine::StepStats::closure_rounds`]).
    pub closure_rounds: usize,
    /// Time-aware-closure fixpoint rounds executed during the refresh.
    pub time_rounds: usize,
    /// Wall-clock time spent choosing the seed rows to re-run, summed over the
    /// plan alternatives.
    pub seeding: Duration,
    /// Wall-clock time spent re-running the plan alternatives from those seed
    /// rows and splicing their rows into the caches.
    pub rerun: Duration,
    /// Wall-clock time spent merging the counted delta into the table.
    pub merge: Duration,
    /// Wall-clock time of the refresh, at least `seeding + rerun + merge`.
    pub duration: Duration,
}

/// One binding row: a binding per column.
type Row = Vec<Binding>;

/// Cached binding rows, each tagged with the node row it was seeded at.
#[derive(Debug, Clone, Default)]
struct SeedRows {
    rows: Vec<Row>,
    /// `seeds[i]` is the seed row of `rows[i]`.
    seeds: Vec<u32>,
}

impl SeedRows {
    /// Keeps the rows whose seed row satisfies `keep`, in order, and moves the
    /// others onto `out`.  `keep` is asked once per run of rows with one seed
    /// row; a re-run appends each seed row's rows as one run.
    fn take_seeds(&mut self, keep: impl Fn(u32) -> bool, out: &mut Vec<Row>) {
        let mut kept = 0;
        let mut run: Option<(u32, bool)> = None;
        for i in 0..self.rows.len() {
            let seed = self.seeds[i];
            let keeps = match run {
                Some((run_seed, keeps)) if run_seed == seed => keeps,
                _ => run.insert((seed, keep(seed))).1,
            };
            if keeps {
                self.rows.swap(kept, i);
                self.seeds[kept] = seed;
                kept += 1;
            } else {
                out.push(std::mem::take(&mut self.rows[i]));
            }
        }
        self.rows.truncate(kept);
        self.seeds.truncate(kept);
    }
}

/// The rows a refresh moves into and out of the caches, over every plan
/// alternative: the multiset difference between the caches after and before.
#[derive(Debug, Default)]
struct CacheDelta {
    plus: Vec<Row>,
    minus: Vec<Row>,
}

/// One plan alternative's cached results.
#[derive(Debug, Clone)]
struct PlanCache {
    /// Static execution bounds of the (immutable) plan, computed once at
    /// registration by the semantic analyzer ([`engine::static_bounds`]) rather
    /// than re-derived on every refresh.  `max_hops` decides where a refresh
    /// looks for seeds: around the touched objects if bounded, among every live
    /// row if not.
    bounds: engine::PlanBounds,
    /// The domain `bounds` was computed against.  The closure iteration bound
    /// depends on the domain span, so a delta that widens the domain
    /// invalidates the cached bounds (they are recomputed on the next
    /// refresh); any other delta leaves them valid forever.
    bounds_domain: Interval,
    /// Expanded binding rows with their seed rows.
    cached: SeedRows,
}

impl PlanCache {
    /// Re-runs `plan` from `seeds` (live node rows, ascending) and splices the
    /// result in: first the cached rows of every seed row that is dead or in
    /// `seeds` move onto `delta.minus`, then the new expansions are appended,
    /// and copied onto `delta.plus`.
    fn rerun(
        &mut self,
        plan: &EnginePlan,
        graph: &GraphRelations,
        seeds: &[u32],
        step_stats: &mut StepStats,
        delta: &mut CacheDelta,
    ) {
        debug_assert!(seeds.windows(2).all(|w| w[0] < w[1]), "seed rows ascend");
        let cached = &mut self.cached;
        cached.take_seeds(
            |seed| graph.is_node_row_live(seed) && seeds.binary_search(&seed).is_err(),
            &mut delta.minus,
        );
        // Chains come back grouped by seed; each run of one seed's chains is
        // expanded onto the end of the cache and tagged with its seed row.
        let fresh = cached.rows.len();
        let chains = run_plan_seeded(plan, graph, seeds, step_stats);
        for run in chains.chunk_by(|a: &Chain, b: &Chain| a.seed == b.seed) {
            expand_chains(plan, run, &mut cached.rows);
            cached.seeds.resize(cached.rows.len(), run[0].seed);
        }
        delta.plus.extend_from_slice(&cached.rows[fresh..]);
    }
}

/// The hop radius delta seeding may rely on, if any: the analyzer's bound,
/// capped by the audit's [`engine::plan::audit::MAX_STATIC_HOPS`] so a huge
/// (technically finite) bound cannot turn one refresh into a whole-graph
/// breadth-first sweep that costs more than the full recompute it avoids.
fn seeding_hops(bounds: &engine::PlanBounds) -> Option<usize> {
    bounds.max_hops.filter(|&h| h <= engine::plan::audit::MAX_STATIC_HOPS)
}

/// A registered query: its compiled plan set plus the maintained answer.
///
/// The answer table lives behind an [`Arc`] so MVCC snapshots
/// ([`crate::epoch::EpochSnapshot`]) can retain the epoch's answer without
/// copying rows: a refresh builds the next table and swaps the handle, leaving
/// pinned readers on the old one.
#[derive(Debug, Clone)]
pub(crate) struct QueryState {
    plan_set: PlanSet,
    plans: Vec<PlanCache>,
    /// The canonical (sorted, deduplicated) answer: every distinct cached row.
    table: Arc<BindingTable>,
    /// `counts[i]` is how many cached rows, over every plan alternative and
    /// seed row, equal `table.rows()[i]`; never 0.
    counts: Vec<u32>,
    /// Nodes touched by batches applied since the last refresh, in batch
    /// order and with repeats: where the sweep starts, at distance 0.
    pending_nodes: Vec<NodeId>,
    /// Both endpoints of every edge those batches touched, with repeats: where
    /// the sweep starts at distance 1.
    pending_ends: Vec<NodeId>,
    /// The times at which those batches changed the graph.
    pending_times: IntervalSet,
    /// Node rows of the relations at the last refresh.  Rows only ever append,
    /// so every row at or past this index is new since then.
    rows_seen: usize,
}

impl QueryState {
    /// Compiles the initial state of a registered query: a full evaluation of
    /// every plan, cached with the seed row of each binding row, merged into an
    /// empty table.
    pub(crate) fn build(plan_set: PlanSet, graph: &GraphRelations) -> Self {
        let mut step_stats = StepStats::default();
        let seeds = graph.seed_rows();
        let mut delta = CacheDelta::default();
        let mut plans = Vec::with_capacity(plan_set.plans().len());
        for plan in plan_set.plans() {
            let mut cache = PlanCache {
                bounds: engine::static_bounds(plan, graph.domain()),
                bounds_domain: graph.domain(),
                cached: SeedRows::default(),
            };
            cache.rerun(plan, graph, &seeds, &mut step_stats, &mut delta);
            plans.push(cache);
        }
        let mut table = Arc::new(BindingTable::new(plan_set.variables().to_vec()));
        let mut counts = Vec::new();
        merge_delta(&mut table, &mut counts, delta);
        QueryState {
            plan_set,
            plans,
            table,
            counts,
            pending_nodes: Vec::new(),
            pending_ends: Vec::new(),
            pending_times: IntervalSet::empty(),
            rows_seen: graph.nodes().len(),
        }
    }

    pub(crate) fn plan_set(&self) -> &PlanSet {
        &self.plan_set
    }

    pub(crate) fn table(&self) -> &BindingTable {
        &self.table
    }

    /// A shared handle to the maintained answer as of the last refresh —
    /// what epoch snapshots retain.
    pub(crate) fn table_handle(&self) -> Arc<BindingTable> {
        Arc::clone(&self.table)
    }

    /// Records what an applied batch touched, and when, for the next refresh:
    /// its touched nodes, the endpoints `ends` of its touched edges and its
    /// times.
    pub(crate) fn note_applied(&mut self, applied: &AppliedBatch, ends: &[NodeId]) {
        self.pending_nodes.extend(applied.touched.iter().filter_map(|object| object.as_node()));
        self.pending_ends.extend_from_slice(ends);
        self.pending_times = self.pending_times.union(&applied.times);
    }

    /// Folds every pending delta into the maintained answer, re-running each
    /// plan alternative from the seed rows the deltas can have changed and
    /// merging what the re-runs changed into the table.
    ///
    /// The candidates are the live rows of the nodes within the hop bound of a
    /// touched object ([`affected_nodes`]) for a hop-bounded alternative, and
    /// every live row for an unbounded one.  A purely structural alternative
    /// re-runs only the candidates that are new since the last refresh or whose
    /// interval meets the pending times; any other alternative re-runs them all,
    /// because its links move time, so a change at `t` reaches seeds at other
    /// times.  The cached rows of a re-run or dead seed row are moved out as the
    /// delta's `minus` and the re-run's rows come in as its `plus`; one
    /// [`merge_delta`] nets the two against the counted table, so the refresh
    /// sorts only the rows it moved.  A row is added when its count leaves 0
    /// and retracted when its count reaches 0, which is exactly the difference
    /// between the old and new deduplicated tables.
    ///
    /// Why skipping the other rows is exact: without a temporal link, a chain's
    /// interval lies inside its seed row's interval, and every row boundary
    /// strictly inside that interval separates two states at times within it.
    /// A batch changes no state outside its times, and a live row that is not
    /// new kept its index and content, so a live seed row whose interval misses
    /// the pending times yields the same bindings before and after.  That
    /// covers the rows a delta keeps for a touched object whose state over
    /// them it did not change ([`GraphRelations::apply_delta`]): a kept row is
    /// the very row a rebuild would produce, at its old index.  A row whose
    /// state did change is tombstoned, and every row replacing it is appended
    /// at or past `rows_seen`, so it is new, even where its interval misses the
    /// pending times (the rest of a row split by a change at one point).  This
    /// rests on rows only ever appending: a compaction that renumbers node rows
    /// must reset `rows_seen` (re-running everything) or remap the cached seed
    /// rows.
    pub(crate) fn refresh(&mut self, graph: &GraphRelations, epoch: Option<u64>) -> RefreshStats {
        let started = obs::Stopwatch::start();
        let mut stats = RefreshStats { epoch, ..Default::default() };
        if self.pending_nodes.is_empty() && self.pending_ends.is_empty() {
            stats.output_rows = self.table.len();
            stats.duration = started.elapsed();
            return stats;
        }
        let (nodes, ends) =
            (std::mem::take(&mut self.pending_nodes), std::mem::take(&mut self.pending_ends));
        let times = std::mem::take(&mut self.pending_times);
        let rows_seen = std::mem::replace(&mut self.rows_seen, graph.nodes().len());
        let mut step_stats = StepStats::default();
        let mut delta = CacheDelta::default();
        for (plan, cache) in self.plan_set.plans().iter().zip(&mut self.plans) {
            let seeding = obs::Stopwatch::start();
            if cache.bounds_domain != graph.domain() {
                // The domain widened since the bounds were cached; the closure
                // iteration bound scales with the domain span, so refresh it.
                cache.bounds = engine::static_bounds(plan, graph.domain());
                cache.bounds_domain = graph.domain();
            }
            let hops = seeding_hops(&cache.bounds);
            let mut seeds = match hops {
                Some(hops) => {
                    let affected = affected_nodes(graph, &nodes, &ends, hops);
                    stats.affected_seeds += affected.len();
                    let mut rows: Vec<u32> = affected
                        .iter()
                        .flat_map(|&n| graph.rows_of_node(n).iter().copied())
                        .collect();
                    rows.sort_unstable();
                    rows
                }
                None => graph.seed_rows(),
            };
            if plan.is_purely_structural() {
                let nodes = graph.nodes();
                seeds.retain(|&row| {
                    row as usize >= rows_seen || times.intersects_interval(&nodes.get(row).interval)
                });
            } else {
                stats.fallback_full |= hops.is_none();
            }
            stats.seed_rows += seeds.len();
            stats.seeding += seeding.elapsed();
            let rerun = obs::Stopwatch::start();
            cache.rerun(plan, graph, &seeds, &mut step_stats, &mut delta);
            stats.rerun += rerun.elapsed();
        }
        let merge = obs::Stopwatch::start();
        (stats.rows_added, stats.rows_retracted) =
            merge_delta(&mut self.table, &mut self.counts, delta);
        stats.merge = merge.elapsed();
        stats.output_rows = self.table.len();
        stats.closure_rounds = step_stats.closure_rounds;
        stats.time_rounds = step_stats.time_closure_rounds;
        stats.duration = started.elapsed();
        stats
    }
}

/// Merges a cache delta into a counted canonical table, returning how many
/// rows it added and retracted.
///
/// `counts[i]` is the multiplicity of `table.rows()[i]` among the cached rows,
/// and `delta.minus` must be a sub-multiset of them.  The delta's two lists
/// are sorted and netted per distinct row; a table the net leaves unchanged is
/// not copied.  Otherwise one walk of the old table, binary-searching from one
/// net row to the next, gives the next table and its counts; it copies the
/// rows it keeps, because an epoch may still pin the old table.  A row whose
/// count leaves 0 is added, one whose count reaches 0 is retracted: the set
/// difference between the old and new tables.
fn merge_delta(
    table: &mut Arc<BindingTable>,
    counts: &mut Vec<u32>,
    delta: CacheDelta,
) -> (usize, usize) {
    let plus = delta.plus.into_iter().map(|row| (row, 1));
    let mut net: Vec<(Row, i64)> =
        plus.chain(delta.minus.into_iter().map(|row| (row, -1))).collect();
    net.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    net.dedup_by(|(row, change), (kept, total)| {
        let same = row == kept;
        if same {
            *total += *change;
        }
        same
    });
    net.retain(|&(_, change)| change != 0);
    if net.is_empty() {
        return (0, 0);
    }
    let old = table.rows();
    let mut rows = Vec::with_capacity(old.len() + net.len());
    let mut next_counts = Vec::with_capacity(rows.capacity());
    let (mut added, mut retracted) = (0, 0);
    // `old[at..]` is what the walk has not passed yet.
    let mut at = 0;
    for (row, change) in net {
        let before = at + old[at..].partition_point(|old_row| *old_row < row);
        rows.extend_from_slice(&old[at..before]);
        next_counts.extend_from_slice(&counts[at..before]);
        at = before;
        let count = if old.get(at) == Some(&row) {
            at += 1;
            counts[at - 1]
        } else {
            0
        };
        let next = u32::try_from(i64::from(count) + change)
            .expect("a delta retracts only rows the caches hold");
        if count == 0 {
            added += 1;
        } else if next == 0 {
            retracted += 1;
        }
        if next > 0 {
            rows.push(row);
            next_counts.push(next);
        }
    }
    rows.extend_from_slice(&old[at..]);
    next_counts.extend_from_slice(&counts[at..]);
    *table = Arc::new(BindingTable::from_rows(table.columns.clone(), rows));
    *counts = next_counts;
    (added, retracted)
}

/// The nodes whose seeds a delta can have affected, for a plan performing at
/// most `hops` structural hops: every node within `hops` of a touched object,
/// where a touched node lies at distance 0, a touched edge's endpoints `ends` at
/// 1, and each step from a node through an edge row to its other endpoint adds
/// 2 (node → edge → node).  `nodes` and `ends` may repeat.
///
/// Correctness: a chain visits objects in hop order, so any chain observing a
/// touched object within its first `hops` hops starts within `hops` such steps
/// of it.  The sweep walks the live edge rows of the *current* relations, which
/// cover derivations of the old graph too: an edge's existence only ever
/// grows, so an edge with a live row before a batch has one after it, and an
/// edge with no row was never traversed.
///
/// The sweep bounds a refresh in space only: a purely structural plan keeps, of
/// these nodes' rows, the ones new or meeting the batch's times
/// ([`QueryState::refresh`]); a plan with temporal links re-runs them all.
///
/// The visited set is one flag per node, and the nodes come back in id order.
fn affected_nodes(
    graph: &GraphRelations,
    nodes: &[NodeId],
    ends: &[NodeId],
    hops: usize,
) -> Vec<NodeId> {
    let mut seen = vec![false; graph.num_nodes()];
    // True the first time `node` is met.
    let mut first_visit = |node: NodeId| !std::mem::replace(&mut seen[node.index()], true);
    // `levels[d]` holds the nodes first met at distance `d`; each level is
    // complete before the one after it is built, so a node lands at its least
    // distance.
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    levels.push(nodes.iter().copied().filter(|&n| first_visit(n)).collect());
    if hops >= 1 {
        levels.push(ends.iter().copied().filter(|&n| first_visit(n)).collect());
    }
    let edges = graph.edges();
    for distance in 2..=hops {
        let mut next = Vec::new();
        for &node in &levels[distance - 2] {
            let out = graph.out_edge_rows(node).iter().map(|&row| edges.get(row).tgt);
            let into = graph.in_edge_rows(node).iter().map(|&row| edges.get(row).src);
            next.extend(out.chain(into).filter(|&n| first_visit(n)));
        }
        if next.is_empty() && levels[distance - 1].is_empty() {
            break;
        }
        levels.push(next);
    }
    (0..).zip(seen).filter(|&(_, seen)| seen).map(|(id, _)| NodeId(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::plan::{HopDirection, MicroOp, ObjFilter, Segment, Shift, TemporalLink};
    use proptest::prelude::*;
    use tgraph::{Itpg, Object};

    #[test]
    fn cached_bounds_pick_the_refresh_path() {
        let domain = Interval::of(0, 10);
        let hop = MicroOp::Hop(HopDirection::Forward);
        let filter = MicroOp::Filter(ObjFilter::default());
        let plain = EnginePlan::new(
            vec![Segment { ops: vec![filter.clone(), hop.clone(), hop.clone()] }],
            vec![],
        )
        .unwrap();
        assert_eq!(seeding_hops(&engine::static_bounds(&plain, domain)), Some(2));
        let shifted = EnginePlan::new(
            vec![Segment { ops: vec![hop.clone()] }, Segment { ops: vec![hop.clone()] }],
            vec![TemporalLink::Shift(Shift { forward: true, min: 0, max: None })],
        )
        .unwrap();
        assert_eq!(seeding_hops(&engine::static_bounds(&shifted, domain)), Some(2));
        // An unbounded structural closure has no hop bound: its refresh looks
        // among every live row, narrowed by the batch's times.
        let closure = engine::plan::ClosureOp::structural(vec![vec![hop.clone()]], 0, None);
        let with_closure =
            EnginePlan::new(vec![Segment { ops: vec![MicroOp::Closure(closure)] }], vec![])
                .unwrap();
        assert_eq!(seeding_hops(&engine::static_bounds(&with_closure, domain)), None);
        // A time-advancing closure is span-bounded — delta seeding applies...
        let advancing = engine::plan::ClosureOp {
            alternatives: vec![vec![
                engine::plan::ClosureStep::Micro(hop.clone()),
                engine::plan::ClosureStep::Micro(hop.clone()),
                engine::plan::ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) }),
            ]],
            min: 0,
            max: None,
        };
        let with_time_closure = EnginePlan::new(
            vec![Segment::default(), Segment::default()],
            vec![TemporalLink::Closure(advancing)],
        )
        .unwrap();
        assert_eq!(seeding_hops(&engine::static_bounds(&with_time_closure, domain)), Some(20));
        // ...until the domain is so wide that the sweep would dwarf the
        // recompute it replaces.
        let wide = Interval::of(0, 100_000);
        assert_eq!(seeding_hops(&engine::static_bounds(&with_time_closure, wide)), None);
    }

    /// The sweep `affected_nodes` replaces, over an `Itpg`: a breadth-first
    /// walk of the bipartite object graph (nodes ↔ incident edges, one step
    /// each) to depth `hops` from every touched object, edges that never exist
    /// included.
    fn object_graph_sweep(itpg: &Itpg, touched: &[Object], hops: usize) -> Vec<NodeId> {
        let mut node_seen = vec![false; itpg.num_nodes()];
        let mut edge_seen = vec![false; itpg.num_edges()];
        let mut first_visit = |object: Object| {
            let seen = match object {
                Object::Node(n) => &mut node_seen[n.index()],
                Object::Edge(e) => &mut edge_seen[e.index()],
            };
            !std::mem::replace(seen, true)
        };
        let mut frontier: Vec<Object> =
            touched.iter().copied().filter(|&object| first_visit(object)).collect();
        for _ in 0..hops {
            let mut next: Vec<Object> = Vec::new();
            for &object in &frontier {
                match object {
                    Object::Node(n) => {
                        let edges = itpg.out_edges(n).iter().chain(itpg.in_edges(n));
                        next.extend(edges.map(|&e| Object::Edge(e)).filter(|&e| first_visit(e)));
                    }
                    Object::Edge(e) => {
                        let ends = [itpg.src(e), itpg.tgt(e)].map(Object::Node);
                        next.extend(ends.into_iter().filter(|&n| first_visit(n)));
                    }
                }
            }
            frontier = next;
        }
        (0..).zip(node_seen).filter(|&(_, seen)| seen).map(|(id, _)| NodeId(id)).collect()
    }

    /// `affected_nodes` from `touched` as a batch hands it over: the touched
    /// nodes, and both endpoints of each touched edge.
    fn sweep(
        itpg: &Itpg,
        relations: &GraphRelations,
        touched: &[Object],
        hops: usize,
    ) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = touched.iter().filter_map(|o| o.as_node()).collect();
        let edges = touched.iter().filter_map(|o| o.as_edge());
        let ends: Vec<NodeId> = edges.flat_map(|e| [itpg.src(e), itpg.tgt(e)]).collect();
        affected_nodes(relations, &nodes, &ends, hops)
    }

    #[test]
    fn the_sweep_returns_each_node_within_reach_once_in_id_order() {
        // d → c → b → a, built in that order so ids run against the edges.
        let mut b = tgraph::ItpgBuilder::new();
        let ids: Vec<NodeId> =
            ["d", "c", "b", "a"].iter().map(|name| b.add_node(name, "Person").unwrap()).collect();
        let edges: Vec<_> = ids
            .windows(2)
            .map(|w| b.add_edge(&format!("e{}", w[0].0), "meets", w[0], w[1]).unwrap())
            .collect();
        for &n in &ids {
            b.add_existence(n, Interval::of(0, 1)).unwrap();
        }
        for &e in &edges {
            b.add_existence(e, Interval::of(0, 1)).unwrap();
        }
        let itpg = b.domain(Interval::of(0, 1)).build().unwrap();
        let relations = GraphRelations::from_itpg(&itpg);
        // Node → edge is one step, edge → node another.
        let from_c = [Object::Node(ids[1])];
        assert_eq!(sweep(&itpg, &relations, &from_c, 1), [ids[1]]);
        assert_eq!(sweep(&itpg, &relations, &from_c, 2), [ids[0], ids[1], ids[2]]);
        assert_eq!(sweep(&itpg, &relations, &from_c, 99), ids);
        // Touched objects that overlap are visited once; an edge alone reaches
        // no node, and its endpoints one step later.
        let both = [Object::Node(ids[0]), Object::Node(ids[1]), Object::Edge(edges[0])];
        assert_eq!(sweep(&itpg, &relations, &both, 1), [ids[0], ids[1]]);
        assert!(sweep(&itpg, &relations, &[Object::Edge(edges[2])], 0).is_empty());
        assert_eq!(sweep(&itpg, &relations, &[Object::Edge(edges[2])], 1), [ids[2], ids[3]]);
    }

    #[test]
    fn the_sweep_follows_replaced_rows_and_edges_created_without_existence() {
        let iv = Interval::of;
        let mut graph = crate::LiveGraph::new(iv(1, 10));
        let mut oracle = Itpg::empty(iv(1, 10));
        // A chain a → b → c → d; the edge b → c has two rows.
        let mut chain = tgraph::Batch::new(1);
        for name in ["a", "b", "c", "d"] {
            chain.add_node(name, "Person").add_existence(name, iv(1, 10));
        }
        for (edge, src, tgt) in [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")] {
            chain.add_edge(edge, "meets", src, tgt).add_existence(edge, iv(2, 6));
        }
        chain.set_property("bc", "loc", "park", iv(2, 3));
        // The batch replaces bc's rows: its [4, 6] row splits at 5.
        let mut replace = tgraph::Batch::new(2);
        replace.set_property("bc", "loc", "bar", iv(5, 5));
        // An edge d → a with no existence: no row carries it, its endpoints
        // come from the writer.
        let mut nowhere = tgraph::Batch::new(3);
        nowhere.add_edge("da", "meets", "d", "a");
        // It exists later, inside its endpoints' existence.
        let mut later = tgraph::Batch::new(4);
        later.add_existence("da", iv(7, 8));
        for batch in [chain, replace, nowhere, later] {
            let stats = graph.apply(&batch).unwrap();
            let applied = oracle.apply_batch(&batch).unwrap();
            assert_eq!(stats.applied, applied);
            for hops in 0..=3 {
                assert_eq!(
                    sweep(&oracle, graph.relations(), &applied.touched, hops),
                    object_graph_sweep(&oracle, &applied.touched, hops),
                    "batch {} at {hops} hops",
                    batch.epoch
                );
            }
        }
        // What the refresh sweeps is what the batch touched: a two-hop plan
        // registered after the chain re-runs the seeds of the nodes within two
        // hops of `da`'s endpoints.
        let two_hops = graph.register_text("MATCH (x)-/FWD/:meets/FWD/-(y) ON live").unwrap();
        let hops = seeding_hops(&engine::static_bounds(
            &graph.plan_set(two_hops).plans()[0],
            graph.relations().domain(),
        ));
        assert_eq!(hops, Some(2));
        let mut again = tgraph::Batch::new(5);
        again.add_existence("da", iv(9, 10));
        graph.apply(&again).unwrap();
        let applied = oracle.apply_batch(&again).unwrap();
        let stats = graph.refresh(two_hops);
        assert_eq!(stats.affected_seeds, object_graph_sweep(&oracle, &applied.touched, 2).len());
        assert_eq!(stats.affected_seeds, 2, "d and a, at one step from the edge");
    }

    /// A random graph: `nodes` people and an edge per drawn pair, each with a
    /// row, so both sweeps walk the same adjacency.
    fn random_graph(nodes: usize, edges: &[(usize, usize)]) -> Itpg {
        let mut b = tgraph::ItpgBuilder::new();
        let ids: Vec<NodeId> =
            (0..nodes).map(|i| b.add_node(&format!("n{i}"), "Person").unwrap()).collect();
        for &n in &ids {
            b.add_existence(n, Interval::of(0, 9)).unwrap();
        }
        for (i, &(src, tgt)) in edges.iter().enumerate() {
            let e =
                b.add_edge(&format!("e{i}"), "meets", ids[src % nodes], ids[tgt % nodes]).unwrap();
            b.add_existence(e, Interval::of(i as u64 % 4, 4 + i as u64 % 3)).unwrap();
            b.add_existence(e, Interval::of(8, 9)).unwrap();
        }
        b.domain(Interval::of(0, 9)).build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On graphs whose every edge has rows, the node → node sweep returns
        /// the nodes the object-graph sweep does, from touched nodes and from
        /// touched edges, at every hop count up to 3.
        #[test]
        fn the_sweep_matches_the_object_graph_sweep(
            nodes in 1..8usize,
            edges in prop::collection::vec((0..8usize, 0..8usize), 0..12),
            touched in prop::collection::vec((any::<bool>(), 0..12usize), 0..4),
        ) {
            let itpg = random_graph(nodes, &edges);
            let relations = GraphRelations::from_itpg(&itpg);
            let touched: Vec<Object> = touched
                .into_iter()
                .filter_map(|(node, i)| match node {
                    true => Some(Object::Node(NodeId((i % nodes) as u32))),
                    false => (!edges.is_empty())
                        .then(|| Object::Edge(tgraph::EdgeId((i % edges.len()) as u32))),
                })
                .collect();
            for hops in 0..=3 {
                prop_assert_eq!(
                    sweep(&itpg, &relations, &touched, hops),
                    object_graph_sweep(&itpg, &touched, hops),
                    "{} hops from {:?}", hops, touched
                );
            }
        }
    }

    fn row(object: u32, t: u64) -> Row {
        vec![Binding::at_point(Object::Node(NodeId(object)), t)]
    }

    fn columns() -> Vec<String> {
        vec!["x".to_owned()]
    }

    /// Merges `plus` and `minus` into the counted table of `cached` built from an
    /// empty one, returning the table, its counts and what the merge changed.
    fn merged(
        cached: Vec<Row>,
        plus: Vec<Row>,
        minus: Vec<Row>,
    ) -> (Arc<BindingTable>, Vec<u32>, (usize, usize)) {
        let mut table = Arc::new(BindingTable::new(columns()));
        let mut counts = Vec::new();
        merge_delta(&mut table, &mut counts, CacheDelta { plus: cached, minus: Vec::new() });
        let changed = merge_delta(&mut table, &mut counts, CacheDelta { plus, minus });
        (table, counts, changed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge against a multiset model: the next table is
        /// `sort_dedup(cached ⊎ plus ∖ minus)`, its counts a recount of that
        /// multiset, and the rows added and retracted the set differences of the
        /// two tables.
        #[test]
        fn a_merged_delta_equals_recounting_the_caches(
            cached in prop::collection::vec((0..4u32, 0..4u64), 0..24),
            dropped in prop::collection::vec(any::<bool>(), 24),
            plus in prop::collection::vec((0..4u32, 0..4u64), 0..12),
        ) {
            let cached: Vec<Row> = cached.into_iter().map(|(o, t)| row(o, t)).collect();
            let plus: Vec<Row> = plus.into_iter().map(|(o, t)| row(o, t)).collect();
            let (mut minus, mut after) = (Vec::new(), plus.clone());
            for (cached_row, &drop) in cached.iter().zip(&dropped) {
                if drop { minus.push(cached_row.clone()) } else { after.push(cached_row.clone()) }
            }
            let mut old = BindingTable::from_rows(columns(), cached.clone());
            old.sort_dedup();
            let mut model = BindingTable::from_rows(columns(), after.clone());
            model.sort_dedup();
            let recount: Vec<u32> = model
                .iter()
                .map(|r| after.iter().filter(|a| *a == r).count() as u32)
                .collect();
            let added = model.iter().filter(|r| old.rows().binary_search(r).is_err()).count();
            let retracted = old.iter().filter(|r| model.rows().binary_search(r).is_err()).count();

            let (table, counts, changed) = merged(cached, plus, minus);
            prop_assert_eq!(&*table, &model);
            prop_assert_eq!(counts, recount);
            prop_assert_eq!(changed, (added, retracted));
        }
    }

    #[test]
    fn a_row_two_seeds_produce_survives_the_retraction_of_one() {
        let (table, counts, changed) =
            merged(vec![row(0, 1), row(1, 2), row(1, 2)], vec![], vec![row(1, 2)]);
        assert_eq!(table.rows(), [row(0, 1), row(1, 2)]);
        assert_eq!(counts, [1, 1], "the count goes 2 → 1");
        assert_eq!(changed, (0, 0), "nothing is retracted");
        let (table, counts, changed) =
            merged(vec![row(0, 1), row(1, 2), row(1, 2)], vec![], vec![row(1, 2), row(1, 2)]);
        assert_eq!((table.rows(), &counts[..], changed), (&[row(0, 1)][..], &[1][..], (0, 1)));
    }

    #[test]
    fn a_row_in_both_plus_and_minus_nets_to_no_change() {
        let mut table = Arc::new(BindingTable::new(columns()));
        let mut counts = Vec::new();
        merge_delta(&mut table, &mut counts, CacheDelta { plus: vec![row(2, 3)], minus: vec![] });
        let before = Arc::clone(&table);
        let delta = CacheDelta { plus: vec![row(2, 3)], minus: vec![row(2, 3)] };
        assert_eq!(merge_delta(&mut table, &mut counts, delta), (0, 0));
        assert!(Arc::ptr_eq(&table, &before), "an unchanged table is not copied");
        assert_eq!(counts, [1]);
    }

    #[test]
    fn a_merge_into_an_empty_table_sorts_and_deduplicates() {
        let plus = vec![row(3, 0), row(0, 2), row(3, 0), row(1, 1), row(0, 2), row(0, 2)];
        let (table, counts, changed) = merged(Vec::new(), plus.clone(), Vec::new());
        let mut expected = BindingTable::from_rows(columns(), plus);
        expected.sort_dedup();
        assert_eq!(*table, expected);
        assert_eq!(counts, [3, 1, 2]);
        assert_eq!(changed, (3, 0));
    }
}
