//! Semantic analysis of compiled plans: abstract interpretation over the graph
//! schema, temporal feasibility of shift/closure bands, and sound execution
//! bounds.
//!
//! Where [`super::audit`] checks *structural* well-formedness (arity, slot
//! bounds, placement), this module asks whether a well-formed plan can produce
//! anything at all on a given graph, and how much work it can possibly do:
//!
//! * **Satisfiability** — an abstract interpreter runs each plan over a
//!   [`SchemaSummary`] (the label alphabet of the graph plus label-level
//!   adjacency), constant-folding `time` filters against the domain.  A plan
//!   whose abstract state empties is *statically empty*
//!   ([`DiagnosticKind::EmptyPlan`]); a closure alternative that can never fire
//!   from any reachable abstract state is *dead*
//!   ([`DiagnosticKind::DeadAlternative`]).
//! * **Temporal feasibility** — every link contributes a signed displacement
//!   band (the same 1-D [`TimeLag`] windows Step 2's time-aware closure
//!   composes per chain, see [`crate::steps::closure`]); the bands are composed
//!   across links Helly-style into per-segment absolute time windows.  An empty
//!   window ([`DiagnosticKind::InfeasibleBand`]) proves the plan, or one
//!   closure alternative, relates nothing.
//! * **Bounds** — [`PlanBounds`]: a sound structural hop count (generalising
//!   [`super::audit::hop_depth`] to closures whose iteration count the analysis
//!   bounds — e.g. a `(FWD/…/NEXT)*` body that must advance time every round
//!   can iterate at most `domain span` times) and a coarse upper bound on the
//!   Step-1/2 chain count.  Live maintenance (`crates/live`) seeds its delta
//!   refresh from `max_hops`.
//!
//! [`analyze`] reports diagnostics and also returns the *optimized* plan set:
//! statically-empty plans dropped, dead alternatives pruned, and closure
//! `[n, m]` windows tightened.  Every rewrite is justified by the abstract
//! semantics, so optimized and unoptimized execution are output-equivalent on
//! the graph the [`SchemaSummary`] came from (pinned by property tests in
//! `tests/plan_optimizer.rs`).  The executor applies the pass behind
//! [`ExecutionOptions::optimize`](crate::executor::ExecutionOptions::optimize).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use tgraph::{EdgeId, Interval, NodeId, Object, Value};

use crate::chain::TimeLag;
use crate::plan::{
    ClosureOp, ClosureStep, EnginePlan, HopDirection, MicroOp, ObjFilter, PlanSet, Segment, Shift,
    TemporalLink,
};
use crate::relations::GraphRelations;

/// Sentinel for an unbounded band endpoint.  A quarter of the `i128` range
/// keeps every saturating sum/product of finite contributions well clear of
/// overflow while still comparing correctly against real displacements.
const INF: i128 = i128::MAX / 4;

/// The most closure iterations the per-iteration emptiness simulation runs
/// before giving up on tightening.  Death beyond this depth is possible but
/// irrelevant: the simulation only exists to shrink small windows.
const MAX_SIMULATED_ITERATIONS: u32 = 128;

// ---------------------------------------------------------------------------
// Schema summary
// ---------------------------------------------------------------------------

/// The label alphabet of a graph with label-level adjacency: everything the
/// abstract interpreter needs to decide whether a sequence of hops and filters
/// can match *anything*, without touching rows.
///
/// [`SchemaSummary::of`] reads the summary memoised in the relations: one scan
/// of the live rows per *version* of a [`GraphRelations`], shared by every
/// clone, snapshot and pinned epoch of that version, and never run at load or
/// on a delta.  [`SchemaSummary::universal`] is the label-free summary for
/// callers that need graph-independent bounds (live registration caches those
/// per domain).
///
/// The representation is canonical — labels and per-label property pairs are
/// sorted — so two summaries of the same live content are `==`, whatever row
/// order deltas left behind.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaSummary {
    /// False for [`SchemaSummary::universal`]: label and property filters are
    /// assumed satisfiable, only object-kind and time reasoning applies.
    exact: bool,
    /// The temporal domain of the graph.
    domain: Interval,
    /// Distinct node labels, sorted; indices are the abstract node objects.
    node_labels: Vec<String>,
    /// Distinct edge labels, sorted; indices are the abstract edge objects.
    edge_labels: Vec<String>,
    /// Distinct `(property, value)` pairs seen on rows of each node label,
    /// sorted.
    node_props: Vec<PropPairs>,
    /// Distinct `(property, value)` pairs seen on rows of each edge label,
    /// sorted.
    edge_props: Vec<PropPairs>,
    /// Dense node label × edge label matrix, row-major by node label: the
    /// [`ADJ_SOURCE`] bit says some node of that label is the source of an edge
    /// of that label, [`ADJ_TARGET`] the same for targets.
    adjacency: Vec<u8>,
    /// Live node row count (Step-1 seed count).
    node_rows: u128,
    /// Live edge row count.
    edge_rows: u128,
}

/// The distinct `(property, value)` pairs of one label, sorted.
type PropPairs = Vec<(String, Value)>;

/// [`SchemaSummary::adjacency`] bit: the node label occurs as an edge source.
const ADJ_SOURCE: u8 = 1;
/// [`SchemaSummary::adjacency`] bit: the node label occurs as an edge target.
const ADJ_TARGET: u8 = 2;

impl SchemaSummary {
    /// The summary of the live rows of `relations`, from the memo the relations
    /// carry: the first call on a version of the relations scans them, every
    /// other is a reference bump.
    pub fn of(relations: &GraphRelations) -> Arc<SchemaSummary> {
        Self::of_recorded(relations, false)
    }

    /// [`SchemaSummary::of`] for the executor: when this call is the one that
    /// scans and `telemetry` is on, the scan is counted and timed.
    pub(crate) fn of_recorded(relations: &GraphRelations, telemetry: bool) -> Arc<SchemaSummary> {
        Arc::clone(relations.schema_cell().get_or_init(|| {
            let metrics = telemetry.then(crate::telemetry::metrics);
            let span = obs::Span::enter(metrics.map(|m| &m.span_schema_scan));
            let summary = Arc::new(scan(relations));
            span.finish();
            if let Some(metrics) = metrics {
                metrics.schema_scans.inc();
            }
            summary
        }))
    }

    /// A label-free summary over the given domain: one abstract node, one
    /// abstract edge, full adjacency, every label/property filter assumed
    /// satisfiable.  Analysis against it is sound for *any* graph with this
    /// domain — it can only reason about object kinds and time.
    pub fn universal(domain: Interval) -> Self {
        SchemaSummary {
            exact: false,
            domain,
            node_labels: vec!["*".to_owned()],
            edge_labels: vec!["*".to_owned()],
            node_props: vec![Vec::new()],
            edge_props: vec![Vec::new()],
            adjacency: vec![ADJ_SOURCE | ADJ_TARGET],
            node_rows: u128::MAX,
            edge_rows: u128::MAX,
        }
    }

    /// The temporal domain the summary was built for.
    pub fn domain(&self) -> Interval {
        self.domain
    }

    /// The domain width as a signed displacement bound: no two bound time
    /// points can be further apart.
    fn span(&self) -> i128 {
        (self.domain.end() - self.domain.start()) as i128
    }

    fn all_nodes(&self) -> AbsState {
        (0..self.node_labels.len() as u32).map(AbsObj::Node).collect()
    }

    /// The abstract objects one hop away: a row of the adjacency matrix for a
    /// node label, a column for an edge label.
    fn hop(&self, obj: AbsObj, direction: HopDirection) -> impl Iterator<Item = AbsObj> + '_ {
        let forward = direction == HopDirection::Forward;
        let (from_node, key, others) = match obj {
            AbsObj::Node(label) => (true, label as usize, self.edge_labels.len()),
            AbsObj::Edge(label) => (false, label as usize, self.node_labels.len()),
        };
        // Leaving a node forward, or an edge backward, crosses a source end.
        let bit = if from_node == forward { ADJ_SOURCE } else { ADJ_TARGET };
        let stride = self.edge_labels.len();
        (0..others).filter_map(move |other| {
            let (cell, reached) = if from_node {
                (key * stride + other, AbsObj::Edge(other as u32))
            } else {
                (other * stride + key, AbsObj::Node(other as u32))
            };
            (self.adjacency[cell] & bit != 0).then_some(reached)
        })
    }

    /// Whether an object of this abstract label can satisfy the kind, label
    /// and property parts of a filter (time is folded separately).
    fn passes(&self, obj: AbsObj, filter: &ObjFilter) -> bool {
        let (is_node, label) = match obj {
            AbsObj::Node(l) => (true, l),
            AbsObj::Edge(l) => (false, l),
        };
        if filter.require_node.is_some_and(|required| required != is_node) {
            return false;
        }
        if !self.exact {
            return true;
        }
        let (labels, props) = if is_node {
            (&self.node_labels, &self.node_props[label as usize])
        } else {
            (&self.edge_labels, &self.edge_props[label as usize])
        };
        if filter.label.as_ref().is_some_and(|required| required != &labels[label as usize]) {
            return false;
        }
        filter.props.iter().all(|(name, value)| props.iter().any(|(p, v)| p == name && v == value))
    }
}

impl fmt::Display for SchemaSummary {
    /// What the optimizer analysed against: labels with their distinct
    /// property-pair counts, the label adjacency as `source -[edge]-> target`
    /// triples, live row counts and the domain.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.exact { "exact" } else { "universal" };
        writeln!(f, "schema ({kind}) over {}", self.domain)?;
        for (what, labels, props, rows) in [
            ("node", &self.node_labels, &self.node_props, self.node_rows),
            ("edge", &self.edge_labels, &self.edge_props, self.edge_rows),
        ] {
            write!(f, "  {what} labels:")?;
            for (label, props) in labels.iter().zip(props) {
                write!(f, " {label} ({} property pairs)", props.len())?;
            }
            // The universal summary's row counts are "unknown", not numbers.
            if self.exact {
                write!(f, "; {rows} live rows")?;
            }
            writeln!(f)?;
        }
        for (edge, label) in self.edge_labels.iter().enumerate() {
            let ends = |direction| {
                let labels: Vec<&str> = self
                    .hop(AbsObj::Edge(edge as u32), direction)
                    .map(|(AbsObj::Node(node) | AbsObj::Edge(node))| {
                        self.node_labels[node as usize].as_str()
                    })
                    .collect();
                labels.join("|")
            };
            writeln!(
                f,
                "  adjacency: ({}) -[{label}]-> ({})",
                ends(HopDirection::Backward),
                ends(HopDirection::Forward)
            )?;
        }
        Ok(())
    }
}

/// One relation's side of the scan: labels interned in first-seen order, with
/// the distinct property pairs of each.
#[derive(Default)]
struct LabelScan<'a> {
    /// The label allocation seen last and its index.  Rows loaded together
    /// share one `Arc` per label and objects of a label mostly sit together,
    /// so this pointer compare answers for nearly every object.
    last_label: Option<(*const u8, u32)>,
    /// The fallback, by spelling: the same label arrives in a different
    /// allocation whenever labels alternate and after every delta.
    by_name: HashMap<&'a str, u32>,
    labels: Vec<&'a str>,
    /// Per label, the property list noted last: a row mostly repeats the one
    /// before it (the next state of the same object, the next edge of the same
    /// meeting), and an equal list has nothing new to hash.
    last_props: Vec<&'a [(Arc<str>, Value)]>,
    props: HashSet<(u32, &'a str, &'a Value)>,
}

impl<'a> LabelScan<'a> {
    fn intern(&mut self, label: &'a Arc<str>) -> u32 {
        let name: &'a str = label;
        if let Some((pointer, index)) = self.last_label {
            if pointer == name.as_ptr() {
                return index;
            }
        }
        let next = self.labels.len() as u32;
        let index = *self.by_name.entry(name).or_insert(next);
        if index == next {
            self.labels.push(name);
            self.last_props.push(&[]);
        }
        self.last_label = Some((name.as_ptr(), index));
        index
    }

    /// Notes the live rows of `object`: its label, from the first, and the
    /// properties of each.  `None` for an object with no live row.
    fn note(&mut self, relations: &'a GraphRelations, object: Object) -> Option<u32> {
        let mut label = None;
        relations.visit_rows_of(object, |_, row| {
            let label = *label.get_or_insert_with(|| self.intern(row.label));
            self.note_props(label, row.props);
        });
        label
    }

    fn note_props(&mut self, label: u32, props: &'a [(Arc<str>, Value)]) {
        let last = &mut self.last_props[label as usize];
        if *last != props {
            *last = props;
            self.props.extend(props.iter().map(|(name, value)| (label, &**name, value)));
        }
    }

    /// The labels sorted, the property pairs grouped under them and sorted,
    /// and the map from scan index to sorted position.
    fn finish(self) -> (Vec<String>, Vec<PropPairs>, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.labels.len() as u32).collect();
        order.sort_unstable_by_key(|&index| self.labels[index as usize]);
        let mut position = vec![0u32; order.len()];
        for (sorted, &index) in order.iter().enumerate() {
            position[index as usize] = sorted as u32;
        }
        let labels = order.iter().map(|&index| self.labels[index as usize].to_owned()).collect();
        let mut props = vec![Vec::new(); order.len()];
        for (label, name, value) in self.props {
            props[position[label as usize] as usize].push((name.to_owned(), value.clone()));
        }
        for pairs in &mut props {
            pairs.sort_unstable();
        }
        (labels, props, position)
    }
}

/// The one pass behind [`SchemaSummary::of`].  Facts that belong to an object —
/// its label, an edge's endpoints — are taken once per live object through the
/// per-object row indexes (which list live rows only); the rows themselves are
/// visited just for their property values.
fn scan(relations: &GraphRelations) -> SchemaSummary {
    let mut nodes = LabelScan::default();
    // Nodes have one label for their whole lifetime, so a dense id → label map
    // is enough to label edge endpoints.
    let label_of_node: Vec<Option<u32>> = (0..relations.num_nodes() as u32)
        .map(|id| nodes.note(relations, NodeId(id).into()))
        .collect();
    let mut edges = LabelScan::default();
    // End bits per edge label (outer) and node label (inner), in scan indices.
    let mut ends: Vec<Vec<u8>> = Vec::new();
    for id in 0..relations.num_edges() as u32 {
        let Some(label) = edges.note(relations, EdgeId(id).into()) else { continue };
        let edge = relations.edges().get(relations.rows_of_edge(EdgeId(id))[0]);
        if ends.len() <= label as usize {
            ends.push(vec![0; nodes.labels.len()]);
        }
        let bits = &mut ends[label as usize];
        if let Some(src) = label_of_node[edge.src.index()] {
            bits[src as usize] |= ADJ_SOURCE;
        }
        if let Some(tgt) = label_of_node[edge.tgt.index()] {
            bits[tgt as usize] |= ADJ_TARGET;
        }
    }

    let (node_labels, node_props, node_position) = nodes.finish();
    let (edge_labels, edge_props, edge_position) = edges.finish();
    let mut adjacency = vec![0u8; node_labels.len() * edge_labels.len()];
    for (edge, bits) in ends.iter().enumerate() {
        for (node, &bits) in bits.iter().enumerate() {
            let (node, edge) = (node_position[node] as usize, edge_position[edge] as usize);
            adjacency[node * edge_labels.len() + edge] = bits;
        }
    }
    let stats = relations.stats();
    SchemaSummary {
        exact: true,
        domain: relations.domain(),
        node_labels,
        edge_labels,
        node_props,
        edge_props,
        adjacency,
        node_rows: stats.temporal_nodes as u128,
        edge_rows: stats.temporal_edges as u128,
    }
}

/// One abstract object: a node or edge known only by its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AbsObj {
    Node(u32),
    Edge(u32),
}

type AbsState = BTreeSet<AbsObj>;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// The kind of semantic defect (or note) the analyzer found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// The plan's abstract state emptied: no concrete execution can produce a
    /// chain, so the plan relates nothing on this graph.
    EmptyPlan,
    /// A closure alternative that can never fire from any reachable abstract
    /// state; pruning it cannot change any answer.
    DeadAlternative,
    /// An admissible-lag window emptied: the temporal displacements demanded
    /// by the links (or by one closure alternative) do not fit the domain.
    InfeasibleBand,
    /// A closure whose iteration count the analysis could not bound; live
    /// maintenance must take its conservative full-refresh path.  A note, not
    /// an error: reachability queries are legitimately unbounded.
    UnboundedClosure,
}

impl DiagnosticKind {
    /// Short stable tag used in rendered diagnostics (`[empty-plan]` …).
    pub fn tag(self) -> &'static str {
        match self {
            DiagnosticKind::EmptyPlan => "empty-plan",
            DiagnosticKind::DeadAlternative => "dead-alternative",
            DiagnosticKind::InfeasibleBand => "infeasible-band",
            DiagnosticKind::UnboundedClosure => "unbounded-closure",
        }
    }

    /// Whether this kind indicates a defect ([`Severity::Error`]) or merely
    /// documents a property ([`Severity::Note`]).
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::UnboundedClosure => Severity::Note,
            _ => Severity::Error,
        }
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The plan (or part of it) provably relates nothing — worth failing a
    /// lint run over a query corpus.
    Error,
    /// An informational property of the plan.
    Note,
}

/// One semantic finding, with plan-path provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the plan within the analyzed [`PlanSet`] (`None` when a single
    /// [`EnginePlan`] was analyzed on its own).
    pub plan: Option<usize>,
    /// Where in the plan the finding sits (`"segment 1, op 2"`, `"link 0,
    /// alternative 1"`, …).
    pub location: String,
    /// What was found.
    pub kind: DiagnosticKind,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The severity of this diagnostic (determined by its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.plan {
            Some(p) => {
                write!(f, "plan {p}, {}: [{}] {}", self.location, self.kind.tag(), self.message)
            }
            None => write!(f, "{}: [{}] {}", self.location, self.kind.tag(), self.message),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounds
// ---------------------------------------------------------------------------

/// Sound static execution bounds for one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanBounds {
    /// Upper bound on the structural hops any chain of this plan traverses,
    /// or `None` when a closure's iteration count could not be bounded.  This
    /// generalises [`super::audit::hop_depth`]: a closure whose every
    /// alternative must advance time can iterate at most `domain span` times,
    /// which makes mixed structural/temporal reachability plans finitely
    /// seeded for live maintenance.
    pub max_hops: Option<usize>,
    /// Coarse upper bound on the Step-1/2 chain count (saturating): the seed
    /// count times a per-operator fan-out factor bounded by the relation
    /// sizes.  Orders of magnitude loose by design — its job is to be
    /// *provably* an upper bound, which `tests/plan_optimizer.rs` pins.
    pub max_rows: u128,
}

impl PlanBounds {
    fn empty() -> Self {
        PlanBounds { max_hops: Some(0), max_rows: 0 }
    }
}

// ---------------------------------------------------------------------------
// Analysis result
// ---------------------------------------------------------------------------

/// The result of [`analyze`]: diagnostics, per-plan bounds, and the optimized
/// plan set the findings justify.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every finding, in plan order.
    pub diagnostics: Vec<Diagnostic>,
    /// Bounds per *original* plan (statically-empty plans get zero bounds).
    pub bounds: Vec<PlanBounds>,
    /// The rewritten plan set: empty plans dropped, dead alternatives pruned,
    /// closure windows tightened.  Output-equivalent to the input on the
    /// analyzed graph.
    pub optimized: PlanSet,
    /// Plans dropped as statically empty.
    pub pruned_plans: usize,
    /// Closure alternatives pruned as dead or band-infeasible.
    pub pruned_alternatives: usize,
    /// Closures whose `[n, m]` window the pass tightened.
    pub tightened_closures: usize,
}

impl Analysis {
    /// True if any diagnostic is an error (statically-empty plan, dead
    /// alternative or infeasible band).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity() == Severity::Error)
    }
}

/// Analyzes every plan of a set against a schema summary.
pub fn analyze(plan_set: &PlanSet, schema: &SchemaSummary) -> Analysis {
    let mut pass = Pass::new(schema);
    let mut bounds = Vec::with_capacity(plan_set.plans().len());
    let mut optimized_plans = Vec::with_capacity(plan_set.plans().len());
    let mut diagnostics = Vec::new();
    let mut pruned_plans = 0usize;
    for (index, plan) in plan_set.plans().iter().enumerate() {
        let (rewritten, plan_bounds) = pass.analyze_plan(plan);
        diagnostics.extend(pass.diagnostics.drain(..).map(|mut d| {
            d.plan = Some(index);
            d
        }));
        bounds.push(plan_bounds);
        match rewritten {
            Some(plan) => optimized_plans.push(plan),
            None => pruned_plans += 1,
        }
    }
    // Fewer plans over the same variables, binding no slot the input did not.
    let optimized = PlanSet::new(optimized_plans, plan_set.variables().to_vec())
        .expect("the optimizer keeps a valid plan set valid");
    Analysis {
        diagnostics,
        bounds,
        optimized,
        pruned_plans,
        pruned_alternatives: pass.pruned_alternatives,
        tightened_closures: pass.tightened_closures,
    }
}

/// Graph-independent bounds for a single plan over a domain, via the
/// [`SchemaSummary::universal`] schema.  Live maintenance caches this per
/// registered plan (recomputing when the domain grows, since the closure
/// iteration bound depends on the domain span).
pub fn static_bounds(plan: &EnginePlan, domain: Interval) -> PlanBounds {
    let schema = SchemaSummary::universal(domain);
    let mut pass = Pass::new(&schema);
    let (_, bounds) = pass.analyze_plan(plan);
    bounds
}

// ---------------------------------------------------------------------------
// Band arithmetic (1-D Helly composition on TimeLag windows)
// ---------------------------------------------------------------------------

fn cap(x: i128) -> i128 {
    x.clamp(-INF, INF)
}

fn band(lo: i128, hi: i128) -> TimeLag {
    TimeLag { lo: cap(lo), hi: cap(hi) }
}

fn band_add(a: TimeLag, b: TimeLag) -> TimeLag {
    band(a.lo.saturating_add(b.lo), a.hi.saturating_add(b.hi))
}

fn band_hull(a: TimeLag, b: TimeLag) -> TimeLag {
    band(a.lo.min(b.lo), a.hi.max(b.hi))
}

/// The hull of `k · w` over `k ∈ [min, max]` (`max = None` meaning unbounded):
/// the displacement window of iterating a body with per-iteration window `w`.
fn band_scale(w: TimeLag, min: u32, max: Option<u32>) -> TimeLag {
    let kmin = min as i128;
    let lo = if w.lo >= 0 {
        cap(w.lo.saturating_mul(kmin))
    } else {
        match max {
            Some(m) => cap(w.lo.saturating_mul(m as i128)),
            None => -INF,
        }
    };
    let hi = if w.hi <= 0 {
        cap(w.hi.saturating_mul(kmin))
    } else {
        match max {
            Some(m) => cap(w.hi.saturating_mul(m as i128)),
            None => INF,
        }
    };
    band(lo, hi)
}

/// The signed displacement window of a single shift.
fn shift_band(shift: &Shift) -> TimeLag {
    if shift.forward {
        band(shift.min as i128, shift.max.map_or(INF, |m| m as i128))
    } else {
        band(-shift.max.map_or(INF, |m| m as i128), -(shift.min as i128))
    }
}

/// Advances an absolute time window by a displacement band, clamped to the
/// domain.  `None` means no time point survives.
fn apply_band(window: Interval, w: TimeLag, domain: Interval) -> Option<Interval> {
    let lo = (window.start() as i128).saturating_add(w.lo).max(domain.start() as i128);
    let hi = (window.end() as i128).saturating_add(w.hi).min(domain.end() as i128);
    if lo > hi {
        None
    } else {
        Some(Interval::of(lo as u64, hi as u64))
    }
}

fn render_band(w: TimeLag) -> String {
    let show = |x: i128, unbounded: &str| {
        if x.abs() >= INF {
            unbounded.to_owned()
        } else {
            x.to_string()
        }
    };
    format!("[{}, {}]", show(w.lo, "-inf"), show(w.hi, "+inf"))
}

// ---------------------------------------------------------------------------
// The analysis pass
// ---------------------------------------------------------------------------

struct Pass<'a> {
    schema: &'a SchemaSummary,
    diagnostics: Vec<Diagnostic>,
    pruned_alternatives: usize,
    tightened_closures: usize,
}

/// What a closure analysis concluded.
struct ClosureOutcome {
    /// Over-approximation of the states after the closure; empty means the
    /// closure (and with it the plan) relates nothing here.
    exit: AbsState,
    /// The rewritten operator: `None` when the closure reduces to the
    /// identity (tightened to `[0, 0]`) and should be removed entirely.
    rewritten: Option<ClosureOp>,
    /// Plan-level displacement window contributed by the closure.
    window: TimeLag,
    /// Structural hops per chain through the whole closure, if bounded.
    hops: Option<usize>,
}

impl<'a> Pass<'a> {
    fn new(schema: &'a SchemaSummary) -> Self {
        Pass { schema, diagnostics: Vec::new(), pruned_alternatives: 0, tightened_closures: 0 }
    }

    fn diag(&mut self, location: &str, kind: DiagnosticKind, message: String) {
        self.diagnostics.push(Diagnostic {
            plan: None,
            location: location.to_owned(),
            kind,
            message,
        });
    }

    /// Analyzes (and rewrites) a single plan.  Returns `None` instead of a
    /// rewritten plan when the plan is statically empty.
    fn analyze_plan(&mut self, plan: &EnginePlan) -> (Option<EnginePlan>, PlanBounds) {
        let domain = self.schema.domain;
        let mut state = self.schema.all_nodes();
        let mut window = domain;
        let mut hops: Option<usize> = Some(0);
        let mut rows: u128 = self.schema.node_rows;
        let total_rows = self.schema.node_rows.saturating_add(self.schema.edge_rows);
        let mut segments: Vec<Segment> = Vec::with_capacity(plan.segments.len());
        let mut links: Vec<TemporalLink> = Vec::with_capacity(plan.links.len());

        for (seg_index, segment) in plan.segments.iter().enumerate() {
            if seg_index > 0 {
                let location = format!("link {}", seg_index - 1);
                let link_band = match &plan.links[seg_index - 1] {
                    TemporalLink::Shift(shift) => {
                        rows = rows.saturating_mul(total_rows);
                        links.push(TemporalLink::Shift(*shift));
                        shift_band(shift)
                    }
                    TemporalLink::Closure(closure) => {
                        let outcome = self.closure_pass(closure, &state, &location, true);
                        if outcome.exit.is_empty() {
                            return (None, PlanBounds::empty());
                        }
                        state = outcome.exit;
                        hops = add_hops(hops, outcome.hops);
                        let lag_pairs = (2 * self.schema.span() as u128 + 2).saturating_mul(2);
                        rows = rows
                            .saturating_mul(total_rows)
                            .saturating_mul(lag_pairs)
                            .saturating_mul(lag_pairs);
                        match outcome.rewritten {
                            Some(rewritten) => links.push(TemporalLink::Closure(rewritten)),
                            // Tightened to [0, 0]: the identity on (row, time),
                            // i.e. a zero-step shift.
                            None => links.push(TemporalLink::Shift(Shift {
                                forward: true,
                                min: 0,
                                max: Some(0),
                            })),
                        }
                        outcome.window
                    }
                };
                window = match apply_band(window, link_band, domain) {
                    Some(next) => next,
                    None => {
                        self.diag(
                            &format!("link {}", seg_index - 1),
                            DiagnosticKind::InfeasibleBand,
                            format!(
                                "the admissible lag window {} empties the reachable \
                                 time range: no arrival time inside the domain {:?} \
                                 satisfies the accumulated shift bounds",
                                render_band(link_band),
                                domain
                            ),
                        );
                        return (None, PlanBounds::empty());
                    }
                };
            }

            // The segment's own time constraints: every op of a segment is
            // evaluated at the same snapshot time, so the constraints of all
            // its filters intersect into one window.
            let mut local = Some(domain);
            for op in &segment.ops {
                if let MicroOp::Filter(filter) = op {
                    local = local.and_then(|w| filter.clamp_interval(w));
                }
            }
            let location = format!("segment {seg_index}");
            let Some(local) = local else {
                self.diag(
                    &location,
                    DiagnosticKind::EmptyPlan,
                    "the segment's time constraints admit no time point of the \
                     domain (constant-folded): the plan relates nothing"
                        .to_owned(),
                );
                return (None, PlanBounds::empty());
            };
            window = match window.intersect(&local) {
                Some(next) => next,
                None => {
                    self.diag(
                        &location,
                        DiagnosticKind::InfeasibleBand,
                        format!(
                            "the segment's time constraints restrict its snapshot to \
                             {local:?}, but the lag windows of the preceding links \
                             only reach {window:?}: no consistent assignment of \
                             snapshot times exists"
                        ),
                    );
                    return (None, PlanBounds::empty());
                }
            };

            let mut ops: Vec<MicroOp> = Vec::with_capacity(segment.ops.len());
            for (op_index, op) in segment.ops.iter().enumerate() {
                let location = format!("segment {seg_index}, op {op_index}");
                match op {
                    MicroOp::Hop(direction) => {
                        state = state
                            .iter()
                            .flat_map(|&obj| self.schema.hop(obj, *direction))
                            .collect();
                        hops = add_hops(hops, Some(1));
                        rows = rows.saturating_mul(total_rows);
                        ops.push(op.clone());
                    }
                    MicroOp::Filter(filter) => {
                        state = self.filter_state(&state, filter);
                        ops.push(op.clone());
                    }
                    MicroOp::Bind(_) => ops.push(op.clone()),
                    MicroOp::Closure(closure) => {
                        let outcome = self.closure_pass(closure, &state, &location, false);
                        if outcome.exit.is_empty() {
                            return (None, PlanBounds::empty());
                        }
                        state = outcome.exit;
                        hops = add_hops(hops, outcome.hops);
                        rows = rows
                            .saturating_mul(total_rows)
                            .saturating_mul(self.schema.span() as u128 + 1);
                        if let Some(rewritten) = outcome.rewritten {
                            ops.push(MicroOp::Closure(rewritten));
                        }
                    }
                }
                if state.is_empty() {
                    self.diag(
                        &location,
                        DiagnosticKind::EmptyPlan,
                        "no object of the graph schema survives this operation: the \
                         label-alphabet reachability analysis proves the plan empty"
                            .to_owned(),
                    );
                    return (None, PlanBounds::empty());
                }
            }
            segments.push(Segment { ops });
        }
        // Every rewrite above keeps the plan audit-clean (see `closure_pass`): a
        // refusal here would be a rewrite whose answers the pinned invariant
        // optimized ≡ unoptimized (`tests/plan_optimizer.rs`) could not hold.
        let rewritten = EnginePlan::new(segments, links).expect("rewrites keep a plan valid");
        (Some(rewritten), PlanBounds { max_hops: hops, max_rows: rows })
    }

    fn filter_state(&self, state: &AbsState, filter: &ObjFilter) -> AbsState {
        // Constant-fold the time constraints against the domain: `time < 0`
        // and friends kill every object.
        if filter.clamp_interval(self.schema.domain).is_none() {
            return AbsState::new();
        }
        state.iter().copied().filter(|&obj| self.schema.passes(obj, filter)).collect()
    }

    /// Analyzes one closure (a segment `MicroOp::Closure` or a
    /// `TemporalLink::Closure`), pruning dead alternatives and tightening the
    /// iteration window where the abstract semantics justifies it.
    fn closure_pass(
        &mut self,
        closure: &ClosureOp,
        entry: &AbsState,
        location: &str,
        is_link: bool,
    ) -> ClosureOutcome {
        let span = self.schema.span();
        // Per-alternative displacement windows (the body's shifts composed).
        let windows: Vec<TimeLag> =
            closure.alternatives.iter().map(|alt| self.alt_band(alt)).collect();
        // Reachable abstract states at *any* iteration: the collecting
        // fixpoint of the (monotone) one-iteration transformer.
        let reach = self.collecting_reach(entry, &closure.alternatives);
        let mut live = Vec::with_capacity(closure.alternatives.len());
        for (index, alternative) in closure.alternatives.iter().enumerate() {
            let structurally_live = !self.apply_alt(&reach, alternative).is_empty();
            let band_feasible = windows[index].lo <= span && windows[index].hi >= -span;
            if !structurally_live {
                self.diag(
                    &format!("{location}, alternative {index}"),
                    DiagnosticKind::DeadAlternative,
                    "the alternative matches no object reachable at any iteration \
                     (label-alphabet reachability): it can never fire and pruning it \
                     cannot change any answer"
                        .to_owned(),
                );
            } else if !band_feasible {
                self.diag(
                    &format!("{location}, alternative {index}"),
                    DiagnosticKind::InfeasibleBand,
                    format!(
                        "one application of the alternative displaces time by \
                         {}, which cannot fit inside a domain of width {span}: \
                         the alternative can never fire",
                        render_band(windows[index])
                    ),
                );
            }
            live.push(structurally_live && band_feasible);
        }
        let live_alts: Vec<Vec<ClosureStep>> = closure
            .alternatives
            .iter()
            .zip(&live)
            .filter(|(_, &l)| l)
            .map(|(alt, _)| alt.clone())
            .collect();
        let live_windows: Vec<TimeLag> =
            windows.iter().zip(&live).filter(|(_, &l)| l).map(|(w, _)| *w).collect();

        // All alternatives dead: k ≥ 1 iterations produce nothing, so the
        // closure is the identity if zero iterations are allowed and empty
        // otherwise.
        if live_alts.is_empty() {
            return if closure.min == 0 {
                ClosureOutcome {
                    exit: entry.clone(),
                    rewritten: None,
                    window: TimeLag::zero(),
                    hops: Some(0),
                }
            } else {
                self.diag(
                    location,
                    DiagnosticKind::EmptyPlan,
                    format!(
                        "every alternative of the closure is dead but at least {} \
                         iteration(s) are required: the closure relates nothing",
                        closure.min
                    ),
                );
                ClosureOutcome {
                    exit: AbsState::new(),
                    rewritten: None,
                    window: TimeLag::zero(),
                    hops: Some(0),
                }
            };
        }

        // Tightening 1: per-iteration emptiness.  Simulate the abstract state
        // iteration by iteration; once it empties it stays empty (the
        // transformer is monotone), so max can shrink to the last non-empty
        // round.
        let mut max = closure.max;
        let sim_cap =
            closure.max.map_or(MAX_SIMULATED_ITERATIONS, |m| m.min(MAX_SIMULATED_ITERATIONS));
        let mut died_at: Option<u32> = None;
        let mut sim = entry.clone();
        for k in 1..=sim_cap {
            let next: AbsState = live_alts
                .iter()
                .map(|alt| self.apply_alt(&sim, alt))
                .fold(AbsState::new(), |a, b| a.union(&b).copied().collect());
            if next.is_empty() {
                died_at = Some(k);
                break;
            }
            if next == sim {
                break;
            }
            sim = next;
        }
        if let Some(k) = died_at {
            if k <= closure.min {
                self.diag(
                    location,
                    DiagnosticKind::EmptyPlan,
                    format!(
                        "the abstract state empties after {k} iteration(s) but the \
                         closure requires at least {}: it relates nothing",
                        closure.min
                    ),
                );
                return ClosureOutcome {
                    exit: AbsState::new(),
                    rewritten: None,
                    window: TimeLag::zero(),
                    hops: Some(0),
                };
            }
            max = Some(max.map_or(k - 1, |m| m.min(k - 1)));
        }

        // Tightening 2: every live alternative advances time in the same
        // direction by at least one step, so the iteration count is bounded by
        // the domain span (this is what makes `(FWD/…/NEXT)*` finite).
        let hull = live_windows.iter().copied().fold(live_windows[0], band_hull);
        let advance = if hull.lo >= 1 {
            Some(hull.lo)
        } else if hull.hi <= -1 {
            Some(-hull.hi)
        } else {
            None
        };
        if let Some(step) = advance {
            let by_span = (span / step) as u32;
            if by_span < closure.min {
                self.diag(
                    location,
                    DiagnosticKind::InfeasibleBand,
                    format!(
                        "every iteration displaces time by at least {step}, so at most \
                         {by_span} iteration(s) fit inside a domain of width {span} — \
                         fewer than the required minimum of {}",
                        closure.min
                    ),
                );
                return ClosureOutcome {
                    exit: AbsState::new(),
                    rewritten: None,
                    window: TimeLag::zero(),
                    hops: Some(0),
                };
            }
            max = Some(max.map_or(by_span, |m| m.min(by_span)));
        }
        if max.is_none() {
            self.diag(
                location,
                DiagnosticKind::UnboundedClosure,
                "the closure's iteration count has no static bound (its body can \
                 repeat without net time displacement); live maintenance cannot bound \
                 this plan's refresh by hops, only by the changed times when the plan \
                 has no temporal link"
                    .to_owned(),
            );
        }

        // Assemble the rewritten operator, keeping it audit-clean: never emit
        // degenerate `[0,0]` / `[1,1]` bounds (bump the window by one — sound,
        // since the extra iteration provably contributes nothing), and never
        // let pruning strip a temporal link of its time-crossing alternatives.
        let tightened = max != closure.max;
        let pruned = live_alts.len() != closure.alternatives.len();
        let mut rewritten_alts = if pruned { live_alts } else { closure.alternatives.clone() };
        if is_link
            && pruned
            && !(ClosureOp { alternatives: rewritten_alts.clone(), min: closure.min, max })
                .is_time_crossing()
        {
            // Pruning would demote the link to a structural closure, which the
            // executor cannot run as a link; keep the original body.
            rewritten_alts = closure.alternatives.clone();
        } else if pruned {
            self.pruned_alternatives += closure.alternatives.len() - rewritten_alts.len();
        }
        let mut final_max = max;
        if let Some(m) = final_max {
            if m == closure.min && m <= 1 && closure.max != Some(m) {
                // Would be degenerate; widen by one unless the original was
                // already this tight.
                final_max = Some(m + 1).min(closure.max.or(Some(m + 1)));
            }
        }
        if final_max == Some(0) && closure.min == 0 {
            // The whole closure is the identity.
            if tightened {
                self.tightened_closures += 1;
            }
            return ClosureOutcome {
                exit: entry.clone(),
                rewritten: None,
                window: TimeLag::zero(),
                hops: Some(0),
            };
        }
        if tightened && final_max != closure.max {
            self.tightened_closures += 1;
        }

        // Exit state: reachable states at any admissible iteration count
        // (over-approximated by the collecting fixpoint, which includes the
        // entry — harmless when min ≥ 1).
        let per_iter_hops = rewritten_alts
            .iter()
            .map(|alt| self.alt_hops(alt))
            .try_fold(0usize, |acc, hops| hops.map(|h| acc.max(h)));
        let hops = match (per_iter_hops, final_max) {
            (Some(0), _) => Some(0),
            (Some(h), Some(m)) => Some(h.saturating_mul(m as usize)),
            _ => None,
        };
        ClosureOutcome {
            exit: reach,
            rewritten: Some(ClosureOp {
                alternatives: rewritten_alts,
                min: closure.min,
                max: final_max,
            }),
            window: band_scale(hull, closure.min, final_max),
            hops,
        }
    }

    /// The collecting fixpoint `R = entry ∪ F(R)` of the one-iteration
    /// transformer: every abstract state reachable at any iteration count.
    fn collecting_reach(&self, entry: &AbsState, alternatives: &[Vec<ClosureStep>]) -> AbsState {
        let mut reach = entry.clone();
        loop {
            let mut next = reach.clone();
            for alternative in alternatives {
                next.extend(self.apply_alt(&reach, alternative));
            }
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    fn apply_alt(&self, state: &AbsState, steps: &[ClosureStep]) -> AbsState {
        let mut current = state.clone();
        for step in steps {
            if current.is_empty() {
                return current;
            }
            current = match step {
                ClosureStep::Shift(shift) => {
                    if shift.is_unsatisfiable() {
                        AbsState::new()
                    } else {
                        current
                    }
                }
                ClosureStep::Micro(MicroOp::Hop(direction)) => {
                    current.iter().flat_map(|&obj| self.schema.hop(obj, *direction)).collect()
                }
                ClosureStep::Micro(MicroOp::Filter(filter)) => self.filter_state(&current, filter),
                ClosureStep::Micro(MicroOp::Bind(_)) => current,
                ClosureStep::Micro(MicroOp::Closure(inner)) => {
                    // Nested closures are not rewritten here; their reach is
                    // over-approximated by the collecting fixpoint.
                    if inner.max.is_some_and(|m| m < inner.min) {
                        AbsState::new()
                    } else if inner.min == 0 {
                        self.collecting_reach(&current, &inner.alternatives)
                    } else {
                        let reach = self.collecting_reach(&current, &inner.alternatives);
                        let mut after = AbsState::new();
                        for alternative in &inner.alternatives {
                            after.extend(self.apply_alt(&reach, alternative));
                        }
                        after
                    }
                }
            };
        }
        current
    }

    /// The displacement window of one traversal of an alternative's body.
    fn alt_band(&self, steps: &[ClosureStep]) -> TimeLag {
        let mut total = TimeLag::zero();
        for step in steps {
            let w = match step {
                ClosureStep::Shift(shift) => shift_band(shift),
                ClosureStep::Micro(MicroOp::Closure(inner)) => {
                    let inner_windows: Vec<TimeLag> =
                        inner.alternatives.iter().map(|alt| self.alt_band(alt)).collect();
                    match inner_windows.split_first() {
                        None => TimeLag::zero(),
                        Some((&first, rest)) => {
                            let hull = rest.iter().copied().fold(first, band_hull);
                            band_scale(hull, inner.min, inner.max)
                        }
                    }
                }
                ClosureStep::Micro(_) => TimeLag::zero(),
            };
            total = band_add(total, w);
        }
        total
    }

    /// Structural hops of one traversal of an alternative's body, if bounded.
    fn alt_hops(&self, steps: &[ClosureStep]) -> Option<usize> {
        let mut total = 0usize;
        for step in steps {
            match step {
                ClosureStep::Micro(MicroOp::Hop(_)) => total += 1,
                ClosureStep::Micro(MicroOp::Closure(inner)) => {
                    let per_iter = inner
                        .alternatives
                        .iter()
                        .map(|alt| self.alt_hops(alt))
                        .try_fold(0usize, |acc, h| h.map(|h| acc.max(h)))?;
                    if per_iter > 0 {
                        total = total.saturating_add(per_iter.saturating_mul(inner.max? as usize));
                    }
                }
                ClosureStep::Micro(_) | ClosureStep::Shift(_) => {}
            }
        }
        Some(total)
    }
}

fn add_hops(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    Some(a?.saturating_add(b?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use tgraph::ItpgBuilder;
    use trpq::parser::parse_match;

    fn graph() -> GraphRelations {
        let mut b = ItpgBuilder::new();
        let ann = b.add_node("ann", "Person").unwrap();
        let bob = b.add_node("bob", "Person").unwrap();
        let lab = b.add_node("lab", "Room").unwrap();
        let m = b.add_edge("m", "meets", ann, bob).unwrap();
        let v = b.add_edge("v", "visits", ann, lab).unwrap();
        let all = Interval::of(0, 10);
        for node in [ann, bob, lab] {
            b.add_existence(node, all).unwrap();
        }
        b.add_existence(m, all).unwrap();
        b.add_existence(v, all).unwrap();
        b.set_property(ann, "risk", "high", all).unwrap();
        b.set_property(bob, "risk", "low", all).unwrap();
        let itpg = b.domain(all).build().unwrap();
        GraphRelations::from_itpg(&itpg)
    }

    fn analyze_text(text: &str) -> Analysis {
        let plan_set = compile(&parse_match(text).unwrap()).unwrap();
        analyze(&plan_set, &SchemaSummary::of(&graph()))
    }

    #[test]
    fn satisfiable_queries_have_no_errors() {
        for text in [
            "MATCH (x:Person {risk = 'high'})-[z:meets]->(y:Person) ON g",
            "MATCH (x:Person)-/FWD/:visits/FWD/-(y:Room) ON g",
            "MATCH (x:Person)-/NEXT[0,5]/-(y) ON g",
        ] {
            let analysis = analyze_text(text);
            assert!(!analysis.has_errors(), "{text}: {:?}", analysis.diagnostics);
            assert_eq!(analysis.pruned_plans, 0, "{text}");
        }
    }

    #[test]
    fn unknown_labels_prove_the_plan_empty() {
        let analysis = analyze_text("MATCH (x:Robot)-[z:meets]->(y) ON g");
        assert!(analysis.has_errors());
        assert_eq!(analysis.pruned_plans, 1);
        assert!(analysis.optimized.plans.is_empty());
        let d = &analysis.diagnostics[0];
        assert_eq!(d.kind, DiagnosticKind::EmptyPlan);
        assert_eq!(d.plan, Some(0));
        assert!(d.location.starts_with("segment 0"), "{}", d.location);
    }

    #[test]
    fn schema_adjacency_rejects_impossible_hops() {
        // No edge points *into* a Person from a Room-visiting edge pattern:
        // visits goes Person → Room, so Room-[visits]->Person is empty.
        let analysis = analyze_text("MATCH (x:Room)-[z:visits]->(y:Person) ON g");
        assert!(analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert!(analysis.optimized.plans.is_empty());
    }

    #[test]
    fn property_values_are_checked_against_the_schema() {
        let analysis = analyze_text("MATCH (x:Person {risk = 'radioactive'}) ON g");
        assert!(analysis.has_errors());
        // A value that does occur is fine.
        let ok = analyze_text("MATCH (x:Person {risk = 'low'}) ON g");
        assert!(!ok.has_errors(), "{:?}", ok.diagnostics);
    }

    #[test]
    fn time_constraints_constant_fold_against_the_domain() {
        let analysis = analyze_text("MATCH (x:Person {time > '10'}) ON g");
        assert!(analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert_eq!(analysis.diagnostics[0].kind, DiagnosticKind::EmptyPlan);
        let ok = analyze_text("MATCH (x:Person {time = '10'}) ON g");
        assert!(!ok.has_errors());
    }

    #[test]
    fn infeasible_shift_bands_are_flagged() {
        // The domain is 11 points wide; a shift of at least 20 cannot land.
        let analysis = analyze_text("MATCH (x:Person)-/NEXT[20,30]/-(y) ON g");
        assert!(analysis.has_errors());
        let d = &analysis.diagnostics[0];
        assert_eq!(d.kind, DiagnosticKind::InfeasibleBand);
        assert!(d.location.starts_with("link 0"), "{}", d.location);
        assert!(analysis.optimized.plans.is_empty());
    }

    #[test]
    fn contradictory_segment_times_are_an_infeasible_band() {
        // Segment 0 pinned at time 2, NEXT[5, _] forward, segment 1 pinned at
        // time 3 — unreachable.
        let analysis = analyze_text("MATCH (x {time = '2'})-/NEXT[5,8]/-(y {time = '3'}) ON g");
        assert!(analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert_eq!(analysis.diagnostics[0].kind, DiagnosticKind::InfeasibleBand);
    }

    #[test]
    fn dead_closure_alternatives_are_pruned() {
        let analysis = analyze_text(
            "MATCH (x:Person)-/(FWD/:meets/FWD + FWD/:teleports/FWD)*/-(y:Person) ON g",
        );
        assert!(
            analysis.diagnostics.iter().any(|d| d.kind == DiagnosticKind::DeadAlternative),
            "{:?}",
            analysis.diagnostics
        );
        assert_eq!(analysis.pruned_alternatives, 1);
        assert_eq!(analysis.optimized.plans.len(), 1);
        // The surviving closure has exactly one alternative.
        let seg = &analysis.optimized.plans[0].segments[0];
        let closure = seg
            .ops
            .iter()
            .find_map(|op| match op {
                MicroOp::Closure(c) => Some(c),
                _ => None,
            })
            .expect("closure survives");
        assert_eq!(closure.alternatives.len(), 1);
    }

    #[test]
    fn unbounded_structural_closures_are_noted_not_errored() {
        let analysis = analyze_text("MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g");
        assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert!(analysis.diagnostics.iter().any(|d| d.kind == DiagnosticKind::UnboundedClosure));
        assert_eq!(analysis.bounds[0].max_hops, None);
    }

    #[test]
    fn time_advancing_closures_are_bounded_by_the_span() {
        // Every iteration takes NEXT at least once, so at most span = 10
        // iterations fit; the plan becomes finitely seeded.
        let analysis = analyze_text("MATCH (x:Person)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g");
        assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert!(analysis.tightened_closures >= 1);
        assert!(
            !analysis.diagnostics.iter().any(|d| d.kind == DiagnosticKind::UnboundedClosure),
            "{:?}",
            analysis.diagnostics
        );
        // 2 hops per iteration × at most 10 iterations.
        assert_eq!(analysis.bounds[0].max_hops, Some(20));
        let link = &analysis.optimized.plans[0].links[0];
        match link {
            TemporalLink::Closure(c) => assert_eq!(c.max, Some(10)),
            other => panic!("unexpected link {other:?}"),
        }
    }

    #[test]
    fn closures_that_must_overrun_the_domain_are_infeasible() {
        // Each iteration advances ≥ 5; 3 iterations need ≥ 15 > 10.
        let analysis = analyze_text("MATCH (x)-/(FWD/BWD/NEXT[5,6])[3,9]/-(y) ON g");
        assert!(analysis.has_errors(), "{:?}", analysis.diagnostics);
        assert!(analysis.diagnostics.iter().any(|d| d.kind == DiagnosticKind::InfeasibleBand));
        assert!(analysis.optimized.plans.is_empty());
    }

    #[test]
    fn static_bounds_are_domain_generic() {
        let plan_set =
            compile(&parse_match("MATCH (x)-/(FWD/:meets/FWD/NEXT)*/-(y) ON g").unwrap()).unwrap();
        let bounds = static_bounds(&plan_set.plans[0], Interval::of(0, 10));
        assert_eq!(bounds.max_hops, Some(20));
        // A wider domain weakens the bound but keeps it finite.
        let wide = static_bounds(&plan_set.plans[0], Interval::of(0, 1000));
        assert_eq!(wide.max_hops, Some(2000));
        // Purely structural reachability stays unbounded.
        let reach =
            compile(&parse_match("MATCH (x)-/(FWD/:meets/FWD)*/-(y) ON g").unwrap()).unwrap();
        assert_eq!(static_bounds(&reach.plans[0], Interval::of(0, 10)).max_hops, None);
        // Label filters are assumed satisfiable by the universal schema: no
        // diagnostics-driven pruning can happen without exact labels.
        let labelled =
            compile(&parse_match("MATCH (x:Ghost)-[e:phantom]->(y) ON g").unwrap()).unwrap();
        assert_eq!(static_bounds(&labelled.plans[0], Interval::of(0, 10)).max_hops, Some(2));
    }

    #[test]
    fn row_bounds_dominate_actual_row_counts() {
        let g = graph();
        let schema = SchemaSummary::of(&g);
        for text in [
            "MATCH (x:Person)-[z:meets]->(y:Person) ON g",
            "MATCH (x:Person)-/FWD/:visits/FWD/-(y:Room) ON g",
            "MATCH (x:Person)-/NEXT[0,5]/-(y) ON g",
        ] {
            let plan_set = compile(&parse_match(text).unwrap()).unwrap();
            let analysis = analyze(&plan_set, &schema);
            let output = crate::executor::execute(
                &plan_set,
                &g,
                &crate::executor::ExecutionOptions::default(),
            );
            assert!(
                (output.stats.interval_rows as u128) <= analysis.bounds[0].max_rows,
                "{text}: {} > {}",
                output.stats.interval_rows,
                analysis.bounds[0].max_rows
            );
        }
    }

    #[test]
    fn diagnostics_render_with_provenance() {
        let analysis = analyze_text("MATCH (x:Robot) ON g");
        let rendered = analysis.diagnostics[0].to_string();
        assert!(rendered.contains("plan 0"), "{rendered}");
        assert!(rendered.contains("[empty-plan]"), "{rendered}");
    }

    #[test]
    fn summaries_are_canonical_and_render_what_was_analysed() {
        let summary = SchemaSummary::of(&graph());
        assert_eq!(summary.node_labels, ["Person", "Room"]);
        assert_eq!(summary.edge_labels, ["meets", "visits"]);
        assert_eq!(
            summary.node_props[0],
            [("risk".to_owned(), Value::str("high")), ("risk".to_owned(), Value::str("low"))]
        );
        assert_eq!((summary.node_rows, summary.edge_rows), (3, 2));
        // Person is the source of both edge labels; only `visits` reaches a Room.
        let hop = |obj, direction| summary.hop(obj, direction).collect::<Vec<_>>();
        assert_eq!(hop(AbsObj::Node(0), HopDirection::Forward), [AbsObj::Edge(0), AbsObj::Edge(1)]);
        assert_eq!(hop(AbsObj::Node(0), HopDirection::Backward), [AbsObj::Edge(0)]);
        assert_eq!(hop(AbsObj::Node(1), HopDirection::Backward), [AbsObj::Edge(1)]);
        assert_eq!(hop(AbsObj::Node(1), HopDirection::Forward), []);
        assert_eq!(hop(AbsObj::Edge(1), HopDirection::Forward), [AbsObj::Node(1)]);
        assert_eq!(hop(AbsObj::Edge(1), HopDirection::Backward), [AbsObj::Node(0)]);
        assert_eq!(
            summary.to_string(),
            "schema (exact) over [0, 10]\n  \
             node labels: Person (2 property pairs) Room (0 property pairs); 3 live rows\n  \
             edge labels: meets (0 property pairs) visits (0 property pairs); 2 live rows\n  \
             adjacency: (Person) -[meets]-> (Person)\n  \
             adjacency: (Person) -[visits]-> (Room)\n"
        );
        let universal = SchemaSummary::universal(Interval::of(0, 10)).to_string();
        assert!(universal.starts_with("schema (universal) over [0, 10]\n"), "{universal}");
        assert!(universal.ends_with("adjacency: (*) -[*]-> (*)\n"), "{universal}");
    }

    #[test]
    fn empty_plan_sets_analyze_cleanly() {
        let plan_set = compile(&parse_match("MATCH (x)-/NEXT[3,1]/-(y) ON g").unwrap()).unwrap();
        assert!(plan_set.plans.is_empty());
        let analysis = analyze(&plan_set, &SchemaSummary::of(&graph()));
        assert!(analysis.diagnostics.is_empty());
        assert!(analysis.optimized.plans.is_empty());
    }
}
