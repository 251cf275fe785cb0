//! The three evaluation steps of Section VI, plus the closure fixpoint operator, the
//! backward viability masks Steps 1–2 of a low-yield fixpoint-free plan run under,
//! and the exact backward walk of a plan's existential suffix.

pub mod closure;
pub mod expand;
pub mod structural;
pub mod temporal;
pub mod viability;

/// Counters accumulated while running Steps 1–2.  Each is a plain sum of what ran, so
/// the counts of seed batches run one by one add up to those of the batches run
/// together.  A query runs on the thread that asks for it, so every step takes the
/// counters by `&mut` and adds to the fields directly.
#[derive(Debug, Default)]
pub struct StepStats {
    /// Closure fixpoint rounds executed: one per application of a
    /// [`crate::plan::ClosureOp`]'s body to the frontier of one start state —
    /// forward, summed over the distinct start states of every call, nested
    /// closures included — or one per backward round when the closure sits in an
    /// existential suffix ([`viability`]).  Zero for plans without structural
    /// repetition.
    pub closure_rounds: usize,
    /// Number of *time-crossing* closure rounds executed: applications of a repeated
    /// group mixing structural and temporal navigation (`(FWD/NEXT)*` and friends) to
    /// a band frontier, or backward to an existential suffix's time sets.  Zero for
    /// plans without mixed repetition.
    pub time_closure_rounds: usize,
    /// Adjacency-index lookups the structural hops made: one per cursor a hop
    /// looks up, inside and outside closures.
    pub hop_probes: usize,
    /// Cursors the structural hops produced, inside and outside closures.  The
    /// chains Steps 1–2 return divided by this is the phase's yield: how many of
    /// the traversals it made survived every later filter.  Batches that ran under
    /// viability masks count the traversals they made, not the ones the masks
    /// spared them.
    pub hop_cursors: usize,
    /// Adjacent rows the structural hops read, inside and outside closures: a
    /// probe of a node row reads its node's out- or in-edge list, one of an
    /// edge row the row list of its endpoint node.  This over
    /// [`StepStats::hop_cursors`] is how many rows a hop reads per row it
    /// keeps.  The backward viability walk charges its own reads to
    /// [`StepStats::viability_rows_visited`] instead.
    pub hop_rows_scanned: usize,
    /// Backward viability passes ([`viability`]) that walked the whole plan back to
    /// its seeds.  This and the two counters below move once per
    /// `run_plan_seeded` call that takes a fixpoint-free plan through more than one
    /// seed batch, and once per call of a plan with an existential suffix, whose
    /// exact walk is always built — never per row — and exactly one of the two
    /// outcomes moves.  Any other plan with a fixpoint moves none of them.
    pub viability_built: usize,
    /// Calls that ran unmasked: the plan has no selective filter to anchor on; the
    /// sample batch wasted at most half its traversals, or too few to pay for the
    /// anchor's scan; or the scan found the anchor keeps more than half its
    /// relation's live rows.
    pub viability_skipped: usize,
    /// Row indices the backward passes looked at.
    pub viability_rows_visited: usize,
    /// Nanoseconds spent inside closure fixpoints (structural and time-crossing,
    /// forward and backward), accumulated only when [`StepStats::timed`] is set.
    /// Feeds the `query/step12/closure` span.
    pub closure_nanos: u64,
    /// Whether the closure entry points read the clock to accumulate
    /// [`StepStats::closure_nanos`].  Off by default; the executor sets it from
    /// `ExecutionOptions::telemetry`, so a telemetry-off run never reads the clock.
    pub timed: bool,
}
