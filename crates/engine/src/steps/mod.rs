//! The three evaluation steps of Section VI, plus the closure fixpoint operator, the
//! backward viability masks Steps 1–2 of a low-yield fixpoint-free plan run under,
//! and the exact backward walk of a plan's existential suffix.

pub mod closure;
pub mod expand;
pub mod structural;
pub mod temporal;
pub mod viability;

use std::sync::atomic::{AtomicU64, AtomicUsize};

/// Counters accumulated while running Steps 1–2, shared across the executor's worker
/// threads (hence the atomics).
#[derive(Debug, Default)]
pub struct StepStats {
    /// Number of closure fixpoint rounds executed: one count per application of a
    /// [`crate::plan::ClosureOp`]'s inner pipeline to a frontier — forward, or
    /// backward when the closure sits in an existential suffix
    /// ([`viability`]).  Zero for plans without structural repetition.  The forward
    /// structural fixpoint runs its start states one at a time and adds, per call,
    /// the rounds of its deepest state: what a loop moving every state of the call
    /// through the rounds together would have run.
    pub closure_rounds: AtomicUsize,
    /// Number of *time-crossing* closure rounds executed: applications of a repeated
    /// group mixing structural and temporal navigation (`(FWD/NEXT)*` and friends) to
    /// a band frontier, or backward to an existential suffix's time sets.  Zero for
    /// plans without mixed repetition.
    pub time_closure_rounds: AtomicUsize,
    /// Number of structural hop joins executed (per hop batch, not per cursor); every
    /// hop probes the hash adjacency indexes.  The executor counts the seed batches
    /// of a fixpoint-free plan as the one batch they stand for: the furthest hop any
    /// of them still had a cursor for.  Inside a structural closure a batch is one
    /// round of one body hop over the call's start states: one join per relation —
    /// node rows, edge rows — any of them probed there, per round, body hop and
    /// worker batch.
    pub hash_joins: AtomicUsize,
    /// Number of cursors the structural hop joins produced, summed over every hop
    /// batch (one add per batch, inside and outside closures).  The chains Steps 1–2
    /// return divided by this is the phase's yield: how many of the traversals it
    /// made survived every later filter.  Batches that ran under viability masks
    /// count the traversals they made, not the ones the masks spared them.
    pub hop_cursors: AtomicUsize,
    /// Backward viability passes ([`viability`]) that walked the whole plan back to
    /// its seeds.  This and the two counters below move once per
    /// `run_plan_seeded` call that takes a fixpoint-free plan through more than one
    /// seed batch, and once per call of a plan with an existential suffix, whose
    /// exact walk is always built — never per row — and exactly one of the two
    /// outcomes moves.  Any other plan with a fixpoint moves none of them.
    pub viability_built: AtomicUsize,
    /// Calls that ran unmasked: the plan has no selective filter to anchor on; the
    /// sample batch wasted at most half its traversals, or too few to pay for the
    /// anchor's scan; or the scan found the anchor keeps more than half its
    /// relation's live rows.
    pub viability_skipped: AtomicUsize,
    /// Row indices the backward passes looked at.
    pub viability_rows_visited: AtomicUsize,
    /// Nanoseconds spent inside closure fixpoints (structural and time-crossing,
    /// forward and backward), accumulated only when [`StepStats::timed`] is set.
    /// Feeds the `query/step12/closure` span.
    pub closure_nanos: AtomicU64,
    /// Whether the closure entry points read the clock to accumulate
    /// [`StepStats::closure_nanos`].  Off by default; the executor sets it from
    /// `ExecutionOptions::telemetry`, so a telemetry-off run never reads the clock.
    pub timed: bool,
}
