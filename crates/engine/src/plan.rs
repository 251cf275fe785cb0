//! Physical query plans for the practical fragment implemented by the engine.
//!
//! A plan decomposes a `MATCH` pattern at its temporal navigation operators
//! (Section VI): each [`Segment`] is a purely structural select-project-join pipeline
//! evaluated over one (unknown) snapshot time, and consecutive segments are linked by
//! a [`Shift`] — a `NEXT[n,m]` / `PREV[n,m]` style move in time on the same object.
//! A query whose surface syntax contains unions compiles to several plans
//! (a [`PlanSet`]), whose results are unioned.

use tgraph::{Interval, Time, Value};
use trpq::parser::{CmpOp, Constraint};

use crate::chain::TimeLag;

pub mod analyze;
pub mod audit;

/// Direction of a single structural hop within a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDirection {
    /// `FWD`: node → outgoing edge, or edge → target node.
    Forward,
    /// `BWD`: node → incoming edge, or edge → source node.
    Backward,
}

/// A filter on the object currently under the cursor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjFilter {
    /// If set, the object must be a node (`true`) or an edge (`false`).
    pub require_node: Option<bool>,
    /// Required label, if any.
    pub label: Option<String>,
    /// Required property values.
    pub props: Vec<(String, Value)>,
    /// Constraints on the binding time (`time = k`, `time < k`, …).
    pub time: Vec<(CmpOp, Time)>,
}

impl ObjFilter {
    /// Builds a filter from the label and constraints of a parsed pattern.
    pub fn from_pattern(
        require_node: Option<bool>,
        label: Option<&str>,
        constraints: &[Constraint],
    ) -> Self {
        let mut filter =
            ObjFilter { require_node, label: label.map(str::to_owned), ..Default::default() };
        for c in constraints {
            match c {
                Constraint::Prop(p, v) => filter.props.push((p.clone(), v.clone())),
                Constraint::Time(op, k) => filter.time.push((*op, *k)),
            }
        }
        filter
    }

    /// True if the filter has no conditions at all.
    pub fn is_trivial(&self) -> bool {
        self.require_node.is_none()
            && self.label.is_none()
            && self.props.is_empty()
            && self.time.is_empty()
    }

    /// Restricts a validity interval according to the time constraints; returns `None`
    /// if no time point survives.
    pub fn clamp_interval(&self, interval: Interval) -> Option<Interval> {
        let mut lo = interval.start();
        let mut hi = interval.end();
        for (op, k) in &self.time {
            match op {
                CmpOp::Eq => {
                    lo = lo.max(*k);
                    hi = hi.min(*k);
                }
                CmpOp::Lt => {
                    if *k == 0 {
                        return None;
                    }
                    hi = hi.min(k - 1);
                }
                CmpOp::Le => hi = hi.min(*k),
                CmpOp::Gt => match k.checked_add(1) {
                    // `time > Time::MAX` admits no time point at all.
                    None => return None,
                    Some(bound) => lo = lo.max(bound),
                },
                CmpOp::Ge => lo = lo.max(*k),
            }
        }
        if lo <= hi {
            Some(Interval::of(lo, hi))
        } else {
            None
        }
    }

    /// Checks the label and property parts of the filter against a row's label and
    /// property list (the time part is handled by [`ObjFilter::clamp_interval`]).
    pub fn matches_row(&self, label: &str, props: &[(std::sync::Arc<str>, Value)]) -> bool {
        if let Some(required) = &self.label {
            if required != label {
                return false;
            }
        }
        self.props
            .iter()
            .all(|(name, value)| props.iter().any(|(k, v)| k.as_ref() == name && v == value))
    }
}

/// A single operation of a structural segment.
#[derive(Debug, Clone, PartialEq)]
pub enum MicroOp {
    /// Move one structural step within the current snapshot.
    Hop(HopDirection),
    /// Filter the object under the cursor.
    Filter(ObjFilter),
    /// Bind the object under the cursor to the variable slot.
    Bind(usize),
    /// Repeat a *purely structural* sub-pipeline between `min` and `max` times — the
    /// engine's interval-aware transitive closure (`(FWD/:meets/FWD)*` and friends).
    /// Time-crossing repetitions (any [`ClosureStep::Shift`] in the body) never appear
    /// as a segment micro-op; they compile to a [`TemporalLink::Closure`] instead.
    Closure(ClosureOp),
}

/// One step of a repeated sub-expression: either a structural micro-operation
/// (evaluated within the current snapshot) or a temporal [`Shift`] advancing the
/// cursor through the existence time of the object it sits on.
#[derive(Debug, Clone, PartialEq)]
pub enum ClosureStep {
    /// A structural micro-operation (hop, filter, or a nested closure).
    Micro(MicroOp),
    /// A temporal move on the current object between two structural steps.
    Shift(Shift),
}

impl From<MicroOp> for ClosureStep {
    fn from(op: MicroOp) -> Self {
        ClosureStep::Micro(op)
    }
}

/// The repetition of a sub-expression, evaluated as a semi-naive fixpoint: each
/// iteration applies every alternative of the inner step pipeline to the newly
/// discovered states only, coalescing intervals between rounds, until no new coverage
/// appears (or the `max` bound is reached).
///
/// The inner alternatives contain no [`MicroOp::Bind`] (the surface language cannot
/// bind variables inside a repeated group).  When the body is purely structural the
/// fixpoint runs per snapshot over `(source, position, interval)` triples; when it
/// contains [`ClosureStep::Shift`]s (`(FWD/NEXT)*`-style mixed repetition) it runs
/// time-aware, over `(source, position, departure-interval, arrival-interval, lag)`
/// states (see [`crate::steps::closure`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureOp {
    /// The union alternatives of the repeated sub-expression; one iteration applies
    /// each alternative to the frontier and unions the results.
    pub alternatives: Vec<Vec<ClosureStep>>,
    /// Minimum number of iterations.
    pub min: u32,
    /// Maximum number of iterations; `None` for open-ended repetitions such as `*`.
    pub max: Option<u32>,
}

impl ClosureOp {
    /// Builds a closure over purely structural alternatives (no temporal steps).
    pub fn structural(alternatives: Vec<Vec<MicroOp>>, min: u32, max: Option<u32>) -> Self {
        ClosureOp {
            alternatives: alternatives
                .into_iter()
                .map(|ops| ops.into_iter().map(ClosureStep::Micro).collect())
                .collect(),
            min,
            max,
        }
    }

    /// True if some alternative moves through time: it contains a shift, directly or
    /// inside a nested closure.  Time-crossing closures relate different time points
    /// of their start and end states and therefore execute as a
    /// [`TemporalLink::Closure`] rather than inside a structural segment.
    pub fn is_time_crossing(&self) -> bool {
        fn step_crosses(step: &ClosureStep) -> bool {
            match step {
                ClosureStep::Shift(_) => true,
                ClosureStep::Micro(MicroOp::Closure(inner)) => inner.is_time_crossing(),
                ClosureStep::Micro(_) => false,
            }
        }
        self.alternatives.iter().any(|alt| alt.iter().any(step_crosses))
    }
}

/// A maximal run of structural operations evaluated at a single snapshot time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Segment {
    /// The operations, applied left to right.
    pub ops: Vec<MicroOp>,
}

/// A temporal move between two segments: `NEXT[min, max]` (forward) or
/// `PREV[min, max]` (backward) on the object the previous segment ended on, walking
/// only through time points at which that object exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shift {
    /// `true` for `NEXT` (towards the future), `false` for `PREV`.
    pub forward: bool,
    /// Minimum number of steps.
    pub min: u32,
    /// Maximum number of steps; `None` for open-ended indicators such as `NEXT*`.
    pub max: Option<u32>,
}

impl Shift {
    /// True if no step count satisfies the indicator (`min > max`, e.g. `NEXT[3,1]`):
    /// the shift relates nothing, matching the reference semantics of an empty
    /// repetition range.
    pub fn is_unsatisfiable(&self) -> bool {
        self.max.is_some_and(|m| m < self.min)
    }

    /// The arrival times reachable from departure time `t`, given the maximal
    /// existence interval `within` that contains `t`.
    pub fn arrival_from_point(&self, t: Time, within: Interval) -> Option<Interval> {
        if self.is_unsatisfiable() {
            return None;
        }
        if self.forward {
            let lo = t.checked_add(self.min as u64)?;
            // `t + m` can exceed `Time::MAX` for large times; the arrival window is
            // clamped to `within` anyway, so saturating keeps the minimum exact.
            let hi = match self.max {
                Some(m) => t.saturating_add(m as u64).min(within.end()),
                None => within.end(),
            };
            if lo > hi || lo > within.end() {
                None
            } else {
                Some(Interval::of(lo, hi))
            }
        } else {
            if t < self.min as u64 {
                return None;
            }
            let hi = t - self.min as u64;
            let lo = match self.max {
                Some(m) => t.saturating_sub(m as u64).max(within.start()),
                None => within.start(),
            };
            if lo > hi || hi < within.start() {
                None
            } else {
                Some(Interval::of(lo, hi.min(within.end())))
            }
        }
    }

    /// The arrival times reachable from *some* departure time in `departure`, given
    /// the maximal existence interval `within` containing the departure interval.
    ///
    /// Because the departure times form a contiguous interval, the union of the
    /// per-departure arrival windows is itself an interval: `[departure.start + min,
    /// departure.end + max]` for forward shifts and `[departure.start − max,
    /// departure.end − min]` for backward shifts, clamped to `within`.
    pub fn arrival_from_interval(&self, departure: Interval, within: Interval) -> Option<Interval> {
        if self.is_unsatisfiable() {
            return None;
        }
        if self.forward {
            let lo = departure.start().checked_add(self.min as u64)?;
            let hi = match self.max {
                Some(m) => departure.end().saturating_add(m as u64).min(within.end()),
                None => within.end(),
            };
            if lo > hi {
                return None;
            }
            Interval::of(lo, hi).intersect(&within)
        } else {
            if departure.end() < self.min as u64 {
                return None;
            }
            let hi = departure.end() - self.min as u64;
            let lo = match self.max {
                Some(m) => departure.start().saturating_sub(m as u64).max(within.start()),
                None => within.start(),
            };
            if lo > hi {
                return None;
            }
            Interval::of(lo, hi).intersect(&within)
        }
    }

    /// The departure times from which the shift arrives at *some* time in `arrival`,
    /// given the maximal existence interval `within` containing the arrival interval:
    /// `[arrival.start − max, arrival.end − min]` for forward shifts and
    /// `[arrival.start + min, arrival.end + max]` for backward ones, an open-ended
    /// bound running to the edge of `within`, clamped to `within` — the pre-image of
    /// [`Shift::arrival_from_interval`], and that of the shift's [`Shift::lag`]
    /// ([`TimeLag::departure_into`]) when some step count satisfies it.
    pub fn departure_into(&self, arrival: Interval, within: Interval) -> Option<Interval> {
        if self.is_unsatisfiable() {
            return None;
        }
        self.lag().departure_into(arrival, within)
    }

    /// True if moving from `from` to `to` respects the step bounds and direction.
    pub fn admits(&self, from: Time, to: Time) -> bool {
        let delta = if self.forward {
            if to < from {
                return false;
            }
            to - from
        } else {
            if to > from {
                return false;
            }
            from - to
        };
        delta >= self.min as u64 && self.max.is_none_or(|m| delta <= m as u64)
    }

    /// The step bounds as a signed arrival − departure skew, an open bound
    /// unbounded: [`TimeLag::admits`] then agrees with [`Shift::admits`].
    pub fn lag(&self) -> TimeLag {
        let (min, max) = (i128::from(self.min), self.max.map_or(i128::MAX, i128::from));
        match self.forward {
            true => TimeLag { lo: min, hi: max },
            false => TimeLag { lo: -max, hi: -min },
        }
    }
}

/// The temporal connection between two consecutive segments of a plan: either a plain
/// shift (`NEXT[n,m]` / `PREV[n,m]`) or a time-aware closure (repetition of a group
/// mixing structural and temporal navigation, e.g. `(FWD/NEXT)*`).
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalLink {
    /// A temporal move on the object the previous segment ended on.
    Shift(Shift),
    /// A time-crossing fixpoint: the repeated body moves both through the graph and
    /// through time, so the link relates `(row, departure time)` to `(row', arrival
    /// time)` states.  The admissible `(departure, arrival)` pairs are recorded per
    /// output chain as a [`crate::chain::TimeLag`].
    Closure(ClosureOp),
}

impl TemporalLink {
    /// The shift, if the link is a plain temporal move.
    pub fn as_shift(&self) -> Option<&Shift> {
        match self {
            TemporalLink::Shift(shift) => Some(shift),
            TemporalLink::Closure(_) => None,
        }
    }
}

/// Where a chain finds the time skew across one link of its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkLag {
    /// A plain shift: the same skew for every chain ([`Shift::lag`]).
    Fixed(TimeLag),
    /// A time-crossing closure: the chain's recorded lag at this index
    /// ([`crate::chain::Chain::lags`]).
    Recorded(usize),
}

/// What a plan fixes about every match of it, worked out once when the plan is
/// built: where each variable binds and where each link's time skew is found.  A
/// [`Chain`](crate::chain::Chain) records only what varies, read through this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLayout {
    binds: Vec<(usize, usize)>,
    by_slot: Vec<usize>,
    links: Vec<LinkLag>,
    last_bound_segment: usize,
}

impl ChainLayout {
    fn of(segments: &[Segment], links: &[TemporalLink]) -> Self {
        let ops =
            segments.iter().enumerate().flat_map(|(i, s)| s.ops.iter().map(move |op| (i, op)));
        let binds: Vec<(usize, usize)> = ops
            .filter_map(|(segment, op)| match op {
                MicroOp::Bind(slot) => Some((*slot, segment)),
                _ => None,
            })
            .collect();
        let mut by_slot: Vec<usize> = (0..binds.len()).collect();
        by_slot.sort_by_key(|&bind| binds[bind].0);
        let mut recorded = 0;
        let links = links
            .iter()
            .map(|link| match link {
                TemporalLink::Shift(shift) => LinkLag::Fixed(shift.lag()),
                TemporalLink::Closure(_) => {
                    recorded += 1;
                    LinkLag::Recorded(recorded - 1)
                }
            })
            .collect();
        let last_bound_segment = binds.iter().map(|&(_, segment)| segment).max().unwrap_or(0);
        ChainLayout { binds, by_slot, links, last_bound_segment }
    }

    /// The `(slot, segment)` of every `Bind`, in plan order: the order of
    /// [`Chain::bound`](crate::chain::Chain::bound).
    pub fn binds(&self) -> &[(usize, usize)] {
        &self.binds
    }

    /// The index into [`ChainLayout::binds`] of every bound slot, by ascending
    /// slot: in a [`PlanSet`], which refuses a slot left unbound, slot `s`'s bind.
    pub fn by_slot(&self) -> &[usize] {
        &self.by_slot
    }

    /// Per link, where a chain finds its time skew.
    pub fn links(&self) -> &[LinkLag] {
        &self.links
    }

    /// The last segment that binds a variable (0 if none does).
    pub fn last_bound_segment(&self) -> usize {
        self.last_bound_segment
    }
}

/// A complete plan: segments joined by temporal links, and the layout of its
/// chains.  [`EnginePlan::new`] is the only way to build one and refuses what the
/// [`audit`] refuses, so `links().len()` is always `segments().len() - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePlan {
    segments: Vec<Segment>,
    links: Vec<TemporalLink>,
    layout: ChainLayout,
}

impl EnginePlan {
    /// Builds a plan, or refuses it with every defect the audit finds but a slot
    /// out of range or left unbound, which needs the variables that
    /// [`PlanSet::new`] has.
    pub fn new(
        segments: Vec<Segment>,
        links: Vec<TemporalLink>,
    ) -> Result<Self, audit::AuditError> {
        let plan = EnginePlan::laid_out(segments, links);
        audit::audit_plan(&plan).map(|()| plan)
    }

    fn laid_out(segments: Vec<Segment>, links: Vec<TemporalLink>) -> Self {
        let layout = ChainLayout::of(&segments, &links);
        EnginePlan { segments, links, layout }
    }

    /// The structural segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The temporal links between consecutive segments.
    pub fn links(&self) -> &[TemporalLink] {
        &self.links
    }

    /// Where the plan's chains record what they bind and cross.
    pub fn layout(&self) -> &ChainLayout {
        &self.layout
    }

    /// True if the plan has no temporal navigation (queries Q1–Q5 of the paper); its
    /// results stay temporally coalesced.
    pub fn is_purely_structural(&self) -> bool {
        self.links.is_empty()
    }

    /// True if the plan repeats a sub-expression to a fixpoint: a structural
    /// closure inside a segment or a time-crossing one between two.
    pub fn has_fixpoint(&self) -> bool {
        self.closures().next().is_some()
    }

    /// The closures of the plan, structural ones inside its segments first and
    /// then the time-crossing links; closures nested in them are not listed.
    pub(crate) fn closures(&self) -> impl Iterator<Item = &ClosureOp> {
        let structural = self.segments.iter().flat_map(|s| &s.ops).filter_map(|op| match op {
            MicroOp::Closure(closure) => Some(closure),
            _ => None,
        });
        let links = self.links.iter().filter_map(|link| match link {
            TemporalLink::Closure(closure) => Some(closure),
            TemporalLink::Shift(_) => None,
        });
        structural.chain(links)
    }

    /// Number of structural hops a match makes on its way through the plan, not
    /// counting the ones repeated inside a closure.
    pub fn hop_count(&self) -> usize {
        self.segments.iter().flat_map(|s| &s.ops).filter(|op| matches!(op, MicroOp::Hop(_))).count()
    }

    /// The plan up to and including op `op` of segment `segment`: the segments
    /// before it, its ops up to `op`, and the links between them.  A prefix of a
    /// valid plan is valid (one link per pair of segments, every check holds of a
    /// part of what it held of), so it skips the audit.
    pub(crate) fn prefix(&self, segment: usize, op: usize) -> EnginePlan {
        let mut segments = self.segments[..=segment].to_vec();
        segments[segment].ops.truncate(op + 1);
        EnginePlan::laid_out(segments, self.links[..segment].to_vec())
    }
}

/// The compiled form of one `MATCH` clause: one plan per union alternative plus the
/// shared variable slots.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSet {
    plans: Vec<EnginePlan>,
    variables: Vec<String>,
}

impl PlanSet {
    /// Builds a plan set, or refuses it for more than [`audit::MAX_PLANS`] plans, a
    /// slot past `variables` or a slot some plan leaves unbound.  No plans at all is
    /// valid: the compiler builds that for a clause whose every alternative is
    /// unsatisfiable.
    pub fn new(plans: Vec<EnginePlan>, variables: Vec<String>) -> Result<Self, audit::AuditError> {
        let plan_set = PlanSet { plans, variables };
        audit::audit_plan_set(&plan_set).map(|()| plan_set)
    }

    /// The union alternatives.
    pub fn plans(&self) -> &[EnginePlan] {
        &self.plans
    }

    /// Variable names, indexed by slot.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// True if no alternative uses temporal navigation.
    pub fn is_purely_structural(&self) -> bool {
        self.plans.iter().all(EnginePlan::is_purely_structural)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_interval_applies_time_constraints() {
        let mut f = ObjFilter::default();
        assert_eq!(f.clamp_interval(Interval::of(1, 9)), Some(Interval::of(1, 9)));
        f.time.push((CmpOp::Lt, 5));
        assert_eq!(f.clamp_interval(Interval::of(1, 9)), Some(Interval::of(1, 4)));
        f.time.push((CmpOp::Ge, 3));
        assert_eq!(f.clamp_interval(Interval::of(1, 9)), Some(Interval::of(3, 4)));
        f.time.push((CmpOp::Eq, 4));
        assert_eq!(f.clamp_interval(Interval::of(1, 9)), Some(Interval::of(4, 4)));
        f.time.push((CmpOp::Gt, 7));
        assert_eq!(f.clamp_interval(Interval::of(1, 9)), None);
        let lt_zero = ObjFilter { time: vec![(CmpOp::Lt, 0)], ..Default::default() };
        assert_eq!(lt_zero.clamp_interval(Interval::of(0, 5)), None);
    }

    #[test]
    fn row_matching_checks_label_and_props() {
        let f = ObjFilter::from_pattern(
            Some(true),
            Some("Person"),
            &[Constraint::Prop("risk".into(), Value::str("high"))],
        );
        let props = vec![
            (std::sync::Arc::from("name"), Value::str("Mia")),
            (std::sync::Arc::from("risk"), Value::str("high")),
        ];
        assert!(f.matches_row("Person", &props));
        assert!(!f.matches_row("Room", &props));
        let low = vec![(std::sync::Arc::from("risk"), Value::str("low"))];
        assert!(!f.matches_row("Person", &low));
        assert!(ObjFilter::default().is_trivial());
        assert!(!f.is_trivial());
    }

    #[test]
    fn shift_arrivals_forward_and_backward() {
        let within = Interval::of(0, 48);
        let next = Shift { forward: true, min: 0, max: Some(12) };
        assert_eq!(next.arrival_from_point(10, within), Some(Interval::of(10, 22)));
        assert_eq!(next.arrival_from_point(40, within), Some(Interval::of(40, 48)));
        let next_star = Shift { forward: true, min: 0, max: None };
        assert_eq!(next_star.arrival_from_point(10, within), Some(Interval::of(10, 48)));
        let prev = Shift { forward: false, min: 1, max: Some(3) };
        assert_eq!(prev.arrival_from_point(10, within), Some(Interval::of(7, 9)));
        assert_eq!(prev.arrival_from_point(0, within), None);
        let prev_star = Shift { forward: false, min: 0, max: None };
        assert_eq!(
            prev_star.arrival_from_point(10, Interval::of(5, 48)),
            Some(Interval::of(5, 10))
        );
    }

    #[test]
    fn shift_arithmetic_survives_time_max_adjacent_inputs() {
        // Regression: `hi = t + m` used to overflow (panic in debug, wrap in release)
        // for large departure times; the window is clamped to `within` regardless.
        let within = Interval::of(Time::MAX - 10, Time::MAX);
        let next = Shift { forward: true, min: 0, max: Some(12) };
        assert_eq!(
            next.arrival_from_point(Time::MAX - 5, within),
            Some(Interval::of(Time::MAX - 5, Time::MAX))
        );
        assert_eq!(
            next.arrival_from_point(Time::MAX, within),
            Some(Interval::of(Time::MAX, Time::MAX))
        );
        // A minimum step count that cannot be taken from the end of time.
        let must_move = Shift { forward: true, min: 1, max: Some(u32::MAX) };
        assert_eq!(must_move.arrival_from_point(Time::MAX, within), None);
        assert_eq!(
            must_move.arrival_from_point(Time::MAX - 1, within),
            Some(Interval::of(Time::MAX, Time::MAX))
        );
        // The interval form saturates the same way.
        assert_eq!(
            next.arrival_from_interval(Interval::of(Time::MAX - 2, Time::MAX), within),
            Some(Interval::of(Time::MAX - 2, Time::MAX))
        );
        // A `time > Time::MAX` constraint admits nothing instead of overflowing.
        let gt_max = ObjFilter { time: vec![(CmpOp::Gt, Time::MAX)], ..Default::default() };
        assert_eq!(gt_max.clamp_interval(Interval::of(0, Time::MAX)), None);
    }

    #[test]
    fn closure_time_crossing_classification() {
        let hop = || ClosureStep::Micro(MicroOp::Hop(HopDirection::Forward));
        let structural =
            ClosureOp::structural(vec![vec![MicroOp::Hop(HopDirection::Forward)]], 0, None);
        assert!(!structural.is_time_crossing());
        let mixed = ClosureOp {
            alternatives: vec![vec![
                hop(),
                ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) }),
            ]],
            min: 0,
            max: None,
        };
        assert!(mixed.is_time_crossing());
        // Nesting a time-crossing closure makes the outer closure time-crossing too.
        let nested = ClosureOp {
            alternatives: vec![vec![hop(), ClosureStep::Micro(MicroOp::Closure(mixed))]],
            min: 1,
            max: Some(2),
        };
        assert!(nested.is_time_crossing());
        let nested_structural = ClosureOp {
            alternatives: vec![vec![ClosureStep::Micro(MicroOp::Closure(structural))]],
            min: 0,
            max: None,
        };
        assert!(!nested_structural.is_time_crossing());
    }

    #[test]
    fn shift_arrival_from_interval_covers_all_departures() {
        let within = Interval::of(0, 48);
        let next = Shift { forward: true, min: 2, max: Some(4) };
        assert_eq!(
            next.arrival_from_interval(Interval::of(10, 12), within),
            Some(Interval::of(12, 16))
        );
        let prev = Shift { forward: false, min: 1, max: Some(2) };
        assert_eq!(
            prev.arrival_from_interval(Interval::of(10, 12), within),
            Some(Interval::of(8, 11))
        );
        // Departure too close to the start of time for a backward shift.
        let far_prev = Shift { forward: false, min: 10, max: Some(12) };
        assert_eq!(far_prev.arrival_from_interval(Interval::of(2, 3), within), None);
    }

    #[test]
    fn shift_departures_are_the_pre_image_of_arrivals() {
        let within = Interval::of(10, 30);
        let arrival = Interval::of(20, 22);
        let next = Shift { forward: true, min: 2, max: Some(4) };
        assert_eq!(next.departure_into(arrival, within), Some(Interval::of(16, 20)));
        for t in 10..=30 {
            let arrives = next.arrival_from_point(t, within).is_some_and(|a| a.overlaps(&arrival));
            assert_eq!(arrives, (16..=20).contains(&t), "departure {t}");
        }
        let prev = Shift { forward: false, min: 1, max: Some(2) };
        assert_eq!(prev.departure_into(arrival, within), Some(Interval::of(21, 24)));
        // An open bound runs to the edge of the existence interval, never past it.
        let next_star = Shift { forward: true, min: 0, max: None };
        assert_eq!(next_star.departure_into(arrival, within), Some(Interval::of(10, 22)));
        let prev_star = Shift { forward: false, min: 0, max: None };
        assert_eq!(prev_star.departure_into(arrival, within), Some(Interval::of(20, 30)));
        // Nothing when the steps leave the existence interval or time itself, or when
        // the indicator is unsatisfiable.
        let long = Shift { forward: true, min: 15, max: None };
        assert_eq!(long.departure_into(arrival, within), None);
        let early = Shift { forward: true, min: 3, max: Some(5) };
        assert_eq!(early.departure_into(Interval::of(0, 2), Interval::of(0, 9)), None);
        let late = Shift { forward: false, min: 1, max: Some(1) };
        let end = Interval::point(Time::MAX);
        assert_eq!(late.departure_into(end, Interval::of(0, Time::MAX)), None);
        let empty = Shift { forward: true, min: 3, max: Some(1) };
        assert_eq!(empty.departure_into(arrival, within), None);
    }

    #[test]
    fn shift_admits_checks_direction_and_bounds() {
        let next = Shift { forward: true, min: 0, max: Some(12) };
        assert!(next.admits(5, 5));
        assert!(next.admits(5, 17));
        assert!(!next.admits(5, 18));
        assert!(!next.admits(5, 4));
        let prev_star = Shift { forward: false, min: 0, max: None };
        assert!(prev_star.admits(9, 1));
        assert!(!prev_star.admits(9, 10));
        let exactly_one_back = Shift { forward: false, min: 1, max: Some(1) };
        assert!(exactly_one_back.admits(9, 8));
        assert!(!exactly_one_back.admits(9, 9));
        // As a signed skew the bounds admit the same moves.
        for shift in [next, prev_star, exactly_one_back, Shift { forward: true, min: 2, max: None }]
        {
            for (from, to) in (0..12).flat_map(|from| (0..12).map(move |to| (from, to))) {
                assert_eq!(shift.lag().admits(from, to), shift.admits(from, to), "{shift:?}");
            }
        }
    }

    /// The pre-image [`Shift::departure_into`] computed by hand before it read
    /// the shift's lag: `[arrival.start − max, arrival.end − min]` forward and
    /// `[arrival.start + min, arrival.end + max]` backward, in `u64`.
    fn departure_into_by_hand(
        shift: Shift,
        arrival: Interval,
        within: Interval,
    ) -> Option<Interval> {
        if shift.is_unsatisfiable() {
            return None;
        }
        let (min, max) = (shift.min as u64, shift.max.map(u64::from));
        let (lo, hi) = if shift.forward {
            let hi = arrival.end().checked_sub(min)?;
            (max.map_or(within.start(), |m| arrival.start().saturating_sub(m)), hi)
        } else {
            let lo = arrival.start().checked_add(min)?;
            (lo, max.map_or(within.end(), |m| arrival.end().saturating_add(m)))
        };
        if lo > hi {
            return None;
        }
        Interval::of(lo, hi).intersect(&within)
    }

    #[test]
    fn a_shifts_pre_image_is_its_lags() {
        let big = Time::MAX;
        let mut shifts = Vec::new();
        for forward in [true, false] {
            for min in [0, 1, 2, 5, u32::MAX] {
                for max in [None, Some(0), Some(1), Some(3), Some(7), Some(u32::MAX)] {
                    shifts.push(Shift { forward, min, max });
                }
            }
        }
        let mut intervals: Vec<Interval> =
            (0..12).flat_map(|a| (a..12).map(move |b| Interval::of(a, b))).collect();
        let high = [big - 9, big - 3, big - 1, big];
        intervals.extend(high.iter().flat_map(|&a| {
            high.iter().filter(move |&&b| b >= a).map(move |&b| Interval::of(a, b))
        }));
        intervals.extend([Interval::of(0, big), Interval::of(3, big), Interval::of(0, big - 1)]);
        for shift in &shifts {
            for &arrival in &intervals {
                for &within in &intervals {
                    assert_eq!(
                        shift.departure_into(arrival, within),
                        departure_into_by_hand(*shift, arrival, within),
                        "{shift:?} into {arrival:?} within {within:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_structural_classification() {
        let binds_x = || Segment { ops: vec![MicroOp::Bind(0)] };
        let plain = EnginePlan::new(vec![binds_x()], vec![]).unwrap();
        assert!(plain.is_purely_structural());
        let shifted = EnginePlan::new(
            vec![binds_x(), Segment::default()],
            vec![TemporalLink::Shift(Shift { forward: true, min: 0, max: None })],
        )
        .unwrap();
        assert!(!shifted.is_purely_structural());
        let set = PlanSet::new(vec![plain, shifted], vec!["x".into()]).unwrap();
        assert!(!set.is_purely_structural());
    }

    #[test]
    fn the_layout_places_binds_and_lags() {
        // y in segment 2, x in segment 0; a shift, then a time-crossing closure.
        let next = ClosureStep::Shift(Shift { forward: true, min: 1, max: Some(1) });
        let closure = ClosureOp { alternatives: vec![vec![next]], min: 0, max: None };
        let shift = Shift { forward: false, min: 1, max: Some(3) };
        let plan = EnginePlan::new(
            vec![
                Segment { ops: vec![MicroOp::Bind(1)] },
                Segment::default(),
                Segment { ops: vec![MicroOp::Bind(0)] },
            ],
            vec![TemporalLink::Shift(shift), TemporalLink::Closure(closure)],
        )
        .unwrap();
        let layout = plan.layout();
        assert_eq!(layout.binds(), [(1, 0), (0, 2)]);
        assert_eq!(layout.by_slot(), [1, 0]);
        assert_eq!(
            layout.links(),
            [LinkLag::Fixed(TimeLag { lo: -3, hi: -1 }), LinkLag::Recorded(0)]
        );
        assert_eq!(layout.last_bound_segment(), 2);
        // A prefix is laid out as if built whole.
        let prefix = plan.prefix(0, 0);
        assert_eq!(prefix.layout().binds(), [(1, 0)]);
        assert!(prefix.layout().links().is_empty());
    }
}
