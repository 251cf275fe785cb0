//! Benchmark-side span tracing: spans are recorded in memory around each call
//! into a layer's public functions and written out once, at exit.
//!
//! A span is `(op, id, parent, name, start_ns, end_ns)`; the spans of one
//! operation share its `op`.  A layer's *self time* is its span minus the part
//! its direct children cover.  A disabled tracer never reads the clock.

use std::collections::BTreeMap;

use bench::json::Json;
use obs::Stopwatch;

/// One recorded span.  `parent` is 0 for an operation's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
    ops: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Stopwatch::start(), spans: Vec::new(), open: Vec::new(), ops: 0 }
    }

    /// Switches recording on or off between operations: a traced run keeps
    /// every other round free of spans, as its untraced baseline.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an operation");
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open one; a span opened with none open
    /// starts a new operation.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed_nanos();
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        if parent == 0 {
            self.ops += 1;
        }
        let id = self.spans.len() as u32 + 1;
        self.open.push(self.spans.len());
        self.spans.push(Span { op: self.ops, id, parent, name, start_ns: now, end_ns: now });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.origin.elapsed_nanos();
        }
    }

    /// Closes every open span — an operation that failed part-way.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Times `work` as a span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = work();
        self.exit();
        out
    }

    /// Records, under the innermost open span, consecutive child spans whose
    /// durations a layer reported itself (`QueryStats`, `RefreshStats`), laid
    /// end to end from the parent's start.
    pub fn reported(&mut self, children: &[(&'static str, u64)]) {
        let Some(&parent_index) = self.open.last() else { return };
        let (op, parent) = (self.spans[parent_index].op, self.spans[parent_index].id);
        let mut start_ns = self.spans[parent_index].start_ns;
        for &(name, nanos) in children {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span { op, id, parent, name, start_ns, end_ns: start_ns + nanos });
            start_ns += nanos;
        }
    }

    /// The number of spans recorded so far — a mark to slice a round out with.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time, index-aligned with `spans`: its duration minus its
/// direct children's, children clipped to the parent's interval.
fn self_time_of_each(spans: &[Span]) -> Vec<u64> {
    let index_of: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(&p) = index_of.get(&span.parent) {
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

/// Self time summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_time_of_each(spans)) {
        *out.entry(span.name).or_default() += self_ns;
    }
    out
}

/// Σ self time of every non-root span: the time the layer spans account for.
/// `trace.coverage` holds it against what the same operations take *untraced*,
/// through the user's entry point — so a traced path that skips or repeats
/// work the plain one does shows as coverage away from 1.
pub fn layer_self_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .zip(self_time_of_each(spans))
        .filter(|(span, _)| span.parent != 0)
        .map(|(_, self_ns)| self_ns)
        .sum()
}

/// The trace file: one array row per span, in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::UInt(u64::from(s.op)),
                Json::UInt(u64::from(s.id)),
                Json::UInt(u64::from(s.parent)),
                Json::str(s.name),
                Json::UInt(s.start_ns),
                Json::UInt(s.end_ns),
            ])
        })
        .collect();
    Json::obj([
        (
            "columns",
            Json::Arr(["op", "id", "parent", "name", "start_ns", "end_ns"].map(Json::str).to_vec()),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { op: 1, id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        // op [0,100] ⊃ execute [10,90] ⊃ { step12 [10,50], step3 [50,80] }, parse [0,10].
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "parse", 0, 10),
            span(3, 1, "execute", 10, 90),
            span(4, 3, "step12", 10, 50),
            span(5, 3, "step3", 50, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["op"], 10);
        assert_eq!(selfs["parse"], 10);
        assert_eq!(selfs["execute"], 10);
        assert_eq!(selfs["step12"], 40);
        assert_eq!(selfs["step3"], 30);
        assert_eq!(selfs.values().sum::<u64>(), 100, "self times partition the operation");
        assert_eq!(layer_self_ns(&spans), 90);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span(1, 0, "op", 0, 100), span(2, 1, "late", 90, 130)];
        assert_eq!(self_times(&spans)["op"], 90);
    }

    #[test]
    fn the_tracer_nests_spans_and_numbers_operations() {
        let mut tracer = Tracer::new(true);
        tracer.enter("op");
        tracer.span("parse", || ());
        tracer.enter("execute");
        tracer.reported(&[("step12", 40), ("step3", 30)]);
        tracer.exit();
        tracer.exit();
        tracer.span("op", || ());
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("op", 1, 0),
                ("parse", 1, 1),
                ("execute", 1, 1),
                ("step12", 1, 3),
                ("step3", 1, 3),
                ("op", 2, 0)
            ]
        );
        assert_eq!(spans[4].start_ns, spans[3].end_ns, "reported children are laid end to end");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("op", || 7), 7);
        tracer.reported(&[("step12", 40)]);
        assert!(tracer.spans().is_empty());
    }
}
