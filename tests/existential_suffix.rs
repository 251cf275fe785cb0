//! Pins the executor's existential-suffix path to the forward one.  A plan with
//! something after its last bound variable matches forward only up to that `Bind`
//! and walks the rest back exactly, as per-row time sets
//! (`engine::steps::viability`); binding the last node instead makes Steps 1–2
//! match the very same path forward.  So on random ITPGs, `MATCH (x:Person)-/P/-(…)`
//! must answer exactly the `x`-projection of `MATCH (x:Person)-/P/-(y …)` — compared
//! point by point, since a purely structural plan answers with one interval row per
//! maximal piece rather than one per path — in all three answer modes, on 1, 2 and 8
//! threads, before and after a delta that tombstones every node row.
//!
//! `P` ranges over the mixed structural/temporal bodies of
//! `tests/closure_reference.rs` under `*`, `[1,_]` and `[n,m]` windows with `n > 0`,
//! structural bodies and repetitions, bounded and open `NEXT`/`PREV`, and
//! concatenations of them; the last node is selective, unselective or bare.  The
//! last bound variable is `x`, or a `w` that a structural closure leads to from `x`
//! — a prefix the forward pass runs unmasked — and then the suffix form must answer
//! the `(x, w)`-projection of its bound form.

use std::collections::BTreeSet;

use proptest::prelude::*;

use engine::{AnswerMode, Binding, ExecutionOptions, GraphRelations, Query, TimeRef};
use tgraph::{Batch, Interval, IntervalSet, Itpg, ItpgBuilder, Object, Time};

const MAX_TIME: Time = 9;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=4u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

/// One stay, or two with an existence gap of at least one time point between them.
fn existence_strategy() -> impl Strategy<Value = Vec<Interval>> {
    (0..=3u64, 0..=4u64, any::<bool>(), 2..=3u64, 0..=4u64).prop_map(
        |(start, len, twice, gap, second_len)| {
            let first = Interval::of(start, start + len);
            let second = first.end() + gap;
            let mut stays = vec![first];
            if twice && second <= MAX_TIME {
                stays.push(Interval::of(second, (second + second_len).min(MAX_TIME)));
            }
            stays
        },
    )
}

/// A random contact graph: per person its stays and, maybe, a window in which it
/// tests positive; `meets` / `visits` edges clamped to their endpoints' joint
/// lifetime.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<(Vec<Interval>, Option<Interval>)>,
    edges: Vec<(usize, usize, Interval, bool)>,
}

fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    let positive =
        (any::<bool>(), interval_strategy()).prop_map(|(pos, window)| pos.then_some(window));
    let nodes = prop::collection::vec((existence_strategy(), positive), 2..6);
    let edges =
        prop::collection::vec((0..5usize, 0..5usize, interval_strategy(), any::<bool>()), 0..12);
    (nodes, edges).prop_map(|(nodes, edges)| GraphSpec { nodes, edges })
}

fn build_graph(spec: &GraphSpec) -> Itpg {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let mut node_ids = Vec::new();
    for (i, (stays, positive)) in spec.nodes.iter().enumerate() {
        let id = b.add_node(&format!("n{i}"), "Person").unwrap();
        let existence = IntervalSet::from_intervals(stays.iter().copied());
        for iv in existence.intervals() {
            b.add_existence(id, *iv).unwrap();
        }
        if let Some(window) = positive {
            for iv in existence.clamp(window).intervals() {
                b.set_property(id, "test", "pos", *iv).unwrap();
            }
        }
        node_ids.push((id, existence));
    }
    for (k, (src, tgt, desired, meets)) in spec.edges.iter().enumerate() {
        let (src_id, src_exist) = &node_ids[src % node_ids.len()];
        let (tgt_id, tgt_exist) = &node_ids[tgt % node_ids.len()];
        let clamped = src_exist.intersection(tgt_exist).clamp(desired);
        if clamped.is_empty() {
            continue;
        }
        let label = if *meets { "meets" } else { "visits" };
        let id = b.add_edge(&format!("e{k}"), label, *src_id, *tgt_id).unwrap();
        for iv in clamped.intervals() {
            b.add_existence(id, *iv).unwrap();
        }
    }
    b.build().expect("generated graphs are well formed by construction")
}

/// The mixed bodies of `tests/closure_reference.rs`.
const MIXED: [&str; 8] = [
    "FWD/:meets/FWD/NEXT",
    "FWD/:meets/FWD/PREV",
    "BWD/:meets/BWD/PREV",
    "NEXT/FWD/:meets/FWD",
    "FWD/:meets/FWD/NEXT[0,2]",
    "FWD/:meets/FWD/NEXT*",
    "FWD/:meets/FWD/NEXT + BWD/:meets/BWD/PREV",
    "FWD/:meets/FWD/NEXT + PREV",
];
const WINDOWS: [&str; 6] = ["*", "[1,_]", "[1,2]", "[2,3]", "[2,2]", "[0,2]"];
const STRUCTURAL: [&str; 6] = [
    "FWD/:meets/FWD",
    "BWD/:meets/BWD",
    "(FWD/:meets/FWD)*",
    "(FWD/:meets/FWD)[2,3]",
    "(FWD/:meets/FWD + BWD/:visits/BWD)[1,2]",
    "FWD/:meets/FWD/FWD/:visits/FWD",
];
const TEMPORAL: [&str; 7] =
    ["NEXT", "PREV", "NEXT[0,2]", "PREV[1,3]", "NEXT*", "PREV*", "NEXT[2,4]"];
/// The last node: selective, unselective, or bare.
const ENDS: [&str; 3] = ["{test = 'pos'}", ":Person", ""];
/// What leads from `x` to the last bound variable: nothing, or a structural closure
/// to `w`.
const PREFIXES: [&str; 2] = ["", "-/(FWD/:meets/FWD)[0,2]/-(w:Person)"];

fn pick(choices: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..choices.len()).prop_map(move |index| choices[index])
}

/// A path expression `P` between `x` and the last node.
fn path_strategy() -> impl Strategy<Value = String> {
    let mixed =
        (pick(&MIXED), pick(&WINDOWS)).prop_map(|(body, window)| format!("({body}){window}"));
    let parts = prop_oneof![
        mixed,
        pick(&STRUCTURAL).prop_map(str::to_owned),
        pick(&TEMPORAL).prop_map(str::to_owned)
    ];
    prop_oneof![
        parts.clone(),
        (parts.clone(), parts).prop_map(|(first, second)| format!("{first}/{second}")),
    ]
}

/// Every point a query answers on its first `width` variables, whatever the answer
/// mode: their objects with a time of the last of them — rows point by point,
/// compact pairs, keyed by the first and the last variable, by their interval sets.
fn points(
    query: &Query,
    graph: &GraphRelations,
    mode: AnswerMode,
    width: usize,
) -> BTreeSet<(Vec<Object>, Time)> {
    let mut points = BTreeSet::new();
    let mut add = |bindings: &[Binding]| {
        let objects: Vec<Object> = bindings[..width].iter().map(|b| b.object).collect();
        match bindings[width - 1].time {
            TimeRef::Point(t) => {
                points.insert((objects, t));
            }
            TimeRef::Interval(iv) => points.extend(iv.points().map(|t| (objects.clone(), t))),
        }
    };
    let mut answers = query.clone().with_mode(mode).run(graph);
    match mode {
        AnswerMode::Materialized => {
            answers.table().expect("a table").iter().for_each(|row| add(row))
        }
        AnswerMode::Enumerate => answers.cursor_mut().expect("a cursor").for_each(|row| add(&row)),
        AnswerMode::Compact => {
            for (&(x, last), times) in answers.compact().expect("compact answers").iter() {
                let objects = if width == 1 { vec![x] } else { vec![x, last] };
                for iv in times.intervals() {
                    points.extend(iv.points().map(|t| (objects.clone(), t)));
                }
            }
        }
    }
    points
}

/// `MATCH (x:Person)prefix-/path/-(end)` against the projection of its bound form
/// onto the variables it binds.
fn check(graph: &GraphRelations, prefix: &str, path: &str, end: &str) -> Result<(), TestCaseError> {
    let suffix = format!("MATCH (x:Person){prefix}-/{path}/-({end}) ON g");
    let forward = format!(
        "MATCH (x:Person){prefix}-/{path}/-(y{}{end}) ON g",
        if end.is_empty() { "" } else { " " }
    );
    let width = if prefix.is_empty() { 1 } else { 2 };
    let bound = Query::parse(&forward).expect("the bound form compiles");
    let expected = points(
        &bound.with_options(ExecutionOptions::sequential()),
        graph,
        AnswerMode::Materialized,
        width,
    );
    let written = Query::parse(&suffix).expect("the suffix form compiles");
    for threads in [1, 2, 8] {
        let query = written.clone().with_options(ExecutionOptions::with_threads(threads));
        for mode in [AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact] {
            let actual = points(&query, graph, mode, width);
            prop_assert_eq!(&actual, &expected, "{} in {:?} on {} threads", suffix, mode, threads);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_existential_suffix_answers_the_projection_of_the_forward_match(
        spec in graph_spec_strategy(),
        prefix in pick(&PREFIXES),
        path in path_strategy(),
        end in pick(&ENDS),
    ) {
        let mut itpg = build_graph(&spec);
        let mut graph = GraphRelations::from_itpg(&itpg);
        check(&graph, prefix, &path, end)?;
        // Every person's rows die in place and come back appended; the tombstoned
        // ones still read as positive through the row slice.
        let mut batch = Batch::new(1);
        for node in itpg.node_ids().map(Object::Node) {
            for iv in itpg.existence(node).intervals() {
                batch.set_property(itpg.name(node), "name", "renamed", *iv);
            }
        }
        let applied = itpg.apply_batch(&batch).expect("renaming is a valid batch");
        graph.apply_delta(&itpg, &applied.touched);
        check(&graph, prefix, &path, end)?;
    }
}
