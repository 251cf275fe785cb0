//! Property tests pinning the semantic optimizer's defining invariant:
//! **optimized ≡ unoptimized**.  The pass (`engine::plan::analyze`) may drop
//! statically-empty plans, prune dead closure alternatives, and tighten
//! closure `[n, m]` windows — but on the graph its schema summary came from,
//! the rewritten plan set must produce byte-identical answers in every answer
//! mode (materialised table, enumeration cursor, compact intervals), for all
//! benchmark queries Q1–Q12 plus the REACH / RECUR closure workloads, on
//! randomly generated ITPGs — bulk-loaded, and mutated batch by batch through
//! a `LiveGraph`, where the summary the optimizer reads is re-scanned once per
//! relations version.
//!
//! Alongside the equivalence, the analyzer's cardinality claim is pinned: the
//! `PlanBounds::max_rows` upper bound must dominate the actual Step-1/2
//! interval row count.  And on the same graphs and queries, Steps 1–2 are pinned
//! to be oblivious to how their seed rows are batched: every batch records into
//! a trail of its own, and the chains built from it must not show where the
//! batch boundaries fell — nor whether the later batches ran under backward
//! viability masks, which a mid-size generated graph pins for Q1–Q12 with their
//! last node bound together with *which* of them the executor's gate decides to
//! mask; a smaller one pins that the fixpoint plans, RECUR (its last node bound)
//! and REACH, pass no gate and run unmasked.  As written, Q9–Q12 and RECUR end
//! existentially after `x`: on both graphs they walk that suffix back exactly once
//! per call, and answer what their bound forms answer, projected onto `x`.

use std::collections::BTreeSet;

use proptest::prelude::*;

use engine::{
    analyze, run_plan_seeded, AnswerMode, Binding, DiagnosticKind, EnginePlan, ExecutionOptions,
    GraphRelations, Query, SchemaSummary, StepStats,
};
use live::LiveGraph;
use tgraph::{Batch, Interval, IntervalSet, Itpg, ItpgBuilder, Object, Time};
use trpq::queries::QueryId;

const MAX_TIME: Time = 7;

/// The closure workloads of the perf harness (`bench::REACH_QUERY_TEXT` /
/// `RECUR_QUERY_TEXT`): REACH exercises the unbounded structural star the
/// optimizer must leave alone, RECUR the time-advancing closure whose window
/// it tightens to the domain span.
const REACH: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";
const RECUR: &str = "MATCH (x:Person {risk = 'high'})\
                     -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON contact_tracing";

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=3u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

/// A compact description of a random temporal graph: per node its existence
/// intervals, a high-risk flag, and a positive-test flag; per edge the
/// endpoints, a desired interval, and the label choice.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<(Vec<Interval>, bool, bool)>,
    edges: Vec<(usize, usize, Interval, u8)>,
}

fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    let nodes = prop::collection::vec(
        (prop::collection::vec(interval_strategy(), 1..3), any::<bool>(), any::<bool>()),
        2..5,
    );
    let edges = prop::collection::vec((0..4usize, 0..4usize, interval_strategy(), 0..2u8), 0..6);
    (nodes, edges).prop_map(|(nodes, edges)| GraphSpec { nodes, edges })
}

fn build_graph(spec: &GraphSpec) -> Itpg {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let mut node_ids = Vec::new();
    for (i, (intervals, high, positive)) in spec.nodes.iter().enumerate() {
        let label = if i % 3 == 2 { "Room" } else { "Person" };
        let id = b.add_node(&format!("n{i}"), label).unwrap();
        let mut existence = IntervalSet::empty();
        for iv in intervals {
            b.add_existence(id, *iv).unwrap();
            existence.insert(*iv);
        }
        let risk = if *high { "high" } else { "low" };
        for iv in existence.intervals() {
            b.set_property(id, "risk", risk, *iv).unwrap();
            if *positive {
                b.set_property(id, "test", "pos", *iv).unwrap();
            }
        }
        node_ids.push((id, existence));
    }
    let mut edge_count = 0usize;
    for (src, tgt, desired, label_choice) in &spec.edges {
        let (src_id, src_exist) = &node_ids[src % node_ids.len()];
        let (tgt_id, tgt_exist) = &node_ids[tgt % node_ids.len()];
        let joint = src_exist.intersection(tgt_exist);
        let clamped = joint.clamp(desired);
        if clamped.is_empty() {
            continue;
        }
        let label = if *label_choice == 0 { "meets" } else { "visits" };
        let id = b.add_edge(&format!("e{edge_count}"), label, *src_id, *tgt_id).unwrap();
        edge_count += 1;
        for iv in clamped.intervals() {
            b.add_existence(id, *iv).unwrap();
        }
    }
    b.build().expect("generated graphs are well formed by construction")
}

/// Runs one query with and without the optimizer pass in all three answer
/// modes and asserts the outputs are identical.
fn check_equivalence(query: &Query, graph: &GraphRelations, label: &str) {
    let modes = |optimize: bool| {
        let on = |mode: AnswerMode| {
            query.clone().with_options(query.options().with_optimize(optimize).with_mode(mode))
        };
        let table = on(AnswerMode::Materialized)
            .run(graph)
            .into_table()
            .expect("materialised mode returns a table");
        let mut answers = on(AnswerMode::Enumerate).run(graph);
        let streamed: Vec<Vec<Binding>> =
            answers.cursor_mut().expect("enumerate mode returns a cursor").collect();
        let compact_answers = on(AnswerMode::Compact).run(graph);
        let compact = compact_answers.compact().expect("compact mode returns intervals").clone();
        (table, streamed, compact)
    };
    let (table_opt, cursor_opt, compact_opt) = modes(true);
    let (table_raw, cursor_raw, compact_raw) = modes(false);
    assert_eq!(table_opt, table_raw, "{label}: materialised tables must agree");
    assert_eq!(cursor_opt, cursor_raw, "{label}: cursor streams must agree");
    assert_eq!(compact_opt, compact_raw, "{label}: compact answers must agree");
}

/// [`check_equivalence`] for Q1–Q12 + REACH + RECUR.
fn check_all_queries(graph: &GraphRelations, context: &str) {
    let options = ExecutionOptions::default();
    for id in QueryId::ALL {
        let query = Query::benchmark(id).with_options(options);
        check_equivalence(&query, graph, &format!("{} {context}", id.name()));
    }
    for (name, text) in [("REACH", REACH), ("RECUR", RECUR)] {
        let query = Query::parse(text).expect("closure workloads compile").with_options(options);
        check_equivalence(&query, graph, &format!("{name} {context}"));
    }
}

/// Three batches that change what the optimizer may prune, each valid on the
/// graph the previous one left: `growth`'s nodes as new objects, `growth`'s
/// edges between any two nodes old or new, and finally every person's `risk`
/// overwritten to `'low'` — which retracts `(risk, high)` from the schema, so
/// every plan filtering on it must turn statically empty only *now*.
fn growth_batch(step: usize, graph: &Itpg, growth: &GraphSpec) -> Batch {
    let mut batch = Batch::new(step as u64 + 1);
    match step {
        0 => {
            for (i, (intervals, high, _)) in growth.nodes.iter().enumerate() {
                let name = format!("g{i}");
                batch.add_node(name.as_str(), if i % 2 == 0 { "Person" } else { "Room" });
                for iv in IntervalSet::from_intervals(intervals.iter().copied()).intervals() {
                    batch.add_existence(name.as_str(), *iv);
                    batch.set_property(
                        name.as_str(),
                        "risk",
                        if *high { "high" } else { "low" },
                        *iv,
                    );
                }
            }
        }
        1 => {
            let nodes: Vec<_> = graph.node_ids().collect();
            for (k, (src, tgt, desired, label_choice)) in growth.edges.iter().enumerate() {
                let (src, tgt) = (nodes[src % nodes.len()], nodes[tgt % nodes.len()]);
                let joint = graph.existence(src.into()).intersection(graph.existence(tgt.into()));
                let clamped = joint.clamp(desired);
                if clamped.is_empty() {
                    continue;
                }
                let name = format!("f{k}");
                batch.add_edge(
                    name.as_str(),
                    if *label_choice == 0 { "meets" } else { "visits" },
                    graph.name(src.into()),
                    graph.name(tgt.into()),
                );
                for iv in clamped.intervals() {
                    batch.add_existence(name.as_str(), *iv);
                }
            }
        }
        _ => {
            for node in graph.node_ids().map(Object::Node) {
                if graph.label(node) == "Person" {
                    for iv in graph.existence(node).intervals() {
                        batch.set_property(graph.name(node), "risk", "low", *iv);
                    }
                }
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn optimized_equals_unoptimized_on_random_graphs(spec in graph_spec_strategy()) {
        check_all_queries(&GraphRelations::from_itpg(&build_graph(&spec)), "bulk-loaded");
    }

    #[test]
    fn optimized_equals_unoptimized_on_live_mutated_graphs(
        spec in graph_spec_strategy(),
        growth in graph_spec_strategy(),
    ) {
        // The growth batches are drawn from an oracle replaying what the live
        // graph takes.
        let mut oracle = build_graph(&spec);
        let mut live = LiveGraph::with_options(oracle.clone(), ExecutionOptions::default());
        // Fill the memo of the version each batch is about to replace.
        check_all_queries(live.relations(), "before any batch");
        for step in 0..3 {
            let batch = growth_batch(step, &oracle, &growth);
            if !batch.is_empty() {
                live.apply(&batch).expect("growth batches are valid by construction");
                oracle.apply_batch(&batch).expect("the oracle takes what the live graph took");
            }
            check_all_queries(live.relations(), &format!("after batch {step}"));
        }
    }

    #[test]
    fn cardinality_bounds_dominate_actual_rows(spec in graph_spec_strategy()) {
        let graph = GraphRelations::from_itpg(&build_graph(&spec));
        let schema = SchemaSummary::of(&graph);
        let options = ExecutionOptions::default().with_optimize(false);
        for id in QueryId::ALL {
            let plan_set = engine::queries::plan_for(id);
            let analysis = analyze(&plan_set, &schema);
            let budget: u128 = analysis
                .bounds
                .iter()
                .fold(0u128, |acc, b| acc.saturating_add(b.max_rows));
            let output = engine::execute(&plan_set, &graph, &options);
            prop_assert!(
                (output.stats.interval_rows as u128) <= budget,
                "{}: {} interval rows exceed the analyzer's bound {}",
                id.name(),
                output.stats.interval_rows,
                budget
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_seed_runs_return_the_same_chains_in_the_same_order(
        spec in graph_spec_strategy(),
        cuts in prop::collection::vec(0..64usize, 0..4),
    ) {
        let graph = GraphRelations::from_itpg(&build_graph(&spec));
        let seeds = graph.seed_rows();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (seeds.len() + 1)).collect();
        cuts.push(seeds.len());
        cuts.sort_unstable();
        let run = |plan: &EnginePlan, rows: &[u32]| {
            run_plan_seeded(plan, &graph, rows, &mut StepStats::default())
        };
        let closures = [REACH, RECUR].map(|text| Query::parse(text).expect("compiles"));
        let queries = QueryId::ALL.iter().map(|&id| Query::benchmark(id)).chain(closures);
        for (index, query) in queries.enumerate() {
            for plan in query.plan_set().plans() {
                let whole = run(plan, &seeds[..]);
                let mut pieces = Vec::new();
                let mut from = 0;
                for &cut in &cuts {
                    pieces.extend(run(plan, &seeds[from..cut]));
                    from = cut;
                }
                prop_assert_eq!(&whole, &pieces, "query #{} split at {:?}", index + 1, cuts);
            }
        }
    }
}

/// `(passes that built masks, gate outcomes of any kind)`.
fn viability_outcomes(stats: &StepStats) -> (usize, usize) {
    let masked = stats.viability_built;
    (masked, masked + stats.viability_skipped)
}

/// A query text with its anonymous last node `({test = 'pos'})` bound to `y`, so
/// Steps 1–2 match the whole path forward; other texts are returned as they are.
fn bound_last(text: &str) -> String {
    text.replace("({test = 'pos'})", "(y {test = 'pos'})")
}

/// The `x` bindings of a query's materialised answers.
fn x_bindings(query: Query, graph: &GraphRelations) -> BTreeSet<Binding> {
    let table = query.run(graph).into_table().expect("the default mode materialises");
    table.iter().map(|row| row[0]).collect()
}

/// A query that ends existentially after `x` — Q9–Q12 or RECUR as written — run
/// whole and slice by slice: one exact backward pass per call,
/// the same chains every way, and the answers of its bound form projected onto `x`.
fn check_suffix_runs(label: &str, text: &str, graph: &GraphRelations, slice_len: usize) {
    let written = Query::parse(text).expect("compiles");
    let seeds = graph.seed_rows();
    for plan in written.plan_set().plans() {
        let mut pieces = Vec::new();
        for slice in seeds.chunks(slice_len) {
            let mut stats = StepStats::default();
            pieces.extend(run_plan_seeded(plan, graph, slice, &mut stats));
            assert_eq!(viability_outcomes(&stats), (1, 1), "{label}: one pass per call");
        }
        assert!(!pieces.is_empty(), "{label}");
        assert!(pieces.iter().all(|chain| chain.intervals.len() == 1), "{label}");
        let mut stats = StepStats::default();
        let whole = run_plan_seeded(plan, graph, &seeds, &mut stats);
        assert_eq!(whole, pieces, "{label}");
        assert_eq!(viability_outcomes(&stats), (1, 1), "{label}");
        assert!(stats.viability_rows_visited > 0, "{label}");
    }
    let bound = Query::parse(&bound_last(text)).expect("the bound form compiles");
    assert_eq!(x_bindings(written, graph), x_bindings(bound, graph), "{label}");
}

/// The random graphs above have a handful of seed rows, so every run on them is
/// one batch and never samples: only a plan with an existential suffix, walked back
/// whatever the seeds, may meet a mask there.  This one — the paper's G3, 4 000 persons,
/// deterministic — has enough node rows for ten seed batches, so the waste of a
/// low-yield sample pays for its anchor's scan: run whole, each of Q1–Q12 with its
/// last node bound must return the chains of its seeds run slice by slice (a
/// slice is a single batch, which never samples and never masks), in the same
/// order; and the gate must have built
/// masks for exactly the queries whose sample batch wastes its traversals on a
/// filter at the far end of the plan: Q5 and Q9–Q12.  Q9–Q12 as written take the
/// exact suffix walk instead ([`check_suffix_runs`]).
#[test]
fn masked_runs_return_the_chains_of_their_unmasked_slices() {
    let config = workload::ScaleFactor::G3.paper_config().with_seed(20);
    let graph = GraphRelations::from_itpg(&workload::generate(&config));
    let seeds = graph.seed_rows();
    // Far below any batch length the executor could pick, and pinned below: a
    // slice that took the multi-batch path would record a gate outcome.
    let slice_len = 128;
    assert!(seeds.len() > 16 * slice_len, "{} seed rows", seeds.len());
    for id in QueryId::ALL {
        let query = Query::parse(&bound_last(id.text())).expect("the bound forms compile");
        if query.plan_set() != Query::benchmark(id).plan_set() {
            check_suffix_runs(id.name(), id.text(), &graph, slice_len);
        }
        for plan in query.plan_set().plans() {
            let mut pieces = Vec::new();
            let mut sliced = StepStats::default();
            for slice in seeds.chunks(slice_len) {
                pieces.extend(run_plan_seeded(plan, &graph, slice, &mut sliced));
            }
            assert_eq!(viability_outcomes(&sliced), (0, 0), "{}: slices never sample", id.name());
            let mut stats = StepStats::default();
            let whole = run_plan_seeded(plan, &graph, &seeds, &mut stats);
            assert_eq!(whole, pieces, "{}", id.name());
            let (masked, outcomes) = viability_outcomes(&stats);
            assert_eq!(outcomes, 1, "{}: one gate decision per run", id.name());
            let low_yield = matches!(
                id,
                QueryId::Q5 | QueryId::Q9 | QueryId::Q10 | QueryId::Q11 | QueryId::Q12
            );
            assert_eq!(masked == 1, low_yield, "{}", id.name());
            let traversals = stats.hop_cursors;
            let unmasked = sliced.hop_cursors;
            if low_yield {
                assert!(traversals < unmasked, "{}: {traversals} of {unmasked}", id.name());
                assert!(stats.viability_rows_visited > 0);
            } else {
                assert_eq!(traversals, unmasked, "{}", id.name());
            }
        }
    }
}

/// A plan with a fixpoint that binds its last node runs unmasked, whatever its
/// last filter keeps.  On the paper's G1 (1 000 persons, deterministic) RECUR's
/// `(y {test = 'pos'})` keeps few rows and REACH's `(y:Person)` nearly all: neither
/// records a gate outcome or visits a row, and each returns chains.  RECUR as
/// written ends after `x` and takes the exact suffix walk instead.
#[test]
fn fixpoint_plans_run_unmasked_whatever_their_anchor() {
    let config = workload::ScaleFactor::G1.paper_config().with_seed(20);
    let graph = GraphRelations::from_itpg(&workload::generate(&config));
    let seeds = graph.seed_rows();
    check_suffix_runs("RECUR", RECUR, &graph, 256);
    for text in [bound_last(RECUR), REACH.to_owned()] {
        let query = Query::parse(&text).expect("compiles");
        let plan = &query.plan_set().plans()[0];
        let mut stats = StepStats::default();
        let chains = run_plan_seeded(plan, &graph, &seeds, &mut stats);
        assert_eq!(viability_outcomes(&stats), (0, 0), "{text}");
        assert_eq!(stats.viability_rows_visited, 0, "{text}");
        assert!(!chains.is_empty(), "{text}");
    }
}

/// A tiny fixed graph whose schema is fully known, for exercising each
/// diagnostic kind through the public API.
fn diagnostic_graph() -> GraphRelations {
    let mut b = ItpgBuilder::new().domain(Interval::of(0, MAX_TIME));
    let all = Interval::of(0, MAX_TIME);
    let ann = b.add_node("ann", "Person").unwrap();
    let bob = b.add_node("bob", "Person").unwrap();
    let m = b.add_edge("m", "meets", ann, bob).unwrap();
    b.add_existence(ann, all).unwrap();
    b.add_existence(bob, all).unwrap();
    b.add_existence(m, all).unwrap();
    GraphRelations::from_itpg(&b.build().unwrap())
}

fn diagnose(text: &str) -> Vec<DiagnosticKind> {
    let clause = trpq::parse_match(text).unwrap();
    let plan_set = engine::compile(&clause).unwrap();
    let analysis = analyze(&plan_set, &SchemaSummary::of(&diagnostic_graph()));
    analysis.diagnostics.iter().map(|d| d.kind).collect()
}

#[test]
fn empty_plan_diagnostic_fires_on_unknown_labels() {
    assert!(diagnose("MATCH (x:Robot)-[e:meets]->(y) ON g").contains(&DiagnosticKind::EmptyPlan));
}

#[test]
fn dead_alternative_diagnostic_fires_on_unmatchable_branches() {
    let kinds = diagnose("MATCH (x:Person)-/(FWD/:meets/FWD + FWD/:warps/FWD)*/-(y:Person) ON g");
    assert!(kinds.contains(&DiagnosticKind::DeadAlternative), "{kinds:?}");
}

#[test]
fn infeasible_band_diagnostic_fires_on_overwide_shifts() {
    let kinds = diagnose("MATCH (x:Person)-/NEXT[50,60]/-(y) ON g");
    assert!(kinds.contains(&DiagnosticKind::InfeasibleBand), "{kinds:?}");
}

#[test]
fn unbounded_closure_note_fires_on_structural_stars() {
    let kinds = diagnose("MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g");
    assert!(kinds.contains(&DiagnosticKind::UnboundedClosure), "{kinds:?}");
}

#[test]
fn clean_queries_have_no_diagnostics_at_all() {
    assert!(diagnose("MATCH (x:Person)-[e:meets]->(y:Person) ON g").is_empty());
}
