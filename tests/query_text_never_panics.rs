//! Query text never panics the engine: arbitrary strings, multi-byte characters
//! included, and mutated texts of the benchmark queries Q1–Q12 and the REACH /
//! RECUR closure workloads go through parse → `compile` → `audit` → `analyze`,
//! and every text that compiles also passes the audit and runs on the Figure 1
//! graph in all three answer modes, its cursor drained.  Each call must return
//! `Ok` or `Err`.  Mutations also splice in nested groups, up to twice the
//! nesting bound [`MAX_GROUP_DEPTH`], and runs of union groups, up to past the
//! plan bound [`MAX_PLANS`]; text at the nesting bound runs through every stage
//! on a thread with a 2 MiB stack.  Texts past the audit's bounds and the plan
//! bound are compile errors in every build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use engine::plan::audit::{MAX_CLOSURE_DEPTH, MAX_PLANS, MAX_STATIC_HOPS};
use engine::{
    analyze, audit, compile, execute_answers, AnswerMode, ExecutionOptions, GraphRelations, Query,
    SchemaSummary,
};
use trpq::error::QueryError;
use trpq::parser::MAX_GROUP_DEPTH;
use trpq::queries::QueryId;

const REACH: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";
const RECUR: &str = "MATCH (x:Person {risk = 'high'})\
                     -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) ON contact_tracing";

/// Characters the generated texts are drawn from: the language's own
/// punctuation, ASCII it does not use, and multi-byte characters of two, three
/// and four bytes (a no-break space and a combining accent among them).
const ALPHABET: &[char] = &[
    'a', 'x', 'y', 'P', 'N', 'E', 'X', 'T', '0', '1', '9', ' ', '\t', '\n', '(', ')', '[', ']',
    '{', '}', ':', ',', '=', '<', '>', '-', '/', '+', '*', '_', '\'', '@', '"', '.', '\\', 'é',
    'à', 'ß', 'Å', '\u{a0}', '\u{85}', '\u{301}', '中', '€', '😀',
];

/// Pieces of query syntax a mutation splices in.
const FRAGMENTS: &[&str] = &[
    "NEXT",
    "PREV",
    "FWD",
    "BWD",
    "*",
    "+",
    "[0,_]",
    "[1,2]",
    "[3,1]",
    "[0,18446744073709551615]",
    "/",
    ":meets",
    ":visits",
    "(",
    ")",
    "{risk = 'high'}",
    "{time < '3'}",
    "'",
    "é",
    "😀",
    " AND ",
    " OR ",
    "ON g",
    "MATCH ",
    "-/",
    "/-",
    "-[z:meets]->",
    "<-[:visits]-",
    "(y)",
];

fn seeds() -> Vec<&'static str> {
    QueryId::ALL.iter().map(|id| id.text()).chain([REACH, RECUR]).collect()
}

/// Runs `text` through every stage that accepts it, on `graph`.
fn exercise(text: &str, graph: &GraphRelations, schema: &SchemaSummary) {
    let Ok(clause) = trpq::parser::parse_match(text) else { return };
    let Ok(plan_set) = compile(&clause) else { return };
    assert!(audit(&plan_set).is_ok(), "{text} compiles to a plan set the audit refuses");
    let _ = analyze(&plan_set, schema);
    for mode in [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate] {
        let options = ExecutionOptions::default().with_mode(mode).with_telemetry(false);
        if let Some(cursor) = execute_answers(&plan_set, graph, &options).into_cursor() {
            cursor.for_each(drop);
        }
    }
}

/// Fails with the text if running it panics.
fn never_panics(text: &str, graph: &GraphRelations) -> Result<(), TestCaseError> {
    let schema = SchemaSummary::of(graph);
    let outcome = catch_unwind(AssertUnwindSafe(|| exercise(text, graph, &schema)));
    prop_assert!(outcome.is_ok(), "query text {:?} panicked", text);
    Ok(())
}

/// One edit of a text: `(kind, position, length, pick)`.
type Edit = (u8, usize, usize, usize);

/// Applies `edits` to `text` character by character, so no edit splits a
/// multi-byte character.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, position, length, pick) in edits {
        let at = position % (chars.len() + 1);
        let end = (at + length).min(chars.len());
        match kind {
            0 => {
                let fragment = FRAGMENTS[pick % FRAGMENTS.len()];
                chars.splice(at..at, fragment.chars());
            }
            1 => {
                chars.drain(at..end);
            }
            2 if at < chars.len() => chars[at] = ALPHABET[pick % ALPHABET.len()],
            // Nested groups around `at..end`, past the bound now and then.
            4 => {
                let depth = pick % (2 * MAX_GROUP_DEPTH);
                chars.splice(end..end, std::iter::repeat_n(')', depth));
                chars.splice(at..at, std::iter::repeat_n('(', depth));
            }
            // A run of union groups, whose plans multiply past the bound now
            // and then.
            5 => {
                let groups = "(FWD+BWD)/".repeat(pick % (2 * MAX_PLANS.ilog2() as usize));
                chars.splice(at..at, groups.chars());
            }
            _ => {
                let copy: Vec<char> = chars[at..end].to_vec();
                chars.splice(end..end, copy);
            }
        }
    }
    chars.into_iter().collect()
}

fn figure1() -> GraphRelations {
    GraphRelations::from_itpg(&workload::figure1())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..48),
        prefix in any::<bool>(),
    ) {
        let body: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
        let text = if prefix { format!("MATCH {body}") } else { body };
        never_panics(&text, &figure1())?;
    }

    #[test]
    fn mutated_benchmark_queries_never_panic(
        seed in 0..14usize,
        edits in prop::collection::vec((0..6u8, any::<usize>(), 0..6usize, any::<usize>()), 1..4),
    ) {
        let text = mutate(seeds()[seed], &edits);
        never_panics(&text, &figure1())?;
    }
}

#[test]
fn the_seed_texts_run_in_every_mode() {
    let graph = figure1();
    for text in seeds() {
        assert!(Query::parse(text).is_ok(), "{text}");
        never_panics(text, &graph).unwrap();
    }
}

/// `text` with its path expression wrapped in `depth` groups, shaped by
/// `wrap`, which gets the text inside one level and the level, counted from
/// the inside; `None` for a text without a path expression.
fn nest(text: &str, depth: usize, wrap: fn(&str, usize) -> String) -> Option<String> {
    let (head, rest) = text.split_once("-/")?;
    let (regex, tail) = rest.rsplit_once("/-")?;
    let nested = (0..depth).fold(regex.to_owned(), |inner, level| wrap(&inner, level));
    Some(format!("{head}-/{nested}/-{tail}"))
}

/// The deepest group nesting in `text`'s path expression.
fn group_depth(text: &str) -> usize {
    let regex = text.split_once("-/").and_then(|(_, rest)| rest.rsplit_once("/-"));
    let (mut depth, mut deepest) = (0usize, 0);
    for c in regex.map_or("", |(regex, _)| regex).chars() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
        deepest = deepest.max(depth);
    }
    deepest
}

/// Runs `check` on a thread with a 2 MiB stack, the default of a spawned
/// thread such as a server worker.
fn on_a_small_stack(check: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(check).unwrap();
    thread.join().expect("the check returned");
}

#[test]
fn nesting_at_the_bound_runs_through_every_stage() {
    on_a_small_stack(|| {
        let graph = figure1();
        let schema = SchemaSummary::of(&graph);
        // Plain groups; a tower of repetitions as tall as the plan audit
        // accepts over a seed's own repetition, in plain groups; groups of a
        // union.
        let shapes: [fn(&str, usize) -> String; 3] = [
            |inner, _| format!("({inner})"),
            |inner, level| match level + 1 < MAX_CLOSURE_DEPTH {
                true => format!("({inner})*"),
                false => format!("({inner})"),
            },
            |inner, _| format!("({inner}/NEXT + BWD)"),
        ];
        for (seed, wrap) in seeds().into_iter().flat_map(|seed| shapes.map(|wrap| (seed, wrap))) {
            let levels = MAX_GROUP_DEPTH - group_depth(seed);
            let Some(text) = nest(seed, levels, wrap) else { continue };
            assert_eq!(group_depth(&text), MAX_GROUP_DEPTH);
            let plan_set = compile(&trpq::parser::parse_match(&text).unwrap()).unwrap();
            assert!(audit(&plan_set).is_ok(), "{text}");
            exercise(&text, &graph, &schema);
            let deeper = nest(seed, levels + 1, wrap).unwrap();
            let err = trpq::parser::parse_match(&deeper).unwrap_err();
            assert!(matches!(err, QueryError::Parse { .. }), "{err:?}");
        }
    });
}

/// `count` copies of `item` joined by `/`, as the path of an ad-hoc query.
fn path_of(item: &str, count: usize) -> String {
    format!("MATCH (x:Person)-/{}/-(y) ON g", vec![item; count].join("/"))
}

/// Texts that parse but whose plans pass a bound: a repetition tower one
/// deeper than the audit accepts, one hop more than it accepts, and unions
/// that multiply past the plan bound.
fn past_the_plan_bounds() -> [String; 3] {
    let tower = MAX_CLOSURE_DEPTH + 1;
    [
        format!("MATCH (x)-/{}FWD{}/-(y) ON g", "(".repeat(tower), ")*".repeat(tower)),
        path_of("FWD", MAX_STATIC_HOPS + 44),
        path_of("(FWD+BWD)", 40),
    ]
}

#[test]
fn texts_past_the_plan_bounds_are_compile_errors() {
    let graph = figure1();
    for text in past_the_plan_bounds() {
        let clause = trpq::parser::parse_match(&text).expect("the text parses");
        let err = compile(&clause).unwrap_err();
        assert!(matches!(err, QueryError::UnsupportedFragment { .. }), "{err:?}");
        never_panics(&text, &graph).unwrap();
    }
    // At the bounds they compile, and the plans pass the audit.
    let tower = MAX_CLOSURE_DEPTH;
    let at_the_bounds = [
        format!("MATCH (x)-/{}FWD{}/-(y) ON g", "(".repeat(tower), ")*".repeat(tower)),
        path_of("FWD", MAX_STATIC_HOPS),
        path_of("(FWD+BWD)", MAX_PLANS.ilog2() as usize),
    ];
    for text in at_the_bounds {
        let plan_set = compile(&trpq::parser::parse_match(&text).unwrap()).unwrap();
        assert!(audit(&plan_set).is_ok(), "{text}");
    }
}

#[test]
fn nesting_far_past_the_bound_is_a_parse_error() {
    on_a_small_stack(|| {
        for text in seeds() {
            let Some(deep) = nest(text, 10_000, |inner, _| format!("({inner})")) else { continue };
            assert!(matches!(Query::parse(&deep), Err(QueryError::Parse { .. })));
        }
    });
}

#[test]
fn non_ascii_outside_literals_is_a_parse_error() {
    for text in ["MATCH (x:Personé) ON g", "MATCH (x:Person) ON gà", "MATCH (x:Person) ON g😀"]
    {
        match Query::parse(text) {
            Err(QueryError::Parse { .. }) => {}
            other => panic!("{text}: expected a parse error, got {other:?}"),
        }
    }
    let answers = Query::parse("MATCH (x:Person {name = 'Zoë'}) ON g").unwrap().run(&figure1());
    assert_eq!(answers.stats().output_rows, 0);
}
