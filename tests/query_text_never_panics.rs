//! Query text never panics the engine: arbitrary strings, multi-byte characters
//! included, and mutated texts of the benchmark queries Q1–Q12 and the REACH /
//! RECUR closure workloads go through parse → `compile` → `audit` → `analyze`,
//! and every text that compiles also runs on the Figure 1 graph in all three
//! answer modes, its cursor drained.  Each call must return `Ok` or `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use engine::{
    analyze, audit, compile, execute_answers, AnswerMode, ExecutionOptions, GraphRelations, Query,
    SchemaSummary,
};
use trpq::error::QueryError;
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
    let _ = audit(&plan_set);
    let _ = analyze(&plan_set, schema);
    for mode in [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate] {
        let options = ExecutionOptions::sequential().with_mode(mode).with_telemetry(false);
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
        edits in prop::collection::vec((0..4u8, any::<usize>(), 0..6usize, any::<usize>()), 1..4),
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
