//! The `--semantic` mode: run the engine's semantic plan analyzer
//! ([`engine::plan::analyze`]) over every built-in benchmark plan — Q1–Q12
//! plus the REACH/RECUR closure workloads — against the paper's Figure 1
//! example graph, whose schema exercises every label and property the
//! benchmark queries mention.
//!
//! Where `--plans` proves the plans are structurally well-formed, this mode
//! proves they are not semantically vacuous: no statically-empty plan, no dead
//! closure alternative, no infeasible temporal band.  Unbounded closures
//! (REACH's structural star) are reported as notes, not failures — structural
//! reachability is legitimately unbounded.
//!
//! Every diagnostic kind is self-tested against a seeded broken plan by
//! [`self_test`], wired into `--self-test`, so a regression that blinds the
//! analyzer fails CI the same way a blinded lint does.

use std::sync::OnceLock;

use engine::{analyze, Analysis, DiagnosticKind, GraphRelations, PlanSet, SchemaSummary, Severity};
use trpq::queries::QueryId;

/// The Figure 1 relations both modes analyze against: loaded once per process,
/// and — the summary being memoised in the relations — scanned once.
fn figure1() -> &'static GraphRelations {
    static FIGURE1: OnceLock<GraphRelations> = OnceLock::new();
    FIGURE1.get_or_init(|| GraphRelations::from_itpg(&workload::figure1()))
}

/// Analyzes Q1–Q12 + REACH + RECUR against the Figure 1 schema.  Returns true
/// when no plan has an error-severity diagnostic.
pub fn run() -> bool {
    let schema = SchemaSummary::of(figure1());
    // What every verdict below was reached against, for the CI report.
    for line in schema.to_string().lines() {
        println!("semantic: {line}");
    }
    let mut failed = false;
    for &id in QueryId::ALL.iter() {
        let plan_set = engine::queries::plan_for(id);
        failed |= !report(&format!("{id:?}"), &analyze(&plan_set, &schema));
    }
    for (name, text) in [
        (bench::REACH_QUERY_NAME, bench::REACH_QUERY_TEXT),
        (bench::RECUR_QUERY_NAME, bench::RECUR_QUERY_TEXT),
    ] {
        match compile_text(text) {
            Ok(plan_set) => failed |= !report(name, &analyze(&plan_set, &schema)),
            Err(error) => {
                eprintln!("semantic: {name} FAILED to compile: {error}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("semantic: at least one built-in plan is semantically broken");
    } else {
        println!("semantic: all {} built-in plans are satisfiable", QueryId::ALL.len() + 2);
    }
    !failed
}

fn compile_text(text: &str) -> trpq::Result<PlanSet> {
    engine::compile(&trpq::parse_match(text)?)
}

/// Prints one query's analysis with plan-path provenance.  Returns true when
/// the analysis carries no error.
fn report(name: &str, analysis: &Analysis) -> bool {
    for diagnostic in &analysis.diagnostics {
        match diagnostic.severity() {
            Severity::Error => eprintln!("semantic: {name} FAILED: {diagnostic}"),
            Severity::Note => println!("semantic: {name} note: {diagnostic}"),
        }
    }
    if analysis.has_errors() {
        return false;
    }
    let hops: Vec<String> = analysis
        .bounds
        .iter()
        .map(|b| b.max_hops.map_or_else(|| "unbounded".to_owned(), |h| h.to_string()))
        .collect();
    println!(
        "semantic: {name} ok — {} plan(s), max hops [{}], {} alternative(s) pruned, \
         {} closure window(s) tightened",
        analysis.bounds.len(),
        hops.join(", "),
        analysis.pruned_alternatives,
        analysis.tightened_closures,
    );
    true
}

/// One seeded broken-plan fixture per diagnostic kind.  Each query is
/// audit-clean (structurally fine) but semantically broken against the
/// Figure 1 schema in exactly one way; the self-test fails if the analyzer no
/// longer reports the expected kind.
const FIXTURES: &[(&str, DiagnosticKind)] = &[
    // No `Robot` node exists in the schema: label-alphabet reachability must
    // prove the plan empty.
    ("MATCH (x:Robot)-[e:meets]->(y) ON g", DiagnosticKind::EmptyPlan),
    // `warps` edges do not exist, so the second closure alternative can never
    // fire from any reachable state.
    (
        "MATCH (x:Person)-/(FWD/:meets/FWD + FWD/:warps/FWD)*/-(y:Person) ON g",
        DiagnosticKind::DeadAlternative,
    ),
    // Figure 1's domain is 10 steps wide: a 50-step shift cannot land.
    ("MATCH (x:Person)-/NEXT[50,60]/-(y) ON g", DiagnosticKind::InfeasibleBand),
    // A purely structural star has no static iteration bound (reported as a
    // note, but the self-test still requires the analyzer to say so).
    ("MATCH (x:Person)-/(FWD/:meets/FWD)*/-(y:Person) ON g", DiagnosticKind::UnboundedClosure),
];

/// Proves every diagnostic kind still fires on its seeded fixture.  Returns
/// true on success.
pub fn self_test() -> bool {
    let schema = SchemaSummary::of(figure1());
    let mut ok = true;
    for &(text, expected) in FIXTURES {
        let analysis = match compile_text(text) {
            Ok(plan_set) => analyze(&plan_set, &schema),
            Err(error) => {
                eprintln!(
                    "self-test: semantic [{}]: fixture failed to compile: {error}",
                    expected.tag()
                );
                ok = false;
                continue;
            }
        };
        match analysis.diagnostics.iter().find(|d| d.kind == expected) {
            Some(diagnostic) => {
                println!("self-test: semantic [{}]: caught — {diagnostic}", expected.tag());
            }
            None => {
                eprintln!(
                    "self-test: semantic [{}]: FAILED — the seeded broken plan `{text}` \
                     was not diagnosed (got {:?})",
                    expected.tag(),
                    analysis.diagnostics,
                );
                ok = false;
            }
        }
    }
    ok
}
