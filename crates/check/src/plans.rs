//! The `--plans` mode: compile every built-in benchmark query, whose plans the
//! engine's constructors audit ([`engine::plan::audit`]), so a compiler
//! regression that produces a malformed `EnginePlan` fails CI before any
//! benchmark executes it, and report each plan's hop depth and closure nesting.

use engine::plan::audit::{closure_depth, hop_depth};
use trpq::queries::QueryId;

/// Compiles and reports Q1–Q12.  Returns true on success.
pub fn run() -> bool {
    let table = match engine::queries::compile_query_table() {
        Ok(table) => table,
        Err(error) => {
            eprintln!("plan-audit: a built-in plan is malformed: {error}");
            return false;
        }
    };
    for (id, plan_set) in QueryId::ALL.iter().zip(&table) {
        let hops: Vec<String> = plan_set
            .plans()
            .iter()
            .map(|plan| hop_depth(plan).map_or_else(|| "closure".to_owned(), |h| h.to_string()))
            .collect();
        println!(
            "plan-audit: {id:?} ok — {} alternative(s), hop depth [{}], closure nesting {}",
            plan_set.plans().len(),
            hops.join(", "),
            plan_set.plans().iter().map(closure_depth).max().unwrap_or(0),
        );
    }
    println!("plan-audit: all {} built-in plans pass", QueryId::ALL.len());
    true
}
