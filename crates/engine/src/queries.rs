//! Pre-compiled plans for the paper's benchmark queries Q1–Q12, used by the
//! benchmark harness.
//!
//! The plans are compiled once into a static table the first time they are needed.
//! The whole table is exercised by `cargo test` (see `the_query_table_compiles`
//! below), so a query text that stops compiling fails the test suite instead of
//! panicking at first use inside a binary.

use std::sync::OnceLock;

use trpq::queries::QueryId;
use trpq::Result;

use crate::compiler::compile;
use crate::plan::PlanSet;

/// Compiles the full Q1–Q12 plan table, reporting the first query that fails with a
/// message naming it.  This is the fallible path behind [`plan_for`]; tests call it
/// directly so a broken built-in query is caught by `cargo test`.
pub fn compile_query_table() -> Result<Vec<PlanSet>> {
    QueryId::ALL
        .iter()
        .map(|&id| {
            compile(&id.clause()).map_err(|e| match e {
                trpq::QueryError::UnsupportedFragment { expression, reason } => {
                    trpq::QueryError::UnsupportedFragment {
                        expression,
                        reason: format!("{}: {reason}", id.name()),
                    }
                }
                other => other,
            })
        })
        .collect()
}

fn query_table() -> &'static [PlanSet] {
    static TABLE: OnceLock<Vec<PlanSet>> = OnceLock::new();
    TABLE.get_or_init(|| {
        compile_query_table().expect("the built-in query table compiles (tested in cargo test)")
    })
}

/// The compiled plan for one of the benchmark queries, from the precompiled table.
pub fn plan_for(id: QueryId) -> PlanSet {
    let index = QueryId::ALL.iter().position(|&q| q == id).expect("all query ids are in ALL");
    query_table()[index].clone()
}

/// The compiled plan for a benchmark query with the temporal-navigation upper bound
/// replaced by `m` (the Figure 4 sweep).
pub fn plan_with_temporal_bound(id: QueryId, m: u32) -> PlanSet {
    let clause = id.with_temporal_bound(m).expect("bound substitution parses");
    compile(&clause).expect("the built-in queries compile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_query_table_compiles() {
        // The fallible path behind the static table: a bad built-in query text fails
        // here, in `cargo test`, rather than at first use inside a binary.
        let table = compile_query_table().expect("every built-in query compiles");
        assert_eq!(table.len(), QueryId::ALL.len());
    }

    #[test]
    fn every_query_has_a_plan() {
        for id in QueryId::ALL {
            let plan = plan_for(id);
            assert!(!plan.plans().is_empty());
        }
    }

    #[test]
    fn temporal_bound_substitution_changes_the_shift() {
        let base = plan_for(QueryId::Q10);
        let widened = plan_with_temporal_bound(QueryId::Q10, 48);
        assert_eq!(base.plans()[0].links()[0].as_shift().unwrap().max, Some(12));
        assert_eq!(widened.plans()[0].links()[0].as_shift().unwrap().max, Some(48));
    }
}
