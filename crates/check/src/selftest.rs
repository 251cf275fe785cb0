//! The `--self-test` mode: deny-by-default is only trustworthy if every lint
//! demonstrably still fires.  Each lint ships a fixture under
//! `crates/check/fixtures/` seeding exactly the violation it exists to catch;
//! this mode runs each lint over its fixture (under the fixture's pretend
//! path, bypassing the allowlist) and fails if any lint goes blind.
//!
//! The engine-side plan auditor is self-tested the same way: the plan
//! constructor must refuse a deliberately broken plan.

use std::path::Path;

use engine::plan::{EnginePlan, MicroOp, Segment};

use crate::{lexer, lints};

/// Runs every self-test.  Returns true on success.
pub fn run(root: &Path) -> bool {
    let mut ok = true;
    for lint in lints::all() {
        let fixture = root.join("crates/check/fixtures").join(lint.fixture);
        let content = match std::fs::read_to_string(&fixture) {
            Ok(content) => content,
            Err(error) => {
                eprintln!("self-test: {}: cannot read {}: {error}", lint.id, fixture.display());
                ok = false;
                continue;
            }
        };
        if !(lint.applies)(lint.fixture_path) {
            eprintln!(
                "self-test: {}: fixture path {} is out of the lint's own scope",
                lint.id, lint.fixture_path
            );
            ok = false;
            continue;
        }
        let findings = (lint.check)(lint.fixture_path, &lexer::analyze(&content));
        if findings.is_empty() {
            eprintln!(
                "self-test: {}: FAILED — the seeded violation in {} was not caught",
                lint.id, lint.fixture
            );
            ok = false;
        } else {
            println!(
                "self-test: {}: caught {} seeded violation(s) at line(s) [{}]",
                lint.id,
                findings.len(),
                findings.iter().map(|f| f.line.to_string()).collect::<Vec<_>>().join(", "),
            );
        }
    }
    ok &= plan_audit_rejects_broken_plan();
    ok &= crate::semantic::self_test();
    ok
}

/// A two-segment plan with no temporal link is structurally impossible; the
/// plan constructor must refuse it with a diagnostic naming the arity mismatch.
fn plan_audit_rejects_broken_plan() -> bool {
    let segments =
        vec![Segment { ops: vec![MicroOp::Bind(0)] }, Segment { ops: vec![MicroOp::Bind(1)] }];
    match EnginePlan::new(segments, Vec::new()) {
        Ok(_) => {
            eprintln!("self-test: plan-audit: FAILED — a 2-segment, 0-link plan was not rejected");
            false
        }
        Err(error) => {
            println!("self-test: plan-audit: broken plan rejected ({})", error.issues[0].message);
            true
        }
    }
}
