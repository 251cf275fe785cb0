//! `check` — the workspace's own static analyzer.
//!
//! Three modes, combinable; every mode must pass for the process to exit 0:
//!
//! * `--workspace` (default): run the repo-specific source lints over every
//!   `.rs` file, filtered through `crates/check/allow.list`.
//! * `--plans`: compile the built-in benchmark plans (Q1–Q12), which the
//!   engine's plan constructors audit, and report their hop depths and closure
//!   nesting.
//! * `--self-test`: prove each lint still catches its seeded-violation
//!   fixture, and that the plan constructor still rejects a broken plan.
//!
//! Hand-rolled on std only: the build environment has no registry access, so
//! there is no syn/quote/clippy-plugin machinery here — see `src/lexer.rs`
//! for the token-level approximation the lints run on.

mod allow;
mod lexer;
mod lints;
mod plans;
mod selftest;
mod semantic;
mod walk;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut run_workspace = false;
    let mut run_plans = false;
    let mut run_semantic = false;
    let mut run_self_test = false;
    let mut strict = false;
    let mut root_override: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => run_workspace = true,
            "--plans" => run_plans = true,
            "--semantic" => run_semantic = true,
            "--self-test" => run_self_test = true,
            "--strict" => strict = true,
            "--workspace-root" => match args.next() {
                Some(path) => root_override = Some(PathBuf::from(path)),
                None => {
                    eprintln!("check: --workspace-root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("check: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if !run_workspace && !run_plans && !run_semantic && !run_self_test {
        run_workspace = true;
    }

    let root = match root_override.map_or_else(workspace_root, Ok) {
        Ok(root) => root,
        Err(message) => {
            eprintln!("check: {message}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    if run_self_test {
        failed |= !selftest::run(&root);
    }
    if run_workspace {
        failed |= !run_workspace_lints(&root, strict);
    }
    if run_plans {
        failed |= !plans::run();
    }
    if run_semantic {
        failed |= !semantic::run();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_help() {
    println!("check — workspace static analysis for repo-specific invariants");
    println!();
    println!("usage: cargo run -p check [--workspace] [--plans] [--semantic] [--self-test]");
    println!("                          [--strict] [--workspace-root <path>]");
    println!();
    println!("  --semantic  run the engine's semantic plan analyzer over the built-in");
    println!("              benchmark plans (emptiness, dead alternatives, band feasibility)");
    println!("  --strict    treat unused allow.list entries as failures, not warnings");
    println!();
    println!("lints (deny-by-default; exceptions live in crates/check/allow.list):");
    for lint in lints::all() {
        println!("  {:<24} {}", lint.id, lint.summary);
    }
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when run through
/// cargo, else the nearest ancestor of the current directory whose
/// `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let dir = PathBuf::from(manifest_dir);
        if let Some(root) = dir.parent().and_then(Path::parent) {
            return Ok(root.to_path_buf());
        }
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found; pass --workspace-root".to_owned());
        }
    }
}

/// The `--workspace` mode.  Returns true on success.  Under `--strict`, an
/// unused allow.list entry is a failure (the allowlist must not rot), not a
/// warning.
fn run_workspace_lints(root: &Path, strict: bool) -> bool {
    let lints = lints::all();
    let files = walk::rust_files(root);
    let mut allowlist = match allow::Allowlist::load(&root.join("crates/check/allow.list")) {
        Ok(allowlist) => allowlist,
        Err(message) => {
            eprintln!("check: {message}");
            return false;
        }
    };

    let mut violations = 0usize;
    let mut allowed = 0usize;
    let mut scanned = 0usize;
    for rel in &files {
        let applicable: Vec<_> = lints.iter().filter(|l| (l.applies)(rel)).collect();
        if applicable.is_empty() {
            continue;
        }
        let Ok(content) = std::fs::read_to_string(root.join(rel)) else {
            eprintln!("check: warning: unreadable file {rel}");
            continue;
        };
        scanned += 1;
        let source = lexer::analyze(&content);
        for lint in applicable {
            for finding in (lint.check)(rel, &source) {
                if allowlist.allows(&finding) {
                    allowed += 1;
                } else {
                    println!(
                        "{}: {}:{}: {}",
                        finding.lint, finding.path, finding.line, finding.message
                    );
                    violations += 1;
                }
            }
        }
    }
    let mut unused_entries = 0usize;
    for entry in allowlist.unused() {
        unused_entries += 1;
        let reason = if entry.reason.is_empty() { "no reason given" } else { &entry.reason };
        let level = if strict { "error" } else { "warning" };
        eprintln!(
            "check: {level}: unused allow.list entry `{} {}` ({reason}) — remove it or fix the path",
            entry.lint, entry.path
        );
    }
    if strict && unused_entries > 0 {
        eprintln!("check: --strict: {unused_entries} unused allow.list entr(ies) must be removed");
        return false;
    }
    if violations == 0 {
        println!(
            "check: workspace clean — {} lints over {scanned} files, 0 violations \
             ({allowed} audited exceptions)",
            lints.len()
        );
        true
    } else {
        eprintln!("check: {violations} violation(s); fix them or record an audited exception in crates/check/allow.list");
        false
    }
}
