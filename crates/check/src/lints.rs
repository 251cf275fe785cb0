//! The workspace lints: deny-by-default source checks for repo-specific
//! invariants the compiler cannot see.
//!
//! Each lint is a token-level pass over [`crate::lexer::Source`] (comments and
//! literals blanked, `#[cfg(test)]` regions marked).  Findings are filtered
//! through `crates/check/allow.list`; everything that survives fails the run.

use crate::lexer::Source;

/// One violation of one lint.
#[derive(Debug)]
pub struct Finding {
    /// The lint that fired.
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// One workspace lint: a scope predicate plus a checker.
pub struct Lint {
    /// Stable identifier, used in output and in `allow.list`.
    pub id: &'static str,
    /// One-line description for `--help` and reports.
    pub summary: &'static str,
    /// File name of the seeded-violation fixture under `crates/check/fixtures/`.
    pub fixture: &'static str,
    /// The path the fixture pretends to live at during `--self-test` (so the
    /// scope predicate and path-sensitive logic run exactly as in a real scan).
    pub fixture_path: &'static str,
    /// True if the lint scans this workspace-relative path.
    pub applies: fn(&str) -> bool,
    /// The checker itself.
    pub check: fn(&str, &Source) -> Vec<Finding>,
}

/// Every lint, in reporting order.
pub fn all() -> Vec<Lint> {
    vec![
        Lint {
            id: "live-graph-discipline",
            summary: "LiveGraph may only be constructed behind ServeGraph's write-then-publish discipline",
            fixture: "live_graph_discipline.rs",
            fixture_path: "crates/rogue/src/lib.rs",
            applies: |p| p.starts_with("crates/") && p.contains("/src/"),
            check: check_live_graph_discipline,
        },
        Lint {
            id: "unwrap-in-hot-path",
            summary: "no .unwrap()/.expect() in the engine's execution hot path",
            fixture: "unwrap_in_hot_path.rs",
            fixture_path: "crates/engine/src/steps/fixture.rs",
            applies: |p| {
                p.starts_with("crates/engine/src/steps/") || p == "crates/engine/src/executor.rs"
            },
            check: check_unwrap_in_hot_path,
        },
        Lint {
            id: "unwrap-under-lock",
            summary: "no .unwrap()/.expect() while holding a MutexGuard",
            fixture: "unwrap_under_lock.rs",
            fixture_path: "crates/rogue/src/lib.rs",
            applies: |p| p.starts_with("crates/") && p.contains("/src/"),
            check: check_unwrap_under_lock,
        },
        Lint {
            id: "wallclock-in-test",
            summary: "deterministic test paths must not read wall-clock time",
            fixture: "wallclock_in_test.rs",
            fixture_path: "tests/fixture.rs",
            applies: |p| p.ends_with(".rs"),
            check: check_wallclock_in_test,
        },
        Lint {
            id: "raw-timing-outside-obs",
            summary: "runtime crates take wall-clock readings through obs, never bare Instant::now",
            fixture: "raw_timing_outside_obs.rs",
            fixture_path: "crates/engine/src/fixture.rs",
            applies: |p| {
                ["crates/engine/", "crates/live/", "crates/dataflow/", "crates/bench/"]
                    .iter()
                    .any(|prefix| p.starts_with(prefix))
            },
            check: check_raw_timing_outside_obs,
        },
        Lint {
            id: "lock-order",
            summary: "the epoch protocol acquires writer before epoch-registry, never the reverse",
            fixture: "lock_order.rs",
            fixture_path: "crates/live/src/epoch.rs",
            applies: |p| {
                matches!(
                    p,
                    "crates/live/src/epoch.rs"
                        | "crates/live/src/serve.rs"
                        | "crates/live/src/graph.rs"
                )
            },
            check: check_lock_order,
        },
        Lint {
            id: "flat-row-view",
            summary: "engine and live code read rows by index, never through the memoised flat row views",
            fixture: "flat_row_view.rs",
            fixture_path: "crates/live/src/fixture.rs",
            applies: |p| {
                (p.starts_with("crates/engine/src/") && p != "crates/engine/src/relations.rs")
                    || p.starts_with("crates/live/src/")
            },
            check: check_flat_row_view,
        },
        Lint {
            id: "query-threads",
            summary: "a query runs on the thread that asks for it: no thread spawned and no atomic counter on the query path",
            fixture: "query_threads.rs",
            fixture_path: "crates/engine/src/fixture.rs",
            applies: |p| {
                ["crates/engine/src/", "crates/dataflow/src/", "crates/live/src/"]
                    .iter()
                    .any(|prefix| p.starts_with(prefix))
                    && !matches!(p, "crates/live/src/serve.rs" | "crates/live/src/sched.rs")
            },
            check: check_query_threads,
        },
    ]
}

fn finding(lint: &'static str, path: &str, line: usize, message: String) -> Finding {
    Finding { lint, path: path.to_owned(), line: line + 1, message }
}

fn contains_any(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

// ---------------------------------------------------------------------------
// live-graph-discipline

fn check_live_graph_discipline(path: &str, src: &Source) -> Vec<Finding> {
    const CONSTRUCTIONS: &[&str] = &["LiveGraph::new(", "LiveGraph::with_options(", "LiveGraph {"];
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if src.in_test[i] || !contains_any(line, CONSTRUCTIONS) {
            continue;
        }
        out.push(finding(
            "live-graph-discipline",
            path,
            i,
            "constructs a LiveGraph outside ServeGraph's write-then-publish discipline; \
             concurrent readers never see its epochs.  Go through ServeGraph \
             (crates/live/src/serve.rs), or record an audited exception in allow.list"
                .to_owned(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// unwrap-in-hot-path

fn check_unwrap_in_hot_path(path: &str, src: &Source) -> Vec<Finding> {
    const PANICS: &[&str] = &[".unwrap()", ".expect("];
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if src.in_test[i] || !contains_any(line, PANICS) {
            continue;
        }
        out.push(finding(
            "unwrap-in-hot-path",
            path,
            i,
            "panics in the engine's execution hot path take down whole worker threads; \
             return Option/Result, restructure the match, or guard the invariant with \
             debug_assert! instead"
                .to_owned(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// unwrap-under-lock

fn check_unwrap_under_lock(path: &str, src: &Source) -> Vec<Finding> {
    const PANICS: &[&str] = &[".unwrap()", ".expect("];
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    // Depths (at the binding statement) of live let-bound MutexGuards.
    let mut guards: Vec<i32> = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        let start_depth = depth;
        if !src.in_test[i] {
            let direct_poison_panic =
                line.contains(".lock().unwrap()") || line.contains(".lock().expect(");
            if (direct_poison_panic || !guards.is_empty()) && contains_any(line, PANICS) {
                out.push(finding(
                    "unwrap-under-lock",
                    path,
                    i,
                    "panicking while a MutexGuard is live poisons the lock for every other \
                     thread; drop the guard first, or recover explicitly with \
                     unwrap_or_else(PoisonError::into_inner)"
                        .to_owned(),
                ));
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while guards.last().is_some_and(|&g| depth < g) {
                        guards.pop();
                    }
                }
                _ => {}
            }
        }
        if !src.in_test[i] && line.contains(".lock()") && line.contains("let ") {
            guards.push(start_depth);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// wallclock-in-test

fn check_wallclock_in_test(path: &str, src: &Source) -> Vec<Finding> {
    const CLOCKS: &[&str] = &["Instant::now(", "SystemTime::now(", "SystemTime::"];
    let test_file = path.starts_with("tests/") || path.contains("/tests/");
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if !(test_file || src.in_test[i]) || !contains_any(line, CLOCKS) {
            continue;
        }
        out.push(finding(
            "wallclock-in-test",
            path,
            i,
            "deterministic test paths must not read wall-clock time (it makes failures \
             unreproducible); drive the scenario with logical time or epochs instead"
                .to_owned(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// raw-timing-outside-obs

fn check_raw_timing_outside_obs(path: &str, src: &Source) -> Vec<Finding> {
    const CLOCKS: &[&str] = &["Instant::now(", "SystemTime::now("];
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        // Test regions are wallclock-in-test's territory; double-reporting the
        // same line under two lint ids would force duplicate allow entries.
        if src.in_test[i] || !contains_any(line, CLOCKS) {
            continue;
        }
        out.push(finding(
            "raw-timing-outside-obs",
            path,
            i,
            "reads the wall clock directly in runtime code; timings taken this way are \
             invisible to the metrics registry and dodge the telemetry on/off gate.  Use \
             obs::Stopwatch (or an obs::Span around the region) instead"
                .to_owned(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// lock-order

/// The protocol lock classes, by acquisition rank: the writer mutex strictly
/// before the epoch-registry mutex.  Patterns cover both direct `Mutex::lock`
/// receivers and the guard-returning helpers of `ServeGraph`/`EpochManager`
/// (including the registry-acquiring entry points reachable one call deep).
const LOCK_CLASSES: &[(&str, &[&str])] = &[
    ("writer", &[".writer.lock(", "self.writer()"]),
    (
        "epoch-registry",
        &[
            ".inner.lock(",
            ".manager.lock(",
            "self.lock()",
            "self.publish(",
            "self.pin()",
            ".epochs.publish(",
            ".epochs.pin(",
        ],
    ),
];

fn check_lock_order(path: &str, src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    // Live let-bound guards: (class rank, depth at the binding statement).
    let mut held: Vec<(usize, i32)> = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        let start_depth = depth;
        let acquired: Vec<usize> = LOCK_CLASSES
            .iter()
            .enumerate()
            .filter(|(_, (_, patterns))| contains_any(line, patterns))
            .map(|(rank, _)| rank)
            .collect();
        if !src.in_test[i] {
            for &rank in &acquired {
                if let Some(&(held_rank, _)) = held.iter().find(|&&(h, _)| h >= rank) {
                    out.push(finding(
                        "lock-order",
                        path,
                        i,
                        format!(
                            "acquires the {} lock while the {} lock is held: the epoch \
                             protocol's order is writer -> epoch-registry, and re-entrant \
                             acquisition self-deadlocks.  Release the guard first \
                             (scope it in a block)",
                            LOCK_CLASSES[rank].0, LOCK_CLASSES[held_rank].0,
                        ),
                    ));
                }
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while held.last().is_some_and(|&(_, g)| depth < g) {
                        held.pop();
                    }
                }
                _ => {}
            }
        }
        if line.contains("let ") {
            for &rank in &acquired {
                held.push((rank, start_depth));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// flat-row-view

fn check_flat_row_view(path: &str, src: &Source) -> Vec<Finding> {
    const VIEWS: &[&str] = &[".node_rows()", ".edge_rows()"];
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if src.in_test[i] || !contains_any(line, VIEWS) {
            continue;
        }
        out.push(finding(
            "flat-row-view",
            path,
            i,
            "node_rows()/edge_rows() copy every row of the relation on their first call \
             per version, so a refresh or a query calling them copies the graph each \
             batch.  Read rows by index through GraphRelations::nodes()/edges() (take \
             the view once, then .get(row)) or through row()/visit_rows_of"
                .to_owned(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// query-threads

fn check_query_threads(path: &str, src: &Source) -> Vec<Finding> {
    const SPAWNS: &[&str] =
        &["thread::spawn", "thread::scope", "thread::Builder", "available_parallelism"];
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        if contains_any(line, SPAWNS) {
            out.push(finding(
                "query-threads",
                path,
                i,
                "spawns threads (or sizes a pool by the core count) on the query path; a \
                 query runs on the thread that asks for it, and two threads lost to one on \
                 every benchmark workload.  Concurrency lives in the server's worker pool \
                 (crates/live/src/serve.rs); parallelism within a query comes back only \
                 chosen by the code, with a benchmark workload on each side of the choice"
                    .to_owned(),
            ));
        } else if names_an_atomic(line) {
            out.push(finding(
                "query-threads",
                path,
                i,
                "an atomic on the query path; a query runs on the thread that asks for it, \
                 so its counters are plain integers passed by &mut (engine::StepStats).  \
                 Counters other threads read belong to the server (crates/live/src/serve.rs) \
                 or to the obs registry"
                    .to_owned(),
            ));
        }
    }
    out
}

/// True if `line` names `std::sync::atomic` or an `Atomic*` type: the word `Atomic`
/// at the start of an identifier.
fn names_an_atomic(line: &str) -> bool {
    line.contains("sync::atomic")
        || line
            .match_indices("Atomic")
            .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::analyze;

    fn run(lint_id: &str, path: &str, src: &str) -> Vec<Finding> {
        let lint = all().into_iter().find(|l| l.id == lint_id).unwrap();
        assert!((lint.applies)(path), "{path} must be in scope of {lint_id}");
        (lint.check)(path, &analyze(src))
    }

    #[test]
    fn hot_path_unwraps_are_flagged_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.expect(\"t\") }\n}\n";
        let findings = run("unwrap-in-hot-path", "crates/engine/src/steps/hop.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn guard_scoped_unwraps_are_flagged_until_release() {
        let src = "fn f(m: &std::sync::Mutex<Vec<u32>>) {\n    {\n        let g = m.lock().unwrap_or_else(|p| p.into_inner());\n        g.first().expect(\"under guard\");\n    }\n    maybe().unwrap();\n}\n";
        let findings = run("unwrap-under-lock", "crates/live/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4, "the post-release unwrap on line 6 is fine");
    }

    #[test]
    fn direct_lock_unwrap_is_flagged_even_unbound() {
        let findings = run(
            "unwrap-under-lock",
            "crates/live/src/x.rs",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
        );
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// calls Instant::now( in prose\nconst HELP: &str = \"SystemTime::now(...)\";\n";
        assert!(run("wallclock-in-test", "tests/prose.rs", src).is_empty());
    }

    #[test]
    fn wallclock_fires_in_test_files_and_test_modules_only() {
        let src = "fn prod() { let _ = std::time::Instant::now(); }\n";
        assert!(run("wallclock-in-test", "crates/bench/src/lib.rs", src).is_empty());
        assert_eq!(run("wallclock-in-test", "tests/determinism.rs", src).len(), 1);
        let gated =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert_eq!(run("wallclock-in-test", "crates/x/src/lib.rs", gated).len(), 1);
    }

    #[test]
    fn raw_timing_fires_in_runtime_code_but_leaves_tests_to_wallclock_lint() {
        let src = "fn prod() { let _ = std::time::Instant::now(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let findings = run("raw-timing-outside-obs", "crates/engine/src/executor.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1, "the test-gated read belongs to wallclock-in-test");
        let sanctioned = "fn prod() { let w = obs::Stopwatch::start(); let _ = w.elapsed(); }\n";
        assert!(run("raw-timing-outside-obs", "crates/live/src/query.rs", sanctioned).is_empty());
        let lint = all().into_iter().find(|l| l.id == "raw-timing-outside-obs").unwrap();
        assert!(!(lint.applies)("crates/obs/src/span.rs"), "obs itself owns the clock");
    }

    #[test]
    fn lock_order_accepts_writer_then_registry_and_rejects_the_reverse() {
        let good = "fn ingest(&self) {\n    let mut writer = self.writer();\n    self.publish(&writer);\n}\n";
        assert!(run("lock-order", "crates/live/src/serve.rs", good).is_empty());
        let bad = "fn bad(&self) {\n    let inner = self.lock();\n    let w = self.writer();\n}\n";
        assert_eq!(run("lock-order", "crates/live/src/epoch.rs", bad).len(), 1);
        let reentrant =
            "fn twice(&self) {\n    let a = self.lock();\n    let b = self.lock();\n}\n";
        assert_eq!(run("lock-order", "crates/live/src/epoch.rs", reentrant).len(), 1);
    }

    #[test]
    fn flat_row_views_fire_outside_tests_and_outside_relations_only() {
        let src = "fn hop(g: &GraphRelations) -> usize { g.edge_rows().len() + g.nodes().len() }\n#[cfg(test)]\nmod tests {\n    fn t(g: &GraphRelations) -> usize { g.node_rows().len() }\n}\n";
        let findings = run("flat-row-view", "crates/engine/src/steps/structural.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1, "the test-gated read is fine");
        assert_eq!(run("flat-row-view", "crates/live/src/query.rs", src).len(), 1);
        let sorted = "fn k(g: &GraphRelations) -> usize { g.node_rows_sorted_by_id().len() }\n";
        assert!(run("flat-row-view", "crates/engine/src/executor.rs", sorted).is_empty());
        let lint = all().into_iter().find(|l| l.id == "flat-row-view").unwrap();
        assert!(!(lint.applies)("crates/engine/src/relations.rs"), "the views' own module");
        assert!(!(lint.applies)("tests/row_apply.rs"), "integration tests may read them");
    }

    #[test]
    fn query_threads_fire_on_the_query_path_outside_tests_only() {
        let src = "fn run(rows: &[u32]) {\n    std::thread::scope(|s| { s.spawn(|| rows.len()); });\n}\nfn cores() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()).join().unwrap(); }\n}\n";
        let findings = run("query-threads", "crates/engine/src/executor.rs", src);
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 4], "{findings:?}");
        assert_eq!(run("query-threads", "crates/live/src/query.rs", src).len(), 2);
        assert_eq!(run("query-threads", "crates/dataflow/src/sorted.rs", src).len(), 2);
        let atomics = "use std::sync::atomic::Ordering;\nstatic ROWS: AtomicUsize = AtomicUsize::new(0);\nfn f(n: NonAtomicCount) {}\n#[cfg(test)]\nmod tests {\n    static T: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);\n}\n";
        let findings = run("query-threads", "crates/engine/src/steps/mod.rs", atomics);
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 2], "{findings:?}");
        assert_eq!(run("query-threads", "crates/live/src/query.rs", atomics).len(), 2);
        let prose = "// no thread::spawn here, no AtomicUsize\nconst HELP: &str = \"thread::scope, sync::atomic\";\n";
        assert!(run("query-threads", "crates/engine/src/lib.rs", prose).is_empty());
        let lint = all().into_iter().find(|l| l.id == "query-threads").unwrap();
        assert!(!(lint.applies)("crates/live/src/serve.rs"), "the server's worker pool");
        assert!(!(lint.applies)("crates/live/src/sched.rs"), "the model checker's scheduler");
        assert!(!(lint.applies)("crates/live/tests/epoch_lifecycle.rs"), "integration tests");
        assert!(!(lint.applies)("crates/bench/src/bin/paper.rs"), "the harnesses");
    }

    #[test]
    fn block_scoped_guards_release_for_lock_order() {
        let src = "fn republish(&self) {\n    let x = {\n        let inner = self.lock();\n        inner.current\n    };\n    self.publish(x)\n}\n";
        assert!(run("lock-order", "crates/live/src/epoch.rs", src).is_empty());
    }
}
