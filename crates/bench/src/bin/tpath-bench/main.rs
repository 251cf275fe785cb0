//! `tpath-bench` — the repository's benchmark: four paper-scale workloads, four
//! end-to-end metrics each, and per-layer attribution from a traced run.
//! `README.md` beside this file has the vocabulary and the method.
//!
//! ```text
//! tpath-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! tpath-bench [--runs N] [--out FILE] [--seed N] [--seconds S] [--trace 0|1]
//! tpath-bench compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its output
//! with the one-line result the driver reads.  Without, it runs every workload
//! in a fresh process each (`--runs` times, seeds `N, N+1, …`), prints every
//! metric by name and writes the report `compare` diffs.

use std::process::{Command, ExitCode};

mod bulk;
mod check;
mod jsonio;
mod kernels;
mod queryops;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use report::{Outcome, WorkloadRuns, WORKLOADS};

/// Where trace files and the default report go, relative to the working
/// directory (the checkout root, under the driver).
const OUT_DIR: &str = ".bench_out";

/// What one workload run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `--record FILE`: write this run's answer digests into FILE.
    pub record: Option<String>,
}

/// Writes a traced run's spans to `.bench_out/trace_<workload>.json`.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = format!("{OUT_DIR}/trace_{workload}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_json(spans).render()));
    match written {
        Ok(()) => println!("{} spans written to {path}", spans.len()),
        Err(error) => eprintln!("{path}: {error}"),
    }
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    runs: usize,
    out: String,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs { seed: check::DEFAULT_SEED, seconds: 15.0, traced: false, record: None },
        runs: 1,
        out: format!("{OUT_DIR}/report.json"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.run.seed = number()?,
            "--seconds" => cli.run.seconds = number()? as f64,
            "--trace" => cli.run.traced = number()? != 0,
            "--record" => cli.run.record = Some(value.clone()),
            "--runs" => cli.runs = number()?.max(1) as usize,
            "--out" => cli.out = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its result.
fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = match name {
        "adhoc-g6" => bulk::run(&bulk::adhoc_g6(), args),
        "closure-g2" => bulk::run(&bulk::closure_g2(), args),
        "stream-g5" => stream::run(args),
        "serve-g3" => serve::run(args),
        _ => {
            let names: Vec<&str> = WORKLOADS.iter().map(|&(n, _)| n).collect();
            return Err(format!("unknown workload {name}; one of {}", names.join(", ")));
        }
    };
    if !args.traced {
        let peak = bench::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        outcome.metrics.insert("peak_rss_mb", peak);
    }
    Ok(outcome)
}

/// Runs every workload `runs` times, each in a fresh process of this binary.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report: Vec<(String, WorkloadRuns)> = Vec::new();
    for &(name, _) in WORKLOADS {
        let mut runs = WorkloadRuns::default();
        for run in 0..cli.runs as u64 {
            let output = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &(cli.run.seed + run).to_string()])
                .args(["--seconds", &cli.run.seconds.to_string()])
                .args(["--trace", if cli.run.traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || runs.push(line).is_err() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{name} run {run} failed ({})", output.status));
            }
        }
        report::print_runs(name, &runs);
        report.push((name.to_owned(), runs));
    }
    let text =
        report::report_json(cli.run.seed, cli.run.seconds as u64, cli.run.traced, &report).render();
    if let Some(dir) = std::path::Path::new(&cli.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&cli.out, text).map_err(|e| format!("{}: {e}", cli.out))?;
    println!("report written to {}", cli.out);
    Ok(report.iter().all(|(_, runs)| runs.failed == 0))
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_report(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (lines, regressed) = report::compare(&read(a)?, &read(b)?);
    for line in lines {
        println!("{line}");
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare(a, b),
            _ => Err("usage: tpath-bench compare A.json B.json".to_owned()),
        },
        _ => parse_cli(&args).and_then(|cli| match &cli.workload {
            Some(name) => run_workload(name, &cli.run).map(|outcome| {
                for note in &outcome.notes {
                    println!("{note}");
                }
                for (metric, value) in &outcome.metrics {
                    println!("  {metric:<48} {value:>14.4}");
                }
                println!("ops_attempted {} ops_failed {}", outcome.attempted, outcome.failed);
                // The result line carries `correct`; the exit code only says
                // that a result was produced.
                println!("{}", report::result_line(&outcome));
                true
            }),
            None => run_all(&cli),
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tpath-bench: {message}");
            ExitCode::from(2)
        }
    }
}
