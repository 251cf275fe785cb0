//! Regenerates the paper's experiments, one subcommand per table or figure:
//!
//! ```text
//! cargo run --release -p bench --bin paper -- table1   # Table I: the graphs G1–G10
//! cargo run --release -p bench --bin paper -- table2   # Table II: Q1–Q12 on G10
//! cargo run --release -p bench --bin paper -- fig2     # Figure 2: time vs graph size
//! cargo run --release -p bench --bin paper -- fig4     # Figure 4: time vs temporal steps
//! cargo run --release -p bench --bin paper -- fig5     # Figure 5: time vs positivity rate
//! cargo run --release -p bench --bin paper -- fig7     # Figure 7: output size vs time
//! ```
//!
//! `TPATH_SCALE_DIVISOR` divides the person counts of Table I (default 25, so the
//! sweep runs 50 … 4,000 persons instead of 1,000 … 100,000); set it to 1 to
//! reproduce the paper's sizes exactly if you have the memory and patience.
//!
//! Figure 3, the paper's sweep over thread counts, has no subcommand: a query runs on
//! the thread that asks for it.

use engine::{ExecutionOptions, GraphRelations, QueryStats};
use obs::Stopwatch;
use trpq::queries::QueryId;
use workload::{ContactTracingConfig, ScaleFactor};

const EXPERIMENTS: [(&str, fn()); 6] = [
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig7", fig7),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <{}>", names.join("|"));
        std::process::exit(2);
    };
    run();
}

/// The scale divisor taken from `TPATH_SCALE_DIVISOR` (default 25).
fn scale_divisor() -> usize {
    std::env::var("TPATH_SCALE_DIVISOR").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

/// The generator configuration for one scale factor under the current divisor.
fn config_at(scale: ScaleFactor) -> ContactTracingConfig {
    scale.scaled_config(scale_divisor())
}

/// Generates a contact-tracing graph and loads it into the engine; also returns
/// the seconds generation took (Table I's last column).
fn build_graph(config: ContactTracingConfig) -> (GraphRelations, f64) {
    let watch = Stopwatch::start();
    let itpg = workload::generate(&config);
    let generate_seconds = watch.elapsed().as_secs_f64();
    (GraphRelations::from_itpg(&itpg), generate_seconds)
}

/// Runs one of the paper's benchmark queries; the stats are one row of Table II.
fn measure(id: QueryId, graph: &GraphRelations, options: &ExecutionOptions) -> QueryStats {
    engine::Query::benchmark(id).with_options(*options).run(graph).stats()
}

/// Prints the standard experiment preamble.
fn print_preamble(experiment: &str) {
    println!("# {experiment}");
    println!(
        "# scale divisor = {} (set TPATH_SCALE_DIVISOR=1 for the paper's full sizes)",
        scale_divisor()
    );
}

/// Table I: the sizes of the experimental graphs G1–G10.
fn table1() {
    print_preamble("Table I: temporal property graphs used in experiments");
    println!(
        "{:<5} {:>9} {:>12} {:>14} {:>14} {:>12}",
        "graph", "# persons", "# edges", "# temp. nodes", "# temp. edges", "gen time (s)"
    );
    for scale in ScaleFactor::ALL {
        let (graph, generate_seconds) = build_graph(config_at(scale));
        let stats = graph.stats();
        println!(
            "{:<5} {:>9} {:>12} {:>14} {:>14} {:>12.2}",
            scale.name(),
            stats.nodes,
            stats.edges,
            stats.temporal_nodes,
            stats.temporal_edges,
            generate_seconds
        );
    }
}

/// Table II: execution time and output size of Q1–Q12 on the largest graph of the
/// sweep (G10 under the configured scale divisor).
fn table2() {
    print_preamble("Table II: execution time of queries Q1-Q12 for graph G10");
    let (graph, _) = build_graph(config_at(ScaleFactor::G10));
    let stats = graph.stats();
    println!(
        "# G10: {} nodes, {} edges, {} temporal nodes, {} temporal edges",
        stats.nodes, stats.edges, stats.temporal_nodes, stats.temporal_edges
    );
    println!(
        "{:<6} {:>22} {:>16} {:>14}",
        "query", "interval-based time (s)", "total time (s)", "output size"
    );
    let options = ExecutionOptions::default();
    for id in QueryId::ALL {
        let m = measure(id, &graph, &options);
        println!(
            "{:<6} {:>22.4} {:>16.4} {:>14}",
            id.name(),
            m.interval_time.as_secs_f64(),
            m.total_time.as_secs_f64(),
            m.output_rows
        );
    }
}

/// Figure 2: query execution time as a function of graph size (G1–G10).
fn fig2() {
    print_preamble("Figure 2: effect of graph size on query execution time");
    let options = ExecutionOptions::default();
    print!("{:<6} {:>10}", "graph", "# nodes");
    for id in QueryId::ALL {
        print!(" {:>9}", id.name());
    }
    println!();
    for scale in ScaleFactor::ALL {
        let (graph, _) = build_graph(config_at(scale));
        print!("{:<6} {:>10}", scale.name(), graph.num_nodes());
        for id in QueryId::ALL {
            print!(" {:>9.4}", measure(id, &graph, &options).total_time.as_secs_f64());
        }
        println!();
    }
}

/// Figure 4: execution time of Q10–Q12 as the maximum number of temporal navigation
/// steps m grows from 4 to 48.
fn fig4() {
    print_preamble("Figure 4: effect of temporal navigation steps on G10");
    let (graph, _) = build_graph(config_at(ScaleFactor::G10));
    let options = ExecutionOptions::default();
    let queries = [QueryId::Q10, QueryId::Q11, QueryId::Q12];
    print!("{:<6}", "m");
    for id in queries {
        print!(" {:>10}", id.name());
    }
    println!();
    for m in (4..=48).step_by(4) {
        print!("{:<6}", m);
        for id in queries {
            let plan = engine::queries::plan_with_temporal_bound(id, m);
            let out = engine::execute(&plan, &graph, &options);
            print!(" {:>10.4}", out.stats.total_time.as_secs_f64());
        }
        println!();
    }
}

/// Figure 5: execution time of Q6–Q12 as the positivity rate (query selectivity)
/// grows from 2% to 10%.
fn fig5() {
    print_preamble("Figure 5: effect of positivity rate on G10");
    let options = ExecutionOptions::default();
    let queries = &QueryId::ALL[5..];
    print!("{:<12}", "positivity");
    for id in queries {
        print!(" {:>9}", id.name());
    }
    println!();
    for rate in [0.02, 0.04, 0.06, 0.08, 0.10] {
        let (graph, _) = build_graph(config_at(ScaleFactor::G10).with_positivity_rate(rate));
        print!("{:<12}", format!("{:.0}%", rate * 100.0));
        for &id in queries {
            print!(" {:>9.4}", measure(id, &graph, &options).total_time.as_secs_f64());
        }
        println!();
    }
}

/// Figure 7 (appendix): output size and execution time of every query on G2–G6,
/// relative to G1, showing that runtime growth tracks output growth.
fn fig7() {
    print_preamble("Figure 7: relative output size and execution time vs G1");
    let options = ExecutionOptions::default();
    let mut baseline: Vec<(f64, f64)> = Vec::new();
    println!(
        "{:<6} {:<6} {:>14} {:>14} {:>12} {:>12}",
        "graph", "query", "output", "output xG1", "time (s)", "time xG1"
    );
    for (i, scale) in ScaleFactor::ALL[..6].iter().enumerate() {
        let (graph, _) = build_graph(config_at(*scale));
        for (q, id) in QueryId::ALL.iter().enumerate() {
            let m = measure(*id, &graph, &options);
            let seconds = m.total_time.as_secs_f64();
            if i == 0 {
                baseline.push((m.output_rows.max(1) as f64, seconds.max(1e-9)));
            }
            let (base_out, base_time) = baseline[q];
            println!(
                "{:<6} {:<6} {:>14} {:>14.2} {:>12.4} {:>12.2}",
                scale.name(),
                id.name(),
                m.output_rows,
                m.output_rows as f64 / base_out,
                seconds,
                seconds / base_time
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_can_be_built_and_measured_at_the_smallest_scale() {
        assert!(scale_divisor() >= 1);
        let (graph, _) = build_graph(ContactTracingConfig::with_persons(120));
        let stats = graph.stats();
        assert!(stats.nodes > 0 && stats.temporal_nodes >= stats.nodes);
        let m = measure(QueryId::Q1, &graph, &ExecutionOptions::default());
        assert!(m.output_rows > 0);
        assert!(m.total_time >= m.interval_time);
    }
}
