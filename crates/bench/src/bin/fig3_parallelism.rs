//! Regenerates Figure 3: query execution time on the largest graph as a function of
//! the number of worker threads.
//!
//! `cargo run --release -p bench --bin fig3_parallelism`

use engine::ExecutionOptions;
use trpq::queries::QueryId;
use workload::ScaleFactor;

fn main() {
    bench::print_preamble("Figure 3: effect of parallelism on G10");
    let (graph, report) = bench::build_graph(ScaleFactor::G10);
    println!("# G10: {} nodes, {} edges", report.nodes, report.edges);
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("# {available} hardware threads available");
    // Sweep the same ladder as the paper up to 4x the available hardware threads so
    // the oversubscription regime is visible even on small machines.
    let mut cores: Vec<usize> = vec![1, 2, 4, 8, 16, 24, 32, 40, 48];
    cores.retain(|&c| c <= (available * 4).max(8));
    print!("{:<6}", "query");
    for c in &cores {
        print!(" {:>9}", format!("{c} cores"));
    }
    println!();
    for id in QueryId::ALL {
        print!("{:<6}", id.name());
        for &c in &cores {
            let options = ExecutionOptions::with_threads(c);
            let m = bench::measure(id, &graph, &options);
            print!(" {:>9.4}", m.total_seconds);
        }
        println!();
    }
}
