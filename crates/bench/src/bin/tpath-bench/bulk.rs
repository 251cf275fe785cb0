//! The two bulk-graph workloads: a closed loop of one caller running query
//! text against graphs loaded once, round after round of the same operations.
//!
//! `adhoc-g6` runs Q1–Q12 to a materialised table; `closure-g2` runs REACH and
//! RECUR in all three answer shapes.  Both run on several graphs generated from
//! sub-seeds of `--seed`: what a query costs swings with the generator seed —
//! RECUR by ±25 % at G3 — and several graphs average that swing out where one
//! larger graph would carry it into every metric.

use engine::{AnswerMode, CompactAnswers, GraphRelations};
use obs::Stopwatch;
use trpq::queries::QueryId;
use workload::ScaleFactor;

use crate::check::{self, Digests};
use crate::queryops::{
    median_of, query_layers, Delivered, EngineObs, QueryRunner, Tally, PAGE_ROWS,
};
use crate::report::{empty_layers, Metrics, Outcome};
use crate::stats::{median, quantile, sub_seed, tail_note};
use crate::{kernels, RunArgs};

/// What distinguishes the two bulk workloads.
pub struct BulkSpec {
    pub name: &'static str,
    pub scale: ScaleFactor,
    pub graphs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub queries: Vec<(&'static str, &'static str)>,
    pub modes: &'static [AnswerMode],
    /// The query whose operations make up `op_ms_p50` / `op_ms_p95`; `None`
    /// pools every operation.
    pub sampled_query: Option<&'static str>,
    pub warmup_rounds: usize,
}

pub fn adhoc_g6() -> BulkSpec {
    BulkSpec {
        name: "adhoc-g6",
        scale: ScaleFactor::G6,
        // Four graphs, for the reason given above: Q5/Q11/Q12 move ±10 % with
        // the seed on one.
        graphs: 4,
        setup_repeats: 3,
        queries: QueryId::ALL.iter().map(|id| (id.name(), id.text())).collect(),
        modes: &[AnswerMode::Materialized],
        sampled_query: None,
        warmup_rounds: 1,
    }
}

pub fn closure_g2() -> BulkSpec {
    BulkSpec {
        name: "closure-g2",
        scale: ScaleFactor::G2,
        graphs: 24,
        setup_repeats: 5,
        queries: vec![
            (bench::REACH_QUERY_NAME, bench::REACH_QUERY_TEXT),
            (bench::RECUR_QUERY_NAME, bench::RECUR_QUERY_TEXT),
        ],
        modes: &[AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact],
        // REACH is ~20x cheaper than RECUR: pooled, the median would sit on
        // the boundary between the two classes.
        sampled_query: Some(bench::RECUR_QUERY_NAME),
        warmup_rounds: 1,
    }
}

/// One set-up: every graph generated and loaded.
struct Setup {
    graphs: Vec<GraphRelations>,
    generate_s: f64,
    load_s: f64,
    /// Resident bytes the first graph's relations took per node + edge row.
    bytes_per_row: f64,
}

fn resident_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.unwrap_or(0.0) * 1024.0
}

fn set_up(spec: &BulkSpec, seed: u64) -> Setup {
    let mut setup = Setup { graphs: Vec::new(), generate_s: 0.0, load_s: 0.0, bytes_per_row: 0.0 };
    for i in 0..spec.graphs {
        let config = spec.scale.paper_config().with_seed(sub_seed(seed, i));
        let watch = Stopwatch::start();
        let itpg = workload::generate(&config);
        setup.generate_s += watch.elapsed().as_secs_f64();
        let before = resident_bytes();
        let watch = Stopwatch::start();
        let relations = GraphRelations::from_itpg(&itpg);
        setup.load_s += watch.elapsed().as_secs_f64();
        if i == 0 {
            let stats = relations.stats();
            let rows = (stats.temporal_nodes + stats.temporal_edges).max(1) as f64;
            setup.bytes_per_row = (resident_bytes() - before).max(0.0) / rows;
        }
        setup.graphs.push(relations);
    }
    setup
}

/// One `(graph, query)` pair; every round runs each once.
struct Op {
    graph: usize,
    query: &'static str,
    text: &'static str,
}

/// One recorded execution of an [`Op`].
struct Sample {
    mode: AnswerMode,
    traced: bool,
    latency_ms: f64,
    first_page_ms: f64,
    output_rows: usize,
}

pub fn run(spec: &BulkSpec, args: &RunArgs) -> Outcome {
    // Set up several times, keeping the last: one set-up is too short to time
    // steadily on a shared machine.
    let mut setups: Vec<Setup> = Vec::new();
    for _ in 0..spec.setup_repeats {
        if let Some(previous) = setups.last_mut() {
            previous.graphs.clear();
        }
        setups.push(set_up(spec, args.seed));
    }
    let setup_s = median(&setups.iter().map(|s| s.generate_s + s.load_s).collect::<Vec<_>>());
    let graphs = std::mem::take(&mut setups.last_mut().expect("setup_repeats > 0").graphs);

    let ops: Vec<Op> = (0..spec.graphs)
        .flat_map(|graph| spec.queries.iter().map(move |&(query, text)| Op { graph, query, text }))
        .collect();

    let mut runner = QueryRunner::new(args.traced);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples: Vec<Vec<Sample>> = ops.iter().map(|_| Vec::new()).collect();
    let (mut plain_rounds, mut traced_rounds): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut tallies: Vec<Tally> = Vec::new();
    let mut rounds_run = 0usize;

    // One round: every op once.  The answer shape rotates with the graph and the
    // round, so each round has the same mix of shapes and three rounds put every
    // graph through all of them.
    let mut round = |runner: &mut QueryRunner, spans: bool, record: bool| {
        let from = runner.tracer.mark();
        let engine_obs = spans.then(EngineObs::read);
        let mut round_ms = 0.0;
        for (op, samples) in ops.iter().zip(&mut samples) {
            let mode = spec.modes[(op.graph + rounds_run) % spec.modes.len()];
            attempted += u64::from(record);
            match runner.run(&graphs[op.graph], op.text, mode, spans) {
                Ok(done) => {
                    round_ms += done.latency_ms;
                    if record {
                        samples.push(Sample {
                            mode,
                            traced: spans,
                            latency_ms: done.latency_ms,
                            first_page_ms: done.first_page_ms,
                            output_rows: done.delivered.output_rows(),
                        });
                    }
                }
                Err(error) => {
                    eprintln!("{} {} failed: {error}", op.query, mode.name());
                    failed += u64::from(record);
                }
            }
        }
        rounds_run += 1;
        if spans {
            let mut tally = runner.end_traced_round(from);
            engine_obs.expect("read when spans are on").diff_into(&mut tally);
            if record {
                tallies.push(tally);
            }
        }
        if record {
            if spans { &mut traced_rounds } else { &mut plain_rounds }.push(round_ms);
        }
    };

    for _ in 0..spec.warmup_rounds {
        round(&mut runner, false, false);
    }
    if args.traced {
        round(&mut runner, true, false);
    }
    // A traced run alternates plain and traced rounds, so both see the same
    // machine and their difference is the tracing overhead.
    let measure = Stopwatch::start();
    let mut measured = 0usize;
    while measured < 2 || measure.elapsed().as_secs_f64() < args.seconds {
        round(&mut runner, args.traced && measured % 2 == 1, true);
        measured += 1;
    }

    // Reference answers, untimed.  Per (graph, query): the table, which every
    // timed operation must match in size and the pinned digest in content; on
    // graph 0 also the drained cursor and the compact answers, which must agree
    // with the table.
    let mut digests = Digests::new();
    let (mut table_rows, mut pairs) = (0usize, 0usize);
    let mut bad_keys: Vec<String> = Vec::new();
    let key_of = |op: &Op| format!("g{}.{}", op.graph, op.query);
    for (op, samples) in ops.iter().zip(&samples) {
        let mut deliver =
            |mode| runner.run(&graphs[op.graph], op.text, mode, false).map(|done| done.delivered);
        let Ok(Delivered::Table(table)) = deliver(AnswerMode::Materialized) else {
            bad_keys.push(key_of(op));
            continue;
        };
        let projected = CompactAnswers::from_table(&table);
        let shapes_agree = op.graph != 0
            || matches!(
                (deliver(AnswerMode::Enumerate), deliver(AnswerMode::Compact)),
                (Ok(Delivered::Streamed(streamed)), Ok(Delivered::Compact(compact)))
                    if table.rows() == streamed.as_slice() && projected == compact
            );
        let sizes_hold = samples.iter().all(|sample| {
            sample.output_rows
                == match sample.mode {
                    AnswerMode::Compact => projected.num_pairs(),
                    _ => table.len(),
                }
        });
        if !(shapes_agree && sizes_hold) {
            bad_keys.push(key_of(op));
        }
        table_rows += table.len();
        pairs += projected.num_pairs();
        digests.insert(key_of(op), check::digest_table(&table));
    }
    bad_keys.extend(check::against_pins(args, spec.name, &digests));
    bad_keys.sort();
    bad_keys.dedup();
    // A wrong answer fails every operation that computed it.
    for (op, samples) in ops.iter().zip(&samples) {
        if bad_keys.contains(&key_of(op)) {
            failed += samples.len() as u64;
        }
    }
    failed = failed.min(attempted);

    // The untraced samples of one class of operation.
    let plain = |keep: &dyn Fn(&Op, &Sample) -> bool, first_page: bool| -> Vec<f64> {
        ops.iter()
            .zip(&samples)
            .flat_map(|(op, samples)| samples.iter().map(move |sample| (op, sample)))
            .filter(|(op, sample)| !sample.traced && keep(op, sample))
            .map(|(_, sample)| if first_page { sample.first_page_ms } else { sample.latency_ms })
            .collect()
    };
    let sampled = |op: &Op| spec.sampled_query.is_none_or(|q| q == op.query);
    // `op_ms_p50` is taken per graph and averaged over the graphs: the pooled
    // median of a few graphs is the middle graph, and swings with the seed.
    let op_ms_p50 = (0..spec.graphs)
        .map(|graph| median(&plain(&|op, _| op.graph == graph && sampled(op), false)))
        .sum::<f64>()
        / spec.graphs as f64;
    let pooled = plain(&|op, _| sampled(op), false);
    let plain_round_ms = median(&plain_rounds);
    let class_p50 = |query: &str, mode: AnswerMode, first_page: bool| {
        median(&plain(&|op, sample| op.query == query && sample.mode == mode, first_page))
    };

    let mut notes = vec![
        format!(
            "{}: {} graph(s) at {}, {} ops/round, {} plain + {} traced rounds, round {:.1} ms",
            spec.name,
            spec.graphs,
            spec.scale.name(),
            ops.len(),
            plain_rounds.len(),
            traced_rounds.len(),
            plain_round_ms
        ),
        format!(
            "latency samples: {} ({}); highest percentile with >=10 samples beyond it: {}",
            pooled.len(),
            spec.sampled_query.unwrap_or("all queries"),
            tail_note(&pooled)
        ),
    ];
    for &(query, _) in &spec.queries {
        let per_mode: Vec<String> = spec
            .modes
            .iter()
            .map(|&mode| format!("{} {:.3} ms", mode.name(), class_p50(query, mode, false)))
            .collect();
        notes.push(format!("  {query:<6} p50: {}", per_mode.join(", ")));
    }
    if !bad_keys.is_empty() {
        notes.push(format!("ANSWER CHECK FAILED for: {}", bad_keys.join(", ")));
    }

    let metrics = if args.traced {
        let mut layers = empty_layers();
        layers.insert(
            "workload.generate_s",
            median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>()),
        );
        layers.insert(
            "engine.relations.load_ms",
            median(&setups.iter().map(|s| s.load_s * 1e3).collect::<Vec<_>>()),
        );
        layers.insert("engine.relations.bytes_per_row", setups[0].bytes_per_row);
        layers.insert("op_ms_p95", quantile(&pooled, 0.95));
        query_layers(&tallies, &mut layers);
        layers.insert("engine.compact_ratio", table_rows as f64 / pairs as f64);
        // 0 on `adhoc-g6`, which runs neither query: the median of no samples.
        let (reach, recur) = (bench::REACH_QUERY_NAME, bench::RECUR_QUERY_NAME);
        let (table, cursor, compact) =
            (AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact);
        layers.insert("closure.reach_table_ms_p50", class_p50(reach, table, false));
        layers.insert("closure.recur_table_ms_p50", class_p50(recur, table, false));
        layers.insert("closure.recur_first_page_ms_p50", class_p50(recur, cursor, true));
        layers.insert("closure.recur_compact_ms_p50", class_p50(recur, compact, false));
        let reference = runner.run(&graphs[0], spec.queries[0].1, AnswerMode::Materialized, false);
        if let Ok(Delivered::Table(table)) = reference.map(|d| d.delivered) {
            kernels::dataflow_kernels(&graphs[0], table.rows(), &mut layers);
        }
        kernels::interval_set_kernels(&graphs[0], &mut layers);
        let traced_round_ms = median(&traced_rounds);
        layers.insert(
            "obs.telemetry_overhead_pct",
            (traced_round_ms - plain_round_ms) / plain_round_ms * 100.0,
        );
        // Layer self time of a traced round over the time of an untraced one,
        // which goes through `Query::run`: the two paths must do the same work.
        layers.insert("trace.coverage", median_of(&tallies, "layers_ns") / 1e6 / plain_round_ms);
        notes.push(format!(
            "schema summary {:.2} ms of a {:.2} ms median op; round: plain {:.1} ms, traced {:.1} ms (first page = {PAGE_ROWS} rows)",
            median_of(&tallies, "engine.schema_summary") / 1e6 / ops.len() as f64,
            op_ms_p50,
            plain_round_ms,
            traced_round_ms,
        ));
        crate::write_trace(spec.name, runner.tracer.spans());
        layers
    } else {
        Metrics::from([
            ("setup_s", setup_s),
            ("op_ms_p50", op_ms_p50),
            ("ops_per_s", ops.len() as f64 / (plain_round_ms / 1e3)),
        ])
    };
    Outcome { attempted, failed, metrics, notes }
}
