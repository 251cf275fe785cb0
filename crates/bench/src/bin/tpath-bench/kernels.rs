//! Layer kernels timed on real rows (traced runs only): the `dataflow` join,
//! coalesce and merge operators on a graph's edge ⋈ node rows, and `tgraph`'s
//! `IntervalSet` algebra on its existence sets.

use std::hint::black_box;

use dataflow::{
    coalesce, hash_join, interval_hash_join, interval_merge_join_gallop, kway_merge_dedup,
    merge_join_gallop,
};
use engine::bindings::Binding;
use engine::GraphRelations;
use obs::Stopwatch;
use tgraph::{IntervalSet, Object};

use crate::report::Metrics;
use crate::stats::median;

const REPEATS: usize = 5;

/// Median over [`REPEATS`] runs of `work`'s time per unit, in ns.
fn ns_per_unit<T>(units: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let watch = Stopwatch::start();
            black_box(work());
            watch.elapsed_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Edge rows ⋈ node rows on the edge's source node — the structural hop — in
/// each physical flavour, per input row; then coalescing of `(node, interval)`
/// rows and a k-way merge of `table_rows` cut into eight sorted runs.
pub fn dataflow_kernels(graph: &GraphRelations, table_rows: &[Vec<Binding>], layers: &mut Metrics) {
    let (edges, nodes) = (graph.edge_rows(), graph.node_rows());
    let inputs = edges.len() + nodes.len();
    layers.insert(
        "dataflow.hash_join_ns_per_row",
        ns_per_unit(inputs, || hash_join(edges, nodes, |e| e.src, |n| n.node).len()),
    );
    layers.insert(
        "dataflow.interval_hash_join_ns_per_row",
        ns_per_unit(inputs, || {
            interval_hash_join(edges, nodes, |e| e.src, |n| n.node, |e| e.interval, |n| n.interval)
                .len()
        }),
    );
    // The merge flavours run over the key-sorted row permutations, as in the engine.
    let (by_src, by_id) = (graph.edge_rows_sorted_by_src(), graph.node_rows_sorted_by_id());
    let (src, node) = (|&e: &u32| edges[e as usize].src, |&n: &u32| nodes[n as usize].node);
    layers.insert(
        "dataflow.merge_join_gallop_ns_per_row",
        ns_per_unit(inputs, || merge_join_gallop(by_src, by_id, src, node).len()),
    );
    layers.insert(
        "dataflow.interval_merge_join_gallop_ns_per_row",
        ns_per_unit(inputs, || {
            interval_merge_join_gallop(
                by_src,
                by_id,
                src,
                node,
                |&e| edges[e as usize].interval,
                |&n| nodes[n as usize].interval,
            )
            .len()
        }),
    );
    layers.insert(
        "dataflow.coalesce_ns_per_row",
        ns_per_unit(nodes.len(), || {
            coalesce(nodes.iter().map(|n| (n.node, n.interval)).collect()).len()
        }),
    );
    let run_len = table_rows.len().div_ceil(8).max(1);
    layers.insert(
        "dataflow.kway_merge_dedup_ns_per_row",
        ns_per_unit(table_rows.len(), || {
            kway_merge_dedup(table_rows.chunks(run_len).map(<[_]>::to_vec).collect()).len()
        }),
    );
}

/// Union, intersection and difference of the existence sets of every pair of
/// consecutive edges, per call.
pub fn interval_set_kernels(graph: &GraphRelations, layers: &mut Metrics) {
    let sets: Vec<&IntervalSet> = (0..graph.num_edges() as u32)
        .map(|e| graph.existence(Object::Edge(tgraph::EdgeId(e))))
        .collect();
    let pairs = sets.len().saturating_sub(1);
    let kernel = |op: fn(&IntervalSet, &IntervalSet) -> IntervalSet| {
        ns_per_unit(pairs, || {
            sets.windows(2).map(|w| op(w[0], w[1]).num_intervals()).sum::<usize>()
        })
    };
    layers.insert("tgraph.interval_set.union_ns", kernel(IntervalSet::union));
    layers.insert("tgraph.interval_set.intersection_ns", kernel(IntervalSet::intersection));
    layers.insert("tgraph.interval_set.difference_ns", kernel(IntervalSet::difference));
}
