//! Seeded violation for the `flat-row-view` lint (never compiled; exercised
//! by `cargo run -p check -- --self-test`).

pub fn rows_seen(graph: &engine::GraphRelations) -> usize {
    // VIOLATION: the flat view copies every node row on its first call per
    // version; a refresh reads the row count through `graph.nodes().len()`.
    graph.node_rows().len()
}
