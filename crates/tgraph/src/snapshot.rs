//! Snapshots: the conventional (non-temporal) property graph describing the state of
//! a temporal property graph at a single time point.
//!
//! Snapshots make the *snapshot reducibility* design principle concrete: a TRPQ
//! without temporal navigation, evaluated at time `t`, must produce exactly the
//! bindings that the non-temporal query produces over the snapshot at `t`.

use std::collections::BTreeMap;

use crate::ids::{EdgeId, NodeId, Object};
use crate::interval::Time;
use crate::itpg::Itpg;
use crate::value::Value;

/// A node of a snapshot: label plus the property values holding at the snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotNode {
    /// Id of the node in the temporal graph.
    pub id: NodeId,
    /// Display name of the node.
    pub name: String,
    /// Label of the node.
    pub label: String,
    /// Property values at the snapshot time.
    pub properties: BTreeMap<String, Value>,
}

/// An edge of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEdge {
    /// Id of the edge in the temporal graph.
    pub id: EdgeId,
    /// Display name of the edge.
    pub name: String,
    /// Label of the edge.
    pub label: String,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub tgt: NodeId,
    /// Property values at the snapshot time.
    pub properties: BTreeMap<String, Value>,
}

/// A conventional property graph: the state of a temporal property graph at one time
/// point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The time point this snapshot corresponds to.
    pub time: Time,
    /// The nodes existing at that time.
    pub nodes: Vec<SnapshotNode>,
    /// The edges existing at that time.
    pub edges: Vec<SnapshotEdge>,
}

impl Snapshot {
    /// Looks up a snapshot node by its temporal-graph id.
    pub fn node(&self, id: NodeId) -> Option<&SnapshotNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Looks up a snapshot edge by its temporal-graph id.
    pub fn edge(&self, id: EdgeId) -> Option<&SnapshotEdge> {
        self.edges.iter().find(|e| e.id == id)
    }

    /// True if the snapshot contains the object.
    pub fn contains(&self, object: Object) -> bool {
        match object {
            Object::Node(n) => self.node(n).is_some(),
            Object::Edge(e) => self.edge(e).is_some(),
        }
    }
}

impl Itpg {
    /// Extracts the snapshot of the graph at time `t`.
    pub fn snapshot(&self, t: Time) -> Snapshot {
        let mut snapshot = Snapshot { time: t, ..Default::default() };
        for n in self.node_ids() {
            let o = Object::Node(n);
            if !self.exists_at(o, t) {
                continue;
            }
            let properties = self
                .properties(o)
                .filter_map(|(p, h)| h.value_at(t).cloned().map(|v| (p.to_owned(), v)))
                .collect();
            snapshot.nodes.push(SnapshotNode {
                id: n,
                name: self.name(o).to_owned(),
                label: self.label(o).to_owned(),
                properties,
            });
        }
        for e in self.edge_ids() {
            let o = Object::Edge(e);
            if !self.exists_at(o, t) {
                continue;
            }
            let properties = self
                .properties(o)
                .filter_map(|(p, h)| h.value_at(t).cloned().map(|v| (p.to_owned(), v)))
                .collect();
            snapshot.edges.push(SnapshotEdge {
                id: e,
                name: self.name(o).to_owned(),
                label: self.label(o).to_owned(),
                src: self.src(e),
                tgt: self.tgt(e),
                properties,
            });
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::itpg::ItpgBuilder;

    fn sample() -> Itpg {
        let mut b = ItpgBuilder::new();
        let p = b.add_node("p", "Person").unwrap();
        let r = b.add_node("r", "Room").unwrap();
        let e = b.add_edge("e", "visits", p, r).unwrap();
        b.add_existence(p, Interval::of(1, 9)).unwrap();
        b.add_existence(r, Interval::of(3, 8)).unwrap();
        b.add_existence(e, Interval::of(5, 6)).unwrap();
        b.set_property(p, "risk", "low", Interval::of(1, 4)).unwrap();
        b.set_property(p, "risk", "high", Interval::of(5, 9)).unwrap();
        b.domain(Interval::of(1, 11)).build().unwrap()
    }

    #[test]
    fn snapshot_contains_only_existing_objects() {
        let g = sample();
        let s2 = g.snapshot(2);
        assert_eq!(s2.nodes.len(), 1);
        assert!(s2.edges.is_empty());
        assert!(s2.contains(Object::Node(NodeId(0))));
        assert!(!s2.contains(Object::Node(NodeId(1))));

        let s5 = g.snapshot(5);
        assert_eq!(s5.nodes.len(), 2);
        assert_eq!(s5.edges.len(), 1);
        assert_eq!(s5.edge(EdgeId(0)).unwrap().src, NodeId(0));

        let s10 = g.snapshot(10);
        assert!(s10.nodes.is_empty() && s10.edges.is_empty());
    }

    #[test]
    fn snapshot_carries_the_property_values_of_that_time() {
        let g = sample();
        assert_eq!(
            g.snapshot(4).node(NodeId(0)).unwrap().properties.get("risk"),
            Some(&Value::str("low"))
        );
        assert_eq!(
            g.snapshot(5).node(NodeId(0)).unwrap().properties.get("risk"),
            Some(&Value::str("high"))
        );
    }
}
