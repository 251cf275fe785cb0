//! The append-only delta log of the live-graph subsystem: [`Mutation`]s grouped
//! into epoched [`Batch`]es and applied incrementally onto an existing [`Itpg`].
//!
//! A live temporal graph is a sequence of batches, each stamped with a strictly
//! increasing epoch by its producer.  Every mutation is *additive at the graph
//! level* — objects are created, existence grows, property values are asserted
//! over intervals — which is what makes batch application cheap to validate: the
//! well-formedness conditions of Definition A.1 only need to be re-checked for
//! the objects a batch touches (existence never shrinks, so untouched objects
//! cannot become invalid).
//!
//! Mutations reference objects by their display *name* rather than by id, so a
//! batch is meaningful independently of the application order of earlier
//! mutations: within one batch, all [`Mutation::AddNode`]s are applied first (in
//! name order), then all [`Mutation::AddEdge`]s (in name order), then existence
//! extensions and property assignments.  Shuffling the mutations of a batch
//! therefore does not change the resulting graph, with one documented exception:
//! two [`Mutation::SetProperty`]s of the *same* property of the *same* object
//! with *overlapping* intervals are applied in mutation order (the later one
//! wins on the overlap).
//!
//! Application is transactional: [`Itpg::apply_batch`] validates the whole batch
//! against the graph *before* mutating anything, so a failed application leaves
//! the graph untouched.

use std::collections::BTreeMap;

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId, Object};
use crate::interval::Interval;
use crate::interval_set::IntervalSet;
use crate::itpg::{check_edge, check_support, IntervalObjectData, Itpg};
use crate::value::Value;

/// One mutation of a live temporal graph.  Objects are referenced by display
/// name (e.g. `"n7"`), which stays stable across batches.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Creates a node with the given display name and label (and, initially, an
    /// empty existence set).
    AddNode {
        /// Display name of the new node; must be globally unique.
        name: String,
        /// Label of the new node.
        label: String,
    },
    /// Creates an edge with the given display name, label and endpoint names.
    AddEdge {
        /// Display name of the new edge; must be globally unique.
        name: String,
        /// Label of the new edge.
        label: String,
        /// Display name of the source node (may be created in the same batch).
        src: String,
        /// Display name of the target node (may be created in the same batch).
        tgt: String,
    },
    /// Declares that an object exists during `interval`, in addition to any
    /// previously declared intervals (existence only ever grows).
    AddExistence {
        /// Display name of the node or edge.
        object: String,
        /// The interval to add to the object's existence set.
        interval: Interval,
    },
    /// Assigns a value to a property of an object over an interval.  The
    /// interval must lie within the object's existence *after* this batch.
    SetProperty {
        /// Display name of the node or edge.
        object: String,
        /// Property name.
        prop: String,
        /// The value holding over `interval`.
        value: Value,
        /// The validity interval of the assignment.
        interval: Interval,
    },
}

/// One epoch of the delta log: a set of mutations applied atomically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// The epoch stamp; consumers such as `live::LiveGraph` require epochs to be
    /// strictly increasing across batches.
    pub epoch: u64,
    /// The mutations of the batch (see the module docs for the application
    /// order within a batch).
    pub mutations: Vec<Mutation>,
}

impl Batch {
    /// Creates an empty batch with the given epoch stamp.
    pub fn new(epoch: u64) -> Self {
        Batch { epoch, mutations: Vec::new() }
    }

    /// True if the batch carries no mutations.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// The number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Appends an [`Mutation::AddNode`].
    pub fn add_node(&mut self, name: impl Into<String>, label: impl Into<String>) -> &mut Self {
        self.mutations.push(Mutation::AddNode { name: name.into(), label: label.into() });
        self
    }

    /// Appends an [`Mutation::AddEdge`].
    pub fn add_edge(
        &mut self,
        name: impl Into<String>,
        label: impl Into<String>,
        src: impl Into<String>,
        tgt: impl Into<String>,
    ) -> &mut Self {
        self.mutations.push(Mutation::AddEdge {
            name: name.into(),
            label: label.into(),
            src: src.into(),
            tgt: tgt.into(),
        });
        self
    }

    /// Appends an [`Mutation::AddExistence`].
    pub fn add_existence(&mut self, object: impl Into<String>, interval: Interval) -> &mut Self {
        self.mutations.push(Mutation::AddExistence { object: object.into(), interval });
        self
    }

    /// Appends a [`Mutation::SetProperty`].
    pub fn set_property(
        &mut self,
        object: impl Into<String>,
        prop: impl Into<String>,
        value: impl Into<Value>,
        interval: Interval,
    ) -> &mut Self {
        self.mutations.push(Mutation::SetProperty {
            object: object.into(),
            prop: prop.into(),
            value: value.into(),
            interval,
        });
        self
    }
}

/// The outcome of applying one batch: which objects were created, which were
/// touched (created, or had their existence or properties mutated), and at which
/// times.  The touched set is exactly what incremental consumers
/// (`GraphRelations::apply_delta`, live query maintenance) need to know; the
/// times tell live maintenance which snapshots the batch can have changed.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedBatch {
    /// The epoch stamp of the applied batch.
    pub epoch: u64,
    /// Objects created by the batch, in id order.
    pub created: Vec<Object>,
    /// Objects whose state changed (a superset of `created`), sorted and
    /// deduplicated.
    pub touched: Vec<Object>,
    /// The union of the batch's [`Mutation::AddExistence`] and
    /// [`Mutation::SetProperty`] intervals.  Creation adds no time (a new object
    /// exists nowhere yet) and existence only grows, so no object's state at a
    /// time outside this set differs from before the batch.
    pub times: IntervalSet,
}

impl Itpg {
    /// An empty interval-timestamped graph over the given temporal domain —
    /// the epoch-zero state of a live graph.
    pub fn empty(domain: Interval) -> Self {
        Itpg {
            domain,
            nodes: Vec::new(),
            edges: Vec::new(),
            endpoints: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            names: BTreeMap::new(),
        }
    }

    /// Applies a batch of mutations to this graph.
    ///
    /// The whole batch is validated first — unknown or duplicate names, edges
    /// existing outside their (prospective) endpoint existence, properties
    /// asserted outside the (prospective) object existence — and only then
    /// applied, so an `Err` leaves the graph unmodified.  The temporal domain
    /// grows automatically to the hull of every mentioned interval.
    pub fn apply_batch(&mut self, batch: &Batch) -> Result<AppliedBatch> {
        // ---- Phase 1: name resolution for objects created by this batch. ----
        // New nodes and edges are registered in name order, so the id
        // assignment is independent of the mutation order within the batch.
        let mut new_nodes: Vec<(&str, &str)> = Vec::new();
        let mut new_edges: Vec<(&str, &str, &str, &str)> = Vec::new();
        for m in &batch.mutations {
            match m {
                Mutation::AddNode { name, label } => new_nodes.push((name, label)),
                Mutation::AddEdge { name, label, src, tgt } => {
                    new_edges.push((name, label, src, tgt));
                }
                _ => {}
            }
        }
        new_nodes.sort_by_key(|(name, _)| *name);
        new_edges.sort_by_key(|(name, ..)| *name);

        let (first_node, first_edge) = (self.nodes.len(), self.edges.len());
        let mut created_names: BTreeMap<&str, Object> = BTreeMap::new();
        for (index, (name, _)) in new_nodes.iter().enumerate() {
            let object = Object::Node(NodeId((first_node + index) as u32));
            if self.names.contains_key(*name) || created_names.insert(name, object).is_some() {
                return Err(GraphError::DuplicateName((*name).to_owned()));
            }
        }
        for (index, (name, ..)) in new_edges.iter().enumerate() {
            let object = Object::Edge(EdgeId((first_edge + index) as u32));
            if self.names.contains_key(*name) || created_names.insert(name, object).is_some() {
                return Err(GraphError::DuplicateName((*name).to_owned()));
            }
        }
        let resolve = |name: &str| -> Result<Object> {
            self.names
                .get(name)
                .or_else(|| created_names.get(name))
                .copied()
                .ok_or_else(|| GraphError::UnknownName(name.to_owned()))
        };
        let resolve_node = |name: &str| -> Result<NodeId> {
            resolve(name)?.as_node().ok_or_else(|| GraphError::UnknownName(name.to_owned()))
        };

        // ---- Phase 2: validate the prospective state without mutating. ----
        // Endpoints, existence and property mutations are resolved here (in
        // creation and mutation order) so phase 3 can apply them without
        // re-borrowing the name maps.
        let new_endpoints = new_edges
            .iter()
            .map(|(_, _, src, tgt)| Ok((resolve_node(src)?, resolve_node(tgt)?)))
            .collect::<Result<Vec<(NodeId, NodeId)>>>()?;
        let mut existence_ops: Vec<(Object, Interval)> = Vec::new();
        let mut prop_ops: Vec<(Object, &str, &Value, Interval)> = Vec::new();
        for m in &batch.mutations {
            match m {
                Mutation::AddExistence { object, interval } => {
                    existence_ops.push((resolve(object)?, *interval));
                }
                Mutation::SetProperty { object, prop, value, interval } => {
                    prop_ops.push((resolve(object)?, prop, value, *interval));
                }
                Mutation::AddNode { .. } | Mutation::AddEdge { .. } => {}
            }
        }
        // The prospective existence of every object the batch grows: its
        // current existence, cloned once, plus the batch's intervals.  An
        // object created by the batch starts from the empty set.
        let nowhere = IntervalSet::empty();
        let current = |object: Object| -> &IntervalSet {
            let data = match object {
                Object::Node(n) => self.nodes.get(n.index()),
                Object::Edge(e) => self.edges.get(e.index()),
            };
            data.map_or(&nowhere, |data| &data.existence)
        };
        let mut grown: BTreeMap<Object, IntervalSet> = BTreeMap::new();
        for &(object, interval) in &existence_ops {
            grown.entry(object).or_insert_with(|| current(object).clone()).insert(interval);
        }
        let prospective = |object: Object| grown.get(&object).unwrap_or_else(|| current(object));
        for (&object, existence) in &grown {
            let Some(edge) = object.as_edge() else { continue };
            let endpoints = match edge.index().checked_sub(first_edge) {
                Some(created) => new_endpoints[created],
                None => self.endpoints[edge.index()],
            };
            check_edge(edge, existence, endpoints, |n| prospective(Object::Node(n)))?;
        }
        for &(object, prop, _, interval) in &prop_ops {
            check_support(object, prop, &[interval], prospective(object))?;
        }

        // ---- Phase 3: apply (infallible from here on). ----
        let mut created: Vec<Object> = Vec::with_capacity(new_nodes.len() + new_edges.len());
        for (index, (name, label)) in new_nodes.iter().enumerate() {
            let object = Object::Node(NodeId((first_node + index) as u32));
            created.push(object);
            self.names.insert((*name).to_owned(), object);
            self.nodes.push(IntervalObjectData::new(name, label));
            self.out_edges.push(Vec::new());
            self.in_edges.push(Vec::new());
        }
        for (index, ((name, label, ..), &(src, tgt))) in
            new_edges.iter().zip(&new_endpoints).enumerate()
        {
            let edge = EdgeId((first_edge + index) as u32);
            created.push(Object::Edge(edge));
            self.names.insert((*name).to_owned(), Object::Edge(edge));
            self.edges.push(IntervalObjectData::new(name, label));
            self.endpoints.push((src, tgt));
            self.out_edges[src.index()].push(edge);
            self.in_edges[tgt.index()].push(edge);
        }
        let mut touched: Vec<Object> = created.clone();
        let mut times = IntervalSet::empty();
        for &(_, interval) in &existence_ops {
            self.domain = self.domain.hull(&interval);
            times.insert(interval);
        }
        for (object, existence) in grown {
            self.data_mut(object).existence = existence;
            touched.push(object);
        }
        for &(object, prop, value, interval) in &prop_ops {
            self.domain = self.domain.hull(&interval);
            times.insert(interval);
            self.data_mut(object)
                .props
                .entry(prop.to_owned())
                .or_default()
                .assign(value.clone(), interval);
            touched.push(object);
        }
        touched.sort_unstable();
        touched.dedup();
        Ok(AppliedBatch { epoch: batch.epoch, created, touched, times })
    }

    fn data_mut(&mut self, object: Object) -> &mut IntervalObjectData {
        match object {
            Object::Node(n) => &mut self.nodes[n.index()],
            Object::Edge(e) => &mut self.edges[e.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itpg::ItpgBuilder;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    /// Rebuilds the `small_graph` of the itpg module tests batch by batch.
    fn batches() -> Vec<Batch> {
        let mut b1 = Batch::new(1);
        b1.add_node("n2", "Person")
            .add_node("n3", "Person")
            .add_existence("n2", iv(1, 4))
            .add_existence("n3", iv(1, 7))
            .set_property("n2", "risk", "low", iv(1, 4))
            .set_property("n2", "name", "Bob", iv(1, 4));
        let mut b2 = Batch::new(2);
        b2.add_edge("e2", "meets", "n2", "n3").add_existence("e2", iv(1, 2));
        let mut b3 = Batch::new(5);
        b3.add_existence("n2", iv(5, 9)).set_property("n2", "risk", "high", iv(5, 9)).set_property(
            "n2",
            "name",
            "Bob",
            iv(5, 9),
        );
        vec![b1, b2, b3]
    }

    #[test]
    fn batches_rebuild_the_bulk_graph() {
        let mut live = Itpg::empty(iv(1, 11));
        for batch in batches() {
            live.apply_batch(&batch).unwrap();
        }
        live.validate().unwrap();

        let mut b = ItpgBuilder::new();
        let n2 = b.add_node("n2", "Person").unwrap();
        let n3 = b.add_node("n3", "Person").unwrap();
        let e2 = b.add_edge("e2", "meets", n2, n3).unwrap();
        b.add_existence(n2, iv(1, 9)).unwrap();
        b.add_existence(n3, iv(1, 7)).unwrap();
        b.add_existence(e2, iv(1, 2)).unwrap();
        b.set_property(n2, "risk", "low", iv(1, 4)).unwrap();
        b.set_property(n2, "risk", "high", iv(5, 9)).unwrap();
        b.set_property(n2, "name", "Bob", iv(1, 9)).unwrap();
        let bulk = b.domain(iv(1, 11)).build().unwrap();
        assert_eq!(live, bulk);
    }

    #[test]
    fn applied_batches_report_created_and_touched_objects() {
        let mut live = Itpg::empty(iv(1, 11));
        let all = batches();
        let first = live.apply_batch(&all[0]).unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.created.len(), 2);
        assert_eq!(first.touched, first.created);
        let second = live.apply_batch(&all[1]).unwrap();
        assert_eq!(second.created, vec![Object::Edge(EdgeId(0))]);
        let third = live.apply_batch(&all[2]).unwrap();
        assert!(third.created.is_empty());
        assert_eq!(third.touched, vec![Object::Node(NodeId(0))]);
        // Existence extensions coalesce: n2 is now one maximal interval.
        assert_eq!(live.existence(Object::Node(NodeId(0))).intervals(), &[iv(1, 9)]);
    }

    #[test]
    fn applied_batches_report_the_times_they_changed() {
        let mut g = Itpg::empty(iv(1, 20));
        // Creation alone changes no snapshot.
        let mut create = Batch::new(1);
        create.add_node("a", "Person").add_node("b", "Person").add_edge("e", "meets", "a", "b");
        assert!(g.apply_batch(&create).unwrap().times.is_empty());

        // Overlapping and adjacent intervals coalesce; a gap stays a gap.
        let mut grow = Batch::new(2);
        grow.add_existence("a", iv(1, 3))
            .set_property("a", "risk", "low", iv(2, 3))
            .add_existence("a", iv(2, 5))
            .add_existence("b", iv(6, 8))
            .add_existence("b", iv(11, 12))
            .set_property("b", "risk", "low", iv(12, 12));
        let applied = g.apply_batch(&grow).unwrap();
        assert_eq!(applied.times.intervals(), &[iv(1, 8), iv(11, 12)]);

        // A rejected batch reports nothing and changes nothing: the next batch
        // reports its own times only.
        let before = g.clone();
        let mut bad = Batch::new(3);
        bad.add_existence("a", iv(15, 16)).set_property("b", "risk", "high", iv(17, 18));
        assert!(g.apply_batch(&bad).is_err());
        assert_eq!(g, before);
        let mut flip = Batch::new(3);
        flip.set_property("b", "risk", "high", iv(7, 7));
        assert_eq!(g.apply_batch(&flip).unwrap().times.intervals(), &[iv(7, 7)]);
    }

    #[test]
    fn shuffled_batches_apply_identically() {
        // Node/edge creation order within a batch does not affect id assignment
        // (names are sorted first), and existence insertion is commutative.
        let mut forward = Batch::new(1);
        forward
            .add_node("a", "Person")
            .add_node("b", "Person")
            .add_edge("e", "meets", "a", "b")
            .add_existence("a", iv(1, 5))
            .add_existence("b", iv(1, 5))
            .add_existence("e", iv(2, 3));
        let mut reversed = Batch::new(1);
        reversed.mutations = forward.mutations.iter().rev().cloned().collect();
        let mut g1 = Itpg::empty(iv(1, 5));
        let mut g2 = Itpg::empty(iv(1, 5));
        g1.apply_batch(&forward).unwrap();
        g2.apply_batch(&reversed).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn invalid_batches_leave_the_graph_untouched() {
        let mut g = Itpg::empty(iv(1, 10));
        let mut setup = Batch::new(1);
        setup.add_node("a", "Person").add_existence("a", iv(1, 3));
        g.apply_batch(&setup).unwrap();
        let before = g.clone();

        // Unknown name.
        let mut bad = Batch::new(2);
        bad.add_existence("a", iv(4, 6)).add_existence("ghost", iv(1, 1));
        assert!(matches!(g.apply_batch(&bad), Err(GraphError::UnknownName(_))));
        assert_eq!(g, before);

        // Duplicate name.
        let mut dup = Batch::new(2);
        dup.add_node("a", "Person");
        assert!(matches!(g.apply_batch(&dup), Err(GraphError::DuplicateName(_))));
        assert_eq!(g, before);

        // Edge existence outside its endpoint's (prospective) existence.
        let mut dangling = Batch::new(2);
        dangling
            .add_node("b", "Person")
            .add_existence("b", iv(1, 9))
            .add_edge("e", "meets", "a", "b")
            .add_existence("e", iv(2, 5));
        assert!(matches!(g.apply_batch(&dangling), Err(GraphError::DanglingEdge { .. })));
        assert_eq!(g, before);

        // Property outside the object's (prospective) existence.
        let mut floating = Batch::new(2);
        floating.set_property("a", "risk", "low", iv(2, 6));
        assert!(matches!(
            g.apply_batch(&floating),
            Err(GraphError::PropertyWithoutExistence { .. })
        ));
        assert_eq!(g, before);

        // An edge to a name that is not a node.
        let mut not_node = Batch::new(2);
        not_node
            .add_node("c", "Person")
            .add_existence("c", iv(1, 3))
            .add_edge("e1", "meets", "a", "c")
            .add_existence("e1", iv(1, 2))
            .add_edge("e2", "meets", "a", "e1");
        assert!(matches!(g.apply_batch(&not_node), Err(GraphError::UnknownName(_))));
        assert_eq!(g, before);
    }

    #[test]
    fn dangling_edges_are_reported_at_their_first_uncovered_point() {
        // The edge exists over [2,6]; its endpoint `a` only over [1,4].
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let c = b.add_node("c", "Person").unwrap();
        let e = b.add_edge("e", "meets", a, c).unwrap();
        b.add_existence(a, iv(1, 4)).unwrap();
        b.add_existence(c, iv(1, 9)).unwrap();
        b.add_existence(e, iv(2, 6)).unwrap();
        let expected = GraphError::DanglingEdge { edge: e, endpoint: a, time: 5 };
        assert_eq!(b.build().unwrap_err(), expected);

        let mut batch = Batch::new(1);
        batch
            .add_node("a", "Person")
            .add_node("c", "Person")
            .add_edge("e", "meets", "a", "c")
            .add_existence("a", iv(1, 4))
            .add_existence("c", iv(1, 9))
            .add_existence("e", iv(2, 6));
        assert_eq!(Itpg::empty(iv(1, 9)).apply_batch(&batch).unwrap_err(), expected);
    }

    #[test]
    fn properties_without_existence_are_reported_at_their_first_uncovered_point() {
        // The property holds over [3,8]; its object exists only over [1,5].
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        b.add_existence(a, iv(1, 5)).unwrap();
        b.set_property(a, "risk", "low", iv(3, 8)).unwrap();
        let expected = GraphError::PropertyWithoutExistence {
            object: Object::Node(a),
            property: "risk".to_owned(),
            time: 6,
        };
        assert_eq!(b.build().unwrap_err(), expected);

        let mut batch = Batch::new(1);
        batch.add_node("a", "Person").add_existence("a", iv(1, 5)).set_property(
            "a",
            "risk",
            "low",
            iv(3, 8),
        );
        assert_eq!(Itpg::empty(iv(1, 9)).apply_batch(&batch).unwrap_err(), expected);
    }

    #[test]
    fn the_domain_grows_to_cover_mentioned_intervals() {
        let mut g = Itpg::empty(iv(5, 5));
        let mut b = Batch::new(1);
        b.add_node("a", "Person").add_existence("a", iv(2, 9));
        g.apply_batch(&b).unwrap();
        assert_eq!(g.domain(), iv(2, 9));
        g.validate().unwrap();
    }

    #[test]
    fn within_batch_edges_to_new_nodes_validate_prospectively() {
        let mut g = Itpg::empty(iv(0, 10));
        let mut b = Batch::new(1);
        // The edge's endpoints and their existence arrive in the same batch.
        b.add_edge("e", "meets", "x", "y")
            .add_existence("e", iv(3, 4))
            .add_node("y", "Person")
            .add_node("x", "Person")
            .add_existence("x", iv(1, 5))
            .add_existence("y", iv(3, 8));
        let applied = g.apply_batch(&b).unwrap();
        assert_eq!(applied.created.len(), 3);
        g.validate().unwrap();
        assert_eq!(g.src(g.edge_by_name("e").unwrap()), g.node_by_name("x").unwrap());
    }
}
