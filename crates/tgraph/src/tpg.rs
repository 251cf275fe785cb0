//! The point-timestamped temporal property graph (TPG) of Definition III.1.
//!
//! A TPG is a tuple `G = (Ω, N, E, ρ, λ, ξ, σ)` where `Ω` is a finite set of
//! consecutive time points, `ρ` maps edges to their source and target nodes, `λ`
//! assigns labels, `ξ` tells whether an object exists at a time point, and `σ` gives
//! the value of a property of an object at a time point.  Two well-formedness
//! conditions are enforced: an edge may only exist at a time when both endpoints
//! exist, and a property may only have a value at a time when its object exists.

use std::collections::BTreeMap;

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId, Object, TemporalObject};
use crate::interval::{Interval, Time};
use crate::interval_set::IntervalSet;
use crate::value::Value;

/// Per-object payload shared by nodes and edges in the point-based representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PointObjectData {
    pub(crate) name: String,
    pub(crate) label: String,
    /// Existence function ξ restricted to this object, stored as the set of time
    /// points at which the object exists.
    pub(crate) existence: IntervalSet,
    /// Property function σ restricted to this object: property name → time → value.
    pub(crate) props: BTreeMap<String, BTreeMap<Time, Value>>,
}

/// A point-timestamped temporal property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Tpg {
    pub(crate) domain: Interval,
    pub(crate) nodes: Vec<PointObjectData>,
    pub(crate) edges: Vec<PointObjectData>,
    pub(crate) endpoints: Vec<(NodeId, NodeId)>,
    pub(crate) out_edges: Vec<Vec<EdgeId>>,
    pub(crate) in_edges: Vec<Vec<EdgeId>>,
    pub(crate) names: BTreeMap<String, Object>,
}

impl Tpg {
    /// The temporal domain Ω of the graph.
    pub fn domain(&self) -> Interval {
        self.domain
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The number of distinct (existing or non-existing) temporal objects
    /// `M = |Ω| · (|N| + |E|)`, the quantity the complexity bounds are stated in.
    pub fn temporal_object_count(&self) -> u64 {
        self.domain.num_points() * (self.nodes.len() + self.edges.len()) as u64
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over all objects (nodes then edges).
    pub fn objects(&self) -> impl Iterator<Item = Object> + '_ {
        self.node_ids().map(Object::Node).chain(self.edge_ids().map(Object::Edge))
    }

    /// Iterates over all temporal objects `(o, t)` with `t ∈ Ω`.
    pub fn temporal_objects(&self) -> impl Iterator<Item = TemporalObject> + '_ {
        self.objects()
            .flat_map(move |o| self.domain.points().map(move |t| TemporalObject::new(o, t)))
    }

    fn data(&self, object: Object) -> &PointObjectData {
        match object {
            Object::Node(n) => &self.nodes[n.index()],
            Object::Edge(e) => &self.edges[e.index()],
        }
    }

    /// Returns the object registered under the given display name (e.g. `"n1"`).
    pub fn object_by_name(&self, name: &str) -> Option<Object> {
        self.names.get(name).copied()
    }

    /// Returns the node registered under the given display name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.object_by_name(name).and_then(Object::as_node)
    }

    /// Returns the edge registered under the given display name.
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.object_by_name(name).and_then(Object::as_edge)
    }

    /// The display name of an object.
    pub fn name(&self, object: Object) -> &str {
        &self.data(object).name
    }

    /// The label λ(o) of an object.
    pub fn label(&self, object: Object) -> &str {
        &self.data(object).label
    }

    /// The existence function ξ: true if the object exists at time `t`.
    pub fn exists(&self, object: Object, t: Time) -> bool {
        self.data(object).existence.contains(t)
    }

    /// The full existence set of an object as a coalesced interval set.
    pub fn existence(&self, object: Object) -> &IntervalSet {
        &self.data(object).existence
    }

    /// The property function σ: the value of property `prop` of `object` at time `t`,
    /// if defined.
    pub fn prop_value(&self, object: Object, prop: &str, t: Time) -> Option<&Value> {
        self.data(object).props.get(prop).and_then(|m| m.get(&t))
    }

    /// Iterates over the property names defined for an object (at any time).
    pub fn property_names(&self, object: Object) -> impl Iterator<Item = &str> + '_ {
        self.data(object).props.keys().map(String::as_str)
    }

    /// The point-wise history of one property of an object.
    pub fn property_history(&self, object: Object, prop: &str) -> Option<&BTreeMap<Time, Value>> {
        self.data(object).props.get(prop)
    }

    /// The source node of an edge (`src(e)` where `ρ(e) = (src, tgt)`).
    pub fn src(&self, edge: EdgeId) -> NodeId {
        self.endpoints[edge.index()].0
    }

    /// The target node of an edge.
    pub fn tgt(&self, edge: EdgeId) -> NodeId {
        self.endpoints[edge.index()].1
    }

    /// The edges whose source is `node`.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// The edges whose target is `node`.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// Validates the well-formedness conditions of Definition III.1.
    pub fn validate(&self) -> Result<()> {
        for (idx, edge) in self.edges.iter().enumerate() {
            let eid = EdgeId(idx as u32);
            let (src, tgt) = self.endpoints[idx];
            for t in edge.existence.points() {
                if !self.domain.contains(t) {
                    return Err(GraphError::OutsideDomain { object: Object::Edge(eid), time: t });
                }
                for endpoint in [src, tgt] {
                    if !self.nodes[endpoint.index()].existence.contains(t) {
                        return Err(GraphError::DanglingEdge { edge: eid, endpoint, time: t });
                    }
                }
            }
        }
        for object in self.objects().collect::<Vec<_>>() {
            let data = self.data(object);
            for t in data.existence.points() {
                if !self.domain.contains(t) {
                    return Err(GraphError::OutsideDomain { object, time: t });
                }
            }
            for (prop, history) in &data.props {
                for &t in history.keys() {
                    if !data.existence.contains(t) {
                        return Err(GraphError::PropertyWithoutExistence {
                            object,
                            property: prop.clone(),
                            time: t,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for point-timestamped TPGs.
///
/// The temporal domain is either set explicitly with [`TpgBuilder::domain`] or derived
/// from the earliest and latest time points mentioned while building.
#[derive(Debug, Default)]
pub struct TpgBuilder {
    domain: Option<Interval>,
    nodes: Vec<PointObjectData>,
    edges: Vec<PointObjectData>,
    endpoints: Vec<(NodeId, NodeId)>,
    names: BTreeMap<String, Object>,
    min_time: Option<Time>,
    max_time: Option<Time>,
}

impl TpgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TpgBuilder::default()
    }

    /// Sets the temporal domain Ω explicitly.
    pub fn domain(mut self, domain: Interval) -> Self {
        self.domain = Some(domain);
        self
    }

    fn note_time(&mut self, t: Time) {
        self.min_time = Some(self.min_time.map_or(t, |m| m.min(t)));
        self.max_time = Some(self.max_time.map_or(t, |m| m.max(t)));
    }

    fn register_name(&mut self, name: &str, object: Object) -> Result<()> {
        if self.names.insert(name.to_owned(), object).is_some() {
            return Err(GraphError::DuplicateName(name.to_owned()));
        }
        Ok(())
    }

    /// Adds a node with the given display name and label.
    pub fn add_node(&mut self, name: &str, label: &str) -> Result<NodeId> {
        let id = NodeId(self.nodes.len() as u32);
        self.register_name(name, Object::Node(id))?;
        self.nodes.push(PointObjectData {
            name: name.to_owned(),
            label: label.to_owned(),
            existence: IntervalSet::empty(),
            props: BTreeMap::new(),
        });
        Ok(id)
    }

    /// Adds an edge with the given display name, label and endpoints.
    pub fn add_edge(
        &mut self,
        name: &str,
        label: &str,
        src: NodeId,
        tgt: NodeId,
    ) -> Result<EdgeId> {
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src));
        }
        if tgt.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(tgt));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.register_name(name, Object::Edge(id))?;
        self.edges.push(PointObjectData {
            name: name.to_owned(),
            label: label.to_owned(),
            existence: IntervalSet::empty(),
            props: BTreeMap::new(),
        });
        self.endpoints.push((src, tgt));
        Ok(id)
    }

    fn data_mut(&mut self, object: Object) -> Result<&mut PointObjectData> {
        match object {
            Object::Node(n) => self.nodes.get_mut(n.index()).ok_or(GraphError::UnknownNode(n)),
            Object::Edge(e) => self.edges.get_mut(e.index()).ok_or(GraphError::UnknownEdge(e)),
        }
    }

    /// Declares that the object exists at the single time point `t`.
    pub fn set_exists(&mut self, object: impl Into<Object>, t: Time) -> Result<()> {
        self.note_time(t);
        self.data_mut(object.into())?.existence.insert_point(t);
        Ok(())
    }

    /// Declares that the object exists at every time point of `interval`.
    pub fn set_exists_during(
        &mut self,
        object: impl Into<Object>,
        interval: Interval,
    ) -> Result<()> {
        self.note_time(interval.start());
        self.note_time(interval.end());
        self.data_mut(object.into())?.existence.insert(interval);
        Ok(())
    }

    /// Sets the value of a property at a single time point.
    pub fn set_prop(
        &mut self,
        object: impl Into<Object>,
        prop: &str,
        t: Time,
        value: impl Into<Value>,
    ) -> Result<()> {
        self.note_time(t);
        let data = self.data_mut(object.into())?;
        data.props.entry(prop.to_owned()).or_default().insert(t, value.into());
        Ok(())
    }

    /// Sets the value of a property at every time point of `interval`.
    pub fn set_prop_during(
        &mut self,
        object: impl Into<Object>,
        prop: &str,
        interval: Interval,
        value: impl Into<Value>,
    ) -> Result<()> {
        let value = value.into();
        self.note_time(interval.start());
        self.note_time(interval.end());
        let data = self.data_mut(object.into())?;
        let history = data.props.entry(prop.to_owned()).or_default();
        for t in interval.points() {
            history.insert(t, value.clone());
        }
        Ok(())
    }

    /// Finishes building, validates the graph and returns it.
    pub fn build(self) -> Result<Tpg> {
        let domain = match self.domain {
            Some(d) => d,
            None => match (self.min_time, self.max_time) {
                (Some(a), Some(b)) => Interval::of(a, b),
                _ => return Err(GraphError::EmptyDomain),
            },
        };
        let mut out_edges = vec![Vec::new(); self.nodes.len()];
        let mut in_edges = vec![Vec::new(); self.nodes.len()];
        for (idx, &(src, tgt)) in self.endpoints.iter().enumerate() {
            out_edges[src.index()].push(EdgeId(idx as u32));
            in_edges[tgt.index()].push(EdgeId(idx as u32));
        }
        let graph = Tpg {
            domain,
            nodes: self.nodes,
            edges: self.edges,
            endpoints: self.endpoints,
            out_edges,
            in_edges,
            names: self.names,
        };
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Tpg {
        let mut b = TpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let r = b.add_node("r", "Room").unwrap();
        let e = b.add_edge("e", "visits", a, r).unwrap();
        b.set_exists_during(a, Interval::of(1, 5)).unwrap();
        b.set_exists_during(r, Interval::of(2, 6)).unwrap();
        b.set_exists_during(e, Interval::of(3, 4)).unwrap();
        b.set_prop_during(a, "risk", Interval::of(1, 3), "low").unwrap();
        b.set_prop_during(a, "risk", Interval::of(4, 5), "high").unwrap();
        b.domain(Interval::of(1, 6)).build().unwrap()
    }

    #[test]
    fn builder_produces_valid_graph() {
        let g = small_graph();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.domain(), Interval::of(1, 6));
        assert_eq!(g.temporal_object_count(), 6 * 3);
        assert_eq!(g.label(Object::Node(NodeId(0))), "Person");
        assert_eq!(g.label(Object::Edge(EdgeId(0))), "visits");
        assert_eq!(g.name(Object::Node(NodeId(1))), "r");
        assert_eq!(g.node_by_name("a"), Some(NodeId(0)));
        assert_eq!(g.edge_by_name("e"), Some(EdgeId(0)));
        assert_eq!(g.node_by_name("zzz"), None);
    }

    #[test]
    fn existence_and_properties() {
        let g = small_graph();
        let a = Object::Node(NodeId(0));
        assert!(g.exists(a, 1) && g.exists(a, 5));
        assert!(!g.exists(a, 6));
        assert_eq!(g.prop_value(a, "risk", 3), Some(&Value::str("low")));
        assert_eq!(g.prop_value(a, "risk", 4), Some(&Value::str("high")));
        assert_eq!(g.prop_value(a, "risk", 6), None);
        assert_eq!(g.prop_value(a, "name", 1), None);
        assert_eq!(g.property_names(a).collect::<Vec<_>>(), vec!["risk"]);
    }

    #[test]
    fn adjacency() {
        let g = small_graph();
        assert_eq!(g.src(EdgeId(0)), NodeId(0));
        assert_eq!(g.tgt(EdgeId(0)), NodeId(1));
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0)]);
        assert_eq!(g.in_edges(NodeId(1)), &[EdgeId(0)]);
        assert!(g.out_edges(NodeId(1)).is_empty());
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let mut b = TpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let r = b.add_node("r", "Room").unwrap();
        let e = b.add_edge("e", "visits", a, r).unwrap();
        b.set_exists_during(a, Interval::of(1, 2)).unwrap();
        b.set_exists_during(r, Interval::of(1, 2)).unwrap();
        // Edge exists at time 3 when neither endpoint exists.
        b.set_exists(e, 3).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, GraphError::DanglingEdge { .. }));
    }

    #[test]
    fn property_without_existence_is_rejected() {
        let mut b = TpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        b.set_exists_during(a, Interval::of(1, 2)).unwrap();
        b.set_prop(a, "risk", 5, "low").unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, GraphError::PropertyWithoutExistence { .. }));
    }

    #[test]
    fn duplicate_names_and_unknown_endpoints_are_rejected() {
        let mut b = TpgBuilder::new();
        b.add_node("a", "Person").unwrap();
        assert!(matches!(b.add_node("a", "Person"), Err(GraphError::DuplicateName(_))));
        assert!(matches!(
            b.add_edge("e", "meets", NodeId(0), NodeId(9)),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn empty_builder_has_no_domain() {
        assert!(matches!(TpgBuilder::new().build(), Err(GraphError::EmptyDomain)));
    }

    #[test]
    fn explicit_domain_bounds_are_enforced() {
        let mut b = TpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        b.set_exists(a, 10).unwrap();
        let err = b.domain(Interval::of(1, 5)).build().unwrap_err();
        assert!(matches!(err, GraphError::OutsideDomain { .. }));
    }
}
