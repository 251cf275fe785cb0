//! The interval-timestamped temporal property graph (ITPG) of Appendix A
//! (Definition A.1): a succinct representation of a TPG where the existence of each
//! object is a coalesced family of intervals and each property history is a coalesced
//! family of valued intervals.

use std::collections::BTreeMap;

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId, Object};
use crate::interval::{Interval, Time};
use crate::interval_set::IntervalSet;
use crate::value::Value;
use crate::valued::ValuedIntervals;

/// Per-object payload shared by nodes and edges in the interval-based representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IntervalObjectData {
    pub(crate) name: String,
    pub(crate) label: String,
    /// ξ(o): coalesced set of maximal intervals during which the object exists.
    pub(crate) existence: IntervalSet,
    /// σ(o, p): property name → coalesced valued-interval history.
    pub(crate) props: BTreeMap<String, ValuedIntervals>,
}

impl IntervalObjectData {
    /// A new object: it exists nowhere and has no properties yet.
    pub(crate) fn new(name: &str, label: &str) -> Self {
        IntervalObjectData {
            name: name.to_owned(),
            label: label.to_owned(),
            existence: IntervalSet::empty(),
            props: BTreeMap::new(),
        }
    }
}

/// Definition A.1's condition on edges: an edge exists only while both its
/// endpoints do.  Reports the first time point at which `edge` exists and an
/// endpoint does not.  [`Itpg::validate`], [`Itpg::apply_batch`] and every
/// other writer of a graph check edges with it.
pub fn check_edge<'a>(
    edge: EdgeId,
    existence: &IntervalSet,
    (src, tgt): (NodeId, NodeId),
    node_existence: impl Fn(NodeId) -> &'a IntervalSet,
) -> Result<()> {
    for endpoint in [src, tgt] {
        if let Some(time) = node_existence(endpoint).first_missing(existence.intervals()) {
            return Err(GraphError::DanglingEdge { edge, endpoint, time });
        }
    }
    Ok(())
}

/// Definition A.1's condition on properties: a property has a value only while
/// its object exists.  Reports the first time point of `support` (sorted,
/// disjoint intervals) outside `existence`.  [`Itpg::validate`],
/// [`Itpg::apply_batch`] and every other writer of a graph check properties
/// with it.
pub fn check_support(
    object: Object,
    property: &str,
    support: &[Interval],
    existence: &IntervalSet,
) -> Result<()> {
    match existence.first_missing(support) {
        Some(time) => Err(GraphError::PropertyWithoutExistence {
            object,
            property: property.to_owned(),
            time,
        }),
        None => Ok(()),
    }
}

/// An interval-timestamped temporal property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Itpg {
    pub(crate) domain: Interval,
    pub(crate) nodes: Vec<IntervalObjectData>,
    pub(crate) edges: Vec<IntervalObjectData>,
    pub(crate) endpoints: Vec<(NodeId, NodeId)>,
    pub(crate) out_edges: Vec<Vec<EdgeId>>,
    pub(crate) in_edges: Vec<Vec<EdgeId>>,
    pub(crate) names: BTreeMap<String, Object>,
}

impl Itpg {
    /// The temporal domain Ω of the graph (an interval of ℕ).
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

    /// The number of *temporal* nodes: one per maximal state of a node, i.e. one per
    /// distinct `(existence interval × property change)` segment.  This is the
    /// quantity reported in Table I of the paper ("# temp. nodes").
    pub fn num_temporal_nodes(&self) -> usize {
        self.node_ids().map(|n| self.segments(Object::Node(n)).len()).sum()
    }

    /// The number of temporal edges (see [`Itpg::num_temporal_nodes`]).
    pub fn num_temporal_edges(&self) -> usize {
        self.edge_ids().map(|e| self.segments(Object::Edge(e)).len()).sum()
    }

    /// The maximal "no change occurred" segments of an object, in time order: its
    /// existence intervals split at every property-change boundary, so that no
    /// property value changes within one.  A segment may end at [`Time::MAX`].
    pub fn segments(&self, object: Object) -> Vec<Interval> {
        let data = self.data(object);
        // Every segment starts at a boundary; the point after `Time::MAX` is none.
        let mut boundaries: Vec<Time> = Vec::new();
        let histories = data.props.values().flat_map(|history| history.entries());
        for iv in data.existence.intervals().iter().chain(histories.map(|(_, iv)| iv)) {
            boundaries.push(iv.start());
            boundaries.extend(iv.end().checked_add(1));
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        // A segment runs from a boundary inside the existence set to the next one.
        let ends = boundaries.iter().skip(1).map(|&next| next - 1).chain([Time::MAX]);
        boundaries
            .iter()
            .zip(ends)
            .filter(|&(&start, _)| data.existence.contains(start))
            .map(|(&start, end)| Interval::of(start, end))
            .collect()
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

    pub(crate) fn data(&self, object: Object) -> &IntervalObjectData {
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

    /// The coalesced existence intervals ξ(o) of an object.
    pub fn existence(&self, object: Object) -> &IntervalSet {
        &self.data(object).existence
    }

    /// True if the object exists at time `t`.
    pub fn exists_at(&self, object: Object, t: Time) -> bool {
        self.data(object).existence.contains(t)
    }

    /// The coalesced valued-interval history σ(o, p) of a property, if the property is
    /// ever defined for the object.
    pub fn property(&self, object: Object, prop: &str) -> Option<&ValuedIntervals> {
        self.data(object).props.get(prop)
    }

    /// The value of property `prop` of `object` at time `t`, if defined.
    pub fn prop_value_at(&self, object: Object, prop: &str, t: Time) -> Option<&Value> {
        self.property(object, prop).and_then(|h| h.value_at(t))
    }

    /// Iterates over `(property name, history)` pairs of an object, in name
    /// order.
    pub fn properties(
        &self,
        object: Object,
    ) -> impl Iterator<Item = (&str, &ValuedIntervals)> + '_ {
        self.data(object).props.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The source node of an edge.
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

    /// Validates the well-formedness conditions of Definition A.1: existence sets and
    /// property supports lie within the domain, edge existence is contained in the
    /// existence of both endpoints, property support is contained in the object's
    /// existence, and all families are coalesced.  An error names the first time
    /// point at which a condition fails.
    pub fn validate(&self) -> Result<()> {
        for (idx, (edge, &endpoints)) in self.edges.iter().zip(&self.endpoints).enumerate() {
            check_edge(EdgeId(idx as u32), &edge.existence, endpoints, |n| {
                &self.nodes[n.index()].existence
            })?;
        }
        let domain_set = IntervalSet::from_interval(self.domain);
        for object in self.objects() {
            let data = self.data(object);
            debug_assert!(data.existence.is_coalesced());
            if let Some(time) = data.existence.difference(&domain_set).min() {
                return Err(GraphError::OutsideDomain { object, time });
            }
            for (prop, history) in &data.props {
                debug_assert!(history.is_coalesced());
                check_support(object, prop, history.support().intervals(), &data.existence)?;
            }
        }
        Ok(())
    }

    /// Restricts the graph to a temporal window, dropping all existence and property
    /// information outside `window` and shrinking the domain accordingly.  Objects
    /// that never exist inside the window are kept (with empty existence) so that ids
    /// remain stable.
    pub fn restrict_to(&self, window: Interval) -> Itpg {
        let domain = self.domain.intersect(&window).unwrap_or(window);
        let clamp = |data: &IntervalObjectData| -> IntervalObjectData {
            let existence = data.existence.clamp(&domain);
            let mut props = BTreeMap::new();
            for (prop, history) in &data.props {
                let mut clamped = ValuedIntervals::empty();
                for (value, iv) in history.entries() {
                    if let Some(x) = iv.intersect(&domain) {
                        clamped.assign(value.clone(), x);
                    }
                }
                if !clamped.is_empty() {
                    props.insert(prop.clone(), clamped);
                }
            }
            IntervalObjectData {
                name: data.name.clone(),
                label: data.label.clone(),
                existence,
                props,
            }
        };
        Itpg {
            domain,
            nodes: self.nodes.iter().map(&clamp).collect(),
            edges: self.edges.iter().map(&clamp).collect(),
            endpoints: self.endpoints.clone(),
            out_edges: self.out_edges.clone(),
            in_edges: self.in_edges.clone(),
            names: self.names.clone(),
        }
    }
}

/// Incremental builder for interval-timestamped TPGs.
#[derive(Debug, Default)]
pub struct ItpgBuilder {
    domain: Option<Interval>,
    nodes: Vec<IntervalObjectData>,
    edges: Vec<IntervalObjectData>,
    endpoints: Vec<(NodeId, NodeId)>,
    names: BTreeMap<String, Object>,
    min_time: Option<Time>,
    max_time: Option<Time>,
}

impl ItpgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ItpgBuilder::default()
    }

    /// Sets the temporal domain Ω explicitly; otherwise it is inferred from the
    /// intervals mentioned while building.
    pub fn domain(mut self, domain: Interval) -> Self {
        self.domain = Some(domain);
        self
    }

    fn note_interval(&mut self, interval: Interval) {
        self.min_time = Some(self.min_time.map_or(interval.start(), |m| m.min(interval.start())));
        self.max_time = Some(self.max_time.map_or(interval.end(), |m| m.max(interval.end())));
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
        self.nodes.push(IntervalObjectData::new(name, label));
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
        self.edges.push(IntervalObjectData::new(name, label));
        self.endpoints.push((src, tgt));
        Ok(id)
    }

    fn data_mut(&mut self, object: Object) -> Result<&mut IntervalObjectData> {
        match object {
            Object::Node(n) => self.nodes.get_mut(n.index()).ok_or(GraphError::UnknownNode(n)),
            Object::Edge(e) => self.edges.get_mut(e.index()).ok_or(GraphError::UnknownEdge(e)),
        }
    }

    /// Declares that the object exists during `interval` (in addition to any
    /// previously declared intervals; the existence set stays coalesced).
    pub fn add_existence(&mut self, object: impl Into<Object>, interval: Interval) -> Result<()> {
        self.note_interval(interval);
        self.data_mut(object.into())?.existence.insert(interval);
        Ok(())
    }

    /// Assigns `value` to property `prop` of the object during `interval`.
    pub fn set_property(
        &mut self,
        object: impl Into<Object>,
        prop: &str,
        value: impl Into<Value>,
        interval: Interval,
    ) -> Result<()> {
        self.note_interval(interval);
        let data = self.data_mut(object.into())?;
        data.props.entry(prop.to_owned()).or_default().assign(value.into(), interval);
        Ok(())
    }

    /// Finishes building, validates the graph and returns it.
    pub fn build(self) -> Result<Itpg> {
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
        let graph = Itpg {
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

    fn iv(a: Time, b: Time) -> Interval {
        Interval::of(a, b)
    }

    fn small_graph() -> Itpg {
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
        b.domain(iv(1, 11)).build().unwrap()
    }

    #[test]
    fn segments_reach_the_end_of_time() {
        let mut b = ItpgBuilder::new();
        let ann = b.add_node("ann", "Person").unwrap();
        b.add_existence(ann, iv(5, Time::MAX)).unwrap();
        b.set_property(ann, "risk", "low", iv(9, Time::MAX)).unwrap();
        let g = b.domain(iv(0, Time::MAX)).build().unwrap();
        let ann = Object::Node(ann);
        assert_eq!(g.segments(ann), [iv(5, 8), iv(9, Time::MAX)]);
        assert_eq!(g.num_temporal_nodes(), 2);
    }

    #[test]
    fn running_example_fragment() {
        // Mirrors the ITPG fragment spelled out in Appendix A for Figure 1.
        let g = small_graph();
        let n2 = Object::Node(g.node_by_name("n2").unwrap());
        let n3 = Object::Node(g.node_by_name("n3").unwrap());
        let e2 = Object::Edge(g.edge_by_name("e2").unwrap());
        assert_eq!(g.domain(), iv(1, 11));
        assert_eq!(g.existence(n2).intervals(), &[iv(1, 9)]);
        assert_eq!(g.existence(n3).intervals(), &[iv(1, 7)]);
        assert_eq!(g.existence(e2).intervals(), &[iv(1, 2)]);
        assert!(g.existence(e2).contained_in(g.existence(n2)));
        assert!(g.existence(e2).contained_in(g.existence(n3)));
        let risk = g.property(n2, "risk").unwrap();
        assert_eq!(
            risk.entries(),
            &[(Value::str("low"), iv(1, 4)), (Value::str("high"), iv(5, 9))]
        );
        assert_eq!(g.prop_value_at(n2, "risk", 4), Some(&Value::str("low")));
        assert_eq!(g.prop_value_at(n2, "risk", 5), Some(&Value::str("high")));
        assert_eq!(g.prop_value_at(n2, "risk", 10), None);
    }

    #[test]
    fn temporal_counts() {
        let g = small_graph();
        // n2 changes risk at time 5 → two segments; n3 has one; e2 has one.
        assert_eq!(g.num_temporal_nodes(), 3);
        assert_eq!(g.num_temporal_edges(), 1);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adjacency_and_names() {
        let g = small_graph();
        let n2 = g.node_by_name("n2").unwrap();
        let n3 = g.node_by_name("n3").unwrap();
        let e2 = g.edge_by_name("e2").unwrap();
        assert_eq!(g.src(e2), n2);
        assert_eq!(g.tgt(e2), n3);
        assert_eq!(g.out_edges(n2), &[e2]);
        assert_eq!(g.in_edges(n3), &[e2]);
        assert_eq!(g.name(Object::Edge(e2)), "e2");
        assert_eq!(g.label(Object::Edge(e2)), "meets");
    }

    #[test]
    fn edge_outside_endpoint_existence_is_rejected() {
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        let c = b.add_node("c", "Person").unwrap();
        let e = b.add_edge("e", "meets", a, c).unwrap();
        b.add_existence(a, iv(1, 3)).unwrap();
        b.add_existence(c, iv(1, 5)).unwrap();
        b.add_existence(e, iv(2, 5)).unwrap();
        assert!(matches!(b.build(), Err(GraphError::DanglingEdge { .. })));
    }

    #[test]
    fn property_outside_existence_is_rejected() {
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        b.add_existence(a, iv(1, 3)).unwrap();
        b.set_property(a, "risk", "low", iv(2, 6)).unwrap();
        assert!(matches!(b.build(), Err(GraphError::PropertyWithoutExistence { .. })));
    }

    #[test]
    fn restrict_to_window() {
        let mut b = ItpgBuilder::new();
        let p = b.add_node("p", "Person").unwrap();
        let r = b.add_node("r", "Room").unwrap();
        let e = b.add_edge("e", "visits", p, r).unwrap();
        b.add_existence(p, iv(1, 9)).unwrap();
        b.add_existence(r, iv(3, 8)).unwrap();
        b.add_existence(e, iv(5, 6)).unwrap();
        b.set_property(p, "risk", "low", iv(1, 4)).unwrap();
        b.set_property(p, "risk", "high", iv(5, 9)).unwrap();
        b.set_property(e, "loc", "park", iv(5, 6)).unwrap();
        let itpg = b.domain(iv(1, 11)).build().unwrap();
        let restricted = itpg.restrict_to(iv(4, 6));
        assert_eq!(restricted.domain(), iv(4, 6));
        let p = Object::Node(p);
        assert_eq!(restricted.existence(p).intervals(), &[iv(4, 6)]);
        assert_eq!(restricted.prop_value_at(p, "risk", 4).unwrap(), &Value::str("low"));
        assert_eq!(restricted.prop_value_at(p, "risk", 5).unwrap(), &Value::str("high"));
        assert_eq!(restricted.prop_value_at(p, "risk", 7), None);
        restricted.validate().unwrap();
    }

    #[test]
    fn existence_outside_domain_is_rejected() {
        let mut b = ItpgBuilder::new();
        let a = b.add_node("a", "Person").unwrap();
        b.add_existence(a, iv(1, 20)).unwrap();
        let err = b.domain(iv(1, 10)).build().unwrap_err();
        assert_eq!(err, GraphError::OutsideDomain { object: Object::Node(a), time: 11 });
    }
}
