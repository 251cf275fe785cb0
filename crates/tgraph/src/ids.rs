//! Identifiers for nodes, edges and temporal objects.
//!
//! The paper treats nodes and edges symmetrically ("node-edge symmetry" design
//! principle), so most of the API works on [`Object`], which is either a node or an
//! edge.  A [`TemporalObject`] is a pair `(o, t)` of an object and a time point, the
//! unit over which `NavL[PC,NOI]` expressions are evaluated.

use crate::interval::Time;

/// Identifier of a node within a temporal property graph.
///
/// Node ids are dense indices assigned in insertion order by the graph builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an edge within a temporal property graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node or an edge.  Nodes and edges are first-class citizens in the TRPQ language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Object {
    /// A node object.
    Node(NodeId),
    /// An edge object.
    Edge(EdgeId),
}

impl Object {
    /// True if this object is a node.
    #[inline]
    pub fn is_node(self) -> bool {
        matches!(self, Object::Node(_))
    }

    /// True if this object is an edge.
    #[inline]
    pub fn is_edge(self) -> bool {
        matches!(self, Object::Edge(_))
    }

    /// Returns the node id if this object is a node.
    #[inline]
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            Object::Node(n) => Some(n),
            Object::Edge(_) => None,
        }
    }

    /// Returns the edge id if this object is an edge.
    #[inline]
    pub fn as_edge(self) -> Option<EdgeId> {
        match self {
            Object::Edge(e) => Some(e),
            Object::Node(_) => None,
        }
    }
}

impl From<NodeId> for Object {
    fn from(id: NodeId) -> Self {
        Object::Node(id)
    }
}

impl From<EdgeId> for Object {
    fn from(id: EdgeId) -> Self {
        Object::Edge(id)
    }
}

/// A temporal object `(o, t)`: an object paired with a time point.
///
/// Temporal objects are the elements navigated by TRPQs.  Note that a temporal object
/// does not need to *exist* (have `ξ(o, t) = true`) to be navigated through; existence
/// is checked explicitly with the `∃` test of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemporalObject {
    /// The underlying node or edge.
    pub object: Object,
    /// The time point.
    pub time: Time,
}

impl TemporalObject {
    /// Creates a new temporal object.
    #[inline]
    pub fn new(object: impl Into<Object>, time: Time) -> Self {
        TemporalObject { object: object.into(), time }
    }
}

impl From<(Object, Time)> for TemporalObject {
    fn from((object, time): (Object, Time)) -> Self {
        TemporalObject { object, time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_kind_predicates() {
        let n = Object::Node(NodeId(3));
        let e = Object::Edge(EdgeId(7));
        assert!(n.is_node() && !n.is_edge());
        assert!(e.is_edge() && !e.is_node());
        assert_eq!(n.as_node(), Some(NodeId(3)));
        assert_eq!(n.as_edge(), None);
        assert_eq!(e.as_edge(), Some(EdgeId(7)));
        assert_eq!(e.as_node(), None);
    }

    #[test]
    fn temporal_object_construction() {
        let to = TemporalObject::new(NodeId(1), 5);
        assert_eq!(to.object, Object::Node(NodeId(1)));
        assert_eq!(to.time, 5);
        let to2: TemporalObject = (Object::Edge(EdgeId(0)), 9).into();
        assert_eq!(to2.time, 9);
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(NodeId(1) < NodeId(2));
        assert!(EdgeId(0) < EdgeId(9));
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(EdgeId(11).index(), 11);
    }
}
