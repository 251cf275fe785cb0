//! The row-level apply: a batch resolved by name, validated against the
//! relations' existence columns, and written to the rows as each touched
//! object's new segments.
//!
//! [`Itpg::apply_batch`] is the reference semantics, and this module follows it
//! step for step on the rows instead of on a second copy of the graph:
//! creations are registered in name order (nodes, then edges), endpoints and
//! then the existence and property mutations are resolved in mutation order,
//! Definition A.1 is checked with the same [`check_edge`] and [`check_support`]
//! against the prospective existence, and only then is anything written.  An
//! object's new segments are its old rows, its new existence with no
//! properties, and each assignment in mutation order (the later one wins on an
//! overlap), with adjacent pieces of equal properties coalesced.  So the ids,
//! the [`AppliedBatch`], the errors and the rows equal those of
//! `Itpg::apply_batch` followed by [`GraphRelations::apply_delta`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use engine::{DeltaStats, GraphRelations, ObjectSegments, Props};
use obs::Stopwatch;
use tgraph::{
    check_edge, check_support, AppliedBatch, Batch, EdgeId, GraphError, Interval, IntervalSet,
    Itpg, Mutation, NodeId, Object, Time, Value,
};

/// The writer's side of the graph: the name → object index, and the label of
/// every object and the endpoints of every edge, by id, which no row carries
/// while the object does not exist.  Only [`crate::LiveGraph`] holds one:
/// neither an epoch snapshot nor a bulk load ([`GraphRelations::from_itpg`])
/// carries it.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    names: HashMap<String, Object>,
    node_labels: Vec<Arc<str>>,
    edge_labels: Vec<Arc<str>>,
    ends: Vec<(NodeId, NodeId)>,
    /// Labels and property names, shared by the objects and the property
    /// lists this writer builds.
    strings: HashSet<Arc<str>>,
}

/// What one [`NameIndex::apply`] did.
#[derive(Debug)]
pub(crate) struct Written {
    pub(crate) applied: AppliedBatch,
    pub(crate) delta: DeltaStats,
    /// Both endpoints of every touched edge, for the refresh's sweep.
    pub(crate) ends: Vec<NodeId>,
    /// Resolving names and checking Definition A.1.
    pub(crate) validate: Duration,
    /// Deriving the touched objects' segments and writing them.
    pub(crate) write: Duration,
}

/// The shared copy of `s` in `strings`.
fn share(strings: &mut HashSet<Arc<str>>, s: &str) -> Arc<str> {
    if let Some(known) = strings.get(s) {
        return Arc::clone(known);
    }
    let new: Arc<str> = Arc::from(s);
    strings.insert(Arc::clone(&new));
    new
}

impl NameIndex {
    /// The index of every object of `graph`.
    pub(crate) fn of(graph: &Itpg) -> Self {
        let mut index = NameIndex::default();
        index.names.reserve(graph.num_nodes() + graph.num_edges());
        for object in graph.objects() {
            let label = share(&mut index.strings, graph.label(object));
            match object {
                Object::Node(_) => index.node_labels.push(label),
                Object::Edge(e) => {
                    index.edge_labels.push(label);
                    index.ends.push((graph.src(e), graph.tgt(e)));
                }
            }
            index.names.insert(graph.name(object).to_owned(), object);
        }
        index
    }

    /// The object registered under `name`.
    pub(crate) fn object(&self, name: &str) -> Option<Object> {
        self.names.get(name).copied()
    }

    /// Applies `batch` to `relations`, which must hold every object of this
    /// index and no other.  A rejected batch changes neither.
    pub(crate) fn apply(
        &mut self,
        relations: &mut GraphRelations,
        batch: &Batch,
    ) -> Result<Written, GraphError> {
        let watch = Stopwatch::start();
        // ---- Creations, registered in name order: nodes, then edges. ----
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
        let (first_node, first_edge) = (relations.num_nodes(), relations.num_edges());
        let created: Vec<Object> = {
            let nodes = (first_node..first_node + new_nodes.len()).map(|n| NodeId(n as u32));
            let edges = (first_edge..first_edge + new_edges.len()).map(|e| EdgeId(e as u32));
            nodes.map(Object::Node).chain(edges.map(Object::Edge)).collect()
        };
        let new_names = || new_nodes.iter().map(|n| n.0).chain(new_edges.iter().map(|e| e.0));
        let mut created_names: HashMap<&str, Object> = HashMap::with_capacity(created.len());
        for (name, &object) in new_names().zip(&created) {
            if self.names.contains_key(name) || created_names.insert(name, object).is_some() {
                return Err(GraphError::DuplicateName(name.to_owned()));
            }
        }
        // A created name is no known one, so the batch's own come first.
        let resolve = |name: &str| {
            let known = created_names.get(name).or_else(|| self.names.get(name));
            known.copied().ok_or_else(|| GraphError::UnknownName(name.to_owned()))
        };
        // ---- Endpoints, then the existence and property mutations. ----
        let node = |name: &str| {
            resolve(name)?.as_node().ok_or_else(|| GraphError::UnknownName(name.to_owned()))
        };
        let new_ends = new_edges
            .iter()
            .map(|&(_, _, src, tgt)| Ok((node(src)?, node(tgt)?)))
            .collect::<Result<Vec<(NodeId, NodeId)>, GraphError>>()?;
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
        // ---- Definition A.1 on the prospective existence. ----
        let ends = |edge: EdgeId| match edge.index().checked_sub(first_edge) {
            Some(new) => new_ends[new],
            None => self.ends[edge.index()],
        };
        let nowhere = IntervalSet::empty();
        let exists_before = |object: Object| match object {
            Object::Node(n) => n.index() < first_node,
            Object::Edge(e) => e.index() < first_edge,
        };
        let current = |object: Object| match exists_before(object) {
            true => relations.existence(object),
            false => &nowhere,
        };
        // Each grown object's existence after the batch, in object order.
        let mut by_object = existence_ops.clone();
        by_object.sort_by_key(|&(object, _)| object);
        let mut grown: Vec<(Object, IntervalSet)> = Vec::new();
        for (object, interval) in by_object {
            match grown.last_mut() {
                Some((last, existence)) if *last == object => existence.insert(interval),
                _ => {
                    let mut existence = current(object).clone();
                    existence.insert(interval);
                    grown.push((object, existence));
                }
            }
        }
        let prospective = |object: Object| match grown.binary_search_by_key(&object, |g| g.0) {
            Ok(at) => &grown[at].1,
            Err(_) => current(object),
        };
        for (object, existence) in &grown {
            let Some(edge) = object.as_edge() else { continue };
            check_edge(edge, existence, ends(edge), |n| prospective(Object::Node(n)))?;
        }
        for &(object, prop, _, interval) in &prop_ops {
            check_support(object, prop, &[interval], prospective(object))?;
        }
        let validate = watch.elapsed();

        // ---- Write (infallible from here on). ----
        let watch = Stopwatch::start();
        let mut domain = relations.domain();
        let mut times = IntervalSet::empty();
        for interval in existence_ops.iter().map(|op| op.1).chain(prop_ops.iter().map(|op| op.3)) {
            domain = domain.hull(&interval);
            times.insert(interval);
        }
        let mut touched = created.clone();
        touched.extend(grown.iter().map(|g| g.0));
        touched.extend(prop_ops.iter().map(|op| op.0));
        touched.sort_unstable();
        touched.dedup();
        // Each object's assignments, in mutation order.
        prop_ops.sort_by_key(|op| op.0);
        let none: Props = Arc::new([]);
        let mut rewrites = Vec::with_capacity(touched.len());
        let (mut grown, mut assignments) = (grown.into_iter().peekable(), &prop_ops[..]);
        for &object in &touched {
            let (name, label) = match object {
                Object::Node(n) => match n.index().checked_sub(first_node) {
                    Some(new) => new_nodes[new],
                    None => ("", &*self.node_labels[n.index()]),
                },
                Object::Edge(e) => match e.index().checked_sub(first_edge) {
                    Some(new) => (new_edges[new].0, new_edges[new].1),
                    None => ("", &*self.edge_labels[e.index()]),
                },
            };
            let ends = match object {
                Object::Node(n) => (n, n),
                Object::Edge(e) => ends(e),
            };
            let count = assignments.iter().take_while(|op| op.0 == object).count();
            let (own, rest) = assignments.split_at(count);
            assignments = rest;
            let old_existence = current(object);
            let mut pieces = old_rows(relations, object, exists_before(object));
            let existence = match grown.next_if(|g| g.0 == object) {
                Some((_, existence)) => {
                    // The existence the batch adds starts with no properties.
                    let added = |intervals: &[Interval]| {
                        intervals.iter().map(|&interval| (interval, Arc::clone(&none))).collect()
                    };
                    pieces = match old_existence.is_empty() {
                        true => added(existence.intervals()),
                        false => {
                            merge(pieces, added(existence.difference(old_existence).intervals()))
                        }
                    };
                    existence
                }
                None => old_existence.clone(),
            };
            for &(_, prop, value, interval) in own {
                assign(&mut self.strings, &mut pieces, prop, value, interval);
            }
            coalesce(&mut pieces);
            rewrites.push(ObjectSegments {
                object,
                name,
                label,
                ends,
                existence,
                segments: pieces,
            });
        }
        let delta = relations.apply_segments(domain, rewrites);
        let touched_ends = touched.iter().filter_map(|object| object.as_edge()).map(ends);
        let ends = touched_ends.flat_map(|(src, tgt)| [src, tgt]).collect();
        for (name, &object) in new_names().zip(&created) {
            self.names.insert(name.to_owned(), object);
        }
        for &(_, label) in &new_nodes {
            self.node_labels.push(share(&mut self.strings, label));
        }
        for (&(_, label, ..), &edge_ends) in new_edges.iter().zip(&new_ends) {
            self.edge_labels.push(share(&mut self.strings, label));
            self.ends.push(edge_ends);
        }
        let applied = AppliedBatch { epoch: batch.epoch, created, touched, times };
        Ok(Written { applied, delta, ends, validate, write: watch.elapsed() })
    }
}

/// Sets `prop` to `value` over `interval` in `pieces`, which cover it:
/// splits the pieces at its ends and rewrites the properties inside.
fn assign(
    strings: &mut HashSet<Arc<str>>,
    pieces: &mut Vec<(Interval, Props)>,
    prop: &str,
    value: &Value,
    interval: Interval,
) {
    split(pieces, interval.start());
    if let Some(after) = interval.end().checked_add(1) {
        split(pieces, after);
    }
    let from = pieces.partition_point(|(piece, _)| piece.start() < interval.start());
    for (piece, props) in &mut pieces[from..] {
        if piece.end() > interval.end() {
            break;
        }
        *props = with(strings, props, prop, value);
    }
}

/// `props` with `prop` set to `value`: `props` itself if it already holds.
fn with(strings: &mut HashSet<Arc<str>>, props: &Props, prop: &str, value: &Value) -> Props {
    let list = match props.binary_search_by(|(name, _)| (**name).cmp(prop)) {
        Ok(at) if props[at].1 == *value => return Arc::clone(props),
        Ok(at) => {
            let mut list = props.to_vec();
            list[at].1 = value.clone();
            list
        }
        Err(at) => {
            let mut list = Vec::with_capacity(props.len() + 1);
            list.extend_from_slice(&props[..at]);
            list.push((share(strings, prop), value.clone()));
            list.extend_from_slice(&props[at..]);
            list
        }
    };
    list.into()
}

/// An object's rows as `(interval, properties)` pieces, in interval order.
fn old_rows(relations: &GraphRelations, object: Object, exists: bool) -> Vec<(Interval, Props)> {
    let mut pieces = Vec::new();
    if exists {
        relations
            .visit_rows_of(object, |_, row| pieces.push((row.interval, Arc::clone(row.props))));
    }
    pieces
}

/// Merges two lists of disjoint pieces, each in interval order.
fn merge(old: Vec<(Interval, Props)>, new: Vec<(Interval, Props)>) -> Vec<(Interval, Props)> {
    let mut merged = Vec::with_capacity(old.len() + new.len());
    let mut old = old.into_iter().peekable();
    for piece in new {
        while let Some(before) = old.next_if(|(interval, _)| interval.start() < piece.0.start()) {
            merged.push(before);
        }
        merged.push(piece);
    }
    merged.extend(old);
    merged
}

/// Splits the piece holding `at`, if it starts before `at`, into the part
/// before `at` and the part from it.
fn split(pieces: &mut Vec<(Interval, Props)>, at: Time) {
    let index = pieces.partition_point(|(piece, _)| piece.end() < at);
    let Some((piece, props)) = pieces.get(index) else { return };
    if piece.start() < at {
        let (piece, props) = (*piece, Arc::clone(props));
        pieces[index].0 = Interval::of(piece.start(), at - 1);
        pieces.insert(index + 1, (Interval::of(at, piece.end()), props));
    }
}

/// Joins adjacent pieces with equal properties, in place: the object's
/// maximal segments.
fn coalesce(pieces: &mut Vec<(Interval, Props)>) {
    pieces.dedup_by(|(piece, props), (last, held)| {
        let joins = last.end().checked_add(1) == Some(piece.start())
            && (Arc::ptr_eq(held, props) || held == props);
        if joins {
            *last = Interval::of(last.start(), piece.end());
        }
        joins
    });
}
