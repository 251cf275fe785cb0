//! The interval-timestamped relational representation of a temporal property graph
//! used by the engine (Section VI of the paper):
//!
//! ```text
//! Nodes(id, label, properties, time)
//! Edges(id, src, tgt, label, properties, time)
//! ```
//!
//! Each row describes one maximal "no change occurred" state of a node or an edge: the
//! object's label and property values are constant over the row's validity interval,
//! and the rows of one object are temporally coalesced.  The row counts of these two
//! relations are exactly the "# temp. nodes" / "# temp. edges" columns of Table I.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use tgraph::{EdgeId, Interval, IntervalSet, Itpg, NodeId, Object, Time, Value};

use crate::chain::Position;
use crate::plan::analyze::SchemaSummary;

/// One temporally-constant state of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// The node this row describes.
    pub node: NodeId,
    /// Label of the node.
    pub label: Arc<str>,
    /// Property values holding over the whole validity interval, sorted by name.
    /// Shared, so that cloning a row copies no property: rows loaded by one
    /// `from_itpg` or one delta with equal properties hold one list.
    pub props: Arc<[(Arc<str>, Value)]>,
    /// Validity interval of this state.
    pub interval: Interval,
}

/// One temporally-constant state of an edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRow {
    /// The edge this row describes.
    pub edge: EdgeId,
    /// Source node of the edge.
    pub src: NodeId,
    /// Target node of the edge.
    pub tgt: NodeId,
    /// Label of the edge.
    pub label: Arc<str>,
    /// Property values holding over the whole validity interval, sorted by name.
    /// Shared, so that cloning a row copies no property: rows loaded by one
    /// `from_itpg` or one delta with equal properties hold one list.
    pub props: Arc<[(Arc<str>, Value)]>,
    /// Validity interval of this state.
    pub interval: Interval,
}

impl NodeRow {
    /// Looks up a property value of this row.
    pub fn prop(&self, name: &str) -> Option<&Value> {
        self.shared().prop(name)
    }
}

impl EdgeRow {
    /// Looks up a property value of this row.
    pub fn prop(&self, name: &str) -> Option<&Value> {
        self.shared().prop(name)
    }
}

/// What the rows of both relations hold, borrowed from one: code that serves
/// both reads rows through it (see [`GraphRelations::visit_rows_of`]).
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// The node or edge the row describes.
    pub object: Object,
    /// Label of the object.
    pub label: &'a Arc<str>,
    /// Property values holding over the whole validity interval, sorted by name.
    pub props: &'a Props,
    /// Validity interval of this state.
    pub interval: Interval,
}

impl<'a> RowRef<'a> {
    /// Looks up a property value of the row.
    pub fn prop(&self, name: &str) -> Option<&'a Value> {
        self.props.iter().find(|(k, _)| k.as_ref() == name).map(|(_, v)| v)
    }
}

/// The row type of one relation.
trait Row: Clone {
    /// The row of object `id` (an edge from `ends.0` to `ends.1`) over `at`.
    fn new(id: usize, ends: (NodeId, NodeId), label: Arc<str>, props: Props, at: Interval) -> Self;

    /// What the rows of both relations hold.
    fn shared(&self) -> RowRef<'_>;
}

impl Row for NodeRow {
    fn new(id: usize, _: (NodeId, NodeId), label: Arc<str>, props: Props, at: Interval) -> Self {
        NodeRow { node: NodeId(id as u32), label, props, interval: at }
    }

    fn shared(&self) -> RowRef<'_> {
        let object = Object::Node(self.node);
        RowRef { object, label: &self.label, props: &self.props, interval: self.interval }
    }
}

impl Row for EdgeRow {
    fn new(id: usize, e: (NodeId, NodeId), label: Arc<str>, props: Props, at: Interval) -> Self {
        EdgeRow { edge: EdgeId(id as u32), src: e.0, tgt: e.1, label, props, interval: at }
    }

    fn shared(&self) -> RowRef<'_> {
        let object = Object::Edge(self.edge);
        RowRef { object, label: &self.label, props: &self.props, interval: self.interval }
    }
}

/// Summary statistics of the relational representation (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of distinct nodes.
    pub nodes: usize,
    /// Number of distinct edges.
    pub edges: usize,
    /// Number of temporal node states (rows of the Nodes relation).
    pub temporal_nodes: usize,
    /// Number of temporal edge states (rows of the Edges relation).
    pub temporal_edges: usize,
}

/// Row-level change summary of one [`GraphRelations::apply_delta`] call.  Only
/// rows whose state changed count: a touched object's row that the batch left
/// as it was is kept, and counts in neither column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Node rows appended by the delta: new states of touched nodes.
    pub node_rows_added: usize,
    /// Node rows retracted (tombstoned) by the delta: states of touched nodes
    /// that no longer hold, over exactly their interval.
    pub node_rows_retracted: usize,
    /// Edge rows appended by the delta: new states of touched edges.
    pub edge_rows_added: usize,
    /// Edge rows retracted (tombstoned) by the delta: states of touched edges
    /// that no longer hold, over exactly their interval.
    pub edge_rows_retracted: usize,
}

/// A canonical, tombstone-free view of the relations, used to check that an
/// incrementally maintained [`GraphRelations`] is equivalent to one bulk-loaded
/// with [`GraphRelations::from_itpg`].  The bulk load is one delta creating every
/// object, so its row indices are positions in `(object id, interval)` order;
/// a sequence of deltas appends rows batch by batch and tombstones the ones it
/// retracts, so its row *indices* differ, but the logical content must not.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalRelations {
    /// The temporal domain.
    pub domain: Interval,
    /// Live node rows, sorted by `(node, interval)`.
    pub nodes: Vec<NodeRow>,
    /// Live edge rows, sorted by `(edge, interval)`.
    pub edges: Vec<EdgeRow>,
    /// Per-node coalesced existence.
    pub node_existence: Vec<IntervalSet>,
    /// Per-edge coalesced existence.
    pub edge_existence: Vec<IntervalSet>,
    /// Node display names, by id.
    pub node_names: Vec<String>,
    /// Edge display names, by id.
    pub edge_names: Vec<String>,
}

/// The pair of interval-timestamped relations plus the indexes the engine navigates
/// with.
///
/// Nodes and edges are two instances of one private `Relation`, beside the
/// node-keyed adjacency of the edge rows.
///
/// Every column is held behind an [`Arc`], which makes the whole structure
/// **copy-on-write**: [`GraphRelations::snapshot`] (and plain `clone()`) is
/// twelve reference-count bumps, and [`GraphRelations::apply_delta`] copies
/// only what it writes — and only while a snapshot still shares it.  This is
/// what makes epoch-based MVCC serving (`crates/live`) cheap: a reader pins an
/// immutable snapshot while the writer diverges the next epoch from it.
///
/// How much a write copies depends on the column:
///
/// - The eight per-object columns (three per relation and the two adjacency
///   lists) are chunked (see `Column`): a delta copies only the chunks holding
///   an object whose rows or existence it changed, plus the tail chunk when it
///   creates objects.  The last batch
///   of the G5 contact stream touches ≈ 4 500 of 122 000 edges, in 6 of the
///   120 edge chunks; its ≈ 670 touched nodes land in all 8 node chunks, so
///   a node-indexed column is still copied whole on that stream.
/// - The rows of a relation stay one contiguous vector, because readers
///   scan them as slices ([`GraphRelations::node_rows`]).  A delta that
///   appends rows copies the whole vector once, into an allocation that fits
///   the batch, but a row clone is a plain copy plus two reference-count
///   bumps (the label and the shared properties), with no allocation.
/// - The liveness flags stay flat too: one byte a row, so copying them is a
///   `memcpy`, and the masked Step 1 scans test them row by row, where a
///   chunk lookup per row would cost more than the copy saves.
///
/// The relations also carry a memo of what is derived from them: their
/// [`SchemaSummary`] — the statistics the semantic optimizer reads — and the
/// two key-sorted row permutations.  Nothing computes either at load or on a
/// delta: the first reader of a *version* of the relations computes it once
/// and every later call, on this value or on any clone, snapshot or pinned
/// epoch of the same version, reads it back.
#[derive(Debug, Clone)]
pub struct GraphRelations {
    domain: Interval,
    nodes: Relation<NodeRow>,
    edges: Relation<EdgeRow>,
    /// Per node, the rows of the edges whose source it is.
    by_src: Column<Vec<u32>>,
    /// Per node, the rows of the edges whose target it is.
    by_tgt: Column<Vec<u32>>,
    // What is derived from *this version* of the relations.  The cells sit
    // behind one `Arc` so that clones share them: a bare `OnceLock` would be
    // cloned empty into every snapshot, each reader would compute again and
    // none would write back.  `apply_delta` — the only mutator — swaps in a
    // fresh empty memo, so snapshots of the previous version keep theirs and
    // the new version computes each entry at most once, on its first reader.
    memo: Arc<VersionMemo>,
}

/// One relation of [`GraphRelations`]: `Nodes` with `R` = [`NodeRow`], `Edges`
/// with `R` = [`EdgeRow`].  Object ids index the three per-object columns.
#[derive(Debug, Clone)]
struct Relation<R> {
    /// The rows, live and dead.
    rows: Arc<Vec<R>>,
    // Liveness of every row.  A delta tombstones the rows whose state a batch
    // changed instead of compacting the row vector (a bulk load, the delta
    // that creates every object, retracts none), so every other row keeps its
    // index, which is what lets live query maintenance reuse cached results.
    // Tombstoned rows are unreachable through every index and permutation;
    // only direct slice access (`node_rows()` / `edge_rows()`) can still
    // observe them.
    live: Arc<Vec<bool>>,
    /// The number of tombstoned rows.
    dead: usize,
    /// Per object, its display name.
    names: Column<String>,
    /// Per object, its rows in interval order.
    rows_by_id: Column<Vec<u32>>,
    /// Per object, its coalesced existence.
    existence: Column<IntervalSet>,
}

impl<R> Default for Relation<R> {
    fn default() -> Self {
        Relation {
            rows: Arc::default(),
            live: Arc::default(),
            dead: 0,
            names: Column::default(),
            rows_by_id: Column::default(),
            existence: Column::default(),
        }
    }
}

/// The per-version memo of [`GraphRelations`].
#[derive(Debug, Default)]
struct VersionMemo {
    schema: OnceLock<Arc<SchemaSummary>>,
    node_rows_sorted_by_id: OnceLock<Vec<u32>>,
    edge_rows_sorted_by_src: OnceLock<Vec<u32>>,
}

/// Elements per chunk of a [`Column`].  A write through a shared column
/// copies the spine, one pointer per chunk, and the chunk written, so the size
/// trades the two: larger chunks copy more elements per touched object,
/// smaller ones a longer spine and more allocations per batch.  At 1024, a
/// chunk of 24-byte elements (a `String`, a `Vec`, an `IntervalSet`) holds
/// 24 KiB of headers and the spine of a 100 000-object column is 98 pointers,
/// so a batch touching `k` objects copies under 1 KiB of spine plus at most
/// `k` chunks — never more than the column.
const CHUNK: usize = 1024;

/// A copy-on-write column of per-object data: fixed-size chunks, each behind
/// its own [`Arc`], under an `Arc`'d spine.  Cloning it is one reference-count
/// bump; writing through a clone copies the spine and the one chunk written.
#[derive(Debug, Clone, Default)]
struct Column<T> {
    chunks: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T: Clone> Column<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// The element at `index`, writable: copies the spine and the element's
    /// chunk if a clone of the column still shares them.
    fn get_mut(&mut self, index: usize) -> &mut T {
        let chunk = &mut Arc::make_mut(&mut self.chunks)[index / CHUNK];
        &mut Arc::make_mut(chunk)[index % CHUNK]
    }

    /// The element at `index`, writable as [`Column::get_mut`] makes it, or
    /// past the end the element of `pending` (not yet appended) that lands there.
    fn get_mut_or<'a>(&'a mut self, pending: &'a mut [T], index: usize) -> &'a mut T {
        match index.checked_sub(self.len) {
            Some(pending_index) => &mut pending[pending_index],
            None => self.get_mut(index),
        }
    }

    /// Sets the element at `index` to `value`, writing (and so copying, see
    /// [`Column::get_mut`]) only if it differs.
    fn set(&mut self, index: usize, value: &T)
    where
        T: PartialEq,
    {
        if self.get(index) != value {
            self.get_mut(index).clone_from(value);
        }
    }

    /// Sets the element at `index` to `value`, moving it, and writing (and so
    /// copying, see [`Column::get_mut`]) only if it differs.
    fn put(&mut self, index: usize, value: T)
    where
        T: PartialEq,
    {
        if *self.get(index) != value {
            *self.get_mut(index) = value;
        }
    }

    /// Appends `items`, moving them: copies the spine and the tail chunk if
    /// a clone of the column still shares them, and no other chunk.
    fn extend(&mut self, items: Vec<T>) {
        self.len += items.len();
        let mut items = items.into_iter();
        while items.len() > 0 {
            let spine = Arc::make_mut(&mut self.chunks);
            match spine.last_mut().filter(|tail| tail.len() < CHUNK) {
                Some(tail) => {
                    let tail = Arc::make_mut(tail);
                    tail.extend(items.by_ref().take(CHUNK - tail.len()));
                }
                None => spine.push(Arc::new(items.by_ref().take(CHUNK).collect())),
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// True while neither `self` nor `other` has been written since one was
    /// cloned from the other.
    fn is_shared_with(&self, other: &Column<T>) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks)
    }
}

/// A row's property values, sorted by name.  Rows with equal properties may
/// share one list.
pub type Props = Arc<[(Arc<str>, Value)]>;

/// One touched object's state after a change, as a producer of segments hands
/// it to [`GraphRelations::apply_segments`].  The writer behind it is the one
/// [`GraphRelations::apply_delta`] feeds from an [`Itpg`].
#[derive(Debug, Clone)]
pub struct ObjectSegments<'a> {
    /// The object.  The first id past the relations' last object of its kind
    /// creates it.
    pub object: Object,
    /// Its display name, read only where the change creates the object.
    pub name: &'a str,
    /// Its label.
    pub label: &'a str,
    /// Its source and target node, read only for an edge.
    pub ends: (NodeId, NodeId),
    /// Its coalesced existence after the change.
    pub existence: IntervalSet,
    /// Its maximal segments after the change, in interval order: its existence
    /// split wherever a property value changes, each with the properties
    /// holding over it.
    pub segments: Vec<(Interval, Props)>,
}

/// Interns what the rows of one load or delta share: labels, property names
/// and whole property lists.  Rows with equal properties point at one list, so
/// a scan that reads properties touches a few hot cache lines however its rows
/// were appended, and a row costs no allocation of its own.  A lookup
/// allocates only on a miss.
#[derive(Default)]
struct Interner {
    names: HashSet<Arc<str>>,
    /// Property lists by the hash of their `(name, value)` pairs.
    props: HashMap<u64, Vec<Props>>,
    hasher: RandomState,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(known) = self.names.get(s) {
            return Arc::clone(known);
        }
        let new: Arc<str> = Arc::from(s);
        self.names.insert(Arc::clone(&new));
        new
    }

    /// The properties of `object` holding at `t`.  They are compared with the
    /// interned lists while still borrowed from the graph, so a hit clones
    /// nothing.
    fn props_at(&mut self, graph: &Itpg, object: Object, t: Time) -> Props {
        let mut hasher = self.hasher.build_hasher();
        props_of(graph, object, t).for_each(|pair| pair.hash(&mut hasher));
        let key = hasher.finish();
        let same = |known: &&Props| props_hold(known, graph, object, t);
        if let Some(known) = self.props.get(&key).and_then(|bucket| bucket.iter().find(same)) {
            return Arc::clone(known);
        }
        let new: Props = props_of(graph, object, t)
            .map(|(name, value)| (self.intern(name), value.clone()))
            .collect();
        debug_assert!(new.windows(2).all(|w| w[0].0 < w[1].0), "properties sorted by name");
        self.props.entry(key).or_default().push(Arc::clone(&new));
        new
    }

    /// The interned list equal to `props`; `props` itself if none is yet.
    fn share(&mut self, props: &Props) -> Props {
        let mut hasher = self.hasher.build_hasher();
        props.iter().for_each(|(name, value)| (&**name, value).hash(&mut hasher));
        let bucket = self.props.entry(hasher.finish()).or_default();
        if let Some(known) =
            bucket.iter().find(|known| Arc::ptr_eq(known, props) || *known == props)
        {
            return Arc::clone(known);
        }
        bucket.push(Arc::clone(props));
        Arc::clone(props)
    }
}

/// A new segment's properties as its producer holds them.  The writer asks
/// whether an old row holds exactly them, and shares them into a new row only
/// where none does.
trait SegmentProps {
    /// True if `props` are exactly these properties.
    fn held_by(&self, props: &[(Arc<str>, Value)]) -> bool;
    /// The shared list a new row with these properties holds.
    fn share(&self, interner: &mut Interner) -> Props;
}

/// The properties of an [`Itpg`] object at one time point, read in place.
struct PropsAt<'g> {
    graph: &'g Itpg,
    object: Object,
    at: Time,
}

impl SegmentProps for PropsAt<'_> {
    fn held_by(&self, props: &[(Arc<str>, Value)]) -> bool {
        props_hold(props, self.graph, self.object, self.at)
    }

    fn share(&self, interner: &mut Interner) -> Props {
        interner.props_at(self.graph, self.object, self.at)
    }
}

impl SegmentProps for Props {
    fn held_by(&self, props: &[(Arc<str>, Value)]) -> bool {
        **self == *props
    }

    fn share(&self, interner: &mut Interner) -> Props {
        interner.share(self)
    }
}

/// The writer's view of an [`ObjectSegments`].
fn touched(object: ObjectSegments<'_>) -> Touched<'_, impl Iterator<Item = (Interval, Props)>> {
    Touched {
        index: match object.object {
            Object::Node(n) => n.index(),
            Object::Edge(e) => e.index(),
        },
        name: object.name,
        label: object.label,
        ends: object.ends,
        existence: Cow::Owned(object.existence),
        segments: object.segments.into_iter(),
    }
}

/// One touched object as the writer reads it, whichever producer made it.
struct Touched<'a, S> {
    index: usize,
    name: &'a str,
    label: &'a str,
    ends: (NodeId, NodeId),
    existence: Cow<'a, IntervalSet>,
    /// `(interval, properties)` per maximal segment, in interval order.
    segments: S,
}

/// The properties of `object` holding at `t`, borrowed from the graph.
/// `Itpg::properties` lists an object's properties by name, so the pairs come
/// sorted as a row keeps them.
fn props_of(graph: &Itpg, object: Object, t: Time) -> impl Iterator<Item = (&str, &Value)> {
    graph.properties(object).filter_map(move |(name, history)| Some((name, history.value_at(t)?)))
}

/// True if `props` are exactly the properties of `object` holding at `t`.
fn props_hold(props: &[(Arc<str>, Value)], graph: &Itpg, object: Object, t: Time) -> bool {
    let mut pairs = props_of(graph, object, t);
    props.iter().all(|(name, value)| pairs.next() == Some((&**name, value)))
        && pairs.next().is_none()
}

impl GraphRelations {
    /// Builds the relational representation from an interval-timestamped
    /// graph: empty relations and one [`GraphRelations::apply_delta`] that
    /// creates every object, so a bulk load writes its rows through the same
    /// code as a live batch.  Created in id order, the rows lie at index =
    /// position in `(object id, interval)` order and every adjacency list is
    /// ascending.
    pub fn from_itpg(graph: &Itpg) -> Self {
        let mut relations = GraphRelations {
            domain: graph.domain(),
            nodes: Relation::default(),
            edges: Relation::default(),
            by_src: Column::default(),
            by_tgt: Column::default(),
            memo: Arc::default(),
        };
        // Every object lies past the end of empty relations, so the delta
        // creates each one without a list of them.
        relations.apply_delta(graph, &[]);
        relations
    }

    /// An immutable copy-on-write snapshot of the relations: the returned value
    /// shares every column — and the memo of the [`SchemaSummary`] and the
    /// sorted permutations, whichever of the two fills it — with `self` until
    /// one of the two diverges through [`GraphRelations::apply_delta`].  Taking
    /// a snapshot is O(number of columns), not O(graph) nor O(chunks); this is
    /// the read view MVCC epochs in `crates/live` hand to concurrent readers.
    pub fn snapshot(&self) -> GraphRelations {
        self.clone()
    }

    /// The number of columns `self` shares whole with `other` — a diagnostic
    /// for copy-on-write behaviour: 12 right after [`GraphRelations::snapshot`],
    /// and afterwards the number of columns no delta has written since.  A
    /// written per-object column still shares every chunk the deltas did not
    /// write, but no longer counts.  The memo is not a column: it is derived
    /// from the twelve, never written by a delta, and every delta replaces it
    /// whole, so counting it would only report "a delta happened".
    pub fn shared_columns(&self, other: &GraphRelations) -> usize {
        self.nodes.shared_columns(&other.nodes)
            + self.edges.shared_columns(&other.edges)
            + usize::from(self.by_src.is_shared_with(&other.by_src))
            + usize::from(self.by_tgt.is_shared_with(&other.by_tgt))
    }

    /// Applies one batch worth of changes to the relations *in place*, given the
    /// post-batch graph and the set of objects the batch touched (as reported by
    /// [`tgraph::Itpg::apply_batch`]).  One writer writes rows and per-object
    /// columns, and this is one of its two producers of segments: it derives a
    /// touched object's segments from an [`Itpg`], where
    /// [`GraphRelations::apply_segments`] takes them ready-made (the live
    /// graph's row-level apply).  [`GraphRelations::from_itpg`] is the delta
    /// that creates every object.
    ///
    /// The contract: `graph` must be exactly `self`'s previous graph plus the
    /// changes covered by `touched` — every existing object whose existence or
    /// properties changed must appear in `touched`.  Objects past the old end are
    /// created whether listed or not, and neither order nor repeats in `touched`
    /// matter: the delta walks objects in id order.  The segments of each touched
    /// object are re-derived from `graph` and matched against its old rows in one
    /// merge walk: an old row whose interval and properties equal a new segment's
    /// is kept at its index, every other old row is retracted (tombstoned, see the
    /// field docs) and every other segment is appended as a new row.  A row is a
    /// pure function of its object, its interval and the properties over it, so a
    /// kept row is exactly what a rebuild would append and the live content equals
    /// a bulk [`GraphRelations::from_itpg`] of `graph`.  Rows of untouched objects
    /// keep their indices and content and are not recomputed.  The memo
    /// ([`SchemaSummary`], sorted permutations) is dropped, not maintained: the
    /// next reader of the new version computes what it asks for.
    ///
    /// While a snapshot shares the relations, the delta copies what it writes
    /// and no more (see the struct docs): of each per-object column, the chunks
    /// holding a touched object whose rows or existence changed and the tail
    /// chunk when objects are created; of a relation it appends rows to, the
    /// row vector (row clones allocate nothing), and of a relation it appends
    /// to or retracts from, its liveness flags.  A batch touching only edges
    /// copies no node column, and one that changes no row copies no row.
    pub fn apply_delta(&mut self, graph: &Itpg, touched: &[Object]) -> DeltaStats {
        let (old_nodes, old_edges) = (self.num_nodes(), self.num_edges());
        debug_assert!(graph.num_nodes() >= old_nodes && graph.num_edges() >= old_edges);
        let touched_nodes = touched.iter().filter_map(|o| Some(o.as_node()?.index()));
        let touched_edges = touched.iter().filter_map(|o| Some(o.as_edge()?.index()));
        // Each touched object's segments are derived from `graph`, and their
        // properties read in place: a kept row interns nothing.
        let state = |object: Object| {
            let (index, ends) = match object {
                Object::Node(n) => (n.index(), (n, n)),
                Object::Edge(e) => (e.index(), (graph.src(e), graph.tgt(e))),
            };
            let segments = graph.segments(object).into_iter();
            Touched {
                index,
                name: graph.name(object),
                label: graph.label(object),
                ends,
                existence: Cow::Borrowed(graph.existence(object)),
                segments: segments.map(move |interval| {
                    (interval, PropsAt { graph, object, at: interval.start() })
                }),
            }
        };
        self.write(
            graph.domain(),
            walk_order(touched_nodes, old_nodes, graph.num_nodes())
                .map(|n| state(Object::Node(NodeId(n as u32)))),
            walk_order(touched_edges, old_edges, graph.num_edges())
                .map(|e| state(Object::Edge(EdgeId(e as u32)))),
        )
    }

    /// Applies one change to the relations *in place*, given the new state of
    /// every object it touched, in `objects` ordered by object (nodes before
    /// edges, each in id order), and the domain after it.  This is the
    /// writer [`GraphRelations::apply_delta`] runs, for producers that derive
    /// an object's segments without an [`Itpg`]: its merge walk, retractions,
    /// appends, copies and the memo reset are as documented there.  Objects
    /// past the old end must all be listed, in id order.
    pub fn apply_segments(
        &mut self,
        domain: Interval,
        mut objects: Vec<ObjectSegments<'_>>,
    ) -> DeltaStats {
        debug_assert!(objects.windows(2).all(|w| w[0].object < w[1].object));
        let edges = objects.split_off(objects.partition_point(|o| o.object.is_node()));
        self.write(domain, objects.into_iter().map(touched), edges.into_iter().map(touched))
    }

    /// The one writer of rows and per-object columns, behind
    /// [`GraphRelations::apply_delta`] and [`GraphRelations::apply_segments`].
    /// `nodes` and `edges` list the touched objects of each relation in id
    /// order, existing ones before the ones it creates.
    fn write<'a, P: SegmentProps, S: Iterator<Item = (Interval, P)>>(
        &mut self,
        domain: Interval,
        nodes: impl Iterator<Item = Touched<'a, S>>,
        edges: impl Iterator<Item = Touched<'a, S>>,
    ) -> DeltaStats {
        // A new version: forget the memo without touching the old one, which
        // snapshots of the previous version still share.
        self.memo = Arc::default();
        self.domain = domain;

        // Every write below goes through `Arc::make_mut`, `Column` or
        // `append_rows`: each writes in place while the storage is uniquely
        // owned and copies it exactly once when a pinned snapshot still shares
        // it.  Each relation has its own pass, so a change touching only one
        // relation never copies the other's columns, and the two append to
        // disjoint row vectors, so the pass order does not change any row
        // index.  Both share one interner: a label or a property list the two
        // relations hold alike is one allocation.
        let mut interner = Interner::default();
        let old_nodes = self.num_nodes();
        let (node_rows_added, node_rows_retracted) =
            self.nodes.write(nodes, &mut interner, |_, _, _| {});

        // The adjacency lists of created nodes, which the edge pass fills.
        let mut created_out = vec![Vec::new(); self.num_nodes() - old_nodes];
        let mut created_in = created_out.clone();
        let (by_src, by_tgt) = (&mut self.by_src, &mut self.by_tgt);
        let (edge_rows_added, edge_rows_retracted) =
            self.edges.write(edges, &mut interner, |(src, tgt), gone, new| {
                // The adjacency lists lose the retracted rows and gain the
                // appended ones; kept rows stay where they are.  Most changed
                // edges are new and retract nothing: they skip the scans of
                // their endpoints' lists, which are long on busy nodes.
                if gone.is_empty() && new.is_empty() {
                    return;
                }
                for adjacency in [
                    by_src.get_mut_or(&mut created_out, src.index()),
                    by_tgt.get_mut_or(&mut created_in, tgt.index()),
                ] {
                    if !gone.is_empty() {
                        adjacency.retain(|row| !gone.contains(row));
                    }
                    adjacency.extend(new.clone());
                }
            });
        self.by_src.extend(created_out);
        self.by_tgt.extend(created_in);
        DeltaStats { node_rows_added, node_rows_retracted, edge_rows_added, edge_rows_retracted }
    }

    /// The memo cell [`SchemaSummary::of`] reads and fills.
    pub(crate) fn schema_cell(&self) -> &OnceLock<Arc<SchemaSummary>> {
        &self.memo.schema
    }

    /// The temporal domain of the graph.
    pub fn domain(&self) -> Interval {
        self.domain
    }

    /// The physical rows of the Nodes relation.  After [`GraphRelations::apply_delta`]
    /// the slice may contain tombstoned rows (see [`GraphRelations::is_node_row_live`]);
    /// rows reached through the indexes and permutations are always live.
    pub fn node_rows(&self) -> &[NodeRow] {
        &self.nodes.rows
    }

    /// The physical rows of the Edges relation (see [`GraphRelations::node_rows`] on
    /// tombstones).
    pub fn edge_rows(&self) -> &[EdgeRow] {
        &self.edges.rows
    }

    /// True if the node row at this index has not been retracted by a delta.
    pub fn is_node_row_live(&self, row: u32) -> bool {
        self.nodes.live[row as usize]
    }

    /// True if the edge row at this index has not been retracted by a delta.
    pub fn is_edge_row_live(&self, row: u32) -> bool {
        self.edges.live[row as usize]
    }

    /// The indices of all live node rows — the seed rows of Step 1 evaluation.
    pub fn seed_rows(&self) -> Vec<u32> {
        let (rows, live) = (self.nodes.rows.len() as u32, &self.nodes.live);
        if self.nodes.dead == 0 {
            (0..rows).collect()
        } else {
            (0..rows).filter(|&r| live[r as usize]).collect()
        }
    }

    /// A canonical, tombstone-free snapshot for equivalence checks between
    /// incrementally maintained and bulk-loaded relations.
    pub fn canonical_snapshot(&self) -> CanonicalRelations {
        CanonicalRelations {
            domain: self.domain,
            nodes: self.nodes.canonical_rows(),
            edges: self.edges.canonical_rows(),
            node_existence: self.nodes.existence.iter().cloned().collect(),
            edge_existence: self.edges.existence.iter().cloned().collect(),
            node_names: self.nodes.names.iter().cloned().collect(),
            edge_names: self.edges.names.iter().cloned().collect(),
        }
    }

    /// Row indices of the Nodes relation describing the given node, in
    /// interval order, not index order: a delta keeps the rows it does not
    /// change and interleaves the rows it appends with them.
    pub fn rows_of_node(&self, node: NodeId) -> &[u32] {
        self.nodes.rows_by_id.get(node.index())
    }

    /// Row indices of the Edges relation describing the given edge, in
    /// interval order, not index order (see [`GraphRelations::rows_of_node`]).
    pub fn rows_of_edge(&self, edge: EdgeId) -> &[u32] {
        self.edges.rows_by_id.get(edge.index())
    }

    /// The row at `position`, as what the rows of both relations share.
    pub(crate) fn row(&self, position: Position) -> RowRef<'_> {
        match position {
            Position::NodeRow(r) => self.nodes.rows[r as usize].shared(),
            Position::EdgeRow(r) => self.edges.rows[r as usize].shared(),
        }
    }

    /// Calls `visit` with every row of `object`, in interval order, as its
    /// position and what the rows of both relations share.
    pub fn visit_rows_of<'a>(&'a self, object: Object, visit: impl FnMut(Position, RowRef<'a>)) {
        match object {
            Object::Node(n) => self.visit(true, self.rows_of_node(n).iter().copied(), visit),
            Object::Edge(e) => self.visit(false, self.rows_of_edge(e).iter().copied(), visit),
        }
    }

    /// Calls `visit` with every live row of the node or the edge relation, in
    /// index order.
    pub(crate) fn visit_live_rows<'a>(
        &'a self,
        on_nodes: bool,
        visit: impl FnMut(Position, RowRef<'a>),
    ) {
        let flags = if on_nodes { &self.nodes.live } else { &self.edges.live };
        let live = (0..).zip(flags.iter()).filter_map(|(row, &live)| live.then_some(row));
        self.visit(on_nodes, live, visit);
    }

    /// Calls `visit` with the rows at `indices` of the node or the edge
    /// relation: one loop per relation, each reading its own row type.
    fn visit<'a>(
        &'a self,
        on_nodes: bool,
        indices: impl Iterator<Item = u32>,
        mut visit: impl FnMut(Position, RowRef<'a>),
    ) {
        let (nodes, edges) = (&self.nodes.rows, &self.edges.rows);
        match on_nodes {
            true => indices.for_each(|r| visit(Position::NodeRow(r), nodes[r as usize].shared())),
            false => indices.for_each(|r| visit(Position::EdgeRow(r), edges[r as usize].shared())),
        }
    }

    /// The number of rows, live or dead, and the number of live rows of the
    /// node or the edge relation.
    pub(crate) fn row_counts(&self, on_nodes: bool) -> (usize, usize) {
        let (rows, dead) = match on_nodes {
            true => (self.nodes.rows.len(), self.nodes.dead),
            false => (self.edges.rows.len(), self.edges.dead),
        };
        (rows, rows - dead)
    }

    /// Row indices of edges whose source is the given node.
    pub fn out_edge_rows(&self, node: NodeId) -> &[u32] {
        self.by_src.get(node.index())
    }

    /// Row indices of edges whose target is the given node.
    pub fn in_edge_rows(&self, node: NodeId) -> &[u32] {
        self.by_tgt.get(node.index())
    }

    /// Live row indices of the Nodes relation sorted by `(node id, interval)`,
    /// ties broken by row index.  Computed on the first call per version (see
    /// the struct docs).  Read only by the benchmark's merge kernels.
    pub fn node_rows_sorted_by_id(&self) -> &[u32] {
        self.memo.node_rows_sorted_by_id.get_or_init(|| {
            sorted_permutation(&self.nodes.rows_by_id, |r| self.nodes.rows[r as usize].interval)
        })
    }

    /// Live row indices of the Edges relation sorted by `(source node,
    /// interval)`, ties broken by row index.  Computed on the first call per
    /// version.  Read only by the benchmark's merge kernels.
    pub fn edge_rows_sorted_by_src(&self) -> &[u32] {
        self.memo.edge_rows_sorted_by_src.get_or_init(|| {
            sorted_permutation(&self.by_src, |r| self.edges.rows[r as usize].interval)
        })
    }

    /// The coalesced existence intervals of an object.
    pub fn existence(&self, object: Object) -> &IntervalSet {
        match object {
            Object::Node(n) => self.nodes.existence.get(n.index()),
            Object::Edge(e) => self.edges.existence.get(e.index()),
        }
    }

    /// The maximal existence interval of an object containing the time point `t`,
    /// if the object exists at `t`.
    pub fn existence_interval_at(&self, object: Object, t: Time) -> Option<Interval> {
        // Sorted and disjoint: the only candidate is the first interval not ending
        // before `t`.
        let intervals = self.existence(object).intervals();
        let candidate = intervals.get(intervals.partition_point(|iv| iv.end() < t))?;
        candidate.contains(t).then_some(*candidate)
    }

    /// The display name of an object (e.g. `"n7"`).
    pub fn object_name(&self, object: Object) -> &str {
        match object {
            Object::Node(n) => self.nodes.names.get(n.index()),
            Object::Edge(e) => self.edges.names.get(e.index()),
        }
    }

    /// The number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.names.len()
    }

    /// The number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.edges.names.len()
    }

    /// Summary statistics of the relational representation (Table I).  Tombstoned
    /// rows are not counted.
    pub fn stats(&self) -> RelationStats {
        RelationStats {
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            temporal_nodes: self.row_counts(true).1,
            temporal_edges: self.row_counts(false).1,
        }
    }
}

impl<R: Row> Relation<R> {
    /// Of the five columns, the number `self` shares whole with `other`.
    fn shared_columns(&self, other: &Relation<R>) -> usize {
        usize::from(Arc::ptr_eq(&self.rows, &other.rows))
            + usize::from(Arc::ptr_eq(&self.live, &other.live))
            + usize::from(self.names.is_shared_with(&other.names))
            + usize::from(self.rows_by_id.is_shared_with(&other.rows_by_id))
            + usize::from(self.existence.is_shared_with(&other.existence))
    }

    /// The live rows, sorted by `(object, interval)`.
    fn canonical_rows(&self) -> Vec<R> {
        let live = self.rows.iter().zip(self.live.iter()).filter(|(_, &live)| live);
        let mut rows: Vec<R> = live.map(|(row, _)| row.clone()).collect();
        rows.sort_by_key(|row| (row.shared().object, row.shared().interval));
        rows
    }

    /// The write pass of both relations: merges each touched object's segments
    /// against its old rows ([`rederive`]), in id order, existing objects before
    /// created ones; `changed` hears the object's ends and the rows it retracted
    /// and appended.  Returns the numbers of rows appended and retracted.
    fn write<'a, P: SegmentProps, S: Iterator<Item = (Interval, P)>>(
        &mut self,
        objects: impl Iterator<Item = Touched<'a, S>>,
        interner: &mut Interner,
        mut changed: impl FnMut((NodeId, NodeId), &[u32], Range<u32>),
    ) -> (usize, usize) {
        // A changed object is rewritten in place; a created one's entries are
        // appended once per column, so they must come in id order.
        let (old, base) = (self.names.len(), self.rows.len());
        // The object's new row list, rebuilt per object.
        let mut list = Vec::new();
        let mut added: Vec<R> = Vec::new();
        let mut retracted = Vec::new();
        let (mut names, mut row_lists, mut existence) = (Vec::new(), Vec::new(), Vec::new());
        for object in objects {
            let (index, ends) = (object.index, object.ends);
            let is_new = index >= old;
            debug_assert!(!is_new || index == old + names.len(), "created in id order");
            let label = interner.intern(object.label);
            let (retracted_before, added_before) = (retracted.len(), added.len());
            let rows = &self.rows;
            rederive(
                object.segments,
                if is_new { &[] } else { self.rows_by_id.get(index) },
                rows,
                &mut list,
                &mut retracted,
                |interval, props| {
                    let props = props.share(interner);
                    added.push(R::new(index, ends, label.clone(), props, interval));
                    (base + added.len() - 1) as u32
                },
            );
            debug_assert!(in_interval_order(&list, |row| match (row as usize).checked_sub(base) {
                Some(new) => added[new].shared().interval,
                None => rows[row as usize].shared().interval,
            }));
            let appended = (base + added_before) as u32..(base + added.len()) as u32;
            changed(ends, &retracted[retracted_before..], appended);
            if is_new {
                names.push(object.name.to_owned());
                row_lists.push(std::mem::take(&mut list));
                existence.push(object.existence.into_owned());
            } else {
                self.rows_by_id.set(index, &list);
                match object.existence {
                    Cow::Borrowed(known) => self.existence.set(index, known),
                    Cow::Owned(known) => self.existence.put(index, known),
                }
            }
        }
        self.names.extend(names);
        self.rows_by_id.extend(row_lists);
        self.existence.extend(existence);
        self.dead += retracted.len();
        tombstone(&mut self.live, &retracted, base + added.len());
        let counts = (added.len(), retracted.len());
        append_rows(&mut self.rows, added);
        counts
    }
}

/// The objects of one relation a delta walks, in id order: the `touched` ones
/// of the `old` objects, each once, then those created since, up to `now`.
fn walk_order(
    touched: impl Iterator<Item = usize>,
    old: usize,
    now: usize,
) -> impl Iterator<Item = usize> {
    let mut walk: Vec<usize> = touched.filter(|&index| index < old).collect();
    walk.sort_unstable();
    walk.dedup();
    walk.into_iter().chain(old..now)
}

/// Re-derives the rows of one touched object in a single merge walk over its
/// old rows (`old`, indices into `rows`) and its new `segments`, both in
/// interval order.  An old row whose
/// interval and properties equal a segment's is kept at its index; every other
/// old row goes to `retracted`, and every other segment to `append`, which
/// returns the index of the row it appends.  The object's new row list, in
/// interval order, is left in `list`.
///
/// A row is a pure function of its object, its interval and the properties
/// holding over it (the label never changes), so a kept row is exactly the
/// row a rebuild would append.  The properties are compared as the producer
/// holds them: a kept row shares nothing new.
fn rederive<R: Row, P: SegmentProps>(
    segments: impl Iterator<Item = (Interval, P)>,
    old: &[u32],
    rows: &[R],
    list: &mut Vec<u32>,
    retracted: &mut Vec<u32>,
    mut append: impl FnMut(Interval, P) -> u32,
) {
    list.clear();
    let mut old = old.iter().copied().peekable();
    for (segment, props) in segments {
        // Rows starting before the segment match none of it or later ones.
        let starts_before =
            |&row: &u32| rows[row as usize].shared().interval.start() < segment.start();
        while let Some(row) = old.next_if(starts_before) {
            retracted.push(row);
        }
        let same = |&row: &u32| {
            let row = rows[row as usize].shared();
            row.interval == segment && props.held_by(row.props)
        };
        list.push(match old.next_if(same) {
            Some(kept) => kept,
            None => append(segment, props),
        });
    }
    retracted.extend(old);
}

/// Marks the `retracted` rows dead and the rows appended past the old end
/// live, so that `live` covers `rows` rows.  Writes (and so copies a shared
/// vector) only if there is something to mark.
fn tombstone(live: &mut Arc<Vec<bool>>, retracted: &[u32], rows: usize) {
    if retracted.is_empty() && live.len() == rows {
        return;
    }
    let live = Arc::make_mut(live);
    for &row in retracted {
        debug_assert!(live[row as usize]);
        live[row as usize] = false;
    }
    live.resize(rows, true);
}

/// True if `rows` are in interval order: each row ends before the next starts.
fn in_interval_order(rows: &[u32], interval: impl Fn(u32) -> Interval) -> bool {
    rows.windows(2).all(|w| interval(w[0]).end() < interval(w[1]).start())
}

/// Appends `added` to a copy-on-write row vector.  An empty vector is
/// replaced by `added`, so a bulk load moves no row.  A vector a snapshot still
/// shares is copied once, into an allocation that already fits `added`:
/// `Arc::make_mut` would copy it at its length and then move every row again
/// to grow it.
fn append_rows<R: Clone>(rows: &mut Arc<Vec<R>>, added: Vec<R>) {
    if added.is_empty() {
        return;
    }
    if rows.is_empty() {
        *rows = Arc::new(added);
    } else if let Some(rows) = Arc::get_mut(rows) {
        rows.extend(added);
    } else {
        let mut copy = Vec::with_capacity(rows.len() + added.len());
        copy.extend_from_slice(rows);
        copy.extend(added);
        *rows = Arc::new(copy);
    }
}

/// Flattens per-key adjacency lists (indexed by ascending key) into one key-sorted
/// row permutation, ordering each key group by interval and then row index.
fn sorted_permutation<F: Fn(u32) -> Interval>(by_key: &Column<Vec<u32>>, interval: F) -> Vec<u32> {
    let mut out = Vec::with_capacity(by_key.iter().map(Vec::len).sum());
    for rows in by_key.iter() {
        let mut group = rows.clone();
        group.sort_by_key(|&r| (interval(r), r));
        out.extend(group);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::ItpgBuilder;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    fn sample() -> Itpg {
        let mut b = ItpgBuilder::new();
        let n1 = b.add_node("n1", "Person").unwrap();
        let n2 = b.add_node("n2", "Person").unwrap();
        let e1 = b.add_edge("e1", "meets", n1, n2).unwrap();
        b.add_existence(n1, iv(1, 9)).unwrap();
        b.add_existence(n2, iv(1, 9)).unwrap();
        b.add_existence(e1, iv(3, 3)).unwrap();
        b.add_existence(e1, iv(5, 6)).unwrap();
        b.set_property(n1, "name", "Ann", iv(1, 9)).unwrap();
        b.set_property(n1, "risk", "low", iv(1, 9)).unwrap();
        b.set_property(n2, "name", "Bob", iv(1, 9)).unwrap();
        b.set_property(n2, "risk", "low", iv(1, 4)).unwrap();
        b.set_property(n2, "risk", "high", iv(5, 9)).unwrap();
        b.set_property(e1, "loc", "cafe", iv(3, 3)).unwrap();
        b.set_property(e1, "loc", "park", iv(5, 6)).unwrap();
        b.domain(iv(1, 11)).build().unwrap()
    }

    #[test]
    fn rows_match_the_papers_example_tables() {
        // Section VI shows the Nodes rows for n2 and the Edges rows for e1.
        let rel = GraphRelations::from_itpg(&sample());
        let n2_rows: Vec<&NodeRow> =
            rel.rows_of_node(NodeId(1)).iter().map(|&i| &rel.node_rows()[i as usize]).collect();
        assert_eq!(n2_rows.len(), 2);
        assert_eq!(n2_rows[0].interval, iv(1, 4));
        assert_eq!(n2_rows[0].prop("risk"), Some(&Value::str("low")));
        assert_eq!(n2_rows[0].prop("name"), Some(&Value::str("Bob")));
        assert_eq!(n2_rows[1].interval, iv(5, 9));
        assert_eq!(n2_rows[1].prop("risk"), Some(&Value::str("high")));

        let e1_rows: Vec<&EdgeRow> =
            rel.rows_of_edge(EdgeId(0)).iter().map(|&i| &rel.edge_rows()[i as usize]).collect();
        assert_eq!(e1_rows.len(), 2);
        assert_eq!(e1_rows[0].interval, iv(3, 3));
        assert_eq!(e1_rows[0].prop("loc"), Some(&Value::str("cafe")));
        assert_eq!(e1_rows[1].interval, iv(5, 6));
        assert_eq!(e1_rows[1].prop("loc"), Some(&Value::str("park")));
        assert_eq!(e1_rows[0].src, NodeId(0));
        assert_eq!(e1_rows[0].tgt, NodeId(1));
    }

    #[test]
    fn statistics_count_temporal_states() {
        let rel = GraphRelations::from_itpg(&sample());
        let stats = rel.stats();
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 1);
        assert_eq!(stats.temporal_nodes, 3); // n1 has one state, n2 has two.
        assert_eq!(stats.temporal_edges, 2);
    }

    #[test]
    fn sorted_permutations_cover_all_rows_in_key_order() {
        let rel = GraphRelations::from_itpg(&sample());
        let by_src = rel.edge_rows_sorted_by_src();
        assert_eq!(by_src.len(), rel.edge_rows().len());
        assert!(by_src.windows(2).all(|w| {
            let (a, b) = (&rel.edge_rows()[w[0] as usize], &rel.edge_rows()[w[1] as usize]);
            (a.src, a.interval.start()) <= (b.src, b.interval.start())
        }));
        let by_node = rel.node_rows_sorted_by_id();
        assert_eq!(by_node.len(), rel.node_rows().len());
        assert!(by_node.windows(2).all(|w| {
            let (a, b) = (&rel.node_rows()[w[0] as usize], &rel.node_rows()[w[1] as usize]);
            (a.node, a.interval.start()) <= (b.node, b.interval.start())
        }));
    }

    /// Asserts the invariants a delta must preserve: permutations cover exactly the
    /// live rows in `(key, start)` order, and the per-object index lists agree with
    /// the liveness bitmap.
    fn assert_delta_invariants(rel: &GraphRelations) {
        let live_nodes =
            (0..rel.node_rows().len() as u32).filter(|&r| rel.is_node_row_live(r)).count();
        let live_edges =
            (0..rel.edge_rows().len() as u32).filter(|&r| rel.is_edge_row_live(r)).count();
        assert_eq!(rel.node_rows_sorted_by_id().len(), live_nodes);
        assert_eq!(rel.edge_rows_sorted_by_src().len(), live_edges);
        assert_eq!(rel.seed_rows().len(), live_nodes);
        assert_eq!(rel.stats().temporal_nodes, live_nodes);
        assert_eq!(rel.stats().temporal_edges, live_edges);
        assert!(rel.node_rows_sorted_by_id().windows(2).all(|w| {
            let (a, b) = (&rel.node_rows()[w[0] as usize], &rel.node_rows()[w[1] as usize]);
            (a.node, a.interval.start()) <= (b.node, b.interval.start())
        }));
        assert!(rel.edge_rows_sorted_by_src().windows(2).all(|w| {
            let (a, b) = (&rel.edge_rows()[w[0] as usize], &rel.edge_rows()[w[1] as usize]);
            (a.src, a.interval.start()) <= (b.src, b.interval.start())
        }));
        assert!(rel.node_rows_sorted_by_id().iter().all(|&r| rel.is_node_row_live(r)));
        assert!(rel.edge_rows_sorted_by_src().iter().all(|&r| rel.is_edge_row_live(r)));
    }

    #[test]
    fn deltas_match_a_bulk_rebuild() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);

        // Extend Bob's existence with a low risk: his [5,9] row is high-risk and
        // named, so it does not coalesce with [10,12] and is kept.  Add a new
        // person with an edge to him, and extend the old edge's existence: its
        // [5,6] row has a location and [7,8] none, so that row is kept too.  No
        // existing row changes state, so none is retracted.
        let mut batch = tgraph::Batch::new(1);
        batch
            .add_existence("n2", iv(10, 12))
            .set_property("n2", "risk", "low", iv(10, 12))
            .add_node("n9", "Person")
            .add_existence("n9", iv(2, 8))
            .set_property("n9", "name", "Zed", iv(2, 8))
            .add_edge("e9", "meets", "n9", "n2")
            .add_existence("e9", iv(6, 7))
            .add_existence("e1", iv(7, 8));
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        let appended_only = |node_rows_added, edge_rows_added| DeltaStats {
            node_rows_added,
            edge_rows_added,
            ..DeltaStats::default()
        };
        // Bob's [10,12] and Zed's [2,8]; e9's [6,7] and e1's [7,8].
        assert_eq!(stats, appended_only(2, 2));

        assert_delta_invariants(&rel);
        let bulk = GraphRelations::from_itpg(&itpg);
        assert_eq!(rel.canonical_snapshot(), bulk.canonical_snapshot());
        assert_eq!(rel.stats(), bulk.stats());

        // Untouched objects keep their physical rows: n1 had one row before and
        // still points at the same index.
        assert_eq!(rel.rows_of_node(NodeId(0)), bulk.rows_of_node(NodeId(0)));

        // A second delta on top of the first behaves the same.  Its property
        // flip splits Zed's one row: it dies, and three rows replace it.
        let zed = rel.rows_of_node(NodeId(2)).to_vec();
        let mut second = tgraph::Batch::new(2);
        second.set_property("n9", "risk", "high", iv(3, 4)).add_existence("e9", iv(3, 3));
        let applied = itpg.apply_batch(&second).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(stats, DeltaStats { node_rows_retracted: 1, ..appended_only(3, 1) });
        assert!(zed.iter().all(|&row| !rel.is_node_row_live(row)));
        assert_delta_invariants(&rel);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    /// A graph whose objects have several rows each and whose edges leave and
    /// enter their nodes out of id order.
    fn tangled() -> Itpg {
        let mut b = ItpgBuilder::new();
        let ids: Vec<NodeId> =
            (0..4).map(|i| b.add_node(&format!("n{i}"), "Person").unwrap()).collect();
        for (i, &n) in ids.iter().enumerate() {
            b.add_existence(n, iv(1, 20)).unwrap();
            b.set_property(n, "risk", "low", iv(1, 4 + i as u64)).unwrap();
            b.set_property(n, "risk", "high", iv(5 + i as u64, 20)).unwrap();
        }
        for (i, (src, tgt)) in
            [(3, 1), (0, 3), (3, 0), (1, 3), (2, 2), (0, 1)].into_iter().enumerate()
        {
            let e = b.add_edge(&format!("e{i}"), "meets", ids[src], ids[tgt]).unwrap();
            b.add_existence(e, iv(2, 4)).unwrap();
            b.add_existence(e, iv(6 + i as u64, 9 + i as u64)).unwrap();
            b.set_property(e, "loc", "cafe", iv(2, 3)).unwrap();
        }
        b.domain(iv(1, 30)).build().unwrap()
    }

    /// Asserts the layout of a bulk load: every row live, at index = position
    /// in `(object id, interval)` order, so each object's rows are one run of
    /// indices, and every adjacency list ascending.
    fn assert_bulk_layout(rel: &GraphRelations) {
        let (nodes, edges) = (rel.node_rows(), rel.edge_rows());
        assert!(nodes.windows(2).all(|w| (w[0].node, w[0].interval) < (w[1].node, w[1].interval)));
        assert!(edges.windows(2).all(|w| (w[0].edge, w[0].interval) < (w[1].edge, w[1].interval)));
        let node_ids = (0..rel.num_nodes() as u32).map(NodeId);
        let listed: Vec<u32> =
            node_ids.clone().flat_map(|n| rel.rows_of_node(n).to_vec()).collect();
        assert_eq!(listed, (0..nodes.len() as u32).collect::<Vec<_>>());
        let edge_ids = (0..rel.num_edges() as u32).map(EdgeId);
        let listed: Vec<u32> = edge_ids.flat_map(|e| rel.rows_of_edge(e).to_vec()).collect();
        assert_eq!(listed, (0..edges.len() as u32).collect::<Vec<_>>());
        for n in node_ids {
            let rows = |end: fn(&EdgeRow) -> NodeId| -> Vec<u32> {
                (0..edges.len() as u32).filter(|&r| end(&edges[r as usize]) == n).collect()
            };
            assert_eq!(rel.out_edge_rows(n), rows(|row| row.src), "out of {n:?}");
            assert_eq!(rel.in_edge_rows(n), rows(|row| row.tgt), "into {n:?}");
        }
        assert!((0..nodes.len() as u32).all(|r| rel.is_node_row_live(r)));
        assert!((0..edges.len() as u32).all(|r| rel.is_edge_row_live(r)));
    }

    #[test]
    fn a_bulk_load_lays_rows_out_in_id_and_interval_order() {
        let rel = GraphRelations::from_itpg(&tangled());
        assert_eq!(rel.stats().temporal_nodes, 8);
        assert_eq!(rel.stats().temporal_edges, 18);
        assert_bulk_layout(&rel);
        assert_eq!(rel.out_edge_rows(NodeId(3)), [0, 1, 2, 6, 7, 8]);
        assert_eq!(rel.in_edge_rows(NodeId(3)), [3, 4, 5, 9, 10, 11]);
        assert_bulk_layout(&GraphRelations::from_itpg(&sample()));
        assert_bulk_layout(&GraphRelations::from_itpg(&ring(CHUNK + 3)));
    }

    /// Everything a relations value stores, at its physical row indices.
    #[derive(Debug, PartialEq)]
    struct Physical {
        nodes: Vec<NodeRow>,
        edges: Vec<EdgeRow>,
        live: Vec<bool>,
        lists: [Vec<Vec<u32>>; 4],
        canonical: CanonicalRelations,
    }

    fn physical(rel: &GraphRelations) -> Physical {
        let node_ids = || (0..rel.num_nodes() as u32).map(NodeId);
        let edge_ids = (0..rel.num_edges() as u32).map(EdgeId);
        let live_nodes = (0..rel.node_rows().len() as u32).map(|r| rel.is_node_row_live(r));
        let live_edges = (0..rel.edge_rows().len() as u32).map(|r| rel.is_edge_row_live(r));
        Physical {
            nodes: rel.node_rows().to_vec(),
            edges: rel.edge_rows().to_vec(),
            live: live_nodes.chain(live_edges).collect(),
            lists: [
                node_ids().map(|n| rel.rows_of_node(n).to_vec()).collect(),
                edge_ids.map(|e| rel.rows_of_edge(e).to_vec()).collect(),
                node_ids().map(|n| rel.out_edge_rows(n).to_vec()).collect(),
                node_ids().map(|n| rel.in_edge_rows(n).to_vec()).collect(),
            ],
            canonical: rel.canonical_snapshot(),
        }
    }

    #[test]
    fn the_order_of_touched_does_not_change_a_delta() {
        let mut itpg = tangled();
        let rel = GraphRelations::from_itpg(&itpg);
        let mut batch = tgraph::Batch::new(1);
        batch
            .set_property("n3", "risk", "mid", iv(2, 3))
            .set_property("n0", "risk", "mid", iv(12, 14))
            .add_node("n4", "Person")
            .add_node("n5", "Person")
            .add_existence("n4", iv(3, 9))
            .add_existence("n5", iv(1, 4))
            .add_edge("e6", "meets", "n4", "n3")
            .add_edge("e7", "meets", "n1", "n5")
            .add_existence("e6", iv(4, 5))
            .add_existence("e7", iv(2, 3))
            .set_property("e4", "loc", "park", iv(2, 2))
            .set_property("e1", "loc", "bar", iv(7, 7));
        let applied = itpg.apply_batch(&batch).unwrap();
        let mut in_order = rel.clone();
        let stats = in_order.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats {
                node_rows_added: 8,
                node_rows_retracted: 2,
                edge_rows_added: 6,
                edge_rows_retracted: 2,
            }
        );
        let expected = physical(&in_order);
        assert_eq!(expected.canonical, GraphRelations::from_itpg(&itpg).canonical_snapshot());
        let mut reversed = applied.touched.clone();
        reversed.reverse();
        let mut rotated = applied.touched.clone();
        rotated.rotate_left(3);
        let mut repeated = applied.touched.clone();
        repeated.extend(applied.touched.iter().rev().step_by(2));
        // Objects past the old end are created whether listed or not.
        let unlisted: Vec<Object> =
            reversed.iter().copied().filter(|o| !applied.created.contains(o)).collect();
        for touched in [reversed, rotated, repeated, unlisted] {
            let mut rel = rel.clone();
            assert_eq!(rel.apply_delta(&itpg, &touched), stats, "{touched:?}");
            assert_eq!(physical(&rel), expected, "{touched:?}");
        }
    }

    /// The rows of `rel` at `indices`, by interval.
    fn intervals(rel: &GraphRelations, indices: &[u32], of_nodes: bool) -> Vec<Interval> {
        let interval = |row: u32| match of_nodes {
            true => rel.node_rows()[row as usize].interval,
            false => rel.edge_rows()[row as usize].interval,
        };
        indices.iter().map(|&row| interval(row)).collect()
    }

    #[test]
    fn reasserting_the_state_of_touched_objects_changes_no_row() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        let pinned = rel.snapshot();
        let mut batch = tgraph::Batch::new(1);
        batch
            .add_existence("n2", iv(2, 3))
            .set_property("n1", "name", "Ann", iv(1, 9))
            .set_property("n2", "risk", "high", iv(6, 8))
            .add_existence("e1", iv(5, 6))
            .set_property("e1", "loc", "park", iv(5, 5));
        let applied = itpg.apply_batch(&batch).unwrap();
        assert_eq!(applied.touched.len(), 3);
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(stats, DeltaStats::default(), "nothing is added or retracted");
        // No row, row list, liveness flag or existence set is written, so every
        // column is still the pinned one.
        assert_eq!(pinned.shared_columns(&rel), 12);
        for n in [NodeId(0), NodeId(1)] {
            assert_eq!(rel.rows_of_node(n), pinned.rows_of_node(n));
        }
        assert_eq!(rel.rows_of_edge(EdgeId(0)), pinned.rows_of_edge(EdgeId(0)));
        assert_eq!(rel.canonical_snapshot(), pinned.canonical_snapshot());
    }

    #[test]
    fn a_flip_inside_one_row_kills_only_that_row() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        let bob = rel.rows_of_node(NodeId(1)).to_vec();
        assert_eq!(intervals(&rel, &bob, true), [iv(1, 4), iv(5, 9)]);
        let base = rel.node_rows().len() as u32;
        let mut batch = tgraph::Batch::new(1);
        batch.set_property("n2", "risk", "mid", iv(6, 7));
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats { node_rows_added: 3, node_rows_retracted: 1, ..DeltaStats::default() }
        );
        // [1,4] keeps its index; [5,9] dies and its three pieces are appended,
        // listed after it in interval order.
        assert!(rel.is_node_row_live(bob[0]) && !rel.is_node_row_live(bob[1]));
        assert_eq!(rel.rows_of_node(NodeId(1)), [bob[0], base, base + 1, base + 2]);
        let now = rel.rows_of_node(NodeId(1)).to_vec();
        assert_eq!(intervals(&rel, &now, true), [iv(1, 4), iv(5, 5), iv(6, 7), iv(8, 9)]);
        assert_eq!(rel.rows_of_node(NodeId(0)), [0], "the untouched node keeps its row");
        assert_delta_invariants(&rel);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    #[test]
    fn an_adjacent_extension_with_equal_properties_kills_only_the_row_it_joins() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        let bob = rel.rows_of_node(NodeId(1)).to_vec();
        let base = rel.node_rows().len() as u32;
        // Bob stays two more days, still named and high-risk: [5,9] grows to
        // [5,11], so it dies and [1,4] does not.
        let mut batch = tgraph::Batch::new(1);
        batch
            .add_existence("n2", iv(10, 11))
            .set_property("n2", "name", "Bob", iv(10, 11))
            .set_property("n2", "risk", "high", iv(10, 11));
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats { node_rows_added: 1, node_rows_retracted: 1, ..DeltaStats::default() }
        );
        assert_eq!(rel.rows_of_node(NodeId(1)), [bob[0], base]);
        assert_eq!(intervals(&rel, &[bob[0], base], true), [iv(1, 4), iv(5, 11)]);
        assert!(!rel.is_node_row_live(bob[1]));
        assert_delta_invariants(&rel);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    #[test]
    fn an_edge_change_unlinks_only_its_retracted_rows() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        let e1 = rel.rows_of_edge(EdgeId(0)).to_vec();
        assert_eq!(intervals(&rel, &e1, false), [iv(3, 3), iv(5, 6)]);
        assert_eq!(rel.out_edge_rows(NodeId(0)), e1);
        let base = rel.edge_rows().len() as u32;
        // The meeting moves from the park to a bar on its last day: [5,6] dies,
        // [5,5] and [6,6] are appended, [3,3] stays where it is.
        let mut batch = tgraph::Batch::new(1);
        batch.set_property("e1", "loc", "bar", iv(6, 6));
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats { edge_rows_added: 2, edge_rows_retracted: 1, ..DeltaStats::default() }
        );
        let now = [e1[0], base, base + 1];
        assert_eq!(rel.rows_of_edge(EdgeId(0)), now);
        assert_eq!(rel.out_edge_rows(NodeId(0)), now);
        assert_eq!(rel.in_edge_rows(NodeId(1)), now);
        assert!(!rel.is_edge_row_live(e1[1]));
        assert_delta_invariants(&rel);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    #[test]
    fn deltas_starting_from_an_empty_graph_match_a_bulk_build() {
        let mut itpg = Itpg::empty(iv(1, 11));
        let mut rel = GraphRelations::from_itpg(&itpg);
        assert_eq!(rel.stats().temporal_nodes, 0);
        let mut batch = tgraph::Batch::new(1);
        batch
            .add_node("a", "Person")
            .add_node("b", "Person")
            .add_existence("a", iv(1, 9))
            .add_existence("b", iv(2, 6))
            .set_property("a", "risk", "high", iv(1, 4))
            .add_edge("e", "meets", "a", "b")
            .add_existence("e", iv(3, 5));
        let applied = itpg.apply_batch(&batch).unwrap();
        rel.apply_delta(&itpg, &applied.touched);
        assert_delta_invariants(&rel);
        let bulk = GraphRelations::from_itpg(&itpg);
        assert_eq!(rel.canonical_snapshot(), bulk.canonical_snapshot());
        // With no prior rows, delta loading is literally a bulk build: indices agree.
        assert_eq!(rel.node_rows(), bulk.node_rows());
        assert_eq!(rel.edge_rows(), bulk.edge_rows());
        assert_eq!(rel.node_rows_sorted_by_id(), bulk.node_rows_sorted_by_id());
    }

    #[test]
    fn snapshots_are_copy_on_write() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        let pinned = rel.snapshot();
        assert_eq!(pinned.shared_columns(&rel), 12, "a fresh snapshot shares every column");

        // An edge-only batch must not write any node column: the writer diverges
        // the edge storage while the snapshot keeps the old version.
        let before = rel.canonical_snapshot();
        let mut batch = tgraph::Batch::new(1);
        batch.add_existence("e1", iv(7, 8));
        let applied = itpg.apply_batch(&batch).unwrap();
        rel.apply_delta(&itpg, &applied.touched);

        // Written: the edge rows, their liveness, existence and the three edge
        // row indexes.  Unwritten: the five node columns and the edge names.
        assert_eq!(pinned.shared_columns(&rel), 6);
        // The pinned snapshot is immutable: it still shows the pre-batch state,
        // while the live relations show the post-batch state.
        assert_eq!(pinned.canonical_snapshot(), before);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
        assert_ne!(pinned.canonical_snapshot(), rel.canonical_snapshot());

        // Dropping the snapshot and applying another delta writes in place again
        // (unique ownership — no second copy), and a fresh snapshot re-shares.
        drop(pinned);
        let again = rel.snapshot();
        assert_eq!(again.shared_columns(&rel), 12);

        // The mirror case: a node-only property change that leaves every
        // existence as it was must not write any edge column.
        let before = rel.canonical_snapshot();
        let mut batch = tgraph::Batch::new(2);
        batch.set_property("n1", "risk", "high", iv(6, 9));
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats { node_rows_added: 2, node_rows_retracted: 1, ..DeltaStats::default() }
        );

        // Written: the node rows, their liveness and the node row lists.
        // Unwritten: the seven edge columns, the node names and node existence.
        assert_eq!(again.shared_columns(&rel), 9);
        assert_eq!(again.canonical_snapshot(), before);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    /// `nodes` people, each meeting the next one round a ring: one edge per node.
    fn ring(nodes: usize) -> Itpg {
        let mut b = ItpgBuilder::new();
        let ids: Vec<NodeId> =
            (0..nodes).map(|i| b.add_node(&format!("n{i}"), "Person").unwrap()).collect();
        for (i, &n) in ids.iter().enumerate() {
            b.add_existence(n, iv(1, 20)).unwrap();
            b.set_property(n, "risk", "low", iv(1, 20)).unwrap();
            let e = b.add_edge(&format!("e{i}"), "meets", n, ids[(i + 1) % nodes]).unwrap();
            b.add_existence(e, iv(2, 5)).unwrap();
        }
        b.domain(iv(1, 30)).build().unwrap()
    }

    /// The number of chunk positions at which `a` and `b` do not hold the very
    /// same chunk, counting a chunk only one of them has.
    fn chunks_apart<T>(a: &Column<T>, b: &Column<T>) -> usize {
        let (a, b) = (&a.chunks, &b.chunks);
        a.iter().zip(b.iter()).filter(|(x, y)| !Arc::ptr_eq(x, y)).count()
            + a.len().abs_diff(b.len())
    }

    /// The eight chunked columns of two relations values, side by side.
    fn chunk_distances(a: &GraphRelations, b: &GraphRelations) -> [(&'static str, usize); 8] {
        [
            ("node_names", chunks_apart(&a.nodes.names, &b.nodes.names)),
            ("edge_names", chunks_apart(&a.edges.names, &b.edges.names)),
            ("node_rows_by_id", chunks_apart(&a.nodes.rows_by_id, &b.nodes.rows_by_id)),
            ("edge_rows_by_id", chunks_apart(&a.edges.rows_by_id, &b.edges.rows_by_id)),
            ("edge_rows_by_src", chunks_apart(&a.by_src, &b.by_src)),
            ("edge_rows_by_tgt", chunks_apart(&a.by_tgt, &b.by_tgt)),
            ("node_existence", chunks_apart(&a.nodes.existence, &b.nodes.existence)),
            ("edge_existence", chunks_apart(&a.edges.existence, &b.edges.existence)),
        ]
    }

    #[test]
    fn a_delta_copies_only_the_chunks_it_writes() {
        let people = 3 * CHUNK + CHUNK / 2;
        let mut itpg = ring(people);
        let mut rel = GraphRelations::from_itpg(&itpg);
        assert_eq!(rel.nodes.names.chunks.len(), 4);
        assert_eq!(rel.edges.names.chunks.len(), 4);
        // Rows with equal properties hold one list, so copying them allocates
        // nothing.
        let rows = rel.node_rows();
        assert!(Arc::ptr_eq(&rows[0].props, &rows[people - 1].props));
        let pinned = rel.snapshot();

        // One node touched in the second chunk; one edge added from the first
        // chunk's nodes to the third's.
        let mut batch = tgraph::Batch::new(1);
        batch
            .set_property(format!("n{}", CHUNK + 7), "risk", "high", iv(10, 20))
            .add_edge("new", "meets", "n3", format!("n{}", 2 * CHUNK + 1))
            .add_existence("new", iv(3, 4));
        let applied = itpg.apply_batch(&batch).unwrap();
        rel.apply_delta(&itpg, &applied.touched);

        // At most the touched chunk and the tail per column, and only where the
        // batch changed something: the touched node's existence did not change.
        assert_eq!(
            chunk_distances(&pinned, &rel),
            [
                ("node_names", 0),
                ("edge_names", 1),
                ("node_rows_by_id", 1),
                ("edge_rows_by_id", 1),
                ("edge_rows_by_src", 1),
                ("edge_rows_by_tgt", 1),
                ("node_existence", 0),
                ("edge_existence", 1),
            ],
            "the touched node's chunk, the new edge's tail chunk, its endpoints' chunks"
        );
        // No node was created and no node's existence changed: those two
        // columns are the ones unwritten.
        assert_eq!(pinned.shared_columns(&rel), 2);
        assert!(pinned.nodes.names.is_shared_with(&rel.nodes.names));
        assert!(pinned.nodes.existence.is_shared_with(&rel.nodes.existence));
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    #[test]
    fn snapshots_keep_their_version_while_deltas_cross_chunk_boundaries() {
        // Each batch creates 300 people and 300 edges, so the third crosses
        // from the fourth chunk into the fifth, and touches existing ones.
        let mut itpg = ring(3 * CHUNK + CHUNK / 2);
        let mut rel = GraphRelations::from_itpg(&itpg);
        let mut pinned = vec![(rel.snapshot(), rel.canonical_snapshot())];
        for epoch in 1..=3u64 {
            let mut batch = tgraph::Batch::new(epoch);
            for i in 0..300 {
                let (name, edge) = (format!("p{epoch}_{i}"), format!("f{epoch}_{i}"));
                batch
                    .add_node(name.clone(), "Person")
                    .add_existence(name.clone(), iv(5, 9))
                    .add_edge(edge.clone(), "meets", name, format!("n{}", 11 * i))
                    .add_existence(edge, iv(6, 7));
            }
            batch
                .set_property(format!("n{}", 700 * epoch), "risk", "high", iv(12, 20))
                .add_existence(format!("e{}", 900 * epoch), iv(8, 9));
            let applied = itpg.apply_batch(&batch).unwrap();
            rel.apply_delta(&itpg, &applied.touched);
            pinned.push((rel.snapshot(), rel.canonical_snapshot()));
        }
        assert_eq!(rel.nodes.names.chunks.len(), 5);
        assert_eq!(rel.edges.names.chunks.len(), 5);
        for (epoch, (snapshot, canonical)) in pinned.iter().enumerate() {
            assert_eq!(&snapshot.canonical_snapshot(), canonical, "the snapshot of batch {epoch}");
        }
        assert_delta_invariants(&rel);
        assert_eq!(rel.canonical_snapshot(), GraphRelations::from_itpg(&itpg).canonical_snapshot());
    }

    #[test]
    fn one_delta_creating_more_than_a_chunk_copies_only_the_old_tail() {
        let old = 3 * CHUNK + CHUNK / 2;
        let mut itpg = ring(old);
        let mut rel = GraphRelations::from_itpg(&itpg);
        let pinned = rel.snapshot();
        let before = pinned.canonical_snapshot();
        // More new people than a chunk holds, each meeting the next one: the
        // new objects fill the old tail chunk and one more.
        let created = CHUNK + 100;
        let mut batch = tgraph::Batch::new(1);
        for i in 0..created {
            let (name, edge) = (format!("p{i}"), format!("f{i}"));
            batch
                .add_node(name.clone(), "Person")
                .add_existence(name.clone(), iv(3, 9))
                .add_edge(edge.clone(), "meets", name, format!("p{}", (i + 1) % created))
                .add_existence(edge, iv(4, 6));
        }
        let applied = itpg.apply_batch(&batch).unwrap();
        let stats = rel.apply_delta(&itpg, &applied.touched);
        assert_eq!(
            stats,
            DeltaStats { node_rows_added: created, edge_rows_added: created, ..stats }
        );
        assert_eq!(rel.nodes.names.chunks.len(), 5);
        // Per column, the old tail chunk is copied and one chunk added; the
        // three full chunks before it stay shared.
        for (column, apart) in chunk_distances(&pinned, &rel) {
            assert_eq!(apart, 2, "{column}");
        }
        assert_eq!(pinned.canonical_snapshot(), before);
        assert_eq!(pinned.num_nodes(), old);
        // Nothing old changed, so the delta appended exactly what a bulk load
        // of the final graph lays out after the old objects.
        let bulk = GraphRelations::from_itpg(&itpg);
        assert_bulk_layout(&rel);
        assert_eq!(physical(&rel), physical(&bulk));
    }

    /// The rows a relations value lists through its two permutations, in order.
    fn permuted_rows(rel: &GraphRelations) -> (Vec<NodeRow>, Vec<EdgeRow>) {
        let nodes = rel.node_rows_sorted_by_id().iter().map(|&r| &rel.node_rows()[r as usize]);
        let edges = rel.edge_rows_sorted_by_src().iter().map(|&r| &rel.edge_rows()[r as usize]);
        (nodes.cloned().collect(), edges.cloned().collect())
    }

    #[test]
    fn permutations_are_memoised_per_version() {
        let mut itpg = sample();
        let mut rel = GraphRelations::from_itpg(&itpg);
        // Read before the delta, so the version being replaced has a filled memo
        // that the snapshot shares.
        let before =
            (rel.node_rows_sorted_by_id().to_vec(), rel.edge_rows_sorted_by_src().to_vec());
        let pinned = rel.snapshot();
        assert!(std::ptr::eq(pinned.node_rows_sorted_by_id(), rel.node_rows_sorted_by_id()));
        assert!(std::ptr::eq(pinned.edge_rows_sorted_by_src(), rel.edge_rows_sorted_by_src()));

        let mut batch = tgraph::Batch::new(1);
        batch
            .set_property("n1", "risk", "high", iv(6, 9))
            .add_node("n0", "Person")
            .add_existence("n0", iv(2, 8))
            .add_edge("e0", "meets", "n0", "n1")
            .add_existence("e0", iv(4, 5))
            .add_existence("e1", iv(8, 8));
        let applied = itpg.apply_batch(&batch).unwrap();
        rel.apply_delta(&itpg, &applied.touched);

        // The snapshot keeps the permutations of its own version …
        assert_eq!(pinned.node_rows_sorted_by_id(), before.0);
        assert_eq!(pinned.edge_rows_sorted_by_src(), before.1);
        // … and the new version lists the rows a bulk load of the new graph lists.
        assert_delta_invariants(&rel);
        assert_eq!(permuted_rows(&rel), permuted_rows(&GraphRelations::from_itpg(&itpg)));
        assert!(std::ptr::eq(
            rel.node_rows_sorted_by_id(),
            rel.snapshot().node_rows_sorted_by_id()
        ));
    }

    #[test]
    fn existence_lookup_finds_the_interval_around_a_time_point() {
        // Four existence intervals, three gaps.
        let mut b = ItpgBuilder::new();
        let n = b.add_node("n", "Person").unwrap();
        let pieces = [iv(2, 4), iv(7, 7), iv(10, 15), iv(18, 20)];
        for piece in pieces {
            b.add_existence(n, piece).unwrap();
        }
        let rel = GraphRelations::from_itpg(&b.domain(iv(0, 22)).build().unwrap());
        let at = |t| rel.existence_interval_at(Object::Node(NodeId(0)), t);
        for piece in pieces {
            assert_eq!(at(piece.start()), Some(piece));
            assert_eq!(at(piece.end()), Some(piece));
        }
        assert_eq!(at(12), Some(iv(10, 15)), "inside a middle interval");
        for outside in [0, 1, 5, 6, 8, 9, 16, 17, 21, 22] {
            assert_eq!(at(outside), None, "time {outside} is before, in a gap, or after");
        }
    }

    #[test]
    fn indexes_are_consistent() {
        let rel = GraphRelations::from_itpg(&sample());
        assert_eq!(rel.out_edge_rows(NodeId(0)).len(), 2);
        assert!(rel.in_edge_rows(NodeId(0)).is_empty());
        assert_eq!(rel.in_edge_rows(NodeId(1)).len(), 2);
        assert_eq!(rel.object_name(Object::Node(NodeId(1))), "n2");
        assert_eq!(rel.object_name(Object::Edge(EdgeId(0))), "e1");
        assert_eq!(rel.existence(Object::Edge(EdgeId(0))).intervals(), &[iv(3, 3), iv(5, 6)]);
        assert_eq!(rel.existence_interval_at(Object::Node(NodeId(0)), 5), Some(iv(1, 9)));
        assert_eq!(rel.existence_interval_at(Object::Edge(EdgeId(0)), 4), None);
        assert_eq!(rel.domain(), iv(1, 11));
    }

    #[test]
    fn a_row_reaching_the_end_of_time_loads_and_answers() {
        let mut b = ItpgBuilder::new();
        let ann = b.add_node("ann", "Person").unwrap();
        b.add_existence(ann, iv(5, Time::MAX)).unwrap();
        let itpg = b.domain(iv(0, Time::MAX)).build().unwrap();
        assert_eq!(itpg.num_temporal_nodes(), 1);
        let rel = GraphRelations::from_itpg(&itpg);
        let intervals: Vec<Interval> = rel.node_rows().iter().map(|row| row.interval).collect();
        assert_eq!(intervals, [iv(5, Time::MAX)]);
        let q1 = crate::Query::benchmark(trpq::queries::QueryId::Q1).run(&rel);
        let table = q1.into_output().expect("the default mode materialises").table;
        let rows = table.render(|object| rel.object_name(object).to_owned());
        assert_eq!(rows, [["ann".to_owned(), format!("[5, {}]", Time::MAX)]]);
    }
}
