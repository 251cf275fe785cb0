//! Binding tables: the result of evaluating a `MATCH` clause.
//!
//! As in the paper, every variable `x` contributes two conceptual columns, `x` (the
//! bound node or edge) and `x_time` (the time of the binding).  Queries without
//! temporal navigation keep their bindings temporally coalesced — `x_time` is an
//! interval, interpreted snapshot-wise — whereas queries with temporal navigation
//! produce point-based bindings.

use std::fmt;

use tgraph::{Interval, Object, Time};

/// The temporal part of a binding: either a single time point or a coalesced interval
/// with snapshot-based interpretation (all variables of the row share each contained
/// time point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeRef {
    /// A point-based binding.
    Point(Time),
    /// A coalesced, snapshot-interpreted interval binding.
    Interval(Interval),
}

impl TimeRef {
    /// The number of time points represented by this binding.
    pub fn num_points(&self) -> u128 {
        match self {
            TimeRef::Point(_) => 1,
            TimeRef::Interval(iv) => iv.num_points(),
        }
    }

    /// The single time point, if this is a point binding.
    pub fn as_point(&self) -> Option<Time> {
        match self {
            TimeRef::Point(t) => Some(*t),
            TimeRef::Interval(_) => None,
        }
    }

    /// The interval, if this is an interval binding.
    pub fn as_interval(&self) -> Option<Interval> {
        match self {
            TimeRef::Interval(iv) => Some(*iv),
            TimeRef::Point(_) => None,
        }
    }
}

impl fmt::Display for TimeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeRef::Point(t) => write!(f, "{t}"),
            TimeRef::Interval(iv) => write!(f, "{iv}"),
        }
    }
}

/// One variable binding: an object together with its binding time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Binding {
    /// The bound node or edge.
    pub object: Object,
    /// The binding time.
    pub time: TimeRef,
}

impl Binding {
    /// Creates a point-based binding.
    pub fn at_point(object: Object, t: Time) -> Self {
        Binding { object, time: TimeRef::Point(t) }
    }

    /// Creates an interval-based binding.
    pub fn over_interval(object: Object, interval: Interval) -> Self {
        Binding { object, time: TimeRef::Interval(interval) }
    }
}

/// A table of variable bindings.
///
/// The rows are reachable only through accessors ([`BindingTable::rows`],
/// [`BindingTable::iter`], [`BindingTable::into_rows`]), so every table handed out by
/// the engine stays in the canonical sorted, deduplicated order its producers
/// establish.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BindingTable {
    /// The variable names, in column order.
    pub columns: Vec<String>,
    /// The rows; every row has exactly one binding per column.
    rows: Vec<Vec<Binding>>,
}

impl BindingTable {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        BindingTable { columns, rows: Vec::new() }
    }

    /// Creates a table directly from rows; every row must have exactly one binding
    /// per column.  The rows are taken as-is, in the order given (Step 3 hands over
    /// its rows sorted and deduplicated).
    pub fn from_rows(columns: Vec<String>, rows: Vec<Vec<Binding>>) -> Self {
        debug_assert!(rows.iter().all(|row| row.len() == columns.len()));
        BindingTable { columns, rows }
    }

    /// The rows, each one binding per column.
    pub fn rows(&self) -> &[Vec<Binding>] {
        &self.rows
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<Binding>> {
        self.rows.iter()
    }

    /// Consumes the table, returning its rows.
    pub fn into_rows(self) -> Vec<Vec<Binding>> {
        self.rows
    }

    /// Appends rows; every row must have exactly one binding per column.
    pub fn extend_rows<I: IntoIterator<Item = Vec<Binding>>>(&mut self, rows: I) {
        self.rows.extend(rows);
        debug_assert!(self.rows.iter().all(|row| row.len() == self.columns.len()));
    }

    /// The number of rows (the "output size" reported in Table II).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sorts the rows into a canonical order and removes duplicates.
    pub fn sort_dedup(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
    }

    /// The total number of point-wise bindings represented by the table: interval rows
    /// count one tuple per contained time point.
    pub fn point_tuple_count(&self) -> u128 {
        self.rows.iter().map(|row| row.first().map_or(1, |b| b.time.num_points())).sum()
    }

    /// Renders every row as strings using the given object-name resolver; used by
    /// tests that compare against the binding tables printed in the paper, and by the
    /// example binaries for display.
    pub fn render<F: Fn(Object) -> String>(&self, resolve: F) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .flat_map(|b| [resolve(b.object), b.time.to_string()])
                    .collect::<Vec<String>>()
            })
            .collect()
    }

    /// Pretty-prints the table with `x` / `x_time` column headers.
    pub fn display<F: Fn(Object) -> String>(&self, resolve: F) -> String {
        let mut header: Vec<String> = Vec::new();
        for c in &self.columns {
            header.push(c.clone());
            header.push(format!("{c}_time"));
        }
        let mut out = String::new();
        out.push_str(&header.join("\t"));
        out.push('\n');
        for row in self.render(resolve) {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

impl<'a> IntoIterator for &'a BindingTable {
    type Item = &'a Vec<Binding>;
    type IntoIter = std::slice::Iter<'a, Vec<Binding>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::NodeId;

    fn obj(i: u32) -> Object {
        Object::Node(NodeId(i))
    }

    #[test]
    fn time_ref_accessors() {
        let p = TimeRef::Point(5);
        let i = TimeRef::Interval(Interval::of(2, 4));
        assert_eq!(p.num_points(), 1);
        assert_eq!(i.num_points(), 3);
        assert_eq!(p.as_point(), Some(5));
        assert_eq!(p.as_interval(), None);
        assert_eq!(i.as_interval(), Some(Interval::of(2, 4)));
        assert_eq!(p.to_string(), "5");
        assert_eq!(i.to_string(), "[2, 4]");
    }

    #[test]
    fn table_push_sort_dedup() {
        let mut t = BindingTable::new(vec!["x".into()]);
        t.extend_rows([(1, 5), (0, 3), (1, 5)].map(|(o, t)| vec![Binding::at_point(obj(o), t)]));
        assert_eq!(t.len(), 3);
        t.sort_dedup();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0].object, obj(0));
    }

    #[test]
    fn accessors_expose_rows_without_the_raw_field() {
        let rows = vec![vec![Binding::at_point(obj(0), 1)], vec![Binding::at_point(obj(1), 2)]];
        let t = BindingTable::from_rows(vec!["x".into()], rows.clone());
        assert_eq!(t.rows(), rows.as_slice());
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let mut extended = BindingTable::new(vec!["x".into()]);
        extended.extend_rows(rows.clone());
        assert_eq!(extended.into_rows(), rows);
    }

    #[test]
    fn point_tuple_count_expands_intervals() {
        let t = BindingTable::from_rows(
            vec!["x".into()],
            vec![
                vec![Binding::over_interval(obj(0), Interval::of(1, 9))],
                vec![Binding::at_point(obj(1), 4)],
            ],
        );
        assert_eq!(t.point_tuple_count(), 10);
    }

    #[test]
    fn point_counts_reach_the_end_of_time() {
        let all = TimeRef::Interval(Interval::of(0, Time::MAX));
        assert_eq!(all.num_points(), u128::from(Time::MAX) + 1);
        assert_eq!(TimeRef::Interval(Interval::point(Time::MAX)).num_points(), 1);
        let t = BindingTable::from_rows(
            vec!["x".into()],
            vec![
                vec![Binding::over_interval(obj(0), Interval::of(0, Time::MAX))],
                vec![Binding::over_interval(obj(1), Interval::of(Time::MAX - 1, Time::MAX))],
            ],
        );
        assert_eq!(t.point_tuple_count(), u128::from(Time::MAX) + 3);
        let compact = crate::answers::CompactAnswers::from_table(&t);
        assert_eq!(compact.num_points(), u128::from(Time::MAX) + 3);
    }

    #[test]
    fn rendering_produces_object_and_time_columns() {
        let t = BindingTable::from_rows(
            vec!["x".into(), "y".into()],
            vec![vec![Binding::at_point(obj(7), 5), Binding::at_point(obj(6), 9)]],
        );
        let rendered = t.render(|o| match o {
            Object::Node(n) => format!("n{}", n.0),
            Object::Edge(e) => format!("e{}", e.0),
        });
        assert_eq!(rendered, vec![vec!["n7".to_string(), "5".into(), "n6".into(), "9".into()]]);
        let shown = t.display(|o| format!("{o:?}"));
        assert!(shown.starts_with("x\tx_time\ty\ty_time\n"));
    }
}
