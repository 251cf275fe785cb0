//! Answer checks: a stable digest of a binding table, and the per-seed digests
//! pinned in this directory (`expected_<seed>.json`).

use std::collections::BTreeMap;

use bench::json::Json;
use engine::bindings::{Binding, BindingTable, TimeRef};
use tgraph::Object;

use crate::jsonio;

/// The seed a run uses when none is given, and the held-out seed: the two
/// whose answers are pinned.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 7;

/// FNV-1a over bytes this file lays out itself, so a digest depends on neither
/// the standard library's release nor the pointer width — as the derived `Hash`
/// of the rows would, through its length prefixes and discriminants.
struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }
}

/// Row count and content hash of an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: String,
}

/// The hashed bytes, every number a little-endian `u64`: the row count, then
/// per row its binding count, then per binding the object kind (0 node, 1 edge),
/// the object id, the time kind (0 point, 1 interval) and the first and last
/// time point.
pub fn digest_rows(rows: &[Vec<Binding>]) -> Digest {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    hasher.write_u64(rows.len() as u64);
    for row in rows {
        hasher.write_u64(row.len() as u64);
        for binding in row {
            let (kind, id) = match binding.object {
                Object::Node(node) => (0, node.0),
                Object::Edge(edge) => (1, edge.0),
            };
            let (time_kind, first, last) = match binding.time {
                TimeRef::Point(t) => (0, t, t),
                TimeRef::Interval(interval) => (1, interval.start(), interval.end()),
            };
            for value in [kind, u64::from(id), time_kind, first, last] {
                hasher.write_u64(value);
            }
        }
    }
    Digest { rows: rows.len() as u64, hash: format!("{:016x}", hasher.0) }
}

pub fn digest_table(table: &BindingTable) -> Digest {
    digest_rows(table.rows())
}

/// The digests of one workload, by answer key (`g0.Q5`, `REACH`, …).
pub type Digests = BTreeMap<String, Digest>;

/// The pinned digests of `workload` at `seed`, if that seed is pinned.
pub fn pinned(seed: u64, workload: &str) -> Option<Digests> {
    let text = match seed {
        DEFAULT_SEED => include_str!("expected_42.json"),
        HELD_OUT_SEED => include_str!("expected_7.json"),
        _ => return None,
    };
    let file = jsonio::parse(text).expect("the pinned digest files are valid JSON");
    Some(section(&file, workload))
}

fn section(file: &Json, workload: &str) -> Digests {
    let Some(Json::Obj(entries)) = jsonio::get(file, workload) else { return Digests::new() };
    entries
        .iter()
        .filter_map(|(key, value)| match value {
            Json::Arr(pair) => match (pair.first().and_then(jsonio::number), pair.get(1)) {
                (Some(rows), Some(Json::Str(hash))) => {
                    Some((key.clone(), Digest { rows: rows as u64, hash: hash.clone() }))
                }
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Keys of `actual` that the pinned digests contradict (absent keys included).
pub fn mismatches(pinned: &Digests, actual: &Digests) -> Vec<String> {
    actual
        .iter()
        .filter(|(key, digest)| pinned.get(*key) != Some(digest))
        .map(|(key, _)| key.clone())
        .collect()
}

/// Holds a run's digests against the pins of its seed — or, under `--record`,
/// makes them the pins.  Returns the answer keys that failed the check.
pub fn against_pins(args: &crate::RunArgs, workload: &str, actual: &Digests) -> Vec<String> {
    if let Some(path) = &args.record {
        return match record(path, workload, actual) {
            Ok(()) => Vec::new(),
            Err(error) => {
                eprintln!("--record: {error}");
                actual.keys().cloned().collect()
            }
        };
    }
    pinned(args.seed, workload).map_or_else(Vec::new, |pins| mismatches(&pins, actual))
}

/// [`against_pins`] for the stream workloads, whose digests are all of one
/// pass: the line to print if any is contradicted, which fails the whole run.
pub fn pin_failure(args: &crate::RunArgs, workload: &str, actual: &Digests) -> Option<String> {
    let bad = against_pins(args, workload, actual);
    (!bad.is_empty())
        .then(|| format!("ANSWER CHECK FAILED against the pinned digests for: {}", bad.join(", ")))
}

/// `--record`: replaces `workload`'s section of the digest file at `path`,
/// keeping the other workloads' sections.
fn record(path: &str, workload: &str, actual: &Digests) -> Result<(), String> {
    let mut sections = match std::fs::read_to_string(path) {
        Ok(text) => match jsonio::parse(&text)? {
            Json::Obj(entries) => entries,
            _ => return Err(format!("{path}: not a JSON object")),
        },
        Err(_) => Vec::new(),
    };
    let section = Json::Obj(
        actual
            .iter()
            .map(|(key, d)| {
                (key.clone(), Json::Arr(vec![Json::UInt(d.rows), Json::str(d.hash.clone())]))
            })
            .collect(),
    );
    match sections.iter_mut().find(|(name, _)| name == workload) {
        Some(entry) => entry.1 = section,
        None => sections.push((workload.to_owned(), section)),
    }
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Obj(sections).render()).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{EdgeId, Interval, NodeId};

    #[test]
    fn digests_separate_tables_and_survive_a_file_round_trip() {
        let row = |n: u32, t: u64| vec![Binding::at_point(Object::Node(NodeId(n)), t)];
        let a = digest_rows(&[row(1, 5), row(2, 6)]);
        assert_eq!(a, digest_rows(&[row(1, 5), row(2, 6)]));
        assert_ne!(a.hash, digest_rows(&[row(2, 6), row(1, 5)]).hash);
        assert_eq!(a.rows, 2);

        // The byte layout is this file's own: a value worked out by hand pins it.
        let edge = Binding::over_interval(Object::Edge(EdgeId(2)), Interval::of(3, 4));
        let mixed = digest_rows(&[row(1, 5), vec![edge]]);
        assert_eq!(mixed.hash, "86a31a595126c863");
        let at = |object, time| digest_rows(&[vec![Binding { object, time }]]).hash;
        let (node, point) = (Object::Node(NodeId(1)), TimeRef::Point(5));
        assert_ne!(at(node, point), at(Object::Edge(EdgeId(1)), point));
        assert_ne!(at(node, point), at(node, TimeRef::Interval(Interval::of(5, 5))));

        let actual: Digests = [("Q1".to_owned(), a.clone())].into();
        let file = Json::obj([(
            "adhoc-g6",
            Json::Obj(vec![(
                "Q1".to_owned(),
                Json::Arr(vec![Json::UInt(a.rows), Json::str(a.hash.clone())]),
            )]),
        )]);
        let read_back = section(&jsonio::parse(&file.render()).unwrap(), "adhoc-g6");
        assert_eq!(read_back, actual);
        assert!(mismatches(&read_back, &actual).is_empty());
        let other: Digests = [("Q1".to_owned(), Digest { rows: 3, ..a })].into();
        assert_eq!(mismatches(&read_back, &other), vec!["Q1".to_owned()]);
        assert_eq!(mismatches(&Digests::new(), &actual), vec!["Q1".to_owned()]);
    }

    #[test]
    fn both_pinned_seeds_cover_every_workload() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for (workload, _) in crate::report::WORKLOADS {
                assert!(
                    pinned(seed, workload).is_some_and(|d| !d.is_empty()),
                    "expected_{seed}.json has no digests for {workload}; regenerate with --record"
                );
            }
        }
        assert!(pinned(1, "adhoc-g6").is_none());
    }
}
