//! Integration tests reproducing, verbatim, the binding tables printed in the paper
//! for the running example of Figure 1 (Sections I, IV and VI).

use engine::{ExecutionOptions, GraphRelations, QueryOutput, TimeRef};
use tgraph::{Interval, Object};
use trpq::queries::QueryId;
use workload::figure1;

fn graph() -> GraphRelations {
    GraphRelations::from_itpg(&figure1())
}

fn run(id: QueryId, graph: &GraphRelations) -> QueryOutput {
    engine::Query::benchmark(id)
        .with_options(ExecutionOptions::default())
        .run(graph)
        .into_output()
        .expect("the default mode materialises")
}

fn run_text(text: &str, graph: &GraphRelations) -> QueryOutput {
    engine::Query::parse(text)
        .expect("query runs")
        .with_options(ExecutionOptions::default())
        .run(graph)
        .into_output()
        .expect("the default mode materialises")
}

/// Renders the binding table as rows of `(name, time)` strings for easy comparison
/// with the tables in the paper.
fn rows(graph: &GraphRelations, output: &QueryOutput) -> Vec<Vec<String>> {
    output.table.render(|o| graph.object_name(o).to_owned())
}

fn point_rows(graph: &GraphRelations, output: &QueryOutput) -> Vec<Vec<(String, u64)>> {
    // Expands interval rows into point rows (snapshot interpretation) so that the
    // result can be compared against the point-based tables of Section IV.
    let mut out = Vec::new();
    for row in output.table.rows() {
        match row.first().map(|b| b.time) {
            Some(TimeRef::Interval(iv)) => {
                for t in iv.points() {
                    out.push(
                        row.iter()
                            .map(|b| (graph.object_name(b.object).to_owned(), t))
                            .collect::<Vec<_>>(),
                    );
                }
            }
            _ => out.push(
                row.iter()
                    .map(|b| {
                        (
                            graph.object_name(b.object).to_owned(),
                            b.time.as_point().expect("point binding"),
                        )
                    })
                    .collect(),
            ),
        }
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn q1_returns_every_person_at_every_existing_time() {
    let g = graph();
    let out = run(QueryId::Q1, &g);
    // n1 [1,9], n2 [1,9], n3 [1,7], n6 [2,11], n7 [1,8]: 9+9+7+10+8 = 43 point tuples.
    assert_eq!(out.table.point_tuple_count(), 43);
    let pts = point_rows(&g, &out);
    assert_eq!(pts.len(), 43);
    assert!(pts.contains(&vec![("n1".to_string(), 1)]));
    assert!(pts.contains(&vec![("n1".to_string(), 9)]));
    assert!(pts.contains(&vec![("n7".to_string(), 8)]));
    assert!(!pts.contains(&vec![("n7".to_string(), 9)]));
    // Rooms are never returned.
    assert!(!pts.iter().any(|r| r[0].0.starts_with('r') || r[0].0 == "n4" || r[0].0 == "n5"));
}

#[test]
fn q2_low_risk_people() {
    let g = graph();
    let out = run(QueryId::Q2, &g);
    let pts = point_rows(&g, &out);
    // n1 at 1..9, n2 at 1..4, n6 at 2..11 — exactly the three groups shown in the paper.
    let expected: Vec<Vec<(String, u64)>> = (1..=9)
        .map(|t| vec![("n1".to_string(), t)])
        .chain((1..=4).map(|t| vec![("n2".to_string(), t)]))
        .chain((2..=11).map(|t| vec![("n6".to_string(), t)]))
        .collect::<Vec<_>>()
        .into_iter()
        .collect();
    let mut expected = expected;
    expected.sort();
    assert_eq!(pts, expected);
}

#[test]
fn q3_low_risk_at_time_1() {
    let g = graph();
    let out = run(QueryId::Q3, &g);
    let pts = point_rows(&g, &out);
    assert_eq!(pts, vec![vec![("n1".to_string(), 1)], vec![("n2".to_string(), 1)]]);
}

#[test]
fn q4_low_risk_before_time_10() {
    let g = graph();
    let out = run(QueryId::Q4, &g);
    let pts = point_rows(&g, &out);
    // Same as Q2 but n6 is cut off at time 9.
    assert_eq!(pts.len(), 9 + 4 + 8);
    assert!(pts.contains(&vec![("n6".to_string(), 9)]));
    assert!(!pts.contains(&vec![("n6".to_string(), 10)]));
}

#[test]
fn q5_low_risk_meets_high_risk() {
    let g = graph();
    let out = run(QueryId::Q5, &g);
    // Section VI: the coalesced table has exactly two rows.
    let coalesced = rows(&g, &out);
    assert_eq!(
        coalesced,
        vec![
            vec![
                "n1".to_string(),
                "[5, 6]".into(),
                "e1".into(),
                "[5, 6]".into(),
                "n2".into(),
                "[5, 6]".into()
            ],
            vec![
                "n2".to_string(),
                "[1, 2]".into(),
                "e2".into(),
                "[1, 2]".into(),
                "n3".into(),
                "[1, 2]".into()
            ],
        ]
    );
    // Section IV: the point-based interpretation has four rows.
    let pts = point_rows(&g, &out);
    assert_eq!(
        pts,
        vec![
            vec![("n1".to_string(), 5), ("e1".to_string(), 5), ("n2".to_string(), 5)],
            vec![("n1".to_string(), 6), ("e1".to_string(), 6), ("n2".to_string(), 6)],
            vec![("n2".to_string(), 1), ("e2".to_string(), 1), ("n3".to_string(), 1)],
            vec![("n2".to_string(), 2), ("e2".to_string(), 2), ("n3".to_string(), 2)],
        ]
    );
}

#[test]
fn q6_state_immediately_before_a_positive_test() {
    let g = graph();
    let out = run(QueryId::Q6, &g);
    assert_eq!(rows(&g, &out), vec![vec!["n6".to_string(), "9".into(), "n6".into(), "8".into()]]);
}

#[test]
fn q7_room_visited_immediately_before_a_positive_test() {
    let g = graph();
    let out = run(QueryId::Q7, &g);
    assert_eq!(rows(&g, &out), vec![vec!["n6".to_string(), "9".into(), "n4".into(), "8".into()]]);
}

#[test]
fn q8_rooms_visited_at_or_before_a_positive_test() {
    let g = graph();
    let out = run(QueryId::Q8, &g);
    let mut expected = vec![
        vec!["n6".to_string(), "9".into(), "n4".into(), "8".into()],
        vec!["n6".to_string(), "9".into(), "n4".into(), "7".into()],
        vec!["n6".to_string(), "9".into(), "n5".into(), "6".into()],
        vec!["n6".to_string(), "9".into(), "n5".into(), "5".into()],
    ];
    expected.sort();
    let mut actual = rows(&g, &out);
    actual.sort();
    assert_eq!(actual, expected);
}

#[test]
fn q9_high_risk_people_who_met_someone_who_later_tested_positive() {
    let g = graph();
    let out = run(QueryId::Q9, &g);
    let mut actual = rows(&g, &out);
    actual.sort();
    assert_eq!(
        actual,
        vec![
            vec!["n3".to_string(), "4".into()],
            vec!["n7".to_string(), "5".into()],
            vec!["n7".to_string(), "6".into()],
        ]
    );
}

#[test]
fn q10_requires_the_positive_test_before_the_meeting() {
    // Q10 looks for a positive test up to one hour *before* the meeting; in Figure 1
    // Eve only tests positive after all her meetings, so the result is empty, and in
    // particular it is a subset of the Q9 result.
    let g = graph();
    let q10 = run(QueryId::Q10, &g);
    assert!(q10.table.is_empty());
    let q9 = run(QueryId::Q9, &g);
    assert!(q10.table.iter().all(|r| q9.table.rows().contains(r)));
}

#[test]
fn q11_close_contact_through_a_shared_room() {
    let g = graph();
    let out = run(QueryId::Q11, &g);
    let mut actual = rows(&g, &out);
    actual.sort();
    assert_eq!(
        actual,
        vec![
            vec!["n3".to_string(), "7".into()],
            vec!["n7".to_string(), "7".into()],
            vec!["n7".to_string(), "8".into()],
        ]
    );
}

#[test]
fn q12_union_of_both_close_contact_definitions() {
    let g = graph();
    let out = run(QueryId::Q12, &g);
    let mut actual = rows(&g, &out);
    actual.sort_by(|a, b| {
        (a[0].clone(), a[1].parse::<u64>().unwrap())
            .cmp(&(b[0].clone(), b[1].parse::<u64>().unwrap()))
    });
    assert_eq!(
        actual,
        vec![
            vec!["n3".to_string(), "4".into()],
            vec!["n3".to_string(), "7".into()],
            vec!["n7".to_string(), "5".into()],
            vec!["n7".to_string(), "6".into()],
            vec!["n7".to_string(), "7".into()],
            vec!["n7".to_string(), "8".into()],
        ]
    );
}

#[test]
fn section_iv_intermediate_examples() {
    let g = graph();
    // "which room was person x visiting immediately before she received a positive
    // test result", with the intermediate variable y kept.
    let with_y = run_text(
        "MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person)-[:visits]->(z:Room) ON contact_tracing",
        &g,
    );
    assert_eq!(
        rows(&g, &with_y),
        vec![vec!["n6".to_string(), "9".into(), "n6".into(), "8".into(), "n4".into(), "8".into()]]
    );
    // The simplified variant without the intermediate variable.
    let without_y = run_text(
        "MATCH (x:Person {test = 'pos'})-/PREV/-()-[:visits]->(z:Room) ON contact_tracing",
        &g,
    );
    assert_eq!(
        rows(&g, &without_y),
        vec![vec!["n6".to_string(), "9".into(), "n4".into(), "8".into()]]
    );
    // The contact-tracing query of Section I-A (same as Q9 up to variable naming).
    let intro = run_text(
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-(y:Person {test = 'pos'}) \
         ON contact_tracing",
        &g,
    );
    let mut actual = rows(&g, &intro);
    actual.sort();
    assert_eq!(
        actual,
        vec![
            vec!["n3".to_string(), "4".into(), "n6".into(), "9".into()],
            vec!["n7".to_string(), "5".into(), "n6".into(), "9".into()],
            vec!["n7".to_string(), "6".into(), "n6".into(), "9".into()],
        ]
    );
}

#[test]
fn queries_without_temporal_navigation_have_equal_interval_and_total_work() {
    let g = graph();
    for id in [QueryId::Q1, QueryId::Q2, QueryId::Q3, QueryId::Q4, QueryId::Q5] {
        let out = run(id, &g);
        // Interval rows equal output rows: nothing is expanded.
        assert_eq!(out.stats.interval_rows, out.stats.output_rows, "{}", id.name());
        assert!(out.table.iter().all(|r| r.iter().all(|b| matches!(b.time, TimeRef::Interval(_)))));
    }
    for id in [QueryId::Q6, QueryId::Q7, QueryId::Q8, QueryId::Q9, QueryId::Q11, QueryId::Q12] {
        let out = run(id, &g);
        assert!(
            out.table.iter().all(|r| r.iter().all(|b| matches!(b.time, TimeRef::Point(_)))),
            "{}",
            id.name()
        );
    }
}

#[test]
fn domain_restriction_still_answers_queries() {
    // Restricting the graph to the first eight time points removes Eve's positive test
    // and with it every contact-tracing answer.
    let restricted = figure1().restrict_to(Interval::of(1, 8));
    let g = GraphRelations::from_itpg(&restricted);
    assert!(run(QueryId::Q9, &g).table.is_empty());
    assert!(!run(QueryId::Q5, &g).table.is_empty());
    // Sanity: names survive restriction.
    assert_eq!(g.object_name(Object::Node(restricted.node_by_name("n6").unwrap())), "n6");
}
