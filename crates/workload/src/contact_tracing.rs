//! The synthetic contact-tracing workload of Section VII.A.
//!
//! Persons and their trajectories are turned into an interval-timestamped temporal
//! property graph with the same structure as the paper's experimental graphs:
//!
//! * `Person` nodes whose periods of validity are their stays on campus;
//! * `Room` nodes for the most-visited locations, valid from first entrance to last
//!   exit;
//! * a `visits` edge for every stay of a person in a room;
//! * a `meets` edge between two persons who are at the same (non-classroom) location
//!   at the same time, valid over the overlap of their stays;
//! * 18 % of persons are `risk = 'high'` for their whole lifespan (the share of the
//!   population aged 65+), the rest `risk = 'low'`;
//! * a configurable fraction of persons additionally `test = 'pos'` from a uniformly
//!   random time point until the end of their lifespan.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgraph::{Interval, Itpg, ItpgBuilder, NodeId};

use crate::trajectory::{generate_stays, Place, Stay, TrajectoryConfig};

/// Parameters of the contact-tracing graph generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ContactTracingConfig {
    /// Trajectory parameters (number of persons, rooms, time slots, …).
    pub trajectories: TrajectoryConfig,
    /// Fraction of persons marked `risk = 'high'`.
    pub high_risk_rate: f64,
    /// Fraction of persons that test positive at some point.
    pub positivity_rate: f64,
    /// Random seed; the generator is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for ContactTracingConfig {
    fn default() -> Self {
        ContactTracingConfig {
            trajectories: TrajectoryConfig::default(),
            high_risk_rate: 0.18,
            positivity_rate: 0.02,
            seed: 0x7e_a7_05,
        }
    }
}

impl ContactTracingConfig {
    /// Convenience constructor with the given number of persons and default settings.
    pub fn with_persons(num_persons: usize) -> Self {
        ContactTracingConfig {
            trajectories: TrajectoryConfig { num_persons, ..Default::default() },
            ..Default::default()
        }
    }

    /// Sets the positivity rate (Figure 5 sweeps it from 2 % to 10 %).
    pub fn with_positivity_rate(mut self, rate: f64) -> Self {
        self.positivity_rate = rate;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of slots in the temporal domain (the paper fixes 48; smoke
    /// benchmarks shrink it to keep point expansion cheap).
    pub fn with_time_points(mut self, num_time_points: u64) -> Self {
        self.trajectories.num_time_points = num_time_points;
        self
    }
}

/// Generates a contact-tracing ITPG from the configuration.
pub fn generate(config: &ContactTracingConfig) -> Itpg {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stays = generate_stays(&config.trajectories, &mut rng);
    build_graph(config, &stays, &mut rng)
}

fn build_graph(config: &ContactTracingConfig, stays: &[Stay], rng: &mut StdRng) -> Itpg {
    let num_persons = config.trajectories.num_persons;
    let mut builder = ItpgBuilder::new();

    // Person nodes: existence is the union of their stays.
    let mut person_nodes: Vec<Option<NodeId>> = vec![None; num_persons];
    let mut person_last: Vec<Option<u64>> = vec![None; num_persons];
    for stay in stays {
        if person_nodes[stay.person].is_none() {
            let id = builder
                .add_node(&format!("p{}", stay.person), "Person")
                .expect("person names are unique");
            person_nodes[stay.person] = Some(id);
        }
        let id = person_nodes[stay.person].expect("just inserted");
        builder.add_existence(id, stay.interval).expect("stay is a valid interval");
        let last = person_last[stay.person].get_or_insert(stay.interval.end());
        *last = (*last).max(stay.interval.end());
    }

    // Room nodes: existence from first entrance to last exit.
    let mut room_bounds: HashMap<usize, Interval> = HashMap::new();
    for stay in stays {
        if let Place::Room(room) = stay.place {
            room_bounds
                .entry(room)
                .and_modify(|iv| *iv = iv.hull(&stay.interval))
                .or_insert(stay.interval);
        }
    }
    let mut room_nodes: HashMap<usize, NodeId> = HashMap::new();
    let mut rooms: Vec<(usize, Interval)> = room_bounds.into_iter().collect();
    rooms.sort_by_key(|(room, _)| *room);
    for (room, bounds) in rooms {
        let id = builder.add_node(&format!("r{room}"), "Room").expect("room names are unique");
        builder.add_existence(id, bounds).expect("room bounds are valid");
        builder.set_property(id, "num", room as i64, bounds).expect("room exists over its bounds");
        room_nodes.insert(room, id);
    }

    // Risk and test properties, over each person's stays in stay order.
    let mut stays_of: Vec<Vec<Interval>> = vec![Vec::new(); num_persons];
    for stay in stays {
        stays_of[stay.person].push(stay.interval);
    }
    for (person, node) in person_nodes.iter().enumerate() {
        let Some(node) = *node else { continue };
        let existence = &stays_of[person];
        let high = rng.gen_bool(config.high_risk_rate);
        let risk = if high { "high" } else { "low" };
        for iv in existence {
            builder.set_property(node, "risk", risk, *iv).expect("person exists during stays");
        }
        if rng.gen_bool(config.positivity_rate) {
            // Positive from a uniformly random time point, for the rest of the lifespan.
            let last = person_last[person].expect("person has at least one stay");
            let first = existence.iter().map(|iv| iv.start()).min().expect("non-empty");
            let pos_time = rng.gen_range(first..=last);
            for iv in existence {
                if let Some(tail) = iv.intersect(&Interval::of(pos_time, last)) {
                    builder.set_property(node, "test", "pos", tail).expect("person exists then");
                }
            }
        }
    }

    // Visits edges: one per (person, room) stay.
    let mut visit_count = 0usize;
    for stay in stays {
        if let Place::Room(room) = stay.place {
            let person = person_nodes[stay.person].expect("person node exists");
            let room_node = room_nodes[&room];
            let edge = builder
                .add_edge(&format!("v{visit_count}"), "visits", person, room_node)
                .expect("edge names are unique");
            visit_count += 1;
            builder.add_existence(edge, stay.interval).expect("both endpoints exist");
        }
    }

    // Meets edges: pairs of persons co-located at the same meeting location.
    let mut per_location: HashMap<usize, Vec<&Stay>> = HashMap::new();
    for stay in stays {
        if let Place::MeetingPoint(loc) = stay.place {
            per_location.entry(loc).or_default().push(stay);
        }
    }
    let mut locations: Vec<(usize, Vec<&Stay>)> = per_location.into_iter().collect();
    locations.sort_by_key(|(loc, _)| *loc);
    let mut meet_count = 0usize;
    for (loc, mut stays_here) in locations {
        stays_here.sort_by_key(|s| (s.interval.start(), s.person));
        for i in 0..stays_here.len() {
            for j in (i + 1)..stays_here.len() {
                let (a, b) = (stays_here[i], stays_here[j]);
                if b.interval.start() > a.interval.end() {
                    break; // sorted by start: no later stay can overlap a.
                }
                if a.person == b.person {
                    continue;
                }
                if let Some(overlap) = a.interval.intersect(&b.interval) {
                    let pa = person_nodes[a.person].expect("person node exists");
                    let pb = person_nodes[b.person].expect("person node exists");
                    let edge = builder
                        .add_edge(&format!("m{meet_count}"), "meets", pa, pb)
                        .expect("edge names are unique");
                    meet_count += 1;
                    builder.add_existence(edge, overlap).expect("both endpoints exist");
                    builder
                        .set_property(edge, "loc", format!("loc{loc}"), overlap)
                        .expect("edge exists over the overlap");
                }
            }
        }
    }

    builder.build().expect("the generated graph is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::Object;

    fn small_config() -> ContactTracingConfig {
        ContactTracingConfig::with_persons(300).with_seed(11)
    }

    #[test]
    fn generated_graph_is_well_formed_and_deterministic() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a, b);
        a.validate().unwrap();
        let c = generate(&small_config().with_seed(12));
        assert_ne!(a, c);
    }

    #[test]
    fn graph_has_the_expected_shape() {
        let g = generate(&small_config());
        let mut persons = 0usize;
        let mut rooms = 0usize;
        let mut high = 0usize;
        let mut positive = 0usize;
        for n in g.node_ids() {
            let o = Object::Node(n);
            match g.label(o) {
                "Person" => {
                    persons += 1;
                    let first = g.existence(o).min().unwrap();
                    if g.prop_value_at(o, "risk", first).map(|v| v.as_str()) == Some(Some("high")) {
                        high += 1;
                    }
                    if g.properties(o).any(|(p, _)| p == "test") {
                        positive += 1;
                    }
                }
                "Room" => rooms += 1,
                other => panic!("unexpected label {other}"),
            }
        }
        assert_eq!(persons, 300);
        assert!(rooms > 0 && rooms <= 100);
        // Roughly 18% high risk and 2% positive.
        assert!((20..=90).contains(&high), "high = {high}");
        assert!(positive <= 25, "positive = {positive}");

        let mut meets = 0usize;
        let mut visits = 0usize;
        for e in g.edge_ids() {
            match g.label(Object::Edge(e)) {
                "meets" => meets += 1,
                "visits" => visits += 1,
                other => panic!("unexpected label {other}"),
            }
        }
        assert!(visits > 0);
        assert!(meets > 0);
    }

    #[test]
    fn positivity_rate_controls_the_number_of_positive_persons() {
        let low = generate(&small_config().with_positivity_rate(0.02));
        let high = generate(&small_config().with_positivity_rate(0.30));
        let count = |g: &Itpg| {
            g.node_ids()
                .filter(|&n| g.properties(Object::Node(n)).any(|(p, _)| p == "test"))
                .count()
        };
        assert!(count(&high) > count(&low));
    }

    #[test]
    fn edge_growth_is_superlinear_in_the_number_of_persons() {
        // Doubling the number of persons should more than double the number of meets
        // edges, because co-location counts grow quadratically with density.
        let small = generate(&ContactTracingConfig::with_persons(400).with_seed(3));
        let large = generate(&ContactTracingConfig::with_persons(800).with_seed(3));
        let meets =
            |g: &Itpg| g.edge_ids().filter(|&e| g.label(Object::Edge(e)) == "meets").count();
        assert!(
            meets(&large) as f64 > 2.5 * meets(&small) as f64,
            "meets: {} vs {}",
            meets(&small),
            meets(&large)
        );
    }
}
