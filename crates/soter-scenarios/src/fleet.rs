//! Fleet layout compilation and the multi-drone airspace runner.
//!
//! A [`FleetSpec`] attached to a [`Scenario`] is compiled here into the
//! per-drone [`DroneAgent`]s of `soter_drone::airspace` — one spawn point
//! and patrol circuit per drone, derived from the workspace's surveillance
//! points according to the layout — and executed as one composed
//! [`RtaSystem`](soter_core::composition::RtaSystem) of N scoped stacks.
//! [`run_fleet`] flies it through the same flight loop as single-drone
//! missions, watching every drone: the loop records one ground-truth
//! trajectory per drone and the end-of-run totals, and `run_fleet` adds
//! the separation monitor.  It counts workspace collision episodes
//! (φ_safe) per drone and separation violation episodes (φ_sep) per pair,
//! and folds everything into a digest that hashes trajectories like the
//! single-drone one, so fleet scenarios campaign, shard and golden-pin
//! exactly like the paper's original drivers.

use crate::runner::{
    collision_episodes, fly, hash_trajectory, module_index, ScenarioOutcome, Totals, Watched,
};
use crate::spec::{FleetLayout, FleetSpec, MissionSpec, Scenario};
use soter_drone::airspace::{
    build_airspace_stack, drone_prefix, module_name, scoped_topic, AirspaceStackConfig, DroneAgent,
};
use soter_drone::stack::Protection;
use soter_drone::topics;
use soter_runtime::executor::Executor;
use soter_runtime::trace::TraceHasher;
use soter_sim::airspace::SeparationMonitor;
use soter_sim::trajectory::Trajectory;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// The per-drone results of one airspace run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Ground-truth trajectory of each drone, in fleet order.
    pub trajectories: Vec<Trajectory>,
    /// Workspace (φ_safe) collision episodes per drone.
    pub collision_episodes: Vec<usize>,
    /// Separation (φ_sep) violation episodes across all pairs.
    pub separation_violations: usize,
    /// Minimum pairwise separation observed over the whole run (metres).
    pub min_separation: f64,
    /// Circuit waypoints reached per drone.
    pub targets_reached: Vec<usize>,
    /// Time at which every drone had completed its lap, for lap missions.
    pub completion_time: Option<f64>,
}

fn rotate(points: &[Vec3], k: usize) -> Vec<Vec3> {
    let n = points.len();
    (0..n).map(|j| points[(j + k) % n]).collect()
}

fn lifted(points: &[Vec3], dz: f64) -> Vec<Vec3> {
    points
        .iter()
        .map(|p| Vec3::new(p.x, p.y, p.z + dz))
        .collect()
}

/// Compiles a fleet layout into per-drone agents over the workspace.
///
/// * [`FleetLayout::Crossing`] — drone `i` flies the surveillance circuit
///   rotated by `i`, with odd drones reversed (head-on encounters); each
///   "ring" of `len(circuit)` drones is lifted `r_sep + 0.6` metres so
///   same-route rings spawn (and stay) outside the separation radius,
/// * [`FleetLayout::Convoy`] — like crossing but all drones keep the same
///   direction of travel (a staggered patrol convoy),
/// * [`FleetLayout::Corridor`] — drones shuttle between the first two
///   surveillance points on per-drone lanes (lateral offset by direction,
///   vertical offset per pair), odd drones travelling opposite to even
///   ones.
///
/// # Panics
///
/// Panics if the workspace has no surveillance points (or fewer than two
/// for the corridor layout).
pub fn fleet_agents(
    scenario: &Scenario,
    workspace: &Workspace,
    fleet: &FleetSpec,
) -> Vec<DroneAgent> {
    let points = workspace.surveillance_points();
    assert!(
        !points.is_empty(),
        "a fleet layout needs surveillance points"
    );
    (0..fleet.drones)
        .map(|i| {
            let circuit = match fleet.layout {
                FleetLayout::Crossing | FleetLayout::Convoy => {
                    let ring = (i / points.len()) as f64;
                    // Ring lift must exceed r_sep: a convoy ring flies the
                    // identical circuit directly above the ring below it.
                    let lift = fleet.separation_radius + 0.6;
                    let mut c = lifted(&rotate(points, i % points.len()), lift * ring);
                    if fleet.layout == FleetLayout::Crossing && i % 2 == 1 {
                        // Reverse the direction of travel but keep this
                        // drone's own start waypoint, so spawns stay
                        // pairwise distinct.
                        c[1..].reverse();
                    }
                    c
                }
                FleetLayout::Corridor => {
                    assert!(
                        points.len() >= 2,
                        "the corridor layout needs two corridor mouths"
                    );
                    // Even drones fly A -> B on one side of the centreline,
                    // odd drones B -> A on the other; pairs stack on
                    // vertical lanes spaced wider than r_sep so spawns
                    // start separated.
                    let dy = if i % 2 == 0 { -1.0 } else { 1.0 };
                    let z = 2.2 + (fleet.separation_radius + 0.3) * (i / 2) as f64;
                    let lane = |p: Vec3| Vec3::new(p.x, p.y + dy, z);
                    let (a, b) = (lane(points[0]), lane(points[1]));
                    if i % 2 == 0 {
                        vec![a, b]
                    } else {
                        vec![b, a]
                    }
                }
            };
            DroneAgent {
                start: circuit[0],
                circuit,
                protection: scenario.protection,
                advanced: scenario.advanced.clone(),
                // Decorrelate the drones' noise/fault streams while keeping
                // the whole fleet a function of the scenario seed.
                seed: scenario
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)),
            }
        })
        .collect()
}

/// Runs a fleet scenario to completion (or the horizon) and summarises it.
/// The runner's flight loop watches every drone; this function resolves
/// their scoped topics and modules once and feeds each instant's positions
/// to the separation monitor through one reused buffer.
///
/// # Panics
///
/// Panics if the scenario's mission is not a circuit mission — airspaces
/// fly [`MissionSpec::CircuitLoop`] or [`MissionSpec::CircuitLap`].
pub fn run_fleet(scenario: &Scenario, fleet: &FleetSpec) -> ScenarioOutcome {
    let looping = match scenario.mission {
        MissionSpec::CircuitLoop => true,
        MissionSpec::CircuitLap => false,
        _ => panic!(
            "fleet scenario `{}` must fly a circuit mission (CircuitLoop or CircuitLap)",
            scenario.name
        ),
    };
    let workspace = scenario.workspace.build();
    let config = AirspaceStackConfig {
        base: scenario.stack_config(&workspace),
        agents: fleet_agents(scenario, &workspace, fleet),
        separation_radius: fleet.separation_radius,
        yield_margin: fleet.yield_margin,
        looping,
    };
    // The executor owns the nodes, the handles the vehicles: keep both
    // alive to the end of the run.
    let (system, _handles) = build_airspace_stack(&config);
    let drones: Vec<Watched> = config
        .agents
        .iter()
        .enumerate()
        .map(|(i, agent)| {
            let prefix = drone_prefix(i);
            Watched {
                truth: scoped_topic(&prefix, topics::GROUND_TRUTH).into(),
                progress: scoped_topic(&prefix, topics::MISSION_PROGRESS).into(),
                module: module_index(&system, &module_name(i)),
                sc_only: agent.protection == Protection::ScOnly,
                lap_target: (!looping).then_some(agent.circuit.len() as i64),
            }
        })
        .collect();
    let mut monitor = SeparationMonitor::new(fleet.separation_radius);
    let schedule = scenario.jitter.model(scenario.seed);
    let flight = fly(
        system,
        schedule,
        scenario.horizon,
        &drones,
        |_, _, positions| {
            // Only judge φ_sep on instants where the whole fleet is observed,
            // so pair indices stay consistent.
            if positions.len() == drones.len() {
                monitor.observe(positions);
            }
        },
    );
    let collision_counts: Vec<usize> = flight
        .trajectories
        .iter()
        .map(|t| collision_episodes(t, &workspace))
        .collect();
    let safety_violations: usize = collision_counts.iter().sum();
    let completed = looping || flight.completion_time.is_some();
    let fleet_outcome = FleetOutcome {
        collision_episodes: collision_counts,
        separation_violations: monitor.episodes(),
        min_separation: monitor.min_separation(),
        targets_reached: flight.targets_reached,
        completion_time: flight.completion_time,
        trajectories: flight.trajectories,
    };
    let totals = flight.totals;
    let digest = digest_fleet(scenario, &fleet_outcome, &flight.exec, &totals, completed);
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        digest,
        run: None,
        metrics: None,
        planner: None,
        safety_violations,
        separation_violations: fleet_outcome.separation_violations,
        invariant_violations: totals.invariant_violations,
        mode_switches: totals.mode_switches,
        completed,
        max_deviation: None,
        fleet: Some(fleet_outcome),
        interventions: totals.interventions,
        time_in_sc: totals.time_in_sc,
    }
}

fn digest_fleet(
    scenario: &Scenario,
    outcome: &FleetOutcome,
    exec: &Executor,
    totals: &Totals,
    completed: bool,
) -> u64 {
    let mut h = TraceHasher::new();
    h.write_str(&scenario.name);
    h.write_u64(scenario.seed);
    h.write_u64(exec.trace().digest());
    h.write_u64(exec.trace().recorded_events());
    h.write_u64(outcome.trajectories.len() as u64);
    for (i, trajectory) in outcome.trajectories.iter().enumerate() {
        hash_trajectory(&mut h, trajectory);
        h.write_u64(outcome.collision_episodes[i] as u64);
        h.write_u64(outcome.targets_reached[i] as u64);
    }
    h.write_u64(outcome.separation_violations as u64);
    h.write_f64(outcome.min_separation);
    h.write_u64(totals.mode_switches as u64);
    h.write_u64(totals.invariant_violations as u64);
    h.write_bool(completed);
    match outcome.completion_time {
        Some(t) => {
            h.write_bool(true);
            h.write_f64(t);
        }
        None => {
            h.write_bool(false);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkspaceSpec;

    fn crossing(drones: usize) -> Scenario {
        Scenario::new(format!("fleet-test-{drones}"))
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_mission(MissionSpec::CircuitLoop)
            .with_fleet(FleetSpec::new(drones, FleetLayout::Crossing))
            .with_horizon(6.0)
            .with_seed(9)
    }

    #[test]
    fn layouts_produce_distinct_free_spawns() {
        for (layout, spec) in [
            (FleetLayout::Crossing, WorkspaceSpec::CornerCutCourse),
            (FleetLayout::Convoy, WorkspaceSpec::CityBlock),
            (FleetLayout::Corridor, WorkspaceSpec::ContestedCorridor),
        ] {
            let ws = spec.build();
            let scenario = Scenario::new("layout").with_workspace(spec.clone());
            let fleet = FleetSpec::new(8, layout);
            let agents = fleet_agents(&scenario, &ws, &fleet);
            assert_eq!(agents.len(), 8);
            for (i, a) in agents.iter().enumerate() {
                assert!(
                    ws.is_free(a.start),
                    "{layout:?} drone {i} spawns in collision at {}",
                    a.start
                );
                for w in &a.circuit {
                    assert!(ws.is_free(*w), "{layout:?} drone {i} waypoint {w} blocked");
                }
            }
            for i in 0..agents.len() {
                for j in (i + 1)..agents.len() {
                    assert!(
                        agents[i].start.distance(&agents[j].start) > fleet.separation_radius,
                        "{layout:?} drones {i}/{j} spawn inside r_sep"
                    );
                }
            }
            // Seeds are decorrelated.
            let seeds: std::collections::BTreeSet<u64> = agents.iter().map(|a| a.seed).collect();
            assert_eq!(seeds.len(), agents.len());
        }
    }

    #[test]
    fn crossing_alternates_direction_and_convoy_does_not() {
        let ws = WorkspaceSpec::CornerCutCourse.build();
        let scenario = Scenario::new("dir");
        let crossing = fleet_agents(&scenario, &ws, &FleetSpec::new(2, FleetLayout::Crossing));
        let convoy = fleet_agents(&scenario, &ws, &FleetSpec::new(2, FleetLayout::Convoy));
        // Same start waypoint, opposite cyclic direction: the crossing
        // drone's second waypoint is the convoy drone's last.
        assert_eq!(crossing[1].circuit[0], convoy[1].circuit[0]);
        assert_eq!(
            crossing[1].circuit[1],
            *convoy[1].circuit.last().expect("non-empty circuit")
        );
        assert_eq!(crossing[0].circuit, convoy[0].circuit);
    }

    #[test]
    fn fleet_run_is_seed_deterministic() {
        let scenario = crossing(2);
        let a = run_fleet(&scenario, scenario.fleet.as_ref().unwrap());
        let b = run_fleet(&scenario, scenario.fleet.as_ref().unwrap());
        assert_eq!(a.digest, b.digest);
        let reseeded = scenario.clone().with_seed(10);
        let c = run_fleet(&reseeded, reseeded.fleet.as_ref().unwrap());
        assert_ne!(a.digest, c.digest, "different seeds, different fleets");
        let fleet = a.fleet.expect("fleet outcome present");
        assert_eq!(fleet.trajectories.len(), 2);
        assert!(fleet.trajectories.iter().all(|t| !t.is_empty()));
        assert!(fleet.min_separation.is_finite());
    }

    #[test]
    #[should_panic(expected = "circuit mission")]
    fn fleet_rejects_non_circuit_missions() {
        let scenario = crossing(2).with_mission(MissionSpec::PlannerQueries {
            queries: 1,
            bug_probability: 0.0,
        });
        let _ = run_fleet(&scenario, scenario.fleet.clone().as_ref().unwrap());
    }
}
