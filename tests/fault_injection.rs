//! Failure-injection integration tests: faults in the advanced controller,
//! scheduling jitter, and systematic exploration of interleavings.

use soter::core::prelude::*;
use soter::drone::stack::{build_circuit_stack, AdvancedKind, DroneStackConfig, Protection};
use soter::runtime::{JitterSchedule, SystematicTester};
use soter::scenarios::catalog;
use soter::scenarios::runner::{run_scenario, run_stack};
use soter::sim::trajectory::MissionMetrics;
use soter::sim::world::Workspace;
use soter_ctrl::fault::FaultSpec;

/// Builds the protected circuit stack with a fault-injected advanced
/// controller and runs one lap.
fn faulted_lap(fault: FaultSpec, seed: u64) -> MissionMetrics {
    let workspace = Workspace::corner_cut_course();
    let config = DroneStackConfig {
        workspace: workspace.clone(),
        protection: Protection::Rta,
        advanced: AdvancedKind::Faulted { fault, seed },
        start: workspace.surveillance_points()[0],
        seed,
        ..DroneStackConfig::default()
    };
    let waypoints = workspace.surveillance_points().to_vec();
    let laps = waypoints.len() as i64;
    let (system, handle) = build_circuit_stack(&config, waypoints, false);
    let outcome = run_stack(system, handle, 300.0, Some(laps), JitterSchedule::Ideal);
    MissionMetrics::from_trajectory(
        &outcome.trajectory,
        &workspace,
        outcome.completion_time.is_some(),
    )
}

#[test]
fn rta_contains_random_spike_faults() {
    let metrics = faulted_lap(
        FaultSpec::RandomSpike {
            probability: 0.05,
            magnitude: 6.0,
        },
        2,
    );
    assert_eq!(metrics.collisions, 0, "{metrics:?}");
}

#[test]
fn rta_contains_bias_faults() {
    let metrics = faulted_lap(
        FaultSpec::Bias {
            bias: [1.5, 1.5, 0.0],
        },
        3,
    );
    assert_eq!(metrics.collisions, 0, "{metrics:?}");
}

#[test]
fn rta_contains_stuck_output_faults() {
    let metrics = faulted_lap(
        FaultSpec::StuckOutput {
            from_step: 200,
            duration: 400,
            value: [6.0, 0.0, 0.0],
        },
        4,
    );
    assert_eq!(metrics.collisions, 0, "{metrics:?}");
}

#[test]
fn moderate_scheduling_jitter_preserves_safety_most_of_the_time() {
    // With mild jitter the safe controller is still scheduled in time; the
    // paper's crashes appeared only under severe scheduling starvation.
    let workspace = Workspace::corner_cut_course();
    let config = DroneStackConfig {
        workspace: workspace.clone(),
        protection: Protection::Rta,
        start: workspace.surveillance_points()[0],
        seed: 5,
        ..DroneStackConfig::default()
    };
    let waypoints = workspace.surveillance_points().to_vec();
    let (system, handle) = build_circuit_stack(&config, waypoints, false);
    let jitter = JitterSchedule::iid(0.05, Duration::from_millis(30), 9);
    let outcome = run_stack(system, handle, 200.0, Some(4), jitter);
    let metrics = MissionMetrics::from_trajectory(
        &outcome.trajectory,
        &workspace,
        outcome.completion_time.is_some(),
    );
    assert_eq!(metrics.collisions, 0, "{metrics:?}");
}

#[test]
fn baseline_comparison_shapes_hold_for_a_second_seed() {
    let lap = |protection| {
        let outcome = run_scenario(&catalog::fig12a(protection, 11, 300.0));
        let metrics = outcome.metrics.expect("circuit laps produce metrics");
        let run = outcome.run.expect("circuit laps produce a run");
        (metrics, run.completion_time)
    };
    let (rta, t_rta) = lap(Protection::Rta);
    let (sc, t_sc) = lap(Protection::ScOnly);
    assert_eq!(rta.collisions, 0);
    assert_eq!(sc.collisions, 0);
    if let (Some(a), Some(b)) = (t_rta, t_sc) {
        assert!(a <= b);
    }
}

#[test]
fn systematic_testing_covers_interleavings_of_a_small_module() {
    // The bounded-asynchrony tester explores firing orders of a small
    // two-node system and finds no φ violation because the DM's decision
    // does not depend on the order in which the controllers fire.
    let factory = || {
        let oracle_topic = "x";
        struct O;
        impl SafetyOracle for O {
            fn is_safe(&self, obs: &dyn TopicRead) -> bool {
                obs.get("x")
                    .and_then(Value::as_float)
                    .map(|x| x.abs() <= 5.0)
                    .unwrap_or(true)
            }
            fn is_safer(&self, obs: &dyn TopicRead) -> bool {
                obs.get("x")
                    .and_then(Value::as_float)
                    .map(|x| x.abs() <= 2.0)
                    .unwrap_or(false)
            }
            fn may_leave_safe_within(&self, obs: &dyn TopicRead, h: Duration) -> bool {
                match obs.get("x").and_then(Value::as_float) {
                    Some(x) => x.abs() + h.as_secs_f64() > 5.0,
                    None => true,
                }
            }
        }
        let ac = FnNode::builder("ac")
            .subscribes([oracle_topic])
            .publishes(["u"])
            .period(Duration::from_millis(100))
            .step(|_, _, out| {
                out.insert("u", Value::Float(1.0));
            })
            .build();
        let sc = FnNode::builder("sc")
            .subscribes([oracle_topic])
            .publishes(["u"])
            .period(Duration::from_millis(100))
            .step(|_, inp, out| {
                let x = inp.get("x").and_then(Value::as_float).unwrap_or(0.0);
                out.insert("u", Value::Float(if x > 0.0 { -1.0 } else { 1.0 }));
            })
            .build();
        let module = RtaModule::builder("m")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(O)
            .build()
            .unwrap();
        let mut x = 0.0f64;
        let plant = FnNode::builder("plant")
            .subscribes(["u"])
            .publishes(["x"])
            .period(Duration::from_millis(50))
            .step(move |_, inp, out| {
                x += inp.get("u").and_then(Value::as_float).unwrap_or(0.0) * 0.05;
                out.insert("x", Value::Float(x));
            })
            .build();
        let mut sys = RtaSystem::new("explored");
        sys.add_module(module).unwrap();
        sys.add_node(plant).unwrap();
        sys
    };
    let tester = SystematicTester::new(
        factory,
        |_, topics, _| {
            topics
                .get("x")
                .and_then(Value::as_float)
                .map(|x| x.abs() <= 5.0)
                .unwrap_or(true)
        },
        Time::from_secs_f64(10.0),
    );
    let report = tester.explore_random(20, 99);
    assert_eq!(report.schedules_explored, 20);
    assert!(report.all_safe(), "{report:?}");
}
