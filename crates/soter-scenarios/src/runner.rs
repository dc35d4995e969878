//! Scenario execution: compiles a [`Scenario`] to a stack, runs it on the
//! discrete-event executor and summarises the result as a
//! [`ScenarioOutcome`] with a deterministic digest.

use crate::spec::{MissionSpec, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soter_core::composition::RtaSystem;
use soter_core::dm::SwitchReason;
use soter_core::rta::{Mode, SafetyOracle};
use soter_core::topic::Value;
use soter_drone::plant::PlantHandle;
use soter_drone::report::PlannerRtaReport;
use soter_drone::stack::{build_circuit_stack, build_full_stack};
use soter_drone::topics;
use soter_plan::astar::GridAstar;
use soter_plan::buggy::{BuggyRrtStar, BuggyRrtStarConfig};
use soter_plan::cache::PlanCache;
use soter_plan::rrt_star::RrtStarConfig;
use soter_plan::traits::MotionPlanner;
use soter_plan::validate::validate_plan;
use soter_runtime::executor::{Executor, ExecutorConfig};
use soter_runtime::schedule::JitterSchedule;
use soter_runtime::trace::TraceHasher;
use soter_sim::trajectory::{MissionMetrics, Trajectory};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::sync::Arc;

/// The outcome of running one stack to completion (or timeout).
#[derive(Debug)]
pub struct RunOutcome {
    /// Ground-truth trajectory with the motion-primitive mode annotated.
    pub trajectory: Trajectory,
    /// Time at which the mission-progress target was reached, if it was.
    pub completion_time: Option<f64>,
    /// Final value of the mission-progress topic.
    pub targets_reached: usize,
    /// Theorem 3.1 invariant violations observed by the runtime monitors.
    pub invariant_violations: usize,
    /// AC→SC switches of the motion-primitive module (0 for unprotected
    /// configurations).
    pub mpr_disengagements: usize,
    /// SC→AC switches of the motion-primitive module.
    pub mpr_reengagements: usize,
    /// Safety-filter interventions of the motion-primitive module: AC→SC
    /// disengagements plus ASIF command clips (0 for unprotected
    /// configurations).  The RTAEval-style "how often did the filter act"
    /// metric of cross-filter comparisons.
    pub mpr_interventions: usize,
    /// Cumulative time the motion-primitive module spent in SC mode over
    /// the run (µs-exact from the decision module's switch history; zero
    /// for unprotected configurations).  The RTAEval-style conservatism
    /// metric: a filter that barely hands control to the SC scores low.
    pub time_in_sc: soter_core::time::Duration,
    /// AC→SC plus SC→AC switches summed across every RTA module in the
    /// stack (planner and battery included).
    pub total_mode_switches: usize,
    /// Distance flown according to the plant (metres).
    pub distance_flown: f64,
    /// Final battery charge.
    pub final_charge: f64,
    /// Whether the vehicle ended the run landed.
    pub landed: bool,
    /// Battery/altitude profile samples `(time, altitude, charge)`.
    pub profile: Vec<(f64, f64, f64)>,
    /// Charge at the first AC→SC switch of the battery module, if any.
    pub battery_switch_charge: Option<f64>,
    /// Streaming digest of the executor trace (node firings, mode switches,
    /// invariant violations — maintained even though event storage is off).
    pub trace_digest: u64,
    /// Number of trace events folded into the digest.
    pub trace_events: u64,
}

/// Runs a stack until the mission-progress topic reaches `target_progress`
/// (if given) or `max_time` elapses.  Trajectory samples are recorded every
/// discrete instant from the ground-truth topic.
pub fn run_stack(
    system: RtaSystem,
    handle: PlantHandle,
    max_time: f64,
    target_progress: Option<i64>,
    schedule: JitterSchedule,
) -> RunOutcome {
    let config = ExecutorConfig {
        schedule,
        record_trace: false,
        monitor_invariants: true,
    };
    run_stack_with_config(system, handle, max_time, target_progress, config)
}

fn run_stack_with_config(
    system: RtaSystem,
    handle: PlantHandle,
    max_time: f64,
    target_progress: Option<i64>,
    config: ExecutorConfig,
) -> RunOutcome {
    // When the motion primitive is not wrapped in an RTA module (AC-only or
    // SC-only baselines), the "safe mode" annotation of the trajectory is
    // constant: true when only the safe controller is present.
    let unprotected_safe_mode = system.free_nodes().iter().any(|n| n.name() == "mpr_sc");
    let mut exec = Executor::with_config(system, config);
    let mut trajectory = Trajectory::new();
    let mut completion_time = None;
    let mut profile = Vec::new();
    let mut last_profile_sample = -1.0f64;
    let mut battery_prev_mode: Option<Mode> = None;
    let mut battery_switch_charge = None;
    while let Some(now) = exec.step_instant() {
        let t = now.as_secs_f64();
        if t > max_time {
            break;
        }
        if let Some(truth) = exec
            .topic(topics::GROUND_TRUTH)
            .and_then(topics::value_to_state)
        {
            let safe_mode = exec
                .module_mode("safe_motion_primitive")
                .map(|m| m == Mode::Sc)
                .unwrap_or(unprotected_safe_mode);
            trajectory.push(t, truth, safe_mode);
            if t - last_profile_sample >= 0.5 {
                let charge = exec
                    .topic(topics::BATTERY_CHARGE)
                    .and_then(Value::as_float)
                    .unwrap_or(1.0);
                profile.push((t, truth.position.z, charge));
                last_profile_sample = t;
            }
        }
        if let Some(mode) = exec.module_mode("battery_safety") {
            if battery_prev_mode == Some(Mode::Ac)
                && mode == Mode::Sc
                && battery_switch_charge.is_none()
            {
                battery_switch_charge =
                    exec.topic(topics::BATTERY_CHARGE).and_then(Value::as_float);
            }
            battery_prev_mode = Some(mode);
        }
        if completion_time.is_none() {
            if let Some(target) = target_progress {
                let progress = exec
                    .topic(topics::MISSION_PROGRESS)
                    .and_then(Value::as_int)
                    .unwrap_or(0);
                if progress >= target {
                    completion_time = Some(t);
                    break;
                }
            }
        }
    }
    let targets_reached = exec
        .topic(topics::MISSION_PROGRESS)
        .and_then(Value::as_int)
        .unwrap_or(0)
        .max(0) as usize;
    let invariant_violations: usize = exec.monitors().iter().map(|m| m.violations().len()).sum();
    let mpr = exec
        .system()
        .modules()
        .iter()
        .find(|m| m.name() == "safe_motion_primitive");
    let (mpr_dis, mpr_re) = mpr
        .map(|m| (m.dm().disengagement_count(), m.dm().reengagement_count()))
        .unwrap_or((0, 0));
    let (mpr_interventions, time_in_sc) = mpr
        .map(|m| (m.interventions(), m.dm().time_in_sc(exec.now())))
        .unwrap_or((0, soter_core::time::Duration::ZERO));
    let total_mode_switches: usize = exec
        .system()
        .modules()
        .iter()
        .map(|m| m.dm().disengagement_count() + m.dm().reengagement_count())
        .sum();
    let trace_digest = exec.trace().digest();
    let trace_events = exec.trace().recorded_events();
    let plant = handle.lock();
    RunOutcome {
        trajectory,
        completion_time,
        targets_reached,
        invariant_violations,
        mpr_disengagements: mpr_dis,
        mpr_reengagements: mpr_re,
        mpr_interventions,
        time_in_sc,
        total_mode_switches,
        distance_flown: plant.distance_flown(),
        final_charge: plant.battery_charge(),
        landed: plant.is_landed(),
        profile,
        battery_switch_charge,
        trace_digest,
        trace_events,
    }
}

/// Re-runs a mission scenario sequentially and tallies the motion-primitive
/// module's mode-switch reasons, in first-occurrence order.  The falsifier
/// attaches this breakdown to its counterexamples, so a pinned crash names
/// the oracle checks that fired around it.  Planner-query and fleet
/// scenarios have no single motion-primitive module and yield no breakdown.
/// A plan cache that already served the same run replays its planner
/// queries instead of re-planning; the breakdown is identical either way.
pub(crate) fn mpr_switch_reasons(
    scenario: &Scenario,
    cache: Option<&Arc<PlanCache>>,
) -> Vec<(SwitchReason, usize)> {
    if scenario.fleet.is_some() || matches!(scenario.mission, MissionSpec::PlannerQueries { .. }) {
        return Vec::new();
    }
    let exec = fly_to_horizon(scenario, cache);
    let mut counts: Vec<(SwitchReason, usize)> = Vec::new();
    if let Some(module) = exec
        .system()
        .modules()
        .iter()
        .find(|m| m.name() == "safe_motion_primitive")
    {
        for switch in module.dm().switches() {
            match counts.iter_mut().find(|(r, _)| *r == switch.reason) {
                Some((_, n)) => *n += 1,
                None => counts.push((switch.reason, 1)),
            }
        }
    }
    counts
}

/// Flies a mission scenario to its horizon, ignoring its completion target,
/// and returns the executor so callers can inspect the decision modules.
fn fly_to_horizon(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> Executor {
    let prepared = prepare_mission(scenario, cache);
    let mut exec = Executor::with_config(prepared.system, prepared.config);
    while let Some(now) = exec.step_instant() {
        if now.as_secs_f64() > scenario.horizon {
            break;
        }
    }
    exec
}

/// Counts collision *episodes* (entering collision), not samples — the
/// paper's notion of a crash and the scenario engine's notion of a φ_safe
/// violation.
pub fn collision_episodes(trajectory: &Trajectory, workspace: &Workspace) -> usize {
    let mut crashes = 0usize;
    let mut previously_colliding = false;
    for s in trajectory.samples() {
        let colliding = workspace.in_collision(s.state.position);
        if colliding && !previously_colliding {
            crashes += 1;
        }
        previously_colliding = colliding;
    }
    crashes
}

/// The summarised result of running one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario name.
    pub scenario: String,
    /// The seed it ran with.
    pub seed: u64,
    /// Deterministic digest of the run: executor trace, ground-truth
    /// trajectory and the summary statistics below.  Equal digests mean
    /// behaviourally identical runs; golden-trace regression pins these.
    pub digest: u64,
    /// Executor-run detail (`None` for planner-query scenarios).
    pub run: Option<RunOutcome>,
    /// Mission metrics over the ground-truth trajectory (`None` for
    /// planner-query scenarios).
    pub metrics: Option<MissionMetrics>,
    /// Planner-query report (`None` for executor-run scenarios).
    pub planner: Option<PlannerRtaReport>,
    /// φ_safe violations: ground-truth collision episodes for mission
    /// scenarios, standing colliding plans for planner-query scenarios.
    pub safety_violations: usize,
    /// φ_sep violation episodes (0 for single-drone scenarios).
    pub separation_violations: usize,
    /// Theorem 3.1 invariant-monitor violations.
    pub invariant_violations: usize,
    /// Mode switches: DM switches across all RTA modules for mission
    /// scenarios, DM fallbacks to the safe planner for planner queries.
    pub mode_switches: usize,
    /// Whether the mission objective completed within the horizon.
    pub completed: bool,
    /// Maximum deviation from the closed circuit reference polyline
    /// (circuit scenarios only).
    pub max_deviation: Option<f64>,
    /// Per-drone airspace detail (`None` for single-drone scenarios).
    pub fleet: Option<crate::fleet::FleetOutcome>,
    /// Safety-filter interventions (RTAEval's intervention count): AC→SC
    /// disengagements plus ASIF command clips, summed over the
    /// motion-primitive modules (0 for planner-query scenarios).
    pub interventions: usize,
    /// Total time spent under safe control by the motion-primitive
    /// modules — RTAEval's conservatism metric (zero for planner-query
    /// scenarios).
    pub time_in_sc: soter_core::time::Duration,
}

impl ScenarioOutcome {
    /// Surveillance targets / circuit waypoints reached — summed over the
    /// fleet for airspace scenarios, 0 for planner queries (which have no
    /// mission-progress topic).
    pub fn targets_reached(&self) -> usize {
        if let Some(fleet) = &self.fleet {
            return fleet.targets_reached.iter().sum();
        }
        self.run.as_ref().map(|r| r.targets_reached).unwrap_or(0)
    }
}

/// Runs a scenario to completion and summarises the result.
///
/// # Panics
///
/// Panics if the scenario carries a [`crate::spec::FleetSpec`] but its
/// mission is not a circuit mission (airspaces fly
/// [`MissionSpec::CircuitLoop`] or [`MissionSpec::CircuitLap`]).
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario_cached(scenario, None)
}

/// Like [`run_scenario`], with an optional shared planner-query cache
/// threaded into the stack (see `soter_plan::cache`).  The cache replays
/// exact query histories, so the outcome — digest included — is
/// byte-identical with or without it.  Fleet and planner-query scenarios
/// ignore the cache (they build their planners outside the stack config).
pub fn run_scenario_cached(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> ScenarioOutcome {
    if let Some(fleet) = &scenario.fleet {
        return crate::fleet::run_fleet(scenario, fleet);
    }
    match &scenario.mission {
        MissionSpec::PlannerQueries {
            queries,
            bug_probability,
        } => run_planner_queries(scenario, *queries, *bug_probability),
        _ => run_mission(scenario, cache),
    }
}

/// What a mission scenario needs before its executor starts: the built
/// stack plus the completion bookkeeping of [`run_mission`].
struct PreparedMission {
    workspace: Workspace,
    system: RtaSystem,
    handle: PlantHandle,
    config: ExecutorConfig,
    target: Option<i64>,
    /// The closed circuit reference polyline (circuit missions only).
    reference: Option<Vec<Vec3>>,
    looping: bool,
}

fn prepare_mission(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> PreparedMission {
    let mission = &scenario.mission;
    let workspace = scenario.workspace.build();
    let mut config = scenario.stack_config(&workspace);
    config.plan_cache = cache.map(Arc::clone);
    let jitter = scenario.jitter.model(scenario.seed);
    let exec_config = ExecutorConfig {
        schedule: jitter,
        record_trace: false,
        monitor_invariants: true,
    };
    match mission {
        MissionSpec::CircuitLoop | MissionSpec::CircuitLap => {
            let looping = matches!(mission, MissionSpec::CircuitLoop);
            let waypoints = workspace.surveillance_points().to_vec();
            let target = if looping {
                None
            } else {
                Some(waypoints.len() as i64)
            };
            let (system, handle) = build_circuit_stack(&config, waypoints.clone(), looping);
            let mut reference = waypoints.clone();
            reference.push(waypoints[0]);
            PreparedMission {
                workspace,
                system,
                handle,
                config: exec_config,
                target,
                reference: Some(reference),
                looping,
            }
        }
        MissionSpec::Surveillance { policy, targets } => {
            let (system, handle) = build_full_stack(&config, policy.build(scenario.seed));
            PreparedMission {
                workspace,
                system,
                handle,
                config: exec_config,
                target: *targets,
                reference: None,
                looping: false,
            }
        }
        MissionSpec::PlannerQueries { .. } => {
            unreachable!("planner queries never reach the mission path")
        }
    }
}

/// Runs a mission scenario through [`run_stack`]'s loop and summarises it:
/// metrics, safety, completion and the deterministic digest.
fn run_mission(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> ScenarioOutcome {
    let PreparedMission {
        workspace,
        system,
        handle,
        config,
        target,
        reference,
        looping,
    } = prepare_mission(scenario, cache);
    let outcome = run_stack_with_config(system, handle, scenario.horizon, target, config);
    let max_deviation = reference
        .as_ref()
        .map(|r| outcome.trajectory.max_deviation_from_polyline(r));
    let completed = match (&reference, looping, target) {
        (Some(_), true, _) => true,
        (Some(_), false, _) => outcome.completion_time.is_some(),
        (None, _, Some(n)) => outcome.targets_reached as i64 >= n,
        (None, _, None) => true,
    };
    let metrics = MissionMetrics::from_trajectory(&outcome.trajectory, &workspace, completed);
    let safety_violations = collision_episodes(&outcome.trajectory, &workspace);
    let digest = digest_mission(scenario, &outcome, &metrics, safety_violations);
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        digest,
        safety_violations,
        separation_violations: 0,
        invariant_violations: outcome.invariant_violations,
        mode_switches: outcome.total_mode_switches,
        completed,
        max_deviation,
        metrics: Some(metrics),
        planner: None,
        interventions: outcome.mpr_interventions,
        time_in_sc: outcome.time_in_sc,
        run: Some(outcome),
        fleet: None,
    }
}

fn digest_mission(
    scenario: &Scenario,
    outcome: &RunOutcome,
    metrics: &MissionMetrics,
    safety_violations: usize,
) -> u64 {
    let mut h = TraceHasher::new();
    h.write_str(&scenario.name);
    h.write_u64(scenario.seed);
    h.write_u64(outcome.trace_digest);
    h.write_u64(outcome.trace_events);
    h.write_u64(outcome.trajectory.len() as u64);
    for s in outcome.trajectory.samples() {
        h.write_f64(s.time);
        h.write_f64(s.state.position.x);
        h.write_f64(s.state.position.y);
        h.write_f64(s.state.position.z);
        h.write_f64(s.state.velocity.x);
        h.write_f64(s.state.velocity.y);
        h.write_f64(s.state.velocity.z);
        h.write_u8(s.safe_mode as u8);
    }
    h.write_u64(outcome.targets_reached as u64);
    h.write_u64(outcome.invariant_violations as u64);
    h.write_u64(outcome.total_mode_switches as u64);
    h.write_u64(safety_violations as u64);
    match outcome.completion_time {
        Some(t) => {
            h.write_u8(1);
            h.write_f64(t);
        }
        None => {
            h.write_u8(0);
        }
    }
    h.write_f64(outcome.distance_flown);
    h.write_f64(outcome.final_charge);
    h.write_u8(outcome.landed as u8);
    h.write_f64(metrics.ac_fraction);
    h.finish()
}

fn run_planner_queries(
    scenario: &Scenario,
    queries: usize,
    bug_probability: f64,
) -> ScenarioOutcome {
    let workspace = scenario.workspace.build();
    let seed = scenario.seed;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    // Bounded sampling: a custom workspace whose free space cannot yield
    // well-separated pairs produces *fewer* queries (visible in the report)
    // instead of hanging the campaign worker.
    let max_attempts = queries.saturating_mul(400).max(4_000);
    let mut attempts = 0usize;
    while pairs.len() < queries && attempts < max_attempts {
        attempts += 1;
        let (Some(a), Some(b)) = (
            workspace.sample_free_point(&mut rng, 200),
            workspace.sample_free_point(&mut rng, 200),
        ) else {
            continue;
        };
        if a.distance(&b) > 5.0 {
            pairs.push((a, b));
        }
    }
    let buggy_config = || BuggyRrtStarConfig {
        inner: RrtStarConfig {
            seed,
            ..RrtStarConfig::default()
        },
        bug_probability,
        bug_seed: seed.wrapping_add(17),
    };
    let mut unprotected = BuggyRrtStar::new(buggy_config());
    let mut protected_ac = BuggyRrtStar::new(buggy_config());
    let mut safe_planner = GridAstar::default();
    let oracle = soter_drone::oracles::PlanOracle::new(workspace.clone(), 0.0);
    let mut unprotected_colliding = 0usize;
    let mut protected_colliding = 0usize;
    let mut dm_switches = 0usize;
    let mut h = TraceHasher::new();
    h.write_str(&scenario.name);
    h.write_u64(seed);
    let hash_plan = |h: &mut TraceHasher, plan: &Option<Vec<Vec3>>| match plan {
        Some(points) => {
            h.write_u64(points.len() as u64);
            for p in points {
                h.write_f64(p.x);
                h.write_f64(p.y);
                h.write_f64(p.z);
            }
        }
        None => {
            h.write_u8(0xff);
        }
    };
    for (a, b) in &pairs {
        h.write_f64(a.x);
        h.write_f64(a.y);
        h.write_f64(a.z);
        h.write_f64(b.x);
        h.write_f64(b.y);
        h.write_f64(b.z);
        // Unprotected: whatever the buggy planner says is what the drone
        // flies.
        if let Some(plan) = unprotected.plan(&workspace, *a, *b) {
            if validate_plan(&workspace, &plan, 0.0).is_err() {
                unprotected_colliding += 1;
            }
        }
        // Protected: the decision module validates the advanced planner's
        // output (the φ_plan check of the planner RTA module) and falls back
        // to the certified planner when it is invalid.
        let ac_plan = protected_ac.plan(&workspace, *a, *b);
        let mut observed = soter_core::topic::TopicMap::new();
        if let Some(plan) = &ac_plan {
            observed.insert(topics::MOTION_PLAN, topics::plan_to_value(plan));
        }
        let final_plan = if oracle.is_safe(&observed) && ac_plan.is_some() {
            ac_plan
        } else {
            dm_switches += 1;
            safe_planner.plan(&workspace, *a, *b)
        };
        hash_plan(&mut h, &final_plan);
        if let Some(plan) = final_plan {
            if validate_plan(&workspace, &plan, 0.0).is_err() {
                protected_colliding += 1;
            }
        }
    }
    let report = PlannerRtaReport {
        queries: pairs.len(),
        unprotected_colliding_plans: unprotected_colliding,
        protected_colliding_plans: protected_colliding,
        dm_switches_to_safe: dm_switches,
    };
    h.write_u64(report.queries as u64);
    h.write_u64(report.unprotected_colliding_plans as u64);
    h.write_u64(report.protected_colliding_plans as u64);
    h.write_u64(report.dm_switches_to_safe as u64);
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        digest: h.finish(),
        run: None,
        metrics: None,
        safety_violations: report.protected_colliding_plans,
        separation_violations: 0,
        invariant_violations: 0,
        mode_switches: report.dm_switches_to_safe,
        completed: true,
        max_deviation: None,
        planner: Some(report),
        fleet: None,
        interventions: 0,
        time_in_sc: soter_core::time::Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TargetPolicySpec;
    use crate::spec::WorkspaceSpec;

    #[test]
    fn scenario_runs_are_seed_deterministic() {
        let scenario = Scenario::new("determinism")
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_mission(MissionSpec::CircuitLap)
            .with_horizon(30.0)
            .with_seed(3);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.safety_violations, b.safety_violations);
        assert_eq!(a.mode_switches, b.mode_switches);
        let c = run_scenario(&scenario.clone().with_seed(4));
        assert_ne!(
            a.digest, c.digest,
            "different seeds should produce different runs"
        );
    }

    #[test]
    fn planner_query_scenarios_are_deterministic_and_protected() {
        let scenario = Scenario::new("planner")
            .with_mission(MissionSpec::PlannerQueries {
                queries: 10,
                bug_probability: 0.3,
            })
            .with_seed(5);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.digest, b.digest);
        let report = a.planner.expect("planner scenarios produce a report");
        assert_eq!(report.queries, 10);
        assert_eq!(report.protected_colliding_plans, 0);
    }

    #[test]
    fn planner_queries_terminate_on_cramped_workspaces() {
        // A workspace too small for any 5 m-separated pair: the bounded
        // sampler must give up and report zero queries instead of hanging.
        let scenario = Scenario::new("cramped")
            .with_workspace(WorkspaceSpec::Custom {
                bounds: (
                    soter_sim::vec3::Vec3::ZERO,
                    soter_sim::vec3::Vec3::new(2.0, 2.0, 2.0),
                ),
                obstacles: vec![],
                robot_radius: 0.1,
                surveillance_points: vec![soter_sim::vec3::Vec3::new(1.0, 1.0, 1.0)],
            })
            .with_mission(MissionSpec::PlannerQueries {
                queries: 5,
                bug_probability: 0.3,
            });
        let outcome = run_scenario(&scenario);
        assert_eq!(outcome.planner.expect("planner report").queries, 0);
    }

    #[test]
    fn surveillance_scenario_reaches_targets() {
        let scenario = Scenario::new("surveil")
            .with_mission(MissionSpec::Surveillance {
                policy: TargetPolicySpec::RoundRobin,
                targets: Some(2),
            })
            .with_horizon(200.0)
            .with_seed(7);
        let outcome = run_scenario(&scenario);
        assert!(outcome.completed, "{outcome:?}");
        assert_eq!(outcome.safety_violations, 0);
        assert!(outcome.targets_reached() >= 2);
    }

    /// Fig. 9's decision module cannot ping-pong: a mode switch only fires
    /// when the DM fires, and consecutive DM firings are at least one
    /// decision period apart (scheduling jitter only pushes them further).
    /// So an AC→SC→AC oscillation inside a single decision period is
    /// impossible — for every safety filter, across the stress catalog
    /// (ideal, paper-jittered, and the pinned SC-starvation schedule).
    #[test]
    fn dm_switches_never_ping_pong_within_one_decision_period() {
        use crate::catalog;
        use soter_core::rta::FilterKind;
        let mut observed_switches = 0usize;
        for base in [
            catalog::stress(13, 12.0, false),
            catalog::stress(13, 12.0, true),
            catalog::sc_starvation().with_horizon(12.0),
        ] {
            for filter in FilterKind::ALL {
                let scenario = base.clone().with_filter(filter);
                let exec = fly_to_horizon(&scenario, None);
                for module in exec.system().modules() {
                    let delta = module.dm().delta();
                    let switches = module.dm().switches();
                    observed_switches += switches.len();
                    for pair in switches.windows(2) {
                        let gap = pair[1].time.duration_since(pair[0].time);
                        assert!(
                            gap >= delta,
                            "{} ({filter}): module `{}` switched {:?}→{:?} then \
                             {:?}→{:?} only {gap} apart (Δ = {delta})",
                            scenario.name,
                            module.name(),
                            pair[0].from,
                            pair[0].to,
                            pair[1].from,
                            pair[1].to,
                        );
                    }
                }
            }
        }
        assert!(
            observed_switches > 0,
            "the stress grid must exercise at least one mode switch"
        );
    }
}
