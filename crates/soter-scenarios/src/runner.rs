//! Scenario execution: compiles a [`Scenario`] to a stack, flies it on the
//! discrete-event executor and summarises the result as a
//! [`ScenarioOutcome`] with a deterministic digest.
//!
//! One flight loop flies every executor run: single-drone missions,
//! custom stacks handed to [`run_stack`], airspaces of N scoped stacks
//! ([`crate::fleet::run_fleet`]) and the flight to horizon behind the
//! falsifier's switch-reason breakdown.  The loop also derives the
//! end-of-run totals — monitor violations, mode switches, interventions
//! and time in SC — that [`ScenarioOutcome`] carries.

use crate::spec::{MissionSpec, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soter_core::composition::RtaSystem;
use soter_core::dm::SwitchReason;
use soter_core::rta::{Mode, SafetyOracle};
use soter_core::time::Duration;
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
use std::borrow::Cow;
use std::sync::{Arc, PoisonError};

/// The per-vehicle detail of one single-drone run to completion (or
/// timeout).  The run's totals — invariant violations, mode switches,
/// interventions and time in SC — are on [`ScenarioOutcome`].
#[derive(Debug)]
pub struct RunOutcome {
    /// Ground-truth trajectory with the motion-primitive mode annotated.
    pub trajectory: Trajectory,
    /// Time at which the mission-progress target was reached, if it was.
    pub completion_time: Option<f64>,
    /// Final value of the mission-progress topic.
    pub targets_reached: usize,
    /// AC→SC switches of the motion-primitive module (0 for unprotected
    /// configurations).
    pub mpr_disengagements: usize,
    /// SC→AC switches of the motion-primitive module.
    pub mpr_reengagements: usize,
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

/// A drone the flight loop watches, resolved before the first instant.
pub(crate) struct Watched {
    /// Its ground-truth state topic.
    pub(crate) truth: Cow<'static, str>,
    /// Its mission-progress topic.
    pub(crate) progress: Cow<'static, str>,
    /// Index of its motion-primitive RTA module (`None` when unprotected).
    pub(crate) module: Option<usize>,
    /// The constant safe-mode annotation of an unprotected drone: true when
    /// only its safe controller flies.
    pub(crate) sc_only: bool,
    /// The mission progress that completes its lap, if the run has one.
    pub(crate) lap_target: Option<i64>,
}

impl Watched {
    /// The one drone of a single-drone stack.
    fn mission(system: &RtaSystem, lap_target: Option<i64>) -> Self {
        Watched {
            truth: topics::GROUND_TRUTH.into(),
            progress: topics::MISSION_PROGRESS.into(),
            module: module_index(system, "safe_motion_primitive"),
            sc_only: system.free_nodes().iter().any(|n| n.name() == "mpr_sc"),
            lap_target,
        }
    }
}

/// The index of the RTA module called `name`, if the system has one.
pub(crate) fn module_index(system: &RtaSystem, name: &str) -> Option<usize> {
    system.modules().iter().position(|m| m.name() == name)
}

/// The end-of-run totals every executor-run [`ScenarioOutcome`] carries.
pub(crate) struct Totals {
    pub(crate) invariant_violations: usize,
    /// AC→SC plus SC→AC switches across every RTA module.
    pub(crate) mode_switches: usize,
    /// Interventions summed over the watched motion-primitive modules.
    pub(crate) interventions: usize,
    /// Time in SC summed over the watched motion-primitive modules.
    pub(crate) time_in_sc: Duration,
}

/// What the flight loop leaves behind.
pub(crate) struct Flight {
    /// The executor, stopped after the run's last instant.
    pub(crate) exec: Executor,
    /// Ground-truth trajectory per watched drone.
    pub(crate) trajectories: Vec<Trajectory>,
    /// When every watched drone had reached its lap target, if all have one.
    pub(crate) completion_time: Option<f64>,
    /// Final mission progress per watched drone.
    pub(crate) targets_reached: Vec<usize>,
    pub(crate) totals: Totals,
}

/// The flight loop.  Steps `system` under `schedule` until `horizon`
/// passes or every drone reaches its lap target, recording each drone's
/// ground-truth trajectory.  Each instant, `observe` sees the positions of
/// the drones whose ground truth was published, in watch order.
pub(crate) fn fly(
    system: RtaSystem,
    schedule: JitterSchedule,
    horizon: f64,
    drones: &[Watched],
    mut observe: impl FnMut(&Executor, f64, &[Vec3]),
) -> Flight {
    let config = ExecutorConfig {
        schedule,
        record_trace: false,
        monitor_invariants: true,
    };
    let mut exec = Executor::with_config(system, config);
    let progress = |exec: &Executor, drone: &Watched| {
        exec.topic(&drone.progress)
            .and_then(Value::as_int)
            .unwrap_or(0)
    };
    let mut trajectories = vec![Trajectory::new(); drones.len()];
    let mut positions = Vec::with_capacity(drones.len());
    let mut completion_time = None;
    while let Some(now) = exec.step_instant() {
        let t = now.as_secs_f64();
        if t > horizon {
            break;
        }
        positions.clear();
        for (drone, trajectory) in drones.iter().zip(&mut trajectories) {
            let Some(truth) = exec.topic(&drone.truth).and_then(topics::value_to_state) else {
                continue;
            };
            let safe_mode = match drone.module {
                Some(m) => exec.system().modules()[m].mode() == Mode::Sc,
                None => drone.sc_only,
            };
            trajectory.push(t, truth, safe_mode);
            positions.push(truth.position);
        }
        observe(&exec, t, &positions);
        let done = |d: &Watched| d.lap_target.is_some_and(|n| progress(&exec, d) >= n);
        if drones.iter().all(done) {
            completion_time = Some(t);
            break;
        }
    }
    let targets_reached = drones
        .iter()
        .map(|d| progress(&exec, d).max(0) as usize)
        .collect();
    let modules = exec.system().modules();
    let end = exec.now();
    let mprs = || drones.iter().filter_map(|d| d.module).map(|m| &modules[m]);
    let totals = Totals {
        invariant_violations: exec.monitors().iter().map(|m| m.violations().len()).sum(),
        mode_switches: modules
            .iter()
            .map(|m| m.dm().disengagement_count() + m.dm().reengagement_count())
            .sum(),
        interventions: mprs().map(|m| m.interventions()).sum(),
        time_in_sc: mprs().fold(Duration::ZERO, |acc, m| acc + m.dm().time_in_sc(end)),
    };
    Flight {
        exec,
        trajectories,
        completion_time,
        targets_reached,
        totals,
    }
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
    fly_drone(system, handle, max_time, target_progress, schedule).0
}

/// Flies a single-drone stack through [`fly`], sampling the battery
/// profile and the battery module's switch charge on the way, and reads
/// the plant back at the end.
fn fly_drone(
    system: RtaSystem,
    handle: PlantHandle,
    max_time: f64,
    target_progress: Option<i64>,
    schedule: JitterSchedule,
) -> (RunOutcome, Totals) {
    let drone = Watched::mission(&system, target_progress);
    let battery = module_index(&system, "battery_safety");
    let mut profile = Vec::new();
    let mut last_profile_sample = -1.0f64;
    let mut battery_prev_mode: Option<Mode> = None;
    let mut battery_switch_charge = None;
    let watched = std::slice::from_ref(&drone);
    let mut flight = fly(system, schedule, max_time, watched, |exec, t, observed| {
        let charge = || exec.topic(topics::BATTERY_CHARGE).and_then(Value::as_float);
        if let [position] = observed {
            if t - last_profile_sample >= 0.5 {
                profile.push((t, position.z, charge().unwrap_or(1.0)));
                last_profile_sample = t;
            }
        }
        if let Some(b) = battery {
            let mode = exec.system().modules()[b].mode();
            if battery_prev_mode == Some(Mode::Ac)
                && mode == Mode::Sc
                && battery_switch_charge.is_none()
            {
                battery_switch_charge = charge();
            }
            battery_prev_mode = Some(mode);
        }
    });
    let exec = &flight.exec;
    let (mpr_disengagements, mpr_reengagements) = drone
        .module
        .map(|m| {
            let dm = exec.system().modules()[m].dm();
            (dm.disengagement_count(), dm.reengagement_count())
        })
        .unwrap_or((0, 0));
    let plant = handle.lock().unwrap_or_else(PoisonError::into_inner);
    let run = RunOutcome {
        trajectory: flight.trajectories.pop().expect("one watched drone"),
        completion_time: flight.completion_time,
        targets_reached: flight.targets_reached[0],
        mpr_disengagements,
        mpr_reengagements,
        distance_flown: plant.distance_flown(),
        final_charge: plant.battery_charge(),
        landed: plant.is_landed(),
        profile,
        battery_switch_charge,
        trace_digest: exec.trace().digest(),
        trace_events: exec.trace().recorded_events(),
    };
    (run, flight.totals)
}

/// Re-runs a mission scenario sequentially to its horizon, ignoring its
/// completion target, and tallies the motion-primitive module's
/// mode-switch reasons, in first-occurrence order.  The falsifier
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
    let (system, ..) = build_mission(scenario, &scenario.workspace.build(), cache);
    let drone = Watched::mission(&system, None);
    let module = drone.module;
    let schedule = scenario.jitter.model(scenario.seed);
    let flight = fly(system, schedule, scenario.horizon, &[drone], |_, _, _| {});
    let mut counts: Vec<(SwitchReason, usize)> = Vec::new();
    if let Some(m) = module {
        for switch in flight.exec.system().modules()[m].dm().switches() {
            match counts.iter_mut().find(|(r, _)| *r == switch.reason) {
                Some((_, n)) => *n += 1,
                None => counts.push((switch.reason, 1)),
            }
        }
    }
    counts
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

/// The summarised result of running one scenario.  It is the one home of
/// the run's totals — invariant violations, mode switches, interventions
/// and time in SC; [`RunOutcome`] and [`crate::fleet::FleetOutcome`] hold
/// only per-vehicle detail.
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
    /// Single-drone run detail (`None` for planner-query and airspace
    /// scenarios).
    pub run: Option<RunOutcome>,
    /// Mission metrics over the ground-truth trajectory (`None` for
    /// planner-query and airspace scenarios).
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
    /// motion-primitive modules (0 for unprotected drones and planner-query
    /// scenarios).
    pub interventions: usize,
    /// Total time spent under safe control by the motion-primitive
    /// modules, µs-exact from the decision modules' switch histories —
    /// RTAEval's conservatism metric: a filter that barely hands control to
    /// the SC scores low (zero for unprotected drones and planner-query
    /// scenarios).
    pub time_in_sc: Duration,
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

/// Builds a mission scenario's stack.  Returns the system, its plant, the
/// mission-progress target and, for circuits, the closed reference
/// polyline.
fn build_mission(
    scenario: &Scenario,
    workspace: &Workspace,
    cache: Option<&Arc<PlanCache>>,
) -> (RtaSystem, PlantHandle, Option<i64>, Option<Vec<Vec3>>) {
    let mut config = scenario.stack_config(workspace);
    config.plan_cache = cache.map(Arc::clone);
    match &scenario.mission {
        mission @ (MissionSpec::CircuitLoop | MissionSpec::CircuitLap) => {
            let looping = matches!(mission, MissionSpec::CircuitLoop);
            let waypoints = workspace.surveillance_points().to_vec();
            let target = (!looping).then_some(waypoints.len() as i64);
            let (system, handle) = build_circuit_stack(&config, waypoints.clone(), looping);
            let mut reference = waypoints;
            reference.push(reference[0]);
            (system, handle, target, Some(reference))
        }
        MissionSpec::Surveillance { policy, targets } => {
            let (system, handle) = build_full_stack(&config, policy.build(scenario.seed));
            (system, handle, *targets, None)
        }
        MissionSpec::PlannerQueries { .. } => {
            unreachable!("planner queries never reach the mission path")
        }
    }
}

/// Flies a mission scenario through [`fly_drone`] and summarises it:
/// metrics, safety, completion and the deterministic digest.
fn run_mission(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> ScenarioOutcome {
    let workspace = scenario.workspace.build();
    let (system, handle, target, reference) = build_mission(scenario, &workspace, cache);
    let schedule = scenario.jitter.model(scenario.seed);
    let (run, totals) = fly_drone(system, handle, scenario.horizon, target, schedule);
    let max_deviation = reference
        .as_ref()
        .map(|r| run.trajectory.max_deviation_from_polyline(r));
    // A lap completes when its last waypoint is reached within the
    // horizon; a target count when the progress topic ends at or past it.
    let completed = match target {
        None => true,
        Some(_) if reference.is_some() => run.completion_time.is_some(),
        Some(n) => run.targets_reached as i64 >= n,
    };
    let metrics = MissionMetrics::from_trajectory(&run.trajectory, &workspace, completed);
    let safety_violations = collision_episodes(&run.trajectory, &workspace);
    let digest = digest_mission(scenario, &run, &totals, &metrics, safety_violations);
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        digest,
        safety_violations,
        separation_violations: 0,
        invariant_violations: totals.invariant_violations,
        mode_switches: totals.mode_switches,
        completed,
        max_deviation,
        metrics: Some(metrics),
        planner: None,
        interventions: totals.interventions,
        time_in_sc: totals.time_in_sc,
        run: Some(run),
        fleet: None,
    }
}

/// Hashes a trajectory into a run digest: its length, then every sample.
pub(crate) fn hash_trajectory(h: &mut TraceHasher, trajectory: &Trajectory) {
    h.write_u64(trajectory.len() as u64);
    for s in trajectory.samples() {
        h.write_f64(s.time);
        h.write_f64(s.state.position.x);
        h.write_f64(s.state.position.y);
        h.write_f64(s.state.position.z);
        h.write_f64(s.state.velocity.x);
        h.write_f64(s.state.velocity.y);
        h.write_f64(s.state.velocity.z);
        h.write_bool(s.safe_mode);
    }
}

fn digest_mission(
    scenario: &Scenario,
    run: &RunOutcome,
    totals: &Totals,
    metrics: &MissionMetrics,
    safety_violations: usize,
) -> u64 {
    let mut h = TraceHasher::new();
    h.write_str(&scenario.name);
    h.write_u64(scenario.seed);
    h.write_u64(run.trace_digest);
    h.write_u64(run.trace_events);
    hash_trajectory(&mut h, &run.trajectory);
    h.write_u64(run.targets_reached as u64);
    h.write_u64(totals.invariant_violations as u64);
    h.write_u64(totals.mode_switches as u64);
    h.write_u64(safety_violations as u64);
    match run.completion_time {
        Some(t) => {
            h.write_u8(1);
            h.write_f64(t);
        }
        None => {
            h.write_u8(0);
        }
    }
    h.write_f64(run.distance_flown);
    h.write_f64(run.final_charge);
    h.write_u8(run.landed as u8);
    h.write_f64(metrics.ac_fraction);
    h.finish()
}

/// The Sec. V-C comparison over `queries` sampled start/goal pairs: one
/// fault-injected RRT* answers each query once, and that answer is scored
/// for both arms, as the unprotected drone flies it and through the
/// planner RTA module's decision (φ_plan check, fallback to grid A*).
/// The tests pin this against a reference that runs one identically-seeded
/// planner per arm.
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
    let mut advanced = BuggyRrtStar::new(BuggyRrtStarConfig {
        inner: RrtStarConfig {
            seed,
            ..RrtStarConfig::default()
        },
        bug_probability,
        bug_seed: seed.wrapping_add(17),
    });
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
        let ac_plan = advanced.plan(&workspace, *a, *b);
        if let Some(plan) = &ac_plan {
            if validate_plan(&workspace, plan, 0.0).is_err() {
                unprotected_colliding += 1;
            }
        }
        // Protected: the decision module validates the same answer (the
        // φ_plan check of the planner RTA module) and falls back to the
        // certified planner when it is invalid.
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
        time_in_sc: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TargetPolicySpec;
    use crate::spec::WorkspaceSpec;

    /// The reference for [`run_planner_queries`]: the loop as it ran with one
    /// identically-seeded fault-injected planner per arm, kept to pin that
    /// the shared planner changes no plan, count or digest.
    fn run_planner_queries_two_planners(
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
            time_in_sc: Duration::ZERO,
        }
    }

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

    /// The shared planner answers like two lockstep planners across the
    /// seed × bug-probability × query-count grid; the golden pins only
    /// seed 5 at 20 queries.
    #[test]
    fn one_planner_scores_both_arms_like_two_lockstep_planners() {
        for seed in 0..8 {
            for bug_probability in [0.0, 0.3, 1.0] {
                for queries in [1, 6, 20] {
                    let scenario = crate::catalog::planner_rta(seed, queries);
                    let shared = run_planner_queries(&scenario, queries, bug_probability);
                    let reference =
                        run_planner_queries_two_planners(&scenario, queries, bug_probability);
                    let case = format!("seed {seed}, p {bug_probability}, {queries} queries");
                    assert_eq!(shared.planner, reference.planner, "{case}");
                    assert_eq!(shared.digest, reference.digest, "{case}");
                }
            }
        }
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

    /// Pins the single-drone extras no digest covers: the battery/altitude
    /// profile (length, first and last samples as bits), the battery
    /// module's switch charge and the motion primitive's dis/re-engagement
    /// counts.
    #[test]
    fn single_drone_extras_are_pinned() {
        use crate::catalog;
        // (scenario, profile length, first and last samples as bits,
        // switch charge as bits, disengagements, re-engagements)
        let pins = [
            (
                catalog::fig12c(11, 300.0),
                600,
                [
                    4576918229304087675,
                    4617315517961601024,
                    4607181518080091934,
                ],
                [4643977355521215693, 0, 0],
                Some(4592421216837961159),
                30,
                30,
            ),
            (
                catalog::fig12b(7, 2, 150.0),
                21,
                [
                    4576918229304087675,
                    4617315517961601024,
                    4607182343740023618,
                ],
                [
                    4621841635587108372,
                    4617501247367233173,
                    4607071701428341016,
                ],
                None,
                2,
                2,
            ),
        ];
        let bits = |(t, z, c): (f64, f64, f64)| [t.to_bits(), z.to_bits(), c.to_bits()];
        for (scenario, len, first, last, switch_charge, dis, re) in pins {
            let run = run_scenario(&scenario).run.expect("missions produce a run");
            let name = &scenario.name;
            assert_eq!(run.profile.len(), len, "{name}");
            assert_eq!(bits(run.profile[0]), first, "{name}");
            assert_eq!(bits(run.profile[len - 1]), last, "{name}");
            assert_eq!(
                run.battery_switch_charge.map(f64::to_bits),
                switch_charge,
                "{name}"
            );
            assert_eq!(run.mpr_disengagements, dis, "{name}");
            assert_eq!(run.mpr_reengagements, re, "{name}");
        }
    }

    /// The public custom-stack entry flies the same run as the scenario
    /// engine when handed the stack and schedule the engine builds.
    #[test]
    fn run_stack_reproduces_run_scenario() {
        use crate::catalog;
        use soter_drone::stack::Protection;
        let scenario = catalog::fig12a(Protection::Rta, 3, 300.0);
        let workspace = scenario.workspace.build();
        let waypoints = workspace.surveillance_points().to_vec();
        let laps = waypoints.len() as i64;
        let (system, handle) =
            build_circuit_stack(&scenario.stack_config(&workspace), waypoints, false);
        let schedule = scenario.jitter.model(scenario.seed);
        let custom = run_stack(system, handle, scenario.horizon, Some(laps), schedule);
        let engine = run_scenario(&scenario).run.expect("missions produce a run");
        assert_eq!(custom.trace_digest, engine.trace_digest);
        assert_eq!(custom.trace_events, engine.trace_events);
        assert_eq!(custom.completion_time, engine.completion_time);
        assert!(engine.completion_time.is_some(), "the RTA lap completes");
        assert_eq!(custom.trajectory.samples(), engine.trajectory.samples());
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
                let (system, ..) = build_mission(&scenario, &scenario.workspace.build(), None);
                let drone = Watched::mission(&system, None);
                let schedule = scenario.jitter.model(scenario.seed);
                let exec = fly(system, schedule, scenario.horizon, &[drone], |_, _, _| {}).exec;
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
