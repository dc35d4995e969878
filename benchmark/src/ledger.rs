//! Traced runs (`--trace 1`): the per-layer cost ledger.
//!
//! Spans live only in this file, around calls into each layer's public
//! functions; nothing inside the program is instrumented.  A traced run
//! does two things, whatever its workload:
//!
//! 1. **Probes** — short versions of all three workloads (the traced
//!    workload's probe three times larger) that record their inputs and
//!    counts: executor valuations through `Executor::add_observer`, drone
//!    states, planner queries, request lines and record frames, and the
//!    public counters (firings, DM evaluations, interventions, plan-cache
//!    hits and misses, result-cache hits, steals).
//! 2. **Isolated costs** — every layer's public call timed alone, in ns per
//!    call, on those recorded inputs; repeated until the run's time budget
//!    is spent and reported as the fastest repetition (co-tenants on the
//!    host only ever slow a repetition down; see `quiet.rs`).
//!
//! `trace.closure.<workload>` is the counter-weighted sum of isolated
//! costs over the probe's measured wall time: the share of the time the
//! costed layers explain.  `trace.overhead` is the relative wall-time cost
//! of recording valuations through an observer on a fleet flight.

use crate::catalog::{self, SHARDS};
use crate::falsify::{self, search_seed, HORIZON as DENSE_HORIZON};
use crate::fleet::{self, Airspace, Flight};
use crate::quiet::{select, QuietLog, Timed};
use crate::stats::{median, Summary};
use crate::{metric, mix, Report, Workload};
use soter_core::composition::RtaSystem;
use soter_core::prelude::*;
use soter_core::time::Duration as SimDuration;
use soter_drone::stack::build_full_stack;
use soter_drone::topics;
use soter_plan::{
    identity_key, workspace_fingerprint, CachedPlanner, GridAstar, MotionPlanner, PlanCache,
    RrtStar, RrtStarConfig,
};
use soter_reach::forward::ForwardReach;
use soter_reach::peers::PeerSeparation;
use soter_reach::ttf::ObstacleTtf;
use soter_runtime::executor::{Executor, ExecutorConfig};
use soter_runtime::schedule::JitterSchedule;
use soter_scenarios::campaign::Campaign;
use soter_scenarios::catalog as scenarios;
use soter_scenarios::falsify::FalsifyReport;
use soter_scenarios::golden::{record_from_text, record_to_text};
use soter_scenarios::spec::{JitterSpec, MissionSpec, Scenario};
use soter_scenarios::{scenario_fingerprint, ResultCache};
use soter_serve::daemon::parse_request;
use soter_serve::protocol::{CoordMsg, WorkerMsg};
use soter_sim::dynamics::{DroneState, QuadrotorDynamics};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded valuation is kept per this many instants.
const RECORD_EVERY: usize = 7;
/// Simulated seconds of each fleet probe flight (times the focus factor).
const FLEET_PROBE_HORIZON: f64 = 200.0;
/// Simulated seconds of each surveillance recording.
const SURVEILLANCE_PROBE_HORIZON: f64 = 60.0;
/// Falsifier searches in the falsify probe (times the focus factor).
const PROBE_SEARCHES: u64 = 2;
/// Warm requests in the catalog probe (times the focus factor).
const PROBE_WARM: usize = 300;
/// Worker spawns timed for `serve.spawn_ms`.
const PROBE_SPAWNS: usize = 8;
/// Target wall time of one timed batch of an isolated cost.
const BATCH: Duration = Duration::from_millis(3);
/// Timed batches per isolated cost per repetition.
const BATCHES: usize = 3;
/// Check horizon of the reach queries: 2Δ of the motion primitive.
const REACH_HORIZON: f64 = 0.2;

/// A recorded global valuation at an instant.
type Valuation = (Time, TopicMap);
type Sink = Arc<Mutex<Vec<Valuation>>>;

/// Installs an observer recording one valuation in [`RECORD_EVERY`].
fn observe(exec: &mut Executor) -> Sink {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&sink);
    let mut seen = 0usize;
    exec.add_observer(move |now, topics, _modes| {
        seen += 1;
        if seen.is_multiple_of(RECORD_EVERY) {
            recorder
                .lock()
                .expect("recorder lock: the observer never panics")
                .push((now, topics.clone()));
        }
    });
    sink
}

fn take(sink: &Sink) -> Vec<Valuation> {
    std::mem::take(&mut *sink.lock().expect("recorder lock"))
}

fn state(valuation: &TopicMap, topic: &str) -> Option<DroneState> {
    valuation.get(topic).and_then(topics::value_to_state)
}

/// Median ns per call of `op(i)` over recorded inputs `i < len`: the
/// median of [`BATCHES`] batches of calls, each sized to about [`BATCH`].
fn cost_ns(len: usize, mut op: impl FnMut(usize)) -> f64 {
    assert!(len > 0, "no recorded inputs to cost");
    let started = Instant::now();
    let mut calls = 0usize;
    while calls < len.min(4) || started.elapsed() < BATCH / 3 {
        op(calls % len);
        calls += 1;
    }
    let per_call = started.elapsed().as_secs_f64() / calls as f64;
    let batch = ((BATCH.as_secs_f64() / per_call) as usize).clamp(1, 1_000_000);
    let mut next = calls;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                op(next % len);
                next += 1;
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Steps `node` alone through [`Node::step`] — the executor's calling
/// convention, with a reused output buffer — on recorded valuations
/// restricted to its subscriptions, on its own monotone clock (restarted,
/// with the node, on every call).
fn node_cost(node: &mut dyn Node, valuations: &[Valuation]) -> f64 {
    node.reset();
    let name = node.name().to_string();
    let outputs = node.outputs();
    let subscriptions = node.subscriptions();
    let inputs: Vec<TopicMap> = valuations
        .iter()
        .map(|(_, v)| v.restrict(&subscriptions))
        .collect();
    let period = node.period().as_micros().max(1);
    let mut tick = 0u64;
    let mut scratch = Vec::new();
    cost_ns(inputs.len(), |i| {
        tick += 1;
        scratch.clear();
        let now = Time::from_micros(tick * period);
        node.step(
            now,
            &inputs[i],
            &mut TopicWriter::new(&name, now, &outputs, &mut scratch),
        );
        black_box(&scratch);
    })
}

/// Isolated ns per step of every node of `system` except the planner
/// nodes (whose cost is the planner layer's), by node name.
fn node_costs(system: &mut RtaSystem, valuations: &[Valuation]) -> Vec<(String, f64)> {
    let mut costs = Vec::new();
    let mut cost = |node: &mut dyn Node| {
        if !node.name().starts_with("planner_") {
            costs.push((node.name().to_string(), node_cost(node, valuations)));
        }
    };
    for node in system.free_nodes_mut() {
        cost(node.as_mut());
    }
    for module in system.modules_mut() {
        cost(module.ac_mut());
        cost(module.sc_mut());
        cost(module.dm_mut());
    }
    costs
}

/// Oracle over the 1-D `state` topic of the trivial line system.
struct LineOracle;

impl SafetyOracle for LineOracle {
    fn is_safe(&self, observed: &dyn TopicRead) -> bool {
        position(observed).is_some_and(|x| x.abs() <= 10.0)
    }
    fn is_safer(&self, observed: &dyn TopicRead) -> bool {
        position(observed).is_some_and(|x| x.abs() <= 5.0)
    }
    fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: SimDuration) -> bool {
        position(observed).is_none_or(|x| x.abs() + horizon.as_secs_f64() > 10.0)
    }
}

fn position(observed: &dyn TopicRead) -> Option<f64> {
    observed.get("state").and_then(Value::as_float)
}

/// The cheapest RTA system: a 1-D line module plus a plant, so a run's
/// wall time per firing is almost pure executor dispatch.
fn line_system() -> RtaSystem {
    let period = SimDuration::from_millis(100);
    let ac = FnNode::builder("ac")
        .subscribes(["state"])
        .publishes(["command"])
        .period(period)
        .step(|_, _, out| out.insert("command", Value::Float(1.0)))
        .build();
    let sc = FnNode::builder("sc")
        .subscribes(["state"])
        .publishes(["command"])
        .period(period)
        .step(|_, inputs, out| {
            let x = position(inputs).unwrap_or(0.0);
            out.insert("command", Value::Float(if x > 0.0 { -1.0 } else { 1.0 }));
        })
        .build();
    let module = RtaModule::builder("line")
        .advanced(ac)
        .safe(sc)
        .delta(period)
        .oracle(LineOracle)
        .build()
        .expect("the line module is well-formed");
    let mut x = 0.0f64;
    let plant = FnNode::builder("plant")
        .subscribes(["command"])
        .publishes(["state"])
        .period(SimDuration::from_millis(10))
        .step(move |_, inputs, out| {
            x += inputs
                .get("command")
                .and_then(Value::as_float)
                .unwrap_or(0.0)
                * 0.01;
            out.insert("state", Value::Float(x));
        })
        .build();
    let mut system = RtaSystem::new("line-system");
    system.add_module(module).expect("the line module composes");
    system.add_node(plant).expect("the line plant composes");
    system
}

/// ns per firing of the line system over 100 simulated seconds.
fn dispatch_ns() -> f64 {
    let mut exec = Executor::with_config(
        line_system(),
        ExecutorConfig {
            schedule: JitterSchedule::Ideal,
            record_trace: false,
            monitor_invariants: true,
        },
    );
    let started = Instant::now();
    exec.run_until(Time::from_secs_f64(100.0));
    started.elapsed().as_nanos() as f64 / exec.fired_steps() as f64
}

/// The executor configuration campaigns use: no stored trace, monitors on.
fn campaign_config(schedule: JitterSchedule) -> ExecutorConfig {
    ExecutorConfig {
        schedule,
        record_trace: false,
        monitor_invariants: true,
    }
}

fn run_to(exec: &mut Executor, horizon: f64) {
    while let Some(now) = exec.step_instant() {
        if now.as_secs_f64() > horizon {
            break;
        }
    }
}

/// A built single-drone surveillance stack (`scenario` must fly a
/// surveillance mission).
fn surveillance_stack(
    scenario: &Scenario,
    config: &soter_drone::stack::DroneStackConfig,
) -> RtaSystem {
    let MissionSpec::Surveillance { policy, .. } = &scenario.mission else {
        unreachable!("the probed single-drone scenarios fly surveillance missions");
    };
    build_full_stack(config, policy.build(scenario.seed)).0
}

/// Fleet probe: one flight per layout, then the crossing flight again with
/// a valuation recorder installed.
struct FleetProbe {
    crossing: Airspace,
    system: RtaSystem,
    valuations: Vec<Valuation>,
    untraced: Flight,
    traced: Flight,
    instants: usize,
    flights: Vec<Flight>,
    /// `(own state, the 7 peer states)` of every drone at every recorded
    /// valuation.
    peer_queries: Vec<(DroneState, Vec<DroneState>)>,
}

impl FleetProbe {
    fn run(seed: u64, focus: f64, report: &mut Report) -> FleetProbe {
        let horizon = FLEET_PROBE_HORIZON * focus;
        let mut airspaces: Vec<Airspace> = (0..fleet::LAYOUTS.len() as u64)
            .map(|op| Airspace::new(fleet::op_scenario(seed, op, horizon)))
            .collect();
        let mut instants = 0usize;
        let flights: Vec<Flight> = airspaces
            .iter()
            .enumerate()
            .map(|(i, a)| a.fly(a.executor(), |_, _| instants += usize::from(i == 0)))
            .collect();
        let crossing = airspaces.remove(0);
        let mut exec = crossing.executor();
        let sink = observe(&mut exec);
        let traced = crossing.fly(exec, |_, _| ());
        let untraced = flights[0].clone();
        report.attempted += flights.len() as u64 + 1;
        if !traced.same_run(&untraced) {
            report.failed += 1;
            report.line("failure: recording valuations changed the crossing flight");
        }
        let valuations = take(&sink);
        let own_topics: Vec<String> = (0..fleet::DRONES)
            .map(|i| {
                soter_drone::airspace::scoped_topic(
                    &soter_drone::airspace::drone_prefix(i),
                    topics::LOCAL_POSITION,
                )
            })
            .collect();
        let mut peer_queries = Vec::new();
        for (_, valuation) in &valuations {
            let states: Option<Vec<DroneState>> =
                own_topics.iter().map(|t| state(valuation, t)).collect();
            let Some(states) = states else { continue };
            for (i, own) in states.iter().enumerate() {
                let peers = states
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, s)| *s)
                    .collect();
                peer_queries.push((*own, peers));
            }
        }
        let system = soter_drone::airspace::build_airspace_stack(&crossing.config).0;
        FleetProbe {
            crossing,
            system,
            valuations,
            untraced,
            traced,
            instants,
            flights,
            peer_queries,
        }
    }
}

/// Surveillance probe: the golden-suite surveillance mission under each
/// filter, recording the explicit flight's valuations.
struct SurveillanceProbe {
    valuations: Vec<Valuation>,
    /// Fresh motion-primitive modules of the implicit and ASIF filters.
    modules: Vec<(FilterKind, RtaModule)>,
    ttf: ObstacleTtf,
    /// `(state, commanded acceleration)` pairs from the valuations.
    commands: Vec<(DroneState, Vec3)>,
    dm_evaluations: u64,
    interventions: usize,
}

impl SurveillanceProbe {
    fn run() -> SurveillanceProbe {
        let mut probe = SurveillanceProbe {
            valuations: Vec::new(),
            modules: Vec::new(),
            ttf: soter_drone::stack::DroneStackConfig::default()
                .mpr_oracle()
                .ttf()
                .clone(),
            commands: Vec::new(),
            dm_evaluations: 0,
            interventions: 0,
        };
        for filter in FilterKind::ALL {
            let scenario = scenarios::fig12b(7, 2, SURVEILLANCE_PROBE_HORIZON).with_filter(filter);
            let workspace = scenario.workspace.build();
            let config = scenario.stack_config(&workspace);
            let mut exec = Executor::with_config(
                surveillance_stack(&scenario, &config),
                campaign_config(scenario.jitter.model(scenario.seed)),
            );
            let explicit = filter == FilterKind::ExplicitSimplex;
            let sink = explicit.then(|| observe(&mut exec));
            run_to(&mut exec, scenario.horizon);
            for module in exec.system().modules() {
                probe.dm_evaluations += module.dm().evaluations();
                probe.interventions += module.interventions();
            }
            if let Some(sink) = sink {
                probe.valuations = take(&sink);
                probe.ttf = config.mpr_oracle().ttf().clone();
            } else {
                probe
                    .modules
                    .push((filter, config.motion_primitive_module()));
            }
        }
        probe.commands = probe
            .valuations
            .iter()
            .filter_map(|(_, v)| {
                let s = state(v, topics::LOCAL_POSITION)?;
                let u = v
                    .get(topics::CONTROL_ACTION)
                    .and_then(topics::value_to_control)?;
                Some((s, u.acceleration))
            })
            .collect();
        probe
    }
}

/// Plan-cache traffic of one shadow-replayed search round.
struct ShadowRound {
    hits: u64,
    misses: u64,
}

/// Falsify probe: the dense mission recorded once (valuations and planner
/// queries), whole searches, and a shadow replay of each search's round
/// structure through `Campaign::with_plan_cache` with a cache whose
/// public counters are visible here (the falsifier keeps its own private).
struct DenseProbe {
    valuations: Vec<Valuation>,
    queries: Vec<(Vec3, Vec3)>,
    workspace: Workspace,
    planner_seed: u64,
    system: RtaSystem,
    mission_firings: u64,
    ttf: ObstacleTtf,
    states: Vec<DroneState>,
    searches: Vec<Vec<ShadowRound>>,
    shadow_s: f64,
    shadow_evaluations: usize,
}

/// A random candidate schedule of the falsify space.
fn random_schedule(seed: u64) -> JitterSchedule {
    let space = falsify::space();
    let draw = |stream: u64, lo: u64, hi: u64| lo + mix(seed, stream) % (hi - lo + 1);
    let horizon_us = (space.horizon * 1e6) as u64;
    let start = Time::from_micros(draw(1, 0, horizon_us));
    let width = SimDuration::from_micros(draw(2, 1, space.max_width.as_micros()));
    let delay = SimDuration::from_micros(draw(
        3,
        space.min_delay.as_micros(),
        space.max_delay.as_micros(),
    ));
    if draw(4, 0, 2) == 0 {
        JitterSchedule::Burst {
            start,
            width,
            delay,
        }
    } else {
        JitterSchedule::TargetedNode {
            node: space.nodes[draw(5, 0, space.nodes.len() as u64 - 1) as usize].clone(),
            start,
            width,
            delay,
        }
    }
}

impl DenseProbe {
    fn run(seed: u64, focus: f64, report: &mut Report) -> DenseProbe {
        let setup = falsify::Setup::new();
        let scenario = setup.base.clone();
        let workspace = scenario.workspace.build();
        let config = scenario.stack_config(&workspace);
        let mut exec = Executor::with_config(
            surveillance_stack(&scenario, &config),
            campaign_config(JitterSchedule::Ideal),
        );
        let sink = observe(&mut exec);
        let queries = Arc::new(Mutex::new(Vec::new()));
        let recorder = Arc::clone(&queries);
        let mut last_target: Option<[f64; 3]> = None;
        exec.add_observer(move |_, valuation, _| {
            let target = valuation
                .get(topics::TARGET_LOCATION)
                .and_then(Value::as_vector);
            if target != last_target {
                if let (Some(goal), Some(s)) = (target, state(valuation, topics::LOCAL_POSITION)) {
                    recorder
                        .lock()
                        .expect("query recorder lock")
                        .push((s.position, Vec3::from_array(goal)));
                }
                last_target = target;
            }
        });
        run_to(&mut exec, DENSE_HORIZON);
        let mission_firings = exec.fired_steps();
        drop(exec);
        let valuations = take(&sink);
        let mut queries = std::mem::take(&mut *queries.lock().expect("query recorder lock"));
        if queries.is_empty() {
            let points = workspace.surveillance_points();
            queries = points.windows(2).map(|w| (w[0], w[1])).collect();
            report.line("note: the dense recording asked no planner query; costing circuit legs");
        }
        let states = valuations
            .iter()
            .filter_map(|(_, v)| state(v, topics::LOCAL_POSITION))
            .collect();
        let mut probe = DenseProbe {
            valuations,
            queries,
            planner_seed: config.seed,
            system: surveillance_stack(&scenario, &config),
            mission_firings,
            ttf: config.mpr_oracle().ttf().clone(),
            workspace,
            states,
            searches: Vec::new(),
            shadow_s: 0.0,
            shadow_evaluations: 0,
        };
        for i in 0..PROBE_SEARCHES * focus as u64 {
            let (_, outcome) = falsify::search(&setup, search_seed(seed, i));
            report.attempted += 1;
            match outcome.and_then(|r| setup.check(&r).map(|()| r)) {
                Ok(r) => probe.shadow(&setup.base, &r, mix(seed, 1000 + i)),
                Err(e) => {
                    report.failed += 1;
                    report.line(format!("failure: {e}"));
                }
            }
        }
        probe
    }

    /// Replays a search's round sizes (shrinking counted as a final
    /// round) with random candidates through one shared plan cache.
    fn shadow(&mut self, base: &Scenario, report: &FalsifyReport, seed: u64) {
        let cache = Arc::new(PlanCache::new());
        let mut sizes: Vec<usize> = report.moves.iter().map(|m| m.evaluations).collect();
        let shrink = report.evaluations.saturating_sub(sizes.iter().sum());
        if shrink > 0 {
            sizes.push(shrink);
        }
        let mut rounds = Vec::new();
        for (r, size) in sizes.into_iter().enumerate() {
            let candidates: Vec<Scenario> = (0..size)
                .map(|k| {
                    let schedule = random_schedule(mix(seed, (r * 1000 + k) as u64));
                    base.clone().with_jitter(JitterSpec::Schedule(schedule))
                })
                .collect();
            let (hits, misses) = (cache.hits(), cache.misses());
            let started = Instant::now();
            let outcome = Campaign::new(candidates)
                .with_workers(1)
                .with_plan_cache(Arc::clone(&cache))
                .run();
            self.shadow_s += started.elapsed().as_secs_f64();
            self.shadow_evaluations += black_box(outcome.records.len());
            rounds.push(ShadowRound {
                hits: cache.hits() - hits,
                misses: cache.misses() - misses,
            });
        }
        self.searches.push(rounds);
    }
}

/// Catalog probe: one cold request and a block of warm repeats on a fresh
/// daemon, plus timed worker spawns.
struct CatalogProbe {
    cold_line: String,
    warm_ms: Vec<f64>,
    hits: usize,
    lookups: usize,
    stolen: usize,
    spawned: usize,
    spawn_ms: Vec<f64>,
    frames: Vec<u8>,
}

/// Spawns a worker and times it until its `HELLO` parses; then ends it
/// with `DONE`, drains its output and reaps it.
fn spawn_hello(worker: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let mut child = Command::new(worker)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", worker.display()))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let hello = WorkerMsg::read_from(&mut out);
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    if let Some(mut stdin) = child.stdin.take() {
        let _ = writeln!(stdin, "{}", CoordMsg::Done.to_line());
    }
    while let Ok(Some(_)) = WorkerMsg::read_from(&mut out) {}
    let _ = child.wait();
    match hello {
        Ok(Some(WorkerMsg::Hello { .. })) => Ok(elapsed),
        other => Err(format!("worker greeted with {other:?}")),
    }
}

impl CatalogProbe {
    fn run(setup: &catalog::Setup, seed: u64, focus: f64, report: &mut Report) -> CatalogProbe {
        let cold_line = setup.cold_line(&format!("tc{seed}"));
        let mut probe = CatalogProbe {
            cold_line,
            warm_ms: Vec::new(),
            hits: 0,
            lookups: 0,
            stolen: 0,
            spawned: 0,
            spawn_ms: Vec::new(),
            frames: Vec::new(),
        };
        let daemon = setup.daemon();
        let mut warm = Vec::new();
        let cold_order: Vec<usize> = (0..setup.names.len()).collect();
        let (_, checked) = catalog::request(setup, &daemon, &probe.cold_line, &cold_order, false);
        report.attempted += 1;
        match checked {
            Ok((hits, lookups, stolen)) => {
                probe.hits += hits;
                probe.lookups += lookups;
                probe.stolen += stolen;
                probe.spawned += SHARDS.min(lookups - hits) + usize::from(stolen > 0);
            }
            Err(e) => {
                report.failed += 1;
                report.line(format!("failure: {e}"));
            }
        }
        // Warm requests in probe-bracketed windows of ten, as in the
        // untraced run, so the closure divides by quiet-machine latency.
        let mut log = QuietLog::default();
        let mut windows: Vec<Timed<f64>> = Vec::new();
        let mut before = log.probe();
        for k in 0..PROBE_WARM * focus as usize {
            let line = setup.warm_line(&format!("tw{seed}-{k}"));
            let (secs, checked) = catalog::request(setup, &daemon, &line, &setup.warm_order, true);
            report.attempted += 1;
            match checked {
                Ok((hits, lookups, _)) => {
                    warm.push(secs * 1e3);
                    probe.hits += hits;
                    probe.lookups += lookups;
                }
                Err(e) => {
                    report.failed += 1;
                    report.line(format!("failure: {e}"));
                }
            }
            if (k + 1) % 10 == 0 {
                let after = log.probe();
                windows.push(Timed {
                    probes: (before, after),
                    samples: std::mem::take(&mut warm),
                });
                before = after;
            }
        }
        let (kept, _) = select(&windows, &log, PROBE_WARM / 3);
        probe.warm_ms = kept
            .iter()
            .flat_map(|w| w.samples.iter().copied())
            .collect();
        for _ in 0..PROBE_SPAWNS {
            report.attempted += 1;
            match spawn_hello(&setup.worker) {
                Ok(ms) => probe.spawn_ms.push(ms),
                Err(e) => {
                    report.failed += 1;
                    report.line(format!("failure: {e}"));
                }
            }
        }
        for (i, golden) in setup.goldens.iter().enumerate() {
            probe
                .frames
                .extend_from_slice(format!("REC {i}\n{}END\n", record_to_text(golden)).as_bytes());
        }
        probe
    }
}

/// Everything the probes recorded.
struct Probes {
    fleet: FleetProbe,
    surveillance: SurveillanceProbe,
    dense: DenseProbe,
    catalog: CatalogProbe,
}

/// Isolated costs, keyed by metric (or `node.<system>.<name>`) name.
type Costs = BTreeMap<String, Vec<f64>>;

fn add(costs: &mut Costs, name: impl Into<String>, ns: f64) {
    costs.entry(name.into()).or_default().push(ns);
}

/// One repetition of every isolated cost.
fn cost_round(p: &mut Probes, setup: &catalog::Setup, costs: &mut Costs) {
    add(costs, "runtime.dispatch_ns", dispatch_ns());

    for (name, ns) in node_costs(&mut p.fleet.system, &p.fleet.valuations) {
        add(costs, format!("node.fleet.{name}"), ns);
    }
    for (name, ns) in node_costs(&mut p.dense.system, &p.dense.valuations) {
        add(costs, format!("node.dense.{name}"), ns);
    }
    for (filter, module) in &mut p.surveillance.modules {
        let ns = node_cost(module.dm_mut(), &p.surveillance.valuations);
        add(costs, format!("core.dm_eval_ns.{}", filter.slug()), ns);
    }

    let config = &p.fleet.crossing.config;
    let peers = PeerSeparation::new(
        ForwardReach::new(
            QuadrotorDynamics::default(),
            config.base.plant_period.as_secs_f64(),
            0.1,
        ),
        config.separation_radius,
    );
    let q = &p.fleet.peer_queries;
    add(
        costs,
        "reach.peer_sep_ns",
        cost_ns(q.len(), |i| {
            black_box(peers.may_violate_within(&q[i].0, &q[i].1, REACH_HORIZON));
        }),
    );
    let (ttf, states) = (&p.dense.ttf, &p.dense.states);
    add(
        costs,
        "reach.ttf_ns",
        cost_ns(states.len(), |i| {
            black_box(ttf.may_leave_safe_within(&states[i], REACH_HORIZON));
        }),
    );
    add(
        costs,
        "reach.forward_ns",
        cost_ns(states.len(), |i| {
            black_box(ttf.reach().occupancy(&states[i], REACH_HORIZON));
        }),
    );
    let (ttf, commands) = (&p.surveillance.ttf, &p.surveillance.commands);
    add(
        costs,
        "reach.command_ns",
        cost_ns(commands.len(), |i| {
            let (s, a) = &commands[i];
            black_box(ttf.command_may_leave_safe_within(s, *a, REACH_HORIZON));
        }),
    );
    add(
        costs,
        "reach.project_ns",
        cost_ns(commands.len(), |i| {
            let (s, a) = &commands[i];
            black_box(ttf.project_command_accel(s, *a, REACH_HORIZON));
        }),
    );

    let d = &p.dense;
    let rrt = RrtStarConfig {
        seed: d.planner_seed,
        ..RrtStarConfig::default()
    };
    add(
        costs,
        "plan.rrt_query_ns",
        cost_ns(d.queries.len(), |i| {
            let (start, goal) = d.queries[i];
            black_box(RrtStar::new(rrt).plan(&d.workspace, start, goal));
        }),
    );
    add(
        costs,
        "plan.astar_query_ns",
        cost_ns(d.queries.len(), |i| {
            let (start, goal) = d.queries[i];
            black_box(GridAstar::default().plan(&d.workspace, start, goal));
        }),
    );
    // A warm chain: one cached planner asks every recorded query (misses),
    // then fresh cached planners replay the same chain from its root.
    let cache = Arc::new(PlanCache::new());
    let identity = identity_key(
        "rrt*",
        &[d.planner_seed, workspace_fingerprint(&d.workspace)],
    );
    let cached = || CachedPlanner::new(Box::new(RrtStar::new(rrt)), identity, Arc::clone(&cache));
    let mut planner = cached();
    for &(start, goal) in &d.queries {
        black_box(planner.plan(&d.workspace, start, goal));
    }
    add(
        costs,
        "plan.cache_hit_ns",
        cost_ns(d.queries.len(), |i| {
            if i == 0 {
                planner = cached();
            }
            let (start, goal) = d.queries[i];
            black_box(planner.plan(&d.workspace, start, goal));
        }),
    );

    let names = &setup.names;
    let resolved: Vec<Scenario> = names
        .iter()
        .map(|n| scenarios::find(n).expect("golden-suite names resolve"))
        .collect();
    let fingerprints: Vec<_> = resolved.iter().map(scenario_fingerprint).collect();
    let texts: Vec<String> = setup.goldens.iter().map(record_to_text).collect();
    let n = names.len();
    add(
        costs,
        "scenarios.catalog_find_ns",
        cost_ns(n, |i| {
            black_box(scenarios::find(&names[i]));
        }),
    );
    add(
        costs,
        "scenarios.fingerprint_ns",
        cost_ns(n, |i| {
            black_box(scenario_fingerprint(&resolved[i]));
        }),
    );
    let mut cache = ResultCache::new(4096);
    for (fp, record) in fingerprints.iter().zip(&setup.goldens) {
        cache.insert(*fp, record);
    }
    add(
        costs,
        "scenarios.cache_lookup_ns",
        cost_ns(n, |i| {
            black_box(cache.lookup(fingerprints[i]));
        }),
    );
    add(
        costs,
        "scenarios.cache_insert_ns",
        cost_ns(n, |i| {
            if i == 0 {
                cache = ResultCache::new(4096);
            }
            cache.insert(fingerprints[i], &setup.goldens[i]);
        }),
    );
    add(
        costs,
        "scenarios.record_encode_ns",
        cost_ns(n, |i| {
            black_box(record_to_text(&setup.goldens[i]));
        }),
    );
    add(
        costs,
        "scenarios.record_parse_ns",
        cost_ns(n, |i| {
            black_box(record_from_text(&texts[i]).is_ok());
        }),
    );
    let frames = &p.catalog.frames;
    let per_frames = cost_ns(1, |_| {
        let mut reader = BufReader::new(frames.as_slice());
        while let Ok(Some(msg)) = WorkerMsg::read_from(&mut reader) {
            black_box(msg);
        }
    });
    add(costs, "serve.frame_parse_ns", per_frames / n as f64);
    let line = &p.catalog.cold_line;
    add(
        costs,
        "serve.request_parse_ns",
        cost_ns(1, |_| {
            black_box(parse_request(line, SHARDS).is_ok());
        }),
    );
    let (_, request) = parse_request(line, SHARDS).expect("the cold request parses");
    add(
        costs,
        "serve.resolve_jobs_ns",
        cost_ns(1, |_| {
            black_box(request.resolve_jobs().map(|jobs| jobs.len()).ok());
        }),
    );
}

/// The traced run.
pub fn run(workload: Workload, seed: u64, budget: Duration) -> Result<Report, String> {
    let started = Instant::now();
    let focus = |w: Workload| if w == workload { 3.0 } else { 1.0 };
    let setup = catalog::Setup::new(seed)?;
    let mut report = Report::default();
    let mut p = Probes {
        fleet: FleetProbe::run(seed, focus(Workload::FleetAirspace), &mut report),
        surveillance: SurveillanceProbe::run(),
        dense: DenseProbe::run(seed, focus(Workload::FalsifyDense), &mut report),
        catalog: CatalogProbe::run(&setup, seed, focus(Workload::CatalogCampaign), &mut report),
    };
    let probes_s = started.elapsed().as_secs_f64();
    let mut costs = Costs::new();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < budget {
        cost_round(&mut p, &setup, &mut costs);
        rounds += 1;
    }
    // The fastest repetition: a co-tenant burst can only slow one down.
    let cost = |name: &str| -> f64 {
        costs.get(name).map_or(f64::NAN, |samples| {
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        })
    };
    report.line(format!(
        "probes {probes_s:.2} s; isolated costs: fastest of {rounds} repetitions"
    ));

    // Fleet: node costs by class, weighted by firings over the probe flight.
    let fleet_nodes: Vec<(String, f64)> = costs
        .keys()
        .filter_map(|k| k.strip_prefix("node.fleet."))
        .map(|name| (name.to_string(), cost(&format!("node.fleet.{name}"))))
        .collect();
    let class_mean = |suffix: &str| {
        let matching: Vec<f64> = fleet_nodes
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, ns)| *ns)
            .collect();
        matching.iter().sum::<f64>() / matching.len() as f64
    };
    let dispatch = cost("runtime.dispatch_ns");
    let f = &p.fleet;
    let firings_over = |system: &RtaSystem, horizon: f64| -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for info in system.all_node_infos() {
            out.insert(
                info.name.clone(),
                (horizon / info.period.as_secs_f64()).floor() + 1.0,
            );
        }
        out
    };
    let fleet_firings = firings_over(&p.fleet.system, f.untraced.sim_s);
    let fleet_model: f64 = fleet_nodes
        .iter()
        .map(|(name, ns)| fleet_firings.get(name).copied().unwrap_or(0.0) * ns)
        .sum::<f64>()
        + f.untraced.firings as f64 * dispatch;
    let fleet_closure = fleet_model / (f.untraced.busy_s * 1e9);
    let plant_period = f.crossing.config.base.plant_period.as_secs_f64();
    let plant_steps: f64 = f
        .flights
        .iter()
        .map(|fl| fleet::DRONES as f64 * ((fl.sim_s / plant_period).floor() + 1.0))
        .sum();

    // Falsify: per-mission node costs plus planner traffic over the
    // shadow replay's wall time.
    let d = &p.dense;
    let dense_firings = firings_over(&p.dense.system, DENSE_HORIZON);
    let per_mission: f64 = costs
        .keys()
        .filter_map(|k| k.strip_prefix("node.dense."))
        .map(|name| {
            dense_firings.get(name).copied().unwrap_or(0.0) * cost(&format!("node.dense.{name}"))
        })
        .sum::<f64>()
        + d.mission_firings as f64 * dispatch;
    let rounds_of = |first: bool| -> (u64, u64) {
        d.searches
            .iter()
            .flat_map(|s| s.iter().enumerate())
            .filter(|(r, _)| (*r == 0) == first)
            .fold((0, 0), |(h, m), (_, round)| {
                (h + round.hits, m + round.misses)
            })
    };
    let (first_hits, first_misses) = rounds_of(true);
    let (later_hits, later_misses) = rounds_of(false);
    let (hits, misses) = (first_hits + later_hits, first_misses + later_misses);
    let held = d
        .searches
        .iter()
        .filter(|s| {
            let (h, m) = s[1..]
                .iter()
                .fold((0, 0), |(h, m), r| (h + r.hits, m + r.misses));
            h > m
        })
        .count();
    let miss_ns = 0.5 * (cost("plan.rrt_query_ns") + cost("plan.astar_query_ns"));
    let dense_model = d.shadow_evaluations as f64 * per_mission
        + misses as f64 * miss_ns
        + hits as f64 * cost("plan.cache_hit_ns");
    let dense_closure = dense_model / (d.shadow_s * 1e9);
    let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;

    // Catalog: a warm request is parse, job resolution (a catalog::find
    // per name, then the matrix expansion), and per scenario a fingerprint,
    // a cache lookup and a record encode.
    let c = &p.catalog;
    let warm_p50_ms = if c.warm_ms.is_empty() {
        f64::NAN
    } else {
        Summary::of(&c.warm_ms, 99.0).p50
    };
    let n = setup.names.len() as f64;
    let find_ns = cost("scenarios.catalog_find_ns");
    let warm_model = cost("serve.request_parse_ns")
        + cost("serve.resolve_jobs_ns")
        + n * (cost("scenarios.fingerprint_ns")
            + cost("scenarios.cache_lookup_ns")
            + cost("scenarios.record_encode_ns"));
    let warm_closure = warm_model / (warm_p50_ms * 1e6);
    let find_share = n * find_ns / (warm_p50_ms * 1e6);

    report.line(format!(
        "attribution: {n} catalog::find calls take {:.3} ms of a {warm_p50_ms:.3} ms warm request ({:.0}%)",
        n * find_ns * 1e-6,
        find_share * 100.0
    ));
    report.line(format!(
        "attribution: after the first round plan-cache hits outnumber misses in {held} of {} \
         searches (first rounds {first_hits} hits / {first_misses} misses, later {later_hits} / {later_misses})",
        d.searches.len()
    ));
    report.line(format!(
        "closure: fleet {fleet_closure:.3} of {:.3} s in step_instant; falsify {dense_closure:.3} \
         of {:.3} s shadow replay; catalog {warm_closure:.3} of a warm request",
        f.untraced.busy_s, d.shadow_s
    ));
    if let Some(spawn) = (!c.spawn_ms.is_empty()).then(|| median(&c.spawn_ms)) {
        report.line(format!(
            "worker spawn to HELLO: median {spawn:.3} ms of {} spawns",
            c.spawn_ms.len()
        ));
    }
    let unsafe_flights = f.flights.iter().filter(|fl| fl.is_unsafe()).count();

    let metrics = [
        metric("runtime.dispatch_ns", dispatch, "ns"),
        metric(
            "runtime.instant_ns",
            f.untraced.busy_s * 1e9 / f.instants.max(1) as f64,
            "ns",
        ),
        count_metric(
            "runtime.firings",
            f.flights.iter().map(|fl| fl.firings as f64).sum(),
        ),
        metric("sim.plant_step_ns", class_mean("plant"), "ns"),
        count_metric("sim.plant_steps", plant_steps),
        metric("reach.peer_sep_ns", cost("reach.peer_sep_ns"), "ns"),
        metric("reach.ttf_ns", cost("reach.ttf_ns"), "ns"),
        metric("reach.forward_ns", cost("reach.forward_ns"), "ns"),
        metric("reach.command_ns", cost("reach.command_ns"), "ns"),
        metric("reach.project_ns", cost("reach.project_ns"), "ns"),
        metric("core.dm_eval_ns.explicit", class_mean("_dm"), "ns"),
        metric(
            "core.dm_eval_ns.implicit",
            cost("core.dm_eval_ns.implicit"),
            "ns",
        ),
        metric("core.dm_eval_ns.asif", cost("core.dm_eval_ns.asif"), "ns"),
        count_metric(
            "core.dm_evals",
            (f.flights.iter().map(|fl| fl.dm_evaluations).sum::<u64>()
                + p.surveillance.dm_evaluations) as f64,
        ),
        count_metric(
            "core.interventions",
            (f.flights.iter().map(|fl| fl.interventions).sum::<usize>()
                + p.surveillance.interventions) as f64,
        ),
        metric("ctrl.ac_step_ns", class_mean("mpr_ac"), "ns"),
        metric("ctrl.sc_step_ns", class_mean("mpr_sc"), "ns"),
        metric("drone.mission_step_ns", class_mean("circuit_mission"), "ns"),
        metric("plan.rrt_query_ns", cost("plan.rrt_query_ns"), "ns"),
        metric("plan.astar_query_ns", cost("plan.astar_query_ns"), "ns"),
        metric("plan.cache_hit_ns", cost("plan.cache_hit_ns"), "ns"),
        count_metric("plan.cache_hits", hits as f64),
        count_metric("plan.cache_misses", misses as f64),
        metric("plan.hit_ratio", ratio(hits, misses), "frac"),
        metric(
            "plan.first_round_hit_ratio",
            ratio(first_hits, first_misses),
            "frac",
        ),
        metric(
            "plan.later_hit_ratio",
            ratio(later_hits, later_misses),
            "frac",
        ),
        metric("scenarios.catalog_find_ns", find_ns, "ns"),
        metric(
            "scenarios.fingerprint_ns",
            cost("scenarios.fingerprint_ns"),
            "ns",
        ),
        metric(
            "scenarios.cache_lookup_ns",
            cost("scenarios.cache_lookup_ns"),
            "ns",
        ),
        metric(
            "scenarios.record_encode_ns",
            cost("scenarios.record_encode_ns"),
            "ns",
        ),
        metric(
            "scenarios.record_parse_ns",
            cost("scenarios.record_parse_ns"),
            "ns",
        ),
        metric(
            "scenarios.cache_insert_ns",
            cost("scenarios.cache_insert_ns"),
            "ns",
        ),
        metric("scenarios.warm_find_share", find_share, "frac"),
        metric(
            "serve.spawn_ms",
            if c.spawn_ms.is_empty() {
                f64::NAN
            } else {
                median(&c.spawn_ms)
            },
            "ms",
        ),
        metric("serve.frame_parse_ns", cost("serve.frame_parse_ns"), "ns"),
        metric(
            "serve.request_parse_ns",
            cost("serve.request_parse_ns"),
            "ns",
        ),
        metric("serve.resolve_jobs_ns", cost("serve.resolve_jobs_ns"), "ns"),
        count_metric("serve.spawned", c.spawned as f64),
        count_metric("serve.stolen", c.stolen as f64),
        metric(
            "serve.cache_hit_ratio",
            c.hits as f64 / c.lookups.max(1) as f64,
            "frac",
        ),
        metric(
            "fleet.unsafe_run_frac",
            unsafe_flights as f64 / f.flights.len() as f64,
            "frac",
        ),
        metric("trace.closure.catalog-campaign", warm_closure, "ratio"),
        metric("trace.closure.falsify-dense", dense_closure, "ratio"),
        metric("trace.closure.fleet-airspace", fleet_closure, "ratio"),
        metric(
            "trace.overhead",
            (f.traced.busy_s - f.untraced.busy_s) / f.untraced.busy_s,
            "frac",
        ),
    ];
    for m in metrics {
        report.push(m);
    }
    Ok(report)
}

fn count_metric(name: &str, value: f64) -> crate::Metric {
    metric(name, value, "count")
}
