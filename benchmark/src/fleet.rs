//! `fleet-airspace`: 8-drone crossing, convoy and corridor airspaces
//! (built with `fleet_agents` + `build_airspace_stack`, every drone
//! RTA-protected with a separation-aware decision module) flown for
//! [`HORIZON`] simulated seconds each, over seeds derived from the
//! workload seed.  The benchmark drives `Executor::step_instant` itself
//! on one thread and times every call.  No planner, 40 light nodes: the
//! executor, the plants and the peer-separation checks bound it.
//!
//! Every airspace is flown twice; a run whose digest (trace digest, firing
//! count and every drone's ground-truth position at every instant) differs
//! between the two flights fails.  φ_safe collision and φ_sep separation
//! episodes are measured and reported (`unsafe_run_frac`), never treated
//! as failures.

use crate::quiet::{describe, select, QuietLog, Window};
use crate::stats::{median, Summary};
use crate::{metric, mix, peak_rss_mb, stretch, Report};
use soter_core::time::Time;
use soter_drone::airspace::{
    build_airspace_stack, drone_prefix, scoped_topic, AirspaceStackConfig,
};
use soter_drone::topics;
use soter_runtime::executor::{Executor, ExecutorConfig};
use soter_runtime::schedule::JitterSchedule;
use soter_runtime::trace::TraceHasher;
use soter_scenarios::catalog;
use soter_scenarios::fleet::fleet_agents;
use soter_scenarios::spec::{FleetLayout, Scenario};
use soter_sim::airspace::SeparationMonitor;
use soter_sim::world::Workspace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Drones per airspace.
pub const DRONES: usize = 8;
/// Simulated seconds per flight.
pub const HORIZON: f64 = 200.0;
/// The airspace layouts, flown round-robin.
pub const LAYOUTS: [FleetLayout; 3] = [
    FleetLayout::Crossing,
    FleetLayout::Convoy,
    FleetLayout::Corridor,
];

/// The catalog airspace scenario of `layout`.
pub fn scenario(layout: FleetLayout, seed: u64, horizon: f64) -> Scenario {
    match layout {
        FleetLayout::Crossing => catalog::airspace_crossing(DRONES, seed, horizon),
        FleetLayout::Convoy => catalog::airspace_convoy(DRONES, seed, horizon),
        FleetLayout::Corridor => catalog::airspace_corridor(DRONES, seed, horizon),
    }
}

/// A compiled airspace: the scenario and its stack configuration.
pub struct Airspace {
    /// The scenario (name, seed, horizon).
    pub scenario: Scenario,
    /// The obstacle workspace.
    pub workspace: Workspace,
    /// The stack configuration `build_airspace_stack` takes.
    pub config: AirspaceStackConfig,
    /// Ground-truth topic of each drone.
    truth_topics: Vec<String>,
}

impl Airspace {
    /// Compiles `scenario`'s fleet into agents and a stack configuration.
    pub fn new(scenario: Scenario) -> Airspace {
        let workspace = scenario.workspace.build();
        let fleet = scenario
            .fleet
            .clone()
            .expect("airspace scenarios carry a fleet");
        let agents = fleet_agents(&scenario, &workspace, &fleet);
        let config = AirspaceStackConfig {
            base: scenario.stack_config(&workspace),
            agents,
            separation_radius: fleet.separation_radius,
            yield_margin: fleet.yield_margin,
            looping: true,
        };
        let truth_topics = (0..fleet.drones)
            .map(|i| scoped_topic(&drone_prefix(i), topics::GROUND_TRUTH))
            .collect();
        Airspace {
            scenario,
            workspace,
            config,
            truth_topics,
        }
    }

    /// A fresh executor over a freshly built stack (ideal schedule, no
    /// stored trace, invariant monitors on — the campaign configuration).
    pub fn executor(&self) -> Executor {
        let (system, _handles) = build_airspace_stack(&self.config);
        Executor::with_config(
            system,
            ExecutorConfig {
                schedule: JitterSchedule::Ideal,
                record_trace: false,
                monitor_invariants: true,
            },
        )
    }

    /// Flies `exec` to the horizon, calling `sample` with the instant and
    /// the wall time of every `step_instant` call.
    pub fn fly(&self, mut exec: Executor, mut sample: impl FnMut(Time, Duration)) -> Flight {
        let n = self.truth_topics.len();
        let mut hasher = TraceHasher::new();
        let mut monitor = SeparationMonitor::new(self.config.separation_radius);
        let mut colliding = vec![false; n];
        let mut collisions = 0usize;
        let mut positions = Vec::with_capacity(n);
        let mut busy = Duration::ZERO;
        let mut last = Time::ZERO;
        loop {
            let started = Instant::now();
            let next = exec.step_instant();
            let elapsed = started.elapsed();
            let Some(now) = next else { break };
            if now.as_secs_f64() > self.scenario.horizon {
                break;
            }
            busy += elapsed;
            sample(now, elapsed);
            last = now;
            positions.clear();
            for (i, topic) in self.truth_topics.iter().enumerate() {
                let Some(truth) = exec.topic(topic).and_then(topics::value_to_state) else {
                    continue;
                };
                let p = truth.position;
                for v in [p.x, p.y, p.z] {
                    hasher.write_bytes(&v.to_bits().to_le_bytes());
                }
                let hit = self.workspace.in_collision(p);
                collisions += usize::from(hit && !colliding[i]);
                colliding[i] = hit;
                positions.push(p);
            }
            if positions.len() == n {
                monitor.observe(&positions);
            }
        }
        let modules = exec.system().modules();
        let dm_evaluations = modules.iter().map(|m| m.dm().evaluations()).sum();
        let interventions = modules.iter().map(|m| m.interventions()).sum();
        hasher
            .write_bytes(&exec.trace().digest().to_le_bytes())
            .write_bytes(&exec.fired_steps().to_le_bytes());
        Flight {
            digest: hasher.finish(),
            sim_s: last.as_secs_f64(),
            busy_s: busy.as_secs_f64(),
            firings: exec.fired_steps(),
            dm_evaluations,
            interventions,
            collision_episodes: collisions,
            separation_episodes: monitor.episodes(),
        }
    }
}

/// The outcome of one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Determinism digest.
    pub digest: u64,
    /// Simulated seconds flown.
    pub sim_s: f64,
    /// Host seconds spent inside `step_instant`.
    pub busy_s: f64,
    /// Node firings.
    pub firings: u64,
    /// Decision-module evaluations across the fleet.
    pub dm_evaluations: u64,
    /// Filter interventions across the fleet.
    pub interventions: usize,
    /// φ_safe collision episodes across the fleet.
    pub collision_episodes: usize,
    /// φ_sep separation episodes across all pairs.
    pub separation_episodes: usize,
}

impl Flight {
    /// Whether the flight recorded any φ_safe or φ_sep episode.
    pub fn is_unsafe(&self) -> bool {
        self.collision_episodes + self.separation_episodes > 0
    }

    /// Whether two flights behaved identically (everything but timing).
    pub fn same_run(&self, other: &Flight) -> bool {
        let key = |f: &Flight| {
            (
                f.digest,
                f.sim_s.to_bits(),
                f.firings,
                f.dm_evaluations,
                f.interventions,
                f.collision_episodes,
                f.separation_episodes,
            )
        };
        key(self) == key(other)
    }
}

/// The airspaces of a run: op `j` flies layout `j % 3` with the seed of
/// round `j / 3`.
pub fn op_scenario(seed: u64, op: u64, horizon: f64) -> Scenario {
    let layout = LAYOUTS[(op % LAYOUTS.len() as u64) as usize];
    let fleet_seed = 1 + mix(seed, op / LAYOUTS.len() as u64) % 1000;
    scenario(layout, fleet_seed, horizon)
}

/// What a fleet run needs before its first timed instant: the first
/// round's compiled airspaces and built executors.
pub struct Setup {
    seed: u64,
    first: Vec<(Airspace, Executor)>,
}

impl Setup {
    /// Compiles and builds the first round of airspaces.
    pub fn new(seed: u64) -> Setup {
        let first = (0..LAYOUTS.len() as u64)
            .map(|op| {
                let airspace = Airspace::new(op_scenario(seed, op, HORIZON));
                let exec = airspace.executor();
                (airspace, exec)
            })
            .collect();
        Setup { seed, first }
    }
}

/// Executor instants timed between two machine-speed probes.
const WINDOW_INSTANTS: usize = 2000;
/// One instant in this many is kept (as an evenly spaced order statistic
/// of its window), so percentiles pool in fixed memory, weighted exactly
/// as the raw samples would be.
const KEEP_EVERY: usize = 10;
/// Quiet instants a run collects at least.
const MIN_QUIET_INSTANTS: usize = 200_000;
/// Highest tail percentile reported.  p99 of step times spreads 25% run
/// to run on the shared reference host, p90 a few percent.
const TAIL_CAP: f64 = 90.0;

/// A window of consecutive instants of one flight.
struct Span {
    probes: (usize, usize),
    /// Order statistics of the window's step times (ns), one per
    /// [`KEEP_EVERY`] instants.
    step_ns: Vec<u32>,
    instants: usize,
    sim_s: f64,
    busy_s: f64,
}

impl Window for Span {
    fn probes(&self) -> (usize, usize) {
        self.probes
    }
    fn samples(&self) -> usize {
        self.instants
    }
}

/// Sorts `samples` and keeps one in [`KEEP_EVERY`], evenly spaced.
fn order_statistics(samples: &mut [u32]) -> Vec<u32> {
    samples.sort_unstable();
    let n = samples.len();
    (0..n.div_ceil(KEEP_EVERY))
        .map(|k| samples[(k * KEEP_EVERY + KEEP_EVERY / 2).min(n - 1)])
        .collect()
}

/// Cuts the instants of a flight into probe-bracketed [`Span`]s.
struct Windower<'a> {
    log: &'a mut QuietLog,
    before: usize,
    raw: Vec<u32>,
    start: f64,
    last: f64,
    busy: f64,
    spans: Vec<Span>,
}

impl<'a> Windower<'a> {
    fn new(log: &'a mut QuietLog, before: usize) -> Self {
        Windower {
            log,
            before,
            raw: Vec::with_capacity(WINDOW_INSTANTS),
            start: 0.0,
            last: 0.0,
            busy: 0.0,
            spans: Vec::new(),
        }
    }

    fn sample(&mut self, now: Time, elapsed: Duration) {
        self.raw.push(elapsed.as_nanos() as u32);
        self.busy += elapsed.as_secs_f64();
        self.last = now.as_secs_f64();
        if self.raw.len() == WINDOW_INSTANTS {
            self.close();
        }
    }

    /// Closes the current window (at a window boundary or a flight's end).
    fn close(&mut self) {
        if self.raw.is_empty() {
            return;
        }
        let after = self.log.probe();
        self.spans.push(Span {
            probes: (self.before, after),
            instants: self.raw.len(),
            step_ns: order_statistics(&mut self.raw),
            sim_s: self.last - self.start,
            busy_s: self.busy,
        });
        self.raw.clear();
        self.before = after;
        self.start = self.last;
        self.busy = 0.0;
    }

    /// Ends a flight: closes its last window; the next flight starts at
    /// simulated time zero.
    fn end_flight(&mut self) {
        self.close();
        self.start = 0.0;
        self.last = 0.0;
    }
}

/// The untraced fleet-airspace run.
pub fn run(setup: Setup, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut spans: Vec<Span> = Vec::new();
    let mut log = QuietLog::default();
    let (mut flights, mut unsafe_flights, mut first_error) = (0usize, 0usize, None);
    let (mut collisions, mut separations) = (0usize, 0usize);
    let mut first = setup.first.into_iter();
    let started = Instant::now();
    let mut before = log.probe();
    for op in 0u64.. {
        let (airspace, exec) = first.next().unwrap_or_else(|| {
            let airspace = Airspace::new(op_scenario(setup.seed, op, HORIZON));
            let exec = airspace.executor();
            (airspace, exec)
        });
        let mut windower = Windower::new(&mut log, before);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let a = airspace.fly(exec, |now, d| windower.sample(now, d));
            windower.end_flight();
            let b = airspace.fly(airspace.executor(), |now, d| windower.sample(now, d));
            windower.end_flight();
            (a, b)
        }));
        windower.close();
        let (pair_spans, last) = (std::mem::take(&mut windower.spans), windower.before);
        before = last;
        report.attempted += 2;
        match outcome {
            Ok((a, b)) if a.same_run(&b) => {
                spans.extend(pair_spans);
                flights += 1;
                unsafe_flights += usize::from(a.is_unsafe());
                collisions += a.collision_episodes;
                separations += a.separation_episodes;
            }
            Ok((a, b)) => {
                report.failed += 1;
                first_error.get_or_insert(format!(
                    "{} seed {}: digest {:#x} then {:#x}",
                    airspace.scenario.name, airspace.scenario.seed, a.digest, b.digest
                ));
            }
            Err(_) => {
                report.failed += 2;
                first_error.get_or_insert(format!("{} panicked", airspace.scenario.name));
            }
        }
        let (_, enough) = select(&spans, &log, MIN_QUIET_INSTANTS);
        let round_done = (op + 1) % LAYOUTS.len() as u64 == 0;
        let elapsed = started.elapsed();
        if round_done && ((elapsed >= budget && enough) || elapsed >= stretch(budget)) {
            break;
        }
    }
    report.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    if let Some(e) = first_error {
        report.line(format!("first failure: {e}"));
    }
    let (kept, filtered) = select(&spans, &log, MIN_QUIET_INSTANTS);
    // Per-window speedups (full windows: equal simulated spans), whose
    // median a window the filter misjudged cannot drag.
    let speedups: Vec<f64> = kept
        .iter()
        .filter(|w| w.instants == WINDOW_INSTANTS && w.busy_s > 0.0)
        .map(|w| w.sim_s / w.busy_s)
        .collect();
    let samples: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.step_ns.iter().map(|&ns| f64::from(ns) * 1e-3))
        .collect();
    report.line(format!(
        "{flights} airspaces of {DRONES} drones x {HORIZON} s, each flown twice: \
         {collisions} phi_safe and {separations} phi_sep episodes"
    ));
    report.line(describe(kept.len(), spans.len(), filtered, &log));
    if samples.is_empty() || speedups.is_empty() {
        report.line("no successful flights: nothing to report".to_string());
        return report;
    }
    let instants = Summary::of(&samples, TAIL_CAP);
    let speedup = median(&speedups);
    report.note(
        "sim_speedup",
        speedup,
        "x",
        &format!(
            "simulated seconds per host second in step_instant, median of {} windows",
            speedups.len()
        ),
    );
    let timed: usize = kept.iter().map(|w| w.instants).sum();
    report.note(
        "instant_p50_us",
        instants.p50,
        "us",
        &format!(
            "{timed} instants, pooled as {} order statistics",
            instants.n
        ),
    );
    report.note(
        &format!("instant_p{}_us", instants.tail_p),
        instants.tail,
        "us",
        &instants.tail_label(),
    );
    report.note(
        "unsafe_run_frac",
        unsafe_flights as f64 / flights.max(1) as f64,
        "frac",
        &format!("{unsafe_flights} of {flights} airspaces with a phi_safe or phi_sep episode"),
    );
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
        &format!("{} of {} flights", report.failed, report.attempted),
    );
    report.push(metric("throughput_per_s", speedup, "1/s"));
    report.push(metric("latency_p50_ms", instants.p50 * 1e-3, "ms"));
    report.push(metric("latency_tail_ms", instants.tail * 1e-3, "ms"));
    report
}
