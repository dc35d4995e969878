//! `falsify-dense`: complete [`Falsifier::run`] searches on the Sec. V-D
//! stress mission flown over a dense 5×5 pillar grid, where every fresh
//! inspection target costs a motion-planning query threaded through 25
//! pillars.  Each search gets a fresh falsifier (so its plan cache goes
//! from cold to warm inside the search) seeded from the workload seed,
//! with `workers: 2` and every other knob at its default.
//!
//! A search fails its check when it panics or when its counterexample's
//! schedule does not reproduce the counterexample's record through
//! [`run_scenario`].

use crate::quiet::{describe, select, QuietLog, Timed};
use crate::stats::Summary;
use crate::{metric, mix, peak_rss_mb, stretch, Report};
use soter_core::time::Duration as SimDuration;
use soter_drone::stack::build_full_stack;
use soter_scenarios::campaign::RunRecord;
use soter_scenarios::falsify::{
    Falsifier, FalsifierConfig, FalsifyReport, ScheduleFamily, ScheduleSpace,
};
use soter_scenarios::runner::run_scenario;
use soter_scenarios::spec::{JitterSpec, MissionSpec, Scenario, TargetPolicySpec, WorkspaceSpec};
use soter_sim::vec3::Vec3;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Simulated horizon of one candidate evaluation (s).
pub const HORIZON: f64 = 10.0;
/// Campaign worker threads per search.
pub const WORKERS: usize = 2;
/// Quiet searches a run completes at least (p75 has ten beyond it from 40).
const MIN_SEARCHES: usize = 40;
/// Highest tail percentile reported: fixed, so the tail means the same
/// thing in every run whatever its sample count.
const TAIL_CAP: f64 = 75.0;

/// The dense-pillar stress mission (5×5 grid of 4 m pillars on a 10 m
/// pitch, randomized inspection targets).
pub fn base_scenario() -> Scenario {
    let mut obstacles = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            let c = Vec3::new(9.0 + i as f64 * 10.0, 9.0 + j as f64 * 10.0, 5.0);
            obstacles.push((c - Vec3::new(2.0, 2.0, 5.0), c + Vec3::new(2.0, 2.0, 5.0)));
        }
    }
    Scenario::new("falsify-dense")
        .with_workspace(WorkspaceSpec::Custom {
            bounds: (Vec3::new(0.0, 0.0, 0.0), Vec3::new(58.0, 58.0, 12.0)),
            obstacles,
            robot_radius: 0.3,
            surveillance_points: vec![
                Vec3::new(3.0, 3.0, 5.0),
                Vec3::new(55.0, 3.0, 5.0),
                Vec3::new(55.0, 55.0, 5.0),
                Vec3::new(3.0, 55.0, 5.0),
            ],
        })
        .with_mission(MissionSpec::Surveillance {
            policy: TargetPolicySpec::Random,
            targets: None,
        })
        .with_horizon(HORIZON)
        .with_seed(40)
}

/// Starve the safe controller or the decision module (targeted) or
/// everything (bursts) for up to the whole horizon.
pub fn space() -> ScheduleSpace {
    ScheduleSpace {
        nodes: vec!["mpr_sc".into(), "safe_motion_primitive_dm".into()],
        families: vec![ScheduleFamily::Targeted, ScheduleFamily::Burst],
        min_delay: SimDuration::from_millis(100),
        max_delay: SimDuration::from_millis(1500),
        max_width: SimDuration::from_secs_f64(HORIZON),
        horizon: HORIZON,
    }
}

/// The falsifier seed of search `index` under `workload_seed`.
pub fn search_seed(workload_seed: u64, index: u64) -> u64 {
    mix(workload_seed, index)
}

/// What a falsify run needs before its first search.
pub struct Setup {
    /// The base mission.
    pub base: Scenario,
    /// The schedule space.
    pub space: ScheduleSpace,
}

impl Setup {
    /// Builds the mission and space, validates the space by constructing a
    /// falsifier (which rejects degenerate spaces) and the mission by
    /// building its stack once.
    pub fn new() -> Setup {
        let setup = Setup {
            base: base_scenario(),
            space: space(),
        };
        drop(setup.falsifier(0));
        let workspace = setup.base.workspace.build();
        let config = setup.base.stack_config(&workspace);
        let MissionSpec::Surveillance { policy, .. } = &setup.base.mission else {
            unreachable!("the dense mission is a surveillance mission");
        };
        drop(build_full_stack(&config, policy.build(setup.base.seed)));
        setup
    }

    /// A fresh falsifier (cold plan cache) with the given seed.
    pub fn falsifier(&self, seed: u64) -> Falsifier {
        Falsifier::new(
            self.base.clone(),
            self.space.clone(),
            FalsifierConfig {
                workers: WORKERS,
                seed,
                ..FalsifierConfig::default()
            },
        )
    }

    /// Re-runs a report's counterexample through `run_scenario` and checks
    /// it reproduces the recorded run.
    pub fn check(&self, report: &FalsifyReport) -> Result<(), String> {
        let Some(ce) = &report.counterexample else {
            return Ok(());
        };
        let scenario = self
            .base
            .clone()
            .with_jitter(JitterSpec::Schedule(ce.schedule.clone()));
        let replayed = RunRecord::from_outcome(&run_scenario(&scenario));
        if replayed == ce.record {
            Ok(())
        } else {
            Err(format!(
                "counterexample {:?} does not reproduce: recorded {:?}, replayed {:?}",
                ce.schedule, ce.record, replayed
            ))
        }
    }
}

/// One search, timed.
pub fn search(setup: &Setup, seed: u64) -> (f64, Result<FalsifyReport, String>) {
    let falsifier = setup.falsifier(seed);
    let started = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| falsifier.run()));
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, report.map_err(|_| "search panicked".to_string()))
}

/// One successful search: wall time and schedule evaluations.
struct Search {
    secs: f64,
    evaluations: usize,
}

/// The untraced falsify-dense run.
pub fn run(setup: &Setup, seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut windows: Vec<Timed<Search>> = Vec::new();
    let mut log = QuietLog::default();
    let (mut found, mut first_error) = (0usize, None);
    let started = Instant::now();
    let mut before = log.probe();
    for index in 0.. {
        let (secs, outcome) = search(setup, search_seed(seed, index));
        let after = log.probe();
        report.attempted += 1;
        let mut samples = Vec::new();
        match outcome.and_then(|r| setup.check(&r).map(|()| r)) {
            Ok(r) => {
                found += usize::from(r.counterexample.is_some());
                samples.push(Search {
                    secs,
                    evaluations: r.evaluations,
                });
            }
            Err(e) => {
                report.failed += 1;
                first_error.get_or_insert(e);
            }
        }
        windows.push(Timed {
            probes: (before, after),
            samples,
        });
        before = after;
        let (_, enough) = select(&windows, &log, MIN_SEARCHES);
        let elapsed = started.elapsed();
        if (elapsed >= budget && enough) || elapsed >= stretch(budget) {
            break;
        }
    }
    report.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    if let Some(e) = first_error {
        report.line(format!("first failure: {e}"));
    }
    let (kept, filtered) = select(&windows, &log, MIN_SEARCHES);
    report.line(format!(
        "{} searches, {found} counterexamples (all reproduced); {}",
        windows.len(),
        describe(kept.len(), windows.len(), filtered, &log)
    ));
    let quiet: Vec<&Search> = kept.iter().flat_map(|w| w.samples.iter()).collect();
    if quiet.is_empty() {
        report.line("no successful searches: nothing to report".to_string());
        return report;
    }
    let busy: f64 = quiet.iter().map(|s| s.secs).sum();
    let evaluations: usize = quiet.iter().map(|s| s.evaluations).sum();
    let search_s: Vec<f64> = quiet.iter().map(|s| s.secs).collect();
    let searches = Summary::of(&search_s, TAIL_CAP);
    report.note(
        "schedules_per_s",
        evaluations as f64 / busy,
        "1/s",
        "schedule evaluations per second over whole searches",
    );
    report.note(
        "search_p50_s",
        searches.p50,
        "s",
        &format!("{} searches", searches.n),
    );
    report.note(
        &format!("search_p{}_s", searches.tail_p),
        searches.tail,
        "s",
        &searches.tail_label(),
    );
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
        &format!("{} of {} searches", report.failed, report.attempted),
    );
    report.push(metric("throughput_per_s", evaluations as f64 / busy, "1/s"));
    report.push(metric("latency_p50_ms", searches.p50 * 1e3, "ms"));
    report.push(metric("latency_tail_ms", searches.tail * 1e3, "ms"));
    report
}
