//! Campaign fan-out: run a scenario × seed matrix on a scoped thread pool.
//!
//! A [`Campaign`] is a matrix of scenarios and seeds.  [`Campaign::run`]
//! starts `min(workers, jobs)` scoped threads; each one claims the next
//! matrix index from one shared counter, runs that job and stores its
//! record in the index's slot, so a worker stuck on one long airspace run
//! never strands the jobs behind it (static chunking would).  Because each
//! job is an independent, seed-deterministic simulation, the records are
//! identical whatever the schedule, and the report lists them in matrix
//! order: an 8-worker campaign is byte-for-byte comparable with a
//! sequential one (pinned by `tests/campaign.rs`, fleets included).

use crate::runner::{run_scenario_cached, ScenarioOutcome};
use crate::spec::Scenario;
use soter_plan::cache::PlanCache;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A scenario × seed matrix with a worker count.
///
/// ```
/// use soter_scenarios::campaign::Campaign;
/// use soter_scenarios::spec::{MissionSpec, Scenario};
///
/// let scenario = Scenario::new("doc").with_mission(MissionSpec::PlannerQueries {
///     queries: 2,
///     bug_probability: 0.0,
/// });
/// let report = Campaign::new(vec![scenario])
///     .with_seeds([1, 2])
///     .with_workers(2)
///     .run();
/// assert_eq!(report.runs(), 2);
/// assert_eq!(report.records[0].seed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    workers: usize,
    plan_cache: Option<Arc<PlanCache>>,
}

impl Campaign {
    /// A campaign over the given scenarios, each run once with its own
    /// built-in seed, on one worker.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Campaign {
            scenarios,
            seeds: Vec::new(),
            workers: 1,
            plan_cache: None,
        }
    }

    /// Fans every scenario out across the given seeds (replacing each
    /// scenario's built-in seed).  An empty slice restores built-in seeds.
    pub fn with_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// Sets the number of worker threads (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Shares one planner-query cache across every run of the campaign
    /// (see `soter_plan::cache`).  The cache replays exact query
    /// histories, so records — digests included — are byte-identical with
    /// or without it; the win is that seeds repeating the same RRT*/A*
    /// queries stop paying per-run replanning.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The fully expanded job list, in deterministic matrix order
    /// (scenario-major, then seed).
    pub fn jobs(&self) -> Vec<Scenario> {
        if self.seeds.is_empty() {
            self.scenarios.clone()
        } else {
            self.scenarios
                .iter()
                .flat_map(|s| self.seeds.iter().map(|&seed| s.clone().with_seed(seed)))
                .collect()
        }
    }

    /// Runs every job on `min(workers, jobs)` threads and aggregates a
    /// [`CampaignReport`] with records in matrix order (independent of the
    /// worker count and schedule).  An empty matrix starts no thread.
    ///
    /// # Panics
    ///
    /// If a job panicked, the original panic is re-raised here as
    /// `campaign worker panicked at job #i (\`name\`): message`.  Workers
    /// claim no further job once one has panicked.
    pub fn run(&self) -> CampaignReport {
        let started = Instant::now();
        let jobs = self.jobs();
        let workers = self.workers.min(jobs.len());
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<RunRecord>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let panicked: Mutex<Option<String>> = Mutex::new(None);
        let work = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(index) else {
                break;
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_scenario_cached(job, self.plan_cache.as_ref())
            }));
            match outcome {
                Ok(outcome) => {
                    slots[index]
                        .set(RunRecord::from_outcome(&outcome))
                        .expect("each index is claimed once");
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic payload".into());
                    let mut slot = panicked.lock().expect("panic slot lock");
                    slot.get_or_insert(format!("job #{index} (`{}`): {message}", job.name));
                    // Exhaust the counter so no worker claims another job.
                    next.store(jobs.len(), Ordering::Relaxed);
                    break;
                }
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // Join explicitly: the scope's implicit wait can return before
            // the OS threads exit, and a caller that runs campaigns back to
            // back (the falsifier) would then start threads that each take
            // a fresh malloc arena.
            for handle in handles {
                handle.join().expect("campaign workers catch job panics");
            }
        });
        if let Some(message) = panicked.into_inner().expect("panic slot lock") {
            panic!("campaign worker panicked at {message}");
        }
        let records = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every claimed job completed"))
            .collect();
        CampaignReport {
            records,
            workers,
            wall_clock: started.elapsed().as_secs_f64(),
        }
    }
}

/// The compact, fully deterministic result of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Behavioural digest of the run (see
    /// [`ScenarioOutcome::digest`](crate::runner::ScenarioOutcome)).
    pub digest: u64,
    /// φ_safe violations observed.
    pub safety_violations: usize,
    /// φ_sep violation episodes (0 for single-drone scenarios).
    pub separation_violations: usize,
    /// Theorem 3.1 invariant-monitor violations.
    pub invariant_violations: usize,
    /// RTA mode switches (see `ScenarioOutcome::mode_switches`).
    pub mode_switches: usize,
    /// Surveillance targets / circuit waypoints reached.
    pub targets_reached: usize,
    /// Whether the mission objective completed within the horizon.
    pub completed: bool,
    /// Safety-filter interventions (AC→SC disengagements plus ASIF command
    /// clips) of the motion-primitive modules — RTAEval's intervention
    /// count (see [`ScenarioOutcome::interventions`]).
    pub interventions: usize,
    /// Milliseconds spent under safe control by the motion-primitive
    /// modules — RTAEval's conservatism metric, in whole milliseconds so
    /// the golden text format stays integer-only.
    pub time_in_sc_ms: u64,
}

impl RunRecord {
    /// Summarises a scenario outcome (dropping the heavyweight
    /// trajectories).
    pub fn from_outcome(outcome: &ScenarioOutcome) -> Self {
        RunRecord {
            scenario: outcome.scenario.clone(),
            seed: outcome.seed,
            digest: outcome.digest,
            safety_violations: outcome.safety_violations,
            separation_violations: outcome.separation_violations,
            invariant_violations: outcome.invariant_violations,
            mode_switches: outcome.mode_switches,
            targets_reached: outcome.targets_reached(),
            completed: outcome.completed,
            interventions: outcome.interventions,
            time_in_sc_ms: outcome.time_in_sc.as_micros() / 1_000,
        }
    }
}

/// Per-scenario aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Scenario name.
    pub scenario: String,
    /// Number of (seed) runs aggregated.
    pub runs: usize,
    /// Total φ_safe violations across runs.
    pub safety_violations: usize,
    /// Total φ_sep violation episodes across runs.
    pub separation_violations: usize,
    /// Total invariant-monitor violations across runs.
    pub invariant_violations: usize,
    /// Total mode switches across runs.
    pub mode_switches: usize,
    /// Mean mode switches per run.
    pub mean_mode_switches: f64,
    /// Runs whose mission objective completed.
    pub completed_runs: usize,
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One record per job, in deterministic matrix order.
    pub records: Vec<RunRecord>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the campaign (seconds).
    pub wall_clock: f64,
}

impl CampaignReport {
    /// Total number of runs.
    pub fn runs(&self) -> usize {
        self.records.len()
    }

    /// Wall-clock throughput in runs per second.
    pub fn runs_per_second(&self) -> f64 {
        if self.wall_clock > 0.0 {
            self.records.len() as f64 / self.wall_clock
        } else {
            0.0
        }
    }

    /// Total φ_safe violations across every run.
    pub fn total_safety_violations(&self) -> usize {
        self.records.iter().map(|r| r.safety_violations).sum()
    }

    /// Total φ_sep violation episodes across every run.
    pub fn total_separation_violations(&self) -> usize {
        self.records.iter().map(|r| r.separation_violations).sum()
    }

    /// Total invariant-monitor violations across every run.
    pub fn total_invariant_violations(&self) -> usize {
        self.records.iter().map(|r| r.invariant_violations).sum()
    }

    /// Per-scenario aggregates, in first-appearance order.
    ///
    /// Aggregation is O(runs) — scenario names are resolved through a hash
    /// index instead of a linear scan of the stats table, so wide
    /// campaigns (many scenarios × many seeds) do not degrade to
    /// O(runs × scenarios).  First-appearance order of the records is
    /// preserved (pinned by `per_scenario_preserves_first_appearance_order`).
    pub fn per_scenario(&self) -> Vec<ScenarioStats> {
        let mut stats: Vec<ScenarioStats> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for record in &self.records {
            let slot = match index.get(record.scenario.as_str()) {
                Some(&slot) => slot,
                None => {
                    stats.push(ScenarioStats {
                        scenario: record.scenario.clone(),
                        runs: 0,
                        safety_violations: 0,
                        separation_violations: 0,
                        invariant_violations: 0,
                        mode_switches: 0,
                        mean_mode_switches: 0.0,
                        completed_runs: 0,
                    });
                    index.insert(record.scenario.as_str(), stats.len() - 1);
                    stats.len() - 1
                }
            };
            let entry = &mut stats[slot];
            entry.runs += 1;
            entry.safety_violations += record.safety_violations;
            entry.separation_violations += record.separation_violations;
            entry.invariant_violations += record.invariant_violations;
            entry.mode_switches += record.mode_switches;
            entry.completed_runs += record.completed as usize;
        }
        for entry in &mut stats {
            entry.mean_mode_switches = entry.mode_switches as f64 / entry.runs.max(1) as f64;
        }
        stats
    }

    /// A human-readable summary table (what the CI campaign-smoke job
    /// uploads as a build artifact).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} runs on {} workers",
            self.runs(),
            self.workers
        );
        let _ = writeln!(
            out,
            "wall clock: {:.2} s ({:.1} runs/s)",
            self.wall_clock,
            self.runs_per_second()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "scenario", "runs", "phi-viol", "sep-viol", "inv-viol", "switches", "completed"
        );
        for s in self.per_scenario() {
            let _ = writeln!(
                out,
                "{:<26} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.scenario,
                s.runs,
                s.safety_violations,
                s.separation_violations,
                s.invariant_violations,
                s.mode_switches,
                s.completed_runs
            );
        }
        let _ = writeln!(
            out,
            "total: {} phi_safe violations, {} phi_sep violations, {} invariant violations",
            self.total_safety_violations(),
            self.total_separation_violations(),
            self.total_invariant_violations()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MissionSpec, WorkspaceSpec};

    fn tiny_scenario(name: &str) -> Scenario {
        Scenario::new(name)
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_mission(MissionSpec::CircuitLap)
            .with_horizon(10.0)
    }

    /// A near-instant job (planner queries with an empty query budget) for
    /// scheduling-focused tests.
    fn instant_scenario(name: &str) -> Scenario {
        Scenario::new(name).with_mission(MissionSpec::PlannerQueries {
            queries: 0,
            bug_probability: 0.0,
        })
    }

    #[test]
    fn jobs_expand_in_matrix_order() {
        let campaign =
            Campaign::new(vec![tiny_scenario("a"), tiny_scenario("b")]).with_seeds([1, 2, 3]);
        let jobs = campaign.jobs();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[3].name, "b");
        assert_eq!(jobs[3].seed, 1);
    }

    #[test]
    fn empty_seed_list_keeps_built_in_seeds() {
        let campaign = Campaign::new(vec![tiny_scenario("a").with_seed(42)]);
        let jobs = campaign.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].seed, 42);
    }

    #[test]
    fn report_aggregates_per_scenario() {
        let record = |scenario: &str, seed: u64, violations: usize, completed: bool| RunRecord {
            scenario: scenario.into(),
            seed,
            digest: seed,
            safety_violations: violations,
            separation_violations: 1,
            invariant_violations: 0,
            mode_switches: 2,
            targets_reached: 4,
            completed,
            interventions: 3,
            time_in_sc_ms: 500,
        };
        let report = CampaignReport {
            records: vec![
                record("a", 1, 0, true),
                record("a", 2, 1, false),
                record("b", 1, 0, true),
            ],
            workers: 4,
            wall_clock: 2.0,
        };
        assert_eq!(report.runs(), 3);
        assert_eq!(report.runs_per_second(), 1.5);
        assert_eq!(report.total_safety_violations(), 1);
        assert_eq!(report.total_separation_violations(), 3);
        let stats = report.per_scenario();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].scenario, "a");
        assert_eq!(stats[0].runs, 2);
        assert_eq!(stats[0].safety_violations, 1);
        assert_eq!(stats[0].separation_violations, 2);
        assert_eq!(stats[0].completed_runs, 1);
        assert_eq!(stats[0].mean_mode_switches, 2.0);
        let summary = report.summary();
        assert!(summary.contains("3 runs on 4 workers"));
        assert!(summary.contains("sep-viol"));
    }

    #[test]
    fn workers_are_clamped_to_one() {
        let campaign = Campaign::new(vec![tiny_scenario("a")]).with_workers(0);
        assert_eq!(campaign.workers, 1);
    }

    /// Regression test for the per-scenario aggregation rewrite: records
    /// interleaved across many scenarios must aggregate into stats in
    /// *first-appearance* order (the order the summary table prints), with
    /// every record attributed to the right row — the hash-indexed
    /// aggregation must be observationally identical to the old linear
    /// scan, just O(runs) instead of O(runs × scenarios).
    #[test]
    fn per_scenario_preserves_first_appearance_order() {
        let record = |scenario: &str, switches: usize| RunRecord {
            scenario: scenario.into(),
            seed: 0,
            digest: 0,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: switches,
            targets_reached: 0,
            completed: true,
            interventions: 0,
            time_in_sc_ms: 0,
        };
        // First appearances: z, m, a — deliberately not sorted, and
        // revisited out of order.
        let report = CampaignReport {
            records: vec![
                record("z", 1),
                record("m", 2),
                record("a", 3),
                record("m", 4),
                record("z", 5),
                record("a", 6),
                record("z", 7),
            ],
            workers: 1,
            wall_clock: 1.0,
        };
        let stats = report.per_scenario();
        let order: Vec<&str> = stats.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(order, vec!["z", "m", "a"], "first-appearance order");
        assert_eq!(stats[0].runs, 3);
        assert_eq!(stats[0].mode_switches, 1 + 5 + 7);
        assert_eq!(stats[1].runs, 2);
        assert_eq!(stats[1].mode_switches, 2 + 4);
        assert_eq!(stats[2].runs, 2);
        assert_eq!(stats[2].mode_switches, 3 + 6);
        // A wide synthetic campaign exercises the indexed path at scale.
        let wide = CampaignReport {
            records: (0..512)
                .flat_map(|i| {
                    let name = format!("s{i:03}");
                    [record(&name, i), record(&name, i)]
                })
                .collect(),
            workers: 1,
            wall_clock: 1.0,
        };
        let stats = wide.per_scenario();
        assert_eq!(stats.len(), 512);
        assert!(stats.iter().all(|s| s.runs == 2));
        assert_eq!(stats[0].scenario, "s000");
        assert_eq!(stats[511].scenario, "s511");
    }

    /// Records (digests included) are byte-identical whatever the worker
    /// count, and with or without a shared planner-query cache.
    #[test]
    fn small_campaign_runs_deterministically_across_worker_counts() {
        let scenarios = vec![tiny_scenario("det")];
        let sequential = Campaign::new(scenarios.clone())
            .with_seeds([1, 2])
            .with_workers(1)
            .run();
        let parallel = Campaign::new(scenarios.clone())
            .with_seeds([1, 2])
            .with_workers(4)
            .run();
        assert_eq!(sequential.records, parallel.records);
        let cached = Campaign::new(scenarios)
            .with_seeds([1, 2])
            .with_workers(2)
            .with_plan_cache(Arc::new(soter_plan::cache::PlanCache::new()))
            .run();
        assert_eq!(sequential.records, cached.records);
    }

    #[test]
    #[should_panic(expected = "campaign worker panicked")]
    fn worker_panics_propagate_to_the_consumer() {
        // A fleet spec on a non-circuit mission panics inside run_scenario;
        // the campaign must re-raise that instead of returning a silently
        // truncated (and seemingly clean) report.
        let poisoned = Scenario::new("poisoned")
            .with_mission(MissionSpec::PlannerQueries {
                queries: 0,
                bug_probability: 0.0,
            })
            .with_fleet(crate::spec::FleetSpec::new(
                2,
                crate::spec::FleetLayout::Crossing,
            ));
        let _ = Campaign::new(vec![instant_scenario("fine"), poisoned])
            .with_workers(2)
            .run();
    }

    /// Regression test for the panic-masking path: a job panic stops the
    /// campaign, which legitimately leaves other matrix slots empty; `run`
    /// must re-raise the *original* `job #i (\`name\`)` message from the
    /// panic slot rather than dying on a missing-slot unwrap.  Four
    /// workers, one poisoned job in the middle of the matrix.
    #[test]
    fn panic_reraise_names_the_poisoned_job_under_four_workers() {
        // A fleet spec on a non-circuit mission panics inside run_scenario.
        let poisoned = instant_scenario("poisoned-job").with_fleet(crate::spec::FleetSpec::new(
            2,
            crate::spec::FleetLayout::Crossing,
        ));
        let mut scenarios: Vec<Scenario> = (0..8)
            .map(|i| instant_scenario(&format!("ok{i}")))
            .collect();
        scenarios.insert(5, poisoned);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Campaign::new(scenarios).with_workers(4).run()
        }));
        let Err(payload) = result else {
            panic!("the poisoned campaign must panic");
        };
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into());
        assert!(
            message.contains("campaign worker panicked"),
            "unexpected panic: {message}"
        );
        assert!(
            message.contains("job #5") && message.contains("poisoned-job"),
            "the re-raised panic must name the poisoned job: {message}"
        );
    }

    #[test]
    fn shared_claim_counter_drains_a_skewed_matrix() {
        // 1 long job + many instant jobs, 2 workers: while one worker runs
        // the long job, the other claims every instant job behind it.
        let mut scenarios = vec![tiny_scenario("long")];
        scenarios.extend((0..15).map(|i| instant_scenario(&format!("quick{i}"))));
        let report = Campaign::new(scenarios).with_workers(2).run();
        assert_eq!(report.runs(), 16);
        // Determinism across schedules, long job or not.
        let report2 = {
            let mut scenarios = vec![tiny_scenario("long")];
            scenarios.extend((0..15).map(|i| instant_scenario(&format!("quick{i}"))));
            Campaign::new(scenarios).with_workers(5).run()
        };
        assert_eq!(report.records, report2.records);
    }
}
