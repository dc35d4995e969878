//! Adversarial jitter-schedule falsification.
//!
//! The paper's stress experiment (Sec. V-D) attributes every RTA-protected
//! crash to one scheduling effect: *"the DM node did switch control, but
//! the SC node was not scheduled in time for the system to recover."*  The
//! i.i.d. [`JitterSpec::Iid`] model reproduces that effect only by luck;
//! following RTAEval's argument that RTA logic should be evaluated against
//! systematically generated adverse timing, this module *searches* the
//! space of deterministic [`JitterSchedule`]s for minimal counterexamples:
//!
//! 1. **Random restarts** — candidate schedules (targeted node starvation,
//!    system-wide bursts, phase-locked windows) are drawn from a
//!    [`ScheduleSpace`] and evaluated as one batch through
//!    [`Campaign::run`],
//! 2. **Local search** — while nothing violates, the search perturbs the
//!    best candidate so far, scored lexicographically by
//!    (φ_safe + φ_sep violations, Theorem 3.1 monitor violations, mode
//!    switches): monitor violations are near-misses of the inductive
//!    invariant and give the search a signal long before a crash,
//! 3. **Shrinking** — a violating schedule is minimised (narrower window,
//!    smaller delay, burst narrowed to a single node) while it still
//!    violates, and returned as a [`Counterexample`] that can be persisted
//!    in the golden-trace text format and replayed byte-identically.
//!
//! Every step is deterministic: candidates are generated from the
//! falsifier seed, batches are evaluated in matrix order whatever the
//! worker count, and ties are broken by batch position — so a falsifier
//! run reproduces exactly across reruns and worker counts (pinned by
//! `tests/falsify.rs`).

use crate::campaign::{Campaign, RunRecord};
use crate::golden::{
    read_fields, record_from_fields, record_to_text, Fields, GoldenError, RECORD_KEYS,
};
use crate::spec::{JitterSpec, Scenario};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_core::dm::SwitchReason;
use soter_core::time::{Duration, Time};
use soter_plan::cache::PlanCache;
use soter_runtime::schedule::JitterSchedule;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// The parameter space candidate schedules are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSpace {
    /// Node names eligible for targeted starvation (e.g. `mpr_sc`, the
    /// paper's crash class).
    pub nodes: Vec<String>,
    /// Which schedule families to search.
    pub families: Vec<ScheduleFamily>,
    /// Smallest per-firing delay a candidate may apply.
    pub min_delay: Duration,
    /// Largest per-firing delay a candidate may apply.
    pub max_delay: Duration,
    /// Largest window width a candidate may use.
    pub max_width: Duration,
    /// Horizon (seconds) window start instants are drawn from — normally
    /// the scenario horizon.
    pub horizon: f64,
}

impl ScheduleSpace {
    /// The space matching the paper's stress experiment: starve the safe
    /// controller or the decision module of the motion-primitive RTA
    /// module (or everything at once, via bursts) for up to `horizon`
    /// seconds, with per-firing delays up to 1.5 s.
    pub fn stress(horizon: f64) -> Self {
        ScheduleSpace {
            nodes: vec!["mpr_sc".into(), "safe_motion_primitive_dm".into()],
            families: vec![
                ScheduleFamily::Targeted,
                ScheduleFamily::Burst,
                ScheduleFamily::PhaseLocked,
            ],
            min_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(1500),
            max_width: Duration::from_secs_f64(horizon),
            horizon,
        }
    }
}

/// A family of candidate schedules (see [`JitterSchedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// [`JitterSchedule::TargetedNode`] over the space's node list.
    Targeted,
    /// [`JitterSchedule::Burst`] (delays every node).
    Burst,
    /// [`JitterSchedule::PhaseLocked`] windows.
    PhaseLocked,
}

/// Search-budget configuration of a [`Falsifier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FalsifierConfig {
    /// Maximum number of schedule evaluations (search + shrinking).
    pub budget: usize,
    /// Candidates per random-restart round.
    pub restarts: usize,
    /// Perturbations of the incumbent per local-search round (one fresh
    /// random candidate is always added to keep restarting).
    pub neighbours: usize,
    /// Worker threads for the campaign fan-out.
    pub workers: usize,
    /// Falsifier RNG seed (candidate generation is deterministic per seed).
    pub seed: u64,
}

impl Default for FalsifierConfig {
    fn default() -> Self {
        FalsifierConfig {
            budget: 64,
            restarts: 8,
            neighbours: 4,
            workers: 4,
            seed: 0,
        }
    }
}

/// What a search round did, for determinism pinning and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMove {
    /// Random-restart round: no incumbent, `restarts` fresh candidates.
    Restart,
    /// Local-search round: `neighbours` perturbations of the incumbent
    /// plus one fresh random candidate.
    Neighbourhood,
}

/// One search round's move with the schedule evaluations it spent.  The
/// per-round evaluation count is what pins the incumbent-caching fix: a
/// local-search round evaluates exactly its candidates, never the
/// incumbent again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchRound {
    /// The move the round took.
    pub action: SearchMove,
    /// Schedule evaluations the round spent.
    pub evaluations: usize,
}

/// A minimal violating schedule, with the run it provokes.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The scenario the schedule crashes.
    pub scenario: String,
    /// The scenario seed of the crashing run.
    pub seed: u64,
    /// The shrunk violating schedule.
    pub schedule: JitterSchedule,
    /// The record of the violating run (digest + violation counts).
    pub record: RunRecord,
    /// Schedule evaluations spent before (and including) finding the
    /// first violation.
    pub evaluations: usize,
    /// Accepted shrink steps applied to the first violating schedule.
    pub shrink_steps: usize,
    /// Mode-switch reason breakdown of the violating run's
    /// motion-primitive module, in first-occurrence order — which oracle
    /// checks fired around the crash (see
    /// [`SwitchReason`]).
    pub switch_reasons: Vec<(SwitchReason, usize)>,
}

/// The result of a falsification search.
#[derive(Debug, Clone, PartialEq)]
pub struct FalsifyReport {
    /// Total schedule evaluations spent (search + shrinking).
    pub evaluations: usize,
    /// The minimal counterexample, if one was found within budget.
    pub counterexample: Option<Counterexample>,
    /// The best (highest-scoring) non-shrunk candidate seen, for
    /// diagnosing searches that stay violation-free.
    pub best: Option<(JitterSchedule, RunRecord)>,
    /// One entry per search round, in order (shrinking is not a round).
    pub moves: Vec<SearchRound>,
}

impl FalsifyReport {
    /// A human-readable summary (what the CI falsify-smoke job uploads).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "falsify: {} evaluations over {} rounds",
            self.evaluations,
            self.moves.len()
        );
        match &self.counterexample {
            Some(ce) => {
                let _ = writeln!(
                    out,
                    "counterexample after {} evaluations, {} shrink steps:",
                    ce.evaluations, ce.shrink_steps
                );
                let _ = writeln!(out, "{}", counterexample_to_text(ce));
            }
            None => {
                let _ = writeln!(out, "no violation found (scenario withstood the search)");
                if let Some((schedule, record)) = &self.best {
                    let _ = writeln!(
                        out,
                        "closest schedule: {schedule:?} (invariant near-misses: {}, mode switches: {})",
                        record.invariant_violations, record.mode_switches
                    );
                }
            }
        }
        out
    }
}

/// Lexicographic search score: φ violations first, then Theorem 3.1
/// monitor near-misses, then mode switches (boundary pressure).
fn score(record: &RunRecord) -> (usize, usize, usize) {
    (
        record.safety_violations + record.separation_violations,
        record.invariant_violations,
        record.mode_switches,
    )
}

fn violates(record: &RunRecord) -> bool {
    record.safety_violations > 0 || record.separation_violations > 0
}

/// Random-restart + local-search falsification over jitter schedules.
#[derive(Debug, Clone)]
pub struct Falsifier {
    base: Scenario,
    space: ScheduleSpace,
    config: FalsifierConfig,
    /// Planner-query cache shared across every evaluation of this
    /// falsifier: candidate schedules repeat the base scenario's RRT*/A*
    /// queries, so a warm cache is what makes candidate evaluation
    /// planner-free.  Replay is exact, so records are unaffected.
    cache: Arc<PlanCache>,
}

impl Falsifier {
    /// A falsifier for `scenario` over `space` with the given budget.
    /// The scenario's own jitter spec is ignored — every evaluation
    /// replaces it with a candidate schedule.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate space: no schedule families, the
    /// [`ScheduleFamily::Targeted`] family with an empty node list,
    /// `min_delay > max_delay`, or a non-finite/negative horizon —
    /// candidate generation would otherwise fail with an opaque RNG
    /// range panic mid-search.
    pub fn new(scenario: Scenario, space: ScheduleSpace, config: FalsifierConfig) -> Self {
        assert!(
            !space.families.is_empty(),
            "a schedule space needs at least one family"
        );
        assert!(
            !space.families.contains(&ScheduleFamily::Targeted) || !space.nodes.is_empty(),
            "the Targeted family needs at least one node to starve"
        );
        assert!(
            space.min_delay <= space.max_delay,
            "min_delay ({}) must not exceed max_delay ({})",
            space.min_delay,
            space.max_delay
        );
        assert!(
            space.horizon.is_finite() && space.horizon >= 0.0,
            "the schedule-space horizon must be finite and non-negative"
        );
        Falsifier {
            base: scenario,
            space,
            config,
            cache: Arc::new(PlanCache::new()),
        }
    }

    /// Embeds a candidate schedule into the base scenario.
    fn candidate(&self, schedule: &JitterSchedule) -> Scenario {
        self.base
            .clone()
            .with_jitter(JitterSpec::Schedule(schedule.clone()))
    }

    /// Evaluates a batch of schedules as one campaign,
    /// returning records in batch (matrix) order — deterministic whatever
    /// the worker count.
    pub fn evaluate(&self, schedules: &[JitterSchedule]) -> Vec<RunRecord> {
        let scenarios: Vec<Scenario> = schedules.iter().map(|s| self.candidate(s)).collect();
        Campaign::new(scenarios)
            .with_workers(self.config.workers)
            .with_plan_cache(Arc::clone(&self.cache))
            .run()
            .records
    }

    /// Draws one random candidate from the space.
    fn random_candidate(&self, rng: &mut SmallRng) -> JitterSchedule {
        let family = self.space.families[rng.random_range(0..self.space.families.len())];
        let horizon_us = (self.space.horizon * 1e6) as u64;
        // `Falsifier::new` validated min_delay <= max_delay.
        let delay = Duration::from_micros(
            rng.random_range(self.space.min_delay.as_micros()..=self.space.max_delay.as_micros()),
        );
        let width =
            Duration::from_micros(rng.random_range(1..=self.space.max_width.as_micros().max(1)));
        let start = Time::from_micros(rng.random_range(0..=horizon_us.max(1)));
        match family {
            ScheduleFamily::Targeted => {
                let node = self.space.nodes[rng.random_range(0..self.space.nodes.len())].clone();
                JitterSchedule::TargetedNode {
                    node,
                    start,
                    width,
                    delay,
                }
            }
            ScheduleFamily::Burst => JitterSchedule::Burst {
                start,
                width,
                delay,
            },
            ScheduleFamily::PhaseLocked => {
                let period = Duration::from_micros(rng.random_range(100_000..=2_000_000));
                let offset = Duration::from_micros(rng.random_range(0..period.as_micros()));
                JitterSchedule::PhaseLocked {
                    period,
                    offset,
                    width: Duration::from_micros(width.as_micros().min(period.as_micros())),
                    delay,
                }
            }
        }
    }

    /// Perturbs an incumbent schedule (local-search neighbourhood).
    /// Delays are rescaled within the space's `[min_delay, max_delay]`
    /// bounds; widths within `[1 µs, max_width]` — a wide starvation
    /// window must survive perturbation as a wide window, not collapse to
    /// the delay bounds.
    fn neighbour(&self, incumbent: &JitterSchedule, rng: &mut SmallRng) -> JitterSchedule {
        let rescale = |d: Duration, rng: &mut SmallRng, lo: u64, hi: u64| -> Duration {
            let factor = 0.5 + rng.random::<f64>(); // 0.5x .. 1.5x
            let us = ((d.as_micros() as f64) * factor) as u64;
            Duration::from_micros(us.clamp(lo, hi.max(lo)))
        };
        let scale_delay = |d: Duration, rng: &mut SmallRng| -> Duration {
            rescale(
                d,
                rng,
                self.space.min_delay.as_micros(),
                self.space.max_delay.as_micros(),
            )
        };
        let scale_width = |d: Duration, rng: &mut SmallRng| -> Duration {
            rescale(d, rng, 1, self.space.max_width.as_micros())
        };
        let shift = |t: Time, rng: &mut SmallRng| -> Time {
            let horizon_us = (self.space.horizon * 1e6) as i64;
            let delta = rng.random_range(-horizon_us / 4..=horizon_us / 4);
            Time::from_micros((t.as_micros() as i64 + delta).clamp(0, horizon_us) as u64)
        };
        match incumbent {
            JitterSchedule::TargetedNode {
                node,
                start,
                width,
                delay,
            } => JitterSchedule::TargetedNode {
                node: if rng.random::<f64>() < 0.25 {
                    self.space.nodes[rng.random_range(0..self.space.nodes.len())].clone()
                } else {
                    node.clone()
                },
                start: shift(*start, rng),
                width: scale_width(*width, rng),
                delay: scale_delay(*delay, rng),
            },
            JitterSchedule::Burst {
                start,
                width,
                delay,
            } => JitterSchedule::Burst {
                start: shift(*start, rng),
                width: scale_width(*width, rng),
                delay: scale_delay(*delay, rng),
            },
            JitterSchedule::PhaseLocked {
                period,
                offset,
                width,
                delay,
            } => JitterSchedule::PhaseLocked {
                period: *period,
                offset: {
                    let factor = 0.5 + rng.random::<f64>();
                    Duration::from_micros(
                        (((offset.as_micros() as f64) * factor) as u64) % period.as_micros().max(1),
                    )
                },
                width: scale_width(*width, rng),
                delay: scale_delay(*delay, rng),
            },
            other => other.clone(),
        }
    }

    /// The width/delay shrink ladder shared by every windowed family:
    /// aggressive first (halved) then gentler (3/4 trims), with narrowed
    /// windows re-anchored at the left edge, then the right.  `window`
    /// rebuilds the schedule from (left-edge shift, new width);
    /// `with_delay` rebuilds it with a smaller delay.
    fn push_window_shrinks(
        &self,
        width: Duration,
        delay: Duration,
        out: &mut Vec<JitterSchedule>,
        window: impl Fn(Duration, Duration) -> JitterSchedule,
        with_delay: impl Fn(Duration) -> JitterSchedule,
    ) {
        let halve = |d: Duration| Duration::from_micros(d.as_micros() / 2);
        let trim = |d: Duration| Duration::from_micros(d.as_micros() * 3 / 4);
        if width.as_micros() > 1_000 {
            for w in [halve(width), trim(width)] {
                out.push(window(Duration::ZERO, w));
                out.push(window(width - w, w));
            }
        }
        if delay > self.space.min_delay {
            for d in [halve(delay), trim(delay)] {
                out.push(with_delay(d.max(self.space.min_delay)));
            }
        }
    }

    /// Candidate *shrinks* of a violating schedule, most aggressive first.
    /// A shrink is accepted only if the shrunk schedule still violates.
    fn shrinks(&self, schedule: &JitterSchedule) -> Vec<JitterSchedule> {
        let mut out = Vec::new();
        match schedule {
            JitterSchedule::TargetedNode {
                node,
                start,
                width,
                delay,
            } => {
                self.push_window_shrinks(
                    *width,
                    *delay,
                    &mut out,
                    |shift, w| JitterSchedule::TargetedNode {
                        node: node.clone(),
                        start: *start + shift,
                        width: w,
                        delay: *delay,
                    },
                    |d| JitterSchedule::TargetedNode {
                        node: node.clone(),
                        start: *start,
                        width: *width,
                        delay: d,
                    },
                );
            }
            JitterSchedule::Burst {
                start,
                width,
                delay,
            } => {
                // A burst that still violates when narrowed to one node is
                // a strictly smaller counterexample.
                for node in &self.space.nodes {
                    out.push(JitterSchedule::TargetedNode {
                        node: node.clone(),
                        start: *start,
                        width: *width,
                        delay: *delay,
                    });
                }
                self.push_window_shrinks(
                    *width,
                    *delay,
                    &mut out,
                    |shift, w| JitterSchedule::Burst {
                        start: *start + shift,
                        width: w,
                        delay: *delay,
                    },
                    |d| JitterSchedule::Burst {
                        start: *start,
                        width: *width,
                        delay: d,
                    },
                );
            }
            JitterSchedule::PhaseLocked {
                period,
                offset,
                width,
                delay,
            } => {
                self.push_window_shrinks(
                    *width,
                    *delay,
                    &mut out,
                    |shift, w| JitterSchedule::PhaseLocked {
                        period: *period,
                        offset: *offset + shift,
                        width: w,
                        delay: *delay,
                    },
                    |d| JitterSchedule::PhaseLocked {
                        period: *period,
                        offset: *offset,
                        width: *width,
                        delay: d,
                    },
                );
            }
            _ => {}
        }
        out
    }

    /// Runs the search: random restarts, local search while nothing
    /// violates, shrinking as soon as something does.  Local-search rounds
    /// compare candidates against the incumbent's *cached* score — the
    /// incumbent itself is never re-evaluated (pinned by the per-round
    /// evaluation counts in [`FalsifyReport::moves`]).
    pub fn run(&self) -> FalsifyReport {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut evaluations = 0usize;
        let mut moves: Vec<SearchRound> = Vec::new();
        // The incumbent drives local search, carries its score and is the
        // closest schedule the report diagnoses with.
        let mut incumbent: Option<(JitterSchedule, RunRecord, (usize, usize, usize))> = None;
        while evaluations < self.config.budget {
            let mut action = SearchMove::Restart;
            let mut batch: Vec<JitterSchedule> = Vec::new();
            match &incumbent {
                None => {
                    for _ in 0..self.config.restarts.max(1) {
                        batch.push(self.random_candidate(&mut rng));
                    }
                }
                Some((schedule, _, _)) => {
                    action = SearchMove::Neighbourhood;
                    for _ in 0..self.config.neighbours.max(1) {
                        batch.push(self.neighbour(schedule, &mut rng));
                    }
                    // Always keep one fresh restart in the mix.
                    batch.push(self.random_candidate(&mut rng));
                }
            }
            batch.truncate(self.config.budget - evaluations);
            let records = self.evaluate(&batch);
            evaluations += records.len();
            moves.push(SearchRound {
                action,
                evaluations: records.len(),
            });
            // First violation in batch order wins (deterministic whatever
            // the worker schedule).
            if let Some(pos) = records.iter().position(violates) {
                let found_after = evaluations;
                let (schedule, record, shrink_steps) =
                    self.shrink(batch[pos].clone(), records[pos].clone(), &mut evaluations);
                let switch_reasons = self.switch_reasons(&schedule);
                return FalsifyReport {
                    evaluations,
                    counterexample: Some(Counterexample {
                        scenario: record.scenario.clone(),
                        seed: record.seed,
                        schedule,
                        record,
                        evaluations: found_after,
                        shrink_steps,
                        switch_reasons,
                    }),
                    best: incumbent.map(|(s, r, _)| (s, r)),
                    moves,
                };
            }
            for (schedule, record) in batch.iter().zip(&records) {
                let s = score(record);
                if incumbent.as_ref().map(|(_, _, b)| s > *b).unwrap_or(true) {
                    incumbent = Some((schedule.clone(), record.clone(), s));
                }
            }
        }
        FalsifyReport {
            evaluations,
            counterexample: None,
            best: incumbent.map(|(s, r, _)| (s, r)),
            moves,
        }
    }

    /// One sequential replay of `schedule` that tallies *why* the DM
    /// switched around a crash.  It is not a search evaluation: it spends
    /// no budget and is deterministic whatever the worker count.  It reads
    /// the search's own plan cache, which holds every planner query the
    /// evaluation of `schedule` asked, so the replay re-plans none of them
    /// (only queries past a completion target the evaluation stopped at
    /// can miss).
    fn switch_reasons(&self, schedule: &JitterSchedule) -> Vec<(SwitchReason, usize)> {
        crate::runner::mpr_switch_reasons(&self.candidate(schedule), Some(&self.cache))
    }

    /// Greedily shrinks a violating schedule while it keeps violating.
    /// Returns (schedule, record, accepted steps).
    fn shrink(
        &self,
        mut schedule: JitterSchedule,
        mut record: RunRecord,
        evaluations: &mut usize,
    ) -> (JitterSchedule, RunRecord, usize) {
        let mut steps = 0usize;
        loop {
            if *evaluations >= self.config.budget {
                break;
            }
            let mut candidates = self.shrinks(&schedule);
            candidates.truncate(self.config.budget - *evaluations);
            if candidates.is_empty() {
                break;
            }
            let records = self.evaluate(&candidates);
            *evaluations += records.len();
            match records.iter().position(violates) {
                Some(pos) => {
                    schedule = candidates[pos].clone();
                    record = records[pos].clone();
                    steps += 1;
                }
                None => break,
            }
        }
        (schedule, record, steps)
    }
}

/// Serialises a schedule into `key = value` lines for the counterexample
/// text format.
pub fn schedule_to_text(schedule: &JitterSchedule) -> String {
    let mut out = String::new();
    match schedule {
        JitterSchedule::Ideal => {
            let _ = writeln!(out, "schedule = ideal");
        }
        JitterSchedule::Iid {
            probability,
            max_delay,
            seed,
        } => {
            let _ = writeln!(out, "schedule = iid");
            let _ = writeln!(out, "schedule_probability = {probability}");
            let _ = writeln!(out, "schedule_max_delay_us = {}", max_delay.as_micros());
            let _ = writeln!(out, "schedule_seed = {seed}");
        }
        JitterSchedule::Burst {
            start,
            width,
            delay,
        } => {
            let _ = writeln!(out, "schedule = burst");
            let _ = writeln!(out, "schedule_start_us = {}", start.as_micros());
            let _ = writeln!(out, "schedule_width_us = {}", width.as_micros());
            let _ = writeln!(out, "schedule_delay_us = {}", delay.as_micros());
        }
        JitterSchedule::TargetedNode {
            node,
            start,
            width,
            delay,
        } => {
            let _ = writeln!(out, "schedule = targeted-node");
            let _ = writeln!(out, "schedule_node = {node}");
            let _ = writeln!(out, "schedule_start_us = {}", start.as_micros());
            let _ = writeln!(out, "schedule_width_us = {}", width.as_micros());
            let _ = writeln!(out, "schedule_delay_us = {}", delay.as_micros());
        }
        JitterSchedule::PhaseLocked {
            period,
            offset,
            width,
            delay,
        } => {
            let _ = writeln!(out, "schedule = phase-locked");
            let _ = writeln!(out, "schedule_period_us = {}", period.as_micros());
            let _ = writeln!(out, "schedule_offset_us = {}", offset.as_micros());
            let _ = writeln!(out, "schedule_width_us = {}", width.as_micros());
            let _ = writeln!(out, "schedule_delay_us = {}", delay.as_micros());
        }
    }
    out
}

/// The keys of [`schedule_to_text`]'s lines.
const SCHEDULE_KEYS: [&str; 10] = [
    "schedule",
    "schedule_probability",
    "schedule_max_delay_us",
    "schedule_seed",
    "schedule_node",
    "schedule_start_us",
    "schedule_width_us",
    "schedule_delay_us",
    "schedule_period_us",
    "schedule_offset_us",
];

/// The search-statistics keys of a counterexample document.
const SEARCH_KEYS: [&str; 3] = ["evaluations", "shrink_steps", "switch_reasons"];

/// Reads a document over the keys of `sections`, laid end to end in the
/// returned slots, as strictly as [`read_fields`].
fn read_document<'t>(
    text: &'t str,
    sections: &[&[&str]],
) -> Result<Vec<Option<&'t str>>, GoldenError> {
    let keys = sections.concat();
    let mut values = vec![None; keys.len()];
    read_fields(text, &mut values, |key| keys.iter().position(|&k| k == key))?;
    Ok(values)
}

/// Builds the schedule from the values read for [`SCHEDULE_KEYS`].
fn schedule_from_fields(values: &[Option<&str>]) -> Result<JitterSchedule, GoldenError> {
    let f = Fields(&SCHEDULE_KEYS, values);
    let us = |key: &str| f.parse::<u64>(key);
    Ok(match f.get("schedule")? {
        "ideal" => JitterSchedule::Ideal,
        "iid" => {
            let probability: f64 = f.parse("schedule_probability")?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(GoldenError::Parse(format!(
                    "field `schedule_probability` = {probability} is not within [0, 1]"
                )));
            }
            JitterSchedule::iid(
                probability,
                Duration::from_micros(us("schedule_max_delay_us")?),
                f.parse("schedule_seed")?,
            )
        }
        "burst" => JitterSchedule::Burst {
            start: Time::from_micros(us("schedule_start_us")?),
            width: Duration::from_micros(us("schedule_width_us")?),
            delay: Duration::from_micros(us("schedule_delay_us")?),
        },
        "targeted-node" => JitterSchedule::TargetedNode {
            node: f.get("schedule_node")?.to_string(),
            start: Time::from_micros(us("schedule_start_us")?),
            width: Duration::from_micros(us("schedule_width_us")?),
            delay: Duration::from_micros(us("schedule_delay_us")?),
        },
        "phase-locked" => JitterSchedule::PhaseLocked {
            period: Duration::from_micros(us("schedule_period_us")?),
            offset: Duration::from_micros(us("schedule_offset_us")?),
            width: Duration::from_micros(us("schedule_width_us")?),
            delay: Duration::from_micros(us("schedule_delay_us")?),
        },
        other => {
            return Err(GoldenError::Parse(format!(
                "unknown schedule kind: {other}"
            )))
        }
    })
}

/// Parses the schedule lines produced by [`schedule_to_text`].
pub fn schedule_from_text(text: &str) -> Result<JitterSchedule, GoldenError> {
    schedule_from_fields(&read_document(text, &[&SCHEDULE_KEYS])?)
}

/// Serialises a counterexample in the golden-trace text format: the
/// violating run's [`RunRecord`] followed by the schedule that provokes it
/// and the search statistics.
pub fn counterexample_to_text(ce: &Counterexample) -> String {
    let mut out = format!(
        "{}{}evaluations = {}\nshrink_steps = {}\n",
        record_to_text(&ce.record),
        schedule_to_text(&ce.schedule),
        ce.evaluations,
        ce.shrink_steps
    );
    if !ce.switch_reasons.is_empty() {
        let breakdown: Vec<String> = ce
            .switch_reasons
            .iter()
            .map(|(reason, count)| format!("{}:{count}", reason.slug()))
            .collect();
        let _ = writeln!(out, "switch_reasons = {}", breakdown.join(" "));
    }
    out
}

/// Parses the format produced by [`counterexample_to_text`] in one strict
/// pass over the record, search and schedule keys.
pub fn counterexample_from_text(text: &str) -> Result<Counterexample, GoldenError> {
    let values = read_document(text, &[&RECORD_KEYS, &SEARCH_KEYS, &SCHEDULE_KEYS])?;
    let (record, rest) = values.split_at(RECORD_KEYS.len());
    let (search, schedule) = rest.split_at(SEARCH_KEYS.len());
    let record = record_from_fields(record)?;
    let f = Fields(&SEARCH_KEYS, search);
    // The reason breakdown is optional: counterexamples saved before
    // switch reasons existed parse to an empty breakdown.
    let switch_reasons = f.get("switch_reasons").unwrap_or_default();
    let switch_reasons = switch_reasons.split_whitespace().map(|pair| {
        let bad = || GoldenError::Parse(format!("malformed switch-reason entry: {pair}"));
        let (slug, count) = pair.split_once(':').ok_or_else(bad)?;
        let reason = SwitchReason::from_slug(slug).ok_or_else(bad)?;
        Ok((reason, count.parse::<usize>().map_err(|_| bad())?))
    });
    Ok(Counterexample {
        scenario: record.scenario.clone(),
        seed: record.seed,
        schedule: schedule_from_fields(schedule)?,
        record,
        evaluations: f.parse("evaluations")?,
        shrink_steps: f.parse("shrink_steps")?,
        switch_reasons: switch_reasons.collect::<Result<_, GoldenError>>()?,
    })
}

/// Writes a counterexample to a file in the golden-trace text format.
pub fn save_counterexample(ce: &Counterexample, path: &Path) -> Result<(), GoldenError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, counterexample_to_text(ce))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counterexample(schedule: JitterSchedule) -> Counterexample {
        Counterexample {
            scenario: "stress-sc-starvation".into(),
            seed: 13,
            schedule,
            record: RunRecord {
                scenario: "stress-sc-starvation".into(),
                seed: 13,
                digest: 0xdead_beef,
                safety_violations: 1,
                separation_violations: 0,
                invariant_violations: 4,
                mode_switches: 20,
                targets_reached: 3,
                completed: true,
                interventions: 6,
                time_in_sc_ms: 2_400,
            },
            evaluations: 17,
            shrink_steps: 3,
            switch_reasons: vec![
                (SwitchReason::ReachUnsafe, 4),
                (SwitchReason::StateSafer, 3),
            ],
        }
    }

    #[test]
    fn counterexample_text_round_trips_every_schedule_kind() {
        for schedule in [
            JitterSchedule::Ideal,
            JitterSchedule::iid(0.25, Duration::from_millis(300), 42),
            JitterSchedule::Burst {
                start: Time::from_millis(5_000),
                width: Duration::from_secs(5),
                delay: Duration::from_millis(600),
            },
            JitterSchedule::TargetedNode {
                node: "mpr_sc".into(),
                start: Time::from_millis(5_000),
                width: Duration::from_secs(5),
                delay: Duration::from_millis(600),
            },
            JitterSchedule::PhaseLocked {
                period: Duration::from_millis(500),
                offset: Duration::from_millis(100),
                width: Duration::from_millis(50),
                delay: Duration::from_millis(200),
            },
        ] {
            let ce = sample_counterexample(schedule);
            let parsed = counterexample_from_text(&counterexample_to_text(&ce)).unwrap();
            assert_eq!(ce, parsed);
        }
    }

    #[test]
    fn malformed_schedule_text_is_rejected() {
        assert!(matches!(
            schedule_from_text("schedule = warp-drive\n"),
            Err(GoldenError::Parse(_))
        ));
        assert!(matches!(
            schedule_from_text("no schedule line at all\n"),
            Err(GoldenError::Parse(_))
        ));
        // `recorded` is not a schedule kind and `schedule_recorded_<i>` is
        // not a key, in a bare schedule and in a whole counterexample alike.
        let rejects = |result: Result<(), GoldenError>, why: &str| match result {
            Err(GoldenError::Parse(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a parse error naming `{why}`, got {other:?}"),
        };
        let stray = "schedule_recorded_0 = mpr_sc 7 640000\n";
        rejects(
            schedule_from_text("schedule = recorded\n").map(drop),
            "unknown schedule kind: recorded",
        );
        rejects(
            schedule_from_text(&format!("schedule = ideal\n{stray}")).map(drop),
            "unknown field `schedule_recorded_0`",
        );
        let ideal = counterexample_to_text(&sample_counterexample(JitterSchedule::Ideal));
        assert!(counterexample_from_text(&ideal).is_ok());
        rejects(
            counterexample_from_text(&ideal.replace("schedule = ideal", "schedule = recorded"))
                .map(drop),
            "unknown schedule kind: recorded",
        );
        rejects(
            counterexample_from_text(&format!("{ideal}{stray}")).map(drop),
            "unknown field `schedule_recorded_0`",
        );
    }

    #[test]
    fn score_orders_by_violations_then_near_misses() {
        let record = |safe: usize, inv: usize, switches: usize| RunRecord {
            scenario: "s".into(),
            seed: 0,
            digest: 0,
            safety_violations: safe,
            separation_violations: 0,
            invariant_violations: inv,
            mode_switches: switches,
            targets_reached: 0,
            completed: true,
            interventions: 0,
            time_in_sc_ms: 0,
        };
        assert!(score(&record(1, 0, 0)) > score(&record(0, 99, 99)));
        assert!(score(&record(0, 2, 0)) > score(&record(0, 1, 99)));
        assert!(score(&record(0, 1, 5)) > score(&record(0, 1, 4)));
        assert!(violates(&record(1, 0, 0)));
        assert!(!violates(&record(0, 9, 9)));
    }

    #[test]
    fn shrinks_narrow_bursts_to_single_nodes() {
        let falsifier = Falsifier::new(
            Scenario::new("shrink-test"),
            ScheduleSpace::stress(30.0),
            FalsifierConfig::default(),
        );
        let burst = JitterSchedule::Burst {
            start: Time::from_millis(5_000),
            width: Duration::from_secs(10),
            delay: Duration::from_millis(800),
        };
        let shrinks = falsifier.shrinks(&burst);
        assert!(shrinks
            .iter()
            .any(|s| matches!(s, JitterSchedule::TargetedNode { node, .. } if node == "mpr_sc")));
        assert!(shrinks.iter().any(
            |s| matches!(s, JitterSchedule::Burst { width, .. } if *width == Duration::from_secs(5))
        ));
        // Every shrink is strictly "smaller or more specific".
        for s in &shrinks {
            assert!(s.max_delay() <= burst.max_delay());
        }
    }

    #[test]
    #[should_panic(expected = "at least one family")]
    fn empty_family_list_is_rejected() {
        let _ = Falsifier::new(
            Scenario::new("bad"),
            ScheduleSpace {
                families: vec![],
                ..ScheduleSpace::stress(10.0)
            },
            FalsifierConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn targeted_family_without_nodes_is_rejected() {
        let _ = Falsifier::new(
            Scenario::new("bad"),
            ScheduleSpace {
                nodes: vec![],
                ..ScheduleSpace::stress(10.0)
            },
            FalsifierConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_delay_bounds_are_rejected() {
        let _ = Falsifier::new(
            Scenario::new("bad"),
            ScheduleSpace {
                min_delay: Duration::from_millis(200),
                max_delay: Duration::from_millis(100),
                ..ScheduleSpace::stress(10.0)
            },
            FalsifierConfig::default(),
        );
    }

    /// Local search must explore window widths up to the space's
    /// `max_width`, not collapse them into the delay bounds: a wide
    /// starvation window (the paper's crash class) has to survive
    /// perturbation as a wide window.
    #[test]
    fn neighbours_keep_wide_windows_wide() {
        use rand::SeedableRng;
        let space = ScheduleSpace::stress(30.0);
        let falsifier = Falsifier::new(
            Scenario::new("wide"),
            space.clone(),
            FalsifierConfig::default(),
        );
        let incumbent = JitterSchedule::TargetedNode {
            node: "mpr_sc".into(),
            start: Time::from_millis(8_000),
            width: Duration::from_secs(10),
            delay: Duration::from_millis(1_200),
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut widths = Vec::new();
        for _ in 0..64 {
            match falsifier.neighbour(&incumbent, &mut rng) {
                JitterSchedule::TargetedNode { width, delay, .. } => {
                    widths.push(width);
                    assert!(delay >= space.min_delay && delay <= space.max_delay);
                    assert!(width <= space.max_width);
                }
                other => panic!("targeted incumbents perturb in-family, got {other:?}"),
            }
        }
        assert!(
            widths.iter().any(|w| *w > space.max_delay),
            "perturbed widths must be able to exceed the delay bounds \
             (got max {:?})",
            widths.iter().max()
        );
    }

    /// The counterexample replay reads the search's plan cache: once the
    /// search has evaluated a schedule, replaying it for the switch-reason
    /// breakdown adds no cache miss (it plans nothing anew) and returns
    /// exactly the breakdown of an uncached replay.
    #[test]
    fn cached_switch_reason_replay_matches_uncached_and_plans_nothing() {
        let schedule = crate::catalog::sc_starvation_schedule();
        let falsifier = Falsifier::new(
            crate::catalog::stress(13, 30.0, false).with_name("stress-sc-starvation"),
            ScheduleSpace::stress(30.0),
            FalsifierConfig {
                workers: 1,
                ..FalsifierConfig::default()
            },
        );
        let records = falsifier.evaluate(std::slice::from_ref(&schedule));
        assert!(violates(&records[0]), "the pinned schedule must crash");
        let (hits, misses) = (falsifier.cache.hits(), falsifier.cache.misses());
        assert!(misses > 0, "the evaluation must have planned");
        let cached = falsifier.switch_reasons(&schedule);
        assert!(
            falsifier.cache.hits() > hits,
            "the replay must read the cache"
        );
        assert_eq!(
            falsifier.cache.misses(),
            misses,
            "the replay must be answered from the search's plan cache"
        );
        let uncached = crate::runner::mpr_switch_reasons(&falsifier.candidate(&schedule), None);
        assert_eq!(cached, uncached);
        assert!(!cached.is_empty());
    }

    #[test]
    fn empty_evaluation_batches_return_cleanly() {
        let falsifier = Falsifier::new(
            Scenario::new("empty"),
            ScheduleSpace::stress(10.0),
            FalsifierConfig {
                budget: 0,
                ..FalsifierConfig::default()
            },
        );
        assert!(falsifier.evaluate(&[]).is_empty());
        let report = falsifier.run();
        assert_eq!(report.evaluations, 0);
        assert!(report.counterexample.is_none());
        assert!(report.summary().contains("0 evaluations"));
    }
}
