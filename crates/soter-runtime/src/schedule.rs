//! Deterministic, per-node jitter *schedules*.
//!
//! The i.i.d. [`JitterModel`] of [`crate::jitter`] reproduces the paper's
//! stress observation only by luck: every node firing is delayed with the
//! same probability, so the specific effect behind the 34 reported crashes
//! — "the DM node did switch control, but the SC node was not scheduled in
//! time" (Sec. V-D) — occurs rarely and unreproducibly.  Following the
//! RTAEval observation that RTA logic should be evaluated against
//! *systematically generated* adverse timing, this module makes the whole
//! schedule a first-class, deterministic value:
//!
//! * [`ScheduleSampler`] — the trait the executor consults for every
//!   firing's delay (the hook that replaced the hardwired sampler),
//! * [`JitterSchedule`] — a declarative, serialisable description of a
//!   schedule: the ideal calendar, today's i.i.d. model, window-shaped
//!   adversarial schedules ([`JitterSchedule::Burst`],
//!   [`JitterSchedule::TargetedNode`], [`JitterSchedule::PhaseLocked`]),
//!   and exact replayable recordings ([`JitterSchedule::Recorded`]),
//! * [`delta_slack`] — the per-firing delay tolerance implied by the
//!   φ_safer hysteresis, used by the in-tolerance control campaigns.
//!
//! Adversarial schedules are *pure functions* of `(node, instant)` (or of
//! the per-node firing index for recordings): the same schedule applied to
//! the same system always produces the same run, which is what lets the
//! falsification engine in `soter-scenarios` shrink a violating schedule
//! to a minimal counterexample and pin it as a golden trace.

use crate::jitter::{JitterModel, JitterSampler};
use soter_core::time::{Duration, Time};
use std::collections::BTreeMap;

/// Interned identity of a node within one executor run: a dense index that
/// is stable for the lifetime of the run and maps 1:1 to the node's name.
/// Samplers that keep per-node state can index a flat array by it instead
/// of hashing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A source of per-firing scheduling delays, consulted by the executor
/// every time a node is rescheduled.
///
/// `node`/`name` identify the node that just fired at `now` (`name` is
/// resolved from the executor's interner, so taking it costs nothing); the
/// returned duration is added to that node's next calendar entry (i.e. it
/// delays the *next* firing dispatched from this instant).
/// Implementations must be deterministic given their construction state —
/// campaign records and golden traces rely on it — and must not allocate
/// per call in steady state (the executor's zero-allocation hot path runs
/// through here).
pub trait ScheduleSampler: Send {
    /// The delay to add to the node's next firing after it fired at `now`.
    fn delay(&mut self, node: NodeId, name: &str, now: Time) -> Duration;
}

/// One entry of a [`RecordedSchedule`]: delay the `firing`-th firing
/// (0-based, counted per node) of `node` by `delay`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedDelay {
    /// Node name the delay applies to.
    pub node: String,
    /// Per-node firing index (0 = the delay applied when the node is
    /// rescheduled for the first time).
    pub firing: u64,
    /// The delay applied to that firing.
    pub delay: Duration,
}

/// An exact, replayable schedule: an explicit list of (node, firing index,
/// delay) triples.  This is the fully shrunk form a falsification
/// counterexample can be persisted in — no randomness, no windows, just
/// the delays that matter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordedSchedule {
    /// The recorded delays, in any order (lookup is by node + firing).
    pub delays: Vec<RecordedDelay>,
}

impl RecordedSchedule {
    /// A recording from explicit triples.
    pub fn new(delays: Vec<RecordedDelay>) -> Self {
        RecordedSchedule { delays }
    }
}

/// A declarative scheduling-jitter schedule.
///
/// Schedules are plain data (`Clone + PartialEq`), so they can
/// live inside scenario specifications, be searched over by the
/// falsification engine, and be printed into golden-trace counterexample
/// files.  Build the executor-side sampler with
/// [`JitterSchedule::sampler`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JitterSchedule {
    /// The ideal calendar: no firing is ever delayed.
    #[default]
    Ideal,
    /// The legacy stochastic model: every firing of every node is delayed
    /// with probability `probability` by a uniform random amount (still
    /// deterministic per seed, but not node-targeted).
    Iid(JitterModel),
    /// Delay *every* node's firings dispatched within the window
    /// `[start, start + width)` by a fixed `delay` — a system-wide
    /// scheduling hiccup (GC pause, page fault storm).
    Burst {
        /// Window start instant.
        start: Time,
        /// Window width.
        width: Duration,
        /// Delay applied to every firing dispatched inside the window.
        delay: Duration,
    },
    /// Delay only the named node's firings dispatched within
    /// `[start, start + width)` — the paper's exact crash class when
    /// `node` is the safe controller and the window covers a DM switch
    /// ("the DM node did switch control, but the SC node was not scheduled
    /// in time").
    TargetedNode {
        /// Name of the starved node (e.g. `mpr_sc`).
        node: String,
        /// Window start instant.
        start: Time,
        /// Window width.
        width: Duration,
        /// Delay applied to each of the node's firings inside the window.
        delay: Duration,
    },
    /// Delay every firing whose dispatch instant falls within
    /// `[offset, offset + width)` of each `period`-long cycle — jitter
    /// phase-locked to a periodic disturbance (e.g. a co-scheduled task).
    PhaseLocked {
        /// Cycle length (must be non-zero for the schedule to ever fire).
        period: Duration,
        /// Window offset within each cycle.
        offset: Duration,
        /// Window width within each cycle.
        width: Duration,
        /// Delay applied inside the per-cycle window.
        delay: Duration,
    },
    /// An exact replayable recording (see [`RecordedSchedule`]).
    Recorded(RecordedSchedule),
}

impl JitterSchedule {
    /// The ideal calendar (alias of [`JitterSchedule::Ideal`], mirroring
    /// [`JitterModel::none`]).
    pub fn none() -> Self {
        JitterSchedule::Ideal
    }

    /// The legacy i.i.d. model with an explicit sampler seed.
    pub fn iid(probability: f64, max_delay: Duration, seed: u64) -> Self {
        JitterSchedule::Iid(JitterModel::new(probability, max_delay, seed))
    }

    /// Whether this schedule can ever delay a firing.
    pub fn is_enabled(&self) -> bool {
        match self {
            JitterSchedule::Ideal => false,
            JitterSchedule::Iid(model) => model.probability > 0.0 && !model.max_delay.is_zero(),
            JitterSchedule::Burst { width, delay, .. }
            | JitterSchedule::TargetedNode { width, delay, .. } => {
                !width.is_zero() && !delay.is_zero()
            }
            JitterSchedule::PhaseLocked {
                period,
                width,
                delay,
                ..
            } => !period.is_zero() && !width.is_zero() && !delay.is_zero(),
            JitterSchedule::Recorded(rec) => rec.delays.iter().any(|d| !d.delay.is_zero()),
        }
    }

    /// The largest single-firing delay the schedule can apply — what the
    /// Δ-slack tolerance check compares against.
    pub fn max_delay(&self) -> Duration {
        match self {
            JitterSchedule::Ideal => Duration::ZERO,
            JitterSchedule::Iid(model) => {
                if model.probability > 0.0 {
                    model.max_delay
                } else {
                    Duration::ZERO
                }
            }
            JitterSchedule::Burst { delay, width, .. }
            | JitterSchedule::TargetedNode { delay, width, .. } => {
                if width.is_zero() {
                    Duration::ZERO
                } else {
                    *delay
                }
            }
            JitterSchedule::PhaseLocked {
                period,
                width,
                delay,
                ..
            } => {
                if period.is_zero() || width.is_zero() {
                    Duration::ZERO
                } else {
                    *delay
                }
            }
            JitterSchedule::Recorded(rec) => rec
                .delays
                .iter()
                .map(|d| d.delay)
                .max()
                .unwrap_or(Duration::ZERO),
        }
    }

    /// Builds the stateful sampler the executor consults per firing.
    pub fn sampler(&self) -> Box<dyn ScheduleSampler> {
        match self {
            JitterSchedule::Ideal => Box::new(IdealSampler),
            JitterSchedule::Iid(model) => Box::new(IidSampler(model.sampler())),
            JitterSchedule::Burst {
                start,
                width,
                delay,
            } => Box::new(WindowSampler {
                node: None,
                start: *start,
                width: *width,
                delay: *delay,
            }),
            JitterSchedule::TargetedNode {
                node,
                start,
                width,
                delay,
            } => Box::new(WindowSampler {
                node: Some(node.clone()),
                start: *start,
                width: *width,
                delay: *delay,
            }),
            JitterSchedule::PhaseLocked {
                period,
                offset,
                width,
                delay,
            } => Box::new(PhaseLockedSampler {
                period: *period,
                offset: *offset,
                width: *width,
                delay: *delay,
            }),
            JitterSchedule::Recorded(rec) => Box::new(RecordedSampler::new(rec)),
        }
    }
}

impl From<JitterModel> for JitterSchedule {
    /// A zero-probability / zero-delay model maps to the ideal calendar;
    /// anything else keeps the i.i.d. semantics (and the exact delay
    /// stream) of the model.
    fn from(model: JitterModel) -> Self {
        if model.probability > 0.0 && !model.max_delay.is_zero() {
            JitterSchedule::Iid(model)
        } else {
            JitterSchedule::Ideal
        }
    }
}

/// The per-firing delay tolerance implied by the φ_safer hysteresis.
///
/// A decision module with period Δ re-engages the advanced controller only
/// from states provably safe for `safer_factor × 2Δ`, while the inductive
/// invariant of Theorem 3.1 needs safety for 2Δ.  The spare margin,
/// spread over the two decision periods it covers, tolerates each firing
/// arriving up to `(safer_factor − 1) × Δ` late without leaving the
/// theorem's assumptions.  Schedules whose [`JitterSchedule::max_delay`]
/// stays at or below this slack are "in tolerance": the RTA-protected
/// stack must record zero φ_safe violations under them (pinned by the
/// `catalog::adversarial_stress` control grid and a property test).
pub fn delta_slack(delta: Duration, safer_factor: f64) -> Duration {
    Duration::from_secs_f64((safer_factor - 1.0).max(0.0) * delta.as_secs_f64())
}

struct IdealSampler;

impl ScheduleSampler for IdealSampler {
    fn delay(&mut self, _node: NodeId, _name: &str, _now: Time) -> Duration {
        Duration::ZERO
    }
}

/// Node-agnostic i.i.d. delays — byte-identical to the pre-trait executor
/// behaviour (one global stream advanced once per reschedule, in calendar
/// order).
struct IidSampler(JitterSampler);

impl ScheduleSampler for IidSampler {
    fn delay(&mut self, _node: NodeId, _name: &str, _now: Time) -> Duration {
        self.0.sample()
    }
}

/// `Burst` (node: None) and `TargetedNode` (node: Some) share this: a
/// fixed delay inside one absolute time window.
struct WindowSampler {
    node: Option<String>,
    start: Time,
    width: Duration,
    delay: Duration,
}

impl ScheduleSampler for WindowSampler {
    fn delay(&mut self, _node: NodeId, name: &str, now: Time) -> Duration {
        if let Some(target) = &self.node {
            if target != name {
                return Duration::ZERO;
            }
        }
        if now >= self.start && now < self.start + self.width {
            self.delay
        } else {
            Duration::ZERO
        }
    }
}

struct PhaseLockedSampler {
    period: Duration,
    offset: Duration,
    width: Duration,
    delay: Duration,
}

impl ScheduleSampler for PhaseLockedSampler {
    fn delay(&mut self, _node: NodeId, _name: &str, now: Time) -> Duration {
        if self.period.is_zero() {
            return Duration::ZERO;
        }
        let phase = now.as_micros() % self.period.as_micros();
        let from = self.offset.as_micros();
        let to = from + self.width.as_micros();
        if phase >= from && phase < to {
            self.delay
        } else {
            Duration::ZERO
        }
    }
}

struct RecordedSampler {
    /// Per node name, the recorded delays keyed by firing index.
    delays: BTreeMap<String, BTreeMap<u64, Duration>>,
    /// Per-node firing counters, indexed by the interned [`NodeId`] (grown
    /// on first encounter, so steady-state calls allocate nothing).
    firings: Vec<u64>,
}

impl RecordedSampler {
    fn new(rec: &RecordedSchedule) -> Self {
        let mut delays: BTreeMap<String, BTreeMap<u64, Duration>> = BTreeMap::new();
        for d in &rec.delays {
            delays
                .entry(d.node.clone())
                .or_default()
                .insert(d.firing, d.delay);
        }
        RecordedSampler {
            delays,
            firings: Vec::new(),
        }
    }
}

impl ScheduleSampler for RecordedSampler {
    fn delay(&mut self, node: NodeId, name: &str, _now: Time) -> Duration {
        if node.index() >= self.firings.len() {
            self.firings.resize(node.index() + 1, 0);
        }
        let firing = self.firings[node.index()];
        self.firings[node.index()] += 1;
        self.delays
            .get(name)
            .and_then(|per_firing| per_firing.get(&firing))
            .copied()
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_never_delays() {
        let mut s = JitterSchedule::Ideal.sampler();
        assert!(!JitterSchedule::Ideal.is_enabled());
        for t in 0..100 {
            assert_eq!(
                s.delay(NodeId(0), "any", Time::from_millis(t)),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn iid_schedule_matches_legacy_sampler_stream() {
        let model = JitterModel::new(0.5, Duration::from_millis(20), 11);
        let mut legacy = model.sampler();
        let mut scheduled = JitterSchedule::Iid(model).sampler();
        for t in 0..200 {
            assert_eq!(
                legacy.sample(),
                scheduled.delay(NodeId(0), "node", Time::from_millis(t)),
                "the Iid schedule must reproduce the legacy delay stream"
            );
        }
    }

    #[test]
    fn burst_delays_every_node_inside_the_window_only() {
        let schedule = JitterSchedule::Burst {
            start: Time::from_millis(100),
            width: Duration::from_millis(50),
            delay: Duration::from_millis(7),
        };
        let mut s = schedule.sampler();
        assert_eq!(
            s.delay(NodeId(0), "a", Time::from_millis(99)),
            Duration::ZERO
        );
        assert_eq!(
            s.delay(NodeId(0), "a", Time::from_millis(100)),
            Duration::from_millis(7)
        );
        assert_eq!(
            s.delay(NodeId(1), "b", Time::from_millis(149)),
            Duration::from_millis(7)
        );
        assert_eq!(
            s.delay(NodeId(0), "a", Time::from_millis(150)),
            Duration::ZERO
        );
        assert!(schedule.is_enabled());
        assert_eq!(schedule.max_delay(), Duration::from_millis(7));
    }

    #[test]
    fn targeted_node_delays_only_the_named_node() {
        let schedule = JitterSchedule::TargetedNode {
            node: "mpr_sc".into(),
            start: Time::ZERO,
            width: Duration::from_secs(10),
            delay: Duration::from_millis(400),
        };
        let mut s = schedule.sampler();
        assert_eq!(
            s.delay(NodeId(0), "mpr_sc", Time::from_millis(5)),
            Duration::from_millis(400)
        );
        assert_eq!(
            s.delay(NodeId(1), "mpr_ac", Time::from_millis(5)),
            Duration::ZERO
        );
        assert_eq!(
            s.delay(NodeId(2), "plant", Time::from_millis(5)),
            Duration::ZERO
        );
        assert_eq!(
            s.delay(NodeId(0), "mpr_sc", Time::from_secs_f64(11.0)),
            Duration::ZERO
        );
    }

    #[test]
    fn phase_locked_repeats_each_cycle() {
        let schedule = JitterSchedule::PhaseLocked {
            period: Duration::from_millis(100),
            offset: Duration::from_millis(20),
            width: Duration::from_millis(10),
            delay: Duration::from_millis(3),
        };
        let mut s = schedule.sampler();
        for cycle in 0..5u64 {
            let base = cycle * 100;
            assert_eq!(
                s.delay(NodeId(0), "n", Time::from_millis(base + 19)),
                Duration::ZERO
            );
            assert_eq!(
                s.delay(NodeId(0), "n", Time::from_millis(base + 20)),
                Duration::from_millis(3)
            );
            assert_eq!(
                s.delay(NodeId(0), "n", Time::from_millis(base + 29)),
                Duration::from_millis(3)
            );
            assert_eq!(
                s.delay(NodeId(0), "n", Time::from_millis(base + 30)),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn recorded_schedule_replays_by_node_and_firing_index() {
        let schedule = JitterSchedule::Recorded(RecordedSchedule::new(vec![
            RecordedDelay {
                node: "sc".into(),
                firing: 1,
                delay: Duration::from_millis(40),
            },
            RecordedDelay {
                node: "ac".into(),
                firing: 0,
                delay: Duration::from_millis(5),
            },
        ]));
        let mut s = schedule.sampler();
        // sc firing 0: no entry; ac firing 0: 5 ms; sc firing 1: 40 ms.
        assert_eq!(s.delay(NodeId(0), "sc", Time::ZERO), Duration::ZERO);
        assert_eq!(
            s.delay(NodeId(1), "ac", Time::ZERO),
            Duration::from_millis(5)
        );
        assert_eq!(
            s.delay(NodeId(0), "sc", Time::from_millis(10)),
            Duration::from_millis(40)
        );
        assert_eq!(
            s.delay(NodeId(0), "sc", Time::from_millis(20)),
            Duration::ZERO
        );
        assert_eq!(
            s.delay(NodeId(1), "ac", Time::from_millis(20)),
            Duration::ZERO
        );
        assert_eq!(schedule.max_delay(), Duration::from_millis(40));
    }

    #[test]
    fn degenerate_windows_are_disabled() {
        for schedule in [
            JitterSchedule::Burst {
                start: Time::ZERO,
                width: Duration::ZERO,
                delay: Duration::from_millis(10),
            },
            JitterSchedule::TargetedNode {
                node: "sc".into(),
                start: Time::ZERO,
                width: Duration::from_secs(1),
                delay: Duration::ZERO,
            },
            JitterSchedule::PhaseLocked {
                period: Duration::ZERO,
                offset: Duration::ZERO,
                width: Duration::from_millis(10),
                delay: Duration::from_millis(10),
            },
            JitterSchedule::Recorded(RecordedSchedule::default()),
        ] {
            assert!(!schedule.is_enabled(), "{schedule:?}");
            assert_eq!(schedule.max_delay(), Duration::ZERO, "{schedule:?}");
            let mut s = schedule.sampler();
            for t in 0..50 {
                assert_eq!(
                    s.delay(NodeId(0), "sc", Time::from_millis(t)),
                    Duration::ZERO
                );
            }
        }
    }

    #[test]
    fn model_conversion_maps_disabled_models_to_ideal() {
        assert_eq!(
            JitterSchedule::from(JitterModel::none()),
            JitterSchedule::Ideal
        );
        let model = JitterModel::new(0.3, Duration::from_millis(10), 4);
        assert_eq!(JitterSchedule::from(model), JitterSchedule::Iid(model));
    }

    #[test]
    fn delta_slack_scales_with_the_hysteresis_margin() {
        assert_eq!(
            delta_slack(Duration::from_millis(100), 1.5),
            Duration::from_millis(50)
        );
        assert_eq!(
            delta_slack(Duration::from_millis(200), 2.0),
            Duration::from_millis(200)
        );
        // No hysteresis margin, no slack; never negative.
        assert_eq!(delta_slack(Duration::from_millis(100), 1.0), Duration::ZERO);
        assert_eq!(delta_slack(Duration::from_millis(100), 0.5), Duration::ZERO);
    }
}
