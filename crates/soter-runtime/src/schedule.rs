//! Deterministic scheduling-jitter *schedules*.
//!
//! The paper's stress campaign (Sec. V-D) reports 34 crashes whose root
//! cause was that "the DM node did switch control, but the SC node was not
//! scheduled in time for the system to recover" — a scheduling effect of
//! the non-real-time host OS, not a flaw of the RTA theory.  The i.i.d.
//! schedule ([`JitterSchedule::Iid`]) reproduces that effect only by luck:
//! every node firing is delayed with the same probability, so the crash
//! occurs rarely and unreproducibly.  Following the RTAEval observation
//! that RTA logic should be evaluated against *systematically generated*
//! adverse timing, this module makes the whole schedule a first-class,
//! deterministic value:
//!
//! * [`JitterSchedule`] — a declarative, serialisable description of a
//!   schedule: the ideal calendar, the i.i.d. model and window-shaped
//!   adversarial schedules ([`JitterSchedule::Burst`],
//!   [`JitterSchedule::TargetedNode`], [`JitterSchedule::PhaseLocked`]),
//! * [`Sampler`] — a schedule's per-run state, which the executor consults
//!   for every firing's delay,
//! * [`delta_slack`] — the per-firing delay tolerance implied by the
//!   φ_safer hysteresis, used by the in-tolerance control campaigns.
//!
//! Adversarial schedules are *pure functions* of `(node, instant)`: the
//! same schedule applied to the same system always produces the same run,
//! which is what lets the falsification engine in `soter-scenarios` shrink
//! a violating schedule to a minimal counterexample and pin it as a golden
//! trace.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_core::time::{Duration, Time};

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
    /// The stochastic model: every firing of every node is delayed with
    /// probability `probability` by a uniform random amount in
    /// `[0, max_delay]` (deterministic per seed, but not node-targeted).
    /// A `probability` of 1 or more delays every firing; 0 or less, or NaN,
    /// none.
    Iid {
        /// Probability that a given firing is delayed.
        probability: f64,
        /// Maximum delay applied to a delayed firing.
        max_delay: Duration,
        /// Seed of the delay stream.
        seed: u64,
    },
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
}

impl JitterSchedule {
    /// The i.i.d. model with an explicit sampler seed.
    pub fn iid(probability: f64, max_delay: Duration, seed: u64) -> Self {
        JitterSchedule::Iid {
            probability,
            max_delay,
            seed,
        }
    }

    /// Whether this schedule can ever delay a firing.
    pub fn is_enabled(&self) -> bool {
        match self {
            JitterSchedule::Ideal => false,
            JitterSchedule::Iid {
                probability,
                max_delay,
                ..
            } => *probability > 0.0 && !max_delay.is_zero(),
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
        }
    }

    /// The largest single-firing delay the schedule can apply — what the
    /// Δ-slack tolerance check compares against.
    pub fn max_delay(&self) -> Duration {
        match self {
            JitterSchedule::Ideal => Duration::ZERO,
            JitterSchedule::Iid {
                probability,
                max_delay,
                ..
            } => {
                if *probability > 0.0 {
                    *max_delay
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
        }
    }

    /// Builds the per-run sampler the executor consults per firing.
    pub fn sampler(&self) -> Sampler {
        let seed = match self {
            JitterSchedule::Iid { seed, .. } => *seed,
            _ => 0,
        };
        Sampler {
            schedule: self.clone(),
            rng: SmallRng::seed_from_u64(seed),
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

/// The per-run state of a [`JitterSchedule`]: the schedule itself plus
/// the delay stream of [`JitterSchedule::Iid`].  Deterministic given the
/// schedule, and allocation-free per call (the executor's zero-allocation
/// hot path runs through [`Sampler::delay`]).
#[derive(Debug, Clone)]
pub struct Sampler {
    schedule: JitterSchedule,
    /// The i.i.d. stream, seeded from [`JitterSchedule::Iid`]'s `seed` and
    /// advanced in calendar order: one draw per firing, and a second for a
    /// delayed one.  Other schedules never draw from it.
    rng: SmallRng,
}

impl Sampler {
    /// The delay to add to the next firing of the node `name`, which just
    /// fired at `now` (it delays the next firing dispatched from this
    /// instant).
    pub fn delay(&mut self, name: &str, now: Time) -> Duration {
        let in_window = |start: Time, width: Duration| now >= start && now < start + width;
        match &self.schedule {
            JitterSchedule::Ideal => Duration::ZERO,
            JitterSchedule::Iid {
                probability,
                max_delay,
                ..
            } => {
                if *probability <= 0.0 || max_delay.is_zero() {
                    Duration::ZERO
                } else if self.rng.random::<f64>() < *probability {
                    Duration::from_micros(self.rng.random_range(0..=max_delay.as_micros()))
                } else {
                    Duration::ZERO
                }
            }
            JitterSchedule::Burst {
                start,
                width,
                delay,
            } if in_window(*start, *width) => *delay,
            JitterSchedule::TargetedNode {
                node,
                start,
                width,
                delay,
            } if node == name && in_window(*start, *width) => *delay,
            JitterSchedule::PhaseLocked {
                period,
                offset,
                width,
                delay,
            } if !period.is_zero() => {
                let phase = now.as_micros() % period.as_micros();
                let from = offset.as_micros();
                if phase >= from && phase < from + width.as_micros() {
                    *delay
                } else {
                    Duration::ZERO
                }
            }
            _ => Duration::ZERO,
        }
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
            assert_eq!(s.delay("any", Time::from_millis(t)), Duration::ZERO);
        }
    }

    /// The first delays of an i.i.d. stream, in microseconds.
    fn iid_stream(probability: f64, max_delay: Duration, seed: u64, n: u64) -> Vec<u64> {
        let mut s = JitterSchedule::iid(probability, max_delay, seed).sampler();
        (0..n)
            .map(|t| s.delay("node", Time::from_millis(t)).as_micros())
            .collect()
    }

    /// The literal is the stream the executor's original hardwired i.i.d.
    /// sampler drew for this model: the `stress-jitter` golden and every
    /// jittered digest depend on it, draw for draw.
    #[test]
    fn iid_schedule_matches_legacy_sampler_stream() {
        assert_eq!(
            iid_stream(0.5, Duration::from_millis(20), 11, 12),
            [0, 0, 0, 0, 13019, 3417, 0, 9831, 9230, 15274, 0, 9755]
        );
    }

    #[test]
    fn iid_zero_probability_never_delays() {
        let schedule = JitterSchedule::iid(0.0, Duration::from_millis(20), 5);
        assert!(!schedule.is_enabled());
        assert!(iid_stream(0.0, Duration::from_millis(20), 5, 100)
            .iter()
            .all(|&d| d == 0));
    }

    #[test]
    fn iid_delays_are_bounded() {
        let stream = iid_stream(1.0, Duration::from_millis(50), 3, 1000);
        assert!(stream.iter().all(|&d| d <= 50_000));
    }

    #[test]
    fn iid_probability_controls_frequency() {
        let count_delays = |p: f64| {
            iid_stream(p, Duration::from_millis(10), 7, 1000)
                .iter()
                .filter(|&&d| d != 0)
                .count()
        };
        let low = count_delays(0.05);
        let high = count_delays(0.9);
        assert!(
            low < high,
            "higher probability must delay more often ({low} vs {high})"
        );
        assert!(low > 0 && high < 1000);
    }

    #[test]
    fn iid_stream_is_deterministic_per_seed() {
        let stream = |seed| iid_stream(0.5, Duration::from_millis(20), seed, 50);
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }

    #[test]
    fn burst_delays_every_node_inside_the_window_only() {
        let schedule = JitterSchedule::Burst {
            start: Time::from_millis(100),
            width: Duration::from_millis(50),
            delay: Duration::from_millis(7),
        };
        let mut s = schedule.sampler();
        assert_eq!(s.delay("a", Time::from_millis(99)), Duration::ZERO);
        assert_eq!(
            s.delay("a", Time::from_millis(100)),
            Duration::from_millis(7)
        );
        assert_eq!(
            s.delay("b", Time::from_millis(149)),
            Duration::from_millis(7)
        );
        assert_eq!(s.delay("a", Time::from_millis(150)), Duration::ZERO);
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
            s.delay("mpr_sc", Time::from_millis(5)),
            Duration::from_millis(400)
        );
        assert_eq!(s.delay("mpr_ac", Time::from_millis(5)), Duration::ZERO);
        assert_eq!(s.delay("plant", Time::from_millis(5)), Duration::ZERO);
        assert_eq!(s.delay("mpr_sc", Time::from_secs_f64(11.0)), Duration::ZERO);
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
            assert_eq!(s.delay("n", Time::from_millis(base + 19)), Duration::ZERO);
            assert_eq!(
                s.delay("n", Time::from_millis(base + 20)),
                Duration::from_millis(3)
            );
            assert_eq!(
                s.delay("n", Time::from_millis(base + 29)),
                Duration::from_millis(3)
            );
            assert_eq!(s.delay("n", Time::from_millis(base + 30)), Duration::ZERO);
        }
    }

    #[test]
    fn degenerate_windows_are_disabled() {
        for schedule in [
            JitterSchedule::iid(0.0, Duration::from_millis(10), 1),
            JitterSchedule::iid(0.5, Duration::ZERO, 1),
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
        ] {
            assert!(!schedule.is_enabled(), "{schedule:?}");
            assert_eq!(schedule.max_delay(), Duration::ZERO, "{schedule:?}");
            let mut s = schedule.sampler();
            for t in 0..50 {
                assert_eq!(s.delay("sc", Time::from_millis(t)), Duration::ZERO);
            }
        }
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
