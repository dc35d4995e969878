//! Bounded-asynchrony systematic testing.
//!
//! The SOTER tool-chain includes a backend systematic-testing engine (built
//! on P/DRONA) that enumerates, in a model-checking style, the executions of
//! a program by controlling the interleaving of node firings with an
//! external scheduler under bounded-asynchrony semantics (Sec. V).  This
//! module provides the same capability for the Rust reproduction:
//!
//! * [`SystematicTester`] re-executes the system from its initial
//!   configuration under different *schedules* — different orders in which
//!   simultaneously enabled nodes fire within one instant — and evaluates a
//!   user-supplied safety predicate on every reached configuration.
//! * Schedules are explored either exhaustively (depth-first over ordering
//!   choices, feasible for small systems and short horizons) or randomly
//!   (seeded, for larger systems).
//!
//! Because node trait objects are not cloneable, exploration is *stateless*:
//! every schedule is replayed from scratch through a factory closure that
//! rebuilds the system, exactly like the replay-based exploration of the P
//! checker.

use crate::executor::{Executor, ExecutorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_core::composition::RtaSystem;
use soter_core::rta::Mode;
use soter_core::time::Time;
use soter_core::topic::TopicRead;

/// The verdict of exploring one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// The ordering choices that define the schedule (index picked at each
    /// choice point).
    pub choices: Vec<usize>,
    /// Whether the safety predicate held on every reached configuration.
    pub safe: bool,
    /// Time of the first predicate violation, if any.
    pub violation_time: Option<Time>,
}

/// Aggregate report of a systematic-testing run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationReport {
    /// Number of schedules explored.
    pub schedules_explored: usize,
    /// Number of schedules on which the predicate was violated.
    pub violating_schedules: usize,
    /// The first violating schedule found, if any (for replay/debugging).
    pub first_violation: Option<ScheduleResult>,
    /// Total node firings across all schedules.
    pub total_firings: u64,
}

impl ExplorationReport {
    /// Returns `true` if no explored schedule violated the predicate.
    pub fn all_safe(&self) -> bool {
        self.violating_schedules == 0
    }
}

type Factory = Box<dyn Fn() -> RtaSystem>;
type Predicate = Box<dyn Fn(Time, &dyn TopicRead, &[(String, Mode)]) -> bool>;

/// Scheduling choice points per schedule before a replay stops (guards
/// against runaway exploration of very fine-grained systems).
const MAX_CHOICE_POINTS: usize = 10_000;

/// A bounded-asynchrony systematic tester.
pub struct SystematicTester {
    factory: Factory,
    predicate: Predicate,
    horizon: Time,
}

impl SystematicTester {
    /// Creates a tester.
    ///
    /// * `factory` rebuilds the system under test in its initial
    ///   configuration (called once per schedule),
    /// * `predicate` is evaluated after every discrete instant on the
    ///   current time, a borrowed view of the topic valuation and the
    ///   module modes; returning `false` marks the schedule as violating,
    /// * `horizon` bounds the simulated time of each schedule.
    pub fn new<F, P>(factory: F, predicate: P, horizon: Time) -> Self
    where
        F: Fn() -> RtaSystem + 'static,
        P: Fn(Time, &dyn TopicRead, &[(String, Mode)]) -> bool + 'static,
    {
        SystematicTester {
            factory: Box::new(factory),
            predicate: Box::new(predicate),
            horizon,
        }
    }

    /// Replays one schedule described by `choices` (indices taken at
    /// successive choice points; missing entries default to 0) and returns
    /// its result together with the number of choice points encountered.
    fn run_schedule(&self, choices: &[usize]) -> (ScheduleResult, usize, u64) {
        let system = (self.factory)();
        let mut exec = Executor::with_config(
            system,
            ExecutorConfig {
                record_trace: false,
                ..ExecutorConfig::default()
            },
        );
        let mut choice_idx = 0usize;
        let mut choice_count = 0usize;
        let mut taken: Vec<usize> = Vec::new();
        let mut safe = true;
        let mut violation_time = None;
        while exec.now() < self.horizon {
            let next = exec.step_instant_with_order(|candidates| {
                if candidates.len() <= 1 {
                    return 0;
                }
                choice_count += 1;
                let pick = if choice_idx < choices.len() {
                    choices[choice_idx].min(candidates.len() - 1)
                } else {
                    0
                };
                choice_idx += 1;
                if taken.len() < choice_idx {
                    taken.push(pick);
                }
                pick
            });
            let Some(now) = next else { break };
            if choice_count > MAX_CHOICE_POINTS {
                break;
            }
            let snapshot = exec.mode_snapshot();
            if safe && !(self.predicate)(now, &exec.reader(), &snapshot) {
                safe = false;
                violation_time = Some(now);
            }
        }
        (
            ScheduleResult {
                choices: taken,
                safe,
                violation_time,
            },
            choice_count,
            exec.fired_steps(),
        )
    }

    /// Explores schedules by random choice of firing order, `schedules`
    /// times, with the given seed.
    pub fn explore_random(&self, schedules: usize, seed: u64) -> ExplorationReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut report = ExplorationReport {
            schedules_explored: 0,
            violating_schedules: 0,
            first_violation: None,
            total_firings: 0,
        };
        for _ in 0..schedules {
            // Pre-draw a long random choice vector; unused entries are
            // ignored, missing ones default to choice 0.
            let choices: Vec<usize> = (0..MAX_CHOICE_POINTS.min(4096))
                .map(|_| rng.random_range(0..8))
                .collect();
            let (result, _, firings) = self.run_schedule(&choices);
            report.schedules_explored += 1;
            report.total_firings += firings;
            if !result.safe {
                report.violating_schedules += 1;
                if report.first_violation.is_none() {
                    report.first_violation = Some(result);
                }
            }
        }
        report
    }

    /// Exhaustively explores schedules depth-first up to `max_schedules`
    /// distinct schedules, deviating from the default order at one new
    /// choice point at a time (iterative-deepening over the choice tree).
    ///
    /// This is the bounded-asynchrony analogue of the paper's
    /// model-checking-style enumeration; it is exhaustive when the number of
    /// choice points within the horizon is small enough that `max_schedules`
    /// is not hit.
    pub fn explore_exhaustive(&self, max_schedules: usize) -> ExplorationReport {
        let mut report = ExplorationReport {
            schedules_explored: 0,
            violating_schedules: 0,
            first_violation: None,
            total_firings: 0,
        };
        // Work list of choice prefixes to try, explored breadth-first so
        // shallow deviations from the default order are covered before deep
        // ones; start with the default schedule (empty prefix = always
        // choice 0).
        let mut work: std::collections::VecDeque<Vec<usize>> =
            std::collections::VecDeque::from([Vec::new()]);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(prefix) = work.pop_front() {
            if report.schedules_explored >= max_schedules {
                break;
            }
            if !seen.insert(prefix.clone()) {
                continue;
            }
            let (result, choice_points, firings) = self.run_schedule(&prefix);
            report.schedules_explored += 1;
            report.total_firings += firings;
            if !result.safe {
                report.violating_schedules += 1;
                if report.first_violation.is_none() {
                    report.first_violation = Some(result.clone());
                }
            }
            // Branch: for the first choice point beyond the prefix, try the
            // alternative orderings (bounded asynchrony explores permutations
            // of simultaneously enabled nodes; trying each index of the next
            // unexplored choice point covers them incrementally).
            if prefix.len() < choice_points {
                for alt in 1..4 {
                    let mut next = prefix.clone();
                    next.push(alt);
                    work.push_back(next);
                }
                let mut zero = prefix.clone();
                zero.push(0);
                if !seen.contains(&zero) {
                    // The zero continuation was already covered implicitly,
                    // mark it seen so it is not re-run.
                    seen.insert(zero);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_core::node::FnNode;
    use soter_core::prelude::*;

    /// A two-node system with a write-write race on interleaving-sensitive
    /// topics: `writer_a` and `writer_b` both fire every 100 ms; `checker`
    /// records whichever wrote last.  The "safety" predicate we test is
    /// "topic `last` never equals b" — which is violated only under some
    /// orderings, so systematic exploration must find it while the default
    /// order does not.
    fn racy_system() -> RtaSystem {
        let mut sys = RtaSystem::new("racy");
        sys.add_node(
            FnNode::builder("writer_a")
                .publishes(["slot_a"])
                .period(Duration::from_millis(100))
                .step(|now, _, out| {
                    out.insert("slot_a", Value::Float(now.as_secs_f64()));
                })
                .build(),
        )
        .unwrap();
        sys.add_node(
            FnNode::builder("writer_b")
                .publishes(["slot_b"])
                .period(Duration::from_millis(100))
                .step(|now, _, out| {
                    out.insert("slot_b", Value::Float(now.as_secs_f64() + 1000.0));
                })
                .build(),
        )
        .unwrap();
        // The "last writer" is observable through which slot was written
        // more recently *within* the instant — emulate by a node that reads
        // both and publishes which one it saw first as non-unit.
        let mut seen_b_before_a = false;
        sys.add_node(
            FnNode::builder("checker")
                .subscribes(["slot_a", "slot_b"])
                .publishes(["b_seen_without_a"])
                .period(Duration::from_millis(100))
                .step(move |_, inputs, out| {
                    let a = inputs.get_or_unit("slot_a");
                    let b = inputs.get_or_unit("slot_b");
                    // If the checker fires after B but before A within the
                    // same instant, it observes b newer than a.
                    if !b.is_unit() && a.is_unit() {
                        seen_b_before_a = true;
                    }
                    out.insert("b_seen_without_a", Value::Bool(seen_b_before_a));
                })
                .build(),
        )
        .unwrap();
        sys
    }

    #[test]
    fn default_schedule_misses_the_race() {
        let tester = SystematicTester::new(
            racy_system,
            |_, topics, _| {
                topics
                    .get("b_seen_without_a")
                    .and_then(Value::as_bool)
                    .map(|b| !b)
                    .unwrap_or(true)
            },
            Time::from_millis(300),
        );
        // A single schedule with the default order (writer_a fires before
        // writer_b before checker within an instant) never violates.
        let (result, _, _) = tester.run_schedule(&[]);
        assert!(result.safe);
    }

    #[test]
    fn exhaustive_exploration_finds_the_race() {
        let tester = SystematicTester::new(
            racy_system,
            |_, topics, _| {
                topics
                    .get("b_seen_without_a")
                    .and_then(Value::as_bool)
                    .map(|b| !b)
                    .unwrap_or(true)
            },
            Time::from_millis(300),
        );
        let report = tester.explore_exhaustive(200);
        assert!(report.schedules_explored > 1);
        assert!(
            report.violating_schedules > 0,
            "exploration must find an ordering where the checker observes B without A"
        );
        assert!(!report.all_safe());
        let violation = report.first_violation.unwrap();
        assert!(!violation.safe);
        assert!(violation.violation_time.is_some());
    }

    #[test]
    fn random_exploration_also_finds_the_race() {
        let tester = SystematicTester::new(
            racy_system,
            |_, topics, _| {
                topics
                    .get("b_seen_without_a")
                    .and_then(Value::as_bool)
                    .map(|b| !b)
                    .unwrap_or(true)
            },
            Time::from_millis(300),
        );
        let report = tester.explore_random(50, 12345);
        assert_eq!(report.schedules_explored, 50);
        assert!(report.violating_schedules > 0);
        assert!(report.total_firings > 0);
    }

    #[test]
    fn safe_system_reports_all_safe() {
        let factory = || {
            let mut sys = RtaSystem::new("quiet");
            sys.add_node(
                FnNode::builder("ticker")
                    .publishes(["t"])
                    .period(Duration::from_millis(50))
                    .step(|_, _, out| {
                        out.insert("t", Value::Int(1));
                    })
                    .build(),
            )
            .unwrap();
            sys
        };
        let tester = SystematicTester::new(factory, |_, _, _| true, Time::from_millis(500));
        let report = tester.explore_exhaustive(20);
        assert!(report.all_safe());
        assert!(report.first_violation.is_none());
        let report = tester.explore_random(5, 1);
        assert!(report.all_safe());
    }
}
