//! The Theorem 3.1 invariant as a runtime monitor.
//!
//! Theorem 3.1 of the paper states that for a well-formed RTA module the
//! predicate
//!
//! ```text
//! φ_Inv(mode, s) =  (mode = SC ∧ s ∈ φ_safe)
//!                 ∨ (mode = AC ∧ Reach(s, *, Δ) ⊆ φ_safe)
//! ```
//!
//! is inductive: if it holds initially it holds at every reachable state.
//! [`InvariantMonitor`] evaluates `φ_Inv` over an executing system, which is
//! how the test-suite and the experiment harness *measure* that the
//! guarantee holds (and detect the scheduling-starvation violations the
//! paper reports in its stress campaign).

use crate::rta::{FilterKind, Mode, SafetyOracle};
use crate::time::{Duration, Time};
use crate::topic::{TopicName, TopicRead};
use std::sync::Arc;

/// The result of evaluating `φ_Inv` at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantStatus {
    /// The invariant holds.
    Holds,
    /// The invariant is violated: the module is in SC mode but outside
    /// `φ_safe`.
    ViolatedInScMode,
    /// The invariant is violated: the module is in AC mode but the state can
    /// leave `φ_safe` within `Δ`.
    ViolatedInAcMode,
}

impl InvariantStatus {
    /// Returns `true` if the invariant holds.
    pub fn holds(&self) -> bool {
        matches!(self, InvariantStatus::Holds)
    }
}

/// A recorded invariant violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// When the violation was observed.
    pub time: Time,
    /// The kind of violation.
    pub status: InvariantStatus,
    /// The module mode at the time.
    pub mode: Mode,
}

/// A runtime monitor for the Theorem 3.1 invariant of one RTA module.
pub struct InvariantMonitor {
    module: String,
    oracle: Arc<dyn SafetyOracle>,
    delta: Duration,
    filter: FilterKind,
    command_topic: Option<TopicName>,
    checks: u64,
    violations: Vec<Violation>,
}

impl std::fmt::Debug for InvariantMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantMonitor")
            .field("module", &self.module)
            .field("checks", &self.checks)
            .field("violations", &self.violations.len())
            .finish()
    }
}

impl InvariantMonitor {
    /// Creates a monitor for a module with the given oracle and decision
    /// period.
    pub fn new(module: impl Into<String>, oracle: Arc<dyn SafetyOracle>, delta: Duration) -> Self {
        InvariantMonitor {
            module: module.into(),
            oracle,
            delta,
            filter: FilterKind::default(),
            command_topic: None,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Makes the monitor filter-aware.  The AC-mode conjunct of `φ_Inv`
    /// must match what the module's filter actually guarantees: the
    /// worst-case `Reach(s, *, Δ) ⊆ φ_safe` for explicit Simplex, the
    /// command-conditional reach for implicit Simplex (falling back to the
    /// worst case when no command is visible), and plain `s ∈ φ_safe` for
    /// the ASIF filter (whose projection gate, not its reach margin, is
    /// what keeps the AC admissible).
    pub fn with_filter(mut self, filter: FilterKind, command_topic: Option<TopicName>) -> Self {
        self.filter = filter;
        self.command_topic = command_topic;
        self
    }

    /// The monitored module's name.
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Evaluates `φ_Inv(mode, s)` for the observed state, recording any
    /// violation.
    pub fn check(&mut self, now: Time, mode: Mode, observed: &dyn TopicRead) -> InvariantStatus {
        self.checks += 1;
        let status = match mode {
            Mode::Sc => {
                if self.oracle.is_safe(observed) {
                    InvariantStatus::Holds
                } else {
                    InvariantStatus::ViolatedInScMode
                }
            }
            Mode::Ac => {
                let may_leave = match self.filter {
                    FilterKind::ExplicitSimplex => {
                        self.oracle.may_leave_safe_within(observed, self.delta)
                    }
                    FilterKind::ImplicitSimplex => {
                        let command = self
                            .command_topic
                            .as_ref()
                            .and_then(|t| observed.get(t.as_str()))
                            .filter(|v| !v.is_unit());
                        match command {
                            Some(cmd) => self
                                .oracle
                                .command_may_leave_safe(observed, cmd, self.delta),
                            None => self.oracle.may_leave_safe_within(observed, self.delta),
                        }
                    }
                    FilterKind::Asif => !self.oracle.is_safe(observed),
                };
                if may_leave {
                    InvariantStatus::ViolatedInAcMode
                } else {
                    InvariantStatus::Holds
                }
            }
        };
        if !status.holds() {
            self.violations.push(Violation {
                time: now,
                status,
                mode,
            });
        }
        status
    }

    /// Number of checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// All recorded violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Returns `true` if no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::test_support::LineOracle;
    use crate::topic::{TopicMap, Value};

    fn monitor() -> InvariantMonitor {
        InvariantMonitor::new(
            "line",
            Arc::new(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            }),
            Duration::from_secs(1),
        )
    }

    fn observe(x: f64) -> TopicMap {
        let mut m = TopicMap::new();
        m.insert("state", Value::Float(x));
        m
    }

    #[test]
    fn sc_mode_inside_safe_holds() {
        let mut m = monitor();
        assert!(m.check(Time::ZERO, Mode::Sc, &observe(9.0)).holds());
        assert!(m.is_clean());
        assert_eq!(m.checks(), 1);
        assert_eq!(m.module(), "line");
    }

    #[test]
    fn sc_mode_outside_safe_is_violation() {
        let mut m = monitor();
        let s = m.check(Time::from_millis(5), Mode::Sc, &observe(11.0));
        assert_eq!(s, InvariantStatus::ViolatedInScMode);
        assert!(!m.is_clean());
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].mode, Mode::Sc);
        assert_eq!(m.violations()[0].time, Time::from_millis(5));
    }

    #[test]
    fn ac_mode_with_margin_holds() {
        let mut m = monitor();
        // At x = 8 with speed 1 and Δ = 1 s the system can reach at most 9 < 10.
        assert!(m.check(Time::ZERO, Mode::Ac, &observe(8.0)).holds());
    }

    #[test]
    fn ac_mode_too_close_to_boundary_is_violation() {
        let mut m = monitor();
        // At x = 9.5 the system can reach 10.5 > 10 within Δ.
        let s = m.check(Time::ZERO, Mode::Ac, &observe(9.5));
        assert_eq!(s, InvariantStatus::ViolatedInAcMode);
    }

    #[test]
    fn violations_accumulate() {
        let mut m = monitor();
        m.check(Time::from_millis(1), Mode::Sc, &observe(11.0));
        m.check(Time::from_millis(2), Mode::Ac, &observe(9.9));
        m.check(Time::from_millis(3), Mode::Sc, &observe(0.0));
        assert_eq!(m.checks(), 3);
        assert_eq!(m.violations().len(), 2);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("line"));
    }
}
