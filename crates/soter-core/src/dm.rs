//! The generated decision module (DM).
//!
//! For every declared RTA module the SOTER compiler generates a decision
//! module node that runs with period `Δ`, reads the state topics, and
//! applies the switching logic of Fig. 9:
//!
//! ```text
//! every Δ:
//!     if mode = AC and Reach(st, *, 2Δ) ⊄ φ_safe   then mode := SC
//!     else if mode = SC and st ∈ φ_safer            then mode := AC
//! ```
//!
//! The DM publishes on no topic; instead the runtime reads
//! [`DecisionModule::mode`] after each DM step and updates the global
//! output-enable (OE) map that gates which controller's outputs reach the
//! rest of the system (rule DM-STEP of Fig. 11).

use crate::node::Node;
use crate::rta::{FilterKind, Mode, SafetyOracle};
use crate::time::{Duration, Time};
use crate::topic::{TopicName, TopicRead, TopicWriter};
use std::fmt;
use std::sync::Arc;

/// Why a decision module switched modes — which oracle check failed (or
/// succeeded) at the instant of the switch.  Carried on every
/// [`SwitchEvent`] and surfaced in trace events and falsification reports;
/// deliberately *not* part of the trace digest, so adding reasons does not
/// re-key existing goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchReason {
    /// The worst-case reachable set over the check horizon left `φ_safe`
    /// (`Reach(s, *, 2Δ) ⊄ φ_safe` — the explicit-Simplex disengage check,
    /// also the implicit filter's fallback when no command was observed).
    ReachUnsafe,
    /// The reachable set *under the AC's proposed command* left `φ_safe`
    /// (the implicit-Simplex disengage check).
    CommandUnsafe,
    /// The observed state itself left `φ_safe` (the ASIF filter's backstop
    /// disengage — projection alone could not keep the system safe).
    StateUnsafe,
    /// The observed state entered `φ_safer` (the re-engage check, shared by
    /// every filter).
    StateSafer,
}

impl SwitchReason {
    /// A short lowercase identifier, stable across releases (used in trace
    /// and falsification report text).
    pub fn slug(&self) -> &'static str {
        match self {
            SwitchReason::ReachUnsafe => "reach-unsafe",
            SwitchReason::CommandUnsafe => "command-unsafe",
            SwitchReason::StateUnsafe => "state-unsafe",
            SwitchReason::StateSafer => "state-safer",
        }
    }

    /// Parses the identifier produced by [`SwitchReason::slug`].
    pub fn from_slug(s: &str) -> Option<SwitchReason> {
        [
            SwitchReason::ReachUnsafe,
            SwitchReason::CommandUnsafe,
            SwitchReason::StateUnsafe,
            SwitchReason::StateSafer,
        ]
        .into_iter()
        .find(|r| r.slug() == s)
    }
}

impl fmt::Display for SwitchReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// A record of one mode switch performed by a decision module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// When the switch happened.
    pub time: Time,
    /// The mode switched away from.
    pub from: Mode,
    /// The mode switched to.
    pub to: Mode,
    /// Which check triggered the switch.
    pub reason: SwitchReason,
}

/// The AC-mode check of `filter`: `Some(reason)` when the AC may lead the
/// state out of `φ_safe` within `horizon`.  This is where the filter kinds
/// differ.  The DM disengages on it over `2Δ`; the Theorem 3.1 monitor
/// checks the same predicate over `Δ`.
pub(crate) fn ac_check(
    filter: FilterKind,
    oracle: &dyn SafetyOracle,
    command_topic: Option<&TopicName>,
    inputs: &dyn TopicRead,
    horizon: Duration,
) -> Option<SwitchReason> {
    match filter {
        // The paper's Fig. 9 logic, verbatim.
        FilterKind::ExplicitSimplex => oracle
            .may_leave_safe_within(inputs, horizon)
            .then_some(SwitchReason::ReachUnsafe),
        FilterKind::ImplicitSimplex => {
            let command = command_topic
                .and_then(|t| inputs.get(t.as_str()))
                .filter(|v| !v.is_unit());
            match command {
                Some(cmd) => oracle
                    .command_may_leave_safe(inputs, cmd, horizon)
                    .then_some(SwitchReason::CommandUnsafe),
                // No command observed yet: fall back to the worst-case
                // (explicit) check.
                None => oracle
                    .may_leave_safe_within(inputs, horizon)
                    .then_some(SwitchReason::ReachUnsafe),
            }
        }
        // The projection gate keeps commands admissible; the AC is only
        // unsafe as a backstop, when the state itself has left φ_safe.
        FilterKind::Asif => (!oracle.is_safe(inputs)).then_some(SwitchReason::StateUnsafe),
    }
}

/// The decision module node generated for an RTA module.
pub struct DecisionModule {
    name: String,
    subscriptions: Vec<TopicName>,
    delta: Duration,
    oracle: Arc<dyn SafetyOracle>,
    filter: FilterKind,
    command_topic: Option<TopicName>,
    mode: Mode,
    switches: Vec<SwitchEvent>,
    evaluations: u64,
}

impl fmt::Debug for DecisionModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionModule")
            .field("name", &self.name)
            .field("delta", &self.delta)
            .field("mode", &self.mode)
            .field("switches", &self.switches.len())
            .finish()
    }
}

impl DecisionModule {
    /// Creates a decision module.  Normally called by
    /// [`crate::rta::RtaModuleBuilder::build`], which derives the
    /// subscription set from the controllers it protects.
    pub fn new(
        name: impl Into<String>,
        subscriptions: Vec<TopicName>,
        delta: Duration,
        oracle: Arc<dyn SafetyOracle>,
    ) -> Self {
        DecisionModule {
            name: name.into(),
            subscriptions,
            delta,
            oracle,
            filter: FilterKind::default(),
            command_topic: None,
            // Every RTA module starts in SC mode (initial configuration of
            // the operational semantics, Sec. IV).
            mode: Mode::Sc,
            switches: Vec::new(),
            evaluations: 0,
        }
    }

    /// Selects the safety-filter strategy this DM dispatches on (default
    /// [`FilterKind::ExplicitSimplex`]).  `command_topic` names the module's
    /// command topic for command-aware filters; it must already be in the
    /// subscription set when the implicit filter is to read it.
    pub fn with_filter(mut self, filter: FilterKind, command_topic: Option<TopicName>) -> Self {
        self.filter = filter;
        self.command_topic = command_topic;
        self
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The safety-filter strategy this DM dispatches on.
    pub fn filter(&self) -> FilterKind {
        self.filter
    }

    /// The decision period `Δ`.
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// All mode switches performed so far, in time order.
    pub fn switches(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// Number of AC→SC switches (the paper's "disengagements").
    pub fn disengagement_count(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.from == Mode::Ac && s.to == Mode::Sc)
            .count()
    }

    /// Number of SC→AC switches.
    pub fn reengagement_count(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.from == Mode::Sc && s.to == Mode::Ac)
            .count()
    }

    /// Number of times the switching logic has been evaluated.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Total simulated time spent in SC mode from the start of the run to
    /// `end`, reconstructed from the switch history (the module starts in
    /// SC at time zero).  This is the RTAEval-style *conservatism* metric:
    /// how long the certified-but-conservative controller held command.
    pub fn time_in_sc(&self, end: Time) -> Duration {
        let mut total = Duration::ZERO;
        let mut mode = Mode::Sc;
        let mut since = Time::ZERO;
        for s in &self.switches {
            if mode == Mode::Sc {
                total = total + s.time.saturating_duration_since(since);
            }
            mode = s.to;
            since = s.time;
        }
        if mode == Mode::Sc {
            total = total + end.saturating_duration_since(since);
        }
        total
    }

    fn set_mode(&mut self, now: Time, new_mode: Mode, reason: SwitchReason) {
        if new_mode != self.mode {
            self.switches.push(SwitchEvent {
                time: now,
                from: self.mode,
                to: new_mode,
                reason,
            });
            self.mode = new_mode;
        }
    }
}

impl Node for DecisionModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        self.subscriptions.clone()
    }

    fn outputs(&self) -> Vec<TopicName> {
        // The DM publishes on no topic; it only drives the OE map.
        Vec::new()
    }

    fn period(&self) -> Duration {
        self.delta
    }

    fn step(&mut self, now: Time, inputs: &dyn TopicRead, _out: &mut TopicWriter<'_>) {
        self.evaluations += 1;
        let two_delta = self.delta * 2;
        match self.mode {
            Mode::Ac => {
                if let Some(reason) = ac_check(
                    self.filter,
                    &*self.oracle,
                    self.command_topic.as_ref(),
                    inputs,
                    two_delta,
                ) {
                    self.set_mode(now, Mode::Sc, reason);
                }
            }
            Mode::Sc => {
                // Every filter re-engages on the same φ_safer check.
                if self.oracle.is_safer(inputs) {
                    self.set_mode(now, Mode::Ac, SwitchReason::StateSafer);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.mode = Mode::Sc;
        self.switches.clear();
        self.evaluations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::test_support::LineOracle;
    use crate::topic::{TopicMap, Value};

    fn dm(bound: f64, safer: f64, speed: f64, delta_ms: u64) -> DecisionModule {
        DecisionModule::new(
            "dm",
            vec![TopicName::new("state")],
            Duration::from_millis(delta_ms),
            Arc::new(LineOracle {
                bound,
                safer_bound: safer,
                max_speed: speed,
            }),
        )
    }

    fn observe(x: f64) -> TopicMap {
        let mut m = TopicMap::new();
        m.insert("state", Value::Float(x));
        m
    }

    #[test]
    fn starts_in_sc_mode() {
        let d = dm(10.0, 5.0, 1.0, 100);
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(d.period(), Duration::from_millis(100));
        assert!(d.outputs().is_empty());
        assert_eq!(d.name(), "dm");
    }

    #[test]
    fn switches_to_ac_when_state_is_safer() {
        let mut d = dm(10.0, 5.0, 1.0, 100);
        d.step_to_map(Time::from_millis(100), &observe(2.0));
        assert_eq!(d.mode(), Mode::Ac);
        assert_eq!(d.reengagement_count(), 1);
        assert_eq!(d.disengagement_count(), 0);
    }

    #[test]
    fn stays_in_sc_when_not_yet_safer() {
        let mut d = dm(10.0, 5.0, 1.0, 100);
        d.step_to_map(Time::from_millis(100), &observe(7.0));
        assert_eq!(d.mode(), Mode::Sc, "7.0 is safe but not safer (bound 5)");
        assert!(d.switches().is_empty());
    }

    #[test]
    fn switches_to_sc_when_safety_may_be_violated_within_two_delta() {
        let mut d = dm(10.0, 5.0, 1.0, 1000);
        // Get into AC mode first.
        d.step_to_map(Time::from_millis(1000), &observe(0.0));
        assert_eq!(d.mode(), Mode::Ac);
        // At x = 9, with max speed 1 m/s and 2Δ = 2 s, the system can reach
        // 11 > 10, so the DM must disengage.
        d.step_to_map(Time::from_millis(2000), &observe(9.0));
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(d.disengagement_count(), 1);
        assert_eq!(d.switches().len(), 2);
        assert_eq!(d.switches()[1].from, Mode::Ac);
        assert_eq!(d.switches()[1].to, Mode::Sc);
        assert_eq!(d.switches()[1].time, Time::from_millis(2000));
    }

    #[test]
    fn stays_in_ac_when_two_delta_reach_is_safe() {
        let mut d = dm(10.0, 5.0, 1.0, 100);
        d.step_to_map(Time::from_millis(100), &observe(0.0));
        assert_eq!(d.mode(), Mode::Ac);
        // 2Δ = 0.2 s, so from x = 4 the system can reach at most 4.2 < 10.
        d.step_to_map(Time::from_millis(200), &observe(4.0));
        assert_eq!(d.mode(), Mode::Ac);
    }

    #[test]
    fn hysteresis_between_safer_and_switching_boundary() {
        // With bound 10, safer 5, speed 1, Δ = 1 s: the DM disengages when
        // x + 2 > 10 (x > 8) and re-engages only when x ≤ 5, so a state
        // x = 6.5 keeps whatever mode is current.
        let mut d = dm(10.0, 5.0, 1.0, 1000);
        d.step_to_map(Time::from_millis(1000), &observe(6.5));
        assert_eq!(d.mode(), Mode::Sc, "6.5 is not in φ_safer, stay in SC");
        d.step_to_map(Time::from_millis(2000), &observe(4.0));
        assert_eq!(d.mode(), Mode::Ac);
        d.step_to_map(Time::from_millis(3000), &observe(6.5));
        assert_eq!(
            d.mode(),
            Mode::Ac,
            "6.5 cannot escape within 2Δ, stay in AC"
        );
    }

    #[test]
    fn evaluation_counter_and_reset() {
        let mut d = dm(10.0, 5.0, 1.0, 100);
        d.step_to_map(Time::from_millis(100), &observe(0.0));
        d.step_to_map(Time::from_millis(200), &observe(9.9));
        assert_eq!(d.evaluations(), 2);
        assert!(!d.switches().is_empty());
        d.reset();
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(d.evaluations(), 0);
        assert!(d.switches().is_empty());
    }

    #[test]
    fn switch_events_carry_reasons() {
        let mut d = dm(10.0, 5.0, 1.0, 1000);
        d.step_to_map(Time::from_millis(1000), &observe(0.0));
        d.step_to_map(Time::from_millis(2000), &observe(9.0));
        let switches = d.switches();
        assert_eq!(switches[0].reason, SwitchReason::StateSafer);
        assert_eq!(switches[1].reason, SwitchReason::ReachUnsafe);
    }

    #[test]
    fn switch_reason_slugs_round_trip() {
        for r in [
            SwitchReason::ReachUnsafe,
            SwitchReason::CommandUnsafe,
            SwitchReason::StateUnsafe,
            SwitchReason::StateSafer,
        ] {
            assert_eq!(SwitchReason::from_slug(r.slug()), Some(r));
            assert_eq!(format!("{r}"), r.slug());
        }
        assert_eq!(SwitchReason::from_slug("bogus"), None);
    }

    fn implicit_dm(delta_ms: u64) -> DecisionModule {
        DecisionModule::new(
            "dm",
            vec![TopicName::new("state"), TopicName::new("command")],
            Duration::from_millis(delta_ms),
            Arc::new(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            }),
        )
        .with_filter(
            crate::rta::FilterKind::ImplicitSimplex,
            Some(TopicName::new("command")),
        )
    }

    fn observe_with_command(x: f64, v: f64) -> TopicMap {
        let mut m = observe(x);
        m.insert("command", Value::Float(v));
        m
    }

    #[test]
    fn implicit_filter_trusts_a_safe_proposed_command() {
        // Δ = 1 s: at x = 9 the worst case reaches 11 > 10, so the explicit
        // filter disengages — but the observed command is a full brake
        // (v = 0), under which the state stays at 9 and the implicit filter
        // keeps the AC engaged.
        let mut d = implicit_dm(1000);
        d.step_to_map(Time::from_millis(1000), &observe_with_command(0.0, 0.0));
        assert_eq!(d.mode(), Mode::Ac);
        d.step_to_map(Time::from_millis(2000), &observe_with_command(9.0, 0.0));
        assert_eq!(d.mode(), Mode::Ac, "command-conditional reach is safe");
        // An outward command at the same state does disengage, with the
        // command-specific reason.
        d.step_to_map(Time::from_millis(3000), &observe_with_command(9.0, 1.0));
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(
            d.switches().last().unwrap().reason,
            SwitchReason::CommandUnsafe
        );
    }

    #[test]
    fn implicit_filter_falls_back_to_worst_case_without_a_command() {
        let mut d = implicit_dm(1000);
        d.step_to_map(Time::from_millis(1000), &observe(0.0));
        assert_eq!(d.mode(), Mode::Ac);
        // No command on the bus: the implicit filter behaves exactly like
        // the explicit one and records the worst-case reason.
        d.step_to_map(Time::from_millis(2000), &observe(9.0));
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(
            d.switches().last().unwrap().reason,
            SwitchReason::ReachUnsafe
        );
    }

    #[test]
    fn asif_filter_only_disengages_when_state_leaves_safe() {
        let mut d = DecisionModule::new(
            "dm",
            vec![TopicName::new("state")],
            Duration::from_millis(1000),
            Arc::new(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            }),
        )
        .with_filter(
            crate::rta::FilterKind::Asif,
            Some(TopicName::new("command")),
        );
        d.step_to_map(Time::from_millis(1000), &observe(0.0));
        assert_eq!(d.mode(), Mode::Ac);
        // x = 9 would disengage the explicit filter (worst case 11 > 10)
        // but is still inside φ_safe, so ASIF stays engaged.
        d.step_to_map(Time::from_millis(2000), &observe(9.0));
        assert_eq!(d.mode(), Mode::Ac);
        // Only an actual φ_safe violation is a backstop disengage.
        d.step_to_map(Time::from_millis(3000), &observe(10.5));
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(
            d.switches().last().unwrap().reason,
            SwitchReason::StateUnsafe
        );
    }

    #[test]
    fn time_in_sc_integrates_the_switch_history() {
        let mut d = dm(10.0, 5.0, 1.0, 1000);
        // SC from 0 to 1 s, AC from 1 s to 3 s, SC from 3 s to the end.
        d.step_to_map(Time::from_millis(1000), &observe(0.0));
        assert_eq!(d.mode(), Mode::Ac);
        d.step_to_map(Time::from_millis(2000), &observe(4.0));
        d.step_to_map(Time::from_millis(3000), &observe(9.5));
        assert_eq!(d.mode(), Mode::Sc);
        assert_eq!(
            d.time_in_sc(Time::from_millis(5000)),
            Duration::from_millis(1000 + 2000)
        );
        // A run that never switches is all SC.
        let fresh = dm(10.0, 5.0, 1.0, 1000);
        assert_eq!(
            fresh.time_in_sc(Time::from_millis(400)),
            Duration::from_millis(400)
        );
    }

    #[test]
    fn missing_state_topic_keeps_sc_mode() {
        // With no state published the LineOracle reads x = 0, which is
        // safer, so the DM would engage AC; this test documents that the DM
        // itself has no special handling for missing topics — the oracle
        // decides.  (The drone-stack oracles treat missing state as unsafe.)
        let mut d = dm(10.0, 5.0, 1.0, 100);
        d.step_to_map(Time::from_millis(100), &TopicMap::new());
        assert_eq!(d.mode(), Mode::Ac);
    }
}
