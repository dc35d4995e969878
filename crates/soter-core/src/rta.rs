//! The RTA module: `(N_ac, N_sc, N_dm, Δ, φ_safe, φ_safer)`.
//!
//! An RTA module (Sec. III-B of the paper) wraps an untrusted advanced
//! controller node and a certified safe controller node behind a generated
//! decision module.  The safety specification — membership in `φ_safe`,
//! membership in `φ_safer`, and the `Reach(s, *, 2Δ) ⊄ φ_safe` check the
//! decision module evaluates — is provided through the [`SafetyOracle`]
//! trait, typically backed by the reachability engine of `soter-reach`.

use crate::dm::DecisionModule;
use crate::error::SoterError;
use crate::node::{Node, NodeInfo};
use crate::time::{Duration, Time};
use crate::topic::{TopicName, TopicRead, TopicWriter, Value};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which controller of an RTA module is currently in command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The advanced (untrusted, high-performance) controller.
    Ac,
    /// The safe (certified, conservative) controller.
    Sc,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Ac => f.write_str("AC"),
            Mode::Sc => f.write_str("SC"),
        }
    }
}

/// The safety-filter strategy compiled into an RTA module's decision logic.
///
/// SOTER's generated decision module is classic *switching Simplex*; the
/// wider runtime-assurance literature (RTAEval and the generalized-RTA
/// family) spans a zoo of filters that trade conservatism against
/// intervention frequency.  The kind is fixed at [`RtaModuleBuilder::build`] time
/// and changes both what the decision module checks every `Δ` and how the
/// advanced controller's output reaches the rest of the system:
///
/// * [`FilterKind::ExplicitSimplex`] — the paper's Fig. 9 logic, verbatim:
///   disengage when the worst-case reachable set over `2Δ` leaves `φ_safe`,
///   re-engage when the state is in `φ_safer`.
/// * [`FilterKind::ImplicitSimplex`] — instead of the worst-case reach over
///   *any* control, check the reachable set under the AC's most recently
///   *proposed command*; falls back to the explicit check when no command
///   has been observed yet.  Requires a command-aware oracle.
/// * [`FilterKind::Asif`] — an ASIF-style minimal-intervention filter: the
///   AC's command is *projected* (clipped along the command ray, by
///   deterministic bisection inside the oracle) to the nearest command whose
///   one-step successor stays in `φ_safer`; the decision module only
///   disengages as a backstop when the state itself leaves `φ_safe`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// Classic switching Simplex (the SOTER paper's generated DM).
    #[default]
    ExplicitSimplex,
    /// Simplex switching on the reach set of the AC's proposed command.
    ImplicitSimplex,
    /// Active-set-invariance-style minimal intervention (command clipping).
    Asif,
}

impl FilterKind {
    /// All filter kinds, in a stable presentation order.
    pub const ALL: [FilterKind; 3] = [
        FilterKind::ExplicitSimplex,
        FilterKind::ImplicitSimplex,
        FilterKind::Asif,
    ];

    /// A short lowercase identifier, stable across releases (used in
    /// scenario names, golden files and reports).
    pub fn slug(&self) -> &'static str {
        match self {
            FilterKind::ExplicitSimplex => "explicit",
            FilterKind::ImplicitSimplex => "implicit",
            FilterKind::Asif => "asif",
        }
    }

    /// Parses the identifier produced by [`FilterKind::slug`].
    pub fn from_slug(s: &str) -> Option<FilterKind> {
        FilterKind::ALL.into_iter().find(|k| k.slug() == s)
    }

    /// Returns `true` if this filter consults the oracle's command-level
    /// checks ([`SafetyOracle::command_may_leave_safe`] /
    /// [`SafetyOracle::project_command`]) and therefore requires
    /// [`SafetyOracle::supports_command_checks`].
    pub fn needs_command_checks(&self) -> bool {
        !matches!(self, FilterKind::ExplicitSimplex)
    }
}

impl fmt::Display for FilterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// The safety specification an RTA module protects.
///
/// The oracle answers the three questions the decision module asks every `Δ`
/// (Fig. 9 of the paper), phrased over the *observed* state — the valuation
/// of the topics the decision module subscribes to:
///
/// * is the current state inside `φ_safe`?
/// * is the current state inside the stronger region `φ_safer`?
/// * starting from the current state, can the system leave `φ_safe` within a
///   given horizon under *any* admissible control (`Reach(s, *, h) ⊄
///   φ_safe`)?
pub trait SafetyOracle: Send + Sync {
    /// Returns `true` if the observed state is inside `φ_safe`.
    fn is_safe(&self, observed: &dyn TopicRead) -> bool;

    /// Returns `true` if the observed state is inside `φ_safer ⊆ φ_safe`.
    fn is_safer(&self, observed: &dyn TopicRead) -> bool;

    /// Returns `true` if the system may leave `φ_safe` within `horizon`
    /// starting from the observed state, under any admissible control —
    /// i.e. the paper's `ttf_2Δ(s, φ_safe)` when `horizon = 2Δ`.
    fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool;

    /// Returns `true` if the oracle implements the command-level checks
    /// ([`SafetyOracle::command_may_leave_safe`] and
    /// [`SafetyOracle::project_command`]) that the implicit-Simplex and ASIF
    /// filters require.  The default is `false`: state-only oracles remain
    /// valid, and [`RtaModuleBuilder::build`] rejects command-level filters over
    /// them (wellformedness of the filter kind).
    fn supports_command_checks(&self) -> bool {
        false
    }

    /// Returns `true` if the system may leave `φ_safe` within `horizon`
    /// when it executes the *given proposed command* (instead of an
    /// arbitrary admissible control) from the observed state — the
    /// implicit-Simplex check.  The default conservatively falls back to
    /// the worst-case [`SafetyOracle::may_leave_safe_within`].
    fn command_may_leave_safe(
        &self,
        observed: &dyn TopicRead,
        command: &Value,
        horizon: Duration,
    ) -> bool {
        let _ = command;
        self.may_leave_safe_within(observed, horizon)
    }

    /// Projects a proposed command to the nearest admissible command whose
    /// successor over `horizon` stays inside `φ_safer` — the ASIF
    /// minimal-intervention step.  Returns `Some(clipped)` when the filter
    /// had to intervene (the clipped command replaces the proposal) and
    /// `None` when the proposal is already admissible and passes through
    /// unchanged.  The default never intervenes.
    fn project_command(
        &self,
        observed: &dyn TopicRead,
        proposed: &Value,
        horizon: Duration,
    ) -> Option<Value> {
        let _ = (observed, proposed, horizon);
        None
    }
}

/// The node wrapper implementing the ASIF minimal-intervention filter: it
/// runs the wrapped advanced controller against the live inputs, captures
/// the command the AC proposes, and publishes
/// [`SafetyOracle::project_command`]'s projection of it instead whenever the
/// oracle clips.  The wrapper keeps the AC's name, period and output topic,
/// so the compiled system is structurally identical to the unfiltered one;
/// its subscriptions are widened to the decision module's (the oracle may
/// need observations, e.g. peer positions, that the AC itself ignores).
struct AsifGate {
    inner: Box<dyn Node>,
    inner_name: String,
    oracle: Arc<dyn SafetyOracle>,
    subscriptions: Vec<TopicName>,
    outputs: Vec<TopicName>,
    horizon: Duration,
    clips: Arc<AtomicUsize>,
    scratch: Vec<(u32, Value)>,
}

impl Node for AsifGate {
    fn name(&self) -> &str {
        &self.inner_name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        self.subscriptions.clone()
    }

    fn outputs(&self) -> Vec<TopicName> {
        self.outputs.clone()
    }

    fn period(&self) -> Duration {
        self.inner.period()
    }

    fn step(&mut self, now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        self.scratch.clear();
        {
            let mut capture =
                TopicWriter::new(&self.inner_name, now, &self.outputs, &mut self.scratch);
            self.inner.step(now, inputs, &mut capture);
        }
        // Later writes win, exactly as in the executor's slot store.
        let Some((slot, proposed)) = self.scratch.last().cloned() else {
            return;
        };
        let topic = self.outputs[slot as usize].as_str();
        match self.oracle.project_command(inputs, &proposed, self.horizon) {
            Some(clipped) => {
                self.clips.fetch_add(1, Ordering::Relaxed);
                out.insert(topic, clipped);
            }
            None => out.insert(topic, proposed),
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.clips.store(0, Ordering::Relaxed);
    }
}

/// An RTA module: an advanced controller, a safe controller, the decision
/// period `Δ` and the safety oracle from which the decision module is
/// generated.
///
/// Constructed through [`RtaModule::builder`], which performs the structural
/// well-formedness checks (P1a and P1b) the SOTER compiler performs at
/// compile time.
pub struct RtaModule {
    name: String,
    ac: Box<dyn Node>,
    sc: Box<dyn Node>,
    delta: Duration,
    oracle: Arc<dyn SafetyOracle>,
    dm: DecisionModule,
    filter: FilterKind,
    command_topic: Option<TopicName>,
    asif_clips: Option<Arc<AtomicUsize>>,
}

impl fmt::Debug for RtaModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtaModule")
            .field("name", &self.name)
            .field("ac", &self.ac.name())
            .field("sc", &self.sc.name())
            .field("delta", &self.delta)
            .field("mode", &self.dm.mode())
            .finish()
    }
}

impl RtaModule {
    /// Starts building an RTA module with the given name.
    pub fn builder(name: impl Into<String>) -> RtaModuleBuilder {
        RtaModuleBuilder {
            name: name.into(),
            ac: None,
            sc: None,
            delta: None,
            oracle: None,
            dm_extra_subscriptions: Vec::new(),
            filter: FilterKind::default(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The decision period `Δ`.
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// The advanced controller node.
    pub fn ac(&self) -> &dyn Node {
        self.ac.as_ref()
    }

    /// Mutable access to the advanced controller node (the runtime steps it).
    pub fn ac_mut(&mut self) -> &mut dyn Node {
        self.ac.as_mut()
    }

    /// The safe controller node.
    pub fn sc(&self) -> &dyn Node {
        self.sc.as_ref()
    }

    /// Mutable access to the safe controller node.
    pub fn sc_mut(&mut self) -> &mut dyn Node {
        self.sc.as_mut()
    }

    /// The generated decision module.
    pub fn dm(&self) -> &DecisionModule {
        &self.dm
    }

    /// Mutable access to the generated decision module.
    pub fn dm_mut(&mut self) -> &mut DecisionModule {
        &mut self.dm
    }

    /// The module's safety oracle.
    pub fn oracle(&self) -> Arc<dyn SafetyOracle> {
        Arc::clone(&self.oracle)
    }

    /// The current mode of the module (which controller's outputs are
    /// enabled).
    pub fn mode(&self) -> Mode {
        self.dm.mode()
    }

    /// The safety-filter strategy this module was compiled with.
    pub fn filter(&self) -> FilterKind {
        self.filter
    }

    /// The module's single command topic, when the filter kind needed to
    /// identify one (`Some` for implicit Simplex and ASIF, `None` for the
    /// explicit filter).
    pub fn command_topic(&self) -> Option<TopicName> {
        self.command_topic.clone()
    }

    /// Total number of filter interventions so far: AC→SC disengagements by
    /// the decision module, plus (for the ASIF filter) commands clipped by
    /// the projection gate.
    pub fn interventions(&self) -> usize {
        let clips = self
            .asif_clips
            .as_ref()
            .map_or(0, |c| c.load(Ordering::Relaxed));
        self.dm.disengagement_count() + clips
    }

    /// Static descriptions of the three nodes of the module, in the order
    /// `(AC, SC, DM)`.
    pub fn node_infos(&self) -> (NodeInfo, NodeInfo, NodeInfo) {
        (self.ac.info(), self.sc.info(), self.dm.info())
    }

    /// The output topics of the module (`O(AC) = O(SC)` by P1b).
    pub fn outputs(&self) -> Vec<TopicName> {
        self.ac.outputs()
    }

    /// Names of the three nodes of this module.
    pub fn node_names(&self) -> Vec<String> {
        vec![
            self.ac.name().to_string(),
            self.sc.name().to_string(),
            self.dm.name().to_string(),
        ]
    }

    /// Resets the module to its initial configuration: both controllers
    /// reset and the decision module back to `SC` mode (the paper's initial
    /// configuration starts every module in `SC` mode).
    pub fn reset(&mut self) {
        self.ac.reset();
        self.sc.reset();
        self.dm.reset();
    }
}

/// Builder for [`RtaModule`].  `build` performs the structural
/// well-formedness checks the SOTER compiler performs on a module
/// declaration.
pub struct RtaModuleBuilder {
    name: String,
    ac: Option<Box<dyn Node>>,
    sc: Option<Box<dyn Node>>,
    delta: Option<Duration>,
    oracle: Option<Arc<dyn SafetyOracle>>,
    dm_extra_subscriptions: Vec<TopicName>,
    filter: FilterKind,
}

impl RtaModuleBuilder {
    /// Sets the advanced controller node.
    pub fn advanced(mut self, ac: impl Node + 'static) -> Self {
        self.ac = Some(Box::new(ac));
        self
    }

    /// Sets the advanced controller node from an existing box.
    pub fn advanced_boxed(mut self, ac: Box<dyn Node>) -> Self {
        self.ac = Some(ac);
        self
    }

    /// Sets the safe controller node.
    pub fn safe(mut self, sc: impl Node + 'static) -> Self {
        self.sc = Some(Box::new(sc));
        self
    }

    /// Sets the decision period `Δ`.
    pub fn delta(mut self, delta: Duration) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Sets the safety oracle (φ_safe, φ_safer and the reachability check).
    pub fn oracle(mut self, oracle: impl SafetyOracle + 'static) -> Self {
        self.oracle = Some(Arc::new(oracle));
        self
    }

    /// Selects the safety-filter strategy the module is compiled with
    /// (default [`FilterKind::ExplicitSimplex`], the paper's generated DM).
    pub fn filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }

    /// Declares additional topics the generated decision module subscribes
    /// to beyond `I(AC) ∪ I(SC)` — the paper only requires
    /// `I(AC) ∪ I(SC) ⊆ I(DM)`, and oracles often need extra observations
    /// (e.g. the battery-safety DM reads the battery topic, the planner DM
    /// reads the plan its own controllers publish).
    pub fn dm_subscribes<I, S>(mut self, topics: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<TopicName>,
    {
        self.dm_extra_subscriptions = topics.into_iter().map(Into::into).collect();
        self
    }

    /// Builds the module, generating its decision module and checking the
    /// structural well-formedness conditions.
    ///
    /// # Errors
    ///
    /// Returns [`SoterError::IllFormedModule`] if a component is missing, if
    /// P1a is violated (`δ(AC) ≤ Δ`, `δ(SC) ≤ Δ`, `Δ > 0`), if P1b is
    /// violated (`O(AC) = O(SC)`), or if the selected [`FilterKind`] is not
    /// wellformed over this module (see
    /// [`crate::wellformed::check_filter_structure`]).
    pub fn build(self) -> Result<RtaModule, SoterError> {
        let ill = |reason: &str| SoterError::IllFormedModule {
            module: self.name.clone(),
            reason: reason.to_string(),
        };
        let ac = self
            .ac
            .ok_or_else(|| ill("missing advanced controller node"))?;
        let sc = self.sc.ok_or_else(|| ill("missing safe controller node"))?;
        let delta = self.delta.ok_or_else(|| ill("missing decision period Δ"))?;
        let oracle = self.oracle.ok_or_else(|| ill("missing safety oracle"))?;
        let mk_err = |reason: String| SoterError::IllFormedModule {
            module: self.name.clone(),
            reason,
        };
        if delta.is_zero() {
            return Err(mk_err("decision period Δ must be positive (P1a)".into()));
        }
        // P1a: δ(AC) ≤ Δ and δ(SC) ≤ Δ.
        if ac.period() > delta {
            return Err(mk_err(format!(
                "P1a violated: δ(AC) = {} exceeds Δ = {}",
                ac.period(),
                delta
            )));
        }
        if sc.period() > delta {
            return Err(mk_err(format!(
                "P1a violated: δ(SC) = {} exceeds Δ = {}",
                sc.period(),
                delta
            )));
        }
        // P1b: O(AC) = O(SC) (as sets).
        let mut ac_out = ac.outputs();
        let mut sc_out = sc.outputs();
        ac_out.sort();
        sc_out.sort();
        if ac_out != sc_out {
            return Err(mk_err(format!(
                "P1b violated: O(AC) = {ac_out:?} differs from O(SC) = {sc_out:?}"
            )));
        }
        // Per-kind filter wellformedness: command-level filters need a
        // command-aware oracle and a single, identifiable command topic.
        if let crate::wellformed::CheckOutcome::Failed { reason } =
            crate::wellformed::check_filter_structure(self.filter, oracle.as_ref(), &ac_out)
        {
            return Err(mk_err(reason));
        }
        let command_topic = if self.filter.needs_command_checks() {
            Some(ac_out[0].clone())
        } else {
            None
        };
        // The DM subscribes to the union of the controllers' subscriptions
        // (I(AC) ∪ I(SC) ⊆ I(DM)).
        let mut dm_subs: Vec<TopicName> = ac.subscriptions();
        for s in sc
            .subscriptions()
            .into_iter()
            .chain(self.dm_extra_subscriptions.iter().cloned())
        {
            if !dm_subs.contains(&s) {
                dm_subs.push(s);
            }
        }
        // The implicit filter's DM reads the module's own command topic —
        // the most recent AC/SC output visible on the bus — in addition to
        // the state topics (same pattern as the planner DM reading the
        // published motion plan).
        if self.filter == FilterKind::ImplicitSimplex {
            if let Some(cmd) = &command_topic {
                if !dm_subs.contains(cmd) {
                    dm_subs.push(cmd.clone());
                }
            }
        }
        let dm = DecisionModule::new(
            format!("{}_dm", self.name),
            dm_subs,
            delta,
            Arc::clone(&oracle),
        )
        .with_filter(self.filter, command_topic.clone());
        // The ASIF filter interposes the projection gate between the AC and
        // the bus; the gate inherits the DM's widened subscription set so
        // the oracle sees the same observations in both places.
        let (ac, asif_clips) = if self.filter == FilterKind::Asif {
            let clips = Arc::new(AtomicUsize::new(0));
            let mut gate_subs = ac.subscriptions();
            for s in dm.subscriptions() {
                if !gate_subs.contains(&s) && !ac_out.contains(&s) {
                    gate_subs.push(s);
                }
            }
            let gate = AsifGate {
                inner_name: ac.name().to_string(),
                outputs: ac.outputs(),
                inner: ac,
                oracle: Arc::clone(&oracle),
                subscriptions: gate_subs,
                horizon: delta,
                clips: Arc::clone(&clips),
                scratch: Vec::new(),
            };
            (Box::new(gate) as Box<dyn Node>, Some(clips))
        } else {
            (ac, None)
        };
        Ok(RtaModule {
            name: self.name,
            ac,
            sc,
            delta,
            oracle,
            dm,
            filter: self.filter,
            command_topic,
            asif_clips,
        })
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for the core crate's unit tests: a one-dimensional
    //! "position on a line" system whose safety region is an interval.

    use super::*;
    use crate::node::FnNode;
    use crate::topic::Value;

    /// Oracle over a 1-D position published on the `state` topic:
    /// `φ_safe = |x| ≤ bound`, `φ_safer = |x| ≤ safer_bound`, and the
    /// reachability check assumes a maximum speed of `max_speed`.
    #[derive(Debug, Clone)]
    pub struct LineOracle {
        pub bound: f64,
        pub safer_bound: f64,
        pub max_speed: f64,
    }

    impl LineOracle {
        fn position(observed: &dyn TopicRead) -> f64 {
            observed
                .get("state")
                .and_then(Value::as_float)
                .unwrap_or(0.0)
        }
    }

    impl SafetyOracle for LineOracle {
        fn is_safe(&self, observed: &dyn TopicRead) -> bool {
            Self::position(observed).abs() <= self.bound
        }

        fn is_safer(&self, observed: &dyn TopicRead) -> bool {
            Self::position(observed).abs() <= self.safer_bound
        }

        fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool {
            let x = Self::position(observed);
            x.abs() + self.max_speed * horizon.as_secs_f64() > self.bound
        }

        fn supports_command_checks(&self) -> bool {
            true
        }

        fn command_may_leave_safe(
            &self,
            observed: &dyn TopicRead,
            command: &Value,
            horizon: Duration,
        ) -> bool {
            // The command is a signed velocity; under it the position moves
            // deterministically, unlike the worst-case |v| = max_speed.
            let x = Self::position(observed);
            let v = command.as_float().unwrap_or(self.max_speed);
            (x + v * horizon.as_secs_f64()).abs() > self.bound
        }

        fn project_command(
            &self,
            observed: &dyn TopicRead,
            proposed: &Value,
            horizon: Duration,
        ) -> Option<Value> {
            let x = Self::position(observed);
            let v = proposed.as_float()?;
            let h = horizon.as_secs_f64();
            let safer = |vel: f64| (x + vel * h).abs() <= self.safer_bound;
            if safer(v) {
                return None;
            }
            if !safer(0.0) {
                // Even braking fully cannot reach φ_safer: the minimal
                // intervention is to stop pushing.
                return Some(Value::Float(0.0));
            }
            // Deterministic bisection along the command ray t·v, t ∈ [0, 1].
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if safer(mid * v) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some(Value::Float(lo * v))
        }
    }

    /// An "advanced controller" that always pushes outward at full speed.
    pub fn aggressive_node(period: Duration) -> FnNode {
        FnNode::builder("line_ac")
            .subscribes(["state"])
            .publishes(["command"])
            .period(period)
            .step(|_, _, out| {
                out.insert("command", Value::Float(1.0));
            })
            .build()
    }

    /// A "safe controller" that always pushes back toward the origin.
    pub fn conservative_node(period: Duration) -> FnNode {
        FnNode::builder("line_sc")
            .subscribes(["state"])
            .publishes(["command"])
            .period(period)
            .step(|_, inputs, out| {
                let x = inputs.get("state").and_then(Value::as_float).unwrap_or(0.0);
                out.insert("command", Value::Float(if x > 0.0 { -1.0 } else { 1.0 }));
            })
            .build()
    }

    /// A well-formed line-follower RTA module used across the core tests.
    pub fn line_module(delta_ms: u64) -> RtaModule {
        line_module_with_filter(delta_ms, FilterKind::ExplicitSimplex)
    }

    /// The line-follower module compiled with a specific safety filter.
    pub fn line_module_with_filter(delta_ms: u64, filter: FilterKind) -> RtaModule {
        RtaModule::builder("line")
            .advanced(aggressive_node(Duration::from_millis(delta_ms)))
            .safe(conservative_node(Duration::from_millis(delta_ms)))
            .delta(Duration::from_millis(delta_ms))
            .oracle(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            })
            .filter(filter)
            .build()
            .expect("line module is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::node::FnNode;
    use crate::topic::{TopicMap, Value};

    #[test]
    fn mode_display() {
        assert_eq!(format!("{}", Mode::Ac), "AC");
        assert_eq!(format!("{}", Mode::Sc), "SC");
    }

    #[test]
    fn well_formed_module_builds() {
        let module = line_module(100);
        assert_eq!(module.name(), "line");
        assert_eq!(module.delta(), Duration::from_millis(100));
        assert_eq!(module.mode(), Mode::Sc, "modules start in SC mode");
        assert_eq!(module.outputs(), vec![TopicName::new("command")]);
        assert_eq!(module.node_names(), vec!["line_ac", "line_sc", "line_dm"]);
        let dbg = format!("{module:?}");
        assert!(dbg.contains("line_ac") && dbg.contains("line_sc"));
    }

    #[test]
    fn dm_subscribes_to_union_of_controller_inputs() {
        let ac = FnNode::builder("ac")
            .subscribes(["state", "target"])
            .publishes(["command"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        let sc = FnNode::builder("sc")
            .subscribes(["state", "extra"])
            .publishes(["command"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        let module = RtaModule::builder("m")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(20))
            .oracle(LineOracle {
                bound: 1.0,
                safer_bound: 0.5,
                max_speed: 1.0,
            })
            .build()
            .unwrap();
        let subs = module.dm().subscriptions();
        for t in ["state", "target", "extra"] {
            assert!(
                subs.contains(&TopicName::new(t)),
                "DM must subscribe to {t}"
            );
        }
        // The DM publishes on no topic.
        assert!(module.dm().outputs().is_empty());
    }

    #[test]
    fn p1a_violation_is_rejected() {
        let ac = aggressive_node(Duration::from_millis(200));
        let sc = conservative_node(Duration::from_millis(50));
        let err = RtaModule::builder("m")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(LineOracle {
                bound: 1.0,
                safer_bound: 0.5,
                max_speed: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("P1a"));
    }

    #[test]
    fn p1b_violation_is_rejected() {
        let ac = FnNode::builder("ac")
            .publishes(["command"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        let sc = FnNode::builder("sc")
            .publishes(["other"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        let err = RtaModule::builder("m")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(LineOracle {
                bound: 1.0,
                safer_bound: 0.5,
                max_speed: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("P1b"));
    }

    #[test]
    fn missing_components_are_rejected() {
        let err = RtaModule::builder("m").build().unwrap_err();
        assert!(format!("{err}").contains("missing"));
        let err = RtaModule::builder("m")
            .advanced(aggressive_node(Duration::from_millis(10)))
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("missing"));
    }

    #[test]
    fn zero_delta_is_rejected() {
        let err = RtaModule::builder("m")
            .advanced(aggressive_node(Duration::from_millis(10)))
            .safe(conservative_node(Duration::from_millis(10)))
            .delta(Duration::ZERO)
            .oracle(LineOracle {
                bound: 1.0,
                safer_bound: 0.5,
                max_speed: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("Δ"));
    }

    #[test]
    fn reset_returns_module_to_sc_mode() {
        let mut module = line_module(100);
        // Drive the DM into AC mode by observing a very safe state.
        let mut observed = TopicMap::new();
        observed.insert("state", Value::Float(0.0));
        module
            .dm_mut()
            .step_to_map(crate::time::Time::ZERO, &observed);
        assert_eq!(module.mode(), Mode::Ac);
        module.reset();
        assert_eq!(module.mode(), Mode::Sc);
    }

    #[test]
    fn filter_slugs_round_trip() {
        for kind in FilterKind::ALL {
            assert_eq!(FilterKind::from_slug(kind.slug()), Some(kind));
            assert_eq!(format!("{kind}"), kind.slug());
        }
        assert_eq!(FilterKind::from_slug("bogus"), None);
        assert_eq!(FilterKind::default(), FilterKind::ExplicitSimplex);
        assert!(!FilterKind::ExplicitSimplex.needs_command_checks());
        assert!(FilterKind::ImplicitSimplex.needs_command_checks());
        assert!(FilterKind::Asif.needs_command_checks());
    }

    #[test]
    fn explicit_module_has_no_command_topic() {
        let module = line_module(100);
        assert_eq!(module.filter(), FilterKind::ExplicitSimplex);
        assert_eq!(module.command_topic(), None);
        assert_eq!(module.interventions(), 0);
    }

    #[test]
    fn implicit_module_subscribes_dm_to_command_topic() {
        let module = line_module_with_filter(100, FilterKind::ImplicitSimplex);
        assert_eq!(module.filter(), FilterKind::ImplicitSimplex);
        assert_eq!(module.command_topic(), Some(TopicName::new("command")));
        assert!(
            module
                .dm()
                .subscriptions()
                .contains(&TopicName::new("command")),
            "implicit DM must observe the module's own command topic"
        );
    }

    #[test]
    fn command_filters_reject_state_only_oracles() {
        /// A copy of the line oracle that does NOT implement the
        /// command-level checks.
        struct StateOnly;
        impl SafetyOracle for StateOnly {
            fn is_safe(&self, _: &dyn TopicRead) -> bool {
                true
            }
            fn is_safer(&self, _: &dyn TopicRead) -> bool {
                true
            }
            fn may_leave_safe_within(&self, _: &dyn TopicRead, _: Duration) -> bool {
                false
            }
        }
        for filter in [FilterKind::ImplicitSimplex, FilterKind::Asif] {
            let err = RtaModule::builder("m")
                .advanced(aggressive_node(Duration::from_millis(10)))
                .safe(conservative_node(Duration::from_millis(10)))
                .delta(Duration::from_millis(100))
                .oracle(StateOnly)
                .filter(filter)
                .build()
                .unwrap_err();
            assert!(
                format!("{err}").contains("command-aware"),
                "{filter} must demand a command-aware oracle"
            );
        }
    }

    #[test]
    fn asif_gate_clips_unsafe_commands_and_counts_interventions() {
        let mut module = line_module_with_filter(100, FilterKind::Asif);
        assert_eq!(module.filter(), FilterKind::Asif);
        // Deep inside φ_safer the aggressive command passes through
        // unchanged and nothing is counted.
        let mut observed = TopicMap::new();
        observed.insert("state", Value::Float(0.0));
        let out = module
            .ac_mut()
            .step_to_map(crate::time::Time::ZERO, &observed);
        assert_eq!(out.get("command"), Some(&Value::Float(1.0)));
        assert_eq!(module.interventions(), 0);
        // Close to the φ_safer boundary (Δ = 0.1 s, safer bound 5): the
        // proposed outward push is clipped along its ray.
        observed.insert("state", Value::Float(4.95));
        let out = module
            .ac_mut()
            .step_to_map(crate::time::Time::ZERO, &observed);
        let clipped = out.get("command").and_then(Value::as_float).unwrap();
        assert!(
            (0.0..1.0).contains(&clipped),
            "command must be clipped toward the brake, got {clipped}"
        );
        assert!(
            (4.95 + clipped * 0.1) <= 5.0 + 1e-6,
            "clipped successor must stay in φ_safer"
        );
        assert_eq!(module.interventions(), 1);
        // The gate keeps the AC's structural identity.
        assert_eq!(module.ac().name(), "line_ac");
        assert_eq!(module.outputs(), vec![TopicName::new("command")]);
        // Reset clears the clip counter.
        module.reset();
        assert_eq!(module.interventions(), 0);
    }

    #[test]
    fn oracle_is_shared_with_dm() {
        let module = line_module(100);
        let oracle = module.oracle();
        let mut observed = TopicMap::new();
        observed.insert("state", Value::Float(20.0));
        assert!(!oracle.is_safe(&observed));
        observed.insert("state", Value::Float(2.0));
        assert!(oracle.is_safe(&observed) && oracle.is_safer(&observed));
    }
}
