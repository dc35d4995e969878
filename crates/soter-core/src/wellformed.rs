//! Well-formedness conditions of an RTA module (Sec. III-C).
//!
//! A module `(N_ac, N_sc, N_dm, Δ, φ_safe, φ_safer)` is *well-formed* when:
//!
//! * **P1a** — `δ(N_dm) = Δ`, `δ(N_ac) ≤ Δ`, `δ(N_sc) ≤ Δ`;
//! * **P1b** — `O(N_ac) = O(N_sc)`;
//! * **P2a** (safety of SC) — `Reach(φ_safe, N_sc, ∞) ⊆ φ_safe`;
//! * **P2b** (liveness of SC) — from every state in `φ_safe`, after some
//!   finite time the system stays in `φ_safer` for at least `Δ`;
//! * **P3** — `Reach(φ_safer, *, 2Δ) ⊆ φ_safe`.
//!
//! P1a/P1b are structural and checked by [`crate::rta::RtaModuleBuilder`].
//! P2a, P2b and P3 are semantic statements about the closed-loop plant; the
//! paper discharges them with control-theoretic tools (FaSTrack, the
//! Level-Set Toolbox).  Here they are discharged by *sampling-based
//! falsification* over a [`PlantAbstraction`] — a deterministic simulator of
//! the plant under the safe controller plus a conservative "any control"
//! reachability bound — which is exactly the evidence the reproduction's
//! drone stack provides via `soter-reach`.  A failed check is a definite
//! counterexample; a passed check is evidence up to the sampling density
//! (recorded in the report).

use crate::rta::{FilterKind, RtaModule, SafetyOracle};
use crate::topic::TopicName;
use std::fmt;

/// Per-[`FilterKind`] structural wellformedness, checked at
/// [`crate::rta::RtaModuleBuilder::build`] time alongside P1a/P1b:
///
/// * **explicit Simplex** — no extra requirement; any state-only
///   [`SafetyOracle`] suffices.
/// * **implicit Simplex** — the oracle must implement the command-level
///   reach check ([`SafetyOracle::supports_command_checks`]) and the module
///   must publish exactly one command topic, so the DM knows which observed
///   value is "the AC's proposed command".
/// * **ASIF** — same two requirements: the projection gate clips the single
///   command topic through [`SafetyOracle::project_command`].
///
/// `outputs` is the module's output topic set (`O(AC) = O(SC)` by P1b).
pub fn check_filter_structure(
    filter: FilterKind,
    oracle: &dyn SafetyOracle,
    outputs: &[TopicName],
) -> CheckOutcome {
    if !filter.needs_command_checks() {
        return CheckOutcome::Passed {
            evidence: format!("filter `{filter}` places no requirement beyond P1a/P1b"),
        };
    }
    if !oracle.supports_command_checks() {
        return CheckOutcome::Failed {
            reason: format!(
                "filter `{filter}` requires a command-aware oracle \
                 (SafetyOracle::supports_command_checks)"
            ),
        };
    }
    if outputs.len() != 1 {
        return CheckOutcome::Failed {
            reason: format!(
                "filter `{filter}` requires exactly one command topic, \
                 module publishes {}: {outputs:?}",
                outputs.len()
            ),
        };
    }
    CheckOutcome::Passed {
        evidence: format!(
            "filter `{filter}`: command-aware oracle over single command topic `{}`",
            outputs[0]
        ),
    }
}

/// The outcome of one well-formedness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The check passed.
    Passed {
        /// Description of the evidence (e.g. number of samples).
        evidence: String,
    },
    /// The check failed with a counterexample or structural reason.
    Failed {
        /// Description of the counterexample.
        reason: String,
    },
    /// The check was not performed.
    Skipped,
}

impl CheckOutcome {
    /// Returns `true` if the check passed.
    pub fn passed(&self) -> bool {
        matches!(self, CheckOutcome::Passed { .. })
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckOutcome::Passed { evidence } => write!(f, "passed ({evidence})"),
            CheckOutcome::Failed { reason } => write!(f, "FAILED: {reason}"),
            CheckOutcome::Skipped => f.write_str("skipped"),
        }
    }
}

/// The full well-formedness report of an RTA module.
#[derive(Debug, Clone, PartialEq)]
pub struct WellFormedness {
    /// Name of the module the report refers to.
    pub module: String,
    /// P1a: period relationships.
    pub p1a_periods: CheckOutcome,
    /// P1b: identical output topic sets.
    pub p1b_outputs: CheckOutcome,
    /// P2a: the safe controller keeps `φ_safe` invariant.
    pub p2a_sc_safety: CheckOutcome,
    /// P2b: the safe controller eventually reaches and holds `φ_safer`.
    pub p2b_sc_liveness: CheckOutcome,
    /// P3: from `φ_safer`, any controller stays in `φ_safe` for `2Δ`.
    pub p3_safer_containment: CheckOutcome,
}

impl WellFormedness {
    /// Returns `true` if every performed check passed (skipped checks do not
    /// count as failures, mirroring the paper's treatment of P2b, which is
    /// not needed for Theorem 3.1).
    pub fn is_well_formed(&self) -> bool {
        !matches!(self.p1a_periods, CheckOutcome::Failed { .. })
            && !matches!(self.p1b_outputs, CheckOutcome::Failed { .. })
            && !matches!(self.p2a_sc_safety, CheckOutcome::Failed { .. })
            && !matches!(self.p2b_sc_liveness, CheckOutcome::Failed { .. })
            && !matches!(self.p3_safer_containment, CheckOutcome::Failed { .. })
    }
}

impl fmt::Display for WellFormedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "well-formedness of `{}`:", self.module)?;
        writeln!(f, "  P1a (periods):          {}", self.p1a_periods)?;
        writeln!(f, "  P1b (outputs):          {}", self.p1b_outputs)?;
        writeln!(f, "  P2a (SC safety):        {}", self.p2a_sc_safety)?;
        writeln!(f, "  P2b (SC liveness):      {}", self.p2b_sc_liveness)?;
        write!(
            f,
            "  P3  (φ_safer ⇒ 2Δ safe): {}",
            self.p3_safer_containment
        )
    }
}

/// A sampled abstraction of the plant under the module's controllers, used
/// to discharge P2a, P2b and P3 by simulation.
///
/// Implementations must be deterministic for a given seed so failures are
/// reproducible.
pub trait PlantAbstraction {
    /// The plant state type.
    type State: Clone + fmt::Debug;

    /// Samples `n` states from `φ_safe` (the sampling should cover the
    /// region, including points near its boundary).
    fn sample_safe(&self, n: usize, seed: u64) -> Vec<Self::State>;

    /// Samples `n` states from `φ_safer`.
    fn sample_safer(&self, n: usize, seed: u64) -> Vec<Self::State>;

    /// Returns `true` if the state is in `φ_safe`.
    fn is_safe(&self, state: &Self::State) -> bool;

    /// Returns `true` if the state is in `φ_safer`.
    fn is_safer(&self, state: &Self::State) -> bool;

    /// Simulates the closed-loop plant under the *safe controller* for
    /// `duration` seconds, returning the visited states (including the
    /// initial and final state).
    fn evolve_under_sc(&self, state: &Self::State, duration: f64) -> Vec<Self::State>;

    /// Conservative check: can the plant leave `φ_safe` within `horizon`
    /// seconds starting from `state` under *any* admissible control?
    fn may_leave_safe_any_control(&self, state: &Self::State, horizon: f64) -> bool;
}

/// Parameters of the sampling-based well-formedness checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Number of states sampled per check.
    pub samples: usize,
    /// RNG seed forwarded to the plant abstraction's samplers.
    pub seed: u64,
    /// Horizon (seconds) over which P2a simulates the safe controller; a
    /// stand-in for the `∞` in `Reach(φ_safe, N_sc, ∞)`.
    pub sc_horizon: f64,
    /// Time budget (seconds) within which P2b requires the safe controller
    /// to reach a state that stays in `φ_safer` for `Δ`.
    pub liveness_budget: f64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            samples: 64,
            seed: 0,
            sc_horizon: 30.0,
            liveness_budget: 60.0,
        }
    }
}

/// Checks P2a over a plant abstraction: from every sampled `φ_safe` state,
/// the closed loop under the safe controller never leaves `φ_safe`.
pub fn check_p2a<P: PlantAbstraction>(plant: &P, cfg: &SamplingConfig) -> CheckOutcome {
    let states = plant.sample_safe(cfg.samples, cfg.seed);
    if states.is_empty() {
        return CheckOutcome::Failed {
            reason: "plant abstraction produced no φ_safe samples".into(),
        };
    }
    for (i, s) in states.iter().enumerate() {
        let trace = plant.evolve_under_sc(s, cfg.sc_horizon);
        if let Some(bad) = trace.iter().find(|t| !plant.is_safe(t)) {
            return CheckOutcome::Failed {
                reason: format!(
                    "P2a counterexample from sample #{i} {s:?}: SC-controlled trajectory reached unsafe state {bad:?}"
                ),
            };
        }
    }
    CheckOutcome::Passed {
        evidence: format!(
            "{} φ_safe samples, SC horizon {}s",
            states.len(),
            cfg.sc_horizon
        ),
    }
}

/// Checks P2b over a plant abstraction: from every sampled `φ_safe` state,
/// the safe controller reaches, within the liveness budget, a state from
/// which it remains in `φ_safer` for at least `Δ`.
pub fn check_p2b<P: PlantAbstraction>(
    plant: &P,
    cfg: &SamplingConfig,
    delta_secs: f64,
) -> CheckOutcome {
    let states = plant.sample_safe(cfg.samples, cfg.seed.wrapping_add(1));
    if states.is_empty() {
        return CheckOutcome::Failed {
            reason: "plant abstraction produced no φ_safe samples".into(),
        };
    }
    for (i, s) in states.iter().enumerate() {
        let trace = plant.evolve_under_sc(s, cfg.liveness_budget);
        let recovered = trace.iter().any(|mid| {
            plant.is_safer(mid)
                && plant
                    .evolve_under_sc(mid, delta_secs)
                    .iter()
                    .all(|t| plant.is_safer(t))
        });
        if !recovered {
            return CheckOutcome::Failed {
                reason: format!(
                    "P2b counterexample from sample #{i} {s:?}: SC did not reach a state holding φ_safer for Δ={delta_secs}s within {}s",
                    cfg.liveness_budget
                ),
            };
        }
    }
    CheckOutcome::Passed {
        evidence: format!(
            "{} φ_safe samples recover into φ_safer within {}s",
            states.len(),
            cfg.liveness_budget
        ),
    }
}

/// Checks P3 over a plant abstraction: from every sampled `φ_safer` state,
/// no admissible control can leave `φ_safe` within `2Δ`.
pub fn check_p3<P: PlantAbstraction>(
    plant: &P,
    cfg: &SamplingConfig,
    delta_secs: f64,
) -> CheckOutcome {
    let states = plant.sample_safer(cfg.samples, cfg.seed.wrapping_add(2));
    if states.is_empty() {
        return CheckOutcome::Failed {
            reason: "plant abstraction produced no φ_safer samples".into(),
        };
    }
    for (i, s) in states.iter().enumerate() {
        if !plant.is_safer(s) {
            return CheckOutcome::Failed {
                reason: format!("sampler returned state #{i} {s:?} outside φ_safer"),
            };
        }
        if plant.may_leave_safe_any_control(s, 2.0 * delta_secs) {
            return CheckOutcome::Failed {
                reason: format!(
                    "P3 counterexample from sample #{i} {s:?}: some control can leave φ_safe within 2Δ = {}s",
                    2.0 * delta_secs
                ),
            };
        }
    }
    CheckOutcome::Passed {
        evidence: format!(
            "{} φ_safer samples contained for 2Δ = {}s",
            states.len(),
            2.0 * delta_secs
        ),
    }
}

/// Runs the full well-formedness analysis of a module against a plant
/// abstraction.  P1a/P1b are re-validated structurally (they already held at
/// build time), and P2a/P2b/P3 are discharged by sampling.
///
/// ```
/// use soter_core::prelude::*;
/// use soter_core::wellformed::check_module;
///
/// // A 1-D plant: φ_safe = |x| ≤ 10, φ_safer = |x| ≤ 5, speeds ≤ 1 m/s,
/// // and a safe controller that drives x toward 0.
/// struct LinePlant;
/// impl PlantAbstraction for LinePlant {
///     type State = f64;
///     fn sample_safe(&self, n: usize, _seed: u64) -> Vec<f64> {
///         (0..n).map(|i| -10.0 + 20.0 * i as f64 / (n.max(2) - 1) as f64).collect()
///     }
///     fn sample_safer(&self, n: usize, _seed: u64) -> Vec<f64> {
///         (0..n).map(|i| -5.0 + 10.0 * i as f64 / (n.max(2) - 1) as f64).collect()
///     }
///     fn is_safe(&self, x: &f64) -> bool { x.abs() <= 10.0 }
///     fn is_safer(&self, x: &f64) -> bool { x.abs() <= 5.0 }
///     fn evolve_under_sc(&self, x: &f64, duration: f64) -> Vec<f64> {
///         let (mut x, mut t, mut states) = (*x, 0.0, vec![*x]);
///         while t < duration {
///             x -= x.signum() * x.abs().min(0.1); // 1 m/s toward 0, 100 ms steps
///             t += 0.1;
///             states.push(x);
///         }
///         states
///     }
///     fn may_leave_safe_any_control(&self, x: &f64, horizon: f64) -> bool {
///         x.abs() + horizon > 10.0 // worst case: 1 m/s straight outward
///     }
/// }
/// # struct LineOracle;
/// # impl SafetyOracle for LineOracle {
/// #     fn is_safe(&self, o: &dyn TopicRead) -> bool {
/// #         o.get("state").and_then(Value::as_float).map(|x| x.abs() <= 10.0).unwrap_or(false)
/// #     }
/// #     fn is_safer(&self, o: &dyn TopicRead) -> bool {
/// #         o.get("state").and_then(Value::as_float).map(|x| x.abs() <= 5.0).unwrap_or(false)
/// #     }
/// #     fn may_leave_safe_within(&self, o: &dyn TopicRead, h: Duration) -> bool {
/// #         o.get("state").and_then(Value::as_float).map(|x| x.abs() + h.as_secs_f64() > 10.0).unwrap_or(true)
/// #     }
/// # }
/// # let node = |name: &str| FnNode::builder(name).subscribes(["state"]).publishes(["cmd"])
/// #     .period(Duration::from_millis(100)).step(|_, _, _| {}).build();
/// # let module = RtaModule::builder("line").advanced(node("ac")).safe(node("sc"))
/// #     .delta(Duration::from_millis(100)).oracle(LineOracle).build().unwrap();
///
/// let report = check_module(&module, &LinePlant, &SamplingConfig::default());
/// assert!(report.is_well_formed(), "{report}");
/// ```
pub fn check_module<P: PlantAbstraction>(
    module: &RtaModule,
    plant: &P,
    cfg: &SamplingConfig,
) -> WellFormedness {
    let delta = module.delta();
    let (ac, sc, dm) = module.node_infos();
    let p1a = if dm.period == delta && ac.period <= delta && sc.period <= delta {
        CheckOutcome::Passed {
            evidence: format!(
                "δ(DM)={}, δ(AC)={}, δ(SC)={}",
                dm.period, ac.period, sc.period
            ),
        }
    } else {
        CheckOutcome::Failed {
            reason: format!(
                "period mismatch: Δ={}, δ(DM)={}, δ(AC)={}, δ(SC)={}",
                delta, dm.period, ac.period, sc.period
            ),
        }
    };
    let mut ac_out = ac.outputs.clone();
    let mut sc_out = sc.outputs.clone();
    ac_out.sort();
    sc_out.sort();
    let p1b = if ac_out == sc_out {
        CheckOutcome::Passed {
            evidence: format!("O(AC) = O(SC) = {ac_out:?}"),
        }
    } else {
        CheckOutcome::Failed {
            reason: format!("O(AC) = {ac_out:?} ≠ O(SC) = {sc_out:?}"),
        }
    };
    let delta_secs = delta.as_secs_f64();
    WellFormedness {
        module: module.name().to_string(),
        p1a_periods: p1a,
        p1b_outputs: p1b,
        p2a_sc_safety: check_p2a(plant, cfg),
        p2b_sc_liveness: check_p2b(plant, cfg, delta_secs),
        p3_safer_containment: check_p3(plant, cfg, delta_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::test_support::{aggressive_node, conservative_node, line_module, LineOracle};
    use crate::rta::RtaModule;
    use crate::time::Duration;

    /// A 1-D plant: position `x`, the safe controller moves `x` toward 0 at
    /// 1 m/s, any controller moves at most `max_speed`.
    struct LinePlant {
        bound: f64,
        safer_bound: f64,
        max_speed: f64,
        /// If set, the "safe controller" is actually broken and drifts
        /// outward — used to check that the falsifier catches bad SCs.
        broken_sc: bool,
    }

    impl LinePlant {
        fn good() -> Self {
            LinePlant {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
                broken_sc: false,
            }
        }
    }

    impl PlantAbstraction for LinePlant {
        type State = f64;

        fn sample_safe(&self, n: usize, _seed: u64) -> Vec<f64> {
            (0..n)
                .map(|i| -self.bound + 2.0 * self.bound * (i as f64 + 0.5) / n as f64)
                .collect()
        }

        fn sample_safer(&self, n: usize, _seed: u64) -> Vec<f64> {
            (0..n)
                .map(|i| -self.safer_bound + 2.0 * self.safer_bound * (i as f64 + 0.5) / n as f64)
                .collect()
        }

        fn is_safe(&self, s: &f64) -> bool {
            s.abs() <= self.bound
        }

        fn is_safer(&self, s: &f64) -> bool {
            s.abs() <= self.safer_bound
        }

        fn evolve_under_sc(&self, s: &f64, duration: f64) -> Vec<f64> {
            let mut x = *s;
            let mut out = vec![x];
            let dt = 0.1;
            let mut t = 0.0;
            while t < duration {
                let v = if self.broken_sc {
                    if x >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                } else if x.abs() < 0.05 {
                    0.0
                } else if x > 0.0 {
                    -1.0
                } else {
                    1.0
                };
                x += v * dt;
                out.push(x);
                t += dt;
            }
            out
        }

        fn may_leave_safe_any_control(&self, s: &f64, horizon: f64) -> bool {
            s.abs() + self.max_speed * horizon > self.bound
        }
    }

    #[test]
    fn good_plant_passes_all_checks() {
        let module = line_module(1000);
        let plant = LinePlant::good();
        let cfg = SamplingConfig {
            samples: 32,
            ..SamplingConfig::default()
        };
        let report = check_module(&module, &plant, &cfg);
        assert!(report.p1a_periods.passed(), "{}", report.p1a_periods);
        assert!(report.p1b_outputs.passed(), "{}", report.p1b_outputs);
        assert!(report.p2a_sc_safety.passed(), "{}", report.p2a_sc_safety);
        assert!(
            report.p2b_sc_liveness.passed(),
            "{}",
            report.p2b_sc_liveness
        );
        assert!(
            report.p3_safer_containment.passed(),
            "{}",
            report.p3_safer_containment
        );
        assert!(report.is_well_formed());
        let text = format!("{report}");
        assert!(text.contains("P2a") && text.contains("passed"));
    }

    #[test]
    fn broken_safe_controller_fails_p2a() {
        let plant = LinePlant {
            broken_sc: true,
            ..LinePlant::good()
        };
        let cfg = SamplingConfig {
            samples: 16,
            sc_horizon: 30.0,
            ..SamplingConfig::default()
        };
        let outcome = check_p2a(&plant, &cfg);
        assert!(matches!(outcome, CheckOutcome::Failed { .. }), "{outcome}");
    }

    #[test]
    fn broken_safe_controller_fails_p2b() {
        let plant = LinePlant {
            broken_sc: true,
            ..LinePlant::good()
        };
        let cfg = SamplingConfig {
            samples: 8,
            liveness_budget: 10.0,
            ..SamplingConfig::default()
        };
        let outcome = check_p2b(&plant, &cfg, 1.0);
        assert!(matches!(outcome, CheckOutcome::Failed { .. }));
    }

    #[test]
    fn too_weak_safer_region_fails_p3() {
        // φ_safer almost as large as φ_safe: with 2Δ = 8 s at 1 m/s the
        // system can escape.
        let plant = LinePlant {
            safer_bound: 9.5,
            ..LinePlant::good()
        };
        let cfg = SamplingConfig::default();
        let outcome = check_p3(&plant, &cfg, 4.0);
        assert!(matches!(outcome, CheckOutcome::Failed { .. }));
    }

    #[test]
    fn p3_passes_with_adequate_margin() {
        let plant = LinePlant::good();
        // 2Δ = 2 s at 1 m/s from |x| ≤ 5 keeps |x| ≤ 7 < 10.
        let outcome = check_p3(&plant, &SamplingConfig::default(), 1.0);
        assert!(outcome.passed(), "{outcome}");
    }

    #[test]
    fn well_formedness_with_skipped_check_still_well_formed() {
        let wf = WellFormedness {
            module: "m".into(),
            p1a_periods: CheckOutcome::Passed {
                evidence: "ok".into(),
            },
            p1b_outputs: CheckOutcome::Passed {
                evidence: "ok".into(),
            },
            p2a_sc_safety: CheckOutcome::Passed {
                evidence: "ok".into(),
            },
            p2b_sc_liveness: CheckOutcome::Skipped,
            p3_safer_containment: CheckOutcome::Passed {
                evidence: "ok".into(),
            },
        };
        assert!(wf.is_well_formed());
        let wf_bad = WellFormedness {
            p3_safer_containment: CheckOutcome::Failed {
                reason: "escape".into(),
            },
            ..wf
        };
        assert!(!wf_bad.is_well_formed());
    }

    #[test]
    fn controller_period_exceeding_delta_is_rejected_at_build() {
        // P1a: δ(N_ac) ≤ Δ and δ(N_sc) ≤ Δ.  A module whose controllers run
        // slower than the decision period can never be constructed, so the
        // sampling checks here only ever see P1a-conformant modules.
        for (ac_ms, sc_ms) in [(250u64, 100u64), (100, 250)] {
            let err = RtaModule::builder("slow")
                .advanced(aggressive_node(Duration::from_millis(ac_ms)))
                .safe(conservative_node(Duration::from_millis(sc_ms)))
                .delta(Duration::from_millis(100))
                .oracle(LineOracle {
                    bound: 10.0,
                    safer_bound: 5.0,
                    max_speed: 1.0,
                })
                .build()
                .unwrap_err();
            let text = format!("{err}");
            assert!(
                text.contains("P1a"),
                "expected a P1a rejection, got: {text}"
            );
        }
    }

    #[test]
    fn disjoint_safer_region_is_rejected_by_check_module() {
        // φ_safer ⊄ φ_safe: the "safer" band |x| ≤ 30 pokes far outside
        // φ_safe = |x| ≤ 10, so some sampled φ_safer state can (trivially)
        // leave φ_safe within 2Δ and P3 must produce a counterexample.
        let module = line_module(1000);
        let plant = LinePlant {
            safer_bound: 30.0,
            ..LinePlant::good()
        };
        let report = check_module(&module, &plant, &SamplingConfig::default());
        assert!(
            matches!(report.p3_safer_containment, CheckOutcome::Failed { .. }),
            "P3 must fail for a non-contained φ_safer: {}",
            report.p3_safer_containment
        );
        assert!(
            !report.is_well_formed(),
            "module over a disjoint φ_safer is ill-formed"
        );
    }

    #[test]
    fn inconsistent_safer_sampler_is_rejected_by_p3() {
        /// Delegates to [`LinePlant`] but claims a φ_safer membership test
        /// inconsistent with its own sampler (the sampler draws from a wider
        /// band than `is_safer` accepts).
        struct LyingSampler(LinePlant);

        impl PlantAbstraction for LyingSampler {
            type State = f64;
            fn sample_safe(&self, n: usize, seed: u64) -> Vec<f64> {
                self.0.sample_safe(n, seed)
            }
            fn sample_safer(&self, n: usize, seed: u64) -> Vec<f64> {
                // Draw from φ_safe instead of φ_safer: some samples violate
                // `is_safer`, which check_p3 must flag as a broken abstraction.
                self.0.sample_safe(n, seed)
            }
            fn is_safe(&self, s: &f64) -> bool {
                self.0.is_safe(s)
            }
            fn is_safer(&self, s: &f64) -> bool {
                self.0.is_safer(s)
            }
            fn evolve_under_sc(&self, s: &f64, duration: f64) -> Vec<f64> {
                self.0.evolve_under_sc(s, duration)
            }
            fn may_leave_safe_any_control(&self, s: &f64, horizon: f64) -> bool {
                self.0.may_leave_safe_any_control(s, horizon)
            }
        }

        let outcome = check_p3(
            &LyingSampler(LinePlant::good()),
            &SamplingConfig::default(),
            1.0,
        );
        match outcome {
            CheckOutcome::Failed { reason } => {
                assert!(
                    reason.contains("outside φ_safer"),
                    "unexpected reason: {reason}"
                )
            }
            other => panic!("expected the sampler inconsistency to fail P3, got {other}"),
        }
    }

    #[test]
    fn empty_samplers_fail_rather_than_vacuously_pass() {
        /// A plant abstraction that produces no samples at all: the checks
        /// must fail loudly instead of passing over the empty set.
        struct EmptyPlant;
        impl PlantAbstraction for EmptyPlant {
            type State = f64;
            fn sample_safe(&self, _n: usize, _seed: u64) -> Vec<f64> {
                Vec::new()
            }
            fn sample_safer(&self, _n: usize, _seed: u64) -> Vec<f64> {
                Vec::new()
            }
            fn is_safe(&self, _s: &f64) -> bool {
                true
            }
            fn is_safer(&self, _s: &f64) -> bool {
                true
            }
            fn evolve_under_sc(&self, s: &f64, _duration: f64) -> Vec<f64> {
                vec![*s]
            }
            fn may_leave_safe_any_control(&self, _s: &f64, _horizon: f64) -> bool {
                false
            }
        }

        let cfg = SamplingConfig::default();
        assert!(matches!(
            check_p2a(&EmptyPlant, &cfg),
            CheckOutcome::Failed { .. }
        ));
        assert!(matches!(
            check_p2b(&EmptyPlant, &cfg, 1.0),
            CheckOutcome::Failed { .. }
        ));
        assert!(matches!(
            check_p3(&EmptyPlant, &cfg, 1.0),
            CheckOutcome::Failed { .. }
        ));
    }

    #[test]
    fn outcome_display() {
        assert!(format!("{}", CheckOutcome::Skipped).contains("skipped"));
        assert!(format!("{}", CheckOutcome::Failed { reason: "x".into() }).contains("FAILED"));
    }
}
