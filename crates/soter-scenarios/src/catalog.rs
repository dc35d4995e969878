//! Named scenarios reproducing the paper's seven experiment drivers.
//!
//! Each constructor returns the `Scenario` that, run through
//! [`crate::runner::run_scenario`], reproduces the corresponding
//! pre-refactor driver of `soter-drone` exactly (same stack, same seeds,
//! same numbers).  The thin wrappers in [`crate::experiments`] re-package
//! the outcomes into the paper's report records; the golden-trace tests pin
//! the digests of the suite returned by [`golden_suite`].

use crate::spec::{
    FleetLayout, FleetSpec, JitterSpec, MissionSpec, Scenario, TargetPolicySpec, WorkspaceSpec,
};
use soter_core::rta::FilterKind;
use soter_core::time::{Duration, Time};
use soter_drone::stack::{AdvancedKind, Protection};
use soter_runtime::schedule::{delta_slack, JitterSchedule};
use soter_sim::battery::BatteryModel;
use soter_sim::wind::WindModel;
use std::sync::OnceLock;

fn advanced_label(advanced: &AdvancedKind) -> &'static str {
    match advanced {
        AdvancedKind::Px4Like => "px4like",
        AdvancedKind::Learned { .. } => "learned",
        AdvancedKind::Faulted { .. } => "faulted",
        AdvancedKind::Vm { .. } => "vm",
    }
}

fn protection_label(protection: Protection) -> &'static str {
    match protection {
        Protection::AcOnly => "ac-only",
        Protection::Rta => "rta",
        Protection::ScOnly => "sc-only",
    }
}

/// Fig. 5: the corner-cut circuit flown by an *unprotected* advanced
/// controller, demonstrating that third-party / learned controllers are
/// unsafe on their own.
pub fn fig5(advanced: AdvancedKind, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("fig5-{}", advanced_label(&advanced)))
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLoop)
        .with_protection(Protection::AcOnly)
        .with_advanced(advanced)
        .with_horizon(horizon)
        .with_seed(seed)
}

/// Fig. 12a / Sec. V-A: one lap of the `g1..g4` circuit under the given
/// protection configuration.
pub fn fig12a(protection: Protection, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("fig12a-{}", protection_label(protection)))
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLap)
        .with_protection(protection)
        .with_horizon(horizon)
        .with_seed(seed)
}

/// Fig. 12b: the RTA-protected surveillance mission over the city block.
pub fn fig12b(seed: u64, targets: i64, horizon: f64) -> Scenario {
    Scenario::new("fig12b-surveillance")
        .with_mission(MissionSpec::Surveillance {
            policy: TargetPolicySpec::RoundRobin,
            targets: Some(targets),
        })
        .with_horizon(horizon)
        .with_seed(seed)
}

/// The surveillance mission of Fig. 12b flown with the advanced motion
/// primitive hosted in the bytecode sandbox: the `mpr_ac` slot runs
/// [`soter_vm::programs::SURVEILLANCE_AC`], statically verified at stack
/// construction, under the same Simplex decision module as the native
/// controllers.  This is the paper's "unverified third-party controller"
/// made literal — the controller is data that must pass the verifier
/// before it may fly.
pub fn vm_surveillance(seed: u64, targets: i64, horizon: f64) -> Scenario {
    fig12b(seed, targets, horizon)
        .with_name("vm-surveillance")
        .with_advanced(AdvancedKind::Vm {
            asm: soter_vm::programs::SURVEILLANCE_AC.into(),
        })
}

/// The fast-draining battery model of the Fig. 12c experiment: ~100 s of
/// hover endurance instead of 20 minutes, so the emergency occurs within a
/// short simulation.
pub fn fig12c_battery_model() -> BatteryModel {
    BatteryModel {
        idle_rate: 1.0 / 100.0,
        accel_rate: 0.0003,
        ..BatteryModel::default()
    }
}

/// Fig. 12c: the battery-safety module aborts the mission and lands the
/// drone before the charge runs out.
pub fn fig12c(seed: u64, horizon: f64) -> Scenario {
    Scenario::new("fig12c-battery")
        .with_mission(MissionSpec::Surveillance {
            policy: TargetPolicySpec::RoundRobin,
            targets: None,
        })
        .with_battery(fig12c_battery_model(), 1.0)
        .with_horizon(horizon)
        .with_seed(seed)
}

/// Sec. V-C: randomized planner queries comparing the unprotected
/// fault-injected RRT* with the RTA-protected planner module.
pub fn planner_rta(seed: u64, queries: usize) -> Scenario {
    Scenario::new("planner-rta")
        .with_mission(MissionSpec::PlannerQueries {
            queries,
            bug_probability: 0.3,
        })
        .with_seed(seed)
}

/// The aggressive jitter of the Sec. V-D stress campaign: up to three
/// decision periods of delay, often.
pub fn stress_jitter() -> JitterSpec {
    JitterSpec::iid(0.2, Duration::from_millis(300))
}

/// Sec. V-D (scaled): a long randomized surveillance campaign, optionally
/// with the scheduling jitter that produced the paper's 34 crashes.
pub fn stress(seed: u64, horizon: f64, with_jitter: bool) -> Scenario {
    let jitter = if with_jitter {
        stress_jitter()
    } else {
        JitterSpec::none()
    };
    Scenario::new(if with_jitter {
        "stress-jitter"
    } else {
        "stress-ideal"
    })
    .with_mission(MissionSpec::Surveillance {
        policy: TargetPolicySpec::Random,
        targets: None,
    })
    .with_jitter(jitter)
    .with_horizon(horizon)
    .with_seed(seed)
}

/// The per-firing delay tolerance of the stress stack's motion-primitive
/// module: [`delta_slack`] of its decision period Δ (100 ms) and φ_safer
/// hysteresis factor (1.5), i.e. 50 ms.  Schedules that never delay a
/// firing by more than this stay within the timing assumptions of
/// Theorem 3.1, so the RTA-protected stack must stay violation-free under
/// them — the [`adversarial_stress`] control grid pins exactly that.
pub fn stress_delta_slack() -> Duration {
    let defaults = Scenario::new("defaults");
    delta_slack(defaults.delta_mpr, defaults.safer_factor)
}

/// The in-tolerance adversarial control grid: the Sec. V-D stress mission
/// under deterministic adversarial schedules whose per-firing delay stays
/// at the Δ-slack tolerance ([`stress_delta_slack`]).  These are the
/// *negative* controls of the falsification engine: every cell must pin
/// zero φ_safe violations, because its schedule never leaves the timing
/// assumptions the RTA theorems rely on.  (The positive control — a
/// schedule *outside* the tolerance that provably crashes the stack — is
/// [`sc_starvation`].)
pub fn adversarial_stress(seed: u64, horizon: f64) -> Vec<Scenario> {
    let slack = stress_delta_slack();
    let whole_run = Duration::from_secs_f64(horizon);
    let base = |name: &str| stress(seed, horizon, false).with_name(format!("adv-stress-{name}"));
    vec![
        // Starve the safe controller — the paper's crash class, but held
        // inside the tolerance.
        base("slack-sc").with_jitter(JitterSpec::Schedule(JitterSchedule::TargetedNode {
            node: "mpr_sc".into(),
            start: Time::ZERO,
            width: whole_run,
            delay: slack,
        })),
        // Starve the decision module itself.
        base("slack-dm").with_jitter(JitterSpec::Schedule(JitterSchedule::TargetedNode {
            node: "safe_motion_primitive_dm".into(),
            start: Time::ZERO,
            width: whole_run,
            delay: slack,
        })),
        // A system-wide burst covering the whole run.
        base("slack-burst").with_jitter(JitterSpec::Schedule(JitterSchedule::Burst {
            start: Time::ZERO,
            width: whole_run,
            delay: slack,
        })),
        // Jitter phase-locked to a 500 ms co-scheduled disturbance.
        base("slack-phase").with_jitter(JitterSpec::Schedule(JitterSchedule::PhaseLocked {
            period: Duration::from_millis(500),
            offset: Duration::from_millis(100),
            width: Duration::from_millis(250),
            delay: slack,
        })),
    ]
}

/// The schedule the falsification engine found and shrank for the
/// RTA-protected stress scenario: starve only the safe controller
/// (`mpr_sc`) for ~10.4 s starting at ~8.3 s, delaying each of its firings
/// by ~1.18 s — more than eleven decision periods, far outside the Δ-slack
/// tolerance.  The DM still switches control, but the SC is not scheduled
/// in time to recover: the paper's Sec. V-D crash class, reproduced
/// deterministically.
///
/// Provenance: `Falsifier` over `ScheduleSpace { nodes: [mpr_sc],
/// families: [Targeted], delays 100 ms..1.5 s }` with
/// `FalsifierConfig { budget: 48, restarts: 8, neighbours: 4, seed: 7 }`
/// on `stress(13, 30.0, false)` — found after 8 evaluations and one
/// accepted shrink step.  `tests/falsify.rs` re-runs that search and
/// asserts it reproduces this exact schedule at every worker count.
pub fn sc_starvation_schedule() -> JitterSchedule {
    JitterSchedule::TargetedNode {
        node: "mpr_sc".into(),
        start: Time::from_micros(8_304_342),
        width: Duration::from_micros(10_377_054),
        delay: Duration::from_micros(1_182_466),
    }
}

/// The pinned SC-starvation counterexample: the stress mission under
/// [`sc_starvation_schedule`].  Its golden snapshot pins the crash
/// (`safety_violations ≥ 1`) — the positive control of the falsification
/// engine, complementing the violation-free [`adversarial_stress`] grid.
pub fn sc_starvation() -> Scenario {
    stress(13, 30.0, false)
        .with_name("stress-sc-starvation")
        .with_jitter(JitterSpec::Schedule(sc_starvation_schedule()))
}

/// Remark 3.3: one cell of the Δ / φ_safer ablation — a protected circuit
/// lap with an explicit decision period and hysteresis factor.
pub fn ablation(delta_ms: u64, safer_factor: f64, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("ablation-d{delta_ms}-f{safer_factor}"))
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLap)
        .with_delta_mpr(Duration::from_millis(delta_ms))
        .with_safer_factor(safer_factor)
        .with_horizon(horizon)
        .with_seed(seed)
}

/// A 2/4/8-drone crossing airspace on the corner-cut course: drones fly
/// the circuit from staggered corners, alternating direction of travel, so
/// routes cross and meet head-on.  Every drone is RTA-protected and every
/// decision module enforces φ_sep against its peers' reach-sets.
pub fn airspace_crossing(drones: usize, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("airspace-crossing-{drones}"))
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLoop)
        .with_fleet(FleetSpec::new(drones, FleetLayout::Crossing))
        .with_horizon(horizon)
        .with_seed(seed)
}

/// Like [`airspace_crossing`] but with every drone *unprotected* (AC-only)
/// — the multi-drone analogue of Fig. 5: without the separation-aware
/// decision modules, crossing routes produce φ_sep violations.
pub fn airspace_crossing_unprotected(drones: usize, seed: u64, horizon: f64) -> Scenario {
    airspace_crossing(drones, seed, horizon)
        .with_protection(Protection::AcOnly)
        .with_name_suffix("-ac-only")
}

/// An N-drone patrol convoy on the corner-cut course: all drones fly the
/// same circuit in the same direction from staggered waypoints.  (The
/// city block's raw waypoint circuit cuts through houses — its missions
/// need the planner stack — so convoys patrol the corner-cut course,
/// whose legs are collision-free.)
pub fn airspace_convoy(drones: usize, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("airspace-convoy-{drones}"))
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLoop)
        .with_fleet(FleetSpec::new(drones, FleetLayout::Convoy))
        .with_horizon(horizon)
        .with_seed(seed)
}

/// The contested corridor: N drones shuttle between the two mouths of a
/// single walled street in opposing directions on closely spaced lanes,
/// so every pass is a negotiated encounter.
pub fn airspace_corridor(drones: usize, seed: u64, horizon: f64) -> Scenario {
    Scenario::new(format!("airspace-corridor-{drones}"))
        .with_workspace(WorkspaceSpec::ContestedCorridor)
        .with_mission(MissionSpec::CircuitLoop)
        .with_fleet(FleetSpec::new(drones, FleetLayout::Corridor))
        .with_horizon(horizon)
        .with_seed(seed)
}

/// The wind-sweep campaign grid: the RTA-protected Fig. 12a lap under
/// increasing gust magnitudes (m/s², uniform per axis).  Fan the returned
/// scenarios out with [`crate::campaign::Campaign`] to sweep seeds too.
pub fn wind_sweep(seed: u64, horizon: f64) -> Vec<Scenario> {
    [0.0, 0.5, 1.0, 2.0]
        .into_iter()
        .map(|magnitude| {
            fig12a(Protection::Rta, seed, horizon)
                .with_wind(if magnitude == 0.0 {
                    WindModel::Calm
                } else {
                    WindModel::Gusty { magnitude }
                })
                .with_name(format!("wind-sweep-g{magnitude}"))
        })
        .collect()
}

/// The battery-degradation campaign grid: the surveillance mission with
/// the Fig. 12c fast battery, over initial-charge × drain-multiplier
/// cells.  Degraded packs must still land safely (the battery module's
/// φ_bat), just sooner.
pub fn battery_degradation_grid(seed: u64, horizon: f64) -> Vec<Scenario> {
    let base = fig12c_battery_model();
    let mut grid = Vec::new();
    for initial in [1.0, 0.6] {
        for drain in [1.0, 2.0] {
            let model = BatteryModel {
                idle_rate: base.idle_rate * drain,
                accel_rate: base.accel_rate * drain,
                ..base
            };
            grid.push(
                fig12c(seed, horizon)
                    .with_battery(model, initial)
                    .with_name(format!("battery-grid-c{initial}-d{drain}")),
            );
        }
    }
    grid
}

/// The missions of the cross-filter comparison: one surveillance, one
/// airspace and one stress mission, each in its golden-suite configuration.
/// Their unsuffixed originals are the explicit-Simplex baselines; the
/// `-implicit` / `-asif` variants of [`filter_zoo`] rerun them under the
/// other filters.
pub fn filter_zoo_bases() -> Vec<Scenario> {
    vec![
        fig12b(7, 2, 150.0),
        airspace_crossing(2, 21, 12.0),
        stress(13, 60.0, false),
    ]
}

/// A cheap subset of the cross-filter comparison for the CI
/// `filter-compare-smoke` step: the same three mission families as
/// [`filter_zoo_bases`] at much shorter horizons.  The `-smoke` names keep
/// these runs out of the golden suite — the smoke step checks the
/// ASIF-vs-explicit *verdicts*, not digests.
pub fn filter_zoo_smoke_bases() -> Vec<Scenario> {
    vec![
        fig12b(7, 2, 40.0).with_name("fig12b-surveillance-smoke"),
        airspace_crossing(2, 21, 6.0).with_name("airspace-crossing-2-smoke"),
        stress(13, 20.0, false).with_name("stress-ideal-smoke"),
    ]
}

/// The filter-zoo variants: every [`filter_zoo_bases`] mission re-run under
/// the implicit-Simplex and ASIF filters.  Each variant pins its own
/// golden; the explicit baselines are already in the suite unsuffixed.
pub fn filter_zoo() -> Vec<Scenario> {
    let mut suite = Vec::new();
    for base in filter_zoo_bases() {
        for filter in [FilterKind::ImplicitSimplex, FilterKind::Asif] {
            suite.push(base.filter_variant(filter));
        }
    }
    suite
}

/// The pinned multi-drone airspace suite (crossing, convoy, contested
/// corridor, and the unprotected crossing baseline), with short horizons
/// for the golden-trace tests.
pub fn airspace_suite() -> Vec<Scenario> {
    vec![
        airspace_crossing(2, 21, 12.0),
        airspace_crossing_unprotected(2, 21, 12.0),
        airspace_convoy(4, 22, 10.0),
        airspace_corridor(8, 23, 8.0),
    ]
}

/// The pinned scenario suite covering every experiment driver, used by the
/// golden-trace regression tests.  Horizons are kept short so the whole
/// suite stays inside the `cargo test` time budget.
pub fn golden_suite() -> Vec<Scenario> {
    let mut suite = vec![
        fig5(AdvancedKind::Px4Like, 1, 60.0),
        fig5(AdvancedKind::Learned { seed: 1 }, 1, 60.0),
        fig12a(Protection::AcOnly, 3, 120.0),
        fig12a(Protection::Rta, 3, 120.0),
        fig12a(Protection::ScOnly, 3, 120.0),
        fig12b(7, 2, 150.0),
        fig12c(11, 150.0),
        planner_rta(5, 20),
        stress(13, 60.0, false),
        stress(13, 60.0, true),
        ablation(100, 1.5, 3, 120.0),
        ablation(200, 2.0, 3, 120.0),
    ];
    suite.extend(airspace_suite());
    // One representative cell of each campaign grid, with short horizons.
    suite.push(wind_sweep(3, 40.0).remove(2));
    suite.push(battery_degradation_grid(11, 60.0).remove(3));
    // The falsification goldens, both ways: the whole in-tolerance control
    // grid pins zero violations, the found SC-starvation schedule pins the
    // crash.
    suite.extend(adversarial_stress(13, 30.0));
    suite.push(sc_starvation());
    // The sandboxed-bytecode advanced controller under the Simplex DM.
    suite.push(vm_surveillance(7, 2, 150.0));
    // The filter zoo: implicit-Simplex and ASIF variants of one
    // surveillance, one airspace and one stress mission.
    suite.extend(filter_zoo());
    suite
}

/// A near-instant catalog scenario (two clean planner queries) for smoke
/// tests of the campaign *machinery* itself — the sharded-campaign tests
/// and benches fan this out by name when the workload must stay trivial.
pub fn serve_smoke() -> Scenario {
    Scenario::new("serve-smoke").with_mission(MissionSpec::PlannerQueries {
        queries: 2,
        bug_probability: 0.0,
    })
}

/// The registry, built on first use and shared by every later call.
fn registry_slice() -> &'static [Scenario] {
    static REGISTRY: OnceLock<Vec<Scenario>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut scenarios = golden_suite();
        scenarios.push(serve_smoke());
        scenarios
    })
}

/// Every scenario resolvable *by name*: the golden suite plus the named
/// utility scenarios ([`serve_smoke`]).  This is the namespace the
/// `soter-serve` wire protocol runs in — a shard worker receives
/// `(scenario name, seed)` pairs and resolves them through [`find`], so
/// only scenarios listed here can be sharded across processes.
///
/// The registry is built once per process; this returns a copy of it.
pub fn registry() -> Vec<Scenario> {
    registry_slice().to_vec()
}

/// Resolves a catalog scenario by its unique name (see [`registry`]).
///
/// A name scan over the once-built registry, returning a clone of the
/// entry — no catalog constructor runs after the first call.  The
/// returned scenario carries the catalog's pinned seed; re-seed it
/// with [`Scenario::with_seed`] for campaign fan-out — that is exactly
/// what a `soter-serve` shard worker does with each `(name, seed)` wire
/// job, so coordinator-side and worker-side job expansion agree.
pub fn find(name: &str) -> Option<Scenario> {
    registry_slice().iter().find(|s| s.name == name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn golden_suite_covers_all_seven_drivers() {
        let suite = golden_suite();
        let prefixes: BTreeSet<&str> = suite
            .iter()
            .map(|s| s.name.split('-').next().unwrap())
            .collect();
        for driver in [
            "fig5", "fig12a", "fig12b", "fig12c", "planner", "stress", "ablation",
        ] {
            assert!(prefixes.contains(driver), "missing driver {driver}");
        }
    }

    #[test]
    fn golden_suite_names_are_unique_and_file_friendly() {
        let suite = golden_suite();
        let names: BTreeSet<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), suite.len(), "duplicate scenario names");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
                "name {name:?} is not filesystem-friendly"
            );
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let registry = registry();
        let names: BTreeSet<&str> = registry.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), registry.len(), "duplicate registry names");
        for scenario in &registry {
            assert_eq!(
                find(&scenario.name).as_ref(),
                Some(scenario),
                "{} must resolve to itself",
                scenario.name
            );
        }
        assert!(find("no-such-scenario").is_none());
        // Re-seeding a resolved scenario matches direct construction — the
        // invariant the shard wire protocol relies on.
        assert_eq!(
            find("fig12a-rta").unwrap().with_seed(9),
            fig12a(Protection::Rta, 3, 120.0).with_seed(9)
        );
    }

    #[test]
    fn registry_is_the_golden_suite_then_serve_smoke() {
        let mut expected = golden_suite();
        expected.push(serve_smoke());
        assert_eq!(registry(), expected);
    }

    #[test]
    fn editing_a_found_scenario_leaves_the_registry_untouched() {
        let pinned = find("fig12b-surveillance").expect("in the registry");
        assert_eq!(pinned, fig12b(7, 2, 150.0));
        let mut edited = find("fig12b-surveillance")
            .unwrap()
            .with_seed(pinned.seed + 100);
        edited.horizon += 1.0;
        assert_ne!(edited, pinned);
        assert_eq!(find("fig12b-surveillance"), Some(pinned));
    }

    #[test]
    fn adversarial_grid_stays_inside_the_delta_slack() {
        let slack = stress_delta_slack();
        assert_eq!(slack, Duration::from_millis(50), "Δ=100 ms, factor 1.5");
        let grid = adversarial_stress(13, 30.0);
        assert_eq!(grid.len(), 4);
        for scenario in &grid {
            assert!(scenario.jitter.is_enabled(), "{}", scenario.name);
            let JitterSpec::Schedule(schedule) = &scenario.jitter else {
                panic!("{} must carry a deterministic schedule", scenario.name);
            };
            assert!(
                schedule.max_delay() <= slack,
                "{} exceeds the Δ-slack tolerance",
                scenario.name
            );
        }
    }

    #[test]
    fn sc_starvation_is_outside_the_tolerance_and_targets_the_sc() {
        let schedule = sc_starvation_schedule();
        assert!(
            schedule.max_delay() > stress_delta_slack(),
            "the pinned counterexample must sit outside the Δ-slack assumptions"
        );
        assert!(
            matches!(&schedule, JitterSchedule::TargetedNode { node, .. } if node == "mpr_sc"),
            "the pinned crash class starves the safe controller"
        );
        let scenario = sc_starvation();
        assert_eq!(scenario.name, "stress-sc-starvation");
        assert_eq!(scenario.jitter.model(scenario.seed), schedule);
    }

    #[test]
    fn filter_zoo_spans_every_non_explicit_filter_per_base() {
        let zoo = filter_zoo();
        assert_eq!(zoo.len(), filter_zoo_bases().len() * 2);
        for base in filter_zoo_bases() {
            assert_eq!(base.filter, FilterKind::ExplicitSimplex);
            assert!(
                find(&base.name).is_some(),
                "explicit baseline {} must be in the registry",
                base.name
            );
            for filter in [FilterKind::ImplicitSimplex, FilterKind::Asif] {
                let name = format!("{}-{}", base.name, filter.slug());
                let variant = find(&name).unwrap_or_else(|| panic!("missing variant {name}"));
                assert_eq!(variant.filter, filter);
                assert_eq!(variant.seed, base.seed);
                assert_eq!(variant.horizon, base.horizon);
                assert_eq!(variant.mission, base.mission);
            }
        }
    }

    #[test]
    fn stress_scenarios_differ_only_in_jitter() {
        let ideal = stress(13, 60.0, false);
        let jittery = stress(13, 60.0, true);
        assert!(!ideal.jitter.is_enabled());
        assert!(jittery.jitter.is_enabled());
        assert_eq!(ideal.seed, jittery.seed);
        assert_eq!(ideal.mission, jittery.mission);
    }
}
