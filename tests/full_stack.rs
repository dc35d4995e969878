//! Integration tests spanning the whole workspace: the RTA-protected drone
//! stacks built from `soter-drone` executed by `soter-runtime` over the
//! `soter-sim` substrate, asserting the paper's qualitative claims.

use soter::drone::stack::{AdvancedKind, Protection};
use soter::scenarios::catalog;
use soter::scenarios::runner::{run_scenario, RunOutcome, ScenarioOutcome};
use soter::scenarios::spec::Scenario;
use soter::sim::trajectory::MissionMetrics;

/// Runs a mission scenario and splits out its executor run and metrics.
fn mission(scenario: &Scenario) -> (ScenarioOutcome, RunOutcome, MissionMetrics) {
    let mut outcome = run_scenario(scenario);
    let run = outcome.run.take().expect("mission scenarios produce a run");
    let metrics = outcome
        .metrics
        .take()
        .expect("mission scenarios produce metrics");
    (outcome, run, metrics)
}

#[test]
fn unprotected_aggressive_controller_is_unsafe() {
    // Fig. 5 (right): the PX4-like controller flying the circuit at speed
    // eventually overshoots into an obstacle or the geofence.
    let outcome = run_scenario(&catalog::fig5(AdvancedKind::Px4Like, 1, 120.0));
    let max_deviation = outcome
        .max_deviation
        .expect("circuit scenarios measure deviation");
    let metrics = outcome.metrics.as_ref().expect("fig5 produces metrics");
    assert!(outcome.targets_reached() > 0);
    assert!(
        metrics.collisions > 0 || max_deviation > 1.5,
        "expected a violation or a dangerous deviation, got {metrics:?} \
         (max deviation {max_deviation:.2} m)"
    );
}

#[test]
fn rta_protected_circuit_is_safe_and_faster_than_sc_only() {
    // Fig. 12a / Sec. V-A: AC-only is fastest but unsafe; SC-only is safe but
    // slow; the RTA configuration is safe and sits in between.
    let (rta_outcome, rta, rta_metrics) = mission(&catalog::fig12a(Protection::Rta, 3, 300.0));
    let (_, sc, sc_metrics) = mission(&catalog::fig12a(Protection::ScOnly, 3, 300.0));
    let (_, ac, _) = mission(&catalog::fig12a(Protection::AcOnly, 3, 300.0));
    assert_eq!(rta_metrics.collisions, 0, "RTA must be collision-free");
    assert_eq!(sc_metrics.collisions, 0, "SC-only must be collision-free");
    assert_eq!(
        rta_outcome.invariant_violations, 0,
        "Theorem 3.1 must hold under the ideal calendar"
    );
    let t_rta = rta.completion_time.expect("RTA lap completes");
    let t_sc = sc.completion_time.expect("SC-only lap completes");
    assert!(
        t_rta <= t_sc,
        "RTA ({t_rta:.1}s) must not be slower than SC-only ({t_sc:.1}s)"
    );
    if let Some(t_ac) = ac.completion_time {
        assert!(
            t_ac <= t_rta + 1.0,
            "AC-only ({t_ac:.1}s) should be the fastest"
        );
    }
    // The protected run actually exercises both controllers.
    assert!(rta_metrics.disengagements >= 1);
    assert!(rta_metrics.ac_fraction > 0.2 && rta_metrics.ac_fraction < 1.0);
}

#[test]
fn rta_protected_surveillance_mission_completes_safely() {
    // Fig. 12b: the full stack visits surveillance targets with zero
    // ground-truth collisions and the advanced controller in command for the
    // majority of the mission.
    let (outcome, run, metrics) = mission(&catalog::fig12b(7, 4, 300.0));
    assert!(
        run.targets_reached >= 4,
        "mission must make progress: {metrics:?}"
    );
    assert_eq!(metrics.collisions, 0, "φ_mpr must hold: {metrics:?}");
    assert!(metrics.ac_fraction > 0.5, "AC should dominate: {metrics:?}");
    assert_eq!(outcome.invariant_violations, 0);
}

#[test]
fn sc_only_circuit_never_disengages() {
    let (_, run, metrics) = mission(&catalog::fig12a(Protection::ScOnly, 5, 300.0));
    assert_eq!(metrics.collisions, 0);
    assert_eq!(
        run.mpr_disengagements, 0,
        "there is no DM in the SC-only baseline"
    );
}

#[test]
fn planner_rta_blocks_every_injected_bug() {
    let report = run_scenario(&catalog::planner_rta(9, 40))
        .planner
        .expect("planner scenarios produce a report");
    assert!(report.unprotected_colliding_plans > 0, "{report:?}");
    assert_eq!(report.protected_colliding_plans, 0, "{report:?}");
}

#[test]
fn experiment_drivers_are_deterministic_for_a_fixed_seed() {
    // Every assertion in this file is about a run keyed by an explicit seed;
    // this guards against anything in the stack (sensors, planners, jitter,
    // target policies) silently drawing from ambient entropy.  Two runs with
    // the same seed must agree field-for-field, and a different seed must
    // produce an observably different trajectory.
    fn twice(scenario: &Scenario) -> ScenarioOutcome {
        let a = run_scenario(scenario);
        let b = run_scenario(scenario);
        let digest = |o: &ScenarioOutcome| o.run.as_ref().map(|r| r.trace_digest);
        assert_eq!(
            digest(&a),
            digest(&b),
            "{} must replay its executor trace",
            scenario.name
        );
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{} must be seed-deterministic",
            scenario.name
        );
        a
    }
    twice(&catalog::fig5(AdvancedKind::Px4Like, 1, 60.0));
    for protection in [Protection::AcOnly, Protection::Rta, Protection::ScOnly] {
        twice(&catalog::fig12a(protection, 3, 120.0));
    }

    let a = twice(&catalog::stress(13, 60.0, true));
    let c = run_scenario(&catalog::stress(14, 60.0, true));
    assert_ne!(
        a.metrics, c.metrics,
        "different seeds should explore different campaigns"
    );
}

#[test]
fn short_stress_campaign_without_jitter_is_clean() {
    // A scaled-down Sec. V-D campaign on the ideal calendar: no crashes and
    // high AC utilisation.
    let outcome = run_scenario(&catalog::stress(13, 120.0, false));
    let run = outcome.run.as_ref().expect("stress produces a run");
    let ac_fraction = run.trajectory.advanced_controller_fraction();
    let distance_km = run.distance_flown / 1000.0;
    assert_eq!(outcome.safety_violations, 0, "{:?}", outcome.metrics);
    assert!(ac_fraction > 0.5, "AC fraction {ac_fraction:.2}");
    assert!(distance_km > 0.05, "distance {distance_km:.3} km");
}
