//! Gradient-guided falsifier determinism tests: the gradient mode re-finds
//! and re-shrinks the pinned SC-starvation counterexample byte-identically,
//! a provably flat sensitivity signal falls back to random restart (move
//! log pinned), and per-round evaluation counts pin the incumbent-caching
//! fix — a local-search round evaluates exactly its candidates, never the
//! incumbent again.

use soter::core::time::Duration;
use soter::scenarios::catalog;
use soter::scenarios::falsify::{
    Falsifier, FalsifierConfig, ScheduleFamily, ScheduleSpace, SearchMove, SearchRound,
};
use soter::scenarios::spec::{MissionSpec, Scenario, WorkspaceSpec};

/// The exact search that produced `catalog::sc_starvation_schedule()` (see
/// `tests/falsify.rs`), with the gradient mode applied — it may not perturb
/// it: gradient probe rounds only replace the RNG-driven local-search arm,
/// which this seed never reaches (the violation lands in the first restart
/// round).
fn sc_starvation_search(gradient: bool) -> Falsifier {
    let horizon = 30.0;
    Falsifier::new(
        catalog::stress(13, horizon, false).with_name("stress-sc-starvation"),
        ScheduleSpace {
            nodes: vec!["mpr_sc".into()],
            families: vec![ScheduleFamily::Targeted],
            min_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(1500),
            max_width: Duration::from_secs_f64(horizon),
            horizon,
        },
        FalsifierConfig {
            budget: 48,
            restarts: 8,
            neighbours: 4,
            workers: 4,
            seed: 7,
            gradient,
        },
    )
}

/// The gradient-guided search must reproduce the pinned counterexample —
/// schedule, crashing record, evaluation count and shrink steps — byte-
/// identically.
#[test]
fn gradient_search_reproduces_the_pinned_counterexample() {
    let report = sc_starvation_search(true).run();
    let ce = report
        .counterexample
        .as_ref()
        .expect("the budgeted search must find a violation");
    assert_eq!(ce.schedule, catalog::sc_starvation_schedule());
    assert_eq!(
        (ce.evaluations, ce.shrink_steps),
        (8, 1),
        "the pinned provenance: found in the first restart round, one accepted shrink"
    );
    // The violation lands in the first restart round, before any gradient
    // probing — which is exactly why gradient mode pins to the same
    // counterexample as the random mode.
    assert_eq!(
        report.moves,
        vec![SearchRound {
            action: SearchMove::Restart,
            evaluations: 8,
        }]
    );
}

/// A schedule space targeting a node that does not exist in the system:
/// candidate schedules never delay anything, so every evaluation produces
/// the same record and the sensitivity signal is provably flat.
fn flat_falsifier(gradient: bool, budget: usize) -> Falsifier {
    let scenario = Scenario::new("flat-sensitivity")
        .with_workspace(WorkspaceSpec::CornerCutCourse)
        .with_mission(MissionSpec::CircuitLap)
        .with_horizon(10.0);
    Falsifier::new(
        scenario,
        ScheduleSpace {
            nodes: vec!["no_such_node".into()],
            families: vec![ScheduleFamily::Targeted],
            min_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(1500),
            max_width: Duration::from_secs(10),
            horizon: 10.0,
        },
        FalsifierConfig {
            budget,
            restarts: 2,
            neighbours: 4,
            workers: 2,
            seed: 3,
            gradient,
        },
    )
}

/// Flat sensitivity must fall back to random restart: each probe round
/// scores every probe exactly at the incumbent, drops it, and the next
/// round draws fresh random candidates.  The move log is pinned.
#[test]
fn flat_sensitivity_falls_back_to_random_restart() {
    // Budget 16 = restart (2) + probes (6) + restart (2) + probes (6).
    let report = flat_falsifier(true, 16).run();
    assert!(
        report.counterexample.is_none(),
        "the inert schedule space cannot provoke a violation"
    );
    assert_eq!(report.evaluations, 16);
    let expected = vec![
        SearchRound {
            action: SearchMove::Restart,
            evaluations: 2,
        },
        SearchRound {
            action: SearchMove::FlatRestart,
            evaluations: 6,
        },
        SearchRound {
            action: SearchMove::Restart,
            evaluations: 2,
        },
        SearchRound {
            action: SearchMove::FlatRestart,
            evaluations: 6,
        },
    ];
    assert_eq!(
        report.moves, expected,
        "flat probes must drop the incumbent and restart, every round"
    );
    // Determinism of the fallback itself.
    assert_eq!(flat_falsifier(true, 16).run(), report);
}

/// The incumbent-caching regression test: a local-search round evaluates
/// exactly its candidates (`neighbours` perturbations + 1 fresh restart),
/// never the incumbent again, and a probe round exactly its probes — the
/// per-round counts in the move log must account for the whole budget with
/// no extra incumbent re-evaluations.
#[test]
fn search_rounds_never_reevaluate_the_incumbent() {
    // Without gradient: restart (2) then neighbourhood rounds of exactly
    // neighbours + 1 = 5 evaluations until the budget runs out.
    let report = flat_falsifier(false, 17).run();
    assert_eq!(report.evaluations, 17);
    let counts: Vec<(SearchMove, usize)> = report
        .moves
        .iter()
        .map(|r| (r.action, r.evaluations))
        .collect();
    assert_eq!(
        counts,
        vec![
            (SearchMove::Restart, 2),
            (SearchMove::Neighbourhood, 5),
            (SearchMove::Neighbourhood, 5),
            (SearchMove::Neighbourhood, 5),
        ],
        "each local-search round spends exactly neighbours + 1 evaluations"
    );
    let total: usize = report.moves.iter().map(|r| r.evaluations).sum();
    assert_eq!(
        total, report.evaluations,
        "every evaluation is accounted to a round — none re-scores the incumbent"
    );
}
