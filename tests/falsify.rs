//! Falsification-engine integration tests: the budgeted search finds and
//! shrinks the pinned SC-starvation schedule byte-identically across
//! reruns and worker counts, the in-tolerance space stays violation-free,
//! per-round evaluation counts pin that the incumbent is never
//! re-evaluated, and the CI falsify-smoke artifact is written.

use soter::core::time::Duration;
use soter::scenarios::catalog;
use soter::scenarios::falsify::{
    counterexample_to_text, Falsifier, FalsifierConfig, ScheduleFamily, ScheduleSpace, SearchMove,
    SearchRound,
};
use soter::scenarios::golden::record_from_text;
use soter::scenarios::spec::{MissionSpec, Scenario, WorkspaceSpec};

/// The exact search that produced `catalog::sc_starvation_schedule()` —
/// see the provenance note on that function.
fn sc_starvation_search(workers: usize) -> Falsifier {
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
            workers,
            seed: 7,
        },
    )
}

/// The acceptance gate of the falsification engine: the budgeted search
/// finds a violating SC-starvation schedule, shrinks it, and reproduces
/// the *pinned* counterexample byte-identically across reruns and worker
/// counts.  The crashing run itself is additionally pinned as the
/// `stress-sc-starvation` golden, whose record must match the
/// counterexample's record field-for-field.  This test also writes the CI
/// falsify-smoke artifact (override the location with the
/// `FALSIFY_REPORT` environment variable).
#[test]
fn falsifier_reproduces_the_pinned_sc_starvation_counterexample() {
    let parallel = sc_starvation_search(4).run();
    let ce = parallel
        .counterexample
        .as_ref()
        .expect("the budgeted search must find a violation");
    // The search found exactly the schedule pinned in the catalog...
    assert_eq!(ce.schedule, catalog::sc_starvation_schedule());
    assert!(ce.record.safety_violations >= 1, "{ce:?}");
    // The pinned provenance: found in the first restart round, one
    // accepted shrink.
    assert_eq!((ce.evaluations, ce.shrink_steps), (8, 1));
    assert_eq!(
        parallel.moves,
        vec![SearchRound {
            action: SearchMove::Restart,
            evaluations: 8,
        }]
    );
    // ...whose crashing run is pinned as a golden snapshot.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/stress-sc-starvation-s13.golden"
    ))
    .expect("the SC-starvation golden exists");
    assert_eq!(
        ce.record,
        record_from_text(&golden).expect("golden parses"),
        "the counterexample's crash must be the pinned golden record"
    );
    // Byte-identical reproduction on a single worker.
    let sequential = sc_starvation_search(1).run();
    assert_eq!(
        parallel, sequential,
        "falsification must not depend on the worker count"
    );
    // The CI artifact: the full report summary with the counterexample in
    // the golden-trace text format.
    let path = std::env::var("FALSIFY_REPORT")
        .unwrap_or_else(|_| format!("{}/target/falsify-report.txt", env!("CARGO_MANIFEST_DIR")));
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("report directory");
    }
    std::fs::write(&path, parallel.summary()).expect("write falsify report");
    let text = counterexample_to_text(ce);
    assert!(text.contains("schedule = targeted-node"));
    assert!(text.contains("schedule_node = mpr_sc"));
    // The counterexample names the oracle checks that fired around the
    // crash — a starved SC means the DM must have disengaged at least once.
    assert!(
        text.contains("switch_reasons = "),
        "counterexample must carry a switch-reason breakdown: {text}"
    );
    assert!(
        !ce.switch_reasons.is_empty(),
        "the crashing run switches modes, so reasons must be recorded"
    );
}

/// The same SC-starvation space turned against the ASIF filter.  ASIF
/// clips advanced-controller commands instead of handing control to the
/// safe controller, so starving `mpr_sc` has much less to bite on — the
/// search's verdict (counterexample or violation-free) is pinned as a
/// report snapshot either way, like the goldens (re-bless with
/// `SOTER_BLESS=1`).
#[test]
fn falsifier_verdict_against_asif_is_pinned() {
    use soter::core::rta::FilterKind;
    let horizon = 15.0;
    let search = |workers: usize| {
        Falsifier::new(
            catalog::stress(13, horizon, false)
                .with_filter(FilterKind::Asif)
                .with_name("stress-asif-falsify"),
            ScheduleSpace {
                nodes: vec!["mpr_sc".into()],
                families: vec![ScheduleFamily::Targeted],
                min_delay: Duration::from_millis(100),
                max_delay: Duration::from_millis(1500),
                max_width: Duration::from_secs_f64(horizon),
                horizon,
            },
            FalsifierConfig {
                budget: 16,
                restarts: 8,
                neighbours: 4,
                workers,
                seed: 7,
            },
        )
    };
    let parallel = search(4).run();
    let sequential = search(1).run();
    assert_eq!(
        parallel, sequential,
        "ASIF falsification must not depend on the worker count"
    );
    // The verdict is meaningful either way, but it must be the pinned one.
    match &parallel.counterexample {
        Some(ce) => assert!(ce.record.safety_violations >= 1, "{ce:?}"),
        None => assert!(parallel.summary().contains("no violation found")),
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/falsify-asif-search.txt"
    );
    let blessing = std::env::var(soter::scenarios::golden::BLESS_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if blessing {
        std::fs::write(path, parallel.summary()).expect("bless the ASIF search report");
    }
    let pinned = std::fs::read_to_string(path)
        .expect("pinned ASIF search report exists (SOTER_BLESS=1 to create it)");
    assert_eq!(
        parallel.summary(),
        pinned,
        "the ASIF falsification verdict drifted from its pinned report"
    );
}

/// The negative control: restricted to schedules inside the Δ-slack
/// tolerance, the same search machinery finds nothing — the stack
/// withstands every in-tolerance schedule the budget can throw at it
/// (the grid itself is pinned violation-free by the
/// `adv-stress-slack-*` goldens).
#[test]
fn in_tolerance_search_finds_no_counterexample() {
    let horizon = 15.0;
    let slack = catalog::stress_delta_slack();
    let falsifier = Falsifier::new(
        catalog::stress(13, horizon, false).with_name("stress-in-tolerance"),
        ScheduleSpace {
            nodes: vec!["mpr_sc".into(), "safe_motion_primitive_dm".into()],
            families: vec![
                ScheduleFamily::Targeted,
                ScheduleFamily::Burst,
                ScheduleFamily::PhaseLocked,
            ],
            min_delay: Duration::from_micros(slack.as_micros() / 4),
            max_delay: slack,
            max_width: Duration::from_secs_f64(horizon),
            horizon,
        },
        FalsifierConfig {
            budget: 8,
            restarts: 8,
            neighbours: 4,
            workers: 4,
            seed: 5,
        },
    );
    let report = falsifier.run();
    assert_eq!(report.evaluations, 8);
    assert!(
        report.counterexample.is_none(),
        "schedules within the Δ-slack tolerance must not crash the stack: {}",
        report.summary()
    );
    // The search still ranks candidates, so the report names the closest
    // schedule for diagnosis.
    assert!(report.best.is_some());
}

/// A schedule space targeting a node that does not exist in the system:
/// candidate schedules never delay anything, so every evaluation produces
/// the same record and no round can find a violation.
fn flat_falsifier(budget: usize) -> Falsifier {
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
        },
    )
}

/// The incumbent-caching regression test: a local-search round evaluates
/// exactly its candidates (`neighbours` perturbations + 1 fresh restart),
/// never the incumbent again — the per-round counts in the move log must
/// account for the whole budget with no extra incumbent re-evaluations.
#[test]
fn search_rounds_never_reevaluate_the_incumbent() {
    // Restart (2) then neighbourhood rounds of exactly neighbours + 1 = 5
    // evaluations until the budget runs out.
    let report = flat_falsifier(17).run();
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
