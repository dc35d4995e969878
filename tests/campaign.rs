//! Campaign engine integration tests: schedule-independent determinism of
//! the shared-counter fan-out (single-drone and fleet), degenerate
//! campaign configurations, and the CI campaign-smoke matrix (which
//! writes the summary artifact the CI job uploads).

use soter::drone::stack::{AdvancedKind, Protection};
use soter::scenarios::campaign::Campaign;
use soter::scenarios::catalog;
use soter::scenarios::spec::{MissionSpec, Scenario};

/// Four scenario families with short horizons — enough to keep a ≥ 32-run
/// matrix inside the `cargo test` time budget.
fn matrix() -> Vec<Scenario> {
    vec![
        catalog::fig12a(Protection::Rta, 3, 25.0),
        catalog::fig12a(Protection::ScOnly, 3, 25.0),
        catalog::fig5(AdvancedKind::Px4Like, 1, 20.0),
        catalog::planner_rta(5, 6),
    ]
}

/// The acceptance gate of the campaign engine: an 8-worker campaign of
/// ≥ 32 scenario-seed runs completes with per-run results *identical* to
/// sequential execution — same digests, same statistics, same order.
#[test]
fn eight_worker_campaign_matches_sequential_execution() {
    let seeds: Vec<u64> = (1..=8).collect();
    let sequential = Campaign::new(matrix())
        .with_seeds(seeds.clone())
        .with_workers(1)
        .run();
    let parallel = Campaign::new(matrix())
        .with_seeds(seeds)
        .with_workers(8)
        .run();
    assert!(
        sequential.runs() >= 32,
        "the acceptance matrix must cover at least 32 runs, got {}",
        sequential.runs()
    );
    assert_eq!(parallel.runs(), sequential.runs());
    // RunRecord includes the behavioural digest, so this is byte-identical
    // equality of every per-run result, in matrix order.
    assert_eq!(sequential.records, parallel.records);
    assert_eq!(parallel.workers, 8);
}

/// The same scenario + seed digests identically whether it runs alone on
/// the calling thread or inside a worker pool (no ambient state leaks into
/// the runs).
#[test]
fn single_run_digest_matches_campaign_digest() {
    let scenario = catalog::fig12a(Protection::Rta, 3, 25.0).with_seed(5);
    let direct = soter::scenarios::run_scenario(&scenario);
    let campaign = Campaign::new(vec![scenario]).with_workers(8).run();
    assert_eq!(campaign.records.len(), 1);
    assert_eq!(campaign.records[0].digest, direct.digest);
    assert_eq!(campaign.records[0].seed, 5);
    assert_eq!(campaign.workers, 1, "one job runs on one thread");
}

/// Fleet determinism: an 8-worker multi-drone campaign is byte-identical
/// to sequential execution — every drone's trajectory, the φ_sep episode
/// counts and the digests all land in the same records in the same order.
#[test]
fn eight_worker_fleet_campaign_matches_sequential_execution() {
    let scenarios = || {
        vec![
            catalog::airspace_crossing(2, 21, 5.0),
            catalog::airspace_corridor(4, 23, 4.0),
        ]
    };
    let seeds: Vec<u64> = (1..=4).collect();
    let sequential = Campaign::new(scenarios())
        .with_seeds(seeds.clone())
        .with_workers(1)
        .run();
    let parallel = Campaign::new(scenarios())
        .with_seeds(seeds)
        .with_workers(8)
        .run();
    assert_eq!(sequential.runs(), 8);
    assert_eq!(sequential.records, parallel.records);
    // Protected fleets keep both invariants across the whole matrix.
    assert_eq!(
        parallel.total_safety_violations(),
        0,
        "{}",
        parallel.summary()
    );
    assert_eq!(
        parallel.total_separation_violations(),
        0,
        "{}",
        parallel.summary()
    );
}

/// A quick job for scheduling-focused tests (planner queries with an empty
/// query budget finish in microseconds).
fn instant_scenario(name: &str) -> Scenario {
    Scenario::new(name).with_mission(MissionSpec::PlannerQueries {
        queries: 0,
        bug_probability: 0.0,
    })
}

/// Degenerate campaign configurations must terminate cleanly instead of
/// waiting on workers that were never spawned or dividing by zero in the
/// report.  Three cases: a zero worker count, an empty scenario list, and
/// an empty seed list.
#[test]
fn zero_workers_are_clamped_and_the_campaign_completes() {
    let report = Campaign::new(vec![instant_scenario("w0")])
        .with_seeds([1, 2, 3])
        .with_workers(0)
        .run();
    assert_eq!(report.runs(), 3);
    assert_eq!(report.workers, 1, "a zero worker count clamps to one");
    assert!(report.runs_per_second().is_finite());
    // The report names the threads that ran: never more than the jobs.
    let report = Campaign::new(vec![instant_scenario("w8")])
        .with_seeds([1, 2, 3])
        .with_workers(8)
        .run();
    assert_eq!(report.workers, 3, "three jobs start three threads");
    assert!(report.summary().contains("3 runs on 3 workers"));
}

#[test]
fn empty_scenario_list_yields_an_empty_report_without_hanging() {
    // Both with and without a seed fan-out: zero scenarios × anything is
    // zero jobs.
    for seeds in [vec![], vec![1u64, 2, 3]] {
        let report = Campaign::new(Vec::new())
            .with_seeds(seeds)
            .with_workers(4)
            .run();
        assert_eq!(report.runs(), 0);
        assert_eq!(report.workers, 0, "an empty matrix starts no thread");
        assert_eq!(report.total_safety_violations(), 0);
        assert_eq!(
            report.runs_per_second(),
            0.0,
            "an empty report must not divide by zero"
        );
        assert!(report.per_scenario().is_empty());
        // The summary renders (header only) rather than panicking.
        assert!(report.summary().contains("0 runs on 0 workers"));
    }
}

#[test]
fn empty_seed_list_falls_back_to_built_in_seeds() {
    // An empty seed list is *not* "no jobs": it restores each scenario's
    // built-in seed (the documented contract), and the campaign still
    // terminates cleanly.
    let report = Campaign::new(vec![instant_scenario("s").with_seed(77)])
        .with_seeds(Vec::<u64>::new())
        .with_workers(8)
        .run();
    assert_eq!(report.runs(), 1);
    assert_eq!(report.records[0].seed, 77);
}

/// The CI campaign-smoke job: a 3-scenario × 4-seed matrix, with the
/// summary written to `target/campaign-report.txt` (override the location
/// with the `CAMPAIGN_REPORT` environment variable) for artifact upload.
#[test]
fn campaign_smoke_matrix_is_clean_and_writes_the_report() {
    let scenarios = vec![
        catalog::fig12a(Protection::Rta, 3, 25.0),
        catalog::fig12a(Protection::ScOnly, 3, 25.0),
        catalog::planner_rta(5, 6),
    ];
    let report = Campaign::new(scenarios)
        .with_seeds([1, 2, 3, 4])
        .with_workers(4)
        .run();
    assert_eq!(report.runs(), 12);
    // Every scenario in the smoke matrix is protected; the paper's claim is
    // that protection makes the whole matrix violation-free.
    assert_eq!(report.total_safety_violations(), 0, "{}", report.summary());
    assert_eq!(
        report.total_invariant_violations(),
        0,
        "{}",
        report.summary()
    );
    let stats = report.per_scenario();
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|s| s.runs == 4));
    let path = std::env::var("CAMPAIGN_REPORT")
        .unwrap_or_else(|_| format!("{}/target/campaign-report.txt", env!("CARGO_MANIFEST_DIR")));
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("report directory");
    }
    std::fs::write(&path, report.summary()).expect("write campaign report");
}
