//! Daemon-level campaign caching and work-stealing throughput:
//!
//! * `campaign/warm-repeat` — one daemon asked the same campaign twice;
//!   the row is the cold/warm wall-clock ratio.  The warm pass is
//!   answered entirely from the content-addressed result cache (no
//!   worker spawned), so this is the headline speedup of ISSUE 10.
//! * `campaign/warm-golden-suite` — the 30-job golden-suite request at
//!   pinned seeds (the request the repository benchmark's
//!   `catalog-campaign` workload sends), cold against warm.  A warm
//!   request borrows its registry entries, reuses their memoized
//!   fingerprints and copies each record's frame text out of the cache
//!   slot, so it costs a name scan, a cache lookup and a frame copy per
//!   job.  Re-encoding every hit per request would cut this ratio about
//!   twofold, and fingerprinting every job per request again about
//!   threefold more.
//! * `campaign/stolen-straggler` — a campaign with one wedged-slow
//!   worker (sleeping before every job, heartbeats alive), run with work
//!   stealing off and on; the row is the off/on wall-clock ratio, i.e.
//!   how much of the straggler's tail the drained shards rescue.
//!
//! Both rows are *ratios* (unit `x speedup`), not absolute throughput,
//! so they transfer across machines; the committed `BENCH_serve.json`
//! baseline is deliberately blessed as a conservative floor (the gate
//! fails on a >25% drop below it, via the shared direction-aware
//! `regression_gate`).  Results go to `$BENCH_OUT` (default
//! `target/BENCH_serve.json`); `$BENCH_BASELINE` names the committed
//! baseline in CI.  `$BENCH_QUICK=1` shrinks matrices and sleeps.
//!
//! Needs the `soter-worker` binary; on a fresh checkout without it the
//! rows (and the gate) are skipped gracefully.
//!
//! Ratio gating needs one deterministic number per row, not a sample
//! distribution, so this target drives its own loop (`harness = false`).

use soter_bench::{gate_against_env_baseline, write_json, BenchEntry};
use soter_scenarios::catalog;
use soter_serve::daemon::{parse_report_stats, Daemon, ServeConfig};
use soter_serve::worker::{ENV_SLOW_FLAG, ENV_SLOW_MS};
use soter_serve::{worker_binary, CampaignRequest, ShardConfig, ShardCoordinator};
use std::time::Instant;

/// Cold/warm ratio of the same campaign through one daemon.  The warm
/// pass is repeated and the fastest repeat taken (it is microseconds of
/// cache lookups; the first repeat can eat allocator noise).
fn warm_repeat_speedup(seeds: usize, reps: usize) -> (f64, usize, usize) {
    let daemon = Daemon::new(ServeConfig::default());
    let seed_list: Vec<String> = (1..=seeds as u64).map(|s| s.to_string()).collect();
    let line = format!(
        "CAMPAIGN warm scenarios=serve-smoke,planner-rta seeds={} shards=2",
        seed_list.join(",")
    );
    let started = Instant::now();
    let cold_block = daemon.handle_request_line(&line);
    let cold = started.elapsed().as_secs_f64();
    assert!(
        cold_block.starts_with("REPORT "),
        "cold pass failed: {cold_block}"
    );
    let mut warm = f64::INFINITY;
    let mut hits = 0;
    let mut lookups = 0;
    for _ in 0..reps {
        let started = Instant::now();
        let warm_block = daemon.handle_request_line(&line);
        warm = warm.min(started.elapsed().as_secs_f64());
        let (h, l, _) = parse_report_stats(&warm_block).expect("warm stats");
        (hits, lookups) = (h, l);
    }
    assert_eq!(hits, lookups, "warm repeat must be answered from cache");
    (cold / warm.max(1e-9), hits, lookups)
}

/// Cold/warm ratio of the golden-suite request.  Cold is the median over
/// `colds` fresh daemons (a cold request runs 30 simulations and spreads
/// more than a warm one); warm is the fastest of `reps` repeats on the
/// last daemon, each required to be answered entirely from cache.
fn warm_golden_suite_speedup(colds: usize, reps: usize) -> (f64, usize, usize) {
    let names: Vec<String> = catalog::golden_suite()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let line = format!("CAMPAIGN golden scenarios={} shards=2", names.join(","));
    let mut cold_times = Vec::new();
    let mut daemon = None;
    for _ in 0..colds.max(1) {
        let fresh = Daemon::new(ServeConfig {
            pool_capacity: 2,
            ..ServeConfig::default()
        });
        let started = Instant::now();
        let block = fresh.handle_request_line(&line);
        cold_times.push(started.elapsed().as_secs_f64());
        assert!(block.starts_with("REPORT "), "cold pass failed: {block}");
        daemon = Some(fresh);
    }
    cold_times.sort_by(f64::total_cmp);
    let cold = cold_times[cold_times.len() / 2];
    let daemon = daemon.expect("at least one cold pass");
    let mut warm = f64::INFINITY;
    let (mut hits, mut lookups) = (0, 0);
    for _ in 0..reps {
        let started = Instant::now();
        let block = daemon.handle_request_line(&line);
        warm = warm.min(started.elapsed().as_secs_f64());
        (hits, lookups, _) = parse_report_stats(&block).expect("warm stats");
        assert_eq!(
            (hits, lookups),
            (names.len(), names.len()),
            "warm must be all hits"
        );
    }
    (cold / warm.max(1e-9), hits, lookups)
}

/// Off/on wall-clock ratio of a campaign whose slowest worker sleeps
/// `slow_ms` before every job.  The sleep dominates both runs, so the
/// ratio is stable: without stealing the straggler serialises its whole
/// shard; with stealing the drained shards take its tail and the
/// straggler is killed once its kept slice is merged.
fn straggler_speedup(jobs: u64, slow_ms: u64) -> (f64, usize) {
    let run = |steal: bool| {
        let flag = std::env::temp_dir().join(format!(
            "soter-bench-slow-{}-{steal}.flag",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&flag);
        let request = CampaignRequest::new(["serve-smoke"])
            .with_seeds((1..=jobs).collect::<Vec<u64>>())
            .with_shards(4);
        let config = ShardConfig {
            steal,
            worker_env: vec![
                (ENV_SLOW_MS.into(), slow_ms.to_string()),
                (ENV_SLOW_FLAG.into(), flag.display().to_string()),
            ],
            ..ShardConfig::default()
        };
        let started = Instant::now();
        let (report, stats) = ShardCoordinator::new(request)
            .with_config(config)
            .run_detailed()
            .expect("straggler campaign completes");
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(report.records.len(), jobs as usize);
        let _ = std::fs::remove_file(&flag);
        (elapsed, stats.stolen)
    };
    let (off, stolen_off) = run(false);
    assert_eq!(stolen_off, 0, "steal=false must not steal");
    let (on, stolen_on) = run(true);
    (off / on.max(1e-9), stolen_on)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);

    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = {
        let p = std::env::var("BENCH_OUT").unwrap_or_else(|_| "target/BENCH_serve.json".into());
        let path = std::path::PathBuf::from(&p);
        if path.is_absolute() {
            path
        } else {
            workspace_root.join(path)
        }
    };

    if worker_binary().is_err() {
        // Graceful skip (fresh checkout): no rows, no gate — the gate
        // would otherwise fail every baseline entry as missing.
        println!("soter-worker binary not found; serve campaign bench skipped");
        return;
    }

    println!("\n=== Serve campaign: result cache & work stealing ===");
    let mut entries = Vec::new();

    let (speedup, hits, lookups) = if quick {
        warm_repeat_speedup(4, 2)
    } else {
        warm_repeat_speedup(8, 3)
    };
    println!("campaign/warm-repeat       {speedup:>10.1}x  ({hits}/{lookups} cache hits)");
    entries.push(BenchEntry::new(
        "campaign/warm-repeat",
        speedup,
        "x speedup",
    ));

    let (speedup, hits, lookups) = if quick {
        warm_golden_suite_speedup(1, 50)
    } else {
        warm_golden_suite_speedup(3, 300)
    };
    println!("campaign/warm-golden-suite {speedup:>10.1}x  ({hits}/{lookups} cache hits)");
    entries.push(BenchEntry::new(
        "campaign/warm-golden-suite",
        speedup,
        "x speedup",
    ));

    let (speedup, stolen) = if quick {
        straggler_speedup(8, 200)
    } else {
        straggler_speedup(16, 500)
    };
    assert!(stolen > 0, "the stealing run must actually steal");
    println!("campaign/stolen-straggler  {speedup:>10.1}x  ({stolen} jobs stolen)");
    entries.push(BenchEntry::new(
        "campaign/stolen-straggler",
        speedup,
        "x speedup",
    ));

    let meta = [
        ("suite", "serve_campaign".to_string()),
        ("mode", if quick { "quick" } else { "full" }.to_string()),
        (
            "note",
            "cold/warm and steal-off/steal-on wall-clock ratios; committed baseline is a \
             conservative floor, not a measured mean"
                .to_string(),
        ),
    ];
    write_json(&out_path, &meta, &entries).expect("write benchmark report");
    println!("wrote {}", out_path.display());

    gate_against_env_baseline("serve-bench", &workspace_root, &entries);
}
