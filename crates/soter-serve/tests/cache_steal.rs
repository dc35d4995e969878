//! End-to-end tests for the content-addressed result cache, straggler
//! work-stealing and the worker protocol handshake: real `soter-worker`
//! subprocesses behind a [`Daemon`], with warm repeats required to be
//! byte-identical to cold runs and to the in-process
//! [`Campaign`](soter_scenarios::campaign::Campaign).  Plan caches stay
//! inside each worker process, so nothing here depends on them.

use soter_scenarios::campaign::RunRecord;
use soter_scenarios::catalog;
use soter_scenarios::golden::{golden_path, record_from_text, record_to_text};
use soter_scenarios::{scenario_fingerprint, ResultCache};
use soter_serve::daemon::{parse_report_stats, parse_response, Daemon, ServeConfig};
use soter_serve::worker::{ENV_FORCE_PROTOCOL, ENV_SLOW_FLAG, ENV_SLOW_MS};
use soter_serve::{CampaignRequest, ServeError, ShardConfig, ShardCoordinator};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_soter-worker"))
}

fn test_config() -> ShardConfig {
    ShardConfig {
        worker_bin: Some(worker_bin()),
        ..ShardConfig::default()
    }
}

fn report_bytes(records: &[RunRecord]) -> String {
    records.iter().map(record_to_text).collect()
}

/// The warm-repeat acceptance test: the full 30-scenario golden suite
/// through one daemon twice.  The cold pass misses everything; the warm
/// pass must answer 100% from cache, byte-identical to both the cold
/// pass and the in-process campaign, and at least 10x faster.
#[test]
fn warm_repeat_through_the_daemon_is_all_hits_and_byte_identical() {
    let names: Vec<String> = catalog::golden_suite()
        .into_iter()
        .map(|scenario| scenario.name)
        .collect();
    assert_eq!(names.len(), 30, "the golden suite is the 30-run matrix");
    let in_process = CampaignRequest::new(names.clone())
        .in_process_campaign()
        .unwrap()
        .run();

    let daemon = Daemon::new(ServeConfig {
        shard: test_config(),
        default_shards: 4,
        pool_capacity: 4,
        ..ServeConfig::default()
    });
    let request_line = format!("CAMPAIGN golden scenarios={} shards=4", names.join(","));

    let cold_started = Instant::now();
    let cold_block = daemon.handle_request_line(&request_line);
    let cold_elapsed = cold_started.elapsed();
    let warm_started = Instant::now();
    let warm_block = daemon.handle_request_line(&request_line);
    let warm_elapsed = warm_started.elapsed();

    let (_, cold_records) = parse_response(&cold_block).expect("cold response parses");
    let (_, warm_records) = parse_response(&warm_block).expect("warm response parses");
    let (cold_hits, cold_lookups, _) = parse_report_stats(&cold_block).expect("cold stats");
    let (warm_hits, warm_lookups, _) = parse_report_stats(&warm_block).expect("warm stats");

    assert_eq!(cold_hits, 0, "first pass must run everything");
    assert_eq!(cold_lookups, 30);
    assert_eq!(
        warm_hits, 30,
        "second pass must be answered entirely from cache"
    );
    assert_eq!(warm_lookups, 30);
    assert_eq!(
        report_bytes(&warm_records),
        report_bytes(&cold_records),
        "warm records must be byte-identical to the cold run"
    );
    assert_eq!(
        report_bytes(&warm_records),
        report_bytes(&in_process.records),
        "cached records must be byte-identical to the in-process campaign"
    );
    assert!(
        warm_elapsed * 10 <= cold_elapsed,
        "warm repeat must be >=10x faster (cold {cold_elapsed:?}, warm {warm_elapsed:?})"
    );

    // CI artifact for the cache-smoke job (path overridable via
    // CACHE_REPORT, mirroring the campaign-smoke job).
    let path = std::env::var("CACHE_REPORT").unwrap_or_else(|_| {
        format!(
            "{}/../../target/cache-report.txt",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("report directory");
    }
    let artifact = format!(
        "result-cache warm repeat: 30-run golden suite through one daemon\n\
         cold pass: {cold_hits}/{cold_lookups} cache hits in {cold_elapsed:?}\n\
         warm pass: {warm_hits}/{warm_lookups} cache hits in {warm_elapsed:?}\n\
         warm records byte-identical to cold and in-process: yes\n\
         speedup: {:.1}x\n",
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );
    std::fs::write(&path, artifact).expect("write cache report");
}

/// One request mixing a cached name with an uncached one, fanned out over
/// `seeds=` that include the cached entry's pinned seed: exactly the
/// pinned-seed job hits, every record is byte-identical to the in-process
/// campaign, and the repeat is all hits.
#[test]
fn a_mixed_fan_out_request_hits_only_what_is_cached_and_stays_byte_identical() {
    let daemon = Daemon::new(ServeConfig {
        shard: test_config(),
        default_shards: 2,
        pool_capacity: 2,
        ..ServeConfig::default()
    });
    let pinned = catalog::find("planner-rta").expect("in the registry").seed;
    let first = daemon.handle_request_line("CAMPAIGN first scenarios=planner-rta shards=1");
    assert_eq!(parse_report_stats(&first), Some((0, 1, 0)), "{first}");

    let other = pinned + 4;
    let line = format!("CAMPAIGN mixed scenarios=serve-smoke,planner-rta seeds={pinned},{other}");
    let in_process = CampaignRequest::new(["serve-smoke", "planner-rta"])
        .with_seeds([pinned, other])
        .in_process_campaign()
        .unwrap()
        .run();
    for (pass, expected_hits) in [("cold", 1), ("repeat", 4)] {
        let block = daemon.handle_request_line(&line);
        let (hits, lookups, _) = parse_report_stats(&block).expect("stats");
        assert_eq!((hits, lookups), (expected_hits, 4), "{pass}: {block}");
        let (_, records) = parse_response(&block).expect("response parses");
        assert_eq!(
            report_bytes(&records),
            report_bytes(&in_process.records),
            "{pass} pass must match the in-process campaign"
        );
    }
}

/// A daemon restarted over the same on-disk cache segment starts warm:
/// the repeat campaign is answered without spawning a single worker.
#[test]
fn disk_segment_keeps_the_cache_warm_across_daemon_restarts() {
    let segment = std::env::temp_dir().join(format!("soter-cache-{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&segment);
    let config = ServeConfig {
        shard: test_config(),
        default_shards: 2,
        pool_capacity: 2,
        result_cache_segment: Some(segment.clone()),
        ..ServeConfig::default()
    };
    let request_line = "CAMPAIGN restart scenarios=serve-smoke seeds=1,2,3,4 shards=2";

    let first = Daemon::new(config.clone());
    let cold_block = first.handle_request_line(request_line);
    let (cold_hits, cold_lookups, _) = parse_report_stats(&cold_block).expect("cold stats");
    assert_eq!((cold_hits, cold_lookups), (0, 4));
    drop(first);

    let second = Daemon::new(config);
    let warm_block = second.handle_request_line(request_line);
    let (warm_hits, warm_lookups, _) = parse_report_stats(&warm_block).expect("warm stats");
    assert_eq!(
        (warm_hits, warm_lookups),
        (4, 4),
        "the restarted daemon must answer entirely from the segment"
    );
    let (_, cold_records) = parse_response(&cold_block).unwrap();
    let (_, warm_records) = parse_response(&warm_block).unwrap();
    assert_eq!(report_bytes(&warm_records), report_bytes(&cold_records));
    let _ = std::fs::remove_file(&segment);
}

/// Serving from the cache's stored encoding never leaks non-canonical
/// bytes.  A hand-written segment entry with reordered keys, padded values
/// and upper-case hex loads, and the warm daemon answers it byte-identical
/// to a cold run without a cache; a daemon that fills a segment writes
/// each entry as `CACHE <fingerprint>`, the record's golden text and `END`.
#[test]
fn a_non_canonical_segment_entry_is_served_as_a_cold_run_sends_it() {
    let job = catalog::find("serve-smoke").expect("in the registry");
    let fingerprint = scenario_fingerprint(&job);
    let line = "CAMPAIGN one scenarios=serve-smoke shards=1";
    let frames = |block: &str| block.split_once('\n').expect("a header line").1.to_string();

    let cold = Daemon::new(ServeConfig {
        shard: test_config(),
        result_cache_capacity: 0,
        ..ServeConfig::default()
    })
    .handle_request_line(line);
    let (_, records) = parse_response(&cold).expect("cold response parses");
    let record = &records[0];

    let dir = std::env::temp_dir().join(format!("soter-canonical-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let mangled = dir.join("mangled.seg");
    let entry = format!(
        "CACHE 0x{:016X}\n\
         completed   =   {}\n\
         time_in_sc_ms = {}\n\
         digest = 0x{:016X}\n\
         seed={}\n\
         scenario = {}  \n\
         targets_reached = {}\n\
         mode_switches = {}\n\
         interventions = {}\n\
         invariant_violations = {}\n\
         separation_violations = {}\n\
         safety_violations = {}\n\
         END\n",
        fingerprint.0,
        record.completed,
        record.time_in_sc_ms,
        record.digest,
        record.seed,
        record.scenario,
        record.targets_reached,
        record.mode_switches,
        record.interventions,
        record.invariant_violations,
        record.separation_violations,
        record.safety_violations,
    );
    std::fs::write(&mangled, &entry).expect("write segment");
    let warm = Daemon::new(ServeConfig {
        shard: test_config(),
        result_cache_segment: Some(mangled.clone()),
        ..ServeConfig::default()
    })
    .handle_request_line(line);
    assert_eq!(parse_report_stats(&warm), Some((1, 1, 0)), "{warm}");
    assert_eq!(frames(&warm), frames(&cold));
    assert_eq!(
        std::fs::read_to_string(&mangled).expect("read segment"),
        entry,
        "a hit appends nothing"
    );

    let filled = dir.join("filled.seg");
    let filler = Daemon::new(ServeConfig {
        shard: test_config(),
        result_cache_segment: Some(filled.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(frames(&filler.handle_request_line(line)), frames(&cold));
    assert_eq!(
        std::fs::read_to_string(&filled).expect("read segment"),
        format!("CACHE {fingerprint}\n{}END\n", record_to_text(record))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache entry whose record names another scenario is not served: a
/// wrong-name record planted under a real job's fingerprint counts as a
/// miss, the sharded campaign re-runs the job to its golden record, and
/// the fresh record overwrites the planted one.
#[test]
fn a_cached_record_for_another_job_is_a_miss_and_is_overwritten() {
    let job = catalog::find("planner-rta").expect("in the registry");
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let golden = record_from_text(
        &std::fs::read_to_string(golden_path(&golden_dir, &job)).expect("golden snapshot"),
    )
    .expect("golden parses");
    let fingerprint = scenario_fingerprint(&job);
    let cache = Arc::new(ResultCache::new(16));
    cache.insert(
        fingerprint,
        &RunRecord {
            scenario: "fig12b-surveillance".into(),
            ..golden.clone()
        },
    );
    let (sharded, stats) = ShardCoordinator::new(CampaignRequest::new(["planner-rta"]))
        .with_config(ShardConfig {
            result_cache: Some(Arc::clone(&cache)),
            ..test_config()
        })
        .run_detailed()
        .expect("the campaign re-runs the job");
    assert_eq!(sharded.records, vec![golden.clone()]);
    assert_eq!((stats.cache_hits, stats.cache_lookups), (0, 1));
    assert_eq!(
        cache
            .lookup_job(fingerprint, &job.name, job.seed)
            .map(|entry| entry.record().clone()),
        Some(golden)
    );
}

/// A wedged-slow straggler (alive, heartbeating, but sleeping before
/// every job) no longer paces the campaign: the drained shard steals its
/// tail, the merged report is exactly-once and byte-identical, and the
/// steal counter proves the rescue happened.
#[test]
fn slow_straggler_shard_is_rescued_by_work_stealing() {
    let flag = std::env::temp_dir().join(format!("soter-slow-{}.flag", std::process::id()));
    let _ = std::fs::remove_file(&flag);
    let seeds: Vec<u64> = (1..=12).collect();
    let request = CampaignRequest::new(["serve-smoke"])
        .with_seeds(seeds.clone())
        .with_shards(2);
    let in_process = request.in_process_campaign().unwrap().run();

    let config = ShardConfig {
        worker_env: vec![
            (ENV_SLOW_MS.into(), "400".into()),
            (ENV_SLOW_FLAG.into(), flag.display().to_string()),
        ],
        ..test_config()
    };
    let (sharded, stats) = ShardCoordinator::new(request)
        .with_config(config)
        .run_detailed()
        .expect("campaign completes despite the straggler");

    assert!(
        flag.is_file(),
        "exactly one worker must have claimed the slow flag"
    );
    assert!(
        stats.stolen > 0,
        "the drained shard must steal from the straggler (stats: {stats:?})"
    );
    // Exactly-once: every seed in order, no duplicates, no holes, and
    // byte-identity with the in-process run.
    let got: Vec<u64> = sharded.records.iter().map(|r| r.seed).collect();
    assert_eq!(got, seeds);
    assert_eq!(
        report_bytes(&sharded.records),
        report_bytes(&in_process.records),
        "stolen-tail records must stay byte-identical"
    );
    let _ = std::fs::remove_file(&flag);
}

/// Kill-plan crash recovery and work stealing compose: a worker killed
/// mid-shard while stealing is enabled still yields an exactly-once,
/// byte-identical report across shard splits.
#[test]
fn kill_recovery_composes_with_work_stealing() {
    use soter_serve::KillPlan;
    let request = CampaignRequest::new(["serve-smoke"]).with_seeds([1, 2, 3, 4, 5, 6]);
    let in_process = request.in_process_campaign().unwrap().run();
    for shards in [2usize, 3] {
        let config = ShardConfig {
            kill_plan: Some(KillPlan {
                worker: 0,
                after_records: 1,
            }),
            ..test_config()
        };
        assert!(config.steal, "stealing is on by default");
        let (sharded, _stats) = ShardCoordinator::new(request.clone().with_shards(shards))
            .with_config(config)
            .run_detailed()
            .unwrap_or_else(|e| panic!("{shards}-shard run failed: {e}"));
        assert_eq!(
            report_bytes(&sharded.records),
            report_bytes(&in_process.records),
            "{shards} shards"
        );
    }
}

/// A stale worker binary announcing the wrong protocol version fails the
/// campaign with the named [`ServeError::ProtocolMismatch`] — not a
/// retry loop, not a generic worker error.  Version 2 is the last one
/// with plan-cache frames: such a worker must be refused at `HELLO`,
/// before it can send one.
#[test]
fn stale_worker_protocol_version_is_a_named_mismatch_error() {
    assert_eq!(soter_serve::PROTOCOL_VERSION, 3);
    for stale in [1, 2] {
        let request = CampaignRequest::new(["serve-smoke"]).with_seeds([1, 2]);
        let config = ShardConfig {
            worker_env: vec![(ENV_FORCE_PROTOCOL.into(), stale.to_string())],
            ..test_config()
        };
        let err = ShardCoordinator::new(request)
            .with_config(config)
            .run()
            .expect_err("a stale worker must be rejected by a version-3 coordinator");
        match err {
            ServeError::ProtocolMismatch {
                worker,
                coordinator,
            } => assert_eq!((worker, coordinator), (stale, 3)),
            ref other => panic!("expected ProtocolMismatch, got: {other}"),
        }
        assert!(
            err.to_string().contains("rebuild soter-worker"),
            "the error must tell the operator the fix: {err}"
        );
    }
}
