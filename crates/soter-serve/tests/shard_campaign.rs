//! End-to-end crash-safety tests for the sharded-campaign machinery: real
//! `soter-worker` subprocesses, killed and wedged mid-campaign, with the
//! merged report required to be byte-identical to the in-process
//! [`Campaign`](soter_scenarios::campaign::Campaign).
//!
//! Cargo builds the crate's binaries for integration tests and exports
//! their paths as `CARGO_BIN_EXE_*`, so these tests always run against
//! the freshly built worker.

use soter_scenarios::campaign::{CampaignReport, RunRecord};
use soter_scenarios::catalog;
use soter_scenarios::golden::record_to_text;
use soter_serve::daemon::{parse_response, read_response, Daemon, ServeConfig};
use soter_serve::worker::{ENV_EXIT_AFTER, ENV_WEDGE_AFTER, ENV_WEDGE_FLAG};
use soter_serve::{CampaignRequest, KillPlan, ShardConfig, ShardCoordinator};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_soter-worker"))
}

fn test_config() -> ShardConfig {
    ShardConfig {
        worker_bin: Some(worker_bin()),
        ..ShardConfig::default()
    }
}

/// The concatenated golden-format text of every record, in matrix order —
/// the bytes this suite compares for identity.
fn report_bytes(records: &[RunRecord]) -> String {
    records.iter().map(record_to_text).collect()
}

fn assert_reports_identical(sharded: &CampaignReport, in_process: &CampaignReport) {
    assert_eq!(
        sharded.records.len(),
        in_process.records.len(),
        "matrix sizes differ"
    );
    for (index, (s, p)) in sharded.records.iter().zip(&in_process.records).enumerate() {
        assert_eq!(s, p, "record #{index} diverged");
    }
    assert_eq!(
        report_bytes(&sharded.records),
        report_bytes(&in_process.records),
        "serialised reports are not byte-identical"
    );
}

/// The acceptance test: the full 30-scenario golden suite, split across
/// 4 worker processes, with one worker killed mid-campaign — and the
/// merged report must be byte-identical to the in-process campaign,
/// golden digests included.
#[test]
fn killed_worker_campaign_is_byte_identical_to_in_process_over_the_golden_suite() {
    let names: Vec<String> = catalog::golden_suite()
        .into_iter()
        .map(|scenario| scenario.name)
        .collect();
    assert_eq!(names.len(), 30, "the golden suite is the 30-run matrix");
    let request = CampaignRequest::new(names).with_shards(4);
    let in_process = request.in_process_campaign().unwrap().run();

    let config = ShardConfig {
        kill_plan: Some(KillPlan {
            worker: 0,
            after_records: 1,
        }),
        ..test_config()
    };
    let sharded = ShardCoordinator::new(request.clone())
        .with_config(config)
        .run()
        .expect("sharded campaign survives the killed worker");

    assert_reports_identical(&sharded, &in_process);
    assert_eq!(sharded.workers, 4);
    // All 30 golden digests survive the kill + re-issue unchanged.
    let digests: Vec<(String, u64)> = sharded
        .records
        .iter()
        .map(|r| (r.scenario.clone(), r.digest))
        .collect();
    let expected: Vec<(String, u64)> = in_process
        .records
        .iter()
        .map(|r| (r.scenario.clone(), r.digest))
        .collect();
    assert_eq!(digests, expected);

    // CI artifact: the merged summary plus a kill-survival stamp (path
    // overridable via SERVE_REPORT, mirroring the campaign-smoke job).
    let path = std::env::var("SERVE_REPORT").unwrap_or_else(|_| {
        format!(
            "{}/../../target/serve-report.txt",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("report directory");
    }
    let mut artifact = String::new();
    artifact.push_str("sharded campaign: 30-run golden suite over 4 worker processes\n");
    artifact.push_str("fault injected: worker #0 killed after 1 record; shard re-issued\n");
    artifact.push_str("merged report byte-identical to in-process Campaign::run: yes\n\n");
    artifact.push_str(&sharded.summary());
    std::fs::write(&path, artifact).expect("write serve report");
}

/// No duplicated and no missing matrix indices under a kill, whichever
/// way the matrix is sharded.
#[test]
fn kill_matrix_has_no_duplicate_or_missing_indices_across_shard_splits() {
    let request = CampaignRequest::new(["serve-smoke"]).with_seeds([1, 2, 3, 4, 5, 6, 7, 8]);
    let in_process = request.in_process_campaign().unwrap().run();
    for shards in [1usize, 2, 4] {
        let config = ShardConfig {
            kill_plan: Some(KillPlan {
                worker: 0,
                after_records: 1,
            }),
            ..test_config()
        };
        let sharded = ShardCoordinator::new(request.clone().with_shards(shards))
            .with_config(config)
            .run()
            .unwrap_or_else(|e| panic!("{shards}-shard run failed: {e}"));
        // Identity with the in-process report implies exactly-once
        // delivery: any duplicate or hole would shift or repeat a seed.
        assert_reports_identical(&sharded, &in_process);
        let seeds: Vec<u64> = sharded.records.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3, 4, 5, 6, 7, 8], "{shards} shards");
    }
}

/// A wedged worker (alive but silent) trips the heartbeat timeout and the
/// shard is re-issued; the marker file makes the replacement run clean.
#[test]
fn wedged_worker_trips_the_heartbeat_timeout_and_the_shard_recovers() {
    let flag = std::env::temp_dir().join(format!("soter-wedge-{}.flag", std::process::id()));
    let _ = std::fs::remove_file(&flag);
    let request = CampaignRequest::new(["serve-smoke"]).with_seeds([1, 2, 3, 4]);
    let in_process = request.in_process_campaign().unwrap().run();
    let config = ShardConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_timeout: Duration::from_millis(500),
        worker_env: vec![
            (ENV_WEDGE_AFTER.into(), "1".into()),
            (ENV_WEDGE_FLAG.into(), flag.display().to_string()),
        ],
        ..test_config()
    };
    let sharded = ShardCoordinator::new(request)
        .with_config(config)
        .run()
        .expect("campaign recovers from the wedged worker");
    assert_reports_identical(&sharded, &in_process);
    assert!(
        flag.is_file(),
        "exactly one worker must have claimed the wedge"
    );
    let _ = std::fs::remove_file(&flag);
}

/// A shard whose workers *keep* dying exhausts its attempt budget and the
/// campaign fails loudly instead of spinning forever.
#[test]
fn repeatedly_crashing_workers_exhaust_the_attempt_budget() {
    let request = CampaignRequest::new(["serve-smoke"]).with_seeds([1, 2, 3]);
    let config = ShardConfig {
        max_attempts: 2,
        // Every attempt crashes after its first record; 3 jobs never
        // finish within 2 attempts.
        worker_env: vec![(ENV_EXIT_AFTER.into(), "1".into())],
        ..test_config()
    };
    let err = ShardCoordinator::new(request)
        .with_config(config)
        .run()
        .expect_err("the shard must give up after max_attempts");
    let message = err.to_string();
    assert!(message.contains("after 2 attempts"), "{message}");
}

/// Starts `Daemon::serve_unix_until` on a fresh socket named after `tag`
/// and waits for the socket to appear.  Set the returned flag to stop the
/// daemon, then join the handle.
#[cfg(unix)]
fn spawn_unix_daemon(
    tag: &str,
    config: ServeConfig,
) -> (
    PathBuf,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let socket =
        std::env::temp_dir().join(format!("soter-serve-{tag}-{}.sock", std::process::id()));
    let daemon = Daemon::new(config);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let socket = socket.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || daemon.serve_unix_until(&socket, stop))
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    (socket, stop, server)
}

/// The daemon over a unix socket: two clients with concurrent campaigns
/// multiplexed over one worker pool, each answer matching the in-process
/// campaign for its own request.
#[cfg(unix)]
#[test]
fn daemon_multiplexes_concurrent_unix_socket_clients_over_one_pool() {
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;

    let (socket, stop, server) = spawn_unix_daemon(
        "multiplex",
        ServeConfig {
            shard: test_config(),
            default_shards: 2,
            pool_capacity: 2,
            ..ServeConfig::default()
        },
    );

    let clients: Vec<_> = [
        (
            "alpha",
            "CAMPAIGN alpha scenarios=serve-smoke seeds=1,2,3,4 shards=2",
        ),
        (
            "beta",
            "CAMPAIGN beta scenarios=serve-smoke,planner-rta seeds=9,10 shards=2",
        ),
    ]
    .into_iter()
    .map(|(id, request_line)| {
        let socket = socket.clone();
        let request_line = request_line.to_string();
        let id = id.to_string();
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&socket).expect("connect to daemon");
            writeln!(stream, "{request_line}").expect("send request");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let block = read_response(&mut reader).expect("read response");
            let (got_id, records) = parse_response(&block).expect("parse response");
            assert_eq!(got_id, id);
            records
        })
    })
    .collect();
    let results: Vec<Vec<RunRecord>> = clients
        .into_iter()
        .map(|handle| handle.join().expect("client thread"))
        .collect();

    stop.store(true, Ordering::Relaxed);
    server.join().unwrap().expect("daemon shut down cleanly");

    let alpha_expected = CampaignRequest::new(["serve-smoke"])
        .with_seeds([1, 2, 3, 4])
        .in_process_campaign()
        .unwrap()
        .run();
    let beta_expected = CampaignRequest::new(["serve-smoke", "planner-rta"])
        .with_seeds([9, 10])
        .in_process_campaign()
        .unwrap()
        .run();
    assert_eq!(results[0], alpha_expected.records);
    assert_eq!(results[1], beta_expected.records);
}

/// Garbage on a live socket: a non-UTF-8 line, a junk verb, a blank line
/// and an unknown scenario each cost only their own line.  Every bad line
/// gets one `ERRREPORT`, the blank line gets nothing, the valid request on
/// the same connection still gets its `REPORT`, and a second connection
/// is served afterwards.
#[cfg(unix)]
#[test]
fn daemon_socket_answers_garbage_lines_and_keeps_serving() {
    use std::io::BufRead;
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;

    let (socket, stop, server) = spawn_unix_daemon(
        "garbage",
        ServeConfig {
            shard: test_config(),
            default_shards: 1,
            pool_capacity: 1,
            ..ServeConfig::default()
        },
    );
    let expected = CampaignRequest::new(["serve-smoke"])
        .with_seeds([3])
        .in_process_campaign()
        .unwrap()
        .run()
        .records;
    let good = b"CAMPAIGN good scenarios=serve-smoke seeds=3 shards=1\n";

    // Closing the write half makes the daemon finish this connection's
    // requests and close it, so reading to EOF sees every reply it sent.
    let mut stream = UnixStream::connect(&socket).expect("connect to daemon");
    stream.write_all(b"\xff\xfe\n").unwrap();
    stream.write_all(b"FLY me to the moon\n").unwrap();
    stream.write_all(b"\n").unwrap();
    stream
        .write_all(b"CAMPAIGN j scenarios=not-a-scenario\n")
        .unwrap();
    stream.write_all(good).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let mut errors = Vec::new();
    let mut reports = Vec::new();
    while !reader.fill_buf().unwrap().is_empty() {
        let block = read_response(&mut reader).expect("a whole response block");
        match parse_response(&block) {
            Ok((id, records)) => reports.push((id, records)),
            Err(_) => errors.push(block),
        }
    }
    errors.sort();
    assert_eq!(errors.len(), 3, "one ERRREPORT per bad line: {errors:?}");
    assert!(errors[0].starts_with("ERRREPORT ? "), "{}", errors[0]);
    assert!(errors[1].starts_with("ERRREPORT ? "), "{}", errors[1]);
    assert!(errors
        .iter()
        .any(|e| e == "ERRREPORT ? request line is not UTF-8\n"));
    assert!(
        errors[2].starts_with("ERRREPORT j ") && errors[2].contains("unknown catalog scenario"),
        "{}",
        errors[2]
    );
    assert_eq!(reports, vec![("good".to_string(), expected.clone())]);

    // A second connection is served as usual.
    let mut stream = UnixStream::connect(&socket).expect("reconnect to daemon");
    stream.write_all(good).unwrap();
    let block = read_response(&mut BufReader::new(stream)).expect("read response");
    assert_eq!(
        parse_response(&block).expect("a REPORT"),
        ("good".to_string(), expected)
    );

    stop.store(true, Ordering::Relaxed);
    server.join().unwrap().expect("daemon shut down cleanly");
}

/// The stdin transport: malformed and unknown-scenario requests get
/// `ERRREPORT` answers while a good request on the same stream still
/// completes.
#[test]
fn daemon_stdin_transport_answers_errors_without_dropping_good_requests() {
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let input = "\
        CAMPAIGN good scenarios=serve-smoke seeds=5,6\n\
        CAMPAIGN bad scenarios=no-such-scenario\n\
        NONSENSE LINE\n";
    let daemon = Daemon::new(ServeConfig {
        shard: test_config(),
        default_shards: 1,
        pool_capacity: 2,
        ..ServeConfig::default()
    });
    let out = SharedBuf::default();
    daemon.serve(BufReader::new(input.as_bytes()), out.clone());

    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    // Responses may arrive in any order; collect the three blocks.
    let mut reader = BufReader::new(text.as_bytes());
    let mut good = None;
    let mut errors = Vec::new();
    for _ in 0..3 {
        let block = read_response(&mut reader).expect("three response blocks");
        match parse_response(&block) {
            Ok((id, records)) => {
                assert_eq!(id, "good");
                good = Some(records);
            }
            Err(e) => errors.push(e.to_string()),
        }
    }
    let expected = CampaignRequest::new(["serve-smoke"])
        .with_seeds([5, 6])
        .in_process_campaign()
        .unwrap()
        .run();
    assert_eq!(good.expect("the good campaign completed"), expected.records);
    assert_eq!(errors.len(), 2);
    assert!(errors
        .iter()
        .any(|e| e.contains("unknown catalog scenario")));
}
