//! The byte-boundary sweep: every parser that reads bytes from another
//! process or from disk must answer `Ok` or `Err` — never panic — on any
//! truncation or single-bit flip of a valid input.
//!
//! Each valid input (a committed golden, a two-record `REC` stream and the
//! daemon reply wrapping it, a three-entry result-cache segment, a
//! targeted-node and an `iid` counterexample, a stale protocol-v2 `PLAN`
//! line, a `CAMPAIGN` line and an accepted `.vmasm` program) is cut at
//! every byte offset and has every bit flipped in turn.  The sweep is
//! deterministic, so it runs as a plain test in both profiles: release
//! builds wrap integer overflow where debug builds panic.
//!
//! The same goes for sizes: a request line naming a huge scenario × seed
//! matrix must be answered with `ERRREPORT`, not an allocation that
//! aborts the daemon, and a huge `shards=` count must not start a thread
//! per shard.

use soter_scenarios::campaign::RunRecord;
use soter_scenarios::falsify::{
    counterexample_from_text, counterexample_to_text, schedule_from_text,
};
use soter_scenarios::golden::record_from_text;
use soter_scenarios::{ResultCache, ScenarioFingerprint};
use soter_serve::daemon::{parse_report_stats, parse_request, parse_response, Daemon, ServeConfig};
use soter_serve::{CoordMsg, ShardConfig, WorkerMsg};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn record(name: &str, seed: u64) -> RunRecord {
    RunRecord {
        scenario: name.to_string(),
        seed,
        digest: 0x5eed_0000 + seed,
        safety_violations: 0,
        separation_violations: 0,
        invariant_violations: 1,
        mode_switches: 4,
        targets_reached: 3,
        completed: true,
        interventions: 2,
        time_in_sc_ms: 1_250,
    }
}

/// Every truncation of `bytes`, then every single-bit flip, each with a
/// description for the failure message.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|cut| (format!("cut at byte {cut}"), bytes[..cut].to_vec()));
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        (
            format!("bit {} of byte {} flipped", bit % 8, bit / 8),
            flipped,
        )
    });
    cuts.chain(flips)
}

/// Feeds the valid input and every mutation of it to `check`, failing
/// with the mutation's description if `check` panics.
fn sweep(name: &str, valid: &[u8], mut check: impl FnMut(&[u8])) {
    check(valid);
    for (what, input) in mutations(valid) {
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!("{name}: a parser panicked on the input with {what}");
        }
    }
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A fresh scratch directory for segment files.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("soter-byte-boundary-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A segment holding `s0`, `s1` and `s2`, as `ResultCache::insert` writes it.
fn three_entry_segment(path: &Path) -> Vec<u8> {
    let cache = ResultCache::with_segment(16, path).expect("create segment");
    for i in 0..3u64 {
        cache.insert(ScenarioFingerprint(i), &record(&format!("s{i}"), i));
    }
    std::fs::read(path).expect("read segment")
}

/// A canonical counterexample: the committed golden's record under the
/// schedule written by `schedule` lines, plus search statistics.
fn counterexample(golden: &str, schedule: &str) -> String {
    let golden = std::fs::read_to_string(golden_dir().join(golden)).expect("committed golden");
    let text = format!(
        "{golden}{schedule}evaluations = 9\nshrink_steps = 4\n\
         switch_reasons = reach-unsafe:11 state-safer:10\n"
    );
    let parsed = counterexample_from_text(&text).expect("the sample counterexample parses");
    assert_eq!(
        counterexample_to_text(&parsed),
        text,
        "the sample is canonical"
    );
    text
}

/// The shrunk SC-starvation crash class under a targeted-node schedule.
fn targeted_node_counterexample() -> String {
    counterexample(
        "stress-sc-starvation-s13.golden",
        "schedule = targeted-node\nschedule_node = mpr_sc\n\
         schedule_start_us = 8300000\nschedule_width_us = 10380000\n\
         schedule_delay_us = 1180000\n",
    )
}

/// An `iid` schedule section; the tests pair it with the i.i.d. stress
/// run's golden record.
const IID_SCHEDULE: &str = "schedule = iid\nschedule_probability = 0.25\n\
                            schedule_max_delay_us = 300000\nschedule_seed = 42\n";

#[test]
fn no_parser_panics_on_any_truncation_or_bit_flip() {
    let golden = std::fs::read(golden_dir().join("fig12a-rta-s3.golden")).expect("golden");
    sweep("record_from_text", &golden, |bytes| {
        let _ = record_from_text(&lossy(bytes));
    });

    let mut stream = Vec::new();
    for (index, seed) in [(0, 7), (1, 8)] {
        let msg = WorkerMsg::Record {
            index,
            record: record("serve-smoke", seed),
        };
        msg.write_to(&mut stream).expect("write to a Vec");
    }
    sweep("WorkerMsg::read_from", &stream, |mut bytes| {
        // Every message consumes at least one byte, so this ends.
        while let Ok(Some(_)) = WorkerMsg::read_from(&mut bytes) {}
    });

    let mut reply = b"REPORT job runs=2 shards=1 cache=0/2 stolen=0\n".to_vec();
    reply.extend_from_slice(&stream);
    reply.extend_from_slice(b"ENDREPORT job\n");
    let (_, records) = parse_response(&lossy(&reply)).expect("the sample reply parses");
    assert_eq!(records.len(), 2);
    sweep("parse_response", &reply, |bytes| {
        let block = lossy(bytes);
        let _ = parse_response(&block);
        let _ = parse_report_stats(&block);
    });

    let dir = scratch_dir("sweep");
    let path = dir.join("results.seg");
    let segment = three_entry_segment(&path);
    sweep("ResultCache::with_segment", &segment, |bytes| {
        std::fs::write(&path, bytes).expect("rewrite segment");
        if let Err(e) = ResultCache::with_segment(16, &path) {
            panic!("bad segment content surfaced as an I/O error: {e}");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    for text in [
        targeted_node_counterexample(),
        counterexample("stress-jitter-s13.golden", IID_SCHEDULE),
    ] {
        sweep("counterexample_from_text", text.as_bytes(), |bytes| {
            let _ = counterexample_from_text(&lossy(bytes));
        });
    }

    // A plan-cache line as a protocol-v2 peer wrote it: v3 has no `PLAN`
    // message, so both directions refuse it.
    let plan = format!(
        "PLAN 1111222233334444 5555666677778888 9999aaaabbbbcccc 1 {:016x} {:016x} {:016x}\n",
        0.25f64.to_bits(),
        (-1.5f64).to_bits(),
        3.75f64.to_bits()
    );
    assert!(
        CoordMsg::parse(&plan).is_err(),
        "a stale PLAN line is refused"
    );
    assert!(
        WorkerMsg::read_from(&mut plan.as_bytes()).is_err(),
        "a stale PLAN line is refused"
    );
    sweep("stale PLAN line", plan.as_bytes(), |mut bytes| {
        let _ = CoordMsg::parse(&lossy(bytes));
        let _ = WorkerMsg::read_from(&mut bytes);
    });

    let campaign = "CAMPAIGN job-1 scenarios=serve-smoke,planner-rta seeds=1,2,3 shards=4\n";
    assert!(
        parse_request(campaign, 2).is_ok(),
        "the sample request parses"
    );
    sweep("parse_request", campaign.as_bytes(), |bytes| {
        let _ = parse_request(&lossy(bytes), 2);
    });

    let program = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/vm_corpus/accept/surveillance-pd.vmasm"),
    )
    .expect("committed corpus program");
    let verified = soter_vm::parse(&lossy(&program)).map(soter_vm::verify);
    assert!(
        matches!(verified, Ok(Ok(_))),
        "the corpus program is accepted"
    );
    sweep("soter_vm::parse + verify", &program, |bytes| {
        if let Ok(parsed) = soter_vm::parse(&lossy(bytes)) {
            let _ = soter_vm::verify(parsed);
        }
    });
}

/// A probability outside `[0, 1]` (here one bit flip of `0.25`, a NaN
/// and a negative value) is a malformed `iid` schedule: both parsers
/// refuse it instead of building a schedule from it.
#[test]
fn an_iid_schedule_with_a_bad_probability_is_rejected() {
    for bad in ["8.25", "NaN", "-0.5"] {
        let schedule = IID_SCHEDULE.replace("0.25", bad);
        let err = schedule_from_text(&schedule).expect_err("bad probability must be rejected");
        assert!(err.to_string().contains("schedule_probability"), "{err}");
        let text = counterexample("stress-jitter-s13.golden", IID_SCHEDULE)
            .replace(IID_SCHEDULE, &schedule);
        assert!(
            counterexample_from_text(&text).is_err(),
            "probability {bad} in a counterexample"
        );
    }
}

/// One non-UTF-8 byte in the middle entry costs that entry only: the
/// other two load, and the segment stays appendable.
#[test]
fn a_non_utf8_byte_costs_one_segment_entry_and_appends_continue() {
    let dir = scratch_dir("non-utf8");
    let path = dir.join("results.seg");
    let mut segment = three_entry_segment(&path);
    let middle = segment
        .windows(b"scenario = s1".len())
        .position(|w| w == b"scenario = s1")
        .expect("the middle entry");
    segment[middle + "scenario = ".len()] = 0xff;
    std::fs::write(&path, &segment).expect("rewrite segment");

    let reborn = ResultCache::with_segment(16, &path).expect("tolerant reload");
    let stats = reborn.segment_stats();
    assert_eq!(
        (stats.loaded, stats.skipped, stats.truncated),
        (2, 1, false)
    );
    assert_eq!(reborn.lookup(ScenarioFingerprint(0)), Some(record("s0", 0)));
    assert_eq!(reborn.lookup(ScenarioFingerprint(1)), None);
    assert_eq!(reborn.lookup(ScenarioFingerprint(2)), Some(record("s2", 2)));

    reborn.insert(ScenarioFingerprint(9), &record("fresh", 9));
    drop(reborn);
    let again = ResultCache::with_segment(16, &path).expect("reload after append");
    assert_eq!(
        (again.segment_stats().loaded, again.segment_stats().skipped),
        (3, 1)
    );
    assert_eq!(
        again.lookup(ScenarioFingerprint(9)),
        Some(record("fresh", 9))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repeated line in a counterexample is corruption, not a choice of
/// value: the parser must refuse it rather than take the first copy.
#[test]
fn a_counterexample_with_a_duplicated_schedule_line_is_rejected() {
    let text = targeted_node_counterexample() + "schedule_start_us = 1\n";
    let err = counterexample_from_text(&text).expect_err("duplicate must be rejected");
    assert!(
        err.to_string()
            .contains("duplicates field `schedule_start_us`"),
        "{err}"
    );
}

/// A key no counterexample carries (a typo, a flipped bit) must fail
/// loudly instead of being ignored.
#[test]
fn a_counterexample_with_an_unknown_key_is_rejected() {
    let text = targeted_node_counterexample() + "schedule_strat_us = 1\n";
    let err = counterexample_from_text(&text).expect_err("unknown key must be rejected");
    assert!(
        err.to_string()
            .contains("unknown field `schedule_strat_us`"),
        "{err}"
    );
}

/// A 50k × 50k matrix from one ~350 KB request line, once with unknown
/// names and once with a real one: each is refused with `ERRREPORT`
/// before any job is resolved or allocated, and the daemon then answers
/// an ordinary request.
#[test]
fn an_oversized_request_matrix_is_refused_and_serving_continues() {
    let daemon = Daemon::new(ServeConfig {
        shard: ShardConfig {
            worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_soter-worker"))),
            ..ShardConfig::default()
        },
        ..ServeConfig::default()
    });
    let seeds = vec!["0"; 50_000].join(",");
    for name in ["nope", "serve-smoke"] {
        let names = vec![name; 50_000].join(",");
        let line = format!("CAMPAIGN big scenarios={names} seeds={seeds}");
        let response = daemon.handle_request_line(&line);
        assert!(
            response.starts_with("ERRREPORT big ") && response.contains("job bound"),
            "`{name}` matrix: {response}"
        );
    }
    let response = daemon.handle_request_line("CAMPAIGN ok scenarios=serve-smoke shards=1");
    let (id, records) = parse_response(&response).expect("a normal request is answered");
    assert_eq!((id.as_str(), records.len()), ("ok", 1));
}

/// A `shards=` count far above the worker pool is capped at the pool's
/// capacity: the `REPORT` header echoes the capped count, and the records
/// are the in-process campaign's.
#[test]
fn a_huge_shard_count_is_capped_at_the_pool() {
    let daemon = Daemon::new(ServeConfig {
        shard: ShardConfig {
            worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_soter-worker"))),
            ..ShardConfig::default()
        },
        pool_capacity: 2,
        ..ServeConfig::default()
    });
    let line = "CAMPAIGN capped scenarios=serve-smoke seeds=1,2,3 shards=100000";
    let response = daemon.handle_request_line(line);
    assert!(
        response.starts_with("REPORT capped runs=3 shards=2 "),
        "{response}"
    );
    let (_, records) = parse_response(&response).expect("the capped request is answered");
    let (_, request) = parse_request(line, 2).expect("the request parses");
    let in_process = request
        .in_process_campaign()
        .expect("known scenarios")
        .run();
    assert_eq!(records, in_process.records);
}
