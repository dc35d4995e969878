//! The shard worker: the process-level counterpart of one campaign worker
//! thread.
//!
//! A worker reads [`CoordMsg`] lines from stdin, resolves each `(scenario
//! name, seed)` job through the catalog, runs it with
//! `run_scenario_cached`, and streams a
//! [`WorkerMsg::Record`] frame per completed job back over stdout.  A
//! ticker thread emits `HB` heartbeats on an interval so the coordinator
//! can tell a busy worker from a wedged one.  Jobs are seed-deterministic,
//! so whatever worker (or re-issued worker) runs a job produces the
//! identical record.
//!
//! Every worker owns exactly one process-local `PlanCache`, shared by
//! every job it runs through `run_scenario_cached`; no plan state crosses
//! the process boundary in either direction.  The cache replays exact
//! query histories, so records stay byte-identical with or without it.
//!
//! Fault-injection knobs for the crash-safety tests are env-driven (see
//! the `ENV_*` constants): a worker can be told to exit abruptly (no
//! `BYE`) or to wedge (stop reading, stop heartbeating) after its N-th
//! record, so the coordinator's EOF and heartbeat-timeout paths can be
//! exercised deterministically from integration tests; a worker can also
//! be made a *straggler* (sleep before every job while heartbeating
//! normally), which only work-stealing — not the failure machinery — can
//! route around.

use crate::protocol::{CoordMsg, WorkerMsg, PROTOCOL_VERSION};
use soter_plan::cache::PlanCache;
use soter_scenarios::campaign::RunRecord;
use soter_scenarios::catalog;
use soter_scenarios::runner::run_scenario_cached;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Heartbeat interval in milliseconds (set by the coordinator).
pub const ENV_HEARTBEAT_MS: &str = "SOTER_WORKER_HEARTBEAT_MS";
/// Fault injection: exit abruptly (no `BYE`, nonzero status) after this
/// many records — simulates a crashed worker.
pub const ENV_EXIT_AFTER: &str = "SOTER_WORKER_EXIT_AFTER";
/// Fault injection: wedge (stop reading, responding and heartbeating,
/// without exiting) after this many records — simulates a hung worker.
pub const ENV_WEDGE_AFTER: &str = "SOTER_WORKER_WEDGE_AFTER";
/// Path of the wedge marker file: a worker only wedges if the file does
/// not exist yet, and creates it when it wedges — so exactly one worker
/// per test wedges and the re-issued replacement runs clean.
pub const ENV_WEDGE_FLAG: &str = "SOTER_WORKER_WEDGE_FLAG";
/// Fault injection: sleep this many milliseconds before *every* job while
/// heartbeating normally — a healthy-but-slow straggler, invisible to the
/// crash/timeout machinery.
pub const ENV_SLOW_MS: &str = "SOTER_WORKER_SLOW_MS";
/// Path of the straggler marker file: like [`ENV_WEDGE_FLAG`], claimed at
/// startup so exactly one worker per test is the straggler.
pub const ENV_SLOW_FLAG: &str = "SOTER_WORKER_SLOW_FLAG";
/// Test knob: announce this protocol version in `HELLO` instead of the
/// real one — simulates a stale worker binary for the coordinator's
/// version-mismatch path.
pub const ENV_FORCE_PROTOCOL: &str = "SOTER_WORKER_FORCE_PROTOCOL";

/// Exit status of a worker that was told to crash via [`ENV_EXIT_AFTER`].
pub const EXIT_AFTER_STATUS: i32 = 17;

/// Worker behaviour knobs (normally read from the environment the
/// coordinator spawned the process with).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Heartbeat interval of the ticker thread.
    pub heartbeat_interval: Duration,
    /// Crash (exit without `BYE`) after this many records.
    pub exit_after: Option<usize>,
    /// Wedge (stop responding without exiting) after this many records.
    pub wedge_after: Option<usize>,
    /// One-shot marker file gating [`WorkerOptions::wedge_after`].
    pub wedge_flag: Option<PathBuf>,
    /// Sleep this long before every job (straggler simulation).
    pub slow_per_job: Option<Duration>,
    /// One-shot marker file gating [`WorkerOptions::slow_per_job`].
    pub slow_flag: Option<PathBuf>,
    /// Announce this protocol version instead of the real one (test knob).
    pub force_protocol: Option<u32>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            heartbeat_interval: Duration::from_millis(100),
            exit_after: None,
            wedge_after: None,
            wedge_flag: None,
            slow_per_job: None,
            slow_flag: None,
            force_protocol: None,
        }
    }
}

impl WorkerOptions {
    /// Reads the options from the process environment.
    pub fn from_env() -> Self {
        let usize_var = |key: &str| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        };
        let mut options = WorkerOptions::default();
        if let Some(ms) = usize_var(ENV_HEARTBEAT_MS) {
            options.heartbeat_interval = Duration::from_millis(ms.max(1) as u64);
        }
        options.exit_after = usize_var(ENV_EXIT_AFTER);
        options.wedge_after = usize_var(ENV_WEDGE_AFTER);
        options.wedge_flag = std::env::var(ENV_WEDGE_FLAG).ok().map(PathBuf::from);
        options.slow_per_job = usize_var(ENV_SLOW_MS).map(|ms| Duration::from_millis(ms as u64));
        options.slow_flag = std::env::var(ENV_SLOW_FLAG).ok().map(PathBuf::from);
        options.force_protocol = std::env::var(ENV_FORCE_PROTOCOL)
            .ok()
            .and_then(|v| v.parse::<u32>().ok());
        options
    }
}

/// Whether a marker-gated fault should fire: only when no marker file has
/// been claimed yet (claiming creates it), so exactly one worker per test
/// takes the fault.
fn claim_flag(flag: &Option<PathBuf>) -> bool {
    match flag {
        None => true,
        Some(flag) => std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(flag)
            .is_ok(),
    }
}

/// Runs the worker protocol over the given streams until `DONE`/EOF and
/// returns the process exit status (0 = clean `BYE`).
///
/// The output sits behind a mutex shared with the heartbeat ticker; every
/// [`WorkerMsg`] is written and flushed under one lock acquisition, so
/// frames never interleave.
pub fn run_worker<R, W>(input: R, output: W, options: WorkerOptions) -> i32
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let output = Arc::new(Mutex::new(output));
    let send = |msg: WorkerMsg| {
        let mut out = output.lock().expect("worker output lock");
        let _ = msg.write_to(&mut *out);
    };
    send(WorkerMsg::Hello {
        version: options.force_protocol.unwrap_or(PROTOCOL_VERSION),
    });
    let alive = Arc::new(AtomicBool::new(true));
    {
        let output = Arc::clone(&output);
        let alive = Arc::clone(&alive);
        let interval = options.heartbeat_interval;
        // The ticker is deliberately detached: it watches `alive` and
        // exits on its next tick once the main loop is done (or wedged).
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if !alive.load(Ordering::Relaxed) {
                break;
            }
            let mut out = output.lock().expect("worker output lock");
            if WorkerMsg::Heartbeat.write_to(&mut *out).is_err() {
                break;
            }
        });
    }
    let plan_cache = Arc::new(PlanCache::new());
    let slow = options
        .slow_per_job
        .filter(|_| claim_flag(&options.slow_flag));
    let mut completed = 0usize;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let msg = match CoordMsg::parse(&line) {
            Ok(msg) => msg,
            Err(e) => {
                send(WorkerMsg::Error {
                    message: e.to_string(),
                });
                alive.store(false, Ordering::Relaxed);
                return 2;
            }
        };
        let CoordMsg::Run {
            index,
            seed,
            scenario,
        } = msg
        else {
            break; // `DONE`
        };
        let Some(spec) = catalog::find(&scenario) else {
            send(WorkerMsg::Error {
                message: format!("unknown catalog scenario `{scenario}`"),
            });
            alive.store(false, Ordering::Relaxed);
            return 2;
        };
        let spec = spec.with_seed(seed);
        if let Some(delay) = slow {
            // Straggler simulation: the ticker keeps heartbeating, so this
            // worker looks perfectly healthy — just slow.
            std::thread::sleep(delay);
        }
        let record = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RunRecord::from_outcome(&run_scenario_cached(&spec, Some(&plan_cache)))
        }));
        let record = match record {
            Ok(record) => record,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic payload".into());
                send(WorkerMsg::Error {
                    message: format!("job #{index} (`{scenario}`) panicked: {message}"),
                });
                alive.store(false, Ordering::Relaxed);
                return 3;
            }
        };
        send(WorkerMsg::Record { index, record });
        completed += 1;
        if options.exit_after == Some(completed) {
            // Crash simulation: die without BYE; the coordinator sees EOF
            // mid-shard and re-issues the rest.
            alive.store(false, Ordering::Relaxed);
            return EXIT_AFTER_STATUS;
        }
        if options.wedge_after == Some(completed) && claim_flag(&options.wedge_flag) {
            // Hang simulation: stop heartbeating and stop responding, but
            // stay alive — only the coordinator's heartbeat timeout can
            // get the shard moving again.
            alive.store(false, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
    send(WorkerMsg::Bye);
    alive.store(false, Ordering::Relaxed);
    0
}

/// Entry point of the `soter-worker` binary: the worker protocol over
/// stdio with env-derived options.
pub fn worker_main() -> i32 {
    run_worker(
        std::io::stdin().lock(),
        std::io::stdout(),
        WorkerOptions::from_env(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_scenarios::runner::run_scenario;
    use std::io::BufReader;

    /// An in-memory `Write` the test can inspect after `run_worker`
    /// returns (the ticker thread keeps a clone; that is fine — the
    /// interval below is far longer than the test).
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

    fn quiet_options() -> WorkerOptions {
        WorkerOptions {
            heartbeat_interval: Duration::from_secs(3600),
            ..WorkerOptions::default()
        }
    }

    fn messages_from(buf: &SharedBuf) -> Vec<WorkerMsg> {
        let bytes = buf.0.lock().unwrap().clone();
        let mut reader = BufReader::new(bytes.as_slice());
        let mut messages = Vec::new();
        while let Some(msg) = WorkerMsg::read_from(&mut reader).unwrap() {
            messages.push(msg);
        }
        messages
    }

    #[test]
    fn worker_runs_jobs_and_streams_records_in_protocol_framing() {
        let input = "RUN 4 11 serve-smoke\nRUN 2 12 serve-smoke\nDONE\n";
        let out = SharedBuf::default();
        let status = run_worker(
            BufReader::new(input.as_bytes()),
            out.clone(),
            quiet_options(),
        );
        assert_eq!(status, 0);
        let messages = messages_from(&out);
        assert_eq!(
            messages[0],
            WorkerMsg::Hello {
                version: PROTOCOL_VERSION
            }
        );
        assert_eq!(*messages.last().unwrap(), WorkerMsg::Bye);
        let records: Vec<(usize, u64)> = messages
            .iter()
            .filter_map(|m| match m {
                WorkerMsg::Record { index, record } => Some((*index, record.seed)),
                _ => None,
            })
            .collect();
        assert_eq!(records, vec![(4, 11), (2, 12)]);
        // Worker-side execution equals in-process execution.
        let direct = RunRecord::from_outcome(&run_scenario(
            &catalog::find("serve-smoke").unwrap().with_seed(11),
        ));
        let WorkerMsg::Record { record, .. } = &messages[1] else {
            panic!("second message must be the first record");
        };
        assert_eq!(*record, direct);
    }

    #[test]
    fn unknown_scenarios_produce_a_fatal_err_not_a_record() {
        let input = "RUN 0 1 no-such-scenario\n";
        let out = SharedBuf::default();
        let status = run_worker(
            BufReader::new(input.as_bytes()),
            out.clone(),
            quiet_options(),
        );
        assert_eq!(status, 2);
        let messages = messages_from(&out);
        assert!(matches!(
            &messages[1],
            WorkerMsg::Error { message } if message.contains("no-such-scenario")
        ));
        assert!(!messages.iter().any(|m| matches!(m, WorkerMsg::Bye)));
    }

    #[test]
    fn exit_after_crashes_without_bye() {
        let input = "RUN 0 1 serve-smoke\nRUN 1 2 serve-smoke\nDONE\n";
        let out = SharedBuf::default();
        let options = WorkerOptions {
            exit_after: Some(1),
            ..quiet_options()
        };
        let status = run_worker(BufReader::new(input.as_bytes()), out.clone(), options);
        assert_eq!(status, EXIT_AFTER_STATUS);
        let messages = messages_from(&out);
        let records = messages
            .iter()
            .filter(|m| matches!(m, WorkerMsg::Record { .. }))
            .count();
        assert_eq!(records, 1, "the crash fires after the first record");
        assert!(!messages.iter().any(|m| matches!(m, WorkerMsg::Bye)));
    }
}
