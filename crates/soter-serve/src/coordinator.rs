//! The shard coordinator: fans a campaign's job matrix out to worker
//! subprocesses and merges their streamed records back into deterministic
//! matrix order.
//!
//! One supervisor thread per shard owns that shard's worker process: a
//! feeder thread writes `RUN` lines into the worker's stdin, a reader
//! thread parses [`WorkerMsg`]s off its stdout into a channel, and the
//! supervisor consumes that channel with a heartbeat deadline
//! ([`std::sync::mpsc::Receiver::recv_timeout`]).
//! Three failure signals move a shard through its state machine:
//!
//! 1. **EOF / corrupt frame** — the worker died (crash, kill, truncated
//!    write): reap it and re-issue the shard's remaining jobs to a fresh
//!    worker.
//! 2. **Heartbeat timeout** — no message (not even `HB`) within the
//!    deadline: the worker is wedged; kill, reap, re-issue.
//! 3. **`ERR`** — a deterministic worker-side failure (unknown scenario,
//!    panicking job): re-running cannot help, so the campaign fails with
//!    [`ServeError::Worker`].  A `HELLO` announcing the wrong protocol
//!    version is likewise fatal ([`ServeError::ProtocolMismatch`]):
//!    respawning the same stale binary would announce the same version.
//!
//! # Work stealing
//!
//! Every supervisor shares one steal ledger: per-shard sets of
//! un-merged matrix indices.  A record is forwarded to the merger only
//! when its index is *claimed* (removed) from the owning shard's set, so
//! the sets double as the dedup that makes re-issue idempotent.  When a
//! supervisor's own set drains it does not retire immediately: it steals
//! the tail half of the most-loaded peer's outstanding set (leaving the
//! peer at least one job) and spawns a fresh worker over the stolen
//! indices.  Whichever worker finishes an index first claims it; the
//! loser's duplicate record fails its claim and is dropped, so the merged
//! report never contains duplicates or holes, stolen or not.  Because
//! runs are seed-deterministic, both copies of a raced record are
//! byte-identical anyway.  Stolen-from workers are killed as soon as
//! their supervisor's set drains (the stolen tail is no longer theirs to
//! finish), which is what turns a wedged-slow straggler into bounded
//! wall-clock instead of a campaign-length stall.
//!
//! Only *failed* attempts count toward [`ShardConfig::max_attempts`]: a
//! supervisor that successfully finishes its deal and then steals is
//! helping, not flailing, and must not exhaust its own budget doing so.
//!
//! # Caching
//!
//! With a [`ResultCache`] configured, the coordinator answers whatever
//! the cache already holds before any worker is spawned, shards only the
//! misses ([`plan_shards_over`]), and feeds every fresh record back into
//! the cache after the merge.  Records are merged as [`EncodedRecord`]s:
//! a hit shares the cache slot's encoding and a fresh record is encoded
//! once as it is merged, so the daemon writes every response frame by
//! copying text.  Planner caches stay inside the workers: each worker
//! process keeps one, shared by the jobs it runs, and the coordinator
//! neither collects nor forwards plan state.

use crate::error::ServeError;
use crate::protocol::{CoordMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::shard::{plan_shards_over, CampaignRequest};
use crate::worker::ENV_HEARTBEAT_MS;
use soter_scenarios::campaign::{CampaignReport, RunRecord};
use soter_scenarios::catalog::CatalogJob;
use soter_scenarios::golden::EncodedRecord;
use soter_scenarios::ResultCache;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Overrides where the coordinator looks for the worker binary.
pub const ENV_WORKER_BIN: &str = "SOTER_WORKER_BIN";

/// Locates the `soter-worker` binary: the [`ENV_WORKER_BIN`] environment
/// variable if set, otherwise a sibling of the current executable (which
/// is where cargo places workspace binaries relative to test
/// executables — test binaries live one directory down in `deps/`).
pub fn worker_binary() -> Result<PathBuf, ServeError> {
    if let Ok(path) = std::env::var(ENV_WORKER_BIN) {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(ServeError::WorkerBinary(path))
        };
    }
    let mut dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    if dir.file_name().is_some_and(|name| name == "deps") {
        dir.pop();
    }
    let candidate = dir.join(format!("soter-worker{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(ServeError::WorkerBinary(candidate))
    }
}

/// A counting semaphore bounding how many worker processes run at once;
/// shared across every campaign a daemon multiplexes.
#[derive(Debug)]
pub struct WorkerPool {
    permits: Mutex<usize>,
    available: Condvar,
}

impl WorkerPool {
    /// A pool admitting up to `capacity` concurrent workers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        WorkerPool {
            permits: Mutex::new(capacity.max(1)),
            available: Condvar::new(),
        }
    }

    /// Blocks until a worker slot is free and claims it; the permit
    /// returns to the pool when the guard drops.
    pub fn acquire(&self) -> WorkerPermit<'_> {
        let mut permits = self.permits.lock().expect("worker pool lock");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("worker pool lock");
        }
        *permits -= 1;
        WorkerPermit { pool: self }
    }
}

/// A claimed worker slot (see [`WorkerPool::acquire`]).
#[derive(Debug)]
pub struct WorkerPermit<'a> {
    pool: &'a WorkerPool,
}

impl Drop for WorkerPermit<'_> {
    fn drop(&mut self) {
        let mut permits = self.pool.permits.lock().expect("worker pool lock");
        *permits += 1;
        self.pool.available.notify_one();
    }
}

/// Fault injection for the crash-safety tests: the coordinator kills its
/// `worker`-th spawned process (0-based spawn ordinal, across all shards
/// and re-issues) once that process has delivered `after_records` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Spawn ordinal of the process to kill.
    pub worker: usize,
    /// Records the victim must deliver before the kill fires.
    pub after_records: usize,
}

/// Execution statistics from [`ShardCoordinator::run_detailed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Result-cache lookups performed (one per matrix job when a cache is
    /// configured; zero otherwise).
    pub cache_lookups: usize,
    /// Lookups answered from the result cache (jobs never dispatched to a
    /// worker).
    pub cache_hits: usize,
    /// Matrix indices moved between shards by work stealing.
    pub stolen: usize,
}

/// Shared per-shard outstanding-index sets (see the module docs on work
/// stealing).  Claiming an index removes it from its current owner's set;
/// whichever worker's record claims first is merged, so double-completion
/// across a steal is safe by construction.
#[derive(Debug)]
struct StealLedger {
    shards: Vec<Mutex<BTreeSet<usize>>>,
    stolen: AtomicUsize,
}

impl StealLedger {
    fn new(plan: &[Vec<usize>]) -> Self {
        StealLedger {
            shards: plan
                .iter()
                .map(|indices| Mutex::new(indices.iter().copied().collect()))
                .collect(),
            stolen: AtomicUsize::new(0),
        }
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, BTreeSet<usize>> {
        self.shards[shard].lock().expect("steal ledger lock")
    }

    /// Claims `index` for the merger on behalf of `shard`; `false` means
    /// another attempt (or the thief/victim on the other side of a steal)
    /// already merged it.
    fn claim(&self, shard: usize, index: usize) -> bool {
        self.lock(shard).remove(&index)
    }

    fn is_drained(&self, shard: usize) -> bool {
        self.lock(shard).is_empty()
    }

    fn outstanding(&self, shard: usize) -> Vec<usize> {
        self.lock(shard).iter().copied().collect()
    }

    /// Moves the tail half of the most-loaded peer's outstanding set into
    /// `thief`'s (drained) set; returns how many indices moved.  Peers
    /// with fewer than two outstanding jobs are not robbed — their single
    /// in-flight job is cheaper to await than to duplicate.  Locks are
    /// only ever held one at a time, so concurrent thieves cannot
    /// deadlock; at worst they race for the same victim and the loser
    /// finds a smaller set.
    fn steal_into(&self, thief: usize) -> usize {
        let victim = (0..self.shards.len())
            .filter(|&shard| shard != thief)
            .map(|shard| (self.lock(shard).len(), shard))
            .filter(|&(len, _)| len >= 2)
            .max();
        let Some((_, victim)) = victim else {
            return 0;
        };
        let moved = {
            let mut set = self.lock(victim);
            if set.len() < 2 {
                return 0; // shrank between the scan and the lock
            }
            let keep = set.len() - set.len() / 2;
            let split_at = *set.iter().nth(keep).expect("split point in range");
            set.split_off(&split_at)
        };
        let count = moved.len();
        self.lock(thief).extend(moved);
        self.stolen.fetch_add(count, Ordering::Relaxed);
        count
    }
}

/// Coordinator tuning knobs.
#[derive(Clone)]
pub struct ShardConfig {
    /// Worker binary path; `None` resolves via [`worker_binary`].
    pub worker_bin: Option<PathBuf>,
    /// Heartbeat interval handed to workers (via [`ENV_HEARTBEAT_MS`]).
    pub heartbeat_interval: Duration,
    /// How long a shard supervisor waits without hearing *anything* from
    /// its worker before declaring it wedged and killing it.
    pub heartbeat_timeout: Duration,
    /// Failed worker attempts tolerated per shard before giving up
    /// ([`ServeError::ShardFailed`]); successful attempts (including
    /// steals) are free.
    pub max_attempts: usize,
    /// Bounds concurrent worker processes; shards past the bound queue.
    pub pool: Option<Arc<WorkerPool>>,
    /// Extra environment for spawned workers (fault injection in tests).
    pub worker_env: Vec<(String, String)>,
    /// Coordinator-side fault injection (see [`KillPlan`]).
    pub kill_plan: Option<KillPlan>,
    /// Content-addressed result cache consulted before any worker spawns
    /// and fed every fresh record after the merge.
    pub result_cache: Option<Arc<ResultCache>>,
    /// Whether drained shards steal stragglers' tails (on by default).
    pub steal: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            worker_bin: None,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(10),
            max_attempts: 5,
            pool: None,
            worker_env: Vec::new(),
            kill_plan: None,
            result_cache: None,
            steal: true,
        }
    }
}

/// Splits a [`CampaignRequest`]'s job matrix into shards, runs each shard
/// in a worker subprocess, and merges the streamed records into a
/// [`CampaignReport`] identical (record-for-record) to the in-process
/// [`Campaign::run`](soter_scenarios::campaign::Campaign::run).
pub struct ShardCoordinator {
    request: CampaignRequest,
    config: ShardConfig,
}

impl ShardCoordinator {
    /// A coordinator over `request` with default tuning.
    pub fn new(request: CampaignRequest) -> Self {
        ShardCoordinator {
            request,
            config: ShardConfig::default(),
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the sharded campaign to completion, surviving killed, wedged
    /// and straggling workers by re-issuing (or stealing) their shard's
    /// remaining jobs.
    pub fn run(&self) -> Result<CampaignReport, ServeError> {
        self.run_detailed().map(|(report, _)| report)
    }

    /// [`run`](Self::run), but also reporting cache/steal statistics.
    pub fn run_detailed(&self) -> Result<(CampaignReport, ServeStats), ServeError> {
        let started = Instant::now();
        let merged = self.run_encoded()?;
        let report = CampaignReport {
            records: merged
                .records
                .iter()
                .map(|entry| entry.record().clone())
                .collect(),
            workers: merged.workers,
            wall_clock: started.elapsed().as_secs_f64(),
        };
        Ok((report, merged.stats))
    }

    /// The campaign pipeline behind [`run_detailed`](Self::run_detailed)
    /// and the daemon: every record in matrix order, each encoded once.
    pub(crate) fn run_encoded(&self) -> Result<Merged, ServeError> {
        let jobs = Arc::new(self.request.resolve_jobs()?);
        let mut stats = ServeStats::default();
        let mut slots: Vec<Option<Arc<EncodedRecord>>> = vec![None; jobs.len()];
        // Result-cache prefill: answer what the cache already holds and
        // dispatch only the misses.  Each job carries its fingerprint; the
        // insert after the merge reuses it.
        let missing: Vec<usize> = match &self.config.result_cache {
            Some(cache) => (0..jobs.len())
                .filter(|&index| {
                    stats.cache_lookups += 1;
                    let job = &jobs[index];
                    match cache.lookup_job(job.fingerprint(), job.name(), job.seed()) {
                        Some(entry) => {
                            stats.cache_hits += 1;
                            slots[index] = Some(entry);
                            false
                        }
                        None => true,
                    }
                })
                .collect(),
            None => (0..jobs.len()).collect(),
        };
        let plan = plan_shards_over(&missing, self.request.shards);
        if plan.shards.is_empty() {
            // Nothing to dispatch: the request was empty, or every slot
            // came out of the cache.
            return Ok(Merged {
                records: slots.into_iter().flatten().collect(),
                workers: 0,
                stats,
            });
        }
        let worker_bin = match &self.config.worker_bin {
            Some(path) => path.clone(),
            None => worker_binary()?,
        };
        let ledger = Arc::new(StealLedger::new(&plan.shards));
        let spawn_ordinal = Arc::new(AtomicUsize::new(0));
        let (rec_tx, rec_rx) = mpsc::channel::<(usize, RunRecord)>();
        let supervisors: Vec<_> = (0..plan.shards.len())
            .map(|shard_id| {
                let shard = ShardSupervisor {
                    shard_id,
                    jobs: Arc::clone(&jobs),
                    config: self.config.clone(),
                    worker_bin: worker_bin.clone(),
                    spawn_ordinal: Arc::clone(&spawn_ordinal),
                    ledger: Arc::clone(&ledger),
                };
                let rec_tx = rec_tx.clone();
                std::thread::spawn(move || shard.run(&rec_tx))
            })
            .collect();
        drop(rec_tx);
        // Merge as records stream in, encoding each once.  `slots` is
        // keyed by matrix index; the `is_none` guard makes the merge
        // idempotent end-to-end even if the ledger-level dedup ever let a
        // duplicate through.
        for (index, record) in rec_rx {
            if index < slots.len() && slots[index].is_none() {
                slots[index] = Some(Arc::new(EncodedRecord::new(record)));
            }
        }
        let mut first_error = None;
        for handle in supervisors {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error
                        .get_or_insert_with(|| ServeError::Worker("supervisor panicked".into()));
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }
        let holes = slots.iter().filter(|slot| slot.is_none()).count();
        if holes > 0 {
            return Err(ServeError::Incomplete { missing: holes });
        }
        // Feed the fresh records back so the next run over this matrix is
        // answered without spawning anything.
        if let Some(cache) = &self.config.result_cache {
            for &index in &missing {
                if let Some(entry) = &slots[index] {
                    cache.insert_encoded(jobs[index].fingerprint(), Arc::clone(entry));
                }
            }
        }
        stats.stolen = ledger.stolen.load(Ordering::Relaxed);
        Ok(Merged {
            records: slots.into_iter().map(Option::unwrap).collect(),
            workers: plan.shards.len(),
            stats,
        })
    }
}

/// A merged campaign as [`ShardCoordinator::run_encoded`] returns it.
pub(crate) struct Merged {
    /// Every record in matrix order.
    pub(crate) records: Vec<Arc<EncodedRecord>>,
    /// Shards that ran workers (0 when every record was a cache hit).
    pub(crate) workers: usize,
    pub(crate) stats: ServeStats,
}

/// Events a reader thread forwards from a worker's stdout.
enum Event {
    Msg(WorkerMsg),
    Eof,
    Corrupt(String),
}

/// How one worker attempt ended, as seen by its supervisor.
enum Attempt {
    /// The shard's set drained: every outstanding job was merged (by this
    /// worker or, across a steal, a faster peer).
    Complete,
    /// The worker died or was killed mid-shard; re-issue what remains.
    Retry(String),
    /// A deterministic failure; re-running cannot help.
    Fatal(ServeError),
}

struct ShardSupervisor {
    shard_id: usize,
    jobs: Arc<Vec<CatalogJob>>,
    config: ShardConfig,
    worker_bin: PathBuf,
    spawn_ordinal: Arc<AtomicUsize>,
    ledger: Arc<StealLedger>,
}

impl ShardSupervisor {
    fn run(&self, rec_tx: &Sender<(usize, RunRecord)>) -> Result<(), ServeError> {
        let mut failures = 0;
        let mut last_failure = String::from("never attempted");
        loop {
            if self.ledger.is_drained(self.shard_id) {
                // Our own deal is merged: help a straggler or retire.
                if !self.config.steal || self.ledger.steal_into(self.shard_id) == 0 {
                    return Ok(());
                }
            }
            if failures >= self.config.max_attempts {
                return Err(ServeError::ShardFailed {
                    shard: self.shard_id,
                    attempts: failures,
                    last: last_failure,
                });
            }
            // Hold a pool permit for the whole life of this worker
            // process so a daemon never runs more workers than its pool
            // allows, however many campaigns are in flight.
            let _permit = self.config.pool.as_ref().map(|pool| pool.acquire());
            match self.attempt(rec_tx)? {
                Attempt::Complete => {}
                Attempt::Retry(reason) => {
                    failures += 1;
                    last_failure = reason;
                }
                Attempt::Fatal(error) => return Err(error),
            }
        }
    }

    /// Spawns one worker, feeds it the shard's outstanding jobs, and
    /// consumes its event stream until completion or failure.  The worker
    /// process is always reaped before returning.
    fn attempt(&self, rec_tx: &Sender<(usize, RunRecord)>) -> Result<Attempt, ServeError> {
        let ordinal = self.spawn_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut command = Command::new(&self.worker_bin);
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env(
                ENV_HEARTBEAT_MS,
                self.config.heartbeat_interval.as_millis().to_string(),
            );
        for (key, value) in &self.config.worker_env {
            command.env(key, value);
        }
        let mut child = command.spawn().map_err(ServeError::Spawn)?;

        let outstanding = self.ledger.outstanding(self.shard_id);
        let fed = outstanding.len();
        let stdin = child.stdin.take().expect("worker stdin was piped");
        let feeder = {
            let lines: Vec<String> = outstanding
                .into_iter()
                .map(|index| {
                    CoordMsg::Run {
                        index,
                        seed: self.jobs[index].seed(),
                        scenario: self.jobs[index].name().to_string(),
                    }
                    .to_line()
                })
                .chain([CoordMsg::Done.to_line()])
                .collect();
            std::thread::spawn(move || {
                let mut stdin = stdin;
                for line in lines {
                    // A dead worker breaks the pipe; the event loop will
                    // see the EOF, so write errors are not reported here.
                    if writeln!(stdin, "{line}").is_err() {
                        return;
                    }
                }
                let _ = stdin.flush();
            })
        };

        let stdout = child.stdout.take().expect("worker stdout was piped");
        let (ev_tx, ev_rx) = mpsc::channel::<Event>();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            read_events(&mut reader, &ev_tx);
        });

        let mut delivered = 0usize;
        let outcome = loop {
            match ev_rx.recv_timeout(self.config.heartbeat_timeout) {
                Ok(Event::Msg(WorkerMsg::Hello { version })) => {
                    if version != PROTOCOL_VERSION {
                        break Attempt::Fatal(ServeError::ProtocolMismatch {
                            worker: version,
                            coordinator: PROTOCOL_VERSION,
                        });
                    }
                }
                Ok(Event::Msg(WorkerMsg::Heartbeat)) => {}
                Ok(Event::Msg(WorkerMsg::Record { index, record })) => {
                    delivered += 1;
                    if self.ledger.claim(self.shard_id, index) {
                        let _ = rec_tx.send((index, record));
                    }
                    if let Some(plan) = self.config.kill_plan {
                        if plan.worker == ordinal && delivered >= plan.after_records {
                            break Attempt::Retry(format!(
                                "killed by plan after {delivered} records"
                            ));
                        }
                    }
                    if delivered < fed && self.ledger.is_drained(self.shard_id) {
                        // A thief owns the tail of what this worker was
                        // fed; its remaining output can never be claimed,
                        // so stop waiting (the straggler gets killed on
                        // the way out rather than pacing the campaign).
                        break Attempt::Complete;
                    }
                }
                Ok(Event::Msg(WorkerMsg::Error { message })) => {
                    break Attempt::Fatal(ServeError::Worker(message));
                }
                Ok(Event::Msg(WorkerMsg::Bye)) => {
                    if self.ledger.is_drained(self.shard_id) {
                        break Attempt::Complete;
                    }
                    break Attempt::Retry(format!(
                        "worker said BYE with {} jobs outstanding",
                        self.ledger.outstanding(self.shard_id).len()
                    ));
                }
                Ok(Event::Eof) => {
                    if self.ledger.is_drained(self.shard_id) {
                        // Records all arrived but the worker died before
                        // BYE; the shard is done regardless.
                        break Attempt::Complete;
                    }
                    break Attempt::Retry(format!(
                        "worker EOF with {} jobs outstanding",
                        self.ledger.outstanding(self.shard_id).len()
                    ));
                }
                Ok(Event::Corrupt(message)) => {
                    break Attempt::Retry(format!("corrupt worker stream: {message}"));
                }
                Err(RecvTimeoutError::Timeout) => {
                    break Attempt::Retry(format!(
                        "no heartbeat within {:?}",
                        self.config.heartbeat_timeout
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The reader exited without an Eof event — treat as
                    // one (it only happens if the reader thread died).
                    break Attempt::Retry("worker stream disconnected".into());
                }
            }
        };
        // Reap: kill is a no-op on an exited child, and wait is mandatory
        // either way (no zombie processes).
        let _ = child.kill();
        let _ = child.wait();
        // The kill races the pipe: frames parsed before the worker died
        // may still sit in the event queue.  Harvest any records (the
        // ledger claim keeps this idempotent) so a re-issue does not redo
        // — or worse, double-merge — work that already finished.
        for event in ev_rx.iter() {
            match event {
                Event::Eof | Event::Corrupt(_) => break,
                Event::Msg(WorkerMsg::Record { index, record }) => {
                    if self.ledger.claim(self.shard_id, index) {
                        let _ = rec_tx.send((index, record));
                    }
                }
                Event::Msg(_) => {}
            }
        }
        let _ = reader.join();
        let _ = feeder.join();
        if matches!(outcome, Attempt::Retry(_)) && self.ledger.is_drained(self.shard_id) {
            return Ok(Attempt::Complete);
        }
        Ok(outcome)
    }
}

/// Reader-thread body: parse messages until EOF or a corrupt frame, then
/// terminate the event stream.
fn read_events(reader: &mut dyn BufRead, ev_tx: &Sender<Event>) {
    loop {
        match WorkerMsg::read_from(reader) {
            Ok(Some(msg)) => {
                if ev_tx.send(Event::Msg(msg)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = ev_tx.send(Event::Eof);
                return;
            }
            Err(e) => {
                let _ = ev_tx.send(Event::Corrupt(e.to_string()));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_bounds_concurrent_permits() {
        let pool = Arc::new(WorkerPool::new(2));
        let a = pool.acquire();
        let _b = pool.acquire();
        let third_got_in = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let pool = Arc::clone(&pool);
            let flag = Arc::clone(&third_got_in);
            std::thread::spawn(move || {
                let _c = pool.acquire();
                flag.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!third_got_in.load(Ordering::SeqCst), "pool must block at 2");
        drop(a);
        waiter.join().unwrap();
        assert!(third_got_in.load(Ordering::SeqCst));
    }

    #[test]
    fn missing_worker_binary_is_a_clean_error() {
        let config = ShardConfig {
            worker_bin: Some(PathBuf::from("/nonexistent/soter-worker")),
            ..ShardConfig::default()
        };
        let coordinator =
            ShardCoordinator::new(CampaignRequest::new(["serve-smoke"])).with_config(config);
        // Spawning /nonexistent fails; the supervisor surfaces it rather
        // than hanging or panicking.
        assert!(matches!(
            coordinator.run(),
            Err(ServeError::Spawn(_) | ServeError::WorkerBinary(_))
        ));
    }

    #[test]
    fn empty_requests_merge_to_an_empty_report() {
        let request = CampaignRequest {
            scenarios: Vec::new(),
            seeds: Vec::new(),
            shards: 4,
        };
        let report = ShardCoordinator::new(request).run().unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.workers, 0);
    }

    #[test]
    fn steal_ledger_moves_tail_halves_and_spares_singletons() {
        let ledger = StealLedger::new(&[vec![], vec![0, 1, 2, 3, 4], vec![5]]);
        // Shard 1 holds 5 jobs, shard 2 only 1: the thief robs shard 1 of
        // its tail half and leaves the singleton alone.
        assert_eq!(ledger.steal_into(0), 2);
        assert_eq!(ledger.outstanding(0), vec![3, 4]);
        assert_eq!(ledger.outstanding(1), vec![0, 1, 2]);
        assert_eq!(ledger.stolen.load(Ordering::Relaxed), 2);
        // A claimed (merged) index cannot be claimed again, from either
        // side of the steal.
        assert!(ledger.claim(0, 3));
        assert!(!ledger.claim(0, 3));
        assert!(!ledger.claim(1, 3));
        // Draining continues until only singletons remain anywhere.
        assert!(ledger.claim(0, 4));
        assert_eq!(ledger.steal_into(0), 1);
        assert_eq!(ledger.outstanding(0), vec![2]);
        for index in [0, 1] {
            assert!(ledger.claim(1, index));
        }
        assert!(ledger.claim(0, 2));
        assert_eq!(ledger.steal_into(0), 0, "no peer has two jobs to give");
    }
}
