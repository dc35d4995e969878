//! The `soter-serve` daemon: a long-running service accepting campaign
//! requests over stdin or a unix socket and answering with merged,
//! matrix-ordered reports.
//!
//! ## Request / response grammar
//!
//! One request per line:
//!
//! ```text
//! CAMPAIGN <id> scenarios=<name>[,<name>…] [seeds=<n>[,<n>…]] [shards=<n>]
//! ```
//!
//! `<id>` is an opaque client-chosen token echoed back in the response, so
//! a client multiplexing several campaigns over one connection can match
//! answers to questions.  The response is a single atomic block:
//!
//! ```text
//! REPORT <id> runs=<n> shards=<n> cache=<hits>/<lookups> stolen=<n>
//! …one `REC <index>` record frame per record, ascending index…
//! ENDREPORT <id>
//! ```
//!
//! or, on failure, the single line `ERRREPORT <id> <message>`.  The record
//! frames are the worker protocol's, written by [`write_frame`] and read
//! back by [`read_frame`], so the same strict parser validates both hops.
//! A request line that is not UTF-8 gets `ERRREPORT ? …` like any other
//! malformed request, and the connection keeps serving.
//!
//! The `cache=` token reports result-cache hits over lookups for this
//! campaign and `stolen=` how many jobs moved between shards by work
//! stealing; clients that predate these tokens still parse the header
//! ([`parse_response`] ignores trailing header tokens after the id).
//!
//! Every accepted campaign runs on its own thread, but all campaigns —
//! across all clients and both transports — share one [`WorkerPool`], so
//! the daemon never exceeds its configured number of concurrent worker
//! processes no matter how many clients connect.  They likewise share one
//! [`ResultCache`] — so repeating a campaign (or one overlapping an
//! earlier matrix) is answered from cache with byte-identical records —
//! and one [`PlanStore`], so no worker replans a planner query any
//! earlier worker of any campaign already solved.

use crate::coordinator::{PlanStore, ServeStats, ShardConfig, ShardCoordinator, WorkerPool};
use crate::error::ServeError;
use crate::shard::CampaignRequest;
use soter_scenarios::campaign::{CampaignReport, RunRecord};
use soter_scenarios::golden::{read_frame, write_frame};
use soter_scenarios::ResultCache;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Coordinator tuning applied to every campaign (its `pool` field is
    /// replaced by the daemon's shared pool).
    pub shard: ShardConfig,
    /// Shard count used when a request omits `shards=`.
    pub default_shards: usize,
    /// Concurrent worker processes across all in-flight campaigns.
    pub pool_capacity: usize,
    /// In-memory result-cache capacity (records); `0` disables the
    /// daemon's result cache entirely.
    pub result_cache_capacity: usize,
    /// Optional append-only on-disk segment backing the result cache:
    /// loaded (tolerantly — corrupt entries skipped, torn tails
    /// truncated) at startup, appended to as campaigns complete, so a
    /// restarted daemon starts warm.
    pub result_cache_segment: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shard: ShardConfig::default(),
            default_shards: 2,
            pool_capacity: 4,
            result_cache_capacity: 4096,
            result_cache_segment: None,
        }
    }
}

/// The campaign service: parses requests, runs sharded campaigns through
/// a shared worker pool, renders responses.  Cloning shares the pool.
#[derive(Clone)]
pub struct Daemon {
    config: ServeConfig,
    pool: Arc<WorkerPool>,
    result_cache: Option<Arc<ResultCache>>,
    plan_store: Arc<PlanStore>,
}

impl Daemon {
    /// A daemon with the given configuration.  A segment path that cannot
    /// be opened degrades to a memory-only cache rather than refusing to
    /// serve (the daemon is the long-lived component; a bad cache path
    /// should cost warmth, not availability).
    pub fn new(config: ServeConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.pool_capacity));
        let result_cache = if config.result_cache_capacity == 0 {
            None
        } else {
            let capacity = config.result_cache_capacity;
            Some(Arc::new(match &config.result_cache_segment {
                Some(path) => ResultCache::with_segment(capacity, path)
                    .unwrap_or_else(|_| ResultCache::new(capacity)),
                None => ResultCache::new(capacity),
            }))
        };
        Daemon {
            config,
            pool,
            result_cache,
            plan_store: Arc::new(PlanStore::new()),
        }
    }

    /// The daemon's shared result cache (`None` when disabled).
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.result_cache.as_ref()
    }

    /// The daemon's shared planner-cache store.
    pub fn plan_store(&self) -> &Arc<PlanStore> {
        &self.plan_store
    }

    /// Handles one request line end-to-end and returns the full response
    /// block (always newline-terminated, ready to write atomically).
    pub fn handle_request_line(&self, line: &str) -> String {
        let (id, request) = match parse_request(line, self.config.default_shards) {
            Ok(parsed) => parsed,
            Err(e) => return format!("ERRREPORT ? {e}\n"),
        };
        let mut shard_config = self.config.shard.clone();
        shard_config.pool = Some(Arc::clone(&self.pool));
        shard_config.result_cache = self.result_cache.clone();
        shard_config.plan_store = Some(Arc::clone(&self.plan_store));
        let shards = request.shards;
        match ShardCoordinator::new(request)
            .with_config(shard_config)
            .run_detailed()
        {
            Ok((report, stats)) => render_report(&id, shards, &report, stats),
            Err(e) => format!("ERRREPORT {id} {e}\n"),
        }
    }

    /// Serves requests from `input`, writing responses to `output`, until
    /// end-of-stream.  Each campaign runs on its own thread; response
    /// blocks are written under a lock so concurrent campaigns never
    /// interleave their frames.
    pub fn serve<R, W>(&self, mut input: R, output: W)
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        let output = Arc::new(Mutex::new(output));
        let mut in_flight = Vec::new();
        let mut line = Vec::new();
        while matches!(input.read_until(b'\n', &mut line), Ok(n) if n > 0) {
            let request = String::from_utf8(std::mem::take(&mut line));
            if request.as_ref().is_ok_and(|text| text.trim().is_empty()) {
                continue;
            }
            let daemon = self.clone();
            let output = Arc::clone(&output);
            in_flight.push(std::thread::spawn(move || {
                let response = match request {
                    Ok(text) => daemon.handle_request_line(&text),
                    Err(_) => "ERRREPORT ? request line is not UTF-8\n".to_string(),
                };
                let mut out = output.lock().expect("daemon output lock");
                let _ = out.write_all(response.as_bytes());
                let _ = out.flush();
            }));
        }
        for handle in in_flight {
            let _ = handle.join();
        }
    }

    /// Serves requests on a unix socket at `path` until `stop` is set
    /// (checked between accepted connections).  Each connection gets its
    /// own thread; campaigns still share the daemon's worker pool.
    #[cfg(unix)]
    pub fn serve_unix_until(&self, path: &Path, stop: Arc<AtomicBool>) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        // A polling accept loop: without it, a stop request would block
        // behind accept() forever.
        listener.set_nonblocking(true)?;
        let mut clients = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let daemon = self.clone();
                    clients.push(std::thread::spawn(move || {
                        let Ok(writer) = stream.try_clone() else {
                            return;
                        };
                        daemon.serve(BufReader::new(stream), writer);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        for handle in clients {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// Parses a `CAMPAIGN` request line into its client id and request.
pub fn parse_request(
    line: &str,
    default_shards: usize,
) -> Result<(String, CampaignRequest), ServeError> {
    let line = line.trim();
    let rest = line
        .strip_prefix("CAMPAIGN ")
        .ok_or_else(|| ServeError::Request(format!("expected `CAMPAIGN …`, got `{line}`")))?;
    let mut parts = rest.split_whitespace();
    let id = parts
        .next()
        .ok_or_else(|| ServeError::Request("missing campaign id".into()))?
        .to_string();
    let mut scenarios: Option<Vec<String>> = None;
    let mut seeds: Vec<u64> = Vec::new();
    let mut shards = default_shards;
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| ServeError::Request(format!("expected `key=value`, got `{part}`")))?;
        match key {
            "scenarios" => {
                scenarios = Some(
                    value
                        .split(',')
                        .filter(|name| !name.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "seeds" => {
                seeds = value
                    .split(',')
                    .filter(|seed| !seed.is_empty())
                    .map(|seed| {
                        seed.parse::<u64>()
                            .map_err(|_| ServeError::Request(format!("bad seed `{seed}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "shards" => {
                shards = value
                    .parse::<usize>()
                    .map_err(|_| ServeError::Request(format!("bad shard count `{value}`")))?;
            }
            other => {
                return Err(ServeError::Request(format!("unknown field `{other}`")));
            }
        }
    }
    let scenarios =
        scenarios.ok_or_else(|| ServeError::Request("missing `scenarios=` field".into()))?;
    if scenarios.is_empty() {
        return Err(ServeError::Request("empty `scenarios=` field".into()));
    }
    Ok((
        id,
        CampaignRequest {
            scenarios,
            seeds,
            shards,
        },
    ))
}

/// Renders a merged report as one atomic response block.
fn render_report(id: &str, shards: usize, report: &CampaignReport, stats: ServeStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "REPORT {id} runs={} shards={} cache={}/{} stolen={}",
        report.records.len(),
        shards,
        stats.cache_hits,
        stats.cache_lookups,
        stats.stolen,
    );
    for (index, record) in report.records.iter().enumerate() {
        write_frame(&mut out, format_args!("REC {index}"), record);
    }
    let _ = writeln!(out, "ENDREPORT {id}");
    out
}

/// Reads one full response block from `input` (through `ENDREPORT` or
/// `ERRREPORT`).  A client-side helper; returns the raw block text.
pub fn read_response(input: &mut dyn BufRead) -> std::io::Result<String> {
    let mut block = String::new();
    loop {
        let mut line = String::new();
        if input.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let terminal = line.starts_with("ENDREPORT ") || line.starts_with("ERRREPORT ");
        block.push_str(&line);
        if terminal {
            return Ok(block);
        }
    }
}

/// Parses a response block back into `(id, records)`; `ERRREPORT` blocks
/// come back as [`ServeError::Worker`] carrying the message.
pub fn parse_response(block: &str) -> Result<(String, Vec<RunRecord>), ServeError> {
    let (header, mut rest) = block.split_once('\n').unwrap_or((block, ""));
    if let Some(error) = header.strip_prefix("ERRREPORT ") {
        let message = error.split_once(' ').map(|(_, m)| m).unwrap_or(error);
        return Err(ServeError::Worker(message.to_string()));
    }
    let id = header
        .strip_prefix("REPORT ")
        .ok_or_else(|| ServeError::Request(format!("expected `REPORT …`, got `{header}`")))?
        .split_whitespace()
        .next()
        .ok_or_else(|| ServeError::Request("missing response id".into()))?
        .to_string();
    let mut records = Vec::new();
    while !rest.is_empty() {
        let (line, body) = rest.split_once('\n').unwrap_or((rest, ""));
        if line.starts_with("ENDREPORT ") {
            return Ok((id, records));
        }
        let index = line
            .strip_prefix("REC ")
            .and_then(|i| i.parse::<usize>().ok());
        if index != Some(records.len()) {
            return Err(ServeError::Request(format!(
                "expected `REC {}`, got `{line}`",
                records.len()
            )));
        }
        let (consumed, record) = read_frame(&mut body.as_bytes());
        records.push(record.map_err(|e| ServeError::Request(e.to_string()))?);
        rest = &body[consumed..];
    }
    Err(ServeError::Request(
        "response block missing ENDREPORT".into(),
    ))
}

/// Extracts `(cache_hits, cache_lookups, stolen)` from a response
/// block's `REPORT` header; `None` for error blocks or headers from
/// daemons that predate the tokens.
pub fn parse_report_stats(block: &str) -> Option<(usize, usize, usize)> {
    let header = block.lines().next()?.strip_prefix("REPORT ")?;
    let mut cache: Option<(usize, usize)> = None;
    let mut stolen: Option<usize> = None;
    for token in header.split_whitespace() {
        if let Some(value) = token.strip_prefix("cache=") {
            let (hits, lookups) = value.split_once('/')?;
            cache = Some((hits.parse().ok()?, lookups.parse().ok()?));
        } else if let Some(value) = token.strip_prefix("stolen=") {
            stolen = Some(value.parse().ok()?);
        }
    }
    let (hits, lookups) = cache?;
    Some((hits, lookups, stolen?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults_and_reject_junk() {
        let (id, request) = parse_request(
            "CAMPAIGN job-1 scenarios=serve-smoke,planner-rta seeds=1,2,3 shards=4",
            2,
        )
        .unwrap();
        assert_eq!(id, "job-1");
        assert_eq!(request.scenarios, vec!["serve-smoke", "planner-rta"]);
        assert_eq!(request.seeds, vec![1, 2, 3]);
        assert_eq!(request.shards, 4);

        let (_, request) = parse_request("CAMPAIGN j scenarios=serve-smoke", 3).unwrap();
        assert_eq!(request.shards, 3, "default shard count applies");
        assert!(request.seeds.is_empty());

        for bad in [
            "HELLO",
            "CAMPAIGN",
            "CAMPAIGN j",
            "CAMPAIGN j scenarios=",
            "CAMPAIGN j scenarios=a seeds=x",
            "CAMPAIGN j scenarios=a shards=q",
            "CAMPAIGN j scenarios=a frobnicate=1",
        ] {
            assert!(parse_request(bad, 2).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn reports_render_and_parse_round_trip() {
        let report = CampaignReport {
            records: vec![
                RunRecord {
                    scenario: "serve-smoke".into(),
                    seed: 7,
                    digest: 1,
                    safety_violations: 0,
                    separation_violations: 0,
                    invariant_violations: 0,
                    mode_switches: 1,
                    targets_reached: 2,
                    completed: true,
                    interventions: 1,
                    time_in_sc_ms: 750,
                },
                RunRecord {
                    scenario: "serve-smoke".into(),
                    seed: 8,
                    digest: 2,
                    safety_violations: 0,
                    separation_violations: 0,
                    invariant_violations: 0,
                    mode_switches: 1,
                    targets_reached: 2,
                    completed: true,
                    interventions: 1,
                    time_in_sc_ms: 750,
                },
            ],
            workers: 1,
            wall_clock: 0.0,
        };
        let block = render_report("abc", 1, &report, ServeStats::default());
        let mut reader = std::io::BufReader::new(block.as_bytes());
        let read_back = read_response(&mut reader).unwrap();
        assert_eq!(read_back, block, "read_response captures the whole block");
        let (id, records) = parse_response(&block).unwrap();
        assert_eq!(id, "abc");
        assert_eq!(records, report.records);
    }

    #[test]
    fn report_stats_tokens_round_trip_and_degrade_gracefully() {
        let report = CampaignReport {
            records: Vec::new(),
            workers: 0,
            wall_clock: 0.0,
        };
        let stats = ServeStats {
            cache_lookups: 6,
            cache_hits: 4,
            stolen: 2,
            plan_entries: 0,
        };
        let block = render_report("abc", 1, &report, stats);
        assert_eq!(parse_report_stats(&block), Some((4, 6, 2)));
        // Old-format headers and error blocks yield None, not a panic.
        assert_eq!(parse_report_stats("REPORT abc runs=0 shards=1\n"), None);
        assert_eq!(parse_report_stats("ERRREPORT abc boom\n"), None);
        // New tokens do not break the pre-token response parser.
        let (id, records) = parse_response(&block).unwrap();
        assert_eq!(id, "abc");
        assert!(records.is_empty());
    }

    #[test]
    fn error_responses_surface_the_message() {
        let err = parse_response("ERRREPORT job-9 unknown catalog scenario `zzz`\n").unwrap_err();
        assert!(err.to_string().contains("unknown catalog scenario"));
    }

    #[test]
    fn malformed_requests_get_an_errreport_without_running_anything() {
        let daemon = Daemon::new(ServeConfig::default());
        let response = daemon.handle_request_line("CAMPAIGN j scenarios=not-a-scenario");
        assert!(response.starts_with("ERRREPORT j "), "{response}");
        assert!(response.contains("unknown catalog scenario"));
        let response = daemon.handle_request_line("NONSENSE");
        assert!(response.starts_with("ERRREPORT ? "), "{response}");
    }

    /// A shared byte sink, so a test can read what `serve` wrote.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One non-UTF-8 line gets its own `ERRREPORT` and the session goes
    /// on: the request after it is still answered.
    #[test]
    fn a_non_utf8_request_line_is_answered_and_serving_continues() {
        let daemon = Daemon::new(ServeConfig::default());
        let sink = Sink::default();
        daemon.serve(
            &b"\xff\xfe\nCAMPAIGN j scenarios=not-a-scenario\n"[..],
            sink.clone(),
        );
        let written = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let mut blocks: Vec<&str> = written.lines().collect();
        blocks.sort_unstable();
        assert_eq!(blocks.len(), 2, "{written}");
        assert!(blocks[0].starts_with("ERRREPORT ? "), "{written}");
        assert!(blocks[0].contains("not UTF-8"), "{written}");
        assert!(blocks[1].starts_with("ERRREPORT j "), "{written}");
        assert!(blocks[1].contains("unknown catalog scenario"), "{written}");
    }
}
