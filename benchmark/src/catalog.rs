//! `catalog-campaign`: the 30 golden-suite scenarios at their pinned
//! seeds, sent as one `CAMPAIGN` line to a fresh in-process [`Daemon`]
//! (2 shards, a pool of 2 worker processes, memory-only result cache),
//! each cold request followed by a block of warm repeats on the same
//! daemon.  A closed loop with one client.
//!
//! Every response is checked record-for-record against the committed
//! `tests/golden/*.golden` files (read at set-up, never written), and a
//! warm response must be answered entirely from the result cache.

use crate::quiet::{describe, select, QuietLog, Timed};
use crate::stats::Summary;
use crate::{metric, mix, peak_rss_mb, stretch, Report};
use soter_scenarios::campaign::RunRecord;
use soter_scenarios::catalog;
use soter_scenarios::golden::{golden_path, record_from_text};
use soter_serve::daemon::{parse_report_stats, parse_response, Daemon, ServeConfig};
use soter_serve::{worker_binary, ShardConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards per campaign request.
pub const SHARDS: usize = 2;
/// Concurrent worker processes per daemon.
pub const POOL: usize = 2;
/// Warm repeats after each cold request.
const WARM_PER_COLD: usize = 40;
/// Warm repeats timed between two machine-speed probes.
const WARM_WINDOW: usize = 10;
/// Quiet warm samples a run collects at least.
const MIN_WARM: usize = 500;
/// Highest tail percentile reported.  p99 of warm requests spreads 12–20%
/// run to run on the shared reference host, p90 less.
const TAIL_CAP: f64 = 90.0;
/// Quiet cold samples a run collects at least.
const MIN_COLD: usize = 10;

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Locates `soter-worker` (`SOTER_WORKER_BIN`, else next to this
/// executable), failing with instructions instead of skipping.
pub fn locate_worker() -> Result<PathBuf, String> {
    worker_binary().map_err(|e| {
        format!(
            "{e}: the catalog-campaign workload spawns it; build it with \
             `cargo build --release -p soter-serve --bin soter-worker` into this \
             executable's directory (benchmark/run.py does) or set SOTER_WORKER_BIN"
        )
    })
}

/// Everything a catalog run needs before its first timed request.
pub struct Setup {
    /// The worker binary every daemon spawns.
    pub worker: PathBuf,
    /// Golden-suite scenario names, in suite order.
    pub names: Vec<String>,
    /// The committed golden record of each name (parallel to `names`).
    pub goldens: Vec<RunRecord>,
    /// Seed-shuffled suite indices: the scenario order of warm requests.
    pub warm_order: Vec<usize>,
}

impl Setup {
    /// Locates the worker, reads the goldens and derives the warm order.
    pub fn new(seed: u64) -> Result<Setup, String> {
        let worker = locate_worker()?;
        let dir = repo_root().join("tests").join("golden");
        let mut names = Vec::new();
        let mut goldens = Vec::new();
        for scenario in catalog::golden_suite() {
            let path = golden_path(&dir, &scenario);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let record =
                record_from_text(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
            names.push(scenario.name);
            goldens.push(record);
        }
        let mut warm_order: Vec<usize> = (0..names.len()).collect();
        for i in (1..warm_order.len()).rev() {
            let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
            warm_order.swap(i, j);
        }
        let setup = Setup {
            worker,
            names,
            goldens,
            warm_order,
        };
        drop(setup.daemon());
        Ok(setup)
    }

    /// A fresh daemon: empty result cache, empty plan store.
    pub fn daemon(&self) -> Daemon {
        Daemon::new(ServeConfig {
            shard: ShardConfig {
                worker_bin: Some(self.worker.clone()),
                ..ShardConfig::default()
            },
            default_shards: SHARDS,
            pool_capacity: POOL,
            result_cache_capacity: 4096,
            result_cache_segment: None,
        })
    }

    fn line(&self, id: &str, order: &[usize]) -> String {
        let names: Vec<&str> = order.iter().map(|&i| self.names[i].as_str()).collect();
        format!(
            "CAMPAIGN {id} scenarios={} shards={SHARDS}",
            names.join(",")
        )
    }

    /// The cold request: the suite in suite order.
    pub fn cold_line(&self, id: &str) -> String {
        let order: Vec<usize> = (0..self.names.len()).collect();
        self.line(id, &order)
    }

    /// A warm repeat: the same matrix in the seed's shuffled order.
    pub fn warm_line(&self, id: &str) -> String {
        self.line(id, &self.warm_order)
    }

    /// Checks a response block record-for-record against the goldens in
    /// `order`; warm responses must also be served fully from cache.
    /// Returns the header's `(cache hits, lookups, stolen)`.
    pub fn check(
        &self,
        block: &str,
        order: &[usize],
        warm: bool,
    ) -> Result<(usize, usize, usize), String> {
        if block.starts_with("ERRREPORT") {
            return Err(block.trim().to_string());
        }
        let (_, records) = parse_response(block).map_err(|e| e.to_string())?;
        if records.len() != order.len() {
            return Err(format!(
                "{} records for {} scenarios",
                records.len(),
                order.len()
            ));
        }
        for (record, &i) in records.iter().zip(order) {
            if *record != self.goldens[i] {
                return Err(format!(
                    "record of `{}` differs from its golden",
                    self.names[i]
                ));
            }
        }
        let stats = parse_report_stats(block).ok_or("REPORT header without cache stats")?;
        if warm && (stats.0 != order.len() || stats.1 != order.len()) {
            return Err(format!(
                "warm request not served from cache ({}/{})",
                stats.0, stats.1
            ));
        }
        Ok(stats)
    }
}

/// One request, timed; `Err` when it panicked or failed its check.
pub fn request(
    setup: &Setup,
    daemon: &Daemon,
    line: &str,
    order: &[usize],
    warm: bool,
) -> (f64, Result<(usize, usize, usize), String>) {
    let started = Instant::now();
    let block = catch_unwind(AssertUnwindSafe(|| daemon.handle_request_line(line)));
    let elapsed = started.elapsed().as_secs_f64();
    let checked = match block {
        Ok(block) => setup.check(&block, order, warm),
        Err(_) => Err("request panicked".to_string()),
    };
    (elapsed, checked)
}

/// The untraced catalog-campaign run.
pub fn run(setup: &Setup, seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let cold_order: Vec<usize> = (0..setup.names.len()).collect();
    let mut colds: Vec<Timed<f64>> = Vec::new();
    let mut warms: Vec<Timed<f64>> = Vec::new();
    let mut log = QuietLog::default();
    let (mut stolen, mut first_error) = (0usize, None);
    let started = Instant::now();
    let mut before = log.probe();
    for index in 0.. {
        let daemon = setup.daemon();
        let (secs, checked) = request(
            setup,
            &daemon,
            &setup.cold_line(&format!("c{seed}-{index}")),
            &cold_order,
            false,
        );
        report.attempted += 1;
        let mut cold = Vec::new();
        match checked {
            Ok((_, _, s)) => {
                cold.push(secs);
                stolen += s;
            }
            Err(e) => {
                report.failed += 1;
                first_error.get_or_insert(e);
            }
        }
        let after = log.probe();
        colds.push(Timed {
            probes: (before, after),
            samples: cold,
        });
        before = after;
        // Warm repeats of one cycle share their request id, so their
        // responses are byte-identical: the first is checked against the
        // goldens, every later one against the first.  A byte comparison
        // allocates nothing, so checking never disturbs the next request.
        let line = setup.warm_line(&format!("w{seed}-{index}"));
        let mut reference: Option<String> = None;
        for _ in 0..WARM_PER_COLD / WARM_WINDOW {
            let mut warm = Vec::with_capacity(WARM_WINDOW);
            for _ in 0..WARM_WINDOW {
                let started = Instant::now();
                let response = catch_unwind(AssertUnwindSafe(|| daemon.handle_request_line(&line)));
                let secs = started.elapsed().as_secs_f64();
                report.attempted += 1;
                let checked = match (&response, &reference) {
                    (Err(_), _) => Err("request panicked".to_string()),
                    (Ok(r), Some(reference)) if r == reference => Ok(()),
                    (Ok(r), _) => setup.check(r, &setup.warm_order, true).map(|_| ()),
                };
                match checked {
                    Ok(()) => {
                        warm.push(secs * 1e3);
                        if reference.is_none() {
                            reference = response.ok();
                        }
                    }
                    Err(e) => {
                        report.failed += 1;
                        first_error.get_or_insert(e);
                    }
                }
            }
            let after = log.probe();
            warms.push(Timed {
                probes: (before, after),
                samples: warm,
            });
            before = after;
        }
        let (_, cold_ok) = select(&colds, &log, MIN_COLD);
        let (_, warm_ok) = select(&warms, &log, MIN_WARM);
        let elapsed = started.elapsed();
        if (elapsed >= budget && cold_ok && warm_ok) || elapsed >= stretch(budget) {
            break;
        }
    }
    report.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    if let Some(e) = first_error {
        report.line(format!("first failure: {e}"));
    }
    let (cold_windows, cold_filtered) = select(&colds, &log, MIN_COLD);
    let (warm_windows, warm_filtered) = select(&warms, &log, MIN_WARM);
    report.line(format!(
        "cold {}",
        describe(cold_windows.len(), colds.len(), cold_filtered, &log)
    ));
    report.line(format!(
        "warm {}",
        describe(warm_windows.len(), warms.len(), warm_filtered, &log)
    ));
    let cold_s: Vec<f64> = cold_windows
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    let warm_ms: Vec<f64> = warm_windows
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    if cold_s.is_empty() || warm_ms.is_empty() {
        report.line("no successful requests: nothing to report".to_string());
        return report;
    }
    let runs = setup.names.len() as f64;
    let cold = Summary::of(&cold_s, TAIL_CAP);
    let warm = Summary::of(&warm_ms, TAIL_CAP);
    report.line(format!(
        "cold requests: {} of {} scenarios each, median {:.3} s ({} {:.3} s); {stolen} jobs stolen",
        cold.n,
        setup.names.len(),
        cold.p50,
        cold.tail_label(),
        cold.tail
    ));
    report.note(
        "campaign_runs_per_s",
        runs / cold.p50,
        "1/s",
        "records per second of cold requests (median request)",
    );
    report.note(
        "warm_request_p50_ms",
        warm.p50,
        "ms",
        &format!("{} warm samples", warm.n),
    );
    report.note(
        &format!("warm_request_p{}_ms", warm.tail_p),
        warm.tail,
        "ms",
        &warm.tail_label(),
    );
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
        &format!("{} of {} requests", report.failed, report.attempted),
    );
    report.push(metric("throughput_per_s", runs / cold.p50, "1/s"));
    report.push(metric("latency_p50_ms", warm.p50, "ms"));
    report.push(metric("latency_tail_ms", warm.tail, "ms"));
    report
}
