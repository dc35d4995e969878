//! The SOTER repository benchmark.
//!
//! ```text
//! soter-benchmark --workload <catalog-campaign|falsify-dense|fleet-airspace>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs measure one workload end to end; traced
//! runs (`--trace 1`) print the per-layer ledger (see `ledger.rs`).
//! Human-readable lines come first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.  See
//! `benchmark/README.md` for the metric tables and why each workload
//! exists.

mod catalog;
mod falsify;
mod fleet;
mod ledger;
mod quiet;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of the quiet ones.
const SETUP_REPS: usize = 15;
/// Pause between set-ups, so they sample different moments of the host's
/// noise rather than one burst.
const SETUP_GAP: Duration = Duration::from_millis(20);

/// When a measuring loop stops even without its minimum of quiet samples:
/// at one and a half times the budget, and never past two minutes, so
/// every run ends well inside its time limit.
pub fn stretch(budget: Duration) -> Duration {
    (budget * 3 / 2).min(Duration::from_secs(120))
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The golden suite through a sharded daemon, cold then warm.
    CatalogCampaign,
    /// Whole falsifier searches on the dense pillar mission.
    FalsifyDense,
    /// 8-drone airspaces stepped instant by instant.
    FleetAirspace,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CatalogCampaign,
        Workload::FalsifyDense,
        Workload::FleetAirspace,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogCampaign => "catalog-campaign",
            Workload::FalsifyDense => "falsify-dense",
            Workload::FleetAirspace => "fleet-airspace",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64 of `seed` mixed with `stream`: derives independent,
/// reproducible sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports: operation counts, metrics, and human lines.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, errored or produced wrong output.
    pub failed: u64,
    /// Metrics for the JSON line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a human-readable line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a metric, echoing it as a human-readable line.
    pub fn push(&mut self, m: Metric) {
        self.lines
            .push(format!("{:<36} {:>16.6} {}", m.name, m.value, m.unit));
        self.metrics.push(m);
    }

    /// Records a human-readable named value that is not in the JSON line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, comment: &str) {
        self.lines
            .push(format!("{name:<36} {value:>16.6} {unit}  {comment}"));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Runs `setup` [`SETUP_REPS`] times, each between two machine-speed
/// probes, and returns the median duration (s) of the quiet set-ups with
/// the last set-up.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut log = quiet::QuietLog::default();
    let mut windows = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        std::thread::sleep(SETUP_GAP);
        let before = log.probe();
        let started = Instant::now();
        let value = setup()?;
        let secs = started.elapsed().as_secs_f64();
        windows.push(quiet::Timed {
            probes: (before, log.probe()),
            samples: vec![secs],
        });
        last = Some(value);
    }
    let (kept, _) = quiet::select(&windows, &log, 3);
    let times: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    Ok((stats::median(&times), last.expect("SETUP_REPS is positive")))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: soter-benchmark --workload <catalog-campaign|falsify-dense|fleet-airspace> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return ledger::run(args.workload, args.seed, budget);
    }
    let (setup_s, mut report) = match args.workload {
        Workload::CatalogCampaign => {
            let (setup_s, setup) = timed_setup(|| catalog::Setup::new(args.seed))?;
            (setup_s, catalog::run(&setup, args.seed, budget))
        }
        Workload::FalsifyDense => {
            let (setup_s, setup) = timed_setup(|| Ok(falsify::Setup::new()))?;
            (setup_s, falsify::run(&setup, args.seed, budget))
        }
        Workload::FleetAirspace => {
            let (setup_s, setup) = timed_setup(|| Ok(fleet::Setup::new(args.seed)))?;
            (setup_s, fleet::run(setup, budget))
        }
    };
    report.push(metric("setup_s", setup_s, "s"));
    Ok(report)
}

/// Renders the contract's final JSON line.  Non-finite values cannot be
/// written as JSON numbers; they make the run incorrect instead.
fn json_line(report: &Report) -> String {
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && finite && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("soter-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!(
                "== {} seed={} seconds={} trace={} ({} threads available)",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", json_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("soter-benchmark: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
