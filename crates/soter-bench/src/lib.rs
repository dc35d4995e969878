//! Benchmark harness crate for the SOTER reproduction.
//!
//! Three gated benches live under `benches/`, each compared against a
//! committed baseline by the CI bench steps:
//!
//! * `exec_throughput` — executor firings/s and surveillance-stack time per
//!   DM evaluation (`BENCH_runtime.json`);
//! * `falsify` — falsifier schedules/s with and without the plan cache
//!   (`BENCH_falsify.json`);
//! * `serve_campaign` — daemon cold/warm and steal-off/steal-on ratios
//!   (`BENCH_serve.json`).
//!
//! This library provides their tiny JSON reporter and the shared
//! direction-aware regression gate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One measured data point of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark id, e.g. `surveillance/no-trace`.
    pub name: String,
    /// Measured value (e.g. firings per second).
    pub value: f64,
    /// Unit of `value`, e.g. `firings/s`.
    pub unit: String,
}

impl BenchEntry {
    /// Creates an entry.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        BenchEntry {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a benchmark report as pretty-printed JSON.  `meta` carries
/// free-form string fields (suite name, mode, baseline provenance);
/// `entries` the measured data points.
///
/// The workspace carries no JSON dependency, so this format is
/// deliberately small: one object with string metadata and an `entries`
/// array of `{name, value, unit}` objects.
pub fn render_json(meta: &[(&str, String)], entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in meta {
        let _ = writeln!(out, "  \"{}\": \"{}\",", json_escape(k), json_escape(v));
    }
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"value\": {:.1}, \"unit\": \"{}\" }}{comma}",
            json_escape(&e.name),
            e.value,
            json_escape(&e.unit)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes a benchmark report to `path` (see [`render_json`]).
pub fn write_json(
    path: impl AsRef<Path>,
    meta: &[(&str, String)],
    entries: &[BenchEntry],
) -> io::Result<()> {
    fs::write(path, render_json(meta, entries))
}

/// Parses the `entries` array back out of a report produced by
/// [`render_json`] — just enough of a JSON reader for the CI regression
/// gate to compare a fresh run against the committed baseline.
pub fn parse_entries(text: &str) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{ \"name\":") {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let tag = format!("\"{key}\":");
            let rest = &line[line.find(&tag)? + tag.len()..];
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('"') {
                stripped.split('"').next()
            } else {
                rest.split([',', ' ', '}']).next()
            }
        };
        let (Some(name), Some(value), Some(unit)) = (field("name"), field("value"), field("unit"))
        else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        entries.push(BenchEntry::new(name, value, unit));
    }
    entries
}

/// Compares a fresh run against a committed baseline, direction-aware
/// by unit: cost-like rows (unit starting with `ns`) regress by *rising*
/// more than 25%, rate-like rows (everything else — `firings/s`,
/// `schedules/s`, speedup ratios) by *dropping* more than 25%.  A
/// baseline entry missing from the fresh run is also a failure —
/// silently dropping a row would defeat the gate.  Returns one message
/// per failure; empty means the gate passes.
pub fn regression_gate(baseline: &[BenchEntry], fresh: &[BenchEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(f) = fresh.iter().find(|e| e.name == b.name) else {
            failures.push(format!(
                "baseline entry `{}` missing from fresh run",
                b.name
            ));
            continue;
        };
        let lower_is_better = b.unit.starts_with("ns");
        let regressed = if lower_is_better {
            f.value > b.value * 1.25
        } else {
            f.value < b.value * 0.75
        };
        if regressed {
            let direction = if lower_is_better { "rise" } else { "drop" };
            failures.push(format!(
                "{}: {:.1} {} is a >25% {direction} vs baseline {:.1}",
                b.name, f.value, b.unit, b.value
            ));
        }
    }
    failures
}

/// Runs [`regression_gate`] against the baseline file named by the
/// `BENCH_BASELINE` environment variable (resolved relative to
/// `workspace_root` when not absolute) and panics with the collected
/// failures — the shared tail of every `harness = false` bench's CI gate.
/// No-op when `BENCH_BASELINE` is unset.
pub fn gate_against_env_baseline(gate_name: &str, workspace_root: &Path, fresh: &[BenchEntry]) {
    let Ok(baseline_path) = std::env::var("BENCH_BASELINE") else {
        return;
    };
    let path = Path::new(&baseline_path);
    let path = if path.is_absolute() {
        path.to_path_buf()
    } else {
        workspace_root.join(path)
    };
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let failures = regression_gate(&parse_entries(&text), fresh);
    assert!(
        failures.is_empty(),
        "{gate_name} regression gate failed:\n{}",
        failures.join("\n")
    );
    println!("regression gate passed against {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_entries() {
        let entries = vec![
            BenchEntry::new("line/no-trace", 123456.5, "firings/s"),
            BenchEntry::new("surveillance/trace", 42.0, "firings/s"),
        ];
        let text = render_json(&[("suite", "exec_throughput".into())], &entries);
        assert!(text.contains("\"suite\": \"exec_throughput\""));
        let parsed = parse_entries(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "line/no-trace");
        assert!((parsed[0].value - 123456.5).abs() < 0.01);
        assert_eq!(parsed[1].unit, "firings/s");
    }

    #[test]
    fn regression_gate_is_direction_aware_and_flags_missing_rows() {
        let baseline = vec![
            BenchEntry::new("exec/throughput", 1000.0, "firings/s"),
            BenchEntry::new("decision/cost", 100.0, "ns/decision"),
            BenchEntry::new("campaign/warm-repeat", 20.0, "x speedup"),
        ];
        // Within tolerance in both directions: pass.
        let fresh = vec![
            BenchEntry::new("exec/throughput", 800.0, "firings/s"),
            BenchEntry::new("decision/cost", 120.0, "ns/decision"),
            BenchEntry::new("campaign/warm-repeat", 16.0, "x speedup"),
        ];
        assert!(regression_gate(&baseline, &fresh).is_empty());
        // A rate dropping >25%, a cost rising >25%, and a missing row all
        // fail; a cost *dropping* is an improvement, not a failure.
        let fresh = vec![
            BenchEntry::new("exec/throughput", 700.0, "firings/s"),
            BenchEntry::new("decision/cost", 130.0, "ns/decision"),
        ];
        let failures = regression_gate(&baseline, &fresh);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("exec/throughput")));
        assert!(failures.iter().any(|f| f.contains("decision/cost")));
        assert!(failures.iter().any(|f| f.contains("warm-repeat")));
        let improved = vec![
            BenchEntry::new("exec/throughput", 2000.0, "firings/s"),
            BenchEntry::new("decision/cost", 10.0, "ns/decision"),
            BenchEntry::new("campaign/warm-repeat", 40.0, "x speedup"),
        ];
        assert!(regression_gate(&baseline, &improved).is_empty());
    }

    #[test]
    fn escaping_survives_quotes_and_newlines() {
        let text = render_json(&[("note", "a \"quoted\"\nline".into())], &[]);
        assert!(text.contains("a \\\"quoted\\\"\\nline"));
        assert!(parse_entries(&text).is_empty());
    }
}
