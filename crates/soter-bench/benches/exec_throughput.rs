//! Executor hot-path throughput: node firings per second of wall-clock
//! time, measured on three workloads spanning the repo's scale axis:
//!
//! * `line` — the 1-D line system (3-node RTA module + plant), the
//!   cheapest possible nodes, so the measurement is almost pure executor
//!   overhead;
//! * `surveillance` — the Fig. 12b full stack (plant + app + three RTA
//!   modules), the paper's flagship workload;
//! * `airspace8` — an 8-drone crossing airspace (40 nodes, scoped topics,
//!   peer-separation oracles), the fleet-scale stress case.
//!
//! Each workload runs with trace recording off (the campaign/falsifier
//! configuration) and on.  The `surveillance-per-dm/<filter>` rows divide
//! whole surveillance-stack wall time by DM evaluations under each safety
//! filter (see `measure_per_dm_ns`).  Results are written as JSON (see
//! `soter_bench::write_json`) to `$BENCH_OUT` (default
//! `target/BENCH_runtime.json`); when `$BENCH_BASELINE` names a committed
//! report, same-name entries are compared and a >25% throughput regression
//! fails the run — the CI `bench-smoke` gate.  `$BENCH_QUICK=1` shortens
//! the simulated horizons for CI.
//!
//! Throughput gating needs one deterministic number per workload, not a
//! sample distribution, so this target drives the measurement loop
//! directly (`harness = false`).

use soter_bench::{gate_against_env_baseline, write_json, BenchEntry};
use soter_core::composition::RtaSystem;
use soter_core::node::FnNode;
use soter_core::prelude::*;
use soter_drone::airspace::{build_airspace_stack, AirspaceStackConfig};
use soter_drone::stack::build_full_stack;
use soter_runtime::executor::{Executor, ExecutorConfig};
use soter_scenarios::catalog;
use soter_scenarios::fleet::fleet_agents;
use soter_scenarios::spec::MissionSpec;
use std::time::Instant;

/// Oracle over the 1-D `state` topic (same shape as the executor's own
/// line-system tests).
struct LineOracle;

impl SafetyOracle for LineOracle {
    fn is_safe(&self, observed: &dyn TopicRead) -> bool {
        observed
            .get("state")
            .and_then(Value::as_float)
            .map(|x| x.abs() <= 10.0)
            .unwrap_or(false)
    }
    fn is_safer(&self, observed: &dyn TopicRead) -> bool {
        observed
            .get("state")
            .and_then(Value::as_float)
            .map(|x| x.abs() <= 5.0)
            .unwrap_or(false)
    }
    fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool {
        match observed.get("state").and_then(Value::as_float) {
            Some(x) => x.abs() + horizon.as_secs_f64() > 10.0,
            None => true,
        }
    }
}

fn line_system() -> RtaSystem {
    let ac = FnNode::builder("ac")
        .subscribes(["state"])
        .publishes(["command"])
        .period(Duration::from_millis(100))
        .step(|_, _, out| {
            out.insert("command", Value::Float(1.0));
        })
        .build();
    let sc = FnNode::builder("sc")
        .subscribes(["state"])
        .publishes(["command"])
        .period(Duration::from_millis(100))
        .step(|_, inputs, out| {
            let x = inputs.get("state").and_then(Value::as_float).unwrap_or(0.0);
            let v = if x.abs() < 0.1 {
                0.0
            } else if x > 0.0 {
                -1.0
            } else {
                1.0
            };
            out.insert("command", Value::Float(v));
        })
        .build();
    let module = RtaModule::builder("line")
        .advanced(ac)
        .safe(sc)
        .delta(Duration::from_millis(100))
        .oracle(LineOracle)
        .build()
        .expect("line module is well-formed");
    let mut state = 0.0f64;
    let plant = FnNode::builder("plant")
        .subscribes(["command"])
        .publishes(["state"])
        .period(Duration::from_millis(10))
        .step(move |_, inputs, out| {
            let v = inputs
                .get("command")
                .and_then(Value::as_float)
                .unwrap_or(0.0);
            state += v * 0.01;
            out.insert("state", Value::Float(state));
        })
        .build();
    let mut sys = RtaSystem::new("line-system");
    sys.add_module(module).expect("module composes");
    sys.add_node(plant).expect("plant composes");
    sys
}

fn surveillance_system() -> RtaSystem {
    surveillance_system_with_filter(FilterKind::ExplicitSimplex)
}

fn surveillance_system_with_filter(filter: FilterKind) -> RtaSystem {
    let scenario = catalog::fig12b(7, 2, 400.0).with_filter(filter);
    let workspace = scenario.workspace.build();
    let config = scenario.stack_config(&workspace);
    let MissionSpec::Surveillance { policy, .. } = &scenario.mission else {
        unreachable!("fig12b is a surveillance mission");
    };
    let (system, _handle) = build_full_stack(&config, policy.build(scenario.seed));
    system
}

fn airspace_system() -> RtaSystem {
    let scenario = catalog::airspace_crossing(8, 21, 30.0);
    let workspace = scenario.workspace.build();
    let fleet = scenario
        .fleet
        .clone()
        .expect("airspace scenarios carry a fleet");
    let agents = fleet_agents(&scenario, &workspace, &fleet);
    let config = AirspaceStackConfig {
        base: scenario.stack_config(&workspace),
        agents,
        separation_radius: fleet.separation_radius,
        yield_margin: fleet.yield_margin,
        looping: true,
    };
    let (system, _handles) = build_airspace_stack(&config);
    system
}

/// Runs `build()`'s system for `horizon` simulated seconds and returns
/// `(firings, wall seconds)`; the best of `reps` repetitions is reported
/// (minimum-wall-clock, the standard noise filter for throughput).
fn measure(build: &dyn Fn() -> RtaSystem, record_trace: bool, horizon: f64, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let system = build();
        let config = ExecutorConfig {
            record_trace,
            ..ExecutorConfig::default()
        };
        let mut exec = Executor::with_config(system, config);
        let start = Instant::now();
        exec.run_until(Time::from_secs_f64(horizon));
        let elapsed = start.elapsed().as_secs_f64();
        let throughput = exec.fired_steps() as f64 / elapsed.max(1e-9);
        assert!(exec.fired_steps() > 0, "workload fired no nodes");
        best = best.max(throughput);
    }
    best
}

/// Wall-clock nanoseconds of a whole surveillance-stack run under `filter`
/// divided by its decision-module evaluations.  Every node's work (the
/// planners above all) is in the numerator, so this measures stack load per
/// decision, not one DM evaluation.  Best (minimum) of `reps` repetitions.
fn measure_per_dm_ns(filter: FilterKind, horizon: f64, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let system = surveillance_system_with_filter(filter);
        let config = ExecutorConfig {
            record_trace: false,
            ..ExecutorConfig::default()
        };
        let mut exec = Executor::with_config(system, config);
        let start = Instant::now();
        exec.run_until(Time::from_secs_f64(horizon));
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        let evaluations: u64 = exec
            .system()
            .modules()
            .iter()
            .map(|m| m.dm().evaluations())
            .sum();
        assert!(evaluations > 0, "the stack evaluated no decisions");
        best = best.min(elapsed_ns / evaluations as f64);
    }
    best
}

fn main() {
    let quick = std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let reps = if quick { 2 } else { 3 };
    let workloads: [(&str, &dyn Fn() -> RtaSystem, f64); 3] = [
        ("line", &line_system, if quick { 20.0 } else { 60.0 }),
        (
            "surveillance",
            &surveillance_system,
            if quick { 10.0 } else { 40.0 },
        ),
        ("airspace8", &airspace_system, if quick { 2.0 } else { 8.0 }),
    ];
    let mut entries = Vec::new();
    for (name, build, horizon) in workloads {
        for (variant, record_trace) in [("no-trace", false), ("trace", true)] {
            let fps = measure(build, record_trace, horizon, reps);
            println!("{name}/{variant:<9}: {fps:>12.0} firings/s");
            entries.push(BenchEntry::new(
                format!("{name}/{variant}"),
                fps,
                "firings/s",
            ));
        }
    }
    // Whole surveillance-stack wall time per DM evaluation, one row per
    // safety filter.  The stack is planner-query-bound, so these rows track
    // planner load under each filter, not the cost of one decision (lower
    // is better; the gate is direction-aware on the unit).
    let per_dm_horizon = if quick { 10.0 } else { 30.0 };
    for filter in FilterKind::ALL {
        let ns = measure_per_dm_ns(filter, per_dm_horizon, reps);
        println!(
            "surveillance-per-dm/{:<9}: {ns:>12.0} ns/decision",
            filter.slug()
        );
        entries.push(BenchEntry::new(
            format!("surveillance-per-dm/{}", filter.slug()),
            ns,
            "ns/decision",
        ));
    }
    // `cargo bench` runs with the package directory as cwd; resolve
    // relative paths against the workspace root so CI can pass repo-level
    // paths.
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let resolve = |p: String| {
        let path = std::path::PathBuf::from(&p);
        if path.is_absolute() {
            path
        } else {
            workspace_root.join(path)
        }
    };
    let out =
        resolve(std::env::var("BENCH_OUT").unwrap_or_else(|_| "target/BENCH_runtime.json".into()));
    let meta = [
        ("suite", "exec_throughput".to_string()),
        ("mode", if quick { "quick" } else { "full" }.to_string()),
        (
            "note",
            "firings/s of Executor::step_instant; best of repeated runs".to_string(),
        ),
    ];
    write_json(&out, &meta, &entries).expect("write benchmark report");
    println!("wrote {}", out.display());

    // CI regression gate: compare against the committed baseline, with a
    // tolerant threshold to absorb runner noise.
    gate_against_env_baseline("bench-smoke", &workspace_root, &entries);
}
