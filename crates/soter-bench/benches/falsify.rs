//! Falsifier schedule-evaluation throughput (schedules/second) with and
//! without the planner-query cache:
//!
//! * `sequential-1w` / `sequential-4w` — every candidate is an independent
//!   `run_scenario` through the work-stealing campaign engine with no
//!   planner cache, at 1 and 4 workers;
//! * `plan-cache-cold` — a fresh `Falsifier` (it owns a `PlanCache`), so
//!   every RRT*/A* query of the first evaluation is a miss;
//! * `plan-cache-warm` / `plan-cache-warm-4w` — the same falsifier
//!   re-evaluating with its planner cache warm, the steady state of a real
//!   search, at 1 and 4 workers: every candidate shares the base
//!   scenario's planner queries, so the runs are planner-free.
//!
//! The whole speedup over the sequential rows comes from the plan cache.
//! A lockstep batch engine once ran the same candidates over one shared
//! compilation; measured at widths 1 and 8 it showed no gain, and it was
//! deleted.  Candidate records are byte-identical across every row
//! (asserted here), so the rows measure the cache, not search behaviour.
//! Results are written as JSON to `$BENCH_OUT` (default
//! `target/BENCH_falsify.json`); when `$BENCH_BASELINE` names a committed
//! report, same-name entries are compared and a >25% schedules/s
//! regression fails the run — the CI `falsify-smoke` gate, mirroring
//! `bench-smoke`.
//!
//! Throughput gating needs one deterministic number per row, not a sample
//! distribution, so this target drives its own loop (`harness = false`).

use soter_bench::{gate_against_env_baseline, write_json, BenchEntry};
use soter_core::time::{Duration, Time};
use soter_runtime::schedule::JitterSchedule;
use soter_scenarios::campaign::{Campaign, RunRecord};
use soter_scenarios::falsify::{Falsifier, FalsifierConfig, ScheduleFamily, ScheduleSpace};
use soter_scenarios::spec::{JitterSpec, MissionSpec, Scenario, TargetPolicySpec, WorkspaceSpec};
use soter_sim::vec3::Vec3;
use std::time::Instant;

const HORIZON: f64 = 10.0;

/// The Sec. V-D stress mission flown over a dense 5×5 pillar grid instead
/// of the default city block, with randomized inspection targets: every
/// fresh target costs the stack a full motion-planning query threaded
/// through 25 pillars, so planner work dominates the run — the workload
/// class the falsifier's shared planner cache exists for.
/// (Cluttered workspaces are exactly where falsification campaigns are
/// run in anger: tight corridors are where delayed firings turn into
/// collisions.)  The seed picks a representative planner-active mission;
/// planner-light seeds exist, and on those the cache merely ties the
/// sequential path.
fn base_scenario() -> Scenario {
    let mut obstacles = Vec::new();
    // 5x5 grid of 4 m x 4 m pillars on a 10 m pitch: 6 m streets.
    for i in 0..5 {
        for j in 0..5 {
            let c = Vec3::new(9.0 + i as f64 * 10.0, 9.0 + j as f64 * 10.0, 5.0);
            obstacles.push((c - Vec3::new(2.0, 2.0, 5.0), c + Vec3::new(2.0, 2.0, 5.0)));
        }
    }
    Scenario::new("falsify-bench")
        .with_workspace(WorkspaceSpec::Custom {
            bounds: (Vec3::new(0.0, 0.0, 0.0), Vec3::new(58.0, 58.0, 12.0)),
            obstacles,
            robot_radius: 0.3,
            surveillance_points: vec![
                Vec3::new(3.0, 3.0, 5.0),
                Vec3::new(55.0, 3.0, 5.0),
                Vec3::new(55.0, 55.0, 5.0),
                Vec3::new(3.0, 55.0, 5.0),
            ],
        })
        .with_mission(MissionSpec::Surveillance {
            policy: TargetPolicySpec::Random,
            targets: None,
        })
        .with_horizon(HORIZON)
        .with_seed(40)
}

fn space() -> ScheduleSpace {
    ScheduleSpace {
        nodes: vec!["mpr_sc".into(), "safe_motion_primitive_dm".into()],
        families: vec![ScheduleFamily::Targeted, ScheduleFamily::Burst],
        min_delay: Duration::from_millis(100),
        max_delay: Duration::from_millis(1500),
        max_width: Duration::from_secs_f64(HORIZON),
        horizon: HORIZON,
    }
}

fn falsifier(workers: usize) -> Falsifier {
    Falsifier::new(
        base_scenario(),
        space(),
        FalsifierConfig {
            budget: 8,
            restarts: 8,
            neighbours: 4,
            workers,
            seed: 7,
            ..FalsifierConfig::default()
        },
    )
}

/// A fixed candidate batch: starvation windows sweeping the horizon.
fn candidates() -> Vec<JitterSchedule> {
    (0..8u64)
        .map(|i| JitterSchedule::TargetedNode {
            node: if i % 2 == 0 {
                "mpr_sc"
            } else {
                "safe_motion_primitive_dm"
            }
            .into(),
            start: Time::from_millis(i * 1_000),
            width: Duration::from_secs(3),
            delay: Duration::from_millis(300 + 100 * i),
        })
        .collect()
}

/// The uncached evaluation path: one independent `run_scenario` per
/// candidate through the campaign engine, no planner cache.
fn sequential_records(workers: usize) -> Vec<RunRecord> {
    let scenarios: Vec<Scenario> = candidates()
        .iter()
        .map(|s| base_scenario().with_jitter(JitterSpec::Schedule(s.clone())))
        .collect();
    let stream = Campaign::new(scenarios).with_workers(workers).stream();
    let total = stream.progress().total();
    let mut slots: Vec<Option<RunRecord>> = (0..total).map(|_| None).collect();
    for item in stream {
        slots[item.index] = Some(item.record);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every candidate evaluates"))
        .collect()
}

/// Best-of-`reps` schedules/s of `eval` (minimum-wall-clock, the standard
/// noise filter for throughput); also returns the records of the last run
/// for the cross-strategy determinism check.
fn measure(reps: usize, mut eval: impl FnMut() -> Vec<RunRecord>) -> (f64, Vec<RunRecord>) {
    let mut best = 0.0f64;
    let mut last = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        let records = eval();
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(records.len(), 8, "every candidate evaluates");
        best = best.max(records.len() as f64 / elapsed.max(1e-9));
        last = records;
    }
    (best, last)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let reps = if quick { 2 } else { 3 };

    println!("\n=== Falsify throughput: 8 candidate schedules, {HORIZON} s stress horizon ===");
    let mut entries = Vec::new();
    let mut reference: Option<Vec<RunRecord>> = None;
    let mut row = |name: &str, eval: &mut dyn FnMut() -> Vec<RunRecord>| -> f64 {
        let (rate, records) = measure(reps, eval);
        println!("{name:<28} {rate:>12.2} schedules/s");
        match &reference {
            None => reference = Some(records),
            Some(expected) => assert_eq!(
                expected, &records,
                "{name} diverged from the sequential records"
            ),
        }
        entries.push(BenchEntry::new(name, rate, "schedules/s"));
        rate
    };

    let sequential_rate = row("falsify/sequential-1w", &mut || sequential_records(1));
    row("falsify/sequential-4w", &mut || sequential_records(4));

    // Cold: a fresh falsifier per repetition, so every planner query is a
    // cache miss.
    let schedules = candidates();
    row("falsify/plan-cache-cold", &mut || {
        falsifier(1).evaluate(&schedules)
    });

    // Warm: one falsifier per worker count, its cache warmed by an
    // unmeasured evaluation — the steady state of a running search.
    let warm = falsifier(1);
    let _ = warm.evaluate(&schedules);
    let warm_rate = row("falsify/plan-cache-warm", &mut || warm.evaluate(&schedules));
    let warm_4w = falsifier(4);
    let _ = warm_4w.evaluate(&schedules);
    row("falsify/plan-cache-warm-4w", &mut || {
        warm_4w.evaluate(&schedules)
    });
    println!(
        "plan-cache-warm speedup over sequential-1w: {:.1}x",
        warm_rate / sequential_rate.max(1e-9)
    );

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
        resolve(std::env::var("BENCH_OUT").unwrap_or_else(|_| "target/BENCH_falsify.json".into()));
    let meta = [
        ("suite", "falsify".to_string()),
        ("mode", if quick { "quick" } else { "full" }.to_string()),
        (
            "note",
            "schedules/s of Falsifier::evaluate over 8 candidates; best of repeated runs. \
             The speedup over the sequential rows comes entirely from the plan cache; \
             lockstep batch execution was measured at no gain and deleted"
                .to_string(),
        ),
    ];
    write_json(&out, &meta, &entries).expect("write benchmark report");
    println!("wrote {}", out.display());

    // CI regression gate: compare against the committed baseline, with a
    // tolerant threshold to absorb runner noise.  Direction-aware via the
    // shared helper, so any future ns-unit (cost) row gates on *rising*.
    gate_against_env_baseline("falsify-smoke", &workspace_root, &entries);
}
