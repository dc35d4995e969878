//! Falsify the stress scenario: search jitter-schedule space for a
//! minimal counterexample to φ_safe instead of waiting for i.i.d. noise
//! to stumble on one.
//!
//! The paper's Sec. V-D stress campaign attributes every RTA-protected
//! crash to the safe controller not being scheduled in time after a DM
//! switch.  This example reproduces that crash class *systematically*:
//!
//! 1. run a budgeted random-restart + local-search falsification over
//!    deterministic schedules (targeted starvation, bursts, phase-locked
//!    windows), fanned out on the campaign engine,
//! 2. shrink the first violating schedule to a minimal counterexample,
//! 3. save it in the golden-trace text format and replay it — the same
//!    schedule crashes the same stack every time, on any machine,
//! 4. contrast with an in-tolerance schedule (delay ≤ the Δ-slack of the
//!    motion-primitive module), which the protected stack withstands.
//!
//! ```text
//! cargo run --release --example falsify_stress
//! ```

use soter::core::time::{Duration, Time};
use soter::runtime::{delta_slack, JitterSchedule};
use soter::scenarios::catalog;
use soter::scenarios::falsify::{
    save_counterexample, Falsifier, FalsifierConfig, ScheduleFamily, ScheduleSpace,
};
use soter::scenarios::run_scenario;
use soter::scenarios::spec::JitterSpec;

fn main() {
    let horizon = 30.0;
    let scenario = catalog::stress(13, horizon, false).with_name("falsify-demo");

    // 1. Search: starve the SC or the DM of the motion-primitive module.
    let falsifier = Falsifier::new(
        scenario.clone(),
        ScheduleSpace {
            nodes: vec!["mpr_sc".into(), "safe_motion_primitive_dm".into()],
            families: vec![ScheduleFamily::Targeted, ScheduleFamily::Burst],
            min_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(1500),
            max_width: Duration::from_secs_f64(horizon),
            horizon,
        },
        FalsifierConfig {
            budget: 32,
            restarts: 8,
            neighbours: 4,
            workers: 4,
            seed: 7,
        },
    );
    let report = falsifier.run();
    println!("{}", report.summary());

    // 2./3. Persist and replay the shrunk counterexample.
    if let Some(ce) = &report.counterexample {
        let path = std::path::Path::new("target/falsify-demo.counterexample");
        save_counterexample(ce, path).expect("persist counterexample");
        println!("counterexample saved to {}", path.display());

        let replay = scenario
            .clone()
            .with_jitter(JitterSpec::Schedule(ce.schedule.clone()));
        let outcome = run_scenario(&replay);
        assert_eq!(
            outcome.digest, ce.record.digest,
            "a counterexample replays byte-identically"
        );
        println!(
            "replayed: {} phi_safe violations, digest {:#018x}\n",
            outcome.safety_violations, outcome.digest
        );
    }

    // 4. The same crash class held inside the Δ-slack tolerance is
    // harmless: the hysteresis margin absorbs the delay.
    let defaults = catalog::stress(13, horizon, false);
    let slack = delta_slack(defaults.delta_mpr, defaults.safer_factor);
    let in_tolerance =
        defaults
            .with_name("falsify-demo-in-tolerance")
            .with_jitter(JitterSpec::Schedule(JitterSchedule::TargetedNode {
                node: "mpr_sc".into(),
                start: Time::ZERO,
                width: Duration::from_secs_f64(horizon),
                delay: slack,
            }));
    let outcome = run_scenario(&in_tolerance);
    println!(
        "in-tolerance control (SC delayed by {slack} every firing): {} phi_safe violations",
        outcome.safety_violations
    );
    assert_eq!(outcome.safety_violations, 0);

    // The pinned counterexample from the catalog is always available for
    // regression work, no search needed:
    let pinned = run_scenario(&catalog::sc_starvation());
    println!(
        "pinned sc-starvation golden: {} phi_safe violations (schedule {:?})",
        pinned.safety_violations,
        catalog::sc_starvation_schedule()
    );
    assert!(pinned.safety_violations >= 1);
}
