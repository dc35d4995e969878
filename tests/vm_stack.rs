//! End-to-end integration of the bytecode sandbox with the drone stack:
//! the `vm-surveillance` scenario hosts the advanced motion primitive in
//! the statically verified VM (see `soter::vm`) under the ordinary Simplex
//! decision module.
//!
//! Pinned here:
//!
//! * the scenario completes its mission safely with the VM in the loop,
//! * campaign execution is **worker-count independent** — a 1-worker and a
//!   4-worker campaign over the scenario produce byte-identical records
//!   (the VM interpreter is deterministic and keeps no ambient state),
//! * the adversarial falsifier can drive the VM-hosted stack through its
//!   jitter-schedule search without finding a safety violation at the
//!   in-tolerance stress level, and
//! * an unverifiable controller is refused at stack-construction time —
//!   verification is the only gate between bytecode and the executor.

use soter::drone::stack::AdvancedKind;
use soter::scenarios::campaign::Campaign;
use soter::scenarios::catalog;
use soter::scenarios::falsify::{Falsifier, FalsifierConfig, ScheduleSpace};
use soter::scenarios::run_scenario;

#[test]
fn vm_surveillance_completes_safely() {
    let outcome = run_scenario(&catalog::vm_surveillance(7, 2, 150.0));
    let run = outcome.run.expect("surveillance scenarios produce a run");
    assert_eq!(
        outcome.invariant_violations, 0,
        "the DM keeps the VM-hosted AC safe"
    );
    assert!(
        run.targets_reached >= 2,
        "the VM-hosted AC flies the mission"
    );
}

#[test]
fn vm_surveillance_campaign_is_worker_count_independent() {
    let seeds: Vec<u64> = (1..=4).collect();
    let scenario = catalog::vm_surveillance(7, 2, 60.0);
    let sequential = Campaign::new(vec![scenario.clone()])
        .with_seeds(seeds.clone())
        .with_workers(1)
        .run();
    let parallel = Campaign::new(vec![scenario])
        .with_seeds(seeds)
        .with_workers(4)
        .run();
    assert_eq!(sequential.runs(), 4);
    // RunRecord includes the behavioural digest, so this is byte-identical
    // equality of every per-run result, in matrix order.
    assert_eq!(sequential.records, parallel.records);
}

#[test]
fn falsifier_exercises_the_vm_stack() {
    let scenario = catalog::vm_surveillance(7, 1, 20.0);
    let config = FalsifierConfig {
        budget: 8,
        restarts: 2,
        neighbours: 2,
        workers: 2,
        seed: 3,
    };
    let report = Falsifier::new(scenario, ScheduleSpace::stress(20.0), config).run();
    assert!(report.evaluations > 0 && report.evaluations <= 8);
    assert!(
        report.counterexample.is_none(),
        "in-tolerance jitter must not break the RTA-protected VM stack"
    );
    // Determinism of the search itself over the VM-hosted stack.
    let scenario = catalog::vm_surveillance(7, 1, 20.0);
    let config = FalsifierConfig {
        budget: 8,
        restarts: 2,
        neighbours: 2,
        workers: 2,
        seed: 3,
    };
    let again = Falsifier::new(scenario, ScheduleSpace::stress(20.0), config).run();
    assert_eq!(report.evaluations, again.evaluations);
    assert_eq!(
        report.counterexample.is_none(),
        again.counterexample.is_none()
    );
}

#[test]
#[should_panic(expected = "rejected VM advanced controller")]
fn an_unverifiable_controller_never_enters_the_stack() {
    // Right interface, but the loop bound blows the declared budget: the
    // verifier must refuse it before any stack component is built.
    let bad = "
node mpr_ac
period 20ms
budget 32
sub localPosition
sub targetWaypoint
pub controlAction

ld.pos r0, localPosition
loop 1000
vadd r0, r0, r0
endloop
st.v controlAction, r0
halt
";
    let scenario =
        catalog::vm_surveillance(7, 1, 5.0).with_advanced(AdvancedKind::Vm { asm: bad.into() });
    let _ = run_scenario(&scenario);
}
