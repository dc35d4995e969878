//! The Fig. 12b experiment: an RTA-protected surveillance mission over the
//! city-block workspace, printing the statistics the paper reports.
//!
//! Run with: `cargo run --release --example surveillance_mission`

use soter::scenarios::catalog;
use soter::scenarios::runner::run_scenario;

fn main() {
    let outcome = run_scenario(&catalog::fig12b(7, 6, 400.0));
    let run = outcome.run.expect("mission scenarios produce a run");
    let metrics = outcome.metrics.expect("mission scenarios produce metrics");
    println!("=== Fig. 12b: RTA-protected surveillance mission ===");
    println!("targets reached            : {}", run.targets_reached);
    println!("mission duration           : {:.1} s", metrics.duration);
    println!("distance flown             : {:.1} m", metrics.distance);
    println!("ground-truth collisions    : {}", metrics.collisions);
    println!(
        "min obstacle clearance     : {:.2} m",
        metrics.min_clearance
    );
    println!("AC→SC disengagements       : {}", run.mpr_disengagements);
    println!("SC→AC re-engagements       : {}", run.mpr_reengagements);
    println!(
        "time in AC mode            : {:.1} %",
        100.0 * metrics.ac_fraction
    );
    println!(
        "invariant violations       : {}",
        outcome.invariant_violations
    );
    assert_eq!(
        metrics.collisions, 0,
        "the protected stack must stay collision-free"
    );
}
