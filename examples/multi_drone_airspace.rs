//! Multi-drone airspace demo: an RTA-protected crossing fleet versus the
//! same fleet unprotected, then a seed campaign over the contested
//! corridor.
//!
//! ```sh
//! cargo run --release --example multi_drone_airspace
//! ```
//!
//! Four drones patrol the corner-cut course from staggered corners with
//! alternating directions of travel, so their routes cross.  With RTA
//! protection every decision module checks the separation invariant φ_sep
//! against its peers' forward-reach sets and hands control to the yielding
//! safe controller before an encounter can close; unprotected, the same
//! fleet flies straight through its conflicts.

use soter_scenarios::campaign::Campaign;
use soter_scenarios::catalog;
use soter_scenarios::run_scenario;

fn main() {
    println!("=== 4-drone crossing airspace: RTA vs unprotected ===\n");
    for scenario in [
        catalog::airspace_crossing(4, 7, 20.0),
        catalog::airspace_crossing_unprotected(4, 7, 20.0),
    ] {
        let outcome = run_scenario(&scenario);
        let fleet = outcome.fleet.as_ref().expect("airspace outcome");
        println!("{}:", outcome.scenario);
        println!(
            "  phi_safe violations (collisions): {}",
            outcome.safety_violations
        );
        println!(
            "  phi_sep violation episodes:       {}",
            outcome.separation_violations
        );
        println!(
            "  minimum separation seen:          {:.2} m",
            fleet.min_separation
        );
        println!(
            "  RTA mode switches:                {}",
            outcome.mode_switches
        );
        for (i, trajectory) in fleet.trajectories.iter().enumerate() {
            println!(
                "  drone{i}: {:6.1} m flown, {} waypoints reached",
                trajectory.path_length(),
                fleet.targets_reached[i]
            );
        }
        println!();
    }

    println!("=== Campaign: contested corridor, 8 seeds ===\n");
    let report = Campaign::new(vec![catalog::airspace_corridor(4, 23, 6.0)])
        .with_seeds((1..=8).collect::<Vec<u64>>())
        .with_workers(4)
        .run();
    // Records come back in matrix order whatever the worker schedule.
    for (index, record) in report.records.iter().enumerate() {
        println!(
            "  [{}/{}] seed {:>2}: sep violations = {}, mode switches = {}",
            index + 1,
            report.runs(),
            record.seed,
            record.separation_violations,
            record.mode_switches
        );
    }
}
