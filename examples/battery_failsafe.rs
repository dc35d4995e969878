//! The Fig. 12c experiment: the battery-safety RTA module aborts the mission
//! and lands the drone before the battery runs out.
//!
//! Run with: `cargo run --release --example battery_failsafe`

use soter::scenarios::catalog;
use soter::scenarios::runner::run_scenario;

fn main() {
    let run = run_scenario(&catalog::fig12c(11, 300.0))
        .run
        .expect("mission scenarios produce a run");
    // φ_bat is violated only if the battery hits zero while still airborne.
    let battery_violation = run
        .profile
        .iter()
        .any(|(_, altitude, charge)| *charge <= 0.0 && *altitude > 0.2);
    println!("=== Fig. 12c: battery-safety RTA module ===");
    match run.battery_switch_charge {
        Some(c) => println!("DM switched to landing SC at  : {:.1} % charge", 100.0 * c),
        None => println!("DM never had to switch (battery stayed healthy)"),
    }
    println!(
        "final charge                  : {:.1} %",
        100.0 * run.final_charge
    );
    println!("landed safely                 : {}", run.landed);
    println!("φ_bat violated (dead mid-air) : {battery_violation}");
    println!("profile samples               : {}", run.profile.len());
    // Print a coarse altitude/charge profile, the data behind Fig. 12c.
    for (t, alt, charge) in run.profile.iter().step_by(20) {
        println!(
            "  t = {t:6.1} s   altitude = {alt:5.2} m   charge = {:5.1} %",
            100.0 * charge
        );
    }
    assert!(
        !battery_violation,
        "the drone must never run out of charge mid-air"
    );
}
