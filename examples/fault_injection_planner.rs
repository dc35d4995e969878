//! The Sec. V-C experiment: bugs are injected into the RRT* motion planner;
//! the planner RTA module detects every colliding plan and falls back to the
//! certified grid planner, so the plan that reaches the rest of the stack is
//! always safe.
//!
//! Run with: `cargo run --release --example fault_injection_planner`

use soter::scenarios::catalog;
use soter::scenarios::runner::run_scenario;

fn main() {
    let report = run_scenario(&catalog::planner_rta(23, 60))
        .planner
        .expect("planner scenarios produce a report");
    println!("=== Sec. V-C: RTA-protected motion planner ===");
    println!("planning queries               : {}", report.queries);
    println!(
        "colliding plans (unprotected)  : {}",
        report.unprotected_colliding_plans
    );
    println!(
        "colliding plans (RTA-protected): {}",
        report.protected_colliding_plans
    );
    println!(
        "DM fallbacks to safe planner   : {}",
        report.dm_switches_to_safe
    );
    assert!(report.unprotected_colliding_plans > 0);
    assert_eq!(report.protected_colliding_plans, 0);
}
