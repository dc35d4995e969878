//! The Remark 3.3 ablation: how the decision period Δ and the φ_safer
//! hysteresis margin trade performance against conservativeness.
//!
//! Run with: `cargo run --release --example delta_tuning`

use soter::scenarios::catalog;
use soter::scenarios::runner::run_scenario;

fn main() {
    println!("=== Remark 3.3: Δ / φ_safer ablation (g1..g4 circuit) ===");
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>10} {:>11}",
        "Δ (s)", "k_safer", "lap time (s)", "disengagements", "AC time %", "collisions"
    );
    let mut collisions = 0;
    for delta_ms in [50, 100, 200, 400] {
        for safer_factor in [1.0, 1.5, 2.5] {
            let outcome = run_scenario(&catalog::ablation(delta_ms, safer_factor, 3, 240.0));
            let run = outcome.run.expect("mission scenarios produce a run");
            let metrics = outcome.metrics.expect("mission scenarios produce metrics");
            println!(
                "{:>8.2} {:>8.1} {:>12} {:>14} {:>10.1} {:>11}",
                delta_ms as f64 / 1000.0,
                safer_factor,
                run.completion_time
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "timeout".into()),
                run.mpr_disengagements,
                100.0 * metrics.ac_fraction,
                metrics.collisions
            );
            collisions += metrics.collisions;
        }
    }
    assert_eq!(collisions, 0, "every well-formed setting must stay safe");
}
