//! Battery charge/discharge model for the battery-safety RTA module.
//!
//! Section V-B of the paper defines the battery-safety module in terms of:
//!
//! * the current charge `bt` (φ_safe := `bt > 0`, φ_safer := `bt > 85 %`),
//! * `cost(u, t)` — the charge consumed by applying control `u` for `t`
//!   seconds,
//! * `cost* = max_u cost(u, 2Δ)` — the worst-case discharge over `2Δ`, and
//! * `T_max` — the (conservative) charge needed to land from the maximum
//!   altitude the drone can attain.
//!
//! [`Battery`] implements the charge state and [`BatteryModel`] the cost
//! function, so the decision module can compute `ttf_2Δ(bt) = bt − cost* <
//! T_max` exactly as in the paper.

use crate::dynamics::ControlInput;

/// Parameters of the discharge model.
///
/// Discharge rate is an affine function of commanded acceleration magnitude:
/// hovering costs `idle_rate` (fraction of capacity per second) and every
/// m/s² of commanded acceleration adds `accel_rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    /// Fraction of capacity consumed per second while hovering.
    pub idle_rate: f64,
    /// Additional fraction of capacity per second per m/s² of commanded
    /// acceleration.
    pub accel_rate: f64,
    /// Maximum commanded acceleration used when computing the worst-case
    /// discharge `cost*` (should match the plant's actuation limit).
    pub max_acceleration: f64,
    /// Fraction of capacity needed to descend one metre during a safe
    /// landing, used when computing `T_max`.
    pub landing_cost_per_meter: f64,
}

impl Default for BatteryModel {
    fn default() -> Self {
        BatteryModel {
            // ~20 minute hover endurance.
            idle_rate: 1.0 / 1200.0,
            accel_rate: 0.00008,
            max_acceleration: 6.0,
            landing_cost_per_meter: 0.0012,
        }
    }
}

impl BatteryModel {
    /// Charge consumed (fraction of capacity) by applying control `u` for
    /// `duration` seconds — the paper's `cost(u, t)`.
    pub fn cost(&self, u: &ControlInput, duration: f64) -> f64 {
        assert!(duration >= 0.0, "duration must be non-negative");
        (self.idle_rate + self.accel_rate * u.acceleration.norm()) * duration
    }

    /// Worst-case charge consumed over `duration` seconds under any
    /// admissible control — the paper's `cost* = max_u cost(u, duration)`.
    pub fn worst_case_cost(&self, duration: f64) -> f64 {
        assert!(duration >= 0.0, "duration must be non-negative");
        (self.idle_rate + self.accel_rate * self.max_acceleration) * duration
    }

    /// Conservative estimate of the charge required to land safely from
    /// altitude `max_altitude` metres — the paper's `T_max`, approximated
    /// (as in the paper) by the cost of landing from the maximum altitude.
    pub fn landing_reserve(&self, max_altitude: f64) -> f64 {
        assert!(max_altitude >= 0.0, "altitude must be non-negative");
        self.landing_cost_per_meter * max_altitude + self.idle_rate * 5.0
    }
}

/// Battery charge state, as a fraction of capacity in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    charge: f64,
    model: BatteryModel,
}

impl Default for Battery {
    fn default() -> Self {
        Battery::full(BatteryModel::default())
    }
}

impl Battery {
    /// A full battery with the given model.
    pub fn full(model: BatteryModel) -> Self {
        Battery { charge: 1.0, model }
    }

    /// A battery at a specific charge level in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `charge` is outside `[0, 1]`.
    pub fn with_charge(model: BatteryModel, charge: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&charge),
            "charge must be within [0, 1]"
        );
        Battery { charge, model }
    }

    /// Current charge as a fraction of capacity.
    pub fn charge(&self) -> f64 {
        self.charge
    }

    /// The discharge model.
    pub fn model(&self) -> &BatteryModel {
        &self.model
    }

    /// Returns `true` when the battery is empty (φ_bat violated).
    pub fn is_depleted(&self) -> bool {
        self.charge <= 0.0
    }

    /// Discharges the battery according to the applied control for `dt`
    /// seconds.  Charge saturates at zero.
    pub fn discharge(&mut self, u: &ControlInput, dt: f64) {
        let used = self.model.cost(u, dt);
        self.charge = (self.charge - used).max(0.0);
    }

    /// Recharges by the given fraction (saturating at full) — used in tests
    /// and long campaign simulations between missions.
    pub fn recharge(&mut self, amount: f64) {
        assert!(amount >= 0.0, "recharge amount must be non-negative");
        self.charge = (self.charge + amount).min(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;
    use proptest::prelude::*;

    #[test]
    fn full_battery_is_full() {
        let b = Battery::default();
        assert_eq!(b.charge(), 1.0);
        assert!(!b.is_depleted());
    }

    #[test]
    fn hover_discharges_at_idle_rate() {
        let model = BatteryModel::default();
        let mut b = Battery::full(model);
        b.discharge(&ControlInput::ZERO, 1200.0);
        assert!(
            b.charge() < 1e-9,
            "20 minutes of hover should drain the default battery"
        );
    }

    #[test]
    fn aggressive_flight_drains_faster_than_hover() {
        let model = BatteryModel::default();
        let mut hover = Battery::full(model);
        let mut aggressive = Battery::full(model);
        hover.discharge(&ControlInput::ZERO, 100.0);
        aggressive.discharge(&ControlInput::accel(Vec3::new(6.0, 0.0, 0.0)), 100.0);
        assert!(aggressive.charge() < hover.charge());
    }

    #[test]
    fn charge_saturates_at_zero() {
        let mut b = Battery::with_charge(BatteryModel::default(), 0.001);
        b.discharge(&ControlInput::accel(Vec3::new(6.0, 0.0, 0.0)), 1e6);
        assert_eq!(b.charge(), 0.0);
        assert!(b.is_depleted());
    }

    #[test]
    fn recharge_saturates_at_one() {
        let mut b = Battery::with_charge(BatteryModel::default(), 0.9);
        b.recharge(0.5);
        assert_eq!(b.charge(), 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_charge_panics() {
        let _ = Battery::with_charge(BatteryModel::default(), 1.5);
    }

    #[test]
    fn worst_case_cost_dominates_any_control() {
        let m = BatteryModel::default();
        for a in [0.0, 1.0, 3.0, 6.0] {
            let u = ControlInput::accel(Vec3::new(a, 0.0, 0.0));
            assert!(m.cost(&u, 2.0) <= m.worst_case_cost(2.0) + 1e-15);
        }
    }

    #[test]
    fn landing_reserve_grows_with_altitude() {
        let m = BatteryModel::default();
        assert!(m.landing_reserve(10.0) > m.landing_reserve(1.0));
    }

    proptest! {
        #[test]
        fn prop_charge_stays_in_unit_interval(
            start in 0.0..1.0f64,
            ax in -6.0..6.0f64, ay in -6.0..6.0f64, az in -6.0..6.0f64,
            dt in 0.0..100.0f64
        ) {
            let mut b = Battery::with_charge(BatteryModel::default(), start);
            b.discharge(&ControlInput::accel(Vec3::new(ax, ay, az)), dt);
            prop_assert!((0.0..=1.0).contains(&b.charge()));
        }

        #[test]
        fn prop_cost_monotone_in_duration(
            a in 0.0..6.0f64, d1 in 0.0..50.0f64, d2 in 0.0..50.0f64
        ) {
            let m = BatteryModel::default();
            let u = ControlInput::accel(Vec3::new(a, 0.0, 0.0));
            let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(m.cost(&u, lo) <= m.cost(&u, hi) + 1e-15);
        }

        #[test]
        fn prop_worst_case_dominates(
            ax in -6.0..6.0f64, ay in -6.0..6.0f64, az in -6.0..6.0f64, dt in 0.0..20.0f64
        ) {
            let m = BatteryModel::default();
            let u = ControlInput::accel(Vec3::new(ax, ay, az).clamp_norm(m.max_acceleration));
            prop_assert!(m.cost(&u, dt) <= m.worst_case_cost(dt) + 1e-12);
        }
    }
}
