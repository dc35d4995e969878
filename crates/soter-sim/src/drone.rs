//! The full plant: quadrotor dynamics + battery + wind + state estimation.
//!
//! [`Drone`] is the Gazebo/PX4-SITL substitute.  It owns the true state and
//! exposes the same interface the SOTER node system sees in the paper's stack
//! (Fig. 3): a control input goes in, an estimated state and battery reading
//! come out.  The true state remains accessible for ground-truth safety
//! checking by the experiment harness (collisions are judged on the truth, as
//! they are in Gazebo).

use crate::battery::{Battery, BatteryModel};
use crate::dynamics::{ControlInput, DroneState, QuadrotorDynamics};
use crate::sensors::StateEstimator;
use crate::vec3::Vec3;
use crate::wind::WindModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration of the plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneConfig {
    /// Translational dynamics limits.
    pub dynamics: QuadrotorDynamics,
    /// Battery discharge model.
    pub battery: BatteryModel,
    /// State estimator error bounds.
    pub estimator: StateEstimator,
    /// Wind/disturbance model.
    pub wind: WindModel,
    /// RNG seed controlling sensor noise and gusts (for reproducibility).
    pub seed: u64,
}

impl Default for DroneConfig {
    fn default() -> Self {
        DroneConfig {
            dynamics: QuadrotorDynamics::default(),
            battery: BatteryModel::default(),
            estimator: StateEstimator::default(),
            wind: WindModel::Calm,
            seed: 0,
        }
    }
}

/// The simulated vehicle.
#[derive(Debug, Clone)]
pub struct Drone {
    config: DroneConfig,
    state: DroneState,
    battery: Battery,
    rng: SmallRng,
    elapsed: f64,
    distance_flown: f64,
    last_control: ControlInput,
}

impl Drone {
    /// Creates a drone at rest at `position` with a full battery and default
    /// configuration.
    pub fn at(position: Vec3) -> Self {
        Drone::with_config(DroneState::at_rest(position), DroneConfig::default())
    }

    /// Creates a drone with an explicit initial state and configuration.
    pub fn with_config(state: DroneState, config: DroneConfig) -> Self {
        Drone {
            config,
            state,
            battery: Battery::full(config.battery),
            rng: SmallRng::seed_from_u64(config.seed),
            elapsed: 0.0,
            distance_flown: 0.0,
            last_control: ControlInput::ZERO,
        }
    }

    /// Replaces the battery (e.g. to start a mission with a partially
    /// discharged pack, as in the Fig. 12c experiment).
    pub fn set_battery(&mut self, battery: Battery) {
        self.battery = battery;
    }

    /// The plant configuration.
    pub fn config(&self) -> &DroneConfig {
        &self.config
    }

    /// Ground-truth kinematic state.
    pub fn state(&self) -> &DroneState {
        &self.state
    }

    /// Ground-truth battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Simulation time elapsed (seconds).
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Total distance flown (metres) — the Sec. V-D campaign reports this.
    pub fn distance_flown(&self) -> f64 {
        self.distance_flown
    }

    /// The most recently applied control input.
    pub fn last_control(&self) -> &ControlInput {
        &self.last_control
    }

    /// Returns `true` if the vehicle is on the ground and essentially at
    /// rest — the "safely landed" condition of the battery module.
    pub fn is_landed(&self) -> bool {
        self.state.position.z <= 0.05 && self.state.speed() < 0.2
    }

    /// A bounded-error state estimate (what the software stack sees).
    pub fn estimated_state(&mut self) -> DroneState {
        self.config
            .estimator
            .estimate(&self.state.clone(), &mut self.rng)
    }

    /// Battery charge estimate (assumed exact, like the paper's trusted
    /// estimators).
    pub fn battery_charge(&self) -> f64 {
        self.battery.charge()
    }

    /// Convenience wrapper around [`Drone::step`] taking a raw commanded
    /// acceleration.
    pub fn step_accel(&mut self, acceleration: Vec3, dt: f64) -> DroneState {
        self.step(ControlInput::accel(acceleration), dt)
    }

    /// Advances the plant by `dt` seconds under control `u`.
    ///
    /// Returns the new ground-truth state.  If the battery is depleted the
    /// vehicle no longer produces thrust: it falls ballistically (the failure
    /// mode φ_bat is meant to exclude).
    pub fn step(&mut self, u: ControlInput, dt: f64) -> DroneState {
        let effective = if self.battery.is_depleted() {
            // No thrust: gravity only.
            ControlInput::accel(Vec3::new(0.0, 0.0, -9.81))
        } else {
            u
        };
        let wind = self.config.wind.sample(&mut self.rng);
        let prev = self.state;
        self.state = self.config.dynamics.step(&prev, &effective, wind, dt);
        if !self.battery.is_depleted() {
            self.battery.discharge(&u, dt);
        }
        self.elapsed += dt;
        self.distance_flown += self.state.position.distance(&prev.position);
        self.last_control = u;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drone_starts_at_rest_with_full_battery() {
        let d = Drone::at(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(d.state().position, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(d.state().velocity, Vec3::ZERO);
        assert_eq!(d.battery_charge(), 1.0);
        assert_eq!(d.elapsed(), 0.0);
        assert_eq!(d.distance_flown(), 0.0);
    }

    #[test]
    fn stepping_accumulates_time_and_distance() {
        let mut d = Drone::at(Vec3::new(0.0, 0.0, 2.0));
        for _ in 0..100 {
            d.step(ControlInput::accel(Vec3::new(1.0, 0.0, 0.0)), 0.01);
        }
        assert!((d.elapsed() - 1.0).abs() < 1e-9);
        assert!(d.distance_flown() > 0.0);
        assert!(d.state().position.x > 0.0);
    }

    #[test]
    fn battery_drains_during_flight() {
        let mut d = Drone::at(Vec3::new(0.0, 0.0, 2.0));
        for _ in 0..1000 {
            d.step(ControlInput::accel(Vec3::new(2.0, 0.0, 0.0)), 0.01);
        }
        assert!(d.battery_charge() < 1.0);
    }

    #[test]
    fn depleted_battery_causes_fall() {
        let config = DroneConfig {
            seed: 5,
            ..DroneConfig::default()
        };
        let mut d = Drone::with_config(DroneState::at_rest(Vec3::new(0.0, 0.0, 10.0)), config);
        d.set_battery(Battery::with_charge(BatteryModel::default(), 0.0));
        for _ in 0..500 {
            // Commanding full upward thrust does nothing with a dead battery.
            d.step(ControlInput::accel(Vec3::new(0.0, 0.0, 6.0)), 0.01);
        }
        assert!(
            d.state().position.z < 10.0,
            "vehicle must fall with a dead battery"
        );
    }

    #[test]
    fn is_landed_detects_ground_contact_at_rest() {
        let mut d = Drone::at(Vec3::new(0.0, 0.0, 0.0));
        assert!(d.is_landed());
        d.step(ControlInput::accel(Vec3::new(0.0, 0.0, 6.0)), 0.5);
        assert!(!d.is_landed());
    }

    #[test]
    fn estimation_error_is_bounded() {
        let config = DroneConfig {
            estimator: StateEstimator::new(0.1, 0.1),
            ..DroneConfig::default()
        };
        let mut d = Drone::with_config(DroneState::at_rest(Vec3::new(5.0, 5.0, 5.0)), config);
        for _ in 0..100 {
            let est = d.estimated_state();
            assert!(est.position.distance(&d.state().position) <= 0.1 * 3f64.sqrt() + 1e-9);
        }
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let config = DroneConfig {
                seed,
                wind: WindModel::Gusty { magnitude: 0.5 },
                ..DroneConfig::default()
            };
            let mut d = Drone::with_config(DroneState::at_rest(Vec3::new(0.0, 0.0, 2.0)), config);
            for _ in 0..200 {
                d.step(ControlInput::accel(Vec3::new(1.0, 0.5, 0.0)), 0.01);
            }
            *d.state()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
