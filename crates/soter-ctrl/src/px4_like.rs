//! The PX4-like aggressive controller (untrusted advanced controller).
//!
//! The paper's Fig. 5 (right) experiment uses the low-level controllers of
//! the PX4 autopilot as motion primitives and observes that, because they
//! are optimised for time, "during high speed maneuvers the reduced control
//! on the drone leads to overshoot and trajectories that collide with
//! obstacles".  [`Px4LikeController`] reproduces that behaviour: it flies a
//! time-optimal-flavoured profile (accelerate hard toward the target, brake
//! late) with an underdamped velocity loop, so it is fast — and it
//! overshoots at speed and knows nothing about obstacles.

use crate::traits::MotionController;
use soter_sim::dynamics::{ControlInput, DroneState};
use soter_sim::vec3::Vec3;

/// Tuning of the aggressive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Px4LikeConfig {
    /// Cruise speed it tries to reach between waypoints (m/s).
    pub cruise_speed: f64,
    /// Proportional gain on position error.
    pub kp: f64,
    /// Damping gain on velocity error (deliberately low: underdamped).
    pub kd: f64,
    /// Maximum commanded acceleration (m/s²).
    pub max_accel: f64,
    /// Distance at which it starts braking (m).  A time-optimal profile
    /// would brake exactly at `v²/(2a)`; this controller brakes later by
    /// this factor (< 1), which is what produces the overshoot.
    pub brake_distance_factor: f64,
}

impl Default for Px4LikeConfig {
    fn default() -> Self {
        Px4LikeConfig {
            cruise_speed: 7.0,
            kp: 2.5,
            kd: 1.2,
            max_accel: 6.0,
            brake_distance_factor: 0.6,
        }
    }
}

/// The aggressive, obstacle-unaware advanced controller.
#[derive(Debug, Clone)]
pub struct Px4LikeController {
    config: Px4LikeConfig,
}

impl Default for Px4LikeController {
    fn default() -> Self {
        Px4LikeController::new(Px4LikeConfig::default())
    }
}

impl Px4LikeController {
    /// Creates the controller with the given tuning.
    pub fn new(config: Px4LikeConfig) -> Self {
        Px4LikeController { config }
    }

    /// The controller tuning.
    pub fn config(&self) -> &Px4LikeConfig {
        &self.config
    }
}

impl MotionController for Px4LikeController {
    fn name(&self) -> &str {
        "px4-like"
    }

    fn control(&mut self, state: &DroneState, target: Vec3, _dt: f64) -> ControlInput {
        let c = &self.config;
        let to_target = target - state.position;
        let distance = to_target.norm();
        if distance < 1e-6 {
            return ControlInput::accel(-state.velocity * c.kd);
        }
        let dir = to_target.normalized();
        // Late-braking time-optimal flavour: keep commanding cruise speed
        // until within a (shortened) braking distance of the target.
        let speed = state.speed();
        let nominal_brake = speed * speed / (2.0 * c.max_accel);
        let brake_at = nominal_brake * c.brake_distance_factor;
        let desired_velocity = if distance > brake_at {
            dir * c.cruise_speed
        } else {
            // Scale down with distance, but with a weak gain so the vehicle
            // arrives hot (this is the overshoot mechanism).
            dir * (c.kp * distance).min(c.cruise_speed)
        };
        let accel = (desired_velocity - state.velocity) * c.kd + to_target * 0.4;
        ControlInput::accel(accel.clamp_norm(c.max_accel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safe::SafeTrackingController;
    use crate::traits::simulate_to_waypoint;
    use soter_sim::dynamics::QuadrotorDynamics;
    use soter_sim::geometry::point_segment_distance;

    fn dynamics() -> QuadrotorDynamics {
        QuadrotorDynamics::default()
    }

    #[test]
    fn reaches_the_waypoint() {
        let mut c = Px4LikeController::default();
        let start = DroneState::at_rest(Vec3::new(0.0, 0.0, 5.0));
        let target = Vec3::new(15.0, 0.0, 5.0);
        let (t, states) = simulate_to_waypoint(&mut c, &dynamics(), start, target, 0.01, 60.0, 0.5);
        assert!(t < 60.0, "took {t}");
        assert!(states.last().unwrap().position.distance(&target) < 0.5);
    }

    #[test]
    fn is_faster_than_the_safe_controller() {
        let start = DroneState::at_rest(Vec3::new(0.0, 0.0, 5.0));
        let target = Vec3::new(20.0, 0.0, 5.0);
        let mut ac = Px4LikeController::default();
        let mut sc = SafeTrackingController::default();
        let (t_ac, _) = simulate_to_waypoint(&mut ac, &dynamics(), start, target, 0.01, 120.0, 0.5);
        let (t_sc, _) = simulate_to_waypoint(&mut sc, &dynamics(), start, target, 0.01, 120.0, 0.5);
        assert!(
            t_ac < t_sc,
            "the aggressive controller must be faster: AC {t_ac:.1}s vs SC {t_sc:.1}s"
        );
    }

    #[test]
    fn overshoots_when_arriving_at_speed() {
        // Fly a long leg and then a 90° turn: the aggressive controller
        // should deviate visibly from the second leg right after the corner.
        let mut c = Px4LikeController::default();
        let dyn_ = dynamics();
        let w1 = Vec3::new(20.0, 0.0, 5.0);
        let w2 = Vec3::new(20.0, 15.0, 5.0);
        let start = DroneState::at_rest(Vec3::new(0.0, 0.0, 5.0));
        // Leg 1: do not wait for full stop — switch targets while still fast,
        // as the waypoint-reached logic of a real mission does.
        let mut state = start;
        let mut max_overshoot = 0.0f64;
        let mut target = w1;
        let mut switched = false;
        for _ in 0..6000 {
            let u = c.control(&state, target, 0.01);
            state = dyn_.step(&state, &u, Vec3::ZERO, 0.01);
            if !switched && state.position.distance(&w1) < 2.0 {
                target = w2;
                switched = true;
            }
            if switched {
                max_overshoot =
                    max_overshoot.max(point_segment_distance(&state.position, &w1, &w2));
            }
        }
        assert!(switched);
        assert!(
            max_overshoot > 1.0,
            "the aggressive controller should overshoot the corner, got {max_overshoot:.2} m"
        );
    }

    #[test]
    fn hover_command_when_already_at_target() {
        let mut c = Px4LikeController::default();
        let state = DroneState::at_rest(Vec3::new(3.0, 3.0, 3.0));
        let u = c.control(&state, Vec3::new(3.0, 3.0, 3.0), 0.01);
        assert!(u.acceleration.norm() < 1e-6);
    }

    #[test]
    fn commands_respect_acceleration_limit() {
        let mut c = Px4LikeController::default();
        let state = DroneState {
            position: Vec3::ZERO,
            velocity: Vec3::new(-5.0, 2.0, 0.0),
        };
        let u = c.control(&state, Vec3::new(100.0, -50.0, 20.0), 0.01);
        assert!(u.acceleration.norm() <= c.config().max_accel + 1e-9);
    }
}
