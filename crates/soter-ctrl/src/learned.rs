//! The "learned" (data-driven) controller of the Fig. 5 (left) experiment.
//!
//! The paper flies a figure-eight loop with a controller designed using a
//! data-driven approach and observes that it mostly follows the loop but
//! occasionally "dangerously deviates from the reference trajectory".
//! Training an actual neural-network controller is outside the scope of a
//! deterministic reproduction; [`LearnedController`] instead models the
//! *failure characteristics* of such a controller: a gain-scheduled tracker
//! whose gains carry a state-dependent model error, plus occasional
//! distribution-shift episodes during which the commanded acceleration is
//! corrupted.  Both effects are deterministic functions of a seed, so every
//! experiment is reproducible.

use crate::traits::MotionController;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_sim::dynamics::{ControlInput, DroneState};
use soter_sim::vec3::Vec3;

/// Tuning of the learned controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedConfig {
    /// Nominal proportional gain (the "learned" policy's average behaviour).
    pub kp: f64,
    /// Nominal damping gain.
    pub kd: f64,
    /// Cruise speed (m/s) — high, like the aggressive controller.
    pub cruise_speed: f64,
    /// Maximum commanded acceleration (m/s²).
    pub max_accel: f64,
    /// Amplitude of the state-dependent model error (fraction of the
    /// commanded acceleration).
    pub model_error: f64,
    /// Probability per control step of entering a distribution-shift episode.
    pub glitch_probability: f64,
    /// Length of a distribution-shift episode, in control steps.
    pub glitch_duration: u32,
    /// Magnitude of the corrupted command during an episode (m/s²).
    pub glitch_magnitude: f64,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            kp: 2.2,
            kd: 1.6,
            cruise_speed: 6.0,
            max_accel: 6.0,
            model_error: 0.25,
            glitch_probability: 0.002,
            glitch_duration: 60,
            glitch_magnitude: 6.0,
        }
    }
}

/// The data-driven controller with distribution-shift failures.
#[derive(Debug, Clone)]
pub struct LearnedController {
    config: LearnedConfig,
    rng: SmallRng,
    seed: u64,
    glitch_remaining: u32,
    glitch_direction: Vec3,
    steps: u64,
}

impl LearnedController {
    /// Creates the controller with the given tuning and seed.
    pub fn new(config: LearnedConfig, seed: u64) -> Self {
        LearnedController {
            config,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            glitch_remaining: 0,
            glitch_direction: Vec3::ZERO,
            steps: 0,
        }
    }

    /// Creates the controller with default tuning.
    pub fn with_seed(seed: u64) -> Self {
        LearnedController::new(LearnedConfig::default(), seed)
    }

    /// The controller tuning.
    pub fn config(&self) -> &LearnedConfig {
        &self.config
    }

    /// Number of control steps spent in distribution-shift episodes so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The state-dependent model error: a smooth pseudo-random field over
    /// position, standing in for "the network was never trained here".
    fn model_error_at(&self, p: Vec3) -> Vec3 {
        let e = self.config.model_error;
        Vec3::new(
            e * (0.37 * p.x + 0.11 * p.y).sin(),
            e * (0.29 * p.y - 0.07 * p.z).cos() * 0.8,
            e * (0.19 * p.x * 0.5 + 0.23 * p.z).sin() * 0.3,
        )
    }
}

impl MotionController for LearnedController {
    fn name(&self) -> &str {
        "learned"
    }

    fn control(&mut self, state: &DroneState, target: Vec3, _dt: f64) -> ControlInput {
        self.steps += 1;
        let c = &self.config;
        // Possibly enter a distribution-shift episode.
        if self.glitch_remaining == 0 && self.rng.random::<f64>() < c.glitch_probability {
            self.glitch_remaining = c.glitch_duration;
            // Corrupted output: a strong pull in a random fixed direction.
            let theta = self.rng.random_range(0.0..std::f64::consts::TAU);
            self.glitch_direction = Vec3::new(theta.cos(), theta.sin(), 0.0);
        }
        if self.glitch_remaining > 0 {
            self.glitch_remaining -= 1;
            return ControlInput::accel(self.glitch_direction * c.glitch_magnitude);
        }
        let to_target = target - state.position;
        let desired_velocity = (to_target * c.kp).clamp_norm(c.cruise_speed);
        let nominal = (desired_velocity - state.velocity) * c.kd;
        let error = self.model_error_at(state.position) * nominal.norm();
        ControlInput::accel((nominal + error).clamp_norm(c.max_accel))
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.glitch_remaining = 0;
        self.glitch_direction = Vec3::ZERO;
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::figure_eight;
    use soter_sim::dynamics::QuadrotorDynamics;
    use soter_sim::geometry::point_segment_distance;

    /// Flies the figure-eight reference with the learned controller and
    /// returns the maximum deviation from the reference polyline.
    fn fly_eight(seed: u64, steps: usize) -> f64 {
        let mut c = LearnedController::with_seed(seed);
        let dyn_ = QuadrotorDynamics::default();
        let loop_points = figure_eight(Vec3::new(0.0, 0.0, 20.0), 12.0, 8.0, 32);
        let mut state = DroneState::at_rest(loop_points[0]);
        let mut wp_index = 0usize;
        let mut worst = 0.0f64;
        for _ in 0..steps {
            let target = loop_points[wp_index % loop_points.len()];
            if state.position.distance(&target) < 1.5 {
                wp_index += 1;
            }
            let u = c.control(&state, target, 0.01);
            state = dyn_.step(&state, &u, Vec3::ZERO, 0.01);
            let deviation = loop_points
                .windows(2)
                .map(|w| point_segment_distance(&state.position, &w[0], &w[1]))
                .fold(f64::INFINITY, f64::min);
            worst = worst.max(deviation);
        }
        worst
    }

    #[test]
    fn mostly_tracks_the_loop_without_glitches() {
        let config = LearnedConfig {
            glitch_probability: 0.0,
            ..LearnedConfig::default()
        };
        let mut c = LearnedController::new(config, 1);
        let dyn_ = QuadrotorDynamics::default();
        let loop_points = figure_eight(Vec3::new(0.0, 0.0, 20.0), 12.0, 8.0, 32);
        let mut state = DroneState::at_rest(loop_points[0]);
        let mut wp_index = 0usize;
        let mut worst = 0.0f64;
        for _ in 0..30_000 {
            let target = loop_points[wp_index % loop_points.len()];
            if state.position.distance(&target) < 1.5 {
                wp_index += 1;
            }
            let u = c.control(&state, target, 0.01);
            state = dyn_.step(&state, &u, Vec3::ZERO, 0.01);
            let deviation = loop_points
                .windows(2)
                .map(|w| point_segment_distance(&state.position, &w[0], &w[1]))
                .fold(f64::INFINITY, f64::min);
            worst = worst.max(deviation);
        }
        assert!(
            wp_index > 32,
            "should complete at least one loop, reached {wp_index} waypoints"
        );
        assert!(
            worst < 6.0,
            "without glitches the deviation stays moderate, got {worst:.2}"
        );
    }

    #[test]
    fn some_seeds_produce_dangerous_deviations() {
        // With glitches enabled, at least one of a handful of seeds shows a
        // deviation well beyond the glitch-free bound — the "red
        // trajectories" of Fig. 5 (left).
        let worst_across_seeds = (0..6).map(|s| fly_eight(s, 30_000)).fold(0.0f64, f64::max);
        assert!(
            worst_across_seeds > 6.0,
            "expected at least one dangerous deviation across seeds, worst {worst_across_seeds:.2}"
        );
    }

    #[test]
    fn glitches_are_deterministic_per_seed() {
        assert_eq!(fly_eight(3, 5_000).to_bits(), fly_eight(3, 5_000).to_bits());
    }

    #[test]
    fn reset_restores_the_rng_stream() {
        let mut c = LearnedController::with_seed(9);
        let state = DroneState::at_rest(Vec3::new(1.0, 1.0, 5.0));
        let first: Vec<_> = (0..200)
            .map(|_| c.control(&state, Vec3::new(5.0, 0.0, 5.0), 0.01))
            .collect();
        c.reset();
        let second: Vec<_> = (0..200)
            .map(|_| c.control(&state, Vec3::new(5.0, 0.0, 5.0), 0.01))
            .collect();
        assert_eq!(first, second);
        assert_eq!(c.steps(), 200);
    }

    #[test]
    fn commands_respect_acceleration_limit() {
        let mut c = LearnedController::with_seed(0);
        let state = DroneState {
            position: Vec3::new(3.0, -2.0, 8.0),
            velocity: Vec3::new(4.0, 4.0, 0.0),
        };
        for _ in 0..1000 {
            let u = c.control(&state, Vec3::new(50.0, 50.0, 8.0), 0.01);
            assert!(u.acceleration.norm() <= c.config().max_accel + 1e-9);
        }
    }
}
