//! Fault injection for advanced controllers.
//!
//! The paper's evaluation demonstrates that the RTA-protected stack stays
//! safe "including when untrusted third-party components have bugs or
//! deviate from the desired behavior", with bugs "introduced using fault
//! injection in the advanced controller".  [`FaultInjector`] wraps any
//! [`MotionController`] and corrupts its output according to a
//! [`FaultSpec`]; the corrupted controller is still a legal advanced
//! controller (its outputs are admissible accelerations), so Theorem 3.1
//! still applies — which is exactly what the fault-injection integration
//! tests verify.

use crate::traits::MotionController;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_sim::dynamics::{ControlInput, DroneState};
use soter_sim::vec3::Vec3;

/// The kind of fault to inject into an advanced controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No fault: the wrapper is transparent.
    None,
    /// A constant bias added to every command (models a mis-calibrated
    /// controller or actuator).
    Bias {
        /// The bias acceleration (m/s²).
        bias: [f64; 3],
    },
    /// The command is replaced by a constant value between `from_step` and
    /// `from_step + duration` control steps (models a stuck output /
    /// unresponsive third-party process).
    StuckOutput {
        /// First control step at which the output sticks.
        from_step: u64,
        /// Number of control steps the output remains stuck.
        duration: u64,
        /// The stuck command (m/s²).
        value: [f64; 3],
    },
    /// With the given probability per step, the command is replaced by a
    /// random full-throttle command for one step (models transient
    /// corruption, e.g. a race in the third-party component).
    RandomSpike {
        /// Probability per control step.
        probability: f64,
        /// Magnitude of the spike (m/s²).
        magnitude: f64,
    },
}

/// A controller wrapper that injects faults into the wrapped controller's
/// output.
#[derive(Debug)]
pub struct FaultInjector<C> {
    inner: C,
    spec: FaultSpec,
    rng: SmallRng,
    seed: u64,
    step: u64,
    injected: u64,
}

impl<C: MotionController> FaultInjector<C> {
    /// Wraps `inner`, corrupting its output according to `spec`.
    pub fn new(inner: C, spec: FaultSpec, seed: u64) -> Self {
        FaultInjector {
            inner,
            spec,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            step: 0,
            injected: 0,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of control steps whose output was corrupted so far.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// The fault specification.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }
}

impl<C: MotionController> MotionController for FaultInjector<C> {
    fn name(&self) -> &str {
        "fault-injected"
    }

    fn control(&mut self, state: &DroneState, target: Vec3, dt: f64) -> ControlInput {
        let nominal = self.inner.control(state, target, dt);
        self.step += 1;
        match self.spec {
            FaultSpec::None => nominal,
            FaultSpec::Bias { bias } => {
                self.injected += 1;
                ControlInput::accel(nominal.acceleration + Vec3::from_array(bias))
            }
            FaultSpec::StuckOutput {
                from_step,
                duration,
                value,
            } => {
                if self.step >= from_step && self.step < from_step + duration {
                    self.injected += 1;
                    ControlInput::accel(Vec3::from_array(value))
                } else {
                    nominal
                }
            }
            FaultSpec::RandomSpike {
                probability,
                magnitude,
            } => {
                if self.rng.random::<f64>() < probability {
                    self.injected += 1;
                    let theta = self.rng.random_range(0.0..std::f64::consts::TAU);
                    ControlInput::accel(Vec3::new(theta.cos(), theta.sin(), 0.0) * magnitude)
                } else {
                    nominal
                }
            }
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.step = 0;
        self.injected = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::px4_like::Px4LikeController;

    fn state() -> DroneState {
        DroneState::at_rest(Vec3::new(0.0, 0.0, 5.0))
    }

    #[test]
    fn none_is_transparent() {
        let mut plain = Px4LikeController::default();
        let mut wrapped = FaultInjector::new(Px4LikeController::default(), FaultSpec::None, 0);
        let target = Vec3::new(10.0, 0.0, 5.0);
        assert_eq!(
            plain.control(&state(), target, 0.01),
            wrapped.control(&state(), target, 0.01)
        );
        assert_eq!(wrapped.injected_count(), 0);
    }

    #[test]
    fn bias_shifts_every_command() {
        let mut plain = Px4LikeController::default();
        let mut wrapped = FaultInjector::new(
            Px4LikeController::default(),
            FaultSpec::Bias {
                bias: [1.0, 0.0, 0.0],
            },
            0,
        );
        let target = Vec3::new(10.0, 0.0, 5.0);
        let a = plain.control(&state(), target, 0.01);
        let b = wrapped.control(&state(), target, 0.01);
        assert!((b.acceleration.x - a.acceleration.x - 1.0).abs() < 1e-9);
        assert_eq!(wrapped.injected_count(), 1);
    }

    #[test]
    fn stuck_output_applies_only_in_window() {
        let mut wrapped = FaultInjector::new(
            Px4LikeController::default(),
            FaultSpec::StuckOutput {
                from_step: 3,
                duration: 2,
                value: [0.0, 6.0, 0.0],
            },
            0,
        );
        let target = Vec3::new(10.0, 0.0, 5.0);
        let outs: Vec<ControlInput> = (0..6)
            .map(|_| wrapped.control(&state(), target, 0.01))
            .collect();
        // Steps are 1-based inside the wrapper: steps 3 and 4 are stuck.
        assert_ne!(outs[1].acceleration.y, 6.0);
        assert_eq!(outs[2].acceleration, Vec3::new(0.0, 6.0, 0.0));
        assert_eq!(outs[3].acceleration, Vec3::new(0.0, 6.0, 0.0));
        assert_ne!(outs[4].acceleration, Vec3::new(0.0, 6.0, 0.0));
        assert_eq!(wrapped.injected_count(), 2);
    }

    #[test]
    fn random_spikes_occur_at_roughly_the_configured_rate() {
        let mut wrapped = FaultInjector::new(
            Px4LikeController::default(),
            FaultSpec::RandomSpike {
                probability: 0.1,
                magnitude: 6.0,
            },
            42,
        );
        let target = Vec3::new(10.0, 0.0, 5.0);
        for _ in 0..5000 {
            let _ = wrapped.control(&state(), target, 0.01);
        }
        let rate = wrapped.injected_count() as f64 / 5000.0;
        assert!(
            (rate - 0.1).abs() < 0.03,
            "spike rate {rate} too far from 0.1"
        );
    }

    #[test]
    fn reset_restores_deterministic_stream() {
        let run = |wrapped: &mut FaultInjector<Px4LikeController>| -> Vec<ControlInput> {
            (0..100)
                .map(|_| wrapped.control(&state(), Vec3::new(5.0, 5.0, 5.0), 0.01))
                .collect()
        };
        let mut wrapped = FaultInjector::new(
            Px4LikeController::default(),
            FaultSpec::RandomSpike {
                probability: 0.2,
                magnitude: 6.0,
            },
            7,
        );
        let first = run(&mut wrapped);
        wrapped.reset();
        assert_eq!(wrapped.injected_count(), 0);
        let second = run(&mut wrapped);
        assert_eq!(first, second);
        assert_eq!(
            wrapped.spec(),
            &FaultSpec::RandomSpike {
                probability: 0.2,
                magnitude: 6.0
            }
        );
        assert_eq!(wrapped.inner().name(), "px4-like");
    }
}
