//! Bounded-error state estimation.
//!
//! The paper assumes the state estimators (green blocks in Fig. 3) are
//! *trusted* and "accurately provide the system state within bounds"
//! (Sec. II-A).  [`StateEstimator`] models that assumption: it reports the
//! true plant state corrupted by a bounded, uniformly distributed error.  The
//! decision modules must tolerate any error within the declared bound — the
//! reachability queries inflate their sets by it — and the property tests
//! check exactly that.

use crate::dynamics::DroneState;
use crate::vec3::Vec3;
use rand::Rng;

/// A trusted state estimator with bounded error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEstimator {
    /// Maximum absolute error per position component (metres).
    pub position_error: f64,
    /// Maximum absolute error per velocity component (m/s).
    pub velocity_error: f64,
}

impl Default for StateEstimator {
    fn default() -> Self {
        // GPS/VIO-class accuracy, matching the "within bounds" assumption.
        StateEstimator {
            position_error: 0.05,
            velocity_error: 0.05,
        }
    }
}

impl StateEstimator {
    /// A perfect estimator (zero error) — useful for deterministic tests.
    pub fn perfect() -> Self {
        StateEstimator {
            position_error: 0.0,
            velocity_error: 0.0,
        }
    }

    /// Creates an estimator with the given per-component error bounds.
    ///
    /// # Panics
    ///
    /// Panics if either bound is negative.
    pub fn new(position_error: f64, velocity_error: f64) -> Self {
        assert!(
            position_error >= 0.0 && velocity_error >= 0.0,
            "error bounds must be non-negative"
        );
        StateEstimator {
            position_error,
            velocity_error,
        }
    }

    /// Produces an estimate of the true state with error bounded by the
    /// configured limits (uniform per component).
    pub fn estimate<R: Rng>(&self, truth: &DroneState, rng: &mut R) -> DroneState {
        DroneState {
            position: truth.position + self.noise(self.position_error, rng),
            velocity: truth.velocity + self.noise(self.velocity_error, rng),
        }
    }

    /// Worst-case Euclidean position error of an estimate.
    pub fn worst_case_position_error(&self) -> f64 {
        self.position_error * 3f64.sqrt()
    }

    /// Worst-case Euclidean velocity error of an estimate.
    pub fn worst_case_velocity_error(&self) -> f64 {
        self.velocity_error * 3f64.sqrt()
    }

    fn noise<R: Rng>(&self, bound: f64, rng: &mut R) -> Vec3 {
        if bound == 0.0 {
            return Vec3::ZERO;
        }
        Vec3::new(
            rng.random_range(-bound..=bound),
            rng.random_range(-bound..=bound),
            rng.random_range(-bound..=bound),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn perfect_estimator_reports_truth() {
        let e = StateEstimator::perfect();
        let truth = DroneState {
            position: Vec3::new(1.0, 2.0, 3.0),
            velocity: Vec3::new(0.5, -0.5, 0.0),
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(e.estimate(&truth, &mut rng), truth);
    }

    #[test]
    fn error_is_bounded() {
        let e = StateEstimator::new(0.1, 0.2);
        let truth = DroneState::at_rest(Vec3::new(5.0, 5.0, 5.0));
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..1000 {
            let est = e.estimate(&truth, &mut rng);
            let dp = (est.position - truth.position).abs();
            let dv = (est.velocity - truth.velocity).abs();
            assert!(dp.max_component() <= 0.1 + 1e-12);
            assert!(dv.max_component() <= 0.2 + 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn negative_bound_panics() {
        let _ = StateEstimator::new(-0.1, 0.0);
    }

    #[test]
    fn worst_case_errors_are_diagonal() {
        let e = StateEstimator::new(1.0, 2.0);
        assert!((e.worst_case_position_error() - 3f64.sqrt()).abs() < 1e-12);
        assert!((e.worst_case_velocity_error() - 2.0 * 3f64.sqrt()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_estimate_error_within_worst_case(
            px in -50.0..50.0f64, py in -50.0..50.0f64, pz in 0.0..20.0f64,
            pe in 0.0..1.0f64, ve in 0.0..1.0f64, seed in 0u64..1000
        ) {
            let e = StateEstimator::new(pe, ve);
            let truth = DroneState::at_rest(Vec3::new(px, py, pz));
            let mut rng = SmallRng::seed_from_u64(seed);
            let est = e.estimate(&truth, &mut rng);
            prop_assert!(est.position.distance(&truth.position)
                <= e.worst_case_position_error() + 1e-9);
            prop_assert!(est.velocity.distance(&truth.velocity)
                <= e.worst_case_velocity_error() + 1e-9);
        }
    }
}
