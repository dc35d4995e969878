//! Wind / disturbance models.
//!
//! The paper's simplified setting assumes "no environment uncertainties like
//! wind" (Sec. II-A), but its robustness argument — and the stress campaign
//! of Sec. V-D — implicitly relies on the decision module's worst-case
//! reachability absorbing bounded disturbances.  This module provides
//! disturbance generators so experiments can be run both in the paper's
//! nominal setting ([`WindModel::Calm`]) and with bounded gusts, and so the
//! fault-injection tests can check that bounded disturbances within the
//! reachability envelope do not cause violations.

use crate::vec3::Vec3;
use rand::Rng;

/// A wind/disturbance model producing a disturbance acceleration each step.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum WindModel {
    /// No wind — the nominal setting of the paper's case study.
    #[default]
    Calm,
    /// A constant wind acceleration.
    Constant {
        /// The constant disturbance acceleration (m/s²).
        acceleration: Vec3,
    },
    /// Random gusts: each component is drawn uniformly from
    /// `[-magnitude, magnitude]` every step.
    Gusty {
        /// Maximum magnitude per component (m/s²).
        magnitude: f64,
    },
}

impl WindModel {
    /// Samples the disturbance acceleration for one simulation step.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec3 {
        match self {
            WindModel::Calm => Vec3::ZERO,
            WindModel::Constant { acceleration } => *acceleration,
            WindModel::Gusty { magnitude } => {
                let m = magnitude.abs();
                if m == 0.0 {
                    Vec3::ZERO
                } else {
                    Vec3::new(
                        rng.random_range(-m..=m),
                        rng.random_range(-m..=m),
                        rng.random_range(-m..=m),
                    )
                }
            }
        }
    }

    /// The largest disturbance acceleration magnitude this model can
    /// produce: the bound a reach model must cover to stay sound under
    /// this wind.
    pub fn worst_case_magnitude(&self) -> f64 {
        match self {
            WindModel::Calm => 0.0,
            WindModel::Constant { acceleration } => acceleration.norm(),
            WindModel::Gusty { magnitude } => magnitude.abs() * 3f64.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn calm_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(WindModel::Calm.sample(&mut rng), Vec3::ZERO);
        assert_eq!(WindModel::Calm.worst_case_magnitude(), 0.0);
    }

    #[test]
    fn constant_returns_configured_value() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = WindModel::Constant {
            acceleration: Vec3::new(0.5, 0.0, 0.0),
        };
        assert_eq!(w.sample(&mut rng), Vec3::new(0.5, 0.0, 0.0));
        assert!((w.worst_case_magnitude() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gusty_stays_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        let w = WindModel::Gusty { magnitude: 0.8 };
        for _ in 0..1000 {
            let g = w.sample(&mut rng);
            assert!(g.x.abs() <= 0.8 && g.y.abs() <= 0.8 && g.z.abs() <= 0.8);
            assert!(g.norm() <= w.worst_case_magnitude() + 1e-12);
        }
    }

    #[test]
    fn zero_magnitude_gusts_are_calm() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = WindModel::Gusty { magnitude: 0.0 };
        assert_eq!(w.sample(&mut rng), Vec3::ZERO);
    }

    #[test]
    fn gusty_is_not_degenerate() {
        let mut rng = SmallRng::seed_from_u64(9);
        let w = WindModel::Gusty { magnitude: 1.0 };
        let samples: Vec<Vec3> = (0..32).map(|_| w.sample(&mut rng)).collect();
        let distinct = samples.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(distinct > 0, "gusts should vary between samples");
    }
}
