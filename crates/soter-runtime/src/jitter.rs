//! Scheduling-jitter model.
//!
//! The paper's stress campaign (Sec. V-D) reports 34 crashes whose root
//! cause was that "the DM node did switch control, but the SC node was not
//! scheduled in time for the system to recover" — a scheduling effect of the
//! non-real-time host OS, not a flaw of the RTA theory.  [`JitterModel`]
//! reproduces that effect: with a configurable probability each node firing
//! is delayed by a random amount, so campaigns can be run both on the ideal
//! calendar (zero crashes expected) and on a jittery one (rare crashes
//! expected, matching the paper's observation).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_core::time::Duration;

/// Configuration of the scheduling-jitter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Probability that a given firing is delayed.
    pub probability: f64,
    /// Maximum delay applied to a delayed firing.
    pub max_delay: Duration,
    /// RNG seed (jitter is deterministic per seed).
    pub seed: u64,
}

impl JitterModel {
    /// Creates a jitter model.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(probability: f64, max_delay: Duration, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be within [0, 1]"
        );
        JitterModel {
            probability,
            max_delay,
            seed,
        }
    }

    /// A model that never delays anything.
    pub fn none() -> Self {
        JitterModel {
            probability: 0.0,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// Builds the sampler used by the executor.
    pub fn sampler(&self) -> JitterSampler {
        JitterSampler {
            model: *self,
            rng: SmallRng::seed_from_u64(self.seed),
        }
    }
}

/// Stateful sampler drawing per-firing delays.
#[derive(Debug, Clone)]
pub struct JitterSampler {
    model: JitterModel,
    rng: SmallRng,
}

impl JitterSampler {
    /// Samples the delay to apply to the next firing (usually zero).
    pub fn sample(&mut self) -> Duration {
        if self.model.probability <= 0.0 || self.model.max_delay.is_zero() {
            return Duration::ZERO;
        }
        if self.rng.random::<f64>() < self.model.probability {
            let max = self.model.max_delay.as_micros();
            Duration::from_micros(self.rng.random_range(0..=max))
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_delays() {
        let mut s = JitterModel::none().sampler();
        for _ in 0..100 {
            assert_eq!(s.sample(), Duration::ZERO);
        }
    }

    #[test]
    fn delays_are_bounded() {
        let model = JitterModel::new(1.0, Duration::from_millis(50), 3);
        let mut s = model.sampler();
        for _ in 0..1000 {
            assert!(s.sample() <= Duration::from_millis(50));
        }
    }

    #[test]
    fn probability_controls_frequency() {
        let count_delays = |p: f64| {
            let mut s = JitterModel::new(p, Duration::from_millis(10), 7).sampler();
            (0..1000).filter(|_| !s.sample().is_zero()).count()
        };
        let low = count_delays(0.05);
        let high = count_delays(0.9);
        assert!(
            low < high,
            "higher probability must delay more often ({low} vs {high})"
        );
        assert!(low > 0 && high < 1000);
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let model = JitterModel::new(0.5, Duration::from_millis(20), 11);
        let a: Vec<Duration> = {
            let mut s = model.sampler();
            (0..50).map(|_| s.sample()).collect()
        };
        let b: Vec<Duration> = {
            let mut s = model.sampler();
            (0..50).map(|_| s.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = JitterModel::new(1.5, Duration::ZERO, 0);
    }
}
