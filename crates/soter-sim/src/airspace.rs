//! Shared multi-drone airspace: ground-truth separation bookkeeping.
//!
//! The paper's evaluation is single-drone, but SOTER's Theorem 4.1 is about
//! *composition* of RTA-protected modules, and the natural scale-out is an
//! airspace in which several drones share one workspace and are mutual
//! dynamic obstacles.  Alongside the static-obstacle safety region `φ_safe`,
//! a fleet must maintain the **separation invariant**
//!
//! `φ_sep := ∀ i ≠ j. ‖pᵢ − pⱼ‖ > r_sep`
//!
//! for a minimum separation radius `r_sep`.  [`SeparationMonitor`] is the
//! streaming ground-truth check of φ_sep: the scenario runner feeds it the
//! fleet's positions and reads back the number of violation *episodes* (a
//! pair entering violation counts once, mirroring how collision episodes
//! are counted for `φ_safe`) and the minimum separation seen.
//!
//! The *predictive* side — treating peer forward-reach sets as unsafe
//! regions inside a decision module's oracle — lives in
//! `soter_reach::peers`; this module is only about ground truth.

use crate::vec3::Vec3;
use std::collections::BTreeSet;

/// Streaming ground-truth monitor for the separation invariant φ_sep.
///
/// Feed it the fleet's positions once per observation instant; it counts
/// violation *episodes* (a pair entering violation counts once until the
/// pair separates again) and tracks the minimum separation ever seen.
#[derive(Debug, Clone)]
pub struct SeparationMonitor {
    radius: f64,
    in_violation: BTreeSet<(usize, usize)>,
    episodes: usize,
    min_separation: f64,
}

impl SeparationMonitor {
    /// Creates a monitor for the given separation radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive.
    pub fn new(radius: f64) -> Self {
        assert!(radius > 0.0, "separation radius must be positive");
        SeparationMonitor {
            radius,
            in_violation: BTreeSet::new(),
            episodes: 0,
            min_separation: f64::INFINITY,
        }
    }

    /// Observes the fleet at one instant.  Drone `i`'s position must be at
    /// index `i` consistently across calls.
    pub fn observe(&mut self, positions: &[Vec3]) {
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let d = positions[i].distance(&positions[j]);
                self.min_separation = self.min_separation.min(d);
                let pair = (i, j);
                if d <= self.radius {
                    if self.in_violation.insert(pair) {
                        self.episodes += 1;
                    }
                } else {
                    self.in_violation.remove(&pair);
                }
            }
        }
    }

    /// Number of φ_sep violation episodes observed so far.
    pub fn episodes(&self) -> usize {
        self.episodes
    }

    /// Minimum pairwise separation ever observed (infinite if fewer than two
    /// drones were ever observed).
    pub fn min_separation(&self) -> f64 {
        self.min_separation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_counts_episodes_not_samples() {
        let mut m = SeparationMonitor::new(2.0);
        let apart = [Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        let together = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        m.observe(&apart);
        assert_eq!(m.episodes(), 0);
        // Three consecutive violating samples are one episode.
        m.observe(&together);
        m.observe(&together);
        m.observe(&together);
        assert_eq!(m.episodes(), 1);
        // Separating and re-entering starts a new episode.
        m.observe(&apart);
        m.observe(&together);
        assert_eq!(m.episodes(), 2);
        assert!((m.min_separation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_tracks_pairs_independently() {
        let mut m = SeparationMonitor::new(2.0);
        // Pair (0,1) violating, (0,2) and (1,2) fine.
        m.observe(&[
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(20.0, 0.0, 0.0),
        ]);
        // Now (1,2) violates too while (0,1) stays in violation.
        m.observe(&[
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
        ]);
        assert_eq!(m.episodes(), 3, "(0,1), then (1,2) and (0,2)");
    }

    #[test]
    #[should_panic(expected = "separation radius")]
    fn zero_radius_is_rejected() {
        let _ = SeparationMonitor::new(0.0);
    }
}
