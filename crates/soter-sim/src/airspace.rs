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
//! for a minimum separation radius `r_sep`.  [`Airspace`] bundles the shared
//! workspace with that radius and answers point-wise separation queries;
//! [`SeparationMonitor`] is the streaming ground-truth monitor the scenario
//! runner uses to count φ_sep violation *episodes* (a pair entering
//! violation counts once, mirroring how collision episodes are counted for
//! `φ_safe`).
//!
//! The *predictive* side — treating peer forward-reach sets as unsafe
//! regions inside a decision module's oracle — lives in
//! `soter_reach::peers`; this module is only about ground truth.

use crate::vec3::Vec3;
use crate::world::Workspace;
use std::collections::BTreeSet;

/// A shared workspace plus the fleet's minimum separation radius `r_sep`.
#[derive(Debug, Clone)]
pub struct Airspace {
    workspace: Workspace,
    separation_radius: f64,
}

impl Airspace {
    /// Creates an airspace over a workspace with the given separation
    /// radius (metres, centre-to-centre).
    ///
    /// # Panics
    ///
    /// Panics if `separation_radius` is not positive.
    pub fn new(workspace: Workspace, separation_radius: f64) -> Self {
        assert!(
            separation_radius > 0.0,
            "separation radius must be positive"
        );
        Airspace {
            workspace,
            separation_radius,
        }
    }

    /// The shared workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The minimum separation radius `r_sep`.
    pub fn separation_radius(&self) -> f64 {
        self.separation_radius
    }

    /// Returns `true` if every pair of positions satisfies φ_sep.
    pub fn separation_ok(&self, positions: &[Vec3]) -> bool {
        self.violating_pairs(positions).is_empty()
    }

    /// The index pairs `(i, j)` with `i < j` that violate φ_sep.
    pub fn violating_pairs(&self, positions: &[Vec3]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance(&positions[j]) <= self.separation_radius {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }
}

/// The smallest pairwise distance among a set of positions (`None` for
/// fewer than two positions).
pub fn min_pairwise_separation(positions: &[Vec3]) -> Option<f64> {
    let mut min = f64::INFINITY;
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            min = min.min(positions[i].distance(&positions[j]));
        }
    }
    (positions.len() >= 2).then_some(min)
}

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
    use crate::geometry::Aabb;

    fn open_airspace(radius: f64) -> Airspace {
        let ws = Workspace::empty(Aabb::new(Vec3::ZERO, Vec3::splat(50.0)));
        Airspace::new(ws, radius)
    }

    #[test]
    fn separation_queries_flag_close_pairs() {
        let a = open_airspace(2.0);
        let far = [Vec3::new(0.0, 0.0, 5.0), Vec3::new(10.0, 0.0, 5.0)];
        assert!(a.separation_ok(&far));
        let close = [
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(1.0, 0.0, 5.0),
            Vec3::new(10.0, 0.0, 5.0),
        ];
        assert!(!a.separation_ok(&close));
        assert_eq!(a.violating_pairs(&close), vec![(0, 1)]);
        assert_eq!(a.separation_radius(), 2.0);
    }

    #[test]
    fn min_pairwise_separation_handles_small_fleets() {
        assert_eq!(min_pairwise_separation(&[]), None);
        assert_eq!(min_pairwise_separation(&[Vec3::ZERO]), None);
        let d = min_pairwise_separation(&[Vec3::ZERO, Vec3::new(3.0, 4.0, 0.0)]).unwrap();
        assert!((d - 5.0).abs() < 1e-12);
    }

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
