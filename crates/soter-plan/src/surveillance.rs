//! The surveillance application protocol.
//!
//! The application layer of the paper's stack "implements the surveillance
//! protocol that ensures the application specific property, e.g., all
//! surveillance points must be visited infinitely often", and the stress
//! campaign of Sec. V-D tasks the drone with "randomly generated
//! surveillance points".  [`SurveillanceApp`] supports both modes: a fixed
//! round-robin patrol over the workspace's surveillance points, or an
//! endless stream of random free targets, while tracking per-point visit
//! counts so the application-level liveness property can be checked.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// How the next surveillance target is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicy {
    /// Visit the workspace's surveillance points in a fixed cyclic order.
    RoundRobin,
    /// Draw uniformly random free positions from the workspace (the
    /// Sec. V-D stress-campaign workload).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// The surveillance application.
#[derive(Debug, Clone)]
pub struct SurveillanceApp {
    points: Vec<Vec3>,
    policy: TargetPolicy,
    next_index: usize,
    visits: Vec<usize>,
    random_rng: Option<SmallRng>,
    targets_issued: usize,
}

impl SurveillanceApp {
    /// Creates the application over the given workspace's surveillance
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if the workspace declares no surveillance points.
    pub fn new(workspace: &Workspace, policy: TargetPolicy) -> Self {
        let points = workspace.surveillance_points().to_vec();
        assert!(!points.is_empty(), "workspace has no surveillance points");
        let random_rng = match policy {
            TargetPolicy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
            TargetPolicy::RoundRobin => None,
        };
        let n = points.len();
        SurveillanceApp {
            points,
            policy,
            next_index: 0,
            visits: vec![0; n],
            random_rng,
            targets_issued: 0,
        }
    }

    /// The fixed surveillance points.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The minimum number of visits over all fixed points — the
    /// "visited infinitely often" progress measure.
    pub fn min_visits(&self) -> usize {
        self.visits.iter().copied().min().unwrap_or(0)
    }

    /// Number of targets issued so far.
    pub fn targets_issued(&self) -> usize {
        self.targets_issued
    }

    /// Issues the next surveillance target.  In round-robin mode the
    /// previous target is marked visited when this is called (the
    /// application layer only requests a new target after the mission layer
    /// reports arrival).
    pub fn next_target(&mut self, workspace: &Workspace) -> Vec3 {
        self.targets_issued += 1;
        match self.policy {
            TargetPolicy::RoundRobin => {
                let idx = self.next_index;
                self.visits[idx] += 1;
                self.next_index = (self.next_index + 1) % self.points.len();
                self.points[idx]
            }
            TargetPolicy::Random { .. } => {
                let rng = self.random_rng.as_mut().expect("random policy has an RNG");
                workspace
                    .sample_free_point(rng, 200)
                    .unwrap_or_else(|| self.points[self.targets_issued % self.points.len()])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_all_points() {
        let w = Workspace::city_block();
        let mut app = SurveillanceApp::new(&w, TargetPolicy::RoundRobin);
        let n = app.points().len();
        let mut issued = Vec::new();
        for _ in 0..2 * n {
            issued.push(app.next_target(&w));
        }
        assert_eq!(app.targets_issued(), 2 * n);
        assert_eq!(
            app.min_visits(),
            2,
            "every point must have been issued twice"
        );
        // The cycle repeats.
        assert_eq!(issued[0], issued[n]);
    }

    #[test]
    fn random_targets_are_free_and_vary() {
        let w = Workspace::city_block();
        let mut app = SurveillanceApp::new(&w, TargetPolicy::Random { seed: 3 });
        let targets: Vec<Vec3> = (0..20).map(|_| app.next_target(&w)).collect();
        for t in &targets {
            assert!(w.is_free(*t), "random target {t} must be in free space");
        }
        let distinct = targets.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(distinct > 10, "random targets should vary");
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let w = Workspace::city_block();
        let run = |seed| {
            let mut app = SurveillanceApp::new(&w, TargetPolicy::Random { seed });
            (0..10).map(|_| app.next_target(&w)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic]
    fn workspace_without_points_panics() {
        let w = Workspace::empty(soter_sim::geometry::Aabb::new(
            Vec3::ZERO,
            Vec3::splat(10.0),
        ));
        let _ = SurveillanceApp::new(&w, TargetPolicy::RoundRobin);
    }
}
