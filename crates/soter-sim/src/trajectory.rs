//! Trajectory recording and mission metrics.
//!
//! The evaluation of the paper reports trajectory-level quantities: whether a
//! run violated φ_obs (collisions), how far the vehicle strayed from its
//! reference, how long a circuit took under AC-only / RTA / SC-only control
//! (Fig. 12a), how many times the safe controller had to engage, and campaign
//! aggregates such as distance flown and disengagement counts (Sec. V-D).
//! [`Trajectory`] and [`MissionMetrics`] compute those quantities from a
//! recorded run.

use crate::dynamics::DroneState;
use crate::geometry::point_segment_distance;
use crate::vec3::Vec3;
use crate::world::Workspace;

/// A single timestamped trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Simulation time (seconds).
    pub time: f64,
    /// Ground-truth state at that time.
    pub state: DroneState,
    /// Whether the safe controller was in command at that time (`true`) or
    /// the advanced controller (`false`).
    pub safe_mode: bool,
}

/// A recorded trajectory: a time-ordered sequence of samples.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    samples: Vec<TrajectorySample>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Trajectory {
            samples: Vec::new(),
        }
    }

    /// Appends a sample.  Samples must be pushed in non-decreasing time
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `time` is smaller than the previously recorded time.
    pub fn push(&mut self, time: f64, state: DroneState, safe_mode: bool) {
        if let Some(last) = self.samples.last() {
            assert!(time >= last.time, "samples must be time-ordered");
        }
        self.samples.push(TrajectorySample {
            time,
            state,
            safe_mode,
        });
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples in time order.
    pub fn samples(&self) -> &[TrajectorySample] {
        &self.samples
    }

    /// Total duration covered by the trajectory (seconds).
    pub fn duration(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => 0.0,
        }
    }

    /// Total path length (metres).
    pub fn path_length(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| w[1].state.position.distance(&w[0].state.position))
            .sum()
    }

    /// Number of samples in which the vehicle was in collision with the
    /// workspace (ground-truth φ_obs violations).
    pub fn collision_samples(&self, world: &Workspace) -> usize {
        self.samples
            .iter()
            .filter(|s| world.in_collision(s.state.position))
            .count()
    }

    /// Minimum clearance to obstacles over the whole run (metres).
    pub fn min_clearance(&self, world: &Workspace) -> f64 {
        self.samples
            .iter()
            .map(|s| world.clearance(s.state.position))
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum deviation of the recorded positions from a reference polyline
    /// (metres) — the "how far did the drone stray from the reference
    /// trajectory" quantity of Fig. 5.
    pub fn max_deviation_from_polyline(&self, waypoints: &[Vec3]) -> f64 {
        if waypoints.len() < 2 {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| {
                waypoints
                    .windows(2)
                    .map(|w| point_segment_distance(&s.state.position, &w[0], &w[1]))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of time the advanced controller was in command — the
    /// "> 96 % of the time" statistic of Sec. V-D.
    pub fn advanced_controller_fraction(&self) -> f64 {
        if self.samples.len() < 2 {
            return 1.0;
        }
        let mut ac_time = 0.0;
        let mut total = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].time - w[0].time;
            total += dt;
            if !w[0].safe_mode {
                ac_time += dt;
            }
        }
        if total == 0.0 {
            1.0
        } else {
            ac_time / total
        }
    }

    /// Number of AC→SC switches (disengagements, in the paper's terminology).
    pub fn disengagements(&self) -> usize {
        self.samples
            .windows(2)
            .filter(|w| !w[0].safe_mode && w[1].safe_mode)
            .count()
    }

    /// Number of SC→AC switches (control returned to the advanced
    /// controller).
    pub fn reengagements(&self) -> usize {
        self.samples
            .windows(2)
            .filter(|w| w[0].safe_mode && !w[1].safe_mode)
            .count()
    }
}

/// Aggregate metrics for one mission, in the vocabulary the paper's
/// evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionMetrics {
    /// Wall-clock (simulated) duration of the mission in seconds.
    pub duration: f64,
    /// Path length flown in metres.
    pub distance: f64,
    /// Number of ground-truth collision samples (0 means φ_obs held).
    pub collisions: usize,
    /// Number of AC→SC switches.
    pub disengagements: usize,
    /// Number of SC→AC switches.
    pub reengagements: usize,
    /// Fraction of mission time with the advanced controller in command.
    pub ac_fraction: f64,
    /// Minimum obstacle clearance over the mission (metres).
    pub min_clearance: f64,
    /// Whether the mission objective was completed.
    pub completed: bool,
}

impl MissionMetrics {
    /// Computes metrics from a trajectory and a completion flag.
    pub fn from_trajectory(traj: &Trajectory, world: &Workspace, completed: bool) -> Self {
        MissionMetrics {
            duration: traj.duration(),
            distance: traj.path_length(),
            collisions: traj.collision_samples(world),
            disengagements: traj.disengagements(),
            reengagements: traj.reengagements(),
            ac_fraction: traj.advanced_controller_fraction(),
            min_clearance: traj.min_clearance(world),
            completed,
        }
    }

    /// Returns `true` if the mission satisfied the obstacle-avoidance safety
    /// invariant.
    pub fn is_safe(&self) -> bool {
        self.collisions == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Aabb;

    fn straight_run(safe_from: usize) -> Trajectory {
        let mut t = Trajectory::new();
        for i in 0..100 {
            let time = i as f64 * 0.1;
            let state = DroneState::at_rest(Vec3::new(i as f64 * 0.1, 0.0, 2.0));
            t.push(time, state, i >= safe_from);
        }
        t
    }

    #[test]
    fn empty_trajectory_has_zero_metrics() {
        let t = Trajectory::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.path_length(), 0.0);
        assert_eq!(t.disengagements(), 0);
    }

    #[test]
    fn duration_and_length_of_straight_run() {
        let t = straight_run(1000);
        assert!((t.duration() - 9.9).abs() < 1e-9);
        assert!((t.path_length() - 9.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn out_of_order_samples_panic() {
        let mut t = Trajectory::new();
        t.push(1.0, DroneState::default(), false);
        t.push(0.5, DroneState::default(), false);
    }

    #[test]
    fn ac_fraction_and_switch_counts() {
        // Switch to SC halfway through.
        let t = straight_run(50);
        let f = t.advanced_controller_fraction();
        assert!((f - 0.5).abs() < 0.03, "expected ~0.5, got {f}");
        assert_eq!(t.disengagements(), 1);
        assert_eq!(t.reengagements(), 0);
    }

    #[test]
    fn all_ac_run_has_fraction_one() {
        let t = straight_run(1000);
        assert!((t.advanced_controller_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collision_detection_against_world() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(20.0));
        let world = Workspace::new(
            bounds,
            vec![Aabb::from_center_extents(
                Vec3::new(5.0, 0.0, 2.0),
                Vec3::splat(1.0),
            )],
            0.0,
        );
        let t = straight_run(1000);
        assert!(t.collision_samples(&world) > 0);
        assert!(t.min_clearance(&world) <= 0.0);
    }

    #[test]
    fn deviation_from_polyline() {
        let mut t = Trajectory::new();
        t.push(0.0, DroneState::at_rest(Vec3::new(0.0, 1.0, 0.0)), false);
        t.push(1.0, DroneState::at_rest(Vec3::new(5.0, 2.0, 0.0)), false);
        let reference = [Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        assert!((t.max_deviation_from_polyline(&reference) - 2.0).abs() < 1e-9);
        // Degenerate reference.
        assert_eq!(t.max_deviation_from_polyline(&[Vec3::ZERO]), 0.0);
    }

    #[test]
    fn mission_metrics_aggregation() {
        let world = Workspace::empty(Aabb::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::splat(50.0)));
        let t = straight_run(30);
        let m = MissionMetrics::from_trajectory(&t, &world, true);
        assert!(m.is_safe());
        assert!(m.completed);
        assert_eq!(m.disengagements, 1);
        assert!(m.duration > 0.0 && m.distance > 0.0);
        assert!(m.ac_fraction > 0.2 && m.ac_fraction < 0.4);
    }
}
