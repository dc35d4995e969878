//! Reference circuits used by the experiments.
//!
//! * [`square_circuit`] — the `g1 → g2 → g3 → g4` patrol circuit of the
//!   Fig. 5 (right) and Fig. 12a experiments,
//! * [`figure_eight`] — the figure-eight loop of the learned-controller
//!   experiment (Fig. 5 left),
//! * [`WaypointMission`] — a small helper that feeds waypoints to a motion
//!   primitive one at a time and tracks progress, the way the application
//!   layer of the paper's stack does.

use soter_sim::dynamics::DroneState;
use soter_sim::vec3::Vec3;

/// The four-corner patrol circuit (`g1..g4`) of the paper's experiments,
/// inscribed in the given workspace-aligned rectangle at a fixed altitude.
pub fn square_circuit(min_xy: [f64; 2], max_xy: [f64; 2], altitude: f64) -> Vec<Vec3> {
    vec![
        Vec3::new(min_xy[0], min_xy[1], altitude),
        Vec3::new(max_xy[0], min_xy[1], altitude),
        Vec3::new(max_xy[0], max_xy[1], altitude),
        Vec3::new(min_xy[0], max_xy[1], altitude),
    ]
}

/// A figure-eight (lemniscate) loop sampled as `n` waypoints, with
/// half-width `a` and half-height `b`, centred at `center`.
pub fn figure_eight(center: Vec3, a: f64, b: f64, n: usize) -> Vec<Vec3> {
    assert!(n >= 8, "a figure-eight needs at least 8 samples");
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64 * std::f64::consts::TAU;
            Vec3::new(
                center.x + a * t.sin(),
                center.y + b * (2.0 * t).sin() * 0.5,
                center.z,
            )
        })
        .collect()
}

/// Tracks progress through a list of waypoints: the mission advances to the
/// next waypoint when the vehicle is within `arrival_tolerance` of the
/// current one, optionally looping forever (the surveillance protocol's
/// "visit all points infinitely often").
#[derive(Debug, Clone)]
pub struct WaypointMission {
    waypoints: Vec<Vec3>,
    arrival_tolerance: f64,
    current: usize,
    laps: usize,
    looping: bool,
}

impl WaypointMission {
    /// Creates a mission over the given waypoints.
    ///
    /// # Panics
    ///
    /// Panics if `waypoints` is empty or the tolerance is not positive.
    pub fn new(waypoints: Vec<Vec3>, arrival_tolerance: f64, looping: bool) -> Self {
        assert!(
            !waypoints.is_empty(),
            "a mission needs at least one waypoint"
        );
        assert!(
            arrival_tolerance > 0.0,
            "arrival tolerance must be positive"
        );
        WaypointMission {
            waypoints,
            arrival_tolerance,
            current: 0,
            laps: 0,
            looping,
        }
    }

    /// The waypoint currently being tracked.
    pub fn current_target(&self) -> Vec3 {
        self.waypoints[self.current]
    }

    /// All waypoints of the mission.
    pub fn waypoints(&self) -> &[Vec3] {
        &self.waypoints
    }

    /// Number of completed laps (full passes over the waypoint list).
    pub fn laps(&self) -> usize {
        self.laps
    }

    /// Returns `true` once a non-looping mission has visited every waypoint.
    pub fn is_complete(&self) -> bool {
        !self.looping && self.laps >= 1
    }

    /// Updates mission progress from the current vehicle state and returns
    /// the waypoint to track next.
    pub fn update(&mut self, state: &DroneState) -> Vec3 {
        if !self.is_complete()
            && state.position.distance(&self.waypoints[self.current]) < self.arrival_tolerance
        {
            self.current += 1;
            if self.current >= self.waypoints.len() {
                self.laps += 1;
                self.current = if self.looping {
                    0
                } else {
                    self.waypoints.len() - 1
                };
            }
        }
        self.current_target()
    }

    /// Resets mission progress.
    pub fn reset(&mut self) {
        self.current = 0;
        self.laps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_circuit_has_four_corners_at_altitude() {
        let c = square_circuit([2.0, 3.0], [10.0, 11.0], 5.0);
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|p| p.z == 5.0));
        assert_eq!(c[0], Vec3::new(2.0, 3.0, 5.0));
        assert_eq!(c[2], Vec3::new(10.0, 11.0, 5.0));
    }

    #[test]
    fn figure_eight_is_centred_and_bounded() {
        let center = Vec3::new(1.0, 2.0, 10.0);
        let pts = figure_eight(center, 5.0, 3.0, 64);
        assert_eq!(pts.len(), 64);
        for p in &pts {
            assert!((p.x - center.x).abs() <= 5.0 + 1e-9);
            assert!((p.y - center.y).abs() <= 3.0 + 1e-9);
            assert_eq!(p.z, center.z);
        }
        // The loop crosses its centre line (that is what makes it an eight).
        assert!(pts.iter().any(|p| p.x > center.x) && pts.iter().any(|p| p.x < center.x));
    }

    #[test]
    #[should_panic]
    fn tiny_figure_eight_panics() {
        let _ = figure_eight(Vec3::ZERO, 1.0, 1.0, 4);
    }

    #[test]
    fn mission_advances_and_counts_laps() {
        let wps = square_circuit([0.0, 0.0], [10.0, 10.0], 2.0);
        let mut mission = WaypointMission::new(wps.clone(), 0.5, true);
        assert_eq!(mission.current_target(), wps[0]);
        // Teleport the vehicle to each waypoint in turn.
        for lap in 0..2 {
            for (i, wp) in wps.iter().enumerate() {
                let state = DroneState::at_rest(*wp);
                let next = mission.update(&state);
                let expected_next = wps[(i + 1) % wps.len()];
                assert_eq!(next, expected_next, "lap {lap}, waypoint {i}");
            }
        }
        assert_eq!(mission.laps(), 2);
        assert!(!mission.is_complete(), "looping missions never complete");
        mission.reset();
        assert_eq!(mission.laps(), 0);
        assert_eq!(mission.current_target(), wps[0]);
    }

    #[test]
    fn non_looping_mission_completes_once() {
        let wps = vec![Vec3::new(0.0, 0.0, 2.0), Vec3::new(5.0, 0.0, 2.0)];
        let mut mission = WaypointMission::new(wps.clone(), 0.5, false);
        assert!(!mission.is_complete());
        mission.update(&DroneState::at_rest(wps[0]));
        mission.update(&DroneState::at_rest(wps[1]));
        assert!(mission.is_complete());
        // Once complete the target stays at the last waypoint.
        assert_eq!(mission.update(&DroneState::at_rest(wps[1])), wps[1]);
        assert_eq!(mission.laps(), 1);
    }

    #[test]
    fn far_away_state_does_not_advance_mission() {
        let wps = vec![Vec3::new(0.0, 0.0, 2.0), Vec3::new(5.0, 0.0, 2.0)];
        let mut mission = WaypointMission::new(wps.clone(), 0.5, false);
        mission.update(&DroneState::at_rest(Vec3::new(100.0, 100.0, 2.0)));
        assert_eq!(mission.current_target(), wps[0]);
    }

    #[test]
    #[should_panic]
    fn empty_mission_panics() {
        let _ = WaypointMission::new(vec![], 0.5, true);
    }
}
