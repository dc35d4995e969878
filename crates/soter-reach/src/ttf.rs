//! Time-to-failure checks against an obstacle workspace.
//!
//! The paper defines `ttf_2Δ : S × 2^S → B`, which returns `true` when the
//! minimum time after which `φ_safe` may stop holding is at most `2Δ`
//! (Sec. III-C, "From theory to practice").  The decision-module check
//! `Reach(s, *, 2Δ) ⊄ φ_safe` of Fig. 9 is exactly `ttf_2Δ(s, φ_safe)`.
//! [`ObstacleTtf`] implements that check for the obstacle-avoidance safety
//! specification of the motion-primitive RTA module: `φ_safe` is the free
//! space of a [`Workspace`], and the forward reachable set is the
//! over-approximation computed by [`ForwardReach`].

use crate::forward::ForwardReach;
use soter_sim::dynamics::DroneState;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// Time-to-failure computation against a static obstacle workspace.
#[derive(Debug, Clone)]
pub struct ObstacleTtf {
    workspace: Workspace,
    reach: ForwardReach,
    /// Extra clearance margin (metres) required around obstacles; typically
    /// the safe controller's certified tracking-error bound, so that a state
    /// declared "safe for 2Δ" is still recoverable by the SC afterwards.
    margin: f64,
}

impl ObstacleTtf {
    /// Creates a time-to-failure checker.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative.
    pub fn new(workspace: Workspace, reach: ForwardReach, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        ObstacleTtf {
            workspace,
            reach,
            margin,
        }
    }

    /// The workspace defining `φ_safe`.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The forward-reach computer.
    pub fn reach(&self) -> &ForwardReach {
        &self.reach
    }

    /// The clearance margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Returns `true` if the current state itself satisfies `φ_safe`
    /// (inside the workspace and outside every obstacle).  The extra margin
    /// is *not* applied here: it only buffers the forward-reach check, so
    /// that legitimate states such as a drone parked on the ground are not
    /// misclassified as unsafe.
    pub fn is_safe(&self, state: &DroneState) -> bool {
        self.workspace.is_free(state.position)
    }

    /// The paper's `ttf_horizon(s, φ_safe)`: `true` when the plant may leave
    /// `φ_safe` within `horizon` seconds under any admissible control, or
    /// may reach a state from which even maximal braking can no longer avoid
    /// leaving it — equivalently, when the direction-aware occupancy
    /// (including the braking footprint needed by the safe controller to
    /// recover) is not entirely contained in free space.
    pub fn may_leave_safe_within(&self, state: &DroneState, horizon: f64) -> bool {
        let occupancy = self.reach.occupancy_directed(state, horizon, true);
        !self
            .workspace
            .region_is_free_with_margin(&occupancy, self.margin)
    }

    /// The command-conditional variant of
    /// [`ObstacleTtf::may_leave_safe_within`]: `true` when the plant may
    /// leave `φ_safe` within `horizon` seconds while executing the *given
    /// commanded acceleration* (held constant), including the braking
    /// footprint needed by the safe controller to recover afterwards.  This
    /// is the check the implicit-Simplex filter runs on the AC's proposed
    /// command instead of the worst case over all controls.
    pub fn command_may_leave_safe_within(
        &self,
        state: &DroneState,
        accel: Vec3,
        horizon: f64,
    ) -> bool {
        let occupancy = self.reach.occupancy_under_command(state, accel, horizon);
        !self
            .workspace
            .region_is_free_with_margin(&occupancy, self.margin)
    }

    /// ASIF-style minimal intervention: projects a proposed acceleration
    /// command onto the nearest admissible command along the ray from the
    /// full-brake command to the proposal, where "admissible" means the
    /// commanded occupancy over `horizon` stays in free space with margin.
    /// Deterministic bisection (fixed iteration count, no solver); returns
    /// `None` when the proposal is already admissible and `Some(clipped)`
    /// when the filter must intervene.  If even full braking is not
    /// admissible the brake command itself is returned — the least-bad
    /// minimal intervention.
    pub fn project_command_accel(
        &self,
        state: &DroneState,
        proposed: Vec3,
        horizon: f64,
    ) -> Option<Vec3> {
        let admissible = |a: Vec3| !self.command_may_leave_safe_within(state, a, horizon);
        if admissible(proposed) {
            return None;
        }
        // The anchor of the ray: brake as hard as the plant allows against
        // the current velocity (zero acceleration when already at rest).
        let brake = (state.velocity * -1e6).clamp_norm(self.reach.dynamics.max_acceleration);
        if !admissible(brake) {
            return Some(brake);
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..16 {
            let mid = 0.5 * (lo + hi);
            if admissible(brake.lerp(&proposed, mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(brake.lerp(&proposed, lo))
    }

    /// A scalar time-to-failure estimate: the largest horizon `t ≤ max_horizon`
    /// (to within `tolerance`) for which the state provably cannot leave
    /// `φ_safe`.  Returns `0.0` if the state is already unsafe and
    /// `max_horizon` if no failure is reachable within the window.  Used to
    /// plot the operating regions of Fig. 10 and by the Δ-ablation bench.
    pub fn time_to_failure(&self, state: &DroneState, max_horizon: f64, tolerance: f64) -> f64 {
        assert!(max_horizon > 0.0 && tolerance > 0.0);
        if !self.is_safe(state) {
            return 0.0;
        }
        if !self.may_leave_safe_within(state, max_horizon) {
            return max_horizon;
        }
        // Binary search for the boundary between "provably safe for t" and
        // "may fail within t".
        let (mut lo, mut hi) = (0.0, max_horizon);
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            if self.may_leave_safe_within(state, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_sim::dynamics::QuadrotorDynamics;
    use soter_sim::vec3::Vec3;

    fn ttf() -> ObstacleTtf {
        ObstacleTtf::new(
            Workspace::city_block(),
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.05),
            0.2,
        )
    }

    #[test]
    fn state_far_from_obstacles_cannot_fail_soon() {
        let t = ttf();
        // Hovering high above the buildings in the middle of a street.
        let s = DroneState::at_rest(Vec3::new(5.0, 5.0, 2.5));
        assert!(t.is_safe(&s));
        assert!(!t.may_leave_safe_within(&s, 0.2));
    }

    #[test]
    fn state_adjacent_to_obstacle_may_fail_quickly() {
        let t = ttf();
        // 1 m from a house face, flying toward it fast.
        let s = DroneState {
            position: Vec3::new(8.0, 13.0, 3.0),
            velocity: Vec3::new(6.0, 0.0, 0.0),
        };
        assert!(t.is_safe(&s));
        assert!(t.may_leave_safe_within(&s, 1.0));
    }

    #[test]
    fn unsafe_state_has_zero_ttf() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(13.0, 13.0, 3.0)); // inside a house
        assert!(!t.is_safe(&s));
        assert_eq!(t.time_to_failure(&s, 5.0, 0.01), 0.0);
    }

    #[test]
    fn ttf_monotone_with_distance_to_obstacles() {
        let t = ttf();
        let near = DroneState::at_rest(Vec3::new(8.3, 13.0, 3.0));
        let far = DroneState::at_rest(Vec3::new(4.0, 4.0, 2.0));
        let ttf_near = t.time_to_failure(&near, 5.0, 0.01);
        let ttf_far = t.time_to_failure(&far, 5.0, 0.01);
        assert!(ttf_near < ttf_far, "near {ttf_near} vs far {ttf_far}");
    }

    #[test]
    fn ttf_saturates_at_max_horizon() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(4.0, 4.0, 2.0));
        let v = t.time_to_failure(&s, 0.1, 0.01);
        assert_eq!(v, 0.1);
    }

    #[test]
    fn ttf_respects_velocity_direction_magnitude() {
        let t = ttf();
        // Same position, but one state is moving fast: its worst-case reach
        // is larger, so its time-to-failure is smaller.
        let slow = DroneState::at_rest(Vec3::new(6.0, 13.0, 3.0));
        let fast = DroneState {
            position: Vec3::new(6.0, 13.0, 3.0),
            velocity: Vec3::new(8.0, 0.0, 0.0),
        };
        let ttf_slow = t.time_to_failure(&slow, 5.0, 0.01);
        let ttf_fast = t.time_to_failure(&fast, 5.0, 0.01);
        assert!(ttf_fast < ttf_slow);
    }

    #[test]
    fn may_leave_is_monotone_in_horizon() {
        let t = ttf();
        let s = DroneState {
            position: Vec3::new(7.0, 13.0, 3.0),
            velocity: Vec3::new(2.0, 0.0, 0.0),
        };
        // If the state may fail within 0.3 s it may certainly fail within 1 s.
        if t.may_leave_safe_within(&s, 0.3) {
            assert!(t.may_leave_safe_within(&s, 1.0));
        }
        // And conversely, if it cannot fail within 1 s it cannot fail within 0.3 s.
        if !t.may_leave_safe_within(&s, 1.0) {
            assert!(!t.may_leave_safe_within(&s, 0.3));
        }
    }

    #[test]
    fn command_check_is_tighter_than_worst_case() {
        let t = ttf();
        // Hovering 2 m from a house face: the any-control check must assume
        // a full-power dash at the wall, but the hover command itself goes
        // nowhere.
        let s = DroneState::at_rest(Vec3::new(7.0, 13.0, 3.0));
        assert!(t.may_leave_safe_within(&s, 1.0));
        assert!(!t.command_may_leave_safe_within(&s, Vec3::ZERO, 1.0));
        // A commanded dash at the wall is caught by the command check too.
        assert!(t.command_may_leave_safe_within(&s, Vec3::new(6.0, 0.0, 0.0), 1.0));
    }

    #[test]
    fn projection_passes_admissible_commands_through() {
        let t = ttf();
        // In the middle of a street, far from every obstacle.
        let s = DroneState::at_rest(Vec3::new(5.0, 5.0, 2.5));
        assert_eq!(
            t.project_command_accel(&s, Vec3::new(1.0, 0.0, 0.0), 0.2),
            None
        );
    }

    #[test]
    fn projection_clips_along_the_command_ray() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(7.0, 13.0, 3.0));
        let proposed = Vec3::new(6.0, 0.0, 0.0);
        let clipped = t
            .project_command_accel(&s, proposed, 1.0)
            .expect("a dash at the wall must be clipped");
        // The clip lies on the segment [brake, proposed] (brake = hover
        // here, since the state is at rest), keeps the direction of the
        // proposal, and is itself admissible.
        assert!(clipped.x >= 0.0 && clipped.x < proposed.x);
        assert!(clipped.y.abs() < 1e-9 && clipped.z.abs() < 1e-9);
        assert!(!t.command_may_leave_safe_within(&s, clipped, 1.0));
    }

    #[test]
    fn out_of_bounds_is_unsafe() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(-5.0, 5.0, 2.0));
        assert!(!t.is_safe(&s));
    }

    #[test]
    #[should_panic]
    fn negative_margin_panics() {
        let _ = ObstacleTtf::new(
            Workspace::city_block(),
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.0),
            -0.5,
        );
    }
}
