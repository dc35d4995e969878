//! The obstacle-aware certified safe controller used by the drone stack.
//!
//! FaSTrack's guarantee is relative to a *safe reference*: the tracking
//! error bound only keeps the vehicle safe if the reference itself stays
//! clear of obstacles.  When the SOTER decision module engages the safe
//! controller the vehicle may already be well off the reference (that is
//! why it was engaged), so the reproduction's safe controller additionally
//! carries the obstacle map and superimposes a repulsive velocity field on
//! the capped tracking command.  The result is a conservative controller
//! that (a) never exceeds its speed cap, (b) steers away from obstacles it
//! comes close to, and (c) still makes progress toward the commanded
//! waypoint — the properties the P2a/P2b well-formedness evidence checks by
//! sampling.

use crate::traits::MotionController;
use soter_sim::dynamics::{ControlInput, DroneState};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// Tuning of the shielded safe controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShieldedSafeConfig {
    /// Hard cap on the commanded speed (m/s).
    pub speed_cap: f64,
    /// Proportional gain from position error to desired velocity.
    pub kp: f64,
    /// Gain from velocity error to commanded acceleration.
    pub kv: f64,
    /// Maximum commanded acceleration (m/s²).
    pub max_accel: f64,
    /// Distance (m) at which obstacle repulsion starts acting.
    pub influence: f64,
    /// Gain of the repulsive velocity field.
    pub repulsion_gain: f64,
}

impl Default for ShieldedSafeConfig {
    fn default() -> Self {
        ShieldedSafeConfig {
            speed_cap: 2.0,
            kp: 1.2,
            kv: 4.0,
            max_accel: 6.0,
            influence: 2.5,
            repulsion_gain: 4.0,
        }
    }
}

/// The obstacle-aware conservative controller.
#[derive(Debug, Clone)]
pub struct ShieldedSafeController {
    config: ShieldedSafeConfig,
    workspace: Workspace,
}

impl ShieldedSafeController {
    /// Creates the controller over the given workspace.
    pub fn new(workspace: Workspace, config: ShieldedSafeConfig) -> Self {
        ShieldedSafeController { config, workspace }
    }

    /// Creates the controller with default tuning.
    pub fn with_workspace(workspace: Workspace) -> Self {
        ShieldedSafeController::new(workspace, ShieldedSafeConfig::default())
    }

    /// The controller tuning.
    pub fn config(&self) -> &ShieldedSafeConfig {
        &self.config
    }

    /// The repulsive velocity contributed by nearby obstacles and the
    /// horizontal workspace walls.
    fn repulsion(&self, position: Vec3) -> Vec3 {
        let c = &self.config;
        let mut repulse = Vec3::ZERO;
        for obstacle in self.workspace.obstacles() {
            let inflated = obstacle.inflate(self.workspace.robot_radius());
            let closest = inflated.closest_point(&position);
            let away = position - closest;
            let distance = away.norm();
            if distance < 1e-6 {
                // Inside (or on the surface of) the obstacle: push outward
                // from its centre as hard as the field allows.
                repulse += (position - inflated.center()).normalized() * c.repulsion_gain * 4.0;
            } else if distance < c.influence {
                repulse +=
                    away.normalized() * c.repulsion_gain * (1.0 / distance - 1.0 / c.influence);
            }
        }
        // Horizontal workspace walls (the geofence); the ground and ceiling
        // are handled by altitude tracking, not repulsion.
        let b = self.workspace.bounds();
        let walls = [
            (position.x - b.min.x, Vec3::new(1.0, 0.0, 0.0)),
            (b.max.x - position.x, Vec3::new(-1.0, 0.0, 0.0)),
            (position.y - b.min.y, Vec3::new(0.0, 1.0, 0.0)),
            (b.max.y - position.y, Vec3::new(0.0, -1.0, 0.0)),
        ];
        for (distance, inward) in walls {
            if distance > 1e-6 && distance < c.influence {
                repulse += inward * c.repulsion_gain * (1.0 / distance - 1.0 / c.influence);
            }
        }
        repulse
    }
}

impl MotionController for ShieldedSafeController {
    fn name(&self) -> &str {
        "shielded-safe"
    }

    fn control(&mut self, state: &DroneState, target: Vec3, _dt: f64) -> ControlInput {
        let c = &self.config;
        // Cap the attraction to the speed limit *before* adding repulsion so
        // that a distant waypoint can never out-vote a nearby obstacle.
        let attract = ((target - state.position) * c.kp).clamp_norm(c.speed_cap);
        let desired_velocity = (attract + self.repulsion(state.position)).clamp_norm(c.speed_cap);
        let accel = (desired_velocity - state.velocity) * c.kv;
        ControlInput::accel(accel.clamp_norm(c.max_accel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_sim::dynamics::QuadrotorDynamics;

    fn controller() -> ShieldedSafeController {
        ShieldedSafeController::with_workspace(Workspace::corner_cut_course())
    }

    fn run(
        c: &mut ShieldedSafeController,
        mut state: DroneState,
        target: Vec3,
        steps: usize,
    ) -> (DroneState, bool, f64) {
        let dynamics = QuadrotorDynamics::default();
        let world = Workspace::corner_cut_course();
        let mut collided = false;
        let mut max_speed = 0.0f64;
        for _ in 0..steps {
            let u = c.control(&state, target, 0.01);
            state = dynamics.step(&state, &u, Vec3::ZERO, 0.01);
            collided |= world.in_collision(state.position);
            max_speed = max_speed.max(state.speed());
        }
        (state, collided, max_speed)
    }

    #[test]
    fn reaches_open_targets_without_collision() {
        let mut c = controller();
        let start = DroneState::at_rest(Vec3::new(3.0, 3.0, 5.0));
        let (end, collided, max_speed) = run(&mut c, start, Vec3::new(17.0, 3.0, 5.0), 15_000);
        assert!(!collided);
        assert!(
            end.position.distance(&Vec3::new(17.0, 3.0, 5.0)) < 1.0,
            "ended at {}",
            end.position
        );
        assert!(max_speed <= c.config().speed_cap + 0.2);
    }

    #[test]
    fn steers_away_when_target_is_behind_an_obstacle() {
        // Commanding a waypoint straight through the central building: the
        // controller must not collide even though the naive line does.
        let mut c = controller();
        let start = DroneState::at_rest(Vec3::new(3.0, 10.0, 5.0));
        let (_end, collided, _) = run(&mut c, start, Vec3::new(10.0, 10.0, 5.0), 10_000);
        assert!(
            !collided,
            "the shielded controller must never enter the obstacle"
        );
    }

    #[test]
    fn recovers_when_engaged_moving_toward_an_obstacle() {
        // Engaged at 6 m/s heading straight for the central building from
        // ~5 m away — the kind of state the decision module hands the SC
        // (the switching rule always leaves at least the braking distance).
        let mut c = controller();
        let start = DroneState {
            position: Vec3::new(1.5, 10.0, 5.0),
            velocity: Vec3::new(6.0, 0.0, 0.0),
        };
        let (_end, collided, _) = run(&mut c, start, Vec3::new(17.0, 10.0, 5.0), 10_000);
        assert!(
            !collided,
            "braking plus repulsion must prevent the collision"
        );
    }

    #[test]
    fn speed_cap_holds_from_rest() {
        let mut c = controller();
        let start = DroneState::at_rest(Vec3::new(3.0, 3.0, 5.0));
        let (_, _, max_speed) = run(&mut c, start, Vec3::new(17.0, 17.0, 5.0), 5_000);
        assert!(
            max_speed <= c.config().speed_cap + 0.2,
            "max speed {max_speed}"
        );
    }

    #[test]
    fn stays_inside_the_geofence() {
        let mut c = controller();
        // Target outside the workspace: the wall repulsion keeps the vehicle
        // inside.
        let start = DroneState::at_rest(Vec3::new(17.0, 17.0, 5.0));
        let world = Workspace::corner_cut_course();
        let dynamics = QuadrotorDynamics::default();
        let mut state = start;
        for _ in 0..8000 {
            let u = c.control(&state, Vec3::new(30.0, 17.0, 5.0), 0.01);
            state = dynamics.step(&state, &u, Vec3::ZERO, 0.01);
            assert!(
                world.bounds().contains(&state.position),
                "left the geofence at {}",
                state.position
            );
        }
    }
}
