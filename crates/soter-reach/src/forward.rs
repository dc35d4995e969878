//! Forward reachable sets under bounded, nondeterministic control.
//!
//! `Reach(s, *, t)` in the paper is the set of states reachable from `s`
//! within time `t` when the module's outputs are replaced by completely
//! nondeterministic values.  For the quadrotor model of `soter-sim` the
//! admissible controls are accelerations of magnitude at most
//! `max_acceleration` and the speed is capped at `max_speed`, so the
//! positions reachable within `t` are contained in a ball of radius
//! `max_excursion(speed, t)` around the current position.  [`ForwardReach`]
//! over-approximates that ball with an axis-aligned box (which composes with
//! the obstacle world's box queries) and additionally accounts for the
//! bounded state-estimation error of the trusted sensors.

use soter_sim::dynamics::{DroneState, QuadrotorDynamics};
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;

/// Forward reachable-set computation for the quadrotor plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardReach {
    /// Plant dynamics limits.
    pub dynamics: QuadrotorDynamics,
    /// Integration step of the simulator (tightens the excursion bound).
    pub plant_step: f64,
    /// Worst-case Euclidean position estimation error of the trusted state
    /// estimator (metres); the reach set is inflated by this amount.
    pub estimation_error: f64,
}

impl ForwardReach {
    /// Creates a forward-reach computer.
    ///
    /// # Panics
    ///
    /// Panics if `plant_step` is not positive or `estimation_error` is
    /// negative.
    pub fn new(dynamics: QuadrotorDynamics, plant_step: f64, estimation_error: f64) -> Self {
        assert!(plant_step > 0.0, "plant step must be positive");
        assert!(
            estimation_error >= 0.0,
            "estimation error must be non-negative"
        );
        ForwardReach {
            dynamics,
            plant_step,
            estimation_error,
        }
    }

    /// Radius of the position ball reachable from a state with the given
    /// speed within `horizon` seconds under any admissible control,
    /// including the estimation-error inflation.
    pub fn excursion_radius(&self, speed: f64, horizon: f64) -> f64 {
        self.dynamics
            .max_excursion_with_step(speed, horizon, self.plant_step)
            + self.estimation_error
    }

    /// Axis-aligned over-approximation of the positions reachable from
    /// `state` within `horizon` seconds under any admissible control —
    /// the occupancy of `Reach(s, *, horizon)`.
    pub fn occupancy(&self, state: &DroneState, horizon: f64) -> Aabb {
        assert!(horizon >= 0.0, "horizon must be non-negative");
        let r = self.excursion_radius(state.speed(), horizon);
        Aabb::from_center_extents(state.position, Vec3::splat(2.0 * r))
    }

    /// Direction-aware over-approximation of the positions reachable within
    /// `horizon` under any admissible control, optionally extended by the
    /// distance needed to brake to a stop afterwards.
    ///
    /// The isotropic [`ForwardReach::occupancy`] ball is sound but very
    /// conservative sideways: a vehicle moving fast along a street is
    /// treated as if it could be that far *sideways* too.  This variant
    /// bounds each axis separately: along axis `i` the displacement over
    /// `[0, horizon]` lies in
    /// `[min(0, vᵢ·h − ½·a·h²) − brake⁻, max(0, vᵢ·h + ½·a·h²) + brake⁺]`,
    /// where `a` is the effective acceleration limit and `brake±` is the
    /// stopping distance from the worst-case velocity reached at the end of
    /// the horizon (included when `include_braking` is `true`).  Including
    /// the braking term makes the answer to "can the system still be saved
    /// by the safe controller after `horizon`?" conservative, which is what
    /// the decision module needs: when this region is free, switching to the
    /// safe controller within `horizon` is guaranteed to avoid a collision.
    pub fn occupancy_directed(
        &self,
        state: &DroneState,
        horizon: f64,
        include_braking: bool,
    ) -> Aabb {
        assert!(horizon >= 0.0, "horizon must be non-negative");
        let a_eff = self.dynamics.max_acceleration + self.dynamics.drag * self.dynamics.max_speed;
        let a_brake = self.dynamics.max_acceleration;
        let h = horizon;
        let slack = 0.5 * a_eff * h * self.plant_step.min(h) + self.estimation_error;
        let v = state.velocity;
        let axis = |v_i: f64| -> (f64, f64) {
            let fwd_reach = (v_i * h + 0.5 * a_eff * h * h).max(0.0);
            let back_reach = (-v_i * h + 0.5 * a_eff * h * h).max(0.0);
            if include_braking {
                let v_fwd = (v_i + a_eff * h).clamp(0.0, self.dynamics.max_speed);
                let v_back = (-v_i + a_eff * h).clamp(0.0, self.dynamics.max_speed);
                (
                    back_reach + v_back * v_back / (2.0 * a_brake) + slack,
                    fwd_reach + v_fwd * v_fwd / (2.0 * a_brake) + slack,
                )
            } else {
                (back_reach + slack, fwd_reach + slack)
            }
        };
        let (xm, xp) = axis(v.x);
        let (ym, yp) = axis(v.y);
        let (zm, zp) = axis(v.z);
        let p = state.position;
        Aabb::new(
            Vec3::new(p.x - xm, p.y - ym, p.z - zm),
            Vec3::new(p.x + xp, p.y + yp, p.z + zp),
        )
    }

    /// Axis-aligned over-approximation of the positions occupied when the
    /// plant executes the *given commanded acceleration*, held constant,
    /// over `horizon` seconds — the one-step command-reach set the
    /// implicit-Simplex and ASIF filters evaluate, as opposed to the
    /// any-control `Reach(s, *, t)` of [`ForwardReach::occupancy_directed`].
    ///
    /// The commanded closed loop is simulated at the plant step, the
    /// trajectory's bounding box taken, and the result inflated by the
    /// estimation error, a discretisation slack, and the braking footprint
    /// from the worst-case terminal speed — so that "the command-reach set
    /// is free" still implies the safe controller can recover *after* the
    /// horizon, mirroring the `include_braking` contract of the directed
    /// occupancy.
    pub fn occupancy_under_command(&self, state: &DroneState, accel: Vec3, horizon: f64) -> Aabb {
        assert!(horizon >= 0.0, "horizon must be non-negative");
        let u = soter_sim::dynamics::ControlInput::accel(accel);
        let mut s = *state;
        let (mut lo, mut hi) = (s.position, s.position);
        let mut t = 0.0;
        while t < horizon {
            let dt = self.plant_step.min(horizon - t);
            s = self.dynamics.step(&s, &u, Vec3::ZERO, dt);
            t += dt;
            lo = lo.min(&s.position);
            hi = hi.max(&s.position);
        }
        // Between samples the trajectory can overshoot the sampled
        // positions by at most ½·a_eff·dt² plus one step of travel.
        let a_eff = self.dynamics.max_acceleration + self.dynamics.drag * self.dynamics.max_speed;
        let slack = self.dynamics.max_speed * self.plant_step.min(horizon)
            + 0.5 * a_eff * self.plant_step * self.plant_step;
        let braking = self.dynamics.stopping_distance(s.speed());
        Aabb::new(lo, hi).inflate(self.estimation_error + slack + braking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use soter_sim::dynamics::ControlInput;

    fn reach() -> ForwardReach {
        ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.1)
    }

    #[test]
    fn occupancy_contains_start_position() {
        let r = reach();
        let s = DroneState {
            position: Vec3::new(1.0, 2.0, 3.0),
            velocity: Vec3::new(2.0, 0.0, 0.0),
        };
        let occ = r.occupancy(&s, 0.5);
        assert!(occ.contains(&s.position));
    }

    #[test]
    fn occupancy_grows_with_horizon_and_speed() {
        let r = reach();
        let slow = DroneState::at_rest(Vec3::ZERO);
        let fast = DroneState {
            position: Vec3::ZERO,
            velocity: Vec3::new(6.0, 0.0, 0.0),
        };
        assert!(r.occupancy(&slow, 0.5).volume() < r.occupancy(&slow, 1.0).volume());
        assert!(r.occupancy(&slow, 0.5).volume() < r.occupancy(&fast, 0.5).volume());
    }

    #[test]
    fn zero_horizon_reduces_to_estimation_error_ball() {
        let r = reach();
        let s = DroneState::at_rest(Vec3::new(5.0, 5.0, 5.0));
        let occ = r.occupancy(&s, 0.0);
        // Radius should be exactly the estimation error (0.1).
        assert!((occ.extents().x - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_horizon_panics() {
        let _ = reach().occupancy(&DroneState::default(), -1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_construction_panics() {
        let _ = ForwardReach::new(QuadrotorDynamics::default(), 0.0, 0.0);
    }

    #[test]
    fn directed_occupancy_is_anisotropic_and_contains_the_start() {
        let r = reach();
        let s = DroneState {
            position: Vec3::new(0.0, 0.0, 10.0),
            velocity: Vec3::new(7.0, 0.0, 0.0),
        };
        let occ = r.occupancy_directed(&s, 0.2, false);
        assert!(occ.contains(&s.position));
        // Much deeper ahead (the +x direction of travel) than sideways.
        let ahead = occ.max.x - s.position.x;
        let side = occ.max.y - s.position.y;
        assert!(ahead > 3.0 * side, "ahead {ahead:.2} vs side {side:.2}");
        // Including braking extends the box further.
        let with_brake = r.occupancy_directed(&s, 0.2, true);
        assert!(with_brake.max.x > occ.max.x);
        assert!(with_brake.min.x <= occ.min.x);
    }

    #[test]
    fn directed_occupancy_contains_random_rollouts() {
        let r = reach();
        let dynamics = r.dynamics;
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..50 {
            let state = DroneState {
                position: Vec3::new(0.0, 0.0, 100.0),
                velocity: Vec3::new(
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-2.0..2.0),
                )
                .clamp_norm(dynamics.max_speed),
            };
            let horizon = rng.random_range(0.05..1.0);
            let occ = r.occupancy_directed(&state, horizon, false);
            let mut s = state;
            let mut t = 0.0;
            while t < horizon {
                let u = ControlInput::accel(Vec3::new(
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                ));
                s = dynamics.step(&s, &u, Vec3::ZERO, r.plant_step);
                t += r.plant_step;
                assert!(
                    occ.contains(&s.position),
                    "trial {trial}: {} escaped directed occupancy {occ} at t={t:.2}",
                    s.position
                );
            }
        }
    }

    #[test]
    fn command_occupancy_is_tighter_than_any_control() {
        let r = reach();
        let s = DroneState {
            position: Vec3::new(0.0, 0.0, 10.0),
            velocity: Vec3::new(5.0, 0.0, 0.0),
        };
        // A braking command pins the trajectory near the start; the
        // any-control directed box must contain far more space.
        let brake = Vec3::new(-6.0, 0.0, 0.0);
        let cmd = r.occupancy_under_command(&s, brake, 0.5);
        let any = r.occupancy_directed(&s, 0.5, true);
        assert!(cmd.contains(&s.position));
        assert!(cmd.volume() < any.volume());
    }

    #[test]
    fn command_occupancy_contains_the_commanded_rollout() {
        let r = reach();
        let dynamics = r.dynamics;
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..50 {
            let state = DroneState {
                position: Vec3::new(0.0, 0.0, 50.0),
                velocity: Vec3::new(
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-2.0..2.0),
                ),
            };
            let accel = Vec3::new(
                rng.random_range(-6.0..6.0),
                rng.random_range(-6.0..6.0),
                rng.random_range(-6.0..6.0),
            );
            let horizon = rng.random_range(0.05..1.0);
            let occ = r.occupancy_under_command(&state, accel, horizon);
            let u = ControlInput::accel(accel);
            let mut s = state;
            let mut t = 0.0;
            while t < horizon {
                s = dynamics.step(&s, &u, Vec3::ZERO, r.plant_step);
                t += r.plant_step;
                assert!(
                    occ.contains(&s.position),
                    "trial {trial}: commanded rollout escaped {occ} at t={t:.2}"
                );
            }
        }
    }

    /// The soundness property the whole RTA argument rests on: a simulated
    /// trajectory under *random admissible controls* never leaves the
    /// computed occupancy box within the horizon.
    #[test]
    fn occupancy_contains_random_rollouts() {
        let r = reach();
        let dynamics = r.dynamics;
        let mut rng = SmallRng::seed_from_u64(2024);
        for trial in 0..50 {
            let state = DroneState {
                position: Vec3::new(
                    rng.random_range(-10.0..10.0),
                    rng.random_range(-10.0..10.0),
                    rng.random_range(1.0..10.0),
                ),
                velocity: Vec3::new(
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-2.0..2.0),
                ),
            };
            let horizon = rng.random_range(0.1..1.5);
            let occ = r.occupancy(&state, horizon);
            let mut s = state;
            let mut t = 0.0;
            while t < horizon {
                let u = ControlInput::accel(Vec3::new(
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                    rng.random_range(-6.0..6.0),
                ));
                s = dynamics.step(&s, &u, Vec3::ZERO, r.plant_step);
                t += r.plant_step;
                assert!(
                    occ.contains(&s.position),
                    "trial {trial}: position {} escaped occupancy {occ} at t={t:.2} (horizon {horizon:.2})",
                    s.position
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_excursion_radius_monotone_in_horizon(
            speed in 0.0..8.0f64, h1 in 0.0..2.0f64, h2 in 0.0..2.0f64
        ) {
            let r = reach();
            let (lo, hi) = if h1 < h2 { (h1, h2) } else { (h2, h1) };
            prop_assert!(r.excursion_radius(speed, lo) <= r.excursion_radius(speed, hi) + 1e-9);
        }

        #[test]
        fn prop_occupancy_symmetric_about_position(
            px in -20.0..20.0f64, py in -20.0..20.0f64, pz in 0.0..10.0f64,
            h in 0.0..2.0f64
        ) {
            let r = reach();
            let s = DroneState::at_rest(Vec3::new(px, py, pz));
            let occ = r.occupancy(&s, h);
            let c = occ.center();
            prop_assert!((c.x - px).abs() < 1e-9 && (c.y - py).abs() < 1e-9 && (c.z - pz).abs() < 1e-9);
        }
    }
}
