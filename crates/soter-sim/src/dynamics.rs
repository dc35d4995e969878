//! Discrete-time quadrotor translational dynamics.
//!
//! The paper's theory only requires a plant with known worst-case behaviour
//! over a decision period `Δ` (for the `Reach(s, *, 2Δ)` check) and a safe
//! controller whose closed-loop behaviour can be certified.  A
//! double-integrator model with drag, acceleration and velocity limits is the
//! standard abstraction used for quadrotor position control (it is the model
//! FaSTrack's planner layer uses as well) and is sufficient to reproduce the
//! qualitative behaviour of Fig. 5 and Fig. 12: overshoot at speed, bounded
//! stopping distance, and worst-case excursion over a horizon.

use crate::vec3::Vec3;

/// Kinematic state of the drone: position and velocity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DroneState {
    /// Position in metres, world frame.
    pub position: Vec3,
    /// Velocity in metres per second, world frame.
    pub velocity: Vec3,
}

impl DroneState {
    /// A state at rest at `position`.
    pub fn at_rest(position: Vec3) -> Self {
        DroneState {
            position,
            velocity: Vec3::ZERO,
        }
    }

    /// Speed (velocity norm).
    pub fn speed(&self) -> f64 {
        self.velocity.norm()
    }
}

/// A commanded acceleration.  Controllers produce these; the dynamics clamp
/// them to the actuation limits before integrating.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlInput {
    /// Commanded acceleration in m/s², world frame.
    pub acceleration: Vec3,
}

impl ControlInput {
    /// Creates a control input from a commanded acceleration.
    pub fn accel(a: Vec3) -> Self {
        ControlInput { acceleration: a }
    }

    /// The zero (hover / coast) command.
    pub const ZERO: ControlInput = ControlInput {
        acceleration: Vec3::ZERO,
    };
}

/// Parameters of the discrete-time quadrotor model.
///
/// The update for a step of length `dt` is
///
/// ```text
/// a   = clamp(u, a_max) - drag * v
/// v'  = clamp(v + a * dt, v_max)
/// p'  = p + v * dt + 0.5 * a * dt²
/// ```
///
/// Altitude is kept non-negative (the ground is a hard floor; reaching it at
/// speed is reported by the plant, not by the dynamics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrotorDynamics {
    /// Maximum commanded acceleration magnitude (m/s²).
    pub max_acceleration: f64,
    /// Maximum speed (m/s).
    pub max_speed: f64,
    /// Linear drag coefficient (1/s).
    pub drag: f64,
}

impl Default for QuadrotorDynamics {
    fn default() -> Self {
        // Roughly a 3DR-Iris-class vehicle flown by a position controller.
        QuadrotorDynamics {
            max_acceleration: 6.0,
            max_speed: 8.0,
            drag: 0.15,
        }
    }
}

impl QuadrotorDynamics {
    /// Creates a dynamics model with explicit limits.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive (drag may be zero).
    pub fn new(max_acceleration: f64, max_speed: f64, drag: f64) -> Self {
        assert!(max_acceleration > 0.0, "max_acceleration must be positive");
        assert!(max_speed > 0.0, "max_speed must be positive");
        assert!(drag >= 0.0, "drag must be non-negative");
        QuadrotorDynamics {
            max_acceleration,
            max_speed,
            drag,
        }
    }

    /// Advances the state by `dt` seconds under control `u` and an external
    /// disturbance acceleration (e.g. wind) `disturbance`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(
        &self,
        state: &DroneState,
        u: &ControlInput,
        disturbance: Vec3,
        dt: f64,
    ) -> DroneState {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
        let commanded = u.acceleration.clamp_norm(self.max_acceleration);
        let accel = commanded + disturbance - state.velocity * self.drag;
        let new_velocity = (state.velocity + accel * dt).clamp_norm(self.max_speed);
        let mut new_position = state.position + state.velocity * dt + accel * (0.5 * dt * dt);
        // The ground is a hard floor.
        if new_position.z < 0.0 {
            new_position.z = 0.0;
        }
        let mut next = DroneState {
            position: new_position,
            velocity: new_velocity,
        };
        if next.position.z == 0.0 && next.velocity.z < 0.0 {
            next.velocity.z = 0.0;
        }
        next
    }

    /// Worst-case distance the vehicle can travel from a state with speed
    /// `speed` within `horizon` seconds.  This closed form is what the
    /// decision module's conservative reachability uses.
    ///
    /// The instantaneous acceleration can reach `max_acceleration + drag *
    /// max_speed` (drag opposes the current velocity, so during a reversal it
    /// adds to the commanded deceleration), so the bound uses that effective
    /// limit; it is therefore conservative for every reachable state.
    pub fn max_excursion(&self, speed: f64, horizon: f64) -> f64 {
        // Without knowledge of the integrator step size, assume the whole
        // horizon may be integrated in a single explicit-Euler step.
        self.max_excursion_with_step(speed, horizon, horizon)
    }

    /// Like [`QuadrotorDynamics::max_excursion`], but exploiting knowledge of
    /// the simulator's integration step `step`: the explicit-Euler update can
    /// overshoot the continuous-time envelope by at most `0.5 · a_eff · step`
    /// per second of horizon, so the bound tightens considerably when the
    /// plant steps much faster than the decision period.
    pub fn max_excursion_with_step(&self, speed: f64, horizon: f64, step: f64) -> f64 {
        assert!(
            horizon >= 0.0 && step >= 0.0,
            "horizon and step must be non-negative"
        );
        let v0 = speed.min(self.max_speed);
        let a_eff = self.max_acceleration + self.drag * self.max_speed;
        // Continuous-time envelope: accelerate at the effective limit until
        // hitting v_max, then cruise.
        let t_to_vmax = ((self.max_speed - v0) / a_eff).max(0.0);
        let continuous = if t_to_vmax >= horizon {
            v0 * horizon + 0.5 * a_eff * horizon * horizon
        } else {
            let d_accel = v0 * t_to_vmax + 0.5 * a_eff * t_to_vmax * t_to_vmax;
            d_accel + self.max_speed * (horizon - t_to_vmax)
        };
        // Discretization slack of the explicit-Euler position update.
        continuous + 0.5 * a_eff * horizon * step.min(horizon)
    }

    /// Worst-case distance travelled while braking to rest from `speed`.
    pub fn stopping_distance(&self, speed: f64) -> f64 {
        let v = speed.min(self.max_speed);
        v * v / (2.0 * self.max_acceleration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dyn_default() -> QuadrotorDynamics {
        QuadrotorDynamics::default()
    }

    #[test]
    fn at_rest_stays_at_rest_without_input() {
        let d = dyn_default();
        let s = DroneState::at_rest(Vec3::new(1.0, 2.0, 3.0));
        let next = d.step(&s, &ControlInput::ZERO, Vec3::ZERO, 0.01);
        assert_eq!(next.position, s.position);
        assert_eq!(next.velocity, Vec3::ZERO);
    }

    #[test]
    fn constant_accel_increases_speed_and_moves_forward() {
        let d = dyn_default();
        let mut s = DroneState::at_rest(Vec3::new(0.0, 0.0, 2.0));
        for _ in 0..100 {
            s = d.step(
                &s,
                &ControlInput::accel(Vec3::new(2.0, 0.0, 0.0)),
                Vec3::ZERO,
                0.01,
            );
        }
        assert!(
            s.velocity.x > 1.0,
            "velocity should build up, got {}",
            s.velocity.x
        );
        assert!(
            s.position.x > 0.5,
            "position should advance, got {}",
            s.position.x
        );
        assert!(s.velocity.y.abs() < 1e-9 && s.velocity.z.abs() < 1e-9);
    }

    #[test]
    fn speed_is_clamped_to_max() {
        let d = dyn_default();
        let mut s = DroneState::at_rest(Vec3::new(0.0, 0.0, 2.0));
        for _ in 0..5000 {
            s = d.step(
                &s,
                &ControlInput::accel(Vec3::new(100.0, 0.0, 0.0)),
                Vec3::ZERO,
                0.01,
            );
        }
        assert!(s.speed() <= d.max_speed + 1e-9);
    }

    #[test]
    fn commanded_acceleration_is_clamped() {
        let d = QuadrotorDynamics::new(1.0, 100.0, 0.0);
        let s = DroneState::at_rest(Vec3::ZERO);
        let next = d.step(
            &s,
            &ControlInput::accel(Vec3::new(1000.0, 0.0, 0.0)),
            Vec3::ZERO,
            1.0,
        );
        // With a_max = 1 and dt = 1 starting at rest, velocity can be at most 1.
        assert!(next.velocity.norm() <= 1.0 + 1e-9);
    }

    #[test]
    fn ground_is_a_floor() {
        let d = dyn_default();
        let s = DroneState {
            position: Vec3::new(0.0, 0.0, 0.05),
            velocity: Vec3::new(0.0, 0.0, -5.0),
        };
        let next = d.step(&s, &ControlInput::ZERO, Vec3::ZERO, 0.1);
        assert_eq!(next.position.z, 0.0);
        assert!(
            next.velocity.z >= 0.0,
            "downward velocity is zeroed on the ground"
        );
    }

    #[test]
    fn drag_slows_coasting_vehicle() {
        let d = QuadrotorDynamics::new(6.0, 10.0, 0.5);
        let mut s = DroneState {
            position: Vec3::new(0.0, 0.0, 2.0),
            velocity: Vec3::new(5.0, 0.0, 0.0),
        };
        let v0 = s.speed();
        for _ in 0..100 {
            s = d.step(&s, &ControlInput::ZERO, Vec3::ZERO, 0.01);
        }
        assert!(s.speed() < v0, "drag must slow the vehicle");
    }

    #[test]
    fn disturbance_pushes_vehicle() {
        let d = dyn_default();
        let mut s = DroneState::at_rest(Vec3::new(0.0, 0.0, 2.0));
        for _ in 0..100 {
            s = d.step(&s, &ControlInput::ZERO, Vec3::new(0.0, 1.0, 0.0), 0.01);
        }
        assert!(s.position.y > 0.0, "wind must displace the vehicle");
    }

    #[test]
    fn stopping_distance_matches_kinematics() {
        let d = QuadrotorDynamics::new(4.0, 10.0, 0.0);
        // v²/(2a) = 64 / 8 = 8
        assert!((d.stopping_distance(8.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn max_excursion_monotone_in_horizon() {
        let d = dyn_default();
        assert!(d.max_excursion(3.0, 0.5) < d.max_excursion(3.0, 1.0));
        assert!(d.max_excursion(3.0, 1.0) < d.max_excursion(3.0, 2.0));
    }

    #[test]
    #[should_panic]
    fn zero_dt_panics() {
        let d = dyn_default();
        let s = DroneState::at_rest(Vec3::ZERO);
        let _ = d.step(&s, &ControlInput::ZERO, Vec3::ZERO, 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        let _ = QuadrotorDynamics::new(0.0, 1.0, 0.0);
    }

    proptest! {
        #[test]
        fn prop_speed_never_exceeds_vmax(
            px in -10.0..10.0f64, py in -10.0..10.0f64, pz in 0.0..10.0f64,
            vx in -8.0..8.0f64, vy in -8.0..8.0f64, vz in -8.0..8.0f64,
            ux in -20.0..20.0f64, uy in -20.0..20.0f64, uz in -20.0..20.0f64,
            steps in 1..200usize
        ) {
            let d = QuadrotorDynamics::default();
            let mut s = DroneState {
                position: Vec3::new(px, py, pz),
                velocity: Vec3::new(vx, vy, vz).clamp_norm(d.max_speed),
            };
            let u = ControlInput::accel(Vec3::new(ux, uy, uz));
            for _ in 0..steps {
                s = d.step(&s, &u, Vec3::ZERO, 0.01);
                prop_assert!(s.speed() <= d.max_speed + 1e-6);
                prop_assert!(s.position.z >= 0.0);
                prop_assert!(s.position.is_finite() && s.velocity.is_finite());
            }
        }

        #[test]
        fn prop_single_step_displacement_bounded_by_max_excursion(
            vx in -8.0..8.0f64, vy in -8.0..8.0f64, vz in -8.0..8.0f64,
            ux in -20.0..20.0f64, uy in -20.0..20.0f64, uz in -20.0..20.0f64,
            dt in 0.001..0.5f64
        ) {
            let d = QuadrotorDynamics::default();
            let s = DroneState {
                position: Vec3::new(0.0, 0.0, 50.0),
                velocity: Vec3::new(vx, vy, vz).clamp_norm(d.max_speed),
            };
            let u = ControlInput::accel(Vec3::new(ux, uy, uz));
            let next = d.step(&s, &u, Vec3::ZERO, dt);
            let moved = next.position.distance(&s.position);
            prop_assert!(moved <= d.max_excursion(s.speed(), dt) + 1e-6,
                "moved {moved} > bound {}", d.max_excursion(s.speed(), dt));
        }

        #[test]
        fn prop_max_excursion_monotone_in_speed(
            v1 in 0.0..8.0f64, v2 in 0.0..8.0f64, h in 0.01..3.0f64
        ) {
            let d = QuadrotorDynamics::default();
            let (lo, hi) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
            prop_assert!(d.max_excursion(lo, h) <= d.max_excursion(hi, h) + 1e-9);
        }
    }
}
