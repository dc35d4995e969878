//! Operating regions of an RTA-protected system (Fig. 10 of the paper).
//!
//! The paper organises the state space into regions: `R1` (unsafe), the
//! safe-but-unrecoverable band, the switching-control region in which the
//! decision module hands control to the safe controller (time to failure
//! below `2Δ`), the recoverable region, and `R5 = φ_safer` where control may
//! be returned to the advanced controller.  [`classify`] maps a state to its
//! region given a time-to-failure checker and the `φ_safer` membership test;
//! it is used by the experiment harness to colour trajectories the way
//! Fig. 12a does (red = SC engaged, green = returned to AC).

use crate::ttf::ObstacleTtf;
use soter_sim::dynamics::DroneState;

/// The operating region a state falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingRegion {
    /// `R1`: the state violates `φ_safe` (collision or out of bounds).
    Unsafe,
    /// The state is safe but the plant may leave `φ_safe` within `2Δ` —
    /// the decision module must (or must already) have switched to the safe
    /// controller here.
    Switching,
    /// The state is safe, cannot leave `φ_safe` within `2Δ`, but is not yet
    /// in `φ_safer` — the safe controller keeps driving the system toward
    /// `φ_safer`, or the advanced controller keeps operating if it never
    /// came close to the boundary.
    Recoverable,
    /// `R5 = φ_safer`: control may be (or may have been) handed back to the
    /// advanced controller.
    Safer,
}

/// Classifies a state into its operating region.
///
/// * `ttf` provides `φ_safe` membership and the `2Δ` reachability check,
/// * `two_delta` is the look-ahead horizon (`2Δ`, seconds),
/// * `is_safer` is the `φ_safer` membership test (typically the
///   [`crate::backward::ReachGrid`] computed with horizon `2Δ`, or the same
///   forward-reach check — both are supported by the drone stack).
pub fn classify<F>(
    ttf: &ObstacleTtf,
    state: &DroneState,
    two_delta: f64,
    is_safer: F,
) -> OperatingRegion
where
    F: Fn(&DroneState) -> bool,
{
    if !ttf.is_safe(state) {
        return OperatingRegion::Unsafe;
    }
    if ttf.may_leave_safe_within(state, two_delta) {
        return OperatingRegion::Switching;
    }
    if is_safer(state) {
        OperatingRegion::Safer
    } else {
        OperatingRegion::Recoverable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardReach;
    use soter_sim::dynamics::QuadrotorDynamics;
    use soter_sim::vec3::Vec3;
    use soter_sim::world::Workspace;

    fn ttf() -> ObstacleTtf {
        ObstacleTtf::new(
            Workspace::city_block(),
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.05),
            0.2,
        )
    }

    /// φ_safer: "cannot leave φ_safe within 4Δ" — a strictly stronger
    /// condition than the 2Δ switching test, as required by P3.
    fn safer(t: &ObstacleTtf, s: &DroneState) -> bool {
        !t.may_leave_safe_within(s, 0.4)
    }

    #[test]
    fn collision_state_is_unsafe() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(13.0, 13.0, 3.0));
        assert_eq!(
            classify(&t, &s, 0.2, |s| safer(&t, s)),
            OperatingRegion::Unsafe
        );
    }

    #[test]
    fn fast_state_near_obstacle_is_in_switching_region() {
        let t = ttf();
        let s = DroneState {
            position: Vec3::new(8.0, 13.0, 3.0),
            velocity: Vec3::new(7.0, 0.0, 0.0),
        };
        assert_eq!(
            classify(&t, &s, 0.2, |s| safer(&t, s)),
            OperatingRegion::Switching
        );
    }

    #[test]
    fn open_space_at_rest_is_safer() {
        let t = ttf();
        // Mid-street, mid-altitude: the 0.4 s worst-case reach-and-brake box
        // stays clear of the houses, the ground and the flight ceiling.
        let s = DroneState::at_rest(Vec3::new(4.0, 4.0, 5.0));
        assert_eq!(
            classify(&t, &s, 0.2, |s| safer(&t, s)),
            OperatingRegion::Safer
        );
    }

    #[test]
    fn intermediate_state_is_recoverable() {
        let t = ttf();
        // Moving fast toward a house from ~4.5 m away: recoverable within
        // 2Δ = 0.2 s (worst-case reach-and-brake ≈ 4 m) but not inside the
        // φ_safer region computed for the 0.4 s horizon (≈ 7 m).
        let s = DroneState {
            position: Vec3::new(4.0, 13.0, 5.0),
            velocity: Vec3::new(4.5, 0.0, 0.0),
        };
        let region = classify(&t, &s, 0.2, |s| safer(&t, s));
        assert_eq!(
            region,
            OperatingRegion::Recoverable,
            "ttf = {}",
            t.time_to_failure(&s, 5.0, 0.01)
        );
    }

    #[test]
    fn regions_are_nested_by_horizon() {
        // Every Safer state is also Recoverable-or-Safer for a shorter
        // horizon, and every Switching state for a short horizon is also
        // Switching for a longer one.
        let t = ttf();
        let samples = [
            DroneState::at_rest(Vec3::new(4.0, 4.0, 2.0)),
            DroneState {
                position: Vec3::new(8.0, 13.0, 3.0),
                velocity: Vec3::new(5.0, 0.0, 0.0),
            },
            DroneState {
                position: Vec3::new(20.0, 21.0, 3.0),
                velocity: Vec3::new(0.0, 3.0, 0.0),
            },
        ];
        for s in samples {
            let short = classify(&t, &s, 0.2, |s| safer(&t, s));
            let long = classify(&t, &s, 1.0, |s| safer(&t, s));
            if long != OperatingRegion::Switching && long != OperatingRegion::Unsafe {
                assert_ne!(
                    short,
                    OperatingRegion::Switching,
                    "a state safe for a long horizon cannot be switching for a short one"
                );
            }
        }
    }
}
