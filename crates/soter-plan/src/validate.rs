//! Plan validation — the `φ_plan` safety specification.
//!
//! The safe-motion-planner property of the paper requires that "the motion
//! planner must always generate a motion-plan such that the reference
//! trajectory does not collide with any obstacle".  [`validate_plan`] checks
//! exactly that for a waypoint sequence: every waypoint and every connecting
//! segment must lie in free space (with an optional extra margin to account
//! for the motion primitive's certified tracking error).

use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::fmt;

/// Why a plan was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanViolation {
    /// The plan has fewer than two waypoints.
    TooShort,
    /// A waypoint lies in collision or outside the workspace.
    WaypointInCollision {
        /// Index of the offending waypoint.
        index: usize,
    },
    /// The segment between waypoints `index` and `index + 1` crosses an
    /// obstacle.
    SegmentInCollision {
        /// Index of the first endpoint of the offending segment.
        index: usize,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::TooShort => f.write_str("plan has fewer than two waypoints"),
            PlanViolation::WaypointInCollision { index } => {
                write!(f, "waypoint #{index} is in collision")
            }
            PlanViolation::SegmentInCollision { index } => {
                write!(f, "segment #{index} crosses an obstacle")
            }
        }
    }
}

impl std::error::Error for PlanViolation {}

/// Validates a waypoint plan against the workspace with an extra clearance
/// margin.
///
/// # Errors
///
/// Returns the first [`PlanViolation`] encountered, scanning waypoints
/// first and then segments in order.
pub fn validate_plan(
    workspace: &Workspace,
    plan: &[Vec3],
    margin: f64,
) -> Result<(), PlanViolation> {
    if plan.len() < 2 {
        return Err(PlanViolation::TooShort);
    }
    for (i, wp) in plan.iter().enumerate() {
        if !workspace.is_free_with_margin(*wp, margin) {
            return Err(PlanViolation::WaypointInCollision { index: i });
        }
    }
    for i in 0..plan.len() - 1 {
        if !workspace.segment_is_free_with_margin(plan[i], plan[i + 1], margin) {
            return Err(PlanViolation::SegmentInCollision { index: i });
        }
    }
    Ok(())
}

/// Total Euclidean length of a plan (metres).
pub fn plan_length(plan: &[Vec3]) -> f64 {
    plan.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_street_plan_passes() {
        let w = Workspace::city_block();
        let plan = vec![
            Vec3::new(3.0, 3.0, 2.5),
            Vec3::new(3.0, 21.0, 2.5),
            Vec3::new(3.0, 40.0, 2.5),
        ];
        assert!(validate_plan(&w, &plan, 0.0).is_ok());
        assert!((plan_length(&plan) - 37.0).abs() < 1e-9);
    }

    #[test]
    fn plan_through_building_is_rejected_with_segment_index() {
        let w = Workspace::city_block();
        let plan = vec![
            Vec3::new(3.0, 13.0, 2.5),
            Vec3::new(5.0, 13.0, 2.5),
            Vec3::new(21.0, 13.0, 2.5), // the segment to the street between houses crosses house 1
        ];
        assert_eq!(
            validate_plan(&w, &plan, 0.0),
            Err(PlanViolation::SegmentInCollision { index: 1 })
        );
    }

    #[test]
    fn waypoint_inside_obstacle_is_rejected_first() {
        let w = Workspace::city_block();
        let plan = vec![Vec3::new(3.0, 3.0, 2.5), Vec3::new(13.0, 13.0, 3.0)];
        assert_eq!(
            validate_plan(&w, &plan, 0.0),
            Err(PlanViolation::WaypointInCollision { index: 1 })
        );
    }

    #[test]
    fn short_plans_are_rejected() {
        let w = Workspace::city_block();
        assert_eq!(validate_plan(&w, &[], 0.0), Err(PlanViolation::TooShort));
        assert_eq!(
            validate_plan(&w, &[Vec3::new(3.0, 3.0, 2.5)], 0.0),
            Err(PlanViolation::TooShort)
        );
    }

    #[test]
    fn margin_rejects_plans_that_graze_obstacles() {
        let w = Workspace::city_block();
        // Hugging the house face at x ∈ [9, 17]: free without margin, too
        // close with a 1.5 m margin.
        let plan = vec![Vec3::new(8.4, 3.0, 2.5), Vec3::new(8.4, 25.0, 2.5)];
        assert!(validate_plan(&w, &plan, 0.0).is_ok());
        assert!(validate_plan(&w, &plan, 1.5).is_err());
    }

    #[test]
    fn violation_display_is_informative() {
        assert!(format!("{}", PlanViolation::TooShort).contains("fewer"));
        assert!(format!("{}", PlanViolation::WaypointInCollision { index: 3 }).contains("3"));
        assert!(format!("{}", PlanViolation::SegmentInCollision { index: 1 }).contains("segment"));
    }

    #[test]
    fn plan_length_of_degenerate_plans_is_zero() {
        assert_eq!(plan_length(&[]), 0.0);
        assert_eq!(plan_length(&[Vec3::ZERO]), 0.0);
    }
}
