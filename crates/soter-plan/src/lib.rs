//! # soter-plan — motion planning substrate for the SOTER case study
//!
//! The paper's drone stack contains a motion planner that turns the next
//! surveillance target into a sequence of waypoints whose straight-line
//! reference trajectory avoids all obstacles (`φ_plan`).  The paper uses
//! OMPL's RRT* implementation, injects bugs into it, and protects it with an
//! RTA module (Sec. V-C).  This crate provides the substitutes:
//!
//! * [`traits::MotionPlanner`] — the planner interface,
//! * [`rrt_star`] — a full RRT* implementation over the obstacle workspace
//!   (the OMPL substitute, used as the untrusted advanced planner),
//! * [`buggy`] — the fault-injected RRT* whose plans occasionally collide,
//! * [`astar`] — a grid A* planner with conservative clearance, used as the
//!   certified safe planner,
//! * [`validate`] — plan validation against the workspace (`φ_plan`
//!   membership), used by the planner RTA module's decision logic,
//! * [`cache`] — a snapshot-chain planner-query cache shared across the
//!   runs of a campaign, byte-identical to uncached planning,
//! * [`surveillance`] — the surveillance application protocol generating
//!   patrol targets (round-robin or randomised).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod astar;
pub mod buggy;
pub mod cache;
pub mod rrt_star;
pub mod surveillance;
pub mod traits;
pub mod validate;

pub use astar::GridAstar;
pub use buggy::BuggyRrtStar;
pub use cache::{identity_key, workspace_fingerprint, CachedPlanner, PlanCache, SnapshotPlanner};
pub use rrt_star::{RrtStar, RrtStarConfig};
pub use surveillance::SurveillanceApp;
pub use traits::MotionPlanner;
pub use validate::{plan_length, validate_plan, PlanViolation};
