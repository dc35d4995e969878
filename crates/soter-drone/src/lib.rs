//! # soter-drone — the SOTER drone surveillance case study
//!
//! This crate assembles the RTA-protected software stack of Fig. 8 of the
//! paper from the substrate crates:
//!
//! * [`topics`] — the topic names of the stack (`localPosition`,
//!   `targetWaypoint`, `controlAction`, `motionPlan`, …) and conversion
//!   helpers between simulator types and topic values,
//! * [`plant`] — the simulated drone wrapped as a SOTER node (the
//!   Gazebo/PX4-SITL stand-in),
//! * [`nodes`] — node wrappers for motion controllers, motion planners, the
//!   plan follower, the safe-landing planner and the surveillance
//!   application,
//! * [`oracles`] — the safety oracles of the three RTA modules
//!   (`φ_mpr`, `φ_bat`, `φ_plan`),
//! * [`stack`] — stack assembly: the RTA-protected motion-primitive circuit
//!   stack of Fig. 12a and the full surveillance stack of Fig. 8, each also
//!   buildable in unprotected (AC-only) and SC-only configurations,
//! * [`airspace`] — multi-drone airspace stacks: N scoped copies of the
//!   circuit stack over one shared workspace, each decision module
//!   enforcing the separation invariant φ_sep against peer reach-sets,
//! * [`evidence`] — the `PlantAbstraction` used to discharge the
//!   well-formedness conditions P2a/P2b/P3 for the motion-primitive module,
//! * [`report`] — the planner fault-injection result record (Sec. V-C).
//!
//! The paper's experiments (one per table/figure of the evaluation
//! section) live in the `soter-scenarios` crate as named declarative
//! scenarios (`soter_scenarios::catalog`), run by
//! `soter_scenarios::runner::run_scenario`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod airspace;
pub mod evidence;
pub mod nodes;
pub mod oracles;
pub mod plant;
pub mod report;
pub mod stack;
pub mod topics;

pub use airspace::{build_airspace_stack, AirspaceStackConfig, DroneAgent};
pub use plant::{PlantHandle, PlantNode};
pub use stack::{DroneStackConfig, Protection, StackKind};
