//! # soter-sim — simulation substrate for the SOTER case study
//!
//! The SOTER paper evaluates its runtime-assurance framework on a drone
//! surveillance system running on a 3DR Iris quadrotor (real hardware) and in
//! ROS/Gazebo with the PX4 firmware in the loop.  Neither is available in a
//! pure-Rust reproduction, so this crate provides the substitute substrate:
//!
//! * [`Vec3`] and [`geometry`] — small linear-algebra and axis-aligned-box
//!   geometry toolkit,
//! * [`world`] — the obstacle workspace (a city block modelled on Fig. 2 of
//!   the paper) with collision queries,
//! * [`dynamics`] — a discrete-time quadrotor model (double-integrator
//!   translational dynamics with drag, velocity/acceleration limits and wind),
//! * [`battery`] — the battery charge/discharge model used by the
//!   battery-safety RTA module,
//! * [`sensors`] — bounded-error state estimation (the paper assumes trusted
//!   state estimators that report the state within known bounds),
//! * [`drone`] — the full plant (dynamics + battery) stepped under a control
//!   input,
//! * [`trajectory`] — trajectory recording and mission metrics used by the
//!   experiment harness,
//! * [`airspace`] — the multi-drone separation invariant φ_sep and its
//!   ground-truth episode monitor.
//!
//! Everything is deterministic given a seed, so experiments are reproducible.
//!
//! ```
//! use soter_sim::{world::Workspace, drone::Drone, Vec3};
//!
//! let world = Workspace::city_block();
//! let mut drone = Drone::at(Vec3::new(1.0, 1.0, 2.0));
//! assert!(world.is_free(drone.state().position));
//! drone.step_accel(Vec3::new(0.5, 0.0, 0.0), 0.01);
//! assert!(drone.state().velocity.norm() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod airspace;
pub mod battery;
pub mod drone;
pub mod dynamics;
pub mod geometry;
pub mod sensors;
pub mod trajectory;
pub mod vec3;
pub mod wind;
pub mod world;

pub use airspace::SeparationMonitor;
pub use battery::Battery;
pub use drone::Drone;
pub use dynamics::{ControlInput, DroneState, QuadrotorDynamics};
pub use geometry::Aabb;
pub use trajectory::Trajectory;
pub use vec3::Vec3;
pub use world::Workspace;
