//! # soter-ctrl — motion-primitive controllers for the SOTER case study
//!
//! The paper's drone stack tracks reference trajectories between waypoints
//! with *motion primitives*: low-level controllers that are either provided
//! by third parties (the PX4 autopilot), produced by machine learning, or
//! synthesised to be provably safe (FaSTrack).  This crate provides the Rust
//! substitutes:
//!
//! * [`traits::MotionController`] — the controller interface (state + target
//!   waypoint → acceleration command),
//! * [`px4_like`] — an aggressive, time-optimised controller with the
//!   overshoot-at-speed failure mode of the PX4 experiment (Fig. 5 right),
//! * [`learned`] — a "data-driven" gain-scheduled controller with
//!   distribution-shift errors (Fig. 5 left),
//! * [`shielded`] — the certified safe controller (FaSTrack substitute) of
//!   the motion-primitive RTA module: a speed-capped tracker with an
//!   obstacle-repulsion field over the workspace,
//! * [`fault`] — fault injection wrappers used by the robustness
//!   experiments,
//! * [`reference`](mod@reference) — waypoint circuits and the figure-eight reference of
//!   the learned-controller experiment.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
pub mod learned;
pub mod px4_like;
pub mod reference;
pub mod shielded;
pub mod traits;

pub use fault::{FaultInjector, FaultSpec};
pub use learned::LearnedController;
pub use px4_like::Px4LikeController;
pub use shielded::{ShieldedSafeConfig, ShieldedSafeController};
pub use traits::MotionController;
