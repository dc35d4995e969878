//! # soter-reach — reachability engine for SOTER decision modules
//!
//! The decision module of a SOTER RTA module evaluates, every `Δ`, whether
//! `Reach(s, *, 2Δ) ⊆ φ_safe` — "can the plant, under *any* admissible
//! control, leave the safe region within `2Δ`?" — and whether the current
//! state lies in the stronger region `φ_safer = R(φ_safe, 2Δ)` used to hand
//! control back to the advanced controller (Sec. III and V-A of the paper).
//! The paper computes these sets offline with the Level-Set Toolbox and
//! FaSTrack; this crate checks them online by forward reach over the
//! `soter-sim` quadrotor model:
//!
//! * [`forward`] — forward reachable-set over-approximation of the
//!   double-integrator under bounded inputs (the `Reach(s, *, t)`
//!   over-approximation),
//! * [`ttf`] — the time-to-failure check `ttf_2Δ(s, φ_safe)` against an
//!   obstacle workspace, plus a scalar time-to-failure estimate.  The same
//!   check over the longer horizon `k·2Δ` decides membership of
//!   `φ_safer = R(φ_safe, k·2Δ)` (`soter-drone`'s
//!   `MotionPrimitiveOracle::is_safer`),
//! * [`peers`] — peer forward-reach sets as *dynamic* unsafe regions: the
//!   multi-drone separation invariant φ_sep used by airspace decision
//!   modules.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod forward;
pub mod peers;
pub mod ttf;

pub use forward::ForwardReach;
pub use peers::PeerSeparation;
pub use ttf::ObstacleTtf;
