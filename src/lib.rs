//! # SOTER — runtime assurance for safe robotics, in Rust
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! *SOTER: A Runtime Assurance Framework for Programming Safe Robotics
//! Systems* (Desai et al., DSN 2019).  It re-exports the component crates:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`soter-core`) | topics, periodic nodes, RTA modules, decision modules, well-formedness, composition |
//! | [`runtime`] (`soter-runtime`) | the discrete-event executor (Fig. 11 semantics), traces, jitter, systematic testing |
//! | [`sim`] (`soter-sim`) | quadrotor + battery + obstacle-world simulator (the Gazebo/PX4 substitute) |
//! | [`reach`] (`soter-reach`) | forward reachability, time-to-failure (`φ_safe` and `φ_safer` checks), peer separation reach-sets |
//! | [`ctrl`] (`soter-ctrl`) | advanced motion primitives, the shielded certified-safe controller, fault injection |
//! | [`plan`] (`soter-plan`) | RRT*, buggy RRT*, grid A*, plan validation, surveillance protocol |
//! | [`drone`] (`soter-drone`) | the paper's drone surveillance case study: stacks, nodes, oracles, reports |
//! | [`scenarios`] (`soter-scenarios`) | declarative mission scenarios and the catalog, campaign fan-out, falsification, golden-trace regression |
//! | [`serve`] (`soter-serve`) | crash-safe sharded campaigns: worker subprocesses, shard coordinator, `soter-serve` daemon |
//!
//! ## Quickstart
//!
//! Declare two controllers and a safety oracle, wrap them in an RTA module,
//! and execute the system:
//!
//! ```
//! use soter::core::prelude::*;
//! use soter::runtime::executor::Executor;
//!
//! // φ_safe = |x| ≤ 10, φ_safer = |x| ≤ 5, worst-case speed 1 m/s.
//! struct LineOracle;
//! impl SafetyOracle for LineOracle {
//!     fn is_safe(&self, obs: &dyn TopicRead) -> bool {
//!         obs.get("state").and_then(Value::as_float).map(|x| x.abs() <= 10.0).unwrap_or(false)
//!     }
//!     fn is_safer(&self, obs: &dyn TopicRead) -> bool {
//!         obs.get("state").and_then(Value::as_float).map(|x| x.abs() <= 5.0).unwrap_or(false)
//!     }
//!     fn may_leave_safe_within(&self, obs: &dyn TopicRead, h: Duration) -> bool {
//!         match obs.get("state").and_then(Value::as_float) {
//!             Some(x) => x.abs() + h.as_secs_f64() > 10.0,
//!             None => true,
//!         }
//!     }
//! }
//!
//! let ac = FnNode::builder("ac").subscribes(["state"]).publishes(["cmd"])
//!     .period(Duration::from_millis(100))
//!     .step(|_, _, out| { out.insert("cmd", Value::Float(1.0)); })
//!     .build();
//! let sc = FnNode::builder("sc").subscribes(["state"]).publishes(["cmd"])
//!     .period(Duration::from_millis(100))
//!     .step(|_, inp, out| {
//!         let x = inp.get("state").and_then(Value::as_float).unwrap_or(0.0);
//!         out.insert("cmd", Value::Float(if x > 0.0 { -1.0 } else { 1.0 }));
//!     })
//!     .build();
//! let module = RtaModule::builder("line")
//!     .advanced(ac).safe(sc)
//!     .delta(Duration::from_millis(100))
//!     .oracle(LineOracle)
//!     .build()?;
//! let mut system = RtaSystem::new("demo");
//! system.add_module(module)?;
//! let mut exec = Executor::new(system);
//! exec.publish("state", Value::Float(0.0));
//! exec.run_until(Time::from_secs_f64(1.0));
//! assert!(exec.monitors()[0].is_clean());
//! # Ok::<(), soter::core::SoterError>(())
//! ```
//!
//! For the full case study (protected motion primitives, battery safety and
//! motion planning on a simulated drone) see the `soter::drone` crate and
//! the runnable examples in `examples/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use soter_core as core;
pub use soter_ctrl as ctrl;
pub use soter_drone as drone;
pub use soter_plan as plan;
pub use soter_reach as reach;
pub use soter_runtime as runtime;
pub use soter_scenarios as scenarios;
pub use soter_serve as serve;
pub use soter_sim as sim;
pub use soter_vm as vm;

/// The README's `rust` blocks, compiled (not run) as doctests so the front
/// page cannot name an API that no longer exists.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeExamples;

/// The scenario cookbook's `rust` blocks, compiled (not run) as doctests.
#[cfg(doctest)]
#[doc = include_str!("../docs/SCENARIOS.md")]
pub struct ScenarioCookbookExamples;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_are_wired() {
        // Touch one item from every re-exported crate so a missing wiring
        // fails to compile.
        let _ = crate::core::time::Duration::from_millis(1);
        let _ = crate::sim::Vec3::ZERO;
        let _ =
            crate::reach::ForwardReach::new(crate::sim::QuadrotorDynamics::default(), 0.01, 0.0);
        let _ = crate::ctrl::Px4LikeController::default();
        let _ = crate::plan::GridAstar::default();
        let _ = crate::runtime::JitterSchedule::Ideal;
        let _ = crate::drone::DroneStackConfig::default();
        let _ = crate::scenarios::Scenario::new("wired");
        let _ = crate::serve::CampaignRequest::new(["wired"]);
        let _ = crate::vm::parse("node t\nperiod 1ms\nbudget 4\nhalt\n");
    }
}
