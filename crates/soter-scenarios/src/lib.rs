//! # soter-scenarios — declarative missions, campaigns and golden traces
//!
//! The scenario engine of the SOTER reproduction.  Where `soter-drone`
//! assembles the paper's software stacks, this crate makes *workloads*
//! first-class values:
//!
//! * [`spec`] — the declarative [`Scenario`]: workspace
//!   geometry, mission profile, protection level, advanced-controller /
//!   fault-injection choice, wind and battery models, scheduling jitter,
//!   horizon and seed, compiled down to the existing `DroneStackConfig`
//!   machinery,
//! * [`runner`] — executes one scenario and summarises it as a
//!   [`ScenarioOutcome`] with a deterministic
//!   behavioural digest,
//! * [`catalog`] — the paper's seven experiment drivers as named scenarios
//!   (Fig. 5, Fig. 12a–c, Sec. V-C, Sec. V-D, Remark 3.3),
//! * [`fleet`] — multi-drone airspaces: compiles a
//!   [`FleetSpec`] into per-drone stacks over one shared
//!   workspace and runs them with the separation invariant φ_sep monitored
//!   on ground truth,
//! * [`campaign`] — fans a scenario × seed matrix out across a scoped
//!   thread pool with schedule-independent, deterministic per-run results,
//!   aggregated into a [`CampaignReport`] in matrix order,
//! * [`compare`] — cross-filter comparison campaigns: every
//!   [`FilterKind`](soter_core::rta::FilterKind) scored RTAEval-style over
//!   a set of base missions, with per-mission ASIF-vs-explicit verdicts,
//! * [`falsify`] — adversarial jitter-schedule falsification: random
//!   restarts + local search over deterministic
//!   [`JitterSchedule`](soter_runtime::schedule::JitterSchedule)s, fanned
//!   out through the campaign engine, with violating schedules shrunk to
//!   minimal [`Counterexample`]s in the golden-trace format,
//! * [`golden`] — golden-trace regression: snapshot any scenario's digest
//!   under `tests/golden/` and verify every later run against it.
//!
//! ## Writing a scenario
//!
//! ```
//! use soter_scenarios::spec::{MissionSpec, Scenario, TargetPolicySpec};
//! use soter_scenarios::campaign::Campaign;
//!
//! let mission = Scenario::new("my-mission")
//!     .with_mission(MissionSpec::Surveillance {
//!         policy: TargetPolicySpec::RoundRobin,
//!         targets: Some(1),
//!     })
//!     .with_horizon(60.0);
//! // Fan it out across two seeds on two workers:
//! let report = Campaign::new(vec![mission])
//!     .with_seeds([1, 2])
//!     .with_workers(2)
//!     .run();
//! assert_eq!(report.runs(), 2);
//! assert_eq!(report.total_safety_violations(), 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod catalog;
pub mod compare;
pub mod falsify;
pub mod fleet;
pub mod golden;
pub mod runner;
#[cfg(test)]
mod salt;
pub mod spec;

pub use cache::{scenario_fingerprint, ResultCache, ScenarioFingerprint};
pub use campaign::{Campaign, CampaignReport, RunRecord};
pub use falsify::{
    Counterexample, Falsifier, FalsifierConfig, FalsifyReport, ScheduleSpace, SearchMove,
    SearchRound,
};
pub use fleet::FleetOutcome;
pub use golden::{bless, verify_against_golden, GoldenError};
pub use runner::{run_scenario, RunOutcome, ScenarioOutcome};
pub use spec::{
    derive_stream_seed, FleetLayout, FleetSpec, JitterSpec, MissionSpec, Scenario,
    TargetPolicySpec, WorkspaceSpec,
};
