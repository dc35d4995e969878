//! The result record of the planner fault-injection experiment.
//!
//! Scenario results live in `soter_scenarios::runner`.  `ScenarioOutcome`
//! carries every run's totals: invariant violations, mode switches,
//! interventions and time in SC.  `RunOutcome` holds a single-drone run's
//! per-vehicle detail (trajectory, engagements, plant read-out, battery
//! profile), `FleetOutcome` an airspace's per-drone detail, and
//! `MissionMetrics` the metrics over a trajectory.  Only the Sec. V-C
//! planner queries need a record of their own.

/// Result of the planner fault-injection experiment (Sec. V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerRtaReport {
    /// Queries issued to the planner module.
    pub queries: usize,
    /// Colliding plans produced by the unprotected buggy planner over the
    /// same query set.
    pub unprotected_colliding_plans: usize,
    /// Colliding plans that were left standing (for a full decision period)
    /// by the RTA-protected planner module.
    pub protected_colliding_plans: usize,
    /// How many times the planner module's DM fell back to the safe planner.
    pub dm_switches_to_safe: usize,
}
