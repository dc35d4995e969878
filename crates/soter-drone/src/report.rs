//! The result record of the planner fault-injection experiment.
//!
//! Mission scenarios report through `soter_scenarios::runner::RunOutcome`
//! and `MissionMetrics`; only the Sec. V-C planner queries need a record of
//! their own.

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
