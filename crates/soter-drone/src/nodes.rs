//! Node wrappers turning controllers, planners and the application layer
//! into SOTER nodes.
//!
//! These are the concrete AC/SC nodes of the three RTA modules of Fig. 8
//! plus the free nodes of the stack:
//!
//! * [`ControllerNode`] — wraps a [`MotionController`] as a motion-primitive
//!   node (`localPosition`, `targetWaypoint` → `controlAction`),
//! * [`PlannerNode`] — wraps a [`MotionPlanner`] as a motion-planner node
//!   (`targetLocation`, `localPosition` → `motionPlan`),
//! * [`PlanFollowerNode`] — the battery module's advanced controller: walks
//!   the current motion plan and emits the next `targetWaypoint`,
//! * [`LandingNode`] — the battery module's safe controller: emits a
//!   touchdown waypoint below the current position,
//! * [`SurveillanceNode`] — the application layer issuing surveillance
//!   targets and reporting mission progress,
//! * [`CircuitNode`] — the fixed-waypoint mission feeder used by the
//!   Fig. 5 / Fig. 12a circuit experiments (no planner in the loop).

use crate::topics;
use soter_core::node::Node;
use soter_core::time::{Duration, Time};
use soter_core::topic::{TopicName, TopicRead, TopicWriter, Value};
use soter_ctrl::reference::WaypointMission;
use soter_ctrl::traits::MotionController;
use soter_plan::surveillance::SurveillanceApp;
use soter_plan::traits::MotionPlanner;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::sync::Arc;

/// A motion-primitive node wrapping a [`MotionController`].
pub struct ControllerNode {
    name: String,
    controller: Box<dyn MotionController>,
    period: Duration,
    hold_altitude: f64,
}

impl ControllerNode {
    /// Wraps `controller` as a node with the given unique name and period.
    /// `hold_altitude` is the altitude commanded when no target waypoint has
    /// been published yet (hover in place).
    pub fn new(
        name: impl Into<String>,
        controller: impl MotionController + 'static,
        period: Duration,
        hold_altitude: f64,
    ) -> Self {
        ControllerNode {
            name: name.into(),
            controller: Box::new(controller),
            period,
            hold_altitude,
        }
    }
}

impl Node for ControllerNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::LOCAL_POSITION),
            TopicName::new(topics::TARGET_WAYPOINT),
        ]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::CONTROL_ACTION)]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let Some(state) = inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state)
        else {
            return;
        };
        let target = inputs
            .get(topics::TARGET_WAYPOINT)
            .and_then(Value::as_vector)
            .map(Vec3::from_array)
            .unwrap_or_else(|| Vec3::new(state.position.x, state.position.y, self.hold_altitude));
        let control = self
            .controller
            .control(&state, target, self.period.as_secs_f64());
        out.insert(topics::CONTROL_ACTION, topics::control_to_value(&control));
    }

    fn reset(&mut self) {
        self.controller.reset();
    }
}

/// A motion-planner node wrapping a [`MotionPlanner`].
///
/// It re-plans only when the application's target moves 0.5 m or more
/// from the last target it published a plan for.  A `None` from the
/// planner records no target, so the node re-plans on every firing until
/// a query succeeds.
pub struct PlannerNode {
    name: String,
    planner: Box<dyn MotionPlanner>,
    workspace: Workspace,
    period: Duration,
    last_target: Option<Vec3>,
}

impl PlannerNode {
    /// Wraps `planner` as a node with the given unique name and period.
    pub fn new(
        name: impl Into<String>,
        planner: impl MotionPlanner + 'static,
        workspace: Workspace,
        period: Duration,
    ) -> Self {
        PlannerNode {
            name: name.into(),
            planner: Box::new(planner),
            workspace,
            period,
            last_target: None,
        }
    }
}

impl Node for PlannerNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::TARGET_LOCATION),
            TopicName::new(topics::LOCAL_POSITION),
        ]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::MOTION_PLAN)]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let Some(target) = inputs
            .get(topics::TARGET_LOCATION)
            .and_then(Value::as_vector)
            .map(Vec3::from_array)
        else {
            return;
        };
        let Some(state) = inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state)
        else {
            return;
        };
        // Re-plan only when the application issues a new target (planning is
        // expensive; this also matches the paper's planner, which is invoked
        // per target location).
        if self
            .last_target
            .map(|t| t.distance(&target) < 0.5)
            .unwrap_or(false)
        {
            return;
        }
        if let Some(plan) = self.planner.plan(&self.workspace, state.position, target) {
            self.last_target = Some(target);
            out.insert(topics::MOTION_PLAN, topics::plan_to_value(&plan));
        }
    }

    fn reset(&mut self) {
        self.planner.reset();
        self.last_target = None;
    }
}

/// The battery module's advanced controller: follows the published motion
/// plan, advancing to the next waypoint when close to the current one.
pub struct PlanFollowerNode {
    name: String,
    period: Duration,
    arrival_tolerance: f64,
    plan: Vec<Vec3>,
    /// The raw `Value::Path` storage the current plan was decoded from;
    /// plans flow by every firing but change rarely, so a pointer
    /// comparison short-circuits the per-firing decode.
    plan_raw: Option<Arc<[[f64; 3]]>>,
    index: usize,
}

impl PlanFollowerNode {
    /// Creates the plan follower.
    pub fn new(name: impl Into<String>, period: Duration, arrival_tolerance: f64) -> Self {
        PlanFollowerNode {
            name: name.into(),
            period,
            arrival_tolerance,
            plan: Vec::new(),
            plan_raw: None,
            index: 0,
        }
    }
}

impl Node for PlanFollowerNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::MOTION_PLAN),
            TopicName::new(topics::LOCAL_POSITION),
        ]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::TARGET_WAYPOINT)]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        if let Some(Value::Path(raw)) = inputs.get(topics::MOTION_PLAN) {
            let changed = !self
                .plan_raw
                .as_ref()
                .is_some_and(|prev| Arc::ptr_eq(prev, raw));
            if changed {
                self.plan_raw = Some(Arc::clone(raw));
                let plan: Vec<Vec3> = raw.iter().map(|a| Vec3::from_array(*a)).collect();
                if plan != self.plan {
                    self.plan = plan;
                    self.index = 0;
                }
            }
        }
        let Some(state) = inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state)
        else {
            return;
        };
        if self.plan.is_empty() {
            return;
        }
        let current = self.plan[self.index.min(self.plan.len() - 1)];
        if state.position.distance(&current) < self.arrival_tolerance
            && self.index + 1 < self.plan.len()
        {
            self.index += 1;
        }
        let target = self.plan[self.index.min(self.plan.len() - 1)];
        out.insert(topics::TARGET_WAYPOINT, Value::Vector(target.to_array()));
    }

    fn reset(&mut self) {
        self.plan.clear();
        self.plan_raw = None;
        self.index = 0;
    }
}

/// The battery module's safe controller: commands a touchdown waypoint
/// directly below the current position (the certified "land now" planner).
pub struct LandingNode {
    name: String,
    period: Duration,
}

impl LandingNode {
    /// Creates the landing node.
    pub fn new(name: impl Into<String>, period: Duration) -> Self {
        LandingNode {
            name: name.into(),
            period,
        }
    }
}

impl Node for LandingNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::MOTION_PLAN),
            TopicName::new(topics::LOCAL_POSITION),
        ]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::TARGET_WAYPOINT)]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        if let Some(state) = inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state)
        {
            let touchdown = Vec3::new(state.position.x, state.position.y, 0.0);
            out.insert(topics::TARGET_WAYPOINT, Value::Vector(touchdown.to_array()));
        }
    }
}

/// The application layer: issues surveillance targets and reports mission
/// progress.
pub struct SurveillanceNode {
    app: SurveillanceApp,
    workspace: Workspace,
    period: Duration,
    arrival_tolerance: f64,
    current_target: Option<Vec3>,
    reached: i64,
}

impl SurveillanceNode {
    /// Creates the application node.
    pub fn new(
        app: SurveillanceApp,
        workspace: Workspace,
        period: Duration,
        arrival_tolerance: f64,
    ) -> Self {
        SurveillanceNode {
            app,
            workspace,
            period,
            arrival_tolerance,
            current_target: None,
            reached: 0,
        }
    }
}

impl Node for SurveillanceNode {
    fn name(&self) -> &str {
        "surveillance_app"
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::LOCAL_POSITION)]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::TARGET_LOCATION),
            TopicName::new(topics::MISSION_PROGRESS),
        ]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let state = inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state);
        let need_new_target = match (self.current_target, state) {
            (None, _) => true,
            (Some(t), Some(s)) => {
                if s.position.distance(&t) < self.arrival_tolerance {
                    self.reached += 1;
                    true
                } else {
                    false
                }
            }
            (Some(_), None) => false,
        };
        if need_new_target {
            self.current_target = Some(self.app.next_target(&self.workspace));
        }
        if let Some(t) = self.current_target {
            out.insert(topics::TARGET_LOCATION, Value::Vector(t.to_array()));
        }
        out.insert(topics::MISSION_PROGRESS, Value::Int(self.reached));
    }
}

/// The fixed-circuit mission feeder of the Fig. 5 / Fig. 12a experiments:
/// it publishes the next circuit waypoint directly on `targetWaypoint`
/// (there is no planner or battery module in those experiments).
pub struct CircuitNode {
    mission: WaypointMission,
    period: Duration,
}

impl CircuitNode {
    /// Creates the circuit feeder over a [`WaypointMission`].
    pub fn new(mission: WaypointMission, period: Duration) -> Self {
        CircuitNode { mission, period }
    }
}

impl Node for CircuitNode {
    fn name(&self) -> &str {
        "circuit_mission"
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::LOCAL_POSITION)]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::TARGET_WAYPOINT),
            TopicName::new(topics::MISSION_PROGRESS),
        ]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let target = match inputs
            .get(topics::LOCAL_POSITION)
            .and_then(topics::value_to_state)
        {
            Some(state) => self.mission.update(&state),
            None => self.mission.current_target(),
        };
        out.insert(topics::TARGET_WAYPOINT, Value::Vector(target.to_array()));
        let progress = (self.mission.laps() * self.mission.waypoints().len()) as i64;
        out.insert(topics::MISSION_PROGRESS, Value::Int(progress));
    }

    fn reset(&mut self) {
        self.mission.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_core::topic::TopicMap;
    use soter_ctrl::shielded::ShieldedSafeController;
    use soter_plan::astar::GridAstar;
    use soter_sim::dynamics::DroneState;
    use soter_sim::geometry::Aabb;

    fn safe_controller() -> ShieldedSafeController {
        ShieldedSafeController::with_workspace(Workspace::empty(Aabb::new(
            Vec3::new(-50.0, -50.0, 0.0),
            Vec3::new(50.0, 50.0, 20.0),
        )))
    }

    fn state_inputs(pos: Vec3) -> TopicMap {
        let mut m = TopicMap::new();
        m.insert(
            topics::LOCAL_POSITION,
            topics::state_to_value(&DroneState::at_rest(pos)),
        );
        m
    }

    #[test]
    fn controller_node_publishes_control_toward_target() {
        let mut node =
            ControllerNode::new("mpr_sc", safe_controller(), Duration::from_millis(10), 3.0);
        let mut inputs = state_inputs(Vec3::new(0.0, 0.0, 3.0));
        inputs.insert(topics::TARGET_WAYPOINT, Value::Vector([10.0, 0.0, 3.0]));
        let out = node.step_to_map(Time::ZERO, &inputs);
        let u = out
            .get(topics::CONTROL_ACTION)
            .and_then(topics::value_to_control)
            .unwrap();
        assert!(u.acceleration.x > 0.0, "must accelerate toward the target");
    }

    #[test]
    fn controller_node_without_state_publishes_nothing() {
        let mut node =
            ControllerNode::new("mpr_sc", safe_controller(), Duration::from_millis(10), 3.0);
        let out = node.step_to_map(Time::ZERO, &TopicMap::new());
        assert!(out.is_empty());
    }

    #[test]
    fn controller_node_hovers_without_target() {
        let mut node =
            ControllerNode::new("mpr_sc", safe_controller(), Duration::from_millis(10), 3.0);
        let out = node.step_to_map(Time::ZERO, &state_inputs(Vec3::new(5.0, 5.0, 3.0)));
        let u = out
            .get(topics::CONTROL_ACTION)
            .and_then(topics::value_to_control)
            .unwrap();
        assert!(u.acceleration.norm() < 1.0, "hover command should be small");
    }

    #[test]
    fn planner_node_plans_once_per_target() {
        let w = Workspace::city_block();
        let mut node = PlannerNode::new(
            "planner_sc",
            GridAstar::default(),
            w,
            Duration::from_millis(500),
        );
        let mut inputs = state_inputs(Vec3::new(3.0, 3.0, 2.5));
        inputs.insert(topics::TARGET_LOCATION, Value::Vector([3.0, 40.0, 2.5]));
        let out1 = node.step_to_map(Time::ZERO, &inputs);
        assert!(out1.contains(topics::MOTION_PLAN));
        // Same target again: no re-plan.
        let out2 = node.step_to_map(Time::from_millis(500), &inputs);
        assert!(!out2.contains(topics::MOTION_PLAN));
        // New target: re-plan.
        inputs.insert(topics::TARGET_LOCATION, Value::Vector([47.0, 3.0, 2.5]));
        let out3 = node.step_to_map(Time::from_millis(1000), &inputs);
        assert!(out3.contains(topics::MOTION_PLAN));
    }

    #[test]
    fn plan_follower_walks_the_plan() {
        let mut node = PlanFollowerNode::new("bat_ac", Duration::from_millis(100), 1.0);
        let plan = vec![
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(5.0, 0.0, 2.0),
            Vec3::new(10.0, 0.0, 2.0),
        ];
        let mut inputs = state_inputs(Vec3::new(0.0, 0.0, 2.0));
        inputs.insert(topics::MOTION_PLAN, topics::plan_to_value(&plan));
        let out = node.step_to_map(Time::ZERO, &inputs);
        // At the first waypoint already: advances to the second.
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([5.0, 0.0, 2.0])
        );
        // Move near the second waypoint: target becomes the third.
        let mut inputs = state_inputs(Vec3::new(4.8, 0.0, 2.0));
        inputs.insert(topics::MOTION_PLAN, topics::plan_to_value(&plan));
        let out = node.step_to_map(Time::from_millis(100), &inputs);
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([10.0, 0.0, 2.0])
        );
        // Far from everything: target stays the third (the last one).
        let mut inputs = state_inputs(Vec3::new(20.0, 0.0, 2.0));
        inputs.insert(topics::MOTION_PLAN, topics::plan_to_value(&plan));
        let out = node.step_to_map(Time::from_millis(200), &inputs);
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([10.0, 0.0, 2.0])
        );
    }

    #[test]
    fn plan_follower_without_plan_publishes_nothing() {
        let mut node = PlanFollowerNode::new("bat_ac", Duration::from_millis(100), 1.0);
        let out = node.step_to_map(Time::ZERO, &state_inputs(Vec3::new(0.0, 0.0, 2.0)));
        assert!(out.is_empty());
    }

    #[test]
    fn landing_node_targets_the_ground_below() {
        let mut node = LandingNode::new("bat_sc", Duration::from_millis(100));
        let out = node.step_to_map(Time::ZERO, &state_inputs(Vec3::new(7.0, 9.0, 6.0)));
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([7.0, 9.0, 0.0])
        );
    }

    #[test]
    fn surveillance_node_issues_targets_and_counts_progress() {
        let w = Workspace::city_block();
        let app = SurveillanceApp::new(&w, soter_plan::surveillance::TargetPolicy::RoundRobin);
        let mut node = SurveillanceNode::new(app, w.clone(), Duration::from_millis(500), 1.5);
        let out = node.step_to_map(Time::ZERO, &state_inputs(Vec3::new(25.0, 21.0, 2.5)));
        let first_target = out
            .get(topics::TARGET_LOCATION)
            .and_then(Value::as_vector)
            .unwrap();
        assert_eq!(out.get(topics::MISSION_PROGRESS), Some(&Value::Int(0)));
        // Arrive at the first target: progress increments and a new target is
        // issued.
        let out = node.step_to_map(
            Time::from_millis(500),
            &state_inputs(Vec3::from_array(first_target)),
        );
        assert_eq!(out.get(topics::MISSION_PROGRESS), Some(&Value::Int(1)));
        let second_target = out
            .get(topics::TARGET_LOCATION)
            .and_then(Value::as_vector)
            .unwrap();
        assert_ne!(first_target, second_target);
    }

    #[test]
    fn circuit_node_follows_the_waypoint_list() {
        let wps = vec![Vec3::new(0.0, 0.0, 2.0), Vec3::new(10.0, 0.0, 2.0)];
        let mission = WaypointMission::new(wps.clone(), 1.0, true);
        let mut node = CircuitNode::new(mission, Duration::from_millis(100));
        // No state yet: publishes the first waypoint.
        let out = node.step_to_map(Time::ZERO, &TopicMap::new());
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([0.0, 0.0, 2.0])
        );
        // At the first waypoint: advances.
        let out = node.step_to_map(Time::from_millis(100), &state_inputs(wps[0]));
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([10.0, 0.0, 2.0])
        );
        node.reset();
        let out = node.step_to_map(Time::from_millis(200), &TopicMap::new());
        assert_eq!(
            out.get(topics::TARGET_WAYPOINT).and_then(Value::as_vector),
            Some([0.0, 0.0, 2.0])
        );
    }
}
