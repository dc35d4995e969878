//! The simulated drone wrapped as a SOTER node.
//!
//! In the paper's experiments the plant is Gazebo with the PX4 firmware in
//! the loop (or the real 3DR Iris); the software stack sees it through the
//! trusted state estimators.  [`PlantNode`] plays that role here: it runs at
//! the simulator rate, consumes the `controlAction` topic, advances the
//! vehicle dynamics and battery, and publishes the estimated state, the
//! ground-truth state (for experiment bookkeeping) and the battery charge.
//! The [`PlantHandle`] gives the experiment harness shared access to the
//! underlying [`Drone`] for ground-truth metrics after the run.

use crate::topics;
use soter_core::node::Node;
use soter_core::time::{Duration, Time};
use soter_core::topic::{TopicName, TopicRead, TopicWriter, Value};
use soter_sim::drone::Drone;
use soter_sim::dynamics::ControlInput;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared handle to the simulated vehicle, for ground-truth inspection by
/// the experiment harness.
pub type PlantHandle = Arc<Mutex<Drone>>;

/// The plant node.
pub struct PlantNode {
    drone: PlantHandle,
    period: Duration,
    last_time: Option<Time>,
}

impl PlantNode {
    /// Wraps a simulated drone as a node running every `period`, returning
    /// the node and a shared handle to the vehicle.
    pub fn new(drone: Drone, period: Duration) -> (Self, PlantHandle) {
        let handle: PlantHandle = Arc::new(Mutex::new(drone));
        (
            PlantNode {
                drone: Arc::clone(&handle),
                period,
                last_time: None,
            },
            handle,
        )
    }
}

impl Node for PlantNode {
    fn name(&self) -> &str {
        "plant"
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        vec![TopicName::new(topics::CONTROL_ACTION)]
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![
            TopicName::new(topics::LOCAL_POSITION),
            TopicName::new(topics::GROUND_TRUTH),
            TopicName::new(topics::BATTERY_CHARGE),
        ]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let control = inputs
            .get(topics::CONTROL_ACTION)
            .and_then(topics::value_to_control)
            .unwrap_or(ControlInput::ZERO);
        // Integrate over the true elapsed time since the previous firing so
        // that scheduling jitter slows the *software*, not the physics.
        let dt = match self.last_time {
            Some(prev) => now.duration_since(prev).as_secs_f64(),
            None => self.period.as_secs_f64(),
        }
        .max(1e-4);
        self.last_time = Some(now);
        let mut drone = self.drone.lock().unwrap_or_else(PoisonError::into_inner);
        drone.step(control, dt);
        let truth = *drone.state();
        let estimate = drone.estimated_state();
        let charge = drone.battery_charge();
        drop(drone);
        out.insert(topics::LOCAL_POSITION, topics::state_to_value(&estimate));
        out.insert(topics::GROUND_TRUTH, topics::state_to_value(&truth));
        out.insert(topics::BATTERY_CHARGE, Value::Float(charge));
    }

    fn reset(&mut self) {
        self.last_time = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_core::topic::TopicMap;
    use soter_sim::vec3::Vec3;
    use std::sync::MutexGuard;

    fn drone(handle: &PlantHandle) -> MutexGuard<'_, Drone> {
        handle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn publishes_state_and_battery() {
        let (mut node, handle) = PlantNode::new(
            Drone::at(Vec3::new(1.0, 2.0, 3.0)),
            Duration::from_millis(10),
        );
        assert_eq!(node.name(), "plant");
        assert_eq!(node.period(), Duration::from_millis(10));
        let out = node.step_to_map(Time::from_millis(10), &TopicMap::new());
        assert!(out.contains(topics::LOCAL_POSITION));
        assert!(out.contains(topics::GROUND_TRUTH));
        let charge = out
            .get(topics::BATTERY_CHARGE)
            .and_then(Value::as_float)
            .unwrap();
        assert!(charge > 0.99);
        assert!(drone(&handle).elapsed() > 0.0);
    }

    #[test]
    fn applies_control_from_topic() {
        let (mut node, handle) = PlantNode::new(
            Drone::at(Vec3::new(0.0, 0.0, 5.0)),
            Duration::from_millis(10),
        );
        let mut inputs = TopicMap::new();
        inputs.insert(topics::CONTROL_ACTION, Value::Vector([3.0, 0.0, 0.0]));
        for i in 1..=200 {
            node.step_to_map(Time::from_millis(10 * i), &inputs);
        }
        let drone = drone(&handle);
        assert!(
            drone.state().position.x > 0.5,
            "control must move the drone"
        );
        assert!(drone.battery_charge() < 1.0);
    }

    #[test]
    fn jittered_schedule_integrates_elapsed_time() {
        // Two plants: one stepped every 10 ms, one stepped at irregular
        // instants covering the same span; both should reach (roughly) the
        // same ground-truth time.
        let (mut regular, h1) = PlantNode::new(
            Drone::at(Vec3::new(0.0, 0.0, 5.0)),
            Duration::from_millis(10),
        );
        let (mut jittered, h2) = PlantNode::new(
            Drone::at(Vec3::new(0.0, 0.0, 5.0)),
            Duration::from_millis(10),
        );
        for i in 1..=100 {
            regular.step_to_map(Time::from_millis(10 * i), &TopicMap::new());
        }
        let mut t = 0u64;
        while t < 1000 {
            t += 25;
            jittered.step_to_map(Time::from_millis(t), &TopicMap::new());
        }
        assert!((drone(&h1).elapsed() - drone(&h2).elapsed()).abs() < 0.05);
    }
}
