//! Assembly of the drone software stacks used in the evaluation.
//!
//! Two stacks are built here:
//!
//! * the **circuit stack** — plant + a fixed-waypoint mission feeder + the
//!   motion primitive, used by the Fig. 5 and Fig. 12a experiments (no
//!   planner or battery module in the loop), and
//! * the **full surveillance stack** of Fig. 8 — plant + application layer +
//!   RTA-protected motion planner + RTA-protected battery safety +
//!   RTA-protected motion primitive.
//!
//! Both can be built in three protection configurations: the RTA-protected
//! configuration the paper advocates, and the unprotected AC-only / SC-only
//! configurations used as baselines in the timing comparison of Sec. V-A.

use crate::nodes::{
    CircuitNode, ControllerNode, LandingNode, PlanFollowerNode, PlannerNode, SurveillanceNode,
};
use crate::oracles::{BatteryOracle, MotionPrimitiveOracle, PlanOracle};
use crate::plant::{PlantHandle, PlantNode};
use crate::topics;
use soter_core::composition::RtaSystem;
use soter_core::node::{Node, NodeInfo};
use soter_core::rta::{FilterKind, RtaModule};
use soter_core::time::Duration;
use soter_core::topic::TopicName;
use soter_ctrl::fault::{FaultInjector, FaultSpec};
use soter_ctrl::learned::LearnedController;
use soter_ctrl::px4_like::Px4LikeController;
use soter_ctrl::reference::WaypointMission;
use soter_ctrl::shielded::{ShieldedSafeConfig, ShieldedSafeController};
use soter_ctrl::traits::MotionController;
use soter_plan::astar::GridAstar;
use soter_plan::buggy::{BuggyRrtStar, BuggyRrtStarConfig};
use soter_plan::cache::{identity_key, workspace_fingerprint, CachedPlanner, PlanCache};
use soter_plan::rrt_star::{RrtStar, RrtStarConfig};
use soter_plan::surveillance::{SurveillanceApp, TargetPolicy};
use soter_plan::traits::MotionPlanner;
use soter_reach::forward::ForwardReach;
use soter_reach::ttf::ObstacleTtf;
use soter_sim::battery::{Battery, BatteryModel};
use soter_sim::drone::{Drone, DroneConfig};
use soter_sim::dynamics::DroneState;
use soter_sim::vec3::Vec3;
use soter_sim::wind::WindModel;
use soter_sim::world::Workspace;

/// Which protection configuration to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// The advanced controller runs unprotected (the paper's unsafe
    /// baseline).
    AcOnly,
    /// Only the certified safe controller runs (the paper's conservative
    /// baseline).
    ScOnly,
    /// The SOTER RTA module protects the advanced controller.
    Rta,
}

/// Which advanced (untrusted) motion primitive to use.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvancedKind {
    /// The PX4-like aggressive controller (Fig. 5 right).
    Px4Like,
    /// The data-driven controller with distribution-shift glitches
    /// (Fig. 5 left).
    Learned {
        /// Controller RNG seed.
        seed: u64,
    },
    /// The PX4-like controller with an additional injected fault.
    Faulted {
        /// The fault to inject.
        fault: FaultSpec,
        /// Fault RNG seed.
        seed: u64,
    },
    /// A sandboxed bytecode controller, statically verified before it is
    /// allowed into the stack (see the `soter-vm` crate).  The literal
    /// "untrusted controller" of the paper: the assembly source is data,
    /// not compiled-in code.
    Vm {
        /// VM assembly source of the controller (shared, cheap to clone).
        asm: std::sync::Arc<str>,
    },
}

/// Which stack to build (used by reports to label results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The motion-primitive circuit stack (Fig. 5 / Fig. 12a).
    Circuit,
    /// The full surveillance stack of Fig. 8.
    FullSurveillance,
}

/// Configuration shared by both stacks.
#[derive(Debug, Clone)]
pub struct DroneStackConfig {
    /// The obstacle workspace.
    pub workspace: Workspace,
    /// Protection configuration.
    pub protection: Protection,
    /// Which advanced controller to use.
    pub advanced: AdvancedKind,
    /// Initial drone position.
    pub start: Vec3,
    /// Initial battery charge fraction.
    pub initial_battery: f64,
    /// Battery discharge model shared by the plant and the battery-safety
    /// oracle.
    pub battery_model: BatteryModel,
    /// Plant integration period.
    pub plant_period: Duration,
    /// Controller (motion primitive) period.
    pub controller_period: Duration,
    /// Decision period Δ of the motion-primitive module.
    pub delta_mpr: Duration,
    /// Decision period Δ of the battery-safety module.
    pub delta_bat: Duration,
    /// Decision period Δ of the planner module.
    pub delta_plan: Duration,
    /// Hysteresis factor applied to `φ_safer` of the motion primitive.
    pub safer_factor: f64,
    /// Clearance margin (m) the motion-primitive oracle keeps around
    /// obstacles.
    pub clearance_margin: f64,
    /// Whether the full stack uses the fault-injected RRT* (Sec. V-C) or
    /// the correct one as the advanced planner.
    pub buggy_planner: bool,
    /// Speed cap of the certified safe controller.
    pub sc_speed_cap: f64,
    /// Wind/disturbance model applied by the plant (the paper's nominal
    /// setting is [`WindModel::Calm`]).
    pub wind: WindModel,
    /// Simulation seed (sensor noise, planners, faults).
    pub seed: u64,
    /// Optional shared planner-query cache.  When set, both planner-module
    /// planners are wrapped in [`CachedPlanner`]s keyed by planner kind,
    /// seed and workspace fingerprint — byte-identical to uncached planning
    /// (the cache replays exact query histories, see `soter_plan::cache`),
    /// so the runs of a campaign or falsifier search sharing a scenario stop
    /// paying per-run replanning.
    pub plan_cache: Option<std::sync::Arc<PlanCache>>,
    /// Safety-filter strategy of the motion-primitive module (the battery
    /// and planner modules always run explicit Simplex: their oracles are
    /// state-only and have no command-conditional reach check).
    pub filter: FilterKind,
}

impl Default for DroneStackConfig {
    fn default() -> Self {
        DroneStackConfig {
            workspace: Workspace::city_block(),
            protection: Protection::Rta,
            advanced: AdvancedKind::Px4Like,
            start: Vec3::new(3.0, 3.0, 2.5),
            initial_battery: 1.0,
            battery_model: BatteryModel::default(),
            plant_period: Duration::from_millis(10),
            controller_period: Duration::from_millis(20),
            delta_mpr: Duration::from_millis(100),
            delta_bat: Duration::from_secs(2),
            delta_plan: Duration::from_millis(500),
            safer_factor: 1.5,
            clearance_margin: 0.3,
            buggy_planner: false,
            sc_speed_cap: 2.0,
            wind: WindModel::Calm,
            seed: 0,
            plan_cache: None,
            filter: FilterKind::ExplicitSimplex,
        }
    }
}

impl DroneStackConfig {
    /// Builds the advanced motion-primitive controller selected by
    /// [`DroneStackConfig::advanced`].
    ///
    /// # Panics
    ///
    /// Panics for [`AdvancedKind::Vm`]: a bytecode controller is hosted as
    /// a whole node, not a [`MotionController`] — use
    /// [`DroneStackConfig::advanced_mpr_node`] instead.
    pub fn advanced_controller(&self) -> Box<dyn MotionController> {
        match &self.advanced {
            AdvancedKind::Px4Like => Box::new(Px4LikeController::default()),
            AdvancedKind::Learned { seed } => Box::new(LearnedController::with_seed(*seed)),
            AdvancedKind::Faulted { fault, seed } => Box::new(FaultInjector::new(
                Px4LikeController::default(),
                *fault,
                *seed,
            )),
            AdvancedKind::Vm { .. } => panic!(
                "a VM-hosted advanced controller is a node, not a MotionController; \
                 use DroneStackConfig::advanced_mpr_node"
            ),
        }
    }

    /// Builds the advanced motion-primitive **node** (`mpr_ac`): either the
    /// native [`ControllerNode`] wrapper around
    /// [`DroneStackConfig::advanced_controller`], or — for
    /// [`AdvancedKind::Vm`] — a [`soter_vm::VmNode`] hosting the bytecode
    /// program after it passes static verification against the `mpr_ac`
    /// interface (name, subscriptions, outputs and period must all match).
    ///
    /// # Panics
    ///
    /// Panics if a VM program fails parsing, verification or the interface
    /// check: an unverifiable controller must never enter the stack.
    pub fn advanced_mpr_node(&self) -> Box<dyn Node> {
        match &self.advanced {
            AdvancedKind::Vm { asm } => {
                let expected = NodeInfo {
                    name: "mpr_ac".to_string(),
                    subscriptions: vec![
                        TopicName::new(topics::LOCAL_POSITION),
                        TopicName::new(topics::TARGET_WAYPOINT),
                    ],
                    outputs: vec![TopicName::new(topics::CONTROL_ACTION)],
                    period: self.controller_period,
                };
                match soter_vm::VmNode::load_expecting(asm, &expected) {
                    Ok(node) => Box::new(node),
                    Err(e) => panic!("rejected VM advanced controller: {e}"),
                }
            }
            _ => Box::new(ControllerNode::new(
                "mpr_ac",
                self.advanced_controller(),
                self.controller_period,
                self.start.z,
            )),
        }
    }

    /// Builds the certified safe motion-primitive controller: the
    /// obstacle-aware shielded tracker over this configuration's workspace.
    pub fn safe_controller(&self) -> ShieldedSafeController {
        ShieldedSafeController::new(
            self.workspace.clone(),
            ShieldedSafeConfig {
                speed_cap: self.sc_speed_cap,
                ..ShieldedSafeConfig::default()
            },
        )
    }

    /// Builds the simulated vehicle.
    pub fn drone(&self) -> Drone {
        let dcfg = DroneConfig {
            seed: self.seed,
            battery: self.battery_model,
            wind: self.wind,
            ..DroneConfig::default()
        };
        let mut drone = Drone::with_config(DroneState::at_rest(self.start), dcfg);
        drone.set_battery(Battery::with_charge(
            self.battery_model,
            self.initial_battery,
        ));
        drone
    }

    /// Builds the motion-primitive safety oracle (`φ_mpr`).
    pub fn mpr_oracle(&self) -> MotionPrimitiveOracle {
        let reach = ForwardReach::new(
            soter_sim::dynamics::QuadrotorDynamics::default(),
            self.plant_period.as_secs_f64(),
            0.1,
        );
        let ttf = ObstacleTtf::new(self.workspace.clone(), reach, self.clearance_margin);
        MotionPrimitiveOracle::with_delta(ttf, self.safer_factor, self.delta_mpr.as_secs_f64())
    }

    /// Builds the RTA-protected motion-primitive module
    /// (`SafeMotionPrimitive` in the paper's Fig. 7).
    pub fn motion_primitive_module(&self) -> RtaModule {
        let ac = self.advanced_mpr_node();
        let sc = ControllerNode::new(
            "mpr_sc",
            self.safe_controller(),
            self.controller_period,
            self.start.z,
        );
        RtaModule::builder("safe_motion_primitive")
            .advanced_boxed(ac)
            .safe(sc)
            .delta(self.delta_mpr)
            .oracle(self.mpr_oracle())
            .filter(self.filter)
            .build()
            .expect("the motion-primitive module is structurally well-formed")
    }

    /// Builds the battery-safety module.
    pub fn battery_module(&self) -> RtaModule {
        let ac = PlanFollowerNode::new("bat_ac", self.controller_period, 1.5);
        let sc = LandingNode::new("bat_sc", self.controller_period);
        let ceiling = self.workspace.bounds().max.z;
        RtaModule::builder("battery_safety")
            .advanced(ac)
            .safe(sc)
            .delta(self.delta_bat)
            .oracle(BatteryOracle::new(self.battery_model, ceiling, 0.85))
            .dm_subscribes([topics::BATTERY_CHARGE])
            .build()
            .expect("the battery-safety module is structurally well-formed")
    }

    /// Builds the RTA-protected motion-planner module.
    pub fn planner_module(&self) -> RtaModule {
        let wf = workspace_fingerprint(&self.workspace);
        let advanced: Box<dyn MotionPlanner> = if self.buggy_planner {
            let planner = BuggyRrtStar::new(BuggyRrtStarConfig {
                inner: RrtStarConfig {
                    seed: self.seed,
                    ..RrtStarConfig::default()
                },
                bug_probability: 0.3,
                bug_seed: self.seed.wrapping_add(17),
            });
            match &self.plan_cache {
                Some(cache) => Box::new(CachedPlanner::new(
                    Box::new(planner),
                    identity_key("buggy-rrt*", &[self.seed, wf]),
                    std::sync::Arc::clone(cache),
                )),
                None => Box::new(planner),
            }
        } else {
            let planner = RrtStar::new(RrtStarConfig {
                seed: self.seed,
                ..RrtStarConfig::default()
            });
            match &self.plan_cache {
                Some(cache) => Box::new(CachedPlanner::new(
                    Box::new(planner),
                    identity_key("rrt*", &[self.seed, wf]),
                    std::sync::Arc::clone(cache),
                )),
                None => Box::new(planner),
            }
        };
        let safe: Box<dyn MotionPlanner> = match &self.plan_cache {
            Some(cache) => Box::new(CachedPlanner::new(
                Box::new(GridAstar::default()),
                identity_key("grid-astar", &[wf]),
                std::sync::Arc::clone(cache),
            )),
            None => Box::new(GridAstar::default()),
        };
        let ac = PlannerNode::new(
            "planner_ac",
            advanced,
            self.workspace.clone(),
            self.delta_plan,
        );
        let sc = PlannerNode::new("planner_sc", safe, self.workspace.clone(), self.delta_plan);
        RtaModule::builder("safe_motion_planner")
            .advanced(ac)
            .safe(sc)
            .delta(self.delta_plan)
            .oracle(PlanOracle::new(self.workspace.clone(), 0.0))
            .dm_subscribes([topics::MOTION_PLAN])
            .build()
            .expect("the planner module is structurally well-formed")
    }

    fn add_motion_primitive(&self, system: &mut RtaSystem) {
        match self.protection {
            Protection::Rta => {
                system
                    .add_module(self.motion_primitive_module())
                    .expect("module composes with the stack");
            }
            Protection::AcOnly => {
                system
                    .add_node(self.advanced_mpr_node())
                    .expect("node composes with the stack");
            }
            Protection::ScOnly => {
                system
                    .add_node(ControllerNode::new(
                        "mpr_sc",
                        self.safe_controller(),
                        self.controller_period,
                        self.start.z,
                    ))
                    .expect("node composes with the stack");
            }
        }
    }
}

/// Builds the circuit stack: plant + circuit mission feeder + motion
/// primitive.  Returns the system and a handle to the simulated vehicle.
pub fn build_circuit_stack(
    config: &DroneStackConfig,
    waypoints: Vec<Vec3>,
    looping: bool,
) -> (RtaSystem, PlantHandle) {
    let mut system = RtaSystem::new("circuit-stack");
    let (plant, handle) = PlantNode::new(config.drone(), config.plant_period);
    system.add_node(plant).expect("plant composes");
    let mission = WaypointMission::new(waypoints, 1.5, looping);
    system
        .add_node(CircuitNode::new(mission, Duration::from_millis(100)))
        .expect("mission feeder composes");
    config.add_motion_primitive(&mut system);
    (system, handle)
}

/// Builds the full surveillance stack of Fig. 8: plant + application +
/// planner module + battery module + motion-primitive module.
pub fn build_full_stack(
    config: &DroneStackConfig,
    policy: TargetPolicy,
) -> (RtaSystem, PlantHandle) {
    let mut system = RtaSystem::new("surveillance-stack");
    let (plant, handle) = PlantNode::new(config.drone(), config.plant_period);
    system.add_node(plant).expect("plant composes");
    let app = SurveillanceApp::new(&config.workspace, policy);
    system
        .add_node(SurveillanceNode::new(
            app,
            config.workspace.clone(),
            Duration::from_millis(500),
            2.0,
        ))
        .expect("application layer composes");
    system
        .add_module(config.planner_module())
        .expect("planner module composes");
    system
        .add_module(config.battery_module())
        .expect("battery module composes");
    config.add_motion_primitive(&mut system);
    (system, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_core::rta::{Mode, SafetyOracle};
    use soter_core::topic::TopicMap;
    use std::sync::PoisonError;

    #[test]
    fn default_config_builds_well_formed_modules() {
        let cfg = DroneStackConfig::default();
        let mpr = cfg.motion_primitive_module();
        assert_eq!(mpr.name(), "safe_motion_primitive");
        assert_eq!(mpr.mode(), Mode::Sc);
        let bat = cfg.battery_module();
        assert_eq!(bat.delta(), Duration::from_secs(2));
        let planner = cfg.planner_module();
        assert_eq!(
            planner.node_names(),
            vec!["planner_ac", "planner_sc", "safe_motion_planner_dm"]
        );
    }

    #[test]
    fn every_filter_kind_builds_the_motion_primitive_module() {
        for filter in FilterKind::ALL {
            let cfg = DroneStackConfig {
                filter,
                ..DroneStackConfig::default()
            };
            let mpr = cfg.motion_primitive_module();
            assert_eq!(mpr.filter(), filter, "{filter}");
            assert_eq!(mpr.command_topic().is_some(), filter.needs_command_checks());
        }
    }

    #[test]
    fn circuit_stack_composes_under_all_protections() {
        for protection in [Protection::Rta, Protection::AcOnly, Protection::ScOnly] {
            let cfg = DroneStackConfig {
                protection,
                ..DroneStackConfig::default()
            };
            let wps = cfg.workspace.surveillance_points().to_vec();
            let (system, handle) = build_circuit_stack(&cfg, wps, true);
            let expected_nodes = match protection {
                Protection::Rta => 2 + 3,
                _ => 2 + 1,
            };
            assert_eq!(system.node_count(), expected_nodes, "{protection:?}");
            let drone = handle.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(drone.battery_charge(), 1.0);
        }
    }

    #[test]
    fn full_stack_composes_with_three_modules() {
        let cfg = DroneStackConfig {
            buggy_planner: true,
            ..DroneStackConfig::default()
        };
        let (system, _handle) = build_full_stack(&cfg, TargetPolicy::RoundRobin);
        assert_eq!(system.modules().len(), 3);
        // plant + application + 3 modules × 3 nodes
        assert_eq!(system.node_count(), 2 + 9);
        // All three module output topics are disjoint — Theorem 4.1's
        // composability precondition.
        let outputs = system.output_topics();
        for t in [
            topics::CONTROL_ACTION,
            topics::MOTION_PLAN,
            topics::TARGET_WAYPOINT,
        ] {
            assert!(outputs.contains(t));
        }
    }

    #[test]
    fn advanced_kinds_produce_distinct_controllers() {
        let cfg = DroneStackConfig::default();
        assert_eq!(cfg.advanced_controller().name(), "px4-like");
        let cfg = DroneStackConfig {
            advanced: AdvancedKind::Learned { seed: 1 },
            ..DroneStackConfig::default()
        };
        assert_eq!(cfg.advanced_controller().name(), "learned");
        let cfg = DroneStackConfig {
            advanced: AdvancedKind::Faulted {
                fault: FaultSpec::RandomSpike {
                    probability: 0.1,
                    magnitude: 6.0,
                },
                seed: 2,
            },
            ..DroneStackConfig::default()
        };
        assert_eq!(cfg.advanced_controller().name(), "fault-injected");
    }

    #[test]
    fn dm_reachability_query_is_usable() {
        let config = DroneStackConfig {
            workspace: Workspace::corner_cut_course(),
            ..DroneStackConfig::default()
        };
        let oracle = config.mpr_oracle();
        let query = |position: Vec3, speed: f64| {
            let mut observed = TopicMap::new();
            observed.insert(
                topics::LOCAL_POSITION,
                topics::state_to_value(&DroneState {
                    position,
                    velocity: Vec3::new(speed, 0.0, 0.0),
                }),
            );
            oracle.may_leave_safe_within(&observed, config.delta_mpr * 2)
        };
        assert!(!query(Vec3::new(3.0, 3.0, 5.0), 0.0));
        assert!(query(Vec3::new(8.0, 10.0, 5.0), 7.0));
    }
}
