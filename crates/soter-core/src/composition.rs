//! Composition of RTA modules into an RTA system (Sec. IV).
//!
//! An RTA system is a set of RTA modules (plus, in practice, ordinary nodes
//! such as the plant interface and the application layer).  Modules are
//! *composable* when their node names are pairwise disjoint and their output
//! topic sets are pairwise disjoint; under those conditions Theorem 4.1
//! guarantees that the composed system satisfies the conjunction of the
//! modules' invariants.  [`RtaSystem`] holds the composition and performs
//! the composability checks; the runtime crate executes it according to the
//! operational semantics of Fig. 11.

use crate::error::SoterError;
use crate::node::{Node, NodeInfo};
use crate::rta::RtaModule;
use crate::topic::TopicName;
use std::collections::BTreeSet;
use std::fmt;

/// Alias for composition failures.
pub type CompositionError = SoterError;

/// A composed RTA system: a set of RTA modules plus free (unprotected)
/// nodes such as the plant interface, state estimators and the application
/// layer.
pub struct RtaSystem {
    name: String,
    modules: Vec<RtaModule>,
    free_nodes: Vec<Box<dyn Node>>,
}

impl fmt::Debug for RtaSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtaSystem")
            .field("name", &self.name)
            .field(
                "modules",
                &self.modules.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field(
                "free_nodes",
                &self
                    .free_nodes
                    .iter()
                    .map(|n| n.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl RtaSystem {
    /// Creates an empty system with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        RtaSystem {
            name: name.into(),
            modules: Vec::new(),
            free_nodes: Vec::new(),
        }
    }

    /// The system name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an RTA module, checking composability with the modules and nodes
    /// already present.
    ///
    /// # Errors
    ///
    /// Returns [`SoterError::NotComposable`] if the new module shares a node
    /// name or an output topic with the existing system.
    pub fn add_module(&mut self, module: RtaModule) -> Result<(), CompositionError> {
        self.check_disjoint_names(&module.node_names())?;
        let new_outputs: BTreeSet<TopicName> = module.outputs().into_iter().collect();
        for existing in &self.modules {
            let theirs: BTreeSet<TopicName> = existing.outputs().into_iter().collect();
            let overlap: Vec<&TopicName> = new_outputs.intersection(&theirs).collect();
            if !overlap.is_empty() {
                return Err(SoterError::NotComposable {
                    reason: format!(
                        "modules `{}` and `{}` both publish on {overlap:?}",
                        module.name(),
                        existing.name()
                    ),
                });
            }
        }
        for node in &self.free_nodes {
            let theirs: BTreeSet<TopicName> = node.outputs().into_iter().collect();
            let overlap: Vec<&TopicName> = new_outputs.intersection(&theirs).collect();
            if !overlap.is_empty() {
                return Err(SoterError::NotComposable {
                    reason: format!(
                        "module `{}` and node `{}` both publish on {overlap:?}",
                        module.name(),
                        node.name()
                    ),
                });
            }
        }
        self.modules.push(module);
        Ok(())
    }

    /// Adds a free (unprotected) node, checking name and output disjointness.
    ///
    /// # Errors
    ///
    /// Returns [`SoterError::NotComposable`] on a name clash or output
    /// overlap with the existing system.
    pub fn add_node(&mut self, node: impl Node + 'static) -> Result<(), CompositionError> {
        self.add_node_boxed(Box::new(node))
    }

    /// Adds an already boxed free node.
    ///
    /// # Errors
    ///
    /// Returns [`SoterError::NotComposable`] on a name clash or output
    /// overlap with the existing system.
    pub fn add_node_boxed(&mut self, node: Box<dyn Node>) -> Result<(), CompositionError> {
        self.check_disjoint_names(&[node.name().to_string()])?;
        let new_outputs: BTreeSet<TopicName> = node.outputs().into_iter().collect();
        for existing in self.all_node_infos() {
            let theirs: BTreeSet<TopicName> = existing.outputs.iter().cloned().collect();
            let overlap: Vec<&TopicName> = new_outputs.intersection(&theirs).collect();
            if !overlap.is_empty() {
                return Err(SoterError::NotComposable {
                    reason: format!(
                        "node `{}` and node `{}` both publish on {overlap:?}",
                        node.name(),
                        existing.name
                    ),
                });
            }
        }
        self.free_nodes.push(node);
        Ok(())
    }

    fn check_disjoint_names(&self, new_names: &[String]) -> Result<(), CompositionError> {
        let existing: BTreeSet<String> =
            self.all_node_infos().into_iter().map(|i| i.name).collect();
        for n in new_names {
            if existing.contains(n) {
                return Err(SoterError::NotComposable {
                    reason: format!("node name `{n}` is already used in system `{}`", self.name),
                });
            }
        }
        Ok(())
    }

    /// The RTA modules of the system.
    pub fn modules(&self) -> &[RtaModule] {
        &self.modules
    }

    /// Mutable access to the RTA modules (used by the runtime).
    pub fn modules_mut(&mut self) -> &mut [RtaModule] {
        &mut self.modules
    }

    /// The free nodes of the system.
    pub fn free_nodes(&self) -> &[Box<dyn Node>] {
        &self.free_nodes
    }

    /// Mutable access to the free nodes (used by the runtime).
    pub fn free_nodes_mut(&mut self) -> &mut [Box<dyn Node>] {
        &mut self.free_nodes
    }

    /// Static descriptions of every node in the system (AC, SC and DM of
    /// every module, plus the free nodes).
    pub fn all_node_infos(&self) -> Vec<NodeInfo> {
        let mut infos = Vec::new();
        for m in &self.modules {
            let (ac, sc, dm) = m.node_infos();
            infos.push(ac);
            infos.push(sc);
            infos.push(dm);
        }
        for n in &self.free_nodes {
            infos.push(n.info());
        }
        infos
    }

    /// All output topics of the system (`OS` in the paper's attribute list).
    pub fn output_topics(&self) -> BTreeSet<TopicName> {
        self.all_node_infos()
            .into_iter()
            .flat_map(|i| i.outputs)
            .collect()
    }

    /// Resets every module and node to its initial state.
    pub fn reset(&mut self) {
        for m in &mut self.modules {
            m.reset();
        }
        for n in &mut self.free_nodes {
            n.reset();
        }
    }

    /// Total number of nodes in the system.
    pub fn node_count(&self) -> usize {
        self.modules.len() * 3 + self.free_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FnNode;
    use crate::rta::test_support::{aggressive_node, conservative_node, LineOracle};
    use crate::rta::RtaModule;
    use crate::time::Duration;

    fn module(name: &str, ac_name: &str, sc_name: &str, out: &str) -> RtaModule {
        let ac = FnNode::builder(ac_name)
            .subscribes(["state"])
            .publishes([out])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        let sc = FnNode::builder(sc_name)
            .subscribes(["state"])
            .publishes([out])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        RtaModule::builder(name)
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn disjoint_modules_compose() {
        let mut sys = RtaSystem::new("stack");
        sys.add_module(module("planner", "p_ac", "p_sc", "plan"))
            .unwrap();
        sys.add_module(module("primitive", "m_ac", "m_sc", "control"))
            .unwrap();
        assert_eq!(sys.modules().len(), 2);
        assert_eq!(sys.node_count(), 6);
        assert_eq!(sys.name(), "stack");
        let outputs = sys.output_topics();
        assert!(outputs.contains("plan") && outputs.contains("control"));
        assert!(format!("{sys:?}").contains("planner"));
    }

    #[test]
    fn overlapping_outputs_are_rejected() {
        let mut sys = RtaSystem::new("stack");
        sys.add_module(module("a", "a_ac", "a_sc", "control"))
            .unwrap();
        let err = sys
            .add_module(module("b", "b_ac", "b_sc", "control"))
            .unwrap_err();
        assert!(format!("{err}").contains("publish"));
        assert_eq!(sys.modules().len(), 1);
    }

    #[test]
    fn duplicate_node_names_are_rejected() {
        let mut sys = RtaSystem::new("stack");
        sys.add_module(module("a", "shared_ac", "a_sc", "out_a"))
            .unwrap();
        let err = sys
            .add_module(module("b", "shared_ac", "b_sc", "out_b"))
            .unwrap_err();
        assert!(format!("{err}").contains("shared_ac"));
    }

    #[test]
    fn free_node_with_overlapping_output_is_rejected() {
        let mut sys = RtaSystem::new("stack");
        sys.add_module(module("a", "a_ac", "a_sc", "control"))
            .unwrap();
        let clash = FnNode::builder("rogue")
            .publishes(["control"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        assert!(sys.add_node(clash).is_err());
        let ok = FnNode::builder("env")
            .publishes(["state"])
            .period(Duration::from_millis(10))
            .step(|_, _, _| {})
            .build();
        sys.add_node(ok).unwrap();
        assert_eq!(sys.free_nodes().len(), 1);
    }

    #[test]
    fn duplicate_free_node_name_is_rejected() {
        let mut sys = RtaSystem::new("stack");
        let a = FnNode::builder("env")
            .publishes(["s1"])
            .step(|_, _, _| {})
            .build();
        let b = FnNode::builder("env")
            .publishes(["s2"])
            .step(|_, _, _| {})
            .build();
        sys.add_node(a).unwrap();
        assert!(sys.add_node(b).is_err());
    }

    #[test]
    fn reset_restores_initial_modes() {
        use crate::rta::Mode;
        use crate::time::Time;
        use crate::topic::{TopicMap, Value};
        let mut sys = RtaSystem::new("stack");
        let m = RtaModule::builder("line")
            .advanced(aggressive_node(Duration::from_millis(100)))
            .safe(conservative_node(Duration::from_millis(100)))
            .delta(Duration::from_millis(100))
            .oracle(LineOracle {
                bound: 10.0,
                safer_bound: 5.0,
                max_speed: 1.0,
            })
            .build()
            .unwrap();
        sys.add_module(m).unwrap();
        let mut obs = TopicMap::new();
        obs.insert("state", Value::Float(0.0));
        sys.modules_mut()[0].dm_mut().step_to_map(Time::ZERO, &obs);
        assert_eq!(sys.modules()[0].mode(), Mode::Ac);
        sys.reset();
        assert_eq!(sys.modules()[0].mode(), Mode::Sc);
    }
}
