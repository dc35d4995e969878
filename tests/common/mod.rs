//! Shared differential-test machinery: the naive reference interpreter
//! (the executor semantics as they were before the hot-path rewrite —
//! global `TopicMap`, `restrict` projections per firing, fresh output maps
//! merged back, linear calendar scans), the deterministic random-system
//! generator, and the trace → firing-list projection.  Used by
//! `executor_equivalence.rs` (executor vs reference).

#![allow(dead_code)]

use soter::core::composition::RtaSystem;
use soter::core::node::{FnNode, Node};
use soter::core::prelude::*;
use soter::core::rta::Mode;
use soter::runtime::executor::{Executor, ExecutorConfig};
use soter::runtime::trace::{Trace, TraceEvent};
use std::collections::BTreeMap;

/// One firing observed by either implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    pub time: Time,
    pub node: String,
    pub enabled: bool,
}

pub struct NaiveExecutor {
    pub system: RtaSystem,
    pub topics: TopicMap,
    oe: BTreeMap<String, bool>,
    /// `(kind, index-within-kind, next due)`; kind 0 = DM, 1 = AC, 2 = SC,
    /// 3 = free — the canonical firing order.
    calendar: Vec<(u8, usize, Time)>,
    pub now: Time,
    pub firings: Vec<Firing>,
}

impl NaiveExecutor {
    pub fn new(system: RtaSystem) -> Self {
        let mut oe = BTreeMap::new();
        let mut calendar = Vec::new();
        for (i, m) in system.modules().iter().enumerate() {
            oe.insert(m.ac().name().to_string(), false);
            oe.insert(m.sc().name().to_string(), true);
            calendar.push((0, i, Time::ZERO + m.dm().period()));
            calendar.push((1, i, Time::ZERO + m.ac().period()));
            calendar.push((2, i, Time::ZERO + m.sc().period()));
        }
        for (i, n) in system.free_nodes().iter().enumerate() {
            calendar.push((3, i, Time::ZERO + n.period()));
        }
        NaiveExecutor {
            system,
            topics: TopicMap::new(),
            oe,
            calendar,
            now: Time::ZERO,
            firings: Vec::new(),
        }
    }

    pub fn step_instant(&mut self) -> Option<Time> {
        let next = self.calendar.iter().map(|(_, _, t)| *t).min()?;
        self.now = next;
        let mut fireable: Vec<(u8, usize)> = Vec::new();
        for kind in 0..4u8 {
            for (k, i, t) in &self.calendar {
                if *t == next && *k == kind {
                    fireable.push((*k, *i));
                }
            }
        }
        for (kind, i) in fireable {
            self.fire(kind, i);
            let period = match kind {
                0 => self.system.modules()[i].dm().period(),
                1 => self.system.modules()[i].ac().period(),
                2 => self.system.modules()[i].sc().period(),
                _ => self.system.free_nodes()[i].period(),
            };
            let entry = self
                .calendar
                .iter_mut()
                .find(|(k, j, _)| *k == kind && *j == i)
                .expect("calendar entry exists");
            entry.2 = next + period;
        }
        Some(next)
    }

    fn fire(&mut self, kind: u8, i: usize) {
        let now = self.now;
        if kind == 0 {
            let dm_name = self.system.modules()[i].dm().name().to_string();
            let ac_name = self.system.modules()[i].ac().name().to_string();
            let sc_name = self.system.modules()[i].sc().name().to_string();
            let subs = self.system.modules()[i].dm().subscriptions();
            let inputs = self.topics.restrict(subs.iter());
            self.system.modules_mut()[i]
                .dm_mut()
                .step_to_map(now, &inputs);
            let after = self.system.modules()[i].mode();
            self.oe.insert(ac_name, after == Mode::Ac);
            self.oe.insert(sc_name, after == Mode::Sc);
            self.firings.push(Firing {
                time: now,
                node: dm_name,
                enabled: true,
            });
            return;
        }
        let (name, subs) = match kind {
            1 => {
                let n = self.system.modules()[i].ac();
                (n.name().to_string(), n.subscriptions())
            }
            2 => {
                let n = self.system.modules()[i].sc();
                (n.name().to_string(), n.subscriptions())
            }
            _ => {
                let n = &self.system.free_nodes()[i];
                (n.name().to_string(), n.subscriptions())
            }
        };
        let enabled = *self.oe.get(&name).unwrap_or(&true);
        let inputs = self.topics.restrict(subs.iter());
        let outputs = match kind {
            1 => self.system.modules_mut()[i]
                .ac_mut()
                .step_to_map(now, &inputs),
            2 => self.system.modules_mut()[i]
                .sc_mut()
                .step_to_map(now, &inputs),
            _ => self.system.free_nodes_mut()[i].step_to_map(now, &inputs),
        };
        if enabled {
            self.topics.merge_from(&outputs);
        }
        self.firings.push(Firing {
            time: now,
            node: name,
            enabled,
        });
    }
}

/// Builds a deterministic pseudo-random `FnNode` system from a seed: a
/// chain/fan of free nodes over a shared topic pool plus one RTA module, so
/// the OE gating, the DM path and multi-subscription views are all
/// exercised.
pub fn random_system(seed: u64, nodes: usize) -> RtaSystem {
    let mut sys = RtaSystem::new(format!("random-{seed}"));
    // One RTA module over topic "x0" (published by free node 0 below).
    struct O;
    impl SafetyOracle for O {
        fn is_safe(&self, obs: &dyn TopicRead) -> bool {
            obs.get("x0").and_then(Value::as_float).unwrap_or(0.0).abs() <= 50.0
        }
        fn is_safer(&self, obs: &dyn TopicRead) -> bool {
            obs.get("x0").and_then(Value::as_float).unwrap_or(0.0).abs() <= 25.0
        }
        fn may_leave_safe_within(&self, obs: &dyn TopicRead, h: Duration) -> bool {
            obs.get("x0").and_then(Value::as_float).unwrap_or(0.0).abs() + h.as_secs_f64() > 50.0
        }
    }
    let mk_ctrl = |name: String, gain: f64, period_ms: u64| {
        FnNode::builder(name)
            .subscribes(["x0"])
            .publishes(["u"])
            .period(Duration::from_millis(period_ms))
            .step(move |_, inp, out| {
                let x = inp.get("x0").and_then(Value::as_float).unwrap_or(0.0);
                out.insert("u", Value::Float(gain * x + gain));
            })
            .build()
    };
    let delta = 40 + (seed % 4) * 20;
    let module = RtaModule::builder("m")
        .advanced(mk_ctrl("m_ac".into(), 1.5, delta))
        .safe(mk_ctrl("m_sc".into(), -0.5, delta))
        .delta(Duration::from_millis(delta))
        .oracle(O)
        .build()
        .expect("module is well-formed");
    sys.add_module(module).expect("module composes");
    // Free nodes: node k publishes "x{k}", subscribing to a seed-dependent
    // subset of earlier topics plus the module output "u".
    let mut state = seed;
    let mut next = move || {
        // splitmix64-style stream, fully deterministic per seed.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for k in 0..nodes {
        let mut subs: Vec<String> = Vec::new();
        for j in 0..k {
            if next() % 3 == 0 {
                subs.push(format!("x{j}"));
            }
        }
        if next() % 2 == 0 {
            subs.push("u".into());
        }
        let period = 10 + (next() % 5) * 10;
        let out_topic = format!("x{k}");
        let subs_for_step = subs.clone();
        let mut counter = 0i64;
        let node = FnNode::builder(format!("n{k}"))
            .subscribes(subs.iter().map(String::as_str))
            .publishes([out_topic.as_str()])
            .period(Duration::from_millis(period))
            .step(move |now, inp, out| {
                counter += 1;
                let mut acc = now.as_secs_f64() + counter as f64;
                for s in &subs_for_step {
                    acc += inp.get(s).and_then(Value::as_float).unwrap_or(0.1);
                }
                out.insert(&out_topic, Value::Float(acc * 0.5));
            })
            .build();
        sys.add_node(node).expect("free node composes");
    }
    sys
}

/// Projects a recorded trace onto the firing list both interpreters log.
pub fn trace_firings(trace: &Trace) -> Vec<Firing> {
    trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeFired {
                time,
                node,
                output_enabled,
            } => Some(Firing {
                time: *time,
                node: node.as_str().to_string(),
                enabled: *output_enabled,
            }),
            _ => None,
        })
        .collect()
}

/// Runs the sequential executor over `system` and returns its firing list
/// and final valuation.
pub fn executor_firings(system: RtaSystem, horizon: Time) -> (Vec<Firing>, TopicMap) {
    let mut exec = Executor::with_config(
        system,
        ExecutorConfig {
            record_trace: true,
            ..ExecutorConfig::default()
        },
    );
    exec.run_until(horizon);
    let firings = trace_firings(exec.trace());
    (firings, exec.topics())
}
