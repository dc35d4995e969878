//! Execution traces.
//!
//! The executor records a structured trace of what happened: which node
//! fired when, which RTA module switched mode, and any Theorem 3.1 invariant
//! violations observed by the built-in monitors.  The experiment harness of
//! the drone case study summarises these traces into the statistics the
//! paper reports (disengagement counts, fraction of time in AC mode, …).
//!
//! Every trace also maintains a streaming [`TraceHasher`] digest that is
//! updated on *every* recorded event, even when event storage is disabled
//! for long campaigns.  Two runs with the same digest fired the same nodes
//! at the same instants with the same mode switches — the property the
//! golden-trace regression facility of `soter-scenarios` pins down.

use soter_core::dm::SwitchReason;
use soter_core::rta::Mode;
use soter_core::time::Time;
use soter_core::topic::TopicName;

/// A streaming 64-bit FNV-1a hasher used to digest executions.
///
/// The digest is a cheap, deterministic fingerprint — not a cryptographic
/// hash.  It is stable across platforms because every input is reduced to
/// explicit little-endian bytes before hashing (floats via their IEEE-754
/// bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHasher {
    state: u64,
}

impl Default for TraceHasher {
    fn default() -> Self {
        TraceHasher::new()
    }
}

impl TraceHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        TraceHasher {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u8`.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write_bytes(&[v])
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a `bool` (one byte, `0`/`1`).
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_u8(v as u8)
    }

    /// Absorbs a string (length-prefixed, so `("ab", "c")` and
    /// `("a", "bc")` digest differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The FNV-1a absorption of one fixed string, as a closed form.
///
/// FNV-1a's xor with a byte touches only the low 8 bits of the state, and
/// the multiply keeps the high bits' contribution a multiple of 256, so
/// absorbing a fixed `k`-byte string `B` from state `s` is
/// `s·Pᵏ + T[s & 0xff] (mod 2⁶⁴)` with `T[l] = fnv(l, B) − l·Pᵏ`.  Here `B`
/// is what [`TraceHasher::write_str`] absorbs: the length prefix plus the
/// bytes.  Building the table costs `256·k` steps, so the executor builds
/// one per node on its first firing and then digests the node's name in
/// O(1) on every firing, bit for bit as `write_str` would.
#[derive(Debug)]
pub(crate) struct NameDigest {
    /// `Pᵏ`.
    pk: u64,
    /// `T[l]` for every low byte `l`.
    table: Box<[u64; 256]>,
}

impl NameDigest {
    /// Tabulates the absorption of `write_str(name)`.
    pub(crate) fn new(name: &str) -> Self {
        let k = 8 + name.len() as u32;
        let pk = TraceHasher::PRIME.wrapping_pow(k);
        let mut table = Box::new([0u64; 256]);
        for (l, t) in table.iter_mut().enumerate() {
            let mut h = TraceHasher { state: l as u64 };
            h.write_str(name);
            *t = h.state.wrapping_sub((l as u64).wrapping_mul(pk));
        }
        NameDigest { pk, table }
    }

    /// Absorbs the name into `h`, exactly like `h.write_str(name)`.
    #[inline]
    fn absorb(&self, h: &mut TraceHasher) {
        h.state = h
            .state
            .wrapping_mul(self.pk)
            .wrapping_add(self.table[(h.state & 0xff) as usize]);
    }
}

/// One event of an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node fired (its step function ran).
    NodeFired {
        /// Firing time.
        time: Time,
        /// Node name (interned; cloned only when the trace stores events).
        node: TopicName,
        /// Whether the node's outputs were applied to the global topics
        /// (`false` for a controller whose output is disabled by the OE
        /// map).
        output_enabled: bool,
    },
    /// A decision module switched mode.
    ModeSwitch {
        /// Switch time.
        time: Time,
        /// RTA module name (interned).
        module: TopicName,
        /// Previous mode.
        from: Mode,
        /// New mode.
        to: Mode,
        /// Why the decision module switched (which check fired).  Excluded
        /// from the streaming digest: the reason is derived metadata over
        /// the same observation that produced the switch, so including it
        /// would re-key every historical golden without distinguishing any
        /// additional behaviour.
        reason: SwitchReason,
    },
    /// A Theorem 3.1 invariant monitor reported a violation.
    InvariantViolation {
        /// Observation time.
        time: Time,
        /// RTA module name (interned).
        module: TopicName,
        /// Mode at the time of the violation.
        mode: Mode,
    },
    /// An environment input was injected.
    EnvironmentInput {
        /// Injection time.
        time: Time,
        /// Topic that was updated (interned).
        topic: TopicName,
    },
}

impl TraceEvent {
    /// The time at which the event occurred.
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::NodeFired { time, .. }
            | TraceEvent::ModeSwitch { time, .. }
            | TraceEvent::InvariantViolation { time, .. }
            | TraceEvent::EnvironmentInput { time, .. } => *time,
        }
    }
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    hasher: TraceHasher,
    recorded: u64,
}

impl Trace {
    /// Creates an empty trace; recording is enabled by default.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            hasher: TraceHasher::new(),
            recorded: 0,
        }
    }

    /// Creates a disabled trace that drops every event (for long campaigns
    /// where only aggregate statistics matter).  The streaming digest is
    /// still maintained, so disabled traces remain comparable.
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
            hasher: TraceHasher::new(),
            recorded: 0,
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event.  The event is folded into the streaming digest
    /// unconditionally; it is stored only when recording is enabled.
    pub fn record(&mut self, event: TraceEvent) {
        self.digest_event(&event);
        self.recorded += 1;
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Records a [`TraceEvent::NodeFired`] of `node`, whose name `digest`
    /// tabulates: the same digest, count and stored event as `record`, but
    /// the name is digested in O(1) and cloned only when storage is on.
    pub(crate) fn record_fired(
        &mut self,
        time: Time,
        node: &TopicName,
        digest: &NameDigest,
        output_enabled: bool,
    ) {
        let h = &mut self.hasher;
        h.write_u8(0);
        h.write_u64(time.as_micros());
        digest.absorb(h);
        h.write_u8(output_enabled as u8);
        self.recorded += 1;
        if self.enabled {
            self.events.push(TraceEvent::NodeFired {
                time,
                node: node.clone(),
                output_enabled,
            });
        }
    }

    /// The reference digest of one event; [`Trace::record_fired`] must
    /// match its `NodeFired` arm bit for bit.
    fn digest_event(&mut self, event: &TraceEvent) {
        let h = &mut self.hasher;
        match event {
            TraceEvent::NodeFired {
                time,
                node,
                output_enabled,
            } => {
                h.write_u8(0);
                h.write_u64(time.as_micros());
                h.write_str(node.as_str());
                h.write_u8(*output_enabled as u8);
            }
            TraceEvent::ModeSwitch {
                time,
                module,
                from,
                to,
                reason: _,
            } => {
                h.write_u8(1);
                h.write_u64(time.as_micros());
                h.write_str(module.as_str());
                h.write_u8(matches!(from, Mode::Ac) as u8);
                h.write_u8(matches!(to, Mode::Ac) as u8);
            }
            TraceEvent::InvariantViolation { time, module, mode } => {
                h.write_u8(2);
                h.write_u64(time.as_micros());
                h.write_str(module.as_str());
                h.write_u8(matches!(mode, Mode::Ac) as u8);
            }
            TraceEvent::EnvironmentInput { time, topic } => {
                h.write_u8(3);
                h.write_u64(time.as_micros());
                h.write_str(topic.as_str());
            }
        }
    }

    /// The streaming digest over every event recorded so far (including
    /// events dropped because storage is disabled).
    pub fn digest(&self) -> u64 {
        self.hasher.finish()
    }

    /// Total number of events recorded so far, counting events dropped by a
    /// disabled trace.
    pub fn recorded_events(&self) -> u64 {
        self.recorded
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Mode switches of the given module, in order.
    pub fn mode_switches(&self, module: &str) -> Vec<(Time, Mode, Mode)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ModeSwitch {
                    time,
                    module: m,
                    from,
                    to,
                    ..
                } if m == module => Some((*time, *from, *to)),
                _ => None,
            })
            .collect()
    }

    /// Mode switches of the given module with their structured reasons, in
    /// order.
    pub fn switch_reasons(&self, module: &str) -> Vec<(Time, Mode, Mode, SwitchReason)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ModeSwitch {
                    time,
                    module: m,
                    from,
                    to,
                    reason,
                } if m == module => Some((*time, *from, *to, *reason)),
                _ => None,
            })
            .collect()
    }

    /// Number of firings recorded for a node.
    pub fn firing_count(&self, node: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeFired { node: n, .. } if n == node))
            .count()
    }

    /// All invariant violations recorded.
    pub fn invariant_violations(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::InvariantViolation { .. }))
            .collect()
    }

    /// Clears the trace, resetting the streaming digest as well.
    pub fn clear(&mut self) {
        self.events.clear();
        self.hasher = TraceHasher::new();
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_querying() {
        let mut t = Trace::new();
        assert!(t.is_enabled() && t.is_empty());
        t.record(TraceEvent::NodeFired {
            time: Time::from_millis(10),
            node: "ac".into(),
            output_enabled: false,
        });
        t.record(TraceEvent::ModeSwitch {
            time: Time::from_millis(20),
            module: "mpr".into(),
            from: Mode::Sc,
            to: Mode::Ac,
            reason: SwitchReason::StateSafer,
        });
        t.record(TraceEvent::InvariantViolation {
            time: Time::from_millis(30),
            module: "mpr".into(),
            mode: Mode::Ac,
        });
        t.record(TraceEvent::EnvironmentInput {
            time: Time::from_millis(40),
            topic: "wind".into(),
        });
        assert_eq!(t.len(), 4);
        assert_eq!(t.firing_count("ac"), 1);
        assert_eq!(t.firing_count("sc"), 0);
        assert_eq!(
            t.mode_switches("mpr"),
            vec![(Time::from_millis(20), Mode::Sc, Mode::Ac)]
        );
        assert!(t.mode_switches("other").is_empty());
        assert_eq!(t.invariant_violations().len(), 1);
        assert_eq!(t.events()[3].time(), Time::from_millis(40));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        t.record(TraceEvent::EnvironmentInput {
            time: Time::ZERO,
            topic: "x".into(),
        });
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.recorded_events(), 1, "the digest still counts events");
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::NodeFired {
                time: Time::from_millis(10),
                node: "ac".into(),
                output_enabled: true,
            },
            TraceEvent::ModeSwitch {
                time: Time::from_millis(20),
                module: "mpr".into(),
                from: Mode::Sc,
                to: Mode::Ac,
                reason: SwitchReason::StateSafer,
            },
            TraceEvent::ModeSwitch {
                time: Time::from_millis(30),
                module: "mpr".into(),
                from: Mode::Ac,
                to: Mode::Sc,
                reason: SwitchReason::ReachUnsafe,
            },
            TraceEvent::EnvironmentInput {
                time: Time::from_millis(40),
                topic: "wind".into(),
            },
        ]
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let events = sample_events();
        let digest_of = |evs: &[TraceEvent]| {
            let mut t = Trace::new();
            for e in evs {
                t.record(e.clone());
            }
            t.digest()
        };
        assert_eq!(
            digest_of(&events),
            digest_of(&events),
            "the digest must be a pure function of the event sequence"
        );
        let mut reordered = events.clone();
        reordered.swap(1, 2);
        assert_ne!(
            digest_of(&events),
            digest_of(&reordered),
            "reordering events must change the digest"
        );
        assert_ne!(
            digest_of(&events[..3]),
            digest_of(&events),
            "a prefix must digest differently from the full trace"
        );
    }

    #[test]
    fn disabled_and_enabled_traces_agree_on_the_digest() {
        let mut enabled = Trace::new();
        let mut disabled = Trace::disabled();
        for e in sample_events() {
            enabled.record(e.clone());
            disabled.record(e);
        }
        assert_eq!(
            enabled.digest(),
            disabled.digest(),
            "storage on/off must not change the digest"
        );
        assert_eq!(enabled.recorded_events(), disabled.recorded_events());
    }

    #[test]
    fn empty_traces_share_the_initial_digest() {
        assert_eq!(Trace::new().digest(), Trace::disabled().digest());
        assert_eq!(Trace::new().digest(), TraceHasher::new().finish());
    }

    #[test]
    fn clear_resets_the_digest() {
        let mut t = Trace::new();
        let initial = t.digest();
        for e in sample_events() {
            t.record(e);
        }
        assert_ne!(t.digest(), initial);
        t.clear();
        assert_eq!(t.digest(), initial);
        assert_eq!(t.recorded_events(), 0);
    }

    #[test]
    fn mode_switch_counting_distinguishes_modules() {
        let mut t = Trace::new();
        for e in sample_events() {
            t.record(e);
        }
        t.record(TraceEvent::ModeSwitch {
            time: Time::from_millis(50),
            module: "battery".into(),
            from: Mode::Ac,
            to: Mode::Sc,
            reason: SwitchReason::ReachUnsafe,
        });
        assert_eq!(t.mode_switches("mpr").len(), 2);
        assert_eq!(t.mode_switches("battery").len(), 1);
        assert_eq!(t.mode_switches("planner").len(), 0);
        // Switches come back in recording order.
        let mpr = t.mode_switches("mpr");
        assert!(mpr[0].0 < mpr[1].0);
        assert_eq!(mpr[0].2, Mode::Ac);
        assert_eq!(mpr[1].2, Mode::Sc);
    }

    #[test]
    fn switch_reason_is_surfaced_but_not_digested() {
        let switch_with = |reason: SwitchReason| TraceEvent::ModeSwitch {
            time: Time::from_millis(20),
            module: "mpr".into(),
            from: Mode::Ac,
            to: Mode::Sc,
            reason,
        };
        let digest_of = |reason: SwitchReason| {
            let mut t = Trace::new();
            t.record(switch_with(reason));
            t.digest()
        };
        // Pre-existing goldens digest the same bytes regardless of reason.
        assert_eq!(
            digest_of(SwitchReason::ReachUnsafe),
            digest_of(SwitchReason::CommandUnsafe)
        );
        let mut t = Trace::new();
        t.record(switch_with(SwitchReason::CommandUnsafe));
        assert_eq!(
            t.switch_reasons("mpr"),
            vec![(
                Time::from_millis(20),
                Mode::Ac,
                Mode::Sc,
                SwitchReason::CommandUnsafe
            )]
        );
        assert!(t.switch_reasons("other").is_empty());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Names of 0, 1, 7, 8, 9, 24, 25 and 40 bytes, a fleet node name and
    /// a non-ASCII one.
    fn edge_names() -> Vec<String> {
        let mut names: Vec<String> = [0usize, 1, 7, 8, 9, 24, 25, 40]
            .iter()
            .map(|&len| (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect())
            .collect();
        names.extend(["drone7/mpr_sc", "δρόνος/θέση"].map(String::from));
        names
    }

    #[test]
    fn name_digest_absorption_equals_the_write_str_loop() {
        let mut rng = 0x5eed;
        for name in edge_names() {
            let table = NameDigest::new(&name);
            for low in 0..256u64 {
                for _ in 0..16 {
                    let state = (splitmix(&mut rng) & !0xff) | low;
                    let mut looped = TraceHasher { state };
                    looped.write_str(&name);
                    let mut tabled = TraceHasher { state };
                    table.absorb(&mut tabled);
                    assert_eq!(tabled, looped, "{name:?} from state {state:#x}");
                }
            }
        }
    }

    #[test]
    fn record_fired_equals_recording_a_node_fired_event() {
        for enabled in [true, false] {
            let (mut via_record, mut via_fired) = if enabled {
                (Trace::new(), Trace::new())
            } else {
                (Trace::disabled(), Trace::disabled())
            };
            let mut rng = 7;
            for (i, name) in edge_names().iter().cycle().take(60).enumerate() {
                let node = TopicName::new(name);
                let time = Time::from_micros(splitmix(&mut rng) % 1_000_000_000);
                let output_enabled = i % 3 != 0;
                via_record.record(TraceEvent::NodeFired {
                    time,
                    node: node.clone(),
                    output_enabled,
                });
                via_fired.record_fired(time, &node, &NameDigest::new(name), output_enabled);
                // Interleave the other events, which both traces record
                // through `record`.
                if i % 7 == 0 {
                    for e in sample_events().into_iter().skip(1) {
                        via_record.record(e.clone());
                        via_fired.record(e);
                    }
                }
            }
            assert_eq!(via_fired.digest(), via_record.digest());
            assert_eq!(via_fired.recorded_events(), via_record.recorded_events());
            assert_eq!(via_fired.events(), via_record.events());
            // 60 firings plus 9 rounds of 3 interleaved events.
            assert_eq!(via_fired.len(), if enabled { 60 + 9 * 3 } else { 0 });
        }
    }

    #[test]
    fn hasher_primitives_are_length_prefixed() {
        let a = {
            let mut h = TraceHasher::new();
            h.write_str("ab");
            h.write_str("c");
            h.finish()
        };
        let b = {
            let mut h = TraceHasher::new();
            h.write_str("a");
            h.write_str("bc");
            h.finish()
        };
        assert_ne!(a, b);
        let f = {
            let mut h = TraceHasher::new();
            h.write_f64(1.5);
            h.finish()
        };
        let g = {
            let mut h = TraceHasher::new();
            h.write_u64(1.5f64.to_bits());
            h.finish()
        };
        assert_eq!(f, g, "floats digest via their bit patterns");
    }
}
