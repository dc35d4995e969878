//! Proof that the steady-state executor hot path performs **zero heap
//! allocation per node firing** — the tentpole property of the interned
//! slot-store rewrite.
//!
//! A counting global allocator tallies every allocation in the process; the
//! executor runs a warm-up phase (scratch buffers grow to their steady
//! capacity) and then thousands of further firings during which the
//! allocation counter must not move at all.
//!
//! The file contains a single `#[test]` so no concurrent test can perturb
//! the counter; trace *storage* is off (the streaming digest is still
//! maintained), matching the campaign/falsifier configuration this hot
//! path serves.  Domain oracles are free to allocate internally — the
//! property claimed here is about the executor machinery, so the system
//! under test uses arithmetic-only nodes and oracles.

use soter::core::prelude::*;
use soter::runtime::executor::{Executor, ExecutorConfig};
use soter::runtime::schedule::JitterSchedule;
use soter::vm::VmNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the measuring thread, only around the measured loop —
    /// harness threads (libtest bookkeeping) allocate at their leisure
    /// without polluting the count.  Const-initialised so reading it inside
    /// the allocator itself cannot allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic with no other side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// φ_safe = |x| ≤ 10, φ_safer = |x| ≤ 5 over the `state` topic; pure
/// arithmetic, no allocation.
struct LineOracle;

impl SafetyOracle for LineOracle {
    fn is_safe(&self, observed: &dyn TopicRead) -> bool {
        observed
            .get("state")
            .and_then(Value::as_float)
            .map(|x| x.abs() <= 10.0)
            .unwrap_or(false)
    }
    fn is_safer(&self, observed: &dyn TopicRead) -> bool {
        observed
            .get("state")
            .and_then(Value::as_float)
            .map(|x| x.abs() <= 5.0)
            .unwrap_or(false)
    }
    fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool {
        match observed.get("state").and_then(Value::as_float) {
            Some(x) => x.abs() + horizon.as_secs_f64() > 10.0,
            None => true,
        }
    }
}

/// The advanced controller of the measured module, hosted in the bytecode
/// sandbox: the VM interpreter (register reset, a bounded loop, a guarded
/// division, a topic load and a publish) is part of the measured hot path,
/// so the verifier's allocation-discipline claim is proven here, not just
/// asserted.  With `state = 7` this publishes `min(state / 4, 1) = 1.0`,
/// the same command the old closure AC produced.
const VM_AC: &str = "
node ac
period 100ms
budget 64
sub state
pub command

ld.f   r0, state, 0.0
fconst r1, 0.0
fconst r2, 1.0
loop 4
fadd   r1, r1, r2
endloop
fconst r3, 0.001
fmax   r4, r1, r3
fdiv   r5, r0, r4
fconst r6, 1.0
fmin   r5, r5, r6
st.f   command, r5
halt
";

/// An RTA module plus a fast free node: every firing kind (DM with monitor
/// check, gated VM-hosted AC, enabled SC, free node) runs inside the
/// measured window.
fn system() -> RtaSystem {
    let controller = |name: &str, v: f64| {
        FnNode::builder(name)
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(move |_, _, out| {
                out.insert("command", Value::Float(v));
            })
            .build()
    };
    let module = RtaModule::builder("line")
        .advanced(VmNode::load(VM_AC).expect("the bytecode AC passes verification"))
        .safe(controller("sc", -1.0))
        .delta(Duration::from_millis(100))
        .oracle(LineOracle)
        .build()
        .expect("line module is well-formed");
    let mut phase = 0.0f64;
    let ticker = FnNode::builder("ticker")
        .subscribes(["command"])
        .publishes(["tick"])
        .period(Duration::from_millis(10))
        .step(move |_, inputs, out| {
            phase += inputs
                .get("command")
                .and_then(Value::as_float)
                .unwrap_or(0.0);
            out.insert("tick", Value::Float(phase));
        })
        .build();
    let mut sys = RtaSystem::new("alloc-probe");
    sys.add_module(module).expect("module composes");
    sys.add_node(ticker).expect("ticker composes");
    sys
}

fn run_steady_state(schedule: JitterSchedule) -> u64 {
    let config = ExecutorConfig {
        schedule,
        record_trace: false,
        monitor_invariants: true,
    };
    let mut exec = Executor::with_config(system(), config);
    // state = 7: inside φ_safe, outside φ_safer — the DM evaluates its full
    // switching logic every Δ yet never switches, so the measured window
    // contains no mode-switch bookkeeping growth.
    exec.publish("state", Value::Float(7.0));
    // Warm-up: scratch buffers reach steady capacity.
    for _ in 0..200 {
        exec.step_instant();
    }
    let fired_before = exec.fired_steps();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..2_000 {
        exec.step_instant();
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let fired = exec.fired_steps() - fired_before;
    assert!(fired >= 2_000, "the probe must keep firing ({fired})");
    assert!(
        exec.trace().recorded_events() > 0,
        "the streaming digest still observes every firing"
    );
    allocs
}

#[test]
fn steady_state_step_instant_allocates_nothing() {
    // The ideal calendar and every delaying schedule kind (the i.i.d.
    // sampler draws from its RNG on every reschedule; the window kinds
    // compare names and instants): all must be allocation-free per firing.
    for (label, schedule) in [
        ("ideal", JitterSchedule::Ideal),
        (
            "iid-jitter",
            JitterSchedule::iid(0.5, Duration::from_millis(4), 11),
        ),
        (
            "targeted-window",
            JitterSchedule::TargetedNode {
                node: "sc".into(),
                start: Time::from_secs_f64(1.0),
                width: Duration::from_secs(3600),
                delay: Duration::from_millis(3),
            },
        ),
        (
            "burst-window",
            JitterSchedule::Burst {
                start: Time::from_secs_f64(1.0),
                width: Duration::from_secs(3600),
                delay: Duration::from_millis(3),
            },
        ),
        (
            "phase-locked",
            JitterSchedule::PhaseLocked {
                period: Duration::from_millis(250),
                offset: Duration::from_millis(50),
                width: Duration::from_millis(100),
                delay: Duration::from_millis(3),
            },
        ),
    ] {
        let allocs = run_steady_state(schedule);
        assert_eq!(
            allocs, 0,
            "steady-state executor allocated {allocs} times under the {label} schedule"
        );
    }
}
