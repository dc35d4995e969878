//! Differential proof that the zero-allocation executor hot path (interned
//! topics, slot-store views, indexed calendar) is behaviourally identical
//! to the map-based reference semantics it replaced.
//!
//! Three angles:
//!
//! * the pinned catalog suite (single-drone, fleets, planner queries,
//!   adversarial schedules) re-runs as one campaign at 1 **and** 4 workers,
//!   each with and without a shared planner-query cache, and every record —
//!   digest, monitor verdicts, mode switches, targets — must match the
//!   committed golden byte-for-byte;
//! * mission scenarios re-run twice and must agree on the trace digest and
//!   the exact event count (the firing-schedule fingerprint);
//! * a proptest over randomized `FnNode` systems compares the executor,
//!   firing by firing, against a retained naive reference interpreter that
//!   still uses `TopicMap::restrict` and map merging — the pre-optimisation
//!   data flow.

mod common;

use common::{executor_firings, random_system, NaiveExecutor};
use proptest::prelude::*;
use soter::core::prelude::*;
use soter::plan::cache::PlanCache;
use soter::scenarios::campaign::{Campaign, RunRecord};
use soter::scenarios::catalog;
use soter::scenarios::golden::{golden_path, record_from_text};
use soter::scenarios::runner::run_scenario;
use std::path::Path;
use std::sync::Arc;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

/// Runs the whole catalog suite as one campaign (each scenario keeps its
/// built-in seed) and returns the records in suite order.
fn campaign_records(workers: usize, plan_cache: Option<&Arc<PlanCache>>) -> Vec<RunRecord> {
    let mut campaign = Campaign::new(catalog::golden_suite()).with_workers(workers);
    if let Some(cache) = plan_cache {
        campaign = campaign.with_plan_cache(Arc::clone(cache));
    }
    campaign.run().records
}

/// The catalog suite must reproduce the committed goldens exactly at one
/// worker and at four, with and without a planner-query cache shared
/// across the whole campaign: same digests, same monitor verdicts, same
/// stats.
#[test]
fn catalog_suite_is_digest_identical_to_goldens_at_1_and_4_workers() {
    let suite = catalog::golden_suite();
    let goldens: Vec<RunRecord> = suite
        .iter()
        .map(|scenario| {
            let text = std::fs::read_to_string(golden_path(golden_dir(), scenario))
                .unwrap_or_else(|e| panic!("missing golden for `{}`: {e}", scenario.name));
            record_from_text(&text).expect("golden parses")
        })
        .collect();
    assert_eq!(goldens.len(), 30, "the pinned suite covers all 30 goldens");
    let plan_cache = Arc::new(PlanCache::new());
    for workers in [1, 4] {
        for cache in [None, Some(&plan_cache)] {
            let records = campaign_records(workers, cache);
            assert_eq!(records.len(), goldens.len());
            for (actual, golden) in records.iter().zip(&goldens) {
                assert_eq!(
                    actual,
                    golden,
                    "scenario `{}` diverged from its golden ({workers} workers, plan cache: {})",
                    golden.scenario,
                    cache.is_some()
                );
            }
        }
    }
}

/// Mission scenarios must agree across repeated runs on the full
/// firing-schedule fingerprint: digest *and* event count.
#[test]
fn mission_reruns_agree_on_trace_digest_and_event_count() {
    for scenario in [
        catalog::fig12a(soter::drone::stack::Protection::Rta, 3, 30.0),
        catalog::stress(13, 20.0, true),
        catalog::airspace_crossing(2, 21, 6.0),
    ] {
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.digest, b.digest, "{}", scenario.name);
        let (ra, rb) = (a.run.as_ref(), b.run.as_ref());
        assert_eq!(
            ra.map(|r| (r.trace_digest, r.trace_events)),
            rb.map(|r| (r.trace_digest, r.trace_events)),
            "{}",
            scenario.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The optimized executor and the naive restrict-based reference fire
    /// the same nodes at the same instants with the same OE gating, and
    /// leave the global valuation in the same state.
    #[test]
    fn executor_matches_naive_reference(
        seed in 0u64..10_000,
        nodes in 2usize..6,
        horizon_ms in 200u64..1200,
    ) {
        let horizon = Time::from_millis(horizon_ms);
        let (firings, topics) = executor_firings(random_system(seed, nodes), horizon);
        let mut reference = NaiveExecutor::new(random_system(seed, nodes));
        while reference.now < horizon {
            if reference.step_instant().is_none() {
                break;
            }
        }
        prop_assert_eq!(&firings, &reference.firings);
        prop_assert_eq!(&topics, &reference.topics);
    }
}
