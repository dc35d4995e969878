//! A planner-query cache shared across the runs of a campaign.
//!
//! Seeds (and jitter candidates) that share a scenario repeat the same
//! RRT*/A* queries: every instance flies the same workspace toward the
//! same application-issued targets, so the expensive planning calls are
//! near-duplicates across a campaign.  [`PlanCache`] lets any number of
//! stacks share one query cache keyed by `(workspace, query)` — **without
//! breaking byte-identical replay**, which is subtle because planners are
//! stateful: [`crate::rrt_star::RrtStar`] holds an RNG that advances
//! across queries, so the answer to a query depends on the *entire query
//! history*, not just the query itself.
//!
//! The cache therefore stores a *snapshot chain*, one state per distinct
//! query history:
//!
//! ```text
//!   state s0 (fresh planner, identity key)
//!     ──(q1)──▶ s1 = hash(s0, q1)   transition stores plan(q1) + a
//!     ──(q2)──▶ s2 = hash(s1, q2)   cloned planner snapshot at s_i
//! ```
//!
//! A [`CachedPlanner`] wraps a concrete planner and tracks only its
//! current state key.  On a **hit** it returns the recorded plan and
//! advances the key — no planner work at all.  On a **miss** it clones
//! the snapshot at its current state (the planner exactly as an uncached
//! run would have it after the same history), releases the cache lock,
//! runs the real query, then records the transition and the new
//! snapshot.  Two racing misses compute identical results (planning is
//! deterministic given the snapshot), so insertion is idempotent and the
//! cache can be shared freely across campaign workers.
//!
//! Cache hits occur exactly when instances share a query-history prefix —
//! e.g. falsifier candidates before their jitter windows open, or shrink
//! steps that re-fly an unchanged approach path.
//!
//! A cache never leaves its process.  Every transition in it was recorded
//! by a local miss, together with the snapshot of the state it leads to,
//! so every state a [`CachedPlanner`] can reach has a snapshot to plan
//! from.  Sharded campaigns (`soter-serve`) give each worker process one
//! cache, shared by every job that process runs.

use crate::traits::MotionPlanner;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A [`MotionPlanner`] whose full internal state can be snapshotted by
/// cloning — the requirement for participating in a [`PlanCache`] chain.
/// Blanket-implemented for every cloneable planner.
pub trait SnapshotPlanner: MotionPlanner {
    /// Clones the planner, internal state (RNG streams, scratch) included.
    fn clone_box(&self) -> Box<dyn SnapshotPlanner>;
}

impl<T: MotionPlanner + Clone + Send + 'static> SnapshotPlanner for T {
    fn clone_box(&self) -> Box<dyn SnapshotPlanner> {
        Box::new(self.clone())
    }
}

impl MotionPlanner for Box<dyn SnapshotPlanner> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        (**self).plan(workspace, start, goal)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// FNV-1a, the same cheap deterministic fold the trace hasher uses; good
/// enough for cache keys (collisions only cost correctness if two distinct
/// histories collide, at 2^-64 per pair).
#[derive(Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    fn str(mut self, s: &str) -> Self {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.u64(s.len() as u64)
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A stable fingerprint of a workspace (bounds, obstacles, robot radius,
/// surveillance points) for cache identity keys.
pub fn workspace_fingerprint(workspace: &Workspace) -> u64 {
    let mut h = KeyHasher::new();
    let b = workspace.bounds();
    for v in [b.min, b.max] {
        h = h.f64(v.x).f64(v.y).f64(v.z);
    }
    h = h.u64(workspace.obstacles().len() as u64);
    for o in workspace.obstacles() {
        for v in [o.min, o.max] {
            h = h.f64(v.x).f64(v.y).f64(v.z);
        }
    }
    h = h.f64(workspace.robot_radius());
    h = h.u64(workspace.surveillance_points().len() as u64);
    for p in workspace.surveillance_points() {
        h = h.f64(p.x).f64(p.y).f64(p.z);
    }
    h.finish()
}

/// Builds a planner identity key from its name and distinguishing
/// configuration values (seeds, workspace fingerprint, …).  Two planners
/// may share a chain root **only** if a fresh instance of each would
/// answer every query sequence identically.
pub fn identity_key(name: &str, parts: &[u64]) -> u64 {
    let mut h = KeyHasher::new().str(name);
    for &p in parts {
        h = h.u64(p);
    }
    h.finish()
}

type StateKey = u64;

/// A recorded transition: the answer the planner gave to a query, and the
/// state key of the planner afterwards.
type Transition = (Option<Vec<Vec3>>, StateKey);

struct PlanCacheInner {
    /// `(state, query) -> (recorded answer, successor state)`.
    transitions: HashMap<(StateKey, u64), Transition>,
    /// Planner snapshots, one per reached state.
    snapshots: HashMap<StateKey, Box<dyn SnapshotPlanner>>,
}

/// A shared snapshot-chain planner-query cache (see the module docs).
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner {
                transitions: HashMap::new(),
                snapshots: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Queries answered from the chain without running a planner.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that ran the real planner (and extended the chain).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn ensure_root(&self, root: StateKey, planner: &dyn SnapshotPlanner) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner
            .snapshots
            .entry(root)
            .or_insert_with(|| planner.clone_box());
    }
}

/// A planner wrapper that answers repeated query histories from a shared
/// [`PlanCache`] — byte-identical to running the wrapped planner directly.
pub struct CachedPlanner {
    cache: Arc<PlanCache>,
    root: StateKey,
    state: StateKey,
    /// Kept only for [`MotionPlanner::name`] (the chain snapshots carry
    /// the live state).
    name: String,
}

impl CachedPlanner {
    /// Wraps a fresh `planner` whose identity (configuration, seed,
    /// workspace — everything that distinguishes its answers) is summarised
    /// by `identity` (see [`identity_key`]).  The planner **must** be in
    /// its initial state: the chain root snapshot is taken here.
    pub fn new(planner: Box<dyn SnapshotPlanner>, identity: u64, cache: Arc<PlanCache>) -> Self {
        cache.ensure_root(identity, planner.as_ref());
        CachedPlanner {
            name: planner.name().to_string(),
            cache,
            root: identity,
            state: identity,
        }
    }
}

impl MotionPlanner for CachedPlanner {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        let query = KeyHasher::new()
            .u64(workspace_fingerprint(workspace))
            .f64(start.x)
            .f64(start.y)
            .f64(start.z)
            .f64(goal.x)
            .f64(goal.y)
            .f64(goal.z)
            .finish();
        // Hit: advance along the chain without touching a planner.
        let mut planner = {
            let inner = self.cache.inner.lock().expect("plan cache lock");
            if let Some((plan, next)) = inner.transitions.get(&(self.state, query)) {
                self.state = *next;
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                return plan.clone();
            }
            inner
                .snapshots
                .get(&self.state)
                .expect("chain invariant: every reachable state has a snapshot")
                .clone_box()
        };
        // Miss: plan on a clone of the snapshot at this history, with the
        // lock released — other instances keep hitting concurrently.
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let plan = planner.plan(workspace, start, goal);
        let next = KeyHasher::new().u64(self.state).u64(query).finish();
        {
            let mut inner = self.cache.inner.lock().expect("plan cache lock");
            // A racing miss stores the identical result first: keep it.
            // The transition and its successor's snapshot go in under one
            // lock, so a hit never lands on a state without a snapshot.
            inner
                .transitions
                .entry((self.state, query))
                .or_insert_with(|| (plan.clone(), next));
            inner.snapshots.entry(next).or_insert(planner);
        }
        self.state = next;
        plan
    }

    fn reset(&mut self) {
        // A reset planner is exactly a fresh planner: rewind to the root.
        self.state = self.root;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::GridAstar;
    use crate::rrt_star::{RrtStar, RrtStarConfig};

    fn query_sequence() -> Vec<(Vec3, Vec3)> {
        vec![
            (Vec3::new(3.0, 3.0, 2.5), Vec3::new(24.0, 18.0, 3.0)),
            (Vec3::new(24.0, 18.0, 3.0), Vec3::new(6.0, 22.0, 4.0)),
            (Vec3::new(6.0, 22.0, 4.0), Vec3::new(20.0, 6.0, 2.0)),
        ]
    }

    /// The soundness property the whole design exists for: a planner whose
    /// RNG advances across queries must answer identically through the
    /// cache, including on the *hit* path of a second instance.
    #[test]
    fn cached_rrt_star_reproduces_the_uncached_query_history() {
        let workspace = Workspace::city_block();
        let config = RrtStarConfig {
            seed: 9,
            ..RrtStarConfig::default()
        };
        let mut direct = RrtStar::new(config);
        let expected: Vec<_> = query_sequence()
            .into_iter()
            .map(|(a, b)| direct.plan(&workspace, a, b))
            .collect();

        let cache = Arc::new(PlanCache::new());
        let identity = identity_key("rrt*", &[9, workspace_fingerprint(&workspace)]);
        for round in 0..3 {
            let mut cached =
                CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&cache));
            let got: Vec<_> = query_sequence()
                .into_iter()
                .map(|(a, b)| cached.plan(&workspace, a, b))
                .collect();
            assert_eq!(got, expected, "round {round} diverged from uncached run");
        }
        // Round 0 misses every query; rounds 1 and 2 hit every query.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 6);
    }

    /// A doomed start (free, but inside the planner's clearance margin)
    /// can never grow a tree.  Through the cache, a history containing one
    /// must still answer like the uncached planner on the miss round and
    /// on a hit round.  The recorded transition is `None`, and the snapshot
    /// after it carries the sampling stream past the doomed query.
    #[test]
    fn cached_rrt_star_reproduces_a_history_with_a_doomed_start() {
        let workspace = Workspace::city_block();
        let config = RrtStarConfig {
            seed: 9,
            ..RrtStarConfig::default()
        };
        // 0.45 m off the west face of the house at (13, 13).
        let doomed = Vec3::new(8.55, 13.0, 3.0);
        assert!(workspace.is_free_with_margin(doomed, 0.0));
        assert!(!workspace.is_free_with_margin(doomed, config.margin));
        let queries = [
            (Vec3::new(3.0, 3.0, 2.5), Vec3::new(24.0, 18.0, 3.0)),
            (doomed, Vec3::new(24.0, 18.0, 3.0)),
            (Vec3::new(6.0, 22.0, 4.0), Vec3::new(20.0, 6.0, 2.0)),
        ];
        let mut direct = RrtStar::new(config);
        let expected: Vec<_> = queries
            .iter()
            .map(|&(a, b)| direct.plan(&workspace, a, b))
            .collect();
        assert_eq!(expected[1], None);

        let cache = Arc::new(PlanCache::new());
        let identity = identity_key("rrt*", &[9, workspace_fingerprint(&workspace)]);
        for round in 0..2 {
            let mut cached =
                CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&cache));
            let got: Vec<_> = queries
                .iter()
                .map(|&(a, b)| cached.plan(&workspace, a, b))
                .collect();
            assert_eq!(got, expected, "round {round} diverged from uncached run");
        }
        // Round 0 misses every query; round 1 hits every query.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
        // The recorded doomed transition is `None`: a hit round answers
        // it with one more hit and no planner run.
        let mut cached =
            CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&cache));
        let _ = cached.plan(&workspace, queries[0].0, queries[0].1);
        let (hits, misses) = (cache.hits(), cache.misses());
        assert_eq!(
            cached.plan(&workspace, queries[1].0, queries[1].1),
            None,
            "the doomed query records no plan"
        );
        assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses));
    }

    /// Distinct histories must not alias: the same query asked first vs
    /// second reaches different chain states and may answer differently.
    #[test]
    fn history_dependent_answers_do_not_alias() {
        let workspace = Workspace::city_block();
        let config = RrtStarConfig {
            seed: 5,
            ..RrtStarConfig::default()
        };
        let (q1, q2) = (
            (Vec3::new(3.0, 3.0, 2.5), Vec3::new(24.0, 18.0, 3.0)),
            (Vec3::new(4.0, 20.0, 3.0), Vec3::new(22.0, 4.0, 2.5)),
        );
        let mut direct = RrtStar::new(config);
        let q2_second = {
            let _ = direct.plan(&workspace, q1.0, q1.1);
            direct.plan(&workspace, q2.0, q2.1)
        };
        let cache = Arc::new(PlanCache::new());
        let identity = identity_key("rrt*", &[5, workspace_fingerprint(&workspace)]);
        let make =
            || CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&cache));
        // Prime the cache with the q1-then-q2 history…
        let mut a = make();
        let _ = a.plan(&workspace, q1.0, q1.1);
        assert_eq!(a.plan(&workspace, q2.0, q2.1), q2_second);
        // …then ask q2 *first* on a fresh wrapper: a fresh planner must
        // answer, not the post-q1 snapshot.
        let mut b = make();
        let q2_first_cached = b.plan(&workspace, q2.0, q2.1);
        let q2_first_direct = RrtStar::new(config).plan(&workspace, q2.0, q2.1);
        assert_eq!(q2_first_cached, q2_first_direct);
    }

    #[test]
    fn reset_rewinds_to_the_chain_root() {
        let workspace = Workspace::city_block();
        let cache = Arc::new(PlanCache::new());
        let identity = identity_key("astar", &[workspace_fingerprint(&workspace)]);
        let mut cached =
            CachedPlanner::new(Box::new(GridAstar::default()), identity, Arc::clone(&cache));
        let (a, b) = (Vec3::new(3.0, 3.0, 2.5), Vec3::new(24.0, 18.0, 3.0));
        let first = cached.plan(&workspace, a, b);
        cached.reset();
        let again = cached.plan(&workspace, a, b);
        assert_eq!(first, again);
        assert_eq!(cache.misses(), 1, "the rewound query is a chain hit");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn different_identities_use_disjoint_chains() {
        let workspace = Workspace::city_block();
        let cache = Arc::new(PlanCache::new());
        let wf = workspace_fingerprint(&workspace);
        let (a, b) = (Vec3::new(3.0, 3.0, 2.5), Vec3::new(24.0, 18.0, 3.0));
        for seed in [1u64, 2] {
            let config = RrtStarConfig {
                seed,
                ..RrtStarConfig::default()
            };
            let mut cached = CachedPlanner::new(
                Box::new(RrtStar::new(config)),
                identity_key("rrt*", &[seed, wf]),
                Arc::clone(&cache),
            );
            let direct = RrtStar::new(config).plan(&workspace, a, b);
            assert_eq!(cached.plan(&workspace, a, b), direct, "seed {seed}");
        }
        assert_eq!(cache.misses(), 2, "distinct seeds must not share entries");
    }
}
