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

/// One chain transition in serializable form: everything another process
/// needs to answer the same query from the same history without running a
/// planner.  Snapshots are **not** shipped — an importer that misses past
/// imported transitions rebuilds the snapshot by replaying its own query
/// history from the chain root (see [`CachedPlanner`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Chain state the query was asked in.
    pub state: u64,
    /// The query key (workspace fingerprint + start + goal fold).
    pub query: u64,
    /// Chain state after the query.
    pub next: u64,
    /// The recorded answer (`None` = the planner found no path).
    pub plan: Option<Vec<Vec3>>,
}

impl PlanEntry {
    /// Renders the entry as one whitespace-separated ASCII line.  f64
    /// coordinates are written as their exact bit patterns in hex, so a
    /// round trip through text reproduces the plan bit-for-bit — the same
    /// requirement golden traces place on records.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!("{:016x} {:016x} {:016x}", self.state, self.query, self.next);
        match &self.plan {
            None => line.push_str(" none"),
            Some(points) => {
                let _ = write!(line, " {}", points.len());
                for p in points {
                    for c in [p.x, p.y, p.z] {
                        let _ = write!(line, " {:016x}", c.to_bits());
                    }
                }
            }
        }
        line
    }

    /// Parses a line produced by [`PlanEntry::to_text`].  Strict: any
    /// malformed, missing, or trailing token is an error, never a guess.
    pub fn parse(line: &str) -> Result<PlanEntry, String> {
        let mut words = line.split_whitespace();
        let mut key = |what: &str| -> Result<u64, String> {
            let w = words.next().ok_or_else(|| format!("missing {what}"))?;
            u64::from_str_radix(w, 16).map_err(|_| format!("bad {what} `{w}`"))
        };
        let state = key("state key")?;
        let query = key("query key")?;
        let next = key("successor key")?;
        let plan = match words.next() {
            None => return Err("missing plan payload".into()),
            Some("none") => None,
            Some(count) => {
                let count: usize = count
                    .parse()
                    .map_err(|_| format!("bad waypoint count `{count}`"))?;
                // `count` is untrusted: preallocate no more waypoints
                // than the rest of the line could hold (three words and
                // three separators each).
                let mut points = Vec::with_capacity(count.min(line.len() / 6));
                for i in 0..count {
                    let mut coord = |axis: &str| -> Result<f64, String> {
                        let w = words
                            .next()
                            .ok_or_else(|| format!("waypoint {i}: missing {axis}"))?;
                        u64::from_str_radix(w, 16)
                            .map(f64::from_bits)
                            .map_err(|_| format!("waypoint {i}: bad {axis} `{w}`"))
                    };
                    points.push(Vec3::new(coord("x")?, coord("y")?, coord("z")?));
                }
                Some(points)
            }
        };
        if let Some(extra) = words.next() {
            return Err(format!("trailing token `{extra}`"));
        }
        Ok(PlanEntry {
            state,
            query,
            next,
            plan,
        })
    }
}

struct PlanCacheInner {
    /// `(state, query) -> (recorded answer, successor state)`.
    transitions: HashMap<(StateKey, u64), Transition>,
    /// Planner snapshots, one per reached state.
    snapshots: HashMap<StateKey, Box<dyn SnapshotPlanner>>,
    /// Locally-computed transitions in insertion order, for incremental
    /// export.  Imported entries are deliberately absent so importers never
    /// echo entries back to their source.
    log: Vec<PlanEntry>,
}

/// A shared snapshot-chain planner-query cache (see the module docs).
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
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
                log: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
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

    /// Snapshot rebuilds: misses at an imported (snapshot-less) state that
    /// replayed the query history from the chain root.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Distinct planner states recorded across all chains.
    pub fn states(&self) -> usize {
        self.inner.lock().expect("plan cache lock").snapshots.len()
    }

    /// Total recorded transitions (local and imported).
    pub fn transitions(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache lock")
            .transitions
            .len()
    }

    /// Copies the locally-computed transitions recorded since a previous
    /// export cursor (0 for everything), returning the new cursor and the
    /// fresh entries.  Imported entries never appear here, so a worker that
    /// exports after every job ships each transition to the coordinator at
    /// most once and never echoes back what it was pre-seeded with.
    pub fn export_since(&self, cursor: usize) -> (usize, Vec<PlanEntry>) {
        let inner = self.inner.lock().expect("plan cache lock");
        let fresh = inner.log.get(cursor..).unwrap_or_default().to_vec();
        (inner.log.len(), fresh)
    }

    /// Imports transitions computed elsewhere, skipping any `(state, query)`
    /// pair already present (racing computations record identical results,
    /// so first-wins is safe).  Returns how many entries were new.
    pub fn import(&self, entries: &[PlanEntry]) -> usize {
        let mut inner = self.inner.lock().expect("plan cache lock");
        let mut fresh = 0;
        for e in entries {
            if let std::collections::hash_map::Entry::Vacant(slot) =
                inner.transitions.entry((e.state, e.query))
            {
                slot.insert((e.plan.clone(), e.next));
                fresh += 1;
            }
        }
        fresh
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
    /// Every query asked since the chain root, hits included.  When a miss
    /// lands on a state that has no snapshot (reachable only through
    /// *imported* transitions), the snapshot is rebuilt by replaying this
    /// history on a clone of the root snapshot.
    history: Vec<(Workspace, Vec3, Vec3)>,
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
            history: Vec::new(),
        }
    }

    /// Rebuilds the planner snapshot for the current state by replaying the
    /// query history on a clone of the chain-root snapshot.  Only reachable
    /// when the current state was entered through imported transitions
    /// (local misses always store a snapshot); the rebuilt snapshot is
    /// stored so later misses at this state skip the replay.
    fn rebuild_snapshot(&self) -> Box<dyn SnapshotPlanner> {
        self.cache.rebuilds.fetch_add(1, Ordering::Relaxed);
        let mut planner = {
            let inner = self.cache.inner.lock().expect("plan cache lock");
            inner
                .snapshots
                .get(&self.root)
                .expect("chain invariant: the root always has a snapshot")
                .clone_box()
        };
        for (workspace, start, goal) in &self.history {
            let _ = planner.plan(workspace, *start, *goal);
        }
        let mut inner = self.cache.inner.lock().expect("plan cache lock");
        inner
            .snapshots
            .entry(self.state)
            .or_insert_with(|| planner.clone_box());
        planner
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
        let snapshot = {
            let inner = self.cache.inner.lock().expect("plan cache lock");
            if let Some((plan, next)) = inner.transitions.get(&(self.state, query)) {
                let plan = plan.clone();
                self.state = *next;
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.history.push((workspace.clone(), start, goal));
                return plan;
            }
            inner.snapshots.get(&self.state).map(|s| s.clone_box())
        };
        // Miss: plan on a clone of the snapshot at this history, with the
        // lock released — other instances keep hitting concurrently.  A
        // state entered through imported transitions has no snapshot yet;
        // rebuild one by replaying the history from the root.
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let mut planner = snapshot.unwrap_or_else(|| self.rebuild_snapshot());
        let plan = planner.plan(workspace, start, goal);
        let next = KeyHasher::new().u64(self.state).u64(query).finish();
        {
            let mut inner = self.cache.inner.lock().expect("plan cache lock");
            // A racing miss stores the identical result first: keep it.
            if let std::collections::hash_map::Entry::Vacant(slot) =
                inner.transitions.entry((self.state, query))
            {
                slot.insert((plan.clone(), next));
                inner.log.push(PlanEntry {
                    state: self.state,
                    query,
                    next,
                    plan: plan.clone(),
                });
            }
            inner.snapshots.entry(next).or_insert(planner);
        }
        self.history.push((workspace.clone(), start, goal));
        self.state = next;
        plan
    }

    fn reset(&mut self) {
        // A reset planner is exactly a fresh planner: rewind to the root.
        self.state = self.root;
        self.history.clear();
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
        let (_, entries) = cache.export_since(0);
        assert_eq!(entries[1].plan, None, "the doomed query records no plan");
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
    fn plan_entry_text_round_trips_bit_for_bit() {
        let awkward = Vec3::new(0.1 + 0.2, -0.0, f64::MIN_POSITIVE);
        for entry in [
            PlanEntry {
                state: 0xdead_beef_0102_0304,
                query: 7,
                next: u64::MAX,
                plan: Some(vec![awkward, Vec3::new(1.5, -2.25, 3e300)]),
            },
            PlanEntry {
                state: 0,
                query: 0,
                next: 1,
                plan: None,
            },
        ] {
            let parsed = PlanEntry::parse(&entry.to_text()).expect("round trip parses");
            assert_eq!(parsed, entry);
            assert_eq!(
                parsed.plan.as_ref().map(|p| p
                    .iter()
                    .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                    .collect::<Vec<_>>()),
                entry.plan.as_ref().map(|p| p
                    .iter()
                    .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                    .collect::<Vec<_>>()),
                "coordinates must survive as exact bit patterns"
            );
        }
        for bad in [
            "",
            "0102",
            "01 02 03",
            "01 02 03 2 aa bb cc",
            "01 02 03 none extra",
            "zz 02 03 none",
        ] {
            assert!(PlanEntry::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    /// The waypoint count comes off the wire: a huge one must be a parse
    /// error, not a capacity-overflow panic or a terabyte allocation.
    #[test]
    fn an_untrusted_waypoint_count_is_an_error_not_an_allocation() {
        for count in [u64::MAX, 1 << 40] {
            let line = format!("0 0 0 {count}");
            assert!(PlanEntry::parse(&line).is_err(), "`{line}` must not parse");
        }
    }

    /// The cross-process story: a cache primed in one process is exported,
    /// imported elsewhere, and answers the same history from hits; a miss
    /// *past* the imported prefix rebuilds the missing snapshot by replay
    /// and still matches the uncached planner exactly.
    #[test]
    fn imported_entries_hit_and_rebuild_preserves_answers() {
        let workspace = Workspace::city_block();
        let config = RrtStarConfig {
            seed: 11,
            ..RrtStarConfig::default()
        };
        let mut direct = RrtStar::new(config);
        let expected: Vec<_> = query_sequence()
            .into_iter()
            .map(|(a, b)| direct.plan(&workspace, a, b))
            .collect();
        let identity = identity_key("rrt*", &[11, workspace_fingerprint(&workspace)]);

        // Prime a source cache with the full history and export it.
        let source = Arc::new(PlanCache::new());
        let mut primer = CachedPlanner::new(
            Box::new(RrtStar::new(config)),
            identity,
            Arc::clone(&source),
        );
        for (a, b) in query_sequence() {
            let _ = primer.plan(&workspace, a, b);
        }
        let (cursor, entries) = source.export_since(0);
        assert_eq!(cursor, 3);
        assert_eq!(entries.len(), 3);
        let (cursor2, rest) = source.export_since(cursor);
        assert_eq!((cursor2, rest.len()), (3, 0), "nothing new since cursor");

        // Ship only the first two transitions (a partial warm-up), through
        // the text form as the wire would.
        let shipped: Vec<_> = entries[..2]
            .iter()
            .map(|e| PlanEntry::parse(&e.to_text()).expect("wire round trip"))
            .collect();
        let dest = Arc::new(PlanCache::new());
        assert_eq!(dest.import(&shipped), 2);
        assert_eq!(dest.import(&shipped), 0, "re-import is idempotent");

        let mut cached =
            CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&dest));
        let got: Vec<_> = query_sequence()
            .into_iter()
            .map(|(a, b)| cached.plan(&workspace, a, b))
            .collect();
        assert_eq!(got, expected, "imported prefix + rebuilt miss diverged");
        assert_eq!(
            dest.hits(),
            2,
            "the shipped prefix answers without planning"
        );
        assert_eq!(dest.misses(), 1);
        assert_eq!(
            dest.rebuilds(),
            1,
            "the miss past the imported prefix replays from the root"
        );
        // Imported entries are not re-exported.
        let (_, fresh) = dest.export_since(0);
        assert_eq!(fresh.len(), 1, "only the locally-computed miss exports");

        // A second pass is now pure hits — the rebuilt snapshot stuck.
        let mut again =
            CachedPlanner::new(Box::new(RrtStar::new(config)), identity, Arc::clone(&dest));
        let got: Vec<_> = query_sequence()
            .into_iter()
            .map(|(a, b)| again.plan(&workspace, a, b))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(dest.misses(), 1, "no new planner work on the warm pass");
        assert_eq!(dest.rebuilds(), 1);
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
