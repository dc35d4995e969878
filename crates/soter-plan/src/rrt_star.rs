//! RRT* sampling-based motion planning (OMPL substitute).
//!
//! The paper implements its surveillance motion planner with the RRT*
//! algorithm from OMPL.  This is a from-scratch RRT* over the
//! [`Workspace`]: incremental sampling with goal bias, steering with a
//! bounded step, choose-parent and rewire within a neighbourhood radius,
//! and path extraction followed by shortcut smoothing.  It is used as the
//! *untrusted advanced planner* of the planner RTA module (unmodified it is
//! quite reliable; its fault-injected variant lives in [`crate::buggy`]).

use crate::traits::MotionPlanner;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// RRT* configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrtStarConfig {
    /// Maximum number of sampling iterations per query.
    pub max_iterations: usize,
    /// Maximum length of a tree edge (metres).
    pub step_size: f64,
    /// Probability of sampling the goal instead of a random point.
    pub goal_bias: f64,
    /// Radius within which parents are reconsidered and rewiring happens.
    pub neighbor_radius: f64,
    /// Distance at which the goal counts as reached.
    pub goal_tolerance: f64,
    /// Clearance margin used during collision checks (metres).
    pub margin: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RrtStarConfig {
    fn default() -> Self {
        RrtStarConfig {
            max_iterations: 4000,
            step_size: 3.0,
            goal_bias: 0.1,
            neighbor_radius: 6.0,
            goal_tolerance: 1.0,
            margin: 0.3,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    position: Vec3,
    parent: Option<usize>,
    cost: f64,
}

/// A uniform bucket grid over the workspace bounds, indexing tree nodes by
/// position for the planner's two hot queries.
///
/// * `nearest` reproduces a linear scan over squared distances, tie-break
///   included: it returns the lexicographically minimal `(d², index)` pair
///   (a linear scan's first-minimum).  Squared distances order identically
///   to true distances in exact arithmetic; versus the historical
///   `fl(sqrt(d²))`-based scan they can differ only when two distances
///   collide within one sqrt ulp — the pinned plan hash and golden suite
///   verify that no shipped query is affected.
/// * `within` returns exactly the linear scan's neighbour *set*, each node
///   paired with its squared distance, in bucket order.  The order carries
///   no meaning, and callers must not depend on it: [`choose_parent`]
///   breaks ties by index explicitly and [`rewire`] is order-free.
#[derive(Debug, Clone)]
struct BucketGrid {
    min: Vec3,
    cell: f64,
    dims: [i64; 3],
    /// Entries carry the position inline so bucket scans read densely
    /// instead of chasing indices through the tree array.
    buckets: Vec<Vec<(u32, Vec3)>>,
}

impl BucketGrid {
    fn new(min: Vec3, max: Vec3, cell: f64) -> Self {
        assert!(cell > 0.0, "bucket cell size must be positive");
        let dim = |lo: f64, hi: f64| (((hi - lo) / cell).floor() as i64 + 1).max(1);
        let dims = [dim(min.x, max.x), dim(min.y, max.y), dim(min.z, max.z)];
        BucketGrid {
            min,
            cell,
            dims,
            buckets: vec![Vec::new(); (dims[0] * dims[1] * dims[2]) as usize],
        }
    }

    fn coords(&self, p: Vec3) -> [i64; 3] {
        let clamp =
            |v: f64, lo: f64, n: i64| (((v - lo) / self.cell).floor() as i64).clamp(0, n - 1);
        [
            clamp(p.x, self.min.x, self.dims[0]),
            clamp(p.y, self.min.y, self.dims[1]),
            clamp(p.z, self.min.z, self.dims[2]),
        ]
    }

    fn bucket_index(&self, c: [i64; 3]) -> usize {
        ((c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]) as usize
    }

    fn insert(&mut self, p: Vec3, index: u32) {
        let b = self.bucket_index(self.coords(p));
        self.buckets[b].push((index, p));
    }

    /// The index of the node nearest to `p` (first index on exact
    /// squared-distance ties, like a linear scan; see the type-level note
    /// on squared-distance comparisons).  Rings of buckets are visited
    /// outward from `p`'s bucket.  Within a ring, whole slabs, columns and
    /// buckets whose squared gap to `p` exceeds the best distance so far
    /// are skipped; the gap is slacked against the rounding of the
    /// bucket-corner arithmetic, so a skipped bucket's nodes all sit
    /// strictly farther away and skipping never changes the argmin.
    fn nearest(&self, p: Vec3) -> usize {
        let c = self.coords(p);
        let max_ring = self.dims.iter().copied().max().unwrap_or(1);
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        let beyond = |gap2: f64, best_d2: f64| gap2 * (1.0 - 1e-9) > best_d2;
        for ring in 0..=max_ring {
            // Ring-level pruning: reaching a ring-`ring` bucket crosses at
            // least `ring - 1` whole cell layers (conservatively slacked).
            let bound = ((ring - 1).max(0) as f64 * self.cell) * (1.0 - 1e-12);
            if bound > 0.0 && bound * bound > best_d2 {
                break;
            }
            let (x0, x1) = (c[0] - ring, c[0] + ring);
            let (y0, y1) = (c[1] - ring, c[1] + ring);
            let (z0, z1) = (c[2] - ring, c[2] + ring);
            for x in x0.max(0)..=x1.min(self.dims[0] - 1) {
                let gx = self.axis_gap(p.x, self.min.x, x, self.dims[0]);
                let gx2 = gx * gx;
                if beyond(gx2, best_d2) {
                    continue;
                }
                let x_on_ring = x == x0 || x == x1;
                for y in y0.max(0)..=y1.min(self.dims[1] - 1) {
                    let gy = self.axis_gap(p.y, self.min.y, y, self.dims[1]);
                    let gxy2 = gx2 + gy * gy;
                    if beyond(gxy2, best_d2) {
                        continue;
                    }
                    let xy_on_ring = x_on_ring || y == y0 || y == y1;
                    for z in z0.max(0)..=z1.min(self.dims[2] - 1) {
                        if !(xy_on_ring || z == z0 || z == z1) {
                            continue;
                        }
                        let gz = self.axis_gap(p.z, self.min.z, z, self.dims[2]);
                        if beyond(gxy2 + gz * gz, best_d2) {
                            continue;
                        }
                        for &(i, pos) in &self.buckets[self.bucket_index([x, y, z])] {
                            let d2 = (pos - p).norm_squared();
                            if d2 < best_d2 || (d2 == best_d2 && (i as usize) < best) {
                                best_d2 = d2;
                                best = i as usize;
                            }
                        }
                    }
                }
            }
        }
        best
    }

    /// The conservative gap between coordinate `v` and bucket slab `ci`
    /// along one axis (0 when `v` falls inside the slab; boundary slabs
    /// absorb clamped coordinates, so they extend to infinity outward).
    fn axis_gap(&self, v: f64, lo: f64, ci: i64, n: i64) -> f64 {
        let b_lo = if ci == 0 {
            f64::NEG_INFINITY
        } else {
            lo + ci as f64 * self.cell
        };
        let b_hi = if ci == n - 1 {
            f64::INFINITY
        } else {
            lo + (ci + 1) as f64 * self.cell
        };
        (b_lo - v).max(v - b_hi).max(0.0)
    }

    /// Collects into `out` every node within `radius` of `p` as an
    /// `(index, d²)` pair, in bucket order (see the type-level note: no
    /// index order is promised).  `d²` is `(position - p).norm_squared()`,
    /// so `d².sqrt()` is bit-identical to `position.distance(&p)`.  Slabs,
    /// columns and buckets are pruned on all three axes by their
    /// conservative squared gap to `p` — a pruned bucket's points all sit
    /// strictly beyond `radius`, so the result set is exactly the linear
    /// scan's.
    fn within(&self, p: Vec3, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let c = self.coords(p);
        let r2 = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        let range = |a: usize| (c[a] - reach).max(0)..=(c[a] + reach).min(self.dims[a] - 1);
        let beyond = |gap2: f64| gap2 * (1.0 - 1e-9) > r2;
        for x in range(0) {
            let gx = self.axis_gap(p.x, self.min.x, x, self.dims[0]);
            let gx2 = gx * gx;
            if beyond(gx2) {
                continue;
            }
            for y in range(1) {
                let gy = self.axis_gap(p.y, self.min.y, y, self.dims[1]);
                let gxy2 = gx2 + gy * gy;
                if beyond(gxy2) {
                    continue;
                }
                for z in range(2) {
                    let gz = self.axis_gap(p.z, self.min.z, z, self.dims[2]);
                    if beyond(gxy2 + gz * gz) {
                        continue;
                    }
                    for &(i, pos) in &self.buckets[self.bucket_index([x, y, z])] {
                        let d2 = (pos - p).norm_squared();
                        // Branch-free filter: push, then drop the entry
                        // again when it lies beyond the radius.  About half
                        // the scanned nodes do, so a branch mispredicts.
                        out.push((i as usize, d2));
                        let kept = out.len() - usize::from(d2 > r2);
                        out.truncate(kept);
                    }
                }
            }
        }
    }
}

/// Chooses the parent of a new node at `new_pos` from its neighbourhood
/// (`(index, d²)` pairs from [`BucketGrid::within`], in any order) and
/// returns `(parent, cost)`.  The parent is the minimal `(cost, index)`
/// pair among neighbours that are strictly cheaper than going through
/// `nearest` and whose edge to `new_pos` is free; `nearest` keeps cost
/// ties.  That is exactly what a scan in ascending index order with a
/// strict `<` picks, so the result does not depend on the neighbour order.
fn choose_parent(
    tree: &[TreeNode],
    neighbors: &[(usize, f64)],
    nearest: usize,
    new_pos: Vec3,
    edge_free: impl Fn(usize, Vec3, Vec3) -> bool,
) -> (usize, f64) {
    let mut parent = nearest;
    let mut cost = tree[nearest].cost + tree[nearest].position.distance(&new_pos);
    for &(i, d2) in neighbors {
        // Distances are non-negative, so a neighbour whose cost alone
        // exceeds the incumbent can never win — skip it before paying for
        // the square root.
        if tree[i].cost > cost {
            continue;
        }
        let candidate = tree[i].cost + d2.sqrt();
        // On an exact cost tie the lower index wins, except against
        // `nearest`, which keeps ties (`parent != nearest` means the
        // incumbent is a neighbour that already beat `nearest`).
        let wins = candidate < cost || (candidate == cost && parent != nearest && i < parent);
        if wins && edge_free(i, tree[i].position, new_pos) {
            parent = i;
            cost = candidate;
        }
    }
    (parent, cost)
}

/// Rewires every neighbour of the new node `new_index` through it when
/// that is cheaper by more than 1e-9 and the edge is free.  Each test reads
/// only the neighbour's own cost and the new node's, and each rewire
/// writes only that neighbour, so the neighbour order does not matter.
fn rewire(
    tree: &mut [TreeNode],
    neighbors: &[(usize, f64)],
    new_index: usize,
    edge_free: impl Fn(usize, Vec3, Vec3) -> bool,
) {
    let (new_pos, cost) = (tree[new_index].position, tree[new_index].cost);
    for &(i, d2) in neighbors {
        // Rewiring needs `cost + d + 1e-9 < tree[i].cost`, impossible once
        // the new node's cost alone reaches the neighbour's.
        if cost + 1e-9 >= tree[i].cost {
            continue;
        }
        let through_new = cost + d2.sqrt();
        if through_new + 1e-9 < tree[i].cost && edge_free(i, new_pos, tree[i].position) {
            tree[i].parent = Some(new_index);
            tree[i].cost = through_new;
        }
    }
}

/// The RRT* planner.
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtStarConfig,
    rng: SmallRng,
    /// Neighbourhood scratch (`(index, d²)` pairs), reused across
    /// iterations so the inner loop allocates nothing (tree growth aside).
    neighbor_scratch: Vec<(usize, f64)>,
}

impl Default for RrtStar {
    fn default() -> Self {
        RrtStar::new(RrtStarConfig::default())
    }
}

impl RrtStar {
    /// Creates an RRT* planner with the given configuration.
    pub fn new(config: RrtStarConfig) -> Self {
        RrtStar {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            neighbor_scratch: Vec::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> &RrtStarConfig {
        &self.config
    }

    fn sample(&mut self, workspace: &Workspace, goal: Vec3) -> Vec3 {
        if self.rng.random::<f64>() < self.config.goal_bias {
            return goal;
        }
        let b = workspace.bounds();
        Vec3::new(
            self.rng.random_range(b.min.x..=b.max.x),
            self.rng.random_range(b.min.y..=b.max.y),
            self.rng.random_range(b.min.z..=b.max.z),
        )
    }

    fn steer(&self, from: Vec3, toward: Vec3) -> Vec3 {
        let d = from.distance(&toward);
        if d <= self.config.step_size {
            toward
        } else {
            from + (toward - from) * (self.config.step_size / d)
        }
    }

    /// Extracts and shortcut-smooths the path ending at `goal_index`.
    fn extract_path(
        &self,
        workspace: &Workspace,
        tree: &[TreeNode],
        goal_index: usize,
    ) -> Vec<Vec3> {
        let mut path = Vec::new();
        let mut idx = Some(goal_index);
        while let Some(i) = idx {
            path.push(tree[i].position);
            idx = tree[i].parent;
        }
        path.reverse();
        self.shortcut(workspace, path)
    }

    /// Greedy shortcutting: repeatedly skip intermediate waypoints whenever
    /// the direct segment is free.
    fn shortcut(&self, workspace: &Workspace, path: Vec<Vec3>) -> Vec<Vec3> {
        if path.len() <= 2 {
            return path;
        }
        let mut out = vec![path[0]];
        let mut i = 0usize;
        while i + 1 < path.len() {
            let mut j = path.len() - 1;
            while j > i + 1 {
                if workspace.segment_is_free_with_margin(path[i], path[j], self.config.margin) {
                    break;
                }
                j -= 1;
            }
            out.push(path[j]);
            i = j;
        }
        out
    }
}

impl MotionPlanner for RrtStar {
    fn name(&self) -> &str {
        "rrt-star"
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        let cfg = self.config;
        if !workspace.is_free_with_margin(start, 0.0) || !workspace.is_free_with_margin(goal, 0.0) {
            return None;
        }
        let checker = workspace.clearance_checker(cfg.margin);
        // Trivial case: straight shot.
        if checker.segment_free(start, goal) {
            return Some(vec![start, goal]);
        }
        // Whether start/goal are free at the *query margin* (the entry
        // check above uses margin 0): every segment touching them must
        // still include that endpoint condition, as the full segment check
        // would.
        let start_margin_ok = checker.point_free(start);
        let goal_margin_ok = checker.point_free(goal);
        let mut tree = vec![TreeNode {
            position: start,
            parent: None,
            cost: 0.0,
        }];
        let b = workspace.bounds();
        // Radius-sized cells won the layout shootout: the 3x3x3
        // neighbourhood block needs no ring logic, and finer cells pay more
        // in bucket-iteration overhead than they save in distance tests.
        // The cell size only affects performance, never results (queries
        // filter by the true radius), so degenerate configurations —
        // neighbor_radius of zero, or tiny radii that would explode the
        // bucket count — fall back to a 1 m floor.
        // Every non-start node inserted below is point-free at the query
        // margin (the `edge_free` precondition).
        let mut grid = BucketGrid::new(b.min, b.max, cfg.neighbor_radius.max(1.0));
        grid.insert(start, 0);
        // Full segment freeness for a tree edge: endpoint freeness (only
        // node 0 can fail it, see above) plus obstacle clearance.
        let edge_free =
            |i: usize, a: Vec3, b: Vec3| (i != 0 || start_margin_ok) && checker.segment_clear(a, b);
        let mut best_goal: Option<(usize, f64)> = None;
        for _ in 0..cfg.max_iterations {
            let sample = self.sample(workspace, goal);
            let nearest = grid.nearest(sample);
            let new_pos = self.steer(tree[nearest].position, sample);
            if !checker.point_free(new_pos) {
                continue;
            }
            if !edge_free(nearest, tree[nearest].position, new_pos) {
                continue;
            }
            let mut neighbors = std::mem::take(&mut self.neighbor_scratch);
            grid.within(new_pos, cfg.neighbor_radius, &mut neighbors);
            let (parent, cost) = choose_parent(&tree, &neighbors, nearest, new_pos, edge_free);
            let new_index = tree.len();
            tree.push(TreeNode {
                position: new_pos,
                parent: Some(parent),
                cost,
            });
            grid.insert(new_pos, new_index as u32);
            rewire(&mut tree, &neighbors, new_index, edge_free);
            self.neighbor_scratch = neighbors;
            // Track the best connection to the goal (distance tests first:
            // most nodes are too far for the segment check to matter).
            let goal_gap = new_pos.distance(&goal);
            if goal_gap <= cfg.goal_tolerance
                || goal_margin_ok
                    && goal_gap <= cfg.step_size
                    && checker.segment_clear(new_pos, goal)
            {
                let goal_cost = cost + new_pos.distance(&goal);
                if best_goal.map(|(_, c)| goal_cost < c).unwrap_or(true) {
                    best_goal = Some((new_index, goal_cost));
                }
            }
        }
        let (goal_parent, _) = best_goal?;
        let mut path = self.extract_path(workspace, &tree, goal_parent);
        if path
            .last()
            .map(|p| p.distance(&goal) > 1e-9)
            .unwrap_or(true)
        {
            path.push(goal);
        }
        Some(path)
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.config.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_plan;

    /// The bucket grid must reproduce the plain linear scans *exactly* on
    /// random point clouds (including stacked duplicate positions, the
    /// worst case for ties, and queries outside the bounds, which clamp):
    /// `nearest` with its argmin tie-break, `within` at radii below, at
    /// and above the cell size as a set whose every squared distance is
    /// bit-equal to the scan's.
    #[test]
    fn bucket_grid_matches_linear_scans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let (lo, hi) = (Vec3::new(0.0, 0.0, 0.0), Vec3::new(50.0, 50.0, 12.0));
        let mut tree: Vec<TreeNode> = Vec::new();
        let mut grid = BucketGrid::new(lo, hi, 6.0);
        let mut scratch = Vec::new();
        for round in 0..600 {
            let rand_point = |rng: &mut SmallRng| {
                Vec3::new(
                    rng.random_range(lo.x..=hi.x),
                    rng.random_range(lo.y..=hi.y),
                    rng.random_range(lo.z..=hi.z),
                )
            };
            let p = if round % 7 == 0 && !tree.is_empty() {
                // Exact duplicate of an existing node: forces distance ties.
                tree[round % tree.len()].position
            } else {
                rand_point(&mut rng)
            };
            grid.insert(p, tree.len() as u32);
            tree.push(TreeNode {
                position: p,
                parent: None,
                cost: 0.0,
            });
            let q = match round % 5 {
                0 => p,
                3 => rand_point(&mut rng) * 1.3 - Vec3::new(5.0, 5.0, 2.0),
                _ => rand_point(&mut rng),
            };
            // Reference: the original linear scans.
            let mut naive_best = 0;
            let mut naive_d = f64::INFINITY;
            for (i, n) in tree.iter().enumerate() {
                let d = n.position.distance(&q);
                if d < naive_d {
                    naive_d = d;
                    naive_best = i;
                }
            }
            assert_eq!(grid.nearest(q), naive_best, "round {round}");
            for radius in [2.5, 6.0, 13.0] {
                let naive_within: Vec<(usize, u64)> = tree
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.position.distance(&q) <= radius)
                    .map(|(i, n)| (i, (n.position - q).norm_squared().to_bits()))
                    .collect();
                grid.within(q, radius, &mut scratch);
                for &(i, d2) in &scratch {
                    assert_eq!(
                        d2.sqrt().to_bits(),
                        tree[i].position.distance(&q).to_bits(),
                        "round {round}: d².sqrt() must be the scan's distance"
                    );
                }
                let mut set: Vec<(usize, u64)> =
                    scratch.iter().map(|&(i, d2)| (i, d2.to_bits())).collect();
                set.sort_unstable();
                assert_eq!(set, naive_within, "round {round}, radius {radius}");
            }
        }
    }

    /// The old choose-parent and rewire loops, verbatim: neighbour indices
    /// in ascending order, distances through `Vec3::distance`.  Returns
    /// the chosen `(parent, cost)` and leaves the rewired tree in `tree`.
    fn ascending_reference(
        tree: &mut Vec<TreeNode>,
        mut neighbors: Vec<usize>,
        nearest: usize,
        new_pos: Vec3,
        edge_free: impl Fn(usize, Vec3, Vec3) -> bool,
    ) -> (usize, f64) {
        neighbors.sort_unstable();
        let mut parent = nearest;
        let mut cost = tree[nearest].cost + tree[nearest].position.distance(&new_pos);
        for &i in &neighbors {
            if tree[i].cost >= cost {
                continue;
            }
            let candidate_cost = tree[i].cost + tree[i].position.distance(&new_pos);
            if candidate_cost < cost && edge_free(i, tree[i].position, new_pos) {
                parent = i;
                cost = candidate_cost;
            }
        }
        let new_index = tree.len();
        tree.push(TreeNode {
            position: new_pos,
            parent: Some(parent),
            cost,
        });
        for &i in &neighbors {
            if cost + 1e-9 >= tree[i].cost {
                continue;
            }
            let through_new = cost + new_pos.distance(&tree[i].position);
            if through_new + 1e-9 < tree[i].cost && edge_free(i, new_pos, tree[i].position) {
                tree[i].parent = Some(new_index);
                tree[i].cost = through_new;
            }
        }
        (parent, cost)
    }

    /// The order-free choose-parent and rewire pick the same parent, cost
    /// bit for bit, and rewire the same nodes as the ascending-order loops
    /// they replaced, whatever order the neighbourhood arrives in.  The
    /// clouds sit on an integer lattice around an integer `new_pos` with
    /// integer costs, so exact candidate-cost ties are everywhere (e.g.
    /// offsets (3, 4, 0) and (0, 0, 5) are both 5 m away); they stack
    /// duplicate positions and always hold one node exactly at `new_pos`.
    #[test]
    fn order_free_choose_parent_and_rewire_match_ascending_loops() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let radius = 6.0;
        let (lo, hi) = (Vec3::new(0.0, 0.0, 0.0), Vec3::new(20.0, 20.0, 12.0));
        let (mut index_broke_tie, mut nearest_kept_tie, mut rewired) = (0usize, 0usize, 0usize);
        for round in 0..400u64 {
            let new_pos = Vec3::new(
                rng.random_range(4..=16) as f64,
                rng.random_range(4..=16) as f64,
                rng.random_range(3..=9) as f64,
            );
            let mut tree: Vec<TreeNode> = Vec::new();
            for k in 0..40usize {
                let position = if k == 5 {
                    new_pos
                } else if k % 6 == 0 && k > 0 {
                    tree[rng.random_range(0..k)].position
                } else {
                    new_pos
                        + Vec3::new(
                            rng.random_range(-4..=4) as f64,
                            rng.random_range(-4..=4) as f64,
                            rng.random_range(-3..=3) as f64,
                        )
                };
                tree.push(TreeNode {
                    position,
                    parent: None,
                    cost: rng.random_range(0..=12) as f64,
                });
            }
            // A pure, index-keyed obstacle oracle: some edges are blocked.
            let salt = round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let edge_free =
                |i: usize, _: Vec3, _: Vec3| !(salt ^ (i as u64 * 0x2545_f491)).is_multiple_of(7);
            let mut grid = BucketGrid::new(lo, hi, radius);
            for (i, n) in tree.iter().enumerate() {
                grid.insert(n.position, i as u32);
            }
            let mut bucket_order = Vec::new();
            grid.within(new_pos, radius, &mut bucket_order);
            let mut reversed = bucket_order.clone();
            reversed.reverse();
            let indices: Vec<usize> = bucket_order.iter().map(|&(i, _)| i).collect();
            for nearest in [grid.nearest(new_pos), rng.random_range(0..tree.len())] {
                let mut reference = tree.clone();
                let (want_parent, want_cost) = ascending_reference(
                    &mut reference,
                    indices.clone(),
                    nearest,
                    new_pos,
                    edge_free,
                );
                for neighbors in [&bucket_order, &reversed] {
                    let mut got = tree.clone();
                    let (parent, cost) =
                        choose_parent(&got, neighbors, nearest, new_pos, edge_free);
                    assert_eq!(
                        (parent, cost.to_bits()),
                        (want_parent, want_cost.to_bits()),
                        "round {round}: choose-parent diverged"
                    );
                    let new_index = got.len();
                    got.push(TreeNode {
                        position: new_pos,
                        parent: Some(parent),
                        cost,
                    });
                    rewire(&mut got, neighbors, new_index, edge_free);
                    for (a, b) in got.iter().zip(&reference) {
                        assert_eq!(
                            (a.parent, a.cost.to_bits()),
                            (b.parent, b.cost.to_bits()),
                            "round {round}: rewire diverged"
                        );
                    }
                }
                // Coverage: an edge-free rival with exactly the winning
                // cost means a tie-break decided the parent.
                let tied = bucket_order.iter().any(|&(i, d2)| {
                    i != want_parent
                        && tree[i].cost + d2.sqrt() == want_cost
                        && edge_free(i, tree[i].position, new_pos)
                });
                if tied && want_parent == nearest {
                    nearest_kept_tie += 1;
                } else if tied {
                    index_broke_tie += 1;
                }
                rewired += reference
                    .iter()
                    .filter(|n| n.parent == Some(tree.len()))
                    .count();
            }
        }
        assert!(
            index_broke_tie > 0,
            "the clouds must exercise index tie-breaks"
        );
        assert!(
            nearest_kept_tie > 0,
            "the clouds must exercise ties with nearest"
        );
        assert!(rewired > 0, "the clouds must exercise rewiring");
    }

    /// The dense 5×5-pillar workspace of the falsifier benchmark mission:
    /// 4 m pillars on a 10 m pitch, every corner-to-corner leg threading
    /// the grid.
    fn dense_pillars() -> Workspace {
        use soter_sim::geometry::Aabb;
        let mut obstacles = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let c = Vec3::new(9.0 + i as f64 * 10.0, 9.0 + j as f64 * 10.0, 5.0);
                obstacles.push(Aabb::new(
                    c - Vec3::new(2.0, 2.0, 5.0),
                    c + Vec3::new(2.0, 2.0, 5.0),
                ));
            }
        }
        let bounds = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(58.0, 58.0, 12.0));
        Workspace::new(bounds, obstacles, 0.3)
    }

    /// Every RRT* plan is pinned bit for bit: an FNV-1a hash over the
    /// exact f64 bit patterns of every plan a fixed query set produces,
    /// with one planner per workspace and seed so the RNG stream carries
    /// across queries (a missing plan hashes as a marker byte).  The
    /// literal was computed on the sorted-scan implementation the
    /// order-free neighbourhood replaced, so a change to a single waypoint
    /// coordinate fails here.
    #[test]
    fn plans_are_pinned_bit_for_bit() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let corners = |lo: f64, hi: f64, z: f64| {
            vec![
                Vec3::new(lo, lo, z),
                Vec3::new(hi, lo, z),
                Vec3::new(hi, hi, z),
                Vec3::new(lo, hi, z),
            ]
        };
        let mut dense_points = corners(3.0, 55.0, 5.0);
        dense_points.push(Vec3::new(24.0, 34.0, 2.5));
        let cases = [
            (
                Workspace::city_block(),
                Workspace::city_block().surveillance_points().to_vec(),
            ),
            (Workspace::corner_cut_course(), corners(3.0, 17.0, 5.0)),
            (dense_pillars(), dense_points),
        ];
        for (workspace, points) in &cases {
            for seed in [0u64, 7] {
                let mut planner = RrtStar::new(RrtStarConfig {
                    seed,
                    ..RrtStarConfig::default()
                });
                for (i, a) in points.iter().enumerate() {
                    for b in &points[i + 1..] {
                        match planner.plan(workspace, *a, *b) {
                            Some(plan) => {
                                feed(&(plan.len() as u64).to_le_bytes());
                                for p in plan {
                                    for v in [p.x, p.y, p.z] {
                                        feed(&v.to_bits().to_le_bytes());
                                    }
                                }
                            }
                            None => feed(&[0xff]),
                        }
                    }
                }
            }
        }
        assert_eq!(h, 17_646_880_782_261_002_064);
    }

    #[test]
    fn plans_straight_line_in_open_space() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let plan = p
            .plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(3.0, 40.0, 2.5))
            .expect("open-street query must succeed");
        assert_eq!(
            plan.len(),
            2,
            "straight shot should not need intermediate waypoints"
        );
    }

    #[test]
    fn plans_around_buildings() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let start = Vec3::new(3.0, 13.0, 2.5);
        let goal = Vec3::new(47.0, 21.0, 2.5);
        let plan = p
            .plan(&w, start, goal)
            .expect("cross-block query must succeed");
        assert!(
            plan.len() >= 3,
            "the straight line is blocked, so waypoints are needed"
        );
        assert_eq!(plan[0], start);
        assert_eq!(*plan.last().unwrap(), goal);
        assert!(
            validate_plan(&w, &plan, 0.0).is_ok(),
            "RRT* plans must be collision-free"
        );
    }

    #[test]
    fn all_surveillance_pairs_are_plannable() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let pts = w.surveillance_points().to_vec();
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                let plan = p
                    .plan(&w, *a, *b)
                    .unwrap_or_else(|| panic!("no plan {a} -> {b}"));
                assert!(
                    validate_plan(&w, &plan, 0.0).is_ok(),
                    "colliding plan {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn unreachable_queries_return_none() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        // Goal inside a building.
        assert!(p
            .plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(13.0, 13.0, 2.0))
            .is_none());
        // Start outside the workspace.
        assert!(p
            .plan(&w, Vec3::new(-5.0, 3.0, 2.5), Vec3::new(3.0, 3.0, 2.5))
            .is_none());
    }

    #[test]
    fn zero_neighbor_radius_degrades_gracefully() {
        // A degenerate but representable configuration: no rewiring
        // neighbourhood at all.  The planner must still answer instead of
        // panicking on the grid cell size.
        let w = Workspace::city_block();
        let mut p = RrtStar::new(RrtStarConfig {
            neighbor_radius: 0.0,
            ..RrtStarConfig::default()
        });
        let plan = p
            .plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
            .expect("plain RRT (no rewiring) still finds the detour");
        assert!(validate_plan(&w, &plan, 0.0).is_ok());
    }

    #[test]
    fn planning_is_deterministic_per_seed() {
        let w = Workspace::city_block();
        let run = |seed| {
            let mut p = RrtStar::new(RrtStarConfig {
                seed,
                ..RrtStarConfig::default()
            });
            p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn reset_restores_the_sampling_stream() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let a = p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5));
        p.reset();
        let b = p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5));
        assert_eq!(a, b);
    }

    #[test]
    fn shortcutting_reduces_waypoint_count() {
        let w = Workspace::city_block();
        let p = RrtStar::default();
        // A needlessly zig-zagging path along an open street.
        let zigzag = vec![
            Vec3::new(3.0, 3.0, 2.5),
            Vec3::new(4.0, 10.0, 2.5),
            Vec3::new(3.0, 20.0, 2.5),
            Vec3::new(4.5, 30.0, 2.5),
            Vec3::new(3.0, 40.0, 2.5),
        ];
        let short = p.shortcut(&w, zigzag.clone());
        assert!(short.len() < zigzag.len());
        assert_eq!(short[0], zigzag[0]);
        assert_eq!(*short.last().unwrap(), *zigzag.last().unwrap());
    }
}
