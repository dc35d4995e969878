//! Grid-based backward reachable sets and the region operator `R(φ, t)`.
//!
//! The paper computes, with the Level-Set Toolbox, the *backward reachable
//! set* of the unsafe region over a horizon `2Δ` — the set of states from
//! which the drone can leave `φ_safe` within `2Δ` (the yellow region of
//! Fig. 12b) — and takes its complement inside `φ_safe` as
//! `φ_safer = R(φ_safe, 2Δ)` (the green region).  [`ReachGrid`] reproduces
//! that computation with a uniform grid over the workspace: a cell is in the
//! backward reachable set iff the worst-case excursion over the horizon from
//! that cell can touch an obstacle or the workspace boundary.

use crate::forward::ForwardReach;
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// Classification of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// The cell centre is inside an obstacle or outside the workspace
    /// (`φ_unsafe`).
    Unsafe,
    /// The cell is safe but the system may leave `φ_safe` from it within the
    /// horizon — the backward reachable set of the unsafe region (the
    /// "yellow" region).
    BackwardReachable,
    /// The cell is safe and cannot leave `φ_safe` within the horizon —
    /// `R(φ_safe, horizon)` (the "green" region, `φ_safer` when the horizon
    /// is `2Δ`).
    Safer,
}

/// A 2-D slice (fixed altitude) of the backward-reachable-set computation
/// over a workspace.
///
/// Planning and the Fig. 12 visualisations operate on a horizontal slice of
/// the city workspace; a full 3-D grid is a straightforward extension but a
/// 2-D slice matches the paper's presentation and keeps the computation
/// cheap enough to run inside the decision-module ablation benches.
#[derive(Debug, Clone)]
pub struct ReachGrid {
    resolution: f64,
    altitude: f64,
    horizon: f64,
    nx: usize,
    ny: usize,
    origin: [f64; 2],
    cells: Vec<CellClass>,
}

impl ReachGrid {
    /// Computes the grid for a workspace, a worst-case speed profile given
    /// by `reach`, a `horizon` (typically `2Δ`), an `assumed_speed` (the
    /// worst-case speed at which the vehicle may be travelling when the DM
    /// samples it, typically the dynamics' `max_speed`), a grid
    /// `resolution` in metres and the altitude of the slice.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` or `horizon` is not positive.
    pub fn compute(
        workspace: &Workspace,
        reach: &ForwardReach,
        horizon: f64,
        assumed_speed: f64,
        resolution: f64,
        altitude: f64,
    ) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        let bounds = workspace.bounds();
        let nx = ((bounds.max.x - bounds.min.x) / resolution).ceil() as usize + 1;
        let ny = ((bounds.max.y - bounds.min.y) / resolution).ceil() as usize + 1;
        let radius = reach.excursion_radius(assumed_speed, horizon);
        let mut cells = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                let x = bounds.min.x + i as f64 * resolution;
                let y = bounds.min.y + j as f64 * resolution;
                let p = Vec3::new(x, y, altitude);
                let class = if !workspace.is_free(p) {
                    CellClass::Unsafe
                } else {
                    let occupancy = Aabb::from_center_extents(p, Vec3::splat(2.0 * radius));
                    if workspace.region_is_free(&occupancy) {
                        CellClass::Safer
                    } else {
                        CellClass::BackwardReachable
                    }
                };
                cells.push(class);
            }
        }
        ReachGrid {
            resolution,
            altitude,
            horizon,
            nx,
            ny,
            origin: [bounds.min.x, bounds.min.y],
            cells,
        }
    }

    /// Grid resolution in metres.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Altitude of the slice.
    pub fn altitude(&self) -> f64 {
        self.altitude
    }

    /// Horizon the grid was computed for.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Classification of the cell containing the point `(x, y)`, or `None`
    /// if the point is outside the grid.
    pub fn classify(&self, x: f64, y: f64) -> Option<CellClass> {
        let i = ((x - self.origin[0]) / self.resolution).round();
        let j = ((y - self.origin[1]) / self.resolution).round();
        if i < 0.0 || j < 0.0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.nx || j >= self.ny {
            return None;
        }
        Some(self.cells[j * self.nx + i])
    }

    /// Returns `true` if the point lies in the `φ_safer` (green) region of
    /// the grid.
    pub fn is_safer(&self, x: f64, y: f64) -> bool {
        matches!(self.classify(x, y), Some(CellClass::Safer))
    }

    /// Fraction of in-bounds cells in each class, as
    /// `(unsafe, backward_reachable, safer)`.  Used by the Δ-ablation bench
    /// to report how conservative a given `Δ` makes the system.
    pub fn coverage(&self) -> (f64, f64, f64) {
        let total = self.cells.len() as f64;
        let mut counts = [0usize; 3];
        for c in &self.cells {
            match c {
                CellClass::Unsafe => counts[0] += 1,
                CellClass::BackwardReachable => counts[1] += 1,
                CellClass::Safer => counts[2] += 1,
            }
        }
        (
            counts[0] as f64 / total,
            counts[1] as f64 / total,
            counts[2] as f64 / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_sim::dynamics::QuadrotorDynamics;

    fn grid(horizon: f64) -> ReachGrid {
        let ws = Workspace::city_block();
        let reach = ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.05);
        ReachGrid::compute(&ws, &reach, horizon, 3.0, 1.0, 3.0)
    }

    #[test]
    fn obstacle_cells_are_unsafe() {
        let g = grid(0.2);
        assert_eq!(g.classify(13.0, 13.0), Some(CellClass::Unsafe));
        assert_eq!(g.classify(29.0, 29.0), Some(CellClass::Unsafe));
    }

    #[test]
    fn open_street_cells_far_from_obstacles_are_safer() {
        let g = grid(0.1);
        assert_eq!(
            g.classify(4.0, 4.0),
            Some(CellClass::Safer),
            "{:?}",
            g.coverage()
        );
    }

    #[test]
    fn cells_adjacent_to_obstacles_are_backward_reachable() {
        let g = grid(0.5);
        // One metre from the house face at x = 9 (house spans 9..17).
        assert_eq!(g.classify(8.0, 13.0), Some(CellClass::BackwardReachable));
    }

    #[test]
    fn out_of_grid_queries_return_none() {
        let g = grid(0.2);
        assert_eq!(g.classify(-10.0, 0.0), None);
        assert_eq!(g.classify(0.0, 500.0), None);
        assert!(!g.is_safer(-10.0, 0.0));
    }

    #[test]
    fn longer_horizon_shrinks_the_safer_region() {
        let short = grid(0.1);
        let long = grid(1.0);
        let (_, _, safer_short) = short.coverage();
        let (_, _, safer_long) = long.coverage();
        assert!(
            safer_long < safer_short,
            "longer horizon must be more conservative ({safer_long} >= {safer_short})"
        );
        // Unsafe fraction is independent of the horizon.
        assert!((short.coverage().0 - long.coverage().0).abs() < 1e-12);
    }

    #[test]
    fn dimensions_and_accessors() {
        let g = grid(0.2);
        let (nx, ny) = g.dimensions();
        assert_eq!(nx, 51);
        assert_eq!(ny, 51);
        assert_eq!(g.resolution(), 1.0);
        assert_eq!(g.altitude(), 3.0);
        assert_eq!(g.horizon(), 0.2);
    }

    #[test]
    fn coverage_fractions_sum_to_one() {
        let g = grid(0.4);
        let (a, b, c) = g.coverage();
        assert!((a + b + c - 1.0).abs() < 1e-9);
        assert!(a > 0.0 && b > 0.0 && c > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_resolution_panics() {
        let ws = Workspace::city_block();
        let reach = ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.0);
        let _ = ReachGrid::compute(&ws, &reach, 0.2, 3.0, 0.0, 3.0);
    }
}
