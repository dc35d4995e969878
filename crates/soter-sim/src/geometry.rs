//! Axis-aligned box geometry used for obstacles and reachable-set
//! over-approximations.
//!
//! The SOTER case study assumes static, a-priori-known obstacles (Sec. II-A of
//! the paper), so axis-aligned bounding boxes ([`Aabb`]) are sufficient to
//! model the houses/cars of the Fig. 2 city workspace, and they compose
//! naturally with the interval-based reachability used by the decision
//! modules.

use crate::vec3::Vec3;
use std::fmt;

/// An axis-aligned bounding box in 3-D space, defined by its minimum and
/// maximum corners.
///
/// Invariant: `min` is component-wise less than or equal to `max`
/// (constructors normalise the corners).
///
/// ```
/// use soter_sim::{geometry::Aabb, Vec3};
/// let b = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 2.0, 2.0));
/// assert!(b.contains(&Vec3::new(1.0, 1.0, 1.0)));
/// assert!(!b.contains(&Vec3::new(3.0, 1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a box from a centre point and full extents along each axis.
    ///
    /// # Panics
    ///
    /// Panics if any extent is negative.
    pub fn from_center_extents(center: Vec3, extents: Vec3) -> Self {
        assert!(
            extents.x >= 0.0 && extents.y >= 0.0 && extents.z >= 0.0,
            "extents must be non-negative"
        );
        let half = extents * 0.5;
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// The centre of the box.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full extents (size along each axis).
    pub fn extents(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        let e = self.extents();
        e.x * e.y * e.z
    }

    /// Returns `true` if the point lies inside or on the boundary of the box.
    pub fn contains(&self, p: &Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if the two boxes overlap (including touching).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The box inflated by `margin` on every side.
    ///
    /// Inflating an obstacle by the drone's physical radius (plus the
    /// certified tracking-error bound of the safe controller) turns
    /// point-robot collision checks into checks for the real vehicle.
    pub fn inflate(&self, margin: f64) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Euclidean distance from a point to the box (zero if inside).
    pub fn distance_to_point(&self, p: &Vec3) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Closest point of the box to `p` (clamping `p` to the box).
    pub fn closest_point(&self, p: &Vec3) -> Vec3 {
        Vec3::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
            p.z.clamp(self.min.z, self.max.z),
        )
    }

    /// Returns `true` if the line segment from `a` to `b` intersects the box.
    ///
    /// Implemented with the slab method; touching counts as intersecting.
    pub fn intersects_segment(&self, a: &Vec3, b: &Vec3) -> bool {
        let dir = *b - *a;
        let mut t_min = 0.0f64;
        let mut t_max = 1.0f64;
        for axis in 0..3 {
            let (start, d, lo, hi) = (a[axis], dir[axis], self.min[axis], self.max[axis]);
            if d.abs() < 1e-12 {
                if start < lo || start > hi {
                    return false;
                }
            } else {
                let mut t1 = (lo - start) / d;
                let mut t2 = (hi - start) / d;
                if t1 > t2 {
                    std::mem::swap(&mut t1, &mut t2);
                }
                t_min = t_min.max(t1);
                t_max = t_max.min(t2);
                if t_min > t_max {
                    return false;
                }
            }
        }
        true
    }

    /// Eight corner points of the box.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Distance from point `p` to the segment `a`–`b`.
pub fn point_segment_distance(p: &Vec3, a: &Vec3, b: &Vec3) -> f64 {
    let ab = *b - *a;
    let len2 = ab.norm_squared();
    if len2 < 1e-18 {
        return p.distance(a);
    }
    let t = ((*p - *a).dot(&ab) / len2).clamp(0.0, 1.0);
    let proj = *a + ab * t;
    p.distance(&proj)
}

/// Samples `n + 1` points uniformly along the segment `a`–`b` (inclusive of
/// both endpoints).  Used by planners to collision-check candidate edges.
pub fn sample_segment(a: &Vec3, b: &Vec3, n: usize) -> Vec<Vec3> {
    assert!(n >= 1, "need at least one interval");
    (0..=n).map(|i| a.lerp(b, i as f64 / n as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn constructor_normalises_corners() {
        let b = Aabb::new(Vec3::new(2.0, 0.0, 5.0), Vec3::new(0.0, 3.0, 1.0));
        assert_eq!(b.min, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(b.max, Vec3::new(2.0, 3.0, 5.0));
    }

    #[test]
    fn from_center_extents_roundtrip() {
        let b = Aabb::from_center_extents(Vec3::new(1.0, 2.0, 3.0), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extents(), Vec3::new(2.0, 4.0, 6.0));
        assert!((b.volume() - 48.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_extents_panic() {
        let _ = Aabb::from_center_extents(Vec3::ZERO, Vec3::new(-1.0, 1.0, 1.0));
    }

    #[test]
    fn containment_and_boundary() {
        let b = unit_box();
        assert!(b.contains(&Vec3::splat(0.5)));
        assert!(b.contains(&Vec3::ZERO), "boundary points count as inside");
        assert!(b.contains(&Vec3::splat(1.0)));
        assert!(!b.contains(&Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn intersection_of_boxes() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        let c = Aabb::new(Vec3::splat(2.5), Vec3::splat(3.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching boxes intersect.
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn inflate_grows_every_side() {
        let b = unit_box().inflate(0.25);
        assert_eq!(b.min, Vec3::splat(-0.25));
        assert_eq!(b.max, Vec3::splat(1.25));
    }

    #[test]
    fn union_contains_both() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        for c in a.corners().iter().chain(b.corners().iter()) {
            assert!(u.contains(c));
        }
    }

    #[test]
    fn distance_and_closest_point() {
        let b = unit_box();
        assert_eq!(b.distance_to_point(&Vec3::splat(0.5)), 0.0);
        assert!((b.distance_to_point(&Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-12);
        assert_eq!(
            b.closest_point(&Vec3::new(2.0, 0.5, 0.5)),
            Vec3::new(1.0, 0.5, 0.5)
        );
        let p = Vec3::new(2.0, 2.0, 2.0);
        assert!((b.distance_to_point(&p) - (3.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn segment_intersection_cases() {
        let b = unit_box();
        // Passes through the box.
        assert!(b.intersects_segment(&Vec3::new(-1.0, 0.5, 0.5), &Vec3::new(2.0, 0.5, 0.5)));
        // Entirely inside.
        assert!(b.intersects_segment(&Vec3::splat(0.25), &Vec3::splat(0.75)));
        // Misses the box.
        assert!(!b.intersects_segment(&Vec3::new(-1.0, 2.0, 0.5), &Vec3::new(2.0, 2.0, 0.5)));
        // Parallel to an axis outside the slab.
        assert!(!b.intersects_segment(&Vec3::new(2.0, -1.0, 0.5), &Vec3::new(2.0, 2.0, 0.5)));
        // Ends exactly on a face.
        assert!(b.intersects_segment(&Vec3::new(-1.0, 0.5, 0.5), &Vec3::new(0.0, 0.5, 0.5)));
    }

    #[test]
    fn point_segment_distance_cases() {
        let a = Vec3::ZERO;
        let b = Vec3::new(10.0, 0.0, 0.0);
        assert!((point_segment_distance(&Vec3::new(5.0, 3.0, 0.0), &a, &b) - 3.0).abs() < 1e-12);
        assert!((point_segment_distance(&Vec3::new(-2.0, 0.0, 0.0), &a, &b) - 2.0).abs() < 1e-12);
        assert!((point_segment_distance(&Vec3::new(12.0, 0.0, 0.0), &a, &b) - 2.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((point_segment_distance(&Vec3::new(1.0, 0.0, 0.0), &a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_segment_endpoints_and_count() {
        let pts = sample_segment(&Vec3::ZERO, &Vec3::new(1.0, 0.0, 0.0), 4);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], Vec3::ZERO);
        assert_eq!(pts[4], Vec3::new(1.0, 0.0, 0.0));
    }

    fn arb_point() -> impl Strategy<Value = Vec3> {
        (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_box() -> impl Strategy<Value = Aabb> {
        (arb_point(), arb_point()).prop_map(|(a, b)| Aabb::new(a, b))
    }

    proptest! {
        #[test]
        fn prop_contains_center(b in arb_box()) {
            prop_assert!(b.contains(&b.center()));
        }

        #[test]
        fn prop_closest_point_is_inside(b in arb_box(), p in arb_point()) {
            prop_assert!(b.contains(&b.closest_point(&p)));
        }

        #[test]
        fn prop_distance_zero_iff_contained(b in arb_box(), p in arb_point()) {
            let d = b.distance_to_point(&p);
            if b.contains(&p) {
                prop_assert!(d == 0.0);
            } else {
                prop_assert!(d > 0.0);
            }
        }

        #[test]
        fn prop_inflate_contains_original(b in arb_box(), m in 0.0..10.0f64, p in arb_point()) {
            if b.contains(&p) {
                prop_assert!(b.inflate(m).contains(&p));
            }
        }

        #[test]
        fn prop_segment_with_endpoint_inside_intersects(b in arb_box(), p in arb_point()) {
            // A segment from the box centre to anywhere must intersect the box.
            prop_assert!(b.intersects_segment(&b.center(), &p));
        }

        #[test]
        fn prop_union_contains_operands(a in arb_box(), b in arb_box(), p in arb_point()) {
            let u = a.union(&b);
            if a.contains(&p) || b.contains(&p) {
                prop_assert!(u.contains(&p));
            }
        }
    }
}
