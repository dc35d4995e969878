//! Minimal 3-D vector type used throughout the simulator and controllers.
//!
//! The simulator deliberately avoids pulling in a full linear-algebra crate:
//! the drone model only needs component-wise arithmetic, norms and a few
//! clamping helpers, and keeping the type local keeps the public API of the
//! workspace self-contained.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A 3-dimensional vector of `f64` components.
///
/// Used for positions (metres), velocities (m/s) and accelerations (m/s²).
///
/// ```
/// use soter_sim::Vec3;
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(0.5, 0.5, 0.5);
/// assert_eq!(a + b, Vec3::new(1.5, 2.5, 3.5));
/// assert!((a.norm() - 14f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component (altitude for drone positions).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm (avoids the square root when comparing lengths).
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm of the horizontal (x, y) projection.
    #[inline]
    pub fn horizontal_norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Vec3) -> f64 {
        (*self - *other).norm()
    }

    /// Returns the unit vector in the direction of `self`, or zero if the
    /// vector is (numerically) zero.
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        if n < 1e-12 {
            Vec3::ZERO
        } else {
            *self / n
        }
    }

    /// Clamps the norm of the vector to at most `max_norm`, preserving
    /// direction.  Vectors shorter than `max_norm` are returned unchanged.
    pub fn clamp_norm(&self, max_norm: f64) -> Vec3 {
        debug_assert!(max_norm >= 0.0, "max_norm must be non-negative");
        let n = self.norm();
        if n <= max_norm || n < 1e-12 {
            *self
        } else {
            *self * (max_norm / n)
        }
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Component-wise absolute value.
    pub fn abs(&self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    pub fn max_component(&self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(&self, other: &Vec3, t: f64) -> Vec3 {
        *self + (*other - *self) * t
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Conversion to a plain array `[x, y, z]`, useful when crossing the
    /// `soter-core` topic-value boundary which does not depend on this crate.
    pub fn to_array(&self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Conversion from a plain array `[x, y, z]`.
    pub fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }

    /// Horizontal (x, y) projection with z set to zero.
    pub fn horizontal(&self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.dot(&y), 0.0);
        assert_eq!(x.cross(&y), z);
        assert_eq!(y.cross(&z), x);
        assert_eq!(z.cross(&x), y);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.horizontal_norm() - 5.0).abs() < 1e-12);
        assert!((v.distance(&Vec3::ZERO) - 5.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_norm_preserves_direction() {
        let v = Vec3::new(10.0, 0.0, 0.0);
        let c = v.clamp_norm(2.0);
        assert!((c.norm() - 2.0).abs() < 1e-12);
        assert!(c.x > 0.0 && c.y == 0.0 && c.z == 0.0);
        // Shorter vectors are untouched.
        let short = Vec3::new(0.5, 0.0, 0.0);
        assert_eq!(short.clamp_norm(2.0), short);
    }

    #[test]
    fn min_max_abs_lerp() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(0.0, 5.0, -1.0);
        assert_eq!(a.min(&b), Vec3::new(0.0, -2.0, -1.0));
        assert_eq!(a.max(&b), Vec3::new(1.0, 5.0, 3.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid, Vec3::new(0.5, 1.5, 1.0));
    }

    #[test]
    fn array_conversions_roundtrip() {
        let v = Vec3::new(1.5, -2.25, 0.125);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn display_formats_three_components() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let s = format!("{v}");
        assert!(s.contains("1.000") && s.contains("2.000") && s.contains("3.000"));
    }

    fn small_vec() -> impl Strategy<Value = Vec3> {
        (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_norm_nonnegative(v in small_vec()) {
            prop_assert!(v.norm() >= 0.0);
        }

        #[test]
        fn prop_triangle_inequality(a in small_vec(), b in small_vec()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn prop_clamp_norm_bounded(v in small_vec(), m in 0.0..100.0f64) {
            prop_assert!(v.clamp_norm(m).norm() <= m + 1e-9);
        }

        #[test]
        fn prop_normalized_unit_or_zero(v in small_vec()) {
            let n = v.normalized().norm();
            prop_assert!(n < 1e-9 || (n - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_dot_cross_orthogonal(a in small_vec(), b in small_vec()) {
            let c = a.cross(&b);
            prop_assert!(c.dot(&a).abs() < 1e-3);
            prop_assert!(c.dot(&b).abs() < 1e-3);
        }

        #[test]
        fn prop_lerp_endpoints(a in small_vec(), b in small_vec()) {
            prop_assert!(a.lerp(&b, 0.0).distance(&a) < 1e-9);
            prop_assert!(a.lerp(&b, 1.0).distance(&b) < 1e-9);
        }
    }
}
