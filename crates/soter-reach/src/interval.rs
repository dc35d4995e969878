//! Closed-interval arithmetic.
//!
//! The forward reachable sets of the decision module are box
//! over-approximations; [`Interval`] is the one-dimensional building block.

use std::fmt;

/// A closed interval `[lo, hi]` of reals.
///
/// Invariant: `lo <= hi` (constructors normalise the endpoints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Creates an interval from two endpoints in any order.
    pub fn new(a: f64, b: f64) -> Self {
        if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval { lo: x, hi: x }
    }

    /// The symmetric interval `[c - r, c + r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative.
    pub fn centered(c: f64, r: f64) -> Self {
        assert!(r >= 0.0, "radius must be non-negative");
        Interval {
            lo: c - r,
            hi: c + r,
        }
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Returns `true` if `x` lies in the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Returns `true` if the two intervals overlap (touching counts).
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Returns `true` if `other` is entirely inside `self`.
    pub fn encloses(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Interval addition.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Adds a scalar to both endpoints.
    pub fn shift(&self, x: f64) -> Interval {
        Interval {
            lo: self.lo + x,
            hi: self.hi + x,
        }
    }

    /// Scales the interval by a scalar (which may be negative).
    pub fn scale(&self, k: f64) -> Interval {
        Interval::new(self.lo * k, self.hi * k)
    }

    /// Grows the interval by `margin` on both sides.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative.
    pub fn inflate(&self, margin: f64) -> Interval {
        assert!(margin >= 0.0, "margin must be non-negative");
        Interval {
            lo: self.lo - margin,
            hi: self.hi + margin,
        }
    }

    /// Smallest interval containing both operands (interval hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Largest absolute value attained in the interval.
    pub fn abs_max(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Clamps both endpoints into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Interval {
        Interval::new(self.lo.clamp(lo, hi), self.hi.clamp(lo, hi))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3}, {:.3}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_normalise() {
        let i = Interval::new(3.0, 1.0);
        assert_eq!(i.lo, 1.0);
        assert_eq!(i.hi, 3.0);
        assert_eq!(Interval::point(2.0).width(), 0.0);
        let c = Interval::centered(5.0, 2.0);
        assert_eq!((c.lo, c.hi), (3.0, 7.0));
        assert_eq!(c.midpoint(), 5.0);
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = Interval::centered(0.0, -1.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        let c = Interval::new(4.0, 5.0);
        assert!(a.contains(0.0) && a.contains(2.0) && !a.contains(2.1));
        assert!(a.intersects(&b) && !a.intersects(&c));
        assert!(Interval::new(0.0, 5.0).encloses(&b));
        assert!(!b.encloses(&a));
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a.add(&b), Interval::new(0.0, 5.0));
        assert_eq!(a.shift(10.0), Interval::new(11.0, 12.0));
        assert_eq!(a.scale(2.0), Interval::new(2.0, 4.0));
        assert_eq!(a.scale(-1.0), Interval::new(-2.0, -1.0));
        assert_eq!(a.inflate(0.5), Interval::new(0.5, 2.5));
        assert_eq!(a.hull(&b), Interval::new(-1.0, 3.0));
        assert_eq!(b.abs_max(), 3.0);
        assert_eq!(b.clamp(0.0, 1.0), Interval::new(0.0, 1.0));
    }

    #[test]
    fn display_shows_endpoints() {
        assert_eq!(format!("{}", Interval::new(1.0, 2.0)), "[1.000, 2.000]");
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(a, b)| Interval::new(a, b))
    }

    proptest! {
        #[test]
        fn prop_invariant_lo_le_hi(i in arb_interval()) {
            prop_assert!(i.lo <= i.hi);
        }

        #[test]
        fn prop_add_is_sound(a in arb_interval(), b in arb_interval(), t in 0.0..1.0f64, u in 0.0..1.0f64) {
            // Any pair of points in the operands sums to a point in the result.
            let x = a.lo + t * a.width();
            let y = b.lo + u * b.width();
            prop_assert!(a.add(&b).contains(x + y));
        }

        #[test]
        fn prop_scale_is_sound(a in arb_interval(), k in -10.0..10.0f64, t in 0.0..1.0f64) {
            let x = a.lo + t * a.width();
            prop_assert!(a.scale(k).inflate(1e-9).contains(x * k));
        }

        #[test]
        fn prop_hull_encloses_both(a in arb_interval(), b in arb_interval()) {
            let h = a.hull(&b);
            prop_assert!(h.encloses(&a) && h.encloses(&b));
        }

        #[test]
        fn prop_inflate_encloses(a in arb_interval(), m in 0.0..10.0f64) {
            prop_assert!(a.inflate(m).encloses(&a));
        }
    }
}
