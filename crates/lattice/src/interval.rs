//! A bounded interval lattice.

use crate::{HasTop, Lattice};
use std::fmt;

/// A bounded interval abstract domain over `i64`.
///
/// §2.2 of the paper names interval analysis as a dataflow analysis that is
/// inexpressible in Datalog but expressible in FLIX. The classic interval
/// domain has infinite ascending chains; FLIX requires lattices of *finite
/// height* for termination (§3.2), so — like the paper's implicit
/// assumption — we clamp endpoints to a fixed range `[MIN_BOUND, MAX_BOUND]`
/// (values outside it saturate to the bound), which bounds the height by
/// `2 * (MAX_BOUND - MIN_BOUND + 1) + 2`. A [`widen`](Interval::widen)
/// operator is provided for clients that prefer accelerated convergence
/// over clamping.
///
/// # Example
///
/// ```
/// use flix_lattice::{Interval, Lattice};
///
/// let a = Interval::of(1, 3);
/// let b = Interval::of(2, 5);
/// assert_eq!(a.lub(&b), Interval::of(1, 5));
/// assert_eq!(a.glb(&b), Interval::of(2, 3));
/// assert_eq!(a.sum(&b), Interval::of(3, 8));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Interval {
    /// The empty interval (least element).
    #[default]
    Bot,
    /// The interval `[lo, hi]` with `lo <= hi`, both within the clamp range.
    Range(i64, i64),
}

impl Interval {
    /// The smallest representable endpoint.
    pub const MIN_BOUND: i64 = -(1 << 20);
    /// The largest representable endpoint.
    pub const MAX_BOUND: i64 = 1 << 20;

    /// Creates the interval `[lo, hi]`, clamping both endpoints to the
    /// representable range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn of(lo: i64, hi: i64) -> Self {
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Interval::Range(Self::clamp(lo), Self::clamp(hi))
    }

    /// Creates the singleton interval `[n, n]`.
    pub fn singleton(n: i64) -> Self {
        Interval::of(n, n)
    }

    fn clamp(n: i64) -> i64 {
        n.clamp(Self::MIN_BOUND, Self::MAX_BOUND)
    }

    /// Returns the `(lo, hi)` endpoints, or `None` for the empty interval.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        match self {
            Interval::Bot => None,
            Interval::Range(lo, hi) => Some((*lo, *hi)),
        }
    }

    /// Returns `true` if the concrete value `n` is contained.
    pub fn contains(&self, n: i64) -> bool {
        match self {
            Interval::Bot => false,
            Interval::Range(lo, hi) => *lo <= n && n <= *hi,
        }
    }

    /// Abstract addition with saturation. Strict and monotone.
    pub fn sum(&self, other: &Self) -> Self {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => Interval::of(a.saturating_add(c), b.saturating_add(d)),
            _ => Interval::Bot,
        }
    }

    /// Abstract negation. Strict and monotone.
    pub fn negate(&self) -> Self {
        match self.bounds() {
            Some((lo, hi)) => Interval::of(hi.saturating_neg(), lo.saturating_neg()),
            None => Interval::Bot,
        }
    }

    /// Abstract multiplication with saturation. Strict and monotone.
    pub fn product(&self, other: &Self) -> Self {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                let products = [
                    a.saturating_mul(c),
                    a.saturating_mul(d),
                    b.saturating_mul(c),
                    b.saturating_mul(d),
                ];
                let lo = *products.iter().min().expect("non-empty");
                let hi = *products.iter().max().expect("non-empty");
                Interval::of(lo, hi)
            }
            _ => Interval::Bot,
        }
    }

    /// The classic interval widening operator: any growing bound jumps to
    /// the clamp limit. An upper bound operator that accelerates ascending
    /// chains to at most three steps.
    pub fn widen(&self, newer: &Self) -> Self {
        match (self.bounds(), newer.bounds()) {
            (None, _) => *newer,
            (_, None) => *self,
            (Some((a, b)), Some((c, d))) => {
                let lo = if c < a { Self::MIN_BOUND } else { a };
                let hi = if d > b { Self::MAX_BOUND } else { b };
                Interval::Range(lo, hi)
            }
        }
    }

    /// Monotone filter: can this value be zero?
    pub fn is_maybe_zero(&self) -> bool {
        self.contains(0)
    }
}

impl Lattice for Interval {
    fn bottom() -> Self {
        Interval::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        match (self.bounds(), other.bounds()) {
            (None, _) => true,
            (_, None) => false,
            (Some((a, b)), Some((c, d))) => c <= a && b <= d,
        }
    }

    fn lub(&self, other: &Self) -> Self {
        match (self.bounds(), other.bounds()) {
            (None, _) => *other,
            (_, None) => *self,
            (Some((a, b)), Some((c, d))) => Interval::Range(a.min(c), b.max(d)),
        }
    }

    fn glb(&self, other: &Self) -> Self {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) if a.max(c) <= b.min(d) => {
                Interval::Range(a.max(c), b.min(d))
            }
            _ => Interval::Bot,
        }
    }
}

impl HasTop for Interval {
    fn top() -> Self {
        Interval::Range(Self::MIN_BOUND, Self::MAX_BOUND)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interval::Bot => f.write_str("⊥"),
            Interval::Range(lo, hi) => write!(f, "[{lo}, {hi}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn sample() -> Vec<Interval> {
        let mut v = vec![Interval::Bot, Interval::top()];
        for lo in -2..=2 {
            for hi in lo..=2 {
                v.push(Interval::of(lo, hi));
            }
        }
        v
    }

    #[test]
    fn lattice_laws_on_sample() {
        laws::assert_lattice_laws(&sample());
    }

    #[test]
    fn arithmetic_is_sound() {
        for a in -3i64..=3 {
            for b in -3i64..=3 {
                let ia = Interval::of(a.min(0), a.max(0));
                let ib = Interval::singleton(b);
                assert!(ia.sum(&ib).contains(a + b));
                assert!(ia.product(&ib).contains(a * b));
                assert!(ia.negate().contains(-a));
            }
        }
    }

    #[test]
    fn ops_monotone_on_sample() {
        let s = sample();
        laws::assert_monotone_binary(&s, |a| a[0].sum(&a[1]));
        laws::assert_monotone_binary(&s, |a| a[0].product(&a[1]));
        laws::assert_monotone_filter(&s, |e| e.is_maybe_zero());
        laws::assert_strict_binary(&s, |a| a[0].sum(&a[1]));
    }

    #[test]
    fn widening_reaches_top_quickly() {
        let mut cur = Interval::singleton(0);
        for i in 1..4 {
            cur = cur.widen(&cur.lub(&Interval::singleton(i)));
        }
        assert_eq!(cur.bounds().expect("non-empty").1, Interval::MAX_BOUND);
    }

    #[test]
    fn endpoints_clamp() {
        let huge = Interval::of(i64::MIN + 1, i64::MAX - 1);
        assert_eq!(huge, Interval::top());
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_panic() {
        let _ = Interval::of(3, 1);
    }
}
