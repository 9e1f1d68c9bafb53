//! The min-cost lattice for shortest paths (§4.4 of the paper).

use crate::{HasTop, Lattice};
use std::fmt;

/// The shortest-path cost lattice `(ℕ ∪ {∞}, ∞, 0, ≥, min, max)`.
///
/// §4.4 of the paper: "to compute all-pairs shortest paths, let
/// `(ℕ, ∞, 0, ≥, min, max)` be a lattice over the natural numbers." The
/// partial order is *reversed* numeric order — a smaller distance is a
/// *larger* lattice element — so iterating to a least fixed point shrinks
/// distances monotonically:
///
/// * `⊥ = ∞` (no path known yet),
/// * `⊤ = 0`,
/// * `a ⊑ b` iff `a ≥ b` numerically,
/// * `a ⊔ b = min(a, b)`, `a ⊓ b = max(a, b)`.
///
/// # Example
///
/// ```
/// use flix_lattice::{Lattice, MinCost};
///
/// let five = MinCost::finite(5);
/// let three = MinCost::finite(3);
/// assert_eq!(five.lub(&three), three); // shorter path wins
/// assert!(MinCost::INFINITY.leq(&five));
/// assert_eq!(five.add(&three), MinCost::finite(8)); // path extension
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MinCost {
    /// No path (`∞`, the least element).
    #[default]
    Infinite,
    /// A path of this total weight.
    Finite(u64),
}

impl MinCost {
    /// The least element, `∞`.
    pub const INFINITY: MinCost = MinCost::Infinite;

    /// Creates a finite cost.
    pub fn finite(c: u64) -> Self {
        MinCost::Finite(c)
    }

    /// Returns the numeric cost, or `None` for `∞`.
    pub fn value(&self) -> Option<u64> {
        match self {
            MinCost::Infinite => None,
            MinCost::Finite(c) => Some(*c),
        }
    }

    /// Extends a path by an edge weight: `∞ + w = ∞` (strict), otherwise
    /// saturating numeric addition. Monotone: shortening the path shortens
    /// the extension.
    pub fn add(&self, weight: &MinCost) -> Self {
        match (self, weight) {
            (MinCost::Finite(a), MinCost::Finite(b)) => MinCost::Finite(a.saturating_add(*b)),
            _ => MinCost::Infinite,
        }
    }

    /// Extends a path by a constant edge weight; see [`MinCost::add`].
    pub fn add_weight(&self, weight: u64) -> Self {
        self.add(&MinCost::Finite(weight))
    }
}

impl Lattice for MinCost {
    fn bottom() -> Self {
        MinCost::Infinite
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (MinCost::Infinite, _) => true,
            (MinCost::Finite(_), MinCost::Infinite) => false,
            (MinCost::Finite(a), MinCost::Finite(b)) => a >= b,
        }
    }

    fn lub(&self, other: &Self) -> Self {
        match (self, other) {
            (MinCost::Infinite, x) | (x, MinCost::Infinite) => *x,
            (MinCost::Finite(a), MinCost::Finite(b)) => MinCost::Finite(*a.min(b)),
        }
    }

    fn glb(&self, other: &Self) -> Self {
        match (self, other) {
            (MinCost::Infinite, _) | (_, MinCost::Infinite) => MinCost::Infinite,
            (MinCost::Finite(a), MinCost::Finite(b)) => MinCost::Finite(*a.max(b)),
        }
    }
}

impl HasTop for MinCost {
    fn top() -> Self {
        MinCost::Finite(0)
    }
}

impl fmt::Display for MinCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinCost::Infinite => f.write_str("∞"),
            MinCost::Finite(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn sample() -> Vec<MinCost> {
        let mut v: Vec<MinCost> = (0..6).map(MinCost::finite).collect();
        v.push(MinCost::INFINITY);
        v
    }

    #[test]
    fn lattice_laws_on_sample() {
        laws::assert_lattice_laws(&sample());
    }

    #[test]
    fn order_is_reversed_numeric() {
        assert!(MinCost::finite(9).leq(&MinCost::finite(2)));
        assert!(!MinCost::finite(2).leq(&MinCost::finite(9)));
        assert!(MinCost::INFINITY.leq(&MinCost::finite(1_000_000)));
        assert!(MinCost::finite(1).leq(&MinCost::top()));
    }

    #[test]
    fn add_is_strict_and_monotone() {
        let s = sample();
        laws::assert_strict_binary(&s, |a| a[0].add(&a[1]));
        laws::assert_monotone_binary(&s, |a| a[0].add(&a[1]));
    }

    #[test]
    fn add_saturates() {
        let big = MinCost::finite(u64::MAX);
        assert_eq!(big.add_weight(5), big);
    }

    #[test]
    fn display() {
        assert_eq!(MinCost::INFINITY.to_string(), "∞");
        assert_eq!(MinCost::finite(7).to_string(), "7");
    }
}
