//! The core lattice traits.

use std::fmt::Debug;
use std::hash::Hash;

/// A (complete) lattice with a least element.
///
/// This is the Rust rendering of the paper's lattice 6-tuple
/// `ℓ = (E, ⊥, ⊤, ⊑, ⊔, ⊓)` (§3.2), split in two: every [`Lattice`] has a
/// bottom, a partial order, a least upper bound and a greatest lower bound;
/// lattices that additionally have a representable greatest element also
/// implement [`HasTop`]. The split exists because a lattice need not have
/// a finitely representable top — a map from an unbounded key type has
/// none — yet the FLIX engine only ever *requires* `⊥`, `⊑`, `⊔` and `⊓`.
///
/// # Laws
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
///
/// * `leq` is reflexive, antisymmetric and transitive;
/// * `bottom().leq(&a)`;
/// * `a.lub(&b)` is the *least* upper bound of `a` and `b`;
/// * `a.glb(&b)` is the *greatest* lower bound of `a` and `b`.
///
/// `flix_core::verify` checks these laws on a lattice's engine operations:
/// exhaustively when its samples enumerate a finite lattice, by sampling
/// for an infinite one. A FLIX program run over a structure violating them
/// has undefined meaning (paper §2.2).
///
/// # Example
///
/// ```
/// use flix_lattice::{Lattice, Sign};
///
/// assert_eq!(Sign::Pos.lub(&Sign::Neg), Sign::Top);
/// assert!(Sign::bottom().leq(&Sign::Zer));
/// ```
pub trait Lattice: Clone + Eq + Hash + Debug {
    /// Returns the least element `⊥`.
    fn bottom() -> Self;

    /// Returns `true` if `self ⊑ other` in the partial order.
    fn leq(&self, other: &Self) -> bool;

    /// Returns the least upper bound `self ⊔ other`.
    fn lub(&self, other: &Self) -> Self;

    /// Returns the greatest lower bound `self ⊓ other`.
    fn glb(&self, other: &Self) -> Self;

    /// Returns `true` if this element is the least element.
    ///
    /// The default implementation compares against [`Lattice::bottom`];
    /// override it when a cheaper check exists.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    /// Folds `⊔` over an iterator, starting from `⊥`.
    ///
    /// ```
    /// use flix_lattice::{Lattice, Parity};
    /// let all = Parity::lub_all([Parity::Even, Parity::Odd]);
    /// assert_eq!(all, Parity::Top);
    /// ```
    fn lub_all<I: IntoIterator<Item = Self>>(iter: I) -> Self
    where
        Self: Sized,
    {
        iter.into_iter().fold(Self::bottom(), |acc, x| acc.lub(&x))
    }
}

/// A lattice with a representable greatest element `⊤`.
///
/// See [`Lattice`] for why this is a separate trait.
pub trait HasTop: Lattice {
    /// Returns the greatest element `⊤`.
    fn top() -> Self;

    /// Returns `true` if this element is the greatest element.
    fn is_top(&self) -> bool {
        *self == Self::top()
    }
}

/// A lattice with finitely many elements, all of which can be enumerated.
///
/// Finite lattices admit *exhaustive* law checking (`flix_core::verify`
/// over [`FiniteLattice::elements`]) and have finite height, which is the
/// termination condition for FLIX's naïve and semi-naïve evaluation (§3.2:
/// "by insisting that the FLIX lattices be of finite height, we can apply
/// the same proof").
pub trait FiniteLattice: Lattice {
    /// Enumerates every element of the lattice, in no particular order.
    fn elements() -> Vec<Self>;

    /// The height of the lattice: the number of elements on a longest
    /// strictly ascending chain.
    ///
    /// The default implementation computes it by dynamic programming over
    /// the enumerated elements; it runs in `O(n^2)` comparisons.
    fn height() -> usize {
        let elems = Self::elements();
        // Longest chain ending at each element, memoised by index.
        let n = elems.len();
        let mut best = vec![0usize; n];
        // Repeatedly relax: height is bounded by n, so n passes suffice.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut h = 1;
                for j in 0..n {
                    if i != j && elems[j].leq(&elems[i]) && elems[j] != elems[i] {
                        h = h.max(best[j] + 1);
                    }
                }
                if h > best[i] {
                    best[i] = h;
                    changed = true;
                }
            }
        }
        best.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Parity;

    #[test]
    fn lub_all_of_empty_is_bottom() {
        assert_eq!(Parity::lub_all(std::iter::empty()), Parity::Bot);
    }

    #[test]
    fn lub_all_of_singleton_is_identity() {
        assert_eq!(Parity::lub_all([Parity::Odd]), Parity::Odd);
    }

    #[test]
    fn parity_height_is_three() {
        // Bot < Even < Top is a longest chain.
        assert_eq!(Parity::height(), 3);
    }

    #[test]
    fn is_bottom_default() {
        assert!(Parity::Bot.is_bottom());
        assert!(!Parity::Top.is_bottom());
    }
}
