//! Flat lattices and the constant propagation domain.

use crate::{HasTop, Lattice};
use std::fmt;
use std::hash::Hash;

/// The *flat* lattice over an arbitrary value type `T`.
///
/// Every pair of distinct values is incomparable; `⊥` sits below all values
/// and `⊤` above them:
///
/// ```text
///            Top
///      / | ... | \
///     v0 v1 ... vn      (all values of T, mutually incomparable)
///      \ | ... | /
///            Bot
/// ```
///
/// The paper's introduction uses exactly this lattice (over the integers)
/// to argue why Datalog cannot express constant propagation: when the
/// domain of constants is infinite "the lattice cannot be encoded at all"
/// in relations, while here it is a two-line `enum`. See also [`Constant`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum Flat<T> {
    /// No information (least element).
    #[default]
    Bot,
    /// Exactly this value.
    Val(T),
    /// Any value (greatest element).
    Top,
}

impl<T: Clone + Eq + Hash + fmt::Debug> Flat<T> {
    /// Abstracts a concrete value into the flat lattice.
    pub fn val(v: T) -> Self {
        Flat::Val(v)
    }

    /// Returns the contained value if this element is a single value.
    pub fn as_val(&self) -> Option<&T> {
        match self {
            Flat::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Lifts a binary function on concrete values to the flat lattice,
    /// strictly in `⊥` and pessimistically in `⊤`.
    ///
    /// This is the standard way to derive strict monotone transfer
    /// functions for constant propagation.
    pub fn lift2(a: &Self, b: &Self, f: impl FnOnce(&T, &T) -> T) -> Self {
        match (a, b) {
            (Flat::Bot, _) | (_, Flat::Bot) => Flat::Bot,
            (Flat::Top, _) | (_, Flat::Top) => Flat::Top,
            (Flat::Val(x), Flat::Val(y)) => Flat::Val(f(x, y)),
        }
    }
}

impl<T: Clone + Eq + Hash + fmt::Debug> Lattice for Flat<T> {
    fn bottom() -> Self {
        Flat::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (Flat::Bot, _) | (_, Flat::Top) => true,
            (Flat::Val(a), Flat::Val(b)) => a == b,
            _ => false,
        }
    }

    fn lub(&self, other: &Self) -> Self {
        match (self, other) {
            (Flat::Bot, x) | (x, Flat::Bot) => x.clone(),
            (Flat::Top, _) | (_, Flat::Top) => Flat::Top,
            (Flat::Val(a), Flat::Val(b)) if a == b => self.clone(),
            _ => Flat::Top,
        }
    }

    fn glb(&self, other: &Self) -> Self {
        match (self, other) {
            (Flat::Bot, _) | (_, Flat::Bot) => Flat::Bot,
            (Flat::Top, x) | (x, Flat::Top) => x.clone(),
            (Flat::Val(a), Flat::Val(b)) if a == b => self.clone(),
            _ => Flat::Bot,
        }
    }
}

impl<T: Clone + Eq + Hash + fmt::Debug> HasTop for Flat<T> {
    fn top() -> Self {
        Flat::Top
    }
}

impl<T: fmt::Display> fmt::Display for Flat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flat::Bot => f.write_str("⊥"),
            Flat::Val(v) => write!(f, "{v}"),
            Flat::Top => f.write_str("⊤"),
        }
    }
}

/// The constant propagation lattice over 64-bit integers.
///
/// This is [`Flat<i64>`] with abstract arithmetic; it is the value lattice
/// `V` of the IDE linear constant propagation example (§4.3, Figure 7) and
/// the domain the paper's introduction uses to motivate lattices.
///
/// # Example
///
/// ```
/// use flix_lattice::{Constant, Lattice};
///
/// let three = Constant::cst(3);
/// let four = Constant::cst(4);
/// assert_eq!(three.sum(&four), Constant::cst(7));
/// assert_eq!(three.lub(&four), Constant::top_const());
/// ```
pub type Constant = Flat<i64>;

impl Constant {
    /// Abstracts the concrete integer `n`.
    pub fn cst(n: i64) -> Self {
        Flat::Val(n)
    }

    /// The greatest element, named to avoid clashing with
    /// [`HasTop::top`](crate::HasTop::top) in non-generic contexts.
    pub fn top_const() -> Self {
        Flat::Top
    }

    /// Abstract addition (wrapping). Strict and monotone.
    pub fn sum(&self, other: &Self) -> Self {
        Flat::lift2(self, other, |a, b| a.wrapping_add(*b))
    }

    /// Abstract subtraction (wrapping). Strict and monotone.
    pub fn difference(&self, other: &Self) -> Self {
        Flat::lift2(self, other, |a, b| a.wrapping_sub(*b))
    }

    /// Abstract multiplication (wrapping). Strict and monotone.
    ///
    /// Refines the pointwise lifting with `0 · x = x · 0 = 0` for non-`⊥`
    /// `x` (still strict in `⊥`). This exactness at zero is required by the
    /// micro-function composition algebra of Figure 7 of the paper (see
    /// [`Transformer::comp`](crate::Transformer::comp)): composing through
    /// a constant micro-function multiplies by `a = 0`, which must erase
    /// the incoming value rather than smear it to `⊤`.
    pub fn product(&self, other: &Self) -> Self {
        match (self, other) {
            (Flat::Bot, _) | (_, Flat::Bot) => Flat::Bot,
            (Flat::Val(0), _) | (_, Flat::Val(0)) => Flat::Val(0),
            _ => Flat::lift2(self, other, |a, b| a.wrapping_mul(*b)),
        }
    }

    /// Monotone filter: can this value be zero?
    pub fn is_maybe_zero(&self) -> bool {
        matches!(self, Flat::Val(0) | Flat::Top)
    }
}

/// A tiny finite slice of the constant lattice used for exhaustive law
/// checking in tests: `⊥`, `⊤`, and the constants `-1..=2`.
#[cfg(test)]
pub(crate) fn constant_sample() -> Vec<Constant> {
    let mut v: Vec<Constant> = (-1..=2).map(Constant::cst).collect();
    v.push(Flat::Bot);
    v.push(Flat::Top);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    #[test]
    fn lattice_laws_on_sample() {
        laws::assert_lattice_laws(&constant_sample());
    }

    #[test]
    fn arithmetic_on_constants() {
        assert_eq!(Constant::cst(2).sum(&Constant::cst(3)), Constant::cst(5));
        assert_eq!(
            Constant::cst(2).product(&Constant::cst(3)),
            Constant::cst(6)
        );
        assert_eq!(
            Constant::cst(2).difference(&Constant::cst(3)),
            Constant::cst(-1)
        );
    }

    #[test]
    fn arithmetic_is_strict() {
        assert_eq!(Constant::cst(2).sum(&Flat::Bot), Flat::Bot);
        assert_eq!(Flat::Bot.product(&Flat::Top), Flat::Bot);
    }

    #[test]
    fn arithmetic_monotone_on_sample() {
        let sample = constant_sample();
        laws::assert_monotone_binary(&sample, |a| a[0].sum(&a[1]));
        laws::assert_monotone_binary(&sample, |a| a[0].product(&a[1]));
        laws::assert_monotone_filter(&sample, |e| e.is_maybe_zero());
    }

    #[test]
    fn distinct_values_join_to_top() {
        assert_eq!(Constant::cst(1).lub(&Constant::cst(2)), Flat::Top);
        assert_eq!(Constant::cst(1).glb(&Constant::cst(2)), Flat::Bot);
    }

    #[test]
    fn display() {
        assert_eq!(Constant::cst(42).to_string(), "42");
        assert_eq!(Constant::top_const().to_string(), "⊤");
    }
}
