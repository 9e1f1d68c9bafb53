//! The parity lattice of §2.2 of the paper.

use crate::{FiniteLattice, HasTop, Lattice};
use std::fmt;

/// The parity abstract domain: tracks whether an integer is odd or even.
///
/// This is the running example of §2.2 of the paper (Figure 2), with the
/// Hasse diagram
///
/// ```text
///        Top
///       /   \
///    Even   Odd
///       \   /
///        Bot
/// ```
///
/// The abstract arithmetic operations ([`Parity::sum`], [`Parity::product`],
/// [`Parity::negate`]) are strict and monotone, and
/// [`Parity::is_maybe_zero`] is the monotone filter function used by the
/// division-by-zero client in Figure 2.
///
/// # Example
///
/// ```
/// use flix_lattice::Parity;
///
/// assert_eq!(Parity::Odd.sum(&Parity::Odd), Parity::Even);
/// assert!(Parity::Even.is_maybe_zero());
/// assert!(!Parity::Odd.is_maybe_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum Parity {
    /// No information: the value has not been observed (least element).
    #[default]
    Bot,
    /// The value is known to be even.
    Even,
    /// The value is known to be odd.
    Odd,
    /// The value may be either parity (greatest element).
    Top,
}

impl Parity {
    /// Abstracts a concrete integer to its parity.
    ///
    /// ```
    /// use flix_lattice::Parity;
    /// assert_eq!(Parity::alpha(7), Parity::Odd);
    /// assert_eq!(Parity::alpha(-4), Parity::Even);
    /// ```
    pub fn alpha(n: i64) -> Self {
        if n % 2 == 0 {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// Abstract addition, the `sum` transfer function of Figure 2.
    ///
    /// Strict (`⊥ + x = ⊥`) and monotone in both arguments.
    pub fn sum(&self, other: &Self) -> Self {
        use Parity::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Top, _) | (_, Top) => Top,
            (Even, Even) | (Odd, Odd) => Even,
            (Even, Odd) | (Odd, Even) => Odd,
        }
    }

    /// Abstract multiplication. Strict and monotone.
    ///
    /// Note that `Even * Top = Top` rather than `Even`: the parity domain
    /// cannot express "even or unobserved", and `Top * Even` must
    /// over-approximate `Bot * Even = Bot` being promoted by monotonicity.
    /// (A product with `Even` is always even concretely, but monotonicity
    /// over the *abstract* domain still permits returning `Even`; we do so.)
    pub fn product(&self, other: &Self) -> Self {
        use Parity::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Even, _) | (_, Even) => Even,
            (Odd, Odd) => Odd,
            (Top, _) | (_, Top) => Top,
        }
    }

    /// Abstract negation. Strict and monotone; parity is preserved.
    pub fn negate(&self) -> Self {
        *self
    }

    /// The monotone filter function of Figure 2: can this value be zero?
    ///
    /// Zero is even, so `Even` and `Top` may be zero while `Odd` cannot.
    /// `Bot` denotes "no value", which cannot be zero. Monotone with
    /// `false < true`.
    pub fn is_maybe_zero(&self) -> bool {
        matches!(self, Parity::Even | Parity::Top)
    }
}

impl Lattice for Parity {
    fn bottom() -> Self {
        Parity::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        use Parity::*;
        matches!(
            (self, other),
            (Bot, _) | (_, Top) | (Even, Even) | (Odd, Odd)
        )
    }

    fn lub(&self, other: &Self) -> Self {
        use Parity::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => *x,
            (Top, _) | (_, Top) => Top,
            (Even, Even) => Even,
            (Odd, Odd) => Odd,
            (Even, Odd) | (Odd, Even) => Top,
        }
    }

    fn glb(&self, other: &Self) -> Self {
        use Parity::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Top, x) | (x, Top) => *x,
            (Even, Even) => Even,
            (Odd, Odd) => Odd,
            (Even, Odd) | (Odd, Even) => Bot,
        }
    }
}

impl HasTop for Parity {
    fn top() -> Self {
        Parity::Top
    }
}

impl FiniteLattice for Parity {
    fn elements() -> Vec<Self> {
        vec![Parity::Bot, Parity::Even, Parity::Odd, Parity::Top]
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Parity::Bot => "⊥",
            Parity::Even => "Even",
            Parity::Odd => "Odd",
            Parity::Top => "⊤",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    #[test]
    fn lattice_laws_hold() {
        laws::assert_lattice_laws(&Parity::elements());
    }

    #[test]
    fn sum_matches_concrete() {
        for a in -5i64..=5 {
            for b in -5i64..=5 {
                assert_eq!(
                    Parity::alpha(a).sum(&Parity::alpha(b)),
                    Parity::alpha(a + b),
                    "sum of parities of {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn product_is_sound_wrt_concrete() {
        for a in -5i64..=5 {
            for b in -5i64..=5 {
                let abs = Parity::alpha(a).product(&Parity::alpha(b));
                assert!(
                    Parity::alpha(a * b).leq(&abs),
                    "product of parities of {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn sum_is_strict_and_monotone() {
        let f = |args: &[Parity]| args[0].sum(&args[1]);
        laws::assert_strict_binary(&Parity::elements(), f);
        laws::assert_monotone_binary(&Parity::elements(), f);
    }

    #[test]
    fn product_is_strict_and_monotone() {
        let f = |args: &[Parity]| args[0].product(&args[1]);
        laws::assert_strict_binary(&Parity::elements(), f);
        laws::assert_monotone_binary(&Parity::elements(), f);
    }

    #[test]
    fn is_maybe_zero_is_monotone_filter() {
        laws::assert_monotone_filter(&Parity::elements(), |e| e.is_maybe_zero());
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Parity::Odd.to_string(), "Odd");
        assert_eq!(Parity::Bot.to_string(), "⊥");
    }
}
