//! The sign lattice used in the second worked example of §3.2.

use crate::{FiniteLattice, HasTop, Lattice};
use std::fmt;

/// The sign abstract domain: tracks whether an integer is negative, zero,
/// or positive.
///
/// This is the lattice of the second worked example in §3.2 of the paper
/// (the `A(1, Pos). A(2, Pos). A(2, Neg).` program), with the Hasse diagram
///
/// ```text
///          Top
///        /  |  \
///     Neg  Zer  Pos
///        \  |  /
///          Bot
/// ```
///
/// # Example
///
/// ```
/// use flix_lattice::{Lattice, Sign};
///
/// assert_eq!(Sign::Pos.lub(&Sign::Neg), Sign::Top);
/// assert_eq!(Sign::Pos.sum(&Sign::Pos), Sign::Pos);
/// assert_eq!(Sign::Pos.sum(&Sign::Neg), Sign::Top);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum Sign {
    /// No information (least element).
    #[default]
    Bot,
    /// Known negative.
    Neg,
    /// Known zero.
    Zer,
    /// Known positive.
    Pos,
    /// Any sign (greatest element).
    Top,
}

impl Sign {
    /// Abstracts a concrete integer to its sign.
    pub fn alpha(n: i64) -> Self {
        match n.cmp(&0) {
            std::cmp::Ordering::Less => Sign::Neg,
            std::cmp::Ordering::Equal => Sign::Zer,
            std::cmp::Ordering::Greater => Sign::Pos,
        }
    }

    /// Abstract addition. Strict and monotone.
    pub fn sum(&self, other: &Self) -> Self {
        use Sign::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Top, _) | (_, Top) => Top,
            (Zer, x) | (x, Zer) => *x,
            (Pos, Pos) => Pos,
            (Neg, Neg) => Neg,
            (Pos, Neg) | (Neg, Pos) => Top,
        }
    }

    /// Abstract multiplication. Strict and monotone.
    pub fn product(&self, other: &Self) -> Self {
        use Sign::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Zer, _) | (_, Zer) => Zer,
            (Top, _) | (_, Top) => Top,
            (Pos, Pos) | (Neg, Neg) => Pos,
            (Pos, Neg) | (Neg, Pos) => Neg,
        }
    }

    /// Abstract negation. Strict and monotone.
    pub fn negate(&self) -> Self {
        use Sign::*;
        match self {
            Pos => Neg,
            Neg => Pos,
            other => *other,
        }
    }

    /// Monotone filter: can this value be zero?
    pub fn is_maybe_zero(&self) -> bool {
        matches!(self, Sign::Zer | Sign::Top)
    }

    /// Monotone filter: can this value be negative?
    pub fn is_maybe_negative(&self) -> bool {
        matches!(self, Sign::Neg | Sign::Top)
    }
}

impl Lattice for Sign {
    fn bottom() -> Self {
        Sign::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        use Sign::*;
        matches!(
            (self, other),
            (Bot, _) | (_, Top) | (Neg, Neg) | (Zer, Zer) | (Pos, Pos)
        )
    }

    fn lub(&self, other: &Self) -> Self {
        use Sign::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => *x,
            (Top, _) | (_, Top) => Top,
            (a, b) if a == b => *a,
            _ => Top,
        }
    }

    fn glb(&self, other: &Self) -> Self {
        use Sign::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (Top, x) | (x, Top) => *x,
            (a, b) if a == b => *a,
            _ => Bot,
        }
    }
}

impl HasTop for Sign {
    fn top() -> Self {
        Sign::Top
    }
}

impl FiniteLattice for Sign {
    fn elements() -> Vec<Self> {
        vec![Sign::Bot, Sign::Neg, Sign::Zer, Sign::Pos, Sign::Top]
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sign::Bot => "⊥",
            Sign::Neg => "Neg",
            Sign::Zer => "Zer",
            Sign::Pos => "Pos",
            Sign::Top => "⊤",
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
        laws::assert_lattice_laws(&Sign::elements());
    }

    #[test]
    fn height_is_three() {
        assert_eq!(Sign::height(), 3);
    }

    #[test]
    fn sum_sound_wrt_concrete() {
        for a in -4i64..=4 {
            for b in -4i64..=4 {
                assert!(Sign::alpha(a + b).leq(&Sign::alpha(a).sum(&Sign::alpha(b))));
            }
        }
    }

    #[test]
    fn product_exact_on_singletons() {
        for a in -4i64..=4 {
            for b in -4i64..=4 {
                assert_eq!(Sign::alpha(a * b), Sign::alpha(a).product(&Sign::alpha(b)));
            }
        }
    }

    #[test]
    fn ops_strict_and_monotone() {
        let elems = Sign::elements();
        laws::assert_strict_binary(&elems, |a| a[0].sum(&a[1]));
        laws::assert_monotone_binary(&elems, |a| a[0].sum(&a[1]));
        laws::assert_strict_binary(&elems, |a| a[0].product(&a[1]));
        laws::assert_monotone_binary(&elems, |a| a[0].product(&a[1]));
        laws::assert_monotone_filter(&elems, |e| e.is_maybe_zero());
        laws::assert_monotone_filter(&elems, |e| e.is_maybe_negative());
    }

    #[test]
    fn negate_swaps_pos_neg() {
        assert_eq!(Sign::Pos.negate(), Sign::Neg);
        assert_eq!(Sign::Zer.negate(), Sign::Zer);
    }
}
