//! The Strong Update lattice (§4.1 of the paper, Figure 4).

use crate::{HasTop, Lattice};
use std::fmt;
use std::sync::Arc;

/// The Strong Update lattice of Lhoták & Chung (POPL 2011), as used in
/// Figure 4 of the FLIX paper.
///
/// An element abstracts the contents of an abstract memory location at a
/// program point in the flow-*sensitive* portion of the analysis:
///
/// * [`SuLattice::Bottom`] — the location has not been written (yet),
/// * [`SuLattice::Single`] — the location definitely points to exactly one
///   abstract object (a *singleton* points-to set, eligible for strong
///   updates),
/// * [`SuLattice::Top`] — the location may point to many objects; the
///   analysis falls back to the flow-insensitive points-to set `Pt`.
///
/// The [`SuLattice::filter`] method is the `filter` monotone filter
/// function of Figure 4: it implements the `PtSU` case split, selecting
/// `b ∈ pt(a)` only when the flow-sensitive value does not rule `b` out.
///
/// # Example
///
/// ```
/// use flix_lattice::{Lattice, SuLattice};
///
/// let single = SuLattice::single("objA");
/// assert!(single.filter("objA"));
/// assert!(!single.filter("objB"));
/// assert!(SuLattice::Top.filter("objB"));
/// assert_eq!(single.lub(&SuLattice::single("objB")), SuLattice::Top);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum SuLattice {
    /// The location is unwritten (least element).
    #[default]
    Bottom,
    /// The location points to exactly this abstract object.
    Single(Arc<str>),
    /// The location may point to many objects (greatest element).
    Top,
}

impl SuLattice {
    /// Creates a singleton element for the named abstract object.
    pub fn single(obj: impl Into<Arc<str>>) -> Self {
        SuLattice::Single(obj.into())
    }

    /// The monotone filter function of Figure 4.
    ///
    /// Returns `true` when object `b` may be the value of a location whose
    /// flow-sensitive abstraction is `self`:
    ///
    /// ```text
    /// case Bottom    => false
    /// case Single(p) => b == p
    /// case Top       => true
    /// ```
    ///
    /// Monotone over `false < true`: moving `self` up the lattice can only
    /// turn `false` into `true`.
    pub fn filter(&self, b: &str) -> bool {
        match self {
            SuLattice::Bottom => false,
            SuLattice::Single(p) => &**p == b,
            SuLattice::Top => true,
        }
    }

    /// Returns the singleton object name, if any.
    pub fn as_single(&self) -> Option<&str> {
        match self {
            SuLattice::Single(p) => Some(p),
            _ => None,
        }
    }
}

impl Lattice for SuLattice {
    fn bottom() -> Self {
        SuLattice::Bottom
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (SuLattice::Bottom, _) | (_, SuLattice::Top) => true,
            (SuLattice::Single(a), SuLattice::Single(b)) => a == b,
            _ => false,
        }
    }

    fn lub(&self, other: &Self) -> Self {
        match (self, other) {
            (SuLattice::Bottom, x) | (x, SuLattice::Bottom) => x.clone(),
            (SuLattice::Top, _) | (_, SuLattice::Top) => SuLattice::Top,
            (SuLattice::Single(a), SuLattice::Single(b)) if a == b => self.clone(),
            _ => SuLattice::Top,
        }
    }

    fn glb(&self, other: &Self) -> Self {
        match (self, other) {
            (SuLattice::Bottom, _) | (_, SuLattice::Bottom) => SuLattice::Bottom,
            (SuLattice::Top, x) | (x, SuLattice::Top) => x.clone(),
            (SuLattice::Single(a), SuLattice::Single(b)) if a == b => self.clone(),
            _ => SuLattice::Bottom,
        }
    }
}

impl HasTop for SuLattice {
    fn top() -> Self {
        SuLattice::Top
    }
}

impl fmt::Display for SuLattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuLattice::Bottom => f.write_str("⊥"),
            SuLattice::Single(p) => write!(f, "{{{p}}}"),
            SuLattice::Top => f.write_str("⊤"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn sample() -> Vec<SuLattice> {
        vec![
            SuLattice::Bottom,
            SuLattice::single("a"),
            SuLattice::single("b"),
            SuLattice::single("c"),
            SuLattice::Top,
        ]
    }

    #[test]
    fn lattice_laws_on_three_objects() {
        laws::assert_lattice_laws(&sample());
    }

    #[test]
    fn it_is_a_flat_lattice() {
        assert_eq!(
            SuLattice::single("a").lub(&SuLattice::single("b")),
            SuLattice::Top
        );
        assert_eq!(
            SuLattice::single("a").glb(&SuLattice::single("b")),
            SuLattice::Bottom
        );
        assert_eq!(
            SuLattice::single("a").lub(&SuLattice::single("a")),
            SuLattice::single("a")
        );
    }

    #[test]
    fn filter_is_monotone() {
        for b in ["a", "b", "zzz"] {
            laws::assert_monotone_filter(&sample(), |e| e.filter(b));
        }
    }

    #[test]
    fn filter_matches_figure_4() {
        assert!(!SuLattice::Bottom.filter("a"));
        assert!(SuLattice::single("a").filter("a"));
        assert!(!SuLattice::single("a").filter("b"));
        assert!(SuLattice::Top.filter("anything"));
    }
}
