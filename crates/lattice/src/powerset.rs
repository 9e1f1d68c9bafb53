//! The powerset lattice.

use crate::{HasTop, Lattice};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

/// The powerset lattice over element type `T`, ordered by inclusion.
///
/// The paper's introduction observes that Datalog is "inherently limited to
/// rules on relations, i.e. powersets of tuples"; this type makes that
/// implicit lattice explicit so it can be compared head-to-head with richer
/// domains (Table 1's DLV column — `tables table1`, flixbench's
/// `su_table1` — measures the §1 claim that embedding a lattice in a
/// powerset gives "the worst of both worlds").
///
/// Because the universe of `T` may be unbounded, `⊤` is a distinguished
/// [`PowerSet::Univ`] marker absorbing all joins, mirroring the paper's
/// encoding trick of "a specially designated ⊤ element".
///
/// # Example
///
/// ```
/// use flix_lattice::{Lattice, PowerSet};
///
/// let a = PowerSet::from_iter([1, 2]);
/// let b = PowerSet::from_iter([2, 3]);
/// assert_eq!(a.lub(&b), PowerSet::from_iter([1, 2, 3]));
/// assert_eq!(a.glb(&b), PowerSet::from_iter([2]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum PowerSet<T: Ord> {
    /// The empty set (least element).
    #[default]
    Empty,
    /// A finite, non-empty set of elements.
    Set(BTreeSet<T>),
    /// The whole universe (greatest element).
    Univ,
}

impl<T: Ord + Clone + Hash + fmt::Debug> PowerSet<T> {
    /// Creates the empty set (the least element).
    pub fn empty() -> Self {
        PowerSet::Empty
    }

    /// Creates a singleton set.
    pub fn singleton(x: T) -> Self {
        PowerSet::from_iter([x])
    }

    /// Returns the number of elements, or `None` for the universe.
    pub fn len(&self) -> Option<usize> {
        match self {
            PowerSet::Empty => Some(0),
            PowerSet::Set(s) => Some(s.len()),
            PowerSet::Univ => None,
        }
    }

    /// Returns `true` if this is the empty set.
    pub fn is_empty(&self) -> bool {
        matches!(self, PowerSet::Empty)
    }

    /// Returns `true` if `x` is a member (the universe contains everything).
    pub fn contains(&self, x: &T) -> bool {
        match self {
            PowerSet::Empty => false,
            PowerSet::Set(s) => s.contains(x),
            PowerSet::Univ => true,
        }
    }

    /// Iterates the members of a finite set; `None` for the universe.
    pub fn iter(&self) -> Option<impl Iterator<Item = &T>> {
        match self {
            PowerSet::Empty => Some(None.into_iter().flatten()),
            PowerSet::Set(s) => Some(Some(s.iter()).into_iter().flatten()),
            PowerSet::Univ => None,
        }
    }

    fn normalize(set: BTreeSet<T>) -> Self {
        if set.is_empty() {
            PowerSet::Empty
        } else {
            PowerSet::Set(set)
        }
    }
}

impl<T: Ord + Clone + Hash + fmt::Debug> FromIterator<T> for PowerSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::normalize(iter.into_iter().collect())
    }
}

impl<T: Ord + Clone + Hash + fmt::Debug> Lattice for PowerSet<T> {
    fn bottom() -> Self {
        PowerSet::Empty
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (PowerSet::Empty, _) | (_, PowerSet::Univ) => true,
            (PowerSet::Univ, _) => false,
            (PowerSet::Set(a), PowerSet::Set(b)) => a.is_subset(b),
            (PowerSet::Set(_), PowerSet::Empty) => false,
        }
    }

    fn lub(&self, other: &Self) -> Self {
        match (self, other) {
            (PowerSet::Univ, _) | (_, PowerSet::Univ) => PowerSet::Univ,
            (PowerSet::Empty, x) | (x, PowerSet::Empty) => x.clone(),
            (PowerSet::Set(a), PowerSet::Set(b)) => PowerSet::Set(a.union(b).cloned().collect()),
        }
    }

    fn glb(&self, other: &Self) -> Self {
        match (self, other) {
            (PowerSet::Empty, _) | (_, PowerSet::Empty) => PowerSet::Empty,
            (PowerSet::Univ, x) | (x, PowerSet::Univ) => x.clone(),
            (PowerSet::Set(a), PowerSet::Set(b)) => {
                Self::normalize(a.intersection(b).cloned().collect())
            }
        }
    }
}

impl<T: Ord + Clone + Hash + fmt::Debug> HasTop for PowerSet<T> {
    fn top() -> Self {
        PowerSet::Univ
    }
}

impl<T: Ord + fmt::Display> fmt::Display for PowerSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerSet::Empty => f.write_str("{}"),
            PowerSet::Set(s) => {
                f.write_str("{")?;
                for (i, x) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("}")
            }
            PowerSet::Univ => f.write_str("𝒰"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn sample() -> Vec<PowerSet<u8>> {
        let mut v = vec![PowerSet::empty(), PowerSet::Univ];
        // All subsets of {1, 2, 3}.
        for mask in 1u8..8 {
            v.push(PowerSet::from_iter(
                (0..3).filter(|b| mask & (1 << b) != 0).map(|b| b + 1),
            ));
        }
        v
    }

    #[test]
    fn lattice_laws_on_subsets_of_three() {
        laws::assert_lattice_laws(&sample());
    }

    #[test]
    fn empty_set_normalizes_to_bottom() {
        assert_eq!(PowerSet::<u8>::from_iter([]), PowerSet::bottom());
        let a = PowerSet::from_iter([1u8]);
        let b = PowerSet::from_iter([2u8]);
        assert_eq!(a.glb(&b), PowerSet::bottom());
    }

    #[test]
    fn universe_absorbs() {
        let a = PowerSet::from_iter([1u8, 2]);
        assert_eq!(a.lub(&PowerSet::Univ), PowerSet::Univ);
        assert_eq!(a.glb(&PowerSet::Univ), a);
        assert!(PowerSet::<u8>::Univ.contains(&99));
    }

    #[test]
    fn iter_and_len() {
        let a = PowerSet::from_iter([3u8, 1, 2]);
        assert_eq!(a.len(), Some(3));
        let collected: Vec<u8> = a.iter().expect("finite").copied().collect();
        assert_eq!(collected, vec![1, 2, 3]);
        assert!(PowerSet::<u8>::Univ.iter().is_none());
    }
}
