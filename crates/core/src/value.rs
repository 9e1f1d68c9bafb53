//! The dynamic value representation of the FLIX engine.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A runtime value of the FLIX engine.
///
/// §3.2 of the paper extends the values of Datalog "with enums (tagged
/// unions), tuples, and sets"; `Value` is exactly that universe, plus the
/// primitive integers, booleans and strings of Datalog. Lattice elements
/// are ordinary values (e.g. the parity element `Odd` is
/// `Value::tag("Odd", Value::Unit)`), which is what lets one engine serve
/// both the surface language and Rust-native analyses.
///
/// `Value` has a *total* order ([`Ord`]) used only for indexing and
/// canonical set representation — it is unrelated to any lattice partial
/// order, which is supplied separately via
/// [`LatticeOps`](crate::LatticeOps).
///
/// Values are cheap to clone: strings, tag payloads, tuples and sets are
/// reference-counted.
///
/// # Example
///
/// ```
/// use flix_core::Value;
///
/// let v = Value::tuple([Value::from(1), Value::from("x")]);
/// assert_eq!(v.to_string(), "(1, \"x\")");
/// ```
// The manual `PartialEq` below is observationally the derived one (the
// pointer checks only short-circuit structural equality), so the derived
// `Hash` remains consistent with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Value {
    /// The unit value.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A string. Equal strings compare equal whatever their allocations;
    /// the strings a solution hands back share the one allocation per
    /// string of its store's table, and compare by pointer.
    Str(Arc<str>),
    /// A tagged value (an `enum` constructor applied to a payload).
    Tag(Arc<str>, Arc<Value>),
    /// A tuple of values.
    Tuple(Arc<[Value]>),
    /// A finite set of values.
    Set(Arc<BTreeSet<Value>>),
}

// Equality is structural, with pointer-identity fast paths on the
// reference-counted variants: a store decodes each string and
// constructor name it holds to one allocation (and equal rows stored
// once share theirs), so comparing values read back from one store is
// usually a single pointer compare. The fallback compares content, so
// equal values built apart still compare equal.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Tag(an, ap), Value::Tag(bn, bp)) => {
                (Arc::ptr_eq(an, bn) || an == bn) && (Arc::ptr_eq(ap, bp) || ap == bp)
            }
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Set(a), Value::Set(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

/// The deepest nesting of [`Value`]s a model holds: a constructor, a
/// tuple or a non-empty set is one level above the values it holds, so
/// `Fin(3)` is one level deep. A fact, a delta, a function's result and
/// a lattice's join are refused past it, and it is the depth the
/// persistence formats read back (DESIGN §14): what the engine writes,
/// it reads.
pub const MAX_VALUE_DEPTH: usize = 64;

impl Value {
    /// Whether this value nests deeper than [`MAX_VALUE_DEPTH`]. Walks no
    /// deeper than the bound.
    pub fn is_too_deep(&self) -> bool {
        self.deeper_than(MAX_VALUE_DEPTH)
    }

    fn deeper_than(&self, levels: usize) -> bool {
        let below = |v: &Value| levels == 0 || v.deeper_than(levels - 1);
        match self {
            Value::Tag(_, payload) => below(payload),
            Value::Tuple(items) => items.iter().any(below),
            Value::Set(items) => items.iter().any(below),
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Str(_) => false,
        }
    }

    /// Creates a string value in an allocation of its own. The fact
    /// store interns a string when it first stores it, in its own table:
    /// an index there is the string's slot, a single machine word.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Creates a tagged value `Tag(payload)`.
    ///
    /// ```
    /// use flix_core::Value;
    /// let odd = Value::tag("Odd", Value::Unit);
    /// assert_eq!(odd.tag_name(), Some("Odd"));
    /// ```
    pub fn tag(name: impl Into<Arc<str>>, payload: Value) -> Value {
        Value::Tag(name.into(), Arc::new(payload))
    }

    /// Creates a nullary tagged value `Tag` (unit payload).
    pub fn tag0(name: impl Into<Arc<str>>) -> Value {
        Value::tag(name, Value::Unit)
    }

    /// Creates a tuple value.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(items.into_iter().collect())
    }

    /// Creates a set value.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(Arc::new(items.into_iter().collect()))
    }

    /// Returns the tag name if this is a tagged value.
    pub fn tag_name(&self) -> Option<&str> {
        match self {
            Value::Tag(name, _) => Some(name),
            _ => None,
        }
    }

    /// Returns the payload if this is a tagged value.
    pub fn tag_payload(&self) -> Option<&Value> {
        match self {
            Value::Tag(_, payload) => Some(payload),
            _ => None,
        }
    }

    /// Returns the integer if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the tuple components if this is a tuple value.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the set elements if this is a set value.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// Returns `true` if this is `Bool(true)`.
    ///
    /// Used by the engine to interpret the result of a filter function.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::Int(n.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tag(name, payload) => match &**payload {
                Value::Unit => write!(f, "{name}"),
                Value::Tuple(items) => {
                    write!(f, "{name}(")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    f.write_str(")")
                }
                other => write!(f, "{name}({other})"),
            },
            Value::Tuple(items) => {
                f.write_str("(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            Value::Set(items) => {
                f.write_str("#{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(String::from("hi")), Value::from("hi"));
    }

    #[test]
    fn accessors_reject_wrong_variants() {
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::Int(3).as_bool(), None);
        assert_eq!(Value::Bool(true).as_str(), None);
        assert_eq!(Value::Int(1).as_tuple(), None);
        assert_eq!(Value::Int(1).as_set(), None);
    }

    #[test]
    fn tags() {
        let v = Value::tag("Single", Value::from("p"));
        assert_eq!(v.tag_name(), Some("Single"));
        assert_eq!(v.tag_payload(), Some(&Value::from("p")));
        assert_eq!(Value::tag0("Top").tag_payload(), Some(&Value::Unit));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::tag0("Odd").to_string(), "Odd");
        assert_eq!(
            Value::tag("Single", Value::from("p")).to_string(),
            "Single(\"p\")"
        );
        assert_eq!(
            Value::tag("Pair", Value::tuple([Value::from(1), Value::from(2)])).to_string(),
            "Pair(1, 2)"
        );
        assert_eq!(
            Value::set([Value::from(2), Value::from(1)]).to_string(),
            "#{1, 2}"
        );
    }

    #[test]
    fn sets_are_canonical() {
        let a = Value::set([Value::from(1), Value::from(2), Value::from(1)]);
        let b = Value::set([Value::from(2), Value::from(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn total_order_is_consistent() {
        let mut values = vec![
            Value::Unit,
            Value::from(false),
            Value::from(3),
            Value::from("a"),
            Value::tag0("T"),
            Value::tuple([Value::from(1)]),
            Value::set([]),
        ];
        values.sort();
        // Sorting must be stable under equality and not panic; spot-check
        // reflexivity of the derived order.
        for v in &values {
            assert_eq!(v.cmp(v), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn strings_are_interned() {
        use crate::database::{decode, encode_mut, SpillTable};
        // Built apart, equal by content; one slot and one allocation once
        // a store holds them.
        let a = Value::from("interned-by-the-store");
        let b = Value::str(String::from("interned-by-the-store"));
        assert_eq!(a, b);
        let mut spill = SpillTable::default();
        let slot = encode_mut(&a, &mut spill);
        assert_eq!(encode_mut(&b, &mut spill), slot);
        match (decode(slot, &spill), &a) {
            (Value::Str(x), Value::Str(y)) => {
                assert!(Arc::ptr_eq(&x, y), "the store keeps the first allocation")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn is_true_only_for_bool_true() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Int(1).is_true());
    }
}
