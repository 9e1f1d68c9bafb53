//! Safety checking of surface-language lattice bindings (§7 of the
//! paper).
//!
//! A `let T<> = (bot, top, leq, lub, glb)` binding is trusted by the
//! solver; if the user's functions do not form a complete lattice, "the
//! semantics of the FLIX program is undefined" (§2.2). This module makes
//! the check §7 proposes: it enumerates elements of each lattice enum
//! (every nullary case, plus payload-bearing cases instantiated with
//! small sample payloads) and runs the engine-level law checker
//! [`flix_core::verify::check_lattice_ops`] against the interpreted
//! operations. An enum whose cases are all nullary is checked on every
//! one of its elements, which proves the laws; any other is checked on a
//! sample.
//!
//! Exposed on the CLI as `flixr --verify`.

use crate::interp::Interpreter;
use crate::lower;
use crate::typeck::{CheckedProgram, Type};
use crate::LangError;
use flix_core::{verify, Value};
use std::fmt;
use std::sync::Arc;

/// Maximum number of payload instantiations sampled per lattice (the law
/// check is cubic in the number of elements). Nullary cases are never
/// capped.
const MAX_PAYLOAD_SAMPLES: usize = 12;

/// How many levels of nested enums a sample's payload descends through
/// their payload cases; below that, a nested enum contributes its nullary
/// cases only. Bounds the samples of a recursive enum.
const MAX_SAMPLE_DEPTH: usize = 3;

/// What [`check_lattices`] checked one lattice binding on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    /// The lattice's type name.
    pub lattice: String,
    /// Whether the elements were all of the type's elements: every case
    /// is nullary, so the check is a proof.
    pub exhaustive: bool,
    /// How many elements the laws were checked on.
    pub elements: usize,
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (verdict, how) = match self.exhaustive {
            true => ("the lattice laws hold", "exhaustive"),
            false => ("no lattice law broken", "sampled"),
        };
        let (lattice, n) = (&self.lattice, self.elements);
        write!(f, "{lattice}<>: {verdict}, {how} ({n} elements)")
    }
}

/// Checks every lattice binding of a checked program against the
/// complete-lattice laws, over its enum's elements, and reports, in type
/// name order, what each binding was checked on.
///
/// # Errors
///
/// Returns a [`LangError`] naming the lattice type and the violated law;
/// of several broken bindings, the one whose type name sorts first.
pub fn check_lattices(checked: &Arc<CheckedProgram>) -> Result<Vec<Coverage>, LangError> {
    let interp = Interpreter::new(Arc::clone(checked));
    let mut bindings: Vec<_> = checked.lattices.iter().collect();
    bindings.sort_unstable_by_key(|(ty, _)| *ty);
    let mut report = Vec::new();
    for (ty, bind) in bindings {
        let ops = lower::ops_for_binding(&interp, ty, bind);
        let (samples, exhaustive) = sample_elements(checked, ty);
        if let Err(violation) = verify::check_lattice_ops(&ops, &samples) {
            return Err(LangError::ty(
                bind.pos,
                format!("the {ty}<> binding is not a lattice: {violation}"),
            ));
        }
        report.push(Coverage {
            lattice: ty.clone(),
            exhaustive,
            elements: samples.len(),
        });
    }
    Ok(report)
}

/// Generates elements of an enum type, and whether they are all of them
/// (every case is nullary). Every nullary case is an element. Payload
/// cases are instantiated with small payload samples, round by round —
/// each case's first instantiation before any case's second — until
/// [`MAX_PAYLOAD_SAMPLES`] are taken.
fn sample_elements(checked: &CheckedProgram, enum_name: &str) -> (Vec<Value>, bool) {
    let Some(info) = checked.enums.get(enum_name) else {
        return (Vec::new(), false);
    };
    let mut cases: Vec<_> = info.cases.iter().collect();
    cases.sort_by_key(|(name, _)| (*name).clone());
    let mut out = Vec::new();
    let mut instantiations = Vec::new();
    for (case, payload) in cases {
        if payload.is_empty() {
            out.push(Value::tag0(case.as_str()));
            continue;
        }
        instantiations.push(instances(checked, case, payload, 2, MAX_SAMPLE_DEPTH));
    }
    let exhaustive = instantiations.is_empty();
    let rounds = instantiations.iter().map(Vec::len).max().unwrap_or(0);
    let round_robin = (0..rounds).flat_map(|i| instantiations.iter().filter_map(move |v| v.get(i)));
    out.extend(round_robin.take(MAX_PAYLOAD_SAMPLES).cloned());
    (out, exhaustive)
}

/// The elements `case(payload)` of an enum, the payload instantiated
/// with [`payload_samples`].
fn instances(
    checked: &CheckedProgram,
    case: &str,
    payload: &[Type],
    per_type: usize,
    depth: usize,
) -> Vec<Value> {
    let combos = payload_samples(checked, payload, per_type, depth).into_iter();
    let instance = |combo: Vec<Value>| match <[Value; 1]>::try_from(combo) {
        Ok([one]) => Value::tag(case, one),
        Err(combo) => Value::tag(case, Value::tuple(combo)),
    };
    combos.map(instance).collect()
}

/// Small sample values per type, combined across a payload (odometer over
/// `per_type` choices per field); `depth` as for [`type_samples`].
fn payload_samples(
    checked: &CheckedProgram,
    payload: &[Type],
    per_type: usize,
    depth: usize,
) -> Vec<Vec<Value>> {
    let choices: Vec<Vec<Value>> = payload
        .iter()
        .map(|t| type_samples(checked, t, per_type, depth))
        .collect();
    let mut out = vec![Vec::new()];
    for field in choices {
        let mut next = Vec::new();
        for prefix in &out {
            for v in &field {
                let mut row = prefix.clone();
                row.push(v.clone());
                next.push(row);
            }
        }
        out = next;
    }
    out
}

/// Up to `per_type` small values of type `t`. A nested enum gives its
/// nullary cases first, then — while `depth` levels of nesting remain —
/// instantiations of its payload cases, so that an enum with no nullary
/// case has samples too.
fn type_samples(checked: &CheckedProgram, t: &Type, per_type: usize, depth: usize) -> Vec<Value> {
    let all = match t {
        Type::Int => vec![Value::Int(0), Value::Int(1), Value::Int(-1)],
        Type::Str => vec![Value::from("a"), Value::from("b")],
        Type::Bool => vec![Value::Bool(false), Value::Bool(true)],
        Type::Unit => vec![Value::Unit],
        Type::Enum(name) => {
            let Some(info) = checked.enums.get(name) else {
                return Vec::new();
            };
            let mut cases: Vec<_> = info.cases.iter().collect();
            cases.sort_by_key(|(n, _)| (*n).clone());
            let (nullary, payload): (Vec<_>, Vec<_>) = cases
                .into_iter()
                .partition(|(_, payload)| payload.is_empty());
            let mut vals: Vec<Value> = nullary
                .into_iter()
                .map(|(case, _)| Value::tag0(case.as_str()))
                .collect();
            for (case, payload) in payload {
                if depth == 0 || vals.len() >= per_type {
                    break;
                }
                vals.extend(instances(checked, case, payload, per_type, depth - 1));
            }
            vals
        }
        Type::Tuple(items) => {
            return payload_samples(checked, items, per_type, depth)
                .into_iter()
                .map(Value::tuple)
                .take(per_type)
                .collect()
        }
        Type::Set(_) | Type::Never => vec![Value::set([])],
    };
    all.into_iter().take(per_type).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;

    fn checked(src: &str) -> Arc<CheckedProgram> {
        Arc::new(check(&parse(src).expect("parses")).expect("checks"))
    }

    const GOOD_PARITY: &str = r#"
        enum Parity { case Top, case Even, case Odd, case Bot }
        def leq(e1: Parity, e2: Parity): Bool = match (e1, e2) with {
          case (Parity.Bot, _) => true
          case (Parity.Even, Parity.Even) => true
          case (Parity.Odd, Parity.Odd) => true
          case (_, Parity.Top) => true
          case _ => false
        }
        def lub(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
          case (Parity.Bot, x) => x
          case (x, Parity.Bot) => x
          case (Parity.Even, Parity.Even) => Parity.Even
          case (Parity.Odd, Parity.Odd) => Parity.Odd
          case _ => Parity.Top
        }
        def glb(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
          case (Parity.Top, x) => x
          case (x, Parity.Top) => x
          case (Parity.Even, Parity.Even) => Parity.Even
          case (Parity.Odd, Parity.Odd) => Parity.Odd
          case _ => Parity.Bot
        }
        let Parity<> = (Parity.Bot, Parity.Top, leq, lub, glb);
    "#;

    #[test]
    fn lawful_lattice_passes() {
        let report = check_lattices(&checked(GOOD_PARITY)).expect("parity is lawful");
        let parity = Coverage {
            lattice: "Parity".to_string(),
            exhaustive: true,
            elements: 4,
        };
        assert_eq!(report, vec![parity]);
        assert_eq!(
            report[0].to_string(),
            "Parity<>: the lattice laws hold, exhaustive (4 elements)"
        );
    }

    #[test]
    fn broken_lub_is_rejected_with_position() {
        // A lub that returns Bot for incomparable elements is not an
        // upper bound operator at all.
        let src = r#"
            enum P { case Top, case A, case B, case Bot }
            def leq(x: P, y: P): Bool = match (x, y) with {
              case (P.Bot, _) => true
              case (_, P.Top) => true
              case (P.A, P.A) => true
              case (P.B, P.B) => true
              case _ => false
            }
            def lub(x: P, y: P): P = match (x, y) with {
              case (P.Bot, z) => z
              case (z, P.Bot) => z
              case _ => P.Bot
            }
            def glb(x: P, y: P): P = match (x, y) with {
              case (P.Top, z) => z
              case (z, P.Top) => z
              case _ => P.Bot
            }
            let P<> = (P.Bot, P.Top, leq, lub, glb);
        "#;
        let err = check_lattices(&checked(src)).expect_err("must reject");
        assert!(err.to_string().contains("not a lattice"), "{err}");
        assert!(err.to_string().contains("upper bound"), "{err}");
    }

    #[test]
    fn payload_cases_are_sampled() {
        // The SULattice with Single(Str): samples must include Single("a")
        // and Single("b") so the flat-lattice structure is exercised.
        let src = r#"
            enum S { case Top, case Single(Str), case Bottom }
            def leq(x: S, y: S): Bool = match (x, y) with {
              case (S.Bottom, _) => true
              case (_, S.Top) => true
              case (S.Single(a), S.Single(b)) => a == b
              case _ => false
            }
            def lub(x: S, y: S): S = match (x, y) with {
              case (S.Bottom, z) => z
              case (z, S.Bottom) => z
              case (S.Single(a), S.Single(b)) => if (a == b) S.Single(a) else S.Top
              case _ => S.Top
            }
            def glb(x: S, y: S): S = match (x, y) with {
              case (S.Top, z) => z
              case (z, S.Top) => z
              case (S.Single(a), S.Single(b)) => if (a == b) S.Single(a) else S.Bottom
              case _ => S.Bottom
            }
            let S<> = (S.Bottom, S.Top, leq, lub, glb);
        "#;
        let report = check_lattices(&checked(src)).expect("SULattice is lawful");
        assert_eq!(
            report[0].to_string(),
            "S<>: no lattice law broken, sampled (4 elements)"
        );
    }

    #[test]
    fn every_payload_case_is_sampled_once_before_any_twice() {
        // Thirteen payload cases of two instantiations each, and two
        // nullary cases: both nullary cases and the first instantiation
        // of twelve payload cases fill the sample.
        let cases: Vec<String> = (0..13).map(|i| format!("case C{i:02}(Bool)")).collect();
        let src = format!("enum E {{ case Bot, {}, case Top }}", cases.join(", "));
        let (samples, exhaustive) = sample_elements(&checked(&src), "E");
        assert!(!exhaustive);
        assert_eq!(samples.len(), 2 + MAX_PAYLOAD_SAMPLES);
        let mut tags: Vec<&str> = samples.iter().filter_map(Value::tag_name).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), samples.len(), "{samples:?}");
        assert!(tags.contains(&"Bot") && tags.contains(&"Top"), "{tags:?}");
    }
}
