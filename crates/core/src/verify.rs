//! Safety verification of lattices and functions (§7 of the paper).
//!
//! "A FLIX programmer may inadvertently violate one or more of the
//! required properties when specifying a lattice or function. We plan to
//! investigate the use of automatic program verification techniques to
//! guarantee that FLIX programs are meaningful." This module is that
//! guarantee in testing form: given sample elements for each lattice, it
//! checks the complete-lattice laws of every `lat` predicate's
//! [`LatticeOps`] and the strictness/monotonicity obligations of
//! functions used as transfer functions and filters.
//!
//! The engine cannot see *through* a [`LatticeOps`] closure, so the check
//! is property-based: exhaustive over the provided samples (a proof when
//! the samples enumerate a finite lattice, a refutation search otherwise).
//! It is the repository's one law checker. It runs at the dynamic-value
//! level, where the engine calls a lattice: on the surface language's
//! interpreted lattices (`flixr --verify`) and, in this module's tests,
//! on every typed lattice of `flix_lattice` through its [`ValueLattice`]
//! adaptor.
//!
//! [`ValueLattice`]: crate::ValueLattice

use crate::database::{KindWords, SpillTable};
use crate::ops::OpsPanic;
use crate::{LatticeKind, LatticeOps, Names, Value};
use std::fmt;

/// A violation found by [`check_lattice_ops`] or the function checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// `leq` is not reflexive at the element.
    NotReflexive(Value),
    /// `leq` is not antisymmetric at the pair (both directions hold but
    /// the values differ).
    NotAntisymmetric(Value, Value),
    /// `leq` is not transitive at the triple.
    NotTransitive(Value, Value, Value),
    /// `bottom()` is not below the element.
    BottomNotLeast(Value),
    /// `top()` is not above the element.
    TopNotGreatest(Value),
    /// `lub(a, b)` is not an upper bound of the pair.
    LubNotUpperBound(Value, Value),
    /// `lub(a, b)` is not the least sampled upper bound; carries the
    /// smaller upper bound found.
    LubNotLeast(Value, Value, Value),
    /// `glb(a, b)` is not a lower bound of the pair.
    GlbNotLowerBound(Value, Value),
    /// `glb(a, b)` is not the greatest sampled lower bound.
    GlbNotGreatest(Value, Value, Value),
    /// A function is not monotone: the inputs are ordered, the outputs
    /// are not.
    NotMonotone {
        /// Inputs before the bump.
        lo: Vec<Value>,
        /// Inputs after bumping one argument up the order.
        hi: Vec<Value>,
    },
    /// A function applied to `⊥` did not return `⊥`.
    NotStrict(Vec<Value>),
    /// A filter function returned a non-boolean value.
    FilterNotBoolean(Vec<Value>, Value),
    /// A filter is not monotone over `false < true`.
    FilterNotMonotone {
        /// Inputs before the bump.
        lo: Vec<Value>,
        /// Inputs after the bump.
        hi: Vec<Value>,
    },
    /// A choice function returned something other than a set of tuples of
    /// the expected arity.
    ChoiceMalformed(Vec<Value>, Value),
    /// A choice function's word form
    /// ([`ProgramBuilder::choice_form`](crate::ProgramBuilder::choice_form))
    /// wrote a word that is not a slot, or a number of words that is not a
    /// multiple of its width.
    ChoiceWordMalformed {
        /// The function's name.
        function: String,
        /// What it wrote.
        found: String,
    },
    /// A predicate's fact store ran out of row ids (the columnar store
    /// addresses rows with `u32` indices). Carries the row count at
    /// which the insert was refused.
    StoreFull(u64),
    /// A lattice declares a built-in [`LatticeKind`] its own operations do
    /// not implement — found, before any solve, on the elements sampled
    /// with the declaration ([`LatticeOps::with_kind`]) — or a value that
    /// is not one of the kind's elements reached a cell of it.
    KindMismatch {
        /// The lattice's name.
        lattice: String,
        /// The kind it declares.
        kind: LatticeKind,
        /// What disagrees.
        found: String,
    },
    /// A function, or a lattice operation, returned a value nested deeper
    /// than [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH): no model holds
    /// one, since no snapshot or log could read it back.
    ValueTooDeep {
        /// The function's name.
        function: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Violation::*;
        match self {
            NotReflexive(a) => write!(f, "leq is not reflexive at {a}"),
            NotAntisymmetric(a, b) => write!(f, "leq is not antisymmetric at {a}, {b}"),
            NotTransitive(a, b, c) => {
                write!(f, "leq is not transitive at {a} ⊑ {b} ⊑ {c}")
            }
            BottomNotLeast(a) => write!(f, "bottom is not below {a}"),
            TopNotGreatest(a) => write!(f, "top is not above {a}"),
            LubNotUpperBound(a, b) => write!(f, "lub({a}, {b}) is not an upper bound"),
            LubNotLeast(a, b, u) => {
                write!(
                    f,
                    "lub({a}, {b}) is not least: {u} is a smaller upper bound"
                )
            }
            GlbNotLowerBound(a, b) => write!(f, "glb({a}, {b}) is not a lower bound"),
            GlbNotGreatest(a, b, l) => {
                write!(
                    f,
                    "glb({a}, {b}) is not greatest: {l} is a larger lower bound"
                )
            }
            NotMonotone { lo, hi } => write!(
                f,
                "function is not monotone: f({lo:?}) ⋢ f({hi:?}) though inputs are ordered"
            ),
            NotStrict(args) => write!(f, "function is not strict on {args:?}"),
            FilterNotBoolean(args, out) => {
                write!(f, "filter returned non-boolean {out} on {args:?}")
            }
            FilterNotMonotone { lo, hi } => write!(
                f,
                "filter is not monotone: true at {lo:?} but false at {hi:?}"
            ),
            ChoiceMalformed(args, out) => {
                write!(
                    f,
                    "choice function returned malformed result {out} on {args:?}"
                )
            }
            ChoiceWordMalformed { function, found } => {
                write!(f, "choice function {function}'s word form {found}")
            }
            StoreFull(rows) => {
                write!(
                    f,
                    "fact store is full: row-id capacity reached at {rows} rows"
                )
            }
            KindMismatch {
                lattice,
                kind,
                found,
            } => write!(f, "lattice {lattice} declares the {kind} kind, but {found}"),
            ValueTooDeep { function } => write!(
                f,
                "{function} returned a value nested deeper than {} levels",
                crate::MAX_VALUE_DEPTH
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks the complete-lattice laws of `ops` over the sampled elements.
///
/// The samples should include `ops.bottom()` (it is added if absent).
/// Runs `O(n^3)` operations over the sample set.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_lattice_ops(ops: &LatticeOps, samples: &[Value]) -> Result<(), Violation> {
    let mut elems: Vec<Value> = samples.to_vec();
    if !elems.contains(ops.bottom()) {
        elems.push(ops.bottom().clone());
    }
    if let Some(top) = ops.top() {
        if !elems.contains(top) {
            elems.push(top.clone());
        }
    }

    for a in &elems {
        if !ops.leq(a, a) {
            return Err(Violation::NotReflexive(a.clone()));
        }
        if !ops.leq(ops.bottom(), a) {
            return Err(Violation::BottomNotLeast(a.clone()));
        }
        if let Some(top) = ops.top() {
            if !ops.leq(a, top) {
                return Err(Violation::TopNotGreatest(a.clone()));
            }
        }
    }
    for a in &elems {
        for b in &elems {
            if ops.leq(a, b) && ops.leq(b, a) && a != b {
                return Err(Violation::NotAntisymmetric(a.clone(), b.clone()));
            }
            let j = ops.lub(a, b);
            if !ops.leq(a, &j) || !ops.leq(b, &j) {
                return Err(Violation::LubNotUpperBound(a.clone(), b.clone()));
            }
            let m = ops.glb(a, b);
            if !ops.leq(&m, a) || !ops.leq(&m, b) {
                return Err(Violation::GlbNotLowerBound(a.clone(), b.clone()));
            }
            for c in &elems {
                if ops.leq(a, b) && ops.leq(b, c) && !ops.leq(a, c) {
                    return Err(Violation::NotTransitive(a.clone(), b.clone(), c.clone()));
                }
                if ops.leq(a, c) && ops.leq(b, c) && !ops.leq(&j, c) {
                    return Err(Violation::LubNotLeast(a.clone(), b.clone(), c.clone()));
                }
                if ops.leq(c, a) && ops.leq(c, b) && !ops.leq(c, &m) {
                    return Err(Violation::GlbNotGreatest(a.clone(), b.clone(), c.clone()));
                }
            }
        }
    }
    Ok(())
}

/// Checks that an n-ary transfer function over `ops` is strict (§3.3:
/// `f(..., ⊥, ...) = ⊥`) and monotone in every argument, over all
/// argument vectors drawn from the samples.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_transfer_function(
    ops: &LatticeOps,
    arity: usize,
    f: impl Fn(&[Value]) -> Value,
    samples: &[Value],
) -> Result<(), Violation> {
    let elems = with_bottom(ops, samples);
    for args in combinations(&elems, arity) {
        let out = f(&args);
        if args.iter().any(|a| ops.is_bottom(a)) && !ops.is_bottom(&out) {
            return Err(Violation::NotStrict(args.clone()));
        }
        for i in 0..arity {
            for e in &elems {
                if !ops.leq(&args[i], e) {
                    continue;
                }
                let mut bumped = args.clone();
                bumped[i] = e.clone();
                if !ops.leq(&out, &f(&bumped)) {
                    return Err(Violation::NotMonotone {
                        lo: args.clone(),
                        hi: bumped,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks that an n-ary filter function over `ops` returns booleans and
/// is monotone over `false < true` (§3.3).
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_filter_function(
    ops: &LatticeOps,
    arity: usize,
    f: impl Fn(&[Value]) -> Value,
    samples: &[Value],
) -> Result<(), Violation> {
    let elems = with_bottom(ops, samples);
    let eval = |args: &[Value]| -> Result<bool, Violation> {
        match f(args) {
            Value::Bool(b) => Ok(b),
            other => Err(Violation::FilterNotBoolean(args.to_vec(), other)),
        }
    };
    for args in combinations(&elems, arity) {
        let out = eval(&args)?;
        if !out {
            continue;
        }
        // true must stay true when any argument moves up the order.
        for i in 0..arity {
            for e in &elems {
                if !ops.leq(&args[i], e) {
                    continue;
                }
                let mut bumped = args.clone();
                bumped[i] = e.clone();
                if !eval(&bumped)? {
                    return Err(Violation::FilterNotMonotone {
                        lo: args.clone(),
                        hi: bumped,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Holds `ops`'s declared `kind` to its own closures, on ⊥, ⊤ and the
/// `samples`: for every sampled pair, `leq`, `lub` and `glb` must be what
/// the kind computes on the pair's words, and the lattice's top, if it
/// names one, must be the kind's ⊤. This is where the runtime law
/// sentinels of §7 go for a lattice of a declared kind — the engine no
/// longer calls its closures, so it checks once, up front, that they
/// are the kind's (DESIGN §7). [`LatticeOps::check_kind`] runs it once
/// per declaration, before the first solve of a program that uses it.
pub(crate) fn check_kind(
    ops: &LatticeOps,
    kind: &LatticeKind,
    samples: &[Value],
) -> Result<(), Violation> {
    let mismatch = |found: String| Violation::KindMismatch {
        lattice: ops.name().to_string(),
        kind: kind.clone(),
        found,
    };
    if matches!(kind, LatticeKind::Flat { .. }) && ops.top().is_none() {
        return Err(mismatch("it has no top element".to_string()));
    }
    let words = KindWords::of(ops, &Names::default());
    let mut spill = SpillTable::default();
    let mut elems: Vec<(&Value, u64)> = Vec::new();
    for e in [ops.bottom()].into_iter().chain(ops.top()).chain(samples) {
        let Some(word) = words.encode_mut(e, &mut spill) else {
            return Err(mismatch(format!(
                "the sample {e} is not one of its elements"
            )));
        };
        if elems.iter().all(|&(_, w)| w != word) {
            elems.push((e, word));
        }
    }
    if let Some(top) = ops.top() {
        if words.try_encode(top, &spill) != Some(words.top()) {
            return Err(mismatch(format!("its top {top} is not the kind's ⊤")));
        }
    }
    if elems.len() < 4 {
        let found = "fewer than two samples lie strictly between ⊥ and ⊤";
        return Err(mismatch(found.to_string()));
    }
    let panicked = |p: OpsPanic| mismatch(format!("{} panicked: {}", p.function, p.payload));
    for &(a, wa) in &elems {
        for &(b, wb) in &elems {
            let leq = ops.try_leq(a, b).map_err(panicked)?;
            if Some(leq) != words.leq(wa, wb) {
                return Err(mismatch(format!("its leq({a}, {b}) is {leq}")));
            }
            let lub = ops.try_lub(a, b).map_err(panicked)?;
            let glb = ops.try_glb(a, b).map_err(panicked)?;
            for (op, got, word) in [
                ("lub", lub, words.lub(wa, wb, &spill)),
                ("glb", glb, words.glb(wa, wb, &spill)),
            ] {
                let word = word.expect("a declared kind answers on its words");
                let expected = words.decode(word, &spill);
                if got != expected {
                    return Err(mismatch(format!(
                        "its {op}({a}, {b}) is {got}, not {expected}"
                    )));
                }
            }
        }
    }
    Ok(())
}

fn with_bottom(ops: &LatticeOps, samples: &[Value]) -> Vec<Value> {
    let mut elems: Vec<Value> = samples.to_vec();
    if !elems.contains(ops.bottom()) {
        elems.push(ops.bottom().clone());
    }
    elems
}

/// All length-`arity` argument vectors over `elems` (an odometer walk).
fn combinations(elems: &[Value], arity: usize) -> Vec<Vec<Value>> {
    if elems.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx = vec![0usize; arity];
    loop {
        out.push(idx.iter().map(|&i| elems[i].clone()).collect());
        let mut k = 0;
        loop {
            if k == arity {
                return out;
            }
            idx[k] += 1;
            if idx[k] < elems.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ValueLattice;
    use flix_lattice::{
        Constant, FiniteLattice, Flat, HasTop, Interval, MinCost, Parity, PowerSet, Sign,
        SuLattice, Transformer,
    };

    /// A function over one lattice's values, as the engine calls it.
    type ValueFn = Box<dyn Fn(&[Value]) -> Value>;

    /// One row of the law table: a lattice the engine runs, through its
    /// [`ValueLattice`] adaptor, the samples its laws are checked on, and
    /// its strict, monotone transfer functions and monotone filters.
    struct LawRow {
        /// The lattice's [`ValueLattice::lattice_name`].
        lattice: &'static str,
        ops: LatticeOps,
        samples: Vec<Value>,
        transfers: Vec<(&'static str, ValueFn)>,
        filters: Vec<(String, ValueFn)>,
    }

    impl LawRow {
        fn of<L: ValueLattice + 'static>(samples: impl IntoIterator<Item = L>) -> LawRow {
            LawRow {
                lattice: L::lattice_name(),
                ops: LatticeOps::of::<L>(),
                samples: samples.into_iter().map(|e| e.to_value()).collect(),
                transfers: Vec::new(),
                filters: Vec::new(),
            }
        }

        fn transfer<L: ValueLattice + 'static>(
            mut self,
            name: &'static str,
            f: fn(&L, &L) -> L,
        ) -> Self {
            let f = move |args: &[Value]| {
                f(&L::expect_from(&args[0]), &L::expect_from(&args[1])).to_value()
            };
            self.transfers.push((name, Box::new(f)));
            self
        }

        fn filter<L: ValueLattice + 'static>(
            mut self,
            name: impl Into<String>,
            f: impl Fn(&L) -> bool + 'static,
        ) -> Self {
            let f = move |args: &[Value]| Value::Bool(f(&L::expect_from(&args[0])));
            self.filters.push((name.into(), Box::new(f)));
            self
        }

        /// Every check of the row, each failure named by row and check.
        fn failures(&self) -> Vec<String> {
            let mut out = Vec::new();
            let mut report = |check: &str, result: Result<(), Violation>| {
                if let Err(v) = result {
                    out.push(format!("{} {check}: {v}", self.lattice));
                }
            };
            report("laws", check_lattice_ops(&self.ops, &self.samples));
            for (name, f) in &self.transfers {
                report(
                    name,
                    check_transfer_function(&self.ops, 2, f, &self.samples),
                );
            }
            for (name, f) in &self.filters {
                report(name, check_filter_function(&self.ops, 1, f, &self.samples));
            }
            out
        }
    }

    /// The lattices the engine runs, on the samples their laws are
    /// checked on: every element of a finite lattice, a neighbourhood of
    /// ⊥ and ⊤ of an infinite one.
    fn law_table() -> Vec<LawRow> {
        let intervals = (-2..=2).flat_map(|lo| (lo..=2).map(move |hi| Interval::of(lo, hi)));
        let transformers = (-1..=2).flat_map(|a| {
            (-1..=1).flat_map(move |b| {
                [
                    Transformer::linear(a, b),
                    Transformer::non_bot(a, b, Constant::cst(1)),
                ]
            })
        });
        let subsets = (1u8..8).map(|mask| {
            let members = (0..3).filter(|bit| mask & (1 << bit) != 0);
            members
                .map(|bit| Value::Int(bit + 1))
                .collect::<PowerSet<Value>>()
        });
        vec![
            LawRow::of(Parity::elements())
                .transfer("sum", Parity::sum)
                .transfer("product", Parity::product)
                .filter("is_maybe_zero", Parity::is_maybe_zero),
            LawRow::of(Sign::elements())
                .transfer("sum", Sign::sum)
                .transfer("product", Sign::product)
                .filter("is_maybe_zero", Sign::is_maybe_zero)
                .filter("is_maybe_negative", Sign::is_maybe_negative),
            LawRow::of((-1..=2).map(Constant::cst).chain([Flat::Bot, Flat::Top]))
                .transfer("sum", Constant::sum)
                .transfer("product", Constant::product)
                .filter("is_maybe_zero", Constant::is_maybe_zero),
            LawRow::of(
                [Interval::Bot, Interval::top()]
                    .into_iter()
                    .chain(intervals),
            )
            .transfer("sum", Interval::sum)
            .transfer("product", Interval::product)
            .filter("is_maybe_zero", Interval::is_maybe_zero),
            LawRow::of((0..6).map(MinCost::finite).chain([MinCost::INFINITY]))
                .transfer("add", MinCost::add),
            ["a", "b", "zzz"].into_iter().fold(
                LawRow::of([
                    SuLattice::Bottom,
                    SuLattice::single("a"),
                    SuLattice::single("b"),
                    SuLattice::single("c"),
                    SuLattice::Top,
                ]),
                |row, b| row.filter(format!("filter({b:?})"), move |e: &SuLattice| e.filter(b)),
            ),
            LawRow::of(
                [
                    Transformer::Bot,
                    Transformer::top_transformer(),
                    Transformer::identity(),
                ]
                .into_iter()
                .chain(transformers),
            ),
            LawRow::of([PowerSet::Empty, PowerSet::Univ].into_iter().chain(subsets)),
        ]
    }

    #[test]
    fn every_engine_lattice_keeps_its_laws_and_its_functions_are_lawful() {
        let failures: Vec<String> = law_table().iter().flat_map(LawRow::failures).collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn every_value_lattice_impl_has_a_law_row() {
        let rows: Vec<&str> = law_table().iter().map(|row| row.lattice).collect();
        let impls: Vec<(&str, &str)> = include_str!("ops.rs")
            .split("\nimpl ValueLattice for ")
            .skip(1)
            .map(|body| {
                let ty = body.split_once(" {").map_or(body, |(ty, _)| ty);
                let name = body
                    .split_once("fn lattice_name")
                    .and_then(|(_, rest)| rest.split('"').nth(1));
                (ty, name.expect("every impl names its lattice"))
            })
            .collect();
        assert!(!impls.is_empty(), "ops.rs holds no `impl ValueLattice for`");
        for (ty, name) in impls {
            assert!(
                rows.contains(&name),
                "`impl ValueLattice for {ty}` ({name}) has no row in the law table: {rows:?}"
            );
        }
    }

    fn parity_samples() -> Vec<Value> {
        Parity::elements()
            .iter()
            .map(ValueLattice::to_value)
            .collect()
    }

    #[test]
    fn parity_ops_pass() {
        let ops = LatticeOps::of::<Parity>();
        check_lattice_ops(&ops, &parity_samples()).expect("parity is a lattice");
    }

    #[test]
    fn broken_lub_is_caught() {
        // A "lattice" whose lub always returns bottom.
        let ops = LatticeOps::from_fns(
            "Broken",
            Value::Int(0),
            None,
            |a, b| a.as_int() <= b.as_int(),
            |_, _| Value::Int(0),
            |a, _| a.clone(),
        );
        let samples = vec![Value::Int(0), Value::Int(1), Value::Int(2)];
        let err = check_lattice_ops(&ops, &samples).expect_err("must reject");
        assert!(matches!(err, Violation::LubNotUpperBound(_, _)), "{err}");
    }

    #[test]
    fn sum_is_strict_and_monotone() {
        let ops = LatticeOps::of::<Parity>();
        check_transfer_function(
            &ops,
            2,
            |args| {
                Parity::expect_from(&args[0])
                    .sum(&Parity::expect_from(&args[1]))
                    .to_value()
            },
            &parity_samples(),
        )
        .expect("sum is a lawful transfer function");
    }

    #[test]
    fn constant_top_is_not_strict() {
        let ops = LatticeOps::of::<Parity>();
        let err = check_transfer_function(&ops, 1, |_| Parity::Top.to_value(), &parity_samples())
            .expect_err("constant ⊤ violates strictness");
        assert!(matches!(err, Violation::NotStrict(_)), "{err}");
    }

    #[test]
    fn non_monotone_transfer_is_caught() {
        let ops = LatticeOps::of::<Parity>();
        // "Swap": maps Even to Top and Top to Even — order-reversing
        // between comparable elements.
        let err = check_transfer_function(
            &ops,
            1,
            |args| {
                match Parity::expect_from(&args[0]) {
                    Parity::Even => Parity::Top,
                    Parity::Top => Parity::Even,
                    other => other,
                }
                .to_value()
            },
            &parity_samples(),
        )
        .expect_err("must reject");
        assert!(matches!(err, Violation::NotMonotone { .. }), "{err}");
    }

    #[test]
    fn is_maybe_zero_is_a_lawful_filter() {
        let ops = LatticeOps::of::<Parity>();
        check_filter_function(
            &ops,
            1,
            |args| Value::Bool(Parity::expect_from(&args[0]).is_maybe_zero()),
            &parity_samples(),
        )
        .expect("isMaybeZero is monotone");
    }

    #[test]
    fn anti_monotone_filter_is_caught() {
        let ops = LatticeOps::of::<Parity>();
        let err = check_filter_function(
            &ops,
            1,
            |args| Value::Bool(Parity::expect_from(&args[0]) != Parity::Top),
            &parity_samples(),
        )
        .expect_err("'is not top' is anti-monotone");
        assert!(matches!(err, Violation::FilterNotMonotone { .. }), "{err}");
    }

    #[test]
    fn filter_returning_ints_is_caught() {
        let ops = LatticeOps::of::<Parity>();
        let err = check_filter_function(&ops, 1, |_| Value::Int(1), &parity_samples())
            .expect_err("must reject");
        assert!(matches!(err, Violation::FilterNotBoolean(_, _)), "{err}");
    }

    #[test]
    fn violations_display() {
        let v = Violation::NotStrict(vec![Value::Int(1)]);
        assert!(v.to_string().contains("strict"));
    }
}
