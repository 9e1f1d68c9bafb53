//! Program representation: predicates, terms, rules, and the builder.
//!
//! This module is the Rust rendering of the FLIX program grammar (§3.1,
//! Figure 3, extended per §3.2–§3.3): a program is a set of predicate
//! declarations (`rel` and `lat`), registered functions, facts, and rules
//! whose bodies may contain positive atoms, *stratified* negated atoms,
//! monotone filter applications, and `<-` choice bindings, and whose head
//! may apply a monotone transfer function in its last term.

use crate::{LatticeKind, LatticeOps, Names, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies a declared predicate within one [`Program`](crate::Program).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PredId(pub(crate) u32);

/// Identifies a registered function within one [`Program`](crate::Program).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FuncId(pub(crate) u32);

/// A term in a rule body atom: a variable, a literal value, or a wildcard.
///
/// Variables are rule-scoped and identified by name, as in the paper's
/// concrete syntax; [`ProgramBuilder::rule`] interns them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// A named variable.
    Var(Arc<str>),
    /// A literal value.
    Lit(Value),
    /// The anonymous wildcard `_`, matching anything without binding.
    Wildcard,
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: impl Into<Arc<str>>) -> Term {
        Term::Var(name.into())
    }

    /// Creates a literal term.
    pub fn lit(v: impl Into<Value>) -> Term {
        Term::Lit(v.into())
    }
}

impl<V: Into<Value>> From<V> for Term {
    fn from(v: V) -> Term {
        Term::Lit(v.into())
    }
}

/// A term in a rule head: a variable, a literal, or — in the last position
/// only — a transfer function application (§3.3: "we only allow non-filter
/// functions to appear in the last term of the head predicate of a rule").
#[derive(Clone, Debug)]
pub enum HeadTerm {
    /// A named variable (must be bound by the body).
    Var(Arc<str>),
    /// A literal value.
    Lit(Value),
    /// A transfer function applied to body-bound terms.
    App(FuncId, Vec<Term>),
}

impl HeadTerm {
    /// Creates a variable head term.
    pub fn var(name: impl Into<Arc<str>>) -> HeadTerm {
        HeadTerm::Var(name.into())
    }

    /// Creates a literal head term.
    pub fn lit(v: impl Into<Value>) -> HeadTerm {
        HeadTerm::Lit(v.into())
    }

    /// Creates a transfer-function application head term.
    pub fn app(func: FuncId, args: impl IntoIterator<Item = Term>) -> HeadTerm {
        HeadTerm::App(func, args.into_iter().collect())
    }
}

/// The head of a rule: a predicate applied to head terms.
#[derive(Clone, Debug)]
pub struct Head {
    pub(crate) pred: PredId,
    pub(crate) terms: Vec<HeadTerm>,
}

impl Head {
    /// Creates a rule head.
    pub fn new(pred: PredId, terms: impl IntoIterator<Item = HeadTerm>) -> Head {
        Head {
            pred,
            terms: terms.into_iter().collect(),
        }
    }
}

/// One item of a rule body.
#[derive(Clone, Debug)]
pub enum BodyItem {
    /// A positive atom `P(t1, ..., tn)`.
    Atom {
        /// The predicate.
        pred: PredId,
        /// The argument terms.
        terms: Vec<Term>,
    },
    /// A negated atom `!P(t1, ..., tn)` (requires stratification; every
    /// variable must be bound by an earlier positive item).
    NegAtom {
        /// The predicate.
        pred: PredId,
        /// The argument terms (all ground at evaluation time).
        terms: Vec<Term>,
    },
    /// A monotone filter application `f(t1, ..., tn)` (§3.3). The function
    /// must return a boolean [`Value`]; the body item succeeds when it
    /// returns `true`.
    Filter {
        /// The filter function.
        func: FuncId,
        /// The argument terms (bound by earlier items).
        args: Vec<Term>,
    },
    /// A choice binding `(x1, ..., xk) <- f(t1, ..., tn)`, as used by the
    /// IFDS and IDE rules of Figures 5 and 6 (`d3 <- eshIntra(n, d2)`).
    /// The function must return a set [`Value`]; the item succeeds once per
    /// element, binding the element (destructured as a tuple when `binds`
    /// names more than one variable).
    Choose {
        /// The set-returning function.
        func: FuncId,
        /// The argument terms (bound by earlier items).
        args: Vec<Term>,
        /// The variables bound by each element of the returned set.
        binds: Vec<Arc<str>>,
    },
}

impl BodyItem {
    /// Creates a positive atom.
    pub fn atom(pred: PredId, terms: impl IntoIterator<Item = Term>) -> BodyItem {
        BodyItem::Atom {
            pred,
            terms: terms.into_iter().collect(),
        }
    }

    /// Creates a negated atom.
    pub fn not(pred: PredId, terms: impl IntoIterator<Item = Term>) -> BodyItem {
        BodyItem::NegAtom {
            pred,
            terms: terms.into_iter().collect(),
        }
    }

    /// Creates a filter application.
    pub fn filter(func: FuncId, args: impl IntoIterator<Item = Term>) -> BodyItem {
        BodyItem::Filter {
            func,
            args: args.into_iter().collect(),
        }
    }

    /// Creates a choice binding of one variable.
    pub fn choose(
        func: FuncId,
        args: impl IntoIterator<Item = Term>,
        bind: impl Into<Arc<str>>,
    ) -> BodyItem {
        BodyItem::Choose {
            func,
            args: args.into_iter().collect(),
            binds: vec![bind.into()],
        }
    }

    /// Creates a choice binding destructuring each element as a tuple.
    pub fn choose_tuple(
        func: FuncId,
        args: impl IntoIterator<Item = Term>,
        binds: impl IntoIterator<Item = &'static str>,
    ) -> BodyItem {
        BodyItem::Choose {
            func,
            args: args.into_iter().collect(),
            binds: binds.into_iter().map(Arc::from).collect(),
        }
    }
}

/// How a predicate interprets its tuples.
#[derive(Clone, Debug)]
pub enum PredKind {
    /// A Datalog relation: a set of tuples.
    Relation,
    /// A FLIX lattice predicate: the first `arity - 1` columns are a key,
    /// the last column holds a lattice element, and the cells of §3.2 are
    /// the tuples sharing a key.
    Lattice(LatticeOps),
}

/// A predicate declaration.
#[derive(Clone, Debug)]
pub struct PredDecl {
    pub(crate) name: Arc<str>,
    pub(crate) arity: usize,
    pub(crate) kind: PredKind,
}

impl PredDecl {
    /// The predicate name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Returns the lattice operations for a `lat` predicate.
    pub fn lattice_ops(&self) -> Option<&LatticeOps> {
        match &self.kind {
            PredKind::Relation => None,
            PredKind::Lattice(ops) => Some(ops),
        }
    }

    /// Returns `true` for a `lat` predicate.
    pub fn is_lattice(&self) -> bool {
        matches!(self.kind, PredKind::Lattice(_))
    }
}

/// The shared closure type of registered functions.
pub(crate) type FuncBody = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// The shared closure type of word forms.
pub(crate) type WordBody = Arc<dyn Fn(&[u64]) -> u64 + Send + Sync>;

/// How a word form ([`ProgramBuilder::word_form`]) reads one argument, or
/// writes its result: as which word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WordType {
    /// The fact store's slot of the value — any value. `Value::Bool` is
    /// [`WORD_FALSE`](crate::WORD_FALSE) or [`WORD_TRUE`](crate::WORD_TRUE),
    /// a small integer is inline; what the store spills — a string too —
    /// has a slot only once stored, or, for the program's
    /// [`Names`], from the start.
    Slot,
    /// The word of an element of a lattice of this kind: for the flat kind
    /// [`FLAT_BOTTOM`](crate::FLAT_BOTTOM), [`FLAT_TOP`](crate::FLAT_TOP),
    /// or, for `tag(x)`, the slot of `x`; for the chain kind
    /// [`CHAIN_BOTTOM`](crate::CHAIN_BOTTOM) or, for `tag(n)`,
    /// [`slot_of_int(n)`](crate::slot_of_int).
    Elem(LatticeKind),
}

/// A function's word form: its body over words, and the words it reads
/// and writes.
#[derive(Clone)]
pub(crate) struct WordForm {
    pub(crate) params: Vec<WordType>,
    pub(crate) result: WordType,
    pub(crate) body: WordBody,
}

/// The shared closure type of choice forms.
pub(crate) type ChoiceBody = Arc<dyn Fn(&[u64], &mut Vec<u64>) + Send + Sync>;

/// A choice function's word form: its body over slots, and how many
/// slots it writes per element.
#[derive(Clone)]
pub(crate) struct ChoiceForm {
    pub(crate) width: usize,
    pub(crate) body: ChoiceBody,
}

/// A registered function (transfer, filter, or choice).
#[derive(Clone)]
pub(crate) struct FuncDef {
    pub(crate) name: Arc<str>,
    pub(crate) body: FuncBody,
    /// The word form, when one was registered.
    pub(crate) word: Option<WordForm>,
    /// The choice form, when one was registered.
    pub(crate) choice: Option<ChoiceForm>,
}

impl fmt::Debug for FuncDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FuncDef({})", self.name)
    }
}

/// A rule before compilation.
#[derive(Clone, Debug)]
pub(crate) struct RawRule {
    pub(crate) head: Head,
    pub(crate) body: Vec<BodyItem>,
}

/// An error rejected by [`ProgramBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// An atom's term count does not match the predicate's declared arity.
    ArityMismatch {
        /// The predicate name.
        predicate: String,
        /// The declared arity.
        declared: usize,
        /// The arity found in the rule.
        found: usize,
    },
    /// A head variable is not bound by any positive body item.
    UnboundHeadVariable {
        /// The variable name.
        variable: String,
        /// The head predicate name.
        predicate: String,
    },
    /// A transfer-function application appears in a non-final head term.
    AppNotLast {
        /// The head predicate name.
        predicate: String,
    },
    /// A filter, choice, or negated atom uses a variable not bound by an
    /// earlier positive item.
    UnboundBodyVariable {
        /// The variable name.
        variable: String,
        /// The head predicate name of the offending rule.
        predicate: String,
    },
    /// The program cannot be stratified: a negation occurs in a recursive
    /// cycle (§3.5).
    NotStratifiable {
        /// A predicate on the offending cycle.
        predicate: String,
    },
    /// A fact's values do not match the predicate's arity.
    FactArityMismatch {
        /// The predicate name.
        predicate: String,
        /// The declared arity.
        declared: usize,
        /// The number of values supplied.
        found: usize,
    },
    /// A fact, or a literal in a rule's head, holds a value nested deeper
    /// than [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH).
    ValueTooDeep {
        /// The predicate name.
        predicate: String,
    },
    /// A lattice predicate's word forms bake in the ids of other
    /// [`Names`](crate::Names) than the program's: the lattice was
    /// lowered for another program ([`LatticeOps::with_word_forms`]).
    ///
    /// [`LatticeOps::with_word_forms`]: crate::LatticeOps::with_word_forms
    ForeignWordForms {
        /// The predicate name.
        predicate: String,
        /// The lattice's name.
        lattice: String,
    },
    /// A rule holds a literal in the value column of a lattice of a
    /// declared kind ([`LatticeOps::with_kind`]) that is not one of the
    /// kind's elements: no cell holds it, and a plan has no word for it.
    ///
    /// [`LatticeOps::with_kind`]: crate::LatticeOps::with_kind
    LiteralNotAnElement {
        /// The predicate whose value column holds the literal.
        predicate: String,
        /// The lattice's name.
        lattice: String,
        /// The literal, rendered.
        literal: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ProgramError::*;
        match self {
            ArityMismatch {
                predicate,
                declared,
                found,
            } => write!(
                f,
                "predicate {predicate} declared with arity {declared} but used with {found} terms"
            ),
            UnboundHeadVariable {
                variable,
                predicate,
            } => write!(
                f,
                "head variable {variable} of a {predicate} rule is not bound by the body"
            ),
            AppNotLast { predicate } => write!(
                f,
                "function application in a non-final head term of a {predicate} rule"
            ),
            UnboundBodyVariable {
                variable,
                predicate,
            } => write!(
                f,
                "variable {variable} in a {predicate} rule is used by a filter, choice, or \
                 negation before any positive atom binds it"
            ),
            NotStratifiable { predicate } => write!(
                f,
                "program is not stratifiable: predicate {predicate} occurs in a cycle through \
                 negation"
            ),
            FactArityMismatch {
                predicate,
                declared,
                found,
            } => write!(
                f,
                "fact for {predicate} supplies {found} values but the predicate has arity \
                 {declared}"
            ),
            ValueTooDeep { predicate } => write!(
                f,
                "a {predicate} fact or rule head holds a value nested deeper than {} levels",
                crate::MAX_VALUE_DEPTH
            ),
            ForeignWordForms { predicate, lattice } => write!(
                f,
                "the word forms of {lattice}, the lattice of {predicate}, were lowered \
                 against another program's names"
            ),
            LiteralNotAnElement {
                predicate,
                lattice,
                literal,
            } => write!(
                f,
                "a rule holds {literal} as an element of {predicate}, which is not one of \
                 the elements of {lattice}'s kind"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// Builds a FLIX [`Program`](crate::Program): declare predicates and
/// functions, add facts
/// and rules, then [`build`](ProgramBuilder::build).
///
/// # Example
///
/// The transitive-closure program of §3.7 of the paper:
///
/// ```
/// use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Term};
///
/// # fn main() -> Result<(), flix_core::ProgramError> {
/// let mut b = ProgramBuilder::new();
/// let edge = b.relation("Edge", 2);
/// let path = b.relation("Path", 2);
///
/// b.fact(edge, vec![1.into(), 2.into()]);
/// b.fact(edge, vec![2.into(), 3.into()]);
///
/// // Path(x, y) :- Edge(x, y).
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
///     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
/// );
/// // Path(x, z) :- Path(x, y), Edge(y, z).
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
///     [
///         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
///         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
///     ],
/// );
///
/// let program = b.build()?;
/// assert_eq!(program.num_rules(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Default, Debug)]
pub struct ProgramBuilder {
    preds: Vec<PredDecl>,
    pred_names: HashMap<Arc<str>, PredId>,
    funcs: Vec<FuncDef>,
    rules: Vec<RawRule>,
    facts: Vec<(PredId, Vec<Value>)>,
    names: Names,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Declares a relation (`rel`) predicate.
    ///
    /// Redeclaring a name with the same arity and kind returns the
    /// existing id, which is what makes programs *compositional* (§3.4):
    /// the union of two programs sharing predicate declarations is formed
    /// by replaying both into one builder.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared with a different arity or
    /// as a lattice — a programming error, not recoverable input.
    pub fn relation(&mut self, name: impl Into<Arc<str>>, arity: usize) -> PredId {
        self.declare(name.into(), arity, PredKind::Relation)
    }

    /// Declares a lattice (`lat`) predicate whose last column holds
    /// elements of the given lattice.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared with a different arity or
    /// as a relation.
    pub fn lattice(&mut self, name: impl Into<Arc<str>>, arity: usize, ops: LatticeOps) -> PredId {
        self.declare(name.into(), arity, PredKind::Lattice(ops))
    }

    fn declare(&mut self, name: Arc<str>, arity: usize, kind: PredKind) -> PredId {
        if let Some(&id) = self.pred_names.get(&name) {
            let existing = &self.preds[id.0 as usize];
            let kind_matches = matches!(
                (&existing.kind, &kind),
                (PredKind::Relation, PredKind::Relation)
                    | (PredKind::Lattice(_), PredKind::Lattice(_))
            );
            assert!(
                existing.arity == arity && kind_matches,
                "predicate {name} redeclared with conflicting arity or kind"
            );
            return id;
        }
        let id = PredId(u32::try_from(self.preds.len()).expect("too many predicates"));
        self.pred_names.insert(name.clone(), id);
        self.preds.push(PredDecl { name, arity, kind });
        id
    }

    /// Registers a function usable as a transfer function (in heads), a
    /// filter (returning `Value::Bool`), or a choice source (returning
    /// `Value::Set`).
    pub fn function(
        &mut self,
        name: impl Into<Arc<str>>,
        body: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> FuncId {
        let id = FuncId(u32::try_from(self.funcs.len()).expect("too many functions"));
        self.funcs.push(FuncDef {
            name: name.into(),
            body: Arc::new(body),
            word: None,
            choice: None,
        });
        id
    }

    /// Registers `body` as the word form of `func`: the same function
    /// over words — its arguments read as `params` say, its result
    /// written as `result` says ([`WordType`]). A filter's word form
    /// returns [`WORD_TRUE`](crate::WORD_TRUE) or
    /// [`WORD_FALSE`](crate::WORD_FALSE).
    ///
    /// A filter or a head application calls the word form where each of
    /// its arguments is a literal or a variable the plan holds as a word
    /// of the declared type — a join column for [`WordType::Slot`], the
    /// value of a lattice of the declared kind for [`WordType::Elem`] — and
    /// where the result goes to a column of the declared type; everywhere
    /// else it calls the boxed form. A form is never handed a round-local
    /// word — a value a rule body computed that the store holds no slot
    /// for yet: that call runs the boxed form. Both must compute the same function:
    /// which one runs is the plan's choice. The word form runs under the
    /// same panic isolation as the boxed one; a result that is not a word
    /// of its type (for a filter: neither boolean) is dropped, and the
    /// boxed form decides that call. A choice calls its
    /// [`choice_form`](ProgramBuilder::choice_form), not this one.
    ///
    /// A form that bakes in a constructor's id or a string's slot takes
    /// it from this builder's [`names`](ProgramBuilder::names).
    ///
    /// For Figure 4, `filter(t, b)` is `t == FLAT_TOP || t == b` and
    /// `single(b)` is `b`.
    ///
    /// # Panics
    ///
    /// Panics if `func` was not registered by this builder.
    pub fn word_form(
        &mut self,
        func: FuncId,
        params: impl IntoIterator<Item = WordType>,
        result: WordType,
        body: impl Fn(&[u64]) -> u64 + Send + Sync + 'static,
    ) {
        self.funcs[func.0 as usize].word = Some(WordForm {
            params: params.into_iter().collect(),
            result,
            body: Arc::new(body),
        });
    }

    /// Registers `body` as the choice form of the set-valued `func`: the
    /// same function over slots ([`WordType::Slot`]). It reads one slot
    /// per argument and appends `width` slots per element of the set the
    /// boxed form returns — an element's own slot for `width` 1, its
    /// tuple's components otherwise — in the set's iteration order, each
    /// element once.
    ///
    /// A choice `binds <- func(args)` with `width` binds calls the choice
    /// form where every argument is a literal or a variable the plan holds
    /// as a slot, so the elements go from the function to the head without
    /// a `Value` in between. Every other choice of `func` calls the boxed
    /// form, as does a call with an argument the store holds no slot for
    /// yet. The choice form runs under the same panic isolation as the
    /// boxed one. A written word that is not a slot, or a count that is
    /// not a multiple of `width`, fails the evaluation with
    /// [`Violation::ChoiceWordMalformed`]: the form answered, so the boxed
    /// form is not asked. [`slot_of_int`](crate::slot_of_int) and
    /// [`int_of_slot`](crate::int_of_slot) are the slots of integers.
    ///
    /// For Figure 5, each flow function maps its node and fact integers
    /// to the sorted slots of the facts it returns.
    ///
    /// [`Violation::ChoiceWordMalformed`]: crate::verify::Violation::ChoiceWordMalformed
    ///
    /// # Panics
    ///
    /// Panics if `func` was not registered by this builder, or `width` is
    /// zero.
    pub fn choice_form(
        &mut self,
        func: FuncId,
        width: usize,
        body: impl Fn(&[u64], &mut Vec<u64>) + Send + Sync + 'static,
    ) {
        assert!(width > 0, "a choice binds at least one variable");
        self.funcs[func.0 as usize].choice = Some(ChoiceForm {
            width,
            body: Arc::new(body),
        });
    }

    /// Gives the program `names`, replacing any given before: every store
    /// of the program interns them first, so a name's id
    /// ([`Names::intern`]) is the same in all of them — in a solve, a
    /// resume, a demand query and a snapshot load — and word forms may
    /// bake it in ([`slot_of_ctor`](crate::slot_of_ctor),
    /// [`Names::slot`]).
    pub fn names(&mut self, names: Names) {
        self.names = names;
    }

    /// Adds a ground fact.
    pub fn fact(&mut self, pred: PredId, values: Vec<Value>) {
        self.facts.push((pred, values));
    }

    /// Adds many ground facts for one predicate.
    pub fn facts<I>(&mut self, pred: PredId, rows: I)
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        for row in rows {
            self.fact(pred, row);
        }
    }

    /// Adds a rule.
    pub fn rule(&mut self, head: Head, body: impl IntoIterator<Item = BodyItem>) {
        self.rules.push(RawRule {
            head,
            body: body.into_iter().collect(),
        });
    }

    /// Validates and compiles the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violated
    /// well-formedness condition: arity mismatches, unbound head
    /// variables (range restriction), function applications outside the
    /// last head term, or unbound variables in filters, choices, and
    /// negated atoms. Stratifiability is checked later, by the solver,
    /// because it is a property of the whole rule set.
    pub fn build(self) -> Result<crate::Program, ProgramError> {
        crate::Program::from_parts(self.preds, self.funcs, self.rules, self.facts, self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redeclaration_is_idempotent() {
        let mut b = ProgramBuilder::new();
        let p1 = b.relation("P", 2);
        let p2 = b.relation("P", 2);
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "conflicting arity")]
    fn conflicting_redeclaration_panics() {
        let mut b = ProgramBuilder::new();
        b.relation("P", 2);
        b.relation("P", 3);
    }

    #[test]
    fn term_conversions() {
        assert_eq!(Term::from(3), Term::Lit(Value::Int(3)));
        assert_eq!(Term::lit("x"), Term::Lit(Value::from("x")));
        assert_eq!(Term::var("x"), Term::Var("x".into()));
    }

    #[test]
    fn arity_mismatch_in_rule_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 2);
        let q = b.relation("Q", 1);
        b.rule(
            Head::new(q, [HeadTerm::var("x")]),
            [BodyItem::atom(p, [Term::var("x")])], // P used with arity 1
        );
        let err = b.build().expect_err("must reject");
        assert!(matches!(err, ProgramError::ArityMismatch { .. }));
    }

    #[test]
    fn unbound_head_variable_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        b.rule(
            Head::new(q, [HeadTerm::var("y")]),
            [BodyItem::atom(p, [Term::var("x")])],
        );
        let err = b.build().expect_err("must reject");
        assert!(matches!(err, ProgramError::UnboundHeadVariable { .. }));
    }

    #[test]
    fn fact_arity_is_checked() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 2);
        b.fact(p, vec![Value::Int(1)]);
        let err = b.build().expect_err("must reject");
        assert!(matches!(err, ProgramError::FactArityMismatch { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::ArityMismatch {
            predicate: "P".into(),
            declared: 2,
            found: 3,
        };
        assert!(e.to_string().contains("arity 2"));
    }
}
