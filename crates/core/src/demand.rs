//! Demand-driven evaluation: a magic-set-style rewrite for lattice
//! programs and the query-directed solver entry point
//! [`Solver::solve_query`].
//!
//! The paper's strategies (§3.2, §3.7) always compute the *entire*
//! minimal model, but clients of an analysis engine usually ask point
//! queries — "what is the constant-propagation value of `x` at line
//! 40?", "what is the shortest distance from A to B?" — for which
//! whole-model solving wastes most of the work. This module adapts the
//! classic magic-set transformation to FLIX's lattice semantics: from a
//! set of [`Query`] patterns with bound/free argument positions it
//! derives seed `demand$P` predicates and guarded copies of each rule,
//! so the unchanged fixed-point engine only derives tuples and lattice
//! cells transitively relevant to the queries.
//!
//! # The rewrite, in brief
//!
//! For every intensional predicate `P` the rewrite maintains one
//! *adornment*: the set of argument positions that every demand for `P`
//! binds (the meet over all query patterns and rule-body occurrences —
//! a single-adornment simplification of the per-call-pattern magic-set
//! construction; demanding *more* than necessary is always sound, it
//! merely derives more than strictly needed). Given final adornments:
//!
//! * each rule `P(t̄) :- B` whose head is demanded becomes the guarded
//!   copy `P(t̄) :- demand$P(t̄|α), B'`, where `t̄|α` projects the head
//!   terms to the adorned positions and `B'` is a
//!   sideways-information-passing (SIP) reordering of the body that
//!   propagates the guard's bindings left to right;
//! * for every demanded intensional atom `Q(s̄)` in `B'`, a demand rule
//!   `demand$Q(s̄|β) :- demand$P(t̄|α), prefix` is added, where `prefix`
//!   holds the positive atoms preceding `Q` in the SIP order — the
//!   bindings available by the time `Q` would be matched;
//! * the query patterns themselves become `demand$P` seed facts.
//!
//! # Lattice-cell demand granularity
//!
//! Lattice predicates are demanded *by key*: the value column is never
//! part of an adornment, so a demand names a whole cell and the engine
//! computes that cell's full least fixed point. Because FLIX programs
//! are monotone, every contribution to a demanded cell flows through
//! ground atoms whose keys the demand rules also demand — so a demanded
//! cell's final value is *identical* to its value in the full minimal
//! model (the lub-per-cell compaction of §3.6 is preserved; the demand
//! parity suite pins this cell-for-cell across all strategies).
//!
//! # Conservative fallbacks
//!
//! Demand through negation is the classic unsound corner of magic sets
//! (the rewritten program can lose stratified semantics). Mirroring the
//! incremental engine's negation fallback, this module never guards
//! negated dependencies: a predicate appearing under negation in a
//! demanded rule is evaluated *in full*, along with its entire upstream
//! cone, so the negation tests exactly the model a from-scratch solve
//! would have produced. The same full-evaluation fallback applies when
//! an adornment collapses to the empty set (an all-free demand) and to
//! every predicate reachable from a fully-evaluated one. As a final
//! safety net, [`Solver::solve_query`] re-stratifies the rewritten
//! program and falls back to a plain full [`Solver::solve`] if the
//! rewrite produced anything the engine cannot order.
//!
//! # Example
//!
//! ```
//! use flix_core::demand::Query;
//! use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 2);
//! let path = b.relation("Path", 2);
//! for (x, y) in [(1, 2), (2, 3), (10, 11)] {
//!     b.fact(edge, vec![x.into(), y.into()]);
//! }
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
//!     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
//! );
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
//!     [
//!         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
//!         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
//!     ],
//! );
//! let program = b.build()?;
//!
//! // Only paths from node 1 are demanded; the 10 → 11 component is
//! // never explored.
//! let query = Query::new("Path", vec![Some(Value::from(1)), None]);
//! let result = Solver::new().solve_query(&program, &[query])?;
//! let answers: Vec<_> = result.answers(0).collect();
//! assert_eq!(answers.len(), 2); // Path(1, 2), Path(1, 3)
//! assert!(!result.solution().contains("Path", &[10.into(), 11.into()]));
//! # Ok(())
//! # }
//! ```

// Like `solver.rs`, internal plumbing passes `SolveError` by value; it
// is boxed inside `SolveFailure` at the API boundary.
#![allow(clippy::result_large_err)]

use crate::ast::{
    BodyItem, FuncId, Head, HeadTerm, PredDecl, PredKind, ProgramError, RawRule, Term,
};
use crate::database::Database;
use crate::program::{
    bind_item, key_cols, order_for_delta, CHead, CItem, CRule, CTerm, OrderFrom, Program,
};
use crate::solver::{rule_heads, Fact, Finished, Run};
use crate::stratify::check_stratifiable;
use crate::trace::{SpanKind, Tracer};
use crate::{PredId, Solution, SolveError, SolveFailure, SolveStats, Solver, Value};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A point query: a predicate name plus a pattern with one entry per
/// argument position — `Some(value)` for a bound position, `None` for a
/// free one.
///
/// For lattice predicates the last position is the cell value; binding
/// it never *restricts demand* (cells are demanded whole, by key) but
/// still filters which answers [`QueryResult::answers`] reports, by
/// equality with the cell's final value.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    predicate: String,
    pattern: Vec<Option<Value>>,
}

impl Query {
    /// Creates a query on `predicate` with the given bound/free pattern.
    pub fn new(predicate: impl Into<String>, pattern: Vec<Option<Value>>) -> Query {
        Query {
            predicate: predicate.into(),
            pattern,
        }
    }

    /// The queried predicate's name.
    pub fn predicate(&self) -> &str {
        &self.predicate
    }

    /// The bound/free pattern, one entry per argument position.
    pub fn pattern(&self) -> &[Option<Value>] {
        &self.pattern
    }

    /// Whether a fact matches the pattern: every bound position must
    /// equal the fact's column (for lattice cells, a bound value column
    /// compares against the cell's element).
    pub fn matches(&self, fact: &Fact<'_>) -> bool {
        match fact {
            Fact::Row(row) => {
                row.len() == self.pattern.len()
                    && self
                        .pattern
                        .iter()
                        .zip(row.iter())
                        .all(|(p, v)| p.as_ref().is_none_or(|b| b == v))
            }
            Fact::Cell(key, value) => {
                self.pattern.len() == key.len() + 1
                    && self
                        .pattern
                        .iter()
                        .zip(key.iter())
                        .all(|(p, v)| p.as_ref().is_none_or(|b| b == v))
                    && self
                        .pattern
                        .last()
                        .and_then(|p| p.as_ref())
                        .is_none_or(|b| b == *value)
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, p) in self.pattern.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "_")?,
            }
        }
        write!(f, ")")
    }
}

/// A malformed [`Query`] handed to [`Solver::solve_query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DemandError {
    /// The query names a predicate the program does not declare.
    UnknownPredicate {
        /// The unresolvable name.
        predicate: String,
    },
    /// The query pattern's width does not match the predicate's declared
    /// arity (for lattice predicates, key columns plus the value).
    ArityMismatch {
        /// The predicate name.
        predicate: String,
        /// The declared arity.
        declared: usize,
        /// The pattern's width.
        found: usize,
    },
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::UnknownPredicate { predicate } => {
                write!(f, "query names unknown predicate {predicate}")
            }
            DemandError::ArityMismatch {
                predicate,
                declared,
                found,
            } => write!(
                f,
                "query pattern for {predicate} has {found} positions, declared arity is {declared}"
            ),
        }
    }
}

impl std::error::Error for DemandError {}

impl From<DemandError> for SolveError {
    fn from(e: DemandError) -> SolveError {
        SolveError::Demand(e)
    }
}

/// The answers to a query-directed solve, as returned by
/// [`Solver::solve_query`].
///
/// Wraps a [`Solution`] over the *original* program's predicates (the
/// rewrite's internal `demand$` machinery is stripped before the result
/// is assembled): statistics, profiles and provenance all speak in
/// user-facing rule indices and predicate names.
/// The solution is *demand-restricted*: demanded facts and cells carry
/// exactly their full-model values, while undemanded predicates are
/// simply absent (empty), not falsified.
#[derive(Debug)]
pub struct QueryResult {
    solution: Solution,
    queries: Vec<Query>,
    demanded: Vec<String>,
    full: Vec<String>,
    fallback: bool,
}

impl QueryResult {
    /// The answers to the `idx`-th query (in the order queries were
    /// passed to [`Solver::solve_query`]): every fact of the queried
    /// predicate matching the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn answers(&self, idx: usize) -> impl Iterator<Item = Fact<'_>> {
        let query = &self.queries[idx];
        self.solution
            .facts(query.predicate())
            .into_iter()
            .flatten()
            .filter(move |fact| query.matches(fact))
    }

    /// The queries this result answers, in input order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The demand-restricted solution: demanded facts at full-model
    /// values, undemanded predicates empty.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Consumes the result, returning the underlying solution.
    pub fn into_solution(self) -> Solution {
        self.solution
    }

    /// The run statistics (shorthand for `solution().stats()`).
    pub fn stats(&self) -> &SolveStats {
        self.solution.stats()
    }

    /// Names of the intensional predicates that were evaluated under a
    /// demand guard.
    pub fn demanded_predicates(&self) -> impl Iterator<Item = &str> {
        self.demanded.iter().map(|s| s.as_str())
    }

    /// Names of the intensional predicates that fell back to full
    /// evaluation (negated dependencies and their upstream cones, or
    /// all-free demands).
    pub fn full_predicates(&self) -> impl Iterator<Item = &str> {
        self.full.iter().map(|s| s.as_str())
    }

    /// Whether the whole solve fell back to an unrestricted
    /// [`Solver::solve`] (the rewrite produced nothing the engine could
    /// stratify — a safety net that should not trigger for stratifiable
    /// programs).
    pub fn used_fallback(&self) -> bool {
        self.fallback
    }
}

// ---------------------------------------------------------------------
// Adornment computation (phase A).
// ---------------------------------------------------------------------

/// Demand state of one predicate, descending a three-level lattice:
/// untouched (irrelevant to the queries) → bound on a set of positions →
/// full (evaluated without a guard).
#[derive(Clone, Debug, PartialEq)]
enum DemandState {
    Untouched,
    Bound(BTreeSet<usize>),
    Full,
}

impl DemandState {
    fn is_touched(&self) -> bool {
        !matches!(self, DemandState::Untouched)
    }
}

/// Narrows `state[pred]` by a new demand binding `cols`; returns whether
/// anything changed. An empty binding means an all-free demand, which
/// falls back to full evaluation.
fn demand(state: &mut [DemandState], pred: PredId, cols: BTreeSet<usize>) -> bool {
    if cols.is_empty() {
        return make_full(state, pred);
    }
    let slot = &mut state[pred.0 as usize];
    match slot {
        DemandState::Untouched => {
            *slot = DemandState::Bound(cols);
            true
        }
        DemandState::Bound(prev) => {
            let met: BTreeSet<usize> = prev.intersection(&cols).copied().collect();
            if met.is_empty() {
                *slot = DemandState::Full;
                true
            } else if met.len() != prev.len() {
                *slot = DemandState::Bound(met);
                true
            } else {
                false
            }
        }
        DemandState::Full => false,
    }
}

/// Drops `state[pred]` to full evaluation; returns whether it changed.
fn make_full(state: &mut [DemandState], pred: PredId) -> bool {
    let slot = &mut state[pred.0 as usize];
    if *slot == DemandState::Full {
        return false;
    }
    *slot = DemandState::Full;
    true
}

/// Walks one rule under a bound head adornment in its
/// sideways-information-passing order — the plan compiler's one greedy
/// order ([`order_for_delta`]), started from the variables the guard
/// binds — and returns that order, as body item indices. On the way it
/// reports the demand each positive atom receives: `visit(body_idx,
/// pred, bound_cols)` fires for every positive atom, in order, with the
/// key columns that are literals or bound by the guard / *earlier
/// positive atoms* (choice bindings are excluded: demand rules do not
/// replay choice functions, so their bindings cannot be part of an
/// adornment).
fn walk_demands(
    program: &Program,
    rule: &CRule,
    head_adornment: &BTreeSet<usize>,
    mut visit: impl FnMut(usize, PredId, BTreeSet<usize>),
) -> Vec<usize> {
    let mut bound: HashSet<usize> = HashSet::new();
    for &col in head_adornment {
        if let CHead::Var(slot) = &rule.head[col] {
            bound.insert(*slot);
        }
    }
    let order = order_for_delta(&rule.body, &program.preds, OrderFrom::Bound(&bound, None));
    for &idx in &order {
        if let CItem::Atom { pred, terms, .. } = &rule.body[idx] {
            let kw = key_cols(program.decl(*pred));
            let cols: BTreeSet<usize> = terms
                .iter()
                .take(kw)
                .enumerate()
                .filter(|(_, t)| match t {
                    CTerm::Lit(_) => true,
                    CTerm::Var(slot) => bound.contains(slot),
                    CTerm::Wild => false,
                })
                .map(|(c, _)| c)
                .collect();
            visit(idx, *pred, cols);
            bind_item(&rule.body[idx], &mut bound);
        }
    }
    order
}

/// Phase A: the adornment fixed point. Starts from the query patterns
/// and repeatedly narrows per-predicate demand states until stable:
/// demanded heads propagate bindings into their bodies (SIP), negated
/// intensional dependencies and all-free demands drop to full, and full
/// predicates drag their entire upstream cone to full.
fn compute_states(
    program: &Program,
    queries: &[(PredId, Vec<Option<Value>>)],
    idb: &[bool],
) -> Vec<DemandState> {
    let mut state = vec![DemandState::Untouched; program.preds.len()];
    for (pred, pattern) in queries {
        let cols: BTreeSet<usize> = pattern
            .iter()
            .take(key_cols(program.decl(*pred)))
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(c, _)| c)
            .collect();
        demand(&mut state, *pred, cols);
    }
    loop {
        let mut changed = false;
        for rule in &program.rules {
            match state[rule.head_pred.0 as usize].clone() {
                DemandState::Untouched => {}
                DemandState::Full => {
                    // A full head needs its full body: every intensional
                    // dependency (positive or negative) is full too.
                    for item in &rule.body {
                        match item {
                            CItem::Atom { pred, .. } | CItem::NegAtom { pred, .. } => {
                                if idb[pred.0 as usize] {
                                    changed |= make_full(&mut state, *pred);
                                }
                            }
                            CItem::Filter { .. } | CItem::Choose { .. } => {}
                        }
                    }
                }
                DemandState::Bound(adornment) => {
                    for item in &rule.body {
                        if let CItem::NegAtom { pred, .. } = item {
                            if idb[pred.0 as usize] {
                                changed |= make_full(&mut state, *pred);
                            }
                        }
                    }
                    let mut demands: Vec<(PredId, BTreeSet<usize>)> = Vec::new();
                    walk_demands(program, rule, &adornment, |_, pred, cols| {
                        if idb[pred.0 as usize] {
                            demands.push((pred, cols));
                        }
                    });
                    for (pred, cols) in demands {
                        changed |= demand(&mut state, pred, cols);
                    }
                }
            }
        }
        if !changed {
            return state;
        }
    }
}

// ---------------------------------------------------------------------
// Rule emission (phase B).
// ---------------------------------------------------------------------

/// Decompiles a compiled body/head term back to its surface form, using
/// the rule's variable-name table.
fn dec_term(t: &CTerm, names: &[Arc<str>]) -> Term {
    match t {
        CTerm::Var(slot) => Term::Var(names[*slot].clone()),
        CTerm::Lit(v) => Term::Lit(v.clone()),
        CTerm::Wild => Term::Wildcard,
    }
}

/// Decompiles a compiled body item back to a surface [`BodyItem`].
fn dec_item(item: &CItem, names: &[Arc<str>]) -> BodyItem {
    match item {
        CItem::Atom { pred, terms, .. } => BodyItem::Atom {
            pred: *pred,
            terms: terms.iter().map(|t| dec_term(t, names)).collect(),
        },
        CItem::NegAtom { pred, terms } => BodyItem::NegAtom {
            pred: *pred,
            terms: terms.iter().map(|t| dec_term(t, names)).collect(),
        },
        CItem::Filter { func, args } => BodyItem::Filter {
            func: FuncId(*func as u32),
            args: args.iter().map(|t| dec_term(t, names)).collect(),
        },
        CItem::Choose { func, args, binds } => BodyItem::Choose {
            func: FuncId(*func as u32),
            args: args.iter().map(|t| dec_term(t, names)).collect(),
            binds: binds.iter().map(|slot| names[*slot].clone()).collect(),
        },
    }
}

/// Decompiles a compiled rule head back to a surface [`Head`].
fn dec_head(rule: &CRule, names: &[Arc<str>]) -> Head {
    Head {
        pred: rule.head_pred,
        terms: rule
            .head
            .iter()
            .map(|h| match h {
                CHead::Var(slot) => HeadTerm::Var(names[*slot].clone()),
                CHead::Lit(v) => HeadTerm::Lit(v.clone()),
                CHead::App(func, args) => HeadTerm::App(
                    FuncId(*func as u32),
                    args.iter().map(|t| dec_term(t, names)).collect(),
                ),
            })
            .collect(),
    }
}

/// Decompiles a full rule (head and body, compiled order) back to a
/// [`RawRule`]; the compiled order is a valid schedule, so recompiling
/// reproduces an equivalent rule.
fn dec_rule(rule: &CRule) -> RawRule {
    let names = &rule.var_names;
    RawRule {
        head: dec_head(rule, names),
        body: rule.body.iter().map(|item| dec_item(item, names)).collect(),
    }
}

/// Whether a demand rule head is the guard atom verbatim (the
/// tautological `demand$P(x̄) :- demand$P(x̄)` self-loop produced by
/// direct recursion); such rules derive nothing and are skipped.
fn same_pattern(head_terms: &[HeadTerm], guard_terms: &[Term]) -> bool {
    head_terms.len() == guard_terms.len()
        && head_terms
            .iter()
            .zip(guard_terms)
            .all(|(h, g)| match (h, g) {
                (HeadTerm::Var(a), Term::Var(b)) => a == b,
                (HeadTerm::Lit(a), Term::Lit(b)) => a == b,
                _ => false,
            })
}

/// The demand rewrite of one program for one query set (already
/// resolved and validated).
pub(crate) struct Rewritten {
    /// The rewritten program: original predicates (ids preserved) plus
    /// appended `demand$` relations; guarded/full rule copies plus
    /// demand rules; facts restricted to relevant predicates plus the
    /// query seeds.
    pub(crate) program: Program,
    /// For every rewritten rule, the original rule it derives from
    /// (guarded and full copies map to themselves, demand rules to the
    /// rule whose body they propagate through).
    pub(crate) rule_origin: Vec<usize>,
    /// The original program's predicate count; everything at or past
    /// this id is rewrite machinery to strip from results.
    pub(crate) num_original_preds: usize,
    /// Names of intensional predicates evaluated under a demand guard.
    pub(crate) demanded: Vec<String>,
    /// Names of intensional predicates evaluated in full (fallbacks).
    pub(crate) full: Vec<String>,
}

/// Builds the demand rewrite. `queries` must be resolved against
/// `program` (ids valid, patterns arity-checked).
pub(crate) fn rewrite(
    program: &Program,
    queries: &[(PredId, Vec<Option<Value>>)],
) -> Result<Rewritten, ProgramError> {
    let npreds = program.preds.len();
    let mut idb = vec![false; npreds];
    for rule in &program.rules {
        idb[rule.head_pred.0 as usize] = true;
    }
    let state = compute_states(program, queries, &idb);

    // Declare one demand relation per guarded predicate, with a name no
    // surface program can collide with (`$` is not an identifier
    // character; the loop handles hostile programmatic names).
    let mut preds: Vec<PredDecl> = program.preds.clone();
    let mut taken: HashSet<Arc<str>> = preds.iter().map(|d| d.name.clone()).collect();
    let mut demand_pred: Vec<Option<(PredId, Vec<usize>)>> = vec![None; npreds];
    for p in 0..npreds {
        if !idb[p] {
            continue;
        }
        if let DemandState::Bound(cols) = &state[p] {
            let mut name = format!("demand${}", preds[p].name);
            while taken.contains(name.as_str()) {
                name.push('$');
            }
            let name: Arc<str> = name.into();
            taken.insert(name.clone());
            let id = PredId(preds.len() as u32);
            preds.push(PredDecl {
                name,
                arity: cols.len(),
                kind: PredKind::Relation,
            });
            demand_pred[p] = Some((id, cols.iter().copied().collect()));
        }
    }

    // Emit the rewritten rules.
    let mut raw_rules: Vec<RawRule> = Vec::new();
    let mut rule_origin: Vec<usize> = Vec::new();
    let mut body_preds = vec![false; npreds];
    for (i, rule) in program.rules.iter().enumerate() {
        let head = rule.head_pred.0 as usize;
        match &state[head] {
            DemandState::Untouched => continue,
            DemandState::Full => {
                raw_rules.push(dec_rule(rule));
                rule_origin.push(i);
            }
            DemandState::Bound(adornment) => {
                let names = &rule.var_names;
                let (guard_id, guard_cols) = demand_pred[head]
                    .as_ref()
                    .expect("bound intensional predicates have a demand relation");
                let guard_terms: Vec<Term> = guard_cols
                    .iter()
                    .map(|&c| match &rule.head[c] {
                        CHead::Var(slot) => Term::Var(names[*slot].clone()),
                        CHead::Lit(v) => Term::Lit(v.clone()),
                        // A transfer-function output cannot be matched
                        // against the demand; the guard leaves it open.
                        CHead::App(..) => Term::Wildcard,
                    })
                    .collect();
                let guard = BodyItem::Atom {
                    pred: *guard_id,
                    terms: guard_terms.clone(),
                };

                // Demand rules: for every demanded intensional atom, the
                // bindings available before matching it.
                let mut demand_rules: Vec<RawRule> = Vec::new();
                let mut prefix: Vec<BodyItem> = vec![guard.clone()];
                let order = walk_demands(program, rule, adornment, |idx, pred, _| {
                    let CItem::Atom { terms, .. } = &rule.body[idx] else {
                        unreachable!("walk_demands visits positive atoms")
                    };
                    if let Some((qid, qcols)) = &demand_pred[pred.0 as usize] {
                        let head_terms: Vec<HeadTerm> = qcols
                            .iter()
                            .map(|&c| match &terms[c] {
                                CTerm::Var(slot) => HeadTerm::Var(names[*slot].clone()),
                                CTerm::Lit(v) => HeadTerm::Lit(v.clone()),
                                CTerm::Wild => {
                                    unreachable!("adorned columns are bound or literal")
                                }
                            })
                            .collect();
                        let tautology = prefix.len() == 1
                            && *qid == *guard_id
                            && same_pattern(&head_terms, &guard_terms);
                        if !tautology {
                            demand_rules.push(RawRule {
                                head: Head {
                                    pred: *qid,
                                    terms: head_terms,
                                },
                                body: prefix.clone(),
                            });
                        }
                    }
                    prefix.push(dec_item(&rule.body[idx], names));
                });

                // The guarded copy — guard first, body in SIP order — and
                // after it the demand rules that order gave rise to.
                let mut body: Vec<BodyItem> = Vec::with_capacity(rule.body.len() + 1);
                body.push(guard);
                body.extend(order.iter().map(|&idx| dec_item(&rule.body[idx], names)));
                raw_rules.push(RawRule {
                    head: dec_head(rule, names),
                    body,
                });
                rule_origin.resize(rule_origin.len() + 1 + demand_rules.len(), i);
                raw_rules.append(&mut demand_rules);
            }
        }
        for item in &rule.body {
            match item {
                CItem::Atom { pred, .. } | CItem::NegAtom { pred, .. } => {
                    body_preds[pred.0 as usize] = true;
                }
                CItem::Filter { .. } | CItem::Choose { .. } => {}
            }
        }
    }

    // Facts: keep extensional input for every relevant predicate —
    // queried/demanded/full ones plus anything a kept rule body reads.
    // Everything else is dropped, which is both the saving and the
    // "undemanded predicates are never materialized" guarantee.
    let mut facts: Vec<(PredId, Vec<Value>)> = program
        .facts
        .iter()
        .filter(|(p, _)| {
            let p = p.0 as usize;
            state[p].is_touched() || body_preds[p]
        })
        .cloned()
        .collect();

    // Seeds: every query pattern projected to its predicate's adornment.
    for (pred, pattern) in queries {
        if let Some((did, cols)) = &demand_pred[pred.0 as usize] {
            let seed: Vec<Value> = cols
                .iter()
                .map(|&c| {
                    pattern[c]
                        .clone()
                        .expect("adorned columns are bound in every query")
                })
                .collect();
            facts.push((*did, seed));
        }
    }

    let mut demanded = Vec::new();
    let mut full = Vec::new();
    for p in 0..npreds {
        if !idb[p] {
            continue;
        }
        match &state[p] {
            DemandState::Bound(_) => demanded.push(preds[p].name.to_string()),
            DemandState::Full => full.push(preds[p].name.to_string()),
            DemandState::Untouched => {}
        }
    }

    let program = Program::from_parts(
        preds,
        program.funcs.clone(),
        raw_rules,
        facts,
        program.names.clone(),
    )?;
    Ok(Rewritten {
        program,
        rule_origin,
        num_original_preds: npreds,
        demanded,
        full,
    })
}

// ---------------------------------------------------------------------
// The query-directed solver entry point and result remapping.
// ---------------------------------------------------------------------

/// A query resolved against a program: the predicate id and the pattern.
pub(crate) type ResolvedQuery = (PredId, Vec<Option<Value>>);

/// Resolves query names against the program and checks pattern widths.
pub(crate) fn resolve_queries(
    program: &Program,
    queries: &[Query],
) -> Result<Vec<ResolvedQuery>, DemandError> {
    let mut resolved = Vec::with_capacity(queries.len());
    for q in queries {
        let Some(pred) = program.predicate(&q.predicate) else {
            return Err(DemandError::UnknownPredicate {
                predicate: q.predicate.clone(),
            });
        };
        let declared = program.decl(pred).arity();
        if q.pattern.len() != declared {
            return Err(DemandError::ArityMismatch {
                predicate: q.predicate.clone(),
                declared,
                found: q.pattern.len(),
            });
        }
        resolved.push((pred, q.pattern.clone()));
    }
    Ok(resolved)
}

/// Folds the rewritten run's per-rule profile onto the original rules
/// via the origin map: a guarded copy's and its demand rules' work all
/// accrue to the one user-facing rule (so `render_profile_table` groups
/// rewritten variants under the original rule automatically).
fn remap_stats(
    original: &Program,
    rw: &Rewritten,
    run: SolveStats,
    final_db: &Database,
) -> SolveStats {
    let mut per_rule = SolveStats::for_program(original).per_rule;
    for (i, rs) in run.per_rule.iter().enumerate() {
        let target = &mut per_rule[rw.rule_origin[i]];
        target.evaluations += rs.evaluations;
        target.derived += rs.derived;
        target.inserted += rs.inserted;
        target.probes += rs.probes;
        target.scans += rs.scans;
        target.eval_ns += rs.eval_ns;
    }
    SolveStats {
        per_rule,
        // The user-facing fact count describes the demand-restricted
        // model, not the internal demand relations.
        total_facts: final_db.total_facts() as u64,
        ..run
    }
}

/// Rewrites failure details recorded against the rewritten program back
/// into the original program's terms.
fn remap_error(original: &Program, rw: &Rewritten, mut error: SolveError) -> SolveError {
    match &mut error {
        SolveError::FunctionPanicked {
            predicate, rule, ..
        }
        | SolveError::SafetyViolation {
            predicate, rule, ..
        } => {
            if let Some(r) = rule {
                let origin = rw.rule_origin[*r];
                *r = origin;
                if original.predicate(predicate).is_none() {
                    // The failing rule was demand machinery; attribute it
                    // to the originating rule's head.
                    *predicate = original
                        .decl(original.rules[origin].head_pred)
                        .name()
                        .to_string();
                }
            }
        }
        _ => {}
    }
    error
}

impl Solver {
    /// Solves `program` only as far as the given queries demand: the
    /// magic-set-style rewrite of this module restricts evaluation to
    /// the tuples and lattice cells transitively relevant to the query
    /// patterns, and the answers are read off the restricted model.
    ///
    /// Demanded facts and cells are *cell-for-cell identical* to the
    /// full minimal model (pinned by the demand parity suite across all
    /// strategies and thread counts); undemanded predicates are left
    /// empty. An empty query set demands nothing and yields an empty
    /// model. Statistics, profiles and provenance are reported in the
    /// *original* program's rule indices and predicate names — the
    /// rewrite is invisible outside this method. The configured [`crate::Budget`], round limit, strategy,
    /// and thread count all apply as in [`Solver::solve`].
    ///
    /// # Errors
    ///
    /// All [`Solver::solve`] failure modes, plus [`SolveError::Demand`]
    /// when a query is malformed (unknown predicate, wrong pattern
    /// width) — in that case the partial solution is empty. On budget
    /// or round-limit exhaustion the partial solution is a sound
    /// under-approximation: every reported fact is in the full model,
    /// and demanded lattice cells sit at or below their full-model
    /// values.
    pub fn solve_query(
        &self,
        program: &Program,
        queries: &[Query],
    ) -> Result<QueryResult, Box<SolveFailure>> {
        let wall_start = Instant::now();
        let resolved = match resolve_queries(program, queries) {
            Ok(resolved) => resolved,
            Err(e) => {
                let run = Run::fresh(self, program, Arc::clone(&program.facts));
                return Err(run.reject(SolveError::Demand(e)));
            }
        };

        // The rewrite of a stratifiable program is stratifiable (full
        // predicates keep their original sub-program; demand edges are
        // purely positive), but a failed rewrite or stratification is
        // never fatal: fall back to an unrestricted solve and filter.
        let tracer = Tracer::new(self.config.trace.as_ref());
        let rewrite_start = tracer.now_ns();
        let rewritten = rewrite(program, &resolved)
            .ok()
            .filter(|rw| check_stratifiable(&rw.program).is_ok());
        tracer.record(0, SpanKind::DemandRewrite, rewrite_start);
        let Some(rw) = rewritten else {
            let mut idb_names: Vec<String> = Vec::new();
            let mut seen = vec![false; program.preds.len()];
            for rule in &program.rules {
                let p = rule.head_pred.0 as usize;
                if !seen[p] {
                    seen[p] = true;
                    idb_names.push(program.decl(rule.head_pred).name().to_string());
                }
            }
            let solution = self.solve(program)?;
            return Ok(QueryResult {
                solution,
                queries: queries.to_vec(),
                demanded: Vec::new(),
                full: idb_names,
                fallback: true,
            });
        };

        // Solve the rewritten program — the same composition as `solve`.
        let mut run = Run::fresh(self, &rw.program, Arc::clone(&rw.program.facts))
            .started(wall_start, tracer);
        let outcome = run.strata().and_then(|strata| run.scratch(&strata));

        // Strip the demand machinery before anyone sees the result:
        // truncate the database back to the original predicates, fold
        // rewritten-rule work onto original rules, translate provenance
        // and failure details. The trace is remapped the same way:
        // demand-internal rule spans collapse onto the user-facing rules
        // they propagate for.
        let solution = run.finish_as(program, outcome, |out| {
            let db = Arc::new(Arc::unwrap_or_clone(out.db).truncated(rw.num_original_preds));
            Finished {
                stats: remap_stats(program, &rw, out.stats, &db),
                db,
                edb: Arc::clone(&program.facts),
                // The log was recorded over the rewritten program: events
                // on demand relations are dropped, rule indices translated
                // to original rules and guard premises removed — so
                // [`Solution::explain`] renders derivations exactly as a
                // full solve would have. The run started fresh, so the
                // events it recorded are the whole log.
                events: out.events.map(|log| {
                    let original = |pred: PredId| (pred.0 as usize) < rw.num_original_preds;
                    log.rewritten(program, original, |rule| rw.rule_origin[rule])
                }),
                trace: out.trace.map(|mut t| {
                    t.remap_rules(&rw.rule_origin, rule_heads(program));
                    t
                }),
                outcome: out.outcome.map_err(|e| remap_error(program, &rw, e)),
            }
        })?;
        Ok(QueryResult {
            solution,
            queries: queries.to_vec(),
            demanded: rw.demanded,
            full: rw.full,
            fallback: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Strategy, Term, ValueLattice,
    };
    use flix_lattice::MinCost;

    fn path_program() -> Program {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 2);
        let path = b.relation("Path", 2);
        for (x, y) in [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12)] {
            b.fact(edge, vec![x.into(), y.into()]);
        }
        b.rule(
            Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
            [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
        );
        b.rule(
            Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
            ],
        );
        b.build().expect("valid program")
    }

    #[test]
    fn bound_first_column_restricts_derivation() {
        let program = path_program();
        let query = Query::new("Path", vec![Some(Value::from(1)), None]);
        let result = Solver::new()
            .solve_query(&program, &[query])
            .expect("query solves");
        assert!(!result.used_fallback());
        let answers: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
        assert_eq!(answers.len(), 3, "{answers:?}");
        // The 10 → 12 component is never derived.
        assert!(!result.solution().contains("Path", &[10.into(), 11.into()]));
        // Work is strictly less than the full model's 8 Path tuples.
        let full = Solver::new().solve(&program).expect("full solve");
        assert!(result.solution().len("Path") < full.len("Path"));
    }

    #[test]
    fn demanded_answers_equal_full_model() {
        let program = path_program();
        let full = Solver::new().solve(&program).expect("full solve");
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let query = Query::new("Path", vec![Some(Value::from(2)), None]);
            let result = Solver::new()
                .strategy(strategy)
                .solve_query(&program, std::slice::from_ref(&query))
                .expect("query solves");
            let mut demanded: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
            let mut reference: Vec<String> = full
                .facts("Path")
                .expect("Path exists")
                .filter(|f| query.matches(f))
                .map(|f| f.to_string())
                .collect();
            demanded.sort();
            reference.sort();
            assert_eq!(demanded, reference, "{strategy:?}");
        }
    }

    #[test]
    fn lattice_cells_are_demanded_by_key() {
        // §4.4 shortest paths; query one target cell and check it equals
        // the full model's.
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 3);
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        let extend = b.function("extend", |args| {
            let d = MinCost::expect_from(&args[0]);
            let c = args[1].as_int().expect("weight") as u64;
            d.add_weight(c).to_value()
        });
        b.fact(dist, vec!["a".into(), MinCost::finite(0).to_value()]);
        for (x, y, c) in [("a", "b", 4), ("b", "c", 3), ("a", "c", 9), ("z", "c", 1)] {
            b.fact(edge, vec![x.into(), y.into(), c.into()]);
        }
        b.rule(
            Head::new(
                dist,
                [
                    HeadTerm::var("y"),
                    HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
                ],
            ),
            [
                BodyItem::atom(dist, [Term::var("x"), Term::var("d")]),
                BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
            ],
        );
        let program = b.build().expect("valid");
        let query = Query::new("Dist", vec![Some(Value::from("c")), None]);
        let result = Solver::new()
            .solve_query(&program, &[query])
            .expect("query solves");
        assert_eq!(
            result.solution().lattice_value("Dist", &["c".into()]),
            Some(MinCost::finite(7).to_value()),
        );
    }

    #[test]
    fn stats_and_profiles_speak_original_names() {
        let program = path_program();
        let query = Query::new("Path", vec![Some(Value::from(1)), None]);
        let result = Solver::new()
            .solve_query(&program, &[query])
            .expect("query solves");
        let stats = result.stats();
        assert_eq!(stats.per_rule.len(), program.num_rules());
        for rs in &stats.per_rule {
            assert!(
                !rs.head.contains('$'),
                "demand machinery leaked into stats: {}",
                rs.head
            );
        }
        // The recursive rule did real (guarded) work.
        assert!(stats.per_rule[1].evaluations > 0);
    }

    #[test]
    fn malformed_queries_are_rejected() {
        let program = path_program();
        let err = Solver::new()
            .solve_query(&program, &[Query::new("Nope", vec![None])])
            .expect_err("unknown predicate");
        assert!(matches!(
            err.error,
            SolveError::Demand(DemandError::UnknownPredicate { .. })
        ));
        let err = Solver::new()
            .solve_query(&program, &[Query::new("Path", vec![None])])
            .expect_err("arity mismatch");
        assert!(matches!(
            err.error,
            SolveError::Demand(DemandError::ArityMismatch {
                declared: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn empty_query_set_demands_nothing() {
        let program = path_program();
        let result = Solver::new()
            .solve_query(&program, &[])
            .expect("empty query set");
        assert_eq!(result.solution().total_facts(), 0);
    }

    #[test]
    fn all_free_query_falls_back_to_full_evaluation() {
        let program = path_program();
        let query = Query::new("Path", vec![None, None]);
        let result = Solver::new()
            .solve_query(&program, &[query])
            .expect("query solves");
        let full = Solver::new().solve(&program).expect("full solve");
        assert_eq!(result.solution().len("Path"), full.len("Path"));
        assert!(result.full_predicates().any(|p| p == "Path"));
    }
}
