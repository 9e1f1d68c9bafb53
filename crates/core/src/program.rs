//! The compiled program: interned variables, validated rules, and the
//! index requirements derived from rule bodies.

use crate::ast::{BodyItem, FuncDef, HeadTerm, PredDecl, ProgramError, RawRule, Term};
use crate::database::KindWords;
use crate::{Names, PredId, Value};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A compiled body or head term: variables are slot indices.
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    Var(usize),
    Lit(Value),
    Wild,
}

/// A compiled head term.
#[derive(Clone, Debug)]
pub(crate) enum CHead {
    Var(usize),
    Lit(Value),
    App(usize, Vec<CTerm>),
}

/// A compiled body item.
#[derive(Clone, Debug)]
pub(crate) enum CItem {
    Atom {
        pred: PredId,
        terms: Vec<CTerm>,
        /// Columns usable for an index lookup: literal columns plus
        /// variable columns bound by earlier body items. For lattice
        /// predicates only key columns (all but the last) are included.
        index_cols: Vec<usize>,
    },
    NegAtom {
        pred: PredId,
        terms: Vec<CTerm>,
    },
    Filter {
        func: usize,
        args: Vec<CTerm>,
    },
    Choose {
        func: usize,
        args: Vec<CTerm>,
        binds: Vec<usize>,
    },
}

/// A compiled rule.
#[derive(Clone, Debug)]
pub(crate) struct CRule {
    pub(crate) head_pred: PredId,
    pub(crate) head: Vec<CHead>,
    pub(crate) body: Vec<CItem>,
    pub(crate) num_vars: usize,
    /// Variable names by slot; the demand rewrite uses them to decompile
    /// compiled rules back to surface syntax.
    pub(crate) var_names: Vec<Arc<str>>,
    /// Semi-naïve delta variants, one per positive body atom (§3.7: "the
    /// rule is evaluated as many times as there are atoms in its body").
    /// Each variant permutes the body so the delta atom comes *first*,
    /// driving the join from the (small) delta instead of re-scanning the
    /// full relations, with index columns recomputed for the new order.
    pub(crate) delta_variants: Vec<(PredId, Vec<CItem>)>,
}

/// A validated, compiled FLIX program, ready to be solved.
///
/// Produced by [`ProgramBuilder::build`](crate::ProgramBuilder::build);
/// consumed by [`Solver::solve`](crate::Solver::solve).
#[derive(Debug)]
pub struct Program {
    pub(crate) preds: Vec<PredDecl>,
    pub(crate) pred_names: HashMap<Arc<str>, PredId>,
    pub(crate) funcs: Vec<FuncDef>,
    pub(crate) rules: Vec<CRule>,
    /// Shared, so every [`Solution`](crate::Solution) of the program
    /// names its extensional store without copying it.
    pub(crate) facts: Arc<Vec<(PredId, Vec<Value>)>>,
    /// Index requests: for each predicate, the distinct bound-column sets
    /// occurring in rule bodies (the index-selection strategy of DESIGN.md
    /// decision 4). Ordered, so every store of the program registers its
    /// indexes at the same positions.
    pub(crate) index_requests: BTreeMap<PredId, BTreeSet<Vec<usize>>>,
    /// The strings every store of the program interns first
    /// ([`ProgramBuilder::names`](crate::ProgramBuilder::names)).
    pub(crate) names: Names,
}

impl Program {
    /// The number of declared predicates.
    pub fn num_predicates(&self) -> usize {
        self.preds.len()
    }

    /// The number of compiled rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The number of ground facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Iterates the ground facts as `(predicate, tuple)` pairs, in
    /// declaration order. Lattice facts carry the element as the last
    /// column.
    pub fn facts(&self) -> impl Iterator<Item = (PredId, &[Value])> {
        self.facts.iter().map(|(p, v)| (*p, v.as_slice()))
    }

    /// The names every store of the program interns first, whose ids
    /// its word forms may bake in
    /// ([`ProgramBuilder::names`](crate::ProgramBuilder::names)).
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Looks up a predicate id by name.
    pub fn predicate(&self, name: &str) -> Option<PredId> {
        self.pred_names.get(name).copied()
    }

    /// The declaration of a predicate.
    pub fn decl(&self, pred: PredId) -> &PredDecl {
        &self.preds[pred.0 as usize]
    }

    /// Iterates all predicate declarations with their ids.
    pub fn predicates(&self) -> impl Iterator<Item = (PredId, &PredDecl)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, d)| (PredId(i as u32), d))
    }

    /// This program with every lattice's declared kind, every word form and
    /// every choice form taken away: the same closures, all run boxed — the
    /// reference the word path is held to in tests.
    #[doc(hidden)]
    #[cfg(any(test, feature = "test-internals"))]
    pub fn boxed_reference(&self) -> Program {
        use crate::ast::PredKind;
        let mut preds = self.preds.clone();
        for decl in &mut preds {
            if let PredKind::Lattice(ops) = &mut decl.kind {
                *ops = ops.without_kind();
            }
        }
        let funcs = self.funcs.iter().map(|f| FuncDef {
            word: None,
            choice: None,
            ..f.clone()
        });
        Program {
            preds,
            pred_names: self.pred_names.clone(),
            funcs: funcs.collect(),
            rules: self.rules.clone(),
            facts: Arc::clone(&self.facts),
            index_requests: self.index_requests.clone(),
            names: self.names.clone(),
        }
    }

    pub(crate) fn from_parts(
        preds: Vec<PredDecl>,
        funcs: Vec<FuncDef>,
        raw_rules: Vec<RawRule>,
        facts: Vec<(PredId, Vec<Value>)>,
        mut names: Names,
    ) -> Result<Program, ProgramError> {
        let pred_names: HashMap<Arc<str>, PredId> = preds
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), PredId(i as u32)))
            .collect();

        for (decl, ops) in preds.iter().filter_map(|d| Some((d, d.lattice_ops()?))) {
            if ops
                .word_forms()
                .is_some_and(|forms| !names.extends(&forms.names))
            {
                return Err(ProgramError::ForeignWordForms {
                    predicate: decl.name.to_string(),
                    lattice: ops.name().to_string(),
                });
            }
        }
        // Every lattice's ⊥ gets its slot in every store of the program:
        // a cell's word is compared to it (`KindWords::of`).
        for ops in preds.iter().filter_map(PredDecl::lattice_ops) {
            names.intern_value(ops.bottom());
        }

        for (pred, values) in &facts {
            let decl = &preds[pred.0 as usize];
            if values.len() != decl.arity {
                return Err(ProgramError::FactArityMismatch {
                    predicate: decl.name.to_string(),
                    declared: decl.arity,
                    found: values.len(),
                });
            }
            if values.iter().any(Value::is_too_deep) {
                return Err(ProgramError::ValueTooDeep {
                    predicate: decl.name.to_string(),
                });
            }
        }

        let mut rules = Vec::with_capacity(raw_rules.len());
        let mut index_requests: BTreeMap<PredId, BTreeSet<Vec<usize>>> = BTreeMap::new();
        for raw in &raw_rules {
            rules.push(compile_rule(raw, &preds, &mut index_requests)?);
        }

        // A rule literal in a lattice's value column is one of its
        // elements: the plan compiles its word (`kernel::compile_body`).
        for rule in &rules {
            let head = rule.head.last().map(|h| (rule.head_pred, h));
            let head = head.and_then(|(pred, h)| match h {
                CHead::Lit(v) => Some((pred, v)),
                _ => None,
            });
            let body = rule.body.iter().filter_map(|item| match item {
                CItem::Atom { pred, terms, .. } | CItem::NegAtom { pred, terms } => {
                    match terms.last() {
                        Some(CTerm::Lit(v)) => Some((*pred, v)),
                        _ => None,
                    }
                }
                _ => None,
            });
            for (pred, literal) in head.into_iter().chain(body) {
                let decl = &preds[pred.0 as usize];
                let Some(ops) = decl.lattice_ops() else {
                    continue;
                };
                let words = KindWords::of(ops, &names);
                if !words.is_slots() && !words.is_elem(literal) {
                    return Err(ProgramError::LiteralNotAnElement {
                        predicate: decl.name.to_string(),
                        lattice: ops.name().to_string(),
                        literal: literal.to_string(),
                    });
                }
            }
        }

        Ok(Program {
            preds,
            pred_names,
            funcs,
            rules,
            facts: Arc::new(facts),
            index_requests,
            names,
        })
    }
}

/// Interns variable names to slots within one rule.
struct VarScope {
    names: Vec<Arc<str>>,
    slots: HashMap<Arc<str>, usize>,
}

impl VarScope {
    fn new() -> VarScope {
        VarScope {
            names: Vec::new(),
            slots: HashMap::new(),
        }
    }

    fn intern(&mut self, name: &Arc<str>) -> usize {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(name.clone());
        self.slots.insert(name.clone(), slot);
        slot
    }
}

/// Orders body items so that filters, choices, and negated atoms run only
/// after the positive atoms that bind their variables, preserving the
/// relative order of the positive atoms.
///
/// The paper's own example (§3.7) writes
/// `R(x) :- isMaybeZero(x), A(x).` with the filter first; a rule is a
/// logical conjunction, so the engine is free to pick an evaluation order,
/// and this greedy schedule is the minimal "query planning" needed to
/// evaluate such rules left to right. Items whose variables never become
/// bound are appended in source order so validation reports them.
fn schedule_body(items: &[BodyItem]) -> Vec<&BodyItem> {
    fn term_vars<'a>(terms: &'a [Term], out: &mut Vec<&'a str>) {
        for t in terms {
            if let Term::Var(name) = t {
                out.push(name);
            }
        }
    }

    let mut scheduled: Vec<&BodyItem> = Vec::with_capacity(items.len());
    let mut pending: Vec<&BodyItem> = items.iter().collect();
    let mut bound: HashSet<&str> = HashSet::new();
    while !pending.is_empty() {
        let ready = pending.iter().position(|item| {
            let mut needed = Vec::new();
            match item {
                BodyItem::Atom { .. } => return true,
                BodyItem::NegAtom { terms, .. } => term_vars(terms, &mut needed),
                BodyItem::Filter { args, .. } | BodyItem::Choose { args, .. } => {
                    term_vars(args, &mut needed)
                }
            }
            needed.iter().all(|v| bound.contains(v))
        });
        let Some(i) = ready else {
            // No progress possible: emit the rest as-is so that
            // compilation reports the first genuinely unbound variable.
            scheduled.extend(pending);
            break;
        };
        let item = pending.remove(i);
        match item {
            BodyItem::Atom { terms, .. } => {
                let mut vars = Vec::new();
                term_vars(terms, &mut vars);
                bound.extend(vars);
            }
            BodyItem::Choose { binds, .. } => {
                bound.extend(binds.iter().map(|b| &**b));
            }
            BodyItem::NegAtom { .. } | BodyItem::Filter { .. } => {}
        }
        scheduled.push(item);
    }
    scheduled
}

/// The columns of a predicate that encode and index: all of a relation's,
/// all but the value column of a lattice predicate's.
pub(crate) fn key_cols(decl: &PredDecl) -> usize {
    decl.arity - decl.is_lattice() as usize
}

fn compile_rule(
    raw: &RawRule,
    preds: &[PredDecl],
    index_requests: &mut BTreeMap<PredId, BTreeSet<Vec<usize>>>,
) -> Result<CRule, ProgramError> {
    let head_decl = &preds[raw.head.pred.0 as usize];
    let head_name = head_decl.name.to_string();
    let check_arity = |pred: &PredId, found: usize| {
        let decl = &preds[pred.0 as usize];
        if found == decl.arity {
            return Ok(());
        }
        Err(ProgramError::ArityMismatch {
            predicate: decl.name.to_string(),
            declared: decl.arity,
            found,
        })
    };
    check_arity(&raw.head.pred, raw.head.terms.len())?;
    let deep = |t: &HeadTerm| matches!(t, HeadTerm::Lit(v) if v.is_too_deep());
    if raw.head.terms.iter().any(deep) {
        return Err(ProgramError::ValueTooDeep {
            predicate: head_name,
        });
    }

    let mut scope = VarScope::new();
    // `bound[slot]` tracks whether a positive item has bound the slot,
    // processing the body left to right.
    let mut bound: Vec<bool> = Vec::new();

    let intern_var = |scope: &mut VarScope, bound: &mut Vec<bool>, name: &Arc<str>| {
        let slot = scope.intern(name);
        if slot >= bound.len() {
            bound.push(false);
        }
        slot
    };
    let intern_terms = |scope: &mut VarScope, bound: &mut Vec<bool>, terms: &[Term]| {
        let intern = |t: &Term| match t {
            Term::Var(name) => CTerm::Var(intern_var(scope, bound, name)),
            Term::Lit(v) => CTerm::Lit(v.clone()),
            Term::Wildcard => CTerm::Wild,
        };
        terms.iter().map(intern).collect::<Vec<CTerm>>()
    };
    // Safety of a test, a choice or a head application: every variable it
    // reads must already be bound. The first that is not, by name.
    let unbound = |bound: &[bool], cterms: &[CTerm], terms: &[Term]| {
        let mut pairs = cterms.iter().zip(terms);
        pairs.find_map(|pair| match pair {
            (CTerm::Var(slot), Term::Var(name)) if !bound[*slot] => Some(name.to_string()),
            _ => None,
        })
    };
    let require_bound = |bound: &[bool], cterms: &[CTerm], terms: &[Term]| {
        unbound(bound, cterms, terms).map_or(Ok(()), |variable| {
            Err(ProgramError::UnboundBodyVariable {
                variable,
                predicate: head_name.clone(),
            })
        })
    };

    let ordered_body = schedule_body(&raw.body);
    let mut body = Vec::with_capacity(ordered_body.len());
    let mut atom_positions = Vec::new();
    for (pos, item) in ordered_body.iter().copied().enumerate() {
        match item {
            BodyItem::Atom { pred, terms } => {
                check_arity(pred, terms.len())?;
                let terms = intern_terms(&mut scope, &mut bound, terms);
                // After matching, every variable of the atom is bound.
                for t in &terms {
                    if let CTerm::Var(slot) = t {
                        bound[*slot] = true;
                    }
                }
                atom_positions.push(pos);
                body.push(CItem::Atom {
                    pred: *pred,
                    terms,
                    index_cols: Vec::new(),
                });
            }
            BodyItem::NegAtom { pred, terms } => {
                check_arity(pred, terms.len())?;
                let cterms = intern_terms(&mut scope, &mut bound, terms);
                require_bound(&bound, &cterms, terms)?;
                body.push(CItem::NegAtom {
                    pred: *pred,
                    terms: cterms,
                });
            }
            BodyItem::Filter { func, args } => {
                let cargs = intern_terms(&mut scope, &mut bound, args);
                require_bound(&bound, &cargs, args)?;
                body.push(CItem::Filter {
                    func: func.0 as usize,
                    args: cargs,
                });
            }
            BodyItem::Choose { func, args, binds } => {
                let cargs = intern_terms(&mut scope, &mut bound, args);
                require_bound(&bound, &cargs, args)?;
                let mut bind_slots = Vec::with_capacity(binds.len());
                for name in binds {
                    let slot = intern_var(&mut scope, &mut bound, name);
                    bound[slot] = true;
                    bind_slots.push(slot);
                }
                body.push(CItem::Choose {
                    func: func.0 as usize,
                    args: cargs,
                    binds: bind_slots,
                });
            }
        }
    }

    // Compile the head; check range restriction and app placement.
    let mut head = Vec::with_capacity(raw.head.terms.len());
    let last = raw.head.terms.len().saturating_sub(1);
    let unbound_in_head = |variable: String| ProgramError::UnboundHeadVariable {
        variable,
        predicate: head_name.clone(),
    };
    for (i, t) in raw.head.terms.iter().enumerate() {
        match t {
            HeadTerm::Var(name) => {
                let slot = intern_var(&mut scope, &mut bound, name);
                if !bound[slot] {
                    return Err(unbound_in_head(name.to_string()));
                }
                head.push(CHead::Var(slot));
            }
            HeadTerm::Lit(v) => head.push(CHead::Lit(v.clone())),
            HeadTerm::App(func, args) => {
                if i != last {
                    return Err(ProgramError::AppNotLast {
                        predicate: head_name.clone(),
                    });
                }
                let cargs = intern_terms(&mut scope, &mut bound, args);
                if let Some(variable) = unbound(&bound, &cargs, args) {
                    return Err(unbound_in_head(variable));
                }
                head.push(CHead::App(func.0 as usize, cargs));
            }
        }
    }

    // The index columns of the scheduled body, then the delta variants:
    // each positive atom moved to the front, the rest in the greedy join
    // order, the index columns computed for that order the same way.
    let mut request = |pred: PredId, cols: &[usize]| {
        let requests = index_requests.entry(pred).or_default();
        requests.insert(cols.to_vec());
    };
    recompute_index_cols(&mut body, preds, &HashSet::new(), &mut request);
    let mut delta_variants = Vec::with_capacity(atom_positions.len());
    for &pos in &atom_positions {
        let CItem::Atom { pred, .. } = &body[pos] else {
            unreachable!("atom_positions only indexes atoms")
        };
        let variant = ordered_body_from(&body, preds, OrderFrom::Delta(pos), &mut request);
        delta_variants.push((*pred, variant));
    }

    Ok(CRule {
        head_pred: raw.head.pred,
        head,
        body,
        num_vars: scope.names.len(),
        var_names: scope.names,
        delta_variants,
    })
}

/// What a greedy body order ([`order_for_delta`]) starts from.
#[derive(Clone, Copy)]
pub(crate) enum OrderFrom<'a> {
    /// A semi-naïve variant: this positive atom goes first.
    Delta(usize),
    /// These variables are bound before the first item runs: the head
    /// variables a demand guard binds (the sideways information passing
    /// of [`crate::demand`]) or a head-bound plan's seed does (DESIGN
    /// §16). Only the latter — made for one database, not for a program —
    /// also says how many rows each predicate stores right now.
    Bound(&'a HashSet<usize>, Option<&'a [usize]>),
}

/// The variables an item reads: all of an atom's or a test's, the
/// arguments of a choice.
fn item_vars(item: &CItem) -> impl Iterator<Item = usize> + '_ {
    let terms = match item {
        CItem::Atom { terms, .. } | CItem::NegAtom { terms, .. } => terms,
        CItem::Filter { args, .. } | CItem::Choose { args, .. } => args,
    };
    terms.iter().filter_map(|t| match t {
        CTerm::Var(slot) => Some(*slot),
        _ => None,
    })
}

/// Marks what running `item` binds: an atom its variables, a choice its
/// binds, a test nothing.
pub(crate) fn bind_item(item: &CItem, bound: &mut HashSet<usize>) {
    match item {
        CItem::Atom { .. } => bound.extend(item_vars(item)),
        CItem::Choose { binds, .. } => bound.extend(binds),
        CItem::NegAtom { .. } | CItem::Filter { .. } => {}
    }
}

/// The engine's one join order, as indices into `body`: whatever `from`
/// puts first, then greedily — ready filters and negations as soon as
/// their variables are bound, then the atom sharing the most bound
/// columns (avoiding accidental cross products; the earliest on a tie),
/// then ready choice bindings, and only as a last resort an unconnected
/// atom. Delta variants, head-bound plans and the demand rewrite's
/// guarded rules are all ordered here, so a change of heuristic reaches
/// all three. The one data-dependent input is a head-bound plan's row
/// counts: with them an atom whose key columns are all bound (one lookup)
/// is preferred to any other, and of two atoms with as many bound columns
/// the one whose predicate stores fewer rows. Deterministic: the demand
/// rewrite's two phases rely on seeing the same order twice.
pub(crate) fn order_for_delta(
    body: &[CItem],
    preds: &[PredDecl],
    from: OrderFrom<'_>,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(body.len());
    let mut bound: HashSet<usize> = HashSet::new();
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    let mut rows = None;
    match from {
        OrderFrom::Delta(idx) => {
            out.push(remaining.remove(idx));
            bind_item(&body[idx], &mut bound);
        }
        OrderFrom::Bound(vars, stored) => {
            bound.extend(vars);
            rows = stored;
        }
    }
    while !remaining.is_empty() {
        let ready = |i: usize| item_vars(&body[i]).all(|v| bound.contains(&v));
        // 1. Pure tests whose variables are all bound.
        let test = remaining.iter().position(|&i| {
            matches!(body[i], CItem::NegAtom { .. } | CItem::Filter { .. }) && ready(i)
        });
        // 2. The atom with the most bound columns (literals count).
        let atom = || {
            let scored = remaining.iter().enumerate().filter_map(|(k, &i)| {
                let CItem::Atom { pred, terms, .. } = &body[i] else {
                    return None;
                };
                let is_bound = |t: &CTerm| match t {
                    CTerm::Lit(_) => true,
                    CTerm::Var(slot) => bound.contains(slot),
                    CTerm::Wild => false,
                };
                let score = terms.iter().filter(|t| is_bound(t)).count();
                let (ground, rows) = rows.map_or((false, 0), |rows| {
                    let key = key_cols(&preds[pred.0 as usize]);
                    (terms[..key].iter().all(is_bound), rows[pred.0 as usize])
                });
                Some((ground, score, Reverse(rows), Reverse(k)))
            });
            let best = scored.max().filter(|&(_, score, ..)| score > 0);
            best.map(|(.., Reverse(k))| k)
        };
        // 3. A choice binding whose arguments are bound.
        let choice = || {
            let choice = |&i: &usize| matches!(body[i], CItem::Choose { .. }) && ready(i);
            remaining.iter().position(choice)
        };
        // 4. Unconnected atom: unavoidable cross product; take the first.
        let any_atom = || {
            let atom = |&i: &usize| matches!(body[i], CItem::Atom { .. });
            remaining.iter().position(atom)
        };
        // (A validated body always has one of the four.)
        let k = test.or_else(atom).or_else(choice).or_else(any_atom);
        let i = remaining.remove(k.unwrap_or(0));
        bind_item(&body[i], &mut bound);
        out.push(i);
    }
    out
}

/// `body` in the order [`order_for_delta`] gives it from `from`, with the
/// index columns of that order; `request` as in [`recompute_index_cols`].
pub(crate) fn ordered_body_from(
    body: &[CItem],
    preds: &[PredDecl],
    from: OrderFrom<'_>,
    request: impl FnMut(PredId, &[usize]),
) -> Vec<CItem> {
    let order = order_for_delta(body, preds, from);
    let mut items: Vec<CItem> = order.iter().map(|&i| body[i].clone()).collect();
    let none = HashSet::new();
    let bound = match from {
        OrderFrom::Delta(_) => &none,
        OrderFrom::Bound(bound, _) => bound,
    };
    recompute_index_cols(&mut items, preds, bound, request);
    items
}

/// Computes the index columns of every atom in `items` for their current
/// order — the literal columns plus the variable columns an earlier item
/// or `bound`, the variables bound from the start, binds; key columns
/// only — and hands `request` each (predicate, columns) an index is
/// wanted on: some but not all of the key columns.
pub(crate) fn recompute_index_cols(
    items: &mut [CItem],
    preds: &[PredDecl],
    bound: &HashSet<usize>,
    mut request: impl FnMut(PredId, &[usize]),
) {
    let mut bound = bound.clone();
    for item in items {
        if let CItem::Atom {
            pred,
            terms,
            index_cols,
        } = item
        {
            let indexable = key_cols(&preds[pred.0 as usize]);
            index_cols.clear();
            for (col, t) in terms.iter().enumerate().take(indexable) {
                match t {
                    CTerm::Lit(_) => index_cols.push(col),
                    CTerm::Var(slot) if bound.contains(slot) => index_cols.push(col),
                    _ => {}
                }
            }
            if !index_cols.is_empty() && index_cols.len() < indexable {
                request(*pred, index_cols);
            }
        }
        bind_item(item, &mut bound);
    }
}

#[cfg(test)]
mod tests {
    use crate::{BodyItem, Head, HeadTerm, ProgramBuilder, Term, Value};

    #[test]
    fn variables_are_interned_per_rule() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let p = b.relation("P", 2);
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("y")]),
            [BodyItem::atom(e, [Term::var("x"), Term::var("y")])],
        );
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
            ],
        );
        let prog = b.build().expect("valid");
        assert_eq!(prog.rules[0].num_vars, 2);
        assert_eq!(prog.rules[1].num_vars, 3);
    }

    #[test]
    fn index_requests_capture_bound_columns() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let p = b.relation("P", 2);
        b.rule(
            Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
            ],
        );
        let prog = b.build().expect("valid");
        // The second atom sees `y` bound, so E needs an index on column 0.
        let reqs = prog.index_requests.get(&e).expect("index for E");
        assert!(reqs.contains(&vec![0]));
    }

    #[test]
    fn filter_before_binding_atom_is_rescheduled() {
        // The §3.7 example writes `R(x) :- isMaybeZero(x), A(x).`; the
        // compiler must move the filter after the binding atom.
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |_| Value::Bool(true));
        b.rule(
            Head::new(q, [HeadTerm::var("x")]),
            [
                BodyItem::filter(f, [Term::var("x")]),
                BodyItem::atom(p, [Term::var("x")]),
            ],
        );
        let prog = b.build().expect("reordered into a valid rule");
        assert!(matches!(
            prog.rules[0].body[0],
            crate::program::CItem::Atom { .. }
        ));
        assert!(matches!(
            prog.rules[0].body[1],
            crate::program::CItem::Filter { .. }
        ));
    }

    #[test]
    fn filter_with_genuinely_unbound_variable_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |_| Value::Bool(true));
        b.rule(
            Head::new(q, [HeadTerm::var("x")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::filter(f, [Term::var("nowhere")]),
            ],
        );
        let err = b.build().expect_err("no atom ever binds `nowhere`");
        assert!(matches!(
            err,
            crate::ProgramError::UnboundBodyVariable { .. }
        ));
    }

    #[test]
    fn app_in_non_final_head_term_is_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 2);
        let f = b.function("f", |args| args[0].clone());
        b.rule(
            Head::new(q, [HeadTerm::app(f, [Term::var("x")]), HeadTerm::var("x")]),
            [BodyItem::atom(p, [Term::var("x")])],
        );
        let err = b.build().expect_err("app must be last");
        assert!(matches!(err, crate::ProgramError::AppNotLast { .. }));
    }

    #[test]
    fn choose_binds_variables_for_the_head() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let f = b.function("f", |args| Value::set([args[0].clone()]));
        b.rule(
            Head::new(q, [HeadTerm::var("y")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::choose(f, [Term::var("x")], "y"),
            ],
        );
        b.build().expect("choose binding makes y bound");
    }

    #[test]
    fn predicate_lookup_by_name() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let prog = b.build().expect("valid");
        assert_eq!(prog.predicate("P"), Some(p));
        assert_eq!(prog.predicate("Nope"), None);
        assert_eq!(prog.decl(p).name(), "P");
        assert_eq!(prog.decl(p).arity(), 1);
    }
}
