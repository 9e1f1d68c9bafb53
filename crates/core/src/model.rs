//! Model-theoretic validation of solver output (§3.1–§3.2 of the paper).
//!
//! The declarative semantics of FLIX defines *what* the solution is — the
//! minimal compact model — independently of any evaluation strategy. This
//! module checks a computed [`Solution`] against that definition:
//!
//! * [`model_violation`] verifies the model property `T_P(I) ⊑ I`: every
//!   rule instance satisfied by the interpretation must have a true head
//!   (for lattice predicates, true means *subsumed*: the derived element is
//!   `⊑` the stored cell value, per §3.2 step 5);
//! * [`is_locally_minimal`] verifies minimality in the paper's model order
//!   `⊑M` (§3.2 step 6) against one-step reductions: removing any derived
//!   tuple, or decreasing any lattice cell to any smaller candidate value,
//!   must break the model property.
//!
//! Together these give the cross-validation used by the test suite: every
//! strategy, thread count and entry point must land on a compact model
//! that is locally minimal. (Compactness itself is enforced structurally:
//! the database stores exactly one value per cell.)
//!
//! The checker evaluates rule bodies with its own matcher (the private
//! functions at the end of this module): tuple at a time over decoded
//! [`Value`]s, straight from the definitions of §3.2. It shares no join
//! code with the plan interpreter that computed the solution, so an
//! evaluator bug cannot vouch for itself. It takes no budget and assumes
//! total, law-abiding user functions — a panic in one propagates.

use crate::database::{Database, PredData};
use crate::program::{CHead, CItem, CRule, CTerm, Program};
use crate::solver::Solution;
use crate::verify::Violation;
use crate::{LatticeOps, PredId, Value};
use std::collections::HashSet;

/// Returns the first rule-head fact that the interpretation fails to
/// satisfy, or `None` when the solution is a model of the program.
///
/// The result carries the predicate name and the violating head tuple.
pub fn model_violation(program: &Program, solution: &Solution) -> Option<(String, Vec<Value>)> {
    violation_against(program, solution.database(), None)
}

/// Returns `true` when the solution is a model of the program.
pub fn is_model(program: &Program, solution: &Solution) -> bool {
    model_violation(program, solution).is_none()
}

/// The model check, or, with `only = Some(p)`, the part of it that reads
/// or writes `p`: `p`'s explicit facts and the rules that mention `p` in
/// the head or in a positive or negated body atom.
fn violation_against(
    program: &Program,
    db: &Database,
    only: Option<PredId>,
) -> Option<(String, Vec<Value>)> {
    let mentions = |rule: &CRule| {
        let Some(p) = only else { return true };
        rule.head_pred == p
            || rule.body.iter().any(|item| {
                matches!(item, CItem::Atom { pred, .. } | CItem::NegAtom { pred, .. } if *pred == p)
            })
    };
    // The explicit facts must be satisfied (they are rules with empty
    // bodies).
    for (pred, values) in program.facts.iter() {
        if only.is_some_and(|p| p != *pred) {
            continue;
        }
        if !satisfied(program, db, *pred, values) {
            return Some((program.decl(*pred).name().to_string(), values.clone()));
        }
    }
    // Every rule-derivable head must be satisfied: T_P(I) ⊑ I.
    let mut derived = Vec::new();
    for rule in program.rules.iter().filter(|rule| mentions(rule)) {
        let env = vec![None; rule.num_vars];
        consequences(program, db, rule, 0, &env, &mut derived);
    }
    for (pred, tuple) in derived {
        if !satisfied(program, db, pred, &tuple) {
            return Some((program.decl(pred).name().to_string(), tuple));
        }
    }
    None
}

/// Is the ground atom `pred(values...)` true in the interpretation?
fn satisfied(program: &Program, db: &Database, pred: PredId, values: &[Value]) -> bool {
    match db.pred(pred) {
        PredData::Rel(rel) => rel.contains(values, db.spill()),
        PredData::Lat(lat) => {
            let (key, value) = values.split_at(values.len() - 1);
            let ops = program.decl(pred).lattice_ops().expect("lattice predicate");
            if ops.is_bottom(&value[0]) {
                return true; // ⊥ is below every cell, stored or not.
            }
            match lat.value(key, db.spill()) {
                Some(cell) => ops.leq(&value[0], cell),
                None => false,
            }
        }
    }
}

/// Checks that the solution is a model and that no single-step reduction
/// of it is still a model — removing any non-fact relational tuple, or
/// lowering any lattice cell to a strictly smaller candidate.
///
/// Candidate replacement values for a cell are the other values stored in
/// the same lattice predicate, their pairwise greatest lower bounds with
/// the cell value, and `⊥` (dropping the cell). This is a *local*
/// minimality check: it cannot rule out a smaller model that differs in
/// many cells at once, but the least fixed point is below every model, so
/// any failure here proves the solver over-approximated.
///
/// Intended for small cross-validation programs. After one whole model
/// check, each reduction I′ of the solution I is checked only where it
/// can differ from I: I′ changes one predicate P, so only P's explicit
/// facts and the rules that mention P — in the head or in a positive or
/// negated body atom — are checked again. Every other rule reads and
/// writes only predicates whose contents are the same in I and I′, and
/// so does every other fact; I has passed the whole check, so they hold
/// in I′ too.
pub fn is_locally_minimal(program: &Program, solution: &Solution) -> bool {
    locally_minimal(program, solution, true)
}

/// The reference for [`is_locally_minimal`]: every reduction is checked
/// against the whole program.
#[cfg(test)]
fn is_locally_minimal_by_whole_checks(program: &Program, solution: &Solution) -> bool {
    locally_minimal(program, solution, false)
}

/// [`is_locally_minimal`], checking each reduction against the whole
/// program when `only_perturbed` is false.
fn locally_minimal(program: &Program, solution: &Solution, only_perturbed: bool) -> bool {
    let db = solution.database();
    let still_a_model = |reduced: &Database, pred: PredId| {
        violation_against(program, reduced, only_perturbed.then_some(pred)).is_none()
    };
    if violation_against(program, db, None).is_some() {
        return false;
    }
    let explicit: HashSet<(PredId, Vec<Value>)> =
        program.facts.iter().map(|(p, v)| (*p, v.clone())).collect();

    // Enumerate the current contents through the solution's unified
    // fact view.
    let mut rel_tuples: Vec<(PredId, Vec<Value>)> = Vec::new();
    let mut lat_cells: Vec<(PredId, Vec<Value>, Value)> = Vec::new();
    for (pred, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared predicate");
        for fact in facts {
            match fact {
                crate::solver::Fact::Row(row) => rel_tuples.push((pred, row.to_vec())),
                crate::solver::Fact::Cell(key, cell) => {
                    lat_cells.push((pred, key.to_vec(), cell.clone()))
                }
            }
        }
    }

    // Try removing each non-fact relational tuple.
    for (pred, tuple) in &rel_tuples {
        if explicit.contains(&(*pred, tuple.clone())) {
            continue;
        }
        let reduced = rebuild_without(program, db, Some((*pred, tuple)), None);
        if still_a_model(&reduced, *pred) {
            return false; // a strictly smaller model exists
        }
    }

    // Try lowering each lattice cell.
    for (pred, key, cell) in &lat_cells {
        let ops = program.decl(*pred).lattice_ops().expect("lattice");
        let mut candidates: Vec<Value> = vec![ops.bottom().clone()];
        if let PredData::Lat(lat) = db.pred(*pred) {
            for (_, other) in lat.iter(db.spill()) {
                candidates.push(other.clone());
                candidates.push(ops.glb(other, cell));
            }
        }
        // Values asserted by facts are candidate cell values too: the
        // stored cell may strictly dominate every fact it absorbed.
        for (fact_pred, values) in program.facts.iter() {
            if fact_pred == pred {
                let v = values.last().expect("lattice arity >= 1");
                candidates.push(v.clone());
                candidates.push(ops.glb(v, cell));
            }
        }
        candidates.sort();
        candidates.dedup();
        for cand in candidates {
            let strictly_smaller = ops.leq(&cand, cell) && cand != *cell;
            if !strictly_smaller {
                continue;
            }
            let reduced = rebuild_without(program, db, None, Some((*pred, key.as_slice(), &cand)));
            if still_a_model(&reduced, *pred) {
                return false;
            }
        }
    }
    true
}

/// Copies `db`, optionally skipping one relational tuple and optionally
/// replacing one lattice cell with a smaller value (`⊥` drops the cell).
fn rebuild_without(
    program: &Program,
    db: &Database,
    skip_rel: Option<(PredId, &Vec<Value>)>,
    replace_lat: Option<(PredId, &[Value], &Value)>,
) -> Database {
    let mut out = Database::for_program(program, false);
    for i in 0..program.num_predicates() {
        let pred = PredId(i as u32);
        match db.pred(pred) {
            PredData::Rel(rel) => {
                for row in rel.rows(db.spill()) {
                    if let Some((p, t)) = skip_rel {
                        if p == pred && t.as_slice() == row {
                            continue;
                        }
                    }
                    let _ = out.insert(pred, row);
                }
            }
            PredData::Lat(lat) => {
                for (key, cell) in lat.iter(db.spill()) {
                    let mut tuple = key.to_vec();
                    let value = match replace_lat {
                        Some((p, k, v)) if p == pred && k == key => v.clone(),
                        _ => cell.clone(),
                    };
                    tuple.push(value);
                    // ⊥ replacements are intentionally dropped; the model
                    // checker assumes sound lattice ops, so insertion
                    // faults cannot occur here.
                    let _ = out.insert(pred, &tuple);
                }
            }
        }
    }
    out
}

/// The variable environment of one rule evaluation, indexed by slot.
type Env = Vec<Option<Value>>;

/// Appends to `out` the head of every instance of `rule` whose body items
/// from `idx` on are true in `db` under some extension of `env`.
fn consequences(
    program: &Program,
    db: &Database,
    rule: &CRule,
    idx: usize,
    env: &Env,
    out: &mut Vec<(PredId, Vec<Value>)>,
) {
    let call = |func: usize, args: &[CTerm]| -> (Vec<Value>, Value) {
        let vals: Vec<Value> = args
            .iter()
            .map(|t| match t {
                CTerm::Lit(v) => v.clone(),
                CTerm::Var(slot) => env[*slot].clone().expect("validated: bound"),
                CTerm::Wild => panic!("wildcard cannot be a function argument"),
            })
            .collect();
        let result = (program.funcs[func].body)(&vals);
        (vals, result)
    };
    let Some(item) = rule.body.get(idx) else {
        let head = rule.head.iter().map(|h| match h {
            CHead::Lit(v) => v.clone(),
            CHead::Var(slot) => env[*slot].clone().expect("validated: bound"),
            CHead::App(func, args) => call(*func, args).1,
        });
        out.push((rule.head_pred, head.collect()));
        return;
    };
    let mut rest = |env: &Env| consequences(program, db, rule, idx + 1, env, out);
    match item {
        CItem::Atom { pred, terms, .. } => {
            for_each_match(program, db, *pred, terms, env, &mut rest)
        }
        CItem::NegAtom { pred, terms } => {
            let mut exists = false;
            for_each_match(program, db, *pred, terms, env, &mut |_| exists = true);
            if !exists {
                rest(env);
            }
        }
        CItem::Filter { func, args } => match call(*func, args) {
            (_, Value::Bool(true)) => rest(env),
            (_, Value::Bool(false)) => {}
            (vals, other) => unsafe_function(Violation::FilterNotBoolean(vals, other)),
        },
        CItem::Choose { func, args, binds } => {
            let (vals, result) = call(*func, args);
            let Value::Set(elems) = &result else {
                unsafe_function(Violation::ChoiceMalformed(vals, result));
            };
            // `binds <- f(…)` is true for the `binds` that are an element
            // of the set: a variable an earlier item bound must equal its
            // component, a free one takes it.
            let mut chosen = env.clone();
            for elem in elems.iter() {
                let items = match elem.as_tuple() {
                    _ if binds.len() == 1 => std::slice::from_ref(elem),
                    Some(items) if items.len() == binds.len() => items,
                    _ => unsafe_function(Violation::ChoiceMalformed(vals, elem.clone())),
                };
                chosen.clone_from(env);
                let mut components = binds.iter().zip(items);
                if components
                    .all(|(&b, item)| chosen[b].get_or_insert_with(|| item.clone()) == item)
                {
                    rest(&chosen);
                }
            }
        }
    }
}

fn unsafe_function(violation: Violation) -> ! {
    panic!("lattice safety violation during model check: {violation}")
}

/// Calls `next` with `env` extended by each way the atom `pred(terms)` is
/// true in `db`. A fully ground key is one lookup and an index is used
/// where the database has one; otherwise every stored fact is tried.
fn for_each_match(
    program: &Program,
    db: &Database,
    pred: PredId,
    terms: &[CTerm],
    env: &Env,
    next: &mut dyn FnMut(&Env),
) {
    let ops = program.decl(pred).lattice_ops();
    let ncols = terms.len() - ops.is_some() as usize;
    // The ground (key) columns and their values.
    let (cols, key): (Vec<usize>, Vec<Value>) = terms[..ncols]
        .iter()
        .enumerate()
        .filter_map(|(col, t)| match t {
            CTerm::Lit(v) => Some((col, v.clone())),
            CTerm::Var(slot) => env[*slot].clone().map(|v| (col, v)),
            CTerm::Wild => None,
        })
        .unzip();
    let mut trial = env.clone();
    let mut visit = |row: &[Value], cell: Option<&Value>| {
        trial.clone_from(env);
        if unify(terms, row, cell.zip(ops), &mut trial) {
            next(&trial);
        }
    };
    match db.pred(pred) {
        PredData::Rel(rel) => {
            if cols.len() == ncols {
                if rel.contains(&key, db.spill()) {
                    visit(&key, None);
                }
            } else if let Some(hits) = rel.columns().probe(&cols, &key, db.spill()) {
                hits.iter()
                    .for_each(|&i| visit(rel.row(i, db.spill()), None));
            } else {
                rel.rows(db.spill()).for_each(|row| visit(row, None));
            }
        }
        PredData::Lat(lat) => {
            if cols.len() == ncols {
                if let Some(cell) = lat.value(&key, db.spill()) {
                    visit(&key, Some(cell));
                }
            } else if let Some(hits) = lat.columns().probe(&cols, &key, db.spill()) {
                let cells = lat.decoded(db.spill());
                hits.iter()
                    .for_each(|&i| visit(lat.key(i, db.spill()), Some(&cells[i as usize])));
            } else {
                lat.iter(db.spill())
                    .for_each(|(key, cell)| visit(key, Some(cell)));
            }
        }
    }
}

/// Unifies an atom's terms with one stored fact, binding free variables
/// in `env`. Columns match by equality. The element column of a lattice
/// atom follows §3.2: `P(k̄, v)` is true when `v ⊑ cell(k̄)`, so a literal
/// must sit below the cell, a free variable takes the cell (the greatest
/// witness), and a variable already bound to `w` takes `w ⊓ cell` — the
/// greatest witness of both occurrences — unless that is `⊥`, which no
/// head stores.
fn unify(
    terms: &[CTerm],
    row: &[Value],
    cell: Option<(&Value, &LatticeOps)>,
    env: &mut Env,
) -> bool {
    let columns = terms.iter().zip(row).all(|(term, value)| match term {
        CTerm::Wild => true,
        CTerm::Lit(l) => l == value,
        CTerm::Var(slot) => env[*slot].get_or_insert_with(|| value.clone()) == value,
    });
    columns
        && cell.is_none_or(|(cell, ops)| match terms.last().expect("arity >= 1") {
            CTerm::Wild => true,
            CTerm::Lit(l) => ops.leq(l, cell),
            CTerm::Var(slot) => {
                let witness = match &env[*slot] {
                    None => cell.clone(),
                    Some(bound) => ops.glb(bound, cell),
                };
                let holds = !ops.is_bottom(&witness);
                env[*slot] = Some(witness);
                holds
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Solver, Term, ValueLattice};
    use flix_lattice::Parity;

    fn parity(p: Parity) -> Value {
        p.to_value()
    }

    /// The verdict of [`is_locally_minimal`], held equal to the whole-program
    /// reference's.
    fn locally_minimal_agreeing(prog: &Program, solution: &Solution) -> bool {
        let verdict = is_locally_minimal(prog, solution);
        assert_eq!(verdict, is_locally_minimal_by_whole_checks(prog, solution));
        verdict
    }

    /// The worked example of §3.2: facts A(Even), A(Odd), B(Odd); the
    /// minimal compact model is {A(⊤), B(Odd)}.
    fn example_program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Even)]);
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Odd)]);
        b.build().expect("valid")
    }

    #[test]
    fn solver_output_is_model_and_minimal() {
        let prog = example_program();
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("A", &[]), Some(parity(Parity::Top)));
        assert_eq!(solution.lattice_value("B", &[]), Some(parity(Parity::Odd)));
        assert!(is_model(&prog, &solution));
        assert!(locally_minimal_agreeing(&prog, &solution));
    }

    #[test]
    fn lub_and_glb_examples_from_section_3_2() {
        // R(x) :- A(x). R(x) :- B(x). with A(Odd), B(Even) gives R(⊤).
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        let r = b.lattice("R", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Even)]);
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [BodyItem::atom(a, [Term::var("x")])],
        );
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [BodyItem::atom(bb, [Term::var("x")])],
        );
        let prog = b.build().expect("valid");
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("R", &[]), Some(parity(Parity::Top)));
        assert!(is_model(&prog, &solution));
        assert!(locally_minimal_agreeing(&prog, &solution));

        // R(x) :- A(x), B(x). gives R(⊥), i.e. no stored cell.
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        let r = b.lattice("R", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Even)]);
        b.rule(
            Head::new(r, [HeadTerm::var("x")]),
            [
                BodyItem::atom(a, [Term::var("x")]),
                BodyItem::atom(bb, [Term::var("x")]),
            ],
        );
        let prog = b.build().expect("valid");
        let solution = Solver::new().solve(&prog).expect("solves");
        assert_eq!(solution.lattice_value("R", &[]), Some(parity(Parity::Bot)));
        assert_eq!(solution.len("R"), Some(0));
        assert!(is_model(&prog, &solution));
    }

    #[test]
    fn non_minimal_interpretation_is_detected() {
        // Inflate the solution of the example program by asserting B(⊤)
        // as an extra fact in a copy of the program used only to build the
        // inflated database, then check minimality against the original.
        let prog = example_program();
        let mut b = ProgramBuilder::new();
        let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
        let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
        b.fact(a, vec![parity(Parity::Even)]);
        b.fact(a, vec![parity(Parity::Odd)]);
        b.fact(bb, vec![parity(Parity::Top)]); // inflated
        let inflated_prog = b.build().expect("valid");
        let inflated = Solver::new().solve(&inflated_prog).expect("solves");
        // Still a model of the original program (B(Odd) ⊑ B(⊤))...
        assert!(is_model(&prog, &inflated));
        // ...but not minimal.
        assert!(!locally_minimal_agreeing(&prog, &inflated));
    }

    /// Relations, negation and a derived lattice: a reduction of one
    /// predicate is checked against its facts and the rules that mention
    /// it, with the verdict of the whole check, minimal or not.
    #[test]
    fn rechecking_the_perturbed_predicate_agrees_with_the_whole_check() {
        // Path is the closure of Edge, Blocked(x) :- Node(x), !Path(1, x),
        // and Best carries a parity along edges. `extra` asserts further
        // facts, to build interpretations that are models of the program
        // without them but not minimal ones.
        let build = |extra: &[(&str, Vec<Value>)]| {
            let mut b = ProgramBuilder::new();
            let edge = b.relation("Edge", 2);
            let node = b.relation("Node", 1);
            let path = b.relation("Path", 2);
            let blocked = b.relation("Blocked", 1);
            let best = b.lattice("Best", 2, LatticeOps::of::<Parity>());
            for (x, y) in [(1, 2), (2, 3), (3, 2)] {
                b.fact(edge, vec![x.into(), y.into()]);
            }
            for x in 1..=4 {
                b.fact(node, vec![x.into()]);
            }
            b.fact(best, vec![1.into(), parity(Parity::Odd)]);
            let (x, y, z, p) = (
                Term::var("x"),
                Term::var("y"),
                Term::var("z"),
                Term::var("p"),
            );
            b.rule(
                Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
                [BodyItem::atom(edge, [x.clone(), y.clone()])],
            );
            b.rule(
                Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
                [
                    BodyItem::atom(path, [x.clone(), y.clone()]),
                    BodyItem::atom(edge, [y.clone(), z.clone()]),
                ],
            );
            b.rule(
                Head::new(blocked, [HeadTerm::var("x")]),
                [
                    BodyItem::atom(node, [x.clone()]),
                    BodyItem::not(path, [Term::lit(1), x.clone()]),
                ],
            );
            b.rule(
                Head::new(best, [HeadTerm::var("y"), HeadTerm::var("p")]),
                [
                    BodyItem::atom(best, [x.clone(), p.clone()]),
                    BodyItem::atom(edge, [x, y]),
                ],
            );
            for (name, values) in extra {
                let pred = match *name {
                    "Path" => path,
                    "Blocked" => blocked,
                    _ => best,
                };
                b.fact(pred, values.clone());
            }
            b.build().expect("valid")
        };
        let prog = build(&[]);
        let cases: [(&str, Vec<Value>); 4] = [
            ("Path", vec![4.into(), 1.into()]),
            ("Blocked", vec![2.into()]),
            ("Best", vec![1.into(), parity(Parity::Top)]),
            ("Best", vec![4.into(), parity(Parity::Even)]),
        ];
        let solution = Solver::new().solve(&prog).expect("solves");
        assert!(locally_minimal_agreeing(&prog, &solution));
        for (name, values) in cases {
            let inflated = Solver::new()
                .solve(&build(&[(name, values.clone())]))
                .expect("solves");
            assert!(is_model(&prog, &inflated), "{name}{values:?}");
            assert!(
                !locally_minimal_agreeing(&prog, &inflated),
                "{name}{values:?}"
            );
        }
        // Path(1, 4) is no consequence, but without it Blocked(4) would
        // be: only the negated atom sees that this reduction is no model,
        // so the interpretation is locally minimal (though not the least
        // model of the strata).
        let inflated = Solver::new()
            .solve(&build(&[("Path", vec![1.into(), 4.into()])]))
            .expect("solves");
        assert!(is_model(&prog, &inflated));
        assert!(locally_minimal_agreeing(&prog, &inflated));
    }
}
