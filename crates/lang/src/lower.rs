//! Lowering a checked surface program to the fixed-point engine.
//!
//! Lattice bindings become [`LatticeOps`] whose operations call the
//! compiled `def`s of [`crate::interp`] by index; `def` functions are
//! registered as engine functions the same way; predicates, facts, and
//! rules map one-to-one onto the [`flix_core::ProgramBuilder`] API. A
//! `def` the word-form entry runs is also registered as its function's
//! word form over slots ([`flix_core::ProgramBuilder::word_form`]), and a
//! lattice whose `leq`, `lub` and `glb` all have word forms and whose ⊥
//! has a slot the program's names fix gets them as its word forms
//! ([`LatticeOps::with_word_forms`]): its cells are then slots. Those
//! names — every enum case and every string literal the word code bakes
//! in ([`Interpreter::names`]) — are the program's
//! ([`ProgramBuilder::names`]), so each store of it interns them first.
//!
//! The checker has already evaluated every fact into its tuple
//! ([`CheckedProgram::facts`]). Lowering moves those tuples into the
//! builder when it holds the only reference to the checked program, and
//! clones them when the program is shared.

use crate::ast::{Atom, LatticeBind, RuleTerm};
use crate::error::LangError;
use crate::interp::{ctor_value, lit_value, Interpreter};
use crate::typeck::{CheckedBodyItem, CheckedProgram};
use flix_core::{
    BodyItem, FuncId, Head, HeadTerm, LatticeOps, PredId, Program, ProgramBuilder, Term, Value,
    WordType,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Lowers a checked program to an executable engine [`Program`].
///
/// # Errors
///
/// Returns a [`LangError`] if the engine rejects the rule set (e.g. an
/// unbound head variable or an unstratifiable use of negation discovered
/// at solve time is reported by the solver instead).
pub fn lower(mut checked: Arc<CheckedProgram>) -> Result<Program, LangError> {
    let facts = match Arc::get_mut(&mut checked) {
        Some(owned) => std::mem::take(&mut owned.facts),
        None => checked.facts.clone(),
    };
    let interp = Interpreter::new(checked.clone());
    let mut b = ProgramBuilder::new();
    b.names(interp.names().clone());

    // Lattice bindings → runtime ops (calls into the interpreter).
    let mut ops_by_ty: HashMap<String, LatticeOps> = HashMap::new();
    for (ty, bind) in &checked.lattices {
        ops_by_ty.insert(ty.clone(), ops_for_binding(&interp, ty, bind));
    }

    // Predicates, in declaration order.
    let mut pred_ids: HashMap<String, PredId> = HashMap::new();
    for name in &checked.pred_order {
        let sig = &checked.preds[name];
        let id = if sig.is_lattice {
            let ty = sig
                .lattice_ty
                .as_ref()
                .expect("checked: lat has value type");
            let ops = ops_by_ty.get(ty).cloned().ok_or_else(|| {
                LangError::lower(
                    Default::default(),
                    format!("lat {name} uses type {ty} which has no `let {ty}<> = ...` binding"),
                )
            })?;
            b.lattice(name.as_str(), sig.attrs.len(), ops)
        } else {
            b.relation(name.as_str(), sig.attrs.len())
        };
        pred_ids.insert(name.clone(), id);
    }

    // Every def becomes an engine function (transfer, filter, or choice),
    // registered in name order so that function ids are the same on
    // every compilation of one source.
    let mut func_ids: HashMap<String, FuncId> = HashMap::new();
    for (def, name) in interp.def_names().enumerate() {
        let i = interp.clone();
        let id = b.function(name, move |args| i.call_at(def, args));
        if let Some(arity) = interp.word_arity(def) {
            let i = interp.clone();
            let params = vec![WordType::Slot; arity];
            b.word_form(id, params, WordType::Slot, move |args| {
                i.call_words(def, args).unwrap_or(DECLINED)
            });
        }
        func_ids.insert(name.to_string(), id);
    }

    for (pred, tuple) in facts {
        b.fact(pred_ids[&pred], tuple);
    }
    for c in &checked.constraints {
        let head = Head::new(
            pred_ids[&c.head.pred],
            c.head
                .terms
                .iter()
                .map(|t| lower_head_term(t, &func_ids))
                .collect::<Vec<_>>(),
        );
        let body: Vec<BodyItem> = c
            .body
            .iter()
            .map(|item| lower_body_item(item, &pred_ids, &func_ids))
            .collect();
        b.rule(head, body);
    }

    b.build()
        .map_err(|e| LangError::lower(Default::default(), e.to_string()))
}

/// What a word form answers where the word-form entry declines: a word
/// that is no slot.
const DECLINED: u64 = u64::MAX;

/// Builds the runtime [`LatticeOps`] for one surface lattice binding;
/// shared with the safety checker of [`crate::verify`].
pub(crate) fn ops_for_binding(interp: &Interpreter, ty: &str, bind: &LatticeBind) -> LatticeOps {
    let bot = interp.eval_closed(&bind.bot);
    let top = interp.eval_closed(&bind.top);
    let op = |name: &str| {
        let (interp, def) = (interp.clone(), interp.resolve(name));
        move |a: &Value, b: &Value| interp.call_at(def, [a, b])
    };
    let leq = op(&bind.leq);
    let bottom_has_slot = interp.names().slot(&bot).is_some();
    let ops = LatticeOps::from_fns(
        ty.to_string(),
        bot,
        Some(top),
        move |a, b| leq(a, b).is_true(),
        op(&bind.lub),
        op(&bind.glb),
    );
    let word = |name: &str| {
        let (interp, def) = (interp.clone(), interp.resolve(name));
        (interp.word_arity(def) == Some(2))
            .then_some(move |a: u64, b: u64| interp.call_words(def, &[a, b]).unwrap_or(DECLINED))
    };
    match (
        bottom_has_slot,
        word(&bind.leq),
        word(&bind.lub),
        word(&bind.glb),
    ) {
        (true, Some(leq), Some(lub), Some(glb)) => {
            ops.with_word_forms(interp.names(), leq, lub, glb)
        }
        _ => ops,
    }
}

/// Evaluates a ground rule term (literal or constructor) to a value.
///
/// # Panics
///
/// Panics on a variable, wildcard or application: callers check
/// groundness first.
pub(crate) fn ground_value(t: &RuleTerm) -> Value {
    match t {
        RuleTerm::Lit(l, _) => lit_value(l),
        RuleTerm::Ctor { case, args, .. } => ctor_value(case, args.iter().map(ground_value)),
        RuleTerm::Var(..) | RuleTerm::Wildcard(_) | RuleTerm::App { .. } => {
            unreachable!("callers check groundness")
        }
    }
}

fn lower_term(t: &RuleTerm) -> Term {
    match t {
        RuleTerm::Var(name, _) => Term::var(name.as_str()),
        RuleTerm::Lit(l, _) => Term::Lit(lit_value(l)),
        RuleTerm::Ctor { .. } => Term::Lit(ground_value(t)),
        RuleTerm::Wildcard(_) => Term::Wildcard,
        RuleTerm::App { .. } => unreachable!("checker restricts apps to head position"),
    }
}

fn lower_head_term(t: &RuleTerm, func_ids: &HashMap<String, FuncId>) -> HeadTerm {
    match t {
        RuleTerm::Var(name, _) => HeadTerm::var(name.as_str()),
        RuleTerm::Lit(l, _) => HeadTerm::Lit(lit_value(l)),
        RuleTerm::Ctor { .. } => HeadTerm::Lit(ground_value(t)),
        RuleTerm::App { func, args, .. } => HeadTerm::app(
            func_ids[func],
            args.iter().map(lower_term).collect::<Vec<_>>(),
        ),
        RuleTerm::Wildcard(_) => unreachable!("checker rejects wildcards in heads"),
    }
}

fn lower_atom_terms(atom: &Atom) -> Vec<Term> {
    atom.terms.iter().map(lower_term).collect()
}

fn lower_body_item(
    item: &CheckedBodyItem,
    pred_ids: &HashMap<String, PredId>,
    func_ids: &HashMap<String, FuncId>,
) -> BodyItem {
    match item {
        CheckedBodyItem::Atom(atom) => BodyItem::atom(pred_ids[&atom.pred], lower_atom_terms(atom)),
        CheckedBodyItem::NegAtom(atom) => {
            BodyItem::not(pred_ids[&atom.pred], lower_atom_terms(atom))
        }
        CheckedBodyItem::Filter { func, args } => BodyItem::filter(
            func_ids[func],
            args.iter().map(lower_term).collect::<Vec<_>>(),
        ),
        CheckedBodyItem::Choose { binds, func, args } => BodyItem::Choose {
            func: func_ids[func],
            args: args.iter().map(lower_term).collect(),
            binds: binds.iter().map(|s| s.as_str().into()).collect(),
        },
    }
}
