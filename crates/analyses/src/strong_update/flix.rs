//! The declarative FLIX formulation of the Strong Update analysis —
//! Figure 4 of the paper, one engine rule per constraint.

use super::{obj_name, parse_obj, SuInput, SuResult};
use flix_core::{
    BodyItem, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solver, Term, Value,
    ValueLattice, WordType, FLAT_TOP, WORD_FALSE, WORD_TRUE,
};
use flix_lattice::SuLattice;

/// Builds the Figure 4 rule set over the given input facts.
///
/// Objects are encoded as strings (`"o0"`, `"o1"`, ...) so that they can
/// inhabit [`SuLattice::Single`]; variables and labels are integers.
pub fn build_program(input: &SuInput) -> Program {
    let mut b = ProgramBuilder::new();

    // Extensional relations.
    let addr_of = b.relation("AddrOf", 2);
    let copy = b.relation("Copy", 2);
    let load = b.relation("Load", 3);
    let store = b.relation("Store", 3);
    let cfg = b.relation("CFG", 2);
    let kill = b.relation("Kill", 2);

    // Intensional relations and lattices.
    let pt = b.relation("Pt", 2);
    let pt_h = b.relation("PtH", 2);
    let pt_su = b.relation("PtSU", 3);
    let su = LatticeOps::of::<SuLattice>();
    let su_before = b.lattice("SUBefore", 3, su.clone());
    let su_after = b.lattice("SUAfter", 3, su.clone());

    // `SULattice` is flat: its cells are words — ⊥, ⊤, or the object's
    // slot for `Single(object)` — and so are the two functions' forms
    // over them.
    let elem = WordType::Elem(su.kind().expect("SULattice is flat").clone());
    // def single(b: Str): SULattice = SULattice.Single(b)
    let single = b.function("single", |args| {
        SuLattice::single(args[0].as_str().expect("object name")).to_value()
    });
    b.word_form(single, [WordType::Slot], elem.clone(), |words| words[0]);
    // The monotone filter function of Figure 4.
    let filter = b.function("filter", |args| {
        let t = SuLattice::expect_from(&args[0]);
        let obj = args[1].as_str().expect("object name");
        Value::Bool(t.filter(obj))
    });
    b.word_form(filter, [elem, WordType::Slot], WordType::Slot, |words| {
        let (t, obj) = (words[0], words[1]);
        if t == FLAT_TOP || t == obj {
            WORD_TRUE
        } else {
            WORD_FALSE
        }
    });

    // Facts.
    for &(p, a) in &input.addr_of {
        b.fact(addr_of, vec![(p as i64).into(), obj_name(a).into()]);
    }
    for &(p, q) in &input.copy {
        b.fact(copy, vec![(p as i64).into(), (q as i64).into()]);
    }
    for &(l, p, q) in &input.load {
        b.fact(
            load,
            vec![(l as i64).into(), (p as i64).into(), (q as i64).into()],
        );
    }
    for &(l, p, q) in &input.store {
        b.fact(
            store,
            vec![(l as i64).into(), (p as i64).into(), (q as i64).into()],
        );
    }
    for &(l1, l2) in &input.cfg {
        b.fact(cfg, vec![(l1 as i64).into(), (l2 as i64).into()]);
    }
    for &(l, a) in &input.kill {
        b.fact(kill, vec![(l as i64).into(), obj_name(a).into()]);
    }

    let v = Term::var;

    // Pt(p, a) :- AddrOf(p, a).
    b.rule(
        Head::new(pt, [HeadTerm::var("p"), HeadTerm::var("a")]),
        [BodyItem::atom(addr_of, [v("p"), v("a")])],
    );
    // Pt(p, a) :- Copy(p, q), Pt(q, a).
    b.rule(
        Head::new(pt, [HeadTerm::var("p"), HeadTerm::var("a")]),
        [
            BodyItem::atom(copy, [v("p"), v("q")]),
            BodyItem::atom(pt, [v("q"), v("a")]),
        ],
    );
    // Pt(p, b) :- Load(l, p, q), Pt(q, a), PtSU(l, a, b).
    b.rule(
        Head::new(pt, [HeadTerm::var("p"), HeadTerm::var("b")]),
        [
            BodyItem::atom(load, [v("l"), v("p"), v("q")]),
            BodyItem::atom(pt, [v("q"), v("a")]),
            BodyItem::atom(pt_su, [v("l"), v("a"), v("b")]),
        ],
    );
    // PtH(a, b) :- Store(l, p, q), Pt(p, a), Pt(q, b).
    b.rule(
        Head::new(pt_h, [HeadTerm::var("a"), HeadTerm::var("b")]),
        [
            BodyItem::atom(store, [v("l"), v("p"), v("q")]),
            BodyItem::atom(pt, [v("p"), v("a")]),
            BodyItem::atom(pt, [v("q"), v("b")]),
        ],
    );
    // SUBefore(l2, a, t) :- CFG(l1, l2), SUAfter(l1, a, t).
    b.rule(
        Head::new(
            su_before,
            [HeadTerm::var("l2"), HeadTerm::var("a"), HeadTerm::var("t")],
        ),
        [
            BodyItem::atom(cfg, [v("l1"), v("l2")]),
            BodyItem::atom(su_after, [v("l1"), v("a"), v("t")]),
        ],
    );
    // SUAfter(l, a, t) :- SUBefore(l, a, t), Preserve(l, a).
    // `Preserve` is the complement of `Kill` (see module docs).
    b.rule(
        Head::new(
            su_after,
            [HeadTerm::var("l"), HeadTerm::var("a"), HeadTerm::var("t")],
        ),
        [
            BodyItem::atom(su_before, [v("l"), v("a"), v("t")]),
            BodyItem::not(kill, [v("l"), v("a")]),
        ],
    );
    // SUAfter(l, a, SULattice.Single(b)) :- Store(l, p, q), Pt(p, a), Pt(q, b).
    b.rule(
        Head::new(
            su_after,
            [
                HeadTerm::var("l"),
                HeadTerm::var("a"),
                HeadTerm::app(single, [v("b")]),
            ],
        ),
        [
            BodyItem::atom(store, [v("l"), v("p"), v("q")]),
            BodyItem::atom(pt, [v("p"), v("a")]),
            BodyItem::atom(pt, [v("q"), v("b")]),
        ],
    );
    // PtSU(l, a, b) :- PtH(a, b), SUBefore(l, a, t), filter(t, b).
    b.rule(
        Head::new(
            pt_su,
            [HeadTerm::var("l"), HeadTerm::var("a"), HeadTerm::var("b")],
        ),
        [
            BodyItem::atom(pt_h, [v("a"), v("b")]),
            BodyItem::atom(su_before, [v("l"), v("a"), v("t")]),
            BodyItem::filter(filter, [v("t"), v("b")]),
        ],
    );

    b.build().expect("the Figure 4 rule set is well-formed")
}

/// Runs the analysis with the given solver configuration.
pub fn analyze_with(input: &SuInput, solver: &Solver) -> SuResult {
    let program = build_program(input);
    let solution = solver.solve(&program).expect("Figure 4 is stratifiable");
    let mut result = SuResult {
        derived_facts: solution.total_facts(),
        ..SuResult::default()
    };
    for row in solution.relation("Pt").expect("declared") {
        result.pt.insert((
            row[0].as_int().expect("var id") as u32,
            parse_obj(row[1].as_str().expect("object")),
        ));
    }
    for row in solution.relation("PtH").expect("declared") {
        result.pt_heap.insert((
            parse_obj(row[0].as_str().expect("object")),
            parse_obj(row[1].as_str().expect("object")),
        ));
    }
    for (key, value) in solution.lattice("SUAfter").expect("declared") {
        let l = key[0].as_int().expect("label") as u32;
        let a = parse_obj(key[1].as_str().expect("object"));
        result
            .su_after
            .insert((l, a), SuLattice::expect_from(value));
    }
    result
}

/// Runs the analysis with the default (semi-naïve, indexed) solver.
pub fn analyze(input: &SuInput) -> SuResult {
    analyze_with(input, &Solver::new())
}

#[cfg(test)]
mod tests {
    use super::super::example_program;
    use super::*;

    #[test]
    fn example_strong_update() {
        let result = analyze(&example_program());
        // s = *p at l2 must read exactly {a2} thanks to the strong update.
        assert!(result.pt.contains(&(3, 2)));
        // The store at l1 wrote Single("o2") into cell (l1, a0).
        assert_eq!(result.su_after.get(&(1, 0)), Some(&SuLattice::single("o2")));
        assert!(result.pt_heap.contains(&(0, 2)));
    }

    #[test]
    fn weak_update_joins_to_top() {
        // p points to {a0, a1}; two stores through p at the same label
        // chain write different objects: cells go to Single then stay
        // (no kill), and a second differing store lifts to Top.
        let mut input = SuInput {
            num_vars: 3, // p=0, q=1, r=2
            num_objs: 4, // a0, a1 (targets of p), a2, a3 (stored values)
            num_labels: 2,
            addr_of: vec![(0, 0), (0, 1), (1, 2), (2, 3)],
            copy: vec![],
            load: vec![],
            store: vec![(0, 0, 1), (1, 0, 2)],
            cfg: vec![(0, 1)],
            kill: vec![],
        };
        input.compute_kill();
        assert!(input.kill.is_empty(), "pt(p) is not a singleton");
        let result = analyze(&input);
        // After l0: (l0, a0) = Single(o2). After l1: old Single(o2)
        // survives (no kill) and joins with Single(o3) = Top.
        assert_eq!(result.su_after.get(&(0, 0)), Some(&SuLattice::single("o2")));
        assert_eq!(result.su_after.get(&(1, 0)), Some(&SuLattice::Top));
    }

    #[test]
    fn naive_agrees_with_semi_naive() {
        let input = example_program();
        let semi = analyze(&input);
        let naive = analyze_with(&input, &Solver::new().strategy(flix_core::Strategy::Naive));
        assert_eq!(semi, naive);
    }
}
