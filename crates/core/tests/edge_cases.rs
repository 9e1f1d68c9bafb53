//! Engine edge cases: degenerate programs, deep recursion, empty
//! domains, and failure injection for user-supplied functions.

use flix_core::{
    BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Solver, Term, Value, ValueLattice,
};
use flix_lattice::Parity;

#[test]
fn empty_program_solves_to_empty_model() {
    let program = ProgramBuilder::new().build().expect("valid");
    let solution = Solver::new().solve(&program).expect("solves");
    assert_eq!(solution.total_facts(), 0);
}

#[test]
fn facts_only_program() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    b.fact(p, vec![1.into()]);
    b.fact(p, vec![1.into()]); // duplicate
    b.fact(p, vec![2.into()]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("P"), Some(2), "duplicates deduplicate");
}

#[test]
fn rule_with_no_matching_body_derives_nothing() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    b.rule(
        Head::new(q, [HeadTerm::var("x")]),
        [BodyItem::atom(p, [Term::var("x")])],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("Q"), Some(0));
}

#[test]
fn head_literals_work() {
    // Marker() :- P(x).  — arity-1 head with a literal.
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let marker = b.relation("Marker", 1);
    b.fact(p, vec![5.into()]);
    b.rule(
        Head::new(marker, [HeadTerm::lit("seen")]),
        [BodyItem::atom(p, [Term::Wildcard])],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert!(solution.contains("Marker", &["seen".into()]));
}

#[test]
fn long_chain_recursion_terminates() {
    // A 3000-node chain: the semi-naive solver needs ~3000 rounds.
    let mut b = ProgramBuilder::new();
    let e = b.relation("E", 2);
    let r = b.relation("Reach", 1);
    for n in 0..3000i64 {
        b.fact(e, vec![n.into(), (n + 1).into()]);
    }
    b.fact(r, vec![0.into()]);
    b.rule(
        Head::new(r, [HeadTerm::var("y")]),
        [
            BodyItem::atom(r, [Term::var("x")]),
            BodyItem::atom(e, [Term::var("x"), Term::var("y")]),
        ],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("Reach"), Some(3001));
    assert!(solution.stats().rounds > 2500);
}

#[test]
fn choose_with_always_empty_set_blocks_the_rule() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    let none = b.function("none", |_| Value::set([]));
    b.fact(p, vec![1.into()]);
    b.rule(
        Head::new(q, [HeadTerm::var("y")]),
        [
            BodyItem::atom(p, [Term::var("x")]),
            BodyItem::choose(none, [Term::var("x")], "y"),
        ],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("Q"), Some(0));
}

#[test]
fn filter_returning_non_bool_is_a_safety_violation() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    let bad = b.function("bad", |_| Value::Int(1));
    b.fact(p, vec![1.into()]);
    b.rule(
        Head::new(q, [HeadTerm::var("x")]),
        [
            BodyItem::atom(p, [Term::var("x")]),
            BodyItem::filter(bad, [Term::var("x")]),
        ],
    );
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("non-boolean filter is rejected");
    assert!(matches!(
        &failure.error,
        flix_core::SolveError::SafetyViolation {
            violation: flix_core::verify::Violation::FilterNotBoolean(_, _),
            ..
        }
    ));
    assert!(failure.error.to_string().contains("non-boolean"));
}

#[test]
fn choose_from_non_set_is_a_safety_violation() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    let bad = b.function("bad", |_| Value::Int(1));
    b.fact(p, vec![1.into()]);
    b.rule(
        Head::new(q, [HeadTerm::var("y")]),
        [
            BodyItem::atom(p, [Term::var("x")]),
            BodyItem::choose(bad, [Term::var("x")], "y"),
        ],
    );
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("non-set choice result is rejected");
    assert!(matches!(
        &failure.error,
        flix_core::SolveError::SafetyViolation {
            violation: flix_core::verify::Violation::ChoiceMalformed(_, _),
            ..
        }
    ));
}

#[test]
fn choice_shadowing_a_bound_variable_is_scoped_to_its_sub_join() {
    // Out(y) :- B(y), A(x, y), y <- succ(x). The choice rebinds `y` for
    // the head only: each further A row must still be checked against the
    // `y` that B bound, whatever the provenance setting or strategy.
    let mut b = ProgramBuilder::new();
    let bb = b.relation("B", 1);
    let a = b.relation("A", 2);
    let out = b.relation("Out", 1);
    let succ = b.function("succ", |args| {
        Value::set([Value::Int(args[0].as_int().expect("int") + 1)])
    });
    b.fact(bb, vec![1.into()]);
    b.fact(a, vec![10.into(), 1.into()]);
    b.fact(a, vec![20.into(), 1.into()]);
    b.fact(a, vec![30.into(), 2.into()]);
    b.rule(
        Head::new(out, [HeadTerm::var("y")]),
        [
            BodyItem::atom(bb, [Term::var("y")]),
            BodyItem::atom(a, [Term::var("x"), Term::var("y")]),
            BodyItem::choose(succ, [Term::var("x")], "y"),
        ],
    );
    let program = b.build().expect("valid");
    for provenance in [false, true] {
        for strategy in [flix_core::Strategy::Naive, flix_core::Strategy::SemiNaive] {
            let solution = Solver::new()
                .strategy(strategy)
                .record_provenance(provenance)
                .solve(&program)
                .expect("solves");
            let mut got: Vec<i64> = solution
                .relation("Out")
                .expect("relation")
                .map(|row| row[0].as_int().expect("int"))
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![11, 21], "{strategy:?} provenance={provenance}");
        }
    }
}

#[test]
fn lattice_fact_at_bottom_is_a_no_op() {
    let mut b = ProgramBuilder::new();
    let a = b.lattice("A", 2, LatticeOps::of::<Parity>());
    b.fact(a, vec![1.into(), Parity::Bot.to_value()]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("A"), Some(0), "⊥ cells are never materialised");
    assert_eq!(
        solution.lattice_value("A", &[1.into()]),
        Some(Parity::Bot.to_value()),
        "but querying them still answers ⊥"
    );
}

#[test]
fn same_predicate_twice_in_one_body() {
    // Siblings: pairs of distinct successors of the same node.
    let mut b = ProgramBuilder::new();
    let e = b.relation("E", 2);
    let sib = b.relation("Sib", 2);
    let neq = b.function("neq", |args| Value::Bool(args[0] != args[1]));
    b.fact(e, vec![0.into(), 1.into()]);
    b.fact(e, vec![0.into(), 2.into()]);
    b.fact(e, vec![3.into(), 4.into()]);
    b.rule(
        Head::new(sib, [HeadTerm::var("a"), HeadTerm::var("b")]),
        [
            BodyItem::atom(e, [Term::var("x"), Term::var("a")]),
            BodyItem::atom(e, [Term::var("x"), Term::var("b")]),
            BodyItem::filter(neq, [Term::var("a"), Term::var("b")]),
        ],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(solution.len("Sib"), Some(2), "(1,2) and (2,1)");
}

#[test]
fn mutually_recursive_lattice_and_relation() {
    // A relation gated on a lattice threshold that itself grows from the
    // relation — exercises the rel/lat interleaving in one SCC.
    let mut b = ProgramBuilder::new();
    let seen = b.relation("Seen", 1);
    let level = b.lattice("Level", 1, LatticeOps::of::<Parity>());
    let to_odd = b.function("toOdd", |_| Parity::Odd.to_value());
    let not_bot = b.function("notBot", |args| {
        Value::Bool(Parity::expect_from(&args[0]) != Parity::Bot)
    });
    b.fact(seen, vec![0.into()]);
    // Level(toOdd(x)) :- Seen(x).
    b.rule(
        Head::new(level, [HeadTerm::app(to_odd, [Term::var("x")])]),
        [BodyItem::atom(seen, [Term::var("x")])],
    );
    // Seen(1) :- Level(l), notBot(l).
    b.rule(
        Head::new(seen, [HeadTerm::lit(1)]),
        [
            BodyItem::atom(level, [Term::var("l")]),
            BodyItem::filter(not_bot, [Term::var("l")]),
        ],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert!(solution.contains("Seen", &[1.into()]));
    assert_eq!(
        solution.lattice_value("Level", &[]),
        Some(Parity::Odd.to_value())
    );
}

#[test]
fn string_and_tuple_values_as_keys() {
    let mut b = ProgramBuilder::new();
    let m = b.lattice("M", 2, LatticeOps::of::<Parity>());
    let key = Value::tuple([Value::from("f"), Value::Int(2)]);
    b.fact(m, vec![key.clone(), Parity::Even.to_value()]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(
        solution.lattice_value("M", &[key]),
        Some(Parity::Even.to_value())
    );
}

#[test]
fn negated_lattice_atom_is_a_threshold_test() {
    // NotYetEven(k) :- Keys(k), !A(k, Even) — holds while Even ⋢ A(k).
    let mut b = ProgramBuilder::new();
    let keys = b.relation("Keys", 1);
    let a = b.lattice("A", 2, LatticeOps::of::<Parity>());
    let out = b.relation("NotYetEven", 1);
    b.fact(keys, vec![1.into()]);
    b.fact(keys, vec![2.into()]);
    b.fact(keys, vec![3.into()]);
    b.fact(a, vec![1.into(), Parity::Even.to_value()]);
    b.fact(a, vec![2.into(), Parity::Odd.to_value()]);
    b.rule(
        Head::new(out, [HeadTerm::var("k")]),
        [
            BodyItem::atom(keys, [Term::var("k")]),
            BodyItem::not(a, [Term::var("k"), Term::Lit(Parity::Even.to_value())]),
        ],
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    // 1 has Even (Even ⊑ Even): excluded. 2 has Odd (Even ⋢ Odd): kept.
    // 3 has no cell (⊥): kept.
    assert!(!solution.contains("NotYetEven", &[1.into()]));
    assert!(solution.contains("NotYetEven", &[2.into()]));
    assert!(solution.contains("NotYetEven", &[3.into()]));
}

#[test]
fn deeply_nested_values_roundtrip_through_the_engine() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let deep = Value::tag(
        "Wrap",
        Value::tuple([
            Value::set([Value::Int(1), Value::tag0("X")]),
            Value::tuple([Value::Unit, Value::from("s")]),
        ]),
    );
    b.fact(p, vec![deep.clone()]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert!(solution.contains("P", &[deep]));
}
