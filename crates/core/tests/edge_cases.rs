//! Engine edge cases: degenerate programs, deep recursion, empty
//! domains, and failure injection for user-supplied functions.

use flix_core::model::{is_locally_minimal, is_model};
use flix_core::provenance::Event;
use flix_core::{
    AscentConfig, AscentWarning, BodyItem, Delta, Head, HeadTerm, LatticeOps, Observer, Program,
    ProgramBuilder, Query, Solution, Solver, Strategy, Term, Value, ValueLattice,
};
use flix_lattice::{MinCost, Parity};
use std::sync::{Arc, Mutex};

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
fn choice_on_a_bound_variable_is_a_test_and_sibling_rows_see_the_binding() {
    // Out(x) :- B(y), A(x, y), y <- near(x). A body is a conjunction: `y`
    // is bound by B when the choice runs, so the choice *tests* that `y`
    // is one of near(x); rebinding it would derive from a `y` that B never
    // held. near(x) = {x % 10 + 1, x + 5} puts a non-member last, so an
    // evaluator that left the last element tried in `y` would check the
    // next A row against 5, not against the 1 that B bound.
    let mut b = ProgramBuilder::new();
    let bb = b.relation("B", 1);
    let a = b.relation("A", 2);
    let out = b.relation("Out", 1);
    let near = b.function("near", |args| {
        let x = args[0].as_int().expect("int");
        Value::set([Value::Int(x % 10 + 1), Value::Int(x + 5)])
    });
    b.fact(bb, vec![1.into()]);
    b.fact(a, vec![0.into(), 1.into()]); // near = {1, 5}: holds
    b.fact(a, vec![43.into(), 1.into()]); // near = {4, 48}: 1 is not in it
    b.fact(a, vec![20.into(), 1.into()]); // near = {1, 25}: holds
    b.fact(a, vec![30.into(), 2.into()]); // B has no 2
    b.rule(
        Head::new(out, [HeadTerm::var("x")]),
        [
            BodyItem::atom(bb, [Term::var("y")]),
            BodyItem::atom(a, [Term::var("x"), Term::var("y")]),
            BodyItem::choose(near, [Term::var("x")], "y"),
        ],
    );
    let program = b.build().expect("valid");
    for provenance in [false, true] {
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
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
            assert_eq!(got, vec![0, 20], "{strategy:?} provenance={provenance}");
            assert!(is_model(&program, &solution));
            assert!(is_locally_minimal(&program, &solution));
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
fn fact_lines_render_sorted_filter_by_pattern_and_refuse_unknown_names() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 2);
    let pa = b.lattice("Pa", 2, LatticeOps::of::<Parity>());
    for (x, y) in [(2, 1), (1, 3), (1, 2)] {
        b.fact(p, vec![x.into(), y.into()]);
    }
    b.fact(pa, vec![1.into(), Parity::Odd.to_value()]);
    b.fact(pa, vec![0.into(), Parity::Even.to_value()]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");

    let lines = |name: &str, pattern: Option<&Query>| solution.fact_lines(name, pattern);
    assert_eq!(
        lines("P", None).expect("declared"),
        ["P(1, 2)", "P(1, 3)", "P(2, 1)"]
    );
    let first_is_1 = Query::new("P", vec![Some(1.into()), None]);
    assert_eq!(
        lines("P", Some(&first_is_1)).expect("declared"),
        ["P(1, 2)", "P(1, 3)"]
    );
    // A bound cell value filters by equality with the cell's element.
    let odd = Query::new("Pa", vec![None, Some(Parity::Odd.to_value())]);
    assert_eq!(lines("Pa", Some(&odd)).expect("declared"), ["Pa(1, Odd)"]);
    assert_eq!(lines("Nope", None), None);

    // The whole model is every predicate's lines in name order, which
    // is sorted order: `P(` before `Pa(`.
    assert_eq!(
        solution.model_lines(),
        ["P(1, 2)", "P(1, 3)", "P(2, 1)", "Pa(0, Even)", "Pa(1, Odd)"]
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

// ---------------------------------------------------------------------------
// What the encoded emit → insert → ∆ path has to hand back.
//
// A derived head normally travels from the plan's registers to the next
// round's delta step as encoded `u64` slots and a row id. These are the
// edges where that form does not fit, or where what it stands for must
// still be observable: each runs sequentially and on four threads.
// ---------------------------------------------------------------------------

/// Sorted `Pred(cols…)` lines of the whole model.
fn model_lines(program: &Program, solution: &Solution) -> Vec<String> {
    let mut lines = Vec::new();
    for (_, decl) in program.predicates() {
        let name = decl.name();
        for fact in solution.facts(name).expect("declared") {
            lines.push(format!("{name}({fact})"));
        }
    }
    lines.sort();
    lines
}

/// Solves under semi-naïve × {1, 4} threads (plus the naïve baseline),
/// asserts they agree with each other and with the model-theoretic
/// definition, and returns the sequential semi-naïve solution.
fn solve_encoded_edge(label: &str, program: &Program) -> Solution {
    let naive = Solver::new()
        .strategy(Strategy::Naive)
        .solve(program)
        .expect("solves");
    assert!(is_model(program, &naive), "{label}: a model");
    assert!(is_locally_minimal(program, &naive), "{label}: minimal");
    let mut sequential = None;
    for threads in [1, 4] {
        let solution = Solver::new()
            .threads(threads)
            .solve(program)
            .expect("solves");
        assert_eq!(
            model_lines(program, &solution),
            model_lines(program, &naive),
            "{label}: semi-naive x{threads} vs naive"
        );
        if let Some(first) = &sequential {
            let first: &Solution = first;
            assert_eq!(
                solution.stats().facts_derived,
                first.stats().facts_derived,
                "{label}: threads do not change the work"
            );
        } else {
            sequential = Some(solution);
        }
    }
    sequential.expect("ran")
}

#[test]
fn head_values_the_store_never_saw_are_interned_on_the_write_path() {
    // Made(s, x, wrap(x)) :- Node(x), s <- labels(x): s is a string
    // built *around* the interner and wrap(x) a tag no fact mentions, so
    // neither encodes against the store when the head is emitted — the
    // derivation takes the materialized payload and the insert interns
    // both. The next round then has to join on them as encoded words.
    let mut b = ProgramBuilder::new();
    let node = b.relation("Node", 1);
    let made = b.relation("Made", 3);
    let same_s = b.relation("SameStr", 2);
    let same_t = b.relation("SameTag", 2);
    let known = b.relation("Known", 2);
    let labels = b.function("labels", |args| {
        let x = args[0].as_int().expect("node");
        // `Value::Str` directly: not registered with the symbol table.
        Value::set([Value::Str(Arc::from(format!("enc-edge-unseen-{}", x % 2)))])
    });
    let wrap = b.function("wrap", |args| {
        Value::tag(
            "EncEdgeUnseen",
            Value::Int(args[0].as_int().expect("node") % 3),
        )
    });
    let again = b.function("again", |args| {
        // The same strings through the interning constructor, one round
        // later: by now they encode, so this head leaves encoded.
        Value::from(args[0].as_str().expect("label").to_string())
    });
    for x in 0..6i64 {
        b.fact(node, vec![x.into()]);
    }
    b.rule(
        Head::new(
            made,
            [
                HeadTerm::var("s"),
                HeadTerm::var("x"),
                HeadTerm::app(wrap, [Term::var("x")]),
            ],
        ),
        [
            BodyItem::atom(node, [Term::var("x")]),
            BodyItem::choose(labels, [Term::var("x")], "s"),
        ],
    );
    b.rule(
        Head::new(same_s, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [
            BodyItem::atom(made, [Term::var("s"), Term::var("x"), Term::Wildcard]),
            BodyItem::atom(made, [Term::var("s"), Term::var("y"), Term::Wildcard]),
        ],
    );
    b.rule(
        Head::new(same_t, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [
            BodyItem::atom(made, [Term::Wildcard, Term::var("x"), Term::var("t")]),
            BodyItem::atom(made, [Term::Wildcard, Term::var("y"), Term::var("t")]),
        ],
    );
    b.rule(
        Head::new(
            known,
            [HeadTerm::var("x"), HeadTerm::app(again, [Term::var("s")])],
        ),
        [BodyItem::atom(
            made,
            [Term::var("s"), Term::var("x"), Term::Wildcard],
        )],
    );
    let program = b.build().expect("valid");
    let solution = solve_encoded_edge("unseen head values", &program);
    assert_eq!(solution.len("Made"), Some(6));
    // x ≡ y (mod 2): 2 classes of 3 → 18 pairs; (mod 3): 3 classes of 2 → 12.
    assert_eq!(solution.len("SameStr"), Some(18));
    assert_eq!(solution.len("SameTag"), Some(12));
    assert!(solution.contains("SameStr", &[0.into(), 4.into()]));
    assert!(!solution.contains("SameStr", &[0.into(), 3.into()]));
    assert!(solution.contains("SameTag", &[1.into(), 4.into()]));
    assert!(solution.contains(
        "Made",
        &[
            "enc-edge-unseen-1".into(),
            5.into(),
            Value::tag("EncEdgeUnseen", Value::Int(2)),
        ]
    ));
    assert!(solution.contains("Known", &[4.into(), "enc-edge-unseen-0".into()]));
    assert_eq!(solution.len("Known"), Some(6));
}

#[test]
fn relational_head_wider_than_the_inline_key_takes_the_materialized_payload() {
    // Five columns: one more than the inline encoded width. The head is
    // recursive, so its rows come back as ∆ ids and are joined again.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let wide = b.relation("Wide", 5);
    let ends = b.relation("Ends", 2);
    let hops = b.function("next", |args| {
        Value::Int(args[0].as_int().expect("hops") + 1)
    });
    for (x, y) in [(1, 2), (2, 3), (3, 4), (2, 5), (5, 3)] {
        b.fact(edge, vec![x.into(), y.into()]);
    }
    b.rule(
        Head::new(
            wide,
            [
                HeadTerm::var("x"),
                HeadTerm::var("y"),
                HeadTerm::var("x"),
                HeadTerm::var("y"),
                HeadTerm::lit(1),
            ],
        ),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(
            wide,
            [
                HeadTerm::var("x"),
                HeadTerm::var("z"),
                HeadTerm::var("y"),
                HeadTerm::var("z"),
                HeadTerm::app(hops, [Term::var("n")]),
            ],
        ),
        [
            BodyItem::atom(
                wide,
                [
                    Term::var("x"),
                    Term::var("y"),
                    Term::Wildcard,
                    Term::Wildcard,
                    Term::var("n"),
                ],
            ),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    b.rule(
        Head::new(ends, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(
            wide,
            [
                Term::var("x"),
                Term::var("y"),
                Term::Wildcard,
                Term::Wildcard,
                Term::Wildcard,
            ],
        )],
    );
    let program = b.build().expect("valid");
    let solution = solve_encoded_edge("wide relational head", &program);
    // 1→4 by 1-2-3-4 (3 hops) and by 1-2-5-3-4 (4 hops).
    assert!(solution.contains("Wide", &[1.into(), 4.into(), 3.into(), 4.into(), 3.into()]));
    assert!(solution.contains("Wide", &[1.into(), 4.into(), 3.into(), 4.into(), 4.into()]));
    assert!(solution.contains("Ends", &[1.into(), 4.into()]));
    assert!(!solution.contains("Ends", &[4.into(), 1.into()]));
    assert_eq!(solution.len("Ends"), Some(10));
}

/// Integers under `max`, `⊥ = -1`.
fn max_int_ops() -> LatticeOps {
    let pick = |keep_left: fn(i64, i64) -> bool| {
        move |a: &Value, b: &Value| {
            let (x, y) = (a.as_int().expect("int"), b.as_int().expect("int"));
            if keep_left(x, y) {
                a.clone()
            } else {
                b.clone()
            }
        }
    };
    LatticeOps::from_fns(
        "MaxInt",
        Value::Int(-1),
        None,
        |a, b| a.as_int() <= b.as_int(),
        pick(|x, y| x >= y),
        pick(|x, y| x <= y),
    )
}

#[test]
fn a_cell_raised_twice_in_one_round_yields_two_delta_entries() {
    // Round 1 raises A("k") to 1 (rule 0) and then to 2 (rule 1). The
    // next round's ∆A must hold both changes, each with the value it
    // reached — B is derived from 1 and from 2 — not one entry per cell
    // and not the settled value twice.
    let mut b = ProgramBuilder::new();
    let s1 = b.relation("S1", 2);
    let s2 = b.relation("S2", 2);
    let a = b.lattice("A", 2, max_int_ops());
    let bb = b.lattice("B", 2, max_int_ops());
    b.fact(s1, vec!["k".into(), 1.into()]);
    b.fact(s2, vec!["k".into(), 2.into()]);
    let kv = || [Term::var("k"), Term::var("v")];
    let head = |p| Head::new(p, [HeadTerm::var("k"), HeadTerm::var("v")]);
    b.rule(head(a), [BodyItem::atom(s1, kv())]);
    b.rule(head(a), [BodyItem::atom(s2, kv())]);
    b.rule(head(bb), [BodyItem::atom(a, kv())]);
    // Closes the cycle so A and B share a stratum (and its rounds).
    b.rule(head(a), [BodyItem::atom(bb, kv())]);
    let program = b.build().expect("valid");

    let solution = solve_encoded_edge("twice-raised cell", &program);
    assert_eq!(
        solution.lattice_value("B", &["k".into()]),
        Some(Value::Int(2))
    );
    // 2 (round 1: A from S1, S2) + 2 (round 2: B from ∆A = [1, 2])
    // + 2 (round 3: A from ∆B = [1, 2], both subsumed, still counted).
    // Pinned to what the row-carrying ∆ of the previous engine derived;
    // a ∆ deduplicated by cell would derive 4.
    assert_eq!(solution.stats().facts_derived, 6);
    // Two asserted facts, then one net change per cell — not per raise.
    assert_eq!(solution.stats().facts_inserted, 4);

    for threads in [1, 4] {
        let logged = Solver::new()
            .threads(threads)
            .record_provenance(true)
            .solve(&program)
            .expect("solves");
        assert_eq!(logged.stats().facts_derived, 6);
        let b_pred = logged.predicate("B").expect("declared");
        let raised: Vec<&Event> = logged
            .provenance()
            .expect("recorded")
            .iter()
            .filter(|e| e.pred == b_pred)
            .collect();
        let tuples: Vec<&[Value]> = raised.iter().map(|e| e.tuple.as_slice()).collect();
        assert_eq!(
            tuples,
            [
                &["k".into(), Value::Int(1)][..],
                &["k".into(), Value::Int(2)][..]
            ],
            "x{threads}: B saw both intermediate values of A, in order"
        );
    }
}

#[test]
fn pending_ids_of_a_retract_and_insert_delta_name_rows_after_the_deletion() {
    // Retracting the *first* edge deletes early rows of every predicate,
    // and each deletion moves the predicate's last row into the hole: the
    // edge the same delta inserts is appended under an id that named
    // another row of the prior model — and seeds its strata by that id,
    // recorded after the deletion, in the database it was deleted from.
    let build = |edges: &[(i64, i64, i64)]| {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 3);
        let path = b.relation("Path", 2);
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        let extend = b.function("extend", |args| {
            let d = MinCost::expect_from(&args[0]);
            d.add_weight(args[1].as_int().expect("weight") as u64)
                .to_value()
        });
        for &(x, y, c) in edges {
            b.fact(edge, vec![x.into(), y.into(), c.into()]);
        }
        b.fact(dist, vec![0.into(), MinCost::finite(0).to_value()]);
        b.rule(
            Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
            [BodyItem::atom(
                edge,
                [Term::var("x"), Term::var("y"), Term::Wildcard],
            )],
        );
        b.rule(
            Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
                BodyItem::atom(edge, [Term::var("y"), Term::var("z"), Term::Wildcard]),
            ],
        );
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
        b.build().expect("valid")
    };
    let base_edges = [
        (0, 1, 1),
        (1, 2, 1),
        (0, 2, 5),
        (2, 3, 1),
        (3, 4, 2),
        (5, 6, 1),
    ];
    let base = build(&base_edges);
    // One delta: the first edge goes, a bridge 4→5 arrives.
    let delta = Delta::new()
        .retract("Edge", vec![0.into(), 1.into(), 1.into()])
        .insert("Edge", vec![4.into(), 5.into(), 1.into()]);
    let scratch_program = build(&[
        (1, 2, 1),
        (0, 2, 5),
        (2, 3, 1),
        (3, 4, 2),
        (5, 6, 1),
        (4, 5, 1),
    ]);
    let updated = base.with_delta(&delta).expect("fits");

    for threads in [1, 4] {
        let solver = Solver::new().threads(threads).record_provenance(true);
        let prior = solver.solve(&base).expect("solves");
        assert_eq!(
            prior.lattice_value("Dist", &[2.into()]),
            Some(MinCost::finite(2).to_value())
        );
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(
            model_lines(&base, &resumed),
            model_lines(&scratch_program, &scratch),
            "x{threads}: resume vs scratch"
        );
        assert!(is_model(&updated, &resumed), "x{threads}: a model");
        assert!(
            is_locally_minimal(&updated, &resumed),
            "x{threads}: minimal"
        );
        // The retraction lengthened 0→2; the insertion reached 5 and 6.
        assert_eq!(
            resumed.lattice_value("Dist", &[2.into()]),
            Some(MinCost::finite(5).to_value())
        );
        assert_eq!(
            resumed.lattice_value("Dist", &[6.into()]),
            Some(MinCost::finite(10).to_value())
        );
        assert!(resumed.contains("Path", &[0.into(), 6.into()]));
        assert!(!resumed.contains("Path", &[0.into(), 1.into()]));
        // The warm path ran: far less work than the scratch solve.
        assert!(
            resumed.stats().rule_evaluations > 0
                && resumed.stats().facts_inserted < scratch.stats().facts_inserted,
            "x{threads}: resumed {:?} vs scratch {:?}",
            resumed.stats().facts_inserted,
            scratch.stats().facts_inserted
        );
    }
}

/// Records every ascent warning the solver fires.
#[derive(Default)]
struct WarningLog(Mutex<Vec<AscentWarning>>);

impl Observer for WarningLog {
    fn ascent_warning(&self, warning: &AscentWarning) {
        self.0.lock().expect("log").push(warning.clone());
    }
}

#[test]
fn ascent_counters_and_warning_keys_survive_the_id_carrying_insert_path() {
    // Shortest paths with a two-column string/int key on a graph where
    // cells are reached on an expensive path first and improved later.
    // With ascent telemetry on, every join counts on its cell (no
    // emit-side suppression for lattice heads), and a warning names its
    // cell by the decoded key — which the insert path now has to read
    // back from the store by id.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 3, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        d.add_weight(args[1].as_int().expect("weight") as u64)
            .to_value()
    });
    b.fact(
        dist,
        vec!["g".into(), 0.into(), MinCost::finite(0).to_value()],
    );
    for (x, y, c) in [
        (0, 1, 9),
        (0, 2, 1),
        (2, 1, 5),
        (2, 3, 1),
        (3, 1, 1),
        (1, 4, 1),
        (4, 0, 1),
    ] {
        b.fact(edge, vec![x.into(), y.into(), c.into()]);
    }
    b.rule(
        Head::new(
            dist,
            [
                HeadTerm::var("g"),
                HeadTerm::var("y"),
                HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
            ],
        ),
        [
            BodyItem::atom(dist, [Term::var("g"), Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );
    let program = b.build().expect("valid");

    for threads in [1, 4] {
        let log = Arc::new(WarningLog::default());
        let solution = Solver::new()
            .threads(threads)
            .ascent(AscentConfig {
                warn_height: Some(3),
                top_k: 10,
            })
            .observer(log.clone())
            .solve(&program)
            .expect("solves");
        assert_eq!(
            solution.lattice_value("Dist", &["g".into(), 1.into()]),
            Some(MinCost::finite(3).to_value())
        );
        let report = solution.ascent_report(10).expect("ascent was enabled");
        let cells: Vec<(String, u64, u64)> = report
            .hottest
            .iter()
            .map(|c| (c.key.clone(), c.joins, c.height))
            .collect();
        // Pinned to what the previous, key-carrying insert path reported.
        assert_eq!(
            cells,
            ASCENT_CELLS
                .iter()
                .map(|&(k, j, h)| (k.to_string(), j, h))
                .collect::<Vec<_>>(),
            "x{threads}: joins / height per cell"
        );
        let warnings = log.0.lock().expect("log");
        let fired: Vec<(Vec<Value>, u64, u64)> = warnings
            .iter()
            .map(|w| (w.key.clone(), w.height, w.threshold))
            .collect();
        assert_eq!(
            fired,
            [
                (vec!["g".into(), 1.into()], 3, 3),
                (vec!["g".into(), 4.into()], 3, 3)
            ],
            "x{threads}: one warning per tall cell, naming it by the decoded key"
        );
        assert_eq!(warnings[0].predicate, "Dist");
    }
}

/// `(key, joins, height)` of every cell of the program above, hottest
/// first.
const ASCENT_CELLS: [(&str, u64, u64); 5] = [
    ("(\"g\", 0)", 4, 1),
    ("(\"g\", 1)", 3, 3),
    ("(\"g\", 4)", 3, 3),
    ("(\"g\", 2)", 1, 1),
    ("(\"g\", 3)", 1, 1),
];
