//! Integration tests of the engine's declarative semantics through the
//! facade crate: the worked examples of §3.2, compositionality (§3.4),
//! and the direct product of analyses.

use flix::core::model;
use flix::core::ValueLattice;
use flix::lattice::{MinCost, Parity, Sign};
use flix::{
    BodyItem, Head, HeadTerm, Lattice, LatticeOps, ProgramBuilder, Solver, Strategy, Term, Value,
};

fn parity(p: Parity) -> Value {
    p.to_value()
}

/// §3.2, first worked example: A(Even). A(Odd). B(Odd). The minimal
/// compact model is I6 = {A(⊤), B(Odd)} — the paper walks I1..I6.
#[test]
fn section_3_2_parity_example_reaches_interpretation_i6() {
    let mut b = ProgramBuilder::new();
    let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
    let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
    b.fact(a, vec![parity(Parity::Even)]);
    b.fact(a, vec![parity(Parity::Odd)]);
    b.fact(bb, vec![parity(Parity::Odd)]);
    let program = b.build().expect("valid");
    let solution = Solver::new().solve(&program).expect("solves");

    assert_eq!(solution.lattice_value("A", &[]), Some(parity(Parity::Top)));
    assert_eq!(solution.lattice_value("B", &[]), Some(parity(Parity::Odd)));
    assert!(model::is_model(&program, &solution));
    assert!(model::is_locally_minimal(&program, &solution));
}

/// §3.2, second worked example, on the sign lattice: the minimal model is
/// I4 = {A(1, Pos), A(2, ⊤)}.
#[test]
fn section_3_2_sign_example_reaches_interpretation_i4() {
    let mut b = ProgramBuilder::new();
    let a = b.lattice("A", 2, LatticeOps::of::<Sign>());
    b.fact(a, vec![1.into(), Sign::Pos.to_value()]);
    b.fact(a, vec![2.into(), Sign::Pos.to_value()]);
    b.fact(a, vec![2.into(), Sign::Neg.to_value()]);
    let program = b.build().expect("valid");
    let solution = Solver::new().solve(&program).expect("solves");
    assert_eq!(
        solution.lattice_value("A", &[1.into()]),
        Some(Sign::Pos.to_value())
    );
    assert_eq!(
        solution.lattice_value("A", &[2.into()]),
        Some(Sign::Top.to_value())
    );
    assert!(model::is_locally_minimal(&program, &solution));
}

/// §3.4 compositionality: the model of the union of two programs sharing
/// predicates is computed by replaying both rule sets into one builder —
/// here the paper's conditional-constant-propagation sketch, miniaturised:
/// a reachability analysis and a parity analysis share `IsReachable`.
#[test]
fn section_3_4_composed_analyses_share_predicates() {
    let build = |include_parity: bool, include_reach: bool| {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 2);
        let reachable = b.relation("IsReachable", 1);
        let parity_of = b.lattice("ParityOf", 2, LatticeOps::of::<Parity>());
        b.fact(edge, vec![1.into(), 2.into()]);
        b.fact(edge, vec![2.into(), 3.into()]);
        b.fact(reachable, vec![1.into()]);
        b.fact(parity_of, vec![1.into(), Parity::Odd.to_value()]);
        if include_reach {
            // IsReachable(y) :- IsReachable(x), Edge(x, y).
            b.rule(
                Head::new(reachable, [HeadTerm::var("y")]),
                [
                    BodyItem::atom(reachable, [Term::var("x")]),
                    BodyItem::atom(edge, [Term::var("x"), Term::var("y")]),
                ],
            );
        }
        if include_parity {
            // ParityOf(y, p) :- Edge(x, y), IsReachable(y), ParityOf(x, p).
            b.rule(
                Head::new(parity_of, [HeadTerm::var("y"), HeadTerm::var("p")]),
                [
                    BodyItem::atom(edge, [Term::var("x"), Term::var("y")]),
                    BodyItem::atom(reachable, [Term::var("y")]),
                    BodyItem::atom(parity_of, [Term::var("x"), Term::var("p")]),
                ],
            );
        }
        Solver::new()
            .solve(&b.build().expect("valid"))
            .expect("solves")
    };

    // Alone, the parity analysis cannot flow past unproven reachability.
    let parity_alone = build(true, false);
    assert_eq!(
        parity_alone.lattice_value("ParityOf", &[3.into()]),
        Some(Parity::Bot.to_value())
    );
    // Composed, reachability feeds the parity rules.
    let composed = build(true, true);
    assert_eq!(
        composed.lattice_value("ParityOf", &[3.into()]),
        Some(Parity::Odd.to_value())
    );
}

/// §3.4: the direct product of two abstract domains as a single lattice
/// predicate over `(Sign, Parity)` pairs, ordered componentwise.
#[test]
fn direct_product_of_sign_and_parity() {
    fn to_value(s: Sign, p: Parity) -> Value {
        Value::tuple([s.to_value(), p.to_value()])
    }
    fn from_value(v: &Value) -> (Sign, Parity) {
        let items = v.as_tuple().expect("pair");
        (Sign::expect_from(&items[0]), Parity::expect_from(&items[1]))
    }
    fn componentwise(
        a: &Value,
        b: &Value,
        sign: fn(&Sign, &Sign) -> Sign,
        parity: fn(&Parity, &Parity) -> Parity,
    ) -> Value {
        let ((sa, pa), (sb, pb)) = (from_value(a), from_value(b));
        to_value(sign(&sa, &sb), parity(&pa, &pb))
    }
    let ops = LatticeOps::from_fns(
        "Sign×Parity",
        to_value(Sign::bottom(), Parity::bottom()),
        None,
        |a, b| {
            let ((sa, pa), (sb, pb)) = (from_value(a), from_value(b));
            sa.leq(&sb) && pa.leq(&pb)
        },
        |a, b| componentwise(a, b, Sign::lub, Parity::lub),
        |a, b| componentwise(a, b, Sign::glb, Parity::glb),
    );

    let mut b = ProgramBuilder::new();
    let d = b.lattice("D", 2, ops);
    b.fact(d, vec![1.into(), to_value(Sign::Pos, Parity::Even)]);
    b.fact(d, vec![1.into(), to_value(Sign::Pos, Parity::Odd)]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    assert_eq!(
        solution.lattice_value("D", &[1.into()]),
        Some(to_value(Sign::Pos, Parity::Top)),
        "componentwise join: signs agree, parities disagree"
    );
}

/// Strategies and configurations all land on the same minimal model.
#[test]
fn solver_configuration_matrix_agrees() {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        d.add_weight(args[1].as_int().expect("w") as u64).to_value()
    });
    b.fact(dist, vec![0.into(), MinCost::finite(0).to_value()]);
    for (x, y, w) in [(0, 1, 2), (1, 2, 2), (0, 2, 5), (2, 0, 1)] {
        b.fact(edge, vec![x.into(), y.into(), w.into()]);
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
    let reference = Solver::new().solve(&program).expect("solves");
    for solver in [
        Solver::new().strategy(Strategy::Naive),
        Solver::new().threads(4),
        Solver::new().use_indexes(false),
        Solver::new()
            .threads(2)
            .use_indexes(false)
            .strategy(Strategy::Naive),
    ] {
        let solution = solver.solve(&program).expect("solves");
        assert_eq!(solution.total_facts(), reference.total_facts());
        assert_eq!(
            solution.lattice_value("Dist", &[2.into()]),
            reference.lattice_value("Dist", &[2.into()])
        );
    }
}

/// A rule body is a conjunction: `R(x, z) :- P(x), z <- f(x), Q(z)` holds
/// for the `z` that are in `f(x)` *and* in `Q`, whichever of the two the
/// evaluator happens to meet first. The ∆`Q` variant of semi-naïve
/// evaluation, the head-bound plan of a retraction and the body order a
/// demand guard induces all run `Q(z)` before the choice; a choice that
/// overwrites the `z` it finds bound derives `R(1, 3)` from `Q(2)` there.
/// One program, every way of producing a model — with `f` boxed, and
/// with a choice form that binds `z` as a slot and tests it as one.
#[test]
fn a_choice_variable_joined_by_a_later_atom_means_the_same_in_every_order() {
    use flix::core::{int_of_slot, slot_of_int};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let build = |form_calls: Option<Arc<AtomicUsize>>| {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q0 = b.relation("Q0", 1);
        let q = b.relation("Q", 1);
        let r = b.relation("R", 2);
        let f = b.function("f", |args| {
            let x = args[0].as_int().expect("int");
            Value::set([Value::Int(x + 1), Value::Int(x + 2)])
        });
        if let Some(calls) = form_calls {
            b.choice_form(f, 1, move |words, out| {
                calls.fetch_add(1, Ordering::Relaxed);
                let x = int_of_slot(words[0]).expect("int");
                out.extend([x + 1, x + 2].map(|z| slot_of_int(z).expect("inline")));
            });
        }
        b.fact(p, vec![1.into()]);
        b.fact(q0, vec![2.into()]);
        b.rule(
            Head::new(q, [HeadTerm::var("z")]),
            [BodyItem::atom(q0, [Term::var("z")])],
        );
        b.rule(
            Head::new(r, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::choose(f, [Term::var("x")], "z"),
                BodyItem::atom(q, [Term::var("z")]),
            ],
        );
        b.build().expect("valid")
    };
    let form_calls = Arc::new(AtomicUsize::new(0));
    for program in [build(None), build(Some(Arc::clone(&form_calls)))] {
        every_order_means_the_same(&program);
    }
    assert!(
        form_calls.load(Ordering::Relaxed) > 0,
        "the choice form ran"
    );
}

fn every_order_means_the_same(program: &flix::Program) {
    use flix::{Delta, Query};
    let rows = |solution: &flix::Solution| {
        let rows = solution.relation("R").expect("relation");
        let mut rows: Vec<(i64, i64)> = rows
            .map(|row| (row[0].as_int().expect("int"), row[1].as_int().expect("int")))
            .collect();
        rows.sort_unstable();
        rows
    };

    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        for threads in [1, 4] {
            for provenance in [false, true] {
                let label = format!("{strategy:?} threads={threads} provenance={provenance}");
                let solver = Solver::new()
                    .strategy(strategy)
                    .threads(threads)
                    .record_provenance(provenance);
                let solved = solver.solve(program).expect("solves");
                assert_eq!(rows(&solved), [(1, 2)], "{label}");
                assert!(model::is_model(program, &solved), "{label}");
                assert!(model::is_locally_minimal(program, &solved), "{label}");

                // Insert `Q0(3)`, then take it back: each step equals a
                // scratch solve of the program it stands for.
                let three = vec![Value::from(3)];
                let insert = Delta::new().insert("Q0", three.clone());
                let with_3 = solver.resume(program, &solved, &insert).expect("resumes");
                assert_eq!(rows(&with_3), [(1, 2), (1, 3)], "{label}: inserted");
                let retract = Delta::new().retract("Q0", three);
                let without_3 = solver.resume(program, &with_3, &retract);
                let without_3 = without_3.expect("resumes");
                assert_eq!(rows(&without_3), [(1, 2)], "{label}: retracted");
                assert!(!without_3.contains("Q", &[3.into()]), "{label}");
                assert!(model::is_locally_minimal(program, &without_3), "{label}");

                // A demand guard binds `z`, or `x`, before the body runs.
                let patterns = [vec![None, Some(Value::from(2))], vec![Some(1.into()), None]];
                for pattern in patterns {
                    let query = Query::new("R", pattern);
                    let result = solver.solve_query(program, std::slice::from_ref(&query));
                    let result = result.expect("queries");
                    let answers: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
                    assert_eq!(answers, ["1, 2"], "{label}: {query}");
                    assert_eq!(rows(result.solution()), [(1, 2)], "{label}: {query}");
                }

                if provenance {
                    let tree = solved.explain("R", &[1.into(), 2.into()]).expect("logged");
                    let premise = tree.children.iter().find(|c| c.predicate == "Q");
                    let premise = premise.expect("R(1, 2) rests on a Q premise");
                    assert_eq!(premise.tuple, [Value::from(2)], "{label}");
                    assert!(!premise.children.is_empty(), "{label}: Q(2) is explained");
                }
            }
        }
    }
}
