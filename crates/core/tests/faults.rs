//! Fault injection against the guarded execution layer (§7 "Safety").
//!
//! Every test here feeds the solver deliberately broken user code —
//! panicking transfer functions, lattice operations that violate the
//! laws, unbounded-height lattices, exhausted budgets, cancellation —
//! and asserts two things: the failure is reported as the *structured*
//! error variant (no process abort, no unwinding through the solver),
//! and the returned [`SolveFailure`] carries a non-empty partial
//! solution with the facts derived before the fault.

use flix_core::{
    verify::Violation, BodyItem, Budget, BudgetKind, CancelToken, Head, HeadTerm, LatticeOps,
    Program, ProgramBuilder, SolveError, Solver, Term, Value,
};
use std::time::{Duration, Instant};

/// An integer "lattice" of unbounded height: sound order, but every join
/// overshoots to `max + 1`, so cells climb forever.
fn diverging_ops() -> LatticeOps {
    LatticeOps::from_fns(
        "Diverging",
        Value::Int(0),
        None,
        |a, b| a.as_int() <= b.as_int(),
        |a, b| Value::Int(a.as_int().unwrap_or(0).max(b.as_int().unwrap_or(0)) + 1),
        |a, b| {
            if a.as_int() <= b.as_int() {
                a.clone()
            } else {
                b.clone()
            }
        },
    )
}

/// A program whose single stratum never converges: `Bad(x + 1) :- Bad(x)`
/// over [`diverging_ops`].
fn diverging_program() -> Program {
    let mut b = ProgramBuilder::new();
    let bad = b.lattice("Bad", 1, diverging_ops());
    let step = b.function("step", |args| {
        Value::Int(args[0].as_int().expect("int") + 1)
    });
    b.fact(bad, vec![Value::Int(1)]);
    b.rule(
        Head::new(bad, [HeadTerm::app(step, [Term::var("x")])]),
        [BodyItem::atom(bad, [Term::var("x")])],
    );
    b.build().expect("valid")
}

#[test]
fn panicking_transfer_function_reports_rule_context_and_partial() {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let reach = b.relation("Reach", 2);
    let boom = b.function("boom", |args| {
        let n = args[0].as_int().expect("int");
        if n >= 3 {
            panic!("transfer function exploded on {n}");
        }
        Value::Int(n)
    });
    b.fact(edge, vec![1.into(), 2.into()]);
    b.fact(edge, vec![2.into(), 3.into()]);
    b.fact(edge, vec![3.into(), 4.into()]);
    // Rule #0 copies edges; rule #1 extends paths through `boom`, which
    // panics once a node id reaches 3.
    b.rule(
        Head::new(reach, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(
            reach,
            [HeadTerm::var("x"), HeadTerm::app(boom, [Term::var("z")])],
        ),
        [
            BodyItem::atom(reach, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("transfer function panics");
    match &failure.error {
        SolveError::FunctionPanicked {
            predicate,
            rule,
            function,
            payload,
        } => {
            assert_eq!(predicate, "Reach");
            assert_eq!(*rule, Some(1));
            assert_eq!(function, "boom");
            assert!(payload.contains("transfer function exploded"), "{payload}");
        }
        other => panic!("expected FunctionPanicked, got {other:?}"),
    }
    // The partial solution holds the facts derived before the panic.
    assert!(failure.partial.len("Reach").expect("known predicate") > 0);
    assert!(failure.stats.facts_inserted > 0);
    // And the formatted diagnostic names everything a user needs.
    let msg = failure.error.to_string();
    assert!(
        msg.contains("boom") && msg.contains("Reach") && msg.contains("rule #1"),
        "{msg}"
    );
}

#[test]
fn panicking_lattice_op_is_named_in_the_error() {
    let mut b = ProgramBuilder::new();
    let ops = LatticeOps::from_fns(
        "Fragile",
        Value::Int(0),
        None,
        |a, b| {
            if b.as_int().unwrap_or(0) >= 3 {
                panic!("leq saw a value it cannot handle");
            }
            a.as_int() <= b.as_int()
        },
        |a, b| Value::Int(a.as_int().unwrap_or(0).max(b.as_int().unwrap_or(0))),
        |a, b| Value::Int(a.as_int().unwrap_or(0).min(b.as_int().unwrap_or(0))),
    );
    let cell = b.lattice("Cell", 1, ops);
    let step = b.function("grow", |args| {
        Value::Int((args[0].as_int().expect("int") + 1).min(3))
    });
    b.fact(cell, vec![Value::Int(1)]);
    b.rule(
        Head::new(cell, [HeadTerm::app(step, [Term::var("x")])]),
        [BodyItem::atom(cell, [Term::var("x")])],
    );
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("leq panics at 3");
    match &failure.error {
        SolveError::FunctionPanicked {
            predicate,
            function,
            ..
        } => {
            assert_eq!(predicate, "Cell");
            assert_eq!(function, "Fragile.leq");
        }
        other => panic!("expected FunctionPanicked, got {other:?}"),
    }
    assert_eq!(failure.partial.len("Cell"), Some(1));
}

#[test]
fn non_boolean_filter_reports_safety_violation_with_args() {
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    let weird = b.function("weird", |args| args[0].clone());
    b.fact(p, vec![7.into()]);
    b.rule(
        Head::new(q, [HeadTerm::var("x")]),
        [
            BodyItem::atom(p, [Term::var("x")]),
            BodyItem::filter(weird, [Term::var("x")]),
        ],
    );
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("filter is not boolean");
    match &failure.error {
        SolveError::SafetyViolation {
            predicate,
            violation: Violation::FilterNotBoolean(args, out),
            ..
        } => {
            assert_eq!(predicate, "Q");
            assert_eq!(args, &vec![Value::Int(7)]);
            assert_eq!(out, &Value::Int(7));
        }
        other => panic!("expected FilterNotBoolean, got {other:?}"),
    }
    // P's extensional fact survives in the partial solution.
    assert_eq!(failure.partial.len("P"), Some(1));
}

#[test]
fn lub_not_upper_bound_sentinel_trips_during_solving() {
    // `lub` ignores its right operand entirely, so joining an
    // incomparable element produces a "join" below one argument.
    let mut b = ProgramBuilder::new();
    let ops = LatticeOps::from_fns(
        "BadLub",
        Value::Int(i64::MIN),
        None,
        |a, b| a.as_int() <= b.as_int(),
        |a, _| a.clone(),
        |a, b| {
            if a.as_int() <= b.as_int() {
                a.clone()
            } else {
                b.clone()
            }
        },
    );
    let cell = b.lattice("Cell", 1, ops);
    b.fact(cell, vec![Value::Int(5)]);
    b.fact(cell, vec![Value::Int(9)]);
    let failure = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect_err("lub is not an upper bound");
    assert!(
        matches!(
            &failure.error,
            SolveError::SafetyViolation {
                violation: Violation::LubNotUpperBound(_, _),
                ..
            }
        ),
        "got {:?}",
        failure.error
    );
}

#[test]
fn unbounded_height_lattice_hits_round_limit_with_stratum() {
    let failure = Solver::new()
        .max_rounds(25)
        .solve(&diverging_program())
        .expect_err("diverges");
    match &failure.error {
        SolveError::RoundLimitExceeded {
            limit,
            stratum,
            stats,
        } => {
            assert_eq!(*limit, 25);
            assert_eq!(*stratum, 0);
            assert!(stats.rounds >= 25);
        }
        other => panic!("expected RoundLimitExceeded, got {other:?}"),
    }
    assert_eq!(
        failure.partial.len("Bad"),
        Some(1),
        "partial keeps the cell"
    );
}

#[test]
fn max_derivations_budget_stops_divergence() {
    let failure = Solver::new()
        .budget(Budget::new().max_derivations(100))
        .solve(&diverging_program())
        .expect_err("budget runs out");
    match &failure.error {
        SolveError::BudgetExceeded { kind, stats } => {
            assert_eq!(*kind, BudgetKind::MaxDerivations { limit: 100 });
            assert!(stats.facts_derived > 100);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(failure.partial.total_facts() > 0);
}

#[test]
fn max_facts_budget_stops_a_large_closure() {
    // Transitive closure over a 60-node chain derives ~1800 facts; cap
    // total storage at 150 (above the 60 extensional edges, far below the
    // full closure).
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for i in 0..60i64 {
        b.fact(edge, vec![i.into(), (i + 1).into()]);
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
    let failure = Solver::new()
        .budget(Budget::new().max_facts(150))
        .solve(&b.build().expect("valid"))
        .expect_err("fact budget runs out");
    assert!(matches!(
        &failure.error,
        SolveError::BudgetExceeded {
            kind: BudgetKind::MaxFacts { limit: 150 },
            ..
        }
    ));
    let partial_paths = failure.partial.len("Path").expect("known");
    assert!(partial_paths > 0, "partial solution is non-empty");
    assert!(
        failure.partial.total_facts() < 1830,
        "stopped well before the full closure"
    );
}

#[test]
fn deadline_expiry_returns_within_twice_the_timeout() {
    let deadline = Duration::from_millis(200);
    let start = Instant::now();
    let failure = Solver::new()
        .budget(Budget::new().deadline(deadline))
        .solve(&diverging_program())
        .expect_err("deadline expires");
    let elapsed = start.elapsed();
    assert!(
        elapsed < deadline * 2,
        "returned in {elapsed:?}, more than twice the {deadline:?} deadline"
    );
    match &failure.error {
        SolveError::BudgetExceeded { kind, .. } => {
            assert_eq!(
                *kind,
                BudgetKind::Deadline {
                    configured: deadline
                }
            );
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(failure.partial.total_facts() > 0, "facts derived so far");
    assert!(failure.stats.rounds > 0);
}

#[test]
fn deadline_interrupts_a_single_huge_rule_evaluation() {
    // One rule whose body is a three-way cross product (~8M combinations)
    // with an always-false filter: no round boundary is ever reached, so
    // only the intra-evaluation guard can stop it.
    let mut b = ProgramBuilder::new();
    let n = b.relation("N", 1);
    let out = b.relation("Out", 3);
    let never = b.function("never", |_| Value::Bool(false));
    for i in 0..200i64 {
        b.fact(n, vec![i.into()]);
    }
    b.rule(
        Head::new(
            out,
            [HeadTerm::var("x"), HeadTerm::var("y"), HeadTerm::var("z")],
        ),
        [
            BodyItem::atom(n, [Term::var("x")]),
            BodyItem::atom(n, [Term::var("y")]),
            BodyItem::atom(n, [Term::var("z")]),
            BodyItem::filter(never, [Term::var("x")]),
        ],
    );
    let deadline = Duration::from_millis(100);
    let start = Instant::now();
    let failure = Solver::new()
        .budget(Budget::new().deadline(deadline))
        .solve(&b.build().expect("valid"))
        .expect_err("deadline expires mid-rule");
    let elapsed = start.elapsed();
    assert!(
        matches!(
            &failure.error,
            SolveError::BudgetExceeded {
                kind: BudgetKind::Deadline { .. },
                ..
            }
        ),
        "got {:?}",
        failure.error
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "intra-rule guard should fire long before the cross product \
         finishes (took {elapsed:?})"
    );
    assert_eq!(failure.partial.len("N"), Some(200), "facts survived");
}

#[test]
fn cancellation_mid_stratum_stops_the_solve() {
    let token = CancelToken::new();
    let program = diverging_program();
    let solver = Solver::new().budget(Budget::new().cancel_token(token.clone()));
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let failure = solver.solve(&program).expect_err("cancelled");
    canceller.join().expect("canceller thread");
    assert!(token.is_cancelled());
    assert!(matches!(
        &failure.error,
        SolveError::BudgetExceeded {
            kind: BudgetKind::Cancelled,
            ..
        }
    ));
    assert!(failure.partial.total_facts() > 0);
}

#[test]
fn parallel_solver_isolates_worker_panics() {
    // Several rules, one of which panics: with threads > 1 the panic is
    // caught inside the worker and surfaces as the same structured error.
    let mut b = ProgramBuilder::new();
    let p = b.relation("P", 1);
    let q = b.relation("Q", 1);
    let r = b.relation("R", 1);
    let ok = b.function("ok", |args| args[0].clone());
    let boom = b.function("kaboom", |_| panic!("worker-side panic"));
    b.fact(p, vec![1.into()]);
    b.fact(p, vec![2.into()]);
    b.rule(
        Head::new(q, [HeadTerm::app(ok, [Term::var("x")])]),
        [BodyItem::atom(p, [Term::var("x")])],
    );
    b.rule(
        Head::new(r, [HeadTerm::app(boom, [Term::var("x")])]),
        [BodyItem::atom(p, [Term::var("x")])],
    );
    let failure = Solver::new()
        .threads(4)
        .solve(&b.build().expect("valid"))
        .expect_err("a rule panics");
    match &failure.error {
        SolveError::FunctionPanicked {
            function, payload, ..
        } => {
            assert_eq!(function, "kaboom");
            assert!(payload.contains("worker-side panic"));
        }
        other => panic!("expected FunctionPanicked, got {other:?}"),
    }
    assert_eq!(failure.partial.len("P"), Some(2));
}

#[test]
fn internal_worker_panic_is_a_structured_error_with_partial_solution() {
    // The panics above all happen inside `catch_unwind`-guarded *user*
    // code. This injects a panic in the worker thread itself — outside
    // every guard, simulating an internal solver bug — and pins that the
    // scope join converts it into a structured `SolveError` (instead of
    // the historical behaviour: `h.join().expect(...)` aborting the
    // process) and that the partial solution still carries the facts
    // inserted before the failed round.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    let back = b.relation("Back", 2);
    for i in 0..10i64 {
        b.fact(edge, vec![i.into(), (i + 1).into()]);
    }
    // Two rules, so the parallel path (tasks > 1) is exercised.
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(back, [HeadTerm::var("y"), HeadTerm::var("x")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    let failure = Solver::new()
        .threads(4)
        .inject_worker_panic_for_tests()
        .solve(&b.build().expect("valid"))
        .expect_err("injected worker panic");
    match &failure.error {
        SolveError::FunctionPanicked {
            predicate,
            rule,
            function,
            payload,
        } => {
            assert_eq!(predicate, "<internal>");
            assert_eq!(*rule, None);
            assert_eq!(function, "solver worker");
            assert!(payload.contains("injected worker panic"), "{payload}");
        }
        other => panic!("expected FunctionPanicked, got {other:?}"),
    }
    // Extensional facts inserted before the failed round survive.
    assert_eq!(failure.partial.len("Edge"), Some(10));
}

#[test]
fn parallel_deadline_returns_promptly_with_scaled_poll_period() {
    // Four huge cross-product rules evaluated by four workers: each
    // worker's amortised deadline poll runs at PERIOD / threads, so the
    // aggregate steps-between-checks (and therefore the response bound)
    // matches the sequential `deadline_interrupts_a_single_huge_rule_
    // evaluation` test above.
    let mut b = ProgramBuilder::new();
    let n = b.relation("N", 1);
    let never = b.function("never", |_| Value::Bool(false));
    let outs: Vec<_> = (0..4).map(|i| b.relation(format!("Out{i}"), 3)).collect();
    for i in 0..200i64 {
        b.fact(n, vec![i.into()]);
    }
    for &out in &outs {
        b.rule(
            Head::new(
                out,
                [HeadTerm::var("x"), HeadTerm::var("y"), HeadTerm::var("z")],
            ),
            [
                BodyItem::atom(n, [Term::var("x")]),
                BodyItem::atom(n, [Term::var("y")]),
                BodyItem::atom(n, [Term::var("z")]),
                BodyItem::filter(never, [Term::var("x")]),
            ],
        );
    }
    let deadline = Duration::from_millis(100);
    let start = Instant::now();
    let failure = Solver::new()
        .threads(4)
        .budget(Budget::new().deadline(deadline))
        .solve(&b.build().expect("valid"))
        .expect_err("deadline expires mid-round");
    let elapsed = start.elapsed();
    assert!(
        matches!(
            &failure.error,
            SolveError::BudgetExceeded {
                kind: BudgetKind::Deadline { .. },
                ..
            }
        ),
        "got {:?}",
        failure.error
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "all four workers should observe the deadline long before their \
         cross products finish (took {elapsed:?})"
    );
    assert_eq!(failure.partial.len("N"), Some(200), "facts survived");
}

#[test]
fn budget_error_display_is_informative() {
    let failure = Solver::new()
        .budget(Budget::new().max_derivations(10))
        .solve(&diverging_program())
        .expect_err("budget");
    let msg = failure.to_string();
    assert!(
        msg.contains("derivation budget of 10") && msg.contains("partial solution"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------------
// Fault parity through compiled plans: choice bindings and mid-plan budget
// trips, provenance on. Each fault must surface as the structured variant
// with the faulting rule named, and leave a usable partial model whose
// event log describes exactly the partial database.
// ---------------------------------------------------------------------------

/// `Reach` walks a 4-edge chain one node per round; rule #1, in the same
/// stratum, feeds every reached node to `choice` and derives `Out` from
/// the elements it returns.
/// A choice form: what `pick` runs on slots, when it has one.
type ChoiceForm = fn(&[u64], &mut Vec<u64>);

fn choice_program(
    binds: &[&'static str],
    choice: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    form: Option<ChoiceForm>,
) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let reach = b.relation("Reach", 1);
    let out = b.relation("Out", 2);
    let pick = b.function("pick", choice);
    if let Some(form) = form {
        b.choice_form(pick, binds.len(), form);
    }
    for i in 1..5i64 {
        b.fact(edge, vec![i.into(), (i + 1).into()]);
    }
    b.fact(reach, vec![1.into()]);
    b.rule(
        Head::new(reach, [HeadTerm::var("y")]),
        [
            BodyItem::atom(reach, [Term::var("x")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y")]),
        ],
    );
    let head_var = *binds.last().expect("at least one bind");
    b.rule(
        Head::new(out, [HeadTerm::var("x"), HeadTerm::var(head_var)]),
        [
            BodyItem::atom(reach, [Term::var("x")]),
            BodyItem::choose_tuple(pick, [Term::var("x")], binds.iter().copied()),
        ],
    );
    b.build().expect("valid")
}

/// Solves with provenance on, expecting a failure, and checks that the
/// partial model is usable and that its log and database agree fact for
/// fact (the programs here are relational: one event per stored tuple).
fn fail_with_consistent_log(solver: Solver, program: &Program) -> Box<flix_core::SolveFailure> {
    let failure = solver
        .record_provenance(true)
        .solve(program)
        .expect_err("the injected fault fails the solve");
    let partial = &failure.partial;
    let events = partial.provenance().expect("the partial keeps its log");
    assert!(partial.total_facts() > 0, "facts derived before the fault");
    assert_eq!(events.len(), partial.total_facts(), "one event per fact");
    for event in events {
        let name = program.decl(event.pred).name();
        assert!(
            partial.contains(name, &event.tuple),
            "{name}{:?}",
            event.tuple
        );
    }
    assert_eq!(failure.stats.total_facts, partial.total_facts() as u64);
    failure
}

#[test]
fn choice_returning_a_non_set_is_malformed_with_rule_context() {
    let program = choice_program(
        &["z"],
        |args| match args[0].as_int() {
            Some(n) if n >= 3 => Value::Int(n),
            _ => Value::set([args[0].clone()]),
        },
        None,
    );
    let failure = fail_with_consistent_log(Solver::new(), &program);
    match &failure.error {
        SolveError::SafetyViolation {
            predicate,
            rule,
            violation: Violation::ChoiceMalformed(args, out),
        } => {
            assert_eq!(predicate, "Out");
            assert_eq!(*rule, Some(1));
            assert_eq!(args, &vec![Value::Int(3)]);
            assert_eq!(out, &Value::Int(3));
        }
        other => panic!("expected ChoiceMalformed, got {other:?}"),
    }
    // The round that reached node 3 is dropped whole; the two before it
    // survive.
    assert_eq!(failure.partial.len("Reach"), Some(3));
    assert_eq!(failure.partial.len("Out"), Some(2));
}

#[test]
fn choice_element_of_the_wrong_arity_is_malformed_with_rule_context() {
    let program = choice_program(
        &["p", "q"],
        |args| {
            let x = args[0].clone();
            Value::set([
                Value::tuple([x.clone(), x.clone()]),
                Value::tuple([x.clone(), x.clone(), x]),
            ])
        },
        None,
    );
    let failure = fail_with_consistent_log(Solver::new(), &program);
    match &failure.error {
        SolveError::SafetyViolation {
            predicate,
            rule,
            violation: Violation::ChoiceMalformed(args, out),
        } => {
            assert_eq!(predicate, "Out");
            assert_eq!(*rule, Some(1));
            assert_eq!(args, &vec![Value::Int(1)]);
            assert_eq!(out, &Value::tuple([1.into(), 1.into(), 1.into()]));
        }
        other => panic!("expected ChoiceMalformed, got {other:?}"),
    }
    // The well-formed element before the malformed one derives nothing:
    // the faulting evaluation's output is discarded.
    assert_eq!(failure.partial.len("Reach"), Some(1));
    assert_eq!(failure.partial.len("Out"), Some(0));
}

#[test]
fn panicking_choice_function_is_named_with_rule_context() {
    let program = choice_program(
        &["z"],
        |args| {
            if args[0].as_int() == Some(4) {
                panic!("choice exploded on 4");
            }
            Value::set([args[0].clone()])
        },
        None,
    );
    for threads in [1, 4] {
        let failure = fail_with_consistent_log(Solver::new().threads(threads), &program);
        match &failure.error {
            SolveError::FunctionPanicked {
                predicate,
                rule,
                function,
                payload,
            } => {
                assert_eq!(predicate, "Out");
                assert_eq!(*rule, Some(1));
                assert_eq!(function, "pick");
                assert!(payload.contains("choice exploded on 4"), "{payload}");
            }
            other => panic!("expected FunctionPanicked, got {other:?}"),
        }
        assert_eq!(failure.partial.len("Reach"), Some(4));
        assert_eq!(failure.partial.len("Out"), Some(3));
    }
}

/// `pick`'s boxed form, where the choice form must run instead.
fn never_boxed(_: &[Value]) -> Value {
    panic!("the boxed form ran")
}

#[test]
fn panicking_choice_form_is_named_with_rule_context() {
    use flix_core::int_of_slot;
    let form: ChoiceForm = |words, out| {
        if int_of_slot(words[0]) == Some(4) {
            panic!("choice form exploded on 4");
        }
        out.push(words[0]);
    };
    let program = choice_program(&["z"], never_boxed, Some(form));
    for threads in [1, 4] {
        let failure = fail_with_consistent_log(Solver::new().threads(threads), &program);
        match &failure.error {
            SolveError::FunctionPanicked {
                predicate,
                rule,
                function,
                payload,
            } => {
                assert_eq!(predicate, "Out");
                assert_eq!(*rule, Some(1));
                assert_eq!(function, "pick");
                assert_eq!(payload, "choice form exploded on 4");
            }
            other => panic!("expected FunctionPanicked, got {other:?}"),
        }
        assert_eq!(failure.partial.len("Reach"), Some(4));
        assert_eq!(failure.partial.len("Out"), Some(3));
    }
}

#[test]
fn choice_form_writing_what_no_bind_takes_is_a_named_violation() {
    use flix_core::{int_of_slot, FLAT_TOP};
    // A word no value has a slot for, on reaching 3.
    let form: ChoiceForm = |words, out| {
        let word = if int_of_slot(words[0]) == Some(3) {
            FLAT_TOP
        } else {
            words[0]
        };
        out.push(word);
    };
    let program = choice_program(&["z"], never_boxed, Some(form));
    let failure = fail_with_consistent_log(Solver::new(), &program);
    match &failure.error {
        SolveError::SafetyViolation {
            predicate,
            rule,
            violation: Violation::ChoiceWordMalformed { function, found },
        } => {
            assert_eq!((predicate.as_str(), *rule), ("Out", Some(1)));
            assert_eq!(function, "pick");
            assert!(found.contains("not a slot"), "{found}");
        }
        other => panic!("expected ChoiceWordMalformed, got {other:?}"),
    }
    assert_eq!(failure.partial.len("Reach"), Some(3));
    assert_eq!(failure.partial.len("Out"), Some(2));
    assert!(failure
        .error
        .to_string()
        .contains("choice function pick's word form"));

    // Three words for elements of two.
    let form: ChoiceForm = |words, out| out.extend([words[0]; 3]);
    let program = choice_program(&["p", "q"], never_boxed, Some(form));
    let failure = fail_with_consistent_log(Solver::new(), &program);
    match &failure.error {
        SolveError::SafetyViolation {
            violation: Violation::ChoiceWordMalformed { function, found },
            ..
        } => {
            assert_eq!(function, "pick");
            assert!(found.contains("not a multiple of its width 2"), "{found}");
        }
        other => panic!("expected ChoiceWordMalformed, got {other:?}"),
    }
}

#[test]
fn cancellation_mid_plan_with_provenance_keeps_a_consistent_partial() {
    // Stratum 0 closes `Reach`; the negation puts `Out` in stratum 1: one
    // evaluation of a ~1M-row cross product whose filter cancels the solve
    // on its 1000th call. No round boundary follows, so only the in-plan
    // poll can notice.
    let token = CancelToken::new();
    let trip = token.clone();
    let calls = std::sync::atomic::AtomicU64::new(0);
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let reach = b.relation("Reach", 1);
    let out = b.relation("Out", 3);
    let blocked = b.relation("Blocked", 1);
    let never = b.function("never", move |_| {
        if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1000 {
            trip.cancel();
        }
        Value::Bool(false)
    });
    for i in 0..100i64 {
        b.fact(edge, vec![i.into(), (i + 1).into()]);
    }
    b.fact(reach, vec![0.into()]);
    b.rule(
        Head::new(reach, [HeadTerm::var("y")]),
        [
            BodyItem::atom(reach, [Term::var("x")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y")]),
        ],
    );
    b.rule(
        Head::new(
            out,
            [HeadTerm::var("x"), HeadTerm::var("y"), HeadTerm::var("z")],
        ),
        [
            BodyItem::atom(reach, [Term::var("x")]),
            BodyItem::atom(reach, [Term::var("y")]),
            BodyItem::atom(reach, [Term::var("z")]),
            BodyItem::filter(never, [Term::var("x")]),
            BodyItem::not(blocked, [Term::var("x")]),
        ],
    );
    let program = b.build().expect("valid");
    let solver = Solver::new().budget(Budget::new().cancel_token(token));
    let failure = fail_with_consistent_log(solver, &program);
    assert!(
        matches!(
            &failure.error,
            SolveError::BudgetExceeded {
                kind: BudgetKind::Cancelled,
                ..
            }
        ),
        "got {:?}",
        failure.error
    );
    assert_eq!(
        failure.partial.len("Reach"),
        Some(101),
        "stratum 0 survived"
    );
    assert_eq!(failure.partial.len("Out"), Some(0));
}

// ---------------------------------------------------------------------
// Built-in lattice kinds and word forms: the engine stops calling the
// closures of a lattice that declares a kind, so a declaration its
// closures do not keep is refused before anything runs, and a word form
// that misbehaves is contained like a closure.
// ---------------------------------------------------------------------

/// `Dist(k, c) :- Start(k, c)` over `ops`, with two facts.
fn dist_program(ops: LatticeOps) -> Program {
    use flix_core::ValueLattice;
    use flix_lattice::MinCost;
    let mut b = ProgramBuilder::new();
    let start = b.relation("Start", 2);
    let dist = b.lattice("Dist", 2, ops);
    for (k, c) in [(1, 3), (1, 5)] {
        b.fact(start, vec![Value::Int(k), MinCost::finite(c).to_value()]);
    }
    b.rule(
        Head::new(dist, [HeadTerm::var("k"), HeadTerm::var("c")]),
        [BodyItem::atom(start, [Term::var("k"), Term::var("c")])],
    );
    b.build().expect("valid")
}

#[test]
fn a_declared_kind_the_closures_do_not_keep_is_refused_before_any_solve() {
    use flix_core::{LatticeKind, Query, ValueLattice};
    use flix_lattice::MinCost;
    let flat = LatticeKind::Flat { tag: "Fin".into() };
    let fin = |c: u64| MinCost::finite(c).to_value();
    let lying = |samples: Vec<Value>| LatticeOps::of::<MinCost>().with_kind(flat.clone(), samples);
    // `MinCost` is a chain: Fin(1) ⊔ Fin(2) is Fin(1), where the flat
    // kind has ⊤ (`Fin(0)`).
    // Too few samples, or one that is no element of the kind, cannot
    // establish the claim either.
    let cases = [
        (
            lying(vec![fin(1), fin(2), fin(3)]),
            "lub(Fin(1), Fin(2)) is Fin(1), not Fin(0)",
        ),
        (lying(vec![fin(1)]), "fewer than two samples"),
        (
            lying(vec![fin(1), Value::Int(2)]),
            "the sample 2 is not one of its elements",
        ),
    ];
    for (ops, found) in cases {
        let program = dist_program(ops);
        let solver = Solver::new().record_provenance(true);
        let failures = [
            solver.solve(&program).expect_err("refused"),
            solver
                .solve_query(&program, &[Query::new("Dist", vec![None, None])])
                .expect_err("refused"),
        ];
        for failure in failures {
            let SolveError::SafetyViolation {
                predicate,
                rule: None,
                violation:
                    Violation::KindMismatch {
                        lattice,
                        kind,
                        found: got,
                    },
            } = &failure.error
            else {
                panic!("expected a refused kind, got {:?}", failure.error);
            };
            assert_eq!((predicate.as_str(), lattice.as_str()), ("Dist", "MinCost"));
            assert_eq!(kind, &flat);
            assert!(got.contains(found), "{got:?} names {found:?}");
            assert_eq!(failure.stats.rounds, 0, "nothing ran");
            assert_eq!(failure.partial.total_facts(), 0, "nothing was asserted");
            assert!(failure
                .error
                .to_string()
                .contains("declares the flat Fin(_) kind"));
        }
    }
    // With the claim they keep — a chain — the same closures solve: ⊑
    // on the chain.
    let honest = Solver::new().solve(&dist_program(LatticeOps::of::<MinCost>()));
    let honest = honest.expect("solves");
    assert_eq!(honest.lattice_value("Dist", &[Value::Int(1)]), Some(fin(3)));
}

/// `MinCost`'s closures, declaring no kind, as `name` with the top
/// `Fin(top)` and — `longest` — `lub` the `max` of two costs.
fn min_cost_closures(name: &str, top: u64, longest: bool) -> LatticeOps {
    use flix_core::ValueLattice;
    use flix_lattice::{Lattice, MinCost};
    let cost = |v: &Value| MinCost::expect_from(v);
    let lub = move |a: &Value, b: &Value| match (cost(a).value(), cost(b).value()) {
        (Some(x), Some(y)) if longest => MinCost::finite(x.max(y)).to_value(),
        _ => cost(a).lub(&cost(b)).to_value(),
    };
    LatticeOps::from_fns(
        name,
        MinCost::INFINITY.to_value(),
        Some(MinCost::finite(top).to_value()),
        move |a, b| cost(a).leq(&cost(b)),
        lub,
        move |a, b| cost(a).glb(&cost(b)).to_value(),
    )
}

#[test]
fn a_chain_the_closures_do_not_keep_is_refused_before_any_solve() {
    use flix_core::{LatticeKind, ValueLattice};
    use flix_lattice::MinCost;
    let chain = LatticeKind::Chain { tag: "Fin".into() };
    let samples = || [1, 2, 7].map(|c| MinCost::finite(c).to_value());
    let cases = [
        (
            min_cost_closures("Longest", 0, true),
            "its lub(Fin(0), Fin(1)) is Fin(1), not Fin(0)",
        ),
        (
            min_cost_closures("Capped", 5, false),
            "its top Fin(5) is not the kind's ⊤",
        ),
    ];
    for (ops, found) in cases {
        let ops = ops.with_kind(chain.clone(), samples());
        let failure = Solver::new()
            .solve(&dist_program(ops))
            .expect_err("refused");
        let SolveError::SafetyViolation {
            rule: None,
            violation: Violation::KindMismatch {
                kind, found: got, ..
            },
            ..
        } = &failure.error
        else {
            panic!("expected a refused kind, got {:?}", failure.error);
        };
        assert_eq!(kind, &chain);
        assert!(got.contains(found), "{got:?} names {found:?}");
        assert_eq!(failure.stats.rounds, 0, "nothing ran");
        assert_eq!(failure.partial.total_facts(), 0, "nothing was asserted");
        let message = failure.error.to_string();
        assert!(
            message.contains("declares the chain Fin(_) kind"),
            "{message}"
        );
    }
    // The same closures, `lub` the chain's and ⊤ `Fin(0)`, keep the claim.
    let ops = min_cost_closures("MinCost", 0, false).with_kind(chain, samples());
    let solution = Solver::new().solve(&dist_program(ops)).expect("solves");
    let three = MinCost::finite(3).to_value();
    assert_eq!(
        solution.lattice_value("Dist", &[Value::Int(1)]),
        Some(three)
    );
}

/// The chain's least finite element, `Fin(2⁶⁰ − 1)`, is a word like any
/// other: raised by a resume, it round-trips through a snapshot and is
/// replayed from a write-ahead log.
#[test]
fn the_chains_last_element_round_trips_through_a_snapshot_and_the_log() {
    use flix_core::{load_snapshot, save_snapshot, Delta, DeltaLog, ValueLattice};
    use flix_lattice::MinCost;
    let dir = std::env::temp_dir().join(format!("flix-faults-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let (snapshot, wal) = (dir.join("model.snap"), dir.join("model.wal"));
    let last = MinCost::finite((1 << 60) - 1).to_value();
    let program = dist_program(LatticeOps::of::<MinCost>());
    let solver = Solver::new();
    let base = solver.solve(&program).expect("solves");
    save_snapshot(&snapshot, &program, &base).expect("saves");
    let delta = Delta::new().raise("Dist", vec![Value::Int(2)], last.clone());
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("opens a log");
    log.append(&delta).expect("appends");
    drop(log);
    let resumed = solver.resume(&program, &base, &delta).expect("resumes");
    let (recovered, report) = solver.recover(&program, &snapshot, &wal).expect("recovers");
    assert_eq!(report.wal_frames_replayed, 1);
    save_snapshot(&snapshot, &program, &resumed).expect("saves");
    let loaded = load_snapshot(&snapshot, &program).expect("loads");
    for solution in [&resumed, &recovered, &loaded] {
        let cell = solution.lattice_value("Dist", &[Value::Int(2)]);
        assert_eq!(cell.as_ref(), Some(&last));
        let three = MinCost::finite(3).to_value();
        assert_eq!(
            solution.lattice_value("Dist", &[Value::Int(1)]),
            Some(three)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A value that is not an element of the chain — `Fin(2⁶⁰)`, past its
/// range; `Fin(-1)`; a foreign tag — is never a cell: asserted, it fails
/// the solve with a violation naming the lattice, or a panic of the
/// lattice's own `leq`, which refuses it; returned by a function — whose
/// word form answers a word that is no chain word, so the boxed form
/// decides — it fails the solve the same way, with the rule named; in a
/// delta, it is refused before the resume.
#[test]
fn a_value_outside_the_chain_is_a_named_failure_or_a_refused_delta() {
    use flix_core::{slot_of_int, Delta, DeltaError, WordType};
    use flix_lattice::MinCost;
    let fin = |n: i64| Value::tag("Fin", Value::Int(n));
    let strangers = [fin(1 << 60), fin(-1), Value::tag0("Nope")];
    let refused = |failure: &flix_core::SolveFailure, rule: Option<usize>, at: &Value| {
        match &failure.error {
            SolveError::SafetyViolation {
                predicate,
                rule: named,
                violation: Violation::KindMismatch { lattice, found, .. },
            } => {
                assert_eq!((predicate.as_str(), lattice.as_str()), ("Dist", "MinCost"));
                assert_eq!(*named, rule, "{at}");
                assert!(found.contains("is not one of its elements"), "{found}");
            }
            SolveError::FunctionPanicked {
                function,
                payload,
                rule: named,
                ..
            } => {
                assert_eq!(function, "MinCost.leq", "{at}");
                assert!(payload.contains("not an element"), "{payload}");
                assert_eq!(*named, rule, "{at}");
            }
            other => panic!("{at}: expected a named failure, got {other:?}"),
        }
        let cells = failure.partial.lattice("Dist").expect("declared");
        assert!(cells.map(|(_, v)| v).all(|v| v != at), "{at} became a cell");
    };
    for stranger in &strangers {
        // Asserted.
        let mut b = ProgramBuilder::new();
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        b.fact(dist, vec![Value::Int(9), stranger.clone()]);
        let failure = Solver::new().solve(&b.build().expect("valid"));
        refused(&failure.expect_err("refused"), None, stranger);

        // Returned by a function with a word form that declines.
        let mut b = ProgramBuilder::new();
        let start = b.relation("Start", 1);
        let ops = LatticeOps::of::<MinCost>();
        let elem = WordType::Elem(ops.kind().expect("MinCost is a chain").clone());
        let dist = b.lattice("Dist", 2, ops);
        let returned = stranger.clone();
        let bad = b.function("bad", move |_| returned.clone());
        let negative = slot_of_int(-1).expect("inline");
        b.word_form(bad, [WordType::Slot], elem, move |_| negative);
        b.fact(start, vec![Value::Int(1)]);
        b.rule(
            Head::new(
                dist,
                [HeadTerm::var("k"), HeadTerm::app(bad, [Term::var("k")])],
            ),
            [BodyItem::atom(start, [Term::var("k")])],
        );
        let failure = Solver::new().solve(&b.build().expect("valid"));
        refused(&failure.expect_err("refused"), Some(0), stranger);

        // In a delta, inserted or raised.
        let program = dist_program(LatticeOps::of::<MinCost>());
        let base = Solver::new().solve(&program).expect("solves");
        for delta in [
            Delta::new().insert("Dist", vec![Value::Int(9), stranger.clone()]),
            Delta::new().raise("Dist", vec![Value::Int(1)], stranger.clone()),
        ] {
            let expected = DeltaError::NotAnElement {
                predicate: "Dist".to_string(),
                lattice: "MinCost".to_string(),
                element: stranger.clone(),
            };
            assert_eq!(program.check_delta(&delta), Err(expected.clone()));
            let failure = Solver::new().resume(&program, &base, &delta);
            match failure.expect_err("refused").error {
                SolveError::Delta(error) => assert_eq!(error, expected),
                other => panic!("{stranger}: expected a refused delta, got {other:?}"),
            }
        }
    }
}

/// A rule literal in the value column of a lattice of a declared kind
/// must be one of the kind's elements — in a head, a body atom or a
/// negated one; a lattice of closures takes any value.
#[test]
fn a_rule_literal_outside_the_kind_is_refused_when_built() {
    use flix_core::ProgramError;
    use flix_lattice::MinCost;
    let fin = |n: i64| Value::tag("Fin", Value::Int(n));
    let built = |ops: LatticeOps, literal: &Value, place: usize| {
        let mut b = ProgramBuilder::new();
        let start = b.relation("Start", 1);
        let seen = b.relation("Seen", 1);
        let dist = b.lattice("Dist", 2, ops);
        let (k, lit) = (|| Term::var("k"), || Term::Lit(literal.clone()));
        let start_k = || BodyItem::atom(start, [k()]);
        match place {
            0 => b.rule(
                Head::new(dist, [HeadTerm::var("k"), HeadTerm::Lit(literal.clone())]),
                [start_k()],
            ),
            1 => b.rule(
                Head::new(seen, [HeadTerm::var("k")]),
                [start_k(), BodyItem::atom(dist, [k(), lit()])],
            ),
            _ => b.rule(
                Head::new(seen, [HeadTerm::var("k")]),
                [start_k(), BodyItem::not(dist, [k(), lit()])],
            ),
        }
        b.build()
    };
    for stranger in [fin(1 << 60), fin(-1), Value::tag0("Nope"), Value::Int(3)] {
        for place in 0..3 {
            match built(LatticeOps::of::<MinCost>(), &stranger, place) {
                Err(ProgramError::LiteralNotAnElement {
                    predicate,
                    lattice,
                    literal,
                }) => {
                    let named = (predicate.as_str(), lattice.as_str());
                    assert_eq!(named, ("Dist", "MinCost"), "{stranger}");
                    assert_eq!(literal, stranger.to_string());
                }
                other => panic!("{stranger} at {place}: {:?}", other.map(|_| "a program")),
            }
            assert!(
                built(diverging_ops(), &stranger, place).is_ok(),
                "{stranger}"
            );
        }
    }
    for element in [fin(0), fin(7), Value::tag0("Inf")] {
        for place in 0..3 {
            assert!(built(LatticeOps::of::<MinCost>(), &element, place).is_ok());
        }
    }
}

/// A word form is never handed a value the store holds no slot for:
/// `length` reads a choice's strings, which no fact holds, through its
/// boxed form, and a stored string through its word form first (which
/// declines, so the boxed form answers that call too).
#[test]
fn a_word_form_is_never_handed_a_value_the_store_never_held() {
    use flix_core::WordType;
    use std::sync::atomic::Ordering;
    let mut b = ProgramBuilder::new();
    let num = b.relation("Num", 1);
    let known = b.relation("Known", 1);
    let len = b.relation("Len", 2);
    for n in 1..=3 {
        b.fact(num, vec![Value::Int(n)]);
    }
    b.fact(known, vec!["stored".into()]);
    let spell = b.function("spell", |args| {
        let n = args[0].as_int().expect("an int");
        Value::set([format!("s{n}"), format!("tt{n}")].map(Value::from))
    });
    let (boxed, boxed_calls) = counter();
    let length = b.function("length", move |args| {
        boxed.fetch_add(1, Ordering::Relaxed);
        Value::Int(args[0].as_str().expect("a string").len() as i64)
    });
    let (words, word_calls) = counter();
    b.word_form(length, [WordType::Slot], WordType::Slot, move |_| {
        words.fetch_add(1, Ordering::Relaxed);
        u64::MAX
    });
    let s = || Term::var("s");
    let head = || Head::new(len, [HeadTerm::var("s"), HeadTerm::app(length, [s()])]);
    b.rule(
        head(),
        [
            BodyItem::atom(num, [Term::var("x")]),
            BodyItem::choose(spell, [Term::var("x")], "s"),
        ],
    );
    b.rule(head(), [BodyItem::atom(known, [s()])]);
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    let mut lines = solution.fact_lines("Len", None).expect("declared");
    lines.sort();
    assert_eq!(lines.len(), 7, "{lines:?}");
    assert!(lines.contains(&"Len(\"tt3\", 3)".to_string()), "{lines:?}");
    assert!(
        lines.contains(&"Len(\"stored\", 6)".to_string()),
        "{lines:?}"
    );
    assert_eq!((word_calls(), boxed_calls()), (1, 7));
}

/// Counts calls of one form of a function.
fn counter() -> (
    std::sync::Arc<std::sync::atomic::AtomicUsize>,
    impl Fn() -> usize,
) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let calls = std::sync::Arc::new(AtomicUsize::new(0));
    let read = {
        let calls = calls.clone();
        move || calls.load(Ordering::Relaxed)
    };
    (calls, read)
}

#[test]
fn word_forms_run_where_the_plan_holds_words_and_misbehaving_ones_are_contained() {
    use flix_core::{ValueLattice, WordType, FLAT_TOP, WORD_FALSE, WORD_TRUE};
    use flix_lattice::Constant;
    use std::sync::atomic::Ordering;
    // Val(k, cst(n)) :- Seed(k, n).          — a word-form head application
    // Top(k) :- Val(k, v), is_top(v).         — a word-form filter
    // Echo(k) :- Val(k, v), Mark(v), is_top(v). — `v` is also a join key:
    //                                            boxed, so the boxed form
    let build = |word: fn(&[u64]) -> u64, test: fn(&[u64]) -> u64| {
        let (cst_boxed, cst_boxed_n) = counter();
        let (cst_word, cst_word_n) = counter();
        let (top_boxed, top_boxed_n) = counter();
        let (top_word, top_word_n) = counter();
        let consts = LatticeOps::of::<Constant>();
        let elem = WordType::Elem(consts.kind().expect("Constant is flat").clone());
        let mut b = ProgramBuilder::new();
        let seed = b.relation("Seed", 2);
        let mark = b.relation("Mark", 1);
        let val = b.lattice("Val", 2, consts);
        let top = b.relation("Top", 1);
        let echo = b.relation("Echo", 1);
        let cst = b.function("cst", move |args| {
            cst_boxed.fetch_add(1, Ordering::Relaxed);
            Constant::cst(args[0].as_int().expect("int")).to_value()
        });
        b.word_form(cst, [WordType::Slot], elem.clone(), move |w| {
            cst_word.fetch_add(1, Ordering::Relaxed);
            word(w)
        });
        let is_top = b.function("is_top", move |args| {
            top_boxed.fetch_add(1, Ordering::Relaxed);
            Value::Bool(Constant::expect_from(&args[0]) == Constant::top_const())
        });
        b.word_form(is_top, [elem], WordType::Slot, move |w| {
            top_word.fetch_add(1, Ordering::Relaxed);
            test(w)
        });
        for (k, n) in [(1, 3), (1, 4), (2, 5)] {
            b.fact(seed, vec![Value::Int(k), Value::Int(n)]);
        }
        b.fact(mark, vec![Constant::top_const().to_value()]);
        let v = Term::var;
        b.rule(
            Head::new(val, [HeadTerm::var("k"), HeadTerm::app(cst, [v("n")])]),
            [BodyItem::atom(seed, [v("k"), v("n")])],
        );
        b.rule(
            Head::new(top, [HeadTerm::var("k")]),
            [
                BodyItem::atom(val, [v("k"), v("v")]),
                BodyItem::filter(is_top, [v("v")]),
            ],
        );
        b.rule(
            Head::new(echo, [HeadTerm::var("k")]),
            [
                BodyItem::atom(val, [v("k"), v("v")]),
                BodyItem::atom(mark, [v("v")]),
                BodyItem::filter(is_top, [v("v")]),
            ],
        );
        let program = b.build().expect("valid");
        let counts = move || [cst_word_n(), cst_boxed_n(), top_word_n(), top_boxed_n()];
        (program, counts)
    };
    let model = |solution: &flix_core::Solution| {
        let mut facts: Vec<String> = ["Val", "Top", "Echo"]
            .iter()
            .flat_map(|name| {
                solution
                    .facts(name)
                    .expect("declared")
                    .map(move |f| format!("{name}({f})"))
            })
            .collect();
        facts.sort();
        facts
    };
    let expected = ["Echo(1)", "Top(1)", "Val(1, Top)", "Val(2, Cst(5))"];

    // Well-behaved word forms: the filter and the application run on
    // words; only the `Echo` rule's filter, whose argument is boxed,
    // calls a boxed form.
    let (program, counts) = build(
        |w| w[0],
        |w| {
            if w[0] == FLAT_TOP {
                WORD_TRUE
            } else {
                WORD_FALSE
            }
        },
    );
    let solution = Solver::new().solve(&program).expect("solves");
    assert_eq!(model(&solution), expected);
    let [cst_word, cst_boxed, top_word, echo] = counts();
    assert_eq!((cst_word, cst_boxed), (3, 0), "cst: word form only");
    assert!(top_word > 0, "is_top on a word register: word form");
    assert!(echo > 0, "is_top on the boxed register of `Echo`'s rule");
    // The boxed reference makes the same calls, all boxed, and agrees.
    let reference = Solver::new()
        .solve(&program.boxed_reference())
        .expect("solves");
    assert_eq!(model(&reference), expected);
    assert_eq!(counts(), [cst_word, 3, top_word, echo + top_word + echo]);

    // A word that is no word of its type — an application's that no
    // element has, a filter's that is no boolean — is dropped, and the
    // boxed form decides that call.
    let (program, counts) = build(|_| FLAT_TOP + 8, |_| 12345);
    let solution = Solver::new().solve(&program).expect("solves");
    assert_eq!(model(&solution), expected);
    assert_eq!(counts(), [3, 3, top_word, top_word + echo]);

    // A word form that panics is reported like the boxed form would be.
    let (program, _) = build(|_| panic!("word form exploded"), |w| w[0]);
    let failure = Solver::new().solve(&program).expect_err("fails");
    let SolveError::FunctionPanicked {
        function,
        payload,
        rule,
        ..
    } = &failure.error
    else {
        panic!("expected a caught panic, got {:?}", failure.error);
    };
    assert_eq!(
        (function.as_str(), payload.as_str(), *rule),
        ("cst", "word form exploded", Some(0))
    );
}
