//! Integration tests for the incremental re-solve engine
//! (`flix_core::incremental`): `Solver::resume` must agree cell-for-cell
//! with a from-scratch solve, reject malformed deltas up front, fall back
//! soundly in the presence of stratified negation, and compose with the
//! guarded-execution and provenance layers.

use flix_core::{
    BodyItem, Budget, Delta, DeltaError, Fact, Head, HeadTerm, LatticeOps, Program, ProgramBuilder,
    Solution, SolveError, Solver, SolverConfig, Strategy, Term, Value, ValueLattice,
};
use flix_lattice::MinCost;

/// Canonical sorted dump of every fact of every predicate, used to compare
/// models for exact equality.
fn dump(program: &Program, solution: &Solution) -> Vec<String> {
    let mut lines = Vec::new();
    for (_, decl) in program.predicates() {
        let name = decl.name();
        for fact in solution.facts(name).expect("declared predicate") {
            lines.push(format!("{name}({fact})"));
        }
    }
    lines.sort();
    lines
}

/// The Edge/Path transitive-closure program over the given edges.
fn paths_program(edges: &[(i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for (x, y) in edges {
        b.fact(edge, vec![Value::from(*x), Value::from(*y)]);
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

/// Single-source shortest paths (§4.4): Edge(x, y, w) relation and a
/// Dist(node; MinCost) lattice seeded at node 0.
fn shortest_paths_program(edges: &[(i64, i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("edge weight") as u64;
        d.add_weight(c).to_value()
    });
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    for (x, y, w) in edges {
        b.fact(
            edge,
            vec![Value::from(*x), Value::from(*y), Value::from(*w)],
        );
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
    b.build().expect("valid program")
}

fn configurations() -> Vec<Solver> {
    vec![
        Solver::new().strategy(Strategy::Naive),
        Solver::new(),
        Solver::with_config(SolverConfig {
            threads: 4,
            ..SolverConfig::default()
        })
        .expect("valid config"),
    ]
}

#[test]
fn resume_matches_scratch_on_paths() {
    let base_edges = [(1, 2), (2, 3), (5, 6)];
    let base = paths_program(&base_edges);
    let all_edges = [(1, 2), (2, 3), (5, 6), (3, 4), (6, 1)];
    let scratch_program = paths_program(&all_edges);
    let delta = Delta::new()
        .insert("Edge", vec![Value::from(3), Value::from(4)])
        .insert("Edge", vec![Value::from(6), Value::from(1)]);
    for solver in configurations() {
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert!(resumed.contains("Path", &[Value::from(6), Value::from(4)]));
    }
}

#[test]
fn resume_matches_scratch_on_lattice_raise() {
    let base_edges = [(0, 1, 4), (1, 2, 3), (0, 2, 9), (2, 3, 1)];
    let base = shortest_paths_program(&base_edges);
    // A new edge plus a direct lattice raise: finite(5) is *better* than
    // the settled Dist(2) = finite(7) (MinCost orders smaller costs
    // higher), so the raise must propagate to nodes 3 and 4. The scratch
    // program mirrors the raise as a Dist fact.
    let with_edge = [(0, 1, 4), (1, 2, 3), (0, 2, 9), (2, 3, 1), (3, 4, 2)];
    let delta = Delta::new()
        .insert("Edge", vec![Value::from(3), Value::from(4), Value::from(2)])
        .raise("Dist", vec![Value::from(2)], MinCost::finite(5).to_value());
    let scratch_program = {
        let b_edges: Vec<(i64, i64, i64)> = with_edge.to_vec();
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 3);
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        let extend = b.function("extend", |args| {
            let d = MinCost::expect_from(&args[0]);
            let c = args[1].as_int().expect("edge weight") as u64;
            d.add_weight(c).to_value()
        });
        b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
        b.fact(dist, vec![Value::from(2), MinCost::finite(5).to_value()]);
        for (x, y, w) in &b_edges {
            b.fact(
                edge,
                vec![Value::from(*x), Value::from(*y), Value::from(*w)],
            );
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
        b.build().expect("valid program")
    };
    for solver in configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert_eq!(
            prior.lattice_value("Dist", &[Value::from(2)]),
            Some(MinCost::finite(7).to_value())
        );
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(2)]),
            Some(MinCost::finite(5).to_value())
        );
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(4)]),
            Some(MinCost::finite(8).to_value())
        );
    }
}

#[test]
fn noop_and_absorbed_deltas_leave_the_model_unchanged() {
    let base = paths_program(&[(1, 2), (2, 3)]);
    let solver = Solver::new();
    let prior = solver.solve(&base).expect("solves");
    // Empty delta.
    let resumed = solver
        .resume(&base, &prior, &Delta::new())
        .expect("resumes");
    assert_eq!(dump(&base, &resumed), dump(&base, &prior));
    assert_eq!(resumed.stats().rounds, 0, "no stratum was re-evaluated");
    // A delta whose facts are already in the model is absorbed without
    // re-deriving anything.
    let absorbed = Delta::new().insert("Edge", vec![Value::from(1), Value::from(2)]);
    let resumed = solver.resume(&base, &prior, &absorbed).expect("resumes");
    assert_eq!(dump(&base, &resumed), dump(&base, &prior));
    assert_eq!(resumed.stats().facts_inserted, 0);
    assert_eq!(resumed.stats().rounds, 0);
}

#[test]
fn malformed_deltas_are_rejected_with_the_prior_model_intact() {
    let base = paths_program(&[(1, 2), (2, 3)]);
    let solver = Solver::new();
    let prior = solver.solve(&base).expect("solves");

    let unknown = Delta::new().insert("Nope", vec![Value::from(1)]);
    let failure = solver
        .resume(&base, &prior, &unknown)
        .expect_err("rejected");
    assert!(matches!(
        &failure.error,
        SolveError::Delta(DeltaError::UnknownPredicate { predicate }) if predicate == "Nope"
    ));
    assert_eq!(dump(&base, &failure.partial), dump(&base, &prior));

    let bad_arity = Delta::new().insert("Edge", vec![Value::from(1)]);
    let failure = solver
        .resume(&base, &prior, &bad_arity)
        .expect_err("rejected");
    assert!(matches!(
        &failure.error,
        SolveError::Delta(DeltaError::ArityMismatch {
            predicate,
            declared: 2,
            found: 1,
        }) if predicate == "Edge"
    ));
    assert_eq!(dump(&base, &failure.partial), dump(&base, &prior));

    // A solution from a structurally different program is rejected.
    let other = shortest_paths_program(&[(0, 1, 1)]);
    let other_solution = solver.solve(&other).expect("solves");
    let failure = solver
        .resume(&base, &other_solution, &Delta::new())
        .expect_err("rejected");
    assert!(matches!(
        &failure.error,
        SolveError::Delta(DeltaError::SolutionMismatch)
    ));
}

#[test]
fn negation_fallback_retracts_like_a_scratch_solve() {
    // C(x) :- A(x), not B(x): inserting into B must *retract* C facts,
    // which the monotone warm start cannot express — resume falls back to
    // a full solve and must still match it exactly.
    fn build(a_facts: &[i64], b_facts: &[i64]) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.relation("A", 1);
        let bb = b.relation("B", 1);
        let c = b.relation("C", 1);
        for x in a_facts {
            b.fact(a, vec![Value::from(*x)]);
        }
        for x in b_facts {
            b.fact(bb, vec![Value::from(*x)]);
        }
        b.rule(
            Head::new(c, [HeadTerm::var("x")]),
            [
                BodyItem::atom(a, [Term::var("x")]),
                BodyItem::not(bb, [Term::var("x")]),
            ],
        );
        b.build().expect("valid program")
    }
    let base = build(&[1, 2], &[2]);
    let scratch_program = build(&[1, 2], &[1, 2]);
    for solver in configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert!(prior.contains("C", &[Value::from(1)]));
        let delta = Delta::new().insert("B", vec![Value::from(1)]);
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert!(
            !resumed.contains("C", &[Value::from(1)]),
            "C(1) must be retracted once B(1) arrives"
        );
        assert!(resumed.stats().rounds > 0, "solved from scratch");
        // B(2) is asserted already — a client's retry, a WAL frame folded
        // twice: the store does not change, so nothing reaches the
        // negation and nothing runs.
        let resent = Delta::new().insert("B", vec![Value::from(2)]);
        let unchanged = solver.resume(&base, &prior, &resent).expect("resumes");
        assert_eq!(unchanged.stats().rounds, 0, "no fallback, no stratum");
        assert_eq!(dump(&base, &unchanged), dump(&base, &prior));
    }
}

#[test]
fn budget_exhausted_mid_resume_returns_a_partial_superset_of_the_prior_model() {
    // A long chain so the resumed propagation needs many derivations, and
    // a delta shortcut that re-opens the whole chain.
    let n = 60i64;
    let edges: Vec<(i64, i64, i64)> = (0..n).map(|i| (i, i + 1, 10)).collect();
    let base = shortest_paths_program(&edges);
    let solver = Solver::new();
    let prior = solver.solve(&base).expect("solves");

    let strict = Solver::new().budget(Budget::new().max_derivations(5));
    let delta = Delta::new().insert(
        "Edge",
        vec![Value::from(0), Value::from(n / 2), Value::from(1)],
    );
    let failure = strict
        .resume(&base, &prior, &delta)
        .expect_err("budget trips");
    assert!(
        matches!(&failure.error, SolveError::BudgetExceeded { .. }),
        "{:?}",
        failure.error
    );

    // The partial model must be ⊒ the pre-update model: every prior Dist
    // cell is present with an equal-or-better (smaller or equal) cost, and
    // every prior Edge row survives.
    for fact in prior.facts("Dist").expect("lattice") {
        let (key, prior_cost) = match fact {
            Fact::Cell(key, value) => (key, MinCost::expect_from(value)),
            Fact::Row(_) => unreachable!("Dist is a lattice"),
        };
        let partial_value = failure
            .partial
            .lattice_value("Dist", key)
            .expect("prior key retained in the partial model");
        let partial_cost = MinCost::expect_from(&partial_value);
        assert!(
            partial_cost.value().unwrap() <= prior_cost.value().unwrap(),
            "partial Dist({key:?}) regressed: {partial_cost:?} vs {prior_cost:?}"
        );
    }
    for fact in prior.facts("Edge").expect("relation") {
        if let Fact::Row(row) = fact {
            assert!(failure.partial.contains("Edge", row));
        }
    }
    // The delta fact itself was applied before the budget tripped.
    assert!(failure.partial.contains(
        "Edge",
        &[Value::from(0), Value::from(n / 2), Value::from(1)]
    ));
}

#[test]
fn with_config_rejects_zero_threads_and_the_chain_clamps() {
    let err = Solver::with_config(SolverConfig {
        threads: 0,
        ..SolverConfig::default()
    })
    .expect_err("zero threads rejected");
    assert!(err.to_string().contains("threads must be at least 1"));
    // The chained setter keeps its lenient historical behaviour.
    let solver = Solver::new().threads(0);
    assert_eq!(solver.config().threads, 1);
}

#[test]
fn provenance_carries_through_resume() {
    let base = paths_program(&[(1, 2), (2, 3)]);
    let solver = Solver::new().record_provenance(true);
    let prior = solver.solve(&base).expect("solves");
    let delta = Delta::new().insert("Edge", vec![Value::from(3), Value::from(4)]);
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
    // A fact that only exists after the update has a full derivation tree
    // reaching back through pre-update facts.
    let tree = resumed
        .explain("Path", &[Value::from(1), Value::from(4)])
        .expect("explainable");
    let rendered = tree.to_string();
    assert!(rendered.contains("Edge(3, 4)"), "{rendered}");
    assert!(rendered.contains("Edge(1, 2)"), "{rendered}");
    // Pre-update facts remain explainable.
    assert!(resumed
        .explain("Path", &[Value::from(1), Value::from(3)])
        .is_some());
}

#[test]
fn resume_stats_profile_the_incremental_rounds() {
    let base = paths_program(&[(1, 2), (2, 3)]);
    let solver = Solver::new();
    let prior = solver.solve(&base).expect("solves");
    let delta = Delta::new().insert("Edge", vec![Value::from(3), Value::from(4)]);
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
    let stats = resumed.stats();
    assert!(stats.rounds >= 1, "resume re-ran at least one round");
    assert!(stats.facts_inserted >= 1, "the delta landed");
    assert_eq!(
        stats.per_rule.len(),
        2,
        "per-rule profile covers every rule"
    );
    assert!(
        stats.per_rule.iter().any(|r| r.evaluations > 0),
        "resumed rounds appear in the per-rule profile"
    );
    assert!(
        !stats.per_stratum.is_empty(),
        "resumed strata appear in the per-stratum profile"
    );
    assert!(stats.wall_ns > 0);
    // Resume did strictly less rule evaluation than the original solve
    // on this delta (the whole point of warm starting).
    assert!(stats.rule_evaluations <= prior.stats().rule_evaluations);
}

#[test]
fn facts_view_unifies_relations_and_lattices() {
    let program = shortest_paths_program(&[(0, 1, 4)]);
    let solution = Solver::new().solve(&program).expect("solves");
    // Relation facts come out as rows with no lattice value.
    let edge_facts: Vec<Fact> = solution.facts("Edge").expect("relation").collect();
    assert_eq!(edge_facts.len(), 1);
    assert!(matches!(edge_facts[0], Fact::Row(_)));
    assert_eq!(edge_facts[0].value(), None);
    assert_eq!(format!("{}", edge_facts[0]), "0, 1, 4");
    // Lattice facts come out as key/value cells.
    let dist_facts: Vec<Fact> = solution.facts("Dist").expect("lattice").collect();
    assert_eq!(dist_facts.len(), 2);
    for fact in &dist_facts {
        assert!(matches!(fact, Fact::Cell(_, _)));
        assert!(fact.value().is_some());
        assert_eq!(fact.key().len(), 1);
    }
    // The named iterators agree with the unified view.
    let rel_rows: Vec<&[Value]> = solution.relation("Edge").expect("relation").collect();
    assert_eq!(rel_rows.len(), 1);
    assert!(solution.relation("Dist").is_none());
    let lat_cells: Vec<(&[Value], &Value)> = solution.lattice("Dist").expect("lattice").collect();
    assert_eq!(lat_cells.len(), 2);
    assert!(solution.lattice("Edge").is_none());
    // Unknown predicates yield None everywhere.
    assert!(solution.facts("Nope").is_none());
    assert!(solution.relation("Nope").is_none());
    assert!(solution.lattice("Nope").is_none());
}

#[test]
fn chained_resumes_match_scratch() {
    // Apply three deltas in sequence, comparing each against a scratch
    // solve with all facts so far; resume always takes the *base*
    // program (it never re-reads program.facts).
    let base_edges = vec![(1, 2), (2, 3)];
    let base = paths_program(&base_edges);
    let steps: Vec<(i64, i64)> = vec![(3, 4), (4, 5), (5, 1)];
    for solver in configurations() {
        let mut current = solver.solve(&base).expect("solves");
        let mut all_edges = base_edges.clone();
        for (x, y) in &steps {
            all_edges.push((*x, *y));
            let delta = Delta::new().insert("Edge", vec![Value::from(*x), Value::from(*y)]);
            current = solver.resume(&base, &current, &delta).expect("resumes");
            let scratch_program = paths_program(&all_edges);
            let scratch = solver.solve(&scratch_program).expect("solves");
            assert_eq!(dump(&base, &current), dump(&scratch_program, &scratch));
        }
        // After closing the cycle, everything reaches everything.
        for x in 1..=5 {
            for y in 1..=5 {
                assert!(current.contains("Path", &[Value::from(x), Value::from(y)]));
            }
        }
    }
}

#[test]
fn empty_delta_short_circuits_without_cloning_or_strata() {
    let program = paths_program(&[(1, 2), (2, 3)]);
    for solver in configurations() {
        let prior = solver.solve(&program).expect("solves");
        let resumed = solver
            .resume(&program, &prior, &Delta::new())
            .expect("resumes");
        // Same model, and no fixed-point machinery ran: no rounds, no
        // strata, no rule evaluations, no insertions.
        assert_eq!(dump(&program, &prior), dump(&program, &resumed));
        assert_eq!(resumed.stats().rounds, 0);
        assert_eq!(resumed.stats().strata, 0);
        assert_eq!(resumed.stats().rule_evaluations, 0);
        assert_eq!(resumed.stats().facts_inserted, 0);
        assert_eq!(resumed.stats().total_facts as usize, prior.total_facts(),);
        // And the short-circuited solution keeps working as a prior for
        // a real resume.
        let delta = Delta::new().insert("Edge", vec![3.into(), 4.into()]);
        let updated = solver.resume(&program, &resumed, &delta).expect("resumes");
        assert!(updated.contains("Path", &[1.into(), 4.into()]));
    }
}

#[test]
fn empty_delta_carries_provenance_over() {
    let program = paths_program(&[(1, 2), (2, 3)]);
    let solver = Solver::new().record_provenance(true);
    let prior = solver.solve(&program).expect("solves");
    let events = prior.provenance().expect("recorded").len();
    let resumed = solver
        .resume(&program, &prior, &Delta::new())
        .expect("resumes");
    assert_eq!(resumed.provenance().expect("carried").len(), events);
    assert!(resumed.explain("Path", &[1.into(), 3.into()]).is_some());
}

// ---------------------------------------------------------------------
// Retraction (DeltaOp::Retract / DeltaOp::Lower) coverage.
// ---------------------------------------------------------------------

/// Configurations with provenance recording on — the precondition for
/// the exact over-delete/re-derive path (without it retraction degrades
/// to a scratch solve, covered separately below).
fn provenance_configurations() -> Vec<Solver> {
    configurations()
        .into_iter()
        .map(|s| s.record_provenance(true))
        .collect()
}

#[test]
fn retraction_matches_scratch_on_paths() {
    // Retract the middle edge of a chain: every Path fact that routed
    // through it must disappear, while an alternative route survives.
    let base_edges = [(1, 2), (2, 3), (3, 4), (1, 3)];
    let base = paths_program(&base_edges);
    let scratch_program = paths_program(&[(1, 2), (3, 4), (1, 3)]);
    let delta = Delta::new().retract("Edge", vec![Value::from(2), Value::from(3)]);
    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert!(prior.contains("Path", &[Value::from(2), Value::from(4)]));
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert!(!resumed.contains("Path", &[Value::from(2), Value::from(4)]));
        // Path(1, 4) survives: it re-derives through Edge(1, 3).
        assert!(resumed.contains("Path", &[Value::from(1), Value::from(4)]));
    }
}

#[test]
fn retraction_without_provenance_falls_back_and_matches_scratch() {
    // With no event log there is no cone to over-delete; the resume
    // must degrade to a scratch solve of the updated store and still
    // agree with it cell-for-cell.
    let base = paths_program(&[(1, 2), (2, 3), (3, 4)]);
    let scratch_program = paths_program(&[(1, 2), (3, 4)]);
    let delta = Delta::new().retract("Edge", vec![Value::from(2), Value::from(3)]);
    for solver in configurations() {
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
    }
}

#[test]
fn insert_then_retract_in_one_delta_is_a_net_noop() {
    // An insertion cancelled by a later retraction of the same tuple in
    // one delta has no net effect on the store, so the resumed model
    // must equal the prior one — the cancelled tuple must not leak into
    // the warm database. This is the WAL-recovery shape: an insert
    // logged in one run and its retraction logged in a later run fold
    // into a single combined delta on replay.
    let base = paths_program(&[(1, 2)]);
    let delta = Delta::new()
        .insert("Edge", vec![Value::from(2), Value::from(3)])
        .retract("Edge", vec![Value::from(2), Value::from(3)]);
    for solver in configurations()
        .into_iter()
        .chain(provenance_configurations())
    {
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&base).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&base, &scratch));
        assert!(!resumed.contains("Edge", &[Value::from(2), Value::from(3)]));
        assert!(!resumed.contains("Path", &[Value::from(2), Value::from(3)]));
        assert!(!resumed.contains("Path", &[Value::from(1), Value::from(3)]));
    }
}

#[test]
fn cancelled_ops_ride_along_with_surviving_insertions() {
    // A cancelled insert/retract pair mixed with a real insertion: only
    // the net addition may seed the warm monotone path.
    let base = paths_program(&[(1, 2)]);
    let scratch_program = paths_program(&[(1, 2), (2, 5)]);
    let delta = Delta::new()
        .insert("Edge", vec![Value::from(2), Value::from(3)])
        .insert("Edge", vec![Value::from(2), Value::from(5)])
        .retract("Edge", vec![Value::from(2), Value::from(3)]);
    for solver in configurations()
        .into_iter()
        .chain(provenance_configurations())
    {
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert!(resumed.contains("Path", &[Value::from(1), Value::from(5)]));
        assert!(!resumed.contains("Path", &[Value::from(1), Value::from(3)]));
    }
}

#[test]
fn raise_then_lower_in_one_delta_is_a_net_noop() {
    // The lattice mirror of the cancelled pair: a Raise withdrawn by a
    // Lower of the same contribution within one delta must not leave a
    // stale upper bound (or any cell at all) behind.
    let base = shortest_paths_program(&[(0, 1, 4)]);
    let raise = (vec![Value::from(5)], MinCost::finite(1).to_value());
    let delta = Delta::new()
        .raise("Dist", raise.0.clone(), raise.1.clone())
        .lower("Dist", raise.0.clone(), raise.1.clone());
    for solver in configurations()
        .into_iter()
        .chain(provenance_configurations())
    {
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&base).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&base, &scratch));
        // The never-materialized cell reads as bottom (absent ≡ ⊥) and
        // stays out of the model dump.
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(5)]),
            Some(MinCost::INFINITY.to_value())
        );
        assert!(
            !dump(&base, &resumed)
                .iter()
                .any(|line| line.starts_with("Dist(5")),
            "the cancelled raise must not materialize a cell"
        );
    }
}

#[test]
fn lattice_lower_resettles_at_the_lub_of_survivors() {
    // Dist(2) = 7 via 0→1→2; the direct Edge(0, 2, 9) is dominated.
    // Retracting Edge(1, 2, 3) removes the justification for 7, and the
    // cell must re-settle at 9 — the lub of what remains — not vanish
    // and not stay at the stale 7.
    let base = shortest_paths_program(&[(0, 1, 4), (1, 2, 3), (0, 2, 9), (2, 3, 1)]);
    let scratch_program = shortest_paths_program(&[(0, 1, 4), (0, 2, 9), (2, 3, 1)]);
    let delta = Delta::new().retract("Edge", vec![Value::from(1), Value::from(2), Value::from(3)]);
    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert_eq!(
            prior.lattice_value("Dist", &[Value::from(2)]),
            Some(MinCost::finite(7).to_value())
        );
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(2)]),
            Some(MinCost::finite(9).to_value())
        );
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(3)]),
            Some(MinCost::finite(10).to_value())
        );
    }
}

#[test]
fn lowering_an_asserted_cell_withdraws_its_contribution() {
    // The base asserts Dist(5) = finite(2) directly (no edge reaches
    // node 5). Lowering exactly that contribution must make the cell
    // disappear; lowering a contribution that was never asserted is a
    // no-op.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("edge weight") as u64;
        d.add_weight(c).to_value()
    });
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    b.fact(dist, vec![Value::from(5), MinCost::finite(2).to_value()]);
    b.fact(edge, vec![Value::from(0), Value::from(1), Value::from(4)]);
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
    let base = b.build().expect("valid program");

    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert_eq!(
            prior.lattice_value("Dist", &[Value::from(5)]),
            Some(MinCost::finite(2).to_value())
        );
        let lower = Delta::new().lower("Dist", vec![Value::from(5)], MinCost::finite(2).to_value());
        let resumed = solver.resume(&base, &prior, &lower).expect("resumes");
        // The cell is gone from the database; reading it yields the
        // lattice bottom (absent ≡ ⊥), and the unified fact view no
        // longer lists it.
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(5)]),
            Some(MinCost::INFINITY.to_value())
        );
        assert!(
            !dump(&base, &resumed)
                .iter()
                .any(|line| line.starts_with("Dist(5")),
            "the lowered cell must drop out of the model"
        );
        assert_eq!(
            resumed.lattice_value("Dist", &[Value::from(1)]),
            Some(MinCost::finite(4).to_value()),
            "untouched cells survive the lower"
        );
        // Lowering a never-asserted contribution changes nothing.
        let noop = Delta::new().lower("Dist", vec![Value::from(1)], MinCost::finite(4).to_value());
        let unchanged = solver.resume(&base, &resumed, &noop).expect("resumes");
        assert_eq!(dump(&base, &unchanged), dump(&base, &resumed));
    }
}

#[test]
fn retraction_into_a_negated_cone_falls_back_to_scratch() {
    // C(x) :- A(x), not B(x): retracting a B fact must *create* C facts,
    // which the over-delete/re-derive pass cannot express (the event log
    // only witnesses positive premises) — resume must detect the negated
    // cone, fall back to a scratch solve of the updated store, and still
    // match it exactly.
    fn build(a_facts: &[i64], b_facts: &[i64]) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.relation("A", 1);
        let bb = b.relation("B", 1);
        let c = b.relation("C", 1);
        for x in a_facts {
            b.fact(a, vec![Value::from(*x)]);
        }
        for x in b_facts {
            b.fact(bb, vec![Value::from(*x)]);
        }
        b.rule(
            Head::new(c, [HeadTerm::var("x")]),
            [
                BodyItem::atom(a, [Term::var("x")]),
                BodyItem::not(bb, [Term::var("x")]),
            ],
        );
        b.build().expect("valid program")
    }
    let base = build(&[1, 2], &[1, 2]);
    let scratch_program = build(&[1, 2], &[2]);
    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        assert!(!prior.contains("C", &[Value::from(1)]));
        let delta = Delta::new().retract("B", vec![Value::from(1)]);
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let scratch = solver.solve(&scratch_program).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&scratch_program, &scratch));
        assert!(
            resumed.contains("C", &[Value::from(1)]),
            "C(1) must appear once B(1) is retracted"
        );
    }
}

#[test]
fn retracting_a_derived_only_fact_is_a_noop() {
    // Path(1, 3) is derived, never asserted; delta ops are set
    // operations on the extensional store, so retracting it changes
    // nothing — the derivation still stands.
    let base = paths_program(&[(1, 2), (2, 3)]);
    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        let delta = Delta::new().retract("Path", vec![Value::from(1), Value::from(3)]);
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        assert_eq!(dump(&base, &resumed), dump(&base, &prior));
        assert!(resumed.contains("Path", &[Value::from(1), Value::from(3)]));
    }
}

#[test]
fn retract_then_reinsert_in_one_delta_cancels() {
    let base = paths_program(&[(1, 2), (2, 3)]);
    for solver in provenance_configurations() {
        let prior = solver.solve(&base).expect("solves");
        let delta = Delta::new()
            .retract("Edge", vec![Value::from(1), Value::from(2)])
            .insert("Edge", vec![Value::from(1), Value::from(2)]);
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        assert_eq!(dump(&base, &resumed), dump(&base, &prior));
        // The ops cancelled: nothing was effectively removed, and the
        // reinserted fact was already absorbed, so no re-derivation ran.
        assert_eq!(resumed.stats().facts_inserted, 0);
    }
}

#[test]
fn chained_mixed_resumes_match_scratch() {
    // Inserts, retracts, raises, and lowers chained through five
    // resumes, each checked against a scratch solve of the same store.
    let base = shortest_paths_program(&[(0, 1, 4), (1, 2, 3), (0, 2, 9)]);
    for solver in provenance_configurations() {
        let mut current = solver.solve(&base).expect("solves");

        // Step 1: insert an edge extending the graph.
        let d1 = Delta::new().insert("Edge", vec![Value::from(2), Value::from(3), Value::from(1)]);
        current = solver.resume(&base, &current, &d1).expect("resumes");
        let s1 = shortest_paths_program(&[(0, 1, 4), (1, 2, 3), (0, 2, 9), (2, 3, 1)]);
        let scratch = solver.solve(&s1).expect("solves");
        assert_eq!(dump(&base, &current), dump(&s1, &scratch));

        // Step 2: retract the cheap middle edge inserted before step 1.
        let d2 = Delta::new().retract("Edge", vec![Value::from(1), Value::from(2), Value::from(3)]);
        current = solver.resume(&base, &current, &d2).expect("resumes");
        let s2 = shortest_paths_program(&[(0, 1, 4), (0, 2, 9), (2, 3, 1)]);
        let scratch = solver.solve(&s2).expect("solves");
        assert_eq!(dump(&base, &current), dump(&s2, &scratch));
        assert_eq!(
            current.lattice_value("Dist", &[Value::from(2)]),
            Some(MinCost::finite(9).to_value())
        );

        // Step 3: raise Dist(3) directly, as if a better out-of-band
        // route appeared.
        let d3 = Delta::new().raise("Dist", vec![Value::from(3)], MinCost::finite(5).to_value());
        current = solver.resume(&base, &current, &d3).expect("resumes");
        assert_eq!(
            current.lattice_value("Dist", &[Value::from(3)]),
            Some(MinCost::finite(5).to_value())
        );

        // Step 4: lower it again — the cell re-settles at the derived 10.
        let d4 = Delta::new().lower("Dist", vec![Value::from(3)], MinCost::finite(5).to_value());
        current = solver.resume(&base, &current, &d4).expect("resumes");
        let scratch = solver.solve(&s2).expect("solves");
        assert_eq!(dump(&base, &current), dump(&s2, &scratch));
        assert_eq!(
            current.lattice_value("Dist", &[Value::from(3)]),
            Some(MinCost::finite(10).to_value())
        );

        // Step 5: re-insert the retracted edge; back to the step-1 model.
        let d5 = Delta::new().insert("Edge", vec![Value::from(1), Value::from(2), Value::from(3)]);
        current = solver.resume(&base, &current, &d5).expect("resumes");
        let scratch = solver.solve(&s1).expect("solves");
        assert_eq!(dump(&base, &current), dump(&s1, &scratch));
    }
}

#[test]
fn delta_op_builder_and_wrappers_agree() {
    use flix_core::DeltaOp;
    // The thin wrappers produce exactly the ops the explicit builder
    // does, and is_empty accounts for every op kind.
    let via_wrappers = Delta::new()
        .insert("Edge", vec![Value::from(1), Value::from(2)])
        .retract("Edge", vec![Value::from(2), Value::from(3)])
        .raise("Dist", vec![Value::from(0)], Value::from(0))
        .lower("Dist", vec![Value::from(1)], Value::from(5));
    let via_ops = Delta::new()
        .op(DeltaOp::Insert {
            predicate: "Edge".to_string(),
            tuple: vec![Value::from(1), Value::from(2)],
        })
        .op(DeltaOp::Retract {
            predicate: "Edge".to_string(),
            tuple: vec![Value::from(2), Value::from(3)],
        })
        .op(DeltaOp::Raise {
            predicate: "Dist".to_string(),
            key: vec![Value::from(0)],
            element: Value::from(0),
        })
        .op(DeltaOp::Lower {
            predicate: "Dist".to_string(),
            key: vec![Value::from(1)],
            element: Value::from(5),
        });
    assert_eq!(via_wrappers, via_ops);
    assert_eq!(via_wrappers.len(), 4);
    assert!(!via_wrappers.is_empty());
    for op in via_wrappers.ops() {
        let single = Delta::new().op(op.clone());
        assert!(!single.is_empty(), "{op:?} must make the delta non-empty");
    }
    assert!(Delta::new().is_empty());
}

/// Two facts asserted into one cell of a non-total lattice: a scratch
/// solve and a resume of the same store must write the same event log.
/// Every database change is logged with the state the cell *reached* —
/// `Cst(1)`, then `Cst(2)` joining it to `⊤` — whichever entry point
/// asserted it.
#[test]
fn fact_events_carry_the_joined_cell_on_every_entry_point() {
    use flix_core::provenance::{Event, Source};
    use flix_lattice::Constant;

    let program_with = |values: &[i64]| {
        let mut b = ProgramBuilder::new();
        let val = b.lattice("Val", 2, LatticeOps::of::<Constant>());
        for v in values {
            b.fact(val, vec![Value::from("x"), Constant::cst(*v).to_value()]);
        }
        b.build().expect("valid program")
    };
    let solver = Solver::new().record_provenance(true);
    let fact_tuples = |solution: &Solution| -> Vec<Vec<Value>> {
        let log: &[Event] = solution.provenance().expect("recorded");
        assert!(log.iter().all(|e| e.source == Source::Fact));
        log.iter().map(|e| e.tuple.clone()).collect()
    };
    let expected = vec![
        vec![Value::from("x"), Constant::cst(1).to_value()],
        vec![Value::from("x"), Constant::top_const().to_value()],
    ];

    let scratch = solver.solve(&program_with(&[1, 2])).expect("solves");
    assert_eq!(fact_tuples(&scratch), expected, "scratch solve");

    let one = program_with(&[1]);
    let prior = solver.solve(&one).expect("solves");
    let second = Delta::new().raise("Val", vec![Value::from("x")], Constant::cst(2).to_value());
    let resumed = solver.resume(&one, &prior, &second).expect("resumes");
    assert_eq!(fact_tuples(&resumed), expected, "monotone resume");
    assert_eq!(dump(&one, &resumed), dump(&program_with(&[1, 2]), &scratch));
}

// ---------------------------------------------------------------------
// Head-bound re-derivation: the rule shapes it is compiled from, and its
// cost (DESIGN §16).
// ---------------------------------------------------------------------

use flix_core::model::{is_locally_minimal, is_model};

/// The provenance-recording configurations, plus one without indexes:
/// a head-bound plan then scans where it would have built an index.
fn retraction_configurations() -> Vec<Solver> {
    let mut all = provenance_configurations();
    all.push(Solver::new().use_indexes(false).record_provenance(true));
    all
}

/// Resumes `base`'s model with `delta` under every retraction
/// configuration and holds the result against a scratch solve of the
/// updated program and against the definition of its least model.
/// Returns the last resumed solution.
fn assert_retraction_is_exact(base: &Program, delta: &Delta) -> Solution {
    let updated = base.with_delta(delta).expect("the delta fits");
    let mut last = None;
    for solver in retraction_configurations() {
        let prior = solver.solve(base).expect("solves");
        let resumed = solver.resume(base, &prior, delta).expect("resumes");
        let scratch = solver.solve(&updated).expect("solves");
        assert_eq!(dump(base, &resumed), dump(&updated, &scratch));
        assert!(is_model(&updated, &resumed), "a model");
        assert!(is_locally_minimal(&updated, &resumed), "minimal");
        assert!(resumed.stats().strata > 0, "the cone reached a rule head");
        last = Some(resumed);
    }
    last.expect("there are configurations")
}

#[test]
fn retraction_under_non_linear_recursion_matches_scratch() {
    // Path(x, z) :- Path(x, y), Path(y, z): both body atoms are the head
    // predicate, so a deleted Path(x, z) is looked for through every
    // midpoint y the survivors still offer.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for (x, y) in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 2), (6, 1)] {
        b.fact(edge, vec![Value::from(x), Value::from(y)]);
    }
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(path, [Term::var("y"), Term::var("z")]),
        ],
    );
    let base = b.build().expect("valid program");
    let delta = Delta::new().retract("Edge", vec![Value::from(2), Value::from(3)]);
    let resumed = assert_retraction_is_exact(&base, &delta);
    // 2 no longer reaches anything; 1 still reaches 3 and on, directly.
    assert!(!resumed.contains("Path", &[Value::from(2), Value::from(4)]));
    assert!(resumed.contains("Path", &[Value::from(6), Value::from(5)]));
    assert!(resumed.contains("Path", &[Value::from(5), Value::from(2)]));
}

#[test]
fn retraction_with_literal_head_keys_rederives_only_the_matching_rule() {
    // Two rules derive into Tag under different literal first columns,
    // and Cost's only key column is a literal: its head-bound plan has
    // nothing to bind and runs once if the cell was deleted at all.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let root = b.relation("Root", 1);
    let leaf = b.relation("Leaf", 1);
    let tag = b.relation("Tag", 2);
    let cost = b.lattice("Cost", 2, LatticeOps::of::<MinCost>());
    let of_weight = b.function("of_weight", |args| {
        MinCost::finite(args[0].as_int().expect("weight") as u64).to_value()
    });
    for (x, y, w) in [(1, 10, 4), (1, 11, 2), (2, 11, 6), (2, 12, 9), (3, 10, 1)] {
        b.fact(edge, vec![x.into(), y.into(), w.into()]);
    }
    for r in [1, 2] {
        b.fact(root, vec![r.into()]);
    }
    for l in [10, 12] {
        b.fact(leaf, vec![l.into()]);
    }
    b.rule(
        Head::new(tag, [HeadTerm::lit("src"), HeadTerm::var("y")]),
        [
            BodyItem::atom(root, [Term::var("x")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::Wildcard]),
        ],
    );
    b.rule(
        Head::new(tag, [HeadTerm::lit("dst"), HeadTerm::var("x")]),
        [
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::Wildcard]),
            BodyItem::atom(leaf, [Term::var("y")]),
        ],
    );
    // Cost("min", w) :- Tag("src", y), Edge(_, y, w): the cheapest edge
    // into anything a root points at.
    b.rule(
        Head::new(
            cost,
            [
                HeadTerm::lit("min"),
                HeadTerm::app(of_weight, [Term::var("w")]),
            ],
        ),
        [
            BodyItem::atom(tag, [Term::lit("src"), Term::var("y")]),
            BodyItem::atom(edge, [Term::Wildcard, Term::var("y"), Term::var("w")]),
        ],
    );
    let base = b.build().expect("valid program");
    assert_eq!(
        Solver::new()
            .solve(&base)
            .expect("solves")
            .lattice_value("Cost", &["min".into()]),
        Some(MinCost::finite(1).to_value())
    );
    // Without root 1 nothing points at 10, whose edge from 3 was the
    // cheapest; 11 stays tagged through root 2.
    let delta = Delta::new().retract("Root", vec![Value::from(1)]);
    let resumed = assert_retraction_is_exact(&base, &delta);
    assert!(!resumed.contains("Tag", &["src".into(), 10.into()]));
    assert!(resumed.contains("Tag", &["src".into(), 11.into()]));
    assert!(resumed.contains("Tag", &["dst".into(), 1.into()]));
    assert_eq!(
        resumed.lattice_value("Cost", &["min".into()]),
        Some(MinCost::finite(2).to_value())
    );
}

#[test]
fn a_cell_rederived_at_another_value_reaches_the_stratum_above_as_a_change() {
    // Level(c, y) :- Dist(y, d), Band(d, c), !Blocked(y) reads the settled
    // cost into a relational join one stratum up (the negation, which the
    // delta does not reach, puts it there). Retracting the short route
    // leaves Dist(2) re-derived at 9, not 7: Level("near", 2) is deleted,
    // but what replaces it is Level("far", 2) — a key no deleted fact has,
    // so no head-bound plan looks for it. It is derived because the
    // stratum also starts from the changes of the stratum below.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let band = b.relation("Band", 2);
    let blocked = b.relation("Blocked", 1);
    let level = b.relation("Level", 2);
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        d.add_weight(args[1].as_int().expect("weight") as u64)
            .to_value()
    });
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    b.fact(blocked, vec![Value::from(0)]);
    for (x, y, w) in [(0, 1, 4), (1, 2, 3), (0, 2, 9), (2, 3, 1)] {
        b.fact(edge, vec![x.into(), y.into(), w.into()]);
    }
    for cost in 0..12u64 {
        let name = if cost < 8 { "near" } else { "far" };
        b.fact(band, vec![MinCost::finite(cost).to_value(), name.into()]);
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
    b.rule(
        Head::new(level, [HeadTerm::var("c"), HeadTerm::var("y")]),
        [
            BodyItem::atom(dist, [Term::var("y"), Term::var("d")]),
            BodyItem::atom(band, [Term::var("d"), Term::var("c")]),
            BodyItem::not(blocked, [Term::var("y")]),
        ],
    );
    let base = b.build().expect("valid program");
    let delta = Delta::new().retract("Edge", vec![1.into(), 2.into(), 3.into()]);
    let resumed = assert_retraction_is_exact(&base, &delta);
    assert_eq!(resumed.stats().strata, 2, "Dist's, then Level's");
    assert!(resumed.contains("Level", &["far".into(), 2.into()]));
    assert!(!resumed.contains("Level", &["near".into(), 2.into()]));
    assert!(resumed.contains("Level", &["near".into(), 1.into()]));
    assert!(!resumed.contains("Level", &["near".into(), 0.into()]));
}

#[test]
fn lowering_one_of_two_assertions_of_a_cell_restores_the_other() {
    // Dist(2) is asserted at 3 and at 5 and derived at 7. Lowering the 3
    // deletes the cell whole; the store still asserts 5, which is put
    // back before anything is re-derived — the surviving assertion of a
    // deleted cell is not in the database for a rule to find.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        d.add_weight(args[1].as_int().expect("weight") as u64)
            .to_value()
    });
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    b.fact(dist, vec![Value::from(2), MinCost::finite(3).to_value()]);
    b.fact(dist, vec![Value::from(2), MinCost::finite(5).to_value()]);
    for (x, y, w) in [(0, 1, 4), (1, 2, 3), (2, 3, 1)] {
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
    let base = b.build().expect("valid program");
    let delta = Delta::new().lower("Dist", vec![Value::from(2)], MinCost::finite(3).to_value());
    let resumed = assert_retraction_is_exact(&base, &delta);
    assert_eq!(
        resumed.lattice_value("Dist", &[Value::from(2)]),
        Some(MinCost::finite(5).to_value())
    );
    assert_eq!(
        resumed.lattice_value("Dist", &[Value::from(3)]),
        Some(MinCost::finite(6).to_value())
    );
}

#[test]
fn budget_exhausted_inside_the_head_bound_round_returns_a_partial_below_scratch() {
    use flix_core::CancelToken;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // A chain with a dear way round its first edge: retracting that edge
    // deletes every cell past node 0. The head-bound round re-derives
    // Dist(1) first — calling `extend`, which flips the token — and then
    // looks at a thousand more deleted cells, long enough for the
    // evaluation's own poll to notice.
    let n = 1000i64;
    let token = CancelToken::new();
    let armed = Arc::new(AtomicBool::new(false));
    let build = |edges: &[(i64, i64, i64)]| {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 3);
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        let (token, armed) = (token.clone(), armed.clone());
        let extend = b.function("extend", move |args| {
            if armed.load(Ordering::SeqCst) {
                token.cancel();
            }
            let d = MinCost::expect_from(&args[0]);
            d.add_weight(args[1].as_int().expect("weight") as u64)
                .to_value()
        });
        b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
        for &(x, y, w) in edges {
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
        b.build().expect("valid program")
    };
    let mut edges: Vec<(i64, i64, i64)> = (0..n).map(|i| (i, i + 1, 10)).collect();
    edges.push((0, 1, 100));
    let base = build(&edges);
    let scratch = Solver::new().solve(&build(&edges[1..])).expect("solves");
    let prior = Solver::new()
        .record_provenance(true)
        .solve(&base)
        .expect("solves");

    let guarded = Solver::new()
        .record_provenance(true)
        .budget(Budget::new().cancel_token(token.clone()));
    let delta = Delta::new().retract("Edge", vec![0.into(), 1.into(), 10.into()]);
    armed.store(true, Ordering::SeqCst);
    let failure = guarded
        .resume(&base, &prior, &delta)
        .expect_err("cancelled");
    armed.store(false, Ordering::SeqCst);
    assert!(
        matches!(&failure.error, SolveError::BudgetExceeded { .. }),
        "{:?}",
        failure.error
    );
    assert_eq!(failure.stats.rounds, 1, "stopped in the first round");
    assert_eq!(failure.stats.facts_inserted, 0, "which absorbed nothing");

    // Sound, not complete: every cell the partial holds is at or below
    // the least model's, every row is in it, and the retracted edge and
    // the cells that hung on it are gone.
    let partial = &failure.partial;
    assert!(partial.total_facts() < scratch.total_facts());
    for fact in partial.facts("Dist").expect("lattice") {
        let (key, value) = (fact.key(), fact.value().expect("a cell"));
        let settled = scratch.lattice_value("Dist", key).expect("declared");
        let ops = LatticeOps::of::<MinCost>();
        assert!(ops.leq(value, &settled), "Dist({key:?}) = {value}");
    }
    for fact in partial.facts("Edge").expect("relation") {
        assert!(scratch.contains("Edge", fact.key()));
    }
    assert_eq!(partial.len("Dist"), Some(1), "only the source survived");
}

/// All-pairs shortest paths over `edges`; every node in `0..nodes` is a
/// source.
fn all_pairs_program(nodes: i64, edges: &[(i64, i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 3, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        d.add_weight(args[1].as_int().expect("weight") as u64)
            .to_value()
    });
    for &(x, y, w) in edges {
        b.fact(edge, vec![x.into(), y.into(), w.into()]);
    }
    for v in 0..nodes {
        b.fact(
            dist,
            vec![v.into(), v.into(), MinCost::finite(0).to_value()],
        );
    }
    b.rule(
        Head::new(
            dist,
            [
                HeadTerm::var("s"),
                HeadTerm::var("y"),
                HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
            ],
        ),
        [
            BodyItem::atom(dist, [Term::var("s"), Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );
    b.build().expect("valid program")
}

/// A ring over `nodes` nodes starting at `first`, with chords.
fn ring(first: i64, nodes: i64) -> Vec<(i64, i64, i64)> {
    let at = |i: i64| first + i % nodes;
    let mut edges: Vec<(i64, i64, i64)> = (0..nodes).map(|i| (at(i), at(i + 1), 3)).collect();
    edges.extend((0..nodes).step_by(3).map(|i| (at(i), at(i + 4), 5)));
    edges
}

#[test]
fn a_retraction_costs_its_cone_whatever_else_the_model_holds() {
    // The same edge leaves the same 8-node graph twice: alone, and next
    // to an 80-node component nothing connects it to, whose 6 400 cells
    // make the model 88 times the size. Everything the resume counts
    // is equal: no step of it reads a fact outside the cone's reach.
    let small = ring(0, 8);
    let mut large = small.clone();
    large.extend(ring(8, 80));
    let delta = Delta::new().retract("Edge", vec![2.into(), 3.into(), 3.into()]);
    let solver = Solver::new().record_provenance(true);
    let work = |nodes: i64, edges: &[(i64, i64, i64)]| {
        let base = all_pairs_program(nodes, edges);
        let prior = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
        let updated = base.with_delta(&delta).expect("fits");
        let scratch = solver.solve(&updated).expect("solves");
        assert_eq!(dump(&base, &resumed), dump(&updated, &scratch));
        let stats = resumed.stats();
        assert!(stats.facts_inserted > 0, "a cone with cells to restore");
        let counted = [
            stats.facts_derived,
            stats.index_probes,
            stats.scan_fallbacks,
            stats.rule_evaluations,
            stats.facts_inserted,
            stats.rounds,
        ];
        (prior.total_facts(), counted)
    };
    let (small_facts, small_work) = work(8, &small);
    let (large_facts, large_work) = work(88, &large);
    assert!(large_facts > 50 * small_facts);
    assert_eq!(small_work, large_work);
}

#[test]
fn retracting_an_edge_no_derivation_used_runs_no_stratum() {
    // The dear parallel edge comes second: whatever it derives, the cheap
    // one derived better just before, so no logged derivation names it
    // and its cone is the edge alone.
    let mut edges = ring(0, 8);
    edges.push((2, 3, 50));
    let base = all_pairs_program(8, &edges);
    let solver = Solver::new().record_provenance(true);
    let prior = solver.solve(&base).expect("solves");
    let delta = Delta::new().retract("Edge", vec![2.into(), 3.into(), 50.into()]);
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
    assert_eq!(resumed.stats().strata, 0);
    assert_eq!(resumed.stats().rounds, 0);
    assert_eq!(resumed.stats().facts_inserted, 0);
    assert!(!resumed.contains("Edge", &[2.into(), 3.into(), 50.into()]));
    let updated = base.with_delta(&delta).expect("fits");
    let scratch = solver.solve(&updated).expect("solves");
    assert_eq!(dump(&base, &resumed), dump(&updated, &scratch));
}

/// Constant propagation over a flow graph, in the flat `Constant` lattice
/// — whose cells are words — with a word-form head application:
/// `Val(n, x, cst(c)) :- Assign(n, x, c)` and
/// `Val(m, x, v) :- Flow(n, m), Val(n, x, v), !Kill(m, x)`. Node 0 sets
/// `x = 1`, node 1 sets `x = 2`; both reach node 3, where they meet at ⊤
/// while both paths stand.
fn constant_program() -> Program {
    use flix_core::WordType;
    use flix_lattice::Constant;
    let consts = LatticeOps::of::<Constant>();
    let elem = WordType::Elem(consts.kind().expect("Constant is flat").clone());
    let mut b = ProgramBuilder::new();
    let flow = b.relation("Flow", 2);
    let assign = b.relation("Assign", 3);
    let kill = b.relation("Kill", 2);
    let val = b.lattice("Val", 3, consts);
    let cst = b.function("cst", |args| {
        Constant::cst(args[0].as_int().expect("int")).to_value()
    });
    b.word_form(cst, [WordType::Slot], elem, |words| words[0]);
    for (n, m) in [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)] {
        b.fact(flow, vec![Value::from(n), Value::from(m)]);
    }
    for (n, c) in [(0, 1), (1, 2)] {
        b.fact(
            assign,
            vec![Value::from(n), Value::from("x"), Value::from(c)],
        );
        b.fact(kill, vec![Value::from(n), Value::from("x")]);
    }
    let v = Term::var;
    b.rule(
        Head::new(
            val,
            [
                HeadTerm::var("n"),
                HeadTerm::var("x"),
                HeadTerm::app(cst, [v("c")]),
            ],
        ),
        [BodyItem::atom(assign, [v("n"), v("x"), v("c")])],
    );
    b.rule(
        Head::new(
            val,
            [HeadTerm::var("m"), HeadTerm::var("x"), HeadTerm::var("v")],
        ),
        [
            BodyItem::atom(flow, [v("n"), v("m")]),
            BodyItem::atom(val, [v("n"), v("x"), v("v")]),
            BodyItem::not(kill, [v("m"), v("x")]),
        ],
    );
    b.build().expect("valid program")
}

#[test]
fn insert_retract_insert_on_a_word_lattice_matches_scratch() {
    use flix_lattice::Constant;
    let base = constant_program();
    let edge = |n: i64, m: i64| vec![Value::from(n), Value::from(m)];
    let at = |solution: &Solution, n: i64| {
        solution.lattice_value("Val", &[Value::from(n), Value::from("x")])
    };
    // The new edge brings 2 to node 5 past node 4 as well; the retraction
    // leaves node 3 to node 1's 2 alone; the re-insertion meets it again.
    let steps = [
        Delta::new().insert("Flow", edge(1, 5)),
        Delta::new().retract("Flow", edge(2, 3)),
        Delta::new().insert("Flow", edge(2, 3)),
    ];
    let cells_at_3 = [
        Constant::top_const(),
        Constant::cst(2),
        Constant::top_const(),
    ];
    for solver in retraction_configurations() {
        let mut current = solver.solve(&base).expect("solves");
        assert_eq!(at(&current, 5), Some(Constant::top_const().to_value()));
        let mut store = base.with_delta(&Delta::new()).expect("fits");
        for (delta, cell) in steps.iter().zip(&cells_at_3) {
            current = solver.resume(&base, &current, delta).expect("resumes");
            store = store.with_delta(delta).expect("the delta fits");
            let scratch = solver.solve(&store).expect("solves");
            assert_eq!(dump(&base, &current), dump(&store, &scratch));
            assert!(is_model(&store, &current), "a model");
            assert!(is_locally_minimal(&store, &current), "minimal");
            assert_eq!(at(&current, 3), Some(cell.to_value()));
        }
    }
}
