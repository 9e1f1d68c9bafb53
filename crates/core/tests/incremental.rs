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
