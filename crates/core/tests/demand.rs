//! Integration tests for the demand subsystem (`flix_core::demand`):
//! query-directed solves must fall back soundly through stratified
//! negation, compose with the incremental engine (query after delta),
//! degrade to a partial model ⊑ the full model on budget exhaustion,
//! reject malformed queries up front, and keep the rewrite invisible in
//! stats, profiles, and provenance.

use flix_core::{
    BodyItem, Budget, Delta, DemandError, Head, HeadTerm, LatticeOps, Program, ProgramBuilder,
    Query, SolveError, Solver, Term, Value, ValueLattice,
};
use flix_lattice::MinCost;

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

/// A chain 0 → 1 → ... → n-1 plus the given extra edges.
fn chain(n: i64, extra: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut edges: Vec<(i64, i64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.extend_from_slice(extra);
    edges
}

/// Edge/Path/Node/Unreachable: `Unreachable(x, y)` holds for node pairs
/// with *no* path, via stratified negation over the full `Path` relation.
fn negation_program(nodes: &[i64], edges: &[(i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    let node = b.relation("Node", 1);
    let unreachable = b.relation("Unreachable", 2);
    for n in nodes {
        b.fact(node, vec![Value::from(*n)]);
    }
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
    b.rule(
        Head::new(unreachable, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [
            BodyItem::atom(node, [Term::var("x")]),
            BodyItem::atom(node, [Term::var("y")]),
            BodyItem::not(path, [Term::var("x"), Term::var("y")]),
        ],
    );
    b.build().expect("valid stratified program")
}

/// Single-source shortest paths (§4.4): Edge(x, y, w) and a
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

/// The sorted answers of query `idx`, rendered.
fn answer_lines(result: &flix_core::QueryResult, idx: usize) -> Vec<String> {
    let mut lines: Vec<String> = result.answers(idx).map(|f| f.to_string()).collect();
    lines.sort();
    lines
}

// ---------------------------------------------------------------------
// Negation fallback.
// ---------------------------------------------------------------------

#[test]
fn demand_through_negation_falls_back_to_full_evaluation() {
    let nodes: Vec<i64> = (0..6).collect();
    let program = negation_program(&nodes, &[(0, 1), (1, 2), (4, 5)]);
    let query = Query::new("Unreachable", vec![Some(Value::from(0)), None]);
    let result = Solver::new()
        .solve_query(&program, std::slice::from_ref(&query))
        .expect("query solves");

    // The negated dependency was evaluated in full; the queried
    // predicate stayed guarded.
    assert!(result.full_predicates().any(|p| p == "Path"));
    assert!(result.demanded_predicates().any(|p| p == "Unreachable"));
    assert!(!result.used_fallback());

    // Answers are exactly the full model's matching tuples: nodes 3, 4,
    // and 5 are unreachable from 0 (and 0 cannot reach itself).
    let full = Solver::new().solve(&program).expect("full solve");
    let mut reference: Vec<String> = full
        .facts("Unreachable")
        .expect("declared")
        .filter(|f| query.matches(f))
        .map(|f| f.to_string())
        .collect();
    reference.sort();
    assert_eq!(answer_lines(&result, 0), reference);
    assert!(result
        .solution()
        .contains("Unreachable", &[0.into(), 3.into()]));
    assert!(!result
        .solution()
        .contains("Unreachable", &[0.into(), 2.into()]));
}

#[test]
fn negation_fallback_still_restricts_the_guarded_predicate() {
    let nodes: Vec<i64> = (0..6).collect();
    let program = negation_program(&nodes, &[(0, 1), (1, 2), (4, 5)]);
    let result = Solver::new()
        .solve_query(
            &program,
            &[Query::new("Unreachable", vec![Some(Value::from(0)), None])],
        )
        .expect("query solves");
    let full = Solver::new().solve(&program).expect("full solve");
    // Path fell back to full evaluation, but Unreachable itself only
    // materialized the demanded slice (first column = 0).
    assert_eq!(result.solution().len("Path"), full.len("Path"));
    assert!(
        result.solution().len("Unreachable").expect("declared")
            < full.len("Unreachable").expect("declared")
    );
}

// ---------------------------------------------------------------------
// Composition with the incremental engine: query after delta.
// ---------------------------------------------------------------------

#[test]
fn query_after_delta_matches_resumed_model() {
    let base = paths_program(&chain(8, &[]));
    let solver = Solver::new();
    let prior = solver.solve(&base).expect("base solves");

    // A new edge 7 → 0 closes the chain into a cycle.
    let delta = Delta::new().insert("Edge", vec![Value::from(7), Value::from(0)]);
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");

    // The demand route: fold the delta into the program and point-query
    // the updated world, never materializing the full updated model.
    let updated = base.with_delta(&delta).expect("delta fits");
    let query = Query::new("Path", vec![Some(Value::from(5)), None]);
    let result = solver
        .solve_query(&updated, std::slice::from_ref(&query))
        .expect("query solves");

    let mut reference: Vec<String> = resumed
        .facts("Path")
        .expect("declared")
        .filter(|f| query.matches(f))
        .map(|f| f.to_string())
        .collect();
    reference.sort();
    assert_eq!(answer_lines(&result, 0), reference);
    // The cycle makes every node reachable from 5.
    assert_eq!(result.solution().len("Path"), Some(8));
}

#[test]
fn with_delta_rejects_malformed_deltas() {
    let base = paths_program(&chain(4, &[]));
    let unknown = Delta::new().insert("Nope", vec![Value::from(1)]);
    assert!(base.with_delta(&unknown).is_err());
    let wrong_arity = Delta::new().insert("Edge", vec![Value::from(1)]);
    assert!(base.with_delta(&wrong_arity).is_err());
}

// ---------------------------------------------------------------------
// Budget exhaustion mid-query.
// ---------------------------------------------------------------------

#[test]
fn budget_exhaustion_returns_partial_below_full_model() {
    let program = paths_program(&chain(40, &[(39, 0)]));
    let query = Query::new("Path", vec![Some(Value::from(0)), None]);
    let failure = Solver::new()
        .budget(Budget::new().max_derivations(25))
        .solve_query(&program, &[query])
        .expect_err("the budget must trip before the fixed point");
    assert!(matches!(failure.error, SolveError::BudgetExceeded { .. }));

    // The partial model is a sound under-approximation: every reported
    // fact is in the full model.
    let full = Solver::new().solve(&program).expect("full solve");
    let partial_paths: Vec<Vec<Value>> = failure
        .partial
        .relation("Path")
        .expect("declared")
        .map(|row| row.to_vec())
        .collect();
    assert!(
        !partial_paths.is_empty(),
        "some work happened before the trip"
    );
    assert!(partial_paths.len() < full.len("Path").expect("declared"));
    for row in &partial_paths {
        assert!(full.contains("Path", row), "spurious fact {row:?}");
    }
    // The failure stats are remapped onto the original rules.
    assert_eq!(failure.stats.per_rule.len(), program.num_rules());
    assert!(failure.stats.per_rule.iter().all(|r| !r.head.contains('$')));
}

#[test]
fn budget_exhaustion_keeps_lattice_cells_below_full_values() {
    // A long weighted cycle; a tiny derivation budget stops the ripple
    // mid-propagation. MinCost order: partial ⊑ full means every partial
    // cost is *at least* the full (optimal) cost.
    let edges: Vec<(i64, i64, i64)> = (0..30).map(|i| (i, (i + 1) % 30, 1)).collect();
    let program = shortest_paths_program(&edges);
    let query = Query::new("Dist", vec![None, None]);
    let failure = Solver::new()
        .budget(Budget::new().max_derivations(10))
        .solve_query(&program, &[query])
        .expect_err("the budget must trip before the fixed point");
    let full = Solver::new().solve(&program).expect("full solve");
    for (key, value) in failure.partial.lattice("Dist").expect("declared") {
        let partial_cost = MinCost::expect_from(value).value().expect("finite");
        let full_value = full.lattice_value("Dist", key).expect("lattice predicate");
        let full_cost = MinCost::expect_from(&full_value).value().expect("finite");
        assert!(
            partial_cost >= full_cost,
            "partial cell above full model at {key:?}: {partial_cost} < {full_cost}"
        );
    }
}

// ---------------------------------------------------------------------
// Malformed queries.
// ---------------------------------------------------------------------

#[test]
fn malformed_queries_fail_fast_with_empty_partial() {
    let program = paths_program(&chain(4, &[]));
    let failure = Solver::new()
        .solve_query(&program, &[Query::new("Nope", vec![None, None])])
        .expect_err("unknown predicate");
    assert!(matches!(
        failure.error,
        SolveError::Demand(DemandError::UnknownPredicate { .. })
    ));
    assert_eq!(failure.partial.total_facts(), 0);

    let failure = Solver::new()
        .solve_query(&program, &[Query::new("Path", vec![None, None, None])])
        .expect_err("arity mismatch");
    let SolveError::Demand(DemandError::ArityMismatch {
        predicate,
        declared,
        found,
    }) = &failure.error
    else {
        panic!("expected an arity mismatch, got {}", failure.error);
    };
    assert_eq!((predicate.as_str(), *declared, *found), ("Path", 2, 3));

    // One bad query poisons the whole batch — nothing is solved.
    let failure = Solver::new()
        .solve_query(
            &program,
            &[
                Query::new("Path", vec![Some(Value::from(0)), None]),
                Query::new("Path", vec![None]),
            ],
        )
        .expect_err("second query is malformed");
    assert!(matches!(failure.error, SolveError::Demand(_)));
    assert_eq!(failure.partial.total_facts(), 0);
}

// ---------------------------------------------------------------------
// Rewrite invisibility: profiles, provenance.
// ---------------------------------------------------------------------

#[test]
fn profile_table_groups_rewritten_variants_under_original_rules() {
    let program = paths_program(&chain(10, &[]));
    let result = Solver::new()
        .solve_query(
            &program,
            &[Query::new("Path", vec![Some(Value::from(0)), None])],
        )
        .expect("query solves");
    let table = flix_core::render_profile_table(result.stats());
    assert!(table.contains("Path"), "{table}");
    assert!(!table.contains('$'), "demand machinery leaked:\n{table}");
    // Exactly the original program's rules are listed (rule 0 and 1).
    assert_eq!(result.stats().per_rule.len(), 2);
}

#[test]
fn explain_works_through_the_rewrite() {
    let program = paths_program(&chain(5, &[]));
    let result = Solver::new()
        .record_provenance(true)
        .solve_query(
            &program,
            &[Query::new("Path", vec![Some(Value::from(0)), None])],
        )
        .expect("query solves");
    let tree = result
        .solution()
        .explain("Path", &[Value::from(0), Value::from(2)])
        .expect("demanded fact has provenance");
    let rendered = tree.to_string();
    assert!(rendered.contains("Path(0, 2)"), "{rendered}");
    assert!(
        !rendered.contains('$'),
        "demand premise leaked:\n{rendered}"
    );
    // The recursive rule of the *original* program is rule 1.
    assert!(rendered.contains("[rule 1]"), "{rendered}");
}

// ---------------------------------------------------------------------
// Demand restriction facts.
// ---------------------------------------------------------------------

#[test]
fn disjoint_subsystems_stay_unmaterialized() {
    // Two independent IDB subsystems over disjoint EDB inputs; querying
    // one must not evaluate (or even load) the other.
    let mut b = ProgramBuilder::new();
    let edge_a = b.relation("EdgeA", 2);
    let path_a = b.relation("PathA", 2);
    let edge_b = b.relation("EdgeB", 2);
    let path_b = b.relation("PathB", 2);
    for (x, y) in [(1, 2), (2, 3)] {
        b.fact(edge_a, vec![Value::from(x), Value::from(y)]);
        b.fact(edge_b, vec![Value::from(10 * x), Value::from(10 * y)]);
    }
    for (edge, path) in [(edge_a, path_a), (edge_b, path_b)] {
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
    }
    let program = b.build().expect("valid program");
    let result = Solver::new()
        .solve_query(
            &program,
            &[Query::new("PathA", vec![Some(Value::from(1)), None])],
        )
        .expect("query solves");
    assert_eq!(
        result.solution().len("PathB"),
        Some(0),
        "undemanded IDB materialized"
    );
    assert_eq!(
        result.solution().len("EdgeB"),
        Some(0),
        "irrelevant EDB loaded"
    );
    assert!(result.solution().len("PathA").expect("declared") > 0);
    // SolveStats confirm the PathB rules never ran.
    for rs in &result.stats().per_rule {
        if rs.head == "PathB" {
            assert_eq!(rs.evaluations, 0, "undemanded rule evaluated");
        }
    }
}

#[test]
fn queries_on_extensional_predicates_answer_from_facts() {
    let program = paths_program(&chain(5, &[]));
    let result = Solver::new()
        .solve_query(
            &program,
            &[Query::new("Edge", vec![Some(Value::from(2)), None])],
        )
        .expect("query solves");
    assert_eq!(answer_lines(&result, 0), vec!["2, 3".to_string()]);
    // No rules were demanded at all.
    assert_eq!(result.demanded_predicates().count(), 0);
}

#[test]
fn multiple_queries_union_their_demands() {
    let program = paths_program(&[(1, 2), (2, 3), (10, 11), (20, 21)]);
    let result = Solver::new()
        .solve_query(
            &program,
            &[
                Query::new("Path", vec![Some(Value::from(1)), None]),
                Query::new("Path", vec![Some(Value::from(10)), None]),
            ],
        )
        .expect("query solves");
    assert_eq!(answer_lines(&result, 0), vec!["1, 2", "1, 3"]);
    assert_eq!(answer_lines(&result, 1), vec!["10, 11"]);
    // The component rooted at 20 is undemanded.
    assert!(!result.solution().contains("Path", &[20.into(), 21.into()]));
}

#[test]
fn bound_lattice_value_filters_answers_without_widening_demand() {
    let edges: Vec<(i64, i64, i64)> = vec![(0, 1, 4), (1, 2, 3), (0, 2, 9)];
    let program = shortest_paths_program(&edges);
    // Binding the value column filters the answers by the cell's final
    // value; the cell itself is still demanded whole (by key).
    let hit = Query::new(
        "Dist",
        vec![Some(Value::from(2)), Some(MinCost::finite(7).to_value())],
    );
    let miss = Query::new(
        "Dist",
        vec![Some(Value::from(2)), Some(MinCost::finite(9).to_value())],
    );
    let result = Solver::new()
        .solve_query(&program, &[hit, miss])
        .expect("query solves");
    assert_eq!(result.answers(0).count(), 1);
    assert_eq!(
        result.answers(1).count(),
        0,
        "intermediate value must not match"
    );
}

#[test]
fn query_directed_solve_agrees_across_strategies_and_threads() {
    let program = paths_program(&chain(12, &[(11, 4), (7, 1)]));
    let query = Query::new("Path", vec![Some(Value::from(3)), None]);
    let reference = {
        let result = Solver::new()
            .solve_query(&program, std::slice::from_ref(&query))
            .expect("query solves");
        answer_lines(&result, 0)
    };
    for solver in [
        Solver::new().strategy(flix_core::Strategy::Naive),
        Solver::new().threads(4),
    ] {
        let result = solver
            .solve_query(&program, std::slice::from_ref(&query))
            .expect("query solves");
        assert_eq!(answer_lines(&result, 0), reference);
    }
}
