//! Tests of derivation provenance: the event log and the reconstructed
//! derivation trees.

use flix_core::provenance::{DerivationTree, Event, Source};
use flix_core::{
    BodyItem, Delta, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solution, Solver, Term,
    Value, ValueLattice,
};
use flix_lattice::{MinCost, Parity};

fn closure() -> flix_core::Program {
    let mut b = ProgramBuilder::new();
    let e = b.relation("Edge", 2);
    let p = b.relation("Path", 2);
    b.fact(e, vec![1.into(), 2.into()]);
    b.fact(e, vec![2.into(), 3.into()]);
    b.fact(e, vec![3.into(), 4.into()]);
    b.rule(
        Head::new(p, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(e, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(p, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(p, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(e, [Term::var("y"), Term::var("z")]),
        ],
    );
    b.build().expect("valid")
}

#[test]
fn provenance_is_off_by_default() {
    let solution = Solver::new().solve(&closure()).expect("solves");
    assert!(solution.provenance().is_none());
    assert!(solution.explain("Path", &[1.into(), 4.into()]).is_none());
}

#[test]
fn events_cover_every_insertion() {
    let solution = Solver::new()
        .record_provenance(true)
        .solve(&closure())
        .expect("solves");
    let events = solution.provenance().expect("recorded");
    // 3 facts + 3 one-step paths + (1,3), (2,4), (1,4) = 9 insertions.
    assert_eq!(events.len(), 9);
    assert_eq!(
        events.iter().filter(|e| e.source == Source::Fact).count(),
        3
    );
}

#[test]
fn explain_reconstructs_the_full_proof() {
    let solution = Solver::new()
        .record_provenance(true)
        .solve(&closure())
        .expect("solves");
    let tree = solution
        .explain("Path", &[1.into(), 4.into()])
        .expect("derivable");
    assert_eq!(tree.predicate, "Path");
    assert_eq!(tree.rule, Some(1), "derived by the transitive rule");
    // Path(1,4) <- Path(1,3) <- Path(1,2) <- Edge(1,2): height 4.
    assert_eq!(tree.height(), 4);
    // Leaves are facts.
    fn leaves_are_facts(t: &flix_core::provenance::DerivationTree) -> bool {
        if t.children.is_empty() {
            t.rule.is_none()
        } else {
            t.children.iter().all(leaves_are_facts)
        }
    }
    assert!(leaves_are_facts(&tree));
    // The rendering is a readable proof.
    let rendered = tree.to_string();
    assert!(rendered.contains("Path(1, 4)  [rule 1]"), "{rendered}");
    assert!(rendered.contains("[fact]"), "{rendered}");
}

#[test]
fn explain_unknown_fact_is_none() {
    let solution = Solver::new()
        .record_provenance(true)
        .solve(&closure())
        .expect("solves");
    assert!(solution.explain("Path", &[4.into(), 1.into()]).is_none());
    assert!(solution.explain("Nope", &[1.into()]).is_none());
}

#[test]
fn lattice_cells_explain_their_increases() {
    // A(x) :- B(x): A's cell rises from Even to Top when B holds Odd too.
    let mut b = ProgramBuilder::new();
    let a = b.lattice("A", 1, LatticeOps::of::<Parity>());
    let bb = b.lattice("B", 1, LatticeOps::of::<Parity>());
    b.fact(a, vec![Parity::Even.to_value()]);
    b.fact(bb, vec![Parity::Odd.to_value()]);
    b.rule(
        Head::new(a, [HeadTerm::var("x")]),
        [BodyItem::atom(bb, [Term::var("x")])],
    );
    let solution = Solver::new()
        .record_provenance(true)
        .solve(&b.build().expect("valid"))
        .expect("solves");

    // Explaining by key alone covers the last increase (to ⊤).
    let tree = solution.explain("A", &[]).expect("cell exists");
    assert_eq!(tree.tuple, vec![Parity::Top.to_value()]);
    assert_eq!(tree.rule, Some(0));
    assert_eq!(tree.children.len(), 1, "premise B");
    assert_eq!(tree.children[0].predicate, "B");

    // Explaining the earlier state (the Even fact) by full tuple.
    let earlier = solution
        .explain("A", &[Parity::Even.to_value()])
        .expect("the fact insertion was logged");
    assert_eq!(earlier.rule, None);
}

#[test]
fn provenance_with_parallel_solver() {
    let seq = Solver::new()
        .record_provenance(true)
        .solve(&closure())
        .expect("solves");
    let par = Solver::new()
        .record_provenance(true)
        .threads(4)
        .solve(&closure())
        .expect("solves");
    // Event order may differ, but both logs cover the same facts and both
    // explain the same conclusion.
    assert_eq!(
        seq.provenance().expect("recorded").len(),
        par.provenance().expect("recorded").len()
    );
    assert!(par.explain("Path", &[1.into(), 4.into()]).is_some());
}

#[test]
fn wildcard_premises_are_recorded_as_unknown() {
    let mut b = ProgramBuilder::new();
    let e = b.relation("E", 2);
    let has = b.relation("HasSucc", 1);
    b.fact(e, vec![1.into(), 2.into()]);
    b.rule(
        Head::new(has, [HeadTerm::var("x")]),
        [BodyItem::atom(e, [Term::var("x"), Term::Wildcard])],
    );
    let solution = Solver::new()
        .record_provenance(true)
        .solve(&b.build().expect("valid"))
        .expect("solves");
    let tree = solution.explain("HasSucc", &[1.into()]).expect("derived");
    // The wildcard premise still resolves to the matching Edge fact.
    assert_eq!(tree.children.len(), 1);
    assert_eq!(tree.children[0].tuple, vec![1.into(), 2.into()]);
}

/// `explain` as a scan of the flattened log defines it: a fact is
/// explained by its latest event, and each premise of an event by the
/// latest *earlier* event whose fact the premise matches — relations on
/// every column, lattice cells on their key columns. What the indexed
/// lookup in `Solution::explain` must return, whatever the log's layout.
fn explain_by_scan(
    program: &Program,
    log: &[Event],
    before: usize,
    goal: &Goal,
) -> Option<DerivationTree> {
    let at = log[..before].iter().rposition(|e| goal.matches(e))?;
    let event = &log[at];
    let (rule, premises) = match &event.source {
        Source::Fact => (None, &[][..]),
        Source::Rule { rule, premises } => (Some(*rule), premises.as_slice()),
    };
    let children = premises.iter().filter_map(|premise| {
        let mut pattern = premise.pattern.clone();
        if program.decl(premise.pred).is_lattice() {
            *pattern.last_mut().expect("a value column") = None;
        }
        explain_by_scan(program, log, at, &Goal(premise.pred, pattern))
    });
    Some(DerivationTree {
        predicate: program.decl(event.pred).name().to_string(),
        tuple: event.tuple.clone(),
        rule,
        children: children.collect(),
    })
}

/// A predicate and a tuple pattern (`None`: any value).
struct Goal(flix_core::PredId, Vec<Option<Value>>);

impl Goal {
    fn matches(&self, event: &Event) -> bool {
        let columns = self.1.iter().zip(&event.tuple);
        event.pred == self.0
            && self.1.len() == event.tuple.len()
            && columns
                .into_iter()
                .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
    }
}

/// Single-source shortest paths with a relation derived from the cells
/// and a wildcard premise, so trees mix every kind of premise lookup.
fn shortest_paths(edges: &[(i64, i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let far = b.relation("Beyond", 2);
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
        Head::new(far, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(dist, [Term::var("x"), Term::Wildcard]),
            BodyItem::atom(edge, [Term::var("x"), Term::Wildcard, Term::Wildcard]),
            BodyItem::atom(edge, [Term::Wildcard, Term::var("z"), Term::Wildcard]),
        ],
    );
    b.build().expect("valid")
}

/// Every fact of the model explains to the tree a scan of the flattened
/// log gives.
fn assert_explains_like_a_scan(label: &str, program: &Program, solution: &Solution) {
    let log = solution.provenance().expect("recorded");
    let mut explained = 0;
    for (pred, decl) in program.predicates() {
        for fact in solution.facts(decl.name()).expect("declared") {
            // By key alone, and for cells also by key and current value.
            let mut rows = vec![fact.key().to_vec()];
            if let Some(value) = fact.value() {
                rows.push([fact.key(), std::slice::from_ref(value)].concat());
            }
            for row in rows {
                let mut pattern: Vec<Option<Value>> = row.iter().cloned().map(Some).collect();
                if fact.value().is_some() && row.len() == fact.key().len() {
                    pattern.push(None);
                }
                let expected = explain_by_scan(program, log, log.len(), &Goal(pred, pattern));
                let tree = solution.explain(decl.name(), &row);
                assert!(
                    tree.is_some(),
                    "{label}: {}{row:?} unexplained",
                    decl.name()
                );
                assert_eq!(tree, expected, "{label}: {}{row:?}", decl.name());
                explained += 1;
            }
        }
    }
    assert!(explained > 20, "{label}: {explained} facts explained");
}

#[test]
fn explain_on_a_resumed_log_matches_a_scan_of_the_flattened_log() {
    let edges = [
        (0, 1, 4),
        (0, 2, 1),
        (2, 1, 1),
        (1, 3, 2),
        (3, 4, 1),
        (2, 4, 9),
        (4, 5, 1),
        (5, 0, 3),
    ];
    let program = shortest_paths(&edges);
    let solver = Solver::new().record_provenance(true);
    let mut current = solver.solve(&program).expect("solves");
    assert_explains_like_a_scan("scratch", &program, &current);
    // Small changes first, so the base segment is continued rather than
    // absorbed; the retractions leave it masked.
    let edge = |x: i64, y: i64, c: i64| vec![x.into(), y.into(), c.into()];
    let steps = [
        ("insert", Delta::new().insert("Edge", edge(5, 6, 2))),
        ("retract", Delta::new().retract("Edge", edge(5, 6, 2))),
        ("reinsert", Delta::new().insert("Edge", edge(5, 6, 1))),
        (
            "retract mid-history",
            Delta::new().retract("Edge", edge(2, 1, 1)),
        ),
        (
            "mixed",
            Delta::new()
                .insert("Edge", edge(6, 3, 1))
                .retract("Edge", edge(0, 1, 4)),
        ),
    ];
    for (label, delta) in steps {
        current = solver.resume(&program, &current, &delta).expect("resumes");
        assert_explains_like_a_scan(label, &program, &current);
    }
}
