//! The word path held to the boxed path. A lattice that declares a
//! built-in kind has its cells stored, joined and logged as words, and a
//! function with a word form is called on words where the plan can; a
//! program without either runs today's boxed code. Both must compute the
//! same thing, so Figure 4 (`SULattice`, two word forms) and Figure 6
//! (`Constant` values, no word form) are solved as shipped and as their
//! boxed reference — the same closures, no kind, no word form — and the
//! two must agree on the sorted model, the `SolveStats` with timings
//! zeroed, the decoded event log and the `explain` tree of every fact,
//! through a solve and an insert → retract → insert resume sequence, at
//! both strategies and one and four threads.

#[path = "common/golden.rs"]
mod golden;

use flix::{Program, Solution, Solver};
use golden::{flat_programs, STRATEGIES};
use std::fmt::Write as _;

/// Everything the two builds must agree on, rendered.
fn observed(program: &Program, solution: &Solution) -> String {
    let mut text = String::new();
    for (_, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared");
        let mut facts: Vec<String> = facts.map(|fact| fact.to_string()).collect();
        facts.sort();
        writeln!(text, "{}: {facts:?}", decl.name()).expect("write to a string");
    }
    let mut stats = solution.stats().clone();
    stats.wall_ns = 0;
    stats.per_rule.iter_mut().for_each(|rule| rule.eval_ns = 0);
    writeln!(text, "{stats:?}").expect("write to a string");
    writeln!(text, "{:?}", solution.provenance()).expect("write to a string");
    for (_, decl) in program.predicates() {
        let name = decl.name();
        for fact in solution.facts(name).expect("declared") {
            let mut rows = vec![fact.key().to_vec()];
            rows.extend(fact.value().map(|value| {
                let mut full = fact.key().to_vec();
                full.push(value.clone());
                full
            }));
            for row in rows {
                let tree = solution.explain(name, &row).map(|tree| tree.to_string());
                writeln!(text, "{name}{row:?} => {tree:?}").expect("write to a string");
            }
        }
    }
    text
}

#[test]
fn figures_4_and_6_agree_with_their_boxed_reference() {
    for (label, shipped, steps) in flat_programs() {
        let reference = shipped.boxed_reference();
        let kinds = |program: &Program| {
            let lattices = program.predicates().filter_map(|(_, d)| d.lattice_ops());
            lattices.filter(|ops| ops.kind().is_some()).count()
        };
        assert!(kinds(&shipped) > 0, "{label}: a lattice declares a kind");
        assert_eq!(kinds(&reference), 0, "{label}: the reference declares none");
        for strategy in STRATEGIES {
            for threads in [1, 4] {
                let solver = Solver::new()
                    .record_provenance(true)
                    .strategy(strategy)
                    .threads(threads);
                let at = format!("{label}/{strategy:?}/{threads} threads");
                let mut words = solver.solve(&shipped).expect("solves");
                let mut boxed = solver.solve(&reference).expect("solves");
                assert_eq!(
                    observed(&shipped, &words),
                    observed(&reference, &boxed),
                    "{at}"
                );
                for (n, delta) in steps.iter().enumerate() {
                    words = solver.resume(&shipped, &words, delta).expect("resumes");
                    boxed = solver.resume(&reference, &boxed, delta).expect("resumes");
                    assert_eq!(
                        observed(&shipped, &words),
                        observed(&reference, &boxed),
                        "{at}, step {n}"
                    );
                }
            }
        }
    }
}
