//! The word path held to the boxed path. A lattice that declares a
//! built-in kind has its cells stored, joined and logged as words, a
//! function with a word form is called on words where the plan can, and
//! a choice whose function has a choice form binds slots; a program
//! without any of them runs today's boxed code. Both must compute the
//! same thing, so Figure 4 (`SULattice`, two word forms), Figure 6
//! (`Constant` values, no word form) and Figure 5 (no lattice, three
//! choice forms) are solved as shipped and as their boxed reference — the
//! same closures, no kind, no word or choice form — and the two must agree
//! on the sorted model, the `SolveStats` with timings zeroed, the decoded
//! event log and the `explain` tree of every fact, through a solve and an
//! insert → retract → insert resume sequence, at both strategies and one
//! and four threads. (Only where Figure 5 re-derives after a retraction
//! may the word path do less work: there its choice variables are bound
//! from the lost facts.) Figure 5 is also queried on demand.

#[path = "common/golden.rs"]
mod golden;

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::SolveStats;
use flix::{Delta, DeltaOp, Program, Query, Solution, Solver, Value};
use golden::{flat_programs, STRATEGIES};
use std::fmt::Write as _;
use std::sync::Arc;

/// The statistics of a solve with the timings zeroed.
fn counters(solution: &Solution) -> SolveStats {
    let mut stats = solution.stats().clone();
    stats.wall_ns = 0;
    stats.per_rule.iter_mut().for_each(|rule| rule.eval_ns = 0);
    stats
}

/// Everything but the statistics the two builds must agree on, rendered.
fn observed(program: &Program, solution: &Solution) -> String {
    let mut text = String::new();
    for (_, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared");
        let mut facts: Vec<String> = facts.map(|fact| fact.to_string()).collect();
        facts.sort();
        writeln!(text, "{}: {facts:?}", decl.name()).expect("write to a string");
    }
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

/// Figure 5 (taint IFDS) on a small generated program, the node whose
/// facts are queried, and an insert → retract → insert sequence on its
/// control-flow graph: a back edge, an edge out, the edge back in.
fn figure_5() -> (Program, i64, Vec<Delta>) {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 4,
        nodes_per_proc: 9,
        vars_per_proc: 4,
        call_percent: 25,
        seed: 0xF1A7,
    }));
    let graph = &model.graph;
    let int = |n: u32| Value::from(n as i64);
    let (from, to) = graph.cfg[6];
    let edge = vec![int(from), int(to)];
    let steps = vec![
        Delta::new().insert("CFG", vec![int(to), int(from)]),
        Delta::new().retract("CFG", edge.clone()),
        Delta::new().insert("CFG", edge),
    ];
    let taint = Arc::new(Taint::new(model.clone()));
    (ifds::flix::build_program(graph, taint), to as i64, steps)
}

/// Figures 4 and 6, and Figure 5 beside them (the name predates it).
#[test]
fn figures_4_and_6_agree_with_their_boxed_reference() {
    let kinds = |program: &Program| {
        let lattices = program.predicates().filter_map(|(_, d)| d.lattice_ops());
        lattices.filter(|ops| ops.kind().is_some()).count()
    };
    let mut programs = Vec::from(flat_programs());
    for (label, shipped, _) in &programs {
        let reference = shipped.boxed_reference();
        assert!(kinds(shipped) > 0, "{label}: a lattice declares a kind");
        assert_eq!(kinds(&reference), 0, "{label}: the reference declares none");
    }
    let (ifds, node, ifds_steps) = figure_5();
    programs.push(("ifds/taint", ifds, ifds_steps));
    for (label, shipped, steps) in &programs {
        let reference = shipped.boxed_reference();
        for strategy in STRATEGIES {
            for threads in [1, 4] {
                let solver = Solver::new()
                    .record_provenance(true)
                    .strategy(strategy)
                    .threads(threads);
                let at = format!("{label}/{strategy:?}/{threads} threads");
                let mut words = solver.solve(shipped).expect("solves");
                let mut boxed = solver.solve(&reference).expect("solves");
                assert_eq!(
                    observed(shipped, &words),
                    observed(&reference, &boxed),
                    "{at}"
                );
                assert_eq!(counters(&words), counters(&boxed), "{at}");
                for (n, delta) in steps.iter().enumerate() {
                    words = solver.resume(shipped, &words, delta).expect("resumes");
                    boxed = solver.resume(&reference, &boxed, delta).expect("resumes");
                    assert_eq!(
                        observed(shipped, &words),
                        observed(&reference, &boxed),
                        "{at}, step {n}"
                    );
                    let (words, boxed) = (counters(&words), counters(&boxed));
                    let retracts = delta
                        .ops()
                        .iter()
                        .any(|op| matches!(op, DeltaOp::Retract { .. }));
                    if *label == "ifds/taint" && retracts {
                        // Re-deriving what a retraction took, a head-bound
                        // plan binds a choice form's variables from the
                        // lost facts, and the choice tests them; a boxed
                        // choice binds its own. Words derive no more.
                        assert!(words.facts_derived <= boxed.facts_derived, "{at}, step {n}");
                        assert_eq!(words.facts_inserted, boxed.facts_inserted, "{at}, step {n}");
                        assert_eq!(words.rounds, boxed.rounds, "{at}, step {n}");
                    } else {
                        assert_eq!(words, boxed, "{at}, step {n}");
                    }
                }
            }
        }
    }

    // `Result(node, _)` on demand: the rewritten program keeps the forms.
    let query = Query::new("Result", vec![Some(node.into()), None]);
    let ifds = &programs[2].1;
    let reference = ifds.boxed_reference();
    for strategy in STRATEGIES {
        let solver = Solver::new().record_provenance(true).strategy(strategy);
        let answered = |program: &Program| {
            let result = solver.solve_query(program, std::slice::from_ref(&query));
            let result = result.expect("queries");
            let answers: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
            let solution = result.solution();
            let (stats, log) = (counters(solution), solution.provenance());
            format!("{answers:?}\n{stats:?}\n{log:?}")
        };
        let words = answered(ifds);
        assert!(
            words.starts_with("[\""),
            "{strategy:?}: the node holds facts"
        );
        assert_eq!(words, answered(&reference), "{strategy:?}");
    }
}
