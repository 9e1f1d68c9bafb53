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
//!
//! The store, too, keeps words only: the decoded rows the public reads
//! lend are built by the first read, so a solve or a resume — Figures 2,
//! 4, 5 and 6 and a join that binds a boxed register, with an ascent
//! warning on every cell that climbs — builds none of them.

#[path = "common/golden.rs"]
mod golden;

use flix::analyses::dataflow;
use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::SolveStats;
use flix::lattice::MinCost;
use flix::{
    AscentConfig, AscentWarning, BodyItem, Delta, DeltaOp, Head, HeadTerm, LatticeOps, Observer,
    Program, ProgramBuilder, Query, Solution, Solver, Term, Value, ValueLattice,
};
use golden::{flat_programs, STRATEGIES};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

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

/// Records every ascent warning the solver fires.
#[derive(Default)]
struct Warnings(Mutex<Vec<AscentWarning>>);

impl Observer for Warnings {
    fn ascent_warning(&self, warning: &AscentWarning) {
        self.0.lock().expect("log").push(warning.clone());
    }
}

/// `Near(k) :- Cost(c), Best(k, c).` over a closure-defined lattice:
/// `c` is a boxed register (a `MinCost` element), which `Cost(c)` binds
/// from a stored column when the plan visits it first. With an insert →
/// retract → insert sequence on `Cost`.
fn boxed_join() -> (Program, Vec<Delta>) {
    let mut b = ProgramBuilder::new();
    let cost = b.relation("Cost", 1);
    let best = b.lattice("Best", 2, LatticeOps::of::<MinCost>());
    let near = b.relation("Near", 1);
    let finite = |c: u64| MinCost::finite(c).to_value();
    for c in [3, 8] {
        b.fact(cost, vec![finite(c)]);
    }
    b.fact(best, vec!["a".into(), finite(5)]);
    b.fact(best, vec!["b".into(), finite(9)]);
    let v = Term::var;
    b.rule(
        Head::new(near, [HeadTerm::var("k")]),
        [
            BodyItem::atom(cost, [v("c")]),
            BodyItem::atom(best, [v("k"), v("c")]),
        ],
    );
    let steps = vec![
        Delta::new().insert("Cost", vec![finite(6)]),
        Delta::new().retract("Cost", vec![finite(3)]),
        Delta::new().insert("Cost", vec![finite(3)]),
    ];
    (b.build().expect("valid"), steps)
}

/// Neither a solve nor a resume decodes what the store holds: not the
/// insert path, not a join that binds a boxed register, not an ascent
/// warning — which decodes its own cell's key and nothing else. The first
/// `Solution::relation` then builds the read view of that one predicate.
#[test]
fn a_solve_and_a_resume_build_no_decoded_rows() {
    let int_b = vec![Value::from("b"), Value::from(2)];
    let figure_2 = (
        "figure 2",
        dataflow::build_program(&dataflow::example_input()),
        vec![
            Delta::new().insert("Int", int_b.clone()),
            Delta::new().retract("Int", int_b.clone()),
            Delta::new().insert("Int", int_b),
        ],
    );
    let (ifds, _, ifds_steps) = figure_5();
    let (join, join_steps) = boxed_join();
    let mut programs = vec![
        figure_2,
        ("ifds/taint", ifds, ifds_steps),
        ("boxed join", join, join_steps),
    ];
    programs.extend(flat_programs());
    for (label, program, steps) in &programs {
        let warnings = Arc::new(Warnings::default());
        let solver = Solver::new()
            .ascent(AscentConfig {
                warn_height: Some(1),
            })
            .observer(warnings.clone());
        let mut solution = solver.solve(program).expect("solves");
        assert_eq!(solution.decoded_predicates(), [] as [&str; 0], "{label}");
        for (n, delta) in steps.iter().enumerate() {
            solution = solver.resume(program, &solution, delta).expect("resumes");
            let decoded = solution.decoded_predicates();
            assert_eq!(decoded, [] as [&str; 0], "{label}, step {n}");
        }
        let lattices = program
            .predicates()
            .filter(|(_, d)| d.lattice_ops().is_some());
        assert_eq!(
            warnings.0.lock().expect("log").is_empty(),
            lattices.count() == 0,
            "{label}: every lattice warns"
        );
        let (_, relation) = program
            .predicates()
            .find(|(_, d)| d.lattice_ops().is_none() && solution.len(d.name()) > Some(0))
            .expect("a relation holds facts");
        let name = relation.name();
        let rows = solution.relation(name).expect("a relation").count();
        assert_eq!(Some(rows), solution.len(name), "{label}");
        assert_eq!(solution.decoded_predicates(), [name], "{label}");
        // Each warning named the key of a cell the model holds.
        for warning in warnings.0.lock().expect("log").iter() {
            let cells = solution.lattice(&warning.predicate).expect("a lattice");
            assert!(
                cells
                    .map(|(key, _)| key)
                    .any(|key| key == warning.key.as_slice()),
                "{label}: {warning:?}"
            );
        }
    }
}
