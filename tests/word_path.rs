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
//! `MinCost`, §4.4's chain, is held to the same closures declared with
//! no kind, with and without `extend`'s word form, through every entry
//! point: a solve, a resume, a query on demand and a recovery.
//!
//! Surface lattices and `def`s (DESIGN §6, §15) are held to the same
//! program lowered with boxed `Interpreter::call` closures only: every
//! shipped example and generated programs whose lattices carry payloads
//! agree on models, counters, event logs, `explain` trees and snapshot
//! and log bytes; where word code declines, the boxed call answers or
//! fails the same way.
//!
//! The store, too, keeps words only: the decoded rows the public reads
//! lend are built by the first read, so a solve or a resume — Figures 2,
//! 4, 5 and 6 and a join that binds a boxed register, with an ascent
//! warning on every cell that climbs — builds none of them.

#[path = "common/golden.rs"]
mod golden;

use flix::analyses::dataflow;
use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::shortest_paths;
use flix::analyses::workloads::graphs::{self, WeightedGraph};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::{model, LatticeKind, SolveStats, WordType};
use flix::lang::ast::RuleTerm;
use flix::lang::interp::lit_value;
use flix::lang::typeck::{CheckedBodyItem, CheckedProgram};
use flix::lang::Interpreter;
use flix::lattice::rng::SmallRng;
use flix::lattice::{Lattice, MinCost, SuLattice};
use flix::{
    save_snapshot, AscentConfig, AscentWarning, BodyItem, Delta, DeltaLog, DeltaOp, Head, HeadTerm,
    LatticeOps, Observer, Program, ProgramBuilder, Query, Solution, Solver, Term, Value,
    ValueLattice,
};
use golden::{flat_programs, STRATEGIES};
use std::collections::HashMap;
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

/// §4.4's all-pairs shortest paths over `graph`, as
/// [`shortest_paths::build_all_pairs`] builds it, but for the lattice:
/// `MinCost` as shipped — a chain, its cells words — or, with `chain`
/// false, the same operations as closures of no kind
/// (`LatticeOps::from_fns`), its cells boxed; and `extend` with its word
/// form or, with `word_form` false, without one.
fn shortest_paths(graph: &WeightedGraph, chain: bool, word_form: bool) -> Program {
    let ops = if chain {
        LatticeOps::of::<MinCost>()
    } else {
        let cost = |v: &Value| MinCost::expect_from(v);
        LatticeOps::from_fns(
            "MinCost",
            MinCost::INFINITY.to_value(),
            MinCost::top_value(),
            move |a, b| cost(a).leq(&cost(b)),
            move |a, b| cost(a).lub(&cost(b)).to_value(),
            move |a, b| cost(a).glb(&cost(b)).to_value(),
        )
    };
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 3, ops);
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    if word_form {
        let elem = WordType::Elem(LatticeKind::Chain { tag: "Fin".into() });
        b.word_form(
            extend,
            [elem.clone(), WordType::Slot],
            elem,
            shortest_paths::extend_word,
        );
    }
    let int = |n: u32| Value::from(n as i64);
    for &(x, y, c) in &graph.edges {
        b.fact(edge, vec![int(x), int(y), Value::from(c as i64)]);
    }
    for v in 0..graph.num_nodes {
        b.fact(dist, vec![int(v), int(v), MinCost::finite(0).to_value()]);
    }
    let v = Term::var;
    b.rule(
        Head::new(
            dist,
            [
                HeadTerm::var("s"),
                HeadTerm::var("y"),
                HeadTerm::app(extend, [v("d"), v("c")]),
            ],
        ),
        [
            BodyItem::atom(dist, [v("s"), v("x"), v("d")]),
            BodyItem::atom(edge, [v("x"), v("y"), v("c")]),
        ],
    );
    b.build().expect("valid")
}

/// Everything one build of the shortest-paths program shows, through
/// every entry point, rendered: at both strategies and one and four
/// threads, a solve and a chained resume — an edge in, an edge out, the
/// edge back, a cell raised to ⊤ and lowered again — each with its model,
/// counters, event log, `explain` trees and ascent report, each checked a
/// least model; a query on demand; and a recovery from a snapshot of the
/// solve plus a log of the resume's deltas, with the bytes of both files.
fn shortest_paths_seen(label: &str, program: &Program, graph: &WeightedGraph) -> Vec<String> {
    let int = |n: u32| Value::from(n as i64);
    let (x, y, c) = graph.edges[3];
    let edge = vec![int(x), int(y), Value::from(c as i64)];
    let top = MinCost::finite(0).to_value();
    let steps = [
        Delta::new().insert("Edge", vec![int(0), int(graph.num_nodes - 1), int(1)]),
        Delta::new().retract("Edge", edge.clone()),
        Delta::new().insert("Edge", edge),
        Delta::new().raise("Dist", vec![int(1), int(4)], top.clone()),
        Delta::new().lower("Dist", vec![int(1), int(4)], top),
    ];
    let mut seen = Vec::new();
    // A model after `applied` steps is the least of the program with
    // them (checked once per step: the check re-runs the model check per
    // fact).
    let noted = |at: String, applied: usize, solution: &Solution, minimal: bool| {
        let mut all = Delta::new();
        for delta in &steps[..applied] {
            all.extend_from(delta);
        }
        let extended = program.with_delta(&all).expect("fits");
        assert!(model::is_model(&extended, solution), "{label}: {at}");
        let minimal = !minimal || model::is_locally_minimal(&extended, solution);
        assert!(minimal, "{label}: {at}");
        let report = solution.ascent_report(8);
        let counters = counters(solution);
        let observed = observed(program, solution);
        format!("{at}\n{observed}{counters:?}\n{report:?}")
    };
    let query = Query::new("Dist", vec![Some(int(2)), None, None]);
    for strategy in STRATEGIES {
        for threads in [1, 4] {
            let solver = Solver::new()
                .record_provenance(true)
                .ascent(AscentConfig { warn_height: None })
                .strategy(strategy)
                .threads(threads);
            let at = format!("{strategy:?}/{threads} threads");
            let mut solution = solver.solve(program).expect("solves");
            let first = strategy == STRATEGIES[0] && threads == 1;
            seen.push(noted(format!("{at}: solve"), 0, &solution, first));
            for (n, delta) in steps.iter().enumerate() {
                solution = solver.resume(program, &solution, delta).expect("resumes");
                seen.push(noted(format!("{at}: step {n}"), n + 1, &solution, first));
            }
            let result = solver.solve_query(program, std::slice::from_ref(&query));
            let result = result.expect("queries");
            let answers: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
            assert!(!answers.is_empty(), "{label}: {at}: node 2 reaches itself");
            let solution = result.solution();
            let (stats, log) = (counters(solution), solution.provenance());
            seen.push(format!("{at}: query\n{answers:?}\n{stats:?}\n{log:?}"));
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "flix-word-path-{}-{}",
        std::process::id(),
        label.replace(' ', "-")
    ));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let (snapshot, wal, resaved) = (dir.join("m.snap"), dir.join("m.wal"), dir.join("r.snap"));
    let solver = Solver::new().record_provenance(true);
    let base = solver.solve(program).expect("solves");
    save_snapshot(&snapshot, program, &base).expect("saves");
    let (mut log, _) = DeltaLog::open(&wal, program).expect("opens a log");
    for delta in &steps {
        log.append(delta).expect("appends");
    }
    drop(log);
    let (recovered, report) = solver.recover(program, &snapshot, &wal).expect("recovers");
    assert_eq!(report.wal_frames_replayed, steps.len(), "{label}");
    seen.push(noted("recover".to_string(), steps.len(), &recovered, true));
    save_snapshot(&resaved, program, &recovered).expect("saves");
    for file in [&snapshot, &wal, &resaved] {
        let bytes = std::fs::read(file).expect("reads back");
        seen.push(format!(
            "{:?}: {bytes:?}",
            file.file_name().expect("a file")
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    seen
}

/// `MinCost` on chain words against the same closures of no kind, with
/// and without `extend`'s word form: one model, one set of counters, one
/// event log, one `explain` tree per fact, one ascent report, one query
/// answer and the same snapshot and log bytes, whichever way the cells
/// are held and `extend` is called.
#[test]
fn min_cost_on_chain_words_agrees_with_its_closures() {
    let graph = graphs::generate(7, 10, 0x44);
    let shipped = shortest_paths::build_all_pairs(&graph);
    let kind = |program: &Program| {
        let mut decls = program.predicates();
        let (_, dist) = decls.find(|(_, d)| d.name() == "Dist").expect("declared");
        let ops = dist.lattice_ops().expect("a lattice");
        ops.kind().cloned()
    };
    let chain = LatticeKind::Chain { tag: "Fin".into() };
    assert_eq!(kind(&shipped), Some(chain.clone()));
    // The shipped build is the test's own with both.
    let solver = Solver::new().record_provenance(true);
    let built = shortest_paths(&graph, true, true);
    let (a, b) = (solver.solve(&shipped), solver.solve(&built));
    let (a, b) = (a.expect("solves"), b.expect("solves"));
    assert_eq!(observed(&shipped, &a), observed(&built, &b));
    assert_eq!(counters(&a), counters(&b));
    let reference = shortest_paths_seen("shipped", &shipped, &graph);
    for (chain_words, word_form) in [(true, false), (false, true), (false, false)] {
        let label = format!("chain {chain_words}, word form {word_form}");
        let program = shortest_paths(&graph, chain_words, word_form);
        assert_eq!(
            kind(&program),
            chain_words.then(|| chain.clone()),
            "{label}"
        );
        let seen = shortest_paths_seen(&label, &program, &graph);
        assert_eq!(seen.len(), reference.len(), "{label}");
        for (seen, reference) in seen.iter().zip(&reference) {
            assert_eq!(seen, reference, "{label}");
        }
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

/// `Near(k) :- Cost(c), Best(k, c).`: `c` stands for a stored column and
/// a `MinCost` element, so it is a boxed register, which `Cost(c)` binds
/// from the column when the plan visits it first. With an insert →
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

/// `Near(k) :- Cost(c), Best(k, c).` — the body as written, or reversed
/// — with `Cost` = {Fin(3), Fin(8)} and `Best("a")` = Fin(5).
fn near(reversed: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let cost = b.relation("Cost", 1);
    let best = b.lattice("Best", 2, LatticeOps::of::<MinCost>());
    let near = b.relation("Near", 1);
    let finite = |c: u64| MinCost::finite(c).to_value();
    for c in [3, 8] {
        b.fact(cost, vec![finite(c)]);
    }
    b.fact(best, vec!["a".into(), finite(5)]);
    let v = Term::var;
    let mut body = vec![
        BodyItem::atom(cost, [v("c")]),
        BodyItem::atom(best, [v("k"), v("c")]),
    ];
    if reversed {
        body.reverse();
    }
    b.rule(Head::new(near, [HeadTerm::var("k")]), body);
    b.build().expect("valid")
}

/// A lattice element read into a body key column means one thing
/// whatever the plan order: both orders of `near`'s body give one model,
/// and after `Best("c", Fin(2))` is inserted each resumed model equals a
/// solve from scratch.
#[test]
#[ignore = "ROADMAP item 1: a lattice element in a key column means what the plan order makes it"]
fn a_key_column_element_means_one_thing_in_every_body_order() {
    let solver = Solver::new();
    let (written, reversed) = (near(false), near(true));
    let models: Vec<String> = [&written, &reversed]
        .map(|program| model_text(program, &solver.solve(program).expect("solves")))
        .into();
    assert_eq!(models[0], models[1], "the two body orders");
    let insert = Delta::new().insert("Best", vec!["c".into(), MinCost::finite(2).to_value()]);
    for (order, program) in [("written", &written), ("reversed", &reversed)] {
        let solution = solver.solve(program).expect("solves");
        let resumed = solver.resume(program, &solution, &insert).expect("resumes");
        let extended = program.with_delta(&insert).expect("fits");
        let scratch = solver.solve(&extended).expect("solves");
        assert_eq!(
            model_text(program, &resumed),
            model_text(program, &scratch),
            "{order}"
        );
    }
}

/// A lattice element read into a relational head column is the settled
/// cell: §4.4's shortest paths with `Seen(x, d) :- Reach(x, d).`, resumed
/// after `Edge("a", "c", 1)`, equals a solve from scratch and is a least
/// model.
#[test]
#[ignore = "ROADMAP item 1: a relational head column keeps every value a cell held"]
fn a_head_column_element_is_the_settled_cell() {
    let source = r#"
        enum Dist { case Fin(Int), case Inf }
        def leq(a: Dist, b: Dist): Bool = match (a, b) with {
          case (Dist.Inf, _) => true
          case (_, Dist.Inf) => false
          case (Dist.Fin(x), Dist.Fin(y)) => x >= y
        }
        def lub(a: Dist, b: Dist): Dist = match (a, b) with {
          case (Dist.Inf, x) => x
          case (x, Dist.Inf) => x
          case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
        }
        def glb(a: Dist, b: Dist): Dist = match (a, b) with {
          case (Dist.Inf, _) => Dist.Inf
          case (_, Dist.Inf) => Dist.Inf
          case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
        }
        let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);
        def plus(d: Dist, c: Int): Dist = match d with {
          case Dist.Inf => Dist.Inf
          case Dist.Fin(x) => Dist.Fin(x + c)
        }
        rel Edge(x: Str, y: Str, c: Int);
        lat Reach(node: Str, Dist<>);
        rel Seen(x: Str, d: Dist);
        Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).
        Seen(x, d) :- Reach(x, d).
        Reach("a", Dist.Fin(0)).
        Edge("a", "b", 1). Edge("b", "c", 1). Edge("c", "d", 1). Edge("a", "d", 9).
    "#;
    let program = flix::lang::compile(source).expect("compiles");
    let solver = Solver::new();
    let solution = solver.solve(&program).expect("solves");
    let insert = Delta::new().insert("Edge", vec!["a".into(), "c".into(), 1.into()]);
    let resumed = solver
        .resume(&program, &solution, &insert)
        .expect("resumes");
    let extended = program.with_delta(&insert).expect("fits");
    let scratch = solver.solve(&extended).expect("solves");
    assert_eq!(
        model_text(&program, &resumed),
        model_text(&program, &scratch)
    );
    assert!(model::is_locally_minimal(&extended, &resumed));
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

/// A checked surface program lowered with nothing but boxed calls: each
/// lattice's operations and each `def` call `Interpreter::call`, and no
/// word form is registered — the reference `flix_lang::lower`'s word
/// code and word lattices are held to.
fn lower_boxed(checked: &CheckedProgram) -> Program {
    let interp = Interpreter::new(Arc::new(checked.clone()));
    let mut b = ProgramBuilder::new();
    let binary = |name: &str| {
        let (interp, name) = (interp.clone(), name.to_string());
        move |x: &Value, y: &Value| interp.call(&name, &[x.clone(), y.clone()])
    };
    let mut lattices: HashMap<&str, LatticeOps> = HashMap::new();
    for (ty, bind) in &checked.lattices {
        let leq = binary(&bind.leq);
        let ops = LatticeOps::from_fns(
            ty.as_str(),
            interp.eval_closed(&bind.bot),
            Some(interp.eval_closed(&bind.top)),
            move |x, y| leq(x, y).is_true(),
            binary(&bind.lub),
            binary(&bind.glb),
        );
        lattices.insert(ty, ops);
    }
    let mut preds = HashMap::new();
    for name in &checked.pred_order {
        let sig = &checked.preds[name];
        let id = match &sig.lattice_ty {
            Some(ty) => b.lattice(
                name.as_str(),
                sig.attrs.len(),
                lattices[ty.as_str()].clone(),
            ),
            None => b.relation(name.as_str(), sig.attrs.len()),
        };
        preds.insert(name.as_str(), id);
    }
    let mut names: Vec<&String> = checked.defs.keys().collect();
    names.sort();
    let mut funcs = HashMap::new();
    for name in names {
        let (interp, called) = (interp.clone(), name.clone());
        let id = b.function(name.as_str(), move |args| interp.call(&called, args));
        funcs.insert(name.as_str(), id);
    }
    for (pred, tuple) in &checked.facts {
        b.fact(preds[pred.as_str()], tuple.clone());
    }
    fn ground(t: &RuleTerm) -> Value {
        match t {
            RuleTerm::Lit(lit, _) => lit_value(lit),
            RuleTerm::Ctor { case, args, .. } => match args.as_slice() {
                [] => Value::tag0(case.as_str()),
                [only] => Value::tag(case.as_str(), ground(only)),
                args => Value::tag(case.as_str(), Value::tuple(args.iter().map(ground))),
            },
            other => unreachable!("not ground: {other:?}"),
        }
    }
    let term = |t: &RuleTerm| match t {
        RuleTerm::Var(name, _) => Term::var(name.as_str()),
        RuleTerm::Wildcard(_) => Term::Wildcard,
        other => Term::Lit(ground(other)),
    };
    for rule in &checked.constraints {
        let head = rule.head.terms.iter().map(|t| match t {
            RuleTerm::Var(name, _) => HeadTerm::var(name.as_str()),
            RuleTerm::App { func, args, .. } => {
                HeadTerm::app(funcs[func.as_str()], args.iter().map(term))
            }
            other => HeadTerm::Lit(ground(other)),
        });
        let body = rule.body.iter().map(|item| match item {
            CheckedBodyItem::Atom(atom) => {
                BodyItem::atom(preds[atom.pred.as_str()], atom.terms.iter().map(term))
            }
            CheckedBodyItem::NegAtom(atom) => {
                BodyItem::not(preds[atom.pred.as_str()], atom.terms.iter().map(term))
            }
            CheckedBodyItem::Filter { func, args } => {
                BodyItem::filter(funcs[func.as_str()], args.iter().map(term))
            }
            CheckedBodyItem::Choose { binds, func, args } => BodyItem::Choose {
                func: funcs[func.as_str()],
                args: args.iter().map(term).collect(),
                binds: binds.iter().map(|b| b.as_str().into()).collect(),
            },
        });
        let head = Head::new(preds[rule.head.pred.as_str()], head.collect::<Vec<_>>());
        b.rule(head, body.collect::<Vec<_>>());
    }
    b.build().expect("the checked program lowers")
}

/// Whether the lattice of predicate `name` runs its cells as slots: its
/// operations carry word forms.
fn has_word_forms(program: &Program, name: &str) -> bool {
    let (_, decl) = program
        .predicates()
        .find(|(_, d)| d.name() == name)
        .expect("declared");
    let ops = decl.lattice_ops().expect("a lattice");
    format!("{ops:?}").contains("word_forms: true")
}

/// §4.4's `Dist`, a flat points-to lattice over strings and an interval
/// lattice of pairs (no word code: a constructor of two fields), all
/// written in FLIX, over a graph of `nodes` nodes drawn from `seed`.
/// Costs are small, past the inline payload range (2³³), or — into sink
/// nodes that lead nowhere, so no cycle runs through them — near
/// `i64::MAX`, where `plus` wraps. `Both` meets two cells (its variable is
/// boxed), `Seen` keeps elements as keys, `Far` negates a cell, and the
/// `Points` relation runs a flat lattice around cycles.
fn generated_surface(seed: u64, nodes: usize) -> (String, Vec<String>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = String::from(
        r#"
enum Dist { case Fin(Int), case Inf }
def leq(a: Dist, b: Dist): Bool = match (a, b) with {
  case (Dist.Inf, _) => true
  case (_, Dist.Inf) => false
  case (Dist.Fin(x), Dist.Fin(y)) => x >= y
}
def lub(a: Dist, b: Dist): Dist = match (a, b) with {
  case (Dist.Inf, x) => x
  case (x, Dist.Inf) => x
  case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
}
def glb(a: Dist, b: Dist): Dist = match (a, b) with {
  case (Dist.Inf, _) => Dist.Inf
  case (_, Dist.Inf) => Dist.Inf
  case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
}
let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);
def plus(d: Dist, c: Int): Dist = match d with {
  case Dist.Inf => Dist.Inf
  case Dist.Fin(x) => Dist.Fin(x + c)
}
def small(d: Dist): Bool = match d with {
  case Dist.Fin(x) => x < 12
  case _ => false
}

enum Ptr { case Nil, case Single(Str), case Many }
def pleq(a: Ptr, b: Ptr): Bool = match (a, b) with {
  case (Ptr.Nil, _) => true
  case (_, Ptr.Many) => true
  case (Ptr.Single(x), Ptr.Single(y)) => x == y
  case _ => false
}
def plub(a: Ptr, b: Ptr): Ptr = match (a, b) with {
  case (Ptr.Nil, x) => x
  case (x, Ptr.Nil) => x
  case (Ptr.Single(x), Ptr.Single(y)) => if (x == y) Ptr.Single(x) else Ptr.Many
  case _ => Ptr.Many
}
def pglb(a: Ptr, b: Ptr): Ptr = match (a, b) with {
  case (Ptr.Many, x) => x
  case (x, Ptr.Many) => x
  case (Ptr.Single(x), Ptr.Single(y)) => if (x == y) Ptr.Single(x) else Ptr.Nil
  case _ => Ptr.Nil
}
let Ptr<> = (Ptr.Nil, Ptr.Many, pleq, plub, pglb);
def single(s: Str): Ptr = Ptr.Single(s)

enum Iv { case Empty, case Range(Int, Int) }
def ileq(a: Iv, b: Iv): Bool = match (a, b) with {
  case (Iv.Empty, _) => true
  case (Iv.Range(l, h), Iv.Range(m, k)) => m <= l && h <= k
  case _ => false
}
def ilub(a: Iv, b: Iv): Iv = match (a, b) with {
  case (Iv.Empty, x) => x
  case (x, Iv.Empty) => x
  case (Iv.Range(l, h), Iv.Range(m, k)) => Iv.Range(if (l <= m) l else m, if (h >= k) h else k)
}
def iglb(a: Iv, b: Iv): Iv = match (a, b) with {
  case (Iv.Range(l, h), Iv.Range(m, k)) =>
    let lo = if (l >= m) l else m; let hi = if (h <= k) h else k;
    if (lo <= hi) Iv.Range(lo, hi) else Iv.Empty
  case _ => Iv.Empty
}
let Iv<> = (Iv.Empty, Iv.Range(-1000000, 1000000), ileq, ilub, iglb);
def point(c: Int): Iv = Iv.Range(c, c)

rel Edge(x: Str, y: Str, c: Int);
rel Node(x: Str);
lat Reach(x: Str, Dist<>);
lat Alt(x: Str, Dist<>);
lat Both(x: Str, Dist<>);
rel Near(x: Str);
rel Seen(d: Dist);
rel Far(x: Str);
rel New(v: Str, o: Str);
rel Assign(v: Str, w: Str);
lat Points(v: Str, Ptr<>);
lat Costs(x: Str, Iv<>);

Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).
Alt(y, plus(d, c)) :- Alt(x, d), Edge(x, y, c).
Both(x, d) :- Reach(x, d), Alt(x, d).
Near(x) :- Reach(x, d), small(d).
Seen(d) :- Reach(x, d).
Node(x) :- Edge(x, _, _).
Node(y) :- Edge(_, y, _).
Far(x) :- Node(x), !Reach(x, Dist.Fin(6)).
Points(v, single(o)) :- New(v, o).
Points(v, p) :- Assign(v, w), Points(w, p).
Costs(y, point(c)) :- Edge(_, y, c).

Reach("n0", Dist.Fin(0)).
Alt("n1", Dist.Fin(2)).
"#,
    );
    let wide = (1i64 << 33) - 3;
    let mut edges = Vec::new();
    for _ in 0..nodes * 2 {
        let (x, y) = (rng.index(nodes), rng.index(nodes));
        if x == y {
            continue;
        }
        let c = match rng.index(8) {
            0 => wide,
            _ => 1 + rng.index(5) as i64,
        };
        edges.push(format!("Edge(\"n{x}\", \"n{y}\", {c})."));
    }
    for sink in 0..3 {
        let x = rng.index(nodes);
        edges.push(format!("Edge(\"n{x}\", \"s{sink}\", {}).", i64::MAX - sink));
    }
    for v in 0..nodes {
        if rng.gen_bool(0.4) {
            text.push_str(&format!("New(\"v{v}\", \"o{}\").\n", rng.index(3)));
        }
        text.push_str(&format!("Assign(\"v{v}\", \"v{}\").\n", rng.index(nodes)));
    }
    for edge in &edges {
        text.push_str(edge);
        text.push('\n');
    }
    let (x, y) = (rng.index(nodes), (rng.index(nodes - 1) + 1) % nodes);
    let updates = vec![
        format!("Edge(\"n0\", \"n{y}\", 1). New(\"v{x}\", \"o9\")."),
        format!("- {}", edges[0]),
        edges[0].clone(),
        format!("Reach(\"n{x}\", Dist.Fin(1)). Alt(\"n{y}\", Dist.Fin({wide})). - Assign(\"v{x}\", \"v0\")."),
    ];
    (text, updates)
}

/// What the test-local lowering and `flix_lang::lower` each make of
/// `source` and its `updates`, side by side: models, counters, event logs
/// and `explain` trees of a solve at one and four threads and both
/// strategies, and of every resume of the chain; the model a recovery
/// from a snapshot and a log of the updates reaches; and the bytes of
/// both files and of the recovered model's snapshot. Every model is
/// checked a model of its program.
fn surface_seen(label: &str, source: &str, updates: &[String], lowered: bool) -> Vec<String> {
    let checked = flix::lang::check(&flix::lang::parse(source).expect("parses")).expect("checks");
    let deltas: Vec<Delta> = updates
        .iter()
        .map(|text| flix::lang::compile_update(&checked, text).expect("an update"))
        .collect();
    let program = if lowered {
        flix::lang::lower(Arc::new(checked)).expect("lowers")
    } else {
        lower_boxed(&checked)
    };
    let mut seen = Vec::new();
    let noted = |at: String, applied: usize, solution: &Solution| {
        let mut all = Delta::new();
        for delta in &deltas[..applied] {
            all.extend_from(delta);
        }
        let extended = program.with_delta(&all).expect("fits");
        assert!(model::is_model(&extended, solution), "{label}: {at}");
        format!(
            "{at}\n{}{:?}",
            observed(&program, solution),
            counters(solution)
        )
    };
    for strategy in STRATEGIES {
        for threads in [1, 4] {
            let solver = Solver::new()
                .record_provenance(true)
                .strategy(strategy)
                .threads(threads);
            let at = format!("{strategy:?}/{threads} threads");
            let mut solution = solver.solve(&program).expect("solves");
            seen.push(noted(format!("{at}: solve"), 0, &solution));
            for (n, delta) in deltas.iter().enumerate() {
                solution = solver.resume(&program, &solution, delta).expect("resumes");
                seen.push(noted(format!("{at}: step {n}"), n + 1, &solution));
            }
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "flix-word-path-surface-{}-{label}-{lowered}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let (snapshot, wal, resaved) = (dir.join("m.snap"), dir.join("m.wal"), dir.join("r.snap"));
    let solver = Solver::new().record_provenance(true);
    let base = solver.solve(&program).expect("solves");
    save_snapshot(&snapshot, &program, &base).expect("saves");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("opens a log");
    for delta in &deltas {
        log.append(delta).expect("appends");
    }
    drop(log);
    let (recovered, report) = solver.recover(&program, &snapshot, &wal).expect("recovers");
    assert_eq!(report.wal_frames_replayed, deltas.len(), "{label}");
    seen.push(noted("recover".to_string(), deltas.len(), &recovered));
    save_snapshot(&resaved, &program, &recovered).expect("saves");
    for file in [&snapshot, &wal, &resaved] {
        let bytes = std::fs::read(file).expect("reads back");
        seen.push(format!(
            "{:?}: {bytes:?}",
            file.file_name().expect("a file")
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    seen
}

/// Surface lattices and `def`s on words against the same program lowered
/// with boxed calls only: every shipped example and generated programs
/// whose lattices carry payloads — inline ones, ones past the inline
/// range, strings, pairs — agree on everything [`surface_seen`] records.
#[test]
fn surface_defs_on_words_agree_with_a_boxed_lowering() {
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/flix");
    let read = |name: &str| std::fs::read_to_string(examples.join(name)).expect("an example");
    let graph = format!("{}\n{}", read("graph_rules.flix"), read("graph_facts.flix"));
    let mut programs = vec![
        ("graph", graph, Vec::new()),
        ("parity", read("parity.flix"), Vec::new()),
        ("tall_chain", read("tall_chain.flix"), Vec::new()),
        (
            "shortest_paths",
            read("shortest_paths.flix"),
            vec![
                "Edge(\"d\", \"a\", 1).".to_string(),
                "- Edge(\"a\", \"b\", 1).".to_string(),
                "Edge(\"a\", \"b\", 1).".to_string(),
            ],
        ),
    ];
    let mut listed: Vec<String> = std::fs::read_dir(&examples)
        .expect("the examples")
        .map(|entry| {
            entry
                .expect("an entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    listed.sort();
    assert_eq!(
        listed,
        [
            "graph_facts.flix",
            "graph_rules.flix",
            "parity.flix",
            "shortest_paths.flix",
            "tall_chain.flix"
        ],
        "every example is held here"
    );
    for seed in 0..3 {
        let (source, updates) = generated_surface(0x5EED_0033 + seed, 10);
        programs.push(("generated", source, updates));
    }
    for (n, (label, source, updates)) in programs.iter().enumerate() {
        let label = format!("{label}-{n}");
        if *label != *"graph" {
            let program = flix::lang::compile(source).expect("compiles");
            let lattices: Vec<String> = program
                .predicates()
                .filter(|(_, d)| d.lattice_ops().is_some())
                .map(|(_, d)| d.name().to_string())
                .collect();
            for name in &lattices {
                let expected = !matches!(name.as_str(), "Costs");
                assert_eq!(has_word_forms(&program, name), expected, "{label}: {name}");
            }
        }
        let words = surface_seen(&label, source, updates, true);
        let boxed = surface_seen(&label, source, updates, false);
        assert_eq!(words.len(), boxed.len(), "{label}");
        for (words, boxed) in words.iter().zip(&boxed) {
            assert_eq!(words, boxed, "{label}");
        }
    }
}

/// Where word code declines, the boxed call answers — the same model —
/// or panics, and the solve fails with the same error: a sum that wraps
/// at `i64::MAX` (in [`generated_surface`] too), a payload past the
/// inline range, a non-exhaustive `match`, the recursion limit.
#[test]
fn declined_word_code_answers_or_fails_as_the_boxed_call_does() {
    let prelude = r#"
enum Dist { case Fin(Int), case Inf }
def leq(a: Dist, b: Dist): Bool = match (a, b) with {
  case (Dist.Inf, _) => true
  case (_, Dist.Inf) => false
  case (Dist.Fin(x), Dist.Fin(y)) => x >= y
}
def lub(a: Dist, b: Dist): Dist = match (a, b) with {
  case (Dist.Inf, x) => x
  case (x, Dist.Inf) => x
  case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
}
def glb(a: Dist, b: Dist): Dist = match (a, b) with {
  case (Dist.Inf, _) => Dist.Inf
  case (_, Dist.Inf) => Dist.Inf
  case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
}
let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);
def plus(d: Dist, c: Int): Dist = match d with {
  case Dist.Inf => Dist.Inf
  case Dist.Fin(x) => Dist.Fin(x + c)
}
def half(d: Dist): Dist = match d with { case Dist.Fin(x) => Dist.Fin(x / 2) }
def down(n: Int): Int = if (n <= 0) 0 else down(n - 1)
rel Step(c: Int);
rel Raw(d: Dist);
rel Num(n: Int);
rel Out(d: Dist);
rel Depth(n: Int);
lat Reach(x: Int, Dist<>);
Reach(1, Dist.Fin(3)).
Reach(2, plus(d, c)) :- Reach(1, d), Step(c).
"#;
    let cases = [
        ("wraps", "Step(9223372036854775807). Step(5).", None),
        ("wide payload", "Step(8589934590). Step(8589934594).", None),
        (
            "non-exhaustive match",
            "Raw(Dist.Fin(4)). Raw(Dist.Inf). Out(half(d)) :- Raw(d).",
            Some("non-exhaustive match"),
        ),
        (
            "recursion limit",
            "Num(3). Num(300). Depth(down(n)) :- Num(n).",
            Some("recursion limit exceeded in down"),
        ),
    ];
    for (label, extra, fails) in cases {
        let source = format!("{prelude}{extra}");
        let checked =
            flix::lang::check(&flix::lang::parse(&source).expect("parses")).expect("checks");
        let boxed = lower_boxed(&checked);
        let words = flix::lang::lower(Arc::new(checked)).expect("lowers");
        assert!(has_word_forms(&words, "Reach"), "{label}");
        for threads in [1, 4] {
            let solver = Solver::new().record_provenance(true).threads(threads);
            match (solver.solve(&words), solver.solve(&boxed), fails) {
                (Ok(w), Ok(b), None) => {
                    assert!(model::is_model(&words, &w), "{label}");
                    assert_eq!(observed(&words, &w), observed(&boxed, &b), "{label}");
                    assert_eq!(counters(&w), counters(&b), "{label}");
                }
                (Err(w), Err(b), Some(message)) => {
                    assert_eq!(w.to_string(), b.to_string(), "{label}");
                    assert!(w.to_string().contains(message), "{label}: {w}");
                    let (w, b) = (&w.partial, &b.partial);
                    assert_eq!(observed(&words, w), observed(&boxed, b), "{label}");
                }
                (w, b, _) => panic!("{label}: {:?} / {:?}", w.map(drop), b.map(drop)),
            }
        }
    }
}

/// §4.4's `Dist` in FLIX: its operations compile to word code, which
/// bakes in the ids its program's names give `Fin` and `Inf`.
const DIST: &str = "
    enum Dist { case Fin(Int), case Inf }
    def leq(a: Dist, b: Dist): Bool = match (a, b) with {
      case (Dist.Inf, _) => true
      case (_, Dist.Inf) => false
      case (Dist.Fin(x), Dist.Fin(y)) => x >= y
    }
    def lub(a: Dist, b: Dist): Dist = match (a, b) with {
      case (Dist.Inf, x) => x
      case (x, Dist.Inf) => x
      case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
    }
    def glb(a: Dist, b: Dist): Dist = match (a, b) with {
      case (Dist.Inf, _) => Dist.Inf
      case (_, Dist.Inf) => Dist.Inf
      case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
    }
    let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);
    lat Reach(node: Str, Dist<>);
    Reach(\"a\", Dist.Fin(0)).
";

#[test]
fn word_forms_lowered_for_another_programs_names_are_refused() {
    let own = flix::compile(DIST).expect("compiles");
    assert!(has_word_forms(&own, "Reach"));
    // Another program, whose names give the first ids to other strings.
    let other = flix::compile(&format!(
        "enum Color {{ case Red, case Green }}
         rel Paint(c: Color, s: Str);
         Paint(Color.Red, \"red\"). Paint(Color.Green, \"green\").
         {DIST}"
    ))
    .expect("compiles");
    // `Reach`'s lattice, moved into a program of `names`.
    let moved = |names: &flix::core::Names| {
        let reach = own.predicate("Reach").expect("declared");
        let ops = own.decl(reach).lattice_ops().expect("a lattice").clone();
        let mut b = ProgramBuilder::new();
        b.names(names.clone());
        let reach = b.lattice("Reach", 2, ops);
        b.fact(reach, vec!["b".into(), Value::tag("Fin", 1.into())]);
        b.build()
    };
    let solution = Solver::new()
        .solve(&moved(own.names()).expect("its own names"))
        .expect("solves");
    assert_eq!(
        solution.fact_lines("Reach", None).expect("declared"),
        ["Reach(\"b\", Fin(1))"]
    );
    for names in [other.names(), &flix::core::Names::default()] {
        match moved(names) {
            Err(flix::core::ProgramError::ForeignWordForms { predicate, lattice }) => {
                assert_eq!((predicate.as_str(), lattice.as_str()), ("Reach", "Dist"));
            }
            other => panic!("expected a refusal, got {:?}", other.map(|_| "a program")),
        }
    }
    // A program that only adds names keeps every id the forms bake in.
    let mut extended = own.names().clone();
    extended.intern("Elsewhere");
    assert!(moved(&extended).is_ok());
}

/// A lattice of sets of integers, as closures of no kind: its cells are
/// the sets' slots, and a meet or a function may answer a set no cell
/// holds.
fn int_sets() -> LatticeOps {
    let set = |v: &Value| v.as_set().expect("a set").clone();
    LatticeOps::from_fns(
        "IntSet",
        Value::set([]),
        None,
        move |a, b| set(a).is_subset(&set(b)),
        move |a, b| Value::set(set(a).union(&set(b)).cloned()),
        move |a, b| Value::set(set(a).intersection(&set(b)).cloned()),
    )
}

fn ints(items: &[i64]) -> Value {
    Value::set(items.iter().map(|&n| Value::from(n)))
}

/// `A(k, s)`, `B(k, s)` over [`int_sets`], each rule reading both, so
/// that `s` is rebound to `A(k) ⊓ B(k)`: `{1, 2} ⊓ {2, 3} = {2}` at `p`,
/// a set no cell holds, and `{4}` at `q`, which `A(q)` holds. `heads`
/// adds the rules that carry the witness; without them, only `Both(k)`
/// reads it, and the witness reaches nothing but the premises it logs.
fn glb_witness(heads: bool) -> (Program, Delta) {
    let mut b = ProgramBuilder::new();
    let on = b.relation("On", 1);
    let a = b.lattice("A", 2, int_sets());
    let bb = b.lattice("B", 2, int_sets());
    for k in ["p", "q"] {
        b.fact(on, vec![k.into()]);
    }
    b.fact(a, vec!["p".into(), ints(&[1, 2])]);
    b.fact(bb, vec!["p".into(), ints(&[2, 3])]);
    b.fact(a, vec!["q".into(), ints(&[4])]);
    b.fact(bb, vec!["q".into(), ints(&[4, 5])]);
    let v = Term::var;
    let body = || {
        [
            BodyItem::atom(on, [v("k")]),
            BodyItem::atom(a, [v("k"), v("s")]),
            BodyItem::atom(bb, [v("k"), v("s")]),
        ]
    };
    if heads {
        let r = b.lattice("R", 2, int_sets());
        let met = b.relation("Met", 2);
        b.rule(
            Head::new(r, [HeadTerm::var("k"), HeadTerm::var("s")]),
            body(),
        );
        b.rule(
            Head::new(met, [HeadTerm::var("k"), HeadTerm::var("s")]),
            body(),
        );
    } else {
        let both = b.relation("Both", 1);
        b.rule(Head::new(both, [HeadTerm::var("k")]), body());
    }
    let program = b.build().expect("valid");
    (program, Delta::new().retract("On", vec!["p".into()]))
}

/// `Name(x, s) :- Num(x), s <- spell(x)` with no choice form, whose
/// strings no fact holds, and `Hit(x, s) :- Known(x, s), s <- spell(x)`,
/// where `Known` binds `s` before the choice tests it.
fn unstored_choice() -> (Program, Delta) {
    let mut b = ProgramBuilder::new();
    let num = b.relation("Num", 1);
    let known = b.relation("Known", 2);
    let name = b.relation("Name", 2);
    let hit = b.relation("Hit", 2);
    for n in 1..=3 {
        b.fact(num, vec![n.into()]);
    }
    b.fact(known, vec![2.into(), "n2".into()]);
    b.fact(known, vec![3.into(), "zz".into()]);
    let spell = b.function("spell", |args| {
        let n = args[0].as_int().expect("an int");
        Value::set([format!("n{n}"), format!("m{n}")].map(Value::from))
    });
    let v = Term::var;
    b.rule(
        Head::new(name, [HeadTerm::var("x"), HeadTerm::var("s")]),
        [
            BodyItem::atom(num, [v("x")]),
            BodyItem::choose(spell, [v("x")], "s"),
        ],
    );
    b.rule(
        Head::new(hit, [HeadTerm::var("x"), HeadTerm::var("s")]),
        [
            BodyItem::atom(known, [v("x"), v("s")]),
            BodyItem::choose(spell, [v("x")], "s"),
        ],
    );
    let program = b.build().expect("valid");
    (program, Delta::new().retract("Num", vec![1.into()]))
}

/// Head functions that answer values no fact holds: `Label(label(x))`, a
/// string in a key column; `Mark(x, single(x))`, a set as an element of
/// [`int_sets`]; and `Owner(x, owner(x))`, `Single("o<x>")` as an element
/// of the flat `SULattice`, whose word is the slot of a string no fact
/// holds.
fn unstored_heads() -> (Program, Delta) {
    let mut b = ProgramBuilder::new();
    let num = b.relation("Num", 1);
    let label = b.relation("Label", 1);
    let mark = b.lattice("Mark", 2, int_sets());
    let owner = b.lattice("Owner", 2, LatticeOps::of::<SuLattice>());
    for n in 1..=3 {
        b.fact(num, vec![n.into()]);
    }
    let n = |args: &[Value]| args[0].as_int().expect("an int");
    let label_of = b.function("label", move |args| Value::from(format!("L{}", n(args))));
    let single = b.function("single", move |args| ints(&[n(args)]));
    let owner_of = b.function("owner", move |args| {
        SuLattice::single(format!("o{}", n(args)).as_str()).to_value()
    });
    let x = || [Term::var("x")];
    let body = || [BodyItem::atom(num, x())];
    b.rule(Head::new(label, [HeadTerm::app(label_of, x())]), body());
    b.rule(
        Head::new(mark, [HeadTerm::var("x"), HeadTerm::app(single, x())]),
        body(),
    );
    b.rule(
        Head::new(owner, [HeadTerm::var("x"), HeadTerm::app(owner_of, x())]),
        body(),
    );
    let program = b.build().expect("valid");
    (program, Delta::new().retract("Num", vec![2.into()]))
}

/// The sorted facts of every predicate, rendered.
fn model_text(program: &Program, solution: &Solution) -> String {
    let mut text = String::new();
    for (_, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared");
        let mut facts: Vec<String> = facts.map(|fact| fact.to_string()).collect();
        facts.sort();
        writeln!(text, "{}: {facts:?}", decl.name()).expect("write to a string");
    }
    text
}

/// Every value a rule body can hold that the store may have no slot for
/// yet: a `glb`-rebound witness (in a head, and only in the premises it
/// logs), `boxed_join`'s `MinCost` element that is also a join key, a
/// choice's strings — bound, and tested where already bound — and head
/// functions' answers in a key column and as elements of a lattice of
/// closures and of a declared kind. Each program solves to one model with
/// one set of counters at one and four threads, with provenance recorded
/// and not; one fact explains through its premises; and a retracting
/// resume equals a solve from scratch and is a least model.
#[test]
fn values_the_store_never_held_solve_alike_everywhere() {
    // A retraction of a `Cost` row re-derives through `Best(k, c)` first,
    // which binds `c` to the cell, not to the rows below it: retract a cell.
    let (join, _) = boxed_join();
    let best_b = vec!["b".into(), MinCost::finite(9).to_value()];
    let cases = [
        ("glb witness", glb_witness(true), ("R", vec!["p".into()])),
        (
            "glb premise",
            glb_witness(false),
            ("Both", vec!["p".into()]),
        ),
        (
            "boxed join",
            (join, Delta::new().retract("Best", best_b)),
            ("Near", vec!["a".into()]),
        ),
        (
            "choice",
            unstored_choice(),
            ("Hit", vec![2.into(), "n2".into()]),
        ),
        (
            "head functions",
            unstored_heads(),
            ("Owner", vec![3.into()]),
        ),
    ];
    let pinned = [
        ("glb witness", r#"R: ["\"p\", #{2}", "\"q\", #{4}"]"#),
        ("glb witness", r#"Met: ["\"p\", #{2}", "\"q\", #{4}"]"#),
        ("glb premise", r#"Both: ["\"p\"", "\"q\""]"#),
        ("boxed join", r#"Near: ["\"a\"", "\"b\""]"#),
        ("choice", r#"Hit: ["2, \"n2\""]"#),
        ("head functions", r#"Label: ["\"L1\"", "\"L2\"", "\"L3\""]"#),
        (
            "head functions",
            r#"Mark: ["1, #{1}", "2, #{2}", "3, #{3}"]"#,
        ),
    ];
    for (label, (program, retract), (explained, row)) in &cases {
        let mut first: Option<(String, SolveStats)> = None;
        for threads in [1, 4] {
            for provenance in [false, true] {
                let at = format!("{label}/{threads} threads/provenance {provenance}");
                let solver = Solver::new().threads(threads).record_provenance(provenance);
                let solution = solver.solve(program).expect("solves");
                let seen = (model_text(program, &solution), counters(&solution));
                for (of, line) in pinned.iter().filter(|(of, _)| of == label) {
                    assert!(seen.0.contains(line), "{of}: {line}\n{}", seen.0);
                }
                match &first {
                    None => first = Some(seen),
                    Some(first) => assert_eq!(first, &seen, "{at}"),
                }
                if provenance {
                    let tree = solution.explain(explained, row);
                    let tree = tree.map(|tree| tree.to_string());
                    assert!(
                        tree.as_ref().is_some_and(|tree| tree.lines().count() > 1),
                        "{at}: {tree:?}"
                    );
                }
                let resumed = solver.resume(program, &solution, retract).expect("resumes");
                let extended = program.with_delta(retract).expect("fits");
                let scratch = solver.solve(&extended).expect("solves");
                assert_eq!(
                    model_text(program, &resumed),
                    model_text(program, &scratch),
                    "{at}"
                );
                assert!(model::is_model(&extended, &resumed), "{at}");
                assert!(model::is_locally_minimal(&extended, &resumed), "{at}");
            }
        }
    }
}
