//! The solver's work counters on small seeded workloads, pinned exactly.
//!
//! "Work proportional to the change" is a statement about counts —
//! rounds, rule evaluations, derivations, insertions, index probes —
//! and on a seeded workload those are deterministic: the same on every
//! host and every run. So they are asserted with `==` here, where a
//! wall-clock gate on workloads this small trips on the host's drift
//! more often than on a change. The first 26 vectors were recorded by
//! the `--quick` benches this test replaced (PR 20; same generators,
//! same seeds, the default solver on one thread); then come the
//! surface-language pair — one program compiled from `.flix` text and
//! built from native closures — and the design ablations — naïve against
//! semi-naïve evaluation, and scans against index probes. Two rows were
//! added and pinned at the parent of PR 23, which merged the plan
//! compiler's forks: a demand query that binds a non-first column, and
//! negated lattice atoms with a wildcard key.
//!
//! A pin that moves is a finding: either the engine now does different
//! work for the same answer (say which, and why, where the pin is
//! updated) or it is doing work it should not. In particular a
//! retraction that re-derives a stratum against the whole model, instead
//! of following the cone of the retracted fact, fails
//! `retraction/resume_retract_edge/50`. Wall-clock time at scale is
//! flixbench's job (`BENCHMARK.json`).

#[path = "common/golden.rs"]
mod golden;

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::shortest_paths;
use flix::analyses::workloads::graphs::{self, WeightedGraph};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::SolveStats;
use flix::lattice::rng::SmallRng;
use flix::lattice::MinCost;
use flix::{
    AscentConfig, BodyItem, Delta, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Query,
    Solver, Strategy, Term, TraceConfig, Value, ValueLattice,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// `[rounds, rule_evaluations, facts_derived, facts_inserted,
/// index_probes, scan_fallbacks, strata, total_facts]`.
type Counters = [u64; 8];

fn counters(stats: &SolveStats) -> Counters {
    [
        stats.rounds,
        stats.rule_evaluations,
        stats.facts_derived,
        stats.facts_inserted,
        stats.index_probes,
        stats.scan_fallbacks,
        stats.strata,
        stats.total_facts,
    ]
}

/// The §4.4 graph at one of the three sizes the rows below use.
fn graph(nodes: u32) -> WeightedGraph {
    let extra = match nodes {
        50 => 150,
        150 => 500,
        400 => 1_500,
        other => panic!("no workload at {other} nodes"),
    };
    graphs::generate(nodes, extra, 0x5907)
}

fn single_source_400() -> SolveStats {
    let program = shortest_paths::build_single_source(&graph(400), 0);
    let solution = Solver::new().solve(&program).expect("solves");
    solution.stats().clone()
}

fn all_pairs_40() -> SolveStats {
    let graph = graphs::generate(40, 120, 0x5907);
    let solution = Solver::new()
        .solve(&shortest_paths::build_all_pairs(&graph))
        .expect("solves");
    solution.stats().clone()
}

fn ifds_taint_8x16() -> SolveStats {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 8,
        nodes_per_proc: 16,
        vars_per_proc: 6,
        call_percent: 15,
        seed: 0xDACA90,
    }));
    let taint = Arc::new(Taint::new(model.clone()));
    let program = ifds::flix::build_program(&model.graph, taint);
    let solution = Solver::new().solve(&program).expect("solves");
    solution.stats().clone()
}

fn edge_row((x, y, c): (u32, u32, u64)) -> Vec<Value> {
    vec![
        Value::from(x as i64),
        Value::from(y as i64),
        Value::from(c as i64),
    ]
}

/// The single-edge insertion: a cheap shortcut from the last node into
/// the middle of the graph, so the delta actually propagates.
fn inserted_edge(nodes: u32) -> (u32, u32, u64) {
    (nodes - 1, nodes / 2, 1)
}

fn incremental_from_scratch(nodes: u32) -> SolveStats {
    let mut updated_graph = graph(nodes);
    updated_graph.edges.push(inserted_edge(nodes));
    let scratch_program = shortest_paths::build_single_source(&updated_graph, 0);
    let scratch = Solver::new().solve(&scratch_program).expect("solves");
    scratch.stats().clone()
}

fn incremental_resume(nodes: u32) -> SolveStats {
    let solver = Solver::new();
    let base = shortest_paths::build_single_source(&graph(nodes), 0);
    let prior = solver.solve(&base).expect("base solves");
    let delta = Delta::new().insert("Edge", edge_row(inserted_edge(nodes)));
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
    resumed.stats().clone()
}

/// The retracted edge: one of the generator's extra edges near the
/// middle of the graph. At 50 nodes some distances degrade and the cone
/// has to be restored; at 150 and 400 the edge supports no logged
/// derivation (a cheaper route was already known), the cone is the edge
/// alone, and the resume runs no stratum at all.
fn retracted_edge(graph: &WeightedGraph) -> (u32, u32, u64) {
    graph.edges[graph.edges.len() / 2]
}

/// Provenance is on for both retraction rows: the retraction path needs
/// the justification log, and the scratch reference must produce a
/// resumable solution too.
fn retraction_from_scratch(nodes: u32) -> SolveStats {
    let solver = Solver::new().record_provenance(true);
    let mut shrunk_graph = graph(nodes);
    let retracted = retracted_edge(&shrunk_graph);
    shrunk_graph.edges.retain(|&e| e != retracted);
    let scratch_program = shortest_paths::build_single_source(&shrunk_graph, 0);
    let scratch = solver.solve(&scratch_program).expect("solves");
    scratch.stats().clone()
}

fn retraction_resume(nodes: u32) -> SolveStats {
    let solver = Solver::new().record_provenance(true);
    let graph = graph(nodes);
    let base = shortest_paths::build_single_source(&graph, 0);
    let prior = solver.solve(&base).expect("base solves");
    let delta = Delta::new().retract("Edge", edge_row(retracted_edge(&graph)));
    let resumed = solver.resume(&base, &prior, &delta).expect("resumes");
    resumed.stats().clone()
}

fn demand_full_solve(nodes: u32) -> SolveStats {
    let program = shortest_paths::build_all_pairs(&graph(nodes));
    let full = Solver::new().solve(&program).expect("solves");
    full.stats().clone()
}

/// `Dist(0, target, _)` with `target` bound, or `Dist(0, _, _)`: the
/// demand rewrite settles on the source column either way, so the two
/// point queries do identical work.
fn demand_query(nodes: u32, target: Option<u32>) -> SolveStats {
    let program = shortest_paths::build_all_pairs(&graph(nodes));
    let query = Query::new(
        "Dist",
        vec![
            Some(Value::from(0i64)),
            target.map(|t| Value::from(t as i64)),
            None,
        ],
    );
    let result = Solver::new()
        .solve_query(&program, &[query])
        .expect("queries");
    result.stats().clone()
}

/// `Dist(_, target, _)`: the query binds the *second* column, so the
/// guard binds `y` in `Dist(s, y, d + c) :- Dist(s, x, d), Edge(x, y, c)`
/// and the body runs `Edge` first — the guard's bound set, not the order
/// the atoms were written in, decides the join order.
fn demand_into(nodes: u32, target: u32) -> SolveStats {
    let program = shortest_paths::build_all_pairs(&graph(nodes));
    let query = Query::new("Dist", vec![None, Some(Value::from(target as i64)), None]);
    let result = Solver::new()
        .solve_query(&program, &[query])
        .expect("queries");
    result.stats().clone()
}

/// Negated *lattice* atoms with a wildcard in the key: the cheapest edge
/// `Cost(x, y, c)` per pair of the 50-node graph, then the nodes with no
/// outgoing edge at all (`!Cost(x, _, _)`) and those with none at cost
/// ≤ 3 (`!Cost(x, _, 3)`; a literal `l` matches a cell when `l ⊑ cell`).
/// Neither negation has a ground key, so each is a scan of the settled
/// cells — which, like every negation, counts neither a probe nor a
/// scan fallback.
fn negated_lattice_scan() -> SolveStats {
    let graph = graph(50);
    let mut b = ProgramBuilder::new();
    let node = b.relation("Node", 1);
    let cost = b.lattice("Cost", 3, LatticeOps::of::<MinCost>());
    let sink = b.relation("Sink", 1);
    let pricey = b.relation("Pricey", 1);
    for v in 0..graph.num_nodes {
        b.fact(node, vec![(v as i64).into()]);
    }
    for &(x, y, c) in graph.edges.iter().filter(|&&(x, _, _)| x % 3 != 0) {
        let c = MinCost::finite(c).to_value();
        b.fact(cost, vec![(x as i64).into(), (y as i64).into(), c]);
    }
    let negated = |value: Term| {
        [
            BodyItem::atom(node, [Term::var("x")]),
            BodyItem::not(cost, [Term::var("x"), Term::Wildcard, value]),
        ]
    };
    b.rule(
        Head::new(sink, [HeadTerm::var("x")]),
        negated(Term::Wildcard),
    );
    b.rule(
        Head::new(pricey, [HeadTerm::var("x")]),
        negated(Term::lit(MinCost::finite(3).to_value())),
    );
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    solution.stats().clone()
}

fn traced(solver: Solver) -> SolveStats {
    let program = shortest_paths::build_single_source(&graph(150), 0);
    let solution = solver.solve(&program).expect("solves");
    solution.stats().clone()
}

/// The declarations of `examples/flix/shortest_paths.flix` — the `Dist`
/// lattice and `plus`, written in FLIX — over the 400-node graph, from
/// source text: every `leq`, `lub` and `plus` of the solve runs in
/// `flix_lang`'s evaluator.
fn surface_compiled_400() -> SolveStats {
    let example = include_str!("../examples/flix/shortest_paths.flix");
    let (declarations, _) = example
        .split_once("Reach(\"a\"")
        .expect("the example's first fact");
    let mut text = declarations.to_string();
    text.push_str("Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).\n");
    text.push_str("Reach(\"n0\", Dist.Fin(0)).\n");
    for (x, y, c) in graph(400).edges {
        writeln!(text, "Edge(\"n{x}\", \"n{y}\", {c}).").expect("write to a string");
    }
    let program = flix::compile(&text).expect("compiles");
    let solution = Solver::new().solve(&program).expect("solves");
    solution.stats().clone()
}

/// The same program through `ProgramBuilder`, its lattice and `plus` as
/// Rust closures over the same `Fin(n)` / `Inf` values. The evaluator
/// decides how fast an operation runs, never which ones run: this row
/// and the one above share a pin.
fn surface_native_400() -> SolveStats {
    fn fin(n: i64) -> Value {
        Value::tag("Fin", Value::Int(n))
    }
    /// `None` is `Inf`.
    fn cost(d: &Value) -> Option<i64> {
        d.tag_payload().and_then(Value::as_int)
    }
    let ops = LatticeOps::from_fns(
        "Dist",
        Value::tag0("Inf"),
        Some(fin(0)),
        |a, b| match (cost(a), cost(b)) {
            (None, _) => true,
            (_, None) => false,
            (Some(x), Some(y)) => x >= y,
        },
        |a, b| match (cost(a), cost(b)) {
            (None, _) => b.clone(),
            (_, None) => a.clone(),
            (Some(x), Some(y)) => fin(x.min(y)),
        },
        |a, b| match (cost(a), cost(b)) {
            (Some(x), Some(y)) => fin(x.max(y)),
            _ => Value::tag0("Inf"),
        },
    );
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let reach = b.lattice("Reach", 2, ops);
    let plus = b.function("plus", |args| match cost(&args[0]) {
        None => Value::tag0("Inf"),
        Some(x) => fin(x + args[1].as_int().expect("weight")),
    });
    b.rule(
        Head::new(
            reach,
            [
                HeadTerm::var("y"),
                HeadTerm::app(plus, [Term::var("d"), Term::var("c")]),
            ],
        ),
        [
            BodyItem::atom(reach, [Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );
    b.fact(reach, vec!["n0".into(), fin(0)]);
    for (x, y, c) in graph(400).edges {
        let node = |n: u32| Value::from(format!("n{n}"));
        b.fact(edge, vec![node(x), node(y), (c as i64).into()]);
    }
    let solution = Solver::new()
        .solve(&b.build().expect("valid"))
        .expect("solves");
    solution.stats().clone()
}

/// Transitive closure over a chain plus random edges: the canonical
/// engine micro-workload of the design ablations (DESIGN.md §2, E9).
fn closure_program(nodes: i64, extra: usize, seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();
    let e = b.relation("Edge", 2);
    let p = b.relation("Path", 2);
    for n in 0..nodes - 1 {
        b.fact(e, vec![n.into(), (n + 1).into()]);
    }
    for _ in 0..extra {
        let x = rng.gen_range(0..nodes);
        let y = rng.gen_range(0..nodes);
        b.fact(e, vec![x.into(), y.into()]);
    }
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

fn ablation(solver: Solver) -> SolveStats {
    let solution = solver.solve(&closure_program(60, 60, 7)).expect("solves");
    solution.stats().clone()
}

/// One pinned workload: its name, the instrumented solve, and the
/// counters it must report.
type Row = (&'static str, fn() -> SolveStats, Counters);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("shortest_paths/flix_single_source/400", single_source_400, [11, 11, 4723, 2616, 982, 0, 1, 2292]),
    ("shortest_paths/flix_all_pairs_40", all_pairs_40, [9, 9, 14029, 2533, 3641, 0, 1, 1753]),
    ("table2_ifds/flix_declarative/taint_8x16", ifds_taint_8x16, [62, 412, 758, 878, 2244, 0, 1, 878]),
    ("incremental/from_scratch/50", || incremental_from_scratch(50), [8, 8, 403, 282, 100, 0, 1, 248]),
    ("incremental/resume_single_edge/50", || incremental_resume(50), [4, 4, 14, 5, 4, 0, 1, 248]),
    ("incremental/from_scratch/150", || incremental_from_scratch(150), [10, 10, 1579, 913, 369, 0, 1, 796]),
    ("incremental/resume_single_edge/150", || incremental_resume(150), [2, 2, 2, 2, 1, 0, 1, 796]),
    ("incremental/from_scratch/400", || incremental_from_scratch(400), [11, 11, 4731, 2618, 984, 0, 1, 2293]),
    ("incremental/resume_single_edge/400", || incremental_resume(400), [3, 3, 8, 3, 2, 0, 1, 2293]),
    ("retraction/from_scratch/50", || retraction_from_scratch(50), [9, 9, 416, 285, 103, 0, 1, 246]),
    ("retraction/resume_retract_edge/50", || retraction_resume(50), [3, 3, 22, 3, 6, 0, 1, 246]),
    ("retraction/from_scratch/150", || retraction_from_scratch(150), [10, 10, 1577, 913, 372, 0, 1, 794]),
    ("retraction/resume_retract_edge/150", || retraction_resume(150), [0, 0, 0, 0, 0, 0, 0, 794]),
    ("retraction/from_scratch/400", || retraction_from_scratch(400), [11, 11, 4722, 2615, 982, 0, 1, 2291]),
    ("retraction/resume_retract_edge/400", || retraction_resume(400), [0, 0, 0, 0, 0, 0, 0, 2291]),
    // `demand/full_solve/400` is left out: 0.8 s in release and an
    // order more in a test build; flixbench's `core.demand.*` layers
    // cover demand evaluation at scale.
    ("demand/full_solve/50", || demand_full_solve(50), [10, 10, 19077, 3910, 4847, 0, 1, 2697]),
    ("demand/single_target/50", || demand_query(50, Some(49)), [9, 9, 408, 335, 103, 0, 1, 296]),
    ("demand/single_source/50", || demand_query(50, None), [9, 9, 408, 335, 103, 0, 1, 296]),
    ("demand/full_solve/150", || demand_full_solve(150), [13, 13, 225815, 39595, 52857, 0, 1, 23145]),
    ("demand/single_target/150", || demand_query(150, Some(149)), [10, 10, 1581, 1064, 373, 0, 1, 944]),
    ("demand/single_source/150", || demand_query(150, None), [10, 10, 1581, 1064, 373, 0, 1, 944]),
    ("demand/single_target/400", || demand_query(400, Some(399)), [11, 11, 4723, 3016, 983, 0, 1, 2691]),
    ("demand/single_source/400", || demand_query(400, None), [11, 11, 4723, 3016, 983, 0, 1, 2691]),
    ("demand/any_source_single_target/50", || demand_into(50, 49), [14, 25, 21810, 4464, 5628, 0, 1, 2697]),
    ("negation/lattice_wildcard_key/50", negated_lattice_scan, [2, 2, 50, 227, 0, 0, 1, 226]),
    // Tracing and ascent tracking observe the solve; they must not
    // change what it does.
    ("trace/sp_untraced/150", || traced(Solver::new()), TRACE_PIN),
    ("trace/sp_traced/150", || traced(Solver::new().trace(TraceConfig::default())), TRACE_PIN),
    ("trace/sp_ascent/150", || traced(Solver::new().ascent(AscentConfig::default())), TRACE_PIN),
    // How a lattice's operations are evaluated must not change which
    // are asked for.
    ("surface/compiled_defs/400", surface_compiled_400, SURFACE_PIN),
    ("surface/native_closures/400", surface_native_400, SURFACE_PIN),
    // The design ablations: one program, three ways of evaluating it.
    ("ablation/semi_naive/60", || ablation(Solver::new()), [16, 17, 6960, 3656, 3540, 0, 1, 3656]),
    ("ablation/naive/60", || ablation(Solver::new().strategy(Strategy::Naive)), [16, 32, 72313, 3656, 36278, 0, 1, 3656]),
    ("ablation/full_scan/60", || ablation(Solver::new().use_indexes(false)), [16, 17, 6960, 3656, 0, 3540, 1, 3656]),
];

const TRACE_PIN: Counters = [10, 10, 1581, 914, 372, 0, 1, 795];
const SURFACE_PIN: Counters = [11, 11, 4723, 2616, 982, 0, 1, 2292];

#[test]
fn seeded_workloads_report_exactly_the_pinned_work() {
    let measured: Vec<Counters> = ROWS.iter().map(|(_, run, _)| counters(&run())).collect();
    let mismatches: Vec<String> = ROWS
        .iter()
        .zip(&measured)
        .filter(|((_, _, pin), got)| pin != *got)
        .map(|((name, _, pin), got)| format!("{name}\n  pinned {pin:?}\n  got    {got:?}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "work counters moved on {} of {} rows \
         [rounds, rule_evaluations, facts_derived, facts_inserted, \
         index_probes, scan_fallbacks, strata, total_facts]:\n{}",
        mismatches.len(),
        ROWS.len(),
        mismatches.join("\n")
    );

    // What the ablations exist to show, asserted on the measurements so
    // it survives a deliberate re-pin: for the same model, naïve
    // evaluation re-derives what semi-naïve evaluation does not, and
    // without indexes every join step is a scan.
    let row = |name: &str| {
        let at = ROWS.iter().position(|(n, _, _)| *n == name);
        measured[at.expect("a row of the table")]
    };
    let (semi, naive, unindexed) = (
        row("ablation/semi_naive/60"),
        row("ablation/naive/60"),
        row("ablation/full_scan/60"),
    );
    let [derived, probes, fallbacks, total] = [2, 4, 5, 7];
    assert!(naive[derived] > semi[derived]);
    assert_eq!(naive[total], semi[total]);
    assert_eq!(unindexed[total], semi[total]);
    assert_eq!((semi[fallbacks], unindexed[probes]), (0, 0));
    assert!(semi[probes] > 0 && unindexed[fallbacks] > 0);
}

/// `Seen(s) :- Name(_, s).` over `n` facts `Name(i, "s<i>")`, solved
/// with provenance, then the first `n / 2` facts retracted: the
/// cone-walk counter of that resume. A premise logs the row its `_`
/// matched, so each retracted fact's walk examines the one event that
/// consumed it, not every event whose premise on `Name` holds `_`.
fn wildcard_retraction(n: i64) -> u64 {
    let mut b = ProgramBuilder::new();
    let name = b.relation("Name", 2);
    let seen = b.relation("Seen", 1);
    let fact = |i: i64| vec![Value::from(i), Value::from(format!("s{i}"))];
    for i in 0..n {
        b.fact(name, fact(i));
    }
    b.rule(
        Head::new(seen, [HeadTerm::var("s")]),
        [BodyItem::atom(name, [Term::Wildcard, Term::var("s")])],
    );
    let program = b.build().expect("valid");
    let solver = Solver::new().record_provenance(true);
    let prior = solver.solve(&program).expect("solves");
    let delta = (0..n / 2).fold(Delta::new(), |delta, i| delta.retract("Name", fact(i)));
    let resumed = solver.resume(&program, &prior, &delta).expect("resumes");
    resumed.stats().cone_events_examined
}

/// Figure 6's IDE program of the golden suites, solved with provenance,
/// then the retraction of its sequence — a `CFG` edge — resumed on it.
fn ide_retraction() -> u64 {
    let [_, (_, program, deltas)] = golden::flat_programs();
    let solver = Solver::new().record_provenance(true);
    let prior = solver.solve(&program).expect("solves");
    let resumed = solver
        .resume(&program, &prior, &deltas[1])
        .expect("resumes");
    resumed.stats().cone_events_examined
}

#[test]
fn the_cone_walk_examines_exactly_the_pinned_events() {
    // Each of the n / 2 `Name` facts taken examines its own event and
    // the one event that consumed it; each `Seen` fact taken, its own
    // event: 3n / 2. Linear: doubling n at most doubles the count, plus
    // `SLACK`. Figure 6's IDE program has `_` premises too: its walk
    // examines the consumers of each taken fact, not every event with a
    // `_` premise on the fact's predicate.
    const SLACK: u64 = 0;
    let linear = [2_000, 4_000, 8_000].map(wildcard_retraction);
    assert_eq!(linear, [3_000, 6_000, 12_000]);
    assert!(linear.windows(2).all(|n| n[1] <= 2 * n[0] + SLACK));
    assert_eq!(ide_retraction(), 92);
    // Nothing retracted, nothing walked.
    let solved = Solver::new()
        .solve(&golden::all_pairs_40())
        .expect("solves");
    assert_eq!(solved.stats().cone_events_examined, 0);
}
