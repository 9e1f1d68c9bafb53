//! Incremental parity: `Solver::resume` must agree **cell-for-cell** with
//! a from-scratch solve after every update in a randomized sequence of
//! monotone deltas, under every evaluation strategy — and, since the two
//! share their evaluation code, must independently be the least model of
//! the updated program (`model::is_model` / `model::is_locally_minimal`).
//!
//! The workloads are the paper's case studies: single-source shortest
//! paths (§4.4, with both edge insertions and direct `Dist` lattice
//! raises), the Figure 2 combined dataflow analysis (randomized fact
//! splits across all nine input relations), and the Figure 5 IFDS
//! encoding (CFG edges withheld from a generated JVM-shaped supergraph
//! and re-added incrementally).
//!
//! Sequence count: 15 shortest-paths seeds + 12 dataflow seeds + 8 IFDS
//! seeds = 35 seeded update sequences, each run under 3 configurations
//! (naive, semi-naive, semi-naive x4) = 105 sequences total, each with
//! 2–3 chained resume steps compared against a scratch solve.

mod common;

use flix::analyses::dataflow::{self, DataflowInput};
use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::points_to::PointsToInput;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::model::{is_locally_minimal, is_model};
use flix::core::provenance::Source;
use flix::core::PredId;
use flix::lattice::MinCost;
use flix::{
    BodyItem, Delta, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solution, Solver,
    SolverConfig, Strategy, Term, Value, ValueLattice,
};
use std::collections::HashSet;
use std::sync::Arc;

/// The three configurations under comparison; the parallel one is built
/// through the `SolverConfig` constructor to exercise both API surfaces.
fn configurations() -> Vec<(&'static str, Solver)> {
    vec![
        ("naive", Solver::new().strategy(Strategy::Naive)),
        ("semi-naive", Solver::new()),
        (
            "semi-naive x4",
            Solver::with_config(SolverConfig {
                threads: 4,
                ..SolverConfig::default()
            })
            .expect("valid config"),
        ),
    ]
}

/// Canonical sorted dump of the whole model through the unified fact
/// view, so two solutions can be compared for cell-for-cell equality.
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

/// `solve` and `resume` share all of their evaluation code, so agreeing
/// with each other proves little: every resumed solution is also held
/// against the paper's definition. It must be a model of the base
/// program with every delta so far applied, and no one-step reduction of
/// it may still be one.
fn assert_least_model(label: &str, base: &Program, applied: &Delta, resumed: &Solution) {
    let updated = base
        .with_delta(applied)
        .expect("the deltas fit the program");
    assert!(
        is_model(&updated, resumed),
        "{label}: the resumed solution is not a model of the updated program"
    );
    assert!(
        is_locally_minimal(&updated, resumed),
        "{label}: the resumed solution is not minimal"
    );
}

/// Runs one update sequence under one configuration: solve the base
/// program, then apply each delta with `resume` and assert the result is
/// identical to solving the matching scratch program from nothing, and
/// is the least model of the base program plus the deltas.
fn assert_sequence(label: &str, solver: &Solver, base: &Program, steps: &[(Delta, Program)]) {
    let mut current = solver.solve(base).expect("base solves");
    let mut applied = Delta::new();
    for (i, (delta, scratch_program)) in steps.iter().enumerate() {
        current = solver
            .resume(base, &current, delta)
            .unwrap_or_else(|f| panic!("{label} step {i}: {}", f.error));
        let scratch = solver.solve(scratch_program).expect("scratch solves");
        assert_eq!(
            dump(base, &current),
            dump(scratch_program, &scratch),
            "{label}: resume diverged from scratch at step {i}"
        );
        applied.extend_from(delta);
        assert_least_model(&format!("{label} step {i}"), base, &applied, &current);
    }
}

/// [`assert_sequence`] under every configuration.
fn assert_incremental_parity(label: &str, base: &Program, steps: &[(Delta, Program)]) {
    for (config, solver) in configurations() {
        assert_sequence(&format!("{label}/{config}"), &solver, base, steps);
    }
}

/// Tiny deterministic xorshift generator so sequences are seeded and
/// reproducible without external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// Workload 1: single-source shortest paths (§4.4).
// ---------------------------------------------------------------------

/// The §4.4 program over explicit edges plus extra `Dist` seeds — the
/// scratch mirror of a delta that both inserts edges and lub-raises
/// cells.
fn sp_program(edges: &[(u32, u32, u64)], dist_seeds: &[(u32, u64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    for &(x, y, c) in edges {
        b.fact(
            edge,
            vec![(x as i64).into(), (y as i64).into(), (c as i64).into()],
        );
    }
    b.fact(dist, vec![0i64.into(), MinCost::finite(0).to_value()]);
    for &(n, c) in dist_seeds {
        b.fact(dist, vec![(n as i64).into(), MinCost::finite(c).to_value()]);
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

#[test]
fn shortest_paths_update_sequences_match_scratch() {
    const NODES: u64 = 30;
    for seed in 0..15u64 {
        let mut rng = Rng::new(seed + 1);
        // A random base graph plus a pool of withheld edges.
        let mut all_edges: Vec<(u32, u32, u64)> = Vec::new();
        for _ in 0..70 {
            let x = rng.below(NODES) as u32;
            let y = rng.below(NODES) as u32;
            let c = rng.below(9) + 1;
            if x != y {
                all_edges.push((x, y, c));
            }
        }
        let split = all_edges.len() - 9;
        let base_edges = &all_edges[..split];
        let base = sp_program(base_edges, &[]);

        let mut steps = Vec::new();
        let mut edges_so_far = base_edges.to_vec();
        let mut raises_so_far: Vec<(u32, u64)> = Vec::new();
        for step in 0..3 {
            let chunk = &all_edges[split + step * 3..split + (step + 1) * 3];
            let mut delta = Delta::new();
            for &(x, y, c) in chunk {
                edges_so_far.push((x, y, c));
                delta = delta.insert(
                    "Edge",
                    vec![(x as i64).into(), (y as i64).into(), (c as i64).into()],
                );
            }
            // Every other step also lub-raises a Dist cell directly, as
            // if a better path to that node appeared out of band.
            if step % 2 == 1 {
                let node = rng.below(NODES) as u32;
                let cost = rng.below(4) + 1;
                raises_so_far.push((node, cost));
                delta = delta.raise(
                    "Dist",
                    vec![(node as i64).into()],
                    MinCost::finite(cost).to_value(),
                );
            }
            steps.push((delta, sp_program(&edges_so_far, &raises_so_far)));
        }
        assert_incremental_parity(&format!("shortest-paths seed {seed}"), &base, &steps);
    }
}

// ---------------------------------------------------------------------
// Workload 2: Figure 2 combined dataflow.
// ---------------------------------------------------------------------

/// One input fact of the Figure 2 analysis, tagged by relation.
#[derive(Clone)]
enum DfFact {
    New(String, String),
    Assign(String, String),
    Load(String, String, String),
    Store(String, String, String),
    Int(String, i64),
    Add(String, String, String),
    Div(String, String, String),
}

fn df_input(facts: &[DfFact]) -> DataflowInput {
    let mut input = DataflowInput {
        points_to: PointsToInput::default(),
        ..DataflowInput::default()
    };
    for fact in facts {
        match fact.clone() {
            DfFact::New(a, b) => input.points_to.new.push((a, b)),
            DfFact::Assign(a, b) => input.points_to.assign.push((a, b)),
            DfFact::Load(a, b, c) => input.points_to.load.push((a, b, c)),
            DfFact::Store(a, b, c) => input.points_to.store.push((a, b, c)),
            DfFact::Int(a, n) => input.int_const.push((a, n)),
            DfFact::Add(a, b, c) => input.add_exp.push((a, b, c)),
            DfFact::Div(a, b, c) => input.div_exp.push((a, b, c)),
        }
    }
    input
}

fn df_delta(facts: &[DfFact]) -> Delta {
    let s = |x: &String| Value::from(x.as_str());
    let mut delta = Delta::new();
    for fact in facts {
        delta = match fact {
            DfFact::New(a, b) => delta.insert("New", vec![s(a), s(b)]),
            DfFact::Assign(a, b) => delta.insert("Assign", vec![s(a), s(b)]),
            DfFact::Load(a, b, c) => delta.insert("Load", vec![s(a), s(b), s(c)]),
            DfFact::Store(a, b, c) => delta.insert("Store", vec![s(a), s(b), s(c)]),
            DfFact::Int(a, n) => delta.insert("Int", vec![s(a), Value::Int(*n)]),
            DfFact::Add(a, b, c) => delta.insert("AddExp", vec![s(a), s(b), s(c)]),
            DfFact::Div(a, b, c) => delta.insert("DivExp", vec![s(a), s(b), s(c)]),
        };
    }
    delta
}

#[test]
fn dataflow_update_sequences_match_scratch() {
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed + 101);
        let var = |rng: &mut Rng| format!("v{}", rng.below(8));
        let obj = |rng: &mut Rng| format!("h{}", rng.below(4));
        let field = |rng: &mut Rng| format!("f{}", rng.below(3));
        // A randomized program over a small universe of variables,
        // objects, and fields, touching every input relation.
        let mut all: Vec<DfFact> = Vec::new();
        for _ in 0..5 {
            all.push(DfFact::New(var(&mut rng), obj(&mut rng)));
        }
        for _ in 0..5 {
            all.push(DfFact::Assign(var(&mut rng), var(&mut rng)));
        }
        for _ in 0..3 {
            all.push(DfFact::Store(var(&mut rng), field(&mut rng), var(&mut rng)));
        }
        for _ in 0..3 {
            all.push(DfFact::Load(var(&mut rng), var(&mut rng), field(&mut rng)));
        }
        for _ in 0..4 {
            all.push(DfFact::Int(var(&mut rng), rng.below(20) as i64));
        }
        for _ in 0..3 {
            all.push(DfFact::Add(var(&mut rng), var(&mut rng), var(&mut rng)));
        }
        for _ in 0..2 {
            all.push(DfFact::Div(var(&mut rng), var(&mut rng), var(&mut rng)));
        }
        // Shuffle so each category is split across base and deltas.
        for i in (1..all.len()).rev() {
            let j = rng.below((i + 1) as u64) as usize;
            all.swap(i, j);
        }
        let split = all.len() * 3 / 5;
        let base = dataflow::build_program(&df_input(&all[..split]));
        let rest = &all[split..];
        let per_step = rest.len() / 3;
        let mut steps = Vec::new();
        let mut upto = split;
        for step in 0..3 {
            let end = if step == 2 {
                all.len()
            } else {
                upto + per_step
            };
            let delta = df_delta(&all[upto..end]);
            upto = end;
            steps.push((delta, dataflow::build_program(&df_input(&all[..upto]))));
        }
        assert_incremental_parity(&format!("dataflow seed {seed}"), &base, &steps);
    }
}

// ---------------------------------------------------------------------
// Workload 3: Figure 5 IFDS on a generated JVM-shaped supergraph.
// ---------------------------------------------------------------------

#[test]
fn ifds_update_sequences_match_scratch() {
    for seed in 0..8u64 {
        let model = Arc::new(jvm_program::generate(GenParams {
            num_procs: 4,
            nodes_per_proc: 8,
            vars_per_proc: 4,
            call_percent: 15,
            seed: seed + 31,
        }));
        let problem = Arc::new(Taint::new(model.clone()));
        // Withhold the last six CFG edges and re-add them in two chunks;
        // the flow functions are per-node closures over the full model,
        // so a CFG-edge subset is a valid smaller supergraph.
        let full_cfg = model.graph.cfg.clone();
        assert!(full_cfg.len() > 8, "generated graph too small");
        let withheld = 6;
        let split = full_cfg.len() - withheld;
        let mut base_graph = model.graph.clone();
        base_graph.cfg.truncate(split);
        let base = ifds::flix::build_program(&base_graph, problem.clone());

        let mut steps = Vec::new();
        for step in 0..2 {
            let upto = split + (step + 1) * (withheld / 2);
            let mut delta = Delta::new();
            for &(n, m) in &full_cfg[split + step * (withheld / 2)..upto] {
                delta = delta.insert("CFG", vec![(n as i64).into(), (m as i64).into()]);
            }
            let mut scratch_graph = model.graph.clone();
            scratch_graph.cfg.truncate(upto);
            steps.push((
                delta,
                ifds::flix::build_program(&scratch_graph, problem.clone()),
            ));
        }
        assert_incremental_parity(&format!("IFDS seed {seed}"), &base, &steps);
    }
}

// ---------------------------------------------------------------------
// Workload 4: mixed insert/retract/raise/lower sequences.
// ---------------------------------------------------------------------

/// The three configurations again, plus provenance-recording variants of
/// each — with an event log the retracting steps take the exact
/// over-delete/re-derive path; without one they fall back to a scratch
/// solve. Parity must hold either way.
fn mixed_configurations() -> Vec<(String, Solver)> {
    let mut all = Vec::new();
    for (name, solver) in configurations() {
        all.push((name.to_string(), solver));
    }
    for (name, solver) in configurations() {
        all.push((
            format!("{name} +provenance"),
            solver.record_provenance(true),
        ));
    }
    all
}

#[test]
fn mixed_update_sequences_match_scratch() {
    const NODES: u64 = 20;
    for seed in 0..10u64 {
        let mut rng = Rng::new(seed + 977);
        // A random base graph; every edge is a candidate for retraction.
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for _ in 0..45 {
            let x = rng.below(NODES) as u32;
            let y = rng.below(NODES) as u32;
            let c = rng.below(9) + 1;
            if x != y && !edges.iter().any(|&(a, b, _)| (a, b) == (x, y)) {
                edges.push((x, y, c));
            }
        }
        let withheld = 6.min(edges.len() / 3);
        let split = edges.len() - withheld;
        let base_edges: Vec<(u32, u32, u64)> = edges[..split].to_vec();
        let base = sp_program(&base_edges, &[]);

        // Chain four steps: each inserts a withheld edge, retracts a
        // present one, and on alternating steps raises or lowers a Dist
        // cell out of band. Each step's scratch mirror is rebuilt from
        // the tracked current state.
        let mut current_edges = base_edges.clone();
        let mut pool: Vec<(u32, u32, u64)> = edges[split..].to_vec();
        let mut raises: Vec<(u32, u64)> = Vec::new();
        let mut steps = Vec::new();
        for step in 0..4 {
            let mut delta = Delta::new();
            if let Some(edge) = pool.pop() {
                current_edges.push(edge);
                delta = delta.insert(
                    "Edge",
                    vec![
                        (edge.0 as i64).into(),
                        (edge.1 as i64).into(),
                        (edge.2 as i64).into(),
                    ],
                );
            }
            if !current_edges.is_empty() {
                let victim = rng.below(current_edges.len() as u64) as usize;
                let (x, y, c) = current_edges.remove(victim);
                delta = delta.retract(
                    "Edge",
                    vec![(x as i64).into(), (y as i64).into(), (c as i64).into()],
                );
            }
            if step % 2 == 0 {
                let node = rng.below(NODES) as u32;
                let cost = rng.below(4) + 1;
                raises.push((node, cost));
                delta = delta.raise(
                    "Dist",
                    vec![(node as i64).into()],
                    MinCost::finite(cost).to_value(),
                );
            } else if let Some((node, cost)) = raises.pop() {
                // Withdraw the most recent out-of-band raise; the cell
                // re-settles at the lub of its remaining justifications.
                delta = delta.lower(
                    "Dist",
                    vec![(node as i64).into()],
                    MinCost::finite(cost).to_value(),
                );
            }
            // Every step also carries cancelled pairs — an insertion
            // retracted and a raise lowered within the same delta. They
            // have no net effect on the store, so they must not leak
            // into the resumed model (the scratch mirror ignores them).
            // Weights ≥ 100 and costs ≥ 50 cannot collide with real
            // edges (1..=9) or tracked raises (1..=4), so the pairs
            // cancel exactly instead of retracting live assertions.
            let px = rng.below(NODES) as i64;
            let py = rng.below(NODES) as i64;
            let phantom = vec![px.into(), py.into(), (100 + step as i64).into()];
            delta = delta
                .insert("Edge", phantom.clone())
                .retract("Edge", phantom);
            let pnode = rng.below(NODES) as i64;
            let pcost = MinCost::finite(50 + step as u64).to_value();
            delta = delta
                .raise("Dist", vec![pnode.into()], pcost.clone())
                .lower("Dist", vec![pnode.into()], pcost);
            steps.push((delta, sp_program(&current_edges, &raises)));
        }

        for (config, solver) in mixed_configurations() {
            assert_sequence(
                &format!("mixed seed {seed}/{config}"),
                &solver,
                &base,
                &steps,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Workload 5: retractions on random programs of many rule shapes.
// ---------------------------------------------------------------------

/// What re-derives an over-deleted fact is compiled per rule from the
/// shape of its head, so the shapes matter: the positive core of
/// `strategy_parity`'s random programs brings a lattice key past the
/// plans' inline width, a head that repeats one variable in every key
/// column, a filter, a head one of whose columns a choice binds
/// (`Hop(x, z)`), a head a choice binds whole (`Hop(p, q)` — no column
/// to bind, so the rule runs in full), and optionally the choice inside
/// the recursion. Each seed chains three steps that retract one edge and
/// insert another.
#[test]
fn random_program_retractions_match_scratch() {
    let (mut wide_keys, mut half_bound, mut whole_bound, mut reached) = (0, 0, 0, 0);
    for seed in 0..30u64 {
        let drawn = common::random_program(seed, false);
        let base = drawn.program;
        wide_keys += usize::from(drawn.key_width > 4);
        whole_bound += usize::from(drawn.choice_binds_whole_head);
        half_bound += usize::from(!drawn.choice_binds_whole_head);
        let edge = base.predicate("Edge").expect("declared");
        let mut present: Vec<Vec<Value>> = base
            .facts()
            .filter(|(pred, _)| *pred == edge)
            .map(|(_, tuple)| tuple.to_vec())
            .collect();
        let nodes = 1 + present
            .iter()
            .flat_map(|e| [e[0].as_int(), e[1].as_int()])
            .flatten()
            .max()
            .expect("a graph has edges");

        let mut rng = Rng::new(seed + 4242);
        let mut applied = Delta::new();
        let mut steps = Vec::new();
        for _ in 0..3 {
            let victim = present.swap_remove(rng.below(present.len() as u64) as usize);
            present.retain(|e| *e != victim);
            let arrival: Vec<Value> = vec![
                (rng.below(nodes as u64) as i64).into(),
                (rng.below(nodes as u64) as i64).into(),
                (rng.below(9) as i64 + 1).into(),
            ];
            present.push(arrival.clone());
            let delta = Delta::new().retract("Edge", victim).insert("Edge", arrival);
            applied.extend_from(&delta);
            let scratch = base.with_delta(&applied).expect("the deltas fit");
            steps.push((delta, scratch));
        }
        for (config, solver) in mixed_configurations() {
            assert_sequence(
                &format!("random seed {seed}/{config}"),
                &solver,
                &base,
                &steps,
            );
        }

        // The retractions are not all trivial: a cone that reaches a rule
        // head runs strata.
        let solver = Solver::new().record_provenance(true);
        let solved = solver.solve(&base).expect("solves");
        let resumed = solver.resume(&base, &solved, &steps[0].0).expect("resumes");
        reached += usize::from(resumed.stats().strata > 0);
    }
    assert!(
        wide_keys >= 3,
        "{wide_keys} seeds with a key past the inline width"
    );
    assert!(
        half_bound >= 5,
        "{half_bound} seeds with a half choice-bound head"
    );
    assert!(
        whole_bound >= 5,
        "{whole_bound} seeds with a fully choice-bound head"
    );
    assert!(
        reached >= 15,
        "{reached} seeds whose first retraction re-ran a stratum"
    );
}

// ---------------------------------------------------------------------
// Workload 6: retractions through `_` premises.
// ---------------------------------------------------------------------

/// `Seen(s) :- Name(_, s).` over `Name(i, "s<i mod 40>")` for `i < 64`,
/// and the retraction of `Name(i, …)` for `i < 32`: `Seen("s24")` to
/// `Seen("s31")` lose their only row, `Seen("s0")` to `Seen("s23")` keep
/// another, `Seen("s32")` to `Seen("s39")` lose nothing.
fn names_program() -> (Program, Delta) {
    let mut b = ProgramBuilder::new();
    let name = b.relation("Name", 2);
    let seen = b.relation("Seen", 1);
    let row = |i: i64| vec![Value::from(i), Value::from(format!("s{}", i % 40))];
    for i in 0..64 {
        b.fact(name, row(i));
    }
    b.rule(
        Head::new(seen, [HeadTerm::var("s")]),
        [BodyItem::atom(name, [Term::Wildcard, Term::var("s")])],
    );
    let retract = (0..32).fold(Delta::new(), |delta, i| delta.retract("Name", row(i)));
    (b.build().expect("valid"), retract)
}

/// Figure 5's IFDS encoding on `ifds_taint_8x16`, with one of the
/// `PathEdge` facts it derives asserted too, and the retraction of that
/// assertion: its cone runs through `Result(n, d2) :- PathEdge(_, n, d2)`
/// and the call rule, which read `PathEdge` through `_`, and
/// re-derivation restores what other paths still derive.
fn path_edge_retraction() -> (Program, Delta) {
    let program = common::golden::ifds_taint_8x16();
    let solved = Solver::new().solve(&program).expect("solves");
    let derived: Vec<&[Value]> = solved.relation("PathEdge").expect("declared").collect();
    let edge = derived[derived.len() / 2].to_vec();
    let asserted = Delta::new().insert("PathEdge", edge.clone());
    let base = program.with_delta(&asserted).expect("fits");
    (base, Delta::new().retract("PathEdge", edge))
}

/// A `_` premise logs the row it matched, so an event dies with that row
/// alone and re-derivation finds the rows that still match. Each
/// retraction must still equal a scratch solve and be the least model,
/// under every configuration that records provenance — the ones that
/// walk the cone.
#[test]
fn retractions_through_wildcard_premises_match_scratch() {
    let [_, (_, ide, ide_steps)] = common::golden::flat_programs();
    let cases = [
        ("Name(_, s)", names_program()),
        ("Figure 6 IDE", (ide, ide_steps[1].clone())),
        ("IFDS PathEdge", path_edge_retraction()),
    ];
    for (label, (base, retract)) in cases {
        let scratch_program = base.with_delta(&retract).expect("the delta fits");
        for (config, solver) in configurations() {
            let label = format!("{label}/{config}");
            let solver = solver.record_provenance(true);
            let solved = solver.solve(&base).expect("solves");
            let resumed = solver.resume(&base, &solved, &retract).expect("resumes");
            let scratch = solver.solve(&scratch_program).expect("scratch solves");
            assert_eq!(
                dump(&base, &resumed),
                dump(&scratch_program, &scratch),
                "{label}: resume diverged from scratch"
            );
            let walked = resumed.stats().cone_events_examined;
            assert!(walked > 0, "{label}: a cone was walked");
            // The model is the same in every configuration: checked once.
            if config == "semi-naive" {
                assert_least_model(&label, &base, &retract, &resumed);
            }
        }
    }
}

/// Every premise a log holds names a row the store held when its event
/// was recorded — the row the atom matched, concluded by an earlier live
/// event — `_` key columns included: a `None` is left only in a lattice
/// value column. Checked on the solved log and on the log a retraction
/// leaves.
#[test]
fn every_premise_names_a_row_stored_before_its_event() {
    let [_, (_, ide, ide_steps)] = common::golden::flat_programs();
    let cases = [
        ("Name(_, s)", names_program()),
        ("Figure 6 IDE", (ide, ide_steps[1].clone())),
        ("IFDS PathEdge", path_edge_retraction()),
    ];
    let solver = Solver::new().record_provenance(true);
    for (label, (program, retract)) in cases {
        let solved = solver.solve(&program).expect("solves");
        let resumed = solver.resume(&program, &solved, &retract).expect("resumes");
        for (when, solution) in [("solved", &solved), ("resumed", &resumed)] {
            let key_cols =
                |pred| program.decl(pred).arity() - program.decl(pred).is_lattice() as usize;
            let mut stored: HashSet<(PredId, Vec<Value>)> = HashSet::new();
            let mut named = 0;
            for event in solution.provenance().expect("recorded") {
                if let Source::Rule { premises, .. } = &event.source {
                    for premise in premises {
                        let key: Option<Vec<Value>> = premise.pattern[..key_cols(premise.pred)]
                            .iter()
                            .cloned()
                            .collect();
                        let key = key.unwrap_or_else(|| {
                            panic!("{label}/{when}: a key column of {premise:?} is `_`")
                        });
                        assert!(
                            stored.contains(&(premise.pred, key)),
                            "{label}/{when}: {premise:?} names no stored row"
                        );
                        named += 1;
                    }
                }
                let key = event.tuple[..key_cols(event.pred)].to_vec();
                stored.insert((event.pred, key));
            }
            assert!(named > 0, "{label}/{when}: the log holds premises");
        }
    }
}
