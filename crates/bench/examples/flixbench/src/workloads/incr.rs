//! `incr_updates`: `Solver::resume` alone — no socket, no fsync, no
//! batching — on the all-pairs shortest-paths model with provenance on.
//! One operation resumes the same solved base model ten times, each with a
//! one-edge delta: five monotone inserts, then five DRed retracts, the two
//! paths through `core::incremental`. The per-layer metrics time the two
//! delta kinds apart, so a gain for one that costs the other shows.

use crate::cx::{ratio, solver, Cx};
use crate::oracle::{all_pairs, dist_agrees, Rows};
use crate::seeded::{permutation, relabel, MODEL_SEED};
use crate::stats::{min, timed};
use flix_analyses::shortest_paths;
use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{Delta, Program, Solution, SolveFailure, Solver, Value};
use flix_lattice::rng::SmallRng;
use flix_lattice::{Lattice, MinCost};
use std::hint::black_box;
use std::time::Instant;

/// 100 nodes: a model of 10k `Dist` cells over about 400 edges, the size
/// `flixd_mixed` keeps resident, so the two workloads compare.
pub const NODES: u32 = 100;
pub const EXTRA_EDGES: usize = 300;
/// One operation resumes the base model once for each of this many edges
/// of each delta kind. What a resume costs depends on the edge, so the
/// edges are fixed with the model and every operation covers them all.
const OP_EDGES: usize = 5;
/// Passes over the edges for the per-resume layers.
const LAYER_PASSES: usize = 3;
const SPAN: &str = "core.incremental.resume";

type Edge = (u32, u32, u64);

fn edge_tuple((a, b, c): Edge) -> Vec<Value> {
    vec![(a as i64).into(), (b as i64).into(), (c as i64).into()]
}

/// The graph under seeded node ids, with the edges to retract (in the
/// graph) and to insert (weight-1 shortcuts it lacks).
struct Model {
    graph: WeightedGraph,
    retracts: Vec<Edge>,
    inserts: Vec<Edge>,
}

impl Model {
    fn edges(&self, retract: bool) -> &[Edge] {
        if retract {
            &self.retracts
        } else {
            &self.inserts
        }
    }

    fn changes(&self, retract: bool) -> Vec<Change> {
        let edges = self.edges(retract).iter();
        edges
            .map(|&edge| change(&self.graph, edge, retract))
            .collect()
    }
}

fn model(seed: u64) -> Model {
    let model = graphs::generate(NODES, EXTRA_EDGES, MODEL_SEED);
    let mut fixed = SmallRng::seed_from_u64(MODEL_SEED);
    let mut retracts: Vec<Edge> = Vec::new();
    let mut inserts: Vec<Edge> = Vec::new();
    while retracts.len() < OP_EDGES {
        let edge = model.edges[fixed.index(model.edges.len())];
        if !retracts.contains(&edge) {
            retracts.push(edge);
        }
    }
    while inserts.len() < OP_EDGES {
        let edge = (fixed.gen_range(0..NODES), fixed.gen_range(0..NODES), 1);
        if edge.0 != edge.1 && !model.edges.contains(&edge) && !inserts.contains(&edge) {
            inserts.push(edge);
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = permutation(NODES, &mut rng);
    let renamed = |&(a, b, c): &Edge| (ids[a as usize], ids[b as usize], c);
    Model {
        graph: relabel(&model, &ids),
        retracts: retracts.iter().map(renamed).collect(),
        inserts: inserts.iter().map(renamed).collect(),
    }
}

/// A one-edge delta and the oracle for the model it leads to: all-pairs
/// Dijkstra on the changed graph.
struct Change {
    delta: Delta,
    expected: Rows,
}

fn change(graph: &WeightedGraph, edge: Edge, retract: bool) -> Change {
    let mut changed = graph.clone();
    let delta = if retract {
        changed.edges.retain(|e| *e != edge);
        Delta::new().retract("Edge", edge_tuple(edge))
    } else {
        changed.edges.push(edge);
        Delta::new().insert("Edge", edge_tuple(edge))
    };
    Change {
        delta,
        expected: all_pairs(&changed),
    }
}

fn agrees(result: &Result<Solution, Box<SolveFailure>>, expected: &Rows) -> Result<(), String> {
    match result {
        Ok(solution) => dist_agrees(solution, expected),
        Err(e) => Err(format!("resume failed: {e}")),
    }
}

pub fn run(cx: &mut Cx) {
    let solver = solver(true, 1);
    let seed = cx.seed;
    // The deltas with their oracles, computed once: one seed, one model.
    let mut changes = None;
    let (model, program, base) = cx.run(
        |cx| {
            let model = model(seed);
            let program = shortest_paths::build_all_pairs(&model.graph);
            let base = cx
                .tr
                .scope("core.solver.solve", 0, || solver.solve(&program))
                .expect("shortest paths solve");
            // One resume of each kind as warm-up.
            for retract in [false, true] {
                let warm_up = change(&model.graph, model.edges(retract)[0], retract).delta;
                solver
                    .resume(&program, &base, &warm_up)
                    .expect("the warm-up resume succeeds");
            }
            (model, program, base)
        },
        |cx, (model, program, base), seconds| {
            let (inserts, retracts) = changes.get_or_insert_with(|| {
                cx.tally(dist_agrees(base, &all_pairs(&model.graph)));
                (model.changes(false), model.changes(true))
            });
            // One operation is a cycle over the deltas, one part each; the
            // oracle runs between the parts.
            cx.closed_loop(seconds, |cx, i| {
                let mut parts = [0.0; 2 * OP_EDGES];
                for (part, change) in parts.iter_mut().zip(inserts.iter().chain(retracts.iter())) {
                    let (result, ms) = cx.timed(i, |cx| {
                        cx.tr
                            .scope(SPAN, i, || solver.resume(program, base, &change.delta))
                    });
                    cx.tally(agrees(&result, &change.expected));
                    *part = ms;
                }
                parts
            })
        },
    );

    if cx.traced {
        let (inserts, retracts) = changes.expect("every segment ran its window");
        layers(cx, &model.graph, &program, &base, &inserts, &retracts);
    }
}

/// Direct `MinCost::lub` calls on seeded elements, nanoseconds each.
pub fn mincost_lub_ns(seed: u64) -> f64 {
    const CALLS: usize = 1 << 22;
    let mut rng = SmallRng::seed_from_u64(seed);
    let elements: Vec<MinCost> = (0..1024)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => MinCost::bottom(),
            _ => MinCost::finite(rng.gen_range(0..10_000u64)),
        })
        .collect();
    let started = Instant::now();
    for i in 0..CALLS {
        black_box(elements[i % 1024].lub(&elements[(i * 31 + 7) % 1024]));
    }
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

fn layers(
    cx: &mut Cx,
    graph: &WeightedGraph,
    program: &Program,
    base: &Solution,
    inserts: &[Change],
    retracts: &[Change],
) {
    cx.solver_layers(base.stats());
    cx.layer(
        "core.provenance.events",
        base.provenance().map_or(0, <[_]>::len) as f64,
    );
    cx.layer("lattice.mincost_lub_ns", mincost_lub_ns(cx.seed));

    let solver = solver(true, 1);
    // Milliseconds and derivations of one checked resume of `base`.
    let resume = |cx: &mut Cx, solver: &Solver, base: &Solution, change: &Change| {
        let (result, resume_s) = timed(|| solver.resume(program, base, &change.delta));
        let derived = result.as_ref().map_or(0, |s| s.stats().facts_derived);
        cx.tally(agrees(&result, &change.expected));
        (resume_s * 1e3, derived)
    };
    // One resume of each kind: per edge the fastest of a few passes, then
    // the mean over the edges. The first edge gives the derivation count.
    let kind = |cx: &mut Cx, changes: &[Change]| {
        let mut fastest = vec![f64::INFINITY; changes.len()];
        let mut derived = 0;
        for _ in 0..LAYER_PASSES {
            for (edge, change) in changes.iter().enumerate() {
                let (ms, count) = resume(cx, &solver, base, change);
                fastest[edge] = fastest[edge].min(ms);
                if edge == 0 {
                    derived = count;
                }
            }
        }
        (fastest.iter().sum::<f64>() / changes.len() as f64, derived)
    };
    let (insert_ms, insert_derived) = kind(cx, inserts);
    let (retract_ms, retract_derived) = kind(cx, retracts);
    cx.layer("core.incremental.insert_ms", insert_ms);
    cx.layer("core.incremental.retract_ms", retract_ms);
    cx.layer("core.incremental.insert_derived", insert_derived as f64);
    cx.layer("core.incremental.retract_derived", retract_derived as f64);

    // The fixed cost of any resume: insert an edge the model already has.
    let noop = Change {
        delta: Delta::new().insert("Edge", edge_tuple(graph.edges[0])),
        expected: all_pairs(graph),
    };
    let noop_ms: Vec<f64> = (0..10)
        .map(|_| resume(cx, &solver, base, &noop).0)
        .collect();
    cx.layer("core.incremental.noop_resume_ms", min(&noop_ms));

    // The same inserts without a provenance log to carry.
    let plain = Solver::new();
    let plain_base = plain.solve(program).expect("shortest paths solve");
    let noprov_ms: Vec<f64> = inserts
        .iter()
        .chain(inserts)
        .map(|c| resume(cx, &plain, &plain_base, c).0)
        .collect();
    cx.layer("core.incremental.insert_noprov_ms", min(&noprov_ms));

    // What a retraction competes with: solving the changed program from scratch.
    let scratch_ms: Vec<f64> = retracts
        .iter()
        .map(|change| {
            let updated = program
                .with_delta(&change.delta)
                .expect("the delta fits the program");
            let (result, solve_s) = timed(|| solver.solve(&updated));
            cx.tally(agrees(&result, &change.expected));
            solve_s * 1e3
        })
        .collect();
    cx.layer("core.incremental.scratch_solve_ms", min(&scratch_ms));
    cx.layer(
        "core.incremental.retract_over_scratch",
        ratio(retract_ms, min(&scratch_ms)),
    );
}
