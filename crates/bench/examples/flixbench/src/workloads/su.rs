//! `su_table1` and `su_provenance`: the Figure 4 Strong Update analysis on
//! the 456.hmmer row of Table 1, solved by the default solver (compiled
//! kernels, no provenance) and with provenance recording, which today
//! forces the generic evaluator. Input and program are identical, so the
//! two workloads differ only in how the solver is used.

use crate::cx::{ratio, solver, Cx};
use crate::seeded::{permutation, shuffle, MODEL_SEED};
use crate::stats::{median, min, seconds, timed};
use crate::workloads::table_layers;
use flix_analyses::strong_update::{self, parse_obj, SuInput, SuResult};
use flix_analyses::workloads::c_program;
use flix_core::{AscentConfig, Program, Solution, SolveFailure, Solver, Value};
use flix_lattice::rng::SmallRng;
use flix_lattice::{Lattice, SuLattice};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const ROW: &str = "456.hmmer";
/// Share of the row's 140k input facts: 696 input facts, 119k derived.
/// The solve is already superlinear here (half the scale derives 7k).
const SCALE: f64 = 0.01;
const EXPLAINED_FACTS: usize = 50;
const LATTICE_CALLS: usize = 1 << 20;

/// The row's generated pointer program with variables, objects and labels
/// renamed by seeded permutations and every fact list shuffled.
fn input(seed: u64) -> SuInput {
    let row = c_program::TABLE_1
        .iter()
        .find(|row| row.name == ROW)
        .expect("Table 1 lists 456.hmmer");
    let model = c_program::generate_row(row, SCALE, MODEL_SEED);
    let mut rng = SmallRng::seed_from_u64(seed);
    let vars = permutation(model.num_vars, &mut rng);
    let objs = permutation(model.num_objs, &mut rng);
    let labels = permutation(model.num_labels, &mut rng);
    let (v, o, l) = (
        |id: u32| vars[id as usize],
        |id: u32| objs[id as usize],
        |id: u32| labels[id as usize],
    );
    let mut input = SuInput {
        addr_of: model.addr_of.iter().map(|&(p, a)| (v(p), o(a))).collect(),
        copy: model.copy.iter().map(|&(p, q)| (v(p), v(q))).collect(),
        load: model
            .load
            .iter()
            .map(|&(at, p, q)| (l(at), v(p), v(q)))
            .collect(),
        store: model
            .store
            .iter()
            .map(|&(at, p, q)| (l(at), v(p), v(q)))
            .collect(),
        cfg: model
            .cfg
            .iter()
            .map(|&(from, to)| (l(from), l(to)))
            .collect(),
        kill: model.kill.iter().map(|&(at, a)| (l(at), o(a))).collect(),
        ..model
    };
    shuffle(&mut input.addr_of, &mut rng);
    shuffle(&mut input.copy, &mut rng);
    shuffle(&mut input.load, &mut rng);
    shuffle(&mut input.store, &mut rng);
    shuffle(&mut input.cfg, &mut rng);
    shuffle(&mut input.kill, &mut rng);
    input
}

pub fn run(cx: &mut Cx, provenance: bool) {
    let solver = solver(provenance, 1);
    let seed = cx.seed;
    let mut reference = None;
    let (input, program) = cx.run(
        |cx| {
            let input = cx.tr.scope("analyses.generate", 0, || input(seed));
            let program = cx.tr.scope("analyses.build_program", 0, || {
                strong_update::flix::build_program(&input)
            });
            // The first solve pays the lazy set-up (symbol interning, heap
            // growth); it is warm-up, not a sample.
            cx.tr
                .scope("core.solver.solve", 0, || solver.solve(&program))
                .expect("Figure 4 solves");
            (input, program)
        },
        |cx, (input, program), seconds| {
            // One seed, one input: the oracle is computed once.
            let reference =
                reference.get_or_insert_with(|| strong_update::imperative::analyze(input));
            cx.closed_loop(seconds, |cx, i| {
                let (solution, ms) = cx.timed(i, |cx| {
                    cx.tr
                        .scope("core.solver.solve", i, || solver.solve(program))
                });
                cx.tally(agrees(&solution, reference));
                [ms]
            })
        },
    );
    let reference = reference.expect("every segment ran its window");

    if cx.traced {
        layers(cx, &input, &program, &reference, &solver, provenance);
    }
}

/// The oracle: `Pt` and `PtH` of the solved model equal those of the
/// hand-written imperative solver (what `assert_pt_agree` compares).
fn agrees(
    solution: &Result<Solution, Box<SolveFailure>>,
    reference: &SuResult,
) -> Result<(), String> {
    let solution = solution
        .as_ref()
        .map_err(|e| format!("solve failed: {e}"))?;
    let pairs = |name: &str, first_is_obj: bool| -> BTreeSet<(u32, u32)> {
        let obj = |v: &Value| parse_obj(v.as_str().expect("object name"));
        solution
            .relation(name)
            .expect("declared by Figure 4")
            .map(|row| {
                let first = if first_is_obj {
                    obj(&row[0])
                } else {
                    row[0].as_int().expect("variable id") as u32
                };
                (first, obj(&row[1]))
            })
            .collect()
    };
    if pairs("Pt", false) != reference.pt {
        return Err("Pt disagrees with the imperative solver".into());
    }
    if pairs("PtH", true) != reference.pt_heap {
        return Err("PtH disagrees with the imperative solver".into());
    }
    Ok(())
}

fn layers(
    cx: &mut Cx,
    input: &SuInput,
    program: &Program,
    reference: &SuResult,
    solver: &Solver,
    provenance: bool,
) {
    let (solve_s, solution) = table_layers(
        cx,
        program,
        provenance,
        || {
            let result = strong_update::flix::analyze_with(input, solver);
            if result.pt == reference.pt && result.pt_heap == reference.pt_heap {
                Ok(())
            } else {
                Err("analyze_with disagrees with the imperative solver".into())
            }
        },
        || drop(black_box(strong_update::imperative::analyze(input))),
    );

    // lattice: the closures the solver calls, directly, and how high cells climb.
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let elements: Vec<SuLattice> = (0..1024)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => SuLattice::Bottom,
            1 => SuLattice::Top,
            _ => SuLattice::single(strong_update::obj_name(rng.gen_range(0..input.num_objs))),
        })
        .collect();
    let per_call_ns = |f: &dyn Fn(&SuLattice, &SuLattice)| {
        let started = Instant::now();
        for i in 0..LATTICE_CALLS {
            f(&elements[i % 1024], &elements[(i * 31 + 7) % 1024]);
        }
        started.elapsed().as_nanos() as f64 / LATTICE_CALLS as f64
    };
    cx.layer(
        "lattice.su_lub_ns",
        per_call_ns(&|a, b| drop(black_box(a.lub(b)))),
    );
    cx.layer(
        "lattice.su_leq_ns",
        per_call_ns(&|a, b| {
            black_box(a.leq(b));
        }),
    );
    let ascent = solver
        .clone()
        .ascent(AscentConfig::default())
        .solve(program)
        .expect("Figure 4 solves")
        .ascent_report(0)
        .expect("ascent telemetry was on");
    cx.layer("lattice.cells", ascent.cells as f64);
    cx.layer("lattice.max_height", ascent.max_height as f64);

    if !provenance {
        return;
    }
    // core.provenance: what recording costs over the same solve without
    // it, and what `explain` costs on seeded facts of the model.
    cx.layer(
        "core.provenance.events",
        solution.provenance().map_or(0, <[_]>::len) as f64,
    );
    let plain = crate::cx::solver(false, 1);
    let plain_s: Vec<f64> = (0..3)
        .map(|_| seconds(|| drop(black_box(plain.solve(program)))))
        .collect();
    cx.layer(
        "core.provenance.overhead_ratio",
        ratio(solve_s, min(&plain_s)),
    );
    let facts: Vec<Vec<Value>> = solution
        .relation("Pt")
        .expect("declared by Figure 4")
        .map(<[Value]>::to_vec)
        .collect();
    let explain_ms: Vec<f64> = (0..EXPLAINED_FACTS)
        .map(|_| {
            let fact = &facts[rng.index(facts.len())];
            let (tree, explain_s) = timed(|| solution.explain("Pt", fact));
            cx.tally(match tree {
                Some(tree) if tree.predicate == "Pt" && &tree.tuple == fact => Ok(()),
                _ => Err(format!("no derivation tree for Pt{fact:?}")),
            });
            explain_s * 1e3
        })
        .collect();
    cx.layer("core.provenance.explain_ms", median(&explain_ms));
}
