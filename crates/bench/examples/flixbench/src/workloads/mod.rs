pub mod ifds;
pub mod incr;
pub mod pipeline;
pub mod service;
pub mod su;

use crate::cx::{solver, Cx};
use crate::stats::{min, seconds};
use flix_core::{Program, Solution};
use std::hint::black_box;

/// The layers the two table workloads share, whose operation is the span
/// `core.solver.solve`: the analysis's whole `analyze` entry point against
/// its parts, the imperative baseline, the counters of one solve, and a
/// second worker thread. `analyze` runs the entry point and checks its
/// result. Returns the fastest solve in seconds and a solved model.
pub fn table_layers(
    cx: &mut Cx,
    program: &Program,
    provenance: bool,
    analyze: impl FnOnce() -> Result<(), String>,
    imperative: impl Fn(),
) -> (f64, Solution) {
    let solve_s = min(&cx.tr.durations_s("core.solver.solve"));
    cx.layer_from_span("analyses.generate_s", "analyses.generate");
    cx.layer_from_span("analyses.build_program_s", "analyses.build_program");
    let build_s = min(&cx.tr.durations_s("analyses.build_program"));
    let analyze_s = seconds(|| cx.tally(analyze()));
    cx.layer("analyses.analyze_s", analyze_s);
    cx.layer(
        "analyses.extract_s",
        (analyze_s - build_s - solve_s).max(0.0),
    );
    let imperative_s: Vec<f64> = (0..5).map(|_| seconds(&imperative)).collect();
    cx.layer("analyses.imperative_s", min(&imperative_s));
    cx.layer(
        "analyses.slowdown_vs_imperative",
        solve_s / min(&imperative_s),
    );

    let solution = solver(provenance, 1)
        .solve(program)
        .expect("the program solves");
    cx.solver_layers(solution.stats());
    let two = solver(provenance, 2);
    let two_threads: Vec<f64> = (0..3)
        .map(|_| seconds(|| drop(black_box(two.solve(program)))))
        .collect();
    cx.layer("core.solver.threads2_speedup", solve_s / min(&two_threads));
    (solve_s, solution)
}
