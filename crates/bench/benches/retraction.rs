//! Retraction bench: withdrawing an edge from the §4.4 shortest-paths
//! fixed point via `Solver::resume` with a retracting delta vs solving
//! the shrunk program from scratch.
//!
//! The resume path over-deletes the cone of consequences reachable from
//! the retracted edge (walking the provenance event log), deleting its
//! facts from the warm-start copy of the model in place, looks each
//! deleted fact up again through the rules that derive it, and
//! re-settles lattice cells at the lub of their remaining justifications
//! (DESIGN §16). Its work follows the cone, so it beats the from-scratch
//! reference at every size here. Two of the three rows measure the floor
//! of a retraction rather than a re-derivation: at 150 and 400 nodes the
//! retracted edge supports no logged derivation (whatever it derived, a
//! cheaper route was already known), the cone is the edge alone, and the
//! resume runs no stratum — `rounds: 0` in the baseline. What those rows
//! time is the update's pass over the extensional store, the copy of the
//! model, and one deletion. The 50-node row has a cone to restore.
//!
//! Both sides run with provenance recording on: the retraction path
//! needs the justification log, and a fair scratch reference must also
//! produce a resumable (provenance-carrying) solution.

use flix_analyses::shortest_paths;
use flix_analyses::workloads::graphs;
use flix_bench::harness::{BenchmarkId, Criterion};
use flix_bench::{criterion_group, criterion_main};
use flix_core::{Delta, Solver, Strategy, Value};

/// The retracted edge: one of the generator's extra edges near the
/// middle of the graph, so some (but not all) distances degrade and the
/// re-derive phase has real work on both sides.
fn retraction_for(graph: &flix_analyses::workloads::graphs::WeightedGraph) -> (u32, u32, u64) {
    graph.edges[graph.edges.len() / 2]
}

fn delta_for(graph: &flix_analyses::workloads::graphs::WeightedGraph) -> Delta {
    let (x, y, c) = retraction_for(graph);
    Delta::new().retract(
        "Edge",
        vec![
            Value::from(x as i64),
            Value::from(y as i64),
            Value::from(c as i64),
        ],
    )
}

fn bench_retraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("retraction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    // Provenance must be on for the exact retraction path; without it the
    // resume degrades to a scratch solve and the comparison is vacuous.
    let solver = Solver::new().record_provenance(true);
    for &(nodes, extra) in &[(50u32, 150usize), (150, 500), (400, 1_500)] {
        let graph = graphs::generate(nodes, extra, 0x5907);
        let base = shortest_paths::build_single_source(&graph, 0);
        let prior = solver.solve(&base).expect("base solves");
        // The from-scratch reference: the same graph with the edge
        // already removed, solved from nothing.
        let retracted = retraction_for(&graph);
        let mut shrunk_graph = graph.clone();
        shrunk_graph.edges.retain(|&e| e != retracted);
        let scratch_program = shortest_paths::build_single_source(&shrunk_graph, 0);
        let delta = delta_for(&graph);

        group.bench_with_input(
            BenchmarkId::new("from_scratch", nodes),
            &scratch_program,
            |b, program| b.iter(|| solver.solve(program).expect("solves")),
        );
        group.bench_with_input(
            BenchmarkId::new("resume_retract_edge", nodes),
            &(&base, &prior, &delta),
            |b, (base, prior, delta)| {
                b.iter(|| solver.resume(base, prior, delta).expect("resumes"))
            },
        );
    }
    group.finish();

    // Instrumented runs outside the timing loops so `--metrics-json`
    // carries comparable profiles (wall_ns of a scratch solve vs a
    // retract-then-resume of the same shrink on each graph).
    for &(nodes, extra) in &[(50u32, 150usize), (150, 500), (400, 1_500)] {
        let graph = graphs::generate(nodes, extra, 0x5907);
        let base = shortest_paths::build_single_source(&graph, 0);
        let prior = solver.solve(&base).expect("base solves");
        let retracted = retraction_for(&graph);
        let mut shrunk_graph = graph.clone();
        shrunk_graph.edges.retain(|&e| e != retracted);
        let scratch_program = shortest_paths::build_single_source(&shrunk_graph, 0);
        let scratch = solver.solve(&scratch_program).expect("solves");
        flix_bench::metrics::record(
            format!("retraction/from_scratch/{nodes}"),
            Strategy::SemiNaive.name(),
            1,
            scratch.stats(),
        );
        let resumed = solver
            .resume(&base, &prior, &delta_for(&graph))
            .expect("resumes");
        flix_bench::metrics::record(
            format!("retraction/resume_retract_edge/{nodes}"),
            Strategy::SemiNaive.name(),
            1,
            resumed.stats(),
        );
    }
}

criterion_group!(benches, bench_retraction);
criterion_main!(benches);
