//! `ifds_table2`: the Figure 5 taint IFDS analysis on the jython row of
//! Table 2. Purely relational: no lattice predicate, choice bindings call
//! the flow functions, so lattice fast paths must leave it flat while
//! join, row-set and index work must move it.

use crate::cx::{ratio, Cx};
use crate::seeded::{shuffle, MODEL_SEED};
use crate::stats::{median, timed};
use crate::workloads::table_layers;
use flix_analyses::ifds::problems::Taint;
use flix_analyses::ifds::{self, IfdsResult};
use flix_analyses::workloads::jvm_program::{self, ProgramModel};
use flix_core::{Program, Query, Solution, SolveFailure, Solver};
use flix_lattice::rng::SmallRng;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

const ROW: &str = "jython";
/// Share of the row's size: 13.9k supergraph nodes.
const SCALE: f64 = 0.2;
/// Demand queries chase demand through the magic-set rewrite, which today
/// costs far more than the full solve and grows quadratically with the
/// graph (8 s a query at scale 0.1), so they run on a model of 1.5k nodes.
const DEMAND_SCALE: f64 = 0.02;
const DEMAND_QUERIES: usize = 5;

/// The row's generated program with its control-flow edges and call sites
/// listed in seeded order (statements are indexed by node, so nodes keep
/// their ids).
fn model(scale: f64, seed: u64) -> (Arc<ProgramModel>, Arc<Taint>) {
    let row = jvm_program::TABLE_2
        .iter()
        .find(|row| row.name == ROW)
        .expect("Table 2 lists jython");
    let mut model = jvm_program::generate(jvm_program::params_for_row(row, scale, MODEL_SEED));
    let mut rng = SmallRng::seed_from_u64(seed);
    shuffle(&mut model.graph.cfg, &mut rng);
    shuffle(&mut model.graph.calls, &mut rng);
    let model = Arc::new(model);
    let taint = Arc::new(Taint::new(model.clone()));
    (model, taint)
}

pub fn run(cx: &mut Cx) {
    let solver = Solver::new();
    let seed = cx.seed;
    let mut reference = None;
    let (model, taint, program) = cx.run(
        |cx| {
            let (model, taint) = cx.tr.scope("analyses.generate", 0, || model(SCALE, seed));
            let program = cx.tr.scope("analyses.build_program", 0, || {
                ifds::flix::build_program(&model.graph, taint.clone())
            });
            cx.tr
                .scope("core.solver.solve", 0, || solver.solve(&program))
                .expect("Figure 5 solves");
            (model, taint, program)
        },
        |cx, (model, taint, program), seconds| {
            // One seed, one input: the oracle is computed once.
            let reference = reference
                .get_or_insert_with(|| ifds::imperative::solve(&model.graph, taint.as_ref()));
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
        layers(cx, &model, &taint, &program, &reference, &solver);
        demand_layers(cx);
    }
}

/// The oracle: the `Result` relation equals the hand-written tabulation
/// solver's, over the same flow functions.
fn agrees(
    solution: &Result<Solution, Box<SolveFailure>>,
    reference: &IfdsResult,
) -> Result<(), String> {
    let solution = solution
        .as_ref()
        .map_err(|e| format!("solve failed: {e}"))?;
    let result: IfdsResult = solution
        .relation("Result")
        .expect("declared by Figure 5")
        .map(|row| {
            (
                row[0].as_int().expect("node") as u32,
                row[1].as_int().expect("fact"),
            )
        })
        .collect();
    if &result == reference {
        Ok(())
    } else {
        Err(format!(
            "Result has {} pairs, the imperative solver {}",
            result.len(),
            reference.len()
        ))
    }
}

fn layers(
    cx: &mut Cx,
    model: &ProgramModel,
    taint: &Arc<Taint>,
    program: &Program,
    reference: &IfdsResult,
    solver: &Solver,
) {
    table_layers(
        cx,
        program,
        false,
        || {
            if &ifds::flix::solve_with(&model.graph, taint.clone(), solver) == reference {
                Ok(())
            } else {
                Err("solve_with disagrees with the imperative solver".into())
            }
        },
        || {
            drop(black_box(ifds::imperative::solve(
                &model.graph,
                taint.as_ref(),
            )))
        },
    );
}

/// core.demand: `Result(node, _)` point queries through `solve_query`,
/// beside the full solve of the same (smaller) program; every answer is
/// compared node-wise with the imperative solver.
fn demand_layers(cx: &mut Cx) {
    let (model, taint) = model(DEMAND_SCALE, cx.seed);
    let program = ifds::flix::build_program(&model.graph, taint.clone());
    let reference = ifds::imperative::solve(&model.graph, taint.as_ref());
    let solver = Solver::new();
    let full = solver.solve(&program).expect("Figure 5 solves");
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let mut query_ms = Vec::new();
    let mut derived = Vec::new();
    let mut fallbacks = 0;
    for _ in 0..DEMAND_QUERIES {
        let node = rng.gen_range(0..model.graph.num_nodes);
        let query = Query::new("Result", vec![Some((node as i64).into()), None]);
        let (result, query_s) = timed(|| solver.solve_query(&program, &[query]));
        query_ms.push(query_s * 1e3);
        let expected: BTreeSet<i64> = reference
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, fact)| *fact)
            .collect();
        cx.tally(match result {
            Ok(result) => {
                derived.push(result.stats().facts_derived as f64);
                fallbacks += result.used_fallback() as u32;
                let answers: BTreeSet<i64> = result
                    .answers(0)
                    .map(|fact| fact.key()[1].as_int().expect("fact"))
                    .collect();
                if answers == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "demand query at node {node} disagrees with the imperative solver"
                    ))
                }
            }
            Err(e) => Err(format!("demand query at node {node} failed: {e}")),
        });
    }
    cx.layer("core.demand.query_ms", median(&query_ms));
    cx.layer(
        "core.demand.derived_share",
        ratio(median(&derived), full.stats().facts_derived as f64),
    );
    cx.layer("core.demand.fallbacks", fallbacks as f64);
}
