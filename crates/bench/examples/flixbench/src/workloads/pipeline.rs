//! `flixr_pipeline`: what `flixr file.flix` does to a generated surface
//! program, from source text in memory to the rendered model. The lattice
//! (`Dist` with `leq`/`lub`/`glb`/`plus`) is written in FLIX, so its
//! operations run in the interpreter: this is the one workload where the
//! front end and interpreter-backed lattice calls do most of the work.

use crate::cx::Cx;
use crate::seeded::{permutation, relabel, MODEL_SEED};
use crate::stats::timed;
use crate::trace::Tracer;
use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{Program, Solution, Solver, Value};
use flix_lang::Interpreter;
use flix_lattice::rng::SmallRng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The declarations of `examples/flix/shortest_paths.flix`, kept here so
/// the benchmark reads nothing outside its own directory.
const PRELUDE: &str = r#"
enum Dist { case Fin(Int), case Inf }

def leq(a: Dist, b: Dist): Bool =
  match (a, b) with {
    case (Dist.Inf, _) => true
    case (_, Dist.Inf) => false
    case (Dist.Fin(x), Dist.Fin(y)) => x >= y
  }

def lub(a: Dist, b: Dist): Dist =
  match (a, b) with {
    case (Dist.Inf, x) => x
    case (x, Dist.Inf) => x
    case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
  }

def glb(a: Dist, b: Dist): Dist =
  match (a, b) with {
    case (Dist.Inf, _) => Dist.Inf
    case (_, Dist.Inf) => Dist.Inf
    case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
  }

let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);

def plus(d: Dist, c: Int): Dist =
  match d with {
    case Dist.Inf => Dist.Inf
    case Dist.Fin(x) => Dist.Fin(x + c)
  }

rel Edge(x: Str, y: Str, c: Int);
lat Reach(node: Str, Dist<>);

Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).
"#;

const NODES: u32 = 5_000;
const EXTRA_EDGES: usize = 15_000;
const INTERPRETER_CALLS: usize = 1 << 16;

/// The generated graph under seeded node names and edge order, and the
/// node every distance is measured from.
fn graph(seed: u64) -> (WeightedGraph, u32) {
    let model = graphs::generate(NODES, EXTRA_EDGES, MODEL_SEED);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = permutation(NODES, &mut rng);
    // The generator's spine makes every node reachable from its node 0.
    (relabel(&model, &ids), ids[0])
}

fn source(graph: &WeightedGraph, origin: u32) -> String {
    let mut text = String::from(PRELUDE);
    writeln!(text, "Reach(\"n{origin}\", Dist.Fin(0)).").expect("write to a string");
    for (a, b, c) in &graph.edges {
        writeln!(text, "Edge(\"n{a}\", \"n{b}\", {c}).").expect("write to a string");
    }
    text
}

/// The model as `flixr` prints it: predicates by name, each fact through
/// `Solution::facts` and `Display`, lines sorted.
fn render(program: &Program, solution: &Solution) -> String {
    let mut names: Vec<&str> = program.predicates().map(|(_, decl)| decl.name()).collect();
    names.sort_unstable();
    let mut text = String::new();
    for name in names {
        let facts = solution.facts(name).expect("declared predicate");
        let mut lines: Vec<String> = facts.map(|fact| format!("{name}({fact})")).collect();
        lines.sort();
        for line in lines {
            text.push_str(&line);
            text.push('\n');
        }
    }
    text
}

fn pipeline(tr: &mut Tracer, i: u64, text: &str) -> Result<String, String> {
    let parsed = tr
        .scope("lang.parse", i, || flix_lang::parse(text))
        .map_err(|e| e.to_string())?;
    let checked = tr
        .scope("lang.check", i, || flix_lang::check(&parsed))
        .map_err(|e| e.to_string())?;
    let program = tr
        .scope("lang.lower", i, || flix_lang::lower(Arc::new(checked)))
        .map_err(|e| e.to_string())?;
    let solution = tr
        .scope("core.solver.solve", i, || Solver::new().solve(&program))
        .map_err(|e| e.to_string())?;
    Ok(tr.scope("lang.render", i, || render(&program, &solution)))
}

pub fn run(cx: &mut Cx) {
    let seed = cx.seed;
    let mut expected = None;
    let (_, _, text) = cx.run(
        |cx| {
            let (graph, origin) = graph(seed);
            let text = source(&graph, origin);
            pipeline(&mut cx.tr, 0, &text).expect("the generated program compiles and solves");
            (graph, origin, text)
        },
        |cx, (graph, origin, text), seconds| {
            // The oracle, computed once: Dijkstra's distances from the origin
            // and the distinct edges, rendered the way the model is.
            let expected = expected.get_or_insert_with(|| -> BTreeSet<String> {
                let reached = graphs::dijkstra(graph, *origin);
                let reached = reached
                    .iter()
                    .enumerate()
                    .filter_map(|(node, d)| d.map(|d| format!("Reach(\"n{node}\", Fin({d}))")));
                let edges = graph
                    .edges
                    .iter()
                    .map(|(a, b, c)| format!("Edge(\"n{a}\", \"n{b}\", {c})"));
                reached.chain(edges).collect()
            });
            cx.closed_loop(seconds, |cx, i| {
                let (rendered, ms) = cx.timed(i, |cx| pipeline(&mut cx.tr, i, text));
                cx.tally(rendered.and_then(|rendered| {
                    let lines: BTreeSet<String> = rendered.lines().map(str::to_string).collect();
                    if &lines == expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "rendered model has {} distinct lines, Dijkstra and the edge list give {}",
                            lines.len(),
                            expected.len()
                        ))
                    }
                }));
                [ms]
            })
        },
    );

    if cx.traced {
        layers(cx, &text);
    }
}

fn layers(cx: &mut Cx, text: &str) {
    cx.layer_from_span("lang.parse_s", "lang.parse");
    cx.layer_from_span("lang.check_s", "lang.check");
    cx.layer_from_span("lang.lower_s", "lang.lower");
    cx.layer_from_span("lang.render_s", "lang.render");

    // `parse` lexes internally; the lexer alone is timed beside it.
    let (tokens, lex_s) = timed(|| flix_lang::lex(text).expect("the generated program lexes"));
    cx.layer("lang.lex_s", lex_s);
    cx.layer("lang.lex_tokens", tokens.len() as f64);

    let parsed = flix_lang::parse(text).expect("the generated program parses");
    cx.layer("lang.parse_decls", parsed.decls.len() as f64);
    let checked = Arc::new(flix_lang::check(&parsed).expect("the generated program checks"));
    let program = flix_lang::lower(checked.clone()).expect("the generated program lowers");
    cx.layer("lang.lower_facts", program.num_facts() as f64);
    let solution = Solver::new()
        .solve(&program)
        .expect("the generated program solves");
    cx.solver_layers(solution.stats());
    cx.layer_from_span("core.solver.solve_s", "core.solver.solve");
    cx.layer(
        "lang.render_bytes",
        render(&program, &solution).len() as f64,
    );

    // The interpreter on the program's own `lub` and `plus`, seeded values.
    let interpreter = Interpreter::new(checked);
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let values: Vec<Value> = (0..256)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => Value::tag0("Inf"),
            _ => Value::tag("Fin", Value::from(rng.gen_range(0..10_000i64))),
        })
        .collect();
    let started = Instant::now();
    for i in 0..INTERPRETER_CALLS {
        let (a, b) = (&values[i % 256], &values[(i * 31 + 7) % 256]);
        let joined = interpreter.call("lub", &[a.clone(), b.clone()]);
        black_box(interpreter.call("plus", &[joined, Value::from(3)]));
    }
    cx.layer(
        "lang.interp.call_ns",
        started.elapsed().as_nanos() as f64 / (2 * INTERPRETER_CALLS) as f64,
    );
}
