//! The declarative IFDS solver — Figure 5 of the paper, rule for rule.
//!
//! The flow functions are registered as engine functions returning sets;
//! the `d3 <- eshIntra(n, d2)` arrow syntax of the figure maps onto the
//! engine's choice bindings. Nodes, procedures and facts are integers, so
//! each flow function also has a choice form over their slots: Figure 5
//! derives without a `Value` per derivation.

use super::{Fact, IfdsProblem, IfdsResult, Node, Supergraph};
use flix_core::{
    int_of_slot, slot_of_int, BodyItem, Head, HeadTerm, Program, ProgramBuilder, Query, Solver,
    Term, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An argument of a flow function's choice form: the integer in `slot`.
fn int(slot: u64) -> i64 {
    int_of_slot(slot).expect("flow functions read integers")
}

/// What a flow function's choice form writes: the slots of `facts` in the
/// order of the set its boxed form returns, each once. Facts are small
/// integers (variable numbers), held inline; a fact too wide for a slot
/// would fail the solve as a panic of the flow function.
fn write_facts(mut facts: Vec<Fact>, out: &mut Vec<u64>) {
    facts.sort_unstable();
    facts.dedup();
    out.extend(
        facts
            .into_iter()
            .map(|d| slot_of_int(d).expect("a fact fits an inline slot")),
    );
}

/// Builds the Figure 5 program for a supergraph and problem.
///
/// Nodes, procedures, and facts are all encoded as integers.
pub fn build_program(graph: &Supergraph, problem: Arc<dyn IfdsProblem>) -> Program {
    let mut b = ProgramBuilder::new();

    let cfg = b.relation("CFG", 2);
    let call_graph = b.relation("CallGraph", 2);
    let start_node = b.relation("StartNode", 2);
    let end_node = b.relation("EndNode", 2);
    let path_edge = b.relation("PathEdge", 3);
    let summary_edge = b.relation("SummaryEdge", 3);
    let esh_call_start = b.relation("EshCallStart", 4);
    let result = b.relation("Result", 2);

    let p1 = Arc::clone(&problem);
    let esh_intra = b.function("eshIntra", move |args| {
        let n = args[0].as_int().expect("node") as u32;
        let d = args[1].as_int().expect("fact");
        Value::set(p1.flow(n, d).into_iter().map(Value::Int))
    });
    let p1 = Arc::clone(&problem);
    b.choice_form(esh_intra, 1, move |words, out| {
        write_facts(p1.flow(int(words[0]) as u32, int(words[1])), out);
    });
    let p2 = Arc::clone(&problem);
    let esh_call_start_fn = b.function("eshCallStart", move |args| {
        let call = args[0].as_int().expect("node") as u32;
        let d = args[1].as_int().expect("fact");
        let target = args[2].as_int().expect("proc") as u32;
        Value::set(p2.call_flow(call, d, target).into_iter().map(Value::Int))
    });
    let p2 = Arc::clone(&problem);
    b.choice_form(esh_call_start_fn, 1, move |words, out| {
        let (call, d, target) = (int(words[0]) as u32, int(words[1]), int(words[2]) as u32);
        write_facts(p2.call_flow(call, d, target), out);
    });
    let p3 = Arc::clone(&problem);
    let esh_end_return = b.function("eshEndReturn", move |args| {
        let target = args[0].as_int().expect("proc") as u32;
        let d = args[1].as_int().expect("fact");
        let call = args[2].as_int().expect("node") as u32;
        Value::set(p3.return_flow(target, d, call).into_iter().map(Value::Int))
    });
    let p3 = Arc::clone(&problem);
    b.choice_form(esh_end_return, 1, move |words, out| {
        let (target, d, call) = (int(words[0]) as u32, int(words[1]), int(words[2]) as u32);
        write_facts(p3.return_flow(target, d, call), out);
    });

    // Supergraph facts.
    for &(n, m) in &graph.cfg {
        b.fact(cfg, vec![(n as i64).into(), (m as i64).into()]);
    }
    for call in &graph.calls {
        b.fact(
            call_graph,
            vec![(call.call as i64).into(), (call.target as i64).into()],
        );
    }
    for (proc, info) in graph.procs.iter().enumerate() {
        b.fact(
            start_node,
            vec![(proc as i64).into(), (info.start as i64).into()],
        );
        b.fact(
            end_node,
            vec![(proc as i64).into(), (info.end as i64).into()],
        );
    }
    // Seeds: PathEdge(d, n, d).
    for (n, d) in problem.seeds() {
        b.fact(path_edge, vec![d.into(), (n as i64).into(), d.into()]);
    }

    let v = Term::var;

    // PathEdge(d1, m, d3) :- CFG(n, m), PathEdge(d1, n, d2),
    //                        d3 <- eshIntra(n, d2).
    b.rule(
        Head::new(
            path_edge,
            [HeadTerm::var("d1"), HeadTerm::var("m"), HeadTerm::var("d3")],
        ),
        [
            BodyItem::atom(cfg, [v("n"), v("m")]),
            BodyItem::atom(path_edge, [v("d1"), v("n"), v("d2")]),
            BodyItem::choose(esh_intra, [v("n"), v("d2")], "d3"),
        ],
    );
    // PathEdge(d1, m, d3) :- CFG(n, m), PathEdge(d1, n, d2),
    //                        SummaryEdge(n, d2, d3).
    b.rule(
        Head::new(
            path_edge,
            [HeadTerm::var("d1"), HeadTerm::var("m"), HeadTerm::var("d3")],
        ),
        [
            BodyItem::atom(cfg, [v("n"), v("m")]),
            BodyItem::atom(path_edge, [v("d1"), v("n"), v("d2")]),
            BodyItem::atom(summary_edge, [v("n"), v("d2"), v("d3")]),
        ],
    );
    // PathEdge(d3, start, d3) :- PathEdge(d1, call, d2),
    //                            CallGraph(call, target),
    //                            EshCallStart(call, d2, target, d3),
    //                            StartNode(target, start).
    b.rule(
        Head::new(
            path_edge,
            [
                HeadTerm::var("d3"),
                HeadTerm::var("start"),
                HeadTerm::var("d3"),
            ],
        ),
        [
            BodyItem::atom(path_edge, [v("d1"), v("call"), v("d2")]),
            BodyItem::atom(call_graph, [v("call"), v("target")]),
            BodyItem::atom(esh_call_start, [v("call"), v("d2"), v("target"), v("d3")]),
            BodyItem::atom(start_node, [v("target"), v("start")]),
        ],
    );
    // SummaryEdge(call, d4, d5) :- CallGraph(call, target),
    //                              StartNode(target, start),
    //                              EndNode(target, end),
    //                              EshCallStart(call, d4, target, d1),
    //                              PathEdge(d1, end, d2),
    //                              d5 <- eshEndReturn(target, d2, call).
    b.rule(
        Head::new(
            summary_edge,
            [
                HeadTerm::var("call"),
                HeadTerm::var("d4"),
                HeadTerm::var("d5"),
            ],
        ),
        [
            BodyItem::atom(call_graph, [v("call"), v("target")]),
            BodyItem::atom(start_node, [v("target"), v("start")]),
            BodyItem::atom(end_node, [v("target"), v("end")]),
            BodyItem::atom(esh_call_start, [v("call"), v("d4"), v("target"), v("d1")]),
            BodyItem::atom(path_edge, [v("d1"), v("end"), v("d2")]),
            BodyItem::choose(esh_end_return, [v("target"), v("d2"), v("call")], "d5"),
        ],
    );
    // EshCallStart(call, d, target, d2) :- PathEdge(_, call, d),
    //                                      CallGraph(call, target),
    //                                      d2 <- eshCallStart(call, d, target).
    // This rule tabulates the call flow function so the SummaryEdge rule
    // can consult it in the inverse direction (§4.2 of the paper).
    b.rule(
        Head::new(
            esh_call_start,
            [
                HeadTerm::var("call"),
                HeadTerm::var("d"),
                HeadTerm::var("target"),
                HeadTerm::var("d2"),
            ],
        ),
        [
            BodyItem::atom(path_edge, [Term::Wildcard, v("call"), v("d")]),
            BodyItem::atom(call_graph, [v("call"), v("target")]),
            BodyItem::choose(esh_call_start_fn, [v("call"), v("d"), v("target")], "d2"),
        ],
    );
    // Result(n, d2) :- PathEdge(_, n, d2).
    b.rule(
        Head::new(result, [HeadTerm::var("n"), HeadTerm::var("d2")]),
        [BodyItem::atom(path_edge, [Term::Wildcard, v("n"), v("d2")])],
    );

    b.build().expect("the Figure 5 rule set is well-formed")
}

/// Solves the problem with the given solver configuration.
pub fn solve_with(
    graph: &Supergraph,
    problem: Arc<dyn IfdsProblem>,
    solver: &Solver,
) -> IfdsResult {
    let program = build_program(graph, problem);
    let solution = solver.solve(&program).expect("Figure 5 is stratifiable");
    solution
        .relation("Result")
        .expect("declared")
        .map(|row| {
            (
                row[0].as_int().expect("node") as u32,
                row[1].as_int().expect("fact"),
            )
        })
        .collect()
}

/// Solves the problem with the default solver.
pub fn solve(graph: &Supergraph, problem: Arc<dyn IfdsProblem>) -> IfdsResult {
    solve_with(graph, problem, &Solver::new())
}

/// Demand-driven point query: the dataflow facts holding at one program
/// point, via `Result(node, _)` and the demand rewrite.
///
/// The rewrite chases demand backwards through the Figure 5 rules —
/// `Result(n, _)` demands the path edges *into* `n`, which demand the
/// summary and call-start edges that can feed them — so only the slice
/// of the exploded supergraph that can reach `node` is tabulated. The
/// reported facts are identical to the full [`solve`] restricted to
/// `node` (pinned by the demand parity suite).
pub fn query_node_with(
    graph: &Supergraph,
    problem: Arc<dyn IfdsProblem>,
    node: Node,
    solver: &Solver,
) -> BTreeSet<super::Fact> {
    let program = build_program(graph, problem);
    let query = Query::new("Result", vec![Some((node as i64).into()), None]);
    let result = solver
        .solve_query(&program, &[query])
        .expect("Figure 5 is stratifiable");
    result
        .answers(0)
        .map(|row| row.key()[1].as_int().expect("fact"))
        .collect()
}

/// Demand-driven point query with the default solver.
pub fn query_node(
    graph: &Supergraph,
    problem: Arc<dyn IfdsProblem>,
    node: Node,
) -> BTreeSet<super::Fact> {
    query_node_with(graph, problem, node, &Solver::new())
}
