//! All-pairs shortest paths on the min-cost lattice — §4.4 of the paper.
//!
//! "FLIX is applicable to other types of fixed-point problems. For
//! example, to compute all-pairs shortest paths, let `(N, ∞, 0, ≥, min,
//! max)` be a lattice over the natural numbers. Then we can compute the
//! shortest paths as follows: `Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).`"
//!
//! This module provides both the single-source form (exactly the paper's
//! rule) and the all-pairs form (the same rule with a source key column),
//! plus extraction back into plain maps. The reference implementation for
//! cross-validation is [`crate::workloads::graphs::dijkstra`].

use crate::workloads::graphs::WeightedGraph;
use flix_core::{
    int_of_slot, slot_of_int, BodyItem, FuncId, Head, HeadTerm, LatticeOps, Program,
    ProgramBuilder, Query, Solver, Term, ValueLattice, WordType, CHAIN_BOTTOM, WORD_FALSE,
};
use flix_lattice::MinCost;
use std::collections::BTreeMap;

/// Registers `extend(d, c)`, the path `d` extended by an edge of weight
/// `c`, with its word form [`extend_word`].
fn extend(b: &mut ProgramBuilder) -> FuncId {
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    let (chain, _) = MinCost::kind().expect("MinCost is a chain");
    let elem = WordType::Elem(chain);
    b.word_form(extend, [elem.clone(), WordType::Slot], elem, extend_word);
    extend
}

/// `extend` over words: `d`, the word of a `MinCost` element — a chain
/// ([`flix_core::LatticeKind::Chain`]) — and `c`, the slot of the weight.
/// ⊥ stays ⊥, and `Fin(d) + c` is the word of the sum while the sum stays
/// in the chain. Any other call — a negative weight, a sum past
/// 2⁶⁰ − 1 — answers `WORD_FALSE`, which is no chain word, so the
/// engine drops it and calls the boxed form instead
/// ([`ProgramBuilder::word_form`]).
pub fn extend_word(words: &[u64]) -> u64 {
    if words[0] == CHAIN_BOTTOM {
        return CHAIN_BOTTOM;
    }
    let sum = int_of_slot(words[0]).zip(int_of_slot(words[1]));
    sum.filter(|&(_, c)| c >= 0)
        .and_then(|(d, c)| slot_of_int(d + c))
        .unwrap_or(WORD_FALSE)
}

/// Builds the single-source program: `Dist(node, MinCost<>)` seeded with
/// `Dist(source, 0)`.
pub fn build_single_source(graph: &WeightedGraph, source: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = extend(&mut b);
    for &(x, y, c) in &graph.edges {
        b.fact(
            edge,
            vec![(x as i64).into(), (y as i64).into(), (c as i64).into()],
        );
    }
    b.fact(
        dist,
        vec![(source as i64).into(), MinCost::finite(0).to_value()],
    );
    // Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
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
    b.build()
        .expect("the shortest-paths program is well-formed")
}

/// Builds the all-pairs program: `Dist(src, node, MinCost<>)` seeded with
/// `Dist(v, v, 0)` for every node.
pub fn build_all_pairs(graph: &WeightedGraph) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 3, LatticeOps::of::<MinCost>());
    let extend = extend(&mut b);
    for &(x, y, c) in &graph.edges {
        b.fact(
            edge,
            vec![(x as i64).into(), (y as i64).into(), (c as i64).into()],
        );
    }
    for v in 0..graph.num_nodes {
        b.fact(
            dist,
            vec![
                (v as i64).into(),
                (v as i64).into(),
                MinCost::finite(0).to_value(),
            ],
        );
    }
    // Dist(s, y, d + c) :- Dist(s, x, d), Edge(x, y, c).
    b.rule(
        Head::new(
            dist,
            [
                HeadTerm::var("s"),
                HeadTerm::var("y"),
                HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
            ],
        ),
        [
            BodyItem::atom(dist, [Term::var("s"), Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );
    b.build().expect("the all-pairs program is well-formed")
}

/// Solves single-source shortest paths with the default solver; `None`
/// entries are unreachable.
pub fn single_source(graph: &WeightedGraph, source: u32) -> Vec<Option<u64>> {
    let solution = Solver::new()
        .solve(&build_single_source(graph, source))
        .expect("finite lattice height on a finite graph");
    let mut out = vec![None; graph.num_nodes as usize];
    for (key, value) in solution.lattice("Dist").expect("declared") {
        let node = key[0].as_int().expect("node") as usize;
        out[node] = MinCost::expect_from(value).value();
    }
    out
}

/// Demand-driven single-target query on the *all-pairs* program: the
/// shortest distance from `source` to `target`, or `None` if `target` is
/// unreachable.
///
/// Instead of materializing all n² distance cells, this runs
/// [`Solver::solve_query`] with the pattern `Dist(source, target, _)`.
/// The demand rewrite observes that the recursive rule propagates the
/// source key unchanged, so the adornment settles on the source column
/// and only the ~n cells reachable from `source` are ever derived — the
/// single-target answer still equals the full all-pairs model's
/// cell-for-cell (the demand parity suite pins this).
pub fn query_distance(graph: &WeightedGraph, source: u32, target: u32) -> Option<u64> {
    let program = build_all_pairs(graph);
    let query = Query::new(
        "Dist",
        vec![
            Some((source as i64).into()),
            Some((target as i64).into()),
            None,
        ],
    );
    let result = Solver::new()
        .solve_query(&program, &[query])
        .expect("finite lattice height on a finite graph");
    result
        .solution()
        .lattice_value("Dist", &[(source as i64).into(), (target as i64).into()])
        .and_then(|v| MinCost::expect_from(&v).value())
}

/// Demand-driven single-source query on the *all-pairs* program: all
/// distances from `source`, without materializing the other n−1 sources'
/// cells. `None` entries are unreachable.
pub fn query_single_source(graph: &WeightedGraph, source: u32) -> Vec<Option<u64>> {
    let program = build_all_pairs(graph);
    let query = Query::new("Dist", vec![Some((source as i64).into()), None, None]);
    let result = Solver::new()
        .solve_query(&program, &[query])
        .expect("finite lattice height on a finite graph");
    let mut out = vec![None; graph.num_nodes as usize];
    for fact in result.answers(0) {
        let node = fact.key()[1].as_int().expect("node") as usize;
        out[node] = MinCost::expect_from(fact.value().expect("lattice cell")).value();
    }
    out
}

/// Solves all-pairs shortest paths; absent keys are unreachable pairs.
pub fn all_pairs(graph: &WeightedGraph) -> BTreeMap<(u32, u32), u64> {
    let solution = Solver::new()
        .solve(&build_all_pairs(graph))
        .expect("finite lattice height on a finite graph");
    let mut out = BTreeMap::new();
    for (key, value) in solution.lattice("Dist").expect("declared") {
        let s = key[0].as_int().expect("source") as u32;
        let n = key[1].as_int().expect("node") as u32;
        if let Some(c) = MinCost::expect_from(value).value() {
            out.insert((s, n), c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::graphs;

    #[test]
    fn single_source_matches_dijkstra() {
        let graph = graphs::generate(30, 60, 5);
        assert_eq!(single_source(&graph, 0), graphs::dijkstra(&graph, 0));
    }

    #[test]
    fn all_pairs_diagonal_is_zero() {
        let graph = graphs::generate(10, 15, 2);
        let apsp = all_pairs(&graph);
        for v in 0..10 {
            assert_eq!(apsp.get(&(v, v)), Some(&0));
        }
    }

    #[test]
    fn all_pairs_agrees_with_repeated_dijkstra() {
        let graph = graphs::generate(12, 25, 9);
        let apsp = all_pairs(&graph);
        for s in 0..graph.num_nodes {
            let dist = graphs::dijkstra(&graph, s);
            for (n, d) in dist.iter().enumerate() {
                assert_eq!(apsp.get(&(s, n as u32)), d.as_ref(), "({s}, {n})");
            }
        }
    }

    #[test]
    fn extend_word_is_extend_on_the_chain_and_declines_the_rest() {
        let word = |c: MinCost| match c.value() {
            None => CHAIN_BOTTOM,
            Some(d) => slot_of_int(d as i64).expect("in the chain"),
        };
        let last = (1 << 60) - 1;
        for d in [MinCost::INFINITY, MinCost::finite(0), MinCost::finite(41)] {
            for c in [0, 1, 17, last - 41] {
                let weight = slot_of_int(c as i64).expect("inline");
                let extended = d.add_weight(c);
                assert_eq!(extend_word(&[word(d), weight]), word(extended), "{d} + {c}");
            }
        }
        let fin = |d: u64| word(MinCost::finite(d));
        let past_the_chain = slot_of_int(last as i64 - 40).expect("inline");
        for args in [
            [fin(41), past_the_chain],
            [fin(3), slot_of_int(-1).expect("inline")],
            [fin(3), WORD_FALSE],
        ] {
            assert_eq!(extend_word(&args), WORD_FALSE, "{args:?}");
        }
    }

    #[test]
    fn unreachable_nodes_stay_at_bottom() {
        // Two disconnected components.
        let graph = WeightedGraph {
            num_nodes: 4,
            edges: vec![(0, 1, 3), (2, 3, 4)],
        };
        let dist = single_source(&graph, 0);
        assert_eq!(dist, vec![Some(0), Some(3), None, None]);
    }
}
