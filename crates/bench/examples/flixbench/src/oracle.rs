//! The shortest-paths oracle shared by the `flixd_mixed` and `incr_updates`
//! workloads: Dijkstra from every node (`graphs::dijkstra`, which shares no
//! code with the engine), compared cell by cell with a solved model.

use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{Solution, ValueLattice};
use flix_lattice::MinCost;

/// `rows[s][t]`: the shortest distance from `s` to `t`, `None` when unreachable.
pub type Rows = Vec<Vec<Option<u64>>>;

pub fn all_pairs(graph: &WeightedGraph) -> Rows {
    (0..graph.num_nodes)
        .map(|s| graphs::dijkstra(graph, s))
        .collect()
}

/// Checks that the `Dist(s, t, d)` cells of `solution` are exactly the
/// shortest distances `expected`: none wrong, none missing.
pub fn dist_agrees(solution: &Solution, expected: &Rows) -> Result<(), String> {
    let mut finite = 0;
    for (key, value) in solution
        .lattice("Dist")
        .ok_or("no Dist lattice in the model")?
    {
        let s = key[0].as_int().ok_or("Dist source is not an integer")? as usize;
        let t = key[1].as_int().ok_or("Dist target is not an integer")? as usize;
        let distance = MinCost::expect_from(value).value();
        if expected[s][t] != distance {
            return Err(format!(
                "Dist({s}, {t}) is {distance:?}, Dijkstra says {:?}",
                expected[s][t]
            ));
        }
        finite += distance.is_some() as usize;
    }
    let reachable = expected.iter().flatten().filter(|d| d.is_some()).count();
    if finite != reachable {
        return Err(format!(
            "model holds {finite} distances, Dijkstra finds {reachable}"
        ));
    }
    Ok(())
}
