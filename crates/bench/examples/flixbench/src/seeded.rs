//! What `--seed` draws. Every workload's model is generated from the one
//! constant `MODEL_SEED`, so its size and shape — and with them the work a
//! solve or an update does — are the same in every run. The run's seed
//! then draws a fresh presentation of that model: node, variable and
//! object ids are permuted, the facts of the analyses are asserted in
//! shuffled order, and it draws the operations' parameters (which node a
//! query asks about).
//! Two seeds give the engine different inputs of equal cost; one seed
//! gives the same input again.

use flix_analyses::workloads::graphs::WeightedGraph;
use flix_lattice::rng::SmallRng;

pub const MODEL_SEED: u64 = 0xF11C;

pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// A uniformly drawn permutation of `0..n`.
pub fn permutation(n: u32, rng: &mut SmallRng) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    shuffle(&mut ids, rng);
    ids
}

/// `graph` with node `v` renamed `ids[v]`, its edges in the order they
/// have. That order decides how many intermediate values a shortest-paths
/// cell climbs through, and with them up to a tenth of a solve's
/// derivations, so it belongs to the model and not to the seed.
pub fn relabel(graph: &WeightedGraph, ids: &[u32]) -> WeightedGraph {
    let edges = graph.edges.iter();
    WeightedGraph {
        num_nodes: graph.num_nodes,
        edges: edges
            .map(|&(a, b, c)| (ids[a as usize], ids[b as usize], c))
            .collect(),
    }
}
