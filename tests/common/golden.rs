//! What the two golden captures — `provenance_golden.rs` (the decoded
//! event log) and `capture_golden.rs` (models and work counters) — share:
//! the digest function, the two `work_counters.rs` programs, and the
//! three resume sequences per seed. Changing a program or a sequence here
//! moves the constants of both files.
#![allow(dead_code)] // the parity suites include `common` for `random_program` alone

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::shortest_paths;
use flix::analyses::workloads::graphs;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::lattice::rng::SmallRng;
use flix::lattice::MinCost;
use flix::{Delta, Program, Solver, Strategy, Value, ValueLattice};
use std::sync::Arc;

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub const STRATEGIES: [Strategy; 2] = [Strategy::SemiNaive, Strategy::Naive];

/// `[semi-naïve, naïve]` digests of `run`, each taken at one thread and
/// checked at four: parallel evaluation keeps models, counters and logs
/// bit-identical.
pub fn per_strategy(label: &str, provenance: bool, run: impl Fn(&Solver) -> u64) -> [u64; 2] {
    STRATEGIES.map(|strategy| {
        let solver = |threads| {
            Solver::new()
                .record_provenance(provenance)
                .strategy(strategy)
                .threads(threads)
        };
        let (one, four) = (run(&solver(1)), run(&solver(4)));
        assert_eq!(one, four, "{label}/{strategy:?}: four threads differ");
        one
    })
}

pub fn all_pairs_40() -> Program {
    shortest_paths::build_all_pairs(&graphs::generate(40, 120, 0x5907))
}

pub fn ifds_taint_8x16() -> Program {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 8,
        nodes_per_proc: 16,
        vars_per_proc: 6,
        call_percent: 15,
        seed: 0xDACA90,
    }));
    let taint = Arc::new(Taint::new(model.clone()));
    ifds::flix::build_program(&model.graph, taint)
}

type Edge = Vec<Value>;

/// The asserted `Edge` tuples of `program`, deduplicated, and an edge it
/// does not hold.
fn edges_of(program: &Program, rng: &mut SmallRng) -> (Vec<Edge>, Edge) {
    let mut edges: Vec<Edge> = Vec::new();
    for (pred, values) in program.facts() {
        if program.decl(pred).name() == "Edge" && !edges.iter().any(|e| e == values) {
            edges.push(values.to_vec());
        }
    }
    let fresh = loop {
        let edge: Edge = vec![
            rng.gen_range(0i64..4).into(),
            rng.gen_range(0i64..4).into(),
            rng.gen_range(1i64..10).into(),
        ];
        if !edges.contains(&edge) {
            break edge;
        }
    };
    (edges, fresh)
}

/// The three kinds of sequence, as the deltas of their steps.
pub fn sequences(program: &Program, key_width: usize, seed: u64) -> [Vec<Delta>; 3] {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x90_1DE2);
    let (edges, fresh) = edges_of(program, &mut rng);
    let pick = |rng: &mut SmallRng| edges[rng.index(edges.len())].clone();
    let node = fresh[1].clone();
    let cost = MinCost::finite(2).to_value();
    let inserts = vec![
        Delta::new().insert("Edge", fresh.clone()),
        Delta::new().raise("Dist", vec![node.clone(); key_width], cost),
        Delta::new().insert("Edge", vec![node, fresh[0].clone(), 1.into()]),
    ];
    let (first, second) = (pick(&mut rng), pick(&mut rng));
    let retracts = vec![
        Delta::new().retract("Edge", first),
        Delta::new()
            .retract("Edge", second)
            .insert("Edge", fresh.clone()),
        Delta::new().retract("Edge", fresh),
    ];
    let victim = pick(&mut rng);
    let again = vec![
        Delta::new().retract("Edge", victim.clone()),
        Delta::new().insert("Edge", victim.clone()),
        Delta::new().retract("Edge", victim),
    ];
    [inserts, retracts, again]
}

pub fn pair(digests: [u64; 2]) -> String {
    format!("[{:#018x}, {:#018x}]", digests[0], digests[1])
}
