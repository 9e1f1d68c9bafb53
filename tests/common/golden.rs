//! What the two golden captures — `provenance_golden.rs` (the decoded
//! event log) and `capture_golden.rs` (models and work counters) — share:
//! the digest function, the two `work_counters.rs` programs, the three
//! resume sequences per seed, and the two programs over flat lattices
//! with their resume sequence. Changing a program or a sequence here
//! moves the constants of both files.
#![allow(dead_code)] // the parity suites include `common` for `random_program` alone

use flix::analyses::ide::{self, linear_constant::LinearConstant};
use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::shortest_paths;
use flix::analyses::strong_update;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::analyses::workloads::{c_program, graphs};
use flix::lattice::rng::SmallRng;
use flix::lattice::{Constant, MinCost};
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

/// The programs whose lattices are flat — `random_program` draws
/// `MinCost` only — each with one insert → retract → insert sequence:
/// Figure 4 (`SULattice`) on a small seeded row of Table 1, and Figure 6
/// (IDE, `Constant` values over `Transformer` micro-functions) on a small
/// supergraph. Every step stays warm: no delta reaches `Kill`, the one
/// negated predicate.
pub fn flat_programs() -> [(&'static str, Program, Vec<Delta>); 2] {
    let int = |n: u32| Value::from(n as i64);

    let row = c_program::TABLE_1
        .iter()
        .find(|row| row.name == "456.hmmer")
        .expect("Table 1 lists 456.hmmer");
    // 84 `Single` and 53 `Top` cells in `SUAfter`, 9 `Kill` facts.
    let input = c_program::generate_row(row, 0.002, 1);
    // A store that writes something, and a new edge out of its label.
    let pts = input.andersen();
    let points = |v| pts.get(&v).is_some_and(|objs| !objs.is_empty());
    let &(l, p, q) = input
        .store
        .iter()
        .rfind(|&&(_, p, q)| points(p) && points(q))
        .expect("a store writes");
    let to = (l + 2..input.num_labels)
        .find(|&to| !input.cfg.contains(&(l, to)))
        .expect("a label after");
    let fresh = (l, to);
    let store = vec![int(l), int(p), int(q)];
    let su = vec![
        Delta::new().insert("CFG", vec![int(fresh.0), int(fresh.1)]),
        Delta::new().retract("Store", store.clone()),
        Delta::new().insert("Store", store),
    ];

    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 4,
        nodes_per_proc: 9,
        vars_per_proc: 4,
        call_percent: 25,
        seed: 0xF1A7,
    }));
    let graph = &model.graph;
    // A loop closed by the edge back from 6 to 5 joins 7 of the 9 `Cst`
    // cells of `Result` to `Top`.
    let (from, to) = graph.cfg[6];
    let (edge, back) = (vec![int(from), int(to)], vec![int(to), int(from)]);
    let ide = vec![
        Delta::new().insert("CFG", back).raise(
            "ResultProc",
            vec![int(model.main), 1.into()],
            Constant::cst(5).to_value(),
        ),
        Delta::new().retract("CFG", edge.clone()),
        Delta::new().insert("CFG", edge),
    ];
    let problem = Arc::new(LinearConstant::new(model.clone()));
    [
        (
            "su/456.hmmer",
            strong_update::flix::build_program(&input),
            su,
        ),
        (
            "ide/linear_constant",
            ide::flix::build_program(graph, problem),
            ide,
        ),
    ]
}

pub fn pair(digests: [u64; 2]) -> String {
    format!("[{:#018x}, {:#018x}]", digests[0], digests[1])
}
