//! Integration tests of the IFDS (Figure 5) and IDE (Figures 6–7)
//! formulations through the facade, including the paper's structural
//! claim — "IDE is a generalization of IFDS" — as executable assertions.

use flix::analyses::ide::{self, linear_constant::LinearConstant, IdentityIde};
use flix::analyses::ifds::{self, problems};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::lattice::{Constant, Flat, Transformer};
use flix::Strategy;
use std::sync::Arc;

fn medium_model() -> Arc<jvm_program::ProgramModel> {
    Arc::new(jvm_program::generate(GenParams {
        num_procs: 6,
        nodes_per_proc: 12,
        vars_per_proc: 5,
        call_percent: 20,
        seed: 0x1DE5,
    }))
}

#[test]
fn declarative_ifds_equals_imperative_at_medium_scale() {
    let model = medium_model();
    let problem = Arc::new(problems::Taint::new(model.clone()));
    let imperative = ifds::imperative::solve(&model.graph, problem.as_ref());
    let declarative = ifds::flix::solve(&model.graph, problem);
    assert_eq!(imperative, declarative);
    assert!(!imperative.is_empty());
}

#[test]
fn declarative_ifds_strategies_agree() {
    let model = medium_model();
    let problem = Arc::new(problems::UninitVars::new(model.clone()));
    let semi = ifds::flix::solve(&model.graph, problem.clone());
    let naive = ifds::flix::solve_with(
        &model.graph,
        problem.clone(),
        &flix::Solver::new().strategy(Strategy::Naive),
    );
    let parallel = ifds::flix::solve_with(&model.graph, problem, &flix::Solver::new().threads(4));
    assert_eq!(semi, naive);
    assert_eq!(semi, parallel);
}

#[test]
fn declarative_ide_equals_imperative_at_medium_scale() {
    let model = medium_model();
    let problem = Arc::new(LinearConstant::new(model.clone()));
    let imperative = ide::imperative::solve(&model.graph, problem.as_ref());
    let declarative = ide::flix::solve(&model.graph, problem);
    assert_eq!(imperative.values, declarative.values);
    assert!(!imperative.values.is_empty());
}

/// §4.3's claim as a theorem over random programs: IDE with identity
/// micro-functions computes exactly the IFDS solution, for both problems.
#[test]
fn ide_generalises_ifds() {
    for seed in [1u64, 2, 3, 4] {
        let model = Arc::new(jvm_program::generate(GenParams {
            num_procs: 4,
            nodes_per_proc: 9,
            vars_per_proc: 4,
            call_percent: 25,
            seed,
        }));
        let ifds_result =
            ifds::imperative::solve(&model.graph, &problems::Taint::new(model.clone()));
        let ide_result = ide::imperative::solve(
            &model.graph,
            &IdentityIde(problems::Taint::new(model.clone())),
        );
        assert_eq!(ide_result.reachable(), ifds_result, "seed {seed}");
    }
}

/// The micro-function algebra of Figure 7 drives real constant values
/// through calls: a callee computing `2x + 1` applied to the constant 3.
#[test]
fn ide_tracks_linear_constants_through_calls() {
    use flix::analyses::ifds::{CallSite, ProcInfo, Supergraph};
    use jvm_program::{ProgramModel, Stmt};
    // main: n0 | n1 a=3 | n2 r=f(a) | n3 end     f: n4 | n5 ret=2*p+1 | n6 end
    // vars: a=0, r=1 (main); p=2, ret=3 (f)
    let model = Arc::new(ProgramModel {
        graph: Supergraph {
            num_nodes: 7,
            procs: vec![ProcInfo { start: 0, end: 3 }, ProcInfo { start: 4, end: 6 }],
            cfg: vec![(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)],
            calls: vec![CallSite { call: 2, target: 1 }],
            proc_of: vec![0, 0, 0, 0, 1, 1, 1],
        },
        stmts: vec![
            Stmt::Nop,
            Stmt::Const { dst: 0, k: 3 },
            Stmt::Call {
                args: vec![(0, 2)],
                ret_dst: Some(1),
            },
            Stmt::Nop,
            Stmt::Nop,
            Stmt::Linear {
                dst: 3,
                src: 2,
                a: 2,
                b: 1,
            },
            Stmt::Nop,
        ],
        proc_vars: vec![vec![0, 1], vec![2, 3]],
        proc_params: vec![vec![], vec![2]],
        proc_ret: vec![1, 3],
        main: 0,
        num_vars: 4,
    });
    let problem = Arc::new(LinearConstant::new(model.clone()));
    let declarative = ide::flix::solve(&model.graph, problem.clone());
    let imperative = ide::imperative::solve(&model.graph, problem.as_ref());
    assert_eq!(declarative.values, imperative.values);
    // r = 2*3 + 1 = 7 at main's end node (fact id = var + 1).
    assert_eq!(declarative.value(3, 2), Constant::cst(7));
    // Inside f, the parameter holds 3 and ret holds 7.
    assert_eq!(declarative.value(6, 3), Constant::cst(3));
    assert_eq!(declarative.value(6, 4), Constant::cst(7));
}

/// Figure 7's composition, sanity-checked at the API level the rules use.
#[test]
fn figure_7_composition_algebra() {
    // comp(λl.2l+1, λl.3l) = λl.6l+3.
    let f = Transformer::linear(2, 1);
    let g = Transformer::linear(3, 0);
    let h = Transformer::comp(&f, &g);
    assert_eq!(h.apply(&Constant::cst(5)), Constant::cst(33));
    // Composing with the bottom transformer annihilates.
    assert_eq!(Transformer::comp(&f, &Transformer::Bot), Transformer::Bot);
    // comp(Bot, t) is the constant function λl.t(⊥); for
    // t = λl.(2l+1) ⊔ Cst(9) that is λl.(⊥ ⊔ 9) = λl.9.
    let t = Transformer::non_bot(2, 1, Flat::Val(9));
    let k = Transformer::comp(&Transformer::Bot, &t);
    for l in [Flat::Bot, Constant::cst(4), Flat::Top] {
        assert_eq!(k.apply(&l), Constant::cst(9));
    }
}

/// The declarative IDE rules genuinely mirror the IFDS rules: running
/// both declarative programs on the same model yields matching reachable
/// sets when the IDE problem is the identity embedding.
#[test]
fn declarative_ide_identity_matches_declarative_ifds() {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 3,
        nodes_per_proc: 6,
        vars_per_proc: 3,
        call_percent: 20,
        seed: 0xF165,
    }));
    let ifds_result = ifds::flix::solve(
        &model.graph,
        Arc::new(problems::UninitVars::new(model.clone())),
    );
    let ide_result = ide::flix::solve(
        &model.graph,
        Arc::new(IdentityIde(problems::UninitVars::new(model.clone()))),
    );
    assert_eq!(ide_result.reachable(), ifds_result);
}

/// Figure 5's program registers its indexes at the same positions every
/// time it is built: the order is the program's, not a hash seed's.
#[test]
fn every_build_of_figure_5_registers_the_same_index_positions() {
    let model = medium_model();
    let indexes = || {
        let problem = Arc::new(problems::Taint::new(model.clone()));
        let program = ifds::flix::build_program(&model.graph, problem);
        let solution = flix::Solver::new().solve(&program).expect("solves");
        let indexes = solution.indexes().into_iter();
        let positions = indexes.map(|(pred, on, _)| (pred.to_string(), on));
        positions.collect::<Vec<_>>()
    };
    let first = indexes();
    let eshs = first.iter().filter(|(pred, _)| pred == "EshCallStart");
    assert!(eshs.count() >= 2, "a predicate with two indexes: {first:?}");
    for _ in 0..8 {
        assert_eq!(indexes(), first);
    }
}

/// A solved Figure 5 model keeps the indexes that no round probed after
/// its rows came lagging, and is still a model, and a locally minimal
/// one: the model check scans where an index lags.
#[test]
fn a_figure_5_model_with_lagging_indexes_is_a_minimal_model() {
    let model = medium_model();
    let problem = Arc::new(problems::Taint::new(model.clone()));
    let program = ifds::flix::build_program(&model.graph, problem);
    let solution = flix::Solver::new().solve(&program).expect("solves");
    let lagging = solution.indexes().into_iter().filter(|&(_, _, lags)| lags);
    assert!(lagging.count() >= 1, "{:?}", solution.indexes());
    assert!(flix::core::model::is_model(&program, &solution));
    assert!(flix::core::model::is_locally_minimal(&program, &solution));
}
