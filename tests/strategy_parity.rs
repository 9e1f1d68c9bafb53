//! Strategy parity: naïve, semi-naïve, and parallel semi-naïve
//! evaluation must agree — not only on the minimal model (§3.7 proves
//! the strategies compute the same fixed point) but also on the
//! *strategy-invariant* statistics documented on `SolveStats`: net
//! insertions, per-rule insertion credit, and per-stratum convergence
//! profiles. Gross work (`rule_evaluations`, `facts_derived`, probes,
//! scans, timings) legitimately differs and is not compared.
//!
//! The workloads are the paper's case studies: shortest paths (§4.4),
//! the Figure 2 combined dataflow analysis, and the Figure 5 IFDS
//! encoding on a generated JVM-shaped supergraph.

mod common;

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::workloads::graphs;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::analyses::{dataflow, shortest_paths};
use flix::{Program, Solution, Solver, Strategy, Value};
use std::sync::Arc;

/// The three configurations under comparison.
fn configurations() -> Vec<(&'static str, Solver)> {
    vec![
        ("naive", Solver::new().strategy(Strategy::Naive)),
        ("semi-naive", Solver::new().strategy(Strategy::SemiNaive)),
        (
            "semi-naive x4",
            Solver::new().strategy(Strategy::SemiNaive).threads(4),
        ),
    ]
}

/// Canonical dump of every relation tuple and lattice cell, sorted, so
/// two solutions can be compared for semantic equality.
fn dump(program: &Program, solution: &Solution) -> Vec<String> {
    let mut lines = Vec::new();
    for (_, decl) in program.predicates() {
        let name = decl.name();
        if let Some(rows) = solution.relation(name) {
            for row in rows {
                lines.push(format!(
                    "{name}({})",
                    row.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        if let Some(cells) = solution.lattice(name) {
            for (key, value) in cells {
                let mut parts: Vec<String> = key.iter().map(ToString::to_string).collect();
                parts.push(value.to_string());
                lines.push(format!("{name}({})", parts.join(", ")));
            }
        }
    }
    lines.sort();
    lines
}

/// Solves `program` under every configuration and asserts that the
/// model and all strategy-invariant statistics coincide.
fn assert_strategy_parity(label: &str, program: &Program) {
    let runs: Vec<(&str, Solution)> = configurations()
        .into_iter()
        .map(|(name, solver)| (name, solver.solve(program).expect("solves")))
        .collect();
    let (base_name, base) = &runs[0];
    let base_dump = dump(program, base);
    let base_inserted: Vec<(usize, u64)> = base
        .stats()
        .per_rule
        .iter()
        .map(|r| (r.rule, r.inserted))
        .collect();
    assert!(
        base.stats().per_rule.iter().any(|r| r.inserted > 0),
        "{label}: the baseline run credits at least one rule"
    );
    for (name, solution) in &runs[1..] {
        assert_eq!(
            dump(program, solution),
            base_dump,
            "{label}: {name} and {base_name} disagree on the minimal model"
        );
        let stats = solution.stats();
        assert_eq!(
            stats.facts_inserted,
            base.stats().facts_inserted,
            "{label}: {name} net insertions"
        );
        assert_eq!(
            stats.total_facts,
            base.stats().total_facts,
            "{label}: {name} total facts"
        );
        let inserted: Vec<(usize, u64)> = stats
            .per_rule
            .iter()
            .map(|r| (r.rule, r.inserted))
            .collect();
        assert_eq!(
            inserted, base_inserted,
            "{label}: {name} and {base_name} credit rules differently"
        );
        // Convergence profile: same rounds per stratum and the same net
        // delta fed into each round.
        assert_eq!(
            stats.per_stratum,
            base.stats().per_stratum,
            "{label}: {name} and {base_name} converge differently"
        );
    }
}

#[test]
fn shortest_paths_single_source_parity() {
    let graph = graphs::generate(40, 120, 7);
    let program = shortest_paths::build_single_source(&graph, 0);
    assert_strategy_parity("single-source shortest paths", &program);
}

#[test]
fn shortest_paths_all_pairs_parity() {
    let graph = graphs::generate(12, 25, 3);
    let program = shortest_paths::build_all_pairs(&graph);
    assert_strategy_parity("all-pairs shortest paths", &program);
}

#[test]
fn figure_2_dataflow_parity() {
    let program = dataflow::build_program(&dataflow::example_input());
    assert_strategy_parity("Figure 2 dataflow", &program);
}

// ---------------------------------------------------------------------------
// Differential property suite: seeded random programs, every strategy ×
// threads × provenance combination.
//
// One engine runs every configuration, so the reference is the paper's
// own definition, not a second evaluator: the result must be a model
// (`is_model`) that no one-step reduction keeps a model
// (`is_locally_minimal`), and a recorded event log must be a well-founded
// proof forest over it. Structured-random programs exercise the corners
// the hand-written workloads miss: lattice heads at several key widths
// (including past the plans' inline-key width, which forces the wide-key
// fallback), relational heads, filters, multiple seeds, disconnected
// graphs, a negated upper stratum over a relation and over a lattice
// (ground key, wildcard key, wildcard / literal / bound value), and `<-`
// choice rules (single bind and tuple destructuring, optionally feeding
// back into the recursion).
// ---------------------------------------------------------------------------

use common::random_program;
use flix::core::model::{is_locally_minimal, is_model};
use flix::core::provenance::{Event, Source};

/// Checks that a recorded event log is a well-founded proof forest over
/// the final model: every premise of every rule event holds in the model
/// and was logged before the conclusion it supports.
fn assert_log_is_grounded(label: &str, program: &Program, solution: &Solution) {
    let events: &[Event] = solution.provenance().expect("provenance was recorded");
    assert!(!events.is_empty(), "{label}: the log is not empty");
    for (i, event) in events.iter().enumerate() {
        let Source::Rule { premises, .. } = &event.source else {
            continue;
        };
        for premise in premises {
            let decl = program.decl(premise.pred);
            // Does `tuple` (a stored fact or an earlier logged one)
            // establish the premise? Lattice premises carry a witness
            // that must sit at or below the value it was read from.
            let establishes = |tuple: &[Value]| match decl.lattice_ops() {
                None => premise
                    .pattern
                    .iter()
                    .zip(tuple)
                    .all(|(p, v)| p.as_ref().is_none_or(|p| p == v)),
                Some(ops) => {
                    let n = tuple.len() - 1;
                    premise.pattern[..n]
                        .iter()
                        .zip(tuple)
                        .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
                        && premise.pattern[n]
                            .as_ref()
                            .is_none_or(|w| ops.leq(w, &tuple[n]))
                }
            };
            let holds = solution.facts(decl.name()).expect("declared").any(|fact| {
                let mut tuple = fact.key().to_vec();
                tuple.extend(fact.value().cloned());
                establishes(&tuple)
            });
            assert!(
                holds,
                "{label}: event {i} has a premise the final model does not hold: {premise:?}"
            );
            assert!(
                events[..i]
                    .iter()
                    .any(|e| e.pred == premise.pred && establishes(&e.tuple)),
                "{label}: event {i} is logged before its premise {premise:?}"
            );
        }
    }
}

/// The gross work counters, totals and per rule (timings aside): equal
/// whenever the same strategy ran, whatever the thread count and whether
/// or not provenance was recorded.
fn work(solution: &Solution) -> ([u64; 4], Vec<[u64; 6]>) {
    let s = solution.stats();
    let per_rule = s.per_rule.iter().map(|r| {
        let rule = r.rule as u64;
        [
            rule,
            r.evaluations,
            r.derived,
            r.inserted,
            r.probes,
            r.scans,
        ]
    });
    (
        [
            s.rule_evaluations,
            s.facts_derived,
            s.index_probes,
            s.scan_fallbacks,
        ],
        per_rule.collect(),
    )
}

/// Solves one random program under every strategy × threads × provenance
/// combination and asserts: one model, checked against the model-theoretic
/// definition; strategy-invariant statistics across all runs; gross
/// counters equal within a strategy; and, with provenance on, a grounded
/// event log that does not depend on the thread count.
fn assert_differential_parity(seed: u64, program: &Program) {
    let mut runs: Vec<(String, Strategy, Solution)> = Vec::new();
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        // One thread runs the task loop on the coordinator; 3 splits a
        // round's tasks into uneven chunks; 64 outnumbers every round's
        // tasks, so each chunk is one task.
        for threads in [1, 3, 4, 64] {
            for provenance in [false, true] {
                let solver = Solver::new()
                    .strategy(strategy)
                    .threads(threads)
                    .record_provenance(provenance);
                let name = format!(
                    "seed {seed}: {} x{threads} provenance={provenance}",
                    strategy.name()
                );
                runs.push((name, strategy, solver.solve(program).expect("solves")));
            }
        }
    }
    let (base_name, _, base) = &runs[0];
    assert!(
        is_model(program, base),
        "{base_name}: the result is a model"
    );
    assert!(
        is_locally_minimal(program, base),
        "{base_name}: the result is minimal"
    );
    let base_dump = dump(program, base);
    for (name, strategy, solution) in &runs {
        assert_eq!(
            dump(program, solution),
            base_dump,
            "{name} and {base_name} disagree on the minimal model"
        );
        let stats = solution.stats();
        assert_eq!(
            stats.facts_inserted,
            base.stats().facts_inserted,
            "{name} net insertions"
        );
        assert_eq!(
            stats.total_facts,
            base.stats().total_facts,
            "{name} total facts"
        );
        assert_eq!(
            stats.per_stratum,
            base.stats().per_stratum,
            "{name} convergence profile"
        );
        // Within a strategy neither threads nor provenance change the
        // work done or the log written.
        let (peer_name, _, peer) = runs
            .iter()
            .find(|(_, s, _)| s == strategy)
            .expect("the run itself");
        assert_eq!(work(solution), work(peer), "{name} vs {peer_name} work");
        if solution.provenance().is_some() {
            assert_log_is_grounded(name, program, solution);
            let (logged_name, _, logged) = runs
                .iter()
                .find(|(_, s, sol)| s == strategy && sol.provenance().is_some())
                .expect("the run itself");
            assert_eq!(
                solution.provenance(),
                logged.provenance(),
                "{name} vs {logged_name} event log"
            );
        }
    }
}

#[test]
fn differential_random_programs_agree() {
    let (mut wide_keys, mut whole_heads) = (0, 0);
    for seed in 0..40 {
        let drawn = random_program(seed, true);
        wide_keys += usize::from(drawn.key_width > 4);
        whole_heads += usize::from(drawn.choice_binds_whole_head);
        assert_differential_parity(seed, &drawn.program);
        // What `incremental_parity` retracts from is this seed's program
        // without its negated stratum, not another draw.
        let core = random_program(seed, false).program;
        let solver = Solver::new();
        assert_eq!(
            dump(&core, &solver.solve(&core).expect("solves")),
            dump(&core, &solver.solve(&drawn.program).expect("solves")),
            "seed {seed}: the positive core with and without negation"
        );
    }
    assert!(wide_keys > 0, "no seed drew a key past the inline width");
    assert!(
        (1..40).contains(&whole_heads),
        "{whole_heads} of 40 seeds drew the destructuring choice rule"
    );
}

#[test]
fn figure_5_ifds_parity() {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 6,
        nodes_per_proc: 12,
        vars_per_proc: 6,
        call_percent: 15,
        seed: 11,
    }));
    let problem = Arc::new(Taint::new(model.clone()));
    let program = ifds::flix::build_program(&model.graph, problem);
    assert_strategy_parity("Figure 5 IFDS", &program);
}
