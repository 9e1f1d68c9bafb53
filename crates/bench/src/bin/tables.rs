//! `tables` — regenerate the evaluation tables of the FLIX paper.
//!
//! ```text
//! tables table1 [--scale F] [--timeout SECS] [--seed N]
//! tables table2 [--scale F] [--seed N]
//! tables shortest-paths
//! tables all [--scale F]
//! ```
//!
//! Workloads are the DESIGN.md substitutions (synthetic programs scaled to
//! the paper's per-benchmark sizes); absolute times are not expected to
//! match the paper's 2016 hardware, but the *shape* should: Table 1's
//! DLV ≫ FLIX ≫ C++ with DLV failing to scale, and Table 2's declarative
//! IFDS within a small constant factor of the imperative solver.
//!
//! An engine that exceeds the timeout budget — by measurement, or by
//! extrapolation from its previous row (quadratic in the fact-count
//! ratio) — is skipped for that and all larger rows, mirroring the
//! paper's 15-minute-timeout dashes without burning hours.

use flix_analyses::ide::linear_constant::LinearConstant;
use flix_analyses::ifds::problems::Taint;
use flix_analyses::workloads::{c_program, graphs, jvm_program};
use flix_analyses::{ide, ifds, shortest_paths, strong_update};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times one invocation of `f`, returning its result and the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration in seconds with millisecond resolution, matching
/// the paper's "Time (s)" columns.
fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut scale = 0.02f64;
    let mut timeout = Duration::from_secs(60);
    let mut seed = 0xF11Cu64;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale requires a number");
            }
            "--timeout" => {
                timeout = Duration::from_secs(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--timeout requires seconds"),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed requires a number");
            }
            "table1" | "table2" | "shortest-paths" | "all" => command = Some(arg),
            other => {
                eprintln!("unknown argument {other}; see the module docs");
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    match command.as_deref() {
        Some("table1") => table1(scale, timeout, seed),
        Some("table2") => table2(scale, seed),
        Some("shortest-paths") => table_shortest_paths(seed),
        Some("all") | None => {
            table1(scale, timeout, seed);
            println!();
            table2(scale, seed);
            println!();
            table_shortest_paths(seed);
        }
        Some(_) => unreachable!("validated above"),
    }
    std::process::ExitCode::SUCCESS
}

/// Table 1: Strong Update — DLV (powerset Datalog) vs FLIX vs C++
/// (imperative), per SPEC benchmark row.
fn table1(scale: f64, timeout: Duration, seed: u64) {
    println!(
        "Table 1 — Strong Update analysis (workload scale {scale}, timeout {}s)",
        timeout.as_secs()
    );
    println!(
        "paper columns are the published 2016 numbers; measured columns are this reproduction\n"
    );
    println!(
        "{:<16} {:>6} {:>8} | {:>10} {:>10} {:>10} | {:>9} {:>9} | {:>10} {:>10}",
        "Benchmark",
        "kSLOC",
        "Facts",
        "DLV (s)",
        "Flix (s)",
        "C++ (s)",
        "paperDLV",
        "paperFlix",
        "DLV facts",
        "Flix facts"
    );

    let mut dlv_dead = false;
    let mut flix_dead = false;
    let mut last_dlv: Option<(usize, Duration)> = None;
    let mut last_flix: Option<(usize, Duration)> = None;

    for row in c_program::TABLE_1 {
        let input = c_program::generate_row(row, scale, seed);
        let facts = input.fact_count();

        let (_, cxx_time) = timed(|| strong_update::imperative::analyze(&input));

        let flix_cell: String;
        let mut flix_facts_cell = "-".to_string();
        if !flix_dead && !exceeds_budget(&last_flix, facts, timeout) {
            let (result, time) = timed(|| strong_update::flix::analyze(&input));
            if time > timeout {
                flix_dead = true;
                flix_cell = "timeout".into();
            } else {
                flix_cell = secs(time);
                flix_facts_cell = result.derived_facts.to_string();
                last_flix = Some((facts, time));
            }
        } else if flix_dead {
            flix_cell = "-".into();
        } else {
            flix_dead = true;
            flix_cell = "timeout*".into();
        }

        let dlv_cell: String;
        let mut dlv_facts_cell = "-".to_string();
        if !dlv_dead && !exceeds_budget(&last_dlv, facts, timeout) {
            let (result, time) = timed(|| strong_update::datalog::analyze(&input));
            if time > timeout {
                dlv_dead = true;
                dlv_cell = "timeout".into();
            } else {
                dlv_cell = secs(time);
                dlv_facts_cell = result.derived_facts.to_string();
                last_dlv = Some((facts, time));
            }
        } else if dlv_dead {
            dlv_cell = "-".into();
        } else {
            dlv_dead = true;
            dlv_cell = "timeout*".into();
        }

        let paper_dlv = if row.dlv_finished { "ok" } else { "t/o" };
        let paper_flix = if row.flix_finished { "ok" } else { "t/o" };
        println!(
            "{:<16} {:>6.1} {:>8} | {:>10} {:>10} {:>10} | {:>9} {:>9} | {:>10} {:>10}",
            row.name,
            row.ksloc_x10 as f64 / 10.0,
            facts,
            dlv_cell,
            flix_cell,
            secs(cxx_time),
            paper_dlv,
            paper_flix,
            dlv_facts_cell,
            flix_facts_cell,
        );
    }
    println!("\n(timeout* = skipped: extrapolated past the budget from the previous row)");
}

/// Quadratic extrapolation from the engine's previous row: skip when the
/// predicted time exceeds the budget.
fn exceeds_budget(last: &Option<(usize, Duration)>, facts: usize, timeout: Duration) -> bool {
    match last {
        None => false,
        Some((prev_facts, prev_time)) => {
            let ratio = facts as f64 / (*prev_facts).max(1) as f64;
            prev_time.as_secs_f64() * ratio * ratio > timeout.as_secs_f64()
        }
    }
}

/// Table 2: IFDS — imperative tabulation vs declarative FLIX.
fn table2(scale: f64, seed: u64) {
    println!("Table 2 — IFDS analysis (workload scale {scale})");
    println!("paper slowdown is the published Scala-vs-Flix ratio\n");
    println!(
        "{:<10} {:>7} | {:>12} {:>10} {:>9} | {:>11}",
        "Program", "Nodes", "Imperative(s)", "Flix (s)", "Slowdown", "paperSlow"
    );
    for row in jvm_program::TABLE_2 {
        let model = Arc::new(jvm_program::generate(jvm_program::params_for_row(
            row, scale, seed,
        )));
        let problem = Arc::new(Taint::new(model.clone()));
        let (imp_result, imp_time) =
            timed(|| ifds::imperative::solve(&model.graph, problem.as_ref()));
        let (flix_result, flix_time) = timed(|| ifds::flix::solve(&model.graph, problem.clone()));
        assert_eq!(imp_result, flix_result, "solvers disagree on {}", row.name);
        let slowdown = flix_time.as_secs_f64() / imp_time.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>7} | {:>12} {:>10} {:>8.1}x | {:>10.1}x",
            row.name,
            model.graph.num_nodes,
            secs(imp_time),
            secs(flix_time),
            slowdown,
            row.slowdown_x10 as f64 / 10.0,
        );
    }

    // A bonus row: the IDE generalisation on the largest workload the
    // paper discusses conceptually (§4.3).
    let model = Arc::new(jvm_program::generate(jvm_program::params_for_row(
        &jvm_program::TABLE_2[0],
        scale,
        seed,
    )));
    let problem = Arc::new(LinearConstant::new(model.clone()));
    let (imp, imp_time) = timed(|| ide::imperative::solve(&model.graph, problem.as_ref()));
    let (flix, flix_time) = timed(|| ide::flix::solve(&model.graph, problem.clone()));
    assert_eq!(imp.values, flix.values, "IDE solvers disagree");
    println!(
        "{:<10} {:>7} | {:>12} {:>10} {:>8.1}x | {:>11}",
        "ide-lcp",
        model.graph.num_nodes,
        secs(imp_time),
        secs(flix_time),
        flix_time.as_secs_f64() / imp_time.as_secs_f64().max(1e-9),
        "(§4.3)",
    );
}

/// §4.4: shortest paths, FLIX vs Dijkstra.
fn table_shortest_paths(seed: u64) {
    println!("§4.4 — all-pairs shortest paths on the (N ∪ ∞, min) lattice\n");
    println!(
        "{:<8} {:>7} | {:>10} {:>12}",
        "Nodes", "Edges", "Flix (s)", "Dijkstra (s)"
    );
    for &(nodes, extra) in &[(50u32, 150usize), (150, 500), (400, 1_500)] {
        let graph = graphs::generate(nodes, extra, seed);
        let (flix_dist, flix_time) = timed(|| shortest_paths::single_source(&graph, 0));
        let (ref_dist, ref_time) = timed(|| graphs::dijkstra(&graph, 0));
        assert_eq!(flix_dist, ref_dist, "solvers disagree at {nodes} nodes");
        println!(
            "{:<8} {:>7} | {:>10} {:>12}",
            nodes,
            graph.edges.len(),
            secs(flix_time),
            secs(ref_time)
        );
    }
}
