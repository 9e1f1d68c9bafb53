//! Trace parity and export-schema tests over the paper's workloads:
//! the §4.4 shortest-paths lattice program and the Figure 5 IFDS
//! analysis, each solved naïvely, semi-naïvely, and on four threads
//! with tracing enabled. The Chrome trace-event export is parsed back
//! with `flix_core::json` and schema-validated — valid
//! `ph:"X"` events, per-track metadata, rule-evals nested inside
//! rounds inside strata — and span counts must agree with the solver's
//! own statistics in every configuration.

use flix::analyses::ifds::{self, problems};
use flix::analyses::shortest_paths;
use flix::analyses::workloads::{graphs, jvm_program};
use flix::core::json::{self, Json};
use flix::{Program, Solver, Strategy, TraceConfig};
use std::sync::Arc;

fn shortest_paths_program() -> Program {
    let graph = graphs::generate(50, 150, 0x5907);
    shortest_paths::build_single_source(&graph, 0)
}

fn figure5_ifds_program() -> Program {
    let model = Arc::new(jvm_program::generate(jvm_program::GenParams {
        num_procs: 4,
        nodes_per_proc: 10,
        vars_per_proc: 4,
        call_percent: 20,
        seed: 0xF165,
    }));
    let problem = Arc::new(problems::Taint::new(model.clone()));
    ifds::flix::build_program(&model.graph, problem)
}

/// One traced solve; returns `(round spans, rule-eval spans, stats
/// rounds, stats rule evaluations, chrome JSON)`.
fn traced_solve(program: &Program, solver: Solver) -> (u64, u64, u64, u64, String) {
    let solution = solver
        .trace(TraceConfig::default())
        .solve(program)
        .expect("solves");
    let stats = solution.stats();
    let trace = solution.trace().expect("trace was recorded");
    let rounds = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, flix::SpanKind::Round { .. }))
        .count() as u64;
    let evals = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, flix::SpanKind::RuleEval { .. }))
        .count() as u64;
    (
        rounds,
        evals,
        stats.rounds,
        stats.rule_evaluations,
        trace.to_chrome_json(),
    )
}

/// Schema-validates a Chrome trace-event document: every event is a
/// well-formed `ph:"X"` complete event or `ph:"M"` metadata record,
/// tracks are contiguous and named, and the span hierarchy nests by
/// time window (rule inside round inside stratum inside solve).
fn validate_chrome_export(text: &str) {
    let doc = json::parse(text).expect("chrome export is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    assert!(doc.get("droppedEvents").and_then(Json::as_u64).is_some());
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // (ts, dur) windows per category, for the nesting checks below.
    let mut spans: Vec<(String, f64, f64, u64)> = Vec::new(); // cat, ts, end, tid
    let mut tracks: Vec<u64> = Vec::new();
    let mut named_tracks = 0u64;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph field");
        assert_eq!(event.get("pid").and_then(Json::as_u64), Some(1));
        let tid = event.get("tid").and_then(Json::as_u64).expect("tid field");
        let name = event.get("name").and_then(Json::as_str).expect("name");
        assert!(!name.is_empty());
        match ph {
            "M" => {
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name}"
                );
                if name == "thread_name" {
                    named_tracks += 1;
                    tracks.push(tid);
                }
            }
            "X" => {
                let ts = event.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = event.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                let cat = event
                    .get("cat")
                    .and_then(Json::as_str)
                    .expect("cat")
                    .to_string();
                spans.push((cat, ts, ts + dur, tid));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Every span's track carries a thread_name record.
    for (_, _, _, tid) in &spans {
        assert!(tracks.contains(tid), "unnamed track {tid}");
    }
    assert_eq!(named_tracks as usize, tracks.len(), "one name per track");

    // Timestamps are microseconds rounded to 3 decimals; containment
    // checks tolerate one rounding step on each side.
    const EPS: f64 = 0.002;
    let contained = |inner: &(String, f64, f64, u64), cat: &str| {
        spans
            .iter()
            .any(|outer| outer.0 == cat && outer.1 <= inner.1 + EPS && inner.2 <= outer.2 + EPS)
    };
    for span in &spans {
        match span.0.as_str() {
            "rule" => assert!(contained(span, "round"), "rule span outside any round"),
            "round" => assert!(contained(span, "stratum"), "round span outside any stratum"),
            "stratum" | "phase" => {
                assert!(contained(span, "solve"), "{} span outside solve", span.0)
            }
            "solve" => {}
            other => panic!("unexpected span category {other:?}"),
        }
    }
}

#[test]
fn shortest_paths_trace_parity_across_configurations() {
    let program = shortest_paths_program();
    let semi = traced_solve(&program, Solver::new());
    let naive = traced_solve(&program, Solver::new().strategy(Strategy::Naive));
    let parallel = traced_solve(&program, Solver::new().threads(4));

    for (label, run) in [("semi", &semi), ("naive", &naive), ("parallel", &parallel)] {
        assert_eq!(run.0, run.2, "{label}: one round span per round");
        assert_eq!(run.1, run.3, "{label}: one span per rule evaluation");
        validate_chrome_export(&run.4);
    }
    // Thread count must not change what was evaluated, only where.
    assert_eq!(semi.0, parallel.0, "same rounds sequential vs 4-thread");
    assert_eq!(
        semi.1, parallel.1,
        "same evaluations sequential vs 4-thread"
    );
}

#[test]
fn figure5_ifds_trace_parity_across_configurations() {
    let program = figure5_ifds_program();
    let semi = traced_solve(&program, Solver::new());
    let naive = traced_solve(&program, Solver::new().strategy(Strategy::Naive));
    let parallel = traced_solve(&program, Solver::new().threads(4));

    for (label, run) in [("semi", &semi), ("naive", &naive), ("parallel", &parallel)] {
        assert_eq!(run.0, run.2, "{label}: one round span per round");
        assert_eq!(run.1, run.3, "{label}: one span per rule evaluation");
        validate_chrome_export(&run.4);
    }
    assert_eq!(semi.0, parallel.0, "same rounds sequential vs 4-thread");
    assert_eq!(
        semi.1, parallel.1,
        "same evaluations sequential vs 4-thread"
    );
}

#[test]
fn parallel_ifds_trace_uses_worker_tracks() {
    let program = figure5_ifds_program();
    let solution = Solver::new()
        .threads(4)
        .trace(TraceConfig::default())
        .solve(&program)
        .expect("solves");
    let trace = solution.trace().expect("trace was recorded");
    assert!(
        trace.workers() >= 1,
        "a 4-thread solve of a 6-rule program records worker tracks"
    );
    let worker_evals = trace
        .events()
        .iter()
        .filter(|e| e.tid > 0 && matches!(e.kind, flix::SpanKind::RuleEval { .. }))
        .count();
    assert!(
        worker_evals > 0,
        "rule evaluations land on the worker tracks that ran them"
    );
}
