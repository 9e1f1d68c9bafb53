//! Integration tests of the execution tracer: span nesting invariants,
//! event-count parity with the solver's statistics across strategies
//! and thread counts, ring-buffer bounding, export formats, and trace
//! capture through `resume`, `solve_query`, and guarded failures.

use flix_core::json::{self, Json};
use flix_core::{
    BodyItem, Delta, ExecutionTrace, Head, HeadTerm, LatticeOps, ProgramBuilder, Query, Solver,
    SpanKind, Strategy, Term, TraceConfig, Value, ValueLattice,
};
use flix_lattice::MinCost;

/// The transitive-closure program: two rules, several rounds.
fn path_builder() -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for (x, y) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)] {
        b.fact(edge, vec![x.into(), y.into()]);
    }
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    b
}

/// The §4.4 shortest-paths lattice program on a small cyclic graph.
fn dist_builder() -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    b.fact(dist, vec![Value::from("a"), MinCost::finite(0).to_value()]);
    for (x, y, c) in [
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 2),
        ("c", "a", 1),
        ("a", "c", 5),
    ] {
        b.fact(edge, vec![x.into(), y.into(), c.into()]);
    }
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
    b
}

/// Asserts the structural invariants every trace must satisfy: exactly
/// one solve span enclosing everything, every round inside its stratum's
/// window, every rule evaluation, index catch-up and absorb inside its
/// round's window (matching stratum and round numbers), the catch-up
/// before the round's rule evaluations and the absorb after them, and
/// all tids within the worker count.
fn assert_well_nested(trace: &ExecutionTrace) {
    let events = trace.events();
    let solves: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Solve)
        .collect();
    assert_eq!(solves.len(), 1, "exactly one solve span");
    let solve = solves[0];
    assert_eq!(solve.tid, 0, "solve span on the coordinator track");

    for event in events {
        assert!(
            event.tid <= trace.workers(),
            "tid {} exceeds worker count {}",
            event.tid,
            trace.workers()
        );
        let end = event.start_ns + event.dur_ns;
        assert!(
            solve.start_ns <= event.start_ns && end <= solve.start_ns + solve.dur_ns,
            "{:?} escapes the solve span",
            event.kind
        );
        match &event.kind {
            SpanKind::Round { stratum, .. } => {
                let parent = events
                    .iter()
                    .find(|p| matches!(&p.kind, SpanKind::Stratum { stratum: s } if s == stratum))
                    .unwrap_or_else(|| panic!("round has no stratum {stratum} span"));
                assert!(
                    parent.start_ns <= event.start_ns && end <= parent.start_ns + parent.dur_ns,
                    "round escapes stratum {stratum}"
                );
            }
            SpanKind::RuleEval { stratum, round, .. }
            | SpanKind::IndexCatchUp { stratum, round }
            | SpanKind::Absorb { stratum, round } => {
                let parent = events
                    .iter()
                    .find(|p| {
                        matches!(&p.kind, SpanKind::Round { stratum: s, round: r }
                                 if s == stratum && r == round)
                    })
                    .unwrap_or_else(|| panic!("{:?} has no round {round} span", event.kind));
                assert!(
                    parent.start_ns <= event.start_ns && end <= parent.start_ns + parent.dur_ns,
                    "{:?} escapes round {round}",
                    event.kind
                );
            }
            _ => {}
        }
    }
    // A round catches its indexes up before its first rule evaluation
    // starts and absorbs after its last one ends.
    for event in events {
        let end = event.start_ns + event.dur_ns;
        let SpanKind::RuleEval { round, .. } = event.kind else {
            continue;
        };
        for phase in events {
            match phase.kind {
                SpanKind::IndexCatchUp { round: r, .. } if r == round => assert!(
                    phase.start_ns + phase.dur_ns <= event.start_ns,
                    "round {round}'s catch-up overlaps a rule evaluation"
                ),
                SpanKind::Absorb { round: r, .. } if r == round => assert!(
                    end <= phase.start_ns,
                    "round {round}'s absorb overlaps a rule evaluation"
                ),
                _ => {}
            }
        }
    }
}

/// One index catch-up and one absorb span per round of a solve that
/// finished.
fn assert_one_catch_up_and_absorb_per_round(trace: &ExecutionTrace, rounds: u64) {
    assert_eq!(
        count(trace, |k| matches!(k, SpanKind::IndexCatchUp { .. })),
        rounds,
        "one index catch-up span per round"
    );
    assert_eq!(
        count(trace, |k| matches!(k, SpanKind::Absorb { .. })),
        rounds,
        "one absorb span per round"
    );
}

fn count(trace: &ExecutionTrace, pred: impl Fn(&SpanKind) -> bool) -> u64 {
    trace.events().iter().filter(|e| pred(&e.kind)).count() as u64
}

#[test]
fn trace_spans_nest_and_match_stats() {
    for builder in [path_builder, dist_builder] {
        let program = builder().build().expect("valid");
        let solution = Solver::new()
            .trace(TraceConfig::default())
            .solve(&program)
            .expect("solves");
        let stats = solution.stats().clone();
        let trace = solution.trace().expect("trace was recorded");
        assert_well_nested(trace);
        assert_eq!(trace.dropped_events(), 0);
        assert_eq!(trace.workers(), 0, "sequential solve has no worker tracks");
        assert_eq!(
            count(trace, |k| matches!(k, SpanKind::Round { .. })),
            stats.rounds,
            "one round span per round"
        );
        assert_eq!(
            count(trace, |k| matches!(k, SpanKind::Stratum { .. })),
            stats.strata,
            "one stratum span per stratum"
        );
        assert_eq!(
            count(trace, |k| matches!(k, SpanKind::RuleEval { .. })),
            stats.rule_evaluations,
            "one rule-eval span per rule evaluation"
        );
        assert_eq!(count(trace, |k| *k == SpanKind::LoadFacts), 1);
        assert_one_catch_up_and_absorb_per_round(trace, stats.rounds);
    }
}

#[test]
fn event_counts_agree_across_strategies_and_threads() {
    let program = path_builder().build().expect("valid");
    for solver in [
        Solver::new().strategy(Strategy::Naive),
        Solver::new().strategy(Strategy::SemiNaive),
        Solver::new().threads(4),
    ] {
        let solution = solver
            .trace(TraceConfig::default())
            .solve(&program)
            .expect("solves");
        let stats = solution.stats().clone();
        let trace = solution.trace().expect("trace was recorded");
        assert_well_nested(trace);
        assert_eq!(
            count(trace, |k| matches!(k, SpanKind::RuleEval { .. })),
            stats.rule_evaluations,
            "rule-eval spans match the strategy's own evaluation count"
        );
        assert_eq!(
            count(trace, |k| matches!(k, SpanKind::Round { .. })),
            stats.rounds
        );
        assert_one_catch_up_and_absorb_per_round(trace, stats.rounds);
        // The derived counts attached to the spans sum to the stats
        // counter, whichever thread recorded them.
        let derived: u64 = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                SpanKind::RuleEval { derived, .. } => Some(derived),
                _ => None,
            })
            .sum();
        assert_eq!(derived, stats.facts_derived);
    }
}

#[test]
fn tiny_ring_buffer_drops_oldest_and_counts() {
    let program = path_builder().build().expect("valid");
    let solution = Solver::new()
        .trace(TraceConfig { buffer_capacity: 2 })
        .solve(&program)
        .expect("solves");
    let trace = solution.trace().expect("trace was recorded");
    assert!(
        trace.dropped_events() > 0,
        "a 2-event ring must overflow on a multi-round solve"
    );
    assert!(trace.events().len() <= 2, "capacity bounds retained events");
    // The newest events survive: the solve span is recorded last.
    assert!(trace.events().iter().any(|e| e.kind == SpanKind::Solve));
}

#[test]
fn disabled_tracer_records_nothing() {
    let program = path_builder().build().expect("valid");
    let solution = Solver::new().solve(&program).expect("solves");
    assert!(solution.trace().is_none(), "no trace unless configured");
}

#[test]
fn chrome_export_is_schema_shaped() {
    let program = dist_builder().build().expect("valid");
    let solution = Solver::new()
        .trace(TraceConfig::default())
        .threads(4)
        .solve(&program)
        .expect("solves");
    let trace = solution.trace().expect("trace was recorded");
    let doc = json::parse(&trace.to_chrome_json()).expect("the export is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").and_then(Json::as_array);
    let events = events.expect("a traceEvents array");
    fn field<'a>(event: &'a Json, key: &str) -> Option<&'a str> {
        event.get(key).and_then(Json::as_str)
    }
    let count = |key: &str, value: &str| {
        let matching = events.iter().filter(|e| field(e, key) == Some(value));
        matching.count()
    };
    // Every recorded span is a complete ("X") event; the rest is
    // metadata ("M"), with one thread_name record per track.
    assert_eq!(count("ph", "X"), trace.events().len());
    assert_eq!(count("ph", "X") + count("ph", "M"), events.len());
    assert_eq!(count("name", "thread_name") as u32, trace.workers() + 1);
    assert!(events
        .iter()
        .any(|e| e.get("args").and_then(|args| field(args, "name")) == Some("coordinator")));

    // A round's two phases are named in both exports.
    let rounds = solution.stats().rounds as usize;
    assert_eq!(count("name", "index catch-up"), rounds);
    assert_eq!(count("name", "absorb"), rounds);
    let folded = trace.to_folded();
    for phase in ["index catch-up", "absorb"] {
        let in_round = |l: &&str| l.contains(";round ") && l.contains(&format!(";{phase} "));
        assert_eq!(folded.lines().filter(in_round).count(), rounds, "{folded}");
    }
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack then value");
        assert!(stack.starts_with("solve;"), "{line}");
        value.parse::<u64>().expect("numeric folded value");
    }
}

#[test]
fn resume_traces_the_seed_phase() {
    let program = path_builder().build().expect("valid");
    let solver = Solver::new().trace(TraceConfig::default());
    let prior = solver.solve(&program).expect("solves");
    let delta = Delta::new().insert("Edge", vec![Value::from(6), Value::from(7)]);
    let resumed = solver.resume(&program, &prior, &delta).expect("resumes");
    let trace = resumed.trace().expect("resume records a trace");
    assert_well_nested(trace);
    assert_eq!(
        count(trace, |k| *k == SpanKind::ResumeSeed),
        1,
        "one seed span per resume"
    );
    assert!(
        count(trace, |k| matches!(k, SpanKind::RuleEval { .. })) > 0,
        "the warm-start rounds are traced"
    );
    let steps = |k: &SpanKind| matches!(k, SpanKind::ResumeTaint | SpanKind::ResumeDelete);
    assert_eq!(count(trace, steps), 0, "a monotone resume deletes nothing");

    // A retracting resume finds its cone and deletes it inside the seed
    // phase, once each, one after the other.
    let solver = solver.record_provenance(true);
    let prior = solver.solve(&program).expect("solves");
    let delta = Delta::new().retract("Edge", vec![Value::from(2), Value::from(3)]);
    let resumed = solver.resume(&program, &prior, &delta).expect("resumes");
    let trace = resumed.trace().expect("resume records a trace");
    assert_well_nested(trace);
    let only = |kind: SpanKind| {
        let mut spans = trace.events().iter().filter(|e| e.kind == kind);
        let span = spans.next().unwrap_or_else(|| panic!("no {kind:?} span"));
        assert!(spans.next().is_none(), "more than one {kind:?} span");
        (span.start_ns, span.start_ns + span.dur_ns)
    };
    let seed = only(SpanKind::ResumeSeed);
    let taint = only(SpanKind::ResumeTaint);
    let delete = only(SpanKind::ResumeDelete);
    assert!(seed.0 <= taint.0 && taint.1 <= delete.0 && delete.1 <= seed.1);
    // The flamegraph form charges the seed phase its own time only.
    let folded = trace.to_folded();
    for stack in ["resume seed", "resume seed;taint", "resume seed;delete"] {
        let line = format!("solve;{stack} ");
        assert!(folded.lines().any(|l| l.starts_with(&line)), "{folded}");
    }
}

#[test]
fn query_trace_collapses_demand_rules_onto_originals() {
    let program = path_builder().build().expect("valid");
    let num_rules = 2;
    let result = Solver::new()
        .trace(TraceConfig::default())
        .solve_query(
            &program,
            &[Query::new("Path", vec![Some(Value::from(1)), None])],
        )
        .expect("solves");
    let trace = result.solution().trace().expect("query records a trace");
    assert_well_nested(trace);
    assert_eq!(
        count(trace, |k| *k == SpanKind::DemandRewrite),
        1,
        "the rewrite phase is traced"
    );
    for event in trace.events() {
        if let SpanKind::RuleEval { rule, .. } = event.kind {
            assert!(
                rule < num_rules,
                "rule index {rule} must be an original rule, not demand machinery"
            );
        }
    }
    // Demand-internal predicates never leak into the exported names.
    let json = trace.to_chrome_json();
    assert!(!json.contains("demand$"), "{json}");
    assert!(json.contains("Path"));
}

#[test]
fn guarded_failure_carries_the_partial_trace() {
    let program = path_builder().build().expect("valid");
    let failure = Solver::new()
        .trace(TraceConfig::default())
        .max_rounds(1)
        .solve(&program)
        .expect_err("round limit must trip");
    let trace = failure
        .partial
        .trace()
        .expect("partial solution keeps the trace");
    assert!(
        count(trace, |k| matches!(k, SpanKind::Round { .. })) >= 1,
        "the rounds before the failure are traced"
    );
    assert!(
        count(trace, |k| *k == SpanKind::Solve) == 1,
        "the failed solve still closes its root span"
    );
}
