//! Integration tests of the lattice-ascent diagnostics: a deliberately
//! tall-chain program triggers the `AscentWarning` at a configured
//! height without aborting the solve, and well-behaved lattice programs
//! report their expected chain heights.

use flix_core::{
    AscentConfig, AscentWarning, BodyItem, Head, HeadTerm, LatticeOps, Observer, ProgramBuilder,
    Query, Solver, Term, Value, ValueLattice,
};
use flix_lattice::MinCost;
use std::sync::{Arc, Mutex};

/// Records every ascent warning the solver fires.
#[derive(Default)]
struct WarningLog {
    warnings: Mutex<Vec<AscentWarning>>,
}

impl Observer for WarningLog {
    fn ascent_warning(&self, warning: &AscentWarning) {
        self.warnings.lock().expect("log").push(warning.clone());
    }
}

/// A max-of-ints lattice: every increment is a strict lub increase, so
/// a counting rule climbs one chain step per round — the shape of an
/// Interval analysis without widening.
fn max_int_ops() -> LatticeOps {
    LatticeOps::from_fns(
        "MaxInt",
        Value::Int(-1),
        None,
        |a, b| a.as_int() <= b.as_int(),
        |a, b| {
            if a.as_int() < b.as_int() {
                b.clone()
            } else {
                a.clone()
            }
        },
        |a, b| {
            if a.as_int() < b.as_int() {
                a.clone()
            } else {
                b.clone()
            }
        },
    )
}

/// `Count("c", n+1) :- Count("c", n), n < limit.` — a chain of height
/// `limit + 1` (the seed plus one strict increase per round).
fn tall_chain_builder(limit: i64) -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    let count = b.lattice("Count", 2, max_int_ops());
    let inc = b.function("inc", |args| Value::Int(args[0].as_int().expect("int") + 1));
    let below = b.function("below", move |args| {
        Value::Bool(args[0].as_int().expect("int") < limit)
    });
    b.fact(count, vec![Value::from("c"), Value::Int(0)]);
    b.rule(
        Head::new(
            count,
            [HeadTerm::var("k"), HeadTerm::app(inc, [Term::var("n")])],
        ),
        [
            BodyItem::atom(count, [Term::var("k"), Term::var("n")]),
            BodyItem::filter(below, [Term::var("n")]),
        ],
    );
    b
}

/// The §4.4 shortest-paths program on a cyclic graph where two cells
/// are first reached on an expensive path and later improved.
fn dist_builder() -> ProgramBuilder {
    dist_builder_with(&[])
}

/// [`dist_builder`] with more edges.
fn dist_builder_with(more_edges: &[(&str, &str, i64)]) -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    b.fact(dist, vec![Value::from("a"), MinCost::finite(0).to_value()]);
    let edges = [
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 2),
        ("c", "a", 1),
        ("a", "c", 5),
    ];
    for &(x, y, c) in edges.iter().chain(more_edges) {
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

#[test]
fn tall_chain_warns_at_threshold_without_aborting() {
    let program = tall_chain_builder(100).build().expect("valid");
    let log = Arc::new(WarningLog::default());
    let solution = Solver::new()
        .ascent(AscentConfig {
            warn_height: Some(50),
        })
        .observer(log.clone())
        .solve(&program)
        .expect("the warning must not abort the solve");

    // The chain still ran to its fixed point.
    assert_eq!(
        solution.lattice_value("Count", &[Value::from("c")]),
        Some(Value::Int(100))
    );

    let warnings = log.warnings.lock().expect("log");
    assert_eq!(warnings.len(), 1, "one warning per cell, not one per join");
    let w = &warnings[0];
    assert_eq!(w.predicate, "Count");
    assert_eq!(w.key, vec![Value::from("c")]);
    assert_eq!(w.threshold, 50);
    assert_eq!(w.height, 50, "fires as soon as the threshold is crossed");

    let report = solution.ascent_report(5).expect("ascent was enabled");
    assert_eq!(report.cells, 1);
    assert_eq!(report.max_height, 101, "seed + 100 strict increases");
    assert_eq!(report.per_lattice, vec![("MaxInt".to_string(), 101)]);
    assert_eq!(report.hottest.len(), 1);
    assert_eq!(report.hottest[0].predicate, "Count");
}

#[test]
fn min_cost_shortest_paths_reports_expected_heights() {
    let program = dist_builder().build().expect("valid");
    let solution = Solver::new()
        .ascent(AscentConfig::default())
        .solve(&program)
        .expect("solves");
    let report = solution.ascent_report(10).expect("ascent was enabled");
    assert_eq!(report.cells, 4, "a, b, c, d");
    // b is reached once on its only path (height 1); c and d are first
    // reached expensively (a→c cost 5) and later improved through
    // a→b→c (height 2).
    assert_eq!(report.max_height, 2);
    assert_eq!(
        report.per_lattice,
        vec![("MinCost".to_string(), 2)],
        "the per-lattice maxima name the lattice type"
    );
    let heights: u64 = report.histogram.iter().map(|(_, n)| n).sum();
    assert_eq!(heights, report.cells, "histogram covers every cell");
    // Without a warn threshold no warning can fire — the default
    // config is report-only.
    assert_eq!(AscentConfig::default().warn_height, None);
}

#[test]
fn ascent_report_is_absent_unless_configured() {
    let program = dist_builder().build().expect("valid");
    let solution = Solver::new().solve(&program).expect("solves");
    assert!(solution.ascent_report(10).is_none());
}

#[test]
fn query_path_tracks_ascent_on_demanded_cells() {
    let program = dist_builder().build().expect("valid");
    let log = Arc::new(WarningLog::default());
    let result = Solver::new()
        .ascent(AscentConfig {
            warn_height: Some(2),
        })
        .observer(log.clone())
        .solve_query(
            &program,
            &[Query::new("Dist", vec![Some(Value::from("d")), None])],
        )
        .expect("solves");
    let report = result
        .solution()
        .ascent_report(10)
        .expect("ascent was enabled on the rewritten run");
    assert!(report.cells > 0, "demanded cells are tracked");
    assert!(report.max_height >= 2);
    let warnings = log.warnings.lock().expect("log");
    assert!(
        warnings.iter().all(|w| w.predicate == "Dist"),
        "warnings name the user-facing lattice predicate: {warnings:?}"
    );
    assert!(!warnings.is_empty(), "height 2 crosses the threshold");
}

#[test]
fn resume_continues_ascent_accounting() {
    let program = tall_chain_builder(10).build().expect("valid");
    let solver = Solver::new().ascent(AscentConfig::default());
    let prior = solver.solve(&program).expect("solves");
    assert_eq!(
        prior.ascent_report(5).expect("enabled").max_height,
        11,
        "seed + 10 increases"
    );
    // Raising the cell directly resumes the chain from the prior model.
    let delta = flix_core::Delta::new().raise("Count", vec![Value::from("c")], Value::Int(20));
    let resumed = solver.resume(&program, &prior, &delta).expect("resumes");
    let report = resumed.ascent_report(5).expect("enabled");
    assert!(
        report.max_height >= 1,
        "the resumed run tracks its own joins: {report:?}"
    );
    assert_eq!(
        resumed.lattice_value("Count", &[Value::from("c")]),
        Some(Value::Int(20)),
        "the raise sticks (20 is above the filter bound, so no rule re-fires)"
    );
}

#[test]
fn a_retraction_keeps_the_counters_of_the_cells_it_leaves_alone() {
    // `t` is first reached on the direct edge and then improved three
    // times, one hop further round by round; `w` is reached directly and
    // improved once, through `u`.
    let more_edges = [
        ("a", "t", 20),
        ("b", "t", 10),
        ("c", "t", 5),
        ("d", "t", 1),
        ("a", "u", 1),
        ("u", "w", 1),
        ("a", "w", 7),
    ];
    let program = dist_builder_with(&more_edges).build().expect("valid");
    let solver = Solver::new()
        .ascent(AscentConfig::default())
        .record_provenance(true);
    let height_of = |solution: &flix_core::Solution, node: &str| {
        let report = solution.ascent_report(20).expect("ascent was enabled");
        let key = format!("(\"{node}\")");
        let cell = report.hottest.iter().find(|cell| cell.key == key);
        cell.map(|cell| cell.height)
    };
    let prior = solver.solve(&program).expect("solves");
    let climbed = height_of(&prior, "t").expect("reached");
    assert!(climbed >= 3, "t climbed {climbed} times");
    assert_eq!(height_of(&prior, "w"), Some(2));

    // Taking `a → u` away kills `u` and `w` — a cone, but not one `t` is
    // in: its cell, wherever the deletion moved it, keeps its history.
    // `w` comes back on its direct edge and starts over; `u` is gone.
    let delta = flix_core::Delta::new().retract("Edge", vec!["a".into(), "u".into(), 1.into()]);
    let resumed = solver.resume(&program, &prior, &delta).expect("resumes");
    assert_eq!(
        resumed.lattice_value("Dist", &[Value::from("w")]),
        Some(MinCost::finite(7).to_value())
    );
    assert_eq!(height_of(&resumed, "t"), Some(climbed));
    assert_eq!(height_of(&resumed, "w"), Some(1));
    assert_eq!(height_of(&resumed, "u"), None);
    assert_eq!(height_of(&resumed, "b"), height_of(&prior, "b"));
}
