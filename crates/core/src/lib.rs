//! The FLIX fixed-point engine: Datalog extended with lattices, monotone
//! transfer functions, and monotone filter functions.
//!
//! This crate is the primary contribution of the reproduced paper (Madsen,
//! Yee, Lhoták: *From Datalog to FLIX: A Declarative Language for Fixed
//! Points on Lattices*, PLDI 2016) as an embeddable Rust library:
//!
//! * [`Value`] — the dynamic value universe (ints, strings, booleans,
//!   tagged unions, tuples, sets);
//! * [`LatticeOps`] / [`ValueLattice`] — runtime lattice operations over
//!   values, bridging the statically typed lattices of
//!   [`flix_lattice`];
//! * [`ProgramBuilder`] — declare `rel` and `lat` predicates, register
//!   functions, add facts and rules (with head transfer functions, body
//!   filters, `<-` choice bindings, and stratified negation);
//! * [`Solver`] — naïve and semi-naïve evaluation (§3.7), optionally
//!   parallel and optionally index-free (for the ablation benchmarks),
//!   configured via [`SolverConfig`] or chained builder methods,
//!   producing a [`Solution`];
//! * [`incremental`] — monotone update deltas and [`Solver::resume`],
//!   warm-starting the semi-naïve fixed point from a prior model;
//! * [`demand`] — point queries and [`Solver::solve_query`], a
//!   magic-set-style rewrite restricting evaluation to the tuples and
//!   lattice cells a query demands;
//! * [`persist`] — crash-safe model persistence: checksummed snapshots,
//!   a write-ahead delta log, and [`Solver::recover`];
//! * [`model`] — the model-theoretic checker used to cross-validate
//!   solver output against the declarative semantics of §3.2.
//!
//! # Quickstart
//!
//! The shortest-paths program of §4.4 of the paper:
//!
//! ```
//! use flix_core::{
//!     BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Solver, Term, Value, ValueLattice,
//! };
//! use flix_lattice::MinCost;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 3);
//! let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
//!
//! // Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
//! let extend = b.function("extend", |args| {
//!     let d = MinCost::expect_from(&args[0]);
//!     let c = args[1].as_int().expect("edge weight") as u64;
//!     d.add_weight(c).to_value()
//! });
//! b.fact(dist, vec![Value::from("a"), MinCost::finite(0).to_value()]);
//! b.fact(edge, vec!["a".into(), "b".into(), 4.into()]);
//! b.fact(edge, vec!["b".into(), "c".into(), 3.into()]);
//! b.fact(edge, vec!["a".into(), "c".into(), 9.into()]);
//! b.rule(
//!     Head::new(dist, [
//!         HeadTerm::var("y"),
//!         HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
//!     ]),
//!     [
//!         BodyItem::atom(dist, [Term::var("x"), Term::var("d")]),
//!         BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
//!     ],
//! );
//!
//! let solution = Solver::new().solve(&b.build()?)?;
//! assert_eq!(
//!     solution.lattice_value("Dist", &[Value::from("c")]),
//!     Some(MinCost::finite(7).to_value()),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod database;
pub mod demand;
mod fxhash;
mod guard;
pub mod incremental;
pub mod json;
mod kernel;
pub mod model;
pub mod observe;
mod ops;
pub mod persist;
mod program;
pub mod provenance;
mod solver;
mod stratify;
pub mod trace;
mod value;
pub mod verify;

pub use ast::{
    BodyItem, FuncId, Head, HeadTerm, PredDecl, PredId, PredKind, ProgramBuilder, ProgramError,
    Term, WordType,
};
pub use database::{
    ctor_of_slot, int_of_slot, slot_of_ctor, slot_of_int, Names, CHAIN_BOTTOM, FLAT_BOTTOM,
    FLAT_TOP, WORD_FALSE, WORD_TRUE,
};
pub use demand::{DemandError, Query, QueryResult};
pub use guard::{Budget, BudgetKind, CancelToken};
pub use incremental::{Delta, DeltaError, DeltaOp};
pub use observe::{
    render_metrics_json, render_profile_table, MetricsReport, Observer, RuleStats, StratumStats,
    METRICS_SCHEMA,
};
pub use ops::{LatticeKind, LatticeOps, ValueLattice};
pub use persist::{
    load_snapshot, program_fingerprint, save_snapshot, CompactError, DeltaLog, DurableFiles,
    DurableModel, OpenError, PersistError, RecoveryReport, UpdateError, WalRecovery,
};
pub use program::Program;
pub use solver::{
    ConfigError, Fact, FactsIter, LatticeIter, RelationIter, Solution, SolveError, SolveFailure,
    SolveStats, Solver, SolverConfig, Strategy,
};
pub use trace::{
    render_ascent_report, AscentCell, AscentConfig, AscentReport, AscentWarning, ExecutionTrace,
    SpanKind, TraceConfig, TraceEvent,
};
pub use value::{Value, MAX_VALUE_DEPTH};
