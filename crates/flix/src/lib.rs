//! flix — a Rust reproduction of *From Datalog to FLIX: A Declarative
//! Language for Fixed Points on Lattices* (Madsen, Yee & Lhoták,
//! PLDI 2016).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`lattice`] — lattice traits, standard abstract domains, combinators,
//!   and law checkers ([`flix_lattice`]);
//! * [`core`] — the fixed-point engine: Datalog extended with lattices,
//!   monotone transfer functions, filter functions, choice bindings, and
//!   stratified negation, solved naïvely or semi-naïvely
//!   ([`flix_core`]);
//! * [`lang`] — the FLIX surface language: lexer, parser, type checker,
//!   interpreter, and lowering ([`flix_lang`]);
//! * [`analyses`] — the paper's case studies: points-to (Fig. 1), combined
//!   dataflow (Fig. 2), Strong Update (Fig. 4, three implementations),
//!   IFDS (Fig. 5), IDE (Figs. 6–7), shortest paths (§4.4), and the
//!   workload generators behind Tables 1 and 2 ([`flix_analyses`]).
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Example
//!
//! ```
//! use flix::{Solver, compile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile(
//!     "rel Edge(x: Int, y: Int);
//!      rel Path(x: Int, y: Int);
//!      Edge(1, 2). Edge(2, 3).
//!      Path(x, y) :- Edge(x, y).
//!      Path(x, z) :- Path(x, y), Edge(y, z).",
//! )?;
//! let solution = Solver::new().solve(&program)?;
//! assert!(solution.contains("Path", &[1.into(), 3.into()]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flix_analyses as analyses;
pub use flix_core as core;
pub use flix_lang as lang;
pub use flix_lattice as lattice;

pub use flix_core::{
    load_snapshot, program_fingerprint, save_snapshot, AscentConfig, AscentReport, AscentWarning,
    BodyItem, Budget, BudgetKind, CancelToken, ConfigError, Delta, DeltaError, DeltaLog, DeltaOp,
    DemandError, ExecutionTrace, Fact, FactsIter, Head, HeadTerm, LatticeIter, LatticeOps,
    Observer, PersistError, Program, ProgramBuilder, Query, QueryResult, RecoveryReport,
    RelationIter, Solution, SolveError, SolveFailure, Solver, SolverConfig, SpanKind, Strategy,
    Term, TraceConfig, Value, ValueLattice, WalRecovery,
};
pub use flix_lang::compile;
pub use flix_lattice::{HasTop, Lattice};
