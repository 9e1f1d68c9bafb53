//! The FLIX surface language: lexer, parser, type checker, interpreter,
//! and lowering to the [`flix_core`] fixed-point engine.
//!
//! This crate is the "compiler and runtime" of §4 of the reproduced paper
//! (Madsen, Yee, Lhoták, PLDI 2016): "The toolchain includes a parser, a
//! type checker, an interpreter, an indexed database, and a semi-naïve
//! fixed-point solver" — the database and solver live in [`flix_core`];
//! everything else is here, plus the `flixr` CLI binary.
//!
//! # Example
//!
//! Compile and solve a FLIX program from source:
//!
//! ```
//! use flix_core::Solver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = r#"
//!     rel Edge(x: Int, y: Int);
//!     rel Path(x: Int, y: Int);
//!
//!     Edge(1, 2).
//!     Edge(2, 3).
//!
//!     Path(x, y) :- Edge(x, y).
//!     Path(x, z) :- Path(x, y), Edge(y, z).
//! "#;
//! let program = flix_lang::compile(source)?;
//! let solution = Solver::new().solve(&program)?;
//! assert!(solution.contains("Path", &[1.into(), 3.into()]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cli;
pub mod error;
pub mod interp;
mod lexer;
mod lower;
mod parser;
pub mod pretty;
pub mod token;
pub mod typeck;
pub mod verify;

use flix_core::{Delta, DeltaOp};
use std::sync::Arc;

pub use error::LangError;
pub use interp::Interpreter;
pub use lexer::lex;
pub use lower::lower;
pub use parser::parse;
pub use typeck::{check, CheckedProgram};

/// Compiles FLIX source text to an executable engine program.
///
/// Runs the full pipeline: lex → parse → type check → lower. Solve the
/// result with [`flix_core::Solver`].
///
/// # Errors
///
/// Returns the first [`LangError`] from any phase.
pub fn compile(source: &str) -> Result<flix_core::Program, LangError> {
    let parsed = parse(source)?;
    let checked = check(&parsed)?;
    lower(Arc::new(checked))
}

/// Parses `text` as exactly one atom. Shared by the `flixr --explain` and
/// `--query` atom syntaxes, which read through the same entry as update
/// text; errors carry the source position within `text`.
fn parse_single_atom(text: &str, example: &str) -> Result<ast::Atom, LangError> {
    let mut facts = parser::parse_facts(text)?;
    match (facts.pop(), facts.is_empty()) {
        (Some((false, atom)), true) => Ok(atom),
        _ => Err(LangError::parse(
            Default::default(),
            format!("expected exactly one atom, e.g. {example}"),
        )),
    }
}

/// Parses a single ground atom like `Path(1, "a")` into its predicate
/// name and values — the query syntax of `flixr --explain`.
///
/// # Errors
///
/// Returns a [`LangError`] if the text is not a single ground atom; a
/// `_` wildcard is rejected with its source position and a pointer to
/// `--query`, which accepts patterns.
pub fn parse_ground_atom(text: &str) -> Result<(String, Vec<flix_core::Value>), LangError> {
    let atom = parse_single_atom(text, "Path(1, 2)")?;
    let values = atom
        .terms
        .iter()
        .map(|t| match t {
            ast::RuleTerm::Lit(..) | ast::RuleTerm::Ctor { .. } => Ok(lower::ground_value(t)),
            ast::RuleTerm::Wildcard(pos) => Err(LangError::parse(
                *pos,
                "explain queries must be ground; replace `_` with a value \
                 (or use --query, which accepts `_` patterns)",
            )),
            other => Err(LangError::parse(
                other.pos(),
                "explain queries must be ground (no variables)",
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((atom.pred, values))
}

/// Parses a query atom like `Path(1, _)` into its predicate name and
/// bound/free pattern — the query syntax of `flixr --query`. A `_`
/// wildcard marks a free position (`None`); literals and enum
/// constructors are bound positions (`Some`).
///
/// # Errors
///
/// Returns a [`LangError`] (with the offending source position) if the
/// text is not a single atom of literals and wildcards.
pub fn parse_query_atom(text: &str) -> Result<(String, Vec<Option<flix_core::Value>>), LangError> {
    let atom = parse_single_atom(text, "Path(1, _)")?;
    let pattern = atom
        .terms
        .iter()
        .map(|t| match t {
            ast::RuleTerm::Wildcard(_) => Ok(None),
            ast::RuleTerm::Lit(..) | ast::RuleTerm::Ctor { .. } => Ok(Some(lower::ground_value(t))),
            other => Err(LangError::parse(
                other.pos(),
                "query atoms take literals and `_` wildcards (no variables)",
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((atom.pred, pattern))
}

/// Compiles update text into a [`Delta`] for `program` — the
/// syntax of `flixr --update` and of the daemon `update` op. The text
/// holds facts only, typed against `program`'s declarations exactly as
/// the program's own facts are: a declaration, `def` or rule is refused
/// where it starts. A fact `Edge(3, 4).` asserts (a lattice fact
/// lub-raises); `-Edge(1, 2).` or `retract Edge(1, 2).` retracts — for a
/// lattice predicate, a lower withdrawing that key's asserted
/// contribution. The assertions apply first, then the retractions, each
/// in source order.
///
/// # Errors
///
/// Returns the first [`LangError`] in the text, with its position: a
/// parse error, or a type error against `program`.
pub fn compile_update(program: &CheckedProgram, source: &str) -> Result<Delta, LangError> {
    let mut ops = parser::parse_facts(source)?
        .into_iter()
        .map(|(retract, atom)| {
            let tuple = program.check_fact(&atom)?;
            let predicate = atom.pred;
            Ok(match retract {
                false => DeltaOp::Insert { predicate, tuple },
                true => DeltaOp::Retract { predicate, tuple },
            })
        })
        .collect::<Result<Vec<_>, LangError>>()?;
    // A stable sort: the assertions move ahead of the retractions.
    ops.sort_by_key(|op| matches!(op, DeltaOp::Retract { .. }));
    Ok(ops.into_iter().fold(Delta::new(), Delta::op))
}

/// Compiles and solves FLIX source text with the default solver.
///
/// # Errors
///
/// Returns a boxed error from compilation or solving.
pub fn run(source: &str) -> Result<flix_core::Solution, Box<dyn std::error::Error>> {
    let program = compile(source)?;
    Ok(flix_core::Solver::new().solve(&program)?)
}
