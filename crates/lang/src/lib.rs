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

/// Parses `text` as exactly one bodyless atom, returning its predicate
/// name and terms. Shared by the `flixr --explain` and `--query` atom
/// syntaxes; errors carry the source position within `text`.
fn parse_single_atom(text: &str, example: &str) -> Result<(String, Vec<ast::RuleTerm>), LangError> {
    let trimmed = text.trim().trim_end_matches('.');
    let source = format!("{trimmed}.");
    let parsed = parse(&source)?;
    let [ast::Decl::Constraint(c)] = parsed.decls.as_slice() else {
        return Err(LangError::parse(
            Default::default(),
            format!("expected exactly one atom, e.g. {example}"),
        ));
    };
    if !c.body.is_empty() {
        return Err(LangError::parse(c.pos, "expected an atom, found a rule"));
    }
    Ok((c.head.pred.clone(), c.head.terms.clone()))
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
    let (pred, terms) = parse_single_atom(text, "Path(1, 2)")?;
    let values = terms
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
    Ok((pred, values))
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
    let (pred, terms) = parse_single_atom(text, "Path(1, _)")?;
    let pattern = terms
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
    Ok((pred, pattern))
}

/// Compiles update-file text into a [`flix_core::Delta`] — the syntax
/// of `flixr --update` and of the daemon `update` op. The text is a
/// standalone FLIX file re-declaring the predicates its facts touch:
/// plain facts become insertions (lattice facts lub-raise), and a line
/// of the form `-Edge(1, 2).` or `retract Edge(1, 2).` becomes a
/// retraction — for a lattice predicate, a lower withdrawing that key's
/// asserted contribution. Retraction lines are extracted before the
/// rest of the text is compiled (blanked in place, so error positions
/// in the remainder keep their line numbers) and are ordered *after*
/// the text's assertions.
///
/// # Errors
///
/// Returns a [`LangError`] from compiling the assertions, or a parse
/// error carrying the line number of a malformed retraction.
pub fn compile_update(source: &str) -> Result<flix_core::Delta, LangError> {
    let mut kept = String::with_capacity(source.len());
    let mut retractions: Vec<(usize, String)> = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        let atom = if let Some(rest) = trimmed.strip_prefix('-') {
            // Only a minus directly before a predicate name marks a
            // retraction; anything else (a stray `-1`, say) falls
            // through to the compiler, whose error will point at it.
            rest.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic())
                .then_some(rest)
        } else {
            trimmed.strip_prefix("retract ")
        };
        match atom {
            Some(text) => {
                retractions.push((idx + 1, text.trim().to_string()));
                kept.push('\n');
            }
            None => {
                kept.push_str(line);
                kept.push('\n');
            }
        }
    }
    let update_program = compile(&kept)?;
    let mut delta = flix_core::Delta::from_facts(&update_program);
    for (lineno, text) in retractions {
        let (predicate, tuple) = parse_ground_atom(&text).map_err(|e| {
            LangError::parse(
                token::Pos {
                    line: lineno as u32,
                    col: 1,
                },
                format!("in retraction on line {lineno}: {e}"),
            )
        })?;
        delta.push_op(flix_core::DeltaOp::Retract { predicate, tuple });
    }
    Ok(delta)
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
