//! Language hooks: the parsing and compilation callbacks the daemon
//! needs but cannot link against directly.
//!
//! `flixd` sits *below* `flix-lang` in the dependency graph (the
//! `flixr` client mode lives in `flix-lang`), so the surface
//! language cannot be a dependency of this crate. Everything that needs
//! the language — turning `--query` atoms into demand patterns, update
//! files into deltas — is injected here as boxed closures. The `flixd`
//! binary (in `flix-lang`) wires them to the real compiler; tests wire
//! tiny hand-rolled parsers.

use flix_core::{Delta, Value};

/// A parsed query pattern: predicate name plus one binding per column
/// (`None` is a wildcard).
pub type QueryPattern = (String, Vec<Option<Value>>);

/// A parsed ground atom: predicate name plus one value per column.
pub type GroundAtom = (String, Vec<Value>);

/// Parses a `--query`-syntax pattern such as `Dist("a", _)`.
pub type ParseQueryFn = dyn Fn(&str) -> Result<QueryPattern, String> + Send + Sync;

/// Parses an `--explain`-syntax ground atom such as `Path(1, 3)`.
pub type ParseAtomFn = dyn Fn(&str) -> Result<GroundAtom, String> + Send + Sync;

/// Compiles `--update`-syntax text into a [`Delta`]: facts only —
/// `Fact(..).`, `-Fact(..).` and `retract Fact(..).` — typed against the
/// declarations of the resident program.
pub type CompileUpdateFn = dyn Fn(&str) -> Result<Delta, String> + Send + Sync;

/// The language callbacks a [`Server`](crate::Server) runs with.
///
/// Every error string is surfaced to the requesting client verbatim
/// under [`ErrorCode::Parse`](crate::ErrorCode::Parse).
pub struct Hooks {
    /// Parses query patterns for the `query` op.
    pub parse_query: Box<ParseQueryFn>,
    /// Parses ground atoms for the `explain` op.
    pub parse_atom: Box<ParseAtomFn>,
    /// Compiles update text for the `update` op.
    pub compile_update: Box<CompileUpdateFn>,
}

impl std::fmt::Debug for Hooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks").finish_non_exhaustive()
    }
}
