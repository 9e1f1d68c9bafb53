//! Crash-safe model persistence: checksummed snapshots, a write-ahead
//! delta log, and the recovery path that stitches them back into a
//! [`Solution`].
//!
//! The ROADMAP's resident fixed-point service keeps solved models live
//! across batched updates; this module is what makes that durable. The
//! design follows the shape of the incremental engine
//! ([`crate::incremental`]): a model is a *base fixed point* plus a
//! *log of deltas*, so durability decomposes into
//!
//! 1. a **snapshot** of the base model ([`save_snapshot`] /
//!    [`load_snapshot`]): a versioned binary file with a CRC-32 per
//!    frame, written atomically (temp file + rename) so a crash during
//!    a save can never destroy the previous snapshot;
//! 2. a **write-ahead log** ([`DeltaLog`]): each [`crate::Delta`] is
//!    appended as a checksummed, length-prefixed frame *before*
//!    [`Solver::resume`] runs, so a crash mid-resume loses no update;
//! 3. the **durable model** ([`DurableModel`]) that puts the two
//!    together, once, for every caller: `open` loads the snapshot and
//!    replays the valid WAL prefix through `resume`, degrading
//!    gracefully — a corrupt snapshot falls back to a scratch solve, a
//!    corrupt WAL tail is truncated, a destroyed WAL header means a
//!    fresh log, and every degradation is reported in a
//!    [`RecoveryReport`]; `update` logs, then applies; `compact` folds
//!    the log into the snapshot. [`Solver::recover`] is its read-only
//!    form.
//!
//! Replay is *idempotent* because every delta op — insert, retract,
//! raise, or lower ([`crate::incremental::DeltaOp`]) — is a set
//! operation on the extensional store: applying an op the store
//! already reflects is a no-op. That is what makes the crash windows
//! safe — in particular, a crash between writing the compaction
//! snapshot and truncating the log merely replays absorbed deltas on
//! the next recovery. Retracting deltas additionally need the
//! extensional store the model is the fixed point of, which every
//! snapshot records.
//!
//! Both formats embed a [`program_fingerprint`] of the program they
//! were produced against, and loading rejects a mismatch: replaying
//! deltas against the wrong program would silently compute the wrong
//! model. The fingerprint covers program *identity* (declarations,
//! rules, base facts) — a snapshot taken after resuming over deltas
//! still carries its base program's fingerprint, which is exactly
//! right: such a model is a valid warm-start for that program.
//!
//! The wire formats are specified byte-for-byte in DESIGN.md §14 and
//! pinned by a committed golden fixture; changing them requires a
//! deliberate version bump. The fault-injection harness behind the
//! `test-internals` feature (`faultfs::Fault`, written up in the same DESIGN
//! section) interposes on the write path so tests can prove recovery
//! survives torn writes, lost writes, bit flips, and injected I/O
//! errors at every byte boundary.
//!
//! # Example
//!
//! ```
//! use flix_core::incremental::Delta;
//! use flix_core::persist::{load_snapshot, save_snapshot, DeltaLog};
//! use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 2);
//! let path = b.relation("Path", 2);
//! b.fact(edge, vec![1.into(), 2.into()]);
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
//!     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
//! );
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
//!     [
//!         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
//!         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
//!     ],
//! );
//! let program = b.build()?;
//! let solver = Solver::new();
//!
//! let dir = std::env::temp_dir().join(format!("flix-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let snap = dir.join("model.snap");
//! let wal = dir.join("model.wal");
//!
//! // Solve, snapshot, and log one update ahead of applying it.
//! let initial = solver.solve(&program)?;
//! save_snapshot(&snap, &program, &initial)?;
//! let (mut log, _) = DeltaLog::open(&wal, &program)?;
//! let delta = Delta::new().insert("Edge", vec![2.into(), 3.into()]);
//! log.append(&delta)?;
//! let updated = solver.resume(&program, &initial, &delta)?;
//! assert!(updated.contains("Path", &[1.into(), 3.into()]));
//!
//! // ... the process dies here; a fresh one recovers the same model.
//! let (recovered, report) = solver.recover(&program, &snap, &wal)?;
//! assert!(report.clean());
//! assert!(recovered.contains("Path", &[1.into(), 3.into()]));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

use crate::{Program, Solution, SolveFailure, Solver};
use std::fmt;
use std::path::{Path, PathBuf};

mod durable;
#[cfg(any(test, feature = "test-internals"))]
mod faultfs;
mod snapshot;
mod wal;
mod wire;

pub use durable::{Applied, CompactError, DurableFiles, DurableModel, OpenError, UpdateError};
#[cfg(any(test, feature = "test-internals"))]
pub use faultfs::{corrupt_file, save_snapshot_with_fault, Fault, FaultPlan};
pub use snapshot::{
    load_snapshot, save_snapshot, snapshot_from_bytes, snapshot_to_bytes, SNAPSHOT_VERSION,
};
pub use wal::{DeltaLog, WalRecovery, WAL_VERSION};
pub use wire::program_fingerprint;

/// A persistence failure: file I/O, or a corruption the checksums and
/// structural validation caught.
///
/// Corruption variants are *expected* outcomes — [`Solver::recover`]
/// treats them as degradation signals, never panics. I/O variants
/// always carry the path and the operation that failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// A file operation failed.
    Io {
        /// What was being done, e.g. `"read snapshot"`.
        op: &'static str,
        /// The file it was being done to.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file does not start with the expected magic bytes — it is
    /// not a snapshot / WAL at all (or its header was destroyed).
    BadMagic {
        /// Which format was expected: `"snapshot"` or `"write-ahead log"`.
        kind: &'static str,
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Which format: `"snapshot"` or `"write-ahead log"`.
        kind: &'static str,
        /// The version found in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The header failed its CRC or is structurally invalid.
    CorruptHeader {
        /// Which format: `"snapshot"` or `"write-ahead log"`.
        kind: &'static str,
    },
    /// The file was produced against a different program (fingerprint
    /// mismatch); replaying it here would compute the wrong model.
    ProgramMismatch {
        /// The fingerprint of the program being loaded against.
        expected: u64,
        /// The fingerprint recorded in the file.
        found: u64,
    },
    /// A data frame failed its CRC or would not decode.
    CorruptFrame {
        /// Zero-based frame index within the file.
        frame: usize,
        /// Byte offset of the frame within the file.
        at: usize,
        /// What the validation found.
        reason: String,
    },
    /// Bytes follow the last frame a snapshot's header declared.
    TrailingBytes {
        /// Byte offset where the unexpected bytes begin.
        at: usize,
    },
    /// A decoded fact was rejected by the database (a lattice operation
    /// faulted on the stored cell value).
    BadCell {
        /// The predicate whose fact was rejected.
        predicate: String,
        /// What the database reported.
        reason: String,
    },
    /// A fault injected by the test-gated harness (`faultfs::Fault`); never
    /// produced outside tests.
    Injected {
        /// The byte offset (within the written stream) the fault struck.
        at: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            PersistError::BadMagic { kind } => {
                write!(f, "not a {kind} file (bad magic)")
            }
            PersistError::UnsupportedVersion {
                kind,
                found,
                supported,
            } => write!(
                f,
                "{kind} format version {found} is not supported (this build reads version {supported})"
            ),
            PersistError::CorruptHeader { kind } => write!(f, "corrupt {kind} header"),
            PersistError::ProgramMismatch { expected, found } => write!(
                f,
                "file was produced against a different program \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            PersistError::CorruptFrame { frame, at, reason } => {
                write!(f, "corrupt frame {frame} at byte {at}: {reason}")
            }
            PersistError::TrailingBytes { at } => {
                write!(f, "unexpected trailing bytes at offset {at}")
            }
            PersistError::BadCell { predicate, reason } => {
                write!(f, "stored fact for {predicate} was rejected: {reason}")
            }
            PersistError::Injected { at } => {
                write!(f, "injected fault at byte {at}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PersistError {
    pub(crate) fn io(op: &'static str, path: &Path, source: std::io::Error) -> PersistError {
        PersistError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

/// What [`Solver::recover`] found on disk and what it did about it.
///
/// Recovery *degrades* instead of failing: every field here describes a
/// degradation the caller may want to surface (a daemon would log
/// them), while the returned [`Solution`] is always a correct model of
/// the program plus the surviving delta prefix.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// The snapshot loaded and verified cleanly.
    pub snapshot_loaded: bool,
    /// Why the snapshot was unusable (absent when it loaded).
    pub snapshot_error: Option<PersistError>,
    /// Why the WAL was unusable beyond tail truncation (a corrupt
    /// header, say); absent when the log opened.
    pub wal_error: Option<PersistError>,
    /// Checksummed frames replayed from the WAL.
    pub wal_frames_replayed: usize,
    /// Individual delta entries those frames carried.
    pub wal_entries_replayed: usize,
    /// Bytes dropped from the corrupt tail of the WAL (0 for a clean
    /// log). The log file itself is truncated to the valid prefix.
    pub wal_bytes_dropped: u64,
    /// The base model came from a scratch solve because the snapshot
    /// was unusable.
    pub scratch_solve: bool,
}

impl RecoveryReport {
    /// `true` when recovery found nothing wrong: the snapshot loaded
    /// and the WAL replayed completely.
    pub fn clean(&self) -> bool {
        self.snapshot_loaded
            && self.snapshot_error.is_none()
            && self.wal_error.is_none()
            && self.wal_bytes_dropped == 0
    }

    /// One line per degradation [`DurableModel::open`] on `files` went
    /// through, for an operator's stderr (no program-name prefix).
    pub fn warnings(&self, files: &DurableFiles) -> Vec<String> {
        let snapshot = files.load.as_deref().unwrap_or(Path::new("")).display();
        let wal = files.wal.as_deref().unwrap_or(Path::new("")).display();
        let mut lines = Vec::new();
        if let Some(e) = &self.snapshot_error {
            lines.push(format!(
                "warning: snapshot {snapshot} is unusable ({e}); solving from scratch"
            ));
        }
        if let Some(e) = &self.wal_error {
            lines.push(format!(
                "warning: write-ahead log {wal} is unusable ({e}); starting a fresh log"
            ));
        }
        if self.wal_bytes_dropped > 0 {
            lines.push(format!(
                "warning: write-ahead log {wal}: truncated {} corrupt trailing byte(s); \
                 replaying the {} intact frame(s)",
                self.wal_bytes_dropped, self.wal_frames_replayed
            ));
        }
        lines
    }
}

impl Solver {
    /// Recovers a model from a snapshot plus a write-ahead log without
    /// taking ownership of either: [`DurableModel::open`]'s recovery
    /// for a caller that will not append. The snapshot, else a scratch
    /// solve, plus the valid frame prefix of the log (a corrupt tail is
    /// truncated) applied in one step — exactly the model a scratch
    /// solve of `program` + surviving deltas would produce.
    ///
    /// Neither file is created: a missing WAL simply replays nothing.
    /// No state of the files makes this method fail — a log `open`
    /// would refuse is reported in [`RecoveryReport::wal_error`] and
    /// left alone. The only errors are genuine solve failures (budget,
    /// panicking functions, …), returned exactly as [`Solver::solve`]
    /// returns them — and an intact frame the program rejects, which
    /// [`DurableModel::open`] refuses too: `SolveError::Delta`.
    pub fn recover(
        &self,
        program: &Program,
        snapshot: impl AsRef<Path>,
        log: impl AsRef<Path>,
    ) -> Result<(Solution, RecoveryReport), Box<SolveFailure>> {
        let mut report = RecoveryReport::default();
        let (_, replay) = durable::salvage(program, Some(log.as_ref()), false, &mut report)
            .expect("a salvage that will not own the log reports instead of failing");
        let solution =
            durable::settle(self, program, Some(snapshot.as_ref()), &replay, &mut report)?;
        Ok((solution, report))
    }
}
