//! The durable model: "snapshot + write-ahead log → model → durable
//! update → compaction", written once. [`Solver::recover`], `flixr`'s
//! `--load`/`--wal`/`--save` and the `flixd` writer are callers of the
//! code in this file; none of them opens a log or loads a snapshot
//! itself.
//!
//! A recovered model and an updated model are the same thing — the
//! least fixed point of the rules over an extensional store — reached
//! from a different seed, so both are one [`Solver::resume`] (or, with
//! no usable snapshot, one [`Solver::solve`]) away from what is on disk.

use super::{load_snapshot, DeltaLog, PersistError, RecoveryReport};
use crate::incremental::{Delta, DeltaError};
use crate::solver::Run;
use crate::{Program, Solution, SolveFailure, Solver};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a [`DurableModel`] lives on disk. Every path is optional; with
/// none, the model is a scratch solve whose updates stay volatile.
#[derive(Debug, Default)]
pub struct DurableFiles {
    /// The snapshot to start from. Missing or unusable: a scratch solve.
    pub load: Option<PathBuf>,
    /// The snapshot [`DurableModel::compact`] writes.
    pub save: Option<PathBuf>,
    /// The write-ahead log: replayed by [`DurableModel::open`] (and
    /// created when missing), appended to by [`DurableModel::update`].
    pub wal: Option<PathBuf>,
}

/// Why [`DurableModel::open`] refused. Damage never lands here — it
/// degrades and is reported in the [`RecoveryReport`].
#[derive(Debug)]
pub enum OpenError {
    /// The log belongs to another program or format version, or could
    /// not be read or created. Nothing was solved; the file is untouched.
    Persist(PersistError),
    /// The recovery solve failed, exactly as [`Solver::solve`] fails.
    Solve {
        /// The guarded failure, partial model included.
        failure: Box<SolveFailure>,
        /// What recovery had found on disk before the solve failed.
        report: Box<RecoveryReport>,
    },
}

/// What a successful [`DurableModel::update`] cost.
#[derive(Clone, Copy, Debug)]
pub struct Applied {
    /// The append and its fsync; `None` without a log.
    pub append: Option<Duration>,
    /// The resume that brought the model to the updated store.
    pub resume: Duration,
    /// Delta entries applied: the update's own plus any carried debt.
    pub entries: usize,
}

/// Why [`DurableModel::update`] left the model as it was.
#[derive(Debug)]
pub enum UpdateError {
    /// The delta does not fit the program (an unknown predicate, a wrong
    /// arity, a value its lattice refuses as an element): it was refused
    /// before the append, so nothing became
    /// durable, nothing was applied, and the log is byte-identical.
    Rejected(DeltaError),
    /// The append failed: nothing became durable, nothing was applied.
    Append(PersistError),
    /// The delta is durable but the guarded resume failed. It is carried
    /// as debt into the next update (and replayed by the next `open`).
    Carried {
        /// The guarded failure, partial model included.
        failure: Box<SolveFailure>,
        /// The append and its fsync; `None` without a log.
        append: Option<Duration>,
    },
}

/// Why [`DurableModel::compact`] did nothing.
#[derive(Debug)]
pub enum CompactError {
    /// This many durable delta entries are not in the model yet; a
    /// snapshot of it with the log truncated would drop them.
    Debt(usize),
    /// There is no log, or no snapshot path to compact it into.
    Unconfigured,
    /// Saving the snapshot or truncating the log failed.
    Persist(PersistError),
}

impl fmt::Display for CompactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactError::Debt(entries) => write!(
                f,
                "{entries} durable delta entries await application; retry after the next \
                 successful update"
            ),
            CompactError::Unconfigured => {
                write!(
                    f,
                    "compaction requires both a snapshot path and a write-ahead log"
                )
            }
            CompactError::Persist(e) => write!(f, "compaction failed: {e}"),
        }
    }
}

/// A model together with what makes it durable: the log every update is
/// appended to before it is applied, and the snapshot that absorbs the
/// log. The resident model is always *clean* — a complete fixed point of
/// the program over some prefix of what is durable; `debt` is the rest.
#[derive(Debug)]
pub struct DurableModel {
    program: Arc<Program>,
    save: Option<PathBuf>,
    log: Option<DeltaLog>,
    clean: Arc<Solution>,
    /// Durable entries not in `clean`: non-empty only between a guarded
    /// resume failure and the next successful update.
    debt: Delta,
}

/// Reads the log once and says what survives which damage — the one
/// statement of the corruption policy. A torn or corrupt tail is
/// truncated to the intact frame prefix; a destroyed header leaves
/// nothing salvageable (frame boundaries are only known by walking the
/// lengths after it), so the log is reported and, for an owner,
/// recreated empty; a log of another program or format version is
/// somebody else's durable data, so an owner is refused with the file
/// untouched. A caller that will not append (`own == false`) gets every
/// problem as a report, never an error, and no file is created.
pub(super) fn salvage(
    program: &Program,
    wal: Option<&Path>,
    own: bool,
    report: &mut RecoveryReport,
) -> Result<(Option<DeltaLog>, Delta), PersistError> {
    let mut replay = Delta::new();
    let Some(path) = wal.filter(|path| own || path.exists()) else {
        return Ok((None, replay));
    };
    let log = match DeltaLog::open(path, program) {
        Ok((log, recovery)) => {
            report.wal_frames_replayed = recovery.deltas.len();
            report.wal_bytes_dropped = recovery.dropped_bytes;
            for delta in &recovery.deltas {
                replay.extend_from(delta);
            }
            Some(log)
        }
        Err(e @ (PersistError::BadMagic { .. } | PersistError::CorruptHeader { .. })) => {
            report.wal_error = Some(e);
            if own {
                Some(DeltaLog::create_truncated(path, program)?)
            } else {
                None
            }
        }
        Err(e) if own => return Err(e),
        Err(e) => {
            report.wal_error = Some(e);
            None
        }
    };
    report.wal_entries_replayed = replay.len();
    Ok((log, replay))
}

/// The model of `program` plus `replay`: resumed from the snapshot when
/// it loads, solved from scratch — in one solve, never base-then-replay
/// — when it does not.
pub(super) fn settle(
    solver: &Solver,
    program: &Program,
    load: Option<&Path>,
    replay: &Delta,
    report: &mut RecoveryReport,
) -> Result<Solution, Box<SolveFailure>> {
    let base = load.and_then(|path| match load_snapshot(path, program) {
        Ok(solution) => {
            report.snapshot_loaded = true;
            Some(solution)
        }
        Err(e) => {
            report.snapshot_error = Some(e);
            None
        }
    });
    match base {
        Some(prior) => solver.resume(program, &prior, replay),
        None => {
            report.scratch_solve = true;
            if replay.is_empty() {
                return solver.solve(program);
            }
            // Rejection is unreachable when the fingerprint matched
            // (the entries were validated when appended), but a
            // recovery path does not get to assume that.
            let extended = program.with_delta(replay).map_err(|e| {
                Run::fresh(solver, program, Arc::clone(&program.facts)).reject(e.into())
            })?;
            solver.solve(&extended)
        }
    }
}

impl DurableModel {
    /// Recovers the model from `files` and keeps the log open for
    /// [`DurableModel::update`]. The log is read first, so a log this
    /// program must not touch is refused before anything is solved;
    /// every other problem degrades (see [`RecoveryReport`]).
    pub fn open(
        solver: &Solver,
        program: &Arc<Program>,
        files: &DurableFiles,
    ) -> Result<(DurableModel, RecoveryReport), OpenError> {
        let mut report = RecoveryReport::default();
        let (log, replay) = salvage(program, files.wal.as_deref(), true, &mut report)
            .map_err(OpenError::Persist)?;
        let clean = match settle(solver, program, files.load.as_deref(), &replay, &mut report) {
            Ok(clean) => clean,
            Err(failure) => {
                let report = Box::new(report);
                return Err(OpenError::Solve { failure, report });
            }
        };
        let model = DurableModel {
            program: Arc::clone(program),
            save: files.save.clone(),
            log,
            clean: Arc::new(clean),
            debt: Delta::new(),
        };
        Ok((model, report))
    }

    /// Validate, log, then apply: a `delta` the program rejects is
    /// refused before anything is written — only a delta `resume` can
    /// apply becomes durable — and any other is appended and fsynced
    /// *before* the resume runs, so a crash anywhere after the append
    /// replays it at the next `open`. The resume starts from the clean
    /// model and covers the debt of earlier failed updates too.
    pub fn update(&mut self, solver: &Solver, delta: &Delta) -> Result<Applied, UpdateError> {
        self.program
            .check_delta(delta)
            .map_err(UpdateError::Rejected)?;
        let mut append = None;
        if let Some(log) = &mut self.log {
            let started = Instant::now();
            log.append(delta).map_err(UpdateError::Append)?;
            append = Some(started.elapsed());
        }
        let mut full = self.debt.clone();
        full.extend_from(delta);
        let started = Instant::now();
        match solver.resume(&self.program, &self.clean, &full) {
            Ok(next) => {
                self.clean = Arc::new(next);
                self.debt = Delta::new();
                Ok(Applied {
                    append,
                    resume: started.elapsed(),
                    entries: full.len(),
                })
            }
            Err(failure) => {
                self.debt = full;
                Err(UpdateError::Carried { failure, append })
            }
        }
    }

    /// Saves the model as the snapshot, then truncates the log; returns
    /// the frames absorbed. Crash-safe in both windows (see
    /// [`DeltaLog::compact_into`]).
    pub fn compact(&mut self) -> Result<u64, CompactError> {
        if !self.debt.is_empty() {
            return Err(CompactError::Debt(self.debt.len()));
        }
        let (Some(log), Some(snapshot)) = (&mut self.log, &self.save) else {
            return Err(CompactError::Unconfigured);
        };
        let frames = log.frames();
        log.compact_into(snapshot, &self.program, &self.clean)
            .map_err(CompactError::Persist)?;
        Ok(frames)
    }

    /// The resident model: the last one an `open` or `update` completed.
    pub fn model(&self) -> &Arc<Solution> {
        &self.clean
    }

    /// Frames in the log (0 without one) — what a compaction threshold
    /// is compared with.
    pub fn frames(&self) -> u64 {
        self.log.as_ref().map_or(0, DeltaLog::frames)
    }

    /// Durable delta entries the model does not reflect yet.
    pub fn debt(&self) -> usize {
        self.debt.len()
    }
}
