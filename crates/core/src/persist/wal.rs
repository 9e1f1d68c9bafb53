//! The write-ahead delta log: every [`Delta`] is appended as a
//! checksummed frame *before* it is applied, so a crash mid-resume can
//! always replay it.
//!
//! Layout (little-endian; byte-exact spec in DESIGN.md §14):
//!
//! ```text
//! header  := magic "FLIXWAL\0" (8)  version u32  fingerprint u64
//!            reserved u32 (0)  crc u32          -- CRC-32 of bytes 0..24
//! frame   := len u32  payload (len bytes)  crc u32  -- CRC-32 of payload
//! payload := count u32  entry*count
//! entry   := op u8 (0 insert | 1 retract | 2 raise | 3 lower)
//!            predicate str  width u32  value*width
//!                        -- raise/lower: key columns, then the element
//! ```
//!
//! A log of any other format version is rejected by [`DeltaLog::open`]
//! with [`PersistError::UnsupportedVersion`] and left untouched.
//!
//! Opening scans the longest valid frame prefix and **truncates the
//! file** at the first torn or corrupt frame — whatever follows a bad
//! frame is unrecoverable (frame boundaries are only known by walking
//! the lengths) and replay of the intact prefix is exactly the state
//! the writer had durably reached.

use super::snapshot::{check_frame, check_header, push_frame, save_snapshot, HEADER_LEN};
use super::wire::{crc32, program_fingerprint, ByteReader, ByteWriter};
use super::PersistError;
use crate::incremental::{Delta, DeltaOp};
use crate::{Program, Solution};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub(crate) const WAL_MAGIC: &[u8; 8] = b"FLIXWAL\0";

/// The WAL format version this build reads and writes. See
/// [`super::SNAPSHOT_VERSION`] for the bump discipline.
pub const WAL_VERSION: u32 = 2;

/// What [`DeltaLog::open`] salvaged from an existing log file.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct WalRecovery {
    /// The deltas of the valid frame prefix, in append order.
    pub deltas: Vec<Delta>,
    /// Bytes discarded past the last valid frame (0 for a clean log).
    /// The file itself has been truncated to the valid prefix.
    pub dropped_bytes: u64,
}

/// An append-only, checksummed log of [`Delta`]s tied to one program
/// (by fingerprint) — the durability half of [`crate::incremental`].
///
/// This is the file only. The write path that uses it — log, then
/// apply, then compact — and the recovery that replays it are
/// [`DurableModel`](super::DurableModel)'s.
#[derive(Debug)]
pub struct DeltaLog {
    path: PathBuf,
    file: File,
    /// Offset one past the last valid frame; appends write here.
    end: u64,
    /// Valid frames currently in the log.
    frames: u64,
}

fn header_bytes(fingerprint: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(WAL_MAGIC);
    w.u32(WAL_VERSION);
    w.u64(fingerprint);
    w.u32(0); // reserved; keeps the header shape shared with snapshots
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// The op tag of an entry.
fn op_tag(op: &DeltaOp) -> u8 {
    match op {
        DeltaOp::Insert { .. } => 0,
        DeltaOp::Retract { .. } => 1,
        DeltaOp::Raise { .. } => 2,
        DeltaOp::Lower { .. } => 3,
    }
}

fn encode_frame(delta: &Delta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(delta.len() as u32);
    for op in delta.ops() {
        w.u8(op_tag(op));
        match op {
            DeltaOp::Insert { predicate, tuple } | DeltaOp::Retract { predicate, tuple } => {
                w.string(predicate);
                w.u32(tuple.len() as u32);
                for v in tuple {
                    w.value(v);
                }
            }
            DeltaOp::Raise {
                predicate,
                key,
                element,
            }
            | DeltaOp::Lower {
                predicate,
                key,
                element,
            } => {
                w.string(predicate);
                w.u32(key.len() as u32 + 1);
                for v in key {
                    w.value(v);
                }
                w.value(element);
            }
        }
    }
    let payload = w.into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    push_frame(&mut frame, &payload);
    frame
}

fn decode_frame(payload: &[u8]) -> Result<Delta, String> {
    let mut r = ByteReader::new(payload);
    let fail = |e: super::wire::WireError| format!("{} at byte {}", e.what, e.at);
    let count = r.u32().map_err(fail)? as usize;
    if count > r.remaining() && count > 0 {
        return Err("entry count exceeds frame payload".to_string());
    }
    let mut delta = Delta::new();
    for _ in 0..count {
        let tag = r.u8().map_err(fail)?;
        if tag > 3 {
            return Err("entry has an unknown op tag".to_string());
        }
        let name = r.string().map_err(fail)?.to_string();
        let width = r.u32().map_err(fail)? as usize;
        if width > r.remaining() && width > 0 {
            return Err("entry width exceeds frame payload".to_string());
        }
        let mut tuple = Vec::with_capacity(width);
        for _ in 0..width {
            tuple.push(r.value().map_err(fail)?);
        }
        let op = match tag {
            0 => DeltaOp::Insert {
                predicate: name,
                tuple,
            },
            1 => DeltaOp::Retract {
                predicate: name,
                tuple,
            },
            _ => {
                let Some(element) = tuple.pop() else {
                    return Err("lattice entry has no element column".to_string());
                };
                if tag == 2 {
                    DeltaOp::Raise {
                        predicate: name,
                        key: tuple,
                        element,
                    }
                } else {
                    DeltaOp::Lower {
                        predicate: name,
                        key: tuple,
                        element,
                    }
                }
            }
        };
        delta = delta.op(op);
    }
    if !r.is_done() {
        return Err("frame payload has trailing bytes".to_string());
    }
    Ok(delta)
}

impl DeltaLog {
    /// Opens (or creates) the log at `path` for `program`.
    ///
    /// A missing file is created with a fresh header. An existing file
    /// has its header verified (magic, version, CRC, program
    /// fingerprint — any failure is returned as an error, since
    /// nothing in such a file is trustworthy) and its frames scanned:
    /// the valid prefix comes back in [`WalRecovery::deltas`] and the
    /// file is truncated at the first torn or corrupt frame.
    pub fn open(
        path: impl AsRef<Path>,
        program: &Program,
    ) -> Result<(DeltaLog, WalRecovery), PersistError> {
        let path = path.as_ref();
        if !path.exists() {
            let fresh = DeltaLog::create_truncated(path, program)?;
            return Ok((fresh, WalRecovery::default()));
        }
        let fingerprint = program_fingerprint(program);

        let bytes =
            std::fs::read(path).map_err(|e| PersistError::io("read write-ahead log", path, e))?;
        check_header(
            &bytes,
            "write-ahead log",
            WAL_MAGIC,
            WAL_VERSION,
            fingerprint,
        )?;

        let mut deltas = Vec::new();
        let mut offset = HEADER_LEN;
        while offset < bytes.len() {
            let parsed = check_frame(&bytes, offset, deltas.len()).and_then(|(payload, next)| {
                match decode_frame(payload) {
                    Ok(delta) => Ok((delta, next)),
                    Err(reason) => Err(PersistError::CorruptFrame {
                        frame: deltas.len(),
                        at: offset,
                        reason,
                    }),
                }
            });
            match parsed {
                Ok((delta, next)) => {
                    deltas.push(delta);
                    offset = next;
                }
                // First bad frame: everything from here on is the
                // crash/corruption tail. Stop and truncate.
                Err(_) => break,
            }
        }
        let dropped_bytes = (bytes.len() - offset) as u64;

        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io("open write-ahead log", path, e))?;
        if dropped_bytes > 0 {
            file.set_len(offset as u64)
                .map_err(|e| PersistError::io("truncate write-ahead log", path, e))?;
            file.sync_data()
                .map_err(|e| PersistError::io("sync write-ahead log", path, e))?;
        }
        let frames = deltas.len() as u64;
        Ok((
            DeltaLog {
                path: path.to_path_buf(),
                file,
                end: offset as u64,
                frames,
            },
            WalRecovery {
                deltas,
                dropped_bytes,
            },
        ))
    }

    /// Creates a fresh, empty log at `path` for `program`,
    /// **discarding** any existing file — the recovery move when
    /// [`DeltaLog::open`] rejects a log whose header is beyond repair.
    pub fn create_truncated(
        path: impl AsRef<Path>,
        program: &Program,
    ) -> Result<DeltaLog, PersistError> {
        let path = path.as_ref();
        let header = header_bytes(program_fingerprint(program));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| PersistError::io("create write-ahead log", path, e))?;
        file.write_all(&header)
            .map_err(|e| PersistError::io("write write-ahead log header", path, e))?;
        file.sync_all()
            .map_err(|e| PersistError::io("sync write-ahead log", path, e))?;
        Ok(DeltaLog {
            path: path.to_path_buf(),
            file,
            end: header.len() as u64,
            frames: 0,
        })
    }

    /// Appends one delta as a checksummed frame and syncs it to disk;
    /// when this returns, the delta is durable. Empty deltas are
    /// short-circuited — they change nothing, so they earn no frame.
    pub fn append(&mut self, delta: &Delta) -> Result<(), PersistError> {
        if delta.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(delta);
        self.write_at_end(&frame)?;
        self.end += frame.len() as u64;
        self.frames += 1;
        Ok(())
    }

    fn write_at_end(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(|e| PersistError::io("seek write-ahead log", &self.path, e))?;
        self.file
            .write_all(bytes)
            .map_err(|e| PersistError::io("append to write-ahead log", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io("sync write-ahead log", &self.path, e))
    }

    /// Valid frames currently in the log — the compaction policy input
    /// (`flixr --compact-every N` compacts once this reaches `N`).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Compacts the log into `snapshot`: saves `solution` (which must
    /// already reflect every logged delta) as a snapshot, then resets
    /// the log to empty.
    ///
    /// Crash-safe in both windows: the snapshot write is atomic, and a
    /// crash *between* the snapshot landing and the log truncating
    /// leaves absorbed deltas in the log — replaying them on recovery
    /// is a no-op because replay is idempotent.
    pub fn compact_into(
        &mut self,
        snapshot: impl AsRef<Path>,
        program: &Program,
        solution: &Solution,
    ) -> Result<(), PersistError> {
        save_snapshot(snapshot, program, solution)?;
        self.file
            .set_len(HEADER_LEN as u64)
            .map_err(|e| PersistError::io("truncate write-ahead log", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io("sync write-ahead log", &self.path, e))?;
        self.end = HEADER_LEN as u64;
        self.frames = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault-injected variants of the write path, test-gated exactly like
// `inject_worker_panic_for_tests`. Implemented here because they need
// the log's internals; the fault vocabulary lives in `faultfs`.
// ---------------------------------------------------------------------

#[cfg(any(test, feature = "test-internals"))]
impl DeltaLog {
    /// [`DeltaLog::append`] with a deterministic fault injected at a
    /// byte offset *within the appended frame*. See
    /// [`Fault`](super::Fault) for the disk-state/caller-visibility
    /// contract of each fault kind.
    #[doc(hidden)]
    pub fn append_with_fault(
        &mut self,
        delta: &Delta,
        plan: super::FaultPlan,
    ) -> Result<(), PersistError> {
        use super::Fault;
        if delta.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(delta);
        let (on_disk, full_len) = plan.apply(&frame);
        self.write_at_end(&on_disk)?;
        match plan.fault {
            // The writer observed the crash/error: the log object does
            // not advance, exactly like a process that died here.
            Fault::Torn | Fault::IoError => Err(PersistError::Injected { at: plan.at }),
            // The writer believes the append succeeded: the log
            // advances past bytes that never hit the disk (the gap
            // reads back as zeros — a real lost write) or past a
            // silently corrupted frame.
            Fault::Short | Fault::BitFlip => {
                self.end += full_len as u64;
                self.frames += 1;
                Ok(())
            }
        }
    }
}
