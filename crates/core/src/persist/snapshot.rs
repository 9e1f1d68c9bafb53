//! The checksummed snapshot format: one file per saved model, one
//! frame per predicate, written atomically.
//!
//! Layout (all integers little-endian; byte-exact spec in DESIGN.md
//! §14):
//!
//! ```text
//! header   := magic "FLIXSNP\0" (8)  version u32  fingerprint u64
//!             frame_count u32  crc u32          -- CRC-32 of bytes 0..24
//! frame    := len u32  payload (len bytes)  crc u32   -- CRC-32 of payload
//! payload  := name str  kind u8 (0 rel | 1 lat)  arity u32  count u32
//!             row*count
//! row      := value*arity        -- lattice rows: key columns, then cell
//! edb      := count u32  assertion*count       -- one extra frame
//! assertion:= pred u32  width u32  value*width --   after the rows
//! ```
//!
//! Predicate frames appear in predicate-id order and `frame_count`
//! equals the program's predicate count, so a loaded model always
//! covers exactly the program's declarations. One more frame follows,
//! carrying the extensional store the model is the fixed point of (the
//! program's facts composed with every absorbed delta) — what makes
//! retracting deltas resumable after a restart. Rows are written in
//! database iteration order and re-inserted in that order on load,
//! which is what makes save → load → save byte-identical without any
//! canonicalization pass. Files of any other format version are
//! rejected with [`PersistError::UnsupportedVersion`].

use super::wire::{crc32, program_fingerprint, ByteReader, ByteWriter};
use super::PersistError;
use crate::database::{Database, InsertFault, PredData};
use crate::{PredId, Program, Solution, SolveStats};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"FLIXSNP\0";

/// The snapshot format version this build reads and writes. Bump it —
/// and regenerate the golden fixture — whenever the wire format changes
/// shape; other versions are then rejected with
/// [`PersistError::UnsupportedVersion`] instead of misparsed.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Header length in bytes: magic + version + fingerprint + frame count
/// + header CRC.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;

/// Upper bound a frame's declared length is sanity-checked against
/// before any allocation happens, so a corrupt length field cannot
/// trigger a huge allocation.
pub(crate) const MAX_FRAME_LEN: usize = 1 << 30;

/// Serializes a solved model to the snapshot wire format: one frame
/// per predicate, then the extensional-store frame.
pub fn snapshot_to_bytes(program: &Program, solution: &Solution) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.bytes(SNAPSHOT_MAGIC);
    out.u32(SNAPSHOT_VERSION);
    out.u64(program_fingerprint(program));
    out.u32(program.num_predicates() as u32);
    let header = out.into_bytes();
    let mut bytes = header;
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let db = solution.database();
    for (pred, decl) in program.predicates() {
        let mut frame = ByteWriter::new();
        frame.string(decl.name());
        match db.pred(pred) {
            PredData::Rel(rel) => {
                frame.u8(0);
                frame.u32(decl.arity() as u32);
                frame.u32(rel.len() as u32);
                for row in rel.rows(db.spill()) {
                    for v in row.iter() {
                        frame.value(v);
                    }
                }
            }
            PredData::Lat(lat) => {
                frame.u8(1);
                frame.u32(decl.arity() as u32);
                frame.u32(lat.len() as u32);
                for (key, cell) in lat.iter(db.spill()) {
                    for v in key.iter() {
                        frame.value(v);
                    }
                    frame.value(cell);
                }
            }
        }
        push_frame(&mut bytes, &frame.into_bytes());
    }
    let edb = solution.edb();
    let mut frame = ByteWriter::new();
    frame.u32(edb.len() as u32);
    for (pred, tuple) in edb.iter() {
        frame.u32(pred.0);
        frame.u32(tuple.len() as u32);
        for v in tuple {
            frame.value(v);
        }
    }
    push_frame(&mut bytes, &frame.into_bytes());
    bytes
}

/// Appends one `len + payload + crc` frame — the framing snapshots and
/// the WAL share, undone by [`check_frame`].
pub(crate) fn push_frame(bytes: &mut Vec<u8>, payload: &[u8]) {
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Validates a snapshot's header against `program`, returning the
/// declared frame count. Shared with the WAL, which uses the same
/// header shape (different magic, frame count fixed at 0).
pub(crate) fn check_header(
    bytes: &[u8],
    kind: &'static str,
    magic: &[u8; 8],
    version: u32,
    fingerprint: u64,
) -> Result<u32, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::CorruptHeader { kind });
    }
    if &bytes[..8] != magic {
        return Err(PersistError::BadMagic { kind });
    }
    let stored_crc = u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
    if crc32(&bytes[..HEADER_LEN - 4]) != stored_crc {
        return Err(PersistError::CorruptHeader { kind });
    }
    let mut r = ByteReader::new(&bytes[8..HEADER_LEN - 4]);
    let found_version = r.u32().expect("header length checked");
    if found_version != version {
        return Err(PersistError::UnsupportedVersion {
            kind,
            found: found_version,
            supported: version,
        });
    }
    let found_fingerprint = r.u64().expect("header length checked");
    if found_fingerprint != fingerprint {
        return Err(PersistError::ProgramMismatch {
            expected: fingerprint,
            found: found_fingerprint,
        });
    }
    Ok(r.u32().expect("header length checked"))
}

/// Splits one `len + payload + crc` frame off `bytes` at `offset`,
/// verifying the checksum. Returns the payload and the offset just
/// past the frame.
pub(crate) fn check_frame(
    bytes: &[u8],
    offset: usize,
    frame: usize,
) -> Result<(&[u8], usize), PersistError> {
    let corrupt = |reason: &str| PersistError::CorruptFrame {
        frame,
        at: offset,
        reason: reason.to_string(),
    };
    if bytes.len() - offset < 4 {
        return Err(corrupt("truncated before frame length"));
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(corrupt("frame length is implausibly large"));
    }
    if bytes.len() - offset - 4 < len + 4 {
        return Err(corrupt("truncated mid-frame"));
    }
    let payload = &bytes[offset + 4..offset + 4 + len];
    let stored_crc = u32::from_le_bytes(
        bytes[offset + 4 + len..offset + 8 + len]
            .try_into()
            .unwrap(),
    );
    if crc32(payload) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok((payload, offset + 8 + len))
}

/// Deserializes a snapshot, verifying the header, every frame
/// checksum, and that the content fits `program`'s declarations.
///
/// The returned [`Solution`] is built by re-inserting every stored row
/// through the normal database path, so lattice cells go through the
/// declared `lub` — a snapshot cannot smuggle in a cell the lattice
/// would not accept.
pub fn snapshot_from_bytes(program: &Program, bytes: &[u8]) -> Result<Solution, PersistError> {
    let fingerprint = program_fingerprint(program);
    let frame_count = check_header(
        bytes,
        "snapshot",
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        fingerprint,
    )?;
    if frame_count as usize != program.num_predicates() {
        return Err(PersistError::CorruptHeader { kind: "snapshot" });
    }

    let mut db = Database::for_program(program, true);
    let mut offset = HEADER_LEN;
    for (frame_idx, (pred, decl)) in program.predicates().enumerate() {
        let (payload, next) = check_frame(bytes, offset, frame_idx)?;
        decode_predicate_frame(program, &mut db, pred, frame_idx, offset, payload).map_err(
            |e| match e {
                FrameFault::Wire(what) => PersistError::CorruptFrame {
                    frame: frame_idx,
                    at: offset,
                    reason: what,
                },
                FrameFault::Cell(fault) => PersistError::BadCell {
                    predicate: decl.name().to_string(),
                    reason: describe_fault(&fault),
                },
            },
        )?;
        offset = next;
    }
    let frame_idx = program.num_predicates();
    let (payload, next) = check_frame(bytes, offset, frame_idx)?;
    let edb = decode_edb_frame(program, payload).map_err(|reason| PersistError::CorruptFrame {
        frame: frame_idx,
        at: offset,
        reason,
    })?;
    offset = next;
    if offset != bytes.len() {
        return Err(PersistError::TrailingBytes { at: offset });
    }

    let stats = SolveStats {
        total_facts: db.total_facts() as u64,
        ..SolveStats::default()
    };
    Ok(Solution::new(
        program,
        Arc::new(db),
        Arc::new(edb),
        stats,
        None,
        None,
    ))
}

/// Decodes the extensional-store frame: the exact set of
/// assertions the stored model is the least fixed point of.
fn decode_edb_frame(
    program: &Program,
    payload: &[u8],
) -> Result<Vec<(PredId, Vec<crate::Value>)>, String> {
    let mut r = ByteReader::new(payload);
    let decode = |e: super::wire::WireError| format!("{} at byte {}", e.what, e.at);
    let count = r.u32().map_err(decode)? as usize;
    if count > r.remaining() && count > 0 {
        return Err("assertion count exceeds frame payload".to_string());
    }
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let pred = r.u32().map_err(decode)? as usize;
        if pred >= program.num_predicates() {
            return Err("assertion names a predicate the program lacks".to_string());
        }
        let pred = PredId(pred as u32);
        let width = r.u32().map_err(decode)? as usize;
        let decl = program.decl(pred);
        if width != decl.arity() {
            return Err("assertion width does not match the predicate's arity".to_string());
        }
        let mut tuple = Vec::with_capacity(width);
        for _ in 0..width {
            tuple.push(r.value().map_err(decode)?);
        }
        entries.push((pred, tuple));
    }
    if !r.is_done() {
        return Err("frame payload has trailing bytes".to_string());
    }
    Ok(entries)
}

enum FrameFault {
    Wire(String),
    Cell(InsertFault),
}

fn describe_fault(fault: &InsertFault) -> String {
    match fault {
        InsertFault::Panic(p) => format!("lattice operation panicked: {p:?}"),
        InsertFault::Safety(v) => format!("safety violation: {v:?}"),
    }
}

fn decode_predicate_frame(
    program: &Program,
    db: &mut Database,
    pred: PredId,
    _frame: usize,
    _offset: usize,
    payload: &[u8],
) -> Result<(), FrameFault> {
    let decl = program.decl(pred);
    let mut r = ByteReader::new(payload);
    let wire = |what: &'static str| FrameFault::Wire(what.to_string());
    let decode =
        |e: super::wire::WireError| FrameFault::Wire(format!("{} at byte {}", e.what, e.at));

    let name = r.string().map_err(decode)?;
    if name != decl.name() {
        return Err(wire("frame predicate name does not match the program"));
    }
    let kind = r.u8().map_err(decode)?;
    if (kind == 1) != decl.is_lattice() || kind > 1 {
        return Err(wire("frame predicate kind does not match the program"));
    }
    let arity = r.u32().map_err(decode)? as usize;
    if arity != decl.arity() {
        return Err(wire("frame arity does not match the program"));
    }
    let count = r.u32().map_err(decode)? as usize;
    if count > r.remaining() && count > 0 {
        // Each row takes at least one byte per column (arity >= 1); a
        // count beyond the remaining payload is a lie.
        return Err(wire("row count exceeds frame payload"));
    }
    for _ in 0..count {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(r.value().map_err(decode)?);
        }
        // Duplicate relational rows and already-subsumed lattice cells
        // are tolerated: insertion is idempotent, exactly like replay.
        db.insert(pred, &row).map_err(FrameFault::Cell)?;
    }
    if !r.is_done() {
        return Err(wire("frame payload has trailing bytes"));
    }
    Ok(())
}

/// The sibling temp path an atomic save writes before renaming:
/// `<path>.tmp`, in the same directory so the rename cannot cross a
/// filesystem boundary.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_path(path);
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| PersistError::io("create temporary snapshot", &tmp, e))?;
    file.write_all(bytes)
        .map_err(|e| PersistError::io("write temporary snapshot", &tmp, e))?;
    file.sync_all()
        .map_err(|e| PersistError::io("sync temporary snapshot", &tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| PersistError::io("rename snapshot into place", path, e))
}

/// Saves a model snapshot atomically: the bytes are written to a
/// sibling `<path>.tmp` file, synced, and renamed over `path`. A crash
/// at any point leaves either the old snapshot or the new one — never
/// a torn file at `path` (a stale `.tmp` may remain; the next save
/// overwrites it).
pub fn save_snapshot(
    path: impl AsRef<Path>,
    program: &Program,
    solution: &Solution,
) -> Result<(), PersistError> {
    write_atomic(path.as_ref(), &snapshot_to_bytes(program, solution))
}

/// Loads and verifies a model snapshot. See [`snapshot_from_bytes`]
/// for the checks performed.
pub fn load_snapshot(path: impl AsRef<Path>, program: &Program) -> Result<Solution, PersistError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| PersistError::io("read snapshot", path, e))?;
    snapshot_from_bytes(program, &bytes)
}
