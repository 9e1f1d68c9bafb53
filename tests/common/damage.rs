//! The damage classes of the recovery parity tests, each manufactured
//! once, here, with the persist layer's fault-injection harness
//! (`faultfs`). `tests/persist_parity.rs` holds `Solver::recover`,
//! `DurableModel::open` and a started `flixd::Server` against them;
//! `crates/lang/tests/cli.rs` (which includes this file by path) does
//! the same for `flixr --load --wal`. Standalone on purpose: it names
//! `flix_core` only, so both packages can include it.
#![allow(dead_code)] // `cli.rs` compares rendered warnings, not `signature`s

use flix_core::persist::{corrupt_file, save_snapshot, DeltaLog, Fault, FaultPlan};
use flix_core::{Delta, Program, RecoveryReport, Solution};
use std::path::{Path, PathBuf};

pub const SNAPSHOT: &str = "model.snap";
pub const WAL: &str = "model.wal";

/// What can be wrong with a snapshot + write-ahead log pair.
pub const CLASSES: [&str; 7] = [
    "clean",
    "torn-tail",
    "interior-frame",
    "destroyed-header",
    "corrupt-snapshot",
    "no-files",
    "rejected-frame",
];

/// Writes `base` as the snapshot and `deltas` as one log frame each
/// into `dir`, then inflicts `class` on them. Returns how many leading
/// deltas a correct recovery still replays — or `None` where there is no
/// correct recovery, and every way of recovering must refuse the pair
/// and leave both files as they were (DESIGN §14).
pub fn inflict(
    class: &str,
    dir: &Path,
    program: &Program,
    base: &Solution,
    deltas: &[Delta],
) -> Option<usize> {
    assert!(deltas.len() >= 3, "interior damage needs a frame after it");
    let (snapshot, wal) = (dir.join(SNAPSHOT), dir.join(WAL));
    if class == "no-files" {
        return Some(0);
    }
    save_snapshot(&snapshot, program, base).expect("snapshot saves");
    let (mut log, _) = DeltaLog::open(&wal, program).expect("creates the log");
    let (last, intact) = deltas.split_last().expect("there are deltas");
    let mut ends = Vec::new();
    for delta in intact {
        log.append(delta).expect("appends");
        ends.push(std::fs::metadata(&wal).expect("the log exists").len());
        if class == "rejected-frame" && ends.len() == 1 {
            // An intact frame naming a predicate the program does not
            // declare: `DeltaLog::append` takes it, as a binary that
            // appended before validating did.
            let unknown = Delta::new().insert("Undeclared", vec![9.into(), 9.into()]);
            log.append(&unknown).expect("appends");
        }
    }
    let flip = |path: &Path, at: u64| {
        let fault = Fault::BitFlip;
        corrupt_file(path, FaultPlan { fault, at }).expect("corrupts");
    };
    if class == "torn-tail" {
        // The process died five bytes into its last append.
        let plan = FaultPlan {
            fault: Fault::Torn,
            at: 5,
        };
        let torn = log.append_with_fault(last, plan);
        assert!(torn.is_err(), "a torn append reports the crash");
        return Some(intact.len());
    }
    log.append(last).expect("appends");
    drop(log);
    match class {
        "clean" => Some(deltas.len()),
        "interior-frame" => {
            // Inside the second frame: it and everything after it go.
            flip(&wal, (ends[0] + ends[1]) / 2);
            Some(1)
        }
        "destroyed-header" => {
            flip(&wal, 3);
            Some(0)
        }
        "corrupt-snapshot" => {
            let len = std::fs::metadata(&snapshot).expect("the snapshot exists");
            flip(&snapshot, len.len() / 2);
            Some(deltas.len())
        }
        "rejected-frame" => None,
        other => panic!("unknown damage class {other}"),
    }
}

/// The bytes of the pair in `dir`: what a refusal must leave as it was.
pub fn pair_bytes(dir: &Path) -> [Option<Vec<u8>>; 2] {
    [SNAPSHOT, WAL].map(|name| std::fs::read(dir.join(name)).ok())
}

/// A copy of the (possibly damaged, possibly absent) pair in `from`,
/// for one more way of recovering to chew on: every way but
/// `Solver::recover` repairs what it opens.
pub fn copy_pair(from: &Path, to: PathBuf) -> PathBuf {
    std::fs::create_dir_all(&to).expect("creates the copy's directory");
    for name in [SNAPSHOT, WAL] {
        if from.join(name).exists() {
            std::fs::copy(from.join(name), to.join(name)).expect("copies");
        }
    }
    to
}

/// The fields of a [`RecoveryReport`] every way of recovering the same
/// files must agree on (errors compared by presence: their text names
/// the copy's own path).
pub fn signature(report: &RecoveryReport) -> (bool, bool, bool, bool, usize, usize, u64) {
    (
        report.snapshot_loaded,
        report.scratch_solve,
        report.snapshot_error.is_some(),
        report.wal_error.is_some(),
        report.wal_frames_replayed,
        report.wal_entries_replayed,
        report.wal_bytes_dropped,
    )
}
