//! Crash-safety tests for `flix_core::persist`: round trips, corruption
//! rejection, and the deterministic fault-injection sweep.
//!
//! The sweep is the load-bearing test: for every fault kind at every
//! byte offset of a snapshot save or WAL append, across three seeded
//! workloads, `Solver::recover` must return a model cell-for-cell equal
//! to a from-scratch solve of the base program plus the *surviving*
//! delta prefix — and must never panic or return a corrupt model.
//!
//! The golden fixtures (`fixtures/golden_v2.snap`, `golden_v2.wal`) pin
//! the wire format, and with it the engine's iteration order, from the
//! other side: the committed bytes must keep loading and re-encode to
//! themselves. A wire-format change bumps the version and regenerates
//! the fixture deliberately — the tests fail otherwise.

use flix_core::incremental::Delta;
use flix_core::model::{is_locally_minimal, is_model};
use flix_core::persist::{
    corrupt_file, load_snapshot, save_snapshot, save_snapshot_with_fault, snapshot_from_bytes,
    snapshot_to_bytes, CompactError, DeltaLog, DurableFiles, DurableModel, Fault, FaultPlan,
    PersistError, UpdateError,
};
use flix_core::{
    BodyItem, Budget, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Solution, Solver,
    SolverConfig, Term, Value, ValueLattice,
};
use flix_lattice::MinCost;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Canonical sorted dump of every fact of every predicate, used to
/// compare models for exact equality.
fn dump(program: &Program, solution: &Solution) -> Vec<String> {
    let mut lines = Vec::new();
    for (_, decl) in program.predicates() {
        let name = decl.name();
        for fact in solution.facts(name).expect("declared predicate") {
            lines.push(format!("{name}({fact})"));
        }
    }
    lines.sort();
    lines
}

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("flix-persist-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Workload 1: relational transitive closure.
fn paths_workload() -> (Program, Vec<Delta>) {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for (x, y) in [(1, 2), (2, 3), (3, 4)] {
        b.fact(edge, vec![Value::from(x), Value::from(y)]);
    }
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    let program = b.build().expect("valid program");
    let deltas = vec![
        Delta::new().insert("Edge", vec![4.into(), 5.into()]),
        Delta::new()
            .insert("Edge", vec![5.into(), 1.into()])
            .insert("Edge", vec![2.into(), 5.into()]),
    ];
    (program, deltas)
}

/// Workload 2: single-source shortest paths over the MinCost lattice.
fn shortest_paths_workload() -> (Program, Vec<Delta>) {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("edge weight") as u64;
        d.add_weight(c).to_value()
    });
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    for (x, y, w) in [(0, 1, 4), (1, 2, 3), (0, 2, 9)] {
        b.fact(edge, vec![Value::from(x), Value::from(y), Value::from(w)]);
    }
    b.rule(
        Head::new(
            dist,
            [
                HeadTerm::var("y"),
                HeadTerm::app(extend, [Term::var("d"), Term::var("c")]),
            ],
        ),
        [
            BodyItem::atom(dist, [Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );
    let program = b.build().expect("valid program");
    let deltas = vec![
        Delta::new().insert("Edge", vec![2.into(), 3.into(), 2.into()]),
        Delta::new().raise("Dist", vec![Value::from(3)], MinCost::finite(1).to_value()),
    ];
    (program, deltas)
}

/// Workload 3: every `Value` variant through the codec — tuples, sets,
/// tags, strings, unit, booleans — with a transfer function wrapping
/// each input.
fn values_workload() -> (Program, Vec<Delta>) {
    let mut b = ProgramBuilder::new();
    let input = b.relation("In", 1);
    let out = b.relation("Out", 2);
    let wrap = b.function("wrap", |args| Value::tag("Wrapped", args[0].clone()));
    b.fact(input, vec![Value::tuple([Value::Int(1), Value::str("a")])]);
    b.fact(
        input,
        vec![Value::set([Value::Int(2), Value::Int(1), Value::Unit])],
    );
    b.fact(input, vec![Value::Bool(true)]);
    b.rule(
        Head::new(
            out,
            [HeadTerm::var("x"), HeadTerm::app(wrap, [Term::var("x")])],
        ),
        [BodyItem::atom(input, [Term::var("x")])],
    );
    let program = b.build().expect("valid program");
    let deltas = vec![
        Delta::new().insert(
            "In",
            vec![Value::tag(
                "Key",
                Value::tuple([Value::str("nested"), Value::set([Value::Bool(false)])]),
            )],
        ),
        Delta::new()
            .insert("In", vec![Value::str("z")])
            .insert("In", vec![Value::Int(-7)]),
    ];
    (program, deltas)
}

fn workloads() -> Vec<(&'static str, Program, Vec<Delta>)> {
    let (p1, d1) = paths_workload();
    let (p2, d2) = shortest_paths_workload();
    let (p3, d3) = values_workload();
    vec![("paths", p1, d1), ("shortest", p2, d2), ("values", p3, d3)]
}

/// The concatenation of the first `m` deltas.
fn combined(deltas: &[Delta], m: usize) -> Delta {
    let mut all = Delta::new();
    for delta in &deltas[..m] {
        all.extend_from(delta);
    }
    all
}

/// The ground truth: a from-scratch solve of the program extended with
/// the first `m` deltas, dumped canonically.
fn expected_dump(program: &Program, deltas: &[Delta], m: usize) -> Vec<String> {
    let extended = program
        .with_delta(&combined(deltas, m))
        .expect("deltas fit program");
    let solution = Solver::new().solve(&extended).expect("solvable");
    dump(program, &solution)
}

const ALL_FAULTS: [Fault; 4] = [Fault::Torn, Fault::Short, Fault::BitFlip, Fault::IoError];

#[test]
fn snapshot_round_trips_byte_identically() {
    let scratch = Scratch::new("roundtrip");
    for (name, program, deltas) in workloads() {
        let solver = Solver::new();
        let mut solution = solver.solve(&program).expect("solvable");
        for (i, delta) in deltas.iter().enumerate() {
            solution = solver
                .resume(&program, &solution, delta)
                .expect("resumable");
            let bytes = snapshot_to_bytes(&program, &solution);
            let loaded = snapshot_from_bytes(&program, &bytes).expect("snapshot loads");
            assert_eq!(
                dump(&program, &solution),
                dump(&program, &loaded),
                "{name}: loaded model differs after delta {i}"
            );
            let rebytes = snapshot_to_bytes(&program, &loaded);
            assert_eq!(bytes, rebytes, "{name}: save→load→save not byte-identical");

            let path = scratch.path(&format!("{name}-{i}.snap"));
            save_snapshot(&path, &program, &solution).expect("snapshot saves");
            let reloaded = load_snapshot(&path, &program).expect("snapshot loads from disk");
            assert_eq!(dump(&program, &solution), dump(&program, &reloaded));
        }
    }
}

#[test]
fn snapshot_rejects_other_programs() {
    let (program, _) = paths_workload();
    let solution = Solver::new().solve(&program).expect("solvable");
    let bytes = snapshot_to_bytes(&program, &solution);

    // Same shape, one extra fact: different fingerprint.
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let _path = b.relation("Path", 2);
    b.fact(edge, vec![9.into(), 9.into()]);
    let other = b.build().expect("valid program");
    match snapshot_from_bytes(&other, &bytes) {
        Err(PersistError::ProgramMismatch { .. }) => {}
        other => panic!("expected ProgramMismatch, got {other:?}"),
    }
}

#[test]
fn wal_rejects_mismatched_program() {
    let scratch = Scratch::new("wal-mismatch");
    let (program, deltas) = paths_workload();
    let wal = scratch.path("log.wal");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
    log.append(&deltas[0]).expect("appends");
    drop(log);

    let mut b = ProgramBuilder::new();
    b.relation("Edge", 2);
    let other = b.build().expect("valid program");
    match DeltaLog::open(&wal, &other) {
        Err(PersistError::ProgramMismatch { .. }) => {}
        other => panic!("expected ProgramMismatch, got {other:?}"),
    }
}

#[test]
fn corrupt_snapshot_bytes_never_panic() {
    let (program, _) = paths_workload();
    let solution = Solver::new().solve(&program).expect("solvable");
    let bytes = snapshot_to_bytes(&program, &solution);
    // Every truncation point and every single-bit flip must be a clean
    // structured error or (for flips the CRC provably catches) never a
    // panic — run the whole space, it is small.
    for end in 0..bytes.len() {
        assert!(
            snapshot_from_bytes(&program, &bytes[..end]).is_err(),
            "truncation at {end} must not parse"
        );
    }
    for at in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1 << (at % 8);
        // A flipped bit may be detected anywhere; the only requirement
        // is no panic and no silent wrong model.
        if let Ok(loaded) = snapshot_from_bytes(&program, &corrupt) {
            assert_eq!(
                dump(&program, &solution),
                dump(&program, &loaded),
                "bit flip at {at} produced a different model without an error"
            );
        }
    }
}

/// Snapshot-write fault sweep: a fault at every byte offset of the
/// snapshot stream, for every fault kind. The WAL holds every delta, so
/// whatever happens to the snapshot, recovery must land on the full
/// updated model — via the old snapshot, the corrupted-snapshot scratch
/// fallback, or (when the fault hit after the payload) the new
/// snapshot.
#[test]
fn snapshot_fault_sweep_recovers_exactly() {
    let scratch = Scratch::new("snap-sweep");
    let solver = Solver::new();
    for (name, program, deltas) in workloads() {
        let base = solver.solve(&program).expect("solvable");
        let expected = expected_dump(&program, &deltas, deltas.len());
        let snapshot_len = snapshot_to_bytes(&program, &base).len();

        let wal = scratch.path(&format!("{name}.wal"));
        let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
        for delta in &deltas {
            log.append(delta).expect("appends");
        }
        drop(log);

        for fault in ALL_FAULTS {
            for at in (0..=snapshot_len).step_by(1) {
                let snap = scratch.path(&format!("{name}-{fault:?}-{at}.snap"));
                let plan = FaultPlan {
                    fault,
                    at: at as u64,
                };
                let result = save_snapshot_with_fault(&snap, &program, &base, plan);
                match fault {
                    Fault::Torn | Fault::IoError => {
                        assert!(result.is_err(), "{name}: {fault:?}@{at} must surface")
                    }
                    Fault::Short | Fault::BitFlip => {
                        assert!(result.is_ok(), "{name}: {fault:?}@{at} is silent")
                    }
                }
                let (recovered, report) = solver
                    .recover(&program, &snap, &wal)
                    .expect("recovery never fails on corruption");
                assert_eq!(
                    expected,
                    dump(&program, &recovered),
                    "{name}: {fault:?} at byte {at}: recovered model differs \
                     (report: {report:?})"
                );
            }
        }
    }
}

/// WAL-append fault sweep: with a clean snapshot of the base model and
/// `k` cleanly logged deltas, the `k+1`-th append faults at every byte
/// offset of its frame. Recovery must replay exactly the surviving
/// prefix — all `k` deltas, plus the faulted one only when the fault
/// struck at/after the end of its frame (i.e. the write completed).
#[test]
fn wal_fault_sweep_recovers_surviving_prefix() {
    let scratch = Scratch::new("wal-sweep");
    let solver = Solver::new();
    for (name, program, deltas) in workloads() {
        let base = solver.solve(&program).expect("solvable");
        let snap = scratch.path(&format!("{name}.snap"));
        save_snapshot(&snap, &program, &base).expect("snapshot saves");
        let expected: Vec<Vec<String>> = (0..=deltas.len())
            .map(|m| expected_dump(&program, &deltas, m))
            .collect();

        for k in 0..deltas.len() {
            // Measure the faulted frame's length with a clean append.
            let probe = scratch.path(&format!("{name}-probe.wal"));
            let _ = std::fs::remove_file(&probe);
            let (mut plog, _) = DeltaLog::open(&probe, &program).expect("creates log");
            let before = std::fs::metadata(&probe).expect("probe exists").len();
            plog.append(&deltas[k]).expect("appends");
            let frame_len =
                (std::fs::metadata(&probe).expect("probe exists").len() - before) as usize;
            drop(plog);

            for fault in ALL_FAULTS {
                for at in 0..=frame_len {
                    let wal = scratch.path(&format!("{name}-{k}-{fault:?}-{at}.wal"));
                    let _ = std::fs::remove_file(&wal);
                    let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
                    for delta in &deltas[..k] {
                        log.append(delta).expect("appends");
                    }
                    let plan = FaultPlan {
                        fault,
                        at: at as u64,
                    };
                    let result = log.append_with_fault(&deltas[k], plan);
                    match fault {
                        Fault::Torn | Fault::IoError => assert!(result.is_err()),
                        Fault::Short | Fault::BitFlip => assert!(result.is_ok()),
                    }
                    drop(log);

                    // The frame survives only if the fault let the full
                    // write through: a torn/short/error write of the
                    // whole frame (at == frame_len) is a completed
                    // write. A bit flip always corrupts the frame (the
                    // sweep never flips past the last byte).
                    let survives = at >= frame_len && fault != Fault::BitFlip;
                    let m = if survives { k + 1 } else { k };

                    let (recovered, report) = solver
                        .recover(&program, &snap, &wal)
                        .expect("recovery never fails on corruption");
                    assert_eq!(
                        expected[m],
                        dump(&program, &recovered),
                        "{name}: delta {k}, {fault:?} at byte {at}: recovered model \
                         differs (report: {report:?})"
                    );
                    assert_eq!(
                        report.wal_frames_replayed, m,
                        "{name}: delta {k}, {fault:?} at byte {at}"
                    );

                    // Recovery truncated the log to the valid prefix:
                    // reopening drops nothing and sees the same frames.
                    let (_log, reopened) =
                        DeltaLog::open(&wal, &program).expect("reopens after truncation");
                    assert_eq!(reopened.dropped_bytes, 0);
                    assert_eq!(reopened.deltas.len(), m);
                    let _ = std::fs::remove_file(&wal);
                }
            }
        }
    }
}

/// A lost write (`Short`) followed by further successful appends: the
/// later frames land beyond a zero-filled gap and are unreachable, so
/// recovery must stop at the gap.
#[test]
fn lost_write_with_later_appends_truncates_at_the_gap() {
    let scratch = Scratch::new("wal-gap");
    let solver = Solver::new();
    let (program, deltas) = paths_workload();
    let base = solver.solve(&program).expect("solvable");
    let snap = scratch.path("base.snap");
    save_snapshot(&snap, &program, &base).expect("snapshot saves");

    for at in [0u64, 7, 20] {
        let wal = scratch.path(&format!("gap-{at}.wal"));
        let _ = std::fs::remove_file(&wal);
        let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
        let result = log.append_with_fault(
            &deltas[0],
            FaultPlan {
                fault: Fault::Short,
                at,
            },
        );
        assert!(result.is_ok(), "a lost write is silent");
        // The writer, none the wiser, appends the next delta.
        log.append(&deltas[1]).expect("appends");
        drop(log);

        let (recovered, report) = solver
            .recover(&program, &snap, &wal)
            .expect("recovery never fails on corruption");
        assert_eq!(
            expected_dump(&program, &deltas, 0),
            dump(&program, &recovered),
            "Short at {at}: everything past the gap is unrecoverable"
        );
        assert!(report.wal_bytes_dropped > 0);
    }
}

/// The two compaction crash windows: after the snapshot lands but
/// before the log truncates (replay is idempotent), and the clean
/// compaction itself.
#[test]
fn compaction_crash_windows_are_safe() {
    let scratch = Scratch::new("compact");
    let solver = Solver::new();
    let (program, deltas) = paths_workload();
    let base = solver.solve(&program).expect("solvable");
    let snap = scratch.path("model.snap");
    let wal = scratch.path("model.wal");
    save_snapshot(&snap, &program, &base).expect("snapshot saves");

    let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
    let mut live = base;
    for delta in &deltas {
        log.append(delta).expect("appends");
        live = solver.resume(&program, &live, delta).expect("resumable");
    }
    let expected = dump(&program, &live);

    // Crash window: the compaction snapshot (which absorbs the logged
    // deltas) is written, but the process dies before truncating the
    // log. Recovery replays absorbed deltas — harmlessly.
    save_snapshot(&snap, &program, &live).expect("snapshot saves");
    let (recovered, report) = solver
        .recover(&program, &snap, &wal)
        .expect("recovery never fails");
    assert_eq!(expected, dump(&program, &recovered));
    assert_eq!(report.wal_frames_replayed, deltas.len());

    // Clean compaction: snapshot written and log reset atomically from
    // the caller's point of view.
    assert_eq!(log.frames(), deltas.len() as u64);
    log.compact_into(&snap, &program, &live).expect("compacts");
    assert_eq!(log.frames(), 0);
    drop(log);
    let (recovered, report) = solver
        .recover(&program, &snap, &wal)
        .expect("recovery never fails");
    assert_eq!(expected, dump(&program, &recovered));
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.wal_frames_replayed, 0);
}

/// A WAL whose *header* is destroyed is unrecoverable as a log;
/// recovery reports it and proceeds with the snapshot alone.
#[test]
fn destroyed_wal_header_degrades_to_snapshot_only() {
    let scratch = Scratch::new("wal-header");
    let solver = Solver::new();
    let (program, deltas) = paths_workload();
    let base = solver.solve(&program).expect("solvable");
    let snap = scratch.path("model.snap");
    let wal = scratch.path("model.wal");
    save_snapshot(&snap, &program, &base).expect("snapshot saves");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates log");
    log.append(&deltas[0]).expect("appends");
    drop(log);

    corrupt_file(
        &wal,
        FaultPlan {
            fault: Fault::BitFlip,
            at: 3,
        },
    )
    .expect("corrupts");

    let (recovered, report) = solver
        .recover(&program, &snap, &wal)
        .expect("recovery never fails");
    assert_eq!(
        expected_dump(&program, &deltas, 0),
        dump(&program, &recovered)
    );
    assert!(report.wal_error.is_some());
    assert_eq!(report.wal_frames_replayed, 0);

    // The caller's move after a destroyed header: start a fresh log.
    let fresh = DeltaLog::create_truncated(&wal, &program).expect("recreates");
    assert_eq!(fresh.frames(), 0);
    drop(fresh);
    let (_, report) = solver.recover(&program, &snap, &wal).expect("recovers");
    assert!(report.clean(), "{report:?}");
}

/// Recovery with neither file present is just a scratch solve.
#[test]
fn recovery_from_nothing_is_a_scratch_solve() {
    let scratch = Scratch::new("nothing");
    let (program, deltas) = paths_workload();
    let solver = Solver::new();
    let (recovered, report) = solver
        .recover(
            &program,
            scratch.path("missing.snap"),
            scratch.path("missing.wal"),
        )
        .expect("recovery never fails");
    assert_eq!(
        expected_dump(&program, &deltas, 0),
        dump(&program, &recovered)
    );
    assert!(report.scratch_solve);
    assert!(!report.snapshot_loaded);
    assert!(
        !scratch.path("missing.wal").exists(),
        "recovery must not create files"
    );
}

// ---------------------------------------------------------------------
// Golden fixture: the committed snapshot must keep loading. If this
// test fails after an intentional format change, bump SNAPSHOT_VERSION
// and regenerate with:
//     cargo test -p flix-core --test persist -- --ignored regenerate
// ---------------------------------------------------------------------

/// The fixture program: the paths workload after its first delta, which
/// exercises both frame kinds once lattice workloads are added. Must
/// never change — it is the fixed point the fixture bytes encode.
fn golden_program() -> Program {
    let (program, _) = paths_workload();
    program
}

const GOLDEN_V1: &[u8] = include_bytes!("fixtures/golden_v1.snap");
const GOLDEN_V2: &[u8] = include_bytes!("fixtures/golden_v2.snap");

/// The one thing this build still knows about format version 1: it is
/// refused, by name, rather than misparsed. The frozen fixture is a real
/// file an older build wrote for this very program.
#[test]
fn v1_snapshot_is_rejected_as_unsupported() {
    let scratch = Scratch::new("v1-snapshot");
    let snap = scratch.path("model.snap");
    std::fs::write(&snap, GOLDEN_V1).expect("writes the v1 snapshot");
    let error = load_snapshot(&snap, &golden_program()).expect_err("version 1 is not read");
    assert!(
        matches!(
            error,
            PersistError::UnsupportedVersion {
                kind: "snapshot",
                found: 1,
                supported: 2,
            }
        ),
        "{error:?}"
    );
}

#[test]
fn golden_v2_snapshot_keeps_loading() {
    let program = golden_program();
    let loaded = snapshot_from_bytes(&program, GOLDEN_V2)
        .expect("committed golden v2 snapshot must load; format changes need a version bump");
    let scratch = Solver::new().solve(&program).expect("solvable");
    assert_eq!(dump(&program, &scratch), dump(&program, &loaded));
    // The v2 fixture is canonical: re-saving reproduces it exactly.
    assert_eq!(GOLDEN_V2, snapshot_to_bytes(&program, &loaded).as_slice());
    // And it recorded the extensional store, so retracting deltas resume.
    let shrink = Delta::new().retract("Edge", vec![1.into(), 2.into()]);
    Solver::new()
        .resume(&program, &loaded, &shrink)
        .expect("v2 snapshots support retraction");
}

#[test]
#[ignore = "regenerates the golden fixture; run after a deliberate format change"]
fn regenerate_golden_snapshot() {
    // golden_v1.snap is a frozen legacy artifact no current writer
    // produces; only this fixture can be regenerated.
    let program = golden_program();
    let solution = Solver::new().solve(&program).expect("solvable");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v2.snap");
    std::fs::write(&path, snapshot_to_bytes(&program, &solution)).expect("writes fixture");
    println!("wrote {}", path.display());
}

// ---------------------------------------------------------------------
// Format version 2: retraction-capable WAL entries and the snapshot's
// extensional-store frame.
// ---------------------------------------------------------------------

/// Reference CRC-32 (bitwise, IEEE 802.3) for handcrafting a legacy
/// header without reaching into the crate's private wire module.
fn crc32_ref(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A mixed-op delta over the shortest-paths workload's program:
/// insert, retract, raise, and lower in one delta.
fn mixed_delta() -> Delta {
    Delta::new()
        .insert("Edge", vec![3.into(), 4.into(), 2.into()])
        .retract("Edge", vec![1.into(), 2.into(), 3.into()])
        .raise("Dist", vec![3.into()], MinCost::finite(1).to_value())
        .lower("Dist", vec![0.into()], MinCost::finite(0).to_value())
}

#[test]
fn wal_v2_round_trips_mixed_ops_byte_identically() {
    let scratch = Scratch::new("wal-v2-roundtrip");
    let (program, deltas) = shortest_paths_workload();
    let wal = scratch.path("model.wal");
    let mixed = mixed_delta();
    {
        let (mut log, recovery) = DeltaLog::open(&wal, &program).expect("creates");
        assert!(recovery.deltas.is_empty());
        log.append(&deltas[0]).expect("appends");
        log.append(&mixed).expect("appends mixed ops");
        // An empty delta short-circuits regardless of op kinds seen.
        log.append(&Delta::new()).expect("no-op append");
        assert_eq!(log.frames(), 2);
    }
    let bytes_after_write = std::fs::read(&wal).expect("readable");
    let (version, _) = (
        u32::from_le_bytes(bytes_after_write[8..12].try_into().unwrap()),
        (),
    );
    assert_eq!(version, flix_core::persist::WAL_VERSION);

    // Reopen: every op of every frame survives, in order, and the
    // reopen itself rewrites nothing.
    let (_log, recovery) = DeltaLog::open(&wal, &program).expect("reopens");
    assert_eq!(recovery.dropped_bytes, 0);
    assert_eq!(recovery.deltas.len(), 2);
    assert_eq!(recovery.deltas[0], deltas[0]);
    assert_eq!(recovery.deltas[1], mixed);
    let bytes_after_reopen = std::fs::read(&wal).expect("readable");
    assert_eq!(
        bytes_after_write, bytes_after_reopen,
        "reopening a clean v2 log must be byte-identical"
    );
}

#[test]
fn v1_wal_is_rejected_as_unsupported_and_left_untouched() {
    let scratch = Scratch::new("wal-v1");
    let (program, _) = paths_workload();
    let wal = scratch.path("model.wal");
    // A version-1 header, exactly as an older build wrote it, followed
    // by bytes that stand for its (untagged, insert-only) frames.
    let mut legacy = Vec::new();
    legacy.extend_from_slice(b"FLIXWAL\0");
    legacy.extend_from_slice(&1u32.to_le_bytes());
    legacy.extend_from_slice(&flix_core::program_fingerprint(&program).to_le_bytes());
    legacy.extend_from_slice(&0u32.to_le_bytes());
    let crc = crc32_ref(&legacy);
    legacy.extend_from_slice(&crc.to_le_bytes());
    legacy.extend_from_slice(b"frames of a format this build does not read");
    std::fs::write(&wal, &legacy).expect("writes the legacy log");

    let error = DeltaLog::open(&wal, &program).expect_err("version 1 is not read");
    assert!(
        matches!(
            error,
            PersistError::UnsupportedVersion {
                kind: "write-ahead log",
                found: 1,
                supported: 2,
            }
        ),
        "{error:?}"
    );
    // No truncation, no rewrite: what to do with the file is the
    // caller's decision (`DeltaLog::create_truncated`).
    assert_eq!(std::fs::read(&wal).expect("readable"), legacy);
}

#[test]
fn wal_v2_fault_sweep_with_mixed_ops_recovers_surviving_prefix() {
    // The mixed-op frame faulted at every byte offset, for every fault
    // kind: recovery must land on either "without the mixed delta" or
    // "with it" — never a torn in-between or a panic.
    let (program, deltas) = shortest_paths_workload();
    let solver = Solver::new();
    let base_model = solver.solve(&program).expect("solvable");
    let mixed = mixed_delta();

    let without: Vec<String> = {
        let extended = program.with_delta(&deltas[0]).expect("fits");
        let s = solver.solve(&extended).expect("solvable");
        dump(&program, &s)
    };
    let with: Vec<String> = {
        let mut combined = deltas[0].clone();
        combined.extend_from(&mixed);
        let extended = program.with_delta(&combined).expect("fits");
        let s = solver.solve(&extended).expect("solvable");
        dump(&program, &s)
    };

    let scratch = Scratch::new("wal-v2-sweep");
    let snap = scratch.path("model.snap");
    save_snapshot(&snap, &program, &base_model).expect("saves");

    // Measure the mixed frame's length with a clean append.
    let probe = scratch.path("probe.wal");
    let (mut plog, _) = DeltaLog::open(&probe, &program).expect("creates probe");
    let before = std::fs::metadata(&probe).expect("probe exists").len();
    plog.append(&mixed).expect("appends");
    let frame_len = (std::fs::metadata(&probe).expect("probe exists").len() - before) as usize;
    drop(plog);

    for fault in ALL_FAULTS {
        for at in 0..=frame_len {
            let wal = scratch.path(&format!("sweep-{fault:?}-{at}.wal"));
            let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates");
            log.append(&deltas[0]).expect("clean append");
            let _ = log.append_with_fault(
                &mixed,
                FaultPlan {
                    fault,
                    at: at as u64,
                },
            );
            drop(log);

            // The mixed frame survives only when the fault let the whole
            // write through; a bit flip always corrupts it.
            let survives = at >= frame_len && fault != Fault::BitFlip;
            let (recovered, report) = solver
                .recover(&program, &snap, &wal)
                .expect("recovery never fails on corruption");
            let got = dump(&program, &recovered);
            let expected = if survives { &with } else { &without };
            assert_eq!(
                &got, expected,
                "{fault:?} at byte {at}: recovered model is not the surviving \
                 prefix (report: {report:?})"
            );
            let _ = std::fs::remove_file(&wal);
        }
    }
}

#[test]
fn recovery_cancels_an_insert_retracted_in_a_later_frame() {
    // An insert appended in one run and its retraction appended in a
    // later run fold into a single combined delta at recovery
    // (`extend_from`); the cancelled pair has no net effect on the
    // store, so the recovered model must equal a scratch solve of the
    // base program — the inserted tuple and its consequences must not
    // survive the replay.
    let scratch = Scratch::new("wal-cancelled-pair");
    let (program, _) = paths_workload();
    let snap = scratch.path("model.snap");
    let wal = scratch.path("model.wal");
    let solver = Solver::new();
    let base = solver.solve(&program).expect("solvable");
    save_snapshot(&snap, &program, &base).expect("saves");
    {
        let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates");
        log.append(&Delta::new().insert("Edge", vec![4.into(), 5.into()]))
            .expect("appends insert");
        log.append(&Delta::new().retract("Edge", vec![4.into(), 5.into()]))
            .expect("appends retraction");
    }
    let (recovered, report) = solver.recover(&program, &snap, &wal).expect("recovers");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_frames_replayed, 2);
    assert_eq!(dump(&program, &recovered), dump(&program, &base));
    assert!(!recovered.contains("Edge", &[4.into(), 5.into()]));
    assert!(!recovered.contains("Path", &[1.into(), 5.into()]));
}

#[test]
fn snapshot_v2_preserves_the_extensional_store_across_restarts() {
    let scratch = Scratch::new("snap-v2-edb");
    let (program, _) = shortest_paths_workload();
    let solver = Solver::new();
    let base = solver.solve(&program).expect("solvable");

    // Absorb a mixed delta, snapshot the result, reload it, and retract
    // again: the reloaded solution must know its updated store, so the
    // second retraction resumes exactly instead of being rejected.
    let mixed = mixed_delta();
    let updated = solver.resume(&program, &base, &mixed).expect("resumes");
    let snap = scratch.path("model.snap");
    save_snapshot(&snap, &program, &updated).expect("saves v2");
    let reloaded = load_snapshot(&snap, &program).expect("loads v2");
    assert_eq!(dump(&program, &updated), dump(&program, &reloaded));

    let again = Delta::new().retract("Edge", vec![3.into(), 4.into(), 2.into()]);
    let resumed = solver
        .resume(&program, &reloaded, &again)
        .expect("retracting resume from a v2 snapshot");
    let mut combined = mixed.clone();
    combined.extend_from(&again);
    let extended = program.with_delta(&combined).expect("fits");
    let expected = solver.solve(&extended).expect("solvable");
    assert_eq!(dump(&program, &resumed), dump(&extended, &expected));

    // And the v2 bytes themselves round-trip exactly.
    let bytes = snapshot_to_bytes(&program, &updated);
    let from_bytes = snapshot_from_bytes(&program, &bytes).expect("decodes");
    assert_eq!(bytes, snapshot_to_bytes(&program, &from_bytes));
}

const GOLDEN_WAL_V2: &[u8] = include_bytes!("fixtures/golden_v2.wal");

/// The deltas pinned inside the committed v2 WAL fixture: the shortest
/// paths workload's first monotone delta, then a mixed-op delta
/// exercising all four tags of the v2 frame encoding.
fn golden_wal_deltas() -> Vec<Delta> {
    let (_, deltas) = shortest_paths_workload();
    vec![deltas[0].clone(), mixed_delta()]
}

#[test]
fn golden_v2_wal_keeps_loading() {
    let scratch = Scratch::new("golden-wal-v2");
    let (program, _) = shortest_paths_workload();
    let wal = scratch.path("model.wal");
    std::fs::write(&wal, GOLDEN_WAL_V2).expect("writes fixture copy");
    let (_log, recovery) = DeltaLog::open(&wal, &program)
        .expect("committed golden WAL must open; frame-format changes need a version bump");
    assert_eq!(recovery.dropped_bytes, 0);
    assert_eq!(recovery.deltas, golden_wal_deltas());
    // Opening a clean current-version log rewrites nothing: the fixture
    // is canonical for the v2 frame encoding, byte for byte.
    assert_eq!(
        GOLDEN_WAL_V2,
        std::fs::read(&wal).expect("readable").as_slice()
    );
}

#[test]
#[ignore = "regenerates the golden WAL fixture; run after a deliberate format change"]
fn regenerate_golden_wal() {
    let scratch = Scratch::new("golden-wal-v2-regen");
    let (program, _) = shortest_paths_workload();
    let wal = scratch.path("model.wal");
    {
        let (mut log, _) = DeltaLog::open(&wal, &program).expect("creates");
        for delta in golden_wal_deltas() {
            log.append(&delta).expect("appends");
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v2.wal");
    std::fs::copy(&wal, &path).expect("writes fixture");
    println!("wrote {}", path.display());
}

// ---------------------------------------------------------------------
// The durable model: debt carrying. A delta whose guarded resume failed
// is durable but unapplied; it must ride the next update, block
// compaction until then, and be replayed by a reopen at any point —
// each time landing on *the* least model of program + every
// acknowledged delta, not merely on what another configuration computes.
// ---------------------------------------------------------------------

/// `solution` is the least model of `program` plus the first `m` deltas.
fn assert_least_model(program: &Program, deltas: &[Delta], m: usize, solution: &Solution) {
    let extended = program
        .with_delta(&combined(deltas, m))
        .expect("deltas fit program");
    assert_eq!(expected_dump(program, deltas, m), dump(program, solution));
    assert!(is_model(&extended, solution), "a model after {m} deltas");
    assert!(
        is_locally_minimal(&extended, solution),
        "minimal after {m} deltas"
    );
}

#[test]
fn a_failed_update_is_durable_carried_and_paid_by_the_next() {
    let scratch = Scratch::new("debt");
    let (program, deltas) = paths_workload();
    let program = Arc::new(program);
    let files = DurableFiles {
        load: Some(scratch.path("model.snap")),
        save: Some(scratch.path("model.snap")),
        wal: Some(scratch.path("model.wal")),
    };
    let solver = Solver::new();
    let reopen = || {
        DurableModel::open(&solver, &program, &files)
            .expect("reopens")
            .0
    };

    let (mut durable, report) = DurableModel::open(&solver, &program, &files).expect("first boot");
    assert!(report.scratch_solve && report.snapshot_error.is_some());
    assert!(report.wal_error.is_none(), "a missing log is just created");
    assert_least_model(&program, &deltas, 0, durable.model());

    // The budget trips: logged, not applied, carried.
    let hurried = Solver::with_config(SolverConfig {
        budget: Budget::new().deadline(Duration::from_nanos(1)),
        ..SolverConfig::default()
    })
    .expect("valid configuration");
    let failed = durable.update(&hurried, &deltas[0]);
    assert!(
        matches!(failed, Err(UpdateError::Carried { .. })),
        "{failed:?}"
    );
    assert_eq!(durable.debt(), deltas[0].len());
    assert_eq!(durable.frames(), 1, "the delta is durable");
    assert_least_model(&program, &deltas, 0, durable.model());
    assert!(matches!(durable.compact(), Err(CompactError::Debt(n)) if n == deltas[0].len()));
    // A crash here loses nothing that was acknowledged as logged.
    assert_least_model(&program, &deltas, 1, reopen().model());

    // The next update, unhurried, pays the debt along with its own delta.
    let applied = durable.update(&solver, &deltas[1]).expect("applies");
    assert_eq!(applied.entries, deltas[0].len() + deltas[1].len());
    assert!(applied.append.is_some());
    assert_eq!(durable.debt(), 0);
    assert_least_model(&program, &deltas, 2, durable.model());
    assert_least_model(&program, &deltas, 2, reopen().model());

    assert_eq!(durable.compact().expect("compacts"), 2);
    assert_eq!(durable.frames(), 0);
    let (reopened, report) = DurableModel::open(&solver, &program, &files).expect("reopens");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.wal_frames_replayed, 0);
    assert_least_model(&program, &deltas, 2, reopened.model());
}

/// Strings belong to the store, not the process: a durable model handed
/// N fresh strings that are then retracted, compacted and reopened
/// interns only the strings of the live model.
#[test]
fn a_reopened_store_interns_only_the_live_models_strings() {
    const N: i64 = 500;
    let scratch = Scratch::new("string-churn");
    let mut b = ProgramBuilder::new();
    let name = b.relation("Name", 2);
    let seen = b.relation("Seen", 1);
    b.fact(name, vec![Value::from(0), Value::from("kept")]);
    b.rule(
        Head::new(seen, [HeadTerm::var("s")]),
        [BodyItem::atom(name, [Term::Wildcard, Term::var("s")])],
    );
    let program = Arc::new(b.build().expect("valid"));
    let files = DurableFiles {
        load: Some(scratch.path("model.snap")),
        save: Some(scratch.path("model.snap")),
        wal: Some(scratch.path("model.wal")),
    };
    let solver = Solver::new();
    let (mut durable, _) = DurableModel::open(&solver, &program, &files).expect("first boot");
    assert_eq!(durable.model().interned_strings(), 1);

    let fresh = |i: i64| vec![Value::from(i), Value::from(format!("fresh-{i}"))];
    let (mut insert, mut retract) = (Delta::new(), Delta::new());
    for i in 1..=N {
        insert = insert.insert("Name", fresh(i));
        retract = retract.retract("Name", fresh(i));
    }
    durable.update(&solver, &insert).expect("inserts");
    assert_eq!(durable.model().len("Seen"), Some(N as usize + 1));
    assert_eq!(durable.model().interned_strings(), N as usize + 1);
    durable.update(&solver, &retract).expect("retracts");
    assert_eq!(durable.model().len("Seen"), Some(1));

    durable.compact().expect("compacts");
    drop(durable);
    let (reopened, report) = DurableModel::open(&solver, &program, &files).expect("reopens");
    assert!(report.clean(), "{report:?}");
    assert_eq!(reopened.model().interned_strings(), 1, "only \"kept\"");
    assert_eq!(reopened.model().len("Seen"), Some(1));
}
