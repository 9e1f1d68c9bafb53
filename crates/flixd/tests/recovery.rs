//! Daemon crash recovery: a flixd killed at any moment — including
//! mid-WAL-append — must restart into a model cell-for-cell equal to a
//! from-scratch solve of everything it durably acknowledged. Crash
//! states are manufactured with the persist layer's fault-injection
//! harness (`append_with_fault`, `corrupt_file`), then a real `Server`
//! is started on the damaged files.

mod common;

use common::{build_program, parse_update, scratch_dir, test_hooks};
use flix_core::persist::{
    corrupt_file, save_snapshot, DeltaLog, DurableFiles, DurableModel, Fault, FaultPlan,
    PersistError, UpdateError,
};
use flix_core::{Budget, Delta, DeltaError, Program, SolveError, Solver, SolverConfig};
use flixd::{Client, ErrorCode, ReplyBody, Request, Server, ServerConfig, StartError};
use std::path::Path;
use std::sync::Arc;

const EDGES: &[(i64, i64)] = &[(0, 1), (1, 2), (2, 3)];

fn updates() -> Vec<Delta> {
    [
        "+Edge 3 4\n+Edge 4 5\n",
        "-Edge 0 1\n",
        "+Edge 0 2\n-Edge 2 3\n",
    ]
    .iter()
    .map(|text| parse_update(text).expect("fixture updates parse"))
    .collect()
}

/// Scratch-solves the base program with the first `m` deltas folded in.
fn expected_after(base: &Program, deltas: &[Delta], m: usize) -> Vec<String> {
    let solver = Solver::new();
    let mut current: Option<Program> = None;
    for delta in &deltas[..m] {
        let next = current
            .as_ref()
            .unwrap_or(base)
            .with_delta(delta)
            .expect("fixture updates are valid");
        current = Some(next);
    }
    let program = current.as_ref().unwrap_or(base);
    solver.solve(program).expect("solves").model_lines()
}

fn start_on(dir: &Path, tag: &str, program: &Arc<Program>) -> Server {
    let mut config = ServerConfig::new(dir.join(format!("{tag}.sock")));
    config.snapshot = Some(dir.join("model.snap"));
    config.wal = Some(dir.join("model.wal"));
    Server::start(Arc::clone(program), config, test_hooks()).expect("server starts")
}

fn dump(server: &Server) -> (u64, Vec<String>) {
    let mut client = Client::connect(server.socket()).expect("connects");
    let reply = client
        .request(&Request::Facts { predicate: None })
        .expect("facts");
    match reply.body {
        ReplyBody::Facts(lines) => (reply.epoch, lines),
        other => panic!("expected facts, got {other:?}"),
    }
}

/// A daemon stopped cleanly and restarted on the same snapshot + WAL
/// resumes the exact model it acknowledged, with the epoch counter
/// restarting at 1 (epochs name in-memory publications, not durable
/// history — DESIGN.md §17).
#[test]
fn clean_restart_resumes_every_acknowledged_update() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let dir = scratch_dir("recovery-clean");

    let server = start_on(&dir, "first", &program);
    let mut client = Client::connect(server.socket()).expect("connects");
    for text in [
        "+Edge 3 4\n+Edge 4 5\n",
        "-Edge 0 1\n",
        "+Edge 0 2\n-Edge 2 3\n",
    ] {
        let reply = client
            .request(&Request::Update {
                text: text.into(),
                timeout_secs: None,
            })
            .expect("update");
        assert!(matches!(reply.body, ReplyBody::Updated { .. }), "{reply:?}");
    }
    server.shutdown();
    server.join();

    let restarted = start_on(&dir, "second", &program);
    let report = restarted.recovery.as_ref().expect("persistent start");
    assert_eq!(report.wal_frames_replayed, 3);
    let (epoch, lines) = dump(&restarted);
    assert_eq!(epoch, 1);
    assert_eq!(lines, expected_after(&program, &deltas, 3));
    restarted.shutdown();
    restarted.join();
}

/// Kill-mid-append sweep: with a clean snapshot and `k` logged deltas,
/// the `k+1`-th append tears at assorted byte offsets. The restarted
/// daemon must come up serving exactly the surviving prefix — the torn
/// frame only when the tear struck at/after its end (write completed).
#[test]
fn torn_append_crash_states_recover_the_surviving_prefix() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let solver = Solver::new();
    let base_model = solver.solve(&program).expect("solves");
    let expected: Vec<Vec<String>> = (0..=deltas.len())
        .map(|m| expected_after(&program, &deltas, m))
        .collect();

    for k in 0..deltas.len() {
        // Measure the torn frame's length with a clean probe append.
        let probe_dir = scratch_dir(&format!("recovery-probe-{k}"));
        let probe = probe_dir.join("probe.wal");
        let (mut plog, _) = DeltaLog::open(&probe, &program).expect("creates log");
        let before = std::fs::metadata(&probe).expect("probe exists").len();
        plog.append(&deltas[k]).expect("appends");
        let frame_len = (std::fs::metadata(&probe).expect("probe exists").len() - before) as usize;
        drop(plog);

        for at in [0, 1, frame_len / 2, frame_len - 1, frame_len] {
            let dir = scratch_dir(&format!("recovery-torn-{k}-{at}"));
            save_snapshot(dir.join("model.snap"), &program, &base_model).expect("snapshot saves");
            let (mut log, _) = DeltaLog::open(dir.join("model.wal"), &program).expect("opens");
            for delta in &deltas[..k] {
                log.append(delta).expect("appends");
            }
            let result = log.append_with_fault(
                &deltas[k],
                FaultPlan {
                    fault: Fault::Torn,
                    at: at as u64,
                },
            );
            assert!(result.is_err(), "a torn append reports the crash");
            drop(log);

            let server = start_on(&dir, "torn", &program);
            let report = server.recovery.as_ref().expect("persistent start");
            let survived = if at >= frame_len { k + 1 } else { k };
            assert_eq!(
                report.wal_frames_replayed, survived,
                "delta {k} torn at byte {at}/{frame_len}"
            );
            let (_, lines) = dump(&server);
            assert_eq!(
                lines, expected[survived],
                "delta {k} torn at byte {at}/{frame_len}: restarted model \
                 differs from the scratch solve of the surviving prefix"
            );
            server.shutdown();
            server.join();
        }
    }
}

/// An interior bit flip in an already-durable frame: recovery truncates
/// from the damaged frame onward and the daemon serves the prefix.
#[test]
fn interior_wal_corruption_truncates_from_the_damage() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let solver = Solver::new();
    let base_model = solver.solve(&program).expect("solves");

    let dir = scratch_dir("recovery-bitflip");
    save_snapshot(dir.join("model.snap"), &program, &base_model).expect("snapshot saves");
    let wal = dir.join("model.wal");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("opens");
    let mut ends = Vec::new();
    for delta in &deltas {
        log.append(delta).expect("appends");
        ends.push(std::fs::metadata(&wal).expect("wal exists").len());
    }
    drop(log);

    // Flip a byte inside the second frame: frames 2 and 3 must go.
    corrupt_file(
        &wal,
        FaultPlan {
            fault: Fault::BitFlip,
            at: ends[0] + (ends[1] - ends[0]) / 2,
        },
    )
    .expect("corrupts");

    let server = start_on(&dir, "bitflip", &program);
    let report = server.recovery.as_ref().expect("persistent start");
    assert_eq!(report.wal_frames_replayed, 1);
    assert!(report.wal_bytes_dropped > 0);
    let (_, lines) = dump(&server);
    assert_eq!(lines, expected_after(&program, &deltas, 1));
    server.shutdown();
    server.join();
}

/// A corrupt snapshot is abandoned: the daemon scratch-solves the
/// program and still replays the (independent) write-ahead log, so no
/// acknowledged update is lost.
#[test]
fn corrupt_snapshot_falls_back_to_scratch_and_replays_the_log() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let solver = Solver::new();
    let base_model = solver.solve(&program).expect("solves");

    let dir = scratch_dir("recovery-snap");
    let snap = dir.join("model.snap");
    save_snapshot(&snap, &program, &base_model).expect("snapshot saves");
    let (mut log, _) = DeltaLog::open(dir.join("model.wal"), &program).expect("opens");
    for delta in &deltas {
        log.append(delta).expect("appends");
    }
    drop(log);
    let mid = std::fs::metadata(&snap).expect("snap exists").len() / 2;
    corrupt_file(
        &snap,
        FaultPlan {
            fault: Fault::BitFlip,
            at: mid,
        },
    )
    .expect("corrupts");

    let server = start_on(&dir, "snap", &program);
    let report = server.recovery.as_ref().expect("persistent start");
    assert!(report.snapshot_error.is_some(), "{report:?}");
    assert!(report.scratch_solve);
    assert_eq!(report.wal_frames_replayed, deltas.len());
    let (_, lines) = dump(&server);
    assert_eq!(lines, expected_after(&program, &deltas, deltas.len()));
    server.shutdown();
    server.join();
}

/// A write-ahead log whose *header* is destroyed holds nothing
/// salvageable. The daemon does what `flixr --load --wal` and
/// `Solver::recover` do with it: warns, starts on the snapshot alone
/// with a fresh log, and keeps serving — durably.
#[test]
fn destroyed_wal_header_degrades_to_the_snapshot_and_a_fresh_log() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let base_model = Solver::new().solve(&program).expect("solves");

    let dir = scratch_dir("recovery-header");
    save_snapshot(dir.join("model.snap"), &program, &base_model).expect("snapshot saves");
    let wal = dir.join("model.wal");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("opens");
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

    let server = start_on(&dir, "header", &program);
    let report = server.recovery.as_ref().expect("persistent start");
    assert!(report.wal_error.is_some(), "{report:?}");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_frames_replayed, 0);
    assert_eq!(dump(&server).1, expected_after(&program, &deltas, 0));

    // The fresh log takes the next update, and a restart replays it.
    let mut client = Client::connect(server.socket()).expect("connects");
    let reply = client
        .request(&Request::Update {
            text: "+Edge 3 4\n+Edge 4 5\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    assert!(matches!(reply.body, ReplyBody::Updated { .. }), "{reply:?}");
    server.shutdown();
    server.join();

    let restarted = start_on(&dir, "header-again", &program);
    let report = restarted.recovery.as_ref().expect("persistent start");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.wal_frames_replayed, 1);
    assert_eq!(dump(&restarted).1, expected_after(&program, &deltas, 1));
    restarted.shutdown();
    restarted.join();
}

/// A delta the program rejects never becomes durable. Through the
/// durable model both binaries update with, the update is refused before
/// the append — the log stays byte-identical, carries no debt, and the
/// daemon started on those files serves what was acknowledged. Through
/// the daemon, a request is refused on its own, with the reply it always
/// got, and nothing is appended either. A rejected frame only an older
/// binary could have written is refused at the start, file untouched.
#[test]
fn a_rejected_update_leaves_the_log_as_it_was() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();
    let dir = scratch_dir("recovery-rejected");
    let wal = dir.join("model.wal");
    let files = DurableFiles {
        wal: Some(wal.clone()),
        ..DurableFiles::default()
    };
    let solver = Solver::new();
    let (mut durable, _) = DurableModel::open(&solver, &program, &files).expect("opens");
    durable.update(&solver, &deltas[0]).expect("applies");
    let logged = std::fs::read(&wal).expect("readable");
    let unknown = parse_update("+Nope 9 9\n").expect("parses");
    match durable.update(&solver, &unknown) {
        Err(UpdateError::Rejected(DeltaError::UnknownPredicate { predicate })) => {
            assert_eq!(predicate, "Nope");
        }
        other => panic!("expected a rejected delta, got {other:?}"),
    }
    assert_eq!(std::fs::read(&wal).expect("readable"), logged);
    assert_eq!(durable.debt(), 0);
    durable
        .update(&solver, &deltas[1])
        .expect("a later update applies");
    drop(durable);

    let server = start_on(&dir, "rejected", &program);
    let report = server.recovery.as_ref().expect("persistent start");
    assert_eq!(report.wal_frames_replayed, 2);
    assert_eq!(dump(&server).1, expected_after(&program, &deltas, 2));
    let logged = std::fs::read(&wal).expect("readable");
    let mut client = Client::connect(server.socket()).expect("connects");
    for (text, fragment) in [
        ("+Nope 9 9\n", "unknown predicate"),
        ("+Edge 9\n", "declared arity"),
    ] {
        let reply = client
            .request(&Request::Update {
                text: text.into(),
                timeout_secs: None,
            })
            .expect("update");
        match reply.body {
            ReplyBody::Error { code, message } => {
                assert_eq!(code, ErrorCode::Delta, "{message}");
                assert!(message.contains(fragment), "{message}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    assert_eq!(std::fs::read(&wal).expect("readable"), logged);
    server.shutdown();
    server.join();

    let (mut log, _) = DeltaLog::open(&wal, &program).expect("opens");
    log.append(&unknown).expect("appends");
    drop(log);
    let logged = std::fs::read(&wal).expect("readable");
    let mut config = ServerConfig::new(dir.join("older.sock"));
    config.wal = Some(wal.clone());
    match Server::start(Arc::clone(&program), config, test_hooks()) {
        Err(StartError::Solve(failure)) => {
            assert!(matches!(failure.error, SolveError::Delta(_)), "{failure:?}");
        }
        Err(other) => panic!("expected a refused replay, got {other}"),
        Ok(_) => panic!("expected a refused replay, got a running server"),
    }
    assert_eq!(std::fs::read(&wal).expect("readable"), logged);
}

/// A log that belongs to another program is somebody else's durable
/// data: the start is refused *before* anything is solved — shown by a
/// budget no solve survives — and the file is left as it was.
#[test]
fn foreign_wal_is_refused_before_solving_and_left_untouched() {
    let program = Arc::new(build_program(EDGES));
    let other = build_program(&[(7, 8)]);
    let dir = scratch_dir("recovery-foreign");
    let wal = dir.join("model.wal");
    let (mut log, _) = DeltaLog::open(&wal, &other).expect("opens");
    log.append(&updates()[0]).expect("appends");
    drop(log);
    let before = std::fs::read(&wal).expect("readable");

    let mut config = ServerConfig::new(dir.join("foreign.sock"));
    config.snapshot = Some(dir.join("model.snap"));
    config.wal = Some(wal.clone());
    config.solver = SolverConfig {
        budget: Budget::new().deadline(std::time::Duration::from_nanos(1)),
        ..SolverConfig::default()
    };
    match Server::start(Arc::clone(&program), config, test_hooks()) {
        Err(StartError::Persist(PersistError::ProgramMismatch { .. })) => {}
        Err(other) => panic!("expected a refused log, got {other}"),
        Ok(_) => panic!("expected a refused log, got a running server"),
    }
    assert_eq!(std::fs::read(&wal).expect("readable"), before);
}

/// Recovery reports on the files the operator named, and only those: a
/// daemon given just `--wal` (or just `--snapshot`) has no opinion on a
/// path nobody gave it.
#[test]
fn a_path_nobody_gave_is_not_reported_on() {
    let program = Arc::new(build_program(EDGES));
    let deltas = updates();

    let dir = scratch_dir("recovery-wal-only");
    let (mut log, _) = DeltaLog::open(dir.join("model.wal"), &program).expect("opens");
    log.append(&deltas[0]).expect("appends");
    drop(log);
    let mut config = ServerConfig::new(dir.join("wal-only.sock"));
    config.wal = Some(dir.join("model.wal"));
    let server = Server::start(Arc::clone(&program), config, test_hooks()).expect("starts");
    let report = server.recovery.as_ref().expect("persistent start");
    assert!(report.snapshot_error.is_none(), "{report:?}");
    assert!(report.scratch_solve && !report.snapshot_loaded);
    assert_eq!(report.wal_frames_replayed, 1);
    assert_eq!(dump(&server).1, expected_after(&program, &deltas, 1));
    server.shutdown();
    server.join();

    let dir = scratch_dir("recovery-snap-only");
    let base_model = Solver::new().solve(&program).expect("solves");
    save_snapshot(dir.join("model.snap"), &program, &base_model).expect("snapshot saves");
    let mut config = ServerConfig::new(dir.join("snap-only.sock"));
    config.snapshot = Some(dir.join("model.snap"));
    let server = Server::start(Arc::clone(&program), config, test_hooks()).expect("starts");
    let report = server.recovery.as_ref().expect("persistent start");
    assert!(report.clean(), "{report:?}");
    server.shutdown();
    server.join();
}
