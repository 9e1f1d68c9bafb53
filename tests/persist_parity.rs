//! Persistence parity through the facade: the paper's own models —
//! the Figure 2 worked example and the Figure 5 IFDS encoding — must
//! survive a save → load → save round trip byte-identically, and
//! on-disk corruption (inflicted with plain `std::fs`, no internal
//! fault hooks) must recover to exactly what a scratch solve produces —
//! whichever way the files are recovered: the last test holds
//! `Solver::recover`, `DurableModel::open` and a started `flixd` server
//! against every damage class of `common/damage.rs` (`flixr --load
//! --wal` is held against the same classes in `crates/lang/tests/cli.rs`).

#[path = "common/damage.rs"]
mod damage;

use flix::analyses::dataflow;
use flix::analyses::ifds::{self, problems};
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::core::persist::{DurableFiles, DurableModel, OpenError};
use flix::{load_snapshot, save_snapshot, Delta, DeltaLog, Program, Solution, SolveError, Solver};
use flixd::{Client, ErrorCode, Hooks, ReplyBody, Request, Server, ServerConfig, StartError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("flix-persist-parity-{}-{test}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Canonical rendering of a model: every fact of every predicate,
/// sorted — the equality used by all parity assertions below.
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

/// save → load → save; asserts the two files are byte-identical and
/// returns the loaded model for content checks.
fn round_trip(dir: &Scratch, program: &Program, solution: &Solution) -> Solution {
    let first = dir.path("first.snap");
    let second = dir.path("second.snap");
    save_snapshot(&first, program, solution).expect("save");
    let loaded = load_snapshot(&first, program).expect("load");
    save_snapshot(&second, program, &loaded).expect("re-save");
    let a = std::fs::read(&first).expect("first bytes");
    let b = std::fs::read(&second).expect("second bytes");
    assert_eq!(a, b, "save -> load -> save is byte-identical");
    loaded
}

#[test]
fn figure_2_worked_example_round_trips_byte_identically() {
    let dir = Scratch::new("figure2");
    let input = dataflow::example_input();
    let program = dataflow::build_program(&input);
    let solution = Solver::new().solve(&program).expect("Figure 2 solves");
    let loaded = round_trip(&dir, &program, &solution);
    assert_eq!(dump(&program, &solution), dump(&program, &loaded));
    // The division-by-zero client found its bug in the loaded model too.
    assert!(dump(&program, &loaded)
        .iter()
        .any(|l| l.starts_with("ArithmeticError(")));
}

#[test]
fn figure_5_ifds_model_round_trips_byte_identically() {
    let dir = Scratch::new("ifds");
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs: 4,
        nodes_per_proc: 10,
        vars_per_proc: 4,
        call_percent: 20,
        seed: 0x5907,
    }));
    let problem = Arc::new(problems::Taint::new(model.clone()));
    let program = ifds::flix::build_program(&model.graph, problem);
    let solution = Solver::new().solve(&program).expect("IFDS solves");
    let loaded = round_trip(&dir, &program, &solution);
    assert_eq!(dump(&program, &solution), dump(&program, &loaded));
    assert!(solution.total_facts() > 0);
}

const PATHS: &str = "
    rel Edge(x: Int, y: Int);
    rel Path(x: Int, y: Int);
    Edge(1, 2). Edge(2, 3).
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).";

fn paths_program() -> Program {
    flix::compile(PATHS).expect("compiles")
}

fn edge_delta(x: i64, y: i64) -> Delta {
    Delta::new().insert("Edge", vec![x.into(), y.into()])
}

/// Flip one mid-file bit with nothing but `std::fs` — the kind of
/// damage a real disk or an interrupted copy inflicts.
fn flip_a_bit(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, &bytes).expect("write corrupted");
}

#[test]
fn corrupt_snapshot_recovery_matches_a_scratch_solve() {
    let dir = Scratch::new("corrupt-snap");
    let snap = dir.path("model.snap");
    let wal = dir.path("model.wal");
    let program = paths_program();
    let solver = Solver::new();

    let solution = solver.solve(&program).expect("solves");
    save_snapshot(&snap, &program, &solution).expect("save");
    flip_a_bit(&snap);

    let (recovered, report) = solver.recover(&program, &snap, &wal).expect("recovers");
    assert!(report.scratch_solve, "the snapshot was rejected");
    assert!(report.snapshot_error.is_some());
    assert_eq!(dump(&program, &recovered), dump(&program, &solution));
}

#[test]
fn truncated_wal_recovery_replays_the_surviving_prefix() {
    let dir = Scratch::new("truncated-wal");
    let snap = dir.path("model.snap");
    let wal = dir.path("model.wal");
    let program = paths_program();
    let solver = Solver::new();

    // Base model on disk, two deltas in the log.
    let base = solver.solve(&program).expect("solves");
    save_snapshot(&snap, &program, &base).expect("save");
    let (mut log, _) = DeltaLog::open(&wal, &program).expect("open log");
    log.append(&edge_delta(3, 4)).expect("append");
    let intact_len = std::fs::metadata(&wal).expect("metadata").len();
    log.append(&edge_delta(4, 5)).expect("append");
    drop(log);

    // Chop the second frame in half: a torn final append.
    let bytes = std::fs::read(&wal).expect("read log");
    let cut = (intact_len as usize + bytes.len()) / 2;
    std::fs::write(&wal, &bytes[..cut]).expect("tear log");

    let (recovered, report) = solver.recover(&program, &snap, &wal).expect("recovers");
    assert_eq!(report.wal_frames_replayed, 1, "only the intact frame");
    assert!(report.wal_bytes_dropped > 0);

    // Parity: base + the surviving delta, solved from scratch.
    let expected_program = program.with_delta(&edge_delta(3, 4)).expect("with delta");
    let expected = solver.solve(&expected_program).expect("solves");
    assert_eq!(dump(&program, &recovered), dump(&program, &expected));
    let lines = dump(&program, &recovered);
    assert!(lines.contains(&"Path(1, 4)".to_string()), "{lines:?}");
    assert!(!lines.contains(&"Path(1, 5)".to_string()), "{lines:?}");
}

/// Starts a daemon of the `PATHS` program on the snapshot + log pair in
/// `dir`, with the hooks the `flixd` binary wires: updates are typed
/// against the program's declarations.
fn start(dir: &Path, program: &Arc<Program>) -> Result<Server, StartError> {
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.snapshot = Some(dir.join(damage::SNAPSHOT));
    config.wal = Some(dir.join(damage::WAL));
    let parsed = flix::lang::parse(PATHS).expect("parses");
    let checked = flix::lang::check(&parsed).expect("checks");
    let hooks = Hooks {
        parse_query: Box::new(|t| flix::lang::parse_query_atom(t).map_err(|e| e.to_string())),
        parse_atom: Box::new(|t| flix::lang::parse_ground_atom(t).map_err(|e| e.to_string())),
        compile_update: Box::new(move |t| {
            flix::lang::compile_update(&checked, t).map_err(|e| e.to_string())
        }),
    };
    Server::start(Arc::clone(program), config, hooks)
}

/// Starts a daemon on the snapshot + log pair in `dir` and returns it
/// with its whole model, as the `facts` op renders it.
fn serve(dir: &Path, program: &Arc<Program>) -> (Server, Vec<String>) {
    let server = start(dir, program).expect("the daemon starts");
    let mut client = Client::connect(server.socket()).expect("connects");
    let reply = client.request(&Request::Facts { predicate: None });
    match reply.expect("facts").body {
        ReplyBody::Facts(lines) => (server, lines),
        other => panic!("expected facts, got {other:?}"),
    }
}

/// The four-way recovery parity (three ways here, `flixr` in `cli.rs`):
/// on every damage class, every way of turning the files back into a
/// model reaches the same model — the scratch solve of the program plus
/// the surviving deltas — and reports the same degradations; and after
/// each owner of the files acknowledges one more update, a restart
/// still round-trips. Where a frame is one the program rejects, every
/// way refuses the same way and leaves both files byte-identical.
#[test]
fn every_way_of_recovering_agrees_on_every_damage_class() {
    let program = Arc::new(paths_program());
    let solver = Solver::new();
    let base = solver.solve(&program).expect("solves");
    let deltas = [edge_delta(3, 4), edge_delta(4, 5), edge_delta(5, 6)];
    let further = edge_delta(6, 7);
    let scratch_of = |applied: &[&Delta]| {
        let mut all = Delta::new();
        for delta in applied {
            all.extend_from(delta);
        }
        let extended = program.with_delta(&all).expect("with delta");
        dump(&program, &solver.solve(&extended).expect("solves"))
    };
    let files_in = |dir: &Path| DurableFiles {
        load: Some(dir.join(damage::SNAPSHOT)),
        save: Some(dir.join(damage::SNAPSHOT)),
        wal: Some(dir.join(damage::WAL)),
    };
    let recover_in = |dir: &Path| {
        let pair = (dir.join(damage::SNAPSHOT), dir.join(damage::WAL));
        let (solution, report) = solver.recover(&program, pair.0, pair.1).expect("recovers");
        (dump(&program, &solution), damage::signature(&report))
    };

    for class in damage::CLASSES {
        let dir = Scratch::new(&format!("four-way-{class}"));
        let made = dir.path("made");
        std::fs::create_dir_all(&made).expect("create the damaged pair's directory");
        let Some(survivors) = damage::inflict(class, &made, &program, &base, &deltas) else {
            // A frame the program rejects: every way refuses at the solve
            // and leaves the files for the operator.
            let delta_error = |error: &SolveError| matches!(error, SolveError::Delta(_));
            let untouched = damage::pair_bytes(&made);
            let recovered = damage::copy_pair(&made, dir.path("recover"));
            let pair = (
                recovered.join(damage::SNAPSHOT),
                recovered.join(damage::WAL),
            );
            match solver.recover(&program, pair.0, pair.1) {
                Err(failure) => assert!(delta_error(&failure.error), "{class}: {failure:?}"),
                Ok(_) => panic!("{class}: Solver::recover replayed a rejected frame"),
            }
            let opened = damage::copy_pair(&made, dir.path("open"));
            match DurableModel::open(&solver, &program, &files_in(&opened)) {
                Err(OpenError::Solve { failure, .. }) => {
                    assert!(delta_error(&failure.error), "{class}: {failure:?}")
                }
                Err(other) => panic!("{class}: open refused with {other:?}"),
                Ok(_) => panic!("{class}: open replayed a rejected frame"),
            }
            let served = damage::copy_pair(&made, dir.path("serve"));
            match start(&served, &program) {
                Err(StartError::Solve(failure)) => {
                    assert!(delta_error(&failure.error), "{class}: {failure:?}")
                }
                Err(other) => panic!("{class}: flixd refused with {other}"),
                Ok(_) => panic!("{class}: flixd replayed a rejected frame"),
            }
            for copy in [recovered, opened, served] {
                assert_eq!(damage::pair_bytes(&copy), untouched, "{class}: {copy:?}");
            }
            continue;
        };
        let mut applied: Vec<&Delta> = deltas[..survivors].iter().collect();
        let expected = scratch_of(&applied);

        let (recovered, found) = recover_in(&damage::copy_pair(&made, dir.path("recover")));
        assert_eq!(recovered, expected, "{class}: Solver::recover");

        let opened = damage::copy_pair(&made, dir.path("open"));
        let (mut durable, report) =
            DurableModel::open(&solver, &program, &files_in(&opened)).expect("opens");
        assert_eq!(dump(&program, durable.model()), expected, "{class}: open");
        assert_eq!(damage::signature(&report), found, "{class}: open");

        let served = damage::copy_pair(&made, dir.path("serve"));
        let (server, lines) = serve(&served, &program);
        let report = server.recovery.as_ref().expect("persistent start");
        assert_eq!(lines, expected, "{class}: flixd");
        assert_eq!(damage::signature(report), found, "{class}: flixd");

        // One more acknowledged update through each owner, then a restart.
        applied.push(&further);
        let expected = scratch_of(&applied);
        durable.update(&solver, &further).expect("applies");
        drop(durable);
        let (reopened, report) =
            DurableModel::open(&solver, &program, &files_in(&opened)).expect("reopens");
        assert_eq!(
            dump(&program, reopened.model()),
            expected,
            "{class}: reopen"
        );
        assert_eq!(report.wal_frames_replayed, survivors + 1, "{class}: reopen");
        assert_eq!(report.wal_bytes_dropped, 0, "{class}: the log was repaired");
        drop(reopened);
        // The read-only way sees what the owner's restart saw.
        let (recovered, found) = recover_in(&opened);
        assert_eq!(recovered, expected, "{class}: recover after the update");
        assert_eq!(
            damage::signature(&report),
            found,
            "{class}: after the update"
        );

        let mut client = Client::connect(server.socket()).expect("connects");
        let text = "Edge(6, 7).".to_string();
        let timeout_secs = None;
        let reply = client.request(&Request::Update { text, timeout_secs });
        let reply = reply.expect("update");
        assert!(matches!(reply.body, ReplyBody::Updated { .. }), "{reply:?}");
        server.shutdown();
        server.join();
        let (restarted, lines) = serve(&served, &program);
        let report = restarted.recovery.as_ref().expect("persistent start");
        assert_eq!(lines, expected, "{class}: flixd restart");
        assert_eq!(damage::signature(report), found, "{class}: flixd restart");
        restarted.shutdown();
        restarted.join();
    }
}

/// Update and query text is read against the resident program and holds
/// facts only: a `def` whose body would overflow the parser's stack is
/// refused at its first token, and the daemon keeps answering, with its
/// epoch and its log as they were.
#[test]
fn a_daemon_refuses_def_bombs_in_update_and_query_text() {
    let dir = Scratch::new("def-bombs");
    let program = Arc::new(paths_program());
    let server = start(&dir.0, &program).expect("the daemon starts");
    let mut client = Client::connect(server.socket()).expect("connects");
    let epoch = client.request(&Request::Status).expect("status").epoch;
    let logged = std::fs::read(dir.path(damage::WAL)).unwrap_or_default();

    let sum = format!(
        "def f(x: Int): Int = x{}; Edge(3, 4).",
        " + 1".repeat(20_000)
    );
    let parens = format!("def g(): Int = {}1{}", "(".repeat(5_000), ")".repeat(5_000));
    let update = Request::Update {
        text: sum,
        timeout_secs: None,
    };
    for request in [update, Request::Query { atom: parens }] {
        let reply = client.request(&request).expect("a reply");
        match reply.body {
            ReplyBody::Error {
                code: ErrorCode::Parse,
                message,
            } => assert!(
                message.starts_with("parse error at 1:1: ") && message.contains("facts only"),
                "{message}"
            ),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    let reply = client.request(&Request::Status).expect("status after both");
    assert!(matches!(reply.body, ReplyBody::Status(_)), "{reply:?}");
    assert_eq!(reply.epoch, epoch, "nothing was published");
    let now = std::fs::read(dir.path(damage::WAL)).unwrap_or_default();
    assert_eq!(now, logged, "nothing was logged");
    server.shutdown();
    server.join();
}

/// An update or a query holding a fact nested 20 000 deep is a parse
/// error past the term bound, and the daemon keeps answering, with its
/// epoch and its log as they were — the connection thread used to run out
/// of stack and take the process with it.
#[test]
fn a_daemon_refuses_a_fact_nested_past_the_bound_and_keeps_answering() {
    let dir = Scratch::new("nested-update");
    let program = Arc::new(paths_program());
    let server = start(&dir.0, &program).expect("the daemon starts");
    let mut client = Client::connect(server.socket()).expect("connects");
    let epoch = client.request(&Request::Status).expect("status").epoch;
    let logged = std::fs::read(dir.path(damage::WAL)).unwrap_or_default();

    let deep = format!(
        "Edge({}T.Leaf{}, 1)",
        "T.Node(".repeat(20_000),
        ")".repeat(20_000)
    );
    let update = Request::Update {
        text: format!("{deep}."),
        timeout_secs: None,
    };
    for request in [update, Request::Query { atom: deep }] {
        let reply = client.request(&request).expect("a reply");
        match reply.body {
            ReplyBody::Error {
                code: ErrorCode::Parse,
                message,
            } => assert!(
                message.starts_with("parse error at 1:")
                    && message.contains("nested deeper than 64 levels"),
                "{message}"
            ),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    let reply = client.request(&Request::Status).expect("status after both");
    assert!(matches!(reply.body, ReplyBody::Status(_)), "{reply:?}");
    assert_eq!(reply.epoch, epoch, "nothing was published");
    let now = std::fs::read(dir.path(damage::WAL)).unwrap_or_default();
    assert_eq!(now, logged, "nothing was logged");
    server.shutdown();
    server.join();
}

/// A value its lattice refuses as an element — a tag of no constructor of
/// `SULattice` (flat) or `MinCost` (a chain), a `MinCost` outside the
/// chain, any of them in a lattice of no kind whose `leq` panics on it —
/// inserted or raised through `DurableModel::update` is `Rejected` before
/// the append, naming the predicate and the lattice: the log stays
/// byte-identical, the model reopens, and the next good update applies.
/// (Such a delta used to reach the log, fail its resume, and fail every
/// later `open`.)
#[test]
fn a_value_its_lattice_refuses_never_reaches_the_log() {
    use flix::core::persist::UpdateError;
    use flix::lattice::{MinCost, SuLattice};
    use flix::{DeltaError, Lattice, LatticeOps, ProgramBuilder, Value, ValueLattice};
    let cost = |v: &Value| MinCost::expect_from(v);
    let no_kind = LatticeOps::from_fns(
        "MinCost",
        MinCost::INFINITY.to_value(),
        MinCost::top_value(),
        move |a, b| cost(a).leq(&cost(b)),
        move |a, b| cost(a).lub(&cost(b)).to_value(),
        move |a, b| cost(a).glb(&cost(b)).to_value(),
    );
    let fin = |n: i64| Value::tag("Fin", Value::Int(n));
    let nope = Value::tag0("Nope");
    let cases = [
        (
            LatticeOps::of::<SuLattice>(),
            SuLattice::single("o").to_value(),
            vec![nope.clone()],
        ),
        (
            LatticeOps::of::<MinCost>(),
            fin(4),
            vec![nope.clone(), fin(1 << 60), fin(-1)],
        ),
        (no_kind, fin(4), vec![nope, fin(-1)]),
    ];
    let solver = Solver::new();
    for (n, (ops, good, refused)) in cases.into_iter().enumerate() {
        let lattice = ops.name().to_string();
        let mut b = ProgramBuilder::new();
        b.lattice("A", 2, ops);
        b.relation("B", 1);
        let program = Arc::new(b.build().expect("valid"));
        let dir = Scratch::new(&format!("refused-element-{n}"));
        let files = DurableFiles {
            load: None,
            save: None,
            wal: Some(dir.path("model.wal")),
        };
        let (mut durable, _) = DurableModel::open(&solver, &program, &files).expect("opens");
        let good = Delta::new().insert("A", vec![Value::from(1), good]);
        durable.update(&solver, &good).expect("applies");
        let logged = std::fs::read(dir.path("model.wal")).expect("the log");
        for element in refused {
            let key = vec![Value::from(2)];
            let mut row = key.clone();
            row.push(element.clone());
            for delta in [
                Delta::new().insert("A", row),
                Delta::new().raise("A", key, element.clone()),
            ] {
                match durable.update(&solver, &delta) {
                    Err(UpdateError::Rejected(DeltaError::NotAnElement {
                        predicate,
                        lattice: named,
                        element: found,
                    })) => {
                        assert_eq!((predicate.as_str(), &*named), ("A", &*lattice));
                        assert_eq!(found, element);
                    }
                    other => panic!("{lattice}: {element} was not refused: {other:?}"),
                }
                let now = std::fs::read(dir.path("model.wal")).expect("the log");
                assert_eq!(now, logged, "{lattice}: {element} reached the log");
            }
        }
        let model = dump(&program, durable.model());
        drop(durable);
        let (mut reopened, report) = DurableModel::open(&solver, &program, &files)
            .unwrap_or_else(|e| panic!("{lattice}: the model reopens: {e:?}"));
        assert_eq!(report.wal_frames_replayed, 1, "{lattice}");
        assert_eq!(dump(&program, reopened.model()), model, "{lattice}");
        let next = Delta::new().insert("B", vec![Value::from(1)]);
        reopened
            .update(&solver, &next)
            .expect("the next update applies");
    }
}
