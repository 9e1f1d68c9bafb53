//! End-to-end protocol tests against an in-process daemon: hello and
//! read round-trips, epoch semantics under updates, the full error-code
//! vocabulary, capability gating, budget-failed updates with durable
//! carry-over, compaction, and shutdown.

mod common;

use common::{build_program, parse_update, scratch_dir, test_hooks};
use flix_core::{Budget, Solver, SolverConfig};
use flixd::{proto, Client, ErrorCode, Reply, ReplyBody, Request, Server, ServerConfig};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

const EDGES: &[(i64, i64)] = &[(0, 1), (1, 2), (2, 3)];

fn start_server(
    tag: &str,
    configure: impl FnOnce(&mut ServerConfig),
) -> (Server, Arc<flix_core::Program>) {
    let program = Arc::new(build_program(EDGES));
    let dir = scratch_dir(tag);
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    configure(&mut config);
    let server = Server::start(Arc::clone(&program), config, test_hooks()).expect("server starts");
    (server, program)
}

fn expect_error(reply: Reply) -> (ErrorCode, String) {
    match reply.body {
        ReplyBody::Error { code, message } => (code, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn hello_identifies_protocol_epoch_and_program() {
    let (server, program) = start_server("hello", |_| {});
    let client = Client::connect(server.socket()).expect("connects");
    let hello = client.hello();
    assert_eq!(hello.proto, proto::PROTOCOL);
    assert_eq!(hello.epoch, 1);
    let scratch = Solver::new().solve(&program).expect("solves");
    assert_eq!(hello.facts, scratch.total_facts() as u64);
    assert_eq!(
        hello.fingerprint,
        format!("{:#018x}", flix_core::program_fingerprint(&program))
    );
    server.shutdown();
    server.join();
}

#[test]
fn reads_match_a_scratch_solve_and_name_their_epoch() {
    let (server, program) = start_server("reads", |_| {});
    let mut client = Client::connect(server.socket()).expect("connects");
    let scratch = Solver::new().solve(&program).expect("solves");

    let reply = client
        .request(&Request::Facts { predicate: None })
        .expect("facts");
    assert_eq!(reply.epoch, 1);
    assert_eq!(reply.body, ReplyBody::Facts(scratch.model_lines()));

    let reply = client
        .request(&Request::Facts {
            predicate: Some("Edge".into()),
        })
        .expect("facts");
    let ReplyBody::Facts(lines) = reply.body else {
        panic!("facts body");
    };
    assert_eq!(lines, vec!["Edge(0, 1)", "Edge(1, 2)", "Edge(2, 3)"]);

    let reply = client
        .request(&Request::Query {
            atom: "Path 0 _".into(),
        })
        .expect("query");
    let ReplyBody::Answers(lines) = reply.body else {
        panic!("answers body");
    };
    assert_eq!(lines, vec!["Path(0, 1)", "Path(0, 2)", "Path(0, 3)"]);

    let reply = client.request(&Request::Status).expect("status");
    let ReplyBody::Status(status) = reply.body else {
        panic!("status body");
    };
    assert_eq!(status.facts, scratch.total_facts() as u64);
    assert_eq!(status.updates_applied, 0);
    assert_eq!(status.batches_applied, 0);
    assert_eq!(status.unapplied_durable, 0);
    assert!(status.queries_served >= 3);

    let reply = client.request(&Request::Metrics).expect("metrics");
    let ReplyBody::Metrics(doc) = reply.body else {
        panic!("metrics body");
    };
    assert!(doc.contains("flix-metrics/1"), "{doc}");
    assert!(doc.contains("\"name\":\"flixd\""), "{doc}");

    server.shutdown();
    server.join();
}

#[test]
fn update_publishes_a_new_epoch_matching_scratch_parity() {
    let (server, program) = start_server("update", |_| {});
    let mut client = Client::connect(server.socket()).expect("connects");

    let update = "+Edge 3 4\n-Edge 0 1\n";
    let reply = client
        .request(&Request::Update {
            text: update.into(),
            timeout_secs: None,
        })
        .expect("update");
    assert_eq!(reply.epoch, 2);
    assert_eq!(
        reply.body,
        ReplyBody::Updated {
            applied: 2,
            batched: 1
        }
    );

    let delta = parse_update(update).expect("parses");
    let updated_program = program.with_delta(&delta).expect("fits");
    let scratch = Solver::new().solve(&updated_program).expect("solves");
    let reply = client
        .request(&Request::Facts { predicate: None })
        .expect("facts");
    assert_eq!(reply.epoch, 2);
    assert_eq!(reply.body, ReplyBody::Facts(scratch.model_lines()));

    // `updates_applied` counts update *requests* applied, not epochs:
    // one request, one batch, epoch 2.
    let reply = client.request(&Request::Status).expect("status");
    let ReplyBody::Status(status) = reply.body else {
        panic!("status body");
    };
    assert_eq!(status.updates_applied, 1);
    assert_eq!(status.batches_applied, 1);

    // A connection opened before the update pinned nothing: reads
    // always serve the *current* epoch; pinning happens per request.
    let hello_epoch = Client::connect(server.socket())
        .expect("connects")
        .hello()
        .epoch;
    assert_eq!(hello_epoch, 2);

    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_and_requests_map_to_proto_and_parse_codes() {
    let (server, _) = start_server("codes", |_| {});

    // Speak the framing by hand to exercise the wire-level paths.
    let mut stream = UnixStream::connect(server.socket()).expect("connects");
    let hello = proto::read_frame(&mut stream)
        .expect("reads")
        .expect("hello");
    assert!(String::from_utf8(hello).expect("utf8").contains("flixd/1"));

    proto::write_frame(&mut stream, b"{\"op\":\"no-such-op\"}").expect("writes");
    let reply = proto::read_frame(&mut stream)
        .expect("reads")
        .expect("reply");
    let reply = Reply::from_json(&reply).expect("parses");
    let (code, message) = expect_error(reply);
    assert_eq!(code, ErrorCode::Proto);
    assert!(message.contains("no-such-op"), "{message}");

    proto::write_frame(&mut stream, b"not json at all").expect("writes");
    let reply = proto::read_frame(&mut stream)
        .expect("reads")
        .expect("reply");
    let (code, _) = expect_error(Reply::from_json(&reply).expect("parses"));
    assert_eq!(code, ErrorCode::Proto);

    let mut client = Client::connect(server.socket()).expect("connects");
    let checks: &[(Request, ErrorCode, &str)] = &[
        (
            Request::Query {
                atom: "Path zero _".into(),
            },
            ErrorCode::Parse,
            "bad term",
        ),
        (
            Request::Query {
                atom: "Nope 1 2".into(),
            },
            ErrorCode::Query,
            "unknown predicate",
        ),
        (
            Request::Query {
                atom: "Path 1".into(),
            },
            ErrorCode::Query,
            "takes 2 arguments",
        ),
        (
            Request::Facts {
                predicate: Some("Nope".into()),
            },
            ErrorCode::Query,
            "unknown predicate",
        ),
        (
            Request::Update {
                text: "*Edge 9 9\n".into(),
                timeout_secs: None,
            },
            ErrorCode::Parse,
            "bad op",
        ),
        (
            Request::Update {
                text: "+Nope 9 9\n".into(),
                timeout_secs: None,
            },
            ErrorCode::Delta,
            "unknown predicate",
        ),
        (
            Request::Update {
                text: "+Edge 9\n".into(),
                timeout_secs: None,
            },
            ErrorCode::Delta,
            "declared arity",
        ),
        (
            Request::Explain {
                atom: "Path 0 1".into(),
            },
            ErrorCode::Unsupported,
            "not recording provenance",
        ),
        (Request::Compact, ErrorCode::Unsupported, "--snapshot"),
        (Request::Trace, ErrorCode::Unsupported, "not recording"),
    ];
    for (request, want_code, want_fragment) in checks {
        let reply = client.request(request).expect("request");
        let (code, message) = expect_error(reply);
        assert_eq!(code, *want_code, "for {request:?}: {message}");
        assert!(
            message.contains(want_fragment),
            "for {request:?}: {message:?} should contain {want_fragment:?}"
        );
    }

    // Rejected updates never reach the writer, so the epoch is unmoved.
    let reply = client.request(&Request::Status).expect("status");
    assert_eq!(reply.epoch, 1);

    server.shutdown();
    server.join();
}

#[test]
fn explain_works_with_provenance_and_distinguishes_absent() {
    let (server, _) = start_server("explain", |config| {
        config.solver = SolverConfig {
            record_provenance: true,
            ..SolverConfig::default()
        };
    });
    let mut client = Client::connect(server.socket()).expect("connects");

    let reply = client
        .request(&Request::Explain {
            atom: "Path 0 2".into(),
        })
        .expect("explain");
    let ReplyBody::Explain(tree) = reply.body else {
        panic!("explain body, got {:?}", reply.body);
    };
    assert!(tree.contains("Path(0, 2)"), "{tree}");
    assert!(tree.contains("Edge"), "{tree}");

    let reply = client
        .request(&Request::Explain {
            atom: "Path 3 0".into(),
        })
        .expect("explain");
    let (code, _) = expect_error(reply);
    assert_eq!(code, ErrorCode::Absent);

    // Provenance carries across resumes: a fact derived only by the
    // update is explainable at the new epoch.
    let reply = client
        .request(&Request::Update {
            text: "+Edge 3 4\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    assert_eq!(reply.epoch, 2);
    let reply = client
        .request(&Request::Explain {
            atom: "Path 0 4".into(),
        })
        .expect("explain");
    assert!(
        matches!(reply.body, ReplyBody::Explain(_)),
        "{:?}",
        reply.body
    );

    server.shutdown();
    server.join();
}

#[test]
fn budget_failed_update_keeps_durable_debt_and_blocks_compaction() {
    // A chain long enough that its closure cannot possibly be resumed
    // within a nanosecond deadline.
    let program = Arc::new(build_program(
        &(0..400).map(|i| (i, i + 1)).collect::<Vec<_>>(),
    ));
    let dir = scratch_dir("budget");
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.snapshot = Some(dir.join("model.snap"));
    config.wal = Some(dir.join("model.wal"));
    let server = Server::start(Arc::clone(&program), config, test_hooks()).expect("starts");
    let mut client = Client::connect(server.socket()).expect("connects");

    let reply = client
        .request(&Request::Update {
            text: "+Edge 400 401\n".into(),
            timeout_secs: Some(1e-9),
        })
        .expect("update");
    let (code, message) = expect_error(reply);
    assert_eq!(code, ErrorCode::Budget, "{message}");
    assert!(message.contains("logged but not applied"), "{message}");

    let reply = client.request(&Request::Status).expect("status");
    assert_eq!(reply.epoch, 1, "a failed resume publishes nothing");
    let ReplyBody::Status(status) = reply.body else {
        panic!("status body");
    };
    assert_eq!(status.unapplied_durable, 1);

    // Compacting now would snapshot the clean model and truncate the
    // log, silently dropping the durable-but-unapplied entry.
    let (code, message) = expect_error(client.request(&Request::Compact).expect("compact"));
    assert_eq!(code, ErrorCode::Busy, "{message}");

    // The next unbounded update carries the debt in: one publish
    // covers both deltas.
    let reply = client
        .request(&Request::Update {
            text: "+Edge 401 402\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    assert_eq!(reply.epoch, 2);

    let mut delta = parse_update("+Edge 400 401\n").expect("parses");
    delta.extend_from(&parse_update("+Edge 401 402\n").expect("parses"));
    let scratch = Solver::new()
        .solve(&program.with_delta(&delta).expect("fits"))
        .expect("solves");
    let reply = client
        .request(&Request::Facts { predicate: None })
        .expect("facts");
    assert_eq!(reply.body, ReplyBody::Facts(scratch.model_lines()));

    let reply = client.request(&Request::Status).expect("status");
    let ReplyBody::Status(status) = reply.body else {
        panic!("status body");
    };
    assert_eq!(status.unapplied_durable, 0);

    // With the debt cleared, compaction succeeds and absorbs both
    // logged frames.
    let reply = client.request(&Request::Compact).expect("compact");
    assert_eq!(reply.body, ReplyBody::Compacted { frames_absorbed: 2 });

    server.shutdown();
    server.join();
}

#[test]
fn update_deadlines_are_capped_by_the_server() {
    let program = Arc::new(build_program(
        &(0..400).map(|i| (i, i + 1)).collect::<Vec<_>>(),
    ));
    let dir = scratch_dir("cap");
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.max_update_secs = Some(1e-9);
    let server = Server::start(program, config, test_hooks()).expect("starts");
    let mut client = Client::connect(server.socket()).expect("connects");

    // The request asks for a generous deadline; the server's cap wins.
    let reply = client
        .request(&Request::Update {
            text: "+Edge 400 401\n".into(),
            timeout_secs: Some(3600.0),
        })
        .expect("update");
    let (code, _) = expect_error(reply);
    assert_eq!(code, ErrorCode::Budget);

    server.shutdown();
    server.join();
}

#[test]
fn admission_control_refuses_when_the_queue_is_full() {
    let (server, _) = start_server("busy", |config| {
        config.max_pending = 0;
    });
    let mut client = Client::connect(server.socket()).expect("connects");
    let reply = client
        .request(&Request::Update {
            text: "+Edge 3 4\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    let (code, message) = expect_error(reply);
    assert_eq!(code, ErrorCode::Busy);
    assert!(message.contains("queue is full"), "{message}");
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_op_stops_the_server_and_unlinks_the_socket() {
    let (server, _) = start_server("shutdown", |_| {});
    let socket = server.socket().to_path_buf();
    let mut client = Client::connect(&socket).expect("connects");
    let reply = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(reply.body, ReplyBody::Stopping);
    server.join();
    assert!(!socket.exists(), "socket should be unlinked after shutdown");
    assert!(Client::connect(&socket).is_err());
}

#[test]
fn startup_budget_failure_is_a_start_error() {
    let program = Arc::new(build_program(
        &(0..400).map(|i| (i, i + 1)).collect::<Vec<_>>(),
    ));
    let dir = scratch_dir("startfail");
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.solver = SolverConfig {
        budget: Budget::new().deadline(std::time::Duration::from_nanos(1)),
        ..SolverConfig::default()
    };
    match Server::start(program, config, test_hooks()) {
        Err(flixd::StartError::Solve(failure)) => {
            assert!(matches!(
                failure.error,
                flix_core::SolveError::BudgetExceeded { .. }
            ));
        }
        Err(other) => panic!("expected a budget start error, got {other}"),
        Ok(_) => panic!("expected a budget start error, got a running server"),
    }
}
