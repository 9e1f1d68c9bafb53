//! `flixd` — run a FLIX program as a resident fixed-point service.
//!
//! Usage:
//!
//! ```text
//! flixd --socket PATH [--snapshot PATH] [--wal LOG]
//!       [--naive] [--threads N] [--explainable] [--traced]
//!       [--max-update-secs S] [--max-pending N] [--compact-every N]
//!       [--log-json PATH] [--log-level debug|info|warn]
//!       [--slow-query-ms MS]
//!       FILE.flix [MORE.flix ...]
//! ```
//!
//! The daemon compiles the program, recovers its model (snapshot +
//! write-ahead log when `--snapshot`/`--wal` are given, scratch solve
//! otherwise), binds `--socket`, and serves the `flixd/1` protocol
//! until it receives a `shutdown` request — from `flixr --connect
//! SOCKET --shutdown`, or any other client. Reads are served
//! concurrently against epoch-pinned model snapshots; updates are
//! batched, WAL-logged before application, and published atomically.
//! DESIGN.md §17 specifies the protocol and its isolation and crash
//! semantics.
//!
//! `--explainable` records provenance so clients can use the `explain`
//! op (costs memory proportional to insertions); `--traced` records
//! execution spans for the `trace` op. `--max-update-secs S` caps every
//! update's resume deadline; `--max-pending N` bounds the update queue
//! (default 64); `--compact-every N` folds the write-ahead log into the
//! snapshot automatically once it holds `N` frames.
//!
//! Telemetry is always on: `status`, `stats` and `stats --prom`
//! (DESIGN.md §17.6) read one registry. `--log-json PATH` appends
//! structured JSONL events to `PATH` (`--log-level` filters; default
//! `info`); `--slow-query-ms MS` flags read requests slower than `MS`
//! milliseconds as `slow_query` events.
//!
//! # Exit codes
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | clean shutdown via the `shutdown` op                 |
//! | 1    | usage error, unbindable socket, or a foreign log     |
//! | 2    | the program failed to parse or type-check            |
//! | 3    | the startup solve failed                             |
//! | 4    | the startup solve exhausted a budget                 |
//!
//! Damage on disk degrades and is reported on stderr, exactly as `flixr
//! --load --wal` on the same files does (both run on
//! `flix_core::persist::DurableModel`): an unusable snapshot means a
//! scratch solve, a torn log tail is truncated, and a log whose header
//! is destroyed is replaced by a fresh one — the daemon starts and keeps
//! serving. Only a log that belongs to another program or format
//! version refuses the start (exit 1), before anything is solved and
//! with the file untouched.

use flix_core::{SolverConfig, Strategy, TraceConfig};
use flix_lang::cli::{
    compact_every_arg, number_arg, path_arg, read_source, seconds_arg, solve_exit, value_arg,
    Failure, EXIT_USAGE,
};
use flixd::{EventLevel, EventLogConfig, Hooks, Server, ServerConfig, StartError};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => failure.exit("flixd"),
    }
}

fn run(args: Vec<String>) -> Result<(), Failure> {
    let mut files: Vec<String> = Vec::new();
    let mut socket: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut wal: Option<String> = None;
    let mut strategy = Strategy::SemiNaive;
    let mut threads = 1usize;
    let mut explainable = false;
    let mut traced = false;
    let mut max_update_secs: Option<f64> = None;
    let mut max_pending = 64usize;
    let mut compact_every: Option<u64> = None;
    let mut log_json: Option<String> = None;
    let mut log_level = EventLevel::Info;
    let mut slow_query_ms: Option<f64> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(path_arg(&mut it, "--socket", "a socket path")?),
            "--snapshot" => snapshot = Some(path_arg(&mut it, "--snapshot", "a snapshot path")?),
            "--wal" => wal = Some(path_arg(&mut it, "--wal", "a log path")?),
            "--naive" => strategy = Strategy::Naive,
            "--threads" => threads = number_arg(&mut it, "--threads", "a number", "thread count")?,
            "--explainable" => explainable = true,
            "--traced" => traced = true,
            "--max-update-secs" => {
                let flag = "--max-update-secs";
                max_update_secs = Some(seconds_arg(&mut it, flag, "deadline", flag)?);
            }
            "--max-pending" => {
                max_pending = number_arg(&mut it, "--max-pending", "a count", "pending bound")?
            }
            "--compact-every" => compact_every = Some(compact_every_arg(&mut it)?),
            "--log-json" => log_json = Some(path_arg(&mut it, "--log-json", "a log path")?),
            "--log-level" => {
                let level = value_arg(&mut it, "--log-level", "debug, info, or warn")?;
                log_level = EventLevel::parse(&level).ok_or_else(|| {
                    Failure::usage(format!(
                        "unknown log level {level:?} (expected debug, info, or warn)"
                    ))
                })?;
            }
            "--slow-query-ms" => {
                let flag = "--slow-query-ms";
                let ms: f64 = number_arg(&mut it, flag, "milliseconds", "threshold")?;
                if !ms.is_finite() || ms < 0.0 {
                    return Err(Failure::usage(format!(
                        "{flag} must be a non-negative number of milliseconds, got {ms}"
                    )));
                }
                slow_query_ms = Some(ms);
            }
            "--help" | "-h" => {
                println!(
                    "usage: flixd --socket PATH [--snapshot PATH] [--wal LOG] \
                     [--naive] [--threads N] [--explainable] [--traced] \
                     [--max-update-secs S] [--max-pending N] [--compact-every N] \
                     [--log-json PATH] [--log-level debug|info|warn] \
                     [--slow-query-ms MS] \
                     FILE.flix [MORE.flix ...]"
                );
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(Failure::usage(format!("unknown option {other}")));
            }
            path => files.push(path.to_string()),
        }
    }

    let Some(socket) = socket else {
        return Err(Failure::usage("--socket is required; see --help"));
    };
    if files.is_empty() {
        return Err(Failure::usage("no input file; see --help"));
    }
    if compact_every.is_some() && (wal.is_none() || snapshot.is_none()) {
        return Err(Failure::usage(
            "--compact-every requires both --wal (the log to compact) and \
             --snapshot (the snapshot to compact it into)",
        ));
    }

    let mut source = String::new();
    for path in &files {
        source.push_str(&read_source(path)?);
        source.push('\n');
    }
    let mut checked = flix_lang::parse(&source)
        .and_then(|parsed| flix_lang::check(&parsed))
        .map_err(|e| Failure::lang(e.to_string()))?;
    // Updates are typed against the declarations; the facts move into
    // the engine, so the hook's copy is taken without them.
    let facts = std::mem::take(&mut checked.facts);
    let declarations = checked.clone();
    checked.facts = facts;
    let program = flix_lang::lower(Arc::new(checked)).map_err(|e| Failure::lang(e.to_string()))?;
    let program = Arc::new(program);

    let config = ServerConfig {
        socket: socket.clone().into(),
        snapshot: snapshot.map(Into::into),
        wal: wal.map(Into::into),
        solver: SolverConfig {
            strategy,
            threads,
            record_provenance: explainable,
            trace: traced.then(TraceConfig::default),
            ..SolverConfig::default()
        },
        max_update_secs,
        max_pending,
        compact_every,
        event_log: log_json.map(|path| EventLogConfig {
            path: path.into(),
            level: log_level,
        }),
        slow_query_ms,
    };
    let hooks = Hooks {
        parse_query: Box::new(|text| flix_lang::parse_query_atom(text).map_err(|e| e.to_string())),
        parse_atom: Box::new(|text| flix_lang::parse_ground_atom(text).map_err(|e| e.to_string())),
        compile_update: Box::new(move |text| {
            flix_lang::compile_update(&declarations, text).map_err(|e| e.to_string())
        }),
    };

    let store = config.files();
    let server = Server::start(program, config, hooks).map_err(|e| Failure {
        code: match &e {
            StartError::Solve(failure) => solve_exit(&failure.error),
            _ => EXIT_USAGE,
        },
        message: Some(e.to_string()),
    })?;

    if let Some(report) = &server.recovery {
        for line in report.warnings(&store) {
            eprintln!("flixd: {line}");
        }
        if report.wal_entries_replayed > 0 {
            eprintln!(
                "flixd: replayed {} delta entr{} from {} write-ahead frame(s)",
                report.wal_entries_replayed,
                if report.wal_entries_replayed == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.wal_frames_replayed
            );
        }
    }
    eprintln!(
        "flixd: serving {} on {socket} (epoch {})",
        files.join(" "),
        server.epoch()
    );

    // Serve until a client sends the `shutdown` op.
    server.join();
    eprintln!("flixd: shut down");
    Ok(())
}
