//! The resident fixed-point service.
//!
//! A [`Server`] loads (or recovers) a model once, keeps it resident, and
//! serves the `flixd/1` protocol over a Unix domain socket:
//!
//! * **Reads** (`query`, `facts`, `explain`, `metrics`, `trace`,
//!   `status`) run concurrently, one thread per connection, each against
//!   an epoch-pinned [`Arc<Solution>`] — *snapshot isolation*: a read
//!   observes exactly one published fixed point, never a mid-update
//!   state, and its reply names the epoch it saw.
//! * **Writes** (`update`, `compact`) are serialized through a single
//!   writer thread, which owns the [`DurableModel`]. Updates queued
//!   while a resume is in flight are *batched*: the writer drains its
//!   queue, folds the deltas into one, hands it to
//!   [`DurableModel::update`] (log, then apply) and publishes the new
//!   fixed point atomically as the next epoch.
//!
//! When a guarded resume fails (deadline, budget), the delta is durable
//! but not applied: the durable model carries it as debt into the next
//! batch, readers keep the old epoch, `status` exposes the debt as
//! `unapplied_durable`, and `compact` is refused (`busy`) until it is
//! paid. DESIGN.md §14 states the model's crash windows once; §17 adds
//! what the service layers on top.

use crate::events::{
    field, field_num, Event, EventLevel, EventLogConfig, EventLogger, LoggerThread,
};
use crate::hooks::Hooks;
use crate::proto::{self, ErrorCode, Hello, Reply, ReplyBody, Request, Status};
use crate::telemetry::{RequestKind, RequestSample, StatsContext, Telemetry};
use flix_core::{
    render_metrics_json, Budget, CompactError, ConfigError, Delta, DurableFiles, DurableModel,
    MetricsReport, OpenError, PersistError, Program, Query, RecoveryReport, Solution, SolveError,
    SolveFailure, Solver, SolverConfig, UpdateError,
};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Server`] is started: where it listens, where it persists,
/// how it solves.
#[derive(Debug)]
pub struct ServerConfig {
    /// The Unix socket path to listen on. A stale file at this path is
    /// removed at bind time and the socket is unlinked on shutdown.
    pub socket: PathBuf,
    /// Snapshot path: loaded at startup (scratch solve when absent or
    /// corrupt) and rewritten by `compact`.
    pub snapshot: Option<PathBuf>,
    /// Write-ahead log path: replayed at startup, appended by every
    /// `update`, truncated by `compact`. Without it updates stay
    /// volatile (still correct, not durable).
    pub wal: Option<PathBuf>,
    /// The solver configuration for the startup solve and every resume.
    /// `record_provenance` enables `explain`; `trace` enables `trace`.
    pub solver: SolverConfig,
    /// Cap on any update's resume deadline, in seconds. A request's
    /// `timeout_secs` is clamped to this; requests without one inherit
    /// it. `None` leaves unrequested updates unbounded.
    pub max_update_secs: Option<f64>,
    /// Admission control: `update` requests beyond this many queued or
    /// in flight are refused with [`ErrorCode::Busy`].
    pub max_pending: usize,
    /// Auto-compaction: after a publish, fold the WAL into the snapshot
    /// once it holds at least this many frames (requires both paths).
    pub compact_every: Option<u64>,
    /// Service telemetry (the `stats` op). On by default; `false` takes
    /// the compiled-off path — every record call returns after one
    /// branch and `stats` answers [`ErrorCode::Unsupported`].
    pub telemetry: bool,
    /// Structured JSONL event log; `None` (the default) logs nothing.
    pub event_log: Option<EventLogConfig>,
    /// Read requests (query/facts/explain) slower than this many
    /// milliseconds are counted and logged as `slow_query` events.
    pub slow_query_ms: Option<f64>,
}

impl ServerConfig {
    /// Where the server's durable model lives: `snapshot` is both what
    /// startup loads and what `compact` rewrites.
    pub fn files(&self) -> DurableFiles {
        DurableFiles {
            load: self.snapshot.clone(),
            save: self.snapshot.clone(),
            wal: self.wal.clone(),
        }
    }

    /// A volatile server on `socket`: no persistence, default solver,
    /// at most 64 queued updates, no deadline cap.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            snapshot: None,
            wal: None,
            solver: SolverConfig::default(),
            max_update_secs: None,
            max_pending: 64,
            compact_every: None,
            telemetry: true,
            event_log: None,
            slow_query_ms: None,
        }
    }
}

/// Why [`Server::start`] failed.
#[derive(Debug)]
pub enum StartError {
    /// The solver configuration was invalid.
    Config(ConfigError),
    /// The startup solve (or WAL replay) failed.
    Solve(Box<SolveFailure>),
    /// The write-ahead log belongs to another program or format version,
    /// or could not be read or created. Nothing was solved.
    Persist(PersistError),
    /// The socket could not be bound.
    Io(std::io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid solver configuration: {e}"),
            StartError::Solve(e) => write!(f, "startup solve failed: {e}"),
            StartError::Persist(e) => write!(f, "write-ahead log unusable: {e}"),
            StartError::Io(e) => write!(f, "cannot bind socket: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// One published fixed point: the model plus the epoch that names it.
struct Published {
    epoch: u64,
    model: Arc<Solution>,
}

/// State shared between the acceptor, every connection thread, and the
/// writer.
struct Shared {
    program: Arc<Program>,
    hooks: Hooks,
    published: RwLock<Arc<Published>>,
    shutting_down: AtomicBool,
    queries_served: AtomicU64,
    pending_updates: AtomicU64,
    unapplied_durable: AtomicU64,
    /// Update *requests* folded into successfully published batches.
    updates_applied: AtomicU64,
    /// Update *batches* successfully published. `status` reports this
    /// instead of deriving `epoch - 1`, which misreports on a recovered
    /// daemon whose epoch did not start at 1.
    batches_applied: AtomicU64,
    telemetry: Telemetry,
    events: Option<EventLogger>,
    /// Connection ids for `conn_open`/`conn_close` events.
    next_conn_id: AtomicU64,
    slow_query_ns: Option<u64>,
    /// The rendered `flix-metrics/1` document for `(epoch, doc)` —
    /// rebuilt at most once per epoch, invalidated by `publish`.
    metrics_cache: Mutex<Option<(u64, Arc<String>)>>,
    started: Instant,
    strategy_name: &'static str,
    threads: usize,
    provenance: bool,
    max_update_secs: Option<f64>,
    max_pending: u64,
    fingerprint: String,
    socket: PathBuf,
}

impl Shared {
    fn current(&self) -> Arc<Published> {
        Arc::clone(&self.published.read().expect("epoch store never poisoned"))
    }

    fn publish(&self, epoch: u64, model: Arc<Solution>) {
        *self.published.write().expect("epoch store never poisoned") =
            Arc::new(Published { epoch, model });
        // The cached `metrics` document describes the previous epoch's
        // model; the next `metrics` request re-renders.
        *self.metrics_cache.lock().expect("metrics cache") = None;
    }

    fn emit(&self, event: Event) {
        if let Some(events) = &self.events {
            events.emit(event);
        }
    }

    fn stats_context(&self) -> StatsContext {
        let published = self.current();
        StatsContext {
            epoch: published.epoch,
            facts: published.model.total_facts() as u64,
            pending_updates: self.pending_updates.load(Ordering::Relaxed),
            unapplied_durable: self.unapplied_durable.load(Ordering::Relaxed),
            events_logged: self.events.as_ref().map(EventLogger::logged).unwrap_or(0),
            events_dropped: self.events.as_ref().map(EventLogger::dropped).unwrap_or(0),
        }
    }
}

/// Work items for the single writer thread. Each carries a rendezvous
/// channel the requesting connection blocks on.
enum WriterJob {
    Update {
        delta: Delta,
        entries: u64,
        deadline: Option<Duration>,
        reply: SyncSender<Reply>,
    },
    Compact {
        reply: SyncSender<Reply>,
    },
    Shutdown,
}

/// A running flixd server: a bound socket, an acceptor thread, a pool
/// of per-connection reader threads, and one writer thread.
///
/// Dropping the handle does *not* stop the server; call
/// [`Server::shutdown`] (or send the protocol `shutdown` op) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    writer_tx: Sender<WriterJob>,
    acceptor: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    logger: Option<LoggerThread>,
    socket: PathBuf,
    /// What startup recovery found on disk, when the server was started
    /// with persistence paths (absent for a volatile scratch solve).
    pub recovery: Option<Arc<RecoveryReport>>,
}

impl Server {
    /// Loads (or recovers) the model, binds the socket, and starts
    /// serving. Returns once the socket is accepting connections — a
    /// client connecting after `start` returns is never refused.
    ///
    /// On glibc the first call also limits the whole process to one
    /// malloc arena, so that threads the host creates later share the
    /// server's heap too.
    pub fn start(
        program: Arc<Program>,
        config: ServerConfig,
        hooks: Hooks,
    ) -> Result<Server, StartError> {
        one_malloc_arena();
        let solver = Solver::with_config(config.solver.clone()).map_err(StartError::Config)?;

        // Recover the startup model; a first boot — no files yet — needs
        // no special case. A volatile server has nothing to report.
        let files = config.files();
        let (durable, report) =
            DurableModel::open(&solver, &program, &files).map_err(|e| match e {
                OpenError::Persist(e) => StartError::Persist(e),
                OpenError::Solve { failure, .. } => StartError::Solve(failure),
            })?;
        let recovery = (files.load.is_some() || files.wal.is_some()).then(|| Arc::new(report));

        if config.socket.exists() {
            // A stale socket from a dead daemon refuses `bind`; a live
            // daemon's socket also dies here, which is the documented
            // single-daemon-per-socket contract.
            std::fs::remove_file(&config.socket).map_err(StartError::Io)?;
        }
        let listener = UnixListener::bind(&config.socket).map_err(StartError::Io)?;

        let telemetry = Telemetry::new(config.telemetry, recovery.clone());

        let (events, logger) = match &config.event_log {
            Some(log_config) => {
                let (logger, thread) = EventLogger::start(log_config).map_err(StartError::Io)?;
                (Some(logger), Some(thread))
            }
            None => (None, None),
        };

        let shared = Arc::new(Shared {
            hooks,
            published: RwLock::new(Arc::new(Published {
                epoch: 1,
                model: Arc::clone(durable.model()),
            })),
            shutting_down: AtomicBool::new(false),
            queries_served: AtomicU64::new(0),
            pending_updates: AtomicU64::new(0),
            unapplied_durable: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            batches_applied: AtomicU64::new(0),
            telemetry,
            events,
            next_conn_id: AtomicU64::new(0),
            slow_query_ns: config
                .slow_query_ms
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .map(|ms| (ms * 1e6) as u64),
            metrics_cache: Mutex::new(None),
            started: Instant::now(),
            strategy_name: config.solver.strategy.name(),
            threads: config.solver.threads,
            provenance: config.solver.record_provenance,
            max_update_secs: config.max_update_secs,
            max_pending: config.max_pending as u64,
            fingerprint: format!("{:#018x}", flix_core::program_fingerprint(&program)),
            socket: config.socket.clone(),
            program,
        });

        {
            let published = shared.current();
            shared.emit(Event {
                level: EventLevel::Info,
                name: "server_start",
                fields: vec![
                    field_num("epoch", published.epoch as f64),
                    field_num("facts", published.model.total_facts() as f64),
                    field("socket", config.socket.display().to_string()),
                ],
            });
        }
        if let Some(report) = &recovery {
            shared.emit(Event {
                level: EventLevel::Info,
                name: "recovery",
                fields: vec![
                    field_num("snapshot_loaded", report.snapshot_loaded as u8 as f64),
                    field_num("scratch_solve", report.scratch_solve as u8 as f64),
                    field_num("wal_frames_replayed", report.wal_frames_replayed as f64),
                    field_num("wal_entries_replayed", report.wal_entries_replayed as f64),
                    field_num("wal_bytes_dropped", report.wal_bytes_dropped as f64),
                ],
            });
        }

        let (writer_tx, writer_rx) = mpsc::channel::<WriterJob>();
        let writer = {
            let shared = Arc::clone(&shared);
            let state = WriterState {
                durable,
                compact_every: config.compact_every,
                base: config.solver.clone(),
                epoch: 1,
            };
            std::thread::Builder::new()
                .name("flixd-writer".into())
                .spawn(move || writer_loop(shared, state, writer_rx))
                .map_err(StartError::Io)?
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            let tx = writer_tx.clone();
            let socket = config.socket.clone();
            std::thread::Builder::new()
                .name("flixd-acceptor".into())
                .spawn(move || accept_loop(listener, socket, shared, tx))
                .map_err(StartError::Io)?
        };

        Ok(Server {
            shared,
            writer_tx,
            acceptor: Some(acceptor),
            writer: Some(writer),
            logger,
            socket: config.socket,
            recovery,
        })
    }

    /// The socket path the server is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// Initiates shutdown exactly as the protocol `shutdown` op does:
    /// stops admitting work, drains the writer, unbinds the socket.
    /// Idempotent; does not wait — follow with [`Server::join`].
    pub fn shutdown(&self) {
        if !self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = self.writer_tx.send(WriterJob::Shutdown);
            // Unblock the acceptor's blocking `accept`.
            let _ = UnixStream::connect(&self.socket);
        }
    }

    /// Waits for the acceptor and writer threads to finish. Connection
    /// threads are detached; in-flight reads complete against their
    /// pinned epochs regardless.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        // The logger drains *after* the writer has joined: the channel
        // is FIFO, so every `batch_applied` the writer emitted is on
        // disk (in publish order) when `finish` returns. Events from
        // still-detached connection threads may land after
        // `server_stop` or be dropped — lifecycle noise, by design.
        self.shared.emit(Event {
            level: EventLevel::Info,
            name: "server_stop",
            fields: vec![field_num("epoch", self.shared.current().epoch as f64)],
        });
        if let Some(logger) = self.logger.take() {
            logger.finish();
        }
    }
}

/// Puts every thread of the process on glibc's one main heap, once,
/// before the first server's threads start (DESIGN §17.2, "One heap").
///
/// Each batch builds a whole model version on the writer thread while
/// readers pin older ones. Under glibc's default of one malloc arena per
/// thread, every arena keeps its own high-water mark, and which arena a
/// new writer or connection thread is handed depends on the order in
/// which earlier threads happened to exit — so a process that starts
/// servers, or threads, one after another held a model version's memory
/// in one arena or in several, and its resident set differed from run
/// to run. On one heap, what a dropped version frees is there for the
/// next one, whichever thread allocates it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    static ONCE: std::sync::Once = std::sync::Once::new();
    // SAFETY: `mallopt` sets one of the allocator's tuning parameters
    // under the allocator's own lock; it may be called from any thread
    // at any time, and an arena limit never invalidates an allocation.
    ONCE.call_once(|| {
        unsafe { mallopt(M_ARENA_MAX, 1) };
    });
}

/// Other allocators keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn accept_loop(
    listener: UnixListener,
    socket: PathBuf,
    shared: Arc<Shared>,
    writer_tx: Sender<WriterJob>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        let writer_tx = writer_tx.clone();
        let spawned = std::thread::Builder::new()
            .name("flixd-conn".into())
            .spawn(move || serve_connection(stream, shared, writer_tx));
        // Thread exhaustion: drop the connection rather than the server.
        drop(spawned);
    }
    let _ = std::fs::remove_file(&socket);
}

fn serve_connection(stream: UnixStream, shared: Arc<Shared>, writer_tx: Sender<WriterJob>) {
    let conn = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.connection_opened();
    shared.emit(Event {
        level: EventLevel::Debug,
        name: "conn_open",
        fields: vec![field_num("conn", conn as f64)],
    });
    connection_loop(stream, &shared, &writer_tx);
    shared.telemetry.connection_closed();
    shared.emit(Event {
        level: EventLevel::Debug,
        name: "conn_close",
        fields: vec![field_num("conn", conn as f64)],
    });
}

fn connection_loop(mut stream: UnixStream, shared: &Arc<Shared>, writer_tx: &Sender<WriterJob>) {
    let hello = {
        let published = shared.current();
        Hello {
            proto: proto::PROTOCOL.to_string(),
            epoch: published.epoch,
            facts: published.model.total_facts() as u64,
            fingerprint: shared.fingerprint.clone(),
        }
    };
    if proto::write_frame(&mut stream, hello.to_json().as_bytes()).is_err() {
        return;
    }
    loop {
        let frame = match proto::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let started = Instant::now();
        let (reply, last, kind) = match Request::from_json(&frame) {
            Ok(request) => {
                let kind = request_kind(&request);
                let slow_atom = slow_query_atom(shared, &request);
                let (reply, last) = handle_request(shared, writer_tx, &mut stream, request);
                if let Some(atom) = slow_atom {
                    observe_slow_query(shared, kind, &atom, &reply, started.elapsed());
                }
                (reply, last, Some(kind))
            }
            Err(e) => {
                shared.telemetry.record_proto_error();
                (error_reply(shared, ErrorCode::Proto, e), false, None)
            }
        };
        let payload = reply.to_json();
        if let Some(kind) = kind {
            shared.telemetry.record_request(RequestSample {
                kind,
                latency_ns: started.elapsed().as_nanos() as u64,
                bytes_in: frame.len() as u64,
                bytes_out: payload.len() as u64,
                error: match &reply.body {
                    ReplyBody::Error { code, .. } => Some(*code),
                    _ => None,
                },
            });
        }
        let sent = proto::write_frame(&mut stream, payload.as_bytes()).is_ok();
        if last {
            // Only now tear the server down: this thread is detached,
            // and the process may exit the moment the acceptor and
            // writer observe the flag — the acknowledgement must
            // already sit in the peer's socket buffer by then.
            trigger_shutdown(shared, writer_tx);
            return;
        }
        if !sent {
            return;
        }
    }
}

fn request_kind(request: &Request) -> RequestKind {
    match request {
        Request::Query { .. } => RequestKind::Query,
        Request::Facts { .. } => RequestKind::Facts,
        Request::Explain { .. } => RequestKind::Explain,
        Request::Metrics => RequestKind::Metrics,
        Request::Trace => RequestKind::Trace,
        Request::Status => RequestKind::Status,
        Request::Stats { .. } => RequestKind::Stats,
        Request::Update { .. } => RequestKind::Update,
        Request::Compact => RequestKind::Compact,
        Request::Shutdown => RequestKind::Shutdown,
    }
}

/// For read ops under a `--slow-query-ms` threshold, the atom (or
/// predicate) to name in the `slow_query` event; `None` when the op is
/// not slow-query-tracked or no threshold is set.
fn slow_query_atom(shared: &Shared, request: &Request) -> Option<String> {
    shared.slow_query_ns?;
    match request {
        Request::Query { atom } | Request::Explain { atom } => Some(atom.clone()),
        Request::Facts { predicate } => Some(predicate.clone().unwrap_or_else(|| "*".to_string())),
        _ => None,
    }
}

fn observe_slow_query(
    shared: &Shared,
    kind: RequestKind,
    atom: &str,
    reply: &Reply,
    elapsed: Duration,
) {
    let threshold = shared.slow_query_ns.unwrap_or(u64::MAX);
    if (elapsed.as_nanos() as u64) < threshold {
        return;
    }
    shared.telemetry.record_slow_query();
    shared.emit(Event {
        level: EventLevel::Warn,
        name: "slow_query",
        fields: vec![
            field("op", kind.as_str()),
            field("atom", atom),
            field_num("epoch", reply.epoch as f64),
            field_num("ms", elapsed.as_secs_f64() * 1e3),
        ],
    });
}

fn error_reply(shared: &Shared, code: ErrorCode, message: String) -> Reply {
    Reply {
        epoch: shared.current().epoch,
        body: ReplyBody::Error { code, message },
    }
}

/// Dispatches one request. Returns the reply plus whether the
/// connection should close after sending it (shutdown acknowledgement).
fn handle_request(
    shared: &Arc<Shared>,
    writer_tx: &Sender<WriterJob>,
    _stream: &mut UnixStream,
    request: Request,
) -> (Reply, bool) {
    match request {
        Request::Query { atom } => (handle_query(shared, &atom), false),
        Request::Facts { predicate } => (handle_facts(shared, predicate.as_deref()), false),
        Request::Explain { atom } => (handle_explain(shared, &atom), false),
        Request::Metrics => (handle_metrics(shared), false),
        Request::Trace => (handle_trace(shared), false),
        Request::Status => (handle_status(shared), false),
        Request::Stats { prometheus } => (handle_stats(shared, prometheus), false),
        Request::Update { text, timeout_secs } => {
            (handle_update(shared, writer_tx, &text, timeout_secs), false)
        }
        Request::Compact => (handle_compact(shared, writer_tx), false),
        Request::Shutdown => {
            // The teardown itself happens in `serve_connection`, after
            // the acknowledgement is on the wire.
            let reply = Reply {
                epoch: shared.current().epoch,
                body: ReplyBody::Stopping,
            };
            (reply, true)
        }
    }
}

fn trigger_shutdown(shared: &Shared, writer_tx: &Sender<WriterJob>) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        let _ = writer_tx.send(WriterJob::Shutdown);
        // The acceptor is parked in `accept`; a throwaway connection
        // unparks it so it can observe the flag.
        let _ = UnixStream::connect(&shared.socket);
    }
}

fn handle_query(shared: &Shared, atom: &str) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    let (predicate, pattern) = match (shared.hooks.parse_query)(atom) {
        Ok(parsed) => parsed,
        Err(e) => return error_reply(shared, ErrorCode::Parse, e),
    };
    let published = shared.current();
    let Some(pred_id) = shared.program.predicate(&predicate) else {
        return error_reply(
            shared,
            ErrorCode::Query,
            format!("unknown predicate {predicate:?}"),
        );
    };
    let arity = shared.program.decl(pred_id).arity();
    if pattern.len() != arity {
        return error_reply(
            shared,
            ErrorCode::Query,
            format!(
                "{predicate} takes {arity} argument{}, pattern has {}",
                if arity == 1 { "" } else { "s" },
                pattern.len()
            ),
        );
    }
    let query = Query::new(predicate.clone(), pattern);
    let lines = published.model.fact_lines(&predicate, Some(&query));
    Reply {
        epoch: published.epoch,
        body: ReplyBody::Answers(lines.unwrap_or_default()),
    }
}

fn handle_facts(shared: &Shared, predicate: Option<&str>) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    let published = shared.current();
    let lines = match predicate {
        Some(name) => match published.model.fact_lines(name, None) {
            Some(lines) => lines,
            None => {
                return error_reply(
                    shared,
                    ErrorCode::Query,
                    format!("unknown predicate {name:?}"),
                )
            }
        },
        None => published.model.model_lines(),
    };
    Reply {
        epoch: published.epoch,
        body: ReplyBody::Facts(lines),
    }
}

fn handle_explain(shared: &Shared, atom: &str) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    if !shared.provenance {
        return error_reply(
            shared,
            ErrorCode::Unsupported,
            "the server is not recording provenance (start flixd with --explainable)".into(),
        );
    }
    let (predicate, values) = match (shared.hooks.parse_atom)(atom) {
        Ok(parsed) => parsed,
        Err(e) => return error_reply(shared, ErrorCode::Parse, e),
    };
    let published = shared.current();
    if published.model.predicate(&predicate).is_none() {
        return error_reply(
            shared,
            ErrorCode::Query,
            format!("unknown predicate {predicate:?}"),
        );
    }
    match published.model.explain(&predicate, &values) {
        Some(tree) => Reply {
            epoch: published.epoch,
            body: ReplyBody::Explain(tree.to_string()),
        },
        None => error_reply(
            shared,
            ErrorCode::Absent,
            format!("{atom} is not in the model at epoch {}", published.epoch),
        ),
    }
}

fn handle_metrics(shared: &Shared) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    let published = shared.current();
    // The report is a pure function of the published model, so render
    // it at most once per epoch; `publish` clears the cache.
    let doc = {
        let mut cache = shared.metrics_cache.lock().expect("metrics cache");
        match cache.as_ref() {
            Some((epoch, doc)) if *epoch == published.epoch => {
                shared.telemetry.record_metrics_cache_hit();
                Arc::clone(doc)
            }
            _ => {
                let doc = Arc::new(render_metrics_json(&[MetricsReport {
                    name: "flixd",
                    strategy: shared.strategy_name,
                    threads: shared.threads,
                    stats: published.model.stats(),
                }]));
                *cache = Some((published.epoch, Arc::clone(&doc)));
                doc
            }
        }
    };
    Reply {
        epoch: published.epoch,
        body: ReplyBody::Metrics(doc.as_ref().clone()),
    }
}

fn handle_stats(shared: &Shared, prometheus: bool) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    if !shared.telemetry.enabled() {
        return error_reply(
            shared,
            ErrorCode::Unsupported,
            "the server is not recording telemetry (started with --no-telemetry)".into(),
        );
    }
    let cx = shared.stats_context();
    let body = if prometheus {
        ReplyBody::Prom(shared.telemetry.render_prometheus(&cx))
    } else {
        ReplyBody::Stats(shared.telemetry.render_stats_json(&cx))
    };
    Reply {
        epoch: cx.epoch,
        body,
    }
}

fn handle_trace(shared: &Shared) -> Reply {
    shared.queries_served.fetch_add(1, Ordering::Relaxed);
    let published = shared.current();
    match published.model.trace() {
        Some(trace) => Reply {
            epoch: published.epoch,
            body: ReplyBody::Trace(trace.to_chrome_json()),
        },
        None => error_reply(
            shared,
            ErrorCode::Unsupported,
            "the server is not recording execution traces (start flixd with --traced)".into(),
        ),
    }
}

fn handle_status(shared: &Shared) -> Reply {
    let published = shared.current();
    Reply {
        epoch: published.epoch,
        body: ReplyBody::Status(Status {
            facts: published.model.total_facts() as u64,
            updates_applied: shared.updates_applied.load(Ordering::Relaxed),
            batches_applied: shared.batches_applied.load(Ordering::Relaxed),
            queries_served: shared.queries_served.load(Ordering::Relaxed),
            pending_updates: shared.pending_updates.load(Ordering::Relaxed),
            unapplied_durable: shared.unapplied_durable.load(Ordering::Relaxed),
            uptime_secs: shared.started.elapsed().as_secs_f64(),
        }),
    }
}

fn handle_update(
    shared: &Shared,
    writer_tx: &Sender<WriterJob>,
    text: &str,
    timeout_secs: Option<f64>,
) -> Reply {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error_reply(
            shared,
            ErrorCode::ShuttingDown,
            "the server is shutting down".into(),
        );
    }
    let delta = match (shared.hooks.compile_update)(text) {
        Ok(delta) => delta,
        Err(e) => return error_reply(shared, ErrorCode::Parse, e),
    };
    // Reject deltas that do not fit the program on their own, in time
    // proportional to the delta — a bad request must never sink the
    // batch it would have ridden in.
    if let Err(e) = shared.program.check_delta(&delta) {
        return error_reply(shared, ErrorCode::Delta, e.to_string());
    }
    // Admission control: bound the queue, not the caller's patience.
    if shared.pending_updates.fetch_add(1, Ordering::SeqCst) >= shared.max_pending {
        shared.pending_updates.fetch_sub(1, Ordering::SeqCst);
        return error_reply(
            shared,
            ErrorCode::Busy,
            format!("update queue is full ({} pending)", shared.max_pending),
        );
    }
    let requested = timeout_secs.filter(|s| s.is_finite() && *s > 0.0);
    let deadline = match (requested, shared.max_update_secs) {
        (Some(r), Some(cap)) => Some(Duration::from_secs_f64(r.min(cap))),
        (Some(r), None) => Some(Duration::from_secs_f64(r)),
        (None, cap) => cap.map(Duration::from_secs_f64),
    };
    let entries = delta.len() as u64;
    let job = |reply| WriterJob::Update {
        delta,
        entries,
        deadline,
        reply,
    };
    ask_writer(shared, writer_tx, job, "applying the update").unwrap_or_else(|refused| {
        shared.pending_updates.fetch_sub(1, Ordering::SeqCst);
        refused
    })
}

fn handle_compact(shared: &Shared, writer_tx: &Sender<WriterJob>) -> Reply {
    let job = |reply| WriterJob::Compact { reply };
    ask_writer(shared, writer_tx, job, "compacting").unwrap_or_else(|refused| refused)
}

/// Queues a job for the writer and waits for its reply. `Err` is the
/// refusal of a job that was never queued: the writer is gone, so the
/// server is shutting down.
fn ask_writer(
    shared: &Shared,
    writer_tx: &Sender<WriterJob>,
    job: impl FnOnce(SyncSender<Reply>) -> WriterJob,
    before: &str,
) -> Result<Reply, Reply> {
    let gone = |message: String| error_reply(shared, ErrorCode::ShuttingDown, message);
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    if writer_tx.send(job(reply_tx)).is_err() {
        return Err(gone("the server is shutting down".into()));
    }
    let reply = reply_rx.recv();
    Ok(reply.unwrap_or_else(|_| gone(format!("the server shut down before {before}"))))
}

/// State owned by the writer thread.
struct WriterState {
    /// The model resumes start from, its log, and its unapplied debt.
    durable: DurableModel,
    compact_every: Option<u64>,
    base: SolverConfig,
    epoch: u64,
}

fn writer_loop(shared: Arc<Shared>, mut state: WriterState, rx: Receiver<WriterJob>) {
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // Batch: drain everything already queued behind the first job.
        let mut batch = vec![first];
        while let Ok(job) = rx.try_recv() {
            batch.push(job);
        }
        let mut updates = Vec::new();
        let mut compacts = Vec::new();
        let mut stop = false;
        for job in batch {
            match job {
                WriterJob::Update {
                    delta,
                    entries,
                    deadline,
                    reply,
                } => updates.push((delta, entries, deadline, reply)),
                WriterJob::Compact { reply } => compacts.push(reply),
                WriterJob::Shutdown => stop = true,
            }
        }
        if !updates.is_empty() {
            apply_batch(&shared, &mut state, updates);
        }
        for reply in compacts {
            let response = compact(&shared, &mut state);
            let _ = reply.send(response);
        }
        if stop {
            return;
        }
    }
}

type PendingUpdate = (Delta, u64, Option<Duration>, SyncSender<Reply>);

fn apply_batch(shared: &Shared, state: &mut WriterState, updates: Vec<PendingUpdate>) {
    let batched = updates.len() as u64;
    let mut combined = Delta::new();
    for (delta, _, _, _) in &updates {
        combined.extend_from(delta);
    }

    // A batch that did not publish: every rider gets the same error.
    let epoch = state.epoch;
    let refuse = |code: ErrorCode, message: String| {
        let reply = Reply {
            epoch,
            body: ReplyBody::Error { code, message },
        };
        for (_, _, _, tx) in &updates {
            let _ = tx.send(reply.clone());
        }
        shared.pending_updates.fetch_sub(batched, Ordering::SeqCst);
    };
    let failed = |code: ErrorCode, entries: usize, error: String| {
        shared.emit(Event {
            level: EventLevel::Warn,
            name: "batch_failed",
            fields: vec![
                field("code", code.as_str()),
                field_num("epoch", epoch as f64),
                field_num("entries", entries as f64),
                field_num("riders", batched as f64),
                field("error", error),
            ],
        });
    };

    // The batch deadline is the tightest requested by any rider: a
    // caller who asked for 2 s should not wait 30 because a slow
    // request got batched with theirs.
    let deadline = updates.iter().filter_map(|(_, _, d, _)| *d).min();
    let mut config = state.base.clone();
    if let Some(d) = deadline {
        config.budget = Budget::new().deadline(d);
    }
    let solver = match Solver::with_config(config) {
        Ok(solver) => solver,
        // Unreachable: `base` was validated at startup and the only
        // edit was the budget. Handled anyway — a writer must not
        // panic with replies outstanding.
        Err(e) => return refuse(ErrorCode::Solve, e.to_string()),
    };

    let record_append = |append: Option<Duration>| {
        if let Some(append) = append {
            shared.telemetry.record_wal_append(append.as_nanos() as u64);
        }
    };
    match state.durable.update(&solver, &combined) {
        Ok(applied) => {
            record_append(applied.append);
            let resume_ns = applied.resume.as_nanos() as u64;
            let total_entries = applied.entries as u64;
            state.epoch += 1;
            shared.unapplied_durable.store(0, Ordering::SeqCst);
            shared.publish(state.epoch, Arc::clone(state.durable.model()));
            shared.updates_applied.fetch_add(batched, Ordering::Relaxed);
            shared.batches_applied.fetch_add(1, Ordering::Relaxed);
            shared
                .telemetry
                .record_batch_applied(batched, total_entries, resume_ns);
            shared.emit(Event {
                level: EventLevel::Info,
                name: "batch_applied",
                fields: vec![
                    field_num("epoch", state.epoch as f64),
                    field_num("entries", total_entries as f64),
                    field_num("riders", batched as f64),
                    field_num("resume_ms", resume_ns as f64 / 1e6),
                ],
            });
            for (_, entries, _, tx) in &updates {
                let _ = tx.send(Reply {
                    epoch: state.epoch,
                    body: ReplyBody::Updated {
                        applied: *entries,
                        batched,
                    },
                });
            }
            shared.pending_updates.fetch_sub(batched, Ordering::SeqCst);
            let frames = state.durable.frames();
            if state.compact_every.is_some_and(|every| frames >= every) {
                // Best-effort: a failed auto-compaction leaves the WAL
                // longer than ideal, never incorrect. The explicit
                // `compact` op surfaces errors to a caller who can act.
                let _ = compact(shared, state);
            }
        }
        // Nothing became durable and nothing was applied: durability and
        // the resident model stay in lockstep. (Every rider was checked
        // on its own when it arrived, so a batch is not rejected.)
        Err(UpdateError::Rejected(e)) => {
            failed(ErrorCode::Delta, combined.len(), e.to_string());
            refuse(ErrorCode::Delta, e.to_string());
        }
        Err(UpdateError::Append(e)) => {
            failed(ErrorCode::Persist, combined.len(), e.to_string());
            refuse(
                ErrorCode::Persist,
                format!("write-ahead log append failed: {e}"),
            );
        }
        Err(UpdateError::Carried { failure, append }) => {
            record_append(append);
            let code = match &failure.error {
                SolveError::BudgetExceeded { .. } | SolveError::RoundLimitExceeded { .. } => {
                    ErrorCode::Budget
                }
                SolveError::Delta(_) => ErrorCode::Delta,
                _ => ErrorCode::Solve,
            };
            let debt = state.durable.debt();
            shared
                .unapplied_durable
                .store(debt as u64, Ordering::SeqCst);
            shared.telemetry.record_batch_failed();
            failed(code, debt, failure.error.to_string());
            refuse(
                code,
                format!(
                    "update logged but not applied (will retry with the next batch): {}",
                    failure.error
                ),
            );
        }
    }
}

fn compact(shared: &Shared, state: &mut WriterState) -> Reply {
    let epoch = state.epoch;
    let body = match state.durable.compact() {
        Ok(frames_absorbed) => {
            shared.telemetry.record_compaction(true);
            shared.emit(Event {
                level: EventLevel::Info,
                name: "compaction",
                fields: vec![
                    field_num("epoch", epoch as f64),
                    field_num("frames_absorbed", frames_absorbed as f64),
                ],
            });
            ReplyBody::Compacted { frames_absorbed }
        }
        Err(e) => {
            let (code, message) = match &e {
                CompactError::Debt(_) => (ErrorCode::Busy, e.to_string()),
                CompactError::Unconfigured => (
                    ErrorCode::Unsupported,
                    "compaction requires the server to run with both --snapshot and --wal".into(),
                ),
                CompactError::Persist(cause) => {
                    shared.telemetry.record_compaction(false);
                    shared.emit(Event {
                        level: EventLevel::Warn,
                        name: "compaction_failed",
                        fields: vec![
                            field_num("epoch", epoch as f64),
                            field("error", cause.to_string()),
                        ],
                    });
                    (ErrorCode::Persist, e.to_string())
                }
            };
            ReplyBody::Error { code, message }
        }
    };
    Reply { epoch, body }
}
