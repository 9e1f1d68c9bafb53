//! `flixr` — compile and solve a FLIX program from the command line.
//!
//! Usage:
//!
//! ```text
//! flixr [--stats] [--profile] [--metrics-json PATH]
//!       [--trace PATH] [--trace-folded PATH]
//!       [--ascent-report] [--ascent-threshold N] [--progress]
//!       [--naive] [--verify] [--threads N]
//!       [--max-rounds N] [--timeout SECS]
//!       [--print PRED[,PRED...]] [--explain "Fact(args)"]
//!       [--query "Pred(pattern)"] [--update FILE.flix]
//!       [--save SNAPSHOT] [--load SNAPSHOT]
//!       [--wal LOG] [--compact-every N]
//!       [--quiet-model]
//!       FILE.flix [MORE.flix ...]
//!
//! flixr --connect SOCKET [--query PATTERN] [--print PREDS]
//!       [--explain ATOM] [--update FILE.flix] [--timeout SECS]
//!       [--metrics-json PATH] [--status] [--stats [--prom]]
//!       [--watch [--interval SECS] [--watch-count N]]
//!       [--compact] [--shutdown] [--quiet-model]
//! ```
//!
//! `--quiet-model` suppresses printing the model itself (and, with
//! `--update`, both models) — the run still solves, persists, and
//! reports stats/diagnostics, so scripts that only care about side
//! effects or exit codes are not flooded by large fixed points.
//!
//! `--connect SOCKET` switches to *client mode* against a running
//! `flixd` daemon (see the `flixd` binary): no local compile or solve
//! happens; instead `--query`, `--print`, `--explain`, `--update`,
//! `--metrics-json`, `--status`, `--compact`, and `--shutdown` are sent
//! over the `flixd/1` protocol and rendered exactly as local mode
//! renders its own output. In client mode `--stats` fetches the
//! daemon's `flixd-stats/1` telemetry document (add `--prom` for the
//! Prometheus text exposition, e.g. to serve as a scrape target), and
//! `--watch` polls `stats` every `--interval` seconds (default 2) into
//! a live rate-and-latency view (`--watch-count N` stops after `N`
//! polls). `--update` prints the daemon's updated model
//! afterwards unless `--quiet-model` (or an explicit `--query`/
//! `--print`) narrows the output; `--timeout` becomes the update's
//! server-side resume deadline. Error replies map onto the same exit
//! codes as local failures: 2 for language-level rejections (parse,
//! unknown predicate, delta mismatch), 4 for exhausted budgets, 3 for
//! solver faults, 1 for operational errors (daemon busy, unsupported
//! capability, shutdown races). The protocol and its epoch/snapshot-
//! isolation semantics are specified in DESIGN.md §17.
//!
//! Multiple input files are concatenated before compilation, so rules and
//! facts can live in separate files (the interoperability story of §1 of
//! the paper: feed extracted facts to the solver without a bespoke
//! serialisation step). `--verify` law-checks every lattice binding
//! before solving (§7 "Safety"); `--explain` prints the derivation tree of
//! a fact in the computed model.
//!
//! `--query 'Dist("a", _)'` (repeatable) switches to demand-driven
//! evaluation: instead of computing the whole minimal model, the solver
//! runs the magic-set-style rewrite of `flix_core::demand` and derives
//! only the tuples and lattice cells the query patterns transitively
//! demand, then prints only the matching answers. A `_` marks a free
//! position; everything else must be a literal. Demanded answers are
//! identical to the full model's. `--explain` explains a fact within the
//! demanded model, `--stats`/`--profile`/`--metrics-json` describe the
//! (cheaper) query-directed run in the program's own rule and predicate
//! names, and `--update FILE` makes the queries ask about the *updated*
//! program without ever materializing either full model. A malformed
//! query pattern (syntax, unknown predicate, wrong arity) exits 2 with
//! the offending source position.
//!
//! `--save PATH` writes the final model (the updated model under
//! `--update`, otherwise the initial one) as a checksummed snapshot,
//! atomically. `--load PATH` replaces the initial solve with that
//! snapshot; a missing, corrupt, or mismatched snapshot degrades to a
//! scratch solve with a warning on stderr — it never aborts a run.
//! `--wal PATH` opens (or creates) a write-ahead delta log: surviving
//! logged deltas are replayed onto the base model before anything is
//! printed, and with `--update` the new delta is appended — durably —
//! *before* it is applied, so a crash mid-update is recoverable by the
//! next run. A corrupt log tail is truncated with a warning; a log
//! whose header is destroyed is recreated empty. `--compact-every N`
//! (requires `--wal` and `--save`) absorbs the log into a fresh
//! snapshot once it holds at least `N` deltas, instead of letting it
//! grow forever. The replay resumes from the base model with every
//! surviving delta combined, so recovery always reproduces exactly the
//! fixed point of the base program plus the logged updates, and an
//! `--update` resumes from that replayed model. A log that belongs to
//! another program or format version is refused (exit 1) before
//! anything is solved. All of this is `flix_core::persist::DurableModel`,
//! which `flixd` runs on too. The persistence flags describe complete models and therefore cannot be
//! combined with `--query` (whose demanded model is deliberately
//! partial). Wire formats are specified byte-by-byte in DESIGN.md §14.
//!
//! `--update FILE` applies a delta after the initial solve: the update
//! file is compiled standalone (it re-declares the predicates its facts
//! touch) and its facts are fed to [`Solver::resume`], which
//! warm-starts the fixed point from the initial model instead of
//! solving from scratch. Plain facts assert (lattice facts lub-raise);
//! a line `-Edge(1, 2).` (equivalently `retract Edge(1, 2).`) retracts
//! an asserted fact, and the resume over-deletes its cone of
//! consequences and re-derives what survives — for a lattice
//! predicate the retracted key's cell re-settles at the lub of its
//! remaining justifications. Retractions apply after the same file's
//! assertions; a malformed retraction line exits 2 with its file and
//! line. Both models are printed, separated by `== initial model ==` /
//! `== updated model ==` headers; without `--update` the model is
//! printed headerless as before. `--explain` combined with `--update`
//! explains the fact in the *updated* model.
//!
//! Prints every relation tuple and lattice cell of the minimal model (or
//! only the named predicates), one fact per line: the sorted set of
//! `Pred(args)` lines, each once, as `--query` answers and every reply
//! of `--connect` are printed too. A `--print` name the program does not
//! declare exits 2 before anything is solved, as it does through the
//! daemon.
//!
//! `--profile` prints the per-rule work profile (evaluations, derived,
//! inserted, index probes, scans, cumulative time) as a ranked table on
//! stderr; `--metrics-json PATH` writes the same profile as a
//! `flix-metrics/1` JSON document (schema in DESIGN.md §10). Both also
//! fire on guarded failures, describing the partial run.
//!
//! `--trace PATH` records an execution trace (solve → stratum → round →
//! rule-evaluation spans, one track per worker thread) and writes it as
//! Chrome trace-event JSON loadable in Perfetto or `chrome://tracing`;
//! `--trace-folded PATH` writes the same trace as folded stacks for
//! `flamegraph.pl`/`inferno`. `--ascent-report` prints the
//! lattice-ascent diagnostic (chain-height histogram, hottest cells) on
//! stderr, and `--ascent-threshold N` warns — without aborting — as soon
//! as any lattice cell's ascending chain exceeds height `N` (the §3.2
//! termination argument needs finite chains; a runaway height is the
//! telltale of a missing widening). `--progress` prints a rate-limited
//! one-line progress heartbeat per round on stderr. All of these fire on
//! guarded failures too, describing the partial run.
//!
//! # Exit codes
//!
//! Failures are distinguishable by exit code so scripts can react without
//! scraping stderr:
//!
//! | code | meaning                                                        |
//! |------|----------------------------------------------------------------|
//! | 0    | solved; the minimal model was printed                          |
//! | 1    | usage or I/O error (bad flag, unreadable file, ...)            |
//! | 2    | the program failed to parse or type-check                      |
//! | 3    | solving failed (function panic, lattice-law violation, ...)    |
//! | 4    | a budget was exhausted (`--timeout`, `--max-rounds`)           |
//!
//! On exit codes 3 and 4 the facts derived before the fault are still
//! printed — the guarded execution layer returns the partial model, and
//! `flixr` surfaces it so long-running analyses degrade to best-effort
//! results instead of nothing.

use flix_core::{
    render_ascent_report, render_metrics_json, save_snapshot, AscentConfig, AscentWarning, Budget,
    Delta, DurableFiles, DurableModel, MetricsReport, Observer, OpenError, Query, RecoveryReport,
    Solution, SolveError, Solver, SolverConfig, Strategy, TraceConfig, UpdateError,
};
use flix_lang::cli::{
    compact_every_arg, number_arg, path_arg, read_source, seconds_arg, solve_exit, value_arg,
    Failure, EXIT_BUDGET, EXIT_LANG, EXIT_SOLVE, EXIT_USAGE,
};
use flixd::telemetry::HistogramSnapshot;
use flixd::{Client, ErrorCode, Reply, ReplyBody, Request};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    // The guarded solver catches panics in user-supplied functions and
    // re-reports them with rule context, so the default panic hook would
    // only duplicate each caught panic as "thread panicked" noise.
    // Silence it; a panic that *escapes* `run` is a flixr bug and is
    // re-reported below as an internal error.
    std::panic::set_hook(Box::new(|_| {}));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match std::panic::catch_unwind(|| run(args)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(failure)) => failure.exit("flixr"),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("flixr: internal error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The command line, parsed: one field per flag, the input files last.
#[derive(Default)]
struct Options {
    stats: bool,
    profile: bool,
    metrics_json: Option<String>,
    trace: Option<String>,
    trace_folded: Option<String>,
    ascent_report: bool,
    ascent_threshold: Option<u64>,
    progress: bool,
    verify: bool,
    strategy: Strategy,
    threads: usize,
    max_rounds: Option<u64>,
    timeout: Option<Duration>,
    print: Option<Vec<String>>,
    explain: Option<String>,
    queries: Vec<String>,
    update: Option<String>,
    save: Option<String>,
    load: Option<String>,
    wal: Option<String>,
    compact_every: Option<u64>,
    quiet_model: bool,
    connect: Option<String>,
    status: bool,
    compact: bool,
    shutdown: bool,
    prom: bool,
    watch: bool,
    interval: f64,
    watch_count: Option<u64>,
    files: Vec<String>,
}

fn run(args: Vec<String>) -> Result<(), Failure> {
    let mut o = Options {
        threads: 1,
        interval: 2.0,
        ..Options::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stats" => o.stats = true,
            "--profile" => o.profile = true,
            "--metrics-json" => {
                o.metrics_json = Some(path_arg(&mut it, "--metrics-json", "an output path")?)
            }
            "--trace" => o.trace = Some(path_arg(&mut it, "--trace", "an output path")?),
            "--trace-folded" => {
                o.trace_folded = Some(path_arg(&mut it, "--trace-folded", "an output path")?)
            }
            "--ascent-report" => o.ascent_report = true,
            "--ascent-threshold" => {
                let flag = "--ascent-threshold";
                o.ascent_threshold =
                    Some(number_arg(&mut it, flag, "a height", "ascent threshold")?)
            }
            "--progress" => o.progress = true,
            "--verify" => o.verify = true,
            "--naive" => o.strategy = Strategy::Naive,
            "--threads" => {
                o.threads = number_arg(&mut it, "--threads", "a number", "thread count")?
            }
            "--max-rounds" => {
                o.max_rounds = Some(number_arg(
                    &mut it,
                    "--max-rounds",
                    "a number",
                    "round limit",
                )?)
            }
            "--timeout" => {
                let secs = seconds_arg(&mut it, "--timeout", "timeout", "timeout")?;
                o.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--print" => {
                let list = value_arg(&mut it, "--print", "predicate names")?;
                o.print = Some(list.split(',').map(str::to_string).collect());
            }
            "--explain" => o.explain = Some(value_arg(&mut it, "--explain", "a ground atom")?),
            "--query" => {
                let what = "an atom pattern, e.g. 'Dist(\"a\", _)'";
                o.queries.push(value_arg(&mut it, "--query", what)?);
            }
            "--update" => o.update = Some(path_arg(&mut it, "--update", "a .flix file of facts")?),
            "--save" => o.save = Some(path_arg(&mut it, "--save", "a snapshot path")?),
            "--load" => o.load = Some(path_arg(&mut it, "--load", "a snapshot path")?),
            "--wal" => o.wal = Some(path_arg(&mut it, "--wal", "a log path")?),
            "--compact-every" => o.compact_every = Some(compact_every_arg(&mut it)?),
            "--quiet-model" => o.quiet_model = true,
            "--connect" => o.connect = Some(path_arg(&mut it, "--connect", "a flixd socket path")?),
            "--status" => o.status = true,
            "--compact" => o.compact = true,
            "--shutdown" => o.shutdown = true,
            "--prom" => o.prom = true,
            "--watch" => o.watch = true,
            "--interval" => {
                o.interval = seconds_arg(&mut it, "--interval", "interval", "--interval")?
            }
            "--watch-count" => {
                o.watch_count = Some(number_arg(
                    &mut it,
                    "--watch-count",
                    "a poll count",
                    "poll count",
                )?)
            }
            "--help" | "-h" => {
                println!(
                    "usage: flixr [--stats] [--profile] [--metrics-json PATH] \
                     [--trace PATH] [--trace-folded PATH] \
                     [--ascent-report] [--ascent-threshold N] [--progress] \
                     [--naive] [--verify] [--threads N] \
                     [--max-rounds N] [--timeout SECS] [--print PREDS] \
                     [--explain ATOM] [--query PATTERN] [--update FILE.flix] \
                     [--save SNAPSHOT] [--load SNAPSHOT] [--wal LOG] [--compact-every N] \
                     [--quiet-model] FILE.flix [MORE.flix ...]\n\
                     \n\
                     client mode (against a running flixd daemon):\n\
                     flixr --connect SOCKET [--query PATTERN] [--print PREDS] \
                     [--explain ATOM] [--update FILE.flix] [--timeout SECS] \
                     [--metrics-json PATH] [--status] [--stats [--prom]] \
                     [--watch [--interval SECS] [--watch-count N]] \
                     [--compact] [--shutdown] [--quiet-model]"
                );
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(Failure::usage(format!("unknown option {other}")));
            }
            path => o.files.push(path.to_string()),
        }
    }

    let persists = o.save.is_some() || o.load.is_some() || o.wal.is_some();
    if let Some(socket) = &o.connect {
        if persists || o.verify {
            return Err(Failure::usage(
                "--save/--load/--wal/--verify are local-mode flags; the daemon owns \
                 persistence when using --connect (see --compact)",
            ));
        }
        if !o.files.is_empty() {
            return Err(Failure::usage(
                "--connect talks to a daemon that already loaded its program; \
                 drop the .flix file arguments",
            ));
        }
        if o.prom && !o.stats {
            return Err(Failure::usage(
                "--prom selects the Prometheus form of --stats; add --stats",
            ));
        }
        return run_connect(&o, socket);
    }
    if o.status || o.compact || o.shutdown || o.prom || o.watch || o.watch_count.is_some() {
        return Err(Failure::usage(
            "--status/--compact/--shutdown/--prom/--watch/--watch-count are client-mode \
             flags and require --connect SOCKET",
        ));
    }
    if o.files.is_empty() {
        return Err(Failure::usage("no input file; see --help"));
    }
    if !o.queries.is_empty() && persists {
        return Err(Failure::usage(
            "--save/--load/--wal describe complete models and cannot be combined \
             with --query, whose demanded model is deliberately partial",
        ));
    }
    if o.compact_every.is_some() && (o.wal.is_none() || o.save.is_none()) {
        return Err(Failure::usage(
            "--compact-every requires both --wal (the log to compact) and \
             --save (the snapshot to compact it into)",
        ));
    }
    let mut source = String::new();
    for path in &o.files {
        let text = read_source(path)?;
        source.push_str(&text);
        source.push('\n');
    }
    // The checked program `--verify` checks is the one lowered.
    let checked = flix_lang::parse(&source)
        .and_then(|parsed| flix_lang::check(&parsed))
        .map_err(|e| Failure::lang(e.to_string()))?;
    let checked = Arc::new(checked);
    if o.verify {
        flix_lang::verify::check_lattices(&checked).map_err(|e| Failure {
            code: EXIT_SOLVE,
            message: Some(e.to_string()),
        })?;
        eprintln!("flixr: all lattice bindings satisfy the lattice laws");
    }
    let program = Arc::new(flix_lang::lower(checked).map_err(|e| Failure::lang(e.to_string()))?);
    // The daemon's text and exit code for a name it does not know.
    if let Some(name) = o
        .print
        .iter()
        .flatten()
        .find(|name| program.predicate(name).is_none())
    {
        return Err(Failure::lang(format!("unknown predicate {name:?}")));
    }

    let mut budget = Budget::new();
    if let Some(deadline) = o.timeout {
        budget = budget.deadline(deadline);
    }
    let observer: Option<Arc<dyn Observer>> = (o.progress || o.ascent_threshold.is_some())
        .then(|| Arc::new(CliObserver::new(o.progress)) as Arc<dyn Observer>);
    let solver = Solver::with_config(SolverConfig {
        strategy: o.strategy,
        threads: o.threads,
        max_rounds: o.max_rounds,
        budget,
        record_provenance: o.explain.is_some(),
        trace: (o.trace.is_some() || o.trace_folded.is_some()).then(TraceConfig::default),
        ascent: (o.ascent_report || o.ascent_threshold.is_some()).then(|| AscentConfig {
            warn_height: o.ascent_threshold,
            ..AscentConfig::default()
        }),
        observer,
        ..SolverConfig::default()
    })
    .map_err(|e| Failure::usage(format!("--{e}")))?;

    if !o.queries.is_empty() {
        return run_queries(&o, program, &solver);
    }

    // Recover the model (snapshot, log, or a scratch solve), apply the
    // update through the log, then compact or save: every step is the
    // durable model's, so `flixd` on the same files does the same.
    let files = DurableFiles {
        load: o.load.as_ref().map(Into::into),
        save: o.save.as_ref().map(Into::into),
        wal: o.wal.as_ref().map(Into::into),
    };
    let warn = |recovery: &RecoveryReport| {
        for line in recovery.warnings(&files) {
            eprintln!("flixr: {line}");
        }
    };
    let (mut durable, recovery) = match DurableModel::open(&solver, &program, &files) {
        Ok(opened) => opened,
        Err(OpenError::Persist(e)) => return Err(Failure::usage(e.to_string())),
        Err(OpenError::Solve { failure, report }) => {
            warn(&report);
            let at = match report.wal_entries_replayed {
                0 => FailedAt::Base,
                _ => FailedAt::Replay,
            };
            return Err(report_solve_failure(&o, failure, at));
        }
    };
    warn(&recovery);
    let initial = Arc::clone(durable.model());

    let updated = match &o.update {
        Some(update_path) => {
            let delta = compile_update(update_path)?;
            match durable.update(&solver, &delta) {
                Ok(_) => Some(Arc::clone(durable.model())),
                Err(UpdateError::Rejected(e)) => return Err(Failure::lang(e.to_string())),
                Err(UpdateError::Append(e)) => return Err(Failure::usage(e.to_string())),
                Err(UpdateError::Carried { failure, .. }) => {
                    let at = FailedAt::Update { initial: &initial };
                    return Err(report_solve_failure(&o, failure, at));
                }
            }
        }
        None => None,
    };
    let last = updated.as_ref().unwrap_or(&initial);

    // Reached only by fully successful solves: a guarded failure's
    // partial model never overwrites a good snapshot.
    if o.compact_every
        .is_some_and(|every| durable.frames() >= every)
    {
        durable
            .compact()
            .map_err(|e| Failure::usage(e.to_string()))?;
        eprintln!(
            "flixr: compacted the write-ahead log into snapshot {} (the log is empty again)",
            o.save.as_deref().unwrap_or_default()
        );
    } else if let Some(path) = &o.save {
        save_snapshot(path, &program, last).map_err(|e| Failure::usage(e.to_string()))?;
    }

    if let Some(query) = &o.explain {
        let model = match updated {
            Some(_) => "updated model",
            None => "minimal model",
        };
        return explain_fact(last, query, model);
    }
    if updated.is_some() {
        if !o.quiet_model {
            println!("== initial model ==");
            print_model(&initial, o.print.as_deref());
        }
        if o.stats {
            print_stats(initial.stats());
        }
        if !o.quiet_model {
            println!("== updated model ==");
        }
    }
    if !o.quiet_model {
        print_model(last, o.print.as_deref());
    }
    if o.stats {
        print_stats(last.stats());
    }
    emit_observability(&o, last.stats(), last)
}

/// Maps a daemon error reply onto the local-mode exit codes, so scripts
/// driving `flixr --connect` can react exactly as they would to a local
/// run: 2 for language-level rejections, 4 for exhausted budgets, 3 for
/// solver faults, 1 for everything operational.
fn connect_failure(code: ErrorCode, message: String) -> Failure {
    let exit = match code {
        ErrorCode::Parse | ErrorCode::Query | ErrorCode::Delta => EXIT_LANG,
        ErrorCode::Budget => EXIT_BUDGET,
        ErrorCode::Solve => EXIT_SOLVE,
        ErrorCode::Proto
        | ErrorCode::Absent
        | ErrorCode::Persist
        | ErrorCode::Unsupported
        | ErrorCode::Busy
        | ErrorCode::ShuttingDown => EXIT_USAGE,
    };
    Failure {
        code: exit,
        message: Some(format!("flixd replied [{code}]: {message}")),
    }
}

/// The client mode: one connection to a running flixd daemon, driving
/// the requested operations in a fixed order — update, compact, queries
/// and fact dumps, explain, metrics, status, shutdown — and rendering
/// the replies exactly as local mode renders its own output (fact lines
/// on stdout, diagnostics on stderr).
fn run_connect(o: &Options, socket: &str) -> Result<(), Failure> {
    let mut client = Client::connect(socket)
        .map_err(|e| Failure::usage(format!("cannot connect to flixd at {socket}: {e}")))?;

    fn call(client: &mut Client, request: Request) -> Result<Reply, Failure> {
        let reply = client
            .request(&request)
            .map_err(|e| Failure::usage(format!("flixd connection lost: {e}")))?;
        if let ReplyBody::Error { code, message } = reply.body {
            return Err(connect_failure(code, message));
        }
        Ok(reply)
    }

    /// Sends a request that is answered with fact lines and returns them.
    fn fact_lines(client: &mut Client, request: Request) -> Result<Vec<String>, Failure> {
        match call(client, request)?.body {
            ReplyBody::Facts(lines) | ReplyBody::Answers(lines) => Ok(lines),
            _ => Ok(Vec::new()),
        }
    }

    if let Some(path) = &o.update {
        let text = read_source(path)?;
        let reply = call(
            &mut client,
            Request::Update {
                text,
                timeout_secs: o.timeout.map(|d| d.as_secs_f64()),
            },
        )?;
        if let ReplyBody::Updated { applied, batched } = reply.body {
            eprintln!(
                "flixr: update applied at epoch {} ({applied} delta entr{}, \
                 batched with {} other update{})",
                reply.epoch,
                if applied == 1 { "y" } else { "ies" },
                batched - 1,
                if batched == 2 { "" } else { "s" }
            );
        }
        // Local mode prints the updated model after an update; the
        // client asks the daemon for it instead, unless --quiet-model.
        if !o.quiet_model && o.queries.is_empty() && o.print.is_none() {
            print_lines(fact_lines(&mut client, Request::Facts { predicate: None })?);
        }
    }

    if o.compact {
        let reply = call(&mut client, Request::Compact)?;
        if let ReplyBody::Compacted { frames_absorbed } = reply.body {
            eprintln!(
                "flixr: flixd compacted {frames_absorbed} write-ahead frame{} into its snapshot",
                if frames_absorbed == 1 { "" } else { "s" }
            );
        }
    }

    // Every answer and every `--print` predicate first, then one print,
    // as local mode prints them.
    let mut lines = Vec::new();
    for pattern in &o.queries {
        let atom = pattern.clone();
        lines.extend(fact_lines(&mut client, Request::Query { atom })?);
    }
    for pred in o.print.iter().flatten() {
        let predicate = Some(pred.clone());
        lines.extend(fact_lines(&mut client, Request::Facts { predicate })?);
    }
    print_lines(lines);

    if let Some(atom) = &o.explain {
        let reply = call(&mut client, Request::Explain { atom: atom.clone() })?;
        if let ReplyBody::Explain(tree) = reply.body {
            print!("{tree}");
        }
    }

    if let Some(path) = &o.metrics_json {
        let reply = call(&mut client, Request::Metrics)?;
        if let ReplyBody::Metrics(doc) = reply.body {
            std::fs::write(path, doc)
                .map_err(|e| Failure::usage(format!("cannot write {path}: {e}")))?;
        }
    }

    if o.status {
        let reply = call(&mut client, Request::Status)?;
        if let ReplyBody::Status(s) = reply.body {
            println!("epoch: {}", reply.epoch);
            println!("facts: {}", s.facts);
            println!("updates_applied: {}", s.updates_applied);
            println!("batches_applied: {}", s.batches_applied);
            println!("queries_served: {}", s.queries_served);
            println!("pending_updates: {}", s.pending_updates);
            println!("unapplied_durable: {}", s.unapplied_durable);
            println!("uptime_secs: {:.3}", s.uptime_secs);
        }
    }

    if o.stats {
        let reply = call(&mut client, Request::Stats { prometheus: o.prom })?;
        match reply.body {
            ReplyBody::Stats(doc) => println!("{doc}"),
            ReplyBody::Prom(text) => print!("{text}"),
            _ => {}
        }
    }

    if o.watch {
        watch_stats(&mut client, o.interval, o.watch_count)?;
    }

    if o.shutdown {
        call(&mut client, Request::Shutdown)?;
        eprintln!("flixr: flixd acknowledged shutdown");
    }

    Ok(())
}

/// One `--watch` poll's worth of counters, extracted from a
/// `flixd-stats/1` document.
struct WatchSample {
    epoch: u64,
    facts: u64,
    active_conns: u64,
    reads: u64,
    updates: u64,
    batches: u64,
    pending: u64,
    debt: u64,
    query_latency: HistogramSnapshot,
}

fn watch_extract(doc: &flixd::json::Json) -> Option<WatchSample> {
    use flixd::json::Json;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64);
    let requests = doc.get("requests")?;
    let op_count = |op: &str| requests.get(op).and_then(|o| num(o, "count")).unwrap_or(0);
    let writer = doc.get("writer")?;
    let query = requests.get("query")?;
    let latency = query.get("latency_ns")?;
    let buckets: Vec<u64> = latency
        .get("buckets")
        .and_then(Json::as_array)
        .map(|xs| xs.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    Some(WatchSample {
        epoch: num(doc, "epoch")?,
        facts: num(doc, "facts").unwrap_or(0),
        active_conns: doc
            .get("connections")
            .and_then(|c| num(c, "active"))
            .unwrap_or(0),
        reads: op_count("query") + op_count("facts") + op_count("explain"),
        updates: op_count("update"),
        batches: num(writer, "batches_applied").unwrap_or(0),
        pending: num(writer, "pending_updates").unwrap_or(0),
        debt: num(writer, "unapplied_durable").unwrap_or(0),
        query_latency: HistogramSnapshot {
            count: num(latency, "count").unwrap_or(0),
            sum: num(latency, "sum").unwrap_or(0),
            max: num(latency, "max").unwrap_or(0),
            buckets,
        },
    })
}

fn watch_format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{}µs", ns / 1_000),
        1_000_000..=999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

/// `--watch`: poll `stats` every `interval` seconds and print one line
/// per poll — epoch, model size, connections, request/update rates
/// since the previous poll, and query latency quantiles so far.
fn watch_stats(
    client: &mut Client,
    interval: f64,
    watch_count: Option<u64>,
) -> Result<(), Failure> {
    let mut previous: Option<WatchSample> = None;
    let mut polls = 0u64;
    println!(
        "{:>6} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5}",
        "epoch", "facts", "conns", "read/s", "upd/s", "batch/s", "q-p50", "q-p99", "pend", "debt"
    );
    loop {
        let reply = client
            .request(&Request::Stats { prometheus: false })
            .map_err(|e| Failure::usage(format!("flixd connection lost: {e}")))?;
        let doc = match reply.body {
            ReplyBody::Stats(doc) => doc,
            ReplyBody::Error { code, message } => return Err(connect_failure(code, message)),
            other => return Err(Failure::usage(format!("unexpected stats reply {other:?}"))),
        };
        let parsed = flixd::json::parse(&doc)
            .map_err(|e| Failure::usage(format!("malformed stats document: {e}")))?;
        let sample = watch_extract(&parsed)
            .ok_or_else(|| Failure::usage("stats document is missing expected fields"))?;
        let rate = |cur: u64, prev: u64| (cur.saturating_sub(prev)) as f64 / interval;
        let (reads_s, upd_s, batch_s) = match &previous {
            Some(prev) => (
                rate(sample.reads, prev.reads),
                rate(sample.updates, prev.updates),
                rate(sample.batches, prev.batches),
            ),
            // The first poll has no earlier sample to difference
            // against; rates start on the second line.
            None => (0.0, 0.0, 0.0),
        };
        let quant = |q: f64| {
            sample
                .query_latency
                .quantile(q)
                .map(watch_format_ns)
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>6} {:>9} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>8} {:>8} {:>5} {:>5}",
            sample.epoch,
            sample.facts,
            sample.active_conns,
            reads_s,
            upd_s,
            batch_s,
            quant(0.5),
            quant(0.99),
            sample.pending,
            sample.debt,
        );
        previous = Some(sample);
        polls += 1;
        if watch_count.is_some_and(|n| polls >= n) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// Compiles an `--update` file into a [`Delta`]. Plain facts become
/// insertions (for lattice predicates: lub-raises). A line of the form
/// `-Edge(1, 2).` or `retract Edge(1, 2).` becomes a retraction — for
/// a lattice predicate, a lower withdrawing that key's asserted
/// contribution. Retraction lines are extracted before the rest of the
/// file is compiled (blanked in place, so error positions in the
/// remainder keep their line numbers) and are applied *after* the
/// file's assertions. A malformed retraction line fails with the file
/// path and line number, exit code 2.
fn compile_update(path: &str) -> Result<Delta, Failure> {
    let source = read_source(path)?;
    flix_lang::compile_update(&source).map_err(|e| Failure::lang(format!("{path}: {e}")))
}

/// The demand-driven path: parse the `--query` patterns, optionally fold
/// an `--update` delta into the program, run the query-directed solve,
/// and print only the matching answers (or the `--explain` derivation
/// within the demanded model).
fn run_queries(
    o: &Options,
    program: Arc<flix_core::Program>,
    solver: &Solver,
) -> Result<(), Failure> {
    let mut parsed: Vec<Query> = Vec::with_capacity(o.queries.len());
    for text in &o.queries {
        let (pred, pattern) =
            flix_lang::parse_query_atom(text).map_err(|e| Failure::lang(e.to_string()))?;
        parsed.push(Query::new(pred, pattern));
    }

    // With --update, the queries ask about the updated world: fold the
    // delta's facts into the program and let the rewrite restrict the
    // combined solve — neither full model is ever materialized.
    let program = match &o.update {
        Some(update_path) => {
            let delta = compile_update(update_path)?;
            let updated = program.with_delta(&delta);
            Arc::new(updated.map_err(|e| Failure::lang(e.to_string()))?)
        }
        None => program,
    };

    let result = match solver.solve_query(&program, &parsed) {
        Ok(result) => result,
        Err(failure) => return Err(report_solve_failure(o, failure, FailedAt::Query)),
    };

    if let Some(query) = &o.explain {
        return explain_fact(result.solution(), query, "demanded model");
    }

    // Only the demanded answers.
    let solution = result.solution();
    let lines = result
        .queries()
        .iter()
        .filter_map(|q| solution.fact_lines(q.predicate(), Some(q)))
        .flatten()
        .collect();
    print_lines(lines);
    if o.stats {
        print_stats(result.stats());
    }
    emit_observability(o, result.stats(), result.solution())
}

/// Parses `query` as a ground atom and prints its derivation tree in
/// `solution`, or fails with a usage error naming which model (`initial`
/// vs `updated`) the fact is missing from.
fn explain_fact(solution: &Solution, query: &str, model: &str) -> Result<(), Failure> {
    let (pred, values) =
        flix_lang::parse_ground_atom(query).map_err(|e| Failure::lang(e.to_string()))?;
    match solution.explain(&pred, &values) {
        Some(tree) => {
            print!("{tree}");
            Ok(())
        }
        None => Err(Failure::usage(format!("{query} is not in the {model}"))),
    }
}

/// What a failed solve was computing, which decides how its partial
/// model is named and framed.
enum FailedAt<'a> {
    /// The scratch solve of the program.
    Base,
    /// The replay of the write-ahead log onto the base model.
    Replay,
    /// The `--update` resume; the initial model is printed beside the
    /// partial updated one.
    Update { initial: &'a Solution },
    /// A `--query` demand-restricted solve.
    Query,
}

/// Reports a failed solve the one way flixr does: the error on stderr,
/// then the partial model, statistics and observability outputs as a
/// successful run would have printed them. A delta or query the program
/// rejects before any solving is a static mismatch, like a type error;
/// a budget or round limit exits [`EXIT_BUDGET`]; anything else
/// [`EXIT_SOLVE`].
fn report_solve_failure(
    o: &Options,
    failure: Box<flix_core::SolveFailure>,
    at: FailedAt<'_>,
) -> Failure {
    let silent = |code| Failure {
        code,
        message: None,
    };
    match at {
        FailedAt::Replay => eprintln!(
            "flixr: {} (while replaying the write-ahead log)",
            failure.error
        ),
        _ => eprintln!("flixr: {}", failure.error),
    }
    let (model, how) = match (&at, &failure.error) {
        (FailedAt::Update { .. }, SolveError::Delta(_))
        | (FailedAt::Query, SolveError::Demand(_)) => return silent(EXIT_LANG),
        (FailedAt::Base, _) => ("", "derived"),
        (FailedAt::Replay, _) => (" replayed", "retained or derived"),
        (FailedAt::Update { .. }, _) => (" updated", "retained or derived"),
        (FailedAt::Query, _) => (" demanded", "derived"),
    };
    let retained = failure.partial.total_facts();
    eprintln!(
        "flixr: printing the partial{model} model \
         ({retained} fact{} {how} before the failure)",
        if retained == 1 { "" } else { "s" }
    );
    if let FailedAt::Update { initial } = at {
        println!("== initial model ==");
        print_model(initial, o.print.as_deref());
        println!("== updated model ==");
    }
    print_model(&failure.partial, o.print.as_deref());
    if o.stats {
        print_stats(&failure.stats);
    }
    if let Err(failed) = emit_observability(o, &failure.stats, &failure.partial) {
        return failed;
    }
    silent(solve_exit(&failure.error))
}

/// Writes the `--profile` table (stderr), the `--metrics-json` report,
/// the `--trace`/`--trace-folded` exports, and the `--ascent-report`
/// diagnostic, when requested. Shared by the success and guarded-failure
/// paths so partial runs are observable too — a budget-killed solve
/// still writes the trace of the work it did.
fn emit_observability(
    o: &Options,
    stats: &flix_core::SolveStats,
    solution: &Solution,
) -> Result<(), Failure> {
    if o.profile {
        eprint!("{}", flix_core::render_profile_table(stats));
    }
    if let Some(path) = &o.metrics_json {
        let report = render_metrics_json(&[MetricsReport {
            name: &o.files[0],
            strategy: o.strategy.name(),
            threads: o.threads,
            stats,
        }]);
        std::fs::write(path, report)
            .map_err(|e| Failure::usage(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &o.trace {
        match solution.trace() {
            Some(trace) => std::fs::write(path, trace.to_chrome_json())
                .map_err(|e| Failure::usage(format!("cannot write {path}: {e}")))?,
            None => eprintln!("flixr: no trace was recorded; not writing {path}"),
        }
    }
    if let Some(path) = &o.trace_folded {
        match solution.trace() {
            Some(trace) => std::fs::write(path, trace.to_folded())
                .map_err(|e| Failure::usage(format!("cannot write {path}: {e}")))?,
            None => eprintln!("flixr: no trace was recorded; not writing {path}"),
        }
    }
    if o.ascent_report {
        match solution.ascent_report(10) {
            Some(report) => eprint!("{}", render_ascent_report(&report)),
            None => eprintln!("flixr: no ascent data was recorded (no lattice predicates?)"),
        }
    }
    Ok(())
}

/// The `--progress`/`--ascent-threshold` observer: a rate-limited
/// one-line-per-round heartbeat and an immediate printer for ascent
/// warnings, both on stderr.
struct CliObserver {
    progress: bool,
    last: Mutex<Option<Instant>>,
}

/// Minimum interval between `--progress` lines; rounds arriving faster
/// than this are silently skipped (the final summary line always
/// prints).
const PROGRESS_INTERVAL: Duration = Duration::from_millis(100);

impl CliObserver {
    fn new(progress: bool) -> CliObserver {
        CliObserver {
            progress,
            last: Mutex::new(None),
        }
    }
}

impl Observer for CliObserver {
    fn round_started(&self, stratum: usize, round: u64, facts: u64) {
        if !self.progress {
            return;
        }
        let mut last = self.last.lock().expect("progress clock");
        let now = Instant::now();
        if last.is_none_or(|at| now.duration_since(at) >= PROGRESS_INTERVAL) {
            *last = Some(now);
            eprintln!("flixr: progress: stratum {stratum} round {round} facts {facts}");
        }
    }

    fn solve_finished(&self, stats: &flix_core::SolveStats) {
        if self.progress {
            eprintln!(
                "flixr: progress: done — {} rounds, {} facts",
                stats.rounds, stats.total_facts
            );
        }
    }

    fn ascent_warning(&self, warning: &AscentWarning) {
        let key = warning
            .key
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "flixr: warning: lattice cell {}({key}) reached ascending-chain height {} \
             (threshold {}); if the lattice has infinite ascending chains the solve \
             may not terminate",
            warning.predicate, warning.height, warning.threshold
        );
    }
}

/// Prints the facts of `solution`, optionally only the named
/// predicates. Used for both the minimal model on success and the
/// partial model on a guarded failure.
fn print_model(solution: &Solution, print: Option<&[String]>) {
    let lines = match print {
        None => solution.model_lines(),
        // An unknown name was refused before solving.
        Some(names) => names
            .iter()
            .filter_map(|name| solution.fact_lines(name, None))
            .flatten()
            .collect(),
    };
    print_lines(lines);
}

/// The one printer of fact lines, whichever side computed them: a model,
/// `--print` predicates, `--query` answers and the replies `--connect`
/// receives all come out as the sorted set of their lines, each once.
fn print_lines(mut lines: Vec<String>) {
    lines.sort();
    lines.dedup();
    for line in lines {
        println!("{line}");
    }
}

fn print_stats(s: &flix_core::SolveStats) {
    eprintln!(
        "rounds: {}  rule evaluations: {}  facts derived: {}  facts inserted: {}  \
         index probes: {}  scans: {}  total facts: {}",
        s.rounds,
        s.rule_evaluations,
        s.facts_derived,
        s.facts_inserted,
        s.index_probes,
        s.scan_fallbacks,
        s.total_facts
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full daemon-error → exit-code mapping, pinned code by code so
    /// adding an `ErrorCode` variant forces a decision here (and in the
    /// README table).
    #[test]
    fn connect_failure_exit_codes_cover_every_error_code() {
        let cases = [
            (ErrorCode::Parse, EXIT_LANG),
            (ErrorCode::Query, EXIT_LANG),
            (ErrorCode::Delta, EXIT_LANG),
            (ErrorCode::Budget, EXIT_BUDGET),
            (ErrorCode::Solve, EXIT_SOLVE),
            (ErrorCode::Proto, EXIT_USAGE),
            (ErrorCode::Absent, EXIT_USAGE),
            (ErrorCode::Persist, EXIT_USAGE),
            (ErrorCode::Unsupported, EXIT_USAGE),
            (ErrorCode::Busy, EXIT_USAGE),
            (ErrorCode::ShuttingDown, EXIT_USAGE),
        ];
        for (code, exit) in cases {
            let failure = connect_failure(code, "test".into());
            assert_eq!(failure.code, exit, "exit code for {code}");
            assert!(
                failure
                    .message
                    .as_deref()
                    .unwrap_or("")
                    .contains(code.as_str()),
                "message names the wire code for {code}"
            );
        }
    }

    #[test]
    fn watch_quantiles_estimate_from_log_buckets() {
        // What `--watch` reads out of a `flixd-stats/1` document, cut
        // down to the fields `watch_extract` insists on.
        let latency_of = |count: u64, max: u64, buckets: &[u64]| {
            let doc = flixd::json::parse(&format!(
                r#"{{"epoch": 1, "writer": {{}}, "requests": {{"query": {{"latency_ns":
                {{"count": {count}, "sum": 0, "max": {max}, "buckets": {buckets:?}}}}}}}}}"#
            ))
            .expect("valid JSON");
            watch_extract(&doc).expect("extracts").query_latency
        };
        // 90 samples in bucket 6 (≤128 ns), 10 in bucket 19 (≤2^20 ns).
        let mut buckets = vec![0u64; 40];
        buckets[6] = 90;
        buckets[19] = 10;
        let latency = latency_of(100, 900_000, &buckets);
        assert_eq!(latency.quantile(0.5), Some(128));
        assert_eq!(latency.quantile(0.99), Some(1 << 20));
        assert_eq!(latency_of(0, 0, &[0; 40]).quantile(0.5), None);
    }

    #[test]
    fn watch_latency_formatting_picks_sane_units() {
        assert_eq!(watch_format_ns(512), "512ns");
        assert_eq!(watch_format_ns(2_048), "2µs");
        assert_eq!(watch_format_ns(3_000_000), "3ms");
        assert_eq!(watch_format_ns(2_500_000_000), "2.5s");
    }
}
