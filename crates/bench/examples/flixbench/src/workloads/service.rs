//! `flixd_mixed`: an in-process `flixd::Server` (provenance on, snapshot
//! and write-ahead log on disk, telemetry on) resident on the all-pairs
//! shortest-paths model. For the whole window one connection issues
//! `Dist s _ _` queries at a fixed rate while a second alternates updates
//! that insert and retract one shortcut edge, so reads run beside durable
//! writes: socket, batching writer, WAL fsync, resume, publish. The timed
//! operation is the writer's: one insert plus one retract round trip, each
//! acknowledged and durable; the reader's round trips are per-layer
//! metrics. The model has two states, told apart by the parity of the epoch
//! in every reply, so every reply is checked against Dijkstra.

use crate::cx::{ratio, solver, Cx, Reference, Tally, Timed, OP_SPAN};
use crate::oracle::{all_pairs, dist_agrees, Rows};
use crate::seeded::{permutation, relabel, MODEL_SEED};
use crate::stats::{median, min, percentile_if_resolved, seconds, timed};
use crate::trace::Tracer;
use crate::workloads::incr::{mincost_lub_ns, EXTRA_EDGES, NODES};
use flix_analyses::shortest_paths;
use flix_analyses::workloads::graphs::{self, WeightedGraph};
use flix_core::{load_snapshot, save_snapshot, Delta, DeltaLog, Program, SolverConfig, Value};
use flix_lattice::rng::SmallRng;
use flixd::json::{self, Json};
use flixd::{Client, Hooks, Reply, ReplyBody, Request, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reader's rate: 250 queries a second, about a sixth of what one
/// connection sustains back to back, so the writer is not starved of a core.
const QUERY_INTERVAL: Duration = Duration::from_millis(4);
const WARMUP_QUERIES: usize = 200;
const WARMUP_PAIRS: usize = 2;

/// The server with its two client connections; shut down when dropped.
struct Resident {
    graph: WeightedGraph,
    shortcut: (u32, u32),
    program: Arc<Program>,
    server: Option<Server>,
    reader: Client,
    writer: Client,
    /// The epoch after warm-up, at which the shortcut edge is absent.
    base_epoch: u64,
}

impl Resident {
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where the server listens and persists, inside the run's scratch directory.
struct Files {
    socket: PathBuf,
    snapshot: PathBuf,
    wal: PathBuf,
}

fn server_config(files: &Files) -> ServerConfig {
    let mut config = ServerConfig::new(&files.socket);
    config.snapshot = Some(files.snapshot.clone());
    config.wal = Some(files.wal.clone());
    config.solver = SolverConfig {
        record_provenance: true,
        ..SolverConfig::default()
    };
    config
}

/// A minimal space-separated syntax, so the surface language is not what
/// is timed here: queries `Dist 7 _ _`, updates `+Edge x y c` / `-Edge x y c`.
fn hooks() -> Hooks {
    fn int(text: &str) -> Result<Value, String> {
        text.parse::<i64>()
            .map(Value::from)
            .map_err(|e| format!("{text:?}: {e}"))
    }
    fn atom(text: &str) -> Result<(String, Vec<Value>), String> {
        let mut parts = text.split_whitespace();
        let predicate = parts.next().ok_or("empty atom")?.to_string();
        Ok((predicate, parts.map(int).collect::<Result<_, _>>()?))
    }
    Hooks {
        parse_query: Box::new(|text| {
            let mut parts = text.split_whitespace();
            let predicate = parts.next().ok_or("empty query")?.to_string();
            let pattern = parts
                .map(|p| if p == "_" { Ok(None) } else { int(p).map(Some) })
                .collect::<Result<_, _>>()?;
            Ok((predicate, pattern))
        }),
        parse_atom: Box::new(atom),
        compile_update: Box::new(|text| {
            let mut delta = Delta::new();
            for line in text.lines().filter(|line| !line.is_empty()) {
                let (op, rest) = line.split_at(1);
                let (predicate, tuple) = atom(rest)?;
                delta = match op {
                    "+" => delta.insert(predicate, tuple),
                    "-" => delta.retract(predicate, tuple),
                    other => return Err(format!("bad update op {other:?}")),
                };
            }
            Ok(delta)
        }),
    }
}

/// The oracle for every reply: the sorted `query` answers for each source
/// node in each of the two model states, rendered from Dijkstra's rows.
struct Expected {
    /// `answers[shortcut present][source]`.
    answers: [Vec<Vec<String>>; 2],
    insert: String,
    retract: String,
}

impl Expected {
    /// Also returns Dijkstra's rows with the shortcut in, for the recovered model.
    fn new(graph: &WeightedGraph, (a, b): (u32, u32)) -> (Expected, Rows) {
        let mut with_shortcut = graph.clone();
        with_shortcut.edges.push((a, b, 1));
        let with_shortcut = all_pairs(&with_shortcut);
        let render = |rows: &Rows| -> Vec<Vec<String>> {
            rows.iter()
                .enumerate()
                .map(|(s, row)| {
                    let mut answers: Vec<String> = row
                        .iter()
                        .enumerate()
                        .filter_map(|(t, d)| d.map(|d| format!("Dist({s}, {t}, Fin({d}))")))
                        .collect();
                    answers.sort();
                    answers
                })
                .collect()
        };
        let expected = Expected {
            answers: [render(&all_pairs(graph)), render(&with_shortcut)],
            insert: format!("+Edge {a} {b} 1"),
            retract: format!("-Edge {a} {b} 1"),
        };
        (expected, with_shortcut)
    }
}

/// The graph under seeded node ids, and the weight-1 shortcut edge the
/// writer inserts and retracts. What an update costs depends on the edge,
/// so the shortcut is fixed with the model.
fn model(seed: u64) -> (WeightedGraph, (u32, u32)) {
    let model = graphs::generate(NODES, EXTRA_EDGES, MODEL_SEED);
    let mut fixed = SmallRng::seed_from_u64(MODEL_SEED);
    let (a, b) = loop {
        let (a, b) = (fixed.gen_range(0..NODES), fixed.gen_range(0..NODES));
        if a != b && !model.edges.contains(&(a, b, 1)) {
            break (a, b);
        }
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = permutation(NODES, &mut rng);
    (relabel(&model, &ids), (ids[a as usize], ids[b as usize]))
}

fn query(client: &mut Client, source: u32) -> Result<Reply, String> {
    client
        .request(&Request::Query {
            atom: format!("Dist {source} _ _"),
        })
        .map_err(|e| e.to_string())
}

/// One acknowledged update; the reply must publish exactly the next epoch.
fn update(client: &mut Client, text: &str, epoch: &mut u64) -> Result<(), String> {
    let reply = client
        .request(&Request::Update {
            text: text.to_string(),
            timeout_secs: None,
        })
        .map_err(|e| e.to_string())?;
    match reply.body {
        ReplyBody::Updated { applied: 1, .. } if reply.epoch == *epoch + 1 => {
            *epoch += 1;
            Ok(())
        }
        other => Err(format!(
            "update {text:?} at epoch {epoch}: epoch {} {other:?}",
            reply.epoch
        )),
    }
}

/// What one window of traffic produced, per client thread.
struct Window {
    /// Query latency from the moment the query was due.
    query_ms: Vec<f64>,
    /// How late after that moment the reader sent it.
    late_ms: Vec<f64>,
    /// The writer's operations: an insert round trip, then a retract.
    pairs: Vec<Timed>,
    seconds: f64,
}

struct Traced {
    window: Window,
    before: Json,
    after: Json,
}

/// Runs the mixed traffic for `seconds`, one thread and one connection
/// each: the reader is an open loop at a fixed rate (independent users),
/// the writer a closed loop (one updater waiting for each acknowledgement).
fn traffic(cx: &mut Cx, resident: &mut Resident, expected: &Expected, seconds: f64) -> Window {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (base_epoch, seed, traced) = (resident.base_epoch, cx.seed, cx.tr.enabled);
    let first = cx.ops.attempted;
    let (reader, writer) = (&mut resident.reader, &mut resident.writer);
    let epoch_of_tracer = cx.tr.epoch();

    let (read, wrote) = std::thread::scope(|scope| {
        let read = scope.spawn(move || {
            let mut tr = Tracer::new(epoch_of_tracer, 1, traced);
            let mut rng = SmallRng::seed_from_u64(seed ^ first);
            let mut tally = Tally::default();
            let (mut query_ms, mut late_ms) = (Vec::new(), Vec::new());
            let mut due = Instant::now();
            while due < deadline {
                let source = rng.gen_range(0..NODES);
                // Open loop: a query is due every `QUERY_INTERVAL` whatever
                // became of the last one, and is timed from when it was due.
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let span = tr.begin("flixd.client.query", first + tally.attempted);
                let reply = query(reader, source);
                query_ms.push(due.elapsed().as_secs_f64() * 1e3);
                tr.end(span);
                due += QUERY_INTERVAL;
                tally.count(match reply {
                    Ok(Reply {
                        epoch,
                        body: ReplyBody::Answers(answers),
                    }) => {
                        let present = (epoch - base_epoch) % 2 == 1;
                        if answers == expected.answers[present as usize][source as usize] {
                            Ok(())
                        } else {
                            Err(format!(
                                "Dist {source} _ _ at epoch {epoch} disagrees with Dijkstra"
                            ))
                        }
                    }
                    Ok(other) => Err(format!("Dist {source} _ _: {other:?}")),
                    Err(e) => Err(format!("Dist {source} _ _: {e}")),
                });
            }
            (query_ms, late_ms, tally, tr)
        });
        let wrote = scope.spawn(move || {
            let mut tr = Tracer::new(epoch_of_tracer, 2, traced);
            let mut tally = Tally::default();
            let mut pairs = Vec::new();
            let mut reference = Reference::start();
            let mut epoch = base_epoch;
            // Stops when another pair as long as the last would overrun.
            let mut last_pair = Duration::ZERO;
            while Instant::now() + last_pair < deadline {
                let began = Instant::now();
                let op = tr.begin(OP_SPAN, first + tally.attempted);
                let mut parts = Vec::new();
                for text in [&expected.insert, &expected.retract] {
                    let span = tr.begin("flixd.client.update", first + tally.attempted);
                    let (outcome, update_s) = timed(|| update(writer, text, &mut epoch));
                    parts.push(update_s * 1e3);
                    tr.end(span);
                    tally.count(outcome);
                }
                tr.end(op);
                pairs.push(reference.around(parts));
                last_pair = began.elapsed();
            }
            (pairs, tally, tr, epoch)
        });
        (
            read.join().expect("the reader thread ran to its deadline"),
            wrote.join().expect("the writer thread ran to its deadline"),
        )
    });
    let (query_ms, late_ms, read_tally, read_tr) = read;
    let (pairs, write_tally, write_tr, epoch) = wrote;
    resident.base_epoch = epoch;
    cx.ops.merge(read_tally);
    cx.ops.merge(write_tally);
    cx.tr.absorb(read_tr);
    cx.tr.absorb(write_tr);
    Window {
        query_ms,
        late_ms,
        pairs,
        seconds: started.elapsed().as_secs_f64(),
    }
}

pub fn run(cx: &mut Cx) {
    let files = Files {
        socket: cx.scratch.path("flixd.sock"),
        snapshot: cx.scratch.path("model.snap"),
        wal: cx.scratch.path("model.wal"),
    };
    let seed = cx.seed;
    // The oracle, computed once: one seed, one model.
    let mut oracle = None;
    // Each traced segment's traffic between two `stats` documents.
    let mut traced = Vec::new();
    let mut resident = cx.run(
        |cx| {
            let (graph, shortcut) = model(seed);
            let program = Arc::new(shortest_paths::build_all_pairs(&graph));
            // A first boot: nothing on disk, so the model is solved from scratch.
            let _ = std::fs::remove_file(&files.snapshot);
            let _ = std::fs::remove_file(&files.wal);
            let server = cx
                .tr
                .scope("flixd.server.start", 0, || {
                    Server::start(program.clone(), server_config(&files), hooks())
                })
                .expect("the server starts");
            let mut reader = Client::connect(server.socket()).expect("the reader connects");
            let mut writer = Client::connect(server.socket()).expect("the writer connects");
            // Warm-up, unchecked: the first requests pay lazy set-up on both sides.
            let (a, b) = shortcut;
            let mut base_epoch = writer.hello().epoch;
            for _ in 0..WARMUP_QUERIES {
                query(&mut reader, 0).expect("a warm-up query is answered");
            }
            for _ in 0..WARMUP_PAIRS {
                for op in ['+', '-'] {
                    update(&mut writer, &format!("{op}Edge {a} {b} 1"), &mut base_epoch)
                        .expect("a warm-up update is acknowledged");
                }
            }
            Resident {
                graph,
                shortcut,
                program,
                server: Some(server),
                reader,
                writer,
                base_epoch,
            }
        },
        |cx, resident, seconds| {
            let (expected, _) =
                oracle.get_or_insert_with(|| Expected::new(&resident.graph, resident.shortcut));
            let before = cx.tr.enabled.then(|| stats(&mut resident.writer));
            let window = traffic(cx, resident, expected, seconds);
            let pairs = window.pairs.clone();
            if let Some(before) = before {
                let after = stats(&mut resident.writer);
                traced.push(Traced {
                    window,
                    before,
                    after,
                });
            }
            pairs
        },
    );
    let (expected, with_shortcut) = oracle.expect("every segment ran its window");

    if cx.traced {
        window_layers(cx, &traced);
    }
    aftermath(cx, &mut resident, &files, &expected, &with_shortcut);
    if cx.traced {
        persist_layers(cx, &resident.program, &files);
    }
}

/// The server's `flixd-stats/1` document.
fn stats(client: &mut Client) -> Json {
    match client.request(&Request::Stats { prometheus: false }) {
        Ok(Reply {
            body: ReplyBody::Stats(document),
            ..
        }) => json::parse(&document).expect("the stats document is JSON"),
        other => panic!("stats request failed: {other:?}"),
    }
}

fn stat(document: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(document, |at, key| at.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?} in the stats document"))
}

/// The client side of the traced segments, and the server's own account
/// of them: its `stats` document after each minus the one before.
fn window_layers(cx: &mut Cx, traced: &[Traced]) {
    let all = |samples: fn(&Window) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| samples(&t.window))
            .copied()
            .collect()
    };
    let part = |index: usize| -> Vec<f64> {
        let pairs = traced.iter().flat_map(|t| &t.window.pairs);
        pairs.map(|pair| pair.parts[index]).collect()
    };
    let (query_ms, insert_ms, retract_ms) = (all(|w| &w.query_ms), part(0), part(1));
    cx.layer(
        "flixd.client.query_late_p99_us",
        1e3 * percentile_if_resolved(&all(|w| &w.late_ms), 99.0),
    );
    let us = |ms: f64| ms * 1e3;
    cx.layer("flixd.client.query_p50_us", us(median(&query_ms)));
    cx.layer(
        "flixd.client.query_p99_us",
        us(percentile_if_resolved(&query_ms, 99.0)),
    );
    cx.layer("flixd.client.insert_p50_ms", median(&insert_ms));
    cx.layer(
        "flixd.client.insert_p90_ms",
        percentile_if_resolved(&insert_ms, 90.0),
    );
    cx.layer("flixd.client.retract_p50_ms", median(&retract_ms));
    cx.layer(
        "flixd.client.retract_p90_ms",
        percentile_if_resolved(&retract_ms, 90.0),
    );

    let delta = |path: &[&str]| -> f64 {
        traced
            .iter()
            .map(|t| stat(&t.after, path) - stat(&t.before, path))
            .sum()
    };
    // Mean of one of the document's histograms over the segments.
    let mean = |path: &[&str]| {
        let leaf = |name| [path, &[name]].concat();
        ratio(delta(&leaf("sum")), delta(&leaf("count")))
    };
    let seconds: f64 = traced.iter().map(|t| t.window.seconds).sum();
    let server_query_us = mean(&["requests", "query", "latency_ns"]) / 1e3;
    let client_query_us = us(query_ms.iter().sum::<f64>() / query_ms.len() as f64);
    cx.layer("flixd.server.query_mean_us", server_query_us);
    cx.layer(
        "flixd.server.update_mean_ms",
        mean(&["requests", "update", "latency_ns"]) / 1e6,
    );
    cx.layer(
        "flixd.server.queries_per_s",
        delta(&["requests", "query", "count"]) / seconds,
    );
    cx.layer("flixd.wire_overhead_us", client_query_us - server_query_us);
    cx.layer(
        "flixd.writer.resume_ms",
        mean(&["writer", "resume_ns"]) / 1e6,
    );
    cx.layer(
        "flixd.writer.wal_append_ms",
        mean(&["writer", "wal_append_ns"]) / 1e6,
    );
    cx.layer(
        "flixd.writer.publish_gap_ms",
        mean(&["writer", "publish_gap_ns"]) / 1e6,
    );
    cx.layer(
        "flixd.writer.batches_applied",
        delta(&["writer", "batches_applied"]),
    );
    cx.layer(
        "flixd.writer.riders_per_batch",
        mean(&["writer", "riders_per_batch"]),
    );
    let start_ms = min(&cx.tr.durations_s("flixd.server.start")) * 1e3;
    cx.layer("flixd.server.start_ms", start_ms);
}

/// After the window: compaction, five more updates that leave the
/// shortcut in, shutdown, and a restart from the same snapshot and log.
/// Every acknowledged update must be in the recovered model.
fn aftermath(
    cx: &mut Cx,
    resident: &mut Resident,
    files: &Files,
    expected: &Expected,
    with_shortcut: &Rows,
) {
    let stats_ms: Vec<f64> = (0..20)
        .map(|_| 1e3 * seconds(|| drop(stats(&mut resident.writer))))
        .collect();
    let (compacted, compact_s) = timed(|| resident.writer.request(&Request::Compact));
    cx.tally(match compacted {
        Ok(Reply {
            body: ReplyBody::Compacted { .. },
            ..
        }) => Ok(()),
        other => Err(format!("compact: {other:?}")),
    });
    let mut epoch = resident.base_epoch;
    for text in [
        &expected.insert,
        &expected.retract,
        &expected.insert,
        &expected.retract,
        &expected.insert,
    ] {
        let outcome = update(&mut resident.writer, text, &mut epoch);
        cx.tally(outcome);
    }
    resident.stop();

    let started = Instant::now();
    let restarted = Server::start(resident.program.clone(), server_config(files), hooks());
    let mut client = restarted
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|server| Client::connect(server.socket()).map_err(|e| e.to_string()));
    let first = client
        .as_mut()
        .map_err(|e| e.clone())
        .and_then(|c| query(c, 0));
    let recover_s = started.elapsed().as_secs_f64();
    cx.tally(first.map(|_| ()));
    if let (Ok(server), Ok(client)) = (&restarted, &mut client) {
        let report = server
            .recovery
            .as_ref()
            .expect("started with persistence paths");
        cx.tally(if report.clean() && report.wal_frames_replayed == 5 {
            Ok(())
        } else {
            Err(format!("recovery was not clean: {report:?}"))
        });
        for source in 0..NODES {
            cx.tally(match query(client, source) {
                Ok(Reply {
                    body: ReplyBody::Answers(answers),
                    ..
                }) if answers == expected.answers[1][source as usize] => Ok(()),
                other => Err(format!(
                    "recovered Dist {source} _ _ lost an acknowledged update: {other:?}"
                )),
            });
        }
    }
    drop(client);
    resident.server = restarted.ok();
    resident.stop();

    if cx.traced {
        cx.layer("flixd.server.stats_roundtrip_ms", min(&stats_ms));
        cx.layer("flixd.server.compact_ms", compact_s * 1e3);
        cx.layer("flixd.server.recover_s", recover_s);
        // core.persist: the same recovery without the server around it.
        let solver = solver(true, 1);
        let (recovered, recover_s) =
            timed(|| solver.recover(&resident.program, &files.snapshot, &files.wal));
        cx.layer("core.persist.recover_ms", recover_s * 1e3);
        cx.tally(match recovered {
            Ok((solution, _)) => dist_agrees(&solution, with_shortcut),
            Err(e) => Err(format!("recover failed: {e}")),
        });
    }
}

/// core.persist and the layers below the server, called directly on the
/// same program: snapshot save and load, a log append with its fsync.
fn persist_layers(cx: &mut Cx, program: &Program, files: &Files) {
    let solution = solver(true, 1)
        .solve(program)
        .expect("shortest paths solve");
    cx.solver_layers(solution.stats());
    cx.layer(
        "core.provenance.events",
        solution.provenance().map_or(0, <[_]>::len) as f64,
    );
    cx.layer("lattice.mincost_lub_ns", mincost_lub_ns(cx.seed));

    let snapshot = files.snapshot.with_extension("snap-probe");
    let save_ms: Vec<f64> = (0..5)
        .map(|_| {
            1e3 * seconds(|| save_snapshot(&snapshot, program, &solution).expect("snapshot saves"))
        })
        .collect();
    let load_ms: Vec<f64> = (0..5)
        .map(|_| 1e3 * seconds(|| drop(load_snapshot(&snapshot, program).expect("snapshot loads"))))
        .collect();
    let bytes = std::fs::metadata(&snapshot).expect("snapshot exists").len();
    cx.layer("core.persist.snapshot_save_ms", min(&save_ms));
    cx.layer("core.persist.snapshot_load_ms", min(&load_ms));
    cx.layer(
        "core.persist.snapshot_bytes_per_fact",
        bytes as f64 / solution.total_facts() as f64,
    );

    let log_path = files.wal.with_extension("wal-probe");
    let (mut log, _) = DeltaLog::open(&log_path, program).expect("a fresh log opens");
    let empty = std::fs::metadata(&log_path).expect("log exists").len();
    let appends = 20;
    let append_ms: Vec<f64> = (0..appends)
        .map(|i| {
            let edge = vec![
                Value::from(0),
                Value::from(1),
                Value::from(1_000 + i as i64),
            ];
            let delta = Delta::new().insert("Edge", edge);
            1e3 * seconds(|| log.append(&delta).expect("the log appends"))
        })
        .collect();
    let grown = std::fs::metadata(&log_path).expect("log exists").len() - empty;
    cx.layer("core.persist.wal_append_ms", min(&append_ms));
    cx.layer(
        "core.persist.wal_bytes_per_op",
        grown as f64 / appends as f64,
    );
}
