//! Seeded concurrent stress: N reader clients hammer `facts`/`query`
//! while one writer client applies a random (but reproducible) sequence
//! of mixed insert/retract batches. Snapshot isolation means every
//! single reply must be cell-for-cell equal to a from-scratch solve of
//! the program state at the epoch the reply names — never a blend of
//! two epochs, never a partially applied batch.

mod common;

use common::{build_program, parse_update, scratch_dir, test_hooks, Rng};
use flix_core::{Program, Solver};
use flixd::json::{parse, Json};
use flixd::{Client, EventLogConfig, ReplyBody, Request, Server, ServerConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const INITIAL_EDGES: &[(i64, i64)] = &[(0, 1), (1, 2), (2, 3)];
const NODES: u64 = 6;
const UPDATES: usize = 12;
const READERS: usize = 3;

/// Generates `UPDATES` update batches over a 6-node edge set, each
/// inserting absent edges and retracting present ones, never touching
/// the same edge twice within a batch (so every op is individually
/// valid against the state the batch starts from).
fn generate_updates(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    let mut edges: BTreeSet<(i64, i64)> = INITIAL_EDGES.iter().copied().collect();
    let mut updates = Vec::with_capacity(UPDATES);
    for _ in 0..UPDATES {
        let mut touched: BTreeSet<(i64, i64)> = BTreeSet::new();
        let mut text = String::new();
        let ops = 1 + rng.below(3);
        for _ in 0..ops {
            let untouched_present: Vec<(i64, i64)> = edges
                .iter()
                .copied()
                .filter(|e| !touched.contains(e))
                .collect();
            let retract = !untouched_present.is_empty() && rng.below(2) == 0;
            if retract {
                let (x, y) = untouched_present[rng.below(untouched_present.len() as u64) as usize];
                edges.remove(&(x, y));
                touched.insert((x, y));
                text.push_str(&format!("-Edge {x} {y}\n"));
            } else {
                loop {
                    let x = rng.below(NODES) as i64;
                    let y = rng.below(NODES) as i64;
                    if x != y && !edges.contains(&(x, y)) && !touched.contains(&(x, y)) {
                        edges.insert((x, y));
                        touched.insert((x, y));
                        text.push_str(&format!("+Edge {x} {y}\n"));
                        break;
                    }
                }
            }
        }
        updates.push(text);
    }
    updates
}

/// Scratch-solves the program state at each epoch: epoch 1 is the
/// initial program, epoch `1 + i` has the first `i` update batches
/// folded in. `out[e - 1]` is the only model a reply naming epoch `e`
/// may carry.
fn expected_per_epoch(base: &Program, updates: &[String], solver: &Solver) -> Vec<Vec<String>> {
    let mut out = vec![solver.solve(base).expect("base solves").model_lines()];
    let mut current: Option<Program> = None;
    for update in updates {
        let delta = parse_update(update).expect("generated updates parse");
        let next = current
            .as_ref()
            .unwrap_or(base)
            .with_delta(&delta)
            .expect("generated updates are valid");
        out.push(
            solver
                .solve(&next)
                .expect("every epoch solves")
                .model_lines(),
        );
        current = Some(next);
    }
    out
}

fn run_stress(tag: &str, seed: u64, configure: impl FnOnce(&mut ServerConfig)) {
    let program = Arc::new(build_program(INITIAL_EDGES));
    let updates = generate_updates(seed);
    let solver = Solver::new();
    let expected: Arc<Vec<Vec<String>>> = Arc::new(expected_per_epoch(&program, &updates, &solver));
    let expected_paths: Arc<Vec<Vec<String>>> = Arc::new(
        expected
            .iter()
            .map(|lines| {
                lines
                    .iter()
                    .filter(|l| l.starts_with("Path(0,"))
                    .cloned()
                    .collect()
            })
            .collect(),
    );
    let final_epoch = (updates.len() + 1) as u64;

    let dir = scratch_dir(tag);
    let event_log = dir.join("events.jsonl");
    let mut config = ServerConfig::new(dir.join("flixd.sock"));
    config.event_log = Some(EventLogConfig::new(&event_log));
    configure(&mut config);
    let server = Server::start(Arc::clone(&program), config, test_hooks()).expect("server starts");

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let socket = server.socket().to_path_buf();
            let expected = Arc::clone(&expected);
            let expected_paths = Arc::clone(&expected_paths);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("reader connects");
                // Reader 0 reads full dumps; the others alternate with
                // pattern queries so both read paths race the writer.
                let mut reads = 0u64;
                let mut saw_final = false;
                loop {
                    let full = i == 0 || reads.is_multiple_of(2);
                    let request = if full {
                        Request::Facts { predicate: None }
                    } else {
                        Request::Query {
                            atom: "Path 0 _".into(),
                        }
                    };
                    let reply = client.request(&request).expect("reader request");
                    let epoch = reply.epoch;
                    assert!(
                        epoch >= 1 && epoch <= final_epoch,
                        "reply named impossible epoch {epoch}"
                    );
                    let want = &expected[(epoch - 1) as usize];
                    match reply.body {
                        ReplyBody::Facts(lines) => assert_eq!(
                            &lines, want,
                            "epoch {epoch} full dump diverged from its scratch solve"
                        ),
                        ReplyBody::Answers(lines) => assert_eq!(
                            &lines,
                            &expected_paths[(epoch - 1) as usize],
                            "epoch {epoch} query answers diverged from its scratch solve"
                        ),
                        other => panic!("unexpected reader reply {other:?}"),
                    }
                    saw_final |= epoch == final_epoch;
                    reads += 1;
                    if done.load(Ordering::Acquire) && saw_final {
                        return reads;
                    }
                }
            })
        })
        .collect();

    // The writer: one batch at a time, so each reply must name exactly
    // the next epoch and count exactly its own entries.
    let mut writer = Client::connect(server.socket()).expect("writer connects");
    for (i, update) in updates.iter().enumerate() {
        let reply = writer
            .request(&Request::Update {
                text: update.clone(),
                timeout_secs: None,
            })
            .expect("update");
        let entries = parse_update(update).expect("parses").len() as u64;
        assert_eq!(
            reply.epoch,
            (i + 2) as u64,
            "updates publish epochs in order"
        );
        assert_eq!(
            reply.body,
            ReplyBody::Updated {
                applied: entries,
                batched: 1
            }
        );
    }
    done.store(true, Ordering::Release);

    let mut total_reads = 0;
    for reader in readers {
        total_reads += reader.join().expect("reader panicked");
    }
    assert!(
        total_reads >= READERS as u64,
        "readers made no progress ({total_reads} reads)"
    );

    // The telemetry registry saw the whole workload: every reader
    // request is in the per-op counters with a latency sample, and the
    // writer counted exactly one batch per update.
    let reply = writer
        .request(&Request::Stats { prometheus: false })
        .expect("stats");
    let ReplyBody::Stats(doc) = reply.body else {
        panic!("stats body, got {:?}", reply.body);
    };
    let stats = parse(&doc).expect("stats document parses");
    let op_count = |op: &str, field: &str| {
        stats
            .get("requests")
            .and_then(|r| r.get(op))
            .and_then(|o| o.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats has requests.{op}.{field}"))
    };
    assert_eq!(
        op_count("query", "count") + op_count("facts", "count"),
        total_reads
    );
    assert_eq!(op_count("update", "count"), updates.len() as u64);
    let latency_samples: u64 = ["query", "facts"]
        .iter()
        .map(|op| {
            stats
                .get("requests")
                .and_then(|r| r.get(op))
                .and_then(|o| o.get("latency_ns"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .expect("latency histogram")
        })
        .sum();
    assert_eq!(latency_samples, total_reads);
    let writer_counter = |field: &str| {
        stats
            .get("writer")
            .and_then(|w| w.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats has writer.{field}"))
    };
    assert_eq!(writer_counter("batches_applied"), updates.len() as u64);
    assert_eq!(writer_counter("updates_applied"), updates.len() as u64);

    server.shutdown();
    server.join();

    // Replay check: the JSONL event log must contain one
    // `batch_applied` per publish, naming epochs 2..=final in exactly
    // the order the writer observed them — FIFO ordering plus
    // logger-after-writer shutdown guarantees nothing is lost or
    // reordered.
    let text = std::fs::read_to_string(&event_log).expect("event log exists");
    let events: Vec<Json> = text
        .lines()
        .map(|line| parse(line).expect("every log line is a JSON object"))
        .collect();
    let logged_epochs: Vec<u64> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("batch_applied"))
        .map(|e| e.get("epoch").and_then(Json::as_u64).expect("epoch field"))
        .collect();
    let expected_epochs: Vec<u64> = (2..=final_epoch).collect();
    assert_eq!(
        logged_epochs, expected_epochs,
        "the event log replays the exact publish sequence"
    );
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert_eq!(names.first(), Some(&"server_start"));
    assert_eq!(names.last(), Some(&"server_stop"));
}

#[test]
fn concurrent_reads_always_match_their_epoch_semi_naive() {
    run_stress("stress-sn", 0x5eed_cafe_f00d_0001, |_| {});
}

#[test]
fn concurrent_reads_always_match_their_epoch_parallel() {
    run_stress("stress-par", 0x5eed_cafe_f00d_0002, |config| {
        config.solver.threads = 4;
    });
}
