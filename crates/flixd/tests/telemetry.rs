//! Telemetry integration tests: the histogram's concurrency contract
//! under seeded multi-threaded stress, and the `stats` op end to end —
//! a mixed workload must surface as non-zero per-op counters and
//! latency histograms, the metrics cache must report its hits, and
//! `status`, `stats` and the Prometheus form must read one registry,
//! rendered byte for byte as before they shared one reading.

mod common;

use common::{build_program, scratch_dir, test_hooks, Rng};
use flixd::json::{parse, Json};
use flixd::telemetry::{
    render_prometheus, Histogram, RequestKind, RequestSample, StatsContext, Telemetry,
};
use flixd::{Client, ErrorCode, ReplyBody, Request, Server, ServerConfig, STATS_SCHEMA};
use std::sync::atomic::{AtomicBool, Ordering};
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

fn fetch_stats(client: &mut Client) -> Json {
    let reply = client
        .request(&Request::Stats { prometheus: false })
        .expect("stats request");
    let ReplyBody::Stats(doc) = reply.body else {
        panic!("stats body, got {:?}", reply.body);
    };
    parse(&doc).expect("stats document parses")
}

fn counter(doc: &Json, path: &[&str]) -> u64 {
    node(doc, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path:?} is a counter"))
}

/// Writers hammer a shared histogram with seeded samples while a
/// snapshot thread races them: every mid-flight snapshot must satisfy
/// `count <= sum(buckets)` (a sample is never counted before it is
/// bucketed), and once the writers join, counts, sums, and buckets must
/// all agree exactly.
#[test]
fn histogram_snapshots_stay_consistent_under_concurrent_recording() {
    const WRITERS: usize = 4;
    const SAMPLES_PER_WRITER: u64 = 20_000;

    let hist = Arc::new(Histogram::default());
    let done = Arc::new(AtomicBool::new(false));

    let snapshotter = {
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            let mut last_count = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = hist.snapshot();
                let bucketed: u64 = snap.buckets.iter().sum();
                assert!(
                    snap.count <= bucketed,
                    "snapshot saw {} counted but only {bucketed} bucketed",
                    snap.count
                );
                assert!(
                    snap.count >= last_count,
                    "count went backwards: {last_count} -> {}",
                    snap.count
                );
                last_count = snap.count;
                snapshots += 1;
            }
            snapshots
        })
    };

    let mut expected_sum = 0u64;
    let mut expected_max = 0u64;
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        // Pre-walk each writer's seeded schedule so the main thread
        // knows the exact totals without sharing state with the
        // writers.
        let seed = 0x7e1e_0000_0000_0001 + w as u64;
        let mut rng = Rng(seed);
        for _ in 0..SAMPLES_PER_WRITER {
            let v = rng.below(1 << 20);
            expected_sum += v;
            expected_max = expected_max.max(v);
        }
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng(seed);
            for _ in 0..SAMPLES_PER_WRITER {
                hist.record(rng.below(1 << 20));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("writer panicked");
    }
    done.store(true, Ordering::Release);
    let snapshots = snapshotter.join().expect("snapshotter panicked");
    assert!(snapshots > 0, "snapshotter never ran");

    let total = WRITERS as u64 * SAMPLES_PER_WRITER;
    let snap = hist.snapshot();
    assert_eq!(snap.count, total);
    assert_eq!(snap.sum, expected_sum);
    assert_eq!(snap.max, expected_max);
    assert_eq!(snap.buckets.iter().sum::<u64>(), total);
}

/// A seeded mixed workload (queries, dumps, status, errors, updates)
/// must show up in the `stats` document as non-zero request counts and
/// latency histograms — the ISSUE's acceptance round trip.
#[test]
fn stats_round_trip_reflects_a_mixed_workload() {
    let (server, _) = start_server("stats-mixed", |_| {});
    let mut client = Client::connect(server.socket()).expect("connects");

    let mut rng = Rng(0x57a7_57a7_0000_0001);
    let mut queries = 0u64;
    let mut dumps = 0u64;
    let mut errors = 0u64;
    for _ in 0..40 {
        match rng.below(3) {
            0 => {
                let reply = client
                    .request(&Request::Query {
                        atom: "Path 0 _".into(),
                    })
                    .expect("query");
                assert!(matches!(reply.body, ReplyBody::Answers(_)));
                queries += 1;
            }
            1 => {
                let reply = client
                    .request(&Request::Facts { predicate: None })
                    .expect("facts");
                assert!(matches!(reply.body, ReplyBody::Facts(_)));
                dumps += 1;
            }
            _ => {
                let reply = client
                    .request(&Request::Query {
                        atom: "Nope 1 2".into(),
                    })
                    .expect("bad query");
                assert!(matches!(reply.body, ReplyBody::Error { .. }));
                queries += 1;
                errors += 1;
            }
        }
    }
    let reply = client
        .request(&Request::Update {
            text: "+Edge 3 4\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    assert_eq!(reply.epoch, 2);

    let stats = fetch_stats(&mut client);
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some(STATS_SCHEMA)
    );
    assert_eq!(counter(&stats, &["epoch"]), 2);
    assert!(counter(&stats, &["facts"]) > 0);
    assert!(counter(&stats, &["connections", "opened"]) >= 1);
    assert!(counter(&stats, &["connections", "active"]) >= 1);

    assert_eq!(counter(&stats, &["requests", "query", "count"]), queries);
    assert_eq!(counter(&stats, &["requests", "facts", "count"]), dumps);
    assert_eq!(counter(&stats, &["requests", "update", "count"]), 1);
    assert_eq!(
        counter(&stats, &["requests", "query", "errors", "query"]),
        errors
    );
    assert!(counter(&stats, &["requests", "query", "bytes_in"]) > 0);
    assert!(counter(&stats, &["requests", "query", "bytes_out"]) > 0);

    // Latency histograms recorded one sample per request, and the
    // bucket counts account for every one of them.
    for (op, want) in [("query", queries), ("facts", dumps), ("update", 1)] {
        let hist = stats
            .get("requests")
            .and_then(|r| r.get(op))
            .and_then(|o| o.get("latency_ns"))
            .expect("latency histogram");
        assert_eq!(counter(hist, &["count"]), want, "latency count for {op}");
        let buckets: u64 = hist
            .get("buckets")
            .and_then(Json::as_array)
            .expect("buckets")
            .iter()
            .map(|b| b.as_u64().expect("bucket count"))
            .sum();
        assert_eq!(buckets, want, "bucketed samples for {op}");
    }

    // The writer applied exactly one batch carrying one update request.
    assert_eq!(counter(&stats, &["writer", "batches_applied"]), 1);
    assert_eq!(counter(&stats, &["writer", "updates_applied"]), 1);
    assert_eq!(counter(&stats, &["writer", "resume_ns", "count"]), 1);
    assert_eq!(counter(&stats, &["writer", "unapplied_durable"]), 0);

    server.shutdown();
    server.join();
}

/// Repeated `metrics` requests at the same epoch are served from the
/// per-epoch cache and counted; a publish invalidates the cache, so the
/// next request re-renders (hit count stays put).
#[test]
fn metrics_cache_hits_are_observable_and_publish_invalidates() {
    let (server, _) = start_server("stats-cache", |_| {});
    let mut client = Client::connect(server.socket()).expect("connects");

    let render = |client: &mut Client| {
        let reply = client.request(&Request::Metrics).expect("metrics");
        let ReplyBody::Metrics(doc) = reply.body else {
            panic!("metrics body");
        };
        doc
    };
    let first = render(&mut client);
    let second = render(&mut client);
    assert_eq!(first, second, "cached render is byte-identical");
    let stats = fetch_stats(&mut client);
    assert_eq!(counter(&stats, &["metrics_cache_hits"]), 1);

    client
        .request(&Request::Update {
            text: "+Edge 3 4\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    let third = render(&mut client);
    assert_ne!(first, third, "publish invalidated the cached render");
    let stats = fetch_stats(&mut client);
    assert_eq!(
        counter(&stats, &["metrics_cache_hits"]),
        1,
        "the post-publish render was a miss"
    );

    server.shutdown();
    server.join();
}

/// `--slow-query-ms 0` flags every read; the counter shows up in stats.
#[test]
fn slow_queries_are_counted_against_the_threshold() {
    let (server, _) = start_server("stats-slow", |config| {
        config.slow_query_ms = Some(0.0);
    });
    let mut client = Client::connect(server.socket()).expect("connects");
    for _ in 0..3 {
        client
            .request(&Request::Query {
                atom: "Path 0 _".into(),
            })
            .expect("query");
    }
    let stats = fetch_stats(&mut client);
    assert_eq!(counter(&stats, &["slow_queries"]), 3);
    server.shutdown();
    server.join();
}

/// The Prometheus form carries the same counters as the JSON form, in
/// scrapeable text shape.
#[test]
fn prometheus_exposition_matches_the_workload() {
    let (server, _) = start_server("stats-prom", |_| {});
    let mut client = Client::connect(server.socket()).expect("connects");
    for _ in 0..5 {
        client
            .request(&Request::Query {
                atom: "Path 0 _".into(),
            })
            .expect("query");
    }
    let reply = client
        .request(&Request::Stats { prometheus: true })
        .expect("stats --prom");
    let ReplyBody::Prom(text) = reply.body else {
        panic!("prom body, got {:?}", reply.body);
    };
    assert!(
        text.contains("flixd_requests_total{op=\"query\"} 5"),
        "{text}"
    );
    assert!(
        text.contains("flixd_request_latency_seconds_count{op=\"query\"} 5"),
        "{text}"
    );
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert!(text.contains("# TYPE flixd_uptime_seconds gauge"), "{text}");
    assert!(text.contains("flixd_epoch 1"), "{text}");
    server.shutdown();
    server.join();
}

fn node<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .unwrap_or_else(|| panic!("stats document has {path:?}"))
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    node(doc, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?} is a number"))
}

/// The document's value for one Prometheus sample, found from the
/// sample's name and labels alone.
fn document_value<'a>(doc: &Json, name: &str, label: impl Fn(&str) -> Option<&'a str>) -> f64 {
    let op = label("op").unwrap_or_default();
    let histogram = name
        .rsplit_once('_')
        .filter(|(_, part)| matches!(*part, "bucket" | "sum" | "count"));
    if let Some((base, part)) = histogram {
        let hist = match base {
            "flixd_request_latency_seconds" => node(doc, &["requests", op, "latency_ns"]),
            "flixd_resume_seconds" => node(doc, &["writer", "resume_ns"]),
            "flixd_wal_append_seconds" => node(doc, &["writer", "wal_append_ns"]),
            other => panic!("unexpected histogram {other}"),
        };
        if part != "bucket" {
            let scale = if part == "sum" { 1e9 } else { 1.0 };
            return number(hist, &[part]) / scale;
        }
        // Cumulative: every bucket whose upper bound, 2^(i+1) ns, is at
        // most `le`; the saturating top bucket only under +Inf.
        let le = label("le").expect("a bucket has le");
        let le_ns = le
            .parse::<f64>()
            .map_or(u64::MAX, |secs| (secs * 1e9).round() as u64);
        let buckets = node(hist, &["buckets"]).as_array().expect("buckets");
        return buckets
            .iter()
            .enumerate()
            .filter(|&(i, _)| le == "+Inf" || (i + 1 < buckets.len() && 1u64 << (i + 1) <= le_ns))
            .map(|(_, bucket)| bucket.as_f64().expect("a bucket count"))
            .sum();
    }
    let path: Vec<&str> = match name {
        "flixd_epoch" => vec!["epoch"],
        "flixd_resident_facts" => vec!["facts"],
        "flixd_connections_opened_total" => vec!["connections", "opened"],
        "flixd_connections_active" => vec!["connections", "active"],
        "flixd_requests_total" => vec!["requests", op, "count"],
        "flixd_request_errors_total" => {
            vec!["requests", op, "errors", label("code").expect("a code")]
        }
        "flixd_request_bytes_total" => match label("direction") {
            Some("in") => vec!["requests", op, "bytes_in"],
            _ => vec!["requests", op, "bytes_out"],
        },
        "flixd_batches_applied_total" => vec!["writer", "batches_applied"],
        "flixd_batches_failed_total" => vec!["writer", "batches_failed"],
        "flixd_updates_applied_total" => vec!["writer", "updates_applied"],
        "flixd_pending_updates" => vec!["writer", "pending_updates"],
        "flixd_unapplied_durable" => vec!["writer", "unapplied_durable"],
        "flixd_carryover_age_seconds" => vec!["writer", "carryover_age_secs"],
        "flixd_slow_queries_total" => vec!["slow_queries"],
        "flixd_compactions_total" => vec!["compaction", "count"],
        "flixd_events_dropped_total" => vec!["events", "dropped"],
        other => panic!("unexpected sample {other}"),
    };
    number(doc, &path)
}

/// `status`, `stats` and `stats --prom` are readings of one registry.
/// After a fixed sequence — three queries (one naming an unknown
/// predicate), a facts dump, an `explain` refused without provenance,
/// one update, one compact, then one each of the other read ops — every
/// `status` field is the stats document's number, `queries_served` is
/// the sum of the six read ops' counts, and every Prometheus sample is
/// the document's value.
#[test]
fn status_stats_and_prometheus_read_one_set_of_books() {
    let files = scratch_dir("stats-books-files");
    let (server, _) = start_server("stats-books", |config| {
        config.snapshot = Some(files.join("model.snap"));
        config.wal = Some(files.join("model.wal"));
    });
    let mut client = Client::connect(server.socket()).expect("connects");
    for atom in ["Path 0 _", "Path 1 _", "Nope 1 2"] {
        client
            .request(&Request::Query { atom: atom.into() })
            .expect("query");
    }
    client
        .request(&Request::Facts { predicate: None })
        .expect("facts");
    let reply = client
        .request(&Request::Explain {
            atom: "Path 0 1".into(),
        })
        .expect("explain");
    assert!(matches!(
        reply.body,
        ReplyBody::Error {
            code: ErrorCode::Unsupported,
            ..
        }
    ));
    let reply = client
        .request(&Request::Update {
            text: "+Edge 3 4\n".into(),
            timeout_secs: None,
        })
        .expect("update");
    assert_eq!(reply.epoch, 2);
    let reply = client.request(&Request::Compact).expect("compact");
    assert!(matches!(reply.body, ReplyBody::Compacted { .. }));
    // One of each other read op, so that each of the six counts.
    client.request(&Request::Metrics).expect("metrics");
    let reply = client.request(&Request::Trace).expect("trace");
    assert!(matches!(reply.body, ReplyBody::Error { .. }));
    fetch_stats(&mut client);

    let reply = client.request(&Request::Status).expect("status");
    let ReplyBody::Status(status) = reply.body else {
        panic!("status body, got {:?}", reply.body);
    };
    let doc = fetch_stats(&mut client);
    assert_eq!(reply.epoch, counter(&doc, &["epoch"]));
    assert_eq!(status.facts, counter(&doc, &["facts"]));
    assert_eq!(
        status.updates_applied,
        counter(&doc, &["writer", "updates_applied"])
    );
    assert_eq!(
        status.batches_applied,
        counter(&doc, &["writer", "batches_applied"])
    );
    assert_eq!(
        status.pending_updates,
        counter(&doc, &["writer", "pending_updates"])
    );
    assert_eq!(
        status.unapplied_durable,
        counter(&doc, &["writer", "unapplied_durable"])
    );
    let reads: u64 = ["query", "facts", "explain", "metrics", "stats", "trace"]
        .iter()
        .map(|op| counter(&doc, &["requests", op, "count"]))
        .sum();
    assert_eq!(status.queries_served, reads);
    assert!(status.uptime_secs > 0.0);
    assert!(status.uptime_secs <= number(&doc, &["uptime_secs"]));
    // The sequence itself: eight reads, one update in one batch, one
    // compaction.
    assert_eq!(
        (
            status.queries_served,
            status.updates_applied,
            status.batches_applied
        ),
        (8, 1, 1)
    );
    assert_eq!(counter(&doc, &["compaction", "count"]), 1);

    let reply = client
        .request(&Request::Stats { prometheus: true })
        .expect("stats --prom");
    let ReplyBody::Prom(prom) = reply.body else {
        panic!("prom body, got {:?}", reply.body);
    };
    let mut checked = 0;
    for line in prom.lines().filter(|line| !line.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("a sample line");
        let value: f64 = value.parse().expect("a sample value");
        let (name, labels) = series
            .split_once('{')
            .map_or((series, ""), |(name, labels)| {
                (name, labels.trim_end_matches('}'))
            });
        let label = |key: &str| {
            labels
                .split(',')
                .filter_map(|pair| pair.split_once('='))
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.trim_matches('"'))
        };
        if name == "flixd_uptime_seconds" {
            assert!(value >= number(&doc, &["uptime_secs"]), "{line}");
            continue;
        }
        let mut want = document_value(&doc, name, label);
        if label("op") == Some("stats") {
            // The `stats` request that fetched `doc` was recorded after
            // its reading: it shows here as one more request, with its
            // own bytes and latency.
            if name != "flixd_requests_total" {
                continue;
            }
            want += 1.0;
        }
        assert_eq!(value, want, "{line}");
        checked += 1;
    }
    assert!(checked > 80, "only {checked} samples checked:\n{prom}");

    server.shutdown();
    server.join();
}

/// A fixed registry state: every kind of sample the server records,
/// latencies over several buckets (the saturating top one included),
/// errors on three ops, a failed then an applied batch, and a recovery.
fn fixed_registry() -> (Telemetry, StatsContext) {
    let mut report = flix_core::RecoveryReport::default();
    report.snapshot_loaded = true;
    report.wal_frames_replayed = 2;
    report.wal_entries_replayed = 5;
    report.wal_bytes_dropped = 7;
    let t = Telemetry::new(Some(Arc::new(report)));
    for _ in 0..3 {
        t.connection_opened();
    }
    t.connection_closed();
    let samples = [
        (RequestKind::Query, 1_500, 40, 120, None),
        (RequestKind::Query, 900_000, 41, 30, Some(ErrorCode::Query)),
        (RequestKind::Query, 3, 38, 30, Some(ErrorCode::Parse)),
        (RequestKind::Facts, 250_000, 20, 4_096, None),
        (
            RequestKind::Explain,
            12_345,
            50,
            80,
            Some(ErrorCode::Unsupported),
        ),
        (RequestKind::Metrics, 70_000, 18, 900, None),
        (RequestKind::Status, 800, 18, 150, None),
        (RequestKind::Stats, 2_000_000, 30, 3_000, None),
        (RequestKind::Update, 5_000_000_000, 60, 40, None),
        (
            RequestKind::Update,
            1 << 45,
            60,
            40,
            Some(ErrorCode::Budget),
        ),
        (RequestKind::Compact, 40_000_000, 19, 60, None),
    ];
    for (kind, latency_ns, bytes_in, bytes_out, error) in samples {
        t.record_request(RequestSample {
            kind,
            latency_ns,
            bytes_in,
            bytes_out,
            error,
        });
    }
    t.record_proto_error();
    t.record_slow_query();
    t.record_slow_query();
    t.record_metrics_cache_hit();
    t.record_batch_failed();
    t.record_batch_applied(3, 6, 3_000_000);
    t.record_wal_append(80_000);
    t.record_wal_append(1_200_000);
    t.record_compaction(true);
    t.record_compaction(false);
    let cx = StatsContext {
        epoch: 3,
        facts: 42,
        pending_updates: 1,
        unapplied_durable: 0,
        events_logged: 17,
        events_dropped: 2,
    };
    (t, cx)
}

/// The Prometheus text and the JSON document of one fixed registry
/// state, byte for byte as the two were written when each renderer
/// still walked the registry on its own. Only the uptime, a wall-clock
/// reading, is masked.
#[test]
fn stats_renderings_match_their_goldens() {
    let (t, cx) = fixed_registry();
    let doc = t.read(&cx);
    let prom: String = render_prometheus(&doc)
        .lines()
        .map(|line| match line.strip_prefix("flixd_uptime_seconds ") {
            Some(_) => "flixd_uptime_seconds MASKED\n".to_string(),
            None => format!("{line}\n"),
        })
        .collect();
    assert_eq!(prom, include_str!("golden/stats.prom"), "{prom}");

    let mut doc = parse(&doc.render()).expect("stats document parses");
    let Json::Obj(fields) = &mut doc else {
        panic!("the document is an object");
    };
    for (key, value) in fields {
        if key == "uptime_secs" {
            *value = Json::Str("MASKED".into());
        }
    }
    let json = doc.render();
    assert_eq!(json, include_str!("golden/stats.json").trim_end(), "{json}");
}
