//! Service telemetry: a lock-light registry of request, connection, and
//! write-path metrics — the daemon's one record of what it has done.
//! `status`, `stats` and `stats --prom` are all readings of it.
//!
//! The design follows the discipline the solver's own profiles
//! established (DESIGN.md §10): recording must be strategy-invariant
//! and cheap enough to leave on in production, so it is always on.
//! Every counter is an [`AtomicU64`] bumped with relaxed ordering;
//! latencies and batch shapes go into fixed-size log-scale
//! [`Histogram`]s (no allocation, no locks on the record path); the only
//! mutexes guard the two rarely-touched wall-clock anchors (last
//! publish, carry-over start).
//!
//! Reading is pull-only: nothing is aggregated in the background. A
//! report walks the registry once, into a `flixd-stats/1` document
//! ([`Telemetry::read`]); the Prometheus text ([`render_prometheus`])
//! and the `status` counters ([`status`]) are read from that document,
//! so the three cannot disagree. An idle daemon does no telemetry work
//! at all.

use crate::json::Json;
use crate::proto::{ErrorCode, Status};
use flix_core::RecoveryReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The schema identifier carried by every rendered stats document.
pub const STATS_SCHEMA: &str = "flixd-stats/1";

/// Number of log-scale histogram buckets. Bucket `i` counts samples `v`
/// with `2^i <= v < 2^(i+1)` (bucket 0 also takes `v <= 1`); the top
/// bucket saturates, absorbing everything at or above `2^39` — about
/// 9 minutes when the unit is nanoseconds, far beyond any sane request.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket log-scale histogram recording `u64` samples
/// (typically nanoseconds) from any number of threads concurrently.
///
/// Recording order is bucket → sum → count, and snapshotting reads
/// count *first*: any snapshot therefore observes
/// `count <= sum(buckets)` — a sample is never counted before it is
/// bucketed — and once recorders quiesce the two are equal. The
/// concurrent-stress test in `tests/telemetry.rs` pins this invariant.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket a sample lands in: 0 for `v <= 1`, otherwise
/// `floor(log2 v)`, clamped to the saturating top bucket.
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` (`None` for the saturating
/// top bucket, whose bound is +∞).
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << (i + 1))
    }
}

impl Histogram {
    /// Records one sample. Wait-free; safe from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Count last, so a concurrent snapshot (which reads count
        // first) never sees a counted-but-unbucketed sample.
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Takes a point-in-time copy. Reads `count` before the buckets, so
    /// `snapshot.count <= snapshot.buckets.iter().sum()` always holds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded (bucketed *and* counted) at snapshot time.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Per-bucket counts; bucket bounds per [`bucket_upper_bound`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts:
    /// the upper bound of the first bucket at which the cumulative
    /// count reaches `q * count`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(i).unwrap_or(self.max));
            }
        }
        Some(self.max)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            (
                "buckets".into(),
                Json::Arr(self.buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
        ])
    }
}

/// The request vocabulary, one slot per protocol op, used to index the
/// per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// The `query` op.
    Query,
    /// The `facts` op.
    Facts,
    /// The `explain` op.
    Explain,
    /// The `metrics` op.
    Metrics,
    /// The `trace` op.
    Trace,
    /// The `status` op.
    Status,
    /// The `stats` op (this telemetry layer's own endpoint).
    Stats,
    /// The `update` op.
    Update,
    /// The `compact` op.
    Compact,
    /// The `shutdown` op.
    Shutdown,
}

impl RequestKind {
    /// Every kind, in wire-name order — the iteration order of the
    /// rendered document.
    pub const ALL: [RequestKind; 10] = [
        RequestKind::Query,
        RequestKind::Facts,
        RequestKind::Explain,
        RequestKind::Metrics,
        RequestKind::Trace,
        RequestKind::Status,
        RequestKind::Stats,
        RequestKind::Update,
        RequestKind::Compact,
        RequestKind::Shutdown,
    ];

    /// The op name as it appears on the wire and in rendered stats.
    pub fn as_str(&self) -> &'static str {
        match self {
            RequestKind::Query => "query",
            RequestKind::Facts => "facts",
            RequestKind::Explain => "explain",
            RequestKind::Metrics => "metrics",
            RequestKind::Trace => "trace",
            RequestKind::Status => "status",
            RequestKind::Stats => "stats",
            RequestKind::Update => "update",
            RequestKind::Compact => "compact",
            RequestKind::Shutdown => "shutdown",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// All error codes, in wire order, for the per-kind error counters.
const ERROR_CODES: [ErrorCode; 11] = [
    ErrorCode::Proto,
    ErrorCode::Parse,
    ErrorCode::Query,
    ErrorCode::Absent,
    ErrorCode::Delta,
    ErrorCode::Budget,
    ErrorCode::Solve,
    ErrorCode::Persist,
    ErrorCode::Unsupported,
    ErrorCode::Busy,
    ErrorCode::ShuttingDown,
];

fn error_index(code: ErrorCode) -> usize {
    ERROR_CODES
        .iter()
        .position(|c| *c == code)
        .expect("every code is listed")
}

/// Per-request-kind counters: volume, error codes, payload bytes, and a
/// latency histogram.
#[derive(Debug, Default)]
struct RequestStats {
    count: AtomicU64,
    errors: [AtomicU64; 11],
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency_ns: Histogram,
}

/// What one recorded request looked like, handed to
/// [`Telemetry::record_request`] by the connection loop.
#[derive(Debug, Clone, Copy)]
pub struct RequestSample {
    /// Which op was served.
    pub kind: RequestKind,
    /// Wall time from frame decode to reply render, nanoseconds.
    pub latency_ns: u64,
    /// Request frame payload size.
    pub bytes_in: u64,
    /// Reply frame payload size.
    pub bytes_out: u64,
    /// The error code of the reply, when it was an error.
    pub error: Option<ErrorCode>,
}

/// Live service-level gauges the registry does not own — the caller
/// (the server) passes them at read time so the document is one
/// consistent pull.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsContext {
    /// The currently published epoch.
    pub epoch: u64,
    /// Total facts in the resident model.
    pub facts: u64,
    /// Update requests queued or mid-resume.
    pub pending_updates: u64,
    /// Durable delta entries not yet published.
    pub unapplied_durable: u64,
    /// Events written to the JSONL log so far.
    pub events_logged: u64,
    /// Events dropped because the logger channel was full.
    pub events_dropped: u64,
}

/// The telemetry registry. One per server, shared by every connection
/// thread and the writer.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    // Connection lifecycle.
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    // Per-kind request counters, indexed by `RequestKind::index`.
    requests: [RequestStats; 10],
    // Frames that never became a request (bad JSON, unknown op).
    proto_errors: AtomicU64,
    slow_queries: AtomicU64,
    metrics_cache_hits: AtomicU64,
    // Writer thread.
    batches_applied: AtomicU64,
    batches_failed: AtomicU64,
    updates_applied: AtomicU64,
    entries_per_batch: Histogram,
    riders_per_batch: Histogram,
    resume_ns: Histogram,
    wal_append_ns: Histogram,
    publish_gap_ns: Histogram,
    last_publish: Mutex<Option<Instant>>,
    carryover_since: Mutex<Option<Instant>>,
    // Compaction & recovery.
    compactions: AtomicU64,
    compaction_failures: AtomicU64,
    /// What startup recovery found; `None` for a volatile server.
    recovery: Option<Arc<RecoveryReport>>,
}

impl Telemetry {
    /// A registry primed with what startup recovery found. Its clock,
    /// the daemon's uptime, starts now.
    pub fn new(recovery: Option<Arc<RecoveryReport>>) -> Telemetry {
        Telemetry {
            started: Instant::now(),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            requests: Default::default(),
            proto_errors: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
            metrics_cache_hits: AtomicU64::new(0),
            batches_applied: AtomicU64::new(0),
            batches_failed: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            entries_per_batch: Histogram::default(),
            riders_per_batch: Histogram::default(),
            resume_ns: Histogram::default(),
            wal_append_ns: Histogram::default(),
            publish_gap_ns: Histogram::default(),
            last_publish: Mutex::new(None),
            carryover_since: Mutex::new(None),
            compactions: AtomicU64::new(0),
            compaction_failures: AtomicU64::new(0),
            recovery,
        }
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection thread finished.
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request was served (successfully or with an error reply).
    pub fn record_request(&self, sample: RequestSample) {
        let slot = &self.requests[sample.kind.index()];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.bytes_in.fetch_add(sample.bytes_in, Ordering::Relaxed);
        slot.bytes_out
            .fetch_add(sample.bytes_out, Ordering::Relaxed);
        slot.latency_ns.record(sample.latency_ns);
        if let Some(code) = sample.error {
            slot.errors[error_index(code)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A frame arrived that never parsed into a request.
    pub fn record_proto_error(&self) {
        self.proto_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A read op exceeded the slow-query threshold.
    pub fn record_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// A `metrics` request was answered from the per-epoch cache.
    pub fn record_metrics_cache_hit(&self) {
        self.metrics_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The writer published a batch: `riders` update requests folded
    /// into `entries` delta entries, resumed in `resume_ns`.
    pub fn record_batch_applied(&self, riders: u64, entries: u64, resume_ns: u64) {
        self.batches_applied.fetch_add(1, Ordering::Relaxed);
        self.updates_applied.fetch_add(riders, Ordering::Relaxed);
        self.riders_per_batch.record(riders);
        self.entries_per_batch.record(entries);
        self.resume_ns.record(resume_ns);
        let mut last = self.last_publish.lock().expect("publish clock");
        let now = Instant::now();
        if let Some(prev) = last.replace(now) {
            self.publish_gap_ns
                .record(now.duration_since(prev).as_nanos() as u64);
        }
        *self.carryover_since.lock().expect("carryover clock") = None;
    }

    /// A batch's resume failed; its entries stay as durable carry-over.
    pub fn record_batch_failed(&self) {
        self.batches_failed.fetch_add(1, Ordering::Relaxed);
        let mut since = self.carryover_since.lock().expect("carryover clock");
        // Keep the *oldest* debt's timestamp: age measures how long any
        // durable entry has waited, not when the latest failure hit.
        since.get_or_insert_with(Instant::now);
    }

    /// One WAL append (including its fsync) took `ns`.
    pub fn record_wal_append(&self, ns: u64) {
        self.wal_append_ns.record(ns);
    }

    /// A compaction finished.
    pub fn record_compaction(&self, ok: bool) {
        if ok {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.compaction_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seconds the oldest unapplied durable entry has waited (0 when
    /// there is no carry-over debt).
    pub fn carryover_age_secs(&self) -> f64 {
        self.carryover_since
            .lock()
            .expect("carryover clock")
            .map(|at| at.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    fn request_json(&self, kind: RequestKind) -> Json {
        let slot = &self.requests[kind.index()];
        let errors: Vec<(String, Json)> = ERROR_CODES
            .iter()
            .enumerate()
            .filter_map(|(i, code)| {
                let n = slot.errors[i].load(Ordering::Relaxed);
                (n > 0).then(|| (code.as_str().to_string(), Json::Num(n as f64)))
            })
            .collect();
        Json::Obj(vec![
            (
                "count".into(),
                Json::Num(slot.count.load(Ordering::Relaxed) as f64),
            ),
            (
                "bytes_in".into(),
                Json::Num(slot.bytes_in.load(Ordering::Relaxed) as f64),
            ),
            (
                "bytes_out".into(),
                Json::Num(slot.bytes_out.load(Ordering::Relaxed) as f64),
            ),
            ("errors".into(), Json::Obj(errors)),
            ("latency_ns".into(), slot.latency_ns.snapshot().to_json()),
        ])
    }

    /// Reads the whole registry once, into a `flixd-stats/1` document:
    /// the one reading every report is made from. The schema is
    /// specified in DESIGN.md §17.6.
    pub fn read(&self, cx: &StatsContext) -> Json {
        let opened = self.connections_opened.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Relaxed);
        let requests: Vec<(String, Json)> = RequestKind::ALL
            .iter()
            .map(|kind| (kind.as_str().to_string(), self.request_json(*kind)))
            .collect();
        let writer = Json::Obj(vec![
            (
                "batches_applied".into(),
                Json::Num(self.batches_applied.load(Ordering::Relaxed) as f64),
            ),
            (
                "batches_failed".into(),
                Json::Num(self.batches_failed.load(Ordering::Relaxed) as f64),
            ),
            (
                "updates_applied".into(),
                Json::Num(self.updates_applied.load(Ordering::Relaxed) as f64),
            ),
            (
                "pending_updates".into(),
                Json::Num(cx.pending_updates as f64),
            ),
            (
                "unapplied_durable".into(),
                Json::Num(cx.unapplied_durable as f64),
            ),
            (
                "carryover_age_secs".into(),
                Json::Num(self.carryover_age_secs()),
            ),
            (
                "entries_per_batch".into(),
                self.entries_per_batch.snapshot().to_json(),
            ),
            (
                "riders_per_batch".into(),
                self.riders_per_batch.snapshot().to_json(),
            ),
            ("resume_ns".into(), self.resume_ns.snapshot().to_json()),
            (
                "wal_append_ns".into(),
                self.wal_append_ns.snapshot().to_json(),
            ),
            (
                "publish_gap_ns".into(),
                self.publish_gap_ns.snapshot().to_json(),
            ),
        ]);
        let blank = RecoveryReport::default();
        let found = self.recovery.as_deref().unwrap_or(&blank);
        let recovery = Json::Obj(vec![
            ("performed".into(), Json::Bool(self.recovery.is_some())),
            ("snapshot_loaded".into(), Json::Bool(found.snapshot_loaded)),
            ("scratch_solve".into(), Json::Bool(found.scratch_solve)),
            (
                "wal_frames_replayed".into(),
                Json::Num(found.wal_frames_replayed as f64),
            ),
            (
                "wal_entries_replayed".into(),
                Json::Num(found.wal_entries_replayed as f64),
            ),
            (
                "wal_bytes_dropped".into(),
                Json::Num(found.wal_bytes_dropped as f64),
            ),
        ]);
        Json::Obj(vec![
            ("schema".into(), Json::Str(STATS_SCHEMA.into())),
            ("epoch".into(), Json::Num(cx.epoch as f64)),
            (
                "uptime_secs".into(),
                Json::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("facts".into(), Json::Num(cx.facts as f64)),
            (
                "connections".into(),
                Json::Obj(vec![
                    ("opened".into(), Json::Num(opened as f64)),
                    ("closed".into(), Json::Num(closed as f64)),
                    (
                        "active".into(),
                        Json::Num(opened.saturating_sub(closed) as f64),
                    ),
                ]),
            ),
            ("requests".into(), Json::Obj(requests)),
            (
                "proto_errors".into(),
                Json::Num(self.proto_errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "slow_queries".into(),
                Json::Num(self.slow_queries.load(Ordering::Relaxed) as f64),
            ),
            (
                "metrics_cache_hits".into(),
                Json::Num(self.metrics_cache_hits.load(Ordering::Relaxed) as f64),
            ),
            ("writer".into(), writer),
            (
                "compaction".into(),
                Json::Obj(vec![
                    (
                        "count".into(),
                        Json::Num(self.compactions.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "failed".into(),
                        Json::Num(self.compaction_failures.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            ("recovery".into(), recovery),
            (
                "events".into(),
                Json::Obj(vec![
                    ("logged".into(), Json::Num(cx.events_logged as f64)),
                    ("dropped".into(), Json::Num(cx.events_dropped as f64)),
                ]),
            ),
        ])
    }
}

/// The read ops: `status` counts their requests as `queries_served`,
/// and `flixr --watch` as its `read/s`.
pub const READS: [RequestKind; 6] = [
    RequestKind::Query,
    RequestKind::Facts,
    RequestKind::Explain,
    RequestKind::Metrics,
    RequestKind::Stats,
    RequestKind::Trace,
];

/// The node of a `flixd-stats/1` document at a key path. Only
/// [`Telemetry::read`]'s own documents are read here, so a missing key
/// is a bug in this module, not bad input.
fn node<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .unwrap_or_else(|| panic!("the stats document has {path:?}"))
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    node(doc, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?} is a number"))
}

/// The `status` counters, read from a `flixd-stats/1` document:
/// `queries_served` is the sum of the read ops' request counts.
pub fn status(doc: &Json) -> Status {
    let n = |path: &[&str]| number(doc, path);
    Status {
        facts: n(&["facts"]) as u64,
        updates_applied: n(&["writer", "updates_applied"]) as u64,
        batches_applied: n(&["writer", "batches_applied"]) as u64,
        queries_served: READS
            .iter()
            .map(|kind| n(&["requests", kind.as_str(), "count"]) as u64)
            .sum(),
        pending_updates: n(&["writer", "pending_updates"]) as u64,
        unapplied_durable: n(&["writer", "unapplied_durable"]) as u64,
        uptime_secs: n(&["uptime_secs"]),
    }
}

/// Writes a `flixd-stats/1` document as a Prometheus-style text
/// exposition — the same numbers, shaped for a scrape endpoint
/// (`flixr --connect S --stats --prom`). Every counter is an integer
/// below 2⁵³, so its `f64` prints exactly as the integer would.
pub fn render_prometheus(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let n = |path: &[&str]| number(doc, path);
    write_prom_scalar(
        &mut out,
        "flixd_uptime_seconds",
        "gauge",
        n(&["uptime_secs"]),
    );
    write_prom_scalar(&mut out, "flixd_epoch", "gauge", n(&["epoch"]));
    write_prom_scalar(&mut out, "flixd_resident_facts", "gauge", n(&["facts"]));
    write_prom_scalar(
        &mut out,
        "flixd_connections_opened_total",
        "counter",
        n(&["connections", "opened"]),
    );
    write_prom_scalar(
        &mut out,
        "flixd_connections_active",
        "gauge",
        n(&["connections", "active"]),
    );
    let _ = writeln!(out, "# TYPE flixd_requests_total counter");
    for kind in RequestKind::ALL {
        let op = kind.as_str();
        let count = n(&["requests", op, "count"]);
        let _ = writeln!(out, "flixd_requests_total{{op=\"{op}\"}} {count}");
    }
    let _ = writeln!(out, "# TYPE flixd_request_errors_total counter");
    for kind in RequestKind::ALL {
        let op = kind.as_str();
        // The document lists only the codes that occurred.
        let errors = node(doc, &["requests", op, "errors"]);
        for code in ERROR_CODES.map(|code| code.as_str()) {
            if let Some(count) = errors.get(code).and_then(Json::as_f64) {
                let _ = writeln!(
                    out,
                    "flixd_request_errors_total{{op=\"{op}\",code=\"{code}\"}} {count}"
                );
            }
        }
    }
    let _ = writeln!(out, "# TYPE flixd_request_bytes_total counter");
    for kind in RequestKind::ALL {
        let op = kind.as_str();
        for (direction, key) in [("in", "bytes_in"), ("out", "bytes_out")] {
            let bytes = n(&["requests", op, key]);
            let _ = writeln!(
                out,
                "flixd_request_bytes_total{{op=\"{op}\",direction=\"{direction}\"}} {bytes}"
            );
        }
    }
    let _ = writeln!(out, "# TYPE flixd_request_latency_seconds histogram");
    for kind in RequestKind::ALL {
        let op = kind.as_str();
        let latency = node(doc, &["requests", op, "latency_ns"]);
        write_prom_histogram(&mut out, "flixd_request_latency_seconds", op, latency);
    }
    for (name, kind, key) in [
        ("flixd_batches_applied_total", "counter", "batches_applied"),
        ("flixd_batches_failed_total", "counter", "batches_failed"),
        ("flixd_updates_applied_total", "counter", "updates_applied"),
        ("flixd_pending_updates", "gauge", "pending_updates"),
        ("flixd_unapplied_durable", "gauge", "unapplied_durable"),
        ("flixd_carryover_age_seconds", "gauge", "carryover_age_secs"),
    ] {
        write_prom_scalar(&mut out, name, kind, n(&["writer", key]));
    }
    for (name, key) in [
        ("flixd_resume_seconds", "resume_ns"),
        ("flixd_wal_append_seconds", "wal_append_ns"),
    ] {
        let _ = writeln!(out, "# TYPE {name} histogram");
        write_prom_histogram(&mut out, name, "", node(doc, &["writer", key]));
    }
    for (name, path) in [
        ("flixd_slow_queries_total", &["slow_queries"][..]),
        ("flixd_compactions_total", &["compaction", "count"]),
        ("flixd_events_dropped_total", &["events", "dropped"]),
    ] {
        write_prom_scalar(&mut out, name, "counter", n(path));
    }
    out
}

/// Writes one unlabeled Prometheus sample with its `# TYPE` line.
fn write_prom_scalar(out: &mut String, name: &str, kind: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
}

/// Writes one Prometheus histogram (cumulative `_bucket` lines plus
/// `_sum`/`_count`) from a document histogram, converting nanosecond
/// samples to seconds. An empty `op` label renders unlabeled series.
fn write_prom_histogram(out: &mut String, name: &str, op: &str, hist: &Json) {
    use std::fmt::Write as _;
    let label = |le: &str| {
        if op.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{{op=\"{op}\",le=\"{le}\"}}")
        }
    };
    let plain = if op.is_empty() {
        String::new()
    } else {
        format!("{{op=\"{op}\"}}")
    };
    let buckets = node(hist, &["buckets"])
        .as_array()
        .expect("buckets is an array");
    let mut cumulative = 0.0;
    for (i, bucket) in buckets.iter().enumerate() {
        let c = bucket.as_f64().expect("a bucket is a number");
        cumulative += c;
        // Only emit the buckets that move the cumulative count, and
        // the saturating top bucket only as the +Inf line below: full
        // 40-bucket series per op would be noise.
        let Some(ns) = bucket_upper_bound(i).filter(|_| c > 0.0) else {
            continue;
        };
        let le = format!("{}", ns as f64 / 1e9);
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", label(&le));
    }
    let _ = writeln!(out, "{name}_bucket{} {cumulative}", label("+Inf"));
    let _ = writeln!(out, "{name}_sum{plain} {}", number(hist, &["sum"]) / 1e9);
    let _ = writeln!(out, "{name}_count{plain} {}", number(hist, &["count"]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_samples_land_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 1);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 39);
        h.record(1u64 << 62);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 3);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.count, 3);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_upper_bound(0), Some(2));
        assert_eq!(bucket_upper_bound(10), Some(2048));
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6, upper bound 128
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 19
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(128));
        assert_eq!(snap.quantile(0.99), Some(1 << 20));
        assert_eq!(Histogram::default().snapshot().quantile(0.5), None);
    }

    #[test]
    fn stats_document_carries_the_schema_and_counters() {
        let t = Telemetry::new(None);
        t.connection_opened();
        t.record_request(RequestSample {
            kind: RequestKind::Query,
            latency_ns: 1_000,
            bytes_in: 32,
            bytes_out: 64,
            error: None,
        });
        t.record_request(RequestSample {
            kind: RequestKind::Query,
            latency_ns: 2_000,
            bytes_in: 32,
            bytes_out: 48,
            error: Some(ErrorCode::Parse),
        });
        let doc = t
            .read(&StatsContext {
                epoch: 3,
                facts: 42,
                ..StatsContext::default()
            })
            .render();
        let parsed = crate::json::parse(&doc).expect("stats render parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(STATS_SCHEMA)
        );
        assert_eq!(parsed.get("epoch").and_then(Json::as_u64), Some(3));
        let query = parsed
            .get("requests")
            .and_then(|r| r.get("query"))
            .expect("query slot");
        assert_eq!(query.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(query.get("bytes_in").and_then(Json::as_u64), Some(64));
        assert_eq!(
            query
                .get("errors")
                .and_then(|e| e.get("parse"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let latency = query.get("latency_ns").expect("latency histogram");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(latency.get("sum").and_then(Json::as_u64), Some(3_000));
    }

    #[test]
    fn prometheus_exposition_includes_counters_and_histograms() {
        let t = Telemetry::new(None);
        t.record_request(RequestSample {
            kind: RequestKind::Query,
            latency_ns: 1_000,
            bytes_in: 32,
            bytes_out: 64,
            error: None,
        });
        t.record_batch_applied(2, 5, 10_000);
        let text = render_prometheus(&t.read(&StatsContext::default()));
        assert!(
            text.contains("flixd_requests_total{op=\"query\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("flixd_request_latency_seconds_count{op=\"query\"} 1"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\""), "{text}");
        assert!(text.contains("flixd_batches_applied_total 1"), "{text}");
        assert!(text.contains("flixd_updates_applied_total 2"), "{text}");
    }
}
