//! Service telemetry: a lock-light registry of request, connection, and
//! write-path metrics, rendered on demand as a `flixd-stats/1` JSON
//! document or a Prometheus-style text exposition.
//!
//! The design follows the discipline the solver's own profiles
//! established (DESIGN.md §10): recording must be cheap enough to leave
//! on in production, strategy-invariant, and *zero-cost when off*. Every
//! counter is an [`AtomicU64`] bumped with relaxed ordering; latencies
//! and batch shapes go into fixed-size log-scale [`Histogram`]s (no
//! allocation, no locks on the record path); the only mutexes guard the
//! two rarely-touched wall-clock anchors (last publish, carry-over
//! start). When the registry is built disabled
//! (`Telemetry::new(false, …)`), every record method returns after one
//! branch — the compiled-off path the idle-overhead A/B in CI pins
//! against the instrumented one.
//!
//! Rendering is pull-only: nothing is aggregated in the background. A
//! `stats` request walks the registry once and renders what it finds,
//! so an idle daemon does no telemetry work at all.

use crate::json::Json;
use crate::proto::ErrorCode;
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
/// (the server) passes them at render time so the document is one
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
    enabled: bool,
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
    /// A registry primed with what startup recovery found. With
    /// `enabled` false it is the compiled-off path: every record method
    /// returns after one branch, and `stats` requests are refused
    /// upstream.
    pub fn new(enabled: bool, recovery: Option<Arc<RecoveryReport>>) -> Telemetry {
        Telemetry {
            enabled,
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

    /// Whether recording is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        if !self.enabled {
            return;
        }
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection thread finished.
    pub fn connection_closed(&self) {
        if !self.enabled {
            return;
        }
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request was served (successfully or with an error reply).
    pub fn record_request(&self, sample: RequestSample) {
        if !self.enabled {
            return;
        }
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
        if !self.enabled {
            return;
        }
        self.proto_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A read op exceeded the slow-query threshold.
    pub fn record_slow_query(&self) {
        if !self.enabled {
            return;
        }
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// A `metrics` request was answered from the per-epoch cache.
    pub fn record_metrics_cache_hit(&self) {
        if !self.enabled {
            return;
        }
        self.metrics_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The writer published a batch: `riders` update requests folded
    /// into `entries` delta entries, resumed in `resume_ns`.
    pub fn record_batch_applied(&self, riders: u64, entries: u64, resume_ns: u64) {
        if !self.enabled {
            return;
        }
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
        if !self.enabled {
            return;
        }
        self.batches_failed.fetch_add(1, Ordering::Relaxed);
        let mut since = self.carryover_since.lock().expect("carryover clock");
        // Keep the *oldest* debt's timestamp: age measures how long any
        // durable entry has waited, not when the latest failure hit.
        since.get_or_insert_with(Instant::now);
    }

    /// One WAL append (including its fsync) took `ns`.
    pub fn record_wal_append(&self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.wal_append_ns.record(ns);
    }

    /// A compaction finished.
    pub fn record_compaction(&self, ok: bool) {
        if !self.enabled {
            return;
        }
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

    /// Renders the whole registry as a `flixd-stats/1` JSON document.
    /// The schema is specified in DESIGN.md §17.6.
    pub fn render_stats_json(&self, cx: &StatsContext) -> String {
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
        .render()
    }

    /// Renders the registry as a Prometheus-style text exposition —
    /// the same numbers as [`Telemetry::render_stats_json`], shaped for
    /// a scrape endpoint (`flixr --connect S --stats --prom`).
    pub fn render_prometheus(&self, cx: &StatsContext) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let opened = self.connections_opened.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Relaxed);
        let _ = writeln!(out, "# TYPE flixd_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "flixd_uptime_seconds {}",
            self.started.elapsed().as_secs_f64()
        );
        let _ = writeln!(out, "# TYPE flixd_epoch gauge\nflixd_epoch {}", cx.epoch);
        let _ = writeln!(
            out,
            "# TYPE flixd_resident_facts gauge\nflixd_resident_facts {}",
            cx.facts
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_connections_opened_total counter\n\
             flixd_connections_opened_total {opened}"
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_connections_active gauge\nflixd_connections_active {}",
            opened.saturating_sub(closed)
        );
        let _ = writeln!(out, "# TYPE flixd_requests_total counter");
        for kind in RequestKind::ALL {
            let slot = &self.requests[kind.index()];
            let _ = writeln!(
                out,
                "flixd_requests_total{{op=\"{}\"}} {}",
                kind.as_str(),
                slot.count.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "# TYPE flixd_request_errors_total counter");
        for kind in RequestKind::ALL {
            let slot = &self.requests[kind.index()];
            for (i, code) in ERROR_CODES.iter().enumerate() {
                let n = slot.errors[i].load(Ordering::Relaxed);
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "flixd_request_errors_total{{op=\"{}\",code=\"{}\"}} {n}",
                        kind.as_str(),
                        code.as_str()
                    );
                }
            }
        }
        let _ = writeln!(out, "# TYPE flixd_request_bytes_total counter");
        for kind in RequestKind::ALL {
            let slot = &self.requests[kind.index()];
            let _ = writeln!(
                out,
                "flixd_request_bytes_total{{op=\"{}\",direction=\"in\"}} {}",
                kind.as_str(),
                slot.bytes_in.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "flixd_request_bytes_total{{op=\"{}\",direction=\"out\"}} {}",
                kind.as_str(),
                slot.bytes_out.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "# TYPE flixd_request_latency_seconds histogram");
        for kind in RequestKind::ALL {
            let snap = self.requests[kind.index()].latency_ns.snapshot();
            write_prom_histogram(
                &mut out,
                "flixd_request_latency_seconds",
                kind.as_str(),
                &snap,
            );
        }
        let _ = writeln!(
            out,
            "# TYPE flixd_batches_applied_total counter\nflixd_batches_applied_total {}",
            self.batches_applied.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_batches_failed_total counter\nflixd_batches_failed_total {}",
            self.batches_failed.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_updates_applied_total counter\nflixd_updates_applied_total {}",
            self.updates_applied.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_pending_updates gauge\nflixd_pending_updates {}",
            cx.pending_updates
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_unapplied_durable gauge\nflixd_unapplied_durable {}",
            cx.unapplied_durable
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_carryover_age_seconds gauge\nflixd_carryover_age_seconds {}",
            self.carryover_age_secs()
        );
        let _ = writeln!(out, "# TYPE flixd_resume_seconds histogram");
        write_prom_histogram(
            &mut out,
            "flixd_resume_seconds",
            "",
            &self.resume_ns.snapshot(),
        );
        let _ = writeln!(out, "# TYPE flixd_wal_append_seconds histogram");
        write_prom_histogram(
            &mut out,
            "flixd_wal_append_seconds",
            "",
            &self.wal_append_ns.snapshot(),
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_slow_queries_total counter\nflixd_slow_queries_total {}",
            self.slow_queries.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_compactions_total counter\nflixd_compactions_total {}",
            self.compactions.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE flixd_events_dropped_total counter\nflixd_events_dropped_total {}",
            cx.events_dropped
        );
        out
    }
}

/// Writes one Prometheus histogram (cumulative `_bucket` lines plus
/// `_sum`/`_count`), converting nanosecond samples to seconds. An empty
/// `op` label renders unlabeled series.
fn write_prom_histogram(out: &mut String, name: &str, op: &str, snap: &HistogramSnapshot) {
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
    let mut cumulative = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        cumulative += c;
        // Only emit the buckets that move the cumulative count (plus
        // +Inf below): full 40-bucket series per op would be noise.
        if c == 0 {
            continue;
        }
        let le = match bucket_upper_bound(i) {
            Some(ns) => format!("{}", ns as f64 / 1e9),
            None => "+Inf".into(),
        };
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", label(&le));
    }
    let _ = writeln!(out, "{name}_bucket{} {cumulative}", label("+Inf"));
    let _ = writeln!(out, "{name}_sum{plain} {}", snap.sum as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{plain} {}", snap.count);
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
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new(false, None);
        t.connection_opened();
        t.record_request(RequestSample {
            kind: RequestKind::Query,
            latency_ns: 123,
            bytes_in: 10,
            bytes_out: 20,
            error: None,
        });
        t.record_batch_applied(1, 2, 3);
        assert!(!t.enabled());
        assert_eq!(t.connections_opened.load(Ordering::Relaxed), 0);
        assert_eq!(t.batches_applied.load(Ordering::Relaxed), 0);
        assert_eq!(t.requests[0].count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stats_document_carries_the_schema_and_counters() {
        let t = Telemetry::new(true, None);
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
        let doc = t.render_stats_json(&StatsContext {
            epoch: 3,
            facts: 42,
            ..StatsContext::default()
        });
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
        let t = Telemetry::new(true, None);
        t.record_request(RequestSample {
            kind: RequestKind::Query,
            latency_ns: 1_000,
            bytes_in: 32,
            bytes_out: 64,
            error: None,
        });
        t.record_batch_applied(2, 5, 10_000);
        let text = t.render_prometheus(&StatsContext::default());
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
