//! The `flixd/1` wire protocol: length-prefixed JSON frames over a Unix
//! domain socket.
//!
//! # Framing
//!
//! Every message — in either direction — is one *frame*: a 4-byte
//! big-endian unsigned length followed by exactly that many bytes of
//! UTF-8 JSON. Frames longer than [`MAX_FRAME`] are rejected before
//! allocation, so a corrupt or hostile peer cannot make the daemon
//! reserve gigabytes from four bytes of garbage.
//!
//! # Conversation
//!
//! On accept the server sends one *hello* frame:
//!
//! ```json
//! {"proto":"flixd/1","epoch":3,"facts":1234,"fingerprint":"0x93ad…"}
//! ```
//!
//! after which the client drives a strict request/response alternation.
//! Every response carries `"ok"` and `"epoch"` — the epoch of the
//! resident model the response was served from (for updates: the epoch
//! the update's batch *published*). Errors are
//! `{"ok":false,"epoch":E,"code":"…","error":"…"}` with a closed set of
//! machine-readable codes ([`ErrorCode`]).
//!
//! The full request vocabulary, response shapes, and the epoch /
//! snapshot-isolation semantics are specified in DESIGN.md §17.

use crate::json::{self, Json};
use std::io::{Read, Write};

/// The protocol identifier sent in the hello frame and bumped on any
/// incompatible change.
pub const PROTOCOL: &str = "flixd/1";

/// Upper bound on one frame's payload, in bytes. Large enough for a
/// full-model `facts` dump of every committed workload, small enough to
/// bound what a malformed length prefix can make either side allocate.
pub const MAX_FRAME: usize = 64 << 20;

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// *before* the length prefix (the peer hung up between messages); a
/// truncation inside a frame is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// A client request, one per frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Match a pattern (`Dist("a", _)`) against the resident model and
    /// return the matching facts.
    Query {
        /// The atom pattern, in flixr `--query` syntax.
        atom: String,
    },
    /// Dump the facts of one predicate, or of the whole model.
    Facts {
        /// The predicate to dump; `None` dumps every predicate.
        predicate: Option<String>,
    },
    /// Return the derivation tree of a fact (requires the server to run
    /// with provenance recording).
    Explain {
        /// The ground atom, in flixr `--explain` syntax.
        atom: String,
    },
    /// Return the `flix-metrics/1` report of the solve/resume that
    /// produced the current epoch.
    Metrics,
    /// Return the Chrome trace-event JSON of the solve/resume that
    /// produced the current epoch (requires the server to run with
    /// tracing).
    Trace,
    /// Liveness and progress counters.
    Status,
    /// The service telemetry registry: a `flixd-stats/1` JSON document,
    /// or a Prometheus-style text exposition of the same numbers.
    Stats {
        /// `true` requests the Prometheus text form
        /// (`{"op":"stats","format":"prometheus"}` on the wire).
        prometheus: bool,
    },
    /// Apply a delta: the text of an update file in flixr `--update`
    /// syntax (facts only, typed against the resident program's
    /// declarations; `-P(..).` / `retract P(..).` retract). Batched with
    /// concurrently queued updates into one resume; the reply carries
    /// the published epoch.
    Update {
        /// The update-file text.
        text: String,
        /// Per-request deadline on the resume, in seconds; the server
        /// caps it at its configured maximum.
        timeout_secs: Option<f64>,
    },
    /// Fold the write-ahead log into a fresh snapshot
    /// (requires the server to run with both `--wal` and `--snapshot`).
    Compact,
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
}

impl Request {
    /// Renders the request as its JSON wire form.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let op = |name: &str| ("op".to_string(), Json::Str(name.to_string()));
        match self {
            Request::Query { atom } => {
                fields.push(op("query"));
                fields.push(("atom".into(), Json::Str(atom.clone())));
            }
            Request::Facts { predicate } => {
                fields.push(op("facts"));
                if let Some(p) = predicate {
                    fields.push(("predicate".into(), Json::Str(p.clone())));
                }
            }
            Request::Explain { atom } => {
                fields.push(op("explain"));
                fields.push(("atom".into(), Json::Str(atom.clone())));
            }
            Request::Metrics => fields.push(op("metrics")),
            Request::Trace => fields.push(op("trace")),
            Request::Status => fields.push(op("status")),
            Request::Stats { prometheus } => {
                fields.push(op("stats"));
                if *prometheus {
                    fields.push(("format".into(), Json::Str("prometheus".into())));
                }
            }
            Request::Update { text, timeout_secs } => {
                fields.push(op("update"));
                fields.push(("text".into(), Json::Str(text.clone())));
                if let Some(secs) = timeout_secs {
                    fields.push(("timeout_secs".into(), Json::Num(*secs)));
                }
            }
            Request::Compact => fields.push(op("compact")),
            Request::Shutdown => fields.push(op("shutdown")),
        }
        Json::Obj(fields).render()
    }

    /// Parses a request frame. Errors name what was malformed; the
    /// server maps them to [`ErrorCode::Proto`].
    pub fn from_json(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = json::parse(text)?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        let str_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("op {op:?} requires a string {name:?} field"))
        };
        match op {
            "query" => Ok(Request::Query {
                atom: str_field("atom")?,
            }),
            "facts" => Ok(Request::Facts {
                predicate: doc
                    .get("predicate")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            }),
            "explain" => Ok(Request::Explain {
                atom: str_field("atom")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace),
            "status" => Ok(Request::Status),
            "stats" => {
                let prometheus = match doc.get("format").and_then(Json::as_str) {
                    None | Some("json") => false,
                    Some("prometheus") => true,
                    Some(other) => {
                        return Err(format!("unknown stats format {other:?}"));
                    }
                };
                Ok(Request::Stats { prometheus })
            }
            "update" => Ok(Request::Update {
                text: str_field("text")?,
                timeout_secs: doc.get("timeout_secs").and_then(Json::as_f64),
            }),
            "compact" => Ok(Request::Compact),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The closed set of machine-readable error codes a response can carry.
/// Clients (and the `flixr --connect` exit-code mapping) switch on
/// these, never on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its JSON was malformed, or the op is unknown.
    Proto,
    /// An atom, pattern, or update text failed to parse or compile.
    Parse,
    /// A query or explain named an unknown predicate or used the wrong
    /// arity.
    Query,
    /// The fact to explain is not in the resident model.
    Absent,
    /// The update delta does not fit the program (unknown predicate,
    /// arity mismatch, a value its lattice refuses —
    /// [`flix_core::DeltaError`]).
    Delta,
    /// The update's resume exhausted its budget/deadline; the delta is
    /// durable (WAL-logged) but not yet published.
    Budget,
    /// The update's resume failed (function panic, safety sentinel, …).
    Solve,
    /// A persistence operation (WAL append, compaction) failed.
    Persist,
    /// The request needs a capability the server was not started with
    /// (provenance, tracing, snapshot/WAL paths).
    Unsupported,
    /// Admission control rejected the request (update queue full, or a
    /// compaction requested while unpublished durable deltas exist).
    Busy,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::Parse => "parse",
            ErrorCode::Query => "query",
            ErrorCode::Absent => "absent",
            ErrorCode::Delta => "delta",
            ErrorCode::Budget => "budget",
            ErrorCode::Solve => "solve",
            ErrorCode::Persist => "persist",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses the wire form back.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "proto" => ErrorCode::Proto,
            "parse" => ErrorCode::Parse,
            "query" => ErrorCode::Query,
            "absent" => ErrorCode::Absent,
            "delta" => ErrorCode::Delta,
            "budget" => ErrorCode::Budget,
            "solve" => ErrorCode::Solve,
            "persist" => ErrorCode::Persist,
            "unsupported" => ErrorCode::Unsupported,
            "busy" => ErrorCode::Busy,
            "shutting-down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server response: the epoch it was served from plus the op-specific
/// body.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The epoch of the resident model this response describes.
    pub epoch: u64,
    /// The op-specific payload.
    pub body: ReplyBody,
}

/// The op-specific payload of a [`Reply`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// `query`: the matching facts, rendered `Pred(a, b)`, sorted.
    Answers(Vec<String>),
    /// `facts`: the requested facts, rendered `Pred(a, b)`, sorted.
    Facts(Vec<String>),
    /// `explain`: the rendered derivation tree.
    Explain(String),
    /// `metrics`: a `flix-metrics/1` document (pre-rendered JSON).
    Metrics(String),
    /// `trace`: a Chrome trace-event document (pre-rendered JSON).
    Trace(String),
    /// `status`: liveness counters.
    Status(Status),
    /// `stats`: a `flixd-stats/1` document (pre-rendered JSON).
    Stats(String),
    /// `stats` with `format:"prometheus"`: a text exposition.
    Prom(String),
    /// `update`: the batch published; `applied` delta entries rode in a
    /// batch of `batched` requests.
    Updated {
        /// Delta entries in this request's update.
        applied: u64,
        /// Update requests folded into the same published batch.
        batched: u64,
    },
    /// `compact`: the WAL was folded into the snapshot.
    Compacted {
        /// Frames absorbed into the snapshot.
        frames_absorbed: u64,
    },
    /// `shutdown`: acknowledged; the server is stopping.
    Stopping,
    /// Any op: the request failed.
    Error {
        /// The machine-readable code.
        code: ErrorCode,
        /// The human-readable message.
        message: String,
    },
}

/// The `status` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Status {
    /// Total facts in the resident model.
    pub facts: u64,
    /// Update *requests* folded into batches published since startup.
    /// A recovered daemon restarts this at 0 even though its epoch does
    /// not; pair with `epoch` (on the [`Reply`]) and `batches_applied`.
    pub updates_applied: u64,
    /// Update *batches* published since startup (several queued
    /// requests can fold into one batch).
    pub batches_applied: u64,
    /// Read requests (query, facts, explain, metrics, stats, trace)
    /// answered since startup.
    pub queries_served: u64,
    /// Update requests currently queued or mid-resume.
    pub pending_updates: u64,
    /// Durable (WAL-logged) delta entries not yet published — non-zero
    /// only after a guarded resume failure; see DESIGN.md §17.
    pub unapplied_durable: u64,
    /// Seconds since the server finished loading.
    pub uptime_secs: f64,
}

impl Reply {
    /// Renders the reply as its JSON wire form.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let ok = !matches!(self.body, ReplyBody::Error { .. });
        fields.push(("ok".into(), Json::Bool(ok)));
        fields.push(("epoch".into(), Json::Num(self.epoch as f64)));
        let strings = |xs: &[String]| Json::Arr(xs.iter().cloned().map(Json::Str).collect());
        match &self.body {
            ReplyBody::Answers(xs) => fields.push(("answers".into(), strings(xs))),
            ReplyBody::Facts(xs) => fields.push(("facts".into(), strings(xs))),
            ReplyBody::Explain(tree) => fields.push(("tree".into(), Json::Str(tree.clone()))),
            ReplyBody::Metrics(doc) => fields.push(("metrics".into(), Json::Raw(doc.clone()))),
            ReplyBody::Trace(doc) => fields.push(("trace".into(), Json::Raw(doc.clone()))),
            ReplyBody::Status(s) => {
                fields.push(("facts".into(), Json::Num(s.facts as f64)));
                fields.push((
                    "updates_applied".into(),
                    Json::Num(s.updates_applied as f64),
                ));
                fields.push((
                    "batches_applied".into(),
                    Json::Num(s.batches_applied as f64),
                ));
                fields.push(("queries_served".into(), Json::Num(s.queries_served as f64)));
                fields.push((
                    "pending_updates".into(),
                    Json::Num(s.pending_updates as f64),
                ));
                fields.push((
                    "unapplied_durable".into(),
                    Json::Num(s.unapplied_durable as f64),
                ));
                fields.push(("uptime_secs".into(), Json::Num(s.uptime_secs)));
            }
            ReplyBody::Stats(doc) => fields.push(("stats".into(), Json::Raw(doc.clone()))),
            ReplyBody::Prom(text) => fields.push(("prom".into(), Json::Str(text.clone()))),
            ReplyBody::Updated { applied, batched } => {
                fields.push(("applied".into(), Json::Num(*applied as f64)));
                fields.push(("batched".into(), Json::Num(*batched as f64)));
            }
            ReplyBody::Compacted { frames_absorbed } => {
                fields.push(("frames_absorbed".into(), Json::Num(*frames_absorbed as f64)));
            }
            ReplyBody::Stopping => fields.push(("stopping".into(), Json::Bool(true))),
            ReplyBody::Error { code, message } => {
                fields.push(("code".into(), Json::Str(code.as_str().to_string())));
                fields.push(("error".into(), Json::Str(message.clone())));
            }
        }
        Json::Obj(fields).render()
    }

    /// Parses a response frame back into a [`Reply`]. The body variant
    /// is keyed off the fields present, mirroring `to_json`.
    pub fn from_json(payload: &[u8]) -> Result<Reply, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = json::parse(text)?;
        let epoch = doc
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or("missing \"epoch\" field")?;
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing \"ok\" field")?;
        let string_list = |key: &str| -> Option<Vec<String>> {
            doc.get(key).and_then(Json::as_array).map(|xs| {
                xs.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
        };
        let body = if !ok {
            let code = doc
                .get("code")
                .and_then(Json::as_str)
                .and_then(ErrorCode::from_wire)
                .ok_or("error reply carries no known \"code\"")?;
            let message = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            ReplyBody::Error { code, message }
        } else if let Some(xs) = string_list("answers") {
            ReplyBody::Answers(xs)
        } else if let Some(xs) = string_list("facts") {
            // `status` also carries a numeric "facts"; disambiguated by
            // the array type here and the counters below.
            ReplyBody::Facts(xs)
        } else if let Some(tree) = doc.get("tree").and_then(Json::as_str) {
            ReplyBody::Explain(tree.to_string())
        } else if let Some(metrics) = doc.get("metrics") {
            ReplyBody::Metrics(metrics.render())
        } else if let Some(trace) = doc.get("trace") {
            ReplyBody::Trace(trace.render())
        } else if let Some(stats) = doc.get("stats") {
            ReplyBody::Stats(stats.render())
        } else if let Some(prom) = doc.get("prom").and_then(Json::as_str) {
            ReplyBody::Prom(prom.to_string())
        } else if doc.get("uptime_secs").is_some() {
            let counter = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
            ReplyBody::Status(Status {
                facts: counter("facts"),
                updates_applied: counter("updates_applied"),
                batches_applied: counter("batches_applied"),
                queries_served: counter("queries_served"),
                pending_updates: counter("pending_updates"),
                unapplied_durable: counter("unapplied_durable"),
                uptime_secs: doc.get("uptime_secs").and_then(Json::as_f64).unwrap_or(0.0),
            })
        } else if doc.get("applied").is_some() {
            ReplyBody::Updated {
                applied: doc.get("applied").and_then(Json::as_u64).unwrap_or(0),
                batched: doc.get("batched").and_then(Json::as_u64).unwrap_or(1),
            }
        } else if let Some(frames) = doc.get("frames_absorbed").and_then(Json::as_u64) {
            ReplyBody::Compacted {
                frames_absorbed: frames,
            }
        } else if doc.get("stopping").is_some() {
            ReplyBody::Stopping
        } else {
            return Err("reply has no recognizable body".into());
        };
        Ok(Reply { epoch, body })
    }
}

/// The hello frame the server sends on accept.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The protocol identifier; clients reject anything but
    /// [`PROTOCOL`].
    pub proto: String,
    /// The epoch of the resident model at accept time.
    pub epoch: u64,
    /// Total facts in the resident model at accept time.
    pub facts: u64,
    /// The program fingerprint (`flix_core::program_fingerprint`),
    /// rendered `0x…`, so clients can detect talking to a daemon
    /// serving a different program.
    pub fingerprint: String,
}

impl Hello {
    /// Renders the hello as its JSON wire form.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("proto".into(), Json::Str(self.proto.clone())),
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("facts".into(), Json::Num(self.facts as f64)),
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
        ])
        .render()
    }

    /// Parses a hello frame.
    pub fn from_json(payload: &[u8]) -> Result<Hello, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = json::parse(text)?;
        Ok(Hello {
            proto: doc
                .get("proto")
                .and_then(Json::as_str)
                .ok_or("missing \"proto\"")?
                .to_string(),
            epoch: doc.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            facts: doc.get("facts").and_then(Json::as_u64).unwrap_or(0),
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Query {
                atom: "Dist(\"a\", _)".into(),
            },
            Request::Facts { predicate: None },
            Request::Facts {
                predicate: Some("Path".into()),
            },
            Request::Explain {
                atom: "Path(1, 3)".into(),
            },
            Request::Metrics,
            Request::Trace,
            Request::Status,
            Request::Stats { prometheus: false },
            Request::Stats { prometheus: true },
            Request::Update {
                text: "rel Edge(x: Int, y: Int);\nEdge(1, 2).\n".into(),
                timeout_secs: Some(2.5),
            },
            Request::Compact,
            Request::Shutdown,
        ];
        for req in requests {
            let wire = req.to_json();
            assert_eq!(Request::from_json(wire.as_bytes()).expect("parses"), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply {
                epoch: 7,
                body: ReplyBody::Answers(vec!["Dist(\"a\", MinCost(0))".into()]),
            },
            Reply {
                epoch: 7,
                body: ReplyBody::Facts(vec!["Edge(1, 2)".into(), "Path(1, 2)".into()]),
            },
            Reply {
                epoch: 1,
                body: ReplyBody::Explain("Path(1, 2)\n└─ Edge(1, 2)\n".into()),
            },
            Reply {
                epoch: 2,
                body: ReplyBody::Status(Status {
                    facts: 10,
                    updates_applied: 1,
                    batches_applied: 1,
                    queries_served: 3,
                    pending_updates: 0,
                    unapplied_durable: 0,
                    uptime_secs: 1.25,
                }),
            },
            Reply {
                epoch: 2,
                // Raw splice round-trips through a parse + re-render, so
                // the fixture must already be in canonical compact form.
                body: ReplyBody::Stats("{\"schema\":\"flixd-stats/1\",\"epoch\":2}".to_string()),
            },
            Reply {
                epoch: 2,
                body: ReplyBody::Prom(
                    "flixd_epoch 2\nflixd_requests_total{op=\"query\"} 1\n".into(),
                ),
            },
            Reply {
                epoch: 3,
                body: ReplyBody::Updated {
                    applied: 2,
                    batched: 1,
                },
            },
            Reply {
                epoch: 3,
                body: ReplyBody::Compacted { frames_absorbed: 5 },
            },
            Reply {
                epoch: 3,
                body: ReplyBody::Stopping,
            },
            Reply {
                epoch: 3,
                body: ReplyBody::Error {
                    code: ErrorCode::Busy,
                    message: "update queue is full".into(),
                },
            },
        ];
        for reply in replies {
            let wire = reply.to_json();
            assert_eq!(Reply::from_json(wire.as_bytes()).expect("parses"), reply);
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"status\"}").expect("writes");
        write_frame(&mut buf, b"").expect("writes");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).expect("reads").as_deref(),
            Some(&b"{\"op\":\"status\"}"[..])
        );
        assert_eq!(
            read_frame(&mut r).expect("reads").as_deref(),
            Some(&b""[..])
        );
        assert_eq!(read_frame(&mut r).expect("reads"), None);
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").expect("writes");
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
