//! Schema validator for `flixd-stats/1` telemetry documents.
//!
//! ```text
//! validate_stats [--require-nonzero OP[,OP...]] [FILE]
//! ```
//!
//! Reads the document from `FILE` (or stdin when omitted), checks every
//! field the schema promises (DESIGN.md §17.6) is present with the
//! right shape, and — with `--require-nonzero` — that the named request
//! ops recorded at least one request and one latency sample. CI pipes
//! `flixr --connect SOCKET --stats` through this after its smoke
//! workload, so a telemetry regression that silently stops counting
//! fails the build.

use flix_core::json::{parse, Json};
use std::io::Read;
use std::process::ExitCode;

/// Every op slot the `requests` object must carry, in schema order.
const OPS: &[&str] = &[
    "query", "facts", "explain", "metrics", "trace", "status", "stats", "update", "compact",
    "shutdown",
];

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("validate_stats: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut require_nonzero: Vec<String> = Vec::new();
    let mut file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-nonzero" => match it.next() {
                Some(ops) => require_nonzero.extend(ops.split(',').map(str::to_string)),
                None => return fail("--require-nonzero requires a comma-separated op list"),
            },
            "--help" | "-h" => {
                println!("usage: validate_stats [--require-nonzero OP[,OP...]] [FILE]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return fail(format!("unknown option {other}")),
            path => file = Some(path.to_string()),
        }
    }
    for op in &require_nonzero {
        if !OPS.contains(&op.as_str()) {
            return fail(format!("--require-nonzero: unknown op {op:?}"));
        }
    }

    let text = match &file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(format!("cannot read {path}: {e}")),
        },
        None => {
            let mut text = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                return fail(format!("cannot read stdin: {e}"));
            }
            text
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => return fail(format!("document is not JSON: {e}")),
    };
    match validate(&doc, &require_nonzero) {
        Ok(summary) => {
            println!("validate_stats: ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn validate(doc: &Json, require_nonzero: &[String]) -> Result<String, String> {
    let field = |parent: &Json, path: &str, key: &str| -> Result<Json, String> {
        parent
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing field {path}{key}"))
    };
    let counter = |parent: &Json, path: &str, key: &str| -> Result<u64, String> {
        field(parent, path, key)?
            .as_u64()
            .ok_or_else(|| format!("{path}{key} is not a non-negative integer"))
    };
    let number = |parent: &Json, path: &str, key: &str| -> Result<f64, String> {
        field(parent, path, key)?
            .as_f64()
            .ok_or_else(|| format!("{path}{key} is not a number"))
    };
    let boolean = |parent: &Json, path: &str, key: &str| -> Result<(), String> {
        match field(parent, path, key)? {
            Json::Bool(_) => Ok(()),
            _ => Err(format!("{path}{key} is not a boolean")),
        }
    };
    let histogram = |parent: &Json, path: &str, key: &str| -> Result<u64, String> {
        let hist = field(parent, path, key)?;
        let prefix = format!("{path}{key}.");
        let count = counter(&hist, &prefix, "count")?;
        counter(&hist, &prefix, "sum")?;
        counter(&hist, &prefix, "max")?;
        let buckets = field(&hist, &prefix, "buckets")?;
        let buckets = buckets
            .as_array()
            .ok_or_else(|| format!("{prefix}buckets is not an array"))?;
        if buckets.len() != 40 {
            return Err(format!(
                "{prefix}buckets has {} buckets, want 40",
                buckets.len()
            ));
        }
        let bucketed: u64 = buckets
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or_else(|| format!("{prefix}buckets entry is not a count"))
            })
            .sum::<Result<u64, _>>()?;
        // A render racing a recorder may see a bucketed-but-uncounted
        // sample; the reverse would mean the ordering invariant broke.
        if bucketed < count {
            return Err(format!(
                "{prefix}count is {count} but the buckets hold only {bucketed} samples"
            ));
        }
        Ok(count)
    };

    match doc.get("schema").and_then(Json::as_str) {
        Some("flixd-stats/1") => {}
        Some(other) => return Err(format!("schema is {other:?}, want \"flixd-stats/1\"")),
        None => return Err("missing field schema".into()),
    }
    let epoch = counter(doc, "", "epoch")?;
    number(doc, "", "uptime_secs")?;
    counter(doc, "", "facts")?;

    let connections = field(doc, "", "connections")?;
    for key in ["opened", "closed", "active"] {
        counter(&connections, "connections.", key)?;
    }

    let requests = field(doc, "", "requests")?;
    let mut total_requests = 0u64;
    for op in OPS {
        let slot = field(&requests, "requests.", op)?;
        let prefix = format!("requests.{op}.");
        let count = counter(&slot, &prefix, "count")?;
        counter(&slot, &prefix, "bytes_in")?;
        counter(&slot, &prefix, "bytes_out")?;
        let errors = field(&slot, &prefix, "errors")?;
        if !matches!(errors, Json::Obj(_)) {
            return Err(format!("{prefix}errors is not an object"));
        }
        let samples = histogram(&slot, &prefix, "latency_ns")?;
        // The request counter bumps before the latency sample lands, so
        // a racing render may briefly see one more request than sample.
        if samples > count {
            return Err(format!(
                "{prefix}count is {count} but latency_ns recorded {samples} samples"
            ));
        }
        total_requests += count;
        if require_nonzero.iter().any(|want| want == op) && (count == 0 || samples == 0) {
            return Err(format!(
                "requests.{op} recorded {count} requests / {samples} latency samples \
                 but was required non-zero"
            ));
        }
    }

    counter(doc, "", "proto_errors")?;
    counter(doc, "", "slow_queries")?;
    counter(doc, "", "metrics_cache_hits")?;

    let writer = field(doc, "", "writer")?;
    for key in [
        "batches_applied",
        "batches_failed",
        "updates_applied",
        "pending_updates",
        "unapplied_durable",
    ] {
        counter(&writer, "writer.", key)?;
    }
    number(&writer, "writer.", "carryover_age_secs")?;
    for key in [
        "entries_per_batch",
        "riders_per_batch",
        "resume_ns",
        "wal_append_ns",
        "publish_gap_ns",
    ] {
        histogram(&writer, "writer.", key)?;
    }

    let compaction = field(doc, "", "compaction")?;
    counter(&compaction, "compaction.", "count")?;
    counter(&compaction, "compaction.", "failed")?;

    let recovery = field(doc, "", "recovery")?;
    for key in ["performed", "snapshot_loaded", "scratch_solve"] {
        boolean(&recovery, "recovery.", key)?;
    }
    for key in [
        "wal_frames_replayed",
        "wal_entries_replayed",
        "wal_bytes_dropped",
    ] {
        counter(&recovery, "recovery.", key)?;
    }

    let events = field(doc, "", "events")?;
    counter(&events, "events.", "logged")?;
    counter(&events, "events.", "dropped")?;

    Ok(format!("epoch {epoch}, {total_requests} requests recorded"))
}
