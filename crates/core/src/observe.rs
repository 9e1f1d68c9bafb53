//! Solver observability: per-rule / per-stratum work profiles, the
//! pluggable [`Observer`] trait, and the stable metrics-JSON rendering.
//!
//! The paper's §6 evaluation reasons from per-analysis work profiles
//! (rounds, derivations, strategy ablations); this module is the
//! instrument that produces them. Every solve populates
//! [`SolveStats::per_rule`] and [`SolveStats::per_stratum`] so callers can
//! see *which* rule or stratum burns the time, and [`MetricsReport`]
//! renders the whole profile as a stable machine-readable JSON document
//! (schema `flix-metrics/1`, specified in DESIGN.md §10) produced by
//! `flixr --metrics-json` and `flixd`'s `metrics` op.

use crate::json::write_escaped;
use crate::solver::SolveStats;
use crate::trace::AscentWarning;
use std::fmt::Write as _;

/// Work profile of one rule, accumulated across all rounds of a solve.
///
/// `inserted` (net database changes, credited to the rule that first
/// changed the fact in its round) is strategy-invariant: naïve and
/// semi-naïve evaluation, sequential or parallel, credit the same rules.
/// `evaluations`, `derived`, `probes`, `scans`, and `eval_ns` describe the
/// work a particular strategy performed and differ across strategies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule index within the program (the order rules were added).
    pub rule: usize,
    /// The name of the rule's head predicate.
    pub head: String,
    /// Evaluations of this rule (each delta variant counts separately).
    pub evaluations: u64,
    /// Gross head tuples produced (before deduplication and subsumption).
    pub derived: u64,
    /// Net database changes: new tuples, plus lattice cells this rule was
    /// the first to strictly increase in a round.
    pub inserted: u64,
    /// Index probes performed while evaluating this rule's body.
    pub probes: u64,
    /// Full-scan fallbacks while evaluating this rule's body.
    pub scans: u64,
    /// Cumulative wall-clock time spent evaluating this rule, in
    /// nanoseconds.
    pub eval_ns: u64,
}

/// Work profile of one stratum: its rounds and how fast they converged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StratumStats {
    /// The stratum index in evaluation order (0-based).
    pub stratum: usize,
    /// Fixed-point rounds executed in this stratum.
    pub rounds: u64,
    /// Net database changes per round, in round order: distinct new
    /// tuples plus distinct lattice cells that strictly increased (a cell
    /// climbing through several values within one round counts once).
    /// The final entry is `0` for a converged stratum (the round that
    /// observed no change).
    pub delta_sizes: Vec<u64>,
}

/// A pluggable listener for solver progress events.
///
/// Attach one with [`crate::Solver::observer`]. All callbacks fire on the
/// thread driving the solve, never from worker threads, so
/// implementations need no internal ordering logic. Every method has a
/// no-op default body, and the solver skips all bookkeeping branches when
/// no observer is attached, keeping the hot path free. Per-rule work is
/// not an event: read [`SolveStats::per_rule`] or the `RuleEval` spans of
/// a recorded trace.
pub trait Observer: Send + Sync {
    /// A fixed-point round is starting. `round` is the global round
    /// number (1-based, counting across strata); `facts` is the database
    /// size (rows plus non-bottom lattice cells) entering the round.
    fn round_started(&self, stratum: usize, round: u64, facts: u64) {
        let _ = (stratum, round, facts);
    }

    /// The run finished — fired exactly once per `solve`, `resume`, or
    /// `solve_query` call, on success *and* on guarded failure, with the
    /// final statistics (for `solve_query`, already re-aggregated onto
    /// the original rules). External observers can bracket runs with
    /// this instead of wrapping the call site.
    fn solve_finished(&self, stats: &SolveStats) {
        let _ = stats;
    }

    /// A lattice cell crossed the configured ascending-chain height
    /// threshold (see [`crate::AscentConfig::warn_height`]). Non-fatal:
    /// the solve continues. Fires at most once per cell per run.
    fn ascent_warning(&self, warning: &AscentWarning) {
        let _ = warning;
    }
}

/// One solver run plus the run metadata needed for a self-describing
/// metrics record. Render a batch with [`render_metrics_json`].
#[derive(Clone, Debug)]
pub struct MetricsReport<'a> {
    /// A label identifying the run (an input file, a benchmark id, ...).
    pub name: &'a str,
    /// The evaluation strategy, as reported by
    /// [`crate::Strategy::name`].
    pub strategy: &'a str,
    /// The worker-thread count the solver ran with.
    pub threads: usize,
    /// The run's statistics, including the per-rule and per-stratum
    /// breakdowns.
    pub stats: &'a SolveStats,
}

/// The identifier of the metrics JSON schema emitted by
/// [`render_metrics_json`] (documented in DESIGN.md §10).
pub const METRICS_SCHEMA: &str = "flix-metrics/1";

/// Renders a batch of runs as the stable `flix-metrics/1` JSON document:
///
/// ```json
/// {"schema": "flix-metrics/1", "runs": [ ... ]}
/// ```
///
/// The output is deterministic (object keys in a fixed order, runs in
/// input order) and uses only integers and strings, so byte-level diffs
/// of two reports are meaningful.
pub fn render_metrics_json(reports: &[MetricsReport<'_>]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": ");
    write_escaped(&mut out, METRICS_SCHEMA);
    out.push_str(",\n  \"runs\": [");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_run(&mut out, report);
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn push_run(out: &mut String, report: &MetricsReport<'_>) {
    let s = report.stats;
    out.push_str("{\"name\": ");
    write_escaped(out, report.name);
    out.push_str(", \"strategy\": ");
    write_escaped(out, report.strategy);
    let _ = write!(
        out,
        ", \"threads\": {}, \"wall_ns\": {}, \"rounds\": {}, \
         \"rule_evaluations\": {}, \"facts_derived\": {}, \
         \"facts_inserted\": {}, \"index_probes\": {}, \
         \"scan_fallbacks\": {}, \"strata\": {}, \"total_facts\": {}",
        report.threads,
        s.wall_ns,
        s.rounds,
        s.rule_evaluations,
        s.facts_derived,
        s.facts_inserted,
        s.index_probes,
        s.scan_fallbacks,
        s.strata,
        s.total_facts,
    );
    out.push_str(", \"per_rule\": [");
    for (i, r) in s.per_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"rule\": ");
        let _ = write!(out, "{}", r.rule);
        out.push_str(", \"head\": ");
        write_escaped(out, &r.head);
        let _ = write!(
            out,
            ", \"evaluations\": {}, \"derived\": {}, \"inserted\": {}, \
             \"probes\": {}, \"scans\": {}, \"eval_ns\": {}}}",
            r.evaluations, r.derived, r.inserted, r.probes, r.scans, r.eval_ns,
        );
    }
    out.push_str("], \"per_stratum\": [");
    for (i, st) in s.per_stratum.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"stratum\": {}, \"rounds\": {}, \"delta_sizes\": [",
            st.stratum, st.rounds,
        );
        for (j, d) in st.delta_sizes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{d}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Renders the per-rule profile as a ranked, human-readable table
/// (hottest rule first, by cumulative evaluation time), as printed by
/// `flixr --profile`.
pub fn render_profile_table(stats: &SolveStats) -> String {
    let mut rules: Vec<&RuleStats> = stats.per_rule.iter().collect();
    rules.sort_by(|a, b| b.eval_ns.cmp(&a.eval_ns).then(a.rule.cmp(&b.rule)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>8} {:>10} {:>10} {:>10} {:>7} {:>10}",
        "rule", "head", "evals", "derived", "inserted", "probes", "scans", "time"
    );
    for r in &rules {
        let _ = writeln!(
            out,
            "{:<6} {:<20} {:>8} {:>10} {:>10} {:>10} {:>7} {:>10}",
            format!("#{}", r.rule),
            r.head,
            r.evaluations,
            r.derived,
            r.inserted,
            r.probes,
            r.scans,
            format_ns(r.eval_ns),
        );
    }
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>8} {:>10} {:>10} {:>10} {:>7} {:>10}",
        "total",
        "",
        stats.rule_evaluations,
        stats.facts_derived,
        stats.facts_inserted,
        stats.index_probes,
        stats.scan_fallbacks,
        format_ns(stats.wall_ns),
    );
    let _ = writeln!(
        out,
        "rounds: {}  strata: {}  total facts: {}",
        stats.rounds, stats.strata, stats.total_facts
    );
    out
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn keys(object: &Json) -> Vec<&str> {
        match object {
            Json::Obj(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn report_renders_stable_schema() {
        let mut stats = SolveStats::default();
        stats.per_rule.push(RuleStats {
            rule: 0,
            head: "Path".into(),
            evaluations: 3,
            derived: 10,
            inserted: 4,
            probes: 7,
            scans: 1,
            eval_ns: 1234,
        });
        stats.per_stratum.push(StratumStats {
            stratum: 0,
            rounds: 2,
            delta_sizes: vec![4, 0],
        });
        let name = "unit \"quoted\" back\\slash\nnewline\rreturn\ttab \u{1} control — π";
        let json = render_metrics_json(&[MetricsReport {
            name,
            strategy: "semi-naive",
            threads: 1,
            stats: &stats,
        }]);
        assert!(json.contains("\"schema\": \"flix-metrics/1\""), "{json}");
        assert!(json.contains("\"head\": \"Path\""), "{json}");
        assert!(json.contains("\"delta_sizes\": [4, 0]"), "{json}");

        // The document is JSON, and every object carries exactly the
        // keys `flix-metrics/1` promises (DESIGN.md §10).
        let doc = parse(&json).expect("the report is valid JSON");
        assert_eq!(keys(&doc), ["schema", "runs"]);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(METRICS_SCHEMA)
        );
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            keys(&runs[0]),
            [
                "name",
                "strategy",
                "threads",
                "wall_ns",
                "rounds",
                "rule_evaluations",
                "facts_derived",
                "facts_inserted",
                "index_probes",
                "scan_fallbacks",
                "strata",
                "total_facts",
                "per_rule",
                "per_stratum",
            ]
        );
        let rules = runs[0].get("per_rule").and_then(Json::as_array);
        assert_eq!(
            keys(&rules.expect("per_rule")[0]),
            [
                "rule",
                "head",
                "evaluations",
                "derived",
                "inserted",
                "probes",
                "scans",
                "eval_ns"
            ]
        );
        let strata = runs[0].get("per_stratum").and_then(Json::as_array);
        assert_eq!(
            keys(&strata.expect("per_stratum")[0]),
            ["stratum", "rounds", "delta_sizes"]
        );
        // The name needs every escape class the writer has; it reads
        // back as written.
        assert_eq!(runs[0].get("name").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn profile_table_ranks_by_time() {
        let mut stats = SolveStats::default();
        for (i, ns) in [(0usize, 10u64), (1, 5_000_000), (2, 900)] {
            stats.per_rule.push(RuleStats {
                rule: i,
                head: format!("P{i}"),
                eval_ns: ns,
                ..RuleStats::default()
            });
        }
        let table = render_profile_table(&stats);
        let p1 = table.find("#1").expect("#1 present");
        let p2 = table.find("#2").expect("#2 present");
        let p0 = table.find("#0").expect("#0 present");
        assert!(p1 < p2 && p2 < p0, "hottest first:\n{table}");
        assert!(table.contains("5.00ms"), "{table}");
    }
}
