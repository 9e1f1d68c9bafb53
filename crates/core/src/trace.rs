//! Execution tracing and lattice-ascent diagnostics.
//!
//! Two instruments live here, both off by default and free on the hot
//! path when disabled:
//!
//! * **Span tracing** ([`TraceConfig`], [`ExecutionTrace`]): the solver
//!   records hierarchical spans — solve → stratum → round → rule-eval,
//!   a round's index catch-up before its rule evaluations and its absorb
//!   after them, plus resume-seeding (with a retraction's taint and delete steps
//!   inside it) and demand-rewrite phases — into bounded
//!   per-worker ring buffers (drop-oldest, with a [`dropped_events`]
//!   counter) that are merged when the solve ends. The merged trace
//!   exports as Chrome trace-event JSON ([`ExecutionTrace::to_chrome_json`],
//!   loadable in Perfetto or `chrome://tracing`, one track per worker
//!   thread) or as folded-stack flamegraph text
//!   ([`ExecutionTrace::to_folded`], consumable by `flamegraph.pl` or
//!   `inferno`).
//! * **Ascent telemetry** ([`AscentConfig`], [`AscentReport`]): the
//!   database counts, per lattice cell, how many joins it absorbed and
//!   how many times it *strictly* increased — its height in the
//!   ascending chain. §3.2 and §7 of the paper make termination depend
//!   exactly on those chains being finite, so a cell climbing past a
//!   configured threshold is the practical smoke test for an
//!   infinite-ascent lattice (Interval without widening); the solver
//!   reports it as a non-fatal [`AscentWarning`] through the
//!   [`crate::Observer`] and the final heights aggregate into an
//!   [`AscentReport`] (chain-height histogram, top-K hottest cells,
//!   per-lattice-type maxima).
//!
//! [`dropped_events`]: ExecutionTrace::dropped_events

use crate::value::Value;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for the execution tracer, attached with
/// [`crate::Solver::trace`].
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Maximum events retained per worker track. When a track overflows,
    /// the *oldest* events are dropped and counted in
    /// [`ExecutionTrace::dropped_events`].
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            buffer_capacity: 1 << 16,
        }
    }
}

/// What a traced span covered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole solve (or resume, or query), coordinator track.
    Solve,
    /// Loading the program's ground facts into the database.
    LoadFacts,
    /// `resume`: applying the delta and seeding the warm-start worklist.
    ResumeSeed,
    /// Inside [`SpanKind::ResumeSeed`], a retracting `resume` only:
    /// finding the cone of consequences of the removed assertions.
    ResumeTaint,
    /// Inside [`SpanKind::ResumeSeed`], a retracting `resume` only:
    /// deleting the cone's facts from the warm-start copy of the
    /// database (taking the copy is not part of it).
    ResumeDelete,
    /// `solve_query`: running the magic-set rewrite and re-stratifying.
    DemandRewrite,
    /// One stratum of the fixed-point computation.
    Stratum {
        /// The stratum index (0-based, evaluation order).
        stratum: usize,
    },
    /// One fixed-point round within a stratum.
    Round {
        /// The enclosing stratum.
        stratum: usize,
        /// The global round number (1-based, counting across strata).
        round: u64,
    },
    /// Inside [`SpanKind::Round`], before its rule evaluations: bringing
    /// the indexes the round's plans probe up to date.
    IndexCatchUp {
        /// The enclosing stratum.
        stratum: usize,
        /// The enclosing global round number.
        round: u64,
    },
    /// Inside [`SpanKind::Round`], after its rule evaluations: absorbing
    /// what they derived into the database.
    Absorb {
        /// The enclosing stratum.
        stratum: usize,
        /// The enclosing global round number.
        round: u64,
    },
    /// One rule evaluation (one delta variant, a full evaluation, or a
    /// retracting `resume`'s head-bound re-derivation).
    RuleEval {
        /// The enclosing stratum.
        stratum: usize,
        /// The enclosing global round number.
        round: u64,
        /// The rule index within the program.
        rule: usize,
        /// The semi-naïve delta variant (an index into the rule's
        /// positive body atoms), or `None` for a full evaluation. The
        /// head-bound plan of a retracting `resume` is reported under the
        /// number after the last delta variant — the count of the rule's
        /// positive body atoms.
        variant: Option<usize>,
        /// Head tuples produced by this evaluation.
        derived: u64,
    },
}

/// One recorded span: a [`SpanKind`] with its track and timing.
///
/// Timestamps are nanoseconds since the solve started (`start_ns`), so
/// every event in one [`ExecutionTrace`] shares a single clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the span covered.
    pub kind: SpanKind,
    /// The track: 0 is the coordinator thread, 1..=N are worker slots.
    pub tid: u32,
    /// Span start, nanoseconds since the solve began.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A bounded drop-oldest event buffer: one per worker track.
#[derive(Debug)]
pub(crate) struct Ring {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Ring {
        Ring {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends one event, dropping the oldest if the ring is full.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Folds another ring (a per-round worker buffer) into this track,
    /// preserving the capacity bound.
    fn absorb(&mut self, other: Ring) {
        self.dropped += other.dropped;
        for event in other.events {
            self.push(event);
        }
    }
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    /// One ring per track (`tid`), grown on first use.
    slots: Mutex<Vec<Ring>>,
}

/// The per-solve recording context, threaded by reference through every
/// execution path. All methods are no-ops when tracing is disabled, so
/// the hot path pays one `Option` discriminant test at span boundaries
/// and nothing per fact.
pub(crate) struct Tracer {
    inner: Option<TracerInner>,
}

impl Tracer {
    /// A tracer for one solve; records only if `config` is present.
    pub(crate) fn new(config: Option<&TraceConfig>) -> Tracer {
        Tracer {
            inner: config.map(|c| TracerInner {
                epoch: Instant::now(),
                capacity: c.buffer_capacity,
                slots: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Nanoseconds since the solve began (0 when disabled).
    pub(crate) fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Converts an already-taken [`Instant`] to trace time.
    pub(crate) fn at_ns(&self, at: Instant) -> u64 {
        match &self.inner {
            Some(inner) => at
                .checked_duration_since(inner.epoch)
                .map_or(0, |d| d.as_nanos() as u64),
            None => 0,
        }
    }

    /// A fresh local ring for a worker to record into without
    /// synchronisation; merge it back with [`Tracer::merge`]. `None`
    /// when tracing is disabled, so workers skip recording entirely.
    pub(crate) fn local_ring(&self) -> Option<Ring> {
        self.inner.as_ref().map(|inner| Ring::new(inner.capacity))
    }

    /// Folds a worker's local ring into its track.
    pub(crate) fn merge(&self, tid: u32, ring: Option<Ring>) {
        let (Some(inner), Some(ring)) = (&self.inner, ring) else {
            return;
        };
        let mut slots = inner.slots.lock().expect("tracer slots");
        let idx = tid as usize;
        while slots.len() <= idx {
            let capacity = inner.capacity;
            slots.push(Ring::new(capacity));
        }
        slots[idx].absorb(ring);
    }

    /// Records one span on a track directly (coordinator-side spans).
    pub(crate) fn record(&self, tid: u32, kind: SpanKind, start_ns: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let dur_ns = inner.epoch.elapsed().as_nanos() as u64 - start_ns;
        let mut slots = inner.slots.lock().expect("tracer slots");
        let idx = tid as usize;
        while slots.len() <= idx {
            let capacity = inner.capacity;
            slots.push(Ring::new(capacity));
        }
        slots[idx].push(TraceEvent {
            kind,
            tid,
            start_ns,
            dur_ns,
        });
    }

    /// Merges every track into the final [`ExecutionTrace`].
    /// `rule_heads[r]` names rule `r`'s head predicate for rendering.
    pub(crate) fn finish(&self, rule_heads: Vec<String>) -> Option<ExecutionTrace> {
        let inner = self.inner.as_ref()?;
        let mut slots = inner.slots.lock().expect("tracer slots");
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut workers = 0u32;
        for ring in slots.drain(..) {
            dropped += ring.dropped;
            for event in &ring.events {
                workers = workers.max(event.tid);
            }
            events.extend(ring.events);
        }
        // Parents before children: earlier start first, longer span first
        // on ties.
        events.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.dur_ns.cmp(&a.dur_ns))
                .then(a.tid.cmp(&b.tid))
        });
        Some(ExecutionTrace {
            events,
            dropped_events: dropped,
            workers,
            rule_heads,
        })
    }
}

/// The merged spans of one solve, held by [`crate::Solution::trace`].
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
    dropped_events: u64,
    workers: u32,
    rule_heads: Vec<String>,
}

impl ExecutionTrace {
    /// The recorded spans, sorted by start time (parents before
    /// children).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events lost to ring-buffer overflow across all tracks.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The highest worker track that recorded an event (0 when only the
    /// coordinator track recorded; worker tracks are 1-based).
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Rewrites rule indices through `origin` (rewritten rule → original
    /// rule) and replaces the head names — how `solve_query` collapses
    /// demand-internal spans onto the user's rules.
    pub(crate) fn remap_rules(&mut self, origin: &[usize], rule_heads: Vec<String>) {
        for event in &mut self.events {
            if let SpanKind::RuleEval { rule, .. } = &mut event.kind {
                if let Some(&orig) = origin.get(*rule) {
                    *rule = orig;
                }
            }
        }
        self.rule_heads = rule_heads;
    }

    fn span_name(&self, kind: &SpanKind) -> String {
        match kind {
            SpanKind::Solve => "solve".to_string(),
            SpanKind::LoadFacts => "load facts".to_string(),
            SpanKind::ResumeSeed => "resume seed".to_string(),
            SpanKind::ResumeTaint => "taint".to_string(),
            SpanKind::ResumeDelete => "delete".to_string(),
            SpanKind::DemandRewrite => "demand rewrite".to_string(),
            SpanKind::Stratum { stratum } => format!("stratum {stratum}"),
            SpanKind::Round { round, .. } => format!("round {round}"),
            SpanKind::IndexCatchUp { .. } => "index catch-up".to_string(),
            SpanKind::Absorb { .. } => "absorb".to_string(),
            SpanKind::RuleEval { rule, .. } => {
                let head = self
                    .rule_heads
                    .get(*rule)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("#{rule} {head}")
            }
        }
    }

    /// Renders the trace as Chrome trace-event JSON (the "JSON Array
    /// Format" with a `traceEvents` wrapper): one complete (`ph:"X"`)
    /// event per span, timestamps in microseconds, one `tid` per worker
    /// track plus metadata (`ph:"M"`) events naming the tracks. Load the
    /// output in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n");
        let _ = writeln!(out, "  \"droppedEvents\": {},", self.dropped_events);
        out.push_str("  \"traceEvents\": [");
        let mut first = true;
        let mut emit = |out: &mut String, body: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            out.push_str(body);
        };
        emit(
            &mut out,
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {\"name\": \"flix solve\"}}",
        );
        for tid in 0..=self.workers {
            let label = if tid == 0 {
                "coordinator".to_string()
            } else {
                format!("worker {tid}")
            };
            emit(
                &mut out,
                &format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"name\": \"{label}\"}}}}"
                ),
            );
        }
        for event in &self.events {
            let mut body = String::new();
            body.push_str("{\"name\": ");
            crate::json::write_escaped(&mut body, &self.span_name(&event.kind));
            let cat = match &event.kind {
                SpanKind::Solve => "solve",
                SpanKind::LoadFacts
                | SpanKind::ResumeSeed
                | SpanKind::ResumeTaint
                | SpanKind::ResumeDelete
                | SpanKind::DemandRewrite
                | SpanKind::IndexCatchUp { .. }
                | SpanKind::Absorb { .. } => "phase",
                SpanKind::Stratum { .. } => "stratum",
                SpanKind::Round { .. } => "round",
                SpanKind::RuleEval { .. } => "rule",
            };
            let _ = write!(
                body,
                ", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{",
                event.tid,
                event.start_ns as f64 / 1_000.0,
                event.dur_ns as f64 / 1_000.0,
            );
            match &event.kind {
                SpanKind::Solve
                | SpanKind::LoadFacts
                | SpanKind::ResumeSeed
                | SpanKind::ResumeTaint
                | SpanKind::ResumeDelete
                | SpanKind::DemandRewrite => {}
                SpanKind::Stratum { stratum } => {
                    let _ = write!(body, "\"stratum\": {stratum}");
                }
                SpanKind::Round { stratum, round }
                | SpanKind::IndexCatchUp { stratum, round }
                | SpanKind::Absorb { stratum, round } => {
                    let _ = write!(body, "\"stratum\": {stratum}, \"round\": {round}");
                }
                SpanKind::RuleEval {
                    stratum,
                    round,
                    rule,
                    variant,
                    derived,
                } => {
                    let _ = write!(
                        body,
                        "\"stratum\": {stratum}, \"round\": {round}, \"rule\": {rule}, \
                         \"derived\": {derived}"
                    );
                    if let Some(v) = variant {
                        let _ = write!(body, ", \"variant\": {v}");
                    }
                }
            }
            body.push_str("}}");
            emit(&mut out, &body);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the trace as folded-stack flamegraph text: one
    /// `frame;frame;frame value` line per distinct stack, values in
    /// nanoseconds, aggregated over all workers and rounds. Feed the
    /// output to `flamegraph.pl` or `inferno-flamegraph`.
    ///
    /// Only leaf spans (rule evaluations, a round's index catch-up and
    /// absorb, and the load/seed/rewrite phases) contribute values — the resume-seed phase what its taint
    /// and delete steps leave of it — so frame totals are not double
    /// counted.
    pub fn to_folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        let seed_steps = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::ResumeTaint | SpanKind::ResumeDelete));
        let in_seed_steps: u64 = seed_steps.map(|e| e.dur_ns).sum();
        for event in &self.events {
            let mut self_ns = event.dur_ns;
            let stack = match &event.kind {
                SpanKind::Solve | SpanKind::Stratum { .. } | SpanKind::Round { .. } => continue,
                SpanKind::ResumeSeed => {
                    self_ns = self_ns.saturating_sub(in_seed_steps);
                    "solve;resume seed".to_string()
                }
                SpanKind::ResumeTaint | SpanKind::ResumeDelete => {
                    format!("solve;resume seed;{}", self.span_name(&event.kind))
                }
                SpanKind::LoadFacts | SpanKind::DemandRewrite => {
                    format!("solve;{}", self.span_name(&event.kind))
                }
                SpanKind::RuleEval { stratum, round, .. }
                | SpanKind::IndexCatchUp { stratum, round }
                | SpanKind::Absorb { stratum, round } => format!(
                    "solve;stratum {stratum};round {round};{}",
                    self.span_name(&event.kind)
                ),
            };
            *stacks.entry(stack).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }
}

/// Configuration for lattice-ascent telemetry, attached with
/// [`crate::Solver::ascent`].
#[derive(Clone, Debug, Default)]
pub struct AscentConfig {
    /// Fire a non-fatal [`AscentWarning`] through the observer the first
    /// time a cell's chain height reaches this value. `None` disables
    /// warnings (the report is still collected).
    pub warn_height: Option<u64>,
}

/// A lattice cell crossed the configured chain-height threshold.
///
/// Delivered through [`crate::Observer::ascent_warning`], at most once
/// per cell per solve. Non-fatal: the solve continues; the warning is
/// the early signal that an ascending chain may not be finite (§3.2/§7)
/// and the lattice may need widening.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AscentWarning {
    /// The lattice predicate the cell belongs to.
    pub predicate: String,
    /// The cell's key columns.
    pub key: Vec<Value>,
    /// The chain height at the moment of the warning: the number of
    /// strict increases the cell has absorbed (1 = first non-bottom
    /// value).
    pub height: u64,
    /// The configured threshold that was crossed.
    pub threshold: u64,
}

/// One lattice cell's ascent counters, as aggregated into an
/// [`AscentReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AscentCell {
    /// The lattice predicate the cell belongs to.
    pub predicate: String,
    /// The cell's key columns, rendered for display.
    pub key: String,
    /// Joins absorbed (every [`crate::LatticeOps::lub`] application,
    /// including ones that did not change the cell).
    pub joins: u64,
    /// Strict increases: the cell's height in its ascending chain.
    pub height: u64,
}

/// Aggregated lattice-ascent diagnostics for one solve, from
/// [`crate::Solution::ascent_report`].
#[derive(Clone, Debug, Default)]
pub struct AscentReport {
    /// Total lattice cells observed.
    pub cells: u64,
    /// The tallest chain any cell climbed.
    pub max_height: u64,
    /// `(height, number of cells that ended at that height)`, ascending.
    pub histogram: Vec<(u64, u64)>,
    /// The top-K hottest cells by join count (ties broken by height,
    /// then predicate/key for determinism).
    pub hottest: Vec<AscentCell>,
    /// Per lattice type (e.g. `MinCost`, `Interval`): the maximum
    /// observed chain height, sorted by type name.
    pub per_lattice: Vec<(String, u64)>,
}

/// Renders an [`AscentReport`] as the human-readable block printed by
/// `flixr --ascent-report`.
pub fn render_ascent_report(report: &AscentReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lattice ascent: {} cells, max chain height {}",
        report.cells, report.max_height
    );
    out.push_str("chain-height histogram:\n");
    let max_count = report
        .histogram
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(0)
        .max(1);
    for &(height, count) in &report.histogram {
        let bar = "#".repeat(((count * 40).div_ceil(max_count)) as usize);
        let _ = writeln!(out, "  height {height:>4}: {count:>8} {bar}");
    }
    if !report.hottest.is_empty() {
        let _ = writeln!(out, "hottest cells (by joins):");
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>8}  key",
            "predicate", "joins", "height"
        );
        for cell in &report.hottest {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>8}  {}",
                cell.predicate, cell.joins, cell.height, cell.key
            );
        }
    }
    if !report.per_lattice.is_empty() {
        let _ = writeln!(out, "max chain height per lattice type:");
        for (lattice, height) in &report.per_lattice {
            let _ = writeln!(out, "  {lattice:<24} {height:>8}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tid: u32, start_ns: u64, dur_ns: u64, kind: SpanKind) -> TraceEvent {
        TraceEvent {
            kind,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = Ring::new(2);
        for i in 0..5u64 {
            ring.push(event(0, i, 1, SpanKind::Solve));
        }
        assert_eq!(ring.events.len(), 2);
        assert_eq!(ring.dropped, 3);
        assert_eq!(ring.events[0].start_ns, 3);
        assert_eq!(ring.events[1].start_ns, 4);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = Ring::new(0);
        ring.push(event(0, 0, 1, SpanKind::Solve));
        assert_eq!(ring.events.len(), 0);
        assert_eq!(ring.dropped, 1);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::new(None);
        assert!(tracer.local_ring().is_none());
        tracer.record(0, SpanKind::Solve, 0);
        assert!(tracer.finish(Vec::new()).is_none());
    }

    #[test]
    fn merge_orders_parents_first() {
        let tracer = Tracer::new(Some(&TraceConfig::default()));
        let mut ring = tracer.local_ring().expect("enabled");
        ring.push(event(
            1,
            10,
            5,
            SpanKind::RuleEval {
                stratum: 0,
                round: 1,
                rule: 0,
                variant: None,
                derived: 2,
            },
        ));
        tracer.merge(1, Some(ring));
        tracer.record(
            0,
            SpanKind::Round {
                stratum: 0,
                round: 1,
            },
            0,
        );
        tracer.record(0, SpanKind::Solve, 0);
        let trace = tracer.finish(vec!["Path".into()]).expect("trace");
        assert_eq!(trace.events().len(), 3);
        // Same start: longer span (solve ⊇ round) first.
        assert_eq!(trace.events()[0].kind, SpanKind::Solve);
        assert!(matches!(trace.events()[1].kind, SpanKind::Round { .. }));
        assert!(matches!(trace.events()[2].kind, SpanKind::RuleEval { .. }));
        assert_eq!(trace.workers(), 1);

        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"name\": \"#0 Path\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");

        let folded = trace.to_folded();
        assert_eq!(folded.trim(), "solve;stratum 0;round 1;#0 Path 5");
    }

    #[test]
    fn ascent_report_renders_histogram_and_top_k() {
        let report = AscentReport {
            cells: 3,
            max_height: 4,
            histogram: vec![(1, 2), (4, 1)],
            hottest: vec![AscentCell {
                predicate: "Dist".into(),
                key: "(\"c\")".into(),
                joins: 9,
                height: 4,
            }],
            per_lattice: vec![("MinCost".into(), 4)],
        };
        let text = render_ascent_report(&report);
        assert!(text.contains("max chain height 4"), "{text}");
        assert!(text.contains("height    1:        2"), "{text}");
        assert!(text.contains("Dist"), "{text}");
        assert!(text.contains("MinCost"), "{text}");
    }
}
