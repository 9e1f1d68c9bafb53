//! What every workload shares: the metric vocabulary, the per-run
//! context (seed, window, tracer, tallies), the closed-loop driver, the
//! scratch directory and the final report.

use crate::stats::{self, median, min, percentile_if_resolved, tail};
use crate::trace::Tracer;
use flix_core::{SolveStats, Solver, SolverConfig};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// operation behind `op_ref_ratio` is the workload's own (see `WORKLOADS`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ref_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The operation as the client saw it during the traced window.
    ("op.samples", "count"),
    ("op.min_ms", "ms"),
    ("op.reference_ms", "ms"),
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("op.p99_ms", "ms"),
    // lang: the surface-language front end and interpreter.
    ("lang.lex_s", "s"),
    ("lang.lex_tokens", "count"),
    ("lang.parse_s", "s"),
    ("lang.parse_decls", "count"),
    ("lang.check_s", "s"),
    ("lang.lower_s", "s"),
    ("lang.lower_facts", "count"),
    ("lang.render_s", "s"),
    ("lang.render_bytes", "B"),
    ("lang.interp.call_ns", "ns"),
    // analyses: program construction, result extraction, imperative baselines.
    ("analyses.generate_s", "s"),
    ("analyses.build_program_s", "s"),
    ("analyses.analyze_s", "s"),
    ("analyses.extract_s", "s"),
    ("analyses.imperative_s", "s"),
    ("analyses.slowdown_vs_imperative", "ratio"),
    // core.solver: one scratch solve of the workload's program.
    ("core.solver.solve_s", "s"),
    ("core.solver.rounds", "count"),
    ("core.solver.rule_evaluations", "count"),
    ("core.solver.facts_derived", "count"),
    ("core.solver.facts_inserted", "count"),
    ("core.solver.index_probes", "count"),
    ("core.solver.scan_fallbacks", "count"),
    ("core.solver.total_facts", "count"),
    ("core.solver.rule_eval_s", "s"),
    ("core.solver.non_rule_s", "s"),
    ("core.solver.insert_ratio", "ratio"),
    ("core.solver.top_rule_share", "ratio"),
    ("core.solver.derivations_per_s", "1/s"),
    ("core.solver.threads2_speedup", "ratio"),
    // lattice: direct calls on seeded elements, and ascent telemetry.
    ("lattice.su_lub_ns", "ns"),
    ("lattice.su_leq_ns", "ns"),
    ("lattice.mincost_lub_ns", "ns"),
    ("lattice.cells", "count"),
    ("lattice.max_height", "count"),
    // core.provenance
    ("core.provenance.events", "count"),
    ("core.provenance.overhead_ratio", "ratio"),
    ("core.provenance.explain_ms", "ms"),
    // core.demand
    ("core.demand.query_ms", "ms"),
    ("core.demand.derived_share", "ratio"),
    ("core.demand.fallbacks", "count"),
    // core.incremental
    ("core.incremental.insert_ms", "ms"),
    ("core.incremental.retract_ms", "ms"),
    ("core.incremental.noop_resume_ms", "ms"),
    ("core.incremental.insert_noprov_ms", "ms"),
    ("core.incremental.scratch_solve_ms", "ms"),
    ("core.incremental.retract_over_scratch", "ratio"),
    ("core.incremental.insert_derived", "count"),
    ("core.incremental.retract_derived", "count"),
    // core.persist
    ("core.persist.snapshot_save_ms", "ms"),
    ("core.persist.snapshot_load_ms", "ms"),
    ("core.persist.snapshot_bytes_per_fact", "B"),
    ("core.persist.wal_append_ms", "ms"),
    ("core.persist.wal_bytes_per_op", "B"),
    ("core.persist.recover_ms", "ms"),
    // flixd: the client side, then the server's own `stats` document
    // differenced over the traced window.
    ("flixd.client.query_p50_us", "us"),
    ("flixd.client.query_p99_us", "us"),
    ("flixd.client.query_late_p99_us", "us"),
    ("flixd.client.insert_p50_ms", "ms"),
    ("flixd.client.insert_p90_ms", "ms"),
    ("flixd.client.retract_p50_ms", "ms"),
    ("flixd.client.retract_p90_ms", "ms"),
    ("flixd.server.query_mean_us", "us"),
    ("flixd.server.update_mean_ms", "ms"),
    ("flixd.server.queries_per_s", "1/s"),
    ("flixd.wire_overhead_us", "us"),
    ("flixd.writer.resume_ms", "ms"),
    ("flixd.writer.wal_append_ms", "ms"),
    ("flixd.writer.publish_gap_ms", "ms"),
    ("flixd.writer.batches_applied", "count"),
    ("flixd.writer.riders_per_batch", "ratio"),
    ("flixd.server.stats_roundtrip_ms", "ms"),
    ("flixd.server.compact_ms", "ms"),
    ("flixd.server.start_ms", "ms"),
    ("flixd.server.recover_s", "s"),
    // The benchmark's own tracing.
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.spans", "count"),
];

/// A run is this many segments: a set-up from nothing, then a share of
/// the window on the fresh state. The machine this runs on is disturbed in
/// spells of several seconds that slow everything by about 1.45x, so
/// set-ups are spread over the run instead of bunched at its start, and
/// `setup_s` is their minimum: the cost when undisturbed, which some
/// segment almost always catches (see README.md, "Noise").
const SEGMENTS: usize = 5;
/// A traced run's first segments run untraced, as the base of
/// `trace.overhead_ratio`.
const UNTRACED_SEGMENTS: usize = 2;
/// Name of the span around one whole operation.
pub const OP_SPAN: &str = "op";

pub struct Cx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tr: Tracer,
    pub scratch: Scratch,
    pub ops: Tally,
    setup_s: Vec<f64>,
    timed: Vec<Timed>,
    layers: BTreeMap<&'static str, f64>,
}

/// One timed operation: the milliseconds of each of its parts, and of the
/// reference kernel around it (mean of the run before and the run after).
#[derive(Clone)]
pub struct Timed {
    pub parts: Vec<f64>,
    pub reference_ms: f64,
}

impl Timed {
    fn ms(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// The reference kernel between a client's operations.
pub struct Reference {
    last_ms: f64,
}

impl Reference {
    pub fn start() -> Reference {
        Reference {
            last_ms: reference_kernel_ms(),
        }
    }

    /// Runs the kernel after an operation that took `parts`.
    pub fn around(&mut self, parts: Vec<f64>) -> Timed {
        let before = std::mem::replace(&mut self.last_ms, reference_kernel_ms());
        Timed {
            parts,
            reference_ms: (before + self.last_ms) / 2.0,
        }
    }
}

/// What the machine's speed is measured by: about 17 ms of the kind of
/// work the engine does — rows hashed into an index of growing vectors,
/// the index probed, its rows collected and sorted. The machine this runs
/// on slows everything down for seconds or minutes at a time; an
/// operation's time divided by that of the kernel runs around it keeps the
/// program's share and drops the machine's (see README.md, "Noise").
pub fn reference_kernel_ms() -> f64 {
    const ROWS: usize = 150_000;
    const KEYS: u64 = 40_000;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let started = Instant::now();
    let mut index: HashMap<u64, Vec<u64>> = HashMap::new();
    for _ in 0..ROWS {
        let row = next();
        index.entry(row % KEYS).or_default().push(row);
    }
    let mut hits = 0;
    for _ in 0..ROWS {
        hits += index.get(&(next() % KEYS)).map_or(0, Vec::len);
    }
    let mut rows: Vec<u64> = index.into_values().flatten().collect();
    rows.sort_unstable();
    black_box((hits, rows[ROWS / 2]));
    started.elapsed().as_secs_f64() * 1e3
}

/// Operations attempted and failed. An operation fails when it errors, is
/// refused, or its reply disagrees with the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Counts one finished operation; `problem` is what its oracle found.
    pub fn count(&mut self, problem: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = problem {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(message);
            }
        }
    }

    /// Takes over the operations another thread counted.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(5);
    }
}

impl Cx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Cx {
        Cx {
            workload,
            seed,
            seconds,
            traced,
            tr: Tracer::new(Instant::now(), 0, traced),
            scratch: Scratch::create(),
            ops: Tally::default(),
            setup_s: Vec::new(),
            timed: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// The run: `SEGMENTS` times, `build` the workload's state from
    /// nothing (the previous state is torn down first) and let `window`
    /// drive it for a share of the run's seconds. `build` is everything
    /// before the first timed operation — input generation, program build,
    /// first solve, server start — and is timed as one set-up. `window`
    /// returns the operations it timed. Returns the last state.
    pub fn run<S>(
        &mut self,
        mut build: impl FnMut(&mut Cx) -> S,
        mut window: impl FnMut(&mut Cx, &mut S, f64) -> Vec<Timed>,
    ) -> S {
        let seconds = self.seconds / SEGMENTS as f64;
        let mut untraced = Vec::new();
        let mut state = None;
        for segment in 0..SEGMENTS {
            drop(state.take());
            let traced = self.traced && segment >= UNTRACED_SEGMENTS;
            self.tr.enabled = traced;
            let span = self.tr.begin("setup", segment as u64);
            let (mut built, setup_s) = stats::timed(|| build(self));
            self.setup_s.push(setup_s);
            self.tr.end(span);
            let samples = window(self, &mut built, seconds);
            if self.traced && !traced {
                untraced.extend(samples);
            } else {
                self.timed.extend(samples);
            }
            state = Some(built);
        }
        if self.traced {
            self.layer(
                "trace.overhead_ratio",
                ratio(ref_ratio(&self.timed), ref_ratio(&untraced)),
            );
        }
        state.expect("SEGMENTS is at least one")
    }

    /// The closed loop: one client issues `op` back to back for `seconds`,
    /// at least once, and stops when another operation as long as the last
    /// would overrun. `op` returns the milliseconds it timed, part by part
    /// (its oracle runs outside that time), and is passed the operation's
    /// index. The reference kernel runs before the first operation and
    /// after each.
    pub fn closed_loop<const N: usize>(
        &mut self,
        seconds: f64,
        mut op: impl FnMut(&mut Cx, u64) -> [f64; N],
    ) -> Vec<Timed> {
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut reference = Reference::start();
        loop {
            let before = started.elapsed().as_secs_f64();
            let parts = op(self, self.ops.attempted);
            samples.push(reference.around(parts.to_vec()));
            let after = started.elapsed().as_secs_f64();
            if after + (after - before) > seconds {
                return samples;
            }
        }
    }

    /// Runs the timed part of operation `index` under the operation span
    /// and returns its result with the milliseconds it took.
    pub fn timed<T>(&mut self, index: u64, f: impl FnOnce(&mut Cx) -> T) -> (T, f64) {
        let span = self.tr.begin(OP_SPAN, index);
        let (out, seconds) = stats::timed(|| f(self));
        self.tr.end(span);
        (out, seconds * 1e3)
    }

    pub fn tally(&mut self, problem: Result<(), String>) {
        self.ops.count(problem);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// The `core.solver.*` layers of one solve, from its public statistics.
    pub fn solver_layers(&mut self, stats: &SolveStats) {
        let wall_s = stats.wall_ns as f64 / 1e9;
        let rule_ns: u64 = stats.per_rule.iter().map(|r| r.eval_ns).sum();
        let top_rule_ns = stats.per_rule.iter().map(|r| r.eval_ns).max().unwrap_or(0);
        self.layer("core.solver.solve_s", wall_s);
        self.layer("core.solver.rounds", stats.rounds as f64);
        self.layer(
            "core.solver.rule_evaluations",
            stats.rule_evaluations as f64,
        );
        self.layer("core.solver.facts_derived", stats.facts_derived as f64);
        self.layer("core.solver.facts_inserted", stats.facts_inserted as f64);
        self.layer("core.solver.index_probes", stats.index_probes as f64);
        self.layer("core.solver.scan_fallbacks", stats.scan_fallbacks as f64);
        self.layer("core.solver.total_facts", stats.total_facts as f64);
        self.layer("core.solver.rule_eval_s", rule_ns as f64 / 1e9);
        // Fact load, kernel compilation, delta merge and index upkeep.
        self.layer(
            "core.solver.non_rule_s",
            stats.wall_ns.saturating_sub(rule_ns) as f64 / 1e9,
        );
        self.layer(
            "core.solver.insert_ratio",
            ratio(stats.facts_inserted as f64, stats.facts_derived as f64),
        );
        self.layer(
            "core.solver.top_rule_share",
            ratio(top_rule_ns as f64, rule_ns as f64),
        );
        self.layer(
            "core.solver.derivations_per_s",
            ratio(stats.facts_derived as f64, wall_s),
        );
    }

    /// Shortest duration in seconds of the spans called `span`, as layer `name`.
    pub fn layer_from_span(&mut self, name: &'static str, span: &str) {
        self.layer(name, min(&self.tr.durations_s(span)));
    }

    /// Each timed operation's milliseconds, its parts summed.
    fn op_ms(&self) -> Vec<f64> {
        self.timed.iter().map(Timed::ms).collect()
    }

    /// Prints every metric of this run by name and ends with the result
    /// line. Returns whether the run was correct.
    pub fn report(mut self) -> bool {
        let Tally {
            attempted, failed, ..
        } = self.ops;
        let correct = failed == 0 && attempted > 0;
        for message in &self.ops.messages {
            println!("FAILED {message}");
        }
        println!(
            "{}: seed {:#x}, {} s window, {} operations attempted, {} failed",
            self.workload, self.seed, self.seconds, attempted, failed
        );
        let metrics: Vec<(&str, f64, &str)> = if self.traced {
            self.trace_layers();
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            let op_ms = self.op_ms();
            let median = median(&op_ms);
            match tail(&op_ms) {
                Some((label, value)) => println!(
                    "  operation: median {median:.4} ms, {label} {value:.4} ms over {} samples",
                    op_ms.len()
                ),
                None => println!(
                    "  operation: median {median:.4} ms over {} samples (no percentile beyond has ten samples)",
                    op_ms.len()
                ),
            }
            println!(
                "  fastest operation {:.4} ms, reference kernel median {:.4} ms",
                fastest(&self.timed),
                reference_ms(&self.timed)
            );
            let values = [min(&self.setup_s), ref_ratio(&self.timed), peak_rss_mb()];
            let named = END_TO_END.iter().zip(values);
            named
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect()
        };
        for (name, value, unit) in &metrics {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
        let pass = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let summary = format!("{}.{pass}.json", self.workload);
        self.scratch.write_output(&summary, &line);
        println!("{line}");
        correct
    }

    /// The layers every traced run derives from its own spans, and the
    /// Chrome trace file.
    fn trace_layers(&mut self) {
        let op_ms = self.op_ms();
        self.layer("op.samples", op_ms.len() as f64);
        self.layer("op.min_ms", fastest(&self.timed));
        self.layer("op.reference_ms", reference_ms(&self.timed));
        self.layer("op.p50_ms", median(&op_ms));
        self.layer("op.p90_ms", percentile_if_resolved(&op_ms, 90.0));
        self.layer("op.p99_ms", percentile_if_resolved(&op_ms, 99.0));
        self.layer("trace.spans", self.tr.len() as f64);
        let self_times = self.tr.self_times_s(OP_SPAN);
        let covered: f64 = self_times.values().sum();
        let headline: f64 = op_ms.iter().sum::<f64>() / 1e3;
        self.layer("trace.self_time_coverage", ratio(covered, headline));
        println!("  self time by span, share of the traced operations' {headline:.3} s:");
        for (name, seconds) in &self_times {
            println!(
                "    {name:<32} {seconds:>10.4} s {:>6.1} %",
                100.0 * seconds / headline
            );
        }
        let file = format!("{}.trace.json", self.workload);
        self.scratch
            .write_output(&file, &self.tr.to_chrome_json(self.workload));
    }
}

/// The default solver with provenance recording and the worker count set.
pub fn solver(provenance: bool, threads: usize) -> Solver {
    Solver::with_config(SolverConfig {
        record_provenance: provenance,
        threads,
        ..SolverConfig::default()
    })
    .expect("a positive thread count is a valid configuration")
}

/// The operation's fastest time, part by part: the sum over its parts of
/// each part's fastest sample. One undisturbed moment per part is enough,
/// where a whole undisturbed operation may never come.
fn fastest(timed: &[Timed]) -> f64 {
    let parts = timed.first().map_or(0, |op| op.parts.len());
    (0..parts)
        .map(|part| {
            timed
                .iter()
                .map(|op| op.parts[part])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The median over the operations of the operation's time divided by the
/// reference kernel's around it: what the operation costs in kernels.
fn ref_ratio(timed: &[Timed]) -> f64 {
    let ratios: Vec<f64> = timed.iter().map(|op| op.ms() / op.reference_ms).collect();
    median(&ratios)
}

/// The reference kernel's median milliseconds: how fast the machine was.
fn reference_ms(timed: &[Timed]) -> f64 {
    let kernels: Vec<f64> = timed.iter().map(|op| op.reference_ms).collect();
    median(&kernels)
}

/// `a / b`, or 0 when the base is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Where a run writes: `<target dir>/flixbench/` for the summary and the
/// trace files, and a per-process directory below it for sockets, logs
/// and snapshots, removed when the run ends — by panic too.
pub struct Scratch {
    out: PathBuf,
    tmp: PathBuf,
}

impl Scratch {
    fn create() -> Scratch {
        // The binary is `<target dir>/release/flixbench`.
        let exe = std::env::current_exe().expect("path of the running binary");
        let target = exe
            .parent()
            .and_then(Path::parent)
            .expect("binary sits two levels below the target directory");
        let mut out = target.join("flixbench");
        // Relative to the current directory when below it: a Unix socket
        // path must fit in about a hundred bytes.
        if let Ok(cwd) = std::env::current_dir() {
            if let Ok(relative) = out.strip_prefix(&cwd) {
                out = relative.to_path_buf();
            }
        }
        let tmp = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("create scratch directory");
        Scratch { out, tmp }
    }

    /// A path inside the per-process directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }

    fn write_output(&self, name: &str, content: &str) {
        std::fs::write(self.out.join(name), content).expect("write benchmark output");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}
