//! The fixed-point solvers: naïve and semi-naïve evaluation (§3.2, §3.7).
//!
//! Both strategies compute the minimal model of a program by iterating the
//! immediate consequence operator with per-cell least-upper-bound
//! compaction. The naïve strategy re-evaluates every rule each round; the
//! semi-naïve strategy follows §3.7 of the paper: it maintains, per
//! predicate, an incremental relation `∆P` of ground atoms that *strictly
//! increased* (`ga(P', S) ⊐ ga(P, S)`), and re-evaluates each rule once per
//! body atom, instantiating that atom from `∆P` and the others from the
//! full database.

// The error path is terminal and cold: a `SolveError` is built at most
// once per solve, so the large-`Err`-variant lint's copy-cost concern
// does not apply to the internal `Result<_, SolveError>` plumbing. The
// public API already boxes it (`Box<SolveFailure>`).
#![allow(clippy::result_large_err)]

use crate::ast::{PredKind, ProgramError};
use crate::database::{
    decode, try_encode_row, Database, Elem, InsertFault, InsertOutcome, PredData,
};
use crate::demand::Query;
use crate::fxhash::FxHashSet;
use crate::guard::{panic_payload, Budget, BudgetKind, EvalGuard, Guard};
use crate::incremental::Cone;
use crate::kernel::{self, KernelSet};
use crate::observe::{Observer, RuleStats, StratumStats};
use crate::ops::OpsPanic;
use crate::program::{CItem, Program};
use crate::provenance::{DerivationTree, Event, EventLog, OpenLog, Pos};
use crate::stratify::{stratify, Strata};
use crate::trace::{
    AscentCell, AscentConfig, AscentReport, AscentWarning, ExecutionTrace, Ring, SpanKind,
    TraceConfig, TraceEvent, Tracer,
};
use crate::verify::Violation;
use crate::{PredId, Value};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The evaluation strategy for [`Solver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Re-evaluate every rule whenever anything changed (§3.1: "this
    /// strategy is called naïve evaluation"). Correct but slow; kept as the
    /// baseline for the ablation benchmarks.
    Naive,
    /// The incremental strategy of §3.7, adapted for lattices.
    #[default]
    SemiNaive,
}

impl Strategy {
    /// The strategy's stable machine-readable name, as used in the
    /// metrics JSON (`"naive"` / `"semi-naive"`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "semi-naive",
        }
    }
}

/// Aggregate statistics of one solver run.
///
/// `facts_derived` counts gross derivations (before deduplication and
/// subsumption); `facts_inserted` counts net database changes. Their ratio,
/// together with `index_probes` vs `scan_fallbacks`, is the work profile
/// reported by the benchmark tables in place of the paper's memory column.
///
/// # Strategy invariance
///
/// The *outcome* fields — `rounds`, `strata`, `facts_inserted`,
/// `total_facts`, the per-rule `inserted` counters in `per_rule`, and the
/// whole of `per_stratum` (rounds and per-round net delta sizes) — are
/// invariant across evaluation strategies: [`Strategy::Naive`],
/// [`Strategy::SemiNaive`], and any thread count produce identical
/// values, because every strategy computes the same sequence of per-round
/// database states and the counters measure *net* changes between round
/// boundaries (the strategy-parity test suite pins this). The *work*
/// fields — `rule_evaluations`, `facts_derived`, `index_probes`,
/// `scan_fallbacks`, `wall_ns`, and the remaining per-rule counters —
/// describe how much work a particular strategy performed and differ
/// between strategies by design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Fixed-point rounds executed (across all strata).
    pub rounds: u64,
    /// Individual rule evaluations.
    pub rule_evaluations: u64,
    /// Head tuples produced by rule evaluation.
    pub facts_derived: u64,
    /// Net database changes: new tuples plus distinct lattice cells that
    /// strictly increased, counted once per cell per round (a cell
    /// climbing through several intermediate values within one round is
    /// one net change).
    pub facts_inserted: u64,
    /// Index probes performed.
    pub index_probes: u64,
    /// Full-scan fallbacks (no usable index).
    pub scan_fallbacks: u64,
    /// Number of strata evaluated.
    pub strata: u64,
    /// Total facts in the final database.
    pub total_facts: u64,
    /// Wall-clock time of the whole solve, in nanoseconds.
    pub wall_ns: u64,
    /// Per-rule work profile, indexed by rule number.
    pub per_rule: Vec<RuleStats>,
    /// Per-stratum rounds and per-round delta sizes, in evaluation order.
    pub per_stratum: Vec<StratumStats>,
}

impl SolveStats {
    /// Zeroed statistics with one [`RuleStats`] entry per rule of
    /// `program`, labelled with the rule's head predicate.
    pub(crate) fn for_program(program: &Program) -> SolveStats {
        let per_rule = rule_heads(program)
            .into_iter()
            .enumerate()
            .map(|(rule, head)| RuleStats {
                rule,
                head,
                ..RuleStats::default()
            })
            .collect();
        SolveStats {
            per_rule,
            ..SolveStats::default()
        }
    }
}

/// An error during solving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The program is not stratifiable (§3.5).
    Program(ProgramError),
    /// The configured round limit was exceeded — the symptom of a lattice
    /// of unbounded height or a non-monotone function (§7 "Safety").
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
        /// The stratum (0-based evaluation order) that failed to converge.
        stratum: usize,
        /// Statistics at the moment the limit was hit.
        stats: SolveStats,
    },
    /// A user-supplied function or lattice operation panicked. The solver
    /// catches the panic (`catch_unwind`), names the function and the
    /// context it was invoked from, and returns the facts derived so far.
    /// A panic escaping a parallel worker *outside* the guarded user-code
    /// paths (an internal solver bug) is reported through this variant
    /// too, with `function` set to `"solver worker"`, rather than
    /// aborting the process.
    FunctionPanicked {
        /// The predicate being derived (or matched) when the panic fired.
        predicate: String,
        /// The rule index within the program, when attributable to a rule.
        rule: Option<usize>,
        /// The function that panicked (e.g. `Parity.lub` or a named
        /// transfer function).
        function: String,
        /// The rendered panic payload.
        payload: String,
    },
    /// A runtime safety sentinel caught the user's lattice or functions
    /// violating a required law *during* solving (§7 "Safety") — e.g. a
    /// `lub` whose result is not an upper bound, an irreflexive `leq`, or
    /// a filter returning a non-boolean.
    SafetyViolation {
        /// The predicate being derived when the sentinel tripped.
        predicate: String,
        /// The rule index within the program, when attributable to a rule.
        rule: Option<usize>,
        /// The concrete law violation observed.
        violation: Violation,
    },
    /// A configured [`Budget`] limit was reached before the fixed point.
    BudgetExceeded {
        /// Which limit tripped.
        kind: BudgetKind,
        /// Statistics at the moment the budget tripped.
        stats: SolveStats,
    },
    /// A [`crate::incremental::Delta`] handed to [`Solver::resume`] does
    /// not fit the program or the prior solution (unknown predicate,
    /// arity mismatch, mismatched solution). The partial solution is the
    /// unmodified pre-update model.
    Delta(crate::incremental::DeltaError),
    /// A [`crate::demand::Query`] handed to
    /// [`Solver::solve_query`](crate::Solver::solve_query) does not fit
    /// the program (unknown predicate, wrong pattern width). The partial
    /// solution is empty.
    Demand(crate::demand::DemandError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Program(e) => write!(f, "{e}"),
            SolveError::RoundLimitExceeded {
                limit,
                stratum,
                stats,
            } => write!(
                f,
                "fixed point not reached within {limit} rounds: stratum {stratum} did not \
                 converge after {} derivations; check that every lattice has finite height \
                 and every function is monotone",
                stats.facts_derived
            ),
            SolveError::FunctionPanicked {
                predicate,
                rule,
                function,
                payload,
                ..
            } => {
                write!(f, "function {function} panicked")?;
                if let Some(r) = rule {
                    write!(f, " in rule #{r}")?;
                }
                write!(f, " while deriving {predicate}: {payload}")
            }
            SolveError::SafetyViolation {
                predicate,
                rule,
                violation,
            } => {
                write!(f, "lattice safety violation")?;
                if let Some(r) = rule {
                    write!(f, " in rule #{r}")?;
                }
                write!(f, " while deriving {predicate}: {violation}")
            }
            SolveError::BudgetExceeded { kind, stats } => {
                write!(
                    f,
                    "{kind} after {} rounds and {} derivations",
                    stats.rounds, stats.facts_derived
                )
            }
            SolveError::Delta(e) => write!(f, "{e}"),
            SolveError::Demand(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ProgramError> for SolveError {
    fn from(e: ProgramError) -> SolveError {
        SolveError::Program(e)
    }
}

/// A failed solve, carrying the partial solution computed before failure.
///
/// Every failure mode of [`Solver::solve`] — a panicking user function, a
/// safety violation, an exhausted budget, a round limit — returns this
/// struct rather than discarding the work done: `partial` is a fully
/// queryable [`Solution`] over the facts derived up to the failure point,
/// and `stats` describes the run. The partial solution is *sound but
/// possibly incomplete*: every fact in it is derivable, but facts may be
/// missing (and lattice cells may sit below their fixed-point values).
#[derive(Debug)]
pub struct SolveFailure {
    /// Why the solve stopped.
    pub error: SolveError,
    /// The facts derived before the failure, queryable like any solution.
    pub partial: Solution,
    /// Statistics of the partial run.
    pub stats: SolveStats,
}

impl fmt::Display for SolveFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (partial solution retains {} facts)",
            self.error, self.stats.total_facts
        )
    }
}

impl std::error::Error for SolveFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A configurable fixed-point solver.
///
/// # Example
///
/// ```
/// use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let edge = b.relation("Edge", 2);
/// let path = b.relation("Path", 2);
/// b.fact(edge, vec![1.into(), 2.into()]);
/// b.fact(edge, vec![2.into(), 3.into()]);
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
///     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
/// );
/// b.rule(
///     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
///     [
///         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
///         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
///     ],
/// );
/// let program = b.build()?;
/// let solution = Solver::new().solve(&program)?;
/// assert!(solution.contains("Path", &[1.into(), 3.into()]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Solver {
    pub(crate) config: SolverConfig,
    /// Test hook: makes every parallel worker panic outside the
    /// `catch_unwind`-guarded user code, simulating an internal solver bug.
    pub(crate) inject_worker_panic: bool,
}

/// The complete set of [`Solver`] knobs, constructible in one place.
///
/// The chained builder methods on [`Solver`] remain thin wrappers over
/// this struct; [`Solver::with_config`] validates a configuration built
/// up front (e.g. from command-line flags) and rejects nonsensical
/// combinations — currently `threads == 0` — *before* any solving
/// starts.
///
/// # Example
///
/// ```
/// use flix_core::{Solver, SolverConfig, Strategy};
///
/// let solver = Solver::with_config(SolverConfig {
///     strategy: Strategy::Naive,
///     threads: 4,
///     ..SolverConfig::default()
/// })
/// .expect("4 threads is a valid configuration");
/// assert_eq!(solver.config().threads, 4);
/// assert!(Solver::with_config(SolverConfig {
///     threads: 0,
///     ..SolverConfig::default()
/// })
/// .is_err());
/// ```
#[derive(Clone)]
pub struct SolverConfig {
    /// The evaluation strategy (default: [`Strategy::SemiNaive`]).
    pub strategy: Strategy,
    /// Worker threads per round; `1` (the default) is sequential. Must be
    /// at least 1 — [`Solver::with_config`] rejects `0`.
    pub threads: usize,
    /// Whether to build hash indexes (default `true`; `false` is the
    /// index-selection ablation forcing full scans on every join).
    pub use_indexes: bool,
    /// Bound on fixed-point rounds, a safety net against lattices of
    /// unbounded height (default: unlimited).
    pub max_rounds: Option<u64>,
    /// Whether to log derivation provenance for [`Solution::explain`]
    /// (default `false`; costs memory proportional to insertions).
    pub record_provenance: bool,
    /// The resource budget: deadline, fact/derivation limits,
    /// cancellation (default: unlimited).
    pub budget: Budget,
    /// A progress observer receiving round-started, solve-finished and
    /// ascent-warning events (default: none; the event paths are skipped).
    pub observer: Option<Arc<dyn Observer>>,
    /// Execution-span tracing: when set, the solve records hierarchical
    /// spans into bounded per-worker ring buffers and the resulting
    /// [`Solution::trace`] carries an [`ExecutionTrace`] (default: none;
    /// the recording paths collapse to a single branch).
    pub trace: Option<TraceConfig>,
    /// Lattice-ascent telemetry: when set, every lattice cell counts its
    /// joins and strict increases, [`Solution::ascent_report`] becomes
    /// available, and cells crossing
    /// [`AscentConfig::warn_height`] fire
    /// [`Observer::ascent_warning`] (default: none).
    pub ascent: Option<AscentConfig>,
}

impl Default for SolverConfig {
    /// The default configuration: semi-naïve, sequential, indexed, no
    /// round limit, unlimited budget, no provenance, no observer.
    fn default() -> SolverConfig {
        SolverConfig {
            strategy: Strategy::SemiNaive,
            threads: 1,
            use_indexes: true,
            max_rounds: None,
            record_provenance: false,
            budget: Budget::new(),
            observer: None,
            trace: None,
            ascent: None,
        }
    }
}

impl fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverConfig")
            .field("strategy", &self.strategy)
            .field("threads", &self.threads)
            .field("use_indexes", &self.use_indexes)
            .field("max_rounds", &self.max_rounds)
            .field("record_provenance", &self.record_provenance)
            .field("budget", &self.budget)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "<dyn Observer>"),
            )
            .field("trace", &self.trace)
            .field("ascent", &self.ascent)
            .finish()
    }
}

/// An invalid [`SolverConfig`], rejected by [`Solver::with_config`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` was 0: zero worker threads cannot make progress.
    ZeroThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(
                f,
                "threads must be at least 1 (0 worker threads cannot make progress)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration: semi-naïve,
    /// sequential, indexed, no round limit, unlimited budget.
    pub fn new() -> Solver {
        Solver {
            config: SolverConfig::default(),
            inject_worker_panic: false,
        }
    }

    /// Creates a solver from a fully built [`SolverConfig`], validating
    /// it: `threads == 0` is rejected with [`ConfigError::ZeroThreads`]
    /// instead of being silently clamped.
    pub fn with_config(config: SolverConfig) -> Result<Solver, ConfigError> {
        if config.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(Solver {
            config,
            inject_worker_panic: false,
        })
    }

    /// The solver's current configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Records derivation provenance: every database-changing insertion is
    /// logged with its rule and instantiated premises, and the resulting
    /// [`Solution::explain`] reconstructs derivation trees. Costs memory
    /// proportional to the number of insertions.
    pub fn record_provenance(mut self, record: bool) -> Solver {
        self.config.record_provenance = record;
        self
    }

    /// Selects the evaluation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Solver {
        self.config.strategy = strategy;
        self
    }

    /// Evaluates rules within each round on `threads` worker threads
    /// (`1` = sequential). Rule evaluations within a round are independent,
    /// so this changes wall-clock time but never the solution. `0` is
    /// clamped to `1`; use [`Solver::with_config`] to reject it instead.
    pub fn threads(mut self, threads: usize) -> Solver {
        self.config.threads = threads.max(1);
        self
    }

    /// Enables or disables hash-index construction (the index-selection
    /// ablation; disabling forces full scans on every join).
    pub fn use_indexes(mut self, use_indexes: bool) -> Solver {
        self.config.use_indexes = use_indexes;
        self
    }

    /// Bounds the number of fixed-point rounds, as a safety net against
    /// lattices of unbounded height.
    pub fn max_rounds(mut self, limit: u64) -> Solver {
        self.config.max_rounds = Some(limit);
        self
    }

    /// Attaches a resource [`Budget`] (deadline, fact/derivation limits,
    /// cancellation token). When a limit trips, [`Solver::solve`] returns
    /// [`SolveError::BudgetExceeded`] inside a [`SolveFailure`] carrying
    /// the partial solution.
    pub fn budget(mut self, budget: Budget) -> Solver {
        self.config.budget = budget;
        self
    }

    /// Attaches a progress [`Observer`] that receives round-started,
    /// solve-finished and ascent-warning events during the solve. All
    /// callbacks fire on the thread driving the solve.
    /// With no observer attached (the default), the event paths are
    /// skipped entirely.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Solver {
        self.config.observer = Some(observer);
        self
    }

    /// Enables execution-span tracing: the solve records solve → stratum
    /// → round → rule-eval spans (plus resume-seed — a retraction's taint
    /// and delete steps inside it — and demand-rewrite phases) into
    /// bounded per-worker ring buffers, merged at solve end
    /// into [`Solution::trace`]. Export with
    /// [`ExecutionTrace::to_chrome_json`] or
    /// [`ExecutionTrace::to_folded`]. Disabled tracing (the default) adds
    /// no hot-path work.
    pub fn trace(mut self, config: TraceConfig) -> Solver {
        self.config.trace = Some(config);
        self
    }

    /// Enables lattice-ascent telemetry: per-cell join counts and
    /// ascending-chain heights, aggregated into
    /// [`Solution::ascent_report`], with optional non-fatal
    /// [`Observer::ascent_warning`]s when a cell crosses
    /// [`AscentConfig::warn_height`].
    pub fn ascent(mut self, config: AscentConfig) -> Solver {
        self.config.ascent = Some(config);
        self
    }

    /// Test hook: makes every parallel worker thread panic outside the
    /// guarded user-code paths, simulating an internal solver bug. Used
    /// by the fault-injection suite to pin that worker panics surface as
    /// a structured [`SolveError`] instead of aborting the process.
    /// Compiled only for the crate's own tests and under the
    /// `test-internals` feature, so it cannot be reached from downstream
    /// code.
    #[doc(hidden)]
    #[cfg(any(test, feature = "test-internals"))]
    pub fn inject_worker_panic_for_tests(mut self) -> Solver {
        self.inject_worker_panic = true;
        self
    }

    /// Computes the minimal model of `program`.
    ///
    /// # Errors
    ///
    /// On failure, returns a [`SolveFailure`] carrying the [`SolveError`]
    /// plus the partial [`Solution`] derived before the failure:
    ///
    /// - [`SolveError::Program`] if the program is not stratifiable;
    /// - [`SolveError::RoundLimitExceeded`] if a configured round limit is
    ///   hit before the fixed point;
    /// - [`SolveError::FunctionPanicked`] if a user-supplied function or
    ///   lattice operation panics (the panic is caught, not propagated);
    /// - [`SolveError::SafetyViolation`] if a runtime sentinel observes a
    ///   lattice-law violation;
    /// - [`SolveError::BudgetExceeded`] if the configured [`Budget`] runs
    ///   out.
    pub fn solve(&self, program: &Program) -> Result<Solution, Box<SolveFailure>> {
        let mut run = Run::fresh(self, program, Arc::clone(&program.facts));
        let outcome = run.strata().and_then(|strata| run.scratch(&strata));
        run.finish(outcome)
    }

    /// An empty database for `program` under this configuration.
    fn empty_db(&self, program: &Program) -> Database {
        let mut db = Database::for_program(program, self.config.use_indexes);
        if self.config.ascent.is_some() {
            db.enable_ascent();
        }
        db
    }

    /// Fires a non-fatal [`AscentWarning`] when lattice cell `id` of `pred`
    /// first crosses the configured chain-height threshold. The cell's
    /// key is decoded only for a warning that fires.
    fn check_ascent(&self, program: &Program, db: &mut Database, pred: PredId, id: u32) {
        let Some(threshold) = self.config.ascent.as_ref().and_then(|c| c.warn_height) else {
            return;
        };
        let Some(height) = db.ascent_crossed(pred, id, threshold) else {
            return;
        };
        if let Some(obs) = &self.config.observer {
            let slots = db.pred(pred).columns().slots(id);
            obs.ascent_warning(&AscentWarning {
                predicate: program.decl(pred).name.to_string(),
                key: slots.map(|slot| decode(slot, db.spill())).collect(),
                height,
                threshold,
            });
        }
    }

    /// Folds one finished task's counters into the per-rule profile and
    /// the global totals.
    fn note_task(stats: &mut SolveStats, report: &TaskReport) {
        let r = &mut stats.per_rule[report.rule];
        r.evaluations += 1;
        r.derived += report.derived;
        r.probes += report.probes;
        r.scans += report.scans;
        r.eval_ns += report.eval_ns;
        stats.index_probes += report.probes;
        stats.scan_fallbacks += report.scans;
        // Suppressed derivations never reach the per-item counting in the
        // insert loop; credit them here so `facts_derived` stays the
        // gross count.
        stats.facts_derived += report.suppressed;
    }
}

/// How [`Run::run_stratum`] starts a stratum's fixed point.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Seed {
    /// One full evaluation of every rule, then semi-naïve rounds over
    /// what it changed — the from-scratch start.
    Full,
    /// Warm start of a stratum whose heads lost facts to an
    /// over-deletion: first one round of the head-bound plans of the
    /// rules that derive into a predicate [`Run::delete`] took facts
    /// from — each evaluated with its head bound to those facts, since
    /// an over-deleted fact may have a derivation the
    /// first-derivation-only log never recorded — then on as
    /// [`Seed::Delta`], that round's changes included.
    Rederive,
    /// Warm start: `∆` is the run's pending net changes of the
    /// predicates the stratum reads.
    Delta,
}

/// Everything a run produced, as handed to the epilogue. `solve_query`
/// rewrites it into the original program's terms before the observer and
/// the [`Solution`] see it.
pub(crate) struct Finished {
    pub(crate) db: Arc<Database>,
    pub(crate) edb: ExtensionalStore,
    pub(crate) stats: SolveStats,
    /// Not yet frozen: a rewrite edits the events the run recorded.
    pub(crate) events: Option<OpenLog>,
    pub(crate) trace: Option<ExecutionTrace>,
    pub(crate) outcome: Result<(), SolveError>,
}

/// One evaluation in progress, and the only code that inserts into a
/// database under construction.
///
/// Paper §3.7 defines one thing — the least fixed point of the rules over
/// an extensional store E, stratum by stratum — and an update is that
/// same fixed point started from a different seed. Every entry point is
/// therefore a composition of three primitives over one `Run`:
/// [`Run::assert`] (the one extensional insert), [`Run::run_stratum`]
/// (the one stratum dispatcher over the one round body) and
/// [`Run::finish`] (the one epilogue). `solve` asserts the program's
/// facts and runs every stratum [`Seed::Full`]; the resume paths of
/// [`crate::incremental`] assert a net change and re-run the strata it
/// reaches; every fallback is [`Run::scratch`] over the updated store.
pub(crate) struct Run<'a> {
    solver: &'a Solver,
    program: &'a Program,
    guard: Guard<'a>,
    tracer: Tracer,
    wall_start: Instant,
    /// Copy-on-write: a resume starts on the prior model's shared
    /// database and takes its warm-start copy at the first write, so the
    /// exits that change nothing (rejected or empty delta) copy nothing.
    db: Arc<Database>,
    /// The extensional store the result is the least fixed point of.
    edb: ExtensionalStore,
    /// Compiled by the first stratum that runs: body literals are
    /// interned against the database then, after every assertion, so
    /// their encodings stay canonical for the run.
    kernels: Option<KernelSet>,
    stats: SolveStats,
    events: Option<OpenLog>,
    /// Whether `events` covers every insertion since the empty database.
    events_complete: bool,
    /// Warm runs only: the row id of every net change so far, per
    /// predicate — what [`Seed::Delta`] strata are seeded from. Recorded
    /// after any [`Run::delete`]: ids are append-only from there on, so
    /// they keep naming the rows they were recorded for.
    pending: Option<Vec<Vec<u32>>>,
    /// Per predicate, the encoded key of every fact [`Run::delete`] took
    /// out, in the order of the ids they had: what the head-bound plans
    /// of a [`Seed::Rederive`] stratum are seeded with. All empty in a
    /// run that deleted nothing.
    lost: Vec<Vec<Box<[u64]>>>,
}

impl<'a> Run<'a> {
    /// A run over an existing database (shared until first written),
    /// with no event log yet.
    pub(crate) fn new(
        solver: &'a Solver,
        program: &'a Program,
        db: Arc<Database>,
        edb: ExtensionalStore,
    ) -> Run<'a> {
        Run {
            solver,
            program,
            guard: Guard::new(&solver.config.budget),
            tracer: Tracer::new(solver.config.trace.as_ref()),
            wall_start: Instant::now(),
            db,
            edb,
            kernels: None,
            stats: SolveStats::for_program(program),
            events: None,
            events_complete: false,
            pending: None,
            lost: vec![Vec::new(); program.preds.len()],
        }
    }

    /// A run from the empty database, logging from the start when the
    /// solver records provenance.
    pub(crate) fn fresh(
        solver: &'a Solver,
        program: &'a Program,
        edb: ExtensionalStore,
    ) -> Run<'a> {
        let mut run = Run::new(solver, program, Arc::new(solver.empty_db(program)), edb);
        run.events = run.new_log();
        run.events_complete = true;
        run
    }

    /// Backdates the run to a clock started earlier: `solve_query` times
    /// and traces its rewrite before the rewritten program — which the
    /// run borrows — exists.
    pub(crate) fn started(mut self, wall_start: Instant, tracer: Tracer) -> Run<'a> {
        self.wall_start = wall_start;
        self.tracer = tracer;
        self
    }

    /// An empty log, when the solver records provenance.
    fn new_log(&self) -> Option<OpenLog> {
        let record = self.solver.config.record_provenance;
        record.then(|| OpenLog::new(self.program))
    }

    /// Starts over from the empty database: the first step of every
    /// from-scratch fallback of a resume. A new database has a new spill
    /// table, which the slots of a carried log would not decode against:
    /// the log starts over too.
    pub(crate) fn reset(&mut self) {
        self.db = Arc::new(self.solver.empty_db(self.program));
        self.events = self.new_log();
        self.events_complete = true;
        self.kernels = None;
        self.pending = None;
        self.lost.iter_mut().for_each(Vec::clear);
    }

    /// Continues the prior solution's event log, when the solver records
    /// one (the prior log may be absent if that solve ran without
    /// recording; the continued log is then incomplete). The prior's
    /// segments are shared, not copied, so this costs the same whatever
    /// the size of the model. The run is on the prior's database (or its
    /// copy), so the slots it records decode like the ones it carries.
    pub(crate) fn carry_log(&mut self, prior: &Solution) {
        self.events = match prior.events() {
            Some(log) if self.solver.config.record_provenance => Some(OpenLog::continuing(log)),
            _ => self.new_log(),
        };
        self.events_complete = prior.events().is_some() && prior.events_complete();
    }

    /// Replaces the extensional store the result will be attributed to.
    pub(crate) fn set_store(&mut self, edb: ExtensionalStore) {
        self.edb = edb;
    }

    /// Makes this a warm run: net changes are remembered from here on,
    /// and ascent counters are enabled on the warm database (counters
    /// carried over from a prior ascent-enabled solve are kept; otherwise
    /// heights are measured from the resume start).
    pub(crate) fn warm(&mut self) {
        if self.solver.config.ascent.is_some() {
            Arc::make_mut(&mut self.db).enable_ascent();
        }
        self.pending = Some(vec![Vec::new(); self.program.preds.len()]);
    }

    /// The run's tracer, for the phase spans a composition records
    /// around its own steps.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The strata of the program, in evaluation order — for a program
    /// whose lattices are what they declare: a lattice of a built-in kind
    /// runs the kind's word operations, not its closures, so the
    /// declaration is held to the closures first (once per declaration,
    /// [`LatticeOps::check_kind`](crate::LatticeOps)), and a false one
    /// refuses the run before it evaluates anything.
    pub(crate) fn strata(&self) -> Result<Strata, SolveError> {
        let strata = stratify(self.program)?;
        for decl in &self.program.preds {
            let Some(ops) = decl.lattice_ops() else {
                continue;
            };
            ops.check_kind()
                .map_err(|violation| SolveError::SafetyViolation {
                    predicate: decl.name.to_string(),
                    rule: None,
                    violation,
                })?;
        }
        Ok(strata)
    }

    /// Asserts one extensional fact: the only way an asserted tuple
    /// enters the database. A net change counts into `facts_inserted`,
    /// is checked against the ascent threshold, is remembered as a
    /// pending change on a warm run, and is logged as a
    /// [`Source::Fact`](crate::provenance::Source::Fact) event carrying
    /// the state the database reached — for a lattice cell the *joined*
    /// value, as rule events do.
    pub(crate) fn assert(&mut self, pred: PredId, values: &[Value]) -> Result<(), SolveError> {
        let db = Arc::make_mut(&mut self.db);
        let outcome = db
            .insert(pred, values)
            .map_err(|fault| insert_fault_error(self.program, pred, None, fault))?;
        let Some((id, raised)) = outcome.into_change() else {
            return Ok(());
        };
        self.stats.facts_inserted += 1;
        if raised.is_some() {
            self.solver.check_ascent(self.program, db, pred, id);
        }
        if let Some(log) = self.events.as_mut() {
            let head = (db.pred(pred).columns(), id);
            log.record(pred, None, head, raised.as_ref(), (&[], &mut []));
        }
        if let Some(pending) = self.pending.as_mut() {
            pending[pred.0 as usize].push(id);
        }
        Ok(())
    }

    /// The from-scratch composition: asserts the whole extensional store,
    /// then runs every stratum in full. `solve` is this over the
    /// program's facts; every resume fallback is this over the updated
    /// store, after [`Run::reset`].
    pub(crate) fn scratch(&mut self, strata: &Strata) -> Result<(), SolveError> {
        let load_start = self.tracer.now_ns();
        let store = Arc::clone(&self.edb);
        if let Some(log) = self.events.as_mut() {
            log.expect_facts(&store);
        }
        for (pred, values) in store.iter() {
            self.assert(*pred, values)?;
        }
        self.tracer.record(0, SpanKind::LoadFacts, load_start);
        for (stratum, group) in strata.rule_groups.iter().enumerate() {
            self.run_stratum(stratum, group, Seed::Full)?;
        }
        Ok(())
    }

    /// Whether any rule of `group` reads, positively, a predicate with
    /// pending changes.
    pub(crate) fn reads_pending(&self, group: &[usize]) -> bool {
        let Some(pending) = &self.pending else {
            return false;
        };
        group.iter().any(|&r| {
            self.program.rules[r].body.iter().any(
                |item| matches!(item, CItem::Atom { pred, .. } if !pending[pred.0 as usize].is_empty()),
            )
        })
    }

    /// Whether [`Run::delete`] took any fact out of `pred`.
    pub(crate) fn lost(&self, pred: PredId) -> bool {
        !self.lost[pred.0 as usize].is_empty()
    }

    /// The over-deletion step of a retracting resume: deletes the cone's
    /// facts — relational rows by tuple, lattice cells by key — from the
    /// run's own copy of the database, in place, and masks the cone's
    /// events out of the carried log.
    ///
    /// A deletion moves the predicate's last row into the hole
    /// ([`Database::remove`]), so the greatest id goes first: the row
    /// that moves is then never one still to be deleted. For the same
    /// reason this runs only between [`Run::warm`] and the run's first
    /// stratum — before a plan is compiled against the database and
    /// before any pending id is recorded — which is what keeps ids
    /// append-only *during evaluation*. The cone's keys are encoded
    /// against this run's database already (its spill table is the
    /// prior's, append-only); those of the facts found are kept, as they
    /// are, for the head-bound plans.
    pub(crate) fn delete(&mut self, cone: &Cone) {
        debug_assert!(self.kernels.is_none(), "no plan holds an id yet");
        debug_assert!(self.pending.iter().flatten().all(Vec::is_empty));
        let db = Arc::make_mut(&mut self.db);
        let delete_start = self.tracer.now_ns();
        for (p, (facts, lost)) in cone.dead.iter().zip(&mut self.lost).enumerate() {
            let pred = PredId(p as u32);
            let cols = db.pred(pred).columns();
            let stored = facts
                .iter()
                .filter_map(|key| Some((cols.id_of_encoded(key)?, key)));
            let mut found: Vec<(u32, &Box<[u64]>)> = stored.collect();
            found.sort_unstable_by_key(|&(id, _)| id);
            lost.extend(found.iter().map(|&(_, key)| key.clone()));
            for &(id, _) in found.iter().rev() {
                db.remove(pred, id);
            }
        }
        if let Some(log) = self.events.as_mut() {
            log.kill(&cone.dead_events);
        }
        self.tracer.record(0, SpanKind::ResumeDelete, delete_start);
    }

    /// Runs one stratum to its fixed point from `seed`, under the
    /// configured strategy. The naïve strategy ignores the seed: it
    /// re-evaluates every rule each round whatever changed.
    pub(crate) fn run_stratum(
        &mut self,
        stratum: usize,
        group: &[usize],
        seed: Seed,
    ) -> Result<(), SolveError> {
        if self.kernels.is_none() {
            let config = &self.solver.config;
            self.kernels = Some(KernelSet::compile(
                self.program,
                Arc::make_mut(&mut self.db),
                config.ascent.is_none(),
                config.record_provenance,
                config.use_indexes,
                &self.lost,
            ));
        }
        self.stats.strata += 1;
        self.stats.per_stratum.push(StratumStats {
            stratum,
            rounds: 0,
            delta_sizes: Vec::new(),
        });
        let stratum_start = self.tracer.now_ns();
        let result = self.iterate(stratum, group, seed);
        // Record the stratum span even when the stratum failed, so a
        // guarded failure still carries the partial trace.
        self.tracer
            .record(0, SpanKind::Stratum { stratum }, stratum_start);
        result
    }

    fn iterate(&mut self, stratum: usize, group: &[usize], seed: Seed) -> Result<(), SolveError> {
        let full: Vec<Task> = group
            .iter()
            .map(|&r| Task {
                rule: r,
                variant: None,
            })
            .collect();
        // Reused across rounds, so the (often tens of megabytes of)
        // derivation storage is allocated once per stratum.
        let mut buf = Derivations::default();
        match self.solver.config.strategy {
            Strategy::Naive => loop {
                let changes = self.round(stratum, &full, &[], &mut buf)?;
                if drained(&changes) {
                    break;
                }
            },
            Strategy::SemiNaive => {
                let mut delta = match seed {
                    Seed::Full => self.round(stratum, &full, &[], &mut buf)?,
                    Seed::Rederive => {
                        let tasks = self.head_bound_tasks(group);
                        // What this round changes is pending, too.
                        self.round(stratum, &tasks, &[], &mut buf)?;
                        self.pending_for(group)
                    }
                    Seed::Delta => self.pending_for(group),
                };
                // The incremental rounds of §3.7.
                while !drained(&delta) {
                    let mut tasks = Vec::new();
                    for &r in group {
                        let variants = &self.program.rules[r].delta_variants;
                        for (vi, (pred, _)) in variants.iter().enumerate() {
                            if !delta[pred.0 as usize].ids.is_empty() {
                                tasks.push(Task {
                                    rule: r,
                                    variant: Some(vi),
                                });
                            }
                        }
                    }
                    delta = self.round(stratum, &tasks, &delta, &mut buf)?;
                }
            }
        }
        Ok(())
    }

    /// The warm-start `∆` of [`Seed::Delta`]: the pending changes of
    /// every predicate the stratum's rules read positively, each read at
    /// its stored state. Relational row ids pass through as-is; lattice
    /// cell ids are deduplicated and carry no value, so the delta step
    /// reads the *current* cell (intermediate values a cell climbed
    /// through in earlier strata must not leak into this stratum's
    /// witnesses — a from-scratch solve would only ever see the settled
    /// value).
    fn pending_for(&self, group: &[usize]) -> Vec<DeltaRows> {
        let pending = self.pending.as_ref().expect("seeded on warm runs only");
        let mut seed = vec![DeltaRows::default(); pending.len()];
        for &r in group {
            for item in &self.program.rules[r].body {
                let CItem::Atom { pred, .. } = item else {
                    continue;
                };
                let p = pred.0 as usize;
                if !seed[p].ids.is_empty() {
                    continue;
                }
                seed[p].ids = match self.db.pred(*pred) {
                    PredData::Rel(_) => pending[p].clone(),
                    PredData::Lat(_) => {
                        let mut seen = FxHashSet::default();
                        let first = pending[p].iter().filter(|&&id| seen.insert(id));
                        first.copied().collect()
                    }
                };
            }
        }
        seed
    }

    /// The first round of [`Seed::Rederive`]: every rule of the stratum
    /// whose head predicate lost facts, evaluated through its head-bound
    /// plan — or, when no head column can be bound, in full.
    fn head_bound_tasks(&self, group: &[usize]) -> Vec<Task> {
        let kernels = self.kernels.as_ref().expect("compiled by run_stratum");
        let rules = group.iter().copied();
        rules
            .filter(|&r| self.lost(self.program.rules[r].head_pred))
            .map(|rule| Task {
                rule,
                variant: kernels.head_bound(rule),
            })
            .collect()
    }

    fn check_round(&self, stratum: usize) -> Result<(), SolveError> {
        let config = &self.solver.config;
        if let Some(limit) = config.max_rounds {
            if self.stats.rounds >= limit {
                return Err(SolveError::RoundLimitExceeded {
                    limit,
                    stratum,
                    stats: self.stats.clone(),
                });
            }
        }
        let exceeded = self
            .guard
            .exceeded(self.stats.facts_derived, self.db.total_facts() as u64);
        if let Some(kind) = exceeded {
            return Err(SolveError::BudgetExceeded {
                kind,
                stats: self.stats.clone(),
            });
        }
        Ok(())
    }

    /// One fixed-point round: evaluates `tasks` against `delta` and
    /// absorbs what they derived. Returns the round's net changes per
    /// predicate — the next `∆` — which a warm run also remembers as
    /// pending for the strata above.
    fn round(
        &mut self,
        stratum: usize,
        tasks: &[Task],
        delta: &[DeltaRows],
        buf: &mut Derivations,
    ) -> Result<Vec<DeltaRows>, SolveError> {
        self.check_round(stratum)?;
        self.stats.rounds += 1;
        let round = self.stats.rounds;
        if let Some(st) = self.stats.per_stratum.last_mut() {
            st.rounds += 1;
        }
        if let Some(obs) = &self.solver.config.observer {
            obs.round_started(stratum, round, self.db.total_facts() as u64);
        }
        let round_start = self.tracer.now_ns();
        let outcome = self
            .run_tasks(stratum, round, tasks, delta, buf)
            .and_then(|()| self.absorb(buf));
        // Recorded on the error paths too (partial traces on guarded
        // failures).
        self.tracer
            .record(0, SpanKind::Round { stratum, round }, round_start);
        let changes = outcome?;
        if let Some(pending) = self.pending.as_mut() {
            for (pending, rows) in pending.iter_mut().zip(&changes) {
                pending.extend_from_slice(&rows.ids);
            }
        }
        Ok(changes)
    }

    /// Drains one round's derivations into the database: the only place a
    /// derived fact is inserted. Counts gross derivations and net
    /// changes, credits the first changing rule, checks ascent, logs the
    /// rule event — the row's slots as the store now holds them and the
    /// derivation's premise words, copied — and collects the round's
    /// changes, the next `∆`.
    ///
    /// Within one round a lattice cell can climb through several
    /// intermediate values, and *how many* strict increases it takes
    /// depends on the order candidate values are merged — which differs
    /// between naïve and semi-naïve evaluation. Counting only the first
    /// increase per cell per round (`touched`) makes `facts_inserted`,
    /// the per-rule `inserted` credit, and the per-round `delta_sizes`
    /// *net* quantities (distinct facts changed between round
    /// boundaries), which are strategy-invariant (see the "Strategy
    /// invariance" section on [`SolveStats`]). Relational tuples change
    /// at most once ever, so only lattice increases are tracked. The `∆`
    /// still gets one entry per increase, each with the value it reached.
    fn absorb(&mut self, buf: &mut Derivations) -> Result<Vec<DeltaRows>, SolveError> {
        let db = Arc::make_mut(&mut self.db);
        let mut changes = vec![DeltaRows::default(); self.program.preds.len()];
        let mut changed = 0u64;
        let mut touched: FxHashSet<(PredId, u32)> = FxHashSet::default();
        // Where the next derivation's premises start in the arena.
        let (mut words, mut side) = (0, 0);
        for d in buf.items.drain(..) {
            self.stats.facts_derived += 1;
            let premises = (words, side);
            words += d.premise_words as usize;
            side += d.premise_side as usize;
            let outcome = insert_derived(db, d.pred, d.payload)
                .map_err(|fault| insert_fault_error(self.program, d.pred, Some(d.rule), fault))?;
            let Some((id, raised)) = outcome.into_change() else {
                continue;
            };
            if raised.is_none() || touched.insert((d.pred, id)) {
                self.stats.facts_inserted += 1;
                self.stats.per_rule[d.rule].inserted += 1;
                changed += 1;
            }
            if raised.is_some() {
                self.solver.check_ascent(self.program, db, d.pred, id);
            }
            if let Some(log) = self.events.as_mut() {
                let head = (db.pred(d.pred).columns(), id);
                let premises = (
                    &buf.premise_words[premises.0..words],
                    &mut buf.premise_side[premises.1..side],
                );
                log.record(d.pred, Some(d.rule), head, raised.as_ref(), premises);
            }
            let rows = &mut changes[d.pred.0 as usize];
            rows.ids.push(id);
            rows.values.extend(raised);
        }
        if let Some(st) = self.stats.per_stratum.last_mut() {
            st.delta_sizes.push(changed);
        }
        Ok(changes)
    }

    /// The epilogue of every entry point: final counters, the `Solve`
    /// span, the observer's `solve_finished`, and the [`Solution`] — as
    /// the result, or as the partial model of a [`SolveFailure`].
    pub(crate) fn finish(
        self,
        outcome: Result<(), SolveError>,
    ) -> Result<Solution, Box<SolveFailure>> {
        let program = self.program;
        self.finish_as(program, outcome, |finished| finished)
    }

    /// Finishes a run that was refused before it evaluated anything.
    pub(crate) fn reject(self, error: SolveError) -> Box<SolveFailure> {
        self.finish(Err(error))
            .expect_err("an error outcome finishes as a failure")
    }

    /// [`Run::finish`] for a run whose program is not the one the caller
    /// asked about: `rewrite` translates what the run produced into
    /// `program`'s terms first.
    pub(crate) fn finish_as(
        mut self,
        program: &Program,
        outcome: Result<(), SolveError>,
        rewrite: impl FnOnce(Finished) -> Finished,
    ) -> Result<Solution, Box<SolveFailure>> {
        self.stats.total_facts = self.db.total_facts() as u64;
        self.stats.wall_ns = self.wall_start.elapsed().as_nanos() as u64;
        self.tracer.record(0, SpanKind::Solve, 0);
        let Finished {
            db,
            edb,
            stats,
            events,
            trace,
            outcome,
        } = rewrite(Finished {
            trace: self.tracer.finish(rule_heads(self.program)),
            db: self.db,
            edb: self.edb,
            stats: self.stats,
            events: self.events,
            outcome,
        });
        if let Some(obs) = &self.solver.config.observer {
            obs.solve_finished(&stats);
        }
        let solution = Solution::new(
            program,
            db,
            edb,
            stats.clone(),
            events.map(|log| (log.freeze(), self.events_complete)),
            trace,
        );
        match outcome {
            Ok(()) => Ok(solution),
            Err(mut error) => {
                // The stats snapshot embedded at the failure site predates
                // the final counter fold; refresh it.
                if let SolveError::RoundLimitExceeded { stats: s, .. }
                | SolveError::BudgetExceeded { stats: s, .. } = &mut error
                {
                    *s = stats.clone();
                }
                Err(Box::new(SolveFailure {
                    error,
                    partial: solution,
                    stats,
                }))
            }
        }
    }

    /// Evaluates one round's tasks, appending their derivations to `out`.
    fn run_tasks(
        &mut self,
        stratum: usize,
        round: u64,
        tasks: &[Task],
        delta: &[DeltaRows],
        out: &mut Derivations,
    ) -> Result<(), SolveError> {
        let solver = self.solver;
        let program = self.program;
        let guard = &self.guard;
        let tracer = &self.tracer;
        let db: &Database = &self.db;
        let kernels = self.kernels.as_ref().expect("compiled by run_stratum");
        let stats = &mut self.stats;
        out.clear();
        stats.rule_evaluations += tasks.len() as u64;
        // The one task loop, on whichever thread runs it: evaluate each
        // task in order into `out`, hand its report to `note`, stop at
        // the first fault. The thread's ring merges into its track even
        // on a fault, so the partial trace keeps the spans recorded
        // before it.
        let task_loop = |tasks: &[Task],
                         tid: u32,
                         eval_guard: &EvalGuard,
                         out: &mut Derivations,
                         note: &mut dyn FnMut(&TaskReport)|
         -> Result<(), SolveError> {
            let mut ring = tracer.local_ring();
            let mut scratch = kernel::KernelScratch::new();
            let result = tasks.iter().try_for_each(|task| {
                let mut span = TaskSpan {
                    tracer,
                    ring: &mut ring,
                    tid,
                    stratum,
                    round,
                };
                let report = run_one_task(
                    program,
                    db,
                    kernels,
                    task,
                    delta,
                    eval_guard,
                    out,
                    &mut span,
                    &mut scratch,
                )?;
                note(&report);
                Ok(())
            });
            tracer.merge(tid, ring);
            result
        };
        if solver.config.threads <= 1 || tasks.len() <= 1 {
            // On the coordinator: track 0, the unscaled guard, straight
            // into the round's `out` and `stats`.
            let mut note = |report: &TaskReport| Solver::note_task(stats, report);
            return task_loop(tasks, 0, &guard.eval_guard(), out, &mut note);
        }
        // Parallel: rule evaluations within a round only read the database,
        // so they can proceed concurrently; outputs are merged afterwards
        // in chunk order, keeping insertion order (and therefore the
        // solution and the per-rule insertion credit) identical to the
        // sequential path. Each worker gets its own EvalGuard with the
        // poll period divided by the worker count, so the aggregate
        // deadline-check frequency matches the sequential path. A fault in
        // any worker fails the whole round.
        let threads = solver.config.threads;
        let chunk = tasks.len().div_ceil(threads);
        let inject_panic = solver.inject_worker_panic;
        let mut joined: Vec<std::thread::Result<WorkerResult>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .chunks(chunk)
                .enumerate()
                .map(|(w, task_chunk)| {
                    // Track ids are stable worker *slots* (chunk index + 1;
                    // 0 is the coordinator), so a worker's spans land on
                    // the same Perfetto track every round even though the
                    // scoped threads themselves are re-spawned per round.
                    let tid = (w + 1) as u32;
                    scope.spawn(move || {
                        if inject_panic {
                            panic!("injected worker panic (test hook)");
                        }
                        let eval_guard = guard.eval_guard_scaled(threads);
                        let mut out = Derivations::default();
                        let mut reports = Vec::with_capacity(task_chunk.len());
                        let mut note = |report: &TaskReport| reports.push(*report);
                        task_loop(task_chunk, tid, &eval_guard, &mut out, &mut note)?;
                        Ok((out, reports))
                    })
                })
                .collect();
            // Every handle must be joined — an unjoined panicked thread
            // would re-raise its panic when the scope exits, aborting the
            // process and losing the partial model. Result *draining*
            // stops at the first failure instead (see below).
            for h in handles {
                joined.push(h.join());
            }
        });
        let mut failure: Option<SolveError> = None;
        for result in joined {
            if failure.is_some() {
                // A worker already failed: drop the remaining chunks
                // rather than merging derivations past the fault.
                continue;
            }
            match result {
                Ok(Ok((chunk_out, reports))) => {
                    for report in &reports {
                        Solver::note_task(stats, report);
                    }
                    out.append(chunk_out);
                }
                Ok(Err(error)) => failure = Some(error),
                // A panic that escaped the worker's guarded paths is an
                // internal solver bug; convert it into the structured
                // error instead of aborting the process, preserving the
                // PR-1 guarantee that failures return a partial model.
                Err(payload) => {
                    failure = Some(SolveError::FunctionPanicked {
                        predicate: "<internal>".to_string(),
                        rule: None,
                        function: "solver worker".to_string(),
                        payload: panic_payload(payload),
                    })
                }
            }
        }
        failure.map_or(Ok(()), Err)
    }
}

/// What one parallel worker returns: its derivations plus one
/// [`TaskReport`] per task it ran.
type WorkerResult = Result<(Derivations, Vec<TaskReport>), SolveError>;

/// Counters for one rule evaluation, reported back to the coordinating
/// thread (which owns the [`SolveStats`] and the [`Observer`]).
#[derive(Clone, Copy, Debug)]
struct TaskReport {
    rule: usize,
    /// All derivations of this evaluation, suppressed ones included.
    derived: u64,
    /// The suppressed subset of `derived`: counted into `facts_derived`
    /// here because those tuples never reach the insert loop's counter.
    suppressed: u64,
    probes: u64,
    scans: u64,
    eval_ns: u64,
}

/// Where one task records its rule-eval span: the worker's local ring
/// (`None` when tracing is disabled) plus the coordinates the span needs.
struct TaskSpan<'a, 'b> {
    tracer: &'a Tracer,
    ring: &'b mut Option<Ring>,
    tid: u32,
    stratum: usize,
    round: u64,
}

/// Evaluates one task, converting an [`EvalFault`] into a [`SolveError`]
/// attributed to the task's rule. Returns the task's work counters (time,
/// derivations, probe/scan counts) for the per-rule profile.
#[allow(clippy::too_many_arguments)]
fn run_one_task(
    program: &Program,
    db: &Database,
    kernels: &KernelSet,
    task: &Task,
    delta: &[DeltaRows],
    eval_guard: &EvalGuard<'_>,
    out: &mut Derivations,
    span: &mut TaskSpan<'_, '_>,
    scratch: &mut kernel::KernelScratch,
) -> Result<TaskReport, SolveError> {
    eval_guard
        .check_now()
        .map_err(|kind| SolveError::BudgetExceeded {
            kind,
            stats: SolveStats::default(),
        })?;
    let before = out.items.len();
    let mut counters = EvalCounters::default();
    let start = Instant::now();
    let result = kernel::run_plan(
        program,
        db,
        kernels.plan(task.rule, task.variant),
        task.rule,
        delta,
        eval_guard,
        &mut counters,
        out,
        scratch,
    );
    let eval_ns = start.elapsed().as_nanos() as u64;
    if let Some(ring) = span.ring.as_mut() {
        // Reuses the timing this function already takes for the profile;
        // recorded before the error check so a faulting evaluation still
        // shows up in the partial trace.
        ring.push(TraceEvent {
            kind: SpanKind::RuleEval {
                stratum: span.stratum,
                round: span.round,
                rule: task.rule,
                variant: task.variant,
                derived: (out.items.len() - before) as u64 + counters.suppressed,
            },
            tid: span.tid,
            start_ns: span.tracer.at_ns(start),
            dur_ns: eval_ns,
        });
    }
    result.map_err(|fault| eval_fault_error(program, task.rule, fault))?;
    Ok(TaskReport {
        rule: task.rule,
        derived: (out.items.len() - before) as u64 + counters.suppressed,
        suppressed: counters.suppressed,
        probes: counters.probes,
        scans: counters.scans,
        eval_ns,
    })
}

/// Attributes an [`InsertFault`] (from [`Database::insert`]) to the
/// predicate and rule it happened under.
pub(crate) fn insert_fault_error(
    program: &Program,
    pred: PredId,
    rule: Option<usize>,
    fault: InsertFault,
) -> SolveError {
    let predicate = program.decl(pred).name.to_string();
    match fault {
        InsertFault::Panic(OpsPanic { function, payload }) => SolveError::FunctionPanicked {
            predicate,
            rule,
            function,
            payload,
        },
        InsertFault::Safety(violation) => SolveError::SafetyViolation {
            predicate,
            rule,
            violation,
        },
    }
}

/// Attributes an [`EvalFault`] (raised during rule-body evaluation) to the
/// rule's head predicate.
fn eval_fault_error(program: &Program, rule: usize, fault: EvalFault) -> SolveError {
    let predicate = program.decl(program.rules[rule].head_pred).name.to_string();
    match fault {
        EvalFault::Panic { function, payload } => SolveError::FunctionPanicked {
            predicate,
            rule: Some(rule),
            function,
            payload,
        },
        EvalFault::Safety(violation) => SolveError::SafetyViolation {
            predicate,
            rule: Some(rule),
            violation,
        },
        EvalFault::Budget(kind) => SolveError::BudgetExceeded {
            kind,
            stats: SolveStats::default(),
        },
    }
}

/// The head-predicate name of every rule, indexed by rule — the label
/// table an [`ExecutionTrace`] renders rule spans with.
pub(crate) fn rule_heads(program: &Program) -> Vec<String> {
    program
        .rules
        .iter()
        .map(|r| program.decl(r.head_pred).name.to_string())
        .collect()
}

/// One rule evaluation within a round: the full body (seed/naïve), or a
/// variant — a delta variant (delta atom first) or, numbered after
/// those, the rule's head-bound plan.
#[derive(Clone, Copy, Debug)]
struct Task {
    rule: usize,
    variant: Option<usize>,
}

/// One derived head tuple. With provenance recorded, its premises are
/// the next `premise_words` words and `premise_side` values of the
/// [`Derivations`] it sits in.
#[derive(Clone, Debug)]
pub(crate) struct Derived {
    pub(crate) pred: PredId,
    pub(crate) payload: Payload,
    pub(crate) rule: usize,
    pub(crate) premise_words: u32,
    pub(crate) premise_side: u32,
}

/// The derivations of one round (or of one worker's share of it), in
/// derivation order, and the arena their premises are recorded in: per
/// derivation a run of words — a premise's predicate, then one slot per
/// column — and the values of the columns that have no slot (see
/// [`crate::provenance`]). Both stay empty when provenance is off.
#[derive(Default)]
pub(crate) struct Derivations {
    pub(crate) items: Vec<Derived>,
    pub(crate) premise_words: Vec<u64>,
    pub(crate) premise_side: Vec<Value>,
}

impl Derivations {
    fn clear(&mut self) {
        self.items.clear();
        self.premise_words.clear();
        self.premise_side.clear();
    }

    /// Appends `later`'s derivations after these. A derivation holds the
    /// lengths of its premise runs, not their offsets, so nothing is
    /// rebased.
    fn append(&mut self, mut later: Derivations) {
        self.items.append(&mut later.items);
        self.premise_words.append(&mut later.premise_words);
        self.premise_side.append(&mut later.premise_side);
    }
}

/// Width of the inline encoded-key representation shared by the kernel's
/// shadow tables and the encoded payloads ([`Payload::RelEnc`],
/// [`Payload::LatEnc`]). Wider heads fall back to materialized tuples.
pub(crate) const ENC_KEY: usize = 4;

/// The content of a [`Derived`] fact: the head kept in the encoded form
/// the plan's registers hold it in, so the insert loop neither decodes
/// nor re-encodes it — or, for what the plan could not encode, a
/// materialized head tuple.
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    /// A fully materialized head tuple (lattice heads carry the cell
    /// value as the last column): a head with a value the store has not
    /// interned or spilled yet — the insert path does that — or one
    /// wider than [`ENC_KEY`] columns.
    Tuple(Vec<Value>),
    /// A relational head whose slots are canonical encodings against the
    /// database the kernel probed.
    RelEnc {
        /// Number of live slots in `key`.
        arity: u8,
        /// Encoded columns, zero-padded past `arity`.
        key: [u64; ENC_KEY],
    },
    /// A lattice head whose key slots are canonical encodings against the
    /// database the kernel probed; the cell value is a word lattice's word
    /// (canonical the same way), or materialized.
    LatEnc {
        /// Number of live slots in `key`.
        arity: u8,
        /// Row id of the target cell when the kernel resolved it
        /// ([`crate::database::NO_ID`] otherwise). Ids are append-only
        /// during evaluation ([`Run::delete`] runs before a run's first
        /// stratum), so a resolved id is still the same cell at insert
        /// time; the insert skips the hash lookup and joins the cell
        /// directly.
        id: u32,
        /// Encoded key columns, zero-padded past `arity`.
        key: [u64; ENC_KEY],
        /// The candidate cell value.
        cell: Elem,
    },
}

/// The changes of one predicate that a semi-naïve round reads as `∆P`
/// (§3.7): row ids into the predicate's columnar store, never copies of
/// the tuples — delta steps read them through the same encoded columns
/// as probes and scans do.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeltaRows {
    /// The changed rows (relations) or cells (lattice predicates), in
    /// change order. A cell raised twice in one round is listed twice.
    pub(crate) ids: Vec<u32>,
    /// Lattice predicates, round-produced `∆` only: parallel to `ids`,
    /// the value each change reached — the paper's `ga(P', S)` — in its
    /// lattice's representation. Empty for a seed `∆`, whose cells are
    /// read at their current value.
    pub(crate) values: Vec<Elem>,
}

/// Feeds a derived fact into the database, consuming the payload: a
/// database change is reported back through the [`InsertOutcome`], which
/// names the row — all the event log and the next `∆` need.
fn insert_derived(
    db: &mut Database,
    pred: PredId,
    payload: Payload,
) -> Result<InsertOutcome, InsertFault> {
    match payload {
        Payload::Tuple(t) => db.insert(pred, &t),
        Payload::RelEnc { arity, key } => db.insert_rel_encoded(pred, &key[..arity as usize]),
        Payload::LatEnc {
            arity,
            id,
            key,
            cell,
        } => db.insert_lat_encoded(pred, &key[..arity as usize], id, cell),
    }
}

/// Whether a per-predicate `∆` holds no rows: the fixed-point test.
fn drained(delta: &[DeltaRows]) -> bool {
    delta.iter().all(|rows| rows.ids.is_empty())
}

/// A fault raised while evaluating one rule body: a caught panic in user
/// code, a tripped safety sentinel, or a budget limit hit mid-evaluation.
#[derive(Clone, Debug)]
pub(crate) enum EvalFault {
    /// A user function or lattice operation panicked.
    Panic {
        /// The function that panicked.
        function: String,
        /// The rendered panic payload.
        payload: String,
    },
    /// A runtime sentinel tripped.
    Safety(Violation),
    /// A budget limit tripped during evaluation.
    Budget(BudgetKind),
}

impl From<OpsPanic> for EvalFault {
    fn from(p: OpsPanic) -> EvalFault {
        EvalFault::Panic {
            function: p.function,
            payload: p.payload,
        }
    }
}

/// Index-probe / scan-fallback counters for one rule evaluation. Local to
/// the evaluating thread (no shared atomics on the hot path); the solver
/// folds them into the per-rule profile after the task finishes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EvalCounters {
    pub(crate) probes: u64,
    pub(crate) scans: u64,
    /// Derivations a plan suppressed at emit time because the database
    /// already subsumed them (the insert loop would have dropped them as
    /// `Unchanged`). Counted back into `facts_derived`, which stays the
    /// gross derivation count.
    pub(crate) suppressed: u64,
}

/// The extensional store E a model is the least fixed point of: every
/// asserted relation tuple and lattice contribution, program facts
/// composed with absorbed deltas.
pub(crate) type ExtensionalStore = Arc<Vec<(PredId, Vec<Value>)>>;

/// The computed minimal model: the final fact database plus run statistics.
///
/// Query by predicate name; relations yield tuples, lattice predicates
/// yield `(key, element)` cells.
// Clone shares the database and the provenance log's segments (both are
// behind `Arc`s), so cloning a solution is cheap even for large models;
// only the stats and any recorded trace are deep-copied.
#[derive(Clone, Debug)]
pub struct Solution {
    names: std::collections::HashMap<String, PredId>,
    pred_names: Vec<String>, // by predicate id
    kinds: Vec<bool>,        // true = lattice
    // Shared, not owned: an empty-delta resume and a persistence
    // round-trip both hand back the same database without copying it.
    db: Arc<Database>,
    stats: SolveStats,
    events: Option<EventLog>,
    // Whether `events` covers every insertion since the empty database —
    // the precondition for exact retraction handling in `resume`. False
    // when a recording resume extended a prior that had no log.
    events_complete: bool,
    // The extensional store E this model is the least fixed point of:
    // the program's facts composed with every delta absorbed by resumes.
    edb: ExtensionalStore,
    trace: Option<ExecutionTrace>,
}

impl Solution {
    /// Assembles the queryable solution over `program`'s declarations
    /// from a (possibly partial) database and the store it was computed
    /// from. `events` pairs a recorded log with whether it covers every
    /// insertion since the empty database.
    pub(crate) fn new(
        program: &Program,
        db: Arc<Database>,
        edb: ExtensionalStore,
        stats: SolveStats,
        events: Option<(EventLog, bool)>,
        trace: Option<ExecutionTrace>,
    ) -> Solution {
        let (events, events_complete) = match events {
            Some((log, complete)) => (Some(log), complete),
            None => (None, false),
        };
        Solution {
            names: program
                .preds
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name.to_string(), PredId(i as u32)))
                .collect(),
            pred_names: program.preds.iter().map(|d| d.name.to_string()).collect(),
            kinds: program
                .preds
                .iter()
                .map(|d| matches!(d.kind, PredKind::Lattice(_)))
                .collect(),
            db,
            stats,
            events,
            events_complete,
            edb,
            trace,
        }
    }

    /// Looks up a predicate id by name.
    pub fn predicate(&self, name: &str) -> Option<PredId> {
        self.names.get(name).copied()
    }

    /// Iterates the tuples of a relational predicate.
    ///
    /// Returns `None` for unknown names or lattice predicates.
    pub fn relation(&self, name: &str) -> Option<RelationIter<'_>> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Rel(rel) => Some(RelationIter {
                rows: rel.rows(self.db.spill()),
            }),
            PredData::Lat(_) => None,
        }
    }

    /// Iterates the `(key, element)` cells of a lattice predicate.
    ///
    /// Returns `None` for unknown names or relational predicates.
    pub fn lattice(&self, name: &str) -> Option<LatticeIter<'_>> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Lat(lat) => Some(LatticeIter::of(lat, self.db.spill())),
            PredData::Rel(_) => None,
        }
    }

    /// Iterates every fact of a predicate, relational or lattice, as a
    /// uniform [`Fact`] view.
    ///
    /// This is the one enumeration that works regardless of predicate
    /// kind — model printing and the model-theory checker go through it.
    /// Returns `None` for unknown names.
    pub fn facts(&self, name: &str) -> Option<FactsIter<'_>> {
        let pred = self.predicate(name)?;
        let inner = match self.db.pred(pred) {
            PredData::Rel(rel) => FactsInner::Rel(RelationIter {
                rows: rel.rows(self.db.spill()),
            }),
            PredData::Lat(lat) => FactsInner::Lat(LatticeIter::of(lat, self.db.spill())),
        };
        Some(FactsIter { inner })
    }

    /// The facts of a predicate as sorted `Pred(args)` lines, only those
    /// matching `pattern` when one is given: the one rendering of a
    /// model's facts, which `flixr` prints and `flixd` replies with.
    /// Returns `None` for unknown names.
    pub fn fact_lines(&self, name: &str, pattern: Option<&Query>) -> Option<Vec<String>> {
        let facts = self.facts(name)?;
        let mut lines: Vec<String> = facts
            .filter(|fact| pattern.is_none_or(|q| q.matches(fact)))
            .map(|fact| format!("{name}({fact})"))
            .collect();
        lines.sort();
        Some(lines)
    }

    /// Every fact of the model as [`Solution::fact_lines`] renders it,
    /// predicate by predicate in name order. For names of identifier
    /// characters that is sorted order, since `(` sorts below them all.
    pub fn model_lines(&self) -> Vec<String> {
        let mut names: Vec<&str> = self.pred_names.iter().map(String::as_str).collect();
        names.sort_unstable();
        let mut lines = Vec::with_capacity(self.total_facts());
        for name in names {
            lines.extend(self.fact_lines(name, None).expect("a declared predicate"));
        }
        lines
    }

    /// The lattice element at `key`, or the lattice's `⊥` when the cell
    /// was never derived. Returns `None` for unknown or relational
    /// predicates.
    pub fn lattice_value(&self, name: &str, key: &[Value]) -> Option<Value> {
        let pred = self.predicate(name)?;
        match self.db.pred(pred) {
            PredData::Lat(lat) => Some(
                lat.value(key, self.db.spill())
                    .cloned()
                    .unwrap_or_else(|| lat.ops().bottom().clone()),
            ),
            PredData::Rel(_) => None,
        }
    }

    /// Returns `true` if the relational predicate contains the tuple.
    pub fn contains(&self, name: &str, row: &[Value]) -> bool {
        match self.predicate(name).map(|p| self.db.pred(p)) {
            Some(PredData::Rel(rel)) => rel.contains(row, self.db.spill()),
            _ => false,
        }
    }

    /// The number of facts stored for a predicate (tuples, or non-bottom
    /// cells for lattice predicates).
    pub fn len(&self, name: &str) -> Option<usize> {
        let pred = self.predicate(name)?;
        Some(self.db.len_of(pred))
    }

    /// Returns `true` if a predicate holds no facts.
    pub fn is_empty(&self, name: &str) -> Option<bool> {
        self.len(name).map(|n| n == 0)
    }

    /// Returns `true` if the named predicate is a lattice predicate.
    pub fn is_lattice(&self, name: &str) -> Option<bool> {
        self.predicate(name).map(|p| self.kinds[p.0 as usize])
    }

    /// Total facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.db.total_facts()
    }

    /// The run statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The provenance event log, if the solver ran with
    /// [`Solver::record_provenance`] — one entry per database-changing
    /// insertion, in insertion order.
    ///
    /// The log is stored encoded, in pieces a resumed solution shares
    /// with the solution it resumed; the first call decodes it into one
    /// slice, which later calls return. [`Solution::explain`] does not
    /// need that slice and does not build it.
    pub fn provenance(&self) -> Option<&[Event]> {
        let log = self.events.as_ref()?;
        Some(log.decoded(self.db.spill()))
    }

    /// The merged execution trace, if the solver ran with
    /// [`Solver::trace`]. Present on partial solutions from guarded
    /// failures too (the spans recorded before the fault).
    pub fn trace(&self) -> Option<&ExecutionTrace> {
        self.trace.as_ref()
    }

    /// Aggregates the per-cell ascent counters into an [`AscentReport`],
    /// if the solver ran with [`Solver::ascent`]. `top_k` bounds the
    /// hottest-cells list (by join count).
    pub fn ascent_report(&self, top_k: usize) -> Option<AscentReport> {
        if !self.db.ascent_enabled() {
            return None;
        }
        let mut by_pred: std::collections::HashMap<PredId, &str> = std::collections::HashMap::new();
        for (name, &pred) in &self.names {
            by_pred.insert(pred, name);
        }
        let cells = self.db.ascent_cells();
        let mut histogram: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut per_lattice: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        let mut max_height = 0u64;
        for (_, _, _, height, lattice) in &cells {
            *histogram.entry(*height).or_insert(0) += 1;
            let entry = per_lattice.entry((*lattice).to_string()).or_insert(0);
            *entry = (*entry).max(*height);
            max_height = max_height.max(*height);
        }
        let mut ranked: Vec<_> = cells.iter().collect();
        ranked.sort_by(|a, b| {
            b.2.cmp(&a.2) // joins, descending
                .then(b.3.cmp(&a.3)) // height, descending
                .then(a.0.cmp(&b.0)) // predicate id
                .then(a.1.cmp(b.1)) // key, for determinism
        });
        let hottest = ranked
            .into_iter()
            .take(top_k)
            .map(|(pred, key, joins, height, _)| AscentCell {
                predicate: by_pred.get(pred).copied().unwrap_or("?").to_string(),
                key: format!(
                    "({})",
                    key.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                joins: *joins,
                height: *height,
            })
            .collect();
        Some(AscentReport {
            cells: cells.len() as u64,
            max_height,
            histogram: histogram.into_iter().collect(),
            hottest,
            per_lattice: per_lattice.into_iter().collect(),
        })
    }

    /// Reconstructs the derivation tree of a fact.
    ///
    /// For relational predicates, `row` is the full tuple; for lattice
    /// predicates, `row` may be the key columns alone (the explanation
    /// covers the last insertion that changed the cell) or the full tuple
    /// including a cell value (the explanation covers the last insertion
    /// at which the cell held exactly that value).
    ///
    /// Returns `None` when provenance was not recorded, the predicate is
    /// unknown, or no matching insertion exists. Premises blocked behind
    /// filters, negations, or choice bindings appear only through their
    /// positive atoms, per the provenance model documented in
    /// [`crate::provenance`].
    pub fn explain(&self, name: &str, row: &[Value]) -> Option<DerivationTree> {
        let log = self.events.as_ref()?;
        let pred = self.predicate(name)?;
        // A value the store has never seen is in no logged fact.
        let spill = self.db.spill();
        let encoded = |row: &[Value]| {
            let mut key = Vec::with_capacity(row.len());
            try_encode_row(row, spill, &mut key).then_some(key)
        };
        // A lattice row is the cell's key, or the key and a value the
        // cell once held; the arity is fixed, so one reading can hit.
        let as_key = encoded(row).and_then(|key| log.latest(pred, &key, None, |_| true));
        let at = as_key.or_else(|| {
            let (value, key) = row.split_last().filter(|_| self.kinds[pred.0 as usize])?;
            log.latest(pred, &encoded(key)?, None, |e| e.joined_to(value, spill))
        })?;
        Some(self.build_tree(log, at))
    }

    /// Decodes the event at `at` and, recursively, the events that
    /// established its premises: the nodes of the tree and nothing else.
    fn build_tree(&self, log: &EventLog, at: Pos) -> DerivationTree {
        let spill = self.db.spill();
        let event = log.event(at);
        let children = event
            .premises()
            .filter_map(|premise| {
                // Resolve to the latest earlier event establishing the
                // premise; positions strictly decrease, so this
                // terminates. For a lattice premise the witnessed value
                // may be below the stored cell value: the key columns
                // decide, whatever the value.
                let established = match premise.ground_key() {
                    Some(key) => log.latest(premise.pred, key, Some(at), |_| true),
                    None => log.latest_scanned(at, |e| {
                        e.pred == premise.pred && premise.key_matches(e.key, spill)
                    }),
                };
                established.map(|earlier| self.build_tree(log, earlier))
            })
            .collect();
        DerivationTree {
            predicate: self.pred_names[event.pred.0 as usize].clone(),
            tuple: event.tuple(spill),
            rule: event.rule(),
            children,
        }
    }

    pub(crate) fn database(&self) -> &Database {
        &self.db
    }

    /// Test hook: the predicates whose decoded read view — the `&[Value]`
    /// rows or keys, or the elements of word cells — a read through this
    /// solution (or another over the same database) has built. A solve or
    /// a resume builds none; the first read of a predicate builds that
    /// predicate's. Compiled only for the crate's own tests and under the
    /// `test-internals` feature.
    #[doc(hidden)]
    #[cfg(any(test, feature = "test-internals"))]
    pub fn decoded_predicates(&self) -> Vec<&str> {
        let decoded = self.db.decoded_predicates().into_iter();
        decoded
            .map(|pred| self.pred_names[pred.0 as usize].as_str())
            .collect()
    }

    /// The database behind this solution, shared. The empty-delta and
    /// rejected-delta exits of [`Solver::resume`](crate::incremental)
    /// return a new [`Solution`] over the same allocation instead of
    /// cloning.
    pub(crate) fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    pub(crate) fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// The number of predicates this solution was solved over, used by
    /// [`crate::incremental`] to reject a prior solution whose program
    /// does not match the one being resumed.
    pub(crate) fn num_predicates(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the event log covers every insertion since the empty
    /// database (see the field). Meaningful only when `events` is some.
    pub(crate) fn events_complete(&self) -> bool {
        self.events_complete
    }

    /// The extensional store this model is the fixed point of.
    pub(crate) fn edb(&self) -> &ExtensionalStore {
        &self.edb
    }
}

// The service shares solutions across reader and writer threads; losing
// either bound is an API break, caught at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solution>();
};

/// Iterator over the tuples of a relational predicate, returned by
/// [`Solution::relation`]. Tuples come back in insertion order — after a
/// retracting [`Solver::resume`](crate::incremental), with the last
/// tuples in the places of the deleted ones — which is deterministic for
/// a given program, update history and solver configuration.
#[derive(Clone, Debug)]
pub struct RelationIter<'a> {
    rows: crate::database::RowsIter<'a>,
}

impl<'a> Iterator for RelationIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.rows.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for RelationIter<'_> {}

/// Iterator over the `(key, element)` cells of a lattice predicate,
/// returned by [`Solution::lattice`]. Cells come back in first-derived
/// key order (a retracting resume puts the last cells in the places of
/// the deleted ones); `⊥` cells are never stored, so never yielded.
#[derive(Clone, Debug)]
pub struct LatticeIter<'a> {
    cells: crate::database::CellsIter<'a>,
}

impl<'a> LatticeIter<'a> {
    fn of(lat: &'a crate::database::LatticeData, spill: &crate::database::SpillTable) -> Self {
        LatticeIter {
            cells: lat.iter(spill),
        }
    }
}

impl<'a> Iterator for LatticeIter<'a> {
    type Item = (&'a [Value], &'a Value);

    fn next(&mut self) -> Option<(&'a [Value], &'a Value)> {
        self.cells.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cells.size_hint()
    }
}

impl ExactSizeIterator for LatticeIter<'_> {}

/// One fact of a [`Solution`], as yielded by [`Solution::facts`]: either
/// a relational tuple or a lattice cell.
///
/// `Display` renders the comma-separated column list (key columns plus
/// the cell element for lattice facts); [`Solution::fact_lines`] wraps it
/// in the predicate's name for the canonical `Pred(a, b, c)` line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fact<'a> {
    /// A relational tuple.
    Row(&'a [Value]),
    /// A lattice cell: the key columns and the cell's element.
    Cell(&'a [Value], &'a Value),
}

impl Fact<'_> {
    /// The key columns: the full tuple for relational facts, the key
    /// columns (without the element) for lattice cells.
    pub fn key(&self) -> &[Value] {
        match self {
            Fact::Row(row) => row,
            Fact::Cell(key, _) => key,
        }
    }

    /// The lattice element, for lattice cells.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Fact::Row(_) => None,
            Fact::Cell(_, value) => Some(value),
        }
    }
}

impl fmt::Display for Fact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.key().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if let Some(value) = self.value() {
            if self.key().is_empty() {
                write!(f, "{value}")?;
            } else {
                write!(f, ", {value}")?;
            }
        }
        Ok(())
    }
}

/// Iterator over every fact of one predicate, returned by
/// [`Solution::facts`]; works uniformly for relations and lattices.
#[derive(Clone, Debug)]
pub struct FactsIter<'a> {
    inner: FactsInner<'a>,
}

#[derive(Clone, Debug)]
enum FactsInner<'a> {
    Rel(RelationIter<'a>),
    Lat(LatticeIter<'a>),
}

impl<'a> Iterator for FactsIter<'a> {
    type Item = Fact<'a>;

    fn next(&mut self) -> Option<Fact<'a>> {
        match &mut self.inner {
            FactsInner::Rel(rel) => rel.next().map(Fact::Row),
            FactsInner::Lat(lat) => lat.next().map(|(k, v)| Fact::Cell(k, v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            FactsInner::Rel(rel) => rel.size_hint(),
            FactsInner::Lat(lat) => lat.size_hint(),
        }
    }
}

impl ExactSizeIterator for FactsIter<'_> {}
