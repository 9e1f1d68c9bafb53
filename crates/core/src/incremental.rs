//! Incremental re-solving: warm-starting the fixed point from a prior
//! model plus a delta of extensional updates.
//!
//! A [`Delta`] is a sequence of [`DeltaOp`]s applied to the *extensional
//! store* E — the set of asserted facts the model is the least fixed
//! point of. Inserts and lub-raises grow E; retracts and lowers shrink
//! it. [`Solver::resume`] computes the model of the updated store E′
//! from the prior model, re-doing as little work as possible:
//!
//! * **Monotone deltas** (inserts and raises only) re-enter the
//!   semi-naïve loop directly. The strategy (§3.7 of the paper) already
//!   works in deltas: each round re-evaluates rules only against the
//!   ground atoms that *strictly increased* since the previous round,
//!   and a finished solve is simply the state where that delta has
//!   drained — so a monotone update seeds the loop as the initial `∆`,
//!   skipping the seed round and every untouched stratum entirely.
//!   FLIX programs are monotone, so `M(E) ⊑ M(E ∪ ∆)`: the prior model
//!   is a sound under-approximation of the updated one and nothing ever
//!   needs to be taken back.
//!
//! * **Retracting deltas** (any retract or lower with net effect) run a
//!   DRed-style over-delete/re-derive pass adapted to lattice semantics
//!   (see DESIGN §16). The provenance event log of the prior solve is a
//!   well-founded proof forest: premises are logged before conclusions.
//!   One forward pass over it marks the *cone of consequences* of the
//!   removed assertions — every derivation with a removed or already-
//!   marked premise, and for lattice cells every join at or after the
//!   first contaminated one. The database is rebuilt without the cone
//!   (an over-deletion: survivors are provably derivable from E′, so
//!   the result is a sound under-approximation), E′ is re-asserted, and
//!   the affected strata re-run to the fixed point, restoring every
//!   over-deleted fact that has an alternative derivation. Lattice
//!   cells converge to the lub of their *surviving* justifications
//!   rather than keeping a stale upper bound.
//!
//! * **Fallback.** Deltas the warm paths cannot handle exactly degrade
//!   to a from-scratch solve of E′ — the same model, without the
//!   speedup: deltas reaching a negated body atom (insertions into a
//!   negated predicate invalidate derivations; retractions create new
//!   ones), and retractions when the prior solve did not record a
//!   complete provenance log.
//!
//! All three are compositions of the same primitives `solve` is written
//! in — assert extensional facts, run a stratum from a seed, finish
//! (`Run` in `solver.rs`): a monotone resume asserts the net additions
//! and runs the strata they reach from their pending changes; a
//! retracting one rebuilds without the cone, asserts E′, and runs
//! strata whose heads lost facts in full; a fallback resets and does
//! exactly what `solve` does, over E′.
//!
//! # Example
//!
//! ```
//! use flix_core::incremental::Delta;
//! use flix_core::{BodyItem, Head, HeadTerm, ProgramBuilder, Solver, Term};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 2);
//! let path = b.relation("Path", 2);
//! b.fact(edge, vec![1.into(), 2.into()]);
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
//!     [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
//! );
//! b.rule(
//!     Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
//!     [
//!         BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
//!         BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
//!     ],
//! );
//! let program = b.build()?;
//! let solver = Solver::new();
//! let initial = solver.solve(&program)?;
//! assert!(!initial.contains("Path", &[1.into(), 3.into()]));
//!
//! // Monotone update: a new edge extends the reachable set.
//! let delta = Delta::new().insert("Edge", vec![2.into(), 3.into()]);
//! let updated = solver.resume(&program, &initial, &delta)?;
//! assert!(updated.contains("Path", &[1.into(), 3.into()]));
//!
//! // Retraction: taking the edge back restores the initial model.
//! // The store tracks deltas across resumes, so this removes the
//! // assertion made by the previous delta, not a program fact.
//! let delta = Delta::new().retract("Edge", vec![2.into(), 3.into()]);
//! let reverted = solver.resume(&program, &updated, &delta)?;
//! assert!(!reverted.contains("Path", &[1.into(), 3.into()]));
//! # Ok(())
//! # }
//! ```

// Internal plumbing passes `SolveError` by value between rounds, exactly
// like `solver.rs`; it is boxed inside `SolveFailure` at the API boundary.
#![allow(clippy::result_large_err)]

use crate::program::{CItem, Program};
use crate::provenance::{pattern_matches, Event, Source};
use crate::solver::{Run, Seed};
use crate::trace::SpanKind;
use crate::{PredId, Solution, SolveError, SolveFailure, Solver, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One update to the extensional store: an assertion added or removed.
///
/// All four operations are set operations on the store E of *asserted*
/// facts; the model is always the least fixed point of the rules over
/// the current store. In particular:
///
/// * `Retract` removes an assertion. Retracting a tuple that was never
///   asserted — including tuples only ever *derived* by rules — is a
///   no-op; derived facts disappear exactly when their last surviving
///   derivation does.
/// * `Raise` asserts that a lattice cell is at least `element` (the
///   cell holds the lub of all assertions and rule derivations), and is
///   equivalent to `Insert` with the element appended as the last
///   column.
/// * `Lower` removes the assertion made by the matching `Raise` (or
///   lattice fact). The cell re-settles at the lub of its *remaining*
///   justifications — possibly `⊥`, dropping the cell — rather than at
///   any particular smaller value. It is equivalent to `Retract` of the
///   key-plus-element tuple.
///
/// Operations are predicate-*name* based and are resolved — and
/// arity-checked — when the delta is applied.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Assert a relational tuple (or a lattice fact given as key columns
    /// plus the element).
    Insert {
        /// The predicate name.
        predicate: String,
        /// The full tuple, declared arity wide.
        tuple: Vec<Value>,
    },
    /// Remove a previously asserted relational tuple (or lattice fact).
    Retract {
        /// The predicate name.
        predicate: String,
        /// The full tuple, declared arity wide.
        tuple: Vec<Value>,
    },
    /// Assert that the lattice cell at `key` is at least `element`.
    Raise {
        /// The predicate name.
        predicate: String,
        /// The key columns (declared arity minus one).
        key: Vec<Value>,
        /// The asserted lattice element.
        element: Value,
    },
    /// Remove the assertion that the cell at `key` is at least
    /// `element`; the cell re-settles at the lub of what remains.
    Lower {
        /// The predicate name.
        predicate: String,
        /// The key columns (declared arity minus one).
        key: Vec<Value>,
        /// The element whose assertion is removed.
        element: Value,
    },
}

/// An update to a program's extensional store: a sequence of
/// [`DeltaOp`]s, applied in order by [`Solver::resume`].
///
/// The classic builder methods ([`Delta::insert`], [`Delta::raise`],
/// [`Delta::from_facts`], [`Delta::push`]) are thin wrappers that
/// construct the corresponding ops; [`Delta::retract`] and
/// [`Delta::lower`] cover the removing half, and [`Delta::op`] /
/// [`Delta::push_op`] take a [`DeltaOp`] directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// Creates an empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Appends one operation (chaining form).
    pub fn op(mut self, op: DeltaOp) -> Delta {
        self.ops.push(op);
        self
    }

    /// Appends one operation (mutating form).
    pub fn push_op(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Asserts one fact (chaining form): a full tuple for a relational
    /// predicate, or key columns plus the element for a lattice
    /// predicate. Wrapper over [`DeltaOp::Insert`].
    pub fn insert(mut self, predicate: impl Into<String>, tuple: Vec<Value>) -> Delta {
        self.push(predicate, tuple);
        self
    }

    /// Asserts one fact (mutating form). See [`Delta::insert`].
    pub fn push(&mut self, predicate: impl Into<String>, tuple: Vec<Value>) {
        self.ops.push(DeltaOp::Insert {
            predicate: predicate.into(),
            tuple,
        });
    }

    /// Removes one previously asserted fact (chaining form). Wrapper
    /// over [`DeltaOp::Retract`]; see there for the exact semantics.
    pub fn retract(mut self, predicate: impl Into<String>, tuple: Vec<Value>) -> Delta {
        self.ops.push(DeltaOp::Retract {
            predicate: predicate.into(),
            tuple,
        });
        self
    }

    /// Asserts a lattice lub-raise: the cell at `key` is raised to (at
    /// least) `element`. Wrapper over [`DeltaOp::Raise`].
    pub fn raise(mut self, predicate: impl Into<String>, key: Vec<Value>, element: Value) -> Delta {
        self.ops.push(DeltaOp::Raise {
            predicate: predicate.into(),
            key,
            element,
        });
        self
    }

    /// Removes a lattice assertion: the cell at `key` loses the
    /// justification `element` and re-settles at the lub of what
    /// remains. Wrapper over [`DeltaOp::Lower`].
    pub fn lower(mut self, predicate: impl Into<String>, key: Vec<Value>, element: Value) -> Delta {
        self.ops.push(DeltaOp::Lower {
            predicate: predicate.into(),
            key,
            element,
        });
        self
    }

    /// Appends every operation of `other`, in order — the composition
    /// `self; other` (the persistence layer folds WAL frames with it).
    pub fn extend_from(&mut self, other: &Delta) {
        self.ops.extend(other.ops.iter().cloned());
    }

    /// Builds an inserting delta from every fact of `program` — the
    /// flixr `--update` path: the update file is compiled as a
    /// standalone program (its facts re-declare the predicates they
    /// touch) and its facts become the delta.
    pub fn from_facts(program: &Program) -> Delta {
        let mut delta = Delta::new();
        for (pred, values) in program.facts() {
            delta.push(program.decl(pred).name(), values.to_vec());
        }
        delta
    }

    /// The number of operations, of any kind.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no operations of any kind.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }
}

/// A [`Delta`] (or prior [`Solution`]) that does not fit the program
/// handed to [`Solver::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A delta operation names a predicate the program does not declare.
    UnknownPredicate {
        /// The unresolvable name.
        predicate: String,
    },
    /// A delta operation's tuple width does not match the predicate's
    /// declared arity (for lattice predicates and the `Raise`/`Lower`
    /// forms, key columns plus the element).
    ArityMismatch {
        /// The predicate name.
        predicate: String,
        /// The declared arity.
        declared: usize,
        /// The operation's tuple width.
        found: usize,
    },
    /// The prior solution was not produced from the program being
    /// resumed: predicate names, order, or kinds differ.
    SolutionMismatch,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownPredicate { predicate } => {
                write!(f, "delta names unknown predicate {predicate}")
            }
            DeltaError::ArityMismatch {
                predicate,
                declared,
                found,
            } => write!(
                f,
                "delta tuple for {predicate} has {found} columns, declared arity is {declared}"
            ),
            DeltaError::SolutionMismatch => write!(
                f,
                "prior solution does not match the program being resumed \
                 (was it produced by solving a different program?)"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<DeltaError> for SolveError {
    fn from(e: DeltaError) -> SolveError {
        SolveError::Delta(e)
    }
}

/// A [`DeltaOp`] resolved against the program: an assertion added to or
/// removed from the extensional store. Lattice raises and lowers
/// normalize to the key-plus-element tuple form here.
struct ResolvedOp {
    add: bool,
    pred: PredId,
    tuple: Vec<Value>,
}

impl Solver {
    /// Resumes a finished solve: applies `delta` to the extensional
    /// store behind `prior` (which must be a *complete* fixed point of
    /// `program`, as returned by [`Solver::solve`] or an earlier
    /// `resume`) and computes the model of the updated store, re-running
    /// only the work the update can reach.
    ///
    /// Monotone deltas seed the semi-naïve worklist with exactly the
    /// changed cells; deltas with retractions or lowers run the
    /// over-delete/re-derive pass when the prior solve recorded a
    /// complete provenance log, and degrade to a from-scratch solve of
    /// the updated store otherwise (see the module docs for the exact
    /// conditions). Either way the result is cell-for-cell identical to
    /// a from-scratch [`Solver::solve`] over the updated store, for
    /// every strategy and thread count; the randomized update-sequence
    /// parity suite pins this.
    ///
    /// Resumed work is observable like any other solve: rounds, rule
    /// evaluations, and net insertions (including the delta's own
    /// insertions and any re-asserted survivors, counted like fact
    /// loads) appear in [`crate::SolveStats`], the per-rule/per-stratum
    /// profiles, and the attached [`crate::Observer`], and the
    /// configured [`crate::Budget`] governs the resumed rounds.
    /// Statistics describe the *resumed* run only; `per_stratum` holds
    /// entries just for re-run strata (tagged with their original
    /// stratum indices). When provenance recording is on, the prior
    /// solution's event log is carried over — pruned of the retracted
    /// cone when the delta removes assertions — and extended, so
    /// [`Solution::explain`] spans both runs.
    ///
    /// # Errors
    ///
    /// All [`Solver::solve`] failure modes, plus [`SolveError::Delta`]
    /// when the delta or prior solution does not fit `program` (the
    /// partial solution is then the unmodified prior model). For
    /// monotone deltas the partial solution on failure is always ⊒ the
    /// prior model; a failure mid-retraction may additionally be missing
    /// over-deleted facts that re-derivation would have restored — it is
    /// a sound under-approximation of the updated model, not of the
    /// prior one.
    pub fn resume(
        &self,
        program: &Program,
        prior: &Solution,
        delta: &Delta,
    ) -> Result<Solution, Box<SolveFailure>> {
        // The run starts on the prior model itself, shared: the exits
        // that change nothing hand that same database back, and the
        // warm-start copy is taken only when something is written.
        let mut run = Run::new(self, program, prior.database_arc(), Arc::clone(prior.edb()));
        if let Some(obs) = &self.config.observer {
            obs.resume_started(delta.len());
        }

        // Validate the prior solution and the delta before touching
        // anything; on a validation error the partial model is the
        // unmodified prior model.
        let ops = match check_prior(program, prior).and_then(|()| resolve_delta(program, delta)) {
            Ok(ops) => ops,
            Err(e) => return run.finish(Err(e.into())),
        };
        run.carry_log(prior);

        // An empty delta cannot change a complete fixed point. Skipped
        // when ascent instrumentation is requested, since enabling
        // counters mutates the database and needs the warm-start copy.
        if delta.is_empty() && self.config.ascent.is_none() {
            return run.finish(Ok(()));
        }

        let outcome = update(&mut run, program, prior, &ops);
        run.finish(outcome)
    }
}

/// Brings `run`, which starts on the `prior` model, to the model of the
/// updated store: the warm monotone path, the over-delete/re-derive
/// path, or the from-scratch fallback — each a composition of
/// [`Run::assert`] and [`Run::run_stratum`].
fn update(
    run: &mut Run<'_>,
    program: &Program,
    prior: &Solution,
    ops: &[ResolvedOp],
) -> Result<(), SolveError> {
    // The updated extensional store E′, the assertions the delta
    // effectively removed from it (present before, absent after), and
    // the assertions it effectively added (absent before, present
    // after); insert-then-retract and retract-then-reinsert within one
    // delta both cancel out here.
    let (eprime, removed, added) = apply_ops(prior.edb(), ops);
    let eprime = Arc::new(eprime);
    run.set_store(Arc::clone(&eprime));
    let strata = run.strata()?;
    let npreds = program.num_predicates();

    // Predicates the delta has a net effect on: insertions (possibly
    // already absorbed) and effective removals. A change reaching a
    // predicate a negated body atom (transitively) depends on cannot
    // be expressed by either warm path: an insertion into a negated
    // predicate invalidates derivations without leaving a trace in
    // the positive-premise proof forest, and a retraction creates
    // derivations out of nothing. Exact over-deletion additionally needs
    // the prior log to cover every insertion since the empty database.
    // Otherwise: a from-scratch solve of the updated store — same
    // model, no warm-start speedup.
    let mut touched = vec![false; npreds];
    for op in ops.iter().filter(|op| op.add) {
        touched[op.pred.0 as usize] = true;
    }
    for (pred, _) in &removed {
        touched[pred.0 as usize] = true;
    }
    let log = prior.events().filter(|_| prior.events_complete());
    if negation_reaches(program, &touched) || (!removed.is_empty() && log.is_none()) {
        run.reset();
        return run.scratch(&strata);
    }

    let seed_start = run.tracer().now_ns();
    run.warm();
    let lost = if removed.is_empty() {
        // Monotone: apply the *net* store change E′ \ E on top of the
        // prior fixed point, not the raw add ops — an insertion
        // cancelled by a later retraction of the same tuple (reachable
        // via WAL recovery, which folds frames from separate runs into
        // one delta) must not reach the warm database, or the model
        // diverges from a scratch solve of E′. Already-subsumed entries
        // are no-ops.
        for (pred, tuple) in &added {
            run.assert(*pred, tuple)?;
        }
        vec![false; npreds]
    } else {
        // Over-delete/re-derive (DESIGN §16). Rebuilding without the
        // cone of the removed assertions leaves only facts justified by
        // a chain of surviving events grounded in E′ — a sound
        // under-approximation of the target model — and re-asserting E′
        // seeds the re-derivation: survivors absorb most of it; net
        // changes are restored assertions and insertions the delta
        // carried alongside the removals.
        let log = log.expect("removals without a complete log solved from scratch above");
        let cone = Cone::taint(program, log, &removed);
        run.rebuild(|pred, fact| !cone.kills(pred, fact), &cone.dead_events)?;
        for (pred, tuple) in eprime.iter() {
            run.assert(*pred, tuple)?;
        }
        cone.lost()
    };
    run.tracer().record(0, SpanKind::ResumeSeed, seed_start);

    // Re-run exactly the strata a change can reach, in stratum order.
    // Stratification guarantees a stratum's body predicates are final
    // before it runs, so accumulating changes front to back seeds every
    // affected stratum with its complete delta. A stratum whose rule
    // heads lost facts re-evaluates fully; iterating rules to
    // quiescence from a sound under-approximation yields exactly the
    // least fixed point over E′, and lattice cells land on the lub of
    // their surviving and re-derived justifications.
    for (stratum, group) in strata.rule_groups.iter().enumerate() {
        let heads_lost = group
            .iter()
            .any(|&r| lost[program.rules[r].head_pred.0 as usize]);
        let seed = if heads_lost {
            Seed::Rederive
        } else if run.reads_pending(group) {
            Seed::Delta
        } else {
            continue;
        };
        run.run_stratum(stratum, group, seed)?;
    }
    Ok(())
}

/// The cone of consequences of a set of removed assertions in a
/// complete event log (DESIGN §16, phase 1).
///
/// The log is a well-founded proof forest — premises are recorded before
/// the conclusions they support — so a single forward pass computes it:
/// an event dies when its own fact was removed, when any positive
/// premise matches an already-dead fact, or (for lattice cells, whose
/// logged values are running joins) when any earlier event of the same
/// cell died.
struct Cone {
    /// Dead relational tuples, per predicate.
    deleted: Vec<HashSet<Vec<Value>>>,
    /// Keys of dead lattice cells, per predicate. A contaminated cell
    /// drops entirely — its clean prefix of justifications survives in
    /// the kept log and re-derivation restores their lub.
    dead_cells: Vec<HashSet<Vec<Value>>>,
    /// Which events of the log died, by position.
    dead_events: Vec<bool>,
}

impl Cone {
    fn taint(program: &Program, log: &[Event], removed: &[(PredId, Vec<Value>)]) -> Cone {
        let npreds = program.num_predicates();
        let is_lat: Vec<bool> = program.predicates().map(|(_, d)| d.is_lattice()).collect();
        let mut cone = Cone {
            deleted: vec![HashSet::new(); npreds],
            dead_cells: vec![HashSet::new(); npreds],
            dead_events: Vec::with_capacity(log.len()),
        };
        for (pred, tuple) in removed {
            let p = pred.0 as usize;
            if is_lat[p] {
                cone.dead_cells[p].insert(tuple[..tuple.len() - 1].to_vec());
            } else {
                cone.deleted[p].insert(tuple.clone());
            }
        }
        for event in log {
            let p = event.pred.0 as usize;
            let mut dead = if is_lat[p] {
                cone.dead_cells[p].contains(&event.tuple[..event.tuple.len() - 1])
            } else {
                cone.deleted[p].contains(event.tuple.as_slice())
            };
            if !dead {
                if let Source::Rule { premises, .. } = &event.source {
                    dead = premises.iter().any(|premise| {
                        let q = premise.pred.0 as usize;
                        if is_lat[q] {
                            key_pattern_hits(&premise.pattern, &cone.dead_cells[q])
                        } else {
                            pattern_hits(&premise.pattern, &cone.deleted[q])
                        }
                    });
                }
            }
            if dead {
                if is_lat[p] {
                    cone.dead_cells[p].insert(event.tuple[..event.tuple.len() - 1].to_vec());
                } else {
                    cone.deleted[p].insert(event.tuple.clone());
                }
            }
            cone.dead_events.push(dead);
        }
        cone
    }

    /// Whether the cone holds the relational tuple, or the lattice cell
    /// with the key, `fact` of `pred`.
    fn kills(&self, pred: PredId, fact: &[Value]) -> bool {
        let p = pred.0 as usize;
        self.deleted[p].contains(fact) || self.dead_cells[p].contains(fact)
    }

    /// Per predicate: did it lose any fact?
    fn lost(&self) -> Vec<bool> {
        self.deleted
            .iter()
            .zip(&self.dead_cells)
            .map(|(rows, cells)| !rows.is_empty() || !cells.is_empty())
            .collect()
    }
}

/// Checks that `prior` was solved over (a program shaped exactly like)
/// `program`: same predicate names resolving to the same ids, same
/// kinds. Facts and rules need not match — that is the point of a
/// resume — but the predicate layout must, since the prior database is
/// reused positionally.
fn check_prior(program: &Program, prior: &Solution) -> Result<(), DeltaError> {
    if prior.num_predicates() != program.num_predicates() {
        return Err(DeltaError::SolutionMismatch);
    }
    for (pred, decl) in program.predicates() {
        if prior.predicate(decl.name()) != Some(pred)
            || prior.is_lattice(decl.name()) != Some(decl.is_lattice())
        {
            return Err(DeltaError::SolutionMismatch);
        }
    }
    Ok(())
}

impl Program {
    /// Returns a copy of this program with the delta applied to its
    /// facts — the program whose model [`Solver::resume`] computes when
    /// handed the same delta: inserts and raises append, retracts and
    /// lowers remove every matching asserted fact.
    ///
    /// This is the bridge between the incremental and the demand
    /// subsystems: after a delta arrives, point queries against the
    /// updated world are answered by
    /// [`Solver::solve_query`](crate::demand) on `with_delta(&delta)` —
    /// demand-restricted *and* reflecting the update, without ever
    /// materializing the full updated model.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownPredicate`] / [`DeltaError::ArityMismatch`]
    /// if the delta does not fit this program's declarations.
    pub fn with_delta(&self, delta: &Delta) -> Result<Program, DeltaError> {
        let (facts, _, _) = apply_ops(&self.facts, &resolve_delta(self, delta)?);
        Ok(Program {
            preds: self.preds.clone(),
            pred_names: self.pred_names.clone(),
            funcs: self.funcs.clone(),
            rules: self.rules.clone(),
            facts: Arc::new(facts),
            index_requests: self.index_requests.clone(),
        })
    }
}

/// Resolves a name-based delta against the program's declarations,
/// checking arities and normalizing the lattice op forms to full
/// key-plus-element tuples.
fn resolve_delta(program: &Program, delta: &Delta) -> Result<Vec<ResolvedOp>, DeltaError> {
    let mut resolved = Vec::with_capacity(delta.len());
    for op in delta.ops() {
        let (name, add) = match op {
            DeltaOp::Insert { predicate, .. } | DeltaOp::Raise { predicate, .. } => {
                (predicate, true)
            }
            DeltaOp::Retract { predicate, .. } | DeltaOp::Lower { predicate, .. } => {
                (predicate, false)
            }
        };
        let Some((pred, decl)) = program
            .predicates()
            .find(|(_, d)| d.name() == name.as_str())
        else {
            return Err(DeltaError::UnknownPredicate {
                predicate: name.clone(),
            });
        };
        let tuple: Vec<Value> = match op {
            DeltaOp::Insert { tuple, .. } | DeltaOp::Retract { tuple, .. } => tuple.clone(),
            DeltaOp::Raise { key, element, .. } | DeltaOp::Lower { key, element, .. } => {
                let mut full = key.clone();
                full.push(element.clone());
                full
            }
        };
        if tuple.len() != decl.arity() {
            return Err(DeltaError::ArityMismatch {
                predicate: name.clone(),
                declared: decl.arity(),
                found: tuple.len(),
            });
        }
        resolved.push(ResolvedOp { add, pred, tuple });
    }
    Ok(resolved)
}

/// Applies the ops, in order, to the extensional store `base`. Returns
/// the updated store E′ (order-preserving; re-adds land at the end), the
/// assertions with a *net* removal — present in `base`, absent from
/// E′ — deduplicated, and the assertions with a *net* addition — added
/// by the ops and still live in E′. Removing an assertion not currently
/// in the store is a no-op, so retract-then-reinsert within one delta
/// produces no net removal and no over-deletion work; symmetrically, an
/// insertion cancelled by a later retraction of the same tuple produces
/// no net addition and must not seed the warm paths.
#[allow(clippy::type_complexity)]
fn apply_ops(
    base: &[(PredId, Vec<Value>)],
    ops: &[ResolvedOp],
) -> (
    Vec<(PredId, Vec<Value>)>,
    Vec<(PredId, Vec<Value>)>,
    Vec<(PredId, Vec<Value>)>,
) {
    let mut entries: Vec<(PredId, Vec<Value>)> = base.to_vec();
    let mut alive = vec![true; entries.len()];
    // Indices of the currently-live copies of each assertion (the base
    // store may hold duplicates).
    let mut live: HashMap<(PredId, Vec<Value>), Vec<usize>> = HashMap::new();
    for (i, entry) in entries.iter().enumerate() {
        live.entry(entry.clone()).or_default().push(i);
    }
    for op in ops {
        let key = (op.pred, op.tuple.clone());
        if op.add {
            let slot = live.entry(key).or_default();
            if slot.is_empty() {
                entries.push((op.pred, op.tuple.clone()));
                alive.push(true);
                slot.push(entries.len() - 1);
            }
        } else if let Some(slot) = live.get_mut(&key) {
            for i in slot.drain(..) {
                alive[i] = false;
            }
        }
    }
    let mut removed = Vec::new();
    let mut seen: HashSet<&(PredId, Vec<Value>)> = HashSet::new();
    for entry in base {
        let gone = live.get(entry).is_none_or(|slot| slot.is_empty());
        if gone && seen.insert(entry) {
            removed.push(entry.clone());
        }
    }
    // Net additions: entries the ops pushed (index past the base) that
    // survived every later op. A push happens only while no live copy of
    // the key exists, so at most one pushed copy per key is alive and no
    // deduplication is needed.
    let added = entries
        .iter()
        .zip(&alive)
        .skip(base.len())
        .filter(|(_, alive)| **alive)
        .map(|(entry, _)| entry.clone())
        .collect();
    let eprime = entries
        .into_iter()
        .zip(alive)
        .filter(|(_, alive)| *alive)
        .map(|(entry, _)| entry)
        .collect();
    (eprime, removed, added)
}

/// Conservative check for the negation fallback: transitively closes the
/// delta-touched predicate set over rule dependencies (a rule whose body
/// reads a dirty predicate dirties its head) and reports whether any
/// negated body atom reads a dirty predicate.
fn negation_reaches(program: &Program, delta_preds: &[bool]) -> bool {
    let mut dirty = delta_preds.to_vec();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if dirty[rule.head_pred.0 as usize] {
                continue;
            }
            let reads = rule.body.iter().any(|item| match item {
                CItem::Atom { pred, .. } | CItem::NegAtom { pred, .. } => dirty[pred.0 as usize],
                _ => false,
            });
            if reads {
                dirty[rule.head_pred.0 as usize] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    program.rules.iter().any(|rule| {
        rule.body
            .iter()
            .any(|item| matches!(item, CItem::NegAtom { pred, .. } if dirty[pred.0 as usize]))
    })
}

/// Does any tuple in `set` match the (possibly wildcarded) premise
/// pattern? Ground patterns are a hash lookup; wildcards scan.
fn pattern_hits(pattern: &[Option<Value>], set: &HashSet<Vec<Value>>) -> bool {
    if set.is_empty() {
        return false;
    }
    if pattern.iter().all(|col| col.is_some()) {
        let tuple: Vec<Value> = pattern.iter().map(|col| col.clone().unwrap()).collect();
        return set.contains(&tuple);
    }
    set.iter().any(|tuple| pattern_matches(pattern, tuple))
}

/// Does any lattice *key* in `keys` match the key columns of the
/// premise pattern? The pattern spans the full tuple (key plus
/// element); the element column is ignored — any event of a dead cell
/// contaminates its consumers regardless of the value read.
fn key_pattern_hits(pattern: &[Option<Value>], keys: &HashSet<Vec<Value>>) -> bool {
    if keys.is_empty() {
        return false;
    }
    let key_pat = &pattern[..pattern.len() - 1];
    if key_pat.iter().all(|col| col.is_some()) {
        let key: Vec<Value> = key_pat.iter().map(|col| col.clone().unwrap()).collect();
        return keys.contains(&key);
    }
    keys.iter().any(|key| pattern_matches(key_pat, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    /// A delta the program rejects returns the prior model as the partial
    /// *without copying it* — `flixd` takes this exit on every malformed
    /// update.
    #[test]
    fn rejected_delta_shares_the_prior_database() {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 2);
        b.fact(edge, vec![1.into(), 2.into()]);
        let program = b.build().expect("valid");
        let solver = Solver::new();
        let prior = solver.solve(&program).expect("solves");
        for delta in [
            Delta::new().insert("Nope", vec![1.into()]),
            Delta::new().retract("Edge", vec![1.into()]),
        ] {
            let failure = solver
                .resume(&program, &prior, &delta)
                .expect_err("the delta does not fit the program");
            assert!(matches!(failure.error, SolveError::Delta(_)));
            assert!(Arc::ptr_eq(
                &failure.partial.database_arc(),
                &prior.database_arc()
            ));
            assert!(failure.partial.contains("Edge", &[1.into(), 2.into()]));
        }
    }
}
