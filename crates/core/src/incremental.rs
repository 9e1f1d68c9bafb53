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
//!   A worklist over the log's fact-to-event indexes, in log order,
//!   marks the *cone of consequences* of the removed assertions — every
//!   derivation with a removed or already-marked premise, and for
//!   lattice cells every join at or after the first contaminated one —
//!   touching the cone's events, not the log's. The log itself is shared
//!   with the prior solution; the cone's events are masked out of the
//!   resumed history, not deleted. The cone's facts are deleted from the
//!   warm-start copy of the database, in place (an over-deletion:
//!   survivors are provably derivable from E′, so the result is a sound
//!   under-approximation), the assertions E′ makes of deleted facts are
//!   put back, and the affected strata re-run to the fixed point. A
//!   stratum whose heads lost facts first evaluates each rule that
//!   derives into them *with its head bound to the deleted facts* — an
//!   over-deleted fact may have a derivation the log, which records the
//!   first one only, never saw — so re-derivation looks up what could
//!   restore a deleted fact instead of re-evaluating rules over the whole
//!   model; the cost of a retraction follows its cone. Lattice cells
//!   converge to the lub of their *surviving* justifications rather than
//!   keeping a stale upper bound.
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
//! retracting one first deletes the cone, asserts what E′ still says of
//! the deleted facts as well, and starts the strata whose heads lost
//! facts with a head-bound round; a fallback resets and does exactly
//! what `solve` does, over E′.
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

use crate::database::{try_encode_row, KindWords, SpillTable};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::program::{CItem, Program};
use crate::provenance::{fact_key, EventLog, Pos};
use crate::solver::{Run, Seed};
use crate::trace::SpanKind;
use crate::{LatticeOps, Names, PredId, Solution, SolveError, SolveFailure, Solver, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
/// The builder methods ([`Delta::insert`], [`Delta::raise`]) are thin
/// chaining wrappers that construct the corresponding ops;
/// [`Delta::retract`] and [`Delta::lower`] cover the removing half, and
/// [`Delta::op`] takes a [`DeltaOp`] directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// Creates an empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Appends one operation.
    pub fn op(mut self, op: DeltaOp) -> Delta {
        self.ops.push(op);
        self
    }

    /// Asserts one fact: a full tuple for a relational predicate, or key
    /// columns plus the element for a lattice predicate. Wrapper over
    /// [`DeltaOp::Insert`].
    pub fn insert(mut self, predicate: impl Into<String>, tuple: Vec<Value>) -> Delta {
        self.ops.push(DeltaOp::Insert {
            predicate: predicate.into(),
            tuple,
        });
        self
    }

    /// Removes one previously asserted fact. Wrapper over
    /// [`DeltaOp::Retract`]; see there for the exact semantics.
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
    /// A delta operation inserts or raises a value the predicate's
    /// lattice refuses as an element: one with no word in the kind the
    /// lattice declares, or — a lattice of no kind — one its `leq`
    /// panics on or finds not below itself.
    NotAnElement {
        /// The predicate name.
        predicate: String,
        /// The lattice's name.
        lattice: String,
        /// The refused value.
        element: Value,
    },
    /// A delta operation's tuple holds a value nested deeper than
    /// [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH), which no model holds
    /// and no log could read back.
    ValueTooDeep {
        /// The predicate name.
        predicate: String,
    },
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
            DeltaError::NotAnElement {
                predicate,
                lattice,
                element,
            } => write!(
                f,
                "delta tuple for {predicate} holds {element}, which is not an element \
                 of the {lattice} lattice"
            ),
            DeltaError::ValueTooDeep { predicate } => write!(
                f,
                "delta tuple for {predicate} holds a value nested deeper than {} levels",
                crate::MAX_VALUE_DEPTH
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
    /// insertions and the assertions a retraction restores, counted like
    /// fact loads) appear in [`crate::SolveStats`], the per-rule/per-stratum
    /// profiles, and the attached [`crate::Observer`], and the
    /// configured [`crate::Budget`] governs the resumed rounds.
    /// Statistics describe the *resumed* run only; `per_stratum` holds
    /// entries just for re-run strata (tagged with their original
    /// stratum indices). When provenance recording is on, the prior
    /// solution's event log is carried over — shared with the prior, not
    /// copied, and without the retracted cone when the delta removes
    /// assertions — and extended, so [`Solution::explain`] spans both
    /// runs.
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

        // Validate the prior solution and the delta before touching
        // anything; on a validation error the partial model is the
        // unmodified prior model, log included — carrying it shares it.
        run.carry_log(prior);
        let ops = match check_prior(program, prior).and_then(|()| resolve_delta(program, delta)) {
            Ok(ops) => ops,
            Err(e) => return run.finish(Err(e.into())),
        };

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

    // Predicates the delta has a net effect on: net additions (which the
    // model may already subsume — conservative) and net removals. An op
    // that leaves the store as it was — a re-sent insert, a retraction of
    // something never asserted — touches nothing. A change reaching a
    // predicate a negated body atom (transitively) depends on cannot
    // be expressed by either warm path: an insertion into a negated
    // predicate invalidates derivations without leaving a trace in
    // the positive-premise proof forest, and a retraction creates
    // derivations out of nothing. Exact over-deletion additionally needs
    // the prior log to cover every insertion since the empty database.
    // Otherwise: a from-scratch solve of the updated store — same
    // model, no warm-start speedup.
    let mut touched = vec![false; npreds];
    for (pred, _) in added.iter().chain(&removed) {
        touched[pred.0 as usize] = true;
    }
    let log = prior.events().filter(|_| prior.events_complete());
    if negation_reaches(program, &touched) || (!removed.is_empty() && log.is_none()) {
        run.reset();
        return run.scratch(&strata);
    }

    let seed_start = run.tracer().now_ns();
    run.warm();
    if !removed.is_empty() {
        // Over-delete/re-derive (DESIGN §16). Deleting the cone of the
        // removed assertions leaves only facts justified by a chain of
        // surviving events grounded in E′ — a sound under-approximation
        // of the target model. A surviving fact still holds every
        // assertion E′ makes of it; the facts the cone killed get theirs
        // back here, and the strata below re-derive the rest.
        let log = log.expect("removals without a complete log solved from scratch above");
        let facts = Facts {
            is_lat: log.shape().is_lat(),
            spill: prior.database().spill(),
        };
        let taint_start = run.tracer().now_ns();
        let cone = Cone::taint(log, &facts, &removed);
        run.tracer().record(0, SpanKind::ResumeTaint, taint_start);
        run.delete(&cone);
        let mut key = Vec::new();
        for (pred, tuple) in eprime.iter() {
            if cone.kills(&facts, *pred, tuple, &mut key) {
                run.assert(*pred, tuple)?;
            }
        }
    }
    // The *net* store change E′ \ E, not the raw add ops — an insertion
    // cancelled by a later retraction of the same tuple (reachable via
    // WAL recovery, which folds frames from separate runs into one
    // delta) must not reach the warm database, or the model diverges
    // from a scratch solve of E′. Already-subsumed entries are no-ops.
    for (pred, tuple) in &added {
        run.assert(*pred, tuple)?;
    }
    run.tracer().record(0, SpanKind::ResumeSeed, seed_start);

    // Re-run exactly the strata a change can reach, in stratum order.
    // Stratification guarantees a stratum's body predicates are final
    // before it runs, so accumulating changes front to back seeds every
    // affected stratum with its complete delta. A stratum whose rule
    // heads lost facts first re-derives, head-bound, what of them still
    // follows from the surviving database; iterating rules to
    // quiescence from a sound under-approximation yields exactly the
    // least fixed point over E′, and lattice cells land on the lub of
    // their surviving and re-derived justifications.
    for (stratum, group) in strata.rule_groups.iter().enumerate() {
        let heads_lost = group.iter().any(|&r| run.lost(program.rules[r].head_pred));
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
/// the conclusions they support. An event dies when its own fact was
/// removed, when any positive premise — the row its atom matched — died
/// *earlier in the log*, or (for lattice cells, whose logged values are running
/// joins) when any earlier event of the same cell died. A fact is
/// therefore dead *from* a position: that of its first dead event, or
/// the start of the log when it was removed outright.
pub(crate) struct Cone {
    /// Dead facts, per predicate, as encoded keys: relational tuples, and
    /// keys of lattice cells. A contaminated cell drops entirely — its
    /// clean prefix of justifications survives in the kept log and
    /// re-derivation restores their lub.
    pub(crate) dead: Vec<FxHashSet<Box<[u64]>>>,
    /// The log positions of the events that died, ascending.
    pub(crate) dead_events: Vec<Pos>,
    /// The events the walk examined: its cost.
    pub(crate) examined: u64,
}

/// What turns an assertion into the encoded key of the fact it asserts:
/// which predicates are lattice predicates, and the spill table of the
/// database the log's solution holds.
struct Facts<'a> {
    is_lat: &'a [bool],
    spill: &'a SpillTable,
}

impl Facts<'_> {
    /// The encoded key of the fact `tuple` of `pred` asserts — the
    /// relational tuple itself, or the lattice cell it contributes to —
    /// into `key`. `false` when the store has never seen one of its
    /// values: then it holds no such fact.
    fn encode_key(&self, pred: PredId, tuple: &[Value], key: &mut Vec<u64>) -> bool {
        try_encode_row(fact_key(self.is_lat, pred, tuple), self.spill, key)
    }
}

impl Cone {
    /// Walks the cone through the log's indexes. The frontier holds facts
    /// by the position they are dead from, earliest first; taking one
    /// kills the later events that conclude or consume it, and each of
    /// those puts its own fact on the frontier at its own — later —
    /// position. Positions only grow, so the first time a fact is taken
    /// is the earliest position it is dead from, exactly as a forward
    /// pass over the whole log would find it. Facts are their encoded
    /// keys throughout, so the walk hashes and compares words.
    fn taint(log: &EventLog, facts: &Facts<'_>, removed: &[(PredId, Vec<Value>)]) -> Cone {
        let mut dead = vec![FxHashSet::default(); facts.is_lat.len()];
        let mut dead_events: FxHashSet<Pos> = FxHashSet::default();
        // (Dead from: `None` sorts first. The fact's predicate. Its key.)
        let mut frontier = BinaryHeap::new();
        let mut examined = 0;
        let mut key = Vec::new();
        for (pred, tuple) in removed {
            // An assertion the store never saw a value of made no fact.
            if facts.encode_key(*pred, tuple, &mut key) {
                let key: Box<[u64]> = key.as_slice().into();
                frontier.push(Reverse((None::<Pos>, *pred, key)));
            }
        }
        while let Some(Reverse((from, pred, key))) = frontier.pop() {
            if !dead[pred.0 as usize].insert(key.clone()) {
                continue;
            }
            examined += log.touching(pred, &key, from, |at, event| {
                if dead_events.insert(at) && !dead[event.pred.0 as usize].contains(event.key) {
                    frontier.push(Reverse((Some(at), event.pred, event.key.into())));
                }
            });
        }
        let mut dead_events: Vec<Pos> = dead_events.into_iter().collect();
        dead_events.sort_unstable();
        Cone {
            dead,
            dead_events,
            examined,
        }
    }

    /// Whether the cone holds the fact `tuple` of `pred` asserts. `key`
    /// is a buffer: a predicate that lost nothing — nearly every one —
    /// answers without looking at the tuple, and the rest probe words.
    fn kills(&self, facts: &Facts<'_>, pred: PredId, tuple: &[Value], key: &mut Vec<u64>) -> bool {
        let dead = &self.dead[pred.0 as usize];
        !dead.is_empty() && facts.encode_key(pred, tuple, key) && dead.contains(key.as_slice())
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
            names: self.names.clone(),
        })
    }

    /// Whether `delta` fits this program's declarations — what
    /// [`Solver::resume`] checks before it changes anything — in time
    /// proportional to the delta alone.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownPredicate`] / [`DeltaError::ArityMismatch`] /
    /// [`DeltaError::ValueTooDeep`] / [`DeltaError::NotAnElement`] for the
    /// first operation that does not fit.
    pub fn check_delta(&self, delta: &Delta) -> Result<(), DeltaError> {
        resolve_delta(self, delta).map(drop)
    }
}

/// Resolves a name-based delta against the program's declarations,
/// checking arities and the elements it inserts or raises, and
/// normalizing the lattice op forms to full key-plus-element tuples.
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
        let Some(pred) = program.predicate(name) else {
            return Err(DeltaError::UnknownPredicate {
                predicate: name.clone(),
            });
        };
        let decl = program.decl(pred);
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
        if tuple.iter().any(Value::is_too_deep) {
            return Err(DeltaError::ValueTooDeep {
                predicate: name.clone(),
            });
        }
        if let (true, Some(ops), Some(element)) = (add, decl.lattice_ops(), tuple.last()) {
            if !admits(ops, element, &program.names) {
                return Err(DeltaError::NotAnElement {
                    predicate: name.clone(),
                    lattice: ops.name().to_string(),
                    element: element.clone(),
                });
            }
        }
        resolved.push(ResolvedOp { add, pred, tuple });
    }
    Ok(resolved)
}

/// Whether a cell of the lattice `ops` takes `element`: for a declared
/// kind, whether the element has a word ([`KindWords::is_elem`]), with no
/// closure call; otherwise the guarded `leq(element, element)` probe a
/// fresh cell runs.
fn admits(ops: &LatticeOps, element: &Value, names: &Names) -> bool {
    match KindWords::of(ops, names) {
        words if !words.is_slots() => words.is_elem(element),
        _ => matches!(ops.try_leq(element, element), Ok(true)),
    }
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
    // Per key the ops name, how they leave its copies: `[0]` if the base
    // holds none, `[1]` if it holds some. Base copies live until a
    // retraction; an insertion pushes one copy when none lives.
    let mut folds: FxHashMap<(PredId, &[Value]), Fold> = FxHashMap::default();
    for (at, op) in ops.iter().enumerate() {
        let fold = folds.entry((op.pred, op.tuple.as_slice())).or_insert(Fold {
            in_base: false,
            ends: [(false, None), (true, None)],
        });
        for (base, pushed) in &mut fold.ends {
            if !op.add {
                (*base, *pushed) = (false, None);
            } else if !*base && pushed.is_none() {
                *pushed = Some(at);
            }
        }
    }
    let mut eprime = Vec::with_capacity(base.len());
    let mut removed = Vec::new();
    for fact @ (pred, tuple) in base {
        let Some(fold) = folds.get_mut(&(*pred, tuple.as_slice())) else {
            eprime.push(fact.clone());
            continue;
        };
        let (base, pushed) = fold.ends[1];
        if base {
            eprime.push(fact.clone());
        } else if !fold.in_base && pushed.is_none() {
            removed.push(fact.clone());
        }
        fold.in_base = true;
    }
    // Net additions: the copies the ops pushed that survived every later
    // op, in the order they were pushed. At most one pushed copy per key
    // is alive, so no deduplication is needed.
    let mut pushed: Vec<usize> = folds
        .values()
        .filter_map(|fold| fold.ends[fold.in_base as usize].1)
        .collect();
    pushed.sort_unstable();
    let added: Vec<(PredId, Vec<Value>)> = pushed
        .into_iter()
        .map(|at| (ops[at].pred, ops[at].tuple.clone()))
        .collect();
    eprime.extend(added.iter().cloned());
    (eprime, removed, added)
}

/// How the ops of one delta leave the copies of one assertion in the
/// store, folded in op order: per reading of the base — holding no copy,
/// holding some — whether the base copies live and which op pushed the
/// live added copy.
struct Fold {
    /// The base holds a copy.
    in_base: bool,
    ends: [(bool, Option<usize>); 2],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::decode;
    use crate::provenance::{Event, Source};
    use crate::{BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Term, ValueLattice};
    use flix_lattice::rng::SmallRng;
    use flix_lattice::MinCost;

    /// A delta the program rejects returns the prior model as the partial
    /// *without copying it* — `flixd` takes this exit on every malformed
    /// update — and that partial still answers `explain`, from the prior's
    /// own log segments.
    #[test]
    fn rejected_delta_shares_the_prior_database() {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 2);
        b.fact(edge, vec![1.into(), 2.into()]);
        let program = b.build().expect("valid");
        let solver = Solver::new().record_provenance(true);
        let prior = solver.solve(&program).expect("solves");
        for delta in [
            Delta::new().insert("Nope", vec![1.into()]),
            Delta::new().retract("Edge", vec![1.into()]),
        ] {
            let failure = solver
                .resume(&program, &prior, &delta)
                .expect_err("the delta does not fit the program");
            assert!(matches!(failure.error, SolveError::Delta(_)));
            let partial = &failure.partial;
            assert!(Arc::ptr_eq(&partial.database_arc(), &prior.database_arc()));
            assert!(partial.contains("Edge", &[1.into(), 2.into()]));
            assert_shares_segments(partial, &prior);
            assert!(partial.explain("Edge", &[1.into(), 2.into()]).is_some());
        }
    }

    /// Every log segment of `prior` is, by identity, a segment of
    /// `resumed`, at the same place.
    fn assert_shares_segments(resumed: &Solution, prior: &Solution) {
        let resumed = resumed.events().expect("recorded").segments();
        let prior = prior.events().expect("recorded").segments();
        assert!(!prior.is_empty() && prior.len() <= resumed.len());
        for (ours, theirs) in resumed.iter().zip(&prior) {
            assert!(Arc::ptr_eq(ours, theirs));
        }
    }

    type Edge = (u32, u32, u64);

    fn edge_tuple((x, y, c): Edge) -> Vec<Value> {
        vec![(x as i64).into(), (y as i64).into(), (c as i64).into()]
    }

    /// Single-source shortest paths (§4.4) from node 0, plus consumers of
    /// every premise shape: a relation derived from a lattice cell, a `_`
    /// over relational key columns, a `_` over a lattice key, and premises
    /// that are part bound, part `_` — each `_` logged as the row it
    /// matched.
    fn paths_program(edges: &[Edge]) -> Program {
        let mut b = ProgramBuilder::new();
        let edge = b.relation("Edge", 3);
        let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
        let reach = b.relation("Reach", 1);
        let has_out = b.relation("HasOut", 1);
        let link = b.relation("Link", 2);
        let best = b.lattice("Best", 1, LatticeOps::of::<MinCost>());
        let extend = b.function("extend", |args| {
            let d = MinCost::expect_from(&args[0]);
            d.add_weight(args[1].as_int().expect("weight") as u64)
                .to_value()
        });
        for &e in edges {
            b.fact(edge, edge_tuple(e));
        }
        b.fact(dist, vec![0.into(), MinCost::finite(0).to_value()]);
        let var = Term::var;
        b.rule(
            Head::new(
                dist,
                [
                    HeadTerm::var("y"),
                    HeadTerm::app(extend, [var("d"), var("c")]),
                ],
            ),
            [
                BodyItem::atom(dist, [var("x"), var("d")]),
                BodyItem::atom(edge, [var("x"), var("y"), var("c")]),
            ],
        );
        b.rule(
            Head::new(reach, [HeadTerm::var("y")]),
            [BodyItem::atom(dist, [var("y"), Term::Wildcard])],
        );
        b.rule(
            Head::new(has_out, [HeadTerm::var("x")]),
            [BodyItem::atom(
                edge,
                [var("x"), Term::Wildcard, Term::Wildcard],
            )],
        );
        b.rule(
            Head::new(link, [HeadTerm::var("x"), HeadTerm::var("z")]),
            [
                BodyItem::atom(edge, [var("x"), var("y"), Term::Wildcard]),
                BodyItem::atom(edge, [var("y"), var("z"), Term::Wildcard]),
            ],
        );
        b.rule(
            Head::new(best, [HeadTerm::var("d")]),
            [
                BodyItem::atom(dist, [Term::Wildcard, var("d")]),
                BodyItem::atom(reach, [Term::Wildcard]),
            ],
        );
        b.build().expect("valid program")
    }

    type Store = Vec<(PredId, Vec<Value>)>;

    /// The store fold with one map entry per base fact: what
    /// [`apply_ops`] must return, in the same order.
    fn apply_ops_per_base_fact(base: &[(PredId, Vec<Value>)], ops: &[ResolvedOp]) -> [Store; 3] {
        let mut alive = vec![true; base.len()];
        let mut pushed: Vec<&ResolvedOp> = Vec::new();
        let mut live: FxHashMap<(PredId, &[Value]), Vec<usize>> = FxHashMap::default();
        for (i, (pred, tuple)) in base.iter().enumerate() {
            live.entry((*pred, tuple)).or_default().push(i);
        }
        for op in ops {
            let key = (op.pred, op.tuple.as_slice());
            if op.add {
                let slot = live.entry(key).or_default();
                if slot.is_empty() {
                    slot.push(alive.len());
                    alive.push(true);
                    pushed.push(op);
                }
            } else if let Some(slot) = live.get_mut(&key) {
                for i in slot.drain(..) {
                    alive[i] = false;
                }
            }
        }
        let mut removed = Vec::new();
        let mut seen = FxHashSet::default();
        for (pred, tuple) in base {
            let key = (*pred, tuple.as_slice());
            if live[&key].is_empty() && seen.insert(key) {
                removed.push((*pred, tuple.clone()));
            }
        }
        let (base_alive, pushed_alive) = alive.split_at(base.len());
        let added: Store = pushed
            .iter()
            .zip(pushed_alive)
            .filter(|(_, alive)| **alive)
            .map(|(op, _)| (op.pred, op.tuple.clone()))
            .collect();
        let eprime = base
            .iter()
            .zip(base_alive)
            .filter(|(_, alive)| **alive)
            .map(|(entry, _)| entry.clone())
            .chain(added.iter().cloned())
            .collect();
        [eprime, removed, added]
    }

    /// Seeded stores over a small domain — so a base holds duplicates and
    /// the ops insert, retract, re-insert and re-retract what it holds and
    /// what it does not — folded keyed by the delta and per base fact:
    /// the same E′, in the same order, and the same net removals and
    /// additions.
    #[test]
    fn the_fold_keyed_by_the_delta_is_the_fold_per_base_fact() {
        let mut rng = SmallRng::seed_from_u64(0xF01D);
        let fact = |rng: &mut SmallRng| {
            let pred = PredId(rng.gen_range(0..2u32));
            (pred, vec![Value::from(rng.gen_range(0..6i64))])
        };
        for case in 0..2_000 {
            let base: Store = (0..rng.gen_range(0..24usize))
                .map(|_| fact(&mut rng))
                .collect();
            let ops: Vec<ResolvedOp> = (0..rng.gen_range(0..12usize))
                .map(|_| {
                    let (pred, tuple) = fact(&mut rng);
                    let add = rng.gen_bool(0.5);
                    ResolvedOp { add, pred, tuple }
                })
                .collect();
            let (eprime, removed, added) = apply_ops(&base, &ops);
            assert_eq!(
                [eprime, removed, added],
                apply_ops_per_base_fact(&base, &ops),
                "case {case}: base {base:?}"
            );
        }
    }

    fn random_edges(rng: &mut SmallRng, nodes: u32, count: usize) -> Vec<Edge> {
        let mut edges: Vec<Edge> = Vec::new();
        while edges.len() < count {
            let (x, y) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if x != y && !edges.iter().any(|&(a, b, _)| (a, b) == (x, y)) {
                edges.push((x, y, rng.gen_range(1..10u64)));
            }
        }
        edges
    }

    /// Does `pattern` (with `None` wildcards) match `tuple`?
    fn pattern_matches(pattern: &[Option<Value>], tuple: &[Value]) -> bool {
        pattern.len() == tuple.len()
            && pattern
                .iter()
                .zip(tuple)
                .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
    }

    /// The cone as one forward pass over the whole decoded log computes
    /// it — the definition [`Cone::taint`] is checked against: an event
    /// dies when its own fact is dead or a premise matches a dead fact,
    /// and its fact is dead from there on.
    fn forward_scan(
        program: &Program,
        log: &[Event],
        removed: &[(PredId, Vec<Value>)],
    ) -> (Vec<FxHashSet<Vec<Value>>>, Vec<bool>) {
        let is_lat: Vec<bool> = program.predicates().map(|(_, d)| d.is_lattice()).collect();
        let mut dead: Vec<FxHashSet<Vec<Value>>> = vec![FxHashSet::default(); is_lat.len()];
        for (pred, tuple) in removed {
            dead[pred.0 as usize].insert(fact_key(&is_lat, *pred, tuple).to_vec());
        }
        let mut dead_events = Vec::with_capacity(log.len());
        for event in log {
            let fact = fact_key(&is_lat, event.pred, &event.tuple);
            let mut dies = dead[event.pred.0 as usize].contains(fact);
            if let (false, Source::Rule { premises, .. }) = (dies, &event.source) {
                dies = premises.iter().any(|premise| {
                    let pattern = fact_key(&is_lat, premise.pred, &premise.pattern);
                    let facts = dead[premise.pred.0 as usize].iter();
                    facts.into_iter().any(|fact| pattern_matches(pattern, fact))
                });
            }
            if dies {
                dead[event.pred.0 as usize].insert(fact.to_vec());
            }
            dead_events.push(dies);
        }
        (dead, dead_events)
    }

    /// Both ways of computing the cone of `delta`'s net removals in
    /// `prior`'s log agree: the same dead facts, the same dead events.
    /// Returns the flattened log the retraction must leave behind.
    fn assert_taints_agree(program: &Program, prior: &Solution, delta: &Delta) -> Vec<Event> {
        let ops = resolve_delta(program, delta).expect("the delta fits");
        let (_, removed, _) = apply_ops(prior.edb(), &ops);
        let log = prior.events().expect("recorded");
        let spill = prior.database().spill();
        let is_lat = log.shape().is_lat();
        let cone = Cone::taint(log, &Facts { is_lat, spill }, &removed);
        let (dead, dead_events) = forward_scan(program, log.decoded(spill), &removed);
        let decoded = |keys: &FxHashSet<Box<[u64]>>| -> FxHashSet<Vec<Value>> {
            let decoded = |key: &[u64]| key.iter().map(|&slot| decode(slot, spill)).collect();
            keys.iter().map(|key| decoded(key)).collect()
        };
        let cone_dead: Vec<_> = cone.dead.iter().map(decoded).collect();
        assert_eq!(cone_dead, dead, "dead facts of {delta:?}");
        let positions = log.positions();
        assert_eq!(positions.len(), dead_events.len());
        let flagged = |flag: bool| {
            positions
                .iter()
                .zip(&dead_events)
                .filter(move |(_, d)| **d == flag)
        };
        let expected: Vec<Pos> = flagged(true).map(|(at, _)| *at).collect();
        assert_eq!(cone.dead_events, expected, "dead events of {delta:?}");
        flagged(false)
            .map(|(at, _)| log.event(*at).decode(spill))
            .collect()
    }

    fn sorted_model(program: &Program, solution: &Solution) -> Vec<String> {
        let mut lines = Vec::new();
        for (_, decl) in program.predicates() {
            for fact in solution.facts(decl.name()).expect("declared") {
                lines.push(format!("{}({fact})", decl.name()));
            }
        }
        lines.sort();
        lines
    }

    /// The indexed worklist against the forward scan, on chained mixed
    /// updates: every step inserts an edge, retracts one, and raises or
    /// lowers a `Dist` cell out of band, so later steps taint logs that
    /// are already masked and spread over several segments, and `Dist`
    /// cells (whose logged values are running joins) are contaminated in
    /// the middle of their histories.
    #[test]
    fn indexed_taint_is_the_forward_scan_on_mixed_update_sequences() {
        const NODES: u32 = 14;
        for strategy in [crate::Strategy::SemiNaive, crate::Strategy::Naive] {
            for seed in 0..12u64 {
                let mut rng = SmallRng::seed_from_u64(seed + 977);
                let mut pool = random_edges(&mut rng, NODES, 40);
                let mut present = pool.split_off(10);
                let program = paths_program(&present);
                let solver = Solver::new().record_provenance(true).strategy(strategy);
                let mut current = solver.solve(&program).expect("solves");
                let mut applied = Delta::new();
                let mut raises: Vec<(u32, u64)> = Vec::new();
                let (mut tainted, mut in_pieces) = (0, 0);
                for step in 0..8 {
                    let mut delta = Delta::new();
                    if let Some(edge) = pool.pop() {
                        present.push(edge);
                        delta = delta.insert("Edge", edge_tuple(edge));
                    }
                    let victim = present.swap_remove(rng.index(present.len()));
                    delta = delta.retract("Edge", edge_tuple(victim));
                    if step % 2 == 0 {
                        let raise = (rng.gen_range(0..NODES), rng.gen_range(1..5u64));
                        raises.push(raise);
                        let cost = MinCost::finite(raise.1).to_value();
                        delta = delta.raise("Dist", vec![(raise.0 as i64).into()], cost);
                    } else if let Some((node, cost)) = raises.pop() {
                        let cost = MinCost::finite(cost).to_value();
                        delta = delta.lower("Dist", vec![(node as i64).into()], cost);
                    }
                    let kept = assert_taints_agree(&program, &current, &delta);
                    tainted += current.provenance().expect("recorded").len() - kept.len();
                    in_pieces +=
                        usize::from(current.events().expect("recorded").segments().len() > 1);
                    current = solver.resume(&program, &current, &delta).expect("resumes");
                    let log = current.provenance().expect("recorded");
                    assert_eq!(log[..kept.len()], kept[..], "seed {seed} step {step}");
                    applied.extend_from(&delta);
                    let scratch = program.with_delta(&applied).expect("the deltas fit");
                    assert_eq!(
                        sorted_model(&program, &current),
                        sorted_model(&scratch, &solver.solve(&scratch).expect("solves")),
                        "seed {seed} step {step}"
                    );
                }
                assert!(tainted > 0, "seed {seed}: no retraction reached the log");
                assert!(in_pieces > 0, "seed {seed}: only one-segment logs tainted");
            }
        }
    }

    /// A graph of `nodes` nodes in a ring with chords, and two edges to
    /// node `nodes` — a leaf nothing else reaches: the second, cheaper
    /// one changes one `Dist` cell whatever the size of the graph.
    fn ring_with_leaf(nodes: u32) -> (Vec<Edge>, Edge) {
        let mut edges: Vec<Edge> = (0..nodes).map(|x| (x, (x + 1) % nodes, 3)).collect();
        edges.extend((0..nodes).step_by(3).map(|x| (x, (x + 7) % nodes, 5)));
        edges.push((1, nodes, 9));
        (edges, (2, nodes, 1))
    }

    /// What ROADMAP item 1 asks of a resume — cost that follows the
    /// change, not the model — stated without a clock: after a monotone
    /// and after a retracting resume every segment of the prior's log is
    /// in the resumed log by identity, whatever the size of the model.
    #[test]
    fn a_resume_shares_every_prior_segment_at_any_model_size() {
        for nodes in [50, 200] {
            let (edges, shortcut) = ring_with_leaf(nodes);
            let program = paths_program(&edges);
            let solver = Solver::new().record_provenance(true);
            let base = solver.solve(&program).expect("solves");
            let insert = Delta::new().insert("Edge", edge_tuple(shortcut));
            let grown = solver.resume(&program, &base, &insert).expect("resumes");
            assert_shares_segments(&grown, &base);
            let grown_log = grown.events().expect("recorded");
            assert_eq!(grown_log.segments().len(), 2, "{nodes} nodes");

            let retract = Delta::new().retract("Edge", edge_tuple(shortcut));
            let kept = assert_taints_agree(&program, &grown, &retract);
            assert!(kept.len() < grown.provenance().expect("recorded").len());
            let shrunk = solver.resume(&program, &grown, &retract).expect("resumes");
            assert_shares_segments(&shrunk, &grown);
            assert_eq!(
                sorted_model(&program, &shrunk),
                sorted_model(&program, &base)
            );
            // The prior still reads its own history in full.
            let last_edge = |solution: &Solution| {
                let tree = solution.explain("Dist", &[(nodes as i64).into()]);
                let mut premises = tree.expect("derived").children.into_iter();
                let edge = premises.find(|child| child.predicate == "Edge");
                edge.expect("an edge premise").tuple
            };
            assert_eq!(last_edge(&grown), edge_tuple(shortcut));
            assert_eq!(last_edge(&shrunk), edge_tuple((1, nodes, 9)));
        }
    }

    /// 1 000 one-edge resumes in a chain: the log stays what carrying one
    /// flat vector forward would have made it — the prior's log without
    /// the cone, then the run's own events — while the number of segments
    /// stays logarithmic: each is at least twice as long as the next.
    #[test]
    fn a_thousand_chained_resumes_keep_the_log_exact_and_its_segments_few() {
        const NODES: u32 = 12;
        let mut rng = SmallRng::seed_from_u64(0x5E6);
        let mut absent = random_edges(&mut rng, NODES, 60);
        let mut present = absent.split_off(30);
        let program = paths_program(&present);
        let solver = Solver::new().record_provenance(true);
        let mut current = solver.solve(&program).expect("solves");
        let mut most_segments = 0;
        for step in 0..1000 {
            let (from, to, retract) = if step % 2 == 0 {
                (&mut present, &mut absent, true)
            } else {
                (&mut absent, &mut present, false)
            };
            let edge = from.swap_remove(rng.index(from.len()));
            to.push(edge);
            let delta = if retract {
                Delta::new().retract("Edge", edge_tuple(edge))
            } else {
                Delta::new().insert("Edge", edge_tuple(edge))
            };
            let kept = assert_taints_agree(&program, &current, &delta);
            current = solver.resume(&program, &current, &delta).expect("resumes");
            let flat = current.provenance().expect("recorded");
            assert_eq!(flat[..kept.len()], kept[..], "step {step}");

            let log = current.events().expect("recorded");
            let lengths: Vec<usize> = log.segments().iter().map(|s| s.len()).collect();
            for pair in lengths.windows(2) {
                assert!(pair[0] >= 2 * pair[1], "step {step}: {lengths:?}");
            }
            let total: usize = lengths.iter().sum();
            assert!(lengths.len() <= total.ilog2() as usize + 1, "{lengths:?}");
            most_segments = most_segments.max(lengths.len());
        }
        assert!(most_segments >= 3, "the chain never built up segments");
        let scratch = paths_program(&present);
        let expected = solver.solve(&scratch).expect("solves");
        assert_eq!(
            sorted_model(&program, &current),
            sorted_model(&scratch, &expected)
        );
    }
}
