//! The evaluator: every rule body — and every semi-naïve delta variant
//! of it — is compiled once per solve into a join [`Plan`], and a tight
//! interpreter runs the plans over the *encoded* columns of the columnar
//! fact store. There is no other rule-body evaluator in the engine; the
//! model checker's oracle in [`crate::model`] deliberately shares no code
//! with this one.
//!
//! A plan moves every decision that does not depend on the data out of
//! the loop:
//!
//! * **boundness is static** — which variables are bound at each body
//!   position follows from the scheduled body order, so each atom
//!   compiles to one step with exactly one access form (ground lookup,
//!   index probe, scan, or delta iteration) and a fixed op list per row
//!   — the same step for a relation and for a lattice predicate, which
//!   only adds a value column to match afterwards;
//! * **`∆` is a list of row ids** — a delta step walks the ids a round
//!   changed and reads them through the same encoded columns, with the
//!   same row ops, as a probe or a scan does (a lattice `∆` also carries
//!   the value each change reached);
//! * **a retraction binds the head first** — a run that deleted facts of
//!   a rule's head predicate compiles one more plan for it, whose first
//!   step binds the head's variables to the deleted keys and whose body
//!   is ordered, for this one database, from there: re-deriving what was
//!   over-deleted costs lookups per deleted fact, not a pass over the
//!   model (DESIGN §16);
//! * **values are single words** — relational columns and lattice *key*
//!   columns compare as encoded `u64` slots (see [`crate::database`]),
//!   so a join key is a handful of word moves, not `Value` clones;
//! * **a lattice element is a word** — every cell is one word
//!   ([`KindWords`]): a declared kind's, compared without decoding, or
//!   otherwise the element's slot, which the lattice's word forms read
//!   and its closures read decoded (DESIGN §15). A lattice atom is
//!   matched by the glb semantics of §3.2;
//! * **every register is a word** — a variable lives as a declared
//!   kind's word where it only ever stands for that kind's elements, and
//!   as its store slot otherwise ([`Classes`]); a slot standing for a
//!   kind's element converts at that lattice's step. What a read-only
//!   round computes that the store has no slot for yet — a `glb`, a
//!   function's or a choice's result — gets a *round-local* word, after
//!   a store lookup, so two words are equal exactly when their values
//!   are ([`Locals`](crate::database::Locals)): it equals no stored
//!   slot, no word form reads it, and the round's absorb interns it
//!   where a head or a premise holds it;
//! * **a function runs on words where it can** — a filter or a head
//!   application whose arguments are all registers or literals of the
//!   types its word form reads, and whose result its column takes as a
//!   word, calls the word form ([`crate::ProgramBuilder::word_form`]);
//!   a choice whose function has a choice form of its width, and whose
//!   arguments are all slots or literals, calls the choice form
//!   ([`crate::ProgramBuilder::choice_form`]) and binds slots; any other
//!   call — and one with a round-local argument — decodes and calls the
//!   boxed form;
//! * **negation is an absence test** — a negated atom only ever reads a
//!   predicate of a lower, fully settled stratum, so it compiles to one
//!   membership / cell lookup when its key is ground and to a scan of the
//!   settled facts otherwise, binding nothing;
//! * **choice is a fan-out, or a test** — a `<-` binding calls its
//!   function once and recurses per element of the returned set: slots
//!   written by the choice form, or — from the boxed form, whose user
//!   code may return values the store never saw — each value's word; a
//!   bind that this body order has already bound is compared, not
//!   overwritten, so a body means the same conjunction in every order;
//! * **premises are copied at emit** — when provenance is recorded, each
//!   derivation carries its positive body atoms, in body order, as the
//!   words the registers already hold: per atom its predicate and one
//!   word per column (a key column as the slot of the row the atom
//!   matched; a marker for `_` in a value column; a lattice's element as
//!   its word — a glb-rebound witness's round-local, where the store has
//!   none yet), appended to the round's premise arena. Nothing is decoded
//!   and nothing else is allocated per derivation; this is exactly what
//!   DRed retraction later replays, and `explain` decodes;
//! * **heads leave as words** — every head is appended to the round's
//!   word run ([`Derivations`]) as the words the registers hold, a
//!   lattice's element as its word, with the cell id a lattice head
//!   resolved in a side vector; a value the store has never seen leaves
//!   as its round-local word, for the round's absorb to intern;
//! * **a relational head is tested once, where it is inserted** — the
//!   round's absorb finds the row or inserts it in one walk of the row
//!   set, so the plan does not test it first;
//! * **subsumed lattice candidates are suppressed at the emit site** — a
//!   candidate `⊑` its stored cell, or `⊑` what this execution already
//!   emitted for the cell (its shadow cell), would be dropped as
//!   `Unchanged` by the insert loop; the plan checks it on the
//!   already-encoded key and skips the round trip — the steady state of
//!   fixed points like shortest paths, where a round derives many
//!   successively better candidates per cell. Suppressed candidates are
//!   still counted as derived, head functions are still applied (so a
//!   panicking transfer function still fires), and the check is skipped
//!   when ascent telemetry is on (a subsumed join must count on its
//!   cell). Suppression cannot lose a provenance event: only
//!   database-*changing* inserts are logged, and a suppressed candidate
//!   is by construction one that changes nothing.
//!
//! Iteration order is part of the contract — insertion-order scans,
//! insertion-order probe hits, delta atom outermost — because solutions,
//! statistics, traces, event logs and snapshot bytes all depend on it;
//! the strategy-parity suite and the golden snapshots pin it.

use crate::database::{
    is_local, is_slot, Columns, Database, KindWords, LatticeData, PredData, NO_ID, SLOT_WILDCARD,
    WORD_FALSE, WORD_TRUE,
};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::guard::{panic_payload, EvalGuard};
use crate::ops::OpsPanic;
use crate::program::{
    bind_item, key_cols, ordered_body_from, CHead, CItem, CRule, CTerm, OrderFrom, Program,
};
use crate::solver::{DeltaRows, Derivations, EvalCounters, EvalFault, Heads};
use crate::verify::Violation;
use crate::{PredId, Value, WordType};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One component of an encoded probe or membership key, or of a word
/// form's arguments.
#[derive(Clone, Debug)]
enum KeySrc {
    /// A literal, pre-encoded at compile time (interned/spilled, so the
    /// encoding stays canonical for the rest of the solve).
    Lit(u64),
    /// A variable's register.
    Slot(usize),
}

/// One per-row column op, applied in column order. `Bind` before any
/// `CheckSlot` of the same slot within one atom (first occurrence binds).
#[derive(Clone, Debug)]
enum RowOp {
    /// Column must equal a pre-encoded literal.
    CheckLit { col: usize, enc: u64 },
    /// Column must equal a register. A round-local word equals no
    /// stored slot: its value was never stored.
    CheckSlot { col: usize, slot: usize },
    /// First occurrence of a variable: bind the register.
    Bind { col: usize, slot: usize },
}

/// How the value column of a lattice atom is matched — the glb-matching
/// semantics of §3.2, compiled. A variable's register is `by_value` when
/// it holds a store slot and the lattice's words are a declared kind's
/// ([`Classes`]): the step converts through the element's value — the
/// register binds the cell's element's slot, and a meet is the closures'
/// on the decoded register and cell.
#[derive(Clone, Debug)]
enum ValSpec {
    /// Wildcard: any cell matches.
    Wild,
    /// Literal `l`: matches when `l ⊑ cell`; its word.
    Lit(u64),
    /// Unbound variable: binds to the cell (the greatest witness).
    Bind { slot: usize, by_value: bool },
    /// Bound variable `w`: rebinds to `w ⊓ cell` unless that is `⊥`.
    /// The rebind is restored after the sub-join returns.
    Meet { slot: usize, by_value: bool },
}

/// A variable or literal as a function argument, or where a head column
/// or a premise converts it through its value: a register holding a
/// store slot, or one holding a word of a lattice of a built-in kind.
#[derive(Clone, Debug)]
enum ArgSrc {
    Lit(Value),
    Slot(usize),
    Kind(usize, KindWords),
}

/// A call of a registered function (filters, head applications and
/// choices): its boxed argument list, and — where the function's word
/// form (a choice's: its choice form) reads what the registers hold and
/// writes what the caller takes — the word form's.
#[derive(Clone, Debug)]
struct Call {
    func: usize,
    args: Vec<ArgSrc>,
    /// Literals (pre-encoded) and registers. A round-local word among
    /// them at run time, which no form reads, calls the boxed form.
    words: Option<Vec<KeySrc>>,
}

/// A head-column source. A literal carries its word in the column's
/// representation — a key column's slot, a lattice's element's word —
/// compiled once, so the emit-side pre-check never re-interns it.
#[derive(Clone, Debug)]
enum HeadSrc {
    Lit(u64),
    /// A register holding the column's own word: a join variable in a
    /// key column, a lattice's element in its value column.
    Word(usize),
    /// Any other variable: converted through its value.
    Var(ArgSrc),
    App(Call),
}

/// One word of a premise template: where [`copy_premises`] takes it from.
#[derive(Clone, Debug)]
enum PremiseSrc {
    /// Known at compile time: a premise's predicate, a pre-encoded
    /// literal, or the wildcard marker of a lattice value column.
    Word(u64),
    /// A register holding the column's own word.
    Slot(usize),
    /// A lattice's element held by a register of other words: converted
    /// through its value to the lattice's.
    Var(ArgSrc, KindWords),
}

/// How an atom step reaches the stored rows it tries: decided once, at
/// compile time, from what is bound when the atom runs. The access form
/// is also where the work counters are charged: a ground lookup and delta
/// iteration count nothing, a probe counts one probe per visit, a scan
/// one fallback per visit when an index was wanted.
#[derive(Clone, Debug)]
enum Access {
    /// Every (key) column ground: one membership test or cell lookup.
    Ground(Vec<KeySrc>),
    /// Probe of the predicate's `index`-th index (the position is
    /// resolved at compile time); the step's ops match the other columns.
    Probe { index: usize, key: Vec<KeySrc> },
    /// Every stored row; `count` is set when an index was wanted but
    /// missing.
    Scan { count: bool },
    /// The delta atom of a semi-naïve variant: the rows `∆pred` names, a
    /// lattice cell at the value its change reached.
    Delta,
}

/// One step of a compiled body.
#[derive(Clone, Debug)]
enum Step {
    /// A positive atom: the rows `access` reaches whose (key) columns
    /// match `ops` continue the sub-join, a lattice atom's through `val`.
    /// A relational atom is the case with no value column to match: its
    /// `val` is `Wild`.
    Atom {
        pred: PredId,
        access: Access,
        ops: Vec<RowOp>,
        val: ValSpec,
    },
    /// A boolean filter function over bound arguments.
    Filter(Call),
    /// A negated atom: the sub-join continues only when no stored fact
    /// matches. Every variable is bound by validation, so `ops` only
    /// check and `val` never binds. `access` is a ground lookup when no
    /// (key) column is a wildcard and an uncounted scan otherwise: a
    /// negation counts neither probes nor scans. Sound because
    /// stratification settles the negated predicate before this rule's
    /// stratum runs.
    Neg {
        pred: PredId,
        access: Access,
        ops: Vec<RowOp>,
        val: ValSpec,
    },
    /// A choice binding `binds <- func(args)`: the function's set result
    /// fans out, each element's components going to the `binds`
    /// registers — encoded ones, written by the choice form, when the call
    /// has `words`; boxed ones, from the boxed form's set, otherwise. A
    /// bind flagged `true` is bound by the time the step runs — an earlier
    /// atom of this body order joins on it — and is a membership test
    /// instead: only elements equal to the register continue. A body is a
    /// conjunction; where the choice falls in the order must not change
    /// what it means.
    Choose {
        call: Call,
        binds: Vec<(usize, bool)>,
    },
    /// The first step of a head-bound plan (DESIGN §16): the sub-join
    /// runs once per entry of `seeds`, its slots written to the encoded
    /// `binds` registers — the head variables, bound before the body runs
    /// to the facts a retraction took out of the head predicate. Counts
    /// nothing, like delta iteration.
    HeadSeed {
        binds: Vec<usize>,
        seeds: Vec<Box<[u64]>>,
    },
}

/// What a compiled body starts from.
enum Start {
    /// Nothing bound: the rule body as scheduled.
    Body,
    /// A semi-naïve variant: the first item is the delta atom.
    Delta,
    /// A head-bound plan: a [`Step::HeadSeed`] of these fields goes
    /// before the body and binds its registers.
    Seed {
        binds: Vec<usize>,
        seeds: Vec<Box<[u64]>>,
    },
}

/// A compiled join plan for one (rule, variant) body.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    steps: Vec<Step>,
    head_pred: PredId,
    head: Vec<HeadSrc>,
    /// The words of the head's lattice, for a lattice head: what the
    /// value column leaves as.
    cell: Option<KindWords>,
    num_slots: usize,
    /// Suppress lattice candidates the database already subsumes at emit
    /// time instead of handing them to the insert loop (they would be
    /// dropped there as `Unchanged`). Off for relational heads, which the
    /// insert loop tests once, and when ascent telemetry is on — a
    /// subsumed join must still count on its cell.
    precheck: bool,
    /// The head's encoded columns: all of a relational head, the key
    /// columns of a lattice head.
    key_cols: usize,
    /// When provenance is recorded: per positive body atom, in body
    /// order, its predicate and then one source per column — the words
    /// each derivation appends to the premise arena.
    premises: Option<Vec<PremiseSrc>>,
    /// The predicate and position of every index a step probes, each
    /// once: what the round that runs the plan catches up first.
    probes: Vec<(PredId, usize)>,
}

impl Plan {
    /// The indexes this plan probes, by predicate and position.
    pub(crate) fn probes(&self) -> &[(PredId, usize)] {
        &self.probes
    }
}

/// The compiled plans of a whole program: `plans[rule]` holds the full
/// body's plan plus one per delta variant — and, in a run that deleted
/// facts of the rule's head predicate, the head-bound plan after those.
pub(crate) struct KernelSet {
    plans: Vec<RulePlans>,
}

struct RulePlans {
    full: Plan,
    variants: Vec<Plan>,
    /// Whether the last of `variants` is the rule's head-bound plan.
    head_bound: bool,
}

impl KernelSet {
    /// Compiles a plan for every rule body and delta variant. Takes the
    /// database mutably to encode literals up front (interning them, so
    /// their encodings stay valid as the store grows). Literal encodings
    /// and index positions are those of `db`: a run that replaces its
    /// database compiles again. `lat_precheck`
    /// permits the emit-side subsumption check for lattice heads; it must
    /// be false when ascent telemetry is on, because a subsumed join
    /// still counts against its cell's join counter there. `premises`
    /// makes every derivation carry its instantiated positive body atoms
    /// for the provenance log. `lost[pred]` holds the encoded keys of the
    /// facts the run deleted from `pred` (`Run::delete`; all empty in a
    /// run that deleted nothing): a rule whose head predicate lost facts
    /// gets a head-bound plan seeded with them, and `use_indexes` lets
    /// that plan build the indexes its order wants.
    pub(crate) fn compile(
        program: &Program,
        db: &mut Database,
        lat_precheck: bool,
        premises: bool,
        use_indexes: bool,
        lost: &[Vec<Box<[u64]>>],
    ) -> KernelSet {
        let plans = program
            .rules
            .iter()
            .map(|rule| {
                let lost = &lost[rule.head_pred.0 as usize];
                let seeded = head_bound(program, db, rule, lost, use_indexes);
                let mut compile = |body: &[CItem], start: Start| {
                    compile_body(program, db, rule, body, start, lat_precheck, premises)
                };
                let full = compile(&rule.body, Start::Body);
                let delta = rule.delta_variants.iter();
                let mut variants: Vec<Plan> =
                    delta.map(|(_, body)| compile(body, Start::Delta)).collect();
                let head_bound = seeded.is_some();
                variants.extend(seeded.map(|(body, start)| compile(&body, start)));
                RulePlans {
                    full,
                    variants,
                    head_bound,
                }
            })
            .collect();
        KernelSet { plans }
    }

    /// The plan for a rule evaluation: the full body, or a variant.
    pub(crate) fn plan(&self, rule: usize, variant: Option<usize>) -> &Plan {
        match variant {
            None => &self.plans[rule].full,
            Some(vi) => &self.plans[rule].variants[vi],
        }
    }

    /// The variant number of the rule's head-bound plan, if this run
    /// compiled one: it comes after the delta variants.
    pub(crate) fn head_bound(&self, rule: usize) -> Option<usize> {
        let plans = &self.plans[rule];
        plans.head_bound.then(|| plans.variants.len() - 1)
    }
}

/// Where the variables of one body live while its plan runs (DESIGN
/// §15). Every register holds a word. A variable that only ever stands
/// for the elements of one lattice of a declared kind — in no key column
/// and bound by no choice — lives as that lattice's word; every other one
/// as its store slot, or, for a value the store has no slot for yet, as
/// a round-local word ([`crate::database::Locals`]). The element of a
/// lattice of no declared kind is a slot too, that lattice's word; a slot
/// that stands for a declared kind's element converts at that lattice's
/// step ([`ValSpec`]).
struct Classes {
    elems: HashMap<usize, KindWords>,
    /// The variables that stand for a lattice's elements: a lattice atom
    /// may rebind one to a `glb`, and a head-bound plan seeds none
    /// ([`head_bound`]) — its atom would meet the seed, not bind the cell.
    valued: HashSet<usize>,
    /// The binds of a choice that calls its function rather than its
    /// choice form: a head-bound plan leaves them to the choice.
    called: HashSet<usize>,
}

impl Classes {
    fn of(program: &Program, db: &Database, body: &[CItem]) -> Classes {
        // Key columns and choice binds: slots.
        let mut keyed: HashSet<usize> = HashSet::new();
        // `None`: elements of a lattice of no declared kind, or of two.
        let mut kinds: HashMap<usize, Option<&KindWords>> = HashMap::new();
        let mut valued = HashSet::new();
        for item in body {
            let (pred, terms) = match item {
                CItem::Atom { pred, terms, .. } | CItem::NegAtom { pred, terms } => (pred, terms),
                CItem::Choose { binds, .. } => {
                    keyed.extend(binds);
                    continue;
                }
                CItem::Filter { .. } => continue,
            };
            let ncols = key_cols(program.decl(*pred));
            keyed.extend(terms[..ncols].iter().filter_map(|t| match t {
                CTerm::Var(slot) => Some(*slot),
                _ => None,
            }));
            let (PredData::Lat(lat), Some(CTerm::Var(slot))) = (db.pred(*pred), terms.get(ncols))
            else {
                continue;
            };
            valued.insert(*slot);
            let words = Some(lat.words()).filter(|words| !words.is_slots());
            let seen = kinds.entry(*slot).or_insert(words);
            if *seen != words {
                *seen = None;
            }
        }
        let elems = kinds.into_iter().filter(|(slot, _)| !keyed.contains(slot));
        let mut classes = Classes {
            elems: elems
                .filter_map(|(slot, words)| Some((slot, words?.clone())))
                .collect(),
            valued,
            called: HashSet::new(),
        };
        for item in body {
            if let CItem::Choose { func, args, binds } = item {
                if !classes.choice_form(program, *func, args, binds.len()) {
                    classes.called.extend(binds);
                }
            }
        }
        classes
    }

    /// Whether the variable lives as its store slot.
    fn is_slot(&self, slot: usize) -> bool {
        !self.elems.contains_key(&slot)
    }

    /// Whether a head-bound plan may bind the variable before the body
    /// runs: a slot whose body binders are relational.
    fn is_seedable(&self, slot: usize) -> bool {
        self.is_slot(slot) && !self.valued.contains(&slot) && !self.called.contains(&slot)
    }

    /// Whether a choice `binds <- func(args)` of `width` binds runs its
    /// function's choice form: it has one of that width, and every
    /// argument is a literal or a slot.
    fn choice_form(&self, program: &Program, func: usize, args: &[CTerm], width: usize) -> bool {
        let form = program.funcs[func].choice.as_ref();
        form.is_some_and(|form| form.width == width)
            && args.iter().all(|t| match t {
                CTerm::Var(v) => self.is_slot(*v),
                _ => true,
            })
    }

    fn arg(&self, slot: usize) -> ArgSrc {
        match self.elems.get(&slot) {
            Some(words) => ArgSrc::Kind(slot, words.clone()),
            None => ArgSrc::Slot(slot),
        }
    }
}

/// The body order and the seed step of `rule`'s head-bound plan, for a
/// run that deleted the facts with the encoded keys `lost` from the
/// rule's head predicate: what re-derives those of them the rule still
/// derives (DESIGN §16).
///
/// A head key column is *bindable* when it holds a literal — a lost key
/// that differs there is not this rule's to derive — or a variable that
/// lives as its store slot, which a positive body atom or a choice form
/// binds: the seed binds it before the body runs instead (a choice then
/// tests the seeded slot). A column that repeats a variable must repeat
/// the value. Every other column — a lattice's element, a variable a
/// choice's function binds, a function application — is left for the
/// body to produce.
/// `None` when there is nothing to re-derive or no column is bindable;
/// the rule's full plan covers the second case.
fn head_bound(
    program: &Program,
    db: &mut Database,
    rule: &CRule,
    lost: &[Box<[u64]>],
    use_indexes: bool,
) -> Option<(Vec<CItem>, Start)> {
    if lost.is_empty() {
        return None;
    }
    let classes = Classes::of(program, db, &rule.body);
    let key_cols = rule.head.len() - program.decl(rule.head_pred).is_lattice() as usize;
    // The bindable columns: those that must equal a literal, and those
    // that bind or repeat a variable — by its position in `binds`.
    let mut binds: Vec<usize> = Vec::new();
    let mut literals: Vec<(usize, u64)> = Vec::new();
    let mut variables: Vec<(usize, usize)> = Vec::new();
    for (col, h) in rule.head[..key_cols].iter().enumerate() {
        match h {
            CHead::Lit(v) => literals.push((col, db.encode_literal(v))),
            CHead::Var(slot) if classes.is_seedable(*slot) => {
                let at = binds.iter().position(|b| b == slot).unwrap_or_else(|| {
                    binds.push(*slot);
                    binds.len() - 1
                });
                variables.push((col, at));
            }
            CHead::Var(_) | CHead::App(..) => {}
        }
    }
    if literals.is_empty() && variables.is_empty() {
        return None;
    }
    // The distinct projections of the lost keys onto the bound variables.
    let mut seen: FxHashSet<Box<[u64]>> = FxHashSet::default();
    let mut seeds = Vec::new();
    for key in lost {
        let mut seed: Vec<Option<u64>> = vec![None; binds.len()];
        let fits = literals.iter().all(|&(col, literal)| key[col] == literal)
            && variables
                .iter()
                .all(|&(col, at)| *seed[at].get_or_insert(key[col]) == key[col]);
        if fits {
            let seed: Box<[u64]> = seed.into_iter().flatten().collect();
            if seen.insert(seed.clone()) {
                seeds.push(seed);
            }
        }
    }
    let bound: HashSet<usize> = binds.iter().copied().collect();
    let rows: Vec<usize> = (0..program.preds.len())
        .map(|pred| db.len_of(PredId(pred as u32)))
        .collect();
    let from = OrderFrom::Bound(&bound, Some(&rows));
    // An index this order wants and the program never asked for is built
    // on this run's database alone; no other solve pays for it.
    let body = ordered_body_from(&rule.body, &program.preds, from, |pred, cols| {
        if use_indexes {
            db.ensure_index(pred, cols);
        }
    });
    Some((body, Start::Seed { binds, seeds }))
}

/// Compiles one body into a [`Plan`].
fn compile_body(
    program: &Program,
    db: &mut Database,
    rule: &CRule,
    body: &[CItem],
    start: Start,
    lat_precheck: bool,
    premises: bool,
) -> Plan {
    let classes = Classes::of(program, db, body);
    // Recording premises, a positive atom's key column that holds `_` or
    // a variable a lattice atom may glb-rebind binds a hidden register
    // after the rule's: the premise logs the matched row's slot.
    let mut num_slots = rule.num_vars;
    let hides = |term: &CTerm| match term {
        CTerm::Wild => true,
        CTerm::Var(slot) => classes.valued.contains(slot),
        CTerm::Lit(_) => false,
    };

    let mut steps = Vec::with_capacity(body.len() + 1);
    let mut bound: HashSet<usize> = HashSet::new();
    let delta_first = matches!(start, Start::Delta);
    if let Start::Seed { binds, seeds } = start {
        bound.extend(&binds);
        steps.push(Step::HeadSeed { binds, seeds });
    }
    for (idx, item) in body.iter().enumerate() {
        match item {
            CItem::Atom {
                pred,
                terms,
                index_cols,
            } => {
                let ncols = key_cols(program.decl(*pred));
                // The value spec is resolved before the key ops mark the
                // atom's variables bound — but a value variable first
                // bound by this atom's *own* key columns is bound by the
                // time the value is matched, so account for that below.
                let key_binds: HashSet<usize> = terms[..ncols]
                    .iter()
                    .filter_map(|t| match t {
                        CTerm::Var(slot) if !bound.contains(slot) => Some(*slot),
                        _ => None,
                    })
                    .collect();
                let val = val_spec(db, *pred, terms, ncols, &classes, |slot| {
                    bound.contains(slot) || key_binds.contains(slot)
                });
                let from_delta = delta_first && idx == 0;
                let index_cols = (!from_delta).then_some(&index_cols[..]);
                let (access, mut ops) = access(db, *pred, terms, ncols, index_cols, &bound);
                for col in (0..ncols).filter(|&c| premises && hides(&terms[c])) {
                    let slot = num_slots;
                    ops.push(RowOp::Bind { col, slot });
                    num_slots += 1;
                }
                steps.push(Step::Atom {
                    pred: *pred,
                    access,
                    ops,
                    val,
                });
                bind_item(item, &mut bound);
            }
            CItem::Filter { func, args } => {
                // A filter's result is tested, not stored: any word type.
                steps.push(Step::Filter(call(
                    program,
                    db,
                    &classes,
                    *func,
                    args,
                    |_| true,
                )));
            }
            CItem::NegAtom { pred, terms } => {
                // One lookup when no (key) column is a wildcard, a scan
                // nobody counts otherwise: never an index.
                let ncols = key_cols(program.decl(*pred));
                let ground = !terms[..ncols].iter().any(|t| matches!(t, CTerm::Wild));
                let key: Vec<usize> = if ground {
                    (0..ncols).collect()
                } else {
                    Vec::new()
                };
                let (access, ops) = access(db, *pred, terms, ncols, Some(&key), &bound);
                steps.push(Step::Neg {
                    pred: *pred,
                    access,
                    ops,
                    val: val_spec(db, *pred, terms, ncols, &classes, |_| true),
                });
            }
            CItem::Choose { func, args, binds } => {
                steps.push(Step::Choose {
                    call: choice_call(program, db, &classes, *func, args, binds),
                    // Statically: whether an earlier step (or an earlier
                    // component of this tuple) binds the variable.
                    binds: binds.iter().map(|&b| (b, !bound.insert(b))).collect(),
                });
            }
        }
    }

    let is_lattice = program.decl(rule.head_pred).is_lattice();
    let key_cols = rule.head.len() - is_lattice as usize;
    let cell = lattice_words(db, rule.head_pred);
    let head: Vec<HeadSrc> = rule
        .head
        .iter()
        .enumerate()
        .map(|(col, h)| {
            // A key column takes slots; a lattice's value column its words.
            let words = cell.as_ref().filter(|_| col == key_cols);
            match h {
                CHead::Lit(v) => HeadSrc::Lit(match words {
                    None => db.encode_literal(v),
                    Some(elems) => db.encode_elem(elems, v),
                }),
                CHead::Var(slot) => {
                    own_word(words, classes.arg(*slot)).map_or_else(HeadSrc::Var, HeadSrc::Word)
                }
                CHead::App(func, args) => {
                    HeadSrc::App(call(program, db, &classes, *func, args, |result| {
                        match (words, result) {
                            (None, WordType::Slot) => true,
                            (Some(elems), WordType::Slot) => elems.is_slots(),
                            (Some(elems), WordType::Elem(kind)) => elems.is(kind),
                            _ => false,
                        }
                    }))
                }
            }
        })
        .collect();
    let premises = premises.then(|| {
        let atoms = body.iter().filter_map(|item| match item {
            CItem::Atom { pred, terms, .. } => Some((pred, terms)),
            _ => None,
        });
        let words = atoms.clone().map(|(_, terms)| 1 + terms.len()).sum();
        let mut template = Vec::with_capacity(words);
        let mut hidden = rule.num_vars..num_slots;
        for (pred, terms) in atoms {
            template.push(PremiseSrc::Word(pred.0 as u64));
            let elems = lattice_words(db, *pred);
            for (col, t) in terms.iter().enumerate() {
                let value = elems.as_ref().filter(|_| col == terms.len() - 1);
                template.push(match t {
                    t if value.is_none() && hides(t) => {
                        PremiseSrc::Slot(hidden.next().expect("bound by the atom"))
                    }
                    CTerm::Wild => PremiseSrc::Word(SLOT_WILDCARD),
                    // A lattice's element is logged as its word. Encoded
                    // by the atom's step already: interns nothing.
                    CTerm::Lit(v) => PremiseSrc::Word(match value {
                        Some(elems) => db.encode_elem(elems, v),
                        None => db.encode_literal(v),
                    }),
                    CTerm::Var(slot) => match own_word(value, classes.arg(*slot)) {
                        Ok(s) => PremiseSrc::Slot(s),
                        Err(arg) => {
                            let elems = value.expect("a key column's variable is a slot");
                            PremiseSrc::Var(arg, elems.clone())
                        }
                    },
                });
            }
        }
        debug_assert!(hidden.next().is_none(), "every hidden register logged");
        template
    });

    let mut probes: Vec<(PredId, usize)> = Vec::new();
    for step in &steps {
        if let Step::Atom {
            pred,
            access: Access::Probe { index, .. },
            ..
        } = step
        {
            if !probes.contains(&(*pred, *index)) {
                probes.push((*pred, *index));
            }
        }
    }
    Plan {
        steps,
        head_pred: rule.head_pred,
        head,
        cell,
        num_slots,
        precheck: lat_precheck && is_lattice,
        key_cols,
        premises,
        probes,
    }
}

/// The register that holds `arg`'s word in a column of `words` — a
/// lattice's value column, or, for `None`, a key column, which takes
/// slots — when it holds that word; otherwise `arg`, to convert through
/// its value.
fn own_word(words: Option<&KindWords>, arg: ArgSrc) -> Result<usize, ArgSrc> {
    match (words, arg) {
        (None, ArgSrc::Slot(s)) => Ok(s),
        (Some(words), ArgSrc::Slot(s)) if words.is_slots() => Ok(s),
        (Some(words), ArgSrc::Kind(s, of)) if of == *words => Ok(s),
        (_, arg) => Err(arg),
    }
}

/// The words of `pred`'s lattice; `None` for a relation.
fn lattice_words(db: &Database, pred: PredId) -> Option<KindWords> {
    match db.pred(pred) {
        PredData::Lat(lat) => Some(lat.words().clone()),
        PredData::Rel(_) => None,
    }
}

/// How the value column of a (possibly negated) atom of `pred` with
/// `ncols` key columns is matched; `is_bound` tells whether a value
/// variable is bound by the time the value is matched. A relation has no
/// value column: `Wild`.
fn val_spec(
    db: &mut Database,
    pred: PredId,
    terms: &[CTerm],
    ncols: usize,
    classes: &Classes,
    is_bound: impl Fn(&usize) -> bool,
) -> ValSpec {
    match (terms.get(ncols), lattice_words(db, pred)) {
        (Some(CTerm::Lit(v)), Some(elems)) => ValSpec::Lit(db.encode_elem(&elems, v)),
        (Some(CTerm::Var(slot)), Some(elems)) => {
            let (slot, by_value) = (*slot, classes.is_slot(*slot) && !elems.is_slots());
            match is_bound(&slot) {
                true => ValSpec::Meet { slot, by_value },
                false => ValSpec::Bind { slot, by_value },
            }
        }
        _ => ValSpec::Wild,
    }
}

/// Picks the access form of one atom and compiles the ops for the (key)
/// columns its key does not cover. `index_cols` are the columns ground
/// when the atom runs — `None` for the delta atom, which walks `∆`
/// whatever is bound: all of them ground is a lookup, some of them a
/// probe when the database has that index and a counted scan when it has
/// not, none of them a scan.
fn access(
    db: &mut Database,
    pred: PredId,
    terms: &[CTerm],
    ncols: usize,
    index_cols: Option<&[usize]>,
    bound: &HashSet<usize>,
) -> (Access, Vec<RowOp>) {
    let (access, keyed): (Access, &[usize]) = match index_cols {
        None => (Access::Delta, &[]),
        Some(cols) if cols.len() == ncols => (Access::Ground(key_srcs(terms, cols, db)), cols),
        Some([]) => (Access::Scan { count: false }, &[]),
        Some(cols) => match db.pred(pred).columns().index_of(cols) {
            Some(index) => {
                let key = key_srcs(terms, cols, db);
                (Access::Probe { index, key }, cols)
            }
            None => (Access::Scan { count: true }, &[]),
        },
    };
    let ops = row_ops(terms, ncols, keyed, bound, db);
    (access, ops)
}

/// Compiles the probe-key sources for `index_cols` (all of which are
/// literals or bound variables, by construction; never a declared kind's
/// element, which [`Classes`] keeps a slot where it is a key).
fn key_srcs(terms: &[CTerm], index_cols: &[usize], db: &mut Database) -> Vec<KeySrc> {
    index_cols
        .iter()
        .map(|&col| match &terms[col] {
            CTerm::Lit(v) => KeySrc::Lit(db.encode_literal(v)),
            CTerm::Var(slot) => KeySrc::Slot(*slot),
            CTerm::Wild => unreachable!("index columns are never wildcards"),
        })
        .collect()
}

/// Compiles the per-row ops for the columns of one atom that are not
/// covered by the probe key (`skip`), in column order.
fn row_ops(
    terms: &[CTerm],
    ncols: usize,
    skip: &[usize],
    bound: &HashSet<usize>,
    db: &mut Database,
) -> Vec<RowOp> {
    let mut ops = Vec::new();
    let mut atom_bound: HashSet<usize> = HashSet::new();
    for (col, t) in terms.iter().enumerate().take(ncols) {
        if skip.contains(&col) {
            // Key columns still bind their variables for repeated
            // occurrences *within* the atom; those later occurrences are
            // also in the key (bound), so nothing to do here.
            if let CTerm::Var(slot) = t {
                atom_bound.insert(*slot);
            }
            continue;
        }
        match t {
            CTerm::Wild => {}
            CTerm::Lit(v) => ops.push(RowOp::CheckLit {
                col,
                enc: db.encode_literal(v),
            }),
            CTerm::Var(slot) => {
                let slot = *slot;
                ops.push(match bound.contains(&slot) || atom_bound.contains(&slot) {
                    true => RowOp::CheckSlot { col, slot },
                    false => RowOp::Bind { col, slot },
                });
                atom_bound.insert(slot);
            }
        }
    }
    ops
}

fn arg_srcs(args: &[CTerm], classes: &Classes) -> Vec<ArgSrc> {
    let arg = |term: &CTerm| match term {
        CTerm::Lit(v) => ArgSrc::Lit(v.clone()),
        CTerm::Var(slot) => classes.arg(*slot),
        CTerm::Wild => panic!("wildcard cannot be a function argument"),
    };
    args.iter().map(arg).collect()
}

/// Compiles a call of `func`: the boxed form always, and the word form
/// when the function has one, every argument is a literal or a register
/// of the type it reads — a store slot for [`WordType::Slot`], a word of a
/// lattice of the kind for [`WordType::Elem`] — and `takes` its result.
/// A literal read as a lattice's element is left to the boxed form: the
/// word of a ⊥ or ⊤ literal is its lattice's, which the call site does not
/// know.
fn call(
    program: &Program,
    db: &mut Database,
    classes: &Classes,
    func: usize,
    args: &[CTerm],
    takes: impl Fn(&WordType) -> bool,
) -> Call {
    let words = program.funcs[func].word.as_ref().and_then(|form| {
        if form.params.len() != args.len() || !takes(&form.result) {
            return None;
        }
        let word = |(t, ty): (&CTerm, &WordType)| match (t, ty) {
            (CTerm::Lit(v), WordType::Slot) => Some(KeySrc::Lit(db.encode_literal(v))),
            (CTerm::Var(slot), WordType::Slot) if classes.is_slot(*slot) => {
                Some(KeySrc::Slot(*slot))
            }
            (CTerm::Var(slot), WordType::Elem(kind)) => {
                let words = classes.elems.get(slot)?;
                words.is(kind).then_some(KeySrc::Slot(*slot))
            }
            _ => None,
        };
        args.iter().zip(&form.params).map(word).collect()
    });
    Call {
        func,
        args: arg_srcs(args, classes),
        words,
    }
}

/// Compiles the call of a choice `binds <- func(args)`: the boxed form
/// always, and the choice form where [`Classes::choice_form`] finds one
/// that reads the arguments.
fn choice_call(
    program: &Program,
    db: &mut Database,
    classes: &Classes,
    func: usize,
    args: &[CTerm],
    binds: &[usize],
) -> Call {
    let words = classes.choice_form(program, func, args, binds.len());
    let word = |t: &CTerm| match t {
        CTerm::Lit(v) => KeySrc::Lit(db.encode_literal(v)),
        CTerm::Var(slot) => KeySrc::Slot(*slot),
        CTerm::Wild => panic!("wildcard cannot be a function argument"),
    };
    Call {
        func,
        args: arg_srcs(args, classes),
        words: words.then(|| args.iter().map(word).collect()),
    }
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

/// The mutable state of one plan execution: the variable registers
/// (words — store slots, declared kinds' elements and round-local words,
/// as [`Classes`] assigns them), the reusable key buffer, and the
/// thread-local counters. The round-local values are the task's
/// [`Derivations::locals`], which its heads and premises name.
struct State<'a, 'o> {
    program: &'a Program,
    db: &'a Database,
    delta: &'a [DeltaRows],
    guard: &'a EvalGuard<'a>,
    enc: Vec<u64>,
    /// Reused for probe keys and word-form arguments; never held across a
    /// recursive call.
    key_buf: Vec<u64>,
    /// The head's function application, computed once per emit: a word
    /// in its column's representation.
    app: u64,
    /// Reused for function-call arguments (filters and applications).
    args_buf: Vec<Value>,
    /// Reused for what choice forms write: one buffer per choice step
    /// running, taken while its elements fan out.
    choice_bufs: Vec<Vec<u64>>,
    out: &'o mut Derivations,
    probes: u64,
    scans: u64,
    /// Lattice candidates suppressed by the emit-side subsumption
    /// pre-check; they still count as derived in the statistics.
    suppressed: u64,
    /// Per-key least upper bound of the lattice head cells this plan
    /// execution has emitted, seeded with the stored cell. Everything
    /// folded into a shadow cell is processed by the insert loop before
    /// any later candidate, so `cand ⊑ shadow` implies the insert would
    /// be `Unchanged` and the candidate can be suppressed. The `u32` is
    /// the cell's row id ([`NO_ID`] while the cell is not stored yet),
    /// captured so flowing candidates can skip the insert-side lookup.
    shadow_cells: FxHashMap<[u64; SHADOW_KEY], (u32, u64)>,
    /// Row id of the lattice cell the last `is_subsumed` call resolved
    /// ([`NO_ID`] when unknown); lets `emit` address the insert directly
    /// at the cell. Ids are append-only during evaluation — a retraction
    /// deletes rows before its run's first stratum (`Run::delete`), never
    /// between an evaluation and its inserts — so a resolved id stays
    /// valid.
    lat_hit_id: u32,
    fault: Option<EvalFault>,
}

/// Width of the inline shadow-cell keys: covers every lattice head up to
/// this many key columns without per-entry allocation; a wider key is
/// checked against its stored cell alone.
const SHADOW_KEY: usize = 4;

/// Zero-pads an encoded key into an inline shadow key. `None` when the
/// key is too wide for the inline representation.
#[inline]
fn shadow_key(enc: &[u64]) -> Option<[u64; SHADOW_KEY]> {
    if enc.len() > SHADOW_KEY {
        return None;
    }
    let mut key = [0u64; SHADOW_KEY];
    key[..enc.len()].copy_from_slice(enc);
    Some(key)
}

impl State<'_, '_> {
    fn fail(&mut self, fault: impl Into<EvalFault>) {
        if self.fault.is_none() {
            self.fault = Some(fault.into());
        }
    }
}

/// Reusable per-worker buffers for plan execution. Registers, key
/// buffers, and the shadow cells are cleared — not reallocated —
/// between tasks, so a round with many tasks pays for map growth once
/// instead of once per task.
#[derive(Default)]
pub(crate) struct KernelScratch {
    enc: Vec<u64>,
    key_buf: Vec<u64>,
    args_buf: Vec<Value>,
    choice_bufs: Vec<Vec<u64>>,
    shadow_cells: FxHashMap<[u64; SHADOW_KEY], (u32, u64)>,
}

impl KernelScratch {
    pub(crate) fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// Executes a compiled plan, appending derivations to `out` under one
/// [`Heads`] header. The first fault short-circuits the whole execution;
/// the counters are folded in on that path too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plan(
    program: &Program,
    db: &Database,
    plan: &Plan,
    rule: usize,
    delta: &[DeltaRows],
    guard: &EvalGuard<'_>,
    counters: &mut EvalCounters,
    out: &mut Derivations,
    scratch: &mut KernelScratch,
) -> Result<(), EvalFault> {
    let mut enc = std::mem::take(&mut scratch.enc);
    enc.clear();
    enc.resize(plan.num_slots, 0);
    let mut shadow_cells = std::mem::take(&mut scratch.shadow_cells);
    shadow_cells.clear();
    let mut st = State {
        program,
        db,
        delta,
        guard,
        enc,
        key_buf: std::mem::take(&mut scratch.key_buf),
        app: 0,
        args_buf: std::mem::take(&mut scratch.args_buf),
        choice_bufs: std::mem::take(&mut scratch.choice_bufs),
        out,
        probes: 0,
        scans: 0,
        suppressed: 0,
        shadow_cells,
        lat_hit_id: NO_ID,
        fault: None,
    };
    let before = st.out.len;
    step(plan, 0, &mut st);
    let rows = st.out.len - before;
    if rows > 0 {
        st.out.runs.push(Heads {
            rule: rule as u32,
            pred: plan.head_pred,
            rows,
            premise_words: plan.premises.as_ref().map_or(0, |t| t.len() as u32),
        });
    }
    counters.probes += st.probes;
    counters.scans += st.scans;
    counters.suppressed += st.suppressed;
    let State {
        enc,
        key_buf,
        args_buf,
        choice_bufs,
        shadow_cells,
        fault,
        ..
    } = st;
    scratch.enc = enc;
    scratch.key_buf = key_buf;
    scratch.args_buf = args_buf;
    scratch.choice_bufs = choice_bufs;
    scratch.shadow_cells = shadow_cells;
    match fault {
        None => Ok(()),
        Some(fault) => Err(fault),
    }
}

/// Fills the key buffer from `key`. A round-local word in it equals no
/// stored slot, so a lookup or probe with it finds nothing.
fn build_key(key: &[KeySrc], st: &mut State<'_, '_>) {
    st.key_buf.clear();
    for src in key {
        let word = match src {
            KeySrc::Lit(enc) => *enc,
            KeySrc::Slot(s) => st.enc[*s],
        };
        st.key_buf.push(word);
    }
}

/// Fills the key buffer with a word form's arguments: `false` when one of
/// them is round-local, which no word form reads — the boxed form runs
/// instead. A task that numbered no value checks no word.
fn word_args(words: &[KeySrc], st: &mut State<'_, '_>) -> bool {
    build_key(words, st);
    st.out.locals.is_empty() || !st.key_buf.iter().any(|&word| is_local(word))
}

/// Applies the per-row ops against stored row `id` of `cols` — a
/// relation's tuples or a lattice predicate's keys.
fn ops_match(ops: &[RowOp], cols: &Columns, id: u32, st: &mut State<'_, '_>) -> bool {
    for op in ops {
        match op {
            RowOp::CheckLit { col, enc } => {
                if cols.col(*col)[id as usize] != *enc {
                    return false;
                }
            }
            RowOp::CheckSlot { col, slot } => {
                if cols.col(*col)[id as usize] != st.enc[*slot] {
                    return false;
                }
            }
            RowOp::Bind { col, slot } => st.enc[*slot] = cols.col(*col)[id as usize],
        }
    }
    true
}

/// Matches a cell value per `val` and recurses into the next step. This
/// is the ground-instance semantics of §3.2: the atom `P(k̄, v)` is true
/// when `v ⊑ cell(k̄)`. An unbound variable binds to the cell value (the
/// greatest witness); a variable already bound to `w` rebinds to
/// `w ⊓ cell` — the greatest element witnessing *both* occurrences, per
/// the paper's `R(x) :- A(x), B(x)` example, whose minimal model holds
/// `R(Odd ⊓ Even) = R(⊥)`. A `⊥` witness is dropped: every head derived
/// from it through strict functions is `⊥`, which the database never
/// stores.
fn apply_val(
    plan: &Plan,
    next: usize,
    val: &ValSpec,
    cell: u64,
    lat: &LatticeData,
    st: &mut State<'_, '_>,
) {
    let spill = st.db.spill();
    match *val {
        ValSpec::Wild => step(plan, next, st),
        ValSpec::Lit(l) => match lat.leq(l, cell, spill) {
            Ok(true) => step(plan, next, st),
            Ok(false) => {}
            Err(p) => st.fail(p),
        },
        ValSpec::Bind { slot, by_value } => {
            st.enc[slot] = match by_value {
                false => cell,
                true => st.out.locals.word(None, lat.decode(cell, spill), spill),
            };
            step(plan, next, st);
        }
        ValSpec::Meet { slot, by_value } => {
            let bound = st.enc[slot];
            let met = match meet(lat, bound, cell, by_value, st) {
                Ok(Some(met)) => met,
                Ok(None) => return,
                Err(p) => {
                    st.fail(p);
                    return;
                }
            };
            if met != bound {
                st.enc[slot] = met;
                step(plan, next, st);
                // Restore: sibling rows of the enclosing scan must see
                // the pre-meet binding.
                st.enc[slot] = bound;
            } else {
                step(plan, next, st);
            }
        }
    }
}

/// `w ⊓ cell` for a register's word `w`, as a word of the register's:
/// `None` for `⊥`. By value, the closures meet the decoded register and
/// cell, and the register takes the answer's slot.
fn meet(
    lat: &LatticeData,
    w: u64,
    cell: u64,
    by_value: bool,
    st: &mut State<'_, '_>,
) -> Result<Option<u64>, OpsPanic> {
    let (locals, spill) = (&mut st.out.locals, st.db.spill());
    if !by_value {
        let met = lat.glb(w, cell, spill, locals)?;
        return Ok((!lat.is_bottom(met)).then_some(met));
    }
    let ops = lat.ops();
    let met = ops.try_glb(&locals.value(w, spill), &lat.decode(cell, spill))?;
    Ok((!ops.is_bottom(&met)).then(|| locals.word(None, met, spill)))
}

fn arg_value(arg: &ArgSrc, st: &State<'_, '_>) -> Value {
    let spill = st.db.spill();
    match arg {
        ArgSrc::Lit(v) => v.clone(),
        ArgSrc::Slot(s) => st.out.locals.value(st.enc[*s], spill),
        ArgSrc::Kind(s, elems) => elems.decode(st.enc[*s], spill),
    }
}

/// Invokes a user function with panic isolation: a caught panic becomes
/// the execution's fault, naming the function.
fn call_fn(func: usize, vals: &[Value], st: &mut State<'_, '_>) -> Option<Value> {
    let fdef = &st.program.funcs[func];
    match catch_unwind(AssertUnwindSafe(|| (fdef.body)(vals))) {
        Ok(v) => Some(v),
        Err(payload) => {
            st.fail(EvalFault::Panic {
                function: fdef.name.to_string(),
                payload: panic_payload(payload),
            });
            None
        }
    }
}

/// Runs `call`'s word form, when the plan compiled one and no argument is
/// round-local, under the same panic isolation as [`call_fn`]. `None`
/// when it does not run — or it panicked: then the fault is recorded.
fn call_word(call: &Call, st: &mut State<'_, '_>) -> Option<u64> {
    let words = call.words.as_ref()?;
    if !word_args(words, st) {
        return None;
    }
    let fdef = &st.program.funcs[call.func];
    let form = fdef.word.as_ref().expect("compiled against a word form");
    match catch_unwind(AssertUnwindSafe(|| (form.body)(&st.key_buf))) {
        Ok(word) => Some(word),
        Err(payload) => {
            st.fail(EvalFault::Panic {
                function: fdef.name.to_string(),
                payload: panic_payload(payload),
            });
            None
        }
    }
}

/// Runs `call`'s boxed form: decodes the arguments and calls the closure.
fn call_boxed(call: &Call, st: &mut State<'_, '_>) -> Option<Value> {
    let mut vals = std::mem::take(&mut st.args_buf);
    vals.clear();
    for a in &call.args {
        vals.push(arg_value(a, st));
    }
    let result = call_fn(call.func, &vals, st);
    st.args_buf = vals;
    result
}

/// Computes the head's function application — program validation admits
/// one, as the last head term — once into `st.app`: the word form's word
/// when it answers with a word its column takes, otherwise the word of
/// the boxed form's value, round-local where the store has none. Returns
/// `false` when one panicked (fault recorded). Always runs before the
/// subsumption pre-check so a panicking transfer function fires whether
/// or not its result would have been stored.
fn compute_apps(plan: &Plan, st: &mut State<'_, '_>) -> bool {
    let Some(HeadSrc::App(call)) = plan.head.last() else {
        return true;
    };
    // The application is the value column of a lattice head, or a key
    // column.
    let words = plan
        .cell
        .as_ref()
        .filter(|_| plan.head.len() > plan.key_cols);
    if let Some(word) = call_word(call, st) {
        let spill = st.db.spill();
        let holds = match words {
            Some(elems) => elems.holds(word, spill),
            None => is_slot(word, spill),
        };
        if holds {
            st.app = word;
            return true;
        }
    }
    if st.fault.is_some() {
        return false;
    }
    let value = call_boxed(call, st).filter(|value| within_depth(value, call.func, st));
    let Some(value) = value else {
        return false;
    };
    st.app = st.out.locals.word(words, value, st.db.spill());
    true
}

/// Whether a value user code handed the plan nests no deeper than
/// [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH); otherwise the fault is
/// recorded, naming the function.
fn within_depth(value: &Value, func: usize, st: &mut State<'_, '_>) -> bool {
    if !value.is_too_deep() {
        return true;
    }
    let function = st.program.funcs[func].name.to_string();
    st.fail(EvalFault::Safety(Violation::ValueTooDeep { function }));
    false
}

/// The word head column `h` takes in a column of `words` (`None`: a key
/// column): a key column its value's slot, a lattice's value column its
/// element's word — round-local for a value the store has never seen.
fn head_word(h: &HeadSrc, words: Option<&KindWords>, st: &mut State<'_, '_>) -> u64 {
    match h {
        HeadSrc::Lit(word) => *word,
        HeadSrc::Word(s) => st.enc[*s],
        HeadSrc::Var(arg) => {
            let value = arg_value(arg, st);
            st.out.locals.word(words, value, st.db.spill())
        }
        HeadSrc::App(_) => st.app,
    }
}

/// Encodes the key columns of the head, `srcs`, into the key buffer.
fn build_head_key(srcs: &[HeadSrc], st: &mut State<'_, '_>) {
    st.key_buf.clear();
    for h in srcs {
        let word = head_word(h, None, st);
        st.key_buf.push(word);
    }
}

/// Would joining the current lattice candidate — its encoded key already
/// in the key buffer, its element's word `word` — leave the database
/// unchanged? Mirrors the insert against the evaluation-time snapshot — a
/// candidate `⊑` its stored cell — plus the plan-local shadow of what
/// this execution has already emitted for the cell, which catches
/// within-round repeats. Conservative on every edge (missing cell, a
/// `leq`/`lub` that errs or answers what has no word yet): answer `false`
/// and let the real insert decide — inserts are monotone within a round,
/// so a candidate subsumed now stays subsumed.
fn is_subsumed(plan: &Plan, word: u64, st: &mut State<'_, '_>) -> bool {
    let db = st.db;
    let PredData::Lat(lat) = db.pred(plan.head_pred) else {
        unreachable!("the pre-check is compiled for lattice heads only");
    };
    // The shadow cell is what this cell is at least going to hold by the
    // time the insert loop reaches the current candidate; it starts as
    // the stored cell and absorbs every candidate this execution lets
    // through. Checking it first makes the steady state one map probe
    // and one `leq` per candidate. Every `leq`/`lub` error leaves the
    // shadow untouched and lets the candidate flow, so the real insert
    // reproduces the fault with proper attribution.
    let spill = db.spill();
    let Some(skey) = shadow_key(&st.key_buf) else {
        // Key too wide for the inline shadow: frozen-cell check only.
        let Some(id) = lat.id_of_encoded(&st.key_buf) else {
            return false;
        };
        st.lat_hit_id = id;
        return matches!(lat.leq(word, lat.cell(id), spill), Ok(true));
    };
    if let Some((id, shadow)) = st.shadow_cells.get_mut(&skey) {
        st.lat_hit_id = *id;
        return match lat.leq(word, *shadow, spill) {
            Ok(true) => true,
            Ok(false) => {
                if let Ok(Some(joined)) = lat.lub(*shadow, word, spill) {
                    *shadow = joined;
                }
                false
            }
            Err(_) => false,
        };
    }
    // First sighting of this cell: seed the shadow from the stored cell
    // (or the candidate itself when there is none).
    let hit = lat.id_of_encoded(&st.key_buf);
    match hit.map(|id| (id, lat.cell(id))) {
        Some((id, cell)) => {
            st.lat_hit_id = id;
            match lat.leq(word, cell, spill) {
                Ok(true) => {
                    st.shadow_cells.insert(skey, (id, cell));
                    true
                }
                Ok(false) => {
                    if let Ok(Some(joined)) = lat.lub(cell, word, spill) {
                        st.shadow_cells.insert(skey, (id, joined));
                    }
                    false
                }
                Err(_) => false,
            }
        }
        None => {
            st.shadow_cells.insert(skey, (NO_ID, word));
            false
        }
    }
}

fn emit(plan: &Plan, st: &mut State<'_, '_>) {
    if !compute_apps(plan, st) {
        return;
    }
    st.lat_hit_id = NO_ID;
    // The head's encoded columns are built once: the lattice pre-check
    // reads them, and so does the word run. A lattice's element leaves as
    // its word.
    build_head_key(&plan.head[..plan.key_cols], st);
    if let Some(elems) = &plan.cell {
        let word = head_word(&plan.head[plan.key_cols], Some(elems), st);
        // Emit-side dedup of lattice candidates: one the database already
        // subsumes would be dropped as `Unchanged` by the insert loop;
        // suppress it here instead. Counted, so `facts_derived` stays the
        // gross count. A round-local word is a value the store has never
        // seen, in no stored cell: left to the insert.
        let fresh = !st.out.locals.is_empty()
            && (is_local(word) || st.key_buf.iter().any(|&w| is_local(w)));
        if plan.precheck && !fresh && is_subsumed(plan, word, st) {
            st.suppressed += 1;
            return;
        }
        st.out.cell_ids.push(st.lat_hit_id);
        st.out.words.extend_from_slice(&st.key_buf);
        st.out.words.push(word);
    } else {
        st.out.words.extend_from_slice(&st.key_buf);
    }
    if let Some(template) = &plan.premises {
        copy_premises(template, st);
    }
    st.out.len += 1;
}

/// Fills a plan's premise template in from the registers — glb-rebound
/// lattice witnesses included — at the end of the arena: one word per
/// template entry. A round-local word there is interned by the round's
/// absorb before it logs the derivation.
fn copy_premises(template: &[PremiseSrc], st: &mut State<'_, '_>) {
    for src in template {
        let word = match src {
            PremiseSrc::Word(word) => *word,
            PremiseSrc::Slot(slot) => st.enc[*slot],
            PremiseSrc::Var(arg, elems) => {
                let value = arg_value(arg, st);
                st.out.locals.word(Some(elems), value, st.db.spill())
            }
        };
        st.out.premise_words.push(word);
    }
}

/// Does `cell` satisfy the value column of a negated lattice atom? The
/// existence-only form of [`apply_val`]: nothing is rebound.
fn val_holds(
    val: &ValSpec,
    cell: u64,
    lat: &LatticeData,
    st: &mut State<'_, '_>,
) -> Result<bool, OpsPanic> {
    match *val {
        ValSpec::Wild => Ok(true),
        ValSpec::Lit(l) => lat.leq(l, cell, st.db.spill()),
        ValSpec::Meet { slot, by_value } => {
            Ok(meet(lat, st.enc[slot], cell, by_value, st)?.is_some())
        }
        ValSpec::Bind { .. } => unreachable!("negated atoms bind nothing"),
    }
}

/// What a value spec is matched against in stored row `id` — `None` for
/// `Wild`, which needs no cell: every relational atom, whose predicate
/// has no value column, and a lattice atom that ignores it.
#[inline(always)]
fn cell_for<'a>(val: &ValSpec, data: &'a PredData, id: u32) -> Option<(u64, &'a LatticeData)> {
    match (val, data) {
        (ValSpec::Wild, _) => None,
        (_, PredData::Lat(lat)) => Some((lat.cell(id), lat)),
        (_, PredData::Rel(_)) => unreachable!("compiled against predicate kinds"),
    }
}

/// Hands `visit` the stored rows of `pred` that `access` reaches and `ops`
/// match, in iteration order — insertion order for a scan, a probe's hits
/// and `∆` alike — with the value a `∆` row carries; `visit` returns
/// whether to go on. The one place the work counters are charged.
/// Inlined with its visitor, so each access form is a loop of its own
/// around the step that follows, as if written out per form.
#[inline(always)]
fn for_each_row<'a, 'o>(
    pred: PredId,
    access: &Access,
    ops: &[RowOp],
    st: &mut State<'a, 'o>,
    mut visit: impl FnMut(&mut State<'a, 'o>, &'a PredData, u32, Option<u64>) -> bool,
) {
    let data = st.db.pred(pred);
    let cols = data.columns();
    match access {
        Access::Ground(key) => {
            // A membership test, not an index probe: nothing counted. A
            // round-local key component was never stored: no row.
            build_key(key, st);
            let id = cols.id_of_encoded(&st.key_buf);
            if let Some(id) = id.filter(|&id| ops_match(ops, cols, id, st)) {
                visit(st, data, id, None);
            }
        }
        Access::Probe { index, key } => {
            // Counted whether or not it hits — a round-local key
            // component hits nothing.
            st.probes += 1;
            build_key(key, st);
            for &id in cols.probe_encoded(*index, &st.key_buf) {
                if ops_match(ops, cols, id, st) && !visit(st, data, id, None) {
                    return;
                }
            }
        }
        Access::Scan { count } => {
            st.scans += *count as u64;
            for id in 0..cols.len() as u32 {
                if ops_match(ops, cols, id, st) && !visit(st, data, id, None) {
                    return;
                }
            }
        }
        Access::Delta => {
            let rows = &st.delta[pred.0 as usize];
            for (n, &id) in rows.ids.iter().enumerate() {
                // The value this change reached; a seed `∆` carries none
                // and the cell is read as stored.
                if ops_match(ops, cols, id, st) && !visit(st, data, id, rows.values.get(n).copied())
                {
                    return;
                }
            }
        }
    }
}

fn step(plan: &Plan, i: usize, st: &mut State<'_, '_>) {
    if st.fault.is_some() {
        return;
    }
    if let Err(kind) = st.guard.poll() {
        st.fail(EvalFault::Budget(kind));
        return;
    }
    let Some(s) = plan.steps.get(i) else {
        emit(plan, st);
        return;
    };
    match s {
        Step::Atom {
            pred,
            access,
            ops,
            val,
        } => for_each_row(
            *pred,
            access,
            ops,
            st,
            #[inline(always)]
            |st, data, id, reached| {
                // A matched row continues the sub-join: straight on, or
                // through the cell its value column is matched against.
                match cell_for(val, data, id) {
                    None => step(plan, i + 1, st),
                    Some((cell, lat)) => {
                        let cell = reached.unwrap_or(cell);
                        apply_val(plan, i + 1, val, cell, lat, st)
                    }
                }
                st.fault.is_none()
            },
        ),
        Step::Filter(call) => {
            // The word form answers with a boolean; anything else — or no
            // word form — and the boxed form decides.
            match call_word(call, st) {
                Some(WORD_TRUE) => return step(plan, i + 1, st),
                Some(WORD_FALSE) => return,
                _ if st.fault.is_some() => return,
                _ => {}
            }
            let mut vals = std::mem::take(&mut st.args_buf);
            vals.clear();
            for a in &call.args {
                vals.push(arg_value(a, st));
            }
            let result = call_fn(call.func, &vals, st);
            match result {
                None => st.args_buf = vals,
                Some(Value::Bool(true)) => {
                    // Restore the buffer before recursing — a nested emit
                    // reuses it for its own argument lists.
                    st.args_buf = vals;
                    step(plan, i + 1, st);
                }
                Some(Value::Bool(false)) => st.args_buf = vals,
                Some(other) => st.fail(EvalFault::Safety(Violation::FilterNotBoolean(vals, other))),
            }
        }
        Step::Neg {
            pred,
            access,
            ops,
            val,
        } => {
            // Does any stored fact match? The first that does ends the
            // search, and so does a lattice operation that panics.
            let mut exists = Ok(false);
            for_each_row(
                *pred,
                access,
                ops,
                st,
                #[inline(always)]
                |st, data, id, _| {
                    exists = match cell_for(val, data, id) {
                        None => Ok(true),
                        Some((cell, lat)) => val_holds(val, cell, lat, st),
                    };
                    matches!(exists, Ok(false))
                },
            );
            match exists {
                Ok(false) => step(plan, i + 1, st),
                Ok(true) => {}
                Err(p) => st.fail(p),
            }
        }
        Step::Choose { call, binds } => {
            // The choice form, on slots; with a round-local argument, or
            // none compiled, the boxed form.
            match &call.words {
                Some(words) if word_args(words, st) => choose_words(plan, i, call.func, binds, st),
                _ => choose_boxed(plan, i, call, binds, st),
            }
        }
        Step::HeadSeed { binds, seeds } => {
            for seed in seeds {
                if st.fault.is_some() {
                    return;
                }
                for (&slot, &enc) in binds.iter().zip(seed.iter()) {
                    st.enc[slot] = enc;
                }
                step(plan, i + 1, st);
            }
        }
    }
}

/// A choice step on slots: calls the choice form on the arguments in the
/// key buffer, under the same panic isolation as the boxed one, then runs
/// the sub-join once per element — `binds.len()` slots — it wrote.
fn choose_words(
    plan: &Plan,
    i: usize,
    func: usize,
    binds: &[(usize, bool)],
    st: &mut State<'_, '_>,
) {
    let fdef = &st.program.funcs[func];
    let form = fdef
        .choice
        .as_ref()
        .expect("compiled against a choice form");
    let mut elems = st.choice_bufs.pop().unwrap_or_default();
    elems.clear();
    let called = catch_unwind(AssertUnwindSafe(|| (form.body)(&st.key_buf, &mut elems)));
    // What the binds take must be slots: a choice form that answers
    // otherwise is malformed, not declined.
    let spill = st.db.spill();
    let malformed = match called {
        Err(payload) => {
            st.fail(EvalFault::Panic {
                function: fdef.name.to_string(),
                payload: panic_payload(payload),
            });
            None
        }
        Ok(()) if !elems.len().is_multiple_of(binds.len()) => Some(format!(
            "wrote {} words, not a multiple of its width {}",
            elems.len(),
            binds.len()
        )),
        Ok(()) => elems
            .iter()
            .find(|&&word| !is_slot(word, spill))
            .map(|word| format!("wrote {word:#x}, which is not a slot")),
    };
    if let Some(found) = malformed {
        st.fail(EvalFault::Safety(Violation::ChoiceWordMalformed {
            function: fdef.name.to_string(),
            found,
        }));
    }
    for elem in elems.chunks_exact(binds.len()) {
        if st.fault.is_some() {
            break;
        }
        if bind_chosen(binds, elem.iter().copied(), st) {
            step(plan, i + 1, st);
        }
    }
    st.choice_bufs.push(elems);
}

/// Writes a chosen element's words to the choice's `binds`: a bound
/// component is a membership test (of words, which are equal when their
/// values are), in whatever order the body runs; an unbound one binds.
/// Nothing bound is overwritten, so there is nothing to put back.
/// Whether the element is a member.
fn bind_chosen(
    binds: &[(usize, bool)],
    words: impl Iterator<Item = u64>,
    st: &mut State<'_, '_>,
) -> bool {
    for (&(b, bound), word) in binds.iter().zip(words) {
        if !bound {
            st.enc[b] = word;
        } else if st.enc[b] != word {
            return false;
        }
    }
    true
}

/// A choice step on values: calls the boxed form and runs the sub-join
/// once per element of the set it returns, its components' words — slots,
/// or round-local words — in the bind registers.
fn choose_boxed(
    plan: &Plan,
    i: usize,
    call: &Call,
    binds: &[(usize, bool)],
    st: &mut State<'_, '_>,
) {
    let vals: Vec<Value> = call.args.iter().map(|a| arg_value(a, st)).collect();
    let Some(result) = call_fn(call.func, &vals, st) else {
        return;
    };
    let Value::Set(elems) = &result else {
        st.fail(EvalFault::Safety(Violation::ChoiceMalformed(vals, result)));
        return;
    };
    let mut words = Vec::with_capacity(binds.len());
    for elem in elems.iter() {
        if st.fault.is_some() {
            break;
        }
        let items = match elem.as_tuple() {
            _ if binds.len() == 1 => std::slice::from_ref(elem),
            Some(items) if items.len() == binds.len() => items,
            _ => {
                let malformed = Violation::ChoiceMalformed(vals.clone(), elem.clone());
                st.fail(EvalFault::Safety(malformed));
                break;
            }
        };
        if !items.iter().all(|item| within_depth(item, call.func, st)) {
            break;
        }
        words.clear();
        for item in items {
            let word = st.out.locals.word(None, item.clone(), st.db.spill());
            words.push(word);
        }
        if bind_chosen(binds, words.iter().copied(), st) {
            step(plan, i + 1, st);
        }
    }
}
