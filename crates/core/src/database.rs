//! The indexed fact database, stored columnar.
//!
//! Relations and lattice keys are stored struct-of-arrays: one `Vec<u64>`
//! of *encoded* slots per column, where a slot packs small values inline
//! (unit, booleans, up-to-61-bit integers, and constructors applied to
//! one of the first three) and spills everything else (strings, wider
//! tags, tuples, sets, huge integers) into a per-database deduplicated
//! side-table, the store's one string table too ([`SpillTable`]). Encoded
//! equality is value equality, so membership tests, index probes, and
//! join keys compare single machine words instead of walking boxed
//! [`Value`] trees.
//!
//! The store keeps words only. The borrowed `&[Value]` view the public
//! iterators, the model checker, and the persistence layer read is a
//! flat row-major arena of decoded [`Value`]s per predicate, built by the
//! first such read after a change and dropped by the next change
//! ([`Columns::row`]); nothing on the insert path decodes, and no reader
//! during a solve builds it. Membership is a [`RowSet`]: an
//! open-addressing set of `u32` row ids, each beside a 32-bit tag of its
//! row's hash, whose equality reads the encoded columns, so a row is
//! stored once and *referenced* by the set — not duplicated into it. An
//! index is the same set over groups of row ids ([`Index`]): no key is
//! stored beside the columns either. Row ids are also how a change is
//! reported ([`InsertOutcome`]) and how the solver holds a semi-naïve
//! `∆`: nothing outside the store copies a tuple.
//!
//! Each kind has one insertion body that takes *encoded* slots
//! ([`RelationData::insert_encoded`], [`LatticeData::join_inner`]), which
//! is what the evaluator's plans hand over; the decoded entries — asserted
//! facts, snapshot loads — encode on the write path and call the same
//! body. A value a plan computed that the store has no slot for yet
//! leaves it as a *round-local* word ([`Locals`]), which the round's
//! absorb interns in place ([`Database::intern`]) before the insert: no
//! round-local word is ever stored. Both grow the shared [`Columns`]
//! store in one place, [`Columns::append`], after one walk of the row set
//! that either finds the tuple or ends on the slot it takes. A row is in
//! its row set at once and in an index when that index catches up
//! ([`Columns::catch_up`]): the round whose plans probe the index files
//! the rows it lacks, in id order, before the plans run, so an index no
//! later round probes is never kept up.
//!
//! A row also leaves in one place, [`Columns::remove`] — a swap-remove:
//! the predicate's last row moves into the hole in every encoded column
//! (a lattice cell's value and ascent counters with it), the row set
//! deletes by backward shift, so there are no tombstones for a lookup to
//! step over, and each index drops the id from its group and files the
//! moved row under it. Ids stay dense and every reader —
//! lookups, probes, scans, the iterators — works as on a store that only
//! ever grew; what changes is that an id is stable only between removals.
//! The one caller, a retracting resume, removes before it evaluates
//! anything (`Run::delete` in `solver.rs`), so during evaluation ids are
//! append-only as they always were. What a removal does not give back:
//! the spill table's entries (append-only, which is what keeps encodings
//! taken before a removal valid after it) and the capacity of the hash
//! tables; a snapshot reload rebuilds both.
//!
//! `lat` predicates are stored as *compact* cell maps from key tuples
//! (the first `n-1` columns, §3.2's cell partition) to a single lattice
//! element, so the per-cell least-upper-bound compaction of the immediate
//! consequence operator is a constant-time map update. Every cell value
//! is one *word* ([`KindWords`]): a lattice that declares a built-in kind
//! ([`crate::LatticeKind`]) has words its operations read directly, and
//! every other lattice has its elements' own slots, which its word forms
//! read or — where it has none, or they decline — its closures read
//! decoded. Cells are decoded only for the public reads
//! ([`LatticeData::decoded`]).

use crate::ast::PredKind;
use crate::fxhash::{hash_slots, hash_words, FxHashMap};
use crate::ops::{OpsPanic, SlotForms};
use crate::program::Program;
use crate::verify::Violation;
use crate::{LatticeKind, LatticeOps, PredId, Value};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Why an insert failed: the user's lattice operations either panicked or
/// were caught violating a lattice law by the runtime sentinels (§7).
#[derive(Clone, Debug)]
pub(crate) enum InsertFault {
    /// A `leq`/`lub` closure panicked.
    Panic(OpsPanic),
    /// A runtime safety sentinel tripped.
    Safety(Violation),
}

impl From<OpsPanic> for InsertFault {
    fn from(p: OpsPanic) -> InsertFault {
        InsertFault::Panic(p)
    }
}

/// Outcome of inserting one derived fact. A change names the row it
/// made or raised by id: the store holds the tuple, and whoever needs it
/// decoded reads it there ([`Columns::row`], [`LatticeData::cell`]); the
/// provenance log copies the row's encoded slots ([`Columns::slots`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// The fact was already present (or was a lattice `⊥`): no change.
    Unchanged,
    /// A new relational tuple was added, as this row.
    NewRow(u32),
    /// The lattice cell with this id strictly increased (or was created);
    /// carries the *new* cell value's word — with the cell's key, exactly
    /// the paper's `∆P` element `ga(P', S)` (§3.7).
    LatIncrease(u32, u64),
}

impl InsertOutcome {
    /// The change made, if any: the row or cell id, and for a raised
    /// cell the value it reached.
    pub(crate) fn into_change(self) -> Option<(u32, Option<u64>)> {
        match self {
            InsertOutcome::Unchanged => None,
            InsertOutcome::NewRow(id) => Some((id, None)),
            InsertOutcome::LatIncrease(id, value) => Some((id, Some(value))),
        }
    }

    fn of_row(new: Option<u32>) -> InsertOutcome {
        new.map_or(InsertOutcome::Unchanged, InsertOutcome::NewRow)
    }

    fn of_cell(raised: Option<(u32, u64)>) -> InsertOutcome {
        raised.map_or(InsertOutcome::Unchanged, |(id, value)| {
            InsertOutcome::LatIncrease(id, value)
        })
    }
}

// ---------------------------------------------------------------------------
// Slot encoding
// ---------------------------------------------------------------------------

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_UNIT: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_SPILL: u64 = 4;
/// A constructor slot: a `Value::Tag` whose payload has an inline slot
/// of one of the first three tags, and whose constructor's name has a
/// small id — its index in the spill table. The payload's slot sits in
/// the low [`CTOR_INNER_BITS`] bits, sign-extended on decode; the bits
/// above hold the id plus one.
const TAG_CTOR: u64 = 5;
/// The tag of a round-local word ([`Locals`]): a value the store has no
/// slot for yet, numbered by the round that computed it.
const TAG_LOCAL: u64 = 6;
/// The tag and the top bit a round-local word carries: no slot has the
/// tag, and no predicate id in a premise run ([`crate::provenance`]) has
/// the bit, so a word of a run is round-local by its bits alone.
const LOCAL: u64 = 1 << 63 | TAG_LOCAL;
/// The tag no value encodes to: the reserved words of a lattice of a
/// built-in kind ([`KindWords`]).
const TAG_KIND: u64 = 7;

/// A word no value encodes to, for the provenance log
/// ([`crate::provenance`]): a premise's lattice value column that matched
/// without binding. It is never stored in a [`Columns`]. It carries the
/// constructor tag with a zero payload, which no constructor slot has:
/// its constructor field is never zero.
pub(crate) const SLOT_WILDCARD: u64 = 5;

/// Width of a constructor slot's payload field ([`TAG_CTOR`]): payload
/// integers in `[-2³³, 2³³)` fit it.
const CTOR_INNER_BITS: u32 = 37;
/// Constructor name ids below this have a constructor slot; the
/// constructor field holds the id plus one in the 24 bits left.
const CTOR_ID_LIMIT: u32 = (1 << (61 - CTOR_INNER_BITS)) - 1;
const CTOR_INT_MIN: i64 = -(1 << 33);
const CTOR_INT_MAX: i64 = (1 << 33) - 1;

/// The word of ⊥ in a lattice of the flat kind ([`LatticeKind::Flat`]):
/// a word no value's slot equals.
pub const FLAT_BOTTOM: u64 = pack(TAG_KIND, 0);
/// The word of ⊤ in a lattice of the flat kind ([`LatticeKind::Flat`]).
pub const FLAT_TOP: u64 = pack(TAG_KIND, 1);
/// The word of ⊥ in a lattice of the chain kind ([`LatticeKind::Chain`]):
/// a word no value's slot equals, above the slot of every non-negative
/// integer, so that the chain's order is the reverse order of the words.
pub const CHAIN_BOTTOM: u64 = u64::MAX;
/// The word of ⊤ in a lattice of the chain kind: `tag(0)`, the slot of 0.
const CHAIN_TOP: u64 = pack(TAG_INT, 0);
/// The slot of `Value::Bool(false)`: what a word-form filter returns to
/// reject ([`crate::ProgramBuilder::word_form`]).
pub const WORD_FALSE: u64 = pack(TAG_BOOL, 0);
/// The slot of `Value::Bool(true)`: what a word-form filter returns to
/// accept.
pub const WORD_TRUE: u64 = pack(TAG_BOOL, 1);

/// Integers representable inline in a slot: 61 bits, sign-extended on
/// decode. Anything outside spills.
const INT_INLINE_MIN: i64 = -(1 << 60);
const INT_INLINE_MAX: i64 = (1 << 60) - 1;

/// The slot of `Value::Int(n)`, for a word form to read or write: `None`
/// when `n` is too wide to be held inline (such an integer is spilled,
/// and its slot is the store's to give).
#[inline]
pub const fn slot_of_int(n: i64) -> Option<u64> {
    if n >= INT_INLINE_MIN && n <= INT_INLINE_MAX {
        Some(pack(TAG_INT, n as u64))
    } else {
        None
    }
}

/// The integer whose inline slot is `slot` — the inverse of
/// [`slot_of_int`]; `None` for the slot of anything else.
#[inline]
pub const fn int_of_slot(slot: u64) -> Option<i64> {
    if slot & TAG_MASK == TAG_INT {
        Some((slot as i64) >> TAG_BITS)
    } else {
        None
    }
}

#[inline]
const fn pack(tag: u64, payload: u64) -> u64 {
    (payload << TAG_BITS) | tag
}

/// The slot of `Value::Tag(c, v)`, for a word form to write, where `ctor`
/// is the id of `c` among the program's [`Names`] and `payload` the slot
/// of `v`: `None` when that value has no constructor slot — its payload
/// is not a unit, boolean or integer in `[-2³³, 2³³)`, or its
/// constructor's id is too large — and the store spills it.
#[inline]
pub const fn slot_of_ctor(ctor: u32, payload: u64) -> Option<u64> {
    const SHIFT: u32 = 64 - CTOR_INNER_BITS;
    let inline = payload & TAG_MASK <= TAG_INT;
    let fits = (((payload << SHIFT) as i64) >> SHIFT) as u64 == payload;
    if inline && fits && ctor < CTOR_ID_LIMIT {
        let field =
            ((ctor as u64 + 1) << CTOR_INNER_BITS) | (payload & ((1 << CTOR_INNER_BITS) - 1));
        Some(pack(TAG_CTOR, field))
    } else {
        None
    }
}

/// The constructor's name id and the payload's slot of a constructor
/// slot — the inverse of [`slot_of_ctor`]; `None` for the slot of
/// anything else (a spilled `Value::Tag` included).
#[inline]
pub const fn ctor_of_slot(slot: u64) -> Option<(u32, u64)> {
    const SHIFT: u32 = 64 - CTOR_INNER_BITS;
    let field = slot >> TAG_BITS;
    let ctor = field >> CTOR_INNER_BITS;
    if slot & TAG_MASK != TAG_CTOR || ctor == 0 {
        return None;
    }
    Some((
        (ctor - 1) as u32,
        (((field << SHIFT) as i64) >> SHIFT) as u64,
    ))
}

/// Whether a `Value::Tag` with this payload may have a constructor slot:
/// whether the payload's slot is inline and fits the payload field.
#[inline]
fn ctor_fits(payload: &Value) -> bool {
    match payload {
        Value::Unit | Value::Bool(_) => true,
        Value::Int(n) => (CTOR_INT_MIN..=CTOR_INT_MAX).contains(n),
        _ => false,
    }
}

/// The strings a program gives fixed ids: the constructor names and
/// string literals its word code bakes in ([`slot_of_ctor`]), and, once
/// the program is built, its lattices' ⊥s. Every store of the program
/// starts its spill table as a copy of this one, so a name's id — its
/// index there — and ⊥'s slot are the same in each of them, and word
/// code needs no store at hand to build or test a slot
/// ([`ProgramBuilder::names`](crate::ProgramBuilder::names)).
#[derive(Clone, Debug, Default)]
pub struct Names(SpillTable);

impl Names {
    /// The id of `name`, registering it when it is new, and the one
    /// allocation every store of the program decodes it to.
    pub fn intern(&mut self, name: &str) -> (u32, Arc<str>) {
        let id = self
            .0
            .lookup_str(name)
            .unwrap_or_else(|| self.0.intern_str(&Arc::from(name)));
        (id, Arc::clone(self.0.name(id)))
    }

    /// The slot `v` has in every store of a program with these names —
    /// unit, a boolean, an integer of 61 bits, a registered string or ⊥,
    /// or a constructor slot of a registered name — so that word code may
    /// take it as a constant: `None` when its slot is a store's to give.
    pub fn slot(&self, v: &Value) -> Option<u64> {
        try_encode(v, &self.0)
    }

    /// Fixes the slot of `v` — a lattice's ⊥ — in every store of the
    /// program ([`KindWords::of`]).
    pub(crate) fn intern_value(&mut self, v: &Value) {
        encode_mut(v, &mut self.0);
    }

    /// The table every store of the program starts from.
    pub(crate) fn table(&self) -> &SpillTable {
        &self.0
    }

    /// Whether every id `earlier` gave means the same string here.
    pub(crate) fn extends(&self, earlier: &Names) -> bool {
        let (ours, theirs) = (&self.0.values, &earlier.0.values);
        ours.len() >= theirs.len() && ours.iter().zip(theirs).all(|(a, b)| a == b)
    }
}

/// The per-store side-table for values a slot cannot hold inline, and
/// the store's one string table: a string is a spilled value, and a
/// constructor slot's name id is the index of its name here. Append-only
/// and deduplicated, so indices are canonical: two equal values encode to
/// the same slot, which is what makes encoded equality value equality.
#[derive(Clone, Debug, Default)]
pub(crate) struct SpillTable {
    values: Vec<Value>,
    /// Every value but the strings, by content.
    dedup: FxHashMap<Value, u32>,
    /// The strings, by content: found from a `&str`, with no `Value` built.
    strings: FxHashMap<Arc<str>, u32>,
}

impl SpillTable {
    fn intern(&mut self, v: &Value) -> u32 {
        if let Value::Str(s) = v {
            return self.intern_str(s);
        }
        if let Some(&idx) = self.dedup.get(v) {
            return idx;
        }
        let idx = self.push(v.clone());
        self.dedup.insert(v.clone(), idx);
        idx
    }

    fn intern_str(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&idx) = self.strings.get(&**s) {
            return idx;
        }
        let idx = self.push(Value::Str(Arc::clone(s)));
        self.strings.insert(Arc::clone(s), idx);
        idx
    }

    fn push(&mut self, v: Value) -> u32 {
        let idx = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct spill values");
        self.values.push(v);
        idx
    }

    fn lookup(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Str(s) => self.lookup_str(s),
            _ => self.dedup.get(v).copied(),
        }
    }

    fn lookup_str(&self, s: &str) -> Option<u32> {
        self.strings.get(s).copied()
    }

    pub(crate) fn get(&self, idx: u32) -> &Value {
        &self.values[idx as usize]
    }

    /// The constructor name whose id is `id`.
    fn name(&self, id: u32) -> &Arc<str> {
        match self.get(id) {
            Value::Str(name) => name,
            other => panic!("constructor id {id} names {other}, not a string"),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// How many of the entries are strings.
    #[cfg(any(test, feature = "test-internals"))]
    pub(crate) fn strings(&self) -> usize {
        self.strings.len()
    }
}

/// Encodes `v` into a slot, interning or spilling it as needed.
/// Insert-path only: mutates the spill table.
pub(crate) fn encode_mut(v: &Value, spill: &mut SpillTable) -> u64 {
    match v {
        Value::Unit => pack(TAG_UNIT, 0),
        Value::Bool(b) => pack(TAG_BOOL, *b as u64),
        Value::Int(n) if (INT_INLINE_MIN..=INT_INLINE_MAX).contains(n) => pack(TAG_INT, *n as u64),
        Value::Tag(name, payload) if ctor_fits(payload) => {
            let payload = encode_mut(payload, spill);
            slot_of_ctor(spill.intern_str(name), payload)
                .unwrap_or_else(|| pack(TAG_SPILL, spill.intern(v) as u64))
        }
        other => pack(TAG_SPILL, spill.intern(other) as u64),
    }
}

/// Read-only encoding for probe keys and comparisons during evaluation.
/// `None` means the value is not present in the spill table — and
/// therefore cannot equal any *stored* slot, so callers treat it as
/// matching nothing.
pub(crate) fn try_encode(v: &Value, spill: &SpillTable) -> Option<u64> {
    match v {
        Value::Unit => Some(pack(TAG_UNIT, 0)),
        Value::Bool(b) => Some(pack(TAG_BOOL, *b as u64)),
        Value::Int(n) if (INT_INLINE_MIN..=INT_INLINE_MAX).contains(n) => {
            Some(pack(TAG_INT, *n as u64))
        }
        // A constructor whose name was never interned has no slot yet:
        // [`encode_mut`] interns it before it would spill such a value.
        Value::Tag(name, payload) if ctor_fits(payload) => {
            let payload = try_encode(payload, spill)?;
            match slot_of_ctor(spill.lookup_str(name)?, payload) {
                Some(slot) => Some(slot),
                None => Some(pack(TAG_SPILL, spill.lookup(v)? as u64)),
            }
        }
        other => Some(pack(TAG_SPILL, spill.lookup(other)? as u64)),
    }
}

/// [`try_encode`] for every value of `row`, into `enc` (cleared first).
/// `false` when one of them is unknown to the store: then no stored row
/// or key equals `row`.
pub(crate) fn try_encode_row(row: &[Value], spill: &SpillTable, enc: &mut Vec<u64>) -> bool {
    enc.clear();
    for v in row {
        match try_encode(v, spill) {
            Some(slot) => enc.push(slot),
            None => return false,
        }
    }
    true
}

/// Decodes a slot back into a [`Value`].
pub(crate) fn decode(slot: u64, spill: &SpillTable) -> Value {
    match slot & TAG_MASK {
        TAG_UNIT => Value::Unit,
        TAG_BOOL => Value::Bool(slot >> TAG_BITS != 0),
        TAG_INT => Value::Int((slot as i64) >> TAG_BITS),
        TAG_SPILL => spill.get((slot >> TAG_BITS) as u32).clone(),
        TAG_CTOR => {
            let (ctor, payload) = ctor_of_slot(slot).expect("a constructor slot");
            Value::Tag(
                Arc::clone(spill.name(ctor)),
                Arc::new(decode(payload, spill)),
            )
        }
        _ => unreachable!("unused slot tag"),
    }
}

/// Whether `slot` is the canonical slot of a value against `spill` — one
/// [`decode`] reads back and [`try_encode`] would give again: what a word
/// form hands back is held to this before the engine keeps it.
pub(crate) fn is_slot(slot: u64, spill: &SpillTable) -> bool {
    let payload = slot >> TAG_BITS;
    match slot & TAG_MASK {
        TAG_UNIT => payload == 0,
        TAG_BOOL => payload <= 1,
        TAG_INT => true,
        TAG_SPILL => (payload as usize) < spill.len(),
        TAG_CTOR => ctor_of_slot(slot).is_some_and(|(ctor, payload)| {
            matches!(spill.values.get(ctor as usize), Some(Value::Str(_)))
                && payload & TAG_MASK <= TAG_INT
                && is_slot(payload, spill)
        }),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Lattice elements as words
// ---------------------------------------------------------------------------

/// The words of a lattice's elements, and its operations on them: every
/// lattice's cells are words. A lattice that declares a built-in kind
/// ([`LatticeKind`]) has compares that never decode: a flat lattice's ⊥
/// and ⊤ are the two reserved words [`FLAT_BOTTOM`] and [`FLAT_TOP`], and
/// `tag(x)` is the slot of `x`; a chain's ⊥ is the reserved word
/// [`CHAIN_BOTTOM`], and `tag(n)` is the slot of `n`, whose order on the
/// naturals is the order of the words. Every other lattice has its
/// elements' own slots as its words, ⊥'s fixed by the program's
/// [`Names`], and runs its word forms ([`LatticeOps::with_word_forms`])
/// on them; where it has none, or a form declines, the operation is the
/// closure's on the decoded operands ([`LatticeData`]). Either way encoded
/// equality stays value equality. A shared handle: a lattice's cells keep
/// one, and a plan one per register that decodes through it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct KindWords {
    order: Order,
    elems: Arc<Elems>,
}

/// Which order a [`KindWords`] runs: the kind's shape, or the elements'
/// slots with the slot of ⊥, kept beside the handle's pointer so a kind's
/// operation reads no memory.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Order {
    Flat,
    Chain,
    Slots { bot: u64 },
}

#[derive(Debug, PartialEq)]
enum Elems {
    /// A declared kind, and the values its reserved words stand for.
    Kind {
        kind: LatticeKind,
        bot: Value,
        top: Value,
    },
    /// The elements' slots, and the word forms if the lattice has them.
    Slots(Option<Arc<SlotForms>>),
}

impl KindWords {
    /// The words of `ops`'s elements in the stores of a program with
    /// these `names`: a declared kind's (the flat kind needs a top, which
    /// the kind's check requires), or else the elements' slots, ⊥'s being
    /// the one the names fix — a program interns every lattice's ⊥ when
    /// it is built.
    pub(crate) fn of(ops: &LatticeOps, names: &Names) -> KindWords {
        let declared = match ops.kind() {
            Some(kind @ LatticeKind::Flat { .. }) => {
                ops.top().map(|top| (kind, Order::Flat, top.clone()))
            }
            Some(kind @ LatticeKind::Chain { tag }) => {
                let top = Value::Tag(Arc::clone(tag), Arc::new(Value::Int(0)));
                Some((kind, Order::Chain, top))
            }
            None => None,
        };
        let Some((kind, order, top)) = declared else {
            let bot = names
                .slot(ops.bottom())
                .expect("a lattice's ⊥ is among its program's names");
            return KindWords {
                order: Order::Slots { bot },
                elems: Arc::new(Elems::Slots(ops.word_forms().cloned())),
            };
        };
        KindWords {
            order,
            elems: Arc::new(Elems::Kind {
                kind: kind.clone(),
                bot: ops.bottom().clone(),
                top,
            }),
        }
    }

    /// Whether these are the words of a lattice of `kind`.
    pub(crate) fn is(&self, kind: &LatticeKind) -> bool {
        matches!(&*self.elems, Elems::Kind { kind: k, .. } if k == kind)
    }

    /// Whether the words are the elements' store slots: a lattice of no
    /// declared kind, whose laws the engine still watches.
    #[inline]
    pub(crate) fn is_slots(&self) -> bool {
        matches!(self.order, Order::Slots { .. })
    }

    /// The word of ⊥.
    #[inline]
    pub(crate) fn bottom(&self) -> u64 {
        match self.order {
            Order::Flat => FLAT_BOTTOM,
            Order::Chain => CHAIN_BOTTOM,
            Order::Slots { bot } => bot,
        }
    }

    /// The word of a declared kind's ⊤.
    pub(crate) fn top(&self) -> u64 {
        match self.order {
            Order::Flat => FLAT_TOP,
            Order::Chain => CHAIN_TOP,
            Order::Slots { .. } => unreachable!("only a declared kind's ⊤ is reserved"),
        }
    }

    /// The order on words. Flat: ⊥ below everything, ⊤ above, `tag(x)`
    /// only below itself. Chain: the reverse order of the words, ⊥ being
    /// the largest. Slots: the `leq` form's answer, `None` where it
    /// declines or there is none.
    #[inline]
    pub(crate) fn leq(&self, a: u64, b: u64) -> Option<bool> {
        match self.order {
            Order::Flat => Some(a == b || a == FLAT_BOTTOM || b == FLAT_TOP),
            Order::Chain => Some(a >= b),
            Order::Slots { .. } => match (self.forms()?.leq)(a, b) {
                WORD_TRUE => Some(true),
                WORD_FALSE => Some(false),
                _ => None,
            },
        }
    }

    /// The least upper bound on words; `None` where the `lub` form
    /// declines — answers with a word that is not a slot in `spill` — or
    /// there is none.
    #[inline]
    pub(crate) fn lub(&self, a: u64, b: u64, spill: &SpillTable) -> Option<u64> {
        match self.order {
            Order::Flat if a == b || b == FLAT_BOTTOM => Some(a),
            Order::Flat if a == FLAT_BOTTOM => Some(b),
            Order::Flat => Some(FLAT_TOP),
            Order::Chain => Some(a.min(b)),
            Order::Slots { .. } => Some((self.forms()?.lub)(a, b)).filter(|&w| is_slot(w, spill)),
        }
    }

    /// The greatest lower bound on words, as [`KindWords::lub`].
    #[inline]
    pub(crate) fn glb(&self, a: u64, b: u64, spill: &SpillTable) -> Option<u64> {
        match self.order {
            Order::Flat if a == b || b == FLAT_TOP => Some(a),
            Order::Flat if a == FLAT_TOP => Some(b),
            Order::Flat => Some(FLAT_BOTTOM),
            Order::Chain => Some(a.max(b)),
            Order::Slots { .. } => Some((self.forms()?.glb)(a, b)).filter(|&w| is_slot(w, spill)),
        }
    }

    fn forms(&self) -> Option<&SlotForms> {
        match &*self.elems {
            Elems::Slots(forms) => forms.as_deref(),
            Elems::Kind { .. } => unreachable!("a declared kind has no word forms"),
        }
    }

    /// A declared kind's constructor, ⊥ and ⊤.
    fn kind(&self) -> (&Arc<str>, &Value, &Value) {
        match &*self.elems {
            Elems::Kind { kind, bot, top } => match kind {
                LatticeKind::Flat { tag } | LatticeKind::Chain { tag } => (tag, bot, top),
            },
            Elems::Slots(_) => unreachable!("slots reserve no words"),
        }
    }

    /// The `x` of an element `tag(x)` of a declared kind.
    fn payload<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Tag(tag, x) if **tag == **self.kind().0 => Some(x),
            _ => None,
        }
    }

    /// The word of `v` on the write path (interning `x` as [`encode_mut`]
    /// does); `None` when `v` is not an element.
    pub(crate) fn encode_mut(&self, v: &Value, spill: &mut SpillTable) -> Option<u64> {
        match self.order {
            Order::Slots { .. } => Some(encode_mut(v, spill)),
            _ => self.word(v, |x| Some(encode_mut(x, spill))),
        }
    }

    /// The word of `v`, read-only as [`try_encode`]: `None` when `v` is not
    /// an element or its `x` (for slots, `v` itself) was never stored.
    pub(crate) fn try_encode(&self, v: &Value, spill: &SpillTable) -> Option<u64> {
        match self.order {
            Order::Slots { .. } => try_encode(v, spill),
            _ => self.word(v, |x| try_encode(x, spill)),
        }
    }

    /// Whether `v` is one of a declared kind's elements — what has a
    /// word, or will have one once its `x` is stored.
    pub(crate) fn is_elem(&self, v: &Value) -> bool {
        self.word(v, |_| Some(0)).is_some()
    }

    /// The word of `v` in a declared kind, a flat `tag(x)`'s through
    /// `slot(x)`.
    fn word(&self, v: &Value, slot: impl FnOnce(&Value) -> Option<u64>) -> Option<u64> {
        let (_, bot, top) = self.kind();
        match self.order {
            _ if v == bot => Some(self.bottom()),
            Order::Flat if v == top => Some(FLAT_TOP),
            Order::Flat => slot(self.payload(v)?),
            Order::Chain => match self.payload(v)? {
                &Value::Int(n) if n >= 0 => slot_of_int(n),
                _ => None,
            },
            Order::Slots { .. } => unreachable!("an element's slot is its word"),
        }
    }

    pub(crate) fn decode(&self, word: u64, spill: &SpillTable) -> Value {
        match (self.order, word) {
            (Order::Slots { .. }, slot) => decode(slot, spill),
            (_, word) if word == self.bottom() => self.kind().1.clone(),
            (Order::Flat, FLAT_TOP) => self.kind().2.clone(),
            (_, slot) => Value::Tag(Arc::clone(self.kind().0), Arc::new(decode(slot, spill))),
        }
    }

    /// Whether `word` is one of these words: ⊥'s, or, flat, ⊤'s or a
    /// slot ([`is_slot`]); a chain's, the slot of a natural; slots', a
    /// slot.
    pub(crate) fn holds(&self, word: u64, spill: &SpillTable) -> bool {
        match self.order {
            Order::Slots { .. } => is_slot(word, spill),
            _ if word == self.bottom() => true,
            Order::Flat => word == FLAT_TOP || is_slot(word, spill),
            Order::Chain => int_of_slot(word).is_some_and(|n| n >= 0),
        }
    }
}

/// Whether `word` is a round-local word ([`Locals`]).
#[inline]
pub(crate) fn is_local(word: u64) -> bool {
    word & (1 << 63 | TAG_MASK) == LOCAL
}

/// The values a round's plan executions computed that their store has no
/// slot for yet — a `glb`-rebound witness, a function's or a choice's
/// result, an element a premise logs — each named by a *round-local*
/// word: [`LOCAL`] over its number here. A value is numbered only
/// after the store's spill table misses it, and an equal value gets the
/// same number, so two words of one round are equal exactly when their
/// values are. No round-local word is stored, joined, put in a `∆` or
/// logged: the round's absorb interns each where it finds it, in
/// derivation order ([`Database::intern`]), and no word form is handed one.
#[derive(Debug, Default)]
pub(crate) struct Locals {
    values: Vec<Value>,
    numbers: FxHashMap<Value, u32>,
}

impl Locals {
    /// The word `value` takes among `words` — a lattice's, or, for
    /// `None`, the slots of `spill` — or else its round-local word: a
    /// value with no word there, or whose word the store cannot give yet.
    pub(crate) fn word(
        &mut self,
        words: Option<&KindWords>,
        value: Value,
        spill: &SpillTable,
    ) -> u64 {
        let word = match words {
            None => try_encode(&value, spill),
            Some(words) => words.try_encode(&value, spill),
        };
        word.unwrap_or_else(|| self.number(value))
    }

    fn number(&mut self, value: Value) -> u64 {
        let next = u32::try_from(self.values.len()).expect("fewer than 2^32 round-local values");
        let values = &mut self.values;
        let number = *self.numbers.entry(value).or_insert_with_key(|value| {
            values.push(value.clone());
            next
        });
        LOCAL | (number as u64) << TAG_BITS
    }

    /// The value of a round-local word.
    pub(crate) fn get(&self, word: u64) -> &Value {
        debug_assert!(is_local(word));
        &self.values[((word & !LOCAL) >> TAG_BITS) as usize]
    }

    /// The value of `word`: its own, for a round-local word, or a slot's,
    /// decoded against `spill`.
    pub(crate) fn value(&self, word: u64, spill: &SpillTable) -> Value {
        if is_local(word) {
            self.get(word).clone()
        } else {
            decode(word, spill)
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.numbers.clear();
    }

    /// Appends `later`'s values after these, and returns what a word of
    /// `later` adds to become the same value's word here. Only read after
    /// that: the appended values are numbered here no more.
    pub(crate) fn append(&mut self, later: Locals) -> u64 {
        let base = self.values.len() as u64;
        self.values.extend(later.values);
        base << TAG_BITS
    }
}

// ---------------------------------------------------------------------------
// Row-id membership set
// ---------------------------------------------------------------------------

/// An open-addressing hash set of `u32` row ids. It stores *no* row data:
/// equality reads the owning predicate's encoded columns, so membership
/// is an index into the columnar store rather than a second copy of every
/// tuple (the old `HashMap<Row, ()>`). Each slot is `tag << 32 | id`, the
/// tag being the high half of the row's hash: the home slot is taken from
/// the tag, a lookup passes over a slot whose tag differs without reading
/// its row, and growing and removing rehash from the stored tags alone.
/// An [`Index`] keeps one over its groups, an id there naming a group.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowSet {
    /// Power-of-two slot array; [`EMPTY_SLOT`] marks an empty slot.
    slots: Vec<u64>,
    len: usize,
}

/// No row has the id `u32::MAX` ([`Columns::append`]), so no slot of a
/// row is all ones.
const EMPTY_SLOT: u64 = u64::MAX;

/// Sentinel for "row id unknown" on the encoded lattice insert path.
pub(crate) const NO_ID: u32 = u32::MAX;

/// The slot of row `id`, whose row hashes to `hash`: its tag beside it.
#[inline]
fn tagged(hash: u64, id: u32) -> u64 {
    hash & !(u32::MAX as u64) | id as u64
}

/// The home slot of a hash — or of a slot, which keeps its hash's tag.
#[inline]
fn home(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

impl RowSet {
    /// Finds the id of the row with `hash` for which `eq` holds — or the
    /// empty slot the walk ended on, where [`RowSet::fill`] puts the row:
    /// a membership test and its insert are one walk. `eq` is asked only
    /// about rows whose tag is `hash`'s.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut i = home(hash, mask);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return Err(i);
            }
            if slot >> 32 == tag && eq(slot as u32) {
                return Ok(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// [`RowSet::find`], for a test alone.
    #[inline]
    fn lookup(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        self.find(hash, eq).ok()
    }

    /// Inserts an id known to be absent, growing at 7/8 load.
    fn insert_new(&mut self, hash: u64, id: u32) {
        if self.slots.len() < 8 || self.len + 1 > self.slots.len() / 8 * 7 {
            let grown = vec![EMPTY_SLOT; (self.slots.len() * 2).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for slot in old.into_iter().filter(|&slot| slot != EMPTY_SLOT) {
                self.place(slot);
            }
        }
        self.place(tagged(hash, id));
        self.len += 1;
    }

    /// [`RowSet::insert_new`] of absent row `id` at `at`, the empty slot
    /// a [`RowSet::find`] of `hash` ended on: the slot it would take,
    /// unless the insert grows the set.
    #[inline]
    fn fill(&mut self, at: usize, hash: u64, id: u32) {
        if self.slots.len() < 8 || self.len + 1 > self.slots.len() / 8 * 7 {
            return self.insert_new(hash, id);
        }
        self.slots[at] = tagged(hash, id);
        self.len += 1;
    }

    /// Puts `slot` at the first empty slot from its home on.
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = home(slot, mask);
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// The position of row `id`, whose row hashes to `hash`.
    fn position(&self, hash: u64, id: u32) -> usize {
        let mask = self.slots.len() - 1;
        let slot = tagged(hash, id);
        let mut i = home(hash, mask);
        while self.slots[i] != slot {
            assert_ne!(self.slots[i], EMPTY_SLOT, "row {id} is in the set");
            i = (i + 1) & mask;
        }
        i
    }

    /// Points the slot of row `from`, whose row hashes to `hash`, at `to`:
    /// the row moved.
    fn renumber(&mut self, hash: u64, from: u32, to: u32) {
        let at = self.position(hash, from);
        self.slots[at] = tagged(hash, to);
    }

    /// Removes `id`, whose row hashes to `hash`, by backward shift: each
    /// later entry of the probe run moves up into the hole unless that
    /// would put it before its home slot. No tombstone is left behind,
    /// so [`RowSet::lookup`] and [`RowSet::insert_new`] need not know
    /// that rows can go.
    fn remove(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.position(hash, id);
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let later = self.slots[i];
            if later == EMPTY_SLOT {
                break;
            }
            // Cyclic distances back from `i`: `later` stays reachable
            // from its home slot only if the hole is no further.
            let home = home(later, mask);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = later;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len -= 1;
    }
}

/// The hash the row set files stored row `id` under: [`hash_slots`] of
/// its encoded columns, read in place.
#[inline]
fn stored_hash(cols: &[Vec<u64>], id: u32) -> u64 {
    hash_words(cols.iter().map(|col| col[id as usize]))
}

/// One hash index of a predicate: its rows grouped by their slots in the
/// columns `on`. A group holds the ids of the rows that share one key,
/// ascending, so a probe visits its hits in the order a scan would;
/// `keys` is a [`RowSet`] over the groups, each slot `tag << 32 | group`
/// with the tag of the key's hash, and its equality reads the key off the
/// group's newest row — the way membership reads a row. No key is stored,
/// so filing a row allocates nothing unless its group outgrows one id.
/// A rule derives its heads loop by loop, so a row often shares its key
/// with the row before it: filing first tries the group the last filing
/// went to, whose newest row is that row, before it hashes.
///
/// An index files the rows in id order, on demand: it holds the rows
/// below its own watermark, `filed`, and is brought up to the store by
/// [`Columns::catch_up`] — which the round whose plans probe it runs
/// first — so an index no plan still probes is not kept up.
///
/// A predicate has a handful of indexes at most, searched linearly when
/// registered and addressed by position afterwards: plans resolve the
/// position once at compile time, so a probe hashes the key and nothing
/// else. (`H` is the key hash: [`SlotHash`], but for the tests that make
/// keys collide.)
#[derive(Clone, Debug)]
struct Index<H = SlotHash> {
    on: Vec<usize>,
    keys: RowSet,
    groups: Vec<Ids>,
    /// The group the last filing went to, or [`NO_GROUP`]: none yet, or
    /// a removal since.
    recent: usize,
    /// The rows filed: ids `0..filed`.
    filed: usize,
    hash: PhantomData<H>,
}

/// No group, for [`Index::recent`].
const NO_GROUP: usize = usize::MAX;

/// The ascending row ids of one index group: one inline, more on the
/// heap. A `Many` holds two ids or more.
#[derive(Clone, Debug)]
enum Ids {
    One(u32),
    Many(Vec<u32>),
}

impl Ids {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }

    /// The group's newest row: the one its key is read from.
    #[inline]
    fn newest(&self) -> u32 {
        match self {
            Ids::One(id) => *id,
            Ids::Many(ids) => ids[ids.len() - 1],
        }
    }

    /// Files `id`, greater than every id here, at the end.
    fn push(&mut self, id: u32) {
        match self {
            Ids::One(first) => {
                // Room for four, as a `Vec` grown one push at a time has.
                let mut ids = Vec::with_capacity(4);
                ids.extend([*first, id]);
                *self = Ids::Many(ids);
            }
            Ids::Many(ids) => ids.push(id),
        }
    }

    /// Drops `id`; `false` when that leaves the group empty.
    fn remove(&mut self, id: u32) -> bool {
        match self {
            Ids::One(only) => {
                debug_assert_eq!(*only, id);
                false
            }
            Ids::Many(ids) => {
                ids.remove(ids.binary_search(&id).expect("filed"));
                if let [only] = ids[..] {
                    *self = Ids::One(only);
                }
                true
            }
        }
    }

    /// Renames `from` — the greatest id of the store, so the last here —
    /// to `to`, where it sorts.
    fn renumber(&mut self, from: u32, to: u32) {
        match self {
            Ids::One(only) => *only = to,
            Ids::Many(ids) => {
                let moved = ids.pop();
                debug_assert_eq!(moved, Some(from));
                ids.insert(ids.partition_point(|&other| other < to), to);
            }
        }
    }
}

/// How an [`Index`] hashes a key, given its slots in column order.
trait KeyHash {
    fn hash(key: impl ExactSizeIterator<Item = u64>) -> u64;
}

/// The store's key hash: a key's [`hash_slots`], which is what a probe
/// computes from a key it holds as a slice.
#[derive(Clone, Debug)]
struct SlotHash;

impl KeyHash for SlotHash {
    #[inline]
    fn hash(key: impl ExactSizeIterator<Item = u64>) -> u64 {
        hash_words(key)
    }
}

impl<H: KeyHash> Index<H> {
    fn new(on: &[usize]) -> Index<H> {
        Index {
            on: on.to_vec(),
            keys: RowSet::default(),
            groups: Vec::new(),
            recent: NO_GROUP,
            filed: 0,
            hash: PhantomData,
        }
    }

    /// The hash of stored row `id`'s key.
    #[inline]
    fn row_hash(&self, cols: &[Vec<u64>], id: u32) -> u64 {
        H::hash(self.on.iter().map(|&c| cols[c][id as usize]))
    }

    /// The group whose key hashes to `hash` and has `key(i)` in column
    /// `on[i]`.
    #[inline]
    fn find(&self, cols: &[Vec<u64>], hash: u64, key: impl Fn(usize) -> u64) -> Option<usize> {
        let group = self.keys.lookup(hash, |g| {
            let newest = self.groups[g as usize].newest() as usize;
            let mut on = self.on.iter().enumerate();
            on.all(|(i, &c)| cols[c][newest] == key(i))
        });
        group.map(|g| g as usize)
    }

    /// The hash of stored row `id`'s key, and the group of that key.
    #[inline]
    fn find_row(&self, cols: &[Vec<u64>], id: u32) -> (u64, Option<usize>) {
        let hash = self.row_hash(cols, id);
        let group = self.find(cols, hash, |i| cols[self.on[i]][id as usize]);
        (hash, group)
    }

    /// The ids of the rows whose slots in the columns `on` are `key`.
    #[inline]
    fn probe(&self, cols: &[Vec<u64>], key: &[u64]) -> &[u32] {
        match self.find(cols, H::hash(key.iter().copied()), |i| key[i]) {
            Some(group) => self.groups[group].as_slice(),
            None => &[],
        }
    }

    /// Files the stored rows from the watermark up to row `len`, in id
    /// order: what filing each row as it came would have left.
    fn catch_up(&mut self, cols: &[Vec<u64>], len: usize) {
        for id in self.filed..len {
            self.file(cols, id as u32);
        }
    }

    /// Files stored row `id`, the first one not filed yet: at the end of
    /// its key's group — the recent group's, when the key is that
    /// group's — or as a new group.
    fn file(&mut self, cols: &[Vec<u64>], id: u32) {
        debug_assert_eq!(id as usize, self.filed, "rows are filed in id order");
        self.filed += 1;
        if let Some(ids) = self.groups.get_mut(self.recent) {
            let newest = ids.newest() as usize;
            let same = |&c: &usize| cols[c][newest] == cols[c][id as usize];
            if self.on.iter().all(same) {
                ids.push(id);
                return;
            }
        }
        match self.find_row(cols, id) {
            (_, Some(group)) => {
                self.groups[group].push(id);
                self.recent = group;
            }
            (hash, None) => {
                self.keys.insert_new(hash, self.groups.len() as u32);
                self.recent = self.groups.len();
                self.groups.push(Ids::One(id));
            }
        }
    }

    /// Drops row `id` from its group and files row `last` — the store's
    /// greatest — as `id`, while both are still stored: the swap-remove of
    /// [`Columns::remove`], on an index that has filed every row. A group
    /// left empty leaves `keys` by backward shift and `groups` by
    /// swap-remove, and the group that moves takes its number.
    fn remove(&mut self, cols: &[Vec<u64>], id: u32, last: u32) {
        debug_assert_eq!(self.filed, last as usize + 1, "every row is filed");
        self.filed -= 1;
        self.recent = NO_GROUP;
        let (hash, group) = self.find_row(cols, id);
        let group = group.expect("filed when stored");
        if !self.groups[group].remove(id) {
            self.keys.remove(hash, group as u32);
            self.groups.swap_remove(group);
            if let Some(moved) = self.groups.get(group) {
                let hash = self.row_hash(cols, moved.newest());
                let from = self.groups.len() as u32;
                self.keys.renumber(hash, from, group as u32);
            }
        }
        if last != id {
            let group = self.find_row(cols, last).1.expect("filed when stored");
            self.groups[group].renumber(last, id);
        }
    }
}

// ---------------------------------------------------------------------------
// The shared column store
// ---------------------------------------------------------------------------

/// The columnar store both predicate kinds are built on: the tuples of a
/// relation, or the key tuples of a lattice predicate. Encoded columns
/// and the membership set grow in one place, [`Columns::append`]; an
/// index catches up in one place, [`Columns::catch_up`], when a round
/// that probes it is about to run. The decoded read arena is built
/// apart from them, by the first read that lends `&[Value]` rows
/// ([`Columns::row`]).
///
/// A copy — a resume's warm start — has every index complete: the
/// first copy after a change completes the lagging ones and keeps them
/// ([`Built`]), so the copies of one store file its rows once. Copies
/// share their indexes with the store they came from until they file
/// into one or remove a row ([`Arc::make_mut`]): a resume copies the
/// indexes it changes, not the model's.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    arity: usize,
    len: usize,
    /// Struct-of-arrays encoded columns: `cols[c][row]` — the join
    /// kernels' working representation.
    cols: Vec<Vec<u64>>,
    /// Row-major decoded arena: row `i` is `[i*arity..][..arity]`, the
    /// borrowed `&[Value]` read view. Empty until a public read builds
    /// it; any change forgets it.
    flat: Built<Vec<Value>>,
    set: RowSet,
    indexes: Vec<Arc<Index>>,
    /// The lagging indexes, completed at their positions, for the copies.
    completed: Built<Vec<(usize, Arc<Index>)>>,
    /// Reused encode buffer for the decoded insert entries.
    scratch: Vec<u64>,
}

impl Clone for Columns {
    fn clone(&self) -> Columns {
        let completed = self.completed.get(|| {
            let lagging = self
                .indexes
                .iter()
                .enumerate()
                .filter(|(_, i)| i.filed < self.len);
            let complete = |(at, index): (usize, &Arc<Index>)| {
                let mut index = Index::clone(index);
                index.catch_up(&self.cols, self.len);
                (at, Arc::new(index))
            };
            lagging.map(complete).collect()
        });
        let mut indexes = self.indexes.clone();
        for (at, index) in completed {
            indexes[*at] = Arc::clone(index);
        }
        Columns {
            arity: self.arity,
            len: self.len,
            cols: self.cols.clone(),
            flat: Built::default(),
            set: self.set.clone(),
            indexes,
            completed: Built::default(),
            scratch: Vec::new(),
        }
    }
}

impl Columns {
    fn new(arity: usize) -> Columns {
        Columns {
            arity,
            cols: vec![Vec::new(); arity],
            ..Columns::default()
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Every row, decoded, row-major — built on the first call after a
    /// change, against `spill`, the spill table of the database that
    /// holds the rows. A public read: nothing during a solve calls it.
    fn decoded(&self, spill: &SpillTable) -> &[Value] {
        self.flat.get(|| {
            let mut flat = Vec::with_capacity(self.len * self.arity);
            for id in 0..self.len as u32 {
                flat.extend(self.slots(id).map(|slot| decode(slot, spill)));
            }
            flat
        })
    }

    /// The decoded tuple of row `id`, out of the arena
    /// ([`Columns::decoded`]).
    pub(crate) fn row<'a>(&'a self, id: u32, spill: &SpillTable) -> &'a [Value] {
        let start = id as usize * self.arity;
        &self.decoded(spill)[start..start + self.arity]
    }

    /// Iterates the rows, decoded, in id order: insertion order, but for
    /// rows a removal moved ([`Columns::remove`]).
    fn rows<'a>(&'a self, spill: &SpillTable) -> RowsIter<'a> {
        RowsIter {
            flat: self.decoded(spill),
            arity: self.arity,
            range: 0..self.len as u32,
        }
    }

    /// The encoded slots of one column (kernel access).
    #[inline]
    pub(crate) fn col(&self, c: usize) -> &[u64] {
        &self.cols[c]
    }

    /// The encoded slots of row `id`, one per column.
    pub(crate) fn slots(&self, id: u32) -> impl Iterator<Item = u64> + '_ {
        self.cols.iter().map(move |col| col[id as usize])
    }

    /// Finds an encoded tuple that hashes to `hash`: its id, or where
    /// [`Columns::append`] puts it ([`RowSet::find`]).
    #[inline]
    fn find(&self, hash: u64, enc: &[u64]) -> Result<u32, usize> {
        self.set.find(hash, |id| {
            self.cols
                .iter()
                .zip(enc)
                .all(|(col, &e)| col[id as usize] == e)
        })
    }

    /// The id of an encoded tuple, if stored (kernel access).
    #[inline]
    pub(crate) fn id_of_encoded(&self, enc: &[u64]) -> Option<u32> {
        self.find(hash_slots(enc), enc).ok()
    }

    /// The id of a decoded tuple, if stored. A tuple of the wrong width,
    /// or holding a value the store has never seen, is not.
    fn id_of(&self, row: &[Value], spill: &SpillTable) -> Option<u32> {
        if row.len() != self.arity {
            return None;
        }
        let mut enc = Vec::with_capacity(row.len());
        for v in row {
            enc.push(try_encode(v, spill)?);
        }
        self.id_of_encoded(&enc)
    }

    /// Encodes `row` on the write path — interning strings, spilling
    /// structured values — into the reused scratch buffer, which the
    /// caller hands back through [`Columns::put_scratch`].
    fn encode_row(&mut self, row: &[Value], spill: &mut SpillTable) -> Vec<u64> {
        debug_assert_eq!(row.len(), self.arity);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(row.iter().map(|v| encode_mut(v, spill)));
        scratch
    }

    fn put_scratch(&mut self, scratch: Vec<u64>) {
        self.scratch = scratch;
    }

    /// Appends an encoded tuple known to be absent — its `hash` missed
    /// in [`Columns::find`], which ended on the empty slot `at` — and
    /// returns its id: the one place a row or a lattice key enters the
    /// store. Every slot must be a canonical encoding against the
    /// database's spill table; nothing is decoded. An index takes the
    /// row when it catches up ([`Columns::catch_up`]).
    fn append(&mut self, enc: &[u64], hash: u64, at: usize) -> Result<u32, InsertFault> {
        debug_assert_eq!(enc.len(), self.arity);
        debug_assert!(
            !enc.iter().any(|&w| is_local(w)),
            "a round-local word is never stored"
        );
        // `u32::MAX` is the row-set's empty sentinel, so the last usable
        // id is `u32::MAX - 1`: a checked bound instead of the silent
        // `len as u32` truncation that would corrupt every index.
        if self.len >= u32::MAX as usize {
            return Err(InsertFault::Safety(Violation::StoreFull(self.len as u64)));
        }
        let id = self.len as u32;
        for (col, &e) in self.cols.iter_mut().zip(enc) {
            col.push(e);
        }
        self.len += 1;
        self.set.fill(at, hash, id);
        self.changed();
        Ok(id)
    }

    /// Forgets what was built from the rows as they were: the decoded
    /// arena and the completed indexes.
    #[inline]
    fn changed(&mut self) {
        self.flat.forget();
        self.completed.forget();
    }

    /// Whether the index at `index` lacks rows the store holds.
    #[inline]
    pub(crate) fn lags(&self, index: usize) -> bool {
        self.indexes[index].filed < self.len
    }

    /// Files the rows the index at `index` lacks, in id order: what
    /// filing each row as it came would have left.
    pub(crate) fn catch_up(&mut self, index: usize) {
        if self.lags(index) {
            Arc::make_mut(&mut self.indexes[index]).catch_up(&self.cols, self.len);
            self.completed.forget();
        }
    }

    /// Deletes row `id` by swap-remove and returns the id of the last
    /// row, which moved into the hole (`id` itself when it was the last):
    /// in every encoded column the last row takes the place of the
    /// deleted one, the membership set forgets `id`'s row and points the
    /// moved row's slot at `id`, and every index drops `id` from its group
    /// (dropping a group that empties) and files the moved row as `id` in
    /// its own. Ids stay dense, so nothing that reads the store needs to
    /// know rows can go — but an id held across a removal may name another
    /// row afterwards: see `Run::delete` for when this runs. A lagging
    /// index catches up first; a warm start's copy has none.
    fn remove(&mut self, id: u32) -> u32 {
        assert!((id as usize) < self.len, "row {id} is stored");
        let last = (self.len - 1) as u32;
        for index in &mut self.indexes {
            let index = Arc::make_mut(index);
            index.catch_up(&self.cols, self.len);
            index.remove(&self.cols, id, last);
        }
        self.set.remove(stored_hash(&self.cols, id), id);
        if last != id {
            self.set.renumber(stored_hash(&self.cols, last), last, id);
        }
        for col in &mut self.cols {
            col.swap_remove(id as usize);
        }
        self.len -= 1;
        self.changed();
        last
    }

    /// The position of the index on `cols`, registered empty if there is
    /// none yet: like any other index, it files the stored rows when it
    /// catches up ([`Columns::catch_up`]).
    fn ensure_index(&mut self, cols: &[usize]) -> usize {
        if let Some(at) = self.index_of(cols) {
            return at;
        }
        self.indexes.push(Arc::new(Index::new(cols)));
        self.completed.forget();
        self.indexes.len() - 1
    }

    /// The position of the index on `cols`, if one was registered. Plans
    /// resolve it once and probe by position.
    pub(crate) fn index_of(&self, cols: &[usize]) -> Option<usize> {
        self.indexes.iter().position(|index| index.on == cols)
    }

    /// Returns the row ids matching `key` on `cols`, or `None` if no
    /// such index exists or it lags the store (the caller falls back to
    /// a scan). A key containing values unknown to the store matches
    /// nothing.
    pub(crate) fn probe(
        &self,
        cols: &[usize],
        key: &[Value],
        spill: &SpillTable,
    ) -> Option<&[u32]> {
        let index = self.index_of(cols).filter(|&at| !self.lags(at))?;
        let mut enc = Vec::with_capacity(key.len());
        for v in key {
            match try_encode(v, spill) {
                Some(e) => enc.push(e),
                None => return Some(&[]),
            }
        }
        Some(self.probe_encoded(index, &enc))
    }

    /// Index probe by position with a pre-encoded key (kernel access),
    /// on an index that has caught up.
    #[inline]
    pub(crate) fn probe_encoded(&self, index: usize, key: &[u64]) -> &[u32] {
        debug_assert!(!self.lags(index), "the round caught the index up");
        self.indexes[index].probe(&self.cols, key)
    }
}

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

/// Storage for one relational predicate: its tuples.
#[derive(Clone, Debug, Default)]
pub(crate) struct RelationData {
    rows: Columns,
}

impl RelationData {
    pub(crate) fn new(arity: usize) -> RelationData {
        RelationData {
            rows: Columns::new(arity),
        }
    }

    /// The column store (kernel access).
    #[inline]
    pub(crate) fn columns(&self) -> &Columns {
        &self.rows
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn row<'a>(&'a self, i: u32, spill: &SpillTable) -> &'a [Value] {
        self.rows.row(i, spill)
    }

    /// Iterates the stored tuples, decoded ([`Columns::rows`]).
    pub(crate) fn rows<'a>(&'a self, spill: &SpillTable) -> RowsIter<'a> {
        self.rows.rows(spill)
    }

    pub(crate) fn contains(&self, row: &[Value], spill: &SpillTable) -> bool {
        self.rows.id_of(row, spill).is_some()
    }

    /// Inserts a decoded tuple — the entry of asserted facts and snapshot
    /// loads: encodes on the write path, then takes the encoded entry.
    fn insert(
        &mut self,
        tuple: &[Value],
        spill: &mut SpillTable,
    ) -> Result<Option<u32>, InsertFault> {
        let enc = self.rows.encode_row(tuple, spill);
        let result = self.insert_encoded(&enc);
        self.rows.put_scratch(enc);
        result
    }

    /// Inserts an encoded tuple; returns the new row id, or `None` when
    /// the tuple was already stored: one walk of the row set. Every slot
    /// must be a canonical encoding against the database's spill table,
    /// so nothing is interned.
    fn insert_encoded(&mut self, enc: &[u64]) -> Result<Option<u32>, InsertFault> {
        let hash = hash_slots(enc);
        match self.rows.find(hash, enc) {
            Ok(_) => Ok(None),
            Err(at) => self.rows.append(enc, hash, at).map(Some),
        }
    }
}

/// Iterator over the rows of a [`Columns`] — a relation's tuples, a
/// lattice predicate's keys — decoded, in id order.
#[derive(Clone, Debug)]
pub(crate) struct RowsIter<'a> {
    /// The rows' decoded arena.
    flat: &'a [Value],
    arity: usize,
    range: std::ops::Range<u32>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let start = self.range.next()? as usize * self.arity;
        Some(&self.flat[start..start + self.arity])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

// ---------------------------------------------------------------------------
// Lattices
// ---------------------------------------------------------------------------

/// Per-cell ascent counters, kept only when ascent telemetry is enabled
/// (see [`crate::trace::AscentConfig`]). Keyed by cell (key-row) id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AscentEntry {
    /// Joins absorbed by the cell (including no-change joins).
    pub(crate) joins: u64,
    /// Strict increases: the cell's height in its ascending chain.
    pub(crate) height: u64,
    /// Whether an [`crate::trace::AscentWarning`] already fired for this
    /// cell (each cell warns at most once per solve).
    pub(crate) warned: bool,
}

/// Updates a cell's ascent counters after a join, when telemetry is on.
fn note_ascent(ascent: &mut Option<FxHashMap<u32, AscentEntry>>, id: u32, increased: bool) {
    let Some(map) = ascent else {
        return;
    };
    let entry = map.entry(id).or_default();
    entry.joins += 1;
    if increased {
        entry.height += 1;
    }
}

/// Holds what a lattice operation of `ops` answered to
/// [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH) before a cell keeps it.
fn within_depth(value: &Value, ops: &LatticeOps, op: &str) -> Result<(), InsertFault> {
    if value.is_too_deep() {
        let function = format!("{}.{op}", ops.name());
        return Err(InsertFault::Safety(Violation::ValueTooDeep { function }));
    }
    Ok(())
}

/// Storage for one lattice predicate: the compact cell map, with the key
/// tuples stored columnar exactly like a relation and one word per key
/// id, the cell's element ([`KindWords`]).
#[derive(Clone, Debug)]
pub(crate) struct LatticeData {
    ops: LatticeOps,
    words: KindWords,
    keys: Columns,
    /// The cell element's word per key id; never `⊥`'s (compactness).
    cells: Vec<u64>,
    /// The cell elements, decoded for the public reads.
    decoded: Built<Vec<Value>>,
    /// `Some` only when ascent telemetry is enabled for this solve; the
    /// hot path then pays one map update per join, and nothing otherwise.
    ascent: Option<FxHashMap<u32, AscentEntry>>,
}

/// What the store builds from its contents on demand and drops with any
/// change: the decoded values it lends as `&Value`s — a [`Columns`]'
/// rows, or a lattice's cell elements — built by the first public read,
/// and a [`Columns`]' lagging indexes, completed, built by its first
/// copy. A copy of the store — a resume's warm start — starts without
/// either.
#[derive(Debug)]
struct Built<T>(OnceLock<T>);

impl<T> Default for Built<T> {
    fn default() -> Built<T> {
        Built(OnceLock::new())
    }
}

impl<T> Clone for Built<T> {
    fn clone(&self) -> Built<T> {
        Built::default()
    }
}

impl<T> Built<T> {
    /// The contents, built by `build` if they are not yet.
    #[inline]
    fn get(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(build)
    }

    #[inline]
    fn forget(&mut self) {
        if self.is_built() {
            self.0 = OnceLock::new();
        }
    }

    #[inline]
    fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl LatticeData {
    fn new(ops: LatticeOps, key_arity: usize, names: &Names) -> LatticeData {
        LatticeData {
            words: KindWords::of(&ops, names),
            ops,
            keys: Columns::new(key_arity),
            cells: Vec::new(),
            decoded: Built::default(),
            ascent: None,
        }
    }

    pub(crate) fn ops(&self) -> &LatticeOps {
        &self.ops
    }

    /// The words of this lattice's elements.
    #[inline]
    pub(crate) fn words(&self) -> &KindWords {
        &self.words
    }

    /// The key column store (kernel access).
    #[inline]
    pub(crate) fn columns(&self) -> &Columns {
        &self.keys
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn key<'a>(&'a self, id: u32, spill: &SpillTable) -> &'a [Value] {
        self.keys.row(id, spill)
    }

    /// Cell `id`'s word (kernel access).
    #[inline]
    pub(crate) fn cell(&self, id: u32) -> u64 {
        self.cells[id as usize]
    }

    /// Every cell's element, decoded, by id: the read of the public edge
    /// (iterators, the model checker, snapshots). Decoded on the first
    /// call after a change, against `spill`, the spill table of the
    /// database that holds them.
    pub(crate) fn decoded(&self, spill: &SpillTable) -> &[Value] {
        let words = &self.words;
        (self.decoded).get(|| self.cells.iter().map(|&w| words.decode(w, spill)).collect())
    }

    /// The element whose word is `word`.
    pub(crate) fn decode(&self, word: u64, spill: &SpillTable) -> Value {
        self.words.decode(word, spill)
    }

    /// The id of an encoded key, if stored (kernel access).
    #[inline]
    pub(crate) fn id_of_encoded(&self, enc: &[u64]) -> Option<u32> {
        self.keys.id_of_encoded(enc)
    }

    pub(crate) fn value<'a>(&'a self, key: &[Value], spill: &'a SpillTable) -> Option<&'a Value> {
        let id = self.keys.id_of(key, spill)?;
        Some(&self.decoded(spill)[id as usize])
    }

    /// Whether `word` is ⊥'s (kernel access).
    #[inline]
    pub(crate) fn is_bottom(&self, word: u64) -> bool {
        word == self.words.bottom()
    }

    /// The partial order on the words of two elements the store holds,
    /// with the closures' panic isolation: the words' order, or — where
    /// it declines — the closure's on the decoded elements.
    #[inline(always)]
    pub(crate) fn leq(&self, a: u64, b: u64, spill: &SpillTable) -> Result<bool, OpsPanic> {
        debug_assert!(!is_local(a) && !is_local(b), "an operand the store holds");
        match self.words.leq(a, b) {
            Some(leq) => Ok(leq),
            None => self
                .ops
                .try_leq(&self.decode(a, spill), &self.decode(b, spill)),
        }
    }

    /// The least upper bound of two elements the store holds, read-only
    /// (kernel access): the words' `lub`, or — where it declines — the
    /// closure's answer's word; `None` where the store has none for it.
    #[inline]
    pub(crate) fn lub(&self, a: u64, b: u64, spill: &SpillTable) -> Result<Option<u64>, OpsPanic> {
        if let Some(word) = self.words.lub(a, b, spill) {
            return Ok(Some(word));
        }
        let value = self
            .ops
            .try_lub(&self.decode(a, spill), &self.decode(b, spill))?;
        Ok(self.words.try_encode(&value, spill))
    }

    /// The greatest lower bound of a register's element `a` and the cell
    /// word `b` (kernel access): the words' `glb`, or — where it declines,
    /// or `a` is round-local, which no word form reads — the closure's on
    /// the decoded elements, as its word in `locals`.
    #[inline]
    pub(crate) fn glb(
        &self,
        a: u64,
        b: u64,
        spill: &SpillTable,
        locals: &mut Locals,
    ) -> Result<u64, OpsPanic> {
        if !is_local(a) {
            if let Some(word) = self.words.glb(a, b, spill) {
                return Ok(word);
            }
        }
        let a = match is_local(a) {
            true => locals.get(a).clone(),
            false => self.decode(a, spill),
        };
        let value = self.ops.try_glb(&a, &self.decode(b, spill))?;
        Ok(locals.word(Some(&self.words), value, spill))
    }

    /// The word of `value`, interning what it needs. A value that is not
    /// an element of a declared kind is refused as the closures refuse
    /// it — `leq` is what a join calls first — or, if they take it, as a
    /// [`Violation::KindMismatch`].
    fn word_mut(&self, value: &Value, spill: &mut SpillTable) -> Result<u64, InsertFault> {
        if let Some(word) = self.words.encode_mut(value, spill) {
            return Ok(word);
        }
        self.ops.try_leq(value, value)?;
        Err(InsertFault::Safety(Violation::KindMismatch {
            lattice: self.ops.name().to_string(),
            kind: self.ops.kind().expect("only a kind refuses").clone(),
            found: format!("{value} is not one of its elements"),
        }))
    }

    /// Joins `value` into the cell at the decoded `key` — the entry of
    /// asserted facts and snapshot loads: encodes on the write path, then
    /// takes the encoded body. Returns the cell id
    /// and the new cell value's word on strict increase.
    fn join(
        &mut self,
        key: &[Value],
        value: Value,
        spill: &mut SpillTable,
    ) -> Result<Option<(u32, u64)>, InsertFault> {
        if self.ops.is_bottom(&value) {
            return Ok(None);
        }
        let enc = self.keys.encode_row(key, spill);
        let result = self
            .word_mut(&value, spill)
            .and_then(|word| self.join_inner(&enc, NO_ID, word, spill));
        self.keys.put_scratch(enc);
        result
    }

    /// [`LatticeData::join`] with a pre-encoded key and the element's
    /// word (kernel fast path). Every slot must be a canonical encoding
    /// already present in the store; only what a declined word form's
    /// closure answers is interned. When the kernel already resolved the
    /// target cell, `id` names it and the hash lookup is skipped
    /// ([`NO_ID`] otherwise).
    pub(crate) fn join_encoded(
        &mut self,
        enc: &[u64],
        id: u32,
        word: u64,
        spill: &mut SpillTable,
    ) -> Result<Option<(u32, u64)>, InsertFault> {
        if word == self.words.bottom() {
            return Ok(None);
        }
        self.join_inner(enc, id, word, spill)
    }

    /// The one insertion body: every non-`⊥` lattice element passes
    /// through here, so the runtime safety sentinels live here. After
    /// each `lub` the result must be an upper bound of both operands
    /// (otherwise the cell could *decrease*, breaking monotonicity of the
    /// fixpoint iteration), and a fresh cell value must satisfy
    /// `leq(v, v)` (reflexivity — a `leq` that fails it would later
    /// mis-classify the cell as increased). They watch every lattice
    /// whose words are slots — its word forms and its closures alike. A
    /// declared kind's operations are the kind's, which were held to its
    /// closures before the solve ([`crate::verify::check_kind`]): nothing
    /// to watch there.
    fn join_inner(
        &mut self,
        enc: &[u64],
        id: u32,
        word: u64,
        spill: &mut SpillTable,
    ) -> Result<Option<(u32, u64)>, InsertFault> {
        debug_assert!(!is_local(word), "a round-local word is never joined");
        let (hash, found) = if id == NO_ID {
            let hash = hash_slots(enc);
            (hash, self.keys.find(hash, enc))
        } else {
            (0, Ok(id))
        };
        let at = match found {
            Ok(id) => {
                return Ok(self
                    .join_existing(id, word, spill)?
                    .map(|joined| (id, joined)))
            }
            Err(at) => at,
        };
        if self.words.is_slots() && !self.leq(word, word, spill)? {
            let value = self.decode(word, spill);
            return Err(InsertFault::Safety(Violation::NotReflexive(value)));
        }
        let id = self.keys.append(enc, hash, at)?;
        self.cells.push(word);
        self.decoded.forget();
        note_ascent(&mut self.ascent, id, true);
        Ok(Some((id, word)))
    }

    fn join_existing(
        &mut self,
        id: u32,
        word: u64,
        spill: &mut SpillTable,
    ) -> Result<Option<u64>, InsertFault> {
        let cell = self.cells[id as usize];
        if self.leq(word, cell, spill)? {
            note_ascent(&mut self.ascent, id, false);
            return Ok(None);
        }
        let joined = match self.words.lub(cell, word, spill) {
            Some(joined) => joined,
            None => {
                let (a, b) = (self.decode(cell, spill), self.decode(word, spill));
                let value = self.ops.try_lub(&a, &b)?;
                within_depth(&value, &self.ops, "lub")?;
                encode_mut(&value, spill)
            }
        };
        if self.words.is_slots()
            && (!self.leq(cell, joined, spill)? || !self.leq(word, joined, spill)?)
        {
            return Err(InsertFault::Safety(Violation::LubNotUpperBound(
                self.decode(cell, spill),
                self.decode(word, spill),
            )));
        }
        self.cells[id as usize] = joined;
        self.decoded.forget();
        note_ascent(&mut self.ascent, id, true);
        Ok(Some(joined))
    }

    /// Deletes cell `id` ([`Columns::remove`]): the last cell moves into
    /// its place, word and ascent counters with it.
    fn remove(&mut self, id: u32) {
        let last = self.keys.remove(id);
        self.cells.swap_remove(id as usize);
        self.decoded.forget();
        if let Some(ascent) = &mut self.ascent {
            let moved = ascent.remove(&last);
            if last != id {
                match moved {
                    Some(entry) => ascent.insert(id, entry),
                    None => ascent.remove(&id),
                };
            }
        }
    }

    /// Turns on per-cell ascent counting (idempotent; counters that
    /// already exist — e.g. cloned from a prior resume — are kept).
    pub(crate) fn enable_ascent(&mut self) {
        if self.ascent.is_none() {
            self.ascent = Some(FxHashMap::default());
        }
    }

    /// Iterates `(key, cell)` pairs, decoded, in id order: first-derived
    /// key order, but for cells a removal moved.
    pub(crate) fn iter<'a>(&'a self, spill: &SpillTable) -> CellsIter<'a> {
        CellsIter {
            keys: self.keys.rows(spill),
            cells: self.decoded(spill).iter(),
        }
    }

    /// Whether a public read decoded this predicate: its key arena, or
    /// its cells.
    #[cfg(any(test, feature = "test-internals"))]
    fn is_decoded(&self) -> bool {
        self.keys.flat.is_built() || self.decoded.is_built()
    }
}

/// Iterator over a lattice predicate's `(key, element)` cells, decoded,
/// in id order.
#[derive(Clone, Debug)]
pub(crate) struct CellsIter<'a> {
    keys: RowsIter<'a>,
    cells: std::slice::Iter<'a, Value>,
}

impl<'a> Iterator for CellsIter<'a> {
    type Item = (&'a [Value], &'a Value);

    fn next(&mut self) -> Option<(&'a [Value], &'a Value)> {
        Some((self.keys.next()?, self.cells.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl ExactSizeIterator for CellsIter<'_> {}

/// Storage for one predicate. (A lattice predicate's is the larger, by
/// its operations and cells; a database holds one per predicate in one
/// `Vec`, and boxing it would add an indirection to every atom step.)
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub(crate) enum PredData {
    Rel(RelationData),
    Lat(LatticeData),
}

impl PredData {
    /// The predicate's column store: a relation's tuples, or a lattice
    /// predicate's key tuples (kernel access).
    #[inline]
    pub(crate) fn columns(&self) -> &Columns {
        match self {
            PredData::Rel(r) => &r.rows,
            PredData::Lat(l) => &l.keys,
        }
    }

    fn columns_mut(&mut self) -> &mut Columns {
        match self {
            PredData::Rel(r) => &mut r.rows,
            PredData::Lat(l) => &mut l.keys,
        }
    }
}

/// The fact database: one [`PredData`] per declared predicate, plus the
/// shared [`SpillTable`] all encoded columns reference (shared so slots
/// are comparable *across* predicates — a join key bound from one
/// predicate probes another's index as a plain `u64`).
///
/// Index-probe and scan-fallback counters live with the evaluator (the
/// solver's per-rule profile), not here: each rule evaluation counts its
/// own probes locally, so workers never contend on shared counters.
///
/// `Clone` is the warm-start path of [`crate::incremental`]: resuming a
/// solve clones the prior solution's database instead of re-deriving it.
/// It copies the encoded columns, row sets and cells, shares every index
/// — complete — until the copy changes it ([`Columns`]' copy), and never
/// copies a decoded view: the copy builds its own if a public read asks.
/// The clone keeps the index configuration it was built with; a resume
/// under a different `use_indexes` setting stays correct because a
/// missing index is always a scan fallback, never a wrong probe.
#[derive(Clone, Debug)]
pub(crate) struct Database {
    preds: Vec<PredData>,
    spill: SpillTable,
}

impl Database {
    /// Creates an empty database for `program`, registering the requested
    /// indexes (unless `use_indexes` is false, the ablation configuration).
    pub(crate) fn for_program(program: &Program, use_indexes: bool) -> Database {
        let mut preds: Vec<PredData> = program
            .preds
            .iter()
            .map(|decl| match &decl.kind {
                PredKind::Relation => PredData::Rel(RelationData::new(decl.arity())),
                PredKind::Lattice(ops) => PredData::Lat(LatticeData::new(
                    ops.clone(),
                    decl.arity().saturating_sub(1),
                    &program.names,
                )),
            })
            .collect();
        if use_indexes {
            for (pred, col_sets) in &program.index_requests {
                for cols in col_sets {
                    preds[pred.0 as usize].columns_mut().ensure_index(cols);
                }
            }
        }
        Database {
            preds,
            spill: program.names.table().clone(),
        }
    }

    pub(crate) fn pred(&self, pred: PredId) -> &PredData {
        &self.preds[pred.0 as usize]
    }

    /// The shared spill side-table (read access for probe encoding).
    pub(crate) fn spill(&self) -> &SpillTable {
        &self.spill
    }

    /// Encodes a literal at kernel-compile time, interning or spilling it
    /// so the encoding stays canonical as the store grows afterwards.
    pub(crate) fn encode_literal(&mut self, v: &Value) -> u64 {
        encode_mut(v, &mut self.spill)
    }

    /// [`Database::encode_literal`] for an element of a lattice: its word.
    /// A rule literal is one ([`ProgramError::LiteralNotAnElement`]).
    ///
    /// [`ProgramError::LiteralNotAnElement`]: crate::ProgramError::LiteralNotAnElement
    pub(crate) fn encode_elem(&mut self, kind: &KindWords, v: &Value) -> u64 {
        (kind.encode_mut(v, &mut self.spill)).expect("a rule literal is an element")
    }

    /// The id of a stored fact, by its decoded identifying columns: a
    /// relation's whole tuple, a lattice cell's key.
    #[cfg(test)]
    pub(crate) fn id_of(&self, pred: PredId, fact: &[Value]) -> Option<u32> {
        self.pred(pred).columns().id_of(fact, &self.spill)
    }

    /// Deletes row or cell `id` of `pred` in place; the predicate's last
    /// row takes over the id ([`Columns::remove`]). The spill table keeps
    /// what the row had spilled — it is append-only, which is what keeps
    /// every encoding taken before the removal canonical after it.
    pub(crate) fn remove(&mut self, pred: PredId, id: u32) {
        match &mut self.preds[pred.0 as usize] {
            PredData::Rel(r) => {
                r.rows.remove(id);
            }
            PredData::Lat(l) => l.remove(id),
        }
    }

    /// The position of `pred`'s index on `cols`, registered now if the
    /// program never requested one ([`Columns::ensure_index`]).
    pub(crate) fn ensure_index(&mut self, pred: PredId, cols: &[usize]) -> usize {
        self.preds[pred.0 as usize].columns_mut().ensure_index(cols)
    }

    /// Brings `pred`'s index at `index` up to its rows
    /// ([`Columns::catch_up`]).
    pub(crate) fn catch_up(&mut self, pred: PredId, index: usize) {
        self.preds[pred.0 as usize].columns_mut().catch_up(index);
    }

    /// Drops every predicate at or past `keep`, returning the truncated
    /// database. The demand rewrite appends its `demand$` relations after
    /// the original predicates, so truncating to the original count
    /// strips all rewrite machinery while preserving predicate ids.
    pub(crate) fn truncated(mut self, keep: usize) -> Database {
        self.preds.truncate(keep);
        self
    }

    /// Total number of stored facts (rows plus non-bottom lattice cells) —
    /// the database-size proxy reported by the benchmark tables.
    pub(crate) fn total_facts(&self) -> usize {
        self.preds.iter().map(|p| p.columns().len()).sum()
    }

    pub(crate) fn len_of(&self, pred: PredId) -> usize {
        self.preds[pred.0 as usize].columns().len()
    }

    /// Turns on ascent counting for every lattice predicate.
    pub(crate) fn enable_ascent(&mut self) {
        for p in &mut self.preds {
            if let PredData::Lat(l) = p {
                l.enable_ascent();
            }
        }
    }

    /// Whether any lattice predicate is collecting ascent counters.
    pub(crate) fn ascent_enabled(&self) -> bool {
        self.preds
            .iter()
            .any(|p| matches!(p, PredData::Lat(l) if l.ascent.is_some()))
    }

    /// If lattice cell `id` of `pred` has reached `threshold` strict
    /// increases and has not warned yet, marks it warned and returns its
    /// height. The solver turns this into an
    /// [`crate::trace::AscentWarning`].
    pub(crate) fn ascent_crossed(&mut self, pred: PredId, id: u32, threshold: u64) -> Option<u64> {
        let PredData::Lat(l) = &mut self.preds[pred.0 as usize] else {
            return None;
        };
        let entry = l.ascent.as_mut()?.get_mut(&id)?;
        if entry.warned || entry.height < threshold {
            return None;
        }
        entry.warned = true;
        Some(entry.height)
    }

    /// Snapshot of every cell's ascent counters:
    /// `(predicate, key, joins, height, lattice-type name)`.
    pub(crate) fn ascent_cells(&self) -> Vec<(PredId, &[Value], u64, u64, &str)> {
        let mut out = Vec::new();
        for (i, p) in self.preds.iter().enumerate() {
            let PredData::Lat(l) = p else { continue };
            let Some(map) = &l.ascent else { continue };
            for (&id, e) in map {
                let key = l.key(id, &self.spill);
                out.push((PredId(i as u32), key, e.joins, e.height, l.ops.name()));
            }
        }
        out
    }

    /// The predicates a public read decoded since their last change
    /// ([`Columns::row`], [`LatticeData::decoded`]).
    #[cfg(any(test, feature = "test-internals"))]
    pub(crate) fn decoded_predicates(&self) -> Vec<PredId> {
        let decoded = |p: &PredData| match p {
            PredData::Rel(r) => r.rows.flat.is_built(),
            PredData::Lat(l) => l.is_decoded(),
        };
        (0..self.preds.len() as u32)
            .map(PredId)
            .filter(|&pred| decoded(self.pred(pred)))
            .collect()
    }

    /// Per predicate, the columns of each index in position order and
    /// whether it lags the predicate's rows.
    #[cfg(any(test, feature = "test-internals"))]
    pub(crate) fn indexes(&self) -> Vec<Vec<(Vec<usize>, bool)>> {
        let of = |cols: &Columns| -> Vec<(Vec<usize>, bool)> {
            let indexes = cols.indexes.iter().enumerate();
            indexes
                .map(|(at, i)| (i.on.clone(), cols.lags(at)))
                .collect()
        };
        self.preds.iter().map(|p| of(p.columns())).collect()
    }

    /// Inserts a decoded tuple, interpreting the last column as a lattice
    /// element for `lat` predicates: the entry of asserted facts and
    /// snapshot loads. Fails when the lattice operations panic or trip
    /// a safety sentinel (see [`LatticeData::join_inner`]), or when the
    /// predicate's `u32` row-id space is exhausted.
    pub(crate) fn insert(
        &mut self,
        pred: PredId,
        tuple: &[Value],
    ) -> Result<InsertOutcome, InsertFault> {
        let spill = &mut self.spill;
        match &mut self.preds[pred.0 as usize] {
            PredData::Rel(r) => r.insert(tuple, spill).map(InsertOutcome::of_row),
            PredData::Lat(l) => {
                let (value, key) = tuple
                    .split_last()
                    .expect("lattice predicates have arity >= 1");
                l.join(key, value.clone(), spill)
                    .map(InsertOutcome::of_cell)
            }
        }
    }

    /// [`Database::insert`] for a relational head already in encoded form
    /// (the kernel fast path). The slots must be canonical encodings
    /// produced against this database's spill table.
    #[inline]
    pub(crate) fn insert_rel(
        &mut self,
        pred: PredId,
        enc: &[u64],
    ) -> Result<InsertOutcome, InsertFault> {
        let PredData::Rel(r) = &mut self.preds[pred.0 as usize] else {
            unreachable!("compiled against predicate kinds");
        };
        r.insert_encoded(enc).map(InsertOutcome::of_row)
    }

    /// [`Database::insert`] for a lattice head whose key and element are
    /// already words (the kernel fast path). They must be canonical
    /// encodings produced against this database's spill table; `id` names
    /// the target cell when the kernel resolved it ([`NO_ID`] otherwise).
    pub(crate) fn join_lat(
        &mut self,
        pred: PredId,
        key: &[u64],
        id: u32,
        word: u64,
    ) -> Result<InsertOutcome, InsertFault> {
        let PredData::Lat(l) = &mut self.preds[pred.0 as usize] else {
            unreachable!("compiled against predicate kinds");
        };
        l.join_encoded(key, id, word, &mut self.spill)
            .map(InsertOutcome::of_cell)
    }

    /// The word `value` takes in column `col` of `pred`, interned: a
    /// lattice's element as a cell takes it, refused as a cell refuses it
    /// ([`LatticeData::join`]), and any other column's value as its slot.
    /// What the round's absorb gives a round-local word ([`Locals`]).
    pub(crate) fn intern(
        &mut self,
        pred: PredId,
        col: usize,
        value: &Value,
    ) -> Result<u64, InsertFault> {
        let spill = &mut self.spill;
        match &self.preds[pred.0 as usize] {
            PredData::Lat(l) if col == l.keys.arity() => l.word_mut(value, spill),
            _ => Ok(encode_mut(value, spill)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ValueLattice;
    use crate::ProgramBuilder;
    use flix_lattice::Parity;

    impl Database {
        /// Brings every index of every predicate up to its rows.
        fn catch_up_all(&mut self) {
            for p in 0..self.preds.len() {
                let indexes = self.preds[p].columns().indexes.len();
                for index in 0..indexes {
                    self.catch_up(PredId(p as u32), index);
                }
            }
        }
    }

    /// The cells of one lattice over one key column as a store of a
    /// program over it keeps them: the store's spill table starts from
    /// names that hold the lattice's ⊥, as [`Program`]'s do.
    fn cells_of(ops: LatticeOps) -> (LatticeData, SpillTable) {
        let mut names = Names::default();
        names.intern_value(ops.bottom());
        (LatticeData::new(ops, 1, &names), names.table().clone())
    }

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&n| Value::Int(n)).collect()
    }

    /// The decoded tuple of one stored fact: row `id` of a relation, or
    /// the key of lattice cell `id` followed by `raised` — the value one
    /// particular change reached — or, without it, by the cell's current
    /// value.
    fn fact_tuple(db: &Database, pred: PredId, id: u32, raised: Option<&Value>) -> Vec<Value> {
        let mut tuple = db.pred(pred).columns().row(id, db.spill()).to_vec();
        if let PredData::Lat(l) = db.pred(pred) {
            tuple.push(
                raised
                    .unwrap_or_else(|| &l.decoded(db.spill())[id as usize])
                    .clone(),
            );
        }
        tuple
    }

    /// Inserts through the decoded entry; the new row's id, if any.
    fn rel_insert(r: &mut RelationData, spill: &mut SpillTable, vals: &[i64]) -> Option<u32> {
        r.insert(&row(vals), spill).expect("no overflow")
    }

    #[test]
    fn relation_insert_dedups() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(2);
        assert_eq!(rel_insert(&mut r, &mut spill, &[1, 2]), Some(0));
        assert_eq!(rel_insert(&mut r, &mut spill, &[1, 2]), None);
        assert_eq!(rel_insert(&mut r, &mut spill, &[1, 3]), Some(1));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::Int(1), Value::Int(2)], &spill));
        assert_eq!(r.rows(&spill).count(), 2);
        assert_eq!(r.row(1, &spill), &[Value::Int(1), Value::Int(3)][..]);
    }

    #[test]
    fn relation_index_tracks_inserts() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(2);
        r.rows.ensure_index(&[0]);
        r.rows.ensure_index(&[0]);
        assert_eq!(r.rows.indexes.len(), 1, "registering twice is one index");
        rel_insert(&mut r, &mut spill, &[1, 2]);
        rel_insert(&mut r, &mut spill, &[1, 3]);
        rel_insert(&mut r, &mut spill, &[2, 4]);
        // The index lags until it catches up, and a probe of it scans.
        assert!(r.rows.probe(&[0], &[Value::Int(1)], &spill).is_none());
        r.rows.catch_up(0);
        let cols = r.columns();
        let hits = cols
            .probe(&[0], &[Value::Int(1)], &spill)
            .expect("index exists");
        assert_eq!(hits, &[0, 1]);
        let misses = cols
            .probe(&[0], &[Value::Int(9)], &spill)
            .expect("index exists");
        assert!(misses.is_empty());
        assert!(
            cols.probe(&[1], &[Value::Int(2)], &spill).is_none(),
            "no such index"
        );
        // The position a plan resolves once probes the same rows.
        let index = cols.index_of(&[0]).expect("registered");
        assert_eq!(cols.index_of(&[1]), None);
        let key = [try_encode(&Value::Int(2), &spill).expect("stored")];
        assert_eq!(cols.probe_encoded(index, &key), &[2]);
    }

    #[test]
    fn encoded_and_decoded_inserts_share_one_body() {
        // A row that went in decoded is found by the encoded entry and
        // the other way round; neither decodes, and the arena is built by
        // the first read and dropped by the next change.
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(2);
        let tuple = [Value::from("a"), Value::tag("T", Value::Int(1))];
        assert_eq!(r.insert(&tuple, &mut spill).expect("insert"), Some(0));
        let enc: Vec<u64> = tuple
            .iter()
            .map(|v| try_encode(v, &spill).expect("stored"))
            .collect();
        assert_eq!(r.insert_encoded(&enc).expect("insert"), None);
        assert!(!r.rows.flat.is_built());
        assert_eq!(r.row(0, &spill), &tuple[..]);
        assert!(r.rows.flat.is_built());
        let swapped = [enc[0], encode_mut(&Value::Int(9), &mut spill)];
        assert_eq!(r.insert_encoded(&swapped).expect("insert"), Some(1));
        assert!(!r.rows.flat.is_built(), "a change forgets the arena");
        assert_eq!(r.row(1, &spill), &[Value::from("a"), Value::Int(9)][..]);
        assert_eq!(
            r.insert(&[Value::from("a"), Value::Int(9)], &mut spill)
                .expect("insert"),
            None
        );
        assert!(r.rows.flat.is_built(), "no change, nothing forgotten");
        assert!(!r.clone().rows.flat.is_built(), "a copy starts without it");
    }

    #[test]
    fn insert_refuses_when_row_ids_run_out() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(1);
        // Simulate an at-capacity store; the guard fires before any
        // column is touched, so the inconsistent `len` is harmless here.
        r.rows.len = u32::MAX as usize;
        let fault = r.insert(&row(&[1]), &mut spill).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Safety(Violation::StoreFull(_))),
            "got {fault:?}"
        );
        // The encoded entry is the same body, so the same guard.
        let enc = [encode_mut(&Value::Int(2), &mut spill)];
        let fault = r.insert_encoded(&enc).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Safety(Violation::StoreFull(_))),
            "got {fault:?}"
        );
    }

    #[test]
    fn encoding_round_trips_and_spills() {
        let mut spill = SpillTable::default();
        let values = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-7),
            Value::Int(i64::MAX), // too wide for an inline slot: spills
            Value::from("encoded-string"),
            Value::tag("Fin", Value::Int(3)),
            Value::tuple([Value::Int(1), Value::from("x")]),
            Value::set([Value::Int(1), Value::Int(2)]),
        ];
        for v in &values {
            let slot = encode_mut(v, &mut spill);
            assert_eq!(&decode(slot, &spill), v, "round trip of {v}");
            assert_eq!(try_encode(v, &spill), Some(slot), "canonical re-encode");
        }
        // Equal values encode to equal slots (dedup), distinct to distinct.
        let a = encode_mut(&Value::tag("Fin", Value::Int(3)), &mut spill);
        let b = encode_mut(&Value::tag("Fin", Value::Int(4)), &mut spill);
        assert_eq!(a, encode_mut(&Value::tag("Fin", Value::Int(3)), &mut spill));
        assert_ne!(a, b);
        // A value never stored is unencodable read-only.
        assert_eq!(
            try_encode(&Value::tag("Nowhere", Value::Unit), &spill),
            None
        );
    }

    /// A sound join: the cell it raised, and the value it raised it to.
    fn join_ok(
        l: &mut LatticeData,
        spill: &mut SpillTable,
        key: &[Value],
        value: Value,
    ) -> Option<(u32, Value)> {
        let raised = l.join(key, value, spill).expect("lattice ops are sound");
        raised.map(|(id, word)| (id, l.decode(word, spill)))
    }

    #[test]
    fn lattice_join_is_compact() {
        let (mut l, mut spill) = cells_of(crate::LatticeOps::of::<Parity>());
        let key = row(&[7]);
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()),
            Some((0, Parity::Even.to_value()))
        );
        // Re-joining a smaller or equal element changes nothing.
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()),
            None
        );
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Bot.to_value()),
            None
        );
        // Joining an incomparable element lifts the single cell to Top.
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Odd.to_value()),
            Some((0, Parity::Top.to_value()))
        );
        assert_eq!(l.len(), 1, "one cell per key: compactness");
        assert_eq!(l.value(&key, &spill), Some(&Parity::Top.to_value()));
    }

    #[test]
    fn bottom_is_never_stored() {
        let (mut l, mut spill) = cells_of(crate::LatticeOps::of::<Parity>());
        assert_eq!(
            join_ok(&mut l, &mut spill, &row(&[1]), Parity::Bot.to_value()),
            None
        );
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn join_catches_panicking_ops() {
        let ops = crate::LatticeOps::from_fns(
            "Evil",
            Value::Int(0),
            None,
            |_, _| panic!("leq exploded"),
            |a, _| a.clone(),
            |a, _| a.clone(),
        );
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(ops, 1, &Names::default());
        let fault = l.join(&row(&[1]), Value::Int(3), &mut spill).unwrap_err();
        match fault {
            InsertFault::Panic(p) => {
                assert_eq!(p.function, "Evil.leq");
                assert_eq!(p.payload, "leq exploded");
            }
            other => panic!("expected panic fault, got {other:?}"),
        }
        assert_eq!(l.len(), 0, "faulted insert leaves no cell behind");
    }

    #[test]
    fn join_detects_lub_not_upper_bound() {
        // A "lub" that always returns its left argument is not an upper
        // bound of an incomparable right argument.
        let ops = crate::LatticeOps::from_fns(
            "BadLub",
            Value::Int(i64::MIN),
            None,
            |a, b| a.as_int() <= b.as_int(),
            |a, _| a.clone(),
            |a, b| {
                if a.as_int() <= b.as_int() {
                    a.clone()
                } else {
                    b.clone()
                }
            },
        );
        let (mut l, mut spill) = cells_of(ops);
        assert!(l
            .join(&row(&[1]), Value::Int(5), &mut spill)
            .expect("first join")
            .is_some());
        let fault = l.join(&row(&[1]), Value::Int(9), &mut spill).unwrap_err();
        assert!(
            matches!(
                fault,
                InsertFault::Safety(Violation::LubNotUpperBound(_, _))
            ),
            "got {fault:?}"
        );
    }

    #[test]
    fn join_detects_irreflexive_leq() {
        let ops = crate::LatticeOps::from_fns(
            "Irreflexive",
            Value::Int(i64::MIN),
            None,
            |a, b| a.as_int() < b.as_int(),
            |a, b| {
                if a.as_int() < b.as_int() {
                    b.clone()
                } else {
                    a.clone()
                }
            },
            |a, b| {
                if a.as_int() < b.as_int() {
                    a.clone()
                } else {
                    b.clone()
                }
            },
        );
        let (mut l, mut spill) = cells_of(ops);
        let fault = l.join(&row(&[1]), Value::Int(5), &mut spill).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Safety(Violation::NotReflexive(_))),
            "got {fault:?}"
        );
    }

    /// Every lattice the engine runs — each `impl ValueLattice`, and one
    /// of closures only whose ⊥ spills — keeps its cells as words: joining
    /// a sequence of elements into one cell stores the word of the
    /// closures' running lub, never ⊥'s, and a cell removed and joined
    /// again is the same word.
    #[test]
    fn every_lattice_stores_words() {
        use flix_lattice::{
            Constant, Flat, Interval, MinCost, PowerSet, Sign, SuLattice, Transformer,
        };
        fn lattice<L: ValueLattice>(
            elems: impl IntoIterator<Item = L>,
        ) -> (LatticeOps, Vec<Value>) {
            let elems = elems.into_iter().map(|e| e.to_value());
            (LatticeOps::of::<L>(), elems.collect())
        }
        let set =
            |items: &[i64]| -> PowerSet<Value> { items.iter().map(|&n| Value::Int(n)).collect() };
        let pick = |take_b: bool, a: &Value, b: &Value| if take_b { b.clone() } else { a.clone() };
        let max = LatticeOps::from_fns(
            "Max",
            Value::Int(i64::MIN),
            None,
            |a, b| a.as_int() <= b.as_int(),
            move |a, b| pick(a.as_int() < b.as_int(), a, b),
            move |a, b| pick(b.as_int() < a.as_int(), a, b),
        );
        let table = [
            lattice([Parity::Bot, Parity::Even, Parity::Bot, Parity::Odd]),
            lattice([Sign::Zer, Sign::Bot, Sign::Pos, Sign::Neg]),
            lattice([
                Constant::cst(3),
                Flat::Bot,
                Constant::cst(3),
                Constant::cst(4),
            ]),
            lattice([
                Interval::of(0, 1),
                Interval::Bot,
                Interval::of(5, 9),
                Interval::of(-3, 2),
            ]),
            lattice([
                MinCost::finite(9),
                MinCost::INFINITY,
                MinCost::finite(4),
                MinCost::finite(6),
            ]),
            lattice([
                SuLattice::single("a"),
                SuLattice::Bottom,
                SuLattice::single("a"),
                SuLattice::single("b"),
            ]),
            lattice([
                Transformer::linear(2, 1),
                Transformer::Bot,
                Transformer::non_bot(2, 1, Constant::cst(1)),
                Transformer::identity(),
            ]),
            lattice([set(&[1]), PowerSet::Empty, set(&[2, 3]), set(&[1, 3])]),
            (max, [5, i64::MIN, 3, 7].map(Value::Int).to_vec()),
        ];
        for (ops, samples) in table {
            let name = ops.name().to_string();
            let (mut l, mut spill) = cells_of(ops.clone());
            let key = row(&[1]);
            let mut lub = ops.bottom().clone();
            for v in samples {
                lub = ops.lub(&lub, &v);
                l.join(&key, v, &mut spill).expect("lawful");
                let cells = &l.cells;
                assert_eq!(cells.len(), !ops.is_bottom(&lub) as usize, "{name}");
                assert!(cells.iter().all(|&w| w != l.words().bottom()), "{name}: ⊥");
                let stored = cells.first().map(|&w| l.decode(w, &spill));
                assert_eq!(
                    stored.unwrap_or_else(|| ops.bottom().clone()),
                    lub,
                    "{name}"
                );
            }
            let cell = l.cell(0);
            l.remove(0);
            assert_eq!(l.len(), 0, "{name}");
            let again = l.join(&key, lub, &mut spill).expect("lawful");
            assert_eq!(again, Some((0, cell)), "{name}");
        }
    }

    #[test]
    fn ascent_counters_track_joins_and_heights() {
        let (mut l, mut spill) = cells_of(crate::LatticeOps::of::<Parity>());
        l.enable_ascent();
        let key = row(&[7]);
        join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()); // height 1
        join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()); // no change
        join_ok(&mut l, &mut spill, &key, Parity::Odd.to_value()); // -> Top, height 2
        {
            let id = l.keys.id_of(&key, &spill).expect("stored");
            let map = l.ascent.as_ref().expect("enabled");
            let entry = map.get(&id).expect("tracked");
            assert_eq!(entry.joins, 3);
            assert_eq!(entry.height, 2);
        }
        // Bottom joins are filtered before counting.
        join_ok(&mut l, &mut spill, &key, Parity::Bot.to_value());
        assert_eq!(l.ascent.as_ref().expect("enabled").len(), 1);
    }

    #[test]
    fn ascent_crossed_warns_once_per_cell() {
        let mut b = ProgramBuilder::new();
        let iv = b.lattice("IntVar", 2, crate::LatticeOps::of::<Parity>());
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        db.enable_ascent();
        assert!(db.ascent_enabled());
        let first = db
            .insert(iv, &[Value::from("x"), Parity::Odd.to_value()])
            .expect("insert");
        let InsertOutcome::LatIncrease(id, _) = first else {
            panic!("a new cell is an increase, got {first:?}");
        };
        db.insert(iv, &[Value::from("x"), Parity::Even.to_value()])
            .expect("insert");
        assert_eq!(db.ascent_crossed(iv, id, 3), None, "below threshold");
        assert_eq!(db.ascent_crossed(iv, id, 2), Some(2));
        assert_eq!(db.ascent_crossed(iv, id, 2), None, "warns once");
        let cells = db.ascent_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].1, &[Value::from("x")][..], "key");
        assert_eq!(cells[0].2, 2, "joins");
        assert_eq!(cells[0].3, 2, "height");
        assert_eq!(cells[0].4, "Parity");
    }

    #[test]
    fn database_insert_dispatches_by_kind() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let iv = b.lattice("IntVar", 2, crate::LatticeOps::of::<Parity>());
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        let outcome = |r: Result<InsertOutcome, InsertFault>| r.expect("sound ops");

        let one_two = [Value::Int(1), Value::Int(2)];
        assert_eq!(outcome(db.insert(e, &one_two)), InsertOutcome::NewRow(0));
        assert_eq!(outcome(db.insert(e, &one_two)), InsertOutcome::Unchanged);
        assert_eq!(
            outcome(db.insert(e, &[Value::Int(2), Value::Int(3)])),
            InsertOutcome::NewRow(1)
        );
        // A change carries the id of its row, and — for a cell — the
        // value it reached; the tuple is read back from the store.
        let x_odd = [Value::from("x"), Parity::Odd.to_value()];
        let word = |db: &mut Database, p: Parity| db.encode_literal(&p.to_value());
        let outcome_odd = outcome(db.insert(iv, &x_odd));
        assert_eq!(
            outcome_odd,
            InsertOutcome::LatIncrease(0, word(&mut db, Parity::Odd))
        );
        assert_eq!(outcome(db.insert(iv, &x_odd)), InsertOutcome::Unchanged);
        let outcome_top = outcome(db.insert(iv, &[Value::from("x"), Parity::Even.to_value()]));
        assert_eq!(
            outcome_top,
            InsertOutcome::LatIncrease(0, word(&mut db, Parity::Top))
        );
        assert_eq!(
            fact_tuple(&db, e, 1, None),
            vec![Value::Int(2), Value::Int(3)]
        );
        assert_eq!(
            fact_tuple(&db, iv, 0, None),
            vec![Value::from("x"), Parity::Top.to_value()]
        );
        assert_eq!(
            fact_tuple(&db, iv, 0, Some(&Parity::Odd.to_value())),
            x_odd.to_vec(),
            "the value one change reached, not the current cell"
        );
        // The encoded entries report the same ids.
        let enc: Vec<u64> = one_two
            .iter()
            .map(|v| try_encode(v, db.spill()).expect("stored"))
            .collect();
        assert_eq!(outcome(db.insert_rel(e, &enc)), InsertOutcome::Unchanged);
        assert_eq!(
            outcome(db.insert_rel(e, &[enc[1], enc[0]])),
            InsertOutcome::NewRow(2)
        );
        let y = [db.encode_literal(&Value::from("y"))];
        let [even, odd, top, bot] =
            [Parity::Even, Parity::Odd, Parity::Top, Parity::Bot].map(|p| word(&mut db, p));
        assert_eq!(
            outcome(db.join_lat(iv, &y, NO_ID, even)),
            InsertOutcome::LatIncrease(1, even)
        );
        assert_eq!(
            outcome(db.join_lat(iv, &y, 1, odd)),
            InsertOutcome::LatIncrease(1, top)
        );
        assert_eq!(
            outcome(db.join_lat(iv, &y, NO_ID, bot)),
            InsertOutcome::Unchanged
        );
        assert_eq!(db.total_facts(), 5);
        assert_eq!(db.len_of(e), 3);
        assert_eq!(db.len_of(iv), 2);
    }

    /// A relation `R(a, b, c)` and a lattice predicate `L(k1, k2; MinCost)`,
    /// each with two indexes — on column 0 and on column 1 — and ascent
    /// counters on: the store [`Columns::remove`] is checked on.
    fn removal_store() -> (Database, PredId, PredId) {
        let mut b = ProgramBuilder::new();
        let r = b.relation("R", 3);
        let l = b.lattice("L", 3, crate::LatticeOps::of::<flix_lattice::MinCost>());
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        for pred in [r, l] {
            db.ensure_index(pred, &[0]);
            db.ensure_index(pred, &[1]);
        }
        db.enable_ascent();
        (db, r, l)
    }

    /// One column value out of a small domain that covers every encoding:
    /// inline integers, and spilled strings, tags and tuples.
    fn column_value(n: usize) -> Value {
        match n % 4 {
            0 => Value::Int(n as i64),
            1 => Value::from(format!("s{n}")),
            2 => Value::tag("T", Value::Int(n as i64)),
            _ => Value::tuple([Value::Int(n as i64), Value::from("t")]),
        }
    }

    /// What the store must hold: per identifying tuple, the cell value
    /// (lattice predicates) and the joins the cell has absorbed.
    type Mirror = std::collections::BTreeMap<Vec<Value>, (Option<Value>, u64)>;

    /// Every invariant of one predicate's store against its mirror, and
    /// against the tuples `gone` that were removed and not put back, once
    /// its indexes have caught up.
    fn assert_store_is(db: &mut Database, pred: PredId, mirror: &Mirror, gone: &[Vec<Value>]) {
        db.catch_up_all();
        let db = &*db;
        let cols = db.pred(pred).columns();
        assert_eq!(cols.len(), mirror.len());
        assert_eq!(cols.set.len, mirror.len());
        assert_eq!(cols.decoded(db.spill()).len(), mirror.len() * cols.arity);
        assert!(cols.cols.iter().all(|col| col.len() == mirror.len()));
        let mut ids = Vec::new();
        for (fact, (cell, joins)) in mirror {
            let id = db.id_of(pred, fact).expect("a surviving tuple is found");
            assert_eq!(cols.row(id, db.spill()), fact.as_slice());
            for (c, v) in fact.iter().enumerate() {
                assert_eq!(Some(cols.col(c)[id as usize]), try_encode(v, db.spill()));
            }
            if let PredData::Lat(lat) = db.pred(pred) {
                let decoded = &lat.decoded(db.spill())[id as usize];
                assert_eq!(Some(decoded), cell.as_ref(), "cell of {fact:?}");
                let entry = &lat.ascent.as_ref().expect("enabled")[&id];
                assert_eq!(entry.joins, *joins, "joins of {fact:?}");
            }
            ids.push(id);
        }
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(0..mirror.len() as u32),
            "ids are dense"
        );
        if let PredData::Lat(lat) = db.pred(pred) {
            assert_eq!(lat.decoded(db.spill()).len(), mirror.len());
            assert_eq!(lat.ascent.as_ref().expect("enabled").len(), mirror.len());
        }
        for fact in gone {
            assert_eq!(db.id_of(pred, fact), None, "{fact:?} was removed");
        }
        // Every index files exactly the matching rows, ascending.
        assert_eq!(cols.indexes.len(), 2);
        for (at, index) in cols.indexes.iter().enumerate() {
            let scanned = scanned_groups(&index.on, &cols.cols);
            assert_eq!(groups_by_key(index, &cols.cols), scanned);
            for (key, ids) in &scanned {
                assert_eq!(cols.probe_encoded(at, key), ids.as_slice());
            }
        }
        // Set-equal to a store the survivors were inserted into.
        let (mut fresh, r, l) = removal_store();
        let same = if pred == r { r } else { l };
        for (fact, (cell, _)) in mirror {
            let mut tuple = fact.clone();
            tuple.extend(cell.clone());
            fresh.insert(same, &tuple).expect("insert");
        }
        let contents = |db: &Database| {
            let cols = db.pred(same).columns();
            let mut rows: Vec<Vec<Value>> = (0..cols.len() as u32)
                .map(|id| fact_tuple(db, same, id, None))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(contents(db), contents(&fresh));
    }

    /// Inserts `fact` (for the lattice predicate: joins `cost` into its
    /// cell) into the store and the mirror.
    fn mirrored_insert(
        db: &mut Database,
        pred: PredId,
        mirror: &mut Mirror,
        fact: &[Value],
        cost: Option<u64>,
    ) {
        use flix_lattice::MinCost;
        let mut tuple = fact.to_vec();
        tuple.extend(cost.map(|c| MinCost::finite(c).to_value()));
        db.insert(pred, &tuple).expect("insert");
        let (cell, joins) = mirror.entry(fact.to_vec()).or_insert((None, 0));
        *joins += 1;
        if let Some(cost) = cost {
            let held = cell.as_ref().map(MinCost::expect_from);
            let best = held.map_or(cost, |h| h.value().expect("finite").min(cost));
            *cell = Some(MinCost::finite(best).to_value());
        }
    }

    fn mirrored_remove(db: &mut Database, pred: PredId, mirror: &mut Mirror, fact: &[Value]) {
        let id = db.id_of(pred, fact).expect("stored");
        db.remove(pred, id);
        mirror.remove(fact).expect("mirrored");
    }

    #[test]
    fn removal_of_the_last_the_only_and_a_bucket_sharing_row() {
        let (mut db, r, l) = removal_store();
        let fact = |a: usize, b: usize, c: usize| {
            vec![column_value(a), column_value(b), Value::Int(c as i64)]
        };
        for pred in [r, l] {
            let cost = (pred == l).then_some(3);
            let width = if pred == l { 2 } else { 3 };
            let fact = |a, b, c| -> Vec<Value> { fact(a, b, c)[..width].to_vec() };
            let mut mirror = Mirror::new();
            // The only row.
            let only = fact(2, 3, 0);
            mirrored_insert(&mut db, pred, &mut mirror, &only, cost);
            mirrored_remove(&mut db, pred, &mut mirror, &only);
            assert_store_is(&mut db, pred, &mirror, std::slice::from_ref(&only));
            // The last row: nothing moves.
            let rows = [fact(1, 5, 1), fact(1, 6, 2), fact(2, 6, 3), fact(1, 7, 4)];
            for row in &rows {
                mirrored_insert(&mut db, pred, &mut mirror, row, cost);
            }
            mirrored_remove(&mut db, pred, &mut mirror, &rows[3]);
            assert_store_is(&mut db, pred, &mirror, &[only.clone(), rows[3].clone()]);
            // Row 0 shares its column-0 list with the row that moves into
            // its place (row 1 does, too, and stays), and shares nothing
            // on column 1.
            mirrored_insert(&mut db, pred, &mut mirror, &rows[3], cost);
            mirrored_remove(&mut db, pred, &mut mirror, &rows[0]);
            assert_store_is(&mut db, pred, &mirror, &[only.clone(), rows[0].clone()]);
            assert_eq!(db.id_of(pred, &rows[3]), Some(0), "the last row moved");
            // Room left by removals is taken up again.
            mirrored_insert(&mut db, pred, &mut mirror, &rows[0], cost);
            assert_store_is(&mut db, pred, &mirror, &[only]);
        }
    }

    #[test]
    fn random_inserts_and_removals_keep_the_store_consistent() {
        use flix_lattice::rng::SmallRng;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed + 0xDE1);
            let (mut db, r, l) = removal_store();
            let mut mirrors = [Mirror::new(), Mirror::new()];
            let mut gone: [Vec<Vec<Value>>; 2] = [Vec::new(), Vec::new()];
            let mut removals = 0;
            for _ in 0..400 {
                let which = rng.index(2);
                let (pred, mirror, gone) = ([r, l][which], &mut mirrors[which], &mut gone[which]);
                // Few distinct values per column: index lists fill up, and
                // an insert often hits a stored tuple.
                let mut fact = vec![column_value(rng.index(6)), column_value(rng.index(6))];
                if pred == r {
                    fact.push(Value::Int(rng.gen_range(0..3i64)));
                }
                if !mirror.is_empty() && rng.gen_bool(0.45) {
                    let victim = mirror
                        .keys()
                        .nth(rng.index(mirror.len()))
                        .expect("in range");
                    let victim = victim.clone();
                    mirrored_remove(&mut db, pred, mirror, &victim);
                    gone.push(victim);
                    removals += 1;
                } else {
                    let cost = (pred == l).then(|| rng.gen_range(1..9u64));
                    mirrored_insert(&mut db, pred, mirror, &fact, cost);
                    gone.retain(|g| *g != fact);
                }
                assert_store_is(&mut db, pred, mirror, gone);
            }
            assert!(removals > 100, "seed {seed}: {removals} removals");
        }
    }

    /// A test-only row hash for keys that stand in for rows: sixteen tags,
    /// `12 + key % 4 + 16 * (key / 4 % 4)`, each shared by every sixteenth
    /// key, so a lookup also meets rows whose tag matches and whose key
    /// does not. Up to 16 slots the homes are 12 to 15: one probe run of
    /// rows from four neighbouring homes, wrapping past the end; at 64,
    /// four such runs.
    fn colliding(key: u64) -> u64 {
        (12 + key % 4 + 16 * (key / 4 % 4)) << 32 | key
    }

    /// What [`Columns::find`] asks of the set, over `keys` as the rows,
    /// counting the rows read: each must carry `key`'s tag.
    fn find(set: &RowSet, keys: &[u64], key: u64, reads: &std::cell::Cell<usize>) -> Option<u32> {
        set.lookup(colliding(key), |id| {
            let row = keys[id as usize];
            let tag = |key| colliding(key) >> 32;
            assert_eq!(tag(row), tag(key), "row {row} read for {key}: another tag");
            reads.set(reads.get() + 1);
            row == key
        })
    }

    /// Every slot is reachable from its home without crossing an empty one.
    fn assert_runs_intact(set: &RowSet) {
        let mask = set.slots.len() - 1;
        for (at, &slot) in set.slots.iter().enumerate() {
            if slot == EMPTY_SLOT {
                continue;
            }
            let mut i = home(slot, mask);
            while i != at {
                assert_ne!(set.slots[i], EMPTY_SLOT, "slot {at} cut off from its home");
                i = (i + 1) & mask;
            }
        }
    }

    #[test]
    fn row_set_lookups_and_growth_under_colliding_tags() {
        let reads = std::cell::Cell::new(0);
        let mut set = RowSet::default();
        let keys: Vec<u64> = (0..48).collect();
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(find(&set, &keys, key, &reads), None);
            set.insert_new(colliding(key), id as u32);
            assert_runs_intact(&set);
            for (other, &stored) in keys[..=id].iter().enumerate() {
                assert_eq!(find(&set, &keys, stored, &reads), Some(other as u32));
            }
        }
        assert_eq!((set.len, set.slots.len()), (48, 64), "grown at 7/8 load");
        // A tag no row has reads no row, however long the run it walks;
        // a tag rows share reads those rows only.
        let absent = (12 + 16 * 4) << 32;
        assert_eq!(set.lookup(absent, |_| unreachable!("a row was read")), None);
        reads.set(0);
        assert_eq!(find(&set, &keys, 48, &reads), None);
        assert_eq!(reads.get(), 3, "the rows of key 48's tag: 0, 16, 32");
    }

    #[test]
    fn row_set_removal_by_backward_shift_under_colliding_tags() {
        use flix_lattice::rng::SmallRng;
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A6);
            let reads = std::cell::Cell::new(0);
            let mut set = RowSet::default();
            // Row `id` is `keys[id]`; a removal moves the last row into the
            // hole and renumbers its slot, as `Columns::remove` does.
            let mut keys: Vec<u64> = (0..40).collect();
            for (id, &key) in keys.iter().enumerate() {
                set.insert_new(colliding(key), id as u32);
            }
            let (mut gone, mut refilled) = (Vec::new(), false);
            while !keys.is_empty() {
                let id = rng.index(keys.len());
                let last = keys.len() - 1;
                set.remove(colliding(keys[id]), id as u32);
                if id != last {
                    set.renumber(colliding(keys[last]), last as u32, id as u32);
                }
                gone.push(keys.swap_remove(id));
                assert_runs_intact(&set);
                assert_eq!(set.len, keys.len());
                for (id, &key) in keys.iter().enumerate() {
                    assert_eq!(
                        find(&set, &keys, key, &reads),
                        Some(id as u32),
                        "seed {seed}"
                    );
                }
                for &key in &gone {
                    assert_eq!(find(&set, &keys, key, &reads), None, "seed {seed}");
                }
                // Room left by removals is taken up again.
                if keys.len() == 20 && !refilled {
                    refilled = true;
                    let key = gone.pop().expect("removed");
                    set.insert_new(colliding(key), keys.len() as u32);
                    keys.push(key);
                }
            }
            assert!(set.slots.iter().all(|&slot| slot == EMPTY_SLOT));
        }
    }

    /// The key hash of the index tests that make keys collide:
    /// [`colliding`] of a one-column key.
    #[derive(Clone, Debug)]
    struct CollidingHash;

    impl KeyHash for CollidingHash {
        fn hash(mut key: impl ExactSizeIterator<Item = u64>) -> u64 {
            assert_eq!(key.len(), 1, "one-column keys");
            colliding(key.next().expect("one column"))
        }
    }

    type Groups = std::collections::BTreeMap<Vec<u64>, Vec<u32>>;

    /// The rows of `cols` grouped by their slots in the columns `on`,
    /// by scan.
    fn scanned_groups(on: &[usize], cols: &[Vec<u64>]) -> Groups {
        let mut groups = Groups::new();
        for id in 0..cols[0].len() as u32 {
            let key = on.iter().map(|&c| cols[c][id as usize]).collect();
            groups.entry(key).or_default().push(id);
        }
        groups
    }

    /// Every group of `index` by its key, once the index's invariants
    /// hold: one `keys` slot per group, which a probe of the group's key
    /// finds; ids ascending and sharing that key; no group empty, and no
    /// `Many` of fewer than two ids.
    fn groups_by_key<H: KeyHash>(index: &Index<H>, cols: &[Vec<u64>]) -> Groups {
        assert_eq!(index.keys.len, index.groups.len(), "one slot per group");
        let mut groups = Groups::new();
        for ids in &index.groups {
            if let Ids::Many(many) = ids {
                assert!(many.len() >= 2, "a Many of {many:?}");
            }
            let ids = ids.as_slice();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?} ascend");
            let key_of =
                |id: u32| -> Vec<u64> { index.on.iter().map(|&c| cols[c][id as usize]).collect() };
            let key = key_of(ids[0]);
            assert!(
                ids.iter().all(|&id| key_of(id) == key),
                "{ids:?} share a key"
            );
            assert_eq!(index.probe(cols, &key), ids, "found from its key");
            assert!(
                groups.insert(key, ids.to_vec()).is_none(),
                "one group per key"
            );
        }
        groups
    }

    /// What [`Columns::remove`] does to one index over one column: the
    /// index first, while both rows are stored, then the column.
    fn remove_row(index: &mut Index<CollidingHash>, cols: &mut [Vec<u64>], id: u32) {
        let last = cols[0].len() as u32 - 1;
        index.remove(cols, id, last);
        cols[0].swap_remove(id as usize);
    }

    #[test]
    fn index_groups_under_colliding_tags() {
        // Row `id` has the key `cols[0][id]`. Keys 0, 16, 32 and 48 share
        // a tag, as do 5, 21 and 37, and the homes of all of them are 12
        // to 15 up to 16 slots: probe runs of groups whose tags collide.
        // Rows 2 and 11 share the key of the row before them, and are
        // filed in the recent group without a lookup.
        let rows = [
            0, 16, 16, 0, 32, 5, 21, 16, 0, 37, 5, 5, 48, 3, 19, 7, 1, 2, 0,
        ];
        let mut cols = vec![Vec::new()];
        let mut index = Index::<CollidingHash>::new(&[0]);
        let absent = [64, 53, 8];
        for (id, &key) in rows.iter().enumerate() {
            cols[0].push(key);
            index.file(&cols, id as u32);
            assert_eq!(groups_by_key(&index, &cols), scanned_groups(&[0], &cols));
            for key in absent {
                assert_eq!(index.probe(&cols, &[key]), &[] as &[u32], "{key}");
            }
        }
        assert_eq!(index.probe(&cols, &[0]), &[0, 3, 8, 18]);
        assert_eq!(index.probe(&cols, &[5]), &[5, 10, 11]);
        assert_eq!(index.probe(&cols, &[48]), &[12]);
        assert_eq!(index.groups.len(), 12);

        // A singleton group that is not the last: the last group takes its
        // number, and its `keys` slot is renumbered to it.
        let (_, group) = index.find_row(&cols, 4);
        let group = group.expect("filed");
        assert_eq!(index.groups[group].as_slice(), &[4]);
        let last_group = index.groups.last().expect("groups").as_slice().to_vec();
        remove_row(&mut index, &mut cols, 4);
        assert_eq!(groups_by_key(&index, &cols), scanned_groups(&[0], &cols));
        assert_eq!(
            index.probe(&cols, &[32]),
            &[] as &[u32],
            "32's only row went"
        );
        assert_eq!(index.groups[group].as_slice(), last_group);
        // The row that moved into 4 was the store's last, of key 0.
        assert_eq!(index.probe(&cols, &[0]), &[0, 3, 4, 8]);

        // The last row of a `Many` group, itself the store's last row:
        // nothing moves, and the group is left with one row.
        assert_eq!(cols[0].last(), Some(&2));
        cols[0].push(2);
        index.file(&cols, cols[0].len() as u32 - 1);
        assert_eq!(index.probe(&cols, &[2]), &[17, 18]);
        remove_row(&mut index, &mut cols, 18);
        assert_eq!(groups_by_key(&index, &cols), scanned_groups(&[0], &cols));
        assert!(matches!(
            index.find_row(&cols, 17).1.map(|g| &index.groups[g]),
            Some(Ids::One(17))
        ));

        // Seeded removals down to nothing, with rows put back along the way,
        // each checked against a scan, and the index built again from the
        // surviving rows: the same groups, one slot each.
        for seed in 0..4u64 {
            let mut rng = flix_lattice::rng::SmallRng::seed_from_u64(seed ^ 0x1D6);
            let (mut cols, mut index) = (cols.clone(), index.clone());
            let mut refills = 6;
            while !cols[0].is_empty() {
                if refills > 0 && rng.gen_bool(0.3) {
                    refills -= 1;
                    cols[0].push(rows[rng.index(rows.len())]);
                    index.file(&cols, cols[0].len() as u32 - 1);
                } else {
                    let id = rng.index(cols[0].len()) as u32;
                    remove_row(&mut index, &mut cols, id);
                }
                let groups = groups_by_key(&index, &cols);
                assert_eq!(groups, scanned_groups(&[0], &cols), "seed {seed}");
                let mut rebuilt = Index::<CollidingHash>::new(&[0]);
                for id in 0..cols[0].len() as u32 {
                    rebuilt.file(&cols, id);
                }
                assert_eq!(groups_by_key(&rebuilt, &cols), groups, "seed {seed}");
                for key in absent
                    .iter()
                    .chain(&[32])
                    .filter(|k| !groups.contains_key(&vec![**k]))
                {
                    assert_eq!(index.probe(&cols, &[*key]), &[] as &[u32], "seed {seed}");
                }
            }
            assert_eq!((index.keys.len, index.groups.len()), (0, 0));
            assert!(index.keys.slots.iter().all(|&slot| slot == EMPTY_SLOT));
        }
    }

    #[test]
    fn ensure_index_after_removals_equals_one_built_from_scratch() {
        let (mut db, r, _) = removal_store();
        let fact = |a: usize, b: usize| vec![column_value(a), column_value(b), Value::Int(0)];
        for n in 0..24 {
            db.insert(r, &fact(n % 5, n % 7)).expect("insert");
        }
        for (a, b) in [(0, 0), (3, 3), (1, 1), (4, 4), (2, 2)] {
            let id = db.id_of(r, &fact(a, b)).expect("stored");
            db.remove(r, id);
        }
        let at = db.ensure_index(r, &[0, 1]);
        assert!(db.pred(r).columns().lags(at), "registered empty");
        db.catch_up(r, at);
        let cols = db.pred(r).columns();
        let grown = groups_by_key(&cols.indexes[at], &cols.cols);
        assert_eq!(grown, scanned_groups(&[0, 1], &cols.cols));
        for (on, index) in [(&[0][..], 0), (&[1][..], 1)] {
            let mut scratch = Index::<SlotHash>::new(on);
            for id in 0..cols.len() as u32 {
                scratch.file(&cols.cols, id);
            }
            let kept = groups_by_key(&cols.indexes[index], &cols.cols);
            assert_eq!(kept, groups_by_key(&scratch, &cols.cols), "{on:?}");
        }
    }

    /// Every field of two indexes that filed the same rows.
    fn assert_same_index(a: &Index, b: &Index, what: &str) {
        assert_eq!(a.on, b.on, "{what}");
        assert_eq!(a.keys.len, b.keys.len, "{what}: keys");
        assert_eq!(a.keys.slots, b.keys.slots, "{what}: keys");
        let groups = |index: &Index| -> Vec<Vec<u32>> {
            index
                .groups
                .iter()
                .map(|ids| ids.as_slice().to_vec())
                .collect()
        };
        assert_eq!(groups(a), groups(b), "{what}: groups");
        assert_eq!(a.recent, b.recent, "{what}: recent");
    }

    #[test]
    fn a_batch_leaves_every_index_as_filing_row_by_row_does() {
        use flix_lattice::rng::SmallRng;
        use flix_lattice::MinCost;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C);
            // `batched` takes each batch through the encoded entries and
            // catches its indexes up once, at the end; `single` catches
            // them up after every row.
            let (mut batched, r, l) = removal_store();
            let (mut single, _, _) = removal_store();
            let kind = match batched.pred(l) {
                PredData::Lat(lat) => lat.words().clone(),
                PredData::Rel(_) => unreachable!("a lattice"),
            };
            let mut removals = 0;
            for _ in 0..40 {
                let mut rows = Vec::new();
                for _ in 0..rng.index(12) {
                    let pred = [r, l][rng.index(2)];
                    let mut fact = vec![column_value(rng.index(6)), column_value(rng.index(6))];
                    fact.push(match pred == r {
                        true => Value::Int(rng.gen_range(0..3i64)),
                        false => MinCost::finite(rng.gen_range(1..9u64)).to_value(),
                    });
                    rows.push((pred, fact));
                }
                let encoded: Vec<Vec<u64>> = rows
                    .iter()
                    .map(|(pred, fact)| {
                        let (value, key) = fact.split_last().expect("three columns");
                        let mut enc: Vec<u64> =
                            key.iter().map(|v| batched.encode_literal(v)).collect();
                        enc.push(match *pred == r {
                            true => batched.encode_literal(value),
                            false => batched.encode_elem(&kind, value),
                        });
                        enc
                    })
                    .collect();
                let filed = |db: &Database, pred: PredId| -> Vec<usize> {
                    let indexes = &db.pred(pred).columns().indexes;
                    indexes.iter().map(|index| index.filed).collect()
                };
                let before = [filed(&batched, r), filed(&batched, l)];
                for ((pred, fact), enc) in rows.iter().zip(&encoded) {
                    let outcome = match *pred == r {
                        true => batched.insert_rel(r, enc),
                        false => batched.join_lat(l, &enc[..2], NO_ID, enc[2]),
                    };
                    let expected = single.insert(*pred, fact).expect("sound ops");
                    single.catch_up_all();
                    assert_eq!(outcome.expect("sound ops"), expected, "seed {seed}");
                }
                // Stored at once, filed when caught up.
                let after = [filed(&batched, r), filed(&batched, l)];
                assert_eq!(after, before, "seed {seed}");
                batched.catch_up_all();
                for pred in [r, l] {
                    let (ours, theirs) =
                        (batched.pred(pred).columns(), single.pred(pred).columns());
                    for index in 0..ours.indexes.len() {
                        assert!(!ours.lags(index), "seed {seed}");
                    }
                    assert_eq!(ours.cols, theirs.cols, "seed {seed}");
                    for (a, b) in ours.indexes.iter().zip(&theirs.indexes) {
                        assert_same_index(a, b, &format!("seed {seed}, {pred:?}"));
                    }
                }
                // Removals between batches, the same in both stores.
                for pred in [r, l] {
                    let len = batched.len_of(pred) as u32;
                    if len > 0 && rng.gen_bool(0.5) {
                        let id = rng.index(len as usize) as u32;
                        batched.remove(pred, id);
                        single.remove(pred, id);
                        removals += 1;
                    }
                }
            }
            assert!(removals > 10, "seed {seed}: {removals} removals");
        }
    }

    /// Index `index` of `pred` holds exactly the rows a scan groups
    /// under its key, and a public probe of a stored key finds them.
    fn assert_index_is_scanned(db: &Database, pred: PredId, index: usize, what: &str) {
        let cols = db.pred(pred).columns();
        let on = &cols.indexes[index].on;
        let scanned = scanned_groups(on, &cols.cols);
        assert_eq!(
            groups_by_key(&cols.indexes[index], &cols.cols),
            scanned,
            "{what}"
        );
        let mut fresh = Index::<SlotHash>::new(on);
        fresh.catch_up(&cols.cols, cols.len());
        assert_eq!(groups_by_key(&fresh, &cols.cols), scanned, "{what}");
        for (key, ids) in &scanned {
            let key: Vec<Value> = key.iter().map(|&w| decode(w, db.spill())).collect();
            let hits = cols.probe(on, &key, db.spill());
            assert_eq!(hits, Some(ids.as_slice()), "{what}");
        }
    }

    #[test]
    fn indexes_lag_until_they_catch_up_and_copies_start_complete() {
        use flix_lattice::rng::SmallRng;
        use flix_lattice::MinCost;
        // The address of a store's completed indexes, once built.
        let completion = |db: &Database, pred: PredId| {
            let completed = db.pred(pred).columns().completed.0.get();
            completed.map(|completed| completed.as_ptr())
        };
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x1A66);
            let (mut db, r, l) = removal_store();
            let (mut catch_ups, mut lagging_copies, mut removals) = (0, 0, 0);
            for step in 0..300 {
                let what = format!("seed {seed}, step {step}");
                let pred = [r, l][rng.index(2)];
                let len = db.len_of(pred);
                match rng.index(10) {
                    0 | 1 if len > 0 => {
                        db.remove(pred, rng.index(len) as u32);
                        removals += 1;
                        // Every index caught up first; the completion
                        // is forgotten.
                        for index in 0..2 {
                            assert!(!db.pred(pred).columns().lags(index), "{what}");
                        }
                        assert_eq!(completion(&db, pred), None, "{what}");
                    }
                    2 | 3 => {
                        let index = rng.index(2);
                        db.catch_up(pred, index);
                        catch_ups += 1;
                        assert_index_is_scanned(&db, pred, index, &what);
                    }
                    4 => {
                        let lags = |db: &Database| {
                            let lagging = |p: PredId| (0..2).any(|i| db.pred(p).columns().lags(i));
                            [r, l].map(lagging)
                        };
                        let before = lags(&db);
                        lagging_copies += before.iter().any(|&lags| lags) as usize;
                        // A copy has every index complete; the store
                        // keeps its lag, and the completion.
                        let copy = db.clone();
                        assert_eq!(lags(&copy), [false; 2], "{what}");
                        assert_eq!(lags(&db), before, "{what}");
                        for p in [r, l] {
                            for index in 0..2 {
                                assert_index_is_scanned(&copy, p, index, &what);
                            }
                        }
                        let built = [completion(&db, r), completion(&db, l)];
                        assert!(built.iter().all(Option::is_some), "{what}");
                        // A second copy takes the same completion: both
                        // share it, and every index the store held
                        // complete.
                        let mut again = db.clone();
                        assert_eq!([completion(&db, r), completion(&db, l)], built, "{what}");
                        for p in [r, l] {
                            let ours = db.pred(p).columns();
                            let completed = ours.completed.0.get().expect("built");
                            for index in 0..2 {
                                let done = completed.iter().find(|(at, _)| *at == index);
                                let shared = done.map_or(&ours.indexes[index], |(_, i)| i);
                                for other in [&copy, &again] {
                                    let theirs = &other.pred(p).columns().indexes[index];
                                    assert!(Arc::ptr_eq(theirs, shared), "{what}");
                                }
                            }
                        }
                        // A copy that changes leaves the store and the
                        // other copy as they were.
                        let fact = [column_value(7), column_value(5), Value::Int(1)];
                        again.insert(r, &fact).expect("a new row");
                        again.catch_up_all();
                        assert_eq!(lags(&db), before, "{what}");
                        for index in 0..2 {
                            assert_index_is_scanned(&again, r, index, &what);
                            assert_index_is_scanned(&copy, r, index, &what);
                        }
                        // Go on from the copy, as a resume does.
                        if rng.gen_bool(0.5) {
                            db = copy;
                        }
                    }
                    _ => {
                        let mut fact = vec![column_value(rng.index(6)), column_value(rng.index(6))];
                        fact.push(match pred == r {
                            true => Value::Int(rng.gen_range(0..3i64)),
                            false => MinCost::finite(rng.gen_range(1..9u64)).to_value(),
                        });
                        db.insert(pred, &fact).expect("sound ops");
                        if db.len_of(pred) > len {
                            // A new row forgets the completion.
                            assert_eq!(completion(&db, pred), None, "{what}");
                        }
                    }
                }
                // The public probe of a lagging index answers nothing:
                // the caller scans.
                let cols = db.pred(pred).columns();
                for index in (0..2).filter(|&index| cols.lags(index)) {
                    let on = &cols.indexes[index].on;
                    let key = [column_value(0)];
                    assert_eq!(cols.probe(on, &key, db.spill()), None, "{what}");
                }
            }
            assert!(catch_ups > 30 && removals > 30, "seed {seed}");
            assert!(lagging_copies > 10, "seed {seed}: {lagging_copies}");
        }
    }

    #[test]
    fn cross_predicate_encodings_are_comparable() {
        // The same structured value inserted through two predicates must
        // land on the same spill slot, so kernels can join on it.
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        let v = Value::tag("Wrapped", Value::Int(1 << 62));
        db.insert(p, std::slice::from_ref(&v)).expect("insert");
        db.insert(q, std::slice::from_ref(&v)).expect("insert");
        let (PredData::Rel(rp), PredData::Rel(rq)) = (db.pred(p), db.pred(q)) else {
            unreachable!()
        };
        assert_eq!(rp.columns().col(0)[0], rq.columns().col(0)[0]);
    }

    #[test]
    fn intern_is_idempotent_and_canonical() {
        let mut spill = SpillTable::default();
        let first = Value::from("spill-string");
        let slot = encode_mut(&first, &mut spill);
        // Another allocation of the same string: the same slot, and it
        // decodes to the allocation stored first.
        assert_eq!(encode_mut(&Value::from("spill-string"), &mut spill), slot);
        assert_eq!(try_encode(&Value::from("spill-string"), &spill), Some(slot));
        assert_eq!(spill.len(), 1);
        match (decode(slot, &spill), &first) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(&a, b)),
            _ => unreachable!(),
        }
        // A name registered with a program decodes to its one allocation.
        let mut names = Names::default();
        let (id, fin) = names.intern("Fin");
        let (again, shared) = names.intern("Fin");
        assert!(again == id && Arc::ptr_eq(&fin, &shared));
        let slot = names
            .slot(&Value::tag("Fin", Value::Int(3)))
            .expect("a slot");
        match decode(slot, names.table()) {
            Value::Tag(name, _) => assert!(Arc::ptr_eq(&name, &fin)),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let spill = SpillTable::default();
        assert_eq!(try_encode(&Value::from("never-stored"), &spill), None);
        let tag = Value::tag("NeverStored", Value::Int(1));
        assert_eq!(try_encode(&tag, &spill), None);
        assert_eq!(spill.len(), 0);
        assert_eq!(Names::default().slot(&Value::from("never-stored")), None);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut spill = SpillTable::default();
        let a = encode_mut(&Value::from("a"), &mut spill);
        let b = encode_mut(&Value::from("b"), &mut spill);
        assert_ne!(a, b);
        // A string and the tuple holding it are different values.
        let tuple = encode_mut(&Value::tuple([Value::from("a")]), &mut spill);
        assert!(tuple != a && tuple != b);
    }

    /// Each store has its own strings: a string one database holds has no
    /// slot in another of the same program, which starts from the
    /// program's names alone.
    #[test]
    fn a_string_stored_in_one_database_is_unknown_to_another() {
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let mut names = Names::default();
        names.intern("Named");
        b.names(names);
        let prog = b.build().expect("valid");
        let mut first = Database::for_program(&prog, true);
        let second = Database::for_program(&prog, true);
        let only_here = Value::from("stored-in-the-first-database-only");
        first
            .insert(p, std::slice::from_ref(&only_here))
            .expect("insert");
        assert!(try_encode(&only_here, first.spill()).is_some());
        assert_eq!(try_encode(&only_here, second.spill()), None);
        // The program's names have the same slot in both.
        let named = Value::from("Named");
        assert_eq!(try_encode(&named, first.spill()), Some(pack(TAG_SPILL, 0)));
        assert_eq!(try_encode(&named, second.spill()), Some(pack(TAG_SPILL, 0)));
        assert_eq!((first.spill().strings(), second.spill().strings()), (2, 1));
    }

    #[test]
    fn flat_words_round_trip_and_order_as_the_lattice_does() {
        use flix_lattice::{Lattice, SuLattice};
        let flat = KindWords::of(&crate::LatticeOps::of::<SuLattice>(), &Names::default());
        assert!(!flat.is_slots(), "SULattice is flat");
        let mut spill = SpillTable::default();
        let elems = [
            SuLattice::Bottom,
            SuLattice::single("a"),
            SuLattice::single("b"),
            SuLattice::Top,
        ];
        let word = |e: &SuLattice, spill: &mut SpillTable| flat.encode_mut(&e.to_value(), spill);
        let words: Vec<u64> = elems
            .iter()
            .map(|e| word(e, &mut spill).expect("an element"))
            .collect();
        assert_eq!((words[0], words[3]), (FLAT_BOTTOM, FLAT_TOP));
        let a = try_encode(&Value::from("a"), &spill);
        assert_eq!(Some(words[1]), a, "Single(a) is the slot of a");
        for (x, &wx) in elems.iter().zip(&words) {
            assert_eq!(flat.decode(wx, &spill), x.to_value());
            assert!(flat.holds(wx, &spill));
            for (y, &wy) in elems.iter().zip(&words) {
                assert_eq!(flat.leq(wx, wy), Some(x.leq(y)), "{x} ⊑ {y}");
                let lub = flat.lub(wx, wy, &spill).expect("a word");
                let glb = flat.glb(wx, wy, &spill).expect("a word");
                assert_eq!(flat.decode(lub, &spill), x.lub(y).to_value());
                assert_eq!(flat.decode(glb, &spill), x.glb(y).to_value());
            }
        }
        // Not an element; an element whose `x` was never stored.
        assert_eq!(flat.encode_mut(&Value::tag0("Nope"), &mut spill), None);
        let unseen = SuLattice::single("flat-words-never-interned-x9").to_value();
        assert_eq!(flat.try_encode(&unseen, &spill), None);
        // What a word form may hand back: canonical slots only.
        assert!(is_slot(WORD_TRUE, &spill) && is_slot(WORD_FALSE, &spill));
        assert!(is_slot(words[1], &spill) && !is_slot(FLAT_TOP, &spill));
        for bad in [
            pack(TAG_UNIT, 1),
            pack(TAG_BOOL, 2),
            pack(3, 0),
            pack(TAG_SPILL, spill.len() as u64),
            LOCAL,
        ] {
            assert!(!is_slot(bad, &spill), "{bad:#x}");
        }
    }

    /// A round-local word names a value the store has no slot for, one
    /// number per value: equal words are equal values, and none is a slot.
    #[test]
    fn round_local_words_number_each_unstored_value_once() {
        let mut spill = SpillTable::default();
        let stored = Value::from("stored");
        let slot = encode_mut(&stored, &mut spill);
        let mut locals = Locals::default();
        assert_eq!(locals.word(None, stored.clone(), &spill), slot);
        assert!(locals.is_empty());
        let (a, b) = (Value::from("a"), Value::tuple([1.into(), "b".into()]));
        let (wa, wb) = (
            locals.word(None, a.clone(), &spill),
            locals.word(None, b.clone(), &spill),
        );
        assert!(is_local(wa) && is_local(wb) && wa != wb);
        assert_eq!(locals.word(None, a.clone(), &spill), wa);
        assert!(!is_slot(wa, &spill) && !is_slot(wb, &spill));
        assert_eq!(
            (locals.value(wa, &spill), locals.value(slot, &spill)),
            (a, stored)
        );
        // Appended after another round's, its words shift past those.
        let mut earlier = Locals::default();
        earlier.word(None, Value::from("c"), &spill);
        let shift = earlier.append(locals);
        assert_eq!(earlier.value(wb + shift, &spill), b);
    }

    #[test]
    fn constructor_slots_round_trip_and_are_canonical_at_the_inline_boundary() {
        let mut names = Names::default();
        for name in ["Inf", "Fin", "Flag"] {
            names.intern(name);
        }
        let mut spill = names.table().clone();
        let fin = |n: i64| Value::tag("Fin", Value::Int(n));
        let inline = [
            Value::tag0("Inf"),
            fin(0),
            fin(-1),
            fin(CTOR_INT_MIN),
            fin(CTOR_INT_MAX),
            Value::tag("Flag", Value::Bool(true)),
        ];
        for v in &inline {
            let slot = encode_mut(v, &mut spill);
            assert!(ctor_of_slot(slot).is_some(), "{v} has a constructor slot");
            assert_eq!(decode(slot, &spill), *v);
            assert_eq!(try_encode(v, &spill), Some(slot), "{v}");
            assert_eq!(names.slot(v), Some(slot), "{v}");
            assert!(is_slot(slot, &spill), "{v}");
            assert!(slot != SLOT_WILDCARD);
            // A tag whose name is a separate allocation is the same value.
            let name: Arc<str> = Arc::from(v.tag_name().expect("a tag"));
            let copy = Value::Tag(name, Arc::new(v.tag_payload().expect("a tag").clone()));
            assert_eq!(try_encode(&copy, &spill), Some(slot));
        }
        assert_eq!(spill.len(), 3, "nothing inline spills");
        // One past the payload field, a tuple payload, a nested tag, a
        // string payload: the store spills them, and encodes each the same
        // way every time.
        let wide = [
            fin(CTOR_INT_MIN - 1),
            fin(CTOR_INT_MAX + 1),
            fin(i64::MAX),
            Value::tag("Pair", Value::tuple([Value::Int(1), Value::Int(2)])),
            Value::tag("Some", fin(1)),
            Value::tag("Name", Value::from("ctor-slot-payload")),
        ];
        for v in &wide {
            assert_eq!(try_encode(v, &spill), None, "{v} is not stored yet");
            let slot = encode_mut(v, &mut spill);
            assert_eq!(ctor_of_slot(slot), None, "{v} spills");
            assert_eq!(slot & TAG_MASK, TAG_SPILL);
            assert_eq!(encode_mut(v, &mut spill), slot);
            assert_eq!(try_encode(v, &spill), Some(slot));
            assert_eq!(decode(slot, &spill), *v);
            assert_eq!(names.slot(v), None, "{v}");
        }
        assert_eq!(spill.len(), 3 + wide.len());
        // A constructor never interned has no slot until stored.
        let fresh = Value::tag0("ctor-slot-never-interned-q7");
        assert_eq!(try_encode(&fresh, &spill), None);
        // What a word form writes is what the store encodes.
        let (fin_id, _) = names.intern("Fin");
        let seven = slot_of_int(7).expect("inline");
        assert_eq!(slot_of_ctor(fin_id, seven), try_encode(&fin(7), &spill));
        assert_eq!(
            ctor_of_slot(slot_of_ctor(fin_id, seven).expect("fits")),
            Some((fin_id, seven))
        );
        let wide_int = slot_of_int(CTOR_INT_MAX + 1).expect("inline as an integer");
        assert_eq!(slot_of_ctor(fin_id, wide_int), None);
        let spilled = encode_mut(&wide[3], &mut spill);
        assert_eq!(slot_of_ctor(fin_id, spilled), None, "no spilled payload");
        assert_eq!(slot_of_ctor(CTOR_ID_LIMIT, seven), None);
        // A constructor id must name a string of the table.
        let not_a_name = (spilled >> TAG_BITS) as u32;
        for bad in [
            SLOT_WILDCARD,
            pack(TAG_CTOR, (1 << CTOR_INNER_BITS) | 1 << 3),
            slot_of_ctor(not_a_name, seven).expect("fits"),
            slot_of_ctor(spill.len() as u32, seven).expect("fits"),
        ] {
            assert!(!is_slot(bad, &spill), "{bad:#x}");
        }
    }

    #[test]
    fn chain_words_round_trip_and_order_as_the_lattice_does() {
        use flix_lattice::{Lattice, MinCost};
        let ops = crate::LatticeOps::of::<MinCost>();
        let chain = KindWords::of(&ops, &Names::default());
        assert!(!chain.is_slots(), "MinCost is a chain");
        let mut spill = SpillTable::default();
        let last: i64 = (1 << 60) - 1;
        let elems = [0, 1, 2, 9, last as u64].map(MinCost::finite);
        let elems = [MinCost::INFINITY].into_iter().chain(elems);
        let elems: Vec<MinCost> = elems.collect();
        let word = |e: &MinCost| chain.try_encode(&e.to_value(), &spill).expect("an element");
        let words: Vec<u64> = elems.iter().map(word).collect();
        assert_eq!((words[0], words[1]), (CHAIN_BOTTOM, chain.top()));
        assert_eq!(Some(words[5]), slot_of_int(last), "Fin(n) is the slot of n");
        for (x, &wx) in elems.iter().zip(&words) {
            assert_eq!(chain.decode(wx, &spill), x.to_value());
            assert!(chain.holds(wx, &spill) && chain.is_elem(&x.to_value()));
            for (y, &wy) in elems.iter().zip(&words) {
                assert_eq!(chain.leq(wx, wy), Some(x.leq(y)), "{x} ⊑ {y}");
                let lub = chain.lub(wx, wy, &spill).expect("a word");
                let glb = chain.glb(wx, wy, &spill).expect("a word");
                assert_eq!(chain.decode(lub, &spill), x.lub(y).to_value());
                assert_eq!(chain.decode(glb, &spill), x.glb(y).to_value());
            }
        }
        // Not elements: out of range, negative, another constructor, or
        // a word of another kind. None of them is interned either.
        let fin = |n: i64| Value::tag("Fin", Value::Int(n));
        let strangers = [fin(1 << 60), fin(-1), fin(i64::MAX), Value::tag0("Nope")];
        for v in strangers
            .iter()
            .chain([&Value::tag("Fin", Value::from("x"))])
        {
            assert!(!chain.is_elem(v), "{v}");
            assert_eq!(chain.encode_mut(v, &mut spill), None, "{v}");
        }
        assert_eq!(spill.len(), 0);
        let negative = slot_of_int(-1).expect("inline");
        for bad in [negative, FLAT_BOTTOM, FLAT_TOP, WORD_TRUE, LOCAL] {
            assert!(!chain.holds(bad, &spill), "{bad:#x}");
        }
    }

    #[test]
    fn word_cells_join_by_words_and_decode_on_request() {
        use flix_lattice::SuLattice;
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(crate::LatticeOps::of::<SuLattice>(), 1, &Names::default());
        let key = row(&[7]);
        let single = |o: &str| SuLattice::single(o).to_value();
        let joined = l.join(&key, single("o1"), &mut spill).expect("sound");
        let o1 = try_encode(&Value::from("o1"), &spill).expect("interned");
        assert_eq!(joined, Some((0, o1)));
        assert_eq!(l.value(&key, &spill), Some(&single("o1")));
        assert_eq!(join_ok(&mut l, &mut spill, &key, single("o1")), None);
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, SuLattice::Bottom.to_value()),
            None
        );
        // The decoded view is dropped by the change that follows it.
        assert_eq!(
            l.join(&key, single("o2"), &mut spill).expect("sound"),
            Some((0, FLAT_TOP))
        );
        assert_eq!(l.value(&key, &spill), Some(&SuLattice::Top.to_value()));
        // A value of another constructor is refused as the closures refuse it.
        let fault = l.join(&key, Value::Int(3), &mut spill).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Panic(ref p) if p.function == "SULattice.leq"),
            "{fault:?}"
        );
    }
}
