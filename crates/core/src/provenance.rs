//! Derivation provenance: why is a fact in the minimal model?
//!
//! The paper motivates Datalog with understandability: "it is easy to
//! understand an analysis by understanding its components individually"
//! (§1). Provenance extends that to individual *facts*: with
//! [`Solver::record_provenance`](crate::Solver::record_provenance)
//! enabled, the solver logs every database-changing insertion together
//! with the rule and the body atoms that produced it, and
//! [`Solution::explain`](crate::Solution::explain) reconstructs a
//! derivation tree — the instantiated proof of the fact under the
//! immediate-consequence semantics of §3.
//!
//! Premises record positive body atoms only; filters, choice bindings,
//! and negated atoms are conditions on the derivation step rather than
//! facts with their own derivations. A premise names the row its atom
//! matched — a `_` in a key column is logged as that row's value — so a
//! `None` in its pattern marks only a `_` in a lattice value column.
//!
//! # The log is words, decoded on request
//!
//! An [`Event`] is what [`Solution::provenance`](crate::Solution::provenance)
//! hands out, not what is stored. The log holds each event as a row of
//! struct-of-arrays columns — its predicate, its rule, and a run of `u64`
//! words: the slots of the head's key, then per premise the premise's
//! predicate and one slot per pattern column, in the fact store's own
//! slot encoding (`database.rs`). A lattice's elements are logged as
//! their words, as its cells hold them: the joined cell value after the
//! head's key, a premise's value column in place. A slot tag that no
//! value encodes to marks a wildcard value column; a key column is
//! always the slot of the row its atom matched. The log holds stored
//! words only: a premise's element the evaluator held as a round-local
//! word (a glb-rebound witness the store had no slot for) is interned by
//! the round's absorb, which holds the store mutably, before it copies
//! the premise in. Recording an event
//! therefore copies words the evaluator already holds and allocates
//! nothing beyond the columns' growth — which comes a block of 4 096
//! events at a time, each allocated at the size the last one reached, so
//! a growing log never copies what it holds. `explain` walks the encoded
//! log and decodes only the nodes of the tree it returns; `provenance()`
//! decodes the live log once, on first request.
//!
//! **Slots decode against the lineage that wrote them.** A spill slot —
//! a string's, or any other value's a slot does not hold inline — is an
//! index into one database's spill table, which is append-only and copied
//! whole into the
//! warm-start copy a resume takes — so an index keeps its meaning in
//! every solution resumed, directly or not, from the run that wrote it,
//! and those are exactly the solutions its segment is shared with: a
//! solution decodes every segment of its log, shared or its own, against
//! its own database. Two sibling resumes of one prior may give one fresh
//! index two meanings, each in its own tail segment and its own table; the
//! shared segments hold no such index. A run that starts a new database
//! (`Run::reset`, the scratch fallback) starts a new spill table and with
//! it a new log.
//!
//! # The log is shared between solutions
//!
//! A solution's log is a list of immutable, reference-counted
//! *segments* — the events one run recorded, frozen when that run
//! finished — each paired with a bit mask of the events later
//! retractions took out of this particular history. A resume continues
//! its prior's log by sharing those segments (no event is copied) and
//! recording into a tail of its own; a retraction sets mask bits instead
//! of rewriting anything. Each segment builds, on first use, an index
//! from a fact to the events that concluded it and to the events that
//! consumed it, hashing and comparing encoded keys; the index lives
//! inside the shared segment, so it is built once however many solutions
//! the segment outlives. Retraction (`Cone` in `incremental.rs`) and
//! `explain` both walk those indexes instead of scanning the log.
//! DESIGN §16 states the merge policy that keeps the segment count
//! logarithmic.

use crate::database::{decode, is_local, Columns, KindWords, SpillTable, SLOT_WILDCARD};
use crate::fxhash::FxHasher;
use crate::program::Program;
use crate::{PredId, Value};
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// One positive body atom as instantiated at derivation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Premise {
    /// The premise's predicate.
    pub pred: PredId,
    /// The instantiated columns: the row the atom matched; `None` marks a
    /// `_` in a lattice value column, which any cell value matches.
    pub pattern: Vec<Option<Value>>,
}

/// How a logged fact entered the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// An extensional fact of the program.
    Fact,
    /// Derived by a rule from the given premises.
    Rule {
        /// The rule index within the program (declaration order).
        rule: usize,
        /// The instantiated positive body atoms.
        premises: Vec<Premise>,
    },
}

/// One database-changing insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The predicate inserted into.
    pub pred: PredId,
    /// The inserted tuple. For lattice predicates this is the key columns
    /// followed by the *new joined cell value* at the time of insertion.
    pub tuple: Vec<Value>,
    /// The origin of the insertion.
    pub source: Source,
}

/// A reconstructed derivation: the fact, the rule that produced it (if
/// any), and the derivations of its premises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationTree {
    /// The predicate name.
    pub predicate: String,
    /// The derived tuple (for lattice predicates: key plus cell value at
    /// the explaining event).
    pub tuple: Vec<Value>,
    /// The producing rule index, or `None` for extensional facts.
    pub rule: Option<usize>,
    /// Derivations of the positive premises.
    pub children: Vec<DerivationTree>,
}

impl DerivationTree {
    /// The height of the tree (a fact has height 1).
    pub fn height(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationTree::height)
            .max()
            .unwrap_or(0)
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        for _ in 0..indent {
            f.write_str("  ")?;
        }
        write!(f, "{}(", self.predicate)?;
        for (i, v) in self.tuple.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")?;
        match self.rule {
            None => f.write_str("  [fact]")?,
            Some(r) => write!(f, "  [rule {r}]")?,
        }
        f.write_str("\n")?;
        for child in &self.children {
            child.render(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for DerivationTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// The columns that identify the fact `tuple` of `pred`: the whole tuple
/// of a relation, the key columns of a lattice cell (the logged cell value
/// is the running join, not part of the cell's identity).
pub(crate) fn fact_key<'a, T>(is_lat: &[bool], pred: PredId, tuple: &'a [T]) -> &'a [T] {
    if is_lat[pred.0 as usize] {
        &tuple[..tuple.len() - 1]
    } else {
        tuple
    }
}

/// A position in an [`EventLog`]: the number of the segment, then the
/// offset within it. The derived order is the order of the flattened log.
pub(crate) type Pos = (u32, u32);

/// What the words of a log mean: per predicate, how many key slots a
/// fact of it has, whether a lattice value follows them, and the words
/// of that lattice.
#[derive(Debug)]
pub(crate) struct Shape {
    key_cols: Vec<usize>,
    is_lat: Vec<bool>,
    elems: Vec<Option<KindWords>>,
}

impl Shape {
    pub(crate) fn of(program: &Program) -> Arc<Shape> {
        let is_lat: Vec<bool> = program.preds.iter().map(|d| d.is_lattice()).collect();
        let arities = program.preds.iter().map(|d| d.arity());
        Arc::new(Shape {
            key_cols: arities
                .zip(&is_lat)
                .map(|(n, &lat)| n - lat as usize)
                .collect(),
            is_lat,
            elems: program
                .preds
                .iter()
                .map(|d| Some(KindWords::of(d.lattice_ops()?, &program.names)))
                .collect(),
        })
    }

    /// Per predicate: is it a lattice predicate?
    pub(crate) fn is_lat(&self) -> &[bool] {
        &self.is_lat
    }

    fn key_cols(&self, pred: PredId) -> usize {
        self.key_cols[pred.0 as usize]
    }

    /// How many words a fact of `pred` concludes with: its key's, and a
    /// lattice's element.
    fn head_words(&self, pred: PredId) -> usize {
        self.key_cols(pred) + self.is_lat[pred.0 as usize] as usize
    }

    /// A logged element of `pred`'s lattice, decoded.
    fn decode(&self, pred: PredId, word: u64, spill: &SpillTable) -> Value {
        let elems = self.elems[pred.0 as usize].as_ref();
        elems.expect("a lattice's element").decode(word, spill)
    }
}

/// The `rule` column of an event that asserted an extensional fact.
const NO_RULE: u32 = u32::MAX;

/// The `rule` column of an event.
fn rule_column(rule: Option<usize>) -> u32 {
    rule.map_or(NO_RULE, |rule| {
        u32::try_from(rule).expect("fewer than 2^32 - 1 rules")
    })
}

fn fact_hash(pred: PredId, key: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u32(pred.0);
    for &slot in key {
        hasher.write_u64(slot);
    }
    hasher.finish()
}

/// An offset into a block's words.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a log block holds fewer than 2^32 words")
}

/// How many events a [`Block`] holds before the next one is opened.
const BLOCK_EVENTS: usize = 1 << 12;

/// The events one run recorded, as columns (see the module docs); once
/// frozen, shared by every solution whose history contains them. The
/// columns come in blocks of [`BLOCK_EVENTS`] events — every block but
/// the last is full — so that a growing log never moves what it already
/// holds: a new block is allocated at the size the last one reached.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    blocks: Vec<Block>,
    index: OnceLock<Index>,
}

/// The columns of up to [`BLOCK_EVENTS`] consecutive events.
#[derive(Debug, Default)]
struct Block {
    /// Per event: the predicate inserted into.
    pred: Vec<u32>,
    /// Per event: the rule that derived it, or [`NO_RULE`].
    rule: Vec<u32>,
    /// Per event: where its words end (they start where the previous
    /// event's end).
    ends: Vec<u32>,
    words: Vec<u64>,
}

/// What [`Segment::index`] builds: offsets into the segment's events by
/// the hash of a fact `(predicate, key slots)`. Hashes can collide, so
/// every hit is checked against the event it names.
#[derive(Debug)]
struct Index {
    /// The fact each event concluded.
    conclusions: Filed,
    /// The facts each event consumed: one entry per premise.
    consumers: Filed,
}

/// `(hash, offset)` entries sorted by hash, and a directory over the
/// hashes' top ⌈log2 n⌉ bits: `starts[b]` is the first entry whose top
/// bits read at least `b`, so a lookup searches one bucket of about one
/// hash. The directory has `2^⌈log2 n⌉ + 1` entries: at most 8 bytes an
/// entry.
#[derive(Debug)]
struct Filed {
    entries: Vec<(u64, u32)>,
    starts: Vec<u32>,
}

impl Filed {
    fn new(mut entries: Vec<(u64, u32)>) -> Filed {
        entries.sort_unstable();
        let buckets = entries.len().next_power_of_two();
        let mut starts = Vec::with_capacity(buckets + 1);
        for (at, &(hash, _)) in entries.iter().enumerate() {
            starts.resize(starts.len().max(bucket_of(hash, buckets) + 1), offset(at));
        }
        starts.resize(buckets + 1, offset(entries.len()));
        Filed { entries, starts }
    }

    /// The entries filed under `hash`.
    fn get(&self, hash: u64) -> &[(u64, u32)] {
        let bucket = bucket_of(hash, self.starts.len() - 1);
        let (start, end) = (self.starts[bucket], self.starts[bucket + 1]);
        filed(&self.entries[start as usize..end as usize], hash)
    }
}

/// The bucket of `hash` among `buckets`, a power of two: its top bits.
fn bucket_of(hash: u64, buckets: usize) -> usize {
    let shift = 64 - buckets.trailing_zeros();
    hash.checked_shr(shift).unwrap_or(0) as usize
}

/// The entries of `sorted` filed under `hash`.
fn filed(sorted: &[(u64, u32)], hash: u64) -> &[(u64, u32)] {
    let start = sorted.partition_point(|&(h, _)| h < hash);
    let len = sorted[start..].partition_point(|&(h, _)| h == hash);
    &sorted[start..start + len]
}

/// One stored event, read in place.
#[derive(Clone, Copy)]
pub(crate) struct EventRef<'a> {
    pub(crate) pred: PredId,
    rule: u32,
    /// The slots that identify the concluded fact: a relation's tuple, a
    /// lattice cell's key.
    pub(crate) key: &'a [u64],
    /// The word of the value the cell was joined to, for a lattice
    /// predicate.
    value: Option<u64>,
    premise_words: &'a [u64],
    shape: &'a Shape,
}

impl<'a> EventRef<'a> {
    pub(crate) fn rule(&self) -> Option<usize> {
        (self.rule != NO_RULE).then_some(self.rule as usize)
    }

    /// The positive body atoms the event was derived from, in body order.
    pub(crate) fn premises(&self) -> Premises<'a> {
        Premises {
            words: self.premise_words,
            shape: self.shape,
        }
    }

    /// The inserted tuple, decoded.
    pub(crate) fn tuple(&self, spill: &SpillTable) -> Vec<Value> {
        let key = self.key.iter().map(|&slot| decode(slot, spill));
        let value = self.value.map(|v| self.shape.decode(self.pred, v, spill));
        key.chain(value).collect()
    }

    /// Whether the cell was joined to `value`.
    pub(crate) fn joined_to(&self, value: &Value, spill: &SpillTable) -> bool {
        (self.value).is_some_and(|word| self.shape.decode(self.pred, word, spill) == *value)
    }

    pub(crate) fn decode(&self, spill: &SpillTable) -> Event {
        Event {
            pred: self.pred,
            tuple: self.tuple(spill),
            source: match self.rule() {
                None => Source::Fact,
                Some(rule) => Source::Rule {
                    rule,
                    premises: self.premises().map(|p| p.decode(spill)).collect(),
                },
            },
        }
    }
}

/// The premises of one stored event.
pub(crate) struct Premises<'a> {
    words: &'a [u64],
    shape: &'a Shape,
}

impl<'a> Iterator for Premises<'a> {
    type Item = PremiseRef<'a>;

    fn next(&mut self) -> Option<PremiseRef<'a>> {
        let (&pred, rest) = self.words.split_first()?;
        let pred = PredId(pred as u32);
        let key_cols = self.shape.key_cols(pred);
        let width = key_cols + self.shape.is_lat[pred.0 as usize] as usize;
        let (pattern, rest) = rest.split_at(width);
        self.words = rest;
        Some(PremiseRef {
            pred,
            pattern,
            key_cols,
            elems: self.shape.elems[pred.0 as usize].as_ref(),
        })
    }
}

/// One stored premise, read in place.
pub(crate) struct PremiseRef<'a> {
    pub(crate) pred: PredId,
    /// One slot per column of the premise's predicate.
    pattern: &'a [u64],
    key_cols: usize,
    /// The words of the predicate's lattice; `None` for a relation.
    elems: Option<&'a KindWords>,
}

impl PremiseRef<'_> {
    /// The slots of the key columns: the one fact the premise consumed,
    /// the row its atom matched.
    pub(crate) fn key(&self) -> &[u64] {
        let key = &self.pattern[..self.key_cols];
        let marked = |slot: &u64| *slot == SLOT_WILDCARD;
        debug_assert!(!key.iter().any(marked), "a key logs the row it matched");
        key
    }

    fn decode(&self, spill: &SpillTable) -> Premise {
        let column = |(col, &slot): (usize, &u64)| match slot {
            SLOT_WILDCARD => None,
            word if col == self.key_cols => {
                let elems = self.elems.expect("a value column is a lattice's");
                Some(elems.decode(word, spill))
            }
            slot => Some(decode(slot, spill)),
        };
        Premise {
            pred: self.pred,
            pattern: self.pattern.iter().enumerate().map(column).collect(),
        }
    }
}

impl Block {
    fn len(&self) -> usize {
        self.pred.len()
    }

    /// An empty block with room for what `like`, a full one, holds, and
    /// an eighth more.
    fn sized_like(like: &Block) -> Block {
        let room = |len: usize| len + len / 8;
        Block {
            pred: Vec::with_capacity(BLOCK_EVENTS),
            rule: Vec::with_capacity(BLOCK_EVENTS),
            ends: Vec::with_capacity(BLOCK_EVENTS),
            words: Vec::with_capacity(room(like.words.len())),
        }
    }

    /// Where the words of event `at` start.
    fn start(&self, at: usize) -> u32 {
        at.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    fn event<'a>(&'a self, shape: &'a Shape, at: usize) -> EventRef<'a> {
        let pred = PredId(self.pred[at]);
        let words = &self.words[self.start(at) as usize..self.ends[at] as usize];
        let (head, premise_words) = words.split_at(shape.head_words(pred));
        let key = &head[..shape.key_cols(pred)];
        EventRef {
            pred,
            rule: self.rule[at],
            key,
            value: head.get(key.len()).copied(),
            premise_words,
            shape,
        }
    }

    /// Ends the event whose predicate, rule and words were just appended.
    fn close_event(&mut self) {
        self.ends.push(offset(self.words.len()));
    }

    /// Appends the events `events` of `other`: column concatenation.
    fn extend_from(&mut self, other: &Block, events: std::ops::Range<usize>) {
        let (words, words_end) = (other.start(events.start), other.start(events.end));
        let to_words = self.words.len();
        self.pred.extend_from_slice(&other.pred[events.clone()]);
        self.rule.extend_from_slice(&other.rule[events.clone()]);
        self.words
            .extend_from_slice(&other.words[words as usize..words_end as usize]);
        let rebased = |&w: &u32| offset(to_words + (w - words) as usize);
        self.ends.extend(other.ends[events].iter().map(rebased));
    }
}

impl Segment {
    pub(crate) fn len(&self) -> usize {
        let full = self.blocks.len().saturating_sub(1) * BLOCK_EVENTS;
        full + self.blocks.last().map_or(0, Block::len)
    }

    fn event<'a>(&'a self, shape: &'a Shape, at: u32) -> EventRef<'a> {
        let at = at as usize;
        self.blocks[at / BLOCK_EVENTS].event(shape, at % BLOCK_EVENTS)
    }

    /// The block the next event goes to.
    fn open_block(&mut self) -> &mut Block {
        match self.blocks.last() {
            Some(last) if last.len() < BLOCK_EVENTS => {}
            Some(full) => self.blocks.push(Block::sized_like(full)),
            None => self.blocks.push(Block::default()),
        }
        self.blocks.last_mut().expect("just ensured")
    }

    /// Appends the events `events` of `other`, block run by block run.
    fn append(&mut self, other: &Segment, mut events: std::ops::Range<usize>) {
        while !events.is_empty() {
            let from = &other.blocks[events.start / BLOCK_EVENTS];
            let first = events.start % BLOCK_EVENTS;
            let block = self.open_block();
            let run = events.len().min(from.len() - first);
            let run = run.min(BLOCK_EVENTS - block.len());
            block.extend_from(from, first..first + run);
            events.start += run;
        }
    }

    fn index(&self, shape: &Shape) -> &Index {
        self.index.get_or_init(|| {
            let mut conclusions = Vec::with_capacity(self.len());
            let mut consumers = Vec::new();
            for at in 0..self.len() as u32 {
                let event = self.event(shape, at);
                conclusions.push((fact_hash(event.pred, event.key), at));
                for premise in event.premises() {
                    consumers.push((fact_hash(premise.pred, premise.key()), at));
                }
            }
            Index {
                conclusions: Filed::new(conclusions),
                consumers: Filed::new(consumers),
            }
        })
    }
}

/// One segment as one history sees it.
#[derive(Clone, Debug)]
struct Part {
    segment: Arc<Segment>,
    /// Bit `i` set: event `i` was retracted from this history. Masks are
    /// per history — the segment may be live in full in an older epoch.
    dead: Option<Arc<[u64]>>,
}

impl Part {
    fn is_live(&self, at: u32) -> bool {
        self.dead
            .as_ref()
            .is_none_or(|dead| dead[at as usize / 64] & (1 << (at % 64)) == 0)
    }

    /// The offsets of the live events, in log order.
    fn live(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        (0..self.segment.len() as u32).filter(|&at| self.is_live(at))
    }
}

/// The provenance log of a finished solve: every database-changing
/// insertion still part of this history, in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct EventLog {
    shape: Arc<Shape>,
    parts: Vec<Part>,
    /// The live log decoded, on the first request for it.
    decoded: OnceLock<Arc<[Event]>>,
}

impl EventLog {
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The whole log, in insertion order, decoded against `spill` — the
    /// spill table of the database of the solution that holds this log.
    pub(crate) fn decoded(&self, spill: &SpillTable) -> &[Event] {
        self.decoded.get_or_init(|| {
            let live = self.parts.iter().flat_map(|part| {
                let events = part.live().map(|at| part.segment.event(&self.shape, at));
                events.map(|event| event.decode(spill))
            });
            live.collect()
        })
    }

    pub(crate) fn event(&self, (part, at): Pos) -> EventRef<'_> {
        self.parts[part as usize].segment.event(&self.shape, at)
    }

    /// Visits every live event later than `after` (`None`: every live
    /// event) that concludes the fact of `pred` with the encoded key
    /// `key` or consumes it — has a premise on `pred` whose key is `key`.
    /// An event that does both, or consumes the fact twice, may be
    /// visited twice. Returns how many events it examined: every
    /// candidate its indexes gave, visited or not — the call's cost.
    pub(crate) fn touching(
        &self,
        pred: PredId,
        key: &[u64],
        after: Option<Pos>,
        mut visit: impl FnMut(Pos, EventRef<'_>),
    ) -> u64 {
        let mut examined = 0;
        let hash = fact_hash(pred, key);
        let (first, start) = after.map_or((0, 0), |(part, at)| (part as usize, at + 1));
        for (no, part) in self.parts.iter().enumerate().skip(first) {
            let start = if no == first { start } else { 0 };
            let index = part.segment.index(&self.shape);
            let concludes = |e: &EventRef<'_>| e.pred == pred && e.key == key;
            let consumes =
                |e: &EventRef<'_>| e.premises().any(|p| p.pred == pred && p.key() == key);
            let concluding = index.conclusions.get(hash).iter();
            let consuming = index.consumers.get(hash).iter();
            let candidates = concluding
                .map(|&(_, at)| (at, true))
                .chain(consuming.map(|&(_, at)| (at, false)));
            for (at, concluded) in candidates {
                examined += 1;
                if at < start || !part.is_live(at) {
                    continue;
                }
                let event = part.segment.event(&self.shape, at);
                let touches = if concluded {
                    concludes(&event)
                } else {
                    consumes(&event)
                };
                if touches {
                    visit((no as u32, at), event);
                }
            }
        }
        examined
    }

    /// The parts that hold events before `before` (every part, when
    /// `None`), latest first: each with its number and the offset its
    /// events must stay below.
    fn parts_before(&self, before: Option<Pos>) -> impl Iterator<Item = (u32, &Part, u32)> {
        let (last, end) = before.map_or((self.parts.len(), 0), |(part, at)| (part as usize, at));
        let parts = self.parts.iter().enumerate().take(last + 1).rev();
        parts.map(move |(no, part)| (no as u32, part, if no == last { end } else { u32::MAX }))
    }

    /// The latest live event — before `before`, when given — that
    /// concluded the fact of `pred` with the encoded key `key` and that
    /// `accept` takes.
    pub(crate) fn latest(
        &self,
        pred: PredId,
        key: &[u64],
        before: Option<Pos>,
        accept: impl Fn(&EventRef<'_>) -> bool,
    ) -> Option<Pos> {
        let hash = fact_hash(pred, key);
        for (no, part, end) in self.parts_before(before) {
            let index = part.segment.index(&self.shape);
            for &(_, at) in index.conclusions.get(hash).iter().rev() {
                let event = part.segment.event(&self.shape, at);
                if at < end
                    && part.is_live(at)
                    && event.pred == pred
                    && event.key == key
                    && accept(&event)
                {
                    return Some((no, at));
                }
            }
        }
        None
    }

    /// The position of every live event, in log order: entry `i` is where
    /// event `i` of [`EventLog::decoded`] sits.
    #[cfg(test)]
    pub(crate) fn positions(&self) -> Vec<Pos> {
        let parts = self.parts.iter().enumerate();
        parts
            .flat_map(|(no, part)| part.live().map(move |at| (no as u32, at)))
            .collect()
    }

    /// The shared segments, oldest first.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> Vec<&Arc<Segment>> {
        self.parts.iter().map(|part| &part.segment).collect()
    }
}

/// The log of a run in progress: the segments it continues, shared with
/// the solution it resumed, and the events it recorded itself.
#[derive(Debug)]
pub(crate) struct OpenLog {
    shape: Arc<Shape>,
    parts: Vec<Part>,
    tail: Segment,
}

impl OpenLog {
    /// An empty log of a run of `program`.
    pub(crate) fn new(program: &Program) -> OpenLog {
        OpenLog {
            shape: Shape::of(program),
            parts: Vec::new(),
            tail: Segment::default(),
        }
    }

    /// A log that continues `prior`: every segment shared, none copied.
    /// The run must record against a copy of the database `prior` was
    /// recorded against (see the module docs).
    pub(crate) fn continuing(prior: &EventLog) -> OpenLog {
        OpenLog {
            shape: Arc::clone(&prior.shape),
            parts: prior.parts.clone(),
            tail: Segment::default(),
        }
    }

    /// Makes room for the events that asserting `facts` is about to
    /// record, so that the first block of a from-scratch run is allocated
    /// once instead of grown from nothing.
    pub(crate) fn expect_facts(&mut self, facts: &[(PredId, Vec<Value>)]) {
        let facts = &facts[..facts.len().min(BLOCK_EVENTS)];
        if !self.tail.blocks.is_empty() || facts.is_empty() {
            return;
        }
        let words = facts.iter().map(|(pred, _)| self.shape.head_words(*pred));
        self.tail.blocks.push(Block {
            pred: Vec::with_capacity(facts.len()),
            rule: Vec::with_capacity(facts.len()),
            ends: Vec::with_capacity(facts.len()),
            words: Vec::with_capacity(words.sum()),
        });
    }

    /// Records one database-changing insertion: the head's key slots,
    /// read from row `id` of its predicate's columns; for a lattice cell
    /// the word of the value it was `raised` to; and the premise words
    /// the evaluator recorded.
    pub(crate) fn record(
        &mut self,
        pred: PredId,
        rule: Option<usize>,
        (head, id): (&Columns, u32),
        raised: Option<u64>,
        premise_words: &[u64],
    ) {
        debug_assert!(
            !premise_words.iter().any(|&word| is_local(word)),
            "a round-local word is never logged"
        );
        let block = self.tail.open_block();
        block.pred.push(pred.0);
        block.rule.push(rule_column(rule));
        block.words.extend(head.slots(id));
        block.words.extend(raised);
        block.words.extend_from_slice(premise_words);
        block.close_event();
    }

    /// The log of a run of a *rewriting* of `program`, in `program`'s
    /// terms: a filtering copy that keeps the events and the premises on
    /// the predicates `keep` takes — `program`'s own, which the rewriting
    /// must number as `program` does — each under the rule `origin` maps
    /// its rule to. Only for a log that continues none.
    pub(crate) fn rewritten(
        self,
        program: &Program,
        keep: impl Fn(PredId) -> bool,
        origin: impl Fn(usize) -> usize,
    ) -> OpenLog {
        debug_assert!(self.parts.is_empty(), "a rewritten run starts fresh");
        let mut log = OpenLog::new(program);
        for at in 0..self.tail.len() as u32 {
            let event = self.tail.event(&self.shape, at);
            if !keep(event.pred) {
                continue;
            }
            let block = log.tail.open_block();
            block.pred.push(event.pred.0);
            block.rule.push(rule_column(event.rule().map(&origin)));
            block.words.extend_from_slice(event.key);
            block.words.extend(event.value);
            for premise in event.premises().filter(|p| keep(p.pred)) {
                block.words.push(premise.pred.0 as u64);
                block.words.extend_from_slice(premise.pattern);
            }
            block.close_event();
        }
        log
    }

    /// Takes the events at `dead` — ascending positions in the continued
    /// segments, each live — out of this history.
    pub(crate) fn kill(&mut self, dead: &[Pos]) {
        for of_part in dead.chunk_by(|a, b| a.0 == b.0) {
            let part = &mut self.parts[of_part[0].0 as usize];
            let mut mask = match &part.dead {
                Some(mask) => mask.to_vec(),
                None => vec![0; part.segment.len().div_ceil(64)],
            };
            for &(_, at) in of_part {
                mask[at as usize / 64] |= 1 << (at % 64);
            }
            part.dead = Some(mask.into());
        }
    }

    /// Closes the log: the tail becomes a segment. To keep the segment
    /// count logarithmic, it first absorbs — copying their live events in
    /// front of its own, column by column — the trailing segments shorter
    /// than twice what it has grown to so far (DESIGN §16, "Segments").
    /// Lengths count masked events too, so a segment's length never
    /// changes and every segment stays at least twice as long as its
    /// successor. The absorbed segments' slots keep their meaning: this
    /// run's database is a copy of the one they were recorded against.
    pub(crate) fn freeze(self) -> EventLog {
        let OpenLog {
            shape,
            mut parts,
            mut tail,
        } = self;
        if tail.len() > 0 {
            let (mut keep, mut length) = (parts.len(), tail.len());
            while keep > 0 && parts[keep - 1].segment.len() < 2 * length {
                keep -= 1;
                length += parts[keep].segment.len();
            }
            if keep < parts.len() {
                let mut merged = Segment::default();
                for absorbed in parts.drain(keep..) {
                    let segment = &absorbed.segment;
                    match absorbed.dead {
                        None => merged.append(segment, 0..segment.len()),
                        Some(_) => {
                            let live = absorbed.live().map(|at| at as usize);
                            live.for_each(|at| merged.append(segment, at..at + 1));
                        }
                    }
                }
                merged.append(&tail, 0..tail.len());
                tail = merged;
            }
            parts.push(Part {
                segment: Arc::new(tail),
                dead: None,
            });
        }
        EventLog {
            shape,
            parts,
            decoded: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::try_encode;
    use crate::{BodyItem, Delta, Head, HeadTerm, ProgramBuilder, Solution, Solver, Term};

    /// `Seen(x) :- Item(x).` over twenty items, and a negated stratum
    /// `Free(x) :- Item(x), !Blocked(x).` — an insertion into `Blocked`
    /// is what a resume cannot do warm.
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let item = b.relation("Item", 1);
        let seen = b.relation("Seen", 1);
        let blocked = b.relation("Blocked", 1);
        let free = b.relation("Free", 1);
        for n in 0..20 {
            b.fact(item, vec![Value::from(n)]);
        }
        b.fact(blocked, vec![Value::from(3)]);
        b.rule(
            Head::new(seen, [HeadTerm::var("x")]),
            [BodyItem::atom(item, [Term::var("x")])],
        );
        b.rule(
            Head::new(free, [HeadTerm::var("x")]),
            [
                BodyItem::atom(item, [Term::var("x")]),
                BodyItem::not(blocked, [Term::var("x")]),
            ],
        );
        b.build().expect("valid")
    }

    fn decoded(solution: &Solution) -> Vec<Event> {
        // On a clone, so the solution itself decodes afresh next time.
        let solution = solution.clone();
        solution.provenance().expect("recorded").to_vec()
    }

    fn slot_of(value: &Value, solution: &Solution) -> Option<u64> {
        try_encode(value, solution.database().spill())
    }

    /// `Seen(value)` is explained by `Item(value)`, a fact — decoded from
    /// `solution`'s own words.
    fn assert_explains(solution: &Solution, value: &Value) {
        let fact = std::slice::from_ref(value);
        let tree = solution.explain("Seen", fact).expect("derived and logged");
        assert_eq!(tree.tuple, fact);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].predicate, "Item");
        assert_eq!(tree.children[0].tuple, fact);
        assert_eq!(tree.children[0].rule, None);
        let logged = decoded(solution);
        assert!(logged.iter().any(|e| e.tuple == fact));
    }

    /// The lineage invariant of the module docs, from both sides: two
    /// sibling resumes of one prior give the same fresh spill slot two
    /// meanings, and each solution — the prior included — reads every
    /// segment it holds, shared or its own, as it was written.
    #[test]
    fn slots_decode_against_the_lineage_that_wrote_them() {
        let program = program();
        let solver = Solver::new().record_provenance(true);
        let prior = solver.solve(&program).expect("solves");
        let prior_log = decoded(&prior);

        // Neither value has a slot of its own: both spill.
        let pair = Value::tuple([Value::from(1), Value::from("x")]);
        let wide = Value::from(i64::MAX);
        let insert = |value: &Value| Delta::new().insert("Item", vec![value.clone()]);
        let with_pair = solver.resume(&program, &prior, &insert(&pair));
        let with_pair = with_pair.expect("resumes");
        let with_wide = solver.resume(&program, &prior, &insert(&wide));
        let with_wide = with_wide.expect("resumes");
        let slot = slot_of(&pair, &with_pair).expect("stored");
        assert_eq!(slot_of(&wide, &with_wide), Some(slot), "one index, twice");
        assert_eq!(slot_of(&pair, &with_wide), None);
        assert_eq!(slot_of(&wide, &with_pair), None);
        assert_eq!(slot_of(&pair, &prior), None);

        // Both share the prior's segment and read their own tail.
        for sibling in [&with_pair, &with_wide] {
            let segments = sibling.events().expect("recorded").segments();
            let shared = prior.events().expect("recorded").segments();
            assert!(Arc::ptr_eq(segments[0], shared[0]));
            assert_eq!(decoded(sibling)[..prior_log.len()], prior_log[..]);
        }
        assert_explains(&with_pair, &pair);
        assert_explains(&with_wide, &wide);
        assert!(with_pair
            .explain("Seen", std::slice::from_ref(&wide))
            .is_none());
        assert!(with_wide
            .explain("Seen", std::slice::from_ref(&pair))
            .is_none());
        assert_eq!(decoded(&prior), prior_log, "the prior reads as before");
        assert_explains(&prior, &Value::from(7));

        // A retraction in one sibling masks events of the shared segment
        // in that history alone.
        let retract = Delta::new().retract("Item", vec![Value::from(7)]);
        let without_7 = solver.resume(&program, &with_pair, &retract);
        let without_7 = without_7.expect("resumes");
        let segments = without_7.events().expect("recorded").segments();
        assert!(Arc::ptr_eq(
            segments[0],
            prior.events().expect("recorded").segments()[0]
        ));
        let seven = [Value::from(7)];
        assert!(decoded(&without_7).iter().all(|e| e.tuple != seven));
        assert!(without_7.explain("Seen", &seven).is_none());
        assert_explains(&without_7, &pair);
        for untouched in [&prior, &with_pair, &with_wide] {
            assert_explains(untouched, &seven[0]);
        }
        assert_eq!(decoded(&prior), prior_log);
        assert_eq!(decoded(&with_wide)[..prior_log.len()], prior_log[..]);
    }

    /// A key column whose variable a later atom glb-rebinds: `Q(v)` is
    /// looked up at the `v` that `L` bound, `{1, 2}`, and `M(v)` then
    /// narrows `v` to `{2}`, a set no key column holds. The premise logs
    /// the row `Q` matched, not the register's final value: `explain`
    /// shows `Q({1, 2})`, and retracting it reaches the derivation — the
    /// resumed model is the scratch one, without `R(1, {2})`.
    #[test]
    fn a_glb_rebound_key_logs_the_row_it_matched() {
        use crate::{LatticeOps, ValueLattice};
        use flix_lattice::PowerSet;
        let set = |items: &[i64]| -> Value {
            let items = items.iter().map(|&n| Value::from(n));
            items.collect::<PowerSet<Value>>().to_value()
        };
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let l = b.lattice("L", 1, LatticeOps::of::<PowerSet<Value>>());
        let q = b.relation("Q", 1);
        let m = b.lattice("M", 1, LatticeOps::of::<PowerSet<Value>>());
        let r = b.lattice("R", 2, LatticeOps::of::<PowerSet<Value>>());
        b.fact(p, vec![Value::from(1)]);
        b.fact(l, vec![set(&[1, 2])]);
        b.fact(q, vec![set(&[1, 2])]);
        b.fact(m, vec![set(&[2, 3])]);
        b.rule(
            Head::new(r, [HeadTerm::var("x"), HeadTerm::var("v")]),
            [
                BodyItem::atom(p, [Term::var("x")]),
                BodyItem::atom(l, [Term::var("v")]),
                BodyItem::atom(q, [Term::var("v")]),
                BodyItem::atom(m, [Term::var("v")]),
            ],
        );
        let program = b.build().expect("valid");
        let solver = Solver::new().record_provenance(true);
        let solved = solver.solve(&program).expect("solves");
        let (matched, met) = (set(&[1, 2]), set(&[2]));
        let derived = [Value::from(1), met.clone()];
        assert!(
            !solved.contains("Q", std::slice::from_ref(&met)),
            "never a key"
        );
        let logged = decoded(&solved);
        let event = logged.iter().find(|e| e.tuple == derived);
        let Source::Rule { premises, .. } = &event.expect("logged").source else {
            panic!("derived by the rule");
        };
        assert_eq!(premises[2].pred, q);
        assert_eq!(premises[2].pattern, [Some(matched.clone())]);
        let tree = solved.explain("R", &derived).expect("logged");
        let q_child = tree.children.iter().find(|child| child.predicate == "Q");
        let q_child = q_child.expect("the row Q matched");
        assert_eq!(q_child.tuple, std::slice::from_ref(&matched));

        let retract = Delta::new().retract("Q", vec![matched]);
        let resumed = solver.resume(&program, &solved, &retract).expect("resumes");
        let scratch = program.with_delta(&retract).expect("fits");
        let scratch = solver.solve(&scratch).expect("solves");
        assert!(
            resumed.stats().cone_events_examined > 0,
            "a cone was walked"
        );
        assert_eq!(resumed.model_lines(), scratch.model_lines());
        assert!(!resumed.contains("R", &derived));
    }

    /// The scratch fallback starts a new database — a new spill table —
    /// and so a new log: no segment of the prior's is carried into it.
    #[test]
    fn a_run_that_resets_its_database_starts_a_new_log() {
        let program = program();
        let solver = Solver::new().record_provenance(true);
        let pair = Value::tuple([Value::from(1), Value::from("x")]);
        let wide = Value::from(i64::MAX);
        let first = Delta::new().insert("Item", vec![wide.clone()]);
        let prior = solver.resume(&program, &solver.solve(&program).expect("solves"), &first);
        let prior = prior.expect("resumes");
        // Reaches the negated atom: solved from scratch over the new store.
        let delta = Delta::new()
            .insert("Blocked", vec![Value::from(5)])
            .retract("Item", vec![wide.clone()])
            .insert("Item", vec![pair.clone()]);
        let fallen_back = solver.resume(&program, &prior, &delta);
        let fallen_back = fallen_back.expect("resumes");
        assert!(!fallen_back.contains("Free", &[Value::from(5)]));
        let new = fallen_back.events().expect("recorded").segments();
        for old in prior.events().expect("recorded").segments() {
            assert!(new.iter().all(|segment| !Arc::ptr_eq(segment, old)));
        }
        // The new table spills what the new store asserts, in its order:
        // `wide`'s slot in the prior's table is `pair`'s in this one.
        assert_eq!(slot_of(&pair, &fallen_back), slot_of(&wide, &prior));
        assert_eq!(slot_of(&wide, &fallen_back), None);
        assert_explains(&fallen_back, &pair);
        assert!(fallen_back
            .explain("Seen", std::slice::from_ref(&wide))
            .is_none());
        assert_explains(&prior, &wide);
    }

    /// Seeded arrays of every shape the directory must handle — empty,
    /// one entry, a few hashes many times over, hashes that share their
    /// top bits and so one bucket, and hashes spread over the whole
    /// range — looked up at every filed hash, at its neighbours and at
    /// random ones: the same slice as two binary searches over the whole
    /// array, and a directory of at most 8 bytes an entry.
    #[test]
    fn the_directory_finds_what_two_binary_searches_find() {
        use flix_lattice::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xD1EC);
        for case in 0..600u32 {
            let len = match case {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(0..400usize),
            };
            let draw = |rng: &mut SmallRng| match case % 4 {
                // A few hashes, each filed many times.
                0 => rng.gen_range(0..4u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                // One top byte: every hash in one bucket or two.
                1 => 0xA5 << 56 | rng.next_u64() >> 8,
                // Low bits only: bucket 0.
                2 => rng.gen_range(0..64u64),
                _ => rng.next_u64(),
            };
            let entries: Vec<(u64, u32)> = (0..len).map(|at| (draw(&mut rng), at as u32)).collect();
            let filed = Filed::new(entries);
            let sorted = &filed.entries;
            assert!(
                sorted.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: sorted"
            );
            assert!(
                filed.starts.len() * 4 <= 8 * len.max(1),
                "case {case}: {} directory entries for {len}",
                filed.starts.len()
            );
            let filed_hashes = sorted.iter().map(|&(h, _)| h);
            let near = filed_hashes.flat_map(|h| [h, h.wrapping_sub(1), h.wrapping_add(1)]);
            let random: Vec<u64> = (0..32).map(|_| draw(&mut rng)).collect();
            for hash in near.chain(random).chain([0, u64::MAX]) {
                assert_eq!(
                    filed.get(hash),
                    super::filed(sorted, hash),
                    "case {case}: {len} entries, hash {hash:#x}"
                );
            }
        }
    }
}
