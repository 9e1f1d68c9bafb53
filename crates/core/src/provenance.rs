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
//! facts with their own derivations. Wildcard columns (which match
//! without binding) appear as `None` in the premise pattern and unify
//! with anything during reconstruction.
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
//! consumed it; the index lives inside the shared segment, so it is
//! built once however many solutions the segment outlives. Retraction
//! (`Cone` in `incremental.rs`) and `explain` both walk those indexes
//! instead of scanning the log. DESIGN §16 states the merge policy that
//! keeps the segment count logarithmic.

use crate::fxhash::FxHasher;
use crate::{PredId, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One positive body atom as instantiated at derivation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Premise {
    /// The premise's predicate.
    pub pred: PredId,
    /// The instantiated columns; `None` marks a wildcard position.
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

/// Does `pattern` (with `None` wildcards) match `tuple`?
pub(crate) fn pattern_matches(pattern: &[Option<Value>], tuple: &[Value]) -> bool {
    pattern.len() == tuple.len()
        && pattern
            .iter()
            .zip(tuple)
            .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
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

fn fact_hash<'a>(pred: PredId, key: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u32(pred.0);
    for value in key {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// The events one run recorded, frozen: shared by every solution whose
/// history contains them.
#[derive(Debug)]
pub(crate) struct Segment {
    events: Vec<Event>,
    index: OnceLock<Index>,
}

/// What [`Segment::index`] builds: offsets into the segment's events by
/// the hash of a fact `(predicate, key columns)`. Hashes can collide, so
/// every hit is checked against the event it names.
#[derive(Debug)]
struct Index {
    /// `(hash of the fact an event concluded, offset)`, sorted.
    conclusions: Vec<(u64, u32)>,
    /// `(hash of a fact an event consumed, offset)`, sorted: one entry
    /// per premise whose key columns are all ground.
    consumers: Vec<(u64, u32)>,
    /// Per predicate, ascending: the events with a premise on it whose
    /// key columns hold a wildcard — these have no one fact to hash.
    wildcards: Vec<Vec<u32>>,
}

/// The entries of `sorted` filed under `hash`.
fn filed(sorted: &[(u64, u32)], hash: u64) -> &[(u64, u32)] {
    let start = sorted.partition_point(|&(h, _)| h < hash);
    let len = sorted[start..].partition_point(|&(h, _)| h == hash);
    &sorted[start..start + len]
}

impl Segment {
    fn new(events: Vec<Event>) -> Arc<Segment> {
        Arc::new(Segment {
            events,
            index: OnceLock::new(),
        })
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    fn index(&self, is_lat: &[bool]) -> &Index {
        self.index.get_or_init(|| {
            let mut index = Index {
                conclusions: Vec::with_capacity(self.events.len()),
                consumers: Vec::new(),
                wildcards: vec![Vec::new(); is_lat.len()],
            };
            for (at, event) in self.events.iter().enumerate() {
                let at = at as u32;
                let key = fact_key(is_lat, event.pred, &event.tuple);
                index.conclusions.push((fact_hash(event.pred, key), at));
                let Source::Rule { premises, .. } = &event.source else {
                    continue;
                };
                for premise in premises {
                    let key = fact_key(is_lat, premise.pred, &premise.pattern);
                    if key.iter().all(Option::is_some) {
                        let hash = fact_hash(premise.pred, key.iter().flatten());
                        index.consumers.push((hash, at));
                    } else {
                        let list = &mut index.wildcards[premise.pred.0 as usize];
                        if list.last() != Some(&at) {
                            list.push(at);
                        }
                    }
                }
            }
            index.conclusions.sort_unstable();
            index.consumers.sort_unstable();
            index
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

    /// The live events with their offsets, in log order.
    fn live_events(&self) -> impl DoubleEndedIterator<Item = (u32, &Event)> {
        let events = self.segment.events.iter().enumerate();
        events
            .map(|(at, event)| (at as u32, event))
            .filter(|&(at, _)| self.is_live(at))
    }
}

/// The provenance log of a finished solve: every database-changing
/// insertion still part of this history, in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct EventLog {
    parts: Vec<Part>,
    /// The log as one slice, built on the first request that a lone
    /// unmasked segment cannot serve by itself.
    flat: OnceLock<Arc<[Event]>>,
}

impl EventLog {
    /// The whole log, in insertion order.
    pub(crate) fn as_slice(&self) -> &[Event] {
        match self.parts.as_slice() {
            [] => &[],
            [lone] if lone.dead.is_none() => &lone.segment.events,
            parts => self.flat.get_or_init(|| {
                let live = parts.iter().flat_map(Part::live_events);
                live.map(|(_, event)| event.clone()).collect()
            }),
        }
    }

    pub(crate) fn event(&self, (part, at): Pos) -> &Event {
        &self.parts[part as usize].segment.events[at as usize]
    }

    /// Visits every live event later than `after` (`None`: every live
    /// event) that concludes the fact `(pred, key)` or consumes it — has
    /// a premise on `pred` whose key columns match `key`. An event that
    /// does both, or consumes the fact twice, may be visited twice.
    pub(crate) fn touching(
        &self,
        is_lat: &[bool],
        pred: PredId,
        key: &[Value],
        after: Option<Pos>,
        mut visit: impl FnMut(Pos, &Event),
    ) {
        let hash = fact_hash(pred, key);
        let (first, start) = after.map_or((0, 0), |(part, at)| (part as usize, at + 1));
        for (no, part) in self.parts.iter().enumerate().skip(first) {
            let start = if no == first { start } else { 0 };
            let events = &part.segment.events;
            let index = part.segment.index(is_lat);
            let concludes = |e: &Event| e.pred == pred && fact_key(is_lat, e.pred, &e.tuple) == key;
            let consumes = |e: &Event| match &e.source {
                Source::Fact => false,
                Source::Rule { premises, .. } => premises.iter().any(|p| {
                    p.pred == pred && pattern_matches(fact_key(is_lat, p.pred, &p.pattern), key)
                }),
            };
            let concluding = filed(&index.conclusions, hash).iter();
            let consuming = filed(&index.consumers, hash).iter().map(|&(_, at)| at);
            let consuming = consuming.chain(index.wildcards[pred.0 as usize].iter().copied());
            let candidates = concluding
                .map(|&(_, at)| (at, true))
                .chain(consuming.map(|at| (at, false)));
            for (at, concluded) in candidates {
                if at < start || !part.is_live(at) {
                    continue;
                }
                let event = &events[at as usize];
                let touches = if concluded {
                    concludes(event)
                } else {
                    consumes(event)
                };
                if touches {
                    visit((no as u32, at), event);
                }
            }
        }
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
    /// concluded the fact `(pred, key)` and that `accept` takes.
    pub(crate) fn latest(
        &self,
        is_lat: &[bool],
        pred: PredId,
        key: &[Value],
        before: Option<Pos>,
        accept: impl Fn(&Event) -> bool,
    ) -> Option<Pos> {
        let hash = fact_hash(pred, key);
        for (no, part, end) in self.parts_before(before) {
            let index = part.segment.index(is_lat);
            for &(_, at) in filed(&index.conclusions, hash).iter().rev() {
                let event = &part.segment.events[at as usize];
                if at < end
                    && part.is_live(at)
                    && event.pred == pred
                    && fact_key(is_lat, pred, &event.tuple) == key
                    && accept(event)
                {
                    return Some((no, at));
                }
            }
        }
        None
    }

    /// The latest live event before `before` that `accept` takes, by
    /// scanning backwards: for what no index covers.
    pub(crate) fn latest_scanned(
        &self,
        before: Pos,
        accept: impl Fn(&Event) -> bool,
    ) -> Option<Pos> {
        for (no, part, end) in self.parts_before(Some(before)) {
            let mut earlier = part.live_events().rev().filter(|&(at, _)| at < end);
            if let Some((at, _)) = earlier.find(|(_, event)| accept(event)) {
                return Some((no, at));
            }
        }
        None
    }

    /// The position of every live event, in log order: entry `i` is where
    /// event `i` of [`EventLog::as_slice`] sits.
    #[cfg(test)]
    pub(crate) fn positions(&self) -> Vec<Pos> {
        let parts = self.parts.iter().enumerate();
        parts
            .flat_map(|(no, part)| part.live_events().map(move |(at, _)| (no as u32, at)))
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
#[derive(Debug, Default)]
pub(crate) struct OpenLog {
    parts: Vec<Part>,
    tail: Vec<Event>,
}

impl OpenLog {
    /// A log that continues `prior`: every segment shared, none copied.
    pub(crate) fn continuing(prior: &EventLog) -> OpenLog {
        OpenLog {
            parts: prior.parts.clone(),
            tail: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        self.tail.push(event);
    }

    /// The events this run recorded itself.
    pub(crate) fn tail_mut(&mut self) -> &mut Vec<Event> {
        &mut self.tail
    }

    /// Takes the events at `dead` — ascending positions in the continued
    /// segments, each live — out of this history.
    pub(crate) fn kill(&mut self, dead: &[Pos]) {
        for of_part in dead.chunk_by(|a, b| a.0 == b.0) {
            let part = &mut self.parts[of_part[0].0 as usize];
            let mut mask = match &part.dead {
                Some(mask) => mask.to_vec(),
                None => vec![0; part.segment.events.len().div_ceil(64)],
            };
            for &(_, at) in of_part {
                mask[at as usize / 64] |= 1 << (at % 64);
            }
            part.dead = Some(mask.into());
        }
    }

    /// Closes the log: the tail becomes a segment. To keep the segment
    /// count logarithmic, it first absorbs — copying their live events in
    /// front of its own — the trailing segments shorter than twice what
    /// it has grown to so far (DESIGN §16, "Segments"). Lengths count
    /// masked events too, so a segment's length never changes and every
    /// segment stays at least twice as long as its successor.
    pub(crate) fn freeze(self) -> EventLog {
        let OpenLog {
            mut parts,
            mut tail,
        } = self;
        if !tail.is_empty() {
            let (mut keep, mut length) = (parts.len(), tail.len());
            while keep > 0 && parts[keep - 1].segment.events.len() < 2 * length {
                keep -= 1;
                length += parts[keep].segment.events.len();
            }
            if keep < parts.len() {
                let absorbed = parts.drain(keep..).collect::<Vec<_>>();
                let live = absorbed.iter().flat_map(Part::live_events);
                let mut events: Vec<Event> = live.map(|(_, event)| event.clone()).collect();
                events.append(&mut tail);
                tail = events;
            }
            parts.push(Part {
                segment: Segment::new(tail),
                dead: None,
            });
        }
        EventLog {
            parts,
            flat: OnceLock::new(),
        }
    }
}
