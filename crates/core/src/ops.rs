//! Runtime lattice operations over dynamic [`Value`]s.

use crate::guard::panic_payload;
use crate::verify::Violation;
use crate::{Names, Value};
use flix_lattice::{
    Constant, Flat, Interval, Lattice, MinCost, Parity, PowerSet, Sign, SuLattice, Transformer,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// A panic caught inside a user-supplied lattice operation or function.
///
/// The solver isolates every invocation of user code with
/// `catch_unwind`, so a buggy `leq`/`lub`/`glb` (or a transfer function
/// that indexes out of bounds) surfaces as a structured solve error with
/// the offending function named, instead of tearing down the process.
#[derive(Clone, Debug)]
pub(crate) struct OpsPanic {
    /// Qualified function name, e.g. `Parity.lub`.
    pub(crate) function: String,
    /// The rendered panic payload.
    pub(crate) payload: String,
}

/// Shared closure type for the components of a [`LatticeOps`].
type BinOp = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;
type BinPred = Arc<dyn Fn(&Value, &Value) -> bool + Send + Sync>;
/// Closure type of a word form of a lattice operation.
type WordOp = Box<dyn Fn(u64, u64) -> u64 + Send + Sync>;

/// The word forms of a lattice's `leq`, `lub` and `glb` over the fact
/// store's slots ([`LatticeOps::with_word_forms`]), shared by every clone
/// of the [`LatticeOps`].
pub(crate) struct SlotForms {
    pub(crate) leq: WordOp,
    pub(crate) lub: WordOp,
    pub(crate) glb: WordOp,
    /// The names whose ids the forms bake in.
    pub(crate) names: Names,
}

/// The same forms: one registration, shared.
impl PartialEq for SlotForms {
    fn eq(&self, other: &SlotForms) -> bool {
        std::ptr::eq(self, other)
    }
}

impl fmt::Debug for SlotForms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SlotForms")
    }
}

/// A built-in shape of lattice, whose operations the engine runs on the
/// fact store's words instead of calling the closures of a
/// [`LatticeOps`] (DESIGN §15). A lattice *declares* its kind
/// ([`LatticeOps::with_kind`], [`ValueLattice::kind`]); the declaration
/// is held to the lattice's own closures on sampled elements once, before
/// the first solve that uses it, and a lattice whose closures disagree is
/// refused with [`Violation::KindMismatch`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LatticeKind {
    /// The flat lattice over one constructor: `⊥ ⊑ tag(x) ⊑ ⊤` for every
    /// value `x`, and two elements `tag(x)`, `tag(y)` with `x ≠ y`
    /// incomparable. Its elements are single words: ⊥ and ⊤ are
    /// [`FLAT_BOTTOM`](crate::FLAT_BOTTOM) and [`FLAT_TOP`](crate::FLAT_TOP),
    /// `tag(x)` is the slot of `x`. `SULattice` (`Single`) and `Constant`
    /// (`Cst`) are flat.
    Flat {
        /// The constructor of the elements between ⊥ and ⊤.
        tag: Arc<str>,
    },
    /// The chain over one constructor and the naturals below 2⁶⁰, ordered
    /// by `≥`: `⊥ ⊑ tag(n) ⊑ tag(m)` whenever `n ≥ m`, so ⊤ is `tag(0)`,
    /// `lub` is `min` and `glb` is `max` — the §4.4 shortest-paths
    /// lattice. Its elements are single words: ⊥ is
    /// [`CHAIN_BOTTOM`](crate::CHAIN_BOTTOM), `tag(n)` is
    /// [`slot_of_int(n)`](crate::slot_of_int). `MinCost` (`Fin`) is a
    /// chain; an element `tag(n)` with `n` out of range is not one of the
    /// kind's.
    Chain {
        /// The constructor of the elements above ⊥.
        tag: Arc<str>,
    },
}

impl fmt::Display for LatticeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeKind::Flat { tag } => write!(f, "flat {tag}(_)"),
            LatticeKind::Chain { tag } => write!(f, "chain {tag}(_)"),
        }
    }
}

/// A declared kind, the elements it is checked on, and — once checked —
/// the verdict, shared by every clone of the [`LatticeOps`].
#[derive(Clone, Debug)]
struct Declared {
    kind: LatticeKind,
    samples: Arc<[Value]>,
    checked: Arc<OnceLock<Result<(), Violation>>>,
}

/// The runtime representation of a lattice over dynamic [`Value`]s.
///
/// This is the engine-level counterpart of the paper's `let Parity<> =
/// (Parity.Bot, Parity.Top, leq, lub, glb)` lattice association (Figure 2,
/// lines 28–29): a bottom element, an optional top element, and the three
/// operations as shared closures. A `lat` predicate declaration carries one
/// of these.
///
/// Construct it either from a statically typed lattice via
/// [`LatticeOps::of`] (using the [`ValueLattice`] embedding) or from raw
/// closures via [`LatticeOps::from_fns`] (used by the surface-language
/// compiler, whose `leq`/`lub`/`glb` are interpreted user code).
///
/// # Example
///
/// ```
/// use flix_core::{LatticeOps, Value, ValueLattice};
/// use flix_lattice::Parity;
///
/// let ops = LatticeOps::of::<Parity>();
/// let even = Parity::Even.to_value();
/// let odd = Parity::Odd.to_value();
/// assert_eq!(ops.lub(&even, &odd), Parity::Top.to_value());
/// ```
#[derive(Clone)]
pub struct LatticeOps {
    name: Arc<str>,
    bot: Value,
    top: Option<Value>,
    leq: BinPred,
    lub: BinOp,
    glb: BinOp,
    kind: Option<Declared>,
    forms: Option<Arc<SlotForms>>,
}

impl LatticeOps {
    /// Builds the runtime operations for a statically typed lattice `L`,
    /// of the built-in kind `L` declares, if any ([`ValueLattice::kind`]).
    pub fn of<L: ValueLattice>() -> LatticeOps {
        let ops = LatticeOps {
            name: L::lattice_name().into(),
            bot: L::bottom().to_value(),
            top: L::top_value(),
            leq: Arc::new(|a, b| {
                let (a, b) = (L::expect_from(a), L::expect_from(b));
                a.leq(&b)
            }),
            lub: Arc::new(|a, b| {
                let (x, y) = (L::expect_from(a), L::expect_from(b));
                let j = x.lub(&y);
                // When the join equals one operand — always, for
                // chain-shaped lattices like `MinCost` — reuse its boxed
                // form instead of re-boxing through `to_value`. On the
                // solver's hot path this skips an allocation per join.
                if j == y {
                    return b.clone();
                }
                if j == x {
                    return a.clone();
                }
                j.to_value()
            }),
            glb: Arc::new(|a, b| {
                let (x, y) = (L::expect_from(a), L::expect_from(b));
                let m = x.glb(&y);
                if m == y {
                    return b.clone();
                }
                if m == x {
                    return a.clone();
                }
                m.to_value()
            }),
            kind: None,
            forms: None,
        };
        match L::kind() {
            Some((kind, samples)) => ops.with_kind(kind, samples.iter().map(L::to_value)),
            None => ops,
        }
    }

    /// Builds runtime operations from raw closures.
    ///
    /// The closures must implement a complete lattice on the subset of
    /// [`Value`]s they are applied to; otherwise the meaning of any program
    /// using them is undefined (paper §2.2: "the definition assumes that
    /// the supplied functions satisfy the properties of a complete
    /// lattice").
    pub fn from_fns(
        name: impl Into<Arc<str>>,
        bot: Value,
        top: Option<Value>,
        leq: impl Fn(&Value, &Value) -> bool + Send + Sync + 'static,
        lub: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
        glb: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> LatticeOps {
        LatticeOps {
            name: name.into(),
            bot,
            top,
            leq: Arc::new(leq),
            lub: Arc::new(lub),
            glb: Arc::new(glb),
            kind: None,
            forms: None,
        }
    }

    /// Declares that these operations are those of the built-in `kind`:
    /// the engine then stores this lattice's cells as words and runs its
    /// `leq`, `lub` and `glb` on them, calling the closures no more. The
    /// claim is checked against the closures on `samples` — which must
    /// include two elements between ⊥ and ⊤ — plus ⊥ and ⊤, once, before
    /// the first solve of a program that declares a predicate over these
    /// operations; a claim that fails the check makes that solve fail
    /// with [`Violation::KindMismatch`] before it evaluates anything.
    pub fn with_kind(
        mut self,
        kind: LatticeKind,
        samples: impl IntoIterator<Item = Value>,
    ) -> Self {
        self.kind = Some(Declared {
            kind,
            samples: samples.into_iter().collect(),
            checked: Arc::default(),
        });
        self
    }

    /// Registers word forms of `leq`, `lub` and `glb` over the fact
    /// store's slots — what [`ProgramBuilder::word_form`] is for a
    /// function, with [`WordType::Slot`] for both arguments and the
    /// result. Each reads the slots of two elements and returns the slot
    /// of its answer (`leq`: [`WORD_TRUE`] or [`WORD_FALSE`]), or, where
    /// it cannot answer exactly — an operand it cannot read, such as a
    /// spilled slot, or an answer with no slot of its own — any word that
    /// is not a slot: then the closure decides, on the decoded operands.
    /// A round-local operand — a `glb` a rule body computed that the store
    /// holds no slot for yet — is never handed to a form: the closure
    /// meets it. Both must compute the same operation; which one runs is
    /// the engine's choice.
    ///
    /// A form that bakes in a constructor's id or a string's slot takes
    /// it from `names`, the [`Names`] of the program the lattice is
    /// declared in: those ids are the program's, not the process's. A
    /// program whose names do not give every one of those ids to the
    /// same string is refused when built
    /// ([`ProgramError::ForeignWordForms`]).
    ///
    /// A lattice that declares no kind keeps its cells as slots, ⊥'s
    /// fixed by its program's names ([`Names::slot`]), whether or not it
    /// has these forms; with them it joins its cells with the forms, under
    /// the same law sentinels as its closures (DESIGN §15). A variable
    /// standing for one of its elements is an ordinary slot, which a
    /// function's word form reads.
    /// A declared kind takes precedence over the forms.
    ///
    /// [`ProgramBuilder::word_form`]: crate::ProgramBuilder::word_form
    /// [`WordType::Slot`]: crate::WordType::Slot
    /// [`WORD_TRUE`]: crate::WORD_TRUE
    /// [`WORD_FALSE`]: crate::WORD_FALSE
    /// [`Names::slot`]: crate::Names::slot
    /// [`ProgramError::ForeignWordForms`]: crate::ProgramError::ForeignWordForms
    pub fn with_word_forms(
        mut self,
        names: &Names,
        leq: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
        lub: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
        glb: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.forms = Some(Arc::new(SlotForms {
            leq: Box::new(leq),
            lub: Box::new(lub),
            glb: Box::new(glb),
            names: names.clone(),
        }));
        self
    }

    /// The word forms of the operations, when registered.
    pub(crate) fn word_forms(&self) -> Option<&Arc<SlotForms>> {
        self.forms.as_ref()
    }

    /// The same closures, declaring no kind and with no word forms: run
    /// boxed.
    #[cfg(any(test, feature = "test-internals"))]
    pub(crate) fn without_kind(&self) -> LatticeOps {
        LatticeOps {
            kind: None,
            forms: None,
            ..self.clone()
        }
    }

    /// The built-in kind these operations declare, if any.
    pub fn kind(&self) -> Option<&LatticeKind> {
        self.kind.as_ref().map(|declared| &declared.kind)
    }

    /// Holds a declared kind to the closures, once per declaration (its
    /// clones share the verdict): see [`crate::verify::check_kind`].
    pub(crate) fn check_kind(&self) -> Result<(), Violation> {
        let Some(declared) = &self.kind else {
            return Ok(());
        };
        let verdict = declared
            .checked
            .get_or_init(|| crate::verify::check_kind(self, &declared.kind, &declared.samples));
        verdict.clone()
    }

    /// The human-readable lattice name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bottom element.
    pub fn bottom(&self) -> &Value {
        &self.bot
    }

    /// The top element, if representable.
    pub fn top(&self) -> Option<&Value> {
        self.top.as_ref()
    }

    /// The partial order.
    pub fn leq(&self, a: &Value, b: &Value) -> bool {
        (self.leq)(a, b)
    }

    /// The least upper bound.
    pub fn lub(&self, a: &Value, b: &Value) -> Value {
        (self.lub)(a, b)
    }

    /// The greatest lower bound.
    pub fn glb(&self, a: &Value, b: &Value) -> Value {
        (self.glb)(a, b)
    }

    /// Returns `true` if `v` is the bottom element.
    pub fn is_bottom(&self, v: &Value) -> bool {
        *v == self.bot
    }

    /// [`LatticeOps::leq`] with panic isolation: a panic in the user
    /// closure is caught and reported as a structured [`OpsPanic`].
    pub(crate) fn try_leq(&self, a: &Value, b: &Value) -> Result<bool, OpsPanic> {
        catch_unwind(AssertUnwindSafe(|| (self.leq)(a, b))).map_err(|p| self.ops_panic("leq", p))
    }

    /// [`LatticeOps::lub`] with panic isolation.
    pub(crate) fn try_lub(&self, a: &Value, b: &Value) -> Result<Value, OpsPanic> {
        catch_unwind(AssertUnwindSafe(|| (self.lub)(a, b))).map_err(|p| self.ops_panic("lub", p))
    }

    /// [`LatticeOps::glb`] with panic isolation.
    pub(crate) fn try_glb(&self, a: &Value, b: &Value) -> Result<Value, OpsPanic> {
        catch_unwind(AssertUnwindSafe(|| (self.glb)(a, b))).map_err(|p| self.ops_panic("glb", p))
    }

    fn ops_panic(&self, op: &str, payload: Box<dyn std::any::Any + Send>) -> OpsPanic {
        OpsPanic {
            function: format!("{}.{op}", self.name),
            payload: panic_payload(payload),
        }
    }
}

impl fmt::Debug for LatticeOps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatticeOps")
            .field("name", &self.name)
            .field("bot", &self.bot)
            .field("top", &self.top)
            .field("kind", &self.kind())
            .field("word_forms", &self.forms.is_some())
            .finish_non_exhaustive()
    }
}

/// A lattice whose elements embed into the engine's dynamic [`Value`]s.
///
/// Implemented here for every lattice shipped by
/// [`flix_lattice`]; implement it for your own lattice types to use them
/// in `lat` predicates.
pub trait ValueLattice: Lattice {
    /// A human-readable name for diagnostics.
    fn lattice_name() -> &'static str;

    /// Encodes this element as a [`Value`].
    fn to_value(&self) -> Value;

    /// Decodes an element from a [`Value`], if well-formed.
    fn from_value(v: &Value) -> Option<Self>;

    /// The top element as a value, when the lattice has one.
    fn top_value() -> Option<Value> {
        None
    }

    /// The built-in kind this lattice is an instance of, if any, and
    /// elements to check that claim on (see [`LatticeOps::with_kind`]).
    fn kind() -> Option<(LatticeKind, Vec<Self>)> {
        None
    }

    /// Decodes a value, panicking on malformed input.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid encoding of an element of this
    /// lattice — which indicates a type error in the program, i.e. a bug
    /// in the caller, not recoverable data.
    fn expect_from(v: &Value) -> Self {
        match Self::from_value(v) {
            Some(e) => e,
            None => panic!(
                "value {v} is not an element of the {} lattice",
                Self::lattice_name()
            ),
        }
    }
}

impl ValueLattice for Parity {
    fn lattice_name() -> &'static str {
        "Parity"
    }

    fn to_value(&self) -> Value {
        match self {
            Parity::Bot => Value::tag0("Bot"),
            Parity::Even => Value::tag0("Even"),
            Parity::Odd => Value::tag0("Odd"),
            Parity::Top => Value::tag0("Top"),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Bot" => Some(Parity::Bot),
            "Even" => Some(Parity::Even),
            "Odd" => Some(Parity::Odd),
            "Top" => Some(Parity::Top),
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(Parity::Top.to_value())
    }
}

impl ValueLattice for Sign {
    fn lattice_name() -> &'static str {
        "Sign"
    }

    fn to_value(&self) -> Value {
        match self {
            Sign::Bot => Value::tag0("Bot"),
            Sign::Neg => Value::tag0("Neg"),
            Sign::Zer => Value::tag0("Zer"),
            Sign::Pos => Value::tag0("Pos"),
            Sign::Top => Value::tag0("Top"),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Bot" => Some(Sign::Bot),
            "Neg" => Some(Sign::Neg),
            "Zer" => Some(Sign::Zer),
            "Pos" => Some(Sign::Pos),
            "Top" => Some(Sign::Top),
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(Sign::Top.to_value())
    }
}

impl ValueLattice for Constant {
    fn lattice_name() -> &'static str {
        "Constant"
    }

    fn to_value(&self) -> Value {
        match self {
            Flat::Bot => Value::tag0("Bot"),
            Flat::Val(n) => Value::tag("Cst", Value::Int(*n)),
            Flat::Top => Value::tag0("Top"),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Bot" => Some(Flat::Bot),
            "Top" => Some(Flat::Top),
            "Cst" => Some(Flat::Val(v.tag_payload()?.as_int()?)),
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(Flat::Top.to_value())
    }

    fn kind() -> Option<(LatticeKind, Vec<Self>)> {
        let tag = "Cst".into();
        Some((
            LatticeKind::Flat { tag },
            vec![Flat::Val(-1), Flat::Val(0), Flat::Val(1)],
        ))
    }
}

impl ValueLattice for Interval {
    fn lattice_name() -> &'static str {
        "Interval"
    }

    fn to_value(&self) -> Value {
        match self.bounds() {
            None => Value::tag0("Bot"),
            Some((lo, hi)) => Value::tag("Range", Value::tuple([Value::Int(lo), Value::Int(hi)])),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Bot" => Some(Interval::Bot),
            "Range" => {
                let items = v.tag_payload()?.as_tuple()?;
                match items {
                    [lo, hi] => Some(Interval::of(lo.as_int()?, hi.as_int()?)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        use flix_lattice::HasTop;
        Some(Interval::top().to_value())
    }
}

impl ValueLattice for MinCost {
    fn lattice_name() -> &'static str {
        "MinCost"
    }

    fn to_value(&self) -> Value {
        match self.value() {
            None => Value::tag0("Inf"),
            Some(c) => Value::tag("Fin", Value::Int(c as i64)),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Inf" => Some(MinCost::INFINITY),
            "Fin" => Some(MinCost::finite(v.tag_payload()?.as_int()?.try_into().ok()?)),
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(MinCost::finite(0).to_value())
    }

    fn kind() -> Option<(LatticeKind, Vec<Self>)> {
        let tag = "Fin".into();
        // The last sample is the chain's least finite element.
        let samples = [1, 2, 7, (1 << 60) - 1].map(MinCost::finite).to_vec();
        Some((LatticeKind::Chain { tag }, samples))
    }
}

impl ValueLattice for SuLattice {
    fn lattice_name() -> &'static str {
        "SULattice"
    }

    fn to_value(&self) -> Value {
        match self {
            SuLattice::Bottom => Value::tag0("Bottom"),
            SuLattice::Single(p) => Value::tag("Single", Value::Str(p.clone())),
            SuLattice::Top => Value::tag0("Top"),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Bottom" => Some(SuLattice::Bottom),
            "Top" => Some(SuLattice::Top),
            "Single" => match v.tag_payload()? {
                Value::Str(s) => Some(SuLattice::Single(s.clone())),
                _ => None,
            },
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(SuLattice::Top.to_value())
    }

    fn kind() -> Option<(LatticeKind, Vec<Self>)> {
        let samples = ["a", "b", "c"].map(SuLattice::single).to_vec();
        Some((
            LatticeKind::Flat {
                tag: "Single".into(),
            },
            samples,
        ))
    }
}

impl ValueLattice for Transformer {
    fn lattice_name() -> &'static str {
        "Transformer"
    }

    fn to_value(&self) -> Value {
        match self {
            Transformer::Bot => Value::tag0("BotTransformer"),
            Transformer::NonBot { a, b, c } => Value::tag(
                "NonBotTransformer",
                Value::tuple([Value::Int(*a), Value::Int(*b), c.to_value()]),
            ),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "BotTransformer" => Some(Transformer::Bot),
            "NonBotTransformer" => {
                let items = v.tag_payload()?.as_tuple()?;
                match items {
                    [a, b, c] => Some(Transformer::non_bot(
                        a.as_int()?,
                        b.as_int()?,
                        Constant::from_value(c)?,
                    )),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(Transformer::top_transformer().to_value())
    }
}

impl ValueLattice for PowerSet<Value> {
    fn lattice_name() -> &'static str {
        "PowerSet"
    }

    fn to_value(&self) -> Value {
        match self {
            PowerSet::Empty => Value::tag("Fin", Value::set([])),
            PowerSet::Set(s) => Value::tag("Fin", Value::set(s.iter().cloned())),
            PowerSet::Univ => Value::tag0("Univ"),
        }
    }

    fn from_value(v: &Value) -> Option<Self> {
        match v.tag_name()? {
            "Univ" => Some(PowerSet::Univ),
            "Fin" => {
                let set = v.tag_payload()?.as_set()?;
                Some(set.iter().cloned().collect())
            }
            _ => None,
        }
    }

    fn top_value() -> Option<Value> {
        Some(PowerSet::Univ.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<L: ValueLattice>(elems: impl IntoIterator<Item = L>) {
        for e in elems {
            let v = e.to_value();
            assert_eq!(L::from_value(&v), Some(e), "roundtrip of {v}");
        }
    }

    #[test]
    fn roundtrips() {
        use flix_lattice::FiniteLattice;
        roundtrip(Parity::elements());
        roundtrip(Sign::elements());
        roundtrip([Flat::Bot, Constant::cst(-7), Flat::Top]);
        roundtrip([Interval::Bot, Interval::of(-3, 9)]);
        roundtrip([MinCost::INFINITY, MinCost::finite(42)]);
        roundtrip([SuLattice::Bottom, SuLattice::single("p"), SuLattice::Top]);
        roundtrip([
            Transformer::Bot,
            Transformer::identity(),
            Transformer::top_transformer(),
            Transformer::non_bot(2, 3, Constant::cst(4)),
        ]);
        roundtrip([
            PowerSet::<Value>::Empty,
            PowerSet::singleton(Value::from(1)),
            PowerSet::Univ,
        ]);
    }

    #[test]
    fn ops_agree_with_static_lattice() {
        let ops = LatticeOps::of::<Parity>();
        for a in [Parity::Bot, Parity::Even, Parity::Odd, Parity::Top] {
            for b in [Parity::Bot, Parity::Even, Parity::Odd, Parity::Top] {
                assert_eq!(ops.leq(&a.to_value(), &b.to_value()), a.leq(&b));
                assert_eq!(ops.lub(&a.to_value(), &b.to_value()), a.lub(&b).to_value());
                assert_eq!(ops.glb(&a.to_value(), &b.to_value()), a.glb(&b).to_value());
            }
        }
        assert!(ops.is_bottom(&Parity::Bot.to_value()));
        assert_eq!(ops.top(), Some(&Parity::Top.to_value()));
        assert_eq!(ops.name(), "Parity");
    }

    #[test]
    #[should_panic(expected = "not an element")]
    fn malformed_value_panics() {
        let _ = Parity::expect_from(&Value::Int(3));
    }

    #[test]
    fn from_fns_constructor() {
        // A tiny two-point lattice over raw booleans.
        let ops = LatticeOps::from_fns(
            "Bool",
            Value::Bool(false),
            Some(Value::Bool(true)),
            |a, b| !a.is_true() || b.is_true(),
            |a, b| Value::Bool(a.is_true() || b.is_true()),
            |a, b| Value::Bool(a.is_true() && b.is_true()),
        );
        assert!(ops.leq(&Value::Bool(false), &Value::Bool(true)));
        assert_eq!(
            ops.lub(&Value::Bool(false), &Value::Bool(true)),
            Value::Bool(true)
        );
        assert!(format!("{ops:?}").contains("Bool"));
    }
}
