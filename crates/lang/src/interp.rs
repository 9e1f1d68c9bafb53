//! The evaluator for the pure functional fragment of FLIX.
//!
//! The paper's implementation evaluates functions "using an AST-based
//! interpreter" (§4.5). This module keeps that language and its semantics
//! but reads the AST once: [`Interpreter::new`] compiles every `def` into
//! one tree of closures, *word code*, in which the work a tree-walker
//! repeats on each call is already done — callees are indexes into the
//! compiled table, variables are numbered words of a frame whose size is
//! known, and constants are prebuilt words.
//!
//! Word code computes on `u64` words, the fact store's slots (DESIGN §6),
//! on a frame of words on the machine stack. A word is one of three
//! things. An *inline* slot holds a unit, a boolean, an integer of 61
//! bits or a constructor applied to one of those
//! ([`flix_core::slot_of_ctor`]). A *named* slot is a string the program's
//! [`Names`] fix — a constructor's name or a string literal — the same in
//! every store of the program, so word code bakes it in. Any other value —
//! a tuple, a set, a constructor of several fields, an integer past the
//! inline range, a string that is no literal — is a *heap* word: its index
//! in the running call's heap, under a tag no slot and no round-local word
//! carries. Encoding is canonical, so two words are equal exactly when
//! their values are, except two heap words, whose values are compared.
//!
//! Two entries run the one code. [`Interpreter::call`] encodes its
//! arguments, runs the code with a heap and decodes the result; it
//! answers every call, and panics where the language does — no arm that
//! matches, the call-depth limit. The word-form entry
//! (`Interpreter::call_words`) runs it on a store's slots with no heap,
//! and declines where it would make a heap value, look inside a value its
//! store spilled, fill its frame, or panic: the engine then calls the
//! value entry. A
//! `def` gets a word form when no construct of its body always makes a
//! heap value and every `def` it calls gets one too; lowering registers
//! it as the function's word form and, for a lattice's `leq`, `lub` and
//! `glb`, as the lattice's ([`flix_core::LatticeOps::with_word_forms`]).

use crate::ast::{BinOp, Expr, Lit, MatchArm, Pattern, UnOp};
use crate::token::Pos;
use crate::typeck::CheckedProgram;
use flix_core::{
    ctor_of_slot, int_of_slot, slot_of_ctor, slot_of_int, Names, Value, WORD_FALSE, WORD_TRUE,
};
use std::fmt;
use std::sync::Arc;

/// The deepest permitted nesting of `def` calls. One call more panics
/// with `recursion limit exceeded in <def>`, which the guarded solver
/// reports as a function panic, where running out of machine stack
/// aborts the process. Fixed, and small on purpose: a level of recursion
/// costs a machine frame per closure between one call and the next —
/// measured at 0.8–1.5 KiB a level in a debug build (0.17–0.34 KiB in
/// release) for bodies nesting one to seven expressions — so the limit is
/// reached within a quarter of a 2 MiB thread stack (the default of
/// `std::thread::spawn`, which solver workers and the `flixd` writer run
/// on), and bodies nesting four times deeper still fit. The word-form
/// entry declines at the same depth.
const MAX_CALL_DEPTH: usize = 256;

/// The words a frame holds on the machine stack: the slots of the
/// running calls' parameters, `let`s, pattern variables and scrutinees.
/// The word-form entry declines where a call needs more; the value entry
/// runs again on a stack four times as long.
const WORD_STACK: usize = 32;

/// The low three bits of a word: its tag, as the store encodes it. A
/// heap word carries [`HEAP`], the one tag that no store slot, no reserved
/// lattice word and no round-local word carries; a string the program's
/// names fix carries [`NAMED`] over its id; `()` is [`UNIT`].
const TAG_MASK: u64 = 7;
const HEAP: u64 = 3;
const NAMED: u64 = 4;
const UNIT: u64 = 0;

/// The code of one expression: the word of its value in a frame, or
/// `None` where the word-form entry declines.
type WordCode = Box<dyn Fn(&mut WordFrame<'_>) -> Option<u64> + Send + Sync>;

/// The compiled test of one pattern on a word, which binds the pattern's
/// variables as it goes: `None` where the word-form entry cannot tell — a
/// spilled value the test would have to look into.
type WordTest = Box<dyn Fn(&mut WordFrame<'_>, u64) -> Option<bool> + Send + Sync>;

/// One compiled `def`.
struct Def {
    name: String,
    arity: usize,
    /// The frame size: parameters first, then the most `let`, pattern and
    /// scrutinee words live at once.
    slots: usize,
    code: WordCode,
    /// Whether the word-form entry runs it: no construct of its body
    /// always makes a heap value, and every `def` it calls runs too.
    word_form: bool,
}

/// The program's [`Names`], and the strings their ids stand for.
#[derive(Clone, Default)]
struct Strings {
    names: Names,
    /// Each name by its id.
    by_id: Vec<Arc<str>>,
}

impl Strings {
    /// The id of `name`, registering it when it is new, and the one
    /// allocation every store of the program decodes it to.
    fn intern(&mut self, name: &str) -> (u32, Arc<str>) {
        let (id, name) = self.names.intern(name);
        if id as usize == self.by_id.len() {
            self.by_id.push(Arc::clone(&name));
        }
        (id, name)
    }

    /// A literal's value, a string one among the names: then it has a
    /// slot word code may bake in.
    fn literal(&mut self, l: &Lit) -> Value {
        match l {
            Lit::Str(s) => Value::Str(self.intern(s).1),
            _ => lit_value(l),
        }
    }
}

/// The activation state of one outermost call: a word stack shared by
/// the nested calls, the running call's window into it, the depth, and
/// the value entry's heap.
struct WordFrame<'d> {
    defs: &'d [Def],
    strings: &'d Strings,
    /// The running calls' words — parameters, `let`s, pattern variables
    /// and scrutinees — and the arguments pushed for the next call.
    stack: &'d mut [u64],
    /// The words in use.
    top: usize,
    /// Where the running call's words start.
    base: usize,
    depth: usize,
    /// Whether a call needed more words than `stack` has: it declined.
    ran_out: bool,
    /// The values heap words stand for, at the indexes the words carry;
    /// `None` in the word-form entry.
    heap: Option<&'d mut Vec<Value>>,
}

impl<'d> WordFrame<'d> {
    fn new(
        defs: &'d [Def],
        strings: &'d Strings,
        stack: &'d mut [u64],
        heap: Option<&'d mut Vec<Value>>,
    ) -> WordFrame<'d> {
        WordFrame {
            defs,
            strings,
            stack,
            top: 0,
            base: 0,
            depth: 0,
            ran_out: false,
            heap,
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> u64 {
        self.stack[self.base + slot]
    }

    #[inline]
    fn set(&mut self, slot: usize, word: u64) {
        self.stack[self.base + slot] = word;
    }

    /// Makes the words below `top` the frame's; `None` when `stack` has
    /// fewer.
    #[inline]
    fn reach(&mut self, top: usize) -> Option<()> {
        if top > self.stack.len() {
            self.ran_out = true;
            return None;
        }
        self.top = top;
        Some(())
    }

    /// Pushes an argument of the next call.
    #[inline]
    fn push(&mut self, word: u64) -> Option<()> {
        let at = self.top;
        self.reach(at + 1)?;
        self.stack[at] = word;
        Some(())
    }

    /// Runs `callee` on the arguments pushed from `base` up.
    fn enter(&mut self, callee: usize, base: usize) -> Option<u64> {
        let defs = self.defs;
        let def = &defs[callee];
        if self.depth == MAX_CALL_DEPTH {
            return self.refuse(|_| format!("recursion limit exceeded in {}", def.name));
        }
        self.reach(base + def.slots)?;
        let caller = std::mem::replace(&mut self.base, base);
        self.depth += 1;
        let result = (def.code)(self);
        self.depth -= 1;
        self.base = caller;
        self.top = base;
        result
    }

    /// Where the language panics: the value entry panics with `message`,
    /// the word-form entry declines.
    #[cold]
    fn refuse(&self, message: impl FnOnce(&Self) -> String) -> Option<u64> {
        if self.heap.is_some() {
            panic!("{}", message(self));
        }
        None
    }

    /// A heap word for `value`, which has no inline or named slot; `None`
    /// in the word-form entry.
    #[cold]
    fn alloc(&mut self, value: Value) -> Option<u64> {
        let heap = self.heap.as_mut()?;
        heap.push(value);
        Some((((heap.len() - 1) as u64) << 3) | HEAP)
    }

    /// The word of `value`: its inline or named slot, or a heap word.
    #[cold]
    fn encode(&mut self, value: Value) -> Option<u64> {
        match self.strings.names.slot(&value) {
            Some(slot) => Some(slot),
            None => self.alloc(value),
        }
    }

    /// The heap word of constructor `tag` applied to the value of
    /// `payload`: a value with no constructor slot.
    #[cold]
    fn tag(&mut self, tag: &Arc<str>, payload: u64) -> Option<u64> {
        let payload = self.value(payload)?;
        self.alloc(Value::Tag(Arc::clone(tag), Arc::new(payload)))
    }

    /// The word of the payload of heap word `word`, when its value is
    /// constructor `tag`'s (`Some(None)` when it is another's).
    #[cold]
    fn payload(&mut self, word: u64, tag: &Arc<str>) -> Option<Option<u64>> {
        match self.heap_value(word)? {
            Value::Tag(name, payload) if name == tag => {
                let payload = Value::clone(payload);
                Some(Some(self.encode(payload)?))
            }
            _ => Some(None),
        }
    }

    /// The value a heap word stands for.
    #[inline]
    fn heap_value(&self, word: u64) -> Option<&Value> {
        if word & TAG_MASK != HEAP {
            return None;
        }
        self.heap.as_ref()?.get((word >> 3) as usize)
    }

    /// The value `word` stands for; `None` for a value a store spilled.
    fn value(&self, word: u64) -> Option<Value> {
        if let Some(n) = int_of_slot(word) {
            return Some(Value::Int(n));
        }
        if let Some((ctor, payload)) = ctor_of_slot(word) {
            let name = self.strings.by_id.get(ctor as usize)?;
            return Some(Value::Tag(Arc::clone(name), Arc::new(self.value(payload)?)));
        }
        match word {
            WORD_TRUE => Some(Value::Bool(true)),
            WORD_FALSE => Some(Value::Bool(false)),
            UNIT => Some(Value::Unit),
            _ if word & TAG_MASK == NAMED => {
                let name = self.strings.by_id.get((word >> 3) as usize)?;
                Some(Value::Str(Arc::clone(name)))
            }
            _ => self.heap_value(word).cloned(),
        }
    }

    /// The values of `codes`, in order.
    fn values(&mut self, codes: &[WordCode]) -> Option<Vec<Value>> {
        let mut values = Vec::with_capacity(codes.len());
        for code in codes {
            let word = code(self)?;
            values.push(self.value(word)?);
        }
        Some(values)
    }

    /// The integer `word` stands for.
    #[inline]
    fn int(&self, word: u64) -> Option<i64> {
        match int_of_slot(word) {
            Some(n) => Some(n),
            None => self.heap_value(word)?.as_int(),
        }
    }

    /// The word of `Value::Int(n)`.
    #[inline]
    fn int_word(&mut self, n: i64) -> Option<u64> {
        match slot_of_int(n) {
            Some(slot) => Some(slot),
            None => self.alloc(Value::Int(n)),
        }
    }

    /// Whether two words stand for one value.
    #[inline]
    fn same(&self, a: u64, b: u64) -> bool {
        a == b
            || match (self.heap_value(a), self.heap_value(b)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
    }

    /// The tuple of the values in `slots`.
    fn tuple(&self, slots: &[usize]) -> Option<Value> {
        let items: Option<Vec<Value>> = slots.iter().map(|&s| self.value(self.get(s))).collect();
        Some(Value::tuple(items?))
    }
}

/// An evaluator over a checked program's function table.
///
/// Cloning is cheap (the compiled table is shared); the interpreter is
/// `Send + Sync` so closures built from it can run inside the parallel
/// solver.
#[derive(Clone)]
pub struct Interpreter {
    /// Sorted by name: [`Interpreter::call`] finds a `def` by binary
    /// search, compiled code by its index.
    defs: Arc<[Def]>,
    /// The constructor names and string literals the word code bakes in,
    /// by the ids it bakes in: the program's [`Names`].
    strings: Arc<Strings>,
}

impl fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.def_names().collect();
        f.debug_struct("Interpreter").field("defs", &names).finish()
    }
}

impl Interpreter {
    /// Creates an interpreter for the checked program, compiling each of
    /// its `def`s. Every constructor name of the program, then every
    /// string literal of its `def`s as compiling meets it, gets its id
    /// among the program's [`Names`]: an order fixed by the program.
    pub fn new(program: Arc<CheckedProgram>) -> Interpreter {
        let mut strings = Strings::default();
        let mut cases: Vec<&str> = program
            .enums
            .values()
            .flat_map(|e| e.cases.keys().map(String::as_str))
            .collect();
        cases.sort_unstable();
        for case in cases {
            strings.intern(case);
        }
        let mut names: Vec<&str> = program.defs.keys().map(String::as_str).collect();
        names.sort_unstable();
        let mut calls: Vec<Vec<usize>> = Vec::with_capacity(names.len());
        let mut defs: Vec<Def> = names
            .iter()
            .map(|&name| {
                let info = &program.defs[name];
                let mut cx = Compiler::new(&names, &mut strings);
                for (param, _) in &info.params {
                    cx.bind(param);
                }
                let code = cx.expr(&info.body);
                calls.push(std::mem::take(&mut cx.calls));
                Def {
                    name: name.to_string(),
                    arity: info.params.len(),
                    slots: cx.slots,
                    code,
                    word_form: cx.word_form,
                }
            })
            .collect();
        // A def that calls one the word-form entry does not run would
        // always decline there: until nothing changes, it is not run either.
        loop {
            let lacking: Vec<usize> = (0..defs.len())
                .filter(|&d| defs[d].word_form)
                .filter(|&d| calls[d].iter().any(|&callee| !defs[callee].word_form))
                .collect();
            if lacking.is_empty() {
                break;
            }
            for d in lacking {
                defs[d].word_form = false;
            }
        }
        Interpreter {
            defs: defs.into(),
            strings: Arc::new(strings),
        }
    }

    /// Calls a named function with the given argument values.
    ///
    /// # Panics
    ///
    /// Panics on unknown function names or arity mismatches — both are
    /// ruled out by the type checker, so hitting one indicates a caller
    /// bug; on a `match` expression with no matching arm (the surface
    /// language does not check exhaustiveness, mirroring the paper's
    /// implementation); and on `def` calls nested deeper than a fixed
    /// limit (`recursion limit exceeded in <def>`).
    pub fn call(&self, name: &str, args: &[Value]) -> Value {
        self.call_at(self.resolve(name), args)
    }

    /// The `def`s by name, each at the index [`Interpreter::call_at`]
    /// takes for it.
    pub(crate) fn def_names(&self) -> impl Iterator<Item = &str> {
        self.defs.iter().map(|def| def.name.as_str())
    }

    /// The names the word code bakes in, for every store of the program
    /// to intern first ([`flix_core::ProgramBuilder::names`]).
    pub(crate) fn names(&self) -> &Names {
        &self.strings.names
    }

    /// The index [`Interpreter::call_at`] takes for a named function.
    ///
    /// # Panics
    ///
    /// Panics on an unknown function name.
    pub(crate) fn resolve(&self, name: &str) -> usize {
        self.defs
            .binary_search_by(|def| def.name.as_str().cmp(name))
            .unwrap_or_else(|_| panic!("call to unknown function {name}"))
    }

    /// [`Interpreter::call`] without the lookup, on borrowed arguments.
    pub(crate) fn call_at<'v, A>(&'v self, def: usize, args: A) -> Value
    where
        A: IntoIterator<Item = &'v Value>,
        A::IntoIter: Clone,
    {
        #[cfg(test)]
        tests::VALUE_CALLS.with(|calls| calls.set(calls.get() + 1));
        let args = args.into_iter();
        let callee = &self.defs[def];
        assert_eq!(
            callee.arity,
            args.clone().count(),
            "function {} called with wrong arity",
            callee.name
        );
        self.run_values(&self.strings, |frame| {
            for arg in args.clone() {
                let word = frame.encode(Value::clone(arg))?;
                frame.push(word)?;
            }
            frame.enter(def, 0)
        })
    }

    /// Runs `code` in the value entry: with a heap, on a word stack that
    /// grows until no call runs out of it — the one place the value
    /// entry's code declines.
    fn run_values(
        &self,
        strings: &Strings,
        code: impl Fn(&mut WordFrame<'_>) -> Option<u64>,
    ) -> Value {
        let (mut first, mut longer) = ([0; WORD_STACK], Vec::new());
        loop {
            let stack = match longer.len() {
                0 => &mut first[..],
                _ => &mut longer[..],
            };
            let mut heap = Vec::new();
            let mut frame = WordFrame::new(&self.defs, strings, stack, Some(&mut heap));
            if let Some(word) = code(&mut frame) {
                return frame
                    .value(word)
                    .expect("the value entry decodes its words");
            }
            assert!(frame.ran_out, "the value entry answers or panics");
            longer = vec![0; 4 * frame.stack.len()];
        }
    }

    /// The number of parameters of the `def` at index `def`, when the
    /// word-form entry runs it.
    pub(crate) fn word_arity(&self, def: usize) -> Option<usize> {
        let def = &self.defs[def];
        def.word_form.then_some(def.arity)
    }

    /// The word-form entry: runs the `def` at index `def` on a store's
    /// slots of its arguments, with no heap. The slot of the result, or
    /// `None` where it declines (or does not run the def) and
    /// [`Interpreter::call_at`] must answer.
    pub(crate) fn call_words(&self, def: usize, args: &[u64]) -> Option<u64> {
        if self.defs[def].arity != args.len() || !self.defs[def].word_form {
            return None;
        }
        let mut stack = [0; WORD_STACK];
        let mut frame = WordFrame::new(&self.defs, &self.strings, &mut stack, None);
        for &arg in args {
            frame.push(arg)?;
        }
        frame.enter(def, 0)
    }

    /// Evaluates a closed expression (no free variables).
    pub fn eval_closed(&self, expr: &Expr) -> Value {
        let names: Vec<&str> = self.def_names().collect();
        let mut strings = Strings::clone(&self.strings);
        let mut cx = Compiler::new(&names, &mut strings);
        let code = cx.expr(expr);
        let slots = cx.slots;
        self.run_values(&strings, |frame| {
            frame.reach(slots)?;
            code(frame)
        })
    }
}

/// Converts a surface literal to a runtime value.
pub fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Unit => Value::Unit,
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Int(n) => Value::Int(*n),
        Lit::Str(s) => Value::str(s.as_str()),
    }
}

/// The value of constructor `case` applied to `fields`.
pub(crate) fn ctor_value(case: &str, fields: impl ExactSizeIterator<Item = Value>) -> Value {
    Value::Tag(Arc::from(case), Arc::new(payload(fields)))
}

/// A constructor's payload: unit, the one field, or a tuple of them.
fn payload(mut fields: impl ExactSizeIterator<Item = Value>) -> Value {
    match fields.len() {
        0 => Value::Unit,
        1 => fields.next().expect("one field"),
        _ => Value::tuple(fields),
    }
}

/// One compiled `match` arm: every pattern must match its slot's word,
/// then the body runs.
struct WordArm {
    tests: Vec<(usize, WordTest)>,
    body: WordCode,
}

/// Compiles one `def` body or closed expression.
struct Compiler<'a> {
    /// Every `def`, sorted: a callee's position is its index in the
    /// compiled table, whether or not it is compiled yet.
    names: &'a [&'a str],
    /// The variables in scope, innermost last, with their slots.
    scope: Vec<(&'a str, usize)>,
    /// Slots in use at this point of the expression.
    live: usize,
    /// The most slots in use at once: the frame size.
    slots: usize,
    /// The callees the code calls.
    calls: Vec<usize>,
    /// Whether no construct compiled so far always makes a heap value.
    word_form: bool,
    /// The program's names: each constructor's tag and id, and each
    /// string literal's, interned as compiling meets it.
    strings: &'a mut Strings,
}

impl<'a> Compiler<'a> {
    fn new(names: &'a [&'a str], strings: &'a mut Strings) -> Compiler<'a> {
        Compiler {
            names,
            scope: Vec::new(),
            live: 0,
            slots: 0,
            calls: Vec::new(),
            word_form: true,
            strings,
        }
    }

    /// The value of an expression built from literals and constructors
    /// only, its tags and strings those of the program's names.
    fn constant(&mut self, expr: &Expr) -> Option<Value> {
        let mut all = |items: &[Expr]| {
            items
                .iter()
                .map(|item| self.constant(item))
                .collect::<Option<Vec<Value>>>()
        };
        match expr {
            Expr::Lit(l, _) => Some(self.strings.literal(l)),
            Expr::Ctor { case, args, .. } => {
                let fields = all(args)?;
                let (_, tag) = self.strings.intern(case);
                Some(Value::Tag(tag, Arc::new(payload(fields.into_iter()))))
            }
            Expr::Tuple(items, _) => Some(Value::tuple(all(items)?)),
            Expr::SetLit(items, _) => Some(Value::set(all(items)?)),
            _ => None,
        }
    }

    fn alloc(&mut self) -> usize {
        let slot = self.live;
        self.live += 1;
        self.slots = self.slots.max(self.live);
        slot
    }

    /// Brings `name` into scope in a fresh slot.
    fn bind(&mut self, name: &'a str) -> usize {
        let slot = self.alloc();
        self.scope.push((name, slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        let (_, slot) = self.scope.iter().rev().find(|(n, _)| *n == name)?;
        Some(*slot)
    }

    /// The code of a construct that always makes a heap value.
    fn heap(&mut self, code: WordCode) -> WordCode {
        self.word_form = false;
        code
    }

    fn exprs(&mut self, items: &'a [Expr]) -> Vec<WordCode> {
        items.iter().map(|item| self.expr(item)).collect()
    }

    fn expr(&mut self, expr: &'a Expr) -> WordCode {
        if let Some(value) = self.constant(expr) {
            return match self.strings.names.slot(&value) {
                Some(slot) => Box::new(move |_| Some(slot)),
                None => self.heap(Box::new(move |f| f.alloc(value.clone()))),
            };
        }
        match expr {
            Expr::Lit(..) => unreachable!("a literal is a constant"),
            Expr::Var(name, _) => {
                let slot = self.lookup(name);
                let slot = slot.unwrap_or_else(|| panic!("unbound variable {name} (checker bug)"));
                Box::new(move |f| Some(f.get(slot)))
            }
            Expr::Ctor { case, args, .. } => {
                let (ctor, tag) = self.strings.intern(case);
                let mut fields = self.exprs(args);
                // One field has a constructor slot where its own slot fits;
                // a tuple of fields never has one.
                if fields.len() != 1 {
                    return self.heap(Box::new(move |f| {
                        let fields = f.values(&fields)?;
                        f.alloc(Value::Tag(tag.clone(), Arc::new(Value::tuple(fields))))
                    }));
                }
                let field = fields.pop().expect("one field");
                Box::new(move |f| {
                    let word = field(f)?;
                    match slot_of_ctor(ctor, word) {
                        Some(slot) => Some(slot),
                        None => f.tag(&tag, word),
                    }
                })
            }
            Expr::Call { func, args, .. } => {
                let Ok(callee) = self.names.binary_search(&func.as_str()) else {
                    panic!("call to unknown function {func}");
                };
                let args = self.exprs(args);
                self.calls.push(callee);
                Box::new(move |f| {
                    let base = f.top;
                    for arg in &args {
                        let word = arg(f)?;
                        f.push(word)?;
                    }
                    f.enter(callee, base)
                })
            }
            Expr::Tuple(items, _) => {
                let items = self.exprs(items);
                self.heap(Box::new(move |f| {
                    let items = f.values(&items)?;
                    f.alloc(Value::tuple(items))
                }))
            }
            Expr::SetLit(items, _) => {
                let items = self.exprs(items);
                self.heap(Box::new(move |f| {
                    let items = f.values(&items)?;
                    f.alloc(Value::set(items))
                }))
            }
            Expr::Unary { op, expr, .. } => {
                let operand = self.expr(expr);
                match op {
                    UnOp::Not => Box::new(move |f| match operand(f)? {
                        WORD_TRUE => Some(WORD_FALSE),
                        WORD_FALSE => Some(WORD_TRUE),
                        _ => None,
                    }),
                    UnOp::Neg => Box::new(move |f| {
                        let n = operand(f)?;
                        let n = f.int(n)?;
                        f.int_word(-n)
                    }),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (l, r) = (self.expr(lhs), self.expr(rhs));
                binary(*op, l, r)
            }
            Expr::If {
                cond,
                then,
                otherwise,
                ..
            } => {
                let (cond, then, otherwise) =
                    (self.expr(cond), self.expr(then), self.expr(otherwise));
                Box::new(move |f| match cond(f)? {
                    WORD_TRUE => then(f),
                    WORD_FALSE => otherwise(f),
                    _ => None,
                })
            }
            Expr::Let {
                name, bound, body, ..
            } => {
                // The bound expression is outside the binding's scope.
                let bound = self.expr(bound);
                let mark = (self.scope.len(), self.live);
                let slot = self.bind(name);
                let body = self.expr(body);
                self.release(mark);
                Box::new(move |f| {
                    let word = bound(f)?;
                    f.set(slot, word);
                    body(f)
                })
            }
            Expr::Match {
                scrutinee,
                arms,
                pos,
            } => self.match_expr(scrutinee, arms, *pos),
        }
    }

    /// Leaves the scopes entered since `mark` and frees their slots.
    fn release(&mut self, (scope, live): (usize, usize)) {
        self.scope.truncate(scope);
        self.live = live;
    }

    fn match_expr(&mut self, scrutinee: &'a Expr, arms: &'a [MatchArm], pos: Pos) -> WordCode {
        let mark = (self.scope.len(), self.live);
        // `match (a, b)` against tuple patterns is matched component by
        // component, so the tuple is never built on the way to an arm.
        let splits = |pat: &Pattern, n: usize| match pat {
            Pattern::Wildcard(_) | Pattern::Var(..) => true,
            Pattern::Tuple(pats, _) => pats.len() == n,
            Pattern::Lit(..) | Pattern::Ctor { .. } => false,
        };
        let components = match scrutinee {
            Expr::Tuple(items, _) if arms.iter().all(|arm| splits(&arm.pat, items.len())) => {
                Some(items.as_slice())
            }
            _ => None,
        };
        let split = components.is_some();
        let parts = components.unwrap_or(std::slice::from_ref(scrutinee));

        // Each part is matched where it lies: a variable in its own slot,
        // anything else in a temporary one.
        let mut evals: Vec<(WordCode, usize)> = Vec::new();
        let mut places: Vec<usize> = Vec::with_capacity(parts.len());
        for part in parts {
            let bound = match part {
                Expr::Var(name, _) => self.lookup(name),
                _ => None,
            };
            if let Some(slot) = bound {
                places.push(slot);
                continue;
            }
            let code = self.expr(part);
            let slot = self.alloc();
            evals.push((code, slot));
            places.push(slot);
        }

        let arms: Vec<WordArm> = arms
            .iter()
            .map(|arm| {
                let arm_mark = (self.scope.len(), self.live);
                let mut tests = Vec::new();
                match &arm.pat {
                    Pattern::Tuple(pats, _) if split => {
                        for (pat, &place) in pats.iter().zip(&places) {
                            tests.extend(self.pattern(pat).map(|test| (place, test)));
                        }
                    }
                    Pattern::Var(name, _) if split => {
                        // Binds the tuple of the places, whatever the word.
                        self.word_form = false;
                        let (slot, whole) = (self.bind(name), places.clone());
                        let test: WordTest = Box::new(move |f, _| {
                            let tuple = f.tuple(&whole)?;
                            let word = f.alloc(tuple)?;
                            f.set(slot, word);
                            Some(true)
                        });
                        tests.push((places[0], test));
                    }
                    pat => tests.extend(self.pattern(pat).map(|test| (places[0], test))),
                }
                let body = self.expr(&arm.body);
                self.release(arm_mark);
                WordArm { tests, body }
            })
            .collect();
        self.release(mark);

        Box::new(move |f| {
            for (code, slot) in &evals {
                let word = code(f)?;
                f.set(*slot, word);
            }
            // Arms are tried in order; the first whose tests pass runs.
            'arms: for arm in &arms {
                for (place, test) in &arm.tests {
                    let word = f.get(*place);
                    if !test(f, word)? {
                        continue 'arms;
                    }
                }
                return (arm.body)(f);
            }
            f.refuse(|f| {
                let value = match split {
                    true => f.tuple(&places),
                    false => f.value(f.get(places[0])),
                };
                let value = value.expect("the value entry decodes its words");
                format!("non-exhaustive match at {pos}: no arm matches {value}")
            })
        })
    }

    /// What `pat` does with a word: binds each variable of the pattern
    /// to the word of its part, and tests the rest; `None` for a
    /// wildcard. A literal with a slot, or a nullary constructor, is one
    /// word, and equal values have equal words; a constructor of one field
    /// reads a constructor slot, or the heap value, and declines on any
    /// other.
    fn pattern(&mut self, pat: &'a Pattern) -> Option<WordTest> {
        Some(match pat {
            Pattern::Wildcard(_) => return None,
            Pattern::Var(name, _) => {
                let slot = self.bind(name);
                Box::new(move |f, word| {
                    f.set(slot, word);
                    Some(true)
                })
            }
            Pattern::Lit(l, _) => {
                let lit = self.strings.literal(l);
                match self.strings.names.slot(&lit) {
                    Some(slot) => Box::new(move |_, word| Some(word == slot)),
                    None => {
                        self.word_form = false;
                        Box::new(move |f, word| Some(f.value(word)? == lit))
                    }
                }
            }
            Pattern::Ctor { case, args, .. } => {
                let (ctor, tag) = self.strings.intern(case);
                let on_payload = match args.as_slice() {
                    [] => {
                        let nullary = slot_of_ctor(ctor, UNIT);
                        let nullary = nullary.expect("fewer than 2^24 names");
                        return Some(Box::new(move |_, word| Some(word == nullary)));
                    }
                    [only] => self.pattern(only),
                    fields => Some(self.items_test(fields)),
                };
                Box::new(move |f, word| {
                    let payload = match ctor_of_slot(word) {
                        Some((of, payload)) if of == ctor => payload,
                        Some(_) => return Some(false),
                        None => match f.payload(word, &tag)? {
                            Some(payload) => payload,
                            None => return Some(false),
                        },
                    };
                    on_payload
                        .as_ref()
                        .map_or(Some(true), |test| test(f, payload))
                })
            }
            Pattern::Tuple(pats, _) => self.items_test(pats),
        })
    }

    /// The test of a tuple of `pats.len()` components, one pattern each:
    /// a heap value's.
    fn items_test(&mut self, pats: &'a [Pattern]) -> WordTest {
        self.word_form = false;
        let tests: Vec<Option<WordTest>> = pats.iter().map(|pat| self.pattern(pat)).collect();
        Box::new(move |f, word| {
            let items = match f.heap_value(word)? {
                Value::Tuple(items) if items.len() == tests.len() => Arc::clone(items),
                _ => return Some(false),
            };
            for (test, item) in tests.iter().zip(items.iter()) {
                if let Some(test) = test {
                    let word = f.encode(item.clone())?;
                    if !test(f, word)? {
                        return Some(false);
                    }
                }
            }
            Some(true)
        })
    }
}

/// The code of a binary operator. Equality compares words, which is
/// value equality but for two heap words; an integer operation reads
/// integers and makes the word of its result.
fn binary(op: BinOp, l: WordCode, r: WordCode) -> WordCode {
    let truth = |b: bool| if b { WORD_TRUE } else { WORD_FALSE };
    match op {
        // The boolean connectives short-circuit.
        BinOp::And => Box::new(move |f| match l(f)? {
            WORD_TRUE => r(f),
            WORD_FALSE => Some(WORD_FALSE),
            _ => None,
        }),
        BinOp::Or => Box::new(move |f| match l(f)? {
            WORD_TRUE => Some(WORD_TRUE),
            WORD_FALSE => r(f),
            _ => None,
        }),
        BinOp::Eq | BinOp::Ne => Box::new(move |f| {
            let (a, b) = (l(f)?, r(f)?);
            Some(truth(f.same(a, b) == (op == BinOp::Eq)))
        }),
        BinOp::Add => int_op(l, r, |f, x, y| f.int_word(x.wrapping_add(y))),
        BinOp::Sub => int_op(l, r, |f, x, y| f.int_word(x.wrapping_sub(y))),
        BinOp::Mul => int_op(l, r, |f, x, y| f.int_word(x.wrapping_mul(y))),
        // Total semantics: division by zero yields zero.
        BinOp::Div => int_op(l, r, |f, x, y| {
            f.int_word(if y == 0 { 0 } else { x.wrapping_div(y) })
        }),
        BinOp::Rem => int_op(l, r, |f, x, y| {
            f.int_word(if y == 0 { 0 } else { x.wrapping_rem(y) })
        }),
        BinOp::Lt => int_op(l, r, move |_, x, y| Some(truth(x < y))),
        BinOp::Le => int_op(l, r, move |_, x, y| Some(truth(x <= y))),
        BinOp::Gt => int_op(l, r, move |_, x, y| Some(truth(x > y))),
        BinOp::Ge => int_op(l, r, move |_, x, y| Some(truth(x >= y))),
    }
}

/// An integer operator: both operands, in order, then `op` on their
/// integers.
fn int_op(
    l: WordCode,
    r: WordCode,
    op: impl Fn(&mut WordFrame<'_>, i64, i64) -> Option<u64> + Send + Sync + 'static,
) -> WordCode {
    Box::new(move |f| {
        let (x, y) = (l(f)?, r(f)?);
        let (x, y) = (f.int(x)?, f.int(y)?);
        op(f, x, y)
    })
}

/// The tree-walking evaluator this module's compiled form replaced: one
/// `match` on the AST per node per call, variables found by name. Kept
/// as the oracle of the differential test below.
#[cfg(test)]
mod reference {
    use super::lit_value;
    use crate::ast::{BinOp, Expr, Pattern, UnOp};
    use crate::typeck::CheckedProgram;
    use flix_core::Value;

    pub(super) fn call(program: &CheckedProgram, name: &str, args: &[Value]) -> Value {
        let def = program
            .defs
            .get(name)
            .unwrap_or_else(|| panic!("call to unknown function {name}"));
        assert_eq!(
            def.params.len(),
            args.len(),
            "function {name} called with wrong arity"
        );
        let mut env: Vec<(String, Value)> = def
            .params
            .iter()
            .map(|(p, _)| p.clone())
            .zip(args.iter().cloned())
            .collect();
        eval(program, &def.body, &mut env)
    }

    fn eval(program: &CheckedProgram, expr: &Expr, env: &mut Vec<(String, Value)>) -> Value {
        match expr {
            Expr::Lit(l, _) => lit_value(l),
            Expr::Var(name, _) => env
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("unbound variable {name} (checker bug)")),
            Expr::Ctor { case, args, .. } => {
                let payload = match args.len() {
                    0 => Value::Unit,
                    1 => eval(program, &args[0], env),
                    _ => Value::tuple(args.iter().map(|a| eval(program, a, env))),
                };
                Value::tag(case.as_str(), payload)
            }
            Expr::Call { func, args, .. } => {
                let vals: Vec<Value> = args.iter().map(|a| eval(program, a, env)).collect();
                call(program, func, &vals)
            }
            Expr::Tuple(items, _) => Value::tuple(items.iter().map(|e| eval(program, e, env))),
            Expr::SetLit(items, _) => Value::set(items.iter().map(|e| eval(program, e, env))),
            Expr::Unary { op, expr, .. } => {
                let v = eval(program, expr, env);
                match op {
                    UnOp::Not => Value::Bool(!v.as_bool().expect("typechecked Bool")),
                    UnOp::Neg => Value::Int(-v.as_int().expect("typechecked Int")),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit the boolean connectives.
                match op {
                    BinOp::And => {
                        return if eval(program, lhs, env).is_true() {
                            eval(program, rhs, env)
                        } else {
                            Value::Bool(false)
                        }
                    }
                    BinOp::Or => {
                        return if eval(program, lhs, env).is_true() {
                            Value::Bool(true)
                        } else {
                            eval(program, rhs, env)
                        }
                    }
                    _ => {}
                }
                let a = eval(program, lhs, env);
                let b = eval(program, rhs, env);
                match op {
                    BinOp::Eq => Value::Bool(a == b),
                    BinOp::Ne => Value::Bool(a != b),
                    _ => {
                        let x = a.as_int().expect("typechecked Int");
                        let y = b.as_int().expect("typechecked Int");
                        match op {
                            BinOp::Add => Value::Int(x.wrapping_add(y)),
                            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                            BinOp::Div => Value::Int(if y == 0 { 0 } else { x.wrapping_div(y) }),
                            BinOp::Rem => Value::Int(if y == 0 { 0 } else { x.wrapping_rem(y) }),
                            BinOp::Lt => Value::Bool(x < y),
                            BinOp::Le => Value::Bool(x <= y),
                            BinOp::Gt => Value::Bool(x > y),
                            BinOp::Ge => Value::Bool(x >= y),
                            BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne => {
                                unreachable!("handled above")
                            }
                        }
                    }
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
                ..
            } => {
                if eval(program, cond, env).is_true() {
                    eval(program, then, env)
                } else {
                    eval(program, otherwise, env)
                }
            }
            Expr::Let {
                name, bound, body, ..
            } => {
                let value = eval(program, bound, env);
                env.push((name.clone(), value));
                let result = eval(program, body, env);
                env.pop();
                result
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let value = eval(program, scrutinee, env);
                for arm in arms {
                    let mark = env.len();
                    if match_pattern(&arm.pat, &value, env) {
                        let result = eval(program, &arm.body, env);
                        env.truncate(mark);
                        return result;
                    }
                    env.truncate(mark);
                }
                panic!(
                    "non-exhaustive match at {}: no arm matches {value}",
                    expr.pos()
                )
            }
        }
    }

    fn match_pattern(pat: &Pattern, value: &Value, env: &mut Vec<(String, Value)>) -> bool {
        match pat {
            Pattern::Wildcard(_) => true,
            Pattern::Var(name, _) => {
                env.push((name.clone(), value.clone()));
                true
            }
            Pattern::Lit(l, _) => lit_value(l) == *value,
            Pattern::Ctor { case, args, .. } => {
                let Some(tag) = value.tag_name() else {
                    return false;
                };
                if tag != case {
                    return false;
                }
                let payload = value.tag_payload().expect("tags carry payloads");
                match args.len() {
                    0 => *payload == Value::Unit,
                    1 => match_pattern(&args[0], payload, env),
                    n => match payload.as_tuple() {
                        Some(items) if items.len() == n => args
                            .iter()
                            .zip(items)
                            .all(|(p, v)| match_pattern(p, v, env)),
                        _ => false,
                    },
                }
            }
            Pattern::Tuple(pats, _) => match value.as_tuple() {
                Some(items) if items.len() == pats.len() => pats
                    .iter()
                    .zip(items)
                    .all(|(p, v)| match_pattern(p, v, env)),
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;
    use flix_lattice::rng::SmallRng;
    use std::collections::{BTreeSet, HashMap};

    thread_local! {
        /// The value-entry calls made on this thread: what a test of the word
        /// path counts.
        pub(super) static VALUE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn interp_of(src: &str) -> Interpreter {
        let checked = check(&parse(src).expect("parses")).expect("checks");
        Interpreter::new(Arc::new(checked))
    }

    #[test]
    fn arithmetic_and_comparison() {
        let i = interp_of("def f(x: Int, y: Int): Int = (x + y) * 2 - x / 2");
        assert_eq!(i.call("f", &[Value::Int(4), Value::Int(3)]), Value::Int(12));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        // Total semantics: the pure language cannot fail at runtime.
        let i = interp_of("def f(x: Int): Int = x / 0 + x % 0");
        assert_eq!(i.call("f", &[Value::Int(7)]), Value::Int(0));
    }

    #[test]
    fn short_circuit_connectives() {
        let i = interp_of(
            "def f(x: Int): Bool = x != 0 && 10 / x > 1
             def g(x: Int): Bool = x == 0 || 10 / x > 1",
        );
        assert_eq!(i.call("f", &[Value::Int(0)]), Value::Bool(false));
        assert_eq!(i.call("g", &[Value::Int(0)]), Value::Bool(true));
    }

    #[test]
    fn match_on_enums_with_payload() {
        let i = interp_of(
            r#"
            enum SULattice { case Top, case Single(Str), case Bottom }
            def filter(t: SULattice, b: Str): Bool =
              match t with {
                case SULattice.Bottom => false
                case SULattice.Single(p) => b == p
                case SULattice.Top => true
              }
            "#,
        );
        let single = Value::tag("Single", Value::from("p"));
        assert_eq!(
            i.call("filter", &[single.clone(), Value::from("p")]),
            Value::Bool(true)
        );
        assert_eq!(
            i.call("filter", &[single, Value::from("q")]),
            Value::Bool(false)
        );
        assert_eq!(
            i.call("filter", &[Value::tag0("Top"), Value::from("x")]),
            Value::Bool(true)
        );
    }

    #[test]
    fn recursion_works() {
        let i = interp_of("def fact(n: Int): Int = if (n <= 1) 1 else n * fact(n - 1)");
        assert_eq!(i.call("fact", &[Value::Int(6)]), Value::Int(720));
    }

    #[test]
    fn set_literals() {
        let i = interp_of("def f(x: Int): Set(Int) = Set(x, x + 1, x)");
        assert_eq!(
            i.call("f", &[Value::Int(5)]),
            Value::set([Value::Int(5), Value::Int(6)])
        );
        let empty = interp_of("def e(): Set(Int) = Set()");
        assert_eq!(empty.call("e", &[]), Value::set([]));
    }

    #[test]
    fn tuple_patterns_bind_components() {
        let i = interp_of(
            "def swap(p: (Int, Str)): (Str, Int) = match p with { case (a, b) => (b, a) }",
        );
        let arg = Value::tuple([Value::Int(1), Value::from("x")]);
        assert_eq!(
            i.call("swap", &[arg]),
            Value::tuple([Value::from("x"), Value::Int(1)])
        );
    }

    #[test]
    fn let_bindings_scope_and_shadow() {
        let i = interp_of("def f(x: Int): Int = let y = x + 1; let x = y * 2; x + y");
        // y = 4, inner x = 8, result 12.
        assert_eq!(i.call("f", &[Value::Int(3)]), Value::Int(12));
    }

    #[test]
    #[should_panic(expected = "non-exhaustive match")]
    fn non_exhaustive_match_panics() {
        let i = interp_of("def f(x: Int): Int = match x with { case 0 => 1 }");
        i.call("f", &[Value::Int(5)]);
    }

    /// What a call did: the value it returned or the message it
    /// panicked with.
    fn outcome(call: impl FnOnce() -> Value) -> Result<Value, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).map_err(
            |payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .expect("a panic with a message")
                    .to_string(),
            },
        )
    }

    #[test]
    fn recursion_limit_is_reached_before_a_thread_stack_overflows() {
        // `deep` puts seven closures between one call and the next.
        let i = interp_of(
            "def count(n: Int): Int = if (n <= 0) 0 else 1 + count(n - 1)
             def deep(n: Int): Int = match (n, n) with {
               case (0, _) => 0
               case (m, _) => let k = m - 1; if (k >= 0 && true) (1 + (0 + deep(k))) else 0
             }",
        );
        // `count(n)` nests n + 1 calls.
        let deepest = MAX_CALL_DEPTH as i64 - 1;
        let worker = i.clone();
        let reached = std::thread::spawn(move || {
            let arg = [Value::Int(deepest)];
            (worker.call("count", &arg), worker.call("deep", &arg))
        })
        .join()
        .expect("the deepest permitted recursion fits a default thread stack");
        assert_eq!(reached, (Value::Int(deepest), Value::Int(deepest)));
        assert_eq!(
            outcome(|| i.call("count", &[Value::Int(deepest + 1)])),
            Err("recursion limit exceeded in count".to_string())
        );
    }

    // ---- compiled against reference, differentially ----------------------

    /// The types the generator draws expressions, patterns and values of.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Ty {
        Int,
        Bool,
        Str,
        Unit,
        Shape,
        Ints,
        Pair,
        Shapes,
        IntSet,
    }

    const TYPES: [Ty; 9] = [
        Ty::Int,
        Ty::Bool,
        Ty::Str,
        Ty::Unit,
        Ty::Shape,
        Ty::Ints,
        Ty::Pair,
        Ty::Shapes,
        Ty::IntSet,
    ];

    impl Ty {
        fn source(self) -> &'static str {
            match self {
                Ty::Int => "Int",
                Ty::Bool => "Bool",
                Ty::Str => "Str",
                Ty::Unit => "Unit",
                Ty::Shape => "Shape",
                Ty::Ints => "(Int, Int)",
                Ty::Pair => "(Int, Shape)",
                Ty::Shapes => "(Shape, Shape)",
                Ty::IntSet => "Set(Int)",
            }
        }

        fn components(self) -> Option<[Ty; 2]> {
            match self {
                Ty::Ints => Some([Ty::Int, Ty::Int]),
                Ty::Pair => Some([Ty::Int, Ty::Shape]),
                Ty::Shapes => Some([Ty::Shape, Ty::Shape]),
                _ => None,
            }
        }
    }

    /// `Shape`'s cases: nullary, unary, binary, unary over a tuple, and
    /// recursive. `ev`/`od` are mutually recursive, `ev` ahead of `od`.
    const CASES: [(&str, &[Ty]); 5] = [
        ("Dot", &[]),
        ("Circle", &[Ty::Int]),
        ("Rect", &[Ty::Int, Ty::Bool]),
        ("Seg", &[Ty::Ints]),
        ("Group", &[Ty::Shape, Ty::Shape]),
    ];
    const PRELUDE: &str = "
        enum Shape {
          case Dot, case Circle(Int), case Rect(Int, Bool),
          case Seg((Int, Int)), case Group(Shape, Shape)
        }
        def ev(n: Int): Bool = if (n <= 0 || n > 40) true else od(n - 1)
        def od(n: Int): Bool = if (n <= 0 || n > 40) false else ev(n - 1)
    ";
    const PARAMS: [&str; 3] = ["p0", "p1", "p2"];
    /// Few names, one of them a parameter's, so bindings shadow.
    const NAMES: [&str; 4] = ["a", "b", "c", "p0"];
    /// Everything the generator must have emitted by the end of the test.
    const LABELS: [&str; 28] = [
        "expr.lit",
        "expr.var",
        "expr.ctor0",
        "expr.ctor1",
        "expr.ctor2",
        "expr.call",
        "expr.tuple",
        "expr.set",
        "expr.not",
        "expr.neg",
        "expr.arith",
        "expr.div0",
        "expr.compare",
        "expr.equal",
        "expr.connective",
        "expr.if",
        "expr.let",
        "expr.let.shadow",
        "expr.match",
        "match.split",
        "match.split.whole",
        "match.open",
        "pat.wildcard",
        "pat.var",
        "pat.lit",
        "pat.ctor",
        "pat.ctor.nested",
        "pat.tuple",
    ];

    /// A seeded generator of well-typed source text.
    struct Gen {
        rng: SmallRng,
        /// Variables in scope, innermost last; a later entry shadows an
        /// earlier one of its name.
        env: Vec<(&'static str, Ty)>,
        /// The defs so far, callable from the next: name, parameter
        /// types, return type.
        defs: Vec<(String, Vec<Ty>, Ty)>,
        seen: BTreeSet<&'static str>,
    }

    impl Gen {
        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.rng.index(items.len())]
        }

        fn var(&mut self, ty: Ty) -> Option<&'static str> {
            let visible: Vec<&'static str> = NAMES
                .iter()
                .chain(&PARAMS[1..])
                .copied()
                .filter(|name| {
                    let binding = self.env.iter().rev().find(|(n, _)| n == name);
                    binding.is_some_and(|(_, t)| *t == ty)
                })
                .collect();
            (!visible.is_empty()).then(|| self.pick(&visible))
        }

        fn pair(&mut self, ty: Ty, mut part: impl FnMut(&mut Gen, Ty) -> String) -> String {
            let [a, b] = ty.components().expect("a tuple type");
            format!("({}, {})", part(self, a), part(self, b))
        }

        fn leaf(&mut self, ty: Ty) -> String {
            if self.rng.gen_bool(0.6) {
                if let Some(name) = self.var(ty) {
                    self.seen.insert("expr.var");
                    return name.to_string();
                }
            }
            match ty {
                Ty::Int => {
                    self.seen.insert("expr.lit");
                    self.pick(&["0", "1", "2", "7", "100", "9223372036854775807"])
                        .to_string()
                }
                Ty::Bool => self.pick(&["true", "false"]).to_string(),
                Ty::Str => self.pick(&["\"a\"", "\"b\""]).to_string(),
                Ty::Unit => "()".to_string(),
                Ty::Shape => {
                    self.seen.insert("expr.ctor0");
                    "Shape.Dot".to_string()
                }
                Ty::IntSet => {
                    self.seen.insert("expr.set");
                    format!("Set({}, {})", self.leaf(Ty::Int), self.leaf(Ty::Int))
                }
                Ty::Ints | Ty::Pair | Ty::Shapes => {
                    self.seen.insert("expr.tuple");
                    self.pair(ty, Gen::leaf)
                }
            }
        }

        fn expr(&mut self, ty: Ty, depth: usize) -> String {
            let Some(d) = depth.checked_sub(1) else {
                return self.leaf(ty);
            };
            match self.rng.index(8) {
                0 => self.leaf(ty),
                1 => {
                    self.seen.insert("expr.if");
                    let cond = self.expr(Ty::Bool, d);
                    format!(
                        "(if ({cond}) {} else {})",
                        self.expr(ty, d),
                        self.expr(ty, d)
                    )
                }
                2 => {
                    let (name, bound_ty) = (self.pick(&NAMES), self.pick(&TYPES));
                    let bound = self.expr(bound_ty, d);
                    let shadows = self.env.iter().any(|(n, _)| *n == name);
                    self.seen.insert(if shadows {
                        "expr.let.shadow"
                    } else {
                        "expr.let"
                    });
                    self.env.push((name, bound_ty));
                    let body = self.expr(ty, d);
                    self.env.pop();
                    format!("(let {name} = {bound}; {body})")
                }
                3 => self.match_expr(ty, d),
                4 => {
                    let callable: Vec<usize> = (0..self.defs.len())
                        .filter(|&i| self.defs[i].2 == ty)
                        .collect();
                    if callable.is_empty() {
                        return self.specific(ty, d);
                    }
                    self.seen.insert("expr.call");
                    let callee = self.pick(&callable);
                    let (name, params, _) = self.defs[callee].clone();
                    let args: Vec<String> = params.iter().map(|t| self.expr(*t, d)).collect();
                    format!("{name}({})", args.join(", "))
                }
                _ => self.specific(ty, d),
            }
        }

        /// An expression only `ty` has: its operators or its constructors.
        fn specific(&mut self, ty: Ty, d: usize) -> String {
            match ty {
                Ty::Int if self.rng.gen_bool(0.2) => {
                    self.seen.insert("expr.neg");
                    format!("(-{})", self.expr(Ty::Int, d))
                }
                Ty::Int => {
                    let op = self.pick(&["+", "-", "*", "/", "%"]);
                    let lhs = self.expr(Ty::Int, d);
                    let rhs = if "/%".contains(op) && self.rng.gen_bool(0.3) {
                        self.seen.insert("expr.div0");
                        "0".to_string()
                    } else {
                        self.seen.insert("expr.arith");
                        self.expr(Ty::Int, d)
                    };
                    format!("({lhs} {op} {rhs})")
                }
                Ty::Bool => match self.rng.index(4) {
                    0 => {
                        self.seen.insert("expr.not");
                        format!("(!{})", self.expr(Ty::Bool, d))
                    }
                    1 => {
                        self.seen.insert("expr.compare");
                        let op = self.pick(&["<", "<=", ">", ">="]);
                        format!("({} {op} {})", self.expr(Ty::Int, d), self.expr(Ty::Int, d))
                    }
                    2 => {
                        self.seen.insert("expr.equal");
                        let (of, op) = (self.pick(&TYPES), self.pick(&["==", "!="]));
                        format!("({} {op} {})", self.expr(of, d), self.expr(of, d))
                    }
                    _ => {
                        // The right operand is a `match` with no arm for
                        // the one value of `lhs` on which it must not run.
                        self.seen.insert("expr.connective");
                        let (op, skip_on) = self.pick(&[("&&", "true"), ("||", "false")]);
                        let (lhs, rhs) = (self.expr(Ty::Bool, d), self.expr(Ty::Bool, d));
                        format!("({lhs} {op} (match {lhs} with {{ case {skip_on} => {rhs} }}))")
                    }
                },
                Ty::Shape => {
                    let (case, fields) = self.pick(&CASES);
                    self.seen
                        .insert(["expr.ctor0", "expr.ctor1", "expr.ctor2"][fields.len()]);
                    if fields.is_empty() {
                        return format!("Shape.{case}");
                    }
                    let args: Vec<String> = fields.iter().map(|t| self.expr(*t, d)).collect();
                    format!("Shape.{case}({})", args.join(", "))
                }
                Ty::IntSet => {
                    self.seen.insert("expr.set");
                    let items: Vec<String> = (0..1 + self.rng.index(3))
                        .map(|_| self.expr(Ty::Int, d))
                        .collect();
                    format!("Set({})", items.join(", "))
                }
                Ty::Ints | Ty::Pair | Ty::Shapes => {
                    self.seen.insert("expr.tuple");
                    self.pair(ty, |g, t| g.expr(t, d))
                }
                Ty::Str | Ty::Unit => self.leaf(ty),
            }
        }

        fn match_expr(&mut self, ty: Ty, d: usize) -> String {
            self.seen.insert("expr.match");
            let of = self.pick(&TYPES);
            // A tuple literal is what the compiler matches by component.
            let split = of.components().is_some() && self.rng.gen_bool(0.7);
            let scrutinee = if split {
                self.seen.insert("match.split");
                self.pair(of, |g, t| g.expr(t, d))
            } else {
                self.expr(of, d)
            };
            let mut text = format!("(match {scrutinee} with {{");
            // Arms overlap freely: the first that matches must win.
            for _ in 0..1 + self.rng.index(3) {
                if split && self.rng.gen_bool(0.3) {
                    // An arm that binds the tuple whole, and whose value
                    // depends on the binding being the tuple.
                    self.seen.insert("match.split.whole");
                    let (body, other) = (self.expr(ty, d), self.leaf(ty));
                    text.push_str(&format!(
                        " case whole => (if (whole == {scrutinee}) {body} else {other})"
                    ));
                    continue;
                }
                let mark = self.env.len();
                let pat = self.pattern(of, 2);
                let body = self.expr(ty, d);
                self.env.truncate(mark);
                text.push_str(&format!(" case {pat} => {body}"));
            }
            if self.rng.gen_bool(0.7) {
                text.push_str(&format!(" case _ => {}", self.leaf(ty)));
            } else {
                self.seen.insert("match.open");
            }
            text.push_str(" })");
            text
        }

        /// A pattern for `ty`; its variables come into scope.
        fn pattern(&mut self, ty: Ty, depth: usize) -> String {
            let pick = self.rng.index(10);
            if pick < 2 || (pick >= 5 && (depth == 0 || ty == Ty::IntSet)) {
                self.seen.insert("pat.wildcard");
                return "_".to_string();
            }
            if pick < 5 {
                self.seen.insert("pat.var");
                let name = self.pick(&NAMES);
                self.env.push((name, ty));
                return name.to_string();
            }
            match ty {
                Ty::Int | Ty::Bool | Ty::Str | Ty::Unit | Ty::IntSet => {
                    self.seen.insert("pat.lit");
                    let literals: &[&str] = match ty {
                        Ty::Int => &["0", "1", "-1", "7"],
                        Ty::Bool => &["true", "false"],
                        Ty::Str => &["\"a\"", "\"b\""],
                        _ => &["()"],
                    };
                    self.pick(literals).to_string()
                }
                Ty::Shape => {
                    self.seen.insert("pat.ctor");
                    let (case, fields) = self.pick(&CASES);
                    if fields.is_empty() {
                        return format!("Shape.{case}");
                    }
                    if depth == 1 {
                        self.seen.insert("pat.ctor.nested");
                    }
                    let args: Vec<String> =
                        fields.iter().map(|t| self.pattern(*t, depth - 1)).collect();
                    format!("Shape.{case}({})", args.join(", "))
                }
                Ty::Ints | Ty::Pair | Ty::Shapes => {
                    self.seen.insert("pat.tuple");
                    self.pair(ty, |g, t| g.pattern(t, depth - 1))
                }
            }
        }

        /// Five defs over the prelude, each free to call the ones before.
        fn program(&mut self) -> String {
            let mut source = PRELUDE.to_string();
            for i in 0..5 {
                let params: Vec<Ty> = (0..self.rng.index(4)).map(|_| self.pick(&TYPES)).collect();
                let ret = self.pick(&TYPES);
                self.env = PARAMS.iter().copied().zip(params.iter().copied()).collect();
                let body = self.expr(ret, 4);
                let declared: Vec<String> = self
                    .env
                    .iter()
                    .map(|(name, ty)| format!("{name}: {}", ty.source()))
                    .collect();
                source.push_str(&format!(
                    "def f{i}({}): {} = {body}\n",
                    declared.join(", "),
                    ret.source()
                ));
                self.defs.push((format!("f{i}"), params, ret));
            }
            source
        }

        /// An argument value. Half the `Shape`s carry a tag of their own
        /// allocation, as values built outside the compiler do, so patterns
        /// also compare tags by content.
        fn value(&mut self, ty: Ty, depth: usize) -> Value {
            match ty {
                // Past the inline integers (2⁶⁰) and the inline payloads
                // (2³³), on either side.
                Ty::Int => Value::Int(self.pick(&[
                    0,
                    1,
                    -1,
                    2,
                    7,
                    41,
                    (1 << 33) - 1,
                    1 << 33,
                    -(1 << 33) - 1,
                    (1 << 60) - 1,
                    1 << 60,
                    -(1 << 60) - 1,
                    i64::MAX,
                    i64::MIN,
                ])),
                Ty::Bool => Value::Bool(self.rng.gen_bool(0.5)),
                // "c" is no literal of any program.
                Ty::Str => Value::from(self.pick(&["a", "b", "c"])),
                Ty::Unit => Value::Unit,
                Ty::Shape => {
                    let (case, fields) = if depth == 0 {
                        CASES[0]
                    } else {
                        self.pick(&CASES)
                    };
                    let fields: Vec<Value> =
                        fields.iter().map(|t| self.value(*t, depth - 1)).collect();
                    if self.rng.gen_bool(0.5) {
                        ctor_value(case, fields.into_iter())
                    } else {
                        Value::tag(case, payload(fields.into_iter()))
                    }
                }
                Ty::IntSet => Value::set((0..self.rng.index(3)).map(|n| Value::Int(n as i64))),
                Ty::Ints | Ty::Pair | Ty::Shapes => {
                    let [a, b] = ty.components().expect("a tuple type");
                    Value::tuple([self.value(a, depth), self.value(b, depth)])
                }
            }
        }
    }

    /// A store's slots, modelled on the program's names: a value with no
    /// slot they fix is spilled in the order the store first meets it. A
    /// string spills as itself; any other value as a key string of its own,
    /// which word code can only compare, as it can a spilled value.
    struct Store {
        names: Names,
        spilled: HashMap<Value, u64>,
    }

    impl Store {
        /// The slot `value` has in the store, spilling it when it is new.
        fn slot(&mut self, value: &Value) -> u64 {
            if let Some(slot) = self.held(value) {
                return slot;
            }
            let key = match value {
                Value::Str(s) => s.to_string(),
                _ => format!("\0spilled {}", self.spilled.len()),
            };
            self.names.intern(&key);
            let slot = self.names.slot(&Value::str(key)).expect("interned");
            self.spilled.insert(value.clone(), slot);
            slot
        }

        /// The slot `value` has in the store, if it holds the value.
        fn held(&self, value: &Value) -> Option<u64> {
            let slot = self.names.slot(value);
            slot.or_else(|| self.spilled.get(value).copied())
        }
    }

    /// SNIPPETS.md's `pattern_match_deterministic` and
    /// `expr_eval_deterministic` obligations, executable: on generated
    /// well-typed defs the value entry returns what the tree-walker
    /// returns and panics with the message it panics with, on arguments
    /// that take the heap too — integers past 2⁶⁰, payloads past 2³³,
    /// strings no program names, tuples, sets and constructors of several
    /// fields. On a store's slots of the same arguments, spilled ones
    /// included, the word-form entry answers with the slot of that value
    /// or declines — always where the tree-walker panics.
    #[test]
    fn compiled_code_agrees_with_the_reference_evaluator() {
        let mut seen = BTreeSet::new();
        let (mut returned, mut panicked) = (0, 0);
        let (mut answered, mut declined, mut answered_spilled) = (0, 0, 0);
        for seed in 0..200 {
            let mut gen = Gen {
                rng: SmallRng::seed_from_u64(0x1A06_2100 + seed),
                env: Vec::new(),
                defs: vec![
                    ("ev".to_string(), vec![Ty::Int], Ty::Bool),
                    ("od".to_string(), vec![Ty::Int], Ty::Bool),
                ],
                seen: BTreeSet::new(),
            };
            let source = gen.program();
            let parsed = parse(&source).unwrap_or_else(|e| panic!("{e} in\n{source}"));
            let checked = Arc::new(check(&parsed).unwrap_or_else(|e| panic!("{e} in\n{source}")));
            let compiled = Interpreter::new(checked.clone());
            let mut store = Store {
                names: compiled.names().clone(),
                spilled: HashMap::new(),
            };
            for (name, params, _) in gen.defs.clone() {
                for _ in 0..6 {
                    let args: Vec<Value> = params.iter().map(|t| gen.value(*t, 2)).collect();
                    let got = outcome(|| compiled.call(&name, &args));
                    let expected = outcome(|| reference::call(&checked, &name, &args));
                    assert_eq!(got, expected, "{name}({args:?}) in\n{source}");
                    let def = compiled.resolve(&name);
                    let slots: Vec<u64> = args.iter().map(|arg| store.slot(arg)).collect();
                    let spilled = args.iter().any(|arg| compiled.names().slot(arg).is_none());
                    match (compiled.call_words(def, &slots), &got) {
                        (None, _) => declined += 1,
                        (Some(word), Ok(value)) => {
                            let at = format!("{name}({args:?}) = {value} in\n{source}");
                            assert_eq!(Some(word), store.held(value), "{at}");
                            answered += 1;
                            answered_spilled += spilled as usize;
                        }
                        (Some(word), Err(message)) => panic!(
                            "word code answered {word:#x} where {name}({args:?}) panics \
                             with {message} in\n{source}"
                        ),
                    }
                    match got {
                        Ok(_) => returned += 1,
                        Err(_) => panicked += 1,
                    }
                }
            }
            seen.extend(gen.seen);
        }
        for label in LABELS {
            assert!(seen.contains(label), "the generator never emitted {label}");
        }
        assert!(
            returned > 5_000 && panicked > 100,
            "{returned} calls returned, {panicked} panicked"
        );
        assert!(
            answered > 1_000 && answered_spilled > 100,
            "word code answered {answered} calls ({answered_spilled} on spilled arguments) \
             and declined {declined}"
        );
    }

    /// A program shaped like the `flixr_pipeline` benchmark's — §4.4's
    /// shortest paths, its lattice and `plus` written in FLIX, over a
    /// generated graph of `nodes` nodes.
    fn shortest_paths_source(nodes: usize) -> String {
        let mut rng = SmallRng::seed_from_u64(0x5107);
        let mut source = String::from(
            "enum Dist { case Fin(Int), case Inf }
             def leq(a: Dist, b: Dist): Bool = match (a, b) with {
               case (Dist.Inf, _) => true
               case (_, Dist.Inf) => false
               case (Dist.Fin(x), Dist.Fin(y)) => x >= y
             }
             def lub(a: Dist, b: Dist): Dist = match (a, b) with {
               case (Dist.Inf, x) => x
               case (x, Dist.Inf) => x
               case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
             }
             def glb(a: Dist, b: Dist): Dist = match (a, b) with {
               case (Dist.Inf, _) => Dist.Inf
               case (_, Dist.Inf) => Dist.Inf
               case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
             }
             let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);
             def plus(d: Dist, c: Int): Dist = match d with {
               case Dist.Inf => Dist.Inf
               case Dist.Fin(x) => Dist.Fin(x + c)
             }
             rel Edge(x: Str, y: Str, c: Int);
             lat Reach(node: Str, Dist<>);
             Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).
             Reach(\"n0\", Dist.Fin(0)).
            ",
        );
        for n in 1..nodes {
            let c = 1 + rng.index(100);
            source.push_str(&format!("Edge(\"n{}\", \"n{n}\", {c}).\n", n - 1));
        }
        for _ in 0..3 * nodes {
            let (x, y, c) = (rng.index(nodes), rng.index(nodes), 1 + rng.index(100));
            source.push_str(&format!("Edge(\"n{x}\", \"n{y}\", {c}).\n"));
        }
        source
    }

    /// The number of value-entry calls `program`'s solve makes, and the
    /// solution.
    fn value_calls_of(program: &flix_core::Program) -> (u64, flix_core::Solution) {
        let before = VALUE_CALLS.with(|calls| calls.get());
        let solution = flix_core::Solver::new().solve(program).expect("solves");
        (VALUE_CALLS.with(|calls| calls.get()) - before, solution)
    }

    /// On the shortest-paths program, every operand of the solve fits a
    /// slot, and the solve calls `leq`, `lub`, `glb` and `plus` through
    /// their word forms only, never through the value entry.
    #[test]
    fn a_shortest_paths_solve_runs_on_words_only() {
        let nodes = 300;
        let program = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (calls, solution) = value_calls_of(&program);
        assert_eq!(solution.len("Reach"), Some(nodes));
        assert!(solution.stats().facts_derived > 2 * nodes as u64);
        assert_eq!(calls, 0, "the solve made {calls} value-entry calls");
        // The same program lowered without word forms calls the entry.
        let (calls, _) = value_calls_of(&program.boxed_reference());
        assert!(calls > 2 * nodes as u64);
    }

    /// Constructor names and string literals take their ids in each
    /// program's stores, not in the process: a program that gives `Fin`
    /// and `Inf` other ids, and other strings before them, solved first,
    /// leaves the shortest-paths solve on words, with its own ids.
    #[test]
    fn words_only_whatever_another_program_interned_first() {
        let other = crate::compile(
            "enum E { case A, case B(Int), case Fin(Int), case Inf }
             def step(e: E): E = match e with {
               case E.Fin(x) => if (x < 3) E.Fin(x + 1) else E.Inf
               case _ => E.A
             }
             def tag(s: Str): Str = if (s == \"n0\") \"zero\" else s
             rel P(s: Str, e: E);
             rel Q(s: Str, e: E);
             rel T(s: Str);
             P(\"n7\", E.Fin(0)). P(\"n0\", E.B(1)).
             Q(s, step(e)) :- P(s, e).
             Q(s, step(e)) :- Q(s, e).
             T(tag(s)) :- Q(s, _).",
        )
        .expect("compiles");
        let (_, solution) = value_calls_of(&other);
        assert!(solution.len("Q").is_some_and(|n| n > 4));
        let nodes = 50;
        let program = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (calls, solution) = value_calls_of(&program);
        assert_eq!(solution.len("Reach"), Some(nodes));
        assert_eq!(calls, 0, "the solve made {calls} value-entry calls");
        let expected = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (_, expected) = value_calls_of(&expected.boxed_reference());
        assert_eq!(solution.model_lines(), expected.model_lines());
    }

    /// A heap word is told apart by its tag alone: no slot and no reserved
    /// lattice word carries it (a round-local word carries tag 6). `()` and
    /// the names have the words the decoder reads them from.
    #[test]
    fn heap_words_carry_a_tag_of_their_own() {
        let i = interp_of("enum E { case A, case B(Int) } def s(): Str = \"lit\"");
        let slots = [
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(7),
            Value::tag0("A"),
            Value::tag("B", Value::Int(-5)),
            Value::from("lit"),
        ]
        .map(|value| i.names().slot(&value).expect("a slot"));
        let reserved = [
            flix_core::FLAT_BOTTOM,
            flix_core::FLAT_TOP,
            flix_core::CHAIN_BOTTOM,
        ];
        for word in slots.into_iter().chain(reserved) {
            assert_ne!(word & TAG_MASK, HEAP, "{word:#x}");
        }
        // `()` is word 0, and a name is its id over `NAMED`.
        assert_eq!(slots[0], UNIT);
        for (id, name) in i.strings.by_id.iter().enumerate() {
            let named = i.names().slot(&Value::Str(Arc::clone(name)));
            assert_eq!(named, Some(((id as u64) << 3) | NAMED), "{name}");
        }
    }

    #[test]
    fn word_code_declines_where_it_cannot_answer_exactly() {
        let i = interp_of(
            "enum Dist { case Fin(Int), case Inf }
             def plus(d: Dist, c: Int): Dist = match d with {
               case Dist.Inf => Dist.Inf
               case Dist.Fin(x) => Dist.Fin(x + c)
             }
             def add(x: Int, c: Int): Int = x + c
             def only(d: Dist): Int = match d with { case Dist.Fin(x) => x }
             def count(n: Int): Int = if (n <= 0) 0 else 1 + count(n - 1)
             def pair(x: Int): (Int, Int) = (x, x)
             def first(x: Int): Int = match pair(x) with { case (a, _) => a }",
        );
        let int = |n: i64| i.names().slot(&Value::Int(n)).expect("inline");
        let fin = |n: i64| i.names().slot(&Value::tag("Fin", Value::Int(n)));
        let inf = i.names().slot(&Value::tag0("Inf")).expect("inline");
        let words = |name: &str, args: &[u64]| i.call_words(i.resolve(name), args);
        assert_eq!(words("plus", &[fin(2).expect("inline"), int(3)]), fin(5));
        assert_eq!(words("plus", &[inf, int(3)]), Some(inf));
        // A payload past the inline range, and a sum past the inline
        // integers or wrapping at `i64::MAX`, decline; the value entry
        // answers.
        let edge = (1 << 33) - 1;
        assert_eq!(fin(edge + 1), None);
        assert_eq!(words("plus", &[fin(edge).expect("inline"), int(1)]), None);
        assert_eq!(
            i.call(
                "plus",
                &[Value::tag("Fin", Value::Int(edge)), Value::Int(1)]
            ),
            Value::tag("Fin", Value::Int(edge + 1))
        );
        let widest = (1 << 60) - 1;
        assert_eq!(words("add", &[int(widest), int(0)]), Some(int(widest)));
        assert_eq!(words("add", &[int(widest), int(1)]), None);
        assert_eq!(
            i.call("add", &[Value::Int(i64::MAX), Value::Int(1)]),
            Value::Int(i64::MIN)
        );
        // No arm matches: declined, and the value entry panics.
        assert_eq!(words("only", &[inf]), None);
        let message = outcome(|| i.call("only", &[Value::tag0("Inf")]));
        assert!(
            message
                .as_ref()
                .is_err_and(|m| m.starts_with("non-exhaustive match at")),
            "{message:?}"
        );
        // Deep recursion declines where the value entry panics.
        assert_eq!(words("count", &[int(3)]), Some(int(3)));
        assert_eq!(words("count", &[int(MAX_CALL_DEPTH as i64)]), None);
        // A def that builds a tuple has no word code, nor its callers.
        for name in ["pair", "first"] {
            assert_eq!(i.word_arity(i.resolve(name)), None, "{name}");
        }
        assert_eq!(i.word_arity(i.resolve("plus")), Some(2));
    }
}
