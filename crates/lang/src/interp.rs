//! The evaluator for the pure functional fragment of FLIX.
//!
//! The paper's implementation evaluates functions "using an AST-based
//! interpreter" (§4.5). This module keeps that language and its semantics
//! but reads the AST once: [`Interpreter::new`] compiles every `def` into
//! a tree of closures in which the work a tree-walker repeats on each
//! call is already done — callees are indexes into the compiled table,
//! variables are numbered slots of a frame whose size is known, constant
//! subterms are prebuilt values and constructor tags are interned, so a
//! pattern tests a tag by pointer before it compares content. Values are
//! the engine's dynamic [`Value`]s, so compiled lattice operations and
//! transfer functions plug directly into [`flix_core::LatticeOps`] and
//! [`flix_core::ProgramBuilder::function`].
//!
//! The same walk compiles each body a second time, to *word code*:
//! closures over the fact store's `u64` slots, on a fixed frame of words,
//! that allocate nothing (DESIGN §6). A slot holds an integer, a boolean
//! or a constructor applied to one of those inline
//! ([`flix_core::slot_of_ctor`]), or the index of a spilled value — a
//! string included — in its store. A constructor's id and a string
//! literal's slot are the program's [`Names`], the same in every store
//! of the program, so word code bakes them in. Word code reads and builds
//! slots, tests patterns on them, and compares any two slots for
//! equality, which is value equality. Where it cannot answer exactly — a
//! spilled operand it would have to look into, a result with no inline
//! slot, no arm that matches, the call-depth limit — it declines, and the
//! boxed code runs the call, with its result or its panic. A `def` has
//! word code when every construct of its body does and every `def` it
//! calls has word code too; lowering registers it as the function's word
//! form and, for a lattice's `leq`, `lub` and `glb`, as the lattice's
//! ([`flix_core::LatticeOps::with_word_forms`]).

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
/// measured at 1–2 KiB a level in a debug build (0.5–1 KiB in release)
/// for bodies nesting up to seven expressions — so the limit is reached
/// within a quarter of a 2 MiB thread stack (the default of
/// `std::thread::spawn`, which solver workers and the `flixd` writer run
/// on), and bodies nesting four times deeper still fit. Word code
/// declines at the same depth.
const MAX_CALL_DEPTH: usize = 256;

/// The words a word frame holds: the slots of the running calls'
/// parameters, `let`s, pattern variables and scrutinees. A call that
/// needs more declines.
const WORD_STACK: usize = 32;

/// Compiled code for one expression: evaluates it in a frame.
type Code = Box<dyn Fn(&mut Frame<'_>) -> Value + Send + Sync>;

/// Word code for one expression: the slot of its value in a word frame,
/// or `None` where it declines.
type WordCode = Box<dyn Fn(&mut WordFrame<'_>) -> Option<u64> + Send + Sync>;

/// The compiled test of one pattern. Binding is separate (see [`Bind`]),
/// so a test reads the matched value and nothing else.
type Test = Box<dyn Fn(&Value) -> bool + Send + Sync>;

/// A pattern's test on a slot: `None` where the slot does not tell — a
/// spilled value whose constructor the test would have to read.
type WordTest = Box<dyn Fn(u64) -> Option<bool> + Send + Sync>;

/// One expression compiled both ways: the boxed code, and the word code
/// where every part of the expression has word code.
struct Compiled {
    code: Code,
    word: Option<WordCode>,
}

/// One compiled `def`.
struct Def {
    name: String,
    arity: usize,
    /// The frame size: parameters first, then the most `let`, pattern and
    /// scrutinee slots live at once.
    slots: usize,
    body: Code,
    /// The word code, on frames of the same slots.
    word: Option<WordCode>,
}

/// One frame slot. The arguments of an outermost call — the engine's
/// borrowed operands — stay borrowed, and so does whatever a pattern
/// binds inside them; only computed values are owned.
#[derive(Clone)]
enum Slot<'v> {
    Own(Value),
    Ref(&'v Value),
}

impl Slot<'_> {
    fn value(&self) -> &Value {
        match self {
            Slot::Own(value) => value,
            Slot::Ref(value) => value,
        }
    }
}

/// The activation state of one outermost call: a slot stack shared by
/// the nested calls, the running call's window into it, and the depth.
struct Frame<'v> {
    defs: &'v [Def],
    stack: Vec<Slot<'v>>,
    /// Where the running call's slots start in `stack`.
    base: usize,
    depth: usize,
}

impl<'v> Frame<'v> {
    fn get(&self, slot: usize) -> &Value {
        self.stack[self.base + slot].value()
    }

    fn set(&mut self, slot: usize, value: Slot<'v>) {
        let at = self.base + slot;
        self.stack[at] = value;
    }

    /// Runs `callee` on the arguments the caller pushed from `base` up.
    fn enter(&mut self, callee: usize, base: usize) -> Value {
        let defs = self.defs;
        let def = &defs[callee];
        assert_eq!(
            def.arity,
            self.stack.len() - base,
            "function {} called with wrong arity",
            def.name
        );
        if self.depth == MAX_CALL_DEPTH {
            panic!("recursion limit exceeded in {}", def.name);
        }
        self.stack.resize(base + def.slots, Slot::Own(Value::Unit));
        let caller = std::mem::replace(&mut self.base, base);
        self.depth += 1;
        let result = (def.body)(self);
        self.depth -= 1;
        self.base = caller;
        self.stack.truncate(base);
        result
    }
}

/// [`Frame`] for word code: the slots live in a fixed array on the
/// machine stack of the outermost call.
struct WordFrame<'d> {
    defs: &'d [Def],
    stack: [u64; WORD_STACK],
    /// The words in use: the running call's, and the arguments pushed
    /// for the next.
    top: usize,
    /// Where the running call's slots start in `stack`.
    base: usize,
    depth: usize,
}

impl WordFrame<'_> {
    #[inline]
    fn get(&self, slot: usize) -> u64 {
        self.stack[self.base + slot]
    }

    #[inline]
    fn set(&mut self, slot: usize, word: u64) {
        self.stack[self.base + slot] = word;
    }

    /// Pushes an argument of the next call; `None` when the frame is full.
    #[inline]
    fn push(&mut self, word: u64) -> Option<()> {
        *self.stack.get_mut(self.top)? = word;
        self.top += 1;
        Some(())
    }

    /// Runs `callee`'s word code on the arguments pushed from `base` up;
    /// declines where the boxed call would panic on depth or arity, or the
    /// frame would overflow.
    fn enter(&mut self, callee: usize, base: usize) -> Option<u64> {
        let defs = self.defs;
        let def = &defs[callee];
        let word = def.word.as_ref()?;
        let top = base + def.slots;
        if self.depth == MAX_CALL_DEPTH || self.top - base != def.arity || top > WORD_STACK {
            return None;
        }
        self.top = top;
        let caller = std::mem::replace(&mut self.base, base);
        self.depth += 1;
        let result = word(self);
        self.depth -= 1;
        self.base = caller;
        self.top = base;
        result
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
    names: Arc<Names>,
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
        let mut strings = Names::default();
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
                let body = cx.expr(&info.body);
                calls.push(std::mem::take(&mut cx.calls));
                Def {
                    name: name.to_string(),
                    arity: info.params.len(),
                    slots: cx.slots,
                    body: body.code,
                    word: body.word,
                }
            })
            .collect();
        // Word code that calls a def without any would always decline
        // there: until nothing changes, such a def has none either.
        loop {
            let lacking: Vec<usize> = (0..defs.len())
                .filter(|&d| defs[d].word.is_some())
                .filter(|&d| calls[d].iter().any(|&callee| defs[callee].word.is_none()))
                .collect();
            if lacking.is_empty() {
                break;
            }
            for d in lacking {
                defs[d].word = None;
            }
        }
        Interpreter {
            defs: defs.into(),
            names: Arc::new(strings),
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
        &self.names
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
    pub(crate) fn call_at<'v>(
        &'v self,
        def: usize,
        args: impl IntoIterator<Item = &'v Value>,
    ) -> Value {
        #[cfg(test)]
        tests::BOXED_CALLS.with(|calls| calls.set(calls.get() + 1));
        let mut frame = Frame {
            defs: &self.defs,
            stack: Vec::with_capacity(self.defs[def].slots),
            base: 0,
            depth: 0,
        };
        frame.stack.extend(args.into_iter().map(Slot::Ref));
        frame.enter(def, 0)
    }

    /// The number of parameters of the `def` at index `def`, when it has
    /// word code.
    pub(crate) fn word_arity(&self, def: usize) -> Option<usize> {
        let def = &self.defs[def];
        def.word.as_ref().map(|_| def.arity)
    }

    /// Runs the word code of the `def` at index `def` on the slots of its
    /// arguments: the slot of the result, or `None` where the word code
    /// declines (or the def has none) and [`Interpreter::call_at`] must
    /// answer.
    pub(crate) fn call_words(&self, def: usize, args: &[u64]) -> Option<u64> {
        let mut frame = WordFrame {
            defs: &self.defs,
            stack: [0; WORD_STACK],
            top: 0,
            base: 0,
            depth: 0,
        };
        for &arg in args {
            frame.push(arg)?;
        }
        frame.enter(def, 0)
    }

    /// Evaluates a closed expression (no free variables).
    pub fn eval_closed(&self, expr: &Expr) -> Value {
        let names: Vec<&str> = self.def_names().collect();
        let mut strings = Names::clone(&self.names);
        let mut cx = Compiler::new(&names, &mut strings);
        let code = cx.expr(expr).code;
        let mut frame = Frame {
            defs: &self.defs,
            stack: vec![Slot::Own(Value::Unit); cx.slots],
            base: 0,
            depth: 0,
        };
        code(&mut frame)
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

fn same_tag(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// One step from a matched value to the part a pattern variable binds.
#[derive(Clone, Copy)]
enum Step {
    /// A constructor's payload.
    Payload,
    /// A tuple's component.
    Item(usize),
}

/// Where a value is read from once an arm's tests have passed.
enum Source {
    /// The slot's value, followed down `steps`.
    Part(usize, Vec<Step>),
    /// The tuple of the slots' values: a tuple-literal scrutinee, built
    /// only by an arm that binds it whole and by the no-arm panic.
    Tuple(Vec<usize>),
}

impl Source {
    fn read<'v>(&self, frame: &Frame<'v>) -> Slot<'v> {
        match self {
            Source::Part(slot, steps) => match &frame.stack[frame.base + slot] {
                Slot::Own(value) => Slot::Own(part(value, steps).clone()),
                Slot::Ref(value) => Slot::Ref(part(value, steps)),
            },
            Source::Tuple(slots) => {
                Slot::Own(Value::tuple(slots.iter().map(|&s| frame.get(s).clone())))
            }
        }
    }

    /// Where word code reads the same part: the slot, and how many
    /// constructor payloads down. `None` for a tuple or a tuple's
    /// component, which have no inline slot.
    fn words(&self) -> Option<(usize, usize)> {
        match self {
            Source::Part(slot, steps) if steps.iter().all(|s| matches!(s, Step::Payload)) => {
                Some((*slot, steps.len()))
            }
            Source::Part(..) | Source::Tuple(_) => None,
        }
    }
}

/// The part of `value` that `steps` lead to.
fn part<'v>(mut value: &'v Value, steps: &[Step]) -> &'v Value {
    for step in steps {
        value = match (step, value) {
            (Step::Payload, Value::Tag(_, payload)) => payload,
            (Step::Item(i), Value::Tuple(items)) => &items[*i],
            _ => unreachable!("the arm's tests passed"),
        };
    }
    value
}

/// A pattern variable: the slot it gets and where its value comes from.
struct Bind {
    from: Source,
    to: usize,
}

/// One compiled `match` arm: every test must pass on its slot, then the
/// binds run, then the body.
struct Arm {
    tests: Vec<(usize, Test)>,
    binds: Vec<Bind>,
    body: Code,
}

/// [`Arm`] for word code: a bind reads its slot `payloads` constructor
/// payloads down.
struct WordArm {
    tests: Vec<(usize, WordTest)>,
    /// `(slot, payloads, to)`.
    binds: Vec<(usize, usize, usize)>,
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
    /// The callees the word code calls.
    calls: Vec<usize>,
    /// The program's names: each constructor's tag and id, and each
    /// string literal's, interned as compiling meets it.
    strings: &'a mut Names,
}

impl<'a> Compiler<'a> {
    fn new(names: &'a [&'a str], strings: &'a mut Names) -> Compiler<'a> {
        Compiler {
            names,
            scope: Vec::new(),
            live: 0,
            slots: 0,
            calls: Vec::new(),
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
            Expr::Lit(l, _) => Some(literal(self.strings, l)),
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

    /// The boxed code of every item, and the word code when every item
    /// has some.
    fn exprs(&mut self, items: &'a [Expr]) -> (Vec<Code>, Option<Vec<WordCode>>) {
        let mut codes = Vec::with_capacity(items.len());
        let mut words = Some(Vec::with_capacity(items.len()));
        for item in items {
            let compiled = self.expr(item);
            codes.push(compiled.code);
            words = words.zip(compiled.word).map(|(mut words, word)| {
                words.push(word);
                words
            });
        }
        (codes, words)
    }

    fn expr(&mut self, expr: &'a Expr) -> Compiled {
        if let Some(value) = self.constant(expr) {
            let word = self.strings.slot(&value);
            let word =
                word.map(|slot| Box::new(move |_: &mut WordFrame<'_>| Some(slot)) as WordCode);
            return Compiled {
                code: Box::new(move |_| value.clone()),
                word,
            };
        }
        let (code, word): (Code, Option<WordCode>) = match expr {
            Expr::Lit(..) => unreachable!("a literal is a constant"),
            Expr::Var(name, _) => match self.lookup(name) {
                Some(slot) => (
                    Box::new(move |f| f.get(slot).clone()),
                    Some(Box::new(move |f| Some(f.get(slot)))),
                ),
                None => {
                    let name = name.clone();
                    (
                        Box::new(move |_| panic!("unbound variable {name} (checker bug)")),
                        None,
                    )
                }
            },
            Expr::Ctor { case, args, .. } => {
                let (ctor, tag) = self.strings.intern(case);
                let (fields, words) = self.exprs(args);
                // One field has a constructor slot where its own slot fits;
                // a tuple of fields never has one.
                let word = match words {
                    Some(mut words) if words.len() == 1 => {
                        let field = words.pop().expect("one field");
                        Some(
                            Box::new(move |f: &mut WordFrame<'_>| slot_of_ctor(ctor, field(f)?))
                                as WordCode,
                        )
                    }
                    _ => None,
                };
                (
                    Box::new(move |f| {
                        Value::Tag(tag.clone(), Arc::new(payload(fields.iter().map(|c| c(f)))))
                    }),
                    word,
                )
            }
            Expr::Call { func, args, .. } => {
                let Ok(callee) = self.names.binary_search(&func.as_str()) else {
                    let name = func.clone();
                    return Compiled {
                        code: Box::new(move |_| panic!("call to unknown function {name}")),
                        word: None,
                    };
                };
                let (args, words) = self.exprs(args);
                let word = words.map(|words| {
                    self.calls.push(callee);
                    Box::new(move |f: &mut WordFrame<'_>| {
                        let base = f.top;
                        for arg in &words {
                            let word = arg(f)?;
                            f.push(word)?;
                        }
                        f.enter(callee, base)
                    }) as WordCode
                });
                (
                    Box::new(move |f| {
                        let base = f.stack.len();
                        for arg in &args {
                            let value = arg(f);
                            f.stack.push(Slot::Own(value));
                        }
                        f.enter(callee, base)
                    }),
                    word,
                )
            }
            Expr::Tuple(items, _) => {
                let (items, _) = self.exprs(items);
                (
                    Box::new(move |f| Value::tuple(items.iter().map(|c| c(f)))),
                    None,
                )
            }
            Expr::SetLit(items, _) => {
                let (items, _) = self.exprs(items);
                (
                    Box::new(move |f| Value::set(items.iter().map(|c| c(f)))),
                    None,
                )
            }
            Expr::Unary { op, expr, .. } => {
                let Compiled {
                    code: operand,
                    word,
                } = self.expr(expr);
                match op {
                    UnOp::Not => (
                        Box::new(move |f| {
                            Value::Bool(!operand(f).as_bool().expect("typechecked Bool"))
                        }),
                        word.map(|word| {
                            Box::new(move |f: &mut WordFrame<'_>| match word(f)? {
                                WORD_TRUE => Some(WORD_FALSE),
                                WORD_FALSE => Some(WORD_TRUE),
                                _ => None,
                            }) as WordCode
                        }),
                    ),
                    UnOp::Neg => (
                        Box::new(move |f| {
                            Value::Int(-operand(f).as_int().expect("typechecked Int"))
                        }),
                        word.map(|word| {
                            Box::new(move |f: &mut WordFrame<'_>| {
                                slot_of_int(int_of_slot(word(f)?)?.wrapping_neg())
                            }) as WordCode
                        }),
                    ),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (l, r) = (self.expr(lhs), self.expr(rhs));
                let word = l.word.zip(r.word).map(|(l, r)| word_binary(*op, l, r));
                (binary(*op, l.code, r.code), word)
            }
            Expr::If {
                cond,
                then,
                otherwise,
                ..
            } => {
                let (cond, then, otherwise) =
                    (self.expr(cond), self.expr(then), self.expr(otherwise));
                let word = match (cond.word, then.word, otherwise.word) {
                    (Some(cond), Some(then), Some(otherwise)) => {
                        Some(Box::new(move |f: &mut WordFrame<'_>| match cond(f)? {
                            WORD_TRUE => then(f),
                            WORD_FALSE => otherwise(f),
                            _ => None,
                        }) as WordCode)
                    }
                    _ => None,
                };
                let (cond, then, otherwise) = (cond.code, then.code, otherwise.code);
                (
                    Box::new(move |f| {
                        if cond(f).is_true() {
                            then(f)
                        } else {
                            otherwise(f)
                        }
                    }),
                    word,
                )
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
                let word = bound.word.zip(body.word).map(|(bound, body)| {
                    Box::new(move |f: &mut WordFrame<'_>| {
                        let word = bound(f)?;
                        f.set(slot, word);
                        body(f)
                    }) as WordCode
                });
                let (bound, body) = (bound.code, body.code);
                (
                    Box::new(move |f| {
                        let value = bound(f);
                        f.set(slot, Slot::Own(value));
                        body(f)
                    }),
                    word,
                )
            }
            Expr::Match {
                scrutinee,
                arms,
                pos,
            } => return self.match_expr(scrutinee, arms, *pos),
        };
        Compiled { code, word }
    }

    /// Leaves the scopes entered since `mark` and frees their slots.
    fn release(&mut self, (scope, live): (usize, usize)) {
        self.scope.truncate(scope);
        self.live = live;
    }

    fn match_expr(&mut self, scrutinee: &'a Expr, arms: &'a [MatchArm], pos: Pos) -> Compiled {
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
        let mut evals: Vec<(Code, usize)> = Vec::new();
        let mut word_evals: Option<Vec<(WordCode, usize)>> = Some(Vec::new());
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
            let compiled = self.expr(part);
            let slot = self.alloc();
            evals.push((compiled.code, slot));
            word_evals = word_evals.zip(compiled.word).map(|(mut evals, word)| {
                evals.push((word, slot));
                evals
            });
            places.push(slot);
        }
        let matched = if split {
            Source::Tuple(places.clone())
        } else {
            Source::Part(places[0], Vec::new())
        };

        let mut word_arms: Option<Vec<WordArm>> = Some(Vec::new());
        let arms: Vec<Arm> = arms
            .iter()
            .map(|arm| {
                let arm_mark = (self.scope.len(), self.live);
                let (mut tests, mut binds) = (Vec::new(), Vec::new());
                let mut word_tests = Some(Vec::new());
                match &arm.pat {
                    Pattern::Tuple(pats, _) if split => {
                        for (pat, &place) in pats.iter().zip(&places) {
                            self.pattern(pat, place, &mut tests, &mut word_tests, &mut binds);
                        }
                    }
                    Pattern::Var(name, _) if split => binds.push(Bind {
                        from: Source::Tuple(places.clone()),
                        to: self.bind(name),
                    }),
                    pat => self.pattern(pat, places[0], &mut tests, &mut word_tests, &mut binds),
                }
                let body = self.expr(&arm.body);
                self.release(arm_mark);
                let word_binds: Option<Vec<(usize, usize, usize)>> = binds
                    .iter()
                    .map(|bind| {
                        bind.from
                            .words()
                            .map(|(slot, payloads)| (slot, payloads, bind.to))
                    })
                    .collect();
                word_arms = match (word_arms.take(), word_tests, word_binds, body.word) {
                    (Some(mut arms), Some(tests), Some(binds), Some(body)) => {
                        arms.push(WordArm { tests, binds, body });
                        Some(arms)
                    }
                    _ => None,
                };
                Arm {
                    tests,
                    binds,
                    body: body.code,
                }
            })
            .collect();
        self.release(mark);

        let word = word_evals.zip(word_arms).map(|(evals, arms)| {
            Box::new(move |f: &mut WordFrame<'_>| {
                for (code, slot) in &evals {
                    let word = code(f)?;
                    f.set(*slot, word);
                }
                'arms: for arm in &arms {
                    for (place, test) in &arm.tests {
                        if !test(f.get(*place))? {
                            continue 'arms;
                        }
                    }
                    for &(slot, payloads, to) in &arm.binds {
                        let mut word = f.get(slot);
                        for _ in 0..payloads {
                            word = ctor_of_slot(word)?.1;
                        }
                        f.set(to, word);
                    }
                    return (arm.body)(f);
                }
                // No arm matches: the boxed call panics with the value.
                None
            }) as WordCode
        });
        let code = Box::new(move |f: &mut Frame<'_>| {
            for (code, slot) in &evals {
                let value = code(f);
                f.set(*slot, Slot::Own(value));
            }
            // Arms are tried in order; the first whose tests pass runs.
            for arm in &arms {
                if arm.tests.iter().all(|(place, test)| test(f.get(*place))) {
                    for bind in &arm.binds {
                        let value = bind.from.read(f);
                        f.set(bind.to, value);
                    }
                    return (arm.body)(f);
                }
            }
            let value = matched.read(f);
            panic!(
                "non-exhaustive match at {pos}: no arm matches {}",
                value.value()
            )
        });
        Compiled { code, word }
    }

    /// Compiles `pat` against the value in slot `place`: its test, if it
    /// can fail — boxed, and on words while every test so far has word
    /// code — and a bind per variable.
    fn pattern(
        &mut self,
        pat: &'a Pattern,
        place: usize,
        tests: &mut Vec<(usize, Test)>,
        word_tests: &mut Option<Vec<(usize, WordTest)>>,
        binds: &mut Vec<Bind>,
    ) {
        if let Some(test) = pattern_test(self.strings, pat) {
            tests.push((place, test));
            let word = word_test(self.strings, pat);
            *word_tests = word_tests.take().zip(word).map(|(mut tests, test)| {
                tests.push((place, test));
                tests
            });
        }
        self.pattern_binds(pat, place, &mut Vec::new(), binds);
    }

    fn pattern_binds(
        &mut self,
        pat: &'a Pattern,
        place: usize,
        path: &mut Vec<Step>,
        binds: &mut Vec<Bind>,
    ) {
        match pat {
            Pattern::Wildcard(_) | Pattern::Lit(..) => {}
            Pattern::Var(name, _) => binds.push(Bind {
                from: Source::Part(place, path.clone()),
                to: self.bind(name),
            }),
            Pattern::Ctor { args, .. } => {
                path.push(Step::Payload);
                match args.as_slice() {
                    [only] => self.pattern_binds(only, place, path, binds),
                    fields => self.item_binds(fields, place, path, binds),
                }
                path.pop();
            }
            Pattern::Tuple(pats, _) => self.item_binds(pats, place, path, binds),
        }
    }

    fn item_binds(
        &mut self,
        pats: &'a [Pattern],
        place: usize,
        path: &mut Vec<Step>,
        binds: &mut Vec<Bind>,
    ) {
        for (i, pat) in pats.iter().enumerate() {
            path.push(Step::Item(i));
            self.pattern_binds(pat, place, path, binds);
            path.pop();
        }
    }
}

/// The boxed code of a binary operator.
fn binary(op: BinOp, l: Code, r: Code) -> Code {
    match op {
        // The boolean connectives short-circuit.
        BinOp::And => Box::new(move |f| {
            if l(f).is_true() {
                r(f)
            } else {
                Value::Bool(false)
            }
        }),
        BinOp::Or => Box::new(move |f| {
            if l(f).is_true() {
                Value::Bool(true)
            } else {
                r(f)
            }
        }),
        BinOp::Eq => Box::new(move |f| Value::Bool(l(f) == r(f))),
        BinOp::Ne => Box::new(move |f| Value::Bool(l(f) != r(f))),
        BinOp::Add => int_op(l, r, |x, y| Value::Int(x.wrapping_add(y))),
        BinOp::Sub => int_op(l, r, |x, y| Value::Int(x.wrapping_sub(y))),
        BinOp::Mul => int_op(l, r, |x, y| Value::Int(x.wrapping_mul(y))),
        // Total semantics: division by zero yields zero.
        BinOp::Div => int_op(l, r, |x, y| {
            Value::Int(if y == 0 { 0 } else { x.wrapping_div(y) })
        }),
        BinOp::Rem => int_op(l, r, |x, y| {
            Value::Int(if y == 0 { 0 } else { x.wrapping_rem(y) })
        }),
        BinOp::Lt => int_op(l, r, |x, y| Value::Bool(x < y)),
        BinOp::Le => int_op(l, r, |x, y| Value::Bool(x <= y)),
        BinOp::Gt => int_op(l, r, |x, y| Value::Bool(x > y)),
        BinOp::Ge => int_op(l, r, |x, y| Value::Bool(x >= y)),
    }
}

fn int_op(l: Code, r: Code, op: impl Fn(i64, i64) -> Value + Send + Sync + 'static) -> Code {
    Box::new(move |f| {
        let x = l(f).as_int().expect("typechecked Int");
        let y = r(f).as_int().expect("typechecked Int");
        op(x, y)
    })
}

/// The word code of a binary operator: the boxed code's semantics on
/// slots. Equality compares slots, which is value equality; an integer
/// operation reads inline integers and declines where its result has no
/// inline slot.
fn word_binary(op: BinOp, l: WordCode, r: WordCode) -> WordCode {
    let truth = |b: bool| if b { WORD_TRUE } else { WORD_FALSE };
    match op {
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
        BinOp::Eq => Box::new(move |f| Some(truth(l(f)? == r(f)?))),
        BinOp::Ne => Box::new(move |f| Some(truth(l(f)? != r(f)?))),
        BinOp::Add => word_int_op(l, r, |x, y| slot_of_int(x.wrapping_add(y))),
        BinOp::Sub => word_int_op(l, r, |x, y| slot_of_int(x.wrapping_sub(y))),
        BinOp::Mul => word_int_op(l, r, |x, y| slot_of_int(x.wrapping_mul(y))),
        BinOp::Div => word_int_op(l, r, |x, y| {
            slot_of_int(if y == 0 { 0 } else { x.wrapping_div(y) })
        }),
        BinOp::Rem => word_int_op(l, r, |x, y| {
            slot_of_int(if y == 0 { 0 } else { x.wrapping_rem(y) })
        }),
        BinOp::Lt => word_int_op(l, r, move |x, y| Some(truth(x < y))),
        BinOp::Le => word_int_op(l, r, move |x, y| Some(truth(x <= y))),
        BinOp::Gt => word_int_op(l, r, move |x, y| Some(truth(x > y))),
        BinOp::Ge => word_int_op(l, r, move |x, y| Some(truth(x >= y))),
    }
}

fn word_int_op(
    l: WordCode,
    r: WordCode,
    op: impl Fn(i64, i64) -> Option<u64> + Send + Sync + 'static,
) -> WordCode {
    Box::new(move |f| {
        let x = int_of_slot(l(f)?)?;
        let y = int_of_slot(r(f)?)?;
        op(x, y)
    })
}

/// A literal's value, a string one among the program's names: then it
/// has a slot word code may bake in.
fn literal(names: &mut Names, l: &Lit) -> Value {
    match l {
        Lit::Str(s) => Value::Str(names.intern(s).1),
        _ => lit_value(l),
    }
}

/// The test `pat` makes of a value; `None` if it matches every value.
fn pattern_test(names: &mut Names, pat: &Pattern) -> Option<Test> {
    match pat {
        Pattern::Wildcard(_) | Pattern::Var(..) => None,
        Pattern::Lit(l, _) => {
            let lit = literal(names, l);
            Some(Box::new(move |v| *v == lit))
        }
        Pattern::Ctor { case, args, .. } => {
            // The allocation every store of the program decodes the tag
            // to: a pattern recognises it by pointer.
            let (_, tag) = names.intern(case);
            let on_payload = match args.as_slice() {
                [] => Some(Box::new(|payload: &Value| *payload == Value::Unit) as Test),
                [only] => pattern_test(names, only),
                fields => Some(items_test(names, fields)),
            };
            Some(match on_payload {
                None => Box::new(move |v| matches!(v, Value::Tag(name, _) if same_tag(name, &tag))),
                Some(test) => Box::new(move |v| match v {
                    Value::Tag(name, payload) => same_tag(name, &tag) && test(payload),
                    _ => false,
                }),
            })
        }
        Pattern::Tuple(pats, _) => Some(items_test(names, pats)),
    }
}

/// The test of a tuple of `pats.len()` components, one pattern each.
fn items_test(names: &mut Names, pats: &[Pattern]) -> Test {
    let tests: Vec<Option<Test>> = pats.iter().map(|pat| pattern_test(names, pat)).collect();
    Box::new(move |v| match v {
        Value::Tuple(items) if items.len() == tests.len() => tests
            .iter()
            .zip(items.iter())
            .all(|(test, item)| test.as_ref().is_none_or(|test| test(item))),
        _ => false,
    })
}

/// [`pattern_test`] on slots, for a pattern that can fail: `None` where
/// word code has no test for it — a literal with no inline slot, a tuple
/// (no tuple has one), a constructor of several fields or one whose
/// values all spill. A literal or a nullary constructor is one slot, and
/// equal values have equal slots; a constructor of one field reads an
/// inline constructor slot and does not tell on any other.
fn word_test(names: &mut Names, pat: &Pattern) -> Option<WordTest> {
    match pat {
        Pattern::Lit(l, _) => {
            let lit = literal(names, l);
            let lit = names.slot(&lit)?;
            Some(Box::new(move |word| Some(word == lit)))
        }
        Pattern::Ctor { case, args, .. } => {
            let (ctor, _) = names.intern(case);
            let nullary = slot_of_ctor(ctor, names.slot(&Value::Unit)?)?;
            match args.as_slice() {
                [] => Some(Box::new(move |word| Some(word == nullary))),
                [only] => {
                    let on_payload = match pattern_test(names, only) {
                        Some(_) => Some(word_test(names, only)?),
                        None => None,
                    };
                    Some(Box::new(move |word| {
                        let (of, payload) = ctor_of_slot(word)?;
                        if of != ctor {
                            return Some(false);
                        }
                        on_payload.as_ref().map_or(Some(true), |test| test(payload))
                    }))
                }
                _ => None,
            }
        }
        Pattern::Wildcard(_) | Pattern::Var(..) | Pattern::Tuple(..) => None,
    }
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
    use std::collections::BTreeSet;

    thread_local! {
        /// The boxed calls made on this thread: what a test of the word
        /// path counts.
        pub(super) static BOXED_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
                Ty::Int => Value::Int(self.pick(&[0, 1, -1, 2, 7, 41, i64::MAX, i64::MIN])),
                Ty::Bool => Value::Bool(self.rng.gen_bool(0.5)),
                Ty::Str => Value::from(self.pick(&["a", "b"])),
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

    /// SNIPPETS.md's `pattern_match_deterministic` and
    /// `expr_eval_deterministic` obligations, executable: on generated
    /// well-typed defs the compiled code returns what the tree-walker
    /// returns and panics with the message it panics with. Where the
    /// arguments have inline slots, the word code answers with the slot of
    /// that value or declines — always where the boxed call panics.
    #[test]
    fn compiled_code_agrees_with_the_reference_evaluator() {
        let mut seen = BTreeSet::new();
        let (mut returned, mut panicked) = (0, 0);
        let (mut answered, mut declined) = (0, 0);
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
            for (name, params, _) in gen.defs.clone() {
                for _ in 0..6 {
                    let args: Vec<Value> = params.iter().map(|t| gen.value(*t, 2)).collect();
                    let got = outcome(|| compiled.call(&name, &args));
                    let expected = outcome(|| reference::call(&checked, &name, &args));
                    assert_eq!(got, expected, "{name}({args:?}) in\n{source}");
                    let def = compiled.resolve(&name);
                    let slot = |value: &Value| compiled.names().slot(value);
                    let slots: Option<Vec<u64>> = args.iter().map(slot).collect();
                    if let (Some(_), Some(slots)) = (compiled.word_arity(def), slots) {
                        match (compiled.call_words(def, &slots), &got) {
                            (None, _) => declined += 1,
                            (Some(word), Ok(value)) => {
                                let at = format!("{name}({args:?}) = {value} in\n{source}");
                                assert_eq!(Some(word), slot(value), "{at}");
                                answered += 1;
                            }
                            (Some(word), Err(message)) => panic!(
                                "word code answered {word:#x} where {name}({args:?}) panics \
                                 with {message} in\n{source}"
                            ),
                        }
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
            answered > 1_000,
            "word code answered {answered} calls and declined {declined}"
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

    /// The number of boxed calls `program`'s solve makes, and the solution.
    fn boxed_calls_of(program: &flix_core::Program) -> (u64, flix_core::Solution) {
        let before = BOXED_CALLS.with(|calls| calls.get());
        let solution = flix_core::Solver::new().solve(program).expect("solves");
        (BOXED_CALLS.with(|calls| calls.get()) - before, solution)
    }

    /// On the shortest-paths program, every operand of the solve fits a
    /// slot, and the solve calls no boxed `leq`, `lub`, `glb` or `plus`.
    #[test]
    fn a_shortest_paths_solve_runs_on_words_only() {
        let nodes = 300;
        let program = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (boxed, solution) = boxed_calls_of(&program);
        assert_eq!(solution.len("Reach"), Some(nodes));
        assert!(solution.stats().facts_derived > 2 * nodes as u64);
        assert_eq!(boxed, 0, "the solve made {boxed} boxed calls");
        // The same program lowered without word code calls them boxed.
        let (boxed, _) = boxed_calls_of(&program.boxed_reference());
        assert!(boxed > 2 * nodes as u64);
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
        let (_, solution) = boxed_calls_of(&other);
        assert!(solution.len("Q").is_some_and(|n| n > 4));
        let nodes = 50;
        let program = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (boxed, solution) = boxed_calls_of(&program);
        assert_eq!(solution.len("Reach"), Some(nodes));
        assert_eq!(boxed, 0, "the solve made {boxed} boxed calls");
        let expected = crate::compile(&shortest_paths_source(nodes)).expect("compiles");
        let (_, expected) = boxed_calls_of(&expected.boxed_reference());
        assert_eq!(solution.model_lines(), expected.model_lines());
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
        // integers or wrapping at `i64::MAX`, decline; the boxed call
        // answers.
        let edge = (1 << 33) - 1;
        assert_eq!(fin(edge + 1), None);
        assert_eq!(words("plus", &[fin(edge).expect("inline"), int(1)]), None);
        let widest = (1 << 60) - 1;
        assert_eq!(words("add", &[int(widest), int(0)]), Some(int(widest)));
        assert_eq!(words("add", &[int(widest), int(1)]), None);
        assert_eq!(
            i.call("add", &[Value::Int(i64::MAX), Value::Int(1)]),
            Value::Int(i64::MIN)
        );
        // No arm matches: declined, and the boxed call panics.
        assert_eq!(words("only", &[inf]), None);
        let message = outcome(|| i.call("only", &[Value::tag0("Inf")]));
        assert!(
            message
                .as_ref()
                .is_err_and(|m| m.starts_with("non-exhaustive match at")),
            "{message:?}"
        );
        // Deep recursion declines before the boxed limit panics.
        assert_eq!(words("count", &[int(3)]), Some(int(3)));
        assert_eq!(words("count", &[int(MAX_CALL_DEPTH as i64)]), None);
        // A def that builds a tuple has no word code, nor its callers.
        for name in ["pair", "first"] {
            assert_eq!(i.word_arity(i.resolve(name)), None, "{name}");
        }
        assert_eq!(i.word_arity(i.resolve("plus")), Some(2));
    }
}
