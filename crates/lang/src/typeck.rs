//! Type checking and name resolution for the FLIX surface language.
//!
//! The checker resolves enum cases, function signatures, lattice bindings,
//! and predicate schemas; types every function body; and types every
//! constraint, resolving the parser's ambiguity between body atoms and
//! filter applications (both look like `name(args)`) by name kind.
//!
//! Constraints are checked in source order, so the first error is the
//! first in the source. A rule becomes a [`CheckedConstraint`]; a fact —
//! a bodyless constraint — is checked the same way and then evaluated,
//! once, into its tuple of engine values in [`CheckedProgram::facts`],
//! which [`crate::lower()`] moves into the engine program.
//! [`crate::compile_update`] types an update's facts by the same function,
//! against the checked program they update.

use crate::ast::*;
use crate::error::LangError;
use crate::lower::ground_value;
use crate::token::Pos;
use flix_core::Value;
use std::collections::HashMap;

/// A resolved semantic type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Type {
    /// 64-bit integers.
    Int,
    /// Strings.
    Str,
    /// Booleans.
    Bool,
    /// Unit.
    Unit,
    /// A declared enum type.
    Enum(String),
    /// A tuple.
    Tuple(Vec<Type>),
    /// A finite set.
    Set(Box<Type>),
    /// The empty type, inferred only for the empty set literal `Set()`;
    /// `Set(Never)` is compatible with every set type.
    Never,
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Int => f.write_str("Int"),
            Type::Str => f.write_str("Str"),
            Type::Bool => f.write_str("Bool"),
            Type::Unit => f.write_str("Unit"),
            Type::Enum(n) => f.write_str(n),
            Type::Tuple(items) => {
                f.write_str("(")?;
                for (i, t) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                f.write_str(")")
            }
            Type::Set(t) => write!(f, "Set({t})"),
            Type::Never => f.write_str("Never"),
        }
    }
}

/// Directed compatibility: `got` may flow where `want` is expected.
/// Identical types always flow; the empty set `Set(Never)` flows into any
/// set type.
fn compatible(got: &Type, want: &Type) -> bool {
    got == want || matches!((got, want), (Type::Set(g), Type::Set(_)) if **g == Type::Never)
}

/// The least common type of two branches, if any.
fn join_types(a: &Type, b: &Type) -> Option<Type> {
    if a == b {
        Some(a.clone())
    } else if compatible(a, b) {
        Some(b.clone())
    } else if compatible(b, a) {
        Some(a.clone())
    } else {
        None
    }
}

/// A resolved enum: case name to payload types.
#[derive(Clone, Debug)]
pub struct EnumInfo {
    /// Case name → payload types.
    pub cases: HashMap<String, Vec<Type>>,
}

/// A resolved function: signature plus body AST (interpreted at runtime).
#[derive(Clone, Debug)]
pub struct DefInfo {
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
    /// The body expression.
    pub body: Expr,
}

/// A resolved predicate schema.
#[derive(Clone, Debug)]
pub struct PredSig {
    /// Column types.
    pub attrs: Vec<Type>,
    /// `true` for `lat` predicates.
    pub is_lattice: bool,
    /// For `lat` predicates: the enum type of the value column.
    pub lattice_ty: Option<String>,
}

/// A type-checked body item (atoms and filters disambiguated).
#[derive(Clone, Debug)]
pub enum CheckedBodyItem {
    /// A positive atom.
    Atom(Atom),
    /// A negated atom.
    NegAtom(Atom),
    /// A filter application.
    Filter {
        /// The filter function name.
        func: String,
        /// The arguments.
        args: Vec<RuleTerm>,
    },
    /// A choice binding.
    Choose {
        /// Bound variable names.
        binds: Vec<String>,
        /// The set-returning function name.
        func: String,
        /// The arguments.
        args: Vec<RuleTerm>,
    },
}

/// A type-checked rule: a constraint with a body.
#[derive(Clone, Debug)]
pub struct CheckedConstraint {
    /// The head atom.
    pub head: Atom,
    /// The resolved body.
    pub body: Vec<CheckedBodyItem>,
}

/// A fully resolved and type-checked program, ready for lowering.
#[derive(Clone, Debug, Default)]
pub struct CheckedProgram {
    /// Enum table.
    pub enums: HashMap<String, EnumInfo>,
    /// Function table.
    pub defs: HashMap<String, DefInfo>,
    /// Lattice bindings by enum type name.
    pub lattices: HashMap<String, LatticeBind>,
    /// Predicate table.
    pub preds: HashMap<String, PredSig>,
    /// Predicate declaration order (for stable output).
    pub pred_order: Vec<String>,
    /// The rules, in source order.
    pub constraints: Vec<CheckedConstraint>,
    /// The facts, in source order: each one's predicate name and tuple.
    /// A lattice fact carries its element as the last value.
    pub facts: Vec<(String, Vec<Value>)>,
}

/// Type-checks a parsed program.
///
/// # Errors
///
/// Returns the first [`LangError`] found: unknown names, arity and type
/// mismatches, missing lattice bindings for `lat` columns, non-ground
/// facts, or misplaced function applications.
pub fn check(program: &SourceProgram) -> Result<CheckedProgram, LangError> {
    let mut cx = CheckedProgram::default();

    // Pass 1: collect enum names (so payloads may reference each other),
    // then their cases; collect def signatures; lattice binds; predicates.
    for decl in &program.decls {
        if let Decl::Enum(e) = decl {
            if cx.enums.contains_key(&e.name) {
                return Err(LangError::ty(e.pos, format!("duplicate enum {}", e.name)));
            }
            cx.enums.insert(
                e.name.clone(),
                EnumInfo {
                    cases: HashMap::new(),
                },
            );
        }
    }
    for decl in &program.decls {
        match decl {
            Decl::Enum(e) => {
                let mut cases = HashMap::new();
                for case in &e.cases {
                    let payload: Vec<Type> = case
                        .payload
                        .iter()
                        .map(|t| cx.resolve_type(t, case.pos))
                        .collect::<Result<_, _>>()?;
                    if cases.insert(case.name.clone(), payload).is_some() {
                        return Err(LangError::ty(
                            case.pos,
                            format!("duplicate case {} in enum {}", case.name, e.name),
                        ));
                    }
                }
                cx.enums.get_mut(&e.name).expect("inserted in pass 1").cases = cases;
            }
            Decl::Def(d) => {
                let params: Vec<(String, Type)> = d
                    .params
                    .iter()
                    .map(|p| Ok((p.name.clone(), cx.resolve_type(&p.ty, d.pos)?)))
                    .collect::<Result<_, LangError>>()?;
                let ret = cx.resolve_type(&d.ret, d.pos)?;
                if cx
                    .defs
                    .insert(
                        d.name.clone(),
                        DefInfo {
                            params,
                            ret,
                            body: d.body.clone(),
                        },
                    )
                    .is_some()
                {
                    return Err(LangError::ty(d.pos, format!("duplicate def {}", d.name)));
                }
            }
            Decl::Lattice(l) => {
                if !cx.enums.contains_key(&l.ty) {
                    return Err(LangError::ty(
                        l.pos,
                        format!("lattice binding for unknown type {}", l.ty),
                    ));
                }
                cx.lattices.insert(l.ty.clone(), l.clone());
            }
            Decl::Pred(p) => {
                let mut attrs = Vec::new();
                let mut lattice_ty = None;
                for (i, attr) in p.attributes.iter().enumerate() {
                    let ty = cx.resolve_type(&attr.ty, p.pos)?;
                    let last = i == p.attributes.len() - 1;
                    if attr.is_lattice || (p.is_lattice && last) {
                        if !(p.is_lattice && last) {
                            return Err(LangError::ty(
                                p.pos,
                                format!(
                                    "lattice column in non-final position of predicate {}",
                                    p.name
                                ),
                            ));
                        }
                        let Type::Enum(name) = &ty else {
                            return Err(LangError::ty(
                                p.pos,
                                format!(
                                    "the value column of lat {} must be an enum type with a \
                                     lattice binding",
                                    p.name
                                ),
                            ));
                        };
                        lattice_ty = Some(name.clone());
                    }
                    attrs.push(ty);
                }
                if p.is_lattice && lattice_ty.is_none() {
                    return Err(LangError::ty(
                        p.pos,
                        format!("lat {} has no lattice value column", p.name),
                    ));
                }
                if cx
                    .preds
                    .insert(
                        p.name.clone(),
                        PredSig {
                            attrs,
                            is_lattice: p.is_lattice,
                            lattice_ty,
                        },
                    )
                    .is_some()
                {
                    return Err(LangError::ty(
                        p.pos,
                        format!("duplicate predicate {}", p.name),
                    ));
                }
                cx.pred_order.push(p.name.clone());
            }
            Decl::Constraint(_) => {}
        }
    }

    // Pass 2: check def bodies.
    let defs_snapshot: Vec<(String, DefInfo)> = cx
        .defs
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (name, info) in &defs_snapshot {
        let mut env: HashMap<String, Type> = info.params.iter().cloned().collect();
        let actual = cx.infer_expr(&info.body, &mut env)?;
        if !compatible(&actual, &info.ret) {
            return Err(LangError::ty(
                info.body.pos(),
                format!(
                    "function {name} declares return type {} but its body has type {actual}",
                    info.ret
                ),
            ));
        }
    }

    // Pass 3: check lattice bindings.
    let lattices: Vec<LatticeBind> = cx.lattices.values().cloned().collect();
    for l in &lattices {
        let elem = Type::Enum(l.ty.clone());
        let mut env = HashMap::new();
        for (what, e) in [("bottom", &l.bot), ("top", &l.top)] {
            let t = cx.infer_expr(e, &mut env)?;
            if t != elem {
                return Err(LangError::ty(
                    e.pos(),
                    format!(
                        "the {what} element of {}<> has type {t}, expected {elem}",
                        l.ty
                    ),
                ));
            }
        }
        for (what, fname, ret) in [
            ("leq", &l.leq, Type::Bool),
            ("lub", &l.lub, elem.clone()),
            ("glb", &l.glb, elem.clone()),
        ] {
            let Some(def) = cx.defs.get(fname) else {
                return Err(LangError::ty(
                    l.pos,
                    format!("unknown {what} function {fname} in {}<> binding", l.ty),
                ));
            };
            let want: Vec<Type> = vec![elem.clone(), elem.clone()];
            let have: Vec<Type> = def.params.iter().map(|(_, t)| t.clone()).collect();
            if have != want || def.ret != ret {
                return Err(LangError::ty(
                    l.pos,
                    format!("{what} function {fname} must have type ({elem}, {elem}) -> {ret}"),
                ));
            }
        }
    }

    // Pass 4: check constraints; evaluate each fact into its tuple.
    for decl in &program.decls {
        let Decl::Constraint(c) = decl else { continue };
        if c.body.is_empty() {
            let tuple = cx.check_fact(&c.head)?;
            cx.facts.push((c.head.pred.clone(), tuple));
        } else {
            let checked = cx.check_constraint(c)?;
            cx.constraints.push(checked);
        }
    }

    Ok(cx)
}

impl CheckedProgram {
    fn resolve_type(&self, t: &TypeExpr, pos: Pos) -> Result<Type, LangError> {
        Ok(match t {
            TypeExpr::Int => Type::Int,
            TypeExpr::Str => Type::Str,
            TypeExpr::Bool => Type::Bool,
            TypeExpr::Unit => Type::Unit,
            TypeExpr::Named(name) if name == "Set" => {
                return Err(LangError::ty(pos, "Set requires an element type: Set(T)"))
            }
            TypeExpr::Named(name) => {
                if !self.enums.contains_key(name) {
                    return Err(LangError::ty(pos, format!("unknown type {name}")));
                }
                Type::Enum(name.clone())
            }
            TypeExpr::Tuple(items) => Type::Tuple(
                items
                    .iter()
                    .map(|t| self.resolve_type(t, pos))
                    .collect::<Result<_, _>>()?,
            ),
            TypeExpr::Set(elem) => Type::Set(Box::new(self.resolve_type(elem, pos)?)),
        })
    }

    fn infer_expr(&self, expr: &Expr, env: &mut HashMap<String, Type>) -> Result<Type, LangError> {
        match expr {
            Expr::Lit(l, _) => Ok(lit_type(l)),
            Expr::Var(name, pos) => env
                .get(name)
                .cloned()
                .ok_or_else(|| LangError::ty(*pos, format!("unknown variable {name}"))),
            Expr::Ctor {
                enum_name,
                case,
                args,
                pos,
            } => {
                if enum_name == "Set" {
                    return Err(LangError::ty(*pos, "Set is not an enum type"));
                }
                let payload = self.case_payload(enum_name, case, *pos)?;
                if payload.len() != args.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "case {enum_name}.{case} takes {} arguments, found {}",
                            payload.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, want) in args.iter().zip(payload) {
                    let got = self.infer_expr(arg, env)?;
                    if !compatible(&got, want) {
                        return Err(LangError::ty(
                            arg.pos(),
                            format!("expected {want}, found {got}"),
                        ));
                    }
                }
                Ok(Type::Enum(enum_name.clone()))
            }
            Expr::Call { func, args, pos } => {
                let def = self
                    .defs
                    .get(func)
                    .ok_or_else(|| LangError::ty(*pos, format!("unknown function {func}")))?;
                if def.params.len() != args.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "function {func} takes {} arguments, found {}",
                            def.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, (pname, want)) in args.iter().zip(&def.params) {
                    let got = self.infer_expr(arg, env)?;
                    if !compatible(&got, want) {
                        return Err(LangError::ty(
                            arg.pos(),
                            format!("argument {pname} of {func}: expected {want}, found {got}"),
                        ));
                    }
                }
                Ok(def.ret.clone())
            }
            Expr::Tuple(items, _) => Ok(Type::Tuple(
                items
                    .iter()
                    .map(|e| self.infer_expr(e, env))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::SetLit(items, pos) => {
                let mut elem = Type::Never;
                for e in items {
                    let t = self.infer_expr(e, env)?;
                    elem = join_types(&elem, &t)
                        .or_else(|| {
                            if elem == Type::Never {
                                Some(t.clone())
                            } else {
                                None
                            }
                        })
                        .ok_or_else(|| {
                            LangError::ty(
                                *pos,
                                "set literal elements have inconsistent types".to_string(),
                            )
                        })?;
                }
                Ok(Type::Set(Box::new(elem)))
            }
            Expr::Unary { op, expr, pos } => {
                let t = self.infer_expr(expr, env)?;
                match op {
                    UnOp::Not if t == Type::Bool => Ok(Type::Bool),
                    UnOp::Neg if t == Type::Int => Ok(Type::Int),
                    _ => Err(LangError::ty(
                        *pos,
                        format!("operator {op:?} cannot be applied to {t}"),
                    )),
                }
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let lt = self.infer_expr(lhs, env)?;
                let rt = self.infer_expr(rhs, env)?;
                use BinOp::*;
                match op {
                    Add | Sub | Mul | Div | Rem => {
                        if lt == Type::Int && rt == Type::Int {
                            Ok(Type::Int)
                        } else {
                            Err(LangError::ty(
                                *pos,
                                format!("arithmetic requires Int operands, found {lt} and {rt}"),
                            ))
                        }
                    }
                    Lt | Le | Gt | Ge => {
                        if lt == Type::Int && rt == Type::Int {
                            Ok(Type::Bool)
                        } else {
                            Err(LangError::ty(
                                *pos,
                                format!("comparison requires Int operands, found {lt} and {rt}"),
                            ))
                        }
                    }
                    Eq | Ne => {
                        if lt == rt {
                            Ok(Type::Bool)
                        } else {
                            Err(LangError::ty(
                                *pos,
                                format!("cannot compare {lt} with {rt}"),
                            ))
                        }
                    }
                    And | Or => {
                        if lt == Type::Bool && rt == Type::Bool {
                            Ok(Type::Bool)
                        } else {
                            Err(LangError::ty(
                                *pos,
                                format!(
                                    "logical operator requires Bool operands, found {lt} and {rt}"
                                ),
                            ))
                        }
                    }
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
                pos,
            } => {
                let ct = self.infer_expr(cond, env)?;
                if ct != Type::Bool {
                    return Err(LangError::ty(
                        *pos,
                        format!("if condition must be Bool, found {ct}"),
                    ));
                }
                let tt = self.infer_expr(then, env)?;
                let et = self.infer_expr(otherwise, env)?;
                join_types(&tt, &et).ok_or_else(|| {
                    LangError::ty(
                        *pos,
                        format!("if branches have different types: {tt} vs {et}"),
                    )
                })
            }
            Expr::Let {
                name, bound, body, ..
            } => {
                let bt = self.infer_expr(bound, env)?;
                let saved = env.insert(name.clone(), bt);
                let result = self.infer_expr(body, env);
                match saved {
                    Some(prev) => {
                        env.insert(name.clone(), prev);
                    }
                    None => {
                        env.remove(name);
                    }
                }
                result
            }
            Expr::Match {
                scrutinee,
                arms,
                pos,
            } => {
                let st = self.infer_expr(scrutinee, env)?;
                if arms.is_empty() {
                    return Err(LangError::ty(*pos, "match with no arms"));
                }
                let mut result: Option<Type> = None;
                for arm in arms {
                    let mut arm_env = env.clone();
                    self.check_pattern(&arm.pat, &st, &mut arm_env)?;
                    let bt = self.infer_expr(&arm.body, &mut arm_env)?;
                    match &result {
                        None => result = Some(bt),
                        Some(prev) => match join_types(prev, &bt) {
                            Some(joined) => result = Some(joined),
                            None => {
                                return Err(LangError::ty(
                                    arm.body.pos(),
                                    format!("match arms have different types: {prev} vs {bt}"),
                                ))
                            }
                        },
                    }
                }
                Ok(result.expect("at least one arm"))
            }
        }
    }

    fn case_payload(&self, enum_name: &str, case: &str, pos: Pos) -> Result<&[Type], LangError> {
        let info = self
            .enums
            .get(enum_name)
            .ok_or_else(|| LangError::ty(pos, format!("unknown enum {enum_name}")))?;
        info.cases
            .get(case)
            .map(|v| v.as_slice())
            .ok_or_else(|| LangError::ty(pos, format!("enum {enum_name} has no case {case}")))
    }

    fn check_pattern(
        &self,
        pat: &Pattern,
        expected: &Type,
        env: &mut HashMap<String, Type>,
    ) -> Result<(), LangError> {
        match pat {
            Pattern::Wildcard(_) => Ok(()),
            Pattern::Var(name, _) => {
                env.insert(name.clone(), expected.clone());
                Ok(())
            }
            Pattern::Lit(l, pos) => {
                let t = lit_type(l);
                if &t == expected {
                    Ok(())
                } else {
                    Err(LangError::ty(
                        *pos,
                        format!("literal pattern has type {t}, expected {expected}"),
                    ))
                }
            }
            Pattern::Ctor {
                enum_name,
                case,
                args,
                pos,
            } => {
                if expected != &Type::Enum(enum_name.clone()) {
                    return Err(LangError::ty(
                        *pos,
                        format!("pattern {enum_name}.{case} cannot match a {expected}"),
                    ));
                }
                let payload = self.case_payload(enum_name, case, *pos)?;
                if payload.len() != args.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "case {enum_name}.{case} has {} payload fields, pattern binds {}",
                            payload.len(),
                            args.len()
                        ),
                    ));
                }
                for (p, t) in args.iter().zip(payload) {
                    self.check_pattern(p, t, env)?;
                }
                Ok(())
            }
            Pattern::Tuple(items, pos) => {
                let Type::Tuple(types) = expected else {
                    return Err(LangError::ty(
                        *pos,
                        format!("tuple pattern cannot match a {expected}"),
                    ));
                };
                if items.len() != types.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "tuple pattern has {} elements, expected {}",
                            items.len(),
                            types.len()
                        ),
                    ));
                }
                for (p, t) in items.iter().zip(types) {
                    self.check_pattern(p, t, env)?;
                }
                Ok(())
            }
        }
    }

    // ---- constraints -------------------------------------------------------

    fn check_constraint(&self, c: &Constraint) -> Result<CheckedConstraint, LangError> {
        let mut vars: HashMap<String, Type> = HashMap::new();
        let mut body = Vec::new();
        for item in &c.body {
            match item {
                BodyItem::Atom(atom) => {
                    if let Some(sig) = self.preds.get(&atom.pred) {
                        self.check_atom(atom, sig, &mut vars, false)?;
                        body.push(CheckedBodyItem::Atom(atom.clone()));
                    } else if let Some(def) = self.defs.get(&atom.pred) {
                        // A filter application.
                        if def.ret != Type::Bool {
                            return Err(LangError::ty(
                                atom.pos,
                                format!(
                                    "filter function {} must return Bool, returns {}",
                                    atom.pred, def.ret
                                ),
                            ));
                        }
                        self.check_call_terms(&atom.pred, &atom.terms, &mut vars, atom.pos)?;
                        body.push(CheckedBodyItem::Filter {
                            func: atom.pred.clone(),
                            args: atom.terms.clone(),
                        });
                    } else {
                        return Err(LangError::ty(
                            atom.pos,
                            format!("unknown predicate or function {}", atom.pred),
                        ));
                    }
                }
                BodyItem::NegAtom(atom) => {
                    let Some(sig) = self.preds.get(&atom.pred) else {
                        return Err(LangError::ty(
                            atom.pos,
                            format!("unknown predicate {}", atom.pred),
                        ));
                    };
                    self.check_atom(atom, sig, &mut vars, false)?;
                    body.push(CheckedBodyItem::NegAtom(atom.clone()));
                }
                BodyItem::Choose {
                    binds,
                    func,
                    args,
                    pos,
                } => {
                    let def = self
                        .defs
                        .get(func)
                        .ok_or_else(|| LangError::ty(*pos, format!("unknown function {func}")))?;
                    let Type::Set(elem) = &def.ret else {
                        return Err(LangError::ty(
                            *pos,
                            format!(
                                "choice function {func} must return Set(T), returns {}",
                                def.ret
                            ),
                        ));
                    };
                    self.check_call_terms(func, args, &mut vars, *pos)?;
                    let bind_types: Vec<Type> = if binds.len() == 1 {
                        vec![(**elem).clone()]
                    } else {
                        let Type::Tuple(items) = &**elem else {
                            return Err(LangError::ty(
                                *pos,
                                format!(
                                    "choice destructures {} variables but {func} yields \
                                     elements of type {elem}",
                                    binds.len()
                                ),
                            ));
                        };
                        if items.len() != binds.len() {
                            return Err(LangError::ty(
                                *pos,
                                format!(
                                    "choice destructures {} variables but elements are \
                                     {}-tuples",
                                    binds.len(),
                                    items.len()
                                ),
                            ));
                        }
                        items.clone()
                    };
                    for (name, t) in binds.iter().zip(bind_types) {
                        bind_var(&mut vars, name, t, *pos)?;
                    }
                    body.push(CheckedBodyItem::Choose {
                        binds: binds.clone(),
                        func: func.clone(),
                        args: args.clone(),
                    });
                }
            }
        }

        self.check_head(&c.head, &mut vars)?;
        Ok(CheckedConstraint {
            head: c.head.clone(),
            body,
        })
    }

    /// Checks a fact as a bodyless rule against this program's
    /// declarations, then evaluates its ground terms. The program's own
    /// facts and an update's are typed by this one function.
    pub(crate) fn check_fact(&self, head: &Atom) -> Result<Vec<Value>, LangError> {
        self.check_head(head, &mut HashMap::new())?;
        if let Some(t) = head.terms.iter().find(|t| !is_ground(t)) {
            return Err(LangError::ty(
                t.pos(),
                "facts must be ground (no variables, wildcards, or function applications)",
            ));
        }
        Ok(head.terms.iter().map(ground_value).collect())
    }

    fn check_head(&self, head: &Atom, vars: &mut HashMap<String, Type>) -> Result<(), LangError> {
        let Some(sig) = self.preds.get(&head.pred) else {
            return Err(LangError::ty(
                head.pos,
                format!("unknown predicate {}", head.pred),
            ));
        };
        self.check_atom(head, sig, vars, true)
    }

    /// Checks an atom's terms against its predicate's schema `sig`.
    fn check_atom(
        &self,
        atom: &Atom,
        sig: &PredSig,
        vars: &mut HashMap<String, Type>,
        is_head: bool,
    ) -> Result<(), LangError> {
        if sig.attrs.len() != atom.terms.len() {
            return Err(LangError::ty(
                atom.pos,
                format!(
                    "predicate {} has arity {}, used with {} terms",
                    atom.pred,
                    sig.attrs.len(),
                    atom.terms.len()
                ),
            ));
        }
        let last = atom.terms.len().saturating_sub(1);
        for (i, (term, want)) in atom.terms.iter().zip(&sig.attrs).enumerate() {
            if let RuleTerm::App { .. } = term {
                if !is_head || i != last {
                    return Err(LangError::ty(
                        term.pos(),
                        "function applications may only appear as the last term of a rule \
                         head (§3.3 of the paper)",
                    ));
                }
            }
            if is_head {
                if let RuleTerm::Wildcard(pos) = term {
                    return Err(LangError::ty(
                        *pos,
                        "wildcards cannot appear in a rule head",
                    ));
                }
            }
            self.check_term(term, want, vars)?;
        }
        Ok(())
    }

    /// Checks filter/choice arguments against the function signature.
    fn check_call_terms(
        &self,
        func: &str,
        args: &[RuleTerm],
        vars: &mut HashMap<String, Type>,
        pos: Pos,
    ) -> Result<(), LangError> {
        let def = self.defs.get(func).expect("caller checked");
        if def.params.len() != args.len() {
            return Err(LangError::ty(
                pos,
                format!(
                    "function {func} takes {} arguments, found {}",
                    def.params.len(),
                    args.len()
                ),
            ));
        }
        for (term, (_, want)) in args.iter().zip(&def.params) {
            if let RuleTerm::App { pos, .. } = term {
                return Err(LangError::ty(
                    *pos,
                    "nested function applications are not allowed in rule bodies",
                ));
            }
            self.check_term(term, want, vars)?;
        }
        Ok(())
    }

    fn check_term(
        &self,
        term: &RuleTerm,
        expected: &Type,
        vars: &mut HashMap<String, Type>,
    ) -> Result<(), LangError> {
        match term {
            RuleTerm::Wildcard(_) => Ok(()),
            RuleTerm::Var(name, pos) => bind_var(vars, name, expected.clone(), *pos),
            RuleTerm::Lit(l, pos) => {
                let t = lit_type(l);
                if &t == expected {
                    Ok(())
                } else {
                    Err(LangError::ty(
                        *pos,
                        format!("term has type {t}, expected {expected}"),
                    ))
                }
            }
            RuleTerm::Ctor {
                enum_name,
                case,
                args,
                pos,
            } => {
                if expected != &Type::Enum(enum_name.clone()) {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "term {enum_name}.{case} has type {enum_name}, expected {expected}"
                        ),
                    ));
                }
                let payload = self.case_payload(enum_name, case, *pos)?;
                if payload.len() != args.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "case {enum_name}.{case} takes {} arguments, found {}",
                            payload.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, want) in args.iter().zip(payload) {
                    self.check_term(arg, want, vars)?;
                }
                Ok(())
            }
            RuleTerm::App { func, args, pos } => {
                let def = self
                    .defs
                    .get(func)
                    .ok_or_else(|| LangError::ty(*pos, format!("unknown function {func}")))?;
                if &def.ret != expected {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "head function {func} returns {}, the column expects {expected}",
                            def.ret
                        ),
                    ));
                }
                let params: Vec<Type> = def.params.iter().map(|(_, t)| t.clone()).collect();
                if params.len() != args.len() {
                    return Err(LangError::ty(
                        *pos,
                        format!(
                            "function {func} takes {} arguments, found {}",
                            params.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, want) in args.iter().zip(&params) {
                    if matches!(arg, RuleTerm::App { .. } | RuleTerm::Wildcard(_)) {
                        return Err(LangError::ty(
                            arg.pos(),
                            "arguments of a head function application must be variables or \
                             ground terms",
                        ));
                    }
                    self.check_term(arg, want, vars)?;
                }
                Ok(())
            }
        }
    }
}

fn bind_var(
    vars: &mut HashMap<String, Type>,
    name: &str,
    ty: Type,
    pos: Pos,
) -> Result<(), LangError> {
    match vars.get(name) {
        None => {
            vars.insert(name.to_string(), ty);
            Ok(())
        }
        Some(prev) if *prev == ty => Ok(()),
        Some(prev) => Err(LangError::ty(
            pos,
            format!("variable {name} used at type {ty} but previously at {prev}"),
        )),
    }
}

fn lit_type(l: &Lit) -> Type {
    match l {
        Lit::Unit => Type::Unit,
        Lit::Bool(_) => Type::Bool,
        Lit::Int(_) => Type::Int,
        Lit::Str(_) => Type::Str,
    }
}

fn is_ground(t: &RuleTerm) -> bool {
    match t {
        RuleTerm::Lit(_, _) => true,
        RuleTerm::Ctor { args, .. } => args.iter().all(is_ground),
        RuleTerm::Var(_, _) | RuleTerm::Wildcard(_) | RuleTerm::App { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<CheckedProgram, LangError> {
        check(&parse(src).expect("parses"))
    }

    const PARITY_PRELUDE: &str = r#"
        enum Parity { case Top, case Even, case Odd, case Bot }
        def leq(e1: Parity, e2: Parity): Bool = match (e1, e2) with {
          case (Parity.Bot, _) => true
          case (Parity.Even, Parity.Even) => true
          case (Parity.Odd, Parity.Odd) => true
          case (_, Parity.Top) => true
          case _ => false
        }
        def lub(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
          case (Parity.Bot, x) => x
          case (x, Parity.Bot) => x
          case (Parity.Even, Parity.Even) => Parity.Even
          case (Parity.Odd, Parity.Odd) => Parity.Odd
          case _ => Parity.Top
        }
        def glb(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
          case (Parity.Top, x) => x
          case (x, Parity.Top) => x
          case (Parity.Even, Parity.Even) => Parity.Even
          case (Parity.Odd, Parity.Odd) => Parity.Odd
          case _ => Parity.Bot
        }
        let Parity<> = (Parity.Bot, Parity.Top, leq, lub, glb);
    "#;

    #[test]
    fn parity_prelude_checks() {
        let src = format!("{PARITY_PRELUDE} lat IntVar(v: Str, Parity<>);");
        let checked = check_src(&src).expect("checks");
        assert!(checked.preds["IntVar"].is_lattice);
        assert_eq!(
            checked.preds["IntVar"].lattice_ty.as_deref(),
            Some("Parity")
        );
    }

    #[test]
    fn filter_resolution_distinguishes_predicates_from_functions() {
        let src = format!(
            "{PARITY_PRELUDE}
             def isMaybeZero(e: Parity): Bool = match e with {{
               case Parity.Even => true case Parity.Top => true case _ => false
             }}
             rel Err(v: Str);
             lat IntVar(v: Str, Parity<>);
             Err(v) :- IntVar(v, i), isMaybeZero(i)."
        );
        let checked = check_src(&src).expect("checks");
        let c = &checked.constraints[0];
        assert!(matches!(&c.body[0], CheckedBodyItem::Atom(_)));
        assert!(
            matches!(&c.body[1], CheckedBodyItem::Filter { func, .. } if func == "isMaybeZero")
        );
    }

    #[test]
    fn wrong_return_type_is_rejected() {
        let err = check_src("def f(x: Int): Bool = x + 1").expect_err("rejects");
        assert!(err.to_string().contains("return type"));
    }

    #[test]
    fn arity_mismatch_in_atom_is_rejected() {
        let err = check_src("rel A(x: Int, y: Int); A(1).").expect_err("rejects");
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn inconsistent_variable_types_are_rejected() {
        let err = check_src(
            "rel A(x: Int); rel B(x: Str); rel C(x: Int);
             C(v) :- A(v), B(v).",
        )
        .expect_err("rejects");
        assert!(err.to_string().contains("previously"));
    }

    #[test]
    fn non_ground_fact_is_rejected() {
        let err = check_src("rel A(x: Int); A(x).").expect_err("rejects");
        assert!(err.to_string().contains("ground"));
    }

    #[test]
    fn app_outside_head_last_is_rejected() {
        let src = format!(
            "{PARITY_PRELUDE}
             lat A(v: Str, Parity<>);
             rel E(v: Str, w: Str);
             A(sum(i, i), v) :- E(v, w), A(w, i)."
        );
        // `sum` is not even defined, but the positional check fires first.
        let err = check_src(&src).expect_err("rejects");
        assert!(err.to_string().contains("last term"));
    }

    #[test]
    fn filter_must_return_bool() {
        let src = format!(
            "{PARITY_PRELUDE}
             rel Err(v: Str);
             lat IntVar(v: Str, Parity<>);
             Err(v) :- IntVar(v, i), lub(i, i)."
        );
        let err = check_src(&src).expect_err("rejects");
        assert!(err.to_string().contains("must return Bool"));
    }

    #[test]
    fn lattice_binding_signature_is_enforced() {
        let src = r#"
            enum P { case A, case B }
            def leq(x: P): Bool = true
            def lub(x: P, y: P): P = x
            def glb(x: P, y: P): P = x
            let P<> = (P.A, P.B, leq, lub, glb);
        "#;
        let err = check_src(src).expect_err("rejects unary leq");
        assert!(err.to_string().contains("leq"));
    }

    #[test]
    fn match_arm_type_mismatch_is_rejected() {
        let err = check_src("def f(x: Int): Int = match x with { case 0 => 1 case _ => \"no\" }")
            .expect_err("rejects");
        assert!(err.to_string().contains("different types"));
    }
}
