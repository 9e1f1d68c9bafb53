//! Recursive-descent parser for the FLIX surface language.
//!
//! The grammar follows the concrete syntax of the paper's figures:
//! Figure 2 (enums, defs, lattice bindings, `rel`/`lat` declarations,
//! rules with transfer and filter functions), Figure 4 (match-based filter
//! functions), and Figures 5–6 (`<-` choice bindings).
//!
//! The parser pulls tokens from the [`Lexer`] as it goes, holding only
//! the current token and the one after it, and moves each token's string
//! into the AST rather than copying it. Errors rank as if the whole
//! source were lexed first: after a failed parse the rest of the source
//! is lexed, and a lexical error anywhere wins over the parse error.
//!
//! `-9223372036854775808` is `i64::MIN`: where the parser folds a `-`
//! into an integer literal (rule terms and patterns) it accepts that
//! magnitude, which is out of range anywhere else. The lexer yields the
//! magnitude as `Int(i64::MIN)`; one that does not follow a `-` is a
//! lexical error as it is pulled, and one after an operator `-` is one
//! when the expression reaches it. A `-` and the magnitude past a parse
//! error are not reported, as the parser might have folded them.
//!
//! Nesting is bounded. Every pass over the tree — this parser, the
//! checker, the interpreter's compiler, `Drop` — recurses on it, so the
//! parser counts the levels it opens and fails, at the token where a
//! level opens past the bound, with a positioned error: an expression,
//! pattern or type past [`MAX_NESTING`], a rule or fact term past
//! [`MAX_VALUE_DEPTH`], the depth a value may have. A node's children
//! are one level below it, and so is what a parenthesis holds; a link of
//! a left chain such as `x + 1 + 1` puts the chain before it one level
//! deeper, and counts as that level.

use crate::ast::*;
use crate::error::{LangError, Phase};
use crate::lexer::{min_magnitude_out_of_range, Lexer};
use crate::token::{Pos, Tok, Token};
use flix_core::MAX_VALUE_DEPTH;

/// The deepest an expression, a pattern or a type may nest. A source
/// nesting past it is refused; one at it is compiled on the 8 MiB stack
/// of a main thread, with room to spare in a release build.
pub(crate) const MAX_NESTING: usize = 256;

/// Parses FLIX source text into a [`SourceProgram`].
///
/// # Errors
///
/// Returns the first lexical or syntactic [`LangError`].
pub fn parse(src: &str) -> Result<SourceProgram, LangError> {
    let mut parser = Parser::new(src);
    let parsed = parser.program();
    parser.finish(parsed)
}

/// Parses the text of an update or a query: facts only, each
/// `[-|retract] Atom .` (the last `.` may be left out), returned with
/// whether each is retracted. A declaration, `def` or rule is refused at
/// its first token, so the expression grammar is never entered.
///
/// # Errors
///
/// Returns the first lexical or syntactic [`LangError`].
pub(crate) fn parse_facts(src: &str) -> Result<Vec<(bool, Atom)>, LangError> {
    let mut parser = Parser::new(src);
    let parsed = parser.facts();
    parser.finish(parsed)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token; `next` is the one after it.
    cur: Token,
    next: Token,
    /// The lexer's error, after which it yields only `Eof`.
    lex_error: Option<LangError>,
    /// Whether the token pulled last is a `-`.
    after_minus: bool,
    /// The levels open above the node being parsed.
    depth: usize,
    /// The deepest level opened since a left chain last reset it.
    peak: usize,
}

impl Parser<'_> {
    fn new(src: &str) -> Parser<'_> {
        let eof = || Token {
            tok: Tok::Eof,
            pos: Pos::default(),
        };
        let mut parser = Parser {
            lexer: Lexer::new(src),
            cur: eof(),
            next: eof(),
            lex_error: None,
            after_minus: false,
            depth: 0,
            peak: 0,
        };
        parser.cur = parser.pull();
        parser.next = parser.pull();
        parser
    }

    /// The next token from the lexer; `Eof` at and after a lexical error.
    fn pull(&mut self) -> Token {
        if let Some(e) = &self.lex_error {
            return Token {
                tok: Tok::Eof,
                pos: e.pos,
            };
        }
        let pulled = match self.lexer.token() {
            // Only a `-` can be folded into the magnitude of `i64::MIN`.
            Ok(token) if token.tok == Tok::Int(i64::MIN) && !self.after_minus => {
                Err(min_magnitude_out_of_range(token.pos))
            }
            pulled => pulled,
        };
        pulled
            .inspect(|token| self.after_minus = token.tok == Tok::Minus)
            .unwrap_or_else(|e| {
                let pos = e.pos;
                self.lex_error = Some(e);
                Token { tok: Tok::Eof, pos }
            })
    }

    /// The outcome of a parse whose result is `parsed`, ranking errors as
    /// if the whole source had been lexed before parsing began.
    fn finish<T>(mut self, parsed: Result<T, LangError>) -> Result<T, LangError> {
        match &parsed {
            // Raised at a token the parser reached, so before any error
            // the lexer has met.
            Err(e) if e.phase == Phase::Lex => return parsed,
            Err(_) => {
                while self.lex_error.is_none() && !matches!(self.next.tok, Tok::Eof) {
                    self.next = self.pull();
                }
            }
            Ok(_) => {}
        }
        match self.lex_error {
            Some(e) => Err(e),
            None => parsed,
        }
    }

    /// Parses one level down, failing at the current token when that
    /// level is past `limit`.
    fn nested<T>(
        &mut self,
        limit: usize,
        parse: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.depth == limit {
            return Err(self.too_deep(limit));
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn too_deep(&self, limit: usize) -> LangError {
        LangError::parse(self.pos(), format!("nested deeper than {limit} levels"))
    }

    /// The comma-separated items of a list whose `(` is eaten, through its
    /// `)`: each item one level down, as [`Parser::nested`] parses it.
    fn list<T>(
        &mut self,
        limit: usize,
        item: fn(&mut Self) -> Result<T, LangError>,
    ) -> Result<Vec<T>, LangError> {
        let mut items = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                items.push(self.nested(limit, item)?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(items)
    }

    fn peek(&self) -> &Tok {
        &self.cur.tok
    }

    fn peek2(&self) -> &Tok {
        &self.next.tok
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    /// Consumes the current token and returns it; at the end of the input,
    /// `Eof` on every call.
    fn bump(&mut self) -> Tok {
        if matches!(self.cur.tok, Tok::Eof) {
            return Tok::Eof;
        }
        let after = self.pull();
        let next = std::mem::replace(&mut self.next, after);
        std::mem::replace(&mut self.cur, next).tok
    }

    /// Consumes the current token, which the caller matched as one that
    /// carries a string, and returns the string.
    fn take_string(&mut self) -> String {
        match self.bump() {
            Tok::Str(s) | Tok::LowerIdent(s) | Tok::UpperIdent(s) => s,
            other => unreachable!("the caller matched a string token, found `{other}`"),
        }
    }

    /// Consumes the integer after a `-` that the caller consumed, as the
    /// negated literal.
    fn negated_int(&mut self, pos: Pos) -> Result<i64, LangError> {
        match self.bump() {
            // `Int(i64::MIN)` stands for its magnitude, which negates to it.
            Tok::Int(n) => Ok(n.wrapping_neg()),
            other => Err(LangError::parse(
                pos,
                format!("expected an integer after `-`, found `{other}`"),
            )),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), LangError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(LangError::parse(
                self.pos(),
                format!("expected `{tok}`, found `{}`", self.peek()),
            ))
        }
    }

    fn lower_ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek() {
            Tok::LowerIdent(_) => Ok(self.take_string()),
            other => Err(LangError::parse(
                self.pos(),
                format!("expected {what}, found `{other}`"),
            )),
        }
    }

    fn upper_ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek() {
            Tok::UpperIdent(_) => Ok(self.take_string()),
            other => Err(LangError::parse(
                self.pos(),
                format!("expected {what}, found `{other}`"),
            )),
        }
    }

    fn program(&mut self) -> Result<SourceProgram, LangError> {
        let mut decls = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => return Ok(SourceProgram { decls }),
                Tok::Enum => decls.push(Decl::Enum(self.enum_def()?)),
                Tok::Def => decls.push(Decl::Def(self.def_def()?)),
                Tok::Let => decls.push(Decl::Lattice(self.lattice_bind()?)),
                Tok::Rel => decls.push(Decl::Pred(self.pred_decl(false)?)),
                Tok::Lat => decls.push(Decl::Pred(self.pred_decl(true)?)),
                Tok::UpperIdent(_) => decls.push(Decl::Constraint(self.constraint()?)),
                Tok::Semi => {
                    self.bump();
                }
                other => {
                    return Err(LangError::parse(
                        self.pos(),
                        format!("expected a declaration, found `{other}`"),
                    ))
                }
            }
        }
    }

    fn enum_def(&mut self) -> Result<EnumDef, LangError> {
        let pos = self.pos();
        self.expect(&Tok::Enum)?;
        let name = self.upper_ident("an enum name")?;
        self.expect(&Tok::LBrace)?;
        let mut cases = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let case_pos = self.pos();
            self.expect(&Tok::Case)?;
            let case_name = self.upper_ident("a case name")?;
            let mut payload = Vec::new();
            if self.eat(&Tok::LParen) {
                loop {
                    payload.push(self.type_expr()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            cases.push(EnumCase {
                name: case_name,
                payload,
                pos: case_pos,
            });
            // Commas between cases are optional (the paper uses both
            // styles within one figure).
            self.eat(&Tok::Comma);
        }
        Ok(EnumDef { name, cases, pos })
    }

    fn def_def(&mut self) -> Result<DefDef, LangError> {
        let pos = self.pos();
        self.expect(&Tok::Def)?;
        let name = self.lower_ident("a function name")?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let pname = self.lower_ident("a parameter name")?;
                self.expect(&Tok::Colon)?;
                let ty = self.type_expr()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Colon)?;
        let ret = self.type_expr()?;
        self.expect(&Tok::Eq)?;
        let body = self.expr()?;
        self.eat(&Tok::Semi);
        Ok(DefDef {
            name,
            params,
            ret,
            body,
            pos,
        })
    }

    fn lattice_bind(&mut self) -> Result<LatticeBind, LangError> {
        let pos = self.pos();
        self.expect(&Tok::Let)?;
        let ty = self.upper_ident("a lattice type name")?;
        self.expect(&Tok::Diamond)?;
        self.expect(&Tok::Eq)?;
        self.expect(&Tok::LParen)?;
        let bot = self.expr()?;
        self.expect(&Tok::Comma)?;
        let top = self.expr()?;
        self.expect(&Tok::Comma)?;
        let leq = self.lower_ident("the leq function name")?;
        self.expect(&Tok::Comma)?;
        let lub = self.lower_ident("the lub function name")?;
        self.expect(&Tok::Comma)?;
        let glb = self.lower_ident("the glb function name")?;
        self.expect(&Tok::RParen)?;
        self.eat(&Tok::Semi);
        Ok(LatticeBind {
            ty,
            bot,
            top,
            leq,
            lub,
            glb,
            pos,
        })
    }

    fn pred_decl(&mut self, is_lattice: bool) -> Result<PredDecl, LangError> {
        let pos = self.pos();
        self.bump(); // rel / lat
        let name = self.upper_ident("a predicate name")?;
        self.expect(&Tok::LParen)?;
        let mut attributes = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                attributes.push(self.attribute(attributes.len())?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.eat(&Tok::Semi);
        Ok(PredDecl {
            name,
            attributes,
            is_lattice,
            pos,
        })
    }

    /// Parses `name: Type`, `name: Type<>`, or the unnamed `Type<>` form
    /// used for the final column of `lat` declarations in Figure 2
    /// (`lat IntVar(var: Str, Parity<>)`).
    fn attribute(&mut self, index: usize) -> Result<Attribute, LangError> {
        if let Tok::LowerIdent(_) = self.peek() {
            let name = self.lower_ident("an attribute name")?;
            self.expect(&Tok::Colon)?;
            let ty = self.type_expr()?;
            let is_lattice = self.eat(&Tok::Diamond);
            return Ok(Attribute {
                name,
                ty,
                is_lattice,
            });
        }
        let ty = self.type_expr()?;
        let is_lattice = self.eat(&Tok::Diamond);
        Ok(Attribute {
            name: format!("_{index}"),
            ty,
            is_lattice,
        })
    }

    fn type_expr(&mut self) -> Result<TypeExpr, LangError> {
        match self.peek() {
            Tok::UpperIdent(name) if name == "Set" && self.peek2() == &Tok::LParen => {
                self.bump();
                self.bump();
                let elem = self.nested(MAX_NESTING, Self::type_expr)?;
                self.expect(&Tok::RParen)?;
                Ok(TypeExpr::Set(Box::new(elem)))
            }
            Tok::UpperIdent(_) => {
                let name = self.take_string();
                Ok(match name.as_str() {
                    "Int" => TypeExpr::Int,
                    "Str" => TypeExpr::Str,
                    "Bool" => TypeExpr::Bool,
                    "Unit" => TypeExpr::Unit,
                    _ => TypeExpr::Named(name),
                })
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(TypeExpr::Unit);
                }
                let mut items = self.list(MAX_NESTING, Self::type_expr)?;
                if items.len() == 1 {
                    Ok(items.pop().expect("checked"))
                } else {
                    Ok(TypeExpr::Tuple(items))
                }
            }
            other => Err(LangError::parse(
                self.pos(),
                format!("expected a type, found `{other}`"),
            )),
        }
    }

    // ---- constraints -----------------------------------------------------

    /// Update or query text: statements `[-|retract] Atom`, each ended
    /// by `.` or by the end of the text.
    fn facts(&mut self) -> Result<Vec<(bool, Atom)>, LangError> {
        let mut facts = Vec::new();
        while self.peek() != &Tok::Eof {
            let retract = match self.peek() {
                Tok::Minus => true,
                Tok::LowerIdent(word) => word == "retract",
                _ => false,
            };
            if retract {
                self.bump();
            }
            if let Tok::UpperIdent(_) = self.peek() {
                facts.push((retract, self.atom()?));
                if self.eat(&Tok::Dot) || self.peek() == &Tok::Eof {
                    continue;
                }
            }
            return Err(LangError::parse(
                self.pos(),
                format!(
                    "unexpected `{}`: update and query text holds facts only, \
                     `[-|retract] Atom .`, typed against the program's declarations",
                    self.peek()
                ),
            ));
        }
        Ok(facts)
    }

    fn constraint(&mut self) -> Result<Constraint, LangError> {
        let pos = self.pos();
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.eat(&Tok::ColonDash) {
            loop {
                body.push(self.body_item()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::Dot)?;
        Ok(Constraint { head, body, pos })
    }

    fn atom(&mut self) -> Result<Atom, LangError> {
        let pos = self.pos();
        let pred = self.upper_ident("a predicate name")?;
        let terms = self.call_args()?;
        Ok(Atom { pred, terms, pos })
    }

    fn body_item(&mut self) -> Result<BodyItem, LangError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Bang => {
                self.bump();
                Ok(BodyItem::NegAtom(self.atom()?))
            }
            Tok::UpperIdent(_) => Ok(BodyItem::Atom(self.atom()?)),
            // `x <- f(args)` — single-variable choice binding.
            Tok::LowerIdent(_) if self.peek2() == &Tok::BackArrow => {
                let name = self.take_string();
                self.bump();
                let func = self.lower_ident("a set-returning function name")?;
                let args = self.call_args()?;
                Ok(BodyItem::Choose {
                    binds: vec![name],
                    func,
                    args,
                    pos,
                })
            }
            // `f(args)` — a filter application; represented as an Atom
            // with a lowercase "predicate" name, resolved by the checker.
            Tok::LowerIdent(_) => {
                let name = self.take_string();
                let args = self.call_args()?;
                Ok(BodyItem::Atom(Atom {
                    pred: name,
                    terms: args,
                    pos,
                }))
            }
            // `(x, y) <- f(args)` — tuple-destructuring choice binding.
            Tok::LParen => {
                self.bump();
                let mut binds = vec![self.lower_ident("a variable")?];
                while self.eat(&Tok::Comma) {
                    binds.push(self.lower_ident("a variable")?);
                }
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::BackArrow)?;
                let func = self.lower_ident("a set-returning function name")?;
                let args = self.call_args()?;
                Ok(BodyItem::Choose {
                    binds,
                    func,
                    args,
                    pos,
                })
            }
            other => Err(LangError::parse(
                pos,
                format!("expected a body atom, filter, or choice, found `{other}`"),
            )),
        }
    }

    fn call_args(&mut self) -> Result<Vec<RuleTerm>, LangError> {
        self.expect(&Tok::LParen)?;
        self.list(MAX_VALUE_DEPTH, Self::rule_term)
    }

    fn rule_term(&mut self) -> Result<RuleTerm, LangError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Underscore => {
                self.bump();
                Ok(RuleTerm::Wildcard(pos))
            }
            &Tok::Int(n) => {
                self.bump();
                Ok(RuleTerm::Lit(Lit::Int(n), pos))
            }
            Tok::Minus => {
                self.bump();
                Ok(RuleTerm::Lit(Lit::Int(self.negated_int(pos)?), pos))
            }
            Tok::Str(_) => Ok(RuleTerm::Lit(Lit::Str(self.take_string()), pos)),
            Tok::True => {
                self.bump();
                Ok(RuleTerm::Lit(Lit::Bool(true), pos))
            }
            Tok::False => {
                self.bump();
                Ok(RuleTerm::Lit(Lit::Bool(false), pos))
            }
            Tok::LowerIdent(_) => {
                let name = self.take_string();
                if self.peek() == &Tok::LParen {
                    let args = self.call_args()?;
                    Ok(RuleTerm::App {
                        func: name,
                        args,
                        pos,
                    })
                } else {
                    Ok(RuleTerm::Var(name, pos))
                }
            }
            Tok::UpperIdent(_) => {
                let enum_name = self.take_string();
                self.expect(&Tok::Dot)?;
                let case = self.upper_ident("an enum case name")?;
                let mut args = Vec::new();
                if self.peek() == &Tok::LParen {
                    args = self.call_args()?;
                }
                Ok(RuleTerm::Ctor {
                    enum_name,
                    case,
                    args,
                    pos,
                })
            }
            other => Err(LangError::parse(
                pos,
                format!("expected a term, found `{other}`"),
            )),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.binary(0)
    }

    /// The binary operators at precedence `level` and tighter, loosest
    /// first: `||`, `&&`, the comparisons (which do not chain), `+ -`,
    /// `* / %`; all associate to the left. A link puts the chain so far
    /// one level deeper, so the chain reaches one level further than the
    /// deepest of the operands before it, and the bound counts that.
    fn binary(&mut self, level: usize) -> Result<Expr, LangError> {
        let operand = |p: &mut Self| match level {
            4 => p.unary_expr(),
            _ => p.binary(level + 1),
        };
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = operand(self)?;
        let mut reach = self.peak;
        while let Some(op) = binary_op(level, self.peek()) {
            if reach == MAX_NESTING {
                return Err(self.too_deep(MAX_NESTING));
            }
            reach += 1;
            let pos = self.pos();
            self.bump();
            self.peak = self.depth;
            let rhs = self.nested(MAX_NESTING, operand)?;
            reach = reach.max(self.peak);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
            if level == 2 {
                break;
            }
        }
        self.peak = outer.max(reach);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Bang => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.nested(MAX_NESTING, Self::unary_expr)?),
                    pos,
                })
            }
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(self.nested(MAX_NESTING, Self::unary_expr)?),
                    pos,
                })
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, LangError> {
        let pos = self.pos();
        match self.peek() {
            // The magnitude of `i64::MIN` after an operator `-`, which is
            // not folded into it.
            Tok::Int(i64::MIN) => Err(min_magnitude_out_of_range(pos)),
            &Tok::Int(n) => {
                self.bump();
                Ok(Expr::Lit(Lit::Int(n), pos))
            }
            Tok::Str(_) => Ok(Expr::Lit(Lit::Str(self.take_string()), pos)),
            Tok::True => {
                self.bump();
                Ok(Expr::Lit(Lit::Bool(true), pos))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Lit(Lit::Bool(false), pos))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Expr::Lit(Lit::Unit, pos));
                }
                let mut items = self.list(MAX_NESTING, Self::expr)?;
                if items.len() == 1 {
                    Ok(items.pop().expect("checked"))
                } else {
                    Ok(Expr::Tuple(items, pos))
                }
            }
            Tok::LowerIdent(_) => {
                let name = self.take_string();
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let args = self.list(MAX_NESTING, Self::expr)?;
                    Ok(Expr::Call {
                        func: name,
                        args,
                        pos,
                    })
                } else {
                    Ok(Expr::Var(name, pos))
                }
            }
            Tok::UpperIdent(enum_name) if enum_name == "Set" && self.peek2() == &Tok::LParen => {
                self.bump();
                self.bump();
                let items = self.list(MAX_NESTING, Self::expr)?;
                Ok(Expr::SetLit(items, pos))
            }
            Tok::UpperIdent(_) => {
                let enum_name = self.take_string();
                self.expect(&Tok::Dot)?;
                let case = self.upper_ident("an enum case name")?;
                let mut args = Vec::new();
                if self.eat(&Tok::LParen) {
                    args = self.list(MAX_NESTING, Self::expr)?;
                }
                Ok(Expr::Ctor {
                    enum_name,
                    case,
                    args,
                    pos,
                })
            }
            Tok::Let => {
                self.bump();
                let name = self.lower_ident("a binding name")?;
                self.expect(&Tok::Eq)?;
                let bound = self.nested(MAX_NESTING, Self::expr)?;
                self.expect(&Tok::Semi)?;
                let body = self.nested(MAX_NESTING, Self::expr)?;
                Ok(Expr::Let {
                    name,
                    bound: Box::new(bound),
                    body: Box::new(body),
                    pos,
                })
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.nested(MAX_NESTING, Self::expr)?;
                self.expect(&Tok::RParen)?;
                let then = self.nested(MAX_NESTING, Self::expr)?;
                self.expect(&Tok::Else)?;
                let otherwise = self.nested(MAX_NESTING, Self::expr)?;
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    otherwise: Box::new(otherwise),
                    pos,
                })
            }
            Tok::Match => {
                self.bump();
                let scrutinee = self.nested(MAX_NESTING, Self::expr)?;
                self.expect(&Tok::With)?;
                self.expect(&Tok::LBrace)?;
                let mut arms = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    self.expect(&Tok::Case)?;
                    let pat = self.nested(MAX_NESTING, Self::pattern)?;
                    self.expect(&Tok::FatArrow)?;
                    let body = self.nested(MAX_NESTING, Self::expr)?;
                    arms.push(MatchArm { pat, body });
                    self.eat(&Tok::Comma);
                }
                Ok(Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    pos,
                })
            }
            other => Err(LangError::parse(
                pos,
                format!("expected an expression, found `{other}`"),
            )),
        }
    }

    fn pattern(&mut self) -> Result<Pattern, LangError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Underscore => {
                self.bump();
                Ok(Pattern::Wildcard(pos))
            }
            &Tok::Int(n) => {
                self.bump();
                Ok(Pattern::Lit(Lit::Int(n), pos))
            }
            Tok::Minus => {
                self.bump();
                Ok(Pattern::Lit(Lit::Int(self.negated_int(pos)?), pos))
            }
            Tok::Str(_) => Ok(Pattern::Lit(Lit::Str(self.take_string()), pos)),
            Tok::True => {
                self.bump();
                Ok(Pattern::Lit(Lit::Bool(true), pos))
            }
            Tok::False => {
                self.bump();
                Ok(Pattern::Lit(Lit::Bool(false), pos))
            }
            Tok::LowerIdent(_) => Ok(Pattern::Var(self.take_string(), pos)),
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Pattern::Lit(Lit::Unit, pos));
                }
                let mut items = self.list(MAX_NESTING, Self::pattern)?;
                if items.len() == 1 {
                    Ok(items.pop().expect("checked"))
                } else {
                    Ok(Pattern::Tuple(items, pos))
                }
            }
            Tok::UpperIdent(_) => {
                let enum_name = self.take_string();
                self.expect(&Tok::Dot)?;
                let case = self.upper_ident("an enum case name")?;
                let mut args = Vec::new();
                if self.eat(&Tok::LParen) {
                    args = self.list(MAX_NESTING, Self::pattern)?;
                }
                Ok(Pattern::Ctor {
                    enum_name,
                    case,
                    args,
                    pos,
                })
            }
            other => Err(LangError::parse(
                pos,
                format!("expected a pattern, found `{other}`"),
            )),
        }
    }
}

/// The binary operator `tok` stands for at precedence `level`
/// ([`Parser::binary`]), if any.
fn binary_op(level: usize, tok: &Tok) -> Option<BinOp> {
    Some(match (level, tok) {
        (0, Tok::OrOr) => BinOp::Or,
        (1, Tok::AndAnd) => BinOp::And,
        (2, Tok::EqEq) => BinOp::Eq,
        (2, Tok::BangEq) => BinOp::Ne,
        (2, Tok::Lt) => BinOp::Lt,
        (2, Tok::Le) => BinOp::Le,
        (2, Tok::Gt) => BinOp::Gt,
        (2, Tok::Ge) => BinOp::Ge,
        (3, Tok::Plus) => BinOp::Add,
        (3, Tok::Minus) => BinOp::Sub,
        (4, Tok::Star) => BinOp::Mul,
        (4, Tok::Slash) => BinOp::Div,
        (4, Tok::Percent) => BinOp::Rem,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_2_style_program() {
        let src = r#"
            // an almost complete Flix program.
            enum Parity {
              case Top,
              case Even, case Odd,
              case Bot
            }

            def leq(e1: Parity, e2: Parity): Bool =
              match (e1, e2) with {
                case (Parity.Bot, _) => true
                case (Parity.Even, Parity.Even) => true
                case (Parity.Odd, Parity.Odd) => true
                case (_, Parity.Top) => true
                case _ => false
              }

            def lub(e1: Parity, e2: Parity): Parity =
              match (e1, e2) with {
                case (Parity.Bot, x) => x
                case (x, Parity.Bot) => x
                case (Parity.Even, Parity.Even) => Parity.Even
                case (Parity.Odd, Parity.Odd) => Parity.Odd
                case _ => Parity.Top
              }

            def glb(e1: Parity, e2: Parity): Parity =
              match (e1, e2) with {
                case (Parity.Top, x) => x
                case (x, Parity.Top) => x
                case (Parity.Even, Parity.Even) => Parity.Even
                case (Parity.Odd, Parity.Odd) => Parity.Odd
                case _ => Parity.Bot
              }

            let Parity<> = (Parity.Bot, Parity.Top, leq, lub, glb);

            def isMaybeZero(e: Parity): Bool =
              match e with {
                case Parity.Even => true
                case Parity.Top => true
                case _ => false
              }

            rel AddExp(r: Str, v1: Str, v2: Str);
            rel DivExp(r: Str, v1: Str, v2: Str);
            rel ArithmeticError(r: Str);
            lat IntVar(var: Str, Parity<>);

            IntVar("x", Parity.Odd).
            IntVar(r, sum(i1, i2)) :- AddExp(r, v1, v2),
                                      IntVar(v1, i1),
                                      IntVar(v2, i2).
            ArithmeticError(r) :- DivExp(r, v1, v2),
                                  IntVar(v2, i2),
                                  isMaybeZero(i2).
        "#;
        let prog = parse(src).expect("parses");
        assert_eq!(prog.decls.len(), 13);
        let kinds: Vec<&str> = prog
            .decls
            .iter()
            .map(|d| match d {
                Decl::Enum(_) => "enum",
                Decl::Def(_) => "def",
                Decl::Lattice(_) => "lat-bind",
                Decl::Pred(_) => "pred",
                Decl::Constraint(_) => "constraint",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "enum",
                "def",
                "def",
                "def",
                "lat-bind",
                "def",
                "pred",
                "pred",
                "pred",
                "pred",
                "constraint",
                "constraint",
                "constraint"
            ]
        );
    }

    #[test]
    fn parses_choice_bindings() {
        let src = r#"
            rel CFG(n: Int, m: Int);
            rel PathEdge(d1: Int, n: Int, d2: Int);
            PathEdge(d1, m, d3) :- CFG(n, m),
                                   PathEdge(d1, n, d2),
                                   d3 <- eshIntra(n, d2).
            JumpFn(d1, m, d3) :- CFG(n, m),
                                 (d3, short) <- eshIntra(n, d2).
        "#;
        let prog = parse(src).expect("parses");
        let Decl::Constraint(c) = &prog.decls[2] else {
            panic!("expected constraint")
        };
        assert!(matches!(&c.body[2], BodyItem::Choose { binds, .. } if binds == &["d3"]));
        let Decl::Constraint(c2) = &prog.decls[3] else {
            panic!("expected constraint")
        };
        assert!(matches!(&c2.body[1], BodyItem::Choose { binds, .. } if binds == &["d3", "short"]));
    }

    #[test]
    fn parses_negated_atoms_and_wildcards() {
        let src = r#"
            rel A(x: Int);
            rel B(x: Int, y: Int);
            A(x) :- B(x, _), !B(x, 3).
        "#;
        let prog = parse(src).expect("parses");
        let Decl::Constraint(c) = &prog.decls[2] else {
            panic!("expected constraint")
        };
        assert!(matches!(&c.body[0], BodyItem::Atom(a) if a.pred == "B"));
        assert!(matches!(&c.body[1], BodyItem::NegAtom(a) if a.pred == "B"));
    }

    #[test]
    fn operator_precedence() {
        let src = "def f(x: Int, y: Int): Int = x + y * 2";
        let prog = parse(src).expect("parses");
        let Decl::Def(d) = &prog.decls[0] else {
            panic!("expected def")
        };
        // x + (y * 2)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &d.body
        else {
            panic!("expected +: {:?}", d.body)
        };
        assert!(matches!(&**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn if_expression() {
        let src = "def f(x: Int): Int = if (x > 0) x else -x";
        let prog = parse(src).expect("parses");
        let Decl::Def(d) = &prog.decls[0] else {
            panic!("expected def")
        };
        assert!(matches!(&d.body, Expr::If { .. }));
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse("rel A(").expect_err("incomplete");
        assert!(err.to_string().contains("parse error"));
    }

    /// The deepest source of each shape that nests: it parses, checks,
    /// compiles and solves on the 8 MiB stack of a main thread; one level
    /// more is a positioned parse error.
    #[test]
    fn nesting_at_the_bound_runs_and_one_more_level_is_refused() {
        let shapes: [fn(usize) -> String; 7] = [
            |k| format!("x{}", " + 1".repeat(k)),
            |k| format!("{}x", "-".repeat(k)),
            |k| format!("{}x{}", "g(".repeat(k), ")".repeat(k)),
            |k| format!("{}x{}", "(0 + ".repeat(k), ")".repeat(k)),
            |k| "if (x < 0) 0 else ".repeat(k) + "x",
            |k| "let y = 1; ".repeat(k) + "x",
            |k| {
                format!(
                    "match x with {{ case {}_{} => x }}",
                    "(".repeat(k),
                    ")".repeat(k)
                )
            },
        ];
        let source = |body: &str| {
            format!(
                "def g(x: Int): Int = x\ndef f(x: Int): Int = {body}\n\
                 rel R(x: Int); rel S(x: Int);\nR(2).\nS(f(x)) :- R(x)."
            )
        };
        let run = move |body: String| {
            let solved = crate::run(&source(&body));
            solved.map(|s| s.total_facts()).map_err(|e| e.to_string())
        };
        let check = move || {
            for (i, shape) in shapes.into_iter().enumerate() {
                let deepest = (1..)
                    .take_while(|&k| parse(&source(&shape(k))).is_ok())
                    .last()
                    .expect("one level parses");
                assert!(deepest >= MAX_NESTING / 2, "shape {i}: {deepest}");
                assert_eq!(run(shape(deepest)), Ok(2), "shape {i}");
                let err = run(shape(deepest + 1)).expect_err("past the bound");
                assert!(
                    err.starts_with("parse error at 2:") && err.contains("nested deeper than 256"),
                    "shape {i}: {err}"
                );
            }
        };
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(check)
            .expect("spawns")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn negative_literals_in_facts() {
        let src = "rel A(x: Int); A(-3).";
        let prog = parse(src).expect("parses");
        let Decl::Constraint(c) = &prog.decls[1] else {
            panic!("expected constraint")
        };
        assert!(matches!(&c.head.terms[0], RuleTerm::Lit(Lit::Int(-3), _)));
    }
}
