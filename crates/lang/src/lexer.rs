//! The hand-written lexer for the FLIX surface language.
//!
//! The lexer walks the source by byte index. All of the syntax is ASCII
//! and is matched byte by byte; a `char` is decoded only at a non-ASCII
//! byte, where an identifier, a string, a comment or whitespace may go on
//! in Unicode. Identifiers and numbers are slices of the source, and a
//! keyword is recognised on its slice before anything is allocated; a
//! string literal with no escape is one copy of its slice. Positions
//! count lines and *characters*, not bytes.
//!
//! [`Lexer`] yields one token per call: [`lex`] collects them, and the
//! parser pulls them as it goes, so a parse never holds the whole token
//! sequence.
//!
//! A string literal accepts every escape that `Value`'s `Display` and
//! [`crate::pretty`] write — `\n \t \r \0 \\ \" \'` and `\u{…}` with one
//! to six hex digits — so a printed model reads back.
//!
//! `9223372036854775808`, the magnitude of `i64::MIN`, has a value only
//! after a `-` that the parser folds into it. [`Lexer`] yields it as
//! `Int(i64::MIN)`, which no literal in range lexes to; [`lex`], which
//! folds nothing, reports it out of range, and so does the parser
//! wherever it does not fold it.

use crate::error::LangError;
use crate::token::{Pos, Tok, Token};

/// Tokenises FLIX source text.
///
/// # Errors
///
/// Returns a [`LangError`] on unterminated strings, malformed numbers, or
/// unexpected characters, with the source position.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let token = lexer.token()?;
        if token.tok == Tok::Int(i64::MIN) {
            return Err(min_magnitude_out_of_range(token.pos));
        }
        let eof = token.tok == Tok::Eof;
        out.push(token);
        if eof {
            return Ok(out);
        }
    }
}

/// The error for the magnitude of `i64::MIN` where no `-` is folded into
/// it: the `Int(i64::MIN)` token at `pos`.
pub(crate) fn min_magnitude_out_of_range(pos: Pos) -> LangError {
    out_of_range(pos, MIN_MAGNITUDE)
}

const MIN_MAGNITUDE: &str = "9223372036854775808";

fn out_of_range(pos: Pos, digits: &str) -> LangError {
    LangError::lex(pos, format!("integer literal {digits} out of range"))
}

/// A cursor over source text that yields one [`Token`] per call.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    at: usize,
    pos: Pos,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            at: 0,
            pos: Pos { line: 1, col: 1 },
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.at + ahead).copied()
    }

    /// The char at byte `at`, which is a char boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src[at..].chars().next()
    }

    /// Moves past one ASCII byte that is not a newline.
    fn bump(&mut self) {
        self.at += 1;
        self.pos.col += 1;
    }

    /// Moves past the char `c`, which is at the cursor.
    fn advance(&mut self, c: char) {
        self.at += c.len_utf8();
        if c == '\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
    }

    /// Moves past one byte of any kind, counting a column only where a
    /// char starts.
    fn advance_byte(&mut self, b: u8) {
        self.at += 1;
        if b == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else if !is_continuation(b) {
            self.pos.col += 1;
        }
    }

    /// Lexes the next token; at the end of the input, [`Tok::Eof`] on
    /// every call.
    pub(crate) fn token(&mut self) -> Result<Token, LangError> {
        self.skip_trivia();
        let pos = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token { tok: Tok::Eof, pos });
        };
        let tok = match b {
            b'(' => self.single(Tok::LParen),
            b')' => self.single(Tok::RParen),
            b'{' => self.single(Tok::LBrace),
            b'}' => self.single(Tok::RBrace),
            b',' => self.single(Tok::Comma),
            b';' => self.single(Tok::Semi),
            b'.' => self.single(Tok::Dot),
            b'+' => self.single(Tok::Plus),
            b'*' => self.single(Tok::Star),
            b'/' => self.single(Tok::Slash),
            b'%' => self.single(Tok::Percent),
            b'-' => self.single(Tok::Minus),
            b':' => self.pair(b'-', Tok::ColonDash, Tok::Colon),
            b'!' => self.pair(b'=', Tok::BangEq, Tok::Bang),
            b'>' => self.pair(b'=', Tok::Ge, Tok::Gt),
            b'=' => match self.peek_at(1) {
                Some(b'>') => self.single2(Tok::FatArrow),
                Some(b'=') => self.single2(Tok::EqEq),
                _ => self.single(Tok::Eq),
            },
            b'<' => match self.peek_at(1) {
                Some(b'-') => self.single2(Tok::BackArrow),
                Some(b'=') => self.single2(Tok::Le),
                Some(b'>') => self.single2(Tok::Diamond),
                _ => self.single(Tok::Lt),
            },
            b'&' | b'|' => {
                if self.peek_at(1) != Some(b) {
                    let doubled = if b == b'&' { "&&" } else { "||" };
                    return Err(LangError::lex(pos, format!("expected `{doubled}`")));
                }
                self.single2(if b == b'&' { Tok::AndAnd } else { Tok::OrOr })
            }
            b'"' => self.string(pos)?,
            b'0'..=b'9' => self.number(pos)?,
            b'_' if !self.char_at(self.at + 1).is_some_and(ident_char) => {
                self.single(Tok::Underscore)
            }
            b'_' => self.ident(false),
            b if b.is_ascii_alphabetic() => self.ident(b.is_ascii_uppercase()),
            b if b.is_ascii() => {
                return Err(LangError::lex(
                    pos,
                    format!("unexpected character {:?}", b as char),
                ))
            }
            _ => {
                let c = self.char_at(self.at).expect("not at the end");
                if !c.is_alphabetic() {
                    return Err(LangError::lex(pos, format!("unexpected character {c:?}")));
                }
                self.ident(c.is_uppercase())
            }
        };
        Ok(Token { tok, pos })
    }

    fn single(&mut self, tok: Tok) -> Tok {
        self.bump();
        tok
    }

    fn single2(&mut self, tok: Tok) -> Tok {
        self.bump();
        self.bump();
        tok
    }

    /// `both` when the byte after the current one is `second`, else `one`.
    fn pair(&mut self, second: u8, both: Tok, one: Tok) -> Tok {
        if self.peek_at(1) == Some(second) {
            self.single2(both)
        } else {
            self.single(one)
        }
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'/' && self.peek_at(1) == Some(b'/') {
                while let Some(b) = self.peek() {
                    if b == b'\n' {
                        break;
                    }
                    self.advance_byte(b);
                }
            } else if b.is_ascii() {
                if !(b as char).is_whitespace() {
                    return;
                }
                self.advance_byte(b);
            } else {
                let c = self.char_at(self.at).expect("not at the end");
                if !c.is_whitespace() {
                    return;
                }
                self.advance(c);
            }
        }
    }

    fn string(&mut self, pos: Pos) -> Result<Tok, LangError> {
        self.bump(); // opening quote
        let start = self.at;
        // Up to the closing quote or the first escape, the literal is a
        // slice of the source.
        loop {
            match self.peek() {
                None => return Err(LangError::lex(pos, "unterminated string literal")),
                Some(b'"') => {
                    let s = self.src[start..self.at].to_owned();
                    self.bump();
                    return Ok(Tok::Str(s));
                }
                Some(b'\\') => break,
                Some(b) => self.advance_byte(b),
            }
        }
        let mut s = self.src[start..self.at].to_owned();
        loop {
            match self.peek() {
                None => return Err(LangError::lex(pos, "unterminated string literal")),
                Some(b'"') => {
                    self.bump();
                    return Ok(Tok::Str(s));
                }
                Some(b'\\') => {
                    self.bump();
                    s.push(self.escape(pos)?);
                }
                Some(_) => {
                    let c = self.char_at(self.at).expect("not at the end");
                    self.advance(c);
                    s.push(c);
                }
            }
        }
    }

    /// The char an escape stands for, the cursor just past its `\`.
    fn escape(&mut self, pos: Pos) -> Result<char, LangError> {
        let c = self.char_at(self.at);
        let decoded = match c {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some('0') => '\0',
            Some('\\') => '\\',
            Some('"') => '"',
            Some('\'') => '\'',
            Some('u') if self.peek_at(1) == Some(b'{') => return self.unicode_escape(pos),
            other => {
                return Err(LangError::lex(
                    pos,
                    format!("invalid escape sequence \\{}", other.unwrap_or(' ')),
                ))
            }
        };
        self.bump();
        Ok(decoded)
    }

    /// `\u{…}`: one to six hex digits naming a char, the cursor at `u`.
    fn unicode_escape(&mut self, pos: Pos) -> Result<char, LangError> {
        self.bump(); // u
        self.bump(); // {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
            self.bump();
        }
        let digits = &self.src[start..self.at];
        let decoded = if self.peek() == Some(b'}') && (1..=6).contains(&digits.len()) {
            u32::from_str_radix(digits, 16)
                .ok()
                .and_then(char::from_u32)
        } else {
            None
        };
        match decoded {
            Some(c) => {
                self.bump(); // }
                Ok(c)
            }
            None => Err(LangError::lex(
                pos,
                format!("invalid unicode escape \\u{{{digits}: expected 1 to 6 hex digits naming a char, then `}}`"),
            )),
        }
    }

    fn number(&mut self, pos: Pos) -> Result<Tok, LangError> {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        let digits = &self.src[start..self.at];
        match digits.parse::<i64>() {
            Ok(n) => Ok(Tok::Int(n)),
            Err(_) if digits == MIN_MAGNITUDE => Ok(Tok::Int(i64::MIN)),
            Err(_) => Err(out_of_range(pos, digits)),
        }
    }

    /// An identifier or keyword, the cursor at its first char.
    fn ident(&mut self, upper: bool) -> Tok {
        let start = self.at;
        while let Some(b) = self.peek() {
            if b.is_ascii() {
                if !(b.is_ascii_alphanumeric() || b == b'_') {
                    break;
                }
                self.bump();
            } else {
                let c = self.char_at(self.at).expect("not at the end");
                if !c.is_alphanumeric() {
                    break;
                }
                self.advance(c);
            }
        }
        let s = &self.src[start..self.at];
        if upper {
            return Tok::UpperIdent(s.to_owned());
        }
        match s {
            "enum" => Tok::Enum,
            "case" => Tok::Case,
            "def" => Tok::Def,
            "let" => Tok::Let,
            "rel" => Tok::Rel,
            "lat" => Tok::Lat,
            "match" => Tok::Match,
            "with" => Tok::With,
            "if" => Tok::If,
            "else" => Tok::Else,
            "true" => Tok::True,
            "false" => Tok::False,
            _ => Tok::LowerIdent(s.to_owned()),
        }
    }
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `b` continues a UTF-8 sequence rather than starting a char.
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

/// The char-vector lexer this module replaced, kept as the oracle of the
/// differential test below: every token, position and error text must
/// agree on sources that do not use the escapes added since.
#[cfg(test)]
mod reference {
    use crate::error::LangError;
    use crate::token::{Pos, Tok, Token};

    pub(super) fn lex(src: &str) -> Result<Vec<Token>, LangError> {
        Lexer {
            chars: src.chars().collect(),
            at: 0,
            pos: Pos { line: 1, col: 1 },
        }
        .run()
    }

    struct Lexer {
        chars: Vec<char>,
        at: usize,
        pos: Pos,
    }

    impl Lexer {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.at).copied()
        }

        fn peek2(&self) -> Option<char> {
            self.chars.get(self.at + 1).copied()
        }

        fn advance(&mut self) -> Option<char> {
            let c = self.peek()?;
            self.at += 1;
            if c == '\n' {
                self.pos.line += 1;
                self.pos.col = 1;
            } else {
                self.pos.col += 1;
            }
            Some(c)
        }

        fn run(mut self) -> Result<Vec<Token>, LangError> {
            let mut out = Vec::new();
            loop {
                self.skip_trivia();
                let pos = self.pos;
                let Some(c) = self.peek() else {
                    out.push(Token { tok: Tok::Eof, pos });
                    return Ok(out);
                };
                let tok = match c {
                    '(' => self.single(Tok::LParen),
                    ')' => self.single(Tok::RParen),
                    '{' => self.single(Tok::LBrace),
                    '}' => self.single(Tok::RBrace),
                    ',' => self.single(Tok::Comma),
                    ';' => self.single(Tok::Semi),
                    '.' => self.single(Tok::Dot),
                    '+' => self.single(Tok::Plus),
                    '*' => self.single(Tok::Star),
                    '/' => self.single(Tok::Slash),
                    '%' => self.single(Tok::Percent),
                    ':' => {
                        self.advance();
                        if self.peek() == Some('-') {
                            self.advance();
                            Tok::ColonDash
                        } else {
                            Tok::Colon
                        }
                    }
                    '=' => {
                        self.advance();
                        match self.peek() {
                            Some('>') => {
                                self.advance();
                                Tok::FatArrow
                            }
                            Some('=') => {
                                self.advance();
                                Tok::EqEq
                            }
                            _ => Tok::Eq,
                        }
                    }
                    '!' => {
                        self.advance();
                        if self.peek() == Some('=') {
                            self.advance();
                            Tok::BangEq
                        } else {
                            Tok::Bang
                        }
                    }
                    '<' => {
                        self.advance();
                        match self.peek() {
                            Some('-') => {
                                self.advance();
                                Tok::BackArrow
                            }
                            Some('=') => {
                                self.advance();
                                Tok::Le
                            }
                            Some('>') => {
                                self.advance();
                                Tok::Diamond
                            }
                            _ => Tok::Lt,
                        }
                    }
                    '>' => {
                        self.advance();
                        if self.peek() == Some('=') {
                            self.advance();
                            Tok::Ge
                        } else {
                            Tok::Gt
                        }
                    }
                    '&' => {
                        self.advance();
                        if self.peek() == Some('&') {
                            self.advance();
                            Tok::AndAnd
                        } else {
                            return Err(LangError::lex(pos, "expected `&&`"));
                        }
                    }
                    '|' => {
                        self.advance();
                        if self.peek() == Some('|') {
                            self.advance();
                            Tok::OrOr
                        } else {
                            return Err(LangError::lex(pos, "expected `||`"));
                        }
                    }
                    '-' => {
                        self.advance();
                        Tok::Minus
                    }
                    '"' => self.string(pos)?,
                    c if c.is_ascii_digit() => self.number(pos)?,
                    c if c == '_' && !matches!(self.peek2(), Some(c2) if ident_char(c2)) => {
                        self.single(Tok::Underscore)
                    }
                    c if c.is_alphabetic() || c == '_' => self.ident(),
                    other => {
                        return Err(LangError::lex(
                            pos,
                            format!("unexpected character {other:?}"),
                        ))
                    }
                };
                out.push(Token { tok, pos });
            }
        }

        fn single(&mut self, tok: Tok) -> Tok {
            self.advance();
            tok
        }

        fn skip_trivia(&mut self) {
            loop {
                match self.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.advance();
                    }
                    Some('/') if self.peek2() == Some('/') => {
                        while let Some(c) = self.peek() {
                            if c == '\n' {
                                break;
                            }
                            self.advance();
                        }
                    }
                    _ => return,
                }
            }
        }

        fn string(&mut self, pos: Pos) -> Result<Tok, LangError> {
            self.advance(); // opening quote
            let mut s = String::new();
            loop {
                match self.advance() {
                    None => return Err(LangError::lex(pos, "unterminated string literal")),
                    Some('"') => return Ok(Tok::Str(s)),
                    Some('\\') => match self.advance() {
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('\\') => s.push('\\'),
                        Some('"') => s.push('"'),
                        other => {
                            return Err(LangError::lex(
                                pos,
                                format!("invalid escape sequence \\{}", other.unwrap_or(' ')),
                            ))
                        }
                    },
                    Some(c) => s.push(c),
                }
            }
        }

        fn number(&mut self, pos: Pos) -> Result<Tok, LangError> {
            let mut s = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    s.push(c);
                    self.advance();
                } else {
                    break;
                }
            }
            s.parse::<i64>()
                .map(Tok::Int)
                .map_err(|_| LangError::lex(pos, format!("integer literal {s} out of range")))
        }

        fn ident(&mut self) -> Tok {
            let mut s = String::new();
            while let Some(c) = self.peek() {
                if ident_char(c) {
                    s.push(c);
                    self.advance();
                } else {
                    break;
                }
            }
            match s.as_str() {
                "enum" => Tok::Enum,
                "case" => Tok::Case,
                "def" => Tok::Def,
                "let" => Tok::Let,
                "rel" => Tok::Rel,
                "lat" => Tok::Lat,
                "match" => Tok::Match,
                "with" => Tok::With,
                "if" => Tok::If,
                "else" => Tok::Else,
                "true" => Tok::True,
                "false" => Tok::False,
                _ => {
                    if s.chars().next().is_some_and(|c| c.is_uppercase()) {
                        Tok::UpperIdent(s)
                    } else {
                        Tok::LowerIdent(s)
                    }
                }
            }
        }
    }

    fn ident_char(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flix_lattice::rng::SmallRng;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("enum Parity case def foo Bar"),
            vec![
                Tok::Enum,
                Tok::UpperIdent("Parity".into()),
                Tok::Case,
                Tok::Def,
                Tok::LowerIdent("foo".into()),
                Tok::UpperIdent("Bar".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            toks(":- <- <> => == != <= >= && || < >"),
            vec![
                Tok::ColonDash,
                Tok::BackArrow,
                Tok::Diamond,
                Tok::FatArrow,
                Tok::EqEq,
                Tok::BangEq,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Lt,
                Tok::Gt,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            toks(r#"42 "hi\n" true false"#),
            vec![
                Tok::Int(42),
                Tok::Str("hi\n".into()),
                Tok::True,
                Tok::False,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 // comment\n2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn wildcard_vs_identifier() {
        assert_eq!(
            toks("_ _x"),
            vec![Tok::Underscore, Tok::LowerIdent("_x".into()), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn positions_track_lines() {
        let tokens = lex("a\n  b").expect("lexes");
        assert_eq!(tokens[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(tokens[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn stray_character_is_an_error() {
        assert!(lex("a @ b").is_err());
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn positions_count_characters_not_bytes() {
        let tokens = lex("\"ä☃\" größe 𝔵\n  x").expect("lexes");
        let at: Vec<Pos> = tokens.iter().map(|t| t.pos).collect();
        assert_eq!(
            at[..4],
            [
                Pos { line: 1, col: 1 },
                Pos { line: 1, col: 6 },
                Pos { line: 1, col: 12 },
                Pos { line: 2, col: 3 },
            ]
        );
    }

    #[test]
    fn every_escape_the_printers_write_is_read_back() {
        assert_eq!(
            toks(r#""\r\0\'\u{7f}\u{10FFFF}\u{2028}""#),
            vec![Tok::Str("\r\0'\u{7f}\u{10FFFF}\u{2028}".into()), Tok::Eof]
        );
        for bad in [
            r#""\u{}""#,
            r#""\u{110000}""#,
            r#""\u{d800}""#,
            r#""\u{1234567}""#,
            r#""\u{12""#,
        ] {
            let err = lex(bad).expect_err(bad);
            assert!(
                err.message.starts_with("invalid unicode escape"),
                "{bad}: {err}"
            );
            assert_eq!(err.pos, Pos { line: 1, col: 1 });
        }
        assert_eq!(
            lex(r#""\u""#).expect_err("no brace").to_string(),
            "lex error at 1:1: invalid escape sequence \\u"
        );
    }

    #[test]
    fn the_magnitude_of_i64_min_is_out_of_range_for_lex() {
        assert_eq!(
            lex("-9223372036854775808")
                .expect_err("out of range")
                .to_string(),
            "lex error at 1:2: integer literal 9223372036854775808 out of range"
        );
    }

    /// The forms the differential test's generator must produce, each
    /// counted as it is emitted.
    const FORMS: [&str; 12] = [
        "ascii-ident",
        "non-ascii-ident",
        "non-ascii-string",
        "escape",
        "crlf",
        "comment",
        "underscore",
        "unicode-space",
        "unterminated-string",
        "stray-char",
        "lone-ampersand",
        "overflowing-int",
    ];

    /// One fragment of generated source, and the form it counts as.
    fn fragment(rng: &mut SmallRng) -> (&'static str, &'static str) {
        const PLAIN: [&str; 40] = [
            "rel", "lat", "enum", "case", "def", "let", "match", "with", "if", "else", "true",
            "false", "(", ")", "{", "}", ",", ";", ".", ":", ":-", "=", "=>", "==", "!", "!=", "<",
            "<=", "<-", "<>", ">", ">=", "&&", "||", "+", "-", "*", "/", "%", "0",
        ];
        match rng.gen_range(0u32..40) {
            0..=9 => ("plain", PLAIN[rng.gen_range(0..PLAIN.len())]),
            10..=13 => {
                const IDENTS: [&str; 6] = ["x", "Edge", "node_1", "Parity", "a2b", "x²"];
                ("ascii-ident", IDENTS[rng.gen_range(0..IDENTS.len())])
            }
            14..=16 => {
                const IDENTS: [&str; 6] = ["größe", "Ärger", "变量", "ñandú", "Σx", "é٣"];
                ("non-ascii-ident", IDENTS[rng.gen_range(0..IDENTS.len())])
            }
            17..=19 => {
                const NUMBERS: [&str; 5] = ["42", "007", "9223372036854775807", "1", "12"];
                ("plain", NUMBERS[rng.gen_range(0..NUMBERS.len())])
            }
            20..=21 => ("plain", "\"plain string\""),
            22..=23 => {
                const STRINGS: [&str; 3] = ["\"héllo ☃\"", "\"𝔵 and \u{2028}\"", "\"tab\there\""];
                ("non-ascii-string", STRINGS[rng.gen_range(0..STRINGS.len())])
            }
            24 => {
                const ESCAPES: [&str; 3] = [r#""a\nb\t\\\"c""#, r#""ä\"ö""#, r#""\\""#];
                ("escape", ESCAPES[rng.gen_range(0..ESCAPES.len())])
            }
            25..=26 => ("crlf", "\r\n"),
            27..=28 => {
                const COMMENTS: [&str; 2] = ["// a comment\n", "// ünïcode ☃ comment\r\n"];
                ("comment", COMMENTS[rng.gen_range(0..COMMENTS.len())])
            }
            29..=31 => {
                const UNDERSCORES: [&str; 4] = ["_", "_x", "__", "_ä"];
                (
                    "underscore",
                    UNDERSCORES[rng.gen_range(0..UNDERSCORES.len())],
                )
            }
            32..=33 => {
                const SPACES: [&str; 3] = ["\u{a0}", "\u{2028}", "\u{3000}"];
                ("unicode-space", SPACES[rng.gen_range(0..SPACES.len())])
            }
            34 => ("unterminated-string", "\"never closed"),
            35 => {
                const STRAY: [&str; 5] = ["@", "#", "?", "→", "٣"];
                ("stray-char", STRAY[rng.gen_range(0..STRAY.len())])
            }
            36 => {
                const LONE: [&str; 2] = ["&", "|"];
                ("lone-ampersand", LONE[rng.gen_range(0..LONE.len())])
            }
            37 => {
                const OVERFLOWING: [&str; 3] = [
                    "99999999999999999999",
                    "9223372036854775809",
                    "9223372036854775808",
                ];
                (
                    "overflowing-int",
                    OVERFLOWING[rng.gen_range(0..OVERFLOWING.len())],
                )
            }
            _ => {
                const INVALID: [&str; 2] = [r#""bad \q escape""#, r#""a \ space""#];
                ("escape", INVALID[rng.gen_range(0..INVALID.len())])
            }
        }
    }

    #[test]
    fn byte_lexer_agrees_with_the_char_lexer_on_generated_sources() {
        let mut rng = SmallRng::seed_from_u64(28);
        let mut seen = std::collections::BTreeMap::<&str, usize>::new();
        let (mut lexed, mut rejected) = (0, 0);
        for case in 0..3000 {
            let mut src = String::new();
            for _ in 0..rng.gen_range(1usize..30) {
                let (form, text) = fragment(&mut rng);
                *seen.entry(form).or_default() += 1;
                src.push_str(text);
                src.push_str([" ", "", "\n", "\t"][rng.gen_range(0..4)]);
            }
            let (ours, theirs) = (lex(&src), reference::lex(&src));
            match (&ours, &theirs) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "case {case}: tokens differ on {src:?}");
                    lexed += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        a.to_string(),
                        b.to_string(),
                        "case {case}: errors differ on {src:?}"
                    );
                    rejected += 1;
                }
                _ => panic!("case {case}: {ours:?} against {theirs:?} on {src:?}"),
            }
        }
        for form in FORMS {
            assert!(
                seen.contains_key(form),
                "the generator never produced {form}: {seen:?}"
            );
        }
        assert!(
            lexed > 300 && rejected > 300,
            "{lexed} lexed, {rejected} rejected"
        );
    }
}
