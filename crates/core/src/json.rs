//! The workspace's one JSON reader and writer.
//!
//! The workspace builds offline with no serialisation dependency, so it
//! carries its own JSON — once, here, in the crate every JSON user
//! already depends on. Who uses it: the `flixd/1` wire protocol
//! (`flixd::json` is a re-export of this module; requests, replies, the
//! `flixd-stats/1` document and the JSONL event log are [`Json`] trees),
//! `flixr --connect`, the `validate_stats` schema checker, flixbench, and
//! the tests that read `flix-metrics/1` reports and Chrome trace exports
//! back in. [`crate::render_metrics_json`] and
//! [`crate::ExecutionTrace::to_chrome_json`] write their documents into
//! a `String` directly and share only the escaper, [`write_escaped`].
//!
//! The reader, [`parse`], accepts exactly the RFC 8259 grammar into an
//! untyped [`Json`] tree. It faces a socket, so it is written for
//! hostile input: a recursion-depth guard ([`MAX_DEPTH`]; `[[[[…` must
//! not blow the daemon's stack), time linear in the document (a string
//! is copied run by run between its delimiters), no panics, and no
//! leniency a second reader might not share (`01`, `1.`, `+1`, a number
//! that overflows to ±∞ and a lone surrogate escape are all errors).
//! The writer escapes strings per the RFC and can splice a pre-rendered
//! document verbatim ([`Json::Raw`]), which is how `flix-metrics/1`
//! reports and Chrome trace exports ride inside a `flixd` response
//! without being parsed and re-rendered.

use std::fmt::Write as _;

/// Parsed documents deeper than this are rejected — far beyond any
/// legitimate document (`flixd/1` requests nest two or three levels,
/// metrics reports and traces four) but low enough that parsing cannot
/// exhaust the stack.
pub const MAX_DEPTH: usize = 64;

/// An untyped JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; exact for integers below 2⁵³ (every counter the
    /// protocol carries stays far below that).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
    /// Write-only: a pre-rendered JSON document spliced verbatim into
    /// the output. Never produced by the parser.
    Raw(String),
}

impl Json {
    /// Looks up `key` in an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contents of a string; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array; `None` on non-arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value; `None` on non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value; `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
            Json::Raw(doc) => out.push_str(doc),
        }
    }
}

/// Appends `s` to `out` as a JSON string: quoted, and escaped per
/// RFC 8259.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document, requiring it to span the whole input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting exceeds the {MAX_DEPTH}-level limit"));
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

/// The RFC 8259 number: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
/// Exactly that span goes to `f64::from_str`, which on its own would
/// also take `+1`, `.5`, `1.` and `inf`; a literal too large for an
/// `f64` is an error rather than an infinity `render` could not write
/// back.
fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut valid = match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            true
        }
        _ => digits(pos),
    };
    if valid && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        valid = digits(pos);
    }
    if valid && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        valid = digits(pos);
    }
    match text[start..*pos].parse::<f64>() {
        Ok(n) if valid && n.is_finite() => Ok(Json::Num(n)),
        _ => Err(format!("invalid number at offset {start}")),
    }
}

/// Four hex digits at `at`, as the code unit they spell.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0u32, |code, &b| {
        let digit = (b as char).to_digit(16).ok_or("invalid \\u escape")?;
        Ok(code << 4 | digit)
    })
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next delimiter in one piece. The
        // delimiters are ASCII and `text` is a `&str`, so both ends of
        // the run are char boundaries — nothing is re-validated, and a
        // string costs time linear in its length.
        let start = *pos;
        while bytes
            .get(*pos)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            *pos += 1;
        }
        out.push_str(&text[start..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("unpaired surrogate".into());
                            }
                            let lo = hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("unpaired surrogate".into());
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("invalid escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("unescaped control character at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = Json::Obj(vec![
            ("op".into(), Json::Str("query".into())),
            ("atom".into(), Json::Str("Dist(\"a\", _)".into())),
            ("n".into(), Json::Num(42.0)),
            (
                "xs".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-1.5)]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).expect("parses"), doc);
    }

    #[test]
    fn escapes_and_unescapes() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}f — π".into());
        assert_eq!(parse(&doc.render()).expect("parses"), doc);
    }

    #[test]
    fn raw_splices_verbatim() {
        let doc = Json::Obj(vec![(
            "metrics".into(),
            Json::Raw("{\"schema\":\"flix-metrics/1\"}".into()),
        )]);
        assert_eq!(
            doc.render(),
            "{\"metrics\":{\"schema\":\"flix-metrics/1\"}}"
        );
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(10_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn junk_is_rejected() {
        for junk in ["", "{", "{\"a\":}", "[1,]", "nul", "\"\\q\"", "1 2"] {
            assert!(parse(junk).is_err(), "{junk:?} should not parse");
        }
    }

    // The accessors, and a few whole documents the adversarial suite
    // (`tests/json_adversarial.rs`) does not spell out.

    #[test]
    fn parses_a_metrics_document() {
        let doc = parse(
            r#"{"schema": "flix-metrics/1", "runs": [
                {"name": "a/b", "threads": 2, "wall_ns": 1234, "ok": true, "x": null}
            ]}"#,
        )
        .expect("valid");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("flix-metrics/1")
        );
        let runs = doc.get("runs").and_then(Json::as_array).expect("array");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("wall_ns").and_then(Json::as_u64), Some(1234));
        assert_eq!(runs[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(runs[0].get("x"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let doc = parse(r#""a\n\"b\"\u0041\ud83d\ude00""#).expect("valid");
        assert_eq!(doc.as_str(), Some("a\n\"b\"A😀"));
    }

    #[test]
    fn numbers_roundtrip() {
        assert_eq!(parse("-3.5e2").expect("valid").as_f64(), Some(-350.0));
        assert_eq!(parse("0").expect("valid").as_u64(), Some(0));
        assert_eq!(parse("-1").expect("valid").as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// A string is parsed in time linear in its length. A reader that
    /// re-validates the rest of the input for every character — one
    /// `from_utf8(&bytes[pos..])` per scalar is all it takes — needs
    /// tens of minutes for these documents; the bound below is orders
    /// of magnitude above what the linear scan needs in a debug build,
    /// so only such a relapse trips it.
    #[test]
    fn large_strings_and_large_replies_parse_in_linear_time() {
        let start = std::time::Instant::now();

        // 8 MiB of string: runs of ASCII and of two-, three- and
        // four-byte scalars, with every escape form in between.
        let escaped = r#"ascii run — π 語 😀 \" \\ \/ \b \f \n \r \t \u0001 \ud83d\ude00 tail "#;
        let plain = "ascii run — π 語 😀 \" \\ / \u{8} \u{c} \n \r \t \u{1} 😀 tail ";
        let repeats = (8 << 20) / escaped.len() + 1;
        let text = format!("\"{}\"", escaped.repeat(repeats));
        assert!(text.len() > 8 << 20);
        let doc = parse(&text).expect("the long string parses");
        assert_eq!(doc, Json::Str(plain.repeat(repeats)));
        assert_eq!(parse(&doc.render()).expect("and renders back"), doc);

        // A 50 000-row query reply, shaped like `flixd`'s.
        let rows: Vec<Json> = (0..50_000)
            .map(|i| Json::Str(format!("Dist(\"n{i}\", {})", i * 7)))
            .collect();
        let reply = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("epoch".into(), Json::Num(3.0)),
            ("facts".into(), Json::Arr(rows)),
        ]);
        let text = reply.render();
        let parsed = parse(&text).expect("the reply parses");
        assert_eq!(parsed, reply);
        assert_eq!(parsed.render(), text);

        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "parsing is no longer linear in the document: {took:?}"
        );
    }
}
