//! Adversarial inputs for `flix_core::json`, the workspace's one JSON
//! reader.
//!
//! The reader parses `flixd/1` frames off a socket (up to 64 MiB each)
//! and whatever file a human hands `validate_stats`, so garbage must come
//! back as an `Err` — never a panic, never a stack-overflow abort — and
//! it must accept exactly the RFC 8259 grammar: a document this reader
//! takes and another would refuse (or decode differently) is a way to
//! tell two parties different things.

use flix_core::json::{parse, Json, MAX_DEPTH};

/// A representative valid document of each shape the tooling emits.
const DOCS: &[&str] = &[
    r#"{"schema": "flix-metrics/1", "runs": [{"name": "a", "wall_ns": 12345, "ok": true}]}"#,
    r#"{"traceEvents": [{"name": "solve", "cat": "solve", "ph": "X", "ts": 0.1, "dur": 2.5}]}"#,
    r#"[null, true, false, 0, -1, 3.5e-2, "str", {"k": []}]"#,
    "\"a\\u0041\\ud83d\\ude00\\n\"",
];

#[test]
fn every_truncation_of_a_valid_document_errors_cleanly() {
    for doc in DOCS {
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let prefix = &doc[..cut];
            // A prefix may still be valid JSON (e.g. "[1, 2" is not,
            // but "-1" truncated to "-1" is); what it must never do is
            // panic. Call through catch_unwind-free code: a panic here
            // fails the test on its own.
            let _ = parse(prefix);
        }
        assert!(parse(doc).is_ok(), "the untruncated document parses: {doc}");
    }
}

fn nested(depth: usize) -> String {
    format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn deep_nesting_is_rejected_not_a_stack_overflow() {
    // Without a depth limit each of these would abort the process
    // (recursion-induced stack overflow is not a catchable panic).
    for bomb in [
        "[".repeat(100_000),
        "{\"k\":".repeat(100_000),
        nested(100_000),
        nested(MAX_DEPTH + 1),
    ] {
        let err = parse(&bomb).expect_err("nesting bomb is rejected");
        assert!(err.contains("nesting"), "{err}");
    }
}

#[test]
fn moderate_nesting_still_parses() {
    // Exactly the limit is still a document; `deep_nesting_…` holds the
    // other side of the boundary.
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    assert!(parse(&objects).is_ok());
}

#[test]
fn invalid_escapes_and_unicode_sequences_error_cleanly() {
    for bad in [
        r#""\x""#,           // unknown escape
        r#""\"#,             // escape at end of input
        r#""\u12""#,         // truncated \u
        r#""\uZZZZ""#,       // non-hex \u
        r#""\u+041""#,       // a sign is not a hex digit
        r#""\ud800""#,       // lone high surrogate
        r#""\ud800A""#,      // high surrogate + non-surrogate
        r#""\udc00""#,       // lone low surrogate
        r#""\ud83d\ud83d""#, // high surrogate twice
        r#""\ud800\ue000""#, // high surrogate + an escape that is not a low one
        "\"line\nbreak\"",   // unescaped control characters
        "\"nul\u{0}\"",
        "\"unit\u{1f}separator\"",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} should not parse");
    }
    // The well-formed pair still decodes, escaped or not, and DEL
    // (0x7f) is not a control character JSON forbids.
    assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    assert_eq!(parse("\"\u{7f}\"").unwrap().as_str(), Some("\u{7f}"));
}

#[test]
fn duplicate_keys_are_kept_in_order_and_get_returns_the_first() {
    let doc = parse(r#"{"k": 1, "k": 2, "j": 3}"#).expect("valid");
    assert_eq!(doc.get("k").and_then(Json::as_u64), Some(1));
    match &doc {
        Json::Obj(fields) => {
            assert_eq!(fields.len(), 3, "duplicates are kept, not collapsed");
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn malformed_numbers_and_literals_error_cleanly() {
    // The number grammar is RFC 8259's, not `f64::from_str`'s: no
    // leading `+`, no bare or trailing `.`, no leading zeros, no empty
    // exponent — and no literal that only fits an `f64` as ±∞, which
    // `render` could not write back.
    for bad in [
        "-",
        "+1",
        ".5",
        "1.",
        "1.e2",
        "01",
        "-01",
        "1e",
        "1e+",
        "01x",
        "--1",
        "1.2.3",
        "1e999",
        "-1e999",
        "0x10",
        "1_000",
        "tru",
        "falsey",
        "nul",
        "nan",
        "NaN",
        "inf",
        "Infinity",
        "-Infinity",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} should not parse");
        assert!(
            parse(&format!("[{bad}]")).is_err(),
            "[{bad}] should not parse"
        );
    }
    for (good, value) in [
        ("0", 0.0),
        ("-0", 0.0),
        ("10", 10.0),
        ("1E+2", 100.0),
        ("3.5e-2", 0.035),
        ("-0.5", -0.5),
        ("0e0", 0.0),
        ("1e308", 1e308),
        ("1e-999", 0.0),
        ("9007199254740993", 9007199254740992.0),
    ] {
        assert_eq!(parse(good).unwrap().as_f64(), Some(value), "{good}");
        assert_eq!(
            parse(&format!(" [ {good} ] ")).unwrap(),
            Json::Arr(vec![Json::Num(value)]),
            "[{good}]"
        );
    }
}

/// A tiny deterministic xorshift so the fuzz sweep needs no external
/// crate and reproduces bit-for-bit across runs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn seeded_garbage_and_mutation_fuzz_never_panics() {
    let mut rng = XorShift(0x5907_2026);

    // Whatever parses must survive the writer: `render` gives a
    // document that parses back to the same tree.
    let mut parsed = 0u32;
    let mut check = |text: &str| {
        if let Ok(doc) = parse(text) {
            parsed += 1;
            let rendered = doc.render();
            assert_eq!(
                parse(&rendered).as_ref(),
                Ok(&doc),
                "{text:?} parsed, but its rendering {rendered:?} does not parse back to it"
            );
        }
    };

    // Pure garbage: random bytes forced into a lossy string.
    for _ in 0..500 {
        let len = (rng.next() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
        check(&String::from_utf8_lossy(&bytes));
    }

    // Structured garbage: valid documents with random single-char
    // mutations (delete, duplicate, replace) — the classic way to hit
    // parser states a human never writes.
    for doc in DOCS {
        for _ in 0..500 {
            let chars: Vec<char> = doc.chars().collect();
            let i = (rng.next() as usize) % chars.len();
            let mut mutated: String = chars[..i].iter().collect();
            match rng.next() % 3 {
                0 => {} // delete chars[i]
                1 => {
                    mutated.push(chars[i]);
                    mutated.push(chars[i]);
                }
                _ => mutated.push((b' ' + (rng.next() % 95) as u8) as char),
            }
            mutated.extend(&chars[i + 1..]);
            check(&mutated);
        }
    }
    assert!(
        parsed > 100,
        "the mutation sweep should leave many documents valid, got {parsed}"
    );
}
