//! Byte-level primitives shared by the snapshot and WAL formats: a
//! little-endian writer/reader pair, the CRC-32 frame checksum, the
//! [`Value`] codec, and the program fingerprint.
//!
//! Everything here is hand-rolled: the workspace is offline and takes no
//! serialization dependency. The encoding is deliberately boring —
//! little-endian fixed-width integers, length-prefixed UTF-8 strings,
//! one tag byte per [`Value`] variant — so that DESIGN.md §14 can
//! specify it exactly and the golden-snapshot fixture can pin it.

use crate::program::{CHead, CItem, CTerm, Program};
use crate::{Value, MAX_VALUE_DEPTH};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the frame
/// checksum of both persistence formats.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit — the hash behind [`program_fingerprint`]. Not a frame
/// checksum (CRC-32 plays that role); this one only needs to make
/// distinct programs collide with negligible probability.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Little-endian byte writer over a growable buffer.
#[derive(Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub(crate) fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `u32` byte length followed by the UTF-8 bytes.
    pub(crate) fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// One tag byte per variant, then the payload. Sets iterate in
    /// `BTreeSet` order, so equal values encode to equal bytes.
    ///
    /// # Panics
    ///
    /// Panics on a value nested deeper than [`MAX_VALUE_DEPTH`], which
    /// the reader refuses: every way a value enters a model holds it to
    /// the bound first, so no writer produces a frame the reader cannot
    /// read back.
    pub(crate) fn value(&mut self, v: &Value) {
        assert!(
            !v.is_too_deep(),
            "a value nested past MAX_VALUE_DEPTH reached the encoder"
        );
        self.value_unbounded(v);
    }

    /// [`ByteWriter::value`] at any depth: what a fingerprint, which is
    /// hashed and never read back, writes.
    fn value_unbounded(&mut self, v: &Value) {
        match v {
            Value::Unit => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(n) => {
                self.u8(2);
                self.i64(*n);
            }
            Value::Str(s) => {
                self.u8(3);
                self.string(s);
            }
            Value::Tag(name, payload) => {
                self.u8(4);
                self.string(name);
                self.value_unbounded(payload);
            }
            Value::Tuple(items) => {
                self.u8(5);
                self.u32(items.len() as u32);
                for item in items.iter() {
                    self.value_unbounded(item);
                }
            }
            Value::Set(items) => {
                self.u8(6);
                self.u32(items.len() as u32);
                for item in items.iter() {
                    self.value_unbounded(item);
                }
            }
        }
    }
}

/// A structural decoding failure: the byte offset it was detected at
/// plus a static description. Callers wrap it into the containing
/// frame's corruption error.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WireError {
    pub(crate) at: usize,
    pub(crate) what: &'static str,
}

/// Little-endian byte reader over a borrowed slice. Every read is
/// bounds-checked; a reader never panics on garbage input.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn err(&self, what: &'static str) -> WireError {
        WireError { at: self.pos, what }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.err("unexpected end of input"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn string(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(self.err("string length exceeds input"));
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError {
            at: self.pos - len,
            what: "string is not valid UTF-8",
        })
    }

    pub(crate) fn value(&mut self) -> Result<Value, WireError> {
        self.value_at_depth(0)
    }

    fn value_at_depth(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        match self.u8()? {
            0 => Ok(Value::Unit),
            1 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(self.err("boolean byte is neither 0 nor 1")),
            },
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Str(self.string()?.into())),
            4 => {
                let name: Arc<str> = self.string()?.into();
                let payload = self.value_at_depth(depth + 1)?;
                Ok(Value::Tag(name, Arc::new(payload)))
            }
            5 => {
                let count = self.u32()? as usize;
                // Every element takes at least its tag byte, so a count
                // beyond the remaining bytes is corruption, not work.
                if count > self.remaining() {
                    return Err(self.err("tuple length exceeds input"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value_at_depth(depth + 1)?);
                }
                Ok(Value::Tuple(items.into()))
            }
            6 => {
                let count = self.u32()? as usize;
                if count > self.remaining() {
                    return Err(self.err("set length exceeds input"));
                }
                let mut items = BTreeSet::new();
                for _ in 0..count {
                    items.insert(self.value_at_depth(depth + 1)?);
                }
                Ok(Value::Set(Arc::new(items)))
            }
            _ => Err(WireError {
                at: self.pos - 1,
                what: "unknown value tag",
            }),
        }
    }
}

/// A 64-bit fingerprint of a program's *identity*: predicate
/// declarations (names, arities, lattice names and bottoms), rule
/// shapes, and ground facts.
///
/// A snapshot or WAL records the fingerprint of the program it was
/// produced against, and loading rejects a file whose fingerprint does
/// not match — replaying deltas against the wrong program would
/// silently compute the wrong model. Index requests and other purely
/// operational settings are excluded: they change the evaluation plan,
/// never the model.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut w = ByteWriter::new();
    w.bytes(b"flix-program-v1");
    w.u32(program.num_predicates() as u32);
    for (_, decl) in program.predicates() {
        w.string(decl.name());
        w.u32(decl.arity() as u32);
        match decl.lattice_ops() {
            None => w.u8(0),
            Some(ops) => {
                w.u8(1);
                w.string(ops.name());
                w.value_unbounded(ops.bottom());
            }
        }
    }
    w.u32(program.rules.len() as u32);
    for rule in &program.rules {
        w.u32(rule.head_pred.0);
        w.u32(rule.head.len() as u32);
        for head in &rule.head {
            write_head(&mut w, program, head);
        }
        w.u32(rule.body.len() as u32);
        for item in &rule.body {
            write_item(&mut w, program, item);
        }
    }
    w.u32(program.facts.len() as u32);
    for (pred, tuple) in program.facts() {
        w.u32(pred.0);
        w.u32(tuple.len() as u32);
        for v in tuple {
            w.value_unbounded(v);
        }
    }
    fnv1a64(&w.into_bytes())
}

/// Functions are opaque closures; their registered name is the best
/// identity available. Deliberately *not* the registration index: a
/// front end is free to register the same functions in another order
/// (`flix_lang` registers them by name; it once followed hash-map
/// iteration order, which permuted the index between two compilations
/// of identical source), and the fingerprint must not move with it.
fn write_func(w: &mut ByteWriter, program: &Program, func: usize) {
    w.string(&program.funcs[func].name);
}

fn write_term(w: &mut ByteWriter, term: &CTerm) {
    match term {
        CTerm::Var(slot) => {
            w.u8(0);
            w.u32(*slot as u32);
        }
        CTerm::Lit(v) => {
            w.u8(1);
            w.value_unbounded(v);
        }
        CTerm::Wild => w.u8(2),
    }
}

fn write_head(w: &mut ByteWriter, program: &Program, head: &CHead) {
    match head {
        CHead::Var(slot) => {
            w.u8(0);
            w.u32(*slot as u32);
        }
        CHead::Lit(v) => {
            w.u8(1);
            w.value_unbounded(v);
        }
        CHead::App(func, args) => {
            w.u8(2);
            write_func(w, program, *func);
            w.u32(args.len() as u32);
            for arg in args {
                write_term(w, arg);
            }
        }
    }
}

fn write_item(w: &mut ByteWriter, program: &Program, item: &CItem) {
    match item {
        // `index_cols` is an evaluation plan, not program identity.
        CItem::Atom { pred, terms, .. } => {
            w.u8(0);
            w.u32(pred.0);
            w.u32(terms.len() as u32);
            for t in terms {
                write_term(w, t);
            }
        }
        CItem::NegAtom { pred, terms } => {
            w.u8(1);
            w.u32(pred.0);
            w.u32(terms.len() as u32);
            for t in terms {
                write_term(w, t);
            }
        }
        CItem::Filter { func, args } => {
            w.u8(2);
            write_func(w, program, *func);
            w.u32(args.len() as u32);
            for a in args {
                write_term(w, a);
            }
        }
        CItem::Choose { func, args, binds } => {
            w.u8(3);
            write_func(w, program, *func);
            w.u32(args.len() as u32);
            for a in args {
                write_term(w, a);
            }
            w.u32(binds.len() as u32);
            for b in binds {
                w.u32(*b as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_round_trips() {
        let values = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-42),
            Value::str("hello"),
            Value::tag("Some", Value::Int(7)),
            Value::tuple([Value::Int(1), Value::str("x")]),
            Value::set([Value::Int(3), Value::Int(1), Value::Int(2)]),
            Value::tag("Deep", Value::tuple([Value::set([Value::Unit])])),
        ];
        for v in &values {
            let mut w = ByteWriter::new();
            w.value(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&r.value().expect("decodes"), v);
            assert!(r.is_done());
        }
    }

    #[test]
    fn the_encoder_and_the_decoder_share_one_nesting_bound() {
        // `depth` levels: constructors around unit, or tuples around an
        // integer; a set and a tuple count as a level each.
        let tags = |depth: usize| (1..depth).fold(Value::tag0("L"), |v, _| Value::tag("N", v));
        let tuples = |depth: usize| (0..depth).fold(Value::Int(1), |v, _| Value::tuple([v]));
        let sets = |depth: usize| (0..depth).fold(Value::Unit, |v, _| Value::set([v]));
        for build in [tags, tuples, sets] {
            let at = build(MAX_VALUE_DEPTH);
            assert!(!at.is_too_deep());
            let mut w = ByteWriter::new();
            w.value(&at);
            let bytes = w.into_bytes();
            assert_eq!(ByteReader::new(&bytes).value().expect("decodes"), at);

            let past = build(MAX_VALUE_DEPTH + 1);
            assert!(past.is_too_deep());
            let mut w = ByteWriter::new();
            w.value_unbounded(&past);
            assert!(ByteReader::new(&w.into_bytes()).value().is_err());
            let refused = std::panic::catch_unwind(|| ByteWriter::new().value(&past));
            assert!(refused.is_err(), "the encoder asserts the bound");
        }
        // Empty collections add no level.
        assert!(!Value::tuple([tags(MAX_VALUE_DEPTH - 1), Value::set([])]).is_too_deep());
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        // Every prefix of a valid encoding fails cleanly.
        let mut w = ByteWriter::new();
        w.value(&Value::tag(
            "T",
            Value::tuple([Value::Int(1), Value::str("s")]),
        ));
        let bytes = w.into_bytes();
        for end in 0..bytes.len() {
            assert!(ByteReader::new(&bytes[..end]).value().is_err());
        }
        // Unknown tag byte.
        assert!(ByteReader::new(&[255]).value().is_err());
        // A nesting bomb: deep Tag chain.
        let mut bomb = Vec::new();
        for _ in 0..10_000 {
            bomb.push(4u8); // Tag
            bomb.extend_from_slice(&1u32.to_le_bytes());
            bomb.push(b't');
        }
        bomb.push(0); // innermost Unit
        assert!(ByteReader::new(&bomb).value().is_err());
        // A length lie: tuple claiming u32::MAX elements.
        let mut lie = vec![5u8];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ByteReader::new(&lie).value().is_err());
    }
}
