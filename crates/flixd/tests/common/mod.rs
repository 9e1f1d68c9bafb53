//! Shared fixtures for the flixd integration tests: a small program
//! mixing relational closure with a lattice, hand-rolled language hooks
//! (the real surface language lives above this crate), and parity
//! helpers rendering models the way the daemon's `facts` op does.

// Each test binary compiles its own copy; not all of them use every
// fixture.
#![allow(dead_code)]

use flix_core::{
    BodyItem, Delta, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Term, Value, ValueLattice,
};
use flix_lattice::MinCost;
use flixd::Hooks;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds the test program: transitive closure over `Edge`, plus a
/// `Dist` shortest-hop lattice seeded at node 0, so updates exercise
/// both relational derivation and lattice ascent/retraction.
pub fn build_program(edges: &[(i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    let dist = b.lattice("Dist", 2, LatticeOps::of::<MinCost>());
    let step = b.function("step", |args| {
        MinCost::expect_from(&args[0]).add_weight(1).to_value()
    });
    for &(x, y) in edges {
        b.fact(edge, vec![x.into(), y.into()]);
    }
    b.fact(dist, vec![Value::from(0), MinCost::finite(0).to_value()]);
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    b.rule(
        Head::new(
            dist,
            [HeadTerm::var("y"), HeadTerm::app(step, [Term::var("d")])],
        ),
        [
            BodyItem::atom(dist, [Term::var("x"), Term::var("d")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y")]),
        ],
    );
    b.build().expect("the test program is valid")
}

/// Parses the test update syntax: one op per line, `+Pred v v ...` to
/// insert, `-Pred v v ...` to retract, integer columns only.
pub fn parse_update(text: &str) -> Result<Delta, String> {
    let mut delta = Delta::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (op, rest) = line.split_at(1);
        let mut parts = rest.split_whitespace();
        let predicate = parts.next().ok_or("missing predicate")?.to_string();
        let tuple = parts
            .map(|p| {
                p.parse::<i64>()
                    .map(Value::from)
                    .map_err(|_| format!("bad value {p:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        delta = match op {
            "+" => delta.insert(predicate, tuple),
            "-" => delta.retract(predicate, tuple),
            other => return Err(format!("bad op {other:?} (want + or -)")),
        };
    }
    Ok(delta)
}

/// Hooks speaking the test syntaxes: space-separated query patterns
/// (`Path 0 _`), ground atoms (`Path 0 2`), and [`parse_update`] text.
pub fn test_hooks() -> Hooks {
    Hooks {
        parse_query: Box::new(|text| {
            let mut parts = text.split_whitespace();
            let pred = parts.next().ok_or("empty query")?.to_string();
            let pattern = parts
                .map(|p| {
                    if p == "_" {
                        Ok(None)
                    } else {
                        p.parse::<i64>()
                            .map(|v| Some(Value::from(v)))
                            .map_err(|_| format!("bad term {p:?}"))
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((pred, pattern))
        }),
        parse_atom: Box::new(|text| {
            let mut parts = text.split_whitespace();
            let pred = parts.next().ok_or("empty atom")?.to_string();
            let values = parts
                .map(|p| {
                    p.parse::<i64>()
                        .map(Value::from)
                        .map_err(|_| format!("bad value {p:?}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((pred, values))
        }),
        compile_update: Box::new(parse_update),
    }
}

/// A unique scratch directory per call, under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("flixd-test-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A deterministic xorshift generator so stress schedules are seeded
/// and reproducible.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}
