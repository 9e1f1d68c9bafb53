//! Helpers shared by the facade's parity suites.

pub mod golden;

use flix::lattice::rng::SmallRng;
use flix::lattice::MinCost;
use flix::{
    BodyItem, Head, HeadTerm, LatticeOps, Program, ProgramBuilder, Term, Value, ValueLattice,
};

/// A program [`random_program`] generated, and the draws that decide what
/// re-deriving a retracted fact of it takes.
pub struct RandomProgram {
    pub program: Program,
    /// The key columns of `Dist`.
    pub key_width: usize,
    /// Whether the choice rule is `Hop(p, q) :- …, (p, q) <- pairs(y, c)`,
    /// its head bound by the choice alone, not `Hop(x, z) :- …`.
    pub choice_binds_whole_head: bool,
}

/// One random weighted digraph plus derived-predicate program. The shape
/// is drawn from the seed: node/edge counts, weights, the lattice key
/// width, an optional weight filter, an optional second seed fact, and
/// the forms of the negated and choice rules. Without `negation` the
/// negated upper stratum is left out: the positive core, which a
/// retracting resume handles without falling back to a scratch solve.
pub fn random_program(seed: u64, negation: bool) -> RandomProgram {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = rng.gen_range(4i64..11);
    let num_edges = rng.gen_range(nodes..3 * nodes);
    let key_width = *[1usize, 1, 2, 2, 5]
        .get(rng.gen_range(0usize..5))
        .expect("in range");
    let with_filter = rng.gen_bool(0.5);
    let two_sources = rng.gen_bool(0.4);

    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let reach = b.relation("Reach", 1);
    let dist = b.lattice("Dist", key_width + 1, LatticeOps::of::<MinCost>());
    let extend = b.function("extend", |args| {
        let d = MinCost::expect_from(&args[0]);
        let c = args[1].as_int().expect("weight") as u64;
        d.add_weight(c).to_value()
    });
    let cheap = b.function("cheap", |args| {
        (args[0].as_int().expect("weight") <= 7).into()
    });

    for _ in 0..num_edges {
        let x = rng.gen_range(0i64..nodes);
        let y = rng.gen_range(0i64..nodes);
        let c = rng.gen_range(1i64..10);
        b.fact(edge, vec![x.into(), y.into(), c.into()]);
    }
    let mut sources = vec![rng.gen_range(0i64..nodes)];
    if two_sources {
        sources.push(rng.gen_range(0i64..nodes));
    }
    for &s in &sources {
        b.fact(reach, vec![s.into()]);
        let mut key: Vec<Value> = vec![Value::from(s); key_width];
        key.push(MinCost::finite(0).to_value());
        b.fact(dist, key);
    }

    // Reach(y) :- Reach(x), Edge(x, y, c) [, cheap(c)].
    let mut body = vec![
        BodyItem::atom(reach, [Term::var("x")]),
        BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
    ];
    if with_filter {
        body.push(BodyItem::filter(cheap, [Term::var("c")]));
    }
    b.rule(Head::new(reach, [HeadTerm::var("y")]), body);

    // Dist(y…, d + c) :- Dist(x…, d), Edge(x, y, c) — the key repeats
    // one node variable `key_width` times, so width 5 exercises the
    // plans' wide-key fallback while staying a shortest-path fixpoint.
    let mut head_terms: Vec<HeadTerm> = (0..key_width).map(|_| HeadTerm::var("y")).collect();
    head_terms.push(HeadTerm::app(extend, [Term::var("d"), Term::var("c")]));
    let mut dist_atom: Vec<Term> = vec![Term::var("x")];
    dist_atom.extend((1..key_width).map(|i| Term::var(format!("k{i}"))));
    dist_atom.push(Term::var("d"));
    b.rule(
        Head::new(dist, head_terms),
        [
            BodyItem::atom(dist, dist_atom),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
        ],
    );

    // The negated upper stratum. Its draws are made whether or not it is
    // added, so the positive core of a seed is the same program with and
    // without it.
    let ground_key = key_width == 1 || rng.gen_bool(0.5);
    let far_value = if rng.gen_bool(0.5) {
        Term::lit(MinCost::finite(rng.gen_range(1u64..12)).to_value())
    } else {
        Term::var("d")
    };
    if negation {
        let node = b.relation("Node", 1);
        let unreached = b.relation("Unreached", 1);
        let unsettled = b.relation("Unsettled", 1);
        let far = b.relation("Far", 2);
        for n in 0..nodes {
            b.fact(node, vec![n.into()]);
        }
        // Unreached(x) :- Node(x), !Reach(x).
        b.rule(
            Head::new(unreached, [HeadTerm::var("x")]),
            [
                BodyItem::atom(node, [Term::var("x")]),
                BodyItem::not(reach, [Term::var("x")]),
            ],
        );
        // Unsettled(x) :- Node(x), !Dist(x…, _): the key is either fully
        // ground (one cell lookup) or wildcarded past its first column (a
        // scan of the settled cells).
        let neg_key = |var: &str| -> Vec<Term> {
            let mut key = vec![Term::var(var)];
            key.extend((1..key_width).map(|_| {
                if ground_key {
                    Term::var(var)
                } else {
                    Term::Wildcard
                }
            }));
            key
        };
        let mut neg_dist = neg_key("x");
        neg_dist.push(Term::Wildcard);
        b.rule(
            Head::new(unsettled, [HeadTerm::var("x")]),
            [
                BodyItem::atom(node, [Term::var("x")]),
                BodyItem::not(dist, neg_dist),
            ],
        );
        // Far(x, y) :- Dist(x…, d), Edge(x, y, _), !Dist(y…, v) with v a
        // literal cost or the bound witness d.
        let mut far_dist: Vec<Term> = vec![Term::var("x"); key_width];
        far_dist.push(Term::var("d"));
        let mut neg_far = neg_key("y");
        neg_far.push(far_value);
        b.rule(
            Head::new(far, [HeadTerm::var("x"), HeadTerm::var("y")]),
            [
                BodyItem::atom(dist, far_dist),
                BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::Wildcard]),
                BodyItem::not(dist, neg_far),
            ],
        );
    }

    // The choice rule: Hop(x, z) :- Reach(x), Edge(x, y, c), z <- spread(y, c)
    // or, destructuring, Hop(p, q) :- …, (p, q) <- pairs(y, c).
    let hop = b.relation("Hop", 2);
    let hop_body = |choice: BodyItem| {
        [
            BodyItem::atom(reach, [Term::var("x")]),
            BodyItem::atom(edge, [Term::var("x"), Term::var("y"), Term::var("c")]),
            choice,
        ]
    };
    let choice_binds_whole_head = !rng.gen_bool(0.5);
    if !choice_binds_whole_head {
        let spread = b.function("spread", move |args| {
            let (y, c) = (
                args[0].as_int().expect("node"),
                args[1].as_int().expect("w"),
            );
            Value::set([Value::from(y), Value::from((y + c) % nodes)])
        });
        b.rule(
            Head::new(hop, [HeadTerm::var("x"), HeadTerm::var("z")]),
            hop_body(BodyItem::choose(
                spread,
                [Term::var("y"), Term::var("c")],
                "z",
            )),
        );
    } else {
        let pairs = b.function("pairs", |args| {
            let (y, c) = (args[0].clone(), args[1].clone());
            Value::set([Value::tuple([y.clone(), c.clone()]), Value::tuple([c, y])])
        });
        b.rule(
            Head::new(hop, [HeadTerm::var("p"), HeadTerm::var("q")]),
            hop_body(BodyItem::choose_tuple(
                pairs,
                [Term::var("y"), Term::var("c")],
                ["p", "q"],
            )),
        );
    }
    // Optionally close the loop, Reach(z) :- Hop(_, z), so the choice
    // sits inside the recursion and its delta variants run.
    if rng.gen_bool(0.5) {
        b.rule(
            Head::new(reach, [HeadTerm::var("z")]),
            [BodyItem::atom(hop, [Term::Wildcard, Term::var("z")])],
        );
    }

    RandomProgram {
        program: b.build().expect("the generated program is well-formed"),
        key_width,
        choice_binds_whole_head,
    }
}
