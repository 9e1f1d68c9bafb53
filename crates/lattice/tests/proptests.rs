//! Property-based tests for the lattice instances whose carriers are too
//! large to enumerate: intervals, constants, min-costs, powersets and IDE
//! micro-functions.
//!
//! Randomised with the in-tree deterministic [`SmallRng`] (seeded loops)
//! rather than an external property-testing framework, so the suite runs
//! without network access.

use flix_lattice::rng::SmallRng;
use flix_lattice::{Constant, Flat, Interval, Lattice, MinCost, PowerSet, SuLattice, Transformer};

const CASES: usize = 300;

fn arb_constant(rng: &mut SmallRng) -> Constant {
    match rng.gen_range(0u8..3) {
        0 => Flat::Bot,
        1 => Flat::Top,
        _ => Constant::cst(rng.gen_range(-50i64..50)),
    }
}

fn arb_interval(rng: &mut SmallRng) -> Interval {
    if rng.gen_bool(0.2) {
        Interval::Bot
    } else {
        let lo = rng.gen_range(-100i64..100);
        let len = rng.gen_range(0i64..100);
        Interval::of(lo, lo + len)
    }
}

fn arb_mincost(rng: &mut SmallRng) -> MinCost {
    if rng.gen_bool(0.2) {
        MinCost::INFINITY
    } else {
        MinCost::finite(rng.gen_range(0u64..1000))
    }
}

fn arb_powerset(rng: &mut SmallRng) -> PowerSet<u8> {
    if rng.gen_bool(0.15) {
        PowerSet::Univ
    } else {
        let n = rng.gen_range(0usize..6);
        (0..n)
            .map(|_| rng.gen_range(0u8..10))
            .collect::<PowerSet<u8>>()
    }
}

fn arb_su(rng: &mut SmallRng) -> SuLattice {
    match rng.gen_range(0u8..3) {
        0 => SuLattice::Bottom,
        1 => SuLattice::Top,
        _ => {
            let i = rng.gen_range(0u8..6);
            SuLattice::single(format!("obj{i}"))
        }
    }
}

fn arb_transformer(rng: &mut SmallRng) -> Transformer {
    match rng.gen_range(0u8..3) {
        0 => Transformer::Bot,
        1 => Transformer::top_transformer(),
        _ => Transformer::non_bot(
            rng.gen_range(-5i64..5),
            rng.gen_range(-5i64..5),
            arb_constant(rng),
        ),
    }
}

/// Generates the core lattice-law properties for a given generator.
macro_rules! lattice_props {
    ($modname:ident, $gen:path, $ty:ty, $seed:expr) => {
        mod $modname {
            use super::*;

            #[test]
            fn lub_commutes() {
                let mut rng = SmallRng::seed_from_u64($seed);
                for _ in 0..CASES {
                    let (a, b) = ($gen(&mut rng), $gen(&mut rng));
                    assert_eq!(a.lub(&b), b.lub(&a), "a={a:?} b={b:?}");
                }
            }

            #[test]
            fn lub_is_idempotent() {
                let mut rng = SmallRng::seed_from_u64($seed + 1);
                for _ in 0..CASES {
                    let a = $gen(&mut rng);
                    assert_eq!(a.lub(&a), a, "a={a:?}");
                }
            }

            #[test]
            fn lub_associates() {
                let mut rng = SmallRng::seed_from_u64($seed + 2);
                for _ in 0..CASES {
                    let (a, b, c) = ($gen(&mut rng), $gen(&mut rng), $gen(&mut rng));
                    assert_eq!(
                        a.lub(&b).lub(&c),
                        a.lub(&b.lub(&c)),
                        "a={a:?} b={b:?} c={c:?}"
                    );
                }
            }

            #[test]
            fn lub_is_upper_bound() {
                let mut rng = SmallRng::seed_from_u64($seed + 3);
                for _ in 0..CASES {
                    let (a, b) = ($gen(&mut rng), $gen(&mut rng));
                    let j = a.lub(&b);
                    assert!(a.leq(&j) && b.leq(&j), "a={a:?} b={b:?} j={j:?}");
                }
            }

            #[test]
            fn glb_is_lower_bound() {
                let mut rng = SmallRng::seed_from_u64($seed + 4);
                for _ in 0..CASES {
                    let (a, b) = ($gen(&mut rng), $gen(&mut rng));
                    let m = a.glb(&b);
                    assert!(m.leq(&a) && m.leq(&b), "a={a:?} b={b:?} m={m:?}");
                }
            }

            #[test]
            fn bottom_is_least() {
                let mut rng = SmallRng::seed_from_u64($seed + 5);
                for _ in 0..CASES {
                    let a = $gen(&mut rng);
                    assert!(<$ty as Lattice>::bottom().leq(&a), "a={a:?}");
                }
            }

            #[test]
            fn leq_antisymmetric() {
                let mut rng = SmallRng::seed_from_u64($seed + 6);
                for _ in 0..CASES {
                    let (a, b) = ($gen(&mut rng), $gen(&mut rng));
                    if a.leq(&b) && b.leq(&a) {
                        assert_eq!(a, b, "a={a:?} b={b:?}");
                    }
                }
            }

            #[test]
            fn leq_transitive() {
                let mut rng = SmallRng::seed_from_u64($seed + 7);
                for _ in 0..CASES {
                    let (a, b, c) = ($gen(&mut rng), $gen(&mut rng), $gen(&mut rng));
                    if a.leq(&b) && b.leq(&c) {
                        assert!(a.leq(&c), "a={a:?} b={b:?} c={c:?}");
                    }
                }
            }

            #[test]
            fn absorption() {
                let mut rng = SmallRng::seed_from_u64($seed + 8);
                for _ in 0..CASES {
                    let (a, b) = ($gen(&mut rng), $gen(&mut rng));
                    assert_eq!(a.lub(&a.glb(&b)), a.clone(), "a={a:?} b={b:?}");
                    assert_eq!(a.glb(&a.lub(&b)), a, "a={a:?} b={b:?}");
                }
            }
        }
    };
}

lattice_props!(constant_laws, super::arb_constant, Constant, 0x01);
lattice_props!(interval_laws, super::arb_interval, Interval, 0x100);
lattice_props!(mincost_laws, super::arb_mincost, MinCost, 0x200);
lattice_props!(powerset_laws, super::arb_powerset, PowerSet<u8>, 0x300);
lattice_props!(su_laws, super::arb_su, SuLattice, 0x500);
lattice_props!(transformer_laws, super::arb_transformer, Transformer, 0x600);

/// Interval arithmetic is sound: γ(a) + γ(b) ⊆ γ(a.sum(b)), etc.
#[test]
fn interval_sum_sound() {
    let mut rng = SmallRng::seed_from_u64(0x700);
    for _ in 0..CASES {
        let a = rng.gen_range(-50i64..50);
        let b = rng.gen_range(-50i64..50);
        let wa = rng.gen_range(0i64..5);
        let wb = rng.gen_range(0i64..5);
        let ia = Interval::of(a, a + wa);
        let ib = Interval::of(b, b + wb);
        for x in a..=a + wa {
            for y in b..=b + wb {
                assert!(ia.sum(&ib).contains(x + y));
                assert!(ia.product(&ib).contains(x * y));
            }
        }
    }
}

/// Constant propagation arithmetic agrees with concrete arithmetic.
#[test]
fn constant_arith_exact() {
    let mut rng = SmallRng::seed_from_u64(0x701);
    for _ in 0..CASES {
        let a = rng.gen_range(-100i64..100);
        let b = rng.gen_range(-100i64..100);
        assert_eq!(
            Constant::cst(a).sum(&Constant::cst(b)),
            Constant::cst(a + b)
        );
        assert_eq!(
            Constant::cst(a).product(&Constant::cst(b)),
            Constant::cst(a * b)
        );
    }
}

/// Transformer composition is pointwise function composition.
#[test]
fn transformer_comp_pointwise() {
    let mut rng = SmallRng::seed_from_u64(0x702);
    for _ in 0..CASES {
        let f = arb_transformer(&mut rng);
        let g = arb_transformer(&mut rng);
        let l = arb_constant(&mut rng);
        let h = Transformer::comp(&f, &g);
        assert_eq!(
            h.apply(&l),
            g.apply(&f.apply(&l)),
            "f={f:?} g={g:?} l={l:?}"
        );
    }
}

/// Transformer lub is a sound pointwise upper bound.
#[test]
fn transformer_lub_pointwise_sound() {
    let mut rng = SmallRng::seed_from_u64(0x703);
    for _ in 0..CASES {
        let f = arb_transformer(&mut rng);
        let g = arb_transformer(&mut rng);
        let l = arb_constant(&mut rng);
        let j = f.lub(&g);
        assert!(
            f.apply(&l).lub(&g.apply(&l)).leq(&j.apply(&l)),
            "f={f:?} g={g:?} l={l:?}"
        );
    }
}

/// Transformer leq is pointwise sound.
#[test]
fn transformer_leq_pointwise_sound() {
    let mut rng = SmallRng::seed_from_u64(0x704);
    for _ in 0..CASES {
        let f = arb_transformer(&mut rng);
        let g = arb_transformer(&mut rng);
        let l = arb_constant(&mut rng);
        if f.leq(&g) {
            assert!(f.apply(&l).leq(&g.apply(&l)), "f={f:?} g={g:?} l={l:?}");
        }
    }
}

/// MinCost::add is commutative, associative, and monotone.
#[test]
fn mincost_add_algebra() {
    let mut rng = SmallRng::seed_from_u64(0x705);
    for _ in 0..CASES {
        let a = arb_mincost(&mut rng);
        let b = arb_mincost(&mut rng);
        let c = arb_mincost(&mut rng);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        if a.leq(&b) {
            assert!(a.add(&c).leq(&b.add(&c)));
        }
    }
}
