//! Test-only assertions that hold this crate's typed lattices to the
//! complete-lattice laws, and their operations to strictness and
//! monotonicity (§3.3, §7 of the paper).
//!
//! `flix_core::verify` is the law checker a program meets: it runs on a
//! lattice's engine operations, and its test module holds every engine
//! lattice to these laws through those operations. This crate's unit tests
//! cannot call it, as `flix_core` depends on this crate, so these
//! assertions check the typed [`Lattice`] impls directly. Each panics at
//! the first witness it finds.

use crate::Lattice;

/// Asserts the complete-lattice laws over `elems`.
///
/// When `elems` enumerates a finite lattice the check is exhaustive; on a
/// sample of an infinite one, `lub` must be below every sampled upper
/// bound and `glb` above every sampled lower bound. `O(n^3)` comparisons.
pub(crate) fn assert_lattice_laws<L: Lattice>(elems: &[L]) {
    let bot = L::bottom();
    for a in elems {
        assert!(a.leq(a), "leq not reflexive at {a:?}");
        assert!(bot.leq(a), "bottom is not below {a:?}");
        for b in elems {
            assert!(
                !(a.leq(b) && b.leq(a)) || a == b,
                "leq not antisymmetric at {a:?}, {b:?}"
            );
            let (j, m) = (a.lub(b), a.glb(b));
            assert!(
                a.leq(&j) && b.leq(&j),
                "lub({a:?}, {b:?}) is not an upper bound"
            );
            assert!(
                m.leq(a) && m.leq(b),
                "glb({a:?}, {b:?}) is not a lower bound"
            );
            for c in elems {
                assert!(
                    !(a.leq(b) && b.leq(c)) || a.leq(c),
                    "leq not transitive at {a:?} ⊑ {b:?} ⊑ {c:?}"
                );
                assert!(
                    !(a.leq(c) && b.leq(c)) || j.leq(c),
                    "lub({a:?}, {b:?}) is not least: {c:?} is a smaller upper bound"
                );
                assert!(
                    !(c.leq(a) && c.leq(b)) || c.leq(&m),
                    "glb({a:?}, {b:?}) is not greatest: {c:?} is a larger lower bound"
                );
            }
        }
    }
}

/// Asserts that a binary function returns `⊥` whenever either argument,
/// drawn from `elems`, is `⊥`.
pub(crate) fn assert_strict_binary<L: Lattice, M: Lattice>(elems: &[L], f: impl Fn(&[L]) -> M) {
    for a in elems {
        for b in elems {
            let args = [a.clone(), b.clone()];
            if a.is_bottom() || b.is_bottom() {
                assert!(f(&args).is_bottom(), "function not strict on {args:?}");
            }
        }
    }
}

/// Asserts that a binary function is monotone in each argument over all
/// argument pairs drawn from `elems`.
pub(crate) fn assert_monotone_binary<L: Lattice, M: Lattice>(elems: &[L], f: impl Fn(&[L]) -> M) {
    for a in elems {
        for b in elems {
            let base = f(&[a.clone(), b.clone()]);
            for e in elems {
                for args in [[e.clone(), b.clone()], [a.clone(), e.clone()]] {
                    if [a, b].iter().zip(&args).all(|(lo, hi)| lo.leq(hi)) {
                        assert!(
                            base.leq(&f(&args)),
                            "function not monotone from {:?} to {args:?}",
                            [a, b]
                        );
                    }
                }
            }
        }
    }
}

/// Asserts that a boolean-valued filter is monotone over `false < true`.
pub(crate) fn assert_monotone_filter<L: Lattice>(elems: &[L], f: impl Fn(&L) -> bool) {
    for a in elems {
        for b in elems {
            assert!(
                !(a.leq(b) && f(a)) || f(b),
                "filter not monotone on {a:?} ⊑ {b:?}"
            );
        }
    }
}
