//! The IDE micro-function lattice (§4.3 of the paper, Figure 7).

use crate::{Constant, Flat, HasTop, Lattice};
use std::fmt;

/// The micro-function lattice `F` of the IDE linear constant propagation
/// example (§4.3, Figure 7).
///
/// Elements represent certain functions from the constant propagation
/// lattice `V` to itself:
///
/// * [`Transformer::Bot`] is `λl.⊥`,
/// * [`Transformer::non_bot(a, b, c)`](Transformer::non_bot) is
///   `λl.(a·l + b) ⊔ c`, where `a`, `b` are integers and `c ∈ V`.
///
/// Values are kept in a normal form: every function with `c = ⊤` is
/// pointwise equal to `λl.⊤`, so it is canonicalised to
/// `NonBot(0, 0, ⊤)`. With that normalisation, [`Lattice::lub`] (which
/// over-approximates the pointwise join of two incomparable linear maps by
/// `λl.⊤`, exactly as IDE implementations do) is idempotent, commutative
/// and associative, so `(F, ⊑, ⊔)` defined by `x ⊑ y ⇔ x ⊔ y = y` is a
/// genuine finite-height lattice — see the property tests.
///
/// [`Transformer::comp`] is the composition operation of Figure 7,
/// transcribed case for case, and [`Transformer::apply`] evaluates the
/// represented micro-function on a lattice value.
///
/// # Example
///
/// ```
/// use flix_lattice::{Constant, Transformer};
///
/// // λl. 2·l + 1, then λl. 3·l  ==>  λl. 6·l + 3
/// let f = Transformer::linear(2, 1);
/// let g = Transformer::linear(3, 0);
/// let h = Transformer::comp(&f, &g);
/// assert_eq!(h.apply(&Constant::cst(5)), Constant::cst(33));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Transformer {
    /// The function `λl.⊥` (least element).
    #[default]
    Bot,
    /// The function `λl.(a·l + b) ⊔ c`. Use [`Transformer::non_bot`] to
    /// construct values in normal form.
    NonBot {
        /// The multiplicative coefficient `a`.
        a: i64,
        /// The additive coefficient `b`.
        b: i64,
        /// The constant join component `c`.
        c: Constant,
    },
}

impl Transformer {
    /// Creates `λl.(a·l + b) ⊔ c` in normal form.
    pub fn non_bot(a: i64, b: i64, c: Constant) -> Self {
        if c == Flat::Top {
            Transformer::NonBot {
                a: 0,
                b: 0,
                c: Flat::Top,
            }
        } else {
            Transformer::NonBot { a, b, c }
        }
    }

    /// Creates the pure linear function `λl.a·l + b`.
    pub fn linear(a: i64, b: i64) -> Self {
        Transformer::non_bot(a, b, Flat::Bot)
    }

    /// The identity micro-function `λl.l`, used by the third IDE rule of
    /// Figure 6 (`JumpFn(d3, start, d3, identity())`).
    pub fn identity() -> Self {
        Transformer::linear(1, 0)
    }

    /// The constant micro-function `λl.⊤` (greatest element).
    pub fn top_transformer() -> Self {
        Transformer::non_bot(0, 0, Flat::Top)
    }

    /// The constant micro-function `λl.k`, loading the constant `k`.
    ///
    /// Represented as `NonBot(0, k, Cst(k))` — exactly the form Figure 7
    /// produces when composing the bottom transformer with a function whose
    /// constant component is `Cst(k)` — so that it yields `k` even on `⊥`.
    pub fn constant(k: i64) -> Self {
        Transformer::non_bot(0, k, Flat::Val(k))
    }

    /// Evaluates the represented micro-function on `l`.
    ///
    /// The linear part `a·l + b` uses the strict abstract arithmetic of
    /// [`Constant`], so `apply(⊥) = ⊥ ⊔ c = c`.
    pub fn apply(&self, l: &Constant) -> Constant {
        match self {
            Transformer::Bot => Flat::Bot,
            Transformer::NonBot { a, b, c } => {
                let linear = Constant::cst(*a).product(l).sum(&Constant::cst(*b));
                linear.lub(c)
            }
        }
    }

    /// Function composition, applied *first-then-second*: the result is
    /// `second ∘ first`. This is the `comp` operation of Figure 7 of the
    /// paper, transcribed case for case (the figure's `t1` is `first` and
    /// `t2` is `second`; its case order binds `(a2, b2, c2)` to `first`).
    pub fn comp(first: &Transformer, second: &Transformer) -> Transformer {
        use Transformer::*;
        match (first, second) {
            // case (_, BotTransformer) => BotTransformer
            (_, Bot) => Bot,
            // case (BotTransformer, NonBotTransformer(a, b, c)) =>
            //   composing after λl.⊥ yields the constant function λl.c.
            (Bot, NonBot { c, .. }) => match c {
                Flat::Bot => Bot,
                Flat::Val(k) => Transformer::non_bot(0, *k, Flat::Val(*k)),
                Flat::Top => Transformer::non_bot(0, 0, Flat::Top),
            },
            // case (NonBot(a2,b2,c2), NonBot(a1,b1,c1)) =>
            //   NonBot(a1*a2, a1*b2 + b1, (c2*a1 + b1) ⊔ c1)
            (
                NonBot {
                    a: a2,
                    b: b2,
                    c: c2,
                },
                NonBot {
                    a: a1,
                    b: b1,
                    c: c1,
                },
            ) => {
                let lifted = c2
                    .product(&Constant::cst(*a1))
                    .sum(&Constant::cst(*b1))
                    .lub(c1);
                Transformer::non_bot(
                    a1.wrapping_mul(*a2),
                    a1.wrapping_mul(*b2).wrapping_add(*b1),
                    lifted,
                )
            }
        }
    }
}

impl Lattice for Transformer {
    fn bottom() -> Self {
        Transformer::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        self.lub(other) == *other
    }

    fn lub(&self, other: &Self) -> Self {
        use Transformer::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => *x,
            (
                NonBot {
                    a: a1,
                    b: b1,
                    c: c1,
                },
                NonBot {
                    a: a2,
                    b: b2,
                    c: c2,
                },
            ) => {
                if a1 == a2 && b1 == b2 {
                    Transformer::non_bot(*a1, *b1, c1.lub(c2))
                } else {
                    // Two distinct linear maps agree on at most one point;
                    // their pointwise join is not representable, so we
                    // over-approximate by λl.⊤ (standard IDE practice).
                    Transformer::top_transformer()
                }
            }
        }
    }

    fn glb(&self, other: &Self) -> Self {
        use Transformer::*;
        let top = Transformer::top_transformer();
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            _ if *self == top => *other,
            _ if *other == top => *self,
            (
                NonBot {
                    a: a1,
                    b: b1,
                    c: c1,
                },
                NonBot {
                    a: a2,
                    b: b2,
                    c: c2,
                },
            ) => {
                if a1 == a2 && b1 == b2 {
                    Transformer::non_bot(*a1, *b1, c1.glb(c2))
                } else {
                    Bot
                }
            }
        }
    }
}

impl HasTop for Transformer {
    fn top() -> Self {
        Transformer::top_transformer()
    }
}

impl fmt::Display for Transformer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformer::Bot => f.write_str("λl.⊥"),
            Transformer::NonBot { a, b, c } => write!(f, "λl.({a}·l + {b}) ⊔ {c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn sample() -> Vec<Transformer> {
        let mut v = vec![
            Transformer::Bot,
            Transformer::top_transformer(),
            Transformer::identity(),
        ];
        for a in [-1i64, 0, 1, 2] {
            for b in [-1i64, 0, 1] {
                v.push(Transformer::linear(a, b));
                v.push(Transformer::non_bot(a, b, Constant::cst(1)));
            }
        }
        v
    }

    #[test]
    fn lattice_laws_on_sample() {
        laws::assert_lattice_laws(&sample());
    }

    #[test]
    fn top_is_normalised() {
        assert_eq!(
            Transformer::non_bot(7, -3, Flat::Top),
            Transformer::top_transformer()
        );
    }

    #[test]
    fn identity_applies_as_identity() {
        for l in [Flat::Bot, Constant::cst(5), Flat::Top] {
            assert_eq!(Transformer::identity().apply(&l), l);
        }
    }

    #[test]
    fn comp_matches_pointwise_composition() {
        let points: Vec<Constant> = [Flat::Bot, Flat::Top]
            .into_iter()
            .chain((-3..=3).map(Constant::cst))
            .collect();
        for f in sample() {
            for g in sample() {
                let h = Transformer::comp(&f, &g);
                for l in &points {
                    assert_eq!(h.apply(l), g.apply(&f.apply(l)), "comp({f}, {g}) at {l}");
                }
            }
        }
    }

    #[test]
    fn comp_with_identity_is_neutral() {
        for t in sample() {
            assert_eq!(Transformer::comp(&t, &Transformer::identity()), t);
        }
    }

    #[test]
    fn comp_is_associative_on_sample() {
        let s = sample();
        for f in &s {
            for g in &s {
                for h in &s {
                    let left = Transformer::comp(&Transformer::comp(f, g), h);
                    let right = Transformer::comp(f, &Transformer::comp(g, h));
                    // Compare pointwise: the representations may differ
                    // only where both denote the same function.
                    for l in [Flat::Bot, Constant::cst(-2), Constant::cst(3), Flat::Top] {
                        assert_eq!(left.apply(&l), right.apply(&l));
                    }
                }
            }
        }
    }

    #[test]
    fn lub_is_pointwise_sound() {
        let points: Vec<Constant> = [Flat::Bot, Flat::Top]
            .into_iter()
            .chain((-3..=3).map(Constant::cst))
            .collect();
        for f in sample() {
            for g in sample() {
                let j = f.lub(&g);
                for l in &points {
                    let pw = f.apply(l).lub(&g.apply(l));
                    assert!(pw.leq(&j.apply(l)), "lub({f}, {g}) unsound at {l}");
                }
            }
        }
    }

    #[test]
    fn incomparable_linear_maps_join_to_top() {
        let f = Transformer::linear(1, 0);
        let g = Transformer::linear(2, 0);
        assert_eq!(f.lub(&g), Transformer::top_transformer());
        assert_eq!(f.glb(&g), Transformer::Bot);
    }

    #[test]
    fn constant_loader_is_truly_constant() {
        let five = Transformer::constant(5);
        for l in [Flat::Bot, Constant::cst(99), Flat::Top] {
            assert_eq!(five.apply(&l), Constant::cst(5));
        }
    }
}
