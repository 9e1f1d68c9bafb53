//! End-to-end tests of the surface language: parse → type check → lower →
//! solve, on the programs of the paper's figures.

use flix_core::{Solver, Strategy, Value};

/// The parity lattice prelude shared by several tests — essentially
/// lines 5–33 of Figure 2 of the paper.
const PARITY_PRELUDE: &str = r#"
    // the elements of the parity lattice.
    enum Parity {
      case Top,
      case Even, case Odd,
      case Bot
    }

    // the partial order of the parity lattice.
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

    // association of the lattice operations with the parity type.
    let Parity<> = (Parity.Bot, Parity.Top, leq, lub, glb);

    // monotone filter and transfer functions.
    def isMaybeZero(e: Parity): Bool =
      match e with {
        case Parity.Even => true
        case Parity.Top => true
        case _ => false
      }

    def sum(e1: Parity, e2: Parity): Parity =
      match (e1, e2) with {
        case (Parity.Bot, _) => Parity.Bot
        case (_, Parity.Bot) => Parity.Bot
        case (Parity.Top, _) => Parity.Top
        case (_, Parity.Top) => Parity.Top
        case (Parity.Even, Parity.Even) => Parity.Even
        case (Parity.Odd, Parity.Odd) => Parity.Even
        case _ => Parity.Odd
      }
"#;

fn v(s: &str) -> Value {
    Value::from(s)
}

fn parity(name: &str) -> Value {
    Value::tag0(name)
}

#[test]
fn figure_2_combined_points_to_and_dataflow() {
    // The full program of Figure 2: points-to rules plus the parity
    // dataflow rules plus the division-by-zero client.
    let source = format!(
        r#"{PARITY_PRELUDE}
        // declaration of relations.
        rel New(var: Str, obj: Str);
        rel Assign(lhs: Str, rhs: Str);
        rel Load(var: Str, base: Str, field: Str);
        rel Store(base: Str, field: Str, rhs: Str);
        rel VarPointsTo(var: Str, obj: Str);
        rel HeapPointsTo(obj: Str, field: Str, target: Str);
        rel Int(var: Str, val: Str);
        rel AddExp(res: Str, v1: Str, v2: Str);
        rel DivExp(res: Str, v1: Str, v2: Str);
        rel ArithmeticError(res: Str);

        // declaration of lattices.
        lat IntVar(var: Str, Parity<>);
        lat IntField(obj: Str, field: Str, Parity<>);

        // VarPointsTo and HeapPointsTo rules.
        VarPointsTo(v1, h1) :- New(v1, h1).
        VarPointsTo(v1, h2) :- Assign(v1, v2), VarPointsTo(v2, h2).
        VarPointsTo(v1, h2) :- Load(v1, v2, f),
                               VarPointsTo(v2, h1),
                               HeapPointsTo(h1, f, h2).
        HeapPointsTo(h1, f, h2) :- Store(v1, f, v2),
                                   VarPointsTo(v1, h1),
                                   VarPointsTo(v2, h2).

        // dataflow analysis rules (lines 49-56 of Figure 2); Int facts
        // seed parities directly here.
        IntVar(v, i) :- Assign(v, v2), IntVar(v2, i).
        IntVar(v, i) :- Load(v, v2, f),
                        VarPointsTo(v2, h),
                        IntField(h, f, i).
        IntField(h, f, i) :- Store(v1, f, v2),
                             VarPointsTo(v1, h),
                             IntVar(v2, i).

        // rule for addition of parity elements.
        IntVar(r, sum(i1, i2)) :- AddExp(r, v1, v2),
                                  IntVar(v1, i1),
                                  IntVar(v2, i2).

        // rule for potential division-by-zero errors.
        ArithmeticError(r) :- DivExp(r, v1, v2),
                              IntVar(v2, i2),
                              isMaybeZero(i2).

        // program facts: o stores an odd value into o.f; q loads it,
        // adds it to itself (odd + odd = even), and divides by the sum.
        New("o", "H").
        IntVar("a", Parity.Odd).
        Store("o", "f", "a").
        Load("b", "o", "f").
        AddExp("c", "b", "b").
        DivExp("d", "x", "c").
        DivExp("e", "x", "b").
        "#
    );
    let solution = flix_lang::run(&source).expect("compiles and solves");

    assert!(solution.contains("VarPointsTo", &[v("o"), v("H")]));
    assert_eq!(
        solution.lattice_value("IntField", &[v("H"), v("f")]),
        Some(parity("Odd"))
    );
    assert_eq!(
        solution.lattice_value("IntVar", &[v("b")]),
        Some(parity("Odd"))
    );
    // Odd + Odd = Even.
    assert_eq!(
        solution.lattice_value("IntVar", &[v("c")]),
        Some(parity("Even"))
    );
    // Dividing by c (Even, maybe zero) is flagged; by b (Odd) is not.
    assert!(solution.contains("ArithmeticError", &[v("d")]));
    assert!(!solution.contains("ArithmeticError", &[v("e")]));
}

#[test]
fn section_3_7_semi_naive_example() {
    let source = format!(
        r#"{PARITY_PRELUDE}
        lat A(Parity<>);
        lat B(Parity<>);
        lat R(Parity<>);
        A(Parity.Odd).
        B(Parity.Even).
        A(x) :- B(x).
        R(x) :- isMaybeZero(x), A(x).
        "#
    );
    let solution = flix_lang::run(&source).expect("compiles and solves");
    assert_eq!(solution.lattice_value("A", &[]), Some(parity("Top")));
    assert_eq!(solution.lattice_value("R", &[]), Some(parity("Top")));
}

#[test]
fn unary_lattice_predicates_join_facts() {
    // The §3.2 example: A(Even). A(Odd). B(Odd). → A(⊤), B(Odd).
    let source = format!(
        r#"{PARITY_PRELUDE}
        lat A(Parity<>);
        lat B(Parity<>);
        A(Parity.Even).
        A(Parity.Odd).
        B(Parity.Odd).
        "#
    );
    let solution = flix_lang::run(&source).expect("compiles and solves");
    assert_eq!(solution.lattice_value("A", &[]), Some(parity("Top")));
    assert_eq!(solution.lattice_value("B", &[]), Some(parity("Odd")));
}

#[test]
fn shortest_paths_section_4_4() {
    // §4.4 with the (N ∪ ∞, min) lattice encoded as an enum. The paper
    // writes `Dist(y, d + c)`; here the extension function is `plus`.
    let source = r#"
        enum Dist { case Fin(Int), case Inf }

        def leq(a: Dist, b: Dist): Bool =
          match (a, b) with {
            case (Dist.Inf, _) => true
            case (_, Dist.Inf) => false
            case (Dist.Fin(x), Dist.Fin(y)) => x >= y
          }

        def lub(a: Dist, b: Dist): Dist =
          match (a, b) with {
            case (Dist.Inf, x) => x
            case (x, Dist.Inf) => x
            case (Dist.Fin(x), Dist.Fin(y)) => if (x <= y) Dist.Fin(x) else Dist.Fin(y)
          }

        def glb(a: Dist, b: Dist): Dist =
          match (a, b) with {
            case (Dist.Inf, _) => Dist.Inf
            case (_, Dist.Inf) => Dist.Inf
            case (Dist.Fin(x), Dist.Fin(y)) => if (x >= y) Dist.Fin(x) else Dist.Fin(y)
          }

        let Dist<> = (Dist.Inf, Dist.Fin(0), leq, lub, glb);

        def plus(d: Dist, c: Int): Dist =
          match d with {
            case Dist.Inf => Dist.Inf
            case Dist.Fin(x) => Dist.Fin(x + c)
          }

        rel Edge(x: Str, y: Str, c: Int);
        lat Reach(node: Str, Dist<>);

        Reach("a", Dist.Fin(0)).
        Edge("a", "b", 1).
        Edge("b", "c", 1).
        Edge("c", "a", 1).
        Edge("a", "c", 5).

        Reach(y, plus(d, c)) :- Reach(x, d), Edge(x, y, c).
    "#;
    let solution = flix_lang::run(source).expect("compiles and solves");
    assert_eq!(
        solution.lattice_value("Reach", &[v("c")]),
        Some(Value::tag("Fin", Value::Int(2)))
    );
    assert_eq!(
        solution.lattice_value("Reach", &[v("a")]),
        Some(Value::tag("Fin", Value::Int(0)))
    );
}

#[test]
fn choice_bindings_from_surface_language() {
    let source = r#"
        def succs(n: Int): Set(Int) = if (n < 3) Set(n + 1, n + 2) else Set()

        rel Seed(n: Int);
        rel Reached(n: Int);

        Seed(0).
        Reached(n) :- Seed(n).
        Reached(m) :- Reached(n), m <- succs(n).
    "#;
    let solution = flix_lang::run(source).expect("compiles and solves");
    // 0 -> {1,2} -> {2,3,4} -> {3,4,5}? No: succs(3)=∅, succs(4)=∅.
    for n in 0..=4 {
        assert!(
            solution.contains("Reached", &[n.into()]),
            "node {n} must be reached"
        );
    }
    assert_eq!(solution.len("Reached"), Some(5));
}

#[test]
fn stratified_negation_from_surface_language() {
    let source = r#"
        rel Node(n: Int);
        rel Edge(x: Int, y: Int);
        rel Reach(n: Int);
        rel Unreach(n: Int);

        Node(1). Node(2). Node(3).
        Edge(1, 2).
        Reach(1).
        Reach(y) :- Reach(x), Edge(x, y).
        Unreach(n) :- Node(n), !Reach(n).
    "#;
    let solution = flix_lang::run(source).expect("compiles and solves");
    assert!(solution.contains("Unreach", &[3.into()]));
    assert!(!solution.contains("Unreach", &[2.into()]));
}

#[test]
fn naive_strategy_agrees_via_cli_path() {
    let source = r#"
        rel Edge(x: Int, y: Int);
        rel Path(x: Int, y: Int);
        Edge(1, 2). Edge(2, 3). Edge(3, 4).
        Path(x, y) :- Edge(x, y).
        Path(x, z) :- Path(x, y), Edge(y, z).
    "#;
    let program = flix_lang::compile(source).expect("compiles");
    let semi = Solver::new().solve(&program).expect("solves");
    let naive = Solver::new()
        .strategy(Strategy::Naive)
        .solve(&program)
        .expect("solves");
    assert_eq!(semi.len("Path"), naive.len("Path"));
    assert_eq!(semi.len("Path"), Some(6));
}

#[test]
fn type_errors_are_reported_with_positions() {
    let err = flix_lang::compile("rel A(x: Int);\nA(\"nope\").").expect_err("rejects");
    let msg = err.to_string();
    assert!(msg.contains("type error"), "{msg}");
    assert!(msg.contains("2:"), "position should be on line 2: {msg}");
}

#[test]
fn unstratifiable_surface_program_fails_at_solve_time() {
    let source = r#"
        rel N(x: Int);
        rel A(x: Int);
        rel B(x: Int);
        N(1).
        A(x) :- N(x), !B(x).
        B(x) :- N(x), !A(x).
    "#;
    let program = flix_lang::compile(source).expect("compiles");
    let err = Solver::new().solve(&program).expect_err("not stratifiable");
    assert!(err.to_string().contains("not stratifiable"));
}

/// Engine function ids are positions in registration order, and they
/// appear in compiled rules: two compilations of one source must number
/// the `def`s alike, whatever order a hash map hands them over in.
#[test]
fn two_compilations_register_functions_in_the_same_order() {
    let source = "
        def zeta(x: Int): Int = x + 1
        def alpha(x: Int): Bool = x > 0
        def mid(x: Int): Int = x * 2
        def kappa(x: Int): Int = x - 1
        def beta(x: Int): Bool = x < 9
        def omega(x: Int): Int = x
        def delta(x: Int): Int = x / 2
        def gamma(x: Int): Int = x % 3
        rel P(x: Int);
        rel Q(x: Int);
        P(1).
        Q(zeta(x)) :- P(x), alpha(x), beta(x).
    ";
    // `Program` prints its function table in id order.
    let function_order = |program: &flix_core::Program| -> Vec<String> {
        let printed = format!("{program:?}");
        let names = printed.split("FuncDef(").skip(1);
        names
            .map(|rest| rest[..rest.find(')').expect("closing paren")].to_string())
            .collect()
    };
    let first = function_order(&flix_lang::compile(source).expect("compiles"));
    let second = function_order(&flix_lang::compile(source).expect("compiles"));
    assert_eq!(first, second);
    assert_eq!(
        first,
        ["alpha", "beta", "delta", "gamma", "kappa", "mid", "omega", "zeta"]
    );
}
