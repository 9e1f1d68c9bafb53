//! Quickstart: build and solve a FLIX program two ways — through the Rust
//! API and through the surface language — and watch a lattice at work.
//!
//! Run with `cargo run -p flix --example quickstart`.

use flix::core::ValueLattice;
use flix::lattice::Parity;
use flix::{BodyItem, Head, HeadTerm, LatticeOps, ProgramBuilder, Solver, Term, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Plain Datalog through the Rust API -------------------------
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 2);
    let path = b.relation("Path", 2);
    for (x, y) in [(1, 2), (2, 3), (3, 4)] {
        b.fact(edge, vec![x.into(), y.into()]);
    }
    // Path(x, y) :- Edge(x, y).
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("y")]),
        [BodyItem::atom(edge, [Term::var("x"), Term::var("y")])],
    );
    // Path(x, z) :- Path(x, y), Edge(y, z).
    b.rule(
        Head::new(path, [HeadTerm::var("x"), HeadTerm::var("z")]),
        [
            BodyItem::atom(path, [Term::var("x"), Term::var("y")]),
            BodyItem::atom(edge, [Term::var("y"), Term::var("z")]),
        ],
    );
    let solution = Solver::new().solve(&b.build()?)?;
    // 1→2, 2→3, 3→4, 1→3, 2→4, 1→4.
    assert_eq!(
        solution.len("Path"),
        Some(6),
        "the closure of a 4-node chain"
    );
    println!(
        "transitive closure has {} paths:",
        solution.len("Path").unwrap_or(0)
    );
    for row in solution.relation("Path").expect("declared") {
        println!("  Path({}, {})", row[0], row[1]);
    }

    // ---- 2. Beyond Datalog: a lattice predicate -------------------------
    // Two facts about the same cell join in the parity lattice.
    let mut b = ProgramBuilder::new();
    let obs = b.lattice("Observed", 2, LatticeOps::of::<Parity>());
    b.fact(obs, vec![Value::from("x"), Parity::Even.to_value()]);
    b.fact(obs, vec![Value::from("x"), Parity::Odd.to_value()]);
    b.fact(obs, vec![Value::from("y"), Parity::Odd.to_value()]);
    let solution = Solver::new().solve(&b.build()?)?;
    println!("\nlattice cells (Even ⊔ Odd = ⊤):");
    let mut cells = Vec::new();
    for (key, value) in solution.lattice("Observed").expect("declared") {
        println!("  Observed({}) = {}", key[0], value);
        cells.push((key[0].clone(), value.clone()));
    }
    cells.sort();
    assert_eq!(
        cells,
        [
            (Value::from("x"), Parity::Top.to_value()),
            (Value::from("y"), Parity::Odd.to_value()),
        ],
        "Even ⊔ Odd = ⊤ at x; Odd alone at y"
    );

    // ---- 3. The same idea in the FLIX surface language ------------------
    let source = r#"
        rel Edge(x: Int, y: Int);
        rel Path(x: Int, y: Int);
        Edge(10, 20). Edge(20, 30).
        Path(x, y) :- Edge(x, y).
        Path(x, z) :- Path(x, y), Edge(y, z).
    "#;
    let program = flix::compile(source)?;
    let solution = Solver::new().solve(&program)?;
    let derived = solution.contains("Path", &[10.into(), 30.into()]);
    println!("\nsurface language: Path(10, 30) derived? {derived}");
    assert!(
        derived,
        "Path(10, 30) follows from Edge(10, 20), Edge(20, 30)"
    );
    Ok(())
}
