//! The front end's fact path, end to end: what a fact in the source
//! becomes in the engine program, what a printed model reads back as, and
//! which error a source with several wrong constraints reports.

use flix_core::{Program, ProgramBuilder, Solver, Value};
use flix_lang::ast::{Decl, Lit, RuleTerm, SourceProgram};
use flix_lang::{check, compile, lower, parse, pretty};
use std::fmt::Write as _;
use std::sync::Arc;

/// `program`'s facts as `(predicate name, tuple)`, in order.
fn facts_of(program: &Program) -> Vec<(String, Vec<Value>)> {
    program
        .facts()
        .map(|(pred, tuple)| (program.decl(pred).name().to_string(), tuple.to_vec()))
        .collect()
}

/// A ground term's value, evaluated here from the AST alone.
fn value_of(term: &RuleTerm) -> Value {
    match term {
        RuleTerm::Lit(Lit::Unit, _) => Value::Unit,
        RuleTerm::Lit(Lit::Bool(b), _) => Value::Bool(*b),
        RuleTerm::Lit(Lit::Int(n), _) => Value::Int(*n),
        RuleTerm::Lit(Lit::Str(s), _) => Value::str(s),
        RuleTerm::Ctor { case, args, .. } => {
            let payload = match args.as_slice() {
                [] => Value::Unit,
                [one] => value_of(one),
                many => Value::tuple(many.iter().map(value_of)),
            };
            Value::tag(case.as_str(), payload)
        }
        other => panic!("a fact term must be ground: {other:?}"),
    }
}

/// The facts of a source, read off its AST in source order.
fn facts_in_source(parsed: &SourceProgram) -> Vec<(String, Vec<Value>)> {
    parsed
        .decls
        .iter()
        .filter_map(|decl| match decl {
            Decl::Constraint(c) if c.body.is_empty() => Some((
                c.head.pred.clone(),
                c.head.terms.iter().map(value_of).collect(),
            )),
            _ => None,
        })
        .collect()
}

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/flix/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn example_facts_lower_to_the_tuples_the_source_spells() {
    let sources = [
        example("parity.flix"),
        example("shortest_paths.flix"),
        example("tall_chain.flix"),
        example("graph_rules.flix") + "\n" + &example("graph_facts.flix"),
    ];
    for src in &sources {
        let expected = facts_in_source(&parse(src).expect("parses"));
        assert!(!expected.is_empty());
        let program = compile(src).expect("compiles");
        assert_eq!(facts_of(&program), expected);
    }
}

#[test]
fn generated_facts_lower_as_the_builder_api_adds_them() {
    let mut src = String::from(
        "rel Edge(x: Str, y: Str, c: Int);\n\
         rel Node(n: Int, ok: Bool);\n",
    );
    let mut b = ProgramBuilder::new();
    let edge = b.relation("Edge", 3);
    let node = b.relation("Node", 2);
    let mut state = 28u64;
    for i in 0..2_000i64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let (a, c) = ((state >> 33) % 97, (state >> 40) as i64 % 1_000 - 500);
        if i % 3 == 0 {
            writeln!(src, "Node({c}, {}).", a % 2 == 0).expect("write to a string");
            b.fact(node, vec![c.into(), Value::Bool(a % 2 == 0)]);
        } else {
            writeln!(src, "Edge(\"n{a}\", \"m{i}\", {c}).").expect("write to a string");
            b.fact(
                edge,
                vec![
                    Value::str(format!("n{a}")),
                    Value::str(format!("m{i}")),
                    c.into(),
                ],
            );
        }
    }
    let lowered = compile(&src).expect("compiles");
    let built = b.build().expect("builds");
    assert_eq!(lowered.num_facts(), 2_000);
    assert_eq!(facts_of(&lowered), facts_of(&built));
}

#[test]
fn lowering_a_shared_checked_program_keeps_its_facts() {
    let src = example("shortest_paths.flix");
    let checked = Arc::new(check(&parse(&src).expect("parses")).expect("checks"));
    let kept = Arc::clone(&checked);
    let from_shared = lower(checked).expect("lowers");
    assert_eq!(kept.facts.len(), from_shared.num_facts());
    let from_owned = lower(Arc::new((*kept).clone())).expect("lowers");
    assert_eq!(facts_of(&from_shared), facts_of(&from_owned));
    assert_eq!(
        facts_of(&from_owned),
        facts_of(&compile(&src).expect("compiles"))
    );
}

#[test]
fn the_first_wrong_constraint_in_the_source_is_the_one_reported() {
    let decls = "rel A(x: Int); rel B(x: Str); rel C(x: Int);\n";
    let bad_fact = "A(\"not an int\").\n";
    let bad_rule = "C(v) :- A(v), B(v).\n";
    let fact_first = compile(&format!("{decls}{bad_fact}{bad_rule}")).expect_err("rejects");
    assert_eq!(
        fact_first.to_string(),
        "type error at 2:3: term has type Str, expected Int"
    );
    let rule_first = compile(&format!("{decls}{bad_rule}{bad_fact}")).expect_err("rejects");
    assert_eq!(
        rule_first.to_string(),
        "type error at 2:17: variable v used at type Str but previously at Int"
    );
    // A fact that is not ground is reported where it stands, too.
    let non_ground = compile(&format!("{decls}A(y).\n{bad_rule}")).expect_err("rejects");
    assert_eq!(
        non_ground.to_string(),
        "type error at 2:3: facts must be ground (no variables, wildcards, or function applications)"
    );
}

#[test]
fn a_lexical_error_outranks_an_earlier_parse_error() {
    let err = parse("rel A(x: Int);\nA(1 2).\nA(3). @").expect_err("rejects");
    assert_eq!(
        err.to_string(),
        "lex error at 3:7: unexpected character '@'"
    );
    let err = parse("rel A(x: Int);\nA(1 2).\nA(3).").expect_err("rejects");
    assert_eq!(
        err.to_string(),
        "parse error at 2:5: expected `)`, found `2`"
    );
}

/// Chars a printer might escape: all of ASCII, combining marks (alone and
/// after a letter), the line separator, the byte-order mark and the last
/// code point.
fn awkward_strings() -> Vec<String> {
    let mut out: Vec<String> = (0u8..=0x7F).map(|b| char::from(b).to_string()).collect();
    for c in [
        '\u{300}',
        '\u{301}',
        '\u{20DD}',
        '\u{2028}',
        '\u{FEFF}',
        '\u{10FFFF}',
    ] {
        out.push(c.to_string());
        out.push(format!("e{c}x"));
    }
    out.push("a\r\nb\0c\"d\\e'f\u{7f}".to_string());
    out
}

#[test]
fn a_printed_string_reads_back_as_the_same_value() {
    for s in awkward_strings() {
        let want = vec![("S".to_string(), vec![Value::str(&s)])];

        // Through `Display`, as `flixr` prints a model.
        let mut b = ProgramBuilder::new();
        let pred = b.relation("S", 1);
        b.fact(pred, vec![Value::str(&s)]);
        let solution = Solver::new()
            .solve(&b.build().expect("builds"))
            .expect("solves");
        let printed: Vec<String> = solution
            .facts("S")
            .expect("declared")
            .map(|fact| format!("S({fact})."))
            .collect();
        let reread = compile(&format!("rel S(s: Str);\n{}", printed.join("\n")))
            .unwrap_or_else(|e| panic!("{s:?} printed as {printed:?}: {e}"));
        assert_eq!(facts_of(&reread), want, "through Display: {printed:?}");

        // Through `pretty::program`, as a source transformation prints it.
        let mut ast = parse("rel S(s: Str); S(\"placeholder\").").expect("parses");
        let Decl::Constraint(fact) = &mut ast.decls[1] else {
            panic!("the second declaration is the fact")
        };
        let RuleTerm::Lit(Lit::Str(text), _) = &mut fact.head.terms[0] else {
            panic!("the fact's term is a string")
        };
        *text = s.clone();
        let printed = pretty::program(&ast);
        let reread =
            compile(&printed).unwrap_or_else(|e| panic!("{s:?} printed as {printed:?}: {e}"));
        assert_eq!(facts_of(&reread), want, "through pretty: {printed:?}");
        assert_eq!(pretty::program(&parse(&printed).expect("parses")), printed);
    }
}

#[test]
fn i64_min_is_written_as_a_negated_literal() {
    let src = "rel A(x: Int);\n\
               rel B(x: Int);\n\
               def isMin(x: Int): Bool = match x with { case -9223372036854775808 => true case _ => false }\n\
               A(-9223372036854775808). A(-1). A(9223372036854775807).\n\
               B(x) :- A(x), isMin(x).\n";
    let program = compile(src).expect("compiles");
    assert_eq!(
        facts_of(&program)[0],
        ("A".to_string(), vec![Value::Int(i64::MIN)])
    );
    let solution = Solver::new().solve(&program).expect("solves");
    let b: Vec<String> = solution
        .facts("B")
        .expect("declared")
        .map(|fact| fact.to_string())
        .collect();
    assert_eq!(b, ["-9223372036854775808"]);

    // The printed program parses back to itself, `i64::MIN` included.
    let printed = pretty::program(&parse(src).expect("parses"));
    assert!(printed.contains("A(-9223372036854775808)."), "{printed}");
    assert!(
        printed.contains("case -9223372036854775808 =>"),
        "{printed}"
    );
    assert_eq!(pretty::program(&parse(&printed).expect("parses")), printed);

    // Without its `-`, or where no `-` is folded into it, the magnitude
    // is out of range as before.
    for (src, at) in [
        ("rel A(x: Int); A(9223372036854775808).", "1:18"),
        ("def f(x: Int): Int = -9223372036854775808", "1:23"),
        (
            "rel A(x: Int); A(-9223372036854775808). A(1 2). A(9223372036854775808).",
            "1:51",
        ),
        ("def f(x: Int): Int = 1 - 9223372036854775808 @", "1:26"),
    ] {
        assert_eq!(
            parse(src).expect_err(src).to_string(),
            format!("lex error at {at}: integer literal 9223372036854775808 out of range"),
        );
    }

    // After a parse error, a negated magnitude the parser never reached
    // may be legal, so the parse error stands.
    let src = "rel A(x: Int); A(1 2). A(-9223372036854775808).";
    assert_eq!(
        parse(src).expect_err(src).to_string(),
        "parse error at 1:20: expected `)`, found `2`"
    );
}
