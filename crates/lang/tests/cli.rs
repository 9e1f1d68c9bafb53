//! End-to-end tests of the `flixr` command-line interface.

/// The recovery damage classes `tests/persist_parity.rs` holds the
/// in-process ways of recovering against; here they meet the binary.
#[path = "../../../tests/common/damage.rs"]
mod damage;

use std::process::Command;

fn flixr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flixr"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("flixr-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp file");
    path
}

const PATHS: &str = "
    rel Edge(x: Int, y: Int);
    rel Path(x: Int, y: Int);
    Edge(1, 2). Edge(2, 3).
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).
";

#[test]
fn solves_and_prints_deterministically() {
    let file = write_temp("paths.flix", PATHS);
    let output = flixr().arg(&file).output().expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec![
            "Edge(1, 2)",
            "Edge(2, 3)",
            "Path(1, 2)",
            "Path(1, 3)",
            "Path(2, 3)",
        ]
    );
}

#[test]
fn print_filter_limits_output() {
    let file = write_temp("filter.flix", PATHS);
    let output = flixr()
        .args(["--print", "Path"])
        .arg(&file)
        .output()
        .expect("runs");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.lines().all(|l| l.starts_with("Path(")));
    assert_eq!(stdout.lines().count(), 3);
}

#[test]
fn stats_go_to_stderr() {
    let file = write_temp("stats.flix", PATHS);
    let output = flixr().arg("--stats").arg(&file).output().expect("runs");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("rounds:"), "{stderr}");
    assert!(stderr.contains("facts inserted:"), "{stderr}");
}

#[test]
fn multiple_files_are_concatenated() {
    let rules = write_temp(
        "rules.flix",
        "rel Edge(x: Int, y: Int);
         rel Path(x: Int, y: Int);
         Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    );
    let facts = write_temp("facts.flix", "Edge(7, 8). Edge(8, 9).");
    let output = flixr()
        .args(["--print", "Path"])
        .arg(&rules)
        .arg(&facts)
        .output()
        .expect("runs");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(7, 9)"), "{stdout}");
}

#[test]
fn type_errors_fail_with_diagnostics() {
    let file = write_temp("bad.flix", "rel A(x: Int);\nA(\"nope\").");
    let output = flixr().arg(&file).output().expect("runs");
    assert_eq!(output.status.code(), Some(2), "type errors exit with 2");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("type error"), "{stderr}");
}

#[test]
fn parse_errors_exit_with_code_2() {
    let file = write_temp("syntax.flix", "rel A(x Int;");
    let output = flixr().arg(&file).output().expect("runs");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_with_code_1() {
    let output = flixr().arg("--frobnicate").output().expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let output = flixr().args(["--timeout", "-3"]).output().expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("positive"), "{stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let file = write_temp("zero-threads.flix", PATHS);
    let output = flixr()
        .args(["--threads", "0"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1), "--threads 0 exits with 1");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
    // Nothing was solved or printed.
    assert!(output.stdout.is_empty());
}

#[test]
fn metrics_json_misuse_is_a_usage_error() {
    let file = write_temp("metrics-misuse.flix", PATHS);
    // Missing path entirely.
    let output = flixr()
        .arg(&file)
        .arg("--metrics-json")
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("requires an output path"), "{stderr}");
    // Next option swallowed as the path.
    let output = flixr()
        .args(["--metrics-json", "--stats"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("got option --stats"), "{stderr}");
}

#[test]
fn profile_prints_a_ranked_rule_table() {
    let file = write_temp("profile.flix", PATHS);
    let output = flixr().arg("--profile").arg(&file).output().expect("runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("rule"), "{stderr}");
    assert!(stderr.contains("Path"), "{stderr}");
    assert!(stderr.contains("total"), "{stderr}");
    // The model still prints normally on stdout.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 3)"), "{stdout}");
}

#[test]
fn metrics_json_writes_a_stable_report() {
    let file = write_temp("metrics.flix", PATHS);
    let out = std::env::temp_dir().join(format!("flixr-test-{}-metrics.json", std::process::id()));
    let output = flixr()
        .args(["--metrics-json", out.to_str().expect("utf8 path")])
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success());
    let json = std::fs::read_to_string(&out).expect("metrics file written");
    assert!(json.contains("\"schema\": \"flix-metrics/1\""), "{json}");
    assert!(json.contains("\"strategy\": \"semi-naive\""), "{json}");
    assert!(json.contains("\"threads\": 1"), "{json}");
    assert!(json.contains("\"per_rule\""), "{json}");
    assert!(json.contains("\"per_stratum\""), "{json}");
    assert!(json.contains("\"head\": \"Path\""), "{json}");
    std::fs::remove_file(&out).ok();
}

#[test]
fn metrics_json_fires_on_guarded_failures_too() {
    let file = write_temp("metrics-fail.flix", PATHS);
    let out = std::env::temp_dir().join(format!(
        "flixr-test-{}-metrics-fail.json",
        std::process::id()
    ));
    let output = flixr()
        .args([
            "--max-rounds",
            "1",
            "--metrics-json",
            out.to_str().expect("utf8 path"),
        ])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(4));
    let json = std::fs::read_to_string(&out).expect("metrics file written on failure");
    assert!(json.contains("\"schema\": \"flix-metrics/1\""), "{json}");
    std::fs::remove_file(&out).ok();
}

#[test]
fn round_limit_exits_with_code_4_and_prints_the_partial_model() {
    let file = write_temp("rounds.flix", PATHS);
    let output = flixr()
        .args(["--max-rounds", "1"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(
        output.status.code(),
        Some(4),
        "budget exhaustion exits with 4"
    );
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("fixed point not reached"), "{stderr}");
    assert!(stderr.contains("partial model"), "{stderr}");
    // The extensional facts derived before the limit are still printed.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Edge(1, 2)"), "{stdout}");
}

#[test]
fn expired_timeout_exits_with_code_4() {
    let file = write_temp("timeout.flix", PATHS);
    let output = flixr()
        .args(["--timeout", "0.000001"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(4));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("wall-clock budget"), "{stderr}");
}

#[test]
fn panicking_function_exits_with_code_3_and_names_the_function() {
    // `partial` has a non-exhaustive match: applying it to E.B panics in
    // the interpreter, and the guarded solver reports it instead of
    // crashing the process.
    let file = write_temp(
        "panic.flix",
        "
        enum E { case A, case B }
        def partial(x: E): Bool = match x with { case E.A => true }
        rel P(x: E);
        rel Q(x: E);
        P(E.B).
        Q(x) :- P(x), partial(x).
        ",
    );
    let output = flixr().arg(&file).output().expect("runs");
    assert_eq!(output.status.code(), Some(3), "solve failures exit with 3");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("partial panicked"), "{stderr}");
    assert!(stderr.contains("non-exhaustive match"), "{stderr}");
    // The extensional fact P(E.B) survives into the printed partial model.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("P(B)"), "{stdout}");
}

#[test]
fn unbounded_recursion_exits_with_code_3_and_prints_the_partial_model() {
    // `spin` never returns. The evaluator's recursion limit turns what
    // would be a stack overflow (SIGABRT, no model) into a function panic.
    let file = write_temp(
        "spin.flix",
        "
        def spin(x: Int): Int = spin(x + 1)
        rel P(x: Int);
        rel Q(x: Int);
        P(1).
        Q(spin(x)) :- P(x).
        ",
    );
    let output = flixr().arg(&file).output().expect("runs");
    assert_eq!(output.status.code(), Some(3), "solve failures exit with 3");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("spin panicked"), "{stderr}");
    assert!(
        stderr.contains("recursion limit exceeded in spin"),
        "{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), vec!["P(1)"]);
}

#[test]
fn verify_names_the_same_broken_binding_on_every_run() {
    // Two unlawful bindings (each `lub` ignores an argument): which one
    // is reported must not depend on a hash map's iteration order.
    let broken = |ty: &str| {
        format!(
            "
            enum {ty} {{ case Top, case Bot }}
            def leq{ty}(x: {ty}, y: {ty}): Bool = match (x, y) with {{
              case ({ty}.Bot, _) => true
              case (_, {ty}.Top) => true
              case _ => false
            }}
            def lub{ty}(x: {ty}, y: {ty}): {ty} = x
            def glb{ty}(x: {ty}, y: {ty}): {ty} = y
            let {ty}<> = ({ty}.Bot, {ty}.Top, leq{ty}, lub{ty}, glb{ty});
            "
        )
    };
    let file = write_temp(
        "two-broken.flix",
        &format!("{}{}", broken("Zed"), broken("Abc")),
    );
    for run in 0..20 {
        let output = flixr().arg("--verify").arg(&file).output().expect("runs");
        assert!(!output.status.success());
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(
            stderr.contains("the Abc<> binding is not a lattice"),
            "run {run}: {stderr}"
        );
    }
}

#[test]
fn verify_rejects_unlawful_lattices() {
    let file = write_temp(
        "broken.flix",
        r#"
        enum P { case Top, case A, case B, case Bot }
        def leq(x: P, y: P): Bool = match (x, y) with {
          case (P.Bot, _) => true
          case (_, P.Top) => true
          case (P.A, P.A) => true
          case (P.B, P.B) => true
          case _ => false
        }
        def lub(x: P, y: P): P = match (x, y) with {
          case (P.Bot, z) => z
          case (z, P.Bot) => z
          case _ => P.Bot
        }
        def glb(x: P, y: P): P = x
        let P<> = (P.Bot, P.Top, leq, lub, glb);
        lat L(k: Int, P<>);
        L(1, P.A).
        "#,
    );
    let output = flixr().arg("--verify").arg(&file).output().expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("not a lattice"), "{stderr}");
    // Without --verify the unlawful program still "solves" (garbage in,
    // garbage out — exactly why §7 wants the check).
    let output = flixr().arg(&file).output().expect("runs");
    assert!(output.status.success());
}

#[test]
fn missing_file_is_reported() {
    let output = flixr()
        .arg("/nonexistent/nope.flix")
        .output()
        .expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn update_prints_both_models_with_headers() {
    let file = write_temp("update-base.flix", PATHS);
    let update = write_temp(
        "update-delta.flix",
        "rel Edge(x: Int, y: Int);
         Edge(3, 4).",
    );
    let output = flixr()
        .arg(&file)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    let initial_at = lines
        .iter()
        .position(|l| *l == "== initial model ==")
        .expect("initial header");
    let updated_at = lines
        .iter()
        .position(|l| *l == "== updated model ==")
        .expect("updated header");
    assert!(initial_at < updated_at);
    let initial = &lines[initial_at + 1..updated_at];
    let updated = &lines[updated_at + 1..];
    // The initial model does not know about the new edge...
    assert!(!initial.contains(&"Edge(3, 4)"));
    assert!(!initial.contains(&"Path(1, 4)"));
    // ...the updated model does, with the transitive consequences.
    assert!(updated.contains(&"Edge(3, 4)"), "{stdout}");
    assert!(updated.contains(&"Path(1, 4)"), "{stdout}");
    assert!(updated.contains(&"Path(2, 4)"), "{stdout}");
    assert!(updated.contains(&"Path(3, 4)"), "{stdout}");
}

#[test]
fn update_with_unknown_predicate_exits_with_code_2() {
    let file = write_temp("update-unknown-base.flix", PATHS);
    let update = write_temp(
        "update-unknown-delta.flix",
        "rel Missing(x: Int);
         Missing(1).",
    );
    let output = flixr()
        .arg(&file)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(2), "delta mismatch exits with 2");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("unknown predicate Missing"), "{stderr}");
    // No models are printed for a statically rejected update.
    assert!(output.stdout.is_empty());
}

#[test]
fn update_file_that_fails_to_parse_exits_with_code_2() {
    let file = write_temp("update-parse-base.flix", PATHS);
    let update = write_temp("update-parse-delta.flix", "rel Edge(x Int;");
    let output = flixr()
        .arg(&file)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn explain_after_update_targets_the_updated_model() {
    let file = write_temp("update-explain-base.flix", PATHS);
    let update = write_temp(
        "update-explain-delta.flix",
        "rel Edge(x: Int, y: Int);
         Edge(3, 4).",
    );
    // Path(1, 4) only exists after the update.
    let output = flixr()
        .arg(&file)
        .args(["--explain", "Path(1, 4)"])
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 4)  [rule 1]"), "{stdout}");
    assert!(stdout.contains("Edge(3, 4)  [fact]"), "{stdout}");
}

#[test]
fn explain_prints_a_derivation_tree() {
    let file = write_temp("explain.flix", PATHS);
    let output = flixr()
        .args(["--explain", "Path(1, 3)"])
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 3)  [rule 1]"), "{stdout}");
    assert!(stdout.contains("Edge(1, 2)  [fact]"), "{stdout}");

    // Underivable facts are reported as such.
    let output = flixr()
        .args(["--explain", "Path(3, 1)"])
        .arg(&file)
        .output()
        .expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("not in the minimal model"), "{stderr}");
}

/// The tall-chain example checked into the repo: a max-of-ints counter
/// that climbs one lattice step per round up to 100.
const TALL_CHAIN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/flix/tall_chain.flix"
);

#[test]
fn trace_writes_chrome_json_and_folded_stacks() {
    let file = write_temp("trace.flix", PATHS);
    let json_out = write_temp("trace-out.json", "");
    let folded_out = write_temp("trace-out.folded", "");
    let output = flixr()
        .arg("--trace")
        .arg(&json_out)
        .arg("--trace-folded")
        .arg(&folded_out)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");

    let json = std::fs::read_to_string(&json_out).expect("trace file written");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\": \"X\""), "{json}");
    assert!(json.contains("\"displayTimeUnit\": \"ms\""), "{json}");
    assert!(json.contains("\"thread_name\""), "{json}");

    let stacks = std::fs::read_to_string(&folded_out).expect("folded file written");
    assert!(!stacks.is_empty());
    for line in stacks.lines() {
        assert!(
            line.starts_with("solve;"),
            "folded stack roots at solve: {line}"
        );
        let (_, value) = line.rsplit_once(' ').expect("stack <space> value");
        value
            .parse::<u64>()
            .expect("folded value is integral nanoseconds");
    }
    std::fs::remove_file(&json_out).ok();
    std::fs::remove_file(&folded_out).ok();
}

#[test]
fn ascent_report_prints_the_chain_height_histogram() {
    let output = flixr()
        .arg("--ascent-report")
        .arg(TALL_CHAIN)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("lattice ascent:"), "{stderr}");
    assert!(stderr.contains("chain-height histogram:"), "{stderr}");
    assert!(
        stderr.contains("max chain height per lattice type:"),
        "{stderr}"
    );
    assert!(stderr.contains("Count"), "names the lattice type: {stderr}");
}

#[test]
fn ascent_threshold_warns_on_stderr_without_aborting() {
    let output = flixr()
        .args(["--ascent-threshold", "50"])
        .arg(TALL_CHAIN)
        .output()
        .expect("runs");
    // The warning is advisory: the solve still runs to its fixed point.
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Counter(\"c\", At(100))"), "{stdout}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("flixr: warning:"), "{stderr}");
    assert!(stderr.contains("height 50"), "{stderr}");
    assert!(stderr.contains("threshold 50"), "{stderr}");
    assert_eq!(
        stderr.matches("flixr: warning:").count(),
        1,
        "one warning per cell, not one per join: {stderr}"
    );
}

#[test]
fn progress_heartbeat_lands_on_stderr() {
    let file = write_temp("progress.flix", PATHS);
    let output = flixr().arg("--progress").arg(&file).output().expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("flixr: progress: done"), "{stderr}");
    // The heartbeat never contaminates the model printed on stdout.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(!stdout.contains("progress"), "{stdout}");
}

#[test]
fn trace_composes_with_query() {
    let file = write_temp("trace-query.flix", PATHS);
    let json_out = write_temp("trace-query-out.json", "");
    let output = flixr()
        .arg("--trace")
        .arg(&json_out)
        .args(["--query", "Path(1, _)"])
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    // Only the demanded answers on stdout; the demand machinery's rules
    // are collapsed onto the user's rules in the trace.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(
        stdout.lines().all(|l| l.starts_with("Path(1, ")),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&json_out).expect("trace file written");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(
        !json.contains("demand$"),
        "demand rules stay invisible: {json}"
    );
    std::fs::remove_file(&json_out).ok();
}

#[test]
fn guarded_failure_still_writes_the_partial_trace() {
    let file = write_temp("trace-budget.flix", PATHS);
    let json_out = write_temp("trace-budget-out.json", "");
    let output = flixr()
        .args(["--max-rounds", "1", "--trace"])
        .arg(&json_out)
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(
        output.status.code(),
        Some(4),
        "budget exhaustion exits with 4"
    );
    let json = std::fs::read_to_string(&json_out).expect("partial trace written");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(
        json.contains("\"cat\": \"round\""),
        "the round that ran is recorded: {json}"
    );
    std::fs::remove_file(&json_out).ok();
}

// ---------------------------------------------------------------------
// Persistence: --save / --load / --wal / --compact-every.
// ---------------------------------------------------------------------

/// The worked example of Figure 2 (points-to + parity + div-by-zero),
/// checked into the repo — the persistence round-trip fixture.
const PARITY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/flix/parity.flix"
);

/// A fresh per-test scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("flixr-cli-{}-{test}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn io_errors_name_the_path_and_the_operation() {
    // Missing input file.
    let output = flixr().arg("/no/such/input.flix").output().expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(
        stderr.contains("flixr: cannot read /no/such/input.flix: "),
        "the message names the operation and the path: {stderr}"
    );

    // Missing --update file: same pinned format.
    let file = write_temp("io-err.flix", PATHS);
    let output = flixr()
        .args(["--update", "/no/such/delta.flix"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(
        stderr.contains("flixr: cannot read /no/such/delta.flix: "),
        "{stderr}"
    );
}

#[test]
fn save_load_save_round_trips_the_worked_example_byte_identically() {
    let scratch = Scratch::new("roundtrip");
    let first = scratch.path("parity.snap");
    let second = scratch.path("parity2.snap");

    let output = flixr()
        .arg("--save")
        .arg(&first)
        .arg(PARITY)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let direct = String::from_utf8(output.stdout).expect("utf8");

    let output = flixr()
        .arg("--load")
        .arg(&first)
        .arg("--save")
        .arg(&second)
        .arg(PARITY)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(
        !stderr.contains("warning"),
        "the snapshot loaded cleanly: {stderr}"
    );
    let reloaded = String::from_utf8(output.stdout).expect("utf8");

    assert_eq!(direct, reloaded, "the loaded model prints identically");
    let a = std::fs::read(&first).expect("first snapshot");
    let b = std::fs::read(&second).expect("second snapshot");
    assert_eq!(a, b, "save -> load -> save is byte-identical");
}

#[test]
fn corrupt_snapshot_degrades_to_a_scratch_solve() {
    let scratch = Scratch::new("corrupt-snap");
    let snap = scratch.path("model.snap");
    let file = write_temp("corrupt-snap.flix", PATHS);

    let output = flixr()
        .arg("--save")
        .arg(&snap)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let clean = String::from_utf8(output.stdout).expect("utf8");

    // Flip one byte in the middle of the file.
    let mut bytes = std::fs::read(&snap).expect("snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).expect("corrupt snapshot");

    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "corruption never aborts the run");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(
        stderr.contains("warning") && stderr.contains("solving from scratch"),
        "{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(stdout, clean, "the scratch solve reproduces the model");
}

#[test]
fn kill_mid_update_is_recovered_from_the_write_ahead_log() {
    let scratch = Scratch::new("kill-mid-update");
    let snap = scratch.path("base.snap");
    let wal = scratch.path("deltas.wal");
    let file = write_temp("kill-mid.flix", PATHS);
    let upd = write_temp(
        "kill-mid-upd.flix",
        "rel Edge(x: Int, y: Int);\nEdge(3, 4).",
    );

    // Save the base model, then apply an update through the log.
    let output = flixr()
        .arg("--save")
        .arg(&snap)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg("--wal")
        .arg(&wal)
        .arg("--update")
        .arg(&upd)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let updated: Vec<String> = String::from_utf8(output.stdout)
        .expect("utf8")
        .lines()
        .skip_while(|l| *l != "== updated model ==")
        .skip(1)
        .map(str::to_string)
        .collect();
    assert!(updated.contains(&"Path(1, 4)".to_string()), "{updated:?}");

    // "Crash" after the append: the snapshot is stale, only the log
    // knows about the delta. A plain re-run recovers the pre-crash
    // fixed point from snapshot + log.
    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg("--wal")
        .arg(&wal)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 4)"), "recovered: {stdout}");

    // Torn append: chop bytes off the log tail mid-frame. The next run
    // warns, truncates, and still replays the intact prefix (here:
    // nothing, so the base model comes back).
    let bytes = std::fs::read(&wal).expect("log");
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).expect("tear log tail");
    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg("--wal")
        .arg(&wal)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "a torn log never aborts the run");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(
        stderr.contains("truncated") && stderr.contains("corrupt trailing byte"),
        "{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(
        !stdout.contains("Path(1, 4)"),
        "the torn frame is gone: {stdout}"
    );
    assert!(stdout.contains("Path(1, 3)"), "{stdout}");
}

#[test]
fn a_rejected_update_never_reaches_the_write_ahead_log() {
    let scratch = Scratch::new("rejected-update");
    let wal = scratch.path("deltas.wal");
    let file = write_temp("rejected-update.flix", PATHS);
    let good = write_temp(
        "rejected-update-good.flix",
        "rel Edge(x: Int, y: Int);\nEdge(3, 4).",
    );
    let bad = write_temp(
        "rejected-update-bad.flix",
        "rel Missing(x: Int);\nMissing(1).",
    );
    let later = write_temp(
        "rejected-update-later.flix",
        "rel Edge(x: Int, y: Int);\nEdge(4, 5).",
    );
    let run = |extra: &[&std::path::Path]| {
        let mut cmd = flixr();
        cmd.arg("--wal").arg(&wal);
        for arg in extra {
            cmd.arg("--update").arg(arg);
        }
        cmd.arg(&file).output().expect("runs")
    };
    let output = run(&[&good]);
    assert!(output.status.success(), "{output:?}");
    let logged = std::fs::read(&wal).expect("log");

    // Refused as before — exit 2, the delta error, no model — and the
    // log is byte for byte what it was.
    let output = run(&[&bad]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("unknown predicate Missing"), "{stderr}");
    assert!(output.stdout.is_empty());
    assert_eq!(
        std::fs::read(&wal).expect("log"),
        logged,
        "nothing appended"
    );

    // So the next run recovers, and the next update applies.
    let output = run(&[]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 4)"), "{stdout}");
    let output = run(&[&later]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 5)"), "{stdout}");
}

#[test]
fn compaction_absorbs_the_log_into_the_snapshot() {
    let scratch = Scratch::new("compaction");
    let snap = scratch.path("model.snap");
    let wal = scratch.path("deltas.wal");
    let file = write_temp("compaction.flix", PATHS);
    let upd = write_temp(
        "compaction-upd.flix",
        "rel Edge(x: Int, y: Int);\nEdge(3, 4).",
    );

    let output = flixr()
        .arg("--save")
        .arg(&snap)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");

    // One update through the log, compaction threshold 1: the run must
    // absorb the log into the snapshot and reset the log to empty.
    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg("--wal")
        .arg(&wal)
        .arg("--save")
        .arg(&snap)
        .args(["--compact-every", "1"])
        .arg("--update")
        .arg(&upd)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("compacted the write-ahead log"), "{stderr}");

    // The updated model now lives in the snapshot alone.
    let output = flixr()
        .arg("--load")
        .arg(&snap)
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("Path(1, 4)"), "{stdout}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(!stderr.contains("warning"), "{stderr}");
}

/// Runs `flixr --load --wal` (plus `extra`) on the pair in `dir`;
/// returns the sorted model lines and the warning lines of stderr.
fn flixr_recovers(
    dir: &std::path::Path,
    file: &std::path::Path,
    extra: &[&str],
) -> [Vec<String>; 2] {
    let output = flixr()
        .arg("--load")
        .arg(dir.join(damage::SNAPSHOT))
        .arg("--wal")
        .arg(dir.join(damage::WAL))
        .args(extra)
        .arg(file)
        .output()
        .expect("runs");
    assert!(
        output.status.success(),
        "damage never aborts a run: {output:?}"
    );
    let mut model: Vec<String> = String::from_utf8(output.stdout)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    model.sort();
    let warnings = String::from_utf8(output.stderr)
        .expect("utf8")
        .lines()
        .filter(|line| line.contains("warning"))
        .map(str::to_string)
        .collect();
    [model, warnings]
}

/// The `flixr` leg of the four-way recovery parity: on every damage
/// class, `flixr --load --wal` prints the model `Solver::recover`
/// reaches on a copy of the same files and warns about exactly the
/// degradations its report names; one more update through the log and
/// a plain re-run then round-trips without a warning about the log. On
/// a frame the program rejects, both refuse and leave the files alone.
#[test]
fn load_and_wal_recover_every_damage_class_as_the_library_does() {
    use flix_core::{DurableFiles, Solver};
    let file = write_temp("four-way.flix", PATHS);
    let upd = write_temp(
        "four-way-upd.flix",
        "rel Edge(x: Int, y: Int);\nEdge(6, 7).",
    );
    let program = flix_lang::compile(PATHS).expect("compiles");
    let solver = Solver::new();
    let base = solver.solve(&program).expect("solves");
    let edge = |x: i64, y: i64| {
        let text = format!("rel Edge(x: Int, y: Int);\nEdge({x}, {y}).");
        flix_lang::compile_update(&text).expect("compiles")
    };
    let deltas = [edge(3, 4), edge(4, 5), edge(5, 6)];

    for class in damage::CLASSES {
        let scratch = Scratch::new(&format!("four-way-{class}"));
        let made = scratch.path("made");
        std::fs::create_dir_all(&made).expect("create the damaged pair's directory");
        let survivors = damage::inflict(class, &made, &program, &base, &deltas);
        let library = damage::copy_pair(&made, scratch.path("library"));
        let binary = damage::copy_pair(&made, scratch.path("binary"));

        let (snapshot, wal) = (library.join(damage::SNAPSHOT), library.join(damage::WAL));
        let Some(survivors) = survivors else {
            // A frame the program rejects: the library refuses at the
            // solve, `flixr` exits as a failed solve does, and neither
            // touches the files.
            let untouched = damage::pair_bytes(&made);
            match solver.recover(&program, &snapshot, &wal) {
                Err(failure) => assert!(
                    matches!(failure.error, flix_core::SolveError::Delta(_)),
                    "{class}: {failure:?}"
                ),
                Ok(_) => panic!("{class}: Solver::recover replayed a rejected frame"),
            }
            let output = flixr()
                .arg("--load")
                .arg(binary.join(damage::SNAPSHOT))
                .arg("--wal")
                .arg(binary.join(damage::WAL))
                .arg(&file)
                .output()
                .expect("runs");
            assert_eq!(output.status.code(), Some(3), "{class}: {output:?}");
            let stderr = String::from_utf8(output.stderr).expect("utf8");
            assert!(stderr.contains("Undeclared"), "{class}: {stderr}");
            assert_eq!(damage::pair_bytes(&library), untouched, "{class}");
            assert_eq!(damage::pair_bytes(&binary), untouched, "{class}");
            continue;
        };
        let (recovered, report) = solver.recover(&program, &snapshot, &wal).expect("recovers");
        let pair = DurableFiles {
            load: Some(snapshot),
            wal: Some(wal),
            save: None,
        };
        // The two copies differ in their directory, and so do the
        // paths the warnings name.
        let expected: Vec<String> = report
            .warnings(&pair)
            .iter()
            .map(|line| format!("flixr: {line}").replace(library.to_str().unwrap(), "DIR"))
            .collect();
        let [model, warnings] = flixr_recovers(&binary, &file, &[]);
        assert_eq!(model, recovered.model_lines(), "{class}");
        let warnings: Vec<String> = warnings
            .iter()
            .map(|line| line.replace(binary.to_str().unwrap(), "DIR"))
            .collect();
        assert_eq!(warnings, expected, "{class}");

        flixr_recovers(
            &binary,
            &file,
            &["--quiet-model", "--update", upd.to_str().unwrap()],
        );
        let [model, warnings] = flixr_recovers(&binary, &file, &[]);
        let mut all = flix_core::Delta::new();
        for delta in deltas[..survivors].iter().chain([&edge(6, 7)]) {
            all.extend_from(delta);
        }
        let updated = program.with_delta(&all).expect("the deltas fit");
        assert_eq!(
            model,
            solver.solve(&updated).expect("solves").model_lines(),
            "{class}"
        );
        assert!(
            warnings.iter().all(|line| line.contains("snapshot")),
            "{class}: the log was repaired by the first run: {warnings:?}"
        );
    }
}

/// `--update` through a log resumes from the *replayed* model, as the
/// daemon's writer does — not from the base snapshot with log and
/// update re-combined. Same models; the visible difference is that the
/// updated model's `--stats` line describes the update alone, which a
/// no-op update after a non-empty replay makes observable.
#[test]
fn update_through_a_log_resumes_from_the_replayed_model() {
    let scratch = Scratch::new("resume-base");
    let snap = scratch.path("base.snap");
    let wal = scratch.path("deltas.wal");
    let file = write_temp("resume-base.flix", PATHS);
    let upd = write_temp(
        "resume-base-upd.flix",
        "rel Edge(x: Int, y: Int);\nEdge(3, 4).",
    );
    let output = flixr().arg("--save").arg(&snap).arg(&file).output();
    assert!(output.expect("runs").status.success());
    let run = || {
        let output = flixr()
            .arg("--load")
            .arg(&snap)
            .arg("--wal")
            .arg(&wal)
            .args(["--stats", "--update"])
            .arg(&upd)
            .arg(&file)
            .output()
            .expect("runs");
        assert!(output.status.success(), "{output:?}");
        let stats: Vec<String> = String::from_utf8(output.stderr)
            .expect("utf8")
            .lines()
            .filter(|line| line.starts_with("rounds: "))
            .map(str::to_string)
            .collect();
        (String::from_utf8(output.stdout).expect("utf8"), stats)
    };
    // First run: an empty log; the update logs and applies Edge(3, 4).
    let (first, stats) = run();
    assert!(stats[1].contains("facts inserted: 4"), "{stats:?}");
    // Second run, same stale snapshot: Edge(3, 4) is replayed from the
    // log, so applying it again is a no-op on the replayed model.
    let (second, stats) = run();
    assert!(second.contains("Path(1, 4)"), "{second}");
    assert_eq!(
        first.split("== updated model ==").nth(1),
        second.split("== updated model ==").nth(1),
        "the updated models are identical"
    );
    assert!(
        stats[1].contains("facts inserted: 0"),
        "the update alone inserted nothing: {stats:?}"
    );
}

/// A log that belongs to another program is refused — exit 1, file
/// untouched — before anything is solved: the refusal wins over a
/// timeout no solve survives.
#[test]
fn foreign_wal_is_refused_before_solving() {
    let scratch = Scratch::new("foreign-wal");
    let wal = scratch.path("deltas.wal");
    let theirs = write_temp(
        "foreign-theirs.flix",
        "rel Edge(x: Int, y: Int);\nEdge(7, 8).",
    );
    let ours = write_temp("foreign-ours.flix", PATHS);
    let output = flixr().arg("--wal").arg(&wal).arg(&theirs).output();
    assert!(output.expect("runs").status.success());
    let before = std::fs::read(&wal).expect("their log");

    let output = flixr()
        .arg("--wal")
        .arg(&wal)
        .args(["--timeout", "0.000000001"])
        .arg(&ours)
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("different program"), "{stderr}");
    assert!(output.stdout.is_empty(), "nothing was solved");
    assert_eq!(std::fs::read(&wal).expect("their log"), before);
}

#[test]
fn persistence_flags_are_usage_errors_with_query_or_alone() {
    let file = write_temp("persist-usage.flix", PATHS);
    for flags in [
        vec!["--save", "/tmp/x.snap", "--query", "Path(1, _)"],
        vec!["--load", "/tmp/x.snap", "--query", "Path(1, _)"],
        vec!["--wal", "/tmp/x.wal", "--query", "Path(1, _)"],
        vec!["--compact-every", "4"], // missing --wal and --save
        vec!["--wal", "/tmp/x.wal", "--compact-every", "4"], // missing --save
        vec![
            "--compact-every",
            "0",
            "--wal",
            "/tmp/x.wal",
            "--save",
            "/tmp/x.snap",
        ],
    ] {
        let output = flixr().args(&flags).arg(&file).output().expect("runs");
        assert_eq!(output.status.code(), Some(1), "{flags:?}");
    }
}

#[test]
fn quiet_model_suppresses_model_printing() {
    let file = write_temp("quiet.flix", PATHS);
    let output = flixr()
        .arg("--quiet-model")
        .arg(&file)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");

    // With --update, neither model nor the `== ... ==` headers print,
    // but explicit --query output still does.
    let update = write_temp(
        "quiet-delta.flix",
        "rel Edge(x: Int, y: Int);
         Edge(3, 4).",
    );
    let output = flixr()
        .arg("--quiet-model")
        .arg(&file)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");

    let output = flixr()
        .arg("--quiet-model")
        .args(["--query", "Path(1, _)"])
        .arg(&file)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["Path(1, 2)", "Path(1, 3)", "Path(1, 4)"],
        "{stdout}"
    );
}

#[test]
fn client_only_flags_require_connect() {
    let file = write_temp("client-usage.flix", PATHS);
    for flag in ["--status", "--compact", "--shutdown"] {
        let output = flixr().arg(flag).arg(&file).output().expect("runs");
        assert_eq!(output.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(stderr.contains("--connect"), "{flag}: {stderr}");
    }
    // ...and persistence stays daemon-side in client mode.
    let output = flixr()
        .args(["--connect", "/tmp/nope.sock", "--save", "/tmp/x.snap"])
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
}

/// End-to-end service smoke: start a real `flixd` on a temp socket,
/// drive it with `flixr --connect` through queries, a retraction-ful
/// update, status, and error mapping, then shut it down and check the
/// daemon exits 0.
#[test]
fn flixd_serves_flixr_clients_end_to_end() {
    let file = write_temp("daemon.flix", PATHS);
    let socket =
        std::env::temp_dir().join(format!("flixr-test-{}-daemon.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_flixd"))
        .arg("--socket")
        .arg(&socket)
        .arg(&file)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("flixd starts");

    // The daemon binds the socket before serving; wait for it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "flixd never bound its socket"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let connect = |extra: &[&str]| {
        let mut cmd = flixr();
        cmd.arg("--connect").arg(&socket);
        cmd.args(extra);
        cmd.output().expect("flixr runs")
    };

    // Query the initial model.
    let output = connect(&["--query", "Path(1, _)"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["Path(1, 2)", "Path(1, 3)"]
    );

    // A live update with a retraction; --quiet-model keeps stdout empty.
    let update = write_temp(
        "daemon-delta.flix",
        "rel Edge(x: Int, y: Int);
         Edge(3, 4).
         -Edge(1, 2)",
    );
    let update = update.to_str().expect("utf8 path").to_string();
    let output = connect(&["--update", &update, "--quiet-model"]);
    assert!(output.status.success(), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("update applied at epoch 2"), "{stderr}");

    // Reads see the new epoch: the retracted edge's paths are gone, the
    // inserted edge's appeared.
    let output = connect(&["--print", "Path"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["Path(2, 3)", "Path(2, 4)", "Path(3, 4)"]
    );

    let output = connect(&["--status"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("epoch: 2"), "{stdout}");
    assert!(stdout.contains("updates_applied: 1"), "{stdout}");
    assert!(stdout.contains("batches_applied: 1"), "{stdout}");

    // Telemetry round trip: the stats document reflects the requests
    // this test already made, in both JSON and Prometheus form.
    let output = connect(&["--stats"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("\"schema\":\"flixd-stats/1\""), "{stdout}");
    assert!(stdout.contains("\"batches_applied\":1"), "{stdout}");
    let output = connect(&["--stats", "--prom"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(
        stdout.contains("flixd_requests_total{op=\"query\"}"),
        "{stdout}"
    );
    assert!(stdout.contains("flixd_batches_applied_total 1"), "{stdout}");

    // --watch polls stats into a table: a header plus one row per poll.
    let output = connect(&["--watch", "--watch-count", "2", "--interval", "0.05"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("epoch"), "{stdout}");
    assert!(lines[0].contains("q-p99"), "{stdout}");
    assert!(lines[1].trim_start().starts_with('2'), "{stdout}");

    // Error mapping: daemon-side language errors come back as exit 2,
    // capability errors (no persistence configured) as exit 1.
    let output = connect(&["--query", "Nope(_)"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("flixd replied"), "{stderr}");
    let output = connect(&["--compact"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");

    // Shut down and reap the daemon.
    let output = connect(&["--shutdown"]);
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("acknowledged shutdown"), "{stderr}");
    let status = daemon.wait().expect("flixd exits");
    assert!(status.success(), "flixd exit: {status:?}");
    assert!(!socket.exists(), "the daemon unlinks its socket");
}

/// A `busy` refusal (admission control) exits 1: retrying is an
/// operator decision, not a language or budget problem. Pinned against
/// a real daemon whose update queue admits nothing.
#[test]
fn connect_busy_refusal_exits_one() {
    let file = write_temp("busy.flix", PATHS);
    let socket = std::env::temp_dir().join(format!("flixr-test-{}-busy.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_flixd"))
        .arg("--socket")
        .arg(&socket)
        .args(["--max-pending", "0"])
        .arg(&file)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("flixd starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "flixd never bound its socket"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let update = write_temp(
        "busy-delta.flix",
        "rel Edge(x: Int, y: Int);
         Edge(3, 4).",
    );
    let output = flixr()
        .arg("--connect")
        .arg(&socket)
        .arg("--update")
        .arg(&update)
        .output()
        .expect("flixr runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("[busy]"), "{stderr}");
    assert!(stderr.contains("queue is full"), "{stderr}");

    let output = flixr()
        .arg("--connect")
        .arg(&socket)
        .arg("--shutdown")
        .output()
        .expect("flixr runs");
    assert!(output.status.success(), "{output:?}");
    let status = daemon.wait().expect("flixd exits");
    assert!(status.success(), "flixd exit: {status:?}");
}

/// A `shutting-down` refusal also exits 1. No live daemon ever holds
/// still in that state long enough to test against, so a fake daemon
/// speaks just enough `flixd/1` to refuse one request.
#[test]
fn connect_shutting_down_refusal_exits_one() {
    use std::os::unix::net::UnixListener;
    let socket = std::env::temp_dir().join(format!("flixr-test-{}-fake.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("binds fake socket");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts");
        flixd::proto::write_frame(
            &mut stream,
            br#"{"proto":"flixd/1","epoch":1,"facts":0,"fingerprint":"0x0"}"#,
        )
        .expect("writes hello");
        let frame = flixd::proto::read_frame(&mut stream)
            .expect("reads")
            .expect("request frame");
        assert!(
            String::from_utf8(frame).expect("utf8").contains("status"),
            "the client sent its one request"
        );
        flixd::proto::write_frame(
            &mut stream,
            br#"{"ok":false,"epoch":1,"code":"shutting-down","error":"draining connections"}"#,
        )
        .expect("writes refusal");
    });

    let output = flixr()
        .arg("--connect")
        .arg(&socket)
        .arg("--status")
        .output()
        .expect("flixr runs");
    server.join().expect("fake daemon thread");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("[shutting-down]"), "{stderr}");
    assert!(stderr.contains("draining connections"), "{stderr}");
    let _ = std::fs::remove_file(&socket);
}

/// A `flixd` serving one program on a socket of its own; dropping it
/// shuts the daemon down and reaps it.
struct Daemon {
    socket: std::path::PathBuf,
    child: std::process::Child,
}

impl Daemon {
    fn start(tag: &str, file: &std::path::Path) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("flixr-test-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_flixd"))
            .arg("--socket")
            .arg(&socket)
            .arg(file)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("flixd starts");
        // Built before the wait, so a daemon that never binds is reaped.
        let daemon = Daemon { socket, child };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !daemon.socket.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "flixd never bound its socket"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        daemon
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let stopped = flixr()
            .arg("--connect")
            .arg(&self.socket)
            .arg("--shutdown")
            .output()
            .is_ok_and(|output| output.status.success());
        if !stopped {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Runs `flixr` with `args` on [`PATHS`] locally and through `flixd`
/// serving the same file, asserts the two print the same stdout and
/// exit with the same code, and returns the local run's output.
fn same_locally_and_through_flixd(tag: &str, args: &[&str]) -> std::process::Output {
    let file = write_temp(&format!("{tag}.flix"), PATHS);
    let local = flixr().args(args).arg(&file).output().expect("runs");
    let daemon = Daemon::start(tag, &file);
    let remote = flixr()
        .arg("--connect")
        .arg(&daemon.socket)
        .args(args)
        .output()
        .expect("runs");
    assert_eq!(
        String::from_utf8_lossy(&remote.stdout),
        String::from_utf8_lossy(&local.stdout),
        "{args:?}: stdout through flixd, then locally"
    );
    assert_eq!(
        remote.status.code(),
        local.status.code(),
        "{args:?}: exit code through flixd, then locally ({remote:?}, {local:?})"
    );
    local
}

fn stdout_lines(output: &std::process::Output) -> Vec<&str> {
    std::str::from_utf8(&output.stdout)
        .expect("utf8")
        .lines()
        .collect()
}

#[test]
fn print_lists_its_predicates_in_name_order_both_ways() {
    let output = same_locally_and_through_flixd("print-order", &["--print", "Path,Edge"]);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(
        stdout_lines(&output),
        [
            "Edge(1, 2)",
            "Edge(2, 3)",
            "Path(1, 2)",
            "Path(1, 3)",
            "Path(2, 3)"
        ]
    );
}

#[test]
fn a_name_printed_twice_prints_its_facts_once_both_ways() {
    let output = same_locally_and_through_flixd("print-twice", &["--print", "Edge,Edge"]);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(stdout_lines(&output), ["Edge(1, 2)", "Edge(2, 3)"]);
}

#[test]
fn an_answer_to_two_queries_prints_once_both_ways() {
    let args = ["--query", "Path(1, _)", "--query", "Path(_, 3)"];
    let output = same_locally_and_through_flixd("query-overlap", &args);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(
        stdout_lines(&output),
        ["Path(1, 2)", "Path(1, 3)", "Path(2, 3)"]
    );
}

#[test]
fn an_unknown_print_name_exits_2_both_ways() {
    for (tag, names) in [
        ("print-unknown", "Nope"),
        ("print-unknown-too", "Path,Nope"),
    ] {
        let output = same_locally_and_through_flixd(tag, &["--print", names]);
        assert_eq!(output.status.code(), Some(2), "{names}: {output:?}");
        assert!(output.stdout.is_empty(), "{names}: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(stderr.contains("unknown predicate \"Nope\""), "{stderr}");
    }
}
