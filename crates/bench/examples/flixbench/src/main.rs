//! flixbench: the repository's end-to-end and per-layer benchmark.
//!
//! `flixbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends with the result line `/BENCHMARK.json`
//! describes. Leave out `--workload` or `--trace` and it runs every
//! workload, or both passes, each in a child process of its own, so one
//! command prints every metric; `--repeat K` does that K times and
//! compares the repeats. README.md has the full description.

mod cx;
mod oracle;
mod seeded;
mod stats;
mod trace;
mod workloads;

use cx::{Cx, END_TO_END, PER_LAYER};
use flixd::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Workload {
    name: &'static str,
    /// The one operation its `op_ref_ratio` times.
    operation: &'static str,
    run: fn(&mut Cx),
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "su_table1",
        operation: "Solver::solve, default solver",
        run: |cx| workloads::su::run(cx, false),
    },
    Workload {
        name: "su_provenance",
        operation: "Solver::solve, provenance recorded",
        run: |cx| workloads::su::run(cx, true),
    },
    Workload {
        name: "ifds_table2",
        operation: "Solver::solve of the Figure 5 program",
        run: workloads::ifds::run,
    },
    Workload {
        name: "flixr_pipeline",
        operation: "source text to rendered model",
        run: workloads::pipeline::run,
    },
    Workload {
        name: "flixd_mixed",
        operation: "one insert plus one retract update round trip, beside queries",
        run: workloads::service::run,
    },
    Workload {
        name: "incr_updates",
        operation: "ten Solver::resume calls: five one-edge inserts, five one-edge retracts",
        run: workloads::incr::run,
    },
];

const DEFAULT_SEED: u64 = 0xF11C;
const DEFAULT_SECONDS: f64 = 15.0;
/// Per-layer counts that depend on how many operations fit the window;
/// every other count must repeat exactly for one seed.
const WINDOW_COUNTS: &[&str] = &["op.samples", "trace.spans", "flixd.writer.batches_applied"];

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| w.name == value);
                args.workload = Some(known.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad())?;
            }
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--repeat" => args.repeat = value.parse().ok().filter(|k| *k >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("flixbench: {message}");
            eprintln!(
                "usage: flixbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]"
            );
            return ExitCode::from(2);
        }
    };
    let correct = match (args.workload, args.trace) {
        (Some(workload), Some(traced)) if args.repeat == 1 => {
            let mut cx = Cx::new(workload.name, args.seed, args.seconds, traced);
            (workload.run)(&mut cx);
            cx.report()
        }
        _ => run_children(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric name to value, from one child's result line.
type Metrics = BTreeMap<String, f64>;

/// Runs every selected workload and pass in a child process each, so
/// peak memory and lazy set-up are the workload's own.
fn run_children(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running binary");
    let mut correct = true;
    // (workload, traced) -> one `Metrics` per repeat.
    let mut results: BTreeMap<(&str, bool), Vec<Metrics>> = BTreeMap::new();
    for _ in 0..args.repeat {
        for &Workload {
            name, operation, ..
        } in WORKLOADS
        {
            if args.workload.is_some_and(|only| only.name != name) {
                continue;
            }
            println!("== {name}: op_ref_ratio times {operation}");
            for traced in [false, true] {
                if args.trace.is_some_and(|only| only != traced) {
                    continue;
                }
                let output = Command::new(&exe)
                    .args(["--workload", name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .output()
                    .expect("start a child flixbench");
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                match stdout.lines().last().map(json::parse) {
                    Some(Ok(result)) if output.status.success() => {
                        results
                            .entry((name, traced))
                            .or_default()
                            .push(metrics_of(&result));
                    }
                    _ => {
                        println!("FAILED {name} --trace {}: {}", traced as u8, output.status);
                        correct = false;
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        correct &= repeats_agree(&results);
    }
    correct
}

fn metrics_of(result: &Json) -> Metrics {
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Metrics::new();
    };
    fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// The bound of every end-to-end metric, from the `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let manifest = json::parse(&text)?;
    let listed = manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    Ok(listed
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Prints every repeat of each end-to-end metric beside the first with
/// their relative difference and the bound, and checks that seeded counts
/// repeat exactly.
fn repeats_agree(results: &BTreeMap<(&str, bool), Vec<Metrics>>) -> bool {
    let bounds = bounds().unwrap_or_else(|e| {
        println!("no bounds from ./BENCHMARK.json ({e}); differences are printed unchecked");
        BTreeMap::new()
    });
    let (mut outside, mut differing) = (0, 0);
    println!("== repeats against the first run");
    for (&(workload, traced), repeats) in results {
        let Some((first, later)) = repeats.split_first() else {
            continue;
        };
        for (k, repeat) in later.iter().enumerate() {
            if !traced {
                for (name, unit) in END_TO_END {
                    let (a, b) = (first[*name], repeat[*name]);
                    let worse = (b - a) / a;
                    let bound = bounds.get(*name).copied();
                    let verdict = match bound {
                        Some(bound) if worse.abs() > bound => {
                            outside += 1;
                            "OUTSIDE"
                        }
                        _ => "ok",
                    };
                    println!(
                        "  {workload:<16} {name:<12} run 1 {a:>12.4} {unit:<3} run {} {b:>12.4} {unit:<3} \
                         {:>+7.2} % bound {:>5.1} % {verdict}",
                        k + 2,
                        100.0 * worse,
                        100.0 * bound.unwrap_or(f64::NAN),
                    );
                }
                continue;
            }
            for (name, unit) in PER_LAYER {
                let counted = *unit == "count" && !WINDOW_COUNTS.contains(name);
                if counted && first[*name].to_bits() != repeat[*name].to_bits() {
                    println!(
                        "  {workload:<16} {name} differs between repeats: {} then {}",
                        first[*name], repeat[*name]
                    );
                    differing += 1;
                }
            }
        }
    }
    println!(
        "  {outside} end-to-end metrics outside their bound, {differing} seeded counts differ"
    );
    outside == 0 && differing == 0
}
