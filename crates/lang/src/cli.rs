//! What the `flixr` and `flixd` binaries share: the exit codes, the
//! failure a run ends with, and the readers of flag values.

use flix_core::SolveError;
use std::process::ExitCode;
use std::str::FromStr;

/// Usage or I/O problem (bad flag, unreadable file, unusable log).
pub const EXIT_USAGE: u8 = 1;
/// The program failed to parse or type-check, or an update was rejected
/// (parse error, unknown predicate, arity mismatch).
pub const EXIT_LANG: u8 = 2;
/// Solving failed: a user function panicked, a runtime safety sentinel
/// tripped, or the program was rejected by stratification.
pub const EXIT_SOLVE: u8 = 3;
/// A configured budget (deadline, round limit, fact or derivation cap)
/// was exhausted before the fixed point was reached.
pub const EXIT_BUDGET: u8 = 4;

/// Why a run ends with a non-zero exit code.
pub struct Failure {
    /// The process exit code, one of the `EXIT_*` constants.
    pub code: u8,
    /// `None` when the diagnostic was already written to stderr.
    pub message: Option<String>,
}

impl Failure {
    /// A failure with exit code [`EXIT_USAGE`].
    pub fn usage(message: impl Into<String>) -> Failure {
        Failure {
            code: EXIT_USAGE,
            message: Some(message.into()),
        }
    }

    /// A failure with exit code [`EXIT_LANG`].
    pub fn lang(message: impl Into<String>) -> Failure {
        Failure {
            code: EXIT_LANG,
            message: Some(message.into()),
        }
    }

    /// Prints the message, prefixed with the program's name, and turns
    /// the code into the process's.
    pub fn exit(self, program: &str) -> ExitCode {
        if let Some(message) = self.message {
            eprintln!("{program}: {message}");
        }
        ExitCode::from(self.code)
    }
}

/// The exit code of a failed solve: [`EXIT_BUDGET`] for an exhausted
/// budget or round limit, [`EXIT_SOLVE`] for anything else.
pub fn solve_exit(error: &SolveError) -> u8 {
    match error {
        SolveError::BudgetExceeded { .. } | SolveError::RoundLimitExceeded { .. } => EXIT_BUDGET,
        _ => EXIT_SOLVE,
    }
}

/// Reads a source or fact file; the message format (`cannot read <path>:
/// <cause>`) is pinned by a CLI test.
pub fn read_source(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::usage(format!("cannot read {path}: {e}")))
}

/// The value of a flag that takes one (`what`, e.g. "a ground atom").
pub fn value_arg(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, Failure> {
    it.next()
        .ok_or_else(|| Failure::usage(format!("{flag} requires {what}")))
}

/// The value of a flag that takes a path, which no option can be.
pub fn path_arg(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, Failure> {
    let path = value_arg(it, flag, what)?;
    if path.starts_with('-') {
        return Err(Failure::usage(format!(
            "{flag} requires {what}, got option {path}"
        )));
    }
    Ok(path)
}

/// The value of a flag that takes a number: `needs` completes "requires
/// …", `what` names the value in "invalid … TEXT".
pub fn number_arg<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    needs: &str,
    what: &str,
) -> Result<T, Failure> {
    let text = value_arg(it, flag, needs)?;
    text.parse()
        .map_err(|_| Failure::usage(format!("invalid {what} {text}")))
}

/// The value of a flag that takes a positive, finite number of seconds;
/// `subject` is what the out-of-range message says must be positive.
pub fn seconds_arg(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    subject: &str,
) -> Result<f64, Failure> {
    let text = value_arg(it, flag, "seconds")?;
    let secs: f64 = text
        .parse()
        .map_err(|_| Failure::usage(format!("invalid {what} {text}")))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(Failure::usage(format!(
            "{subject} must be a positive number of seconds, got {text}"
        )));
    }
    Ok(secs)
}

/// The value of `--compact-every`, which both binaries take.
pub fn compact_every_arg(it: &mut impl Iterator<Item = String>) -> Result<u64, Failure> {
    let every = number_arg(
        it,
        "--compact-every",
        "a frame count",
        "compaction threshold",
    )?;
    if every == 0 {
        return Err(Failure::usage(
            "--compact-every must be at least 1 (0 would compact an empty log)",
        ));
    }
    Ok(every)
}
