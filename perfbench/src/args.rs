//! Command-line parsing into a checked [`Args`] value. Every malformed
//! input is an [`ArgError`]; nothing here panics.

use std::fmt;

/// The four workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full `run_all` paper reproduction.
    Reproduce,
    /// The adversarial sweep grid through `SweepEngine::run`.
    Sweep,
    /// The open-loop session workload against `SessionServer`.
    Sessions,
    /// Laps of the conformance grid through the certificate checker.
    Certify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::Sweep,
        Workload::Sessions,
        Workload::Certify,
    ];

    /// The workload's name on the command line and in every record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Sweep => "sweep",
            Workload::Sessions => "sessions",
            Workload::Certify => "certify",
        }
    }
}

/// A checked invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// How long the timed section runs, in whole seconds (at least 1).
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// measured run (end-to-end metrics).
    pub trace: bool,
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag this program does not know.
    UnknownFlag(String),
    /// A flag given without its value.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A required flag that was not given.
    Required(&'static str),
    /// `--workload` named no known workload.
    UnknownWorkload(String),
    /// A value that is not a whole number in range.
    BadNumber {
        /// The flag.
        flag: &'static str,
        /// The text that failed to parse.
        value: String,
    },
    /// `--trace` other than `0` or `1`.
    BadTrace(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown argument `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::Repeated(flag) => write!(f, "`{flag}` given more than once"),
            ArgError::Required(flag) => write!(f, "`{flag}` is required"),
            ArgError::UnknownWorkload(name) => write!(
                f,
                "unknown workload `{name}` (expected one of reproduce, sweep, sessions, certify)"
            ),
            ArgError::BadNumber { flag, value } => {
                write!(f, "`{flag}` expects a whole number in range, got `{value}`")
            }
            ArgError::BadTrace(value) => write!(f, "`--trace` expects 0 or 1, got `{value}`"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Longest timed section accepted, so a typo cannot start an hour-long run.
pub const MAX_SECONDS: u64 = 600;

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let name: &'static str = match flag.as_str() {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            _ => return Err(ArgError::UnknownFlag(flag)),
        };
        let value = it.next().ok_or(ArgError::MissingValue(name))?;
        let repeated = match name {
            "--workload" => workload.replace(parse_workload(&value)?).is_some(),
            "--seed" => seed.replace(parse_number(name, &value)?).is_some(),
            "--seconds" => {
                let s = parse_number(name, &value)?;
                if s == 0 || s > MAX_SECONDS {
                    return Err(ArgError::BadNumber { flag: name, value });
                }
                seconds.replace(s).is_some()
            }
            _ => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError::BadTrace(value)),
                })
                .is_some(),
        };
        if repeated {
            return Err(ArgError::Repeated(name));
        }
    }
    Ok(Args {
        workload: workload.ok_or(ArgError::Required("--workload"))?,
        seed: seed.ok_or(ArgError::Required("--seed"))?,
        seconds: seconds.ok_or(ArgError::Required("--seconds"))?,
        trace: trace.unwrap_or(false),
    })
}

fn parse_workload(name: &str) -> Result<Workload, ArgError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| ArgError::UnknownWorkload(name.to_string()))
}

fn parse_number(flag: &'static str, value: &str) -> Result<u64, ArgError> {
    value.parse().map_err(|_| ArgError::BadNumber {
        flag,
        value: value.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(argv("--workload sweep --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, Workload::Sweep);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let cases = [
            ("--workload sweep --seed -1 --seconds 1", "--seed"),
            ("--workload sweep --seed x --seconds 1", "--seed"),
            (
                "--workload sweep --seed 99999999999999999999 --seconds 1",
                "--seed",
            ),
            ("--workload sweep --seed 1 --seconds 0", "--seconds"),
        ];
        for (line, flag) in cases {
            match parse(argv(line)) {
                Err(ArgError::BadNumber { flag: f, .. }) => assert_eq!(f, flag, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
        assert!(matches!(
            parse(argv("--workload nope --seed 1 --seconds 1")),
            Err(ArgError::UnknownWorkload(_))
        ));
        assert!(matches!(
            parse(argv("--workload sweep --seed 1 --seconds 1 --trace 2")),
            Err(ArgError::BadTrace(_))
        ));
        assert!(matches!(
            parse(argv("--workload sweep --seed")),
            Err(ArgError::MissingValue("--seed"))
        ));
        assert!(matches!(
            parse(argv("--workload sweep --seconds 1")),
            Err(ArgError::Required("--seed"))
        ));
        assert!(matches!(
            parse(argv("--workload sweep --workload sweep")),
            Err(ArgError::Repeated("--workload"))
        ));
        assert!(matches!(
            parse(argv("--bogus")),
            Err(ArgError::UnknownFlag(_))
        ));
    }
}
