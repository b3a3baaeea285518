//! Minimal flag parsing for the CLI (no external dependency).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use ppm_sim::KNOBS;

/// Errors from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command was given.
    MissingCommand,
    /// A flag was given without a value.
    MissingValue(String),
    /// A flag appeared twice.
    Duplicate(String),
    /// A value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// Expected kind, e.g. "integer".
        expected: &'static str,
    },
    /// A positional argument appeared where a flag was expected.
    Unexpected(String),
    /// A required flag is absent.
    Required(&'static str),
    /// The command word names no command.
    UnknownCommand(String),
    /// A flag the command does not read.
    UnknownFlag {
        /// The command word.
        command: String,
        /// The offending flag.
        flag: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `ppm help`)"),
            ArgError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgError::Duplicate(flag) => write!(f, "flag {flag} given twice"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag {flag}: {value:?} is not a valid {expected}"),
            ArgError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            ArgError::Required(flag) => write!(f, "missing required flag {flag}"),
            ArgError::UnknownCommand(command) => {
                write!(f, "unknown command {command:?} (try `ppm help`)")
            }
            ArgError::UnknownFlag { command, flag } => {
                write!(f, "`ppm {command}` does not take {flag} (try `ppm help`)")
            }
        }
    }
}

impl Error for ArgError {}

/// A parsed command line: the command word plus `--flag value` pairs
/// and boolean `--flag` switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The first positional argument.
    pub command: String,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &str = "--energy --trace --quiet --no-ledger --once --no-trace --no-trace-check";

/// Flags every command takes: telemetry and the span-tree export.
const GLOBAL_FLAGS: &str = "--quiet --trace --metrics-out --trace-out";

/// The run-ledger flags a `[ledger]` command takes.
const LEDGER_FLAGS: &str = "--ledger-out --ledger-dir --no-ledger";

/// Every command and the flags it reads beyond [`GLOBAL_FLAGS`].
/// `<addr>` lets bare arguments follow the command word (`ppm serve
/// 127.0.0.1:8080`); every other command rejects them. `[config]`
/// adds `--<knob>` for each of the nine Table 1 [`KNOBS`]; `[ledger]`
/// marks the commands that write a run ledger and adds [`LEDGER_FLAGS`].
const COMMANDS: [(&str, &str); 16] = [
    ("help", ""),
    ("benchmarks", ""),
    (
        "simulate",
        "[config] [ledger] --live --benchmark --instructions --seed --energy --batch",
    ),
    (
        "build",
        "[ledger] --live --benchmark --out --sample --instructions --seed --holdout --metric \
         --train-threads --lhs-candidates --checkpoint",
    ),
    ("predict", "[config] --model"),
    ("screen", "[ledger] --live --benchmark --instructions"),
    (
        "firstorder",
        "[config] [ledger] --benchmark --instructions --seed",
    ),
    (
        "workload-info",
        "[ledger] --benchmark --instructions --seed",
    ),
    ("report", "--candidate --against --json-out"),
    ("check-trace", "--file"),
    ("lint", "--root --conf --format --rule"),
    ("top", "<addr> --once --interval-ms"),
    (
        "tail",
        "<addr> --once --interval-ms --limit --outcome --min-ms",
    ),
    (
        "serve",
        "<addr> --registry --benchmark --workers --queue --deadline-ms --degrade-depth --chaos \
         --no-trace --trace-ring --trace-sample",
    ),
    ("publish", "--model --registry"),
    (
        "loadtest",
        "<addr> --requests --concurrency --rate --deadline-ms --slo-p99-ms --out --ab --ab-out \
         --no-trace-check",
    ),
];

/// Whether `word` is one of the space-separated words of `list`.
fn listed(list: &str, word: &str) -> bool {
    list.split_whitespace().any(|w| w == word)
}

/// Whether a command with this flag list reads `flag`.
fn accepts(flags: &str, flag: &str) -> bool {
    listed(GLOBAL_FLAGS, flag)
        || listed(flags, flag)
        || (listed(flags, "[ledger]") && listed(LEDGER_FLAGS, flag))
        || (listed(flags, "[config]")
            && flag.strip_prefix("--").is_some_and(|k| KNOBS.contains(&k)))
}

/// The flag list of `command`, if it names one.
fn flags_of(command: &str) -> Option<&'static str> {
    COMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .map(|(_, flags)| *flags)
}

/// Every command word, in the order `ppm help` lists them.
pub fn command_names() -> impl Iterator<Item = &'static str> {
    COMMANDS.iter().map(|(name, _)| *name)
}

/// Whether `command` takes `flag`, by the same table the parser
/// checks.
pub fn takes(command: &str, flag: &str) -> bool {
    flags_of(command).is_some_and(|flags| accepts(flags, flag))
}

impl Parsed {
    /// Parses raw arguments (excluding the program name), rejecting
    /// any flag the command does not read before it does any work.
    ///
    /// # Errors
    ///
    /// See [`ArgError`].
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        let flags = flags_of(&command).ok_or_else(|| ArgError::UnknownCommand(command.clone()))?;
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut positionals = Vec::new();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                if listed(flags, "<addr>") {
                    positionals.push(arg);
                    continue;
                }
                return Err(ArgError::Unexpected(arg));
            }
            if !accepts(flags, &arg) {
                return Err(ArgError::UnknownFlag { command, flag: arg });
            }
            if listed(SWITCHES, &arg) {
                switches.push(arg);
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
            if values.insert(arg.clone(), value).is_some() {
                return Err(ArgError::Duplicate(arg));
            }
        }
        Ok(Parsed {
            command,
            values,
            switches,
            positionals,
        })
    }

    /// Positional arguments after the command word (only commands in
    /// the positional allowlist ever have any).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A string flag's value, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// [`ArgError::Required`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.get(flag).ok_or(ArgError::Required(flag))
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparseable.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// True if a boolean switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Every provided flag as a `(name, value)` pair, sorted by name,
    /// with switches valued `"true"` — the run ledger's `args` block.
    pub fn flag_pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pairs.extend(
            self.switches
                .iter()
                .map(|s| (s.clone(), "true".to_string())),
        );
        pairs.sort();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let p = parse(&["simulate", "--benchmark", "mcf", "--rob", "64", "--energy"]).unwrap();
        assert_eq!(p.command, "simulate");
        assert_eq!(p.get("--benchmark"), Some("mcf"));
        assert_eq!(p.num("--rob", 0u32).unwrap(), 64);
        assert!(p.switch("--energy"));
        assert!(!p.switch("--quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse(&["simulate"]).unwrap();
        assert_eq!(p.num("--rob", 76u32).unwrap(), 76);
        assert_eq!(p.num("--iq", 0.5f64).unwrap(), 0.5);
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
        assert!(matches!(
            parse(&["build", "--out"]),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["simulate", "--rob", "1", "--rob", "2"]),
            Err(ArgError::Duplicate(_))
        ));
        assert!(matches!(
            parse(&["build", "stray"]),
            Err(ArgError::Unexpected(_))
        ));
        let p = parse(&["build", "--sample", "lots"]).unwrap();
        assert!(matches!(
            p.num("--sample", 0u32),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            p.require("--out"),
            Err(ArgError::Required("--out"))
        ));
    }

    #[test]
    fn top_accepts_a_positional_address_others_do_not() {
        let p = parse(&["top", "127.0.0.1:9090", "--once"]).unwrap();
        assert_eq!(p.positionals(), ["127.0.0.1:9090".to_string()]);
        assert!(p.switch("--once"));
        // The strict surface is preserved everywhere else.
        assert!(matches!(
            parse(&["build", "127.0.0.1:9090"]),
            Err(ArgError::Unexpected(_))
        ));
        let bare = parse(&["top"]).unwrap();
        assert!(bare.positionals().is_empty());
    }

    #[test]
    fn flag_pairs_are_sorted_and_include_switches() {
        let p = parse(&["build", "--seed", "7", "--no-ledger", "--benchmark", "mcf"]).unwrap();
        assert_eq!(
            p.flag_pairs(),
            vec![
                ("--benchmark".to_string(), "mcf".to_string()),
                ("--no-ledger".to_string(), "true".to_string()),
                ("--seed".to_string(), "7".to_string()),
            ]
        );
        assert!(p.switch("--no-ledger"));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = ArgError::BadValue {
            flag: "--rob".into(),
            value: "x".into(),
            expected: "u32",
        };
        assert!(e.to_string().contains("--rob"));
        assert!(ArgError::MissingCommand.to_string().contains("help"));
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected_by_name() {
        let err = parse(&["simulate", "--benchmark", "mcf", "--robb", "32"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                command: "simulate".into(),
                flag: "--robb".into()
            }
        );
        assert!(err.to_string().contains("--robb"), "{err}");
        // Knobs belong to the commands that build a configuration.
        assert!(parse(&["predict", "--model", "m", "--dl1-lat", "3"]).is_ok());
        assert!(matches!(
            parse(&["build", "--rob", "64"]),
            Err(ArgError::UnknownFlag { .. })
        ));
        // A flag is checked before its value is read.
        assert!(matches!(
            parse(&["report", "--max-stage-ratoi"]),
            Err(ArgError::UnknownFlag { .. })
        ));
        for flag in [
            "--max-stage-ratio",
            "--min-stage-us",
            "--max-error-ratio",
            "--error-slack-pp",
            "--counter-tol",
        ] {
            let args = ["report", "--candidate", "a", "--against", "b", flag, "1"];
            assert!(
                matches!(parse(&args), Err(ArgError::UnknownFlag { .. })),
                "{flag}"
            );
        }
        // Serve tuning values no caller set are constants now, and
        // `--checkpoint` resumes from an existing journal on its own.
        for (command, flag) in [
            ("serve", "--max-deadline-ms"),
            ("serve", "--fail-streak"),
            ("serve", "--probe-every"),
            ("serve", "--trace-slow-keep"),
            ("serve", "--slo-availability"),
            ("serve", "--slo-latency-ms"),
            ("build", "--resume"),
        ] {
            let err = parse(&[command, flag, "1"]).unwrap_err();
            assert_eq!(
                err,
                ArgError::UnknownFlag {
                    command: command.into(),
                    flag: flag.into()
                }
            );
            assert!(err.to_string().contains(flag), "{err}");
        }
        assert_eq!(
            parse(&["frobnicate"]),
            Err(ArgError::UnknownCommand("frobnicate".into()))
        );
    }

    /// `flag` alone, with a value unless it is a switch.
    fn with_value(flag: &str) -> Vec<&str> {
        if listed(SWITCHES, flag) {
            vec![flag]
        } else {
            vec![flag, "x"]
        }
    }

    #[test]
    fn every_command_takes_the_global_flags() {
        assert_eq!(GLOBAL_FLAGS, "--quiet --trace --metrics-out --trace-out");
        let live = ["build", "simulate", "screen"];
        let ledgered = ["build", "simulate", "screen", "firstorder", "workload-info"];
        for (command, _) in COMMANDS {
            let mut args = vec![command];
            for flag in GLOBAL_FLAGS.split_whitespace() {
                args.extend(with_value(flag));
            }
            assert!(parse(&args).is_ok(), "{command}");
            // Only the long-running commands serve the live plane, and
            // only the ledgered ones take the ledger flags.
            let mut live_args = vec![command];
            live_args.extend(with_value("--live"));
            assert_eq!(
                parse(&live_args).is_ok(),
                live.contains(&command),
                "{command}"
            );
            assert_eq!(takes(command, "--live"), live.contains(&command));
            for flag in LEDGER_FLAGS.split_whitespace() {
                let mut ledger_args = vec![command];
                ledger_args.extend(with_value(flag));
                let accepted = parse(&ledger_args).is_ok();
                assert_eq!(accepted, ledgered.contains(&command), "{command} {flag}");
                assert_eq!(takes(command, flag), accepted);
            }
        }
    }

    #[test]
    fn help_documents_exactly_the_accepted_flags() {
        let usage = crate::cli::USAGE;
        let listed_flags = COMMANDS
            .iter()
            .flat_map(|(_, flags)| flags.split_whitespace());
        let all_flags = GLOBAL_FLAGS
            .split_whitespace()
            .chain(LEDGER_FLAGS.split_whitespace());
        for flag in all_flags.chain(listed_flags) {
            if flag.starts_with("--") {
                assert!(usage.contains(flag), "help does not mention {flag}");
            }
        }
        for knob in KNOBS {
            assert!(usage.contains(&format!("--{knob} ")), "help lacks --{knob}");
        }
        for word in usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if let Some(name) = word.strip_prefix("--") {
                let known = KNOBS.contains(&name)
                    || listed(GLOBAL_FLAGS, word)
                    || listed(LEDGER_FLAGS, word)
                    || COMMANDS.iter().any(|(_, flags)| listed(flags, word));
                assert!(known, "help documents {word}, which no command takes");
            }
        }
    }
}
