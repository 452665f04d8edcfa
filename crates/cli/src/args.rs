//! A small command-line flag parser (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Option values by name (without the leading `--`).
    pub options: HashMap<String, String>,
    /// Boolean flags present on the command line.
    pub flags: Vec<String>,
}

/// Option names that take a value; everything else starting with `--` is
/// treated as a boolean flag.
const VALUE_OPTIONS: &[&str] = &[
    "dist",
    "actor",
    "throughput",
    "quantum",
    "max-size",
    "threads",
    "horizon",
    "algorithm",
    "to",
    "seed",
    "actors",
    "channels",
    "max-rate",
    "max-exec",
    "max-repetition",
    "out",
    "trace-json",
    "timeout",
    "max-evals",
    "max-states",
    "max-memory-mb",
    "seed-range",
    "schedules",
    "checkpoint",
    "resume",
    "space-threshold",
    "metrics",
    "chrome-trace",
    "objectives",
    "export-csv",
    "export-dot",
    "serve",
    "serve-linger",
];

/// Boolean flags the commands understand; anything else starting with
/// `--` is rejected as unknown.
const KNOWN_FLAGS: &[&str] = &["csv", "json", "deny-warnings", "force", "help", "progress"];

/// Parses raw arguments.
///
/// # Errors
///
/// Returns a message when a value option misses its value or when an
/// option is not recognised at all.
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if VALUE_OPTIONS.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{name} requires a value"))?;
                parsed.options.insert(name.to_string(), value.clone());
            } else if KNOWN_FLAGS.contains(&name) {
                parsed.flags.push(name.to_string());
            } else {
                return Err(format!("unknown option --{name}; try `buffy help`"));
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// The value of option `name`, parsed.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Whether a boolean flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Parses a `--dist` value of the form `4,2,3`.
///
/// # Errors
///
/// Returns a message on malformed numbers.
pub fn parse_dist(value: &str) -> Result<Vec<u64>, String> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid capacity {part:?} in --dist"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positional_and_options() {
        let p = parse(&args(&["explore", "g.xml", "--quantum", "1/100", "--csv"])).unwrap();
        assert_eq!(p.positional, vec!["explore", "g.xml"]);
        assert_eq!(p.options.get("quantum").map(String::as_str), Some("1/100"));
        assert!(p.has_flag("csv"));
        assert!(!p.has_flag("json"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&args(&["--dist"])).is_err());
    }

    #[test]
    fn unknown_options_rejected() {
        let err = parse(&args(&["explore", "g.xml", "--maxx-states", "100"])).unwrap_err();
        assert!(err.contains("--maxx-states"), "{err}");
        assert!(parse(&args(&["--jsno"])).is_err());
        // Known flags and options still parse.
        assert!(parse(&args(&["check", "g.xml", "--json", "--deny-warnings"])).is_ok());
        assert!(parse(&args(&["--help"])).is_ok());
        let p = parse(&args(&["explore", "g.xml", "--progress"])).unwrap();
        assert!(p.has_flag("progress"));
        // The searches keep no dominance records, so nothing switches them off.
        assert!(parse(&args(&["explore", "g.xml", "--no-static-prune"])).is_err());
    }

    #[test]
    fn observability_options_parse() {
        let p = parse(&args(&[
            "explore",
            "g.xml",
            "--progress",
            "--trace-json",
            "trace.jsonl",
            "--metrics",
            "metrics.prom",
            "--chrome-trace",
            "trace.json",
        ]))
        .unwrap();
        assert!(p.has_flag("progress"));
        assert_eq!(
            p.options.get("trace-json").map(String::as_str),
            Some("trace.jsonl")
        );
        assert_eq!(
            p.options.get("metrics").map(String::as_str),
            Some("metrics.prom")
        );
        assert_eq!(
            p.options.get("chrome-trace").map(String::as_str),
            Some("trace.json")
        );
        // Paths are required, and misspellings are rejected.
        assert!(parse(&args(&["--trace-json"])).is_err());
        assert!(parse(&args(&["--trace-jsonl", "x"])).is_err());
        assert!(parse(&args(&["--metrics"])).is_err());
        assert!(parse(&args(&["--chrome-trace"])).is_err());
    }

    #[test]
    fn serve_options_parse() {
        let p = parse(&args(&[
            "explore",
            "g.xml",
            "--serve",
            "127.0.0.1:0",
            "--serve-linger",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            p.options.get("serve").map(String::as_str),
            Some("127.0.0.1:0")
        );
        assert_eq!(p.options.get("serve-linger").map(String::as_str), Some("5"));
        // Both take values.
        assert!(parse(&args(&["--serve"])).is_err());
        assert!(parse(&args(&["--serve-linger"])).is_err());
    }

    #[test]
    fn resilience_options_parse() {
        let p = parse(&args(&[
            "explore",
            "g.xml",
            "--timeout",
            "1.5",
            "--max-evals",
            "100",
            "--checkpoint",
            "run.ckpt",
        ]))
        .unwrap();
        assert_eq!(p.get::<f64>("timeout").unwrap(), Some(1.5));
        assert_eq!(p.get::<u64>("max-evals").unwrap(), Some(100));
        let p = parse(&args(&[
            "explore",
            "g.xml",
            "--max-states",
            "5000",
            "--max-memory-mb",
            "64",
        ]))
        .unwrap();
        assert_eq!(p.get::<u64>("max-states").unwrap(), Some(5000));
        assert_eq!(p.get::<u64>("max-memory-mb").unwrap(), Some(64));
        let p = parse(&args(&["chaos", "g.xml", "--seed-range", "0..32"])).unwrap();
        assert_eq!(
            p.options.get("seed-range").map(String::as_str),
            Some("0..32")
        );
        let p = parse(&args(&["explore", "g.xml", "--resume", "run.ckpt"])).unwrap();
        assert_eq!(
            p.options.get("resume").map(String::as_str),
            Some("run.ckpt")
        );
        // All of them require a value.
        assert!(parse(&args(&["--timeout"])).is_err());
        assert!(parse(&args(&["--resume"])).is_err());
    }

    #[test]
    fn objective_options_parse() {
        let p = parse(&args(&[
            "explore",
            "g.xml",
            "--objectives",
            "storage,throughput,energy",
            "--export-csv",
            "front.csv",
            "--export-dot",
            "front.dot",
        ]))
        .unwrap();
        assert_eq!(
            p.options.get("objectives").map(String::as_str),
            Some("storage,throughput,energy")
        );
        assert_eq!(
            p.options.get("export-csv").map(String::as_str),
            Some("front.csv")
        );
        assert_eq!(
            p.options.get("export-dot").map(String::as_str),
            Some("front.dot")
        );
        // All three require a value.
        assert!(parse(&args(&["--objectives"])).is_err());
        assert!(parse(&args(&["--export-csv"])).is_err());
        assert!(parse(&args(&["--export-dot"])).is_err());
    }

    #[test]
    fn typed_access() {
        let p = parse(&args(&["--threads", "4"])).unwrap();
        assert_eq!(p.get::<usize>("threads").unwrap(), Some(4));
        assert_eq!(p.get::<usize>("horizon").unwrap(), None);
        let p = parse(&args(&["--threads", "x"])).unwrap();
        assert!(p.get::<usize>("threads").is_err());
    }

    #[test]
    fn dist_parsing() {
        assert_eq!(parse_dist("4,2").unwrap(), vec![4, 2]);
        assert_eq!(parse_dist(" 1 , 2 , 3 ").unwrap(), vec![1, 2, 3]);
        assert!(parse_dist("4,x").is_err());
    }
}
