//! Every output of a run folds the one event stream, so the sinks cannot
//! disagree.
//!
//! Each command runs in its own `buffy` process: the telemetry recorder
//! is process-global, so an in-process run would share it with whatever
//! else the test harness runs concurrently.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `buffy args…`, expecting exit 0, and returns its stdout.
fn buffy(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_buffy"))
        .args(args)
        .output()
        .expect("run buffy");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{args:?}: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The first unsigned integer after `"key":` in `text`.
fn json_u64(text: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let at = text
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key}: {text}"))
        + pattern.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("{key}: {text}"))
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("buffy-sinks-{}-{name}", std::process::id()))
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Under both drivers and under `constraint`, on gallery example and
/// modem: the Chrome trace has one `pareto` instant per `--trace-json`
/// `pareto` line, the `buffy_memo_shard_hits_total` family sums to the
/// reported `cache_hits`, and the latency histogram holds one sample per
/// analysis.
#[test]
fn sinks_agree_on_pareto_points_cache_hits_and_analyses() {
    let (trace, chrome, prom) = (
        scratch("trace.jsonl"),
        scratch("chrome.json"),
        scratch("metrics.prom"),
    );
    for graph in ["example", "modem"] {
        let xml = scratch(&format!("{graph}.xml"));
        std::fs::write(&xml, buffy(&["gallery", graph])).unwrap();
        for command in [
            &["explore", path(&xml), "--algorithm", "guided"][..],
            &["explore", path(&xml), "--algorithm", "exhaustive"][..],
            &["constraint", path(&xml), "--throughput", "1/5"][..],
        ] {
            let mut args = command.to_vec();
            args.extend([
                "--json",
                "--trace-json",
                path(&trace),
                "--chrome-trace",
                path(&chrome),
                "--metrics",
                path(&prom),
            ]);
            let report = buffy(&args);
            let trace_text = std::fs::read_to_string(&trace).unwrap();
            let chrome_text = std::fs::read_to_string(&chrome).unwrap();
            let prom_text = std::fs::read_to_string(&prom).unwrap();
            let lines = trace_text.matches("\"event\":\"pareto\"").count();
            let instants = chrome_text.matches("\"name\":\"pareto\"").count();
            assert!(lines > 0, "{graph} {command:?}: no pareto line");
            assert_eq!(instants, lines, "{graph} {command:?}");
            let shard_hits: u64 = prom_text
                .lines()
                .filter(|l| l.starts_with("buffy_memo_shard_hits_total{"))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(
                shard_hits,
                json_u64(&report, "cache_hits"),
                "{graph} {command:?}: {prom_text}"
            );
            let latency = &report[report.find("\"eval_latency_ns\"").unwrap()..];
            assert_eq!(
                json_u64(latency, "count"),
                json_u64(&report, "evaluations"),
                "{graph} {command:?}"
            );
        }
        std::fs::remove_file(&xml).ok();
    }
    for file in [&trace, &chrome, &prom] {
        std::fs::remove_file(file).ok();
    }
}
