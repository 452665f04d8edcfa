//! Golden outputs of `buffy explore`.
//!
//! Pins the `--csv` and `--json` reports of SDF gallery graphs under both
//! drivers, and of the cyclo-static gallery graphs through `explore` and
//! its `csdf-explore` alias, which must print the same bytes. JSON reports
//! drop `stats.eval_nanos` (analysis wall time) and the `telemetry`
//! section (latency samples) before comparison; everything else is
//! deterministic.
//!
//! The fixtures live in `tests/golden/`. When an output change is
//! intended, regenerate them with
//! `BUFFY_BLESS=1 cargo test -p buffy-cli --test golden` and review the
//! diff.

use std::path::PathBuf;

fn run(args: &[&str]) -> (i32, String) {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = buffy_cli::run(&raw, &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// Writes the gallery graph `name` to a temporary file and returns its
/// path.
fn gallery_file(name: &str) -> PathBuf {
    let (code, xml) = run(&["gallery", name]);
    assert_eq!(code, 0, "{xml}");
    let path = std::env::temp_dir().join(format!("buffy-golden-{}-{name}.xml", std::process::id()));
    std::fs::write(&path, xml).unwrap();
    path
}

/// Removes the run-dependent parts of a `--json` report: the
/// `"eval_nanos":N,` stats entry and the trailing `,"telemetry":{…}`.
fn strip_timing(json: &str) -> String {
    let mut s = json.to_string();
    if let Some(at) = s.find("\"eval_nanos\":") {
        let field = "\"eval_nanos\":".len();
        let digits = s[at + field..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        s.replace_range(at..at + field + digits + 1, "");
    }
    if let Some(at) = s.find(",\"telemetry\":") {
        // Keep the report's closing brace and newline.
        s.replace_range(at..s.len() - 2, "");
    }
    s
}

/// Compares `actual` against the fixture `file`, or rewrites the fixture
/// when `BUFFY_BLESS` is set.
fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("BUFFY_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(actual, expected, "{file} differs from its golden output");
}

/// Runs `command graph extra… --FORMAT`, expecting exit 0, and returns
/// the report with the timing fields stripped.
fn report(command: &str, graph: &str, extra: &[&str], format: &str) -> String {
    let mut args = vec![command, graph];
    args.extend_from_slice(extra);
    let flag = format!("--{format}");
    args.push(&flag);
    let (code, text) = run(&args);
    assert_eq!(code, 0, "{args:?}: {text}");
    strip_timing(&text)
}

#[test]
fn sdf_reports_match_the_golden_files() {
    for name in ["example", "bipartite", "modem"] {
        let path = gallery_file(name);
        let graph = path.to_str().unwrap();
        for algorithm in ["guided", "exhaustive"] {
            for format in ["csv", "json"] {
                let text = report("explore", graph, &["--algorithm", algorithm], format);
                assert_golden(&format!("{name}-{algorithm}.{format}"), &text);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn csdf_reports_match_the_golden_files_through_both_commands() {
    for name in ["updown", "line-scaler"] {
        let path = gallery_file(name);
        let graph = path.to_str().unwrap();
        for format in ["csv", "json"] {
            let text = report("explore", graph, &[], format);
            let alias = report("csdf-explore", graph, &[], format);
            assert_eq!(text, alias, "{name}: csdf-explore differs from explore");
            assert_golden(&format!("{name}.{format}"), &text);
        }
        std::fs::remove_file(&path).ok();
    }
}
