//! Golden outputs of `buffy explore`, `check`, `info`, `analyze`,
//! `bounds` and `schedule`.
//!
//! Pins the `--csv` and `--json` reports of SDF gallery graphs under both
//! drivers, and of the cyclo-static gallery graphs through `explore` and
//! its `csdf-explore` alias, which must print the same bytes. JSON reports
//! drop `stats.eval_nanos` (analysis wall time) and the `telemetry`
//! section (latency samples) before comparison; everything else is
//! deterministic. The `check --json`, `info` and `analyze` reports are
//! pinned whole, for SDF and CSDF gallery graphs alike; `csdf-analyze` is
//! an alias of `analyze` and must print the same bytes. `bounds` is pinned
//! in text and JSON, and `info` and `check --json` on an inconsistent
//! graph in both dialects, exit code included. The reports that walk the
//! self-timed execution one time unit at a time are pinned too: `schedule`
//! on the example (live and deadlocked) and on modem, and `explore` with
//! the latency axis on modem-power, in text, CSV and JSON.
//!
//! The fixtures live in `tests/golden/`. When an output change is
//! intended, regenerate them with
//! `BUFFY_BLESS=1 cargo test -p buffy-cli --test golden` and review the
//! diff.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn run(args: &[&str]) -> (i32, String) {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = buffy_cli::run(&raw, &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// Writes the gallery graph `name` to a temporary file and returns its
/// path. Each call gets its own file: tests run in parallel and remove
/// their files when done.
fn gallery_file(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let (code, xml) = run(&["gallery", name]);
    assert_eq!(code, 0, "{xml}");
    let path = std::env::temp_dir().join(format!(
        "buffy-golden-{}-{}-{name}.xml",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
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

/// `check --json`, `info`, `analyze` and `analyze --dist` through the one
/// command path both dialects share.
#[test]
fn model_reports_match_the_golden_files() {
    for (name, dist) in [
        ("example", "6,2"),
        ("modem", "16,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,18,2"),
        ("updown", "4"),
        ("line-scaler", "6,2"),
    ] {
        let path = gallery_file(name);
        let graph = path.to_str().unwrap();
        for (file, args) in [
            ("check.json", vec!["check", graph, "--json"]),
            ("info.txt", vec!["info", graph]),
            ("analyze.txt", vec!["analyze", graph]),
            ("analyze-dist.txt", vec!["analyze", graph, "--dist", dist]),
        ] {
            let (code, text) = run(&args);
            assert_eq!(code, 0, "{args:?}: {text}");
            assert_golden(&format!("{name}-{file}"), &text);
            if args[0] == "analyze" {
                let mut alias = args.clone();
                alias[0] = "csdf-analyze";
                assert_eq!(run(&alias), (code, text), "{name}: csdf-analyze differs");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `bounds` and `bounds --json` at the lower-bound distribution: the
/// static certificate and the relaxed per-channel bounds, SDF and CSDF.
/// On the large expansions (cd2dat, satellite, h263decoder, h263rows),
/// whose per-channel certificates are the cycle-ratio kernel's heaviest
/// users, `info` and its maximal throughput are pinned too.
#[test]
fn bounds_reports_match_the_golden_files() {
    for (name, large) in [
        ("example", false),
        ("modem", false),
        ("updown", false),
        ("line-scaler", false),
        ("cd2dat", true),
        ("satellite", true),
        ("h263decoder", true),
        ("h263rows", true),
    ] {
        let path = gallery_file(name);
        let graph = path.to_str().unwrap();
        let info = large.then(|| ("info.txt", vec!["info", graph]));
        for (file, args) in [
            ("bounds.txt", vec!["bounds", graph]),
            ("bounds.json", vec!["bounds", graph, "--json"]),
        ]
        .into_iter()
        .chain(info)
        {
            let (code, text) = run(&args);
            assert_eq!(code, 0, "{args:?}: {text}");
            assert_golden(&format!("{name}-{file}"), &text);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `schedule`: the self-timed schedule and its Gantt chart (paper §4,
/// Table 1) of the running example at ⟨4, 2⟩ and at ⟨3, 2⟩, which
/// deadlocks, and of modem at its lower-bound distribution.
#[test]
fn schedules_match_the_golden_files() {
    let modem_lb = buffy_core::lower_bound_distribution(&buffy_gen::gallery::modem())
        .as_slice()
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    for (name, dist, file) in [
        ("example", "4,2", "example-schedule.txt"),
        ("example", "3,2", "example-schedule-deadlock.txt"),
        ("modem", modem_lb.as_str(), "modem-schedule-lb.txt"),
    ] {
        let path = gallery_file(name);
        let args = ["schedule", path.to_str().unwrap(), "--dist", dist];
        let (code, text) = run(&args);
        assert_eq!(code, 0, "{args:?}: {text}");
        assert_golden(file, &text);
        std::fs::remove_file(&path).ok();
    }
}

/// `explore` with the latency axis, which walks the self-timed execution
/// of every front point, on modem-power: text, CSV and JSON.
#[test]
fn latency_axis_reports_match_the_golden_files() {
    let path = gallery_file("modem-power");
    let graph = path.to_str().unwrap();
    let space = ["--objectives", "storage,throughput,energy,latency"];
    let mut args = vec!["explore", graph];
    args.extend_from_slice(&space);
    let (code, text) = run(&args);
    assert_eq!(code, 0, "{args:?}: {text}");
    assert_golden("modem-power-latency.txt", &text);
    for format in ["csv", "json"] {
        let text = report("explore", graph, &space, format);
        assert_golden(&format!("modem-power-latency.{format}"), &text);
    }
    std::fs::remove_file(&path).ok();
}

/// The energy annotation on modem-power, outside the latency fixtures:
/// the `constraint --json` witness, and the exhaustive driver's
/// `explore --csv` front with its `--export-dot` chart.
#[test]
fn energy_annotations_match_the_golden_files() {
    let path = gallery_file("modem-power");
    let graph = path.to_str().unwrap();
    let space = ["--objectives", "storage,throughput,energy"];
    let mut args = vec!["--throughput", "16/35"];
    args.extend_from_slice(&space);
    let text = report("constraint", graph, &args, "json");
    assert_golden("modem-power-energy-constraint.json", &text);
    let dot = path.with_extension("dot");
    let mut args = vec!["--algorithm", "exhaustive", "--export-dot"];
    args.push(dot.to_str().unwrap());
    args.extend_from_slice(&space);
    let text = report("explore", graph, &args, "csv");
    assert_golden("modem-power-energy-exhaustive.csv", &text);
    let chart = std::fs::read_to_string(&dot).unwrap();
    assert_golden("modem-power-energy-exhaustive.dot", &chart);
    std::fs::remove_file(&dot).ok();
    std::fs::remove_file(&path).ok();
}

/// Writes a graph of the given dialect (`"sdf"` or `"csdf"`) whose
/// actors and channels are `body` to a temporary file.
fn dialect_file(name: &str, dialect: &str, body: &str) -> PathBuf {
    let (open, close) = match dialect {
        "csdf" => (
            format!(r#"<sdf3 type="csdf"><applicationGraph name="{name}"><csdf name="{name}">"#),
            "</csdf>",
        ),
        _ => (
            format!(r#"<sdf3><applicationGraph name="{name}"><sdf name="{name}">"#),
            "</sdf>",
        ),
    };
    let path = std::env::temp_dir().join(format!(
        "buffy-golden-{}-{name}-{dialect}.xml",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!("{open}{body}{close}</applicationGraph></sdf3>"),
    )
    .unwrap();
    path
}

/// An inconsistent graph and its CSDF twin: `info` fails with the balance
/// error and `check --json` reports B001, both naming channel `mid` (the
/// first contradiction the balance solver meets), and both exit 1.
#[test]
fn inconsistent_models_match_the_golden_files() {
    let body = r#"<actor name="x"/><actor name="y"/><actor name="z"/>
        <channel name="fwd" srcActor="x" srcRate="2" dstActor="y" dstRate="1"/>
        <channel name="mid" srcActor="y" srcRate="1" dstActor="z" dstRate="1"/>
        <channel name="bwd" srcActor="z" srcRate="1" dstActor="x" dstRate="1" initialTokens="1"/>"#;
    for dialect in ["sdf", "csdf"] {
        let path = dialect_file("bad", dialect, body);
        let graph = path.to_str().unwrap();
        for (file, args) in [
            ("info.txt", vec!["info", graph]),
            ("check.json", vec!["check", graph, "--json"]),
        ] {
            let (code, text) = run(&args);
            assert_eq!(code, 1, "{args:?}: {text}");
            assert!(text.contains(r#""mid""#), "{args:?}: {text}");
            assert_golden(&format!("inconsistent-{dialect}-{file}"), &text);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A token-free two-actor ring fails the maximal-throughput analysis the
/// same way in both dialects: the CSDF graph reports its SDF twin's error.
#[test]
fn forced_csdf_ring_reports_the_sdf_error() {
    let ring = |dialect: &str| {
        let path = dialect_file(
            "ring",
            dialect,
            r#"<actor name="x"/><actor name="y"/>
               <channel name="f" srcActor="x" srcRate="1" dstActor="y" dstRate="1"/>
               <channel name="r" srcActor="y" srcRate="1" dstActor="x" dstRate="1"/>"#,
        );
        let (code, text) = run(&["explore", path.to_str().unwrap(), "--force"]);
        std::fs::remove_file(&path).ok();
        (code, text)
    };
    let sdf = ring("sdf");
    assert_eq!(
        sdf,
        (
            1,
            "error: graph has a token-free cycle and deadlocks\n".into()
        )
    );
    assert_eq!(ring("csdf"), sdf);
}
