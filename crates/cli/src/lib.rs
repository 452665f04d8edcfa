//! # buffy-cli
//!
//! Command-line interface of **buffy-rs**, mirroring the paper's `buffy`
//! tool (§10): it reads an SDF3-style XML description of an SDF graph and
//! explores the storage/throughput design space. All functionality is
//! exposed through [`run`] so the binary stays a thin wrapper and the
//! command logic is unit-testable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `deny` rather than `forbid`: the SIGINT handler in `signal` carries the
// binary's single, explicitly-allowed `unsafe` block (a self-declared
// `signal(2)` binding — no external crate).
#![deny(unsafe_code)]

mod args;
mod chaos;
mod commands;
mod observe;
mod serve;
mod signal;
mod telemetry;

pub use args::{parse, parse_dist, ParsedArgs};

use std::io::Write;

/// Usage text printed by `buffy help`.
pub const USAGE: &str = "\
buffy — exact buffer/throughput trade-off exploration for SDF graphs

USAGE:
    buffy <COMMAND> [ARGS]

COMMANDS:
    info <graph.xml>                  graph summary: actors, channels, repetition
                                      vector, maximal throughput (SDF or
                                      CSDF; CSDF counts phase cycles and
                                      phase firings)
    check <graph.xml> [--json] [--deny-warnings] [--dist 4,2]
          [--throughput R] [--actor NAME] [--space-threshold N]
                                      statically verify the model: consistency,
                                      connectedness, guaranteed deadlock,
                                      infeasible constraints, overflow risk,
                                      dead actors, modelling smells,
                                      distribution-space explosion, static
                                      capacity saturation and trivially
                                      satisfiable constraints (codes
                                      B001..B011); --json emits one JSON
                                      object; --space-threshold tunes B009
    analyze <graph.xml> [--dist 4,2] [--actor NAME]
                                      throughput of one storage distribution
                                      (default: per-channel lower bounds)
                                      of an SDF or CSDF graph; a phased
                                      observed actor also gets its
                                      full-cycle throughput
    bounds <graph.xml> [--dist 4,2] [--actor NAME] [--json]
                                      static throughput certificate of one
                                      distribution (default: per-channel
                                      lower bounds), computed without
                                      state-space simulation: a sound upper
                                      bound from the capacity-augmented
                                      cycle-ratio analysis, plus the relaxed
                                      per-channel bounds (one channel alone
                                      at its capacity, the others
                                      unbounded); works for SDF and CSDF
                                      inputs
    explore <graph.xml> [--algorithm guided|exhaustive] [--actor NAME]
            [--quantum R] [--max-size N] [--threads N] [--csv] [--json]
            [--objectives storage,throughput[,energy][,latency]]
            [--export-csv FILE] [--export-dot FILE] [--progress]
            [--trace-json FILE] [--serve ADDR] [--serve-linger SECS]
            [--metrics FILE] [--chrome-trace FILE] [--timeout SECS]
            [--max-evals N] [--max-states N] [--max-memory-mb M]
            [--checkpoint FILE] [--resume FILE]
                                      chart the Pareto space of an SDF or
                                      CSDF (type=\"csdf\") graph, sniffed
                                      from the document; --algorithm picks
                                      the driver for both dialects (default:
                                      guided for SDF, exhaustive for CSDF);
                                      --threads 0 auto-detects the core
                                      count, --json adds the evaluation
                                      statistics to a machine-readable
                                      report, --progress reports phases and
                                      counts on stderr and --trace-json
                                      streams one JSON object per
                                      evaluation/cache-hit/pareto event
                                      (each stamped with elapsed_us);
                                      --serve ADDR starts an embedded
                                      observability server for the run
                                      (GET / dashboard, /healthz, live
                                      Prometheus /metrics, JSON /status,
                                      /events streaming the same event
                                      vocabulary as --trace-json over SSE)
                                      and --serve-linger SECS keeps it
                                      serving the final front and counters
                                      that long after the search ends
                                      (attaching the server never changes
                                      the result);
                                      --metrics writes a Prometheus
                                      textfile snapshot and --chrome-trace
                                      a Chrome trace-event JSON (load in
                                      chrome://tracing or Perfetto), and
                                      --json gains a telemetry section
                                      (latency percentiles, per-shard memo
                                      cache statistics);
                                      --timeout / --max-evals bound the run
                                      and degrade it to a partial,
                                      bound-annotated front; --max-states
                                      caps the cumulative reduced states
                                      stored and --max-memory-mb expresses
                                      the same watchdog as an approximate
                                      memory budget (both degrade the run
                                      to a partial front, exit 3, when the
                                      budget trips mid-run); --checkpoint
                                      periodically saves completed
                                      evaluations and --resume warm-starts
                                      from such a file, reproducing the
                                      uninterrupted run exactly (the file
                                      records the declared objectives and a
                                      mismatched --objectives is refused; a
                                      torn or damaged v3 checkpoint is
                                      salvaged to its longest checksummed
                                      record prefix with a warning; a
                                      checkpoint save that keeps failing is
                                      retried with backoff, then warned
                                      about once and the run continues
                                      uncheckpointed);
                                      --objectives declares the reported
                                      axes: energy adds the exact energy
                                      per iteration derived from the actor
                                      power annotations (the front itself
                                      is unchanged — energy is a monotone
                                      function of throughput), latency
                                      annotates each front point with the
                                      time of the observed actor's first
                                      completion (SDF only); --export-csv /
                                      --export-dot additionally write the
                                      front as a CSV table / Graphviz
                                      trade-off chart
    constraint <graph.xml> --throughput R [--actor NAME] [--max-size N]
               [--json] [--progress] [--trace-json FILE]
               [--serve ADDR] [--serve-linger SECS]
               [--metrics FILE] [--chrome-trace FILE] [--timeout SECS]
               [--max-evals N] [--max-states N] [--max-memory-mb M]
               [--checkpoint FILE] [--resume FILE]
                                      minimal storage meeting a throughput
                                      constraint in an SDF or CSDF graph,
                                      answered by the guided search (with
                                      evaluation statistics); --max-size
                                      caps the answer's size; a truncated
                                      run reports a sound but possibly
                                      non-minimal witness
    schedule <graph.xml> --dist 4,2 [--horizon N]
                                      extract and print the self-timed schedule
    convert <graph.xml> --to dot|xml  re-serialize the graph
    generate [--seed N] [--actors N] [--channels N] [--max-rate N]
             [--max-exec N] [--max-repetition N]
                                      emit a random consistent graph as XML
    gallery <name>                    emit a built-in benchmark graph as XML
                                      (example, bipartite, modem, cd2dat,
                                      satellite, h263decoder; modem-power,
                                      cd2dat-power and h263decoder-power
                                      carry actor power annotations for
                                      energy-aware runs; updown,
                                      line-scaler, h263rows and
                                      h263rows-power are cyclo-static and
                                      serialize in the CSDF dialect)
    csdf-analyze <graph.xml> [OPTIONS]
                                      alias of analyze
    csdf-explore <graph.xml> [OPTIONS]
                                      alias of explore
    chaos <graph.xml> [--seed-range A..B | --schedules N] [--json]
                                      run the exploration under N seeded,
                                      fully deterministic fault schedules
                                      (injected evaluation panics, spurious
                                      cancellations, arena-pressure spikes,
                                      torn checkpoint writes, failed
                                      renames) and machine-check the
                                      robustness contract on each: no
                                      escaped panics, exit codes within
                                      the documented 0/3/130/1 set, every
                                      reported Pareto point re-analyses
                                      fault-free to its reported
                                      throughput, traces stay well-formed
                                      JSON lines ending in one end event,
                                      and any published checkpoint loads
                                      (salvaged if damaged) and
                                      warm-starts a fault-free run back to
                                      the reference front; defaults to
                                      seeds 0..8, exits 1 when any
                                      schedule violates an invariant
    help                              show this message

analyze, explore and constraint refuse models with error-level check
findings; pass --force to run them anyway. schedule and convert read SDF
graphs only.

EXIT CODES:
    0    success, exact result
    1    error (bad input, failed analysis, cancelled before any result)
    3    partial result: a deadline, evaluation budget or memory budget
         (--max-states / --max-memory-mb) truncated the run; the output
         is sound but incomplete
    130  interrupted (Ctrl-C); the run wound down gracefully — partial
         output printed, trace flushed, checkpoint saved

Degradation is always graceful: whatever truncates a run (deadline,
budget, watchdog, Ctrl-C), the front printed is sound, the --trace-json
stream still ends with its final end event, and the checkpoint on disk
stays loadable.
";

/// Runs the CLI with the given arguments (excluding the program name),
/// writing human-readable output to `out`. Returns the process exit code:
/// 0 for exact success, 1 for errors, 3 for deliberately truncated
/// (partial) results and 130 for graceful SIGINT wind-down.
pub fn run(raw_args: &[String], out: &mut dyn Write) -> i32 {
    match try_run(raw_args, out) {
        Ok(code) => code,
        Err(message) => {
            let _ = writeln!(out, "error: {message}");
            1
        }
    }
}

fn try_run(raw_args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let parsed = args::parse(raw_args)?;
    let command = parsed
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let done = |r: Result<(), String>| r.map(|()| 0);
    match command {
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
            Ok(0)
        }
        "info" => done(commands::info(&parsed, out)),
        "check" => done(commands::check(&parsed, out)),
        // Both sniff the dialect themselves; the old names stay aliases.
        "analyze" | "csdf-analyze" => done(commands::analyze(&parsed, out)),
        "bounds" => done(commands::bounds(&parsed, out)),
        "constraint" => commands::constraint(&parsed, out),
        "schedule" => done(commands::schedule(&parsed, out)),
        "convert" => done(commands::convert(&parsed, out)),
        "generate" => done(commands::generate(&parsed, out)),
        "gallery" => done(commands::gallery(&parsed, out)),
        "explore" | "csdf-explore" => commands::explore(&parsed, out),
        "chaos" => chaos::chaos(&parsed, out),
        other => Err(format!("unknown command {other:?}; try `buffy help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> (i32, String) {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&raw, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_to_string(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
        let (code, _) = run_to_string(&[]);
        assert_eq!(code, 0);
    }

    #[test]
    fn unknown_command_fails() {
        let (code, text) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(text.contains("unknown command"));
    }

    #[test]
    fn gallery_emits_xml_and_info_reads_it() {
        let (code, xml) = run_to_string(&["gallery", "example"]);
        assert_eq!(code, 0);
        assert!(xml.contains("applicationGraph"));

        // Write it to a temp file and summarize it.
        let path = std::env::temp_dir().join("buffy-cli-test-example.xml");
        std::fs::write(&path, &xml).unwrap();
        let (code, text) = run_to_string(&["info", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("repetition vector"), "{text}");
        assert!(text.contains("1/4"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_and_explore_example() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-analyze.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["analyze", p, "--dist", "4,2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("1/7"), "{text}");

        let (code, text) = run_to_string(&["explore", p, "--csv"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("6,1/7"), "{text}");
        assert!(text.contains("10,1/4"), "{text}");

        let (code, text) = run_to_string(&["constraint", p, "--throughput", "1/6"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("size 8"), "{text}");

        let (code, text) = run_to_string(&["schedule", p, "--dist", "4,2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("period"), "{text}");

        let (code, text) = run_to_string(&["convert", p, "--to", "dot"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("digraph"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constraint_honours_the_size_cap() {
        // cd2dat reaches its maximal throughput 80/147 at size 38 at the
        // earliest.
        let (_, xml) = run_to_string(&["gallery", "cd2dat"]);
        let path = std::env::temp_dir().join("buffy-cli-test-constraint-cap.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let query = ["constraint", p, "--throughput", "80/147", "--max-size"];
        let (code, text) = run_to_string(&[&query[..], &["37"]].concat());
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("the size cap 37"), "{text}");
        let (code, text) = run_to_string(&[&query[..], &["38"]].concat());
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("size 38 with"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constraint_reads_csdf_graphs() {
        let (_, xml) = run_to_string(&["gallery", "line-scaler"]);
        let path = std::env::temp_dir().join("buffy-cli-test-constraint-csdf.xml");
        std::fs::write(&path, &xml).unwrap();
        let (code, text) =
            run_to_string(&["constraint", path.to_str().unwrap(), "--throughput", "3/5"]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.starts_with("minimal storage for throughput ≥ 3/5: size 6 with γ = <4, 2>"),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explore_below_the_lower_bound_fails() {
        // cd2dat's lower bound is 32: every smaller distribution
        // deadlocks, under either driver; the lower bound itself is fine.
        let (_, xml) = run_to_string(&["gallery", "cd2dat"]);
        let path = std::env::temp_dir().join("buffy-cli-test-below-lb.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        for algorithm in ["guided", "exhaustive"] {
            let (code, text) =
                run_to_string(&["explore", p, "--max-size", "10", "--algorithm", algorithm]);
            assert_eq!(
                (code, text.as_str()),
                (
                    1,
                    "error: no storage distribution within bounds yields a positive throughput\n"
                ),
                "{algorithm}"
            );
            let (code, text) =
                run_to_string(&["explore", p, "--max-size", "32", "--algorithm", algorithm]);
            assert_eq!(code, 0, "{algorithm}: {text}");
            assert!(text.contains("bounds lb=32 ub=32"), "{algorithm}: {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csdf_commands() {
        let xml = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-csdf.xml");
        std::fs::write(&path, xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["csdf-analyze", p, "--dist", "4"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("throughput"), "{text}");
        // `csdf-analyze` is an alias of `analyze`, which reads both
        // dialects; so does `info`.
        assert_eq!(run_to_string(&["analyze", p, "--dist", "4"]), (code, text));
        let (code, text) = run_to_string(&["info", p]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("repetition vector: p=1 c=2"), "{text}");
        assert!(text.contains("maximal throughput of c: 1"), "{text}");
        // A phased observed actor also gets its full-cycle throughput.
        let (code, text) = run_to_string(&["analyze", p, "--dist", "4", "--actor", "p"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("throughput of p: 1 "), "{text}");
        assert!(
            text.contains("full-cycle throughput of p: 1/2 (2 phases per cycle)"),
            "{text}"
        );
        // The SDF-only commands refuse CSDF inputs.
        for args in [vec!["schedule", p, "--dist", "4"], vec!["convert", p]] {
            let (code, text) = run_to_string(&args);
            assert_eq!(code, 1, "{args:?}: {text}");
            assert!(text.contains("reads SDF graphs only"), "{text}");
        }

        let (code, text) = run_to_string(&["csdf-explore", p, "--csv"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("size,throughput"), "{text}");

        // --threads and --quantum are wired through; the human-readable
        // report carries the evaluator cache statistics.
        let (code, text) = run_to_string(&["csdf-explore", p, "--threads", "2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("cache hits"), "{text}");
        let (code, text) = run_to_string(&["csdf-explore", p, "--quantum", "1/2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("Pareto points"), "{text}");

        // `explore` sniffs the dialect and routes CSDF inputs itself.
        let (code, text) = run_to_string(&["explore", p, "--threads", "2"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("cache hits"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn algorithm_option_applies_to_csdf_inputs() {
        let (_, xml) = run_to_string(&["gallery", "updown"]);
        let path = std::env::temp_dir().join("buffy-cli-test-csdf-algorithm.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let trace = std::env::temp_dir().join("buffy-cli-test-csdf-algorithm.jsonl");
        let t = trace.to_str().unwrap();

        // An unknown driver is refused, naming the valid ones.
        let (code, text) = run_to_string(&["explore", p, "--algorithm", "bogus"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("guided|exhaustive"), "{text}");

        // The guided driver actually runs: its phase lands in the trace.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "guided",
            "--csv",
            "--trace-json",
            t,
        ]);
        assert_eq!(code, 0, "{text}");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_text.contains("\"phase\":\"guided-search\""),
            "{trace_text}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn csdf_analyses_refuse_error_models_unless_forced() {
        // Inconsistent cyclo-static rates: B001 at error level.
        let bad = r#"<sdf3 type="csdf"><applicationGraph name="bad"><csdf name="bad">
             <actor name="x"/><actor name="y"/>
             <channel name="fwd" srcActor="x" srcRate="2" dstActor="y" dstRate="1"/>
             <channel name="bwd" srcActor="y" srcRate="1" dstActor="x" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-csdf-preflight.xml");
        std::fs::write(&path, bad).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["csdf-explore", p]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("B001"), "{text}");
        assert!(text.contains("--force"), "{text}");

        let (code, text) = run_to_string(&["csdf-analyze", p, "--dist", "4,4"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("B001"), "{text}");

        // --force skips the preflight; the analysis then reports the
        // inconsistency itself.
        let (code, text) = run_to_string(&["csdf-explore", p, "--force"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("inconsistent"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_passes_clean_models() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-check-clean.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["check", p]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("no issues found"), "{text}");

        let (code, text) = run_to_string(&["check", p, "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"errors\":0"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_gallery_graphs_are_error_free() {
        for name in [
            "example",
            "bipartite",
            "modem",
            "cd2dat",
            "satellite",
            "h263decoder",
            "modem-power",
            "cd2dat-power",
            "h263decoder-power",
        ] {
            let (_, xml) = run_to_string(&["gallery", name]);
            let path = std::env::temp_dir().join(format!("buffy-cli-test-check-{name}.xml"));
            std::fs::write(&path, &xml).unwrap();
            let (code, text) = run_to_string(&["check", path.to_str().unwrap()]);
            assert_eq!(code, 0, "{name}: {text}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn check_flags_inconsistent_rates() {
        let bad = r#"<sdf3><applicationGraph name="bad"><sdf name="bad">
             <actor name="x"/><actor name="y"/>
             <channel name="fwd" srcActor="x" srcRate="2" dstActor="y" dstRate="1"/>
             <channel name="bwd" srcActor="y" srcRate="1" dstActor="x" dstRate="1"/>
           </sdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-check-bad.xml");
        std::fs::write(&path, bad).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["check", p]);
        assert_eq!(code, 1);
        assert!(text.contains("error[B001]"), "{text}");
        assert!(text.contains("hint"), "{text}");

        let (code, text) = run_to_string(&["check", p, "--json"]);
        assert_eq!(code, 1);
        assert!(text.contains("\"code\":\"B001\""), "{text}");
        assert!(text.contains("\"severity\":\"error\""), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_flags_token_free_cycle_and_infeasible_constraint() {
        let cyc = r#"<sdf3><applicationGraph name="cyc"><sdf name="cyc">
             <actor name="x"/><actor name="y"/>
             <channel name="fwd" srcActor="x" srcRate="1" dstActor="y" dstRate="1"/>
             <channel name="bwd" srcActor="y" srcRate="1" dstActor="x" dstRate="1"/>
           </sdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-check-cyc.xml");
        std::fs::write(&path, cyc).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["check", p]);
        assert_eq!(code, 1);
        assert!(text.contains("error[B003]"), "{text}");

        // Infeasible constraint on a clean graph: B005.
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let okp = std::env::temp_dir().join("buffy-cli-test-check-b005.xml");
        std::fs::write(&okp, &xml).unwrap();
        let (code, text) = run_to_string(&[
            "check",
            okp.to_str().unwrap(),
            "--throughput",
            "1/2",
            "--json",
        ]);
        assert_eq!(code, 1);
        assert!(text.contains("\"code\":\"B005\""), "{text}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&okp).ok();
    }

    #[test]
    fn check_deny_warnings_promotes_warnings() {
        // A starved self-loop is only a warning: exit 0 plain, 1 under
        // --deny-warnings.
        let warn = r#"<sdf3><applicationGraph name="w"><sdf name="w">
             <actor name="x"/>
             <channel name="s" srcActor="x" srcRate="2" dstActor="x" dstRate="2" initialTokens="1"/>
           </sdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-check-warn.xml");
        std::fs::write(&path, warn).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["check", p]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("warning[B008]"), "{text}");

        let (code, _) = run_to_string(&["check", p, "--deny-warnings"]);
        assert_eq!(code, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_space_threshold_drives_b009() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-check-b009.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        // At the default threshold the example graph is far too small.
        let (code, text) = run_to_string(&["check", p]);
        assert_eq!(code, 0, "{text}");
        assert!(!text.contains("B009"), "{text}");

        // Tightening the threshold surfaces the warning (still exit 0)
        // and its hint names the resilience options.
        let (code, text) = run_to_string(&["check", p, "--space-threshold", "1"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("warning[B009]"), "{text}");
        assert!(text.contains("--checkpoint"), "{text}");
        let (code, _) = run_to_string(&["check", p, "--space-threshold", "1", "--deny-warnings"]);
        assert_eq!(code, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyses_refuse_error_models_unless_forced() {
        let cyc = r#"<sdf3><applicationGraph name="cyc"><sdf name="cyc">
             <actor name="x"/><actor name="y"/>
             <channel name="fwd" srcActor="x" srcRate="1" dstActor="y" dstRate="1"/>
             <channel name="bwd" srcActor="y" srcRate="1" dstActor="x" dstRate="1"/>
           </sdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-preflight.xml");
        std::fs::write(&path, cyc).unwrap();
        let p = path.to_str().unwrap();

        for cmd in ["analyze", "explore"] {
            let (code, text) = run_to_string(&[cmd, p]);
            assert_eq!(code, 1, "{cmd}: {text}");
            assert!(text.contains("B003"), "{cmd}: {text}");
            assert!(text.contains("--force"), "{cmd}: {text}");
        }
        let (code, text) = run_to_string(&["constraint", p, "--throughput", "1/2"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("B003"), "{text}");

        // --force runs the analysis; the deadlock is then reported
        // honestly by the engine itself.
        let (code, text) = run_to_string(&["analyze", p, "--force"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("deadlock"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_reads_csdf_models() {
        let xml = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-check-csdf.xml");
        std::fs::write(&path, xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["check", p, "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"kind\":\"csdf\""), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_option_is_rejected() {
        let (code, text) = run_to_string(&["explore", "g.xml", "--maxx-states", "100"]);
        assert_eq!(code, 1);
        assert!(text.contains("--maxx-states"), "{text}");
        // Misspelling an observability option is rejected the same way —
        // not silently treated as a positional argument.
        let (code, text) = run_to_string(&["explore", "g.xml", "--trace-jsonl", "t.jsonl"]);
        assert_eq!(code, 1);
        assert!(text.contains("--trace-jsonl"), "{text}");
    }

    #[test]
    fn explore_emits_stats_and_trace() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-observe.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let trace = std::env::temp_dir().join("buffy-cli-test-observe-trace.jsonl");
        let t = trace.to_str().unwrap();

        // --json carries the statistics in machine-readable form.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--json",
            "--trace-json",
            t,
            "--threads",
            "0",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"stats\":{\"evaluations\":"), "{text}");
        assert!(text.contains("\"static_prunes\":"), "{text}");
        assert!(text.contains("\"dominance_prunes\":"), "{text}");
        assert!(text.contains("\"pareto\":[{\"size\":6,"), "{text}");

        // The trace is JSON-lines covering all three event kinds.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_text.contains("\"event\":\"evaluation\""),
            "{trace_text}"
        );
        assert!(
            trace_text.contains("\"event\":\"cache-hit\""),
            "{trace_text}"
        );
        assert!(trace_text.contains("\"event\":\"pareto\""), "{trace_text}");
        assert!(trace_text.contains("\"event\":\"phase\""), "{trace_text}");
        for line in trace_text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }

        // constraint reports the statistics too.
        let (code, text) = run_to_string(&["constraint", p, "--throughput", "1/6", "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"point\":{\"size\":8,"), "{text}");
        assert!(text.contains("\"stats\":{\"evaluations\":"), "{text}");
        let (code, text) = run_to_string(&["constraint", p, "--throughput", "1/6"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("cache hits"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn bounds_renders_the_certificate() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-bounds.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        // Defaults to the lower-bound distribution ⟨4, 2⟩ (bound 1/7).
        let (code, text) = run_to_string(&["bounds", p]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("throughput ≤ 1/7"), "{text}");
        assert!(text.contains("per-channel relaxed bounds"), "{text}");

        // An explicit distribution and the machine-readable form.
        let (code, text) = run_to_string(&["bounds", p, "--dist", "7,3", "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("\"certificate\":{\"bound\":\"1/4\""),
            "{text}"
        );
        assert!(text.contains("\"channel\":\"alpha\""), "{text}");
        assert!(text.contains("\"deadlocked\":false"), "{text}");

        // Wrong arity is a proper error, not a panic.
        let (code, text) = run_to_string(&["bounds", p, "--dist", "7"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("2 channels"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounds_handles_csdf_inputs() {
        let xml = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-bounds-csdf.xml");
        std::fs::write(&path, xml).unwrap();
        let (code, text) = run_to_string(&["bounds", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("(csdf)"), "{text}");
        assert!(text.contains("certificate:"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explore_exports_metrics_and_chrome_trace() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-telemetry.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let prom = std::env::temp_dir().join("buffy-cli-test-telemetry.prom");
        let chrome = std::env::temp_dir().join("buffy-cli-test-telemetry-trace.json");

        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--json",
            "--metrics",
            prom.to_str().unwrap(),
            "--chrome-trace",
            chrome.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        // The JSON report gains the telemetry section: latency
        // percentiles and per-shard memo-cache statistics.
        assert!(
            text.contains("\"telemetry\":{\"eval_latency_ns\":{"),
            "{text}"
        );
        assert!(text.contains("\"p99\":"), "{text}");
        assert!(text.contains("\"memo_shards\":[{\"shard\":0,"), "{text}");

        // Prometheus textfile: HELP/TYPE headers and the latency family.
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            prom_text.contains("# TYPE buffy_eval_latency_ns histogram"),
            "{prom_text}"
        );
        assert!(
            prom_text.contains("buffy_eval_latency_ns_count"),
            "{prom_text}"
        );
        assert!(
            prom_text.contains("buffy_memo_shard_hits_total{shard=\"0\"}"),
            "{prom_text}"
        );
        // The exhaustive sweep counts the candidates its pair bounds skip.
        assert!(
            prom_text.contains("buffy_candidates_bound_skipped_total{phase=\"front-search\"}"),
            "{prom_text}"
        );

        // Chrome trace: the trace-event envelope with eval spans and
        // phase spans.
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(
            chrome_text.starts_with("{\"traceEvents\":["),
            "{chrome_text}"
        );
        assert!(chrome_text.contains("\"name\":\"eval\""), "{chrome_text}");
        assert!(
            chrome_text.contains("\"name\":\"phase:bounds\""),
            "{chrome_text}"
        );
        assert!(chrome_text.contains("\"ph\":\"X\""), "{chrome_text}");

        // constraint accepts the exporters too.
        let (code, text) = run_to_string(&[
            "constraint",
            p,
            "--throughput",
            "1/6",
            "--json",
            "--metrics",
            prom.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"telemetry\":{"), "{text}");
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        // The constraint query runs the guided search.
        assert!(
            prom_text.contains("buffy_phase_ns_count{phase=\"guided-search\"}"),
            "{prom_text}"
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&prom).ok();
        std::fs::remove_file(&chrome).ok();
    }

    #[test]
    fn csdf_inputs_export_telemetry() {
        let xml = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let path = std::env::temp_dir().join("buffy-cli-test-csdf-telemetry.xml");
        std::fs::write(&path, xml).unwrap();
        let chrome = std::env::temp_dir().join("buffy-cli-test-csdf-telemetry.json");

        let (code, text) = run_to_string(&[
            "csdf-explore",
            path.to_str().unwrap(),
            "--json",
            "--chrome-trace",
            chrome.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"telemetry\":{"), "{text}");
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(
            chrome_text.contains("\"name\":\"phase:bounds\""),
            "{chrome_text}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&chrome).ok();
    }

    #[test]
    fn uncreatable_trace_path_fails_cleanly() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-badtrace.xml");
        std::fs::write(&path, &xml).unwrap();
        let (code, text) = run_to_string(&[
            "explore",
            path.to_str().unwrap(),
            "--trace-json",
            "/nonexistent-dir/trace.jsonl",
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("cannot create trace file"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eval_budget_yields_partial_json_and_exit_code_3() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-partial.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        // A generous budget changes nothing: exact result, exit 0.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--json",
            "--max-evals",
            "100000",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"completeness\":{\"exact\":true"), "{text}");
        assert!(text.contains("\"skipped\":[]"), "{text}");
        let evals: u64 = text
            .split("\"evaluations\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(evals > 2, "{text}");

        // One evaluation short of the full run: a sound partial front with
        // a machine-readable completeness marker, exit code 3.
        let budget = (evals - 1).to_string();
        let trace = std::env::temp_dir().join("buffy-cli-test-partial-trace.jsonl");
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--json",
            "--max-evals",
            &budget,
            "--trace-json",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, 3, "{text}");
        assert!(
            text.contains("\"completeness\":{\"exact\":false,\"truncated_by\":\"eval-budget\""),
            "{text}"
        );
        // The trace ends with the final end event naming the same reason.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let last = trace_text.lines().last().unwrap();
        assert!(
            last.contains("\"event\":\"end\"") && last.contains("\"reason\":\"eval-budget\""),
            "{last}"
        );

        // The text rendering names the partiality too.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--max-evals",
            &budget,
        ]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("PARTIAL RESULT"), "{text}");

        // A budget of 1 cannot even finish the bounds phase: a clean
        // error, not a crash.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--max-evals",
            "1",
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("cancelled"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn resumed_guided_run_with_a_budget_is_a_partial_result() {
        // A resumed guided run replays checkpointed throughputs, which
        // carry no dependency flags; each expanded candidate gets them
        // from one more analysis under the run's token. When the budget
        // runs out on such a replay, that analysis is cancelled and the
        // run ends as a sound partial result.
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-guided-resume.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let ckpt = std::env::temp_dir().join("buffy-cli-test-guided-resume.ckpt");
        let c = ckpt.to_str().unwrap();

        let (code, clean) = run_to_string(&["explore", p, "--json", "--checkpoint", c]);
        assert_eq!(code, 0, "{clean}");
        let evals: u64 = clean
            .split("\"evaluations\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .unwrap();

        let (code, resumed) = run_to_string(&["explore", p, "--json", "--resume", c]);
        assert_eq!(code, 0, "{resumed}");

        let budget = (evals - 1).to_string();
        let (code, text) = run_to_string(&["explore", p, "--resume", c, "--max-evals", &budget]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("PARTIAL RESULT"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn checkpoint_resume_reproduces_the_run() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-ckpt.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        let ckpt = std::env::temp_dir().join("buffy-cli-test-ckpt.ckpt");
        let c = ckpt.to_str().unwrap();

        // Clean reference run.
        let (code, clean) = run_to_string(&["explore", p, "--algorithm", "exhaustive", "--csv"]);
        assert_eq!(code, 0, "{clean}");

        // Interrupted run (evaluation budget) writing a checkpoint.
        let (code, _) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--csv",
            "--max-evals",
            "6",
            "--checkpoint",
            c,
        ]);
        assert!(code == 1 || code == 3, "unexpected code {code}");
        assert!(ckpt.exists());

        // Resume from the checkpoint: byte-identical front to the clean
        // run, and the replayed evaluations cost no analysis time.
        let (code, resumed) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--csv",
            "--resume",
            c,
        ]);
        assert_eq!(code, 0, "{resumed}");
        assert_eq!(resumed, clean);

        // Resuming against a different graph is refused.
        let (_, other_xml) = run_to_string(&["gallery", "modem"]);
        let other = std::env::temp_dir().join("buffy-cli-test-ckpt-other.xml");
        std::fs::write(&other, &other_xml).unwrap();
        let (code, text) = run_to_string(&[
            "explore",
            other.to_str().unwrap(),
            "--algorithm",
            "exhaustive",
            "--resume",
            c,
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("different graph"), "{text}");

        // A torn checkpoint (truncated mid-file) is salvaged: the valid
        // record prefix warm-starts the run and the front still matches
        // the clean run byte for byte.
        let intact = std::fs::read(&ckpt).unwrap();
        let mut bytes = intact.clone();
        let len = bytes.len();
        bytes.truncate(len / 2);
        std::fs::write(&ckpt, &bytes).unwrap();
        let (code, salvaged) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--csv",
            "--resume",
            c,
        ]);
        assert_eq!(code, 0, "{salvaged}");
        assert_eq!(salvaged, clean);

        // A checkpoint with a damaged header is refused, not silently
        // ignored — there is nothing sound to salvage.
        let text = String::from_utf8(intact).unwrap();
        std::fs::write(&ckpt, text.replacen("fingerprint", "fingerpront", 1)).unwrap();
        let (code, text) =
            run_to_string(&["explore", p, "--algorithm", "exhaustive", "--resume", c]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("corrupt"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    /// The example graph with every actor annotated `active=10, idle=2`
    /// — enough to make the energy axis strictly positive and vary with
    /// throughput.
    fn powered_example_xml() -> String {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        xml.replace(
            "</processor>",
            "</processor>\n          <power active=\"10\" idle=\"2\"/>",
        )
    }

    #[test]
    fn energy_objective_reports_exact_energy() {
        let path = std::env::temp_dir().join("buffy-cli-test-energy.xml");
        std::fs::write(&path, powered_example_xml()).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,energy",
            "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("\"objectives\":[\"storage\",\"throughput\",\"energy\"]"),
            "{text}"
        );
        // Every front point carries an exact, positive rational energy,
        // and the 2D shape of the front is untouched by the declaration.
        assert!(text.contains("\"pareto\":[{\"size\":6,"), "{text}");
        assert!(text.contains("\"energy\":\""), "{text}");
        assert!(!text.contains("\"energy\":\"0\""), "{text}");

        // CSV gains the energy column between throughput and the
        // distribution.
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,energy",
            "--csv",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.starts_with("size,throughput,energy,distribution\n"),
            "{text}"
        );
        assert!(text.contains("6,1/7,"), "{text}");

        // The default space stays exactly two columns.
        let (code, text) = run_to_string(&["explore", p, "--csv"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.starts_with("size,throughput,distribution\n"), "{text}");

        // A space without the mandatory pair is refused up front.
        let (code, text) = run_to_string(&["explore", p, "--objectives", "storage"]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("invalid --objectives"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn latency_objective_annotates_the_front() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-latency.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,latency",
            "--json",
        ]);
        assert_eq!(code, 0, "{text}");
        // The size-6 point is γ = ⟨4, 2⟩ whose first output completes at
        // t = 9 (see buffy-analysis::latency), and the front itself is
        // the unchanged 2D one.
        assert!(text.contains("\"pareto\":[{\"size\":6,"), "{text}");
        assert!(text.contains("\"latency\":9"), "{text}");

        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,latency",
            "--csv",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.starts_with("size,throughput,latency,distribution\n"),
            "{text}"
        );

        // The latency axis is SDF-only: the CSDF explorer refuses it.
        let csdf = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let cpath = std::env::temp_dir().join("buffy-cli-test-latency-csdf.xml");
        std::fs::write(&cpath, csdf).unwrap();
        let (code, text) = run_to_string(&[
            "csdf-explore",
            cpath.to_str().unwrap(),
            "--objectives",
            "storage,throughput,latency",
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("SDF-only"), "{text}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cpath).ok();
    }

    #[test]
    fn front_export_writes_csv_and_dot() {
        let path = std::env::temp_dir().join("buffy-cli-test-export.xml");
        std::fs::write(&path, powered_example_xml()).unwrap();
        let p = path.to_str().unwrap();
        let csv = std::env::temp_dir().join("buffy-cli-test-export-front.csv");
        let dot = std::env::temp_dir().join("buffy-cli-test-export-front.dot");

        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,energy",
            "--export-csv",
            csv.to_str().unwrap(),
            "--export-dot",
            dot.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        // The exported CSV matches what --csv prints to stdout.
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(
            csv_text.starts_with("size,throughput,energy,distribution\n"),
            "{csv_text}"
        );
        assert!(csv_text.contains("6,1/7,"), "{csv_text}");
        // The DOT slice chains one record node per point in size order.
        let dot_text = std::fs::read_to_string(&dot).unwrap();
        assert!(dot_text.starts_with("digraph "), "{dot_text}");
        assert!(dot_text.contains("shape=record"), "{dot_text}");
        assert!(
            dot_text.contains("size 6|throughput 1/7|energy "),
            "{dot_text}"
        );
        assert!(dot_text.contains("p0 -> p1;"), "{dot_text}");

        // csdf-explore exports through the same options.
        let csdf = r#"<sdf3 type="csdf"><applicationGraph name="ud"><csdf name="ud">
             <actor name="p"/><actor name="c"/>
             <channel name="d" srcActor="p" srcRate="2,0" dstActor="c" dstRate="1"/>
           </csdf></applicationGraph></sdf3>"#;
        let cpath = std::env::temp_dir().join("buffy-cli-test-export-csdf.xml");
        std::fs::write(&cpath, csdf).unwrap();
        let (code, text) = run_to_string(&[
            "csdf-explore",
            cpath.to_str().unwrap(),
            "--export-dot",
            dot.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        let dot_text = std::fs::read_to_string(&dot).unwrap();
        assert!(dot_text.contains("size "), "{dot_text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cpath).ok();
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&dot).ok();
    }

    #[test]
    fn checkpoint_records_objectives_and_resume_validates_them() {
        let path = std::env::temp_dir().join("buffy-cli-test-ckpt-obj.xml");
        std::fs::write(&path, powered_example_xml()).unwrap();
        let p = path.to_str().unwrap();
        let ckpt = std::env::temp_dir().join("buffy-cli-test-ckpt-obj.ckpt");
        let c = ckpt.to_str().unwrap();

        // Truncated energy-aware run writing a checkpoint.
        let (code, _) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--objectives",
            "storage,throughput,energy",
            "--max-evals",
            "6",
            "--checkpoint",
            c,
        ]);
        assert!(code == 1 || code == 3, "unexpected code {code}");
        assert!(ckpt.exists());

        // Resuming in the default 2D space is refused with a pointer at
        // the fix.
        let (code, text) =
            run_to_string(&["explore", p, "--algorithm", "exhaustive", "--resume", c]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("objectives"), "{text}");

        // Resuming with the matching space reproduces the clean run's
        // front byte for byte.
        let (code, clean) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--objectives",
            "storage,throughput,energy",
            "--csv",
        ]);
        assert_eq!(code, 0, "{clean}");
        let (code, resumed) = run_to_string(&[
            "explore",
            p,
            "--algorithm",
            "exhaustive",
            "--objectives",
            "storage,throughput,energy",
            "--csv",
            "--resume",
            c,
        ]);
        assert_eq!(code, 0, "{resumed}");
        assert_eq!(resumed, clean);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn timeout_option_is_validated() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-timeout.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["explore", p, "--timeout", "abc"]);
        assert_eq!(code, 1);
        assert!(text.contains("--timeout"), "{text}");
        let (code, text) = run_to_string(&["explore", p, "--timeout", "-1"]);
        assert_eq!(code, 1);
        assert!(text.contains("positive"), "{text}");
        // A generous timeout leaves the run exact.
        let (code, text) = run_to_string(&["explore", p, "--timeout", "3600"]);
        assert_eq!(code, 0, "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantum_option_is_validated() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-quantum.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();
        // A non-positive quantum is a usage error, never a panic.
        for quantum in ["0", "0/1", "-1/2"] {
            let (code, text) = run_to_string(&["explore", p, "--quantum", quantum]);
            assert_eq!(code, 1, "--quantum {quantum}: {text}");
            assert!(text.contains("--quantum must be positive"), "{text}");
        }
        let (code, text) = run_to_string(&["explore", p, "--quantum", "1/2"]);
        assert_eq!(code, 0, "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_roundtrips() {
        let (code, xml) = run_to_string(&["generate", "--seed", "5", "--actors", "4"]);
        assert_eq!(code, 0);
        assert!(buffy_graph::xml::read_sdf_xml(&xml).is_ok());
    }

    #[test]
    fn generate_rejects_zero_valued_options() {
        for option in ["--actors", "--max-rate", "--max-repetition", "--max-exec"] {
            let (code, text) = run_to_string(&["generate", option, "0"]);
            assert_eq!(code, 1, "{option} 0: {text}");
            assert!(
                text.contains(&format!("{option} must be at least 1")),
                "{text}"
            );
            let (code, text) = run_to_string(&["generate", option, "1"]);
            assert_eq!(code, 0, "{option} 1: {text}");
        }
    }

    #[test]
    fn bad_inputs_are_reported() {
        let (code, text) = run_to_string(&["analyze", "/nonexistent/file.xml"]);
        assert_eq!(code, 1);
        assert!(text.contains("error"), "{text}");
        let (code, _) = run_to_string(&["constraint", "x.xml"]);
        assert_eq!(code, 1);
        let (code, text) = run_to_string(&["gallery", "nope"]);
        assert_eq!(code, 1);
        assert!(text.contains("unknown gallery graph"), "{text}");
    }

    #[test]
    fn malformed_documents_fail_cleanly_across_commands() {
        // Every command that reads a graph must turn a malformed document
        // into exit 1 with a diagnostic — never a panic.
        let corpus: &[(&str, &str)] = &[
            ("truncated", "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\"><actor na"),
            ("negative rate", "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\">\
              <actor name=\"x\"/><actor name=\"y\"/>\
              <channel name=\"c\" srcActor=\"x\" srcRate=\"-2\" dstActor=\"y\" dstRate=\"1\"/>\
              </sdf></applicationGraph></sdf3>"),
            ("overflowing rate", "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\">\
              <actor name=\"x\"/><actor name=\"y\"/>\
              <channel name=\"c\" srcActor=\"x\" srcRate=\"99999999999999999999\" dstActor=\"y\" dstRate=\"1\"/>\
              </sdf></applicationGraph></sdf3>"),
            ("duplicate actors", "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\">\
              <actor name=\"x\"/><actor name=\"x\"/>\
              </sdf></applicationGraph></sdf3>"),
            ("empty file", ""),
        ];
        for (label, doc) in corpus {
            let path = std::env::temp_dir().join(format!(
                "buffy-cli-test-malformed-{}.xml",
                label.replace(' ', "-")
            ));
            std::fs::write(&path, doc).unwrap();
            let p = path.to_str().unwrap();
            for cmd in [
                vec!["check", p],
                vec!["info", p],
                vec!["analyze", p, "--dist", "1,1"],
                vec!["explore", p],
                vec!["csdf-explore", p],
            ] {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_to_string(&cmd)));
                let (code, text) = match outcome {
                    Ok(pair) => pair,
                    Err(_) => panic!("{label}: {cmd:?} panicked"),
                };
                assert_eq!(code, 1, "{label}: {cmd:?} should fail cleanly: {text}");
                assert!(
                    text.contains("error"),
                    "{label}: {cmd:?} lacks diagnostic: {text}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn adversarial_power_values_surface_overflow_not_panic() {
        // u64::MAX active power times a u64::MAX execution time exceeds
        // even the i128 energy accumulator; the checked paths must surface
        // a clean arithmetic-overflow diagnostic through explore.
        let hostile = format!(
            "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\">\
             <actor name=\"x\"/><actor name=\"y\"/>\
             <channel name=\"c\" srcActor=\"x\" srcRate=\"1\" dstActor=\"y\" dstRate=\"1\"/>\
             </sdf><sdfProperties>\
             <actorProperties actor=\"x\">\
             <processor default=\"true\"><executionTime time=\"{max}\"/></processor>\
             <power active=\"{max}\" idle=\"0\"/>\
             </actorProperties></sdfProperties></applicationGraph></sdf3>",
            max = u64::MAX
        );
        let path = std::env::temp_dir().join("buffy-cli-test-power-overflow.xml");
        std::fs::write(&path, &hostile).unwrap();
        let p = path.to_str().unwrap();

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_to_string(&["explore", p, "--objectives", "storage,throughput,energy"])
        }));
        let (code, text) = outcome.expect("overflow must not panic");
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("overflow"), "{text}");

        // Extreme power alone (with sane execution times) stays exact:
        // the i128 coefficients absorb it, on the energy axis or off it.
        let saturated = hostile.replace(&format!("time=\"{}\"", u64::MAX), "time=\"2\"");
        std::fs::write(&path, &saturated).unwrap();
        let (code, text) = run_to_string(&[
            "explore",
            p,
            "--objectives",
            "storage,throughput,energy",
            "--csv",
        ]);
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_to_string(&["explore", p, "--csv"]);
        assert_eq!(code, 0, "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_smoke_on_the_example_graph() {
        let (_, xml) = run_to_string(&["gallery", "example"]);
        let path = std::env::temp_dir().join("buffy-cli-test-chaos.xml");
        std::fs::write(&path, &xml).unwrap();
        let p = path.to_str().unwrap();

        let (code, text) = run_to_string(&["chaos", p, "--schedules", "4"]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("4/4 schedules upheld all invariants"),
            "{text}"
        );

        let (code, text) = run_to_string(&["chaos", p, "--seed-range", "3..5", "--json"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"schedules\":2"), "{text}");
        assert!(text.contains("\"failed\":0"), "{text}");

        // Invalid ranges are rejected before any run starts.
        let (code, text) = run_to_string(&["chaos", p, "--seed-range", "5..5"]);
        assert_eq!(code, 1);
        assert!(text.contains("seed-range"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
