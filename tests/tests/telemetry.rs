//! Telemetry is observation-only: installing a recorder must not change
//! a single byte of any exploration result — front, bounds or statistics
//! — at any thread count. These tests run the same explorations with and
//! without a recorder installed, sequentially and in parallel, and
//! compare the rendered results byte for byte.
//!
//! The recorder slot is process-global, so every test here serialises on
//! one mutex: a concurrent test installing/uninstalling mid-run would
//! otherwise make "recorder absent" unobservable.

use buffy_core::{explore_design_space, ExplorationResult, ExploreOptions, LiveObserver};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery;
use buffy_graph::SdfGraph;
use buffy_integration_tests::test_threads;
use buffy_obs::{ObsServer, ServeState};
use buffy_telemetry::{names, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

static RECORDER_SLOT: Mutex<()> = Mutex::new(());

/// Runs `f` with a freshly installed recorder, uninstalling afterwards
/// even on panic; returns the result and the recorder.
fn with_recorder<T>(f: impl FnOnce() -> T) -> (T, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::new());
    buffy_telemetry::install(Arc::clone(&recorder));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    buffy_telemetry::uninstall();
    match result {
        Ok(v) => (v, recorder),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Everything an SDF exploration reports, rendered to bytes. Wall time
/// (`eval_nanos`) is deliberately excluded: it is the one field the
/// runtime documents as non-deterministic.
fn render(r: &ExplorationResult) -> String {
    let mut out = String::new();
    for p in r.pareto.points() {
        out.push_str(&format!("{};{};{}\n", p.size, p.throughput, p.distribution));
    }
    out.push_str(&format!(
        "max={} lb={} ub={} evals={} hits={} states={} failures={}\n",
        r.max_throughput,
        r.lower_bound_size,
        r.upper_bound_size,
        r.stats.evaluations,
        r.stats.cache_hits,
        r.stats.max_states,
        r.stats.failures
    ));
    out
}

fn render_csdf(r: &ExplorationResult) -> String {
    let mut out = String::new();
    for p in r.pareto.points() {
        out.push_str(&format!("{};{};{}\n", p.size, p.throughput, p.distribution));
    }
    out.push_str(&format!(
        "max={} evals={} hits={} states={}\n",
        r.max_throughput, r.stats.evaluations, r.stats.cache_hits, r.stats.max_states
    ));
    out
}

fn explore_with(graph: &SdfGraph, threads: usize) -> ExplorationResult {
    explore_design_space(
        graph,
        &ExploreOptions {
            threads,
            ..ExploreOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn sdf_results_are_identical_with_and_without_recorder() {
    let _guard = RECORDER_SLOT.lock().unwrap_or_else(|e| e.into_inner());
    for graph in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        for threads in [1, test_threads()] {
            let bare = explore_with(&graph, threads);
            let (observed, recorder) = with_recorder(|| explore_with(&graph, threads));
            assert_eq!(
                render(&bare),
                render(&observed),
                "{} at {threads} threads: telemetry must be observation-only",
                graph.name()
            );
            // And the recorder did observe the run.
            let snapshot = recorder.snapshot();
            let latency = &snapshot.histograms[names::EVAL_LATENCY_NS];
            assert_eq!(
                latency.count,
                observed.stats.evaluations,
                "{}: one latency sample per analysis",
                graph.name()
            );
        }
    }
}

#[test]
fn csdf_results_are_identical_with_and_without_recorder() {
    let _guard = RECORDER_SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    let graph = b.build().unwrap();
    for threads in [1, test_threads()] {
        let opts = ExploreOptions {
            threads,
            ..ExploreOptions::default()
        };
        let bare = explore_design_space(&graph, &opts).unwrap();
        let (observed, recorder) = with_recorder(|| explore_design_space(&graph, &opts).unwrap());
        assert_eq!(
            render_csdf(&bare),
            render_csdf(&observed),
            "csdf at {threads} threads: telemetry must be observation-only"
        );
        // The shared driver's phase spans land in the trace.
        assert!(recorder
            .trace_events()
            .iter()
            .any(|e| e.name == "phase:bounds"));
    }
}

/// One blocking HTTP GET against the embedded server; returns the full
/// response (head and body).
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    response
}

/// Runs `f` with a [`LiveObserver`] teed to a live [`ObsServer`] while a
/// scraper thread hammers `/metrics` and `/status` concurrently — the
/// attached-server analogue of [`with_recorder`]. Returns the result,
/// the last `/metrics` and `/status` scrapes (taken after the terminal
/// event), and the full `/events` replay.
fn with_server<T>(
    graph_name: &str,
    f: impl FnOnce(&Arc<LiveObserver>) -> T,
) -> (T, String, String, String) {
    let recorder = Arc::new(Recorder::new());
    buffy_telemetry::install(Arc::clone(&recorder));
    let live = Arc::new(LiveObserver::new());
    let server = ObsServer::start(
        "127.0.0.1:0",
        ServeState {
            graph: graph_name.to_string(),
            algorithm: "test".to_string(),
            stats: live.stats(),
            ring: live.ring(),
            recorder: Arc::clone(&recorder),
            budget_evaluations: None,
        },
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    // Mid-run scrapes: a thread hammers the endpoints for the whole run,
    // so any interference with the search would surface as a diff below.
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Acquire) {
                let _ = (http_get(addr, "/metrics"), http_get(addr, "/status"));
                scrapes += 1;
            }
            scrapes
        })
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&live)));
    live.finish("exact");
    stop.store(true, Ordering::Release);
    // A run faster than one scrape roundtrip legitimately yields zero
    // mid-run scrapes; the slower gallery graphs see plenty.
    let _scrapes = scraper.join().unwrap();
    // The run has ended: these scrapes see the final counters (the
    // per-shard tallies publish at end of run) and the complete front,
    // and /events replays the ring and completes.
    let metrics = http_get(addr, "/metrics");
    let status = http_get(addr, "/status");
    let events = http_get(addr, "/events");
    drop(server);
    buffy_telemetry::uninstall();
    match result {
        Ok(v) => (v, metrics, status, events),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[test]
fn sdf_results_are_identical_with_server_attached() {
    let _guard = RECORDER_SLOT.lock().unwrap_or_else(|e| e.into_inner());
    for graph in [gallery::example(), gallery::modem()] {
        for threads in [1, test_threads()] {
            let bare = explore_with(&graph, threads);
            let opts = ExploreOptions {
                threads,
                ..ExploreOptions::default()
            };
            let (served, metrics, status, events) = with_server(graph.name(), |live| {
                let opts = ExploreOptions {
                    observer: Some(live.clone()),
                    ..opts.clone()
                };
                explore_design_space(&graph, &opts).unwrap()
            });
            assert_eq!(
                render(&bare),
                render(&served),
                "{} at {threads} threads: an attached server must be observation-only",
                graph.name()
            );
            // The concurrent scrapes saw real data: live Prometheus
            // counters and, after the terminal event, the finished status
            // with the full front.
            assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
            assert!(metrics.contains("buffy_memo_shard"), "{metrics}");
            assert!(status.contains("\"finished\":true"), "{status}");
            assert!(
                status.contains(&format!("\"evaluations\":{}", served.stats.evaluations)),
                "{status}"
            );
            assert!(
                status.contains(&format!("\"front_size\":{}", served.pareto.len())),
                "{status}"
            );
            // The SSE replay is framed and terminated.
            assert!(events.contains("event: phase"), "{events}");
            assert!(events.contains("event: evaluation"), "{events}");
            assert!(events.contains("event: end"), "{events}");
        }
    }
}

#[test]
fn csdf_results_are_identical_with_server_attached() {
    let _guard = RECORDER_SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    let graph = b.build().unwrap();
    for threads in [1, test_threads()] {
        let opts = ExploreOptions {
            threads,
            ..ExploreOptions::default()
        };
        let bare = explore_design_space(&graph, &opts).unwrap();
        let (served, _metrics, status, events) = with_server("burst3", |live| {
            let opts = ExploreOptions {
                observer: Some(live.clone()),
                ..opts.clone()
            };
            explore_design_space(&graph, &opts).unwrap()
        });
        assert_eq!(
            render_csdf(&bare),
            render_csdf(&served),
            "csdf at {threads} threads: an attached server must be observation-only"
        );
        assert!(status.contains("\"graph\":\"burst3\""), "{status}");
        assert!(status.contains("\"finished\":true"), "{status}");
        assert!(events.contains("event: phase"), "{events}");
        assert!(events.contains("event: end"), "{events}");
    }
}

#[test]
fn recorder_collects_per_shard_and_analysis_metrics() {
    let _guard = RECORDER_SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let graph = gallery::example();
    let (result, recorder) = with_recorder(|| explore_with(&graph, 1));
    let snapshot = recorder.snapshot();

    // Per-shard memo statistics sum to the run's totals.
    let hits = buffy_telemetry::Snapshot::family_values(&snapshot.counters, names::SHARD_HITS);
    let misses = buffy_telemetry::Snapshot::family_values(&snapshot.counters, names::SHARD_MISSES);
    let total_hits: u64 = hits.iter().map(|(_, v)| v).sum();
    let total_misses: u64 = misses.iter().map(|(_, v)| v).sum();
    assert_eq!(total_hits, result.stats.cache_hits);
    // Every miss becomes an analysis (plus warm-start replays, absent
    // here).
    assert_eq!(total_misses, result.stats.evaluations);

    // The analysis layer reported interner probe lengths and state
    // counts.
    assert!(snapshot.histograms[names::INTERNER_PROBE_LEN].count > 0);
    assert!(snapshot.histograms[names::ANALYSIS_STATES].count > 0);
    assert!(snapshot.gauges[names::INTERNER_OCCUPANCY_MAX] > 0);

    // Phase spans landed both in the trace and in the phase histogram
    // family.
    let phases = buffy_telemetry::Snapshot::family_values(&snapshot.histograms, names::PHASE_NS);
    assert!(
        phases.iter().any(|(phase, _)| *phase == "bounds"),
        "{phases:?}"
    );
    assert!(recorder
        .trace_events()
        .iter()
        .any(|e| e.name == "phase:bounds"));
}
