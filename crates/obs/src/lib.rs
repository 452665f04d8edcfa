//! # buffy-obs
//!
//! The embedded live-observability server: the first slice of `buffy
//! serve` (ROADMAP item 1). A search started with `--serve ADDR` is no
//! longer a black box — while the drivers run, this crate serves:
//!
//! - `GET /metrics` — a live Prometheus scrape, rendered from a fresh
//!   [`Recorder`] snapshot on every request;
//! - `GET /events` — a Server-Sent-Events stream that first replays the
//!   bounded [`EventRing`] of rendered events and then tails the live
//!   phase/evaluation/pareto stream until the terminal `end` event;
//!   each frame carries the event's kind and the same JSON fields as its
//!   `--trace-json` line;
//! - `GET /status` — a JSON point-in-time snapshot of the run
//!   (graph, algorithm, current phase, counters, front, budget, elapsed);
//! - `GET /healthz` — liveness probe;
//! - `GET /` — a self-contained HTML page polling `/status`.
//!
//! Everything is `std`-only: a [`std::net::TcpListener`], a small fixed
//! thread pool, and hand-rolled HTTP/1.1 — the workspace stays
//! dependency-free. The server is strictly an *observer*: it reads the
//! lock-free [`LiveStats`], the event ring and the recorder, and feeds
//! nothing back into the search, so a served run produces byte-identical
//! fronts and statistics to an unserved one at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod page;

use buffy_core::{json_escape, Event, EventRing, LiveStats, RingEntry};
use buffy_telemetry::Recorder;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Handler threads in the pool. One may be pinned by a long-lived
/// `/events` stream; the rest keep scrapes and status polls responsive.
const POOL_SIZE: usize = 4;

/// How often the accept loop polls for shutdown, and how often an SSE
/// tail polls the ring for fresh events.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Everything the request handlers read: identity of the run plus shared
/// handles into the live observation surface.
///
/// All fields are either immutable or internally synchronized, so one
/// instance is shared by every handler thread.
pub struct ServeState {
    /// Name of the graph being explored.
    pub graph: String,
    /// The driving algorithm/command (`"explore"`, `"constraint"`, …).
    pub algorithm: String,
    /// Live counters, phase and front mirror, folded from the run's
    /// events.
    pub stats: Arc<LiveStats>,
    /// Bounded ring of the run's rendered events.
    pub ring: Arc<EventRing>,
    /// The run's recorder; `/metrics` snapshots it per scrape.
    pub recorder: Arc<Recorder>,
    /// Evaluation budget (`--max-evals`) when one was set.
    pub budget_evaluations: Option<u64>,
}

/// The running server: an accept loop plus a small pool of handler
/// threads.
///
/// Dropping the server (or calling [`shutdown`](ObsServer::shutdown))
/// stops accepting, lets in-flight handlers finish their current
/// response, and joins every thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `state`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address, …).
    pub fn start(addr: &str, state: ServeState) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(state);

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(POOL_SIZE);
        for i in 0..POOL_SIZE {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("buffy-obs-{i}"))
                    .spawn(move || loop {
                        let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        match conn {
                            Ok(mut stream) => handle(&mut stream, &state, &stop),
                            Err(_) => return, // accept loop gone: drain done
                        }
                    })?,
            );
        }

        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("buffy-obs-accept".to_string())
            .spawn(move || {
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if tx.send(stream).is_err() {
                                return;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => std::thread::sleep(POLL_INTERVAL),
                    }
                }
                // Dropping `tx` here closes the channel; idle workers
                // observe the disconnect and exit after the drain.
            })?;

        Ok(ObsServer {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address — the actual port when `addr` asked for `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins every server thread.
    /// In-flight responses (including `/events` streams) are given until
    /// their next poll tick to observe the stop flag.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Routes one connection. Only `GET` is served; unknown paths 404.
fn handle(stream: &mut TcpStream, state: &ServeState, stop: &AtomicBool) {
    let Some(req) = http::read_request(stream) else {
        return;
    };
    if req.method != "GET" {
        http::method_not_allowed(stream);
        return;
    }
    match req.path.as_str() {
        "/" => http::respond(
            stream,
            "200 OK",
            "text/html; charset=utf-8",
            page::INDEX_HTML,
        ),
        "/healthz" => http::respond(stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        "/metrics" => http::respond(
            stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &state.recorder.prometheus(),
        ),
        "/status" => http::respond(
            stream,
            "200 OK",
            "application/json; charset=utf-8",
            &status_json(state),
        ),
        "/events" => stream_events(stream, state, stop),
        _ => http::not_found(stream),
    }
}

/// Renders the `/status` snapshot.
///
/// The counters come from the lock-free [`LiveStats`] (each value exact,
/// cross-counter skew bounded by in-flight events); once the run ended
/// they equal its statistics.
fn status_json(state: &ServeState) -> String {
    let stats = &state.stats;
    let counters = stats.counters();
    let evaluations = counters.evaluations;
    let budget = match state.budget_evaluations {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let remaining = match state.budget_evaluations {
        Some(b) => b.saturating_sub(evaluations).to_string(),
        None => "null".to_string(),
    };
    // A front point renders like the `pareto` event that accepted it.
    let front: Vec<String> = stats
        .front()
        .iter()
        .map(|p| Event::Accepted(p).data_json())
        .collect();
    format!(
        "{{\"graph\":\"{}\",\"algorithm\":\"{}\",\"phase\":{},\"finished\":{},\
         \"elapsed_us\":{},\"evaluations\":{evaluations},\"cache_hits\":{},\
         \"failures\":{},\"pareto_accepted\":{},\"front_size\":{},\
         \"budget_evaluations\":{budget},\"budget_evaluations_remaining\":{remaining},\
         \"events_dropped\":{},\"front\":[{}]}}",
        json_escape(&state.graph),
        json_escape(&state.algorithm),
        match stats.phase_name() {
            Some(name) => format!("\"{name}\""),
            None => "null".to_string(),
        },
        stats.is_finished(),
        stats.elapsed_us(),
        counters.cache_hits,
        counters.failures,
        stats.pareto_accepted(),
        stats.front_size(),
        state.ring.dropped(),
        front.join(",")
    )
}

/// Streams `/events`: replays the ring from the beginning, then tails it
/// until the terminal `end` event, server shutdown, or the client going
/// away.
fn stream_events(stream: &mut TcpStream, state: &ServeState, stop: &AtomicBool) {
    if http::respond_sse_head(stream).is_err() {
        return;
    }
    let mut cursor = 0u64;
    let mut announced_drop = false;
    loop {
        if !announced_drop {
            let dropped = state.ring.dropped();
            if dropped > 0 {
                // The ring wrapped before this client connected: say so
                // instead of silently replaying a truncated history.
                let frame = format!("event: gap\ndata: {{\"dropped\":{dropped}}}\n\n");
                if stream.write_all(frame.as_bytes()).is_err() {
                    return;
                }
            }
            announced_drop = true;
        }
        let batch = state.ring.since(cursor);
        for entry in &batch {
            cursor = entry.seq + 1;
            if stream.write_all(sse_frame(entry).as_bytes()).is_err() {
                return;
            }
            if entry.kind == "end" {
                let _ = stream.flush();
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if batch.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Renders one ring entry as an SSE frame: `id` is the ring sequence
/// number, `event` the stable kind name, `data` the event's JSON fields
/// exactly as its `--trace-json` line carries them.
fn sse_frame(entry: &RingEntry) -> String {
    format!(
        "id: {}\nevent: {}\ndata: {}\n\n",
        entry.seq, entry.kind, entry.data
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_core::{ExploreObserver, ParetoPoint, SearchPhase};
    use buffy_graph::{Rational, StorageDistribution};
    use std::io::{BufRead, BufReader, Read};

    /// The live sinks a served run feeds: the `/status` fold and the
    /// `/events` ring.
    #[derive(Default)]
    struct Live {
        stats: Arc<LiveStats>,
        ring: Arc<EventRing>,
    }

    impl Live {
        fn event(&self, event: &Event<'_>) {
            self.stats.event(event);
            self.ring.event(event);
        }
    }

    fn test_state(live: &Live, recorder: Arc<Recorder>) -> ServeState {
        ServeState {
            graph: "example".to_string(),
            algorithm: "explore".to_string(),
            stats: live.stats.clone(),
            ring: live.ring.clone(),
            recorder,
            budget_evaluations: Some(100),
        }
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("write request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    fn feed_events(live: &Live) {
        let dist = StorageDistribution::from_capacities(vec![4, 2]);
        live.event(&Event::Phase(SearchPhase::Bounds));
        live.event(&Event::Evaluated {
            dist: &dist,
            throughput: Rational::new(1, 2),
            states: 7,
            nanos: 100,
        });
        live.event(&Event::Accepted(&ParetoPoint::new(
            dist.clone(),
            Rational::new(1, 2),
        )));
    }

    #[test]
    fn serves_health_metrics_status_and_page() {
        let live = Live::default();
        feed_events(&live);
        let recorder = Arc::new(Recorder::new());
        recorder.counter("buffy_demo_total", "demo").add(3);
        let mut server =
            ObsServer::start("127.0.0.1:0", test_state(&live, recorder)).expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("# TYPE buffy_demo_total counter"),
            "{metrics}"
        );
        assert!(metrics.contains("buffy_demo_total 3"), "{metrics}");

        let status = get(addr, "/status");
        assert!(status.contains("\"graph\":\"example\""), "{status}");
        assert!(status.contains("\"phase\":\"bounds\""), "{status}");
        assert!(status.contains("\"evaluations\":1"), "{status}");
        assert!(!status.contains("dominance_prunes"), "{status}");
        assert!(!status.contains("warm_starts"), "{status}");
        assert!(
            status.contains("\"budget_evaluations_remaining\":99"),
            "{status}"
        );
        assert!(
            status
                .contains("\"front\":[{\"size\":6,\"throughput\":\"1/2\",\"distribution\":[4,2]}]"),
            "{status}"
        );

        let page = get(addr, "/");
        assert!(page.contains("text/html"), "{page}");
        assert!(page.contains("buffy live"), "{page}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
    }

    #[test]
    fn events_replays_ring_then_ends() {
        let live = Live::default();
        feed_events(&live);
        let recorder = Arc::new(Recorder::new());
        let mut server =
            ObsServer::start("127.0.0.1:0", test_state(&live, recorder)).expect("bind");
        let addr = server.local_addr();

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write request");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("head line");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        assert!(head.contains("text/event-stream"), "{head}");

        // The replayed history arrives immediately; the end event only
        // after finish() — published while the stream is already open.
        live.event(&Event::End {
            reason: "exhausted",
        });
        let mut body = String::new();
        reader.read_to_string(&mut body).expect("stream to end");
        assert!(
            body.contains("event: phase\ndata: {\"phase\":\"bounds\"}"),
            "{body}"
        );
        // Evaluation frames keep the `--trace-json` key order.
        assert!(
            body.contains(
                "event: evaluation\ndata: {\"distribution\":[4,2],\"size\":6,\
                 \"throughput\":\"1/2\",\"states\":7,\"nanos\":100}"
            ),
            "{body}"
        );
        assert!(body.contains("event: pareto\n"), "{body}");
        assert!(
            body.contains("event: end\ndata: {\"reason\":\"exhausted\"}"),
            "{body}"
        );
        // Well-formed SSE: every frame is an id/event/data triple
        // terminated by a blank line.
        let frames = body.matches("id: ").count();
        assert_eq!(body.matches("event: ").count(), frames);
        assert_eq!(body.matches("data: ").count(), frames);
        assert_eq!(body.matches("\n\n").count(), frames);

        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_open_event_streams() {
        let live = Live::default();
        let recorder = Arc::new(Recorder::new());
        let mut server =
            ObsServer::start("127.0.0.1:0", test_state(&live, recorder)).expect("bind");
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write request");
        // Give the handler a moment to enter the tail loop, then stop.
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        let mut rest = String::new();
        conn.read_to_string(&mut rest).expect("stream closed");
    }

    #[test]
    fn non_get_is_rejected() {
        let live = Live::default();
        let recorder = Arc::new(Recorder::new());
        let mut server =
            ObsServer::start("127.0.0.1:0", test_state(&live, recorder)).expect("bind");
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"POST /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
    }
}
