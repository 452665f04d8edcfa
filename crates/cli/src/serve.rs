//! CLI lifecycle of the embedded observability server (`--serve ADDR`).
//!
//! `explore` and `constraint` accept `--serve ADDR`: an [`EventRing`]
//! joins the run's observers and a [`buffy_obs::ObsServer`] serves `/`,
//! `/healthz`, `/metrics`, `/status` and `/events` for the duration of
//! the command, reading the ring and the [`LiveStats`] that the command's
//! progress sink folds. When the search completes, the terminal `end`
//! event is published and the server keeps answering — serving the
//! *final* front, counters and metrics — for `--serve-linger SECS`
//! (default 0) before the process exits. Attaching the server never
//! changes a result: the observer surface is read-only, so fronts and
//! statistics stay byte-identical with `--serve` on or off at any thread
//! count.

use crate::args::ParsedArgs;
use crate::telemetry::TelemetrySession;
use buffy_core::{EventRing, LiveStats};
use buffy_obs::{ObsServer, ServeState};
use std::sync::Arc;
use std::time::Duration;

/// One command's observability-server scope: the event ring the run
/// feeds, plus the running server.
pub(crate) struct ServeSession {
    ring: Arc<EventRing>,
    server: ObsServer,
    linger: Duration,
}

impl ServeSession {
    /// Starts the server when `--serve ADDR` was given; `None` otherwise.
    /// `/status` reports `stats`.
    ///
    /// Must be called after the [`TelemetrySession`] is built: `--serve`
    /// makes it install a recorder, and the server holds a handle for
    /// live `/metrics` scrapes.
    ///
    /// # Errors
    ///
    /// Rejects an unbindable address, a malformed `--serve-linger`, or
    /// `--serve-linger` without `--serve`.
    pub(crate) fn from_options(
        parsed: &ParsedArgs,
        graph: &str,
        algorithm: &str,
        telemetry: &TelemetrySession,
        stats: Arc<LiveStats>,
    ) -> Result<Option<ServeSession>, String> {
        let linger_secs = parsed.get::<f64>("serve-linger")?;
        let Some(addr) = parsed.options.get("serve") else {
            if linger_secs.is_some() {
                return Err("--serve-linger requires --serve".into());
            }
            return Ok(None);
        };
        let linger = match linger_secs {
            None => Duration::ZERO,
            Some(secs) if secs.is_finite() && secs >= 0.0 => Duration::from_secs_f64(secs),
            Some(_) => return Err("--serve-linger must be a non-negative number of seconds".into()),
        };
        let ring = Arc::new(EventRing::default());
        let recorder = telemetry
            .recorder()
            .expect("--serve makes the telemetry session install a recorder");
        let state = ServeState {
            graph: graph.to_string(),
            algorithm: algorithm.to_string(),
            stats,
            ring: ring.clone(),
            recorder,
            budget_evaluations: parsed.get("max-evals")?,
        };
        let server = ObsServer::start(addr, state)
            .map_err(|e| format!("cannot serve observability on {addr}: {e}"))?;
        eprintln!(
            "[buffy] serving observability on http://{}",
            server.local_addr()
        );
        Ok(Some(ServeSession {
            ring,
            server,
            linger,
        }))
    }

    /// The ring to add to the run's observers.
    pub(crate) fn ring(&self) -> Arc<EventRing> {
        self.ring.clone()
    }

    /// Serves the final state for the linger window, then shuts the
    /// server down.
    pub(crate) fn linger(mut self) {
        if !self.linger.is_zero() {
            std::thread::sleep(self.linger);
        }
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use buffy_core::{Event, ExploreObserver};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn parsed(extra: &[&str]) -> ParsedArgs {
        let mut raw: Vec<String> = vec!["explore".into(), "g.xml".into()];
        raw.extend(extra.iter().map(|s| s.to_string()));
        parse(&raw).unwrap()
    }

    fn expect_err(result: Result<Option<ServeSession>, String>) -> String {
        match result {
            Err(message) => message,
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn absent_serve_is_none() {
        let p = parsed(&[]);
        let telemetry = TelemetrySession::from_options(&p);
        assert!(
            ServeSession::from_options(&p, "g", "explore", &telemetry, Arc::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn linger_without_serve_is_rejected() {
        let p = parsed(&["--serve-linger", "2"]);
        let telemetry = TelemetrySession::from_options(&p);
        let err = expect_err(ServeSession::from_options(
            &p,
            "g",
            "explore",
            &telemetry,
            Arc::default(),
        ));
        assert!(err.contains("--serve-linger requires --serve"), "{err}");
    }

    #[test]
    fn negative_linger_is_rejected() {
        let p = parsed(&["--serve", "127.0.0.1:0", "--serve-linger", "-1"]);
        let telemetry = TelemetrySession::from_options(&p);
        let err = expect_err(ServeSession::from_options(
            &p,
            "g",
            "explore",
            &telemetry,
            Arc::default(),
        ));
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn unbindable_address_is_a_proper_error() {
        let p = parsed(&["--serve", "256.0.0.1:99999"]);
        let telemetry = TelemetrySession::from_options(&p);
        let err = expect_err(ServeSession::from_options(
            &p,
            "g",
            "explore",
            &telemetry,
            Arc::default(),
        ));
        assert!(err.contains("cannot serve observability"), "{err}");
    }

    #[test]
    fn session_serves_status_until_finish() {
        let p = parsed(&["--serve", "127.0.0.1:0"]);
        let telemetry = TelemetrySession::from_options(&p);
        let stats = Arc::new(LiveStats::new());
        let session = ServeSession::from_options(&p, "modem", "explore", &telemetry, stats.clone())
            .unwrap()
            .expect("--serve given");
        let addr = session.server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.contains("\"graph\":\"modem\""), "{response}");
        assert!(response.contains("\"finished\":false"), "{response}");
        stats.event(&Event::End { reason: "exact" });
        session.linger();
        // After finish the server is gone; connecting must fail.
        assert!(TcpStream::connect(addr).is_err());
        drop(telemetry);
    }
}
