//! Chrome trace-event JSON exporter.
//!
//! Renders the recorder's trace buffer in the [trace-event format]
//! understood by `chrome://tracing` and Perfetto: an object with a
//! `traceEvents` array of `Complete` (`ph:"X"`) and `Instant`
//! (`ph:"i"`) events, timestamps and durations in microseconds. The
//! array is prefixed with `Metadata` (`ph:"M"`) `process_name` /
//! `thread_name` events so the viewers label the tracks ("buffy",
//! "driver", "worker-N") instead of showing bare pid/tid numbers.
//!
//! [trace-event format]:
//! https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::{TraceEvent, TracePhase};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and control characters. Every JSON writer of the workspace
/// (trace exports, lint reports, `--json`, trace lines, the live server)
/// escapes through this one function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Display name for recording thread `tid`.
///
/// Tid 1 is the first thread that recorded an event — the exploration
/// driver; every later tid is one of the evaluation workers it spawned.
fn thread_name(tid: u64) -> String {
    if tid == 1 {
        "driver".to_string()
    } else {
        format!("worker-{}", tid - 1)
    }
}

/// Renders `events` as a complete Chrome trace-event JSON document.
///
/// All events share `pid` 1 (one process); `tid` is the stable
/// per-thread id assigned at recording time, so Perfetto lays worker
/// threads out as separate tracks. The document opens with `ph:"M"`
/// metadata naming the process and every thread that appears in
/// `events` (ascending tid), so the tracks come up labelled.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"buffy\"}}",
    );
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            thread_name(tid)
        );
    }
    for e in events.iter() {
        out.push_str(",\n");
        let name = json_escape(&e.name);
        match e.ph {
            TracePhase::Complete => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"buffy\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                    e.ts_us, e.dur_us, e.tid
                );
            }
            TracePhase::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"buffy\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    e.ts_us, e.tid
                );
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let doc = render_chrome_trace(&[]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        // Only the process metadata — no threads recorded anything.
        assert!(doc.contains("\"process_name\""));
        assert!(!doc.contains("\"thread_name\""));
    }

    #[test]
    fn metadata_names_every_recording_thread_once() {
        let event = |tid| TraceEvent {
            name: "eval".into(),
            ph: TracePhase::Instant,
            ts_us: 0,
            dur_us: 0,
            tid,
        };
        let doc = render_chrome_trace(&[event(3), event(1), event(3)]);
        assert_eq!(doc.matches("\"thread_name\"").count(), 2);
        let driver = doc.find("{\"name\":\"driver\"}").expect("driver named");
        let worker = doc.find("{\"name\":\"worker-2\"}").expect("worker named");
        // Ascending tid order regardless of event order.
        assert!(driver < worker, "{doc}");
        // Metadata precedes all payload events.
        assert!(worker < doc.find("\"ph\":\"i\"").unwrap(), "{doc}");
    }
}
