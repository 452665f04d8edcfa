//! Structured diagnostics: stable codes, severities, subjects, renderers.

use buffy_telemetry::json_escape;
use core::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never blocks anything.
    Info,
    /// Likely a modelling mistake; blocks only under `--deny-warnings`.
    Warning,
    /// The model cannot work as written; analyses refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subject {
    /// The graph as a whole.
    Graph,
    /// A named actor.
    Actor(String),
    /// A named channel.
    Channel(String),
}

impl Subject {
    /// The JSON `subject_kind` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Subject::Graph => "graph",
            Subject::Actor(_) => "actor",
            Subject::Channel(_) => "channel",
        }
    }

    /// The subject's name, if it has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Subject::Graph => None,
            Subject::Actor(n) | Subject::Channel(n) => Some(n),
        }
    }
}

/// One finding: a stable code, a severity, the offending element, a
/// human-readable message and an optional fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`B001`…); never renumbered.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// The offending element.
    pub subject: Subject,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// An `Error` diagnostic.
    pub fn error(code: &'static str, subject: Subject, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            subject,
            message: message.into(),
            hint: None,
        }
    }

    /// A `Warning` diagnostic.
    pub fn warning(code: &'static str, subject: Subject, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            subject,
            message: message.into(),
            hint: None,
        }
    }

    /// An `Info` diagnostic.
    pub fn info(code: &'static str, subject: Subject, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Info,
            subject,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        match &self.subject {
            Subject::Graph => write!(f, ":")?,
            Subject::Actor(n) => write!(f, " actor '{n}':")?,
            Subject::Channel(n) => write!(f, " channel '{n}':")?,
        }
        write!(f, " {}", self.message)
    }
}

/// The outcome of linting one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The linted graph's name.
    pub graph: String,
    /// The model class
    /// ([`DataflowSemantics::kind`](buffy_analysis::DataflowSemantics::kind)):
    /// `"sdf"` or `"csdf"`.
    pub kind: &'static str,
    /// All findings, in rule (code) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding is `Error`-level.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether any finding is `Warning`-level.
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }

    /// Whether there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders the report for terminals, one diagnostic per block.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "{} ({}): no issues found\n",
                self.graph, self.kind
            ));
            return out;
        }
        out.push_str(&format!(
            "{} ({}): {} error(s), {} warning(s)\n",
            self.graph,
            self.kind,
            self.count(Severity::Error),
            self.count(Severity::Warning),
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
            if let Some(hint) = &d.hint {
                out.push_str(&format!("  hint: {hint}\n"));
            }
        }
        out
    }

    /// Renders the report as a single JSON object (stable schema:
    /// `graph`, `kind`, `errors`, `warnings`, `diagnostics[]` with
    /// `code`, `severity`, `subject_kind`, `subject`, `message`, `hint`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"graph\":\"{}\",\"kind\":\"{}\",\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            json_escape(&self.graph),
            self.kind,
            self.count(Severity::Error),
            self.count(Severity::Warning),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"subject_kind\":\"{}\",\"subject\":{},\"message\":\"{}\",\"hint\":{}}}",
                d.code,
                d.severity,
                d.subject.kind(),
                match d.subject.name() {
                    Some(n) => format!("\"{}\"", json_escape(n)),
                    None => "null".to_string(),
                },
                json_escape(&d.message),
                match &d.hint {
                    Some(h) => format!("\"{}\"", json_escape(h)),
                    None => "null".to_string(),
                },
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            graph: "g".into(),
            kind: "sdf",
            diagnostics: vec![
                Diagnostic::error("B001", Subject::Channel("bwd".into()), "inconsistent")
                    .with_hint("fix the rates"),
                Diagnostic::warning("B007", Subject::Actor("z".into()), "dead actor"),
            ],
        }
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Severity::Info.to_string(), "info");
    }

    #[test]
    fn counting() {
        let r = sample();
        assert!(r.has_errors());
        assert!(r.has_warnings());
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 0);
    }

    #[test]
    fn human_rendering() {
        let r = sample();
        let h = r.render_human();
        assert!(h.contains("g (sdf): 1 error(s), 1 warning(s)"));
        assert!(h.contains("error[B001] channel 'bwd': inconsistent"));
        assert!(h.contains("  hint: fix the rates"));
        assert!(h.contains("warning[B007] actor 'z': dead actor"));

        let clean = Report {
            graph: "ok".into(),
            kind: "csdf",
            diagnostics: vec![],
        };
        assert_eq!(clean.render_human(), "ok (csdf): no issues found\n");
    }

    #[test]
    fn json_rendering() {
        let r = sample();
        let j = r.render_json();
        assert!(j.starts_with("{\"graph\":\"g\",\"kind\":\"sdf\",\"errors\":1,\"warnings\":1,"));
        assert!(j.contains(
            "{\"code\":\"B001\",\"severity\":\"error\",\"subject_kind\":\"channel\",\
             \"subject\":\"bwd\",\"message\":\"inconsistent\",\"hint\":\"fix the rates\"}"
        ));
        assert!(j.contains("\"hint\":null"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn graph_subject_has_null_name() {
        let d = Diagnostic::info("B008", Subject::Graph, "note");
        assert_eq!(d.subject.kind(), "graph");
        assert_eq!(d.subject.name(), None);
        assert_eq!(d.to_string(), "info[B008]: note");
    }
}
