//! The diagnostics framework: severities, stable lint IDs, allow-lists,
//! and text/JSON exposition.
//!
//! Every analyzer in this crate (and the flag-spec lints in
//! `flagsim_flags::lint`) reports through one shape: a [`Diag`] with a
//! stable `SC###` catalog ID, a [`Severity`], a one-line message, and
//! optional detail lines (access stacks, cycle paths). A [`Report`]
//! collects them for one checked target and renders deterministically —
//! same findings in, same bytes out — so CI can diff JSON across runs
//! and `--jobs` counts.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; often intentional.
    Note,
    /// Probably a mistake; the run will still work.
    Warning,
    /// The scenario/flag/plan cannot work as specified.
    Error,
}

impl Severity {
    /// Lowercase tag used in text and JSON output.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parse a `--deny` style level name.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One diagnostic finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Stable catalog ID ("SC204"). See [`crate::catalog`].
    pub id: &'static str,
    /// Severity.
    pub severity: Severity,
    /// What the finding concerns ("cell (3,2)", "layer 1", "student 2").
    /// Empty when the whole target is meant.
    pub subject: String,
    /// One-line human-readable message.
    pub message: String,
    /// Extra context lines (both access stacks of a race, a deadlock
    /// cycle path, the scheduler tie that hid a hazard).
    pub detail: Vec<String>,
}

impl Diag {
    /// A detail-free finding.
    pub fn new(
        id: &'static str,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Diag {
        Diag {
            id,
            severity,
            subject: subject.into(),
            message: message.into(),
            detail: Vec::new(),
        }
    }

    /// Attach a detail line.
    pub fn with_detail(mut self, line: impl Into<String>) -> Diag {
        self.detail.push(line.into());
        self
    }
}

/// All findings for one checked target.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// What was checked ("scenario 4: vertical slices", "flag mauritius").
    pub target: String,
    /// The findings, in analyzer order.
    pub diags: Vec<Diag>,
}

impl Report {
    /// An empty report for `target`.
    pub fn new(target: impl Into<String>) -> Report {
        Report {
            target: target.into(),
            diags: Vec::new(),
        }
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diag) {
        self.diags.push(d);
    }

    /// Add many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diag>) {
        self.diags.extend(ds);
    }

    /// Drop findings whose ID is on the allow-list ("SC105,SC302" style
    /// entries, already split). Unknown IDs are ignored — allowing a
    /// lint that never fires is not an error.
    pub fn allow(&mut self, allowed: &[String]) {
        self.diags.retain(|d| !allowed.iter().any(|a| a == d.id));
    }

    /// `(errors, warnings, notes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// The most severe finding present.
    pub fn worst(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity).max()
    }

    /// True when any finding is at or above `deny`.
    pub fn denies(&self, deny: Severity) -> bool {
        self.worst().is_some_and(|w| w >= deny)
    }

    /// Sort findings for stable output: severity (worst first), then ID,
    /// subject, message. Analyzers run in a fixed order already; sorting
    /// makes the report independent of that order too.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.id.cmp(b.id))
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// One-line summary ("2 error(s), 1 warning(s), 3 note(s)").
    pub fn summary(&self) -> String {
        let (e, w, n) = self.counts();
        if self.diags.is_empty() {
            "no findings".to_owned()
        } else {
            format!("{e} error(s), {w} warning(s), {n} note(s)")
        }
    }

    /// Human-readable rendering: header, one block per finding, summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("check: {}\n", self.target);
        if self.diags.is_empty() {
            out.push_str("  no findings — the configuration looks clean\n");
            return out;
        }
        for d in &self.diags {
            let subject = if d.subject.is_empty() {
                String::new()
            } else {
                format!("{}: ", d.subject)
            };
            let _ = writeln!(out, "  {}[{}]: {subject}{}", d.severity.tag(), d.id, d.message);
            for line in &d.detail {
                let _ = writeln!(out, "      {line}");
            }
        }
        let _ = writeln!(out, "  summary: {}", self.summary());
        out
    }

    /// JSON rendering. Deterministic field order; validated round-trip by
    /// `flagsim_telemetry::json::parse` in the test suite.
    pub fn to_json(&self) -> String {
        use flagsim_telemetry::json::json_string;
        use std::fmt::Write as _;
        let (e, w, n) = self.counts();
        let mut out = String::with_capacity(256 + self.diags.len() * 128);
        let _ = write!(out, "{{\"target\":{},\"diagnostics\":[", json_string(&self.target));
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"severity\":{},\"subject\":{},\"message\":{},\"detail\":[",
                json_string(d.id),
                json_string(d.severity.tag()),
                json_string(&d.subject),
                json_string(&d.message),
            );
            for (j, line) in d.detail.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(line));
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"counts\":{{\"error\":{e},\"warning\":{w},\"note\":{n}}}}}"
        );
        out
    }
}

/// Convert the flag-spec lints of [`flagsim_flags::lint`](fn@flagsim_flags::lint) into framework
/// diagnostics (they already carry `SC1xx` IDs).
pub fn from_flag_lints(lints: &[flagsim_flags::Lint]) -> Vec<Diag> {
    lints
        .iter()
        .map(|l| {
            let severity = match l.level {
                flagsim_flags::LintLevel::Error => Severity::Error,
                flagsim_flags::LintLevel::Warning => Severity::Warning,
                flagsim_flags::LintLevel::Note => Severity::Note,
            };
            let subject = match l.layer {
                Some(li) => format!("layer {li}"),
                None => String::new(),
            };
            Diag::new(l.id, severity, subject, l.message.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("scenario x");
        r.push(Diag::new("SC302", Severity::Note, "red marker", "tie"));
        r.push(
            Diag::new("SC301", Severity::Error, "cell (0,0)", "race")
                .with_detail("P1 wrote at 0ms")
                .with_detail("P2 wrote at 0ms"),
        );
        r.push(Diag::new("SC212", Severity::Warning, "", "spares"));
        r
    }

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn counts_worst_and_deny() {
        let r = sample();
        assert_eq!(r.counts(), (1, 1, 1));
        assert_eq!(r.worst(), Some(Severity::Error));
        assert!(r.denies(Severity::Error));
        assert!(r.denies(Severity::Note));
        let empty = Report::new("clean");
        assert!(!empty.denies(Severity::Note));
        assert_eq!(empty.summary(), "no findings");
    }

    #[test]
    fn allow_list_drops_by_id() {
        let mut r = sample();
        r.allow(&["SC302".to_owned(), "SC999".to_owned()]);
        assert_eq!(r.diags.len(), 2);
        assert!(r.diags.iter().all(|d| d.id != "SC302"));
    }

    #[test]
    fn sort_is_severity_then_id() {
        let mut r = sample();
        r.sort();
        let ids: Vec<&str> = r.diags.iter().map(|d| d.id).collect();
        assert_eq!(ids, ["SC301", "SC212", "SC302"]);
    }

    #[test]
    fn text_render_shows_ids_details_and_summary() {
        let mut r = sample();
        r.sort();
        let text = r.render_text();
        assert!(text.contains("error[SC301]: cell (0,0): race"));
        assert!(text.contains("      P2 wrote at 0ms"));
        assert!(text.contains("summary: 1 error(s), 1 warning(s), 1 note(s)"));
        assert!(Report::new("clean").render_text().contains("no findings"));
    }

    #[test]
    fn json_parses_and_carries_counts() {
        let mut r = sample();
        r.sort();
        let json = r.to_json();
        let v = flagsim_telemetry::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("counts").and_then(|c| c.get("error")).and_then(|e| e.as_f64()),
            Some(1.0)
        );
        let diags = v.get("diagnostics").and_then(|d| d.as_array()).expect("array");
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].get("id").and_then(|i| i.as_str()), Some("SC301"));
        assert_eq!(
            diags[0].get("detail").and_then(|d| d.as_array()).map(|a| a.len()),
            Some(2)
        );
    }
}
