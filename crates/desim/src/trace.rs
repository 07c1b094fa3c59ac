//! Simulation traces: accounting, event logs, and their charts.
//!
//! The ASCII and SVG Gantt charts and the Chrome trace all draw the
//! trace's segment timelines ([`crate::causal::build_timelines`]) without
//! their idle segments: a work chunk per `WorkStart`, and a wait from each
//! `Blocked` through the hand-off transit after its grant, so each row's
//! drawn work and wait equal the process's `busy` and `waiting`.

use crate::causal::{build_timelines, GanttModel, SegmentKind};
use crate::engine::ProcId;
use crate::resource::{ResourceId, ResourceStats};
use crate::time::{SimDuration, SimTime};
use flagsim_telemetry::{intern, SpanRecord, SpanSet};
use std::fmt::Write as _;

/// Quote a CSV field RFC-4180-style when it contains a comma, quote, or
/// line break: the field is wrapped in double quotes and embedded quotes
/// are doubled. Fields without delimiters pass through unchanged.
pub fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains([',', '"', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut quoted = String::with_capacity(s.len() + 2);
    quoted.push('"');
    for c in s.chars() {
        if c == '"' {
            quoted.push('"');
        }
        quoted.push(c);
    }
    quoted.push('"');
    std::borrow::Cow::Owned(quoted)
}

/// Escape a string for interpolation into XML/SVG text content or a
/// double-quoted attribute: `&`, `<`, `>`, `"`, and `'` become entity
/// references. Strings without special characters pass through unchanged
/// (mirroring [`csv_field`]'s borrow-when-clean contract).
pub fn xml_escape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains(['&', '<', '>', '"', '\'']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut escaped = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => escaped.push_str("&amp;"),
            '<' => escaped.push_str("&lt;"),
            '>' => escaped.push_str("&gt;"),
            '"' => escaped.push_str("&quot;"),
            '\'' => escaped.push_str("&apos;"),
            c => escaped.push(c),
        }
    }
    std::borrow::Cow::Owned(escaped)
}

/// What happened at one moment, for one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Began a chunk of work of the given duration.
    WorkStart {
        /// How long the work will take.
        dur: SimDuration,
    },
    /// Was granted a resource (instantly or after waiting + hand-off; the
    /// event is logged when the grant is decided).
    Acquired(ResourceId),
    /// Joined a resource's FIFO wait queue.
    Blocked(ResourceId),
    /// Released a resource.
    Released(ResourceId),
    /// Finished for good.
    Finished,
}

/// One log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which process.
    pub proc: ProcId,
    /// What happened.
    pub kind: EventKind,
}

/// Per-process accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcReport {
    /// Display name.
    pub name: String,
    /// Total time spent working.
    pub busy: SimDuration,
    /// Total time spent blocked on resources (including hand-offs).
    pub waiting: SimDuration,
    /// `Work` chunks that ran to completion — counted by the engine as
    /// wake events fire, so it is exact even when the event sink is off
    /// or a bell cut the run mid-chunk.
    pub completed_work: u64,
    /// When the process issued `Done` (None if it never finished).
    pub finished_at: Option<SimTime>,
}

/// One process's accounting as the engine keeps it: a [`ProcReport`]
/// without the name, read in place with `Engine::accounts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcAccount {
    /// Total time spent working.
    pub busy: SimDuration,
    /// Total time spent blocked on resources (including hand-offs).
    pub waiting: SimDuration,
    /// `Work` chunks that ran to completion.
    pub completed_work: u64,
    /// When the process issued `Done` (None if it never finished).
    pub finished_at: Option<SimTime>,
}

impl ProcAccount {
    /// The lifetime rates are computed against: from t=0 until the
    /// process finished, or until `trace_end` for a process that never
    /// finished — a downed worker is down for the whole run, not absent
    /// from it.
    pub fn lifetime(&self, trace_end: SimTime) -> SimDuration {
        self.finished_at.unwrap_or(trace_end) - SimTime::ZERO
    }

    /// Idle time: elapsed lifetime not spent busy or waiting.
    pub fn idle(&self, trace_end: SimTime) -> SimDuration {
        SimDuration(
            self.lifetime(trace_end)
                .millis()
                .saturating_sub(self.busy.millis() + self.waiting.millis()),
        )
    }
}

impl ProcReport {
    /// The accounting without the name.
    pub fn account(&self) -> ProcAccount {
        ProcAccount {
            busy: self.busy,
            waiting: self.waiting,
            completed_work: self.completed_work,
            finished_at: self.finished_at,
        }
    }

    /// See [`ProcAccount::lifetime`].
    pub fn lifetime(&self, trace_end: SimTime) -> SimDuration {
        self.account().lifetime(trace_end)
    }

    /// See [`ProcAccount::idle`].
    pub fn idle(&self, trace_end: SimTime) -> SimDuration {
        self.account().idle(trace_end)
    }

    /// Fraction of lifetime spent busy, in `[0, 1]` (0 for a zero-length
    /// lifetime). A process that never finished is measured against
    /// `trace_end`, so a downed or stalled worker reports its true (low)
    /// utilization instead of a spurious 100%.
    pub fn utilization(&self, trace_end: SimTime) -> f64 {
        let lifetime = self.lifetime(trace_end);
        if lifetime.millis() == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() / lifetime.as_secs_f64()
        }
    }
}

/// Per-resource report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// Display label.
    pub label: String,
    /// Number of interchangeable copies in the pool.
    pub capacity: usize,
    /// Hand-off latency charged on each contended grant.
    pub handoff: SimDuration,
    /// Contention statistics.
    pub stats: ResourceStats,
}

/// The complete result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Time of the last event — the completion time the activity's timer
    /// student would report.
    pub end_time: SimTime,
    /// Per-process accounting, indexed by [`ProcId`].
    pub procs: Vec<ProcReport>,
    /// Per-resource contention stats, indexed by [`ResourceId`].
    pub resources: Vec<ResourceReport>,
    /// Full event log in chronological order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The makespan (end time as a duration from zero).
    pub fn makespan(&self) -> SimDuration {
        self.end_time - SimTime::ZERO
    }

    /// Sum of all processes' busy time — the total "work".
    pub fn total_busy(&self) -> SimDuration {
        self.procs
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.busy)
    }

    /// Sum of all processes' waiting time — the total contention cost.
    pub fn total_waiting(&self) -> SimDuration {
        self.procs
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.waiting)
    }

    /// Sum of all processes' idle time (lifetime not spent busy or
    /// waiting) — the third column of the classroom work/wait/idle split.
    pub fn total_idle(&self) -> SimDuration {
        self.procs
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.idle(self.end_time))
    }

    /// Events for one process, in order.
    pub fn events_for(&self, pid: ProcId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.proc == pid)
    }

    /// Render an ASCII Gantt chart, one row per process, `width` characters
    /// across the full makespan: `#` busy, `~` waiting, `.` idle.
    ///
    /// The chart is a visual aid (the paper projects scenario slides; our
    /// equivalent is a terminal), not a precise plot: each character cell
    /// shows the dominant state in its time bucket. It is
    /// [`GanttModel`]'s chart of the segment timelines, without a
    /// critical path.
    pub fn gantt(&self, width: usize) -> String {
        GanttModel::from_segments(self, &build_timelines(self), &[]).render_whole(width, "", "", "")
    }

    /// Export the event log as CSV (`time_ms,proc,proc_name,kind,resource`)
    /// for spreadsheet-side analysis of a run. Process names are quoted
    /// RFC-4180-style when they contain a delimiter, so a name like
    /// `P1, helper` cannot corrupt the column layout.
    pub fn events_csv(&self) -> String {
        let mut out = String::from("time_ms,proc,proc_name,kind,resource\n");
        for e in &self.events {
            let name = csv_field(
                self.procs
                    .get(e.proc.index())
                    .map(|p| p.name.as_str())
                    .unwrap_or("?"),
            );
            let (kind, res) = match e.kind {
                EventKind::WorkStart { dur } => (format!("work:{}", dur.millis()), String::new()),
                EventKind::Acquired(r) => ("acquired".to_owned(), r.index().to_string()),
                EventKind::Blocked(r) => ("blocked".to_owned(), r.index().to_string()),
                EventKind::Released(r) => ("released".to_owned(), r.index().to_string()),
                EventKind::Finished => ("finished".to_owned(), String::new()),
            };
            let _ = writeln!(out, "{},{},{},{},{}", e.time.millis(), e.proc.index(), name, kind, res);
        }
        out
    }

    /// Render the per-process timeline as an SVG Gantt chart (busy bars in
    /// color, waiting bars hatched gray) — a projectable version of
    /// [`Trace::gantt`]. Pure text output.
    pub fn svg_gantt(&self, width_px: u32) -> String {
        let total = self.end_time.millis().max(1) as f64;
        let row_h = 24u32;
        let label_w = 120u32;
        // A chart narrower than its label column (or zero-width) would
        // underflow the plot area; clamp to label column + a sliver.
        let width_px = width_px.max(label_w + 40);
        let height = row_h * (self.procs.len() as u32 + 1);
        let scale = |ms: u64| label_w as f64 + (ms as f64 / total) * (width_px - label_w) as f64;
        let mut out = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height}\" \
             viewBox=\"0 0 {width_px} {height}\" font-family=\"monospace\" font-size=\"12\">\n"
        );
        for (idx, (proc, segs)) in self.procs.iter().zip(build_timelines(self)).enumerate() {
            let y = row_h * idx as u32 + 4;
            let _ = writeln!(
                out,
                "  <text x=\"4\" y=\"{}\">{}</text>",
                y + 12,
                xml_escape(&proc.name)
            );
            for seg in segs {
                let fill = match seg.kind {
                    SegmentKind::Compute => "#4a90d9",
                    SegmentKind::Wait { .. } => "#c0c0c0",
                    SegmentKind::Idle => continue,
                };
                let x0 = scale(seg.start.millis());
                let x1 = scale(seg.end.millis());
                let _ = writeln!(
                    out,
                    "  <rect x=\"{x0:.1}\" y=\"{y}\" width=\"{:.1}\" height=\"16\" \
                     fill=\"{fill}\"/>",
                    (x1 - x0).max(0.5)
                );
            }
        }
        let _ = writeln!(
            out,
            "  <text x=\"{label_w}\" y=\"{}\">0s .. {}</text>",
            height - 6,
            self.end_time
        );
        out.push_str("</svg>\n");
        out
    }

    /// A compact one-line summary, e.g. for classroom "times on the board".
    pub fn summary(&self) -> String {
        format!(
            "makespan {} | work {} | waiting {} | idle {} | {} procs",
            self.makespan(),
            self.total_busy(),
            self.total_waiting(),
            self.total_idle(),
            self.procs.len()
        )
    }

    /// Export the simulated timeline as Chrome `trace_event` JSON through
    /// the one Chrome-trace writer, [`SpanSet::chrome_trace`]: the
    /// `"flagsim"` process with one track per process, named after it, so
    /// Perfetto / `chrome://tracing` show student names. Each work chunk
    /// is a `"work"` span (category `"sim"`) and each wait, hand-off
    /// transit included, a `"wait: LABEL"` span (category `"wait"`).
    /// Simulated milliseconds become the writer's nanoseconds (`ms × 10⁶`,
    /// saturating), so the file's microsecond timestamps read `ms × 1000`. The writer orders
    /// tracks by name (`P2` before `P10`); processes that share a name
    /// share a track.
    pub fn chrome_trace(&self) -> String {
        let ns = |ms: u64| ms.saturating_mul(1_000_000);
        let mut spans: Vec<SpanRecord> = Vec::new();
        for (proc, segs) in self.procs.iter().zip(build_timelines(self)) {
            for seg in segs {
                let (category, name) = match seg.kind {
                    SegmentKind::Compute => ("sim", "work"),
                    SegmentKind::Wait { resource, .. } => {
                        let label = self
                            .resources
                            .get(resource.index())
                            .map_or("resource", |r| r.label.as_str());
                        ("wait", intern(&format!("wait: {label}")))
                    }
                    SegmentKind::Idle => continue,
                };
                spans.push(SpanRecord {
                    id: spans.len() as u64 + 1,
                    parent: None,
                    link: None,
                    category,
                    name,
                    track: proc.name.clone(),
                    process: String::new(),
                    start_ns: ns(seg.start.millis()),
                    end_ns: ns(seg.end.millis()),
                    args: Vec::new(),
                });
            }
        }
        SpanSet::from_records(spans).chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            end_time: SimTime(100),
            procs: vec![
                ProcReport {
                    name: "P1".into(),
                    busy: SimDuration(60),
                    waiting: SimDuration(20),
                    completed_work: 1,
                    finished_at: Some(SimTime(100)),
                },
                ProcReport {
                    name: "P2".into(),
                    busy: SimDuration(50),
                    waiting: SimDuration(0),
                    completed_work: 1,
                    finished_at: Some(SimTime(50)),
                },
            ],
            resources: vec![],
            events: vec![
                TraceEvent {
                    time: SimTime(0),
                    proc: ProcId(0),
                    kind: EventKind::WorkStart {
                        dur: SimDuration(60),
                    },
                },
                TraceEvent {
                    time: SimTime(60),
                    proc: ProcId(0),
                    kind: EventKind::Blocked(ResourceId(0)),
                },
                TraceEvent {
                    time: SimTime(80),
                    proc: ProcId(0),
                    kind: EventKind::Acquired(ResourceId(0)),
                },
                TraceEvent {
                    time: SimTime(0),
                    proc: ProcId(1),
                    kind: EventKind::WorkStart {
                        dur: SimDuration(50),
                    },
                },
            ],
        }
    }

    #[test]
    fn totals() {
        let t = sample_trace();
        assert_eq!(t.makespan(), SimDuration(100));
        assert_eq!(t.total_busy(), SimDuration(110));
        assert_eq!(t.total_waiting(), SimDuration(20));
    }

    #[test]
    fn proc_report_idle_and_utilization() {
        let t = sample_trace();
        let end = t.end_time;
        assert_eq!(t.procs[0].idle(end), SimDuration(20)); // 100 - 60 - 20
        assert!((t.procs[0].utilization(end) - 0.6).abs() < 1e-12);
        assert_eq!(t.procs[1].idle(end), SimDuration(0));
    }

    #[test]
    fn downed_worker_utilization_measured_against_trace_end() {
        // Regression: a process that never finished used to report
        // utilization 1.0 — a downed worker showing 100% busy. It is
        // now measured against the trace end time.
        let p = ProcReport {
            name: "downed".into(),
            busy: SimDuration(30),
            waiting: SimDuration(10),
            completed_work: 0,
            finished_at: None,
        };
        let end = SimTime(100);
        assert!((p.utilization(end) - 0.3).abs() < 1e-12);
        assert_eq!(p.idle(end), SimDuration(60));
        assert_eq!(p.lifetime(end), SimDuration(100));
        // Degenerate zero-length trace: no division by zero, 0 not 100%.
        assert_eq!(p.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn gantt_shape() {
        let t = sample_trace();
        let g = t.gantt(10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        // P1: 6 busy buckets, 2 wait buckets, 2 idle.
        assert!(lines[0].contains("######~~"));
        // P2: 5 busy buckets then idle.
        assert!(lines[1].contains("#####....."));
        assert!(lines[2].contains("0.100s"));
    }

    #[test]
    fn events_for_filters() {
        let t = sample_trace();
        assert_eq!(t.events_for(ProcId(0)).count(), 3);
        assert_eq!(t.events_for(ProcId(1)).count(), 1);
    }

    #[test]
    fn summary_mentions_makespan() {
        let t = sample_trace();
        assert!(t.summary().contains("makespan 0.100s"));
    }

    #[test]
    fn summary_includes_idle_total() {
        let t = sample_trace();
        // P1 idle 20ms (100 lifetime − 60 busy − 20 wait); P2 finished
        // at 50 with 50 busy, so 0 idle within its lifetime.
        assert_eq!(t.total_idle(), SimDuration(20));
        assert!(t.summary().contains("idle 0.020s"), "{}", t.summary());
    }

    #[test]
    fn chrome_trace_has_metadata_and_balanced_phases() {
        let t = trace_with_resource();
        let json = t.chrome_trace();
        // The writer's own validator checks B/E balance per track: three
        // spans, one process_name and two thread_name records.
        let n = flagsim_telemetry::json::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(n, 3 * 2 + 1 + 2, "{json}");
        assert!(json.contains("\"args\": {\"name\": \"P1\"}"), "{json}");
        assert!(json.contains("\"name\": \"wait: red marker\", \"cat\": \"wait\""), "{json}");
        assert!(json.contains("\"name\": \"work\", \"cat\": \"sim\""), "{json}");
    }

    fn trace_with_resource() -> Trace {
        let mut t = sample_trace();
        t.resources = vec![ResourceReport {
            label: "red marker".into(),
            capacity: 1,
            handoff: SimDuration(0),
            stats: Default::default(),
        }];
        // P1 acquires at 80 and never releases (runs to end at 100).
        t
    }

    #[test]
    fn events_csv_rows() {
        let t = sample_trace();
        let csv = t.events_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ms,proc,proc_name,kind,resource");
        assert_eq!(lines.len(), 5); // header + 4 events
        assert!(lines[1].starts_with("0,0,P1,work:60,"));
        assert!(lines[2].contains("blocked,0"));
        assert!(lines[3].contains("acquired,0"));
    }

    #[test]
    fn events_csv_quotes_delimiters_in_process_names() {
        // Regression: a comma or quote in a process name used to shift
        // every later column of that row.
        let mut t = sample_trace();
        t.procs[0].name = "P1, \"helper\"".into();
        let csv = t.events_csv();
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row, "0,0,\"P1, \"\"helper\"\"\",work:60,");
        // Every row still has exactly five columns once quoted fields
        // are parsed RFC-4180-style.
        for line in csv.lines().skip(1) {
            let mut cols = 1;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cols += 1,
                    _ => {}
                }
            }
            assert_eq!(cols, 5, "bad row: {line}");
        }
    }

    #[test]
    fn csv_field_quoting_rules() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn svg_gantt_draws_busy_and_wait_bars() {
        let t = sample_trace();
        let svg = t.svg_gantt(600);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("#4a90d9"), "busy bars present");
        assert!(svg.contains("#c0c0c0"), "wait bars present");
        assert!(svg.contains(">P1<"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn xml_escape_rules() {
        assert_eq!(xml_escape("plain"), "plain");
        assert!(matches!(xml_escape("plain"), std::borrow::Cow::Borrowed(_)));
        assert_eq!(xml_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(xml_escape("say \"hi\" & 'bye'"), "say &quot;hi&quot; &amp; &apos;bye&apos;");
    }

    #[test]
    fn svg_gantt_escapes_process_names() {
        // Regression: a name like `P<1> & "co"` used to be interpolated
        // raw into the SVG, corrupting the document.
        let mut t = sample_trace();
        t.procs[0].name = "P<1> & \"co\"".into();
        let svg = t.svg_gantt(600);
        assert!(svg.contains(">P&lt;1&gt; &amp; &quot;co&quot;<"), "{svg}");
        assert!(!svg.contains(">P<1>"), "{svg}");
    }

    #[test]
    fn degenerate_chart_widths_clamp_instead_of_panicking() {
        let t = sample_trace();
        // Regression: width 0 used to assert; tiny svg widths underflowed
        // the plot area (u32 subtraction) and panicked.
        let g = t.gantt(0);
        assert_eq!(g.lines().count(), 3, "{g}");
        let svg = t.svg_gantt(0);
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        let svg_small = t.svg_gantt(40); // smaller than the label column
        assert!(svg_small.contains("width=\"160\""), "{svg_small}");
    }

    #[test]
    fn empty_trace_chart_is_degenerate_but_valid() {
        let t = Trace {
            end_time: SimTime::ZERO,
            procs: vec![],
            resources: vec![],
            events: vec![],
        };
        assert!(t.gantt(10).contains('|'));
    }
}
