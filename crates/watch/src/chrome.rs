//! Re-parse a Chrome `trace_event` file into a [`Trace`], so
//! `flagsim watch --trace FILE` can replay a run that was only kept as
//! its exported trace.
//!
//! One schema is read: the one `telemetry::export` writes, both for sim
//! traces (`desim::Trace::chrome_trace`, `verify --witness-out`) and for
//! runtime traces (`flagsim run/sweep --trace-out`).
//!
//! - **Tracks.** A track is a `(pid, tid)` pair. Every track that
//!   carries a `thread_name` record or a `B`/`E` event is one process of
//!   the replay, numbered in `(pid, tid)` order and named by its
//!   `thread_name`. The writer keeps tid 0 for `process_name` metadata,
//!   which makes no row. When the file holds more than one pid, each row
//!   is labelled `PROCESS/TRACK` from the `process_name` records. A row
//!   with no spans finishes at 0, so the critical path starts on a row
//!   that did something.
//! - **Spans.** `B`/`E` pairs match by name on one stack per track, and
//!   only the *outermost* span of each nest becomes an event (inner spans
//!   subdivide their parent's time and would otherwise double-count it).
//!   A `"wait: LABEL"` span becomes `Blocked`/`Acquired` on resource
//!   LABEL, and the labels rebuild the resource table; any other span
//!   becomes `WorkStart`.
//! - **Time base.** Timestamps are microseconds. A file whose spans are
//!   all `"work"` or `"wait: …"` is a sim trace: exact milliseconds
//!   encoded as µs, always divided by 1000. Any other file is wall
//!   clock, divided by 1000 too unless the whole trace is under 100ms; a
//!   fast wall-clock profile of an in-memory run keeps **microsecond**
//!   resolution, otherwise every span would round to zero and there
//!   would be nothing to scrub. The viewer's time labels then read 1000×
//!   (a displayed "1.5s" is 1.5ms of wall clock).
//!
//! Both container shapes are read: `{"traceEvents": [...]}` and a bare
//! event array (witness files written before sim traces went through
//! `telemetry::export`, which also numbered tids from 0).
//!
//! What an exported trace does *not* carry: `Released` events, grid
//! cell identities, and resource capacities. A trace-file replay
//! therefore shows timelines, the critical path, and contention — but
//! no grid pane, no hand-off blame attribution, and no race findings.

use flagsim_desim::trace::{ProcReport, ResourceReport};
use flagsim_desim::{EventKind, ProcId, ResourceId, SimDuration, SimTime, Trace, TraceEvent};
use flagsim_telemetry::json::{self, Value};
use std::collections::BTreeMap;

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn field_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

/// Most tracks a trace may use, and the bound on every `pid` and `tid`:
/// an unchecked id or track count would size an unbounded table.
const MAX_TRACKS: usize = 1 << 16;

/// Event `index`'s `key` (`"pid"` or `"tid"`): a whole number in
/// `0..MAX_TRACKS`, or 0 when the event has none.
fn id_field(e: &Value, key: &str, index: usize) -> Result<usize, String> {
    let Some(id) = e.get(key) else {
        return Ok(0);
    };
    match id.as_f64() {
        Some(t) if t >= 0.0 && t.fract() == 0.0 && t < MAX_TRACKS as f64 => Ok(t as usize),
        _ => Err(format!(
            "event {index}: {key} is not a track index in 0..{MAX_TRACKS}"
        )),
    }
}

/// One `(pid, tid)` track: a process of the replay.
#[derive(Default)]
struct Track {
    name: Option<String>,
    /// Open spans, innermost last: `(name, start ms)`.
    open: Vec<(String, u64)>,
    busy: u64,
    waiting: u64,
    work_count: u64,
    last_ms: Option<u64>,
}

/// Parse a Chrome trace JSON document into a [`Trace`].
pub fn parse_chrome_trace(text: &str) -> Result<Trace, String> {
    let doc = json::parse(text).map_err(|e| format!("trace file is not valid JSON: {e}"))?;
    let events = match doc.as_array() {
        Some(a) => a,
        None => doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("trace file is not a Chrome trace (expected an event array)")?,
    };

    // Prepass: the track table, the process names and the time base
    // (see the module doc).
    let mut tracks: BTreeMap<(usize, usize), Track> = BTreeMap::new();
    let mut process_names: BTreeMap<usize, &str> = BTreeMap::new();
    let mut max_ts_us = 0.0f64;
    let mut all_sim_names = true;
    for (i, e) in events.iter().enumerate() {
        let key = (id_field(e, "pid", i)?, id_field(e, "tid", i)?);
        max_ts_us = max_ts_us.max(field_f64(e, "ts").unwrap_or(0.0));
        let name = field_str(e, "name").unwrap_or("");
        let arg_name = e.get("args").and_then(|a| field_str(a, "name"));
        let track = match (field_str(e, "ph"), name) {
            (Some("M"), "process_name") => {
                if let Some(n) = arg_name {
                    process_names.insert(key.0, n);
                }
                continue;
            }
            (Some("M"), "thread_name") if arg_name.is_some() => arg_name,
            (Some("B" | "E"), _) => {
                all_sim_names &= name == "work" || name.starts_with("wait: ");
                None
            }
            _ => continue,
        };
        if !tracks.contains_key(&key) && tracks.len() == MAX_TRACKS {
            return Err(format!("event {i}: more than {MAX_TRACKS} tracks"));
        }
        let t = tracks.entry(key).or_default();
        if let Some(n) = track {
            t.name = Some(n.to_owned());
        }
    }
    let time_div = if all_sim_names || max_ts_us >= 100_000.0 {
        1000.0
    } else {
        1.0
    };
    let keys: Vec<(usize, usize)> = tracks.keys().copied().collect();
    let index: BTreeMap<(usize, usize), usize> =
        keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut rows: Vec<Track> = tracks.into_values().collect();

    let mut resources: Vec<String> = Vec::new();
    let mut out_events: Vec<TraceEvent> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = field_str(e, "ph").unwrap_or("");
        if ph != "B" && ph != "E" {
            continue;
        }
        let pi = index[&(id_field(e, "pid", i)?, id_field(e, "tid", i)?)];
        let track = &mut rows[pi];
        let name = field_str(e, "name").unwrap_or("");
        let ts_us = field_f64(e, "ts").unwrap_or(0.0).max(0.0);
        let ms = (ts_us / time_div).round() as u64;
        if ph == "B" {
            track.open.push((name.to_owned(), ms));
            continue;
        }
        let Some(pos) = track.open.iter().rposition(|(n, _)| n == name) else {
            continue; // unbalanced E: skip rather than fail
        };
        let (_, begin) = track.open.remove(pos);
        if !track.open.is_empty() {
            continue; // inner span: its parent is still open
        }
        let (start, end) = (begin.min(ms), begin.max(ms));
        let proc = ProcId::from_index(pi);
        if let Some(label) = name.strip_prefix("wait: ") {
            let ri = resources.iter().position(|r| r == label).unwrap_or_else(|| {
                resources.push(label.to_owned());
                resources.len() - 1
            });
            let ri = ResourceId::from_index(ri);
            out_events.push(TraceEvent {
                time: SimTime(start),
                proc,
                kind: EventKind::Blocked(ri),
            });
            out_events.push(TraceEvent {
                time: SimTime(end),
                proc,
                kind: EventKind::Acquired(ri),
            });
            track.waiting = track.waiting.saturating_add(end - start);
        } else {
            out_events.push(TraceEvent {
                time: SimTime(start),
                proc,
                kind: EventKind::WorkStart {
                    dur: SimDuration(end - start),
                },
            });
            track.busy = track.busy.saturating_add(end - start);
            track.work_count += 1;
        }
        track.last_ms = Some(track.last_ms.unwrap_or(0).max(end));
    }

    if out_events.is_empty() {
        return Err("trace file contains no work or wait events".to_owned());
    }
    // Chronological order for the causal analyzer, processes in row
    // order within an instant; the stable sort keeps each process's
    // B-before-E order intact at equal timestamps.
    out_events.sort_by_key(|e| (e.time, e.proc));
    let end_time = SimTime(rows.iter().filter_map(|t| t.last_ms).max().unwrap_or(0));

    let many_processes = keys.iter().any(|k| k.0 != keys[0].0);
    let procs: Vec<ProcReport> = keys
        .into_iter()
        .zip(rows)
        .map(|((pid, tid), t)| {
            let mut name = t.name.unwrap_or_else(|| format!("P{tid}"));
            if many_processes {
                let process = process_names.get(&pid).copied().unwrap_or("?");
                name = format!("{process}/{name}");
            }
            ProcReport {
                name,
                busy: SimDuration(t.busy),
                waiting: SimDuration(t.waiting),
                completed_work: t.work_count,
                finished_at: Some(SimTime(t.last_ms.unwrap_or(0))),
            }
        })
        .collect();
    let resources: Vec<ResourceReport> = resources
        .into_iter()
        .map(|label| ResourceReport {
            label,
            capacity: 1,
            handoff: SimDuration::ZERO,
            stats: Default::default(),
        })
        .collect();

    Ok(Trace {
        end_time,
        procs,
        resources,
        events: out_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_desim::causal::{Segment, SegmentKind};
    use flagsim_desim::{Action, Engine, FnProcess};

    fn contended_trace() -> Trace {
        let mut eng = Engine::new();
        let marker = eng.add_resource("red marker", SimDuration::from_millis(5));
        for name in ["A", "B"] {
            let mut step = 0;
            eng.add_process(Box::new(FnProcess::new(name, move |_| {
                step += 1;
                match step {
                    1 => Action::Acquire(marker),
                    2 => Action::Work(SimDuration::from_millis(40)),
                    3 => Action::Release(marker),
                    _ => Action::Done,
                }
            })));
        }
        eng.run()
    }

    #[test]
    fn export_then_parse_round_trips_the_replayable_subset() {
        let original = contended_trace();
        let parsed = parse_chrome_trace(&original.chrome_trace()).expect("parses");
        assert_eq!(parsed.procs.len(), original.procs.len());
        assert_eq!(parsed.procs[0].name, "A");
        assert_eq!(parsed.procs[1].name, "B");
        assert_eq!(parsed.end_time, original.end_time);
        for (p, o) in parsed.procs.iter().zip(&original.procs) {
            assert_eq!(p.busy, o.busy, "busy for {}", o.name);
            assert_eq!(p.completed_work, o.completed_work);
        }
        // The contended wait survives: B blocked then acquired.
        assert!(parsed
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Blocked(_))));
        assert_eq!(parsed.resources.len(), 1);
        assert_eq!(parsed.resources[0].label, "red marker");
        // Events are chronological.
        for pair in parsed.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn parsed_trace_feeds_the_causal_analyzer() {
        let original = contended_trace();
        let parsed = parse_chrome_trace(&original.chrome_trace()).expect("parses");
        let a = flagsim_desim::causal::analyze(&parsed);
        let total: SimDuration = a
            .critical_path
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration());
        assert_eq!(total, parsed.makespan(), "path still tiles the makespan");
    }

    #[test]
    fn telemetry_span_dialect_keeps_outermost_spans_only() {
        // The shape `flagsim run --trace-out` writes: nested wall-clock
        // spans per thread, ts in (fractional) microseconds.
        let json = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
          {"name":"run.activity","cat":"sim","ph":"B","ts":0.25,"pid":1,"tid":1},
          {"name":"desim.run","cat":"sim","ph":"B","ts":10000.5,"pid":1,"tid":1},
          {"name":"desim.run","cat":"sim","ph":"E","ts":90000.0,"pid":1,"tid":1},
          {"name":"run.activity","cat":"sim","ph":"E","ts":100000.0,"pid":1,"tid":1}
        ]"#;
        let t = parse_chrome_trace(json).expect("parses");
        assert_eq!(t.procs.len(), 1, "no row for the unused tid 0");
        assert_eq!(t.procs[0].name, "main");
        assert_eq!(t.procs[0].completed_work, 1, "inner span folded into outer");
        assert_eq!(t.procs[0].busy, SimDuration(100), "outermost span: 0..100ms");
        assert_eq!(t.end_time, SimTime(100));
        assert!(!flagsim_desim::causal::analyze(&t).critical_path.is_empty());
    }

    /// `contended_trace().chrome_trace()` as the hand-written sim writer
    /// emitted it before sim traces went through `telemetry::export`: a
    /// bare array, tids from 0, integer microseconds. B's wait ends at the
    /// grant (40 ms), as charts drew waits before they took in the
    /// hand-off transit that follows it.
    const LEGACY_CONTENDED: &str = r#"[
  {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"flagsim"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"A"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"B"}},
  {"name":"work","cat":"sim","ph":"B","pid":1,"tid":0,"ts":0},
  {"name":"work","cat":"sim","ph":"E","pid":1,"tid":0,"ts":40000},
  {"name":"wait: red marker","cat":"wait","ph":"B","pid":1,"tid":1,"ts":0},
  {"name":"wait: red marker","cat":"wait","ph":"E","pid":1,"tid":1,"ts":40000},
  {"name":"work","cat":"sim","ph":"B","pid":1,"tid":1,"ts":45000},
  {"name":"work","cat":"sim","ph":"E","pid":1,"tid":1,"ts":85000}
]
"#;

    #[test]
    fn legacy_witness_files_replay_like_new_ones() {
        let new = parse_chrome_trace(&contended_trace().chrome_trace()).expect("new parses");
        let old = parse_chrome_trace(LEGACY_CONTENDED).expect("legacy parses");
        let work = |t: &Trace| -> Vec<TraceEvent> {
            t.events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::WorkStart { .. }))
                .copied()
                .collect()
        };
        assert_eq!(old.end_time, new.end_time);
        assert_eq!(work(&old), work(&new));
        for (o, n) in old.procs.iter().zip(&new.procs) {
            assert_eq!(
                (&o.name, o.busy, o.completed_work),
                (&n.name, n.busy, n.completed_work)
            );
        }
        assert_eq!(old.procs.len(), new.procs.len());
        // The new file's wait runs through the 5 ms hand-off; the legacy
        // one stops at the grant, and its replay draws the transit idle.
        assert_eq!(old.procs[1].waiting, SimDuration(40));
        assert_eq!(new.procs[1].waiting, SimDuration(45));
        let b_row = |t: &Trace| -> Vec<(u64, u64, bool)> {
            let row = &flagsim_desim::causal::build_timelines(t)[1];
            let idle = |s: &Segment| s.kind == SegmentKind::Idle;
            row.iter()
                .map(|s| (s.start.millis(), s.end.millis(), idle(s)))
                .collect()
        };
        let legacy_row = [(0, 40, false), (40, 45, true), (45, 85, false)];
        assert_eq!(b_row(&old), legacy_row);
        assert_eq!(b_row(&new), [(0, 45, false), (45, 85, false)]);
    }

    #[test]
    fn object_wrapper_and_garbage_inputs() {
        let wrapped = format!("{{\"traceEvents\": {LEGACY_CONTENDED}}}");
        assert_eq!(
            parse_chrome_trace(&wrapped).expect("wrapped parses"),
            parse_chrome_trace(LEGACY_CONTENDED).expect("bare parses")
        );
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"foo\": 1}").is_err());
        assert!(parse_chrome_trace("[]").is_err(), "no events");
    }

    #[test]
    fn tracks_in_different_processes_stay_apart() {
        // Two worker processes whose only thread has the same name and
        // tid: two rows, labelled by process, and no row for tid 0. The
        // coordinator's thread recorded no spans: its row is empty, and
        // the critical path does not start on it.
        let json = r#"{"traceEvents": [
          {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"flagsim"}},
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"ThreadId(2)"}},
          {"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"local-0"}},
          {"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"main"}},
          {"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"local-1"}},
          {"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"main"}},
          {"name":"rep","ph":"B","ts":0,"pid":2,"tid":1},
          {"name":"rep","ph":"B","ts":0,"pid":3,"tid":1},
          {"name":"rep","ph":"E","ts":200000,"pid":3,"tid":1},
          {"name":"rep","ph":"E","ts":300000,"pid":2,"tid":1}
        ]}"#;
        let t = parse_chrome_trace(json).expect("parses");
        let names: Vec<&str> = t.procs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["flagsim/ThreadId(2)", "local-0/main", "local-1/main"]);
        assert_eq!(t.procs[1].busy, SimDuration(300));
        assert_eq!(t.procs[2].busy, SimDuration(200));
        let path = flagsim_desim::causal::analyze(&t).critical_path;
        assert!(path.iter().all(|s| s.proc.index() == 1), "{path:?}");
    }

    #[test]
    fn out_of_range_tids_are_errors_not_huge_allocations() {
        for tid in ["1e12", "4294967296", "-1", "1.5", "\"7\""] {
            let json = format!(
                r#"[{{"name":"work","ph":"B","ts":0,"pid":1,"tid":0}},
                    {{"name":"work","ph":"E","ts":1000,"pid":1,"tid":{tid}}}]"#
            );
            let err = parse_chrome_trace(&json).unwrap_err();
            assert!(err.starts_with("event 1: tid"), "tid {tid}: {err}");
        }
        // Spans that overflow u64 milliseconds saturate instead of wrapping.
        let json = r#"[{"name":"work","ph":"B","ts":0,"pid":1,"tid":0},
                       {"name":"work","ph":"E","ts":1e300,"pid":1,"tid":0},
                       {"name":"work","ph":"B","ts":0,"pid":1,"tid":0},
                       {"name":"work","ph":"E","ts":1e300,"pid":1,"tid":0}]"#;
        let t = parse_chrome_trace(json).expect("parses");
        assert_eq!(t.procs[0].busy, SimDuration(u64::MAX));
    }

    #[test]
    fn out_of_range_pids_are_errors_like_tids() {
        for pid in ["1e12", "4294967296", "-1", "1.5", "\"7\""] {
            let json = format!(
                r#"[{{"name":"work","ph":"B","ts":0,"pid":1,"tid":0}},
                    {{"name":"work","ph":"E","ts":1000,"pid":{pid},"tid":0}}]"#
            );
            let err = parse_chrome_trace(&json).unwrap_err();
            assert!(err.starts_with("event 1: pid"), "pid {pid}: {err}");
        }
    }

    #[test]
    fn track_count_is_capped() {
        // One B event on each of MAX_TRACKS + 1 distinct (pid, tid) tracks.
        let events: Vec<String> = (0..=MAX_TRACKS)
            .map(|i| format!(r#"{{"ph":"B","pid":{},"tid":{}}}"#, i / 256, i % 256))
            .collect();
        let err = parse_chrome_trace(&format!("[{}]", events.join(","))).unwrap_err();
        assert_eq!(err, format!("event {MAX_TRACKS}: more than {MAX_TRACKS} tracks"));
    }
}
