//! Re-parse a `--trace-out` Chrome `trace_event` file into a
//! [`Trace`], so `flagsim watch --trace FILE` can replay a run that was
//! only kept as its exported trace.
//!
//! Two trace dialects are accepted, matched per event:
//!
//! - **Sim-time** (`desim::Trace::chrome_trace`): balanced `B`/`E`
//!   pairs — `"work"` events and `"wait: LABEL"` events — plus
//!   `thread_name` metadata, one pid, `tid` = process index,
//!   timestamps in microseconds. Work pairs become `WorkStart { dur }`,
//!   wait pairs become `Blocked`/`Acquired`, and the wait labels
//!   rebuild the resource table.
//! - **Telemetry spans** (what `flagsim run/sweep --trace-out` writes):
//!   arbitrary named `B`/`E` spans per thread, nested. Only the
//!   *outermost* span of each nest becomes a `WorkStart` — inner spans
//!   subdivide their parent's time and would otherwise double-count it
//!   — so each thread's timeline is its sequential top-level activity.
//!
//! What an exported trace does *not* carry: `Released` events, grid
//! cell identities, and resource capacities. A trace-file replay
//! therefore shows timelines, the critical path, and contention — but
//! no grid pane, no hand-off blame attribution, and no race findings.
//!
//! Traces shorter than 100ms (a fast wall-clock profile of an in-memory
//! run) are kept at **microsecond** resolution instead of millisecond —
//! otherwise every span would round to zero and there would be nothing
//! to scrub. In that case the viewer's time labels read 1000× (a
//! displayed "1.5s" is 1.5ms of wall clock).

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

/// Most thread tracks a trace may use. Each `tid` indexes the per-process
/// table, so an unchecked id would size an unbounded allocation.
const MAX_TRACKS: usize = 1 << 16;

/// Event `index`'s thread track: its `tid`, or 0 when it has none.
fn track(e: &Value, index: usize) -> Result<usize, String> {
    let Some(tid) = e.get("tid") else {
        return Ok(0);
    };
    match tid.as_f64() {
        Some(t) if t >= 0.0 && t.fract() == 0.0 && t < MAX_TRACKS as f64 => Ok(t as usize),
        _ => Err(format!(
            "event {index}: tid is not a track index in 0..{MAX_TRACKS}"
        )),
    }
}

/// Parse a Chrome trace JSON document into a [`Trace`].
pub fn parse_chrome_trace(text: &str) -> Result<Trace, String> {
    let doc = json::parse(text).map_err(|e| format!("trace file is not valid JSON: {e}"))?;
    // Both accepted container shapes: a bare array (our exporter) or the
    // `{"traceEvents": [...]}` object some tools write.
    let events = match doc.as_array() {
        Some(a) => a,
        None => doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("trace file is not a Chrome trace (expected an event array)")?,
    };

    // Prepass: pick the time base. Sim-time exports (all span names are
    // "work"/"wait: …") are exact milliseconds encoded as µs — always
    // divide. Generic telemetry traces are wall clock: if the whole
    // trace is under 100ms, keep microsecond resolution, otherwise
    // every span of a fast in-memory run would round to zero.
    let max_ts_us = events
        .iter()
        .filter_map(|e| field_f64(e, "ts"))
        .fold(0.0f64, f64::max);
    let all_sim_names = events
        .iter()
        .filter(|e| matches!(field_str(e, "ph"), Some("B") | Some("E")))
        .all(|e| {
            let n = field_str(e, "name").unwrap_or("");
            n == "work" || n.starts_with("wait: ")
        });
    let time_div = if all_sim_names || max_ts_us >= 100_000.0 {
        1000.0
    } else {
        1.0
    };

    let mut names: BTreeMap<usize, String> = BTreeMap::new();
    // Open B events per (tid, name), FIFO — the sim exporter nests
    // nothing.
    let mut open: BTreeMap<(usize, String), Vec<u64>> = BTreeMap::new();
    // Per-tid stack of open *generic* spans (telemetry dialect); only
    // the outermost becomes work.
    let mut generic_open: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
    let mut resources: Vec<String> = Vec::new();
    let mut out_events: Vec<TraceEvent> = Vec::new();
    // Per-proc accounting accumulated while pairing.
    let mut busy: BTreeMap<usize, u64> = BTreeMap::new();
    let mut waiting: BTreeMap<usize, u64> = BTreeMap::new();
    let mut work_count: BTreeMap<usize, u64> = BTreeMap::new();
    let mut last_ms: BTreeMap<usize, u64> = BTreeMap::new();
    let mut max_tid = 0usize;

    for (i, e) in events.iter().enumerate() {
        let ph = field_str(e, "ph").unwrap_or("");
        let tid = track(e, i)?;
        match ph {
            "M" if field_str(e, "name") == Some("thread_name") => {
                if let Some(n) = e.get("args").and_then(|a| field_str(a, "name")) {
                    names.insert(tid, n.to_owned());
                    max_tid = max_tid.max(tid);
                }
            }
            "B" | "E" => {
                let name = field_str(e, "name").unwrap_or("").to_owned();
                let ts_us = field_f64(e, "ts").unwrap_or(0.0).max(0.0);
                let ms = (ts_us / time_div).round() as u64;
                max_tid = max_tid.max(tid);
                let sim_dialect = name == "work" || name.starts_with("wait: ");
                if ph == "B" {
                    if sim_dialect {
                        open.entry((tid, name)).or_default().push(ms);
                    } else {
                        generic_open.entry(tid).or_default().push((name, ms));
                    }
                    continue;
                }
                let proc = ProcId::from_index(tid);
                if !sim_dialect {
                    // Telemetry-span dialect: an E closes the matching
                    // open span; only the outermost of a nest becomes
                    // work (inner spans subdivide the same time).
                    let stack = generic_open.entry(tid).or_default();
                    let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) else {
                        continue; // unbalanced E: skip rather than fail
                    };
                    let (_, begin) = stack.remove(pos);
                    if !stack.is_empty() {
                        continue; // inner span: parent still open
                    }
                    let (start, end) = (begin.min(ms), begin.max(ms));
                    out_events.push(TraceEvent {
                        time: SimTime(start),
                        proc,
                        kind: EventKind::WorkStart {
                            dur: SimDuration(end - start),
                        },
                    });
                    let b = busy.entry(tid).or_default();
                    *b = b.saturating_add(end - start);
                    *work_count.entry(tid).or_default() += 1;
                    let t = last_ms.entry(tid).or_default();
                    *t = (*t).max(end);
                    continue;
                }
                let Some(begin) = open.get_mut(&(tid, name.clone())).and_then(Vec::pop) else {
                    continue; // unbalanced E: skip rather than fail
                };
                let (start, end) = (begin.min(ms), begin.max(ms));
                if name == "work" {
                    out_events.push(TraceEvent {
                        time: SimTime(start),
                        proc,
                        kind: EventKind::WorkStart {
                            dur: SimDuration(end - start),
                        },
                    });
                    let b = busy.entry(tid).or_default();
                    *b = b.saturating_add(end - start);
                    *work_count.entry(tid).or_default() += 1;
                } else if let Some(label) = name.strip_prefix("wait: ") {
                    let ri = match resources.iter().position(|r| r == label) {
                        Some(i) => i,
                        None => {
                            resources.push(label.to_owned());
                            resources.len() - 1
                        }
                    };
                    out_events.push(TraceEvent {
                        time: SimTime(start),
                        proc,
                        kind: EventKind::Blocked(ResourceId::from_index(ri)),
                    });
                    out_events.push(TraceEvent {
                        time: SimTime(end),
                        proc,
                        kind: EventKind::Acquired(ResourceId::from_index(ri)),
                    });
                    let w = waiting.entry(tid).or_default();
                    *w = w.saturating_add(end - start);
                }
                let t = last_ms.entry(tid).or_default();
                *t = (*t).max(end);
            }
            _ => {}
        }
    }

    if out_events.is_empty() {
        return Err("trace file contains no work or wait events".to_owned());
    }
    // Chronological order for the causal analyzer; the stable sort keeps
    // each process's B-before-E order intact at equal timestamps.
    out_events.sort_by_key(|e| e.time);
    let end_time = SimTime(last_ms.values().copied().max().unwrap_or(0));

    let nprocs = max_tid + 1;
    let procs: Vec<ProcReport> = (0..nprocs)
        .map(|tid| ProcReport {
            name: names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("P{tid}")),
            busy: SimDuration(busy.get(&tid).copied().unwrap_or(0)),
            waiting: SimDuration(waiting.get(&tid).copied().unwrap_or(0)),
            completed_work: work_count.get(&tid).copied().unwrap_or(0),
            finished_at: last_ms.get(&tid).copied().map(SimTime),
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
        assert_eq!(t.procs[1].name, "main");
        assert_eq!(t.procs[1].completed_work, 1, "inner span folded into outer");
        assert_eq!(t.procs[1].busy, SimDuration(100), "outermost span: 0..100ms");
        assert_eq!(t.end_time, SimTime(100));
        assert!(!flagsim_desim::causal::analyze(&t).critical_path.is_empty());
    }

    #[test]
    fn object_wrapper_and_garbage_inputs() {
        let original = contended_trace().chrome_trace();
        let wrapped = format!("{{\"traceEvents\": {original}}}");
        assert!(parse_chrome_trace(&wrapped).is_ok());
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"foo\": 1}").is_err());
        assert!(parse_chrome_trace("[]").is_err(), "no events");
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
}
