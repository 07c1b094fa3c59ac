//! `parse_chrome_trace` on damaged documents.
//!
//! Two well-formed seeds are damaged: a witness document (the sim trace
//! of a contended four-student Mauritius run, as `verify --witness-out`
//! writes it) and a `--trace-out` document (runtime spans over three
//! processes, nested, with log and flow events, as a sharded sweep
//! writes it). Truncations, bit flips and splices of the two must come
//! back `Ok` or `Err`, never panic, and an `Ok` trace has no more
//! processes than the input has `(pid, tid)` tracks, every event on one
//! of them, in chronological order, and renders as a replay frame.
//!
//! The seed is printed; `CHROME_DAMAGE_SEED=N` replays one.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::partition::{CellOrder, PartitionStrategy};
use flagsim_core::work::PreparedFlag;
use flagsim_telemetry::json::{self, Value};
use flagsim_telemetry::{FlowRecord, Level, LogRecord, SpanRecord, SpanSet};
use flagsim_watch::app::{render, App, ReplayData};
use flagsim_watch::chrome::parse_chrome_trace;
use std::collections::BTreeSet;

/// splitmix64: small, seedable, good enough to pick test cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn seeded() -> Rng {
    let seed = std::env::var("CHROME_DAMAGE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
        });
    println!("chrome damage seed {seed} (replay with CHROME_DAMAGE_SEED={seed})");
    Rng(seed)
}

/// The sim trace of Mauritius in four vertical slices with one marker
/// per color: the shape of a scenario-4 witness file.
fn witness_document() -> String {
    let pf = PreparedFlag::new(&flagsim_flags::library::mauritius());
    let assignments =
        PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
    let mut team: Vec<StudentProfile> = (1..=assignments.len())
        .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
        .collect();
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
    let report = flagsim_core::run_activity(
        "chrome damage",
        &pf,
        &assignments,
        &mut team,
        &kit,
        &ActivityConfig::default().with_seed(7),
    )
    .expect("mauritius runs");
    report.trace.chrome_trace()
}

/// A sharded sweep's runtime trace: the coordinator's two threads and
/// two worker processes whose threads share the name `main`, with
/// nested spans, a log record and a lease flow.
fn trace_out_document() -> String {
    let span = |id, parent, name, track: &str, process: &str, start_us: u64, end_us: u64| {
        SpanRecord {
            id,
            parent,
            link: None,
            category: "sim",
            name,
            track: track.to_owned(),
            process: process.to_owned(),
            start_ns: start_us * 1_000,
            end_ns: end_us * 1_000,
            args: vec![("rep", id.to_string())],
        }
    };
    let mut spans = vec![
        span(1, None, "sweep", "main", "", 0, 400_000),
        span(2, None, "merge", "ThreadId(2)", "", 1_000, 390_000),
    ];
    for (w, process) in ["local-0", "local-1"].into_iter().enumerate() {
        let base = 10 + 10 * w as u64;
        spans.push(span(base, None, "serve_session", "main", process, 500, 380_000));
        for rep in 0..4 {
            let start = 1_000 + rep * 90_000;
            let id = base + 1 + 2 * rep;
            spans.push(span(id, Some(base), "sweep.rep", "main", process, start, start + 80_000));
            spans.push(span(
                id + 1,
                Some(id),
                "run.activity",
                "main",
                process,
                start + 100,
                start + 70_000,
            ));
        }
    }
    let log = LogRecord {
        ts_ns: 5_000_000,
        level: Level::Warn,
        target: "shard.coordinator".to_owned(),
        message: "worker \"local-1\" slow".to_owned(),
        fields: vec![("worker".to_owned(), "local-1".to_owned())],
        track: "main".to_owned(),
        process: String::new(),
    };
    let flow = |start, track: &str, process: &str, ts_ns| FlowRecord {
        id: 7,
        name: "lease",
        ts_ns,
        track: track.to_owned(),
        process: process.to_owned(),
        start,
    };
    let flows = vec![flow(true, "main", "", 900_000), flow(false, "main", "local-0", 950_000)];
    SpanSet::with_events(spans, vec![log], flows).chrome_trace()
}

/// Distinct `(pid, tid)` pairs among the document's events, read from the
/// parsed tree; `None` when the document is no event list at all.
fn input_tracks(doc: &str) -> Option<usize> {
    let v = json::parse(doc).ok()?;
    let events = match v.as_array() {
        Some(a) => a,
        None => v.get("traceEvents")?.as_array()?,
    };
    let key = |e: &Value, k: &str| format!("{:?}", e.get(k));
    let tracks: BTreeSet<(String, String)> =
        events.iter().map(|e| (key(e, "pid"), key(e, "tid"))).collect();
    Some(tracks.len())
}

fn check(doc: &str) {
    let Ok(trace) = parse_chrome_trace(doc) else {
        return;
    };
    let tracks = input_tracks(doc).expect("a parsed trace came from an event list");
    assert!(
        trace.procs.len() <= tracks,
        "{} processes from {tracks} tracks in:\n{doc}",
        trace.procs.len()
    );
    assert!(!trace.events.is_empty(), "an Ok trace has events:\n{doc}");
    for pair in trace.events.windows(2) {
        assert!(pair[0].time <= pair[1].time, "events out of order:\n{doc}");
    }
    for e in &trace.events {
        assert!(e.proc.index() < trace.procs.len(), "event off every row:\n{doc}");
    }
    // What the parser accepts, the replay renders.
    let data = ReplayData::from_trace("damaged", trace);
    let mut app = App::new(data.end_ms());
    app.t_ms = data.end_ms() / 2;
    render(&data, &app, 100);
}

/// The first char boundary of `s` at or after `at`: a cut or splice point.
fn boundary(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at += 1;
    }
    at
}

#[test]
fn well_formed_documents_parse() {
    let witness = parse_chrome_trace(&witness_document()).expect("witness parses");
    assert_eq!(witness.procs.len(), 4);
    assert!(!witness.resources.is_empty(), "the run had contention");
    let names: Vec<String> = parse_chrome_trace(&trace_out_document())
        .expect("trace-out parses")
        .procs
        .into_iter()
        .map(|p| p.name)
        .collect();
    assert_eq!(
        names,
        ["flagsim/ThreadId(2)", "flagsim/main", "local-0/main", "local-1/main"]
    );
}

#[test]
fn damaged_documents_are_ok_or_errors_never_panics() {
    let mut rng = seeded();
    let docs = [witness_document(), trace_out_document()];
    for (d, doc) in docs.iter().enumerate() {
        let other = &docs[1 - d];
        for _ in 0..150 {
            check(&doc[..boundary(doc, rng.below(doc.len()))]);
        }
        for _ in 0..150 {
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            if let Ok(flipped) = String::from_utf8(bytes) {
                check(&flipped);
            }
        }
        for _ in 0..150 {
            let a = boundary(doc, rng.below(doc.len() + 1));
            let b = boundary(other, rng.below(other.len() + 1));
            check(&format!("{}{}", &doc[..a], &other[b..]));
        }
        // Both writers put one event per line, so splicing whole lines
        // mostly gives valid JSON that mixes the two files' tracks.
        let (lines, other_lines): (Vec<&str>, Vec<&str>) =
            (doc.split_inclusive('\n').collect(), other.split_inclusive('\n').collect());
        for _ in 0..150 {
            let a = 1 + rng.below(lines.len() - 1);
            let b = 1 + rng.below(other_lines.len() - 1);
            check(&(lines[..a].concat() + &other_lines[b..].concat()));
        }
    }
}
