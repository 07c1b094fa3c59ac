//! Golden digests of every view a learner or CI reads off one run: the
//! ASCII, SVG and Chrome charts, the critical-path chart and blame table,
//! the causal timelines and sync edges, the race check, and the grid
//! replay's frames. Each view is pinned as an FNV-1a digest of its text,
//! so a refactor of how the views read a trace must leave every byte of
//! every view as it was.
//!
//! The runs: the six built-in scenarios at seed 7, scenario 4 cut by a
//! 60 s bell (waits still unresolved and a stroke still in flight when it
//! rings), and scenario 4 at seed 3 with student 2 dropping out at 12 s
//! (survivors adopt the orphaned cells).
//!
//! Beside the digests, `every_chart_draws_what_the_engine_charges` checks
//! that the charts tell one story: each row's drawn work and wait are the
//! engine's `busy` and `waiting`, and the plain chart is the critical-path
//! chart without its highlighting.

use flagsim::core::faults::FaultPlan;
use flagsim::core::replay::Replay;
use flagsim::desim::causal::{self, blame_table_text, critical_gantt};
use flagsim::desim::schedule::{fnv_mix, FNV_OFFSET};
use flagsim::desim::{EventKind, SimTime};
use flagsim::prelude::*;
use flagsim::simcheck::hb;
use flagsim_telemetry::json::{self, Value};
use std::collections::BTreeMap;

fn digest(text: &str) -> u64 {
    let h = text
        .bytes()
        .fold(FNV_OFFSET, |h, b| fnv_mix(h, u64::from(b)));
    fnv_mix(h, text.len() as u64)
}

/// Run scenario `which` the way `flagsim run`/`faults` do: a fresh team
/// of `P1..Pn` on Mauritius with thick markers.
fn run(which: &str, cfg: ActivityConfig, plan: &FaultPlan) -> RunReport {
    let flag = PreparedFlag::new(&library::mauritius());
    let scenario = match which {
        "pipelined" => Scenario::pipelined_slices(&flag, 4, 4),
        "alternating" => Scenario::alternating_slices(),
        n => Scenario::fig1(n.parse().expect("scenario number")),
    };
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let size = scenario.team_size(&flag, &cfg);
    let mut team: Vec<StudentProfile> = (1..=size)
        .map(|i| StudentProfile::new(format!("P{i}")))
        .collect();
    scenario
        .run_with_faults(&flag, &mut team, &kit, &cfg, plan)
        .expect("scenario runs")
}

/// `(view, digest)` for every view of `report`.
fn views(report: &RunReport) -> Vec<(&'static str, u64)> {
    let trace = &report.trace;
    let analysis = causal::analyze(trace);
    let replay = Replay::new(report);
    let end = replay.end_ms();
    vec![
        ("gantt", digest(&trace.gantt(72))),
        ("svg_gantt", digest(&trace.svg_gantt(720))),
        ("chrome_trace", digest(&trace.chrome_trace())),
        (
            "critical_gantt",
            digest(&critical_gantt(trace, &analysis, 72)),
        ),
        ("blame_table", digest(&blame_table_text(trace, &analysis))),
        (
            "timelines",
            digest(&format!("{:?}", causal::build_timelines(trace))),
        ),
        (
            "sync_edges",
            digest(&format!("{:?}", causal::sync_edges(trace))),
        ),
        (
            "hb_diags",
            digest(&format!("{:?}", hb::check_run(report).diags())),
        ),
        ("replay_start", digest(&replay.ascii_at(SimTime::ZERO))),
        ("replay_middle", digest(&replay.ascii_at(SimTime(end / 2)))),
        ("replay_end", digest(&replay.ascii_at(SimTime(end)))),
    ]
}

fn assert_views(
    run_name: &str,
    report: &RunReport,
    want: &[u64; 11],
) {
    let got = views(report);
    let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    let mismatched: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((view, _), _)| *view)
        .collect();
    let listing: String = digests
        .iter()
        .map(|d| format!("        {d:#018x},\n"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{run_name}: views {mismatched:?} changed; the run now digests to\n{listing}"
    );
}

const BUILTINS: [&str; 6] = ["1", "2", "3", "4", "pipelined", "alternating"];

fn builtin_run(which: &str) -> RunReport {
    run(
        which,
        ActivityConfig::default().with_seed(7),
        &FaultPlan::none(),
    )
}

fn bell_cut_run() -> RunReport {
    let cfg = ActivityConfig::default()
        .with_seed(7)
        .with_deadline_secs(60.0);
    run("4", cfg, &FaultPlan::none())
}

fn dropout_run() -> RunReport {
    let plan = FaultPlan::parse("dropout:2@12", "dropout").expect("plan parses");
    run("4", ActivityConfig::default().with_seed(3), &plan)
}

fn builtin(which: &str, want: &[u64; 11]) {
    assert_views(&format!("scenario {which}"), &builtin_run(which), want);
}

/// Per track name, the summed `(work, wait)` span lengths of a Chrome
/// trace, in the file's microseconds.
fn chrome_span_sums(text: &str) -> BTreeMap<String, (u64, u64)> {
    let parsed = json::parse(text).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut open: BTreeMap<u64, u64> = BTreeMap::new();
    let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        let field = |key| e.get(key).and_then(Value::as_str).unwrap_or("");
        let num = |key| e.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let tid = num("tid");
        match field("ph") {
            "M" if field("name") == "thread_name" => {
                let name = e.get("args").and_then(|a| a.get("name"));
                names.insert(tid, name.and_then(Value::as_str).unwrap().to_owned());
            }
            "B" => {
                open.insert(tid, num("ts"));
            }
            "E" => {
                let len = num("ts") - open.remove(&tid).expect("E after B");
                let sum = sums.entry(names[&tid].clone()).or_default();
                match field("cat") {
                    "sim" => sum.0 += len,
                    "wait" => sum.1 += len,
                    other => panic!("unexpected span category {other:?}"),
                }
            }
            _ => {}
        }
    }
    sums
}

/// The process rows of a chart: every line above its axis row.
fn chart_rows(chart: &str, nprocs: usize) -> Vec<String> {
    chart.lines().take(nprocs).map(str::to_owned).collect()
}

/// A critical-path chart with its ANSI colour stripped and its
/// upper-cased path glyphs lowered to the plain chart's.
fn unhighlighted(chart: &str) -> String {
    let mut out = String::with_capacity(chart.len());
    let mut chars = chart.chars();
    while let Some(c) = chars.next() {
        match c {
            '\x1b' => {
                chars.by_ref().find(|&c| c == 'm');
            }
            'X' => out.push('#'),
            'W' => out.push('~'),
            'o' => out.push('.'),
            c => out.push(c),
        }
    }
    out
}

#[test]
fn every_chart_draws_what_the_engine_charges() {
    let runs = BUILTINS
        .iter()
        .map(|which| (format!("scenario {which}"), builtin_run(which)))
        .chain([
            ("the 60 s bell".to_owned(), bell_cut_run()),
            ("dropout:2@12".to_owned(), dropout_run()),
        ]);
    for (name, report) in runs {
        let trace = &report.trace;
        let sums = chrome_span_sums(&trace.chrome_trace());
        for p in &trace.procs {
            let (work, wait) = sums.get(&p.name).copied().unwrap_or_default();
            assert_eq!(
                (work, wait),
                (p.busy.millis() * 1000, p.waiting.millis() * 1000),
                "{name}: {}'s Chrome work/wait spans (us) against its busy/waiting",
                p.name
            );
        }
        let nprocs = trace.procs.len();
        let analysis = causal::analyze(trace);
        let critical = unhighlighted(&critical_gantt(trace, &analysis, 72));
        assert_eq!(
            chart_rows(&trace.gantt(72), nprocs),
            chart_rows(&critical, nprocs),
            "{name}: the plain chart against the critical-path chart"
        );
    }
}

#[test]
fn scenario_1_views() {
    builtin(
        "1",
        &[
            0xfbcea60ffbb9b91a,
            0x20945eb28dd16742,
            0x90ea12b4ca6efbe7,
            0x0ff74b7255769f0a,
            0xb34d45c8210489de,
            0xa4d4aa4d735a97d3,
            0x1edfad74863c8be1,
            0x1edfad74863c8be1,
            0xf8766ad062c99531,
            0xc6c57724b1f22a61,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn scenario_2_views() {
    builtin(
        "2",
        &[
            0xcd37b27e53d4dfcd,
            0x9ad2c37fd4f84680,
            0x0312bbdbaadd5fcf,
            0xa2d03b272ae12782,
            0xb34d45c8210489de,
            0x985e61039e2fdc76,
            0x1edfad74863c8be1,
            0x1edfad74863c8be1,
            0xa604a7d2c9f44186,
            0xc80e066de28ba276,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn scenario_3_views() {
    builtin(
        "3",
        &[
            0xc89f002178621e2a,
            0x49889ee6a38a69d7,
            0x3d66fbc4f856cfad,
            0xe2aee8165d74619a,
            0xb34d45c8210489de,
            0xe726bddf56220ba0,
            0x1edfad74863c8be1,
            0x1edfad74863c8be1,
            0xf4ab2443b750c563,
            0xca495cdc28c23c78,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn scenario_4_views() {
    builtin(
        "4",
        &[
            0x471351c517dc0e08,
            0x3c6e6cdadf418975,
            0x660c93318c8b0bae,
            0x229706d9d6bfe1e3,
            0x0362866629b9c4f1,
            0xaf3951ff886d0a0c,
            0xa3210cb9f72525be,
            0xfbfc5f690b69d938,
            0xf8766ad062c99531,
            0xcdc71eb4c5637cd3,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn pipelined_views() {
    builtin(
        "pipelined",
        &[
            0x48aacf811ef07eb6,
            0x4959b4c272b4bcf7,
            0x43ae6e0692a979f0,
            0x9c13bc3c8bcc9ed5,
            0x3a82e084537769d6,
            0x82c4fdc5c9e5814e,
            0xffc9acb73e402d5d,
            0x1edfad74863c8be1,
            0x6fb0ce9b55615dc3,
            0x2fdfa93f760605b1,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn alternating_views() {
    builtin(
        "alternating",
        &[
            0x14ea8c30dfec07b8,
            0x9676fa87d1eb20b6,
            0x8a81f76814c4ceec,
            0x3d650b9ebb18a706,
            0x0813e9713b525ecb,
            0x9bf3b5bd20b622c4,
            0x26316477bc511e81,
            0xfbfc5f690b69d938,
            0xf8766ad062c99531,
            0xa5716633a17ffac4,
            0xcf6ead52a6e857ed,
        ],
    );
}

#[test]
fn bell_cut_views() {
    let report = bell_cut_run();
    // The cut leaves what these views must draw: a wait never granted
    // and a stroke never finished.
    let events = &report.trace.events;
    let unresolved = (0..report.trace.procs.len()).any(|p| {
        let last = events.iter().rev().find(|e| {
            e.proc.index() == p
                && matches!(e.kind, EventKind::Blocked(_) | EventKind::Acquired(_))
        });
        matches!(last.map(|e| e.kind), Some(EventKind::Blocked(_)))
    });
    assert!(unresolved, "the bell should cut a wait short");
    assert!(
        Replay::new(&report).cut_off(),
        "the bell should cut a stroke short"
    );
    assert_views(
        "scenario 4 at the 60 s bell",
        &report,
        &[
            0x3f183c8863175a93,
            0xf942d1f64630d414,
            0x12303e2909829c6c,
            0xccad92a0f0843183,
            0xc40c23b979b99fa6,
            0x635c57c20b217229,
            0x060db6ecb8f0e246,
            0xfbfc5f690b69d938,
            0xf8766ad062c99531,
            0x0ab66a546f6a6861,
            0x57dccaff962b880d,
        ],
    );
}

#[test]
fn dropout_views() {
    let report = dropout_run();
    assert_views(
        "scenario 4 with dropout:2@12",
        &report,
        &[
            0x67f973bede630e25,
            0x977cbc48171ee820,
            0xff6c8df293261747,
            0xb56a2ad7b3071ee7,
            0x80349c18e4c2ddfd,
            0x63932312981f9589,
            0x98c93a82036f0ba0,
            0xfbfc5f690b69d938,
            0xf8766ad062c99531,
            0xfffe32ea56fdce7f,
            0xcf6ead52a6e857ed,
        ],
    );
}
