//! The flat happens-before clock pass against a map-based reference
//! pass: the same SC302 ties from `acquire_ties`, and the same races,
//! race spans and ties from `check_run` / `analyze_hb`, on activity runs
//! (the six built-ins, pooled markers, release-each-cell, a dropout
//! rebalance, a shared cell) and on seeded raw-engine workloads with
//! zero-length work. Three tests pin the corners where one process has
//! several grants or strokes in one instant, and one checks that every
//! sync edge's event indices name the events its fields describe.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::work::PreparedFlag;
use flagsim_core::{
    run_activity, ActivityConfig, FaultPlan, ReleasePolicy, RunReport, Scenario, TeamKit,
};
use flagsim_desim::{
    sync_edges, Action, Engine, EventKind, FnProcess, ResourceId, SimDuration, SimTime, Trace,
};
use flagsim_flags::{library, FlagSpec, Layer, Shape};
use flagsim_grid::{CellId, Color};
use flagsim_simcheck::hb::AcquireTie;
use flagsim_simcheck::{
    acquire_ties, analyze_hb, cell_accesses, check_run, CellAccess, Diag, HbAnalysis, Severity,
};
use std::collections::{BTreeMap, VecDeque};

fn join(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

fn ordered(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) || b.iter().zip(a).all(|(x, y)| x <= y)
}

/// The reference pass: one clock `Vec` per process, a clone of it per
/// event into `BTreeMap`s keyed by event index, and the sync edges
/// collected into a map from each acquire's index to its release's.
fn reference_hb(trace: &Trace, accesses: &[CellAccess]) -> HbAnalysis {
    let n = trace.procs.len();
    if n == 0 {
        return HbAnalysis::default();
    }
    let edges: BTreeMap<usize, usize> = sync_edges(trace)
        .into_iter()
        .map(|e| (e.acquire_event, e.release_event))
        .collect();
    let mut vc: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut rel_snap: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut pending: Vec<Option<usize>> = vec![None; n];
    let mut ws_clocks: Vec<BTreeMap<usize, Vec<u64>>> = vec![BTreeMap::new(); n];
    type RequestGroups = BTreeMap<(usize, SimTime), Vec<(usize, Vec<u64>)>>;
    let mut requests: RequestGroups = BTreeMap::new();
    for (i, e) in trace.events.iter().enumerate() {
        let p = e.proc.index();
        if p >= n {
            continue;
        }
        vc[p][p] += 1;
        match e.kind {
            EventKind::WorkStart { .. } => {
                ws_clocks[p].insert(i, vc[p].clone());
            }
            EventKind::Blocked(r) => {
                pending[p] = Some(r.index());
                requests
                    .entry((r.index(), e.time))
                    .or_default()
                    .push((p, vc[p].clone()));
            }
            EventKind::Acquired(r) => {
                let was_blocked = pending[p].take().is_some_and(|b| b == r.index());
                if !was_blocked {
                    requests
                        .entry((r.index(), e.time))
                        .or_default()
                        .push((p, vc[p].clone()));
                }
                if let Some(snap) = edges.get(&i).and_then(|rel| rel_snap.get(rel)) {
                    let snap = snap.clone();
                    join(&mut vc[p], &snap);
                }
            }
            EventKind::Released(_) => {
                rel_snap.insert(i, vc[p].clone());
            }
            EventKind::Finished => {}
        }
    }
    let mut ties = Vec::new();
    for (&(ri, at), group) in &requests {
        let mut distinct: Vec<usize> = group.iter().map(|(p, _)| *p).collect();
        distinct.dedup();
        if distinct.len() < 2 {
            continue;
        }
        let unordered_pair = group.iter().enumerate().any(|(i, (pa, ca))| {
            group[i + 1..]
                .iter()
                .any(|(pb, cb)| pa != pb && !ordered(ca, cb))
        });
        if unordered_pair {
            ties.push(AcquireTie {
                resource: trace
                    .resources
                    .get(ri)
                    .map_or_else(|| format!("resource {ri}"), |r| r.label.clone()),
                at,
                procs: distinct,
            });
        }
    }
    let mut by_cell: BTreeMap<CellId, Vec<&CellAccess>> = BTreeMap::new();
    for a in accesses {
        by_cell.entry(a.cell).or_default().push(a);
    }
    let mut races = Vec::new();
    let mut race_spans = Vec::new();
    for (cell, list) in &by_cell {
        let mut reported: Vec<(usize, usize)> = Vec::new();
        for (i, a) in list.iter().enumerate() {
            for b in &list[i + 1..] {
                if a.student == b.student {
                    continue;
                }
                let pair = (a.student.min(b.student), a.student.max(b.student));
                if reported.contains(&pair) {
                    continue;
                }
                let (Some(ca), Some(cb)) = (
                    ws_clocks[a.student].get(&a.event),
                    ws_clocks[b.student].get(&b.event),
                ) else {
                    continue;
                };
                if ordered(ca, cb) {
                    continue;
                }
                reported.push(pair);
                let mut d = Diag::new(
                    "SC301",
                    Severity::Error,
                    format!("cell {cell}"),
                    format!(
                        "data race: {} and {} both write cell {cell} with no \
                         happens-before order",
                        a.name, b.name
                    ),
                )
                .with_detail(format!(
                    "{} paints {cell} {} over {}..{}ms",
                    a.name,
                    a.color,
                    a.start.millis(),
                    a.end.millis()
                ))
                .with_detail(format!(
                    "{} paints {cell} {} over {}..{}ms",
                    b.name,
                    b.color,
                    b.start.millis(),
                    b.end.millis()
                ));
                let hid = ties.iter().rfind(|t: &&AcquireTie| {
                    t.at <= a.start.max(b.start)
                        && t.procs.contains(&a.student)
                        && t.procs.contains(&b.student)
                });
                d = match hid {
                    Some(t) => d.with_detail(format!(
                        "hidden by the acquire-order tie on \"{}\" at t={}ms — a \
                         different event insertion order flips which write lands last",
                        t.resource,
                        t.at.millis()
                    )),
                    None => d.with_detail(
                        "no scheduler tie involved — the writes are concurrent under \
                         every event ordering"
                            .to_owned(),
                    ),
                };
                races.push(d);
                race_spans.push((a.start.min(b.start), a.end.max(b.end)));
            }
        }
    }
    HbAnalysis {
        races,
        race_spans,
        ties,
    }
}

/// Both passes agree on `trace` with `accesses`: whole analysis, and the
/// ties-only entry point. Returns the analysis.
fn assert_equivalent(what: &str, trace: &Trace, accesses: &[CellAccess]) -> HbAnalysis {
    let want = reference_hb(trace, accesses);
    let got = analyze_hb(trace, accesses);
    assert_eq!(got.ties, want.ties, "{what}: ties");
    assert_eq!(got.races, want.races, "{what}: races");
    assert_eq!(got.race_spans, want.race_spans, "{what}: race spans");
    assert_eq!(acquire_ties(trace), want.ties, "{what}: ties-only pass");
    got
}

/// `check_run` on `report` against the reference over the same accesses.
fn assert_report_equivalent(what: &str, report: &RunReport) -> HbAnalysis {
    assert!(!report.trace.events.is_empty(), "{what}: traced");
    let got = check_run(report);
    let want = reference_hb(&report.trace, &cell_accesses(report));
    assert_eq!(got.races, want.races, "{what}: check_run races");
    assert_eq!(
        got.race_spans, want.race_spans,
        "{what}: check_run race spans"
    );
    assert_eq!(got.ties, want.ties, "{what}: check_run ties");
    assert_equivalent(what, &report.trace, &cell_accesses(report))
}

/// The six scenarios `flagsim` ships (1–4, pipelined, alternating).
fn builtin(idx: usize, flag: &PreparedFlag) -> Scenario {
    match idx {
        0..=3 => Scenario::fig1(idx as u8 + 1),
        4 => Scenario::pipelined_slices(flag, 4, 4),
        _ => Scenario::alternating_slices(),
    }
}

fn team(n: usize) -> Vec<StudentProfile> {
    (1..=n)
        .map(|i| StudentProfile::new(format!("P{i}")))
        .collect()
}

#[test]
fn flat_pass_matches_the_reference_on_activity_runs() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let pooled = kit.clone().with_count(Color::Red, 2);
    let mut tied = 0;
    for idx in 0..6 {
        let scenario = builtin(idx, &flag);
        for seed in [1, 7, 2025, 31_337, u64::MAX] {
            let base = ActivityConfig::default().with_seed(seed);
            let each_cell = base.clone().with_policy(ReleasePolicy::ReleaseEachCell);
            let dropout = FaultPlan::new("dropout").dropout(0, 20.0);
            let none = FaultPlan::none();
            for (variant, kit, cfg, plan) in [
                ("default", &kit, &base, &none),
                ("two red markers", &pooled, &base, &none),
                ("release each cell", &kit, &each_cell, &none),
                ("dropout, rebalanced", &kit, &base, &dropout),
            ] {
                let what = format!("{} seed {seed}, {variant}", scenario.name);
                let mut team = team(scenario.team_size(&flag, cfg));
                let report = scenario
                    .run_with_faults(&flag, &mut team, kit, cfg, plan)
                    .expect("runs");
                tied += assert_report_equivalent(&what, &report).ties.len();
            }
        }
    }
    assert!(tied > 0, "the inputs exercise SC302 ties");
}

#[test]
fn flat_pass_matches_the_reference_on_a_shared_cell() {
    let flag = PreparedFlag::new(&FlagSpec::new(
        "shared cell",
        1,
        1,
        vec![Layer::new("bg", Color::Red, Shape::Full)],
    ));
    let item = flag.item(CellId(0)).expect("one red cell");
    let assignments = vec![vec![item], vec![item]];
    let mut raced = 0;
    for seed in [3, 17, 2025] {
        for markers in [1, 2] {
            let kit = TeamKit::uniform(ImplementKind::ThickMarker, &[Color::Red])
                .with_count(Color::Red, markers);
            let cfg = ActivityConfig::default().with_seed(seed);
            let report = run_activity("shared", &flag, &assignments, &mut team(2), &kit, &cfg)
                .expect("runs");
            let what = format!("shared cell, {markers} marker(s), seed {seed}");
            raced += assert_report_equivalent(&what, &report).races.len();
        }
    }
    assert!(raced > 0, "pooled markers race on the shared cell");
}

/// A process that follows a fixed action script, then finishes.
fn scripted(name: String, actions: Vec<Action>) -> Box<dyn flagsim_desim::Process> {
    let mut queue: VecDeque<Action> = actions.into();
    Box::new(FnProcess::new(name, move |_| {
        queue.pop_front().unwrap_or(Action::Done)
    }))
}

/// One access per `WorkStart` of `trace`, each writing cell
/// `cell(process, k)` for the process's `k`-th work start.
fn accesses_of(trace: &Trace, cell: impl Fn(usize, usize) -> u32) -> Vec<CellAccess> {
    let mut seen = vec![0; trace.procs.len()];
    let mut out = Vec::new();
    for (event, e) in trace.events.iter().enumerate() {
        if let EventKind::WorkStart { dur } = e.kind {
            let p = e.proc.index();
            out.push(CellAccess {
                student: p,
                name: trace.procs[p].name.clone(),
                cell: CellId(cell(p, seen[p])),
                color: Color::Red,
                start: e.time,
                end: e.time + dur,
                event,
            });
            seen[p] += 1;
        }
    }
    out
}

/// xorshift64, for deterministic workloads without a dependency.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Every sync edge of `trace` names, by index, a `Released` of its
/// resource by `from` at `released_at` and a later `Acquired` of it by
/// `to` at `acquired_at`.
/// Returns how many edges it checked.
fn assert_edges_name_their_events(what: &str, trace: &Trace) -> usize {
    let edges = sync_edges(trace);
    for e in &edges {
        let rel = &trace.events[e.release_event];
        let acq = &trace.events[e.acquire_event];
        assert_eq!(
            (rel.kind, rel.proc, rel.time),
            (EventKind::Released(e.resource), e.from, e.released_at),
            "{what}: release of {e:?}"
        );
        assert_eq!(
            (acq.kind, acq.proc, acq.time),
            (EventKind::Acquired(e.resource), e.to, e.acquired_at),
            "{what}: acquire of {e:?}"
        );
        assert!(e.release_event < e.acquire_event, "{what}: {e:?}");
    }
    assert!(
        edges
            .windows(2)
            .all(|w| w[0].acquire_event < w[1].acquire_event),
        "{what}: edges in grant order"
    );
    edges.len()
}

#[test]
fn sync_edge_indices_name_their_events() {
    let mut checked = 0;
    for seed in 1..=300u64 {
        let what = format!("raw workload {seed}");
        checked += assert_edges_name_their_events(&what, &raw_workload(seed));
    }
    assert!(checked > 0, "the raw workloads have edges");
    checked = 0;
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    for idx in 0..6 {
        let scenario = builtin(idx, &flag);
        for policy in [
            ReleasePolicy::KeepUntilColorChange,
            ReleasePolicy::ReleaseEachCell,
        ] {
            for seed in [1, 2025] {
                let cfg = ActivityConfig::default()
                    .with_seed(seed)
                    .with_policy(policy);
                let mut team = team(scenario.team_size(&flag, &cfg));
                let report = scenario
                    .run_with_faults(&flag, &mut team, &kit, &cfg, &FaultPlan::none())
                    .expect("runs");
                let what = format!("{} seed {seed}, {policy:?}", scenario.name);
                checked += assert_edges_name_their_events(&what, &report.trace);
            }
        }
    }
    assert!(checked > 0, "the built-ins have edges");
}

/// Seeded raw-engine workload `seed`: two to four processes taking a
/// mutex, a two-unit pool or both (nested), with zero-length work and
/// hand-offs mixed in.
fn raw_workload(seed: u64) -> Trace {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut eng = Engine::new();
    let handoff = SimDuration::from_millis(next(&mut x) % 2);
    let mutex = eng.add_resource("mutex", handoff);
    let pool = eng.add_resource_pool("pool", 2, SimDuration::ZERO);
    let procs = 2 + (next(&mut x) % 3) as usize;
    for i in 0..procs {
        let mut actions = Vec::new();
        for _ in 0..1 + next(&mut x) % 4 {
            let work = |x: &mut u64| Action::Work(SimDuration::from_millis(next(x) % 3 * 5));
            match next(&mut x) % 4 {
                0 => actions.push(work(&mut x)),
                1 => actions.extend([Action::Acquire(mutex), work(&mut x), Action::Release(mutex)]),
                2 => actions.extend([Action::Acquire(pool), work(&mut x), Action::Release(pool)]),
                _ => actions.extend([
                    Action::Acquire(pool),
                    Action::Acquire(mutex),
                    work(&mut x),
                    Action::Release(mutex),
                    Action::Release(pool),
                ]),
            }
        }
        eng.add_process(scripted(format!("p{i}"), actions));
    }
    eng.run()
}

/// The raw-engine workloads, writing a handful of shared cells.
#[test]
fn flat_pass_matches_the_reference_on_raw_engine_workloads() {
    let (mut tied, mut raced) = (0, 0);
    for seed in 1..=300u64 {
        let trace = raw_workload(seed);
        let accesses = accesses_of(&trace, |p, k| ((p + k) % 3) as u32);
        let hb = assert_equivalent(&format!("raw workload {seed}"), &trace, &accesses);
        tied += hb.ties.len();
        raced += hb.races.len();
    }
    assert!(tied > 0 && raced > 0, "ties {tied}, races {raced}");
}

/// `p` takes the mutex twice at t=5 (zero-length work between), so two
/// sync edges into `p` share the time 5 and the mutex: one from `q`, one
/// from `p` itself. Each grant joins its own edge's release, so `p`'s
/// first grant is ordered after `q`'s release and `p`'s later write does
/// not race `q`'s.
#[test]
fn a_repeated_grant_in_one_instant_joins_its_own_edge() {
    let mut eng = Engine::new();
    let m = eng.add_resource("mutex", SimDuration::ZERO);
    let ms = SimDuration::from_millis;
    eng.add_process(scripted(
        "q".to_owned(),
        vec![Action::Acquire(m), Action::Work(ms(5)), Action::Release(m)],
    ));
    eng.add_process(scripted(
        "p".to_owned(),
        vec![
            Action::Work(ms(5)),
            Action::Acquire(m),
            Action::Work(ms(0)),
            Action::Release(m),
            Action::Acquire(m),
            Action::Work(ms(10)),
            Action::Release(m),
        ],
    ));
    let trace = eng.run();
    let p = 1;
    let keys: Vec<_> = sync_edges(&trace)
        .iter()
        .filter(|e| e.to.index() == p)
        .map(|e| (e.acquired_at, e.resource, e.from.index()))
        .collect();
    assert_eq!(
        keys,
        [
            (SimTime(5), ResourceId::from_index(0), 0),
            (SimTime(5), ResourceId::from_index(0), p)
        ],
        "two edges into (p, 5, mutex): from q, then from p itself"
    );
    // q writes cell 0 in its only stroke; p writes it in its last one.
    let accesses = accesses_of(&trace, |proc, k| if proc == p && k < 2 { 1 } else { 0 });
    let hb = assert_equivalent("repeated grant", &trace, &accesses);
    assert!(hb.races.is_empty(), "{:?}", hb.races);
}

/// `p` starts three strokes at t=5: a zero-length one, then, after its
/// grant of the mutex from `q`, a zero-length and a long one. `q` paints
/// cell 0, then cell 1, while it holds the mutex. `p`'s first t=5 stroke
/// is unordered with `q`'s and races it on cell 0; the two after the
/// grant are ordered after `q`'s release and paint cell 1 with no race.
#[test]
fn each_stroke_in_one_instant_is_judged_by_its_own_clock() {
    use Action::{Acquire, Release, Work};
    let mut eng = Engine::new();
    let m = eng.add_resource("mutex", SimDuration::ZERO);
    let ms = SimDuration::from_millis;
    let q = vec![Acquire(m), Work(ms(3)), Work(ms(2)), Release(m)];
    let p = vec![
        Work(ms(5)),
        Work(ms(0)),
        Acquire(m),
        Work(ms(0)),
        Work(ms(10)),
        Release(m),
    ];
    for (name, actions) in [("q", q), ("p", p)] {
        eng.add_process(scripted(name.to_owned(), actions));
    }
    let trace = eng.run();
    let starts: Vec<_> = accesses_of(&trace, |_, _| 0)
        .iter()
        .map(|a| (a.student, a.start))
        .collect();
    let (t0, t3, t5) = (SimTime(0), SimTime(3), SimTime(5));
    assert_eq!(
        starts,
        [(0, t0), (1, t0), (0, t3), (1, t5), (1, t5), (1, t5)]
    );
    let edges: Vec<_> = sync_edges(&trace)
        .iter()
        .map(|e| (e.from.index(), e.to.index(), e.acquired_at))
        .collect();
    assert_eq!(edges, [(0, 1, t5)], "p's grant comes from q");
    let accesses = accesses_of(&trace, |proc, k| match (proc, k) {
        (0, 0) | (1, 1) => 0,
        (1, 0) => 100,
        _ => 1,
    });
    let hb = assert_equivalent("strokes in one instant", &trace, &accesses);
    assert_eq!(hb.races.len(), 1, "{:?}", hb.races);
    assert_eq!(hb.races[0].subject, format!("cell {}", CellId(0)));
    assert_eq!(hb.race_spans, [(t0, t5)]);
}

/// The same corner one step further: `p`'s two grants of the mutex at
/// t=5 come from `u`, then from `s`, and `s` also released it at t=5
/// before `u` took it. Both edges into `p` share the time 5 and the
/// mutex, but `p`'s first grant joins `u`'s release, which is ordered
/// after `s`'s first release through `u`'s own grant. So `p`'s next
/// write is ordered after `s`'s first one: no race.
#[test]
fn a_repeated_grant_is_ordered_through_the_grants_between() {
    use Action::{Acquire, Release, Work};
    let mut eng = Engine::new();
    let m = eng.add_resource("mutex", SimDuration::ZERO);
    let ms = SimDuration::from_millis;
    let s = vec![
        Acquire(m),
        Work(ms(5)),
        Release(m),
        Work(ms(0)),
        Acquire(m),
        Work(ms(0)),
        Release(m),
    ];
    let u = vec![Work(ms(5)), Acquire(m), Work(ms(0)), Release(m)];
    let p = vec![
        Work(ms(5)),
        Acquire(m),
        Work(ms(0)),
        Release(m),
        Acquire(m),
        Release(m),
    ];
    for (name, actions) in [("s", s), ("u", u), ("p", p)] {
        eng.add_process(scripted(name.to_owned(), actions));
    }
    let trace = eng.run();
    let edges: Vec<_> = sync_edges(&trace)
        .iter()
        .map(|e| (e.from.index(), e.to.index(), e.acquired_at))
        .collect();
    let t5 = SimTime(5);
    assert_eq!(edges, [(0, 1, t5), (1, 2, t5), (2, 0, t5), (0, 2, t5)]);
    // s's first stroke (t=0) and p's zero-length stroke (t=5) share cell 0.
    let accesses = accesses_of(&trace, |proc, k| match (proc, k) {
        (0, 0) | (2, 1) => 0,
        _ => 100 + (proc * 10 + k) as u32,
    });
    let hb = assert_equivalent("older release", &trace, &accesses);
    assert!(hb.races.is_empty(), "{:?}", hb.races);
}
