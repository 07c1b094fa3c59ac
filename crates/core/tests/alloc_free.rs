//! Allocation gates for the reused engine. A steady-state stats rep —
//! `SweepRunner::run_rep_stats` on scenario 4 after one warm-up rep —
//! allocates nothing, and neither does a policed engine run after
//! `Engine::reset`, a steady-state `ScheduledRuns::fingerprint` or an
//! in-order `MergeState::accept`; a streaming sweep's allocations do not
//! grow with its rep count. A
//! report rep's and a verify verdict's allocation counts are pinned. The
//! test binary installs its own counting allocator, which counts only on
//! the thread that asked, so tests running in parallel do not disturb
//! each other's counts.

use flagsim_agents::ImplementKind;
use flagsim_core::sweep::{MergeState, RepOutcome, SweepRunner};
use flagsim_core::work::PreparedFlag;
use flagsim_core::{ActivityConfig, FaultPlan, OutcomeFingerprint, Scenario, TeamKit};
use flagsim_desim::{
    Action, ChoicePoint, Engine, ForcedSchedule, ProcId, Process, ResourceId, SchedulePolicy,
    SimDuration, SimTime,
};
use flagsim_flags::library;
use flagsim_grid::Color;
use flagsim_simcheck::explore::scenario_team;
use flagsim_simcheck::{explore_activity, ExploreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: both methods forward to `System` unchanged; the bookkeeping
// touches only a const-initialised thread-local, which never allocates.
// The default `alloc_zeroed` and `realloc` go through `alloc`, so every
// allocation and growth is counted.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// How many allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

#[test]
fn steady_state_stats_rep_allocates_nothing() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let config = ActivityConfig::default();
    let scenario = Scenario::fig1(4);
    let runner = SweepRunner::new(&scenario, &flag, &kit, &config)
        .team_size(4)
        .retain_reports(false);
    let warm = runner.run_rep_stats(0).expect("warm-up rep runs");
    assert!(warm.wait_secs > 0.0, "scenario 4 contends: {warm:?}");
    for rep in 1..20 {
        let (sample, allocs) = allocations(|| runner.run_rep_stats(rep));
        let sample = sample.expect("rep runs");
        assert_eq!(allocs, 0, "rep {rep} allocated");
        // The reused engine gives what a report of the same rep gives.
        let report = runner.run_rep(rep).expect("rep runs");
        assert_eq!(sample, report.sample(), "rep {rep}");
    }
}

/// Allocations per rep of a streaming `jobs(1)` sweep beyond its fixed
/// set-up. The same test measured 0 on the collector this one replaced.
const STREAMING_SWEEP_ALLOCS_PER_REP: u64 = 0;

#[test]
fn streaming_sweep_allocations_do_not_grow_with_reps() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let config = ActivityConfig::default();
    let scenario = Scenario::fig1(4);
    let sweep = |reps: u64| {
        let runner = SweepRunner::new(&scenario, &flag, &kit, &config)
            .team_size(4)
            .reps(reps)
            .jobs(1)
            .retain_reports(false);
        let (result, allocs) = allocations(|| runner.run());
        assert_eq!(result.expect("sweep runs").completion.n, reps as usize);
        allocs
    };
    sweep(4); // warms this thread's stats scratch
    let n = 64;
    let once = sweep(n);
    let twice = sweep(2 * n);
    assert!(
        twice <= once + n * STREAMING_SWEEP_ALLOCS_PER_REP,
        "{n} reps: {once} allocations, {} reps: {twice}",
        2 * n
    );
}

#[test]
fn in_order_merge_allocates_nothing() {
    let mut merge = MergeState::new(1_000);
    let ((), allocs) = allocations(|| {
        for rep in 0..1_000 {
            let x = rep as f64 / 8.0 + 1.0;
            merge.accept(rep, RepOutcome::Ok { completion: x, waiting: x / 2.0 });
        }
    });
    assert_eq!(merge.merged(), 1_000);
    assert_eq!(allocs, 0);
}

/// Allocations of one steady-state report rep of scenario 1 on France
/// (288 cells, one student, trace events on), as a retained sweep runs
/// it on the thread's reused world and engine: the student's name, the
/// resource labels, and the trace, tables, grid and cell log the report
/// keeps, with cost sampling adding none.
const FRANCE_REPORT_REP_ALLOCS: u64 = 21;

#[test]
fn report_rep_allocations_are_pinned() {
    let flag = PreparedFlag::new(&library::france());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let config = ActivityConfig::default();
    let scenario = Scenario::fig1(1);
    let runner = SweepRunner::new(&scenario, &flag, &kit, &config)
        .team_size(1)
        .retain_reports(true);
    runner.run_rep(0).expect("warm-up rep runs");
    runner.run_rep_stats(0).expect("warm-up rep runs");
    for rep in 1..10 {
        let (report, allocs) = allocations(|| runner.run_rep(rep));
        let report = report.expect("rep runs");
        assert!(report.correct, "rep {rep}");
        assert_eq!(allocs, FRANCE_REPORT_REP_ALLOCS, "rep {rep}");
        // What the report keeps is allocated at its final size.
        let events = &report.trace.events;
        assert_eq!(events.capacity(), events.len(), "rep {rep} events");
        let cell_log = &report.cell_log;
        assert_eq!(cell_log.capacity(), cell_log.len(), "rep {rep} cell log");
        for log in cell_log {
            assert_eq!(log.capacity(), log.len(), "rep {rep} cell log");
        }
        // Stats reps stay allocation-free on the same runner.
        let (sample, allocs) = allocations(|| runner.run_rep_stats(rep));
        assert_eq!(sample.expect("rep runs"), report.sample(), "rep {rep}");
        assert_eq!(allocs, 0, "stats rep {rep} allocated");
    }
}

/// A process walking a fixed script; allocation-free to build.
struct Scripted {
    script: &'static [Action],
    cursor: usize,
}

impl Process for Scripted {
    fn next(&mut self, _now: SimTime) -> Action {
        let a = self.script.get(self.cursor).copied().unwrap_or(Action::Done);
        self.cursor += 1;
        a
    }
}

/// A policy that always takes the first candidate and only counts.
#[derive(Default)]
struct Tally {
    choices: u64,
    cascades: u64,
}

impl SchedulePolicy for Tally {
    fn choose(&mut self, _choice: &ChoicePoint<'_>) -> usize {
        self.choices += 1;
        0
    }

    fn observe_cascade(&mut self, _: ProcId, _: SimTime, _: &[ResourceId], _: bool) {
        self.cascades += 1;
    }
}

const MARKER: ResourceId = ResourceId::from_index(0);
const USE_MARKER: &[Action] = &[
    Action::Acquire(MARKER),
    Action::Work(SimDuration::from_millis(10)),
    Action::Release(MARKER),
    Action::Done,
];

/// Reset `engine` and load two marker users, the second arriving at
/// `second_at`, then run it; returns the policy's choice count.
fn policed_run(engine: &mut Engine<Scripted, Tally>, second_at: u64) -> u64 {
    engine.reset();
    *engine.policy_mut() = Tally::default();
    engine.add_resource("", SimDuration::ZERO);
    for start in [0, second_at] {
        let proc = Scripted {
            script: USE_MARKER,
            cursor: 0,
        };
        engine.add_process_at(proc, SimTime(start));
    }
    engine.run_in_place(SimTime(u64::MAX)).expect("runs");
    assert!(engine.policy_mut().cascades > 0, "the policy observed the run");
    engine.policy_mut().choices
}

#[test]
fn policed_run_after_reset_allocates_nothing() {
    let mut engine = Engine::with_policy(Tally::default(), 0, 0, 0);
    // Staggered arrivals: no tie, so no choice point and no state hash.
    assert_eq!(policed_run(&mut engine, 1), 0);
    let (choices, allocs) = allocations(|| policed_run(&mut engine, 1));
    assert_eq!((choices, allocs), (0, 0), "tie-free policed run");
    // Simultaneous arrivals: ties whose candidate lists and state hash
    // use the engine's scratch, warmed by the first run.
    assert!(policed_run(&mut engine, 0) > 0);
    let (choices, allocs) = allocations(|| policed_run(&mut engine, 0));
    assert!(choices > 0);
    assert_eq!(allocs, 0, "tied policed run");
}

#[test]
fn steady_state_fingerprint_schedule_allocates_nothing() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let config = ActivityConfig::default().with_seed(2025);
    let plan = FaultPlan::none();
    let compiled = Scenario::fig1(4).compile(&flag, &config).expect("compiles");
    let (policy, log) = ForcedSchedule::new(Vec::new());
    let mut runs = compiled
        .scheduled_runs(scenario_team(&compiled), &kit, &config, &plan, *policy)
        .expect("samples");
    // A schedule that flips the last tie of the default one.
    let script = [0, 0, 0, 0, 1];
    let mut schedule = || {
        log.borrow_mut().clear();
        runs.policy_mut().restart(&script);
        runs.fingerprint().expect("runs")
    };
    let warm = schedule();
    assert!(
        matches!(warm, OutcomeFingerprint::Completed { .. }),
        "{warm:?}"
    );
    assert!(log.borrow().decisions.len() >= script.len(), "scenario 4 ties");
    for _ in 0..3 {
        let (outcome, allocs) = allocations(&mut schedule);
        assert_eq!(outcome, warm, "replays are deterministic");
        assert_eq!(allocs, 0, "steady-state schedule allocated");
    }
}

/// Allocations of one `flagsim verify` verdict on scenario 4 at seed
/// 2025 (44 schedules): sampling the world once, exploration's stack,
/// state map, scripts and outcome classes, the root schedule's report
/// (the baseline, traced on the reused engine, not a separate run), and
/// the SC302 tie pass over its trace in flat clock rows, with one table
/// of kept rows by event index.
const SCENARIO_4_VERDICT_ALLOCS: u64 = 234;

#[test]
fn verify_verdict_allocations_are_pinned() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let config = ActivityConfig::default().with_seed(2025);
    let compiled = Scenario::fig1(4).compile(&flag, &config).expect("compiles");
    let (verdict, allocs) =
        allocations(|| explore_activity(&compiled, &kit, &config, &ExploreConfig::default()));
    let verdict = verdict.expect("explores");
    assert_eq!(verdict.exploration.schedules_run, 44);
    assert_eq!(allocs, SCENARIO_4_VERDICT_ALLOCS);
}
