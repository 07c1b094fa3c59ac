//! Property tests for the DES engine: time accounting conservation,
//! chronological event logs, determinism under random workloads, and
//! reset in place — a reused engine gives what a fresh one gives.

use flagsim_desim::{
    Action, Engine, ForcedSchedule, NoPolicy, Process, ScheduleLog, SchedulePolicy, SimDuration,
    SimTime, Trace,
};
use proptest::prelude::*;

/// A process following a pre-generated script of work/acquire/release
/// actions over a set of resources. The script is sanitized so the process
/// never releases what it doesn't hold and releases everything at the end.
struct Scripted {
    actions: Vec<Action>,
    cursor: usize,
}

impl Process for Scripted {
    fn next(&mut self, _now: SimTime) -> Action {
        let a = self.actions[self.cursor];
        self.cursor += 1;
        a
    }
}

/// Raw script op generated by proptest; turned into sane Actions below.
#[derive(Debug, Clone, Copy)]
enum Op {
    Work(u64),
    UseResource { res: usize, work: u64 },
}

fn op_strategy(n_res: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..200).prop_map(Op::Work),
        (0..n_res, 1u64..200).prop_map(|(res, work)| Op::UseResource { res, work }),
    ]
}

/// Reset `eng` and load one process per script over `n_res` resources.
/// With `hog`, one more process takes `r0` and finishes without giving it
/// back, so anyone using `r0` after it stalls.
fn load<Pol: SchedulePolicy>(
    eng: &mut Engine<Scripted, Pol>,
    scripts: &[Vec<Op>],
    n_res: usize,
    handoff: u64,
    hog: bool,
) {
    eng.reset();
    let rids: Vec<_> = (0..n_res)
        .map(|i| eng.add_resource(format!("r{i}"), SimDuration::from_millis(handoff)))
        .collect();
    for ops in scripts {
        let mut actions = Vec::new();
        for op in ops {
            match *op {
                Op::Work(ms) => actions.push(Action::Work(SimDuration::from_millis(ms))),
                Op::UseResource { res, work } => {
                    actions.push(Action::Acquire(rids[res]));
                    actions.push(Action::Work(SimDuration::from_millis(work)));
                    actions.push(Action::Release(rids[res]));
                }
            }
        }
        actions.push(Action::Done);
        eng.add_process(Scripted { actions, cursor: 0 });
    }
    if hog {
        let actions = vec![Action::Acquire(rids[0]), Action::Done];
        eng.add_process(Scripted { actions, cursor: 0 });
    }
}

fn build_trace(scripts: &[Vec<Op>], n_res: usize, handoff: u64) -> Trace {
    let mut eng = Engine::with_policy(NoPolicy, 0, 0, 0);
    load(&mut eng, scripts, n_res, handoff, false);
    eng.run()
}

fn scripts_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec(op_strategy(3), 0..12),
        1..6,
    )
}

/// How one workload of a reuse sequence runs.
#[derive(Debug, Clone)]
enum Finish {
    /// Until the queue drains — or the run stalls, when a hog is loaded.
    Drain,
    /// Until the bell rings at this millisecond.
    Bell(u64),
    /// Under a forced schedule following this script.
    Policed(Vec<usize>),
}

/// Scripts, hand-off latency, whether a hog is loaded, and the finish.
type Workload = (Vec<Vec<Op>>, u64, bool, Finish);

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        scripts_strategy(),
        0u64..50,
        any::<bool>(),
        prop_oneof![
            Just(Finish::Drain),
            (1u64..400).prop_map(Finish::Bell),
            proptest::collection::vec(0usize..4, 0..6).prop_map(Finish::Policed),
        ],
    )
}

/// A run's result, errors rendered, plus the forced schedule's log.
type Run = (Result<Trace, String>, Option<ScheduleLog>);

/// `w` on a fresh engine, through the consuming API.
fn run_fresh(w: &Workload) -> Run {
    let (scripts, handoff, hog, finish) = w;
    let mut eng = Engine::with_policy(NoPolicy, 0, 0, 0);
    load(&mut eng, scripts, 3, *handoff, *hog);
    let (result, log) = match finish {
        Finish::Drain => (eng.try_run(), None),
        Finish::Bell(at) => (eng.try_run_until(SimTime(*at)), None),
        Finish::Policed(script) => {
            let (policy, log) = ForcedSchedule::new(script.clone());
            (eng.with_schedule_policy(policy).try_run(), Some(log.take()))
        }
    };
    (result.map_err(|e| e.to_string()), log)
}

/// `w` on `eng`, reset and run in place; a policed run borrows the
/// engine's buffers under a forced schedule and hands them back.
fn run_reused(eng: &mut Engine<Scripted>, w: &Workload) -> Run {
    let (scripts, handoff, hog, finish) = w;
    let deadline = match finish {
        Finish::Bell(at) => SimTime(*at),
        Finish::Drain | Finish::Policed(_) => SimTime(u64::MAX),
    };
    if let Finish::Policed(script) = finish {
        let (policy, log) = ForcedSchedule::new(script.clone());
        let taken = std::mem::replace(eng, Engine::with_policy(NoPolicy, 0, 0, 0));
        let mut policed = taken.with_schedule_policy(*policy);
        load(&mut policed, scripts, 3, *handoff, *hog);
        let result = policed.run_in_place(deadline).map(|_| policed.take_trace());
        *eng = policed.with_schedule_policy(NoPolicy);
        return (result.map_err(|e| e.to_string()), Some(log.take()));
    }
    load(eng, scripts, 3, *handoff, *hog);
    let result = eng.run_in_place(deadline).map(|_| eng.take_trace());
    (result.map_err(|e| e.to_string()), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// busy + waiting + idle exactly equals each process's finish time.
    #[test]
    fn time_accounting_conserves(scripts in scripts_strategy(), handoff in 0u64..50) {
        let trace = build_trace(&scripts, 3, handoff);
        for p in &trace.procs {
            let fin = p.finished_at.expect("every process finishes");
            let accounted = p.busy.millis() + p.waiting.millis() + p.idle(trace.end_time).millis();
            prop_assert_eq!(accounted, fin.millis(), "proc accounting mismatch");
            prop_assert!(fin <= trace.end_time);
        }
    }

    /// The event log is chronological and the last event defines end_time.
    #[test]
    fn event_log_is_chronological(scripts in scripts_strategy()) {
        let trace = build_trace(&scripts, 3, 5);
        prop_assert!(trace.events.windows(2).all(|w| w[0].time <= w[1].time));
        if let Some(last) = trace.events.last() {
            prop_assert!(last.time <= trace.end_time);
        }
        // Exactly one Finished event per process.
        for (i, _) in trace.procs.iter().enumerate() {
            let fins = trace
                .events
                .iter()
                .filter(|e| {
                    e.proc.index() == i
                        && matches!(e.kind, flagsim_desim::EventKind::Finished)
                })
                .count();
            prop_assert_eq!(fins, 1);
        }
    }

    /// Identical inputs give identical traces.
    #[test]
    fn deterministic(scripts in scripts_strategy(), handoff in 0u64..50) {
        let a = build_trace(&scripts, 3, handoff);
        let b = build_trace(&scripts, 3, handoff);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.events, b.events);
    }

    /// Makespan is at least the busiest process and at most total work plus
    /// all waiting (serialization bound).
    #[test]
    fn makespan_bounds(scripts in scripts_strategy(), handoff in 0u64..50) {
        let trace = build_trace(&scripts, 3, handoff);
        let max_proc_busy = trace
            .procs
            .iter()
            .map(|p| p.busy.millis())
            .max()
            .unwrap_or(0);
        prop_assert!(trace.makespan().millis() >= max_proc_busy);
        let upper = trace.total_busy().millis() + trace.total_waiting().millis();
        prop_assert!(trace.makespan().millis() <= upper.max(max_proc_busy));
    }

    /// One engine reset and rerun through a sequence of workloads —
    /// drained, stalled, cut off by the bell, policed — matches a fresh
    /// engine on every one: no stale slot, holder, waiter or queue entry
    /// survives a reset, whatever the previous run left behind.
    #[test]
    fn reset_engine_matches_fresh(workloads in proptest::collection::vec(workload_strategy(), 1..8)) {
        let mut eng = Engine::with_policy(NoPolicy, 0, 0, 0);
        for w in &workloads {
            prop_assert_eq!(run_reused(&mut eng, w), run_fresh(w), "{:?}", w);
        }
    }
}
