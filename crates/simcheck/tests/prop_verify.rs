//! Property tests for the schedule-space explorer (`flagsim verify`):
//! invariance proofs hold on every seed, crafted contention always
//! produces a minimal witness, the partial-order reduction never loses an
//! outcome relative to naive enumeration, and a witness schedule replays
//! byte-for-byte.

use flagsim_agents::ImplementKind;
use flagsim_core::scenario::CompiledScenario;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{
    ActivityConfig, ActivityOutcome, FaultPlan, OutcomeFingerprint, Scenario, TeamKit,
};
use flagsim_desim::{Action, Engine, FnProcess, ForcedSchedule, SimDuration};
use flagsim_flags::library;
use flagsim_grid::Color;
use flagsim_simcheck::explore::{graph_fingerprint, report_fingerprint, scenario_team};
use flagsim_simcheck::{
    explore, explore_activity, explore_engine, verify_diags, Exploration, ExploreConfig, Outcome,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// The six scenarios `flagsim` ships (1–4, pipelined, alternating).
fn builtin(idx: usize, flag: &PreparedFlag) -> Scenario {
    match idx {
        0..=3 => Scenario::fig1(idx as u8 + 1),
        4 => Scenario::pipelined_slices(flag, 4, 4),
        _ => Scenario::alternating_slices(),
    }
}

fn kit(flag: &PreparedFlag) -> TeamKit {
    TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
}

fn explore_builtin(idx: usize, seed: u64) -> flagsim_simcheck::ActivityExploration {
    let flag = PreparedFlag::new(&library::mauritius());
    let scenario = builtin(idx, &flag);
    let cfg = ActivityConfig::default().with_seed(seed);
    let compiled = scenario.compile(&flag, &cfg).expect("compiles");
    explore_activity(&compiled, &kit(&flag), &cfg, &ExploreConfig::default()).expect("explores")
}

/// Explore `compiled` under `plan` with both finishes of
/// `ScheduledRuns` side by side, each on its own sampled world and forced
/// schedule: for every script the exploration visits, the fingerprint
/// finish must give `report_fingerprint` of the report finish (or the
/// same stall graph and graph fingerprint), and both must record the same
/// schedule log. The first disagreement aborts the exploration.
fn explore_both_finishes(
    compiled: &CompiledScenario,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    plan: &FaultPlan,
) -> Result<Exploration, String> {
    let (policy, report_log) = ForcedSchedule::new(Vec::new());
    let mut reports = compiled.scheduled_runs(scenario_team(compiled), kit, cfg, plan, *policy)?;
    let (policy, print_log) = ForcedSchedule::new(Vec::new());
    let mut prints = compiled.scheduled_runs(scenario_team(compiled), kit, cfg, plan, *policy)?;
    explore(
        |script| {
            reports.policy_mut().restart(script);
            prints.policy_mut().restart(script);
            let by_report = reports.run()?;
            let by_print = prints.fingerprint()?;
            let (report_log, print_log) = (report_log.take(), print_log.take());
            if report_log != print_log {
                return Err(format!(
                    "script {script:?}: the two finishes logged differently"
                ));
            }
            let outcome = match (by_report, by_print) {
                (
                    ActivityOutcome::Completed(report),
                    OutcomeFingerprint::Completed {
                        fingerprint,
                        completion,
                    },
                ) => {
                    if (report_fingerprint(&report), report.completion) != (fingerprint, completion)
                    {
                        return Err(format!(
                            "script {script:?}: report {:016x} at {}ms, fingerprint finish \
                             {fingerprint:016x} at {}ms",
                            report_fingerprint(&report),
                            report.completion.millis(),
                            completion.millis()
                        ));
                    }
                    Outcome::Completed {
                        fingerprint,
                        makespan_ms: completion.millis(),
                    }
                }
                (ActivityOutcome::Stalled(by_report), OutcomeFingerprint::Stalled(graph)) => {
                    if by_report != graph
                        || graph_fingerprint(&by_report) != graph_fingerprint(&graph)
                    {
                        return Err(format!("script {script:?}: the stall graphs differ"));
                    }
                    Outcome::Stalled {
                        fingerprint: graph_fingerprint(&graph),
                        graph,
                    }
                }
                (a, b) => return Err(format!("script {script:?}: {a:?} vs {b:?}")),
            };
            Ok((outcome, print_log))
        },
        &ExploreConfig::default(),
    )
}

/// A process that follows a fixed action script, then finishes.
fn scripted(name: &str, actions: Vec<Action>) -> Box<FnProcess<impl FnMut(flagsim_desim::SimTime) -> Action>> {
    let mut queue: VecDeque<Action> = actions.into();
    Box::new(FnProcess::new(name.to_owned(), move |_| {
        queue.pop_front().unwrap_or(Action::Done)
    }))
}

/// Three workers funneled through a capacity-2 marker pool with
/// pairwise-distinct service times — who pairs up first always shifts
/// somebody's finish time.
fn pool_engine(seed: u64) -> Engine {
    let mut eng = Engine::new();
    let pool = eng.add_resource_pool("red marker", 2, SimDuration::ZERO);
    let durations = [10 + seed % 7, 25 + seed % 11, 45 + seed % 13];
    for (i, ms) in durations.into_iter().enumerate() {
        eng.add_process(scripted(
            &format!("w{i}"),
            vec![
                Action::Acquire(pool),
                Action::Work(SimDuration::from_millis(ms)),
                Action::Release(pool),
            ],
        ));
    }
    eng
}

/// The exploration shape of every built-in scenario on Mauritius at the
/// CLI's default seed (2025): schedules run, outcome classes, choice
/// states, sleep-pruned and state-hash-pruned alternatives. A state-hash
/// change that merges or splits states moves these numbers, so it fails
/// here, not only in the benchmark digest.
#[test]
fn exploration_shape_is_pinned() {
    let want = [
        (1, 1, 0, 0, 0),
        (1, 1, 1, 1, 0),
        (1, 1, 3, 6, 0),
        (44, 24, 33, 0, 60),
        (1, 1, 3, 6, 0),
        (44, 24, 33, 0, 60),
    ];
    for (idx, want) in want.into_iter().enumerate() {
        let ex = explore_builtin(idx, 2025).exploration;
        let got = (
            ex.schedules_run,
            ex.outcomes.len(),
            ex.visited_states,
            ex.pruned_sleep,
            ex.pruned_visited,
        );
        assert_eq!(got, want, "built-in scenario #{idx}");
    }
}

/// The fingerprint finish paints a faulted run from the live state's
/// started-cell logs: a dropout whose cells survivors adopt and a marker
/// that breaks early, on scenario 4, agree with the report finish on
/// every explored schedule.
#[test]
fn fingerprint_finish_matches_the_report_under_faults() {
    let flag = PreparedFlag::new(&library::mauritius());
    let compiled = builtin(3, &flag)
        .compile(&flag, &ActivityConfig::default())
        .expect("compiles");
    let cfg = ActivityConfig::default().with_seed(2025);
    let plan = FaultPlan::new("drill")
        .dropout(1, 20.0)
        .break_implement(Color::Red, 5.0);
    let ex = explore_both_finishes(&compiled, &kit(&flag), &cfg, &plan)
        .expect("both finishes agree");
    assert!(ex.schedules_run > 1, "{ex:?}");
}

/// The verdict's baseline always records trace events: a caller's config
/// with them off must not lose the SC302 ties the baseline reports.
#[test]
fn baseline_ties_do_not_depend_on_trace_events() {
    let flag = PreparedFlag::new(&library::mauritius());
    let compiled = builtin(3, &flag)
        .compile(&flag, &ActivityConfig::default())
        .expect("compiles");
    let ties = |trace_events| {
        let cfg = ActivityConfig::default()
            .with_seed(2025)
            .with_trace_events(trace_events);
        explore_activity(&compiled, &kit(&flag), &cfg, &ExploreConfig::default())
            .expect("explores")
            .ties
    };
    let on = ties(true);
    assert!(!on.is_empty(), "scenario 4 ties at the red marker");
    assert_eq!(on, ties(false));
}

/// The verdict's baseline is the root schedule's run on exploration's
/// reused engine, traced whatever the caller's config says: the whole
/// report equals a one-off traced run under the empty forced script, and
/// its SC302 ties are that report's `check_run` ties. A zero bound, which
/// explores nothing, still runs it.
#[test]
fn baseline_is_the_root_schedule() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = kit(&flag);
    let plan = FaultPlan::default();
    for idx in 0..6 {
        for seed in [7, 2025] {
            for trace_events in [true, false] {
                let cfg = ActivityConfig::default()
                    .with_seed(seed)
                    .with_trace_events(trace_events);
                let compiled = builtin(idx, &flag).compile(&flag, &cfg).expect("compiles");
                let traced = cfg.clone().with_trace_events(true);
                let mut team = scenario_team(&compiled);
                let (policy, _log) = ForcedSchedule::new(Vec::new());
                let want = match compiled
                    .run_scheduled(&mut team, &kit, &traced, &plan, Some(policy))
                    .expect("runs")
                {
                    ActivityOutcome::Completed(report) => report,
                    ActivityOutcome::Stalled(g) => panic!("stalled: {g:?}"),
                };
                let want_ties = flagsim_simcheck::check_run(&want).ties;
                for max_schedules in [4096, 0] {
                    let bound = ExploreConfig {
                        max_schedules,
                        ..ExploreConfig::default()
                    };
                    let ax = explore_activity(&compiled, &kit, &cfg, &bound).expect("explores");
                    let what = format!("#{idx} seed {seed} trace {trace_events} {bound:?}");
                    assert_eq!(ax.baseline.as_ref(), Some(&want), "{what}");
                    assert_eq!(ax.ties, want_ties, "{what}");
                    if max_schedules > 0 {
                        let root = &ax.exploration.outcomes[0];
                        assert!(root.schedule.is_empty(), "{what}");
                        let fingerprint = report_fingerprint(&want);
                        let makespan_ms = want.completion.millis();
                        let outcome = Outcome::Completed {
                            fingerprint,
                            makespan_ms,
                        };
                        assert_eq!(root.outcome, outcome, "{what}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fingerprint finish equals the report finish on every script
    /// the exploration of a built-in scenario visits, and logs the same
    /// schedule.
    #[test]
    fn fingerprint_finish_matches_the_report(idx in 0usize..6, seed in any::<u64>()) {
        let flag = PreparedFlag::new(&library::mauritius());
        let cfg = ActivityConfig::default().with_seed(seed);
        let compiled = builtin(idx, &flag).compile(&flag, &cfg).expect("compiles");
        let ex = explore_both_finishes(&compiled, &kit(&flag), &cfg, &FaultPlan::default());
        prop_assert!(ex.is_ok(), "{:?}", ex.err());
    }

    /// The same under a seeded random fault plan — bells, late arrivals,
    /// fumbles, breaks and dropouts, recovered from or aborted on.
    #[test]
    fn fingerprint_finish_matches_the_report_under_random_faults(
        idx in 0usize..6,
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let cfg = ActivityConfig::default().with_seed(seed);
        let compiled = builtin(idx, &flag).compile(&flag, &cfg).expect("compiles");
        let team = scenario_team(&compiled).len();
        let plan = FaultPlan::random(plan_seed, team, &Color::MAURITIUS);
        let ex = explore_both_finishes(&compiled, &kit(&flag), &cfg, &plan);
        prop_assert!(ex.is_ok(), "{plan:?}: {:?}", ex.err());
    }

    /// Scenarios 1–3 and the pipelined rotation give every student a
    /// disjoint slice of the work at the start: on any seed, full-depth
    /// exploration proves every tie resolution converges (SC412), and
    /// the partial-order reduction collapses the space to one schedule.
    #[test]
    fn disjoint_builtins_are_schedule_invariant(pick in 0usize..4, seed in any::<u64>()) {
        let ex = explore_builtin([0usize, 1, 2, 4][pick], seed);
        prop_assert!(ex.exploration.invariant(), "{:?}", ex.exploration);
        prop_assert_eq!(ex.exploration.schedules_run, 1);
        prop_assert!(ex.exploration.witness.is_none());
        let diags = verify_diags(&ex.exploration);
        prop_assert!(diags.iter().any(|d| d.id == "SC412"), "{diags:?}");
        prop_assert!(diags.iter().all(|d| d.id != "SC410" && d.id != "SC411"));
    }

    /// The vertical-slices scenarios (fig. 1 panel 4 and the alternating
    /// variant) are genuine flow shops: on any seed the t=0 queue on the
    /// first stripe's marker makes the outcome order-dependent, and
    /// exploration certifies it with a minimal witness pair (SC410).
    #[test]
    fn vertical_slices_diverge_with_witness(pick in 0usize..2, seed in any::<u64>()) {
        let ex = explore_builtin([3usize, 5][pick], seed);
        prop_assert!(!ex.exploration.truncated);
        prop_assert!(ex.exploration.outcomes.len() > 1, "{:?}", ex.exploration);
        let w = ex.exploration.witness.as_ref().expect("witness pair");
        prop_assert_eq!(w.divergent.len(), w.baseline.len() + 1);
        prop_assert_eq!(&w.divergent[..w.baseline.len()], &w.baseline[..]);
        prop_assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
        let diags = verify_diags(&ex.exploration);
        prop_assert!(diags.iter().any(|d| d.id == "SC410"), "{diags:?}");
        // The observed run's SC302 tie is real, and the verdict names it
        // divergent.
        prop_assert!(!ex.ties.is_empty());
        let annotated = flagsim_simcheck::annotate_ties(&ex.ties, &ex.exploration);
        prop_assert!(annotated.iter().all(|d| d.detail[0].contains("divergent")));
    }

    /// The crafted capacity-2 pool yields a divergence witness on every
    /// seed: three distinct service times through two pool units cannot
    /// be schedule-invariant.
    #[test]
    fn capacity_two_pool_diverges_on_every_seed(seed in any::<u64>()) {
        let ex = explore_engine(|| pool_engine(seed), &ExploreConfig::default())
            .expect("explores");
        prop_assert!(!ex.truncated);
        prop_assert!(ex.outcomes.len() > 1, "{ex:?}");
        let w = ex.witness.as_ref().expect("witness pair");
        prop_assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
    }

    /// Soundness of the reduction: on randomized small workloads (zero
    /// durations included, so same-instant cascades happen), DPOR-pruned
    /// exploration discovers exactly the outcome classes naive full
    /// enumeration does — it only skips redundant schedules.
    #[test]
    fn dpor_finds_the_same_outcomes_as_naive(
        assignments in proptest::collection::vec((0usize..2, 0u64..4, 0u64..4), 2..4),
    ) {
        let build = || {
            let mut eng = Engine::new();
            let r0 = eng.add_resource("m0", SimDuration::ZERO);
            let r1 = eng.add_resource("m1", SimDuration::ZERO);
            for (i, (which, a, b)) in assignments.iter().enumerate() {
                let rid = if *which == 0 { r0 } else { r1 };
                eng.add_process(scripted(
                    &format!("p{i}"),
                    vec![
                        Action::Work(SimDuration::from_millis(*a)),
                        Action::Acquire(rid),
                        Action::Work(SimDuration::from_millis(*b)),
                        Action::Release(rid),
                    ],
                ));
            }
            eng
        };
        let naive_cfg = ExploreConfig { naive: true, ..ExploreConfig::default() };
        let naive = explore_engine(build, &naive_cfg).expect("naive");
        let dpor = explore_engine(build, &ExploreConfig::default()).expect("dpor");
        prop_assume!(!naive.truncated);
        prop_assert!(!dpor.truncated);
        let naive_keys: BTreeSet<_> = naive.outcomes.iter().map(|c| c.outcome.key()).collect();
        let dpor_keys: BTreeSet<_> = dpor.outcomes.iter().map(|c| c.outcome.key()).collect();
        prop_assert_eq!(&dpor_keys, &naive_keys, "naive {:?} vs dpor {:?}", naive, dpor);
        prop_assert!(dpor.schedules_run <= naive.schedules_run);
    }

    /// Forced-schedule replay is byte-deterministic: running either side
    /// of a witness pair twice produces identical reports, and the two
    /// sides really do differ.
    #[test]
    fn witness_replay_is_byte_deterministic(seed in any::<u64>()) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = builtin(3, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let compiled = scenario.compile(&flag, &cfg).expect("compiles");
        let kit = kit(&flag);
        let ex = explore_activity(&compiled, &kit, &cfg, &ExploreConfig::default())
            .expect("explores");
        let w = ex.exploration.witness.as_ref().expect("witness pair");
        let mut completions = Vec::new();
        for script in [&w.baseline, &w.divergent] {
            let mut reports = Vec::new();
            for _ in 0..2 {
                let mut team = flagsim_simcheck::explore::scenario_team(&compiled);
                let (policy, _log) = ForcedSchedule::new(script.clone());
                let outcome = compiled
                    .run_scheduled(&mut team, &kit, &cfg, &FaultPlan::default(), Some(policy))
                    .expect("runs");
                match outcome {
                    ActivityOutcome::Completed(r) => reports.push(r),
                    ActivityOutcome::Stalled(g) => prop_assert!(false, "stalled: {g:?}"),
                }
            }
            prop_assert_eq!(&reports[0], &reports[1], "replay diverged");
            completions.push(flagsim_simcheck::explore::report_fingerprint(&reports[0]));
        }
        // The witness pair's two schedules genuinely differ...
        prop_assert_ne!(completions[0], completions[1]);
        // ...and match the fingerprints exploration recorded for them.
        match (&w.baseline_outcome, &w.divergent_outcome) {
            (
                Outcome::Completed { fingerprint: fa, .. },
                Outcome::Completed { fingerprint: fb, .. },
            ) => {
                prop_assert_eq!(*fa, completions[0]);
                prop_assert_eq!(*fb, completions[1]);
            }
            other => prop_assert!(false, "unexpected witness outcomes: {other:?}"),
        }
    }
}
