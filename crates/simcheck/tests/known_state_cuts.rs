//! Known-state cuts are exact: `explore_activity`, which ends a schedule
//! at an explored choice state and takes that state's outcome, gives the
//! `Exploration` that running every schedule in full gives, field for
//! field. The workloads include same-instant ties where a fresh decision
//! and a known state meet, so a cut that ended the run at the known
//! decision, rather than when its instant closes, would lose cascades the
//! sleep-set check reads. The cut also has to fire: on scenario 4 it
//! saves engine events, counted by the engine's own telemetry counter.

use flagsim_agents::ImplementKind;
use flagsim_core::scenario::CompiledScenario;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{
    ActivityConfig, FaultPlan, OutcomeFingerprint, ReleasePolicy, Scenario, TeamKit,
};
use flagsim_desim::ForcedSchedule;
use flagsim_flags::library;
use flagsim_simcheck::explore::{graph_fingerprint, scenario_team};
use flagsim_simcheck::{explore, explore_activity, Exploration, ExploreConfig, Outcome};
use flagsim_telemetry::Collector;
use std::sync::{Mutex, MutexGuard};

/// Serialize the tests here: the cut test reads process-global telemetry
/// counters, which any engine run on another test thread would bump.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The exploration of `compiled` with every schedule run in full:
/// `explore` over the fingerprint finish under a forced schedule that
/// knows no states, so it never ends a run early.
fn full_runs(
    compiled: &CompiledScenario,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    explore_cfg: &ExploreConfig,
) -> Exploration {
    let plan = FaultPlan::default();
    let (policy, log) = ForcedSchedule::new(Vec::new());
    let mut runs = compiled
        .scheduled_runs(scenario_team(compiled), kit, cfg, &plan, *policy)
        .expect("samples");
    explore(
        |script| {
            runs.policy_mut().restart(script);
            let outcome = match runs.fingerprint()? {
                OutcomeFingerprint::Completed {
                    fingerprint,
                    completion,
                } => Outcome::Completed {
                    fingerprint,
                    makespan_ms: completion.millis(),
                },
                OutcomeFingerprint::Stalled(graph) => Outcome::Stalled {
                    fingerprint: graph_fingerprint(&graph),
                    graph,
                },
                OutcomeFingerprint::Known => return Err("a full run ended early".to_owned()),
            };
            Ok((outcome, log.take()))
        },
        explore_cfg,
    )
    .expect("explores")
}

fn mauritius() -> PreparedFlag {
    PreparedFlag::new(&library::mauritius())
}

fn one_marker_each(flag: &PreparedFlag) -> TeamKit {
    TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
}

/// The six scenarios `flagsim` ships (1–4, pipelined, alternating).
fn builtins(flag: &PreparedFlag) -> Vec<Scenario> {
    vec![
        Scenario::fig1(1),
        Scenario::fig1(2),
        Scenario::fig1(3),
        Scenario::fig1(4),
        Scenario::pipelined_slices(flag, 4, 4),
        Scenario::alternating_slices(),
    ]
}

/// Assert that `explore_activity` and full runs agree on every field.
fn assert_exact(
    what: &str,
    compiled: &CompiledScenario,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    explore_cfg: &ExploreConfig,
) {
    let cut = explore_activity(compiled, kit, cfg, explore_cfg)
        .expect("explores")
        .exploration;
    let full = full_runs(compiled, kit, cfg, explore_cfg);
    assert_eq!(cut, full, "{what}");
}

#[test]
fn builtin_verdicts_equal_full_runs() {
    let _serial = serial();
    let flag = mauritius();
    let kit = one_marker_each(&flag);
    for scenario in builtins(&flag) {
        for seed in [3, 7, 11, 99, 2025, 0xdead_beef] {
            let cfg = ActivityConfig::default().with_seed(seed);
            let compiled = scenario.compile(&flag, &cfg).expect("compiles");
            let what = format!("{} seed {seed}", scenario.name);
            assert_exact(&what, &compiled, &kit, &cfg, &ExploreConfig::default());
        }
    }
}

/// A bound that truncates the exploration truncates it the same way.
#[test]
fn truncated_verdicts_equal_full_runs() {
    let _serial = serial();
    let flag = mauritius();
    let kit = one_marker_each(&flag);
    let cfg = ActivityConfig::default().with_seed(2025);
    for scenario in [Scenario::fig1(4), Scenario::alternating_slices()] {
        let compiled = scenario.compile(&flag, &cfg).expect("compiles");
        for max_schedules in [1, 5, 17, 43] {
            let bound = ExploreConfig {
                max_schedules,
                ..ExploreConfig::default()
            };
            let what = format!("{} bound {max_schedules}", scenario.name);
            assert_exact(&what, &compiled, &kit, &cfg, &bound);
        }
    }
}

/// Workloads where a fresh tie and a known state may share an instant:
/// a cell at a time (every release a hand-off), spare markers (pools of
/// two let independent cascades interleave), and vertical slices of
/// other flags. France in five slices is one where they do: cutting at
/// the known decision instead of the instant's close runs 20 schedules
/// there, where full runs run 12.
#[test]
fn same_instant_workloads_equal_full_runs() {
    let _serial = serial();
    let mauritius = mauritius();
    let mut cases = Vec::new();
    for scenario in [Scenario::fig1(4), Scenario::alternating_slices()] {
        for seed in [3, 7, 2025] {
            let each_cell = ActivityConfig::default()
                .with_seed(seed)
                .with_policy(ReleasePolicy::ReleaseEachCell);
            cases.push((
                scenario.clone(),
                mauritius.clone(),
                one_marker_each(&mauritius),
                each_cell,
            ));
            let spares = one_marker_each(&mauritius).with_count_all(2);
            let cfg = ActivityConfig::default().with_seed(seed);
            cases.push((scenario.clone(), mauritius.clone(), spares, cfg));
        }
    }
    for spec in [library::france(), library::germany(), library::japan()] {
        let flag = PreparedFlag::new(&spec);
        for n in [2, 3, 5] {
            for seed in [7, 2025] {
                let cfg = ActivityConfig::default().with_seed(seed);
                cases.push((
                    Scenario::webster(n),
                    flag.clone(),
                    one_marker_each(&flag),
                    cfg,
                ));
            }
        }
    }
    for (scenario, flag, kit, cfg) in &cases {
        let compiled = scenario.compile(flag, cfg).expect("compiles");
        let what = format!("{} {cfg:?} {kit:?}", scenario.name);
        assert_exact(&what, &compiled, kit, cfg, &ExploreConfig::default());
    }
}

/// Naive mode explores no states, so nothing is cut.
#[test]
fn naive_verdicts_equal_full_runs() {
    let _serial = serial();
    let flag = mauritius();
    let kit = one_marker_each(&flag);
    let cfg = ActivityConfig::default().with_seed(2025);
    let naive = ExploreConfig {
        naive: true,
        max_schedules: 300,
    };
    let compiled = Scenario::fig1(4).compile(&flag, &cfg).expect("compiles");
    assert_exact("scenario 4 naive", &compiled, &kit, &cfg, &naive);
}

/// Engine events and known-state cuts of `f`, read off a fresh collector.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let collector = Collector::install();
    let metrics = collector.metrics();
    let out = f();
    collector.finish();
    let events = metrics.counter("desim.events_processed").get();
    (out, events, metrics.counter("simcheck.explore.cuts").get())
}

/// On scenario 4 at seed 2025 the cut fires, and the verdict simulates
/// fewer engine events than full runs of the same schedules.
#[test]
fn scenario_4_cuts_save_engine_events() {
    let _serial = serial();
    let flag = mauritius();
    let kit = one_marker_each(&flag);
    let cfg = ActivityConfig::default().with_seed(2025);
    let compiled = Scenario::fig1(4).compile(&flag, &cfg).expect("compiles");
    let explore_cfg = ExploreConfig::default();
    let (cut, cut_events, cuts) = counted(|| {
        explore_activity(&compiled, &kit, &cfg, &explore_cfg)
            .expect("explores")
            .exploration
    });
    let (full, full_events, _) = counted(|| full_runs(&compiled, &kit, &cfg, &explore_cfg));
    assert_eq!(cut, full);
    assert!(cuts >= 1, "no schedule was cut");
    assert!(
        cut_events < full_events,
        "{cut_events} events with cuts, {full_events} in full"
    );
}
