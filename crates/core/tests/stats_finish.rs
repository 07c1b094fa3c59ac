//! The stats finish against the report finish: `SweepRunner::run_rep_stats`
//! must return, bit for bit, the completion and waiting seconds
//! `SweepRunner::run_rep` reports — or the identical error string — for
//! every kind of repetition a sweep can run. Streaming sweeps, shard
//! workers and the coordinator's local fallback all rely on it.

use flagsim_agents::{Condition, Implement, ImplementKind, StudentProfile};
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{
    ActivityConfig, ActivityOutcome, FaultPlan, OutcomeFingerprint, RecoveryPolicy, ReleasePolicy,
    Scenario, TeamKit,
};
use flagsim_desim::{EventKind, NoPolicy, ProcId};
use flagsim_flags::library;
use flagsim_grid::Color;
use flagsim_metrics::RunStats;

const REPS: u64 = 3;

/// One row of the table: everything a runner is built from.
struct Case {
    name: String,
    scenario: Scenario,
    kit: TeamKit,
    config: ActivityConfig,
    team: usize,
    warmup: bool,
    plan: FaultPlan,
}

/// Rep `rep` through both finishes of one runner configuration, each as
/// `(completion bits, waiting bits)` or the error string.
type Outcome = Result<(u64, u64), String>;

fn both_finishes(flag: &PreparedFlag, case: &Case, rep: u64) -> (Outcome, Outcome) {
    let runner = |retain| {
        SweepRunner::new(&case.scenario, flag, &case.kit, &case.config)
            .team_size(case.team)
            .warmup(case.warmup)
            .plan(&case.plan)
            .retain_reports(retain)
    };
    let stats = runner(false)
        .run_rep_stats(rep)
        .map(|s| (s.completion_secs.to_bits(), s.wait_secs.to_bits()));
    let report = runner(true)
        .run_rep(rep)
        .map(|r| (r.completion_secs().to_bits(), r.total_wait_secs().to_bits()));
    (stats, report)
}

fn builtins(flag: &PreparedFlag) -> Vec<Scenario> {
    let mut all = Scenario::core_activity();
    all.push(Scenario::pipelined_slices(flag, 4, 4));
    all.push(Scenario::alternating_slices());
    all
}

/// A plan that injects one of every fault kind into a team of `team`.
fn drill(team: usize, policy: RecoveryPolicy) -> FaultPlan {
    FaultPlan::new("every fault kind")
        .break_implement(Color::Blue, 15.0)
        .dry_out(Color::Yellow, 30.0)
        .dropout(team - 1, 25.0)
        .late_arrival(0, 8.0)
        .fumble(Color::Red, 2.0)
        .bell(120.0)
        .with_policy(policy)
}

#[test]
fn stats_finish_matches_the_report_bit_for_bit() {
    let flag = PreparedFlag::new(&library::mauritius());
    let colors = flag.colors_needed(&[]);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
    let mut checked = 0;
    for scenario in builtins(&flag) {
        let team = scenario.team_size(&flag, &ActivityConfig::default());
        let mut plans = vec![
            FaultPlan::none(),
            drill(team, RecoveryPolicy::Rebalance),
            drill(team, RecoveryPolicy::AbortAndReport),
        ];
        plans.extend((0..8).map(|seed| FaultPlan::random(seed, team, &colors)));
        for plan in &plans {
            for policy in [ReleasePolicy::KeepUntilColorChange, ReleasePolicy::ReleaseEachCell] {
                for deadline in [None, Some(40.0)] {
                    for warmup in [false, true] {
                        let mut config = ActivityConfig::default().with_seed(11).with_policy(policy);
                        config.deadline_secs = deadline;
                        let case = Case {
                            name: format!(
                                "{} / {} / {policy:?} / deadline {deadline:?} / warm-up {warmup}",
                                scenario.name, plan.label
                            ),
                            scenario: scenario.clone(),
                            kit: kit.clone(),
                            config,
                            team,
                            warmup,
                            plan: plan.clone(),
                        };
                        for rep in 0..REPS {
                            let (stats, report) = both_finishes(&flag, &case, rep);
                            assert!(report.is_ok(), "{} rep {rep}: {report:?}", case.name);
                            assert_eq!(stats, report, "{} rep {rep}", case.name);
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 6 * 11 * 2 * 2 * 2 * REPS);
}

#[test]
fn stats_finish_fails_with_the_report_error() {
    let flag = PreparedFlag::new(&library::mauritius());
    let colors = flag.colors_needed(&[]);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
    let dead = Implement {
        kind: ImplementKind::ThickMarker,
        condition: Condition::Dead,
    };
    let case = |name: &str, team, kit: TeamKit, plan| Case {
        name: name.to_owned(),
        scenario: Scenario::fig1(4),
        kit,
        config: ActivityConfig::default(),
        team,
        warmup: false,
        plan,
    };
    let cases = [
        case("team too small", 2, kit.clone(), FaultPlan::none()),
        case(
            "dead marker",
            4,
            kit.clone().with_implement(Color::Yellow, dead),
            FaultPlan::none(),
        ),
        case("plan names a fifth student", 4, kit, FaultPlan::new("x").dropout(4, 10.0)),
    ];
    for c in &cases {
        for rep in 0..REPS {
            let (stats, report) = both_finishes(&flag, c, rep);
            assert!(report.is_err(), "{}: the report path must fail", c.name);
            assert_eq!(stats, report, "{} rep {rep}", c.name);
        }
    }
}

#[test]
fn streaming_sweep_equals_retained_under_faults() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let config = ActivityConfig::default().with_seed(23);
    let scenario = Scenario::fig1(4);
    let plan = drill(4, RecoveryPolicy::Rebalance);
    let key = |s: &RunStats| [s.n as u64, s.mean.to_bits(), s.min.to_bits(), s.max.to_bits()];
    for jobs in [1, 4] {
        let sweep = |retain| {
            SweepRunner::new(&scenario, &flag, &kit, &config)
                .team_size(4)
                .reps(40)
                .jobs(jobs)
                .plan(&plan)
                .retain_reports(retain)
                .run()
                .expect("the drill sweep produces statistics")
        };
        let (streamed, retained) = (sweep(false), sweep(true));
        assert!(streamed.reports.is_empty());
        assert_eq!(retained.reports.len(), 40);
        assert_eq!(key(&streamed.completion), key(&retained.completion), "jobs {jobs}");
        assert_eq!(key(&streamed.waiting), key(&retained.waiting), "jobs {jobs}");
    }
}

/// The three finishes of `flagsim_core::run` on one run: a sweep rep's
/// sample, its stats finish and its report agree, and the report's
/// outcome fingerprint is the fingerprint finish's. Without faults or a
/// deadline every finish runs without the live fault state; with a
/// deadline only the report finish keeps it; with faults all three do.
#[test]
fn samples_equal_stats_finish_equal_report_finish() {
    let france = PreparedFlag::new(&library::france());
    let mauritius = PreparedFlag::new(&library::mauritius());
    let scenarios = [
        (Scenario::fig1(1), &france),
        (Scenario::fig1(4), &mauritius),
        (Scenario::alternating_slices(), &mauritius),
    ];
    for (scenario, flag) in &scenarios {
        let colors = flag.colors_needed(&[]);
        let markers = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
        let crayons = TeamKit::uniform(ImplementKind::Crayon, &colors);
        let team = scenario.team_size(flag, &ActivityConfig::default());
        let cases = [
            ("no faults", &markers, None, FaultPlan::none()),
            ("deadline", &markers, Some(60.0), FaultPlan::none()),
            ("bell", &markers, None, FaultPlan::new("bell").bell(60.0)),
            (
                "dropout",
                &markers,
                None,
                FaultPlan::new("dropout")
                    .dropout(team - 1, 20.0)
                    .with_policy(RecoveryPolicy::Rebalance),
            ),
            ("crayons", &crayons, None, FaultPlan::none()),
        ];
        for (name, kit, deadline, plan) in &cases {
            let mut breakages = 0;
            for seed in [3, 7, 11] {
                let what = format!("{} / {name} / seed {seed}", scenario.name);
                let mut config = ActivityConfig::default().with_seed(seed);
                config.deadline_secs = *deadline;
                let runner = SweepRunner::new(scenario, flag, kit, &config)
                    .team_size(team)
                    .plan(plan);
                for rep in 0..REPS {
                    let report = runner.run_rep(rep).expect("rep runs");
                    let stats = runner.run_rep_stats(rep).expect("rep runs");
                    assert_eq!(report.sample(), stats, "{what} rep {rep}");
                }
                // Rep 0 runs at the base seed, with the runner's team.
                let report = runner.run_rep(0).expect("rep runs");
                breakages += report.breakages;
                if deadline.is_some() {
                    assert!(!report.correct, "{what}: the deadline cut the run short");
                }
                // A student's k-th logged cell is the one behind their k-th
                // `WorkStart`, whether or not the run kept the live state.
                for (i, log) in report.cell_log.iter().enumerate() {
                    let starts = report
                        .trace
                        .events_for(ProcId::from_index(i))
                        .filter(|e| matches!(e.kind, EventKind::WorkStart { .. }))
                        .count();
                    assert_eq!(log.len(), starts, "{what}: student {i}'s cell log");
                }
                let compiled = scenario.compile(flag, &config).expect("compiles");
                let fresh_team = (1..=team)
                    .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                    .collect();
                let mut runs = compiled
                    .scheduled_runs(fresh_team, kit, &config, plan, NoPolicy)
                    .expect("samples");
                let expected = OutcomeFingerprint::Completed {
                    fingerprint: report.fingerprint(),
                    completion: report.completion,
                };
                assert_eq!(runs.fingerprint(), Ok(expected), "{what}");
                match runs.run().expect("runs") {
                    ActivityOutcome::Completed(replayed) => {
                        assert_eq!(replayed.fingerprint(), report.fingerprint(), "{what}");
                        assert_eq!(replayed.cell_log, report.cell_log, "{what}");
                    }
                    ActivityOutcome::Stalled(graph) => panic!("{what} stalled: {graph:?}"),
                }
            }
            if *name == "crayons" {
                assert!(breakages > 0, "{} / crayons: nothing broke", scenario.name);
            }
        }
    }
}
