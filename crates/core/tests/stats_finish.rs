//! The stats finish against the report finish: `SweepRunner::run_rep_stats`
//! must return, bit for bit, the completion and waiting seconds
//! `SweepRunner::run_rep` reports — or the identical error string — for
//! every kind of repetition a sweep can run. Streaming sweeps, shard
//! workers and the coordinator's local fallback all rely on it.

use flagsim_agents::{Condition, Implement, ImplementKind};
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{ActivityConfig, FaultPlan, RecoveryPolicy, ReleasePolicy, Scenario, TeamKit};
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
