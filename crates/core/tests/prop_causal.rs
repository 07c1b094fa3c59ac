//! Property tests over the causal-analysis layer: for any scenario,
//! seed, implement kind, and team size, the executed critical path must
//! tile the makespan with causally connected steps, the blame table must
//! account for every waited millisecond, the what-if bounds must respect
//! the task-graph span, and `explain`'s JSON must not depend on the job
//! count used to produce it.

use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::explain::{explain_report, explain_scenario};
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_desim::{analyze, CriticalKind, SimDuration, SimTime};
use flagsim_flags::library;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ImplementKind> {
    prop_oneof![
        Just(ImplementKind::BingoDauber),
        Just(ImplementKind::ThickMarker),
        Just(ImplementKind::ThinMarker),
        Just(ImplementKind::Crayon),
    ]
}

/// One of the built-in scenario shapes, by index.
fn scenario_for(idx: usize, flag: &PreparedFlag) -> Scenario {
    match idx {
        0 => Scenario::fig1(1),
        1 => Scenario::fig1(2),
        2 => Scenario::fig1(3),
        3 => Scenario::fig1(4),
        4 => Scenario::pipelined_slices(flag, 4, 4),
        _ => Scenario::alternating_slices(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executed critical path tiles `[0, makespan]`: the step
    /// durations sum to the makespan, the first step starts at zero, the
    /// last ends at the makespan, and each step begins where the
    /// previous one ended (causal connectivity).
    #[test]
    fn critical_path_tiles_the_makespan(
        scenario_idx in 0usize..6,
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = scenario_for(scenario_idx, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
        let team = scenario.team_size(&flag, &cfg);
        let e = explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs");
        let trace = &e.report.trace;
        let path = &e.analysis.critical_path;
        prop_assert!(!path.is_empty());
        let first = &path[0];
        let last = &path[path.len() - 1];
        prop_assert_eq!(first.start, SimTime::ZERO);
        prop_assert_eq!(last.end, trace.end_time);
        let mut sum = SimDuration::ZERO;
        for (i, seg) in path.iter().enumerate() {
            prop_assert!(seg.start <= seg.end, "step {i} runs backward");
            if i > 0 {
                prop_assert_eq!(
                    path[i - 1].end, seg.start,
                    "step {} does not start where step {} ended", i, i - 1
                );
            }
            sum += seg.end.since(seg.start);
        }
        prop_assert_eq!(sum, trace.makespan(), "path must sum to the makespan");
    }

    /// The blame table accounts for exactly the engine's total waiting
    /// time, holder rows within a resource are sorted by descending
    /// cost, and every contention step on the critical path names a
    /// resource that the blame table also knows about.
    #[test]
    fn blame_accounts_for_all_waiting(
        scenario_idx in 0usize..6,
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = scenario_for(scenario_idx, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
        let team = scenario.team_size(&flag, &cfg);
        let e = explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs");
        let analysis = &e.analysis;
        prop_assert_eq!(
            analysis.blame_total(),
            e.report.trace.total_waiting(),
            "blame must equal the engine's waiting accounting"
        );
        for rb in &analysis.blame {
            let holder_sum: u64 = rb.holders.iter().map(|h| h.wait.millis()).sum();
            prop_assert_eq!(holder_sum, rb.total.millis());
            for pair in rb.holders.windows(2) {
                prop_assert!(pair[0].wait >= pair[1].wait, "holders sorted by cost");
            }
        }
        let blamed: Vec<_> = analysis.blame.iter().map(|b| b.resource).collect();
        for seg in &analysis.critical_path {
            if let CriticalKind::Contention(r) = seg.kind {
                prop_assert!(
                    blamed.contains(&r),
                    "critical contention on a resource the blame table missed"
                );
            }
        }
    }

    /// Re-analyzing the same trace is a pure function: `analyze` twice
    /// gives identical structures, and the what-if sandwich
    /// `span <= no_contention <= observed` holds with an exact cost
    /// decomposition.
    #[test]
    fn analysis_is_pure_and_bounds_hold(
        scenario_idx in 0usize..6,
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = scenario_for(scenario_idx, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
        let team = scenario.team_size(&flag, &cfg);
        let e = explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs");
        let again = analyze(&e.report.trace);
        prop_assert_eq!(&again.critical_path, &e.analysis.critical_path);
        prop_assert_eq!(&again.blame, &e.analysis.blame);
        prop_assert_eq!(&again.whatif, &e.analysis.whatif);
        let w = &e.analysis.whatif;
        prop_assert!(e.bounds_hold(), "span {} <= {} <= {} violated",
            e.graph_span, w.no_contention, w.observed);
        prop_assert!(w.ideal_balance <= w.no_contention);
        prop_assert_eq!(
            w.observed.millis(),
            w.no_contention.millis() + w.contention_cost.millis()
        );
        prop_assert_eq!(
            w.no_contention.millis(),
            w.ideal_balance.millis() + w.imbalance_cost.millis()
        );
    }

    /// `explain` JSON is byte-identical to the explanation of rep 0 of a
    /// sweep on any number of jobs.
    #[test]
    fn explain_json_is_job_count_invariant(
        scenario_idx in 0usize..6,
        seed in any::<u64>(),
        jobs in 2usize..5,
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = scenario_for(scenario_idx, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let team = scenario.team_size(&flag, &cfg);
        let serial = explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs");
        let rep0 = |warmup| {
            let runner = SweepRunner::new(&scenario, &flag, &kit, &cfg)
                .team_size(team)
                .warmup(warmup)
                .reps(jobs as u64)
                .jobs(jobs);
            runner.run().expect("scenario runs").reports.swap_remove(0)
        };
        let parallel = explain_report(rep0(true), rep0(false).completion, cfg.seed);
        prop_assert_eq!(serial.to_json(), parallel.to_json());
    }
}

/// The ISSUE's acceptance gate, spelled out scenario by scenario: on
/// every built-in scenario the infinite-implement what-if bound sits
/// between the task-graph span and the observed makespan.
#[test]
fn whatif_bounds_hold_on_every_builtin_scenario() {
    let flag = PreparedFlag::new(&library::mauritius());
    let cfg = ActivityConfig::default().with_seed(7);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    for idx in 0..6 {
        let scenario = scenario_for(idx, &flag);
        let team = scenario.team_size(&flag, &cfg);
        let e = explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs");
        let w = &e.analysis.whatif;
        assert!(
            e.graph_span <= w.no_contention && w.no_contention <= w.observed,
            "{}: span {} <= no_contention {} <= observed {} violated",
            scenario.name,
            e.graph_span,
            w.no_contention,
            w.observed
        );
    }
}
