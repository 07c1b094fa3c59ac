//! A local campaign (no endpoints) runs its reps on `core::sweep`'s one
//! in-process rep loop, so it records what an in-process sweep records:
//! one `sweep.rep` span per rep it runs, each linked to the campaign's
//! `coordinate` span. Its own test binary, because the collector is
//! process-global.

use flagsim_shard::{run_sweep, CoordinatorConfig, JobSpec, ShardOutcome};
use flagsim_telemetry::Collector;

#[test]
fn a_local_campaign_records_one_rep_span_per_rep() {
    let job = JobSpec {
        scenario: "4".into(),
        flag: "Mauritius".into(),
        kind: "dauber".into(),
        seed: 29,
        reps: 40,
        team: 4,
        warmup: false,
    };
    for local_jobs in [1, 3] {
        let collector = Collector::install();
        let outcome = run_sweep(
            &job,
            &CoordinatorConfig {
                local_jobs,
                ..CoordinatorConfig::default()
            },
        );
        let set = collector.finish();
        let outcome = outcome.expect("local campaign runs");
        assert!(matches!(outcome, ShardOutcome::Completed(_)), "{outcome:?}");
        let coordinate: Vec<_> = set
            .spans()
            .iter()
            .filter(|s| s.name == "coordinate")
            .map(|s| s.id)
            .collect();
        assert_eq!(coordinate.len(), 1, "local_jobs {local_jobs}");
        let mut reps: Vec<u64> = set
            .spans()
            .iter()
            .filter(|s| s.name == "sweep.rep")
            .map(|s| {
                assert_eq!(s.link, Some(coordinate[0]), "local_jobs {local_jobs}");
                let (_, rep) = s.args.iter().find(|(k, _)| *k == "rep").expect("rep arg");
                rep.parse().expect("numeric rep")
            })
            .collect();
        reps.sort_unstable();
        assert_eq!(
            reps,
            (0..job.reps).collect::<Vec<_>>(),
            "local_jobs {local_jobs}"
        );
    }
}
