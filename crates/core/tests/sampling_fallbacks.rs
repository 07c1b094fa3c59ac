//! How often the cost sampler falls back to the exact libm chain. The
//! noise kernel settles a sampled duration's millisecond only when it sits
//! more than the settle margin from a rounding boundary, and every other
//! duration is recomputed exactly, so the fallback rate is the price of
//! the kernel's accuracy. It must stay above zero, so that the exact path
//! keeps running under the sweep workloads, and at most 0.5% of cells, so
//! that a later change to the kernel or the margin cannot quietly move
//! cells onto libm. The count comes from the `run.noise_exact_fallbacks`
//! counter every rep reports, read off a local collector.

use flagsim_agents::ImplementKind;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{ActivityConfig, Scenario, TeamKit};
use flagsim_flags::{library, FlagSpec};
use flagsim_telemetry::Collector;
use std::sync::{Mutex, MutexGuard};

const SEED: u64 = 2025;
const REPS: u64 = 10_000;

/// Serialize the tests here: each reads the process-global counter,
/// which a rep on another test thread would bump.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run [`REPS`] stats reps of `scenario` on `flag` with a team of `team`,
/// one thick marker per color, and check the exact fallbacks they count
/// against the cells they sample.
fn check_fallback_rate(scenario: &Scenario, flag: &FlagSpec, team: usize) {
    let _serial = serial();
    let flag = PreparedFlag::new(flag);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let config = ActivityConfig::default().with_seed(SEED);
    let runner = SweepRunner::new(scenario, &flag, &kit, &config).team_size(team);
    let collector = Collector::install();
    let metrics = collector.metrics();
    for rep in 0..REPS {
        runner.run_rep_stats(rep).expect("the rep runs");
    }
    collector.finish();
    let fallbacks = metrics.counter("run.noise_exact_fallbacks").get();
    let cells = REPS * flag.total_items(&[]) as u64;
    let rate = fallbacks as f64 / cells as f64;
    eprintln!(
        "{}: {fallbacks} exact fallbacks over {cells} cells ({rate:.2e} per cell)",
        scenario.name
    );
    assert!(fallbacks > 0, "the exact path never ran");
    assert!(
        fallbacks * 200 <= cells,
        "{fallbacks} fallbacks over {cells} cells is above 0.5%"
    );
}

#[test]
fn scenario_4_on_mauritius_falls_back_rarely() {
    check_fallback_rate(&Scenario::fig1(4), &library::mauritius(), 4);
}

#[test]
fn scenario_1_on_france_falls_back_rarely() {
    check_fallback_rate(&Scenario::fig1(1), &library::france(), 1);
}
