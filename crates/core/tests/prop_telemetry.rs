//! Telemetry properties over real sweeps: the Chrome export must always
//! be well-formed JSON with balanced, name-matched B/E pairs, and the
//! canonical span tree must not depend on the worker count — a sweep at
//! `--jobs 1` and `--jobs 4` records the same logical work. With no
//! collector installed, the instrumentation must cost almost nothing.

use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_flags::library;
use flagsim_telemetry::{json, Collector, SpanSet};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Serialize properties that install the process-global collector: two
/// concurrent installs would steal each other's spans.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run a scenario sweep under a fresh collector and return its spans.
fn sweep_spans(scenario: &Scenario, seed: u64, reps: u64, jobs: usize) -> SpanSet {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(seed);
    let runner = SweepRunner::new(scenario, &flag, &kit, &cfg)
        .team_size(4)
        .reps(reps)
        .jobs(jobs);
    let collector = Collector::install();
    let result = runner.run();
    let set = collector.finish();
    result.expect("sweep succeeds");
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chrome_export_is_wellformed_and_balanced(
        seed in any::<u64>(),
        reps in 1u64..6,
        scenario_n in 1u8..5,
        jobs in 1usize..5,
    ) {
        let _serial = telemetry_lock();
        let set = sweep_spans(&Scenario::fig1(scenario_n), seed, reps, jobs);
        prop_assert!(!set.is_empty(), "a sweep must record spans");
        let trace = set.chrome_trace();
        let events = json::validate_chrome_trace(&trace).expect("valid chrome trace");
        prop_assert!(events > 0, "trace has no events:\n{trace}");
    }

    #[test]
    fn canonical_tree_is_job_count_invariant(
        seed in any::<u64>(),
        reps in 1u64..6,
        scenario_n in 1u8..5,
    ) {
        let _serial = telemetry_lock();
        let scenario = Scenario::fig1(scenario_n);
        let serial = sweep_spans(&scenario, seed, reps, 1);
        let par = sweep_spans(&scenario, seed, reps, 4);
        prop_assert_eq!(serial.canonical_tree(), par.canonical_tree());
    }
}

/// Disabled instrumentation (no collector installed, the normal state)
/// claims at most 5% of a serial scenario-4 sweep. A direct A/B of two
/// sweeps would drown in scheduler noise, so the share is estimated: the
/// measured cost of one disabled span + counter call pair, times the
/// touchpoints a collected run of the same sweep records, over the bare
/// sweep's wall-clock time.
#[test]
fn disabled_telemetry_costs_under_five_percent_of_a_sweep() {
    const REPS: u64 = 4;
    const NOOP_ITERS: u32 = 100_000;
    // Counter/gauge/`enabled()` touchpoints per rep beyond the recorded
    // spans: the end-of-run metric folds in `desim`, `run`, and the sweep
    // bookkeeping.
    const COUNTER_CALLS_PER_REP: f64 = 4.0;
    let _serial = telemetry_lock();
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(0x5EED);
    let scenario = Scenario::fig1(4);
    let sweep = || {
        SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(REPS)
            .run()
            .expect("sweep succeeds");
    };

    let t = Instant::now();
    sweep();
    let sweep_ns = t.elapsed().as_nanos() as f64;
    let collector = Collector::install();
    sweep();
    let spans = collector.finish().len() as f64;
    assert!(spans > 0.0, "a collected sweep must record spans");

    let t = Instant::now();
    for i in 0..NOOP_ITERS {
        let guard = flagsim_telemetry::span("sim", "test.noop");
        flagsim_telemetry::count("test.noop", 1);
        std::hint::black_box((&guard, i));
    }
    let noop_call_ns = t.elapsed().as_nanos() as f64 / f64::from(NOOP_ITERS);

    let touchpoints = spans + COUNTER_CALLS_PER_REP * REPS as f64;
    let share = noop_call_ns * touchpoints / sweep_ns;
    assert!(
        share <= 0.05,
        "disabled telemetry is {:.3}% of the sweep ({noop_call_ns:.1} ns x {touchpoints} calls \
         over {sweep_ns} ns); the gate is 5%",
        share * 100.0
    );
}
