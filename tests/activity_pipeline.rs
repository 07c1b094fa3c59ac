//! Cross-crate pipeline test: sweep → replay → discussion → exports, the
//! way a downstream tool would consume the library.

use flagsim::core::discussion;
use flagsim::core::replay::Replay;
use flagsim::core::sweep::{SweepResult, SweepRunner};
use flagsim::desim::SimTime;
use flagsim::prelude::*;

/// A retained sweep of `reps` fresh teams of `team` students without
/// warm-up, as a measurement: every repetition must succeed.
fn sweep(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    team: usize,
    reps: u64,
) -> SweepResult {
    let result = SweepRunner::new(scenario, flag, kit, cfg)
        .team_size(team)
        .reps(reps)
        .run()
        .expect("sweep produces statistics");
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    result
}

#[test]
fn sweep_replay_discussion_round_trip() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(77);

    // Sweep the four scenarios.
    let mut means = Vec::new();
    let mut last_runs = Vec::new();
    for n in 1..=4u8 {
        let sc = Scenario::fig1(n);
        let size = sc.team_size(&flag, &cfg);
        let result = sweep(&sc, &flag, &kit, &cfg, size, 8);
        means.push(result.mean_secs());
        last_runs.push(result.reports.into_iter().next_back().unwrap());
    }
    assert!(means[0] > means[1] && means[1] > means[2] && means[3] > means[2]);

    // Replay scenario 4 and check the halfway frame is genuinely partial.
    let replay = Replay::new(&last_runs[3]);
    let halfway = replay.grid_at(SimTime(replay.end_ms() / 2));
    assert!(halfway.blank_cells() > 0);
    assert!(halfway.blank_cells() < 96);
    let done = replay.grid_at(SimTime(replay.end_ms()));
    assert!(flagsim::grid::diff(&done, &flag.reference).is_identical());

    // The discussion detector finds the headline lessons in the sequence.
    let lessons = discussion::detect_lessons(&last_runs);
    let concepts: Vec<_> = lessons.iter().map(|l| l.concept).collect();
    assert!(concepts.contains(&discussion::Concept::Speedup));
    assert!(concepts.contains(&discussion::Concept::Contention));

    // Exports are well-formed.
    let bundle = last_runs[3].to_csv_bundle();
    assert_eq!(bundle.len(), 3);
    for (_, content) in &bundle {
        assert!(content.lines().count() > 1, "non-empty CSV body");
    }
    let svg = last_runs[3].trace.svg_gantt(640);
    assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
}

#[test]
fn deadline_sweep_reports_partial_progress() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(5).with_deadline_secs(50.0);
    let result = sweep(&Scenario::fig1(1), &flag, &kit, &cfg, 1, 4);
    for r in &result.reports {
        assert!(!r.correct);
        assert!((r.completion_secs() - 50.0).abs() < 1e-9);
        assert!(r.students[0].completed < r.students[0].cells);
    }
}

#[test]
fn stocked_kit_sweep_is_contention_free_on_slices() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
        .with_count_all(4);
    let cfg = ActivityConfig::default();
    let result = sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, 8);
    assert_eq!(result.waiting.max, 0.0);
}
