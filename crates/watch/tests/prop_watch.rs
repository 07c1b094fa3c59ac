//! Property tests over the watch replay UI: for any scenario shape,
//! implement kind, and seed, scrubbing forward must never un-fill the
//! grid, scrubbing to the end must reproduce the recorded run's final
//! grid byte-for-byte, and a scripted session must dump byte-identical
//! frames no matter how many times it runs — the determinism contract
//! `flagsim watch --script` advertises.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::partition::{CellOrder, PartitionStrategy};
use flagsim_core::work::PreparedFlag;
use flagsim_core::RunReport;
use flagsim_desim::SimTime;
use flagsim_grid::render::to_ascii;
use flagsim_watch::app::{render, run_script, App, ReplayData, TICKS_PER_RUN};
use flagsim_watch::input::{script_keys, Key};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ImplementKind> {
    prop_oneof![
        Just(ImplementKind::BingoDauber),
        Just(ImplementKind::ThickMarker),
        Just(ImplementKind::ThinMarker),
        Just(ImplementKind::Crayon),
    ]
}

/// Run Mauritius split into `parts` vertical slices and wrap the
/// report for the watch app.
fn recorded(parts: u32, kind: ImplementKind, seed: u64) -> (RunReport, ReplayData) {
    let pf = PreparedFlag::new(&flagsim_flags::library::mauritius());
    let assignments =
        PartitionStrategy::VerticalSlices(parts).assignments(&pf, CellOrder::RowMajor, &[]);
    let mut team: Vec<StudentProfile> = (1..=assignments.len())
        .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
        .collect();
    let kit = TeamKit::uniform(kind, &pf.colors_needed(&[]));
    let report = flagsim_core::run_activity(
        "watch prop",
        &pf,
        &assignments,
        &mut team,
        &kit,
        &ActivityConfig::default().with_seed(seed),
    )
    .expect("mauritius scenario runs");
    let data = ReplayData::from_report("prop", &report);
    (report, data)
}

/// Pull the `{done}/{total} cells` counter out of a rendered frame.
fn cells_done(frame: &str) -> (usize, usize) {
    let line = frame
        .lines()
        .find(|l| l.ends_with("cells"))
        .unwrap_or_else(|| panic!("no cells counter in frame:\n{frame}"));
    let counter = line
        .rsplit("  ")
        .next()
        .and_then(|f| f.strip_suffix(" cells"))
        .unwrap_or_else(|| panic!("malformed status line: {line}"));
    let (done, total) = counter.split_once('/').expect("done/total");
    (done.parse().expect("done"), total.parse().expect("total"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scrubbing forward never un-fills the grid: the cells counter in
    /// the rendered frames is nondecreasing, starts at zero, and reaches
    /// every cell once the scrub clock hits the end of the run.
    #[test]
    fn replay_frames_are_monotone(
        parts in 2u32..=6,
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let (_, data) = recorded(parts, kind, seed);
        let mut app = App::new(data.end_ms());
        let (mut prev, total) = cells_done(&render(&data, &app, 100).render());
        prop_assert_eq!(prev, 0, "scrub starts with a blank grid");
        // One base step more than a full run's worth, to prove the
        // clamp at the end is also monotone.
        for _ in 0..=TICKS_PER_RUN {
            app.handle_key(Key::StepFwd);
            let (done, t) = cells_done(&render(&data, &app, 100).render());
            prop_assert_eq!(t, total, "cell total never changes");
            prop_assert!(done >= prev, "cells went backwards: {} -> {}", prev, done);
            prev = done;
        }
        prop_assert_eq!(prev, total, "the end of the scrub shows every cell");
    }

    /// Scrubbing to `end_ms` reproduces the recorded final grid
    /// byte-for-byte: the replay's last ASCII frame equals the report
    /// grid's renderer output, and every row of it appears verbatim in
    /// the watch frame after a `G` (jump-to-end) key.
    #[test]
    fn scrub_to_end_matches_the_recorded_grid(
        parts in 2u32..=6,
        kind in kind_strategy(),
        seed in any::<u64>(),
    ) {
        let (report, data) = recorded(parts, kind, seed);
        let replay = data.replay.as_ref().expect("report-backed data has a replay");
        prop_assert!(!replay.cut_off(), "no bell in the default config");
        let scrubbed = replay.ascii_at(SimTime(data.end_ms()));
        prop_assert_eq!(&scrubbed, &to_ascii(&report.grid));
        let frames = run_script(&data, &script_keys("G q").expect("script"), 100);
        let last = frames.last().expect("G produced a frame");
        for row in scrubbed.lines() {
            prop_assert!(last.contains(row), "final frame missing grid row {:?}", row);
        }
    }

    /// Any `--script` key sequence dumps byte-identical frames across
    /// runs, at any width — the UI reads no clock and no randomness.
    #[test]
    fn scripted_dumps_are_byte_identical(
        parts in 2u32..=6,
        kind in kind_strategy(),
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..14, 0..40),
        width in 30usize..140,
    ) {
        const ALPHABET: &[u8; 14] = b"qplhLHgG+=t -=";
        let script: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
        let (_, data) = recorded(parts, kind, seed);
        let keys = script_keys(&script).expect("alphabet is valid");
        let a = run_script(&data, &keys, width);
        let b = run_script(&data, &keys, width);
        prop_assert_eq!(&a, &b, "scripted frames differ across runs");
        // Frame accounting: one initial frame, one per key, stopping at
        // the first quit.
        let acted = keys.iter().position(|k| *k == Key::Quit).unwrap_or(keys.len());
        prop_assert_eq!(a.len(), 1 + acted);
        for frame in &a {
            prop_assert!(!frame.contains('\x1b'), "escape code leaked into a frame");
        }
    }
}
