//! One function per paper artifact. Each returns an [`Experiment`] with
//! measured numbers and the paper's qualitative expectation, so the
//! harness output reads as a paper-vs-measured ledger.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_assessment::report as arep;
use flagsim_assessment::survey::Construct;
use flagsim_core::config::ActivityConfig;
use flagsim_core::layered;
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{RunReport, TeamKit};
use flagsim_flags::library;
use flagsim_grid::Color;
use flagsim_metrics::{load_imbalance, speedup};
use flagsim_threads::{CellWorkload, ExecMode, ParallelColorer};
use std::fmt::Write as _;

/// A regenerated experiment: id, what the paper reports, what we measured.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id from DESIGN.md ("E1" …).
    pub id: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// The paper's qualitative claim.
    pub expectation: &'static str,
    /// The measured report (printable).
    pub report: String,
    /// Whether the measured shape matches the expectation.
    pub holds: bool,
}

const SEED: u64 = 0x0F1A_65ED;
/// Repetitions for simulation experiments (different seeds, averaged).
const REPS: u64 = 32;

fn fresh_team(n: usize, warmup: bool) -> Vec<StudentProfile> {
    (1..=n)
        .map(|i| {
            let s = StudentProfile::new(format!("P{i}"));
            if warmup {
                s
            } else {
                s.without_warmup()
            }
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Run a scenario `REPS` times with fresh teams and return the mean
/// completion seconds (plus the last report for structure inspection).
/// Panics if any run fails or paints a wrong flag: an experiment is a
/// measurement, not a fault drill.
fn mean_completion(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    team_size: usize,
    warmup: bool,
    cfg: &ActivityConfig,
) -> (f64, RunReport) {
    let result = SweepRunner::new(scenario, flag, kit, cfg)
        .team_size(team_size)
        .warmup(warmup)
        .reps(REPS)
        .run()
        .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    assert!(
        result.failures.is_empty(),
        "sweep runs failed: {:?}",
        result.failures
    );
    assert!(
        result
            .reports
            .iter()
            .all(|r| r.correct || cfg.deadline_secs.is_some()),
        "sweep produced a wrong flag"
    );
    let last = result.reports.last().cloned().expect("reps > 0");
    (result.mean_secs(), last)
}

/// E1 — Fig. 1 + §III-C: the four scenarios' completion times and
/// speedups. Times fall through scenario 3; scenario 4 pays contention.
pub fn e1_scenarios() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let cfg = ActivityConfig::default().with_seed(SEED);
    let mut report = String::new();
    let mut results = Vec::new();
    for n in 1..=4u8 {
        let sc = Scenario::fig1(n);
        let size = sc.team_size(&flag, &cfg);
        let (secs, last) = mean_completion(&sc, &flag, &kit, size, false, &cfg);
        results.push((sc.name.clone(), secs, last));
    }
    let t1 = results[0].1;
    let _ = writeln!(
        report,
        "{:<38}{:>8}{:>9}{:>12}{:>12}",
        "scenario", "procs", "mean s", "speedup", "wait s"
    );
    for (name, secs, last) in &results {
        let _ = writeln!(
            report,
            "{:<38}{:>8}{:>9.1}{:>11.2}x{:>12.1}",
            name,
            last.students.len(),
            secs,
            speedup(t1, *secs),
            last.total_wait_secs(),
        );
    }
    let holds = results[1].1 < results[0].1 // 2 < 1
        && results[2].1 < results[1].1 // 3 < 2
        && results[3].1 > results[2].1 // 4 > 3 (contention)
        && results[3].2.total_wait_secs() > 1.0;
    Experiment {
        id: "E1",
        artifact: "Fig. 1 scenarios (+ §III-C speedup discussion)",
        expectation: "times decrease as processors are added for scenarios 1-3; \
                      scenario 4 is slower than 3 because of marker contention",
        report,
        holds,
    }
}

/// E2 — §III-C warm-up: a repeat of scenario 1 is significantly faster.
pub fn e2_warmup() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let sc = Scenario::fig1(1);
    let mut firsts = Vec::new();
    let mut seconds = Vec::new();
    for rep in 0..REPS {
        let mut team = fresh_team(1, true); // warm-up active
        let cfg = ActivityConfig::default().with_seed(SEED.wrapping_add(rep));
        let r1 = sc.run(&flag, &mut team, &kit, &cfg).unwrap();
        let r2 = sc.run(&flag, &mut team, &kit, &cfg).unwrap();
        firsts.push(r1.completion_secs());
        seconds.push(r2.completion_secs());
    }
    let (f, s) = (mean(&firsts), mean(&seconds));
    let report = format!(
        "first run of scenario 1: {f:.1}s\nrepeat of scenario 1:    {s:.1}s\n\
         improvement: {:.0}% (the paper's system-warmup analogy: caching, \
         power-saving exit, JIT)\n",
        100.0 * (f - s) / f
    );
    Experiment {
        id: "E2",
        artifact: "§III-C repeated scenario 1",
        expectation: "the second run's completion times are significantly better",
        report,
        holds: s < f * 0.9,
    }
}

/// E3 — §IV implements: dauber < thick marker < thin marker < crayon.
pub fn e3_implements() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let sc = Scenario::fig1(1);
    let cfg = ActivityConfig::default().with_seed(SEED);
    let mut report = String::new();
    let mut times = Vec::new();
    for kind in ImplementKind::ALL {
        let kit = TeamKit::uniform(kind, &Color::MAURITIUS);
        let (secs, _) = mean_completion(&sc, &flag, &kit, 1, false, &cfg);
        let _ = writeln!(report, "{:<14} {secs:>7.1}s", kind.to_string());
        times.push(secs);
    }
    Experiment {
        id: "E3",
        artifact: "§IV implement heterogeneity",
        expectation: "daubers fastest, then thick markers, then thin markers; \
                      crayons worst (got complaints)",
        report,
        holds: times.windows(2).all(|w| w[0] < w[1]),
    }
}

/// E4 — §III-D Webster: France vs Canada, 1 vs 3 students; the simpler
/// flag gets the better speedup (load balancing).
pub fn e4_webster() -> Experiment {
    let cfg = ActivityConfig::default().with_seed(SEED);
    let mut report = String::new();
    let mut speedups = Vec::new();
    for spec in [library::france(), library::canada()] {
        let flag = PreparedFlag::new(&spec);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let (t1, _) = mean_completion(&Scenario::webster(1), &flag, &kit, 1, false, &cfg);
        let (t3, last3) = mean_completion(&Scenario::webster(3), &flag, &kit, 3, false, &cfg);
        let s = speedup(t1, t3);
        let li = load_imbalance(&last3.busy_secs_per_student());
        let _ = writeln!(
            report,
            "{:<8} 1 student {t1:>7.1}s | 3 students {t3:>7.1}s | speedup {s:.2}x | \
             load imbalance {li:.2} | waiting {:.1}s | boundary cells {}",
            spec.name,
            last3.total_wait_secs(),
            flag.boundary_cells(&[]),
        );
        speedups.push(s);
    }
    let _ = writeln!(
        report,
        "(the maple leaf mixes red into every slice's white and adds fiddly \
         boundary cells, so Canada's three students fight over the markers \
         while France's tricolor splits cleanly — efficiency lags exactly as \
         the paper observed)"
    );
    Experiment {
        id: "E4",
        artifact: "§III-D Webster variation (Fig. 2)",
        expectation: "the simpler French flag sees greater efficiency gains than \
                      the Canadian flag with its intricate maple leaf",
        report,
        holds: speedups[0] > speedups[1],
    }
}

/// E5 — §III-D Knox + Fig. 3: layered flags limit parallelism via
/// dependencies.
pub fn e5_dependencies() -> Experiment {
    let ps = [1usize, 2, 4, 8];
    let mut report = String::new();
    let mut rows = Vec::new();
    for spec in [library::mauritius(), library::jordan(), library::great_britain()] {
        let curve = layered::layered_speedup_curve(&spec, &ps, 2000);
        let par = layered::layered_parallelism(&spec, 2000);
        let speeds: Vec<String> = curve.iter().map(|p| format!("{:.2}x", p.speedup)).collect();
        let _ = writeln!(
            report,
            "{:<15} parallelism {par:>5.2} | speedup at p=1,2,4,8: {}",
            spec.name,
            speeds.join(", ")
        );
        rows.push(curve);
    }
    let g = layered::flag_taskgraph(&library::great_britain(), 2000);
    let _ = writeln!(
        report,
        "Great Britain layer chain: {} tasks, {} edges (blue field → white \
         diagonals → red cross)",
        g.len(),
        g.edge_count()
    );
    // Mauritius scales to 4; GB is stuck at 1; Jordan in between.
    let holds = (rows[0][2].speedup - 4.0).abs() < 1e-9
        && (rows[2][2].speedup - 1.0).abs() < 1e-9
        && rows[1][2].speedup > 1.0
        && rows[1][2].speedup < 4.0;
    Experiment {
        id: "E5",
        artifact: "§III-D Knox follow-up (Fig. 3, layered coloring)",
        expectation: "layering limits parallelism: the Union Jack's three-layer \
                      chain gets no speedup; flat Mauritius scales to 4",
        report,
        holds,
    }
}

/// E6/E7/E8 — Tables I, II, III: engagement / understanding / instructor
/// medians per institution.
pub fn e678_tables() -> Vec<Experiment> {
    let configs = [
        ("E6", "Table I", Construct::Engagement, "engagement medians"),
        ("E7", "Table II", Construct::Understanding, "understanding medians"),
        ("E8", "Table III", Construct::Instructor, "instructor medians"),
    ];
    configs
        .iter()
        .map(|&(id, artifact, construct, what)| {
            let rows = arep::regenerate_table(construct, SEED);
            let holds = arep::table_matches(&rows);
            Experiment {
                id,
                artifact,
                expectation: match id {
                    "E6" => "USI and Webster highest (mostly 5.0); Knox ~4.0 throughout",
                    "E7" => "Webster/USI highest; HPU and TNTech report 3.0 for loops",
                    _ => "instructor ratings 5.0 everywhere except Knox (4.0); Webster NAs",
                },
                report: arep::render_table(&format!("{artifact}: {what} (measured, ! = mismatch)"), &rows),
                holds,
            }
        })
        .collect()
}

/// E9 — Fig. 7/8: pre/post quiz transitions per concept per institution.
pub fn e9_quiz() -> Experiment {
    use flagsim_assessment::quiz::{fig8_target, generate_quiz_cohort, measure_transitions};
    use flagsim_assessment::{Concept, Institution};
    let report = arep::fig8_report(SEED);
    // Holds iff every regenerated matrix equals its target.
    let mut holds = true;
    for inst in [Institution::USI, Institution::TNTech, Institution::HPU] {
        let records = generate_quiz_cohort(inst, SEED);
        for concept in Concept::ALL {
            let m = measure_transitions(&records, concept);
            holds &= m == fig8_target(inst, concept).unwrap().matrix;
        }
    }
    Experiment {
        id: "E9",
        artifact: "Fig. 8 pre/post quiz transitions",
        expectation: "scalability & speedup show strong retention; contention & \
                      pipelining show low baselines and high incorrect retention",
        report,
        holds,
    }
}

/// E10 — Fig. 9 + §V-C: Jordan dependency-graph grading distribution.
pub fn e10_jordan() -> Experiment {
    use flagsim_assessment::jordan;
    let results = jordan::grade_batch(&jordan::generate_submissions(SEED));
    let report = arep::jordan_report(SEED);
    Experiment {
        id: "E10",
        artifact: "§V-C dependency-graph study (Fig. 9)",
        expectation: "10 perfect (34%), 7 mostly correct (24%), 59% at least \
                      mostly correct; linear chains the most common error",
        report,
        holds: results.counts["perfect"] == 10
            && results.counts["mostly correct"] == 7
            && (results.at_least_mostly_pct - 58.6).abs() < 1.0,
    }
}

/// E12 — real threads + the GPU-shot contrast.
pub fn e12_threads() -> Experiment {
    use flagsim_core::partition::{CellOrder, PartitionStrategy};
    let flag = PreparedFlag::at_size(&library::mauritius(), 96, 64);
    let assignments =
        PartitionStrategy::VerticalSlices(4).assignments(&flag, CellOrder::RowMajor, &[]);
    let colorer = ParallelColorer::new(&flag, CellWorkload::default());
    let mut report = String::new();
    let mut all_verified = true;
    let mut outcomes = Vec::new();
    for mode in [
        ExecMode::Sequential,
        ExecMode::Static,
        ExecMode::SharedImplements,
        ExecMode::DynamicChunks { chunk: 64 },
    ] {
        let out = colorer.run(&assignments, mode);
        all_verified &= out.verify(&flag);
        let _ = writeln!(
            report,
            "{:<32} {} threads  wall {:>9.3?}  (verified: {})",
            format!("{mode:?}"),
            out.threads,
            out.wall,
            out.verify(&flag)
        );
        outcomes.push(out);
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let _ = writeln!(
        report,
        "(host has {cores} core(s); wall-clock speedup requires >1 — the \
         'technology differences matter' lesson applies to hosts too)"
    );
    let gpu = flagsim_threads::gpu::compare(&flag);
    let _ = writeln!(
        report,
        "paintball model: CPU {} shots ({:.0}s) vs GPU {} shot ({:.0}s) — \
         the NVIDIA video's contrast",
        gpu.cpu_shots, gpu.cpu_secs, gpu.gpu_shots, gpu.gpu_secs
    );
    Experiment {
        id: "E12",
        artifact: "§III-D GPU video + real-hardware extension",
        expectation: "all execution modes color the identical flag; the GPU \
                      one-shot model dominates the one-barrel CPU",
        report,
        holds: all_verified && gpu.gpu_shots == 1 && gpu.cpu_shots == gpu.cells,
    }
}

/// E13 — §III-C pipelining: rotated stripe starts eliminate the scenario-4
/// convoy.
pub fn e13_pipeline() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let cfg = ActivityConfig::default().with_seed(SEED);
    let scenarios = [
        Scenario::fig1(4),
        Scenario::alternating_slices(),
        Scenario::pipelined_slices(&flag, 4, 4),
    ];
    let mut report = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(
        report,
        "{:<52}{:>9}{:>10}{:>10}",
        "strategy", "mean s", "wait s", "fill s"
    );
    for sc in &scenarios {
        let (secs, last) = mean_completion(sc, &flag, &kit, 4, false, &cfg);
        let _ = writeln!(
            report,
            "{:<52}{:>9.1}{:>10.1}{:>10.1}",
            sc.name,
            secs,
            last.total_wait_secs(),
            last.pipeline_fill_secs()
        );
        rows.push((secs, last.total_wait_secs(), last.pipeline_fill_secs()));
    }
    // Pipelined beats the convoy and waits far less; the convoy's fill
    // time (idle until first work) is visible.
    let holds = rows[2].0 < rows[0].0 && rows[2].1 < rows[0].1 / 2.0 && rows[0].2 > 0.0;
    Experiment {
        id: "E13",
        artifact: "§III-C pipelining lesson",
        expectation: "passing implements in a rotation keeps every processor \
                      supplied; the naive scenario 4 convoys on red and pays a \
                      pipeline-fill delay",
        report,
        holds,
    }
}

/// E14 — §III-C extension: "having extra resources would reduce the
/// contention". Stock the kit with 1–4 markers per color and watch
/// scenario 4's waiting dissolve.
pub fn e14_extra_markers() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let cfg = ActivityConfig::default().with_seed(SEED);
    let sc = Scenario::fig1(4);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<26}{:>10}{:>12}",
        "markers per color", "mean s", "wait s"
    );
    let mut rows = Vec::new();
    for count in 1..=4usize {
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS)
            .with_count_all(count);
        let (secs, last) = mean_completion(&sc, &flag, &kit, 4, false, &cfg);
        let _ = writeln!(
            report,
            "{:<26}{:>10.1}{:>12.1}",
            count,
            secs,
            last.total_wait_secs()
        );
        rows.push((secs, last.total_wait_secs()));
    }
    let holds = rows.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9) // waits fall
        && rows[3].1 == 0.0 // 4 markers per color: nobody ever waits
        && rows[3].0 < rows[0].0;
    Experiment {
        id: "E14",
        artifact: "§III-C contention extension (ablation)",
        expectation: "extra drawing implements reduce contention; one marker \
                      per student per color eliminates waiting entirely",
        report,
        holds,
    }
}

/// E15 — the students' own observation (§V-A open responses): "adding
/// more processors does not always result in increased efficiency" /
/// "excessive parallelization can lead to resource contention and even
/// slowdowns". Sweep the team size on vertical slices with one marker per
/// color.
pub fn e15_diminishing_returns() -> Experiment {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let cfg = ActivityConfig::default().with_seed(SEED);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<10}{:>10}{:>12}{:>14}",
        "students", "mean s", "speedup", "efficiency"
    );
    let mut rows = Vec::new();
    let mut t1 = 0.0;
    for p in [1u32, 2, 3, 4, 6, 12] {
        let sc = Scenario::new(
            format!("slices x{p}"),
            flagsim_core::PartitionStrategy::VerticalSlices(p),
            flagsim_core::CellOrder::RowMajor,
        );
        let (secs, _) = mean_completion(&sc, &flag, &kit, p as usize, false, &cfg);
        if p == 1 {
            t1 = secs;
        }
        let s = speedup(t1, secs);
        let e = s / p as f64;
        let _ = writeln!(report, "{:<10}{:>10.1}{:>11.2}x{:>14.2}", p, secs, s, e);
        rows.push((p, secs, s, e));
    }
    let _ = writeln!(
        report,
        "(four markers cap the useful parallelism: tripling the team from 4 \
         to 12 buys {:.0}% while efficiency collapses from {:.2} to {:.2} — \
         the slowdown case itself is E1's scenario 4 vs 3)",
        100.0 * (rows[3].1 - rows[5].1) / rows[3].1,
        rows[3].3,
        rows[5].3,
    );
    // Efficiency strictly decays once there is any sharing, and speedup
    // saturates far below the team size.
    let effs: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let holds = effs.windows(2).all(|w| w[1] < w[0]) && rows[5].2 < 4.0;
    Experiment {
        id: "E15",
        artifact: "§V-A student takeaway: diminishing returns",
        expectation: "adding processors does not always add efficiency: \
                      returns diminish sharply once the four markers saturate",
        report,
        holds,
    }
}

/// E16 — the "larger paper sizes" request from the student feedback,
/// read through Gustafson's lens: scale the grid with the team and the
/// 4-student speedup holds steady.
pub fn e16_grid_scaling() -> Experiment {
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let cfg = ActivityConfig::default().with_seed(SEED);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<12}{:>10}{:>12}{:>12}",
        "grid", "solo s", "4 students", "speedup"
    );
    let mut speeds = Vec::new();
    for (w, h) in [(12u32, 8u32), (24, 16), (48, 32)] {
        let flag = PreparedFlag::at_size(&library::mauritius(), w, h);
        let (t1, _) = mean_completion(&Scenario::fig1(1), &flag, &kit, 1, false, &cfg);
        let (t4, _) = mean_completion(&Scenario::fig1(3), &flag, &kit, 4, false, &cfg);
        let s = speedup(t1, t4);
        let _ = writeln!(report, "{:<12}{:>10.1}{:>12.1}{:>11.2}x", format!("{w}x{h}"), t1, t4, s);
        speeds.push(s);
    }
    let _ = writeln!(
        report,
        "(stripe decomposition scales with the problem: near-4x at every size)"
    );
    Experiment {
        id: "E16",
        artifact: "student feedback: larger paper (Gustafson scaling)",
        expectation: "the stripe decomposition's speedup holds near 4x as the \
                      grid grows with the team",
        report,
        holds: speeds.iter().all(|&s| s > 3.0 && s < 4.4),
    }
}

/// E17 — measurement methodology: the "times on the board" are noisy
/// samples. Run scenarios 1 and 3 across 32 seeds and show that the
/// difference is statistically real (disjoint 95% CIs) while run-to-run
/// noise stays moderate.
pub fn e17_variance() -> Experiment {
    use flagsim_metrics::{clearly_different, RunStats};
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let sample = |n: u8| -> RunStats {
        let sc = Scenario::fig1(n);
        let mut times = Vec::new();
        for rep in 0..REPS {
            let mut team = fresh_team(4, false);
            let cfg = ActivityConfig::default().with_seed(SEED ^ rep.wrapping_mul(0x51ED));
            times.push(sc.run(&flag, &mut team, &kit, &cfg).unwrap().completion_secs());
        }
        RunStats::from_sample(&times)
    };
    let s1 = sample(1);
    let s3 = sample(3);
    let mut report = String::new();
    let _ = writeln!(report, "scenario 1: {} (CV {:.2})", s1.display_secs(), s1.cv());
    let _ = writeln!(report, "scenario 3: {} (CV {:.2})", s3.display_secs(), s3.cv());
    let _ = writeln!(
        report,
        "95% CIs disjoint: {} — the board's scenario ordering is signal, not noise",
        clearly_different(&s1, &s3)
    );
    Experiment {
        id: "E17",
        artifact: "measurement methodology (times on the board)",
        expectation: "per-scenario times vary across teams/seeds, but scenario \
                      differences dwarf the noise",
        report,
        holds: clearly_different(&s1, &s3) && s1.cv() < 0.2 && s3.cv() < 0.2,
    }
}

/// E18 — §IV fill styles: full coverage is slowest, the minimal dab is
/// fastest but erratic; the recommended scribble balances speed and
/// "uniformity of time per cell".
pub fn e18_fill_styles() -> Experiment {
    use flagsim_grid::FillStyle;
    use flagsim_metrics::RunStats;
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
    let sc = Scenario::fig1(1);
    let mut report = String::new();
    let _ = writeln!(report, "{:<12}{:>16}{:>10}", "fill", "mean ± ci", "CV");
    let mut rows = Vec::new();
    for fill in FillStyle::ALL {
        let mut times = Vec::new();
        for rep in 0..REPS {
            let mut team = fresh_team(1, false);
            let cfg = ActivityConfig::default()
                .with_seed(SEED ^ rep.wrapping_mul(0xF111))
                .with_fill(fill);
            times.push(sc.run(&flag, &mut team, &kit, &cfg).unwrap().completion_secs());
        }
        let stats = RunStats::from_sample(&times);
        let _ = writeln!(
            report,
            "{:<12}{:>16}{:>10.3}",
            format!("{fill:?}"),
            stats.display_secs(),
            stats.cv()
        );
        rows.push((fill, stats));
    }
    let _ = writeln!(
        report,
        "(the paper's advice: scribble — faster than full coverage while keeping \
         'uniformity of time per cell'; minimal dabs are faster still but erratic)"
    );
    let full = &rows[0].1;
    let scribble = &rows[1].1;
    let minimal = &rows[2].1;
    let holds = full.mean > scribble.mean
        && scribble.mean > minimal.mean
        && minimal.cv() > scribble.cv();
    Experiment {
        id: "E18",
        artifact: "§IV fill-style advice (ablation)",
        expectation: "full > scribble > minimal in time; minimal fills lose the \
                      per-cell timing uniformity the scribble gives",
        report,
        holds,
    }
}

/// E19 — §VI future work, executed: "a more in-depth statistical
/// analysis". Pool the pre/post transitions across institutions (and,
/// optionally, simulated repeat offerings) and run McNemar's paired test
/// per concept.
pub fn e19_statistics() -> Experiment {
    use flagsim_assessment::longitudinal::{pooled_analysis, render_analysis};
    use flagsim_assessment::Concept;
    let one = pooled_analysis(1, SEED);
    let mut report = String::from("pooled over USI + TNTech + HPU (one offering):\n");
    report.push_str(&render_analysis(&one, 0.05));
    let five = pooled_analysis(5, SEED);
    report.push_str("\npooled over five simulated offerings:\n");
    report.push_str(&render_analysis(&five, 0.05));
    let find = |ts: &[flagsim_assessment::longitudinal::ConceptTrend], c: Concept| {
        ts.iter().find(|t| t.concept == c).unwrap().test
    };
    let contention_sig = find(&one, Concept::Contention)
        .map(|r| r.significant(0.05))
        .unwrap_or(false);
    let pipelining_sig = find(&one, Concept::Pipelining)
        .map(|r| r.significant(0.05))
        .unwrap_or(false);
    let td_gain = one
        .iter()
        .find(|t| t.concept == Concept::TaskDecomposition)
        .unwrap()
        .net_gain_pp;
    Experiment {
        id: "E19",
        artifact: "§VI future work: statistical analysis",
        expectation: "the concepts the activity visibly teaches (contention, \
                      pipelining) show statistically significant paired gains; \
                      already-known concepts (task decomposition) do not",
        report,
        holds: contention_sig && pipelining_sig && td_gain < 5.0,
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialize experiments as pretty-printed JSON (hand-rolled — the build
/// environment has no serde).
pub fn experiments_to_json(experiments: &[Experiment]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in experiments.iter().enumerate() {
        out.push_str("  {\n");
        for (key, val) in [
            ("id", e.id),
            ("artifact", e.artifact),
            ("expectation", e.expectation),
            ("report", e.report.as_str()),
        ] {
            let _ = write!(out, "    \"{key}\": \"");
            json_escape(val, &mut out);
            out.push_str("\",\n");
        }
        let _ = write!(out, "    \"holds\": {}\n  }}", e.holds);
        out.push_str(if i + 1 < experiments.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Every experiment, in id order.
pub fn all_experiments() -> Vec<Experiment> {
    let mut v = vec![e1_scenarios(), e2_warmup(), e3_implements(), e4_webster(), e5_dependencies()];
    v.extend(e678_tables());
    v.push(e9_quiz());
    v.push(e10_jordan());
    v.push(e12_threads());
    v.push(e13_pipeline());
    v.push(e14_extra_markers());
    v.push(e15_diminishing_returns());
    v.push(e16_grid_scaling());
    v.push(e17_variance());
    v.push(e18_fill_styles());
    v.push(e19_statistics());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_holds() {
        for e in all_experiments() {
            assert!(e.holds, "{} ({}) failed:\n{}", e.id, e.artifact, e.report);
        }
    }
}
