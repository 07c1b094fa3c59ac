//! The classroom commands: `flags`, `render`, `slides`, `session`,
//! `grade`, `parse`, `pack`, `vocab`, and `report`.

use super::args::uint;
use super::{err, find_flag, parse_size, CliError, Selection};
use crate::submission::parse_submission;
use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_assessment::jordan;
use flagsim_core::classroom::ClassroomSession;
use flagsim_core::config::ActivityConfig;
use flagsim_core::discussion;
use flagsim_core::layered;
use flagsim_core::scenario::Scenario;
use flagsim_core::slides;
use flagsim_core::work::PreparedFlag;
use flagsim_core::TeamKit;
use flagsim_flags::{library, FlagSpec};
use flagsim_grid::render;
use flagsim_taskgraph::{classify, list_schedule, Priority};
use std::fmt::Write as _;

options! {
    pub(super) struct FlagsArgs("flags") |_a| {}

    pub(super) struct RenderArgs("render") |a| {
        flag: String = a.operand("<flag>"),
        mode: Option<String> = a.optional_operand("ascii|ansi|ppm|svg"),
        size: Option<String> = a.optional_operand("WxH"),
    }

    pub(super) struct SlidesArgs("slides") |a| {
        flag: Option<String> = a.optional_operand("<flag>"),
    }

    pub(super) struct SessionArgs("session") |a| {
        repeat: bool = a.switch("repeat"),
        seed: u64 = a.opt("seed", "N", uint)?.unwrap_or(42),
    }

    pub(super) struct GradeArgs("grade") |a| {
        file: String = a.operand("<file>"),
    }

    pub(super) struct ReportArgs("report") |a| {
        seed: u64 = a.opt("seed", "N", uint)?.unwrap_or(2025),
    }

    pub(super) struct VocabArgs("vocab") |a| {
        term: Option<String> = a.optional_operand("<term>"),
    }

    pub(super) struct PackArgs("pack") |a| {
        out: String = a.required("out", "DIR"),
        sel: Selection = Selection::declare(a)?,
    }

    pub(super) struct ParseArgs("parse") |a| {
        file: String = a.operand("<file>"),
    }
}

pub(super) fn cmd_flags(_: FlagsArgs) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16}{:>8}{:>8}{:>10}{:>12}",
        "flag", "width", "height", "layers", "layered?"
    );
    for f in library::all() {
        let _ = writeln!(
            out,
            "{:<16}{:>8}{:>8}{:>10}{:>12}",
            f.name,
            f.default_width,
            f.default_height,
            f.layer_count(),
            if f.is_layered() { "yes" } else { "flat" }
        );
    }
    Ok(out)
}

pub(super) fn cmd_render(a: RenderArgs) -> Result<String, CliError> {
    let flag = find_flag(&a.flag)?;
    let mut mode = "ascii";
    let mut size = (flag.default_width, flag.default_height);
    // The mode and the size may come in either order.
    for extra in [&a.mode, &a.size].into_iter().flatten() {
        match extra.as_str() {
            "ascii" | "ansi" | "ppm" | "svg" => mode = extra,
            s if s.contains('x') => size = parse_size(s)?,
            other => return err(format!("unexpected argument {other:?}")),
        }
    }
    let grid = flag.rasterize_at(size.0, size.1);
    Ok(match mode {
        "ansi" => render::to_ansi(&grid),
        "ppm" => render::to_ppm(&grid),
        "svg" => render::to_svg(&grid, 24),
        _ => format!(
            "{}legend: {}\n",
            render::to_ascii(&grid),
            render::legend(&grid)
        ),
    })
}

pub(super) fn cmd_slides(a: SlidesArgs) -> Result<String, CliError> {
    let spec = match &a.flag {
        Some(name) => find_flag(name)?,
        None => library::mauritius(),
    };
    Ok(slides::fig1_deck(&PreparedFlag::new(&spec)))
}

pub(super) fn cmd_session(a: SessionArgs) -> Result<String, CliError> {
    let mut session = ClassroomSession::new(
        &library::mauritius(),
        ActivityConfig::default().with_seed(a.seed),
    );
    session.add_team("Daubers", 5, ImplementKind::BingoDauber);
    session.add_team("ThickMk", 5, ImplementKind::ThickMarker);
    session.add_team("ThinMk", 5, ImplementKind::ThinMarker);
    let all = session.run_core_activity(a.repeat)?;
    let mut out = session.board_table();
    // The debrief: lessons for team 2 (thick markers) plus the hardware
    // lesson across teams.
    let team_runs: Vec<_> = all.iter().map(|runs| runs[1].clone()).collect();
    let lessons = discussion::detect_lessons(&team_runs);
    let _ = write!(out, "\n{}", discussion::discussion_handout(&lessons));
    let scenario1: Vec<(String, _)> = session
        .teams()
        .iter()
        .zip(&all[0])
        .map(|(t, r)| (t.name.clone(), r.clone()))
        .collect();
    if let Some(hw) = discussion::detect_hardware_lesson(&scenario1) {
        let _ = writeln!(out, "{}. {} — {}", lessons.len() + 1, hw.concept.name(), hw.evidence);
    }
    Ok(out)
}

pub(super) fn cmd_grade(a: GradeArgs) -> Result<String, CliError> {
    grade_text(&read_file(&a.file)?)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Grade a submission text against the Jordan reference (separated from
/// the file I/O so tests can call it directly).
pub fn grade_text(text: &str) -> Result<String, CliError> {
    let sub = parse_submission(text)?;
    let grade = classify(&sub, &jordan::reference_graph(), &jordan::grade_options());
    let mut out = format!("grade: {grade:?}\n");
    let _ = writeln!(
        out,
        "counts toward the paper's \"at least mostly correct\": {}",
        if grade.is_at_least_mostly_correct() {
            "yes"
        } else {
            "no"
        }
    );
    Ok(out)
}

pub(super) fn cmd_report(a: ReportArgs) -> Result<String, CliError> {
    Ok(flagsim_assessment::report::full_report(a.seed))
}

pub(super) fn cmd_vocab(a: VocabArgs) -> Result<String, CliError> {
    use flagsim_core::glossary;
    match &a.term {
        None => Ok(glossary::render_glossary()),
        Some(word) => match glossary::lookup(word) {
            Some(t) => Ok(format!(
                "{}\n  what:  {}\n  where: {}\n  measured in: {}\n",
                t.term, t.definition, t.seen_in_activity, t.experiment
            )),
            None => err(format!("no glossary entry matches {word:?}")),
        },
    }
}

pub(super) fn cmd_pack(a: PackArgs) -> Result<String, CliError> {
    let (dir, spec) = (&a.out, &a.sel.spec);
    let files = build_pack(spec, a.sel.kind, a.sel.seed)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut out = format!("instructor pack for {} in {dir}/:\n", spec.name);
    for (name, content) in &files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "  {name} ({} bytes)", content.len());
    }
    Ok(out)
}

/// Build every file of the instructor pack in memory (separated from the
/// filesystem so tests can inspect the contents).
pub fn build_pack(
    spec: &FlagSpec,
    kind: ImplementKind,
    seed: u64,
) -> Result<Vec<(String, String)>, String> {
    use flagsim_assessment::quiz::render_quiz_form;
    use flagsim_core::advice;

    let flag = PreparedFlag::new(spec);
    let cfg = ActivityConfig::default().with_seed(seed);
    let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
    let mut files: Vec<(String, String)> = Vec::new();

    // 1. The flag itself, printable and projectable.
    files.push(("flag.txt".into(), render::to_ascii(&flag.reference)));
    files.push(("flag.svg".into(), render::to_svg(&flag.reference, 24)));

    // 2. The scenario slide deck (§IV: project the decomposition).
    files.push(("slides.txt".into(), slides::fig1_deck(&flag)));

    // 3. The dry-run checklist for every scenario.
    let mut checklist = String::new();
    for n in 1..=4u8 {
        let sc = Scenario::fig1(n);
        let results = advice::preflight(&flag, &sc, &kit, 5, &cfg);
        let _ = writeln!(checklist, "--- {} ---", sc.name);
        checklist.push_str(&advice::render_checklist(&results));
        checklist.push('\n');
    }
    files.push(("checklist.txt".into(), checklist));

    // 4. The pre/post quiz, student and grader copies, plus the
    //    vocabulary handout the survey comments asked for.
    files.push(("quiz.txt".into(), render_quiz_form(false)));
    files.push(("quiz_key.txt".into(), render_quiz_form(true)));
    files.push((
        "vocabulary.txt".into(),
        flagsim_core::glossary::render_glossary(),
    ));

    // 4b. The CSV bundle of a sample scenario-4 run, for a data-analysis
    //     follow-up exercise.
    // (appended below once the sample session has run)

    // 5. A simulated sample session with the debrief, so the instructor
    //    knows what numbers to expect on the board.
    let mut team: Vec<StudentProfile> =
        (1..=4).map(|i| StudentProfile::new(format!("P{i}"))).collect();
    let mut runs = Vec::new();
    for n in 1..=4u8 {
        let r = Scenario::fig1(n).run(&flag, &mut team, &kit, &cfg)?;
        runs.push(r);
    }
    let mut sample = String::from("Sample session (simulated — your times will differ):\n");
    for r in &runs {
        let _ = writeln!(sample, "  {}", r.board_line());
    }
    sample.push('\n');
    sample.push_str(&discussion::discussion_handout(&discussion::detect_lessons(
        &runs,
    )));
    let last = runs.last().expect("four runs");
    sample.push('\n');
    sample.push_str(&last.trace.gantt(72));
    files.push(("sample_session.txt".into(), sample));
    files.push((
        "scenario4_gantt.svg".into(),
        last.trace.svg_gantt(720),
    ));
    for (name, content) in last.to_csv_bundle() {
        files.push((format!("scenario4_{name}"), content));
    }

    // 6. The dependency follow-up: the Jordan reference graph and a
    //    4-student schedule (Knox's extension).
    let jordan_spec = library::jordan();
    let g = layered::flag_taskgraph(&jordan_spec, 2000);
    files.push(("jordan_dependencies.dot".into(), g.to_dot("Jordan")));
    let schedule = list_schedule(&g, 4, Priority::CriticalPath);
    files.push((
        "jordan_schedule.svg".into(),
        schedule.svg_gantt(&g, 720),
    ));
    // The animated version — our substitute for the Webster instructor's
    // schedule animations (reference [34] of the paper).
    files.push((
        "jordan_schedule_animated.svg".into(),
        schedule.animated_svg(&g, 720, 0.00002),
    ));

    Ok(files)
}

pub(super) fn cmd_parse(a: ParseArgs) -> Result<String, CliError> {
    parse_text(&read_file(&a.file)?)
}

/// Validate + render a custom flag text (separated from file I/O for
/// tests). Includes the linter's findings.
pub fn parse_text(text: &str) -> Result<String, CliError> {
    let flag = flagsim_flags::parse(text).map_err(|e| e.to_string())?;
    let grid = flag.rasterize();
    let lints = flagsim_flags::lint(&flag);
    Ok(format!(
        "parsed {:?}: {} layers, {}x{}, {}\n\n{}legend: {}\n\n{}",
        flag.name,
        flag.layer_count(),
        flag.default_width,
        flag.default_height,
        if flag.is_layered() {
            "layered (has dependencies)"
        } else {
            "flat (fully parallel)"
        },
        render::to_ascii(&grid),
        render::legend(&grid),
        flagsim_flags::render_lints(&lints),
    ))
}
