//! The analysis commands: `explain`, `profile`, `check`, `verify`, and
//! `graph`.

use super::args::{positive, text, uint};
use super::{err, find_flag, parse_size, plan, policy, CliError, Selection};
use flagsim_core::config::ActivityConfig;
use flagsim_core::faults::{FaultPlan, RecoveryPolicy};
use flagsim_core::layered;
use flagsim_core::work::PreparedFlag;
use flagsim_core::TeamKit;
use flagsim_flags::library;
use flagsim_simcheck as simcheck;
use flagsim_taskgraph::{analysis, list_schedule, Priority};
use std::fmt::Write as _;

options! {
    /// The diagnostics-output group of `check` and `verify`.
    struct Diagnostics |a| {
        format: &'static str = a.choice("format", "text|json")?.unwrap_or("text"),
        deny: simcheck::Severity =
            a.opt("deny", "note|warning|error", severity)?.unwrap_or(simcheck::Severity::Error),
        allow: Vec<String> = a.opt("allow", "IDS", id_list)?.unwrap_or_default(),
    }

    pub(super) struct ExplainArgs("explain") |a| {
        scenario: String = a.operand("<SCENARIO>"),
        format: &'static str = a.choice("format", "text|json")?.unwrap_or("text"),
        sel: Selection = Selection::declare(a)?,
        team: Option<usize> = a.opt("team", "N", positive)?,
        // Accepted for symmetry with `sweep`: one run has one lane.
        _jobs: usize = a.opt("jobs", "N", positive)?.unwrap_or(1),
    }

    pub(super) struct ProfileArgs("profile") |a| {
        scenario: String = a.operand("<SCENARIO>"),
        out: Option<String> = a.opt("out", "FILE", text)?,
        format: &'static str = a.choice("format", "chrome|folded|table")?.unwrap_or("chrome"),
        metrics: bool = a.switch("metrics"),
        reps: u64 = a.opt("reps", "M", positive)?.unwrap_or(4),
        jobs: usize = a.opt("jobs", "N", positive)?.unwrap_or(1),
        sel: Selection = Selection::declare(a)?,
    }

    pub(super) struct CheckArgs("check") |a| {
        target: String = a.operand("<SCENARIO|FLAG|FILE|PLAN|demo-deadlock>"),
        diag: Diagnostics = Diagnostics::declare(a)?,
        size: Option<(u32, u32)> = a.opt("size", "WxH", parse_size)?,
        static_only: bool = a.switch("static-only"),
        sel: Selection = Selection::declare(a)?,
        team: Option<usize> = a.opt("team", "N", uint)?,
        // Accepted for symmetry with `sweep`: one run has one lane.
        _jobs: usize = a.opt("jobs", "N", positive)?.unwrap_or(1),
        plan: Option<FaultPlan> = plan(a)?,
        policy: Option<RecoveryPolicy> = policy(a)?,
    }

    pub(super) struct VerifyArgs("verify") |a| {
        target: String = a.operand("<SCENARIO|demo-deadlock>"),
        sel: Selection = Selection::declare(a)?,
        max_schedules: usize = a.opt("max-schedules", "N", positive)?.unwrap_or(4096),
        naive: bool = a.switch("naive"),
        diag: Diagnostics = Diagnostics::declare(a)?,
        witness_out: Option<String> = a.opt("witness-out", "PREFIX", text)?,
    }

    pub(super) struct GraphArgs("graph") |a| {
        flag: String = a.operand("<flag>"),
        procs: usize = a.opt("procs", "N", positive)?.unwrap_or(4),
    }
}

impl Diagnostics {
    /// Render a finished report and enforce `--deny`: the report is always
    /// the command's stdout output; when it trips the deny level it is
    /// printed here and the command fails (nonzero exit) with a short
    /// summary on stderr.
    fn finish(&self, mut report: simcheck::Report) -> Result<String, CliError> {
        report.allow(&self.allow);
        report.sort();
        let rendered = match self.format {
            "json" => {
                let mut j = report.to_json();
                j.push('\n');
                j
            }
            _ => report.render_text(),
        };
        if report.denies(self.deny) {
            print!("{rendered}");
            return err(format!(
                "check failed for {}: {}",
                report.target,
                report.summary()
            ));
        }
        Ok(rendered)
    }
}

fn severity(s: &str) -> Result<simcheck::Severity, String> {
    simcheck::Severity::parse(s).ok_or_else(|| "expected note, warning, or error".to_owned())
}

/// `--allow IDS`: comma-separated diagnostic ids.
fn id_list(s: &str) -> Result<Vec<String>, String> {
    Ok(s.split(',').map(|id| id.trim().to_owned()).collect())
}

/// `flagsim explain` — run a scenario once, deterministically, and show
/// *why* it took as long as it did: the executed critical path overlaid
/// on the gantt, the per-marker contention blame table, and the what-if
/// bounds (infinite implements, zero warmup, perfect balance),
/// cross-checked against the trace-derived task graph's span.
/// `--format json` emits the same analysis machine-readably.
pub(super) fn cmd_explain(a: ExplainArgs) -> Result<String, CliError> {
    let s = a.sel.setup(&a.scenario)?;
    let team = a.team.unwrap_or_else(|| s.scenario.team_size(&s.flag, &s.cfg));
    let explanation =
        flagsim_core::explain::explain_scenario(&s.scenario, &s.flag, &s.kit, &s.cfg, team)?;
    Ok(match a.format {
        "json" => explanation.to_json(),
        _ => explanation.render_text(72),
    })
}

/// `flagsim profile` — run a scenario sweep under an installed telemetry
/// collector and export what the simulator did: Chrome `trace_event`
/// JSON (load it in `chrome://tracing` or Perfetto), collapsed
/// flamegraph stacks, or an aggregated self-time table. `--metrics`
/// appends the metrics registry in text exposition.
pub(super) fn cmd_profile(a: ProfileArgs) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    let s = a.sel.setup(&a.scenario)?;
    let (format, reps, jobs) = (a.format, a.reps, a.jobs);
    let runner = SweepRunner::new(&s.scenario, &s.flag, &s.kit, &s.cfg)
        .team_size(s.scenario.team_size(&s.flag, &s.cfg))
        .reps(reps)
        .jobs(jobs)
        .retain_reports(false);
    let collector = flagsim_telemetry::Collector::install();
    let metrics = collector.metrics();
    let run_result = runner.run();
    // Always finish the collector (disabling telemetry) before surfacing
    // any sweep error.
    let set = collector.finish();
    run_result.map_err(|e| e.to_string())?;
    let rendered = match format {
        "folded" => set.folded_stacks(),
        "table" => set.self_time_table(),
        _ => set.chrome_trace(),
    };
    let mut out = String::new();
    match &a.out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(
                out,
                "profile: {} — {} rep(s), {} job(s); {} span(s) written to {path} ({format})",
                s.scenario.name,
                reps,
                jobs,
                set.len()
            );
        }
        None => out.push_str(&rendered),
    }
    if a.metrics {
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("\n--- metrics ---\n");
        out.push_str(&metrics.render_text());
    }
    Ok(out)
}

/// `flagsim check` — the static analyzer front door. The positional
/// argument picks the target: a scenario (full static checks, the §IV
/// advice, and — unless `--static-only` — one deterministic run for the
/// happens-before race analysis), a library flag or a flag file (spec
/// lints, also at `--size WxH`), a fault plan string (plan validation),
/// or `demo-deadlock` (the lock-order cycle the drill is built to have).
pub(super) fn cmd_check(a: CheckArgs) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    let what = a.target.as_str();

    // Target: the demo-deadlock drill — purely static.
    if what == "demo-deadlock" {
        let graph = simcheck::LockOrderGraph::build(&simcheck::demo_deadlock_seqs());
        let mut report = simcheck::Report::new("demo-deadlock drill");
        report.extend(graph.diags());
        return a.diag.finish(report);
    }

    // Target: a library flag — spec lints only. (No flag is named like a
    // scenario token, so this cannot shadow the scenario branch.)
    if let Some(spec) = library::by_name(what) {
        return flag_lints(&a, &spec);
    }

    // Target: a bare fault-plan string — validate it against the team
    // and colors the options describe (defaults: scenario 4's four
    // coloring students on Mauritius). Scenario tokens contain neither
    // ':' nor '@', so this cannot shadow the scenario branch either.
    if what.contains(':') || what.contains('@') {
        let mut plan = FaultPlan::parse(what, "cli plan")?;
        if let Some(p) = a.policy {
            plan = plan.with_policy(p);
        }
        let flag = PreparedFlag::new(&a.sel.spec);
        let mut report = simcheck::Report::new(format!("fault plan {what:?}"));
        report.extend(simcheck::check_fault_plan(
            &plan,
            a.team.unwrap_or(4),
            &flag.colors_needed(&a.sel.config().skip_colors),
            &a.sel.kit(&flag),
        ));
        return a.diag.finish(report);
    }

    // Target: a scenario — the full battery — unless `what` names no
    // scenario but a readable flag file, which gets the spec lints.
    let s = match a.sel.setup(what) {
        Ok(s) => s,
        Err(e) => {
            let Ok(text) = std::fs::read_to_string(what) else {
                return Err(e);
            };
            return flag_lints(&a, &flagsim_flags::parse(&text).map_err(|e| e.to_string())?);
        }
    };
    let mut plan = a.plan.unwrap_or_else(FaultPlan::none);
    if let Some(p) = a.policy {
        plan = plan.with_policy(p);
    }
    let (flag, scenario, cfg) = (&s.flag, &s.scenario, &s.cfg);
    let team = a
        .team
        .unwrap_or_else(|| scenario.team_size(flag, cfg).max(1) + 1); // + the timer
    let mut report = simcheck::full_report(&s.target(team, &plan));
    if !a.static_only {
        // Chatter to stderr: stdout is the report.
        eprintln!(
            "check: running {} once (seed {}) for happens-before analysis",
            scenario.name, a.sel.seed
        );
        // Rep 0, exactly as a sweep runs it, so `--jobs` cannot change
        // the findings (asserted byte-for-byte in the tests).
        let run = SweepRunner::new(scenario, flag, &s.kit, cfg)
            .team_size(scenario.team_size(flag, cfg).min(team))
            .plan(&plan)
            .run_rep(0);
        match run {
            Ok(observed) => {
                report.extend(simcheck::check_run(&observed).diags());
                report.sort();
            }
            Err(_) => {
                eprintln!(
                    "check: the observation run failed — static findings only \
                     (they usually explain why)"
                );
            }
        }
    }
    a.diag.finish(report)
}

/// `check`'s flag target: the spec lints at the recommended raster and,
/// with `--size WxH`, at that raster too.
fn flag_lints(a: &CheckArgs, spec: &flagsim_flags::FlagSpec) -> Result<String, CliError> {
    let (w, h) = a.size.unwrap_or((spec.default_width, spec.default_height));
    let mut title = format!("flag {}", spec.name);
    if a.size.is_some() {
        let _ = write!(title, " at {w}x{h}");
    }
    let mut report = simcheck::Report::new(title);
    report.extend(simcheck::check_flag_spec(spec, w, h));
    a.diag.finish(report)
}

/// `flagsim verify` — the bounded model checker. Where `check` analyzes
/// one observed run, `verify` explores *every* resolution of the
/// engine's scheduler ties (equal-time wakeups, acquire-order ties) with
/// sleep-set partial-order reduction, then reports either outcome
/// invariance (SC412) or a minimal divergent witness pair (SC410). The
/// `demo-deadlock` target re-proves the SC204 lock-order cycle
/// dynamically: a concrete schedule that reaches the stall (SC411),
/// cross-checked against the live wait-for graph.
pub(super) fn cmd_verify(a: VerifyArgs) -> Result<String, CliError> {
    let what = a.target.as_str();
    let max_schedules = a.max_schedules;
    let explore_cfg = simcheck::ExploreConfig {
        max_schedules,
        naive: a.naive,
    };

    // Target: the demo-deadlock drill — the static SC204 cycle plus a
    // live exploration proving a schedule actually reaches the stall.
    if what == "demo-deadlock" {
        let graph = simcheck::LockOrderGraph::build(&simcheck::demo_deadlock_seqs());
        let cycles = graph.cycles();
        let ex = simcheck::explore_engine(simcheck::demo_deadlock_engine, &explore_cfg)?;
        eprintln!(
            "verify: demo-deadlock drill — {} schedule(s) explored, {} outcome class(es)",
            ex.schedules_run,
            ex.outcomes.len()
        );
        let mut report = simcheck::Report::new("demo-deadlock drill (schedule space)");
        for mut d in graph.diags() {
            if let Some(class) = ex.deadlock() {
                if let simcheck::Outcome::Stalled { graph: wfg, .. } = &class.outcome {
                    if simcheck::deadlock_matches_cycle(wfg, &cycles) {
                        d = d.with_detail(format!(
                            "dynamically confirmed: schedule {} reaches exactly this \
                             deadlock (see SC411)",
                            simcheck::format_script(&class.schedule)
                        ));
                    }
                }
            }
            report.push(d);
        }
        report.extend(simcheck::verify_diags(&ex));
        return a.diag.finish(report);
    }

    // Target: a scenario — explore its full schedule space.
    let s = a.sel.setup(what)?;
    let (spec, seed) = (&a.sel.spec, a.sel.seed);
    let compiled = s.scenario.compile(&s.flag, &s.cfg)?;
    eprintln!(
        "verify: exploring {} on {} (seed {seed}, bound {max_schedules}{})",
        s.scenario.name,
        spec.name,
        if explore_cfg.naive { ", naive" } else { "" }
    );
    let ax = simcheck::explore_activity(&compiled, &s.kit, &s.cfg, &explore_cfg)?;
    let ex = &ax.exploration;
    eprintln!(
        "verify: {} schedule(s) run, {} outcome class(es), {} choice state(s), \
         {} sleep-pruned, {} state-hash-pruned",
        ex.schedules_run,
        ex.outcomes.len(),
        ex.visited_states,
        ex.pruned_sleep,
        ex.pruned_visited
    );
    let mut report = simcheck::Report::new(format!(
        "verify {} on {} (seed {seed})",
        s.scenario.name, spec.name
    ));
    report.extend(simcheck::verify_diags(ex));
    report.extend(simcheck::annotate_ties(&ax.ties, ex));
    if let Some(prefix) = &a.witness_out {
        match &ex.witness {
            Some(w) => write_witness_traces(&compiled, &s.kit, &s.cfg, w, prefix)?,
            None => eprintln!(
                "verify: no witness to write — every explored schedule converges"
            ),
        }
    }
    a.diag.finish(report)
}

/// Replay both sides of a witness pair with trace events on and write
/// each as a Chrome trace (`PREFIX-a.json`, `PREFIX-b.json`) that
/// `flagsim watch --trace` can scrub through. Both replay one sampled
/// world under one forced schedule, restarted between them.
fn write_witness_traces(
    compiled: &flagsim_core::scenario::CompiledScenario,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    w: &simcheck::WitnessPair,
    prefix: &str,
) -> Result<(), CliError> {
    use flagsim_core::ActivityOutcome;
    let plan = FaultPlan::none();
    let (policy, _log) = flagsim_desim::ForcedSchedule::new(Vec::new());
    let team = simcheck::explore::scenario_team(compiled);
    let mut runs = compiled.scheduled_runs(team, kit, cfg, &plan, *policy)?;
    for (suffix, script) in [("a", &w.baseline), ("b", &w.divergent)] {
        runs.policy_mut().restart(script);
        let outcome = runs.run()?;
        let path = format!("{prefix}-{suffix}.json");
        match outcome {
            ActivityOutcome::Completed(report) => {
                std::fs::write(&path, report.trace.chrome_trace())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "verify: witness {} (schedule {}) written to {path} — open with \
                     `flagsim watch --trace {path}`",
                    suffix.to_uppercase(),
                    simcheck::format_script(script)
                );
            }
            ActivityOutcome::Stalled(g) => {
                eprintln!(
                    "verify: witness {} (schedule {}) stalls at t={}ms — no trace to write",
                    suffix.to_uppercase(),
                    simcheck::format_script(script),
                    g.at.millis()
                );
            }
        }
    }
    Ok(())
}

pub(super) fn cmd_graph(a: GraphArgs) -> Result<String, CliError> {
    let spec = find_flag(&a.flag)?;
    let procs = a.procs;
    let g = layered::flag_taskgraph(&spec, 2000);
    let mut out = g.to_dot(&spec.name);
    let (path, span) = analysis::critical_path(&g);
    let _ = writeln!(
        out,
        "work {:.0}s  span {:.0}s  parallelism {:.2}",
        analysis::work(&g) as f64 / 1000.0,
        span as f64 / 1000.0,
        analysis::parallelism(&g)
    );
    let labels: Vec<&str> = path.iter().map(|&t| g.label(t)).collect();
    let _ = writeln!(out, "critical path: {}", labels.join(" -> "));
    let s = list_schedule(&g, procs, Priority::CriticalPath);
    let _ = writeln!(out, "\nschedule on {procs} student(s):");
    out.push_str(&s.gantt(&g, 60));
    Ok(out)
}
