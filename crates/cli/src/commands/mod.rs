//! Command dispatch. Each subcommand declares its options once, as a typed
//! argument struct (see `args`); the dispatch table below pairs that
//! struct with the command body, and the usage text is rendered from the
//! same declarations.

#[macro_use]
mod args;
mod analysis;
mod run;
mod sweep;
mod teaching;
mod watch;

pub use teaching::{build_pack, grade_text, parse_text};

use args::{text, uint, Args, Options};
use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::config::ActivityConfig;
use flagsim_core::faults::{FaultPlan, RecoveryPolicy};
use flagsim_core::scenario::Scenario;
use flagsim_core::work::PreparedFlag;
use flagsim_core::TeamKit;
use flagsim_flags::{library, FlagSpec};
use flagsim_simcheck as simcheck;

/// A user-facing failure: message plus the usage hint to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message }
    }
}

/// Exit code for a soft-deadline expiry (`sweep --max-wall-secs`):
/// distinct from usage/runtime errors so scripts can tell "resume me"
/// apart from "you did it wrong".
pub const EXIT_DEADLINE: i32 = 3;

/// Exit code for every other CLI error.
pub const EXIT_USAGE: i32 = 2;

impl CliError {
    /// The process exit status this error asks for.
    pub fn exit_code(&self) -> i32 {
        if self.message.starts_with("soft deadline") {
            EXIT_DEADLINE
        } else {
            EXIT_USAGE
        }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError {
        message: message.into(),
    })
}

/// A subcommand: the body that runs on its parsed arguments.
struct Entry<A>(fn(A) -> Result<String, CliError>);

/// A subcommand with its argument type erased, for the dispatch table.
trait Command {
    fn name(&self) -> &'static str;
    /// The declarations, for usage text.
    fn describe(&self) -> Args;
    /// Parse `args` strictly, then run the body.
    fn run(&self, args: &[String]) -> Result<String, CliError>;
}

impl<A: Options> Command for Entry<A> {
    fn name(&self) -> &'static str {
        A::NAME
    }
    fn describe(&self) -> Args {
        args::describe::<A>()
    }
    fn run(&self, args: &[String]) -> Result<String, CliError> {
        (self.0)(args::parse::<A>(args)?)
    }
}

/// Every subcommand, in usage order.
const COMMANDS: &[&dyn Command] = &[
    &Entry(teaching::cmd_flags),
    &Entry(teaching::cmd_render),
    &Entry(teaching::cmd_slides),
    &Entry(run::cmd_run),
    &Entry(run::cmd_faults),
    &Entry(sweep::cmd_sweep),
    &Entry(sweep::cmd_worker),
    &Entry(analysis::cmd_explain),
    &Entry(analysis::cmd_profile),
    &Entry(teaching::cmd_session),
    &Entry(analysis::cmd_check),
    &Entry(analysis::cmd_verify),
    &Entry(analysis::cmd_graph),
    &Entry(teaching::cmd_grade),
    &Entry(teaching::cmd_parse),
    &Entry(teaching::cmd_pack),
    &Entry(teaching::cmd_vocab),
    &Entry(teaching::cmd_report),
    &Entry(watch::cmd_watch),
];

/// The value syntax the synopses refer to.
const VALUE_SYNTAX: &str = "\
SCENARIO: 1 | 2 | 3 | 4 | pipelined | alternating
          (onestripe = 3, fourslice = 4)

KIND: dauber | thick | thin | crayon (default thick)

PLAN SPEC: comma-separated fault events —
  break:COLOR@SECS  dryout:COLOR@SECS  dropout:STUDENT@SECS
  late:STUDENT@SECS  fumble:COLOR+SECS  bell@SECS
  e.g. \"break:blue@20,dropout:2@30,bell@120\"
";

/// The top-level usage text: every command's synopsis, rendered from its
/// declarations, then the value syntax.
fn usage() -> String {
    let mut out = String::from("flagsim — the flag-coloring PDC activity simulator\n\nUSAGE:\n");
    for command in COMMANDS {
        out.push_str(&command.describe().synopsis(78));
        out.push('\n');
    }
    out.push('\n');
    out.push_str(VALUE_SYNTAX);
    out
}

/// Execute a command line (without the program name). Returns the text to
/// print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    if let Some(command) = COMMANDS.iter().find(|c| c.name() == cmd) {
        return command.run(&args[1..]);
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        other => err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

options! {
    /// The scenario-selection group: the flag, the implements, and the
    /// seed a run uses.
    struct Selection |a| {
        spec: FlagSpec = a.opt("flag", "NAME", find_flag)?.unwrap_or_else(library::mauritius),
        kind: ImplementKind =
            a.opt("kind", "KIND", parse_kind)?.unwrap_or(ImplementKind::ThickMarker),
        seed: u64 = a.opt("seed", "N", uint)?.unwrap_or(2025),
    }
}

/// A [`Selection`] resolved for one scenario: everything a run needs.
struct Setup {
    spec: FlagSpec,
    flag: PreparedFlag,
    scenario: Scenario,
    kit: TeamKit,
    cfg: ActivityConfig,
}

impl Selection {
    /// Prepare the flag and resolve scenario `which` on it.
    fn setup(&self, which: &str) -> Result<Setup, CliError> {
        let flag = PreparedFlag::new(&self.spec);
        let scenario = build_scenario(which, &flag)?;
        Ok(Setup {
            spec: self.spec.clone(),
            kit: self.kit(&flag),
            cfg: self.config(),
            flag,
            scenario,
        })
    }

    /// One implement of the selected kind per color the flag needs.
    fn kit(&self, flag: &PreparedFlag) -> TeamKit {
        TeamKit::uniform(self.kind, &flag.colors_needed(&[]))
    }

    fn config(&self) -> ActivityConfig {
        ActivityConfig::default().with_seed(self.seed)
    }
}

fn find_flag(name: &str) -> Result<FlagSpec, String> {
    library::by_name(name).ok_or_else(|| {
        format!(
            "unknown flag {name:?}; available: {}",
            library::all()
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// The command-line token of each implement kind.
fn kind_token(kind: ImplementKind) -> &'static str {
    match kind {
        ImplementKind::BingoDauber => "dauber",
        ImplementKind::ThickMarker => "thick",
        ImplementKind::ThinMarker => "thin",
        ImplementKind::Crayon => "crayon",
    }
}

fn parse_kind(s: &str) -> Result<ImplementKind, String> {
    ImplementKind::ALL
        .into_iter()
        .find(|&kind| kind_token(kind) == s)
        .ok_or_else(|| format!("unknown implement kind {s:?}"))
}

/// `--trace-out FILE`: record telemetry spans and write them as a Chrome
/// trace.
fn trace_out(a: &mut Args) -> Result<Option<String>, CliError> {
    a.opt("trace-out", "FILE", text)
}

/// `--log-level LEVEL`: filter the structured log stream.
fn log_level(a: &mut Args) -> Result<Option<flagsim_telemetry::Level>, CliError> {
    a.opt("log-level", "error|warn|info|debug|trace", flagsim_telemetry::Level::parse)
}

/// Finish `collector`, if one was installed, and when the run succeeded
/// and `--trace-out` named a file, write the spans there as a Chrome trace
/// and announce it through `note` (stderr, so stdout stays
/// machine-readable). The trace is validated before it lands on disk: a
/// malformed trace is a bug worth failing loudly on, not something to
/// hand to a viewer.
fn finish_trace(
    collector: Option<flagsim_telemetry::Collector>,
    ok: bool,
    path: Option<&str>,
    note: impl Fn(&str),
) -> Result<(), CliError> {
    let Some(set) = collector.map(flagsim_telemetry::Collector::finish) else {
        return Ok(());
    };
    let (true, Some(path)) = (ok, path) else {
        return Ok(());
    };
    let trace = set.chrome_trace();
    flagsim_telemetry::json::validate_chrome_trace(&trace)
        .map_err(|e| format!("trace failed validation: {e}"))?;
    std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    note(&format!("trace: {} span(s) written to {path}", set.len()));
    Ok(())
}

fn parse_size(s: &str) -> Result<(u32, u32), String> {
    let Some((w, h)) = s.split_once('x') else {
        return Err(format!("bad size {s:?}, expected WxH"));
    };
    let w: u32 = w.parse().map_err(|_| format!("bad width {w:?}"))?;
    let h: u32 = h.parse().map_err(|_| format!("bad height {h:?}"))?;
    if w == 0 || h == 0 {
        return Err("size must be nonzero".into());
    }
    Ok((w, h))
}

fn build_scenario(which: &str, flag: &PreparedFlag) -> Result<Scenario, CliError> {
    Ok(match which {
        "1" | "2" | "3" | "4" => Scenario::fig1(which.parse::<u8>().expect("digit")),
        // Mnemonic aliases for the two scenarios most scripts profile.
        "onestripe" => Scenario::fig1(3),
        "fourslice" => Scenario::fig1(4),
        "pipelined" => Scenario::pipelined_slices(flag, 4, 4),
        "alternating" => Scenario::alternating_slices(),
        other => {
            return err(format!(
                "unknown scenario {other:?} (use 1-4, onestripe, fourslice, pipelined, \
                 alternating)"
            ))
        }
    })
}

/// `--policy rebalance|spare:SECS|abort`.
fn policy(a: &mut Args) -> Result<Option<RecoveryPolicy>, CliError> {
    a.opt("policy", "rebalance|spare:SECS|abort", parse_policy)
}

fn parse_policy(s: &str) -> Result<RecoveryPolicy, String> {
    if s == "rebalance" {
        return Ok(RecoveryPolicy::Rebalance);
    }
    if s == "abort" {
        return Ok(RecoveryPolicy::AbortAndReport);
    }
    if let Some(d) = s.strip_prefix("spare:") {
        let secs: f64 = d.parse().map_err(|_| format!("bad spare delay {d:?}"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err("spare delay must be finite and non-negative".into());
        }
        return Ok(RecoveryPolicy::SpareSwap {
            replacement_delay_secs: secs,
        });
    }
    Err(format!(
        "unknown policy {s:?} (use rebalance, spare:SECS, or abort)"
    ))
}

/// `--plan SPEC`: a fault plan (see PLAN SPEC in the usage text).
fn plan(a: &mut Args) -> Result<Option<FaultPlan>, CliError> {
    a.opt("plan", "SPEC", |s| FaultPlan::parse(s, "cli plan"))
}

impl Setup {
    /// The static checker's view of this setup.
    fn target<'a>(&'a self, team_size: usize, plan: &'a FaultPlan) -> simcheck::CheckTarget<'a> {
        simcheck::CheckTarget {
            spec: &self.spec,
            flag: &self.flag,
            scenario: &self.scenario,
            kit: &self.kit,
            team_size,
            config: &self.cfg,
            plan,
        }
    }

    /// Static preflight for `run`/`sweep`/`faults`/`watch`: the same
    /// checks as `flagsim check --static-only` minus the advisory `SC4xx`
    /// checklist, failing only on Error-level findings. `--no-check`
    /// skips it.
    fn preflight(&self, team_size: usize, plan: &FaultPlan) -> Result<(), CliError> {
        let report = simcheck::static_report(&self.target(team_size, plan));
        let (errors, _, _) = report.counts();
        if errors > 0 {
            return err(format!(
                "preflight: {errors} error-level finding(s) — the run cannot work as \
                 configured (re-run with --no-check to try anyway)\n{}",
                report.render_text()
            ));
        }
        Ok(())
    }

    /// Run the scenario once on a fresh team under `plan`, after the
    /// static preflight unless `no_check`, recording a Chrome trace to
    /// `trace_out` if given.
    fn run_once(
        &self,
        plan: &FaultPlan,
        no_check: bool,
        trace_out: Option<&str>,
    ) -> Result<flagsim_core::RunReport, CliError> {
        let size = self.scenario.team_size(&self.flag, &self.cfg);
        if !no_check {
            self.preflight(size + 1, plan)?;
        }
        let mut team: Vec<StudentProfile> =
            (1..=size).map(|i| StudentProfile::new(format!("P{i}"))).collect();
        let collector = trace_out.map(|_| flagsim_telemetry::Collector::install());
        let report =
            self.scenario.run_with_faults(&self.flag, &mut team, &self.kit, &self.cfg, plan);
        finish_trace(collector, report.is_ok(), trace_out, |line| eprintln!("{line}"))?;
        Ok(report?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_prints_usage() {
        let out = runv(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(runv(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = runv(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("unknown command"));
        assert!(e.message.contains("USAGE"));
    }

    #[test]
    fn flags_lists_the_library() {
        let out = runv(&["flags"]).unwrap();
        assert!(out.contains("Mauritius"));
        assert!(out.contains("Great Britain"));
        assert!(out.contains("flat"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn render_ascii_and_sizes() {
        let out = runv(&["render", "mauritius"]).unwrap();
        assert!(out.contains("RRRRRRRRRRRR"));
        let big = runv(&["render", "mauritius", "24x16"]).unwrap();
        assert!(big.contains(&"R".repeat(24)));
        let ppm = runv(&["render", "france", "ppm"]).unwrap();
        assert!(ppm.starts_with("P3"));
        assert!(runv(&["render", "narnia"]).is_err());
        assert!(runv(&["render", "mauritius", "0x4"]).is_err());
    }

    #[test]
    fn slides_show_the_deck() {
        let out = runv(&["slides"]).unwrap();
        assert!(out.contains("scenario 4"));
        assert!(out.contains("P1 colors"));
    }

    #[test]
    fn run_scenario_4_with_gantt() {
        let out = runv(&["run", "4", "--seed", "7", "--gantt"]).unwrap();
        assert!(out.contains("scenario 4"));
        assert!(out.contains("correct"));
        assert!(out.contains("marker:"), "contention detail expected:\n{out}");
        assert!(out.contains('~'), "gantt should show waiting");
    }

    #[test]
    fn run_with_extra_markers_removes_waiting() {
        let out = runv(&["run", "4", "--markers", "4"]).unwrap();
        // No contended marker line when fully stocked.
        assert!(!out.contains("contended"), "{out}");
    }

    #[test]
    fn faults_runs_a_plan_and_prints_the_resilience_report() {
        let out = runv(&[
            "faults", "3", "--plan", "break:blue@10,dropout:2@20", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("fault(s) planned"), "{out}");
        assert!(out.contains("recovery overhead"), "{out}");
        assert!(out.contains("correct"), "survivors still finish: {out}");
        // The incident narrative now goes to stderr (see
        // bin_integration::faults_narrative_lands_on_stderr), not stdout.
        assert!(!out.contains("blue implement broke"), "{out}");
    }

    #[test]
    fn faults_abort_policy_reports_the_abort() {
        let out = runv(&[
            "faults", "1", "--plan", "break:red@5", "--policy", "abort",
        ])
        .unwrap();
        assert!(out.contains("aborted"), "{out}");
        assert!(out.contains("WRONG FLAG"), "{out}");
    }

    #[test]
    fn faults_random_plan_is_seeded() {
        let a = runv(&["faults", "4", "--random", "--seed", "11"]).unwrap();
        let b = runv(&["faults", "4", "--random", "--seed", "11"]).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("fault(s) planned"), "{a}");
    }

    #[test]
    fn faults_rejects_bad_input() {
        assert!(runv(&["faults", "3"]).is_err());
        assert!(runv(&["faults", "3", "--plan", "nonsense"]).is_err());
        assert!(runv(&["faults", "3", "--plan", "bell@60", "--policy", "what"]).is_err());
        assert!(
            runv(&["faults", "3", "--plan", "bell@60", "--random"]).is_err(),
            "--plan and --random together must be rejected"
        );
    }

    #[test]
    fn faults_demo_deadlock_prints_the_wait_for_graph() {
        let out = runv(&["faults", "--demo-deadlock"]).unwrap();
        assert!(out.contains("stalled"), "{out}");
        assert!(out.contains("wait-for graph"), "{out}");
        assert!(out.contains("red marker"), "{out}");
        assert!(out.contains("blue marker"), "{out}");
        assert!(out.contains("held by"), "{out}");
    }

    #[test]
    fn sweep_reports_statistics() {
        let out = runv(&["sweep", "4", "--reps", "6", "--jobs", "2", "--seed", "9"]).unwrap();
        assert!(out.contains("scenario 4"), "{out}");
        assert!(out.contains("6 rep(s), 2 job(s), seed 9"), "{out}");
        assert!(out.contains("completion"), "{out}");
        assert!(out.contains("waiting"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(!out.contains("failed"), "{out}");
    }

    #[test]
    fn sweep_statistics_are_job_count_invariant() {
        // The whole point of the deterministic merge: only the header's
        // job count differs between a serial and a parallel sweep.
        let serial = runv(&["sweep", "4", "--reps", "8", "--jobs", "1", "--seed", "3"]).unwrap();
        let par = runv(&["sweep", "4", "--reps", "8", "--jobs", "4", "--seed", "3"]).unwrap();
        let stats = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(stats(&serial), stats(&par));
        assert_ne!(serial.lines().next(), par.lines().next());
    }

    #[test]
    fn sweep_dashboard_runs_with_and_without_progress() {
        // --dashboard installs a collector; serialize with the other
        // telemetry-touching tests.
        let _guard = telemetry_lock();
        let out =
            runv(&["sweep", "4", "--reps", "4", "--jobs", "2", "--seed", "3", "--dashboard"])
                .unwrap();
        assert!(out.contains("completion"), "{out}");
        // Dashboard output is stderr-only; stdout stays the stats table.
        assert!(!out.contains("worker 0"), "{out}");
        // The numbers are identical to a plain sweep: the dashboard is
        // pure observability.
        let plain = runv(&["sweep", "4", "--reps", "4", "--jobs", "2", "--seed", "3"]).unwrap();
        assert_eq!(out, plain);
    }

    #[test]
    fn explain_text_reports_path_blame_and_bounds() {
        let out = runv(&["explain", "4", "--seed", "7"]).unwrap();
        assert!(out.contains("executed critical path"), "{out}");
        assert!(out.contains("blame:"), "{out}");
        assert!(out.contains("what-if:"), "{out}");
        assert!(out.contains("[ok]"), "bounds must hold: {out}");
        assert!(out.contains("X/W/o"), "gantt legend: {out}");
    }

    #[test]
    fn explain_json_is_valid_and_job_count_invariant() {
        let a = runv(&["explain", "fourslice", "--format", "json", "--seed", "7"]).unwrap();
        let b = runv(&[
            "explain", "fourslice", "--format", "json", "--seed", "7", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(a, b, "explain output must not depend on --jobs");
        let v = flagsim_telemetry::json::parse(&a).expect("valid JSON");
        assert!(v.get("whatif").is_some(), "{a}");
        assert_eq!(
            v.get("seed").and_then(|s| s.as_f64()),
            Some(7.0),
            "{a}"
        );
    }

    #[test]
    fn explain_matches_run_completion() {
        // `explain` analyzes exactly the run `run` reports: same seed,
        // same completion header.
        let run_out = runv(&["run", "4", "--seed", "9"]).unwrap();
        let explain_out = runv(&["explain", "4", "--seed", "9"]).unwrap();
        let completion: f64 = run_out
            .lines()
            .next()
            .and_then(|l| l.split("completion ").nth(1))
            .and_then(|l| l.split('s').next())
            .and_then(|v| v.parse().ok())
            .expect("run header has a completion");
        let makespan: f64 = explain_out
            .lines()
            .find_map(|l| l.split("makespan ").nth(1))
            .and_then(|l| l.split('s').next())
            .and_then(|v| v.parse().ok())
            .expect("explain echoes the trace summary");
        // run prints one decimal, explain three; agree to rounding.
        assert!(
            (completion - makespan).abs() < 0.06,
            "run said {completion}s, explain said {makespan}s"
        );
    }

    #[test]
    fn explain_rejects_bad_input() {
        assert!(runv(&["explain"]).is_err());
        assert!(runv(&["explain", "9"]).is_err());
        assert!(runv(&["explain", "4", "--format", "yaml"]).is_err());
        assert!(runv(&["explain", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["explain", "4", "--team", "0"]).is_err());
    }

    #[test]
    fn sweep_streaming_mode_matches_retained_mean() {
        let retained = runv(&["sweep", "3", "--reps", "8", "--seed", "5"]).unwrap();
        let streamed =
            runv(&["sweep", "3", "--reps", "8", "--seed", "5", "--stream"]).unwrap();
        assert!(streamed.contains("streaming statistics"), "{streamed}");
        // n/mean/stddev/min agree either way (the P² median is an
        // estimate, so the last two columns may differ in rounding).
        let head = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("completion") && !l.contains("CI"))
                .map(|l| l.split_whitespace().take(5).map(String::from).collect::<Vec<_>>())
        };
        assert_eq!(head(&retained), head(&streamed));
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(runv(&["sweep"]).is_err());
        assert!(runv(&["sweep", "9"]).is_err());
        assert!(runv(&["sweep", "4", "--reps", "0"]).is_err());
        assert!(runv(&["sweep", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["sweep", "4", "--reps", "abc"]).is_err());
        // A team too small for the scenario fails every repetition.
        let e = runv(&["sweep", "3", "--team", "1", "--reps", "2"]).unwrap_err();
        assert!(e.message.contains("all 2 repetitions failed"), "{e}");
    }

    #[test]
    fn run_rejects_nonsense() {
        assert!(runv(&["run", "9"]).is_err());
        assert!(runv(&["run", "1", "--kind", "quill"]).is_err());
        assert!(runv(&["run", "1", "--markers", "0"]).is_err());
        assert!(runv(&["run", "1", "--seed", "abc"]).is_err());
        assert!(runv(&["run"]).is_err());
    }

    #[test]
    fn check_scenario_reports_clean_and_warns() {
        // A clean scenario: no error-level findings, exit Ok.
        let out = runv(&["check", "4", "--seed", "7"]).unwrap();
        assert!(out.contains("check:"), "{out}");
        assert!(!out.contains("error["), "{out}");
        // Crayons are a warning (SC403) but not a deny at the default
        // --deny error…
        let crayons = runv(&["check", "4", "--kind", "crayon", "--seed", "7"]).unwrap();
        assert!(crayons.contains("warning[SC403]"), "{crayons}");
        // …and do fail under --deny warning.
        let e = runv(&[
            "check", "4", "--kind", "crayon", "--seed", "7", "--deny", "warning",
        ])
        .unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
        // An under-staffed team is an error (SC404) and denies by default.
        let e = runv(&["check", "4", "--team", "2", "--seed", "7"]).unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
    }

    #[test]
    fn check_every_builtin_scenario_is_error_free() {
        for s in ["1", "2", "3", "4", "pipelined", "alternating"] {
            let out = runv(&["check", s, "--seed", "7"]).unwrap();
            assert!(!out.contains("error["), "{s}: {out}");
        }
    }

    #[test]
    fn check_demo_deadlock_finds_the_lock_order_cycle() {
        let e = runv(&["check", "demo-deadlock"]).unwrap_err();
        assert!(e.message.contains("1 error(s)"), "{e}");
        // The diagnostics themselves went to stdout; the summary names
        // the target.
        assert!(e.message.contains("demo-deadlock"), "{e}");
        // Allow-listing the cycle turns the drill green.
        let out = runv(&["check", "demo-deadlock", "--allow", "SC204"]).unwrap();
        assert!(out.contains("no findings"), "{out}");
        // JSON rendering carries the cycle and parses.
        let e = runv(&["check", "demo-deadlock", "--format", "json"]).unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
    }

    #[test]
    fn check_flag_and_plan_targets() {
        // A library flag target: spec lints only.
        let out = runv(&["check", "mauritius"]).unwrap();
        assert!(out.contains("flag Mauritius"), "{out}");
        // A fault-plan target: validated without running anything.
        let e = runv(&["check", "dropout:9@10"]).unwrap_err();
        assert!(e.message.contains("check failed"), "targets student 9 of 4: {e}");
        let out = runv(&["check", "break:red@30,bell@120"]).unwrap();
        assert!(!out.contains("error["), "{out}");
        // Nonsense plan strings are parse errors, not findings.
        assert!(runv(&["check", "explode:now@5"]).is_err());
    }

    #[test]
    fn check_static_only_skips_the_observation_run() {
        let out = runv(&["check", "4", "--static-only"]).unwrap();
        assert!(out.contains("check:"), "{out}");
        assert!(!out.contains("error["), "{out}");
    }

    #[test]
    fn check_json_is_identical_across_job_counts() {
        let one = runv(&[
            "check", "4", "--format", "json", "--seed", "7", "--jobs", "1",
        ])
        .unwrap();
        let four = runv(&[
            "check", "4", "--format", "json", "--seed", "7", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(one, four, "--jobs must never change the findings");
        let v = flagsim_telemetry::json::parse(&one).expect("valid JSON");
        assert!(v.get("counts").is_some());
        assert!(v.get("diagnostics").and_then(|d| d.as_array()).is_some());
    }

    #[test]
    fn check_rejects_bad_input() {
        assert!(runv(&["check"]).is_err());
        assert!(runv(&["check", "4", "--deny", "fatal"]).is_err());
        assert!(runv(&["check", "4", "--format", "xml"]).is_err());
        assert!(runv(&["check", "narnia"]).is_err());
        assert!(runv(&["check", "4", "--jobs", "0"]).is_err());
    }

    #[test]
    fn check_flag_targets_lint_at_a_raster() {
        // Library flags are clean at their recommended raster.
        let out = runv(&["check", "mauritius"]).unwrap();
        assert!(out.contains("no findings"), "{out}");
        // The same flag at a coarse raster loses stripes: SC102 warnings
        // that trip --deny warning…
        let out = runv(&["check", "mauritius", "--size", "2x2"]).unwrap();
        assert!(out.contains("warning[SC102]"), "{out}");
        let e = runv(&["check", "mauritius", "--size", "2x2", "--deny", "warning"])
            .unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
        // …unless the allow-list waves them through.
        let out = runv(&[
            "check", "mauritius", "--size", "2x2", "--deny", "warning", "--allow", "SC102",
        ])
        .unwrap();
        assert!(out.contains("flag Mauritius at 2x2"), "{out}");
        // JSON mode parses.
        let out = runv(&["check", "poland", "--format", "json"]).unwrap();
        assert!(flagsim_telemetry::json::parse(&out).is_ok(), "{out}");
        // A readable file that names no scenario is a flag file.
        let path = std::env::temp_dir().join(format!("flagsim-check-{}.txt", std::process::id()));
        std::fs::write(&path, "flag \"Half\" 8x8\nlayer \"left\" red rect 0 0 0.5 1\n").unwrap();
        let out = runv(&["check", path.to_str().unwrap(), "--size", "4x4"]);
        std::fs::remove_file(&path).ok();
        let out = out.unwrap();
        assert!(out.contains("flag Half at 4x4"), "{out}");
        assert_eq!(out.matches("note[SC105]").count(), 2, "blanks at both rasters: {out}");
        // Unknown targets that are also unreadable files error out.
        assert!(runv(&["check", "narnia", "--size", "2x2"]).is_err());
    }

    #[test]
    fn run_and_sweep_honor_no_check() {
        // The preflight passes for the built-ins, so --no-check changes
        // nothing observable here — it must still be accepted.
        let checked = runv(&["run", "4", "--seed", "7"]).unwrap();
        let unchecked = runv(&["run", "4", "--seed", "7", "--no-check"]).unwrap();
        assert_eq!(checked, unchecked);
        let out = runv(&[
            "sweep", "3", "--reps", "2", "--jobs", "1", "--no-check", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("rep(s)"), "{out}");
    }

    #[test]
    fn render_svg_mode() {
        let out = runv(&["render", "poland", "svg"]).unwrap();
        assert!(out.starts_with("<svg"));
        assert_eq!(out.matches("<rect").count(), 60);
    }

    #[test]
    fn session_prints_board_and_lessons() {
        let out = runv(&["session", "--repeat"]).unwrap();
        assert!(out.contains("scenario 1 (repeat)"));
        assert!(out.contains("What did we just see?"));
        assert!(out.contains("hardware differences"));
    }

    #[test]
    fn graph_shows_dot_and_schedule() {
        let out = runv(&["graph", "great britain"]).unwrap();
        assert!(out.contains("digraph"));
        assert!(out.contains("critical path: blue field -> white diagonals -> red cross"));
        assert!(out.contains("parallelism 1.00"));
        assert!(runv(&["graph", "great britain", "--procs", "0"]).is_err());
    }

    #[test]
    fn grade_text_end_to_end() {
        let perfect = "task black stripe\ntask green stripe\ntask red triangle\n\
                       task white dot\nedge black stripe -> red triangle\n\
                       edge green stripe -> red triangle\nedge red triangle -> white dot\n";
        let out = grade_text(perfect).unwrap();
        assert!(out.contains("Perfect"));
        assert!(out.contains("yes"));
        let chain = "task black stripe\ntask white stripe\ntask green stripe\n\
                     task red triangle\ntask white dot\n\
                     edge black stripe -> white stripe\nedge white stripe -> green stripe\n\
                     edge green stripe -> red triangle\nedge red triangle -> white dot\n";
        let out = grade_text(chain).unwrap();
        assert!(out.contains("LinearChain"));
        assert!(out.contains("no"));
    }

    #[test]
    fn parse_text_end_to_end() {
        let out = parse_text(
            "flag \"Mini\" 4x2\nlayer \"top\" red hstripe 0 2\nlayer \"bottom\" green hstripe 1 2\n",
        )
        .unwrap();
        assert!(out.contains("parsed \"Mini\""));
        assert!(out.contains("flat (fully parallel)"));
        assert!(out.contains("RRRR"));
        assert!(parse_text("flag oops").is_err());
    }

    #[test]
    fn pack_builds_every_artifact() {
        let files = build_pack(
            &library::mauritius(),
            ImplementKind::ThickMarker,
            7,
        )
        .unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "flag.txt",
            "flag.svg",
            "slides.txt",
            "checklist.txt",
            "quiz.txt",
            "quiz_key.txt",
            "sample_session.txt",
            "scenario4_gantt.svg",
            "jordan_dependencies.dot",
            "jordan_schedule.svg",
            "jordan_schedule_animated.svg",
            "vocabulary.txt",
            "scenario4_students.csv",
            "scenario4_contention.csv",
            "scenario4_events.csv",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Spot-check content.
        let get = |n: &str| &files.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(get("slides.txt").contains("scenario 4"));
        assert!(get("quiz_key.txt").contains('*'));
        assert!(get("sample_session.txt").contains("What did we just see?"));
        assert!(get("jordan_dependencies.dot").contains("digraph"));
        assert!(get("scenario4_gantt.svg").starts_with("<svg"));
    }

    #[test]
    fn watch_script_shows_the_flag_filling_in() {
        let out = runv(&["watch", "4", "--script", "LLG", "--width", "100"]).unwrap();
        let progress: Vec<&str> = out.lines().filter(|l| l.ends_with(" cells")).collect();
        assert_eq!(progress.len(), 4, "the opening frame, then one per key: {out}");
        assert!(progress[0].ends_with(" 0/96 cells"), "{out}");
        assert!(!progress[1].ends_with(" 0/96 cells"), "{out}");
        assert!(progress[3].ends_with(" 96/96 cells"), "{out}");
        assert!(runv(&["watch", "--script", "G"]).is_err());
        assert!(runv(&["replay", "4"]).is_err(), "folded into watch --script");
    }

    #[test]
    fn report_regenerates_the_evaluation() {
        let out = runv(&["report"]).unwrap();
        assert!(out.contains("Table I"));
        assert!(out.contains("McNemar"));
        assert!(!out.contains('!'), "no table mismatches expected");
    }

    #[test]
    fn vocab_lists_and_looks_up() {
        let all = runv(&["vocab"]).unwrap();
        assert!(all.contains("contention"));
        assert!(all.contains("pipelining"));
        let one = runv(&["vocab", "speedup"]).unwrap();
        assert!(one.contains("T1 / Tp"));
        assert!(runv(&["vocab", "quantum"]).is_err());
    }

    #[test]
    fn pack_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("flagsim-pack-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let out = runv(&["pack", "--out", &dir_s]).unwrap();
        assert!(out.contains("slides.txt"));
        assert!(dir.join("quiz.txt").exists());
        assert!(dir.join("flag.svg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_requires_out() {
        assert!(runv(&["pack"]).is_err());
    }

    #[test]
    fn grade_and_parse_need_files() {
        assert!(runv(&["grade"]).is_err());
        assert!(runv(&["parse"]).is_err());
        assert!(runv(&["grade", "/nonexistent/file"]).is_err());
    }

    /// Serialize tests that install the process-global telemetry
    /// collector (`profile`, `--trace-out`): concurrent installs would
    /// steal each other's spans.
    fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn scenario_aliases_resolve() {
        let out = runv(&["run", "onestripe", "--seed", "7"]).unwrap();
        assert!(out.contains("scenario 3"), "{out}");
        let out = runv(&["run", "fourslice", "--seed", "7"]).unwrap();
        assert!(out.contains("scenario 4"), "{out}");
    }

    #[test]
    fn profile_chrome_trace_is_valid_and_balanced() {
        let _serial = telemetry_lock();
        let out = runv(&["profile", "fourslice", "--reps", "2", "--seed", "7"]).unwrap();
        let events =
            flagsim_telemetry::json::validate_chrome_trace(&out).expect("valid chrome trace");
        assert!(events > 0, "expected events in:\n{out}");
        assert!(out.contains("sweep.rep"), "{out}");
        assert!(out.contains("desim.run"), "{out}");
    }

    #[test]
    fn profile_table_folded_and_metrics() {
        let _serial = telemetry_lock();
        let table = runv(&[
            "profile", "onestripe", "--reps", "2", "--format", "table", "--metrics",
        ])
        .unwrap();
        assert!(table.contains("sweep.rep"), "{table}");
        assert!(table.contains("--- metrics ---"), "{table}");
        assert!(table.contains("desim.runs"), "{table}");
        let folded =
            runv(&["profile", "onestripe", "--reps", "2", "--format", "folded"]).unwrap();
        assert!(
            folded.lines().any(|l| l.contains("sweep;sweep.rep")),
            "{folded}"
        );
    }

    #[test]
    fn profile_out_writes_file() {
        let _serial = telemetry_lock();
        let path = std::env::temp_dir()
            .join(format!("flagsim-profile-{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let out = runv(&["profile", "onestripe", "--reps", "2", "--out", &path_s]).unwrap();
        assert!(out.contains("span(s) written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(flagsim_telemetry::json::validate_chrome_trace(&text).unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert!(runv(&["profile"]).is_err());
        assert!(runv(&["profile", "4", "--format", "xml"]).is_err());
        assert!(runv(&["profile", "4", "--reps", "0"]).is_err());
        assert!(runv(&["profile", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["profile", "9"]).is_err());
    }

    #[test]
    fn run_trace_out_writes_chrome_trace() {
        let _serial = telemetry_lock();
        let path = std::env::temp_dir()
            .join(format!("flagsim-run-trace-{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let out = runv(&["run", "4", "--seed", "7", "--trace-out", &path_s]).unwrap();
        assert!(out.contains("scenario 4"), "stdout stays the report: {out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(flagsim_telemetry::json::validate_chrome_trace(&text).unwrap() > 0);
        assert!(text.contains("run.activity"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
