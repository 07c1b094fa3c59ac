//! `flagsim run` and `flagsim faults`: one scenario, optionally under an
//! injected fault plan.

use super::args::{positive, usage_error};
use super::{err, plan, policy, trace_out, CliError, Selection};
use flagsim_core::faults::{FaultPlan, RecoveryPolicy};
use std::fmt::Write as _;

options! {
    pub(super) struct RunArgs("run") |a| {
        scenario: String = a.operand("<SCENARIO>"),
        sel: Selection = Selection::declare(a)?,
        markers: usize = a.opt("markers", "N", positive)?.unwrap_or(1),
        gantt: bool = a.switch("gantt"),
        trace_out: Option<String> = trace_out(a)?,
        no_check: bool = a.switch("no-check"),
    }

    pub(super) struct FaultsArgs("faults") |a| {
        scenario: Option<String> = a.optional_operand("<SCENARIO>"),
        plan: Option<FaultPlan> = plan(a)?,
        random: bool = a.switch("random"),
        policy: Option<RecoveryPolicy> = policy(a)?,
        sel: Selection = Selection::declare(a)?,
        trace_out: Option<String> = trace_out(a)?,
        no_check: bool = a.switch("no-check"),
        demo_deadlock: bool = a.switch("demo-deadlock"),
    }
}

pub(super) fn cmd_run(a: RunArgs) -> Result<String, CliError> {
    let mut s = a.sel.setup(&a.scenario)?;
    s.kit = s.kit.with_count_all(a.markers);
    let report = s.run_once(&FaultPlan::none(), a.no_check, a.trace_out.as_deref())?;
    // Human diagnostics go to stderr (PR-3 sweep convention) so stdout
    // stays the machine-readable report.
    if !report.correct {
        eprintln!(
            "run: finished grid does not match {} — wrong flag on the wall",
            report.flag_name
        );
    }
    if report.breakages > 0 {
        eprintln!("run: {} implement breakage(s) during the run", report.breakages);
    }
    let mut out = report.detail();
    if a.gantt {
        let _ = writeln!(out, "\n{}", report.trace.gantt(72));
    }
    Ok(out)
}

/// Two processes, two markers, opposite acquisition order: the textbook
/// circular wait (the same drill `check` and `verify` analyze). The
/// engine's stall detector catches it and reports the full wait-for graph
/// instead of hanging or panicking.
fn demo_deadlock() -> String {
    use flagsim_desim::SimError;

    let mut out = String::from(
        "Two students, two markers, opposite grab order — the classic\n\
         circular wait. Instead of hanging, the engine reports:\n\n",
    );
    match flagsim_simcheck::demo_deadlock_engine().try_run() {
        Err(SimError::Stalled { waiters }) => {
            let _ = writeln!(out, "error: {}", SimError::Stalled { waiters: waiters.clone() });
            let _ = writeln!(
                out,
                "\nEvery blocked student appears with what they hold and what\n\
                 they wait for — enough to see the cycle and pick a victim."
            );
            debug_assert!(!waiters.is_empty());
        }
        Err(other) => {
            let _ = writeln!(out, "unexpected error: {other}");
        }
        Ok(_) => {
            let _ = writeln!(out, "unexpectedly completed (engine bug?)");
        }
    }
    out
}

pub(super) fn cmd_faults(a: FaultsArgs) -> Result<String, CliError> {
    if a.demo_deadlock {
        return Ok(demo_deadlock());
    }
    let Some(which) = &a.scenario else {
        return Err(usage_error::<FaultsArgs>());
    };
    let s = a.sel.setup(which)?;
    let size = s.scenario.team_size(&s.flag, &s.cfg);
    let mut plan = match (a.plan, a.random) {
        (Some(plan), false) => plan,
        (None, true) => FaultPlan::random(a.sel.seed, size, &s.flag.colors_needed(&[])),
        (Some(_), true) => return err("--plan and --random are mutually exclusive"),
        (None, false) => return err("faults needs --plan SPEC or --random"),
    };
    if let Some(p) = a.policy {
        plan = plan.with_policy(p);
    }
    let report = s.run_once(&plan, a.no_check, a.trace_out.as_deref())?;
    // Measurements on stdout; the blow-by-blow incident narrative is
    // human diagnostics and goes to stderr (PR-3 sweep convention), so
    // `flagsim faults ... > results.txt` stays machine-readable.
    let mut out = report.detail_core();
    if let Some(res) = &report.resilience {
        out.push_str(&res.summary());
        eprint!("{}", res.narrative());
    }
    Ok(out)
}
