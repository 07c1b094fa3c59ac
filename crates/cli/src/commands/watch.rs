//! `flagsim watch`: recorded and live runs.

use super::args::{text, usage_error};
use super::{err, CliError, Selection};
use flagsim_core::faults::FaultPlan;
use flagsim_watch::input::{script_keys, Key};

options! {
    pub(super) struct WatchArgs("watch") |a| {
        scenario: Option<String> = a.optional_operand("<SCENARIO>"),
        sel: Selection = Selection::declare(a)?,
        script: Option<Vec<Key>> = a.opt("script", "KEYS", script_keys)?,
        frames_out: Option<String> = a.opt("frames-out", "FILE", text)?,
        width: usize =
            a.opt("width", "N", width)?.unwrap_or_else(flagsim_watch::term::detect_width),
        no_check: bool = a.switch("no-check"),
        trace: Option<String> = a.opt("trace", "FILE", text)?,
        connect: Option<String> = a.opt("connect", "ADDR", text)?,
        follow: Option<String> = a.opt("follow", "FILE", text)?,
        once: bool = a.switch("once"),
    }
}

/// Re-run a recorded scenario (the scenario, flag, kind, and seed fully
/// determine the run) and return its display title and report.
fn recorded_run(
    which: &str,
    sel: &Selection,
    check: bool,
) -> Result<(String, flagsim_core::RunReport), CliError> {
    let s = sel.setup(which)?;
    let report = s.run_once(&FaultPlan::none(), !check, None)?;
    let title = format!("{} — {} (seed {})", report.label, s.spec.name, sel.seed);
    Ok((title, report))
}

/// `--width N`: terminal columns, 20 to 1000.
fn width(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|w| (20..=1000).contains(w))
        .ok_or_else(|| "expected a column count from 20 to 1000".to_owned())
}

pub(super) fn cmd_watch(a: WatchArgs) -> Result<String, CliError> {
    use flagsim_watch::live::SnapshotSource;
    use flagsim_watch::{app, chrome, frame, input};
    use std::io::IsTerminal;
    let width = a.width;
    let live = match (&a.connect, &a.follow) {
        (Some(addr), _) => Some(SnapshotSource::connect(addr)?),
        (_, Some(path)) => Some(SnapshotSource::follow(path)),
        _ => None,
    };
    if let Some(src) = live {
        return watch_live(src, a.once, width);
    }
    let data = if let Some(path) = &a.trace {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = chrome::parse_chrome_trace(&text)?;
        app::ReplayData::from_trace(format!("trace file {path}"), trace)
    } else {
        let Some(which) = &a.scenario else {
            return Err(usage_error::<WatchArgs>());
        };
        let (title, report) = recorded_run(which, &a.sel, !a.no_check)?;
        app::ReplayData::from_report(title, &report)
    };
    // Scripted mode: a fixed key sequence, one frame per key, no clock —
    // byte-deterministic, for tests and CI.
    if let Some(keys) = &a.script {
        let frames = app::run_script(&data, keys, width);
        let dump = frame::dump_frames(&frames);
        if let Some(path) = &a.frames_out {
            std::fs::write(path, &dump).map_err(|e| format!("cannot write {path}: {e}"))?;
            return Ok(format!("watch: {} frame(s) written to {path}\n", frames.len()));
        }
        return Ok(dump);
    }
    if std::io::stdout().is_terminal() {
        if let Err(e) = app::run_interactive(&data) {
            // No raw-mode terminal after all (no /dev/tty, no stty):
            // fall through to the plain final frame.
            eprintln!("watch: cannot go interactive ({e}); printing the final frame");
        } else {
            return Ok(String::new());
        }
    }
    // Non-TTY (or interactive-failed) fallback: the run's final state as
    // one plain frame, so piped output stays useful.
    let mut state = app::App::new(data.end_ms());
    state.handle_key(input::Key::End);
    Ok(app::render(&data, &state, width).render())
}

/// Live mode: tail fleet snapshots from a socket (`--connect`) or a
/// rewritten snapshot file (`--follow`) and render the fleet panel.
/// Interactive stdout repaints in place; piped stdout prints one
/// summary line per new snapshot. `--once` exits after the first
/// snapshot (smoke tests). Never writes to the source.
fn watch_live(
    mut src: flagsim_watch::live::SnapshotSource,
    once: bool,
    width: usize,
) -> Result<String, CliError> {
    use std::io::{IsTerminal, Write as _};
    let interactive = std::io::stdout().is_terminal() && !once;
    let panel = std::sync::Mutex::new(flagsim_watch::term::Panel::new(interactive, width));
    let mut last_line = String::new();
    let (frame, ended) = flagsim_watch::live::repaint_loop(
        &mut src,
        &panel,
        &mut std::io::stdout(),
        String::new,
        |_, frame| {
            if once {
                return false;
            }
            // Plain fallback: one log-friendly line per change.
            let line = frame.lines().nth(1).unwrap_or("");
            if line != last_line {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
                last_line = line.to_owned();
            }
            true
        },
    );
    match ended {
        // The source ending (sweep finished, file removed) is the normal
        // way out; the last state stays on screen.
        Some(e) if frame.is_empty() => err(e),
        Some(e) => {
            eprintln!("watch: {e}");
            Ok(if interactive { String::new() } else { frame })
        }
        None => Ok(frame),
    }
}
