//! End-to-end tests of the real `flagsim` binary (spawned as a process).

use std::process::Command;

fn flagsim(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_flagsim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let (stdout, _, ok) = flagsim(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn render_flows_through_stdout() {
    let (stdout, _, ok) = flagsim(&["render", "mauritius"]);
    assert!(ok);
    assert!(stdout.contains("RRRRRRRRRRRR"));
}

#[test]
fn run_scenario_exits_zero_with_report() {
    let (stdout, _, ok) = flagsim(&["run", "3", "--seed", "9"]);
    assert!(ok);
    assert!(stdout.contains("scenario 3"));
    assert!(stdout.contains("correct"));
}

#[test]
fn faults_narrative_lands_on_stderr() {
    let (stdout, stderr, ok) = flagsim(&[
        "faults", "3", "--plan", "break:blue@10,dropout:2@20", "--seed", "7",
    ]);
    assert!(ok);
    // stdout: the measurements — header, per-student table, resilience
    // summary with the overhead total.
    assert!(stdout.contains("fault(s) planned"), "{stdout}");
    assert!(stdout.contains("recovery overhead"), "{stdout}");
    // stderr: the blow-by-blow incident narrative.
    assert!(stderr.contains("blue implement broke"), "{stderr}");
    assert!(stderr.contains("dropped out"), "{stderr}");
    assert!(!stdout.contains("blue implement broke"), "{stdout}");
}

#[test]
fn explain_json_round_trips_and_is_seed_stable() {
    let (a, _, ok_a) = flagsim(&["explain", "fourslice", "--format", "json", "--seed", "7"]);
    let (b, _, ok_b) = flagsim(&["explain", "fourslice", "--format", "json", "--seed", "7"]);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "explain JSON must be deterministic per seed");
    assert!(a.trim_start().starts_with('{'), "{a}");
    assert!(a.contains("\"critical_path\""), "{a}");
}

#[test]
fn explain_of_a_failing_run_prints_the_run_error() {
    // A team of 1 cannot staff scenario 3's four stripes. `explain` runs
    // one repetition, so it reports that run's error as is, with no
    // sweep summary around it and exit code 2.
    let (stdout, stderr, code) = flagsim_code(&["explain", "3", "--team", "1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(
        stderr,
        "error: scenario 3: one stripe each needs 4 coloring students, team has 1\n"
    );
}

#[test]
fn sweep_dashboard_degrades_to_plain_lines_when_piped() {
    // The test harness captures stderr through a pipe, so the binary
    // must take the non-TTY path: plain `sweep: ...` step lines closed by
    // `sweep: done`, no ANSI cursor movement, and stdout identical to a
    // dashboard-less sweep. The coordinator path (`--checkpoint` without
    // workers) publishes its merged reps to the same panel.
    let ckpt = std::env::temp_dir().join(format!("flagsim-dash-{}.ckpt", std::process::id()));
    let sweep = ["sweep", "onestripe", "--reps", "40", "--jobs", "2", "--seed", "3"];
    let coordinator = [&sweep[..], &["--checkpoint", ckpt.to_str().unwrap()]].concat();
    for args in [&sweep[..], &coordinator[..]] {
        let (stdout, stderr, ok) = flagsim(&[args, &["--dashboard"]].concat());
        assert!(ok, "{stderr}");
        assert!(stdout.contains("completion"), "{stdout}");
        assert!(!stderr.contains("\x1b["), "no ANSI when piped: {stderr:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        let last_step = "sweep: 40/40 rep(s) done, 0 failed | mean ";
        assert!(lines.iter().any(|l| l.starts_with(last_step)), "{args:?}: {stderr}");
        assert!(lines.last().is_some_and(|l| l.starts_with("sweep: done |")), "{stderr}");
        let (plain, _, _) = flagsim(args);
        assert_eq!(stdout, plain, "dashboard must not change the numbers");
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn sweep_progress_steps_forward_at_any_job_count() {
    // Progress arrives once per merged chunk, out of order across
    // threads: every line must still move forward, and none reads 0.
    let (_, stderr, ok) = flagsim(&[
        "sweep", "4", "--reps", "4000", "--seed", "3", "--stream", "--progress", "--jobs", "3",
    ]);
    assert!(ok, "{stderr}");
    let done: Vec<u64> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("sweep: ")?.split_once('/')?.0.parse().ok())
        .collect();
    assert!(done.len() >= 3, "a line per tenth, give or take a chunk: {stderr}");
    assert!(done.windows(2).all(|w| w[0] < w[1]) && done[0] > 0, "{stderr}");
    assert_eq!(done.last(), Some(&4000), "{stderr}");
}

#[test]
fn check_json_on_stdout_parses_with_chatter_on_stderr() {
    // `flagsim check 4 --format json > report.json` must yield pure
    // JSON: the report on stdout, every progress line on stderr.
    let (stdout, stderr, ok) = flagsim(&["check", "4", "--format", "json", "--seed", "7"]);
    assert!(ok, "{stderr}");
    let v = flagsim_telemetry::json::parse(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not valid JSON ({e}):\n{stdout}"));
    assert!(v.get("diagnostics").and_then(|d| d.as_array()).is_some());
    assert_eq!(
        v.get("counts").and_then(|c| c.get("error")).and_then(|e| e.as_f64()),
        Some(0.0),
        "{stdout}"
    );
    // The observation-run announcement is chatter, not output.
    assert!(stderr.contains("check:"), "{stderr}");
    assert!(!stdout.contains("happens-before analysis"), "{stdout}");
}

#[test]
fn check_deny_exits_nonzero_with_diagnostics_on_stdout() {
    // A denied check still prints the full report to stdout (so CI can
    // archive it) and fails with a short summary on stderr.
    let (stdout, stderr, ok) = flagsim(&["check", "demo-deadlock"]);
    assert!(!ok);
    assert!(stdout.contains("error[SC204]"), "{stdout}");
    assert!(stdout.contains("lock-order cycle"), "{stdout}");
    assert!(stderr.contains("check failed"), "{stderr}");
}

#[test]
fn bad_command_exits_nonzero_with_stderr() {
    let (_, stderr, ok) = flagsim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn grade_reads_a_real_file() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("flagsim-sub-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "task black stripe\ntask green stripe\ntask red triangle\ntask white dot\n\
         edge black stripe -> red triangle\nedge green stripe -> red triangle\n\
         edge red triangle -> white dot\n",
    )
    .unwrap();
    let (stdout, _, ok) = flagsim(&["grade", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("Perfect"));
}

#[test]
fn parse_lints_a_custom_flag_file() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("flagsim-flag-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "flag \"Half\" 8x8\nlayer \"left\" red rect 0 0 0.5 1\n",
    )
    .unwrap();
    let (stdout, _, ok) = flagsim(&["parse", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("cells are blank"), "{stdout}");
}

fn flagsim_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_flagsim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn sweep_argument_errors_exit_2_with_one_line_stderr() {
    for args in [
        &["sweep", "4", "--reps", "0"][..],
        &["sweep", "4", "--jobs", "0"],
        &["sweep", "4", "--workers", "0"],
        &["sweep", "4", "--connect", "not-an-address"],
        &["sweep", "4", "--connect", "127.0.0.1"], // port missing
        &["sweep", "4", "--checkpoint-every", "0", "--checkpoint", "/tmp/x"],
        &["sweep", "4", "--max-wall-secs", "-1"],
        &["worker"], // missing --listen
    ] {
        let (_, stderr, code) = flagsim_code(args);
        assert_eq!(code, 2, "args {args:?} must exit 2, stderr: {stderr}");
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "one-line stderr for {args:?}, got: {stderr}"
        );
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
}

/// A malformed `--obs-serve` address is a usage error at parse time,
/// before any `--workers` child spawns or any name lookup runs.
#[test]
fn sweep_obs_serve_address_is_checked_at_parse_time() {
    for addr in ["999.0.0.1:1", "127.0.0.1", "not-an-address"] {
        let (stdout, stderr, code) =
            flagsim_code(&["sweep", "4", "--reps", "8", "--workers", "2", "--obs-serve", addr]);
        assert_eq!(code, 2, "--obs-serve {addr} must exit 2, stderr: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!(
                "error: flagsim sweep: --obs-serve \"{addr}\": bad address \"{addr}\" \
                 (want host:port)"
            ),
        );
        assert!(stdout.is_empty(), "{stdout}");
    }
}

#[test]
fn sweep_soft_deadline_exits_3_checkpoints_and_resumes_bit_identically() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("flagsim-deadline-{}.ckpt", std::process::id()));
    let ckpt_s = ckpt.to_str().unwrap();
    // A zero-second wall budget expires before any repetition merges.
    let (_, stderr, code) = flagsim_code(&[
        "sweep", "3", "--reps", "6", "--seed", "5", "--jobs", "1",
        "--checkpoint", ckpt_s, "--checkpoint-every", "1", "--max-wall-secs", "0",
    ]);
    assert_eq!(code, 3, "deadline expiry has a distinct exit code: {stderr}");
    assert!(stderr.contains("soft deadline"), "{stderr}");
    assert!(stderr.contains("--resume"), "resume hint expected: {stderr}");
    assert!(ckpt.exists(), "deadline expiry must leave a checkpoint");
    // Resuming finishes the campaign with statistics identical to an
    // uninterrupted streaming sweep (compare everything below the
    // run-description header line).
    let (resumed, stderr, code) = flagsim_code(&["sweep", "--resume", ckpt_s]);
    assert_eq!(code, 0, "{stderr}");
    let (fresh, _, ok) = flagsim(&["sweep", "3", "--reps", "6", "--seed", "5", "--stream"]);
    std::fs::remove_file(&ckpt).ok();
    assert!(ok);
    let tail = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap_or_default();
    assert_eq!(
        tail(&resumed),
        tail(&fresh),
        "resumed stats must match uninterrupted:\n{resumed}\nvs\n{fresh}"
    );
}

#[test]
fn sweep_with_spawned_workers_matches_serial_statistics() {
    let shard = flagsim_code(&[
        "sweep", "onestripe", "--reps", "6", "--seed", "5", "--workers", "2", "--chunk", "2",
    ]);
    assert_eq!(shard.2, 0, "sharded sweep failed: {}", shard.1);
    assert!(shard.0.contains("2 worker(s)"), "{}", shard.0);
    let (serial, _, ok) = flagsim(&["sweep", "onestripe", "--reps", "6", "--seed", "5", "--stream"]);
    assert!(ok);
    let tail = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap_or_default();
    assert_eq!(
        tail(&shard.0),
        tail(&serial),
        "worker-sharded stats must be bit-identical to serial:\n{}\nvs\n{serial}",
        shard.0
    );
}

#[test]
fn worker_prints_its_bound_address_and_serves_a_connect_sweep() {
    use std::io::BufRead as _;
    // Start a standalone worker on an ephemeral port.
    let mut worker = Command::new(env!("CARGO_BIN_EXE_flagsim"))
        .args(["worker", "--listen", "127.0.0.1:0", "--once", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("worker spawns");
    let mut line = String::new();
    std::io::BufReader::new(worker.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("worker announces");
    let addr = line.trim().rsplit(' ').next().expect("address token").to_owned();
    assert!(line.starts_with("worker: listening on "), "{line}");
    // Drive a sweep through it.
    let (stdout, stderr, code) = flagsim_code(&[
        "sweep", "onestripe", "--reps", "4", "--seed", "9", "--connect", &addr,
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("1 worker(s)"), "{stdout}");
    worker.wait().expect("worker exits after --once session");
    let (serial, _, ok) = flagsim(&["sweep", "onestripe", "--reps", "4", "--seed", "9", "--stream"]);
    assert!(ok);
    let tail = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap_or_default();
    assert_eq!(tail(&stdout), tail(&serial));
}

#[test]
fn distributed_sweep_merges_one_trace_with_worker_tracks_and_obs_snapshot() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("flagsim-dist-trace-{}.json", std::process::id()));
    let obs = dir.join(format!("flagsim-dist-obs-{}.json", std::process::id()));
    let (stdout, stderr, code) = flagsim_code(&[
        "sweep", "onestripe", "--reps", "6", "--seed", "11", "--workers", "2", "--chunk", "2",
        "--trace-out", trace.to_str().unwrap(), "--obs-out", obs.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");

    // Shipping telemetry must not move a single statistics bit.
    let (serial, _, ok) =
        flagsim(&["sweep", "onestripe", "--reps", "6", "--seed", "11", "--stream"]);
    assert!(ok);
    let tail = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap_or_default();
    assert_eq!(
        tail(&stdout),
        tail(&serial),
        "stats must be bit-identical with telemetry shipping on:\n{stdout}\nvs\n{serial}"
    );

    // The merged trace is one valid Chrome trace spanning the
    // coordinator and both worker processes.
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    std::fs::remove_file(&trace).ok();
    flagsim_telemetry::json::validate_chrome_trace(&text).expect("merged trace validates");
    assert!(text.contains("\"process_name\""), "process metadata expected: {}", &text[..200]);
    for worker in ["local-0", "local-1"] {
        assert!(text.contains(worker), "trace lacks a {worker} track group");
    }
    assert!(text.contains("\"sweep.rep\""), "worker rep spans expected");

    // The fleet snapshot names both workers and the campaign.
    let snap = std::fs::read_to_string(&obs).expect("obs file written");
    std::fs::remove_file(&obs).ok();
    for key in ["\"campaign\"", "\"workers\"", "\"local-0\"", "\"local-1\"", "\"series\""] {
        assert!(snap.contains(key), "obs snapshot lacks {key}: {snap}");
    }
}

#[test]
fn watch_scripted_dump_is_byte_identical_and_ends_at_the_run_grid() {
    // The determinism contract: same scenario, seed, script, and width
    // must dump byte-identical frames, and jumping to the end must show
    // the same completed grid `render` prints.
    let args = &[
        "watch", "fourslice", "--seed", "7", "--script", "p ttt G q", "--width", "100",
    ];
    let (a, stderr, ok_a) = flagsim(args);
    let (b, _, ok_b) = flagsim(args);
    assert!(ok_a && ok_b, "{stderr}");
    assert_eq!(a, b, "scripted watch must be byte-deterministic");
    assert!(a.contains("== frame 0 =="), "{a}");
    assert!(a.contains("96/96 cells"), "the G frame completes the grid: {a}");
    // The final frame's grid rows are the finished Mauritius flag.
    let (flag, _, _) = flagsim(&["render", "mauritius"]);
    let last = a.rsplit("== frame ").next().unwrap();
    for row in flag.lines().filter(|l| l.len() == 12) {
        assert!(last.contains(row), "completed grid row {row:?} missing:\n{last}");
    }
}

#[test]
fn watch_degrades_to_a_plain_final_frame_when_piped() {
    // stdout is a pipe here, so watch must skip raw mode and print the
    // run's final state as one escape-free frame.
    let (stdout, stderr, ok) = flagsim(&["watch", "fourslice", "--seed", "7", "--width", "80"]);
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("\x1b["), "no ANSI when piped: {stdout:?}");
    assert!(stdout.contains("watch: scenario 4"), "{stdout}");
    assert!(stdout.contains("96/96 cells"), "final frame expected: {stdout}");
    assert!(stdout.contains("gantt"), "{stdout}");
}

#[test]
fn watch_frames_out_writes_the_same_dump_to_a_file() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("flagsim-watch-frames-{}.txt", std::process::id()));
    let path_s = path.to_str().unwrap();
    let (stdout, stderr, ok) = flagsim(&[
        "watch", "onestripe", "--seed", "3", "--script", "G q", "--width", "90",
        "--frames-out", path_s,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("2 frame(s) written"), "{stdout}");
    let dump = std::fs::read_to_string(&path).expect("frames file written");
    let (inline, _, _) = flagsim(&[
        "watch", "onestripe", "--seed", "3", "--script", "G q", "--width", "90",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(dump, inline, "--frames-out must write exactly the stdout dump");
}

#[test]
fn watch_replays_a_recorded_trace_file() {
    // `run --trace-out` writes the telemetry Chrome trace; watch must
    // re-parse it and scrub it, with the cell/race panes degraded
    // (a trace file has spans, not grid cells).
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("flagsim-watch-trace-{}.json", std::process::id()));
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = flagsim(&["run", "4", "--seed", "7", "--trace-out", trace_s]);
    assert!(ok, "{stderr}");
    let (stdout, stderr, ok) = flagsim(&["watch", "--trace", trace_s, "--script", "G q"]);
    std::fs::remove_file(&trace).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("trace file"), "{stdout}");
    assert!(stdout.contains("gantt"), "{stdout}");
    assert!(stdout.contains("race check skipped"), "{stdout}");
    assert!(!stdout.contains("cells"), "no cell data from a span trace: {stdout}");
}

#[test]
fn watch_follow_once_renders_a_fleet_snapshot_read_only() {
    // A written FleetView snapshot is all live mode needs: --follow
    // tails the file, --once exits after the first frame, and the file
    // is never written back to.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("flagsim-watch-fleet-{}.json", std::process::id()));
    let mut fv = flagsim_shard::FleetView::default();
    fv.reset("0ddba11".into(), 32);
    fv.on_connected("w-0", 10);
    fv.on_lease("w-0", 20);
    for t in 0..8u64 {
        fv.on_rep("w-0", 30 + t * 100);
        fv.sample(30 + t * 100);
    }
    fv.merged = 8;
    let snapshot = fv.to_json(1_000);
    std::fs::write(&path, &snapshot).unwrap();
    let (stdout, stderr, ok) =
        flagsim(&["watch", "--follow", path.to_str().unwrap(), "--once", "--width", "100"]);
    let after = std::fs::read_to_string(&path).expect("snapshot still there");
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert_eq!(after, snapshot, "watch must never write to its source");
    assert!(stdout.contains("fleet: campaign 0ddba11"), "{stdout}");
    assert!(stdout.contains("merged 8/32 reps (25%)"), "{stdout}");
    assert!(stdout.contains("* w-0"), "{stdout}");
    assert!(!stdout.contains("\x1b["), "no ANSI when piped: {stdout:?}");
}

#[test]
fn watch_argument_errors_exit_2() {
    for args in [
        &["watch"][..],                               // no source at all
        &["watch", "4", "--width", "7"],              // width out of range
        &["watch", "4", "--script", "pz"],            // unknown key
        &["watch", "--trace", "/nonexistent.json"],   // unreadable trace
    ] {
        let (_, stderr, code) = flagsim_code(args);
        assert_eq!(code, 2, "args {args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
}

#[test]
fn verify_invariant_scenario_reports_sc412() {
    // Scenario 1 gives every student disjoint work: exploration proves
    // schedule invariance, chatter goes to stderr, verdict to stdout.
    let (stdout, stderr, ok) = flagsim(&["verify", "1", "--seed", "7"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("note[SC412]"), "{stdout}");
    assert!(stdout.contains("schedule-invariant"), "{stdout}");
    assert!(stderr.contains("verify: exploring"), "{stderr}");
    assert!(!stdout.contains("verify: exploring"), "{stdout}");
}

#[test]
fn verify_divergent_scenario_shows_minimal_witness_pair() {
    // The vertical-slices flow shop is order-dependent: SC410 with a
    // witness pair, and the observed SC302 tie cross-linked "divergent".
    let (stdout, stderr, ok) = flagsim(&["verify", "fourslice", "--seed", "7"]);
    assert!(ok, "warnings alone must not fail the default deny: {stderr}");
    assert!(stdout.contains("warning[SC410]"), "{stdout}");
    assert!(stdout.contains("witness A"), "{stdout}");
    assert!(stdout.contains("witness B"), "{stdout}");
    assert!(
        stdout.contains("differ in exactly one tie resolution"),
        "{stdout}"
    );
    assert!(
        stdout.contains("verify: divergent — some resolution changes the outcome"),
        "{stdout}"
    );
}

#[test]
fn verify_json_is_deterministic_and_parses() {
    let (a, _, ok_a) = flagsim(&["verify", "alternating", "--format", "json", "--seed", "5"]);
    let (b, _, ok_b) = flagsim(&["verify", "alternating", "--format", "json", "--seed", "5"]);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "verify JSON must be deterministic per seed");
    let v = flagsim_telemetry::json::parse(&a)
        .unwrap_or_else(|e| panic!("stdout is not valid JSON ({e}):\n{a}"));
    let diags = v.get("diagnostics").and_then(|d| d.as_array()).expect("diagnostics");
    assert!(!diags.is_empty(), "{a}");
}

#[test]
fn verify_demo_deadlock_confirms_the_static_cycle_dynamically() {
    // SC204 (static prediction) and SC411 (reachable schedule) must name
    // the same deadlock, and the cross-link must say so.
    let (stdout, stderr, ok) = flagsim(&["verify", "demo-deadlock"]);
    assert!(!ok, "a reachable deadlock is an error-level finding");
    assert!(stdout.contains("error[SC204]"), "{stdout}");
    assert!(stdout.contains("error[SC411]"), "{stdout}");
    assert!(stdout.contains("dynamically confirmed"), "{stdout}");
    assert!(stderr.contains("check failed"), "{stderr}");
}

#[test]
fn verify_witness_out_traces_replay_in_watch() {
    let dir = std::env::temp_dir();
    let prefix = dir.join(format!("flagsim-wit-{}", std::process::id()));
    let prefix = prefix.to_str().unwrap();
    let (_, stderr, ok) = flagsim(&[
        "verify", "fourslice", "--seed", "7", "--witness-out", prefix,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("witness A"), "{stderr}");
    let a = format!("{prefix}-a.json");
    let b = format!("{prefix}-b.json");
    let ta = std::fs::read_to_string(&a).expect("witness A written");
    let tb = std::fs::read_to_string(&b).expect("witness B written");
    assert_ne!(ta, tb, "the two witness schedules must differ observably");
    // Both sides load in the replay scrubber.
    for path in [&a, &b] {
        let (stdout, stderr, ok) = flagsim(&["watch", "--trace", path, "--script", "l"]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("== frame 0 =="), "{stdout}");
    }
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn verify_argument_errors_exit_2() {
    for args in [
        &["verify"][..],                         // no target
        &["verify", "nope"],                     // unknown scenario
        &["verify", "1", "--max-schedules", "0"] // bound must be positive
    ] {
        let (_, stderr, code) = flagsim_code(args);
        assert_eq!(code, 2, "args {args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
}

#[test]
fn watch_scenario_accepts_no_check() {
    // The replay source preflights by default; --no-check must still work
    // and produce the same frames on a clean scenario.
    let (with_check, _, ok_a) = flagsim(&["watch", "4", "--script", "l", "--seed", "7"]);
    let (without, _, ok_b) = flagsim(&["watch", "4", "--script", "l", "--seed", "7", "--no-check"]);
    assert!(ok_a && ok_b);
    assert_eq!(with_check, without, "preflight must not change the replay");
}

#[test]
fn undeclared_options_and_stray_arguments_exit_2_naming_the_command() {
    // Each of these used to run (exit 0) with the mistake silently ignored.
    for (args, names) in [
        (&["run", "4", "--sed", "7"][..], "--sed"),
        (&["sweep", "4", "--markers", "3"], "--markers"),
        (&["run", "4", "--gantt", "5"], "\"5\""),
        (&["graph", "jordan", "--procs", "2", "--procs", "x"], "--procs"),
        (&["check", "4", "--static-only", "--jobs", "2"], "--jobs"),
    ] {
        let (stdout, stderr, code) = flagsim_code(args);
        assert_eq!(code, 2, "args {args:?} must exit 2, stderr: {stderr}");
        assert!(stdout.is_empty(), "nothing may run for {args:?}: {stdout}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.starts_with(&format!("error: flagsim {}: ", args[0])), "{stderr}");
        assert!(first.contains(names), "{args:?} must name {names}: {stderr}");
    }
}

#[test]
fn sharded_sweep_rejects_progress_and_honors_no_check() {
    let dir = std::env::temp_dir();
    let ckpt = |tag: &str| dir.join(format!("flagsim-shard-{tag}-{}.ckpt", std::process::id()));
    // --progress has no effect on the sharded path, so it is an error
    // that points at the dashboard, raised before any campaign starts.
    let rejected = ckpt("progress");
    let (_, stderr, code) = flagsim_code(&[
        "sweep", "4", "--reps", "2", "--checkpoint", rejected.to_str().unwrap(), "--progress",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one-line stderr: {stderr}");
    assert!(stderr.contains("--dashboard"), "{stderr}");
    assert!(!rejected.exists(), "the campaign must not start");
    // A fresh sharded campaign runs the static preflight; --no-check
    // skips it without changing the statistics.
    let mut outs = Vec::new();
    for (tag, extra) in [("checked", None), ("unchecked", Some("--no-check"))] {
        let path = ckpt(tag);
        let mut args = vec!["sweep", "onestripe", "--reps", "4", "--seed", "5"];
        args.extend(["--checkpoint", path.to_str().unwrap()]);
        args.extend(extra);
        let (stdout, stderr, code) = flagsim_code(&args);
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0, "{stderr}");
        outs.push(stdout);
    }
    assert_eq!(outs[0], outs[1]);
    assert!(outs[0].contains("sharded"), "{}", outs[0]);
}
