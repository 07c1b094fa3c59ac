//! `flagsim sweep` (in-process and sharded) and `flagsim worker`.

use super::args::{positive, text, uint, usage_error};
use super::{
    err, finish_trace, kind_token, log_level, policy, trace_out, CliError, Selection, Setup,
};
use flagsim_core::faults::{FaultPlan, RecoveryPolicy};
use flagsim_core::sweep::SweepFailure;
use flagsim_metrics::RunStats;
use flagsim_shard::ObsHub;
use flagsim_telemetry::{Level, MetricsRegistry};
use flagsim_watch::live::{self, SnapshotSource};
use flagsim_watch::term::{detect_width, Panel};
use std::fmt::Write as _;
use std::io::IsTerminal;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

options! {
    pub(super) struct SweepArgs("sweep") |a| {
        scenario: Option<String> = a.optional_operand("<SCENARIO>"),
        reps: u64 = a.opt("reps", "M", positive)?.unwrap_or(32),
        jobs: usize = a.opt("jobs", "N", positive)?.unwrap_or_else(available_jobs),
        sel: Selection = Selection::declare(a)?,
        team: Option<usize> = a.opt("team", "N", positive)?,
        warmup: bool = a.switch("warmup"),
        stream: bool = a.switch("stream"),
        progress: bool = a.switch("progress"),
        dashboard: bool = a.switch("dashboard"),
        trace_out: Option<String> = trace_out(a)?,
        no_check: bool = a.switch("no-check"),
        // Giving any option of the sharded-sweep group routes the sweep
        // through the shard coordinator.
        shard: (ShardArgs, bool) = a.group(ShardArgs::declare)?,
        policy: RecoveryPolicy = policy(a)?.unwrap_or(RecoveryPolicy::Rebalance),
        // Reps per lease; the default is the shard crate's own.
        chunk: u64 = a.opt("chunk", "K", positive)?
            .unwrap_or_else(|| flagsim_shard::LeaseConfig::default().chunk),
        // 0 = auto: the coordinator aims for ~256 instrumented reps
        // per campaign so shipping cost stays bounded on huge sweeps.
        trace_sample: u64 = a.opt("trace-sample", "N", uint)?.unwrap_or(0),
        log_level: Option<Level> = log_level(a)?,
    }

    /// The sharded-sweep group. The coordinator also runs plain in-process
    /// sweeps, so `--checkpoint` alone works without any workers.
    struct ShardArgs |a| {
        workers: Option<usize> = a.opt("workers", "N", positive)?,
        connect: Vec<String> = a.many("connect", "ADDR[,ADDR..]", endpoints)?.concat(),
        checkpoint: Option<String> = a.opt("checkpoint", "FILE", text)?,
        checkpoint_every: u64 = a.opt("checkpoint-every", "K", positive)?.unwrap_or(64),
        resume: Option<String> = a.opt("resume", "FILE", text)?,
        max_wall: Option<Duration> = a.opt("max-wall-secs", "S", wall_budget)?,
        obs_out: Option<String> = a.opt("obs-out", "FILE", text)?,
        obs_serve: Option<String> = a.opt("obs-serve", "ADDR", text)?,
    }

    pub(super) struct WorkerArgs("worker") |a| {
        listen: String = a.required("listen", "ADDR"),
        once: bool = a.switch("once"),
        quiet: bool = a.switch("quiet"),
        name: Option<String> = a.opt("name", "NAME", text)?,
        log_level: Option<Level> = log_level(a)?,
    }
}

fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `--connect` value: comma-separated `host:port` addresses.
fn endpoints(s: &str) -> Result<Vec<String>, String> {
    let parts: Vec<String> = s.split(',').filter(|p| !p.is_empty()).map(str::to_owned).collect();
    if let Some(part) = parts.iter().find(|p| p.parse::<std::net::SocketAddr>().is_err()) {
        return Err(format!("bad address {part:?} (want host:port)"));
    }
    if parts.is_empty() {
        return Err("no usable address".into());
    }
    Ok(parts)
}

/// `--max-wall-secs`: non-negative seconds that fit a `Duration`.
fn wall_budget(s: &str) -> Result<Duration, String> {
    s.parse::<f64>()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .ok_or_else(|| "must be a non-negative number of seconds below 1.8e19".to_owned())
}

/// The scenario and team size of a fresh sweep, after the static
/// preflight (unless `--no-check`) that both sweep paths run.
fn checked_setup(a: &SweepArgs) -> Result<(&str, Setup, usize), CliError> {
    let Some(which) = &a.scenario else {
        return Err(usage_error::<SweepArgs>());
    };
    let s = a.sel.setup(which)?;
    let team = a.team.unwrap_or_else(|| s.scenario.team_size(&s.flag, &s.cfg));
    if !a.no_check {
        s.preflight(team + 1, &FaultPlan::none())?;
    }
    Ok((which, s, team))
}

/// The sweep as a shard job: the campaign both sweep paths name their
/// fleet view after (the in-process sweep runs the same reps a sharded
/// one would).
fn job_spec(a: &SweepArgs, which: &str, team: usize) -> flagsim_shard::JobSpec {
    flagsim_shard::JobSpec {
        scenario: which.to_owned(),
        flag: a.sel.spec.name.clone(),
        kind: kind_token(a.sel.kind).to_owned(),
        seed: a.sel.seed,
        reps: a.reps,
        team,
        warmup: a.warmup,
    }
}

/// The telemetry collector `--trace-out` and `--dashboard` share (the
/// global slot is generation-guarded, so install exactly one), and the
/// dashboard over `hub` when asked for.
fn telemetry(
    a: &SweepArgs,
    hub: &ObsHub,
    reps: u64,
    started: Instant,
) -> (Option<flagsim_telemetry::Collector>, Option<Dashboard>) {
    let collector =
        (a.dashboard || a.trace_out.is_some()).then(flagsim_telemetry::Collector::install);
    let dash = collector
        .as_ref()
        .filter(|_| a.dashboard)
        .map(|c| Dashboard::start(hub.clone(), reps, started, c.metrics()));
    (collector, dash)
}

/// Plain-mode pacing, the one stepper `--progress` and a piped
/// `--dashboard` share: a line each time the merged count passes a
/// further tenth of the reps, and one when the last rep merges.
struct Stepper {
    total: u64,
    step: u64,
    last: u64,
}

impl Stepper {
    fn new(total: u64) -> Stepper {
        Stepper { total, step: (total / 10).max(1), last: 0 }
    }

    /// Whether `completed` merged reps deserve a line. A count at or
    /// below the last line's never does: progress notes can arrive out
    /// of order, and a chunk can merge nothing.
    fn due(&mut self, completed: u64) -> bool {
        let due = completed > self.last
            && (completed == self.total || completed >= self.last + self.step);
        if due {
            self.last = completed;
        }
        due
    }
}

/// ` | mean 12.34s ± 0.56s` once the merge's completion gauges are live.
fn mean_ci(metrics: &MetricsRegistry) -> String {
    let mean = metrics.gauge("sweep.completion.mean_s").get();
    if mean <= 0.0 {
        return String::new();
    }
    let ci = metrics.gauge("sweep.completion.ci95_s").get();
    format!(" | mean {mean:.2}s \u{b1} {ci:.2}s")
}

/// `--dashboard`: `flagsim watch`'s fleet panel over the sweep's hub,
/// drawn on stderr by one poller thread through the same repaint loop,
/// with the completion mean ± 95% CI as its footer. Piped, it prints a
/// `sweep:` line per [`Stepper`] step and a closing `sweep: done` line,
/// so stdout stays the statistics table. Structured logs print above
/// the panel, so they never shear it.
struct Dashboard {
    stop: mpsc::Sender<()>,
    poller: std::thread::JoinHandle<()>,
    metrics: Arc<MetricsRegistry>,
    interactive: bool,
}

impl Dashboard {
    fn start(
        hub: ObsHub,
        total: u64,
        started: Instant,
        metrics: Arc<MetricsRegistry>,
    ) -> Dashboard {
        let interactive = std::io::stderr().is_terminal();
        let panel = Arc::new(Mutex::new(Panel::new(interactive, detect_width())));
        let above = Arc::clone(&panel);
        flagsim_telemetry::log::set_sink(Some(Box::new(move |rec| {
            let mut panel = above.lock().unwrap_or_else(PoisonError::into_inner);
            panel.println_above(&rec.render(), &mut std::io::stderr().lock());
        })));
        let (stop, rx) = mpsc::channel();
        let gauges = Arc::clone(&metrics);
        let poller = std::thread::spawn(move || {
            let mut stepper = Stepper::new(total);
            live::repaint_loop(
                &mut SnapshotSource::hub(hub, started, rx),
                &panel,
                &mut std::io::stderr(),
                || format!("completion{}\n", mean_ci(&gauges)),
                |snap, _| {
                    if stepper.due(snap.merged) {
                        eprintln!(
                            "sweep: {}/{} rep(s) done, {} failed{}",
                            snap.merged,
                            snap.total_reps,
                            snap.failed,
                            mean_ci(&gauges)
                        );
                    }
                    true
                },
            );
        });
        Dashboard { stop, poller, metrics, interactive }
    }

    /// Draw the final snapshot, close the panel, and, when piped, print
    /// the closing line if the sweep `completed` (a failed or expired
    /// sweep closes with its error instead). Stderr lines after this are
    /// plain.
    fn finish(self, completed: bool) {
        // A send error means the poller already ended; joining reports it.
        self.stop.send(()).ok();
        if self.poller.join().is_err() {
            eprintln!("sweep: the dashboard stopped early");
        }
        flagsim_telemetry::log::set_sink(None);
        if completed && !self.interactive {
            eprintln!("sweep: done{}", mean_ci(&self.metrics));
        }
    }
}

/// The statistics table both sweep paths print below their header. CI's
/// kill-and-resume smoke diffs it across the two, so there is one copy.
fn stats_table(out: &mut String, completion: &RunStats, waiting: &RunStats) {
    let _ = writeln!(
        out,
        "{:<12}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "metric", "n", "mean s", "stddev", "min", "median", "max"
    );
    for (label, s) in [("completion", completion), ("waiting", waiting)] {
        let _ = writeln!(
            out,
            "{:<12}{:>6}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}",
            label, s.n, s.mean, s.stddev, s.min, s.median, s.max
        );
    }
    let _ = writeln!(
        out,
        "\ncompletion {} (mean ± 95% CI)",
        completion.display_secs()
    );
}

/// The stderr note for failed repetitions, if any failed. (Failures go
/// to stderr so `flagsim sweep ... > results.txt` stays machine-readable.)
fn failure_note(failures: &[SweepFailure]) -> Option<String> {
    let first = failures.first()?;
    Some(format!(
        "sweep: {} repetition(s) failed; first: rep {}: {}",
        failures.len(),
        first.rep,
        first.error
    ))
}

/// What the rep-running half of a sweep hands the shared body: the
/// header line and the merged statistics.
struct Swept {
    header: String,
    completion: RunStats,
    waiting: RunStats,
    failures: Vec<SweepFailure>,
}

/// `flagsim sweep` — the measurement campaign front door: run a scenario
/// across many seeds on `--jobs` lanes and print the summary statistics.
/// The job count never changes the numbers, only the wall-clock time.
/// Any option of the sharded-sweep group routes the reps through the
/// shard coordinator ([`sharded`]); everything around the reps is
/// [`run_campaign`], whichever path runs them.
pub(super) fn cmd_sweep(a: SweepArgs) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    if let Some(level) = a.log_level {
        flagsim_telemetry::log::set_level(level);
    }
    if a.shard.1 {
        return sharded(&a);
    }
    let (which, s, team) = checked_setup(&a)?;
    run_campaign(&a, &job_spec(&a, which, team), |hub, started| {
        let (reps, jobs) = (a.reps, a.jobs);
        let mut runner = SweepRunner::new(&s.scenario, &s.flag, &s.kit, &s.cfg)
            .team_size(team)
            .warmup(a.warmup)
            .reps(reps)
            .jobs(jobs)
            .retain_reports(!a.stream);
        if a.dashboard {
            // One fleet row per lane.
            let hub = hub.clone();
            runner = runner.on_progress(move |p| {
                let now = started.elapsed().as_millis() as u64;
                hub.with(|fv| fv.on_lane(p.worker, p.completed, p.failed, now));
            });
        } else if a.progress {
            let stepper = Mutex::new(Stepper::new(reps));
            runner = runner.on_progress(move |p| {
                if stepper.lock().unwrap_or_else(PoisonError::into_inner).due(p.completed) {
                    eprintln!("sweep: {}/{} rep(s) done, {} failed", p.completed, p.total, p.failed);
                }
            });
        }
        let r = runner.run().map_err(|e| e.to_string())?;
        let stream = if a.stream { ", streaming statistics (reports dropped)" } else { "" };
        let header = format!(
            "{} — {}, {reps} rep(s), {jobs} job(s), seed {}{stream}\n\n",
            s.scenario.name, a.sel.spec.name, a.sel.seed,
        );
        Ok(Ok(Swept { header, completion: r.completion, waiting: r.waiting, failures: r.failures }))
    })
}

/// The body every sweep shares: the fleet hub, the telemetry collector
/// and dashboard, the trace, the fleet snapshot, the failure note and
/// the statistics table. `drive` runs the reps: `Err` is a sweep that
/// failed (no trace or snapshot), `Ok(Err)` one that stopped early (both
/// still written).
fn run_campaign(
    a: &SweepArgs,
    job: &flagsim_shard::JobSpec,
    drive: impl FnOnce(&ObsHub, Instant) -> Result<Result<Swept, CliError>, CliError>,
) -> Result<String, CliError> {
    let hub = ObsHub::new();
    hub.with(|fv| fv.reset(flagsim_shard::campaign_id(job), job.reps));
    let started = Instant::now();
    let (collector, dash) = telemetry(a, &hub, job.reps, started);
    let outcome = drive(&hub, started);
    if let Some(d) = dash {
        d.finish(matches!(outcome, Ok(Ok(_))));
    }
    finish_trace(collector, outcome.is_ok(), a.trace_out.as_deref(), |line| eprintln!("{line}"))?;
    if let (Ok(_), Some(path)) = (&outcome, &a.shard.0.obs_out) {
        let now = started.elapsed().as_millis() as u64;
        std::fs::write(path, hub.snapshot_json(now))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("fleet: observability snapshot written to {path}");
    }
    let swept = outcome??;
    if let Some(note) = failure_note(&swept.failures) {
        eprintln!("{note}");
    }
    let mut out = swept.header;
    stats_table(&mut out, &swept.completion, &swept.waiting);
    Ok(out)
}

/// The sharded path: run the campaign through the shard coordinator.
/// Handles `--workers N` (spawn local worker processes), `--connect ADDR`
/// (use an existing cluster), `--checkpoint`/`--checkpoint-every`/
/// `--resume` (durable progress), and `--max-wall-secs` (soft deadline →
/// checkpoint + exit code 3). Statistics are bit-for-bit identical to the
/// in-process streaming sweep at any worker count.
fn sharded(a: &SweepArgs) -> Result<String, CliError> {
    use flagsim_shard::{run_sweep, Checkpoint, CoordinatorConfig, LeaseConfig, ShardOutcome};

    if a.progress {
        return err("--progress does not apply to a sharded sweep; use --dashboard to watch it");
    }
    let shard = &a.shard.0;
    // The job: from the checkpoint on --resume (its spec is the source
    // of truth — the fingerprint guards against splicing campaigns), or
    // from the command line.
    let resume = shard
        .resume
        .as_deref()
        .map(|path| Checkpoint::load(std::path::Path::new(path)))
        .transpose()?;
    let job = match &resume {
        Some(ck) => ck.job.clone(),
        // A resumed campaign was checked when it started.
        None => {
            let (which, _, team) = checked_setup(a)?;
            job_spec(a, which, team)
        }
    };
    // One validation point for both paths; also names the scenario for
    // the summary header.
    let mat = job.materialize()?;
    // Resuming keeps checkpointing to the resume file unless overridden,
    // so a twice-killed sweep stays resumable.
    let checkpoint_path = shard
        .checkpoint
        .clone()
        .or_else(|| shard.resume.clone())
        .map(std::path::PathBuf::from);
    let mut endpoints = shard.connect.clone();
    let workers = match shard.workers {
        Some(n) => spawn_local_workers(n, &mut endpoints)?,
        None => LocalWorkers(Vec::new()),
    };
    let header = format!(
        "{} — {}, {} rep(s), {} worker(s), {} job(s), seed {}, sharded\n\n",
        mat.scenario.name,
        mat.spec.name,
        job.reps,
        endpoints.len(),
        a.jobs,
        job.seed,
    );
    run_campaign(a, &job, |hub, started| {
        // The fleet hub powers the dashboard and the --obs-out/--obs-serve
        // snapshots, and is cheap, so it is always on for sharded runs.
        let cfg = CoordinatorConfig {
            endpoints,
            local_jobs: a.jobs,
            checkpoint_path,
            checkpoint_every: shard.checkpoint_every,
            resume,
            max_wall: shard.max_wall,
            lease: LeaseConfig { chunk: a.chunk, policy: a.policy, ..LeaseConfig::default() },
            halt_after_reps: None,
            quiet: false,
            obs: Some(hub.clone()),
            trace_sample: a.trace_sample,
        };
        // `--obs-serve ADDR`: push fleet snapshots to attached watchers
        // (`flagsim watch --connect`). Strictly one-way — the server never
        // parses client bytes, so a watcher cannot touch the merge path.
        let obs_server = match &shard.obs_serve {
            Some(addr) => {
                let server = flagsim_shard::ObsServer::start(hub.clone(), addr, 250, move || {
                    started.elapsed().as_millis() as u64
                })
                .map_err(|e| format!("cannot serve observability on {addr}: {e}"))?;
                eprintln!("obs: serving fleet snapshots on {}", server.local_addr());
                Some(server)
            }
            None => None,
        };
        let outcome = run_sweep(&job, &cfg).map_err(|message| CliError { message });
        if let Some(mut server) = obs_server {
            server.stop(); // closes watcher connections: their cue to exit
        }
        drop(workers);
        Ok(match outcome? {
            ShardOutcome::Completed(r) => Ok(Swept {
                header,
                completion: r.completion,
                waiting: r.waiting,
                failures: r.failures,
            }),
            ShardOutcome::DeadlineExpired { merged, total, checkpoint } => {
                let hint = match checkpoint {
                    Some(path) => format!(
                        "; resume with: flagsim sweep --resume {}",
                        path.display()
                    ),
                    None => "; add --checkpoint FILE to make expiry resumable".to_owned(),
                };
                // The "soft deadline" prefix selects exit code 3.
                err(format!(
                    "soft deadline expired with {merged}/{total} rep(s) merged{hint}"
                ))
            }
            ShardOutcome::Halted { merged } => {
                err(format!("sweep halted unexpectedly at {merged} rep(s)"))
            }
        })
    })
}

/// Spawned `flagsim worker --once` children, killed and reaped when
/// dropped, on every path out of the sweep. A clean shutdown already
/// ended them, and kill() on an exited child is a harmless no-op.
struct LocalWorkers(Vec<std::process::Child>);

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Spawn `n` `flagsim worker --once` child processes on ephemeral
/// loopback ports and add their addresses to `endpoints`; each prints its
/// bound address on stdout, which is how the coordinator learns where to
/// connect.
fn spawn_local_workers(n: usize, endpoints: &mut Vec<String>) -> Result<LocalWorkers, CliError> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable to spawn workers: {e}"))?;
    let mut workers = LocalWorkers(Vec::new());
    for i in 0..n {
        let mut child = std::process::Command::new(&exe)
            .args([
                "worker",
                "--listen",
                "127.0.0.1:0",
                "--once",
                "--quiet",
                "--name",
            ])
            .arg(format!("local-{i}"))
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {i}: {e}"))?;
        let stdout = child.stdout.take();
        workers.0.push(child);
        let stdout = stdout.ok_or_else(|| format!("worker {i} has no stdout"))?;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("worker {i} said nothing: {e}"))?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.parse::<std::net::SocketAddr>().is_ok())
            .ok_or_else(|| format!("worker {i} printed no listen address (got {line:?})"))?;
        endpoints.push(addr.to_owned());
    }
    Ok(workers)
}

/// `flagsim worker` — serve sweep repetitions to a coordinator. Binds
/// `--listen ADDR` (port 0 picks an ephemeral port), prints the bound
/// address on stdout, and answers `hello`/`lease` frames until the
/// coordinator shuts the session down (`--once`) or forever.
pub(super) fn cmd_worker(a: WorkerArgs) -> Result<String, CliError> {
    let addr = &a.listen;
    if let Some(level) = a.log_level {
        flagsim_telemetry::log::set_level(level);
    }
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // Printed (and flushed) before serving: a spawning coordinator
    // parses this line to learn the ephemeral port.
    println!("worker: listening on {local}");
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let worker_opts = flagsim_shard::WorkerOptions {
        once: a.once,
        name: a.name.unwrap_or_else(|| format!("worker-{}", std::process::id())),
        quiet: a.quiet,
        drop_telemetry_every: 0,
    };
    flagsim_shard::serve(&listener, &worker_opts).map_err(|e| format!("worker failed: {e}"))?;
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_budget_rejects_what_a_duration_cannot_hold() {
        assert_eq!(wall_budget("1.5"), Ok(Duration::from_millis(1500)));
        for bad in ["-1", "nan", "inf", "1e300", "soon"] {
            assert!(wall_budget(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sharded_sweeps_run_the_preflight_too() {
        // No built-in flag trips an error-level static finding, so give
        // the sweep a flag that paints nothing (SC101). Routed through the
        // shard coordinator by --checkpoint, it must stop at the preflight
        // before any campaign starts.
        let ckpt = std::env::temp_dir()
            .join(format!("flagsim-preflight-{}.ckpt", std::process::id()));
        let args: Vec<String> = ["1", "--reps", "2", "--checkpoint", ckpt.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut a = super::super::args::parse::<SweepArgs>(&args).unwrap();
        let speck = "flag \"Speck\" 4x4\nlayer \"speck\" red rect 0 0 0.01 0.01\n";
        a.sel.spec = flagsim_flags::parse(speck).unwrap();
        let e = cmd_sweep(a).unwrap_err();
        assert!(e.message.starts_with("preflight:"), "{e}");
        assert!(e.message.contains("SC101"), "{e}");
        assert!(!ckpt.exists(), "the campaign must not start");
    }
}
