//! The four workloads. Each is a closed loop of *units* — one top-level
//! call a user makes — driven from one process:
//!
//! - `sweep-s4-stream`: one streaming `SweepRunner::run` (scenario 4,
//!   Mauritius, thick markers, team 4, `--jobs 1`). Reps are small and four
//!   students contend for four single markers, so fixed per-rep cost
//!   dominates.
//! - `sweep-s1-france-retained`: one 300-rep retained sweep of scenario 1
//!   on France (288 cells) with trace events on. One student, no hand-offs,
//!   3× the cells: per-cell sampling, trace recording and kept reports
//!   dominate.
//! - `shard-s4-tcp`: one `shard::run_sweep` campaign of the first
//!   workload's job through one in-process `shard::serve` worker over
//!   loopback TCP, checkpointing to a file. The same reps through wire
//!   encode/decode, leases, `MergeState` and checkpoint writes.
//! - `verify-flowshop`: one `flagsim verify` verdict, alternating scenario 4
//!   and its column-major variant on Mauritius: every run goes through the
//!   `SchedulePolicy` hook and `simcheck::explore`, none through sweep code.
//!
//! Unit `i` of every workload runs with seed `seed + i`.

use crate::alloc;
use crate::probes::{self, class_keys, RepSite, UnitProbe};
use crate::trace::{timed, Interval, Tracer};
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_desim::schedule::{fnv_mix, FNV_OFFSET};
use flagsim_flags::library;
use flagsim_metrics::RunStats;
use flagsim_shard::{
    run_sweep, serve, Checkpoint, CoordinatorConfig, JobSpec, MaterializedJob, ShardOutcome,
    WorkerOptions,
};
use flagsim_simcheck::{annotate_ties, explore_activity, verify_diags, Exploration, ExploreConfig};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// The workload names, in the order a full run visits them.
pub const NAMES: [&str; 4] = [
    "sweep-s4-stream",
    "sweep-s1-france-retained",
    "shard-s4-tcp",
    "verify-flowshop",
];

/// Work sizes: the full benchmark, or `--smoke` (every check on, about a
/// thousandth of the work).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reps per streaming scenario-4 sweep (also the streaming-vs-retained
    /// check's size).
    pub stream_reps: u64,
    /// Reps per retained France sweep.
    pub retained_reps: u64,
    /// Reps per sharded campaign (also the sharded-vs-in-process check's
    /// size).
    pub shard_reps: u64,
    /// Cold set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Units a measured phase runs at least, whatever its duration.
    pub min_units: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        stream_reps: 4096,
        retained_reps: 300,
        shard_reps: 8192,
        setups: 101,
        min_units: 4,
    };
    pub const SMOKE: Scale = Scale {
        stream_reps: 256,
        retained_reps: 30,
        shard_reps: 256,
        setups: 3,
        min_units: 2,
    };
}

/// What one unit did.
pub struct Unit {
    /// When the top-level call ran.
    pub call: Interval,
    /// Simulated activity runs it completed (sweep reps, or explored
    /// schedules).
    pub reps: u64,
    /// Whether the call succeeded with a correct result.
    pub ok: bool,
    /// Result bits for `stats_digest`.
    pub bits: Vec<u64>,
}

/// One workload: cold set-up, units, and the untimed check phase.
pub trait Workload {
    /// One cold set-up of what a unit needs; parts are recorded in `tr`.
    fn setup(&self, tr: &mut Tracer) -> Result<Interval, String>;
    /// Run unit `i`; with a tracer, also probe every layer on its inputs.
    fn unit(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Unit, String>;
    /// Check the outputs of every unit run so far.
    fn check(&mut self) -> Result<(), String>;
}

/// Build workload `name`; `dir` is a directory for checkpoint files.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    dir: PathBuf,
) -> Result<Box<dyn Workload>, String> {
    let job = |scenario: &str, flag: &str, reps, team| JobSpec {
        scenario: scenario.into(),
        flag: flag.into(),
        kind: "thick".into(),
        seed,
        reps,
        team,
        warmup: false,
    };
    Ok(match name {
        "sweep-s4-stream" => Box::new(Sweep::new(
            job("4", "Mauritius", scale.stream_reps, 4),
            false,
            dir,
        )?),
        "sweep-s1-france-retained" => Box::new(Sweep::new(
            job("1", "France", scale.retained_reps, 1),
            true,
            dir,
        )?),
        "shard-s4-tcp" => Box::new(Shard::new(job("4", "Mauritius", scale.shard_reps, 4), dir)?),
        "verify-flowshop" => Box::new(Verify::new(seed, dir)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of: {})",
                NAMES.join(", ")
            ))
        }
    })
}

fn unit_seed(job: &JobSpec, i: u64) -> u64 {
    job.seed.wrapping_add(i)
}

fn stats_bits(s: &RunStats) -> [u64; 6] {
    [
        s.n as u64,
        s.mean.to_bits(),
        s.stddev.to_bits(),
        s.min.to_bits(),
        s.max.to_bits(),
        s.median.to_bits(),
    ]
}

/// Time the set-up every workload shares: rasterise the flag and compile
/// the scenario.
fn prepare_and_compile(
    tr: &mut Tracer,
    flag_name: &str,
    scenario: &Scenario,
    config: &ActivityConfig,
) -> Result<(PreparedFlag, TeamKit), String> {
    let spec = library::by_name(flag_name).ok_or_else(|| format!("no flag {flag_name}"))?;
    let flag = tr.time("flags.prepare", || PreparedFlag::new(&spec));
    let kit = TeamKit::uniform(
        flagsim_agents::ImplementKind::ThickMarker,
        &flag.colors_needed(&[]),
    );
    black_box(tr.time("core.scenario.compile", || scenario.compile(&flag, config))?);
    Ok((flag, kit))
}

/// Probe the layers on a unit of a workload built from a shard job.
fn probe_job_unit(
    tr: &mut Tracer,
    mat: &MaterializedJob,
    job: JobSpec,
    retain: bool,
    checkpoint: &std::path::Path,
) -> Result<(), String> {
    let config = mat.config.clone().with_seed(job.seed);
    let site = RepSite {
        scenario: &mat.scenario,
        flag: &mat.flag,
        kit: &mat.kit,
        config: &config,
        team: mat.team,
        warmup: mat.warmup,
    };
    probes::probe_unit(tr, &UnitProbe { site, job, retain }, None, checkpoint)
}

/// The two sweep workloads: streaming scenario 4 and retained France.
struct Sweep {
    job: JobSpec,
    mat: MaterializedJob,
    retain: bool,
    probe_checkpoint: PathBuf,
    /// Unit 0's statistics, for the streaming-vs-retained check.
    first: Option<(RunStats, RunStats)>,
    units: u64,
}

impl Sweep {
    fn new(job: JobSpec, retain: bool, dir: PathBuf) -> Result<Sweep, String> {
        Ok(Sweep {
            mat: job.materialize()?,
            job,
            retain,
            probe_checkpoint: dir.join("probe.ckpt"),
            first: None,
            units: 0,
        })
    }

    fn runner<'a>(&'a self, config: &'a ActivityConfig) -> SweepRunner<'a> {
        SweepRunner::new(&self.mat.scenario, &self.mat.flag, &self.mat.kit, config)
            .team_size(self.mat.team)
            .reps(self.job.reps)
    }
}

impl Workload for Sweep {
    fn setup(&self, tr: &mut Tracer) -> Result<Interval, String> {
        let config = self.mat.config.clone();
        let (out, iv) = timed(|| -> Result<(), String> {
            let (flag, kit) = prepare_and_compile(tr, &self.job.flag, &self.mat.scenario, &config)?;
            black_box(SweepRunner::new(&self.mat.scenario, &flag, &kit, &config));
            Ok(())
        });
        out.map(|()| iv)
    }

    fn unit(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Unit, String> {
        let config = self.mat.config.clone().with_seed(unit_seed(&self.job, i));
        let live = alloc::live_bytes();
        let (result, call) = timed(|| self.runner(&config).retain_reports(self.retain).run());
        let retained = alloc::live_bytes() - live;
        self.units = self.units.max(i + 1);
        let Ok(result) = result else {
            return Ok(Unit {
                call,
                reps: 0,
                ok: false,
                bits: Vec::new(),
            });
        };
        let reps = result.completion.n as u64;
        let ok = result.failures.is_empty()
            && reps == self.job.reps
            && (!self.retain
                || (result.reports.len() as u64 == reps
                    && result.reports.iter().all(|r| r.correct)));
        if i == 0 {
            self.first = Some((result.completion, result.waiting));
        }
        let mut bits = stats_bits(&result.completion).to_vec();
        bits.extend(stats_bits(&result.waiting));
        drop(result);
        if let Some(tr) = tr {
            tr.record(
                "core.sweep.retained_bytes",
                retained as f64 / reps.max(1) as f64,
            );
            let job = JobSpec {
                seed: config.seed,
                ..self.job.clone()
            };
            probe_job_unit(tr, &self.mat, job, self.retain, &self.probe_checkpoint)?;
        }
        Ok(Unit {
            call,
            reps,
            ok,
            bits,
        })
    }

    fn check(&mut self) -> Result<(), String> {
        if self.retain {
            // Every kept report was checked as its unit returned.
            return Ok(());
        }
        // Every 257th rep of every unit, re-run retained, is correct.
        for i in 0..self.units {
            let config = self.mat.config.clone().with_seed(unit_seed(&self.job, i));
            let runner = self.runner(&config);
            for rep in (0..self.job.reps).step_by(257) {
                if !runner.run_rep(rep)?.correct {
                    return Err(format!(
                        "unit {i} rep {rep}: the retained re-run painted a wrong flag"
                    ));
                }
            }
        }
        // Streaming statistics equal retained ones bit for bit.
        let (completion, waiting) = self.first.as_ref().ok_or("no unit ran")?;
        let config = self.mat.config.clone().with_seed(unit_seed(&self.job, 0));
        let retained = self.runner(&config).run().map_err(|e| e.to_string())?;
        let key = |s: &RunStats| {
            [
                s.n as u64,
                s.mean.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
            ]
        };
        if key(completion) != key(&retained.completion) || key(waiting) != key(&retained.waiting) {
            return Err("streaming statistics differ from retained ones over unit 0".into());
        }
        Ok(())
    }
}

/// Sharded campaigns through one in-process worker over loopback TCP.
struct Shard {
    job: JobSpec,
    mat: MaterializedJob,
    checkpoint: PathBuf,
    probe_checkpoint: PathBuf,
    first: Option<(RunStats, RunStats)>,
    last_job: Option<JobSpec>,
}

impl Shard {
    fn new(job: JobSpec, dir: PathBuf) -> Result<Shard, String> {
        Ok(Shard {
            mat: job.materialize()?,
            job,
            checkpoint: dir.join("campaign.ckpt"),
            probe_checkpoint: dir.join("probe.ckpt"),
            first: None,
            last_job: None,
        })
    }
}

/// Run `job` through a fresh `serve` worker thread on `127.0.0.1:0`,
/// checkpointing to `checkpoint` every 65,536 reps and at the end.
fn campaign(job: &JobSpec, checkpoint: Option<PathBuf>) -> Result<ShardOutcome, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind worker: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("worker address: {e}"))?;
    let worker = std::thread::spawn(move || {
        let opts = WorkerOptions {
            once: true,
            name: "bench-worker".into(),
            quiet: true,
            drop_telemetry_every: 0,
        };
        serve(&listener, &opts)
    });
    let cfg = CoordinatorConfig {
        endpoints: vec![addr.to_string()],
        checkpoint_path: checkpoint,
        checkpoint_every: 65_536,
        ..CoordinatorConfig::default()
    };
    let outcome = run_sweep(job, &cfg);
    if !worker.is_finished() {
        // A coordinator that never connected leaves the worker in accept;
        // an empty session releases it.
        let _ = TcpStream::connect(addr);
    }
    let served = worker
        .join()
        .map_err(|_| "worker thread panicked".to_owned())?;
    served.map_err(|e| format!("worker: {e}"))?;
    outcome
}

impl Workload for Shard {
    fn setup(&self, tr: &mut Tracer) -> Result<Interval, String> {
        let config = self.mat.config.clone();
        let (out, iv) = timed(|| -> Result<(), String> {
            prepare_and_compile(tr, &self.job.flag, &self.mat.scenario, &config)?;
            black_box(self.job.materialize()?);
            // Bind a worker and shake hands over a one-rep campaign.
            campaign(
                &JobSpec {
                    reps: 1,
                    ..self.job.clone()
                },
                None,
            )
            .map(drop)
        });
        out.map(|()| iv)
    }

    fn unit(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Unit, String> {
        let job = JobSpec {
            seed: unit_seed(&self.job, i),
            ..self.job.clone()
        };
        let live = alloc::live_bytes();
        let (outcome, call) = timed(|| campaign(&job, Some(self.checkpoint.clone())));
        let retained = alloc::live_bytes() - live;
        let Ok(ShardOutcome::Completed(result)) = outcome else {
            return Ok(Unit {
                call,
                reps: 0,
                ok: false,
                bits: Vec::new(),
            });
        };
        let ok = result.failures.is_empty() && result.reps == job.reps;
        if i == 0 {
            self.first = Some((result.completion, result.waiting));
        }
        let mut bits = stats_bits(&result.completion).to_vec();
        bits.extend(stats_bits(&result.waiting));
        self.last_job = Some(job.clone());
        if let Some(tr) = tr {
            tr.record(
                "core.sweep.retained_bytes",
                retained as f64 / job.reps as f64,
            );
            probe_job_unit(tr, &self.mat, job, false, &self.probe_checkpoint)?;
        }
        Ok(Unit {
            call,
            reps: result.reps,
            ok,
            bits,
        })
    }

    fn check(&mut self) -> Result<(), String> {
        // Unit 0's sharded campaign equals the in-process streaming sweep.
        let (completion, waiting) = self.first.as_ref().ok_or("no campaign completed")?;
        let job0 = JobSpec {
            seed: unit_seed(&self.job, 0),
            ..self.job.clone()
        };
        let mat = job0.materialize()?;
        let local = mat.runner().run().map_err(|e| e.to_string())?;
        if stats_bits(completion) != stats_bits(&local.completion)
            || stats_bits(waiting) != stats_bits(&local.waiting)
        {
            return Err(
                "the sharded campaign's statistics differ from the in-process sweep".into(),
            );
        }
        // The last campaign's final checkpoint loads as that campaign.
        let last = self.last_job.as_ref().ok_or("no campaign completed")?;
        let ck = Checkpoint::load(&self.checkpoint)?;
        if ck.job.fingerprint() != last.fingerprint() || ck.watermark != last.reps {
            return Err("the final checkpoint does not describe the last campaign".into());
        }
        Ok(())
    }
}

/// `flagsim verify` verdicts on scenario 4 and its column-major variant.
struct Verify {
    seed: u64,
    flag: PreparedFlag,
    kit: TeamKit,
    /// Scenario 4 on even units, column-major slices on odd ones.
    scenarios: [(Scenario, &'static str); 2],
    probe_checkpoint: PathBuf,
    /// Every 50th unit with a digest of its outcome-class keys, re-explored
    /// naively later.
    keyed: Vec<(u64, u64)>,
    /// Scenario-4 units that found no witness pair.
    no_witness: Vec<u64>,
}

/// FNV-1a over an exploration's outcome-class keys, in key order.
fn keys_digest(ex: &Exploration) -> u64 {
    class_keys(ex)
        .into_iter()
        .fold(FNV_OFFSET, |h, (kind, fp)| {
            fnv_mix(fnv_mix(h, kind.into()), fp)
        })
}

/// Every `RECHECK_EVERY`-th verdict is re-explored without reduction.
const RECHECK_EVERY: u64 = 50;

impl Verify {
    fn new(seed: u64, dir: PathBuf) -> Verify {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(
            flagsim_agents::ImplementKind::ThickMarker,
            &flag.colors_needed(&[]),
        );
        Verify {
            seed,
            flag,
            kit,
            scenarios: [
                (Scenario::fig1(4), "4"),
                (Scenario::alternating_slices(), "alternating"),
            ],
            probe_checkpoint: dir.join("probe.ckpt"),
            keyed: Vec::new(),
            no_witness: Vec::new(),
        }
    }

    fn config(&self, i: u64) -> ActivityConfig {
        ActivityConfig::default().with_seed(self.seed.wrapping_add(i))
    }

    /// The calls `flagsim verify` makes for one scenario.
    fn verdict(
        &self,
        scenario: &Scenario,
        config: &ActivityConfig,
        naive: bool,
    ) -> Result<Exploration, String> {
        let compiled = scenario.compile(&self.flag, config)?;
        let cfg = ExploreConfig {
            naive,
            ..ExploreConfig::default()
        };
        let ax = explore_activity(&compiled, &self.kit, config, &cfg)?;
        let mut diags = verify_diags(&ax.exploration);
        diags.extend(annotate_ties(&ax.ties, &ax.exploration));
        black_box(diags);
        Ok(ax.exploration)
    }
}

impl Workload for Verify {
    fn setup(&self, tr: &mut Tracer) -> Result<Interval, String> {
        let config = self.config(0);
        let (out, iv) =
            timed(|| prepare_and_compile(tr, "Mauritius", &self.scenarios[0].0, &config));
        out.map(|_| iv)
    }

    fn unit(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Unit, String> {
        let config = self.config(i);
        let (scenario, token) = &self.scenarios[(i % 2) as usize];
        let live = alloc::live_bytes();
        let (ex, call) = timed(|| self.verdict(scenario, &config, false));
        let retained = alloc::live_bytes() - live;
        let Ok(ex) = ex else {
            return Ok(Unit {
                call,
                reps: 0,
                ok: false,
                bits: Vec::new(),
            });
        };
        if i.is_multiple_of(2) && ex.witness.is_none() {
            self.no_witness.push(i);
        }
        if i.is_multiple_of(RECHECK_EVERY) {
            self.keyed.push((i, keys_digest(&ex)));
        }
        let reps = ex.schedules_run as u64;
        let mut bits = vec![reps, u64::from(ex.witness.is_some())];
        bits.extend(
            class_keys(&ex)
                .into_iter()
                .map(|(kind, fp)| fp ^ u64::from(kind)),
        );
        if let Some(tr) = tr {
            tr.record(
                "core.sweep.retained_bytes",
                retained as f64 / reps.max(1) as f64,
            );
            let site = RepSite {
                scenario,
                flag: &self.flag,
                kit: &self.kit,
                config: &config,
                team: 4,
                warmup: true,
            };
            let job = JobSpec {
                scenario: (*token).into(),
                flag: "Mauritius".into(),
                kind: "thick".into(),
                seed: config.seed,
                reps,
                team: 4,
                warmup: true,
            };
            let unit = UnitProbe {
                site,
                job,
                retain: true,
            };
            probes::probe_unit(tr, &unit, Some(&ex), &self.probe_checkpoint)?;
        }
        Ok(Unit {
            call,
            reps,
            ok: !ex.truncated,
            bits,
        })
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(i) = self.no_witness.first() {
            return Err(format!("verdict {i}: scenario 4 found no witness pair"));
        }
        for (i, keys) in &self.keyed {
            let (scenario, _) = &self.scenarios[(i % 2) as usize];
            let naive = self.verdict(scenario, &self.config(*i), true)?;
            if naive.truncated || keys_digest(&naive) != *keys {
                return Err(format!(
                    "verdict {i}: naive exploration found other outcome classes"
                ));
            }
        }
        Ok(())
    }
}
