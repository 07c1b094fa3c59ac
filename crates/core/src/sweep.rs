//! Repeated-run sweeps, serial and parallel.
//!
//! One classroom run is a single noisy sample; every quantitative claim
//! in EXPERIMENTS.md comes from running a scenario across many seeds with
//! fresh teams. This module is that harness, public: give it a scenario
//! and a configuration, get summary statistics and the raw reports.
//!
//! The engine behind every entry point is [`SweepRunner`], which fans
//! repetitions across worker threads (`std::thread::scope` — the
//! workspace is offline, no rayon) while keeping the results
//! *bit-for-bit deterministic*: each repetition derives its seed from
//! `config.seed` and its index exactly as the serial loop always has,
//! workers pull indices from a shared counter, and a reorder buffer
//! merges outcomes back in repetition order before any statistic is
//! touched. `par_sweep` with any job count therefore produces a
//! [`SweepResult`] identical to the serial [`try_sweep`] for the same
//! configuration.
//!
//! For huge campaigns, [`SweepRunner::retain_reports`]`(false)` runs
//! every repetition through the stats finish
//! ([`SweepRunner::run_rep_stats`]), which never assembles a
//! [`RunReport`], and accumulates the two metrics in O(1) memory with
//! [`StreamingStats`]; a progress callback ([`SweepRunner::on_progress`])
//! gives observability either way.

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::report::{RepSample, RunReport};
use crate::run::{RunPrep, StatsScratch};
use crate::scenario::{CompiledScenario, Scenario};
use crate::work::PreparedFlag;
use flagsim_agents::StudentProfile;
use flagsim_metrics::{RunStats, StreamingStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// This thread's stats-finish scratch — team, sampled world, engine —
    /// reused by every [`SweepRunner::run_rep_stats`] call on the thread.
    static STATS: RefCell<StatsScratch> = RefCell::new(StatsScratch::default());
}

/// One repetition of a sweep that failed to produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Repetition index (0-based).
    pub rep: u64,
    /// What went wrong, as reported by the run.
    pub error: String,
}

/// Why a sweep produced no statistics at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Zero repetitions were requested.
    NoRepetitions,
    /// Every repetition failed; the first failure is carried for the
    /// error message and the panicking [`sweep`] wrapper.
    AllFailed {
        /// How many repetitions were attempted.
        reps: u64,
        /// The first (lowest-index) failure.
        first: SweepFailure,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoRepetitions => f.write_str("need at least one repetition"),
            SweepError::AllFailed { reps, first } => write!(
                f,
                "all {reps} repetitions failed; first: rep {}: {}",
                first.rep, first.error
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// The result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Completion-seconds statistics across repetitions.
    pub completion: RunStats,
    /// Total-waiting statistics across repetitions.
    pub waiting: RunStats,
    /// Every successful run, in repetition order. Empty when the sweep
    /// ran with [`SweepRunner::retain_reports`]`(false)` — the
    /// statistics above still cover every successful repetition.
    pub reports: Vec<RunReport>,
    /// Repetitions that failed (always empty from the panicking
    /// [`sweep`]; [`try_sweep`] records them and keeps going), in
    /// repetition order.
    pub failures: Vec<SweepFailure>,
}

impl SweepResult {
    /// The mean completion time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.completion.mean
    }
}

/// A progress snapshot handed to the [`SweepRunner::on_progress`]
/// callback each time repetitions are merged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Repetitions finished so far (successes + failures), merged in
    /// repetition order.
    pub completed: u64,
    /// How many of those failed.
    pub failed: u64,
    /// Total repetitions requested.
    pub total: u64,
    /// Index of the worker that finished the repetition triggering this
    /// snapshot (0 on the serial path).
    pub worker: usize,
    /// The repetition that worker just finished (not necessarily the
    /// highest merged index — workers complete out of order).
    pub rep: u64,
}

type ProgressFn<'a> = dyn Fn(SweepProgress) + Send + Sync + 'a;

/// The sweep engine: a builder over everything [`try_sweep`] takes,
/// plus the parallel/streaming/observability knobs.
///
/// ```no_run
/// # use flagsim_core::sweep::SweepRunner;
/// # use flagsim_core::{ActivityConfig, Scenario, TeamKit};
/// # use flagsim_core::work::PreparedFlag;
/// # use flagsim_agents::ImplementKind;
/// # use flagsim_flags::library;
/// let flag = PreparedFlag::new(&library::mauritius());
/// let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
/// let cfg = ActivityConfig::default();
/// let scenario = Scenario::fig1(4);
/// let result = SweepRunner::new(&scenario, &flag, &kit, &cfg)
///     .team_size(4)
///     .reps(256)
///     .jobs(8)
///     .retain_reports(false) // O(1) memory: streaming statistics only
///     .on_progress(|p| eprintln!("{}/{} done", p.completed, p.total))
///     .run()
///     .expect("at least one repetition succeeded");
/// println!("{}", result.completion.display_secs());
/// ```
pub struct SweepRunner<'a> {
    scenario: &'a Scenario,
    flag: &'a PreparedFlag,
    kit: &'a TeamKit,
    config: &'a ActivityConfig,
    team_size: usize,
    warmup: bool,
    reps: u64,
    plan: FaultPlan,
    jobs: usize,
    retain_reports: bool,
    progress: Option<Box<ProgressFn<'a>>>,
    /// The scenario partitioned and verified once, shared by every rep
    /// (and every worker thread — the partition is seed-independent).
    compiled: OnceLock<Result<CompiledScenario, String>>,
    /// The team size, plan and kit checked against `compiled` once, with
    /// the per-color tables every rep indexes into. Like `compiled`, built
    /// by the first rep; a failure is replayed to every rep.
    prep: OnceLock<Result<RunPrep, String>>,
}

impl<'a> SweepRunner<'a> {
    /// A runner with the serial defaults: team of
    /// [`Scenario::team_size`], no warm-up, 1 repetition, no faults,
    /// 1 job, reports retained, no progress callback.
    pub fn new(
        scenario: &'a Scenario,
        flag: &'a PreparedFlag,
        kit: &'a TeamKit,
        config: &'a ActivityConfig,
    ) -> Self {
        SweepRunner {
            scenario,
            flag,
            kit,
            config,
            team_size: scenario.team_size(flag, config),
            warmup: false,
            reps: 1,
            plan: FaultPlan::none(),
            jobs: 1,
            retain_reports: true,
            progress: None,
            compiled: OnceLock::new(),
            prep: OnceLock::new(),
        }
    }

    /// Students per repetition's fresh team.
    pub fn team_size(mut self, n: usize) -> Self {
        self.team_size = n;
        self
    }

    /// Whether each fresh team keeps the warm-up effect.
    pub fn warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// Number of repetitions.
    pub fn reps(mut self, reps: u64) -> Self {
        self.reps = reps;
        self
    }

    /// Fault plan injected into every repetition.
    pub fn plan(mut self, plan: &FaultPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Worker threads to fan repetitions across (values ≤ 1 run the
    /// serial loop; the job count never changes the result, only the
    /// wall-clock time).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Keep every [`RunReport`] (the default), or run each repetition
    /// through [`SweepRunner::run_rep_stats`] — no report is built — and
    /// stream the statistics in O(1) memory: the only way a
    /// million-repetition sweep fits in RAM.
    pub fn retain_reports(mut self, retain: bool) -> Self {
        self.retain_reports = retain;
        self
    }

    /// Observe progress: called after each batch of repetitions merges,
    /// from whichever thread merged it, so the callback must be
    /// `Send + Sync`.
    pub fn on_progress(mut self, f: impl Fn(SweepProgress) + Send + Sync + 'a) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Run the sweep. Errors only when no statistics can be produced at
    /// all: zero repetitions requested, or every repetition failed.
    pub fn run(&self) -> Result<SweepResult, SweepError> {
        if self.reps == 0 {
            return Err(SweepError::NoRepetitions);
        }
        // The sweep span's args hold only values independent of the job
        // count (reps, scenario), and every rep span links to it as its
        // *logical* parent — so the canonical span tree is identical at
        // any `--jobs`, which prop_telemetry asserts. Job count and
        // thread placement are runtime detail: a gauge and the worker
        // spans' `"runtime"` category.
        let sweep_span = flagsim_telemetry::span("sim", "sweep")
            .arg("scenario", &self.scenario.name)
            .arg("reps", self.reps);
        let sweep_id = sweep_span.id();
        let mut collector = Collector::new(self.retain_reports, self.reps);
        let jobs = self.jobs.clamp(1, self.reps as usize);
        flagsim_telemetry::gauge_set("sweep.jobs", jobs as f64);
        if jobs == 1 {
            for rep in 0..self.reps {
                let rep_span =
                    flagsim_telemetry::span_linked("sim", "sweep.rep", sweep_id).arg("rep", rep);
                let outcome = self.run_one(rep);
                drop(rep_span);
                collector.accept(rep, outcome);
                let mut p = collector.snapshot();
                p.rep = rep;
                self.emit(p);
            }
        } else {
            self.run_parallel(jobs, sweep_id, &mut collector);
        }
        let snap = collector.snapshot();
        flagsim_telemetry::count("sweep.reps_completed", snap.completed);
        flagsim_telemetry::count("sweep.failures", snap.failed);
        drop(sweep_span);
        collector.finish(self.reps)
    }

    /// One repetition: fresh team, derived seed — the exact recipe the
    /// serial sweep has always used, so seeds are independent of the
    /// job count. Public, with [`SweepRunner::run_rep_stats`], so
    /// out-of-process executors (the `flagsim-shard` worker) run the
    /// *same* repetition function the in-process sweep runs: a shard
    /// worker handed rep `i` produces the identical numbers this runner
    /// would have produced for rep `i`, which is what keeps distributed
    /// sweeps bit-for-bit equal to serial ones.
    pub fn run_rep(&self, rep: u64) -> Result<RunReport, String> {
        let (compiled, prep) = self.prepared()?;
        let mut team: Vec<_> = self
            .fresh_team(compiled.parts(), |i| format!("P{i}"))
            .collect();
        let mut cfg = self.rep_config(rep);
        if !self.retain_reports {
            // A report wanted from a streaming runner is one-off, so
            // recording per-event traces is pure waste; accounting is
            // bit-identical with the sink off.
            cfg.trace_events = false;
        }
        compiled.run(prep, &cfg, &self.plan).report(&mut team)
    }

    /// Repetition `rep` reduced to its [`RepSample`], bit-equal to
    /// [`SweepRunner::run_rep`]`(rep)`'s `completion_secs()` and
    /// `total_wait_secs()` — and to its error string when the rep fails.
    /// The same preparation and engine run as `run_rep`, but no
    /// [`RunReport`]: no grid paint-and-verify, no per-student or
    /// per-color tables, no names or labels, and without faults no live
    /// fault state. Each thread keeps one team, engine and set of item
    /// buffers for all its reps, so a steady-state rep allocates nothing.
    /// What streaming sweeps and shard executors run.
    pub fn run_rep_stats(&self, rep: u64) -> Result<RepSample, String> {
        let (compiled, prep) = self.prepared()?;
        let cfg = self.rep_config(rep);
        STATS
            .with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                scratch.team.clear();
                scratch
                    .team
                    .extend(self.fresh_team(compiled.parts(), |_| String::new()));
                compiled.run(prep, &cfg, &self.plan).stats(scratch)
            })
            // An engine error names students and markers, which the stats
            // finish leaves blank: replay the rep (a fresh team, the same
            // seed) through the report path for the identical message.
            .or_else(|_| self.run_rep(rep).map(|report| report.sample()))
    }

    /// The compiled scenario and the run preparation, each built on first
    /// use and shared by every later rep; their errors replay verbatim.
    fn prepared(&self) -> Result<(&CompiledScenario, &RunPrep), String> {
        let compiled = self
            .compiled
            .get_or_init(|| self.scenario.compile(self.flag, self.config))
            .as_ref()
            .map_err(Clone::clone)?;
        let prep = self
            .prep
            .get_or_init(|| compiled.prepare(self.team_size, self.kit, &self.plan))
            .as_ref()
            .map_err(Clone::clone)?;
        Ok((compiled, prep))
    }

    /// A fresh team of `n` students named by `name(i)` for `i` in `1..=n`.
    fn fresh_team<'s>(
        &'s self,
        n: usize,
        name: impl Fn(usize) -> String + 's,
    ) -> impl Iterator<Item = StudentProfile> + 's {
        (1..=n).map(move |i| {
            let s = StudentProfile::new(name(i));
            if self.warmup {
                s
            } else {
                s.without_warmup()
            }
        })
    }

    /// The configuration of repetition `rep`: the base configuration with
    /// a seed derived from the base seed and the repetition index.
    fn rep_config(&self, rep: u64) -> ActivityConfig {
        ActivityConfig {
            seed: self.config.seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9)),
            ..self.config.clone()
        }
    }

    /// One repetition as the collector takes it: through the report path
    /// when reports are retained, through the stats finish otherwise.
    fn run_one(&self, rep: u64) -> RepResult {
        if self.retain_reports {
            self.run_rep(rep)
                .map(|report| (report.sample(), Some(report)))
        } else {
            self.run_rep_stats(rep).map(|sample| (sample, None))
        }
    }

    /// Fan repetitions across `jobs` scoped worker threads. Workers pull
    /// the next repetition index from a shared atomic counter and push
    /// outcomes into a reorder buffer; outcomes are drained into the
    /// collector strictly in repetition order, so the merged result is
    /// identical to the serial loop's no matter how threads interleave.
    /// The buffer holds at most ~`jobs` outcomes at a time, keeping the
    /// streaming path's memory bounded by the job count, not the
    /// repetition count.
    fn run_parallel(
        &self,
        jobs: usize,
        sweep_id: Option<flagsim_telemetry::SpanId>,
        collector: &mut Collector,
    ) {
        struct Reorder<'c> {
            pending: BTreeMap<u64, RepResult>,
            next_emit: u64,
            collector: &'c mut Collector,
        }
        let next_rep = AtomicU64::new(0);
        let shared = Mutex::new(Reorder {
            pending: BTreeMap::new(),
            next_emit: 0,
            collector,
        });
        std::thread::scope(|scope| {
            let next_rep = &next_rep;
            let shared = &shared;
            for w in 0..jobs {
                scope.spawn(move || {
                    flagsim_telemetry::set_thread_track(&format!("worker-{w}"));
                    let worker_span =
                        flagsim_telemetry::span_linked("runtime", "sweep.worker", sweep_id)
                            .arg("worker", w);
                    loop {
                        let rep = next_rep.fetch_add(1, Ordering::Relaxed);
                        if rep >= self.reps {
                            break;
                        }
                        let rep_span =
                            flagsim_telemetry::span_linked("sim", "sweep.rep", sweep_id)
                                .arg("rep", rep);
                        let outcome = self.run_one(rep);
                        drop(rep_span);
                        let snapshot = {
                            let mut guard = shared.lock().expect("no worker panicked mid-merge");
                            let s = &mut *guard;
                            s.pending.insert(rep, outcome);
                            while let Some(ready) = s.pending.remove(&s.next_emit) {
                                s.collector.accept(s.next_emit, ready);
                                s.next_emit += 1;
                            }
                            let mut p = s.collector.snapshot();
                            p.worker = w;
                            p.rep = rep;
                            p
                        };
                        // Callback outside the lock: a slow observer must
                        // not serialize the workers.
                        self.emit(snapshot);
                    }
                    drop(worker_span);
                    flagsim_telemetry::flush_thread();
                });
            }
        });
    }

    fn emit(&self, progress: SweepProgress) {
        if let Some(cb) = &self.progress {
            cb(progress);
        }
    }
}

/// One repetition's outcome as the collector folds it in: the sample,
/// plus the report when reports are retained.
type RepResult = Result<(RepSample, Option<RunReport>), String>;

/// Order-respecting accumulator shared by the serial and parallel
/// paths. In retained mode it rebuilds exactly what the historical
/// serial sweep built; in streaming mode it keeps only the
/// [`StreamingStats`] accumulators.
struct Collector {
    retain: bool,
    reports: Vec<RunReport>,
    completions: Vec<f64>,
    waits: Vec<f64>,
    completion_stream: StreamingStats,
    waiting_stream: StreamingStats,
    failures: Vec<SweepFailure>,
    completed: u64,
    total: u64,
}

impl Collector {
    fn new(retain: bool, total: u64) -> Self {
        Collector {
            retain,
            reports: Vec::new(),
            completions: Vec::new(),
            waits: Vec::new(),
            completion_stream: StreamingStats::new(),
            waiting_stream: StreamingStats::new(),
            failures: Vec::new(),
            completed: 0,
            total,
        }
    }

    /// Fold in one repetition's outcome. Must be called in repetition
    /// order — the reorder buffer guarantees it on the parallel path.
    /// The streaming accumulators run even in retained mode: they are
    /// O(1) per repetition and feed the live `sweep.completion.*`
    /// gauges the dashboard reads mid-sweep.
    fn accept(&mut self, rep: u64, outcome: RepResult) {
        self.completed += 1;
        match outcome {
            Ok((sample, report)) => {
                let completion = sample.completion_secs;
                self.completion_stream.push(completion);
                self.waiting_stream.push(sample.wait_secs);
                if let Some(report) = report {
                    self.completions.push(completion);
                    self.waits.push(sample.wait_secs);
                    self.reports.push(report);
                }
                if flagsim_telemetry::enabled() {
                    let stats = self.completion_stream.to_stats();
                    flagsim_telemetry::gauge_set("sweep.completion.mean_s", stats.mean);
                    flagsim_telemetry::gauge_set(
                        "sweep.completion.ci95_s",
                        stats.ci95_half_width(),
                    );
                    flagsim_telemetry::observe("sweep.completion_secs", completion);
                }
            }
            Err(error) => {
                flagsim_telemetry::log::warn(
                    "core.sweep",
                    "repetition failed",
                    &[("rep", rep.to_string()), ("error", error.clone())],
                );
                self.failures.push(SweepFailure { rep, error });
            }
        }
    }

    fn snapshot(&self) -> SweepProgress {
        SweepProgress {
            completed: self.completed,
            failed: self.failures.len() as u64,
            total: self.total,
            worker: 0,
            rep: self.completed.saturating_sub(1),
        }
    }

    fn finish(self, reps: u64) -> Result<SweepResult, SweepError> {
        let successes = if self.retain {
            self.completions.len() as u64
        } else {
            self.completion_stream.n()
        };
        if successes == 0 {
            let first = self.failures.into_iter().next().expect("reps > 0");
            return Err(SweepError::AllFailed { reps, first });
        }
        let (completion, waiting) = if self.retain {
            (
                RunStats::from_sample(&self.completions),
                RunStats::from_sample(&self.waits),
            )
        } else {
            (
                self.completion_stream.to_stats(),
                self.waiting_stream.to_stats(),
            )
        };
        Ok(SweepResult {
            completion,
            waiting,
            reports: self.reports,
            failures: self.failures,
        })
    }
}

/// The one formatted panic every [`sweep`] failure routes through.
fn fail_sweep(f: &SweepFailure) -> ! {
    std::panic::panic_any(format!("sweep run failed: rep {}: {}", f.rep, f.error))
}

/// Run `scenario` `reps` times, each with a fresh team of `team_size`
/// students (warm-up enabled or not) and a seed derived from
/// `config.seed` and the repetition index. Panics if any run fails or
/// produces a wrong flag — a sweep is a measurement, not a fault drill.
/// Every failed-run panic carries the documented
/// `"sweep run failed: rep N: ..."` message, whether one repetition
/// failed or all of them did.
pub fn sweep(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    config: &ActivityConfig,
    team_size: usize,
    warmup: bool,
    reps: u64,
) -> SweepResult {
    let result = SweepRunner::new(scenario, flag, kit, config)
        .team_size(team_size)
        .warmup(warmup)
        .reps(reps)
        .run();
    match result {
        Ok(result) => {
            if let Some(f) = result.failures.first() {
                // Preserve the historical contract: a measurement sweep
                // panics on the first failed repetition instead of
                // soldiering on.
                fail_sweep(f);
            }
            assert!(
                result
                    .reports
                    .iter()
                    .all(|r| r.correct || config.deadline_secs.is_some()),
                "sweep produced a wrong flag"
            );
            result
        }
        Err(SweepError::AllFailed { first, .. }) => fail_sweep(&first),
        Err(e @ SweepError::NoRepetitions) => std::panic::panic_any(e.to_string()),
    }
}

/// Fault-tolerant sweep: run `scenario` `reps` times under `plan`,
/// recording failed repetitions in [`SweepResult::failures`] instead of
/// panicking, so one bad seed cannot sink a whole measurement campaign.
///
/// Errors only when no statistics can be produced at all: zero
/// repetitions requested, or every repetition failed.
#[allow(clippy::too_many_arguments)]
pub fn try_sweep(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    config: &ActivityConfig,
    team_size: usize,
    warmup: bool,
    reps: u64,
    plan: &FaultPlan,
) -> Result<SweepResult, String> {
    SweepRunner::new(scenario, flag, kit, config)
        .team_size(team_size)
        .warmup(warmup)
        .reps(reps)
        .plan(plan)
        .run()
        .map_err(|e| e.to_string())
}

/// [`try_sweep`] fanned across `jobs` worker threads. Seeds, merge
/// order, and therefore the returned [`SweepResult`] are identical to
/// the serial sweep for the same configuration — the job count buys
/// wall-clock time, never different numbers.
#[allow(clippy::too_many_arguments)]
pub fn par_sweep(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    config: &ActivityConfig,
    team_size: usize,
    warmup: bool,
    reps: u64,
    plan: &FaultPlan,
    jobs: usize,
) -> Result<SweepResult, String> {
    SweepRunner::new(scenario, flag, kit, config)
        .team_size(team_size)
        .warmup(warmup)
        .reps(reps)
        .plan(plan)
        .jobs(jobs)
        .run()
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;
    use flagsim_metrics::clearly_different;

    fn mauritius_setup() -> (PreparedFlag, TeamKit) {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        (flag, kit)
    }

    #[test]
    fn sweep_statistics_separate_scenarios() {
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default();
        let s1 = sweep(&Scenario::fig1(1), &flag, &kit, &cfg, 1, false, 16);
        let s3 = sweep(&Scenario::fig1(3), &flag, &kit, &cfg, 4, false, 16);
        assert_eq!(s1.reports.len(), 16);
        assert!(s1.mean_secs() > s3.mean_secs());
        assert!(clearly_different(&s1.completion, &s3.completion));
        assert_eq!(s3.waiting.max, 0.0, "stripes never contend");
    }

    #[test]
    fn sweep_is_deterministic() {
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(9);
        let a = sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, false, 8);
        let b = sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, false, 8);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.waiting, b.waiting);
    }

    #[test]
    fn par_sweep_matches_serial_bit_for_bit() {
        // Acceptance: par_sweep with 4 jobs produces RunStats equal to
        // the serial sweep for the same seed.
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(41);
        let plan = FaultPlan::none();
        let serial =
            try_sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, false, 24, &plan).unwrap();
        for jobs in [2, 4, 7] {
            let par = par_sweep(
                &Scenario::fig1(4),
                &flag,
                &kit,
                &cfg,
                4,
                false,
                24,
                &plan,
                jobs,
            )
            .unwrap();
            assert_eq!(par.completion, serial.completion, "jobs={jobs}");
            assert_eq!(par.waiting, serial.waiting, "jobs={jobs}");
            assert_eq!(par.reports.len(), serial.reports.len());
            // Reports come back in repetition order: completion times
            // line up pairwise, not just in aggregate.
            for (a, b) in par.reports.iter().zip(&serial.reports) {
                assert_eq!(a.completion_secs(), b.completion_secs());
            }
        }
    }

    #[test]
    fn streaming_sweep_matches_retained_statistics() {
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(5);
        let scenario = Scenario::fig1(4);
        let retained = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(32)
            .jobs(4)
            .run()
            .unwrap();
        let streamed = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(32)
            .jobs(4)
            .retain_reports(false)
            .run()
            .unwrap();
        assert!(streamed.reports.is_empty(), "streaming keeps no reports");
        assert_eq!(streamed.completion.n, retained.completion.n);
        // The streaming mean is bit-identical; stddev/min/max agree to
        // float accuracy (see flagsim_metrics::streaming for the exact
        // contract).
        assert_eq!(streamed.completion.mean, retained.completion.mean);
        assert_eq!(streamed.completion.min, retained.completion.min);
        assert_eq!(streamed.completion.max, retained.completion.max);
        assert!((streamed.completion.stddev - retained.completion.stddev).abs() < 1e-9);
        assert_eq!(streamed.waiting.mean, retained.waiting.mean);
    }

    #[test]
    fn progress_callback_sees_every_repetition() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(3);
        let scenario = Scenario::fig1(3);
        let peak = AtomicU64::new(0);
        let calls = AtomicU64::new(0);
        let result = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(12)
            .jobs(3)
            .on_progress(|p| {
                assert_eq!(p.total, 12);
                assert_eq!(p.failed, 0);
                peak.fetch_max(p.completed, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            })
            .run()
            .unwrap();
        assert_eq!(result.reports.len(), 12);
        assert_eq!(peak.load(Ordering::Relaxed), 12, "final progress is total");
        assert!(calls.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn faulted_sweep_completes_all_32_seeds() {
        // Acceptance: a 32-seed sweep with a break-one-implement fault
        // plan completes every run with a ResilienceReport and zero
        // panics or lost repetitions.
        use flagsim_grid::Color;
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(7);
        let plan = crate::faults::FaultPlan::new("break one implement")
            .break_implement(Color::Blue, 15.0);
        let result = try_sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, false, 32, &plan)
            .expect("faulted sweep must produce statistics");
        assert_eq!(result.reports.len(), 32);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        for r in &result.reports {
            let res = r.resilience.as_ref().expect("every run carries a report");
            assert_eq!(res.faults_planned, 1);
            assert!(!res.aborted);
            assert!(r.correct, "spare swap should always finish the flag");
        }
        // The fault actually bit in every run (blue is always used after 15s).
        assert!(result
            .reports
            .iter()
            .all(|r| !r.resilience.as_ref().unwrap().incidents.is_empty()));
    }

    #[test]
    fn faulted_parallel_sweep_loses_no_repetitions() {
        // Acceptance: the fault drill through the parallel path keeps
        // every repetition and matches the serial fault drill exactly.
        use flagsim_grid::Color;
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(7);
        let plan = crate::faults::FaultPlan::new("break one implement")
            .break_implement(Color::Blue, 15.0);
        let serial =
            try_sweep(&Scenario::fig1(4), &flag, &kit, &cfg, 4, false, 32, &plan).unwrap();
        let par = par_sweep(
            &Scenario::fig1(4),
            &flag,
            &kit,
            &cfg,
            4,
            false,
            32,
            &plan,
            4,
        )
        .unwrap();
        assert_eq!(par.reports.len(), 32, "no repetition lost");
        assert!(par.failures.is_empty(), "{:?}", par.failures);
        assert_eq!(par.completion, serial.completion);
        assert_eq!(par.waiting, serial.waiting);
        assert!(par
            .reports
            .iter()
            .all(|r| !r.resilience.as_ref().unwrap().incidents.is_empty()));
    }

    #[test]
    fn try_sweep_zero_reps_is_an_error() {
        let (flag, kit) = mauritius_setup();
        let err = try_sweep(
            &Scenario::fig1(1),
            &flag,
            &kit,
            &ActivityConfig::default(),
            1,
            false,
            0,
            &crate::faults::FaultPlan::none(),
        )
        .unwrap_err();
        assert!(err.contains("at least one repetition"));
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        let (flag, kit) = mauritius_setup();
        let _ = sweep(
            &Scenario::fig1(1),
            &flag,
            &kit,
            &ActivityConfig::default(),
            1,
            false,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "sweep run failed: rep 0: scenario 3")]
    fn all_failed_sweep_panics_with_the_documented_message() {
        // Regression: sweep() used to hit `.expect("sweep run failed")`
        // on the all-failed path, panicking with a Debug-formatted
        // message instead of the documented "sweep run failed: rep N:"
        // format. A team of 1 can never staff scenario 3's four stripes,
        // so every repetition fails.
        let (flag, kit) = mauritius_setup();
        let _ = sweep(
            &Scenario::fig1(3),
            &flag,
            &kit,
            &ActivityConfig::default(),
            1,
            false,
            4,
        );
    }

    #[test]
    fn all_failed_try_sweep_reports_the_first_failure() {
        let (flag, kit) = mauritius_setup();
        let err = try_sweep(
            &Scenario::fig1(3),
            &flag,
            &kit,
            &ActivityConfig::default(),
            1,
            false,
            4,
            &crate::faults::FaultPlan::none(),
        )
        .unwrap_err();
        assert!(err.contains("all 4 repetitions failed"), "{err}");
        assert!(err.contains("rep 0"), "{err}");
    }
}
