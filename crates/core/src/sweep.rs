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
//! threads claim chunks of consecutive repetitions ([`claim_reps`]), and
//! one reorder merge ([`MergeState`]) folds outcomes back in repetition
//! order before any statistic is touched. `par_sweep` with any job count
//! therefore produces a [`SweepResult`] identical to the serial
//! [`try_sweep`] for the same configuration.
//!
//! The sharded sweeps of `flagsim-shard` run the same two pieces: their
//! coordinator folds every worker's outcomes through a [`MergeState`]
//! (which its checkpoints freeze and restore), and runs the repetitions a
//! campaign still owes in-process through [`claim_reps`].
//!
//! A retained sweep runs every repetition through the report finish
//! ([`SweepRunner::run_rep`]) and keeps each [`RunReport`]. For huge
//! campaigns, [`SweepRunner::retain_reports`]`(false)` runs every
//! repetition through the stats finish ([`SweepRunner::run_rep_stats`]),
//! which never assembles a report, and accumulates the two metrics in
//! O(1) memory with [`StreamingStats`]. Both finishes run on one team,
//! world and engine per thread, reused rep after rep, so a stats rep
//! allocates nothing and a report rep allocates only what its report
//! keeps. A progress callback ([`SweepRunner::on_progress`]) gives
//! observability either way.

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::report::{RepSample, RunReport};
use crate::run::RunPrep;
use crate::scenario::{CompiledScenario, Scenario};
use crate::work::PreparedFlag;
use flagsim_agents::StudentProfile;
use flagsim_metrics::{RunStats, StreamingStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// This thread's rep team, refilled for every rep the thread runs.
    static TEAM: RefCell<Vec<StudentProfile>> = const { RefCell::new(Vec::new()) };
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
    /// Index of the worker thread whose chunk of repetitions this
    /// snapshot merged (0 on the serial path, where a chunk is one rep).
    pub worker: usize,
    /// The last repetition of that chunk (not necessarily the highest
    /// merged index — chunks complete out of order).
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
                self.emit(collector.progress(0, rep));
            }
        } else {
            self.run_parallel(jobs, sweep_id, &mut collector);
        }
        flagsim_telemetry::count("sweep.reps_completed", collector.merge.merged());
        flagsim_telemetry::count("sweep.failures", collector.merge.failures().len() as u64);
        drop(sweep_span);
        collector.finish()
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
        let mut cfg = self.rep_config(rep);
        if !self.retain_reports {
            // A report wanted from a streaming runner is one-off, so
            // recording per-event traces is pure waste; accounting is
            // bit-identical with the sink off.
            cfg.trace_events = false;
        }
        self.with_team(
            compiled.parts(),
            |i| format!("P{i}"),
            |team| compiled.run(prep, &cfg, &self.plan).report(team),
        )
    }

    /// Repetition `rep` reduced to its [`RepSample`], bit-equal to
    /// [`SweepRunner::run_rep`]`(rep)`'s `completion_secs()` and
    /// `total_wait_secs()` — and to its error string when the rep fails.
    /// The same preparation and engine run as `run_rep`, but no
    /// [`RunReport`]: no grid paint-and-verify, no per-student or
    /// per-color tables, no names or labels, and without faults no live
    /// fault state. Each thread keeps one team, world and engine for all
    /// its reps, so a steady-state rep allocates nothing. What streaming
    /// sweeps and shard executors run.
    pub fn run_rep_stats(&self, rep: u64) -> Result<RepSample, String> {
        let (compiled, prep) = self.prepared()?;
        let cfg = self.rep_config(rep);
        self.with_team(
            compiled.parts(),
            |_| String::new(),
            |team| compiled.run(prep, &cfg, &self.plan).stats(team),
        )
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

    /// `f` on a fresh team of `n` students named by `name(i)` for `i` in
    /// `1..=n`, held in this thread's team buffer.
    fn with_team<T>(
        &self,
        n: usize,
        name: impl Fn(usize) -> String,
        f: impl FnOnce(&mut [StudentProfile]) -> T,
    ) -> T {
        TEAM.with(|team| {
            let team = &mut *team.borrow_mut();
            team.clear();
            team.extend((1..=n).map(|i| {
                let s = StudentProfile::new(name(i));
                if self.warmup {
                    s
                } else {
                    s.without_warmup()
                }
            }));
            f(team)
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
    fn run_one(&self, rep: u64) -> (RepOutcome, Option<RunReport>) {
        if !self.retain_reports {
            return (self.run_rep_stats(rep).into(), None);
        }
        match self.run_rep(rep) {
            Ok(report) => (Ok(report.sample()).into(), Some(report)),
            Err(error) => (RepOutcome::Failed { error }, None),
        }
    }

    /// Fan repetitions across `jobs` scoped worker threads through
    /// [`claim_reps`]; the collector's merge makes the result the serial
    /// loop's no matter how the threads interleave.
    fn run_parallel(
        &self,
        jobs: usize,
        sweep_id: Option<flagsim_telemetry::SpanId>,
        collector: &mut Collector,
    ) {
        claim_reps(
            &[(0, self.reps)],
            jobs,
            |w| {
                flagsim_telemetry::set_thread_track(&format!("worker-{w}"));
                let worker_span =
                    flagsim_telemetry::span_linked("runtime", "sweep.worker", sweep_id)
                        .arg("worker", w);
                move |rep| {
                    // Holds the worker span until the thread's claims run out.
                    let _worker = &worker_span;
                    let _rep = flagsim_telemetry::span_linked("sim", "sweep.rep", sweep_id)
                        .arg("rep", rep);
                    self.run_one(rep)
                }
            },
            |w, outcomes| {
                let last = outcomes.last().map_or(0, |&(rep, _)| rep);
                for (rep, outcome) in outcomes.drain(..) {
                    collector.accept(rep, outcome);
                }
                Some(collector.progress(w, last))
            },
            // Outside the lock: a slow observer must not serialize the
            // workers.
            |p| self.emit(p),
        );
    }

    fn emit(&self, progress: SweepProgress) {
        if let Some(cb) = &self.progress {
            cb(progress);
        }
    }
}

/// The sweep's collector: the one reorder merge, plus every report when
/// reports are retained.
struct Collector {
    merge: MergeState,
    /// In retained mode, slot `rep` holds rep `rep`'s report (`None` for a
    /// failed rep). Grown on demand as reports arrive, in any order.
    reports: Option<Vec<Option<RunReport>>>,
}

impl Collector {
    fn new(retain: bool, total: u64) -> Self {
        Collector {
            merge: MergeState::new(total),
            reports: retain.then(Vec::new),
        }
    }

    fn accept(&mut self, rep: u64, (outcome, report): (RepOutcome, Option<RunReport>)) {
        if let (Some(kept), Some(report)) = (&mut self.reports, report) {
            let slot = rep as usize;
            if kept.len() <= slot {
                kept.resize_with(slot + 1, || None);
            }
            kept[slot] = Some(report);
        }
        self.merge.accept(rep, outcome);
    }

    fn progress(&self, worker: usize, rep: u64) -> SweepProgress {
        SweepProgress {
            completed: self.merge.merged(),
            failed: self.merge.failures().len() as u64,
            total: self.merge.total(),
            worker,
            rep,
        }
    }

    /// The streaming statistics, or in retained mode the exact ones over
    /// the kept reports' samples.
    fn finish(self) -> Result<SweepResult, SweepError> {
        let (mut completion, mut waiting) = self.merge.finish()?;
        // `filter_map`, unlike `flatten`, collects in place, so the kept
        // reports are not held twice at the peak.
        #[allow(clippy::filter_map_identity)]
        let reports: Vec<RunReport> = self.reports.map_or_else(Vec::new, |kept| {
            kept.into_iter().filter_map(|r| r).collect()
        });
        if !reports.is_empty() {
            let samples: Vec<RepSample> = reports.iter().map(RunReport::sample).collect();
            let sample_stats = |f: fn(&RepSample) -> f64| {
                RunStats::from_sample(&samples.iter().map(f).collect::<Vec<_>>())
            };
            completion = sample_stats(|s| s.completion_secs);
            waiting = sample_stats(|s| s.wait_secs);
        }
        Ok(SweepResult {
            completion,
            waiting,
            reports,
            failures: self.merge.failures().to_vec(),
        })
    }
}

/// One repetition's outcome, reduced to what statistics need.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// The run succeeded; the two swept metrics, bit-exact.
    Ok {
        /// Completion time in seconds.
        completion: f64,
        /// Total waiting time in seconds.
        waiting: f64,
    },
    /// The run failed (recorded, like [`try_sweep`], not fatal).
    Failed {
        /// The error string the run reported.
        error: String,
    },
}

impl From<Result<RepSample, String>> for RepOutcome {
    /// A repetition as [`SweepRunner::run_rep_stats`] returns it.
    fn from(rep: Result<RepSample, String>) -> Self {
        match rep {
            Ok(sample) => RepOutcome::Ok {
                completion: sample.completion_secs,
                waiting: sample.wait_secs,
            },
            Err(error) => RepOutcome::Failed { error },
        }
    }
}

/// The one reorder merge of every sweep: threads, shard workers and
/// resumed checkpoints. Outcomes arrive keyed by repetition index in any
/// order, park in a buffer, and fold into the accumulators strictly in
/// repetition order. [`StreamingStats`] is order-sensitive (its exact
/// sum, Welford recurrence and P² markers all round differently under
/// reordering), so that order keeps the statistics bit-for-bit the serial
/// loop's under any thread count, worker failure or resume. An outcome
/// for a rep already merged or buffered is dropped. Each merged rep feeds
/// the `sweep.completion_secs` histogram and the `sweep.completion.*`
/// gauges the dashboard reads, and each failure logs a warning.
#[derive(Debug, Clone)]
pub struct MergeState {
    total: u64,
    next_emit: u64,
    pending: BTreeMap<u64, RepOutcome>,
    completion: StreamingStats,
    waiting: StreamingStats,
    failures: Vec<SweepFailure>,
}

impl MergeState {
    /// An empty merge over `total` repetitions.
    pub fn new(total: u64) -> Self {
        Self::restore(
            total,
            0,
            StreamingStats::new(),
            StreamingStats::new(),
            Vec::new(),
            Vec::new(),
        )
    }

    /// Rebuild a merge mid-campaign: accumulators and failures restored
    /// from a checkpoint, watermark at `next_emit`, plus any
    /// completed-but-unmerged outcomes (they re-enter the reorder buffer
    /// and merge as soon as the gap before them closes).
    pub fn restore(
        total: u64,
        next_emit: u64,
        completion: StreamingStats,
        waiting: StreamingStats,
        failures: Vec<SweepFailure>,
        pending: Vec<(u64, RepOutcome)>,
    ) -> Self {
        let mut m = MergeState {
            total,
            next_emit,
            pending: BTreeMap::new(),
            completion,
            waiting,
            failures,
        };
        for (rep, outcome) in pending {
            m.accept(rep, outcome);
        }
        m
    }

    /// Fold in one repetition's outcome. Outcomes for already-merged or
    /// already-buffered reps are ignored (idempotent). Returns how many
    /// repetitions were *merged* (drained in order) by this call. The rep
    /// at the watermark folds straight in, without a trip through the
    /// buffer.
    pub fn accept(&mut self, rep: u64, outcome: RepOutcome) -> u64 {
        if rep >= self.total || rep < self.next_emit {
            return 0;
        }
        if rep > self.next_emit {
            self.pending.entry(rep).or_insert(outcome);
            return 0;
        }
        self.fold(outcome);
        let mut merged = 1;
        while let Some(ready) = self.pending.first_entry() {
            if *ready.key() != self.next_emit {
                break;
            }
            let outcome = ready.remove();
            self.fold(outcome);
            merged += 1;
        }
        if flagsim_telemetry::enabled() && self.completion.n() > 0 {
            let stats = self.completion.to_stats();
            flagsim_telemetry::gauge_set("sweep.completion.mean_s", stats.mean);
            flagsim_telemetry::gauge_set("sweep.completion.ci95_s", stats.ci95_half_width());
        }
        merged
    }

    /// Fold the outcome of rep `next_emit` into the accumulators.
    fn fold(&mut self, outcome: RepOutcome) {
        let rep = self.next_emit;
        match outcome {
            RepOutcome::Ok {
                completion,
                waiting,
            } => {
                self.completion.push(completion);
                self.waiting.push(waiting);
                flagsim_telemetry::observe("sweep.completion_secs", completion);
            }
            RepOutcome::Failed { error } => {
                flagsim_telemetry::log::warn(
                    "core.sweep",
                    "repetition failed",
                    &[("rep", rep.to_string()), ("error", error.clone())],
                );
                self.failures.push(SweepFailure { rep, error });
            }
        }
        self.next_emit += 1;
    }

    /// Repetitions merged so far — the checkpoint watermark: every rep
    /// below it is folded into the accumulators, every rep at or above
    /// it is either buffered in [`MergeState::pending_outcomes`] or
    /// still owed.
    pub fn merged(&self) -> u64 {
        self.next_emit
    }

    /// Repetitions in hand: merged, plus parked in the reorder buffer.
    /// Unlike [`merged`](MergeState::merged), this grows by exactly one
    /// with each newly accepted rep, whatever order reps arrive in.
    pub fn in_hand(&self) -> u64 {
        self.next_emit + self.pending.len() as u64
    }

    /// Total repetitions in the campaign.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether every repetition has merged.
    pub fn is_complete(&self) -> bool {
        self.next_emit == self.total
    }

    /// The completed-but-unmerged outcomes (reps above the watermark
    /// with gaps before them), for checkpointing.
    pub fn pending_outcomes(&self) -> Vec<(u64, RepOutcome)> {
        self.pending.iter().map(|(r, o)| (*r, o.clone())).collect()
    }

    /// The repetition indices in `[merged(), total())` that are *not*
    /// sitting in the reorder buffer — the work a resumed campaign still
    /// owes. Returned as maximal contiguous ranges.
    pub fn missing_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = self.next_emit;
        for &rep in self.pending.keys() {
            if rep > cursor {
                out.push((cursor, rep));
            }
            cursor = rep + 1;
        }
        if cursor < self.total {
            out.push((cursor, self.total));
        }
        out
    }

    /// Borrow the accumulators (for checkpointing).
    pub fn accumulators(&self) -> (&StreamingStats, &StreamingStats) {
        (&self.completion, &self.waiting)
    }

    /// Recorded per-rep failures, in repetition order.
    pub fn failures(&self) -> &[SweepFailure] {
        &self.failures
    }

    /// Freeze into completion and waiting statistics. Errors when no
    /// merged repetition succeeded: [`SweepError::AllFailed`] naming the
    /// first failure, or [`SweepError::NoRepetitions`] when none merged.
    pub fn finish(&self) -> Result<(RunStats, RunStats), SweepError> {
        if self.completion.n() == 0 {
            return Err(match self.failures.first() {
                Some(first) => SweepError::AllFailed {
                    reps: self.total,
                    first: first.clone(),
                },
                None => SweepError::NoRepetitions,
            });
        }
        Ok((self.completion.to_stats(), self.waiting.to_stats()))
    }
}

/// The largest chunk [`claim_reps`] hands a thread: a long sweep takes
/// one lock per this many reps, and a stop is seen within one chunk.
const MAX_CLAIM: u64 = 64;

/// Reps per claim in [`claim_reps`]: about four claims per thread, so the
/// threads finish close together, capped at [`MAX_CLAIM`].
fn claim_chunk(reps: u64, jobs: usize) -> u64 {
    (reps / (jobs as u64).saturating_mul(4)).clamp(1, MAX_CLAIM)
}

/// The one in-process claim loop: run every rep of `ranges` (ascending,
/// half-open `(start, end)` pairs) on `jobs` scoped threads. Thread `w`
/// runs reps with `worker(w)`, which holds its per-thread state and spans
/// until its claims run out. Under one lock, a thread hands its last
/// chunk's outcomes, in rep order, to `merge(w, outcomes)` (none before
/// its first claim) and claims the next chunk of consecutive reps; outside
/// it, the thread passes what `merge` returned to `progress` (when it
/// merged any) and runs the chunk. `merge` returns `None` to stop every
/// thread; no `merge` call follows. A merge by rep index (a
/// [`MergeState`]) makes the result independent of the scheduling.
pub fn claim_reps<T, F, P>(
    ranges: &[(u64, u64)],
    jobs: usize,
    worker: impl Fn(usize) -> F + Sync,
    merge: impl FnMut(usize, &mut Vec<(u64, T)>) -> Option<P> + Send,
    progress: impl Fn(P) + Sync,
) where
    F: FnMut(u64) -> T,
{
    let total: u64 = ranges.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
    let jobs = jobs.clamp(1, usize::try_from(total).unwrap_or(usize::MAX).max(1));
    let chunk = claim_chunk(total, jobs);
    let chunks = ranges.iter().flat_map(move |&(start, end)| {
        (start..end)
            .step_by(chunk as usize)
            .map(move |from| from..end.min(from.saturating_add(chunk)))
    });
    // The unclaimed chunks, the caller's merge, and whether it stopped.
    let shared = Mutex::new((chunks, merge, false));
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (shared, worker, progress) = (&shared, &worker, &progress);
            scope.spawn(move || {
                let mut run = worker(w);
                let mut outcomes = Vec::new();
                loop {
                    let (merged, claim) = {
                        let mut guard = shared.lock().expect("no thread panicked mid-merge");
                        let (chunks, merge, stopped) = &mut *guard;
                        if *stopped {
                            break;
                        }
                        let any = !outcomes.is_empty();
                        let Some(note) = merge(w, &mut outcomes) else {
                            *stopped = true;
                            break;
                        };
                        outcomes.clear();
                        (any.then_some(note), chunks.next())
                    };
                    if let Some(note) = merged {
                        progress(note);
                    }
                    let Some(reps) = claim else { break };
                    outcomes.extend(reps.map(|rep| (rep, run(rep))));
                }
            });
        }
    });
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
    fn ok(x: f64) -> RepOutcome {
        RepOutcome::Ok {
            completion: x,
            waiting: x / 2.0,
        }
    }

    #[test]
    fn out_of_order_delivery_matches_in_order() {
        let xs: Vec<f64> = (0..40).map(|i| (i * 37 % 23) as f64 + 0.25).collect();
        let mut serial = MergeState::new(40);
        for (i, &x) in xs.iter().enumerate() {
            serial.accept(i as u64, ok(x));
        }
        // A scrambled order (deterministic permutation).
        let mut scrambled = MergeState::new(40);
        let mut order: Vec<u64> = (0..40).collect();
        order.reverse();
        order.swap(3, 31);
        order.swap(0, 17);
        for &i in &order {
            scrambled.accept(i, ok(xs[i as usize]));
        }
        assert!(serial.is_complete() && scrambled.is_complete());
        let (a, _) = serial.finish().unwrap();
        let (b, _) = scrambled.finish().unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
        assert_eq!(a.median.to_bits(), b.median.to_bits());
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut m = MergeState::new(3);
        m.accept(0, ok(1.0));
        m.accept(0, ok(999.0)); // late duplicate of a merged rep
        m.accept(2, ok(3.0));
        m.accept(2, ok(888.0)); // duplicate of a buffered rep
        m.accept(1, ok(2.0));
        let (stats, _) = m.finish().unwrap();
        assert_eq!(stats.n, 3);
        assert_eq!(stats.max, 3.0, "duplicates must not leak into stats");
    }

    #[test]
    fn missing_ranges_account_for_buffered_reps() {
        let mut m = MergeState::new(10);
        m.accept(0, ok(1.0));
        m.accept(4, ok(1.0));
        m.accept(5, ok(1.0));
        m.accept(8, ok(1.0));
        assert_eq!(m.merged(), 1);
        assert_eq!(m.missing_ranges(), vec![(1, 4), (6, 8), (9, 10)]);
        assert_eq!(m.pending_outcomes().len(), 3);
    }

    #[test]
    fn failures_record_without_sinking_stats() {
        let mut m = MergeState::new(3);
        m.accept(0, ok(1.0));
        m.accept(
            1,
            RepOutcome::Failed {
                error: "rope snapped".into(),
            },
        );
        m.accept(2, ok(2.0));
        let (stats, _) = m.finish().unwrap();
        assert_eq!(stats.n, 2);
        assert_eq!(m.failures().len(), 1);
        assert_eq!(m.failures()[0].rep, 1);
    }

    #[test]
    fn all_failed_is_an_error() {
        let mut m = MergeState::new(2);
        m.accept(0, RepOutcome::Failed { error: "a".into() });
        m.accept(1, RepOutcome::Failed { error: "b".into() });
        let err = m.finish().unwrap_err();
        let first = SweepFailure {
            rep: 0,
            error: "a".into(),
        };
        assert_eq!(err, SweepError::AllFailed { reps: 2, first });
        // The same text the in-process sweep prints for the same condition.
        assert!(
            err.to_string().contains("all 2 repetitions failed"),
            "{err}"
        );
        assert!(err.to_string().contains("rep 0"), "{err}");
        assert_eq!(
            MergeState::new(2).finish().unwrap_err(),
            SweepError::NoRepetitions
        );
    }

    #[test]
    fn restore_replays_pending_into_the_buffer() {
        let mut whole = MergeState::new(6);
        for i in 0..6 {
            whole.accept(i, ok(i as f64));
        }
        // Simulate a checkpoint at watermark 2 with reps 4,5 pending.
        let mut head = MergeState::new(6);
        head.accept(0, ok(0.0));
        head.accept(1, ok(1.0));
        head.accept(4, ok(4.0));
        head.accept(5, ok(5.0));
        let (c, w) = head.accumulators();
        let restored = MergeState::restore(
            6,
            head.merged(),
            c.clone(),
            w.clone(),
            head.failures().to_vec(),
            head.pending_outcomes(),
        );
        let mut resumed = restored;
        assert_eq!(resumed.missing_ranges(), vec![(2, 4)]);
        resumed.accept(2, ok(2.0));
        resumed.accept(3, ok(3.0));
        assert!(resumed.is_complete());
        let (a, aw) = resumed.finish().unwrap();
        let (b, bw) = whole.finish().unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
        assert_eq!(aw.mean.to_bits(), bw.mean.to_bits());
    }

    /// A synthetic repetition: every third rep fails, the others carry
    /// values scrambled from the index, and odd reps yield first so
    /// threads finish out of order.
    fn synthetic(rep: u64) -> RepOutcome {
        if rep % 3 == 2 {
            return RepOutcome::Failed {
                error: format!("rep {rep} failed"),
            };
        }
        if rep % 2 == 1 {
            std::thread::yield_now();
        }
        let x = (rep.wrapping_mul(2_654_435_761) % 1_000) as f64 / 7.0 + 0.1;
        RepOutcome::Ok {
            completion: x,
            waiting: x / 3.0,
        }
    }

    fn stats_bits(s: &RunStats) -> [u64; 6] {
        [
            s.n as u64,
            s.mean.to_bits(),
            s.stddev.to_bits(),
            s.min.to_bits(),
            s.median.to_bits(),
            s.max.to_bits(),
        ]
    }

    #[test]
    fn claim_loop_merges_in_rep_order_at_any_job_count() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for jobs in [1usize, 2, 3, 4, 7] {
            // Reps of a single chunk or less, partial last chunks around
            // the largest chunk, and whole and partial capped chunks.
            let capped = 4 * jobs as u64 * MAX_CLAIM;
            let mut counts = vec![
                1,
                50,
                MAX_CLAIM - 1,
                MAX_CLAIM + 1,
                capped - 1,
                capped,
                capped + 1,
            ];
            if jobs > 1 {
                counts.push(jobs as u64 - 1);
            }
            for reps in counts {
                let mut serial = MergeState::new(reps);
                for rep in 0..reps {
                    serial.accept(rep, synthetic(rep));
                }
                let mut merge = MergeState::new(reps);
                // A success's "report" is its rep index, kept by rep as
                // the sweep collector keeps reports.
                let mut kept: Vec<Option<u64>> = Vec::new();
                let runs: Vec<AtomicU64> = (0..reps).map(|_| AtomicU64::new(0)).collect();
                let peak = AtomicU64::new(0);
                claim_reps(
                    &[(0, reps)],
                    jobs,
                    |_| {
                        |rep| {
                            runs[rep as usize].fetch_add(1, Ordering::Relaxed);
                            let outcome = synthetic(rep);
                            let report = matches!(outcome, RepOutcome::Ok { .. }).then_some(rep);
                            (outcome, report)
                        }
                    },
                    |_, outcomes| {
                        let chunk = claim_chunk(reps, jobs.min(reps as usize));
                        assert!(outcomes.len() as u64 <= chunk, "jobs {jobs} reps {reps}");
                        assert!(outcomes.windows(2).all(|w| w[1].0 == w[0].0 + 1));
                        for (rep, (outcome, report)) in outcomes.drain(..) {
                            if let Some(report) = report {
                                if kept.len() <= rep as usize {
                                    kept.resize(rep as usize + 1, None);
                                }
                                kept[rep as usize] = Some(report);
                            }
                            merge.accept(rep, outcome);
                        }
                        Some(merge.merged())
                    },
                    |merged| {
                        peak.fetch_max(merged, Ordering::Relaxed);
                    },
                );
                let case = format!("jobs {jobs} reps {reps}");
                assert!(
                    runs.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                    "{case}: a rep ran twice or never"
                );
                assert_eq!(peak.load(Ordering::Relaxed), reps, "{case}: final progress");
                assert!(merge.is_complete(), "{case}");
                let (c, w) = merge.finish().unwrap();
                let (sc, sw) = serial.finish().unwrap();
                assert_eq!(stats_bits(&c), stats_bits(&sc), "{case}");
                assert_eq!(stats_bits(&w), stats_bits(&sw), "{case}");
                assert_eq!(
                    merge.accumulators().0.to_json(),
                    serial.accumulators().0.to_json(),
                    "{case}"
                );
                assert_eq!(merge.failures(), serial.failures(), "{case}");
                let reports: Vec<u64> = kept.into_iter().flatten().collect();
                let successes: Vec<u64> = (0..reps).filter(|r| r % 3 != 2).collect();
                assert_eq!(reports, successes, "{case}");
            }
        }
    }

    #[test]
    fn claim_loop_stops_at_the_first_none() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stopped = AtomicBool::new(false);
        let mut merge = MergeState::new(5_000);
        claim_reps(
            &[(0, 100), (200, 5_000)],
            3,
            |_| synthetic,
            |_, outcomes| {
                assert!(
                    !stopped.load(Ordering::Relaxed),
                    "merge called after a stop"
                );
                for (rep, outcome) in outcomes.drain(..) {
                    assert!(!(100..200).contains(&rep), "rep {rep} is outside the ranges");
                    merge.accept(rep, outcome);
                }
                if merge.merged() >= 50 {
                    stopped.store(true, Ordering::Relaxed);
                    return None;
                }
                Some(())
            },
            |()| {},
        );
        assert!(stopped.load(Ordering::Relaxed));
        assert!(
            merge.merged() >= 50 && merge.merged() <= 100,
            "{}",
            merge.merged()
        );
    }
}
