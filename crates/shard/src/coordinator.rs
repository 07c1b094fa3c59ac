//! The coordinator: shard a sweep across worker processes, survive
//! their deaths, and land the exact serial answer.
//!
//! One OS thread per endpoint runs the connect → hello → lease loop,
//! feeding every reported repetition through the shared [`MergeState`]
//! (`core::sweep`'s one reorder merge); the main thread supervises
//! heartbeat deadlines, the wall-clock budget, and the checkpoint
//! cadence. Failure handling is layered:
//!
//! 1. connect failures back off exponentially with an attempt budget;
//! 2. a session that errors, goes silent past the heartbeat timeout, or
//!    reports a rep or `lease_done` it does not owe marks its worker
//!    dead, and the unfinished part of its leases is redistributed per
//!    the campaign's `RecoveryPolicy`;
//! 3. a dead session's endpoint thread re-registers and reconnects
//!    (bounded by the same attempt budget);
//! 4. when every endpoint thread has given up and work remains, the
//!    coordinator degrades to running the missing repetitions
//!    in-process — same [`run_rep_stats`], same answer, no cluster.
//!
//! [`run_rep_stats`]: flagsim_core::sweep::SweepRunner::run_rep_stats
//!
//! The same code path runs pure in-process sweeps (no endpoints), which
//! is how `--checkpoint`/`--resume`/`--max-wall-secs` work without any
//! workers at all. In-process repetitions run on `core::sweep`'s one
//! in-process rep loop, [`SweepRunner::drive`], over the merge's missing
//! ranges, so they record the same `sweep.rep` spans an in-process sweep
//! does.
//!
//! [`SweepRunner::drive`]: flagsim_core::sweep::SweepRunner::drive

use crate::checkpoint::Checkpoint;
use crate::fleet::ObsHub;
use crate::job::{JobSpec, MaterializedJob};
use crate::lease::{LeaseConfig, LeaseGrant, LeaseTable, WorkerId};
use crate::wire::{self, Message, Receiver, TelemetryBatch, TraceConfig, PROTOCOL_VERSION};
use flagsim_core::sweep::{MergeState, RepOutcome, SweepFailure, SweepProgress};
use flagsim_metrics::RunStats;
use flagsim_telemetry::log;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Everything that shapes a sharded campaign besides the job itself.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker endpoints (`host:port`). Empty means run in-process.
    pub endpoints: Vec<String>,
    /// Threads for the in-process path (and the degradation path).
    pub local_jobs: usize,
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint whenever this many new reps are in hand (merged or
    /// parked in the reorder buffer) since the last save.
    pub checkpoint_every: u64,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<Checkpoint>,
    /// Soft wall-clock budget: on expiry the coordinator checkpoints
    /// and reports [`ShardOutcome::DeadlineExpired`].
    pub max_wall: Option<Duration>,
    /// Lease sizing, heartbeat/backoff tuning, and the recovery policy.
    pub lease: LeaseConfig,
    /// Test/bench hook: stop abruptly (no final checkpoint — simulating
    /// a kill) once this many reps are in hand (merged or parked in the
    /// reorder buffer), which happens at exactly that rep in any merge
    /// order.
    pub halt_after_reps: Option<u64>,
    /// Suppress stderr progress notes.
    pub quiet: bool,
    /// Fleet-observability hub the coordinator publishes worker state
    /// into (dashboard / `--obs-out`); `None` disables fleet tracking.
    pub obs: Option<ObsHub>,
    /// Rep-sampling stride propagated in the hello trace context:
    /// workers instrument every `trace_sample`-th repetition. 0 picks
    /// automatically (about 256 sampled reps per campaign) so shipping
    /// cost stays bounded no matter how large the sweep; 1 means full
    /// fidelity.
    pub trace_sample: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            endpoints: Vec::new(),
            local_jobs: 1,
            checkpoint_path: None,
            checkpoint_every: 64,
            resume: None,
            max_wall: None,
            lease: LeaseConfig::default(),
            halt_after_reps: None,
            quiet: true,
            obs: None,
            trace_sample: 0,
        }
    }
}

/// Resolve the rep-sampling stride for a campaign: an explicit setting
/// wins; auto (0) aims for about 256 instrumented reps per campaign so
/// per-rep spans never dominate a large sweep's wall clock.
fn resolve_sample(cfg: &CoordinatorConfig, reps: u64) -> u64 {
    if cfg.trace_sample > 0 {
        cfg.trace_sample
    } else {
        (reps / 256).max(1)
    }
}

/// The campaign's trace id: the hex job fingerprint, identical on every
/// process that materializes the same job.
pub fn campaign_id(job: &JobSpec) -> String {
    job.fingerprint()
}

/// Summary statistics of a completed campaign — bit-identical to what
/// the serial streaming sweep would report.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Completion-time statistics.
    pub completion: RunStats,
    /// Waiting-time statistics.
    pub waiting: RunStats,
    /// Per-rep failures (recorded, not fatal).
    pub failures: Vec<SweepFailure>,
    /// Total repetitions merged (equals the job's rep count).
    pub reps: u64,
}

/// How a campaign ended.
#[derive(Debug)]
pub enum ShardOutcome {
    /// Every repetition merged.
    Completed(ShardResult),
    /// The wall-clock budget expired first; a checkpoint (if configured)
    /// holds the progress.
    DeadlineExpired {
        /// Reps merged before expiry.
        merged: u64,
        /// Total reps in the campaign.
        total: u64,
        /// The checkpoint written on expiry, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
    /// `halt_after_reps` tripped (test/bench kill simulation): stopped
    /// abruptly with no final checkpoint.
    Halted {
        /// Reps merged before the simulated kill.
        merged: u64,
    },
}

struct Shared {
    table: LeaseTable,
    merge: MergeState,
    last_ckpt: u64,
    halted: bool,
    deadline_hit: bool,
    fatal: Option<String>,
}

fn now_ms(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

/// The campaign state behind its lock, and the supervisor's wake-up.
/// Endpoint threads notify `wake` when a stop is requested and when the
/// last of them exits, so the supervisor sees a terminal state without
/// waiting out its tick. A completed merge wakes it through that last
/// exit: each session ends on its own once no lease is left, and a
/// worker still connecting gets to join the fleet view first.
struct SharedState {
    inner: Mutex<Shared>,
    wake: Condvar,
}

fn lock(shared: &SharedState) -> std::sync::MutexGuard<'_, Shared> {
    shared.inner.lock().expect("shard state lock poisoned")
}

/// Fold one outcome into the merge, honoring checkpoint cadence and the
/// halt hook. Both count reps in hand, which grow by one per new rep
/// however the lanes or workers interleave, where the merge watermark can
/// jump past a threshold in one step. Call with the state lock held.
fn record(sh: &mut Shared, job: &JobSpec, cfg: &CoordinatorConfig, rep: u64, outcome: RepOutcome) {
    sh.merge.accept(rep, outcome);
    let in_hand = sh.merge.in_hand();
    if let (Some(path), true) = (&cfg.checkpoint_path, cfg.checkpoint_every > 0) {
        if in_hand.saturating_sub(sh.last_ckpt) >= cfg.checkpoint_every {
            match Checkpoint::from_merge(job, &sh.merge).save(path) {
                Ok(()) => sh.last_ckpt = in_hand,
                Err(e) => sh.fatal = Some(format!("checkpoint save failed: {e}")),
            }
        }
    }
    if let Some(n) = cfg.halt_after_reps {
        if in_hand >= n && !sh.merge.is_complete() {
            sh.halted = true;
        }
    }
}

fn stop_requested(sh: &Shared) -> bool {
    sh.halted || sh.deadline_hit || sh.fatal.is_some()
}

/// Run `job` under `cfg`. Statistics in [`ShardOutcome::Completed`] are
/// bit-for-bit those of the serial streaming sweep, regardless of
/// worker count, failures, or resume history.
pub fn run_sweep(job: &JobSpec, cfg: &CoordinatorConfig) -> Result<ShardOutcome, String> {
    let _span = flagsim_telemetry::span("shard", "coordinate");
    let mat = job.materialize()?;
    let merge = match &cfg.resume {
        Some(ck) => {
            if ck.job.fingerprint() != job.fingerprint() {
                return Err(format!(
                    "resume: checkpoint is for a different campaign \
                     (checkpoint {}, requested {})",
                    ck.job.fingerprint(),
                    job.fingerprint()
                ));
            }
            ck.clone().into_merge()
        }
        None => MergeState::new(job.reps),
    };
    if flagsim_telemetry::enabled() {
        flagsim_telemetry::gauge_set("shard.total_reps", job.reps as f64);
        flagsim_telemetry::gauge_set("shard.endpoints", cfg.endpoints.len() as f64);
    }
    if let Some(hub) = &cfg.obs {
        let (merged, failed) = (merge.merged(), merge.failures().len() as u64);
        hub.with(|fv| {
            fv.reset(campaign_id(job), job.reps);
            (fv.merged, fv.failed) = (merged, failed);
        });
    }
    let start = Instant::now();
    let table = LeaseTable::with_missing(job.reps, &merge.missing_ranges(), cfg.lease.clone());
    let shared = SharedState {
        inner: Mutex::new(Shared {
            table,
            last_ckpt: merge.in_hand(),
            merge,
            halted: false,
            deadline_hit: false,
            fatal: None,
        }),
        wake: Condvar::new(),
    };

    if !lock(&shared).merge.is_complete() {
        if cfg.endpoints.is_empty() {
            run_local(&mat, job, cfg, &shared, start);
        } else {
            run_remote(&mat, job, cfg, &shared, start);
        }
    }

    // Everything has stopped; freeze the outcome.
    let sh = shared
        .inner
        .into_inner()
        .expect("shard state lock poisoned");
    if let Some(hub) = &cfg.obs {
        let (merged, failed) = (sh.merge.merged(), sh.merge.failures().len() as u64);
        hub.with(|fv| (fv.merged, fv.failed) = (merged, failed));
    }
    if let Some(fatal) = sh.fatal {
        return Err(fatal);
    }
    if let Some(reason) = sh.table.abort_reason() {
        return Err(reason.to_owned());
    }
    if sh.halted {
        return Ok(ShardOutcome::Halted {
            merged: sh.merge.merged(),
        });
    }
    if sh.deadline_hit && !sh.merge.is_complete() {
        let checkpoint = match &cfg.checkpoint_path {
            Some(path) => {
                Checkpoint::from_merge(job, &sh.merge)
                    .save(path)
                    .map_err(|e| format!("checkpoint save on deadline: {e}"))?;
                Some(path.clone())
            }
            None => None,
        };
        return Ok(ShardOutcome::DeadlineExpired {
            merged: sh.merge.merged(),
            total: sh.merge.total(),
            checkpoint,
        });
    }
    if !sh.merge.is_complete() {
        return Err(format!(
            "campaign stalled at {}/{} reps with no workers left",
            sh.merge.merged(),
            sh.merge.total()
        ));
    }
    if let Some(path) = &cfg.checkpoint_path {
        // Final checkpoint: resuming a finished campaign is a no-op.
        Checkpoint::from_merge(job, &sh.merge)
            .save(path)
            .map_err(|e| format!("final checkpoint save: {e}"))?;
    }
    // A `SweepError`: worded as the in-process sweep words it.
    let (completion, waiting) = sh
        .merge
        .finish()
        .map_err(|e| format!("sweep failed: {e}"))?;
    Ok(ShardOutcome::Completed(ShardResult {
        completion,
        waiting,
        failures: sh.merge.failures().to_vec(),
        reps: sh.merge.total(),
    }))
}

/// In-process execution of whatever the merge still owes, on the one
/// in-process rep loop; also the degradation path when the cluster is gone.
/// Each outcome is [`record`]ed alone, so checkpoint cadence and
/// `halt_after_reps` stay exact to the rep; the wall budget is checked at
/// each hand-in, and with a hub each hand-in updates its lane's row.
fn run_local(
    mat: &MaterializedJob,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    start: Instant,
) {
    let missing = lock(shared).merge.missing_ranges();
    mat.runner()
        .jobs(cfg.local_jobs)
        .drive(&missing, |lane, batch| {
            let mut sh = lock(shared);
            let mut stop = false;
            let mut last = 0;
            for (rep, outcome, _) in batch {
                record(&mut sh, job, cfg, rep, outcome);
                last = rep;
                if stop_requested(&sh) {
                    stop = true;
                    break;
                }
            }
            let (merged, failed) = (sh.merge.merged(), sh.merge.failures().len() as u64);
            if let Some(hub) = &cfg.obs {
                hub.with(|fv| fv.on_lane(lane, merged, failed, now_ms(start)));
            }
            let expired = cfg.max_wall.is_some_and(|budget| start.elapsed() >= budget);
            if expired && !stop && !sh.merge.is_complete() {
                sh.deadline_hit = true;
                stop = true;
            }
            (!stop).then_some(SweepProgress {
                completed: merged,
                failed,
                total: sh.merge.total(),
                worker: lane,
                rep: last,
            })
        });
}

/// Drive the endpoint sessions plus the supervisor loop; returns once
/// every thread has stopped and a terminal condition holds.
fn run_remote(
    mat: &MaterializedJob,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    start: Instant,
) {
    let done = AtomicBool::new(false);
    let threads_alive = AtomicUsize::new(cfg.endpoints.len());
    thread::scope(|s| {
        for endpoint in &cfg.endpoints {
            let done = &done;
            let threads_alive = &threads_alive;
            s.spawn(move || {
                endpoint_sessions(endpoint, job, cfg, shared, done, start);
                // Under the lock, so the supervisor cannot miss the last
                // exit between reading the count and waiting.
                let _sh = lock(shared);
                if threads_alive.fetch_sub(1, Ordering::Relaxed) == 1 {
                    shared.wake.notify_one();
                }
            });
        }
        // Supervisor: a 5 ms tick for lease deadlines, the wall budget
        // and fleet sampling, cut short by a wake-up from an endpoint
        // thread.
        let mut sh = lock(shared);
        let degrade = loop {
            sh = shared
                .wake
                .wait_timeout(sh, Duration::from_millis(5))
                .expect("shard state lock poisoned")
                .0;
            let now = now_ms(start);
            sh.table.check_deadlines(now);
            if let Some(budget) = cfg.max_wall {
                if start.elapsed() >= budget && !sh.merge.is_complete() {
                    sh.deadline_hit = true;
                }
            }
            if let Some(hub) = &cfg.obs {
                let (merged, failed) = (sh.merge.merged(), sh.merge.failures().len() as u64);
                hub.with(|fv| {
                    (fv.merged, fv.failed) = (merged, failed);
                    if fv.sample(now) {
                        fv.publish_gauges(now);
                    }
                });
            }
            let terminal =
                sh.merge.is_complete() || stop_requested(&sh) || sh.table.abort_reason().is_some();
            if terminal {
                break false;
            }
            let cluster_gone = threads_alive.load(Ordering::Relaxed) == 0;
            if cluster_gone {
                if !cfg.quiet {
                    log::warn(
                        "shard.coordinator",
                        "no workers reachable; degrading to in-process execution",
                        &[
                            (
                                "remaining",
                                (sh.merge.total() - sh.merge.merged()).to_string(),
                            ),
                            ("total", sh.merge.total().to_string()),
                        ],
                    );
                }
                break true;
            }
        };
        drop(sh);
        if degrade {
            run_local(mat, job, cfg, shared, start);
        }
        done.store(true, Ordering::Relaxed);
        // Scope exit joins the endpoint threads (they observe `done`).
    });
}

/// One endpoint's lifetime: connect (with backoff), serve sessions,
/// re-register on death, give up when the attempt budget is spent.
fn endpoint_sessions(
    endpoint: &str,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    done: &AtomicBool,
    start: Instant,
) {
    let Ok(addr) = endpoint.parse::<SocketAddr>() else {
        let mut sh = lock(shared);
        let w = sh.table.add_worker(endpoint);
        sh.table
            .mark_dead(w, "unparseable endpoint address", now_ms(start));
        return;
    };
    let mut sessions: u32 = 0;
    while !done.load(Ordering::Relaxed) && sessions < cfg.lease.max_connect_attempts.max(1) {
        sessions += 1;
        let w = lock(shared).table.add_worker(endpoint);
        let Some(stream) = connect_with_backoff(addr, w, cfg, shared, done, start) else {
            return; // attempt budget exhausted (slot marked dead) or done
        };
        // A broken session falls through and the loop re-registers.
        let _ = drive_session(stream, w, job, cfg, shared, done, start);
        if lock(shared).merge.is_complete() || !lock(shared).table.is_dead(w) {
            return; // clean shutdown path already ran
        }
    }
}

fn connect_with_backoff(
    addr: SocketAddr,
    w: WorkerId,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    done: &AtomicBool,
    start: Instant,
) -> Option<TcpStream> {
    loop {
        if done.load(Ordering::Relaxed) {
            return None;
        }
        let now = now_ms(start);
        let (may, scheduled) = {
            let sh = lock(shared);
            (sh.table.may_connect(w, now), sh.table.next_attempt_at(w))
        };
        if may {
            match TcpStream::connect_timeout(
                &addr,
                Duration::from_millis(cfg.lease.heartbeat_timeout_ms.max(1)),
            ) {
                Ok(stream) => {
                    lock(shared).table.on_connected(w, now_ms(start));
                    return Some(stream);
                }
                Err(_) => {
                    let mut sh = lock(shared);
                    sh.table.on_connect_failed(w, now_ms(start));
                    if flagsim_telemetry::enabled() {
                        flagsim_telemetry::count("shard.connect_failures", 1);
                    }
                }
            }
        } else if scheduled.is_none() {
            return None; // budget exhausted; slot is dead
        } else {
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Grant ids pairing a lease's flow-arrow halves across the trace;
/// process-global so concurrent sessions never collide.
static NEXT_GRANT: AtomicU64 = AtomicU64::new(1);

fn map_id(remap: &mut BTreeMap<u64, u64>, old: u64) -> u64 {
    // A parent/link may reference a span that arrives in a *later*
    // batch (children complete first); reserving its id on first sight
    // keeps cross-batch edges intact.
    *remap
        .entry(old)
        .or_insert_with(|| flagsim_telemetry::alloc_span_ids(1))
}

/// Merge one worker telemetry batch into the coordinator's collector
/// and fleet view: remap span ids into this process's space, stamp
/// every record with the worker's process label, and fold counter
/// deltas in. Strictly observational — nothing here calls [`record`] or
/// touches the merge, which is the determinism argument for shipping
/// being on, off, or lossy.
fn absorb_telemetry(
    batch: TelemetryBatch,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    obs: Option<&ObsHub>,
    now: u64,
) {
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_telemetry(worker_name, batch.dropped, now));
    }
    if !flagsim_telemetry::enabled() {
        return;
    }
    flagsim_telemetry::count("shard.telemetry_frames", 1);
    if batch.dropped > 0 {
        flagsim_telemetry::count("shard.telemetry_dropped_records", batch.dropped);
    }
    let spans: Vec<_> = batch
        .spans
        .into_iter()
        .map(|mut s| {
            s.id = map_id(remap, s.id);
            s.parent = s.parent.map(|p| map_id(remap, p));
            s.link = s.link.map(|l| map_id(remap, l));
            s.process = worker_name.to_owned();
            s
        })
        .collect();
    if !spans.is_empty() {
        flagsim_telemetry::submit_spans(spans);
    }
    for mut l in batch.logs {
        l.process = worker_name.to_owned();
        flagsim_telemetry::submit_log(l);
    }
    for mut f in batch.flows {
        f.process = worker_name.to_owned();
        flagsim_telemetry::submit_flow(f);
    }
    for (name, delta) in batch.counters {
        flagsim_telemetry::count(&name, delta);
    }
}

/// Send `shutdown`, then drain the worker's final telemetry frames until
/// `bye` (or EOF/error), skipping the `lease_done` of a lease whose reps
/// all arrived. Any other frame means the worker is still mid-lease, so
/// this stops there. Best-effort: the session is ending either way, and
/// the worker survives for other sweeps.
fn say_goodbye(
    reader: &mut Receiver<impl std::io::Read>,
    writer: &mut impl std::io::Write,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    obs: Option<&ObsHub>,
    start: Instant,
) {
    let _ = wire::send(writer, &Message::Shutdown);
    let now = now_ms(start);
    loop {
        match reader.recv() {
            Ok(Some(Message::Telemetry(batch))) => {
                absorb_telemetry(batch, worker_name, remap, obs, now);
            }
            Ok(Some(Message::LeaseDone { .. })) => {}
            _ => return, // bye, EOF, or anything else: done
        }
    }
}

/// Serve one established session until the campaign finishes, the
/// session breaks (worker marked dead), or `done` is raised.
fn drive_session(
    stream: TcpStream,
    w: WorkerId,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    done: &AtomicBool,
    start: Instant,
) -> Result<(), ()> {
    let dead = |reason: &str| {
        lock(shared).table.mark_dead(w, reason, now_ms(start));
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(
            cfg.lease.heartbeat_timeout_ms.max(1),
        )))
        .ok();
    let Ok(read_half) = stream.try_clone() else {
        dead("could not clone stream");
        return Err(());
    };
    // One frame buffer for the session: a `rep` frame decodes without
    // allocating.
    let mut reader = Receiver::new(BufReader::new(read_half));
    let mut writer = BufWriter::new(stream);

    // Propagate trace context only while this process is collecting;
    // otherwise the worker stays in its disabled fast path.
    let trace = if flagsim_telemetry::enabled() {
        Some(TraceConfig {
            campaign: campaign_id(job),
            level: log::max_level(),
            spans: true,
            sample: resolve_sample(cfg, job.reps),
        })
    } else {
        None
    };
    if wire::send(
        &mut writer,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            job: job.clone(),
            trace,
        },
    )
    .is_err()
    {
        dead("hello write failed");
        return Err(());
    }
    let worker_name = match reader.recv() {
        Ok(Some(Message::HelloOk { worker })) => worker,
        Ok(Some(Message::Error { message })) => {
            dead(&format!("worker refused session: {message}"));
            return Err(());
        }
        _ => {
            dead("no hello_ok");
            return Err(());
        }
    };
    let obs = cfg.obs.as_ref();
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_connected(&worker_name, now_ms(start)));
    }
    log::debug(
        "shard.coordinator",
        "session established",
        &[("worker", worker_name.clone())],
    );
    // Worker-local span ids → this process's id space, for the session.
    let mut remap: BTreeMap<u64, u64> = BTreeMap::new();

    let result = drive_leases(
        &mut reader,
        &mut writer,
        w,
        &worker_name,
        &mut remap,
        job,
        cfg,
        shared,
        done,
        start,
    );
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_disconnected(&worker_name));
    }
    result
}

/// The lease grant/report loop of an established session. The worker
/// is kept topped up to two leases that still owe reps, so its next
/// lease is already in its socket buffer when it finishes one. The
/// lease table checks every `rep` and `lease_done` against the leases
/// it granted, and declares the worker dead on a frame it does not owe.
#[allow(clippy::too_many_arguments)]
fn drive_leases(
    reader: &mut Receiver<BufReader<TcpStream>>,
    writer: &mut BufWriter<TcpStream>,
    w: WorkerId,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &SharedState,
    done: &AtomicBool,
    start: Instant,
) -> Result<(), ()> {
    let dead = |reason: &str| {
        lock(shared).table.mark_dead(w, reason, now_ms(start));
    };
    let obs = cfg.obs.as_ref();
    loop {
        if done.load(Ordering::Relaxed) {
            say_goodbye(reader, writer, worker_name, remap, obs, start);
            return Ok(());
        }
        let (grant, holding) = {
            let mut sh = lock(shared);
            if sh.table.is_dead(w) {
                return Err(()); // supervisor timed us out
            }
            let grant = sh.table.request_lease(w, now_ms(start));
            (grant, sh.table.holds_lease(w))
        };
        match grant {
            LeaseGrant::Range { start: s, end: e } => {
                let grant_id = if flagsim_telemetry::enabled() {
                    let id = NEXT_GRANT.fetch_add(1, Ordering::Relaxed);
                    // Start half of the grant arrow; the worker records
                    // the finish half when it picks the lease up.
                    flagsim_telemetry::flow("lease", id, true);
                    id
                } else {
                    0
                };
                if wire::send(
                    writer,
                    &Message::Lease {
                        start: s,
                        end: e,
                        grant: grant_id,
                    },
                )
                .is_err()
                {
                    dead("lease write failed");
                    return Err(());
                }
                if let Some(hub) = obs {
                    hub.with(|fv| fv.on_lease(worker_name, now_ms(start)));
                }
                if flagsim_telemetry::enabled() {
                    flagsim_telemetry::count("shard.leases_granted", 1);
                }
                continue; // top up before reading
            }
            LeaseGrant::Finished if !holding => {
                say_goodbye(reader, writer, worker_name, remap, obs, start);
                return Ok(());
            }
            _ if !holding => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            _ => {}
        }
        match reader.recv() {
            Ok(Some(Message::Rep { rep, outcome })) => {
                let now = now_ms(start);
                {
                    let mut sh = lock(shared);
                    sh.table.on_rep_done(w, rep, now);
                    if sh.table.is_dead(w) {
                        return Err(()); // a rep it did not owe, or timed out
                    }
                    record(&mut sh, job, cfg, rep, outcome);
                    if stop_requested(&sh) {
                        done.store(true, Ordering::Relaxed);
                        shared.wake.notify_one();
                    }
                }
                if let Some(hub) = obs {
                    hub.with(|fv| fv.on_rep(worker_name, now));
                }
            }
            Ok(Some(Message::LeaseDone { start: s, end: e })) => {
                let now = now_ms(start);
                {
                    let mut sh = lock(shared);
                    sh.table.on_lease_done_for(w, s, e, now);
                    if sh.table.is_dead(w) {
                        return Err(()); // a lease_done it did not owe
                    }
                }
                if let Some(hub) = obs {
                    hub.with(|fv| fv.on_lease_done(worker_name, now));
                }
            }
            Ok(Some(Message::Telemetry(batch))) => {
                // Observational only; doubles as a heartbeat like every
                // other worker frame.
                let now = now_ms(start);
                lock(shared).table.on_heartbeat(w, now);
                absorb_telemetry(batch, worker_name, remap, obs, now);
            }
            Ok(Some(Message::Heartbeat)) => {
                let now = now_ms(start);
                if let Some(hub) = obs {
                    hub.with(|fv| fv.on_heard(worker_name, now));
                }
                lock(shared).table.on_heartbeat(w, now);
            }
            Ok(Some(Message::Error { message })) => {
                dead(&format!("worker error: {message}"));
                return Err(());
            }
            Ok(Some(other)) => {
                dead(&format!("unexpected frame {other:?}"));
                return Err(());
            }
            Ok(None) => {
                dead("connection closed mid-lease");
                return Err(());
            }
            Err(_) => {
                // Read timeout or transport error: the lease supervisor's
                // verdict, delivered locally.
                dead("heartbeat timeout");
                return Err(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{serve, WorkerOptions};
    use flagsim_core::faults::RecoveryPolicy;
    use flagsim_core::sweep::SweepRunner;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn job(reps: u64) -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 20260808,
            reps,
            team: 4,
            warmup: false,
        }
    }

    fn serial_stats(job: &JobSpec) -> (RunStats, RunStats) {
        let mat = job.materialize().expect("job materializes");
        let result = mat.runner().run().expect("serial sweep runs");
        (result.completion, result.waiting)
    }

    fn spawn_workers(n: usize) -> (Vec<String>, Vec<thread::JoinHandle<()>>) {
        spawn_workers_dropping(n, 0)
    }

    fn spawn_workers_dropping(
        n: usize,
        drop_telemetry_every: u64,
    ) -> (Vec<String>, Vec<thread::JoinHandle<()>>) {
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            endpoints.push(listener.local_addr().expect("addr").to_string());
            handles.push(thread::spawn(move || {
                let opts = WorkerOptions {
                    once: true,
                    name: format!("w{i}"),
                    quiet: true,
                    drop_telemetry_every,
                };
                serve(&listener, &opts).ok();
            }));
        }
        (endpoints, handles)
    }

    /// Join `once` workers. A campaign can finish before an endpoint
    /// thread ever dials its worker, which then still waits in `accept`,
    /// so each endpoint gets one empty connection first.
    fn join_workers(endpoints: &[String], handles: Vec<thread::JoinHandle<()>>) {
        for endpoint in endpoints {
            let _ = TcpStream::connect(endpoint);
        }
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    fn assert_stats_bits_equal(a: &RunStats, b: &RunStats) {
        assert_eq!(a.n, b.n);
        for (x, y) in [
            (a.mean, b.mean),
            (a.stddev, b.stddev),
            (a.min, b.min),
            (a.max, b.max),
            (a.median, b.median),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "stats differ: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn local_path_matches_serial_sweep() {
        let j = job(16);
        let (serial_c, serial_w) = serial_stats(&j);
        for jobs in [1usize, 3] {
            let cfg = CoordinatorConfig {
                local_jobs: jobs,
                ..CoordinatorConfig::default()
            };
            match run_sweep(&j, &cfg).expect("local sweep") {
                ShardOutcome::Completed(r) => {
                    assert_stats_bits_equal(&r.completion, &serial_c);
                    assert_stats_bits_equal(&r.waiting, &serial_w);
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_worker_sweep_is_bit_identical_to_serial() {
        let j = job(20);
        let (serial_c, serial_w) = serial_stats(&j);
        let (endpoints, handles) = spawn_workers(3);
        let cfg = CoordinatorConfig {
            endpoints: endpoints.clone(),
            lease: LeaseConfig {
                chunk: 3,
                ..LeaseConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("sharded sweep") {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        join_workers(&endpoints, handles);
    }

    #[test]
    fn telemetry_shipping_on_off_or_lossy_never_moves_stats() {
        let j = job(24);
        let (serial_c, serial_w) = serial_stats(&j);
        // Shipping off, shipping on, and shipping with forced
        // whole-batch drops must all merge to bit-identical statistics:
        // telemetry frames are observational and never reach the merge.
        for drop_every in [None, Some(0u64), Some(2)] {
            let collector = drop_every.map(|_| flagsim_telemetry::Collector::install());
            let (endpoints, handles) = spawn_workers_dropping(2, drop_every.unwrap_or(0));
            let hub = ObsHub::new();
            let cfg = CoordinatorConfig {
                endpoints: endpoints.clone(),
                lease: LeaseConfig {
                    chunk: 4,
                    ..LeaseConfig::default()
                },
                obs: Some(hub.clone()),
                ..CoordinatorConfig::default()
            };
            match run_sweep(&j, &cfg).expect("sharded sweep") {
                ShardOutcome::Completed(r) => {
                    assert_stats_bits_equal(&r.completion, &serial_c);
                    assert_stats_bits_equal(&r.waiting, &serial_w);
                }
                other => panic!("expected completion, got {other:?}"),
            }
            join_workers(&endpoints, handles);
            // Fleet view saw both worker sessions regardless of mode.
            let snap = hub.snapshot_json(1_000);
            assert!(snap.contains("\"w0\""), "fleet snapshot missing w0: {snap}");
            assert!(snap.contains("\"w1\""), "fleet snapshot missing w1: {snap}");
            assert!(snap.contains(&format!("\"campaign\": \"{}\"", campaign_id(&j))));
            if let Some(col) = collector {
                let _ = col.finish();
            }
            if drop_every.is_some() {
                // The shipping arms really shipped.
                let shipped: u64 = hub.with(|fv| fv.workers().map(|w| w.shipped_frames).sum());
                assert!(
                    shipped > 0,
                    "no telemetry frames shipped (drop every {drop_every:?})"
                );
            }
        }
    }

    #[test]
    fn unreachable_workers_degrade_to_local_and_still_match_serial() {
        let j = job(8);
        let (serial_c, _) = serial_stats(&j);
        let cfg = CoordinatorConfig {
            // Nothing listens here; connect_timeout + backoff burn the
            // attempt budget fast.
            endpoints: vec!["127.0.0.1:9".into()],
            local_jobs: 2,
            lease: LeaseConfig {
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                max_connect_attempts: 2,
                heartbeat_timeout_ms: 200,
                ..LeaseConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("degraded sweep") {
            ShardOutcome::Completed(r) => assert_stats_bits_equal(&r.completion, &serial_c),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn worker_death_mid_sweep_reassigns_and_stays_bit_identical() {
        let j = job(18);
        let (serial_c, _) = serial_stats(&j);
        // One real worker, one endpoint that accepts the connection and
        // then drops it after the handshake (a worker that dies holding
        // its first lease).
        let (mut endpoints, handles) = spawn_workers(1);
        let flaky = TcpListener::bind("127.0.0.1:0").expect("bind flaky");
        endpoints.push(flaky.local_addr().expect("addr").to_string());
        let flaky_thread = thread::spawn(move || {
            // Accept, answer the hello, then vanish mid-lease.
            let (stream, _) = flaky.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            if let Ok(Some(Message::Hello { .. })) = wire::recv(&mut reader) {
                wire::send(
                    &mut writer,
                    &Message::HelloOk {
                        worker: "flaky".into(),
                    },
                )
                .ok();
                // Take the lease and hang up without reporting a rep.
                let _ = wire::recv(&mut reader);
            }
            // Dropping the streams closes the connection.
        });
        let cfg = CoordinatorConfig {
            endpoints: endpoints.clone(),
            lease: LeaseConfig {
                chunk: 4,
                heartbeat_timeout_ms: 300,
                backoff_base_ms: 1,
                backoff_cap_ms: 8,
                max_connect_attempts: 2,
                ..LeaseConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("sweep with a dying worker") {
            ShardOutcome::Completed(r) => assert_stats_bits_equal(&r.completion, &serial_c),
            other => panic!("expected completion, got {other:?}"),
        }
        join_workers(&endpoints, handles);
        flaky_thread.join().expect("flaky thread");
    }

    /// An endpoint that answers one session's hello, waits for the two
    /// leases the coordinator keeps in flight, signals `leased`, then
    /// sends whatever `script` writes. Returns whether it got that far.
    fn scripted_worker(
        script: impl FnOnce(&mut BufWriter<TcpStream>, [(u64, u64); 2]) + Send + 'static,
        leased: mpsc::Sender<()>,
    ) -> (String, thread::JoinHandle<bool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let Ok(Some(Message::Hello { .. })) = wire::recv(&mut reader) else {
                return false;
            };
            wire::send(
                &mut writer,
                &Message::HelloOk {
                    worker: "liar".into(),
                },
            )
            .ok();
            let mut leases = Vec::new();
            while leases.len() < 2 {
                match wire::recv(&mut reader) {
                    Ok(Some(Message::Lease { start, end, .. })) => leases.push((start, end)),
                    _ => return false,
                }
            }
            leased.send(()).ok();
            script(&mut writer, [leases[0], leases[1]]);
            // Hold the connection until the coordinator hangs up, so its
            // verdict comes from the frames above, not from an EOF.
            while let Ok(Some(_)) = wire::recv(&mut reader) {}
            true
        });
        (addr, handle)
    }

    #[test]
    fn a_silent_peer_does_not_keep_a_worker_from_its_coordinator() {
        // A peer connects to a serving worker and never says hello. The
        // worker drops it at its handshake deadline (the default
        // heartbeat timeout, 2 s) and then serves a real coordinator,
        // whose first session waits out the same deadline at most once.
        // A worker the silent peer held would fail all five sessions
        // (about 10 s) and leave the campaign to degrade in-process.
        const BOUND: Duration = Duration::from_secs(6);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::spawn(move || {
            let opts = WorkerOptions {
                once: false,
                name: "patient".into(),
                quiet: true,
                drop_telemetry_every: 0,
            };
            serve(&listener, &opts).ok();
        });
        // Connected first, so the worker accepts it first.
        let silent = TcpStream::connect(addr).expect("silent peer connects");
        let hub = ObsHub::new();
        let j = job(64);
        let started = Instant::now();
        let outcome = run_sweep(
            &j,
            &CoordinatorConfig {
                endpoints: vec![addr.to_string()],
                obs: Some(hub.clone()),
                ..CoordinatorConfig::default()
            },
        )
        .expect("sweep runs");
        let took = started.elapsed();
        drop(silent);
        let ShardOutcome::Completed(r) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        let (serial_c, _) = serial_stats(&j);
        assert_stats_bits_equal(&r.completion, &serial_c);
        let rows: Vec<(String, u64)> = hub.with(|fv| {
            fv.workers()
                .map(|w| (w.name.clone(), w.reps_done))
                .collect()
        });
        assert_eq!(
            rows,
            vec![("patient".to_owned(), 64)],
            "served, not degraded"
        );
        assert!(
            took < BOUND,
            "served after {took:?}; the bound is {BOUND:?}"
        );
    }

    /// Run `j` over a scripted liar plus one honest worker and demand the
    /// serial answer; then over the liar alone under `abort` and return
    /// the abort reason, which names why the liar was cut off. Either
    /// way the liar holds leases `0..4` and `4..8` when it lies.
    fn liar_is_cut_off(
        j: &JobSpec,
        script: fn(&mut BufWriter<TcpStream>, [(u64, u64); 2]),
    ) -> String {
        let (serial_c, serial_w) = serial_stats(j);
        let lease = LeaseConfig {
            chunk: 4,
            heartbeat_timeout_ms: 1_000,
            backoff_base_ms: 1,
            backoff_cap_ms: 8,
            max_connect_attempts: 2,
            ..LeaseConfig::default()
        };
        let (leased_tx, leased) = mpsc::channel();
        let (liar, liar_thread) = scripted_worker(script, leased_tx);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind honest");
        let honest = listener.local_addr().expect("addr").to_string();
        let honest_thread = thread::spawn(move || {
            // Serve only once the liar holds the first two leases.
            leased.recv().ok();
            let opts = WorkerOptions {
                once: true,
                name: "honest".into(),
                quiet: true,
                drop_telemetry_every: 0,
            };
            serve(&listener, &opts).ok();
        });
        let cfg = CoordinatorConfig {
            endpoints: vec![liar, honest],
            lease: lease.clone(),
            ..CoordinatorConfig::default()
        };
        match run_sweep(j, &cfg).expect("sweep with a lying worker") {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(
            liar_thread.join().expect("liar thread"),
            "the liar never got two leases"
        );
        honest_thread.join().expect("honest worker thread");

        let (liar, liar_thread) = scripted_worker(script, mpsc::channel().0);
        let cfg = CoordinatorConfig {
            endpoints: vec![liar],
            lease: LeaseConfig {
                policy: RecoveryPolicy::AbortAndReport,
                ..lease
            },
            ..CoordinatorConfig::default()
        };
        let reason = run_sweep(j, &cfg).expect_err("abort policy stops the campaign");
        assert!(
            liar_thread.join().expect("liar thread"),
            "the liar never got two leases"
        );
        assert!(reason.contains("holding reps 0..4, 4..8"), "{reason}");
        reason
    }

    #[test]
    fn a_rep_the_worker_does_not_owe_is_refused() {
        // Jump to the second lease with a poisoned outcome: merged, it
        // would win over the honest rerun and move the statistics.
        let reason = liar_is_cut_off(&job(40), |w, [_, (second, _)]| {
            let poison = RepOutcome::Ok {
                completion: 1e9,
                waiting: 1e9,
            };
            wire::send(
                w,
                &Message::Rep {
                    rep: second,
                    outcome: poison,
                },
            )
            .ok();
        });
        assert!(
            reason.contains("rep 4 while lease 0..4 owes rep 0"),
            "{reason}"
        );
    }

    #[test]
    fn a_lease_done_for_a_lease_never_held_is_refused() {
        // Trusted, it would retire the first lease and strand its reps.
        let reason = liar_is_cut_off(&job(40), |w, [_, (_, end)]| {
            wire::send(
                w,
                &Message::LeaseDone {
                    start: end,
                    end: end + 4,
                },
            )
            .ok();
        });
        assert!(
            reason.contains("lease_done for a lease it never held (8..12)"),
            "{reason}"
        );
    }

    #[test]
    fn a_long_lease_heartbeats_through_buffered_rep_frames() {
        // One lease of every rep under a short heartbeat timeout: the
        // worker buffers its rep frames, and the session must still hear
        // from it often enough to stay alive. Reps are doubled until the
        // serial sweep alone outlasts three timeouts, so in any build the
        // lease runs far past one. (Reps take microseconds, so it is the
        // write buffer filling, more than the worker's timed flush, that
        // paces the frames here; `worker`'s own test pins the timed
        // flush.)
        let timeout = Duration::from_millis(250);
        let mut reps = 1_000;
        let (j, serial_c, serial_w) = loop {
            let j = job(reps);
            let t = Instant::now();
            let (c, w) = serial_stats(&j);
            if t.elapsed() > 3 * timeout {
                break (j, c, w);
            }
            reps *= 2;
        };
        let (endpoints, handles) = spawn_workers(1);
        let hub = ObsHub::new();
        let cfg = CoordinatorConfig {
            endpoints: endpoints.clone(),
            lease: LeaseConfig {
                chunk: j.reps,
                heartbeat_timeout_ms: timeout.as_millis() as u64,
                ..LeaseConfig::default()
            },
            obs: Some(hub.clone()),
            ..CoordinatorConfig::default()
        };
        let t = Instant::now();
        match run_sweep(&j, &cfg).expect("one-lease sweep") {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(
            t.elapsed() > timeout,
            "the lease ended within one timeout: {:?}",
            t.elapsed()
        );
        join_workers(&endpoints, handles);
        // A death would have sent the unreported reps to the in-process
        // fallback, so the worker reporting them all proves it lived.
        let (reps_done, leases) = hub.with(|fv| {
            let w = fv.workers().next().expect("the worker was seen");
            (w.reps_done, w.leases)
        });
        assert_eq!(
            (reps_done, leases),
            (j.reps, 1),
            "the worker was declared dead"
        );
    }

    #[test]
    fn halt_then_resume_is_bit_identical_to_uninterrupted() {
        let j = job(14);
        let (serial_c, serial_w) = serial_stats(&j);
        let dir = std::env::temp_dir().join(format!("flagsim-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("halt.ckpt");
        let halted = run_sweep(
            &j,
            &CoordinatorConfig {
                checkpoint_path: Some(ckpt.clone()),
                checkpoint_every: 1,
                halt_after_reps: Some(5),
                ..CoordinatorConfig::default()
            },
        )
        .expect("halted sweep");
        assert!(matches!(halted, ShardOutcome::Halted { merged } if merged >= 5));
        let resume = Checkpoint::load(&ckpt).expect("load checkpoint");
        assert!(
            resume.watermark >= 1 && resume.watermark < 14,
            "mid-campaign checkpoint"
        );
        let jr = resume.job.clone();
        let outcome = run_sweep(
            &jr,
            &CoordinatorConfig {
                resume: Some(resume),
                ..CoordinatorConfig::default()
            },
        )
        .expect("resumed sweep");
        match outcome {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_local_campaign_publishes_lane_rows_that_sum_to_the_merged_count() {
        let hub = ObsHub::new();
        let halted = run_sweep(
            &job(200),
            &CoordinatorConfig {
                local_jobs: 3,
                halt_after_reps: Some(50),
                obs: Some(hub.clone()),
                ..CoordinatorConfig::default()
            },
        )
        .expect("halted sweep");
        let ShardOutcome::Halted { merged } = halted else {
            panic!("expected a halt, got {halted:?}");
        };
        let (hub_merged, lanes, rows_sum) = hub.with(|fv| {
            let lanes: Vec<String> = fv.workers().map(|w| w.name.clone()).collect();
            (
                fv.merged,
                lanes,
                fv.workers().map(|w| w.reps_done).sum::<u64>(),
            )
        });
        assert_eq!(hub_merged, merged);
        assert_eq!(rows_sum, merged, "lane rows {lanes:?}");
        assert!(
            !lanes.is_empty() && lanes.iter().all(|n| n.starts_with("lane-")),
            "{lanes:?}"
        );
    }

    #[test]
    fn multi_job_halt_then_resume_is_bit_identical_to_uninterrupted() {
        // Three local jobs merge chunks out of order, so a halted run's
        // checkpoint can hold pending reps above its watermark. Resumed on
        // three jobs, it must land the uninterrupted run's statistics and
        // final checkpoint, byte for byte.
        let j = job(200);
        let dir = std::env::temp_dir().join(format!("flagsim-shard-jobs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let three = |ckpt: &std::path::Path| CoordinatorConfig {
            local_jobs: 3,
            checkpoint_path: Some(ckpt.to_path_buf()),
            ..CoordinatorConfig::default()
        };
        let fresh_ckpt = dir.join("fresh.ckpt");
        let ShardOutcome::Completed(fresh) = run_sweep(&j, &three(&fresh_ckpt)).expect("sweep")
        else {
            panic!("the uninterrupted sweep did not complete");
        };
        let (serial_c, serial_w) = serial_stats(&j);
        assert_stats_bits_equal(&fresh.completion, &serial_c);
        assert_stats_bits_equal(&fresh.waiting, &serial_w);
        let fresh_bytes = std::fs::read(&fresh_ckpt).expect("fresh final checkpoint");
        for halt in [1, 7, 30, 120] {
            let ckpt = dir.join(format!("halt-{halt}.ckpt"));
            let halted = run_sweep(
                &j,
                &CoordinatorConfig {
                    checkpoint_every: 1,
                    halt_after_reps: Some(halt),
                    ..three(&ckpt)
                },
            )
            .expect("halted sweep");
            // Reps in hand grow one at a time, so every halt point trips
            // before the end, however the lanes' chunks interleave.
            let ShardOutcome::Halted { merged } = halted else {
                panic!("halt at {halt}: expected a halt, got {halted:?}");
            };
            let resume = Checkpoint::load(&ckpt).expect("load checkpoint");
            assert_eq!(
                resume.watermark, merged,
                "halt at {halt}: the watermark was saved"
            );
            assert_eq!(
                resume.watermark + resume.pending.len() as u64,
                halt,
                "halt at {halt}: the checkpoint holds every rep in hand"
            );
            let resumed = run_sweep(
                &j,
                &CoordinatorConfig {
                    resume: Some(resume),
                    ..three(&ckpt)
                },
            )
            .expect("resumed sweep");
            let ShardOutcome::Completed(r) = resumed else {
                panic!("halt at {halt}: expected completion, got {resumed:?}");
            };
            assert_stats_bits_equal(&r.completion, &serial_c);
            assert_stats_bits_equal(&r.waiting, &serial_w);
            assert!(
                std::fs::read(&ckpt).expect("resumed final checkpoint") == fresh_bytes,
                "halt at {halt}: final checkpoint differs from the uninterrupted run's"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_deadline_expires_immediately_with_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("flagsim-shard-dl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("deadline.ckpt");
        let j = job(10);
        let outcome = run_sweep(
            &j,
            &CoordinatorConfig {
                checkpoint_path: Some(ckpt.clone()),
                max_wall: Some(Duration::from_secs(0)),
                ..CoordinatorConfig::default()
            },
        )
        .expect("deadline sweep");
        match outcome {
            ShardOutcome::DeadlineExpired {
                merged,
                total,
                checkpoint,
            } => {
                assert_eq!(total, 10);
                assert!(merged < 10);
                let path = checkpoint.expect("checkpoint written");
                let ck = Checkpoint::load(&path).expect("checkpoint loads");
                assert_eq!(ck.watermark, merged);
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let mut m = MergeState::new(5);
        m.accept(
            0,
            RepOutcome::Ok {
                completion: 1.0,
                waiting: 0.5,
            },
        );
        let ck = Checkpoint::from_merge(&job(5), &m);
        let other = job(7); // different rep count → different fingerprint
        let err = run_sweep(
            &other,
            &CoordinatorConfig {
                resume: Some(ck),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
    }

    #[test]
    fn sweep_runner_serial_equals_streaming_serial() {
        // The anchor for every bit-for-bit claim above: the runner's
        // retained serial stats vs its streaming stats path — our gates
        // compare against the streaming path, which run() uses when
        // reports are not retained.
        let j = job(12);
        let mat = j.materialize().expect("materialize");
        let streaming = mat.runner().run().expect("streaming run");
        let retained = SweepRunner::new(&mat.scenario, &mat.flag, &mat.kit, &mat.config)
            .team_size(mat.team)
            .warmup(mat.warmup)
            .reps(mat.reps)
            .retain_reports(true)
            .run()
            .expect("retained run");
        assert_eq!(streaming.completion.n, retained.completion.n);
        assert_eq!(
            streaming.completion.mean.to_bits(),
            retained.completion.mean.to_bits()
        );
    }
}
