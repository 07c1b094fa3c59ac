//! The event loop.
//!
//! Hot-path layout (the trainspotting-style rewrite, DESIGN.md §12):
//!
//! - **Monomorphic slab.** [`Engine`] is generic over its process type
//!   `P` and its [`SchedulePolicy`] `Pol`. Every process lives inline in
//!   a flat `Vec<ProcSlot<P>>` addressed by its `usize` index; [`ProcId`]
//!   is a thin wrapper over that index. A caller with one process type
//!   (the activity's students) polls it with static dispatch; the default
//!   `P = Box<dyn Process>` is the shim for callers that mix types.
//! - **Policy as a type.** The default [`NoPolicy`] is zero-sized and
//!   [`SchedulePolicy::policed`] is `false` for it, so the unpoliced loop
//!   compiles without any tie-break or fingerprint bookkeeping.
//! - **Reset in place.** [`Engine::reset`] empties the engine but keeps
//!   every buffer's capacity, and [`Engine::run_in_place`] runs without
//!   consuming it: a caller running many reps keeps one engine and pays
//!   no per-rep allocation. The consuming [`Engine::try_run`] family
//!   wraps the same loop.
//! - **Per-slot wake keys.** A process has at most one pending wake-up,
//!   so the scheduler is one `u128` per process slot, `(time << 64) |
//!   seq` with a monotonic tiebreak counter, or a "no wake-up" sentinel.
//!   Scheduling writes the slot's key and firing resets it: nothing is
//!   pushed or removed. Each step scans the keys for their minimum, which
//!   at classroom scale beats heap sifts. Equal-time events fire in
//!   schedule order; a compare touches one integer, never process state.
//! - **Integer time throughout** ([`SimTime`] is `u64` milliseconds).
//! - **Borrowed names.** [`Process::name`] returns `&str`; the poll path
//!   allocates no strings. Owned names are materialized only when a
//!   trace or error report is built (once per run, off the hot path).
//! - **Opt-out trace sink.** Event emission is a branch on a flag:
//!   stats-only runs ([`Engine::set_trace_events`]`(false)`) skip every
//!   event-vector push while keeping busy/waiting/completed accounting
//!   bit-identical to a recording run.

use crate::error::{SimError, WaitEdge, WaitForGraph};
use crate::resource::{ResourceId, ResourceState, ResourceStats};
use crate::schedule::{word_mix, ChoiceKind, ChoicePoint, NoPolicy, SchedulePolicy};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventKind, ProcAccount, ProcReport, ResourceReport, Trace, TraceEvent};
use std::hint::select_unpredictable;

/// Identifies a process within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build from a raw index — for reconstructing a [`Trace`] from an
    /// external source (e.g. re-parsing an exported Chrome trace). Ids
    /// built this way are only meaningful against a trace whose `procs`
    /// table uses the same indexing.
    pub fn from_index(index: usize) -> ProcId {
        ProcId(index as u32)
    }
}

/// What a process wants to do next. The engine performs the action and
/// polls the process again when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Be busy for a duration (coloring a cell), then get polled again.
    Work(SimDuration),
    /// Acquire an exclusive resource, waiting FIFO if it is held. The
    /// process is polled again once it holds the resource.
    Acquire(ResourceId),
    /// Release a held resource and get polled again immediately.
    Release(ResourceId),
    /// Sleep until an absolute time (e.g. a staggered start).
    WaitUntil(SimTime),
    /// Finished; the process is never polled again.
    Done,
}

/// A simulated actor, advanced as a state machine.
///
/// The engine calls [`Process::next`] exactly once per completed action:
/// after the initial wake-up, after each `Work` finishes, after each
/// `Acquire` is granted, after each `Release`/`WaitUntil` completes. The
/// implementation must therefore advance its internal state on every call.
pub trait Process {
    /// The next action, given the current simulation time.
    fn next(&mut self, now: SimTime) -> Action;

    /// Display name used in traces. Borrowed: the engine calls this on
    /// poll-adjacent paths and must not pay a `String` allocation for it.
    fn name(&self) -> &str {
        "process"
    }
}

/// The `dyn` shim: the default engine's slots hold `Box<dyn Process>`.
impl<T: Process + ?Sized> Process for Box<T> {
    fn next(&mut self, now: SimTime) -> Action {
        (**self).next(now)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A [`Process`] built from a closure — handy for tests and small sims
/// that don't warrant a named state machine:
///
/// ```
/// use flagsim_desim::{Action, Engine, FnProcess, SimDuration};
///
/// let mut eng = Engine::new();
/// let mut remaining = 3;
/// eng.add_process(Box::new(FnProcess::new("worker", move |_now| {
///     if remaining == 0 {
///         Action::Done
///     } else {
///         remaining -= 1;
///         Action::Work(SimDuration::from_millis(10))
///     }
/// })));
/// assert_eq!(eng.run().end_time.millis(), 30);
/// ```
pub struct FnProcess<F: FnMut(SimTime) -> Action> {
    name: String,
    f: F,
}

impl<F: FnMut(SimTime) -> Action> FnProcess<F> {
    /// Wrap a closure as a process.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnProcess {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(SimTime) -> Action> Process for FnProcess<F> {
    fn next(&mut self, now: SimTime) -> Action {
        (self.f)(now)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// A slot's wake key when it has no pending wake-up. Every real key is
/// smaller, even one at `SimTime(u64::MAX)`: its low half is a sequence
/// number, and those never reach `u64::MAX`.
const NO_WAKE: u128 = u128::MAX;

/// The wake key of a wake-up at `at` scheduled `seq`-th: time in the high
/// half, sequence in the low half, so integer order is the lexicographic
/// `(at, seq)` order. `seq` is unique, so two keys never compare equal.
#[inline]
fn wake_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.millis()) << 64) | u128::from(seq)
}

/// The time half of a wake key.
#[inline]
fn wake_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Working,
    WaitingFor(ResourceId),
    /// Granted a contended resource; the hand-off is in transit until
    /// the slot's `wake_at`.
    InTransit(ResourceId),
    Sleeping,
    Finished,
}

/// One slab entry. Everything the loop touches per event sits here,
/// addressed by the process index.
struct ProcSlot<P> {
    process: P,
    state: ProcState,
    busy: SimDuration,
    waiting: SimDuration,
    wait_started: Option<SimTime>,
    /// When the pending `Work` chunk or in-transit hand-off completes.
    /// Meaningful only in the `Working` / `InTransit` states.
    wake_at: SimTime,
    /// `Work` chunks that ran to completion (the wake event fired).
    completed_work: u64,
    finished_at: Option<SimTime>,
    /// Fingerprint of the poll history `(time, action)*`, folded a word
    /// at a time — a canonical proxy for the process's opaque internal
    /// state, since a deterministic process is a function of what it was
    /// asked and answered. Maintained only under a schedule policy.
    history: u64,
}

/// The deterministic discrete-event engine.
///
/// Build one, add resources and processes, then [`Engine::run`] to
/// completion. Event ordering is `(time, insertion sequence)` so equal-time
/// events fire in the order they were scheduled; resource queues are FIFO.
/// The same inputs always produce the same [`Trace`].
///
/// `P` is the process type and `Pol` the [`SchedulePolicy`]; the defaults
/// take any boxed process and no policy.
pub struct Engine<P = Box<dyn Process>, Pol = NoPolicy> {
    now: SimTime,
    seq: u64,
    /// Each process slot's wake key ([`wake_key`]), or [`NO_WAKE`].
    wakes: Vec<u128>,
    procs: Vec<ProcSlot<P>>,
    resources: Vec<ResourceState>,
    events: Vec<TraceEvent>,
    record_events: bool,
    max_events: u64,
    processed: u64,
    /// The tie-breaker; consulted only when `Pol::policed()`.
    policy: Pol,
    /// Scratch: resources touched by the poll cascade in flight.
    cascade_buf: Vec<ResourceId>,
    /// Scratch: did the cascade in flight schedule an event at `now`?
    cascade_spawned: bool,
    /// Scratch: the tie in hand, as `(pid, slot or waiter index)`.
    ties: Vec<(ProcId, usize)>,
    /// Scratch: the tie's candidates in canonical order.
    candidates: Vec<ProcId>,
    /// Scratch: the multiset `state_hash` is sorting.
    keys: Vec<(u64, u32)>,
}

impl<P: Process, Pol: SchedulePolicy + Default> Default for Engine<P, Pol> {
    fn default() -> Self {
        Engine::with_policy(Pol::default(), 0, 0, 0)
    }
}

impl Engine {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        Engine::with_capacity(0, 0, 0)
    }

    /// A fresh engine with pre-sized buffers: `procs` process slots,
    /// `resources` resource slots, and room for `events` trace entries.
    /// Callers that know their workload (one slot per student, ~4 events
    /// per cell) avoid every mid-run buffer growth.
    pub fn with_capacity(procs: usize, resources: usize, events: usize) -> Self {
        Engine::with_policy(NoPolicy, procs, resources, events)
    }
}

impl<P: Process, Pol: SchedulePolicy> Engine<P, Pol> {
    /// A fresh engine of any process and policy type, sized like
    /// [`Engine::with_capacity`]. Under a policy other than [`NoPolicy`]
    /// the engine's two tie-break rules (equal-time wake-ups; grants among
    /// waiters blocked since the same instant) become explicit choice
    /// points the policy resolves, with candidates presented in canonical
    /// (process-id) order. Without one those ties fall to insertion order.
    pub fn with_policy(policy: Pol, procs: usize, resources: usize, events: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            wakes: Vec::with_capacity(procs),
            procs: Vec::with_capacity(procs),
            resources: Vec::with_capacity(resources),
            events: Vec::with_capacity(events),
            record_events: true,
            // Generous live-lock guard; a classroom run is ~1e3 events.
            max_events: 50_000_000,
            processed: 0,
            policy,
            cascade_buf: Vec::new(),
            cascade_spawned: false,
            ties: Vec::new(),
            candidates: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// This engine, not yet run, under `policy` instead.
    pub fn with_schedule_policy<Q: SchedulePolicy>(self, policy: Q) -> Engine<P, Q> {
        Engine {
            now: self.now,
            seq: self.seq,
            wakes: self.wakes,
            procs: self.procs,
            resources: self.resources,
            events: self.events,
            record_events: self.record_events,
            max_events: self.max_events,
            processed: self.processed,
            policy,
            cascade_buf: self.cascade_buf,
            cascade_spawned: self.cascade_spawned,
            ties: self.ties,
            candidates: self.candidates,
            keys: self.keys,
        }
    }

    /// The installed policy, e.g. to restart a scripted one between runs
    /// or to ask whether it ended the last one early.
    pub fn policy_mut(&mut self) -> &mut Pol {
        &mut self.policy
    }

    /// Back to a fresh engine at time zero: no processes, resources,
    /// events or pending wake-ups, but every buffer keeps its capacity,
    /// so the next run's setup allocates nothing. The configuration (trace
    /// sink, event budget) and the policy stay as they are.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.processed = 0;
        self.wakes.clear();
        self.procs.clear();
        self.resources.clear();
        self.events.clear();
    }

    /// The processes, in id order — e.g. to reclaim buffers they own
    /// before a [`Engine::reset`] drops them.
    pub fn processes_mut(&mut self) -> impl Iterator<Item = &mut P> + '_ {
        self.procs.iter_mut().map(|slot| &mut slot.process)
    }

    /// Each process's accounting so far, in id order: exactly what
    /// [`Engine::take_trace`] copies into each [`ProcReport`], read in
    /// place — e.g. after [`Engine::run_in_place`].
    pub fn accounts(&self) -> impl Iterator<Item = ProcAccount> + '_ {
        self.procs.iter().map(|slot| ProcAccount {
            busy: slot.busy,
            waiting: slot.waiting,
            completed_work: slot.completed_work,
            finished_at: slot.finished_at,
        })
    }

    /// Each resource's contention statistics so far, in id order: exactly
    /// what [`Engine::take_trace`] copies into each resource's report.
    pub fn resource_stats(&self) -> impl Iterator<Item = &ResourceStats> + '_ {
        self.resources.iter().map(|r| &r.stats)
    }

    /// Configure the event-budget watchdog: runs that process more than
    /// `max` events fail with [`SimError::EventBudgetExceeded`] instead of
    /// spinning forever on a live-locked workload.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Opt out of (or back into) trace-event emission. With the sink off
    /// the returned [`Trace`] has an empty event log but identical
    /// accounting (busy, waiting, completed work, resource stats, end
    /// time) — the mode stats-only sweep repetitions run in.
    pub fn set_trace_events(&mut self, record: bool) {
        self.record_events = record;
    }

    /// Register an exclusive resource with a hand-off latency applied when
    /// it passes from one process to a waiting one.
    pub fn add_resource(&mut self, label: impl Into<String>, handoff: SimDuration) -> ResourceId {
        self.add_resource_pool(label, 1, handoff)
    }

    /// Register a pool of `capacity` interchangeable units of a resource —
    /// e.g. a team with *two* red markers. Grants are still FIFO across
    /// the pool.
    pub fn add_resource_pool(
        &mut self,
        label: impl Into<String>,
        capacity: usize,
        handoff: SimDuration,
    ) -> ResourceId {
        let id = ResourceId(self.resources.len() as u32);
        self.resources
            .push(ResourceState::new(label.into(), capacity, handoff));
        id
    }

    /// Register a process, waking it at time zero.
    pub fn add_process(&mut self, process: P) -> ProcId {
        self.add_process_at(process, SimTime::ZERO)
    }

    /// Register a process, waking it first at `start`.
    pub fn add_process_at(&mut self, process: P, start: SimTime) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(ProcSlot {
            process,
            state: ProcState::Runnable,
            busy: SimDuration::ZERO,
            waiting: SimDuration::ZERO,
            wait_started: None,
            wake_at: SimTime::ZERO,
            completed_work: 0,
            finished_at: None,
            history: 0,
        });
        self.wakes.push(NO_WAKE);
        self.schedule(start, id);
        id
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, pid: ProcId) {
        self.seq += 1;
        if Pol::policed() && at == self.now {
            self.cascade_spawned = true;
        }
        debug_assert_eq!(self.wakes[pid.index()], NO_WAKE, "one pending wake-up per process");
        self.wakes[pid.index()] = wake_key(at, self.seq);
    }

    /// The slot with the smallest wake key and its time, or `None` when
    /// no wake-up is pending; keys are unique, so the minimum, and with
    /// it the whole firing order, is the `(at, seq)` order. Also whether
    /// another key shares the winner's millisecond, so a policed engine
    /// asks its policy about a tie without a second pass; an unpoliced
    /// one never reads the flag, and it compiles away. The sentinel
    /// shares the last millisecond, so a wake-up there can raise a false
    /// alarm.
    ///
    /// The scan is branch-free: which slot wins is data-dependent, so its
    /// selects are `select_unpredictable` (conditional moves). Measured
    /// on the benchmark, a branchy scan lost about 12% on policed runs
    /// and 2.5% on unpoliced ones.
    #[inline]
    fn next_wake(wakes: &[u128]) -> Option<(usize, SimTime, bool)> {
        let (mut best, mut best_key, mut tie) = (0, NO_WAKE, false);
        for (i, &k) in wakes.iter().enumerate() {
            let same_ms = wake_time(k) == wake_time(best_key);
            let lt = k < best_key;
            tie = select_unpredictable(lt, same_ms, tie | same_ms);
            best = select_unpredictable(lt, i, best);
            best_key = select_unpredictable(lt, k, best_key);
        }
        (best_key != NO_WAKE).then_some((best, wake_time(best_key), tie))
    }

    #[inline]
    fn record(&mut self, pid: ProcId, kind: EventKind) {
        if self.record_events {
            self.events.push(TraceEvent {
                time: self.now,
                proc: pid,
                kind,
            });
        }
    }

    /// Run until no events remain, consuming the engine and returning the
    /// trace. Panicking compatibility wrapper around [`Engine::try_run`]:
    /// panics (with the [`SimError`] message) if the event budget trips or
    /// a process misbehaves — releasing a resource it doesn't hold, acting
    /// after `Done`, re-acquiring a resource it already holds — or if the
    /// run stalls with blocked waiters.
    pub fn run(self) -> Trace {
        match self.try_run() {
            Ok(trace) => trace,
            Err(e) => std::panic::panic_any(e.to_string()),
        }
    }

    /// Run until no events remain, consuming the engine. Returns a typed
    /// [`SimError`] instead of panicking: misuse by a process, a tripped
    /// event budget, or a stall (the queue drained while processes still
    /// wait on resources — e.g. a circular wait) all surface as `Err`,
    /// with [`SimError::Stalled`] carrying the full wait-for graph.
    pub fn try_run(self) -> Result<Trace, SimError> {
        self.try_run_until(SimTime(u64::MAX))
    }

    /// Run until no events remain **or the bell rings**, consuming the
    /// engine: [`Engine::run_in_place`], then the trace, whose event log
    /// the engine hands over rather than copies.
    pub fn try_run_until(mut self, deadline: SimTime) -> Result<Trace, SimError> {
        self.run_in_place(deadline)?;
        let events = std::mem::take(&mut self.events);
        Ok(Trace {
            events,
            ..self.take_trace()
        })
    }

    /// Run until no events remain **or the bell rings**, keeping the
    /// engine, and return the end time: the deadline when work was cut
    /// off, else the last event's time. Events scheduled after `deadline`
    /// are not processed (work in flight past the deadline does not
    /// complete) — the classroom reality behind §V-C's response-rate note,
    /// "the first of the three sections … had less time". Unfinished
    /// processes report `finished_at: None`. Read the results with
    /// [`Engine::accounts`] or [`Engine::take_trace`]; after an error,
    /// [`Engine::reset`] before the next run.
    ///
    /// A cut-off run settles its in-flight accounting to the wall clock:
    /// busy time for work still under way is clamped to the deadline, and
    /// processes still queued at the bell are charged their blocked tail
    /// — so `busy ≤ elapsed` and waiting matches the causal timeline
    /// reconstruction, per process and in aggregate.
    ///
    /// Stall detection only applies to runs that drain naturally: a run
    /// cut off by the bell legitimately leaves processes blocked.
    ///
    /// A schedule policy can end the run early
    /// ([`SchedulePolicy::ends_run`]): the loop stops before moving time
    /// past the current instant and returns that instant, leaving pending
    /// events unprocessed and in-flight accounting unsettled. Ask the
    /// policy, not the result, whether that happened.
    pub fn run_in_place(&mut self, deadline: SimTime) -> Result<SimTime, SimError> {
        // One span per run, counters folded in at the end from stats the
        // engine already keeps — the event loop itself stays untouched,
        // so instrumentation cost is independent of event count.
        let run_span = flagsim_telemetry::span("sim", "desim.run")
            .arg("procs", self.procs.len())
            .arg("resources", self.resources.len());
        let mut cut_off = false;
        while let Some((mut idx, t, tie)) = Self::next_wake(&self.wakes) {
            if Pol::policed() {
                if t > self.now && self.policy.ends_run() {
                    break;
                }
                if tie {
                    idx = self.choose_tied_wakeup(idx, t);
                }
            }
            if t > deadline {
                cut_off = true;
                break;
            }
            self.wakes[idx] = NO_WAKE;
            let pid = ProcId(idx as u32);
            if t < self.now {
                return Err(SimError::InvariantViolated {
                    detail: format!(
                        "event queue went backwards ({}ms after {}ms)",
                        t.millis(),
                        self.now.millis()
                    ),
                    at: self.now,
                });
            }
            self.now = t;
            self.processed += 1;
            if self.processed > self.max_events {
                return Err(SimError::EventBudgetExceeded {
                    processed: self.processed,
                    budget: self.max_events,
                    at: self.now,
                });
            }
            self.advance(pid).map_err(|e| *e)?;
        }
        if Pol::policed() && self.policy.ends_run() {
            // The policy ended the run, or asked to and the queue drained
            // first: the caller takes the outcome from the policy, so
            // nothing is settled or checked.
        } else if cut_off {
            self.now = deadline;
            self.settle_cutoff(deadline);
        } else {
            let waiters = self.wait_for_graph();
            if !waiters.is_empty() {
                return Err(SimError::Stalled { waiters });
            }
        }
        self.record_run_metrics();
        drop(run_span);
        Ok(self.now)
    }

    /// The bell rang at `deadline` with events still queued: reconcile
    /// every in-flight slot's accounting with the wall clock. Any slot
    /// still `Working`/`InTransit` here has `wake_at > deadline` — its
    /// wake event is exactly what the cutoff refused to process.
    fn settle_cutoff(&mut self, deadline: SimTime) {
        for slot in &mut self.procs {
            match slot.state {
                ProcState::Working => {
                    // Busy over-charge fix: `WorkStart` booked the full
                    // chunk up front; the part past the bell never ran.
                    let unrun = slot.wake_at.since(deadline);
                    slot.busy = SimDuration(slot.busy.millis().saturating_sub(unrun.millis()));
                }
                ProcState::WaitingFor(rid) => {
                    // Waiting under-count fix: a process still queued at
                    // the bell has been waiting since it blocked; charge
                    // the tail to it and to the resource.
                    if let Some(started) = slot.wait_started.take() {
                        let tail = deadline.since(started);
                        slot.waiting += tail;
                        self.resources[rid.index()].stats.total_wait += tail;
                    }
                }
                ProcState::InTransit(rid) => {
                    // The grant charged wait through the hand-off's end;
                    // the transit portion past the bell never elapsed.
                    let overshoot = slot.wake_at.since(deadline).millis();
                    slot.waiting = SimDuration(slot.waiting.millis().saturating_sub(overshoot));
                    let stats = &mut self.resources[rid.index()].stats;
                    stats.total_wait =
                        SimDuration(stats.total_wait.millis().saturating_sub(overshoot));
                    stats.handoff_time =
                        SimDuration(stats.handoff_time.millis().saturating_sub(overshoot));
                }
                ProcState::Runnable | ProcState::Sleeping | ProcState::Finished => {}
            }
        }
    }

    /// Fold the run's already-collected statistics into the telemetry
    /// registry. No-op (one atomic load) when telemetry is disabled.
    fn record_run_metrics(&self) {
        if !flagsim_telemetry::enabled() {
            return;
        }
        flagsim_telemetry::count("desim.runs", 1);
        flagsim_telemetry::count("desim.events_processed", self.processed);
        flagsim_telemetry::observe("desim.events_per_run", self.processed as f64);
        let mut acquisitions = 0u64;
        let mut contended = 0u64;
        let mut handoffs = 0u64;
        for res in &self.resources {
            acquisitions += res.stats.acquisitions;
            contended += res.stats.contended_acquisitions;
            handoffs += res.stats.handoffs;
        }
        flagsim_telemetry::count("desim.resource.acquisitions", acquisitions);
        flagsim_telemetry::count("desim.resource.contended", contended);
        flagsim_telemetry::count("desim.resource.handoffs", handoffs);
    }

    /// Under a policy, with slot `first` due first, at `t`, and the scan
    /// reporting a tie there: let the policy pick which wake-up due at `t`
    /// fires first. Returns the slot to fire. Collects the tie into reused
    /// scratch; a false alarm collects one wake-up and asks nothing.
    fn choose_tied_wakeup(&mut self, first: usize, t: SimTime) -> usize {
        self.ties.clear();
        self.ties.extend(
            self.wakes
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k != NO_WAKE && wake_time(k) == t)
                .map(|(i, _)| (ProcId(i as u32), i)),
        );
        if self.ties.len() < 2 {
            return first;
        }
        self.resolve_tie(ChoiceKind::Wakeup, t)
    }

    /// Under a policy: pick which waiter a freed unit of `rid` goes to.
    /// FIFO order between *distinct* blocking instants is semantic
    /// (first-come-first-served) and preserved; only waiters blocked since
    /// the same instant as the queue head are candidates (arrival order
    /// keeps equal wait-starts contiguous at the front). Removal is
    /// order-preserving so the rest of the queue keeps its FIFO discipline.
    fn choose_tied_grant(&mut self, rid: ResourceId) -> Option<ProcId> {
        let res = &self.resources[rid.index()];
        let front = *res.waiters.first()?;
        let front_started = self.procs[front.index()].wait_started;
        let tied = res
            .waiters
            .iter()
            .take_while(|w| self.procs[w.index()].wait_started == front_started)
            .count();
        if tied < 2 {
            return self.resources[rid.index()].waiters.pop_front();
        }
        self.ties.clear();
        self.ties
            .extend(res.waiters[..tied].iter().enumerate().map(|(i, &w)| (w, i)));
        let chosen = self.resolve_tie(ChoiceKind::Grant(rid), self.now);
        self.resources[rid.index()].waiters.remove(chosen)
    }

    /// Present the tie in `self.ties` to the policy as one choice point,
    /// candidates sorted by process id — a canonical order independent of
    /// the insertion sequence the default tie-break uses, so equivalent
    /// states present identical choice points. Returns the chosen tie's
    /// index payload.
    fn resolve_tie(&mut self, kind: ChoiceKind, at: SimTime) -> usize {
        self.ties.sort_unstable_by_key(|&(pid, _)| pid);
        self.candidates.clear();
        self.candidates
            .extend(self.ties.iter().map(|&(pid, _)| pid));
        let state_hash = if self.policy.reads_state_hash() {
            self.state_hash()
        } else {
            0
        };
        let chosen = self.policy.choose(&ChoicePoint {
            kind,
            at,
            candidates: &self.candidates,
            state_hash,
        });
        self.ties[chosen.min(self.ties.len() - 1)].1
    }

    /// Canonical fingerprint of the semantic engine state, folded a word
    /// at a time — everything that determines the rest of the run, nothing
    /// that is an accident of how this state was reached. Insertion
    /// sequence numbers and event-log contents are excluded; pending
    /// wake-ups are hashed as a sorted `(time, pid)` multiset, holders
    /// sorted by pid, and waiters by `(wait-start, pid)` (FIFO order
    /// within an equal-start run is the accident being abstracted away —
    /// the grant choice point re-exposes it explicitly).
    /// Process internals are represented by the slot's poll-history hash.
    /// The multisets are sorted in reused scratch.
    fn state_hash(&mut self) -> u64 {
        let mut keys = std::mem::take(&mut self.keys);
        let mut h = word_mix(0, self.now.millis());
        keys.clear();
        keys.extend(
            self.wakes
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k != NO_WAKE)
                .map(|(i, &k)| (wake_time(k).millis(), i as u32)),
        );
        h = mix_sorted(h, &mut keys);
        for slot in &self.procs {
            let (disc, rid) = match slot.state {
                ProcState::Runnable => (0u64, 0u64),
                ProcState::Working => (1, 0),
                ProcState::WaitingFor(r) => (2, u64::from(r.0) + 1),
                ProcState::InTransit(r) => (3, u64::from(r.0) + 1),
                ProcState::Sleeping => (4, 0),
                ProcState::Finished => (5, 0),
            };
            // `wake_at` is stale outside Working/InTransit; canonicalize.
            let wake = match slot.state {
                ProcState::Working | ProcState::InTransit(_) => Some(slot.wake_at),
                _ => None,
            };
            for word in [
                disc,
                rid,
                slot.busy.millis(),
                slot.waiting.millis(),
                opt_time(slot.wait_started),
                opt_time(wake),
                slot.completed_work,
                opt_time(slot.finished_at),
                slot.history,
            ] {
                h = word_mix(h, word);
            }
        }
        for res in &self.resources {
            keys.clear();
            keys.extend(res.holders.iter().map(|p| (0, p.0)));
            h = mix_sorted(h, &mut keys);
            keys.clear();
            keys.extend(res.waiters.iter().map(|&w| {
                let start = self.procs[w.index()].wait_started;
                (opt_time(start), w.0)
            }));
            h = mix_sorted(h, &mut keys);
            let s = &res.stats;
            for word in [
                s.acquisitions,
                s.contended_acquisitions,
                s.handoffs,
                s.total_wait.millis(),
                s.handoff_time.millis(),
                s.max_queue_len as u64,
            ] {
                h = word_mix(h, word);
            }
        }
        self.keys = keys;
        h
    }

    /// Fold one poll result into a slot's history fingerprint.
    fn mix_action(h: u64, now: SimTime, action: &Action) -> u64 {
        let (tag, value) = match *action {
            Action::Work(d) => (1, d.millis()),
            Action::Acquire(r) => (2, u64::from(r.0)),
            Action::Release(r) => (3, u64::from(r.0)),
            Action::WaitUntil(t) => (4, t.millis()),
            Action::Done => (5, 0),
        };
        word_mix(word_mix(word_mix(h, now.millis()), tag), value)
    }

    /// Snapshot the wait-for graph: one edge per process blocked on a
    /// resource, with the resource's current holders.
    fn wait_for_graph(&self) -> WaitForGraph {
        let mut edges = Vec::new();
        for (ridx, res) in self.resources.iter().enumerate() {
            for (queue_position, &wpid) in res.waiters.iter().enumerate() {
                edges.push(WaitEdge {
                    proc: wpid,
                    proc_name: self.procs[wpid.index()].process.name().to_owned(),
                    resource: ResourceId(ridx as u32),
                    resource_label: res.label.clone(),
                    holders: res.holders.to_vec(),
                    queue_position,
                });
            }
        }
        WaitForGraph {
            edges,
            at: self.now,
        }
    }

    /// Poll `pid` repeatedly until it blocks, sleeps, works, or finishes.
    ///
    /// Errors come back boxed: `SimError` is a 72-byte enum, and an
    /// unboxed `Result` would be returned through memory on every event
    /// this loop processes. Boxed, the happy path fits in a register;
    /// the allocation only happens on the (cold, run-ending) error path.
    ///
    /// Under a schedule policy the cascade's resource footprint is
    /// collected and reported to the policy afterwards — the raw
    /// material for exploration's commutativity pruning.
    fn advance(&mut self, pid: ProcId) -> Result<(), Box<SimError>> {
        if !Pol::policed() {
            return self.advance_inner(pid);
        }
        self.cascade_buf.clear();
        self.cascade_spawned = false;
        let result = self.advance_inner(pid);
        self.policy
            .observe_cascade(pid, self.now, &self.cascade_buf, self.cascade_spawned);
        result
    }

    fn advance_inner(&mut self, pid: ProcId) -> Result<(), Box<SimError>> {
        {
            // Resolve what this wake-up means before polling: a `Working`
            // slot's chunk just completed (count it); an `InTransit`
            // slot's hand-off just landed. `Finished` means the process
            // was scheduled after `Done` — a misuse error. A process
            // cannot become `Finished` mid-loop and be polled again
            // (Done returns immediately), so this entry check is the
            // only one needed.
            let slot = &mut self.procs[pid.index()];
            match slot.state {
                ProcState::Finished => {
                    return Err(Box::new(SimError::ActedAfterDone {
                        proc: pid,
                        at: self.now,
                    }));
                }
                ProcState::Working => {
                    slot.completed_work += 1;
                    slot.state = ProcState::Runnable;
                }
                ProcState::InTransit(_) => slot.state = ProcState::Runnable,
                ProcState::Runnable | ProcState::WaitingFor(_) | ProcState::Sleeping => {}
            }
        }
        // `now` is constant for the whole call; keep it in a local so
        // the poll loop never reloads it through `&mut self`.
        let now = self.now;
        let idx = pid.index();
        loop {
            let action = self.procs[idx].process.next(now);
            if Pol::policed() {
                let slot = &mut self.procs[idx];
                slot.history = Self::mix_action(slot.history, now, &action);
            }
            match action {
                Action::Work(dur) => {
                    let wake = now + dur;
                    let slot = &mut self.procs[idx];
                    slot.state = ProcState::Working;
                    slot.busy += dur;
                    slot.wake_at = wake;
                    self.record(pid, EventKind::WorkStart { dur });
                    self.schedule(wake, pid);
                    return Ok(());
                }
                Action::Acquire(rid) => {
                    if Pol::policed() {
                        self.cascade_buf.push(rid);
                    }
                    let res = &mut self.resources[rid.index()];
                    if res.holds(pid) {
                        return Err(Box::new(SimError::ReacquireHeld {
                            proc: pid,
                            proc_name: self.procs[idx].process.name().to_owned(),
                            resource: rid,
                            resource_label: self.resources[rid.index()].label.clone(),
                            at: now,
                        }));
                    }
                    if res.has_free_unit() && res.waiters.is_empty() {
                        res.holders.push(pid);
                        res.stats.acquisitions += 1;
                        self.record(pid, EventKind::Acquired(rid));
                        // Granted instantly; keep polling at the same time.
                        continue;
                    }
                    res.waiters.push(pid);
                    res.stats.max_queue_len = res.stats.max_queue_len.max(res.waiters.len());
                    let slot = &mut self.procs[idx];
                    slot.state = ProcState::WaitingFor(rid);
                    slot.wait_started = Some(now);
                    self.record(pid, EventKind::Blocked(rid));
                    return Ok(());
                }
                Action::Release(rid) => {
                    if Pol::policed() {
                        self.cascade_buf.push(rid);
                    }
                    let res = &mut self.resources[rid.index()];
                    let Some(pos) = res.holders.iter().position(|&h| h == pid) else {
                        return Err(Box::new(SimError::ReleaseWithoutHold {
                            proc: pid,
                            proc_name: self.procs[idx].process.name().to_owned(),
                            resource: rid,
                            resource_label: self.resources[rid.index()].label.clone(),
                            at: now,
                        }));
                    };
                    res.holders.swap_remove(pos);
                    self.record(pid, EventKind::Released(rid));
                    let next_pid = if Pol::policed() {
                        self.choose_tied_grant(rid)
                    } else {
                        self.resources[rid.index()].waiters.pop_front()
                    };
                    if let Some(next_pid) = next_pid {
                        self.grant_after_handoff(rid, next_pid)?;
                    }
                    // The releasing process keeps going at the same time.
                    continue;
                }
                Action::WaitUntil(t) => {
                    if t < now {
                        return Err(Box::new(SimError::WaitUntilPast {
                            proc: pid,
                            target: t,
                            at: now,
                        }));
                    }
                    self.procs[idx].state = ProcState::Sleeping;
                    self.schedule(t, pid);
                    return Ok(());
                }
                Action::Done => {
                    let slot = &mut self.procs[idx];
                    slot.state = ProcState::Finished;
                    slot.finished_at = Some(now);
                    self.record(pid, EventKind::Finished);
                    return Ok(());
                }
            }
        }
    }

    /// Hand a released resource to the next FIFO waiter, charging the
    /// hand-off latency before the waiter is polled again.
    fn grant_after_handoff(&mut self, rid: ResourceId, pid: ProcId) -> Result<(), Box<SimError>> {
        let handoff = self.resources[rid.index()].handoff;
        let grant_time = self.now + handoff;
        let Some(started) = self.procs[pid.index()].wait_started.take() else {
            return Err(Box::new(SimError::InvariantViolated {
                detail: format!(
                    "waiter {} granted \"{}\" without a recorded wait start",
                    pid.0,
                    self.resources[rid.index()].label
                ),
                at: self.now,
            }));
        };
        // Wait covers queue time plus the hand-off itself.
        let waited = grant_time - started;
        let res = &mut self.resources[rid.index()];
        res.holders.push(pid); // in transit counts as held
        res.stats.acquisitions += 1;
        res.stats.contended_acquisitions += 1;
        res.stats.handoffs += 1;
        res.stats.total_wait += waited;
        res.stats.handoff_time += handoff;
        let slot = &mut self.procs[pid.index()];
        slot.waiting += waited;
        slot.state = ProcState::InTransit(rid);
        slot.wake_at = grant_time;
        self.record(pid, EventKind::Acquired(rid));
        self.schedule(grant_time, pid);
        Ok(())
    }

    /// The run so far as a [`Trace`]: accounting, process names and the
    /// events the run recorded copied out, each at its exact size;
    /// resource labels moved. Take it once, after the run; the engine
    /// keeps its buffers for the next [`Engine::reset`].
    pub fn take_trace(&mut self) -> Trace {
        let procs = self
            .procs
            .iter()
            .zip(self.accounts())
            .map(|(p, a)| ProcReport {
                name: p.process.name().to_owned(),
                busy: a.busy,
                waiting: a.waiting,
                completed_work: a.completed_work,
                finished_at: a.finished_at,
            })
            .collect();
        let resources = self
            .resources
            .iter_mut()
            .map(|r| ResourceReport {
                label: std::mem::take(&mut r.label),
                capacity: r.capacity,
                handoff: r.handoff,
                stats: r.stats.clone(),
            })
            .collect();
        Trace {
            end_time: self.now,
            procs,
            resources,
            events: self.events.to_vec(),
        }
    }
}

/// An optional time as one state-hash word: its millisecond plus one,
/// wrapping (so the last millisecond hashes like "none"), or 0.
fn opt_time(t: Option<SimTime>) -> u64 {
    t.map_or(0, |t| t.millis().wrapping_add(1))
}

/// Fold a multiset of `(u64, u32)` into `h` in canonical (sorted) order,
/// length first.
fn mix_sorted(h: u64, keys: &mut [(u64, u32)]) -> u64 {
    keys.sort_unstable();
    keys.iter()
        .fold(word_mix(h, keys.len() as u64), |h, &(a, b)| {
            word_mix(word_mix(h, a), u64::from(b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ChoiceKind, ForcedSchedule};

    /// A process that performs a fixed script of actions, then finishes.
    fn scripted(name: &str, script: Vec<Action>) -> Box<dyn Process> {
        let mut script = script.into_iter();
        Box::new(FnProcess::new(name, move |_| script.next().unwrap_or(Action::Done)))
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// One use of `r`: acquire, work `work_ms`, release, finish.
    fn uses(r: ResourceId, work_ms: u64) -> Vec<Action> {
        vec![Action::Acquire(r), Action::Work(ms(work_ms)), Action::Release(r), Action::Done]
    }

    /// An engine with one pool "m" of `capacity` units and `handoff_ms`
    /// hand-off, and one process per `(name, work_ms)` using it once, all
    /// woken at zero in that order.
    fn contenders(capacity: usize, handoff_ms: u64, workers: &[(&str, u64)]) -> Engine {
        let mut eng = Engine::new();
        let m = eng.add_resource_pool("m", capacity, ms(handoff_ms));
        for &(name, work_ms) in workers {
            eng.add_process(scripted(name, uses(m, work_ms)));
        }
        eng
    }

    #[test]
    fn single_worker_timing() {
        let mut eng = Engine::new();
        eng.add_process(scripted(
            "solo",
            vec![Action::Work(ms(100)), Action::Work(ms(50)), Action::Done],
        ));
        let trace = eng.run();
        assert_eq!(trace.end_time, SimTime(150));
        assert_eq!(trace.procs[0].busy, ms(150));
        assert_eq!(trace.procs[0].waiting, ms(0));
        assert_eq!(trace.procs[0].completed_work, 2);
        assert_eq!(trace.procs[0].finished_at, Some(SimTime(150)));
    }

    /// A capacity-1 pool with three same-instant contenders: the forced
    /// schedule's grant decisions pick service order, and the engine's
    /// decision log records both choice points (3-way then 2-way) with
    /// FIFO preserved for everyone else.
    #[test]
    fn forced_schedule_steers_grant_order() {
        let build = || contenders(1, 0, &[("a", 10), ("b", 20), ("c", 30)]);
        // Default script: wake order a,b,c (pid order) — a holds, b and c
        // queue; grants then go b, c.
        let (policy, log) = ForcedSchedule::new(vec![]);
        let base = build().with_schedule_policy(policy).try_run().expect("runs");
        assert_eq!(base.procs[0].finished_at, Some(SimTime(10)));
        assert_eq!(base.procs[1].finished_at, Some(SimTime(30)));
        assert_eq!(base.procs[2].finished_at, Some(SimTime(60)));
        {
            let log = log.borrow();
            // Decision 0: the 3-way wake-up tie; decision 1: the 2-way
            // tie among the remaining same-instant wake-ups (b, c);
            // decision 2: the 2-way grant tie when a releases at t=10.
            // The final grant is a singleton, not a choice point.
            assert_eq!(log.decisions.len(), 3);
            assert_eq!(log.decisions[0].kind, ChoiceKind::Wakeup);
            assert_eq!(log.decisions[0].candidates.len(), 3);
            assert_eq!(log.decisions[1].kind, ChoiceKind::Wakeup);
            assert!(matches!(log.decisions[2].kind, ChoiceKind::Grant(_)));
            assert_eq!(log.decisions[2].candidates.len(), 2);
            // Cascades carry the pool in their footprints.
            assert!(log.cascades.iter().any(|c| !log.footprint(c).is_empty()));
        }
        // Alternative: same wake order, but grant c before b.
        let (policy, _log) = ForcedSchedule::new(vec![0, 0, 1]);
        let alt = build().with_schedule_policy(policy).try_run().expect("runs");
        assert_eq!(alt.procs[2].finished_at, Some(SimTime(40)), "c served second");
        assert_eq!(alt.procs[1].finished_at, Some(SimTime(60)), "b served last");
        assert_eq!(alt.end_time, base.end_time, "work conserved");
    }

    /// A forced schedule that reaches a known state past its script ends
    /// the run once that instant is over: the rest of the instant's
    /// cascades still run and are logged, nothing later does, and no
    /// decision after the known one (nor any replayed one) reads a hash.
    #[test]
    fn forced_schedule_ends_the_run_when_a_known_state_s_instant_closes() {
        use crate::schedule::KnownState;
        let build = || contenders(1, 0, &[("a", 10), ("b", 20), ("c", 30)]);
        let (policy, log) = ForcedSchedule::new(vec![]);
        build().with_schedule_policy(policy).try_run().expect("runs");
        let full = log.take();
        let hashes: Vec<u64> = full.decisions.iter().map(|d| d.state_hash).collect();
        assert!(hashes.iter().all(|&h| h != 0), "{hashes:?}");

        // Decision 1 (the t=0 tie between b and c) is known.
        let (mut policy, log) = ForcedSchedule::new(vec![]);
        let known = KnownState {
            class: 0,
            pruned_after: 1,
        };
        policy.known_mut().insert(hashes[1], known);
        let eng = build().with_schedule_policy(policy);
        let cut = eng.try_run().expect("ends cleanly");
        let cut_log = log.take();
        assert_eq!(cut.end_time, SimTime::ZERO);
        assert!(cut.procs.iter().all(|p| p.finished_at.is_none()));
        assert_eq!(cut_log.decisions, full.decisions[..2]);
        assert_eq!(cut_log.cascades.len(), 3, "a, b and c all ran at t=0");
        assert_eq!(cut_log.cascades, full.cascades[..3]);

        // Replayed decisions read no hash; the first one past the script
        // does, and nothing after a cut does.
        let (mut policy, log) = ForcedSchedule::new(vec![0]);
        policy.known_mut().insert(hashes[1], known);
        build().with_schedule_policy(policy).try_run().expect("ends cleanly");
        let read: Vec<u64> = log.take().decisions.iter().map(|d| d.state_hash).collect();
        assert_eq!(read, [0, hashes[1]]);
    }

    /// Replaying the same forced schedule is byte-deterministic, and the
    /// canonical state hash at each choice point matches run for run.
    #[test]
    fn forced_schedule_replay_is_deterministic() {
        let run = || {
            let (policy, log) = ForcedSchedule::new(vec![1]);
            let eng = contenders(1, 5, &[("a", 10), ("b", 10)]).with_schedule_policy(policy);
            (eng.try_run().expect("runs"), log.take())
        };
        let (t1, l1) = run();
        let (t2, l2) = run();
        assert_eq!(t1, t2);
        assert_eq!(l1, l2);
        assert!(!l1.decisions.is_empty());
    }

    #[test]
    fn two_independent_workers_overlap() {
        let mut eng = Engine::new();
        for name in ["a", "b"] {
            eng.add_process(scripted(name, vec![Action::Work(ms(100)), Action::Done]));
        }
        let trace = eng.run();
        // Parallel: both finish at 100, not 200.
        assert_eq!(trace.end_time, SimTime(100));
        assert_eq!(trace.makespan(), ms(100));
    }

    #[test]
    fn contention_serializes_and_charges_waiting() {
        let trace = contenders(1, 0, &[("a", 100), ("b", 100)]).run();
        assert_eq!(trace.end_time, SimTime(200));
        // First-come-first-served: "a" was scheduled first.
        assert_eq!(trace.procs[0].waiting, ms(0));
        assert_eq!(trace.procs[1].waiting, ms(100));
        let stats = &trace.resources[0].stats;
        assert_eq!(stats.acquisitions, 2);
        assert_eq!(stats.contended_acquisitions, 1);
        assert_eq!(stats.handoffs, 1);
        assert_eq!(stats.total_wait, ms(100));
        assert_eq!(stats.max_queue_len, 1);
    }

    #[test]
    fn handoff_latency_delays_the_waiter() {
        let trace = contenders(1, 30, &[("a", 100), ("b", 100)]).run();
        // b waits 100 (queue) + 30 (hand-off) then works 100.
        assert_eq!(trace.end_time, SimTime(230));
        assert_eq!(trace.procs[1].waiting, ms(130));
        // First acquisition was uncontended (no hand-off).
        assert_eq!(trace.resources[0].stats.handoffs, 1);
    }

    #[test]
    fn total_wait_splits_queue_time_from_handoff_transit() {
        // Same workload as `handoff_latency_delays_the_waiter`, pinning
        // the documented `total_wait` semantics: queue + hand-off
        // combined, with `handoff_time` isolating the transit portion
        // and `queue_wait()` the pure queue component.
        let trace = contenders(1, 30, &[("a", 100), ("b", 100)]).run();
        let stats = &trace.resources[0].stats;
        assert_eq!(stats.total_wait, ms(130));
        assert_eq!(stats.handoff_time, ms(30));
        assert_eq!(stats.queue_wait(), ms(100));
    }

    #[test]
    fn fifo_order_among_waiters() {
        let trace = contenders(1, 0, &[("a", 10), ("b", 10), ("c", 10)]).run();
        // Finish order must be a, b, c at 10, 20, 30.
        let finishes: Vec<_> = trace
            .procs
            .iter()
            .map(|p| p.finished_at.unwrap().millis())
            .collect();
        assert_eq!(finishes, vec![10, 20, 30]);
        assert_eq!(trace.resources[0].stats.max_queue_len, 2);
    }

    #[test]
    fn wait_until_staggers_start() {
        let mut eng = Engine::new();
        eng.add_process(scripted(
            "late",
            vec![
                Action::WaitUntil(SimTime(500)),
                Action::Work(ms(10)),
                Action::Done,
            ],
        ));
        let trace = eng.run();
        assert_eq!(trace.end_time, SimTime(510));
    }

    /// The "no wake-up" sentinel shares its time half with a real
    /// wake-up at the last millisecond; both such wake-ups still fire,
    /// and under a policy they are one two-way tie.
    #[test]
    fn wakeups_at_the_end_of_time_fire() {
        let build = || {
            let mut eng = Engine::new();
            for name in ["a", "b"] {
                let script = vec![Action::WaitUntil(SimTime(u64::MAX)), Action::Done];
                eng.add_process(scripted(name, script));
            }
            eng
        };
        let trace = build().run();
        assert_eq!(trace.end_time, SimTime(u64::MAX));
        assert!(trace.procs.iter().all(|p| p.finished_at == Some(SimTime(u64::MAX))));
        let (policy, log) = ForcedSchedule::new(vec![0, 1]);
        let trace = build().with_schedule_policy(policy).try_run().expect("runs");
        assert_eq!(trace.procs[1].finished_at, Some(SimTime(u64::MAX)));
        let log = log.borrow();
        let at_max: Vec<_> = log.decisions.iter().filter(|d| d.at == SimTime(u64::MAX)).collect();
        assert_eq!(at_max.len(), 1, "{:?}", log.decisions);
        assert_eq!(log.candidates_of(at_max[0]).len(), 2);
    }

    #[test]
    fn add_process_at_delays_first_poll() {
        let mut eng = Engine::new();
        eng.add_process_at(
            scripted("late", vec![Action::Work(ms(5)), Action::Done]),
            SimTime(100),
        );
        let trace = eng.run();
        assert_eq!(trace.end_time, SimTime(105));
    }

    #[test]
    fn release_without_hold_is_typed_error() {
        let mut eng = Engine::new();
        let r = eng.add_resource("m", ms(0));
        eng.add_process(scripted("bad", vec![Action::Release(r), Action::Done]));
        let err = eng.try_run().unwrap_err();
        match &err {
            SimError::ReleaseWithoutHold {
                proc,
                proc_name,
                resource,
                resource_label,
                at,
            } => {
                assert_eq!(proc.index(), 0);
                assert_eq!(proc_name, "bad");
                assert_eq!(*resource, r);
                assert_eq!(resource_label, "m");
                assert_eq!(*at, SimTime::ZERO);
            }
            other => panic!("expected ReleaseWithoutHold, got {other:?}"),
        }
        assert!(err.to_string().contains("does not hold"));
    }

    #[test]
    fn reacquire_is_typed_error() {
        let mut eng = Engine::new();
        let r = eng.add_resource("m", ms(0));
        eng.add_process(scripted(
            "bad",
            vec![Action::Acquire(r), Action::Acquire(r), Action::Done],
        ));
        let err = eng.try_run().unwrap_err();
        assert!(
            matches!(&err, SimError::ReacquireHeld { proc, resource, .. }
                if proc.index() == 0 && *resource == r),
            "{err:?}"
        );
        assert!(err.to_string().contains("re-acquired"));
    }

    #[test]
    fn livelock_guard_is_typed_error() {
        struct Spinner;
        impl Process for Spinner {
            fn next(&mut self, _now: SimTime) -> Action {
                Action::Work(SimDuration::ZERO)
            }
        }
        let mut eng = Engine::new();
        eng.set_max_events(100);
        eng.add_process(Box::new(Spinner));
        let err = eng.try_run().unwrap_err();
        assert!(
            matches!(
                err,
                SimError::EventBudgetExceeded {
                    processed: 101,
                    budget: 100,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("live-lock"));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn run_compat_wrapper_still_panics() {
        // `run()` is the documented panicking wrapper; legacy callers keep
        // the old message substrings.
        let mut eng = Engine::new();
        let r = eng.add_resource("m", ms(0));
        eng.add_process(scripted("bad", vec![Action::Release(r), Action::Done]));
        let _ = eng.run();
    }

    #[test]
    fn circular_wait_stalls_with_wait_for_graph() {
        // p0: holds A, wants B. p1: holds B, wants A. Classic deadlock:
        // the queue drains with both blocked, and try_run reports the full
        // wait-for graph instead of hanging.
        let mut eng = Engine::new();
        let a = eng.add_resource("marker A", ms(0));
        let b = eng.add_resource("marker B", ms(0));
        eng.add_process(scripted(
            "p0",
            vec![
                Action::Acquire(a),
                Action::Work(ms(10)),
                Action::Acquire(b),
                Action::Done,
            ],
        ));
        eng.add_process(scripted(
            "p1",
            vec![
                Action::Acquire(b),
                Action::Work(ms(10)),
                Action::Acquire(a),
                Action::Done,
            ],
        ));
        let err = eng.try_run().unwrap_err();
        let SimError::Stalled { waiters } = &err else {
            panic!("expected Stalled, got {err:?}");
        };
        assert_eq!(waiters.len(), 2, "{}", waiters.render());
        // p0 waits on B (held by p1); p1 waits on A (held by p0).
        let on_b = waiters.edges.iter().find(|e| e.resource_label == "marker B").unwrap();
        assert_eq!(on_b.proc.index(), 0);
        assert_eq!(on_b.holders, vec![ProcId(1)]);
        let on_a = waiters.edges.iter().find(|e| e.resource_label == "marker A").unwrap();
        assert_eq!(on_a.proc.index(), 1);
        assert_eq!(on_a.holders, vec![ProcId(0)]);
        let rendered = err.to_string();
        assert!(rendered.contains("stalled"), "{rendered}");
        assert!(rendered.contains("marker A"), "{rendered}");
    }

    #[test]
    fn finish_while_holding_starves_waiter_into_stall() {
        // A holder that never releases: the waiter starves, and the stall
        // report names the culprit as the holder.
        let mut eng = Engine::new();
        let m = eng.add_resource("m", ms(0));
        eng.add_process(scripted(
            "hog",
            vec![Action::Acquire(m), Action::Work(ms(5)), Action::Done],
        ));
        eng.add_process(scripted(
            "starved",
            vec![Action::Acquire(m), Action::Done],
        ));
        let err = eng.try_run().unwrap_err();
        let SimError::Stalled { waiters } = err else {
            panic!("expected Stalled");
        };
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters.edges[0].proc_name, "starved");
        assert_eq!(waiters.edges[0].holders, vec![ProcId(0)]);
    }

    #[test]
    fn deadline_cutoff_is_not_a_stall() {
        // Blocked-at-the-bell is a legitimate outcome, not a deadlock.
        let eng = contenders(1, 0, &[("a", 100), ("b", 100)]);
        let trace = eng.try_run_until(SimTime(50)).expect("cutoff is ok");
        assert_eq!(trace.end_time, SimTime(50));
        assert_eq!(trace.procs[1].finished_at, None);
    }

    #[test]
    fn cutoff_charges_blocked_tail_to_waiting() {
        // b has been queued on m since t=0 when the bell rings at 50: the
        // engine must charge the in-progress wait `[0, 50]` to both the
        // process and the resource — and clamp a's in-flight work chunk,
        // so nobody's busy or waiting exceeds the elapsed wall clock.
        let eng = contenders(1, 0, &[("a", 100), ("b", 100)]);
        let trace = eng.try_run_until(SimTime(50)).expect("cutoff is ok");
        assert_eq!(trace.procs[1].waiting, ms(50));
        assert_eq!(trace.resources[0].stats.total_wait, ms(50));
        assert_eq!(trace.total_waiting(), ms(50));
        assert_eq!(trace.procs[0].busy, ms(50));
        for p in &trace.procs {
            assert!(p.busy <= trace.makespan(), "{}: busy > elapsed", p.name);
            assert!(p.waiting <= trace.makespan(), "{}: waiting > elapsed", p.name);
        }
    }

    #[test]
    fn cutoff_clamps_in_transit_handoff() {
        // a releases at 100; b's grant lands at 130 after the 30ms
        // hand-off — but the bell rings at 110, mid-transit. The grant
        // charged b the full 130ms of wait up front; the 20ms of transit
        // past the bell never elapsed and must be refunded everywhere:
        // process waiting, resource total_wait, and the hand-off split.
        let eng = contenders(1, 30, &[("a", 100), ("b", 100)]);
        let trace = eng.try_run_until(SimTime(110)).expect("cutoff is ok");
        assert_eq!(trace.end_time, SimTime(110));
        assert_eq!(trace.procs[1].waiting, ms(110));
        let stats = &trace.resources[0].stats;
        assert_eq!(stats.total_wait, ms(110));
        assert_eq!(stats.handoff_time, ms(10));
        assert_eq!(stats.queue_wait(), ms(100));
        for p in &trace.procs {
            assert!(p.waiting <= trace.makespan(), "{}: waiting > elapsed", p.name);
        }
    }

    #[test]
    fn try_run_matches_run_on_clean_workloads() {
        let build = || contenders(1, 3, &[("a", 20), ("b", 20)]);
        let ok = build().try_run().expect("clean workload");
        let compat = build().run();
        assert_eq!(ok.end_time, compat.end_time);
        assert_eq!(ok.events, compat.events);
    }

    #[test]
    fn resource_pool_grants_up_to_capacity() {
        let trace = contenders(2, 0, &[("a", 100), ("b", 100), ("c", 100)]).run();
        // a and b run together; c waits for one release.
        assert_eq!(trace.end_time, SimTime(200));
        assert_eq!(trace.procs[0].waiting, ms(0));
        assert_eq!(trace.procs[1].waiting, ms(0));
        assert_eq!(trace.procs[2].waiting, ms(100));
        assert_eq!(trace.resources[0].stats.contended_acquisitions, 1);
    }

    #[test]
    fn capacity_equal_to_demand_removes_contention() {
        let four = [("a", 100), ("b", 100), ("c", 100), ("d", 100)];
        let trace = contenders(4, 50, &four).run();
        assert_eq!(trace.end_time, SimTime(100));
        assert_eq!(trace.total_waiting(), ms(0));
        assert_eq!(trace.resources[0].stats.handoffs, 0);
    }

    #[test]
    fn deadline_cuts_off_unfinished_work() {
        let build = |deadline| {
            let mut eng = Engine::new();
            let mut script = vec![Action::Work(ms(100)); 3];
            script.push(Action::Done);
            eng.add_process(scripted("slow", script));
            eng.try_run_until(SimTime(deadline)).expect("cutoff is ok")
        };
        // Bell at 150ms: the first chunk completed, the second is cut off
        // halfway. Busy is clamped to the wall clock — 100ms of finished
        // work plus 50ms of the chunk under way, never more than elapsed.
        let cut = build(150);
        assert_eq!(cut.end_time, SimTime(150));
        assert_eq!(cut.procs[0].finished_at, None);
        assert_eq!(cut.procs[0].busy, ms(150));
        assert_eq!(cut.procs[0].completed_work, 1);
        assert!(cut.procs[0].busy <= cut.makespan());
        // Bell after the end: identical to run().
        let full = build(10_000);
        assert_eq!(full.end_time, SimTime(300));
        assert_eq!(full.procs[0].finished_at, Some(SimTime(300)));
        assert_eq!(full.procs[0].busy, ms(300));
        assert_eq!(full.procs[0].completed_work, 3);
    }

    #[test]
    fn trace_sink_opt_out_keeps_accounting() {
        // With the event sink off the trace has no events but identical
        // accounting — the contract that lets stats-only sweep reps skip
        // event pushes entirely.
        let build = |record: bool| {
            let mut eng = Engine::new();
            let m = eng.add_resource("m", ms(7));
            eng.set_trace_events(record);
            for name in ["a", "b", "c"] {
                let mut script = uses(m, 40);
                script.insert(3, Action::Work(ms(5)));
                eng.add_process(scripted(name, script));
            }
            eng.run()
        };
        let on = build(true);
        let off = build(false);
        assert!(!on.events.is_empty());
        assert!(off.events.is_empty());
        assert_eq!(on.end_time, off.end_time);
        assert_eq!(on.procs, off.procs);
        assert_eq!(on.resources, off.resources);
    }

    #[test]
    fn deterministic_repeat() {
        let build = || {
            let mut eng = Engine::new();
            let m = eng.add_resource("m", ms(7));
            for name in ["a", "b", "c", "d"] {
                let mut script = uses(m, 31);
                script.insert(0, Action::Work(ms(13)));
                script.insert(4, Action::Work(ms(5)));
                eng.add_process(scripted(name, script));
            }
            eng.run()
        };
        let t1 = build();
        let t2 = build();
        assert_eq!(t1.end_time, t2.end_time);
        assert_eq!(t1.events, t2.events);
    }
}
