//! Causal trace analysis: segment timelines, hand-off edges, the executed
//! critical path, and contention blame.
//!
//! A [`Trace`] says *what* happened; this module reconstructs *why* the
//! run took as long as it did. Every reading of the event log goes
//! through one **grant walk**, which pairs a process's `Blocked` with its
//! next `Acquired` of that resource and names each grant's releaser: the
//! resource's last `Released`. The engine logs a waiter's `Acquired` at
//! the moment the previous holder's `Released` is processed, so a grant
//! that ends a wait at the instant of the last release is a **hand-off
//! edge** from that holder. This is what turns "Student 3 waited 40
//! ticks for the scissors" into "…behind Student 2". [`sync_edges`]
//! reads the walk directly; everything else reads the one segment model
//! built from it (no engine state required):
//!
//! 1. **Segment timelines** ([`build_timelines`]) — for every process, a
//!    gap-free tiling of `[0, lifetime]`: a [`SegmentKind::Compute`]
//!    segment per `WorkStart`, a [`SegmentKind::Wait`] segment from each
//!    block through the hand-off transit after its grant (waits
//!    unresolved at the end of the trace run to it), and
//!    [`SegmentKind::Idle`] filling the rest (late arrival, `WaitUntil`
//!    pauses, post-finish slack). Each process's compute and wait
//!    segments sum to the engine's `busy` and `waiting`. The trace's own
//!    charts ([`Trace::gantt`], `svg_gantt`, `chrome_trace`) draw these
//!    timelines without their idle segments.
//! 2. **Hand-off edges** — carried by each resolved wait segment.
//! 3. **Executed critical path** — walking backward from the
//!    makespan-defining finish: through compute and idle segments on the
//!    same process, and across hand-off edges to the releasing holder when
//!    a wait segment is reached. The result tiles `[0, makespan]` exactly,
//!    each step classified as compute, contention on a specific resource,
//!    or dependency/idle wait.
//!
//! Beside the path sit the per-resource blame table (blocked time
//! attributed to the holder that caused it) and the infinite-capacity
//! what-if bound (predicted makespan if every resource had unlimited
//! copies).

use crate::engine::ProcId;
use crate::resource::ResourceId;
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventKind, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a process was doing over one segment of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Executing a chunk of work.
    Compute,
    /// Blocked on a resource, from joining the queue through the hand-off
    /// transit that follows the grant.
    Wait {
        /// The contended resource.
        resource: ResourceId,
        /// The holder whose `Released` triggered this grant, and the
        /// release time. `None` for a wait still unresolved when the
        /// trace was cut off (deadline / stall).
        handoff_from: Option<(ProcId, SimTime)>,
    },
    /// Not working and not blocked: late arrival, a timed pause, or
    /// post-finish slack.
    Idle,
}

/// One homogeneous stretch of a process's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The process this segment belongs to.
    pub proc: ProcId,
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// What the process was doing.
    pub kind: SegmentKind,
}

impl Segment {
    /// Segment length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Classification of one step of the executed critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticalKind {
    /// The path ran through real work.
    Compute,
    /// The path ran through a contention wait (queueing and/or hand-off
    /// transit) on this resource.
    Contention(ResourceId),
    /// The path ran through idle time: a dependency or scheduling gap
    /// that no resource copy could have removed.
    Dependency,
}

/// One step of the executed critical path. Steps are contiguous: each
/// step's `start` equals its predecessor's `end`, and together they tile
/// `[0, makespan]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalSegment {
    /// The process the path runs through during this step.
    pub proc: ProcId,
    /// Step start (inclusive).
    pub start: SimTime,
    /// Step end (exclusive).
    pub end: SimTime,
    /// Why this stretch of wall-clock time was unavoidable as executed.
    pub kind: CriticalKind,
}

impl CriticalSegment {
    /// Step length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Blame attributed to one holder of one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HolderBlame {
    /// The process that held the resource while others waited.
    pub holder: ProcId,
    /// Total waiting time its holds inflicted (summed over victims).
    pub wait: SimDuration,
    /// The processes that waited behind this holder (deduplicated).
    pub victims: Vec<ProcId>,
}

/// Per-resource contention blame: waiting time attributed to the specific
/// holder whose hold caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBlame {
    /// The contended resource.
    pub resource: ResourceId,
    /// Total attributed waiting on this resource.
    pub total: SimDuration,
    /// Per-holder breakdown, sorted by inflicted wait (descending).
    pub holders: Vec<HolderBlame>,
}

/// Predicted makespans under counterfactual assumptions, and the
/// decomposition of the gap between ideal and observed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIf {
    /// The observed makespan `T`.
    pub observed: SimDuration,
    /// Predicted makespan with infinite copies of every resource: every
    /// wait segment collapses to zero, so each process finishes
    /// `waiting` earlier; the makespan is the max over processes.
    /// Bounded below by the longest per-process work chain (the span of
    /// the trace-derived task graph) and above by `T`.
    pub no_contention: SimDuration,
    /// Perfect-balance lower bound: total work divided by the number of
    /// processes (rounded up to the millisecond tick).
    pub ideal_balance: SimDuration,
    /// `T - no_contention`: wall-clock time attributable to contention.
    pub contention_cost: SimDuration,
    /// `no_contention - ideal_balance`: time attributable to load
    /// imbalance and dependency/arrival gaps.
    pub imbalance_cost: SimDuration,
}

/// The complete causal analysis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalAnalysis {
    /// Per-process segment timelines, indexed by [`ProcId`]. Each
    /// timeline tiles `[0, lifetime]` with no gaps or overlaps.
    pub timelines: Vec<Vec<Segment>>,
    /// The executed critical path in chronological order.
    pub critical_path: Vec<CriticalSegment>,
    /// Per-resource blame tables, sorted by total attributed wait
    /// (descending); resources that caused no waiting are omitted.
    pub blame: Vec<ResourceBlame>,
    /// Counterfactual bounds and the speedup-gap decomposition.
    pub whatif: WhatIf,
}

impl CausalAnalysis {
    /// Total critical-path time per classification: `(compute,
    /// contention, dependency)`. The three sum to the makespan.
    pub fn critical_split(&self) -> (SimDuration, SimDuration, SimDuration) {
        let mut split = (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
        for seg in &self.critical_path {
            match seg.kind {
                CriticalKind::Compute => split.0 += seg.duration(),
                CriticalKind::Contention(_) => split.1 += seg.duration(),
                CriticalKind::Dependency => split.2 += seg.duration(),
            }
        }
        split
    }

    /// Sum of all blame-table totals. Equals `Trace::total_waiting()`
    /// for any trace whose waits all resolved; a wait still pending at
    /// cutoff is charged to `waiting` by the engine but has no hand-off
    /// edge to pin the time on, so blame excludes it.
    pub fn blame_total(&self) -> SimDuration {
        self.blame
            .iter()
            .fold(SimDuration::ZERO, |acc, b| acc + b.total)
    }
}

/// Analyze a trace: build segment timelines, extract the executed
/// critical path, attribute contention blame, and compute what-if bounds.
pub fn analyze(trace: &Trace) -> CausalAnalysis {
    let timelines = build_timelines(trace);
    let critical_path = walk_critical_path(trace, &timelines);
    let blame = build_blame(&timelines);
    let whatif = whatif_bounds(trace);
    CausalAnalysis {
        timelines,
        critical_path,
        blame,
        whatif,
    }
}

/// One grant of a resource, as the grant walk pairs it.
#[derive(Debug, Clone, Copy)]
struct Grant {
    /// The process granted the resource.
    proc: ProcId,
    /// The resource granted.
    resource: ResourceId,
    /// When the grant was logged.
    at: SimTime,
    /// The index of its `Acquired` in `trace.events`.
    event: usize,
    /// When `proc` blocked for it; `None` for an instant grant.
    blocked_at: Option<SimTime>,
    /// The resource's last `Released` before the grant: who released,
    /// when, and the event's index.
    last_release: Option<(ProcId, SimTime, usize)>,
}

impl Grant {
    /// The releaser of a contended hand-off: the engine logs a waiter's
    /// `Acquired` while it processes the holder's `Released`, so a grant
    /// that ends a wait at the instant of the last release was handed
    /// over by that releaser.
    fn handoff_from(&self) -> Option<(ProcId, SimTime, usize)> {
        self.blocked_at?;
        self.last_release
            .filter(|&(_, released, _)| released == self.at)
    }
}

/// One step of the grant walk, in event order.
enum Step {
    /// A `WorkStart`, as its `Compute` segment.
    Work(Segment),
    /// An `Acquired`, paired with its block and the last release.
    Grant(Grant),
}

/// A process's wait still unresolved where the trace ends: the resource
/// and when it blocked.
type Pending = Option<(ResourceId, SimTime)>;

/// The grant walk: the one reading of a trace that pairs its events.
/// A process's pending `Blocked` pairs with its next `Acquired` of that
/// resource (a process waits on one resource at a time), and a grant's
/// releaser is that resource's last `Released` ([`Grant::handoff_from`]).
/// Events of unknown processes are skipped. Returns each process's wait
/// still unresolved at the end of the trace (deadline cutoff or stall).
fn walk_grants(trace: &Trace, mut visit: impl FnMut(Step)) -> Vec<Pending> {
    let mut last_release = vec![None; trace.resources.len()];
    let mut pending: Vec<Pending> = vec![None; trace.procs.len()];
    for (event, e) in trace.events.iter().enumerate() {
        let Some(waiting) = pending.get_mut(e.proc.index()) else {
            continue;
        };
        match e.kind {
            EventKind::WorkStart { dur } => visit(Step::Work(Segment {
                proc: e.proc,
                start: e.time,
                end: e.time + dur,
                kind: SegmentKind::Compute,
            })),
            EventKind::Blocked(r) => *waiting = Some((r, e.time)),
            EventKind::Acquired(r) => {
                let blocked_at = match *waiting {
                    Some((blocked_on, at)) if blocked_on == r => {
                        *waiting = None;
                        Some(at)
                    }
                    _ => None,
                };
                visit(Step::Grant(Grant {
                    proc: e.proc,
                    resource: r,
                    at: e.time,
                    event,
                    blocked_at,
                    last_release: last_release.get(r.index()).copied().flatten(),
                }));
            }
            EventKind::Released(r) => {
                if let Some(slot) = last_release.get_mut(r.index()) {
                    *slot = Some((e.proc, e.time, event));
                }
            }
            EventKind::Finished => {}
        }
    }
    pending
}

/// Reconstruct per-process segment timelines from the grant walk: a
/// [`SegmentKind::Compute`] segment per `WorkStart`, a
/// [`SegmentKind::Wait`] segment from each block through the hand-off
/// transit that follows its grant, unresolved waits run to the trace
/// end, anything still running at a deadline cut there, and the gaps
/// filled with idle.
///
/// The engine's event semantics make this exact: `WorkStart { dur }` is
/// logged when the chunk begins (compute occupies `[t, t + dur)`); a
/// contended grant logs the waiter's `Acquired` at the *release* time and
/// schedules the waiter `handoff` later, charging
/// `acquired + handoff - blocked` as waiting — so a wait segment spans
/// `[blocked, acquired + handoff)` and its length equals the engine's
/// accounting to the millisecond. An instant (uncontended) grant logs
/// `Acquired` with no preceding `Blocked` and contributes no segment.
pub fn build_timelines(trace: &Trace) -> Vec<Vec<Segment>> {
    let mut rows: Vec<Vec<Segment>> = vec![Vec::new(); trace.procs.len()];
    let pending = walk_grants(trace, |step| {
        let mut seg = match step {
            Step::Work(seg) => seg,
            Step::Grant(g) => {
                let Some(blocked_at) = g.blocked_at else {
                    return;
                };
                let handoff = trace
                    .resources
                    .get(g.resource.index())
                    .map_or(SimDuration::ZERO, |res| res.handoff);
                Segment {
                    proc: g.proc,
                    start: blocked_at,
                    end: g.at + handoff,
                    kind: SegmentKind::Wait {
                        resource: g.resource,
                        handoff_from: g.handoff_from().map(|(from, at, _)| (from, at)),
                    },
                }
            }
        };
        // A chunk still running or a hand-off still in transit at the
        // bell is cut at the trace end, matching the engine's cutoff
        // settlement of `busy` and `waiting`.
        seg.end = seg.end.min(trace.end_time);
        rows[seg.proc.index()].push(seg);
    });

    // Waits never resolved (deadline cutoff / stall) run to the trace
    // end. The engine charges that blocked tail to `waiting` on cutoff,
    // so these segments mirror its accounting — but there is no hand-off
    // edge to pin the time on, so blame excludes them
    // (`handoff_from: None`).
    for (pi, pending) in pending.iter().enumerate() {
        if let Some((r, blocked_at)) = *pending {
            if blocked_at < trace.end_time {
                rows[pi].push(Segment {
                    proc: ProcId(pi as u32),
                    start: blocked_at,
                    end: trace.end_time,
                    kind: SegmentKind::Wait {
                        resource: r,
                        handoff_from: None,
                    },
                });
            }
        }
    }

    // Fill gaps with idle so every timeline tiles [0, lifetime].
    rows.iter_mut()
        .enumerate()
        .map(|(pi, segs)| {
            segs.sort_by_key(|s| (s.start, s.end));
            let proc = ProcId(pi as u32);
            let lifetime_end = trace
                .procs
                .get(pi)
                .and_then(|p| p.finished_at)
                .unwrap_or(trace.end_time);
            let mut out = Vec::with_capacity(segs.len() * 2 + 1);
            let mut cursor = SimTime::ZERO;
            for seg in segs.iter() {
                if seg.start > cursor {
                    out.push(Segment {
                        proc,
                        start: cursor,
                        end: seg.start,
                        kind: SegmentKind::Idle,
                    });
                }
                if seg.end > seg.start {
                    out.push(*seg);
                }
                if seg.end > cursor {
                    cursor = seg.end;
                }
            }
            if cursor < lifetime_end {
                out.push(Segment {
                    proc,
                    start: cursor,
                    end: lifetime_end,
                    kind: SegmentKind::Idle,
                });
            }
            out
        })
        .collect()
}

/// One synchronization edge recovered from the event log: the `to`
/// process's `Acquired` happens-after the `from` process's `Released` on
/// the same resource. Each edge names both events by their index in
/// `trace.events`, so a reader joins them without matching on times.
///
/// Two flavours:
///
/// * **Contended hand-off** (`contended: true`) — the engine logs a
///   waiter's `Acquired` at the instant the holder's `Released` is
///   processed, so the same-timestamp pairing (the one
///   [`build_timelines`] uses for blame) identifies the exact releaser.
/// * **Uncontended re-acquire** (`contended: false`) — the resource sat
///   free between the release and the grant. Only emitted for
///   capacity-1 resources: with one copy, whoever acquires next is
///   ordered after the previous release (mutex semantics). For pools
///   with several interchangeable copies the engine does not track which
///   copy a grant hands over, so no edge is claimed — under-approximating
///   the happens-before order rather than inventing edges that would
///   hide races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEdge {
    /// The resource the edge travels through.
    pub resource: ResourceId,
    /// The releasing process.
    pub from: ProcId,
    /// When `from` released.
    pub released_at: SimTime,
    /// The acquiring process.
    pub to: ProcId,
    /// When `to`'s grant was logged.
    pub acquired_at: SimTime,
    /// True for a same-timestamp hand-off to a blocked waiter.
    pub contended: bool,
    /// The index of `from`'s `Released` in `trace.events`.
    pub release_event: usize,
    /// The index of `to`'s `Acquired` in `trace.events`; edges come in
    /// this order, one per grant at most.
    pub acquire_event: usize,
}

/// Extract every synchronization edge from a trace, in event-log order.
///
/// This is the happens-before substrate race detectors build vector
/// clocks on: program order within each process plus these cross-process
/// edges is the full ordering the simulation guarantees.
pub fn sync_edges(trace: &Trace) -> Vec<SyncEdge> {
    let mut out = Vec::new();
    walk_grants(trace, |step| {
        let Step::Grant(g) = step else {
            return;
        };
        let contended = g.blocked_at.is_some();
        let from = if contended {
            g.handoff_from()
        } else if trace.resources.get(g.resource.index()).map_or(1, |res| res.capacity) == 1 {
            g.last_release
        } else {
            None
        };
        out.extend(from.map(|(from, released_at, release_event)| SyncEdge {
            resource: g.resource,
            from,
            released_at,
            to: g.proc,
            acquired_at: g.at,
            contended,
            release_event,
            acquire_event: g.event,
        }));
    });
    out
}

/// Walk backward from the makespan-defining finish, producing the
/// executed critical path in chronological order.
fn walk_critical_path(trace: &Trace, timelines: &[Vec<Segment>]) -> Vec<CriticalSegment> {
    // Start at the process whose timeline reaches furthest; prefer the
    // lowest index among ties for determinism.
    let start = timelines
        .iter()
        .enumerate()
        .filter_map(|(pi, segs)| segs.last().map(|s| (pi, s.end)))
        .max_by_key(|&(pi, end)| (end, std::cmp::Reverse(pi)));
    let (mut pi, _) = match start {
        Some(s) => s,
        None => return Vec::new(),
    };
    let mut t = trace.end_time;
    let mut path: Vec<CriticalSegment> = Vec::new();
    // Safety valve: every iteration either lowers `t` or follows one of
    // finitely many hand-off edges, so this bound is never reached on a
    // well-formed trace.
    let mut fuel = trace.events.len() * 4 + timelines.len() + 16;

    while t > SimTime::ZERO {
        if fuel == 0 {
            break;
        }
        fuel -= 1;
        let segs = match timelines.get(pi) {
            Some(s) => s,
            None => break,
        };
        let covering = segs.iter().rev().find(|s| s.start < t && t <= s.end);
        match covering {
            None => {
                // `t` lies beyond this process's last segment (e.g. the
                // path jumped here from a later release): bridge with a
                // dependency gap down to the timeline's end, or to zero
                // for an empty timeline.
                let prev_end = segs
                    .iter()
                    .rev()
                    .find(|s| s.end <= t)
                    .map(|s| s.end)
                    .unwrap_or(SimTime::ZERO);
                path.push(CriticalSegment {
                    proc: ProcId(pi as u32),
                    start: prev_end,
                    end: t,
                    kind: CriticalKind::Dependency,
                });
                t = prev_end;
            }
            Some(seg) => match seg.kind {
                SegmentKind::Compute => {
                    path.push(CriticalSegment {
                        proc: seg.proc,
                        start: seg.start,
                        end: t,
                        kind: CriticalKind::Compute,
                    });
                    t = seg.start;
                }
                SegmentKind::Idle => {
                    path.push(CriticalSegment {
                        proc: seg.proc,
                        start: seg.start,
                        end: t,
                        kind: CriticalKind::Dependency,
                    });
                    t = seg.start;
                }
                SegmentKind::Wait {
                    resource,
                    handoff_from,
                } => match handoff_from {
                    Some((holder, released_at)) if released_at <= t => {
                        // The transit portion [released_at, t) belongs to
                        // this wait; before the release, the clock was
                        // running on the holder's timeline.
                        if t > released_at {
                            path.push(CriticalSegment {
                                proc: seg.proc,
                                start: released_at,
                                end: t,
                                kind: CriticalKind::Contention(resource),
                            });
                        }
                        pi = holder.index();
                        t = released_at;
                    }
                    _ => {
                        // Unresolved wait (cutoff) — no edge to follow;
                        // charge the whole stretch to contention.
                        path.push(CriticalSegment {
                            proc: seg.proc,
                            start: seg.start,
                            end: t,
                            kind: CriticalKind::Contention(resource),
                        });
                        t = seg.start;
                    }
                },
            },
        }
    }

    path.reverse();
    merge_adjacent(path)
}

/// Merge chronologically adjacent path steps with the same process and
/// classification (purely cosmetic; preserves the tiling invariants).
fn merge_adjacent(path: Vec<CriticalSegment>) -> Vec<CriticalSegment> {
    let mut out: Vec<CriticalSegment> = Vec::with_capacity(path.len());
    for seg in path {
        match out.last_mut() {
            Some(last) if last.proc == seg.proc && last.kind == seg.kind && last.end == seg.start => {
                last.end = seg.end;
            }
            _ => out.push(seg),
        }
    }
    out
}

/// Build per-resource blame tables from resolved wait segments.
fn build_blame(timelines: &[Vec<Segment>]) -> Vec<ResourceBlame> {
    // resource -> holder -> (wait, victims)
    let mut acc: BTreeMap<usize, BTreeMap<u32, (SimDuration, Vec<ProcId>)>> = BTreeMap::new();
    for segs in timelines {
        for seg in segs {
            if let SegmentKind::Wait {
                resource,
                handoff_from: Some((holder, _)),
            } = seg.kind
            {
                let entry = acc
                    .entry(resource.index())
                    .or_default()
                    .entry(holder.index() as u32)
                    .or_insert((SimDuration::ZERO, Vec::new()));
                entry.0 += seg.duration();
                if !entry.1.contains(&seg.proc) {
                    entry.1.push(seg.proc);
                }
            }
        }
    }
    let mut blame: Vec<ResourceBlame> = acc
        .into_iter()
        .map(|(ri, holders)| {
            let mut hs: Vec<HolderBlame> = holders
                .into_iter()
                .map(|(h, (wait, mut victims))| {
                    victims.sort_by_key(|p| p.index());
                    HolderBlame {
                        holder: ProcId(h),
                        wait,
                        victims,
                    }
                })
                .collect();
            hs.sort_by_key(|h| (std::cmp::Reverse(h.wait), h.holder.index()));
            let total = hs
                .iter()
                .fold(SimDuration::ZERO, |a, h| a + h.wait);
            ResourceBlame {
                resource: ResourceId(ri as u32),
                total,
                holders: hs,
            }
        })
        .collect();
    blame.sort_by_key(|b| (std::cmp::Reverse(b.total), b.resource.index()));
    blame
}

/// Compute what-if bounds from the per-process accounting.
fn whatif_bounds(trace: &Trace) -> WhatIf {
    let observed = trace.makespan();
    // With infinite copies every wait collapses: each process finishes
    // `waiting` earlier, arrival staggering and work untouched.
    let no_contention = trace
        .procs
        .iter()
        .map(|p| {
            let finish = p.finished_at.unwrap_or(trace.end_time);
            SimDuration(
                (finish - SimTime::ZERO)
                    .millis()
                    .saturating_sub(p.waiting.millis()),
            )
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    let nprocs = trace.procs.len().max(1) as u64;
    let total_work = trace.total_busy().millis();
    let ideal_balance = SimDuration(total_work.div_ceil(nprocs));
    WhatIf {
        observed,
        no_contention,
        ideal_balance,
        contention_cost: SimDuration(observed.millis().saturating_sub(no_contention.millis())),
        imbalance_cost: SimDuration(
            no_contention.millis().saturating_sub(ideal_balance.millis()),
        ),
    }
}

/// ANSI escape prefix for critical-path highlighting.
const ANSI_CRIT: &str = "\x1b[1;31m";
/// ANSI reset.
const ANSI_RESET: &str = "\x1b[0m";

/// The Gantt charts' interval model: per-process busy, waiting and
/// critical-path intervals, ready to render at any instant. Each cell
/// shows the dominant state in its bucket (`#` busy, `~` waiting, `.`
/// idle); cells whose bucket lies mostly on the critical path are
/// upper-cased (`#`→`X`, `~`→`W`, `.`→`o`). [`critical_gantt`] draws a
/// [`CausalAnalysis`] whole with ANSI color; `flagsim watch` draws it as
/// plain text scrubbed to an instant; [`Trace::gantt`] draws it with no
/// critical path.
#[derive(Debug, Clone)]
pub struct GanttModel {
    names: Vec<String>,
    busy: Vec<Vec<(u64, u64)>>,
    wait: Vec<Vec<(u64, u64)>>,
    crit: Vec<Vec<(u64, u64)>>,
    end_ms: u64,
    name_w: usize,
}

fn overlap(ivs: &[(u64, u64)], t0: u64, t1: u64) -> u64 {
    ivs.iter()
        .map(|&(a, b)| b.min(t1).saturating_sub(a.max(t0)))
        .sum()
}

impl GanttModel {
    /// Build the interval model from a trace and its causal analysis.
    pub fn new(trace: &Trace, analysis: &CausalAnalysis) -> GanttModel {
        GanttModel::from_segments(trace, &analysis.timelines, &analysis.critical_path)
    }

    /// Build the interval model from per-process segments and a critical
    /// path (empty for a chart without one).
    pub(crate) fn from_segments(
        trace: &Trace,
        timelines: &[Vec<Segment>],
        critical_path: &[CriticalSegment],
    ) -> GanttModel {
        let nprocs = trace.procs.len();
        let mut busy = vec![Vec::new(); nprocs];
        let mut wait = vec![Vec::new(); nprocs];
        for (pi, segs) in timelines.iter().enumerate().take(nprocs) {
            for s in segs {
                let iv = (s.start.millis(), s.end.millis());
                match s.kind {
                    SegmentKind::Compute => busy[pi].push(iv),
                    SegmentKind::Wait { .. } => wait[pi].push(iv),
                    SegmentKind::Idle => {}
                }
            }
        }
        let mut crit = vec![Vec::new(); nprocs];
        for seg in critical_path {
            if let Some(ivs) = crit.get_mut(seg.proc.index()) {
                ivs.push((seg.start.millis(), seg.end.millis()));
            }
        }
        let names: Vec<String> = trace.procs.iter().map(|p| p.name.clone()).collect();
        let name_w = names.iter().map(|n| n.len()).max().unwrap_or(4).max(4);
        GanttModel {
            names,
            busy,
            wait,
            crit,
            end_ms: trace.end_time.millis(),
            name_w,
        }
    }

    /// Number of process rows.
    pub fn rows(&self) -> usize {
        self.names.len()
    }

    /// Width of the right-aligned row labels (at least 4).
    pub fn label_width(&self) -> usize {
        self.name_w
    }

    /// One line per process, `width` buckets wide, showing only what has
    /// happened by `t_ms`: buckets past it stay blank, and a bucket it
    /// bisects is rendered from its elapsed part only, so play-forward
    /// never shows the future. Each run of critical-path cells is wrapped
    /// in `open`/`close`.
    fn rows_at(&self, width: usize, t_ms: u64, open: &str, close: &str) -> String {
        let total = self.end_ms.max(1);
        let name_w = self.name_w;
        let mut out = String::new();
        for (pi, name) in self.names.iter().enumerate() {
            let _ = write!(out, "{name:>name_w$} |");
            let mut in_crit = false;
            for i in 0..width {
                let t0 = total * i as u64 / width as u64;
                let t1 = (total * (i + 1) as u64 / width as u64).max(t0 + 1);
                if t0 >= t_ms {
                    out.push(' ');
                    continue;
                }
                let t1 = t1.min(t_ms);
                let b = overlap(&self.busy[pi], t0, t1);
                let w = overlap(&self.wait[pi], t0, t1);
                let on_path = overlap(&self.crit[pi], t0, t1) * 2 >= t1 - t0;
                if on_path != in_crit {
                    out.push_str(if on_path { open } else { close });
                    in_crit = on_path;
                }
                let base = if b == 0 && w == 0 {
                    '.'
                } else if b >= w {
                    '#'
                } else {
                    '~'
                };
                out.push(if on_path {
                    match base {
                        '#' => 'X',
                        '~' => 'W',
                        _ => 'o',
                    }
                } else {
                    base
                });
            }
            if in_crit {
                out.push_str(close);
            }
            out.push_str("|\n");
        }
        out
    }

    /// Render the chart `width` buckets wide as plain text, showing only
    /// what has happened by `t_ms`; the axis row marks the bucket
    /// containing `t_ms` with `^`.
    pub fn render_at(&self, width: usize, t_ms: u64) -> String {
        let width = width.max(1);
        let total = self.end_ms.max(1);
        let mut out = self.rows_at(width, t_ms, "", "");
        let cursor = ((t_ms.min(total)) * width as u64 / total).min(width as u64 - 1) as usize;
        let axis: String = (0..width).map(|i| if i == cursor { '^' } else { '-' }).collect();
        let _ = writeln!(out, "{:>w$} |{axis}|", "", w = self.name_w);
        out
    }

    /// Render the whole run `width` buckets wide, each run of
    /// critical-path cells wrapped in `open`/`close`, above an axis row
    /// that ends with the run's end time and `legend`.
    pub(crate) fn render_whole(&self, width: usize, open: &str, close: &str, legend: &str) -> String {
        // A degenerate width clamps to a one-column chart rather than
        // dividing by zero.
        let width = width.max(1);
        let mut out = self.rows_at(width, u64::MAX, open, close);
        let _ = writeln!(
            out,
            "{:>w$} |{}| {}{legend}",
            "",
            "-".repeat(width),
            SimTime(self.end_ms),
            w = self.name_w,
        );
        out
    }
}

/// Render the per-process Gantt chart of [`GanttModel`] for the whole
/// run, with the executed critical path in bold red as well as
/// upper-cased, so the path survives `strip-ansi` round trips and the
/// string stays deterministic.
pub fn critical_gantt(trace: &Trace, analysis: &CausalAnalysis, width: usize) -> String {
    GanttModel::new(trace, analysis).render_whole(
        width,
        ANSI_CRIT,
        ANSI_RESET,
        &format!("  ({ANSI_CRIT}critical path{ANSI_RESET} in X/W/o)"),
    )
}

/// Render the blame table as aligned text: one block per contended
/// resource, one row per holder with the waiting it inflicted and the
/// victims that waited behind it.
pub fn blame_table_text(trace: &Trace, analysis: &CausalAnalysis) -> String {
    if analysis.blame.is_empty() {
        return "no contention: nobody waited on any resource\n".to_owned();
    }
    let pname = |p: ProcId| {
        trace
            .procs
            .get(p.index())
            .map(|pr| pr.name.as_str())
            .unwrap_or("?")
            .to_owned()
    };
    let mut out = String::new();
    for b in &analysis.blame {
        let label = trace
            .resources
            .get(b.resource.index())
            .map(|r| r.label.as_str())
            .unwrap_or("?");
        let _ = writeln!(out, "{label}: {} total wait", b.total);
        for h in &b.holders {
            let victims: Vec<String> = h.victims.iter().map(|&v| pname(v)).collect();
            let _ = writeln!(
                out,
                "  held by {:<16} cost {:>8}  (waiting: {})",
                pname(h.holder),
                h.wait.to_string(),
                victims.join(", ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Action, Engine, FnProcess};
    use crate::trace::{ProcReport, ResourceReport, TraceEvent};

    /// Two workers contending for one marker with hand-off latency:
    /// worker B blocks while A holds it.
    fn contended_trace() -> Trace {
        let mut eng = Engine::new();
        let marker = eng.add_resource("marker", SimDuration::from_millis(5));
        for name in ["A", "B"] {
            let mut step = 0;
            eng.add_process(Box::new(FnProcess::new(name, move |_| {
                step += 1;
                match step {
                    1 => Action::Acquire(marker),
                    2 => Action::Work(SimDuration::from_millis(40)),
                    3 => Action::Release(marker),
                    _ => Action::Done,
                }
            })));
        }
        eng.run()
    }

    #[test]
    fn timelines_tile_without_gaps_and_match_accounting() {
        let trace = contended_trace();
        let tl = build_timelines(&trace);
        for (pi, segs) in tl.iter().enumerate() {
            let mut cursor = SimTime::ZERO;
            let mut busy = SimDuration::ZERO;
            let mut waiting = SimDuration::ZERO;
            for s in segs {
                assert_eq!(s.start, cursor, "gap in proc {pi}");
                assert!(s.end > s.start);
                match s.kind {
                    SegmentKind::Compute => busy += s.duration(),
                    SegmentKind::Wait { .. } => waiting += s.duration(),
                    SegmentKind::Idle => {}
                }
                cursor = s.end;
            }
            assert_eq!(busy, trace.procs[pi].busy, "busy mismatch proc {pi}");
            assert_eq!(waiting, trace.procs[pi].waiting, "wait mismatch proc {pi}");
        }
    }

    #[test]
    fn handoff_edge_names_the_releasing_holder() {
        let trace = contended_trace();
        let tl = build_timelines(&trace);
        // Exactly one wait segment exists, on the second-granted worker,
        // and it points at the first-granted worker.
        let waits: Vec<&Segment> = tl
            .iter()
            .flatten()
            .filter(|s| matches!(s.kind, SegmentKind::Wait { .. }))
            .collect();
        assert_eq!(waits.len(), 1);
        if let SegmentKind::Wait {
            handoff_from: Some((holder, released_at)),
            ..
        } = waits[0].kind
        {
            assert_ne!(holder, waits[0].proc);
            // Transit = released_at .. released_at + 5ms.
            assert_eq!(waits[0].end, released_at + SimDuration::from_millis(5));
        } else {
            unreachable!("wait must carry a hand-off edge: {:?}", waits[0]);
        }
    }

    #[test]
    fn sync_edges_pair_contended_handoffs() {
        let trace = contended_trace();
        let edges = sync_edges(&trace);
        // B's grant is a contended hand-off from A at A's release time;
        // no other cross-process order exists.
        let contended: Vec<&SyncEdge> = edges.iter().filter(|e| e.contended).collect();
        assert_eq!(contended.len(), 1, "{edges:?}");
        let e = contended[0];
        assert_ne!(e.from, e.to);
        assert_eq!(e.released_at, e.acquired_at);
    }

    #[test]
    fn sync_edges_order_uncontended_mutex_reuse_but_not_pools() {
        // One capacity-1 resource reused without overlap -> an
        // uncontended edge; one capacity-2 pool grabbed by both at once
        // -> no edge (copy identity unknown).
        let mut eng = Engine::new();
        let mutex = eng.add_resource("mutex", SimDuration::ZERO);
        let pool = eng.add_resource_pool("pool", 2, SimDuration::ZERO);
        for (name, delay) in [("first", 0u64), ("second", 100)] {
            let mut step = 0;
            eng.add_process(Box::new(FnProcess::new(name, move |now| {
                step += 1;
                match step {
                    1 if delay > 0 && now < SimTime(delay) => {
                        step = 0;
                        Action::WaitUntil(SimTime(delay))
                    }
                    1 => Action::Acquire(pool),
                    2 => Action::Acquire(mutex),
                    3 => Action::Work(SimDuration::from_millis(10)),
                    4 => Action::Release(mutex),
                    5 => Action::Release(pool),
                    _ => Action::Done,
                }
            })));
        }
        let trace = eng.run();
        let edges = sync_edges(&trace);
        assert!(
            edges.iter().all(|e| e.resource == mutex),
            "pool grants must not claim order: {edges:?}"
        );
        // `second` starts at t=100, well after `first` released at t=10:
        // an uncontended mutex edge first -> second.
        assert!(
            edges.iter().any(|e| !e.contended && e.from != e.to),
            "expected an uncontended mutex edge: {edges:?}"
        );
    }

    #[test]
    fn critical_path_tiles_makespan_and_is_connected() {
        let trace = contended_trace();
        let a = analyze(&trace);
        let total: SimDuration = a
            .critical_path
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration());
        assert_eq!(total, trace.makespan());
        assert_eq!(a.critical_path.first().map(|s| s.start), Some(SimTime::ZERO));
        assert_eq!(a.critical_path.last().map(|s| s.end), Some(trace.end_time));
        for pair in a.critical_path.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // The path crosses the contended marker: one contention step.
        assert!(a
            .critical_path
            .iter()
            .any(|s| matches!(s.kind, CriticalKind::Contention(_))));
    }

    #[test]
    fn blame_totals_equal_trace_waiting() {
        let trace = contended_trace();
        let a = analyze(&trace);
        assert_eq!(a.blame_total(), trace.total_waiting());
        assert_eq!(a.blame.len(), 1);
        assert_eq!(a.blame[0].holders.len(), 1);
        assert_eq!(a.blame[0].holders[0].victims.len(), 1);
    }

    #[test]
    fn whatif_bounds_sandwich_the_observed_makespan() {
        let trace = contended_trace();
        let a = analyze(&trace);
        let w = a.whatif;
        assert!(w.no_contention <= w.observed);
        assert!(w.ideal_balance <= w.no_contention);
        assert_eq!(
            w.observed.millis(),
            w.ideal_balance.millis() + w.imbalance_cost.millis() + w.contention_cost.millis()
        );
        // Removing contention removes the wait + hand-off entirely here.
        assert_eq!(w.no_contention, SimDuration::from_millis(40));
    }

    #[test]
    fn uncontended_run_has_empty_blame_and_zero_contention_cost() {
        let mut eng = Engine::new();
        for name in ["A", "B"] {
            let mut step = 0;
            eng.add_process(Box::new(FnProcess::new(name, move |_| {
                step += 1;
                match step {
                    1 => Action::Work(SimDuration::from_millis(30)),
                    _ => Action::Done,
                }
            })));
        }
        let trace = eng.run();
        let a = analyze(&trace);
        assert!(a.blame.is_empty());
        assert_eq!(a.whatif.contention_cost, SimDuration::ZERO);
        let (compute, contention, _dep) = a.critical_split();
        assert_eq!(compute, SimDuration::from_millis(30));
        assert_eq!(contention, SimDuration::ZERO);
    }

    #[test]
    fn critical_split_sums_to_makespan() {
        let trace = contended_trace();
        let a = analyze(&trace);
        let (c, w, d) = a.critical_split();
        assert_eq!(c + w + d, trace.makespan());
    }

    #[test]
    fn critical_gantt_highlights_with_distinct_glyphs() {
        let trace = contended_trace();
        let a = analyze(&trace);
        let g = critical_gantt(&trace, &a, 40);
        assert!(g.contains('X'), "critical compute cells: {g}");
        assert!(g.contains("\x1b[1;31m"), "ANSI highlight present");
        assert!(g.contains("\x1b[0m"), "ANSI reset present");
        // Stripping ANSI still leaves the path visible.
        let stripped: String = {
            let mut s = g.clone();
            for code in ["\x1b[1;31m", "\x1b[0m"] {
                s = s.replace(code, "");
            }
            s
        };
        assert!(stripped.contains('X'));
    }

    #[test]
    fn gantt_model_full_scrub_matches_trace_states_and_has_no_ansi() {
        let trace = contended_trace();
        let model = GanttModel::new(&trace, &analyze(&trace));
        let g = model.render_at(40, trace.end_time.millis());
        assert!(!g.contains('\x1b'), "frames must be escape-free: {g:?}");
        assert!(g.contains('X'), "critical compute visible: {g}");
        assert!(g.contains('~') || g.contains('W'), "waiting visible: {g}");
        assert_eq!(g.lines().count(), 3, "{g}");
        assert!(g.lines().last().unwrap().contains('^'));
    }

    #[test]
    fn gantt_model_scrubbed_to_zero_is_blank() {
        let trace = contended_trace();
        let model = GanttModel::new(&trace, &analyze(&trace));
        let g = model.render_at(40, 0);
        for line in g.lines().take(model.rows()) {
            let body: String = line.chars().skip_while(|&c| c != '|').collect();
            assert!(
                body.chars().all(|c| c == '|' || c == ' '),
                "nothing drawn at t=0: {line:?}"
            );
        }
    }

    #[test]
    fn gantt_model_play_forward_reveals_monotonically() {
        let trace = contended_trace();
        let model = GanttModel::new(&trace, &analyze(&trace));
        let end = trace.end_time.millis();
        let drawn = |g: &str| {
            g.lines()
                .take(model.rows())
                .map(|l| l.chars().filter(|c| "#~.XWo".contains(*c)).count())
                .sum::<usize>()
        };
        let mut last = 0;
        for i in 0..=8 {
            let n = drawn(&model.render_at(40, end * i / 8));
            assert!(n >= last, "chart un-drew between steps");
            last = n;
        }
        assert!(last > 0);
    }
    #[test]
    fn blame_table_text_names_holder_and_victim() {
        let trace = contended_trace();
        let a = analyze(&trace);
        let t = blame_table_text(&trace, &a);
        assert!(t.contains("marker:"), "{t}");
        assert!(t.contains("held by"), "{t}");
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let trace = Trace {
            end_time: SimTime::ZERO,
            procs: vec![],
            resources: vec![],
            events: vec![],
        };
        let a = analyze(&trace);
        assert!(a.critical_path.is_empty());
        assert!(a.blame.is_empty());
        assert_eq!(a.whatif.observed, SimDuration::ZERO);
    }

    #[test]
    fn unresolved_wait_is_excluded_from_blame() {
        // Hand-built cutoff trace: P0 blocked at 50, never granted. The
        // engine charges the blocked tail `[50, 100]` to waiting, but
        // with no hand-off edge to pin it on, blame must stay empty
        // while the critical path still classifies the trailing stretch.
        let trace = Trace {
            end_time: SimTime(100),
            procs: vec![ProcReport {
                name: "P0".into(),
                busy: SimDuration(50),
                waiting: SimDuration(50),
                completed_work: 1,
                finished_at: None,
            }],
            resources: vec![ResourceReport {
                label: "marker".into(),
                capacity: 1,
                handoff: SimDuration::ZERO,
                stats: Default::default(),
            }],
            events: vec![
                TraceEvent {
                    time: SimTime(0),
                    proc: ProcId(0),
                    kind: EventKind::WorkStart {
                        dur: SimDuration(50),
                    },
                },
                TraceEvent {
                    time: SimTime(50),
                    proc: ProcId(0),
                    kind: EventKind::Blocked(ResourceId(0)),
                },
            ],
        };
        let a = analyze(&trace);
        // The engine charged the tail to waiting, but no holder can be
        // blamed for it: blame stays empty, strictly below total waiting.
        assert!(a.blame.is_empty());
        assert_eq!(a.blame_total(), SimDuration::ZERO);
        assert_eq!(trace.total_waiting(), SimDuration(50));
        let total: SimDuration = a
            .critical_path
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration());
        assert_eq!(total, trace.makespan());
        assert!(a
            .critical_path
            .iter()
            .any(|s| matches!(s.kind, CriticalKind::Contention(_))));
    }
}
