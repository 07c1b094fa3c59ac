//! Vector-clock happens-before race detection over a `desim` trace.
//!
//! The engine guarantees exactly two orderings: program order within
//! each process, and release-to-acquire synchronization on resources
//! (recovered by [`flagsim_desim::sync_edges`] — the same
//! same-timestamp `Released`/`Acquired` hand-off pairing the causal
//! analyzer uses for blame). Everything else is concurrency the
//! deterministic event queue merely *hides*: ties between simultaneous
//! requests are broken by event insertion order, so a student-authored
//! configuration can look correct on every run while two students'
//! writes to the same cell have no happens-before order at all.
//!
//! This module replays a trace through per-process vector clocks,
//! joining at every synchronization edge, then checks each pair of
//! writes to the same grid cell: unordered writes from different
//! students are **SC301 data races**, reported with both access stacks
//! and the scheduler tie that hid them. Simultaneous acquire requests
//! resolved only by insertion order are surfaced as **SC302** notes —
//! the nondeterminism the paper's scenario 4 is designed to make
//! students feel.
//!
//! The clock pass is one walk over the events on flat arrays: the live
//! clocks in one `n × n` array, and every clock kept for later (request
//! times, releases and, for races, work starts) as an `n`-word row of
//! one buffer. Request groups are one buffer stable-sorted by
//! `(resource, time)`. Every other read is by event index: a grant
//! joins the clock kept at the `Released` its sync edge names, and a
//! write is judged by the clock kept at its own `WorkStart`, so grants
//! and strokes that share an instant (zero-length work) each keep their
//! own order. [`acquire_ties`] is the pass without the race check, for
//! callers that want only the SC302 ties.

use crate::diag::{Diag, Severity};
use flagsim_core::RunReport;
use flagsim_desim::{sync_edges, EventKind, SimTime, Trace};
use flagsim_grid::{CellId, Color};

/// One write to a grid cell, recovered from a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAccess {
    /// Index of the writing student (trace process index).
    pub student: usize,
    /// The student's display name.
    pub name: String,
    /// The cell written.
    pub cell: CellId,
    /// The color painted.
    pub color: Color,
    /// When the coloring stroke started.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
    /// The index of the stroke's `WorkStart` in `trace.events`; an access
    /// whose index names no work start of `student` is not checked.
    pub event: usize,
}

/// Recover every cell write from a finished run: one per
/// [stroke](RunReport::strokes).
pub fn cell_accesses(report: &RunReport) -> Vec<CellAccess> {
    report
        .strokes()
        .map(|s| CellAccess {
            student: s.student,
            name: report.trace.procs[s.student].name.clone(),
            cell: s.item.cell,
            color: s.item.color,
            start: s.start,
            end: s.end,
            event: s.event,
        })
        .collect()
}

/// A group of simultaneous requests for the same resource whose FIFO
/// order was decided only by event-queue insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireTie {
    /// The contested resource's label.
    pub resource: String,
    /// When the simultaneous requests landed.
    pub at: SimTime,
    /// The requesting processes, in insertion (= resolution) order.
    pub procs: Vec<usize>,
}

/// The race detector's result: the races, the ties, and the clocks that
/// proved them.
#[derive(Debug, Clone, Default)]
pub struct HbAnalysis {
    /// Unordered conflicting writes, one entry per (cell, student pair).
    pub races: Vec<Diag>,
    /// The time span each race covers — `race_spans[i]` is the union of
    /// both conflicting strokes behind `races[i]`, `(earliest start,
    /// latest end)`. Lets a timeline view anchor a finding to the
    /// instant it happened without re-parsing the diagnostic text.
    pub race_spans: Vec<(SimTime, SimTime)>,
    /// Acquire-order ties (SC302 notes).
    pub ties: Vec<AcquireTie>,
}

impl HbAnalysis {
    /// All findings as diagnostics: races first, then one note per tie.
    pub fn diags(&self) -> Vec<Diag> {
        let mut out = self.races.clone();
        for t in &self.ties {
            out.push(Diag::new(
                "SC302",
                Severity::Note,
                t.resource.clone(),
                format!(
                    "{} processes requested \"{}\" at t={}ms simultaneously; \
                     FIFO order fell to event-queue insertion order",
                    t.procs.len(),
                    t.resource,
                    t.at.millis()
                ),
            ));
        }
        out
    }
}

fn join(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

fn ordered(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) || b.iter().zip(a).all(|(x, y)| x <= y)
}

/// One acquire request: a `Blocked` event, or an uncontended grant,
/// which doubles as its own request.
#[derive(Debug, Clone, Copy)]
struct Request {
    resource: usize,
    at: SimTime,
    proc: usize,
    /// Where the requester's clock at request time sits in
    /// [`ClockPass::rows`].
    row: usize,
}

/// One pass of per-process vector clocks over a trace: program order
/// plus the release-to-acquire edges of [`sync_edges`]. Every clock is
/// one `n`-word row of a flat buffer, where `n` is the trace's process
/// count: the live clocks in an `n × n` array, every clock the analysis
/// reads later in [`ClockPass::rows`].
struct ClockPass {
    n: usize,
    /// Snapshot clocks, `n` words each: requests, releases and, when
    /// asked for, work starts.
    rows: Vec<u64>,
    /// Acquire requests in event order.
    requests: Vec<Request>,
    /// The row kept at each event, by index into `trace.events`: every
    /// release's and, when the pass was asked to keep them (races need
    /// them, ties do not), every work start's.
    kept: Vec<Option<usize>>,
}

impl ClockPass {
    fn run(trace: &Trace, keep_work_starts: bool) -> ClockPass {
        let n = trace.procs.len();
        let mut pass = ClockPass {
            n,
            rows: Vec::new(),
            requests: Vec::new(),
            kept: vec![None; trace.events.len()],
        };
        // Edges come in the order of their grants, one per grant at most.
        let mut edges = sync_edges(trace).into_iter().peekable();
        let mut vc = vec![0u64; n * n];
        // Pending `Blocked` per process (waits on one resource at a time).
        let mut pending: Vec<Option<usize>> = vec![None; n];

        for (i, e) in trace.events.iter().enumerate() {
            let p = e.proc.index();
            if p >= n {
                continue;
            }
            let clock = p * n..(p + 1) * n;
            vc[p * n + p] += 1;
            match e.kind {
                EventKind::WorkStart { .. } if keep_work_starts => {
                    pass.kept[i] = Some(pass.snapshot(&vc[clock]));
                }
                EventKind::Blocked(r) => {
                    pending[p] = Some(r.index());
                    pass.request(r.index(), e.time, p, &vc[clock]);
                }
                EventKind::Acquired(r) => {
                    let r = r.index();
                    let was_blocked = pending[p].take().is_some_and(|b| b == r);
                    if !was_blocked {
                        // An uncontended grant doubles as the request itself.
                        pass.request(r, e.time, p, &vc[clock.clone()]);
                    }
                    // The edge into this grant joins the clock its
                    // release kept.
                    let edge = edges.next_if(|x| x.acquire_event == i);
                    if let Some(row) = edge.and_then(|x| pass.kept[x.release_event]) {
                        join(&mut vc[clock], pass.row(row));
                    }
                }
                EventKind::Released(_) => pass.kept[i] = Some(pass.snapshot(&vc[clock])),
                EventKind::WorkStart { .. } | EventKind::Finished => {}
            }
        }
        pass
    }

    /// Keep a copy of `clock`; returns its row.
    fn snapshot(&mut self, clock: &[u64]) -> usize {
        let row = self.rows.len();
        self.rows.extend_from_slice(clock);
        row
    }

    fn request(&mut self, resource: usize, at: SimTime, proc: usize, clock: &[u64]) {
        let row = self.snapshot(clock);
        self.requests.push(Request {
            resource,
            at,
            proc,
            row,
        });
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.rows[row..row + self.n]
    }

    /// The acquire-order ties, by resource, then time: groups of >= 2
    /// distinct requesters whose request-time clocks are not all mutually
    /// ordered (a tie between causally ordered requests is no tie at all
    /// — the queue order was forced).
    fn ties(&mut self, trace: &Trace) -> Vec<AcquireTie> {
        // Stable: each group keeps its requests in event order.
        self.requests.sort_by_key(|q| (q.resource, q.at));
        let mut ties = Vec::new();
        for group in self
            .requests
            .chunk_by(|a, b| (a.resource, a.at) == (b.resource, b.at))
        {
            // Requesters, with runs of one process collapsed.
            let runs = 1 + group.windows(2).filter(|w| w[0].proc != w[1].proc).count();
            if runs < 2 {
                continue;
            }
            let unordered_pair = group.iter().enumerate().any(|(i, a)| {
                group[i + 1..]
                    .iter()
                    .any(|b| a.proc != b.proc && !ordered(self.row(a.row), self.row(b.row)))
            });
            if unordered_pair {
                let mut procs: Vec<usize> = group.iter().map(|q| q.proc).collect();
                procs.dedup();
                let (ri, at) = (group[0].resource, group[0].at);
                ties.push(AcquireTie {
                    resource: trace
                        .resources
                        .get(ri)
                        .map_or_else(|| format!("resource {ri}"), |r| r.label.clone()),
                    at,
                    procs,
                });
            }
        }
        ties
    }
}

/// The acquire-order ties of a trace (what SC302 reports) without the
/// race check: the clock pass of [`analyze_hb`], minus its work-start
/// clocks.
pub fn acquire_ties(trace: &Trace) -> Vec<AcquireTie> {
    ClockPass::run(trace, false).ties(trace)
}

/// Run the happens-before analysis: vector clocks over the trace's
/// program order plus its synchronization edges, then a pairwise check
/// of `accesses` for unordered same-cell writes.
pub fn analyze_hb(trace: &Trace, accesses: &[CellAccess]) -> HbAnalysis {
    if trace.procs.is_empty() {
        return HbAnalysis::default();
    }
    let mut pass = ClockPass::run(trace, true);
    let ties = pass.ties(trace);
    // A write's clock is the one kept at its own `WorkStart`.
    let clock = |a: &CellAccess| match trace.events.get(a.event) {
        Some(e) if e.proc.index() == a.student && matches!(e.kind, EventKind::WorkStart { .. }) => {
            pass.kept[a.event].map(|row| pass.row(row))
        }
        _ => None,
    };

    // Races: unordered same-cell writes from different students.
    let mut by_cell: Vec<&CellAccess> = accesses.iter().collect();
    by_cell.sort_by_key(|a| a.cell);
    let mut races = Vec::new();
    let mut race_spans = Vec::new();
    for list in by_cell.chunk_by(|a, b| a.cell == b.cell) {
        let cell = list[0].cell;
        let mut reported: Vec<(usize, usize)> = Vec::new();
        for (i, a) in list.iter().enumerate() {
            for b in &list[i + 1..] {
                if a.student == b.student {
                    continue;
                }
                let pair = (a.student.min(b.student), a.student.max(b.student));
                if reported.contains(&pair) {
                    continue;
                }
                let (Some(ca), Some(cb)) = (clock(a), clock(b)) else {
                    continue;
                };
                if ordered(ca, cb) {
                    continue;
                }
                reported.push(pair);
                let mut d = Diag::new(
                    "SC301",
                    Severity::Error,
                    format!("cell {cell}"),
                    format!(
                        "data race: {} and {} both write cell {cell} with no \
                         happens-before order",
                        a.name, b.name
                    ),
                )
                .with_detail(format!(
                    "{} paints {cell} {} over {}..{}ms",
                    a.name,
                    a.color,
                    a.start.millis(),
                    a.end.millis()
                ))
                .with_detail(format!(
                    "{} paints {cell} {} over {}..{}ms",
                    b.name,
                    b.color,
                    b.start.millis(),
                    b.end.millis()
                ));
                // The tie that hid it: the latest simultaneous-request
                // group involving both students at or before the writes.
                let hid = ties.iter().rfind(|t| {
                    t.at <= a.start.max(b.start)
                        && t.procs.contains(&a.student)
                        && t.procs.contains(&b.student)
                });
                d = match hid {
                    Some(t) => d.with_detail(format!(
                        "hidden by the acquire-order tie on \"{}\" at t={}ms — a \
                         different event insertion order flips which write lands last",
                        t.resource,
                        t.at.millis()
                    )),
                    None => d.with_detail(
                        "no scheduler tie involved — the writes are concurrent under \
                         every event ordering"
                            .to_owned(),
                    ),
                };
                races.push(d);
                race_spans.push((a.start.min(b.start), a.end.max(b.end)));
            }
        }
    }

    HbAnalysis {
        races,
        race_spans,
        ties,
    }
}

/// Convenience: run the full happens-before check on a finished run.
pub fn check_run(report: &RunReport) -> HbAnalysis {
    let accesses = cell_accesses(report);
    analyze_hb(&report.trace, &accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_desim::{Action, Engine, FnProcess, SimDuration};

    fn script(actions: Vec<Action>) -> impl FnMut(SimTime) -> Action {
        let mut queue: std::collections::VecDeque<Action> = actions.into();
        move |_| queue.pop_front().unwrap_or(Action::Done)
    }

    /// One access per `WorkStart` of `trace`, in event order: the `k`-th
    /// writes `cells[k]`.
    fn accesses(trace: &Trace, cells: &[u32]) -> Vec<CellAccess> {
        let starts = trace
            .events
            .iter()
            .enumerate()
            .filter_map(|(event, e)| match e.kind {
                EventKind::WorkStart { dur } => Some((event, e, dur)),
                _ => None,
            });
        starts
            .zip(cells)
            .map(|((event, e, dur), &cell)| CellAccess {
                student: e.proc.index(),
                name: trace.procs[e.proc.index()].name.clone(),
                cell: CellId(cell),
                color: Color::Red,
                start: e.time,
                end: e.time + dur,
                event,
            })
            .collect()
    }

    /// Two painters who each take one of a capacity-2 pool and paint one
    /// stroke.
    fn pool_trace() -> Trace {
        let mut eng = Engine::new();
        let pool = eng.add_resource_pool("red marker", 2, SimDuration::ZERO);
        for name in ["P1", "P2"] {
            eng.add_process(Box::new(FnProcess::new(
                name,
                script(vec![
                    Action::Acquire(pool),
                    Action::Work(SimDuration::from_millis(10)),
                    Action::Release(pool),
                ]),
            )));
        }
        eng.run()
    }

    /// Two painters share a capacity-2 pool (two red markers): their
    /// writes to the same cell are unordered — a race, hidden by the
    /// t=0 acquire tie.
    #[test]
    fn pool_writes_to_same_cell_race() {
        let trace = pool_trace();
        let hb = analyze_hb(&trace, &accesses(&trace, &[0, 0]));
        assert_eq!(hb.races.len(), 1, "{:?}", hb.races);
        assert_eq!(hb.races[0].id, "SC301");
        assert_eq!(hb.race_spans.len(), hb.races.len());
        assert_eq!(hb.race_spans[0], (SimTime(0), SimTime(10)));
        let detail = hb.races[0].detail.join("\n");
        assert!(detail.contains("P1"), "{detail}");
        assert!(detail.contains("acquire-order tie"), "{detail}");
        assert!(!hb.ties.is_empty());
    }

    /// The same two writes through a capacity-1 marker are lock-ordered:
    /// no race, even though the grant order itself was a tie.
    #[test]
    fn mutex_writes_to_same_cell_do_not_race() {
        let mut eng = Engine::new();
        let marker = eng.add_resource("red marker", SimDuration::ZERO);
        for name in ["P1", "P2"] {
            eng.add_process(Box::new(FnProcess::new(
                name,
                script(vec![
                    Action::Acquire(marker),
                    Action::Work(SimDuration::from_millis(10)),
                    Action::Release(marker),
                ]),
            )));
        }
        let trace = eng.run();
        // P2's work starts after the hand-off at t=10.
        let hb = analyze_hb(&trace, &accesses(&trace, &[0, 0]));
        assert!(hb.races.is_empty(), "{:?}", hb.races);
        // The t=0 tie on the marker is still visible as a note.
        assert_eq!(hb.ties.len(), 1);
        assert_eq!(hb.diags().len(), 1);
        assert_eq!(hb.diags()[0].id, "SC302");
    }

    /// Writes to different cells never race.
    #[test]
    fn disjoint_cells_do_not_race() {
        let trace = pool_trace();
        let hb = analyze_hb(&trace, &accesses(&trace, &[0, 1]));
        assert!(hb.races.is_empty());
    }

    /// An access whose event is not a work start of its student has no
    /// clock: it is skipped, whatever its index names.
    #[test]
    fn an_access_naming_no_work_start_of_its_student_is_skipped() {
        let trace = pool_trace();
        let racing = accesses(&trace, &[0, 0]);
        let other_start = racing[0].event;
        let release = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Released(_)))
            .expect("a release");
        for event in [other_start, release, trace.events.len(), usize::MAX] {
            let mut accesses = racing.clone();
            accesses[1].event = event;
            let hb = analyze_hb(&trace, &accesses);
            assert!(hb.races.is_empty(), "event {event}: {:?}", hb.races);
        }
    }

    #[test]
    fn empty_trace_is_clean() {
        let hb = analyze_hb(
            &Trace {
                end_time: SimTime(0),
                procs: vec![],
                resources: vec![],
                events: vec![],
            },
            &[],
        );
        assert!(hb.races.is_empty() && hb.ties.is_empty());
    }
}
