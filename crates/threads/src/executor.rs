//! Real-thread flag coloring.
//!
//! Workers run inside `catch_unwind`, so one panicking thread downs only
//! itself: its strokes are discarded, its panic message lands in
//! [`Outcome::worker_faults`], and the survivors keep coloring. The
//! per-color marker mutexes recover from poisoning, so a worker that dies
//! while holding a marker does not wedge the rest of the team — the
//! threaded analogue of the classroom's "pick up the dropped marker and
//! keep going".

use crate::workload::CellWorkload;
use flagsim_core::work::{PreparedFlag, WorkItem};
use flagsim_grid::{Color, Grid};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-worker result: painted strokes, busy time, work checksum.
type WorkerResult = (Vec<(u32, Color)>, Duration, u64);

/// A worker thread that died mid-run (panicked), with the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Worker index (position in the assignment list / spawn order).
    pub worker: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// Deterministic fault injection: down one worker after it colors a set
/// number of cells. `(worker, after_cells)`; `after_cells == 0` downs the
/// worker before it touches any work.
type Injection = Option<(usize, usize)>;

fn trip_injected(inject: Injection, worker: usize, done: usize) {
    if let Some((fw, after)) = inject {
        if fw == worker && done >= after {
            // lint-gate: allow — the panic IS the injected fault; it is
            // caught by catch_unwind and surfaced as a WorkerFault.
            panic!("injected fault: worker {worker} downed after {done} cells"); // lint-gate: allow
        }
    }
}

/// Telemetry name for a mode (static so the disabled path is free).
fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Sequential => "sequential",
        ExecMode::Static => "static",
        ExecMode::SharedImplements => "shared-implements",
        ExecMode::DynamicChunks { .. } => "dynamic-chunks",
    }
}

/// Open the per-worker telemetry scope: label the thread's trace track
/// and start a `"runtime"` span linked to the executor's run span.
fn worker_telemetry(
    w: usize,
    run_id: Option<flagsim_telemetry::SpanId>,
) -> flagsim_telemetry::SpanGuard {
    if flagsim_telemetry::enabled() {
        flagsim_telemetry::set_thread_track(&format!("threads-worker-{w}"));
    }
    flagsim_telemetry::span_linked("runtime", "threads.worker", run_id).arg("worker", w)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_owned()
    }
}

/// How the work is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread does everything (the baseline `T₁`).
    Sequential,
    /// One thread per partition, no shared implements — scenario 2/3 on
    /// silicon.
    Static,
    /// One thread per partition, but one mutex per *color* that a thread
    /// must hold while coloring a cell of that color — scenario 4's
    /// single-marker rule, with the OS lock queue playing the waiting
    /// students.
    SharedImplements,
    /// All threads pull fixed-size chunks from a shared queue — dynamic
    /// load balancing (what the classroom can't easily do, but a runtime
    /// can).
    DynamicChunks {
        /// Cells per grab.
        chunk: usize,
    },
}

/// The result of a parallel coloring.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Mode used.
    pub mode: ExecMode,
    /// Threads used.
    pub threads: usize,
    /// Wall-clock time.
    pub wall: Duration,
    /// Per-thread busy time (sum of their own cell work; zero for a
    /// worker that died).
    pub per_thread_busy: Vec<Duration>,
    /// The colored grid.
    pub grid: Grid,
    /// Checksum of all cell computations (proves the work happened).
    pub checksum: u64,
    /// Cells colored.
    pub cells: usize,
    /// Workers that panicked mid-run; their strokes were discarded, the
    /// rest of the team finished.
    pub worker_faults: Vec<WorkerFault>,
}

impl Outcome {
    /// Whether the colored grid matches the reference exactly on the
    /// colored cells.
    pub fn verify(&self, flag: &PreparedFlag) -> bool {
        self.grid
            .iter()
            .all(|(id, c)| !c.is_painted() || c == flag.reference.get(id))
    }

    /// True when every worker survived.
    pub fn all_workers_survived(&self) -> bool {
        self.worker_faults.is_empty()
    }
}

/// The parallel colorer: a prepared flag plus a per-cell workload.
pub struct ParallelColorer<'a> {
    flag: &'a PreparedFlag,
    workload: CellWorkload,
    inject: Injection,
}

impl<'a> ParallelColorer<'a> {
    /// Build for a flag with a workload.
    pub fn new(flag: &'a PreparedFlag, workload: CellWorkload) -> Self {
        ParallelColorer {
            flag,
            workload,
            inject: None,
        }
    }

    /// Down worker `worker` with a deliberate panic after it colors
    /// `after_cells` cells (0 = before any work) — for resilience tests
    /// and demos.
    pub fn with_injected_panic(mut self, worker: usize, after_cells: usize) -> Self {
        self.inject = Some((worker, after_cells));
        self
    }

    /// Execute `assignments` under `mode`. For `Sequential`, assignments
    /// are concatenated onto one thread; for `DynamicChunks` they are
    /// concatenated into a shared queue served by `assignments.len()`
    /// threads.
    pub fn run(&self, assignments: &[Vec<WorkItem>], mode: ExecMode) -> Outcome {
        let _run_span = flagsim_telemetry::span("sim", "threads.run")
            .arg("mode", mode_name(mode))
            .arg("parts", assignments.len());
        match mode {
            ExecMode::Sequential => {
                let all: Vec<WorkItem> =
                    assignments.iter().flatten().copied().collect();
                self.run_static(std::slice::from_ref(&all), mode)
            }
            ExecMode::Static => self.run_static(assignments, mode),
            ExecMode::SharedImplements => self.run_shared(assignments),
            ExecMode::DynamicChunks { chunk } => self.run_dynamic(assignments, chunk),
        }
    }

    /// Per-thread buffers, merged after the join — no shared mutable grid,
    /// no locks, no unsafe.
    fn run_static(&self, assignments: &[Vec<WorkItem>], mode: ExecMode) -> Outcome {
        let workload = self.workload;
        let inject = self.inject;
        let run_id = flagsim_telemetry::current_span();
        let start = Instant::now();
        let results: Vec<Result<WorkerResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .enumerate()
                .map(|(w, items)| {
                    scope.spawn(move || {
                        let _worker_span = worker_telemetry(w, run_id);
                        catch_unwind(AssertUnwindSafe(|| {
                            trip_injected(inject, w, 0);
                            let t0 = Instant::now();
                            let mut buf = Vec::with_capacity(items.len());
                            let mut sum = 0u64;
                            for (done, item) in items.iter().enumerate() {
                                sum ^= workload
                                    .color_one_cell(item.kind, u64::from(item.cell.0));
                                buf.push((item.cell.0, item.color));
                                trip_injected(inject, w, done + 1);
                            }
                            (buf, t0.elapsed(), sum)
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(Self::collect_worker).collect()
        });
        let wall = start.elapsed();
        self.merge(results, mode, assignments.iter().map(Vec::len).sum(), wall)
    }

    /// One mutex per color: a thread must hold the color's "marker" while
    /// coloring a cell of that color (it re-locks only on color change,
    /// like the classroom's keep-until-color-change policy).
    fn run_shared(&self, assignments: &[Vec<WorkItem>]) -> Outcome {
        let workload = self.workload;
        let inject = self.inject;
        // Build the marker set.
        let mut colors: Vec<Color> = Vec::new();
        for part in assignments {
            for item in part {
                if !colors.contains(&item.color) {
                    colors.push(item.color);
                }
            }
        }
        let markers: BTreeMap<Color, Mutex<()>> =
            colors.iter().map(|&c| (c, Mutex::new(()))).collect();
        let markers = &markers;

        let run_id = flagsim_telemetry::current_span();
        let start = Instant::now();
        let results: Vec<Result<WorkerResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .enumerate()
                .map(|(w, items)| {
                    scope.spawn(move || {
                        let _worker_span = worker_telemetry(w, run_id);
                        catch_unwind(AssertUnwindSafe(|| {
                            trip_injected(inject, w, 0);
                            let t0 = Instant::now();
                            let mut buf = Vec::with_capacity(items.len());
                            let mut sum = 0u64;
                            let mut i = 0;
                            while i < items.len() {
                                let color = items[i].color;
                                // The lock recovers from poisoning, so a
                                // marker dropped by a dead worker is
                                // picked up, not mourned.
                                let _marker = markers[&color].lock();
                                // Color the whole same-color run under one hold.
                                while i < items.len() && items[i].color == color {
                                    let item = items[i];
                                    sum ^= workload
                                        .color_one_cell(item.kind, u64::from(item.cell.0));
                                    buf.push((item.cell.0, item.color));
                                    i += 1;
                                    trip_injected(inject, w, i);
                                }
                            }
                            (buf, t0.elapsed(), sum)
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(Self::collect_worker).collect()
        });
        let wall = start.elapsed();
        self.merge(
            results,
            ExecMode::SharedImplements,
            assignments.iter().map(Vec::len).sum(),
            wall,
        )
    }

    /// A shared atomic cursor over the concatenated work list; threads
    /// grab `chunk` cells at a time.
    fn run_dynamic(&self, assignments: &[Vec<WorkItem>], chunk: usize) -> Outcome {
        assert!(chunk > 0, "chunk must be nonzero");
        let workload = self.workload;
        let inject = self.inject;
        let all: Vec<WorkItem> = assignments.iter().flatten().copied().collect();
        let threads = assignments.len().max(1);
        let cursor = AtomicUsize::new(0);
        let (all_ref, cursor_ref) = (&all, &cursor);

        let run_id = flagsim_telemetry::current_span();
        let start = Instant::now();
        let results: Vec<Result<WorkerResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let _worker_span = worker_telemetry(w, run_id);
                        catch_unwind(AssertUnwindSafe(|| {
                            trip_injected(inject, w, 0);
                            let t0 = Instant::now();
                            let mut buf = Vec::new();
                            let mut sum = 0u64;
                            let mut done = 0;
                            loop {
                                let at = cursor_ref.fetch_add(chunk, Ordering::Relaxed);
                                if at >= all_ref.len() {
                                    break;
                                }
                                let end = (at + chunk).min(all_ref.len());
                                for item in &all_ref[at..end] {
                                    sum ^= workload
                                        .color_one_cell(item.kind, u64::from(item.cell.0));
                                    buf.push((item.cell.0, item.color));
                                    done += 1;
                                    trip_injected(inject, w, done);
                                }
                            }
                            (buf, t0.elapsed(), sum)
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(Self::collect_worker).collect()
        });
        let wall = start.elapsed();
        self.merge(results, ExecMode::DynamicChunks { chunk }, all.len(), wall)
    }

    /// Join one worker, folding both a caught panic and a panic that
    /// somehow escaped the catch (e.g. in the timing code) into the same
    /// error shape.
    fn collect_worker(
        h: std::thread::ScopedJoinHandle<'_, std::thread::Result<WorkerResult>>,
    ) -> Result<WorkerResult, String> {
        match h.join() {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(payload)) | Err(payload) => Err(panic_message(payload)),
        }
    }

    fn merge(
        &self,
        results: Vec<Result<WorkerResult, String>>,
        mode: ExecMode,
        cells: usize,
        wall: Duration,
    ) -> Outcome {
        let mut grid = Grid::new(self.flag.width, self.flag.height);
        let mut checksum = 0u64;
        let mut per_thread_busy = Vec::with_capacity(results.len());
        let mut worker_faults = Vec::new();
        let threads = results.len();
        for (worker, result) in results.into_iter().enumerate() {
            match result {
                Ok((buf, busy, sum)) => {
                    for (cell, color) in buf {
                        grid.paint(flagsim_grid::CellId(cell), color);
                    }
                    per_thread_busy.push(busy);
                    checksum ^= sum;
                }
                Err(message) => {
                    per_thread_busy.push(Duration::ZERO);
                    worker_faults.push(WorkerFault { worker, message });
                }
            }
        }
        if flagsim_telemetry::enabled() {
            flagsim_telemetry::count("threads.runs", 1);
            flagsim_telemetry::count("threads.cells_colored", cells as u64);
            flagsim_telemetry::count("threads.worker_faults", worker_faults.len() as u64);
            flagsim_telemetry::observe("threads.wall_ms", wall.as_secs_f64() * 1e3);
        }
        Outcome {
            mode,
            threads,
            wall,
            per_thread_busy,
            grid,
            checksum,
            cells,
            worker_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_core::partition::{CellOrder, PartitionStrategy};
    use flagsim_core::work::PreparedFlag;
    use flagsim_flags::library;

    fn setup() -> (PreparedFlag, Vec<Vec<WorkItem>>) {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        (pf, assignments)
    }

    #[test]
    fn every_mode_produces_the_same_flag() {
        let (pf, assignments) = setup();
        let colorer = ParallelColorer::new(&pf, CellWorkload::default());
        let modes = [
            ExecMode::Sequential,
            ExecMode::Static,
            ExecMode::SharedImplements,
            ExecMode::DynamicChunks { chunk: 8 },
        ];
        let mut checksums = Vec::new();
        for mode in modes {
            let out = colorer.run(&assignments, mode);
            assert!(out.verify(&pf), "{mode:?} colored the wrong flag");
            assert_eq!(out.cells, 96, "{mode:?}");
            assert!(out.grid.is_complete(), "{mode:?}");
            assert!(out.all_workers_survived(), "{mode:?}");
            checksums.push(out.checksum);
        }
        // All modes did the identical computation.
        assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn static_uses_one_thread_per_part() {
        let (pf, assignments) = setup();
        let colorer = ParallelColorer::new(&pf, CellWorkload::default());
        let out = colorer.run(&assignments, ExecMode::Static);
        assert_eq!(out.threads, 4);
        assert_eq!(out.per_thread_busy.len(), 4);
        let seq = colorer.run(&assignments, ExecMode::Sequential);
        assert_eq!(seq.threads, 1);
    }

    #[test]
    fn dynamic_covers_everything_with_tiny_chunks() {
        let (pf, assignments) = setup();
        let colorer = ParallelColorer::new(&pf, CellWorkload::default());
        let out = colorer.run(&assignments, ExecMode::DynamicChunks { chunk: 1 });
        assert!(out.verify(&pf));
        assert!(out.grid.is_complete());
    }

    #[test]
    fn skipped_colors_leave_blanks_and_still_verify() {
        let pf = PreparedFlag::new(&library::jordan());
        let skip = [Color::White];
        let assignments =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &skip);
        let colorer = ParallelColorer::new(&pf, CellWorkload::default());
        let out = colorer.run(&assignments, ExecMode::Sequential);
        assert!(out.verify(&pf));
        assert!(!out.grid.is_complete()); // white cells left blank
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_chunk_panics() {
        let (pf, assignments) = setup();
        let colorer = ParallelColorer::new(&pf, CellWorkload::default());
        let _ = colorer.run(&assignments, ExecMode::DynamicChunks { chunk: 0 });
    }

    #[test]
    fn panicking_worker_downs_only_itself_in_static_mode() {
        let (pf, assignments) = setup();
        let colorer =
            ParallelColorer::new(&pf, CellWorkload::default()).with_injected_panic(1, 3);
        let out = colorer.run(&assignments, ExecMode::Static);
        assert_eq!(out.worker_faults.len(), 1);
        assert_eq!(out.worker_faults[0].worker, 1);
        assert!(out.worker_faults[0].message.contains("injected fault"));
        // The dead worker's strokes are discarded wholesale; the other
        // three slices (24 cells each) are painted and correct.
        assert!(out.verify(&pf));
        assert!(!out.grid.is_complete());
        let painted = out.grid.iter().filter(|(_, c)| c.is_painted()).count();
        assert_eq!(painted, 72);
        assert_eq!(out.per_thread_busy[1], Duration::ZERO);
        assert!(out.per_thread_busy[0] > Duration::ZERO);
    }

    #[test]
    fn marker_dropped_by_dead_worker_is_recovered() {
        // Worker 1 dies *while holding a color mutex* (mid same-color
        // run). The poisoned lock must be recovered so the other three
        // workers still finish their slices — no hang, no cascade.
        let (pf, assignments) = setup();
        let colorer =
            ParallelColorer::new(&pf, CellWorkload::default()).with_injected_panic(1, 2);
        let out = colorer.run(&assignments, ExecMode::SharedImplements);
        assert_eq!(out.worker_faults.len(), 1);
        assert_eq!(out.worker_faults[0].worker, 1);
        assert!(out.verify(&pf));
        let painted = out.grid.iter().filter(|(_, c)| c.is_painted()).count();
        assert_eq!(painted, 72, "three survivors paint their 24-cell slices");
        // Exactly one worker idle (the dead one).
        let dead = out
            .per_thread_busy
            .iter()
            .filter(|b| **b == Duration::ZERO)
            .count();
        assert_eq!(dead, 1);
    }

    #[test]
    fn dynamic_survivors_drain_the_whole_queue() {
        // Worker 0 dies before touching any work; the other three drain
        // the shared queue, so the flag still completes.
        let (pf, assignments) = setup();
        let colorer =
            ParallelColorer::new(&pf, CellWorkload::default()).with_injected_panic(0, 0);
        let out = colorer.run(&assignments, ExecMode::DynamicChunks { chunk: 8 });
        assert_eq!(out.worker_faults.len(), 1);
        assert_eq!(out.worker_faults[0].worker, 0);
        assert!(out.verify(&pf));
        assert!(out.grid.is_complete(), "survivors cover the dead worker's share");
        assert_eq!(out.per_thread_busy[0], Duration::ZERO);
    }
}
