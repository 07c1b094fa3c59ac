//! Run replay: watch the flag fill in.
//!
//! The Webster instructor used animations to show schedules; the
//! activity-level counterpart is watching the *grid* fill cell by cell.
//! A [`Replay`] reconstructs when every cell was finished from a run's
//! [strokes](RunReport::strokes), which pair each `WorkStart` trace event
//! with the cell the run logged for it (`RunReport::cell_log`, which
//! holds adopted orphan work too), and renders the grid at any instant
//! as an ASCII frame (`flagsim watch` scrubs through them).

use crate::report::RunReport;
use flagsim_desim::SimTime;
use flagsim_grid::{render, CellId, Color, Grid};

/// One cell's completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCompletion {
    /// The cell.
    pub cell: CellId,
    /// Its color.
    pub color: Color,
    /// Which student colored it.
    pub student: usize,
    /// When the coloring stroke started (ms).
    pub started_ms: u64,
    /// When the coloring stroke finished (ms).
    pub finished_ms: u64,
}

/// A cell whose coloring stroke was still in flight when the bell cut
/// the run off: it started but never finished, so it must render as
/// in-progress — never as completed — in every frame at or after the
/// cut-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellInFlight {
    /// The cell.
    pub cell: CellId,
    /// The color being applied when the bell rang.
    pub color: Color,
    /// Which student was coloring it.
    pub student: usize,
    /// When the coloring stroke started (ms).
    pub started_ms: u64,
}

/// A reconstructed run timeline.
#[derive(Debug, Clone)]
pub struct Replay {
    width: u32,
    height: u32,
    completions: Vec<CellCompletion>,
    in_flight: Vec<CellInFlight>,
    end_ms: u64,
}

impl Replay {
    /// Build from a run report: each of its [strokes](RunReport::strokes)
    /// either finished by the end of the run or was cut off by the bell.
    pub fn new(report: &RunReport) -> Self {
        let mut completions = Vec::new();
        let mut in_flight = Vec::new();
        for s in report.strokes() {
            if s.end <= report.trace.end_time {
                completions.push(CellCompletion {
                    cell: s.item.cell,
                    color: s.item.color,
                    student: s.student,
                    started_ms: s.start.millis(),
                    finished_ms: s.end.millis(),
                });
            } else {
                // The bell rang mid-stroke: the cell stays unfinished
                // forever, not silently absent.
                in_flight.push(CellInFlight {
                    cell: s.item.cell,
                    color: s.item.color,
                    student: s.student,
                    started_ms: s.start.millis(),
                });
            }
        }
        // Stable, from event order: ties stay by student, then stroke.
        completions.sort_by_key(|c| (c.finished_ms, c.student));
        in_flight.sort_by_key(|c| (c.started_ms, c.student));
        Replay {
            width: report.grid.width(),
            height: report.grid.height(),
            completions,
            in_flight,
            end_ms: report.trace.end_time.millis(),
        }
    }

    /// Total runtime in milliseconds.
    pub fn end_ms(&self) -> u64 {
        self.end_ms
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// All completions in time order.
    pub fn completions(&self) -> &[CellCompletion] {
        &self.completions
    }

    /// Strokes the bell interrupted, in start order (empty unless the
    /// run was cut off).
    pub fn in_flight(&self) -> &[CellInFlight] {
        &self.in_flight
    }

    /// Whether the run was cut off with strokes still in flight.
    pub fn cut_off(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// The grid as it looked at time `t`.
    pub fn grid_at(&self, t: SimTime) -> Grid {
        let mut grid = Grid::new(self.width, self.height);
        for c in &self.completions {
            if c.finished_ms <= t.millis() {
                grid.paint(c.cell, c.color);
            }
        }
        grid
    }

    /// Cells finished by time `t`.
    pub fn progress_at(&self, t: SimTime) -> usize {
        self.completions
            .iter()
            .take_while(|c| c.finished_ms <= t.millis())
            .count()
    }

    /// Strokes in progress at time `t`: completions mid-stroke
    /// (`started <= t < finished`) plus every bell-interrupted stroke
    /// already started — the latter stay in progress in every frame at
    /// or after the cut-off, since their finish never comes.
    pub fn in_progress_at(&self, t: SimTime) -> Vec<(CellId, Color, usize)> {
        let ms = t.millis();
        let mut out: Vec<(CellId, Color, usize)> = self
            .completions
            .iter()
            .filter(|c| c.started_ms <= ms && ms < c.finished_ms)
            .map(|c| (c.cell, c.color, c.student))
            .collect();
        out.extend(
            self.in_flight
                .iter()
                .filter(|c| c.started_ms <= ms)
                .map(|c| (c.cell, c.color, c.student)),
        );
        out
    }

    /// ASCII frame of the grid at time `t`: finished cells show their
    /// color code, strokes in progress show the code lowercased (an
    /// unfinished cell is visibly different from both a blank and a
    /// completed one), blanks stay `.`.
    pub fn ascii_at(&self, t: SimTime) -> String {
        let mut art: Vec<Vec<char>> = render::to_ascii(&self.grid_at(t))
            .lines()
            .map(|l| l.chars().collect())
            .collect();
        for (cell, color, _) in self.in_progress_at(t) {
            let (x, y) = (cell.index() % self.width as usize, cell.index() / self.width as usize);
            if let Some(c) = art.get_mut(y).and_then(|row| row.get_mut(x)) {
                *c = color.code().to_ascii_lowercase();
            }
        }
        let mut out = String::with_capacity((self.width as usize + 1) * self.height as usize);
        for row in art {
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ActivityConfig;
    use crate::partition::{CellOrder, PartitionStrategy};
    use crate::run_activity;
    use crate::work::PreparedFlag;
    use crate::{FaultPlan, Scenario};
    use crate::TeamKit;
    use flagsim_agents::{ImplementKind, StudentProfile};
    use flagsim_flags::library;

    fn run() -> (RunReport, PreparedFlag) {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let mut team: Vec<StudentProfile> = (1..=4)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
        let report = run_activity(
            "replay",
            &pf,
            &assignments,
            &mut team,
            &kit,
            &ActivityConfig::default().with_seed(3),
        )
        .unwrap();
        (report, pf)
    }

    #[test]
    fn replay_reconstructs_every_cell() {
        let (report, pf) = run();
        let replay = Replay::new(&report);
        assert_eq!(replay.completions().len(), 96);
        // Final frame equals the reference flag.
        let final_grid = replay.grid_at(SimTime(replay.end_ms()));
        assert!(flagsim_grid::diff(&final_grid, &pf.reference).is_identical());
        // Start frame is blank.
        assert_eq!(replay.grid_at(SimTime::ZERO).blank_cells(), 96);
    }

    #[test]
    fn progress_is_monotone() {
        let (report, _) = run();
        let replay = Replay::new(&report);
        let blanks = |t: SimTime| replay.ascii_at(t).matches('.').count();
        let (mut last, mut last_blanks) = (0, blanks(SimTime::ZERO));
        for i in 0..=20 {
            let t = SimTime(replay.end_ms() * i / 20);
            let p = replay.progress_at(t);
            assert!(p >= last, "progress went backwards at {t}");
            assert!(blanks(t) <= last_blanks, "a frame lost paint at {t}");
            (last, last_blanks) = (p, blanks(t));
        }
        assert_eq!((last, last_blanks), (96, 0));
    }

    #[test]
    fn deadline_replays_stay_partial() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut team = vec![StudentProfile::new("P1").without_warmup()];
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
        let report = run_activity(
            "bell",
            &pf,
            &assignments,
            &mut team,
            &kit,
            &ActivityConfig::default().with_deadline_secs(60.0),
        )
        .unwrap();
        let replay = Replay::new(&report);
        assert!(replay.completions().len() < 96);
        let final_grid = replay.grid_at(SimTime(replay.end_ms()));
        assert!(final_grid.blank_cells() > 0);
        // The replay's final grid matches the report's partial grid.
        assert!(flagsim_grid::diff(&final_grid, &report.grid).is_identical());
    }

    /// Regression: a stroke the bell interrupted must render as
    /// in-progress (lowercase) in every frame at or after the cut-off —
    /// never as completed, and never silently vanish.
    #[test]
    fn cut_off_strokes_render_in_progress_forever() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut team = vec![StudentProfile::new("P1").without_warmup()];
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
        let report = run_activity(
            "bell",
            &pf,
            &assignments,
            &mut team,
            &kit,
            &ActivityConfig::default().with_seed(3).with_deadline_secs(60.0),
        )
        .unwrap();
        let replay = Replay::new(&report);
        assert!(replay.cut_off(), "the bell should interrupt a stroke mid-flight");
        let caught = replay.in_flight()[0];
        let lower = caught.color.code().to_ascii_lowercase();
        let end = replay.end_ms();
        // At and after the bell the interrupted cell is in progress.
        for t in [end, end + 1, end * 2] {
            let listed = replay.in_progress_at(SimTime(t));
            assert!(
                listed.iter().any(|&(c, _, _)| c == caught.cell),
                "in-flight cell absent at t={t}"
            );
            let frame = replay.ascii_at(SimTime(t));
            let (x, y) = (
                caught.cell.index() % replay.width() as usize,
                caught.cell.index() / replay.width() as usize,
            );
            let ch = frame.lines().nth(y).and_then(|l| l.chars().nth(x)).unwrap();
            assert_eq!(ch, lower, "cut-off cell must render lowercase at t={t}");
        }
        // It is not in the completed set, and the completed grid leaves
        // it blank.
        assert!(replay.completions().iter().all(|c| c.cell != caught.cell));
        assert_eq!(
            replay.grid_at(SimTime(end)).get(caught.cell),
            flagsim_grid::Color::Blank
        );
    }

    /// Regression: a survivor's adopted orphan cells are strokes too.
    /// Replaying from the static assignments lost them (72 completions
    /// and 24 blank cells at the end of this run).
    #[test]
    fn dropout_replay_ends_on_the_reports_grid() {
        let pf = PreparedFlag::new(&library::mauritius());
        let mut team: Vec<StudentProfile> =
            (1..=4).map(|i| StudentProfile::new(format!("P{i}"))).collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
        let plan = FaultPlan::parse("dropout:2@12", "dropout").unwrap();
        let report = Scenario::fig1(4)
            .run_with_faults(&pf, &mut team, &kit, &ActivityConfig::default().with_seed(3), &plan)
            .unwrap();
        assert!(report.correct, "rebalancing finishes the flag");
        let replay = Replay::new(&report);
        assert_eq!(replay.completions().len(), 96);
        let final_grid = replay.grid_at(SimTime(replay.end_ms()));
        assert!(flagsim_grid::diff(&final_grid, &report.grid).is_identical());
    }
}
