//! Live sweep dashboard: an in-place ANSI status panel for
//! `flagsim sweep --dashboard`.
//!
//! While the sweep runs, the panel shows per-worker activity (the last
//! repetition of each worker's latest merged chunk), overall progress,
//! and the streaming completion-time mean ± 95% CI with a sparkline of
//! the mean's recent history — read live from the telemetry
//! [`MetricsRegistry`] gauges that [`flagsim_core::sweep`]'s merge
//! publishes (`sweep.completion.mean_s` / `sweep.completion.ci95_s`).
//!
//! For **sharded** sweeps the panel switches to a fleet view
//! ([`Dashboard::update_fleet`]): one row per worker process with its
//! connection state, merged-rep throughput, heartbeat age, reconnect
//! count, and telemetry shipping counters — fed from the coordinator's
//! [`ObsHub`](flagsim_shard::ObsHub) snapshots by a poller thread.
//!
//! The terminal mechanics — width detection, line clamping, the
//! cursor-up/clear-to-EOL repaint, scroll-above interleaving, and
//! sparklines — live in [`flagsim_watch::term`], shared with the
//! `flagsim watch` TUI so the two cannot diverge. This module keeps
//! only the sweep-specific state and frame layout.
//!
//! Everything is drawn on **stderr** so stdout stays machine-readable,
//! and the in-place redraw only happens when stderr is a real terminal;
//! piped or redirected, the dashboard degrades to occasional plain
//! `sweep: c/t rep(s) done ...` lines — the same shape `--progress`
//! prints — so CI logs stay diff-friendly. Out-of-band lines (failure
//! reports, structured logs) go through [`Dashboard::println_above`],
//! which scrolls them out above the panel and repaints, so interleaved
//! output never shears the frame.

use flagsim_core::sweep::SweepProgress;
use flagsim_telemetry::MetricsRegistry;
use flagsim_watch::term::{detect_width, sparkline, Panel};
use std::io::IsTerminal;
use std::sync::{Arc, Mutex, MutexGuard};

/// How many mean samples the sparkline keeps.
const HISTORY: usize = 32;

/// One worker row of the fleet panel (a rendered-down
/// [`WorkerObs`](flagsim_shard::WorkerObs) snapshot).
#[derive(Debug, Clone, Default)]
pub struct FleetRow {
    /// Worker name from its `hello_ok`.
    pub name: String,
    /// Session currently open.
    pub connected: bool,
    /// Repetitions merged from this worker.
    pub reps_done: u64,
    /// Recent throughput, repetitions per second.
    pub reps_per_sec: f64,
    /// Milliseconds since the last frame from this worker.
    pub heartbeat_age_ms: u64,
    /// Sessions beyond the first.
    pub reconnects: u64,
    /// Telemetry frames shipped by this worker.
    pub shipped: u64,
    /// Telemetry records dropped (bounded buffers / forced loss).
    pub dropped: u64,
    /// Recent throughput series for the row's sparkline.
    pub spark: Vec<f64>,
}

/// Mutable dashboard state behind the [`Dashboard`]'s mutex.
#[derive(Debug)]
struct State {
    /// Last repetition of each worker's latest merged chunk (`None`
    /// until its first).
    last_rep: Vec<Option<u64>>,
    /// Chunks of repetitions each worker has merged (one rep per chunk on
    /// the serial path).
    per_worker: Vec<u64>,
    /// Recent history of the streaming mean, for the sparkline.
    mean_history: Vec<f64>,
    /// The repaintable stderr panel (shared plumbing with `watch`).
    panel: Panel,
    /// Completed count at the last plain-mode line.
    last_plain: u64,
}

/// A live, in-place progress panel for a sweep. Construct once, hand
/// [`Dashboard::update`] to [`flagsim_core::sweep::SweepRunner::on_progress`]
/// (or poll [`Dashboard::update_fleet`] for sharded sweeps), and call
/// [`Dashboard::finish`] when the sweep returns.
#[derive(Debug)]
pub struct Dashboard {
    jobs: usize,
    total: u64,
    metrics: Arc<MetricsRegistry>,
    interactive: bool,
    state: Mutex<State>,
}

impl Dashboard {
    /// A dashboard for `jobs` workers over `total` repetitions, reading
    /// live statistics from `metrics`. Interactive (in-place ANSI
    /// redraw) exactly when stderr is a terminal.
    pub fn new(jobs: usize, total: u64, metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_width(jobs, total, metrics, detect_width())
    }

    /// [`Dashboard::new`] with an explicit width (tests; `new` detects).
    pub fn with_width(
        jobs: usize,
        total: u64,
        metrics: Arc<MetricsRegistry>,
        width: usize,
    ) -> Self {
        let interactive = std::io::stderr().is_terminal();
        Dashboard {
            jobs: jobs.max(1),
            total,
            metrics,
            interactive,
            state: Mutex::new(State {
                last_rep: vec![None; jobs.max(1)],
                per_worker: vec![0; jobs.max(1)],
                mean_history: Vec::new(),
                panel: Panel::new(interactive, width),
                last_plain: 0,
            }),
        }
    }

    /// Whether the dashboard will redraw in place (stderr is a TTY) or
    /// fall back to plain progress lines.
    pub fn is_interactive(&self) -> bool {
        self.interactive
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Print a line *above* the live panel and repaint it: the line
    /// scrolls away like normal output while the panel stays put at the
    /// bottom. Non-interactive (or before the first frame) this is a
    /// plain stderr line. This is the dashboard-aware writer that
    /// failure reports and structured logs route through, so
    /// interleaved output never shears the frame.
    pub fn println_above(&self, line: &str) {
        let mut st = self.lock_state();
        let mut err = std::io::stderr().lock();
        st.panel.println_above(line, &mut err);
    }

    /// Record one progress snapshot and redraw. Safe to call from the
    /// sweep's worker threads (the runner already serializes callbacks).
    pub fn update(&self, p: SweepProgress) {
        let mut st = self.lock_state();
        if let Some(slot) = st.last_rep.get_mut(p.worker % self.jobs.max(1)) {
            *slot = Some(p.rep);
        }
        if let Some(n) = st.per_worker.get_mut(p.worker % self.jobs.max(1)) {
            *n += 1;
        }
        let mean = self.metrics.gauge("sweep.completion.mean_s").get();
        if mean > 0.0 {
            st.mean_history.push(mean);
            let excess = st.mean_history.len().saturating_sub(HISTORY);
            if excess > 0 {
                st.mean_history.drain(..excess);
            }
        }
        if self.interactive {
            let frame = self.render_frame(&st, &p);
            let mut err = std::io::stderr().lock();
            st.panel.draw(&frame, &mut err);
        } else {
            // Plain fallback: one line every ~10% (and the final rep),
            // mirroring --progress so piped output stays log-friendly.
            let step = (self.total / 10).max(1);
            if p.completed == p.total || p.completed >= st.last_plain + step {
                st.last_plain = p.completed;
                eprintln!(
                    "sweep: {}/{} rep(s) done, {} failed{}",
                    p.completed,
                    p.total,
                    p.failed,
                    self.stats_suffix()
                );
            }
        }
    }

    /// Redraw the panel from a fleet snapshot (sharded sweeps): one row
    /// per worker process instead of one per thread.
    pub fn update_fleet(&self, merged: u64, failed: u64, rows: &[FleetRow]) {
        let mut st = self.lock_state();
        let mean = self.metrics.gauge("sweep.completion.mean_s").get();
        if mean > 0.0 && st.mean_history.last() != Some(&mean) {
            st.mean_history.push(mean);
            let excess = st.mean_history.len().saturating_sub(HISTORY);
            if excess > 0 {
                st.mean_history.drain(..excess);
            }
        }
        if self.interactive {
            let frame = self.render_fleet_frame(&st, merged, failed, rows);
            let mut err = std::io::stderr().lock();
            st.panel.draw(&frame, &mut err);
        } else {
            let step = (self.total / 10).max(1);
            if merged == self.total || merged >= st.last_plain + step {
                st.last_plain = merged;
                let live = rows.iter().filter(|r| r.connected).count();
                eprintln!(
                    "sweep: {}/{} rep(s) merged, {} failed, {}/{} worker(s) live{}",
                    merged,
                    self.total,
                    failed,
                    live,
                    rows.len(),
                    self.stats_suffix()
                );
            }
        }
    }

    /// Finish the panel: leave the last frame on screen and move to a
    /// fresh line (interactive), or print the final plain line.
    pub fn finish(&self) {
        let mut st = self.lock_state();
        if self.interactive {
            // The panel closes: later println_above calls fall back to
            // plain lines instead of repainting a stale frame.
            let mut err = std::io::stderr().lock();
            st.panel.finish(&mut err);
        } else if st.last_plain == 0 {
            // A sweep short enough that no step line fired still gets
            // one closing line.
            eprintln!("sweep: done{}", self.stats_suffix());
        }
    }

    /// ` | mean 12.34s ± 0.56s` once the streaming gauges are live.
    fn stats_suffix(&self) -> String {
        let mean = self.metrics.gauge("sweep.completion.mean_s").get();
        if mean <= 0.0 {
            return String::new();
        }
        let ci = self.metrics.gauge("sweep.completion.ci95_s").get();
        format!(" | mean {mean:.2}s \u{b1} {ci:.2}s")
    }

    /// `sweep [###---] c/t rep(s), f failed` — shared by both frames.
    fn progress_bar(&self, completed: u64, failed: u64, verb: &str) -> String {
        let filled = (completed * 24).checked_div(self.total).unwrap_or(0) as usize;
        format!(
            "sweep [{}{}] {}/{} rep(s) {}, {} failed\n",
            "#".repeat(filled.min(24)),
            "-".repeat(24 - filled.min(24)),
            completed,
            self.total,
            verb,
            failed,
        )
    }

    /// One full frame of the interactive per-thread panel.
    fn render_frame(&self, st: &State, p: &SweepProgress) -> String {
        let mut out = self.progress_bar(p.completed, p.failed, "done");
        for (w, (last, n)) in st.last_rep.iter().zip(&st.per_worker).enumerate() {
            match last {
                Some(rep) => out.push_str(&format!(
                    "  worker {w}: rep {rep:>4} done  ({n} chunk(s) so far)\n"
                )),
                None => out.push_str(&format!("  worker {w}: idle\n")),
            }
        }
        out.push_str(&format!(
            "  completion{}  {}\n",
            self.stats_suffix(),
            sparkline(&st.mean_history)
        ));
        out
    }

    /// One full frame of the interactive fleet panel.
    fn render_fleet_frame(
        &self,
        st: &State,
        merged: u64,
        failed: u64,
        rows: &[FleetRow],
    ) -> String {
        let mut out = self.progress_bar(merged, failed, "merged");
        let name_w = rows.iter().map(|r| r.name.chars().count()).max().unwrap_or(6).max(6);
        for r in rows {
            let state = if r.connected { '\u{25cf}' } else { '\u{25cb}' };
            let mut line = format!(
                "  {state} {:<name_w$}  {:>6} reps  {:>7.1}/s  hb {:>5}ms  rc {}",
                r.name, r.reps_done, r.reps_per_sec, r.heartbeat_age_ms, r.reconnects,
            );
            if r.shipped > 0 || r.dropped > 0 {
                line.push_str(&format!("  tx {} ({} dropped)", r.shipped, r.dropped));
            }
            let spark = sparkline(&r.spark);
            if !spark.is_empty() {
                line.push_str("  ");
                line.push_str(&spark);
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "  completion{}  {}\n",
            self.stats_suffix(),
            sparkline(&st.mean_history)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(completed: u64, total: u64, worker: usize, rep: u64) -> SweepProgress {
        SweepProgress {
            completed,
            failed: 0,
            total,
            worker,
            rep,
        }
    }

    #[test]
    fn update_tracks_workers_and_history() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.gauge("sweep.completion.mean_s").set(12.5);
        let dash = Dashboard::new(2, 8, Arc::clone(&metrics));
        dash.update(progress(1, 8, 0, 0));
        dash.update(progress(2, 8, 1, 1));
        dash.update(progress(3, 8, 0, 2));
        let st = dash.state.lock().unwrap();
        assert_eq!(st.last_rep, vec![Some(2), Some(1)]);
        assert_eq!(st.per_worker, vec![2, 1]);
        assert_eq!(st.mean_history.len(), 3);
    }

    #[test]
    fn frame_mentions_every_worker_and_the_bar() {
        let metrics = Arc::new(MetricsRegistry::new());
        let dash = Dashboard::new(3, 10, metrics);
        let st = dash.state.lock().unwrap();
        let frame = dash.render_frame(&st, &progress(5, 10, 0, 4));
        assert!(frame.contains("5/10"), "{frame}");
        assert!(frame.contains("worker 0"), "{frame}");
        assert!(frame.contains("worker 2"), "{frame}");
        assert!(frame.contains('#'), "{frame}");
    }

    #[test]
    fn history_is_bounded() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.gauge("sweep.completion.mean_s").set(1.0);
        let dash = Dashboard::new(1, 100, Arc::clone(&metrics));
        for i in 0..(HISTORY as u64 + 20) {
            metrics
                .gauge("sweep.completion.mean_s")
                .set(1.0 + i as f64);
            dash.update(progress(i + 1, 100, 0, i));
        }
        let st = dash.state.lock().unwrap();
        assert_eq!(st.mean_history.len(), HISTORY);
    }

    #[test]
    fn fleet_frame_shows_rows_state_and_shipping() {
        let metrics = Arc::new(MetricsRegistry::new());
        let dash = Dashboard::with_width(1, 100, metrics, 200);
        let rows = vec![
            FleetRow {
                name: "local-0".into(),
                connected: true,
                reps_done: 42,
                reps_per_sec: 8.25,
                heartbeat_age_ms: 13,
                reconnects: 1,
                shipped: 7,
                dropped: 2,
                spark: vec![1.0, 2.0, 3.0],
            },
            FleetRow { name: "local-1".into(), ..FleetRow::default() },
        ];
        let st = dash.state.lock().unwrap();
        let frame = dash.render_fleet_frame(&st, 50, 0, &rows);
        assert!(frame.contains("50/100"), "{frame}");
        assert!(frame.contains("merged"), "{frame}");
        assert!(frame.contains('\u{25cf}'), "connected marker: {frame}");
        assert!(frame.contains('\u{25cb}'), "disconnected marker: {frame}");
        assert!(frame.contains("local-0"), "{frame}");
        assert!(frame.contains("tx 7 (2 dropped)"), "{frame}");
        assert!(frame.contains("rc 1"), "{frame}");
    }

    #[test]
    fn panel_plumbing_is_the_shared_watch_implementation() {
        // The dashboard's clamping/sparkline/repaint behavior is
        // exactly flagsim_watch::term's — spot-check the re-used pieces
        // so a fork of the plumbing would fail here.
        let s = sparkline(&[1.0, 3.0]);
        assert_eq!(s.chars().count(), 2);
        let mut panel = Panel::new(true, 80);
        let mut out: Vec<u8> = Vec::new();
        panel.draw("a\nb\n", &mut out);
        panel.draw("c\nd\n", &mut out);
        assert!(String::from_utf8(out).unwrap().contains("\x1b[2A"));
    }
}
