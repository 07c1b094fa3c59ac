//! Live mode: render a running sweep's fleet state.
//!
//! The data is `shard::fleet::FleetView::to_json` snapshots, obtained
//! by tailing a file the supervisor writes (`--follow`), by connecting
//! to the supervisor's observability port (`--connect`), which pushes
//! snapshots as length-prefixed wire frames, or by polling the running
//! sweep's own hub (`flagsim sweep --dashboard`). All three go through
//! one parse and one [`repaint_loop`], so the sweep's panel is exactly
//! what a watcher sees for the same snapshot.
//!
//! Live mode is **strictly read-only**: [`SnapshotSource::Connect`]
//! never writes a byte to the socket — it holds the stream solely to
//! `read_frame` from it — so attaching a watcher cannot perturb the
//! sweep's statistics merge path. The supervisor's obs listener
//! additionally counts client→server bytes and a test asserts that
//! count stays zero with a watcher attached.

use crate::frame::Frame;
use crate::term::{sparkline, Panel};
use flagsim_shard::ObsHub;
use flagsim_telemetry::json::{self, Value};
use std::io::Write;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn boolean(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

/// One worker's row of a parsed fleet snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// Worker name.
    pub name: String,
    /// Session currently established.
    pub connected: bool,
    /// Sessions beyond the first.
    pub reconnects: u64,
    /// Leases granted.
    pub leases: u64,
    /// A lease is currently outstanding.
    pub lease_in_flight: bool,
    /// Repetitions completed.
    pub reps_done: u64,
    /// Smoothed completion rate.
    pub reps_per_s: f64,
    /// Milliseconds since the worker was last heard from.
    pub heartbeat_age_ms: u64,
    /// Telemetry frames shipped.
    pub telemetry_shipped: u64,
    /// Telemetry records dropped.
    pub telemetry_dropped: u64,
    /// Sampled rate series `(t_ms, reps_per_s)` for the sparkline.
    pub series: Vec<(u64, f64)>,
}

/// A parsed `FleetView::to_json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Campaign fingerprint.
    pub campaign: String,
    /// Total repetitions in the sweep.
    pub total_reps: u64,
    /// Repetitions merged so far.
    pub merged: u64,
    /// How many merged repetitions failed (0 when the field is absent).
    pub failed: u64,
    /// Snapshot timestamp (supervisor clock, ms).
    pub now_ms: u64,
    /// Workers with an established session.
    pub live_workers: u64,
    /// Leases granted but not yet reported done.
    pub leases_in_flight: u64,
    /// Per-worker rows, supervisor order.
    pub workers: Vec<WorkerRow>,
}

/// Parse one snapshot JSON document.
pub fn parse_snapshot(text: &str) -> Result<FleetSnapshot, String> {
    let doc = json::parse(text).map_err(|e| format!("bad fleet snapshot: {e}"))?;
    let campaign = doc
        .get("campaign")
        .and_then(Value::as_str)
        .ok_or("fleet snapshot has no \"campaign\" field")?
        .to_owned();
    let workers = doc
        .get("workers")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|w| WorkerRow {
            name: w
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_owned(),
            connected: boolean(w, "connected"),
            reconnects: num(w, "reconnects") as u64,
            leases: num(w, "leases") as u64,
            lease_in_flight: boolean(w, "lease_in_flight"),
            reps_done: num(w, "reps_done") as u64,
            reps_per_s: num(w, "reps_per_s"),
            heartbeat_age_ms: num(w, "heartbeat_age_ms") as u64,
            telemetry_shipped: num(w, "telemetry_shipped") as u64,
            telemetry_dropped: num(w, "telemetry_dropped") as u64,
            series: w
                .get("series")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|pt| {
                    let pt = pt.as_array()?;
                    Some((pt.first()?.as_f64()? as u64, pt.get(1)?.as_f64()?))
                })
                .collect(),
        })
        .collect();
    Ok(FleetSnapshot {
        campaign,
        total_reps: num(&doc, "total_reps") as u64,
        merged: num(&doc, "merged") as u64,
        failed: num(&doc, "failed") as u64,
        now_ms: num(&doc, "now_ms") as u64,
        live_workers: num(&doc, "live_workers") as u64,
        leases_in_flight: num(&doc, "leases_in_flight") as u64,
        workers,
    })
}

/// Width of the sparkline window (most recent samples).
const SPARK_WINDOW: usize = 24;

/// Render a fleet snapshot as a plain-text frame: a header with merge
/// progress, then one row per worker with a rate sparkline.
pub fn render_fleet(snap: &FleetSnapshot, width: usize) -> Frame {
    let mut f = Frame::new(width);
    f.line(&format!("fleet: campaign {}", snap.campaign));
    let pct = (snap.merged * 100).checked_div(snap.total_reps).unwrap_or(0);
    let failed = match snap.failed {
        0 => String::new(),
        n => format!(", {n} failed"),
    };
    f.line(&format!(
        "merged {}/{} reps ({pct}%){failed}  workers {} live  leases {} in flight  t={:.1}s",
        snap.merged,
        snap.total_reps,
        snap.live_workers,
        snap.leases_in_flight,
        snap.now_ms as f64 / 1000.0
    ));
    f.blank();
    if snap.workers.is_empty() {
        f.line("  (no workers yet)");
        return f;
    }
    let name_w = snap
        .workers
        .iter()
        .map(|w| w.name.chars().count())
        .max()
        .unwrap_or(4)
        .max(4);
    for w in &snap.workers {
        let status = if w.connected { '*' } else { '-' };
        let lease = if w.lease_in_flight { 'L' } else { ' ' };
        let rates: Vec<f64> = w
            .series
            .iter()
            .rev()
            .take(SPARK_WINDOW)
            .rev()
            .map(|&(_, v)| v)
            .collect();
        let spark = sparkline(&rates);
        let mut row = format!(
            "{status} {:<name_w$} {lease} reps {:>6}  {:>7.2}/s  {spark:<SPARK_WINDOW$}  hb {:>5}ms",
            w.name, w.reps_done, w.reps_per_s, w.heartbeat_age_ms
        );
        if w.reconnects > 0 {
            row.push_str(&format!("  reconnects {}", w.reconnects));
        }
        if w.telemetry_dropped > 0 {
            row.push_str(&format!("  dropped {}", w.telemetry_dropped));
        }
        f.line(&row);
    }
    f
}

/// The one live repaint loop, behind both `flagsim watch --connect` /
/// `--follow` and `flagsim sweep --dashboard`: pull snapshots from `src`,
/// render each as [`render_fleet`] followed by the `footer` lines, and
/// repaint it in place on `out` while `panel` is interactive. Otherwise
/// each snapshot and its frame go to `plain`, which prints its own
/// log-friendly line and returns `false` to stop the loop. Returns the
/// last frame and, when the source ended, why. The panel is locked for
/// each draw, so a line printed above it from another thread never
/// shears a frame.
pub fn repaint_loop(
    src: &mut SnapshotSource,
    panel: &Mutex<Panel>,
    out: &mut dyn Write,
    mut footer: impl FnMut() -> String,
    mut plain: impl FnMut(&FleetSnapshot, &str) -> bool,
) -> (String, Option<String>) {
    let lock = || panel.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut last = String::new();
    loop {
        let snap = match src.next_snapshot() {
            Ok(Some(snap)) => snap,
            Ok(None) => continue,
            Err(e) => {
                lock().finish(out);
                return (last, Some(e));
            }
        };
        let mut panel = lock();
        last = render_fleet(&snap, panel.width()).render() + &footer();
        if panel.is_interactive() {
            panel.draw(&last, out);
        } else if !plain(&snap, &last) {
            return (last, None);
        }
    }
}

/// How often an in-process hub is sampled and redrawn.
const HUB_POLL: Duration = Duration::from_millis(150);

/// Where live snapshots come from.
pub enum SnapshotSource {
    /// A connected obs socket: snapshots arrive as pushed wire frames.
    /// The stream is read-only by construction — no method here writes.
    Connect(std::net::TcpStream),
    /// A snapshot file the supervisor rewrites (`--obs-out`): polled
    /// and re-parsed when its content changes.
    Follow {
        /// Path polled for new content.
        path: std::path::PathBuf,
        /// Last content seen, to suppress unchanged repaints.
        last: String,
    },
    /// The running sweep's own hub (`sweep --dashboard`): sampled every
    /// 150 ms, and once more when `stop` fires or its sender drops;
    /// after that final snapshot the source ends.
    Hub {
        /// The hub the sweep publishes into.
        hub: ObsHub,
        /// The campaign clock's zero.
        started: Instant,
        /// Raised (or dropped) when the sweep returns.
        stop: Receiver<()>,
        /// The final snapshot has been taken.
        stopped: bool,
    },
}

impl SnapshotSource {
    /// Connect to a supervisor's obs listener.
    pub fn connect(addr: &str) -> Result<SnapshotSource, String> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        Ok(SnapshotSource::Connect(stream))
    }

    /// Follow a snapshot file on disk.
    pub fn follow(path: impl Into<std::path::PathBuf>) -> SnapshotSource {
        SnapshotSource::Follow {
            path: path.into(),
            last: String::new(),
        }
    }

    /// Poll an in-process hub until `stop` fires.
    pub fn hub(hub: ObsHub, started: Instant, stop: Receiver<()>) -> SnapshotSource {
        SnapshotSource::Hub {
            hub,
            started,
            stop,
            stopped: false,
        }
    }

    /// The next snapshot, blocking briefly:
    /// `Ok(Some)` — a new snapshot; `Ok(None)` — nothing new yet (poll
    /// again); `Err` — the source ended (socket closed, file gone).
    pub fn next_snapshot(&mut self) -> Result<Option<FleetSnapshot>, String> {
        match self {
            SnapshotSource::Connect(stream) => {
                match flagsim_shard::wire::read_frame(stream) {
                    Ok(Some(body)) => parse_snapshot(&body).map(Some),
                    Ok(None) => Err("obs connection closed".to_owned()),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        Ok(None)
                    }
                    Err(e) => Err(format!("obs connection lost: {e}")),
                }
            }
            SnapshotSource::Follow { path, last } => {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let text = std::fs::read_to_string(&*path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                if text == *last || text.trim().is_empty() {
                    return Ok(None);
                }
                *last = text.clone();
                parse_snapshot(&text).map(Some)
            }
            SnapshotSource::Hub { hub, started, stop, stopped } => {
                if *stopped {
                    return Err("sweep finished".to_owned());
                }
                *stopped = !matches!(stop.recv_timeout(HUB_POLL), Err(RecvTimeoutError::Timeout));
                let now = started.elapsed().as_millis() as u64;
                hub.with(|fv| fv.sample(now));
                parse_snapshot(&hub.snapshot_json(now)).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        let mut fv = flagsim_shard::fleet::FleetView::default();
        fv.reset("00c0ffee".into(), 64);
        fv.on_connected("w-0", 10);
        fv.on_connected("w-1", 12);
        fv.on_connected("w-0", 15);
        fv.on_lease("w-0", 20);
        for t in 0..10u64 {
            fv.on_rep("w-0", 30 + t * 90);
            fv.sample(30 + t * 90);
        }
        fv.on_telemetry("w-1", 3, 900);
        fv.on_disconnected("w-1");
        fv.merged = 10;
        fv.to_json(1_000)
    }

    #[test]
    fn parses_a_real_fleet_snapshot() {
        let snap = parse_snapshot(&sample_json()).expect("parses");
        assert_eq!(snap.campaign, "00c0ffee");
        assert_eq!(snap.total_reps, 64);
        assert_eq!(snap.merged, 10);
        assert_eq!(snap.now_ms, 1_000);
        assert_eq!(snap.live_workers, 1);
        assert_eq!(snap.workers.len(), 2);
        let w0 = &snap.workers[0];
        assert_eq!(w0.name, "w-0");
        assert!(w0.connected);
        assert!(w0.lease_in_flight);
        assert_eq!(w0.reps_done, 10);
        assert!(!w0.series.is_empty(), "sampled series survives the trip");
        let w1 = &snap.workers[1];
        assert!(!w1.connected);
        assert_eq!(w1.telemetry_dropped, 3);
    }

    #[test]
    fn renders_the_fleet_panel_plainly() {
        let snap = parse_snapshot(&sample_json()).expect("parses");
        let text = render_fleet(&snap, 120).render();
        assert!(!text.contains('\x1b'), "frames are escape-free");
        assert!(text.contains("fleet: campaign 00c0ffee"));
        assert!(text.contains("merged 10/64 reps (15%)"));
        assert!(text.contains("workers 1 live"));
        assert!(text.contains("* w-0"), "connected marker: {text}");
        assert!(text.contains("- w-1"), "disconnected marker: {text}");
        assert!(text.contains("dropped 3"), "{text}");
        assert!(text.contains("reconnects 1"), "{text}");
        let has_spark = text.chars().any(|c| crate::term::SPARKS.contains(&c));
        assert!(has_spark, "w-0's rate sparkline rendered: {text}");
    }

    #[test]
    fn failures_render_only_when_some_merged() {
        let clean = render_fleet(&parse_snapshot(&sample_json()).expect("parses"), 120).render();
        assert!(!clean.contains("failed"), "{clean}");
        let with_failures = sample_json().replace("\"failed\": 0", "\"failed\": 2");
        let snap = parse_snapshot(&with_failures).expect("parses");
        let text = render_fleet(&snap, 120).render();
        assert!(text.contains("merged 10/64 reps (15%), 2 failed  workers 1 live"), "{text}");
        // Snapshots written before the field existed read as failure-free.
        let old = sample_json().replace("  \"failed\": 0,\n", "");
        assert_eq!(render_fleet(&parse_snapshot(&old).expect("parses"), 120).render(), clean);
    }

    #[test]
    fn the_hub_source_ends_after_one_final_snapshot() {
        let hub = ObsHub::new();
        hub.with(|fv| {
            fv.reset("c".into(), 8);
            fv.on_lane(0, 8, 1, 5);
        });
        for interactive in [false, true] {
            let (stop, rx) = std::sync::mpsc::channel();
            stop.send(()).expect("receiver alive");
            let mut src = SnapshotSource::hub(hub.clone(), Instant::now(), rx);
            let panel = Mutex::new(Panel::new(interactive, 100));
            let (mut out, mut plain) = (Vec::new(), Vec::new());
            let (frame, ended) = repaint_loop(
                &mut src,
                &panel,
                &mut out,
                || "footer\n".to_owned(),
                |snap, _| {
                    plain.push(snap.merged);
                    true
                },
            );
            assert!(frame.contains("merged 8/8 reps (100%), 1 failed"), "{frame}");
            assert!(frame.contains("* lane-00"), "{frame}");
            assert!(frame.ends_with("footer\n"), "{frame}");
            assert_eq!(ended.as_deref(), Some("sweep finished"));
            assert_eq!(plain, if interactive { vec![] } else { vec![8] });
            assert_eq!(String::from_utf8_lossy(&out).contains("\x1b[K"), interactive);
        }
    }

    #[test]
    fn empty_fleet_and_bad_input() {
        let mut fv = flagsim_shard::fleet::FleetView::default();
        fv.reset("c".into(), 8);
        let snap = parse_snapshot(&fv.to_json(0)).expect("parses");
        let text = render_fleet(&snap, 80).render();
        assert!(text.contains("(no workers yet)"));
        assert!(parse_snapshot("not json").is_err());
        assert!(parse_snapshot("{\"x\": 1}").is_err(), "campaign required");
    }

    #[test]
    fn follow_source_reports_changes_once() {
        let dir = std::env::temp_dir().join(format!("watch-follow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        std::fs::write(&path, sample_json()).unwrap();
        let mut src = SnapshotSource::follow(&path);
        let first = src.next_snapshot().expect("readable");
        assert!(first.is_some(), "first read yields the snapshot");
        let second = src.next_snapshot().expect("readable");
        assert!(second.is_none(), "unchanged file is suppressed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
