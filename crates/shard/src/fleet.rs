//! Fleet observability: live per-worker state for a sharded campaign.
//!
//! The coordinator publishes session events (connects, leases, reps,
//! heartbeats, telemetry frames) into an [`ObsHub`]; in-process runs
//! publish one row per lane ([`FleetView::on_lane`]). The CLI polls the
//! hub to draw the `--dashboard` fleet panel and dumps a snapshot for
//! `--obs-out`. All timestamps are caller-supplied integer milliseconds
//! relative to the campaign start — the same fake-clock discipline as
//! the lease table — so a view fed from deterministic inputs serializes
//! byte-identically every run.
//!
//! Nothing here touches the statistics merge: the hub is written from
//! the same session threads but read only by observers, and losing or
//! disabling it cannot change a campaign's result.

use flagsim_telemetry::json::json_string;
use flagsim_telemetry::TimeSeries;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Points retained per worker rate series (at [`SAMPLE_EVERY_MS`] that
/// is a few minutes of history — plenty for a live sparkline).
const SERIES_CAP: usize = 256;

/// Sampling cadence for the per-worker cumulative-reps series.
pub const SAMPLE_EVERY_MS: u64 = 100;

/// Trailing window for reps/s readings.
const RATE_WINDOW_MS: u64 = 2_000;

/// Live state of one worker session slot, keyed by the worker's
/// self-reported name.
#[derive(Debug, Clone)]
pub struct WorkerObs {
    /// Worker name from `hello_ok`.
    pub name: String,
    /// A session is currently established.
    pub connected: bool,
    /// Sessions established beyond the first.
    pub reconnects: u64,
    /// Leases granted to this worker.
    pub leases: u64,
    /// Leases granted and not yet reported `lease_done` (the
    /// coordinator keeps up to two in flight per worker).
    pub leases_in_flight: u64,
    /// Repetitions this worker has reported.
    pub reps_done: u64,
    /// Milliseconds (campaign clock) of the last frame received.
    pub last_heard_ms: u64,
    /// Telemetry frames received from this worker.
    pub shipped_frames: u64,
    /// Records the worker reported dropping before shipping.
    pub dropped_records: u64,
    /// Cumulative reps over time, sampled every [`SAMPLE_EVERY_MS`].
    pub series: TimeSeries,
}

impl WorkerObs {
    fn new(name: &str) -> WorkerObs {
        WorkerObs {
            name: name.to_owned(),
            connected: false,
            reconnects: 0,
            leases: 0,
            leases_in_flight: 0,
            reps_done: 0,
            last_heard_ms: 0,
            shipped_frames: 0,
            dropped_records: 0,
            series: TimeSeries::new(SERIES_CAP),
        }
    }

    /// Reps per second over the trailing rate window.
    pub fn reps_per_sec(&self) -> f64 {
        self.series.rate_per_sec(RATE_WINDOW_MS)
    }

    /// Whether any granted lease has not yet reported `lease_done`.
    pub fn lease_in_flight(&self) -> bool {
        self.leases_in_flight > 0
    }

    /// Milliseconds since this worker was last heard from.
    pub fn silence_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_heard_ms)
    }
}

/// The whole campaign's observable state.
#[derive(Debug, Clone, Default)]
pub struct FleetView {
    /// Campaign trace id (hex job fingerprint).
    pub campaign: String,
    /// Total repetitions in the campaign.
    pub total_reps: u64,
    /// Repetitions merged so far.
    pub merged: u64,
    /// How many of the merged repetitions failed.
    pub failed: u64,
    workers: BTreeMap<String, WorkerObs>,
    /// `lane-NN` for each lane seen, formatted once.
    lane_names: Vec<String>,
    last_sample_ms: Option<u64>,
}

impl FleetView {
    /// Start (or restart) tracking a campaign.
    pub fn reset(&mut self, campaign: String, total_reps: u64) {
        *self = FleetView {
            campaign,
            total_reps,
            ..FleetView::default()
        };
    }

    fn worker_mut(&mut self, name: &str) -> &mut WorkerObs {
        row(&mut self.workers, name)
    }

    /// A session with `name` was established.
    pub fn on_connected(&mut self, name: &str, t_ms: u64) {
        let seen = self.workers.contains_key(name);
        let w = self.worker_mut(name);
        if seen {
            w.reconnects += 1;
        }
        w.connected = true;
        w.leases_in_flight = 0;
        w.last_heard_ms = t_ms;
    }

    /// The session with `name` ended (cleanly or not).
    pub fn on_disconnected(&mut self, name: &str) {
        let w = self.worker_mut(name);
        w.connected = false;
        w.leases_in_flight = 0;
    }

    /// A lease was granted to `name`.
    pub fn on_lease(&mut self, name: &str, t_ms: u64) {
        let w = self.worker_mut(name);
        w.leases += 1;
        w.leases_in_flight += 1;
        w.last_heard_ms = t_ms;
    }

    /// `name` reported its oldest lease complete.
    pub fn on_lease_done(&mut self, name: &str, t_ms: u64) {
        let w = self.worker_mut(name);
        w.leases_in_flight = w.leases_in_flight.saturating_sub(1);
        w.last_heard_ms = t_ms;
    }

    /// `name` reported one repetition.
    pub fn on_rep(&mut self, name: &str, t_ms: u64) {
        let w = self.worker_mut(name);
        w.reps_done += 1;
        w.last_heard_ms = t_ms;
    }

    /// Lane `lane` of an in-process run handed in a chunk, after which
    /// `merged` repetitions (`failed` of them failed) had merged in all.
    /// The lane's row (`lane-NN`) is credited with the repetitions this
    /// hand-in merged. A note that arrives after a later one (sweeps
    /// report outside their merge lock) credits nothing, so the lane rows
    /// always sum to what merged since [`FleetView::merged`] was set.
    pub fn on_lane(&mut self, lane: usize, merged: u64, failed: u64, t_ms: u64) {
        let credit = merged.saturating_sub(self.merged);
        self.merged += credit;
        self.failed = self.failed.max(failed);
        while self.lane_names.len() <= lane {
            let next = format!("lane-{:02}", self.lane_names.len());
            self.lane_names.push(next);
        }
        let w = row(&mut self.workers, &self.lane_names[lane]);
        w.connected = true;
        w.reps_done += credit;
        w.last_heard_ms = t_ms;
    }

    /// Any other frame from `name` (heartbeat refresh).
    pub fn on_heard(&mut self, name: &str, t_ms: u64) {
        self.worker_mut(name).last_heard_ms = t_ms;
    }

    /// A telemetry frame arrived from `name`, reporting `dropped`
    /// records lost on the worker side since the previous frame.
    pub fn on_telemetry(&mut self, name: &str, dropped: u64, t_ms: u64) {
        let w = self.worker_mut(name);
        w.shipped_frames += 1;
        w.dropped_records += dropped;
        w.last_heard_ms = t_ms;
    }

    /// Workers with an established session.
    pub fn live_workers(&self) -> usize {
        self.workers.values().filter(|w| w.connected).count()
    }

    /// Leases granted but not yet reported done.
    pub fn leases_in_flight(&self) -> usize {
        self.workers
            .values()
            .map(|w| w.leases_in_flight as usize)
            .sum()
    }

    /// Iterate workers in name order.
    pub fn workers(&self) -> impl Iterator<Item = &WorkerObs> {
        self.workers.values()
    }

    /// Sample each worker's cumulative rep count into its series when
    /// [`SAMPLE_EVERY_MS`] has elapsed. Returns whether a sample was
    /// taken (callers use this to pace gauge publication).
    pub fn sample(&mut self, t_ms: u64) -> bool {
        let due = match self.last_sample_ms {
            Some(last) => t_ms.saturating_sub(last) >= SAMPLE_EVERY_MS,
            None => true,
        };
        if !due {
            return false;
        }
        self.last_sample_ms = Some(t_ms);
        for w in self.workers.values_mut() {
            w.series.push(t_ms, w.reps_done as f64);
        }
        true
    }

    /// Publish the fleet as `shard.*` gauges on the installed collector
    /// (a no-op when telemetry is disabled).
    pub fn publish_gauges(&self, now_ms: u64) {
        if !flagsim_telemetry::enabled() {
            return;
        }
        flagsim_telemetry::gauge_set("shard.fleet.live_workers", self.live_workers() as f64);
        flagsim_telemetry::gauge_set(
            "shard.fleet.leases_in_flight",
            self.leases_in_flight() as f64,
        );
        flagsim_telemetry::gauge_set("shard.fleet.merged_reps", self.merged as f64);
        for w in self.workers.values() {
            let base = format!("shard.worker.{}", w.name);
            flagsim_telemetry::gauge_set(&format!("{base}.reps_per_s"), w.reps_per_sec());
            flagsim_telemetry::gauge_set(&format!("{base}.reps_done"), w.reps_done as f64);
            flagsim_telemetry::gauge_set(
                &format!("{base}.heartbeat_age_ms"),
                w.silence_ms(now_ms) as f64,
            );
            flagsim_telemetry::gauge_set(&format!("{base}.reconnects"), w.reconnects as f64);
            flagsim_telemetry::gauge_set(
                &format!("{base}.telemetry_shipped"),
                w.shipped_frames as f64,
            );
            flagsim_telemetry::gauge_set(
                &format!("{base}.telemetry_dropped"),
                w.dropped_records as f64,
            );
        }
    }

    /// Deterministic JSON snapshot (the `--obs-out` payload): same
    /// events at the same fake-clock times → byte-identical output.
    pub fn to_json(&self, now_ms: u64) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"campaign\": {},", json_string(&self.campaign));
        let _ = writeln!(out, "  \"total_reps\": {},", self.total_reps);
        let _ = writeln!(out, "  \"merged\": {},", self.merged);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"now_ms\": {now_ms},");
        let _ = writeln!(out, "  \"live_workers\": {},", self.live_workers());
        let _ = writeln!(out, "  \"leases_in_flight\": {},", self.leases_in_flight());
        out.push_str("  \"workers\": [");
        for (i, w) in self.workers.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}, ", json_string(&w.name));
            let _ = write!(out, "\"connected\": {}, ", w.connected);
            let _ = write!(out, "\"reconnects\": {}, ", w.reconnects);
            let _ = write!(out, "\"leases\": {}, ", w.leases);
            let _ = write!(out, "\"lease_in_flight\": {}, ", w.lease_in_flight());
            let _ = write!(out, "\"reps_done\": {}, ", w.reps_done);
            let _ = write!(out, "\"reps_per_s\": {:.3}, ", w.reps_per_sec());
            let _ = write!(out, "\"heartbeat_age_ms\": {}, ", w.silence_ms(now_ms));
            let _ = write!(out, "\"telemetry_shipped\": {}, ", w.shipped_frames);
            let _ = write!(out, "\"telemetry_dropped\": {}, ", w.dropped_records);
            let _ = write!(out, "\"series\": {}}}", w.series.to_json());
        }
        if !self.workers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// The row of worker `name`, added on first sight. A known name is
/// looked up, not copied, so a steady-state update allocates nothing.
fn row<'a>(workers: &'a mut BTreeMap<String, WorkerObs>, name: &str) -> &'a mut WorkerObs {
    if !workers.contains_key(name) {
        workers.insert(name.to_owned(), WorkerObs::new(name));
    }
    workers
        .get_mut(name)
        .expect("the row exists: it was just added")
}

/// Shared handle to a [`FleetView`]: cloned into the coordinator's
/// config and polled by observers (dashboard ticker, `--obs-out`).
#[derive(Debug, Clone, Default)]
pub struct ObsHub {
    inner: Arc<Mutex<FleetView>>,
}

impl ObsHub {
    /// A hub over an empty fleet view.
    pub fn new() -> ObsHub {
        ObsHub::default()
    }

    /// Run `f` with exclusive access to the view.
    pub fn with<R>(&self, f: impl FnOnce(&mut FleetView) -> R) -> R {
        let mut fv = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut fv)
    }

    /// Deterministic JSON snapshot at `now_ms` (campaign clock).
    pub fn snapshot_json(&self, now_ms: u64) -> String {
        self.with(|fv| fv.to_json(now_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripted_view() -> FleetView {
        let mut fv = FleetView::default();
        fv.reset("00c0ffee00c0ffee".into(), 64);
        fv.on_connected("w-0", 10);
        fv.on_connected("w-1", 12);
        fv.on_lease("w-0", 20);
        fv.on_lease("w-1", 21);
        for t in 0..10u64 {
            fv.on_rep("w-0", 30 + t * 100);
            if t % 2 == 0 {
                fv.on_rep("w-1", 35 + t * 100);
            }
            fv.sample(40 + t * 100);
        }
        fv.on_telemetry("w-0", 0, 950);
        fv.on_telemetry("w-1", 3, 960);
        fv.on_lease_done("w-0", 970);
        fv.on_disconnected("w-1");
        fv.merged = 15;
        fv
    }

    #[test]
    fn fake_clock_snapshots_are_byte_identical() {
        let a = scripted_view().to_json(1_000);
        let b = scripted_view().to_json(1_000);
        assert_eq!(a, b);
        flagsim_telemetry::json::parse(&a).expect("snapshot is valid JSON");
        assert!(a.contains("\"campaign\": \"00c0ffee00c0ffee\""), "{a}");
        assert!(a.contains("\"name\": \"w-0\""), "{a}");
        assert!(a.contains("\"telemetry_dropped\": 3"), "{a}");
    }

    #[test]
    fn counts_and_reconnects_track_session_events() {
        let mut fv = scripted_view();
        assert_eq!(fv.live_workers(), 1, "w-1 disconnected");
        assert_eq!(fv.leases_in_flight(), 0, "done or dropped with the session");
        fv.on_connected("w-1", 1_100);
        let w1 = fv.workers().find(|w| w.name == "w-1").expect("w-1");
        assert_eq!(w1.reconnects, 1);
        assert!(w1.connected);
        let w0 = fv.workers().find(|w| w.name == "w-0").expect("w-0");
        assert_eq!(w0.reps_done, 10);
        assert_eq!(w0.leases, 1);
        assert!(!w0.lease_in_flight());
        assert_eq!(w0.silence_ms(1_000), 30, "lease_done heard at 970");
    }

    #[test]
    fn sampling_is_paced_and_rates_are_positive_under_load() {
        let mut fv = FleetView::default();
        fv.reset("c".into(), 8);
        fv.on_connected("w", 0);
        assert!(fv.sample(0));
        assert!(!fv.sample(SAMPLE_EVERY_MS / 2), "not due yet");
        for t in 1..=20u64 {
            fv.on_rep("w", t * SAMPLE_EVERY_MS);
            assert!(fv.sample(t * SAMPLE_EVERY_MS));
        }
        let w = fv.workers().next().expect("worker");
        assert!(w.reps_per_sec() > 0.0, "rate: {}", w.reps_per_sec());
    }

    #[test]
    fn a_queued_lease_keeps_the_worker_in_flight() {
        let mut fv = FleetView::default();
        fv.reset("c".into(), 16);
        fv.on_connected("w", 0);
        fv.on_lease("w", 1);
        fv.on_lease("w", 2);
        fv.on_lease_done("w", 3);
        assert_eq!(fv.leases_in_flight(), 1, "the queued lease is still out");
        let w = fv.workers().next().expect("worker");
        assert!(w.lease_in_flight());
        assert!(fv.to_json(4).contains("\"lease_in_flight\": true"));
        fv.on_lease_done("w", 5);
        assert_eq!(fv.leases_in_flight(), 0);
        assert!(fv.to_json(6).contains("\"lease_in_flight\": false"));
    }

    #[test]
    fn lane_rows_sum_to_the_merged_count_whatever_order_notes_arrive_in() {
        let mut fv = FleetView::default();
        fv.reset("c".into(), 256);
        fv.on_lane(1, 64, 0, 10);
        fv.on_lane(0, 192, 2, 20);
        fv.on_lane(2, 128, 1, 30); // reported after the 192 note: no credit
        let rows: Vec<(String, u64)> = fv
            .workers()
            .map(|w| (w.name.clone(), w.reps_done))
            .collect();
        assert_eq!(
            rows,
            [
                ("lane-00".into(), 128),
                ("lane-01".into(), 64),
                ("lane-02".into(), 0)
            ]
        );
        assert_eq!((fv.merged, fv.failed, fv.live_workers()), (192, 2, 3));
        assert!(fv.to_json(40).contains("\"failed\": 2,"));
    }

    #[test]
    fn lease_wait_silence_is_visible() {
        let mut fv = FleetView::default();
        fv.reset("c".into(), 4);
        fv.on_connected("w", 5);
        fv.on_heard("w", 250);
        let w = fv.workers().next().expect("worker");
        assert_eq!(w.silence_ms(1_250), 1_000);
        assert_eq!(w.silence_ms(100), 0, "saturates, never underflows");
    }
}
