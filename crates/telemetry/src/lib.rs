//! flagsim-telemetry: zero-dependency observability for the flagsim
//! workspace — a metrics registry, structured spans, and profiling
//! exporters (Chrome `trace_event`, collapsed flamegraph stacks, and a
//! self-time table).
//!
//! # Model
//!
//! A profiling session is a [`Collector`]: install one, run instrumented
//! code, then [`Collector::finish`] to get the recorded [`SpanSet`] and
//! render its [`MetricsRegistry`]. Instrumented code calls [`span`](fn@span) /
//! [`span_linked`] for timing scopes and [`count`] / [`gauge_set`] /
//! [`observe`] for metrics; with no collector installed every call is a
//! no-op gated on a single relaxed atomic load, so permanently
//! instrumented hot paths cost nothing in normal runs (the overhead gate
//! in `flagsim-bench` asserts this stays under 5%).
//!
//! # Determinism
//!
//! Spans carry two parent edges: the per-thread *stack* parent (drives
//! Chrome-trace nesting) and an optional logical *link* (drives the
//! flamegraph and [`SpanSet::canonical_tree`]). Work that is logically
//! the same — e.g. a parameter sweep at `--jobs 1` vs `--jobs 4` —
//! produces the same canonical tree; only timestamps and thread
//! placement differ. Host-execution scopes (worker lifecycles) use the
//! `"runtime"` category, which the canonical tree excludes.
//!
//! # Distributed sweeps
//!
//! A shard coordinator merges telemetry shipped from worker processes
//! into its own collector: worker records carry a `process` label so the
//! exported Chrome trace shows one timeline with a track group per
//! worker, lease hand-offs drawn as [`flow`] arrows, and structured
//! [`log`] records interleaved as instant events. The [`TimeSeries`]
//! ring buffer backs the fleet gauges behind `sweep --dashboard` and
//! `--obs-out` (caller-supplied integer-ms clocks, so dumps are
//! byte-deterministic under a fake clock).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod span;
pub mod timeseries;

pub use collector::{
    count, enabled, gauge_set, observe, pause_recording, submit_flow, submit_log, submit_spans,
    Collector, RecordingPause,
};
pub use export::SpanSet;
pub use log::{Level, LogRecord};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_BUCKETS};
pub use span::{
    alloc_span_ids, current_span, current_track, flow, flush_thread, intern, set_thread_track,
    span, span_linked, FlowRecord, SpanGuard, SpanId, SpanRecord,
};
pub use timeseries::TimeSeries;

/// Serialize tests that install the process-global collector.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
