//! flagsim-watch: a hand-rolled terminal UI for watching runs.
//!
//! Two modes, one rendering pipeline:
//!
//! - **Replay** ([`app`]): reconstruct a recorded run (scenario+seed
//!   via `core::replay`, or a Chrome-trace file via [`chrome`]) and
//!   scrub through it — grid filling in, gantt with the executed
//!   critical path (`desim::causal::GanttModel`), blame/races anchored
//!   to the current instant. Trace files are read in one schema, the one
//!   `telemetry::export` writes for sim and runtime traces alike: one row
//!   per `(pid, tid)` track, spans paired per track, and one time-base
//!   rule (see [`chrome`]).
//! - **Live** ([`live`]): attach read-only to a running sweep and
//!   render the `shard::fleet` observability stream as a fleet panel
//!   with per-worker sparklines — the same panel `flagsim sweep
//!   --dashboard` draws over its own hub.
//!
//! Everything renders into a plain-text [`frame::Frame`]; escape codes
//! exist only in [`term`], wrapped around frames at the last moment.
//! Under `--script` the app consumes a fixed key sequence and no wall
//! clock, which makes the whole UI byte-deterministic and testable
//! headless.

pub mod app;
pub mod chrome;
pub mod frame;
pub mod input;
pub mod live;
pub mod term;
