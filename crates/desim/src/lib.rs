//! # flagsim-desim
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! This is the substrate under the activity simulator: virtual students are
//! [`Process`]es that alternate between doing timed work (coloring a cell)
//! and acquiring/releasing exclusive [`resource`]s (the team's single
//! marker of each color — the source of scenario 4's contention). The
//! engine is generic: nothing in this crate knows about flags, cells, or
//! students.
//!
//! Design points:
//!
//! * **Integer time.** [`SimTime`] counts milliseconds as a `u64`; no
//!   float-comparison hazards in the event queue.
//! * **Determinism.** Events are ordered by `(time, sequence-number)`, and
//!   resource wait queues are strict FIFO, so a simulation is a pure
//!   function of its inputs. All randomness lives *outside* the engine (in
//!   the cost model that produces work durations).
//! * **State-machine processes.** Rust has no native coroutines to suspend
//!   mid-`fn`, so a process is a state machine the engine polls for its
//!   next [`Action`]: work for a duration, acquire a resource (possibly
//!   waiting), release one, or finish. This mirrors how classic DES
//!   libraries are built atop explicit continuations.
//! * **Tracing built in.** The [`Trace`] records per-process busy/wait
//!   accounting, per-resource contention stats, and a full event log that
//!   higher layers render as Gantt charts.
//! * **Typed failures.** Misuse (releasing a resource you don't hold,
//!   re-acquiring, acting after `Done`), live-lock (the event-budget
//!   watchdog), and deadlock/starvation (the queue drains with blocked
//!   waiters) surface as [`SimError`] from [`Engine::try_run`], with
//!   stalls carrying the full [`WaitForGraph`]. [`Engine::run`] stays as
//!   the panicking wrapper for infallible workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod engine;
pub mod error;
pub mod resource;
pub mod schedule;
pub mod time;
pub mod trace;

pub use causal::{
    analyze, blame_table_text, critical_gantt, sync_edges, CausalAnalysis, CriticalKind,
    CriticalSegment, GanttModel, HolderBlame, ResourceBlame, Segment, SegmentKind, SyncEdge,
    WhatIf,
};
pub use engine::{Action, Engine, FnProcess, ProcId, Process};
pub use error::{SimError, WaitEdge, WaitForGraph};
pub use resource::ResourceId;
pub use schedule::{
    CascadeRec, ChoiceKind, ChoicePoint, Decision, ForcedSchedule, KnownState, KnownStates,
    NoPolicy, ScheduleLog, SchedulePolicy,
};
pub use time::{SimDuration, SimTime};
pub use trace::{csv_field, xml_escape, EventKind, ProcAccount, Trace, TraceEvent};
