//! # flagsim-shard
//!
//! Scale a sweep past one OS process without changing a single digit of
//! its output. A *coordinator* shards a sweep's repetition range into
//! leases, farms them out to `flagsim worker` processes over a
//! hand-rolled length-prefixed JSON-over-TCP protocol (the workspace is
//! offline — no serde, no tonic), and merges the per-repetition metrics
//! back through `core::sweep`'s one reorder merge ([`MergeState`],
//! re-exported here with [`RepOutcome`]), so the final statistics are
//! **bit-for-bit identical to the serial sweep** at any worker count —
//! the same determinism contract `core::sweep` makes for threads,
//! extended to processes. This crate keeps only the transport around
//! that merge: the wire, sessions, the lease table and checkpoints.
//!
//! The paper's scenario 4 teaches that real parallel systems lose
//! workers; this crate survives failure at every layer:
//!
//! * **Leases + heartbeats** ([`lease`]): every worker holds at most two
//!   rep-range leases, the second queued behind the first so it never
//!   waits a round trip between them; any frame it sends refreshes its
//!   heartbeat, and a deadline miss (or a frame reporting work it does
//!   not owe) declares it dead and returns the unfinished part of its
//!   leases to the pool under the same [`RecoveryPolicy`] vocabulary
//!   the in-simulation fault drills use — `rebalance` hands the work to
//!   the survivors immediately, `spare:SECS` embargoes it while a
//!   replacement is fetched, `abort` stops the campaign and reports.
//! * **Reconnects** ([`coordinator`]): connection attempts back off
//!   exponentially with a cap and an attempt budget.
//! * **Degradation**: when no worker is reachable at all, the
//!   coordinator runs the repetitions in-process (the same
//!   [`SweepRunner::run_rep_stats`](flagsim_core::sweep::SweepRunner::run_rep_stats)
//!   the workers call, on `core::sweep`'s one in-process rep loop,
//!   [`SweepRunner::drive`](flagsim_core::sweep::SweepRunner::drive)), so a dead cluster
//!   costs wall-clock time, never a campaign.
//! * **Checkpoint/resume** ([`checkpoint`]): the coordinator
//!   periodically serializes its [`StreamingStats`] accumulators (exact
//!   bit-level snapshots), the merged-rep watermark, recorded failures,
//!   and any completed-but-unmerged repetitions to a checkpoint file;
//!   `flagsim sweep --resume <ckpt>` continues a killed million-rep
//!   sweep from where it stopped and finishes with statistics
//!   bit-identical to an uninterrupted run and a final checkpoint file
//!   byte-identical to that run's (held by the
//!   `crash_at_every_checkpoint_boundary_resumes_bit_identically` test).
//!
//! * **Distributed observability** ([`wire`], [`fleet`]): when the
//!   coordinator is collecting telemetry, its `hello` propagates the
//!   campaign trace context and workers ship their spans, structured
//!   logs, flow events, and counter deltas back as `telemetry` frames —
//!   merged into one Chrome trace with a track group per worker process
//!   and lease grants drawn as flow arrows. Telemetry frames are
//!   strictly observational (they never reach the merge), so shipping
//!   on, off, or lossy cannot move a single bit of the statistics.
//!
//! [`StreamingStats`]: flagsim_metrics::StreamingStats
//! [`RecoveryPolicy`]: flagsim_core::faults::RecoveryPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod fleet;
pub mod job;
pub mod lease;
pub mod obs_serve;
pub mod wire;
pub mod worker;

pub use checkpoint::{Checkpoint, Inconsistency};
pub use coordinator::{campaign_id, run_sweep, CoordinatorConfig, ShardOutcome, ShardResult};
pub use flagsim_core::sweep::{MergeState, RepOutcome};
pub use fleet::{FleetView, ObsHub, WorkerObs};
pub use job::{JobSpec, MaterializedJob};
pub use lease::{LeaseConfig, LeaseGrant, LeaseTable, WorkerId};
pub use obs_serve::ObsServer;
pub use wire::{read_frame, write_frame, Message, TelemetryBatch, TraceConfig, PROTOCOL_VERSION};
pub use worker::{serve, WorkerOptions};
