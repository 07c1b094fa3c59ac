//! # flagsim-threads
//!
//! The activity on real cores: the same flag partitions the classroom
//! uses, executed by actual OS threads over simulated per-cell work.
//!
//! This is the bridge from the unplugged metaphor back to hardware —
//! the Webster instructor's NVIDIA video moment ("one barrel per pixel"),
//! runnable:
//!
//! * [`executor`] — sequential baseline, one-thread-per-partition static
//!   execution, dynamic chunk-stealing execution, and a shared-implement
//!   mode where one [`parking_lot::Mutex`] per color plays the role of the
//!   team's single marker (scenario 4's contention, now with real lock
//!   queues).
//! * [`workload`] — a calibrated spin that stands in for "coloring one
//!   cell" (deterministic CPU work, no sleeps, so contention effects are
//!   real).
//! * [`gpu`] — the data-parallel "one shot" contrast: how many sequential
//!   trigger pulls a CPU barrel needs versus a GPU's single volley.
//!
//! Every mode produces the same flag, verified cell-for-cell against the
//! reference raster. Wall-clock speedups obviously depend on the machine's
//! core count (a single-core host will show none — which is itself the
//! activity's "technology differences matter" lesson).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod gpu;
pub mod pipeline;
pub mod workload;

pub use executor::{ExecMode, Outcome, ParallelColorer, WorkerFault};
pub use pipeline::{run_pipeline, PipelineOutcome};
pub use workload::CellWorkload;
