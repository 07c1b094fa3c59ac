//! # flagsim-agents
//!
//! The human side of the activity, as a calibrated stochastic model:
//!
//! * [`ImplementKind`] — bingo daubers, thick/thin markers, crayons, with
//!   per-cell base costs ordered as the paper observed ("daubers were the
//!   fastest, followed by thick markers, and then thin markers"; crayons
//!   drew complaints) and condition states for failure injection (the §IV
//!   dry-run advice: "Are the markers dead?").
//! * [`StudentProfile`] — skill multipliers and a warm-up curve: early
//!   cells are slow and speed approaches steady state as the student gets
//!   "used to the task and tools", which is what makes a repeat of
//!   scenario 1 "significantly better than in the first trial" and powers
//!   the paper's system-warmup analogy (caching, power-saving exit, JIT).
//! * [`CostModel`] — seeded, deterministic sampling of per-cell coloring
//!   times and marker hand-off delays (lognormal noise via Box–Muller; no
//!   external distribution crates), with a vectorised [`noise`] kernel
//!   for whole batches of cells.
//!
//! All times are `f64` seconds here; the simulation layer converts to
//! integer [`SimDuration`](https://docs.rs/flagsim-desim)s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod implement;
pub mod noise;
pub mod student;

pub use cost::{CellKind, CostModel, CostParams};
pub use implement::{Condition, Implement, ImplementKind};
pub use student::StudentProfile;
