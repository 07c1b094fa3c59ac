//! # flagsim-simcheck
//!
//! Static scenario analysis and happens-before race detection for the
//! simulated classroom.
//!
//! The simulator (`flagsim-core` on `flagsim-desim`) tells you what *did*
//! happen on one seed. This crate tells you what *could* happen — before
//! the run, or by analyzing a run's trace:
//!
//! * [`scenario_check`] — the static pre-run checker: flag-spec lints at
//!   the raster the scenario actually uses, partition coverage (every
//!   colorable cell exactly once, right color), lock-order cycles
//!   (potential deadlocks found without simulating), and fault-plan
//!   validation.
//! * [`hb`] — a vector-clock happens-before race detector over a run's
//!   event trace: sync edges come from the same-timestamp
//!   `Released`/`Acquired` hand-off pairing, and same-cell writes that
//!   are not HB-ordered are reported as races together with the
//!   acquire-order tie that hid them.
//! * [`explore`](mod@explore) — the bounded model checker behind `flagsim verify`:
//!   enumerate every resolution of the engine's scheduler ties (with
//!   sleep-set partial-order reduction and state-hash cutting) and prove
//!   outcome invariance or produce a minimal divergent witness pair /
//!   reachable-deadlock schedule.
//! * [`lockorder`] — the lock-order graph the static checker builds,
//!   usable directly for custom scripts like the demo-deadlock drill.
//! * [`diag`] — the shared diagnostics framework: stable `SC###` IDs,
//!   `error`/`warning`/`note` severities, allow-lists, and deterministic
//!   text/JSON exposition.
//! * [`catalog`] — every `SC###` ID with its default severity.
//!
//! Everything renders deterministically: the same findings produce the
//! same bytes, in text and in JSON, independent of thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod diag;
pub mod explore;
pub mod hb;
pub mod lockorder;
pub mod scenario_check;

pub use catalog::{describe, CatalogEntry, CATALOG};
pub use diag::{from_flag_lints, Diag, Report, Severity};
pub use explore::{
    annotate_ties, deadlock_matches_cycle, demo_deadlock_engine, explore, explore_activity,
    explore_engine, format_script, verify_diags, ActivityExploration, Exploration, ExploreConfig,
    Outcome, OutcomeClass, WitnessPair,
};
pub use hb::{acquire_ties, analyze_hb, cell_accesses, check_run, CellAccess, HbAnalysis};
pub use lockorder::{
    demo_deadlock_seqs, scenario_lock_seqs, LockOp, LockOrderGraph, LockSeq,
};
pub use scenario_check::{
    check_advice, check_fault_plan, check_flag_spec, check_lock_order, check_partition,
    full_report, static_report, CheckTarget,
};
