//! # flagsim-bench
//!
//! The experiment harness: one function per table/figure of the paper,
//! each returning both structured results and a printable report. The
//! `experiments` binary prints them all; the assertions live in the
//! workspace integration tests.
//!
//! Throughput is measured by the one benchmark in `crates/bench/perf`
//! (sweep, shard, engine loop, verify and tracing cost). The determinism
//! and overhead gates are plain `#[test]`s next to the code they hold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{all_experiments, experiments_to_json};
