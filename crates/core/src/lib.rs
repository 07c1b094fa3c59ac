//! # flagsim-core
//!
//! The paper's contribution, executable: the flag-coloring unplugged
//! activity as a discrete-event simulation.
//!
//! A [`scenario::Scenario`] describes who colors what in which order (the
//! four panels of Fig. 1, the Webster variation, or anything custom); an
//! [`config::ActivityConfig`] adds the team, their drawing implements and
//! the stochastic cost model; [`run::run_activity`] wires it all into the
//! [`flagsim_desim`] engine — students are processes, the team's one
//! marker of each color is an exclusive resource — and returns a
//! [`report::RunReport`] with the completion time the scenario's timer
//! student would have shouted out, plus everything the timer couldn't
//! see: per-student busy/wait/idle, per-marker contention, and the final
//! grid (verified against the flag's reference raster).
//!
//! [`classroom::ClassroomSession`] runs whole lesson plans — several teams,
//! scenario after scenario, with students' warm-up experience persisting
//! the way it does in a real classroom — and keeps the "times on the
//! board". [`layered`] covers the Knox follow-up: dependency graphs for
//! layered flags, scheduled with `flagsim_taskgraph`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod classroom;
pub mod config;
pub mod discussion;
pub mod explain;
pub mod faults;
pub mod glossary;
pub mod layered;
pub mod partition;
pub mod replay;
pub mod report;
pub mod run;
pub mod scenario;
pub mod slides;
pub mod sweep;
pub mod work;

pub use config::{ActivityConfig, ReleasePolicy, TeamKit};
pub use explain::{explain_report, explain_scenario, Explanation};
pub use faults::{FaultEvent, FaultPlan, RecoveryPolicy, ResilienceReport};
pub use partition::{CellOrder, PartitionStrategy};
pub use report::{RepSample, RunReport, Stroke};
pub use run::{
    run_activity, run_activity_with_faults, ActivityOutcome, OutcomeFingerprint, ScheduledRuns,
};
pub use scenario::Scenario;
pub use work::WorkItem;
