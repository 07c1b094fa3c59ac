//! One-stop imports for the common workflow.
//!
//! ```
//! use flagsim::prelude::*;
//!
//! let flag = PreparedFlag::new(&library::mauritius());
//! let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
//! let mut team: Vec<StudentProfile> =
//!     (1..=4).map(|i| StudentProfile::new(format!("P{i}"))).collect();
//! let report = Scenario::fig1(3)
//!     .run(&flag, &mut team, &kit, &ActivityConfig::default())
//!     .unwrap();
//! assert!(report.correct);
//! ```

pub use flagsim_agents::{CostModel, Implement, ImplementKind, StudentProfile};
pub use flagsim_core::classroom::ClassroomSession;
pub use flagsim_core::config::{ActivityConfig, ReleasePolicy, TeamKit};
pub use flagsim_core::partition::{CellOrder, PartitionStrategy};
pub use flagsim_core::scenario::Scenario;
pub use flagsim_core::work::{PreparedFlag, WorkItem};
pub use flagsim_core::RunReport;
pub use flagsim_flags::{library, FlagSpec};
pub use flagsim_grid::{render, Color, Grid};
pub use flagsim_metrics::{efficiency, speedup, RunStats};
pub use flagsim_taskgraph::{list_schedule, Priority, TaskGraph};
