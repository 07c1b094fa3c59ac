//! # flagsim-cli
//!
//! The `flagsim` command-line tool: everything an instructor needs to
//! prepare and debrief the activity without writing Rust.
//!
//! `flagsim help` lists every command with its options, rendered from the
//! option declarations in [`commands`].
//!
//! The command logic lives in [`run`] (pure: args in, output string out)
//! so every command is unit-testable; `src/bin/flagsim.rs` is a thin
//! wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod submission;

pub use commands::{run, CliError};
