//! # swishmem-bench
//!
//! The experiment harness that regenerates every table and quantitative
//! claim of the SwiShmem paper (DESIGN.md §5 maps experiment ids to paper
//! anchors; EXPERIMENTS.md records paper-vs-measured).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin experiments
//! cargo run -p swishmem-bench --release --bin experiments -- e2 e5   # subset
//! cargo run -p swishmem-bench --release --bin experiments -- --quick # fast sweep
//! cargo run -p swishmem-bench --release --bin experiments -- --json out.json
//! ```
//!
//! Criterion micro-benchmarks for the hot paths live under `benches/`.
#![allow(clippy::field_reassign_with_default)] // experiment configs read clearer as sequential overrides

pub mod cli;
pub mod experiments;
pub mod json;
pub mod scenarios;
pub mod shardnet;
pub mod spans;
pub mod table;

pub use table::{ExperimentResult, Table};
