//! # hyperdex-bench
//!
//! The experiment harness that regenerates every table and figure of
//! *Keyword Search in DHT-based Peer-to-Peer Networks* (ICDCS 2005),
//! plus the ablations DESIGN.md calls out.
//!
//! Run via the `experiments` binary:
//!
//! ```text
//! cargo run -p hyperdex-bench --release --bin experiments -- all
//! cargo run -p hyperdex-bench --release --bin experiments -- fig6 fig8 --scale small
//! ```
//!
//! Each experiment prints a self-describing report (markdown tables /
//! JSON series) to stdout; EXPERIMENTS.md records a full-scale run next
//! to the paper's published curves.
//!
//! Nothing here times the serving path: per-operation and end-to-end
//! wall-clock numbers come from the standalone `benchmark/` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{Scale, SharedContext};
