//! The repo benchmark's library half: workloads, tracing, statistics and
//! the expected-counts check. `main.rs` is the command line; see
//! `README.md` for what is measured and why.

pub mod contract;
pub mod env;
pub mod expected;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workloads;
