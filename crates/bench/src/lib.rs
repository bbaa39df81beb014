//! # tep-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5.3), plus Criterion micro-benchmarks for the
//! matcher's building blocks.
//!
//! The `repro` binary drives the experiments in `tep-eval` and renders
//! their outputs:
//!
//! ```text
//! cargo run -p tep-bench --release --bin repro -- all --out results
//! cargo run -p tep-bench --release --bin repro -- fig7
//! cargo run -p tep-bench --release --bin repro -- table1 --paper-scale
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod costgate;
pub mod gate;
pub mod harness;
pub mod obsgate;
pub mod overload;
pub mod quality;
pub mod report;
pub mod subindex;
pub mod throughput;
