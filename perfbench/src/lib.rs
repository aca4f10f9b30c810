//! Library half of the revmon benchmark: the statistics its reports
//! rest on and the metrics its result line carries, kept here so they
//! are tested on their own
//! (`cargo test --manifest-path perfbench/Cargo.toml`).

pub mod manifest;
pub mod stats;
