//! The OSARS benchmark: four workloads run against the workspace's
//! public APIs, each printing its end-to-end metrics (untraced) or its
//! per-layer metrics (traced), with every output checked. See
//! `benchmark/README.md` for the metric map.

mod boot;
mod exact;
pub mod report;
mod serve;
mod spans;
mod stats;
pub mod workload;
