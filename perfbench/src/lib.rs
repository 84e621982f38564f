//! The repository benchmark: four workloads (`reproduce`, `sweep`,
//! `sessions`, `certify`) driven from outside through the crates'
//! public APIs, each with a measured run that reports the end-to-end
//! metrics and a traced run that reports the per-layer metrics. See
//! `README.md` in this directory for the workloads and the metrics.

pub mod alloc;
pub mod args;
pub mod certify;
pub mod report;
pub mod reproduce;
pub mod sessions;
pub mod sweep;
pub mod trace;
pub mod util;
