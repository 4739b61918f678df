//! uabench: the repository's contract benchmark — four serving workloads
//! driven through `engine::ServingEngine`, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.  See
//! `README.md` for what each workload is for and how the metrics interact.

pub mod bench;
pub mod clock;
pub mod driver;
pub mod gen;
pub mod json;
pub mod layers;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
