//! Host-performance benchmark of the Gemmini simulator, end to end and
//! layer by layer. See `README.md` for the workloads, the metrics and what
//! each metric is expected to move.
//!
//! The parent process only orchestrates: every measured round and the
//! traced pass run in a child process of their own (the same executable),
//! one at a time, each printing one JSON line.

pub mod calibrate;
pub mod measure;
pub mod micro;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
