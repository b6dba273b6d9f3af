//! Live metrics, re-exported from [`gemmini_mem::metrics`].
//!
//! The substrate lives in `gemmini-mem` (the bottom of the crate stack)
//! so the memory hierarchy, the TLB/PTW layer and the engine can all
//! record into one shared registry; this alias gives the rest of the
//! stack the `gemmini_core::metrics` path, mirroring [`crate::trace`].

pub use gemmini_mem::metrics::{Counter, Metrics, MetricsRegistry, MetricsSnapshot};
