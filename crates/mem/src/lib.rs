#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Memory substrate for the Gemmini reproduction.
//!
//! This crate models every shared-memory component of the simulated SoC:
//!
//! * [`addr`] — address newtypes ([`PhysAddr`], [`VirtAddr`]) and
//!   line/page arithmetic helpers.
//! * [`cache`] — a set-associative, write-back/write-allocate cache with LRU
//!   replacement, used as the SoC's shared L2.
//! * [`dram`] — main-memory timing (fixed latency + finite bandwidth) and
//!   [`dram::MainMemory`], the functional byte store backing physical memory.
//! * [`bus`] — the system bus connecting accelerators and CPUs to the L2.
//! * [`hierarchy`] — [`hierarchy::MemorySystem`], the composed
//!   bus → L2 → DRAM pipeline that the rest of the stack talks to.
//! * [`stats`] — counters and windowed time series used to regenerate the
//!   paper's profile figures, including the per-run
//!   [`stats::CycleAttribution`] breakdown.
//! * [`trace`] — the observability substrate: a zero-overhead-when-disabled
//!   event sink ([`trace::Tracer`]) components emit spans into, the
//!   always-on [`trace::AttributionLog`] the cycle-attribution report is
//!   computed from, and a Chrome `trace_event` JSON exporter for
//!   `chrome://tracing`/Perfetto.
//! * [`spare`] — [`spare::ZeroedU64s`], zeroed `u64` arrays (the L2's tag
//!   and LRU state, the engine scoreboards) recycled through a per-thread
//!   spare list, so consecutive points on one thread reuse their buffers.
//! * [`hash`] — [`hash::IntMap`], a map with a multiplicative hasher for
//!   the simulator's own integer keys (main-memory pages).
//! * [`json`] — a hand-rolled serde-free JSON value model shared by the
//!   sweep checkpoint files and the figure binaries' machine-readable
//!   output (the build environment has no crates.io access).
//! * [`metrics`] — the live-metrics substrate: a lock-free
//!   [`metrics::MetricsRegistry`] of atomic counters behind a
//!   disabled-by-default [`metrics::Metrics`] handle.
//!
//! Timing and data are deliberately decoupled: the cache and DRAM models track
//! only tags and busy-times, while [`dram::MainMemory`] holds actual bytes.
//! This lets the SoC run in a fast timing-only mode (identical address
//! streams, no data movement) for the large figure sweeps, and in a
//! functionally-exact mode for correctness tests.
//!
//! # Example
//!
//! ```
//! use gemmini_mem::hierarchy::{MemorySystem, MemorySystemConfig};
//! use gemmini_mem::addr::PhysAddr;
//!
//! let mut mem = MemorySystem::new(MemorySystemConfig::default());
//! let done = mem.read(0, 0, PhysAddr::new(0x8000_0000), 64);
//! assert!(done > 0); // a cold miss takes L2 + DRAM latency
//! ```

pub mod addr;
pub mod bus;
pub mod cache;
pub mod dram;
pub mod hash;
pub mod hierarchy;
pub mod json;
pub mod metrics;
pub mod spare;
pub mod stats;
pub mod trace;

pub use addr::{PhysAddr, VirtAddr};
pub use cache::{Cache, CacheConfig};
pub use dram::{DramConfig, DramModel, MainMemory};
pub use hierarchy::{MemorySystem, MemorySystemConfig};

/// Simulation time, in accelerator clock cycles.
///
/// A plain alias rather than a newtype: cycle values are combined
/// arithmetically on nearly every line of the timing model, and the
/// physical/virtual address distinction (which *is* newtyped) is where the
/// real confusion bugs live.
pub type Cycle = u64;
