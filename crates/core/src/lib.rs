#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The Gemmini accelerator generator, reproduced as a cycle-approximate,
//! functionally-exact simulator.
//!
//! The crate mirrors the paper's Section III architectural template
//! (Fig. 1/Fig. 2):
//!
//! * [`config`] — the generator's parameter space: two-level spatial array
//!   geometry (mesh of tiles of PEs), dataflows, datatypes, local memory
//!   sizes, and the optional peripheral blocks (im2col, pooling,
//!   activations, transposer) as area and feature flags. Includes the
//!   paper's evaluated presets and a generated C header, mirroring the
//!   software stack's `gemmini_params.h`.
//! * [`isa`] — the RoCC-style custom instruction set (CONFIG / MVIN /
//!   MVOUT / PRELOAD / COMPUTE / FLUSH) as typed instructions.
//! * [`mesh`] — the spatial array: one functional int8 matrix unit for the
//!   weight-stationary dataflow, plus the pipeline timing model derived
//!   from the tile/PE hierarchy.
//! * [`scratchpad`] — the int8 scratchpad and the wide int32
//!   accumulator, both functional byte stores with row-granularity.
//! * [`dma`] — the stream DMA engine: every transfer translates through the
//!   accelerator's TLB hierarchy (`gemmini-vm`) and pays for real traffic
//!   through the shared memory system (`gemmini-mem`).
//! * [`peripherals`] — the accumulator read-out path and the pooling unit.
//! * [`engine`] — [`engine::Accelerator`]: the decoupled
//!   load / execute / store scoreboard (Gemmini's ROB) that overlaps DMA
//!   with compute, executes instructions functionally, and accounts cycles.
//! * [`trace`] — the profiler every timed operation reports into: the
//!   always-on cycle-attribution log plus the optional Chrome-trace event
//!   sink (re-exported from `gemmini_mem::trace`).
//! * [`metrics`] — the live-metrics registry handle threaded through the
//!   same components (re-exported from `gemmini_mem::metrics`).
//!
//! # Example
//!
//! ```
//! use gemmini_core::config::GemminiConfig;
//!
//! let cfg = GemminiConfig::edge(); // the paper's 16x16 edge configuration
//! assert_eq!(cfg.dim(), 16);
//! assert_eq!(cfg.pe_count(), 256);
//! assert!(cfg.validate().is_ok());
//! ```

pub mod config;
pub mod dma;
pub mod engine;
pub mod isa;
pub mod mesh;
pub mod metrics;
pub mod peripherals;
pub mod scratchpad;
pub mod trace;

pub use config::{DataType, Dataflow, GemminiConfig};
pub use engine::{AccelError, Accelerator, ExecStats, MemCtx, TileColumn};
pub use isa::Instruction;
