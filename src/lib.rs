#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Umbrella crate for the Gemmini (DAC 2021) reproduction.
//!
//! Re-exports the full stack so examples and integration tests can depend on
//! a single crate:
//!
//! * [`core`] — the accelerator generator (spatial array, ISA,
//!   local memories, DMA, execution engine).
//! * [`mem`] — shared L2 / DRAM / bus substrate.
//! * [`vm`] — page tables, TLBs, page-table walker, filter
//!   registers.
//! * [`cpu`] — Rocket/BOOM host-CPU timing models and scalar
//!   baselines.
//! * [`dnn`] — tensors, operators, graph IR and the model zoo.
//! * [`soc`] — full-SoC integration and the software stack
//!   (tiling, kernels, runtime).
//! * [`synth`] — analytical area/timing/power models.

pub use gemmini_core as core;
pub use gemmini_cpu as cpu;
pub use gemmini_dnn as dnn;
pub use gemmini_mem as mem;
pub use gemmini_soc as soc;
pub use gemmini_synth as synth;
pub use gemmini_vm as vm;
