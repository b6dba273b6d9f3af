#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Full-SoC integration and the multi-level software stack.
//!
//! This crate is where the paper's "full-stack" claim lives: it combines
//! the generated accelerator (`gemmini-core`), the host CPU models
//! (`gemmini-cpu`), virtual memory (`gemmini-vm`) and the shared memory
//! system (`gemmini-mem`) into bootable-SoC-shaped simulations, and layers
//! the software stack on top:
//!
//! * [`tiling`] — the runtime data-staging heuristic (Section III-B):
//!   computes loop tile sizes that maximize scratchpad residency, with a
//!   manual override mirroring the low-level C API.
//! * [`kernel`] — the tuned kernel library: tiled matmul (with either a
//!   materialized A matrix or the on-the-fly im2col block), depthwise
//!   convolution, residual addition, pooling and CPU-side vector ops, all
//!   expressed as resumable state machines so multi-core simulations can
//!   interleave at tile granularity.
//! * [`runtime`] — the push-button flow: takes a [`gemmini_dnn::Network`]
//!   (our ONNX substitute) and executes it layer by layer, choosing
//!   accelerator or CPU per operator exactly as the real stack does.
//! * [`soc`] — SoC configuration: cores (CPU + accelerator + translation
//!   hardware), the shared L2/DRAM, and multi-core construction (Fig. 5).
//! * [`os`] — OS noise: periodic context switches that flush translation
//!   state, reproducing the paper's observation that a real OS perturbs
//!   accelerator state in ways bare-metal runs never see.
//! * [`roofline`] — analytic compute/memory lower bounds used as a
//!   self-check on the timing model (no simulated layer may beat them).
//! * [`run`] — the experiment driver: runs one network per core to
//!   completion and produces the per-layer / per-class / translation /
//!   cache reports every figure of the evaluation consumes.
//! * [`sweep`] — the parallel design-space sweep executor: runs a batch
//!   of named [`soc::SocConfig`] points across a worker pool with
//!   per-point fault isolation, deterministic result ordering and a
//!   progress/ETA line; every figure binary drives its sweep through this.
//! * [`checkpoint`] — the CRC-sealed JSON-line file behind `--json` and
//!   `--resume`: a killed sweep resumes from the points it persisted.
//!
//! # Example
//!
//! ```no_run
//! use gemmini_soc::run::{run_networks, RunOptions};
//! use gemmini_soc::soc::SocConfig;
//! use gemmini_dnn::zoo;
//!
//! let report = run_networks(
//!     &SocConfig::edge_single_core(),
//!     &[zoo::resnet50()],
//!     &RunOptions::timing(),
//! ).expect("run succeeds");
//! println!("ResNet50: {} cycles", report.cores[0].total_cycles);
//! ```

pub mod checkpoint;
pub mod kernel;
pub mod os;
pub mod roofline;
pub mod run;
pub mod runtime;
pub mod soc;
pub mod sweep;
pub mod tiling;

pub use run::{run_networks, CoreReport, RunOptions, SocReport};
pub use soc::{CoreConfig, SocConfig};
pub use sweep::{run_sweep_with, DesignPoint, SweepError, SweepOptions, SweepResult};
pub use tiling::TilePlan;
