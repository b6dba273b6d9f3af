#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Host-CPU timing models for the Gemmini reproduction.
//!
//! The paper evaluates two hosts: "a low-power in-order Rocket core, and a
//! high-performance out-of-order BOOM core". The full FireSim RTL
//! simulation of those cores is replaced here by calibrated per-operation
//! cost models (see `DESIGN.md` for the substitution argument): host-CPU
//! effects in the evaluation are throughput-ratio driven — how fast the
//! scalar core grinds through DNN loops, im2col, and the vector ops the
//! accelerator does not implement.
//!
//! * [`model`] — [`model::CpuModel`]: per-operation cycle costs for Rocket,
//!   with BOOM as a calibrated IPC multiple.
//! * [`kernels`] — whole-layer and whole-network CPU execution cycles (the
//!   Fig. 7 baseline).
//!
//! [`model::CpuModel::im2col_cycles`] is the CPU-side im2col cost (the
//! burden the optional accelerator block removes).
//!
//! # Example
//!
//! ```
//! use gemmini_cpu::model::{CpuKind, CpuModel};
//! use gemmini_cpu::kernels::network_cpu_cycles;
//! use gemmini_dnn::zoo;
//!
//! let rocket = CpuModel::new(CpuKind::Rocket);
//! let boom = CpuModel::new(CpuKind::Boom);
//! let net = zoo::resnet50();
//! assert!(network_cpu_cycles(&rocket, &net) > network_cpu_cycles(&boom, &net));
//! ```

pub mod kernels;
pub mod model;

pub use model::{CpuKind, CpuModel};
