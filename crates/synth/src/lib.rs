#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Analytical synthesis model for Gemmini-generated accelerators.
//!
//! The paper's physical results come from Cadence Genus/Innovus runs in
//! Intel 22FFL. No PDK or EDA flow exists in this environment, so this
//! crate replaces them with an analytical model whose per-component
//! constants are **calibrated to the paper's published numbers**:
//!
//! * the Fig. 6a area breakdown (16×16 array 116 kµm², 256 KiB scratchpad
//!   544 kµm², 64 KiB accumulator 146 kµm², Rocket 171 kµm²), and
//! * the Fig. 3 systolic-vs-vector comparison (≈2.7× fmax, ≈1.8× area,
//!   ≈3.0× power for 256 PEs).
//!
//! The model exposes the same design-space knobs as the generator, so the
//! comparisons the paper makes (and any sweep in between, per
//! "any other design points in between these two extremes") can be
//! regenerated.
//!
//! # Example
//!
//! ```
//! use gemmini_synth::area::accelerator_area;
//! use gemmini_core::config::GemminiConfig;
//!
//! let report = accelerator_area(&GemminiConfig::edge());
//! // SRAMs dominate: the paper reports 67.1% of accelerator area.
//! assert!(report.sram_fraction() > 0.6);
//! ```

pub mod area;
pub mod energy;
pub mod floorplan;
pub mod power;
pub mod report;
pub mod tech;
pub mod timing;

pub use area::{accelerator_area, AreaReport};
pub use energy::{inference_energy, EnergyReport, RunActivity};
pub use power::{spatial_array_power, PowerReport};
pub use timing::{fmax_ghz, SpatialArrayTiming};
