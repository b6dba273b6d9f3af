//! Reference (golden-model) operator implementations.
//!
//! These are deliberately simple, obviously-correct int8 implementations:
//! `reference_forward` in `gemmini-soc` checks the simulator's functional
//! output against them. They follow the accelerator's arithmetic: int8
//! operands, wrapping int32 accumulation, explicit requantization (see
//! [`crate::quant`]). ReLU/ReLU6 is part of the accelerator's read-out
//! (`gemmini_core::peripherals::readout_value`), not an operator here.

pub mod conv;
pub mod im2col;
pub mod matmul;
pub mod pool;
pub mod resadd;

pub use conv::{conv2d, dwconv2d, ConvSpec};
pub use im2col::im2col;
pub use matmul::matmul;
pub use pool::{avgpool2d_i8, maxpool2d, pool2d_i8, PoolSpec};
pub use resadd::resadd_i8;
