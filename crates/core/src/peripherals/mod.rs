//! The optional peripheral circuitry (Section III-A): "Gemmini also
//! supports other commonly-used DNN kernels, e.g., pooling, non-linear
//! activations (ReLU or ReLU6), and matrix-scalar multiplications, through a
//! set of configurable, peripheral circuitry."
//!
//! Two blocks are modelled: the accumulator read-out path (scale, saturate
//! and activate on mvout) and the pooling unit. On-accelerator im2col is
//! charged by the engine's `mvin_im2col`. The matrix-scalar block and the
//! transposer are not modelled: no instruction the kernels issue uses them.

pub mod activation;
pub mod pooling;

pub use activation::{readout_row, readout_row_into, readout_value};
pub use pooling::PoolingUnit;
