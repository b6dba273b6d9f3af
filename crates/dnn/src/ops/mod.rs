//! Reference (golden-model) operator implementations.
//!
//! These are deliberately simple, obviously-correct int8 implementations:
//! `reference_forward` in `gemmini-soc` checks the simulator's functional
//! output against them. They follow the accelerator's arithmetic: int8
//! operands, wrapping int32 accumulation, explicit requantization (see
//! [`crate::quant`]). ReLU/ReLU6 is part of the accelerator's read-out
//! (`gemmini_core::peripherals::readout_value`), not an operator here.
//!
//! Feature maps are NHWC (`[n, h, w, c]`), the layout the runtime keeps
//! activations in: a pixel's channels are contiguous, so a GEMM-lowered
//! convolution's `[pixel, oc]` output is the next layer's input as is.

pub mod conv;
pub mod im2col;
pub mod matmul;
pub mod pool;
pub mod resadd;

pub use conv::{conv2d, dwconv2d, ConvSpec};
pub use im2col::im2col;
pub use matmul::matmul;
pub use pool::pool2d_i8;
pub use resadd::resadd_i8;

/// The `[n, h, w, c]` dimensions of an NHWC feature map.
///
/// # Panics
///
/// Panics, naming `what`, if the tensor is not 4-D.
fn nhwc_dims<T: Copy>(t: &crate::tensor::Tensor<T>, what: &str) -> [usize; 4] {
    match *t.shape() {
        [n, h, w, c] => [n, h, w, c],
        ref s => panic!("{what} must be NHWC [n, h, w, c], got {s:?}"),
    }
}
