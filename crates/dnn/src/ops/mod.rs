//! Reference (golden-model) operator implementations.
//!
//! These are deliberately simple, obviously-correct implementations; the
//! accelerator simulator and the CPU baseline are both validated against
//! them. All integer ops follow the accelerator's arithmetic: int8 operands,
//! int32 accumulation, explicit requantization (see [`crate::quant`]).

pub mod activation;
pub mod conv;
pub mod im2col;
pub mod matmul;
pub mod norm;
pub mod pool;
pub mod resadd;

pub use activation::{relu, relu6, relu6_tensor, relu_tensor};
pub use conv::{conv2d, dwconv2d, ConvSpec};
pub use im2col::im2col;
pub use matmul::matmul;
pub use pool::{avgpool2d_i8, maxpool2d, pool2d_i8, PoolSpec};
pub use resadd::{resadd_i32, resadd_i8};

/// An element type the spatial array can multiply-accumulate.
///
/// `i8` accumulates into `i32` (the integer datapath); `f32` accumulates
/// into `f32` (the floating-point datapath the generator also supports).
pub trait MacElement: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// The accumulator type.
    type Acc: Copy + Default + PartialEq + std::fmt::Debug + 'static;

    /// One multiply-accumulate: `acc + a * b`.
    fn mac(acc: Self::Acc, a: Self, b: Self) -> Self::Acc;

    /// Adds two accumulator values (used when summing partial products).
    fn acc_add(a: Self::Acc, b: Self::Acc) -> Self::Acc;
}

impl MacElement for i8 {
    type Acc = i32;

    #[inline]
    fn mac(acc: i32, a: i8, b: i8) -> i32 {
        acc.wrapping_add(a as i32 * b as i32)
    }

    #[inline]
    fn acc_add(a: i32, b: i32) -> i32 {
        a.wrapping_add(b)
    }
}

impl MacElement for f32 {
    type Acc = f32;

    #[inline]
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }

    #[inline]
    fn acc_add(a: f32, b: f32) -> f32 {
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_mac_widens_to_i32() {
        // 127*127 would overflow i8 alone; the accumulator holds it.
        assert_eq!(<i8 as MacElement>::mac(0, 127, 127), 16129);
        assert_eq!(<i8 as MacElement>::mac(10, -2, 3), 4);
    }

    #[test]
    fn f32_mac_is_fused_semantics() {
        assert_eq!(<f32 as MacElement>::mac(1.0, 2.0, 3.0), 7.0);
    }

    #[test]
    fn acc_add_sums_partials() {
        assert_eq!(<i8 as MacElement>::acc_add(5, -3), 2);
        assert_eq!(<f32 as MacElement>::acc_add(0.5, 0.25), 0.75);
    }
}
