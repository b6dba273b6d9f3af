//! Quantization utilities matching the accelerator's arithmetic.
//!
//! Gemmini's integer pipeline takes int8 inputs, accumulates in int32 inside
//! the accumulator SRAM, then scales and saturates back to int8 on the way
//! out (optionally fused with ReLU/ReLU6). These helpers are the golden
//! model of that datapath; the simulator's peripheral circuitry must agree
//! with them bit-for-bit.

use crate::tensor::Tensor;

/// Scaling parameters applied when narrowing an i32 accumulator value back
/// to i8 (`y = clamp(round(x * scale))`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Multiplicative scale applied to the accumulator value.
    pub scale: f32,
}

impl QuantParams {
    /// Identity-ish default used by tests: scale small enough that typical
    /// accumulations land in range.
    pub fn new(scale: f32) -> Self {
        Self { scale }
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

/// Narrows one accumulator value to i8 with round-to-nearest-even and
/// saturation — the accumulator's output stage.
///
/// # Example
///
/// ```
/// use gemmini_dnn::quant::{requantize, QuantParams};
/// assert_eq!(requantize(1000, QuantParams::new(0.1)), 100);
/// assert_eq!(requantize(10_000, QuantParams::new(0.1)), 127); // saturates
/// assert_eq!(requantize(-10_000, QuantParams::new(0.1)), -128);
/// ```
#[inline]
pub fn requantize(acc: i32, params: QuantParams) -> i8 {
    let scaled = acc as f64 * params.scale as f64;
    // Round half to even, like the RTL's rounding shifter.
    let rounded = round_half_even(scaled);
    rounded.clamp(i8::MIN as f64, i8::MAX as f64) as i8
}

fn round_half_even(x: f64) -> f64 {
    let floor = x.floor();
    let frac = x - floor;
    if (frac - 0.5).abs() < f64::EPSILON {
        if (floor as i64) % 2 == 0 {
            floor
        } else {
            floor + 1.0
        }
    } else {
        x.round()
    }
}

/// Requantizes a whole i32 tensor to i8.
pub fn requantize_tensor(acc: &Tensor<i32>, params: QuantParams) -> Tensor<i8> {
    acc.map(|x| requantize(x, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requantize_scales_and_rounds() {
        assert_eq!(requantize(100, QuantParams::new(0.5)), 50);
        assert_eq!(requantize(101, QuantParams::new(0.5)), 50); // 50.5 rounds to even
        assert_eq!(requantize(103, QuantParams::new(0.5)), 52); // 51.5 rounds to even 52
        assert_eq!(requantize(-100, QuantParams::new(0.5)), -50);
    }

    #[test]
    fn requantize_saturates_both_ends() {
        assert_eq!(requantize(i32::MAX, QuantParams::new(1.0)), 127);
        assert_eq!(requantize(i32::MIN, QuantParams::new(1.0)), -128);
    }

    #[test]
    fn identity_scale_passes_small_values() {
        for v in -128..=127 {
            assert_eq!(requantize(v, QuantParams::default()), v as i8);
        }
    }

    #[test]
    fn tensor_requantization_is_elementwise() {
        let acc = Tensor::from_vec(&[3], vec![100, -100, 10_000]);
        let out = requantize_tensor(&acc, QuantParams::new(0.1));
        assert_eq!(out.as_slice(), &[10, -10, 127]);
    }

    #[test]
    fn round_half_even_behaviour() {
        assert_eq!(round_half_even(0.5), 0.0);
        assert_eq!(round_half_even(1.5), 2.0);
        assert_eq!(round_half_even(2.5), 2.0);
        assert_eq!(round_half_even(-0.5), 0.0);
        assert_eq!(round_half_even(1.4), 1.0);
    }
}
