//! The accumulator read-out path: scale, saturate, and activate.
//!
//! When an mvout reads the int32 accumulator, the hardware multiplies each
//! value by the configured scale, rounds and saturates to int8, and applies
//! the configured activation. This module is that datapath's golden model;
//! it adds no cycles of its own (it is inline with the store stream).
//!
//! Note on ReLU6: the clamp value of a quantized ReLU6 depends on the
//! layer's output scale. The reproduction fixes the clamped representation
//! at `6` in output units — the reference kernels in `gemmini-soc` use the
//! same convention, so functional cross-checks are exact.

use gemmini_dnn::graph::Activation;
use gemmini_dnn::quant::{requantize, QuantParams};

/// The int8 representation of 6.0 used by the ReLU6 clamp (see module docs).
pub const RELU6_CLAMP: i8 = 6;

/// Converts one accumulator row to output int8 values: ReLU-family
/// activations are applied in accumulator space, then each value is scaled
/// and saturated.
///
/// # Example
///
/// ```
/// use gemmini_core::peripherals::readout_row;
/// use gemmini_dnn::graph::Activation;
/// let out = readout_row(&[100, -100], Activation::Relu, 0.1);
/// assert_eq!(out, vec![10, 0]);
/// ```
pub fn readout_row(acc: &[i32], activation: Activation, scale: f32) -> Vec<i8> {
    let params = QuantParams::new(scale);
    acc.iter()
        .map(|&x| readout_value(x, activation, params))
        .collect()
}

/// The per-element read-out datapath: activation in accumulator space, then
/// scale-and-saturate, then the ReLU6 output clamp.
#[inline]
pub fn readout_value(x: i32, activation: Activation, params: QuantParams) -> i8 {
    let x = match activation {
        Activation::None => x,
        Activation::Relu | Activation::Relu6 => x.max(0),
    };
    let y = requantize(x, params);
    match activation {
        Activation::Relu6 => y.min(RELU6_CLAMP),
        _ => y,
    }
}

/// Appends one accumulator row's read-out to `out` as store-stream bytes
/// (each int8 output reinterpreted as `u8`) — the allocation-free variant
/// [`readout_row`] the engine's mvout path uses with a reused arena.
pub fn readout_row_into(acc: &[i32], activation: Activation, scale: f32, out: &mut Vec<u8>) {
    let params = QuantParams::new(scale);
    // One match per row: each arm's closure is its own type, so its loop
    // inlines `readout_value` with a constant activation.
    let row = acc.iter();
    match activation {
        Activation::None => {
            out.extend(row.map(|&x| readout_value(x, Activation::None, params) as u8))
        }
        Activation::Relu => {
            out.extend(row.map(|&x| readout_value(x, Activation::Relu, params) as u8))
        }
        Activation::Relu6 => {
            out.extend(row.map(|&x| readout_value(x, Activation::Relu6, params) as u8))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_just_requantizes() {
        assert_eq!(
            readout_row(&[50, -50], Activation::None, 1.0),
            vec![50, -50]
        );
        assert_eq!(readout_row(&[1000], Activation::None, 0.1), vec![100]);
    }

    #[test]
    fn relu_zeroes_negatives_before_scaling() {
        assert_eq!(
            readout_row(&[-1000, 1000], Activation::Relu, 0.1),
            vec![0, 100]
        );
    }

    #[test]
    fn relu6_clamps_output() {
        assert_eq!(
            readout_row(&[1000, 40, -10], Activation::Relu6, 0.1),
            vec![6, 4, 0]
        );
    }

    #[test]
    fn saturation_applies() {
        assert_eq!(readout_row(&[i32::MAX], Activation::None, 1.0), vec![127]);
        assert_eq!(readout_row(&[i32::MIN], Activation::None, 1.0), vec![-128]);
    }
}
