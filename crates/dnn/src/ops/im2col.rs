//! Reference im2col transformation.
//!
//! im2col turns a convolution into a single large matrix multiplication:
//! each output pixel becomes a row holding the receptive-field patch, and
//! the weights flatten to a `[kh*kw*c, oc]` matrix. In the paper this
//! transformation is performed either by the host CPU (burdening it heavily
//! — Fig. 7's "im2col on CPU" bars) or by the accelerator's optional
//! on-the-fly im2col unit.
//!
//! Patch columns are channels-fastest, `(ky, kx, c)`, the ordering
//! Gemmini's software stack uses: on an NHWC input each tap of a patch row
//! is one contiguous run of a pixel's channels.

use super::conv::ConvSpec;
use super::nhwc_dims;
use crate::tensor::Tensor;
use std::ops::Range;

/// Expands the channels `channels` of `input` (NHWC `[n, h, w, c]`) into
/// the im2col patch matrix of shape `[n*oh*ow, kh*kw*len]`, `len` being
/// the range's length, with zero padding materialized as zeros. Column
/// `(ky*k + kx)*len + (ci - channels.start)` holds channel `ci` of tap
/// `(ky, kx)`, matching [`weights_to_matrix`] when the range covers every
/// channel. A one-channel range gives the patches of one depthwise
/// channel.
///
/// # Panics
///
/// Panics if `input` is not 4-D or the range is empty or exceeds `c`.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::im2col::im2col;
/// use gemmini_dnn::ops::ConvSpec;
/// // A 2x2 image of two channels: (1, 5) (2, 6) / (3, 7) (4, 8).
/// let input = Tensor::from_vec(&[1, 2, 2, 2], vec![1i8, 5, 2, 6, 3, 7, 4, 8]);
/// let spec = ConvSpec { kernel: 2, stride: 1, padding: 0 };
/// let m = im2col(&input, spec, 0..2);
/// assert_eq!(m.shape(), &[1, 8]);
/// assert_eq!(m.as_slice(), &[1, 5, 2, 6, 3, 7, 4, 8]);
/// assert_eq!(im2col(&input, spec, 1..2).as_slice(), &[5, 6, 7, 8]);
/// ```
pub fn im2col(input: &Tensor<i8>, spec: ConvSpec, channels: Range<usize>) -> Tensor<i8> {
    let [n, h, w, c] = nhwc_dims(input, "im2col input");
    assert!(
        !channels.is_empty() && channels.end <= c,
        "channel range {channels:?} outside 0..{c}"
    );
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let len = channels.len();
    let cols = spec.kernel * spec.kernel * len;
    let mut out = vec![0i8; n * oh * ow * cols];
    let mut rows = out.chunks_exact_mut(cols);
    for image in input.as_slice().chunks_exact(h * w * c) {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = rows.next().expect("one patch row per output pixel");
                spec.for_each_tap((oy, ox), (h, w), |tap, pix| {
                    let from = pix * c + channels.start;
                    if len == 1 {
                        // A depthwise channel's tap is one byte: assign it,
                        // where a copy of unknown length calls memcpy.
                        row[tap] = image[from];
                    } else {
                        row[tap * len..(tap + 1) * len].copy_from_slice(&image[from..from + len]);
                    }
                });
            }
        }
    }
    Tensor::from_vec(&[n * oh * ow, cols], out)
}

/// Flattens `[oc, c, kh, kw]` convolution weights to the `[kh*kw*c, oc]`
/// matrix whose row order matches [`im2col`]'s columns.
pub fn weights_to_matrix(weights: &Tensor<i8>) -> Tensor<i8> {
    let &[oc, c, kh, kw] = weights.shape() else {
        panic!("weights must be [oc,c,kh,kw]");
    };
    let taps = kh * kw;
    let mut out = Tensor::<i8>::zeros(&[taps * c, oc]);
    for (o, filter) in weights.as_slice().chunks_exact(c * taps).enumerate() {
        for (i, &v) in filter.iter().enumerate() {
            // Filter element `i` is channel `i / taps`, tap `i % taps`.
            out[((i % taps) * c + i / taps, o)] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::conv::conv2d;
    use super::super::matmul::matmul;
    use super::*;

    #[test]
    fn patch_matrix_dimensions() {
        let input = Tensor::<i8>::random(&[1, 8, 8, 3], 1);
        let spec = ConvSpec::same(3);
        assert_eq!(im2col(&input, spec, 0..3).shape(), &[64, 27]);
        assert_eq!(im2col(&input, spec, 1..2).shape(), &[64, 9]);
    }

    #[test]
    fn padding_materializes_zeros() {
        let input = Tensor::from_vec(&[1, 1, 1, 1], vec![5i8]);
        let m = im2col(&input, ConvSpec::same(3), 0..1);
        // Single output pixel; the 3x3 patch has the 5 in the middle.
        assert_eq!(m.shape(), &[1, 9]);
        assert_eq!(m.as_slice(), &[0, 0, 0, 0, 5, 0, 0, 0, 0]);
    }

    #[test]
    fn im2col_matmul_equals_direct_conv() {
        // The load-bearing identity: im2col + matmul must reproduce direct
        // convolution exactly, for an awkward geometry (stride 2, pad 1).
        // The GEMM's [pixel, oc] output is the NHWC conv output, byte for
        // byte.
        let input = Tensor::<i8>::random(&[2, 7, 7, 3], 11);
        let weights = Tensor::<i8>::random(&[4, 3, 3, 3], 22);
        let spec = ConvSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let direct = conv2d(&input, &weights, spec);
        let gemm = matmul(&im2col(&input, spec, 0..3), &weights_to_matrix(&weights));
        assert_eq!(gemm.as_slice(), direct.as_slice());
    }

    #[test]
    fn weights_matrix_layout_matches_patch_layout() {
        let w = Tensor::from_vec(&[2, 1, 1, 1], vec![3i8, 4]);
        let m = weights_to_matrix(&w);
        assert_eq!(m.shape(), &[1, 2]);
        assert_eq!(m.as_slice(), &[3, 4]);
        // Two channels, 1x2 taps: rows are (tap, channel), channels fastest.
        let w = Tensor::from_vec(&[1, 2, 1, 2], vec![1i8, 2, 3, 4]);
        assert_eq!(weights_to_matrix(&w).as_slice(), &[1, 3, 2, 4]);
    }

    #[test]
    fn column_order_is_channels_fastest() {
        // 2 channels, 1x1 kernel: patch row = the pixel's channel pair.
        let input = Tensor::from_vec(&[1, 1, 1, 2], vec![7i8, 9]);
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        assert_eq!(im2col(&input, spec, 0..2).as_slice(), &[7, 9]);
        assert_eq!(im2col(&input, spec, 1..2).as_slice(), &[9]);
    }
}
