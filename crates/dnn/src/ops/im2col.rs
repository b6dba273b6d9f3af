//! Reference im2col transformation.
//!
//! im2col turns a convolution into a single large matrix multiplication:
//! each output pixel becomes a row holding the receptive-field patch, and
//! the weights flatten to a `[kh*kw*c, oc]` matrix. In the paper this
//! transformation is performed either by the host CPU (burdening it heavily
//! — Fig. 7's "im2col on CPU" bars) or by the accelerator's optional
//! on-the-fly im2col unit.

use super::conv::ConvSpec;
use crate::tensor::Tensor;

/// Expands `input` (NCHW `[n, c, h, w]`) into the im2col patch matrix of
/// shape `[n*oh*ow, c*kh*kw]`, with zero padding materialized as zeros.
///
/// Column order is `(c, ky, kx)` row-major, matching
/// [`weights_to_matrix`].
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::im2col::im2col;
/// use gemmini_dnn::ops::ConvSpec;
/// let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 2, 3, 4]);
/// let m = im2col(&input, ConvSpec { kernel: 2, stride: 1, padding: 0 });
/// assert_eq!(m.shape(), &[1, 4]);
/// assert_eq!(m.as_slice(), &[1, 2, 3, 4]);
/// ```
pub fn im2col(input: &Tensor<i8>, spec: ConvSpec) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 4, "im2col input must be NCHW");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    let mut out = Tensor::<i8>::zeros(&[n * oh * ow, c * k * k]);
    let cols = c * k * k;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue; // stays zero
                            }
                            let col = (ci * k + ky) * k + kx;
                            out.as_mut_slice()[row * cols + col] =
                                input.at4(ni, ci, iy as usize, ix as usize);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Flattens `[oc, c, kh, kw]` convolution weights to the `[c*kh*kw, oc]`
/// matrix that multiplies an im2col patch matrix.
pub fn weights_to_matrix(weights: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(weights.shape().len(), 4, "weights must be [oc,c,kh,kw]");
    let (oc, c, kh, kw) = (
        weights.shape()[0],
        weights.shape()[1],
        weights.shape()[2],
        weights.shape()[3],
    );
    let rows = c * kh * kw;
    let mut out = Tensor::<i8>::zeros(&[rows, oc]);
    for o in 0..oc {
        for ci in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    out[(r, o)] = weights.at4(o, ci, ky, kx);
                }
            }
        }
    }
    out
}

/// Expands `input` (NCHW) into the **channels-fastest** (NHWC-style) patch
/// matrix of shape `[n*oh*ow, kh*kw*c]`: column `(ky*k + kx)*c + ci`. This
/// is the ordering Gemmini's software stack uses, because the accelerator's
/// GEMM output is pixel-major (NHWC) and feeds the next layer directly.
pub fn im2col_nhwc(input: &Tensor<i8>, spec: ConvSpec) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 4, "im2col input must be NCHW");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    let cols = c * k * k;
    let mut out = Tensor::<i8>::zeros(&[n * oh * ow, cols]);
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                            continue;
                        }
                        for ci in 0..c {
                            let col = (ky * k + kx) * c + ci;
                            out.as_mut_slice()[row * cols + col] =
                                input.at4(ni, ci, iy as usize, ix as usize);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Flattens `[oc, c, kh, kw]` weights to the `[kh*kw*c, oc]` matrix whose
/// row order matches [`im2col_nhwc`].
pub fn weights_to_matrix_nhwc(weights: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(weights.shape().len(), 4, "weights must be [oc,c,kh,kw]");
    let (oc, c, kh, kw) = (
        weights.shape()[0],
        weights.shape()[1],
        weights.shape()[2],
        weights.shape()[3],
    );
    let rows = c * kh * kw;
    let mut out = Tensor::<i8>::zeros(&[rows, oc]);
    for o in 0..oc {
        for ky in 0..kh {
            for kx in 0..kw {
                for ci in 0..c {
                    let r = (ky * kw + kx) * c + ci;
                    out[(r, o)] = weights.at4(o, ci, ky, kx);
                }
            }
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
        let input = Tensor::<i8>::random(&[1, 3, 8, 8], 1);
        let spec = ConvSpec::same(3);
        let m = im2col(&input, spec);
        assert_eq!(m.shape(), &[64, 27]);
    }

    #[test]
    fn padding_materializes_zeros() {
        let input = Tensor::from_vec(&[1, 1, 1, 1], vec![5i8]);
        let m = im2col(&input, ConvSpec::same(3));
        // Single output pixel; the 3x3 patch has the 5 in the middle.
        assert_eq!(m.shape(), &[1, 9]);
        assert_eq!(m.as_slice(), &[0, 0, 0, 0, 5, 0, 0, 0, 0]);
    }

    #[test]
    fn im2col_matmul_equals_direct_conv() {
        // The load-bearing identity: im2col + matmul must reproduce direct
        // convolution exactly, for an awkward geometry (stride 2, pad 1).
        let input = Tensor::<i8>::random(&[2, 3, 7, 7], 11);
        let weights = Tensor::<i8>::random(&[4, 3, 3, 3], 22);
        let spec = ConvSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };

        let direct = conv2d(&input, &weights, spec);

        let patches = im2col(&input, spec);
        let wmat = weights_to_matrix(&weights);
        let gemm = matmul(&patches, &wmat); // [n*oh*ow, oc]

        // Rearrange gemm output ([row, oc]) to NCHW and compare.
        let (n, oc) = (2usize, 4usize);
        let oh = spec.out_size(7);
        let ow = spec.out_size(7);
        for ni in 0..n {
            for o in 0..oc {
                for y in 0..oh {
                    for x in 0..ow {
                        let row = (ni * oh + y) * ow + x;
                        assert_eq!(
                            gemm[(row, o)],
                            direct.at4(ni, o, y, x),
                            "mismatch at n={ni} oc={o} y={y} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_matrix_layout_matches_patch_layout() {
        let w = Tensor::from_vec(&[2, 1, 1, 1], vec![3i8, 4]);
        let m = weights_to_matrix(&w);
        assert_eq!(m.shape(), &[1, 2]);
        assert_eq!(m.as_slice(), &[3, 4]);
    }

    #[test]
    fn nhwc_im2col_matmul_equals_direct_conv() {
        let input = Tensor::<i8>::random(&[1, 3, 6, 6], 31);
        let weights = Tensor::<i8>::random(&[5, 3, 3, 3], 32);
        let spec = ConvSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let direct = conv2d(&input, &weights, spec);
        let patches = im2col_nhwc(&input, spec);
        let wmat = weights_to_matrix_nhwc(&weights);
        let gemm = matmul(&patches, &wmat);
        let oh = spec.out_size(6);
        let ow = spec.out_size(6);
        for o in 0..5 {
            for y in 0..oh {
                for x in 0..ow {
                    assert_eq!(gemm[(y * ow + x, o)], direct.at4(0, o, y, x));
                }
            }
        }
    }

    #[test]
    fn nhwc_column_order_is_channels_fastest() {
        // 2 channels, 1x1 kernel: patch row = the pixel's channel pair.
        let input = Tensor::from_vec(&[1, 2, 1, 1], vec![7i8, 9]);
        let m = im2col_nhwc(
            &input,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(m.as_slice(), &[7, 9]);
    }
}
