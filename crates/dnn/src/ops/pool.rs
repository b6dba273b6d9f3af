//! Reference pooling (the accelerator's pooling peripheral) over NHWC
//! feature maps.

use super::conv::ConvSpec;
use super::nhwc_dims;
use crate::graph::PoolKind;
use crate::tensor::Tensor;

/// Int8 pooling over an NHWC `[n, h, w, c]` tensor, returning
/// `[n, oh, ow, c]`. The window walks the input like a convolution
/// kernel, so its geometry is a [`ConvSpec`]. Max pooling takes the
/// largest element of each window, padding excluded. Average pooling sums
/// the window in i32 and divides by the full window area (padding counts
/// as zeros), rounding to nearest with ties away from zero.
///
/// # Panics
///
/// Panics if `input` is not 4-D, the geometry yields no output pixels, or
/// a max-pooling window lies wholly in the padding.
///
/// # Example
///
/// ```
/// use gemmini_dnn::graph::PoolKind;
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::{pool2d_i8, ConvSpec};
/// let t = Tensor::from_vec(&[1, 2, 2, 1], vec![1i8, 9, 3, 4]);
/// let spec = ConvSpec { kernel: 2, stride: 2, padding: 0 };
/// assert_eq!(pool2d_i8(&t, PoolKind::Max, spec).as_slice(), &[9]);
/// assert_eq!(pool2d_i8(&t, PoolKind::Avg, spec).as_slice(), &[4]);
/// ```
pub fn pool2d_i8(input: &Tensor<i8>, kind: PoolKind, window: ConvSpec) -> Tensor<i8> {
    let [n, h, w, c] = nhwc_dims(input, "pool input");
    let (oh, ow) = (window.out_size(h), window.out_size(w));
    let area = (window.kernel * window.kernel) as i32;
    // Per channel of one output pixel: the running max, `i32::MIN` until
    // a tap lands, or the running sum.
    let mut acc = vec![0i32; c];
    let mut out = Vec::with_capacity(n * oh * ow * c);
    for image in input.as_slice().chunks_exact(h * w * c) {
        for oy in 0..oh {
            for ox in 0..ow {
                acc.fill(match kind {
                    PoolKind::Max => i32::MIN,
                    PoolKind::Avg => 0,
                });
                window.for_each_tap((oy, ox), (h, w), |_, pix| {
                    for (a, &v) in acc.iter_mut().zip(&image[pix * c..(pix + 1) * c]) {
                        *a = match kind {
                            PoolKind::Max => (*a).max(v.into()),
                            PoolKind::Avg => *a + i32::from(v),
                        };
                    }
                });
                out.extend(acc.iter().map(|&a| match kind {
                    PoolKind::Max => {
                        assert!(
                            a != i32::MIN,
                            "pooling window contains at least one valid element"
                        );
                        a as i8
                    }
                    // Round to nearest, ties away from zero.
                    PoolKind::Avg => {
                        let q = if a >= 0 {
                            (a + area / 2) / area
                        } else {
                            (a - area / 2) / area
                        };
                        q.clamp(i8::MIN as i32, i8::MAX as i32) as i8
                    }
                }));
            }
        }
    }
    Tensor::from_vec(&[n, oh, ow, c], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_pooling_matches_reference() {
        let t = Tensor::from_vec(&[1, 2, 2, 1], vec![1i8, 5, 3, 4]);
        let spec = ConvSpec {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(pool2d_i8(&t, PoolKind::Max, spec).as_slice(), &[5]);
        assert_eq!(pool2d_i8(&t, PoolKind::Avg, spec).as_slice(), &[3]);
    }

    #[test]
    fn maxpool_picks_window_maximum() {
        let t = Tensor::from_vec(&[1, 4, 4, 1], (0..16).map(|x| x as i8).collect());
        let out = pool2d_i8(
            &t,
            PoolKind::Max,
            ConvSpec {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_handles_negative_values() {
        let t = Tensor::from_vec(&[1, 2, 2, 1], vec![-5i8, -9, -1, -3]);
        let out = pool2d_i8(
            &t,
            PoolKind::Max,
            ConvSpec {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[-1]);
    }

    #[test]
    fn maxpool_padding_excludes_pad_elements() {
        // All values negative: padding must not inject zeros into the max.
        let t = Tensor::from_vec(&[1, 2, 2, 1], vec![-5i8, -9, -1, -3]);
        let out = pool2d_i8(
            &t,
            PoolKind::Max,
            ConvSpec {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        );
        // Every 3x3 window over the 2x2 map covers all four elements.
        assert_eq!(out.as_slice(), &[-1, -1, -1, -1]);
    }

    #[test]
    fn avgpool_rounds_to_nearest() {
        let t = Tensor::from_vec(&[1, 2, 2, 1], vec![1i8, 2, 3, 5]);
        let out = pool2d_i8(
            &t,
            PoolKind::Avg,
            ConvSpec {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
        );
        // (1+2+3+5)/4 = 2.75 -> 3
        assert_eq!(out.as_slice(), &[3]);
    }

    #[test]
    fn avgpool_negative_rounding_away_from_zero() {
        let t = Tensor::from_vec(&[1, 2, 2, 1], vec![-1i8, -2, -3, -4]);
        let out = pool2d_i8(
            &t,
            PoolKind::Avg,
            ConvSpec {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
        );
        // -10/4 = -2.5 -> -3 (away from zero)
        assert_eq!(out.as_slice(), &[-3]);
    }

    #[test]
    fn global_average_pool() {
        // ResNet50's final pool: 7x7 global average.
        let t = Tensor::from_vec(&[1, 7, 7, 1], vec![7i8; 49]);
        let out = pool2d_i8(
            &t,
            PoolKind::Avg,
            ConvSpec {
                kernel: 7,
                stride: 7,
                padding: 0,
            },
        );
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice(), &[7]);
    }

    #[test]
    fn channels_pool_independently() {
        // Two channels of a 2x2 map, NHWC: channel 0 = [1, 2, 3, 4],
        // channel 1 = [-8, -6, -4, -2].
        let t = Tensor::from_vec(&[1, 2, 2, 2], vec![1i8, -8, 2, -6, 3, -4, 4, -2]);
        let spec = ConvSpec {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(pool2d_i8(&t, PoolKind::Max, spec).as_slice(), &[4, -2]);
        assert_eq!(pool2d_i8(&t, PoolKind::Avg, spec).as_slice(), &[3, -5]);
    }
}
