//! Reference pooling operators (the accelerator's pooling peripheral).

use crate::graph::PoolKind;
use crate::tensor::Tensor;

/// Pooling geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Window height/width.
    pub size: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each edge (padded elements are excluded from max
    /// pooling and counted as zeros in average pooling, matching common
    /// framework semantics for count_include_pad=true).
    pub padding: usize,
}

impl PoolSpec {
    /// Output spatial size for an input of `in_size`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields no output pixels.
    pub fn out_size(&self, in_size: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        assert!(
            padded >= self.size && self.stride > 0,
            "pooling geometry produces no output: in={in_size} {self:?}"
        );
        (padded - self.size) / self.stride + 1
    }
}

/// Max pooling over an int8 NCHW tensor.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::{maxpool2d, PoolSpec};
/// let t = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 9, 3, 4]);
/// let out = maxpool2d(&t, PoolSpec { size: 2, stride: 2, padding: 0 });
/// assert_eq!(out.as_slice(), &[9]);
/// ```
pub fn maxpool2d(input: &Tensor<i8>, spec: PoolSpec) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 4, "pool input must be NCHW");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let mut out = Tensor::<i8>::zeros(&[n, c, oh, ow]);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best: Option<i8> = None;
                    for ky in 0..spec.size {
                        for kx in 0..spec.size {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let v = input.at4(ni, ci, iy as usize, ix as usize);
                            best = Some(match best {
                                Some(b) if b >= v => b,
                                _ => v,
                            });
                        }
                    }
                    *out.at4_mut(ni, ci, oy, ox) =
                        best.expect("pooling window contains at least one valid element");
                }
            }
        }
    }
    out
}

/// Average pooling over an int8 NCHW tensor, accumulating in i32 and
/// rounding to nearest (ties away from zero), dividing by the full window
/// area (padding counts as zeros).
pub fn avgpool2d_i8(input: &Tensor<i8>, spec: PoolSpec) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 4, "pool input must be NCHW");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let area = (spec.size * spec.size) as i32;
    let mut out = Tensor::<i8>::zeros(&[n, c, oh, ow]);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut sum: i32 = 0;
                    for ky in 0..spec.size {
                        for kx in 0..spec.size {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            sum += input.at4(ni, ci, iy as usize, ix as usize) as i32;
                        }
                    }
                    // Round to nearest, ties away from zero.
                    let q = if sum >= 0 {
                        (sum + area / 2) / area
                    } else {
                        (sum - area / 2) / area
                    };
                    *out.at4_mut(ni, ci, oy, ox) = q.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                }
            }
        }
    }
    out
}

/// Int8 pooling of either kind: [`maxpool2d`] or [`avgpool2d_i8`].
pub fn pool2d_i8(input: &Tensor<i8>, kind: PoolKind, spec: PoolSpec) -> Tensor<i8> {
    match kind {
        PoolKind::Max => maxpool2d(input, spec),
        PoolKind::Avg => avgpool2d_i8(input, spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_pooling_matches_reference() {
        let t = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 5, 3, 4]);
        let spec = PoolSpec {
            size: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(pool2d_i8(&t, PoolKind::Max, spec).as_slice(), &[5]);
        assert_eq!(pool2d_i8(&t, PoolKind::Avg, spec).as_slice(), &[3]);
    }

    #[test]
    fn out_size_math() {
        let s = PoolSpec {
            size: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(s.out_size(112), 56); // ResNet50 stem pool
        let s = PoolSpec {
            size: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(s.out_size(8), 4);
    }

    #[test]
    fn maxpool_picks_window_maximum() {
        let t = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|x| x as i8).collect());
        let out = maxpool2d(
            &t,
            PoolSpec {
                size: 2,
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_handles_negative_values() {
        let t = Tensor::from_vec(&[1, 1, 2, 2], vec![-5i8, -9, -1, -3]);
        let out = maxpool2d(
            &t,
            PoolSpec {
                size: 2,
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[-1]);
    }

    #[test]
    fn maxpool_padding_excludes_pad_elements() {
        // All values negative: padding must not inject zeros into the max.
        let t = Tensor::from_vec(&[1, 1, 2, 2], vec![-5i8, -9, -1, -3]);
        let out = maxpool2d(
            &t,
            PoolSpec {
                size: 3,
                stride: 1,
                padding: 1,
            },
        );
        // Every window contains -1, the global max, except corners.
        assert_eq!(out.at4(0, 0, 1, 1), -1);
        assert_eq!(out.at4(0, 0, 0, 0), -1); // window covers all four
    }

    #[test]
    fn avgpool_rounds_to_nearest() {
        let t = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 2, 3, 5]);
        let out = avgpool2d_i8(
            &t,
            PoolSpec {
                size: 2,
                stride: 2,
                padding: 0,
            },
        );
        // (1+2+3+5)/4 = 2.75 -> 3
        assert_eq!(out.as_slice(), &[3]);
    }

    #[test]
    fn avgpool_negative_rounding_away_from_zero() {
        let t = Tensor::from_vec(&[1, 1, 2, 2], vec![-1i8, -2, -3, -4]);
        let out = avgpool2d_i8(
            &t,
            PoolSpec {
                size: 2,
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
        let t = Tensor::from_vec(&[1, 1, 7, 7], vec![7i8; 49]);
        let out = avgpool2d_i8(
            &t,
            PoolSpec {
                size: 7,
                stride: 7,
                padding: 0,
            },
        );
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice(), &[7]);
    }
}
