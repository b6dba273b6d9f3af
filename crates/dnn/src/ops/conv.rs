//! Reference 2-D convolution (direct and depthwise).

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel height/width (square kernels, as in all evaluated networks).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each edge.
    pub padding: usize,
}

impl ConvSpec {
    /// A `k`×`k` kernel with stride 1 and "same" padding.
    pub fn same(kernel: usize) -> Self {
        Self {
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial size for an input of `in_size`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields no output pixels.
    pub fn out_size(&self, in_size: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        assert!(
            padded >= self.kernel && self.stride > 0,
            "convolution geometry produces no output: in={in_size} {self:?}"
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Direct 2-D convolution.
///
/// `input` is NCHW `[n, c, h, w]`; `weights` is `[oc, c, kh, kw]`. Returns
/// `[n, oc, oh, ow]` of wrapping i32 accumulator values (requantization is
/// a separate, explicit step, as on the accelerator).
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::{conv2d, ConvSpec};
/// // 1x1x2x2 input, single 1x1 kernel that doubles values.
/// let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 2, 3, 4]);
/// let w = Tensor::from_vec(&[1, 1, 1, 1], vec![2i8]);
/// let out = conv2d(&input, &w, ConvSpec { kernel: 1, stride: 1, padding: 0 });
/// assert_eq!(out.as_slice(), &[2, 4, 6, 8]);
/// ```
pub fn conv2d(input: &Tensor<i8>, weights: &Tensor<i8>, spec: ConvSpec) -> Tensor<i32> {
    assert_eq!(input.shape().len(), 4, "conv input must be NCHW");
    assert_eq!(
        weights.shape().len(),
        4,
        "conv weights must be [oc,c,kh,kw]"
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oc, wc, kh, kw) = (
        weights.shape()[0],
        weights.shape()[1],
        weights.shape()[2],
        weights.shape()[3],
    );
    assert_eq!(c, wc, "channel mismatch: input {c}, weights {wc}");
    assert_eq!(kh, spec.kernel, "weight kernel height disagrees with spec");
    assert_eq!(kw, spec.kernel, "weight kernel width disagrees with spec");

    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let mut out = Tensor::<i32>::zeros(&[n, oc, oh, ow]);
    for ni in 0..n {
        for oci in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                    continue; // zero padding contributes nothing
                                }
                                let x = input.at4(ni, ci, iy as usize, ix as usize);
                                let wt = weights.at4(oci, ci, ky, kx);
                                acc = acc.wrapping_add(x as i32 * wt as i32);
                            }
                        }
                    }
                    *out.at4_mut(ni, oci, oy, ox) = acc;
                }
            }
        }
    }
    out
}

/// Depthwise 2-D convolution: each channel is convolved with its own
/// `[kh, kw]` filter (`weights` is `[c, kh, kw]`). This is the MobileNetV2
/// operator the paper singles out as mapping poorly onto spatial arrays.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
pub fn dwconv2d(input: &Tensor<i8>, weights: &Tensor<i8>, spec: ConvSpec) -> Tensor<i32> {
    assert_eq!(input.shape().len(), 4, "dwconv input must be NCHW");
    assert_eq!(weights.shape().len(), 3, "dwconv weights must be [c,kh,kw]");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    assert_eq!(c, weights.shape()[0], "channel mismatch");
    let kh = weights.shape()[1];
    let kw = weights.shape()[2];
    assert_eq!(kh, spec.kernel);
    assert_eq!(kw, spec.kernel);

    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let mut out = Tensor::<i32>::zeros(&[n, c, oh, ow]);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i32;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let x = input.at4(ni, ci, iy as usize, ix as usize);
                            let wt = weights.as_slice()[(ci * kh + ky) * kw + kx];
                            acc = acc.wrapping_add(x as i32 * wt as i32);
                        }
                    }
                    *out.at4_mut(ni, ci, oy, ox) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_size_math() {
        let s = ConvSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(s.out_size(224), 224); // "same" conv
        let s = ConvSpec {
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        assert_eq!(s.out_size(224), 112); // ResNet50 stem
        let s = ConvSpec {
            kernel: 11,
            stride: 4,
            padding: 2,
        };
        assert_eq!(s.out_size(224), 55); // AlexNet stem
    }

    #[test]
    fn same_spec_constructor() {
        let s = ConvSpec::same(3);
        assert_eq!(s.padding, 1);
        assert_eq!(s.out_size(8), 8);
    }

    #[test]
    fn identity_kernel_passes_input() {
        let input = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|x| x as i8).collect());
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1i8]);
        let out = conv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn averaging_kernel_with_padding() {
        // 3x3 all-ones kernel over a 3x3 all-ones image with padding 1:
        // corners see 4 pixels, edges 6, center 9.
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![1i8; 9]);
        let w = Tensor::from_vec(&[1, 1, 3, 3], vec![1i8; 9]);
        let out = conv2d(&input, &w, ConvSpec::same(3));
        assert_eq!(out.as_slice(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    fn stride_downsamples() {
        let input = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|x| x as i8).collect());
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1i8]);
        let out = conv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[0, 2, 8, 10]);
    }

    #[test]
    fn multi_channel_sums_across_channels() {
        // Two input channels of ones, 1x1 kernel [1, 2] -> every output = 3.
        let input = Tensor::from_vec(&[1, 2, 2, 2], vec![1i8; 8]);
        let w = Tensor::from_vec(&[1, 2, 1, 1], vec![1i8, 2]);
        let out = conv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[3, 3, 3, 3]);
    }

    #[test]
    fn multiple_output_channels() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 2, 3, 4]);
        let w = Tensor::from_vec(&[2, 1, 1, 1], vec![1i8, -1]);
        let out = conv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        assert_eq!(out.as_slice(), &[1, 2, 3, 4, -1, -2, -3, -4]);
    }

    #[test]
    fn depthwise_convolves_channels_independently() {
        // Channel 0 filter = 1, channel 1 filter = 10.
        let input = Tensor::from_vec(&[1, 2, 2, 2], vec![1i8, 2, 3, 4, 5, 6, 7, 8]);
        let w = Tensor::from_vec(&[2, 1, 1], vec![1i8, 10]);
        let out = dwconv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(out.as_slice(), &[1, 2, 3, 4, 50, 60, 70, 80]);
    }

    #[test]
    fn depthwise_3x3_matches_manual() {
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![1i8; 9]);
        let w = Tensor::from_vec(&[1, 3, 3], vec![1i8; 9]);
        let out = dwconv2d(&input, &w, ConvSpec::same(3));
        assert_eq!(out.as_slice(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let input = Tensor::<i8>::zeros(&[1, 2, 4, 4]);
        let w = Tensor::<i8>::zeros(&[1, 3, 1, 1]);
        let _ = conv2d(
            &input,
            &w,
            ConvSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
    }
}
