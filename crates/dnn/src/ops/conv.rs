//! Reference 2-D convolution (direct and depthwise) over NHWC feature
//! maps.

use super::nhwc_dims;
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

    /// Calls `f(ky·k + kx, iy·w + ix)` (the tap index and the input
    /// pixel it reads) for each tap of the `k`×`k` window at output pixel
    /// `(oy, ox)` of an `h`×`w` input that lands inside the input. Taps
    /// come in row-major order; taps in the zero padding are skipped.
    pub(crate) fn for_each_tap(
        &self,
        (oy, ox): (usize, usize),
        (h, w): (usize, usize),
        mut f: impl FnMut(usize, usize),
    ) {
        let (k, stride, padding) = (self.kernel, self.stride, self.padding);
        for ky in 0..k {
            let Some(iy) = (oy * stride + ky).checked_sub(padding).filter(|&iy| iy < h) else {
                continue;
            };
            for kx in 0..k {
                let Some(ix) = (ox * stride + kx).checked_sub(padding).filter(|&ix| ix < w) else {
                    continue;
                };
                f(ky * k + kx, iy * w + ix);
            }
        }
    }
}

/// Direct 2-D convolution.
///
/// `input` is NHWC `[n, h, w, c]`; `weights` is `[oc, c, kh, kw]`. Returns
/// `[n, oh, ow, oc]` of wrapping i32 accumulator values (requantization is
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
/// // One row of two pixels, two channels each, and 1x1 kernels that sum
/// // and difference the channels.
/// let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1i8, 2, 3, 4]);
/// let w = Tensor::from_vec(&[2, 2, 1, 1], vec![1i8, 1, 1, -1]);
/// let out = conv2d(&input, &w, ConvSpec { kernel: 1, stride: 1, padding: 0 });
/// assert_eq!(out.as_slice(), &[3, -1, 7, -1]);
/// ```
pub fn conv2d(input: &Tensor<i8>, weights: &Tensor<i8>, spec: ConvSpec) -> Tensor<i32> {
    let [n, h, w, c] = nhwc_dims(input, "conv input");
    let &[oc, wc, kh, kw] = weights.shape() else {
        panic!("conv weights must be [oc,c,kh,kw]");
    };
    assert_eq!(c, wc, "channel mismatch: input {c}, weights {wc}");
    assert_eq!(kh, spec.kernel, "weight kernel height disagrees with spec");
    assert_eq!(kw, spec.kernel, "weight kernel width disagrees with spec");

    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let taps = kh * kw;
    let (x, wt) = (input.as_slice(), weights.as_slice());
    let mut out = Vec::with_capacity(n * oh * ow * oc);
    for image in x.chunks_exact(h * w * c) {
        for oy in 0..oh {
            for ox in 0..ow {
                for o in 0..oc {
                    let filter = &wt[o * c * taps..(o + 1) * c * taps];
                    let mut acc = 0i32;
                    spec.for_each_tap((oy, ox), (h, w), |tap, pix| {
                        let pixel = &image[pix * c..(pix + 1) * c];
                        for (ci, &v) in pixel.iter().enumerate() {
                            acc = acc.wrapping_add(v as i32 * filter[ci * taps + tap] as i32);
                        }
                    });
                    out.push(acc);
                }
            }
        }
    }
    Tensor::from_vec(&[n, oh, ow, oc], out)
}

/// Depthwise 2-D convolution: each channel is convolved with its own
/// `[kh, kw]` filter (`weights` is `[c, kh, kw]`). This is the MobileNetV2
/// operator the paper singles out as mapping poorly onto spatial arrays.
/// `input` is NHWC `[n, h, w, c]`; returns `[n, oh, ow, c]`.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
pub fn dwconv2d(input: &Tensor<i8>, weights: &Tensor<i8>, spec: ConvSpec) -> Tensor<i32> {
    let [n, h, w, c] = nhwc_dims(input, "dwconv input");
    let &[wc, kh, kw] = weights.shape() else {
        panic!("dwconv weights must be [c,kh,kw]");
    };
    assert_eq!(c, wc, "channel mismatch");
    assert_eq!(kh, spec.kernel);
    assert_eq!(kw, spec.kernel);

    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let taps = kh * kw;
    let (x, wt) = (input.as_slice(), weights.as_slice());
    let mut out = Vec::<i32>::with_capacity(n * oh * ow * c);
    for image in x.chunks_exact(h * w * c) {
        for oy in 0..oh {
            for ox in 0..ow {
                let at = out.len();
                out.resize(at + c, 0);
                let acc = &mut out[at..];
                spec.for_each_tap((oy, ox), (h, w), |tap, pix| {
                    let pixel = &image[pix * c..(pix + 1) * c];
                    for (ci, (a, &v)) in acc.iter_mut().zip(pixel).enumerate() {
                        *a = a.wrapping_add(v as i32 * wt[ci * taps + tap] as i32);
                    }
                });
            }
        }
    }
    Tensor::from_vec(&[n, oh, ow, c], out)
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
        let s = ConvSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(s.out_size(112), 56); // ResNet50 stem pool
        let s = ConvSpec {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(s.out_size(8), 4); // 2x2 pool
    }

    #[test]
    fn same_spec_constructor() {
        let s = ConvSpec::same(3);
        assert_eq!(s.padding, 1);
        assert_eq!(s.out_size(8), 8);
    }

    #[test]
    fn identity_kernel_passes_input() {
        let input = Tensor::from_vec(&[1, 3, 3, 1], (1..=9).map(|x| x as i8).collect());
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
        let input = Tensor::from_vec(&[1, 3, 3, 1], vec![1i8; 9]);
        let w = Tensor::from_vec(&[1, 1, 3, 3], vec![1i8; 9]);
        let out = conv2d(&input, &w, ConvSpec::same(3));
        assert_eq!(out.as_slice(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    fn stride_downsamples() {
        let input = Tensor::from_vec(&[1, 4, 4, 1], (0..16).map(|x| x as i8).collect());
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
        assert_eq!(out.shape(), &[1, 2, 2, 1]);
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
        let input = Tensor::from_vec(&[1, 2, 2, 1], vec![1i8, 2, 3, 4]);
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
        // NHWC: each pixel's two output channels are adjacent.
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        assert_eq!(out.as_slice(), &[1, -1, 2, -2, 3, -3, 4, -4]);
    }

    #[test]
    fn depthwise_convolves_channels_independently() {
        // Channel 0 filter = 1, channel 1 filter = 10; NHWC, so channel 0
        // holds 1, 3, 5, 7 and channel 1 holds 2, 4, 6, 8.
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
        assert_eq!(out.as_slice(), &[1, 20, 3, 40, 5, 60, 7, 80]);
    }

    #[test]
    fn depthwise_3x3_matches_manual() {
        let input = Tensor::from_vec(&[1, 3, 3, 1], vec![1i8; 9]);
        let w = Tensor::from_vec(&[1, 3, 3], vec![1i8; 9]);
        let out = dwconv2d(&input, &w, ConvSpec::same(3));
        assert_eq!(out.as_slice(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let input = Tensor::<i8>::zeros(&[1, 4, 4, 2]);
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
