//! Normalization and attention-support operators used by BERT.
//!
//! These run in floating point (on the host CPU or on an fp32-configured
//! accelerator instance); int8 BERT quantizes around them.

use crate::tensor::Tensor;

/// Row-wise softmax over a `[rows, cols]` tensor, numerically stabilized by
/// subtracting each row's maximum.
///
/// # Panics
///
/// Panics if the tensor is not 2-D.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::norm::softmax;
/// let t = Tensor::from_vec(&[1, 2], vec![0.0f32, 0.0]);
/// let s = softmax(&t);
/// assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(t: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(t.shape().len(), 2, "softmax input must be 2-D");
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    let mut out = Tensor::<f32>::zeros(&[rows, cols]);
    for r in 0..rows {
        let row = &t.as_slice()[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for c in 0..cols {
            out[(r, c)] = exps[c] / sum;
        }
    }
    out
}

/// Row-wise layer normalization with learned scale/bias, epsilon `1e-5`.
///
/// # Panics
///
/// Panics if `t` is not 2-D or `gamma`/`beta` lengths disagree with the row
/// width.
pub fn layernorm(t: &Tensor<f32>, gamma: &[f32], beta: &[f32]) -> Tensor<f32> {
    assert_eq!(t.shape().len(), 2, "layernorm input must be 2-D");
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    assert_eq!(beta.len(), cols, "beta length mismatch");
    const EPS: f32 = 1e-5;
    let mut out = Tensor::<f32>::zeros(&[rows, cols]);
    for r in 0..rows {
        let row = &t.as_slice()[r * cols..(r + 1) * cols];
        let mean: f32 = row.iter().sum::<f32>() / cols as f32;
        let var: f32 = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + EPS).sqrt();
        for c in 0..cols {
            out[(r, c)] = (row[c] - mean) * inv * gamma[c] + beta[c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::<f32>::random(&[4, 16], 3);
        let s = softmax(&t);
        for r in 0..4 {
            let sum: f32 = (0..16).map(|c| s[(r, c)]).sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for c in 0..16 {
                assert!(s[(r, c)] > 0.0);
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(&[1, 3], vec![1.0f32, 2.0, 3.0]);
        let b = Tensor::from_vec(&[1, 3], vec![101.0f32, 102.0, 103.0]);
        let sa = softmax(&a);
        let sb = softmax(&b);
        for c in 0..3 {
            assert!((sa[(0, c)] - sb[(0, c)]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes_without_nan() {
        let t = Tensor::from_vec(&[1, 2], vec![1000.0f32, -1000.0]);
        let s = softmax(&t);
        assert!((s[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn layernorm_zero_mean_unit_variance() {
        let t = Tensor::from_vec(&[1, 4], vec![1.0f32, 2.0, 3.0, 4.0]);
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        let out = layernorm(&t, &gamma, &beta);
        let mean: f32 = out.as_slice().iter().sum::<f32>() / 4.0;
        let var: f32 = out.as_slice().iter().map(|&x| x * x).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_gamma_beta() {
        let t = Tensor::from_vec(&[1, 2], vec![-1.0f32, 1.0]);
        let out = layernorm(&t, &[2.0, 2.0], &[10.0, 10.0]);
        // Normalized values are ±1 (up to eps), then *2 + 10.
        assert!((out[(0, 0)] - 8.0).abs() < 1e-2);
        assert!((out[(0, 1)] - 12.0).abs() < 1e-2);
    }
}
