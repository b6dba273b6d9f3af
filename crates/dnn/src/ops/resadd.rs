//! Residual addition — the memory-bound, zero-reuse operator that drives
//! the Fig. 9 memory-partitioning case study.

use crate::tensor::Tensor;

/// Saturating elementwise i8 addition of two equal-shape tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::resadd_i8;
/// let a = Tensor::from_vec(&[2], vec![100i8, -100]);
/// let b = Tensor::from_vec(&[2], vec![100i8, -100]);
/// assert_eq!(resadd_i8(&a, &b).as_slice(), &[127, -128]); // saturates
/// ```
pub fn resadd_i8(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(a.shape(), b.shape(), "residual addition shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x.saturating_add(y))
        .collect();
    Tensor::from_vec(a.shape(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_addition() {
        let a = Tensor::from_vec(&[3], vec![1i8, 2, 3]);
        let b = Tensor::from_vec(&[3], vec![10i8, 20, 30]);
        assert_eq!(resadd_i8(&a, &b).as_slice(), &[11, 22, 33]);
    }

    #[test]
    fn saturation_at_both_rails() {
        let a = Tensor::from_vec(&[2], vec![127i8, -128]);
        let b = Tensor::from_vec(&[2], vec![1i8, -1]);
        assert_eq!(resadd_i8(&a, &b).as_slice(), &[127, -128]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::<i8>::zeros(&[2]);
        let b = Tensor::<i8>::zeros(&[3]);
        let _ = resadd_i8(&a, &b);
    }
}
