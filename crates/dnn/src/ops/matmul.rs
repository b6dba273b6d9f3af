//! Reference matrix multiplication.

use crate::tensor::Tensor;

/// Computes `a @ b` where `a` is `[m, k]` and `b` is `[k, n]`, returning an
/// `[m, n]` tensor of wrapping i32 accumulator values.
///
/// # Panics
///
/// Panics if the operands are not 2-D or their inner dimensions disagree.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// use gemmini_dnn::ops::matmul;
/// let a = Tensor::from_vec(&[2, 2], vec![1i8, 2, 3, 4]);
/// let b = Tensor::from_vec(&[2, 2], vec![5i8, 6, 7, 8]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
/// ```
pub fn matmul(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimensions disagree: {k} vs {k2}");

    let mut out = Tensor::<i32>::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc = acc.wrapping_add(a[(i, p)] as i32 * b[(p, j)] as i32);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul() {
        let a = Tensor::from_vec(&[2, 2], vec![1i8, 2, 3, 4]);
        let eye = Tensor::from_vec(&[2, 2], vec![1i8, 0, 0, 1]);
        let c = matmul(&a, &eye);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn rectangular_shapes() {
        // [1,3] @ [3,2] -> [1,2]
        let a = Tensor::from_vec(&[1, 3], vec![1i8, 2, 3]);
        let b = Tensor::from_vec(&[3, 2], vec![1i8, 2, 3, 4, 5, 6]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.as_slice(), &[22, 28]);
    }

    #[test]
    fn negative_values_accumulate_correctly() {
        let a = Tensor::from_vec(&[1, 2], vec![-64i8, 64]);
        let b = Tensor::from_vec(&[2, 1], vec![64i8, 64]);
        assert_eq!(matmul(&a, &b).as_slice(), &[0]);
        // 127·127 overflows i8 and three of them overflow i16; the i32
        // accumulator holds the sum.
        let a = Tensor::from_vec(&[1, 3], vec![127i8; 3]);
        let b = Tensor::from_vec(&[3, 1], vec![127i8; 3]);
        assert_eq!(matmul(&a, &b).as_slice(), &[48387]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::<i8>::zeros(&[2, 3]);
        let b = Tensor::<i8>::zeros(&[2, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be 2-D")]
    fn non_2d_panics() {
        let a = Tensor::<i8>::zeros(&[2, 3, 1]);
        let b = Tensor::<i8>::zeros(&[3, 2]);
        let _ = matmul(&a, &b);
    }
}
