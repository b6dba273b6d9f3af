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

    // i-p-j order: each `a[i][p]` scales B's row `p` into output row `i`,
    // so every inner loop walks two contiguous rows.
    let mut out = Tensor::<i32>::zeros(&[m, n]);
    if k == 0 {
        return out;
    }
    let rows = out.as_mut_slice().chunks_exact_mut(n);
    for (row, a_row) in rows.zip(a.as_slice().chunks_exact(k)) {
        for (&x, b_row) in a_row.iter().zip(b.as_slice().chunks_exact(n)) {
            let x = x as i32;
            for (o, &y) in row.iter_mut().zip(b_row) {
                *o = o.wrapping_add(x * y as i32);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The i-j-p loop the function replaced: one dot product per output
    /// element, B walked down a column.
    fn column_order(a: &Tensor<i8>, b: &Tensor<i8>) -> Vec<i32> {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[(i, p)] as i32 * b[(p, j)] as i32);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random shapes, `k = 0` included, agree with the column-order
        /// loop bit for bit. A third of the cases are mostly −128, so long
        /// runs of (−128)·(−128) = 2^14 products wrap the i32 sum.
        #[test]
        fn equals_the_column_order_loop(
            m in 1usize..9,
            k in 0usize..300,
            n in 1usize..40,
            extreme in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut values = |len: usize| -> Vec<i8> {
                (0..len)
                    .map(|_| {
                        if extreme && rng.gen_range(0..4u32) != 0 {
                            i8::MIN
                        } else {
                            rng.gen()
                        }
                    })
                    .collect()
            };
            let a = Tensor::from_vec(&[m, k], values(m * k));
            let b = Tensor::from_vec(&[k, n], values(k * n));
            let c = matmul(&a, &b);
            prop_assert_eq!(c.shape(), &[m, n]);
            prop_assert_eq!(c.as_slice(), &column_order(&a, &b)[..]);
        }
    }

    #[test]
    fn long_extreme_runs_wrap() {
        // 2^17 products of 2^14 sum to 2^31, one past i32::MAX.
        let k = 1 << 17;
        let a = Tensor::from_vec(&[1, k], vec![i8::MIN; k]);
        let b = Tensor::from_vec(&[k, 1], vec![i8::MIN; k]);
        assert_eq!(matmul(&a, &b).as_slice(), &[i32::MIN]);
        assert_eq!(matmul(&a, &b).as_slice(), &column_order(&a, &b)[..]);
    }
}
