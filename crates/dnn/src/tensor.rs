//! Dense N-dimensional tensors.
//!
//! A [`Tensor<T>`] is a shape plus a row-major buffer, indexed as a 2-D
//! matrix (`[rows, cols]`) or through its flat slice (the NHWC feature
//! maps of [`crate::ops`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense, row-major N-dimensional tensor.
///
/// # Example
///
/// ```
/// use gemmini_dnn::tensor::Tensor;
/// let mut t = Tensor::<i8>::zeros(&[2, 3]);
/// t[(1, 2)] = 7;
/// assert_eq!(t[(1, 2)], 7);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a zero-filled (default-filled) tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be non-zero: {shape:?}"
        );
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![T::default(); len],
        }
    }
}

impl<T: Copy> Tensor<T> {
    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "buffer length {} does not match shape {shape:?}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for a validly
    /// constructed tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying buffer, row-major.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    #[inline]
    fn flat2(&self, r: usize, c: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        debug_assert!(r < self.shape[0] && c < self.shape[1]);
        r * self.shape[1] + c
    }

    /// Applies `f` elementwise, producing a new tensor of the same shape.
    pub fn map<U: Copy>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl<T: Copy> std::ops::Index<(usize, usize)> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[self.flat2(r, c)]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize)> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        let i = self.flat2(r, c);
        &mut self.data[i]
    }
}

impl<T: fmt::Display + Copy> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| x.to_string()).collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

/// The value stream behind [`Tensor::<i8>::random`], produced a chunk at a
/// time, so a caller can lay seeded values out in its own format without
/// holding the whole tensor.
///
/// Filling in any split of chunks yields the same values as one fill of
/// their total length.
///
/// ```
/// use gemmini_dnn::tensor::{RandomI8, Tensor};
/// let mut stream = RandomI8::new(7);
/// let mut head = [0i8; 5];
/// let mut tail = [0i8; 7];
/// stream.fill(&mut head);
/// stream.fill(&mut tail);
/// let t = Tensor::<i8>::random(&[3, 4], 7);
/// assert_eq!(&t.as_slice()[..5], &head);
/// assert_eq!(&t.as_slice()[5..], &tail);
/// ```
#[derive(Debug, Clone)]
pub struct RandomI8 {
    rng: StdRng,
}

impl RandomI8 {
    /// Starts the stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Writes the stream's next `out.len()` values into `out`.
    pub fn fill(&mut self, out: &mut [i8]) {
        for v in out {
            *v = self.rng.gen_range(-64..64) as i8;
        }
    }
}

impl Tensor<i8> {
    /// Deterministic pseudo-random fill in `[-64, 63]` — the reproduction's
    /// substitute for trained int8 weights/activations. Values stay well
    /// inside the i8 range so small accumulations cannot saturate the
    /// reference path where the hardware would not. The values are the
    /// first `len` of [`RandomI8::new(seed)`](RandomI8::new).
    pub fn random(shape: &[usize], seed: u64) -> Self {
        let len: usize = shape.iter().product();
        let mut data = vec![0i8; len];
        RandomI8::new(seed).fill(&mut data);
        Self {
            shape: shape.to_vec(),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing_2d() {
        let mut t = Tensor::<i32>::zeros(&[3, 4]);
        assert_eq!(t.len(), 12);
        t[(2, 3)] = 5;
        assert_eq!(t[(2, 3)], 5);
        assert_eq!(t.as_slice()[11], 5); // row-major: last element
    }

    #[test]
    fn from_vec_and_into_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 2], vec![1, 2, 3, 4]);
        assert_eq!(t[(1, 0)], 3);
        assert_eq!(t.into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Tensor::<i8>::zeros(&[2, 0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::<i8>::random(&[4, 4], 42);
        let b = Tensor::<i8>::random(&[4, 4], 42);
        let c = Tensor::<i8>::random(&[4, 4], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .as_slice()
            .iter()
            .all(|&x| (-64..64).contains(&(x as i32))));
    }

    #[test]
    fn chunked_stream_equals_random() {
        // The head of seed 42's stream, which every seeded tensor and
        // pinned digest rests on.
        let mut head = [0i8; 12];
        RandomI8::new(42).fill(&mut head);
        assert_eq!(head, [-42, 62, -31, -31, 36, -8, -14, -57, 62, -3, 49, 37]);
        let mut splits = StdRng::seed_from_u64(5);
        for seed in [0u64, 1, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            for len in [1usize, 7, 128, 1000, 4099] {
                let want = Tensor::<i8>::random(&[len], seed);
                let mut stream = RandomI8::new(seed);
                let mut got = vec![0i8; len];
                let mut at = 0;
                while at < len {
                    // Empty chunks included: they must not advance the stream.
                    let n = splits.gen_range(0..(len - at).min(300) + 1);
                    stream.fill(&mut got[at..at + n]);
                    at += n;
                }
                assert_eq!(got, want.as_slice(), "seed={seed} len={len}");
            }
        }
    }

    #[test]
    fn map_converts_element_type() {
        let t = Tensor::from_vec(&[2], vec![1i8, -2]);
        let u: Tensor<i32> = t.map(|x| x as i32 * 10);
        assert_eq!(u.as_slice(), &[10, -20]);
    }

    #[test]
    fn display_previews() {
        let t = Tensor::from_vec(&[10], (0..10).collect::<Vec<i32>>());
        let s = t.to_string();
        assert!(s.starts_with("Tensor[10]["));
        assert!(s.contains('…'));
    }
}
