//! The int8 MAC kernel behind the weight-stationary matrix unit.
//!
//! B is widened once per load into *k-pairs* of `i16`: row pair
//! `(2p, 2p + 1)` becomes one line of interleaved halfwords
//! `b[2p][c], b[2p+1][c]`, columns padded to a multiple of four. An A row
//! becomes one 32-bit word per k-pair (`a[2p]` low, `a[2p + 1]` high).
//! On x86_64 the kernel walks A two rows at a time: for each k-pair it
//! broadcasts both rows' pair words, and each B-line load of four columns
//! feeds two `pmaddwd` + `paddd`, one into each row's accumulators. Those
//! are held in registers for sixteen columns of both rows (eight
//! accumulators) across every k-pair. An odd last row goes through the
//! one-row form of the same body.
//!
//! The kernel is exact. `pmaddwd` multiplies i16 lanes into i32 and adds
//! adjacent products; both factors are i8 values, so each product is at
//! most 2^14 in magnitude and their sum at most 2^15 — the one pmaddwd
//! overflow case (all four inputs −32768) cannot arise. `paddd` wraps
//! modulo 2^32 exactly as `i32::wrapping_add` does, and wrapping addition
//! is associative and commutative, so the order in which products reach
//! an output element does not matter.

/// The stationary operand widened into the k-pair layout, plus the A
/// pair-word scratch; both buffers keep their capacity across loads, so the
/// steady state is allocation-free. A default panel holds no rows: it adds
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct PairPanel {
    /// Live B rows of the current load.
    rows: usize,
    /// Live B columns; the columns past them are zero and need no work.
    cols: usize,
    /// `rows.div_ceil(2)` lines of `cols.div_ceil(4) * 8` halfwords.
    words: Vec<i16>,
    /// A's rows as pair words `a[2p] | a[2p + 1] << 16` (i16 halves).
    a_words: Vec<i32>,
}

impl PairPanel {
    /// Widens B: `rows` rows of `cols` live elements, rows `stride` apart.
    /// Rows past `rows` and columns past `cols` read as zero.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too short for the block's row count and
    /// stride.
    pub fn load(&mut self, b: &[i8], rows: usize, cols: usize, stride: usize) {
        assert!(stride >= cols, "B stride shorter than its rows");
        if rows > 0 {
            assert!(b.len() >= (rows - 1) * stride + cols, "B buffer too short");
        }
        self.rows = rows;
        self.cols = cols;
        let width = line_width(cols);
        let row = |r: usize| &b[r * stride..r * stride + cols];
        self.words.clear();
        if width == 0 {
            return;
        }
        self.words.resize(rows.div_ceil(2) * width, 0);
        for (r, line) in (0..rows).step_by(2).zip(self.words.chunks_exact_mut(width)) {
            let hi = (r + 1 < rows).then(|| row(r + 1));
            for (c, (d, &x)) in line.chunks_exact_mut(2).zip(row(r)).enumerate() {
                d[0] = x as i16;
                d[1] = hi.map_or(0, |hi| hi[c] as i16);
            }
        }
    }

    /// The accumulate form: `out[i] += A[i] · B` for each of `a_rows` A
    /// rows (`a_cols` live elements, rows `a_stride` apart), output rows
    /// `out_stride` apart. Only the loaded columns of each output row
    /// change, and they wrap like `i32::wrapping_add`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer is too short for its row count and stride.
    pub fn mac_rows(
        &mut self,
        a: &[i8],
        a_rows: usize,
        a_cols: usize,
        a_stride: usize,
        out: &mut [i32],
        out_stride: usize,
    ) {
        assert!(a_stride >= a_cols, "A stride shorter than its rows");
        assert!(
            out_stride >= self.cols,
            "output stride shorter than B's rows"
        );
        if a_rows > 0 {
            assert!(
                a.len() >= (a_rows - 1) * a_stride + a_cols,
                "A buffer too short"
            );
            assert!(
                out.len() >= (a_rows - 1) * out_stride + self.cols,
                "output buffer too short"
            );
        }
        // A widened to whole pairs: past B's rows the products are zero,
        // and an odd k pairs its last element with zero.
        let k = a_cols.min(self.rows);
        let pairs = k.div_ceil(2);
        if pairs == 0 {
            return;
        }
        let word =
            |lo: i8, hi: i8| (lo as i16 as u16 as u32 | (hi as i16 as u16 as u32) << 16) as i32;
        self.a_words.clear();
        self.a_words.reserve(a_rows * pairs);
        for i in 0..a_rows {
            let (whole, tail) = a[i * a_stride..i * a_stride + k].as_chunks::<2>();
            self.a_words
                .extend(whole.iter().map(|&[lo, hi]| word(lo, hi)));
            if let [last] = *tail {
                self.a_words.push(word(last, 0));
            }
        }
        let block = Block {
            words: &self.words,
            a_words: &self.a_words,
            pairs,
            cols: self.cols,
            out_stride,
        };
        block.run(out);
    }
}

/// Halfwords per k-pair line for `cols` live columns.
fn line_width(cols: usize) -> usize {
    cols.div_ceil(4) * 8
}

/// One kernel call: the `pairs` pair words of every A row in `a_words`
/// against the panel `words`, accumulated into the first `cols` columns of
/// output rows `out_stride` apart.
struct Block<'a> {
    words: &'a [i16],
    a_words: &'a [i32],
    pairs: usize,
    cols: usize,
    out_stride: usize,
}

impl Block<'_> {
    /// SSE2 on x86_64, where it is in the baseline target.
    #[cfg(target_arch = "x86_64")]
    fn run(&self, out: &mut [i32]) {
        sse2::block(self, out);
    }

    /// The portable body of the same kernel, lane by lane.
    #[cfg(not(target_arch = "x86_64"))]
    fn run(&self, out: &mut [i32]) {
        let width = line_width(self.cols);
        for (i, a) in self.a_words.chunks_exact(self.pairs).enumerate() {
            let out = &mut out[i * self.out_stride..i * self.out_stride + self.cols];
            for (p, &w) in a.iter().enumerate() {
                let (lo, hi) = (w as i16 as i32, (w >> 16) as i16 as i32);
                let line = &self.words[p * width..(p + 1) * width];
                for (o, b) in out.iter_mut().zip(line.chunks_exact(2)) {
                    *o = o.wrapping_add(lo * b[0] as i32 + hi * b[1] as i32);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use super::{line_width, Block};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_storeu_si128,
    };

    /// Safe entry point: checks the panel size `block_sse2` relies on.
    pub(super) fn block(b: &Block<'_>, out: &mut [i32]) {
        assert!(
            b.pairs * line_width(b.cols) <= b.words.len(),
            "more A pairs than loaded B pairs"
        );
        // SAFETY: SSE2 is part of the x86_64 baseline, so the target
        // feature is always present. The assert above gives `words` a
        // full line for each of the `pairs` k-pairs, and `block_sse2`
        // hands `chunk` A rows of exactly `pairs` words, so every B load
        // (a line's first `2 · ⌈cols/4⌉ · 4` halfwords) stays inside
        // `words`. Output rows are bounds-checked slices, read and written
        // through full groups of four only when the group lies inside the
        // row, through a stack array otherwise.
        unsafe { block_sse2(b, out) }
    }

    /// # Safety
    ///
    /// `b.words` must hold at least `b.pairs` lines of
    /// `line_width(b.cols)` halfwords.
    #[target_feature(enable = "sse2")]
    unsafe fn block_sse2(b: &Block<'_>, out: &mut [i32]) {
        let (pairs, cols, stride) = (b.pairs, b.cols, b.out_stride);
        let mut twos = b.a_words.chunks_exact(2 * pairs);
        for (i, a) in twos.by_ref().enumerate() {
            let (a0, a1) = a.split_at(pairs);
            let (head, tail) = out.split_at_mut((2 * i + 1) * stride);
            let rows = [&mut head[2 * i * stride..][..cols], &mut tail[..cols]];
            columns(b, [a0, a1], rows);
        }
        let last = twos.remainder();
        if !last.is_empty() {
            let i = b.a_words.len() / pairs - 1;
            columns(b, [last], [&mut out[i * stride..][..cols]]);
        }
    }

    /// Accumulates the `R` A rows `a` (`b.pairs` words each) into the
    /// loaded columns of the `R` output rows `out`, sixteen columns at a
    /// time.
    ///
    /// # Safety
    ///
    /// As [`block_sse2`], and each row of `a` holds `b.pairs` words.
    #[inline(always)]
    unsafe fn columns<const R: usize>(b: &Block<'_>, a: [&[i32]; R], mut out: [&mut [i32]; R]) {
        let width = line_width(b.cols);
        for c0 in (0..b.cols).step_by(16) {
            let lines = b.words.as_ptr().add(2 * c0);
            let out = out.each_mut().map(|row| &mut row[c0..]);
            match (b.cols - c0).div_ceil(4) {
                1 => chunk::<1, R>(lines, width, a, out),
                2 => chunk::<2, R>(lines, width, a, out),
                3 => chunk::<3, R>(lines, width, a, out),
                _ => chunk::<4, R>(lines, width, a, out),
            }
        }
    }

    /// `N` groups of four columns of `R` output rows, accumulated in
    /// `R · N` registers across every k-pair: each B-line load feeds one
    /// `pmaddwd` per row.
    ///
    /// # Safety
    ///
    /// `lines` points at the chunk's first halfword of line 0, and each of
    /// the `a[0].len()` lines, `width` halfwords apart, has `8 · N`
    /// readable halfwords from there.
    #[inline(always)]
    unsafe fn chunk<const N: usize, const R: usize>(
        lines: *const i16,
        width: usize,
        a: [&[i32]; R],
        out: [&mut [i32]; R],
    ) {
        let mut acc = [[_mm_setzero_si128(); N]; R];
        for (acc, out) in acc.iter_mut().zip(&out) {
            for (g, v) in acc.iter_mut().enumerate() {
                *v = load(out, 4 * g);
            }
        }
        // `p` indexes every row of `a` and steps the line pointer.
        #[allow(clippy::needless_range_loop)]
        for p in 0..a[0].len() {
            let w: [__m128i; R] = std::array::from_fn(|r| _mm_set1_epi32(a[r][p]));
            let line = lines.add(p * width);
            for g in 0..N {
                let b = _mm_loadu_si128(line.add(8 * g) as *const __m128i);
                for (acc, &w) in acc.iter_mut().zip(&w) {
                    acc[g] = _mm_add_epi32(acc[g], _mm_madd_epi16(w, b));
                }
            }
        }
        for (acc, out) in acc.iter().zip(out) {
            for (g, &v) in acc.iter().enumerate() {
                store(out, 4 * g, v);
            }
        }
    }

    /// Columns `c..c + 4` of `out`, zero past its end.
    ///
    /// # Safety
    ///
    /// None beyond SSE2 being available: the pointer access is bounds
    /// checked here.
    #[inline(always)]
    unsafe fn load(out: &[i32], c: usize) -> __m128i {
        if out.len() >= c + 4 {
            _mm_loadu_si128(out.as_ptr().add(c) as *const __m128i)
        } else {
            let mut tail = [0i32; 4];
            tail[..out.len() - c].copy_from_slice(&out[c..]);
            _mm_loadu_si128(tail.as_ptr() as *const __m128i)
        }
    }

    /// Stores the lanes of `v` that fall inside `out` at columns `c..`.
    ///
    /// # Safety
    ///
    /// None beyond SSE2 being available: the pointer access is bounds
    /// checked here.
    #[inline(always)]
    unsafe fn store(out: &mut [i32], c: usize, v: __m128i) {
        if out.len() >= c + 4 {
            _mm_storeu_si128(out.as_mut_ptr().add(c) as *mut __m128i, v);
        } else {
            let mut tail = [0i32; 4];
            _mm_storeu_si128(tail.as_mut_ptr() as *mut __m128i, v);
            let live = out.len() - c;
            out[c..].copy_from_slice(&tail[..live]);
        }
    }
}
