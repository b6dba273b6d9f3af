//! The accelerator's private memories: the int8 scratchpad and the wide
//! int32 accumulator.
//!
//! Both are functional row stores; a timing-only run builds them without
//! contents, since it moves no bytes. The paper's architecture reads inputs
//! from "a local, explicitly managed scratchpad of banked SRAMs" and writes
//! results "to a local accumulator storage with a higher bitwidth than the
//! inputs". The bank count
//! ([`crate::config::GemminiConfig::sp_banks`]) is a generator parameter
//! only: no bank conflicts are simulated.

/// The int8 scratchpad: `rows` rows of `dim` elements.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    dim: usize,
    rows: usize,
    data: Vec<i8>,
}

impl Scratchpad {
    /// Creates a scratchpad of `rows` rows of `dim` int8 elements. Its
    /// rows are zeroed when `functional`; otherwise it holds no contents
    /// and reading or writing a row panics.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(dim: usize, rows: usize, functional: bool) -> Self {
        assert!(dim > 0 && rows > 0, "scratchpad must be non-empty");
        Self {
            dim,
            rows,
            data: contents(dim * rows, functional),
        }
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reads row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[i8] {
        assert!(row < self.rows, "scratchpad row {row} out of range");
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Reads `n` consecutive rows as one contiguous slice (`n * dim`
    /// elements, row stride `dim`) — the zero-copy operand view the mesh's
    /// flat compute path consumes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the scratchpad.
    pub fn rows_flat(&self, row: usize, n: usize) -> &[i8] {
        assert!(
            row + n <= self.rows,
            "scratchpad rows {row}+{n} out of range"
        );
        &self.data[row * self.dim..(row + n) * self.dim]
    }

    /// Overwrites row `row` with `values` (shorter slices zero-fill the
    /// remainder, matching the DMA's behaviour for partial rows).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `values` is longer than a row.
    pub fn write_row(&mut self, row: usize, values: &[i8]) {
        assert!(row < self.rows, "scratchpad row {row} out of range");
        assert!(
            values.len() <= self.dim,
            "row data longer than scratchpad width"
        );
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        deposit(dst, values, |v| v);
    }

    /// Overwrites row `row` from raw DMA bytes (each byte reinterpreted as
    /// int8), zero-filling the remainder — the mvin deposit path, without
    /// an intermediate `Vec<i8>`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bytes` is longer than a row.
    pub fn write_row_bytes(&mut self, row: usize, bytes: &[u8]) {
        assert!(row < self.rows, "scratchpad row {row} out of range");
        assert!(
            bytes.len() <= self.dim,
            "row data longer than scratchpad width"
        );
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        deposit(dst, bytes, |b| b as i8);
    }
}

/// The int32 accumulator: `rows` rows of `dim` 32-bit partial sums.
#[derive(Debug, Clone)]
pub struct Accumulator {
    dim: usize,
    rows: usize,
    data: Vec<i32>,
}

impl Accumulator {
    /// Creates an accumulator of `rows` rows of `dim` int32 elements. Its
    /// rows are zeroed when `functional`; otherwise it holds no contents
    /// and reading or writing a row panics.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(dim: usize, rows: usize, functional: bool) -> Self {
        assert!(dim > 0 && rows > 0, "accumulator must be non-empty");
        Self {
            dim,
            rows,
            data: contents(dim * rows, functional),
        }
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reads row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[i32] {
        assert!(row < self.rows, "accumulator row {row} out of range");
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Mutable view of `n` consecutive rows (`n * dim` elements, row
    /// stride `dim`) — the mesh accumulates into it in place.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the accumulator.
    pub fn rows_flat_mut(&mut self, row: usize, n: usize) -> &mut [i32] {
        assert!(
            row + n <= self.rows,
            "accumulator rows {row}+{n} out of range"
        );
        &mut self.data[row * self.dim..(row + n) * self.dim]
    }

    /// Overwrites row `row` from int8 DMA bytes widened to int32 (the
    /// accumulator mvin path), zero-filling the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bytes` is longer than a row.
    pub fn write_row_widen(&mut self, row: usize, bytes: &[u8]) {
        assert!(row < self.rows, "accumulator row {row} out of range");
        assert!(
            bytes.len() <= self.dim,
            "row data longer than accumulator width"
        );
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        deposit(dst, bytes, |b| b as i8 as i32);
    }

    /// Adds int8 DMA bytes (widened to int32) elementwise into row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bytes` is longer than a row.
    pub fn accumulate_row_widen(&mut self, row: usize, bytes: &[u8]) {
        assert!(row < self.rows, "accumulator row {row} out of range");
        assert!(
            bytes.len() <= self.dim,
            "row data longer than accumulator width"
        );
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        for (d, &b) in dst.iter_mut().zip(bytes) {
            *d = d.wrapping_add(b as i8 as i32);
        }
    }
}

/// Overwrites `row` with `src` converted by `f`, zero-filling the rest.
fn deposit<S: Copy, D: Copy + Default>(row: &mut [D], src: &[S], f: impl Fn(S) -> D + Copy) {
    let (head, tail) = row.split_at_mut(src.len());
    copy_row(head, src, f);
    zero_tail(tail);
}

/// Zeroes a partial row's tail. Most deposits fill the whole row, and an
/// empty `fill` still costs a `memset` call.
#[inline]
fn zero_tail<T: Copy + Default>(tail: &mut [T]) {
    if !tail.is_empty() {
        tail.fill(T::default());
    }
}

/// Copies `src` onto `dst` (equal lengths), converting each element with
/// `f`.
///
/// Rows in the functional data path are short (a scratchpad row or a
/// weight-panel row is `dim` bytes, 16 by default), and a `memcpy` call
/// per row costs more than the bytes it moves. Up to 32 elements move as
/// two overlapping fixed-size blocks (three single elements below 4),
/// which compile to inline loads and stores; longer rows take a plain
/// loop.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn copy_row<S: Copy, D>(dst: &mut [D], src: &[S], f: impl Fn(S) -> D + Copy) {
    fn block<const N: usize, S: Copy, D>(dst: &mut [D], src: &[S], f: impl Fn(S) -> D) {
        let dst: &mut [D; N] = dst.try_into().expect("block length");
        let src: &[S; N] = src.try_into().expect("block length");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
    }
    let n = src.len();
    assert_eq!(dst.len(), n, "row copy lengths differ");
    match n {
        0 => {}
        1..=3 => {
            dst[0] = f(src[0]);
            dst[n / 2] = f(src[n / 2]);
            dst[n - 1] = f(src[n - 1]);
        }
        4..=7 => {
            block::<4, _, _>(&mut dst[..4], &src[..4], f);
            block::<4, _, _>(&mut dst[n - 4..], &src[n - 4..], f);
        }
        8..=15 => {
            block::<8, _, _>(&mut dst[..8], &src[..8], f);
            block::<8, _, _>(&mut dst[n - 8..], &src[n - 8..], f);
        }
        16..=32 => {
            block::<16, _, _>(&mut dst[..16], &src[..16], f);
            block::<16, _, _>(&mut dst[n - 16..], &src[n - 16..], f);
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f(s);
            }
        }
    }
}

/// `len` zeroed elements when the run is functional, none otherwise.
fn contents<T: Clone + Default>(len: usize, functional: bool) -> Vec<T> {
    if functional {
        vec![T::default(); len]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratchpad_rows_are_isolated() {
        let mut sp = Scratchpad::new(4, 8, true);
        sp.write_row(1, &[1, 2, 3, 4]);
        sp.write_row(2, &[5, 6, 7, 8]);
        assert_eq!(sp.row(1), &[1, 2, 3, 4]);
        assert_eq!(sp.row(2), &[5, 6, 7, 8]);
        assert_eq!(sp.row(0), &[0, 0, 0, 0]);
    }

    #[test]
    fn partial_row_writes_zero_fill() {
        let mut sp = Scratchpad::new(4, 4, true);
        sp.write_row(0, &[9, 9, 9, 9]);
        sp.write_row(0, &[1, 2]);
        assert_eq!(sp.row(0), &[1, 2, 0, 0]);
    }

    #[test]
    fn copy_row_copies_every_length() {
        // Each length takes one of the block sizes or the loop; bytes
        // above 127 check the conversion.
        let src: Vec<u8> = (0..48).map(|b| 250 - 3 * b).collect();
        for n in 0..=48 {
            let mut dst = vec![0i8; n];
            copy_row(&mut dst, &src[..n], |b| b as i8);
            let want: Vec<i8> = src[..n].iter().map(|&b| b as i8).collect();
            assert_eq!(dst, want, "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scratchpad_oob_read_panics() {
        let sp = Scratchpad::new(4, 4, true);
        let _ = sp.row(4);
    }

    #[test]
    #[should_panic(expected = "longer than scratchpad width")]
    fn scratchpad_overwide_write_panics() {
        let mut sp = Scratchpad::new(4, 4, true);
        sp.write_row(0, &[0; 5]);
    }

    #[test]
    fn accumulator_overwrite_vs_accumulate() {
        let mut acc = Accumulator::new(4, 4, true);
        acc.write_row_widen(0, &[1, 2, 3, 0xfc]);
        acc.accumulate_row_widen(0, &[10, 20, 30, 0xd8]);
        assert_eq!(acc.row(0), &[11, 22, 33, -44]);
        acc.write_row_widen(0, &[5, 5]);
        assert_eq!(acc.row(0), &[5, 5, 0, 0]);
    }

    #[test]
    fn accumulator_wraps_like_hardware() {
        let mut acc = Accumulator::new(2, 1, true);
        acc.rows_flat_mut(0, 1)
            .copy_from_slice(&[i32::MAX, i32::MIN]);
        acc.accumulate_row_widen(0, &[1, 0xff]);
        assert_eq!(acc.row(0), &[i32::MIN, i32::MAX]);
    }
}
