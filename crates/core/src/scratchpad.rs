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
        dst[..values.len()].copy_from_slice(values);
        dst[values.len()..].fill(0);
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
        for (d, &b) in dst.iter_mut().zip(bytes) {
            *d = b as i8;
        }
        dst[bytes.len()..].fill(0);
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

    /// Reads `n` consecutive rows as one contiguous slice (`n * dim`
    /// elements, row stride `dim`) — the zero-copy bias view for the
    /// mesh's flat compute path.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the accumulator.
    pub fn rows_flat(&self, row: usize, n: usize) -> &[i32] {
        assert!(
            row + n <= self.rows,
            "accumulator rows {row}+{n} out of range"
        );
        &self.data[row * self.dim..(row + n) * self.dim]
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

    /// Overwrites row `row` from little-endian int32 DMA bytes (complete
    /// 4-byte groups only, matching the DMA's element framing),
    /// zero-filling the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or the bytes exceed a row.
    pub fn write_row_i32le(&mut self, row: usize, bytes: &[u8]) {
        assert!(row < self.rows, "accumulator row {row} out of range");
        let n = bytes.len() / 4;
        assert!(n <= self.dim, "row data longer than accumulator width");
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *d = i32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        dst[n..].fill(0);
    }

    /// Adds little-endian int32 DMA bytes elementwise into row `row`
    /// (the accumulate-bit mvin path).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or the bytes exceed a row.
    pub fn accumulate_row_i32le(&mut self, row: usize, bytes: &[u8]) {
        assert!(row < self.rows, "accumulator row {row} out of range");
        let n = bytes.len() / 4;
        assert!(n <= self.dim, "row data longer than accumulator width");
        let dst = &mut self.data[row * self.dim..(row + 1) * self.dim];
        for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *d = d.wrapping_add(i32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        let _ = n;
    }

    /// Overwrites row `row` from int8 DMA bytes widened to int32 (the
    /// shrunk-mvin path), zero-filling the remainder.
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
        for (d, &b) in dst.iter_mut().zip(bytes) {
            *d = b as i8 as i32;
        }
        dst[bytes.len()..].fill(0);
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

    /// Little-endian int32 bytes of `values`, as an accumulator mvin
    /// carries them.
    fn i32le(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn accumulator_overwrite_vs_accumulate() {
        let mut acc = Accumulator::new(4, 4, true);
        acc.write_row_i32le(0, &i32le(&[1, 2, 3, 4]));
        acc.accumulate_row_i32le(0, &i32le(&[10, 20, 30, 40]));
        assert_eq!(acc.row(0), &[11, 22, 33, 44]);
        acc.write_row_i32le(0, &i32le(&[5, 5]));
        assert_eq!(acc.row(0), &[5, 5, 0, 0]);
    }

    #[test]
    fn accumulator_wraps_like_hardware() {
        let mut acc = Accumulator::new(1, 1, true);
        acc.write_row_i32le(0, &i32le(&[i32::MAX]));
        acc.accumulate_row_i32le(0, &i32le(&[1]));
        assert_eq!(acc.row(0), &[i32::MIN]);
    }
}
