//! The generator's parameter space.
//!
//! A [`GemminiConfig`] describes one accelerator instance the generator can
//! elaborate: the two-level spatial array (a `mesh_rows × mesh_cols` grid of
//! tiles, each a combinational `tile_rows × tile_cols` grid of PEs —
//! Fig. 2), supported dataflows and datatypes, local memory capacities, and
//! which optional peripheral blocks exist. [`GemminiConfig::header`]
//! renders the same information as a C header, mirroring the
//! `gemmini_params.h` the real generator emits for its software stack.

use std::fmt;

/// Which PE dataflow(s) the elaborated array supports. Gemmini lets this be
/// fixed at design time or selectable at runtime (`Both`). It sizes the
/// generated header and Table I; the simulator runs weight-stationary
/// whatever the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Weights resident in the PEs; activations stream through.
    #[default]
    WeightStationary,
    /// Outputs resident in the PEs; weights and activations stream through.
    OutputStationary,
    /// Runtime-selectable between the two.
    Both,
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WeightStationary => write!(f, "WS"),
            Self::OutputStationary => write!(f, "OS"),
            Self::Both => write!(f, "WS+OS"),
        }
    }
}

/// Element datatype of the spatial array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// int8 inputs, int32 accumulation (the paper's evaluated configs).
    #[default]
    Int8,
    /// fp32 inputs and accumulation (supported by the generator for
    /// training; modeled for timing/area only in this reproduction).
    Fp32,
}

impl DataType {
    /// Bytes per input element.
    pub fn input_bytes(self) -> usize {
        match self {
            Self::Int8 => 1,
            Self::Fp32 => 4,
        }
    }

    /// Bytes per accumulator element.
    pub fn acc_bytes(self) -> usize {
        4
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Int8 => write!(f, "int8"),
            Self::Fp32 => write!(f, "fp32"),
        }
    }
}

/// One point in the generator's design space.
#[derive(Debug, Clone, PartialEq)]
pub struct GemminiConfig {
    /// Tile grid height (tiles are pipeline-registered against each other).
    pub mesh_rows: usize,
    /// Tile grid width.
    pub mesh_cols: usize,
    /// PE grid height within a tile (PEs are combinationally chained).
    pub tile_rows: usize,
    /// PE grid width within a tile.
    pub tile_cols: usize,
    /// Supported dataflow(s).
    pub dataflow: Dataflow,
    /// Element datatype.
    pub dtype: DataType,
    /// Scratchpad capacity in KiB.
    pub sp_capacity_kb: usize,
    /// Scratchpad banks.
    pub sp_banks: usize,
    /// Accumulator capacity in KiB.
    pub acc_capacity_kb: usize,
    /// DMA/system-bus width in bytes per cycle.
    pub dma_bus_bytes: u64,
    /// Whether the on-the-fly im2col block is elaborated.
    pub has_im2col: bool,
    /// Whether the pooling block is elaborated.
    pub has_pooling: bool,
    /// Whether the ReLU/ReLU6 activation block is elaborated.
    pub has_activations: bool,
    /// Whether the transposer block is elaborated.
    pub has_transposer: bool,
    /// Nominal clock in GHz (1.0 in the paper's FPS numbers).
    pub clock_ghz: f64,
}

impl GemminiConfig {
    /// The paper's low-power edge configuration (Sections IV–V): a 16×16
    /// fully-pipelined systolic mesh (16×16 tiles of 1×1 PEs), 256 KiB
    /// scratchpad in 4 banks, 64 KiB accumulator, all peripheral blocks,
    /// 1 GHz.
    pub fn edge() -> Self {
        Self {
            mesh_rows: 16,
            mesh_cols: 16,
            tile_rows: 1,
            tile_cols: 1,
            dataflow: Dataflow::Both,
            dtype: DataType::Int8,
            sp_capacity_kb: 256,
            sp_banks: 4,
            acc_capacity_kb: 64,
            dma_bus_bytes: 16,
            has_im2col: true,
            has_pooling: true,
            has_activations: true,
            has_transposer: true,
            clock_ghz: 1.0,
        }
    }

    /// The edge configuration *without* the optional im2col block — the
    /// Fig. 7 variant that shifts im2col onto the host CPU.
    pub fn edge_without_im2col() -> Self {
        Self {
            has_im2col: false,
            ..Self::edge()
        }
    }

    /// Fig. 3's TPU-like point: 256 PEs, fully pipelined (every tile is a
    /// single PE).
    pub fn tpu_like_256() -> Self {
        Self::edge()
    }

    /// Fig. 3's NVDLA-like point: 256 PEs combinationally joined into MAC
    /// chains (one tile of 16×16 PEs), i.e. a parallel vector engine.
    pub fn nvdla_like_256() -> Self {
        Self {
            mesh_rows: 1,
            mesh_cols: 1,
            tile_rows: 16,
            tile_cols: 16,
            ..Self::edge()
        }
    }

    /// Total PE rows (`mesh_rows * tile_rows`); the array multiplies
    /// `dim × dim` operand blocks.
    pub fn dim(&self) -> usize {
        self.mesh_rows * self.tile_rows
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> usize {
        self.mesh_rows * self.mesh_cols * self.tile_rows * self.tile_cols
    }

    /// Bytes per scratchpad row (one `dim`-wide input vector).
    pub fn sp_row_bytes(&self) -> usize {
        self.dim() * self.dtype.input_bytes()
    }

    /// Number of scratchpad rows.
    pub fn sp_rows(&self) -> usize {
        self.sp_capacity_kb * 1024 / self.sp_row_bytes()
    }

    /// Bytes per accumulator row (one `dim`-wide int32 vector).
    pub fn acc_row_bytes(&self) -> usize {
        self.dim() * self.dtype.acc_bytes()
    }

    /// Number of accumulator rows.
    pub fn acc_rows(&self) -> usize {
        self.acc_capacity_kb * 1024 / self.acc_row_bytes()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mesh_rows == 0 || self.mesh_cols == 0 || self.tile_rows == 0 || self.tile_cols == 0
        {
            return Err("spatial array dimensions must be non-zero".to_string());
        }
        if self.mesh_rows * self.tile_rows != self.mesh_cols * self.tile_cols {
            return Err(format!(
                "spatial array must be square: {}x{}",
                self.mesh_rows * self.tile_rows,
                self.mesh_cols * self.tile_cols
            ));
        }
        if self.sp_capacity_kb == 0 || self.acc_capacity_kb == 0 {
            return Err("local memories must be non-zero".to_string());
        }
        if self.sp_banks == 0 {
            return Err("scratchpad must have at least one bank".to_string());
        }
        if !(self.sp_capacity_kb * 1024).is_multiple_of(self.sp_row_bytes() * self.sp_banks) {
            return Err(format!(
                "scratchpad capacity {} KiB does not divide into {} banks of {}-byte rows",
                self.sp_capacity_kb,
                self.sp_banks,
                self.sp_row_bytes()
            ));
        }
        if self.dma_bus_bytes == 0 {
            return Err("DMA bus width must be non-zero".to_string());
        }
        if self.clock_ghz.is_nan() || self.clock_ghz <= 0.0 {
            return Err("clock must be positive".to_string());
        }
        Ok(())
    }

    /// Renders the configuration as a C header — the analogue of the
    /// `gemmini_params.h` the real generator emits so that the tuned
    /// software stack can adapt to each hardware instantiation.
    ///
    /// # Example
    ///
    /// ```
    /// use gemmini_core::config::GemminiConfig;
    /// let h = GemminiConfig::edge().header();
    /// assert!(h.contains("#define DIM 16"));
    /// ```
    pub fn header(&self) -> String {
        let mut s = String::new();
        s.push_str("// Generated by the Gemmini generator (Rust reproduction).\n");
        s.push_str("#ifndef GEMMINI_PARAMS_H\n#define GEMMINI_PARAMS_H\n\n");
        s.push_str(&format!("#define DIM {}\n", self.dim()));
        s.push_str(&format!("#define MESH_ROWS {}\n", self.mesh_rows));
        s.push_str(&format!("#define MESH_COLS {}\n", self.mesh_cols));
        s.push_str(&format!("#define TILE_ROWS {}\n", self.tile_rows));
        s.push_str(&format!("#define TILE_COLS {}\n", self.tile_cols));
        s.push_str(&format!(
            "#define SP_CAPACITY_KB {}\n#define SP_BANKS {}\n#define SP_ROWS {}\n",
            self.sp_capacity_kb,
            self.sp_banks,
            self.sp_rows()
        ));
        s.push_str(&format!(
            "#define ACC_CAPACITY_KB {}\n#define ACC_ROWS {}\n",
            self.acc_capacity_kb,
            self.acc_rows()
        ));
        s.push_str(&format!("#define DATAFLOW \"{}\"\n", self.dataflow));
        s.push_str(&format!(
            "#define ELEM_T_IS_FLOAT {}\n",
            matches!(self.dtype, DataType::Fp32) as u8
        ));
        s.push_str(&format!("#define HAS_IM2COL {}\n", self.has_im2col as u8));
        s.push_str(&format!("#define HAS_POOLING {}\n", self.has_pooling as u8));
        s.push_str(&format!(
            "#define HAS_ACTIVATIONS {}\n",
            self.has_activations as u8
        ));
        s.push_str(&format!(
            "#define HAS_TRANSPOSER {}\n",
            self.has_transposer as u8
        ));
        s.push_str("\n#endif // GEMMINI_PARAMS_H\n");
        s
    }
}

impl Default for GemminiConfig {
    fn default() -> Self {
        Self::edge()
    }
}

impl fmt::Display for GemminiConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} mesh of {}x{} tiles ({} {} PEs), {} KiB sp / {} KiB acc, {}",
            self.mesh_rows,
            self.mesh_cols,
            self.tile_rows,
            self.tile_cols,
            self.pe_count(),
            self.dtype,
            self.sp_capacity_kb,
            self.acc_capacity_kb,
            self.dataflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_preset_matches_paper() {
        let c = GemminiConfig::edge();
        assert_eq!(c.dim(), 16);
        assert_eq!(c.pe_count(), 256);
        assert_eq!(c.sp_capacity_kb, 256);
        assert_eq!(c.acc_capacity_kb, 64);
        assert!(c.has_im2col);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fig3_presets_have_equal_pes_but_different_hierarchy() {
        let tpu = GemminiConfig::tpu_like_256();
        let nvdla = GemminiConfig::nvdla_like_256();
        assert_eq!(tpu.pe_count(), nvdla.pe_count());
        assert_eq!(tpu.dim(), nvdla.dim());
        assert_eq!(tpu.tile_rows, 1);
        assert_eq!(nvdla.mesh_rows, 1);
        assert!(nvdla.validate().is_ok());
    }

    #[test]
    fn row_math() {
        let c = GemminiConfig::edge();
        assert_eq!(c.sp_row_bytes(), 16);
        assert_eq!(c.sp_rows(), 256 * 1024 / 16);
        assert_eq!(c.acc_row_bytes(), 64);
        assert_eq!(c.acc_rows(), 64 * 1024 / 64);
    }

    #[test]
    fn fp32_changes_row_widths() {
        let c = GemminiConfig {
            dtype: DataType::Fp32,
            ..GemminiConfig::edge()
        };
        assert_eq!(c.sp_row_bytes(), 64);
        assert_eq!(c.acc_row_bytes(), 64);
    }

    #[test]
    fn validation_rejects_non_square_arrays() {
        let c = GemminiConfig {
            mesh_cols: 8,
            ..GemminiConfig::edge()
        };
        assert!(c.validate().unwrap_err().contains("square"));
    }

    #[test]
    fn validation_rejects_zero_fields() {
        for f in [
            |c: &mut GemminiConfig| c.mesh_rows = 0,
            |c: &mut GemminiConfig| c.sp_capacity_kb = 0,
            |c: &mut GemminiConfig| c.sp_banks = 0,
            |c: &mut GemminiConfig| c.dma_bus_bytes = 0,
            |c: &mut GemminiConfig| c.clock_ghz = 0.0,
        ] {
            let mut c = GemminiConfig::edge();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn header_contains_key_parameters() {
        let h = GemminiConfig::edge().header();
        assert!(h.contains("#define DIM 16"));
        assert!(h.contains("#define SP_ROWS 16384"));
        assert!(h.contains("#define HAS_IM2COL 1"));
        assert!(h.contains("ELEM_T_IS_FLOAT 0"));
        let h2 = GemminiConfig::edge_without_im2col().header();
        assert!(h2.contains("#define HAS_IM2COL 0"));
    }

    #[test]
    fn display_is_informative() {
        let s = GemminiConfig::nvdla_like_256().to_string();
        assert!(s.contains("1x1 mesh of 16x16 tiles"));
        assert!(s.contains("256"));
    }
}
