//! Banked SRAM timing for the accelerator's local scratchpad.
//!
//! Gemmini's scratchpad is built from single-ported SRAM banks; the DMA and
//! the spatial array contend for banks, and same-cycle accesses to the same
//! bank serialize. This module models that contention at row granularity.
//! (Functional scratchpad *contents* live in `gemmini-core`; this is the
//! timing/occupancy model only.)

use crate::metrics::{Counter, Metrics};
use crate::Cycle;

/// Banked-SRAM configuration.
///
/// The paper's edge configuration uses a 256 KiB scratchpad of 4 banks, each
/// row as wide as the spatial array (e.g. 16 bytes for a 16×16 int8 mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row width in bytes.
    pub row_bytes: u32,
    /// Access latency of one row, in cycles.
    pub access_latency: u64,
}

impl SramConfig {
    /// Creates a configuration with `capacity_kb` KiB split across `banks`
    /// banks of `row_bytes`-byte rows, 1-cycle access.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not divide evenly into banks and rows.
    pub fn with_capacity_kb(capacity_kb: u32, banks: u32, row_bytes: u32) -> Self {
        let total = capacity_kb as u64 * 1024;
        let per_bank = total / banks as u64;
        assert_eq!(
            total % banks as u64,
            0,
            "capacity must divide evenly into banks"
        );
        assert_eq!(
            per_bank % row_bytes as u64,
            0,
            "bank capacity must divide evenly into rows"
        );
        Self {
            banks,
            rows_per_bank: (per_bank / row_bytes as u64) as u32,
            row_bytes,
            access_latency: 1,
        }
    }

    /// Total number of addressable rows across all banks.
    pub fn total_rows(&self) -> u32 {
        self.banks * self.rows_per_bank
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 {
            return Err("SRAM must have at least one bank".to_string());
        }
        if self.rows_per_bank == 0 {
            return Err("SRAM bank must have at least one row".to_string());
        }
        if self.row_bytes == 0 {
            return Err("SRAM row width must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for SramConfig {
    fn default() -> Self {
        // 256 KiB, 4 banks, 16-byte rows: the paper's edge scratchpad.
        Self::with_capacity_kb(256, 4, 16)
    }
}

/// Banked SRAM timing model: rows are interleaved across banks
/// (row *r* lives in bank `r % banks`), and each bank is single-ported.
///
/// # Example
///
/// ```
/// use gemmini_mem::sram::{BankedSram, SramConfig};
/// let mut sp = BankedSram::new(SramConfig::with_capacity_kb(256, 4, 16));
/// // Two same-cycle accesses to rows in the same bank serialize:
/// let a = sp.access_row(0, 0);
/// let b = sp.access_row(0, 4); // row 4 -> bank 0 again
/// assert_eq!(a, 1);
/// assert_eq!(b, 2);
/// ```
#[derive(Debug, Clone)]
pub struct BankedSram {
    config: SramConfig,
    bank_free_at: Vec<Cycle>,
    accesses: u64,
    conflicts: u64,
    metrics: Metrics,
    in_conflict_run: bool,
}

impl BankedSram {
    /// Builds the model from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SramConfig::validate`].
    pub fn new(config: SramConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SRAM configuration: {e}");
        }
        Self {
            bank_free_at: vec![0; config.banks as usize],
            config,
            accesses: 0,
            conflicts: 0,
            metrics: Metrics::disabled(),
            in_conflict_run: false,
        }
    }

    /// Attaches a live-metrics handle; conflicting accesses count both
    /// individual conflicts and maximal conflict *runs* (consecutive
    /// delayed accesses with no clean access between them). Disabled by
    /// default.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// The bank holding row `row`.
    #[inline]
    pub fn bank_of(&self, row: u32) -> u32 {
        row % self.config.banks
    }

    /// Accesses one row at time `now`; returns the completion cycle,
    /// accounting for a busy bank (a bank conflict delays the access).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn access_row(&mut self, now: Cycle, row: u32) -> Cycle {
        assert!(
            row < self.config.total_rows(),
            "scratchpad row {row} out of range (total {})",
            self.config.total_rows()
        );
        let bank = self.bank_of(row) as usize;
        let start = now.max(self.bank_free_at[bank]);
        if start > now {
            self.conflicts += 1;
            self.metrics.inc(Counter::SramBankConflicts);
            if !self.in_conflict_run {
                self.in_conflict_run = true;
                self.metrics.inc(Counter::SramConflictRuns);
            }
        } else {
            self.in_conflict_run = false;
        }
        self.accesses += 1;
        self.bank_free_at[bank] = start + 1; // one row per cycle per bank
        start + self.config.access_latency
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that were delayed by a busy bank.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let c = SramConfig::with_capacity_kb(256, 4, 16);
        assert_eq!(c.rows_per_bank, 4096);
        assert_eq!(c.total_rows(), 16384);
    }

    #[test]
    fn rows_interleave_across_banks() {
        let sp = BankedSram::new(SramConfig::with_capacity_kb(64, 4, 16));
        assert_eq!(sp.bank_of(0), 0);
        assert_eq!(sp.bank_of(1), 1);
        assert_eq!(sp.bank_of(4), 0);
    }

    #[test]
    fn same_bank_same_cycle_conflicts() {
        let mut sp = BankedSram::new(SramConfig::with_capacity_kb(64, 4, 16));
        let a = sp.access_row(10, 0);
        let b = sp.access_row(10, 4);
        assert_eq!(a, 11);
        assert_eq!(b, 12);
        assert_eq!(sp.conflicts(), 1);
    }

    #[test]
    fn different_banks_same_cycle_do_not_conflict() {
        let mut sp = BankedSram::new(SramConfig::with_capacity_kb(64, 4, 16));
        let a = sp.access_row(10, 0);
        let b = sp.access_row(10, 1);
        assert_eq!(a, 11);
        assert_eq!(b, 11);
        assert_eq!(sp.conflicts(), 0);
    }

    #[test]
    fn conflict_runs_count_maximal_streaks() {
        use crate::metrics::{Counter, Metrics};
        let (metrics, registry) = Metrics::enabled();
        let mut sp = BankedSram::new(SramConfig::with_capacity_kb(64, 4, 16));
        sp.set_metrics(metrics);
        // Streak 1: three back-to-back conflicts on bank 0.
        sp.access_row(0, 0);
        sp.access_row(0, 4);
        sp.access_row(0, 8);
        sp.access_row(0, 12);
        // A clean access (far future, bank free) ends the run.
        sp.access_row(100, 0);
        // Streak 2: one conflict.
        sp.access_row(100, 4);
        assert_eq!(registry.counter(Counter::SramBankConflicts), 4);
        assert_eq!(registry.counter(Counter::SramConflictRuns), 2);
        assert_eq!(sp.conflicts(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let mut sp = BankedSram::new(SramConfig::with_capacity_kb(1, 1, 16));
        sp.access_row(0, 9999);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_capacity_panics() {
        let _ = SramConfig::with_capacity_kb(1, 3, 16);
    }

    #[test]
    fn validation_rejects_zero_fields() {
        for broken in [
            SramConfig {
                banks: 0,
                ..SramConfig::default()
            },
            SramConfig {
                rows_per_bank: 0,
                ..SramConfig::default()
            },
            SramConfig {
                row_bytes: 0,
                ..SramConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?}");
        }
    }
}
