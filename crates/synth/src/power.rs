//! Power model: dynamic PE/register switching and area-proportional
//! leakage.

use crate::area::spatial_array_area_um2;
use crate::tech::{LEAKAGE_UW_PER_KUM2, POWER_PE_UW_PER_GHZ, POWER_PIPE_REG_UW_PER_GHZ};
use gemmini_core::config::GemminiConfig;

/// Power breakdown of one spatial-array configuration at a given clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Dynamic power of PE arithmetic, in mW.
    pub pe_dynamic_mw: f64,
    /// Dynamic power of pipeline registers, in mW.
    pub reg_dynamic_mw: f64,
    /// Leakage, in mW.
    pub leakage_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.pe_dynamic_mw + self.reg_dynamic_mw + self.leakage_mw
    }
}

/// Spatial-array power at `clock_ghz` with the given arithmetic activity
/// factor (fraction of cycles each PE performs a useful MAC). Pipeline
/// registers clock every cycle regardless of activity — which is exactly
/// why the fully-pipelined design pays Fig. 3's ≈3.0× power.
pub fn spatial_array_power(config: &GemminiConfig, clock_ghz: f64, activity: f64) -> PowerReport {
    let pes = config.pe_count() as f64;
    let reg_units = (config.mesh_rows * config.mesh_cols * config.tile_cols) as f64;
    let area_kum2 = spatial_array_area_um2(config) / 1000.0;
    PowerReport {
        pe_dynamic_mw: pes * POWER_PE_UW_PER_GHZ * clock_ghz * activity / 1000.0,
        reg_dynamic_mw: reg_units * POWER_PIPE_REG_UW_PER_GHZ * clock_ghz / 1000.0,
        leakage_mw: area_kum2 * LEAKAGE_UW_PER_KUM2 / 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_iso_frequency_power_ratio() {
        // At the same clock and full activity, the fully-pipelined design
        // burns ≈3.0x the power of the combinational design (registers).
        let pipe = spatial_array_power(&GemminiConfig::tpu_like_256(), 1.0, 1.0);
        let comb = spatial_array_power(&GemminiConfig::nvdla_like_256(), 1.0, 1.0);
        let ratio =
            (pipe.pe_dynamic_mw + pipe.reg_dynamic_mw) / (comb.pe_dynamic_mw + comb.reg_dynamic_mw);
        assert!((ratio - 3.0).abs() < 0.05, "power ratio = {ratio}");
    }

    #[test]
    fn registers_burn_even_when_idle() {
        let idle = spatial_array_power(&GemminiConfig::tpu_like_256(), 1.0, 0.0);
        assert_eq!(idle.pe_dynamic_mw, 0.0);
        assert!(idle.reg_dynamic_mw > 0.0);
    }

    #[test]
    fn power_scales_with_clock() {
        let slow = spatial_array_power(&GemminiConfig::edge(), 0.5, 1.0);
        let fast = spatial_array_power(&GemminiConfig::edge(), 1.0, 1.0);
        assert!((fast.pe_dynamic_mw / slow.pe_dynamic_mw - 2.0).abs() < 1e-9);
        // Leakage does not scale with clock.
        assert_eq!(slow.leakage_mw, fast.leakage_mw);
    }
}
