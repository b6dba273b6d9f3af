//! Machine-readable figure data, shared by the figure binaries and the
//! golden regression tests.
//!
//! Each function here computes one figure's underlying numbers and can
//! render them as a [`Json`] document. The binaries format the same
//! rows for stdout and write the JSON next to it under `--json`; the
//! golden tests (`tests/golden_figures.rs`) call the functions directly
//! and diff the JSON against the checked-in files under `tests/golden/`,
//! so any counter drift in the models fails `cargo test` — not just a
//! human eyeballing a table.
//!
//! Everything emitted here is deterministic: cycle counters are exact
//! integers, and every float is pure arithmetic over model constants
//! (no wall-clock, no environment).

use gemmini_core::config::GemminiConfig;
use gemmini_cpu::kernels::network_cpu_cycles;
use gemmini_cpu::{CpuKind, CpuModel};
use gemmini_dnn::graph::Network;
use gemmini_mem::json::{Json, ToJson};
use gemmini_soc::run::SocReport;
use gemmini_soc::sweep::{DesignPoint, SweepResult};
use gemmini_soc::SocConfig;
use gemmini_synth::area::{soc_area, CpuKind as SynthCpu};
use gemmini_synth::power::spatial_array_power;
use gemmini_synth::timing::SpatialArrayTiming;
use gemmini_vm::tlb::TlbConfig;

/// One Fig. 3 design point: a 256-PE spatial array at the given tile
/// (combinational block) edge length.
pub struct Fig3Row {
    /// Tile edge (1 = fully pipelined, 16 = fully combinational).
    pub tile: usize,
    /// Display name of the design point.
    pub name: String,
    /// Maximum clock frequency in GHz.
    pub fmax_ghz: f64,
    /// Spatial-array area in kµm².
    pub area_kum2: f64,
    /// Spatial-array power in mW at 1 GHz.
    pub power_mw: f64,
    /// Combinational MAC-chain depth.
    pub chain_depth: usize,
}

fn fig3_config(tile: usize) -> GemminiConfig {
    GemminiConfig {
        mesh_rows: 16 / tile,
        mesh_cols: 16 / tile,
        tile_rows: tile,
        tile_cols: tile,
        ..GemminiConfig::edge()
    }
}

/// The Fig. 3 design-space rows: both extremes plus the hybrid points.
pub fn fig3_rows() -> Vec<Fig3Row> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|tile| {
            let cfg = fig3_config(tile);
            let t = SpatialArrayTiming::from_config(&cfg);
            let p = spatial_array_power(&cfg, 1.0, 1.0);
            Fig3Row {
                tile,
                name: match tile {
                    1 => "TPU-like (fully pipelined)".to_string(),
                    16 => "NVDLA-like (combinational)".to_string(),
                    _ => format!("hybrid ({tile}x{tile} tiles)"),
                },
                fmax_ghz: t.fmax_ghz,
                area_kum2: gemmini_synth::area::spatial_array_area_um2(&cfg) / 1000.0,
                power_mw: p.total_mw(),
                chain_depth: t.chain_depth,
            }
        })
        .collect()
}

/// Fig. 3 as JSON: every row plus the paper's headline extreme ratios.
pub fn fig3_json() -> Json {
    let rows = fig3_rows();
    let pipe = rows.first().expect("tile=1 present");
    let comb = rows.last().expect("tile=16 present");
    Json::obj([
        ("figure", Json::from("fig3_spatial_tradeoffs")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("tile", Json::from(r.tile)),
                            ("name", Json::from(r.name.clone())),
                            ("fmax_ghz", Json::from(r.fmax_ghz)),
                            ("area_kum2", Json::from(r.area_kum2)),
                            ("power_mw_at_1ghz", Json::from(r.power_mw)),
                            ("chain_depth", Json::from(r.chain_depth)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "extreme_ratios",
            Json::obj([
                ("fmax", Json::from(pipe.fmax_ghz / comb.fmax_ghz)),
                ("area", Json::from(pipe.area_kum2 / comb.area_kum2)),
                ("power", Json::from(pipe.power_mw / comb.power_mw)),
            ]),
        ),
    ])
}

/// Fig. 6a as JSON: the edge-configuration area breakdown.
pub fn fig6_json() -> Json {
    let report = soc_area(&GemminiConfig::edge(), SynthCpu::Rocket);
    let total = report.total_um2();
    Json::obj([
        ("figure", Json::from("fig6_area_breakdown")),
        (
            "components",
            Json::Arr(
                report
                    .components
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::from(c.name.clone())),
                            ("area_um2", Json::from(c.area_um2)),
                            ("fraction", Json::from(c.area_um2 / total)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_um2", Json::from(total)),
        ("sram_fraction", Json::from(report.sram_fraction())),
    ])
}

/// The Fig. 4 SoC: the edge single core with its 4-entry private TLB,
/// sampling the miss rate in 20k-cycle windows under `--quick` and 200k
/// at full size.
pub fn fig4_config(quick: bool) -> SocConfig {
    let mut cfg = SocConfig::edge_single_core();
    cfg.cores[0].translation.private.entries = 4;
    cfg.cores[0].translation.stats_window = if quick { 20_000 } else { 200_000 };
    cfg
}

/// Fig. 4 as JSON: the run length, the translation report (request and
/// walk counts, same-page rates and the windowed miss-rate series) and
/// the L2 traffic the walks and DMA rows caused.
pub fn fig4_json(report: &SocReport) -> Json {
    let core = &report.cores[0];
    Json::obj([
        ("figure", Json::from("fig4_tlb_missrate")),
        ("network", Json::from(core.network.clone())),
        ("total_cycles", Json::from(core.total_cycles)),
        ("dma_translations", Json::from(core.dma.translations)),
        (
            "translation_stall_cycles",
            Json::from(core.dma.translation_stall_cycles),
        ),
        ("translation", core.translation.to_json()),
        ("l2", report.l2.to_json()),
        ("dram_bytes", Json::from(report.dram_bytes)),
    ])
}

/// The Fig. 8 private-TLB sizes (entries).
pub const FIG8_PRIVATES: [u32; 4] = [4, 8, 16, 32];

/// The Fig. 8 shared-L2-TLB sizes (entries; `0` = no L2 TLB).
pub const FIG8_SHAREDS: [u32; 4] = [0, 128, 256, 512];

/// The Fig. 8 grid coordinates `(private, shared, filters)`, in sweep
/// submission order: filters-off block first, then filters-on, each in
/// private-major order. The binary and the shard-merge tests both derive
/// the grid from here so their orders can never diverge.
pub fn fig8_grid() -> Vec<(u32, u32, bool)> {
    let mut grid = Vec::new();
    for &filters in &[false, true] {
        for &p in &FIG8_PRIVATES {
            for &s in &FIG8_SHAREDS {
                grid.push((p, s, filters));
            }
        }
    }
    grid
}

/// The Fig. 8 sweep: one design point per [`fig8_grid`] coordinate,
/// running `net` on the edge SoC with that TLB configuration.
pub fn fig8_points(net: &Network) -> Vec<DesignPoint> {
    fig8_grid()
        .into_iter()
        .map(|(p, s, filters)| {
            let mut cfg = SocConfig::edge_single_core();
            cfg.cores[0].translation.private = TlbConfig::private(p);
            cfg.cores[0].translation.shared = TlbConfig::shared(s);
            cfg.cores[0].translation.filter_registers = filters;
            DesignPoint::timing(
                format!("private={p} shared={s} filters={filters}"),
                cfg,
                net,
            )
        })
        .collect()
}

/// Fig. 8 as JSON: for every [`fig8_grid`] point, its cycle count, the
/// full translation report (hit rates, filter hits, walks, same-page
/// rates, miss-rate series) and the L2 traffic.
///
/// # Panics
///
/// Panics if `results` does not hold one successful report per grid
/// point in [`fig8_points`] order.
pub fn fig8_json(results: &[SweepResult<SocReport>]) -> Json {
    let grid = fig8_grid();
    assert_eq!(results.len(), grid.len());
    Json::obj([
        ("figure", Json::from("fig8_tlb_sweep")),
        (
            "points",
            Json::Arr(
                grid.iter()
                    .zip(results)
                    .map(|(&(private, shared, filters), r)| {
                        let report = r.expect_ok();
                        let core = &report.cores[0];
                        Json::obj([
                            ("private", Json::from(u64::from(private))),
                            ("shared", Json::from(u64::from(shared))),
                            ("filters", Json::Bool(filters)),
                            ("cycles", Json::from(core.total_cycles)),
                            ("dma_translations", Json::from(core.dma.translations)),
                            (
                                "translation_stall_cycles",
                                Json::from(core.dma.translation_stall_cycles),
                            ),
                            ("translation", core.translation.to_json()),
                            ("l2", report.l2.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The four Fig. 7 accelerator variants per network:
/// (label, host CPU, im2col on the accelerator).
pub const FIG7_VARIANTS: [(&str, CpuKind, bool); 4] = [
    ("Rocket host, im2col on CPU", CpuKind::Rocket, false),
    ("BOOM host, im2col on CPU", CpuKind::Boom, false),
    ("Rocket host, im2col on accel", CpuKind::Rocket, true),
    ("BOOM host, im2col on accel", CpuKind::Boom, true),
];

/// The Fig. 7 sweep: one design point per (network, variant), in
/// row-major order (all variants of a network are adjacent).
pub fn fig7_points(nets: &[Network]) -> Vec<DesignPoint> {
    nets.iter()
        .flat_map(|net| {
            FIG7_VARIANTS.iter().map(|&(label, cpu, im2col)| {
                let mut cfg = SocConfig::edge_single_core();
                cfg.cores[0].cpu = cpu;
                cfg.cores[0].accel.has_im2col = im2col;
                DesignPoint::timing(format!("{} / {label}", net.name()), cfg, net)
            })
        })
        .collect()
}

/// Fig. 7 cycle attribution as JSON: for every (network, variant) point,
/// core 0's attribution record — buckets that sum exactly to that
/// point's `total_cycles`. The golden tests pin the quick-mode values so
/// the cycle classification cannot drift silently.
///
/// # Panics
///
/// Panics if `results` does not hold one successful report per
/// (network, variant) pair in [`fig7_points`] order.
pub fn fig7_attribution_json(nets: &[Network], results: &[SweepResult<SocReport>]) -> Json {
    assert_eq!(results.len(), nets.len() * FIG7_VARIANTS.len());
    Json::obj([
        ("figure", Json::from("fig7_attribution")),
        (
            "points",
            Json::Arr(
                nets.iter()
                    .zip(results.chunks(FIG7_VARIANTS.len()))
                    .flat_map(|(net, chunk)| {
                        FIG7_VARIANTS
                            .iter()
                            .zip(chunk)
                            .map(move |(&(label, _, _), r)| {
                                let core = &r.expect_ok().cores[0];
                                Json::obj([
                                    ("network", Json::from(net.name())),
                                    ("variant", Json::from(label)),
                                    ("total_cycles", Json::from(core.total_cycles)),
                                    ("attribution", core.attribution.to_json()),
                                ])
                            })
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Fig. 7 as JSON: per network, the CPU baselines and each variant's
/// cycle count (everything downstream — FPS, speedups — is derived).
///
/// # Panics
///
/// Panics if `results` does not hold one successful report per
/// (network, variant) pair in [`fig7_points`] order.
pub fn fig7_json(nets: &[Network], results: &[SweepResult<SocReport>]) -> Json {
    assert_eq!(results.len(), nets.len() * FIG7_VARIANTS.len());
    let rocket = CpuModel::new(CpuKind::Rocket);
    let boom = CpuModel::new(CpuKind::Boom);
    Json::obj([
        ("figure", Json::from("fig7_speedup")),
        (
            "networks",
            Json::Arr(
                nets.iter()
                    .zip(results.chunks(FIG7_VARIANTS.len()))
                    .map(|(net, chunk)| {
                        Json::obj([
                            ("network", Json::from(net.name())),
                            (
                                "rocket_baseline_cycles",
                                Json::from(network_cpu_cycles(&rocket, net)),
                            ),
                            (
                                "boom_baseline_cycles",
                                Json::from(network_cpu_cycles(&boom, net)),
                            ),
                            (
                                "variants",
                                Json::Arr(
                                    FIG7_VARIANTS
                                        .iter()
                                        .zip(chunk)
                                        .map(|(&(label, _, _), r)| {
                                            Json::obj([
                                                ("label", Json::from(label)),
                                                (
                                                    "cycles",
                                                    Json::from(r.expect_ok().cores[0].total_cycles),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
