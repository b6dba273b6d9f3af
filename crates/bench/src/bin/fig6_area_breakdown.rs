//! Regenerates Fig. 6: the area breakdown table (6a) and a layout sketch
//! (6b) for the paper's edge configuration — 16×16 array, 256 KiB
//! scratchpad, 64 KiB accumulator, Rocket host — in the calibrated
//! Intel-22FFL analytical model.
//!
//! Paper numbers to hold: spatial array 11.3%, scratchpad 52.9%,
//! accumulator 14.2%, CPU 16.6%, total ≈1,029 kµm²; SRAMs ≈67.1%.

use gemmini_bench::figures::fig6_json;
use gemmini_bench::{section, write_json_doc, SweepCli};
use gemmini_core::config::GemminiConfig;
use gemmini_synth::area::{soc_area, CpuKind};
use gemmini_synth::floorplan::Floorplan;
use gemmini_synth::report::area_table;

fn main() {
    let cli = SweepCli::parse(&["--json <path>"]);
    let cfg = GemminiConfig::edge();
    let report = soc_area(&cfg, CpuKind::Rocket);

    section("Fig. 6a: area breakdown (Intel 22FFL-calibrated model)");
    print!("{}", area_table(&report));
    println!(
        "\nSRAM share of system area: {:.1}% (paper: 67.1%)",
        report.sram_fraction() * 100.0
    );

    section("Fig. 6b: layout sketch (slicing floorplan)");
    let plan = Floorplan::from_area(&report);
    println!(
        "die: {:.0} x {:.0} um ({:.3} mm^2)",
        plan.die_w,
        plan.die_h,
        plan.die_w * plan.die_h / 1e6
    );
    print!("{}", plan.render(48, 16));
    for b in &plan.blocks {
        println!(
            "  {} = {} ({:.0} x {:.0} um)",
            b.name.chars().next().unwrap_or('?').to_ascii_uppercase(),
            b.name,
            b.w,
            b.h
        );
    }

    section("Sensitivity: BigSP and fp32 variants");
    for (name, cfg) in [
        (
            "BigSP (512 KiB sp / 512 KiB acc)",
            GemminiConfig {
                sp_capacity_kb: 512,
                acc_capacity_kb: 512,
                ..GemminiConfig::edge()
            },
        ),
        (
            "fp32 datapath",
            GemminiConfig {
                dtype: gemmini_core::config::DataType::Fp32,
                ..GemminiConfig::edge()
            },
        ),
    ] {
        let r = soc_area(&cfg, CpuKind::Rocket);
        println!("{name}: total {:.0} kum2", r.total_um2() / 1000.0);
    }

    if let Some(path) = &cli.json {
        write_json_doc(path, &fig6_json());
        eprintln!("fig6: wrote {}", path.display());
    }
}
