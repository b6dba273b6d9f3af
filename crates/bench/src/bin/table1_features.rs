//! Regenerates Table I: the qualitative feature comparison of DNN
//! accelerator generators. (The table is documentation-level; it is printed
//! here so the benchmark harness covers every table in the paper, and the
//! Gemmini column is cross-checked against what this reproduction actually
//! implements.)

use gemmini_bench::{section, SweepCli};
use gemmini_core::config::GemminiConfig;

fn main() {
    SweepCli::parse(&[]);
    section("Table I: Comparison of DNN accelerator generators");
    let rows = [
        (
            "Property",
            "NVDLA",
            "VTA",
            "PolySA",
            "DNNBuilder",
            "MAGNet",
            "DNNWeaver",
            "MAERI",
            "Gemmini",
        ),
        (
            "Datatypes",
            "Int/Float",
            "Int",
            "Int",
            "Int",
            "Int",
            "Int",
            "Int",
            "Int/Float",
        ),
        (
            "Dataflows",
            "fixed",
            "fixed",
            "fixed",
            "fixed",
            "flex",
            "fixed",
            "flex",
            "WS+OS",
        ),
        (
            "Spatial array",
            "vector",
            "vector",
            "systolic",
            "systolic",
            "vector",
            "vector",
            "vector",
            "vector+systolic",
        ),
        (
            "Direct conv",
            "yes",
            "no",
            "no",
            "yes",
            "yes",
            "yes",
            "yes",
            "yes",
        ),
        (
            "Software", "Compiler", "TVM", "SDAccel", "Caffe", "C", "Caffe", "Custom", "ONNX/C",
        ),
        (
            "Virtual memory",
            "no",
            "no",
            "no",
            "no",
            "no",
            "no",
            "no",
            "YES",
        ),
        ("Full SoC", "no", "no", "no", "no", "no", "no", "no", "YES"),
        (
            "OS support",
            "yes",
            "yes",
            "no",
            "no",
            "no",
            "no",
            "no",
            "YES",
        ),
    ];
    for r in rows {
        println!(
            "{:<16}{:<11}{:<9}{:<10}{:<12}{:<9}{:<11}{:<9}{}",
            r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7, r.8
        );
    }

    section("Cross-check: what this reproduction's Gemmini column rests on");
    let cfg = GemminiConfig::edge();
    println!(
        "- Datatypes: int8 (functional+timing) and fp32 (timing/area) — DataType in config: {:?}",
        cfg.dtype
    );
    println!(
        "- Dataflows: weight-stationary simulated; output-stationary a generator option, not simulated — Dataflow in config: {:?}",
        cfg.dataflow
    );
    println!(
        "- Spatial array: two-level mesh/tile template covers systolic (tile 1x1) and vector (mesh 1x1): {}x{} mesh of {}x{} tiles",
        cfg.mesh_rows, cfg.mesh_cols, cfg.tile_rows, cfg.tile_cols
    );
    println!(
        "- Direct convolution: on-the-fly im2col block = {}",
        cfg.has_im2col
    );
    println!("- Software: textual network format (ONNX stand-in) + low-level kernel API");
    println!("- Virtual memory: private TLB + shared L2 TLB + PTW + filter registers (gemmini-vm)");
    println!("- Full SoC: multi-core, shared L2/DRAM (gemmini-soc)");
    println!("- OS support: context-switch/TLB-flush injection (gemmini-soc::os)");
    println!(
        "\nGenerated header for the software stack:\n{}",
        cfg.header()
    );
}
