//! Regenerates Fig. 7: end-to-end speedup of Gemmini-generated accelerators
//! over an in-order CPU baseline, for five DNNs, two host CPUs and two
//! accelerator variants (with / without the on-the-fly im2col block).
//!
//! Paper shapes to hold:
//! * ResNet50 ≈2,670× over Rocket / ≈1,130× over BOOM (22.8 FPS @1 GHz);
//! * AlexNet ≈79 FPS; MobileNetV2 only ≈127× (depthwise layers map badly);
//!   SqueezeNet ≈1,760×; BERT ≈144×;
//! * without the im2col block, a BOOM host roughly doubles CNN performance
//!   over a Rocket host; with it, the host choice barely matters.
//!
//! Takes the sweep flags, `--quick`, `--only <name>` and `--trace`
//! ([`gemmini_bench::SweepCli`]); the trace covers the first design
//! point. `tests/golden_figures.rs` guards the quick-mode numbers.

use gemmini_bench::figures::{fig7_points, FIG7_VARIANTS};
use gemmini_bench::{quick_resnet, section, zoo_matching, SweepCli, SWEEP_FLAGS};
use gemmini_cpu::kernels::network_cpu_cycles;
use gemmini_cpu::{CpuKind, CpuModel};
use gemmini_dnn::graph::Network;
use gemmini_dnn::zoo;

struct Row {
    net: String,
    rocket_baseline: u64,
    boom_baseline: u64,
    accel: Vec<(String, u64)>, // (variant, cycles)
}

fn main() {
    let usage = [&["--quick", "--only <name>", "--trace <path>"], SWEEP_FLAGS].concat();
    let cli = SweepCli::parse(&usage);
    let only = cli.only.as_deref().map(zoo_matching);
    let nets: Vec<Network> = if cli.quick {
        vec![quick_resnet(), zoo::tiny_cnn()]
    } else if let Some(nets) = only {
        nets
    } else {
        zoo::all()
    };

    let rocket = CpuModel::new(CpuKind::Rocket);
    let boom = CpuModel::new(CpuKind::Boom);
    let clock = 1.0; // GHz, as in the paper's FPS numbers

    // One sweep point per (network, variant), in row-major order.
    let sweep = fig7_points(&nets);
    let first = sweep[0].clone();
    let results = cli.sweep(sweep);

    cli.export_trace(&first);

    let rows: Vec<Row> = nets
        .iter()
        .zip(results.chunks(FIG7_VARIANTS.len()))
        .map(|(net, chunk)| Row {
            net: net.name().to_string(),
            rocket_baseline: network_cpu_cycles(&rocket, net),
            boom_baseline: network_cpu_cycles(&boom, net),
            accel: FIG7_VARIANTS
                .iter()
                .zip(chunk)
                .map(|(&(label, _, _), r)| (label.to_string(), r.expect_ok().cores[0].total_cycles))
                .collect(),
        })
        .collect();

    section("Fig. 7: speedup over the in-order (Rocket) CPU baseline");
    for r in &rows {
        println!();
        println!(
            "{}  (Rocket baseline {:.2} Gcycles, BOOM baseline {:.2} Gcycles)",
            r.net,
            r.rocket_baseline as f64 / 1e9,
            r.boom_baseline as f64 / 1e9
        );
        for (name, cycles) in &r.accel {
            let speedup_rocket = r.rocket_baseline as f64 / *cycles as f64;
            let speedup_boom = r.boom_baseline as f64 / *cycles as f64;
            let fps = clock * 1e9 / *cycles as f64;
            println!(
                "  {:<30} {:>12} cycles  {:>8.1} FPS  {:>8.0}x vs Rocket  {:>7.0}x vs BOOM",
                name, cycles, fps, speedup_rocket, speedup_boom
            );
        }
        // The paper's host-CPU observation.
        let no_unit_rocket = r.accel[0].1 as f64;
        let no_unit_boom = r.accel[1].1 as f64;
        let unit_rocket = r.accel[2].1 as f64;
        let unit_boom = r.accel[3].1 as f64;
        println!(
            "  host-CPU effect: {:.2}x without im2col unit, {:.2}x with (paper: ~2.0x -> ~1x)",
            no_unit_rocket / no_unit_boom,
            unit_rocket / unit_boom
        );
    }

    section("Paper anchors (full runs only)");
    println!("ResNet50: 2,670x vs Rocket / 1,130x vs BOOM / 22.8 FPS (accel im2col, Rocket host)");
    println!("AlexNet: 79.3 FPS; MobileNetV2: 127x, 18.7 FPS; SqueezeNet: 1,760x; BERT: 144x");
}
