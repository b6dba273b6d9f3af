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
//! `--json <path>` persists every design point as one JSON line (the
//! sweep checkpoint format); `--resume` skips points already in that
//! file; `--shards N` / `--shard i/N` / `--merge <shard.jsonl>...` run
//! the sweep as supervised multi-process shards; `--trace <path>` writes
//! a Chrome `trace_event` JSON timeline of the first design point.
//! `tests/golden_figures.rs` guards the quick-mode numbers.
//!
//! Robustness flags (shared by every sweep binary): `--watchdog <secs>`
//! has the `--shards` supervisor kill and retry a worker whose heartbeat
//! stops advancing; `--point-timeout <secs>` records a wedged point as a
//! first-class `failed:timeout` checkpoint entry and finishes the sweep
//! with a failure summary and exit 3 instead of hanging; `--faults
//! <schedule>` arms the deterministic fault-injection registry
//! ([`gemmini_soc::fault`]) for chaos testing.

use gemmini_bench::figures::{fig7_points, FIG7_VARIANTS};
use gemmini_bench::{
    arg_value, export_trace_run, quick_mode, quick_resnet, section, sharded_sweep, trace_path,
};
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
    let nets: Vec<Network> = if quick_mode() {
        vec![quick_resnet(), zoo::tiny_cnn()]
    } else if let Some(name) = arg_value("--only") {
        zoo::all()
            .into_iter()
            .filter(|n| n.name().contains(&name))
            .collect()
    } else {
        zoo::all()
    };

    let rocket = CpuModel::new(CpuKind::Rocket);
    let boom = CpuModel::new(CpuKind::Boom);
    let clock = 1.0; // GHz, as in the paper's FPS numbers

    // One sweep point per (network, variant), in row-major order.
    let Some(results) = sharded_sweep(fig7_points(&nets)) else {
        return; // shard worker: the checkpoint file is the output
    };

    if let Some(path) = trace_path() {
        let point = fig7_points(&nets)
            .into_iter()
            .next()
            .expect("fig7 has at least one point");
        export_trace_run(&path, &point.label, &point.config, &point.networks);
    }

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
