//! Energy ablation (extension beyond the paper's figures): per-inference
//! energy and TOPS/W for each evaluated network and for the Fig. 3 spatial
//! array extremes, combining the simulator's activity counters with the
//! synthesis model's energy constants.
//!
//! Takes the sweep flags, `--quick` and `--trace`
//! ([`gemmini_bench::SweepCli`]); the trace covers the ResNet-style
//! workload on the edge configuration.

use gemmini_bench::{quick_resnet, resnet_workload, section, SweepCli, SWEEP_FLAGS};
use gemmini_dnn::zoo;
use gemmini_soc::run::{CoreReport, SocReport};
use gemmini_soc::sweep::DesignPoint;
use gemmini_soc::SocConfig;
use gemmini_synth::energy::{inference_energy, RunActivity};
use gemmini_synth::timing::fmax_ghz;

fn activity(report: &SocReport, core: &CoreReport) -> RunActivity {
    RunActivity {
        macs: core.macs,
        local_bytes: core.dma.bytes_in + core.dma.bytes_out,
        dram_bytes: report.dram_bytes,
        cycles: core.total_cycles,
    }
}

fn main() {
    let cli = SweepCli::parse(&[&["--quick", "--trace <path>"], SWEEP_FLAGS].concat());
    let nets = if cli.quick {
        vec![quick_resnet()]
    } else {
        zoo::all()
    };
    let extreme_net = resnet_workload(cli.quick);
    let extremes = [
        (
            "TPU-like (pipelined)",
            gemmini_core::config::GemminiConfig::tpu_like_256(),
        ),
        (
            "NVDLA-like (combinational)",
            gemmini_core::config::GemminiConfig::nvdla_like_256(),
        ),
    ];

    // One sweep: every network on the edge configuration, then the two
    // Fig. 3 spatial-array extremes on the ResNet-style network.
    let mut sweep: Vec<DesignPoint> = nets
        .iter()
        .map(|net| DesignPoint::timing(net.name(), SocConfig::edge_single_core(), net))
        .collect();
    for (name, accel) in &extremes {
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel = accel.clone();
        sweep.push(DesignPoint::timing(*name, cfg, &extreme_net));
    }
    let first = sweep[0].clone();
    let results = cli.sweep(sweep);

    cli.export_trace(&first);

    section("Per-inference energy on the edge configuration (1 GHz)");
    println!(
        "{:<18} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "network", "cycles", "mac uJ", "sram uJ", "dram uJ", "leak uJ", "total mJ", "TOPS/W"
    );
    let edge_accel = &SocConfig::edge_single_core().cores[0].accel.clone();
    for (net, r) in nets.iter().zip(&results) {
        let report = r.expect_ok();
        let core = &report.cores[0];
        let e = inference_energy(edge_accel, activity(report, core), edge_accel.clock_ghz);
        println!(
            "{:<18} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.3} {:>8.2}",
            net.name(),
            core.total_cycles,
            e.mac_uj,
            e.sram_uj,
            e.dram_uj,
            e.leakage_uj,
            e.total_uj() / 1000.0,
            e.tops_per_watt(core.macs, core.total_cycles, edge_accel.clock_ghz),
        );
    }

    section("Fig. 3 extremes at their own fmax: energy per ResNet-style inference");
    for ((name, accel), r) in extremes.iter().zip(&results[nets.len()..]) {
        let clock = fmax_ghz(accel);
        let report = r.expect_ok();
        let core = &report.cores[0];
        let e = inference_energy(accel, activity(report, core), clock);
        println!(
            "{name}: {:.2} GHz, {:.1} ms/inf, {:.2} mJ/inf, {:.2} TOPS/W",
            clock,
            core.total_cycles as f64 / (clock * 1e9) * 1e3,
            e.total_uj() / 1000.0,
            e.tops_per_watt(core.macs, core.total_cycles, clock)
        );
    }
    println!("\nThe vector design trades latency (lower clock) for energy (no");
    println!("pipeline registers); the energy gap is smaller than the power gap");
    println!("because the run also takes longer, accruing leakage.");
}
