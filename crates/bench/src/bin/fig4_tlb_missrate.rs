//! Regenerates Fig. 4: "TLB miss rate over a full ResNet50 inference,
//! profiled on a Gemmini-generated accelerator".
//!
//! Paper shape to hold: the private-TLB miss rate over time spikes to
//! 20–30% around layer transitions (tiled workloads touch fresh pages in
//! bursts), orders of magnitude above classic CPU workload TLB miss rates.

use gemmini_bench::figures::fig4_config;
use gemmini_bench::{bar, resnet_workload, section, SweepCli};
use gemmini_soc::run::{run_networks, RunOptions};

fn main() {
    let cli = SweepCli::parse(&["--quick"]);
    let net = resnet_workload(cli.quick);
    // Fig. 4 profiles the small private TLB of the edge co-design study.
    let cfg = fig4_config(cli.quick);

    section(&format!(
        "Fig. 4: TLB miss rate over a full {} inference",
        net.name()
    ));
    let report = run_networks(&cfg, &[net], &RunOptions::timing()).expect("run succeeds");
    let core = &report.cores[0];
    let t = &core.translation;

    println!(
        "total: {} cycles, {} TLB requests, {} walks, private hit rate {:.1}%",
        core.total_cycles,
        t.requests,
        t.walks,
        t.private_hit_rate * 100.0
    );
    println!(
        "consecutive same-page: reads {:.1}% writes {:.1}% (paper: 87% / 83%)",
        t.consecutive_read_same_page * 100.0,
        t.consecutive_write_same_page * 100.0
    );

    let peak = t
        .miss_rate_series
        .iter()
        .map(|&(_, r)| r)
        .fold(0.0f64, f64::max);
    println!(
        "peak windowed miss rate: {:.1}% (paper: spikes of 20-30%)",
        peak * 100.0
    );

    section("miss-rate series (window start Mcycles | miss % | profile)");
    // Downsample to at most ~60 printed rows.
    let series = &t.miss_rate_series;
    let stride = (series.len() / 60).max(1);
    for chunk in series.chunks(stride) {
        let start = chunk[0].0;
        let rate = chunk.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
        println!(
            "{:>9.2} | {:>5.1}% | {}",
            start as f64 / 1e6,
            rate * 100.0,
            bar(rate, peak.max(1e-9), 50)
        );
    }
}
