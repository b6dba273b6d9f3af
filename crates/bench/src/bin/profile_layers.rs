//! Per-layer profiler: runs one zoo network (timing mode) and prints every
//! layer that contributes ≥1% of total cycles — the tool used to find
//! bottlenecks while calibrating this reproduction.
//!
//! ```sh
//! cargo run --release -p gemmini-bench --bin profile_layers -- resnet50
//! ```

use gemmini_bench::{zoo_matching, SweepCli};
use gemmini_soc::run::{run_networks, RunOptions};
use gemmini_soc::soc::SocConfig;

fn main() {
    let cli = SweepCli::parse(&["[network]"]);
    let name = cli.positional.as_deref().unwrap_or("resnet50");
    let net = zoo_matching(name).remove(0);

    let report = run_networks(
        &SocConfig::edge_single_core(),
        &[net],
        &RunOptions::timing(),
    )
    .expect("simulation succeeds");
    let core = &report.cores[0];

    println!(
        "{}: {} cycles total, {} MACs ({:.1}% of peak at 256 MACs/cycle)",
        core.network,
        core.total_cycles,
        core.macs,
        100.0 * core.macs as f64 / (core.total_cycles as f64 * 256.0)
    );
    println!("layers contributing >= 1% of total:");
    for l in &core.layers {
        if l.cycles * 100 >= core.total_cycles {
            println!(
                "  {:<22} {:<7} {:>12} cycles ({:>4.1}%)",
                l.name,
                l.class.to_string(),
                l.cycles,
                100.0 * l.cycles as f64 / core.total_cycles as f64
            );
        }
    }
}
