//! Regenerates Fig. 9: the system-level memory-partitioning case study.
//! Three SoC configurations (Base / BigSP / BigL2, Fig. 9a) × single- and
//! dual-core, running ResNet50 per core; performance reported per layer
//! class and overall, normalized to Base.
//!
//! Paper shapes to hold:
//! * single-core: BigSP wins overall (conv ≈+10%, matmul ≈+1%, residual
//!   adds flat-to-slightly-worse);
//! * dual-core: BigL2 wins overall (≈+8.0% vs BigSP's ≈+4.2%) because each
//!   core's residual additions evict the other's data from the shared L2
//!   (resadd ≈+22% on BigL2; L2 miss rate drops ≈7 points).
//!
//! Takes the sweep flags, `--quick` and `--trace`
//! ([`gemmini_bench::SweepCli`]); the trace covers the first design
//! point.

use gemmini_bench::{resnet_workload, section, SweepCli, SWEEP_FLAGS};
use gemmini_dnn::graph::LayerClass;
use gemmini_soc::run::SocReport;
use gemmini_soc::sweep::{merge_memory_stats, DesignPoint};
use gemmini_soc::SocConfig;

struct Outcome {
    name: &'static str,
    report: SocReport,
}

fn class_cycles(o: &Outcome, class: LayerClass) -> f64 {
    o.report
        .cores
        .iter()
        .map(|c| c.class_cycles(class) as f64)
        .sum()
}

fn total_cycles(o: &Outcome) -> f64 {
    o.report
        .cores
        .iter()
        .map(|c| c.total_cycles as f64)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0)
}

fn main() {
    let cli = SweepCli::parse(&[&["--quick", "--trace <path>"], SWEEP_FLAGS].concat());
    let net = resnet_workload(cli.quick);

    section("Fig. 9a: resource-contention SoC configurations");
    println!("Base : 256 KB scratchpad + 256 KB accumulator per core, 1 MB L2");
    println!("BigSP: 512 KB scratchpad + 512 KB accumulator per core, 1 MB L2");
    println!("BigL2: 256 KB scratchpad + 256 KB accumulator per core, 2 MB L2");

    // All six (configuration, core-count) points run in one sweep.
    type ConfigMaker = fn(usize) -> SocConfig;
    let configs: [(&str, ConfigMaker); 3] = [
        ("Base", SocConfig::partition_base),
        ("BigSP", SocConfig::partition_big_sp),
        ("BigL2", SocConfig::partition_big_l2),
    ];
    let sweep = [1usize, 2]
        .iter()
        .flat_map(|&cores| configs.iter().map(move |&(name, make)| (cores, name, make)))
        .map(|(cores, name, make)| {
            DesignPoint::timing(format!("{name} x{cores}"), make(cores), &net)
        })
        .collect::<Vec<_>>();
    let first = sweep[0].clone();
    let results = cli.sweep(sweep);
    cli.export_trace(&first);
    let rollup = merge_memory_stats(results.iter().filter_map(|r| r.ok()));
    eprintln!(
        "sweep totals: {} points, L2 {} accesses ({:.1}% miss), DRAM {:.1} MB",
        rollup.reports,
        rollup.l2.accesses(),
        rollup.l2.miss_rate() * 100.0,
        rollup.dram.total_bytes() as f64 / 1e6
    );

    for (i, cores) in [1usize, 2].into_iter().enumerate() {
        let outcomes: Vec<Outcome> = configs
            .iter()
            .zip(&results[i * configs.len()..(i + 1) * configs.len()])
            .map(|(&(name, _), r)| Outcome {
                name,
                report: r.expect_ok().clone(),
            })
            .collect();
        let base = &outcomes[0];

        section(&format!(
            "Fig. 9{}: {}-core performance normalized to Base",
            if cores == 1 { 'b' } else { 'c' },
            cores
        ));
        println!(
            "{:<8} {:>8} {:>8} {:>8} {:>8}   {:>10} {:>10}",
            "config", "conv", "matmul", "resadd", "overall", "L2 miss%", "DRAM MB"
        );
        for o in &outcomes {
            let speedup = |class| {
                let b = class_cycles(base, class);
                let v = class_cycles(o, class);
                if v == 0.0 {
                    1.0
                } else {
                    b / v
                }
            };
            println!(
                "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3}   {:>9.1}% {:>10.1}",
                o.name,
                speedup(LayerClass::Conv),
                speedup(LayerClass::Matmul),
                speedup(LayerClass::ResAdd),
                total_cycles(base) / total_cycles(o),
                o.report.l2.miss_rate * 100.0,
                o.report.dram_bytes as f64 / 1e6,
            );
        }
        if cores == 2 {
            let big_l2 = &outcomes[2];
            println!(
                "\nL2 miss-rate change Base -> BigL2: {:.1} -> {:.1} points (paper: -7.1 points)",
                base.report.l2.miss_rate * 100.0,
                big_l2.report.l2.miss_rate * 100.0
            );
        }
    }

    section("Paper anchors");
    println!("single-core: BigSP best (conv +10%, matmul +1%, resadd 0/-1-4%)");
    println!("dual-core: BigL2 best overall (+8.0% vs BigSP +4.2%; resadd +22%)");
}
