//! Regenerates Fig. 8: ResNet50 performance across private / shared-L2 TLB
//! sizes, (a) without and (b) with the filter registers, plus the Section
//! V-A headline statistics.
//!
//! Paper shapes to hold:
//! * private TLB size dominates: 4→16 entries buys up to ~11%, while even
//!   512 shared-L2-TLB entries never buy more than ~8%;
//! * with filter registers, a 4-entry private TLB and **no** L2 TLB lands
//!   within ~2% of the best configuration observed;
//! * effective hit rate (incl. filters) ≈90%; consecutive same-page rates
//!   ≈87% (reads) / ≈83% (writes).
//!
//! Takes the sweep flags, `--quick` and `--trace`
//! ([`gemmini_bench::SweepCli`]); the trace covers the first design
//! point. CI exercises the `--json` / `--resume` interrupt path on this
//! binary.

use gemmini_bench::figures::{fig8_grid, fig8_points, FIG8_PRIVATES, FIG8_SHAREDS};
use gemmini_bench::{resnet_workload, section, SweepCli, SWEEP_FLAGS};
use gemmini_soc::sweep::merge_memory_stats;

struct Point {
    private: u32,
    shared: u32,
    filters: bool,
    cycles: u64,
    eff_hit: f64,
    rd_same: f64,
    wr_same: f64,
}

fn main() {
    let cli = SweepCli::parse(&[&["--quick", "--trace <path>"], SWEEP_FLAGS].concat());
    let net = resnet_workload(cli.quick);
    let privates = FIG8_PRIVATES;
    let shareds = FIG8_SHAREDS;
    let grid = fig8_grid();
    let sweep = fig8_points(&net);

    let first = sweep[0].clone();
    let results = cli.sweep(sweep);
    cli.export_trace(&first);
    let rollup = merge_memory_stats(results.iter().filter_map(|r| r.ok()));
    let points: Vec<Point> = grid
        .iter()
        .zip(&results)
        .map(|(&(private, shared, filters), r)| {
            let c = &r.expect_ok().cores[0];
            Point {
                private,
                shared,
                filters,
                cycles: c.total_cycles,
                eff_hit: c.translation.effective_hit_rate,
                rd_same: c.translation.consecutive_read_same_page,
                wr_same: c.translation.consecutive_write_same_page,
            }
        })
        .collect();
    eprintln!(
        "sweep totals: {} points, L2 {} accesses ({:.1}% miss), DRAM {:.1} MB",
        rollup.reports,
        rollup.l2.accesses(),
        rollup.l2.miss_rate() * 100.0,
        rollup.dram.total_bytes() as f64 / 1e6
    );
    let best = points.iter().map(|p| p.cycles).min().expect("points exist") as f64;

    for &filters in &[false, true] {
        section(&format!(
            "Fig. 8{}: normalized performance ({} filter registers)",
            if filters { "b" } else { "a" },
            if filters { "with" } else { "without" }
        ));
        print!("{:>14}", "private\\shared");
        for s in shareds {
            print!(" {s:>8}");
        }
        println!();
        for p in privates {
            print!("{p:>14}");
            for s in shareds {
                let pt = points
                    .iter()
                    .find(|x| x.private == p && x.shared == s && x.filters == filters)
                    .expect("swept");
                print!(" {:>8.3}", best / pt.cycles as f64);
            }
            println!();
        }
    }

    section("Section V-A headline checks");
    let tiny_no_l2 = points
        .iter()
        .find(|x| x.private == 4 && x.shared == 0 && x.filters)
        .expect("swept");
    println!(
        "4-entry private + filter registers + NO L2 TLB: {:.1}% of best (paper: within ~2%)",
        100.0 * best / tiny_no_l2.cycles as f64
    );
    println!(
        "effective hit rate incl. filters: {:.1}% (paper: ~90%)",
        tiny_no_l2.eff_hit * 100.0
    );
    println!(
        "consecutive same-page: reads {:.1}% / writes {:.1}% (paper: 87% / 83%)",
        tiny_no_l2.rd_same * 100.0,
        tiny_no_l2.wr_same * 100.0
    );

    // Private vs shared sensitivity (no filters).
    let base = points
        .iter()
        .find(|x| x.private == 4 && x.shared == 0 && !x.filters)
        .expect("swept");
    let grow_private = points
        .iter()
        .find(|x| x.private == 16 && x.shared == 0 && !x.filters)
        .expect("swept");
    let grow_shared = points
        .iter()
        .find(|x| x.private == 4 && x.shared == 512 && !x.filters)
        .expect("swept");
    println!(
        "growing private 4->16: +{:.1}% (paper: up to ~11%); adding 512-entry L2 TLB: +{:.1}% (paper: <8%)",
        100.0 * (base.cycles as f64 / grow_private.cycles as f64 - 1.0),
        100.0 * (base.cycles as f64 / grow_shared.cycles as f64 - 1.0),
    );
}
