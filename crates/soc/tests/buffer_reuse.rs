//! Reused set-up buffers leave no trace in the reports.
//!
//! The L2's tag and LRU arrays and the engines' row scoreboards come from
//! a per-thread spare list (`gemmini_mem::spare`): a point takes the
//! buffers an earlier point on the same thread dropped, zeroed again. Here
//! random sequences of timing points, whose L2 size, scratchpad and
//! accumulator sizes and core count differ so that buffers of different
//! lengths are handed from point to point, run back to back on one
//! thread. Each report must be `Debug`-equal to the same point's report on
//! a fresh thread, whose spare list is empty.
//!
//! The release-mode sweep with many more cases runs with
//! `cargo test --release -p gemmini-soc --test buffer_reuse -- --include-ignored`.

use gemmini_dnn::graph::{Activation, Layer, Network};
use gemmini_mem::cache::CacheConfig;
use gemmini_soc::run::{run_networks, RunOptions, SocReport};
use gemmini_soc::SocConfig;
use proptest::prelude::*;

/// One timing point: its SoC and the matmul each core runs.
#[derive(Debug, Clone)]
struct Point {
    config: SocConfig,
    nets: Vec<Network>,
}

impl Point {
    fn run(&self) -> SocReport {
        run_networks(&self.config, &self.nets, &RunOptions::timing()).expect("point runs")
    }
}

fn point() -> impl Strategy<Value = Point> {
    (
        (1usize..3, 0usize..5, 0usize..4, 0usize..4),
        (1usize..80, 1usize..80, 1usize..80),
    )
        .prop_map(|((cores, l2, sp, acc), (m, k, n))| {
            let mut config = if cores == 1 {
                SocConfig::edge_single_core()
            } else {
                SocConfig::edge_dual_core()
            };
            for core in &mut config.cores {
                core.accel.sp_capacity_kb = [16, 64, 256, 512][sp];
                core.accel.acc_capacity_kb = [16, 64, 256, 512][acc];
            }
            config.mem.l2 = CacheConfig {
                size_bytes: (64 << 10) << l2,
                ..CacheConfig::l2_mb(1)
            };
            let mut net = Network::new(format!("mm_{m}x{k}x{n}"));
            net.push(
                "fc",
                Layer::Matmul {
                    m,
                    k,
                    n,
                    activation: Activation::Relu,
                },
            );
            Point {
                config,
                nets: vec![net; cores],
            }
        })
}

/// Runs `points` back to back on this thread, then each on a fresh one,
/// and compares the reports.
fn check(points: &[Point]) {
    let reused: Vec<String> = points.iter().map(|p| format!("{:?}", p.run())).collect();
    for (i, (p, got)) in points.iter().zip(&reused).enumerate() {
        let fresh = std::thread::scope(|s| s.spawn(|| format!("{:?}", p.run())).join())
            .expect("fresh point runs");
        assert_eq!(got, &fresh, "point {i} of {points:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every report of a sequence run on one thread equals the report of
    /// the same point run on a fresh thread.
    #[test]
    fn reused_buffers_give_fresh_reports(points in prop::collection::vec(point(), 2..5)) {
        check(&points);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn reused_buffers_give_fresh_reports_many(points in prop::collection::vec(point(), 2..5)) {
        check(&points);
    }
}
