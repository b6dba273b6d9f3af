//! Host-time cost of the default-off observation layers.
//!
//! One 32×32×32 matmul on `edge_single_core` runs in timing mode through
//! `run_networks_observed` in three arms: everything disabled, a live
//! metrics registry, and a buffered tracer. Each arm is warmed first, so
//! the first arm to run does not pay the allocator's one-off growth of the
//! heap. Then every round times `RUNS` runs per arm in `BLOCKS` blocks,
//! alternating the arm order between blocks so drift and bursts in the
//! host's speed cancel out of the per-round ratios. The gates are on the
//! median ratio over the rounds:
//!
//! * enabled registry ÷ disabled < [`METRICS_BOUND`];
//! * buffered tracer ÷ disabled < [`TRACE_BOUND`].
//!
//! Timing gates only mean something in release mode with nothing else
//! running, so the test is ignored by default:
//!
//! ```sh
//! cargo test --release -p gemmini-soc --test observation_overhead -- --ignored --test-threads=1
//! ```

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::Tracer;
use gemmini_dnn::graph::{Activation, Layer, Network};
use gemmini_soc::run::{run_networks_observed, RunOptions};
use gemmini_soc::SocConfig;
use std::hint::black_box;
use std::time::Instant;

/// Budget of a live metrics registry over the disabled handle.
const METRICS_BOUND: f64 = 1.05;
/// Budget of a buffered tracer over the disabled tracer.
const TRACE_BOUND: f64 = 1.4;
/// Timed rounds; the gates take the median ratio over them.
const ROUNDS: usize = 11;
/// Runs per arm per round.
const RUNS: usize = 1000;
/// Blocks a round's runs are split into, the arm order alternating
/// between blocks, so a burst of load from elsewhere on the host lands
/// on every arm of the round alike.
const BLOCKS: usize = 10;

#[derive(Debug, Clone, Copy)]
enum Arm {
    Disabled,
    Metrics,
    Trace,
}

fn matmul_net() -> Network {
    let mut net = Network::new("overhead_mm");
    net.push(
        "fc",
        Layer::Matmul {
            m: 32,
            k: 32,
            n: 32,
            activation: Activation::None,
        },
    );
    net
}

/// Host seconds for `runs` runs of one arm. The metrics arm shares one
/// registry across runs, as a sweep shares one across points; the trace
/// arm drains a fresh buffer per run, as `--trace` does per point.
fn time_arm(arm: Arm, runs: usize, cfg: &SocConfig, net: &Network, metrics: &Metrics) -> f64 {
    let nets = std::slice::from_ref(net);
    let options = RunOptions::timing();
    let start = Instant::now();
    for _ in 0..runs {
        let report = match arm {
            Arm::Disabled => run_networks_observed(
                cfg,
                nets,
                &options,
                &Tracer::disabled(),
                &Metrics::disabled(),
            ),
            Arm::Metrics => {
                run_networks_observed(cfg, nets, &options, &Tracer::disabled(), metrics)
            }
            Arm::Trace => {
                let (tracer, sink) = Tracer::buffered();
                let report =
                    run_networks_observed(cfg, nets, &options, &tracer, &Metrics::disabled());
                black_box(sink.lock().unwrap().take().len());
                report
            }
        }
        .unwrap();
        black_box(report.cores[0].total_cycles);
    }
    start.elapsed().as_secs_f64()
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn observation_overhead_stays_within_budget() {
    let cfg = SocConfig::edge_single_core();
    let net = matmul_net();
    let (metrics, _registry) = Metrics::enabled();
    let arms = [Arm::Disabled, Arm::Metrics, Arm::Trace];
    for arm in arms {
        time_arm(arm, RUNS, &cfg, &net, &metrics);
    }
    let mut metrics_ratios = Vec::with_capacity(ROUNDS);
    let mut trace_ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut secs = [0.0; 3];
        for block in 0..BLOCKS {
            let mut order = arms;
            if (round * BLOCKS + block) % 2 == 1 {
                order.reverse();
            }
            for arm in order {
                secs[arm as usize] += time_arm(arm, RUNS / BLOCKS, &cfg, &net, &metrics);
            }
        }
        let disabled = secs[Arm::Disabled as usize];
        metrics_ratios.push(secs[Arm::Metrics as usize] / disabled);
        trace_ratios.push(secs[Arm::Trace as usize] / disabled);
    }
    let metrics_ratio = median(&metrics_ratios);
    let trace_ratio = median(&trace_ratios);
    println!("metrics enabled / disabled: {metrics_ratio:.3}x, rounds {metrics_ratios:.3?}");
    println!("tracer buffered / disabled: {trace_ratio:.3}x, rounds {trace_ratios:.3?}");
    assert!(
        metrics_ratio < METRICS_BOUND,
        "live metrics registry costs {metrics_ratio:.3}x the disabled run (bound {METRICS_BOUND})"
    );
    assert!(
        trace_ratio < TRACE_BOUND,
        "buffered tracer costs {trace_ratio:.3}x the disabled run (bound {TRACE_BOUND})"
    );
}
