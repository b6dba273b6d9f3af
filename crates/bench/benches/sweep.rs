//! Sweep-executor throughput (points/sec at one worker versus several)
//! and the cost of the default-off observation layers: a run with a
//! disabled tracer should be indistinguishable from a plain run, a
//! buffered tracer bounds what `--trace` costs, and a live metrics
//! registry (relaxed atomics on the hot path) must stay within the <5%
//! overhead budget `--status`/`--metrics` promise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gemmini_core::metrics::Metrics;
use gemmini_core::trace::Tracer;
use gemmini_dnn::graph::{Activation, Layer, Network};
use gemmini_soc::run::{run_networks_observed, RunOptions};
use gemmini_soc::soc::SocConfig;
use gemmini_soc::sweep::{run_sweep_with, DesignPoint, SweepOptions};
use std::hint::black_box;

const SWEEP_POINTS: usize = 8;

fn tiny_matmul_net() -> Network {
    let mut net = Network::new("bench_mm");
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

fn points(n: usize) -> Vec<DesignPoint> {
    (0..n)
        .map(|i| {
            DesignPoint::timing(
                format!("p{i}"),
                SocConfig::edge_single_core(),
                &tiny_matmul_net(),
            )
        })
        .collect()
}

/// Whole-sweep wall clock for a fixed batch of trivial points, serial
/// versus a small worker pool (the `GEMMINI_THREADS` 1-vs-N question,
/// asked with explicit thread counts so the env var is never consulted).
fn bench_sweep_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_executor");
    group.throughput(Throughput::Elements(SWEEP_POINTS as u64));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let results = run_sweep_with(
                        points(SWEEP_POINTS),
                        SweepOptions {
                            threads,
                            progress: false,
                            ..SweepOptions::default()
                        },
                    );
                    black_box(results.iter().filter(|r| r.outcome.is_ok()).count())
                })
            },
        );
    }
    group.finish();
}

/// One timing-mode run with the tracer disabled (the default: every span
/// call is a single `None` branch) versus recording into a buffer.
fn bench_trace_overhead(c: &mut Criterion) {
    let net = tiny_matmul_net();
    let cfg = SocConfig::edge_single_core();
    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("disabled", |bench| {
        bench.iter(|| {
            let report = run_networks_observed(
                &cfg,
                std::slice::from_ref(&net),
                &RunOptions::timing(),
                &Tracer::disabled(),
                &Metrics::disabled(),
            )
            .unwrap();
            black_box(report.cores[0].total_cycles)
        })
    });
    group.bench_function("buffered", |bench| {
        bench.iter(|| {
            let (tracer, sink) = Tracer::buffered();
            let report = run_networks_observed(
                &cfg,
                std::slice::from_ref(&net),
                &RunOptions::timing(),
                &tracer,
                &Metrics::disabled(),
            )
            .unwrap();
            black_box(sink.lock().unwrap().take().len());
            black_box(report.cores[0].total_cycles)
        })
    });
    group.finish();
}

/// One timing-mode run with the metrics handle disabled (one untaken
/// branch per instrumentation site) versus a live shared registry
/// absorbing every counter increment and histogram observation — the
/// steady-state overhead of `--status`/`--metrics`.
fn bench_metrics_overhead(c: &mut Criterion) {
    let net = tiny_matmul_net();
    let cfg = SocConfig::edge_single_core();
    let mut group = c.benchmark_group("metrics_overhead");
    group.bench_function("disabled", |bench| {
        bench.iter(|| {
            let report = run_networks_observed(
                &cfg,
                std::slice::from_ref(&net),
                &RunOptions::timing(),
                &Tracer::disabled(),
                &Metrics::disabled(),
            )
            .unwrap();
            black_box(report.cores[0].total_cycles)
        })
    });
    group.bench_function("enabled", |bench| {
        // One registry across iterations, as a sweep shares one across
        // points; counters saturate long before u64 wraps.
        let (metrics, registry) = Metrics::enabled();
        bench.iter(|| {
            let report = run_networks_observed(
                &cfg,
                std::slice::from_ref(&net),
                &RunOptions::timing(),
                &Tracer::disabled(),
                &metrics,
            )
            .unwrap();
            black_box(report.cores[0].total_cycles)
        });
        black_box(registry.snapshot());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_throughput,
    bench_trace_overhead,
    bench_metrics_overhead
);
criterion_main!(benches);
