//! Property-based tests for the software stack: tiling invariants,
//! functional equivalence of the full instruction-level path against the
//! golden model on randomized small networks, the merge algebra behind
//! sharded sweep rollups, and lossless JSON round-tripping of the report
//! types the checkpoint files persist.

use gemmini_core::config::GemminiConfig;
use gemmini_core::dma::DmaStats;
use gemmini_dnn::graph::{Activation, Layer, LayerClass, Network};
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_mem::stats::{CycleAttribution, HitMissStats, TrafficStats};
use gemmini_soc::run::{
    run_networks, CoreReport, L2Report, LayerReport, RunOptions, SocReport, TranslationReport,
};
use gemmini_soc::runtime::reference_forward;
use gemmini_soc::soc::SocConfig;
use gemmini_soc::tiling::plan_matmul;
use proptest::prelude::*;

/// A rate-like fraction derived from two counters — always finite, so
/// the JSON encoder (which rejects NaN/inf) accepts it, and always a
/// value the simulator could actually produce.
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / (num as f64 + den as f64)
    }
}

/// Builds an arbitrary-but-valid `SocReport` from a flat seed tuple:
/// every counter is exercised, rates are finite, and the optional
/// functional output covers both `None` and negative bytes.
#[allow(clippy::cast_possible_wrap)]
fn report_from_seed(cores: usize, base: u64, with_output: bool) -> SocReport {
    let classes = [
        LayerClass::Conv,
        LayerClass::Matmul,
        LayerClass::ResAdd,
        LayerClass::Pool,
        LayerClass::Norm,
    ];
    let core_reports: Vec<CoreReport> = (0..cores)
        .map(|c| {
            let b = base.wrapping_mul(c as u64 + 1);
            CoreReport {
                network: format!("net_{c}"),
                total_cycles: b.wrapping_mul(3),
                layers: classes
                    .iter()
                    .enumerate()
                    .map(|(i, &class)| LayerReport {
                        name: format!("layer_{i}\"\\ \u{2603}"), // escapes + unicode
                        class,
                        cycles: b.wrapping_add(i as u64),
                    })
                    .collect(),
                translation: TranslationReport {
                    requests: b,
                    private_hit_rate: rate(b, b / 2 + 1),
                    effective_hit_rate: rate(b, b / 3 + 1),
                    filter_hits: b / 7,
                    shared_hit_rate: rate(b / 2, b + 1),
                    walks: b / 5,
                    mean_walk_cycles: rate(b, 13) * 100.0,
                    consecutive_read_same_page: rate(b, 3),
                    consecutive_write_same_page: rate(b, 11),
                    miss_rate_series: (0..(b % 4))
                        .map(|i| (i * 1000, rate(i, b % 17 + 1)))
                        .collect(),
                },
                dma: DmaStats {
                    bytes_in: b.wrapping_mul(64),
                    bytes_out: b.wrapping_mul(16),
                    translations: b / 2,
                    translation_stall_cycles: b / 9,
                },
                macs: b.wrapping_mul(256),
                context_switches: b % 5,
                attribution: attribution_from_seed(b),
                output: with_output
                    .then(|| (0..(b % 20)).map(|i| (i as i8).wrapping_sub(10)).collect()),
            }
        })
        .collect();
    let mut attribution = CycleAttribution::new();
    for c in &core_reports {
        attribution.merge(&c.attribution);
    }
    SocReport {
        cores: core_reports,
        l2: L2Report {
            accesses: base,
            misses: base / 4,
            miss_rate: rate(base / 4, base.saturating_sub(base / 4) + 1),
            writebacks: base / 8,
        },
        dram_bytes: base.wrapping_mul(4096),
        l2_stats: HitMissStats::from_counts(base.saturating_sub(base / 4), base / 4),
        dram_traffic: {
            let mut t = TrafficStats::new();
            t.record_read(base.wrapping_mul(3));
            t.record_write(base);
            t
        },
        attribution,
    }
}

/// Derives a fully-populated attribution record from one seed counter.
/// Masked to 61 bits (still past f64's 53-bit integer range) so the
/// SoC-level fold of up to four cores cannot overflow a u64.
fn attribution_from_seed(b: u64) -> CycleAttribution {
    let b = b & ((1 << 61) - 1);
    CycleAttribution {
        compute: b,
        load: b / 2,
        store: b / 3,
        tlb_stall: b / 5,
        bank_conflict: b % 7,
        dram: b / 11,
        idle: b % 13,
    }
}

proptest! {
    /// The tile planner always returns a plan that fits, never exceeds the
    /// problem's own block counts, and covers at least one block per axis.
    #[test]
    fn plans_fit_and_are_sane(
        m in 1usize..5000,
        k in 1usize..5000,
        n in 1usize..5000,
        sp_kb in prop::sample::select(vec![64usize, 128, 256, 512]),
        acc_kb in prop::sample::select(vec![16usize, 64, 256, 512]),
    ) {
        let cfg = GemminiConfig {
            sp_capacity_kb: sp_kb,
            acc_capacity_kb: acc_kb,
            ..GemminiConfig::edge()
        };
        let plan = plan_matmul(&cfg, m, k, n);
        prop_assert!(plan.fits(&cfg));
        prop_assert!(plan.tm >= 1 && plan.tk >= 1 && plan.tn >= 1);
        let dim = cfg.dim();
        prop_assert!(plan.tm <= m.div_ceil(dim));
        prop_assert!(plan.tk <= k.div_ceil(dim));
        prop_assert!(plan.tn <= n.div_ceil(dim));
    }

    /// Growing the scratchpad never shrinks the chosen tile volume.
    #[test]
    fn bigger_scratchpad_never_shrinks_tiles(m in 64usize..4096, k in 64usize..4096, n in 64usize..4096) {
        let small = GemminiConfig::edge();
        let big = GemminiConfig { sp_capacity_kb: 512, acc_capacity_kb: 512, ..GemminiConfig::edge() };
        let ps = plan_matmul(&small, m, k, n);
        let pb = plan_matmul(&big, m, k, n);
        prop_assert!(pb.tm * pb.tk + pb.tk * pb.tn >= ps.tm * ps.tk + ps.tk * ps.tn);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized two-layer matmul networks: the instruction-level
    /// simulator's output equals the golden model bit-for-bit.
    #[test]
    fn random_matmul_networks_are_bit_exact(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..24,
        n2 in 1usize..20,
        relu in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut net = Network::new("prop_mm");
        net.push("fc1", Layer::Matmul {
            m,
            k,
            n,
            activation: if relu { Activation::Relu } else { Activation::None },
        });
        net.push("fc2", Layer::Matmul { m, k: n, n: n2, activation: Activation::None });
        let opts = RunOptions { functional: true, seed };
        let report = run_networks(&SocConfig::edge_single_core(), std::slice::from_ref(&net), &opts).unwrap();
        let want = reference_forward(&net, seed);
        prop_assert_eq!(report.cores[0].output.as_ref().unwrap(), &want);
    }

    /// Randomized tiny conv networks (with and without the im2col block)
    /// stay bit-exact.
    #[test]
    fn random_conv_networks_are_bit_exact(
        c_in in 1usize..5,
        c_out in 1usize..6,
        hw in 4usize..10,
        ksz in prop::sample::select(vec![1usize, 3]),
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut net = Network::new("prop_conv");
        net.push("conv", Layer::Conv {
            in_channels: c_in,
            out_channels: c_out,
            kernel: ksz,
            stride: 1,
            padding: ksz / 2,
            in_hw: (hw, hw),
            activation: Activation::Relu,
        });
        net.push("skip", Layer::ResAdd { elements: c_out * hw * hw });
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel.has_im2col = unit;
        let opts = RunOptions { functional: true, seed };
        let report = run_networks(&cfg, std::slice::from_ref(&net), &opts).unwrap();
        let want = reference_forward(&net, seed);
        prop_assert_eq!(report.cores[0].output.as_ref().unwrap(), &want);
    }

    /// On randomized timing-mode matmul networks the attribution buckets
    /// partition the run exactly — they sum to `total_cycles` — and the
    /// SoC-level record is the fold of the per-core records.
    #[test]
    fn attribution_partitions_random_timing_runs(
        m in 1usize..48,
        k in 1usize..64,
        n in 1usize..48,
        relu in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut net = Network::new("prop_attr");
        net.push("fc", Layer::Matmul {
            m,
            k,
            n,
            activation: if relu { Activation::Relu } else { Activation::None },
        });
        let opts = RunOptions { functional: false, seed };
        let report = run_networks(&SocConfig::edge_single_core(), &[net], &opts).unwrap();
        let core = &report.cores[0];
        prop_assert_eq!(core.attribution.total(), core.total_cycles);
        prop_assert!(core.attribution.busy() > 0);
        prop_assert_eq!(report.attribution, core.attribution);
    }
}

proptest! {
    /// `CycleAttribution::merge` is a commutative monoid, like the other
    /// sweep-rollup primitives: attribution from N shards can be folded
    /// in any order or grouping, and the zero record is the identity. The
    /// bucket sums also behave linearly: `total` of a merge is the sum of
    /// the inputs' totals.
    #[test]
    fn cycle_attribution_merge_is_commutative_monoid(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let ra = attribution_from_seed(a);
        let rb = attribution_from_seed(b);
        let rc = attribution_from_seed(c);
        // Commutativity.
        let mut ab = ra;
        ab.merge(&rb);
        let mut ba = rb;
        ba.merge(&ra);
        prop_assert_eq!(ab, ba);
        // Associativity.
        let mut ab_c = ab;
        ab_c.merge(&rc);
        let mut bc = rb;
        bc.merge(&rc);
        let mut a_bc = ra;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        // Identity.
        let mut a_zero = ra;
        a_zero.merge(&CycleAttribution::new());
        prop_assert_eq!(a_zero, ra);
        // Totals are linear under merge (no cycle appears or vanishes).
        prop_assert_eq!(ab.total(), ra.total() + rb.total());
        // JSON round-trip, as persisted inside every checkpoint line.
        prop_assert_eq!(CycleAttribution::from_json(&ra.to_json()).unwrap(), ra);
    }

    /// `decode(encode(x)) == x` for `SocReport` — the exact unit the
    /// sweep checkpoint persists — over arbitrary core counts, counter
    /// values (including > 2^53, where f64 would lose bits), escaped
    /// strings, and present/absent functional output.
    #[test]
    fn soc_report_json_round_trip(
        cores in 0usize..4,
        base in any::<u64>(),
        with_output in any::<bool>(),
    ) {
        let report = report_from_seed(cores, base, with_output);
        // Value-level round trip.
        prop_assert_eq!(&SocReport::from_json(&report.to_json()).unwrap(), &report);
        // Text-level round trip, exactly as the checkpoint file stores it.
        let text = report.to_json().encode();
        prop_assert!(!text.contains('\n'), "checkpoint lines must be single-line");
        let reparsed = Json::parse(&text).unwrap();
        prop_assert_eq!(&SocReport::from_json(&reparsed).unwrap(), &report);
        // The canonical encoding is stable under re-encode.
        prop_assert_eq!(reparsed.encode(), text);
    }
}
