//! Golden-result regression tests: the quick-mode figure data, diffed
//! against checked-in JSON under `tests/golden/`.
//!
//! These guard the *numbers*, not the formatting — any change to a cycle
//! counter, area constant or timing model shows up as a JSON diff here
//! instead of a silently shifted table. When a model change is
//! intentional, regenerate the golden files with:
//!
//! ```text
//! GEMMINI_BLESS=1 cargo test --test golden_figures
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use gemmini_bench::figures::{
    fig3_json, fig4_config, fig4_json, fig6_json, fig7_attribution_json, fig7_json, fig7_points,
    fig8_json, fig8_points, FIG7_VARIANTS,
};
use gemmini_bench::{quick_resnet, SweepOptions};
use gemmini_cpu::model::CpuKind;
use gemmini_dnn::graph::{Activation, Layer, LayerClass, Network};
use gemmini_dnn::loader::parse_network;
use gemmini_dnn::zoo;
use gemmini_mem::json::{Json, ToJson};
use gemmini_soc::run::{run_networks, RunOptions};
use gemmini_soc::soc::SocConfig;
use gemmini_soc::sweep::run_sweep_with;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn bless_mode() -> bool {
    std::env::var("GEMMINI_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compares `actual` against the checked-in golden file, or rewrites the
/// file under `GEMMINI_BLESS=1`.
fn check_golden(name: &str, actual: &Json) {
    let path = golden_path(name);
    let encoded = actual.encode();
    if bless_mode() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, format!("{encoded}\n")).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with GEMMINI_BLESS=1 to create it",
            path.display()
        )
    });
    let golden = Json::parse(golden.trim()).expect("golden file parses");
    assert_eq!(
        &golden,
        actual,
        "{name}: figure data drifted from the golden file.\n\
         golden: {}\n\
         actual: {encoded}\n\
         If the model change is intentional, regenerate with \
         GEMMINI_BLESS=1 cargo test --test golden_figures",
        golden.encode()
    );
}

#[test]
fn fig3_matches_golden() {
    check_golden("fig3.json", &fig3_json());
}

#[test]
fn fig6_matches_golden() {
    check_golden("fig6.json", &fig6_json());
}

#[test]
fn fig4_quick_matches_golden() {
    // The TLB miss-rate profile the binary prints under --quick: every
    // window's rate, the request/walk counts and the same-page rates.
    let report = run_networks(&fig4_config(true), &[quick_resnet()], &RunOptions::timing())
        .expect("quick ResNet runs");
    check_golden("fig4_quick.json", &fig4_json(&report));
}

#[test]
fn fig8_quick_matches_golden() {
    // Every point of the TLB sweep under --quick, run serially: cycle
    // counts, hit rates (filters included) and miss-rate series.
    let results = run_sweep_with(
        fig8_points(&quick_resnet()),
        SweepOptions {
            threads: 1,
            progress: false,
            ..SweepOptions::default()
        },
    );
    check_golden("fig8_quick.json", &fig8_json(&results));
}

#[test]
fn fig7_quick_matches_golden() {
    // The same networks the binary uses under --quick, run serially so
    // the test is deterministic regardless of GEMMINI_THREADS.
    let nets = vec![quick_resnet(), zoo::tiny_cnn()];
    let results = run_sweep_with(
        fig7_points(&nets),
        SweepOptions {
            threads: 1,
            progress: false,
            ..SweepOptions::default()
        },
    );
    check_golden("fig7_quick.json", &fig7_json(&nets, &results));

    // The cycle-attribution view of the same sweep: pinned separately so
    // a classification change (which buckets cycles land in) is visible
    // even when the total cycle counts are untouched. The partition
    // invariant — buckets sum to the run length — holds on every point.
    for r in &results {
        let core = &r.expect_ok().cores[0];
        assert_eq!(
            core.attribution.total(),
            core.total_cycles,
            "{}: attribution buckets must sum to total_cycles",
            r.label
        );
    }
    check_golden(
        "fig7_attribution.json",
        &fig7_attribution_json(&nets, &results),
    );

    // A knob the network does not exercise does not move the report: with
    // im2col on the accelerator the host runs none of a CNN's layers, so
    // Rocket and BOOM give equal reports. With im2col on the CPU the host
    // is exercised, and the two must differ (otherwise the equality above
    // says nothing). Variants 0/1 are Rocket/BOOM with im2col on the CPU,
    // 2/3 the same hosts with im2col on the accelerator.
    for (net, chunk) in nets.iter().zip(results.chunks(FIG7_VARIANTS.len())) {
        let report = |i: usize| chunk[i].expect_ok();
        assert_eq!(
            report(2),
            report(3),
            "{}: the host CPU moved the report with im2col on the accelerator",
            net.name()
        );
        assert_ne!(
            report(0),
            report(1),
            "{}: the host CPU did not move the report with im2col on the CPU",
            net.name()
        );
    }
}

/// Im2col placement is a knob a network without convolutions does not
/// exercise: on the shipped transformer layer, im2col on the CPU and on the
/// accelerator give equal reports under a Rocket host.
#[test]
fn im2col_placement_does_not_move_a_conv_free_report() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("models/transformer_layer.gnn");
    let text = std::fs::read_to_string(&path).expect("model file is readable");
    let net = parse_network(&text).expect("model file parses");
    assert!(
        net.layers()
            .iter()
            .all(|l| l.layer.class() != LayerClass::Conv),
        "the transformer layer must have no convolution"
    );
    let points: Vec<_> = fig7_points(std::slice::from_ref(&net))
        .into_iter()
        .filter(|p| p.config.cores[0].cpu == CpuKind::Rocket)
        .collect();
    assert_eq!(points.len(), 2);
    assert_ne!(
        points[0].config.cores[0].accel.has_im2col,
        points[1].config.cores[0].accel.has_im2col
    );
    let results = run_sweep_with(
        points,
        SweepOptions {
            threads: 1,
            progress: false,
            ..SweepOptions::default()
        },
    );
    assert_eq!(results[0].expect_ok(), results[1].expect_ok());
}

/// An inverted-residual block without its skip: expand 1×1 `8→24` at
/// 12×12, depthwise 3×3 with stride `stride`, project 1×1 `24→8`.
fn dw_block(stride: usize) -> Network {
    let (c, mid, hw) = (8usize, 24usize, 12usize);
    let out = (hw + 2 - 3) / stride + 1;
    let mut net = Network::new(format!("dw_block_s{stride}"));
    net.push(
        "expand",
        Layer::Conv {
            in_channels: c,
            out_channels: mid,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_hw: (hw, hw),
            activation: Activation::Relu6,
        },
    );
    net.push(
        "dw",
        Layer::DwConv {
            channels: mid,
            kernel: 3,
            stride,
            padding: 1,
            in_hw: (hw, hw),
            activation: Activation::Relu6,
        },
    );
    net.push(
        "project",
        Layer::Conv {
            in_channels: mid,
            out_channels: c,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_hw: (out, out),
            activation: Activation::None,
        },
    );
    net
}

/// Two cores share the L2 and interleave at kernel-step granularity, so
/// every step boundary of a conv layer — the host im2col phase, each
/// depthwise channel's GEMM steps — moves which core touches memory
/// first. Core 0 runs the block at depthwise stride `s`, core 1 at
/// `3 − s`, with the im2col block on and off.
#[test]
fn dwconv_dual_quick_matches_golden() {
    let mut reports = Vec::new();
    for im2col in [true, false] {
        for s in [1, 2] {
            let mut config = SocConfig::edge_dual_core();
            for core in &mut config.cores {
                core.accel.has_im2col = im2col;
            }
            let report = run_networks(
                &config,
                &[dw_block(s), dw_block(3 - s)],
                &RunOptions::timing(),
            )
            .expect("dual-core block runs");
            let placement = if im2col { "im2col" } else { "cpu_im2col" };
            reports.push((format!("s{s}_{placement}"), report.to_json()));
        }
    }
    check_golden("dwconv_dual_quick.json", &Json::obj(reports));
}

/// The golden files themselves must round-trip through the hand-rolled
/// codec — otherwise a bless would write something the checker cannot
/// reload.
#[test]
fn golden_files_round_trip() {
    for name in [
        "fig3.json",
        "fig6.json",
        "fig4_quick.json",
        "fig7_quick.json",
        "fig7_attribution.json",
        "fig8_quick.json",
        "dwconv_dual_quick.json",
    ] {
        let path = golden_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
        let parsed = Json::parse(text.trim()).expect("golden parses");
        assert_eq!(
            parsed.encode(),
            text.trim(),
            "{name}: encode(parse(x)) != x — golden file not in canonical encoding"
        );
    }
}
