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
    fig8_json, fig8_points,
};
use gemmini_bench::{quick_resnet, SweepOptions};
use gemmini_dnn::zoo;
use gemmini_mem::json::Json;
use gemmini_soc::run::{run_networks, RunOptions};
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
