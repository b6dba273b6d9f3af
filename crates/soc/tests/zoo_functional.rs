//! Full-size paper networks in functional mode equal the reference forward
//! pass byte for byte.
//!
//! AlexNet, MobileNetV2 and BERT-base each run functionally on
//! `edge_single_core` at seed 7, and every output byte must equal
//! `reference_forward`'s. BERT's 768- and 3072-wide GEMMs are the largest
//! functional matmuls any check runs through the int8 kernel. MobileNetV2
//! runs a second time without the im2col block, so the host expands every
//! conv's and every depthwise channel's patches into memory.
//!
//! ResNet50 and SqueezeNet are left out: `reference_forward` panics on
//! them until every layer reads the tensor it consumes (ROADMAP item 14).
//!
//! Release only (~7 s serial, ~5 s at 2 test threads):
//! `cargo test --release -p gemmini-soc --test zoo_functional -- --ignored`

use gemmini_dnn::graph::Network;
use gemmini_dnn::zoo;
use gemmini_soc::run::{run_networks, RunOptions};
use gemmini_soc::runtime::reference_forward;
use gemmini_soc::soc::SocConfig;

fn check_on(config: &SocConfig, net: Network) {
    let opts = RunOptions {
        functional: true,
        seed: 7,
    };
    let report = run_networks(config, std::slice::from_ref(&net), &opts).expect("functional run");
    let got = report.cores[0].output.as_ref().expect("functional output");
    let want = reference_forward(&net, opts.seed);
    assert_eq!(got.len(), want.len(), "{} output length", net.name());
    if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
        panic!(
            "{}: output byte {i} is {} but the reference gives {}",
            net.name(),
            got[i],
            want[i]
        );
    }
}

fn check(net: Network) {
    check_on(&SocConfig::edge_single_core(), net);
}

#[test]
#[ignore = "slow: run with --release -- --ignored"]
fn alexnet_equals_the_reference() {
    check(zoo::alexnet());
}

#[test]
#[ignore = "slow: run with --release -- --ignored"]
fn mobilenetv2_equals_the_reference() {
    check(zoo::mobilenetv2());
}

#[test]
#[ignore = "slow: run with --release -- --ignored"]
fn mobilenetv2_with_cpu_im2col_equals_the_reference() {
    let mut config = SocConfig::edge_single_core();
    config.cores[0].accel.has_im2col = false;
    check_on(&config, zoo::mobilenetv2());
}

#[test]
#[ignore = "slow: run with --release -- --ignored"]
fn bert_base_equals_the_reference() {
    check(zoo::bert_base());
}
