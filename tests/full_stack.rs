//! Cross-crate integration tests: the whole stack driven only through the
//! public API of the umbrella crate.

use gemmini_repro::core::config::{DataType, Dataflow, GemminiConfig};
use gemmini_repro::dnn::graph::{Activation, Layer, LayerClass, Network};
use gemmini_repro::dnn::loader::parse_network;
use gemmini_repro::dnn::zoo;
use gemmini_repro::soc::run::{run_networks, RunOptions};
use gemmini_repro::soc::runtime::reference_forward;
use gemmini_repro::soc::SocConfig;

#[test]
fn functional_end_to_end_on_tiny_cnn() {
    // tiny_cnn has conv, residual-add, pool and matmul layers; with and
    // without the im2col block and the pooling unit, its output equals the
    // reference forward pass byte for byte.
    let net = zoo::tiny_cnn();
    let golden = reference_forward(&net, RunOptions::functional().seed);
    for (has_im2col, has_pooling) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut soc = SocConfig::edge_single_core();
        soc.cores[0].accel.has_im2col = has_im2col;
        soc.cores[0].accel.has_pooling = has_pooling;
        let report = run_networks(&soc, std::slice::from_ref(&net), &RunOptions::functional())
            .expect("run succeeds");
        assert_eq!(
            report.cores[0].output.as_ref().unwrap(),
            &golden,
            "has_im2col {has_im2col}, has_pooling {has_pooling}"
        );
    }
}

#[test]
fn loader_to_silicon_pipeline() {
    // A model described in the textual format runs through the whole stack.
    let net = parse_network(
        "network pipeline\n\
         conv name=c in=2 out=4 k=3 s=1 p=1 hw=6x6 act=relu\n\
         matmul name=f m=1 k=144 n=5 act=none\n",
    )
    .expect("parses");
    let report = run_networks(
        &SocConfig::edge_single_core(),
        std::slice::from_ref(&net),
        &RunOptions::functional(),
    )
    .expect("runs");
    assert_eq!(report.cores[0].output.as_ref().unwrap().len(), 5);
    assert_eq!(
        report.cores[0].output.as_ref().unwrap(),
        &reference_forward(&net, RunOptions::functional().seed)
    );
}

#[test]
fn seeds_change_data_but_not_cycles() {
    // Timing must be data-independent (same shapes, same schedule).
    let net = zoo::tiny_cnn();
    let a = run_networks(
        &SocConfig::edge_single_core(),
        std::slice::from_ref(&net),
        &RunOptions {
            functional: true,
            seed: 1,
        },
    )
    .unwrap();
    let b = run_networks(
        &SocConfig::edge_single_core(),
        &[net],
        &RunOptions {
            functional: true,
            seed: 2,
        },
    )
    .unwrap();
    assert_eq!(a.cores[0].total_cycles, b.cores[0].total_cycles);
    assert_ne!(a.cores[0].output, b.cores[0].output);
}

#[test]
fn determinism_across_runs() {
    let net = zoo::tiny_cnn();
    let opts = RunOptions::functional();
    let a = run_networks(
        &SocConfig::edge_single_core(),
        std::slice::from_ref(&net),
        &opts,
    )
    .unwrap();
    let b = run_networks(&SocConfig::edge_single_core(), &[net], &opts).unwrap();
    assert_eq!(a.cores[0].total_cycles, b.cores[0].total_cycles);
    assert_eq!(a.cores[0].output, b.cores[0].output);
    assert_eq!(
        a.cores[0].translation.requests,
        b.cores[0].translation.requests
    );
}

#[test]
fn dual_core_functional_isolation() {
    // Two cores run different networks with different seeds; each output
    // matches its own golden model — no cross-core corruption through the
    // shared memory system.
    let n1 = zoo::tiny_cnn();
    let mut n2 = Network::new("other");
    n2.push(
        "fc",
        Layer::Matmul {
            m: 4,
            k: 32,
            n: 8,
            activation: Activation::Relu,
        },
    );
    let opts = RunOptions::functional();
    let report = run_networks(
        &SocConfig::edge_dual_core(),
        &[n1.clone(), n2.clone()],
        &opts,
    )
    .unwrap();
    assert_eq!(
        report.cores[0].output.as_ref().unwrap(),
        &reference_forward(&n1, opts.seed)
    );
    assert_eq!(
        report.cores[1].output.as_ref().unwrap(),
        &reference_forward(&n2, opts.seed.wrapping_add(1))
    );
}

#[test]
fn bigger_array_is_faster_on_big_matmuls() {
    let mut net = Network::new("mm");
    net.push(
        "fc",
        Layer::Matmul {
            m: 128,
            k: 256,
            n: 128,
            activation: Activation::None,
        },
    );
    let run = |dim: usize| {
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel = GemminiConfig {
            mesh_rows: dim,
            mesh_cols: dim,
            ..GemminiConfig::edge()
        };
        run_networks(&cfg, std::slice::from_ref(&net), &RunOptions::timing())
            .unwrap()
            .cores[0]
            .total_cycles
    };
    assert!(run(32) < run(16), "32x32 array should beat 16x16");
    assert!(run(16) < run(8), "16x16 array should beat 8x8");
}

#[test]
fn fp32_configuration_validates_and_sizes_differ() {
    let cfg = GemminiConfig {
        dtype: DataType::Fp32,
        dataflow: Dataflow::OutputStationary,
        ..GemminiConfig::edge()
    };
    assert!(cfg.validate().is_ok());
    assert_eq!(cfg.sp_rows(), GemminiConfig::edge().sp_rows() / 4);
}

#[test]
fn per_class_cycles_partition_total_layer_time() {
    let net = zoo::tiny_cnn();
    let report = run_networks(
        &SocConfig::edge_single_core(),
        &[net],
        &RunOptions::timing(),
    )
    .unwrap();
    let core = &report.cores[0];
    let sum: u64 = [
        LayerClass::Conv,
        LayerClass::Matmul,
        LayerClass::ResAdd,
        LayerClass::Pool,
        LayerClass::Norm,
    ]
    .iter()
    .map(|&c| core.class_cycles(c))
    .sum();
    let direct: u64 = core.layers.iter().map(|l| l.cycles).sum();
    assert_eq!(sum, direct);
}

#[test]
fn zoo_networks_all_run_in_timing_mode_quickly() {
    // Structural smoke test: every zoo network completes and reports sane
    // statistics at reduced scale (tiny ones run full).
    let report = run_networks(
        &SocConfig::edge_single_core(),
        &[zoo::squeezenet_v11()],
        &RunOptions::timing(),
    )
    .unwrap();
    let c = &report.cores[0];
    assert!(c.total_cycles > 100_000);
    assert!(c.macs as f64 > 0.25e9);
    assert!(c.translation.requests > 1000);
    assert!(report.l2.accesses > 1000);
}
