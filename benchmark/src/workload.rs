//! The four workloads and the set-up work every point needs.
//!
//! Each workload is a list of [`DesignPoint`]s run through the same public
//! entry point the figure binaries use. They were chosen so that each
//! simulator layer has one workload where it dominates host time and one
//! where it is absent (see `README.md` for the measured shares).

use gemmini_dnn::graph::Network;
use gemmini_dnn::{loader, zoo};
use gemmini_soc::runtime::NetworkExecution;
use gemmini_soc::soc::Soc;
use gemmini_soc::{DesignPoint, RunOptions, SocConfig};
use gemmini_vm::tlb::TlbConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed the pinned digests in `expected.json` were taken at.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

const RESNET_BLOCK_GNN: &str = include_str!("../../models/resnet_block.gnn");
const LENET_GNN: &str = include_str!("../../models/lenet.gnn");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full ResNet50, single core, four Fig. 8 TLB corners.
    Resnet50Tlb,
    /// BERT-base (sequence 128), single core with a Rocket host.
    Bert,
    /// ResNet50 on both cores of the Fig. 9 `Base x2` and `BigL2 x2` SoCs,
    /// checkpointed like a `--json` sweep.
    Resnet50Dual,
    /// Functional mode over AlexNet, MobileNetV2 and two `.gnn` models.
    Functional,
}

impl Workload {
    /// Every workload, in the order a full invocation starts from.
    pub const ALL: [Workload; 4] = [
        Workload::Resnet50Tlb,
        Workload::Bert,
        Workload::Resnet50Dual,
        Workload::Functional,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resnet50Tlb => "resnet50_tlb",
            Workload::Bert => "bert",
            Workload::Resnet50Dual => "resnet50_dual",
            Workload::Functional => "functional",
        }
    }

    /// Looks a workload up by [`Self::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each round checkpoints to a fresh JSONL file.
    pub fn checkpointed(self) -> bool {
        self == Workload::Resnet50Dual
    }

    /// Builds the networks the workload runs.
    ///
    /// # Panics
    ///
    /// Panics if a bundled `.gnn` model fails to parse.
    pub fn networks(self) -> Vec<Network> {
        match self {
            Workload::Resnet50Tlb | Workload::Resnet50Dual => vec![zoo::resnet50()],
            Workload::Bert => vec![zoo::bert_base()],
            Workload::Functional => vec![
                zoo::alexnet(),
                zoo::mobilenetv2(),
                loader::parse_network(RESNET_BLOCK_GNN).expect("models/resnet_block.gnn parses"),
                loader::parse_network(LENET_GNN).expect("models/lenet.gnn parses"),
            ],
        }
    }

    /// The workload's design points over `nets` (from [`Self::networks`]),
    /// with `seed` passed to every point's [`RunOptions`].
    pub fn points(self, nets: &[Network], seed: u64) -> Vec<DesignPoint> {
        let timing = RunOptions {
            functional: false,
            seed,
        };
        let point = |label: String, config: SocConfig, net: &Network, options: RunOptions| {
            let nets = vec![net.clone(); config.cores.len()];
            DesignPoint::new(label, config, nets, options)
        };
        match self {
            Workload::Resnet50Tlb => [
                (4, 0, false),
                (32, 512, false),
                (4, 0, true),
                (32, 512, true),
            ]
            .into_iter()
            .map(|(private, shared, filters)| {
                let mut cfg = SocConfig::edge_single_core();
                cfg.cores[0].translation.private = TlbConfig::private(private);
                cfg.cores[0].translation.shared = TlbConfig::shared(shared);
                cfg.cores[0].translation.filter_registers = filters;
                let label = format!("private={private} shared={shared} filters={filters}");
                point(label, cfg, &nets[0], timing)
            })
            .collect(),
            Workload::Bert => {
                vec![point(
                    "bert_base".into(),
                    SocConfig::edge_single_core(),
                    &nets[0],
                    timing,
                )]
            }
            Workload::Resnet50Dual => [
                ("Base x2", SocConfig::partition_base(2)),
                ("BigL2 x2", SocConfig::partition_big_l2(2)),
            ]
            .into_iter()
            .map(|(label, cfg)| point(label.into(), cfg, &nets[0], timing))
            .collect(),
            Workload::Functional => nets
                .iter()
                .map(|net| {
                    let options = RunOptions {
                        functional: true,
                        seed,
                    };
                    point(
                        net.name().into(),
                        SocConfig::edge_single_core(),
                        net,
                        options,
                    )
                })
                .collect(),
        }
    }
}

/// One [`NetworkExecution`] per core of `soc`, seeded per core as
/// `gemmini_soc::run` seeds them.
pub fn new_executions(soc: &mut Soc, point: &DesignPoint) -> Vec<NetworkExecution> {
    let Soc {
        cores,
        data,
        frames,
        ..
    } = soc;
    cores
        .iter_mut()
        .zip(&point.networks)
        .map(|(core, net)| {
            NetworkExecution::new(
                net.clone(),
                core.accel.config().clone(),
                &mut core.space,
                frames,
                data.as_mut(),
                point.options.seed.wrapping_add(core.id as u64),
            )
        })
        .collect()
}

/// The set-up probe: builds the networks and design points, then
/// instantiates every point's SoC and executions (one point at a time, so
/// the probe's memory peak is one point's). Returns the time it took and
/// the points, ready to sweep.
pub fn setup_probe(workload: Workload, seed: u64) -> (Duration, Vec<DesignPoint>) {
    let start = Instant::now();
    let nets = workload.networks();
    let points = workload.points(&nets, seed);
    for point in &points {
        let mut soc = Soc::new(&point.config, point.options.functional);
        black_box(new_executions(&mut soc, point));
    }
    (start.elapsed(), points)
}
