//! The experiment driver: runs one network per core to completion and
//! collects every statistic the evaluation figures consume.

use crate::kernel::{KernelEnv, StepOutcome};
use crate::os::OsState;
use crate::runtime::{read_virt, LayerTiming, NetworkExecution};
use crate::soc::{Soc, SocConfig};
use gemmini_core::dma::DmaStats;
use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{Component, StallCause, Tracer, SOC_TRACE_PID};
use gemmini_core::{AccelError, MemCtx};
use gemmini_dnn::graph::{LayerClass, Network};
use gemmini_mem::json::{FromJson, Json, JsonError, ToJson};
use gemmini_mem::stats::{CycleAttribution, HitMissStats, TrafficStats};
use gemmini_mem::Cycle;

/// Options for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Whether to move real bytes (functional) or only account time.
    pub functional: bool,
    /// Seed for synthetic tensors.
    pub seed: u64,
}

impl RunOptions {
    /// Timing-only run (the mode for full-network figure sweeps).
    pub fn timing() -> Self {
        Self {
            functional: false,
            seed: 0xC0FFEE,
        }
    }

    /// Functionally-exact run (for correctness tests on small networks).
    pub fn functional() -> Self {
        Self {
            functional: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-layer cycle report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Layer class.
    pub class: LayerClass,
    /// Cycles the layer took.
    pub cycles: Cycle,
}

/// Snapshot of one core's translation-system statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationReport {
    /// Total translation requests.
    pub requests: u64,
    /// Private-TLB hit rate (excluding filter hits).
    pub private_hit_rate: f64,
    /// Hit rate including filter-register hits (the paper's 90% metric).
    pub effective_hit_rate: f64,
    /// Filter-register hits.
    pub filter_hits: u64,
    /// Shared-TLB hit rate.
    pub shared_hit_rate: f64,
    /// Full walks taken.
    pub walks: u64,
    /// Mean walk latency in cycles.
    pub mean_walk_cycles: f64,
    /// Consecutive read requests to the same page (paper: 87%).
    pub consecutive_read_same_page: f64,
    /// Consecutive write requests to the same page (paper: 83%).
    pub consecutive_write_same_page: f64,
    /// Windowed miss-rate series: (window start cycle, miss rate).
    pub miss_rate_series: Vec<(Cycle, f64)>,
}

/// One core's report.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreReport {
    /// Which network ran.
    pub network: String,
    /// Total cycles from start to the last layer's completion.
    pub total_cycles: Cycle,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// Translation statistics.
    pub translation: TranslationReport,
    /// DMA traffic.
    pub dma: DmaStats,
    /// MACs performed by the accelerator.
    pub macs: u64,
    /// Context switches taken.
    pub context_switches: u64,
    /// Where every simulated cycle went; buckets sum to `total_cycles`
    /// exactly (see [`CycleAttribution`]).
    pub attribution: CycleAttribution,
    /// Final output bytes (functional runs only).
    pub output: Option<Vec<i8>>,
}

impl CoreReport {
    /// Total cycles spent in layers of one class.
    pub fn class_cycles(&self, class: LayerClass) -> Cycle {
        self.layers
            .iter()
            .filter(|l| l.class == class)
            .map(|l| l.cycles)
            .sum()
    }

    /// Frames (inferences) per second at `clock_ghz`.
    pub fn fps(&self, clock_ghz: f64) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            clock_ghz * 1e9 / self.total_cycles as f64
        }
    }
}

/// Shared-L2 statistics for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Report {
    /// Total L2 accesses.
    pub accesses: u64,
    /// L2 misses.
    pub misses: u64,
    /// Miss rate.
    pub miss_rate: f64,
    /// Dirty writebacks.
    pub writebacks: u64,
}

/// Whole-SoC report.
#[derive(Debug, Clone, PartialEq)]
pub struct SocReport {
    /// Per-core reports, in core order.
    pub cores: Vec<CoreReport>,
    /// Shared-L2 statistics.
    pub l2: L2Report,
    /// Bytes moved over the DRAM channel.
    pub dram_bytes: u64,
    /// Exact shared-L2 hit/miss counters; merge-able across sweep points
    /// via [`HitMissStats::merge`].
    pub l2_stats: HitMissStats,
    /// Exact DRAM-channel traffic counters; merge-able across sweep
    /// points via [`TrafficStats::merge`].
    pub dram_traffic: TrafficStats,
    /// Cycle attribution summed over all cores; merge-able across sweep
    /// points via [`CycleAttribution::merge`].
    pub attribution: CycleAttribution,
}

// --- JSON round-trip -------------------------------------------------------
//
// `SocReport` is the unit persisted per sweep point (checkpoint files,
// `--json` figure output), so every field — including nested reports —
// encodes losslessly: counters stay exact u64s, rates use shortest
// round-trip floats. `decode(encode(x)) == x` holds bit-for-bit; the
// property tests in `crates/soc/tests/properties.rs` enforce it.

fn class_name(class: LayerClass) -> &'static str {
    match class {
        LayerClass::Conv => "conv",
        LayerClass::Matmul => "matmul",
        LayerClass::ResAdd => "resadd",
        LayerClass::Pool => "pool",
        LayerClass::Norm => "norm",
    }
}

fn class_from_name(name: &str) -> Result<LayerClass, JsonError> {
    Ok(match name {
        "conv" => LayerClass::Conv,
        "matmul" => LayerClass::Matmul,
        "resadd" => LayerClass::ResAdd,
        "pool" => LayerClass::Pool,
        "norm" => LayerClass::Norm,
        other => return Err(JsonError::new(format!("unknown layer class '{other}'"))),
    })
}

impl ToJson for LayerReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("class", Json::from(class_name(self.class))),
            ("cycles", Json::from(self.cycles)),
        ])
    }
}

impl FromJson for LayerReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: value.field("name")?.as_str()?.to_string(),
            class: class_from_name(value.field("class")?.as_str()?)?,
            cycles: value.field("cycles")?.as_u64()?,
        })
    }
}

impl ToJson for TranslationReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            ("private_hit_rate", Json::from(self.private_hit_rate)),
            ("effective_hit_rate", Json::from(self.effective_hit_rate)),
            ("filter_hits", Json::from(self.filter_hits)),
            ("shared_hit_rate", Json::from(self.shared_hit_rate)),
            ("walks", Json::from(self.walks)),
            ("mean_walk_cycles", Json::from(self.mean_walk_cycles)),
            (
                "consecutive_read_same_page",
                Json::from(self.consecutive_read_same_page),
            ),
            (
                "consecutive_write_same_page",
                Json::from(self.consecutive_write_same_page),
            ),
            (
                "miss_rate_series",
                Json::Arr(
                    self.miss_rate_series
                        .iter()
                        .map(|&(c, r)| Json::Arr(vec![Json::from(c), Json::from(r)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for TranslationReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let series = value
            .field("miss_rate_series")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return Err(JsonError::new(
                        "miss-rate point is not a [cycle, rate] pair",
                    ));
                }
                Ok((pair[0].as_u64()?, pair[1].as_f64()?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            requests: value.field("requests")?.as_u64()?,
            private_hit_rate: value.field("private_hit_rate")?.as_f64()?,
            effective_hit_rate: value.field("effective_hit_rate")?.as_f64()?,
            filter_hits: value.field("filter_hits")?.as_u64()?,
            shared_hit_rate: value.field("shared_hit_rate")?.as_f64()?,
            walks: value.field("walks")?.as_u64()?,
            mean_walk_cycles: value.field("mean_walk_cycles")?.as_f64()?,
            consecutive_read_same_page: value.field("consecutive_read_same_page")?.as_f64()?,
            consecutive_write_same_page: value.field("consecutive_write_same_page")?.as_f64()?,
            miss_rate_series: series,
        })
    }
}

impl ToJson for CoreReport {
    fn to_json(&self) -> Json {
        // DmaStats lives in `gemmini-core`, which cannot name the JSON
        // traits (no `gemmini-mem` dependency), so its fields are
        // flattened here.
        Json::obj([
            ("network", Json::from(self.network.clone())),
            ("total_cycles", Json::from(self.total_cycles)),
            ("layers", self.layers.to_json()),
            ("translation", self.translation.to_json()),
            (
                "dma",
                Json::obj([
                    ("bytes_in", Json::from(self.dma.bytes_in)),
                    ("bytes_out", Json::from(self.dma.bytes_out)),
                    ("translations", Json::from(self.dma.translations)),
                    (
                        "translation_stall_cycles",
                        Json::from(self.dma.translation_stall_cycles),
                    ),
                ]),
            ),
            ("macs", Json::from(self.macs)),
            ("context_switches", Json::from(self.context_switches)),
            ("attribution", self.attribution.to_json()),
            (
                "output",
                match &self.output {
                    None => Json::Null,
                    Some(bytes) => {
                        Json::Arr(bytes.iter().map(|&b| Json::from(i64::from(b))).collect())
                    }
                },
            ),
        ])
    }
}

impl FromJson for CoreReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let dma = value.field("dma")?;
        let output = match value.field("output")? {
            Json::Null => None,
            arr => Some(
                arr.as_arr()?
                    .iter()
                    .map(|v| {
                        let n = match v {
                            Json::U64(n) => i64::try_from(*n)
                                .map_err(|_| JsonError::new("output byte out of range"))?,
                            Json::I64(n) => *n,
                            other => {
                                return Err(JsonError::new(format!(
                                    "expected integer output byte, got {other:?}"
                                )))
                            }
                        };
                        i8::try_from(n).map_err(|_| JsonError::new("output byte out of i8 range"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(Self {
            network: value.field("network")?.as_str()?.to_string(),
            total_cycles: value.field("total_cycles")?.as_u64()?,
            layers: Vec::<LayerReport>::from_json(value.field("layers")?)?,
            translation: TranslationReport::from_json(value.field("translation")?)?,
            dma: DmaStats {
                bytes_in: dma.field("bytes_in")?.as_u64()?,
                bytes_out: dma.field("bytes_out")?.as_u64()?,
                translations: dma.field("translations")?.as_u64()?,
                translation_stall_cycles: dma.field("translation_stall_cycles")?.as_u64()?,
            },
            macs: value.field("macs")?.as_u64()?,
            context_switches: value.field("context_switches")?.as_u64()?,
            attribution: CycleAttribution::from_json(value.field("attribution")?)?,
            output,
        })
    }
}

impl ToJson for L2Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("accesses", Json::from(self.accesses)),
            ("misses", Json::from(self.misses)),
            ("miss_rate", Json::from(self.miss_rate)),
            ("writebacks", Json::from(self.writebacks)),
        ])
    }
}

impl FromJson for L2Report {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            accesses: value.field("accesses")?.as_u64()?,
            misses: value.field("misses")?.as_u64()?,
            miss_rate: value.field("miss_rate")?.as_f64()?,
            writebacks: value.field("writebacks")?.as_u64()?,
        })
    }
}

impl ToJson for SocReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cores", self.cores.to_json()),
            ("l2", self.l2.to_json()),
            ("dram_bytes", Json::from(self.dram_bytes)),
            ("l2_stats", self.l2_stats.to_json()),
            ("dram_traffic", self.dram_traffic.to_json()),
            ("attribution", self.attribution.to_json()),
        ])
    }
}

impl FromJson for SocReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            cores: Vec::<CoreReport>::from_json(value.field("cores")?)?,
            l2: L2Report::from_json(value.field("l2")?)?,
            dram_bytes: value.field("dram_bytes")?.as_u64()?,
            l2_stats: HitMissStats::from_json(value.field("l2_stats")?)?,
            dram_traffic: TrafficStats::from_json(value.field("dram_traffic")?)?,
            attribution: CycleAttribution::from_json(value.field("attribution")?)?,
        })
    }
}

fn layer_reports(timings: &[LayerTiming]) -> Vec<LayerReport> {
    timings
        .iter()
        .map(|t| LayerReport {
            name: t.name.clone(),
            class: t.class,
            cycles: t.cycles(),
        })
        .collect()
}

/// Runs `nets[i]` on core `i` of an SoC built from `config`, interleaving
/// cores at kernel-step granularity (the core with the smallest local clock
/// steps next), and returns the full report. For a trace-event sink or a
/// live-metrics handle, use [`run_networks_observed`].
///
/// # Errors
///
/// Propagates the first accelerator error (e.g. a page fault) from any core.
///
/// # Panics
///
/// Panics if `nets.len()` differs from the configured core count.
pub fn run_networks(
    config: &SocConfig,
    nets: &[Network],
    options: &RunOptions,
) -> Result<SocReport, AccelError> {
    run_networks_observed(
        config,
        nets,
        options,
        &Tracer::disabled(),
        &Metrics::disabled(),
    )
}

/// Like [`run_networks`], with an explicit trace-event sink *and* an
/// explicit live-metrics handle, each independently optional (pass
/// [`Tracer::disabled`] / [`Metrics::disabled`]). When `tracer` is
/// enabled, every core's engine, translation hardware, and the shared
/// memory hierarchy emit spans into it (cores use their core id as the
/// trace pid; shared components use [`SOC_TRACE_PID`]), and the runtime
/// contributes one span per layer. When `metrics` is enabled, the same
/// components record counters and latency histograms into its registry.
/// Both are pure observation; cycle results are identical in all four
/// on/off combinations.
///
/// # Errors
///
/// Propagates the first accelerator error (e.g. a page fault) from any core.
///
/// # Panics
///
/// Panics if `nets.len()` differs from the configured core count.
pub fn run_networks_observed(
    config: &SocConfig,
    nets: &[Network],
    options: &RunOptions,
    tracer: &Tracer,
    metrics: &Metrics,
) -> Result<SocReport, AccelError> {
    assert_eq!(
        nets.len(),
        config.cores.len(),
        "need exactly one network per core"
    );
    let mut soc = Soc::new(config, options.functional);
    if tracer.enabled() {
        soc.mem.set_tracer(tracer.with_pid(SOC_TRACE_PID));
        for core in &mut soc.cores {
            core.accel.set_tracer(tracer.with_pid(core.id as u64));
            core.translation.set_tracer(tracer.with_pid(core.id as u64));
        }
    }
    if metrics.enabled_registry() {
        soc.mem.set_metrics(metrics.clone());
        for core in &mut soc.cores {
            core.accel.set_metrics(metrics.clone());
            core.translation.set_metrics(metrics.clone());
        }
    }
    let Soc {
        cores,
        mem,
        data,
        frames,
    } = &mut soc;

    let mut execs: Vec<NetworkExecution> = cores
        .iter_mut()
        .zip(nets)
        .map(|(core, net)| {
            NetworkExecution::new(
                net.clone(),
                core.accel.config().clone(),
                &mut core.space,
                frames,
                data.as_mut(),
                options.seed.wrapping_add(core.id as u64),
            )
        })
        .collect();

    let mut os_states: Vec<OsState> = cores.iter().map(|_| OsState::new(config.os)).collect();
    let mut finished = vec![false; cores.len()];

    while finished.iter().any(|f| !f) {
        // Pick the unfinished core with the smallest local clock.
        let idx = (0..cores.len())
            .filter(|&i| !finished[i])
            .min_by_key(|&i| cores[i].accel.now())
            .expect("an unfinished core exists");
        let core = &mut cores[idx];

        // OS events that fired before this core's current time.
        while os_states[idx].due(core.accel.now()) {
            let now = core.accel.now();
            core.accel
                .advance_to(now + core.cpu.context_switch_cycles());
            if os_states[idx].flushes_translation() {
                core.translation.flush();
            }
            os_states[idx].take(core.accel.now());
        }

        let mut env = KernelEnv {
            accel: &mut core.accel,
            cpu: &core.cpu,
            ctx: MemCtx {
                space: &core.space,
                translation: &mut core.translation,
                mem,
                data: data.as_mut(),
                port: core.id,
            },
        };
        if matches!(execs[idx].step(&mut env)?, StepOutcome::Done) {
            finished[idx] = true;
        }
    }

    // Runtime-level layer spans: one per layer, on the core's trace lane.
    if tracer.enabled() {
        for (core, exec) in cores.iter().zip(&execs) {
            let lane = tracer.with_pid(core.id as u64);
            for t in exec.timings() {
                lane.span(
                    Component::Runtime,
                    &t.name,
                    t.start,
                    t.end,
                    StallCause::None,
                );
            }
        }
    }

    // Assemble reports.
    let core_reports: Vec<CoreReport> = cores
        .iter()
        .zip(&execs)
        .zip(&os_states)
        .map(|((core, exec), os)| {
            let t = &core.translation;
            let output = data.as_ref().map(|d| {
                read_virt(&core.space, d, exec.output_va(), exec.output_elements())
                    .iter()
                    .map(|&b| b as i8)
                    .collect()
            });
            CoreReport {
                network: exec.network().name().to_string(),
                total_cycles: core.accel.stats().finish,
                layers: layer_reports(exec.timings()),
                translation: TranslationReport {
                    requests: t.requests(),
                    private_hit_rate: t.private_tlb().stats().hit_rate(),
                    effective_hit_rate: t.effective_hit_rate(),
                    filter_hits: t.filter_hits(),
                    shared_hit_rate: t.shared_tlb().stats().hit_rate(),
                    walks: t.walks_taken(),
                    mean_walk_cycles: t.ptw().mean_walk_cycles(),
                    consecutive_read_same_page: t.consecutive_read_same_page_rate(),
                    consecutive_write_same_page: t.consecutive_write_same_page_rate(),
                    miss_rate_series: t
                        .miss_rate_series()
                        .series()
                        .iter()
                        .map(|p| (p.start_cycle, p.miss_rate()))
                        .collect(),
                },
                dma: *core.accel.dma_stats(),
                macs: core.accel.stats().macs,
                context_switches: os.switches(),
                attribution: core.accel.attribution(),
                output,
            }
        })
        .collect();

    let l2 = soc_l2_report(&soc);
    let l2_stats = *soc.mem.l2().stats();
    let dram_traffic = *soc.mem.dram().stats();
    let mut attribution = CycleAttribution::new();
    for core in &core_reports {
        attribution.merge(&core.attribution);
    }
    Ok(SocReport {
        cores: core_reports,
        l2,
        dram_bytes: dram_traffic.total_bytes(),
        l2_stats,
        dram_traffic,
        attribution,
    })
}

fn soc_l2_report(soc: &Soc) -> L2Report {
    let stats = soc.mem.l2().stats();
    L2Report {
        accesses: stats.accesses(),
        misses: stats.misses(),
        miss_rate: stats.miss_rate(),
        writebacks: soc.mem.l2().writebacks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::reference_forward;
    use gemmini_dnn::graph::{Activation, Layer};
    use gemmini_dnn::zoo;

    #[test]
    fn functional_tiny_cnn_matches_reference_bit_for_bit() {
        let net = zoo::tiny_cnn();
        let report = run_networks(
            &SocConfig::edge_single_core(),
            std::slice::from_ref(&net),
            &RunOptions::functional(),
        )
        .unwrap();
        let got = report.cores[0].output.as_ref().unwrap();
        let want = reference_forward(&net, RunOptions::functional().seed);
        assert_eq!(got.len(), want.len());
        assert_eq!(got, &want, "accelerator output must equal golden model");
        assert!(report.cores[0].total_cycles > 0);
        assert!(report.cores[0].macs > 0);
    }

    #[test]
    fn functional_without_im2col_unit_also_matches() {
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel.has_im2col = false;
        let net = zoo::tiny_cnn();
        let report =
            run_networks(&cfg, std::slice::from_ref(&net), &RunOptions::functional()).unwrap();
        let got = report.cores[0].output.as_ref().unwrap();
        let want = reference_forward(&net, RunOptions::functional().seed);
        assert_eq!(got, &want);
    }

    #[test]
    fn timing_only_matches_functional_cycle_count() {
        let net = zoo::tiny_cnn();
        let cfg = SocConfig::edge_single_core();
        let f = run_networks(&cfg, std::slice::from_ref(&net), &RunOptions::functional()).unwrap();
        let t = run_networks(&cfg, &[net], &RunOptions::timing()).unwrap();
        assert_eq!(f.cores[0].total_cycles, t.cores[0].total_cycles);
        assert!(t.cores[0].output.is_none());
        // Attribution is observation-only, so both modes classify cycles
        // identically.
        assert_eq!(f.cores[0].attribution, t.cores[0].attribution);
    }

    #[test]
    fn attribution_buckets_sum_to_total_cycles_on_every_core() {
        let report = run_networks(
            &SocConfig::edge_dual_core(),
            &[zoo::tiny_cnn(), zoo::tiny_cnn()],
            &RunOptions::timing(),
        )
        .unwrap();
        let mut merged = gemmini_mem::stats::CycleAttribution::new();
        for core in &report.cores {
            let attr = core.attribution;
            assert_eq!(
                attr.total(),
                core.total_cycles,
                "buckets must sum to the run length: {attr:?}"
            );
            assert!(attr.compute > 0 && attr.load > 0 && attr.store > 0);
            merged.merge(&attr);
        }
        assert_eq!(report.attribution, merged, "SoC rollup is the core fold");
    }

    #[test]
    fn traced_run_emits_spans_without_changing_results() {
        use gemmini_core::trace::{Component, Tracer, SOC_TRACE_PID};
        let cfg = SocConfig::edge_single_core();
        let net = zoo::tiny_cnn();
        let plain = run_networks(&cfg, std::slice::from_ref(&net), &RunOptions::timing()).unwrap();
        let (tracer, sink) = Tracer::buffered();
        let traced = run_networks_observed(
            &cfg,
            std::slice::from_ref(&net),
            &RunOptions::timing(),
            &tracer,
            &Metrics::disabled(),
        )
        .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let events = sink.lock().unwrap().take();
        assert!(!events.is_empty());
        // The runtime contributes one span per layer, on the core's lane.
        let runtime_spans = events
            .iter()
            .filter(|e| e.component == Component::Runtime)
            .count();
        assert_eq!(runtime_spans, net.len());
        assert!(events.iter().any(|e| e.pid == 0), "core-0 lane events");
        assert!(
            events.iter().any(|e| e.pid == SOC_TRACE_PID),
            "shared memory-hierarchy events"
        );
    }

    #[test]
    fn metered_run_counts_events_without_changing_results() {
        use gemmini_core::metrics::{Counter, Metrics};
        let cfg = SocConfig::edge_single_core();
        let net = zoo::tiny_cnn();
        let plain = run_networks(&cfg, std::slice::from_ref(&net), &RunOptions::timing()).unwrap();
        let (metrics, registry) = Metrics::enabled();
        let metered = run_networks_observed(
            &cfg,
            std::slice::from_ref(&net),
            &RunOptions::timing(),
            &Tracer::disabled(),
            &metrics,
        )
        .unwrap();
        assert_eq!(plain, metered, "metrics must not perturb the simulation");
        // Every instrumented component recorded something on a real net,
        // and the counts the report also carries agree with it.
        assert!(registry.counter(Counter::TilesIssued) > 0);
        assert!(registry.counter(Counter::DmaBursts) > 0);
        let dma = &plain.cores[0].dma;
        assert!(dma.bytes_in > 0 && dma.bytes_out > 0);
        assert_eq!(
            registry.counter(Counter::DmaBytes),
            dma.bytes_in + dma.bytes_out,
            "DMA bytes equal the report's bytes in and out"
        );
        assert_eq!(
            registry.counter(Counter::TlbMisses),
            plain.cores[0].translation.walks,
            "TLB misses equal the report's walk count"
        );
        assert!(plain.l2.misses > 0);
        assert_eq!(
            registry.counter(Counter::DramLineFills),
            plain.l2.misses,
            "DRAM line fills equal the report's L2 misses"
        );
    }

    #[test]
    fn cpu_im2col_is_slower_than_accelerator_im2col() {
        let net = zoo::tiny_cnn();
        let with_unit = run_networks(
            &SocConfig::edge_single_core(),
            std::slice::from_ref(&net),
            &RunOptions::timing(),
        )
        .unwrap();
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel.has_im2col = false;
        let without = run_networks(&cfg, &[net], &RunOptions::timing()).unwrap();
        assert!(
            without.cores[0].total_cycles > with_unit.cores[0].total_cycles,
            "CPU im2col must cost more: {} vs {}",
            without.cores[0].total_cycles,
            with_unit.cores[0].total_cycles
        );
    }

    #[test]
    fn dual_core_runs_both_networks() {
        let cfg = SocConfig::edge_dual_core();
        let report = run_networks(
            &cfg,
            &[zoo::tiny_cnn(), zoo::tiny_cnn()],
            &RunOptions::timing(),
        )
        .unwrap();
        assert_eq!(report.cores.len(), 2);
        assert!(report.cores.iter().all(|c| c.total_cycles > 0));
        assert!(report.l2.accesses > 0);
    }

    #[test]
    fn dual_core_contention_slows_cores_down() {
        let single = run_networks(
            &SocConfig::edge_single_core(),
            &[zoo::tiny_cnn()],
            &RunOptions::timing(),
        )
        .unwrap();
        let dual = run_networks(
            &SocConfig::edge_dual_core(),
            &[zoo::tiny_cnn(), zoo::tiny_cnn()],
            &RunOptions::timing(),
        )
        .unwrap();
        // Sharing the L2/DRAM should not make anyone faster.
        assert!(dual.cores[0].total_cycles >= single.cores[0].total_cycles);
    }

    #[test]
    fn per_layer_reports_cover_every_layer() {
        let net = zoo::tiny_cnn();
        let layers = net.len();
        let report = run_networks(
            &SocConfig::edge_single_core(),
            &[net],
            &RunOptions::timing(),
        )
        .unwrap();
        assert_eq!(report.cores[0].layers.len(), layers);
        let by_class: Cycle = [
            LayerClass::Conv,
            LayerClass::Matmul,
            LayerClass::ResAdd,
            LayerClass::Pool,
            LayerClass::Norm,
        ]
        .iter()
        .map(|&c| report.cores[0].class_cycles(c))
        .sum();
        let total: Cycle = report.cores[0].layers.iter().map(|l| l.cycles).sum();
        assert_eq!(by_class, total);
    }

    #[test]
    fn os_noise_adds_time_and_switches() {
        use crate::os::OsConfig;
        let quiet = SocConfig::edge_single_core();
        let mut noisy = SocConfig::edge_single_core();
        noisy.os = OsConfig::linux(2_000);
        let net = zoo::tiny_cnn();
        let a = run_networks(&quiet, std::slice::from_ref(&net), &RunOptions::timing()).unwrap();
        let b = run_networks(&noisy, &[net], &RunOptions::timing()).unwrap();
        assert!(b.cores[0].context_switches > 0);
        assert!(b.cores[0].total_cycles > a.cores[0].total_cycles);
    }

    #[test]
    fn translation_stats_are_populated() {
        let report = run_networks(
            &SocConfig::edge_single_core(),
            &[zoo::tiny_cnn()],
            &RunOptions::timing(),
        )
        .unwrap();
        let t = &report.cores[0].translation;
        assert!(t.requests > 0);
        assert!(t.walks > 0);
        assert!(t.private_hit_rate > 0.0);
        assert!(!t.miss_rate_series.is_empty());
    }

    #[test]
    fn matmul_only_network_runs() {
        let mut net = Network::new("mm");
        net.push(
            "fc1",
            Layer::Matmul {
                m: 32,
                k: 64,
                n: 48,
                activation: Activation::Relu,
            },
        );
        net.push(
            "fc2",
            Layer::Matmul {
                m: 32,
                k: 48,
                n: 10,
                activation: Activation::None,
            },
        );
        let report = run_networks(
            &SocConfig::edge_single_core(),
            std::slice::from_ref(&net),
            &RunOptions::functional(),
        )
        .unwrap();
        let want = reference_forward(&net, RunOptions::functional().seed);
        assert_eq!(report.cores[0].output.as_ref().unwrap(), &want);
    }

    #[test]
    #[should_panic(expected = "one network per core")]
    fn network_count_mismatch_panics() {
        let _ = run_networks(
            &SocConfig::edge_dual_core(),
            &[zoo::tiny_cnn()],
            &RunOptions::timing(),
        );
    }
}
