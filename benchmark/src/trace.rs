//! The traced pass: host-time spans recorded around the public calls
//! `gemmini_soc::run` makes, self times derived from them, and Chrome
//! `trace_event` export.
//!
//! Spans come only from this crate, around calls into the simulator; the
//! simulator itself is not instrumented for host time.

use crate::workload::new_executions;
use gemmini_core::metrics::{Counter, Metrics};
use gemmini_core::{AccelError, MemCtx};
use gemmini_dnn::graph::LayerClass;
use gemmini_mem::json::Json;
use gemmini_soc::kernel::{KernelEnv, StepOutcome};
use gemmini_soc::os::OsState;
use gemmini_soc::soc::Soc;
use gemmini_soc::{DesignPoint, SocReport};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`soc.step`, `soc.soc_new`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the design point the span belongs to.
    pub point: Option<usize>,
    /// Class of the layer a `soc.step` span stepped.
    pub class: Option<LayerClass>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span log; spans are written out only when the pass ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        class: Option<LayerClass>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            point,
            class,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time in ns: its duration minus the part its child
/// spans cover (children of one parent never overlap: the pass is serial).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration();
        }
    }
    own
}

/// The per-layer-class groups `soc.step` self time is split into. Conv and
/// matmul both run the tiled GEMM kernels; pooling and normalization are
/// grouped so that every group is non-empty on every workload.
pub const STEP_GROUPS: [&str; 3] = [
    "soc.step.gemm_s",
    "soc.step.resadd_s",
    "soc.step.pool_norm_s",
];

/// Index into [`STEP_GROUPS`] of a layer class.
pub fn step_group(class: LayerClass) -> usize {
    match class {
        LayerClass::Conv | LayerClass::Matmul => 0,
        LayerClass::ResAdd => 1,
        LayerClass::Pool | LayerClass::Norm => 2,
    }
}

/// Work counts of one traced point, summed over its cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles (each core's finish time).
    pub sim_cycles: u64,
    /// Accelerator MACs.
    pub macs: u64,
    /// Mesh tiles issued.
    pub tiles: u64,
    /// DMA bursts.
    pub dma_bursts: u64,
    /// DMA bytes.
    pub dma_bytes: u64,
    /// Address-translation requests.
    pub translations: u64,
    /// TLB misses (page-table walks).
    pub tlb_misses: u64,
    /// Shared-L2 accesses.
    pub l2_accesses: u64,
    /// Shared-L2 misses.
    pub l2_misses: u64,
    /// Bytes over the DRAM channel.
    pub dram_bytes: u64,
    /// `NetworkExecution::step` calls.
    pub steps: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.sim_cycles += other.sim_cycles;
        self.macs += other.macs;
        self.tiles += other.tiles;
        self.dma_bursts += other.dma_bursts;
        self.dma_bytes += other.dma_bytes;
        self.translations += other.translations;
        self.tlb_misses += other.tlb_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.dram_bytes += other.dram_bytes;
        self.steps += other.steps;
    }
}

/// What a traced point produced: the cycles to check against the
/// untraced report, and the work counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointTrace {
    /// Each core's `accel.stats().finish`.
    pub core_cycles: Vec<u64>,
    /// Each core's per-layer cycles, in layer order.
    pub layer_cycles: Vec<Vec<u64>>,
    /// Work counts.
    pub counts: Counts,
}

impl PointTrace {
    /// Whether every core's total and per-layer cycles equal `report`'s.
    pub fn matches(&self, report: &SocReport) -> bool {
        let cycles: Vec<u64> = report.cores.iter().map(|c| c.total_cycles).collect();
        let layers: Vec<Vec<u64>> = report
            .cores
            .iter()
            .map(|c| c.layers.iter().map(|l| l.cycles).collect())
            .collect();
        self.core_cycles == cycles && self.layer_cycles == layers
    }
}

/// Re-drives `point` through `Soc::new`, `NetworkExecution::new`,
/// `OsState` and `NetworkExecution::step` in the order
/// `gemmini_soc::run::run_networks_observed` calls them, recording a span
/// around each call under `parent`. A live-metrics registry supplies the
/// counts the report does not carry.
///
/// # Errors
///
/// Propagates the first accelerator error from any core.
pub fn drive_point(
    point: &DesignPoint,
    index: usize,
    rec: &mut Recorder,
    parent: usize,
) -> Result<PointTrace, AccelError> {
    let at = Some(index);
    let span = rec.open("point", Some(parent), at, None);
    let (metrics, registry) = Metrics::enabled();

    let s = rec.open("soc.soc_new", Some(span), at, None);
    let mut soc = Soc::new(&point.config, point.options.functional);
    rec.close(s);
    soc.mem.set_metrics(metrics.clone());
    for core in &mut soc.cores {
        core.accel.set_metrics(metrics.clone());
        core.translation.set_metrics(metrics.clone());
    }
    let s = rec.open("soc.exec_new", Some(span), at, None);
    let mut execs = new_executions(&mut soc, point);
    rec.close(s);

    let Soc {
        cores, mem, data, ..
    } = &mut soc;
    let mut os_states: Vec<OsState> = cores
        .iter()
        .map(|_| OsState::new(point.config.os))
        .collect();
    let mut finished = vec![false; cores.len()];
    let mut steps = 0;
    while finished.iter().any(|f| !f) {
        let idx = (0..cores.len())
            .filter(|&i| !finished[i])
            .min_by_key(|&i| cores[i].accel.now())
            .expect("an unfinished core exists");
        let core = &mut cores[idx];
        while os_states[idx].due(core.accel.now()) {
            let now = core.accel.now();
            core.accel
                .advance_to(now + core.cpu.context_switch_cycles());
            if os_states[idx].flushes_translation() {
                core.translation.flush();
            }
            os_states[idx].take(core.accel.now());
        }
        let exec = &mut execs[idx];
        let class = exec.network().layers()[exec.timings().len()].layer.class();
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
        let s = rec.open("soc.step", Some(span), at, Some(class));
        let outcome = exec.step(&mut env);
        rec.close(s);
        steps += 1;
        if matches!(outcome?, StepOutcome::Done) {
            finished[idx] = true;
        }
    }
    rec.close(span);

    let counts = Counts {
        sim_cycles: cores.iter().map(|c| c.accel.stats().finish).sum(),
        macs: cores.iter().map(|c| c.accel.stats().macs).sum(),
        tiles: registry.counter(Counter::TilesIssued),
        dma_bursts: registry.counter(Counter::DmaBursts),
        dma_bytes: registry.counter(Counter::DmaBytes),
        translations: cores.iter().map(|c| c.translation.requests()).sum(),
        tlb_misses: registry.counter(Counter::TlbMisses),
        l2_accesses: mem.l2().stats().accesses(),
        l2_misses: mem.l2().stats().misses(),
        dram_bytes: mem.dram().stats().total_bytes(),
        steps,
    };
    Ok(PointTrace {
        core_cycles: cores.iter().map(|c| c.accel.stats().finish).collect(),
        layer_cycles: execs
            .iter()
            .map(|e| e.timings().iter().map(|t| t.cycles()).collect())
            .collect(),
        counts,
    })
}

/// Chrome `trace_event` JSON of `spans`: one complete (`"X"`) event per
/// span, on one lane, labelled with its workload and point.
pub fn chrome_trace(spans: &[Span], workload: &str, point_labels: &[String]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("workload", Json::from(workload))];
            if let Some(p) = s.point {
                args.push(("point", Json::from(point_labels[p].clone())));
            }
            if let Some(class) = s.class {
                args.push(("class", Json::from(format!("{class:?}"))));
            }
            Json::obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start as f64 / 1e3)),
                ("dur", Json::from(s.duration() as f64 / 1e3)),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(0u64)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}
