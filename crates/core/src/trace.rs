//! The engine-side profiler: the always-on attribution log plus the
//! optional trace-event sink, bundled so instrumentation sites make one
//! call.
//!
//! The heavy machinery lives in [`gemmini_mem::trace`] (re-exported
//! here): [`Tracer`] is the zero-overhead-when-disabled event sink
//! handle, [`AttributionLog`] the exact interval record behind the
//! cycle-attribution report. [`Profiler`] pairs them — the
//! [`crate::engine::Accelerator`] owns one and every timed operation
//! reports its busy interval through it.

pub use gemmini_mem::stats::CycleAttribution;
pub use gemmini_mem::trace::{
    chrome_trace_json, export_chrome_trace, AttributionKind, AttributionLog, BufferSink, Component,
    StallCause, TraceEvent, Tracer, SOC_TRACE_PID,
};

use crate::metrics::Metrics;
use gemmini_mem::Cycle;

/// The attribution log, trace sink and live-metrics handle an
/// accelerator reports into.
///
/// Attribution recording is always on (it is how the cycle-attribution
/// report stays exact); sink emission and metric recording each cost one
/// branch when disabled.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    log: AttributionLog,
    tracer: Tracer,
    metrics: Metrics,
}

impl Profiler {
    /// Creates a profiler with no sink attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (or replaces) the event sink handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The current sink handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches (or replaces) the live-metrics handle.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The current live-metrics handle (disabled by default).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records a busy interval into the attribution log only.
    #[inline]
    pub fn record(&mut self, kind: AttributionKind, start: Cycle, end: Cycle) {
        self.log.record(kind, start, end);
    }

    /// Records a busy interval and, when a sink is attached, emits the
    /// matching trace span.
    #[inline]
    pub fn span(
        &mut self,
        kind: AttributionKind,
        component: Component,
        name: &str,
        start: Cycle,
        end: Cycle,
        cause: StallCause,
    ) {
        self.log.record(kind, start, end);
        self.tracer.span(component, name, start, end, cause);
    }

    /// Emits a sink-only span (no attribution impact).
    #[inline]
    pub fn event(
        &self,
        component: Component,
        name: &str,
        start: Cycle,
        end: Cycle,
        cause: StallCause,
    ) {
        self.tracer.span(component, name, start, end, cause);
    }

    /// Folds settled attribution intervals once the log grows large;
    /// `frontier` must lower-bound every future interval's start.
    #[inline]
    pub fn maybe_compact(&mut self, frontier: Cycle) {
        self.log.maybe_compact(frontier);
    }

    /// Unconditionally folds settled intervals up to `frontier` — lets a
    /// caller (e.g. the allocation-guard test) reach the log's steady
    /// state at a known point instead of at the size threshold.
    pub fn compact(&mut self, frontier: Cycle) {
        self.log.compact(frontier);
    }

    /// The exact attribution of `[0, total)` recorded so far.
    pub fn attribution(&self, total: Cycle) -> CycleAttribution {
        self.log.finish(total)
    }
}
