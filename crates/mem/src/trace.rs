//! The trace-event substrate behind the cycle-attribution profiler and
//! the Chrome `trace_event` export.
//!
//! Two layers share this module:
//!
//! * [`Tracer`] — a cloneable handle to an optional, shared [`BufferSink`].
//!   The disabled handle (the default) is an inlined `None` check on
//!   every emission site, so instrumented components pay nothing when
//!   tracing is off. Components across the stack (engine units, DMA,
//!   TLB/PTW, L2/DRAM) hold clones of one handle, each tagged with a
//!   `pid` lane, and emit spans into the same sink.
//! * [`AttributionLog`] — the always-on, exact record of *busy intervals*
//!   that the cycle-attribution report is computed from. Intervals carry
//!   an [`AttributionKind`]; [`AttributionLog::finish`] partitions the
//!   timeline by a fixed priority so every simulated cycle lands in
//!   exactly one bucket of [`CycleAttribution`]. The log
//!   coalesces each kind's overlapping or touching intervals on insert
//!   and folds settled prefixes into bucket counters on demand, so memory
//!   stays bounded on full-network runs.
//!
//! Exported traces use the Chrome `trace_event` *array form* — a JSON
//! array of objects with `ph`/`ts`/`dur`/`pid`/`tid` keys — loadable
//! directly in `chrome://tracing` or Perfetto. One simulated cycle is
//! encoded as one microsecond of trace time.

use crate::json::Json;
use crate::stats::CycleAttribution;
use crate::Cycle;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The `pid` lane used for shared (not per-core) SoC components such as
/// the L2 and the DRAM channel. Per-core lanes use the core id.
pub const SOC_TRACE_PID: u64 = 1000;

/// Which component emitted an event. Becomes the Chrome trace `tid`
/// lane (within the emitting component's `pid`) and the event category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The engine's load (mvin) unit.
    LoadUnit,
    /// The engine's execute unit (preloads, peripheral work).
    ExecuteUnit,
    /// The engine's store (mvout) unit.
    StoreUnit,
    /// The spatial array itself (compute occupancy).
    Mesh,
    /// The stream DMA engine.
    Dma,
    /// The TLB hierarchy (filter registers, private/shared TLBs).
    Tlb,
    /// The page-table walker.
    Ptw,
    /// The shared L2 cache.
    L2,
    /// The DRAM channel.
    Dram,
    /// The software runtime (layer boundaries).
    Runtime,
}

impl Component {
    /// Stable lane number for the Chrome trace `tid` field.
    pub fn lane(self) -> u64 {
        match self {
            Self::Runtime => 0,
            Self::LoadUnit => 1,
            Self::ExecuteUnit => 2,
            Self::Mesh => 3,
            Self::StoreUnit => 4,
            Self::Dma => 5,
            Self::Tlb => 7,
            Self::Ptw => 8,
            Self::L2 => 9,
            Self::Dram => 10,
        }
    }

    /// Short category label used in the Chrome trace `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            Self::LoadUnit => "load",
            Self::ExecuteUnit => "execute",
            Self::StoreUnit => "store",
            Self::Mesh => "mesh",
            Self::Dma => "dma",
            Self::Tlb => "tlb",
            Self::Ptw => "ptw",
            Self::L2 => "l2",
            Self::Dram => "dram",
            Self::Runtime => "runtime",
        }
    }
}

/// Why a span spent time stalled, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StallCause {
    /// Not a stall (plain occupancy).
    #[default]
    None,
    /// Waiting on the TLB hierarchy (hit pipeline latency or a walk).
    TlbMiss,
    /// Waiting on the bus → L2 → DRAM path.
    DramAccess,
    /// A shared-L2 miss forced a DRAM line fill.
    CacheMiss,
}

impl StallCause {
    /// Short label for the Chrome trace `args.cause` field.
    pub fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::TlbMiss => "tlb-miss",
            Self::DramAccess => "dram-access",
            Self::CacheMiss => "cache-miss",
        }
    }
}

/// One emitted span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process lane: the core id, or [`SOC_TRACE_PID`] for shared state.
    pub pid: u64,
    /// Emitting component (becomes the thread lane and category).
    pub component: Component,
    /// Event name shown in the viewer.
    pub name: String,
    /// First cycle covered.
    pub start: Cycle,
    /// Covered cycles; never zero, because [`Tracer::span`] drops empty
    /// spans.
    pub dur: Cycle,
    /// Stall classification, if any.
    pub cause: StallCause,
}

/// The event sink: buffers events in memory for later export.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Vec<TraceEvent>,
}

impl BufferSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drains and returns the buffered events.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Cloneable handle to an optional shared [`BufferSink`].
///
/// The default handle is *disabled*: every emission method is a single
/// inlined `Option` check, which is what makes instrumentation free when
/// tracing is off. Clones share the same sink; [`Tracer::with_pid`] re-tags a
/// clone with a different `pid` lane so one sink collects events from
/// every core and shared component.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<BufferSink>>>,
    pid: u64,
}

impl Tracer {
    /// The disabled handle (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle with `pid` lane 0, plus the buffer behind it.
    pub fn buffered() -> (Self, Arc<Mutex<BufferSink>>) {
        let buffer = Arc::new(Mutex::new(BufferSink::new()));
        let tracer = Self {
            sink: Some(buffer.clone()),
            pid: 0,
        };
        (tracer, buffer)
    }

    /// A clone of this handle tagged with a different `pid` lane.
    pub fn with_pid(&self, pid: u64) -> Self {
        Self {
            sink: self.sink.clone(),
            pid,
        }
    }

    /// Whether a sink is attached. Emission sites that must format
    /// dynamic names should check this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits a span covering `[start, end)`. No-op when disabled or when
    /// the span is empty. Only the `None` check is inlined into the
    /// emission site; the emit itself stays out of line.
    #[inline(always)]
    pub fn span(
        &self,
        component: Component,
        name: &str,
        start: Cycle,
        end: Cycle,
        cause: StallCause,
    ) {
        if let Some(sink) = &self.sink {
            emit(sink, self.pid, component, name, start, end, cause);
        }
    }
}

/// Buffers the span `[start, end)` unless it is empty: the out-of-line
/// half of [`Tracer::span`].
#[cold]
#[inline(never)]
fn emit(
    sink: &Mutex<BufferSink>,
    pid: u64,
    component: Component,
    name: &str,
    start: Cycle,
    end: Cycle,
    cause: StallCause,
) {
    if end > start {
        sink.lock()
            .expect("trace sink lock")
            .events
            .push(TraceEvent {
                pid,
                component,
                name: name.to_string(),
                start,
                dur: end - start,
                cause,
            });
    }
}

/// Kind of busy interval recorded into an [`AttributionLog`].
///
/// Declaration order is *attribution priority*: when intervals of
/// different kinds overlap, each cycle is charged to the earliest listed
/// kind covering it. Compute wins over everything (an overlapped stall
/// is hidden, exactly the overlap the decoupled engine exists to
/// create); specific stall causes win over the generic load/store
/// occupancy that contains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttributionKind {
    /// The spatial array (or a peripheral on the execute unit) was busy.
    Compute,
    /// A DMA stream was stalled on the TLB hierarchy.
    TlbStall,
    /// A DMA stream was waiting on the bus → L2 → DRAM path.
    Dram,
    /// The load unit was otherwise busy streaming data in.
    Load,
    /// The store unit was otherwise busy streaming data out.
    Store,
}

/// The number of [`AttributionKind`] variants.
const KIND_COUNT: usize = 5;

/// All kinds in priority order (index = `as usize` discriminant).
const KINDS: [AttributionKind; KIND_COUNT] = [
    AttributionKind::Compute,
    AttributionKind::TlbStall,
    AttributionKind::Dram,
    AttributionKind::Load,
    AttributionKind::Store,
];

/// One busy interval `[start, end)` of a single kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: Cycle,
    end: Cycle,
}

/// Closed spans the log holds before it folds a settled prefix.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Closed spans each kind's list has room for when created (1 KiB a
/// kind): a short run, such as a small network's first layers, records
/// without regrowing a list, and long runs double them on the way to
/// the threshold. Reserving the whole threshold up front instead raised
/// peak RSS.
const INITIAL_SPANS: usize = 64;

/// The always-on interval record behind the cycle-attribution report.
///
/// `record` is O(1) in the common case: each kind keeps one *open*
/// interval that a new span of that kind extends when the two overlap or
/// touch, and the open interval is closed into its kind's list only when
/// a disjoint span of that kind arrives. Each list stays sorted by start:
/// a closed interval is inserted at its start position, scanning back
/// from the tail, and nearly every one lands at the tail. The partition
/// depends on nothing but each kind's union of intervals, so per-kind
/// coalescing cannot change it, and interleaved load/DRAM/compute records
/// still coalesce. `maybe_compact` folds every interval that ends before
/// a caller-proved *frontier* — a cycle no future interval can start
/// before — into bucket counters, bounding memory on long runs without
/// changing the final partition; `finish` produces the exact, exclusive
/// [`CycleAttribution`] for `[0, total)`. Both partition by linear merges
/// of the sorted lists; nothing is sorted.
#[derive(Debug, Clone)]
pub struct AttributionLog {
    /// Per kind (index = discriminant), the closed intervals sorted by
    /// start. No later record coalesces with them; they may overlap.
    closed: [Vec<Interval>; KIND_COUNT],
    /// Intervals across every `closed` list, kept as they are added and
    /// drained, so the per-issue threshold check sums nothing.
    closed_count: usize,
    /// Per kind, the interval later records extend.
    open: [Option<Interval>; KIND_COUNT],
    folded: CycleAttribution,
    folded_until: Cycle,
    /// Retained scratch for `compact`, so steady-state compaction
    /// performs no heap allocation.
    scratch: Partition,
}

impl Default for AttributionLog {
    fn default() -> Self {
        Self {
            closed: std::array::from_fn(|_| Vec::with_capacity(INITIAL_SPANS)),
            closed_count: 0,
            open: [None; KIND_COUNT],
            folded: CycleAttribution::default(),
            folded_until: 0,
            scratch: Partition::default(),
        }
    }
}

impl AttributionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`. Empty intervals are
    /// ignored; an interval overlapping or touching its kind's open
    /// interval extends it in place, and otherwise replaces it (the old
    /// one is closed into its kind's list).
    #[inline]
    pub fn record(&mut self, kind: AttributionKind, start: Cycle, end: Cycle) {
        if end <= start {
            return;
        }
        let slot = &mut self.open[kind as usize];
        match slot {
            Some(open) if start <= open.end && end >= open.start => {
                open.start = open.start.min(start);
                open.end = open.end.max(end);
            }
            _ => {
                if let Some(closed) = slot.replace(Interval { start, end }) {
                    self.closed_count += 1;
                    let list = &mut self.closed[kind as usize];
                    match list.last() {
                        Some(last) if last.start > closed.start => insert_sorted(list, closed),
                        _ => list.push(closed),
                    }
                }
            }
        }
    }

    /// Number of intervals currently held, open ones included (folded
    /// prefixes excluded).
    pub fn pending_spans(&self) -> usize {
        self.closed_count + self.open.iter().flatten().count()
    }

    /// Folds settled intervals into bucket counters once the log grows
    /// past an internal threshold. `frontier` must be a cycle no
    /// *future* interval can start before (the engine passes the minimum
    /// of its units' free times); intervals crossing it are split.
    #[inline]
    pub fn maybe_compact(&mut self, frontier: Cycle) {
        if self.closed_count >= COMPACT_THRESHOLD {
            self.compact(frontier);
        }
    }

    /// Unconditionally folds everything below `frontier`, open intervals
    /// included.
    ///
    /// The intervals starting below `frontier` are a prefix of each
    /// kind's list. The prefix is charged, then replaced in place by at
    /// most one interval — the union of its parts past `frontier`, which
    /// all start there — so the list stays sorted. The partition reuses
    /// retained scratch, making steady-state compaction allocation-free.
    pub fn compact(&mut self, frontier: Cycle) {
        if frontier <= self.folded_until {
            return;
        }
        self.scratch.start();
        for (k, &kind) in KINDS.iter().enumerate() {
            let list = &mut self.closed[k];
            let settled = list.partition_point(|s| s.start < frontier);
            let tail = self.scratch.charge(
                &mut self.folded,
                kind,
                &list[..settled],
                self.open[k],
                self.folded_until,
                frontier,
            );
            let drained = if tail > frontier {
                list[settled - 1] = Interval {
                    start: frontier,
                    end: tail,
                };
                settled - 1
            } else {
                settled
            };
            list.drain(..drained);
            self.closed_count -= drained;
            self.open[k] = self.open[k].filter(|s| s.end > frontier).map(|s| Interval {
                start: s.start.max(frontier),
                end: s.end,
            });
        }
        self.folded_until = frontier;
        debug_assert_eq!(
            self.closed_count,
            self.closed.iter().map(Vec::len).sum::<usize>()
        );
    }

    /// The exact attribution of `[0, total)`: folded prefixes plus a
    /// partition of the remaining spans, with `idle` as the remainder.
    ///
    /// # Panics
    ///
    /// Panics if a recorded interval extends past `total` — by
    /// construction every engine interval ends at or before the finish
    /// cycle, so this indicates an instrumentation bug.
    pub fn finish(&self, total: Cycle) -> CycleAttribution {
        let pending = self
            .closed
            .iter()
            .flatten()
            .chain(self.open.iter().flatten());
        if let Some(span) = pending.clone().find(|s| s.end > total) {
            panic!(
                "attribution interval [{}, {}) extends past the {total}-cycle run",
                span.start, span.end
            );
        }
        let mut out = self.folded;
        let mut scratch = Partition::default();
        for (k, &kind) in KINDS.iter().enumerate() {
            scratch.charge(
                &mut out,
                kind,
                &self.closed[k],
                self.open[k],
                self.folded_until,
                total,
            );
        }
        let busy = out.busy();
        debug_assert!(busy <= total);
        out.idle = total - busy;
        out
    }
}

/// Inserts `span` into a start-sorted list at its start position,
/// scanning back from the tail: the rare close that arrives out of order.
#[cold]
fn insert_sorted(list: &mut Vec<Interval>, span: Interval) {
    let at = list
        .iter()
        .rposition(|s| s.start <= span.start)
        .map_or(0, |i| i + 1);
    list.insert(at, span);
}

/// Priority partition by sorted merges. Kinds are charged in priority
/// order: each is charged the cycles its union adds to `covered`, the
/// union of every kind charged before it.
#[derive(Debug, Clone, Default)]
struct Partition {
    /// The current kind's union: sorted, disjoint.
    union: Vec<Interval>,
    /// Everything charged so far: sorted, disjoint.
    covered: Vec<Interval>,
    /// Total cycles of `covered`.
    covered_cycles: Cycle,
    /// `covered ∪ union`, swapped into `covered` once built.
    merged: Vec<Interval>,
}

impl Partition {
    /// Starts a partition: nothing is covered yet.
    fn start(&mut self) {
        self.covered.clear();
        self.covered_cycles = 0;
    }

    /// Charges `kind` the cycles of `[lo, hi)` that its `list` (sorted by
    /// start, possibly overlapping) and `open` cover and no kind charged
    /// since [`Self::start`] did, then adds them to `covered`. Returns the
    /// latest end in `list` (0 if empty).
    fn charge(
        &mut self,
        out: &mut CycleAttribution,
        kind: AttributionKind,
        list: &[Interval],
        open: Option<Interval>,
        lo: Cycle,
        hi: Cycle,
    ) -> Cycle {
        self.union.clear();
        let mut add = |span: Interval| {
            let clamped = Interval {
                start: span.start.max(lo),
                end: span.end.min(hi),
            };
            if clamped.end > clamped.start {
                push_coalesced(&mut self.union, clamped);
            }
        };
        // `open` goes in at its start position, keeping the pass sorted.
        let at = open.map_or(list.len(), |o| list.partition_point(|s| s.start <= o.start));
        let mut tail = 0;
        for &span in &list[..at] {
            tail = tail.max(span.end);
            add(span);
        }
        if let Some(open) = open {
            add(open);
        }
        for &span in &list[at..] {
            tail = tail.max(span.end);
            add(span);
        }
        if self.union.is_empty() {
            return tail;
        }
        self.merged.clear();
        let mut merged_cycles = 0;
        let (mut a, mut b) = (self.covered.iter().peekable(), self.union.iter().peekable());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.start <= y.start => a.next(),
                (Some(_), Some(_)) => b.next(),
                (Some(_), None) => a.next(),
                (None, _) => b.next(),
            };
            match next {
                Some(&span) => merged_cycles += push_coalesced(&mut self.merged, span),
                None => break,
            }
        }
        *bucket_mut(out, kind) += merged_cycles - self.covered_cycles;
        self.covered_cycles = merged_cycles;
        std::mem::swap(&mut self.covered, &mut self.merged);
        tail
    }
}

/// Appends `span` to a sorted, disjoint list whose last start is at most
/// `span.start`, merging it into the last interval when they overlap or
/// touch. Returns the cycles the list's union grew by.
fn push_coalesced(list: &mut Vec<Interval>, span: Interval) -> Cycle {
    match list.last_mut() {
        Some(last) if span.start <= last.end => {
            let grown = span.end.saturating_sub(last.end);
            last.end = last.end.max(span.end);
            grown
        }
        _ => {
            list.push(span);
            span.end - span.start
        }
    }
}

fn bucket_mut(attr: &mut CycleAttribution, kind: AttributionKind) -> &mut u64 {
    match kind {
        AttributionKind::Compute => &mut attr.compute,
        AttributionKind::TlbStall => &mut attr.tlb_stall,
        AttributionKind::Dram => &mut attr.dram,
        AttributionKind::Load => &mut attr.load,
        AttributionKind::Store => &mut attr.store,
    }
}

/// Renders events as a Chrome `trace_event` JSON array of complete
/// events (`ph: "X"`). One cycle = one microsecond of `ts`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name", Json::from(e.name.clone())),
                    ("cat", Json::from(e.component.label())),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(e.start)),
                    ("pid", Json::from(e.pid)),
                    ("tid", Json::from(e.component.lane())),
                    ("dur", Json::from(e.dur)),
                ];
                if e.cause != StallCause::None {
                    fields.push(("args", Json::obj([("cause", Json::from(e.cause.label()))])));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Writes `events` to `path` as a Chrome `trace_event` JSON array.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_chrome_trace(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{}\n", chrome_trace_json(events).encode()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        // Emission on a disabled handle must be a no-op, not a panic.
        t.span(Component::Dma, "x", 0, 10, StallCause::None);
    }

    #[test]
    fn buffered_tracer_collects_events_across_clones() {
        let (t, buf) = Tracer::buffered();
        t.span(Component::LoadUnit, "mvin", 0, 8, StallCause::None);
        t.with_pid(3)
            .span(Component::Ptw, "walk", 4, 6, StallCause::TlbMiss);
        let events = buf.lock().unwrap().take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pid, 0);
        assert_eq!(events[0].dur, 8);
        assert_eq!(events[1].pid, 3);
        assert_eq!(events[1].dur, 2);
    }

    #[test]
    fn empty_spans_are_dropped() {
        let (t, buf) = Tracer::buffered();
        t.span(Component::Dma, "empty", 7, 7, StallCause::None);
        assert!(buf.lock().unwrap().events().is_empty());
    }

    #[test]
    fn chrome_export_has_required_keys() {
        let events = vec![
            TraceEvent {
                pid: 0,
                component: Component::Mesh,
                name: "compute".into(),
                start: 10,
                dur: 5,
                cause: StallCause::None,
            },
            TraceEvent {
                pid: 1,
                component: Component::Tlb,
                name: "miss".into(),
                start: 12,
                dur: 3,
                cause: StallCause::TlbMiss,
            },
        ];
        let doc = chrome_trace_json(&events);
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        for e in arr {
            for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "missing {key}");
            }
        }
        assert_eq!(arr[0].field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(arr[0].field("dur").unwrap().as_u64().unwrap(), 5);
        assert_eq!(arr[1].field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(
            arr[1]
                .field("args")
                .unwrap()
                .field("cause")
                .unwrap()
                .as_str()
                .unwrap(),
            "tlb-miss"
        );
    }

    #[test]
    fn log_partitions_by_priority() {
        let mut log = AttributionLog::new();
        // Load busy 0..100, compute overlaps 20..60, tlb stall 0..10
        // (inside the load), dram wait 10..30.
        log.record(AttributionKind::Load, 0, 100);
        log.record(AttributionKind::Compute, 20, 60);
        log.record(AttributionKind::TlbStall, 0, 10);
        log.record(AttributionKind::Dram, 10, 30);
        let a = log.finish(120);
        assert_eq!(a.compute, 40); // 20..60
        assert_eq!(a.tlb_stall, 10); // 0..10
        assert_eq!(a.dram, 10); // 10..20 (20..30 hidden under compute)
        assert_eq!(a.load, 40); // 60..100 — the rest is charged elsewhere
        assert_eq!(a.store, 0);
        assert_eq!(a.idle, 20); // 100..120
        assert_eq!(a.total(), 120);
    }

    #[test]
    fn coalescing_merges_adjacent_same_kind_spans() {
        let mut log = AttributionLog::new();
        log.record(AttributionKind::TlbStall, 0, 2);
        log.record(AttributionKind::TlbStall, 2, 4);
        log.record(AttributionKind::TlbStall, 3, 9);
        assert_eq!(log.pending_spans(), 1);
        let a = log.finish(10);
        assert_eq!(a.tlb_stall, 9);
        assert_eq!(a.idle, 1);
    }

    #[test]
    fn compaction_does_not_change_the_partition() {
        let mut a = AttributionLog::new();
        let mut b = AttributionLog::new();
        let spans = [
            (AttributionKind::Load, 0u64, 50u64),
            (AttributionKind::Compute, 10, 30),
            (AttributionKind::Store, 40, 80),
            (AttributionKind::Dram, 45, 60),
            (AttributionKind::Compute, 70, 90),
        ];
        for &(k, s, e) in &spans {
            a.record(k, s, e);
            b.record(k, s, e);
        }
        b.compact(55);
        b.compact(75);
        assert_eq!(a.finish(100), b.finish(100));
    }

    /// One recorded busy interval: `[start, end)` of `kind`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct AttributionSpan {
        kind: AttributionKind,
        start: Cycle,
        end: Cycle,
    }

    /// The plainest correct attribution log, the oracle for the
    /// equivalence property below: it coalesces only with the last
    /// pushed span, copies on every compaction and sorts
    /// `(cycle, kind, open)` tuples.
    #[derive(Default)]
    struct ReferenceLog {
        spans: Vec<AttributionSpan>,
        folded: CycleAttribution,
        folded_until: Cycle,
    }

    impl ReferenceLog {
        fn record(&mut self, kind: AttributionKind, start: Cycle, end: Cycle) {
            if end <= start {
                return;
            }
            if let Some(last) = self.spans.last_mut() {
                if last.kind == kind && start <= last.end && end > last.start {
                    last.start = last.start.min(start);
                    last.end = last.end.max(end);
                    return;
                }
            }
            self.spans.push(AttributionSpan { kind, start, end });
        }

        fn compact(&mut self, frontier: Cycle) {
            if frontier <= self.folded_until {
                return;
            }
            let mut settled = Vec::new();
            let mut kept = Vec::new();
            for &span in &self.spans {
                if span.end <= frontier {
                    settled.push(span);
                } else if span.start >= frontier {
                    kept.push(span);
                } else {
                    settled.push(AttributionSpan {
                        end: frontier,
                        ..span
                    });
                    kept.push(AttributionSpan {
                        start: frontier,
                        ..span
                    });
                }
            }
            self.spans = kept;
            reference_partition(&settled, self.folded_until, frontier, &mut self.folded);
            self.folded_until = frontier;
        }

        fn finish(&self, total: Cycle) -> CycleAttribution {
            let mut out = self.folded;
            reference_partition(&self.spans, self.folded_until, total, &mut out);
            out.idle = total - out.busy();
            out
        }
    }

    fn reference_partition(
        spans: &[AttributionSpan],
        lo: Cycle,
        hi: Cycle,
        out: &mut CycleAttribution,
    ) {
        if spans.is_empty() || hi <= lo {
            return;
        }
        let mut events: Vec<(Cycle, usize, bool)> = Vec::new();
        for span in spans {
            let start = span.start.max(lo);
            let end = span.end.min(hi);
            if end > start {
                events.push((start, span.kind as usize, true));
                events.push((end, span.kind as usize, false));
            }
        }
        events.sort_unstable();
        let mut active = [0u64; KIND_COUNT];
        let mut prev: Cycle = 0;
        let mut have_prev = false;
        for &(pos, kind, open) in &events {
            if have_prev && pos > prev {
                if let Some(k) = (0..KIND_COUNT).find(|&i| active[i] > 0) {
                    *bucket_mut(out, KINDS[k]) += pos - prev;
                }
            }
            if open {
                active[kind] += 1;
            } else {
                active[kind] -= 1;
            }
            prev = pos;
            have_prev = true;
        }
    }

    /// One generated step: `(op, a, b)`. Ops below `KIND_COUNT` record a
    /// span of that kind, the next two record a *descent* (a span of kind
    /// `a % KIND_COUNT` starting before that kind's last recorded start),
    /// and the last two compact at a frontier `a` cycles further on.
    type Op = (usize, u64, u64);

    fn ops() -> impl proptest::prelude::Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0..KIND_COUNT + 4, 0u64..24, 0u64..120), 0..200)
    }

    /// Drives the log and the reference through `ops` and compares their
    /// `finish`. Spans start anywhere in the 120 cycles past the frontier
    /// (out of order, but never before it), and descents make spans of
    /// one kind close out of start order between compactions, so the
    /// log's sorted insert runs off its tail.
    fn check_against_reference(ops: &[Op], tail: u64) {
        let mut log = AttributionLog::new();
        let mut reference = ReferenceLog::default();
        let mut frontier = 0u64;
        let mut max_end = 0u64;
        let mut last_start = [0u64; KIND_COUNT];
        for &(op, a, b) in ops {
            let span = match op {
                k if k < KIND_COUNT => Some((k, frontier + b, frontier + b + a)),
                k if k < KIND_COUNT + 2 => {
                    let k = a as usize % KIND_COUNT;
                    let room = last_start[k].saturating_sub(frontier);
                    (room > 0).then(|| {
                        let start = frontier + b % room;
                        (k, start, start + 1 + a % (last_start[k] - start))
                    })
                }
                _ => {
                    frontier += a;
                    log.compact(frontier);
                    reference.compact(frontier);
                    None
                }
            };
            if let Some((k, start, end)) = span {
                log.record(KINDS[k], start, end);
                reference.record(KINDS[k], start, end);
                last_start[k] = start;
                max_end = max_end.max(end);
            }
        }
        let total = max_end.max(frontier) + tail;
        assert_eq!(log.finish(total), reference.finish(total));
    }

    proptest::proptest! {
        /// The per-kind sorted-merge log gives the same `finish` as the
        /// reference log, over out-of-order multi-kind spans interleaved
        /// with compactions that respect the frontier contract (no span
        /// starts before the last frontier).
        #[test]
        fn log_matches_the_reference_partition(ops in ops(), tail in 0u64..5) {
            check_against_reference(&ops, tail);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The same property over many more cases; run in release with
        /// `--include-ignored`.
        #[test]
        #[ignore = "slow: run with --release -- --include-ignored"]
        fn log_matches_the_reference_partition_many(ops in ops(), tail in 0u64..5) {
            check_against_reference(&ops, tail);
        }
    }

    #[test]
    fn out_of_order_closes_match_the_reference() {
        // Each TLB stall starts before the previous one, so every close
        // but the first lands ahead of the list's tail.
        let spans = [(50, 60), (30, 40), (10, 20), (70, 75), (0, 5), (42, 48)];
        let mut log = AttributionLog::new();
        let mut reference = ReferenceLog::default();
        for (start, end) in spans {
            log.record(AttributionKind::TlbStall, start, end);
            reference.record(AttributionKind::TlbStall, start, end);
            log.record(AttributionKind::Load, start, end + 3);
            reference.record(AttributionKind::Load, start, end + 3);
        }
        assert_eq!(log.pending_spans(), 12);
        let mut compacted = log.clone();
        compacted.compact(35);
        assert_eq!(compacted.finish(80), log.finish(80));
        assert_eq!(log.finish(80), reference.finish(80));
        assert_eq!(log.finish(80).tlb_stall, 10 + 10 + 10 + 5 + 5 + 6);
    }

    #[test]
    #[should_panic(expected = "extends past")]
    fn finish_rejects_intervals_past_total() {
        let mut log = AttributionLog::new();
        log.record(AttributionKind::Compute, 0, 50);
        let _ = log.finish(10);
    }
}
