//! Property-based tests for the memory substrate's invariants.

use gemmini_mem::addr::{line_count, lines_in_range, pages_in_range, PhysAddr, VirtAddr};
use gemmini_mem::bus::BusConfig;
use gemmini_mem::cache::{AccessKind, Cache, CacheConfig};
use gemmini_mem::dram::{DramConfig, DramModel, MainMemory};
use gemmini_mem::hierarchy::{MemorySystem, MemorySystemConfig};
use gemmini_mem::json::{FromJson, ToJson};
use gemmini_mem::stats::{CycleAttribution, HitMissStats, TrafficStats, WindowedRate};
use gemmini_mem::trace::{AttributionKind, AttributionLog};
use gemmini_mem::Cycle;
use proptest::prelude::*;

/// Every attribution kind, in priority order (highest first) — mirrors
/// the declaration order the sweep-line partition charges by.
const ATTR_KINDS: [AttributionKind; 5] = [
    AttributionKind::Compute,
    AttributionKind::TlbStall,
    AttributionKind::Dram,
    AttributionKind::Load,
    AttributionKind::Store,
];

/// The bucket counter a kind feeds, on a mutable attribution record.
fn attr_bucket(attr: &mut CycleAttribution, kind: AttributionKind) -> &mut u64 {
    match kind {
        AttributionKind::Compute => &mut attr.compute,
        AttributionKind::TlbStall => &mut attr.tlb_stall,
        AttributionKind::Dram => &mut attr.dram,
        AttributionKind::Load => &mut attr.load,
        AttributionKind::Store => &mut attr.store,
    }
}

/// Builds a windowed series by replaying `events` (cycle, hit) into a
/// fresh collector with the given window width.
fn windowed(window: u64, events: &[(u64, bool)]) -> WindowedRate {
    let mut w = WindowedRate::new(window);
    for &(cycle, hit) in events {
        w.record(cycle, hit);
    }
    w
}

/// Replays `(read, bytes)` transfers into fresh traffic counters.
fn traffic(events: &[(bool, u64)]) -> TrafficStats {
    let mut t = TrafficStats::new();
    for &(read, bytes) in events {
        if read {
            t.record_read(bytes);
        } else {
            t.record_write(bytes);
        }
    }
    t
}

proptest! {
    /// The line iterator and the count agree, and every yielded line is
    /// aligned and inside the range's span.
    #[test]
    fn line_iteration_invariants(start in 0u64..1_000_000, len in 0u64..10_000) {
        let lines: Vec<PhysAddr> = lines_in_range(PhysAddr::new(start), len).collect();
        prop_assert_eq!(lines.len() as u64, line_count(start, len));
        for (i, l) in lines.iter().enumerate() {
            prop_assert_eq!(l.raw() % 64, 0);
            if i > 0 {
                prop_assert_eq!(l.raw() - lines[i - 1].raw(), 64);
            }
        }
        if len > 0 {
            prop_assert!(lines.first().unwrap().raw() <= start);
            prop_assert!(lines.last().unwrap().raw() < start + len);
        }
    }

    /// Page iteration covers exactly the bytes of the range.
    #[test]
    fn page_iteration_covers_range(start in 0u64..1_000_000, len in 1u64..100_000) {
        let pages: Vec<u64> = pages_in_range(VirtAddr::new(start), len)
            .map(|p| p.page_number())
            .collect();
        prop_assert_eq!(*pages.first().unwrap(), start >> 12);
        prop_assert_eq!(*pages.last().unwrap(), (start + len - 1) >> 12);
        for w in pages.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }

    /// Cache valid-line count never exceeds capacity, and hits + misses
    /// equals accesses.
    #[test]
    fn cache_occupancy_and_conservation(
        lines in proptest::collection::vec(0u64..512, 1..300),
        ways in prop::sample::select(vec![1u32, 2, 4, 8]),
    ) {
        let capacity_lines = 64usize; // 4 KiB / 64 B
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways,
            hit_latency: 1,
        });
        for l in &lines {
            cache.access(PhysAddr::new(l * 64), AccessKind::Read);
            prop_assert!(cache.valid_lines() <= capacity_lines);
        }
        prop_assert_eq!(
            cache.stats().hits() + cache.stats().misses(),
            lines.len() as u64
        );
    }

    /// A probe immediately after an access always finds the line (it was
    /// just filled), regardless of the access mix before it.
    #[test]
    fn accessed_line_is_resident(
        warmup in proptest::collection::vec((0u64..256, any::<bool>()), 0..100),
        line in 0u64..256,
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 4,
            hit_latency: 1,
        });
        for (l, write) in warmup {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            cache.access(PhysAddr::new(l * 64), kind);
        }
        cache.access(PhysAddr::new(line * 64), AccessKind::Read);
        prop_assert!(cache.probe(PhysAddr::new(line * 64)));
    }

    /// DRAM and bus completions are monotone in request order for
    /// same-time requests, and never precede the request time.
    #[test]
    fn dram_completion_monotonicity(sizes in proptest::collection::vec(1u64..4096, 1..50)) {
        let mut dram = DramModel::new(DramConfig::default());
        let mut last = 0;
        for s in sizes {
            let done = dram.transfer(0, s);
            prop_assert!(done >= last);
            prop_assert!(done >= DramConfig::default().latency);
            last = done;
        }
    }

    /// MainMemory read-after-write returns exactly what was written, for
    /// arbitrary (possibly overlapping, cross-page) writes.
    #[test]
    fn main_memory_read_your_writes(
        writes in proptest::collection::vec((0u64..20_000, proptest::collection::vec(any::<u8>(), 1..200)), 1..20),
    ) {
        let mut mem = MainMemory::new();
        let mut model = std::collections::HashMap::<u64, u8>::new();
        for (addr, bytes) in &writes {
            mem.write(PhysAddr::new(*addr), bytes);
            for (i, b) in bytes.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (addr, bytes) in &writes {
            let mut buf = vec![0u8; bytes.len()];
            mem.read(PhysAddr::new(*addr), &mut buf);
            for (i, got) in buf.iter().enumerate() {
                prop_assert_eq!(*got, model[&(addr + i as u64)]);
            }
        }
    }

    /// Through the full hierarchy, a re-read of the same line is never
    /// slower than its cold read took (warm path exists).
    #[test]
    fn hierarchy_warm_reads_are_not_slower(addr in 0u64..(1u64 << 30)) {
        let mut mem = MemorySystem::new(MemorySystemConfig::default());
        let aligned = PhysAddr::new(addr).line_aligned();
        let cold_done = mem.read(0, 0, aligned, 64);
        let warm_done = mem.read(0, cold_done, aligned, 64);
        prop_assert!(warm_done - cold_done <= cold_done);
    }

    /// Scalar hit/miss merging is a commutative monoid: order never
    /// matters, grouping never matters, and the zeroed counters are the
    /// identity. This is what makes parallel sweep rollups well-defined
    /// regardless of completion order.
    #[test]
    fn hit_miss_merge_is_commutative_monoid(
        a in (0u64..1_000_000, 0u64..1_000_000),
        b in (0u64..1_000_000, 0u64..1_000_000),
        c in (0u64..1_000_000, 0u64..1_000_000),
    ) {
        let (sa, sb, sc) = (
            HitMissStats::from_counts(a.0, a.1),
            HitMissStats::from_counts(b.0, b.1),
            HitMissStats::from_counts(c.0, c.1),
        );
        // Commutativity: a+b == b+a.
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
        // Associativity: (a+b)+c == a+(b+c).
        let mut ab_c = ab;
        ab_c.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut a_bc = sa;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        // Identity: a + 0 == a.
        let mut a_zero = sa;
        a_zero.merge(&HitMissStats::new());
        prop_assert_eq!(a_zero, sa);
    }

    /// Traffic counters form the same commutative monoid under merge.
    #[test]
    fn traffic_merge_is_commutative_monoid(
        ea in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 0..20),
        eb in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 0..20),
        ec in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 0..20),
    ) {
        let (ta, tb, tc) = (traffic(&ea), traffic(&eb), traffic(&ec));
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        prop_assert_eq!(ab, ba);
        let mut ab_c = ab;
        ab_c.merge(&tc);
        let mut bc = tb;
        bc.merge(&tc);
        let mut a_bc = ta;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        let mut a_zero = ta;
        a_zero.merge(&TrafficStats::new());
        prop_assert_eq!(a_zero, ta);
    }

    /// Windowed-series merging is commutative, associative, has the
    /// empty series as identity, and — the defining property — equals
    /// what one collector observing the interleaved event stream would
    /// have recorded.
    #[test]
    fn windowed_rate_merge_is_commutative_monoid(
        window in prop::sample::select(vec![64u64, 100, 1000]),
        ea in proptest::collection::vec((0u64..50_000, any::<bool>()), 0..60),
        eb in proptest::collection::vec((0u64..50_000, any::<bool>()), 0..60),
        ec in proptest::collection::vec((0u64..50_000, any::<bool>()), 0..60),
    ) {
        let (wa, wb, wc) = (
            windowed(window, &ea),
            windowed(window, &eb),
            windowed(window, &ec),
        );
        // Commutativity.
        let mut ab = wa.clone();
        ab.merge(&wb);
        let mut ba = wb.clone();
        ba.merge(&wa);
        prop_assert_eq!(&ab, &ba);
        // Associativity.
        let mut ab_c = ab.clone();
        ab_c.merge(&wc);
        let mut bc = wb.clone();
        bc.merge(&wc);
        let mut a_bc = wa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Identity: merging an empty series changes nothing.
        let mut a_zero = wa.clone();
        a_zero.merge(&WindowedRate::new(window));
        prop_assert_eq!(&a_zero, &wa);
        // Merge == single collector over the concatenated event stream.
        let mut all = ea.clone();
        all.extend(&eb);
        all.extend(&ec);
        prop_assert_eq!(&ab_c, &windowed(window, &all));
    }

    /// The sweep-line partition in `AttributionLog::finish` equals a
    /// naive per-cycle classification (charge each cycle to the
    /// highest-priority kind covering it; uncovered cycles are idle),
    /// for arbitrary overlapping span soups — and compacting at an
    /// arbitrary frontier first never changes the answer. Together with
    /// `idle` as the remainder, the buckets always sum to `total`.
    #[test]
    fn attribution_partition_matches_per_cycle_classification(
        raw in proptest::collection::vec((0..ATTR_KINDS.len(), 0u64..200, 0u64..40), 0..40),
        frontier in 0u64..260,
    ) {
        let mut log = AttributionLog::new();
        let mut spans = Vec::new();
        let mut max_end = 0u64;
        for &(k, start, len) in &raw {
            let kind = ATTR_KINDS[k];
            log.record(kind, start, start + len);
            if len > 0 {
                spans.push((kind, start, start + len));
                max_end = max_end.max(start + len);
            }
        }
        let total = max_end + 7; // leave a guaranteed idle tail
        let got = log.finish(total);

        // Oracle: classify every cycle independently.
        let mut want = CycleAttribution::new();
        for c in 0..total {
            match ATTR_KINDS
                .iter()
                .find(|&&k| spans.iter().any(|&(sk, s, e)| sk == k && s <= c && c < e))
            {
                Some(&k) => *attr_bucket(&mut want, k) += 1,
                None => want.idle += 1,
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(got.total(), total);

        // Compaction is invisible in the final report.
        let mut compacted = log.clone();
        compacted.compact(frontier.min(total));
        prop_assert_eq!(compacted.finish(total), got);
    }

    /// `CycleAttribution::merge` is a commutative monoid (the sweep
    /// rollup algebra), and the record survives a JSON text round-trip
    /// bit-for-bit.
    #[test]
    fn cycle_attribution_merge_monoid_and_json_round_trip(
        a in proptest::collection::vec(0u64..1 << 40, 7..8),
        b in proptest::collection::vec(0u64..1 << 40, 7..8),
        c in proptest::collection::vec(0u64..1 << 40, 7..8),
    ) {
        let attr = |v: &[u64]| CycleAttribution {
            compute: v[0],
            load: v[1],
            store: v[2],
            tlb_stall: v[3],
            bank_conflict: v[4],
            dram: v[5],
            idle: v[6],
        };
        let (ra, rb, rc) = (attr(&a), attr(&b), attr(&c));
        let mut ab = ra;
        ab.merge(&rb);
        let mut ba = rb;
        ba.merge(&ra);
        prop_assert_eq!(ab, ba);
        let mut ab_c = ab;
        ab_c.merge(&rc);
        let mut bc = rb;
        bc.merge(&rc);
        let mut a_bc = ra;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        let mut a_zero = ra;
        a_zero.merge(&CycleAttribution::new());
        prop_assert_eq!(a_zero, ra);

        let text = ra.to_json().encode();
        let reparsed = gemmini_mem::json::Json::parse(&text).unwrap();
        prop_assert_eq!(CycleAttribution::from_json(&reparsed).unwrap(), ra);
    }

    /// JSON round-trip: decode(encode(x)) == x for every stats type, for
    /// arbitrary recorded contents, including through a text re-parse.
    #[test]
    fn stats_json_round_trip(
        hits in 0u64..u64::MAX / 2,
        misses in 0u64..u64::MAX / 2,
        tr in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 0..20),
        window in prop::sample::select(vec![64u64, 1000]),
        events in proptest::collection::vec((0u64..50_000, any::<bool>()), 0..60),
    ) {
        let hm = HitMissStats::from_counts(hits, misses);
        prop_assert_eq!(HitMissStats::from_json(&hm.to_json()).unwrap(), hm);

        let t = traffic(&tr);
        prop_assert_eq!(TrafficStats::from_json(&t.to_json()).unwrap(), t);

        let w = windowed(window, &events);
        prop_assert_eq!(&WindowedRate::from_json(&w.to_json()).unwrap(), &w);

        // And through the full text encoding, as the checkpoint file does.
        let text = w.to_json().encode();
        let reparsed = gemmini_mem::json::Json::parse(&text).unwrap();
        prop_assert_eq!(&WindowedRate::from_json(&reparsed).unwrap(), &w);
    }
}

/// One `MemorySystem::access_run` call after some prior single-row
/// traffic.
#[derive(Debug, Clone)]
struct RunCase {
    l2: CacheConfig,
    bus: BusConfig,
    /// `(port, write, addr, bytes, now)` accesses made before the run.
    prior: Vec<(usize, bool, u64, u64, Cycle)>,
    port: usize,
    start: Cycle,
    step: Cycle,
    paddr: u64,
    stride: u64,
    bytes: u64,
    k: u64,
    kind: AccessKind,
}

fn run_case() -> impl Strategy<Value = RunCase> {
    // A few KiB of addresses over small caches, so rows conflict, evict
    // and write back.
    let prior = proptest::collection::vec(
        (0..2usize, any::<bool>(), 0..8192u64, 1..300u64, 0..400u64),
        0..12,
    );
    let bytes = prop_oneof![1..64u64, 1..200u64];
    let stride = prop_oneof![Just(None), Just(Some(0)), (0..200u64).prop_map(Some)];
    (
        (
            prop::sample::select(vec![(4u64 << 10, 2u32), (16 << 10, 4)]),
            prop::sample::select(vec![0u64, 1, 16]),
            any::<bool>(),
        ),
        prior,
        (0..2usize, 0..500u64, 0..20u64),
        (0..8192u64, stride, bytes),
        (1..40u64, any::<bool>()),
    )
        .prop_map(
            |(
                ((size, ways), hit, wide),
                prior,
                (port, start, step),
                (paddr, stride, bytes),
                (k, write),
            )| RunCase {
                l2: CacheConfig {
                    size_bytes: size,
                    ways,
                    hit_latency: hit,
                },
                bus: if wide {
                    BusConfig::default()
                } else {
                    BusConfig {
                        bytes_per_cycle: 4,
                        arbitration_latency: 0,
                    }
                },
                prior,
                port,
                start,
                step,
                paddr,
                stride: stride.unwrap_or(bytes),
                bytes,
                k,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            },
        )
}

/// The union of `[issue + shift, done)` over `spans`, as sorted disjoint
/// intervals.
fn span_union(spans: &[(Cycle, Cycle)], shift: Cycle) -> Vec<(Cycle, Cycle)> {
    let mut sorted: Vec<_> = spans
        .iter()
        .map(|&(issue, done)| ((issue + shift).min(done), done))
        .filter(|&(a, b)| a < b)
        .collect();
    sorted.sort_unstable();
    let mut out: Vec<(Cycle, Cycle)> = Vec::new();
    for (a, b) in sorted {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// A run leaves the memory system exactly as its rows moved one
/// `read`/`write` at a time do, and its callback spans, shifted by the
/// streaming time, cover the same cycles as the rows'.
fn check_run(c: &RunCase) {
    let mut run = MemorySystem::new(MemorySystemConfig {
        l2: c.l2,
        bus: c.bus,
        ..MemorySystemConfig::default()
    });
    for &(port, write, addr, bytes, now) in &c.prior {
        let addr = PhysAddr::new(addr);
        if write {
            run.write(port, now, addr, bytes);
        } else {
            run.read(port, now, addr, bytes);
        }
    }
    let mut rows = run.clone();
    let mut got = Vec::new();
    run.access_run(
        c.port,
        c.start,
        c.step,
        PhysAddr::new(c.paddr),
        c.stride,
        c.bytes,
        c.k,
        c.kind,
        |issue, done| got.push((issue, done)),
    );
    let want: Vec<_> = (0..c.k)
        .map(|j| {
            let (issue, addr) = (c.start + j * c.step, PhysAddr::new(c.paddr + j * c.stride));
            let done = match c.kind {
                AccessKind::Read => rows.read(c.port, issue, addr, c.bytes),
                AccessKind::Write => rows.write(c.port, issue, addr, c.bytes),
            };
            (issue, done)
        })
        .collect();
    assert_eq!(format!("{run:?}"), format!("{rows:?}"), "{c:?}");
    let shift = run.streaming_cycles(c.bytes);
    assert_eq!(span_union(&got, shift), span_union(&want, shift), "{c:?}");
    assert_eq!(
        got.iter().map(|s| s.1).max(),
        want.iter().map(|s| s.1).max(),
        "{c:?}"
    );
}

proptest! {
    /// `access_run`, which books rows inside the previous row's line as
    /// one group, equals `k` single-row accesses.
    #[test]
    fn access_run_matches_rows(c in run_case()) {
        check_run(&c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn access_run_matches_rows_many(c in run_case()) {
        check_run(&c);
    }
}
