//! The benchmark's own checks: metric names against `BENCHMARK.json`, the
//! estimators and digest helpers, and the traced replica of the run loop
//! against `gemmini_soc::run` on small networks.

use gemmini_benchmark::measure::{trace_metrics, PointOutcome, RoundReport, TraceReport};
use gemmini_benchmark::micro::BENCHES;
use gemmini_benchmark::report::{
    compare, results_json, Catalogue, Expected, Verdict, WorkloadRun, BENCHMARK_JSON,
};
use gemmini_benchmark::stats::{
    best_of_wall, digest_hex, leave_one_out_spread, median, report_digest, RoundWalls,
};
use gemmini_benchmark::trace::{drive_point, PointTrace, Recorder, Span, STEP_GROUPS};
use gemmini_benchmark::workload::{Workload, DEFAULT_SEED};
use gemmini_dnn::zoo;
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_soc::checkpoint::fnv1a;
use gemmini_soc::{run_networks, DesignPoint, RunOptions, SocConfig, SocReport};
use std::process::Command;

fn tiny_point(config: SocConfig, functional: bool) -> DesignPoint {
    let nets = vec![zoo::tiny_cnn(); config.cores.len()];
    let options = RunOptions {
        functional,
        seed: DEFAULT_SEED,
    };
    DesignPoint::new("tiny", config, nets, options)
}

fn traced(point: &DesignPoint) -> (Vec<Span>, PointTrace) {
    let mut rec = Recorder::new();
    let root = rec.open("workload", None, None, None);
    let trace = drive_point(point, 0, &mut rec, root).expect("tiny_cnn runs");
    rec.close(root);
    (rec.spans().to_vec(), trace)
}

fn untraced(point: &DesignPoint) -> SocReport {
    run_networks(&point.config, &point.networks, &point.options).expect("tiny_cnn runs")
}

/// The metric-name rule of the benchmark definition: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .1
}

#[test]
fn traced_cycles_equal_untraced_cycles_on_tiny_cnn() {
    for config in [SocConfig::edge_single_core(), SocConfig::edge_dual_core()] {
        for functional in [false, true] {
            let point = tiny_point(config.clone(), functional);
            let report = untraced(&point);
            let (_, trace) = traced(&point);
            assert!(trace.matches(&report), "functional={functional}: {trace:?}");
            let cycles: u64 = report.cores.iter().map(|c| c.total_cycles).sum();
            let macs: u64 = report.cores.iter().map(|c| c.macs).sum();
            assert_eq!(trace.counts.sim_cycles, cycles);
            assert_eq!(trace.counts.macs, macs);
            assert_eq!(trace.counts.l2_accesses, report.l2.accesses);
            assert_eq!(trace.counts.dram_bytes, report.dram_bytes);
        }
    }
}

#[test]
fn step_group_self_times_sum_to_the_traced_step_total() {
    let (spans, trace) = traced(&tiny_point(SocConfig::edge_single_core(), false));
    let steps: Vec<&Span> = spans.iter().filter(|s| s.name == "soc.step").collect();
    assert_eq!(steps.len() as u64, trace.counts.steps);
    let metrics = trace_metrics(&spans, &trace.counts, 0.0, &[]);
    let groups: f64 = STEP_GROUPS.iter().map(|g| value(&metrics, g)).sum();
    let total = steps.iter().map(|s| s.duration()).sum::<u64>() as f64 / 1e9;
    assert!(
        (groups - total).abs() <= 1e-9 * total,
        "groups {groups} vs steps {total}"
    );
    // tiny_cnn has conv, matmul, resadd and pool layers: no group is empty.
    assert!(STEP_GROUPS.iter().all(|g| value(&metrics, g) > 0.0));
}

/// A run with two synthetic rounds and a traced pass over tiny_cnn.
fn synthetic_run() -> WorkloadRun {
    let point = tiny_point(SocConfig::edge_single_core(), false);
    let report = untraced(&point);
    let (spans, trace) = traced(&point);
    let outcome = PointOutcome {
        label: "tiny".into(),
        error: None,
        digest: report_digest(&report),
        core_cycles: vec![report.cores[0].total_cycles],
        reference_ok: None,
    };
    let round = |wall: f64| RoundReport {
        setup_s: vec![0.001, 0.002, 0.003],
        walls: RoundWalls {
            points: vec![wall],
            round: wall + 0.001,
        },
        peak_rss_kib: 4096,
        calib_s: vec![0.018, 0.0175],
        points: vec![outcome.clone()],
    };
    let micro: Vec<(&str, f64)> = BENCHES.iter().map(|&(name, _)| (name, 1.0)).collect();
    WorkloadRun {
        workload: Workload::Bert,
        rounds: vec![round(0.01), round(0.012)],
        trace: Some(TraceReport {
            metrics: trace_metrics(&spans, &trace.counts, 0.001, &micro),
            traced_wall_s: 0.011,
            points: vec![outcome],
            mismatches: Vec::new(),
        }),
    }
}

#[test]
fn every_emitted_metric_is_valid_and_declared_in_benchmark_json() {
    let catalogue = Catalogue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let run = synthetic_run();
    let end_to_end: Vec<&str> = run.end_to_end().iter().map(|m| m.0).collect();
    let declared: Vec<&str> = catalogue
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(end_to_end, declared);
    let per_layer: Vec<String> = run.per_layer().into_iter().map(|m| m.0).collect();
    let declared: Vec<&str> = catalogue
        .per_layer
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(per_layer, declared);
    for m in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
        assert!(valid_metric_name(&m.name), "{}", m.name);
        assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
    }
    for m in &catalogue.end_to_end {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
    }
    let doc = Json::parse(BENCHMARK_JSON).unwrap();
    let names: Vec<&str> = doc
        .field("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.field("name").unwrap().as_str().unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(ours
        .iter()
        .all(|n| Workload::parse(n).is_some_and(|w| w.name() == *n)));
}

#[test]
fn metric_name_rule_rejects_bad_names() {
    assert!(valid_metric_name("soc.step.gemm_s"));
    assert!(valid_metric_name("wall-s_2"));
    for bad in ["", ".x", "a b", "a/b", "ns%", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn best_of_wall_takes_each_points_fastest_round() {
    let rounds = [
        RoundWalls {
            points: vec![1.0, 3.0],
            round: 4.5,
        },
        RoundWalls {
            points: vec![2.0, 2.0],
            round: 4.25,
        },
    ];
    assert_eq!(rounds[0].overhead(), 0.5);
    assert_eq!(best_of_wall(&rounds), 1.0 + 2.0 + 0.25);
    assert_eq!(best_of_wall(&rounds[..1]), 4.5);
}

#[test]
fn leave_one_out_spread_measures_reliance_on_one_round() {
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    assert_eq!(leave_one_out_spread(&[1.0, 1.0, 1.0, 2.0], min), 0.0);
    assert_eq!(leave_one_out_spread(&[1.0, 1.0, 1.0, 2.0], max), 0.5);
    assert_eq!(leave_one_out_spread(&[1.0], min), f64::INFINITY);
}

#[test]
fn report_digest_is_fnv1a_of_the_canonical_json() {
    let report = untraced(&tiny_point(SocConfig::edge_single_core(), true));
    let digest = report_digest(&report);
    assert_eq!(digest, fnv1a(report.to_json().encode().as_bytes()));
    let again = SocReport::from_json(&Json::parse(&report.to_json().encode()).unwrap()).unwrap();
    assert_eq!(report_digest(&again), digest);
    let mut changed = report.clone();
    changed.cores[0].total_cycles += 1;
    assert_ne!(report_digest(&changed), digest);
    assert_eq!(digest_hex(digest).len(), 16);
    assert_eq!(u64::from_str_radix(&digest_hex(digest), 16), Ok(digest));
}

#[test]
fn digests_are_checked_against_pins_and_blessing_needs_agreeing_rounds() {
    let mut run = synthetic_run();
    let mut expected = Expected::default();
    let check = run.check(DEFAULT_SEED, &expected);
    assert_eq!(
        (check.attempted, check.failed),
        (3, 3),
        "nothing pinned yet"
    );

    expected
        .bless(run.workload, &run.rounds)
        .expect("rounds agree");
    let reparsed = Expected::parse(&expected.to_json().encode()).unwrap();
    assert_eq!(reparsed, expected);
    let check = run.check(DEFAULT_SEED, &expected);
    assert_eq!(
        (check.attempted, check.failed),
        (3, 0),
        "{:?}",
        check.problems
    );
    // Timing reports ignore the seed, so their pins hold at any seed.
    assert_eq!(run.check(7, &expected).failed, 0);

    run.rounds[1].points[0].digest ^= 1;
    assert_eq!(run.check(DEFAULT_SEED, &expected).failed, 1);
    assert!(expected.bless(run.workload, &run.rounds).is_err());

    run.trace
        .as_mut()
        .unwrap()
        .mismatches
        .push("tiny: traced cycles differ".into());
    assert_eq!(run.check(DEFAULT_SEED, &expected).failed, 2);
}

#[test]
fn functional_points_at_other_seeds_need_a_reference_check() {
    let mut run = synthetic_run();
    run.workload = Workload::Functional;
    let mut expected = Expected::default();
    for round in &mut run.rounds {
        round.points[0].reference_ok = Some(true);
    }
    expected
        .bless(run.workload, &run.rounds)
        .expect("outputs checked");
    run.trace = None;
    for round in &mut run.rounds {
        round.points[0].digest ^= 0xff;
    }
    // Another seed gives other bytes, checked against reference_forward.
    assert_eq!(run.check(7, &expected).failed, 0);
    assert_eq!(run.check(DEFAULT_SEED, &expected).failed, 2);
    run.rounds[0].points[0].reference_ok = None;
    assert_eq!(run.check(7, &expected).failed, 2);
    run.rounds[0].points[0].reference_ok = Some(true);
    run.rounds[0].points[0].core_cycles[0] += 1;
    assert_eq!(run.check(7, &expected).failed, 2, "cycles ignore the seed");
}

#[test]
fn verdicts_follow_the_bound_and_the_direction() {
    let v = |base, new, lower, spreads| Verdict::of(base, new, lower, 0.1, spreads);
    assert_eq!(v(1.0, 1.05, true, (0.0, 0.0)), Verdict::Same);
    assert_eq!(v(1.0, 1.2, true, (0.0, 0.0)), Verdict::Worse);
    assert_eq!(v(1.0, 0.8, true, (0.0, 0.0)), Verdict::Better);
    assert_eq!(v(1.0, 0.8, false, (0.0, 0.0)), Verdict::Worse);
    assert_eq!(v(1.0, 1.2, false, (0.0, 0.0)), Verdict::Better);
    assert_eq!(v(1.0, 1.0, true, (0.2, 0.0)), Verdict::Unresolved);
    assert_eq!(v(1.0, 1.0, true, (0.0, f64::INFINITY)), Verdict::Unresolved);
}

#[test]
fn compare_reports_every_end_to_end_metric_per_workload() {
    let catalogue = Catalogue::embedded();
    let run = synthetic_run();
    let mut expected = Expected::default();
    expected.bless(run.workload, &run.rounds).unwrap();
    let check = run.check(DEFAULT_SEED, &expected);
    let doc = results_json(Json::Null, DEFAULT_SEED, &[(run, check)], &catalogue);
    let doc = Json::parse(&doc.encode()).unwrap();
    let table = compare(&doc, &doc, &catalogue).unwrap();
    for m in &catalogue.end_to_end {
        let line = table
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(m.name.as_str()))
            .unwrap_or_else(|| panic!("{} missing from\n{table}", m.name));
        assert!(line.starts_with("bert"), "{line}");
    }
    assert!(table.lines().any(|l| l.contains("error_rate")));
}

#[test]
fn malformed_arguments_exit_with_a_usage_error() {
    let exe = env!("CARGO_BIN_EXE_gemmini-benchmark");
    for args in [
        &["--qick"][..],
        &["--workload", "resnet"],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--seed"],
        &["--bless", "--seed", "7"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
