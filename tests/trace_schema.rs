//! Schema-sanity test for the Chrome `trace_event` exporter: the file a
//! `--trace` run writes must be loadable by `chrome://tracing` /
//! Perfetto — a JSON *array* of event objects, each carrying
//! `ph`/`ts`/`pid`/`tid`, with `dur` on complete events and a scope on
//! instants. Runs the same export path the binaries use.

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_dnn::zoo;
use gemmini_mem::json::Json;
use gemmini_soc::run::{run_networks_observed, RunOptions};
use gemmini_soc::soc::SocConfig;

#[test]
fn exported_trace_is_valid_chrome_trace_event_json() {
    let (tracer, sink) = Tracer::buffered();
    let report = run_networks_observed(
        &SocConfig::edge_single_core(),
        &[zoo::tiny_cnn()],
        &RunOptions::timing(),
        &tracer,
        &Metrics::disabled(),
    )
    .unwrap();
    let events = sink.lock().unwrap().take();
    assert!(!events.is_empty(), "a traced run must emit events");

    let path =
        std::env::temp_dir().join(format!("gemmini_trace_schema_{}.json", std::process::id()));
    export_chrome_trace(&path, &events).expect("trace export succeeds");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();

    let doc = Json::parse(text.trim()).expect("trace file is valid JSON");
    let arr = doc.as_arr().expect("chrome trace array form");
    assert_eq!(arr.len(), events.len(), "one JSON event per trace event");
    let finish = report.cores[0].total_cycles;
    for ev in arr {
        let ph = ev.field("ph").unwrap().as_str().unwrap();
        assert!(ph == "X" || ph == "i", "unexpected phase '{ph}'");
        let ts = ev.field("ts").unwrap().as_u64().unwrap();
        ev.field("pid").unwrap().as_u64().unwrap();
        ev.field("tid").unwrap().as_u64().unwrap();
        assert!(!ev.field("name").unwrap().as_str().unwrap().is_empty());
        ev.field("cat").unwrap().as_str().unwrap();
        if ph == "X" {
            let dur = ev.field("dur").unwrap().as_u64().unwrap();
            assert!(dur > 0, "complete events are non-empty");
            assert!(
                ts + dur <= finish,
                "span [{ts}, {}) extends past the {finish}-cycle run",
                ts + dur
            );
        } else {
            assert_eq!(ev.field("s").unwrap().as_str().unwrap(), "t");
        }
        // When a stall cause is attached it rides in args.cause.
        if let Ok(args) = ev.field("args") {
            assert!(!args.field("cause").unwrap().as_str().unwrap().is_empty());
        }
    }
}
