//! Schema-2 validation of the committed `BENCH_fleet.json`: every entry
//! the perf-trajectory bins append must stay machine-readable, and the
//! single-core speedup regression (a meaningless sub-1.0 ratio recorded
//! when serial and "parallel" runs time-slice one core) must never come
//! back. Parsed with the vendored `serde::json` reader — the same code
//! path the bins use to migrate the file.

use lat_bench::benchfile::SPEEDUP_NOTE;
use serde::json::{self, Value};

fn load() -> std::collections::BTreeMap<String, Value> {
    let text = std::fs::read_to_string("BENCH_fleet.json").expect("BENCH_fleet.json is committed");
    match json::parse(&text).expect("BENCH_fleet.json parses") {
        Value::Obj(map) => map,
        other => panic!("top level must be an object, got {other:?}"),
    }
}

fn str_field<'a>(e: &'a std::collections::BTreeMap<String, Value>, k: &str) -> &'a str {
    match e.get(k) {
        Some(Value::Str(s)) => s,
        other => panic!("field {k} must be a string, got {other:?}"),
    }
}

/// Positive finite number (the bins write counts as UInt and wall-clock
/// rates as Float; both shapes are legal schema-2 numbers).
fn positive_number(e: &std::collections::BTreeMap<String, Value>, k: &str) -> f64 {
    match e.get(k) {
        Some(Value::Float(f)) if f.is_finite() && *f > 0.0 => *f,
        Some(Value::UInt(u)) if *u > 0 => *u as f64,
        other => panic!("field {k} must be a positive number, got {other:?}"),
    }
}

#[test]
fn bench_fleet_json_is_valid_schema_2() {
    let top = load();
    assert_eq!(top.get("schema"), Some(&Value::UInt(2)), "schema version");
    assert!(
        matches!(top.get("bench"), Some(Value::Str(_))),
        "top-level bench name"
    );
    let Some(Value::Arr(entries)) = top.get("entries") else {
        panic!("entries must be an array");
    };
    assert!(!entries.is_empty(), "trajectory must not be empty");

    let mut newest_streaming_1m = None;
    for (i, entry) in entries.iter().enumerate() {
        let Value::Obj(e) = entry else {
            panic!("entry {i} must be an object");
        };
        let bench = str_field(e, "bench");
        let scenario = str_field(e, "scenario");
        assert!(!scenario.is_empty(), "entry {i} ({bench}): empty scenario");
        let seed = str_field(e, "seed");
        let hex = seed
            .strip_prefix("0x")
            .unwrap_or_else(|| panic!("entry {i} ({bench}): seed {seed:?} is not 0x-hex"));
        u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("entry {i} ({bench}): seed {seed:?} is not a u64"));

        // Every wall-clock / rate field present must be a positive number.
        for k in [
            "wall_s",
            "wall_s_exact",
            "wall_s_serial",
            "wall_s_parallel",
            "events_per_s",
            "requests",
            "batches",
            "cells",
            "workers",
        ] {
            if e.contains_key(k) {
                positive_number(e, k);
            }
        }

        match bench {
            "parallel-sweep" => {
                let host = positive_number(e, "host_parallelism");
                if host <= 1.0 {
                    // The regression this suite pins: a single-core host
                    // must record the annotation, never a speedup ratio.
                    assert!(
                        !e.contains_key("speedup"),
                        "entry {i}: single-core host recorded a speedup"
                    );
                    assert_eq!(
                        e.get("speedup_note"),
                        Some(&Value::Str(SPEEDUP_NOTE.into())),
                        "entry {i}: single-core sweep missing the annotation"
                    );
                } else {
                    positive_number(e, "speedup");
                }
            }
            "fleet-streaming-1m" => {
                newest_streaming_1m = Some((i, e));
                let stream = positive_number(e, "peak_tracked_bytes");
                let exact = positive_number(e, "peak_tracked_bytes_exact");
                assert!(
                    stream < exact,
                    "entry {i}: streaming proxy {stream} B not below exact {exact} B"
                );
                assert!(
                    positive_number(e, "requests") >= 1_000_000.0,
                    "entry {i}: the 1M smoke ran fewer than a million requests"
                );
                // Older entries predate the trace-generation split.
                if e.contains_key("trace_s") || e.contains_key("end_to_end_s") {
                    let trace = positive_number(e, "trace_s");
                    let end_to_end = positive_number(e, "end_to_end_s");
                    assert!(
                        end_to_end >= trace,
                        "entry {i}: end-to-end {end_to_end} s is below trace generation {trace} s"
                    );
                }
            }
            _ => {}
        }
    }
    let Some((i, e)) = newest_streaming_1m else {
        panic!("BENCH_fleet.json must record the million-request streaming smoke");
    };
    // Trace arrivals are read lazily, so the event heap holds only
    // in-flight events. Older entries predate this and recorded a heap
    // pre-seeded with every arrival.
    let (peak, requests) = (
        positive_number(e, "peak_heap_events"),
        positive_number(e, "requests"),
    );
    assert!(
        peak <= requests / 1000.0,
        "entry {i}: event heap peaked at {peak} events for {requests} requests"
    );
}
