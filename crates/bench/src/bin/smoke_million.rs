//! Million-request streaming smoke: the bounded-memory serving claim,
//! measured.
//!
//! Runs a 1M-request Poisson trace through the fleet engine twice — once
//! under `ReportMode::Streaming` (a log-linear histogram, no per-request
//! retention) and once under `ReportMode::Exact` (the full latency
//! vector) — and asserts the PR's contract on the pair:
//!
//! 1. **Bounded memory**: the streaming run retains zero per-request
//!    latency samples and zero batch records; its tracked-allocation
//!    proxy must come in far below the exact run's. The event heap holds
//!    only in-flight events, so its peak stays below a thousandth of the
//!    request count.
//! 2. **Bit-identical counters**: completed, makespan, throughput and
//!    mean batch size match the exact run exactly.
//! 3. **2⁻⁷-pinned percentiles**: sketch p50/p95/p99 within
//!    [`QUANTILE_EPS`] = 2⁻⁷ (relative) of the exact ranks, the
//!    histogram's guarantee for latencies from 1e-12 s to 1e9 s.
//!
//! Wall time, event rate and the allocation-counter peak-RSS proxy are
//! appended to `BENCH_fleet.json` (schema 2), along with the streaming
//! run's trace-generation time and its end-to-end time (trace generation
//! plus simulation). The request count is
//! `SMOKE_REQUESTS` unless the `SMOKE_MILLION_REQUESTS` env var
//! overrides it (useful for a quick local pass); the recorded entry
//! carries whichever count ran.

use lat_bench::benchfile;
use lat_bench::scenarios::harness_seed;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::sketch::ReportMode;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet_instrumented, BatcherConfig, DispatchPolicy,
    FleetReport, FleetRunStats,
};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;
use serde::json::Value;

/// Default trace length — the million-request target.
const SMOKE_REQUESTS: usize = 1_000_000;
/// Arrival rate: high enough that the simulated span stays ~20 s and
/// batches actually fill.
const SMOKE_RATE_SEQ_S: f64 = 50_000.0;
/// Fleet width for the smoke.
const SMOKE_SHARDS: usize = 4;
/// Relative tolerance pinned on each sketch percentile vs the exact rank:
/// the sketch's guaranteed 2⁻⁷.
const QUANTILE_EPS: f64 = 0.0078125;

fn requests() -> usize {
    match std::env::var("SMOKE_MILLION_REQUESTS") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("SMOKE_MILLION_REQUESTS {s:?} is not a usize")),
        Err(_) => SMOKE_REQUESTS,
    }
}

/// One mode's run: the report, the engine stats, and the wall seconds of
/// trace generation and of simulation.
fn run(mode: ReportMode, trace_len: usize) -> (FleetReport, FleetRunStats, f64, f64) {
    let design = AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    );
    let fleet = homogeneous_fleet(&design, SMOKE_SHARDS);
    let t0 = std::time::Instant::now();
    let trace = poisson_trace(
        &DatasetSpec::rte(),
        SMOKE_RATE_SEQ_S,
        trace_len,
        harness_seed(),
    );
    let trace_s = t0.elapsed().as_secs_f64();
    let cfg = BatcherConfig::default();
    let t0 = std::time::Instant::now();
    let (report, stats) = simulate_fleet_instrumented(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &cfg,
        mode,
    );
    (report, stats, trace_s, t0.elapsed().as_secs_f64())
}

fn main() {
    let n = requests();
    let seed = harness_seed();
    println!(
        "Million-request streaming smoke ({n} requests @ {SMOKE_RATE_SEQ_S:.0} seq/s, \
         {SMOKE_SHARDS} shards, seed {seed:#x})\n"
    );

    let (stream, stream_stats, trace_s, stream_wall_s) = run(ReportMode::Streaming, n);
    let (exact, exact_stats, _, exact_wall_s) = run(ReportMode::Exact, n);
    let end_to_end_s = trace_s + stream_wall_s;

    // 1. Bounded memory: nothing per-request survives the streaming run.
    assert_eq!(
        stream_stats.retained_latency_samples, 0,
        "streaming run retained per-request latencies"
    );
    assert_eq!(
        stream_stats.retained_batch_records, 0,
        "streaming run retained batch records"
    );
    let (stream_bytes, exact_bytes) = (
        stream_stats.peak_tracked_bytes(),
        exact_stats.peak_tracked_bytes(),
    );
    // Trace arrivals are read from the trace as the run reaches them, so
    // the event heap holds only in-flight events in both modes: its peak
    // follows the work in flight, not n. Quick passes below a million
    // requests are held to the million-request bound.
    assert!(
        stream_stats.peak_heap_events * 1000 <= n.max(SMOKE_REQUESTS),
        "event heap peaked at {} events for {n} requests",
        stream_stats.peak_heap_events
    );
    // What streaming eliminates is everything *retained past the run* —
    // the per-request latency vector and the batch log. That retention is
    // the entire proxy gap.
    assert!(
        stream_bytes < exact_bytes,
        "streaming proxy {stream_bytes} B is not below exact {exact_bytes} B"
    );
    let retention_avoided = exact_bytes - stream_bytes;
    assert!(
        retention_avoided as usize >= 8 * n,
        "retention cut {retention_avoided} B is smaller than the latency vector alone"
    );

    // 2. Counters are bit-identical: streaming changes representation,
    // never events.
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.makespan_s.to_bits(), exact.makespan_s.to_bits());
    assert_eq!(
        stream.throughput_seq_s.to_bits(),
        exact.throughput_seq_s.to_bits()
    );
    assert_eq!(
        stream.mean_batch_size.to_bits(),
        exact.mean_batch_size.to_bits()
    );
    assert_eq!(stream_stats.events_processed, exact_stats.events_processed);

    // 3. 2⁻⁷-pinned percentiles.
    for (tag, s, e) in [
        ("p50", stream.p50_latency_s, exact.p50_latency_s),
        ("p95", stream.p95_latency_s, exact.p95_latency_s),
        ("p99", stream.p99_latency_s, exact.p99_latency_s),
    ] {
        let tol = e.abs().max(1e-9) * QUANTILE_EPS + 1e-9;
        assert!(
            (s - e).abs() <= tol,
            "{tag}: sketch {s} vs exact {e} exceeds ε {QUANTILE_EPS}"
        );
        println!("{tag}: sketch {:.6} s vs exact {:.6} s ✓", s, e);
    }

    let events = stream_stats.events_processed;
    let events_per_s = events as f64 / stream_wall_s.max(1e-9);
    println!(
        "\ntrace:     {n} requests generated in {trace_s:.3} s \
         (end to end {end_to_end_s:.3} s)\n\
         streaming: {events} events in {stream_wall_s:.3} s ({events_per_s:.0} ev/s), \
         peak tracked {stream_bytes} B (heap {} events)\n\
         exact:     {:.3} s, peak tracked {exact_bytes} B \
         ({retention_avoided} B of report retention avoided)\n",
        stream_stats.peak_heap_events, exact_wall_s,
    );

    // Perf trajectory: append the streaming record (wall-clock fields are
    // the deliberate nondeterminism of BENCH files).
    let mut entries = benchfile::read_entries(benchfile::FLEET_PATH);
    entries.push(Value::obj([
        ("bench".into(), Value::Str("fleet-streaming-1m".into())),
        (
            "scenario".into(),
            Value::Str(format!(
                "{n} requests @ {SMOKE_RATE_SEQ_S:.0} seq/s, {SMOKE_SHARDS} shards, streaming sketches"
            )),
        ),
        ("requests".into(), Value::UInt(n as u64)),
        ("wall_s".into(), Value::Float(stream_wall_s)),
        ("wall_s_exact".into(), Value::Float(exact_wall_s)),
        ("trace_s".into(), Value::Float(trace_s)),
        ("end_to_end_s".into(), Value::Float(end_to_end_s)),
        ("events_per_s".into(), Value::Float(events_per_s.round())),
        ("peak_tracked_bytes".into(), Value::UInt(stream_bytes)),
        ("peak_tracked_bytes_exact".into(), Value::UInt(exact_bytes)),
        (
            "peak_heap_events".into(),
            Value::UInt(stream_stats.peak_heap_events as u64),
        ),
        ("seed".into(), Value::Str(format!("{seed:#x}"))),
    ]));
    match benchfile::write(benchfile::FLEET_PATH, "fleet", entries) {
        Ok(()) => println!("wrote BENCH_fleet.json"),
        Err(e) => println!("BENCH_fleet.json not written: {e}"),
    }
}
