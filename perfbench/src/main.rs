//! Host-time benchmark of the serving engines: one workload per process,
//! single-threaded, end-to-end numbers from an untraced run and per-layer
//! numbers from a traced one. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_incident [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod tracer;
mod workloads;

use lat_bench::scenarios::HARNESS_SEED;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;
use workloads::{Layers, Run, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]";
/// Fewest timed executions a run takes, however long each one is.
const MIN_RUNS: usize = 3;
/// `run_batch` calls replayed by the traced run.
const REPLAY_CALLS: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = HARNESS_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = parse_seed(&value).ok_or(format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Executions attempted and failed, the fingerprint they must share, and
/// the process's peak RSS once the first of them returned.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fingerprint: Option<u64>,
    first_peak_rss_mb: Option<f64>,
}

/// Executes the workload (`sims` simulations per set-up) as often as fits
/// in `budget_s`, and at least [`MIN_RUNS`] times, each execution under a
/// `run` span. A panic or a failed check counts as a failed execution;
/// panicked ones leave no run.
fn repeat(
    w: Workload,
    n: usize,
    sims: usize,
    seed: u64,
    budget_s: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<(Option<usize>, Run)> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut last_s = 0.0;
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() + last_s <= budget_s {
        let t = Instant::now();
        let id = tr.begin("bench", "run");
        let result = catch_unwind(AssertUnwindSafe(|| w.run(n, sims, seed, tr)));
        tr.end(id);
        last_s = t.elapsed().as_secs_f64();
        tally.attempted += 1;
        let Ok(mut run) = result else {
            tally.failed += 1;
            if tally.attempted >= 2 * MIN_RUNS as u64 && runs.is_empty() {
                break; // every execution panics: no timing to report
            }
            continue;
        };
        // Later executions reuse memory the allocator kept from earlier
        // ones, so only the first gives a repeatable high-water mark.
        tally.first_peak_rss_mb.get_or_insert_with(peak_rss_mb);
        let first = *tally.fingerprint.get_or_insert(run.fingerprint);
        if run.fingerprint != first {
            run.failures.push(format!(
                "fingerprint {:#018x} differs from the first execution's {first:#018x}",
                run.fingerprint
            ));
        }
        if !run.failures.is_empty() {
            tally.failed += 1;
            for f in &run.failures {
                println!("check failed: {f}");
            }
        }
        runs.push((id, run));
    }
    runs
}

/// The smallest of a run's timings. The workloads are deterministic, so
/// the spread between executions is the shared host's contention, which
/// only ever adds time: the fastest execution is the steadiest estimate
/// of the program's own cost (see `README.md`, "Noise and bounds").
fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    let min = xs.into_iter().fold(f64::INFINITY, f64::min);
    assert!(min.is_finite(), "fastest of nothing");
    min
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The kernel's high-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(n: usize, runs: &[(Option<usize>, Run)], peak_rss_mb: f64) -> Vec<Metric> {
    let runs = || runs.iter().map(|(_, r)| r);
    let wall_s = fastest(runs().flat_map(Run::wall_s));
    vec![
        m("wall_s", wall_s, "s"),
        m("setup_s", fastest(runs().map(|r| r.setup_s)), "s"),
        m(
            "sim_s",
            fastest(runs().flat_map(|r| r.sim_s.iter().copied())),
            "s",
        ),
        m("requests_per_s", n as f64 / wall_s, "1/s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Fastest over traced executions of the time spent in `layer`'s calls.
fn layer_s(tr: &Tracer, runs: &[(Option<usize>, Run)], layer: &str) -> f64 {
    fastest(runs.iter().filter_map(|(id, _)| *id).map(|id| {
        tr.children(id)
            .filter(|s| s.layer == layer)
            .map(|s| s.seconds())
            .sum()
    }))
}

/// Replays `run_batch` on batches shaped like the workload's, one span per
/// call; returns the per-call latencies in µs, sorted.
fn replay(w: Workload, layers: &Layers, seed: u64, tr: &mut Tracer) -> Vec<f64> {
    let (design, batches) = w.replay_batches(layers, seed, REPLAY_CALLS);
    let parent = tr.begin("bench", "replay");
    let first = tr.spans().len();
    for lens in &batches {
        let report = tr.span("accelerator", "run_batch", || {
            design.run_batch(
                std::hint::black_box(lens),
                lat_core::pipeline::SchedulingPolicy::LengthAware,
            )
        });
        std::hint::black_box(report);
    }
    tr.end(parent);
    let mut us: Vec<f64> = tr.spans()[first..]
        .iter()
        .map(|s| s.seconds() * 1e6)
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

fn per_layer(
    args: &Args,
    tr: &mut Tracer,
    runs: &[(Option<usize>, Run)],
    untraced_wall_s: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let w = args.workload;
    let n = w.requests();
    let l = runs[0].1.layers;
    let trace_s = layer_s(tr, runs, "workloads");
    let design_s = layer_s(tr, runs, "accelerator");
    let engine = match w {
        Workload::FleetStream1m => "fleet",
        Workload::DecodeFullSlots => "decode",
        Workload::DisaggPrefixWarm => "disagg",
        Workload::FleetIncident => "failure",
    };
    let sim_s = layer_s(tr, runs, engine);
    let wall_s = fastest(runs.iter().flat_map(|(_, r)| r.wall_s()));

    let us = replay(w, &l, args.seed, tr);
    let (p50, p99) = (percentile(&us, 0.50), percentile(&us, 0.99));

    // Superlinearity probe: the same incident at a quarter of the trace.
    let (failure_us_per_request, scaling_exponent) = if w == Workload::FleetIncident {
        let probe = tr.begin("bench", "scaling_probe");
        let mut probe_tally = Tally::default();
        let quarter = repeat(w, n / 4, 1, args.seed, 0.0, tr, &mut probe_tally);
        tr.end(probe);
        tally.attempted += probe_tally.attempted;
        tally.failed += probe_tally.failed;
        let t_quarter = fastest(quarter.iter().flat_map(|(_, r)| r.sim_s.iter().copied()));
        (sim_s / n as f64 * 1e6, (sim_s / t_quarter).ln() / 4f64.ln())
    } else {
        (0.0, 0.0)
    };
    let ns_per_token = match l.decode_generated_tokens {
        0 => 0.0,
        tokens => sim_s / tokens as f64 * 1e9,
    };
    let hit_ratio = match l.disagg_prefix_lookups {
        0 => 0.0,
        lookups => l.disagg_prefix_hits as f64 / lookups as f64,
    };
    vec![
        m("workloads.trace_s", trace_s, "s"),
        m("workloads.ns_per_request", trace_s / n as f64 * 1e9, "ns"),
        m("accelerator.design_s", design_s, "s"),
        m(
            "accelerator.run_batch_calls",
            l.run_batch_calls as f64,
            "count",
        ),
        m("accelerator.run_batch_us_p50", p50, "us"),
        m("accelerator.run_batch_us_p99", p99, "us"),
        m(
            "accelerator.est_share",
            l.run_batch_calls as f64 * p50 * 1e-6 / sim_s,
            "ratio",
        ),
        m("fleet.events", l.fleet_events as f64, "count"),
        m("fleet.events_per_s", l.fleet_events as f64 / sim_s, "1/s"),
        m(
            "fleet.peak_heap_events",
            l.fleet_peak_heap_events as f64,
            "count",
        ),
        m(
            "fleet.peak_tracked_bytes",
            l.fleet_peak_tracked_bytes as f64,
            "B",
        ),
        m("decode.iterations", l.decode_iterations as f64, "count"),
        m(
            "decode.generated_tokens",
            l.decode_generated_tokens as f64,
            "count",
        ),
        m("decode.ns_per_token", ns_per_token, "ns"),
        m(
            "decode.slot_utilization",
            l.decode_slot_utilization,
            "ratio",
        ),
        m("disagg.transfers", l.disagg_transfers as f64, "count"),
        m("disagg.prefix_hit_ratio", hit_ratio, "ratio"),
        m(
            "disagg.prefill_iterations",
            l.disagg_prefill_iterations as f64,
            "count",
        ),
        m(
            "disagg.decode_iterations",
            l.disagg_decode_iterations as f64,
            "count",
        ),
        m(
            "failure.scale_events",
            l.failure_scale_events as f64,
            "count",
        ),
        m("failure.retries", l.failure_retries as f64, "count"),
        m("failure.timed_out", l.failure_timed_out as f64, "count"),
        m("failure.us_per_request", failure_us_per_request, "us"),
        m("failure.scaling_exponent", scaling_exponent, "ratio"),
        m("tracing.overhead_s", wall_s - untraced_wall_s, "s"),
    ]
}

fn spans_path(w: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or("perfbench/target".into(), PathBuf::from);
    dir.join("perfbench-spans")
        .join(format!("{}-seed{seed}.json", w.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let n = w.requests();
    let mut tally = Tally::default();
    println!(
        "perfbench {} ({n} requests), seed {:#x}, {} s, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The traced run compares executions of one simulation each.
    let (budget, sims) = if args.trace {
        (0.4 * args.seconds, 1)
    } else {
        (args.seconds, w.sims_per_setup())
    };
    let untraced = repeat(
        w,
        n,
        sims,
        args.seed,
        budget,
        &mut Tracer::new(false),
        &mut tally,
    );
    if untraced.is_empty() {
        eprintln!("perfbench: every execution of {} panicked", w.name());
        return ExitCode::FAILURE;
    }
    let layers = untraced[0].1.layers;
    let metrics = if args.trace {
        let mut tr = Tracer::new(true);
        let traced = repeat(w, n, sims, args.seed, budget, &mut tr, &mut tally);
        if traced.is_empty() {
            eprintln!("perfbench: every traced execution of {} panicked", w.name());
            return ExitCode::FAILURE;
        }
        let untraced_wall_s = fastest(untraced.iter().flat_map(|(_, r)| r.wall_s()));
        let metrics = per_layer(&args, &mut tr, &traced, untraced_wall_s, &mut tally);
        let path = spans_path(w, args.seed);
        match tr.write(&path, w.name(), args.seed) {
            Ok(()) => println!("{} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
        }
        metrics
    } else {
        end_to_end(n, &untraced, tally.first_peak_rss_mb.unwrap_or(0.0))
    };

    println!(
        "fingerprint {} seed {:#x}: {:#018x}",
        w.name(),
        args.seed,
        tally.fingerprint.unwrap_or(0)
    );
    // The kernel's figure beside the engine's deterministic proxy, so a
    // real memory change can be told apart from allocator noise.
    println!(
        "peak_rss_mb {:.3} MB after the first execution vs fleet.peak_tracked_bytes {} B",
        tally.first_peak_rss_mb.unwrap_or(0.0),
        layers.fleet_peak_tracked_bytes
    );
    let mut correct = tally.failed == 0;
    for x in &metrics {
        println!("{:<32} {:>18.6} {}", x.name, x.value, x.unit);
        if !x.value.is_finite() {
            println!("check failed: {} is not finite", x.name);
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
