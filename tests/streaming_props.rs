//! Streaming-vs-exact report equivalence for the fleet, the one engine
//! with a `ReportMode`, plus two client/report regression pins.
//!
//! `ReportMode::Streaming` must change *representation*, never *events*:
//! every counter, makespan, throughput, and batch-size mean is asserted
//! bit-identical to the exact run of the same scenario, the mean (a sum,
//! not an estimate) agrees to 1e-12 relative, and the percentile fields —
//! the only sketch-estimated values — are pinned to the histogram's
//! guarantee, `|sketch − exact| ≤ 2⁻⁷ · exact`. Only the plain fleet
//! streams; the decode, disaggregated and failure engines always report
//! exactly.

use lat_bench::scenarios::{
    harness_seed, FAILURE_BACKOFF_S, FAILURE_DEADLINE_S, FAILURE_MAX_RETRIES, FAILURE_TIMEOUT_S,
};
use lat_exp::artifact::fnv1a64;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::core::sketch::ReportMode;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::failure::{
    simulate_fleet_failure, ClientConfig, Fault, FaultKind, FaultPlan, RetryDecision,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, simulate_fleet_instrumented, with_batch_log,
    BatcherConfig, DispatchPolicy, FleetReport,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;

/// Relative tolerance pinned for every sketch-estimated percentile: the
/// log-linear histogram's guaranteed bound for latencies from 1e-12 s to
/// 1e9 s, so it holds at every `HARNESS_SEED`.
const QUANTILE_EPS: f64 = 0.0078125;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn batcher() -> BatcherConfig {
    BatcherConfig {
        max_batch: 8,
        batch_window_s: 0.002,
    }
}

fn client() -> ClientConfig {
    ClientConfig {
        timeout_s: FAILURE_TIMEOUT_S,
        max_retries: FAILURE_MAX_RETRIES,
        backoff_s: FAILURE_BACKOFF_S,
        deadline_s: FAILURE_DEADLINE_S,
    }
}

/// A client impatient enough to act inside the blackout window below:
/// 50 ms per-attempt timeout, two backoff-doubled retries, and a 250 ms
/// end-to-end deadline that expires well before the outage lifts.
fn impatient_client() -> ClientConfig {
    ClientConfig {
        timeout_s: 0.05,
        max_retries: 2,
        backoff_s: 0.02,
        deadline_s: 0.25,
    }
}

/// Total outage: every shard crashes at 0.1 s and recovers at 0.7 s.
/// Arrivals inside the window park, so the impatient client's timeouts
/// actually fire — retries pile up and the 250 ms deadline abandons the
/// early cohort, exercising retry/abandonment accounting.
fn blackout_plan() -> FaultPlan {
    FaultPlan {
        faults: (0..3)
            .map(|shard| Fault {
                shard,
                kind: FaultKind::Crash {
                    at_s: 0.1,
                    recover_s: Some(0.7),
                },
            })
            .collect(),
    }
}

fn assert_quantile_close(tag: &str, sketch: f64, exact: f64) {
    let tol = exact.abs().max(1e-9) * QUANTILE_EPS + 1e-9;
    assert!(
        (sketch - exact).abs() <= tol,
        "{tag}: sketch {sketch} vs exact {exact} (tol {tol})"
    );
}

/// Everything in a [`FleetReport`] except the three percentile fields
/// and the mean must be bit-identical between modes — every counter, the
/// makespan, throughput, batch-size mean, and per-shard stats, since
/// `ReportMode::Streaming` changes representation, never events — and
/// streaming keeps no batch log, even inside `with_batch_log`. The mean
/// sums the same latencies in completion order rather than trace order,
/// so it may differ by rounding only.
fn assert_fleet_reports_equivalent(stream: &FleetReport, exact: &FleetReport) {
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
    assert_eq!(stream.shards, exact.shards, "per-shard stats diverged");
    assert!(
        stream.batch_log.is_empty(),
        "streaming retained a batch log"
    );
    let (mean, exact_mean) = (stream.mean_latency_s, exact.mean_latency_s);
    assert!(
        (mean - exact_mean).abs() <= exact_mean.abs() * 1e-12 + 1e-12,
        "mean latency: sketch {mean} vs exact {exact_mean}"
    );
    assert_quantile_close("p50", stream.p50_latency_s, exact.p50_latency_s);
    assert_quantile_close("p95", stream.p95_latency_s, exact.p95_latency_s);
    assert_quantile_close("p99", stream.p99_latency_s, exact.p99_latency_s);
}

#[test]
fn fleet_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 120.0, 800, harness_seed());
    let cfg = batcher();
    let run = |mode| {
        with_batch_log(|| {
            simulate_fleet_instrumented(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &cfg,
                mode,
            )
        })
        .0
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert!(!exact.batch_log.is_empty(), "Exact dropped its log");
    assert_eq!(
        exact,
        with_batch_log(|| simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
        )),
        "Exact mode must be simulate_fleet verbatim"
    );
    assert_fleet_reports_equivalent(&stream, &exact);
}

/// Pins the bytes of a Streaming fleet report: `Debug` prints each f64
/// in its shortest round-trip form, so an unchanged hash means every
/// sketch estimate, the sketched mean and every counter kept their bits.
/// The seed is a literal, so the constant holds at any `HARNESS_SEED`.
#[test]
fn fleet_streaming_report_bytes_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(64), 4);
    let trace = poisson_trace(&DatasetSpec::rte(), 50_000.0, 4000, 0x5EED);
    let (report, _) = simulate_fleet_instrumented(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &BatcherConfig::default(),
        ReportMode::Streaming,
    );
    assert_eq!(report.completed, 4000);
    let hash = fnv1a64(format!("{report:?}").as_bytes());
    assert_eq!(
        hash, 0x8549_8919_2cd3_47bd,
        "Streaming report bytes moved: {hash:#018x}"
    );
}

/// Regression pin for the deduplicated client-retry scheduling: the
/// fleet and decode fault injectors once carried verbatim copies of the
/// backoff/timeout arithmetic and could drift apart. Both now route
/// through [`ClientConfig::on_timeout`]; this pins the exact
/// `retry_at`/`timeout_at` ladder that shared helper schedules for a full
/// timed-out-every-attempt disposition history.
#[test]
fn retry_schedule_pinned_for_both_client_layers() {
    let cl = client();
    let arrival = 0.0;
    let mut now = arrival + cl.timeout_s; // first timeout fires
    let mut ladder = Vec::new();
    let mut attempts = 0u32;
    while let RetryDecision::Retry {
        retry_at,
        timeout_at,
    } = cl.on_timeout(now, arrival, attempts)
    {
        // The exact arithmetic both injectors used before the
        // dedupe — any drift in the shared helper breaks this.
        let expect_retry = now + cl.backoff_s * 2f64.powi(attempts as i32);
        assert_eq!(retry_at.to_bits(), expect_retry.to_bits());
        assert_eq!(timeout_at.to_bits(), (retry_at + cl.timeout_s).to_bits());
        ladder.push((retry_at, timeout_at));
        attempts += 1;
        now = timeout_at;
    }
    assert_eq!(attempts, cl.max_retries, "full retry budget consumed");
    assert!(attempts <= cl.attempt_bound());
    // FAILURE_* client: timeout 1s, backoff 0.05s doubling, 3 retries.
    let expected = [(1.05, 2.05), (2.15, 3.15), (3.35, 4.35)];
    assert_eq!(ladder.len(), expected.len());
    for ((r, t), (er, et)) in ladder.iter().zip(expected) {
        assert!((r - er).abs() < 1e-12 && (t - et).abs() < 1e-12);
    }
    // Past the deadline the helper abandons even with retries left.
    let late = arrival + cl.deadline_s + 1.0;
    assert_eq!(cl.on_timeout(late, arrival, 0), RetryDecision::Abandon);
    // A timeout-free client arms no next timeout.
    let patient_backoff = ClientConfig {
        timeout_s: f64::INFINITY,
        max_retries: 1,
        backoff_s: 0.5,
        deadline_s: f64::INFINITY,
    };
    match patient_backoff.on_timeout(2.0, 0.0, 0) {
        RetryDecision::Retry { timeout_at, .. } => assert!(timeout_at.is_infinite()),
        RetryDecision::Abandon => panic!("budget allowed a retry"),
    }
}

/// Regression pin for the fleet-level `mean_batch_size` fix: the report
/// must equal Σ logged batch sizes / batch count — computed from the
/// batch log itself — in a crash + straggler + timeout scenario where
/// clients abandon work, and the per-shard means must be consistent with
/// the per-shard slices of the same log.
#[test]
fn fleet_mean_batch_size_matches_batch_log() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 800.0, 700, harness_seed());
    let r = with_batch_log(|| {
        simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher(),
            &blackout_plan(),
            &impatient_client(),
            0.25,
        )
    });
    assert!(r.timed_out > 0, "scenario too calm to exercise abandonment");
    let log = &r.fleet.batch_log;
    assert!(!log.is_empty());
    let total: usize = log.iter().map(|b| b.size).sum();
    assert_eq!(
        r.fleet.mean_batch_size.to_bits(),
        (total as f64 / log.len() as f64).to_bits(),
        "fleet mean_batch_size must come from logged batch sizes"
    );
    for sh in &r.fleet.shards {
        let sizes: Vec<usize> = log
            .iter()
            .filter(|b| b.shard == sh.shard)
            .map(|b| b.size)
            .collect();
        assert_eq!(sh.batches, sizes.len());
        let expect = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        assert_eq!(
            sh.mean_batch_size.to_bits(),
            expect.to_bits(),
            "shard {} mean_batch_size inconsistent with its log slice",
            sh.shard
        );
    }
}
