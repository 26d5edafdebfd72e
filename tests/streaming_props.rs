//! Streaming-vs-exact report equivalence across the serving engines, plus
//! the PR's two client/report regression pins.
//!
//! `ReportMode::Streaming` must change *representation*, never *events*:
//! every counter, makespan, throughput, and batch-size mean is asserted
//! bit-identical to the exact run of the same scenario, while the
//! percentile fields — the only sketch-estimated values — are pinned to
//! `|sketch − exact| ≤ ε`. The suite covers the healthy fleet and decode
//! engines and all four failure entry points (fixed fleet, autoscaled
//! fleet, decode, disaggregated), so the sketch path is exercised through
//! crashes, stragglers, client retries, and re-priced in-flight work.

use lat_bench::scenarios::{
    harness_seed, FAILURE_BACKOFF_S, FAILURE_DEADLINE_S, FAILURE_MAX_RETRIES, FAILURE_TIMEOUT_S,
};
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::core::sketch::ReportMode;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{AutoscaleConfig, DecodeScaleDown, RetirePolicy, ScalePolicy};
use lat_fpga::hwsim::decode::{
    decode_trace, simulate_decode_mode, DecodeConfig, DecodeScheduler, KvTransfer,
};
use lat_fpga::hwsim::disagg::DisaggConfig;
use lat_fpga::hwsim::failure::{
    simulate_autoscale_failure, simulate_autoscale_failure_mode, simulate_decode_failure,
    simulate_decode_failure_mode, simulate_disagg_failure, simulate_disagg_failure_mode,
    simulate_fleet_failure, simulate_fleet_failure_mode, ClientConfig, Fault, FaultKind, FaultPlan,
    IncidentPhase, RetryDecision,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, simulate_fleet_mode, BatcherConfig,
    DispatchPolicy, FleetReport,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::PrefixProfile;

/// Relative tolerance pinned for every sketch-estimated percentile. The
/// P² estimator is far tighter than this on the smooth latency
/// populations the engines produce; the pin is deliberately loose enough
/// to stay seed-robust under the `HARNESS_SEED` matrix.
const QUANTILE_EPS: f64 = 0.25;

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
/// early cohort, exercising retry/abandonment accounting in both report
/// modes. (Partial faults never make this fleet slow enough for a
/// client-visible queue; see the straggler-only [`stormy_plan`].)
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

/// A surge scenario that produces client retries *without* a latency
/// cliff: shard 0 crashes for 0.9 s and shard 1 drags ×100 while a
/// heavy arrival stream keeps the survivors saturated, so some queued
/// requests outlive the 10 ms timeout and re-enter — but the retried
/// cohort's latencies stay within the same decade as the bulk (deadline
/// 30 ms), keeping the population smooth enough for value-space pins.
fn surge_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.1,
                    recover_s: Some(1.0),
                },
            },
            Fault {
                shard: 1,
                kind: FaultKind::Straggler {
                    from_s: 0.05,
                    until_s: 0.8,
                    slowdown: 100.0,
                },
            },
        ],
    }
}

/// The client paired with [`surge_plan`]: fires fast, gives up fast.
fn hasty_client() -> ClientConfig {
    ClientConfig {
        timeout_s: 0.01,
        max_retries: 3,
        backoff_s: 0.005,
        deadline_s: 0.03,
    }
}

/// Crash-with-recovery on shard 0 plus a straggler window on shard 1 —
/// exercises batch-record removal and in-flight re-pricing.
fn stormy_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 1.0,
                    recover_s: Some(2.5),
                },
            },
            Fault {
                shard: 1,
                kind: FaultKind::Straggler {
                    from_s: 0.5,
                    until_s: 3.0,
                    slowdown: 20.0,
                },
            },
        ],
    }
}

fn assert_quantile_close(tag: &str, sketch: f64, exact: f64) {
    let tol = exact.abs().max(1e-9) * QUANTILE_EPS + 1e-9;
    assert!(
        (sketch - exact).abs() <= tol,
        "{tag}: sketch {sketch} vs exact {exact} (tol {tol})"
    );
}

/// Rank-space pin for quantiles of *cliffy* populations. A value-space ε
/// is meaningless at a CDF discontinuity (here the exact distribution can
/// jump ~25× between q0.93 and q0.97, right where p95 sits), so instead
/// the sketch estimate must land inside the exact sample values at ranks
/// `p ± 0.04` — the standard accuracy contract for streaming quantile
/// estimators on atom-heavy data.
fn assert_quantile_in_rank_window(tag: &str, sketch: f64, sorted: &[f64], p: f64) {
    assert!(!sorted.is_empty(), "{tag}: no exact samples to pin against");
    let at = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    let (lo, hi) = (at(p - 0.04), at(p + 0.04));
    let slack = hi.abs().max(1e-9) * 1e-6;
    assert!(
        sketch >= lo - slack && sketch <= hi + slack,
        "{tag}: sketch {sketch} outside exact rank window [{lo}, {hi}] around p{p}"
    );
}

/// Combined pin: close in value space (the smooth-population contract)
/// *or* inside the exact rank window (the cliff contract). A dense bulk
/// makes the rank window a hair's width in value space while value-ε is
/// generous; a CDF cliff makes value-ε impossible while the rank window
/// is the meaningful bound — every population satisfies one of the two.
fn assert_quantile_pinned(tag: &str, sketch: f64, exact: f64, sorted: &[f64], p: f64) {
    let tol = exact.abs().max(1e-9) * QUANTILE_EPS + 1e-9;
    if (sketch - exact).abs() <= tol {
        return;
    }
    assert_quantile_in_rank_window(tag, sketch, sorted, p);
}

/// Finite latencies from an exact run's client outcomes, ascending —
/// the reference population for rank-window percentile pins. `filter`
/// selects which requests belong (e.g. one incident phase's arrivals).
fn sorted_latencies(
    outcomes: &[lat_fpga::hwsim::failure::ClientOutcome],
    filter: impl Fn(usize) -> bool,
) -> Vec<f64> {
    let mut lat: Vec<f64> = outcomes
        .iter()
        .enumerate()
        .filter(|(r, o)| filter(*r) && o.latency_s.is_finite())
        .map(|(_, o)| o.latency_s)
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// Every incident-phase field except the p95 (the one sketch-estimated
/// value) must match the exact run bit for bit.
fn assert_phase_counters_equal(stream: &[IncidentPhase], exact: &[IncidentPhase]) {
    assert_eq!(stream.len(), exact.len());
    for (sp, ep) in stream.iter().zip(exact) {
        assert_eq!(sp.start_s.to_bits(), ep.start_s.to_bits());
        assert_eq!(sp.end_s.to_bits(), ep.end_s.to_bits());
        assert_eq!(sp.arrivals, ep.arrivals);
        assert_eq!(sp.completed, ep.completed);
        assert_eq!(sp.timed_out, ep.timed_out);
        assert_eq!(sp.scale_events, ep.scale_events);
        assert_eq!(sp.slo_attainment.to_bits(), ep.slo_attainment.to_bits());
        assert_eq!(sp.goodput_seq_s.to_bits(), ep.goodput_seq_s.to_bits());
    }
}

/// The bit-identical portion of the streaming contract: every counter,
/// the makespan, throughput, batch-size mean, and per-shard stats must
/// match the exact run exactly — `ReportMode::Streaming` changes
/// representation, never events.
fn assert_fleet_counters_equal(stream: &FleetReport, exact: &FleetReport) {
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
}

/// Everything in a [`FleetReport`] except the three percentile fields,
/// the (summation-order-sensitive) mean, and the batch log must be
/// bit-identical between modes.
fn assert_fleet_reports_equivalent(stream: &FleetReport, exact: &FleetReport) {
    assert_fleet_counters_equal(stream, exact);
    assert_quantile_close("mean latency", stream.mean_latency_s, exact.mean_latency_s);
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
        simulate_fleet_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
        ),
        "Exact mode must be simulate_fleet verbatim"
    );
    assert_fleet_reports_equivalent(&stream, &exact);
}

#[test]
fn decode_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = decode_trace(
        &DatasetSpec::mrpc(),
        &DatasetSpec::mrpc().decode_output(),
        0.3,
        60.0,
        400,
        harness_seed(),
    );
    let cfg = DecodeConfig {
        max_slots: 6,
        ttft_deadline_s: 0.05,
    };
    let run = |mode| {
        simulate_decode_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &cfg,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_fleet_reports_equivalent(&stream.fleet, &exact.fleet);
    assert_eq!(stream.generated_tokens, exact.generated_tokens);
    assert_eq!(
        stream.goodput_tok_s.to_bits(),
        exact.goodput_tok_s.to_bits()
    );
    assert_eq!(
        stream.slot_utilization.to_bits(),
        exact.slot_utilization.to_bits()
    );
    assert_eq!(stream.preemptions, exact.preemptions);
    assert_eq!(stream.shards, exact.shards);
    assert!(stream.requests.is_empty(), "streaming retained outcomes");
    assert_quantile_close("ttft mean", stream.ttft_mean_s, exact.ttft_mean_s);
    assert_quantile_close("ttft p50", stream.ttft_p50_s, exact.ttft_p50_s);
    assert_quantile_close("ttft p95", stream.ttft_p95_s, exact.ttft_p95_s);
    assert_quantile_close("ttft p99", stream.ttft_p99_s, exact.ttft_p99_s);
    assert_quantile_close("itl p50", stream.itl_p50_s, exact.itl_p50_s);
    assert_quantile_close("itl p95", stream.itl_p95_s, exact.itl_p95_s);
    assert_quantile_close("itl p99", stream.itl_p99_s, exact.itl_p99_s);
    let (se, ee) = (stream.high_ttft_p95_s, exact.high_ttft_p95_s);
    assert_eq!(se.is_some(), ee.is_some(), "high-priority presence");
    if let (Some(s), Some(e)) = (se, ee) {
        assert_quantile_close("high ttft p95", s, e);
    }
}

#[test]
fn fleet_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 8000.0, 3000, harness_seed());
    let cfg = batcher();
    let plan = surge_plan();
    let cl = hasty_client();
    let run = |mode| {
        simulate_fleet_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &plan,
            &cl,
            0.25,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert!(exact.retries > 0, "scenario too calm to exercise retries");
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.timed_out, exact.timed_out);
    assert_eq!(stream.retried, exact.retried);
    assert_eq!(stream.retries, exact.retries);
    assert_eq!(
        stream.slo_attainment.to_bits(),
        exact.slo_attainment.to_bits(),
        "SLO attainment is a count ratio — identical in both modes"
    );
    assert_eq!(
        stream.goodput_seq_s.to_bits(),
        exact.goodput_seq_s.to_bits()
    );
    assert!(stream.outcomes.is_empty(), "streaming retained outcomes");
    assert_fleet_counters_equal(&stream.fleet, &exact.fleet);
    let all = sorted_latencies(&exact.outcomes, |_| true);
    let (sf, ef) = (&stream.fleet, &exact.fleet);
    assert_quantile_close("surge mean latency", sf.mean_latency_s, ef.mean_latency_s);
    assert_quantile_pinned("surge p50", sf.p50_latency_s, ef.p50_latency_s, &all, 0.50);
    assert_quantile_pinned("surge p95", sf.p95_latency_s, ef.p95_latency_s, &all, 0.95);
    assert_quantile_pinned("surge p99", sf.p99_latency_s, ef.p99_latency_s, &all, 0.99);
    assert_phase_counters_equal(&stream.phases, &exact.phases);
    for (sp, ep) in stream.phases.iter().zip(&exact.phases) {
        // Phase populations are arrival-bucketed slices of the exact
        // outcomes; pin each phase's p95 against its own slice so a
        // phase whose window straddles the fault cliff still has a
        // meaningful bound.
        let phase = sorted_latencies(&exact.outcomes, |r| {
            trace[r].arrival_s >= sp.start_s && trace[r].arrival_s < sp.end_s
        });
        if !phase.is_empty() {
            assert_quantile_pinned(
                "phase p95",
                sp.p95_latency_s,
                ep.p95_latency_s,
                &phase,
                0.95,
            );
        }
    }
}

#[test]
fn autoscale_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 4);
    let trace = poisson_trace(&DatasetSpec::rte(), 150.0, 600, harness_seed());
    let cfg = batcher();
    let auto_cfg = AutoscaleConfig {
        min_shards: 1,
        initial_shards: 2,
        policy: ScalePolicy::Reactive {
            scale_up_depth: 4.0,
            scale_down_depth: 0.5,
        },
        retire: RetirePolicy::Evict,
        eval_interval_s: 0.05,
        warmup_s: 0.2,
        cooldown_s: 0.0,
        ..AutoscaleConfig::default()
    };
    let plan = stormy_plan();
    let cl = client();
    let run = |mode| {
        simulate_autoscale_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &auto_cfg,
            &plan,
            &cl,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_autoscale_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &auto_cfg,
            &plan,
            &cl,
        ),
        "Exact mode must be simulate_autoscale_failure verbatim"
    );
    assert_eq!(
        stream.shard_seconds.to_bits(),
        exact.shard_seconds.to_bits()
    );
    assert_eq!(
        stream.mean_active_shards.to_bits(),
        exact.mean_active_shards.to_bits()
    );
    assert_eq!(stream.peak_active_shards, exact.peak_active_shards);
    assert_eq!(stream.scale_events, exact.scale_events);
    assert_eq!(stream.failure.completed, exact.failure.completed);
    assert_eq!(stream.failure.timed_out, exact.failure.timed_out);
    assert_eq!(stream.failure.retried, exact.failure.retried);
    assert_eq!(stream.failure.retries, exact.failure.retries);
    assert_eq!(
        stream.failure.slo_attainment.to_bits(),
        exact.failure.slo_attainment.to_bits()
    );
    assert!(stream.failure.outcomes.is_empty());
    assert_fleet_counters_equal(&stream.failure.fleet, &exact.failure.fleet);
    // The only entry point whose phases count scale events: the crash
    // alone logs a `Failed` event inside the incident window.
    assert!(
        exact.failure.phases.iter().any(|p| p.scale_events > 0),
        "no scale event landed in any phase"
    );
    assert_phase_counters_equal(&stream.failure.phases, &exact.failure.phases);
    for (sp, ep) in stream.failure.phases.iter().zip(&exact.failure.phases) {
        let phase = sorted_latencies(&exact.failure.outcomes, |r| {
            trace[r].arrival_s >= sp.start_s && trace[r].arrival_s < sp.end_s
        });
        if !phase.is_empty() {
            assert_quantile_pinned(
                "autoscale phase p95",
                sp.p95_latency_s,
                ep.p95_latency_s,
                &phase,
                0.95,
            );
        }
    }
    // The autoscaled incident produces a *cliff* latency population: a
    // warm-up-delayed cohort sits orders of magnitude above the healthy
    // bulk, and the CDF jump lands right at p95. Pin those percentiles in
    // rank space against the exact per-request latencies instead of the
    // value-space ε the smooth scenarios use.
    let lat = sorted_latencies(&exact.failure.outcomes, |_| true);
    let (sf, ef) = (&stream.failure.fleet, &exact.failure.fleet);
    assert_quantile_close(
        "autoscale mean latency",
        sf.mean_latency_s,
        ef.mean_latency_s,
    );
    assert_quantile_pinned(
        "autoscale p50",
        sf.p50_latency_s,
        ef.p50_latency_s,
        &lat,
        0.50,
    );
    assert_quantile_pinned(
        "autoscale p95",
        sf.p95_latency_s,
        ef.p95_latency_s,
        &lat,
        0.95,
    );
    assert_quantile_pinned(
        "autoscale p99",
        sf.p99_latency_s,
        ef.p99_latency_s,
        &lat,
        0.99,
    );
}

#[test]
fn decode_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = decode_trace(
        &DatasetSpec::mrpc(),
        &DatasetSpec::mrpc().decode_output(),
        0.2,
        50.0,
        300,
        harness_seed(),
    );
    let cfg = DecodeConfig {
        max_slots: 4,
        ttft_deadline_s: 0.05,
    };
    let plan = stormy_plan();
    let cl = client();
    let run = |mode| {
        simulate_decode_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
        ),
        "Exact mode must be simulate_decode_failure verbatim"
    );
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.timed_out, exact.timed_out);
    assert_eq!(stream.retried, exact.retried);
    assert_eq!(stream.retries, exact.retries);
    assert_eq!(
        stream.slo_attainment.to_bits(),
        exact.slo_attainment.to_bits()
    );
    assert_eq!(
        stream.affected_drain_s.to_bits(),
        exact.affected_drain_s.to_bits()
    );
    assert!(stream.outcomes.is_empty());
    assert_fleet_reports_equivalent(&stream.decode.fleet, &exact.decode.fleet);
    assert_phase_counters_equal(&stream.phases, &exact.phases);
    for (sp, ep) in stream.phases.iter().zip(&exact.phases) {
        assert_quantile_close("decode phase p95", sp.p95_latency_s, ep.p95_latency_s);
    }
}

/// A storm on the decode pool of a 2 + 2 disaggregated fleet: shard 2
/// crashes and recovers while shard 3 straggles, so live KV residents
/// of both re-prefill on the prefill pool and hand off again. The
/// prefill pool stays healthy, so fresh arrivals always have somewhere
/// to go.
fn disagg_storm_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 2,
                kind: FaultKind::Crash {
                    at_s: 0.05,
                    recover_s: Some(0.12),
                },
            },
            Fault {
                shard: 3,
                kind: FaultKind::Straggler {
                    from_s: 0.02,
                    until_s: 0.15,
                    slowdown: 20.0,
                },
            },
        ],
    }
}

#[test]
fn disagg_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 2);
    let long_outputs = DatasetSpec {
        name: "long decode".into(),
        min_len: 2000,
        avg_len: 8000,
        max_len: 30000,
    };
    let trace = decode_trace(
        &DatasetSpec::mrpc(),
        &long_outputs,
        0.2,
        1000.0,
        300,
        harness_seed(),
    );
    let prefixes = PrefixProfile {
        num_groups: 3,
        prefix_len: 32,
        grouped_fraction: 0.8,
    }
    .assign(trace.len(), harness_seed());
    let cfg = DecodeConfig {
        max_slots: 4,
        ttft_deadline_s: 0.05,
    };
    let dcfg = DisaggConfig {
        transfer: KvTransfer::Copy {
            base_s: 1e-5,
            per_token_s: 1e-8,
        },
        prefix_cache_capacity: 2,
    };
    let plan = disagg_storm_plan();
    let cl = impatient_client();
    let run = |mode| {
        simulate_disagg_failure_mode(
            &fleet,
            &fleet,
            &trace,
            &prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &dcfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_disagg_failure(
            &fleet,
            &fleet,
            &trace,
            &prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &dcfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
        ),
        "Exact mode must be simulate_disagg_failure verbatim"
    );
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.timed_out, exact.timed_out);
    assert_eq!(stream.retried, exact.retried);
    assert_eq!(stream.retries, exact.retries);
    assert_eq!(
        stream.slo_attainment.to_bits(),
        exact.slo_attainment.to_bits()
    );
    assert!(
        exact.affected_drain_s > 0.0,
        "the crash caught no KV resident"
    );
    assert_eq!(
        stream.affected_drain_s.to_bits(),
        exact.affected_drain_s.to_bits()
    );
    assert!(stream.outcomes.is_empty());
    let (sd, ed) = (&stream.disagg, &exact.disagg);
    assert_eq!(sd.transfers, ed.transfers);
    assert_eq!(sd.transfer_time_s.to_bits(), ed.transfer_time_s.to_bits());
    assert_eq!(sd.transferred_tokens, ed.transferred_tokens);
    assert_eq!(sd.prefix, ed.prefix);
    assert!(ed.prefix.hits > 0, "the prefix cache never hit");
    // The crash's orphans re-prefill and finish far behind the bulk, so
    // the end-to-end percentiles are pinned in rank space as well.
    assert_fleet_counters_equal(&sd.decode.fleet, &ed.decode.fleet);
    let lat = sorted_latencies(&exact.outcomes, |_| true);
    let (sf, ef) = (&sd.decode.fleet, &ed.decode.fleet);
    assert_quantile_close("disagg mean latency", sf.mean_latency_s, ef.mean_latency_s);
    assert_quantile_pinned("disagg p50", sf.p50_latency_s, ef.p50_latency_s, &lat, 0.50);
    assert_quantile_pinned("disagg p95", sf.p95_latency_s, ef.p95_latency_s, &lat, 0.95);
    assert_quantile_pinned("disagg p99", sf.p99_latency_s, ef.p99_latency_s, &lat, 0.99);
    assert_phase_counters_equal(&stream.phases, &exact.phases);
    // The crash cohort puts a TTFT cliff inside the incident phase, so
    // each phase's p95 is pinned against that phase's exact TTFTs.
    for (sp, ep) in stream.phases.iter().zip(&exact.phases) {
        let mut phase: Vec<f64> = trace
            .iter()
            .zip(&ed.decode.requests)
            .filter(|(q, o)| {
                q.arrival_s >= sp.start_s && q.arrival_s < sp.end_s && o.ttft_s.is_finite()
            })
            .map(|(_, o)| o.ttft_s)
            .collect();
        phase.sort_by(f64::total_cmp);
        if !phase.is_empty() {
            assert_quantile_pinned(
                "disagg phase p95",
                sp.p95_latency_s,
                ep.p95_latency_s,
                &phase,
                0.95,
            );
        }
    }
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
    let r = simulate_fleet_failure(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &batcher(),
        &blackout_plan(),
        &impatient_client(),
        0.25,
    );
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
