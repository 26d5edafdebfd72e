//! Property-based tests of the fault-injection layer's invariants:
//! request conservation when all but one shard is killed (residents in
//! flight included), the empty plan + patient client reproducing the
//! plain engines bit-for-bit, crashes never admitting work to a cold or
//! dead shard, retry counts bounded by the client's deadline budget,
//! zero-completion outage reports staying NaN-free, and `HARNESS_SEED`
//! determinism of the full `FailureReport` (mirrors
//! `tests/autoscale_props.rs` and `tests/decode_props.rs`).

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{
    AutoscaleConfig, DecodeScaleDown, RetirePolicy, ScaleEventKind, ScalePolicy,
};
use lat_fpga::hwsim::decode::{decode_trace, simulate_decode, DecodeConfig, DecodeScheduler};
use lat_fpga::hwsim::failure::{
    simulate_autoscale_failure, simulate_decode_failure, simulate_fleet_failure,
    AutoscaleFailureReport, ClientConfig, Disposition, Fault, FaultKind, FaultPlan,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, with_batch_log, BatcherConfig, DispatchPolicy,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use proptest::prelude::*;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn dispatch_from_index(i: usize) -> DispatchPolicy {
    DispatchPolicy::ALL[i % DispatchPolicy::ALL.len()]
}

/// Every batch must start inside one of its shard's membership windows:
/// initially-active shards until their first `Retired`/`Failed`, later
/// (or recovered) shards only between a `Join` and the next
/// `Retired`/`Failed`. `Recovered` alone reopens nothing — a revived
/// shard readmits only through the normal launch + warm-up path, which
/// is exactly the "crash during warm-up never admits work to a cold
/// shard" invariant.
fn assert_batches_within_membership(r: &AutoscaleFailureReport, initial_shards: usize) {
    assert!(!r.failure.fleet.batch_log.is_empty(), "empty batch log");
    for b in &r.failure.fleet.batch_log {
        let mut allowed = b.shard < initial_shards;
        for e in r.scale_events.iter().filter(|e| e.shard == b.shard) {
            if e.time_s > b.start_s + 1e-12 {
                break;
            }
            match e.kind {
                ScaleEventKind::Join => allowed = true,
                ScaleEventKind::Retired | ScaleEventKind::Failed => allowed = false,
                ScaleEventKind::Launch
                | ScaleEventKind::RetireStart
                | ScaleEventKind::Recovered => {}
            }
        }
        assert!(
            allowed,
            "batch on shard {} at t={} outside its membership windows",
            b.shard, b.start_s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Killing every decode shard but one — with queued work and KV
    /// residents in flight — never drops a request: the survivor inherits
    /// and finishes every generation in full.
    #[test]
    fn killing_all_but_one_decode_shard_never_drops_a_request(
        shards in 2usize..5,
        dispatch_idx in 0usize..3,
        rate in 1000.0f64..4000.0,
        n in 40usize..120,
        crash_scale in 0.002f64..0.02,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::rte(),
            0.2,
            rate,
            n,
            seed,
        );
        // Stagger the kills so work re-routes through shrinking
        // survivors; the last shard stays up (the decode engine cannot
        // park work).
        let plan = FaultPlan {
            faults: (0..shards - 1)
                .map(|s| Fault {
                    shard: s,
                    kind: FaultKind::Crash {
                        at_s: crash_scale * (s + 1) as f64,
                        recover_s: None,
                    },
                })
                .collect(),
        };
        let r = simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &plan,
            &ClientConfig::patient(),
            DecodeScaleDown::Migrate,
            0.25,
        );
        prop_assert_eq!(r.client.completed, n, "a patient client must lose nothing");
        prop_assert_eq!(r.client.timed_out, 0);
        prop_assert_eq!(r.client.outcomes.len(), n);
        // Every generation ran to its full length — tokens from the
        // crashed shards' residents included.
        let want: u64 = trace.iter().map(|q| q.output_len as u64).sum();
        prop_assert_eq!(r.decode.generated_tokens, want);
        prop_assert!(r.client.outcomes.iter().all(|o| o.completion_s.is_finite()));
    }

    /// The empty fault plan with the patient client is the plain fleet
    /// engine bit-for-bit: the failure layer charges nothing for merely
    /// existing.
    #[test]
    fn empty_plan_patient_client_is_the_plain_engine(
        shards in 1usize..4,
        dispatch_idx in 0usize..3,
        rate in 500.0f64..4000.0,
        n in 16usize..64,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = poisson_trace(&DatasetSpec::rte(), rate, n, seed);
        let dispatch = dispatch_from_index(dispatch_idx);
        let batcher = BatcherConfig::default();
        let plain = with_batch_log(|| simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch,
            &batcher,
        ));
        let r = with_batch_log(|| simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch,
            &batcher,
            &FaultPlan::none(),
            &ClientConfig::patient(),
            0.25,
        ));
        prop_assert_eq!(r.fleet, plain);
        prop_assert_eq!(r.completed, n);
        prop_assert_eq!(r.timed_out + r.retried + r.retries, 0);
    }

    /// The decode half of the containment link: the empty fault plan with
    /// the patient client is the plain decode engine bit-for-bit, under
    /// every scheduler.
    #[test]
    fn empty_plan_patient_client_is_the_plain_decode_engine(
        shards in 1usize..4,
        dispatch_idx in 0usize..3,
        rate in 500.0f64..4000.0,
        n in 16usize..64,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::rte(),
            0.2,
            rate,
            n,
            seed,
        );
        let dispatch = dispatch_from_index(dispatch_idx);
        let cfg = DecodeConfig::default();
        for scheduler in DecodeScheduler::ALL {
            let plain = with_batch_log(|| simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                dispatch,
                scheduler,
                &cfg,
            ));
            let r = with_batch_log(|| simulate_decode_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                dispatch,
                scheduler,
                &cfg,
                &FaultPlan::none(),
                &ClientConfig::patient(),
                DecodeScaleDown::Drain,
                0.25,
            ));
            prop_assert_eq!(r.decode, plain);
            prop_assert_eq!(r.client.completed, n);
            prop_assert_eq!(r.client.timed_out + r.client.retried + r.client.retries, 0);
        }
    }

    /// A crash mid-run under the autoscaler: no batch ever starts on a
    /// cold, warming, or dead shard — a `Recovered` shard readmits work
    /// only after a fresh launch + warm-up (`Join`) — and the books stay
    /// conserved.
    #[test]
    fn crash_during_warmup_never_admits_to_cold_shard(
        max_shards in 3usize..5,
        dispatch_idx in 0usize..3,
        rate in 2000.0f64..8000.0,
        n in 60usize..140,
        warmup_s in 0.05f64..0.2,
        crash_at in 0.005f64..0.05,
        recovers_idx in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), max_shards);
        let trace = poisson_trace(&DatasetSpec::mrpc(), rate, n, seed);
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 0.5,
            },
            retire: RetirePolicy::Evict,
            eval_interval_s: 0.01,
            warmup_s,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        };
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: crash_at,
                    recover_s: if recovers_idx == 1 { Some(crash_at * 2.0) } else { None },
                },
            }],
        };
        let r = with_batch_log(|| simulate_autoscale_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            &BatcherConfig::default(),
            &cfg,
            &plan,
            &ClientConfig::patient(),
        ));
        prop_assert_eq!(r.failure.completed + r.failure.timed_out, n);
        // A patient client is only ever stranded by an *unrecovered*
        // outage, which a >1-shard reactive fleet here never reaches.
        prop_assert_eq!(r.failure.completed, n);
        assert_batches_within_membership(&r, cfg.initial_shards);
        prop_assert!(r.shard_seconds > 0.0);
        prop_assert!(r.peak_active_shards <= max_shards);
    }

    /// Retry accounting under a dead fleet: every request spends at most
    /// `attempt_bound()` attempts (the deadline clamps the retry
    /// ladder), the retry ledger is exactly the sum of per-request
    /// attempts, and nothing is double-counted.
    #[test]
    fn retry_counts_bounded_by_deadline_budget(
        n in 4usize..32,
        gap in 0.001f64..0.01,
        timeout_s in 0.005f64..0.05,
        max_retries in 0u32..6,
        backoff_s in 0.0f64..0.02,
        deadline_s in 0.02f64..0.2,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace: Vec<_> = (0..n)
            .map(|i| lat_fpga::hwsim::fleet::Request {
                arrival_s: i as f64 * gap,
                len: 64,
            })
            .collect();
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash { at_s: 0.0, recover_s: None },
            }],
        };
        let client = ClientConfig { timeout_s, max_retries, backoff_s, deadline_s };
        let r = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &BatcherConfig::default(),
            &plan,
            &client,
            0.25,
        );
        let bound = client.attempt_bound();
        prop_assert!(
            r.outcomes.iter().all(|o| o.attempts <= bound),
            "an outcome exceeded the attempt bound {bound}"
        );
        prop_assert_eq!(
            r.outcomes.iter().map(|o| o.attempts as usize).sum::<usize>(),
            r.retries,
            "retry ledger disagrees with per-request attempts"
        );
        // Total outage from t = 0: nothing completes, everything is an
        // explicit timeout — and the report stays NaN-free (the
        // zero-completion regression, property-sized).
        prop_assert_eq!(r.completed, 0);
        prop_assert_eq!(r.timed_out, n);
        prop_assert!(r.outcomes.iter().all(|o| o.disposition == Disposition::TimedOut));
        prop_assert_eq!(r.fleet.completed, 0);
        prop_assert!(!r.fleet.mean_latency_s.is_nan());
        prop_assert!(!r.fleet.mean_batch_size.is_nan());
        prop_assert!(!r.slo_attainment.is_nan());
        prop_assert!(r.phases.iter().all(
            |p| !p.slo_attainment.is_nan() && !p.goodput_seq_s.is_nan() && !p.p95_latency_s.is_nan()
        ));
    }

    /// The full failure pipeline — burst-free trace, crash + straggler
    /// plan, retrying client — is a pure function of the seed: identical
    /// seeds give identical reports (the whole struct, `PartialEq`),
    /// under whatever seed the `HARNESS_SEED` matrix supplies.
    #[test]
    fn deterministic_under_harness_seed(
        shards in 2usize..4,
        n in 30usize..80,
        rate in 1000.0f64..4000.0,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = poisson_trace(&DatasetSpec::rte(), rate, n, harness_seed());
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    shard: 0,
                    kind: FaultKind::Crash { at_s: 0.01, recover_s: Some(0.03) },
                },
                Fault {
                    shard: shards - 1,
                    kind: FaultKind::Straggler { from_s: 0.005, until_s: 0.04, slowdown: 8.0 },
                },
            ],
        };
        let client = ClientConfig {
            timeout_s: 0.05,
            max_retries: 2,
            backoff_s: 0.005,
            deadline_s: 0.5,
        };
        let run = || with_batch_log(|| simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &plan,
            &client,
            0.25,
        ));
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.completed + a.timed_out, n);
    }
}
