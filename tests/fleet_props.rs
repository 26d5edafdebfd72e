//! Property-based tests of the event-driven fleet engine's invariants:
//! request conservation, determinism under `HARNESS_SEED`, and
//! length-binned routing partitioning the trace.

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every request completes exactly once, whatever the shard count,
    /// dispatch policy, batching parameters, or load.
    #[test]
    fn conservation_across_fleet_configs(
        shards in 1usize..5,
        dispatch_idx in 0usize..3,
        rate in 20.0f64..3000.0,
        max_batch in 1usize..24,
        window_ms in 0.0f64..80.0,
        n in 10usize..50,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = poisson_trace(&DatasetSpec::rte(), rate, n, seed);
        let cfg = BatcherConfig {
            batch_window_s: window_ms / 1e3,
            max_batch,
        };
        let r = with_batch_log(|| simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            &cfg,
        ));
        prop_assert_eq!(r.completed, n);
        prop_assert_eq!(r.shards.iter().map(|s| s.completed).sum::<usize>(), n);
        prop_assert_eq!(r.batch_log.iter().map(|b| b.size).sum::<usize>(), n);
        // No shard exceeds the cap, utilizations and percentiles sane.
        prop_assert!(r.batch_log.iter().all(|b| b.size <= max_batch && b.size > 0));
        prop_assert!(r.shards.iter().all(|s| (0.0..=1.0).contains(&s.utilization)));
        prop_assert!(r.mean_latency_s > 0.0);
        prop_assert!(r.p50_latency_s <= r.p95_latency_s && r.p95_latency_s <= r.p99_latency_s);
    }

    /// Bit-identical reports when re-run from `HARNESS_SEED`-derived
    /// traces: the engine has no hidden nondeterminism.
    #[test]
    fn deterministic_under_harness_seed(
        shards in 1usize..4,
        dispatch_idx in 0usize..3,
        rate in 50.0f64..1500.0,
        n in 10usize..40,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = poisson_trace(&DatasetSpec::mrpc(), rate, n, harness_seed());
        let run = || with_batch_log(|| simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            &BatcherConfig::default(),
        ));
        prop_assert_eq!(run(), run());
    }

    /// Arrivals are never lost to routing: per-shard completions partition
    /// the trace under length-binned dispatch on a heterogeneous fleet.
    #[test]
    fn length_binned_partitions_requests(
        rate in 50.0f64..2000.0,
        n in 10usize..40,
        seed in 0u64..1_000_000,
    ) {
        let fleet = vec![tiny_design(64), tiny_design(256)];
        let trace = poisson_trace(&DatasetSpec::squad_v1(), rate, n, seed);
        let r = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::LengthBinned,
            &BatcherConfig::default(),
        );
        prop_assert_eq!(r.shards[0].completed + r.shards[1].completed, n);
        // Short requests (≤64) are exactly the short shard's share.
        let short = trace.iter().filter(|q| q.len <= 64).count();
        prop_assert_eq!(r.shards[0].completed, short);
    }
}
