//! Properties of the deterministic work pool (`lat_core::pool`): worker
//! count must never change any output. Generic `par_map_indexed`
//! properties first, then the contract the ablation binaries rely on —
//! for each ablation bin's sweep grid, a 1-worker (serial) pool and a
//! 4-worker pool produce bit-identical report vectors under
//! `HARNESS_SEED` (and the `PROPTEST_SEED` matrix CI drives).

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::core::pool::Scheduler;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{
    simulate_autoscale, simulate_decode_autoscale, AutoscaleConfig, DecodeScaleDown, RetirePolicy,
    ScalePolicy,
};
use lat_fpga::hwsim::decode::{
    decode_trace, simulate_decode, DecodeConfig, DecodeScheduler, KvTransfer,
};
use lat_fpga::hwsim::disagg::{simulate_disaggregated, DisaggConfig};
use lat_fpga::hwsim::failure::{simulate_fleet_failure, ClientConfig, Fault, FaultKind, FaultPlan};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, with_batch_log, BatcherConfig, DispatchPolicy,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::PrefixProfile;
use proptest::prelude::*;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

/// Worker counts the bin sweeps are pinned at: serial and the 4-worker
/// pool the acceptance bench times.
const PINNED_WORKERS: usize = 4;

// ── Generic pool properties ─────────────────────────────────────────────

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    /// `par_map_indexed` is a map: same length, same index→result
    /// mapping as the serial iterator, for any worker count.
    #[test]
    fn par_map_is_order_preserving_for_any_worker_count(
        items in proptest::collection::vec(0u64..1_000_000, 0..64),
        workers in 1usize..9,
    ) {
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial: Vec<u64> = items.iter().map(f).collect();
        let pooled = Scheduler::new(workers).par_map_indexed(&items, f);
        prop_assert_eq!(pooled, serial);
    }

    /// Work skew (index-dependent cost) must not reorder results.
    #[test]
    fn par_map_survives_skewed_work(workers in 2usize..8) {
        let items: Vec<usize> = (0..31).collect();
        let f = |&i: &usize| -> usize {
            // Early indices do ~1000× the work of late ones.
            let spins = if i < 4 { 20_000 } else { 20 };
            let mut acc = i;
            for k in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            // Result depends only on the index, not the spin count.
            std::hint::black_box(acc);
            i * i
        };
        let serial: Vec<usize> = items.iter().map(f).collect();
        prop_assert_eq!(Scheduler::new(workers).par_map_indexed(&items, f), serial);
    }
}

// ── Per-bin sweep grids: serial ≡ 4 workers, bit-identical ──────────────

/// Runs every cell with the batch log on, so the comparison covers the
/// logs too. The switch is per thread: each worker turns it on itself.
fn run_with<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(cells: &[T], f: F) -> (Vec<R>, Vec<R>) {
    let logged = |cell: &T| with_batch_log(|| f(cell));
    (
        Scheduler::serial().par_map_indexed(cells, logged),
        Scheduler::new(PINNED_WORKERS).par_map_indexed(cells, logged),
    )
}

#[test]
fn fleet_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let fleet = homogeneous_fleet(&design, 2);
    let mix = DatasetSpec::mrpc();
    let cells: Vec<(f64, DispatchPolicy)> = [120.0f64, 400.0]
        .iter()
        .flat_map(|&rate| DispatchPolicy::ALL.iter().map(move |&d| (rate, d)))
        .collect();
    let (serial, parallel) = run_with(&cells, |&(rate, d)| {
        let trace = poisson_trace(&mix, rate, 60, harness_seed());
        simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            d,
            &BatcherConfig::default(),
        )
    });
    assert_eq!(serial, parallel, "fleet sweep diverged under 4 workers");
    assert!(serial.iter().all(|r| r.completed == 60));
}

#[test]
fn decode_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let mix = DatasetSpec::mrpc();
    let trace = decode_trace(&mix, &mix.decode_output(), 0.2, 300.0, 48, harness_seed());
    let cells: Vec<(usize, DecodeScheduler)> = [1usize, 3]
        .iter()
        .flat_map(|&n| DecodeScheduler::ALL.into_iter().map(move |s| (n, s)))
        .collect();
    let (serial, parallel) = run_with(&cells, |&(n, scheduler)| {
        simulate_decode(
            &homogeneous_fleet(&design, n),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            scheduler,
            &DecodeConfig::default(),
        )
    });
    assert_eq!(serial, parallel, "decode sweep diverged under 4 workers");
    assert!(serial.iter().all(|r| r.fleet.completed == 48));
}

#[test]
fn autoscale_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let fleet = homogeneous_fleet(&design, 3);
    let trace = poisson_trace(&DatasetSpec::mrpc(), 500.0, 60, harness_seed());
    let cfg = |policy| AutoscaleConfig {
        min_shards: 1,
        initial_shards: 1,
        policy,
        retire: RetirePolicy::Drain,
        eval_interval_s: 0.05,
        warmup_s: 0.05,
        cooldown_s: 0.1,
        slo_latency_s: 0.25,
        phase_bounds_s: Vec::new(),
    };
    let cells = [
        cfg(ScalePolicy::Reactive {
            scale_up_depth: 4.0,
            scale_down_depth: 1.0,
        }),
        cfg(ScalePolicy::UtilizationTarget {
            low: 0.2,
            high: 0.8,
        }),
    ];
    let (serial, parallel) = run_with(&cells, |c| {
        simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            c,
        )
    });
    assert_eq!(serial, parallel, "autoscale sweep diverged under 4 workers");
}

#[test]
fn decode_autoscale_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let fleet = homogeneous_fleet(&design, 3);
    let mix = DatasetSpec::mrpc();
    let trace = decode_trace(&mix, &mix.decode_output(), 0.2, 400.0, 48, harness_seed());
    let cells = [DecodeScaleDown::Drain, DecodeScaleDown::Migrate].map(|retire| AutoscaleConfig {
        retire,
        ..AutoscaleConfig::default()
    });
    let (serial, parallel) = run_with(&cells, |c| {
        simulate_decode_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            c,
        )
    });
    assert_eq!(
        serial, parallel,
        "decode-autoscale sweep diverged under 4 workers"
    );
}

#[test]
fn failure_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let fleet = homogeneous_fleet(&design, 2);
    let trace = poisson_trace(&DatasetSpec::mrpc(), 300.0, 60, harness_seed());
    let plan = FaultPlan {
        faults: vec![Fault {
            shard: 0,
            kind: FaultKind::Crash {
                at_s: 0.05,
                recover_s: Some(0.12),
            },
        }],
    };
    let retrying = ClientConfig {
        timeout_s: 0.4,
        max_retries: 2,
        backoff_s: 0.01,
        deadline_s: 3.0,
    };
    let cells: Vec<(DispatchPolicy, ClientConfig)> = DispatchPolicy::ALL
        .iter()
        .flat_map(|&d| [(d, ClientConfig::patient()), (d, retrying)])
        .collect();
    let (serial, parallel) = run_with(&cells, |(d, client)| {
        simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            *d,
            &BatcherConfig::default(),
            &plan,
            client,
            0.25,
        )
    });
    assert_eq!(serial, parallel, "failure sweep diverged under 4 workers");
    // The crash is observable (phases partition the trace) in every cell.
    for r in &serial {
        assert_eq!(r.phases.iter().map(|p| p.arrivals).sum::<usize>(), 60);
    }
}

#[test]
fn disagg_sweep_is_identical_serial_and_parallel() {
    let design = tiny_design(64);
    let prefill = homogeneous_fleet(&design, 2);
    let decode_pool = homogeneous_fleet(&design, 2);
    let mix = DatasetSpec::rte();
    let trace = decode_trace(&mix, &mix.decode_output(), 0.0, 800.0, 48, harness_seed());
    let prefixes = PrefixProfile {
        num_groups: 3,
        prefix_len: 32,
        grouped_fraction: 0.8,
    }
    .assign(trace.len(), harness_seed());
    let cheap = KvTransfer::Copy {
        base_s: 1e-5,
        per_token_s: 1e-8,
    };
    let costly = KvTransfer::Copy {
        base_s: 5e-3,
        per_token_s: 1e-5,
    };
    let cells: Vec<DisaggConfig> = [cheap, costly, KvTransfer::Reprefill]
        .iter()
        .flat_map(|&transfer| {
            [0usize, 3].iter().map(move |&capacity| DisaggConfig {
                transfer,
                prefix_cache_capacity: capacity,
            })
        })
        .collect();
    let (serial, parallel) = run_with(&cells, |dcfg| {
        simulate_disaggregated(
            &prefill,
            &decode_pool,
            &trace,
            &prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            dcfg,
        )
    });
    assert_eq!(serial, parallel, "disagg sweep diverged under 4 workers");
    assert!(serial.iter().all(|r| r.decode.fleet.completed == 48));
}
