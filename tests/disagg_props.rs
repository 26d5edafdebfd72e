//! Property-based pins of the disaggregated prefill/decode serving
//! layer: the two containment reductions (an infinite transfer cost with
//! the cache disabled reduces to colocated `simulate_decode` bit-for-bit;
//! a zero-capacity cache is bit-identical to running with no prefix
//! assignment at all), the hit → evict → miss repricing of the LRU prefix
//! table, `HARNESS_SEED` determinism of the full `DisaggReport` and
//! `DisaggAutoscaleReport` (mirrors `tests/decode_autoscale_props.rs` on
//! the disaggregated engine), and the per-pool scale-up → retire cycle.

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{ScaleEvent, ScaleEventKind, ScalePolicy};
use lat_fpga::hwsim::decode::{
    decode_trace, nonstationary_decode_trace, simulate_decode, DecodeConfig, DecodeRequest,
    DecodeScheduler, KvTransfer, Priority,
};
use lat_fpga::hwsim::disagg::{
    simulate_disagg_autoscale, simulate_disaggregated, DisaggAutoscaleConfig, DisaggConfig,
    DisaggReport, PoolPolicy,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, with_batch_log, DispatchPolicy, RatePhase, RateProfile,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::{PrefixGroup, PrefixProfile};
use proptest::prelude::*;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

/// A finite-priced wire cheap enough that handoffs never dominate.
fn cheap_wire() -> KvTransfer {
    KvTransfer::Copy {
        base_s: 1e-5,
        per_token_s: 1e-8,
    }
}

/// "Never hand off": the legal non-finite copy price.
fn infinite_wire() -> KvTransfer {
    KvTransfer::Copy {
        base_s: f64::INFINITY,
        per_token_s: 0.0,
    }
}

fn rte_trace(rate: f64, n: usize, seed: u64) -> Vec<DecodeRequest> {
    let spec = DatasetSpec::rte();
    decode_trace(&spec, &spec.decode_output(), 0.0, rate, n, seed)
}

fn profile() -> PrefixProfile {
    PrefixProfile {
        num_groups: 3,
        prefix_len: 32,
        grouped_fraction: 0.8,
    }
}

/// A logged run, so that whole-report equalities also compare the step
/// log (one record per iteration of either pool).
fn run_disagg(
    prefill: usize,
    decode: usize,
    trace: &[DecodeRequest],
    prefixes: &[Option<PrefixGroup>],
    dcfg: &DisaggConfig,
) -> DisaggReport {
    with_batch_log(|| {
        simulate_disaggregated(
            &homogeneous_fleet(&tiny_design(64), prefill),
            &homogeneous_fleet(&tiny_design(64), decode),
            trace,
            prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            dcfg,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Containment pin #1: with an infinite transfer price and the
    /// prefix cache disabled, the decode pool is dead weight and the
    /// prefill pool IS a colocated `simulate_decode` fleet — per-request
    /// outcomes, per-shard reports and the headline metrics must match
    /// bit-for-bit (JSQ dispatch, whose shard choice is index-stable
    /// under the trailing always-empty shards).
    #[test]
    fn infinite_transfer_and_zero_cache_reduce_to_colocated(
        prefill_shards in 1usize..4,
        decode_shards in 1usize..3,
        rate in 500.0f64..3000.0,
        n in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        let trace = rte_trace(rate, n, seed);
        // A live prefix assignment proves the cache is inert at capacity
        // 0, not merely unexercised.
        let prefixes = profile().assign(n, seed);
        let d = run_disagg(
            prefill_shards,
            decode_shards,
            &trace,
            &prefixes,
            &DisaggConfig { transfer: infinite_wire(), prefix_cache_capacity: 0 },
        );
        let plain = simulate_decode(
            &homogeneous_fleet(&tiny_design(64), prefill_shards),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
        );
        prop_assert_eq!(d.transfers, 0);
        prop_assert_eq!(d.decode_pool.iterations, 0);
        prop_assert_eq!(d.decode_pool.completed, 0);
        prop_assert_eq!(d.prefix.hits, 0);
        prop_assert_eq!(&d.decode.requests, &plain.requests);
        prop_assert_eq!(
            &d.decode.fleet.shards[..prefill_shards],
            &plain.fleet.shards[..]
        );
        prop_assert_eq!(d.decode.fleet.completed, plain.fleet.completed);
        prop_assert_eq!(d.decode.fleet.makespan_s, plain.fleet.makespan_s);
        prop_assert_eq!(d.decode.generated_tokens, plain.generated_tokens);
        prop_assert_eq!(d.decode.goodput_tok_s, plain.goodput_tok_s);
        prop_assert_eq!(d.decode.ttft_p95_s, plain.ttft_p95_s);
    }

    /// Containment pin #2: a zero-capacity cache prices every request at
    /// full prefill, so the whole simulation — not just the headline
    /// numbers — is bit-identical to running with no prefix assignment at
    /// all. Only the miss counter may differ (capacity 0 still counts the
    /// lookups it refuses).
    #[test]
    fn zero_capacity_cache_is_bit_identical_to_no_prefixes(
        prefill_shards in 1usize..3,
        decode_shards in 1usize..3,
        rate in 500.0f64..3000.0,
        n in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        let trace = rte_trace(rate, n, seed);
        let prefixes = profile().assign(n, seed);
        let dcfg = DisaggConfig { transfer: cheap_wire(), prefix_cache_capacity: 0 };
        let with = run_disagg(prefill_shards, decode_shards, &trace, &prefixes, &dcfg);
        let without = run_disagg(prefill_shards, decode_shards, &trace, &[], &dcfg);
        prop_assert_eq!(&with.decode, &without.decode);
        prop_assert_eq!(with.prefill_pool, without.prefill_pool);
        prop_assert_eq!(with.decode_pool, without.decode_pool);
        prop_assert_eq!(with.transfers, without.transfers);
        prop_assert_eq!(with.transfer_time_s, without.transfer_time_s);
        prop_assert_eq!(with.transferred_tokens, without.transferred_tokens);
        prop_assert_eq!(with.prefix.hits, 0);
        prop_assert_eq!(with.prefix.evictions, 0);
        prop_assert_eq!(with.prefix.tokens_saved, 0);
        prop_assert_eq!(
            with.prefix.misses,
            prefixes.iter().filter(|p| p.is_some()).count()
        );
        prop_assert_eq!(without.prefix.misses, 0);
    }
}

/// Three well-separated requests sharing prefill length 64, prefix
/// groups A, B, A at prefix length 48.
fn aba_trace_and_prefixes() -> (Vec<DecodeRequest>, Vec<Option<PrefixGroup>>) {
    let trace: Vec<DecodeRequest> = (0..3)
        .map(|i| DecodeRequest {
            arrival_s: i as f64 * 0.01,
            prefill_len: 64,
            output_len: 4,
            priority: Priority::Normal,
        })
        .collect();
    let prefixes = [0u64, 1, 0]
        .iter()
        .map(|&group| {
            Some(PrefixGroup {
                group,
                prefix_len: 48,
            })
        })
        .collect();
    (trace, prefixes)
}

/// The LRU repricing pin: under capacity 1 the A–B–A group pattern
/// thrashes (B evicts A, A's return evicts B and pays full prefill
/// again); under capacity 2 both groups stay resident and A's return
/// hits, skipping the shared 48 tokens — observable as a strictly
/// smaller TTFT for that request and nowhere else.
#[test]
fn hit_then_evict_then_miss_reprices_full_prefill() {
    let (trace, prefixes) = aba_trace_and_prefixes();
    let run = |capacity| {
        run_disagg(
            1,
            1,
            &trace,
            &prefixes,
            &DisaggConfig {
                transfer: cheap_wire(),
                prefix_cache_capacity: capacity,
            },
        )
    };
    let thrash = run(1);
    assert_eq!(thrash.prefix.hits, 0);
    assert_eq!(thrash.prefix.misses, 3);
    assert_eq!(thrash.prefix.evictions, 2);
    assert_eq!(thrash.prefix.tokens_saved, 0);

    let warm = run(2);
    assert_eq!(warm.prefix.hits, 1);
    assert_eq!(warm.prefix.misses, 2);
    assert_eq!(warm.prefix.evictions, 0);
    assert_eq!(warm.prefix.tokens_saved, 48);

    // Requests 0 and 1 never hit in either run: identical outcomes.
    for r in 0..2 {
        assert_eq!(thrash.decode.requests[r], warm.decode.requests[r]);
    }
    // Request 2 is repriced: full 64-token prefill when its entry was
    // evicted, 16 tokens after the capacity-2 hit.
    assert!(
        warm.decode.requests[2].ttft_s < thrash.decode.requests[2].ttft_s,
        "cache hit did not speed up the re-arriving group (warm {} !< thrashed {})",
        warm.decode.requests[2].ttft_s,
        thrash.decode.requests[2].ttft_s
    );
    // And the discount is the only difference: re-running either
    // configuration reproduces it bit-for-bit.
    assert_eq!(run(1), thrash);
    assert_eq!(run(2), warm);
}

/// `HARNESS_SEED`-matrix determinism: under whatever seed CI exports,
/// both disaggregated entry points are pure functions of their inputs —
/// the full report structs (per-request vectors, pool rollups, cache
/// counters, scale events) must be identical across repeated runs.
#[test]
fn disagg_reports_are_deterministic_under_harness_seed() {
    let seed = harness_seed();
    let trace = rte_trace(1500.0, 80, seed);
    let prefixes = profile().assign(trace.len(), seed);
    let dcfg = DisaggConfig {
        transfer: cheap_wire(),
        prefix_cache_capacity: 2,
    };
    let a = run_disagg(2, 2, &trace, &prefixes, &dcfg);
    let b = run_disagg(2, 2, &trace, &prefixes, &dcfg);
    assert_eq!(a, b);

    let acfg = DisaggAutoscaleConfig {
        prefill: PoolPolicy::pinned(2),
        decode: PoolPolicy {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 0.5,
                scale_down_depth: 0.0,
            },
        },
        eval_interval_s: 0.005,
        warmup_s: 0.002,
        cooldown_s: 0.0,
    };
    let run = || {
        with_batch_log(|| {
            simulate_disagg_autoscale(
                &homogeneous_fleet(&tiny_design(64), 2),
                &homogeneous_fleet(&tiny_design(64), 2),
                &trace,
                &prefixes,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &dcfg,
                &acfg,
            )
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.disagg.decode.fleet.completed, trace.len());
}

/// Burst → long trickle, in the decode engine's request shape: the burst
/// backs both pools up past their reactive thresholds, the trickle lets
/// them fall back below `scale_down_depth`.
fn burst_then_trickle_trace(seed: u64) -> Vec<DecodeRequest> {
    let spec = DatasetSpec::rte();
    nonstationary_decode_trace(
        &spec,
        &spec.decode_output(),
        0.0,
        &RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 0.003,
                rate: 200_000.0,
            },
            RatePhase {
                duration_s: 1.0,
                rate: 1000.0,
            },
        ]),
        800,
        seed,
    )
}

/// The disagg retire path: with reactive policies and a positive
/// `scale_down_depth` on both pools, each pool launches a shard during
/// the burst and retires one during the trickle. Every request still
/// completes, each pool's events stay inside its own index range, the
/// merged log is time-sorted, and replaying a pool's own events never
/// takes its committed count below its floor.
#[test]
fn disagg_pools_scale_up_then_down() {
    let seed = harness_seed();
    let trace = burst_then_trickle_trace(seed);
    let pool = |scale_up_depth| PoolPolicy {
        min_shards: 1,
        initial_shards: 1,
        policy: ScalePolicy::Reactive {
            scale_up_depth,
            scale_down_depth: 0.5,
        },
    };
    let acfg = DisaggAutoscaleConfig {
        prefill: pool(2.0),
        // The decode pool sees the prefill pool's output, which one
        // prefill shard meters out: a lower bar still fires in the burst.
        decode: pool(1.0),
        eval_interval_s: 0.002,
        warmup_s: 0.001,
        cooldown_s: 0.0,
    };
    let r = simulate_disagg_autoscale(
        &homogeneous_fleet(&tiny_design(64), 2),
        &homogeneous_fleet(&tiny_design(64), 2),
        &trace,
        &[],
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        DecodeScheduler::Continuous,
        &DecodeConfig::default(),
        &DisaggConfig {
            transfer: cheap_wire(),
            prefix_cache_capacity: 0,
        },
        &acfg,
    );
    assert_eq!(r.disagg.decode.fleet.completed, trace.len());
    assert!(
        r.scale_events
            .windows(2)
            .all(|w| w[0].time_s <= w[1].time_s),
        "scale events out of time order"
    );
    assert!(
        r.scale_events.iter().all(|e| e.shard < 4),
        "scale event outside both pools: {:?}",
        r.scale_events
    );
    for (name, range, min) in [
        ("prefill", 0..2, acfg.prefill.min_shards),
        ("decode", 2..4, acfg.decode.min_shards),
    ] {
        let events: Vec<&ScaleEvent> = r
            .scale_events
            .iter()
            .filter(|e| range.contains(&e.shard))
            .collect();
        // Replay the pool's own log from its initial state (shard
        // `range.start` warm, the other off): 0 off, 1 warming, 2 active,
        // 3 retiring.
        let mut state: Vec<u8> = range
            .clone()
            .map(|s| if s == range.start { 2 } else { 0 })
            .collect();
        let mut launched = false;
        let mut retired = false;
        for e in &events {
            let local = e.shard - range.start;
            state[local] = match (state[local], e.kind) {
                (0, ScaleEventKind::Launch) => {
                    launched = true;
                    1
                }
                (1, ScaleEventKind::Join) | (3, ScaleEventKind::Join) => 2,
                (2, ScaleEventKind::RetireStart) => 3,
                (3, ScaleEventKind::Retired) => {
                    retired = true;
                    0
                }
                (st, kind) => panic!("{name} shard {}: {kind:?} in state {st}", e.shard),
            };
            let committed = state.iter().filter(|&&x| x != 0).count();
            assert_eq!(e.on_after, committed, "{name} pool books drifted at {e:?}");
            assert!(
                e.on_after >= min,
                "{name} pool fell to {} < min {min} after {:?} of shard {} at t={}",
                e.on_after,
                e.kind,
                e.shard,
                e.time_s
            );
        }
        assert!(launched, "{name} pool never launched a shard: {events:?}");
        assert!(retired, "{name} pool never retired a shard: {events:?}");
    }
}
