//! Property-based tests of the autoscaling layer's invariants under
//! nonstationary load: request conservation across scaling events, the
//! pinned min==max autoscaler reproducing `simulate_fleet` bit-for-bit,
//! warm-up never admitting work to a cold shard, drain-on-retire never
//! dropping work, and `HARNESS_SEED` determinism of the full
//! `AutoscaleReport` (mirrors `tests/fleet_props.rs` and
//! `tests/decode_props.rs`).

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{
    simulate_autoscale, AutoscaleConfig, AutoscaleReport, RetirePolicy, ScaleEventKind,
    ScalePolicy, SchedulePhase,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet, with_batch_log,
    BatcherConfig, DispatchPolicy, RatePhase, RateProfile,
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

fn retire_from_index(i: usize) -> RetirePolicy {
    [RetirePolicy::Drain, RetirePolicy::Evict][i % 2]
}

/// A scaling policy that will actually act under the bursty test traffic.
fn policy_from_index(i: usize, min_shards: usize, max_shards: usize) -> ScalePolicy {
    match i % 4 {
        0 => ScalePolicy::Reactive {
            scale_up_depth: 6.0,
            scale_down_depth: 1.0,
        },
        1 => ScalePolicy::UtilizationTarget {
            low: 0.2,
            high: 0.8,
        },
        2 => ScalePolicy::Scheduled(vec![
            SchedulePhase {
                start_s: 0.3,
                shards: max_shards,
            },
            SchedulePhase {
                start_s: 1.1,
                shards: min_shards,
            },
        ]),
        // Forecast-driven: the declared capacity is far below the burst
        // rate, so the EWMA forecast drives both scale directions.
        _ => ScalePolicy::Predictive {
            shard_capacity: 500.0,
            horizon_s: 0.1,
            alpha: 0.5,
            period_s: None,
        },
    }
}

/// Quiet → burst → quiet: rates that force both scale directions on tiny
/// shards (a tiny shard sustains ~78k seq/s, so queues come from the
/// batching window, not service saturation).
fn bursty_profile(burst_rate: f64) -> RateProfile {
    RateProfile::Piecewise(vec![
        RatePhase {
            duration_s: 0.5,
            rate: 40.0,
        },
        RatePhase {
            duration_s: 0.5,
            rate: burst_rate,
        },
        RatePhase {
            duration_s: 1.0,
            rate: 40.0,
        },
    ])
}

/// Every batch must run inside one of its shard's membership windows:
/// initially-active shards are allowed until their first `Retired`, later
/// shards only between `Join` and `Retired`. This is at once the
/// "warm-up never admits work to a cold shard" and the "retired means
/// retired" invariant.
fn assert_batches_within_membership(r: &AutoscaleReport, initial_shards: usize) {
    assert!(!r.fleet.batch_log.is_empty(), "empty batch log");
    for b in &r.fleet.batch_log {
        let mut allowed = b.shard < initial_shards;
        for e in r.scale.scale_events.iter().filter(|e| e.shard == b.shard) {
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

/// Per shard, the event log must be a well-formed lifecycle sequence:
/// Launch → Join → RetireStart → (Retired → Launch → … | Join → …); a
/// bare Join from the retiring state is a recall (the shard rejoined
/// dispatch without draining out).
fn assert_event_log_well_formed(r: &AutoscaleReport, initial_shards: usize, max_shards: usize) {
    for s in 0..max_shards {
        // Initially-active shards start life already joined.
        let mut state = if s < initial_shards { 2u8 } else { 0 };
        for e in r.scale.scale_events.iter().filter(|e| e.shard == s) {
            state = match (state, e.kind) {
                (0, ScaleEventKind::Launch) => 1,
                (1, ScaleEventKind::Join) => 2,
                (2, ScaleEventKind::RetireStart) => 3,
                (3, ScaleEventKind::Retired) => 0,
                (3, ScaleEventKind::Join) => 2, // recall of a draining shard
                _ => panic!("shard {s}: {:?} out of order (state {state})", e.kind),
            };
        }
    }
    assert!(
        r.scale
            .scale_events
            .windows(2)
            .all(|w| w[0].time_s <= w[1].time_s),
        "scale events out of time order"
    );
}

/// Replaying the event log, the count of shards committed *going forward*
/// (warming or active — not draining) must never fall below `min_shards`:
/// in-progress drains must not stack further retires past the floor.
fn assert_min_floor(
    r: &AutoscaleReport,
    initial_shards: usize,
    min_shards: usize,
    max_shards: usize,
) {
    let mut state: Vec<u8> = (0..max_shards)
        .map(|s| if s < initial_shards { 2 } else { 0 })
        .collect();
    for e in &r.scale.scale_events {
        state[e.shard] = match e.kind {
            ScaleEventKind::Launch => 1,
            ScaleEventKind::Join => 2,
            ScaleEventKind::RetireStart => 3,
            ScaleEventKind::Retired | ScaleEventKind::Failed => 0,
            ScaleEventKind::Recovered => state[e.shard],
        };
        let staying = state.iter().filter(|&&x| x == 1 || x == 2).count();
        assert!(
            staying >= min_shards,
            "committed fleet fell to {staying} < min {min_shards} after {:?} of shard {} at t={}",
            e.kind,
            e.shard,
            e.time_s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scaling events re-route and delay work but never drop or duplicate
    /// it: every request completes exactly once, whatever the policy,
    /// retire semantics, dispatch, warm-up, or load shape.
    #[test]
    fn conservation_under_scaling_events(
        max_shards in 3usize..5,
        min_shards in 1usize..3,
        policy_idx in 0usize..4,
        retire_idx in 0usize..2,
        dispatch_idx in 0usize..3,
        burst_rate in 1000.0f64..8000.0,
        warmup_s in 0.0f64..0.2,
        n in 40usize..140,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), max_shards);
        let trace = nonstationary_poisson_trace(
            &DatasetSpec::mrpc(),
            &bursty_profile(burst_rate),
            n,
            seed,
        );
        let cfg = AutoscaleConfig {
            min_shards,
            initial_shards: min_shards,
            policy: policy_from_index(policy_idx, min_shards, max_shards),
            retire: retire_from_index(retire_idx),
            eval_interval_s: 0.05,
            warmup_s,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        };
        let r = with_batch_log(|| simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            &BatcherConfig::default(),
            &cfg,
        ));
        prop_assert_eq!(r.fleet.completed, n);
        prop_assert_eq!(r.fleet.shards.iter().map(|s| s.completed).sum::<usize>(), n);
        prop_assert_eq!(r.fleet.batch_log.iter().map(|b| b.size).sum::<usize>(), n);
        prop_assert!(r.scale.peak_active_shards <= max_shards);
        prop_assert!(r.scale.mean_active_shards >= 1.0 - 1e-9);
        prop_assert!(r.scale.mean_active_shards <= max_shards as f64 + 1e-9);
        prop_assert!(r.scale.shard_seconds > 0.0);
        // Cost can never exceed the whole fleet running the whole time
        // (shard-seconds may close slightly past the makespan when a
        // retire lands on a post-completion tick, hence the epsilon).
        prop_assert!(
            r.scale.shard_seconds
                <= max_shards as f64 * r.fleet.makespan_s + max_shards as f64 * 0.1 + 1e-9
        );
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r.slo_attainment));
        assert_event_log_well_formed(&r, min_shards, max_shards);
        assert_batches_within_membership(&r, min_shards);
        assert_min_floor(&r, min_shards, min_shards, max_shards);
    }

    /// A pinned autoscaler at min == max == fleet size is bit-for-bit
    /// `simulate_fleet`: same report, no scale events, cost = shards ×
    /// makespan. A *reactive* policy clamped by min == max must coincide
    /// too — the clamp leaves it nothing to do.
    #[test]
    fn min_eq_max_reproduces_simulate_fleet_bit_for_bit(
        shards in 1usize..4,
        dispatch_idx in 0usize..3,
        rate in 100.0f64..4000.0,
        n in 16usize..64,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = poisson_trace(&DatasetSpec::rte(), rate, n, seed);
        let dispatch = dispatch_from_index(dispatch_idx);
        let batcher = BatcherConfig::default();
        let fixed = with_batch_log(|| simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch,
            &batcher,
        ));
        for policy in [
            ScalePolicy::Pinned,
            ScalePolicy::Reactive { scale_up_depth: 4.0, scale_down_depth: 1.0 },
        ] {
            let auto = with_batch_log(|| simulate_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                dispatch,
                &batcher,
                &AutoscaleConfig {
                    min_shards: shards,
                    initial_shards: shards,
                    policy,
                    eval_interval_s: 0.05,
                    ..AutoscaleConfig::default()
                },
            ));
            prop_assert_eq!(&auto.fleet, &fixed);
            prop_assert!(auto.scale.scale_events.is_empty());
            prop_assert_eq!(auto.scale.peak_active_shards, shards);
            prop_assert!(
                (auto.scale.shard_seconds - shards as f64 * fixed.makespan_s).abs() < 1e-9
            );
        }
    }

    /// The warm-up delay is real: a launched shard runs no batch before
    /// its join, and every join trails its launch by exactly the warm-up.
    #[test]
    fn warmup_never_admits_work_to_a_cold_shard(
        max_shards in 2usize..5,
        retire_idx in 0usize..2,
        warmup_s in 0.05f64..0.3,
        burst_rate in 2000.0f64..8000.0,
        n in 60usize..140,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), max_shards);
        let trace = nonstationary_poisson_trace(
            &DatasetSpec::mrpc(),
            &bursty_profile(burst_rate),
            n,
            seed,
        );
        let r = with_batch_log(|| simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Reactive { scale_up_depth: 4.0, scale_down_depth: 1.0 },
                retire: retire_from_index(retire_idx),
                eval_interval_s: 0.05,
                warmup_s,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        ));
        assert_batches_within_membership(&r, 1);
        let events = &r.scale.scale_events;
        for (i, e) in events.iter().enumerate() {
            if e.kind != ScaleEventKind::Join {
                continue;
            }
            let launch = events[..i]
                .iter()
                .rev()
                .find(|l| l.shard == e.shard && l.kind == ScaleEventKind::Launch)
                .expect("join without a preceding launch");
            prop_assert!(
                (e.time_s - launch.time_s - warmup_s).abs() < 1e-9,
                "join at {} after launch at {} != warm-up {}",
                e.time_s,
                launch.time_s,
                warmup_s
            );
        }
    }

    /// Drain-on-retire never drops work: whatever was queued on a
    /// retiring shard completes (on that shard), and the shard only
    /// reports `Retired` once no further batch runs on it.
    #[test]
    fn drain_on_retire_never_drops_residents(
        max_shards in 2usize..5,
        policy_idx in 0usize..4,
        burst_rate in 2000.0f64..8000.0,
        n in 60usize..140,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), max_shards);
        let trace = nonstationary_poisson_trace(
            &DatasetSpec::mrpc(),
            &bursty_profile(burst_rate),
            n,
            seed,
        );
        let r = with_batch_log(|| simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: max_shards, // start big: guarantees retires
                policy: policy_from_index(policy_idx, 1, max_shards),
                retire: RetirePolicy::Drain,
                eval_interval_s: 0.05,
                warmup_s: 0.1,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        ));
        // Conservation is the "nothing dropped" half…
        prop_assert_eq!(r.fleet.completed, n);
        prop_assert_eq!(r.fleet.batch_log.iter().map(|b| b.size).sum::<usize>(), n);
        // …and the membership windows are the "drained before retired"
        // half: no batch may start on a shard after its Retired event.
        assert_event_log_well_formed(&r, max_shards, max_shards);
        assert_batches_within_membership(&r, max_shards);
    }

    /// Bit-identical `AutoscaleReport`s when re-run from
    /// `HARNESS_SEED`-derived traces: no hidden nondeterminism in the
    /// controller or the engine.
    #[test]
    fn deterministic_under_harness_seed(
        max_shards in 2usize..5,
        policy_idx in 0usize..4,
        retire_idx in 0usize..2,
        dispatch_idx in 0usize..3,
        n in 40usize..100,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), max_shards);
        let trace = nonstationary_poisson_trace(
            &DatasetSpec::rte(),
            &bursty_profile(4000.0),
            n,
            harness_seed(),
        );
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 2.min(max_shards),
            policy: policy_from_index(policy_idx, 1, max_shards),
            retire: retire_from_index(retire_idx),
            eval_interval_s: 0.05,
            warmup_s: 0.1,
            cooldown_s: 0.05,
            phase_bounds_s: vec![0.5, 1.0],
            ..AutoscaleConfig::default()
        };
        let go = || with_batch_log(|| simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            &BatcherConfig::default(),
            &cfg,
        ));
        prop_assert_eq!(go(), go());
    }
}
