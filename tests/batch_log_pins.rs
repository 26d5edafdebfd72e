//! Byte pins of the batch log, and of the switch that turns it on. Each
//! pin runs an engine inside `with_batch_log` and hashes the `{:?}`
//! rendering of its `batch_log` with FNV-1a, so any change to what the
//! engines log — a launch record, a straggler's re-priced completion, a
//! crash rollback or truncation — moves a constant. The same run outside
//! the scope must have an empty log and otherwise equal the logged
//! report field for field. The failure runs put a straggler and a crash
//! (with recovery) on busy shards, so every failure pin covers the
//! reprice and the rollback (fleet) or truncation (decode) of an
//! in-flight batch.
//!
//! The entry points no other constant covers (the preempting decode
//! scheduler and the three autoscalers) also pin the `{:?}` bytes of
//! their whole logged report, so a change to any field they return moves
//! a constant. The autoscalers pin a value fingerprint too
//! ([`value_fold`]), which moves only when a value does: a change that
//! renames or nests report fields moves the `{:?}` pin and keeps it.

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{
    simulate_autoscale, simulate_decode_autoscale, AutoscaleConfig, DecodeScaleDown, RetirePolicy,
    ScaleBooks, ScaleEvent, ScaleEventKind, ScalePolicy,
};
use lat_fpga::hwsim::decode::{
    decode_trace, nonstationary_decode_trace, simulate_decode, DecodeConfig, DecodeRequest,
    DecodeScheduler, KvTransfer, Priority,
};
use lat_fpga::hwsim::disagg::{
    simulate_disagg_autoscale, simulate_disaggregated, DisaggAutoscaleConfig, DisaggConfig,
    PoolPolicy,
};
use lat_fpga::hwsim::failure::{
    simulate_decode_failure, simulate_fleet_failure, ClientConfig, Fault, FaultKind, FaultPlan,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet, with_batch_log,
    BatcherConfig, DispatchPolicy, FleetReport, RatePhase, RateProfile, Request,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::PrefixProfile;
use std::fmt::Debug;

#[path = "support/value_fold.rs"]
mod value_fold;
use value_fold::value_fold;

/// Fixed seed: the pins must not move with `HARNESS_SEED`.
const SEED: u64 = 42;

fn tiny_fleet(shards: usize) -> Vec<AcceleratorDesign> {
    let design = AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    );
    homogeneous_fleet(&design, shards)
}

/// FNV-1a over the `{:?}` bytes of a log or a whole report.
fn fnv1a(x: &impl Debug) -> u64 {
    format!("{x:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Pins the value fingerprint of `x` to `want`.
fn assert_values(what: &str, x: &impl Debug, want: u64) {
    let got = value_fold(x);
    assert_eq!(got, want, "{what}: values fold to {got:#018x}");
}

/// Runs `run` inside and outside `with_batch_log`. Pins the logged
/// run's log to `want` and checks that Σ `ShardReport::batches` is its
/// length: the fleet's crash rollback drops a batch from both, decode's
/// crash truncation keeps it in both. The unlogged run's log must be
/// empty, and the two reports equal once the logged one's log is taken.
/// Returns the logged report, log included.
fn assert_pinned<R: PartialEq + Debug>(
    what: &str,
    run: impl Fn() -> R,
    fleet: impl Fn(&mut R) -> &mut FleetReport,
    want: u64,
) -> R {
    let mut logged = with_batch_log(&run);
    let mut plain = run();
    assert!(
        fleet(&mut plain).batch_log.is_empty(),
        "{what}: logged outside with_batch_log"
    );
    let logged_fleet = fleet(&mut logged);
    let log = std::mem::take(&mut logged_fleet.batch_log);
    assert!(!log.is_empty(), "{what}: empty batch log");
    let got = fnv1a(&log);
    assert_eq!(
        got,
        want,
        "{what}: batch log of {} records hashes to {got:#018x}",
        log.len()
    );
    let batches: usize = logged_fleet.shards.iter().map(|s| s.batches).sum();
    assert_eq!(batches, log.len(), "{what}: Σ batches != log length");
    assert_eq!(logged, plain, "{what}: the log changed another field");
    fleet(&mut logged).batch_log = log;
    logged
}

fn fleet_trace() -> Vec<Request> {
    poisson_trace(&DatasetSpec::rte(), 200_000.0, 400, SEED)
}

fn run_fleet() -> FleetReport {
    simulate_fleet(
        &tiny_fleet(3),
        &fleet_trace(),
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &BatcherConfig::default(),
    )
}

/// Back-to-back long generations: every shard decodes without a gap
/// until about 0.9 ms.
fn decode_requests() -> Vec<DecodeRequest> {
    (0..30)
        .map(|i| DecodeRequest {
            arrival_s: i as f64 * 2e-5,
            prefill_len: 48,
            output_len: 300 + 37 * (i % 7),
            priority: Priority::Normal,
        })
        .collect()
}

/// A ×8 straggler on shard 1 over `slow` and a crash of shard 0 over
/// `down` (crash, recovery), each placed inside a batch its shard is
/// running.
fn crash_and_straggler(slow: (f64, f64), down: (f64, f64)) -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 1,
                kind: FaultKind::Straggler {
                    from_s: slow.0,
                    until_s: slow.1,
                    slowdown: 8.0,
                },
            },
            Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: down.0,
                    recover_s: Some(down.1),
                },
            },
        ],
    }
}

#[test]
fn fleet_batch_log_bytes_pinned() {
    assert_pinned("simulate_fleet", run_fleet, |r| r, 0x8f40_e91f_62eb_c0e7);
}

#[test]
fn decode_batch_log_bytes_pinned() {
    let run = || {
        simulate_decode(
            &tiny_fleet(3),
            &decode_requests(),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
        )
    };
    assert_pinned(
        "simulate_decode",
        run,
        |r| &mut r.fleet,
        0x3dd0_4352_4bcc_b357,
    );
}

#[test]
fn disagg_batch_log_bytes_pinned() {
    let trace = decode_requests();
    let prefixes = PrefixProfile {
        num_groups: 3,
        prefix_len: 32,
        grouped_fraction: 0.8,
    }
    .assign(trace.len(), SEED);
    let run = || {
        simulate_disaggregated(
            &tiny_fleet(2),
            &tiny_fleet(2),
            &trace,
            &prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &DisaggConfig {
                transfer: KvTransfer::Copy {
                    base_s: 1e-5,
                    per_token_s: 1e-8,
                },
                prefix_cache_capacity: 3,
            },
        )
    };
    assert_pinned(
        "simulate_disaggregated",
        run,
        |r| &mut r.decode.fleet,
        0xe66b_6cc1_7485_791b,
    );
}

#[test]
fn fleet_failure_batch_log_bytes_pinned() {
    let run = || {
        simulate_fleet_failure(
            &tiny_fleet(3),
            &fleet_trace(),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &crash_and_straggler((0.0008, 0.0015), (0.0009, 0.0016)),
            &ClientConfig::patient(),
            0.25,
        )
    };
    assert_pinned(
        "simulate_fleet_failure",
        run,
        |r| &mut r.fleet,
        0x9a91_718b_82ef_b898,
    );
}

fn assert_decode_failure_pinned(what: &str, response: DecodeScaleDown, want: u64) {
    let run = || {
        simulate_decode_failure(
            &tiny_fleet(3),
            &decode_requests(),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &crash_and_straggler((0.0003, 0.0006), (0.00045, 0.0007)),
            &ClientConfig::patient(),
            response,
            0.25,
        )
    };
    assert_pinned(what, run, |r| &mut r.decode.fleet, want);
}

#[test]
fn decode_failure_drain_batch_log_bytes_pinned() {
    assert_decode_failure_pinned(
        "simulate_decode_failure (Drain)",
        DecodeScaleDown::Drain,
        0x3e55_f9ef_14b7_172b,
    );
}

#[test]
fn decode_failure_migrate_batch_log_bytes_pinned() {
    assert_decode_failure_pinned(
        "simulate_decode_failure (Migrate)",
        DecodeScaleDown::Migrate,
        0x2ec2_6dd8_da98_a95f,
    );
}

#[test]
fn decode_preempt_report_bytes_pinned() {
    let spec = DatasetSpec::rte();
    let trace = decode_trace(&spec, &spec.decode_output(), 0.3, 200_000.0, 120, SEED);
    let run = || {
        simulate_decode(
            &tiny_fleet(2),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &DecodeConfig {
                max_slots: 2,
                ttft_deadline_s: 0.0,
            },
        )
    };
    let what = "simulate_decode (ContinuousPreempt)";
    let r = assert_pinned(what, run, |r| &mut r.fleet, 0xc3dc_3ee5_ae79_feaa);
    assert!(r.preemptions > 0, "{what}: nothing preempted");
    assert_eq!(fnv1a(&r), 0xba6d_1a34_e123_ab05, "{what}: whole report");
}

/// Quiet, burst, quiet: the burst backs the one warm shard up past the
/// reactive threshold and the tail lets the fleet shrink again.
fn bursty_fleet_trace() -> Vec<Request> {
    let phase = |duration_s, rate| RatePhase { duration_s, rate };
    nonstationary_poisson_trace(
        &DatasetSpec::rte(),
        &RateProfile::Piecewise(vec![
            phase(0.1, 200.0),
            phase(0.1, 20_000.0),
            phase(0.5, 200.0),
        ]),
        2_200,
        SEED,
    )
}

fn assert_autoscale_pinned(retire: RetirePolicy, log: u64, whole: u64, values: u64) {
    let trace = bursty_fleet_trace();
    let run = || {
        simulate_autoscale(
            &tiny_fleet(3),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                policy: ScalePolicy::Reactive {
                    scale_up_depth: 6.0,
                    scale_down_depth: 1.0,
                },
                retire,
                eval_interval_s: 0.01,
                warmup_s: 0.02,
                cooldown_s: 0.02,
                ..AutoscaleConfig::default()
            },
        )
    };
    let what = format!("simulate_autoscale (Reactive, {retire})");
    let r = assert_pinned(&what, run, |r| &mut r.fleet, log);
    let has = |k| r.scale.scale_events.iter().any(|e| e.kind == k);
    assert!(
        has(ScaleEventKind::Launch) && has(ScaleEventKind::Retired),
        "{what}: scaled only one way: {:?}",
        r.scale
            .scale_events
            .iter()
            .map(|e| e.kind)
            .collect::<Vec<_>>()
    );
    assert_eq!(fnv1a(&r), whole, "{what}: whole report");
    assert_values(&what, &r, values);
}

#[test]
fn autoscale_drain_report_bytes_pinned() {
    assert_autoscale_pinned(
        RetirePolicy::Drain,
        0xd6f7_8314_aade_4a83,
        0xf1c8_068a_dcb3_a871,
        0xbeef_4d13_c64e_3163,
    );
}

#[test]
fn autoscale_evict_report_bytes_pinned() {
    assert_autoscale_pinned(
        RetirePolicy::Evict,
        0xf50c_9126_a555_0d8d,
        0x1104_4e63_6fb6_bb15,
        0x14bf_ffc9_0c34_0b36,
    );
}

/// Trickle, saturating burst, trickle in the decode request shape.
fn bursty_decode_trace() -> Vec<DecodeRequest> {
    let spec = DatasetSpec::mrpc();
    let phase = |duration_s, rate| RatePhase { duration_s, rate };
    nonstationary_decode_trace(
        &spec,
        &spec.decode_output(),
        0.15,
        &RateProfile::Piecewise(vec![
            phase(0.01, 20_000.0),
            phase(0.002, 200_000.0),
            phase(1.0, 20_000.0),
        ]),
        800,
        SEED,
    )
}

fn assert_decode_autoscale_pinned(
    policy: ScalePolicy,
    scale_down: DecodeScaleDown,
    log: u64,
    whole: u64,
    values: u64,
) {
    let trace = bursty_decode_trace();
    let run = || {
        simulate_decode_autoscale(
            &tiny_fleet(3),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig {
                max_slots: 4,
                ttft_deadline_s: 0.001,
            },
            &AutoscaleConfig {
                initial_shards: 3,
                policy: policy.clone(),
                retire: scale_down,
                eval_interval_s: 0.002,
                warmup_s: 0.004,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        )
    };
    let what = format!("simulate_decode_autoscale ({policy:?}, {scale_down})");
    let r = assert_pinned(&what, run, |r| &mut r.decode.fleet, log);
    let has = |k| r.scale.scale_events.iter().any(|e| e.kind == k);
    assert!(
        has(ScaleEventKind::Launch) && has(ScaleEventKind::Retired),
        "{what}: scaled only one way: {:?}",
        r.scale
            .scale_events
            .iter()
            .map(|e| e.kind)
            .collect::<Vec<_>>()
    );
    if scale_down == DecodeScaleDown::Migrate {
        assert!(r.migrations > 0, "{what}: no resident migrated");
    }
    assert_eq!(fnv1a(&r), whole, "{what}: whole report");
    assert_values(&what, &r, values);
}

#[test]
fn decode_autoscale_reactive_migrate_report_bytes_pinned() {
    assert_decode_autoscale_pinned(
        ScalePolicy::Reactive {
            scale_up_depth: 4.0,
            scale_down_depth: 3.5,
        },
        DecodeScaleDown::Migrate,
        0x17d3_f0b4_174f_cee1,
        0x80ab_c288_5618_d327,
        0x7760_f2c3_5dcd_a357,
    );
}

#[test]
fn decode_autoscale_predictive_drain_report_bytes_pinned() {
    assert_decode_autoscale_pinned(
        ScalePolicy::Predictive {
            shard_capacity: 25_000.0,
            horizon_s: 0.004,
            alpha: 0.2,
            period_s: None,
        },
        DecodeScaleDown::Drain,
        0x3631_3dd0_d178_fe07,
        0x3f2e_a1eb_bcbe_cd5f,
        0x3da5_6190_d6e3_a176,
    );
}

#[test]
fn disagg_autoscale_report_bytes_pinned() {
    let spec = DatasetSpec::rte();
    let phase = |duration_s, rate| RatePhase { duration_s, rate };
    let trace = nonstationary_decode_trace(
        &spec,
        &spec.decode_output(),
        0.0,
        &RateProfile::Piecewise(vec![phase(0.003, 200_000.0), phase(1.0, 1_000.0)]),
        800,
        SEED,
    );
    let pool = |scale_up_depth| PoolPolicy {
        min_shards: 1,
        initial_shards: 1,
        policy: ScalePolicy::Reactive {
            scale_up_depth,
            scale_down_depth: 0.5,
        },
    };
    let run = || {
        simulate_disagg_autoscale(
            &tiny_fleet(2),
            &tiny_fleet(2),
            &trace,
            &[],
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &DisaggConfig {
                transfer: KvTransfer::Copy {
                    base_s: 1e-5,
                    per_token_s: 1e-8,
                },
                prefix_cache_capacity: 0,
            },
            &DisaggAutoscaleConfig {
                prefill: pool(2.0),
                decode: pool(1.0),
                eval_interval_s: 0.002,
                warmup_s: 0.001,
                cooldown_s: 0.0,
            },
        )
    };
    let what = "simulate_disagg_autoscale (Reactive on both pools)";
    let r = assert_pinned(
        what,
        run,
        |r| &mut r.disagg.decode.fleet,
        0xcd8a_b50e_edce_8b1d,
    );
    for (pool, range) in [(&r.prefill_pool, 0..2), (&r.decode_pool, 2..4)] {
        let events = &pool.scale_events;
        assert!(
            events.windows(2).all(|w| w[0].time_s <= w[1].time_s),
            "{what}: pool {range:?} events out of time order: {events:?}"
        );
        assert!(
            events.iter().all(|e| range.contains(&e.shard)),
            "{what}: pool {range:?} logged another pool's shard: {events:?}"
        );
        let has = |k| events.iter().any(|e| e.kind == k);
        assert!(
            has(ScaleEventKind::Launch) && has(ScaleEventKind::Retired),
            "{what}: pool {range:?} scaled only one way: {events:?}"
        );
    }
    assert_eq!(fnv1a(&r), 0xa8ee_995c_7524_eb51, "{what}: whole report");
    // Each pool's books and its own event log, in pool order.
    fn books_of(p: &ScaleBooks) -> (f64, usize, &[ScaleEvent]) {
        (p.shard_seconds, p.peak_active_shards, &p.scale_events)
    }
    let books = (
        &r.disagg,
        books_of(&r.prefill_pool),
        books_of(&r.decode_pool),
    );
    assert_values(what, &books, 0x0198_ec69_8918_5b13);
}

/// The value fold reads values, not names: the same values nested into a
/// sub-struct under other names fold alike, and any changed value, bit
/// or list boundary moves the fold.
#[test]
fn value_fold_ignores_names_and_nesting() {
    #[derive(Debug)]
    #[allow(dead_code)] // read through `Debug` only
    struct Flat {
        a: f64,
        b: usize,
        c: Vec<Option<u32>>,
    }
    #[derive(Debug)]
    #[allow(dead_code)] // read through `Debug` only
    struct Inner {
        x: f64,
        y: usize,
    }
    #[derive(Debug)]
    #[allow(dead_code)] // read through `Debug` only
    struct Nested {
        inner: Inner,
        z: Vec<Option<u32>>,
    }
    let flat = |a, b, c| value_fold(&Flat { a, b, c });
    let base = flat(0.1, 3, vec![Some(1), None]);
    let nested = Nested {
        inner: Inner { x: 0.1, y: 3 },
        z: vec![Some(1), None],
    };
    assert_eq!(value_fold(&nested), base);
    for moved in [
        flat(f64::from_bits(0.1f64.to_bits() + 1), 3, vec![Some(1), None]),
        flat(-0.1, 3, vec![Some(1), None]),
        flat(0.1, 4, vec![Some(1), None]),
        flat(0.1, 3, vec![None, Some(1)]),
        flat(0.1, 3, vec![Some(1)]),
        flat(0.1, 3, vec![Some(1), None, None]),
    ] {
        assert_ne!(moved, base);
    }
    assert_ne!(value_fold(&0.0f64), value_fold(&-0.0f64));
    assert_ne!(
        value_fold(&vec![vec![1], vec![2]]),
        value_fold(&vec![vec![1, 2]])
    );
}

/// The switch's own contract: scopes nest and restore the outer state,
/// and a panic inside a scope leaves the log off.
#[test]
fn batch_log_scope_nests_and_survives_a_panic() {
    let logs = || !run_fleet().batch_log.is_empty();
    assert!(!logs(), "logged by default");
    with_batch_log(|| {
        with_batch_log(|| assert!(logs()));
        assert!(logs(), "leaving a nested scope switched the log off");
    });
    assert!(!logs(), "leaving the outer scope left the log on");
    let caught = std::panic::catch_unwind(|| {
        with_batch_log(|| std::panic::resume_unwind(Box::new("inside the scope")))
    });
    assert!(caught.is_err());
    assert!(!logs(), "a panic inside the scope left the log on");
}
