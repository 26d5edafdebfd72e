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

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::DecodeScaleDown;
use lat_fpga::hwsim::decode::{
    simulate_decode, DecodeConfig, DecodeRequest, DecodeScheduler, KvTransfer, Priority,
};
use lat_fpga::hwsim::disagg::{simulate_disaggregated, DisaggConfig};
use lat_fpga::hwsim::failure::{
    simulate_decode_failure, simulate_fleet_failure, ClientConfig, Fault, FaultKind, FaultPlan,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, with_batch_log, BatchRecord, BatcherConfig,
    DispatchPolicy, FleetReport, Request,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::PrefixProfile;
use std::fmt::Debug;

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

/// FNV-1a over the log's `{:?}` bytes.
fn fnv1a(log: &[BatchRecord]) -> u64 {
    format!("{log:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs `run` inside and outside `with_batch_log`. Pins the logged
/// run's log to `want` and checks that Σ `ShardReport::batches` is its
/// length: the fleet's crash rollback drops a batch from both, decode's
/// crash truncation keeps it in both. The unlogged run's log must be
/// empty, and the two reports equal once the logged one's log is taken.
fn assert_pinned<R: PartialEq + Debug>(
    what: &str,
    run: impl Fn() -> R,
    fleet: impl Fn(&mut R) -> &mut FleetReport,
    want: u64,
) {
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
