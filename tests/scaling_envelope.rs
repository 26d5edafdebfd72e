//! Invalid scaling envelopes: every autoscaling configuration must reject
//! each of them at `validate`, with a panic naming the broken check. The
//! fleet and decode configs run the whole table. The disaggregated config
//! runs the per-pool cases on each of its two pools, plus the timing
//! cases; it has no SLO or reporting phases.

use lat_fpga::hwsim::autoscale::{AutoscaleConfig, DecodeScaleDown, RetirePolicy, ScalePolicy};
use lat_fpga::hwsim::disagg::{DisaggAutoscaleConfig, PoolPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Shards every config is validated against (each disaggregated pool too).
const MAX_SHARDS: usize = 3;

/// The fields every autoscaling config carries, well-formed by default.
struct Envelope {
    min_shards: usize,
    initial_shards: usize,
    policy: ScalePolicy,
    eval_interval_s: f64,
    warmup_s: f64,
    cooldown_s: f64,
    slo_s: f64,
    phase_bounds_s: Vec<f64>,
}

impl Default for Envelope {
    fn default() -> Self {
        Self {
            min_shards: 1,
            initial_shards: 2,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 1.0,
            },
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
            slo_s: 0.25,
            phase_bounds_s: vec![1.0, 2.0],
        }
    }
}

/// Which configs check a case's field.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Each disaggregated pool's envelope, and the fleet and decode ones.
    Pool,
    /// The controller timing, shared by every config.
    Timing,
    /// Fleet and decode only: the SLO and the reporting phases.
    Report,
}

struct Case {
    name: &'static str,
    scope: Scope,
    /// A fragment of the panic message the broken check raises.
    expect: &'static str,
    break_it: fn(&mut Envelope),
}

fn reactive(up: f64, down: f64) -> ScalePolicy {
    ScalePolicy::Reactive {
        scale_up_depth: up,
        scale_down_depth: down,
    }
}

fn cases() -> Vec<Case> {
    use Scope::{Pool, Report, Timing};
    let case = |name, scope, expect, break_it| Case {
        name,
        scope,
        expect,
        break_it,
    };
    vec![
        case("min_shards 0", Pool, "min_shards must be >= 1", |e| {
            e.min_shards = 0
        }),
        case(
            "min_shards above the size",
            Pool,
            "min_shards exceeds",
            |e| e.min_shards = MAX_SHARDS + 1,
        ),
        case("initial below min", Pool, "initial_shards outside", |e| {
            e.min_shards = 2;
            e.initial_shards = 1;
        }),
        case("initial above max", Pool, "initial_shards outside", |e| {
            e.initial_shards = MAX_SHARDS + 1
        }),
        case(
            "reactive up == down",
            Pool,
            "scale_up_depth > scale_down_depth",
            |e| e.policy = reactive(2.0, 2.0),
        ),
        case(
            "reactive up < down",
            Pool,
            "scale_up_depth > scale_down_depth",
            |e| e.policy = reactive(1.0, 2.0),
        ),
        case("eval interval 0", Timing, "eval interval", |e| {
            e.eval_interval_s = 0.0
        }),
        case("eval interval NaN", Timing, "eval interval", |e| {
            e.eval_interval_s = f64::NAN
        }),
        case("warm-up -1", Timing, "warm-up", |e| e.warmup_s = -1.0),
        case("warm-up NaN", Timing, "warm-up", |e| e.warmup_s = f64::NAN),
        case("cooldown -1", Timing, "cooldown", |e| e.cooldown_s = -1.0),
        case("cooldown NaN", Timing, "cooldown", |e| {
            e.cooldown_s = f64::NAN
        }),
        case("SLO 0", Report, "SLO", |e| e.slo_s = 0.0),
        case("SLO NaN", Report, "SLO", |e| e.slo_s = f64::NAN),
        case("phase bounds unsorted", Report, "phase bounds", |e| {
            e.phase_bounds_s = vec![2.0, 1.0]
        }),
        case("phase bound 0", Report, "phase bounds", |e| {
            e.phase_bounds_s = vec![0.0, 1.0]
        }),
        case("phase bound +inf", Report, "phase bounds", |e| {
            e.phase_bounds_s = vec![1.0, f64::INFINITY]
        }),
    ]
}

fn fleet(e: &Envelope) {
    AutoscaleConfig {
        min_shards: e.min_shards,
        initial_shards: e.initial_shards,
        policy: e.policy.clone(),
        retire: RetirePolicy::Drain,
        eval_interval_s: e.eval_interval_s,
        warmup_s: e.warmup_s,
        cooldown_s: e.cooldown_s,
        slo_latency_s: e.slo_s,
        phase_bounds_s: e.phase_bounds_s.clone(),
    }
    .validate(MAX_SHARDS);
}

fn decode(e: &Envelope) {
    AutoscaleConfig {
        min_shards: e.min_shards,
        initial_shards: e.initial_shards,
        policy: e.policy.clone(),
        retire: DecodeScaleDown::Drain,
        eval_interval_s: e.eval_interval_s,
        warmup_s: e.warmup_s,
        cooldown_s: e.cooldown_s,
        slo_latency_s: e.slo_s,
        phase_bounds_s: e.phase_bounds_s.clone(),
    }
    .validate(MAX_SHARDS);
}

/// Validates a disaggregated config whose `pools` (prefill, decode) take
/// their envelope from `e` (`false` keeps a pool pinned at full size),
/// with `e`'s controller timing.
fn disagg(e: &Envelope, pools: [bool; 2]) {
    let pool = |from_e: bool| {
        if from_e {
            PoolPolicy {
                min_shards: e.min_shards,
                initial_shards: e.initial_shards,
                policy: e.policy.clone(),
            }
        } else {
            PoolPolicy::pinned(MAX_SHARDS)
        }
    };
    DisaggAutoscaleConfig {
        prefill: pool(pools[0]),
        decode: pool(pools[1]),
        eval_interval_s: e.eval_interval_s,
        warmup_s: e.warmup_s,
        cooldown_s: e.cooldown_s,
    }
    .validate(MAX_SHARDS, MAX_SHARDS);
}

/// Asserts that `check` panics on `case`'s broken envelope, with a message
/// carrying the case's fragment.
fn assert_rejects(config: &str, case: &Case, check: impl Fn(&Envelope)) {
    let mut e = Envelope::default();
    (case.break_it)(&mut e);
    let Err(payload) = catch_unwind(AssertUnwindSafe(|| check(&e))) else {
        panic!("{config} accepted {}", case.name);
    };
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains(case.expect),
        "{config} rejected {} with {msg:?}, not a {:?} panic",
        case.name,
        case.expect
    );
}

#[test]
fn every_config_accepts_the_base_envelope() {
    let e = Envelope::default();
    fleet(&e);
    decode(&e);
    disagg(&e, [true, true]);
}

#[test]
fn fleet_config_rejects_every_broken_envelope() {
    for case in &cases() {
        assert_rejects("fleet", case, fleet);
    }
}

#[test]
fn decode_config_rejects_every_broken_envelope() {
    for case in &cases() {
        assert_rejects("decode", case, decode);
    }
}

#[test]
fn disagg_config_rejects_every_broken_pool_and_timing() {
    for case in cases().iter().filter(|c| c.scope != Scope::Report) {
        if case.scope == Scope::Pool {
            assert_rejects("disagg prefill pool", case, |e| disagg(e, [true, false]));
            assert_rejects("disagg decode pool", case, |e| disagg(e, [false, true]));
        } else {
            assert_rejects("disagg", case, |e| disagg(e, [false, false]));
        }
    }
}
