//! Ablation: autoscaling the generative-decode engine's slot pool under a
//! diurnal (4× swing) load curve, serving the paper's traffic mix.
//!
//! `ablate_autoscale` scales the *encoder* fleet, where scale-down only
//! has to re-route queued work; here a retiring shard holds KV-resident
//! sequences mid-generation, so scale-down must drain them in place or
//! migrate them (evict + re-prefill the grown context on a survivor).
//! Three claims, asserted while the tables print:
//!
//! 1. **Cost** — under the 4× diurnal swing, reactive AND predictive
//!    autoscaling attain the fixed-max fleet's p95 TTFT within
//!    [`DECODE_AUTOSCALE_P95_TOLERANCE`] while spending at most
//!    [`DECODE_AUTOSCALE_COST_MARGIN`] of its shard-seconds — in both
//!    scale-down modes.
//! 2. **Forecast** — on the diurnal up-ramps (the rising quarter-periods
//!    *after* the estimator has seen one full cycle), the predictive
//!    policy's TTFT SLO attainment beats the reactive policy's: it
//!    launches capacity a warm-up ahead of the demand instead of eating a
//!    backlog first.
//! 3. **Pinning** — a pinned autoscaler at min == max shards reproduces
//!    `simulate_decode` bit-for-bit (the invariant
//!    `tests/decode_autoscale_props.rs` property-tests).
//!
//! Deterministic under `HARNESS_SEED`.

use lat_bench::scenarios::{
    decode_autoscale_mix, DECODE_AUTOSCALE_ALPHA, DECODE_AUTOSCALE_COOLDOWN_S,
    DECODE_AUTOSCALE_COST_MARGIN, DECODE_AUTOSCALE_DOWN_DEPTH, DECODE_AUTOSCALE_EVAL_INTERVAL_S,
    DECODE_AUTOSCALE_MAX_SHARDS, DECODE_AUTOSCALE_MEAN_RATE, DECODE_AUTOSCALE_MIN_SHARDS,
    DECODE_AUTOSCALE_P95_TOLERANCE, DECODE_AUTOSCALE_PERIOD_S, DECODE_AUTOSCALE_REQUESTS,
    DECODE_AUTOSCALE_SHARD_CAPACITY, DECODE_AUTOSCALE_SLOTS, DECODE_AUTOSCALE_SLO_TTFT_S,
    DECODE_AUTOSCALE_SWING, DECODE_AUTOSCALE_UP_DEPTH, DECODE_AUTOSCALE_WARMUP_S,
    DECODE_HIGH_FRACTION, DECODE_TTFT_DEADLINE_S, HARNESS_SEED,
};
use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::autoscale::{
    simulate_decode_autoscale, AutoscaleConfig, DecodeAutoscaleReport, DecodeScaleDown, ScalePolicy,
};
use lat_hwsim::decode::{
    nonstationary_decode_trace, simulate_decode, DecodeConfig, DecodeScheduler,
};
use lat_hwsim::fleet::{homogeneous_fleet, with_batch_log, DispatchPolicy, RateProfile};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::LengthSampler;

fn design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn reactive_policy() -> ScalePolicy {
    ScalePolicy::Reactive {
        scale_up_depth: DECODE_AUTOSCALE_UP_DEPTH,
        scale_down_depth: DECODE_AUTOSCALE_DOWN_DEPTH,
    }
}

fn predictive_policy() -> ScalePolicy {
    ScalePolicy::Predictive {
        shard_capacity: DECODE_AUTOSCALE_SHARD_CAPACITY,
        // One warm-up plus one tick ahead: a shard launched on the
        // forecast is warm exactly when the predicted load lands.
        horizon_s: DECODE_AUTOSCALE_WARMUP_S + DECODE_AUTOSCALE_EVAL_INTERVAL_S,
        alpha: DECODE_AUTOSCALE_ALPHA,
        period_s: Some(DECODE_AUTOSCALE_PERIOD_S),
    }
}

fn base_cfg(
    policy: ScalePolicy,
    scale_down: DecodeScaleDown,
    min: usize,
    initial: usize,
    bounds: Vec<f64>,
) -> AutoscaleConfig<DecodeScaleDown> {
    AutoscaleConfig {
        min_shards: min,
        initial_shards: initial,
        policy,
        retire: scale_down,
        eval_interval_s: DECODE_AUTOSCALE_EVAL_INTERVAL_S,
        warmup_s: DECODE_AUTOSCALE_WARMUP_S,
        cooldown_s: DECODE_AUTOSCALE_COOLDOWN_S,
        slo_latency_s: DECODE_AUTOSCALE_SLO_TTFT_S,
        phase_bounds_s: bounds,
    }
}

fn row(name: &str, mode: &str, r: &DecodeAutoscaleReport) -> Vec<String> {
    vec![
        name.to_string(),
        mode.to_string(),
        format!("{:.1}", r.scale.shard_seconds),
        format!("{:.2}", r.scale.mean_active_shards),
        format!("{}", r.scale.peak_active_shards),
        format!("{:.0}", r.decode.ttft_p50_s * 1e3),
        format!("{:.0}", r.decode.ttft_p95_s * 1e3),
        format!("{:.0}", r.decode.goodput_tok_s),
        tables::pct(r.slo_attainment),
        format!("{}", r.migrations),
        format!("{}", r.re_prefills),
    ]
}

/// Request-weighted TTFT SLO attainment over the trace's *up-ramp*
/// quarter-periods (rate rising: quarters 0 and 3 of each diurnal cycle),
/// skipping the first full cycle — the forecaster's training window.
fn upramp_attainment(r: &DecodeAutoscaleReport) -> f64 {
    let quarter = DECODE_AUTOSCALE_PERIOD_S / 4.0;
    let (mut hit, mut total) = (0.0, 0usize);
    for p in &r.phases {
        if !p.end_s.is_finite() || p.start_s < DECODE_AUTOSCALE_PERIOD_S {
            continue;
        }
        let q = (p.start_s / quarter).round() as usize % 4;
        if q == 0 || q == 3 {
            hit += p.slo_attainment * p.requests as f64;
            total += p.requests;
        }
    }
    assert!(total > 0, "no up-ramp phases past the first cycle");
    hit / total as f64
}

fn main() {
    let prefill = decode_autoscale_mix();
    let output = prefill.decode_output();
    let profile = RateProfile::Diurnal {
        mean_rate: DECODE_AUTOSCALE_MEAN_RATE,
        swing: DECODE_AUTOSCALE_SWING,
        period_s: DECODE_AUTOSCALE_PERIOD_S,
    };
    let trace = nonstationary_decode_trace(
        &prefill,
        &output,
        DECODE_HIGH_FRACTION,
        &profile,
        DECODE_AUTOSCALE_REQUESTS,
        HARNESS_SEED,
    );
    let horizon = trace.last().expect("non-empty trace").arrival_s;
    // Reporting phases: quarter-period buckets — rising quarters (0 and 3
    // of each cycle) are the up-ramps the forecast claim is judged on.
    let quarter = DECODE_AUTOSCALE_PERIOD_S / 4.0;
    let bounds: Vec<f64> = (1..)
        .map(|i| i as f64 * quarter)
        .take_while(|b| *b < horizon)
        .collect();
    let fleet = homogeneous_fleet(&design(99), DECODE_AUTOSCALE_MAX_SHARDS);
    let decode_cfg = DecodeConfig {
        max_slots: DECODE_AUTOSCALE_SLOTS,
        ttft_deadline_s: DECODE_TTFT_DEADLINE_S,
    };
    let run = |shards: &[AcceleratorDesign], cfg: &AutoscaleConfig<DecodeScaleDown>| {
        simulate_decode_autoscale(
            shards,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &decode_cfg,
            cfg,
        )
    };

    println!(
        "Ablation — decode autoscaling (BERT-base, {} prompts, {} outputs,\n\
         {} requests, {} slots/shard, diurnal {:.0}×{:.0} seq/s swing, period {:.0} s,\n\
         warm-up {:.2} s, TTFT SLO {:.0} ms, seed {HARNESS_SEED:#x})\n",
        prefill.label(),
        output.label(),
        DECODE_AUTOSCALE_REQUESTS,
        DECODE_AUTOSCALE_SLOTS,
        DECODE_AUTOSCALE_SWING,
        DECODE_AUTOSCALE_MEAN_RATE,
        DECODE_AUTOSCALE_PERIOD_S,
        DECODE_AUTOSCALE_WARMUP_S,
        DECODE_AUTOSCALE_SLO_TTFT_S * 1e3,
    );
    let pool = Scheduler::from_env();
    println!("(sweep pool: {} workers)\n", pool.parallelism());

    // ── The whole policy × scale-down grid (plus the fixed-min
    // baseline; fixed-max runs with claim 3) is independent,
    // seed-deterministic cells: declare every run, fan them across the
    // pool, read back by index.
    // Scalers start provisioned for the mean demand (2 shards at 30 seq/s
    // against an 18 seq/s capacity) — the deployment-realistic initial
    // state; the diurnal swing still forces both scale directions.
    let initial = (DECODE_AUTOSCALE_MEAN_RATE / DECODE_AUTOSCALE_SHARD_CAPACITY).ceil() as usize;
    let mut jobs: Vec<(usize, AutoscaleConfig<DecodeScaleDown>)> = vec![(
        DECODE_AUTOSCALE_MIN_SHARDS,
        base_cfg(
            ScalePolicy::Pinned,
            DecodeScaleDown::Drain,
            DECODE_AUTOSCALE_MIN_SHARDS,
            DECODE_AUTOSCALE_MIN_SHARDS,
            bounds.clone(),
        ),
    )];
    let combos: Vec<(&str, DecodeScaleDown)> = [
        ("reactive", reactive_policy()),
        ("predictive", predictive_policy()),
    ]
    .into_iter()
    .flat_map(|(name, policy)| {
        [DecodeScaleDown::Drain, DecodeScaleDown::Migrate]
            .into_iter()
            .map(move |mode| (name, policy.clone(), mode))
    })
    .map(|(name, policy, mode)| {
        jobs.push((
            DECODE_AUTOSCALE_MAX_SHARDS,
            base_cfg(
                policy,
                mode,
                DECODE_AUTOSCALE_MIN_SHARDS,
                initial,
                bounds.clone(),
            ),
        ));
        (name, mode)
    })
    .collect();
    let mut results = pool
        .par_map_indexed(&jobs, |(k, cfg)| run(&fleet[..*k], cfg))
        .into_iter();
    let mut next = || results.next().expect("one result per job");
    let fixed_min = next();

    // ── Claim 3: pinned min==max IS simulate_decode ────────────────────
    // Only this pair keeps its step logs, so the equality covers them.
    let pinned_cfg = base_cfg(
        ScalePolicy::Pinned,
        DecodeScaleDown::Drain,
        DECODE_AUTOSCALE_MAX_SHARDS,
        DECODE_AUTOSCALE_MAX_SHARDS,
        bounds.clone(),
    );
    let (pinned, fixed_decode) = with_batch_log(|| {
        let fixed_decode = simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &decode_cfg,
        );
        (run(&fleet, &pinned_cfg), fixed_decode)
    });
    assert_eq!(
        pinned.decode, fixed_decode,
        "pinned min==max decode autoscaling drifted from simulate_decode"
    );
    let fixed_max = pinned;
    let mut rows = vec![
        row(
            &format!("fixed-min ({DECODE_AUTOSCALE_MIN_SHARDS})"),
            "-",
            &fixed_min,
        ),
        row(
            &format!("fixed-max ({DECODE_AUTOSCALE_MAX_SHARDS})"),
            "-",
            &fixed_max,
        ),
    ];
    let mut sweep: Vec<(String, DecodeScaleDown, DecodeAutoscaleReport)> = Vec::new();
    for (name, mode) in combos {
        let r = next();
        rows.push(row(name, &mode.to_string(), &r));
        sweep.push((name.to_string(), mode, r));
    }
    println!(
        "Policy × scale-down (JSQ dispatch, continuous batching, capacity oracle\n\
         {DECODE_AUTOSCALE_SHARD_CAPACITY:.0} seq/s/shard for the predictive policy)"
    );
    println!(
        "{}",
        tables::render(
            &[
                "policy",
                "scale-down",
                "shard-sec",
                "mean shards",
                "peak",
                "TTFT p50 (ms)",
                "TTFT p95 (ms)",
                "goodput (tok/s)",
                "SLO att.",
                "migrations",
                "re-prefills",
            ],
            &rows,
        )
    );

    // ── Claim 2: predictive beats reactive on the up-ramps ─────────────
    let reactive_drain = &sweep[0].2;
    let predictive_drain = &sweep[2].2;
    let re_up = upramp_attainment(reactive_drain);
    let pre_up = upramp_attainment(predictive_drain);
    assert!(
        pre_up > re_up,
        "predictive up-ramp SLO {pre_up} !> reactive {re_up}"
    );
    assert!(
        predictive_drain.decode.ttft_p95_s < reactive_drain.decode.ttft_p95_s,
        "predictive p95 TTFT {} !< reactive {}",
        predictive_drain.decode.ttft_p95_s,
        reactive_drain.decode.ttft_p95_s
    );

    // ── TTFT SLO attainment per quarter-period phase ───────────────────
    let phase_rows: Vec<Vec<String>> = fixed_min
        .phases
        .iter()
        .zip(&fixed_max.phases)
        .zip(reactive_drain.phases.iter().zip(&predictive_drain.phases))
        .map(|((lo, hi), (re, pr))| {
            let end = if lo.end_s.is_finite() {
                format!("{:.0}", lo.end_s)
            } else {
                "∞".into()
            };
            let q = (lo.start_s / quarter).round() as usize % 4;
            let ramp = if q == 0 || q == 3 { "rise" } else { "fall" };
            vec![
                format!("[{:.0}, {end}) s {ramp}", lo.start_s),
                format!("{}", lo.requests),
                tables::pct(lo.slo_attainment),
                tables::pct(hi.slo_attainment),
                tables::pct(re.slo_attainment),
                tables::pct(pr.slo_attainment),
            ]
        })
        .collect();
    println!("TTFT SLO attainment per quarter-period phase (drain scale-down)");
    println!(
        "{}",
        tables::render(
            &[
                "phase",
                "requests",
                "fixed-min",
                "fixed-max",
                "reactive",
                "predictive",
            ],
            &phase_rows,
        )
    );
    // ── Claim 1: cost × p95 TTFT against the fixed-max fleet ───────────
    for (name, mode, r) in &sweep {
        assert!(
            r.decode.ttft_p95_s <= fixed_max.decode.ttft_p95_s * DECODE_AUTOSCALE_P95_TOLERANCE,
            "{name}/{mode}: p95 TTFT {} !<= {} × fixed-max {}",
            r.decode.ttft_p95_s,
            DECODE_AUTOSCALE_P95_TOLERANCE,
            fixed_max.decode.ttft_p95_s
        );
        assert!(
            r.scale.shard_seconds <= fixed_max.scale.shard_seconds * DECODE_AUTOSCALE_COST_MARGIN,
            "{name}/{mode}: shard-seconds {} !<= {} × fixed-max {}",
            r.scale.shard_seconds,
            DECODE_AUTOSCALE_COST_MARGIN,
            fixed_max.scale.shard_seconds
        );
        // Scale-down must never drop work, whatever it does to residents.
        assert_eq!(
            r.decode.fleet.completed, DECODE_AUTOSCALE_REQUESTS,
            "{name}/{mode} dropped requests"
        );
        match mode {
            DecodeScaleDown::Drain => assert_eq!(r.migrations, 0, "{name}: drain migrated"),
            DecodeScaleDown::Migrate => assert_eq!(
                r.re_prefills, r.migrations,
                "{name}: migrations not re-prefilled exactly once"
            ),
        }
    }

    println!(
        "(pinned≡simulate_decode, p95-TTFT-within-{DECODE_AUTOSCALE_P95_TOLERANCE}×-at-≤{:.0}%-cost for\n\
         every policy × scale-down combination, and predictive>reactive up-ramp SLO\n\
         ({:.1}% vs {:.1}%, cycles ≥ 2) asserted above; the forecast launches shards a\n\
         warm-up ahead of the diurnal ramp instead of eating a backlog first)",
        DECODE_AUTOSCALE_COST_MARGIN * 100.0,
        pre_up * 100.0,
        re_up * 100.0,
    );
}
