//! Ablation: autoscaling on the fleet engine under a diurnal (4× swing)
//! load curve, serving the paper's traffic mix.
//!
//! The fixed-size fleet ablations answer "how many shards"; this one
//! answers "when". Three claims, asserted while the tables print:
//!
//! 1. **Cost** — under a 4× diurnal swing, reactive autoscaling attains
//!    the fixed-max fleet's p95 latency within
//!    [`AUTOSCALE_P95_TOLERANCE`] while spending at most
//!    [`AUTOSCALE_COST_MARGIN`] of its shard-seconds.
//! 2. **SLO** — reactive autoscaling beats the fixed-min fleet's SLO
//!    attainment (fixed-min melts at the diurnal peak).
//! 3. **Pinning** — a pinned autoscaler at min == max shards reproduces
//!    `simulate_fleet` bit-for-bit (the same invariant
//!    `tests/autoscale_props.rs` property-tests).
//!
//! Deterministic under `HARNESS_SEED`.

use lat_bench::scenarios::{
    autoscale_mix, AUTOSCALE_COOLDOWN_S, AUTOSCALE_COST_MARGIN, AUTOSCALE_DOWN_DEPTH,
    AUTOSCALE_EVAL_INTERVAL_S, AUTOSCALE_MAX_SHARDS, AUTOSCALE_MEAN_RATE, AUTOSCALE_MIN_SHARDS,
    AUTOSCALE_P95_TOLERANCE, AUTOSCALE_PERIOD_S, AUTOSCALE_REQUESTS, AUTOSCALE_SLO_LATENCY_S,
    AUTOSCALE_SWING, AUTOSCALE_UP_DEPTH, AUTOSCALE_WARMUP_S, HARNESS_SEED,
};
use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::autoscale::{
    simulate_autoscale, AutoscaleConfig, AutoscaleReport, RetirePolicy, ScalePolicy, SchedulePhase,
};
use lat_hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, simulate_fleet, with_batch_log, BatcherConfig,
    DispatchPolicy, RateProfile,
};
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

/// Per-shard sustainable rate on the mix — used only to seed the
/// time-of-day table (the reactive/utilization policies need no such
/// oracle).
const SHARD_CAPACITY_SEQ_S: f64 = 68.0;

fn base_cfg(policy: ScalePolicy, min: usize, initial: usize, bounds: Vec<f64>) -> AutoscaleConfig {
    AutoscaleConfig {
        min_shards: min,
        initial_shards: initial,
        policy,
        retire: RetirePolicy::Drain,
        eval_interval_s: AUTOSCALE_EVAL_INTERVAL_S,
        warmup_s: AUTOSCALE_WARMUP_S,
        cooldown_s: AUTOSCALE_COOLDOWN_S,
        slo_latency_s: AUTOSCALE_SLO_LATENCY_S,
        phase_bounds_s: bounds,
    }
}

fn row(name: &str, r: &AutoscaleReport) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", r.scale.shard_seconds),
        format!("{:.2}", r.scale.mean_active_shards),
        format!("{}", r.scale.peak_active_shards),
        format!("{:.0}", r.fleet.p50_latency_s * 1e3),
        format!("{:.0}", r.fleet.p95_latency_s * 1e3),
        tables::pct(r.slo_attainment),
        format!("{}", r.scale.scale_events.len()),
    ]
}

fn main() {
    let profile = RateProfile::Diurnal {
        mean_rate: AUTOSCALE_MEAN_RATE,
        swing: AUTOSCALE_SWING,
        period_s: AUTOSCALE_PERIOD_S,
    };
    let trace =
        nonstationary_poisson_trace(&autoscale_mix(), &profile, AUTOSCALE_REQUESTS, HARNESS_SEED);
    let horizon = trace.last().expect("non-empty trace").arrival_s;
    // Reporting phases: half-period buckets (high half / low half of each
    // diurnal cycle).
    let half = AUTOSCALE_PERIOD_S / 2.0;
    let bounds: Vec<f64> = (1..)
        .map(|i| i as f64 * half)
        .take_while(|b| *b < horizon)
        .collect();
    let fleet = homogeneous_fleet(&design(99), AUTOSCALE_MAX_SHARDS);
    let batcher = BatcherConfig::default();
    let run = |shards: &[AcceleratorDesign], cfg: &AutoscaleConfig| {
        simulate_autoscale(
            shards,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher,
            cfg,
        )
    };

    let pool = Scheduler::from_env();
    println!(
        "Ablation — autoscaling (BERT-base, {} prompts, {} requests,\n\
         diurnal {:.0}×{:.0} seq/s swing, period {:.0} s, SLO {:.0} ms, seed {HARNESS_SEED:#x},\n\
         {} workers)\n",
        autoscale_mix().label(),
        AUTOSCALE_REQUESTS,
        AUTOSCALE_SWING,
        AUTOSCALE_MEAN_RATE,
        AUTOSCALE_PERIOD_S,
        AUTOSCALE_SLO_LATENCY_S * 1e3,
        pool.parallelism(),
    );

    // ── The policy grid: every run is an independent, seed-deterministic
    // cell — declare them all, fan them across the pool, then read the
    // results back by index.
    // Time-of-day table: quarter-period entries sized from the known rate
    // curve (the oracle policy the feedback policies are measured
    // against).
    let quarter = AUTOSCALE_PERIOD_S / 4.0;
    let table: Vec<SchedulePhase> = (0..)
        .map(|i| i as f64 * quarter)
        .take_while(|s| *s < horizon)
        .map(|start| {
            let mid = start + quarter / 2.0;
            let need = (profile.rate_at(mid) / SHARD_CAPACITY_SEQ_S).ceil() as usize;
            SchedulePhase {
                start_s: start.max(1e-9), // table entries must be ordered; 0 is "initial"
                shards: need.clamp(AUTOSCALE_MIN_SHARDS, AUTOSCALE_MAX_SHARDS),
            }
        })
        .collect();
    // (shard-slice length, config) fully describes a run.
    let mut jobs: Vec<(usize, AutoscaleConfig)> = vec![
        (
            AUTOSCALE_MIN_SHARDS,
            base_cfg(
                ScalePolicy::Pinned,
                AUTOSCALE_MIN_SHARDS,
                AUTOSCALE_MIN_SHARDS,
                bounds.clone(),
            ),
        ),
        (
            AUTOSCALE_MAX_SHARDS,
            base_cfg(
                ScalePolicy::Reactive {
                    scale_up_depth: AUTOSCALE_UP_DEPTH,
                    scale_down_depth: AUTOSCALE_DOWN_DEPTH,
                },
                AUTOSCALE_MIN_SHARDS,
                AUTOSCALE_MIN_SHARDS,
                bounds.clone(),
            ),
        ),
        (
            AUTOSCALE_MAX_SHARDS,
            base_cfg(
                ScalePolicy::UtilizationTarget {
                    low: 0.35,
                    high: 0.8,
                },
                AUTOSCALE_MIN_SHARDS,
                AUTOSCALE_MIN_SHARDS,
                bounds.clone(),
            ),
        ),
        (
            AUTOSCALE_MAX_SHARDS,
            base_cfg(
                ScalePolicy::Scheduled(table),
                AUTOSCALE_MIN_SHARDS,
                2,
                bounds.clone(),
            ),
        ),
    ];
    // Cost × p95 frontier points ride in the same fan-out.
    for k in 1..=AUTOSCALE_MAX_SHARDS {
        jobs.push((k, base_cfg(ScalePolicy::Pinned, k, k, bounds.clone())));
    }
    let mut results = pool
        .par_map_indexed(&jobs, |(k, cfg)| run(&fleet[..*k], cfg))
        .into_iter();
    let mut next = || results.next().expect("one result per job");
    let (fixed_min, reactive, utilization, scheduled) = (next(), next(), next(), next());
    let frontier_fixed: Vec<AutoscaleReport> = (1..=AUTOSCALE_MAX_SHARDS).map(|_| next()).collect();

    // ── Claim 3: the pinned min==max autoscaler IS simulate_fleet ───────
    // Only this pair keeps its batch logs, so the equality covers them.
    let pinned_cfg = base_cfg(
        ScalePolicy::Pinned,
        AUTOSCALE_MAX_SHARDS,
        AUTOSCALE_MAX_SHARDS,
        bounds.clone(),
    );
    let (pinned, fixed_fleet) = with_batch_log(|| {
        let fixed_fleet = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher,
        );
        (run(&fleet, &pinned_cfg), fixed_fleet)
    });
    assert_eq!(
        pinned.fleet, fixed_fleet,
        "pinned min==max autoscaling drifted from simulate_fleet"
    );
    let fixed_max = pinned;

    let rows = vec![
        row(&format!("fixed-min ({AUTOSCALE_MIN_SHARDS})"), &fixed_min),
        row(&format!("fixed-max ({AUTOSCALE_MAX_SHARDS})"), &fixed_max),
        row("reactive", &reactive),
        row("utilization", &utilization),
        row("scheduled", &scheduled),
    ];
    println!("Policy comparison (JSQ dispatch, drain-on-retire, warm-up {AUTOSCALE_WARMUP_S} s)");
    println!(
        "{}",
        tables::render(
            &[
                "policy",
                "shard-sec",
                "mean shards",
                "peak",
                "p50 (ms)",
                "p95 (ms)",
                "SLO att.",
                "events",
            ],
            &rows,
        )
    );

    // ── Headline claims ─────────────────────────────────────────────────
    assert!(
        reactive.fleet.p95_latency_s <= fixed_max.fleet.p95_latency_s * AUTOSCALE_P95_TOLERANCE,
        "reactive p95 {} !<= {} × fixed-max p95 {}",
        reactive.fleet.p95_latency_s,
        AUTOSCALE_P95_TOLERANCE,
        fixed_max.fleet.p95_latency_s
    );
    assert!(
        reactive.scale.shard_seconds <= fixed_max.scale.shard_seconds * AUTOSCALE_COST_MARGIN,
        "reactive shard-seconds {} !<= {} × fixed-max {}",
        reactive.scale.shard_seconds,
        AUTOSCALE_COST_MARGIN,
        fixed_max.scale.shard_seconds
    );
    assert!(
        reactive.slo_attainment > fixed_min.slo_attainment,
        "reactive SLO {} !> fixed-min {}",
        reactive.slo_attainment,
        fixed_min.slo_attainment
    );

    // ── SLO attainment per diurnal half-cycle ───────────────────────────
    let phase_rows: Vec<Vec<String>> = fixed_min
        .phases
        .iter()
        .zip(&fixed_max.phases)
        .zip(&reactive.phases)
        .map(|((lo, hi), re)| {
            let end = if lo.end_s.is_finite() {
                format!("{:.0}", lo.end_s)
            } else {
                "∞".into()
            };
            vec![
                format!("[{:.0}, {end}) s", lo.start_s),
                format!("{}", lo.requests),
                tables::pct(lo.slo_attainment),
                tables::pct(hi.slo_attainment),
                tables::pct(re.slo_attainment),
            ]
        })
        .collect();
    println!("SLO attainment per half-period phase");
    println!(
        "{}",
        tables::render(
            &["phase", "requests", "fixed-min", "fixed-max", "reactive"],
            &phase_rows,
        )
    );

    // ── Cost × p95 frontier ─────────────────────────────────────────────
    let mut frontier = Vec::new();
    for (k, r) in frontier_fixed.into_iter().enumerate() {
        frontier.push((format!("fixed-{}", k + 1), r));
    }
    frontier.push(("reactive".into(), reactive));
    frontier.push(("utilization".into(), utilization));
    frontier.push(("scheduled".into(), scheduled));
    let frontier_rows: Vec<Vec<String>> = frontier
        .iter()
        .map(|(name, r)| {
            vec![
                name.clone(),
                format!("{:.1}", r.scale.shard_seconds),
                format!("{:.0}", r.fleet.p95_latency_s * 1e3),
                tables::pct(r.slo_attainment),
            ]
        })
        .collect();
    println!("Cost × p95 frontier");
    println!(
        "{}",
        tables::render(
            &["config", "shard-sec", "p95 (ms)", "SLO att."],
            &frontier_rows,
        )
    );
    println!(
        "(pinned≡simulate_fleet, p95-within-{AUTOSCALE_P95_TOLERANCE}×-at-≤{:.0}%-cost, and\n\
         SLO-above-fixed-min asserted above; scaling to the diurnal swing buys the\n\
         fixed-max fleet's tail latency at roughly the mean-demand cost)",
        AUTOSCALE_COST_MARGIN * 100.0
    );
}
