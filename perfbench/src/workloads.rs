//! The four benchmark workloads. Each execution builds its inputs from the
//! seed, calls the engine one or more times on them, and times the phases
//! from outside: set-up (design construction, trace generation, prefix
//! assignment) and each `simulate_*` call. Everything after that — checks
//! and counters read off the report — is outside the timed window.

use crate::check::Fingerprint;
use crate::tracer::Tracer;
use lat_bench::scenarios::{
    disagg_outputs, disagg_prompts, failure_mix, DECODE_SLOTS, DISAGG_CACHE_CAPACITY,
    DISAGG_CHEAP_BASE_S, DISAGG_CHEAP_PER_TOKEN_S, DISAGG_COLOCATED_SHARDS,
    DISAGG_GROUPED_FRACTION, DISAGG_PREFILL_SHARDS, DISAGG_PREFIX_GROUPS, DISAGG_PREFIX_LEN,
    DISAGG_RATE, DISAGG_SLOTS, FAILURE_BACKOFF_S, FAILURE_BASE_RATE, FAILURE_BURST_DURATION_S,
    FAILURE_BURST_RATE, FAILURE_BURST_START_S, FAILURE_CRASH_S, FAILURE_DEADLINE_S,
    FAILURE_MAX_RETRIES, FAILURE_MAX_SHARDS, FAILURE_MIN_SHARDS, FAILURE_RECOVER_S,
    FAILURE_SLO_LATENCY_S, FAILURE_TIMEOUT_S, FAILURE_WARMUP_S,
};
use lat_core::pipeline::SchedulingPolicy;
use lat_core::sketch::ReportMode;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::autoscale::{AutoscaleConfig, RetirePolicy, ScalePolicy};
use lat_hwsim::decode::{decode_trace, simulate_decode, DecodeConfig, DecodeScheduler, KvTransfer};
use lat_hwsim::disagg::{simulate_disaggregated, DisaggConfig};
use lat_hwsim::failure::{simulate_autoscale_failure, ClientConfig, Fault, FaultKind, FaultPlan};
use lat_hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet_instrumented,
    BatcherConfig, DispatchPolicy, RateProfile, Request,
};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_tensor::rng::SplitMix64;
use lat_workloads::datasets::{DatasetSpec, MixedWorkload};
use lat_workloads::prefix::PrefixProfile;
use std::collections::BTreeSet;
use std::time::Instant;

/// Arrival rate of `fleet_stream_1m` (the `smoke_million` rate).
const STREAM_RATE: f64 = 50_000.0;
/// Shards of `fleet_stream_1m`.
const STREAM_SHARDS: usize = 4;
/// Arrival rate of `decode_full_slots`: just under two 16-slot BERT-base
/// shards' capacity on the paper mix, so slots stay full.
const DECODE_RATE: f64 = 38.0;
/// Shards of `decode_full_slots`.
const DECODE_SHARDS: usize = 2;
/// Lowest slot utilization `decode_full_slots` may show.
const DECODE_MIN_SLOT_UTILIZATION: f64 = 0.9;
/// Stage-allocation tuning of the BERT-base designs (near the paper mix's
/// expected prompt length, as in the decode and failure ablations).
const MIX_TUNING: usize = 99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetStream1m,
    DecodeFullSlots,
    DisaggPrefixWarm,
    FleetIncident,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetStream1m,
        Workload::DecodeFullSlots,
        Workload::DisaggPrefixWarm,
        Workload::FleetIncident,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream1m => "fleet_stream_1m",
            Workload::DecodeFullSlots => "decode_full_slots",
            Workload::DisaggPrefixWarm => "disagg_prefix_warm",
            Workload::FleetIncident => "fleet_incident",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's stated request count.
    pub fn requests(self) -> usize {
        match self {
            Workload::FleetStream1m => 1_000_000,
            Workload::DecodeFullSlots => 50_000,
            Workload::DisaggPrefixWarm => 100_000,
            Workload::FleetIncident => 20_000,
        }
    }

    /// `simulate_*` calls an untraced execution makes on one set of inputs.
    /// Only `fleet_stream_1m` makes more than one: its set-up takes about
    /// twice as long as its simulation, so one call per set-up would leave
    /// a run with too few simulation samples.
    pub fn sims_per_setup(self) -> usize {
        match self {
            Workload::FleetStream1m => 6,
            _ => 1,
        }
    }

    /// One timed execution of the workload over `n` requests (the stated
    /// count, except in the traced run's scaling probe): set-up once, then
    /// `sims` `simulate_*` calls on the same inputs.
    pub fn run(self, n: usize, sims: usize, seed: u64, tr: &mut Tracer) -> Run {
        match self {
            Workload::FleetStream1m => fleet_stream(n, sims, seed, tr),
            Workload::DecodeFullSlots => decode_full_slots(n, sims, seed, tr),
            Workload::DisaggPrefixWarm => disagg_prefix_warm(n, sims, seed, tr),
            Workload::FleetIncident => fleet_incident(n, sims, seed, tr),
        }
    }

    /// `count` batches shaped like the ones this workload prices with
    /// `run_batch` (its mean batch size, its length distribution, and for
    /// the decode engines fresh prompts fused with one-token decodes), plus
    /// the design that prices them.
    pub fn replay_batches(
        self,
        layers: &Layers,
        seed: u64,
        count: usize,
    ) -> (AcceleratorDesign, Vec<Vec<usize>>) {
        let mut rng = SplitMix64::new(seed ^ 0x5245_504c_4159);
        let size = (layers.mean_batch.round() as usize).max(1);
        let batches = 0..count;
        match self {
            Workload::FleetStream1m => {
                let rte = DatasetSpec::rte();
                let b = batches
                    .map(|_| (0..size).map(|_| rte.sample_length(&mut rng)).collect())
                    .collect();
                (stream_design(), b)
            }
            Workload::FleetIncident => {
                let mix = failure_mix();
                let b = batches
                    .map(|_| (0..size).map(|_| mix.sample_length(&mut rng)).collect())
                    .collect();
                (bert_base(MIX_TUNING), b)
            }
            // Steady-state continuous batching admits about one prompt per
            // iteration into a batch of one-token decodes.
            Workload::DecodeFullSlots => {
                let mix = MixedWorkload::paper_mix();
                let b = batches
                    .map(|_| {
                        let mut lens = vec![mix.sample_length(&mut rng)];
                        lens.resize(size, 1);
                        lens
                    })
                    .collect();
                (bert_base(MIX_TUNING), b)
            }
            // Prefill-pool batches: prompts only, grouped ones discounted
            // by the cached prefix as a warm hit prices them.
            Workload::DisaggPrefixWarm => {
                let prompts = disagg_prompts();
                let b = batches
                    .map(|_| {
                        (0..size)
                            .map(|_| {
                                let len = prompts.sample_length(&mut rng);
                                if rng.next_f64() < DISAGG_GROUPED_FRACTION {
                                    len - DISAGG_PREFIX_LEN.min(len - 1)
                                } else {
                                    len
                                }
                            })
                            .collect()
                    })
                    .collect();
                (bert_base(prompts.avg_len), b)
            }
        }
    }
}

/// Host timings, checks and deterministic counters of one execution.
pub struct Run {
    pub setup_s: f64,
    /// Host seconds of each `simulate_*` call.
    pub sim_s: Vec<f64>,
    pub fingerprint: u64,
    pub failures: Vec<String>,
    pub layers: Layers,
}

impl Run {
    /// Host seconds from the first set-up call until each report returned.
    pub fn wall_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.sim_s.iter().map(|s| self.setup_s + s)
    }
}

/// Per-layer counters read off a report. Zero where the workload does not
/// exercise (or its entry point does not expose) the layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `run_batch` calls that reach the cost model (for the decode engines
    /// an upper bound: pure-decode iterations hit a per-size memo).
    pub run_batch_calls: u64,
    /// Mean size of those batches (replay shape).
    pub mean_batch: f64,
    pub fleet_events: u64,
    pub fleet_peak_heap_events: u64,
    pub fleet_peak_tracked_bytes: u64,
    pub decode_iterations: u64,
    pub decode_generated_tokens: u64,
    pub decode_slot_utilization: f64,
    pub disagg_transfers: u64,
    pub disagg_prefix_hits: u64,
    pub disagg_prefix_lookups: u64,
    pub disagg_prefill_iterations: u64,
    pub disagg_decode_iterations: u64,
    pub failure_scale_events: u64,
    pub failure_retries: u64,
    pub failure_timed_out: u64,
}

fn bert_base(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn stream_design() -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    )
}

/// Collects failed checks.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn finish(mut self, fp: &Fingerprint) -> Vec<String> {
        self.expect(fp.nans == 0, || {
            format!("{} NaN fields in the report", fp.nans)
        });
        self.0
    }
}

/// Makes the `simulate_*` call `sims` times on the same inputs, each timed
/// and under its own span. Returns the last report, its fingerprint and
/// each call's host seconds. A report whose fingerprint differs from the
/// first call's fails a check.
fn simulate_timed<R>(
    sims: usize,
    tr: &mut Tracer,
    (layer, name): (&'static str, &'static str),
    mut simulate: impl FnMut() -> R,
    fingerprint: impl Fn(&R) -> Fingerprint,
    checks: &mut Checks,
) -> (R, Fingerprint, Vec<f64>) {
    let mut times = Vec::with_capacity(sims);
    let mut first = None;
    let mut last = None;
    for _ in 0..sims.max(1) {
        drop(last.take()); // free the previous report so it adds nothing to peak RSS
        let t = Instant::now();
        let report = tr.span(layer, name, &mut simulate);
        times.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&report);
        let (this, first) = (fp.value(), *first.get_or_insert(fp.value()));
        checks.expect(this == first, || {
            format!("{name} on the same inputs gave fingerprint {this:#018x}, first {first:#018x}")
        });
        last = Some((report, fp));
    }
    let (report, fp) = last.expect("at least one call");
    (report, fp, times)
}

fn conserved(checks: &mut Checks, completed: usize, timed_out: usize, n: usize) {
    checks.expect(completed + timed_out == n, || {
        format!("conservation: {completed} completed + {timed_out} timed out != {n} requests")
    });
}

fn fleet_stream(n: usize, sims: usize, seed: u64, tr: &mut Tracer) -> Run {
    let t0 = Instant::now();
    let design = tr.span("accelerator", "AcceleratorDesign::new", stream_design);
    let fleet = homogeneous_fleet(&design, STREAM_SHARDS);
    let trace = tr.span("workloads", "poisson_trace", || {
        poisson_trace(&DatasetSpec::rte(), STREAM_RATE, n, seed)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let ((report, stats), fp, sim_s) = simulate_timed(
        sims,
        tr,
        ("fleet", "simulate_fleet_instrumented"),
        || {
            simulate_fleet_instrumented(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                ReportMode::Streaming,
            )
        },
        |(report, stats)| {
            let mut fp = Fingerprint::new();
            fp.fleet(report);
            fp.u(stats.events_processed);
            fp.u(stats.peak_heap_events as u64);
            fp
        },
        &mut checks,
    );

    conserved(&mut checks, report.completed, 0, n);
    Run {
        setup_s,
        sim_s,
        fingerprint: fp.value(),
        failures: checks.finish(&fp),
        layers: Layers {
            run_batch_calls: report.shards.iter().map(|s| s.batches as u64).sum(),
            mean_batch: report.mean_batch_size,
            fleet_events: stats.events_processed,
            fleet_peak_heap_events: stats.peak_heap_events as u64,
            fleet_peak_tracked_bytes: stats.peak_tracked_bytes(),
            ..Layers::default()
        },
    }
}

fn decode_full_slots(n: usize, sims: usize, seed: u64, tr: &mut Tracer) -> Run {
    let prompts = MixedWorkload::paper_mix();
    let outputs = prompts.decode_output();
    let cfg = DecodeConfig {
        max_slots: DECODE_SLOTS,
        ..DecodeConfig::default()
    };
    let t0 = Instant::now();
    let design = tr.span("accelerator", "AcceleratorDesign::new", || {
        bert_base(MIX_TUNING)
    });
    let fleet = homogeneous_fleet(&design, DECODE_SHARDS);
    let trace = tr.span("workloads", "decode_trace", || {
        decode_trace(&prompts, &outputs, 0.0, DECODE_RATE, n, seed)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let (report, fp, sim_s) = simulate_timed(
        sims,
        tr,
        ("decode", "simulate_decode"),
        || {
            simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &cfg,
            )
        },
        |report| {
            let mut fp = Fingerprint::new();
            fp.decode(report);
            fp
        },
        &mut checks,
    );

    conserved(&mut checks, report.fleet.completed, 0, n);
    checks.expect(
        report.slot_utilization >= DECODE_MIN_SLOT_UTILIZATION,
        || {
            format!(
                "slot utilization {:.4} < {DECODE_MIN_SLOT_UTILIZATION}",
                report.slot_utilization
            )
        },
    );
    let iterations: u64 = report.fleet.shards.iter().map(|s| s.batches as u64).sum();
    let prefill_passes: u64 = report
        .requests
        .iter()
        .map(|o| 1 + o.re_prefills as u64)
        .sum();
    Run {
        setup_s,
        sim_s,
        fingerprint: fp.value(),
        failures: checks.finish(&fp),
        layers: Layers {
            run_batch_calls: iterations.min(prefill_passes),
            mean_batch: report.fleet.mean_batch_size,
            decode_iterations: iterations,
            decode_generated_tokens: report.generated_tokens,
            decode_slot_utilization: report.slot_utilization,
            ..Layers::default()
        },
    }
}

fn disagg_prefix_warm(n: usize, sims: usize, seed: u64, tr: &mut Tracer) -> Run {
    let prompts = disagg_prompts();
    let outputs = disagg_outputs();
    let cfg = DecodeConfig {
        max_slots: DISAGG_SLOTS,
        ttft_deadline_s: f64::INFINITY,
    };
    let disagg = DisaggConfig {
        transfer: KvTransfer::Copy {
            base_s: DISAGG_CHEAP_BASE_S,
            per_token_s: DISAGG_CHEAP_PER_TOKEN_S,
        },
        prefix_cache_capacity: DISAGG_CACHE_CAPACITY,
    };
    let profile = PrefixProfile {
        num_groups: DISAGG_PREFIX_GROUPS,
        prefix_len: DISAGG_PREFIX_LEN,
        grouped_fraction: DISAGG_GROUPED_FRACTION,
    };
    let t0 = Instant::now();
    let design = tr.span("accelerator", "AcceleratorDesign::new", || {
        bert_base(prompts.avg_len)
    });
    let fleet = homogeneous_fleet(&design, DISAGG_COLOCATED_SHARDS);
    let (prefill_pool, decode_pool) = fleet.split_at(DISAGG_PREFILL_SHARDS);
    let trace = tr.span("workloads", "decode_trace", || {
        decode_trace(&prompts, &outputs, 0.0, DISAGG_RATE, n, seed)
    });
    let prefixes = tr.span("workloads", "PrefixProfile::assign", || {
        profile.assign(n, seed)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let (report, fp, sim_s) = simulate_timed(
        sims,
        tr,
        ("disagg", "simulate_disaggregated"),
        || {
            simulate_disaggregated(
                prefill_pool,
                decode_pool,
                &trace,
                &prefixes,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &cfg,
                &disagg,
            )
        },
        |report| {
            let mut fp = Fingerprint::new();
            fp.disagg(report);
            fp
        },
        &mut checks,
    );

    conserved(&mut checks, report.decode.fleet.completed, 0, n);
    let multi = trace.iter().filter(|r| r.output_len > 1).count();
    checks.expect(report.transfers == multi, || {
        format!(
            "{} handoffs for {multi} multi-token requests",
            report.transfers
        )
    });
    // A warm cache holding every group misses once per group, then hits.
    let grouped = prefixes.iter().flatten().count();
    let groups = prefixes
        .iter()
        .flatten()
        .map(|g| g.group)
        .collect::<BTreeSet<_>>()
        .len();
    let p = &report.prefix;
    checks.expect(p.hits == grouped - groups && p.hits > 0, || {
        format!(
            "warm cache hit {} of {} lookups, expected {}",
            p.hits,
            p.hits + p.misses,
            grouped - groups
        )
    });
    let prefill_shards = &report.decode.fleet.shards[..DISAGG_PREFILL_SHARDS];
    Run {
        setup_s,
        sim_s,
        fingerprint: fp.value(),
        failures: checks.finish(&fp),
        layers: Layers {
            // Decode-pool iterations resume KV-warm sequences: memoized.
            run_batch_calls: report.prefill_pool.iterations as u64,
            mean_batch: prefill_shards
                .iter()
                .map(|s| s.mean_batch_size)
                .sum::<f64>()
                / prefill_shards.len() as f64,
            decode_iterations: (report.prefill_pool.iterations + report.decode_pool.iterations)
                as u64,
            decode_generated_tokens: report.decode.generated_tokens,
            decode_slot_utilization: report.decode.slot_utilization,
            disagg_transfers: report.transfers as u64,
            disagg_prefix_hits: p.hits as u64,
            disagg_prefix_lookups: (p.hits + p.misses) as u64,
            disagg_prefill_iterations: report.prefill_pool.iterations as u64,
            disagg_decode_iterations: report.decode_pool.iterations as u64,
            ..Layers::default()
        },
    }
}

fn incident_trace(n: usize, seed: u64) -> Vec<Request> {
    let profile = RateProfile::Burst {
        base_rate: FAILURE_BASE_RATE,
        burst_rate: FAILURE_BURST_RATE,
        start_s: FAILURE_BURST_START_S,
        duration_s: FAILURE_BURST_DURATION_S,
    };
    nonstationary_poisson_trace(&failure_mix(), &profile, n, seed)
}

/// The `ablate_failures` incident: a flash crowd with a mid-peak crash of
/// shard 0 and its later recovery, under reactive autoscaling and a
/// retrying client.
fn fleet_incident(n: usize, sims: usize, seed: u64, tr: &mut Tracer) -> Run {
    let plan = FaultPlan {
        faults: vec![Fault {
            shard: 0,
            kind: FaultKind::Crash {
                at_s: FAILURE_CRASH_S,
                recover_s: Some(FAILURE_RECOVER_S),
            },
        }],
    };
    let client = ClientConfig {
        timeout_s: FAILURE_TIMEOUT_S,
        max_retries: FAILURE_MAX_RETRIES,
        backoff_s: FAILURE_BACKOFF_S,
        deadline_s: FAILURE_DEADLINE_S,
    };
    let scaling = AutoscaleConfig {
        min_shards: FAILURE_MIN_SHARDS,
        initial_shards: 2,
        policy: ScalePolicy::Reactive {
            scale_up_depth: 8.0,
            scale_down_depth: 2.0,
        },
        retire: RetirePolicy::Drain,
        eval_interval_s: 0.1,
        warmup_s: FAILURE_WARMUP_S,
        cooldown_s: 0.2,
        slo_latency_s: FAILURE_SLO_LATENCY_S,
        phase_bounds_s: Vec::new(),
    };
    let t0 = Instant::now();
    let design = tr.span("accelerator", "AcceleratorDesign::new", || {
        bert_base(MIX_TUNING)
    });
    let fleet = homogeneous_fleet(&design, FAILURE_MAX_SHARDS);
    let trace = tr.span("workloads", "nonstationary_poisson_trace", || {
        incident_trace(n, seed)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let (report, fp, sim_s) = simulate_timed(
        sims,
        tr,
        ("failure", "simulate_autoscale_failure"),
        || {
            simulate_autoscale_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                &scaling,
                &plan,
                &client,
            )
        },
        |report| {
            let mut fp = Fingerprint::new();
            fp.autoscale_failure(report);
            fp
        },
        &mut checks,
    );

    let f = &report.failure;
    conserved(&mut checks, f.completed, f.timed_out, n);
    checks.expect(f.outcomes.len() == n, || {
        format!("{} client outcomes for {n} requests", f.outcomes.len())
    });
    let phased: usize = f.phases.iter().map(|p| p.arrivals).sum();
    checks.expect(phased == n, || {
        format!("incident phases hold {phased} of {n} arrivals")
    });
    checks.expect(report.scale_events.len() >= 2, || {
        "the crash and recovery left no scale events".to_string()
    });
    Run {
        setup_s,
        sim_s,
        fingerprint: fp.value(),
        failures: checks.finish(&fp),
        layers: Layers {
            run_batch_calls: f.fleet.shards.iter().map(|s| s.batches as u64).sum(),
            mean_batch: f.fleet.mean_batch_size,
            failure_scale_events: report.scale_events.len() as u64,
            failure_retries: f.retries as u64,
            failure_timed_out: f.timed_out as u64,
            ..Layers::default()
        },
    }
}
