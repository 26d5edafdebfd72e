//! The evaluation scenarios of §5.2: model × dataset combinations, with
//! deterministic batch sampling shared by every figure harness.

use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_tensor::rng::SplitMix64;
use lat_workloads::datasets::{DatasetSpec, MixedWorkload};

/// The paper's batch size for hardware evaluation.
pub const BATCH_SIZE: usize = 16;

/// Default number of batches each harness averages over.
pub const DEFAULT_BATCHES: usize = 8;

/// Root seed for all figure harnesses (printed by each binary).
pub const HARNESS_SEED: u64 = 0xDAC2_2022;

/// The harness seed, overridable through the `HARNESS_SEED` environment
/// variable (decimal or `0x`-prefixed hex). CI sweeps a small seed matrix
/// over the isolated property suites with this hook so the determinism
/// pins aren't single-seed artifacts; unset, it falls back to
/// [`HARNESS_SEED`].
///
/// # Panics
///
/// Panics if the variable is set but does not parse as a `u64` — a
/// misconfigured CI matrix should fail loudly, not silently test the
/// default seed.
pub fn harness_seed() -> u64 {
    match std::env::var("HARNESS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("HARNESS_SEED {s:?} is not a u64"))
        }
        Err(_) => HARNESS_SEED,
    }
}

/// The serving ablations' shard: BERT-base with the paper's sparse
/// attention on an Alveo U280, its pipeline stages tuned for sequences
/// of `s_avg` tokens.
pub fn bert_base_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

/// Shard counts swept by `ablate_fleet`'s homogeneous scaling table.
pub const FLEET_SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Saturating arrival rate (seq/s) for the fleet scaling table — far above
/// a single BERT-base shard's ~64 seq/s capacity, so added shards are the
/// bottleneck relief and throughput must scale with the fleet.
pub const FLEET_SATURATING_RATE: f64 = 600.0;

/// Arrival-rate sweep for the fleet dispatch-policy table (light load up
/// to just past the heterogeneous fleet's saturation knee).
pub const FLEET_DISPATCH_RATES: [f64; 3] = [60.0, 120.0, 200.0];

/// Stage-allocation tunings of the heterogeneous length-binned fleet: one
/// shard sized at the MRPC maximum (86, the short bin) and three at the
/// SQuAD maximum (821, the long bin). The 1:3 split matches the
/// cost-weighted demand of [`fleet_mix`] (long requests carry most tokens).
pub const FLEET_BIN_TUNINGS: [usize; 4] = [86, 821, 821, 821];

/// Requests per fleet simulation point.
pub const FLEET_REQUESTS: usize = 320;

/// The traffic mix the fleet ablation serves: the equal-weight Table 1
/// dataset mix (multi-tenant serving with three length profiles).
pub fn fleet_mix() -> MixedWorkload {
    MixedWorkload::paper_mix()
}

/// Concurrent sequences (KV-cache slots) per shard in the decode ablation.
pub const DECODE_SLOTS: usize = 16;

/// Requests per decode simulation point.
pub const DECODE_REQUESTS: usize = 160;

/// Fraction of high-priority (latency-sensitive) decode requests.
pub const DECODE_HIGH_FRACTION: f64 = 0.15;

/// Time-to-first-token deadline of the high-priority class, driving
/// preemption under `ContinuousPreempt` — far below the queueing delay a
/// saturated shard imposes, so deadline misses actually occur.
pub const DECODE_TTFT_DEADLINE_S: f64 = 0.05;

/// Shard counts swept by the decode ablation.
pub const DECODE_SHARD_COUNTS: [usize; 2] = [1, 2];

/// Saturating request rate (seq/s) per decode table — each request holds a
/// slot for its whole multi-step service, so per-shard capacity is far
/// below the encoder fleet's.
pub const DECODE_SATURATING_RATE: f64 = 60.0;

/// Arrival-rate sweep for the decode priority table (moderate load up to
/// the saturating rate).
pub const DECODE_RATES: [f64; 2] = [15.0, 60.0];

/// Prefill traffic mix of the decode ablation: the Table 1 mix; output
/// lengths come from its mirrored decode profile
/// (`decode_mix().decode_output()`), whose `max/avg` skew is what strands
/// a static batch's slots on straggler outputs.
pub fn decode_mix() -> MixedWorkload {
    MixedWorkload::paper_mix()
}

/// Largest fleet the autoscale ablation may commit (the fixed-max
/// baseline's size).
pub const AUTOSCALE_MAX_SHARDS: usize = 4;

/// Smallest fleet the autoscaler may shrink to (the fixed-min baseline's
/// size).
pub const AUTOSCALE_MIN_SHARDS: usize = 1;

/// Time-averaged arrival rate (seq/s) of the diurnal workload — between
/// one BERT-base shard's ~68 seq/s capacity and the 4-shard fleet's, so
/// neither fixed extreme is right all day.
pub const AUTOSCALE_MEAN_RATE: f64 = 100.0;

/// Peak:trough arrival-rate ratio of the diurnal swing. At 4× the peak
/// (160 seq/s) needs ≥ 3 shards while the trough (40 seq/s) fits in one.
pub const AUTOSCALE_SWING: f64 = 4.0;

/// Period of one diurnal cycle in (simulated) seconds.
pub const AUTOSCALE_PERIOD_S: f64 = 8.0;

/// Requests per autoscale simulation point (~2 diurnal cycles at the mean
/// rate).
pub const AUTOSCALE_REQUESTS: usize = 1600;

/// Weight-streaming warm-up a launched shard pays before joining dispatch.
pub const AUTOSCALE_WARMUP_S: f64 = 0.3;

/// Autoscale controller sampling period.
pub const AUTOSCALE_EVAL_INTERVAL_S: f64 = 0.1;

/// Minimum time between feedback-policy scaling actions.
pub const AUTOSCALE_COOLDOWN_S: f64 = 0.2;

/// End-to-end latency SLO the autoscale ablation reports attainment
/// against.
pub const AUTOSCALE_SLO_LATENCY_S: f64 = 0.5;

/// Reactive scale-up threshold: mean waiting requests per accepting shard.
pub const AUTOSCALE_UP_DEPTH: f64 = 8.0;

/// Reactive scale-down threshold (hysteresis partner of
/// [`AUTOSCALE_UP_DEPTH`]).
pub const AUTOSCALE_DOWN_DEPTH: f64 = 2.0;

/// Headline-claim tolerance: reactive autoscaling's p95 may exceed the
/// fixed-max fleet's by at most this factor.
pub const AUTOSCALE_P95_TOLERANCE: f64 = 2.0;

/// Headline-claim margin: reactive autoscaling must spend at most this
/// fraction of the fixed-max fleet's shard-seconds.
pub const AUTOSCALE_COST_MARGIN: f64 = 0.8;

/// Prompt mix served by the autoscale ablation (the Table 1 mix, matching
/// the fleet ablation).
pub fn autoscale_mix() -> MixedWorkload {
    MixedWorkload::paper_mix()
}

/// Largest decode fleet the decode-autoscale ablation may commit (the
/// fixed-max baseline's size).
pub const DECODE_AUTOSCALE_MAX_SHARDS: usize = 4;

/// Smallest decode fleet the autoscaler may shrink to.
pub const DECODE_AUTOSCALE_MIN_SHARDS: usize = 1;

/// Concurrent sequences (KV-cache slots) per decode-autoscale shard —
/// deliberately tighter than [`DECODE_SLOTS`] so the slot pool, not just
/// iteration compute, is what scaling provisions: at the diurnal peak the
/// fixed-max fleet runs its slots ~95% occupied and arrivals queue for a
/// free slot.
pub const DECODE_AUTOSCALE_SLOTS: usize = 8;

/// Sustainable decode throughput of one BERT-base shard on the paper mix
/// with [`DECODE_AUTOSCALE_SLOTS`] slots (measured at saturation: ~17.9
/// seq/s) — the capacity oracle the predictive policy maps forecasts
/// through, declared slightly conservative.
pub const DECODE_AUTOSCALE_SHARD_CAPACITY: f64 = 17.5;

/// Time-averaged decode arrival rate (seq/s) of the diurnal workload —
/// between one shard's ~17.9 seq/s and the 4-shard fleet's ~72, so
/// neither fixed extreme is right all day.
pub const DECODE_AUTOSCALE_MEAN_RATE: f64 = 42.0;

/// Peak:trough arrival-rate ratio of the decode diurnal swing. At 4× the
/// peak (67.2 seq/s) keeps even the 4-shard fleet's slot pools ~95%
/// occupied while the trough (16.8 seq/s) fits in one shard.
pub const DECODE_AUTOSCALE_SWING: f64 = 4.0;

/// Period of one decode diurnal cycle in (simulated) seconds — long
/// enough that the warm-up is a small fraction of a ramp.
pub const DECODE_AUTOSCALE_PERIOD_S: f64 = 30.0;

/// Requests per decode-autoscale simulation point (~3 diurnal cycles at
/// the mean rate, so the harmonic forecaster sees a full cycle before the
/// later ramps it is judged on).
pub const DECODE_AUTOSCALE_REQUESTS: usize = 3600;

/// Weight-streaming warm-up a launched decode shard pays before admitting
/// residents.
pub const DECODE_AUTOSCALE_WARMUP_S: f64 = 0.25;

/// Decode autoscale controller sampling period.
pub const DECODE_AUTOSCALE_EVAL_INTERVAL_S: f64 = 0.1;

/// Minimum time between feedback-policy scaling actions.
pub const DECODE_AUTOSCALE_COOLDOWN_S: f64 = 0.15;

/// Time-to-first-token SLO the decode-autoscale ablation reports
/// attainment against.
pub const DECODE_AUTOSCALE_SLO_TTFT_S: f64 = 0.5;

/// Reactive scale-up threshold: mean in-system decode requests (waiting +
/// KV-resident — slot-pool pressure) per accepting shard; just under the
/// slot count, so the scaler fires when the pool is nearly held rather
/// than after requests already queue.
pub const DECODE_AUTOSCALE_UP_DEPTH: f64 = DECODE_AUTOSCALE_SLOTS as f64 - 0.5;

/// Reactive scale-down threshold (hysteresis partner of
/// [`DECODE_AUTOSCALE_UP_DEPTH`]): scale in only when shards run their
/// slot pools well under capacity.
pub const DECODE_AUTOSCALE_DOWN_DEPTH: f64 = 3.5;

/// EWMA smoothing factor of the predictive policy's rate estimator.
pub const DECODE_AUTOSCALE_ALPHA: f64 = 0.3;

/// Headline-claim tolerance: an autoscaled decode fleet's p95 TTFT may
/// exceed the fixed-max fleet's by at most this factor.
pub const DECODE_AUTOSCALE_P95_TOLERANCE: f64 = 2.0;

/// Headline-claim margin: an autoscaled decode fleet must spend at most
/// this fraction of the fixed-max fleet's shard-seconds.
pub const DECODE_AUTOSCALE_COST_MARGIN: f64 = 0.8;

/// Prompt mix served by the decode-autoscale ablation (outputs mirror it
/// via `decode_output()`, matching the decode ablation).
pub fn decode_autoscale_mix() -> MixedWorkload {
    MixedWorkload::paper_mix()
}

/// Largest fleet of the failure ablation (the healthy capacity a
/// mid-peak crash subtracts one shard from).
pub const FAILURE_MAX_SHARDS: usize = 4;

/// Autoscaler floor of the failure ablation.
pub const FAILURE_MIN_SHARDS: usize = 1;

/// Arrival rate (seq/s) outside the flash-crowd window — comfortably
/// inside two shards' capacity, well over one's.
pub const FAILURE_BASE_RATE: f64 = 100.0;

/// Flash-crowd rate (seq/s): needs all [`FAILURE_MAX_SHARDS`] shards
/// (3 × ~68 seq/s < 240 < 4 × ~68), so the mid-peak crash puts the
/// surviving fleet under water for the incident's duration.
pub const FAILURE_BURST_RATE: f64 = 240.0;

/// Flash-crowd onset in seconds.
pub const FAILURE_BURST_START_S: f64 = 3.0;

/// Flash-crowd length in seconds — the burst subsides at the crash's
/// recovery instant, so the incident (flash crowd + mid-peak crash) has
/// one well-defined end to judge recovery after.
pub const FAILURE_BURST_DURATION_S: f64 = 2.5;

/// Shard-crash instant — inside the burst window (mid-peak).
pub const FAILURE_CRASH_S: f64 = 4.0;

/// Crash-recovery instant; the shard then rejoins through the normal
/// launch + warm-up path, so capacity returns one warm-up later.
pub const FAILURE_RECOVER_S: f64 = 5.5;

/// Requests per failure simulation point (~10.4 s horizon at the base
/// rate plus the burst surcharge — several seconds of post-incident
/// cruise to judge recovery against).
pub const FAILURE_REQUESTS: usize = 1600;

/// End-to-end latency SLO of the failure ablation (matches the
/// autoscale ablation's).
pub const FAILURE_SLO_LATENCY_S: f64 = AUTOSCALE_SLO_LATENCY_S;

/// Warm-up of a (re)launched shard in the failure ablation (matches the
/// autoscale ablation's — recovery claims are phrased "within one
/// warm-up of the recovery instant").
pub const FAILURE_WARMUP_S: f64 = AUTOSCALE_WARMUP_S;

/// Headline-claim tolerance: post-incident SLO attainment (arrivals
/// after recovery + one warm-up) must come within this much of the
/// pre-incident level.
pub const FAILURE_RECOVERY_TOLERANCE: f64 = 0.05;

/// Per-attempt client patience — generously above the SLO, so a timeout
/// marks a genuinely stuck request (crash-stranded or incident-buried),
/// not an ordinary SLO miss.
pub const FAILURE_TIMEOUT_S: f64 = 1.0;

/// Client retry budget after the first attempt.
pub const FAILURE_MAX_RETRIES: u32 = 3;

/// Base client backoff before the first retry (doubles per attempt).
pub const FAILURE_BACKOFF_S: f64 = 0.05;

/// End-to-end client deadline from the original arrival — wide enough
/// for the full retry ladder ([`FAILURE_TIMEOUT_S`] ×
/// ([`FAILURE_MAX_RETRIES`] + 1) plus backoffs).
pub const FAILURE_DEADLINE_S: f64 = 10.0;

/// Per-shard sustainable rate on the mix — the predictive policy's
/// capacity oracle (same figure the autoscale ablation's time-of-day
/// table uses).
pub const FAILURE_SHARD_CAPACITY: f64 = 68.0;

/// Straggler slow-down factor of the decode migrate-vs-drain
/// comparison — deep enough that draining residents in place on the
/// slow shard is clearly worse than evicting and re-prefilling them on
/// the survivors.
pub const FAILURE_STRAGGLER_SLOWDOWN: f64 = 25.0;

/// Decode fleet size of the migrate-vs-drain comparison.
pub const FAILURE_DECODE_SHARDS: usize = 3;

/// Output length of the migrate-vs-drain decode requests — long
/// generations, so the straggler's residents are large and live (the
/// regime where migrate's re-prefill cost pays for itself).
pub const FAILURE_DECODE_OUTPUT: usize = 64;

/// Prefill length of the migrate-vs-drain decode requests.
pub const FAILURE_DECODE_PREFILL: usize = 128;

/// Requests of the migrate-vs-drain comparison.
pub const FAILURE_DECODE_REQUESTS: usize = 24;

/// Arrival gap of the migrate-vs-drain comparison's steady trace.
pub const FAILURE_DECODE_GAP_S: f64 = 0.01;

/// Straggler window of the migrate-vs-drain comparison (opens once
/// residents are seated, closes long after every victim finished).
pub const FAILURE_STRAGGLER_WINDOW_S: (f64, f64) = (0.05, 60.0);

/// TTFT SLO the decode failure runs report attainment against.
pub const FAILURE_DECODE_SLO_TTFT_S: f64 = 0.5;

/// Prompt mix served by the failure ablation (the Table 1 mix, matching
/// the fleet and autoscale ablations).
pub fn failure_mix() -> MixedWorkload {
    MixedWorkload::paper_mix()
}

/// Prefill-pool width of the disaggregated-serving ablation.
pub const DISAGG_PREFILL_SHARDS: usize = 2;

/// Decode-pool width of the disaggregated-serving ablation; the
/// colocated baseline serves the combined width, so both arms spend the
/// same hardware.
pub const DISAGG_DECODE_SHARDS: usize = 2;

/// Fleet width of the colocated baseline — by construction the two
/// pools combined, so the comparison is iso-hardware.
pub const DISAGG_COLOCATED_SHARDS: usize = DISAGG_PREFILL_SHARDS + DISAGG_DECODE_SHARDS;

/// Requests per disaggregation cell.
pub const DISAGG_REQUESTS: usize = 240;

/// Offered load of the disaggregation cells (sequences/s) — just past
/// the colocated baseline's saturation knee (~56 seq/s on this
/// workload), where decode-slot contention visibly taxes its prompt
/// queue, yet low enough that the full-price 2-shard prefill pool
/// (~64 seq/s) still clears its backlog before the run ends.
pub const DISAGG_RATE: f64 = 68.0;

/// Decode slots per shard in the disaggregation cells.
pub const DISAGG_SLOTS: usize = 16;

/// Distinct shared prefixes (system prompts) in circulation.
pub const DISAGG_PREFIX_GROUPS: usize = 4;

/// Shared-prefix length in tokens — most of an average SQuAD prompt, so
/// a warm cache hit skips the bulk of prefill.
pub const DISAGG_PREFIX_LEN: usize = 128;

/// Fraction of requests that carry some shared prefix.
pub const DISAGG_GROUPED_FRACTION: f64 = 0.9;

/// Prefix-cache capacity (entries) of the warm-cache cells — every
/// group fits, so the only misses are compulsory.
pub const DISAGG_CACHE_CAPACITY: usize = DISAGG_PREFIX_GROUPS;

/// NVLink-class KV interconnect: fixed handshake cost per handoff.
pub const DISAGG_CHEAP_BASE_S: f64 = 2e-5;

/// NVLink-class per-context-token copy cost.
pub const DISAGG_CHEAP_PER_TOKEN_S: f64 = 5e-8;

/// Congested-Ethernet-class handshake cost — comparable to a whole
/// request's service time, so each handoff stalls the decode pool.
pub const DISAGG_COSTLY_BASE_S: f64 = 8e-2;

/// Congested-Ethernet-class per-context-token copy cost.
pub const DISAGG_COSTLY_PER_TOKEN_S: f64 = 5e-4;

/// Prompt distribution of the disaggregation cells: SQuAD's long
/// prompts make the workload prefill-heavy, the regime disaggregation
/// targets.
pub fn disagg_prompts() -> DatasetSpec {
    DatasetSpec::squad_v1()
}

/// Output distribution of the disaggregation cells: short continuations
/// (QA-style answers), keeping prefill the dominant cost.
pub fn disagg_outputs() -> DatasetSpec {
    DatasetSpec {
        name: "short continuation".into(),
        min_len: 1,
        avg_len: 24,
        max_len: 96,
    }
}

/// One model × dataset evaluation point.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The model under evaluation.
    pub model: ModelConfig,
    /// The dataset providing the length distribution.
    pub dataset: DatasetSpec,
}

impl Scenario {
    /// Display label, e.g. `BERT-base / SQuAD v1.1`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.model.name, self.dataset.name)
    }

    /// The four hardware-evaluation scenarios of Fig. 7: BERT-base on
    /// SQuAD v1.1 / RTE / MRPC and BERT-large on SQuAD v1.1.
    pub fn hardware_eval() -> Vec<Scenario> {
        vec![
            Scenario {
                model: ModelConfig::bert_base(),
                dataset: DatasetSpec::squad_v1(),
            },
            Scenario {
                model: ModelConfig::bert_base(),
                dataset: DatasetSpec::rte(),
            },
            Scenario {
                model: ModelConfig::bert_base(),
                dataset: DatasetSpec::mrpc(),
            },
            Scenario {
                model: ModelConfig::bert_large(),
                dataset: DatasetSpec::squad_v1(),
            },
        ]
    }

    /// The ten accuracy-evaluation combinations of Fig. 6 (four models ×
    /// three datasets, BERT-large only on SQuAD).
    pub fn accuracy_eval() -> Vec<Scenario> {
        let mut out = Vec::new();
        for model in [
            ModelConfig::bert_base(),
            ModelConfig::bert_large(),
            ModelConfig::distilbert(),
            ModelConfig::roberta(),
        ] {
            for dataset in DatasetSpec::paper_datasets() {
                if model.name == "BERT-large" && dataset.name != "SQuAD v1.1" {
                    continue;
                }
                out.push(Scenario {
                    model: model.clone(),
                    dataset,
                });
            }
        }
        out
    }

    /// Samples `n_batches` deterministic batches of [`BATCH_SIZE`] lengths.
    pub fn sample_batches(&self, n_batches: usize) -> Vec<Vec<usize>> {
        let mut rng = SplitMix64::new(HARNESS_SEED ^ hash_label(&self.label()));
        self.dataset.sample_batches(&mut rng, BATCH_SIZE, n_batches)
    }
}

fn hash_label(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Geometric mean of strictly positive values; 0 if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagg_constants_consistent() {
        // Iso-hardware comparison: the colocated baseline spends exactly
        // the two pools' combined width.
        assert_eq!(
            DISAGG_COLOCATED_SHARDS,
            DISAGG_PREFILL_SHARDS + DISAGG_DECODE_SHARDS
        );
        // The warm cache holds every circulating group, so after the
        // compulsory misses the hit rate equals the grouped fraction.
        const { assert!(DISAGG_CACHE_CAPACITY >= DISAGG_PREFIX_GROUPS) };
        assert!((0.0..=1.0).contains(&DISAGG_GROUPED_FRACTION));
        // A hit skips the bulk — but never all — of an average prompt.
        let prompts = disagg_prompts();
        assert!(DISAGG_PREFIX_LEN < prompts.avg_len);
        assert!(2 * DISAGG_PREFIX_LEN > prompts.avg_len);
        // Outputs stay short relative to prompts: the workload is
        // prefill-dominant, the regime disaggregation targets.
        let outputs = disagg_outputs();
        assert!(outputs.min_len <= outputs.avg_len && outputs.avg_len <= outputs.max_len);
        assert!(4 * outputs.avg_len < prompts.avg_len + prompts.avg_len / 2);
        // The two interconnect classes sit on opposite sides of the
        // crossover: orders of magnitude apart on both cost axes.
        const { assert!(DISAGG_CHEAP_BASE_S * 100.0 <= DISAGG_COSTLY_BASE_S) };
        const { assert!(DISAGG_CHEAP_PER_TOKEN_S * 100.0 <= DISAGG_COSTLY_PER_TOKEN_S) };
    }

    #[test]
    fn hardware_eval_has_four_scenarios() {
        let s = Scenario::hardware_eval();
        assert_eq!(s.len(), 4);
        assert!(s[3].label().contains("BERT-large"));
    }

    #[test]
    fn accuracy_eval_has_ten_combos() {
        assert_eq!(Scenario::accuracy_eval().len(), 10);
    }

    #[test]
    fn batches_are_deterministic_and_sized() {
        let sc = &Scenario::hardware_eval()[0];
        let a = sc.sample_batches(3);
        let b = sc.sample_batches(3);
        assert_eq!(a, b);
        assert!(a.iter().all(|batch| batch.len() == BATCH_SIZE));
    }

    #[test]
    fn different_scenarios_get_different_batches() {
        let s = Scenario::hardware_eval();
        assert_ne!(s[0].sample_batches(1), s[1].sample_batches(1));
    }

    #[test]
    fn fleet_constants_consistent() {
        assert_eq!(FLEET_SHARD_COUNTS, [1, 2, 4]);
        // Bin tunings cover the mix's extremes: the short bin is the MRPC
        // max, the long bin the SQuAD max.
        assert_eq!(FLEET_BIN_TUNINGS[0], DatasetSpec::mrpc().max_len);
        assert!(FLEET_BIN_TUNINGS[1..]
            .iter()
            .all(|&t| t == DatasetSpec::squad_v1().max_len));
        // Cap-divisible request count: saturating runs end on full batches.
        assert_eq!(FLEET_REQUESTS % BATCH_SIZE, 0);
        assert!(fleet_mix().components().len() == 3);
    }

    #[test]
    fn decode_constants_consistent() {
        assert!((0.0..1.0).contains(&DECODE_HIGH_FRACTION) && DECODE_HIGH_FRACTION > 0.0);
        // The priority sweep ends at the saturating point the goodput and
        // preemption claims are asserted at.
        assert_eq!(DECODE_RATES[DECODE_RATES.len() - 1], DECODE_SATURATING_RATE);
        // The output profile mirrors the prompt mix's length statistics
        // (1-token floor), preserving the paper's max/avg skew.
        let out = decode_mix().decode_output();
        assert_eq!(out.components().len(), 3);
        assert_eq!(out.expected_avg(), decode_mix().expected_avg());
    }

    #[test]
    fn autoscale_constants_consistent() {
        const {
            assert!(AUTOSCALE_MIN_SHARDS >= 1 && AUTOSCALE_MIN_SHARDS < AUTOSCALE_MAX_SHARDS);
            assert!(AUTOSCALE_SWING > 1.0);
            assert!(AUTOSCALE_UP_DEPTH > AUTOSCALE_DOWN_DEPTH);
            assert!(AUTOSCALE_P95_TOLERANCE >= 1.0);
        }
        // The trough must fit the min fleet and the peak must overwhelm
        // it, or the diurnal claim is vacuous: one BERT-base shard
        // sustains ~68 seq/s on the mix.
        let amp = (AUTOSCALE_SWING - 1.0) / (AUTOSCALE_SWING + 1.0);
        let trough = AUTOSCALE_MEAN_RATE * (1.0 - amp);
        let peak = AUTOSCALE_MEAN_RATE * (1.0 + amp);
        assert!(
            trough < 68.0,
            "trough {trough} saturates even the min fleet"
        );
        assert!(peak > 68.0, "peak {peak} never stresses the min fleet");
        assert!((peak / trough - AUTOSCALE_SWING).abs() < 1e-9);
        // ~2 full diurnal cycles of traffic.
        let duration = AUTOSCALE_REQUESTS as f64 / AUTOSCALE_MEAN_RATE;
        assert!(duration >= 2.0 * AUTOSCALE_PERIOD_S);
        assert!((0.0..1.0).contains(&AUTOSCALE_COST_MARGIN));
        assert_eq!(autoscale_mix().components().len(), 3);
    }

    #[test]
    fn decode_autoscale_constants_consistent() {
        const {
            assert!(
                DECODE_AUTOSCALE_MIN_SHARDS >= 1
                    && DECODE_AUTOSCALE_MIN_SHARDS < DECODE_AUTOSCALE_MAX_SHARDS
            );
            assert!(DECODE_AUTOSCALE_SWING > 1.0);
            assert!(DECODE_AUTOSCALE_UP_DEPTH > DECODE_AUTOSCALE_DOWN_DEPTH);
            assert!(DECODE_AUTOSCALE_P95_TOLERANCE >= 1.0);
            assert!(DECODE_AUTOSCALE_ALPHA > 0.0 && DECODE_AUTOSCALE_ALPHA <= 1.0);
            // The warm-up must be small against a quarter-period ramp, or
            // no policy can keep up by construction.
            assert!(DECODE_AUTOSCALE_WARMUP_S < DECODE_AUTOSCALE_PERIOD_S / 4.0);
        }
        // The trough must fit the min fleet, the peak must overwhelm it
        // but fit the max fleet — otherwise the diurnal claim is vacuous.
        let amp = (DECODE_AUTOSCALE_SWING - 1.0) / (DECODE_AUTOSCALE_SWING + 1.0);
        let trough = DECODE_AUTOSCALE_MEAN_RATE * (1.0 - amp);
        let peak = DECODE_AUTOSCALE_MEAN_RATE * (1.0 + amp);
        assert!(
            trough < DECODE_AUTOSCALE_SHARD_CAPACITY,
            "trough {trough} saturates even the min fleet"
        );
        assert!(
            peak > DECODE_AUTOSCALE_SHARD_CAPACITY,
            "peak {peak} never stresses the min fleet"
        );
        assert!(
            peak < DECODE_AUTOSCALE_SHARD_CAPACITY * DECODE_AUTOSCALE_MAX_SHARDS as f64,
            "peak {peak} overwhelms even the max fleet"
        );
        // ≥ 2.5 diurnal cycles: the harmonic forecaster needs a full
        // cycle of history before the ramps it is judged on.
        let duration = DECODE_AUTOSCALE_REQUESTS as f64 / DECODE_AUTOSCALE_MEAN_RATE;
        assert!(duration >= 2.5 * DECODE_AUTOSCALE_PERIOD_S);
        assert!((0.0..1.0).contains(&DECODE_AUTOSCALE_COST_MARGIN));
        assert_eq!(decode_autoscale_mix().components().len(), 3);
    }

    #[test]
    fn failure_constants_consistent() {
        const {
            assert!(FAILURE_MIN_SHARDS >= 1 && FAILURE_MIN_SHARDS < FAILURE_MAX_SHARDS);
            assert!(FAILURE_BURST_RATE > FAILURE_BASE_RATE);
            // The crash lands inside the burst window (mid-peak), the
            // recovery strictly after it.
            assert!(FAILURE_CRASH_S >= FAILURE_BURST_START_S);
            assert!(FAILURE_CRASH_S < FAILURE_BURST_START_S + FAILURE_BURST_DURATION_S);
            assert!(FAILURE_RECOVER_S > FAILURE_CRASH_S);
            #[allow(clippy::manual_range_contains)] // not const-callable
            {
                assert!(FAILURE_RECOVERY_TOLERANCE > 0.0 && FAILURE_RECOVERY_TOLERANCE < 1.0);
            }
            // A timeout marks a stuck request, not an ordinary SLO miss.
            assert!(FAILURE_TIMEOUT_S > FAILURE_SLO_LATENCY_S);
            assert!(FAILURE_STRAGGLER_SLOWDOWN > 1.0);
            assert!(FAILURE_STRAGGLER_WINDOW_S.0 < FAILURE_STRAGGLER_WINDOW_S.1);
            assert!(FAILURE_DECODE_SHARDS >= 2 && FAILURE_DECODE_OUTPUT > 1);
        }
        // The burst needs every shard and a crash puts the survivors
        // under water — otherwise "mid-peak crash" stresses nothing.
        assert!(
            FAILURE_BURST_RATE < FAILURE_SHARD_CAPACITY * FAILURE_MAX_SHARDS as f64,
            "burst overwhelms even the healthy max fleet"
        );
        assert!(
            FAILURE_BURST_RATE > FAILURE_SHARD_CAPACITY * (FAILURE_MAX_SHARDS - 1) as f64,
            "burst fits the crashed fleet — the incident is painless"
        );
        assert!(
            FAILURE_BASE_RATE > FAILURE_SHARD_CAPACITY * FAILURE_MIN_SHARDS as f64,
            "base load fits the min fleet — the autoscaler never has to act"
        );
        // The deadline fits the full retry ladder (timeouts + doubled
        // backoffs), so `attempt_bound()` is set by max_retries.
        let ladder: f64 = (0..=FAILURE_MAX_RETRIES)
            .map(|a| FAILURE_TIMEOUT_S + FAILURE_BACKOFF_S * f64::powi(2.0, a as i32))
            .sum();
        assert!(
            FAILURE_DEADLINE_S > ladder,
            "deadline truncates the retry ladder"
        );
        // The trace horizon leaves post-incident cruise: expected end =
        // (requests − burst surcharge) / base rate.
        let horizon = (FAILURE_REQUESTS as f64
            - (FAILURE_BURST_RATE - FAILURE_BASE_RATE) * FAILURE_BURST_DURATION_S)
            / FAILURE_BASE_RATE;
        assert!(
            FAILURE_RECOVER_S + FAILURE_WARMUP_S + 2.0 < horizon,
            "no post-recovery arrivals left to judge recovery on"
        );
        assert_eq!(failure_mix().components().len(), 3);
    }

    #[test]
    fn harness_seed_env_override_consistent() {
        // With no ambient override the function is the const; with one it
        // must at least parse (the CI seed matrix relies on this hook).
        match std::env::var("HARNESS_SEED") {
            Err(_) => assert_eq!(harness_seed(), HARNESS_SEED),
            Ok(_) => {
                let _ = harness_seed();
            }
        }
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
