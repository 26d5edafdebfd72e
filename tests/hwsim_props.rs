//! Property-based tests of the FPGA simulator's invariants.

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::{AcceleratorDesign, StageCostTable};
use lat_fpga::hwsim::hbm::HbmModel;
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

fn design() -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        177,
    )
}

fn batch_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(16usize..512, 1..12)
}

/// `tiny` and `bert_base`, each sparse and dense, built once per process.
fn pricing_designs() -> &'static [AcceleratorDesign] {
    static DESIGNS: OnceLock<Vec<AcceleratorDesign>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        let mut designs = Vec::new();
        for (cfg, s_avg) in [(ModelConfig::tiny(), 64), (ModelConfig::bert_base(), 177)] {
            for mode in [AttentionMode::paper_sparse(), AttentionMode::Dense] {
                designs.push(AcceleratorDesign::new(
                    &cfg,
                    mode,
                    FpgaSpec::alveo_u280(),
                    s_avg,
                ));
            }
        }
        designs
    })
}

/// The four paper models and `tiny`, each sparse and dense, on the U280,
/// plus `tiny` and BERT-base on a U280 with 1/1000 of its HBM bandwidth,
/// where memory bounds many stages (on the real chip compute bounds
/// nearly all). Each carries one [`StageCostTable`], shared by every case
/// so later cases read rows earlier ones filled.
fn table_designs() -> &'static Mutex<Vec<(AcceleratorDesign, StageCostTable)>> {
    static DESIGNS: OnceLock<Mutex<Vec<(AcceleratorDesign, StageCostTable)>>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        let starved = FpgaSpec {
            hbm_bytes_per_s: FpgaSpec::alveo_u280().hbm_bytes_per_s / 1000.0,
            ..FpgaSpec::alveo_u280()
        };
        let models = [
            (ModelConfig::distilbert(), 177, FpgaSpec::alveo_u280()),
            (ModelConfig::bert_base(), 177, FpgaSpec::alveo_u280()),
            (ModelConfig::roberta(), 177, FpgaSpec::alveo_u280()),
            (ModelConfig::bert_large(), 177, FpgaSpec::alveo_u280()),
            (ModelConfig::tiny(), 64, FpgaSpec::alveo_u280()),
            (ModelConfig::tiny(), 64, starved.clone()),
            (ModelConfig::bert_base(), 177, starved),
        ];
        let mut designs = Vec::new();
        for (cfg, s_avg, spec) in models {
            for mode in [AttentionMode::paper_sparse(), AttentionMode::Dense] {
                let design = AcceleratorDesign::new(&cfg, mode, spec.clone(), s_avg);
                designs.push((design, StageCostTable::new()));
            }
        }
        Mutex::new(designs)
    })
}

/// Batches of 1–32 sequences of up to 1099 tokens (past BERT's 512): as
/// drawn, all equal to the first length, or with every other sequence
/// cut to a single token.
fn pricing_batch_strategy() -> impl Strategy<Value = Vec<usize>> {
    (proptest::collection::vec(1usize..1100, 1..=32), 0usize..3).prop_map(|(mut batch, shape)| {
        match shape {
            1 => {
                let first = batch[0];
                batch.iter_mut().for_each(|l| *l = first);
            }
            2 => batch.iter_mut().step_by(2).for_each(|l| *l = 1),
            _ => {}
        }
        batch
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stage cycle counts grow monotonically with sequence length.
    #[test]
    fn stage_cycles_monotone(len_a in 16usize..400, delta in 1usize..100) {
        let d = design();
        for stage in 0..d.allocation().num_stages() {
            prop_assert!(
                d.stage_cycles(stage, len_a + delta, 16) >= d.stage_cycles(stage, len_a, 16)
            );
        }
    }

    /// Run reports are internally consistent: positive time/energy,
    /// utilizations in [0,1], tokens and sequences preserved.
    #[test]
    fn run_report_consistency(batch in batch_strategy()) {
        let d = design();
        let r = d.run_batch(&batch, SchedulingPolicy::LengthAware);
        prop_assert_eq!(r.sequences, batch.len());
        prop_assert_eq!(r.tokens, batch.iter().map(|&l| l as u64).sum::<u64>());
        prop_assert!(r.seconds > 0.0);
        prop_assert!(r.energy_j > 0.0);
        prop_assert!(r.stage_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        prop_assert!(r.padded_dense_ops >= r.actual_ops);
    }

    /// Adding a sequence to a batch never shortens the makespan.
    #[test]
    fn more_work_never_faster(batch in batch_strategy(), extra in 16usize..512) {
        let d = design();
        let base = d.run_batch(&batch, SchedulingPolicy::LengthAware).seconds;
        let mut bigger = batch.clone();
        bigger.push(extra);
        let more = d.run_batch(&bigger, SchedulingPolicy::LengthAware).seconds;
        prop_assert!(more >= base);
    }

    /// Length-aware is never slower than pad-to-max on the simulator.
    #[test]
    fn adaptive_never_slower_on_hardware(batch in batch_strategy()) {
        let d = design();
        let a = d.run_batch(&batch, SchedulingPolicy::LengthAware).seconds;
        let p = d.run_batch(&batch, SchedulingPolicy::PadToMax).seconds;
        prop_assert!(a <= p + 1e-12);
    }

    /// Actual datapath throughput never exceeds the chip's peak.
    #[test]
    fn actual_gops_below_peak(batch in batch_strategy()) {
        let d = design();
        let r = d.run_batch(&batch, SchedulingPolicy::LengthAware);
        let peak_gops = d.spec().peak_ops_per_s() / 1e9;
        prop_assert!(
            r.actual_gops() <= peak_gops * 1.01,
            "{} GOPS exceeds peak {}", r.actual_gops(), peak_gops
        );
    }

    /// HBM: using more channels never slows a transfer; round-robin
    /// makespan is never better than the ideal stripe.
    #[test]
    fn hbm_channel_monotonicity(bytes in 1u64..10_000_000, used in 1u32..32) {
        let h = HbmModel::u280();
        prop_assert!(h.transfer_cycles(bytes, used + 1) <= h.transfer_cycles(bytes, used));
        prop_assert!(h.transfer_cycles(bytes, 32) >= 1);
    }

    /// Round-robin placement conserves bytes and its makespan dominates
    /// the ideal split.
    #[test]
    fn hbm_round_robin_conservation(buffers in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let h = HbmModel::u280();
        let per_channel = h.place_round_robin(&buffers);
        prop_assert_eq!(per_channel.iter().sum::<u64>(), buffers.iter().sum::<u64>());
        let total: u64 = buffers.iter().sum();
        prop_assert!(h.round_robin_makespan(&buffers) >= h.transfer_cycles(total, h.channels));
        let eff = h.round_robin_efficiency(&buffers);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&eff));
    }

    /// The serving engines' makespan-only pricing is `run_batch`'s
    /// seconds, bit for bit, under every policy.
    #[test]
    fn service_seconds_matches_run_batch(batch in pricing_batch_strategy()) {
        let policies = [SchedulingPolicy::LengthAware, SchedulingPolicy::PadToMax]
            .into_iter()
            .chain((1..=8).map(|size| SchedulingPolicy::MicroBatch { size }));
        for d in pricing_designs() {
            for policy in policies.clone() {
                prop_assert_eq!(
                    d.service_seconds(&batch, policy).to_bits(),
                    d.run_batch(&batch, policy).seconds.to_bits(),
                    "{} {:?} {} {:?}", d.config().name, d.mode(), policy, batch
                );
            }
        }
    }

    /// Every stage-cost table entry is `stage_cycles(stage, len, batch)`,
    /// at lengths past every model's `max_seq_len`.
    #[test]
    fn stage_cost_table_matches_stage_cycles(
        lens in proptest::collection::vec(1usize..=1100, 1..=16),
        batch in 1usize..=64,
    ) {
        let mut designs = table_designs().lock().expect("table lock");
        for (d, table) in designs.iter_mut() {
            for &len in &lens {
                for stage in 0..d.allocation().num_stages() {
                    prop_assert_eq!(
                        table.stage_cycles(d, stage, len, batch),
                        d.stage_cycles(stage, len, batch),
                        "{} {:?} {} stage {} len {} batch {}",
                        d.config().name, d.mode(), d.spec().hbm_bytes_per_s, stage, len, batch
                    );
                }
            }
        }
    }

    /// Pricing through a shared stage-cost table is `service_seconds`, bit
    /// for bit, under every policy; so is its pure-decode memo.
    #[test]
    fn table_seconds_match_service_seconds(batch in pricing_batch_strategy()) {
        let policies = [SchedulingPolicy::LengthAware, SchedulingPolicy::PadToMax]
            .into_iter()
            .chain((1..=8).map(|size| SchedulingPolicy::MicroBatch { size }));
        let mut designs = table_designs().lock().expect("table lock");
        let mut ones = Vec::new();
        for (d, table) in designs.iter_mut() {
            for policy in policies.clone() {
                prop_assert_eq!(
                    table.service_seconds(d, &batch, policy).to_bits(),
                    d.service_seconds(&batch, policy).to_bits(),
                    "{} {:?} {} {} {:?}",
                    d.config().name, d.mode(), d.spec().hbm_bytes_per_s, policy, batch
                );
                // Priced on the first call, memoized on the second.
                let one_token = d.service_seconds(&vec![1; batch.len()], policy).to_bits();
                for _ in 0..2 {
                    prop_assert_eq!(
                        table.one_token_seconds(d, batch.len(), policy, &mut ones).to_bits(),
                        one_token,
                        "{} {:?} {} {} one-token batch of {}",
                        d.config().name, d.mode(), d.spec().hbm_bytes_per_s, policy, batch.len()
                    );
                }
            }
        }
    }
}
