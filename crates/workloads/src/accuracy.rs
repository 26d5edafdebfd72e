//! Accuracy evaluation harness: runs any attention operator over task
//! batches and reports accuracy, with anchoring helpers to present results
//! in the paper's F1/accuracy units.

use crate::datasets::{DatasetSpec, LengthSampler};
use crate::task::TaskGenerator;
use lat_model::attention::AttentionOp;
use lat_model::ModelError;
use lat_tensor::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Result of one accuracy evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Fraction of correctly classified instances, in `[0, 1]`.
    pub accuracy: f64,
    /// Number of evaluated instances.
    pub trials: usize,
}

impl AccuracyReport {
    /// Accuracy in percent.
    pub fn percent(&self) -> f64 {
        self.accuracy * 100.0
    }
}

/// Evaluates `op` on `trials` instances with lengths drawn from `dataset`.
///
/// Sequence lengths are clamped below so every instance can hold the
/// structured tokens the task requires.
///
/// # Errors
///
/// Returns [`ModelError`] if the operator fails on any instance.
pub fn evaluate_on_dataset(
    op: &dyn AttentionOp,
    generator: &TaskGenerator,
    dataset: &DatasetSpec,
    trials: usize,
    seed: u64,
) -> Result<AccuracyReport, ModelError> {
    let mut rng = SplitMix64::new(seed);
    let min_len = 1 + generator.config().evidence_true + generator.config().evidence_decoy;
    let lengths = dataset.prepare();
    let mut correct = 0usize;
    for _ in 0..trials {
        let len = lengths.sample(&mut rng).max(min_len);
        let inst = generator.generate(&mut rng, len);
        if generator.predict(op, &inst)? == inst.label {
            correct += 1;
        }
    }
    Ok(AccuracyReport {
        accuracy: correct as f64 / trials.max(1) as f64,
        trials,
    })
}

/// Presents a measured accuracy in the paper's units: the paper's baseline
/// score (F1 or accuracy, in points) minus the *drop* our sparse run shows
/// relative to our dense run.
///
/// `anchor_pts` is the published full-precision score (e.g. BERT-base on
/// SQuAD v1.1 ≈ 88.5 F1); `dense` and `sparse` are our measured task
/// accuracies in `[0, 1]`. Clamped to `[0, anchor]`.
pub fn anchored_score(anchor_pts: f64, dense: f64, sparse: f64) -> f64 {
    let drop_pts = (dense - sparse).max(0.0) * 100.0;
    (anchor_pts - drop_pts).clamp(0.0, anchor_pts)
}

/// Published baseline scores used as Fig. 6 anchors (model × dataset →
/// points). These are the well-known scores of the respective models; only
/// used for *presentation* of our measured drops.
pub fn baseline_anchor(model: &str, dataset: &str) -> f64 {
    let m = model.to_ascii_lowercase();
    let d = dataset.to_ascii_lowercase();
    let base: f64 = if d.contains("squad") {
        88.5
    } else if d.contains("rte") {
        66.4
    } else {
        // MRPC
        88.9
    };
    if m.contains("large") {
        base + 2.4
    } else if m.contains("distil") {
        base - 2.6
    } else if m.contains("roberta") {
        base + 1.6
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use lat_core::sparse::{SparseAttention, SparseAttentionConfig};
    use lat_model::attention::DenseAttention;

    fn generator() -> TaskGenerator {
        TaskGenerator::new(TaskConfig::default(), 777)
    }

    #[test]
    fn dense_beats_chance_on_all_datasets() {
        let g = generator();
        for spec in DatasetSpec::paper_datasets() {
            let r = evaluate_on_dataset(&DenseAttention, &g, &spec, 40, 42).unwrap();
            assert!(r.accuracy > 0.8, "{}: {}", spec.name, r.accuracy);
        }
    }

    #[test]
    fn sparse_k30_close_to_dense() {
        // The headline Fig. 6 claim: Top-30 loses < 2 points.
        let g = generator();
        let spec = DatasetSpec::mrpc();
        let dense = evaluate_on_dataset(&DenseAttention, &g, &spec, 120, 43)
            .unwrap()
            .accuracy;
        let sparse_op = SparseAttention::new(SparseAttentionConfig::paper_default());
        let sparse = evaluate_on_dataset(&sparse_op, &g, &spec, 120, 43)
            .unwrap()
            .accuracy;
        assert!(
            dense - sparse < 0.05,
            "k=30 drop too large: dense {dense} sparse {sparse}"
        );
    }

    #[test]
    fn sparse_k10_degrades_more_than_k50() {
        let g = generator();
        let spec = DatasetSpec::squad_v1();
        let k10 = SparseAttention::new(SparseAttentionConfig::paper_default().with_k(10));
        let k50 = SparseAttention::new(SparseAttentionConfig::paper_default().with_k(50));
        let a10 = evaluate_on_dataset(&k10, &g, &spec, 60, 44)
            .unwrap()
            .accuracy;
        let a50 = evaluate_on_dataset(&k50, &g, &spec, 60, 44)
            .unwrap()
            .accuracy;
        assert!(a50 > a10, "k=50 acc {a50} !> k=10 acc {a10}");
    }

    #[test]
    fn long_dataset_degrades_faster_at_small_k() {
        let g = generator();
        let k10 = SparseAttention::new(SparseAttentionConfig::paper_default().with_k(10));
        let squad = evaluate_on_dataset(&k10, &g, &DatasetSpec::squad_v1(), 60, 45)
            .unwrap()
            .accuracy;
        let mrpc = evaluate_on_dataset(&k10, &g, &DatasetSpec::mrpc(), 60, 45)
            .unwrap()
            .accuracy;
        assert!(
            mrpc >= squad,
            "short-sequence MRPC ({mrpc}) should resist small k better than SQuAD ({squad})"
        );
    }

    #[test]
    fn anchored_score_math() {
        assert_eq!(anchored_score(88.5, 0.95, 0.95), 88.5);
        assert!((anchored_score(88.5, 0.95, 0.93) - 86.5).abs() < 1e-9);
        // Improvement never exceeds the anchor.
        assert_eq!(anchored_score(88.5, 0.90, 0.95), 88.5);
    }

    #[test]
    fn anchors_are_distinct_by_model() {
        let squad_base = baseline_anchor("BERT-base", "SQuAD v1.1");
        let squad_large = baseline_anchor("BERT-large", "SQuAD v1.1");
        let squad_distil = baseline_anchor("DistilBERT", "SQuAD v1.1");
        assert!(squad_large > squad_base);
        assert!(squad_distil < squad_base);
        assert!(baseline_anchor("BERT-base", "RTE") < squad_base);
    }

    #[test]
    fn report_percent() {
        let r = AccuracyReport {
            accuracy: 0.925,
            trials: 200,
        };
        assert!((r.percent() - 92.5).abs() < 1e-9);
    }
}
