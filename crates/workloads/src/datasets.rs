//! Dataset sequence-length distributions (paper Table 1).
//!
//! | Dataset | Avg | Max | Max/Avg |
//! |---|---|---|---|
//! | SQuAD v1.1 | 177 | 821 | 4.6 |
//! | RTE | 68 | 253 | 3.7 |
//! | MRPC | 53 | 86 | 1.6 |
//!
//! Lengths are sampled from a truncated shifted-exponential distribution
//! calibrated to hit the dataset's average, with the maximum as a hard
//! clip — the right-skewed shape real NLP length histograms have, and the
//! property that drives the paper's padding-overhead analysis.

use lat_tensor::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A source of sequence lengths for traffic generation.
///
/// Both a single [`DatasetSpec`] and a [`MixedWorkload`] can feed a request
/// stream (e.g. the serving/fleet simulators in `lat-hwsim`), so consumers
/// take `impl LengthSampler` instead of hard-coding one of the two.
pub trait LengthSampler {
    /// Samples one sequence length.
    fn sample_length(&self, rng: &mut SplitMix64) -> usize;

    /// Display label for reports.
    fn label(&self) -> String;

    /// The distribution with its per-distribution constants computed once,
    /// for drawing many lengths: it yields exactly the stream repeated
    /// [`LengthSampler::sample_length`] calls would. The default wraps
    /// `sample_length` itself, for samplers with nothing to precompute.
    fn prepare(&self) -> PreparedSampler<'_> {
        PreparedSampler(Prepared::Custom(Box::new(move |rng| {
            self.sample_length(rng)
        })))
    }
}

impl LengthSampler for DatasetSpec {
    fn sample_length(&self, rng: &mut SplitMix64) -> usize {
        DatasetSpec::sample_length(self, rng)
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    fn prepare(&self) -> PreparedSampler<'_> {
        PreparedSampler(Prepared::Dataset(self.truncated_exp()))
    }
}

impl LengthSampler for MixedWorkload {
    fn sample_length(&self, rng: &mut SplitMix64) -> usize {
        MixedWorkload::sample_length(self, rng)
    }

    fn label(&self) -> String {
        let names: Vec<String> = self
            .components
            .iter()
            .map(|(d, _)| d.name.clone())
            .collect();
        format!("mix({})", names.join("+"))
    }

    fn prepare(&self) -> PreparedSampler<'_> {
        PreparedSampler(Prepared::Mix {
            components: self
                .components
                .iter()
                .map(|(d, w)| (d.truncated_exp(), *w))
                .collect(),
            total: self.total_weight(),
        })
    }
}

/// A [`LengthSampler`] ready to draw: built once by
/// [`LengthSampler::prepare`], then sampled per request.
pub struct PreparedSampler<'a>(Prepared<'a>);

enum Prepared<'a> {
    Dataset(TruncatedExp),
    Mix {
        components: Vec<(TruncatedExp, f64)>,
        total: f64,
    },
    Custom(Box<dyn Fn(&mut SplitMix64) -> usize + 'a>),
}

impl PreparedSampler<'_> {
    /// Samples one sequence length.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        match &self.0 {
            Prepared::Dataset(d) => d.sample(rng),
            Prepared::Mix { components, total } => {
                pick(components, *total, rng.next_f64()).sample(rng)
            }
            Prepared::Custom(f) => f(rng),
        }
    }

    /// Samples a batch of lengths.
    pub fn sample_batch(&self, rng: &mut SplitMix64, batch_size: usize) -> Vec<usize> {
        (0..batch_size).map(|_| self.sample(rng)).collect()
    }
}

/// A dataset's truncated shifted exponential with its calibrated scale.
#[derive(Debug, Clone, Copy)]
struct TruncatedExp {
    min_len: usize,
    max_len: usize,
    scale: f64,
}

impl TruncatedExp {
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64().clamp(1e-12, 1.0 - 1e-12);
        let x = self.min_len as f64 - self.scale * (1.0 - u).ln();
        (x.round() as usize).clamp(self.min_len, self.max_len)
    }
}

/// Picks a mix component by weight from one uniform draw `u`.
fn pick<T>(components: &[(T, f64)], total: f64, u: f64) -> &T {
    let mut x = u * total;
    for (c, w) in components {
        if x < *w {
            return c;
        }
        x -= w;
    }
    &components.last().expect("non-empty mix").0
}

/// A dataset's sequence-length statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: String,
    /// Minimum sequence length.
    pub min_len: usize,
    /// Average sequence length (Table 1).
    pub avg_len: usize,
    /// Maximum sequence length (Table 1).
    pub max_len: usize,
}

impl DatasetSpec {
    /// SQuAD v1.1: avg 177, max 821.
    pub fn squad_v1() -> Self {
        Self {
            name: "SQuAD v1.1".into(),
            min_len: 40,
            avg_len: 177,
            max_len: 821,
        }
    }

    /// RTE: avg 68, max 253.
    pub fn rte() -> Self {
        Self {
            name: "RTE".into(),
            min_len: 15,
            avg_len: 68,
            max_len: 253,
        }
    }

    /// MRPC: avg 53, max 86.
    pub fn mrpc() -> Self {
        Self {
            name: "MRPC".into(),
            min_len: 25,
            avg_len: 53,
            max_len: 86,
        }
    }

    /// SQuAD v2.0: avg 171, max 975 (§1 — the example motivating the 5.7×
    /// padding overhead).
    pub fn squad_v2() -> Self {
        Self {
            name: "SQuAD v2.0".into(),
            min_len: 40,
            avg_len: 171,
            max_len: 975,
        }
    }

    /// WikiText-2 as used for the Fig. 1(c) profile (sequences around 128
    /// tokens; the paper measures at exactly 128).
    pub fn wikitext2() -> Self {
        Self {
            name: "WikiText-2".into(),
            min_len: 64,
            avg_len: 128,
            max_len: 512,
        }
    }

    /// The three evaluation datasets in Table 1 order.
    pub fn paper_datasets() -> Vec<DatasetSpec> {
        vec![Self::squad_v1(), Self::rte(), Self::mrpc()]
    }

    /// All datasets the paper mentions (Table 1 + SQuAD v2.0 + WikiText-2).
    pub fn all_datasets() -> Vec<DatasetSpec> {
        vec![
            Self::squad_v1(),
            Self::rte(),
            Self::mrpc(),
            Self::squad_v2(),
            Self::wikitext2(),
        ]
    }

    /// The padding overhead `max/avg` the paper reports per dataset.
    pub fn max_over_avg(&self) -> f64 {
        self.max_len as f64 / self.avg_len as f64
    }

    /// Samples one sequence length.
    ///
    /// Shifted exponential with rate tuned so the *truncated* mean lands on
    /// `avg_len`, clipped to `[min_len, max_len]`. Each call calibrates the
    /// rate afresh; draw many lengths through [`LengthSampler::prepare`].
    pub fn sample_length(&self, rng: &mut SplitMix64) -> usize {
        self.prepare().sample(rng)
    }

    /// Samples a batch of lengths.
    pub fn sample_batch(&self, rng: &mut SplitMix64, batch_size: usize) -> Vec<usize> {
        self.prepare().sample_batch(rng, batch_size)
    }

    /// Samples `n_batches` batches of `batch_size` lengths each.
    pub fn sample_batches(
        &self,
        rng: &mut SplitMix64,
        batch_size: usize,
        n_batches: usize,
    ) -> Vec<Vec<usize>> {
        let lengths = self.prepare();
        (0..n_batches)
            .map(|_| lengths.sample_batch(rng, batch_size))
            .collect()
    }

    /// The output-length distribution paired with this dataset for
    /// generative (decoder) workloads: a continuation whose length mirrors
    /// the task's own profile (same average and maximum, 1-token floor),
    /// keeping the right-skewed shape — and with it the paper's `max/avg`
    /// skew — via the same truncated-exponential sampler. The skew is what
    /// makes iteration-level batching matter: a static batch strands its
    /// slots for `max/avg` × the typical service time.
    pub fn decode_output(&self) -> DatasetSpec {
        DatasetSpec {
            name: format!("{} decode", self.name),
            min_len: 1,
            avg_len: self.avg_len,
            max_len: self.max_len,
        }
    }

    /// The distribution with its calibrated scale.
    fn truncated_exp(&self) -> TruncatedExp {
        TruncatedExp {
            min_len: self.min_len,
            max_len: self.max_len,
            scale: self.calibrated_scale(),
        }
    }

    /// Exponential scale whose `[min,max]`-truncated mean equals `avg_len`,
    /// found by bisection (the truncation pulls the mean below `min+scale`,
    /// so the naive `scale = avg - min` undershoots).
    fn calibrated_scale(&self) -> f64 {
        let target = self.avg_len as f64;
        let min = self.min_len as f64;
        let max = self.max_len as f64;
        let truncated_mean = |s: f64| -> f64 {
            // E[min(min + Exp(s), max)] = min + s(1 - e^{-(max-min)/s}).
            min + s * (1.0 - (-(max - min) / s).exp())
        };
        let (mut lo, mut hi) = (1.0f64, 16.0 * (max - min).max(1.0));
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if truncated_mean(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// A traffic mix over several datasets (multi-tenant serving: one
/// accelerator fronting several tasks with different length profiles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedWorkload {
    components: Vec<(DatasetSpec, f64)>,
}

impl MixedWorkload {
    /// Builds a mix from `(dataset, weight)` pairs; weights are
    /// normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight is non-positive.
    pub fn new(components: Vec<(DatasetSpec, f64)>) -> Self {
        assert!(!components.is_empty(), "empty workload mix");
        assert!(
            components.iter().all(|&(_, w)| w > 0.0),
            "weights must be positive"
        );
        Self { components }
    }

    /// An equal-weight mix of the three Table 1 datasets.
    pub fn paper_mix() -> Self {
        Self::new(
            DatasetSpec::paper_datasets()
                .into_iter()
                .map(|d| (d, 1.0))
                .collect(),
        )
    }

    /// The mix's output-length distribution for generative workloads:
    /// every component replaced by its [`DatasetSpec::decode_output`],
    /// weights unchanged.
    pub fn decode_output(&self) -> MixedWorkload {
        MixedWorkload {
            components: self
                .components
                .iter()
                .map(|(d, w)| (d.decode_output(), *w))
                .collect(),
        }
    }

    /// The component datasets and normalized weights.
    pub fn components(&self) -> Vec<(&DatasetSpec, f64)> {
        let total = self.total_weight();
        self.components
            .iter()
            .map(|(d, w)| (d, w / total))
            .collect()
    }

    /// Samples one length: picks a component by weight, then samples from
    /// it.
    pub fn sample_length(&self, rng: &mut SplitMix64) -> usize {
        pick(&self.components, self.total_weight(), rng.next_f64()).sample_length(rng)
    }

    /// Samples a batch of lengths from the mix.
    pub fn sample_batch(&self, rng: &mut SplitMix64, batch_size: usize) -> Vec<usize> {
        self.prepare().sample_batch(rng, batch_size)
    }

    fn total_weight(&self) -> f64 {
        self.components.iter().map(|&(_, w)| w).sum()
    }

    /// Weighted expected average length of the mix.
    pub fn expected_avg(&self) -> f64 {
        self.components()
            .iter()
            .map(|(d, w)| d.avg_len as f64 * w)
            .sum()
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (avg {}, max {}, max/avg {:.1})",
            self.name,
            self.avg_len,
            self.max_len,
            self.max_over_avg()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let sq = DatasetSpec::squad_v1();
        assert_eq!((sq.avg_len, sq.max_len), (177, 821));
        assert!((sq.max_over_avg() - 4.6).abs() < 0.1);
        let rte = DatasetSpec::rte();
        assert_eq!((rte.avg_len, rte.max_len), (68, 253));
        assert!((rte.max_over_avg() - 3.7).abs() < 0.1);
        let mrpc = DatasetSpec::mrpc();
        assert_eq!((mrpc.avg_len, mrpc.max_len), (53, 86));
        assert!((mrpc.max_over_avg() - 1.6).abs() < 0.1);
    }

    #[test]
    fn squad_v2_matches_intro_stats() {
        let v2 = DatasetSpec::squad_v2();
        assert_eq!((v2.avg_len, v2.max_len), (171, 975));
        // §1: "it causes 5.7× computational and memory bandwidth overhead".
        assert!((v2.max_over_avg() - 5.7).abs() < 0.1);
    }

    #[test]
    fn all_datasets_superset_of_paper() {
        let all = DatasetSpec::all_datasets();
        assert_eq!(all.len(), 5);
        for p in DatasetSpec::paper_datasets() {
            assert!(all.iter().any(|d| d.name == p.name));
        }
    }

    #[test]
    fn sampled_lengths_in_bounds() {
        let mut rng = SplitMix64::new(61);
        for spec in DatasetSpec::all_datasets() {
            for _ in 0..2000 {
                let l = spec.sample_length(&mut rng);
                assert!(l >= spec.min_len && l <= spec.max_len, "{}: {l}", spec.name);
            }
        }
    }

    #[test]
    fn sampled_mean_matches_table_average() {
        let mut rng = SplitMix64::new(62);
        for spec in DatasetSpec::paper_datasets() {
            let n = 20_000;
            let sum: usize = (0..n).map(|_| spec.sample_length(&mut rng)).sum();
            let mean = sum as f64 / n as f64;
            let err = (mean - spec.avg_len as f64).abs() / spec.avg_len as f64;
            assert!(
                err < 0.06,
                "{}: sampled mean {mean:.1} vs target {}",
                spec.name,
                spec.avg_len
            );
        }
    }

    #[test]
    fn distribution_is_right_skewed() {
        // Median below mean for all three datasets.
        let mut rng = SplitMix64::new(63);
        for spec in DatasetSpec::paper_datasets() {
            let mut xs: Vec<usize> = (0..4001).map(|_| spec.sample_length(&mut rng)).collect();
            xs.sort_unstable();
            let median = xs[xs.len() / 2] as f64;
            let mean = xs.iter().sum::<usize>() as f64 / xs.len() as f64;
            assert!(
                median <= mean,
                "{}: median {median} > mean {mean}",
                spec.name
            );
        }
    }

    #[test]
    fn batches_have_requested_shape() {
        let mut rng = SplitMix64::new(64);
        let spec = DatasetSpec::rte();
        let batches = spec.sample_batches(&mut rng, 16, 5);
        assert_eq!(batches.len(), 5);
        assert!(batches.iter().all(|b| b.len() == 16));
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = DatasetSpec::squad_v1();
        let a = spec.sample_batch(&mut SplitMix64::new(7), 32);
        let b = spec.sample_batch(&mut SplitMix64::new(7), 32);
        assert_eq!(a, b);
    }

    #[test]
    fn display_contains_ratio() {
        assert!(DatasetSpec::squad_v1().to_string().contains("4.6"));
    }

    #[test]
    fn mixed_workload_bounds_and_mean() {
        let mix = MixedWorkload::paper_mix();
        let mut rng = SplitMix64::new(65);
        let n = 12_000;
        let mut sum = 0usize;
        let global_min = 15; // RTE min
        let global_max = 821; // SQuAD max
        for _ in 0..n {
            let l = mix.sample_length(&mut rng);
            assert!((global_min..=global_max).contains(&l));
            sum += l;
        }
        let mean = sum as f64 / n as f64;
        let expected = mix.expected_avg();
        assert!(
            (mean - expected).abs() / expected < 0.08,
            "mix mean {mean:.1} vs expected {expected:.1}"
        );
    }

    #[test]
    fn mixed_weights_normalized() {
        let mix = MixedWorkload::new(vec![(DatasetSpec::rte(), 3.0), (DatasetSpec::mrpc(), 1.0)]);
        let comps = mix.components();
        assert!((comps[0].1 - 0.75).abs() < 1e-12);
        assert!((comps[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty workload mix")]
    fn empty_mix_panics() {
        let _ = MixedWorkload::new(vec![]);
    }

    /// Asserts the prepared sampler draws exactly the per-call stream.
    fn assert_prepared_matches_per_call(s: &impl LengthSampler, seed: u64) {
        let prepared = s.prepare();
        let (mut a, mut b) = (SplitMix64::new(seed), SplitMix64::new(seed));
        for _ in 0..2000 {
            assert_eq!(
                prepared.sample(&mut a),
                s.sample_length(&mut b),
                "{}",
                s.label()
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "{}: rng drift", s.label());
    }

    #[test]
    fn length_sampler_trait_matches_inherent_methods() {
        // The trait must be a pure forwarding layer: same rng stream, same
        // lengths as the inherent methods.
        let spec = DatasetSpec::rte();
        let mix = MixedWorkload::paper_mix();
        let (mut a, mut b) = (SplitMix64::new(11), SplitMix64::new(11));
        for _ in 0..200 {
            assert_eq!(
                LengthSampler::sample_length(&spec, &mut a),
                spec.sample_length(&mut b)
            );
        }
        let (mut a, mut b) = (SplitMix64::new(12), SplitMix64::new(12));
        for _ in 0..200 {
            assert_eq!(
                LengthSampler::sample_length(&mix, &mut a),
                mix.sample_length(&mut b)
            );
        }
        assert_eq!(LengthSampler::label(&spec), "RTE");
        assert!(LengthSampler::label(&mix).contains("RTE"));

        // The prepared sampler (calibrated once) draws the same stream as
        // per-call sampling (calibrated every draw).
        for (i, d) in DatasetSpec::all_datasets().into_iter().enumerate() {
            assert_prepared_matches_per_call(&d, 100 + i as u64);
            assert_prepared_matches_per_call(&d.decode_output(), 200 + i as u64);
        }
        assert_prepared_matches_per_call(&mix, 13);
        assert_prepared_matches_per_call(&mix.decode_output(), 14);
        let lopsided = MixedWorkload::new(vec![
            (DatasetSpec::squad_v2(), 0.7),
            (DatasetSpec::mrpc(), 2.9),
            (DatasetSpec::wikitext2(), 0.45),
        ]);
        assert_prepared_matches_per_call(&lopsided, 15);

        // The batch helpers ride the prepared sampler too.
        let (mut a, mut b) = (SplitMix64::new(16), SplitMix64::new(16));
        let per_call: Vec<usize> = (0..64).map(|_| lopsided.sample_length(&mut b)).collect();
        assert_eq!(lopsided.sample_batch(&mut a, 64), per_call);
        let (mut a, mut b) = (SplitMix64::new(17), SplitMix64::new(17));
        let per_call: Vec<Vec<usize>> = (0..3)
            .map(|_| (0..8).map(|_| spec.sample_length(&mut b)).collect())
            .collect();
        assert_eq!(spec.sample_batches(&mut a, 8, 3), per_call);
    }

    #[test]
    fn decode_output_profiles_are_valid_and_short() {
        let mut rng = SplitMix64::new(67);
        for spec in DatasetSpec::all_datasets() {
            let out = spec.decode_output();
            assert!(out.min_len == 1, "{}", out.name);
            assert!(
                out.min_len < out.avg_len && out.avg_len < out.max_len,
                "{out}"
            );
            assert!(out.avg_len <= spec.avg_len, "{}", out.name);
            assert!(out.name.contains(&spec.name));
            // Sampler stays in bounds and near the calibrated mean.
            let n = 8000;
            let mut sum = 0usize;
            for _ in 0..n {
                let l = out.sample_length(&mut rng);
                assert!((out.min_len..=out.max_len).contains(&l));
                sum += l;
            }
            let mean = sum as f64 / n as f64;
            let err = (mean - out.avg_len as f64).abs() / out.avg_len as f64;
            assert!(err < 0.1, "{}: mean {mean:.1} vs {}", out.name, out.avg_len);
        }
    }

    #[test]
    fn mix_decode_output_maps_components_and_keeps_weights() {
        let mix = MixedWorkload::new(vec![(DatasetSpec::rte(), 3.0), (DatasetSpec::mrpc(), 1.0)]);
        let out = mix.decode_output();
        let comps = out.components();
        assert_eq!(comps.len(), 2);
        assert!((comps[0].1 - 0.75).abs() < 1e-12);
        assert_eq!(comps[0].0.name, "RTE decode");
        assert_eq!(comps[1].0.name, "MRPC decode");
        // The mirrored profile keeps each component's average length.
        assert_eq!(out.expected_avg(), mix.expected_avg());
    }

    #[test]
    fn skewed_mix_prefers_heavy_component() {
        // A mix dominated by MRPC should have a mean near MRPC's.
        let mix = MixedWorkload::new(vec![
            (DatasetSpec::mrpc(), 9.0),
            (DatasetSpec::squad_v1(), 1.0),
        ]);
        let mut rng = SplitMix64::new(66);
        let mean: f64 = (0..8000)
            .map(|_| mix.sample_length(&mut rng) as f64)
            .sum::<f64>()
            / 8000.0;
        assert!(mean < 100.0, "mean {mean} too SQuAD-like");
    }
}
