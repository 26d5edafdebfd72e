//! The streaming (single-pass, bounded-state) latency summary behind the
//! plain fleet's `ReportMode::Streaming` report.
//!
//! The serving engines in `lat-hwsim` historically retained every
//! per-request latency sample and sorted the full population at report
//! time, so trace size was memory-bound long before it was compute-bound.
//! Under `ReportMode::Streaming` the fleet feeds each completed latency
//! into one [`QuantileSketch`] instead: an exact count and mean, plus a
//! fixed log-linear histogram — the HdrHistogram bucket layout read with
//! DDSketch's relative-error guarantee (Masson, Rim & Lee, VLDB 2019).
//!
//! A bucket is a value's exponent and top six mantissa bits, so each
//! binade splits into 64 equal-width buckets and a bucket's half-width is
//! at most 2⁻⁷ of any value in it. Buckets span 1e-12 s to 1e9 s (4,466
//! of them); smaller values, zero and subnormals share the first bucket,
//! larger ones the last. Each bucket keeps its count and the smallest and
//! largest value it has seen. A quantile is the nearest-rank order
//! statistic `stats::percentile` reads, located by bucket and reported as
//! that bucket's midpoint clamped to the bucket's seen range. Hence, for
//! every p50/p95/p99 with exact value in `[1e-12, 1e9]` s,
//! `|sketch − exact| ≤ 2⁻⁷ · exact`, and `≤ 1.01e-12` below 1e-12 s; a
//! bucket holding one distinct value reports it exactly.
//!
//! Everything here is deterministic: no ambient RNG, no wall clock, no
//! hash-order iteration. The quantiles depend only on the multiset of
//! observations, never on their order; the mean is a sum in observation
//! order, so the fleet feeds the sketch in simulated-event order —
//! itself deterministic.

/// How the plain fleet engine builds its report. The other engines
/// (decode, disaggregated, autoscaled, failure) always report exactly.
///
/// - [`ReportMode::Exact`] retains every per-request sample and reads
///   its nearest-rank order statistics by in-place selection — the bits a
///   sort of the population would give, O(n) memory.
/// - [`ReportMode::Streaming`] feeds each sample into a [`QuantileSketch`]
///   as it is produced and drops it, so a million-request trace runs in
///   bounded memory. Percentiles are within 2⁻⁷ relative of the exact
///   path for latencies from 1e-12 s to 1e9 s.
///
/// A report's `batch_log` is empty under `Streaming`, and under `Exact`
/// unless the run is inside `lat_hwsim::fleet::with_batch_log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Retain all samples; reports are bit-identical to the pre-sketch era.
    #[default]
    Exact,
    /// Fixed-size streaming histogram; bounded memory, percentiles within
    /// 2⁻⁷ relative.
    Streaming,
}

/// Bits below a bucket key: the 52 mantissa bits less the top six kept.
const SHIFT: u32 = 46;
/// Key of the bucket holding 1e-12 s; every smaller value lands here.
const LO: u64 = 1e-12f64.to_bits() >> SHIFT;
/// Key of the bucket holding 1e9 s; every larger value lands here.
const HI: u64 = 1e9f64.to_bits() >> SHIFT;

/// The quantiles every fleet report reads, in report order.
const TRACKED: [f64; 3] = [0.50, 0.95, 0.99];

/// The fleet's streaming latency summary: an exact count and mean plus
/// p50, p95 and p99 within 2⁻⁷ relative (see the module docs), all fed
/// by one [`QuantileSketch::observe`] call per sample.
///
/// NaN, ±∞ and negative observations poison the quantiles (NaN from then
/// on); they still count and enter the sum, so a NaN makes the mean NaN.
/// The buckets are allocated by the first observation, so a sketch that
/// is never fed costs no heap.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    count: u64,
    /// Sum of every observation in observation order, so one NaN makes it
    /// (and the mean) NaN for good.
    sum: f64,
    poisoned: bool,
    /// `(count, min, max)` of bucket `key - LO` for keys `LO..=HI`;
    /// empty until the first observation.
    buckets: Vec<(u64, f64, f64)>,
}

impl QuantileSketch {
    /// An empty p50/p95/p99 sketch.
    pub fn p50_p95_p99() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            poisoned: false,
            buckets: Vec::new(),
        }
    }

    /// Feeds one observation into the moments and the histogram.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if !(0.0..f64::INFINITY).contains(&x) {
            self.poisoned = true;
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![(0, f64::INFINITY, f64::NEG_INFINITY); (HI - LO + 1) as usize];
        }
        // `abs` files -0.0 with +0.0 in the first bucket.
        let key = (x.abs().to_bits() >> SHIFT).clamp(LO, HI);
        if let Some((count, min, max)) = self.buckets.get_mut((key - LO) as usize) {
            *count += 1;
            *min = min.min(x);
            *max = max.max(x);
        }
    }

    /// Observations seen (including poisoning ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether a NaN, infinite or negative observation poisoned the
    /// quantiles.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Mean of the observations; NaN when empty (`0 / 0`) or after a NaN.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// The p50, p95 and p99 estimates, in that order; NaN when empty or
    /// poisoned.
    pub fn quantiles(&self) -> Vec<f64> {
        TRACKED.iter().map(|&p| self.quantile(p)).collect()
    }

    /// The bucket holding the nearest-rank order statistic for `p` (the
    /// index `stats::percentile` reads), as its midpoint clamped to the
    /// values it has seen.
    fn quantile(&self, p: f64) -> f64 {
        if self.poisoned {
            return f64::NAN;
        }
        let rank = ((self.count as f64 - 1.0) * p).round() as u64;
        let mut below = 0;
        self.buckets
            .iter()
            .zip(LO..)
            .find(|((count, _, _), _)| {
                below += count;
                below > rank
            })
            .map_or(f64::NAN, |(&(_, min, max), key)| {
                f64::from_bits(key << SHIFT | 1 << (SHIFT - 1)).clamp(min, max)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_matches_summarize() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = QuantileSketch::p50_p95_p99();
        for &x in &xs {
            s.observe(x);
        }
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - xs.iter().sum::<f64>() / xs.len() as f64).abs() < 1e-12);
        assert!(!s.is_poisoned());
    }

    #[test]
    fn streaming_stats_nan_poisons_uniformly() {
        let mut s = QuantileSketch::p50_p95_p99();
        s.observe(1.0);
        s.observe(f64::NAN);
        s.observe(3.0);
        assert_eq!(s.count(), 3);
        assert!(s.is_poisoned());
        assert!(s.mean().is_nan());
        assert!(s.quantiles().iter().all(|q| q.is_nan()));
    }

    #[test]
    fn streaming_stats_empty_is_nan_not_garbage() {
        let s = QuantileSketch::p50_p95_p99();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.quantiles().iter().all(|q| q.is_nan()));
        assert!(!s.is_poisoned());
    }

    /// Feeds `xs` in order.
    fn sketch(xs: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::p50_p95_p99();
        for x in xs {
            s.observe(x);
        }
        s
    }

    #[test]
    fn bucket_layout_spans_1e_minus_12_to_1e9() {
        assert_eq!(HI - LO + 1, 4466);
        // Zero, subnormals and everything below 1e-12 share bucket 0.
        let tiny = sketch([0.0, 5e-324, 1e-13]);
        assert_eq!(tiny.buckets[0].0, 3);
        // Its midpoint (~1.0018e-12) clamps to the largest value seen.
        assert_eq!(tiny.quantiles(), vec![1e-13; 3]);
        // -0.0 is zero, not a negative: it buckets with +0.0.
        let zeros = sketch([-0.0, 0.0]);
        assert!(!zeros.is_poisoned());
        assert_eq!(zeros.buckets[0].0, 2);
        // Everything from 1e9 up shares the last bucket.
        let huge = sketch([1e9, 1e12]);
        assert_eq!(huge.buckets[huge.buckets.len() - 1].0, 2);
    }

    #[test]
    fn p2_exact_below_five_samples() {
        // Each sample sits alone in its bucket, so every quantile is the
        // exact nearest-rank sample.
        let xs = [4.0, 1.0, 3.0, 2.0];
        for i in 0..xs.len() {
            let mut sorted = xs[..=i].to_vec();
            sorted.sort_by(f64::total_cmp);
            let exact: Vec<f64> = TRACKED
                .iter()
                .map(|p| sorted[((sorted.len() as f64 - 1.0) * p).round() as usize])
                .collect();
            assert_eq!(
                sketch(xs[..=i].iter().copied()).quantiles(),
                exact,
                "sample {i}"
            );
        }
    }

    #[test]
    fn p2_median_of_uniform_ramp() {
        let s = sketch((0..10_001).map(|i| i as f64 / 10.0));
        // True median of 0.0..=1000.0 uniform grid is 500.
        let p50 = s.quantiles()[0];
        assert!((p50 - 500.0).abs() <= 500.0 / 128.0, "got {p50}");
    }

    #[test]
    fn p2_p99_of_uniform_ramp() {
        let s = sketch((0..10_001).map(|i| i as f64 / 10.0));
        let p99 = s.quantiles()[2];
        assert!((p99 - 990.0).abs() <= 990.0 / 128.0, "got {p99}");
    }

    #[test]
    fn p2_poisons_on_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            let mut s = sketch((0..100).map(f64::from));
            s.observe(bad);
            assert!(s.is_poisoned(), "{bad} did not poison");
            assert!(s.quantiles().iter().all(|q| q.is_nan()), "{bad}");
            assert_eq!(s.count(), 101);
        }
        // A poisoned sketch stays poisoned.
        let s = sketch([-1.0, 1.0, 2.0]);
        assert!(s.quantiles().iter().all(|q| q.is_nan()));
        assert_eq!(s.mean().to_bits(), (2.0f64 / 3.0).to_bits());
    }

    #[test]
    fn p2_deterministic_replay() {
        let feed = |seed: u64| {
            let mut state = seed;
            sketch((0..5000).map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            }))
        };
        let a = feed(42);
        let b = feed(42);
        assert_eq!(a, b);
        for (x, y) in a.quantiles().into_iter().zip(b.quantiles()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn report_mode_default_is_exact() {
        assert_eq!(ReportMode::default(), ReportMode::Exact);
    }
}
