//! The streaming (single-pass, bounded-state) latency summary behind the
//! plain fleet's `ReportMode::Streaming` report.
//!
//! The serving engines in `lat-hwsim` historically retained every
//! per-request latency sample and sorted the full population at report
//! time, so trace size was memory-bound long before it was compute-bound.
//! Under `ReportMode::Streaming` the fleet feeds each completed latency
//! into one [`QuantileSketch`] instead: an exact count and mean, plus a
//! Jain–Chlamtac P² estimator per reported quantile (p50, p95, p99) —
//! five markers of O(1) state each, updated per observation with a
//! piecewise-parabolic height adjustment, and exact (nearest-rank,
//! matching `stats::percentile`) while fewer than five samples have been
//! seen.
//!
//! Everything here is deterministic: no ambient RNG, no wall clock, no
//! hash-order iteration; identical observation sequences produce
//! bit-identical sketches. P² is *order-dependent* (observing a permuted
//! stream moves the estimate within its error bound), which is why the
//! fleet feeds it in simulated-event order — itself deterministic.

/// How the plain fleet engine builds its report. The other engines
/// (decode, disaggregated, autoscaled, failure) always report exactly.
///
/// - [`ReportMode::Exact`] retains every per-request sample and computes
///   nearest-rank percentiles over the sorted population — bit-identical
///   to the historical reports, O(n) memory.
/// - [`ReportMode::Streaming`] feeds each sample into a [`QuantileSketch`]
///   as it is produced and drops it, so a million-request trace runs in
///   bounded memory. Percentiles are P² estimates within a pinned ε of
///   the exact path, and the report's `batch_log` is left empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Retain all samples; reports are bit-identical to the pre-sketch era.
    #[default]
    Exact,
    /// O(1)-state streaming sketches; bounded memory, ε-approximate tails.
    Streaming,
}

/// Number of markers the P² estimator maintains per tracked quantile.
const MARKERS: usize = 5;

/// Single-quantile P² (piecewise-parabolic) estimator: Jain & Chlamtac,
/// CACM 1985. Five markers (min, two flanks, the tracked quantile, max)
/// whose heights approximate the empirical quantile function; each
/// observation moves marker positions by O(1) work.
///
/// While fewer than `MARKERS` samples have been observed the estimate is
/// *exact* — nearest-rank over the buffered samples, bit-identical to
/// `lat_tensor::stats::percentile`.
///
/// Non-finite observations (NaN or ±∞) poison the estimator: the marker
/// arithmetic cannot represent them, so rather than silently corrupt the
/// estimate it reports NaN from then on.
#[derive(Debug, Clone, PartialEq)]
struct P2Quantile {
    p: f64,
    /// Total finite observations fed to the markers.
    n: u64,
    /// Marker heights; for `n < MARKERS` the first `n` entries are the raw
    /// buffered samples (unsorted).
    q: [f64; MARKERS],
    /// Marker positions, 1-indexed (`pos[0] == 1`, `pos[4] == n`).
    pos: [f64; MARKERS],
    /// Desired marker positions.
    want: [f64; MARKERS],
    poisoned: bool,
}

impl P2Quantile {
    /// A fresh estimator for quantile `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or NaN.
    fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile {p} outside [0,1]" // matches stats::percentile wording
        );
        Self {
            p,
            n: 0,
            q: [0.0; MARKERS],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            want: [0.0; MARKERS],
            poisoned: false,
        }
    }

    /// Desired-position increments per observation for quantile `p`.
    fn want_step(p: f64) -> [f64; MARKERS] {
        [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
    }

    /// Feeds one observation.
    fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            self.poisoned = true;
            return;
        }
        if self.n < MARKERS as u64 {
            self.q[self.n as usize] = x;
            self.n += 1;
            if self.n == MARKERS as u64 {
                self.q.sort_by(f64::total_cmp);
                let p = self.p;
                self.want = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0];
            }
            return;
        }
        self.n += 1;
        // Locate the cell containing x, clamping x into [q[0], q[4]].
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[MARKERS - 1] {
            self.q[MARKERS - 1] = x;
            MARKERS - 2
        } else {
            // q[k] <= x < q[k+1]
            let mut k = 0;
            while k + 1 < MARKERS - 1 && x >= self.q[k + 1] {
                k += 1;
            }
            k
        };
        for pos in self.pos.iter_mut().skip(k + 1) {
            *pos += 1.0;
        }
        for (want, step) in self.want.iter_mut().zip(Self::want_step(self.p)) {
            *want += step;
        }
        // Adjust the three interior markers toward their desired positions.
        for i in 1..MARKERS - 1 {
            let d = self.want[i] - self.pos[i];
            let up = self.pos[i + 1] - self.pos[i];
            let dn = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && up > 1.0) || (d <= -1.0 && dn < -1.0) {
                let s = d.signum();
                let parab = self.parabolic(i, s);
                if self.q[i - 1] < parab && parab < self.q[i + 1] {
                    self.q[i] = parab;
                } else {
                    self.q[i] = self.linear(i, s);
                }
                self.pos[i] += s;
            }
        }
    }

    /// Piecewise-parabolic height prediction for marker `i` moved by `s`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let q = &self.q;
        let n = &self.pos;
        q[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola overshoots a neighbour.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + s * (self.q[j] - self.q[i]) / (self.pos[j] - self.pos[i])
    }

    /// The current estimate; NaN when empty or poisoned. Exact
    /// (nearest-rank) below `MARKERS` samples, P² beyond.
    fn quantile(&self) -> f64 {
        if self.poisoned || self.n == 0 {
            return f64::NAN;
        }
        if self.n < MARKERS as u64 {
            let mut buf = self.q;
            let buf = &mut buf[..self.n as usize];
            buf.sort_by(f64::total_cmp);
            let idx = ((buf.len() as f64 - 1.0) * self.p).round() as usize;
            return buf[idx];
        }
        self.q[2]
    }
}

/// The quantiles every fleet report reads, in report order.
const TRACKED: [f64; 3] = [0.50, 0.95, 0.99];

/// The fleet's streaming latency summary: an exact count and mean plus a
/// P² estimate of p50, p95 and p99, all fed by one
/// [`QuantileSketch::observe`] call per sample.
///
/// A NaN observation poisons the mean and every quantile; ±∞ poisons the
/// quantiles (the P² markers cannot hold it) and flows into the mean.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    count: u64,
    /// Sum of every observation in observation order, so one NaN makes it
    /// (and the mean) NaN for good.
    sum: f64,
    marks: [P2Quantile; 3],
}

impl QuantileSketch {
    /// An empty p50/p95/p99 sketch.
    pub fn p50_p95_p99() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            marks: TRACKED.map(P2Quantile::new),
        }
    }

    /// Feeds one observation into the moments and every tracked quantile.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        for m in &mut self.marks {
            m.observe(x);
        }
    }

    /// Observations seen (including poisoning ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether a non-finite observation poisoned the quantiles.
    pub fn is_poisoned(&self) -> bool {
        self.marks.iter().any(|m| m.poisoned)
    }

    /// Mean of the observations; NaN when empty (`0 / 0`) or after a NaN.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// The p50, p95 and p99 estimates, in that order; NaN when empty or
    /// poisoned.
    pub fn quantiles(&self) -> Vec<f64> {
        self.marks.iter().map(P2Quantile::quantile).collect()
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

    #[test]
    fn p2_exact_below_five_samples() {
        let mut q = P2Quantile::new(0.5);
        assert!(q.quantile().is_nan());
        for (i, &x) in [4.0, 1.0, 3.0, 2.0].iter().enumerate() {
            q.observe(x);
            let sorted = {
                let mut s = [4.0, 1.0, 3.0, 2.0][..=i].to_vec();
                s.sort_by(f64::total_cmp);
                s
            };
            let idx = ((sorted.len() as f64 - 1.0) * 0.5).round() as usize;
            assert_eq!(q.quantile(), sorted[idx], "sample {i}");
        }
    }

    #[test]
    fn p2_median_of_uniform_ramp() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..10_001 {
            q.observe(i as f64 / 10.0);
        }
        // True median of 0.0..=1000.0 uniform grid is 500.
        assert!((q.quantile() - 500.0).abs() < 5.0, "got {}", q.quantile());
    }

    #[test]
    fn p2_p99_of_uniform_ramp() {
        let mut q = P2Quantile::new(0.99);
        for i in 0..10_001 {
            q.observe(i as f64 / 10.0);
        }
        assert!((q.quantile() - 990.0).abs() < 10.0, "got {}", q.quantile());
    }

    #[test]
    fn p2_poisons_on_non_finite() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..100 {
            q.observe(i as f64);
        }
        q.observe(f64::NAN);
        assert!(q.poisoned);
        assert!(q.quantile().is_nan());
        let mut q = P2Quantile::new(0.5);
        q.observe(f64::INFINITY);
        assert!(q.quantile().is_nan());
    }

    #[test]
    fn p2_deterministic_replay() {
        let feed = |seed: u64| {
            let mut q = P2Quantile::new(0.95);
            let mut state = seed;
            for _ in 0..5000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.observe((state >> 11) as f64 / (1u64 << 53) as f64);
            }
            q
        };
        let a = feed(42);
        let b = feed(42);
        assert_eq!(a, b);
        assert_eq!(a.quantile().to_bits(), b.quantile().to_bits());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn p2_range_checked() {
        let _ = P2Quantile::new(1.5);
    }

    #[test]
    fn report_mode_default_is_exact() {
        assert_eq!(ReportMode::default(), ReportMode::Exact);
    }
}
