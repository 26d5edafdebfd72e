//! Streaming (single-pass, bounded-state) summary statistics for
//! million-request traces.
//!
//! The serving engines in `lat-hwsim` historically retained every
//! per-request latency sample and sorted the full population at report
//! time, so trace size was memory-bound long before it was compute-bound.
//! This module provides the on-line replacements the fleet engine routes
//! through when a report is built under `ReportMode::Streaming`:
//!
//! - [`StreamingStats`]: count/mean/min/max in O(1) state, NaN-poisoning
//!   exactly like `lat_tensor::stats::summarize` (one NaN observation
//!   poisons every moment uniformly — no finite min beside a NaN mean).
//! - [`P2Quantile`]: the Jain–Chlamtac P² estimator — five markers of
//!   O(1) state per tracked quantile, updated per observation with a
//!   piecewise-parabolic height adjustment. Exact (nearest-rank, matching
//!   `stats::percentile`) while fewer than five samples have been seen.
//! - [`QuantileSketch`]: a bundle of P² markers over a fixed quantile set
//!   plus a [`StreamingStats`], with a deterministic [`QuantileSketch::merge`]
//!   so per-chunk sketches produced under `Scheduler::par_map_indexed`
//!   fan-out can be combined in index order with results invariant to the
//!   worker count.
//!
//! Everything here is deterministic: no ambient RNG, no wall clock, no
//! hash-order iteration; identical observation sequences produce
//! bit-identical sketches. P² is *order-dependent* (observing a permuted
//! stream moves the estimate within its error bound), which is why the
//! engines feed it in simulated-event order — itself deterministic.

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

/// Count/mean/min/max accumulator in O(1) state.
///
/// NaN observations poison the whole summary uniformly (mean, min and max
/// all become NaN), mirroring `lat_tensor::stats::summarize`; the count
/// still includes poisoned observations. Min/max use `total_cmp`, so a
/// clean stream containing signed zeros orders them deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    poisoned: bool,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            poisoned: false,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.poisoned = true;
            return;
        }
        self.sum += x;
        if x.total_cmp(&self.min) == std::cmp::Ordering::Less {
            self.min = x;
        }
        if x.total_cmp(&self.max) == std::cmp::Ordering::Greater {
            self.max = x;
        }
    }

    /// Observations seen (including NaN observations).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether a NaN observation has poisoned the summary.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arithmetic mean; NaN when empty or poisoned.
    pub fn mean(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of the (non-NaN) observations; NaN when poisoned.
    pub fn sum(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else {
            self.sum
        }
    }

    /// Minimum; NaN when empty or poisoned.
    pub fn min(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum; NaN when empty or poisoned.
    pub fn max(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Folds `other` in. Exact: the merged accumulator equals one fed the
    /// concatenated streams (sum re-association aside, which is the only
    /// way a merge order can show up — and only in the last bits of
    /// `mean`).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.poisoned |= other.poisoned;
        if other.count > other.nan_count_proxy() {
            if other.min.total_cmp(&self.min) == std::cmp::Ordering::Less {
                self.min = other.min;
            }
            if other.max.total_cmp(&self.max) == std::cmp::Ordering::Greater {
                self.max = other.max;
            }
        }
    }

    /// `other.min/max` are the sentinels iff it never saw a non-NaN value;
    /// merging sentinels would be harmless (±inf never wins `total_cmp`
    /// against a finite value on the wrong side) but this keeps the
    /// intent explicit.
    fn nan_count_proxy(&self) -> u64 {
        if self.min == f64::INFINITY && self.max == f64::NEG_INFINITY {
            self.count
        } else {
            0
        }
    }
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
/// estimate the sketch reports NaN from then on — the same uniform
/// poisoning contract as [`StreamingStats`] extended to infinities.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
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
    pub fn new(p: f64) -> Self {
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

    /// The tracked quantile.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Finite observations fed so far (poisoning observations excluded).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether a non-finite observation has poisoned the estimate.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Desired-position increments per observation for quantile `p`.
    fn want_step(p: f64) -> [f64; MARKERS] {
        [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
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
    pub fn quantile(&self) -> f64 {
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

    /// Empirical CDF implied by the markers of a *full* (`n >= MARKERS`)
    /// estimator: piecewise linear between marker heights, with
    /// `F(q[0]) = 0` and `F(q[4]) = 1`. Equal-height neighbours (duplicate
    /// sample values) produce a jump, resolved to the upper position.
    fn marker_cdf(&self, x: f64) -> f64 {
        debug_assert!(self.n >= MARKERS as u64);
        if x.total_cmp(&self.q[0]) != std::cmp::Ordering::Greater {
            return 0.0;
        }
        if x.total_cmp(&self.q[MARKERS - 1]) != std::cmp::Ordering::Less {
            return 1.0;
        }
        let span = self.pos[MARKERS - 1] - 1.0;
        for i in 0..MARKERS - 1 {
            if x < self.q[i + 1] {
                let width = self.q[i + 1] - self.q[i];
                let frac = if width > 0.0 {
                    (x - self.q[i]) / width
                } else {
                    1.0
                };
                let rank = (self.pos[i] - 1.0) + frac * (self.pos[i + 1] - self.pos[i]);
                return rank / span;
            }
        }
        1.0
    }

    /// Folds `other` into `self` in O(1): the merged markers are read off
    /// the *n*-weighted mixture of the two sketches' marker CDFs at the
    /// merged desired positions. Deterministic, and bit-symmetric for a
    /// single pairwise merge (IEEE addition commutes); chained merges are
    /// associative only up to the sketch's ε, like P² itself.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.p.to_bits() == other.p.to_bits(),
            "cannot merge sketches tracking different quantiles"
        );
        self.poisoned |= other.poisoned;
        if other.n == 0 {
            return;
        }
        // Either side still in its exact buffer stage: replay the raw
        // samples (ascending, deterministic) into the other side.
        if other.n < MARKERS as u64 {
            let mut buf = other.q;
            let buf = &mut buf[..other.n as usize];
            buf.sort_by(f64::total_cmp);
            for &x in buf.iter() {
                self.observe(x);
            }
            return;
        }
        if self.n < MARKERS as u64 {
            let mut merged = other.clone();
            merged.poisoned |= self.poisoned;
            let mut buf = self.q;
            let buf = &mut buf[..self.n as usize];
            buf.sort_by(f64::total_cmp);
            for &x in buf.iter() {
                merged.observe(x);
            }
            *self = merged;
            return;
        }
        let n = self.n + other.n;
        let nf = n as f64;
        let wa = self.n as f64 / nf;
        let wb = other.n as f64 / nf;
        // The mixture CDF is piecewise linear with breakpoints at the
        // union of the two marker height sets, so it inverts exactly:
        // walk the breakpoints to the bracketing segment, interpolate.
        let mut hs = [0.0f64; 2 * MARKERS];
        hs[..MARKERS].copy_from_slice(&self.q);
        hs[MARKERS..].copy_from_slice(&other.q);
        hs.sort_by(f64::total_cmp);
        let mut fs = [0.0f64; 2 * MARKERS];
        for (f, &h) in fs.iter_mut().zip(hs.iter()) {
            *f = wa * self.marker_cdf(h) + wb * other.marker_cdf(h);
        }
        let invert = |u: f64| -> f64 {
            if u <= fs[0] {
                return hs[0];
            }
            for j in 1..hs.len() {
                if u <= fs[j] {
                    let df = fs[j] - fs[j - 1];
                    if df <= 0.0 {
                        return hs[j];
                    }
                    return hs[j - 1] + (u - fs[j - 1]) / df * (hs[j] - hs[j - 1]);
                }
            }
            hs[hs.len() - 1]
        };
        let p = self.p;
        let want = [
            1.0,
            1.0 + (nf - 1.0) * p / 2.0,
            1.0 + (nf - 1.0) * p,
            (nf + 1.0 + (nf - 1.0) * p) / 2.0,
            nf,
        ];
        let mut q = [0.0f64; MARKERS];
        for (qi, &wi) in q.iter_mut().zip(want.iter()) {
            *qi = invert((wi - 1.0) / (nf - 1.0));
        }
        for i in 1..MARKERS {
            if q[i] < q[i - 1] {
                q[i] = q[i - 1];
            }
        }
        // Positions: the desired positions rounded, pinned to pos[0] == 1
        // and pos[4] == n, kept strictly increasing (merged n >= 10, so
        // five distinct integer slots always fit).
        let mut pos = [0.0f64; MARKERS];
        for (pi, &wi) in pos.iter_mut().zip(want.iter()) {
            *pi = wi.round();
        }
        pos[0] = 1.0;
        pos[MARKERS - 1] = nf;
        for i in 1..MARKERS - 1 {
            let hi = nf - (MARKERS - 1 - i) as f64;
            pos[i] = pos[i].max(pos[i - 1] + 1.0).min(hi);
        }
        self.n = n;
        self.q = q;
        self.pos = pos;
        self.want = want;
    }
}

/// A report-ready bundle: P² estimators over a fixed quantile set plus a
/// [`StreamingStats`] for count/mean/min/max, all fed by one
/// [`QuantileSketch::observe`] call per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    stats: StreamingStats,
    marks: Vec<P2Quantile>,
}

impl QuantileSketch {
    /// A sketch tracking each quantile in `ps` (each in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `[0, 1]`.
    pub fn new(ps: &[f64]) -> Self {
        Self {
            stats: StreamingStats::new(),
            marks: ps.iter().map(|&p| P2Quantile::new(p)).collect(),
        }
    }

    /// The p50/p95/p99 bundle every serving report uses.
    pub fn p50_p95_p99() -> Self {
        Self::new(&[0.50, 0.95, 0.99])
    }

    /// Feeds one observation into every tracked quantile and the moments.
    pub fn observe(&mut self, x: f64) {
        self.stats.observe(x);
        for m in &mut self.marks {
            m.observe(x);
        }
    }

    /// Observations seen (including poisoning ones).
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether any observation poisoned the sketch.
    pub fn is_poisoned(&self) -> bool {
        self.stats.is_poisoned() || self.marks.iter().any(P2Quantile::is_poisoned)
    }

    /// Mean of the observations; NaN when empty or poisoned.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Minimum observation; NaN when empty or poisoned.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Maximum observation; NaN when empty or poisoned.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Sum of the observations; NaN when poisoned.
    pub fn sum(&self) -> f64 {
        self.stats.sum()
    }

    /// Estimate for tracked quantile `p` (matched bit-for-bit against the
    /// construction set).
    ///
    /// # Panics
    ///
    /// Panics if `p` was not passed to [`QuantileSketch::new`].
    pub fn quantile(&self, p: f64) -> f64 {
        self.marks
            .iter()
            .find(|m| m.p().to_bits() == p.to_bits())
            .unwrap_or_else(|| panic!("quantile {p} is not tracked by this sketch"))
            .quantile()
    }

    /// Estimates for every tracked quantile, in construction order.
    pub fn quantiles(&self) -> Vec<f64> {
        self.marks.iter().map(P2Quantile::quantile).collect()
    }

    /// Folds `other` in (deterministic; see [`P2Quantile::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if the two sketches track different quantile sets.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.marks.len(),
            other.marks.len(),
            "cannot merge sketches tracking different quantile sets"
        );
        self.stats.merge(&other.stats);
        for (m, o) in self.marks.iter_mut().zip(&other.marks) {
            m.merge(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_matches_summarize() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.observe(x);
        }
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - xs.iter().sum::<f64>() / xs.len() as f64).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_stats_nan_poisons_uniformly() {
        let mut s = StreamingStats::new();
        s.observe(1.0);
        s.observe(f64::NAN);
        s.observe(3.0);
        assert_eq!(s.count(), 3);
        assert!(s.is_poisoned());
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn streaming_stats_empty_is_nan_not_garbage() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(!s.is_poisoned());
    }

    #[test]
    fn streaming_stats_signed_zero_total_cmp() {
        let mut s = StreamingStats::new();
        s.observe(0.0);
        s.observe(-0.0);
        assert_eq!(s.min().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn streaming_stats_merge_is_exact() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &x in &xs[..40] {
            left.observe(x);
        }
        for &x in &xs[40..] {
            right.observe(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min().to_bits(), whole.min().to_bits());
        assert_eq!(left.max().to_bits(), whole.max().to_bits());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
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
        assert!(q.is_poisoned());
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
    fn sketch_merge_count_is_exact() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let mut a = QuantileSketch::p50_p95_p99();
        let mut b = QuantileSketch::p50_p95_p99();
        for &x in &xs[..600] {
            a.observe(x);
        }
        for &x in &xs[600..] {
            b.observe(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 999.0);
        // Merged median of a 0..1000 permutation must land near 500.
        assert!((a.quantile(0.50) - 500.0).abs() < 25.0);
    }

    #[test]
    fn sketch_merge_with_empty_is_identity() {
        let mut a = QuantileSketch::p50_p95_p99();
        for i in 0..100 {
            a.observe(i as f64);
        }
        let before = a.clone();
        a.merge(&QuantileSketch::p50_p95_p99());
        assert_eq!(a, before);
        let mut empty = QuantileSketch::p50_p95_p99();
        empty.merge(&before);
        assert_eq!(
            empty.quantile(0.5).to_bits(),
            before.quantile(0.5).to_bits()
        );
        assert_eq!(empty.count(), before.count());
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn sketch_untracked_quantile_panics() {
        let s = QuantileSketch::p50_p95_p99();
        let _ = s.quantile(0.25);
    }

    #[test]
    fn report_mode_default_is_exact() {
        assert_eq!(ReportMode::default(), ReportMode::Exact);
    }
}
