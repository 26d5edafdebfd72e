//! Small statistics helpers shared by the evaluation harnesses
//! (summaries, percentiles, histograms for printed reports).

use std::cmp::Reverse;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`Summary`] statistics; `None` for an empty slice.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    // NaN must poison the whole summary uniformly. `f64::min`/`max` silently
    // ignore NaN, which used to yield self-contradictory summaries (NaN
    // mean/std beside finite min/max); a `total_cmp` fold keeps min/max
    // NaN-free only when the data is.
    let (min, max) = if xs.iter().any(|x| x.is_nan()) {
        (f64::NAN, f64::NAN)
    } else {
        xs.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (
                    if x.total_cmp(&lo) == std::cmp::Ordering::Less {
                        x
                    } else {
                        lo
                    },
                    if x.total_cmp(&hi) == std::cmp::Ordering::Greater {
                        x
                    } else {
                        hi
                    },
                )
            })
    };
    Some(Summary {
        count: xs.len(),
        mean,
        std: var.sqrt(),
        min,
        max,
    })
}

/// `p`-th percentile (0.0–1.0) by nearest-rank on a copy of the data;
/// `None` for an empty slice. NaN-bearing input never panics: under
/// `total_cmp` NaNs order after `+inf`, so they only surface at the top
/// percentiles.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    percentiles(xs, &[p]).and_then(|v| v.first().copied())
}

/// Several percentiles of one sample, read by [`percentiles_mut`] on a
/// copy of the data. Each returned value is bit-identical to
/// `percentile(xs, p)` for the corresponding `p`; `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if any `p` is outside `[0, 1]`.
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    percentiles_mut(&mut xs.to_vec(), ps)
}

/// Nearest-rank percentiles of `xs`, read in place by selection rather
/// than a sort: each `p` reads the order statistic at index
/// `round((n−1)·p)` under `f64::total_cmp`, so the values are the bits a
/// full sort would put there. `ps` may come in any order, repeats
/// included; values return in `ps` order. `xs` is left reordered (a
/// permutation of its input), which is why a caller that owns its
/// sample and needs anything order-sensitive, such as a sum, takes that
/// first. `None` for an empty slice.
///
/// The highest rank is selected first; every later (lower) rank lies
/// left of the previous pivot, among values no greater than it, so each
/// selection runs on that prefix only. O(n) time per rank; the only
/// allocations are two of `ps.len()` entries.
///
/// # Panics
///
/// Panics if any `p` is outside `[0, 1]`.
pub fn percentiles_mut(xs: &mut [f64], ps: &[f64]) -> Option<Vec<f64>> {
    for &p in ps {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
    }
    if xs.is_empty() {
        return None;
    }
    // (position in `ps`, rank index, value), highest rank first.
    let mut ranks: Vec<(usize, usize, f64)> = ps
        .iter()
        .enumerate()
        .map(|(i, &p)| (i, rank_index(xs.len() as u64, p) as usize, 0.0))
        .collect();
    ranks.sort_unstable_by_key(|&(_, k, _)| Reverse(k));
    let mut end = xs.len();
    let mut pivot = 0.0;
    for (_, k, v) in &mut ranks {
        // A repeated rank equals the previous pivot, which no later
        // selection moves.
        if *k < end {
            pivot = *xs[..end].select_nth_unstable_by(*k, f64::total_cmp).1;
            end = *k;
        }
        *v = pivot;
    }
    ranks.sort_unstable_by_key(|&(i, _, _)| i);
    Some(ranks.into_iter().map(|(_, _, v)| v).collect())
}

/// Nearest-rank percentiles of a sample held as a multiset: `sorted`
/// lists each distinct value once, in ascending `f64::total_cmp` order,
/// with its count. Each `p` reads the value at index `round((n−1)·p)` of
/// the expanded sample, `n` the total count, so the values are the bits
/// [`percentiles_mut`] gives on that sample. Values return in `ps` order;
/// `None` when the total count is zero. O(`sorted.len()`) time for all
/// ranks together; the only allocation is one of `ps.len()` entries.
///
/// # Panics
///
/// Panics if any `p` is outside `[0, 1]`.
pub fn percentiles_counted(sorted: &[(f64, u64)], ps: &[f64]) -> Option<Vec<f64>> {
    for &p in ps {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
    }
    let n: u64 = sorted.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return None;
    }
    // (position in `ps`, rank index, value), lowest rank first.
    let mut ranks: Vec<(usize, u64, f64)> = ps
        .iter()
        .enumerate()
        .map(|(i, &p)| (i, rank_index(n, p), 0.0))
        .collect();
    ranks.sort_unstable_by_key(|&(_, k, _)| k);
    let mut walk = sorted.iter().peekable();
    let (mut cum, mut value) = (0, 0.0);
    for (_, k, v) in &mut ranks {
        // Rank `k` holds the first value whose cumulative count passes it.
        while let Some(&(x, c)) = walk.next_if(|_| cum <= *k) {
            cum += c;
            value = x;
        }
        *v = value;
    }
    ranks.sort_unstable_by_key(|&(i, _, _)| i);
    Some(ranks.into_iter().map(|(_, _, v)| v).collect())
}

/// Nearest-rank index of the `p`-th percentile in a sample of `n`.
fn rank_index(n: u64, p: f64) -> u64 {
    ((n as f64 - 1.0) * p).round() as u64
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets; values
/// outside the range clamp to the edge buckets.
///
/// # Panics
///
/// Panics if `bins == 0`, `lo >= hi`, or the data contains NaN (previously
/// NaN was silently counted in bin 0 via `NaN.max(0.0)`).
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    assert!(lo < hi, "empty histogram range");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        assert!(!x.is_nan(), "no NaNs in histogram data");
        let idx = ((x - lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
}

/// Renders a histogram as a one-line-per-bin ASCII bar chart.
pub fn render_histogram(counts: &[usize], lo: f64, hi: f64, width: usize) -> String {
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let bin_width = (hi - lo) / counts.len().max(1) as f64;
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let bar = "#".repeat(c * width / max);
        out.push_str(&format!(
            "[{:>8.1}, {:>8.1}) {:>6} |{}\n",
            lo + i as f64 * bin_width,
            lo + (i + 1) as f64 * bin_width,
            c,
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_nan_input_does_not_panic() {
        // Regression: the comparator used to be partial_cmp().expect(),
        // which panicked the whole report path on a single NaN sample.
        // total_cmp sorts NaNs after +inf, so low/mid percentiles of a
        // mostly-finite sample stay finite and p100 surfaces the NaN.
        let xs = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert!(percentile(&xs, 1.0).unwrap().is_nan());
        assert!(percentile(&[f64::NAN], 0.5).unwrap().is_nan());
    }

    #[test]
    fn summarize_nan_poisons_uniformly() {
        // Regression: min/max used f64::min/max, which skip NaN — a NaN
        // sample produced NaN mean/std beside finite min/max. All four
        // moments must now agree that the data is poisoned.
        let s = summarize(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert!(s.mean.is_nan());
        assert!(s.std.is_nan());
        assert!(s.min.is_nan(), "min must surface NaN like mean does");
        assert!(s.max.is_nan(), "max must surface NaN like mean does");
        // And a clean sample stays clean, signed zeros ordered by total_cmp.
        let s = summarize(&[-0.0, 0.0, 2.0]).unwrap();
        assert_eq!(s.min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn percentiles_match_percentile_bit_for_bit() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0, 2.5, 4.5, 0.5];
        let ps = [0.0, 0.25, 0.5, 0.95, 0.99, 1.0];
        let batch = percentiles(&xs, &ps).unwrap();
        for (&p, &got) in ps.iter().zip(&batch) {
            assert_eq!(
                got.to_bits(),
                percentile(&xs, p).unwrap().to_bits(),
                "batch percentile p={p} drifted from the single-p path"
            );
        }
        assert_eq!(percentiles(&[], &ps), None);
        assert_eq!(percentiles(&xs, &[]), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn percentiles_range_checked() {
        let _ = percentiles(&[1.0], &[0.5, 1.5]);
    }

    /// One sample value: mostly the awkward ones (duplicates, signed
    /// zeros, NaNs of both signs and a payload NaN, infinities,
    /// subnormals), else any bit pattern.
    fn awkward_f64((kind, bits): (u8, u64)) -> f64 {
        match kind {
            0 => (bits % 4) as f64,
            1 => 0.0,
            2 => -0.0,
            3 => f64::NAN,
            4 => -f64::NAN,
            5 => f64::from_bits(0x7ff0_0000_0000_0001),
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            8 => f64::from_bits(bits % 16),
            9 => -f64::from_bits(1 + bits % 0x000f_ffff_ffff_ffff),
            _ => f64::from_bits(bits),
        }
    }

    /// One percentile: often the ends and the report's ranks, else any.
    fn any_p((kind, p): (u8, f64)) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            3 => 0.95,
            4 => 0.99,
            _ => p,
        }
    }

    /// The sort this module used to read ranks from: copy, sort under
    /// `total_cmp`, index at `round((n−1)·p)`.
    fn sorted_reference(xs: &[f64], ps: &[f64]) -> Vec<f64> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        ps.iter()
            .map(|&p| sorted[((sorted.len() - 1) as f64 * p).round() as usize])
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn percentiles_mut_matches_a_full_sort_bit_for_bit(
            raw in proptest::collection::vec((0u8..14, proptest::arbitrary::any::<u64>()), 1..=2000),
            raw_ps in proptest::collection::vec((0u8..8, 0.0f64..1.0), 1..=12),
        ) {
            let xs: Vec<f64> = raw.into_iter().map(awkward_f64).collect();
            let ps: Vec<f64> = raw_ps.into_iter().map(any_p).collect();
            let mut selected = xs.clone();
            let got = percentiles_mut(&mut selected, &ps).unwrap_or_default();
            proptest::prop_assert_eq!(bits(&got), bits(&sorted_reference(&xs, &ps)), "ps {:?}", ps);
            // Selection only reorders: the same multiset of bit patterns.
            let (mut before, mut after) = (bits(&xs), bits(&selected));
            before.sort_unstable();
            after.sort_unstable();
            proptest::prop_assert!(before == after, "xs is not a permutation of its input");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// `shape` 0 keeps the drawn counts, 1 makes every value occur
        /// once (all-distinct), 2 keeps one value with the whole count
        /// (all-equal).
        #[test]
        fn percentiles_counted_matches_the_expanded_sample(
            raw in proptest::collection::vec(((0u8..14, proptest::arbitrary::any::<u64>()), 1u64..=5), 1..=400),
            raw_ps in proptest::collection::vec((0u8..8, 0.0f64..1.0), 1..=12),
            shape in 0u8..3,
        ) {
            let mut runs: Vec<(f64, u64)> = raw.into_iter().map(|(v, c)| (awkward_f64(v), c)).collect();
            if shape == 2 {
                runs = vec![(runs[0].0, runs.iter().map(|&(_, c)| c).sum())];
            }
            // The multiset: distinct bit patterns in `total_cmp` order.
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            runs.dedup_by(|later, kept| {
                let same = later.0.to_bits() == kept.0.to_bits();
                if same {
                    kept.1 += later.1;
                }
                same
            });
            if shape == 1 {
                runs.iter_mut().for_each(|run| run.1 = 1);
            }
            let mut expanded: Vec<f64> = runs
                .iter()
                .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
                .collect();
            let ps: Vec<f64> = raw_ps.into_iter().map(any_p).collect();
            let got = percentiles_counted(&runs, &ps).unwrap_or_default();
            let want = percentiles_mut(&mut expanded, &ps).unwrap_or_default();
            proptest::prop_assert_eq!(bits(&got), bits(&want), "ps {:?}, runs {:?}", ps, runs);
        }
    }

    #[test]
    fn percentiles_counted_empty_and_zero_counts() {
        let ps = [0.0, 0.5, 1.0];
        assert_eq!(percentiles_counted(&[], &ps), None);
        assert_eq!(percentiles_counted(&[(1.0, 0)], &ps), None);
        assert_eq!(percentiles_counted(&[(1.0, 3)], &[]), Some(Vec::new()));
        // A zero-count entry holds no rank.
        let runs = [(1.0, 2), (2.0, 0), (3.0, 1)];
        assert_eq!(percentiles_counted(&runs, &ps), Some(vec![1.0, 1.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn percentiles_counted_range_checked() {
        let _ = percentiles_counted(&[(1.0, 1)], &[0.5, 1.5]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_range_checked() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.5, 1.5, 2.5, -10.0, 10.0];
        let h = histogram(&xs, 0.0, 3.0, 3);
        assert_eq!(h, vec![2, 1, 2]); // -10 clamps left, 10 clamps right
        assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "no NaNs in histogram data")]
    fn histogram_nan_panics() {
        // NaN used to clamp into bin 0, silently corrupting the counts.
        let _ = histogram(&[0.5, f64::NAN], 0.0, 1.0, 2);
    }

    #[test]
    fn render_histogram_shape() {
        let h = histogram(&[0.1, 0.1, 0.9], 0.0, 1.0, 2);
        let s = render_histogram(&h, 0.0, 1.0, 20);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }
}
