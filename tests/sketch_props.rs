//! Property suite for the log-linear streaming quantile sketch — isolated
//! and fast so a sketch regression fails here first, before the
//! engine-level streaming suites run.
//!
//! Three property families:
//!
//! 1. **2⁻⁷ bound vs the exact reference**: sketch p50/p95/p99 stay within
//!    2⁻⁷ relative of `lat_tensor::stats::percentiles` on uniform,
//!    heavy-tailed and adversarial (sorted / reversed / shuffled / spiked /
//!    bimodal) streams, and — as a proptest — on random mixes of Pareto
//!    tails, heavy duplicates, zeros, subnormals and values up to 1e9,
//!    where exact values below 1e-12 are held to 1.01e-12 absolute.
//! 2. **Poisoning**: any NaN, ±∞ or negative input makes every quantile
//!    NaN.
//! 3. **Seed-matrix determinism**: rebuilding the sketch from the same
//!    `HARNESS_SEED`-derived stream is bit-identical, for every seed in
//!    the matrix, and a permuted stream gives bit-identical quantiles.

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::sketch::QuantileSketch;
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::tensor::stats;
use proptest::prelude::*;

/// Relative tolerance on every sketch quantile: the histogram's
/// guaranteed bound (half a bucket of a 64-way split binade).
const QUANTILE_EPS: f64 = 0.0078125;
/// Stream length — long enough for real tails, short enough that the
/// whole suite stays in the fast tier.
const STREAM_LEN: usize = 20_000;
/// The quantiles every report pins, in `QuantileSketch::quantiles` order.
const PS: [f64; 3] = [0.50, 0.95, 0.99];

/// Sketch value must be within `QUANTILE_EPS` (relative) of the exact
/// nearest-rank value.
fn assert_quantile_pinned(tag: &str, p: f64, sketch: f64, sorted: &[f64]) {
    let exact = stats::percentile(sorted, p).expect("non-empty stream");
    let tol = exact.abs().max(1e-12) * QUANTILE_EPS + 1e-12;
    assert!(
        (sketch - exact).abs() <= tol,
        "{tag} q{p}: sketch {sketch} vs exact {exact} — outside ε {QUANTILE_EPS}"
    );
}

fn assert_sketch_pinned(tag: &str, sketch: &QuantileSketch, stream: &[f64]) {
    let mut sorted = stream.to_vec();
    sorted.sort_by(f64::total_cmp);
    for (p, q) in PS.into_iter().zip(sketch.quantiles()) {
        assert_quantile_pinned(tag, p, q, &sorted);
    }
    // The exact moments ride along for free: count and mean are not
    // estimates, so they must match the reference bit-for-bit.
    assert_eq!(sketch.count(), stream.len() as u64, "{tag}: count");
    let exact_mean = stream.iter().sum::<f64>() / stream.len() as f64;
    assert!(
        (sketch.mean() - exact_mean).abs() <= exact_mean.abs() * 1e-12 + 1e-12,
        "{tag}: mean {} vs {exact_mean}",
        sketch.mean()
    );
}

fn build(stream: &[f64]) -> QuantileSketch {
    let mut sk = QuantileSketch::p50_p95_p99();
    for &x in stream {
        sk.observe(x);
    }
    sk
}

// ---- deterministic stream generators -----------------------------------

fn uniform(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Exponential(1) via inverse CDF — a mild heavy tail.
fn exponential(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| -(1.0 - rng.next_f64()).ln()).collect()
}

/// Pareto with α = 1.5 — infinite variance, the hostile heavy tail.
fn pareto(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (1.0 - rng.next_f64()).powf(-1.0 / 1.5))
        .collect()
}

/// Latency-shaped bimodal mix: a 2 ms bulk with a 30% retried cohort one
/// decade slower (modes in adjacent decades, the shape the engine
/// produces under partial faults).
fn bimodal(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let jitter = 1.0 + 0.2 * rng.next_f64();
            if rng.next_f64() < 0.7 {
                0.002 * jitter
            } else {
                0.020 * jitter
            }
        })
        .collect()
}

/// Constant stream with rare large spikes — one value filling a bucket
/// plus an extreme-order-statistic tail.
fn constant_with_spikes(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| if rng.next_f64() < 0.01 { 100.0 } else { 1.0 })
        .collect()
}

/// One input value of a mixed stream: `kind` picks the family, `u` in
/// [0, 1) places the value within it.
fn mixed_value(kind: u8, u: f64) -> f64 {
    match kind {
        // Pareto-1.5 tail scaled to milliseconds, capped at 1e9.
        0 => (1e-3 * (1.0 - u).powf(-1.0 / 1.5)).min(1e9),
        // Heavy duplicates: a few values, one of them 1e9 itself.
        1 => [2e-3, 2e-3 + 1e-12, 1.0, 7.5e-6, 1e9][(u * 5.0) as usize],
        2 => 0.0,
        // Subnormals (and the occasional zero).
        3 => f64::from_bits((u * (1u64 << 52) as f64) as u64),
        // Log-uniform from 1e-24 up to 1e9.
        _ => 10f64.powf(-24.0 + 33.0 * u),
    }
}

// ---- 1. 2⁻⁷ bound vs stats::percentiles ----------------------------------

#[test]
fn sketch_pinned_on_uniform_and_heavy_tailed_streams() {
    let seed = harness_seed();
    for (tag, stream) in [
        ("uniform", uniform(seed, STREAM_LEN)),
        ("exponential", exponential(seed ^ 1, STREAM_LEN)),
        ("pareto-1.5", pareto(seed ^ 2, STREAM_LEN)),
        ("bimodal", bimodal(seed ^ 3, STREAM_LEN)),
    ] {
        assert_sketch_pinned(tag, &build(&stream), &stream);
    }
}

#[test]
fn sketch_pinned_on_adversarial_orderings() {
    let seed = harness_seed();
    // Same population, hostile arrival orders. The histogram's quantiles
    // depend only on the multiset of inputs, so every order is held to
    // the full bound and a shuffle changes no bit.
    let mut ascending = uniform(seed, STREAM_LEN);
    ascending.sort_by(f64::total_cmp);
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    let mut shuffled = ascending.clone();
    SplitMix64::new(seed ^ 5).shuffle(&mut shuffled);
    assert_sketch_pinned("sorted-ascending", &build(&ascending), &ascending);
    assert_sketch_pinned("sorted-descending", &build(&descending), &descending);
    let reference = build(&ascending).quantiles();
    for (tag, order) in [("sorted-descending", &descending), ("shuffled", &shuffled)] {
        for ((p, a), b) in PS.into_iter().zip(&reference).zip(build(order).quantiles()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{tag} q{p}: order moved the estimate"
            );
        }
    }

    let spiky = constant_with_spikes(seed ^ 4, STREAM_LEN);
    let sk = build(&spiky);
    // 99% of the mass sits exactly at 1.0; the median must sit on the
    // constant (its bucket holds one distinct value, so the clamp reports
    // it exactly), not drift toward the spikes.
    let p50 = sk.quantiles()[0];
    assert!(
        (p50 - 1.0).abs() <= 1e-6,
        "constant bulk median drifted: {p50}"
    );
    assert_sketch_pinned("constant+spikes", &sk, &spiky);
}

proptest! {
    /// The guarantee the sketch documents, held without slack: within
    /// 2⁻⁷ of `exact` from 1e-12 up, within 1.01e-12 below.
    #[test]
    fn sketch_within_bound_on_mixed_streams(
        draws in proptest::collection::vec((0u8..5, 0.0f64..1.0), 1usize..=5000)
    ) {
        let stream: Vec<f64> = draws.iter().map(|&(k, u)| mixed_value(k, u)).collect();
        let exact = stats::percentiles(&stream, &PS).expect("non-empty stream");
        let sk = build(&stream);
        prop_assert!(!sk.is_poisoned());
        for ((p, e), q) in PS.into_iter().zip(exact).zip(sk.quantiles()) {
            let tol = if e >= 1e-12 { e * QUANTILE_EPS } else { 1.01e-12 };
            prop_assert!((q - e).abs() <= tol, "q{p}: sketch {q} vs exact {e}");
        }
    }
}

// ---- 2. poisoning -------------------------------------------------------

#[test]
fn nan_poisons_the_sketch() {
    let mut sk = build(&uniform(harness_seed(), 512));
    assert!(!sk.is_poisoned());
    sk.observe(f64::NAN);
    assert!(sk.is_poisoned(), "NaN input must poison, not vanish");
    assert!(sk.mean().is_nan(), "a NaN input poisons the mean");
    assert!(
        sk.quantiles().iter().all(|q| q.is_nan()),
        "poisoned quantiles surface NaN"
    );
}

proptest! {
    #[test]
    fn any_negative_or_non_finite_input_poisons(
        good in proptest::collection::vec(0.0f64..1e9, 0usize..200),
        at in 0usize..=200,
        kind in 0u8..4,
        mag in 1e-300f64..1e9,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -mag][kind as usize];
        let mut stream = good;
        stream.insert(at.min(stream.len()), bad);
        let sk = build(&stream);
        prop_assert!(sk.is_poisoned(), "{bad} did not poison");
        prop_assert!(sk.quantiles().iter().all(|q| q.is_nan()));
        prop_assert_eq!(sk.count(), stream.len() as u64);
    }
}

// ---- 3. HARNESS_SEED-matrix determinism ---------------------------------

#[test]
fn seed_matrix_rebuilds_are_bit_identical() {
    for seed in [harness_seed(), 1, 42, 7, 2026] {
        let stream = pareto(seed, STREAM_LEN / 2);
        let first = build(&stream);
        let second = build(&stream);
        assert_eq!(first.count(), second.count(), "seed {seed:#x}");
        for ((p, a), b) in PS
            .into_iter()
            .zip(first.quantiles())
            .zip(second.quantiles())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed:#x}: q{p} not reproducible"
            );
        }
    }
}
