//! Property suite for the P² streaming quantile sketch — isolated and
//! fast so a sketch regression fails here first, before the engine-level
//! streaming suites run.
//!
//! Two property families:
//!
//! 1. **ε-bound vs the exact reference**: sketch p50/p95/p99 stay pinned
//!    (relative ε *or* a ±4-rank-point window) against
//!    `lat_tensor::stats::percentiles` on uniform, heavy-tailed and
//!    adversarial (sorted / reversed / spiked / bimodal) streams.
//! 2. **Seed-matrix determinism**: rebuilding the sketch from the same
//!    `HARNESS_SEED`-derived stream is bit-identical, for every seed in
//!    the matrix.

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::sketch::QuantileSketch;
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::tensor::stats;

/// Relative tolerance for the value arm of the pinned assert — same
/// contract the engine-level streaming suites pin.
const QUANTILE_EPS: f64 = 0.25;
/// Rank half-window for the rank arm: the sketch value must fall between
/// the exact sample values at ranks p ± this.
const RANK_WINDOW: f64 = 0.04;
/// Stream length — long enough that P² converges, short enough that the
/// whole suite stays in the fast tier.
const STREAM_LEN: usize = 20_000;
/// The quantiles every report pins, in `QuantileSketch::quantiles` order.
const PS: [f64; 3] = [0.50, 0.95, 0.99];

/// Sketch value is acceptable if it is within `QUANTILE_EPS` (relative)
/// of the exact rank, OR lands inside the exact sample values at ranks
/// `p ± RANK_WINDOW` (cliffy populations make tiny value windows; dense
/// bulks make tiny rank windows — either arm passing is the contract).
fn assert_quantile_pinned(tag: &str, p: f64, sketch: f64, sorted: &[f64]) {
    let exact = stats::percentile(sorted, p).expect("non-empty stream");
    let tol = exact.abs().max(1e-12) * QUANTILE_EPS + 1e-12;
    if (sketch - exact).abs() <= tol {
        return;
    }
    let rank = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    };
    let (lo, hi) = (rank(p - RANK_WINDOW), rank(p + RANK_WINDOW));
    let slack = hi.abs().max(1e-12) * 1e-6;
    assert!(
        sketch >= lo - slack && sketch <= hi + slack,
        "{tag} q{p}: sketch {sketch} vs exact {exact} — outside ε {QUANTILE_EPS} \
         and rank window [{lo}, {hi}]"
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

/// Constant stream with rare large spikes — the degenerate-width case
/// (equal marker heights) plus an extreme-order-statistic tail.
fn constant_with_spikes(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| if rng.next_f64() < 0.01 { 100.0 } else { 1.0 })
        .collect()
}

// ---- 1. ε-bound vs stats::percentiles ----------------------------------

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
    // Same population, hostile arrival orders. An ascending feed keeps
    // the pinned bound (upper markers chase the stream); a *descending*
    // feed is P²'s canonical worst case — the upper markers are seeded
    // from the early (largest) samples and then starve, so only sanity
    // and determinism are asserted there, not the ε bound.
    let mut ascending = uniform(seed, STREAM_LEN);
    ascending.sort_by(f64::total_cmp);
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    assert_sketch_pinned("sorted-ascending", &build(&ascending), &ascending);
    let desc = build(&descending).quantiles();
    let replay = build(&descending).quantiles();
    let (lo, hi) = (ascending[0], ascending[ascending.len() - 1]);
    let mut prev = f64::NEG_INFINITY;
    for ((p, q), again) in PS.into_iter().zip(desc).zip(replay) {
        assert!(
            (lo..=hi).contains(&q),
            "sorted-descending q{p}: {q} escaped the sample range [{lo}, {hi}]"
        );
        assert!(
            q >= prev,
            "sorted-descending: quantiles not monotone at q{p}"
        );
        prev = q;
        assert_eq!(
            q.to_bits(),
            again.to_bits(),
            "sorted-descending q{p}: not reproducible"
        );
    }

    let spiky = constant_with_spikes(seed ^ 4, STREAM_LEN);
    let sk = build(&spiky);
    // 99% of the mass sits exactly at 1.0; the median must sit on the
    // constant (up to parabolic-interpolation dust), not drift toward
    // the spikes.
    let p50 = sk.quantiles()[0];
    assert!(
        (p50 - 1.0).abs() <= 1e-6,
        "constant bulk median drifted: {p50}"
    );
    assert_sketch_pinned("constant+spikes", &sk, &spiky);
}

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

// ---- 2. HARNESS_SEED-matrix determinism ---------------------------------

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
