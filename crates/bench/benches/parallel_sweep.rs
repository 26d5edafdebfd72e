//! Criterion bench: the tensor-kernel and report-path rewrites of the
//! parallel-sweep PR, each against the code shape it replaced.
//!
//! - `dot/unrolled_768` vs `dot/scalar_768` — the four-accumulator
//!   unroll breaks the FP-add latency chain a single-accumulator dot
//!   serializes on (the win `Matrix::matmul_transposed` inherits).
//! - `percentiles/select` vs `percentiles/sort_once` — the report
//!   builders' p50/p95/p99 triple by in-place selection
//!   (`stats::percentiles`) instead of one full sort of a copy.
//! - `sweep/serial_6_cells` vs `sweep/pool4_6_cells` — a six-cell fleet
//!   sweep through `Scheduler::serial()` and `Scheduler::new(4)`; equal
//!   results by construction, wall-time scales with host cores.

use criterion::{criterion_group, criterion_main, Criterion};
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{homogeneous_fleet, poisson_trace, BatcherConfig, DispatchPolicy};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_tensor::rng::SplitMix64;
use lat_tensor::{dot_unrolled, stats};
use lat_workloads::datasets::DatasetSpec;
use std::hint::black_box;
use std::time::Duration;

/// The p50/p95/p99 read `stats::percentiles` replaced, kept here as the
/// bench baseline: copy, sort once, index each nearest rank.
fn sort_once(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    ps.iter()
        .map(|&p| sorted[((sorted.len() - 1) as f64 * p).round() as usize])
        .collect()
}

/// The single-accumulator dot the unrolled kernel replaced, kept here as
/// the bench baseline.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(30);

    let mut rng = SplitMix64::new(11);
    let a: Vec<f32> = (0..768).map(|_| rng.next_f32() - 0.5).collect();
    let b: Vec<f32> = (0..768).map(|_| rng.next_f32() - 0.5).collect();
    group.bench_function("scalar_768", |bench| {
        bench.iter(|| dot_scalar(black_box(&a), black_box(&b)))
    });
    group.bench_function("unrolled_768", |bench| {
        bench.iter(|| dot_unrolled(black_box(&a), black_box(&b)))
    });
    group.finish();
}

fn bench_percentiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("percentiles");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(20);

    let mut rng = SplitMix64::new(12);
    let xs: Vec<f64> = (0..20_000).map(|_| rng.next_f64()).collect();
    let ps = [0.50, 0.95, 0.99];
    group.bench_function("sort_once", |bench| {
        bench.iter(|| sort_once(black_box(&xs), &ps))
    });
    group.bench_function("select", |bench| {
        bench.iter(|| stats::percentiles(black_box(&xs), &ps).expect("non-empty"))
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(10);

    let design = AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    );
    let fleet = homogeneous_fleet(&design, 2);
    let mix = DatasetSpec::mrpc();
    let cells: Vec<(f64, DispatchPolicy)> = [120.0f64, 400.0]
        .iter()
        .flat_map(|&rate| DispatchPolicy::ALL.iter().map(move |&d| (rate, d)))
        .collect();
    let run = |sched: &Scheduler| {
        sched.par_map_indexed(&cells, |&(rate, d)| {
            let trace = poisson_trace(&mix, rate, 120, 0xDAC2_2022);
            lat_hwsim::fleet::simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                d,
                &BatcherConfig::default(),
            )
            .completed
        })
    };
    let serial = Scheduler::serial();
    let pool4 = Scheduler::new(4);
    assert_eq!(run(&serial), run(&pool4), "sweep must be worker-invariant");
    group.bench_function("serial_6_cells", |bench| bench.iter(|| run(&serial)));
    group.bench_function("pool4_6_cells", |bench| bench.iter(|| run(&pool4)));
    group.finish();
}

criterion_group!(benches, bench_dot, bench_percentiles, bench_sweep);
criterion_main!(benches);
