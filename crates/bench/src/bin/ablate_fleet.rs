//! Ablation: multi-shard fleet serving on the paper's traffic mix.
//!
//! Two questions the single-accelerator serving ablation cannot answer:
//!
//! 1. **Scaling** — does throughput grow monotonically as homogeneous
//!    shards are added under saturating load?
//! 2. **Dispatch** — on a heterogeneous fleet (one short-tuned shard,
//!    three long-tuned), does length-binned routing beat round-robin tail
//!    latency on the mixed Table 1 workload, and how much of that gap does
//!    the length-aware schedule itself close?
//!
//! Deterministic under `HARNESS_SEED`; the monotone-scaling and
//! binned-beats-round-robin claims are asserted, not just printed.

use lat_bench::scenarios::{
    bert_base_design, fleet_mix, FLEET_BIN_TUNINGS, FLEET_DISPATCH_RATES, FLEET_REQUESTS,
    FLEET_SATURATING_RATE, FLEET_SHARD_COUNTS, HARNESS_SEED,
};
use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy,
};

fn main() {
    let mix = fleet_mix();
    let pool = Scheduler::from_env();
    println!(
        "Ablation — fleet serving (BERT-base, {} traffic, {} requests, seed {HARNESS_SEED:#x}, \
         {} workers)\n",
        lat_workloads::datasets::LengthSampler::label(&mix),
        FLEET_REQUESTS,
        pool.parallelism(),
    );

    // ── 1. Homogeneous scaling under saturating load ────────────────────
    let base = bert_base_design(99); // tuned near the mix's expected average length
    let trace = poisson_trace(&mix, FLEET_SATURATING_RATE, FLEET_REQUESTS, HARNESS_SEED);
    // Sweep cells are independent and seed-deterministic: fan them across
    // the pool, then assert the cross-cell monotonicity claim serially
    // over the index-ordered results.
    let reports = pool.par_map_indexed(&FLEET_SHARD_COUNTS, |&n| {
        simulate_fleet(
            &homogeneous_fleet(&base, n),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
        )
    });
    let mut rows = Vec::new();
    let mut last_thr = 0.0f64;
    for (&n, r) in FLEET_SHARD_COUNTS.iter().zip(&reports) {
        assert!(
            r.throughput_seq_s > last_thr,
            "throughput must scale monotonically with shards: {n} shards {} !> {last_thr}",
            r.throughput_seq_s
        );
        last_thr = r.throughput_seq_s;
        let util = r.shards.iter().map(|s| s.utilization).sum::<f64>() / n as f64;
        rows.push(vec![
            format!("{n}"),
            format!("{:.1}", r.throughput_seq_s),
            format!("{:.1}", r.mean_batch_size),
            tables::pct(util),
            format!("{:.0}", r.p50_latency_s * 1e3),
            format!("{:.0}", r.p95_latency_s * 1e3),
        ]);
    }
    println!(
        "Homogeneous scaling (JSQ, length-aware, offered load {FLEET_SATURATING_RATE:.0} seq/s)"
    );
    println!(
        "{}",
        tables::render(
            &[
                "shards",
                "throughput (seq/s)",
                "batch size",
                "mean util",
                "p50 (ms)",
                "p95 (ms)",
            ],
            &rows,
        )
    );

    // ── 2. Dispatch policy × scheduling policy on the binned fleet ──────
    let fleet: Vec<AcceleratorDesign> = FLEET_BIN_TUNINGS
        .iter()
        .map(|&t| bert_base_design(t))
        .collect();
    println!(
        "Heterogeneous fleet: shards tuned for s_avg {FLEET_BIN_TUNINGS:?} (1 short + 3 long bins)"
    );
    for policy in [SchedulingPolicy::LengthAware, SchedulingPolicy::PadToMax] {
        // rate × dispatch grid: one pool cell per (rate, dispatch) pair.
        let cells: Vec<(f64, DispatchPolicy)> = FLEET_DISPATCH_RATES
            .iter()
            .flat_map(|&rate| DispatchPolicy::ALL.iter().map(move |&d| (rate, d)))
            .collect();
        let grid = pool.par_map_indexed(&cells, |&(rate, d)| {
            let trace = poisson_trace(&mix, rate, FLEET_REQUESTS, HARNESS_SEED);
            simulate_fleet(&fleet, &trace, policy, d, &BatcherConfig::default())
        });
        let mut rows = Vec::new();
        for (ri, &rate) in FLEET_DISPATCH_RATES.iter().enumerate() {
            let reports =
                &grid[ri * DispatchPolicy::ALL.len()..(ri + 1) * DispatchPolicy::ALL.len()];
            let (rr, jsq, binned) = (&reports[0], &reports[1], &reports[2]);
            assert!(
                binned.p95_latency_s < rr.p95_latency_s,
                "{policy} @ {rate} seq/s: length-binned p95 {} !< round-robin {}",
                binned.p95_latency_s,
                rr.p95_latency_s
            );
            rows.push(vec![
                format!("{rate:.0}"),
                format!("{:.0}", rr.p95_latency_s * 1e3),
                format!("{:.0}", jsq.p95_latency_s * 1e3),
                format!("{:.0}", binned.p95_latency_s * 1e3),
                tables::speedup(rr.p95_latency_s / binned.p95_latency_s),
                format!("{:.0}", binned.throughput_seq_s),
            ]);
        }
        println!("Dispatch policies under the {policy} schedule");
        println!(
            "{}",
            tables::render(
                &[
                    "load (seq/s)",
                    "RR p95 (ms)",
                    "JSQ p95 (ms)",
                    "binned p95 (ms)",
                    "binned vs RR",
                    "binned thr",
                ],
                &rows,
            )
        );
    }
    println!(
        "(monotone scaling and binned<RR p95 asserted above; length-aware scheduling\n\
         shrinks the routing gap — the co-design tolerates mixed lengths that wreck\n\
         a padding execution engine)"
    );
}
