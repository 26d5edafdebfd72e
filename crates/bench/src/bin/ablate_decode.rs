//! Ablation: generative decode (continuous batching + preemption) on the
//! fleet engine, serving the paper's traffic mix as prompts.
//!
//! Two claims the encoder-serving ablations cannot make:
//!
//! 1. **Goodput** — at saturating load, iteration-level (continuous)
//!    batching sustains strictly higher token goodput than static batching,
//!    because a static batch's freed slots idle until its longest member
//!    drains.
//! 2. **Priorities** — deadline-driven preemption lowers the
//!    high-priority class's p95 time-to-first-token versus plain continuous
//!    batching, at bounded cost to the normal class.
//!
//! Deterministic under `HARNESS_SEED`; both claims are asserted while the
//! tables print, not just displayed.

use lat_bench::scenarios::{
    bert_base_design, decode_mix, DECODE_HIGH_FRACTION, DECODE_RATES, DECODE_REQUESTS,
    DECODE_SATURATING_RATE, DECODE_SHARD_COUNTS, DECODE_SLOTS, DECODE_TTFT_DEADLINE_S,
    HARNESS_SEED,
};
use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::decode::{
    decode_trace, simulate_decode, DecodeConfig, DecodeReport, DecodeScheduler, Priority,
};
use lat_hwsim::fleet::{homogeneous_fleet, DispatchPolicy};
use lat_tensor::stats::percentile;
use lat_workloads::datasets::LengthSampler;

/// p95 TTFT of the high-priority class, straight from the report.
fn high_ttft_p95(report: &DecodeReport) -> f64 {
    report
        .high_ttft_p95_s
        .expect("high-priority traffic in the mix")
}

/// p95 TTFT of the normal class, computed from the per-request outcomes
/// (the report centralizes only the high-priority slice).
fn normal_ttft_p95(report: &DecodeReport, trace: &[lat_hwsim::decode::DecodeRequest]) -> f64 {
    let ttfts: Vec<f64> = trace
        .iter()
        .zip(&report.requests)
        .filter(|(r, _)| r.priority == Priority::Normal)
        .map(|(_, o)| o.ttft_s)
        .collect();
    percentile(&ttfts, 0.95).expect("normal-priority traffic in the mix")
}

fn main() {
    let prefill = decode_mix();
    let output = prefill.decode_output();
    let cfg = DecodeConfig {
        max_slots: DECODE_SLOTS,
        ttft_deadline_s: DECODE_TTFT_DEADLINE_S,
    };
    let pool = Scheduler::from_env();
    println!(
        "Ablation — generative decode (BERT-base, {} prompts, {} outputs,\n\
         {} requests, {} slots/shard, {:.0}% high-priority, seed {HARNESS_SEED:#x}, {} workers)\n",
        prefill.label(),
        output.label(),
        DECODE_REQUESTS,
        DECODE_SLOTS,
        DECODE_HIGH_FRACTION * 100.0,
        pool.parallelism(),
    );
    let base = bert_base_design(99); // tuned near the prompt mix's expected average

    // ── 1. Scheduler × shard count at saturating load ───────────────────
    let trace = decode_trace(
        &prefill,
        &output,
        DECODE_HIGH_FRACTION,
        DECODE_SATURATING_RATE,
        DECODE_REQUESTS,
        HARNESS_SEED,
    );
    // shard-count × scheduler grid: every cell is independent — fan it
    // across the pool, then make the cross-scheduler goodput claim
    // serially over the index-ordered results.
    let cells: Vec<(usize, DecodeScheduler)> = DECODE_SHARD_COUNTS
        .iter()
        .flat_map(|&n| DecodeScheduler::ALL.into_iter().map(move |s| (n, s)))
        .collect();
    let grid = pool.par_map_indexed(&cells, |&(n, scheduler)| {
        simulate_decode(
            &homogeneous_fleet(&base, n),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            scheduler,
            &cfg,
        )
    });
    let mut rows = Vec::new();
    let mut goodput_static = f64::NAN;
    for (&(n, scheduler), r) in cells.iter().zip(&grid) {
        {
            assert_eq!(r.fleet.completed, DECODE_REQUESTS);
            match scheduler {
                DecodeScheduler::Static => goodput_static = r.goodput_tok_s,
                DecodeScheduler::Continuous => assert!(
                    r.goodput_tok_s > goodput_static,
                    "{n} shards: continuous goodput {} !> static {goodput_static}",
                    r.goodput_tok_s
                ),
                DecodeScheduler::ContinuousPreempt => {}
            }
            rows.push(vec![
                format!("{n}"),
                scheduler.to_string(),
                format!("{:.0}", r.goodput_tok_s),
                format!("{:.1}", r.fleet.throughput_seq_s),
                format!("{:.0}", r.ttft_p50_s * 1e3),
                format!("{:.0}", r.ttft_p95_s * 1e3),
                format!("{:.1}", r.itl_p95_s * 1e3),
                tables::pct(r.slot_utilization),
                format!("{}", r.preemptions),
            ]);
        }
    }
    println!(
        "Scheduler × shard count (JSQ dispatch, offered load {DECODE_SATURATING_RATE:.0} seq/s)"
    );
    println!(
        "{}",
        tables::render(
            &[
                "shards",
                "scheduler",
                "goodput (tok/s)",
                "thr (seq/s)",
                "TTFT p50 (ms)",
                "TTFT p95 (ms)",
                "ITL p95 (ms)",
                "slot util",
                "preempts",
            ],
            &rows,
        )
    );

    // ── 2. Priority classes: continuous vs continuous+preempt ──────────
    let fleet = homogeneous_fleet(&base, 1);
    // One pool cell per offered rate; each cell runs its two schedulers
    // over the same trace (the trace build is part of the cell).
    let priority_grid = pool.par_map_indexed(&DECODE_RATES, |&rate| {
        let trace = decode_trace(
            &prefill,
            &output,
            DECODE_HIGH_FRACTION,
            rate,
            DECODE_REQUESTS,
            HARNESS_SEED,
        );
        let run = |scheduler| {
            simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                scheduler,
                &cfg,
            )
        };
        let cont = run(DecodeScheduler::Continuous);
        let pre = run(DecodeScheduler::ContinuousPreempt);
        (trace, cont, pre)
    });
    let mut rows = Vec::new();
    for (&rate, (trace, cont, pre)) in DECODE_RATES.iter().zip(&priority_grid) {
        let cont_high = high_ttft_p95(cont);
        let pre_high = high_ttft_p95(pre);
        if rate == DECODE_SATURATING_RATE {
            assert!(
                pre_high < cont_high,
                "@{rate} seq/s: preempting high-priority p95 TTFT {pre_high} !< \
                 continuous {cont_high}"
            );
        }
        rows.push(vec![
            format!("{rate:.0}"),
            format!("{:.0}", cont_high * 1e3),
            format!("{:.0}", pre_high * 1e3),
            tables::speedup(cont_high / pre_high),
            format!("{:.0}", normal_ttft_p95(cont, trace) * 1e3),
            format!("{:.0}", normal_ttft_p95(pre, trace) * 1e3),
            format!("{}", pre.preemptions),
        ]);
    }
    println!(
        "Priority classes, 1 shard ({:.0} ms TTFT deadline)",
        DECODE_TTFT_DEADLINE_S * 1e3
    );
    println!(
        "{}",
        tables::render(
            &[
                "load (seq/s)",
                "high p95 TTFT cont (ms)",
                "high p95 TTFT preempt (ms)",
                "gain",
                "norm p95 cont (ms)",
                "norm p95 preempt (ms)",
                "preempts",
            ],
            &rows,
        )
    );
    println!(
        "(continuous>static goodput and preempt<continuous high-priority p95 TTFT\n\
         asserted above; static batching strands slots on straggler outputs, and\n\
         deadline-driven preemption trades normal-class tail for first-token SLOs)"
    );
}
