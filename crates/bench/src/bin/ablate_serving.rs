//! Ablation: online serving latency under load — the deployment-level
//! payoff of the co-design. Sweeps the request arrival rate and compares
//! tail latencies between the length-aware schedule and pad-to-max on the
//! same chip: one accelerator, i.e. the 1-shard join-shortest-queue fleet.

use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;

fn main() {
    println!("Ablation — online serving (BERT-base / RTE, Poisson arrivals, batch cap 16)\n");
    let design = AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        68,
    );
    let cfg = BatcherConfig {
        batch_window_s: 0.05,
        max_batch: 16,
    };

    let mut rows = Vec::new();
    for rate in [10.0f64, 30.0, 60.0, 90.0, 120.0] {
        let trace = poisson_trace(&DatasetSpec::rte(), rate, 300, 0x5E12);
        let serve = |policy| {
            simulate_fleet(
                std::slice::from_ref(&design),
                &trace,
                policy,
                DispatchPolicy::JoinShortestQueue,
                &cfg,
            )
        };
        let adaptive = serve(SchedulingPolicy::LengthAware);
        let padded = serve(SchedulingPolicy::PadToMax);
        rows.push(vec![
            format!("{rate:.0}"),
            format!("{:.1}", adaptive.mean_batch_size),
            format!("{:.1}", adaptive.p50_latency_s * 1e3),
            format!("{:.1}", adaptive.p99_latency_s * 1e3),
            format!("{:.1}", padded.p50_latency_s * 1e3),
            format!("{:.1}", padded.p99_latency_s * 1e3),
            format!("{:.2}x", padded.p99_latency_s / adaptive.p99_latency_s),
        ]);
    }
    println!(
        "{}",
        tables::render(
            &[
                "load (seq/s)",
                "batch size",
                "adaptive p50 (ms)",
                "adaptive p99 (ms)",
                "padded p50 (ms)",
                "padded p99 (ms)",
                "p99 gain",
            ],
            &rows,
        )
    );
    println!("(same chip and arrivals; only the scheduling policy differs)");
}
