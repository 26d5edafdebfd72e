//! Determinism regression: running a figure scenario twice with the same
//! `HARNESS_SEED` must yield bit-identical reports and rendered tables.
//! Every figure binary's reproducibility rests on this property.

use lat_bench::scenarios::{Scenario, HARNESS_SEED};
use lat_bench::tables;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::MixedWorkload;

fn scenario_design(scenario: &Scenario) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &scenario.model,
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        scenario.dataset.avg_len,
    )
}

#[test]
fn scenario_batches_are_bit_identical_across_runs() {
    for scenario in Scenario::hardware_eval() {
        assert_eq!(
            scenario.sample_batches(4),
            scenario.sample_batches(4),
            "batch sampling diverged for {}",
            scenario.label()
        );
    }
}

#[test]
fn serving_report_is_bit_identical_across_runs() {
    // The single-accelerator case: one shard under join-shortest-queue.
    let scenario = &Scenario::hardware_eval()[0];
    let design = scenario_design(scenario);
    let trace = poisson_trace(&scenario.dataset, 20.0, 80, HARNESS_SEED);
    let run = || {
        simulate_fleet(
            std::slice::from_ref(&design),
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig {
                batch_window_s: 0.05,
                max_batch: 16,
            },
        )
    };
    let first = run();
    let second = run();
    // FleetReport is PartialEq over f64 fields: equality here is bitwise,
    // not approximate.
    assert_eq!(first, second, "serving simulation diverged between runs");
}

#[test]
fn fleet_report_is_bit_identical_across_runs() {
    // The event-driven engine has tie-breaking rules (same-instant arrivals,
    // window closes, completions); this guards that they are deterministic
    // end to end, per-shard stats included.
    let scenario = &Scenario::hardware_eval()[1]; // BERT-base / RTE
    let design = scenario_design(scenario);
    let fleet = homogeneous_fleet(&design, 2);
    let trace = poisson_trace(&MixedWorkload::paper_mix(), 150.0, 60, HARNESS_SEED);
    let run = || {
        simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::LengthBinned,
            &BatcherConfig::default(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fleet simulation diverged between runs");
    assert_eq!(first.completed, 60);
}

#[test]
fn batch_timing_and_rendered_table_are_bit_identical_across_runs() {
    let run_once = || {
        let mut rows = Vec::new();
        for scenario in Scenario::hardware_eval() {
            let design = scenario_design(&scenario);
            let batches = scenario.sample_batches(2);
            for batch in &batches {
                let adaptive = design.run_batch(batch, SchedulingPolicy::LengthAware);
                let padded = design.run_batch(batch, SchedulingPolicy::PadToMax);
                rows.push(vec![
                    scenario.label(),
                    format!("{:.9e}", adaptive.seconds),
                    format!("{:.9e}", padded.seconds),
                    tables::speedup(padded.seconds / adaptive.seconds),
                ]);
            }
        }
        tables::render(&["scenario", "adaptive_s", "padded_s", "speedup"], &rows)
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "figure table output diverged between runs");
    // Sanity: the table actually carries data for all four scenarios.
    assert_eq!(first.lines().count(), 2 + 4 * 2);
}
