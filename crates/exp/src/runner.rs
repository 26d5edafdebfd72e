//! Plan execution: expand cells, fan over the worker pool, render a
//! sealed canonical artifact.
//!
//! Determinism contract: a plan's artifact is a pure function of the
//! plan and the harness seed. Cells are scattered by index
//! ([`Scheduler::par_map_indexed`]), the engines are deterministic, and
//! no wall-clock value is recorded — so worker count never changes a
//! byte, which the merge-invariance test below pins.

use lat_bench::scenarios::harness_seed;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_core::sketch::ReportMode;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::decode::{decode_trace, DecodeConfig, DecodeRequest, DecodeScheduler};
use lat_hwsim::disagg::{simulate_disaggregated, DisaggConfig};
use lat_hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet_instrumented, DispatchPolicy, FleetReport,
    FleetRunStats,
};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;
use lat_workloads::prefix::PrefixGroup;
use serde::json::Value;

use crate::artifact::seal;
use crate::plan::{dispatch_label, scheduling_label, Cell, DisaggCell, DisaggPlan, SweepPlan};

/// Artifact schema version for every plan document.
pub const ARTIFACT_SCHEMA: u64 = 1;

/// Runs one plan to a sealed artifact document.
pub fn run_plan(plan: &SweepPlan, pool: &Scheduler) -> Value {
    let design = AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    );
    let fleet = homogeneous_fleet(&design, plan.shards);
    let cells = plan.cells();
    let rows = pool.par_map_indexed(&cells, |cell| run_cell(plan, cell, &fleet));
    let body = Value::obj([
        ("schema".into(), Value::UInt(ARTIFACT_SCHEMA)),
        ("plan".into(), Value::Str(plan.name.into())),
        ("description".into(), Value::Str(plan.description.into())),
        ("seed".into(), Value::Str(format!("{:#x}", harness_seed()))),
        ("mode".into(), Value::Str(mode_label(plan.mode).into())),
        ("requests".into(), Value::UInt(plan.requests as u64)),
        ("shards".into(), Value::UInt(plan.shards as u64)),
        ("cells".into(), Value::Arr(rows)),
    ]);
    seal(body)
}

fn mode_label(mode: ReportMode) -> &'static str {
    match mode {
        ReportMode::Exact => "exact",
        ReportMode::Streaming => "streaming",
    }
}

fn run_cell(
    plan: &SweepPlan,
    cell: &Cell,
    fleet: &[lat_hwsim::accelerator::AcceleratorDesign],
) -> Value {
    let trace = poisson_trace(
        &DatasetSpec::rte(),
        cell.rate_seq_s,
        plan.requests,
        harness_seed(),
    );
    let cfg = lat_hwsim::fleet::BatcherConfig::default();
    let run = |mode| {
        simulate_fleet_instrumented(fleet, &trace, cell.scheduling, cell.dispatch, &cfg, mode)
    };
    let (report, stats) = run(plan.mode);
    let mut fields = vec![
        ("cell".to_string(), Value::UInt(cell.index as u64)),
        (
            "dispatch".to_string(),
            Value::Str(dispatch_label(cell.dispatch).into()),
        ),
        (
            "scheduling".to_string(),
            Value::Str(scheduling_label(cell.scheduling)),
        ),
        ("rate_seq_s".to_string(), Value::Float(cell.rate_seq_s)),
    ];
    fields.extend(report_fields(&report, &stats));
    if plan.mode == ReportMode::Streaming {
        // Fidelity record: the exact run of the same cell, and the
        // absolute sketch error on each percentile. (No wall-clock —
        // both runs are deterministic.)
        let (exact, _) = run(ReportMode::Exact);
        for (tag, s, e) in [
            ("p50", report.p50_latency_s, exact.p50_latency_s),
            ("p95", report.p95_latency_s, exact.p95_latency_s),
            ("p99", report.p99_latency_s, exact.p99_latency_s),
        ] {
            fields.push((format!("exact_{tag}_latency_s"), Value::Float(e)));
            fields.push((format!("sketch_abs_err_{tag}"), Value::Float((s - e).abs())));
        }
    }
    Value::obj(fields)
}

fn report_fields(r: &FleetReport, stats: &FleetRunStats) -> Vec<(String, Value)> {
    vec![
        ("completed".into(), Value::UInt(r.completed as u64)),
        (
            "batches".into(),
            Value::UInt(r.shards.iter().map(|s| s.batches as u64).sum()),
        ),
        ("makespan_s".into(), Value::Float(r.makespan_s)),
        ("throughput_seq_s".into(), Value::Float(r.throughput_seq_s)),
        ("mean_batch_size".into(), Value::Float(r.mean_batch_size)),
        ("mean_latency_s".into(), Value::Float(r.mean_latency_s)),
        ("p50_latency_s".into(), Value::Float(r.p50_latency_s)),
        ("p95_latency_s".into(), Value::Float(r.p95_latency_s)),
        ("p99_latency_s".into(), Value::Float(r.p99_latency_s)),
        (
            "events_processed".into(),
            Value::UInt(stats.events_processed),
        ),
        (
            "peak_heap_events".into(),
            Value::UInt(stats.peak_heap_events as u64),
        ),
        (
            "retained_latency_samples".into(),
            Value::UInt(stats.retained_latency_samples as u64),
        ),
    ]
}

/// Runs one disaggregation plan to a sealed artifact document. Same
/// determinism contract as [`run_plan`]: the document is a pure function
/// of the plan and the harness seed.
pub fn run_disagg_plan(plan: &DisaggPlan, pool: &Scheduler) -> Value {
    let design = AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    );
    let prefill_pool = homogeneous_fleet(&design, plan.prefill_shards);
    let decode_pool = homogeneous_fleet(&design, plan.decode_shards);
    let prompts = DatasetSpec::rte();
    let outputs = prompts.decode_output();
    let trace = decode_trace(
        &prompts,
        &outputs,
        0.0,
        plan.rate_seq_s,
        plan.requests,
        harness_seed(),
    );
    let prefixes = plan.prefix.assign(trace.len(), harness_seed());
    let cells = plan.cells();
    let rows = pool.par_map_indexed(&cells, |cell| {
        run_disagg_cell(cell, &prefill_pool, &decode_pool, &trace, &prefixes)
    });
    let body = Value::obj([
        ("schema".into(), Value::UInt(ARTIFACT_SCHEMA)),
        ("plan".into(), Value::Str(plan.name.into())),
        ("description".into(), Value::Str(plan.description.into())),
        ("seed".into(), Value::Str(format!("{:#x}", harness_seed()))),
        ("requests".into(), Value::UInt(plan.requests as u64)),
        (
            "prefill_shards".into(),
            Value::UInt(plan.prefill_shards as u64),
        ),
        (
            "decode_shards".into(),
            Value::UInt(plan.decode_shards as u64),
        ),
        ("rate_seq_s".into(), Value::Float(plan.rate_seq_s)),
        ("cells".into(), Value::Arr(rows)),
    ]);
    seal(body)
}

fn run_disagg_cell(
    cell: &DisaggCell,
    prefill_pool: &[AcceleratorDesign],
    decode_pool: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    prefixes: &[Option<PrefixGroup>],
) -> Value {
    let r = simulate_disaggregated(
        prefill_pool,
        decode_pool,
        trace,
        prefixes,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        DecodeScheduler::Continuous,
        &DecodeConfig::default(),
        &DisaggConfig {
            transfer: cell.transfer,
            prefix_cache_capacity: cell.capacity,
        },
    );
    Value::obj([
        ("cell".to_string(), Value::UInt(cell.index as u64)),
        (
            "transfer".to_string(),
            Value::Str(cell.transfer_label.into()),
        ),
        ("capacity".to_string(), Value::UInt(cell.capacity as u64)),
        (
            "completed".to_string(),
            Value::UInt(r.decode.fleet.completed as u64),
        ),
        (
            "makespan_s".to_string(),
            Value::Float(r.decode.fleet.makespan_s),
        ),
        (
            "goodput_tok_s".to_string(),
            Value::Float(r.decode.goodput_tok_s),
        ),
        ("ttft_p95_s".to_string(), Value::Float(r.decode.ttft_p95_s)),
        ("transfers".to_string(), Value::UInt(r.transfers as u64)),
        (
            "transferred_tokens".to_string(),
            Value::UInt(r.transferred_tokens),
        ),
        (
            "transfer_time_s".to_string(),
            Value::Float(r.transfer_time_s),
        ),
        ("hits".to_string(), Value::UInt(r.prefix.hits as u64)),
        ("misses".to_string(), Value::UInt(r.prefix.misses as u64)),
        (
            "evictions".to_string(),
            Value::UInt(r.prefix.evictions as u64),
        ),
        (
            "tokens_saved".to_string(),
            Value::UInt(r.prefix.tokens_saved),
        ),
        (
            "prefill_utilization".to_string(),
            Value::Float(r.prefill_pool.utilization),
        ),
        (
            "decode_utilization".to_string(),
            Value::Float(r.decode_pool.utilization),
        ),
        (
            "prefill_iterations".to_string(),
            Value::UInt(r.prefill_pool.iterations as u64),
        ),
        (
            "decode_iterations".to_string(),
            Value::UInt(r.decode_pool.iterations as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::verify_seal;
    use crate::plan::builtin_plans;

    /// Worker count must never change an artifact byte — the pool
    /// scatters by index and nothing records time. This is the harness
    /// half of the sketch merge-order-invariance story.
    #[test]
    fn artifacts_are_worker_count_invariant() {
        for plan in builtin_plans() {
            let serial = run_plan(&plan, &Scheduler::serial());
            let parallel = run_plan(&plan, &Scheduler::new(4));
            assert_eq!(
                serial.to_canonical_string(),
                parallel.to_canonical_string(),
                "plan {} diverged across worker counts",
                plan.name
            );
            verify_seal(&serial).expect("sealed artifact verifies");
        }
        for plan in crate::plan::builtin_disagg_plans() {
            let serial = run_disagg_plan(&plan, &Scheduler::serial());
            let parallel = run_disagg_plan(&plan, &Scheduler::new(4));
            assert_eq!(
                serial.to_canonical_string(),
                parallel.to_canonical_string(),
                "disagg plan {} diverged across worker counts",
                plan.name
            );
            verify_seal(&serial).expect("sealed disagg artifact verifies");
        }
    }

    /// Structural pins on the committed disaggregation grid: every cell
    /// conserves requests, capacity-0 cells never hit, and warm cells
    /// save tokens — so the golden artifact gates live counters, not
    /// vacuous zeros.
    #[test]
    fn disagg_cells_conserve_and_cache_counters_are_live() {
        let plan = crate::plan::builtin_disagg_plans()
            .into_iter()
            .find(|p| p.name == "disagg_transfer_grid")
            .expect("builtin disagg plan");
        let doc = run_disagg_plan(&plan, &Scheduler::serial());
        let Value::Obj(map) = &doc else {
            panic!("artifact is an object")
        };
        let Some(Value::Arr(cells)) = map.get("cells") else {
            panic!("artifact has cells")
        };
        assert_eq!(cells.len(), plan.cells().len());
        for cell in cells {
            let Value::Obj(c) = cell else {
                panic!("cell is an object")
            };
            assert_eq!(
                c.get("completed"),
                Some(&Value::UInt(plan.requests as u64)),
                "cell lost requests"
            );
            let uint = |k: &str| match c.get(k) {
                Some(Value::UInt(v)) => *v,
                other => panic!("{k} missing or mistyped: {other:?}"),
            };
            if uint("capacity") == 0 {
                assert_eq!(uint("hits"), 0, "capacity-0 cell hit");
                assert_eq!(uint("tokens_saved"), 0, "capacity-0 cell saved tokens");
            } else {
                assert!(uint("hits") > 0, "warm cell never hit");
                assert!(uint("tokens_saved") > 0, "warm cell saved nothing");
            }
            assert!(uint("transfers") > 0, "cell never handed off");
        }
    }

    /// Streaming cells must retain zero per-request samples and record a
    /// bounded sketch error against their exact twin.
    #[test]
    fn streaming_fidelity_cells_record_bounded_error() {
        let plan = builtin_plans()
            .into_iter()
            .find(|p| p.name == "streaming_fidelity")
            .expect("builtin plan");
        let doc = run_plan(&plan, &Scheduler::serial());
        let Value::Obj(map) = &doc else {
            panic!("artifact is an object")
        };
        let Some(Value::Arr(cells)) = map.get("cells") else {
            panic!("artifact has cells")
        };
        assert_eq!(cells.len(), plan.cells().len());
        for cell in cells {
            let Value::Obj(c) = cell else {
                panic!("cell is an object")
            };
            assert_eq!(
                c.get("retained_latency_samples"),
                Some(&Value::UInt(0)),
                "streaming cell retained per-request latencies"
            );
            for tag in ["p50", "p95", "p99"] {
                let (Some(Value::Float(err)), Some(Value::Float(exact))) = (
                    c.get(&format!("sketch_abs_err_{tag}")),
                    c.get(&format!("exact_{tag}_latency_s")),
                ) else {
                    panic!("fidelity fields missing for {tag}")
                };
                assert!(
                    *err <= exact.abs() * 0.0078125 + 1e-9,
                    "{tag}: sketch error {err} exceeds the 2⁻⁷ bound on exact {exact}"
                );
            }
        }
    }
}
