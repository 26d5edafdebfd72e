//! The assembled accelerator design: stage allocation × chip spec × model.
//!
//! `AcceleratorDesign` is the simulator's top level. Construction runs
//! Algorithm 1 (via `lat-core`) at the workload's average sequence length
//! and balances the chip's DSP lanes across operators; `run_batch` then
//! schedules a concrete batch through the coarse pipeline and reports
//! throughput, utilization and energy.
//!
//! ## Timing model
//!
//! Per stage and sequence, the simulator charges
//! `max(compute_cycles, memory_cycles)` — computation and HBM traffic are
//! overlapped by the double buffers and prefetching of §4.1, so the slower
//! of the two bounds the stage.
//!
//! - *Compute*: the Algorithm-1 stage latency (slowest operator at its
//!   allocated parallelism; LUT pre-selection fabric modeled separately).
//! - *Memory*: weights streamed from HBM once per layer and amortized over
//!   the batch, activations in/out of the stage, and the top-k index/value
//!   spill between Stage 1 and Stage 2.
//!
//! Both depend on the sequence only through its length, so the serving
//! engines price through a [`StageCostTable`]: one per shard, in the
//! per-shard books the fleet and decode cores share. Its rows are keyed by
//! true sequence length and filled lazily, the first time a length is
//! priced; nothing is built in [`AcceleratorDesign::new`]. A row holds each
//! stage's compute cycles and batch-independent HBM bytes, and memory
//! cycles are recomputed from them with the design's own formula, so the
//! table is bit-identical to the uncached [`AcceleratorDesign::stage_cycles`]
//! and [`AcceleratorDesign::service_seconds`], which remain the reference
//! for cold callers.

use crate::report::FpgaRunReport;
use crate::spec::FpgaSpec;
use lat_core::pipeline::{batch_makespan, schedule_batch, Schedule, SchedulingPolicy, StageTiming};
use lat_core::stage_alloc::{allocate_stages, ResourceModel, Stage, StageAllocation};
use lat_model::config::ModelConfig;
use lat_model::graph::{AttentionMode, OpKind, OperatorGraph};

/// A fully-placed accelerator design for one model configuration.
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    cfg: ModelConfig,
    mode: AttentionMode,
    spec: FpgaSpec,
    graph: OperatorGraph,
    alloc: StageAllocation,
    s_avg: usize,
}

impl AcceleratorDesign {
    /// Builds the design: operator graph → Algorithm 1 stage allocation at
    /// `s_avg` → proportional DSP balancing to the full chip.
    pub fn new(cfg: &ModelConfig, mode: AttentionMode, spec: FpgaSpec, s_avg: usize) -> Self {
        Self::with_modes(cfg, mode, mode, spec, s_avg)
    }

    /// Builds a design whose *silicon* (stage allocation and parallelism)
    /// is sized for `alloc_mode` but which *executes* `run_mode`.
    ///
    /// This models ablations like "the same chip as the sparse co-design,
    /// forced to run dense attention" (the Fig. 7b FPGA baseline: dense
    /// `O(n²)` scores pushed through attention units sized for `O(n·k)`).
    pub fn with_modes(
        cfg: &ModelConfig,
        run_mode: AttentionMode,
        alloc_mode: AttentionMode,
        spec: FpgaSpec,
        s_avg: usize,
    ) -> Self {
        let res = ResourceModel {
            dsp_total: spec.dsp_total,
            ..ResourceModel::default()
        };
        Self::with_resources(cfg, run_mode, alloc_mode, spec, s_avg, res)
    }

    /// Fully-parameterized constructor: explicit [`ResourceModel`] for
    /// design-space exploration (PE granularity, per-stage budgets, …).
    pub fn with_resources(
        cfg: &ModelConfig,
        run_mode: AttentionMode,
        alloc_mode: AttentionMode,
        spec: FpgaSpec,
        s_avg: usize,
        res: ResourceModel,
    ) -> Self {
        let graph = OperatorGraph::encoder(cfg);
        let mut alloc = allocate_stages(&graph, s_avg, alloc_mode, res);
        alloc.balance_to_budget(&graph, s_avg, alloc_mode);
        Self {
            cfg: cfg.clone(),
            mode: run_mode,
            spec,
            graph,
            alloc,
            s_avg,
        }
    }

    /// The model configuration this design was built for.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The attention mode (dense baseline vs the paper's sparse design).
    pub fn mode(&self) -> AttentionMode {
        self.mode
    }

    /// The stage allocation in use.
    pub fn allocation(&self) -> &StageAllocation {
        &self.alloc
    }

    /// The chip specification.
    pub fn spec(&self) -> &FpgaSpec {
        &self.spec
    }

    /// The average sequence length the allocation was tuned for.
    pub fn tuned_length(&self) -> usize {
        self.s_avg
    }

    /// Compute cycles of stage `stage` for one sequence of `len` tokens.
    pub fn stage_compute_cycles(&self, stage: usize, len: usize) -> u64 {
        self.alloc.stages()[stage].latency_cycles(
            &self.graph,
            len,
            self.mode,
            self.alloc.resource_model(),
        )
    }

    /// Compute cycles attributable to the self-attention operators only
    /// (for the Fig. 7b attention-throughput comparison).
    ///
    /// Measurement protocol: during an attention-only run the non-attention
    /// operators of a stage are idle, so the attention units are replicated
    /// (`R(G_k)` of §4.2) to use the stage's full DSP allocation; the LUT
    /// pre-selection fabric and elementwise units keep their fixed
    /// parallelism.
    pub fn stage_attention_cycles(&self, stage: usize, len: usize) -> u64 {
        let st = &self.alloc.stages()[stage];
        let res = self.alloc.resource_model();
        // DSP lanes the attention operators own within this stage.
        let attn_dsp: u32 = st
            .ops
            .iter()
            .zip(&st.parallelism)
            .filter(|(k, _)| {
                k.is_attention() && lat_core::stage_alloc::ResourceModel::uses_dsp(**k)
            })
            .map(|(_, &n)| n * res.dsp_per_instance)
            .sum();
        let replication = st.dsp.checked_div(attn_dsp).unwrap_or(1).max(1);
        st.ops
            .iter()
            .zip(&st.parallelism)
            .filter(|(k, _)| k.is_attention())
            .map(|(&kind, &n)| {
                let single = lat_core::stage_alloc::Stage {
                    ops: vec![kind],
                    parallelism: vec![n * replication],
                    dsp: 0,
                };
                single.latency_cycles(&self.graph, len, self.mode, res)
            })
            .max()
            .unwrap_or(0)
    }

    /// HBM cycles of stage `stage` for one sequence of `len` tokens, with
    /// weights amortized over `batch` sequences.
    pub fn stage_memory_cycles(&self, stage: usize, len: usize, batch: usize) -> u64 {
        let st = &self.alloc.stages()[stage];
        self.memory_cycles(self.weight_bytes(st), self.row_bytes(st, len), batch)
    }

    /// Weight bytes stage `st` streams from HBM (8-bit weights), once per
    /// layer and shared by the whole batch.
    fn weight_bytes(&self, st: &Stage) -> u64 {
        let d = self.cfg.hidden_dim as u64;
        let f = self.cfg.ffn_dim as u64;
        st.ops
            .iter()
            .map(|kind| match kind {
                OpKind::QkvLinear => 3 * d * d,
                OpKind::OutLinear => d * d,
                OpKind::Ffn1 => d * f,
                OpKind::Ffn2 => f * d,
                _ => 0,
            })
            .sum()
    }

    /// HBM bytes stage `st` moves for one sequence of `len` tokens,
    /// whatever the batch: activations in and out of the stage (8-bit)
    /// and, under sparse attention, the top-k spill to / reload from HBM
    /// (index u16 + value u16 per pair).
    fn row_bytes(&self, st: &Stage, len: usize) -> u64 {
        let d = self.cfg.hidden_dim as u64;
        let mut bytes = 2 * len as u64 * d;
        let k = self.mode.attended(len) as u64;
        let has_scores = st.ops.contains(&OpKind::AttnScores);
        let has_apply = st.ops.contains(&OpKind::AttnApply);
        if matches!(self.mode, AttentionMode::Sparse { .. }) && (has_scores || has_apply) {
            bytes += len as u64 * k * 4;
        }
        bytes
    }

    /// HBM cycles of one stage from its byte counts: `weight_bytes`
    /// amortized over `batch` sequences plus the sequence's own
    /// `row_bytes`. The one memory formula behind both
    /// [`AcceleratorDesign::stage_memory_cycles`] and [`StageCostTable`].
    fn memory_cycles(&self, weight_bytes: u64, row_bytes: u64, batch: usize) -> u64 {
        crate::kernels::hbm_transfer_cycles(
            weight_bytes / batch.max(1) as u64 + row_bytes,
            self.spec.hbm_bytes_per_cycle(),
        )
    }

    /// Full stage time: compute and memory overlap, slower one wins.
    pub fn stage_cycles(&self, stage: usize, len: usize, batch: usize) -> u64 {
        self.stage_compute_cycles(stage, len)
            .max(self.stage_memory_cycles(stage, len, batch))
    }

    /// Per-operator latency breakdown of every stage at sequence length
    /// `len` — which unit actually bounds each stage, and by how much.
    pub fn latency_breakdown(&self, len: usize, batch: usize) -> Vec<StageBreakdown> {
        let res = self.alloc.resource_model();
        self.alloc
            .stages()
            .iter()
            .enumerate()
            .map(|(stage, st)| {
                let ops = st
                    .ops
                    .iter()
                    .zip(&st.parallelism)
                    .map(|(&kind, &n)| {
                        let single = lat_core::stage_alloc::Stage {
                            ops: vec![kind],
                            parallelism: vec![n],
                            dsp: 0,
                        };
                        let cycles = single.latency_cycles(&self.graph, len, self.mode, res);
                        OpLatency {
                            kind,
                            parallelism: n,
                            cycles,
                        }
                    })
                    .collect();
                StageBreakdown {
                    stage,
                    ops,
                    compute_cycles: self.stage_compute_cycles(stage, len),
                    memory_cycles: self.stage_memory_cycles(stage, len, batch),
                }
            })
            .collect()
    }

    /// A [`StageTiming`] view of this design, with weight traffic
    /// amortized over `batch` sequences.
    fn timing(&self, batch: usize) -> impl StageTiming + '_ {
        DesignTiming {
            design: self,
            batch,
            attention_only: false,
        }
    }

    /// Schedules `lengths` through the design under `policy` and returns
    /// the raw schedule (cycle-level).
    pub fn schedule(&self, lengths: &[usize], policy: SchedulingPolicy) -> Schedule {
        schedule_batch(
            lengths,
            self.cfg.layers,
            &self.timing(lengths.len()),
            policy,
        )
    }

    /// Simulates a batch end-to-end and reports throughput/energy.
    pub fn run_batch(&self, lengths: &[usize], policy: SchedulingPolicy) -> FpgaRunReport {
        let schedule = self.schedule(lengths, policy);
        self.report_from_schedule(lengths, policy, &schedule)
    }

    /// Service time of a batch: `run_batch(lengths, policy).seconds`, bit
    /// for bit, without building the schedule's intervals or the report
    /// (FLOP counts, utilization, energy). The serving engines price every
    /// batch through this.
    ///
    /// # Panics
    ///
    /// Same panics as [`AcceleratorDesign::run_batch`].
    pub fn service_seconds(&self, lengths: &[usize], policy: SchedulingPolicy) -> f64 {
        let timing = self.timing(lengths.len());
        let makespan = batch_makespan(lengths, self.cfg.layers, &timing, policy);
        self.spec.cycles_to_seconds(makespan)
    }

    /// Simulates only the self-attention portion of the workload — the
    /// Fig. 7b measurement (attention operators at their allocated
    /// parallelism, same pipeline structure).
    pub fn run_batch_attention_only(
        &self,
        lengths: &[usize],
        policy: SchedulingPolicy,
    ) -> FpgaRunReport {
        let timing = DesignTiming {
            design: self,
            batch: lengths.len(),
            attention_only: true,
        };
        let schedule = schedule_batch(lengths, self.cfg.layers, &timing, policy);
        let mut report = self.report_from_schedule(lengths, policy, &schedule);
        // Ops accounting restricted to attention operators.
        let layers = self.cfg.layers as u64;
        report.actual_ops = lengths
            .iter()
            .map(|&l| self.graph.attention_flops(l, self.mode))
            .sum::<u64>()
            * layers;
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        report.padded_dense_ops = self.graph.attention_flops(max_len, AttentionMode::Dense)
            * lengths.len() as u64
            * layers;
        report
    }

    fn report_from_schedule(
        &self,
        lengths: &[usize],
        policy: SchedulingPolicy,
        schedule: &Schedule,
    ) -> FpgaRunReport {
        let seconds = self.spec.cycles_to_seconds(schedule.makespan());
        let layers = self.cfg.layers as u64;
        let actual_ops = lengths
            .iter()
            .map(|&l| self.graph.total_flops(l, self.mode))
            .sum::<u64>()
            * layers;
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let padded_dense_ops =
            self.graph.total_flops_dense(max_len) * lengths.len() as u64 * layers;
        let stage_utilization: Vec<f64> = (0..schedule.num_stages())
            .map(|k| schedule.utilization(k))
            .collect();
        let mean_util = if stage_utilization.is_empty() {
            0.0
        } else {
            stage_utilization.iter().sum::<f64>() / stage_utilization.len() as f64
        };
        let active_dsp = (self.alloc.total_dsp() as f64 * mean_util) as u32;
        let energy_j = self.spec.power_w(active_dsp) * seconds;
        FpgaRunReport {
            policy: policy.to_string(),
            makespan_cycles: schedule.makespan(),
            seconds,
            sequences: lengths.len(),
            tokens: lengths.iter().map(|&l| l as u64).sum(),
            actual_ops,
            padded_dense_ops,
            stage_utilization,
            energy_j,
        }
    }
}

/// Latency contribution of one operator inside a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The operator.
    pub kind: OpKind,
    /// Its allocated parallelism `N(v)`.
    pub parallelism: u32,
    /// Its standalone cycle count at the probed length.
    pub cycles: u64,
}

/// Per-stage latency breakdown (see
/// [`AcceleratorDesign::latency_breakdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Stage index.
    pub stage: usize,
    /// Per-operator contributions.
    pub ops: Vec<OpLatency>,
    /// The stage's compute bound (max over operators).
    pub compute_cycles: u64,
    /// The stage's HBM bound.
    pub memory_cycles: u64,
}

impl StageBreakdown {
    /// The operator that bounds this stage's compute time.
    pub fn bottleneck_op(&self) -> Option<&OpLatency> {
        self.ops.iter().max_by_key(|o| o.cycles)
    }
}

/// Adapter exposing the design's stage times to the `lat-core` scheduler.
struct DesignTiming<'a> {
    design: &'a AcceleratorDesign,
    batch: usize,
    attention_only: bool,
}

impl StageTiming for DesignTiming<'_> {
    fn num_stages(&self) -> usize {
        self.design.alloc.num_stages()
    }

    fn stage_cycles(&self, stage: usize, len: usize) -> u64 {
        if self.attention_only {
            self.design.stage_attention_cycles(stage, len)
        } else {
            self.design.stage_cycles(stage, len, self.batch)
        }
    }
}

/// Stage costs of one [`AcceleratorDesign`], priced once per sequence
/// length and looked up by every batch after.
///
/// Row `len` holds, per stage, the compute cycles
/// ([`AcceleratorDesign::stage_compute_cycles`]) and the HBM bytes a
/// sequence of `len` tokens moves whatever the batch (activations plus the
/// top-k spill). Rows are keyed by true length, so the table grows to the
/// longest length priced, and each is filled on first use. Nothing is
/// built up front: the per-stage weight bytes are computed on the first
/// fill. Memory cycles stay `hbm_transfer_cycles(weight_bytes / batch +
/// row_bytes)`, the formula behind
/// [`AcceleratorDesign::stage_memory_cycles`], so every entry is the `u64`
/// [`AcceleratorDesign::stage_cycles`] returns and
/// [`StageCostTable::service_seconds`] is
/// [`AcceleratorDesign::service_seconds`] bit for bit.
///
/// The table also memoizes whole pure-decode iterations (`batch`
/// one-token sequences) per batch size and policy.
///
/// A table serves one design: pass the same design to every call.
///
/// ```
/// use lat_core::pipeline::SchedulingPolicy;
/// use lat_hwsim::accelerator::{AcceleratorDesign, StageCostTable};
/// use lat_hwsim::spec::FpgaSpec;
/// use lat_model::config::ModelConfig;
/// use lat_model::graph::AttentionMode;
///
/// let design = AcceleratorDesign::new(
///     &ModelConfig::tiny(),
///     AttentionMode::paper_sparse(),
///     FpgaSpec::alveo_u280(),
///     64,
/// );
/// let mut table = StageCostTable::new();
/// let batch = [64, 32, 16];
/// let policy = SchedulingPolicy::LengthAware;
/// assert_eq!(
///     table.service_seconds(&design, &batch, policy).to_bits(),
///     design.service_seconds(&batch, policy).to_bits(),
/// );
/// assert_eq!(table.stage_cycles(&design, 0, 32, 3), design.stage_cycles(0, 32, 3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StageCostTable {
    /// Weight bytes per stage; empty until the first fill.
    weight_bytes: Vec<u64>,
    /// Stage `k` at length `len`, at `len * stages + k`.
    cells: Vec<StageCell>,
    /// `filled[len]`: row `len` has been priced.
    filled: Vec<bool>,
    /// Seconds of `batch` one-token sequences (index = batch) under
    /// `one_token_policy`.
    one_token: Vec<Option<f64>>,
    one_token_policy: Option<SchedulingPolicy>,
}

impl StageCostTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prices every length in `lengths` that has no row yet, binding the
    /// table to `design` on first use.
    fn fill(&mut self, design: &AcceleratorDesign, lengths: &[usize]) {
        let stages = design.alloc.stages();
        if self.weight_bytes.len() != stages.len() {
            self.weight_bytes = stages.iter().map(|st| design.weight_bytes(st)).collect();
            self.cells.clear();
            self.filled.clear();
            self.one_token.clear();
        }
        let res = design.alloc.resource_model();
        for &len in lengths {
            if self.filled.get(len) == Some(&true) {
                continue;
            }
            if self.filled.len() <= len {
                self.filled.resize(len + 1, false);
                self.cells
                    .resize((len + 1) * stages.len(), StageCell::default());
            }
            let row = self.cells.iter_mut().skip(len * stages.len());
            for ((cell, st), &weight_bytes) in row.zip(stages).zip(&self.weight_bytes) {
                let compute_cycles = st.latency_cycles(&design.graph, len, design.mode, res);
                let row_bytes = design.row_bytes(st, len);
                *cell = StageCell {
                    compute_cycles,
                    row_bytes,
                    compute_bound: compute_cycles
                        >= design.memory_cycles(weight_bytes, row_bytes, 1),
                };
            }
            if let Some(filled) = self.filled.get_mut(len) {
                *filled = true;
            }
        }
    }

    /// Stage `stage`'s cycles for a `len`-token sequence with weights
    /// amortized over `batch` sequences, read from a filled row.
    fn lookup(&self, design: &AcceleratorDesign, stage: usize, len: usize, batch: usize) -> u64 {
        debug_assert_eq!(self.filled.get(len), Some(&true), "row {len} not filled");
        let cell = self.cells.get(len * self.weight_bytes.len() + stage);
        match (cell, self.weight_bytes.get(stage)) {
            (Some(cell), _) if cell.compute_bound => cell.compute_cycles,
            (Some(cell), Some(&weight_bytes)) => {
                cell.compute_cycles
                    .max(design.memory_cycles(weight_bytes, cell.row_bytes, batch))
            }
            _ => design.stage_cycles(stage, len, batch),
        }
    }

    /// [`AcceleratorDesign::stage_cycles`]`(stage, len, batch)` from the
    /// table, filling row `len` first if needed.
    pub fn stage_cycles(
        &mut self,
        design: &AcceleratorDesign,
        stage: usize,
        len: usize,
        batch: usize,
    ) -> u64 {
        self.fill(design, &[len]);
        self.lookup(design, stage, len, batch)
    }

    /// [`AcceleratorDesign::service_seconds`]`(lengths, policy)`, bit for
    /// bit, priced from the table's rows (filling any missing).
    ///
    /// # Panics
    ///
    /// Same panics as [`AcceleratorDesign::run_batch`].
    pub fn service_seconds(
        &mut self,
        design: &AcceleratorDesign,
        lengths: &[usize],
        policy: SchedulingPolicy,
    ) -> f64 {
        self.fill(design, lengths);
        let timing = TableTiming {
            table: self,
            design,
            batch: lengths.len(),
        };
        let makespan = batch_makespan(lengths, design.cfg.layers, &timing, policy);
        design.spec.cycles_to_seconds(makespan)
    }

    /// Service seconds of a pure-decode iteration: `batch` one-token
    /// sequences, memoized per batch size. `ones` is scratch space for
    /// the batch on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn one_token_seconds(
        &mut self,
        design: &AcceleratorDesign,
        batch: usize,
        policy: SchedulingPolicy,
        ones: &mut Vec<usize>,
    ) -> f64 {
        if self.one_token_policy != Some(policy) {
            self.one_token.clear();
            self.one_token_policy = Some(policy);
        }
        if let Some(&Some(seconds)) = self.one_token.get(batch) {
            return seconds;
        }
        ones.clear();
        ones.resize(batch, 1);
        let seconds = self.service_seconds(design, ones, policy);
        if self.one_token.len() <= batch {
            self.one_token.resize(batch + 1, None);
        }
        if let Some(slot) = self.one_token.get_mut(batch) {
            *slot = Some(seconds);
        }
        seconds
    }
}

/// One `(length, stage)` entry of a [`StageCostTable`].
#[derive(Debug, Clone, Copy, Default)]
struct StageCell {
    compute_cycles: u64,
    /// HBM bytes that do not depend on the batch (activations, top-k spill).
    row_bytes: u64,
    /// `compute_cycles` bounds the stage at every batch size: it covers the
    /// memory time of a batch of one, and memory time only falls as the
    /// batch grows (`weight_bytes / batch` shrinks).
    compute_bound: bool,
}

/// The [`StageTiming`] view of a filled [`StageCostTable`].
struct TableTiming<'a> {
    table: &'a StageCostTable,
    design: &'a AcceleratorDesign,
    batch: usize,
}

impl StageTiming for TableTiming<'_> {
    fn num_stages(&self) -> usize {
        self.table.weight_bytes.len()
    }

    fn stage_cycles(&self, stage: usize, len: usize) -> u64 {
        self.table.lookup(self.design, stage, len, self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_design() -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::bert_base(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            177,
        )
    }

    fn baseline_design() -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::bert_base(),
            AttentionMode::Dense,
            FpgaSpec::alveo_u280(),
            177,
        )
    }

    const FIG5_BATCH: [usize; 5] = [140, 100, 82, 78, 72];

    #[test]
    fn design_uses_most_of_the_chip() {
        let d = paper_design();
        let used = d.allocation().total_dsp();
        assert!(
            used as f64 > 0.9 * d.spec().dsp_total as f64,
            "only {used} DSP"
        );
        assert!(used <= d.spec().dsp_total + 6 * 16);
    }

    #[test]
    fn stage_cycles_monotone_in_length() {
        let d = paper_design();
        for stage in 0..d.allocation().num_stages() {
            assert!(d.stage_cycles(stage, 200, 16) > d.stage_cycles(stage, 50, 16));
        }
    }

    #[test]
    fn memory_amortization_helps() {
        let d = paper_design();
        let small_batch = d.stage_memory_cycles(0, 128, 1);
        let big_batch = d.stage_memory_cycles(0, 128, 16);
        assert!(big_batch < small_batch);
    }

    #[test]
    fn run_batch_produces_consistent_report() {
        let d = paper_design();
        let r = d.run_batch(&FIG5_BATCH, SchedulingPolicy::LengthAware);
        assert_eq!(r.sequences, 5);
        assert_eq!(r.tokens, 140 + 100 + 82 + 78 + 72);
        assert!(r.seconds > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r
            .stage_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        // Equivalent ops exceed actual ops (padding + sparsity credit).
        assert!(r.padded_dense_ops > r.actual_ops);
    }

    #[test]
    fn length_aware_faster_than_padded_on_fpga() {
        let d = paper_design();
        let adaptive = d.run_batch(&FIG5_BATCH, SchedulingPolicy::LengthAware);
        let padded = d.run_batch(&FIG5_BATCH, SchedulingPolicy::PadToMax);
        assert!(adaptive.seconds < padded.seconds);
    }

    #[test]
    fn sparse_design_beats_dense_baseline() {
        // The full co-design (sparse + length-aware) vs the FPGA baseline
        // (dense + padded): the paper reports ~3.1× end-to-end.
        let ours = paper_design();
        let base = baseline_design();
        let batch: Vec<usize> = (0..16).map(|i| 100 + 20 * i).collect();
        let t_ours = ours
            .run_batch(&batch, SchedulingPolicy::LengthAware)
            .seconds;
        let t_base = base.run_batch(&batch, SchedulingPolicy::PadToMax).seconds;
        let speedup = t_base / t_ours;
        assert!(
            speedup > 1.5,
            "co-design speedup over FPGA baseline only {speedup:.2}"
        );
    }

    #[test]
    fn attention_only_run_is_faster_than_full() {
        let d = paper_design();
        let full = d.run_batch(&FIG5_BATCH, SchedulingPolicy::LengthAware);
        let attn = d.run_batch_attention_only(&FIG5_BATCH, SchedulingPolicy::LengthAware);
        assert!(attn.seconds < full.seconds);
        assert!(attn.actual_ops < full.actual_ops);
    }

    #[test]
    fn equivalent_throughput_in_plausible_band() {
        // The paper reports ≈3.6 TOPS equivalent on high-padding workloads.
        // SQuAD-like batch: avg ≈177, max ≈821.
        let d = paper_design();
        let batch = [
            821, 400, 250, 200, 180, 170, 160, 150, 140, 130, 120, 110, 100, 90, 80, 70,
        ];
        let r = d.run_batch(&batch, SchedulingPolicy::LengthAware);
        let teq = r.equivalent_gops() / 1000.0;
        assert!(
            (1.0..10.0).contains(&teq),
            "equivalent throughput {teq:.2} TOPS out of band"
        );
    }

    #[test]
    fn energy_efficiency_band() {
        let d = paper_design();
        let batch = [
            821, 400, 250, 200, 180, 170, 160, 150, 140, 130, 120, 110, 100, 90, 80, 70,
        ];
        let r = d.run_batch(&batch, SchedulingPolicy::LengthAware);
        let eff = r.equivalent_gop_per_j();
        assert!((30.0..300.0).contains(&eff), "GOP/J {eff:.1} out of band");
    }

    #[test]
    fn latency_breakdown_consistent_with_stage_cycles() {
        let d = paper_design();
        let breakdown = d.latency_breakdown(177, 16);
        assert_eq!(breakdown.len(), d.allocation().num_stages());
        for b in &breakdown {
            // The stage's compute bound equals its slowest operator.
            let max_op = b.bottleneck_op().expect("non-empty stage").cycles;
            assert_eq!(b.compute_cycles, max_op, "stage {}", b.stage);
            assert_eq!(b.compute_cycles, d.stage_compute_cycles(b.stage, 177));
            assert_eq!(b.memory_cycles, d.stage_memory_cycles(b.stage, 177, 16));
            // Every operator appears with its allocated parallelism.
            let expect_ops = &d.allocation().stages()[b.stage].ops;
            assert_eq!(b.ops.len(), expect_ops.len());
        }
    }

    #[test]
    fn tiny_model_also_simulates() {
        let d = AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            64,
        );
        let r = d.run_batch(&[64, 32, 16], SchedulingPolicy::LengthAware);
        assert!(r.seconds > 0.0);
    }
}
