//! Length-aware coarse-grained dynamic pipelining (§4.2, Fig. 5).
//!
//! A batch of variable-length sequences flows through the coarse pipeline
//! stages (Stage 1 `MM|At-Sel`, Stage 2 `At-Comp`, Stage 3 `FdFwd`, …) for
//! every encoder layer. Because every operator is `O(n)` under sparse
//! attention, sorting the batch by decreasing length and streaming it
//! through the stages leaves no pipeline bubbles: each stage finishes
//! sequence `i` no later than it would have started it under any other
//! order, and stages of consecutive layers patch together seamlessly.
//!
//! Three policies are modeled:
//!
//! - [`SchedulingPolicy::LengthAware`] — the paper's design;
//! - [`SchedulingPolicy::PadToMax`] — TensorRT-style padding of the whole
//!   batch to its maximum length;
//! - [`SchedulingPolicy::MicroBatch`] — TurboTransformer-style micro-batches
//!   padded internally, with a pipeline drain between micro-batches (the
//!   "significant pipeline bubbles" the paper observes on FPGA).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Provides the per-stage processing time of one sequence.
pub trait StageTiming {
    /// Number of coarse pipeline stages.
    fn num_stages(&self) -> usize;

    /// Cycles stage `stage` needs for a sequence of `len` tokens.
    fn stage_cycles(&self, stage: usize, len: usize) -> u64;
}

/// Linear `O(n)` stage timing: `cycles = fixed + per_token · len`.
///
/// This is the timing shape the paper's scheduling relies on; coefficients
/// are typically derived from a [`crate::stage_alloc::StageAllocation`].
///
/// # Example
///
/// ```
/// use lat_core::pipeline::{LinearStageTiming, StageTiming};
///
/// let t = LinearStageTiming::new(vec![100.0, 150.0, 120.0], vec![50, 50, 50]);
/// assert_eq!(t.num_stages(), 3);
/// assert_eq!(t.stage_cycles(0, 10), 50 + 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearStageTiming {
    per_token: Vec<f64>,
    fixed: Vec<u64>,
}

impl LinearStageTiming {
    /// Creates a timing model from per-stage cycles-per-token and fixed
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or are empty.
    pub fn new(per_token: Vec<f64>, fixed: Vec<u64>) -> Self {
        assert_eq!(per_token.len(), fixed.len(), "coefficient length mismatch");
        assert!(!per_token.is_empty(), "at least one stage required");
        Self { per_token, fixed }
    }

    /// Uniform model: every stage costs `per_token` cycles per token.
    pub fn uniform(stages: usize, per_token: f64) -> Self {
        Self::new(vec![per_token; stages], vec![0; stages])
    }
}

impl StageTiming for LinearStageTiming {
    fn num_stages(&self) -> usize {
        self.per_token.len()
    }

    fn stage_cycles(&self, stage: usize, len: usize) -> u64 {
        self.fixed[stage] + (self.per_token[stage] * len as f64).ceil() as u64
    }
}

/// Batch scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Sort by decreasing length, stream every sequence at its true length.
    LengthAware,
    /// Pad every sequence to the batch maximum (TensorRT-style).
    PadToMax,
    /// Split the sorted batch into micro-batches of the given size, pad
    /// within each micro-batch, and drain the pipeline between them
    /// (TurboTransformer-style).
    MicroBatch {
        /// Sequences per micro-batch.
        size: usize,
    },
}

impl fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingPolicy::LengthAware => write!(f, "length-aware"),
            SchedulingPolicy::PadToMax => write!(f, "pad-to-max"),
            SchedulingPolicy::MicroBatch { size } => write!(f, "micro-batch({size})"),
        }
    }
}

/// One `(sequence, layer, stage)` occupancy interval in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// Index of the sequence in the *sorted* batch.
    pub seq: usize,
    /// Encoder layer index.
    pub layer: usize,
    /// Coarse pipeline stage index.
    pub stage: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// A complete pipeline schedule for one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
    num_stages: usize,
    makespan: u64,
    stage_busy: Vec<u64>,
    /// Billed token count (includes padding waste under non-adaptive
    /// policies).
    billed_tokens: u64,
    /// Real token count of the batch.
    real_tokens: u64,
}

impl Schedule {
    /// All occupancy intervals, ordered by `(layer, seq, stage)` issue order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Number of coarse stages.
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Total cycles from batch start to last completion.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Busy cycles of stage `stage`.
    pub fn stage_busy(&self, stage: usize) -> u64 {
        self.stage_busy[stage]
    }

    /// Utilization of stage `stage` over the makespan, in `[0, 1]`.
    pub fn utilization(&self, stage: usize) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.stage_busy[stage] as f64 / self.makespan as f64
    }

    /// Idle (bubble) cycles of stage `stage` *between its first start and
    /// its last end* — the quantity the state-machine scheduling drives to
    /// zero.
    pub fn bubble_cycles(&self, stage: usize) -> u64 {
        let mut spans: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| (e.start, e.end))
            .collect();
        if spans.is_empty() {
            return 0;
        }
        spans.sort_unstable();
        let first = spans[0].0;
        let last = spans.iter().map(|&(_, e)| e).max().unwrap_or(first);
        let busy: u64 = spans.iter().map(|&(s, e)| e - s).sum();
        (last - first).saturating_sub(busy)
    }

    /// Padding overhead ratio: billed tokens / real tokens (1.0 for the
    /// length-aware policy).
    pub fn padding_overhead(&self) -> f64 {
        if self.real_tokens == 0 {
            return 1.0;
        }
        self.billed_tokens as f64 / self.real_tokens as f64
    }
}

/// Schedules a batch through the pipeline under `policy`.
///
/// `lengths` are the true sequence lengths (any order — the scheduler sorts
/// them descending, as the paper's state machine requires); `layers` is the
/// number of encoder layers each sequence traverses.
///
/// # Panics
///
/// Panics if `lengths` is empty, `layers == 0`, or a micro-batch size of 0
/// is requested.
pub fn schedule_batch<T: StageTiming>(
    lengths: &[usize],
    layers: usize,
    timing: &T,
    policy: SchedulingPolicy,
) -> Schedule {
    let mut entries = Vec::with_capacity(layers * lengths.len() * timing.num_stages());
    let run = run_policy(lengths, layers, timing, policy, &mut entries);
    Schedule {
        entries,
        num_stages: timing.num_stages(),
        makespan: run.makespan,
        stage_busy: run.stage_busy,
        billed_tokens: run.billed_tokens,
        real_tokens: run.real_tokens,
    }
}

/// The makespan [`schedule_batch`] would report, without materializing
/// its `layers × batch × stages` occupancy intervals.
///
/// # Panics
///
/// Same panics as [`schedule_batch`].
pub fn batch_makespan<T: StageTiming>(
    lengths: &[usize],
    layers: usize,
    timing: &T,
    policy: SchedulingPolicy,
) -> u64 {
    run_policy(lengths, layers, timing, policy, &mut NoEntries).makespan
}

/// Where the flow-shop recurrence writes its occupancy intervals:
/// [`schedule_batch`] keeps them, [`batch_makespan`] drops them.
trait EntrySink {
    fn push(&mut self, entry: ScheduleEntry);
}

impl EntrySink for Vec<ScheduleEntry> {
    fn push(&mut self, entry: ScheduleEntry) {
        Vec::push(self, entry);
    }
}

struct NoEntries;

impl EntrySink for NoEntries {
    fn push(&mut self, _entry: ScheduleEntry) {}
}

/// Everything a [`Schedule`] holds besides its entries.
struct PolicyRun {
    makespan: u64,
    stage_busy: Vec<u64>,
    billed_tokens: u64,
    real_tokens: u64,
}

fn run_policy<T: StageTiming, E: EntrySink>(
    lengths: &[usize],
    layers: usize,
    timing: &T,
    policy: SchedulingPolicy,
    sink: &mut E,
) -> PolicyRun {
    assert!(!lengths.is_empty(), "empty batch");
    assert!(layers > 0, "layers must be >= 1");
    let mut sorted: Vec<usize> = lengths.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let real_tokens: u64 = sorted.iter().map(|&l| l as u64).sum();
    let mut stage_busy = vec![0u64; timing.num_stages()];

    let (makespan, billed_tokens) = match policy {
        SchedulingPolicy::LengthAware => {
            flow_shop(&sorted, layers, timing, 0, 0, &mut stage_busy, sink)
        }
        SchedulingPolicy::PadToMax => {
            let max = *sorted.first().expect("non-empty");
            let billed = vec![max; sorted.len()];
            flow_shop(&billed, layers, timing, 0, 0, &mut stage_busy, sink)
        }
        SchedulingPolicy::MicroBatch { size } => {
            assert!(size > 0, "micro-batch size must be >= 1");
            let mut offset = 0u64;
            let mut billed_tokens = 0u64;
            for (i, chunk) in sorted.chunks(size).enumerate() {
                let max = *chunk.iter().max().expect("non-empty chunk");
                let billed = vec![max; chunk.len()];
                let (end, billed_chunk) = flow_shop(
                    &billed,
                    layers,
                    timing,
                    offset,
                    i * size,
                    &mut stage_busy,
                    sink,
                );
                billed_tokens += billed_chunk;
                // Pipeline drains fully between micro-batches.
                offset = end;
            }
            (offset, billed_tokens)
        }
    };
    PolicyRun {
        makespan,
        stage_busy,
        billed_tokens,
        real_tokens,
    }
}

/// Permutation flow-shop schedule of `billed` lengths across
/// `layers × stages`, starting at cycle `start_offset`, with sequence
/// indices numbered from `seq_base`. Adds each stage's busy cycles to
/// `stage_busy` and returns the absolute end cycle and the billed token
/// count.
///
/// Jobs are issued layer-major (`layer 0: seq 0..B`, `layer 1: seq 0..B`,
/// …); stage `k` of job `j` starts when stage `k` is free (previous job
/// finished it) *and* stage `k-1` of job `j` finished; additionally layer
/// `l` of sequence `i` cannot enter stage 0 before layer `l-1` of the same
/// sequence left the last stage.
fn flow_shop<T: StageTiming, E: EntrySink>(
    billed: &[usize],
    layers: usize,
    timing: &T,
    start_offset: u64,
    seq_base: usize,
    stage_busy: &mut [u64],
    sink: &mut E,
) -> (u64, u64) {
    let stages = timing.num_stages();
    // Stage times depend on (sequence, stage) only, never on the layer:
    // price each sequence once. `billed` is sorted, so equal lengths are
    // adjacent and share the previous row.
    let mut cost: Vec<u64> = Vec::with_capacity(billed.len() * stages);
    let mut prev_len = None;
    for &len in billed {
        if prev_len == Some(len) {
            cost.extend_from_within(cost.len() - stages..);
        } else {
            cost.extend((0..stages).map(|stage| timing.stage_cycles(stage, len)));
        }
        prev_len = Some(len);
    }
    let mut stage_free = vec![start_offset; stages];
    // finish[(seq)] = completion time of the previous layer's last stage.
    let mut layer_done = vec![start_offset; billed.len()];
    let mut makespan = start_offset;

    for layer in 0..layers {
        for ((seq, done), row) in layer_done
            .iter_mut()
            .enumerate()
            .zip(cost.chunks(stages.max(1)))
        {
            let mut prev_stage_done = *done;
            for (stage, ((&t, free), busy)) in row
                .iter()
                .zip(stage_free.iter_mut())
                .zip(stage_busy.iter_mut())
                .enumerate()
            {
                let start = prev_stage_done.max(*free);
                let end = start + t;
                sink.push(ScheduleEntry {
                    seq: seq_base + seq,
                    layer,
                    stage,
                    start,
                    end,
                });
                *free = end;
                *busy += t;
                prev_stage_done = end;
            }
            *done = prev_stage_done;
            makespan = makespan.max(prev_stage_done);
        }
    }

    let billed_tokens: u64 = billed.iter().map(|&l| l as u64).sum();
    (makespan, billed_tokens)
}

/// Makespan of fully sequential (un-pipelined) execution — the lower-end
/// baseline showing what coarse pipelining itself buys.
pub fn sequential_makespan<T: StageTiming>(lengths: &[usize], layers: usize, timing: &T) -> u64 {
    lengths
        .iter()
        .map(|&l| {
            (0..timing.num_stages())
                .map(|k| timing.stage_cycles(k, l))
                .sum::<u64>()
        })
        .sum::<u64>()
        * layers as u64
}

/// Renders an ASCII Gantt chart of the schedule (one row per stage), the
/// Fig. 5 timing-diagram view. `width` is the number of character cells the
/// makespan is compressed into.
pub fn render_gantt(schedule: &Schedule, width: usize) -> String {
    let width = width.max(10);
    let span = schedule.makespan().max(1) as f64;
    let mut out = String::new();
    for stage in 0..schedule.num_stages() {
        let mut row = vec![b'.'; width];
        for e in schedule.entries().iter().filter(|e| e.stage == stage) {
            let a = ((e.start as f64 / span) * width as f64) as usize;
            let b = (((e.end as f64) / span) * width as f64).ceil() as usize;
            let glyph = glyph_for(e.seq);
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph;
            }
        }
        out.push_str(&format!(
            "stage {stage} |{}| {:>5.1}%\n",
            String::from_utf8_lossy(&row),
            schedule.utilization(stage) * 100.0
        ));
    }
    out
}

fn glyph_for(seq: usize) -> u8 {
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    GLYPHS[seq % GLYPHS.len()]
}

/// Renders the Fig. 5(a) view: one row per *sequence*, showing which
/// coarse stage processes it over time (`M` = stage 0 / MM|At-Sel,
/// `A` = stage 1 / At-Comp, `F` = stage 2 / FdFwd, digits for further
/// stages). `width` is the number of character cells.
pub fn render_sequence_gantt(schedule: &Schedule, width: usize) -> String {
    let width = width.max(10);
    let span = schedule.makespan().max(1) as f64;
    let num_seqs = schedule
        .entries()
        .iter()
        .map(|e| e.seq + 1)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for seq in 0..num_seqs {
        let mut row = vec![b'.'; width];
        for e in schedule.entries().iter().filter(|e| e.seq == seq) {
            let a = ((e.start as f64 / span) * width as f64) as usize;
            let b = (((e.end as f64) / span) * width as f64).ceil() as usize;
            let glyph = stage_glyph(e.stage);
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph;
            }
        }
        out.push_str(&format!(
            "I{:<2} |{}|\n",
            seq + 1,
            String::from_utf8_lossy(&row)
        ));
    }
    out
}

fn stage_glyph(stage: usize) -> u8 {
    match stage {
        0 => b'M',
        1 => b'A',
        2 => b'F',
        s => b'0' + ((s % 10) as u8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 5 batch: 5 sequences, lengths 140/100/82/78/72, 3 stages.
    fn fig5_setup() -> (Vec<usize>, LinearStageTiming) {
        let lengths = vec![72, 140, 82, 100, 78]; // unsorted on purpose
        let timing = LinearStageTiming::new(vec![10.0, 12.0, 9.0], vec![0, 0, 0]);
        (lengths, timing)
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 1, &timing, SchedulingPolicy::LengthAware);
        // Lower bound: longest sequence through all stages.
        let lb: u64 = (0..3).map(|k| timing.stage_cycles(k, 140)).sum();
        assert!(s.makespan() >= lb);
    }

    #[test]
    fn makespan_at_least_bottleneck_stage_work() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        for k in 0..3 {
            assert!(s.makespan() >= s.stage_busy(k));
        }
    }

    #[test]
    fn entries_respect_stage_order_and_exclusivity() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        // Stage exclusivity: within one stage, intervals don't overlap.
        for stage in 0..3 {
            let mut spans: Vec<(u64, u64)> = s
                .entries()
                .iter()
                .filter(|e| e.stage == stage)
                .map(|e| (e.start, e.end))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap in stage {stage}: {w:?}");
            }
        }
        // Dependency: stage k starts after stage k-1 for the same (seq, layer).
        for e in s.entries() {
            if e.stage > 0 {
                let prev = s
                    .entries()
                    .iter()
                    .find(|p| p.seq == e.seq && p.layer == e.layer && p.stage == e.stage - 1)
                    .expect("predecessor entry exists");
                assert!(prev.end <= e.start);
            }
        }
    }

    #[test]
    fn layer_dependency_respected() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 3, &timing, SchedulingPolicy::LengthAware);
        for e in s.entries().iter().filter(|e| e.layer > 0 && e.stage == 0) {
            let prev_last = s
                .entries()
                .iter()
                .find(|p| p.seq == e.seq && p.layer == e.layer - 1 && p.stage == 2)
                .expect("previous layer entry");
            assert!(prev_last.end <= e.start);
        }
    }

    #[test]
    fn length_aware_beats_padding() {
        let (lengths, timing) = fig5_setup();
        let adaptive = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        let padded = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::PadToMax);
        assert!(
            adaptive.makespan() < padded.makespan(),
            "adaptive {} !< padded {}",
            adaptive.makespan(),
            padded.makespan()
        );
        // The saved latency is roughly the padding waste share.
        assert!(padded.padding_overhead() > 1.3);
        assert!((adaptive.padding_overhead() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn length_aware_beats_micro_batching() {
        let (lengths, timing) = fig5_setup();
        let adaptive = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        let micro = schedule_batch(
            &lengths,
            2,
            &timing,
            SchedulingPolicy::MicroBatch { size: 2 },
        );
        assert!(adaptive.makespan() < micro.makespan());
        // Micro-batching pads fewer tokens than full padding, even though
        // its drain bubbles can make the *makespan* worse on FPGA (§2).
        let padded = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::PadToMax);
        assert!(micro.padding_overhead() < padded.padding_overhead());
    }

    #[test]
    fn pipelining_beats_sequential() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        let seq = sequential_makespan(&lengths, 2, &timing);
        assert!(
            s.makespan() < seq,
            "pipeline {} !< sequential {seq}",
            s.makespan()
        );
    }

    #[test]
    fn bottleneck_stage_has_no_bubbles_with_sorted_batch() {
        // The headline claim: the slowest stage runs back-to-back.
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        // Stage 1 (12 cycles/token) is the bottleneck.
        assert_eq!(
            s.bubble_cycles(1),
            0,
            "bottleneck stage must be bubble-free, schedule:\n{}",
            render_gantt(&s, 80)
        );
    }

    #[test]
    fn near_full_utilization_on_bottleneck() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 4, &timing, SchedulingPolicy::LengthAware);
        // With 4 layers the pipeline is warm most of the time.
        assert!(
            s.utilization(1) > 0.9,
            "bottleneck utilization {:.3}",
            s.utilization(1)
        );
    }

    #[test]
    fn micro_batch_has_more_bubbles_than_adaptive() {
        let (lengths, timing) = fig5_setup();
        let adaptive = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        let micro = schedule_batch(
            &lengths,
            2,
            &timing,
            SchedulingPolicy::MicroBatch { size: 2 },
        );
        let bubbles = |s: &Schedule| (0..3).map(|k| s.bubble_cycles(k)).sum::<u64>();
        assert!(bubbles(&micro) > bubbles(&adaptive));
    }

    #[test]
    fn single_sequence_single_layer() {
        let timing = LinearStageTiming::uniform(3, 5.0);
        let s = schedule_batch(&[10], 1, &timing, SchedulingPolicy::LengthAware);
        assert_eq!(s.makespan(), 150); // 3 stages × 50 cycles
        assert_eq!(s.entries().len(), 3);
    }

    #[test]
    fn entries_count_is_product() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 3, &timing, SchedulingPolicy::LengthAware);
        assert_eq!(s.entries().len(), 5 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let timing = LinearStageTiming::uniform(3, 1.0);
        let _ = schedule_batch(&[], 1, &timing, SchedulingPolicy::LengthAware);
    }

    #[test]
    fn gantt_renders_all_stages() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 1, &timing, SchedulingPolicy::LengthAware);
        let g = render_gantt(&s, 60);
        assert_eq!(g.lines().count(), 3);
        assert!(g.contains("stage 0"));
        assert!(g.contains('%'));
    }

    #[test]
    fn sequence_gantt_has_one_row_per_sequence() {
        let (lengths, timing) = fig5_setup();
        let s = schedule_batch(&lengths, 2, &timing, SchedulingPolicy::LengthAware);
        let g = render_sequence_gantt(&s, 80);
        assert_eq!(g.lines().count(), 5);
        assert!(g.contains('M') && g.contains('A') && g.contains('F'));
        // The longest sequence (row I1) starts at the very left.
        let first = g.lines().next().unwrap();
        let bar = first.split('|').nth(1).unwrap();
        assert!(
            bar.starts_with('M'),
            "first row should start with MM: {bar}"
        );
    }

    #[test]
    fn policy_display() {
        assert_eq!(SchedulingPolicy::LengthAware.to_string(), "length-aware");
        assert_eq!(
            SchedulingPolicy::MicroBatch { size: 4 }.to_string(),
            "micro-batch(4)"
        );
    }

    #[test]
    fn padding_overhead_matches_max_over_mean() {
        let lengths = vec![100, 50, 50];
        let timing = LinearStageTiming::uniform(2, 1.0);
        let s = schedule_batch(&lengths, 1, &timing, SchedulingPolicy::PadToMax);
        assert!((s.padding_overhead() - 300.0 / 200.0).abs() < 1e-9);
    }
}
