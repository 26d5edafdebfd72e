//! Generative-decode serving on the fleet engine: iteration-level
//! (continuous) batching, priorities, and deadline-driven preemption.
//!
//! [`crate::fleet`] serves *encoder* requests: one service interval per
//! request, so window-or-cap batching is enough. Generative decode is a
//! different regime — a request occupies an accelerator slot for a
//! *variable number of dependent steps* (one per output token), so a batch
//! formed once and held to completion idles its slots while the longest
//! member finishes. This module simulates the three classic schedulers on
//! top of the same event-driven machinery and the same
//! [`AcceleratorDesign`] cost model:
//!
//! - [`DecodeScheduler::Static`] — request-level batching on a rigid
//!   engine: a batch is formed only when the shard is empty and every
//!   member is padded to the batch's longest output — finished sequences
//!   hold their slots AND the engine keeps paying the full formed-batch
//!   iteration cost until the last straggler drains (the
//!   FasterTransformer-style baseline iteration-level batching is
//!   measured against).
//! - [`DecodeScheduler::Continuous`] — iteration-level batching: finished
//!   requests free their slots at every step boundary and waiting requests
//!   are admitted immediately (ORCA-style admit-on-slot-free).
//! - [`DecodeScheduler::ContinuousPreempt`] — continuous batching plus
//!   priority-first admission and deadline-driven preemption: when a
//!   waiting high-priority request would miss its time-to-first-token
//!   deadline by waiting out one more iteration, the longest-running
//!   normal-priority resident is evicted (and pays a re-prefill of its
//!   grown context when it is re-admitted).
//!
//! ## Cost model
//!
//! Per-step latency derives from the encoder fleet's kernel model, keeping
//! the two engines pinned to one source of truth. An iteration is ONE
//! fused pass over the resident batch (ORCA-style selective batching):
//! newly admitted requests contribute their full context length (prefill,
//! priced exactly as today's encoder batch; the first output token falls
//! out of that pass) and already-resident requests contribute one token
//! each (decode, priced as 1-token members of the same batch). A single
//! `run_batch(contexts ++ [1; decoding])` prices the whole iteration, so
//! HBM weight streaming is amortized across prefill and decode members
//! alike — the physical reason iteration-level batching is cheap to admit
//! into. Every resident emits exactly one token per iteration. With
//! `output_len == 1` the engine degenerates to the encoder fleet's
//! per-batch cost, which `tests/decode_props.rs` cross-checks against
//! [`simulate_fleet`](crate::fleet::simulate_fleet).
//!
//! ## One core, decode's discipline
//!
//! The engine runs on the fleet's generic core with decode's batching
//! discipline, `Slots`. The core owns the event loop, admission and
//! routing, the per-shard `ShardBook` (a decode batch is one iteration
//! and its size the live residents that step), the crash and straggler
//! skeletons, and the `ReportBook` that builds the [`FleetReport`] half
//! of [`DecodeReport`]. Decode keeps only its own work: admitting into
//! slots and launching iterations, truncating an iteration on a crash,
//! evicting and preempting residents, and the per-request token books.
//!
//! Controllers drive the core through the one `Controller` trait:
//! [`simulate_decode`] runs the no-op `NullController`, and
//! [`crate::autoscale::simulate_decode_autoscale`] drives the IDENTICAL
//! code path with a policy controller that joins/retires shards at
//! runtime — which is why a pinned `min == max` decode autoscaler
//! reproduces [`simulate_decode`] bit-for-bit.
//!
//! ## KV transfer
//!
//! Whenever a resident sequence leaves its shard mid-generation
//! (preemption, scale-down migration, straggler eviction, or a
//! prefill→decode pool handoff in [`crate::disagg`]), what happens to its
//! KV cache is a [`KvTransfer`]: [`KvTransfer::Reprefill`] discards the
//! cache and re-prefills the grown context at the destination (the PR 5
//! `Migrate` semantics, now the named default), while
//! [`KvTransfer::Copy`] models a wire copy whose latency grows with the
//! resident context length and lets the destination resume decoding
//! without a re-prefill.
//!
//! # Example
//!
//! A four-request burst through one shard under continuous batching:
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::decode::{decode_trace, simulate_decode, DecodeConfig, DecodeScheduler};
//! use lat_hwsim::fleet::{homogeneous_fleet, DispatchPolicy};
//! use lat_hwsim::spec::FpgaSpec;
//! use lat_model::config::ModelConfig;
//! use lat_model::graph::AttentionMode;
//! use lat_workloads::datasets::DatasetSpec;
//!
//! let design = AcceleratorDesign::new(
//!     &ModelConfig::tiny(),
//!     AttentionMode::paper_sparse(),
//!     FpgaSpec::alveo_u280(),
//!     64,
//! );
//! let fleet = homogeneous_fleet(&design, 1);
//! let spec = DatasetSpec::rte();
//! let trace = decode_trace(&spec, &spec.decode_output(), 0.25, 200.0, 4, 7);
//! let report = simulate_decode(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     DecodeScheduler::Continuous,
//!     &DecodeConfig::default(),
//! );
//! assert_eq!(report.fleet.completed, 4);
//! assert_eq!(
//!     report.generated_tokens,
//!     trace.iter().map(|r| r.output_len as u64).sum::<u64>(),
//! );
//! ```

use crate::accelerator::AcceleratorDesign;
use crate::fleet::{
    p95_mut, summarize_sample, validate_run, Controller, Core, Discipline, DispatchPolicy,
    FleetReport, NullController, RateProfile, TraceEvent,
};
use lat_core::pipeline::SchedulingPolicy;
use lat_tensor::rng::SplitMix64;
use lat_workloads::datasets::LengthSampler;
use serde::{Deserialize, Serialize};
use std::fmt;

/// XOR'd into the trace seed to derive the auxiliary RNG stream that draws
/// output lengths and priorities, keeping the primary stream (arrival gaps
/// + prefill lengths) bit-identical to [`crate::fleet::poisson_trace`].
const DECODE_AUX_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Priority class of a decode request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Best-effort traffic; may be preempted under
    /// [`DecodeScheduler::ContinuousPreempt`].
    Normal,
    /// Latency-sensitive traffic with a time-to-first-token deadline.
    High,
}

/// One generative request in an arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodeRequest {
    /// Arrival time in seconds since simulation start.
    pub arrival_s: f64,
    /// Prompt (context) length in tokens — the prefill workload.
    pub prefill_len: usize,
    /// Number of output tokens to generate (≥ 1); the first one falls out
    /// of the prefill pass.
    pub output_len: usize,
    /// Priority class (only [`DecodeScheduler::ContinuousPreempt`] looks
    /// at it).
    pub priority: Priority,
}

impl TraceEvent for DecodeRequest {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }

    fn route_len(&self) -> usize {
        self.prefill_len
    }
}

/// Generates a Poisson decode trace: prefill lengths from `prefill`,
/// output lengths from `output`, and a `high_fraction` share of
/// high-priority requests.
///
/// Arrival gaps and prefill lengths are drawn from the *primary* RNG
/// stream through the shared [`crate::fleet::poisson_process`] helper, so
/// for the same `(sampler, rate, n, seed)` this emits bit-identical
/// arrival times (and prefill lengths) to
/// [`crate::fleet::poisson_trace`]. Output lengths and priorities come
/// from an auxiliary stream derived from the seed, so adding them cannot
/// perturb the arrival process.
///
/// # Panics
///
/// Panics if `arrival_rate <= 0`, `num_requests == 0`, or `high_fraction`
/// is outside `[0, 1]`.
pub fn decode_trace<P: LengthSampler + ?Sized, O: LengthSampler + ?Sized>(
    prefill: &P,
    output: &O,
    high_fraction: f64,
    arrival_rate: f64,
    num_requests: usize,
    seed: u64,
) -> Vec<DecodeRequest> {
    crate::fleet::poisson_process(
        arrival_rate,
        num_requests,
        seed,
        decode_payload(prefill, output, high_fraction, seed),
    )
}

/// Nonstationary sibling of [`decode_trace`]: arrivals follow the
/// time-varying [`RateProfile`], per-request fields are drawn exactly as
/// [`decode_trace`] draws them. Built on the shared
/// [`crate::fleet::nonstationary_poisson_process`], so for the same
/// `(profile, n, seed)` it emits bit-identical arrival times (and prefill
/// lengths) to [`crate::fleet::nonstationary_poisson_trace`] — the
/// nonstationary mirror of the stationary pinning.
///
/// # Panics
///
/// Panics if the profile is malformed, `num_requests == 0`, or
/// `high_fraction` is outside `[0, 1]`.
pub fn nonstationary_decode_trace<P: LengthSampler + ?Sized, O: LengthSampler + ?Sized>(
    prefill: &P,
    output: &O,
    high_fraction: f64,
    profile: &RateProfile,
    num_requests: usize,
    seed: u64,
) -> Vec<DecodeRequest> {
    crate::fleet::nonstationary_poisson_process(
        profile,
        num_requests,
        seed,
        decode_payload(prefill, output, high_fraction, seed),
    )
}

/// The per-request payload closure shared by [`decode_trace`] and
/// [`nonstationary_decode_trace`]: one source of truth for the draw order,
/// so the stationary and nonstationary generators cannot drift apart.
fn decode_payload<'a, P: LengthSampler + ?Sized, O: LengthSampler + ?Sized>(
    prefill: &'a P,
    output: &'a O,
    high_fraction: f64,
    seed: u64,
) -> impl FnMut(&mut SplitMix64, f64) -> DecodeRequest + 'a {
    assert!(
        (0.0..=1.0).contains(&high_fraction),
        "high_fraction outside [0, 1]"
    );
    let mut aux = SplitMix64::new(seed ^ DECODE_AUX_STREAM);
    let (prefill, output) = (prefill.prepare(), output.prepare());
    move |rng, t| {
        let prefill_len = prefill.sample(rng);
        let output_len = output.sample(&mut aux).max(1);
        let priority = if aux.next_f64() < high_fraction {
            Priority::High
        } else {
            Priority::Normal
        };
        DecodeRequest {
            arrival_s: t,
            prefill_len,
            output_len,
            priority,
        }
    }
}

/// Per-shard iteration-level scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeScheduler {
    /// Form a batch only when the shard is empty; hold it — padded to its
    /// longest member at full formed-batch iteration cost — until every
    /// member finishes.
    Static,
    /// Admit waiting requests whenever a slot is free at an iteration
    /// boundary (continuous / iteration-level batching).
    Continuous,
    /// Continuous batching with priority-first admission and preemption of
    /// the longest-running normal resident when a high-priority arrival
    /// would otherwise miss its TTFT deadline.
    ContinuousPreempt,
}

impl DecodeScheduler {
    /// All schedulers, for sweeps.
    pub const ALL: [DecodeScheduler; 3] = [
        DecodeScheduler::Static,
        DecodeScheduler::Continuous,
        DecodeScheduler::ContinuousPreempt,
    ];
}

impl fmt::Display for DecodeScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeScheduler::Static => write!(f, "static"),
            DecodeScheduler::Continuous => write!(f, "continuous"),
            DecodeScheduler::ContinuousPreempt => write!(f, "continuous+preempt"),
        }
    }
}

/// Parameters of the decode engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeConfig {
    /// Concurrent sequences a shard can hold (KV-cache slots).
    pub max_slots: usize,
    /// Time-to-first-token deadline of high-priority requests; only
    /// [`DecodeScheduler::ContinuousPreempt`] acts on it.
    pub ttft_deadline_s: f64,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        Self {
            max_slots: 8,
            ttft_deadline_s: 0.25,
        }
    }
}

/// How a resident sequence's KV cache moves when the sequence leaves its
/// shard mid-generation — the first-class generalization of the scale-down
/// `Migrate` move (preemption, migration and straggler eviction all
/// behave as [`KvTransfer::Reprefill`]); [`crate::disagg`] prices its
/// prefill→decode pool handoffs with [`KvTransfer::Copy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KvTransfer {
    /// Discard the KV cache; the destination re-prefills the grown
    /// context (prompt + tokens emitted so far) on re-admission. Zero
    /// wire latency, one re-prefill pass of compute.
    Reprefill,
    /// Copy the KV cache over the interconnect. The modeled latency is
    /// `base_s + context_tokens * per_token_s` — linear in the resident
    /// context length, the KV footprint actually on the wire — and the
    /// destination resumes decoding without a re-prefill. An infinite
    /// cost means "never transfer": [`crate::disagg`] keeps such
    /// residents decoding in place, which is exactly the colocated
    /// engine.
    Copy {
        /// Fixed per-transfer setup latency in seconds (≥ 0).
        base_s: f64,
        /// Seconds per context token of KV state moved (≥ 0).
        per_token_s: f64,
    },
}

impl KvTransfer {
    /// Modeled transfer latency for a resident holding `context_tokens`
    /// of KV state (prompt length + tokens emitted so far).
    /// [`KvTransfer::Reprefill`] moves no KV, so its wire latency is 0 —
    /// the cost it pays is the re-prefill pass at the destination.
    pub fn latency_s(&self, context_tokens: usize) -> f64 {
        match self {
            KvTransfer::Reprefill => 0.0,
            KvTransfer::Copy {
                base_s,
                per_token_s,
            } => base_s + context_tokens as f64 * per_token_s,
        }
    }

    /// Whether the destination can resume decoding without a re-prefill
    /// (the KV cache survives the move).
    pub fn preserves_kv(&self) -> bool {
        matches!(self, KvTransfer::Copy { .. })
    }

    /// Panics unless the cost model is well-formed: both [`KvTransfer::Copy`]
    /// terms must be ≥ 0 and not NaN (`f64::INFINITY` is legal — it means
    /// "never transfer").
    pub fn validate(&self) {
        if let KvTransfer::Copy {
            base_s,
            per_token_s,
        } = self
        {
            assert!(
                *base_s >= 0.0 && !base_s.is_nan(),
                "negative or NaN KV-transfer base latency"
            );
            assert!(
                *per_token_s >= 0.0 && !per_token_s.is_nan(),
                "negative or NaN KV-transfer per-token latency"
            );
        }
    }
}

/// Outcome of one request (diagnostics / property tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Shard the request completed on.
    pub shard: usize,
    /// Time to first token (arrival → end of first prefill iteration);
    /// `f64::INFINITY` if the request never started (failure layer only).
    pub ttft_s: f64,
    /// Completion time in seconds (absolute, not latency);
    /// `f64::INFINITY` if the request never finished (failure layer only).
    pub completion_s: f64,
    /// Output tokens generated (== the request's `output_len` whenever it
    /// completed).
    pub tokens: usize,
    /// Times this request was preempted.
    pub preemptions: u32,
    /// Context (re-)prefill passes priced beyond the first admission —
    /// one per preemption or scale-down migration whose re-admission
    /// actually ran. Equals `preemptions` under a fixed fleet; the decode
    /// autoscaler's migrations add theirs on top.
    pub re_prefills: u32,
}

/// Per-shard decode statistics beyond the
/// [`ShardReport`](crate::fleet::ShardReport) slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodeShardReport {
    /// Shard index within the fleet.
    pub shard: usize,
    /// Preemptions performed on this shard.
    pub preemptions: usize,
    /// Occupied-slot time / (makespan × `max_slots`).
    pub slot_utilization: f64,
    /// Peak resident batch size.
    pub peak_resident: usize,
}

/// Result of a decode simulation: the fleet-level report (latency
/// percentiles, throughput, per-shard utilization, opt-in step log)
/// extended with decode-specific metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeReport {
    /// Fleet-level view. `batch_log` is empty unless run inside
    /// `fleet::with_batch_log`; there it holds one record per
    /// *iteration* (size = resident sequences that step).
    /// `mean_batch_size` is the mean resident count per iteration, and the
    /// latency percentiles are end-to-end (arrival → last token).
    pub fleet: FleetReport,
    /// Mean time to first token.
    pub ttft_mean_s: f64,
    /// Median TTFT.
    pub ttft_p50_s: f64,
    /// 95th-percentile TTFT.
    pub ttft_p95_s: f64,
    /// 99th-percentile TTFT.
    pub ttft_p99_s: f64,
    /// 95th-percentile TTFT over high-priority requests only (`None` when
    /// the trace has none).
    pub high_ttft_p95_s: Option<f64>,
    /// Median inter-token latency (gaps between consecutive tokens of a
    /// request, TTFT excluded); 0 when no request decodes past one token.
    pub itl_p50_s: f64,
    /// 95th-percentile inter-token latency.
    pub itl_p95_s: f64,
    /// 99th-percentile inter-token latency.
    pub itl_p99_s: f64,
    /// Total output tokens actually generated (Σ emitted; equals
    /// Σ `output_len` whenever every request completes).
    pub generated_tokens: u64,
    /// Generated tokens per second of makespan — the goodput a generative
    /// deployment cares about (idle slots in a static batch lower it).
    pub goodput_tok_s: f64,
    /// Fleet-wide occupied-slot time / (makespan × total slots).
    pub slot_utilization: f64,
    /// Total preemptions across the fleet.
    pub preemptions: usize,
    /// Per-shard decode statistics (parallel to `fleet.shards`).
    pub shards: Vec<DecodeShardReport>,
    /// Per-request outcomes in trace order.
    pub requests: Vec<RequestOutcome>,
}

/// A resident sequence occupying one slot of a shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) req: usize,
    /// The next iteration must run this request's prefill (first admission
    /// or re-admission after preemption).
    is_new: bool,
    /// Monotone admission counter — the tie-breaker that makes "longest
    /// running" deterministic.
    admit_seq: u64,
}

/// One shard's slots, beyond its [`ShardBook`](crate::fleet::ShardBook).
#[derive(Default)]
pub(crate) struct DecodeShard {
    pub(crate) resident: Vec<Slot>,
    /// Live count of the in-flight iteration (stale once the book's
    /// `busy` drops). Crash truncation and straggler re-pricing read the
    /// size from here.
    stepping_live: usize,
    /// Σ resident × iteration duration (occupied-slot seconds).
    slot_integral: f64,
    peak_resident: usize,
    preemptions: usize,
}

/// The decode discipline: iteration-level slots per shard, admitted by
/// `scheduler`, with the per-request token books.
pub(crate) struct Slots {
    scheduler: DecodeScheduler,
    cfg: DecodeConfig,
    pub(crate) shards: Vec<DecodeShard>,
    admit_seq: u64,
    pub(crate) emitted: Vec<usize>,
    last_emit_s: Vec<f64>,
    pub(crate) ttft_s: Vec<f64>,
    shard_of: Vec<usize>,
    preempt_of: Vec<u32>,
    /// Prefill passes actually priced per request (first admission +
    /// every re-admission after a preemption or migration).
    prefill_passes: Vec<u32>,
    /// Per-request one-shot "KV cache already materialized" flag: the next
    /// admission of a flagged request resumes decoding instead of
    /// re-prefilling (a completed [`KvTransfer::Copy`] handoff). Cleared
    /// at admission and whenever the KV state is lost (crash orphaning,
    /// eviction). All-false (the default) is bit-identical to the
    /// pre-transfer engine.
    pub(crate) kv_warm: Vec<bool>,
    /// Per-request prefill discount in tokens (shared-prefix cache hit):
    /// every prefill pass of request `r` is priced over
    /// `prefill_len - prefill_skip[r] + emitted` tokens (clamped to ≥ 1
    /// fresh token). All-zero (the default) prices exactly the full
    /// context.
    pub(crate) prefill_skip: Vec<usize>,
    itl_gaps: Vec<f64>,
}

/// The decode engine's core: [`simulate_decode`] runs it with fixed
/// membership, [`crate::autoscale::simulate_decode_autoscale`] with
/// runtime shard join/retire, and [`crate::disagg`] over both pools.
pub(crate) type DecodeCore<'a> = Core<'a, Slots>;

impl Discipline for Slots {
    type Req = DecodeRequest;
    const PARKS: bool = false;

    fn in_service(&self, s: usize) -> usize {
        self.shards[s].resident.len()
    }

    /// Slot-pool pressure, not just the queue: a KV resident holds
    /// capacity exactly like a waiting request, so reactive thresholds
    /// here are in units of in-system requests per accepting shard
    /// (compare against the slot count).
    fn backlog(&self, s: usize, queued: usize) -> usize {
        queued + self.shards[s].resident.len()
    }

    fn kick(core: &mut DecodeCore<'_>, s: usize, now: f64) {
        core.start_iteration(s, now);
    }

    /// Emits the step's tokens, runs the controller's hook, then launches
    /// the next iteration.
    fn complete<C: Controller<Self>>(core: &mut DecodeCore<'_>, ctl: &mut C, s: usize, now: f64) {
        core.on_step_end(s, now);
        ctl.after_completion(core, s, now);
        core.start_iteration(s, now);
    }

    /// Truncates the in-flight iteration (its destroyed tail never counts
    /// as occupied-slot time; tokens it would have emitted are lost) and
    /// orphans every *unfinished* KV resident, whose grown context
    /// re-prefills on re-admission exactly like a preemption victim.
    /// Finished padded residents of a static batch are simply dropped. The
    /// launch-time `batches`/`batch_size_sum` charges of the aborted
    /// iteration stay (both sides of the mean-batch-size ratio keep
    /// counting it).
    fn crash(
        core: &mut DecodeCore<'_>,
        s: usize,
        now: f64,
        aborted: Option<f64>,
        orphans: &mut Vec<usize>,
    ) {
        if let Some(remaining) = aborted {
            let sh = &mut core.disc.shards[s];
            sh.slot_integral -= sh.stepping_live as f64 * remaining;
            // The truncated iteration ends now.
            if let Some(rec) = core.report.last_of(s) {
                rec.completion_s = now;
            }
            core.report.end_at(now);
        }
        orphans.extend(core.take_unfinished(s));
        for &r in orphans.iter() {
            // Any KV state the crash destroyed (including a queued warm
            // handoff that never got admitted) is gone: the orphan
            // re-prefills wherever it lands.
            core.disc.kv_warm[r] = false;
        }
    }

    fn repriced(core: &mut DecodeCore<'_>, s: usize, delta: f64, _done: f64) {
        let sh = &mut core.disc.shards[s];
        sh.slot_integral += sh.stepping_live as f64 * delta;
    }

    /// Emitting tokens or done: its KV state is live, and a timeout
    /// mid-generation is not a client abandon in this model. A resident
    /// that has not emitted yet is not queued, so cancelling finds nothing.
    fn started(core: &DecodeCore<'_>, r: usize) -> bool {
        core.disc.emitted[r] > 0 || core.completion_s[r].is_finite()
    }
}

impl<'a> DecodeCore<'a> {
    /// Validates the inputs and builds the core.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `trace` is empty, `cfg.max_slots == 0`,
    /// `cfg.ttft_deadline_s < 0`, any `output_len`/`prefill_len` is zero,
    /// the trace is unsorted / non-finite, or `accepting` has the wrong
    /// length / no accepting shard.
    pub(crate) fn new(
        shards: &'a [AcceleratorDesign],
        trace: &'a [DecodeRequest],
        policy: SchedulingPolicy,
        dispatch: DispatchPolicy,
        scheduler: DecodeScheduler,
        cfg: &DecodeConfig,
        accepting: Vec<bool>,
    ) -> Self {
        validate_run(shards.len(), trace, &accepting);
        assert!(cfg.max_slots > 0, "max_slots must be >= 1");
        assert!(cfg.ttft_deadline_s >= 0.0, "negative TTFT deadline");
        assert!(
            trace.iter().all(|r| r.output_len > 0 && r.prefill_len > 0),
            "prefill_len and output_len must be >= 1"
        );
        let n = trace.len();
        let slots = Slots {
            scheduler,
            cfg: cfg.clone(),
            shards: (0..shards.len()).map(|_| DecodeShard::default()).collect(),
            admit_seq: 0,
            emitted: vec![0; n],
            last_emit_s: vec![f64::NAN; n],
            ttft_s: vec![f64::NAN; n],
            shard_of: vec![usize::MAX; n],
            preempt_of: vec![0; n],
            prefill_passes: vec![0; n],
            kv_warm: vec![false; n],
            prefill_skip: vec![0; n],
            itl_gaps: Vec::new(),
        };
        Core::assemble(shards, trace, policy, dispatch, accepting, slots)
    }
}

impl DecodeCore<'_> {
    /// Decode-iteration cost for `batch` resident sequences: a
    /// `batch`-sequence 1-token run through the shard's pipeline, memoized
    /// per batch size in the shard's stage-cost table.
    fn decode_cost(&mut self, s: usize, batch: usize) -> f64 {
        self.books[s]
            .costs
            .one_token_seconds(&self.designs[s], batch, self.policy, &mut self.lens)
    }

    /// Moves the request at `queue[idx]` of shard `s` into a free slot.
    /// A KV-warm request (completed [`KvTransfer::Copy`]) resumes
    /// decoding; everyone else (re-)prefills. The warmth flag is one-shot:
    /// any later re-admission pays the re-prefill again.
    fn admit_at(&mut self, s: usize, idx: usize) {
        let req = self.books[s]
            .queue
            .remove(idx)
            .expect("admit index in bounds");
        let d = &mut self.disc;
        let admit_seq = d.admit_seq;
        d.admit_seq += 1;
        let is_new = !d.kv_warm[req];
        d.kv_warm[req] = false;
        d.shards[s].resident.push(Slot {
            req,
            is_new,
            admit_seq,
        });
    }

    /// Index into the shard's queue of the next request to admit: FIFO for
    /// static/continuous, high-priority-first (each class FIFO) under the
    /// preempting scheduler.
    fn next_admit_index(&self, s: usize) -> Option<usize> {
        let queue = &self.books[s].queue;
        if queue.is_empty() {
            return None;
        }
        if self.disc.scheduler == DecodeScheduler::ContinuousPreempt {
            if let Some(idx) = queue
                .iter()
                .position(|&r| self.trace[r].priority == Priority::High)
            {
                return Some(idx);
            }
        }
        Some(0)
    }

    /// Deadline check of the preempting scheduler: while the earliest
    /// waiting high-priority request would miss its TTFT deadline by
    /// waiting out one more decode iteration, evict the longest-running
    /// normal-priority resident (most tokens emitted; earliest admission
    /// breaks ties) and admit the high-priority request in its place. The
    /// victim returns to the queue front and re-prefills its grown context
    /// on re-admission.
    fn preempt_for_deadlines(&mut self, s: usize, now: f64) {
        loop {
            if self.disc.shards[s].resident.len() < self.disc.cfg.max_slots {
                return; // free slot: the admission loop already drained the queue
            }
            let Some(qidx) = self.books[s]
                .queue
                .iter()
                .position(|&r| self.trace[r].priority == Priority::High)
            else {
                return;
            };
            let high = self.books[s].queue[qidx];
            let next_step = self.decode_cost(s, self.disc.shards[s].resident.len());
            let deadline = self.trace[high].arrival_s + self.disc.cfg.ttft_deadline_s;
            if now + next_step <= deadline {
                return; // it can still make the deadline without a preemption
            }
            let victim_pos = self.disc.shards[s]
                .resident
                .iter()
                .enumerate()
                .filter(|(_, sl)| self.trace[sl.req].priority == Priority::Normal)
                .max_by_key(|(_, sl)| (self.disc.emitted[sl.req], std::cmp::Reverse(sl.admit_seq)))
                .map(|(i, _)| i);
            let Some(pos) = victim_pos else {
                return; // every resident is high-priority: nothing to evict
            };
            let victim = self.disc.shards[s].resident.remove(pos);
            self.admit_at(s, qidx);
            self.books[s].queue.push_front(victim.req);
            self.disc.shards[s].preemptions += 1;
            self.disc.preempt_of[victim.req] += 1;
        }
    }

    /// Runs the scheduler's admission step and, if the shard holds any
    /// resident sequences, prices and launches the next iteration.
    pub(crate) fn start_iteration(&mut self, s: usize, now: f64) {
        if self.dead[s] || self.books[s].busy {
            return;
        }
        let scheduler = self.disc.scheduler;
        if scheduler != DecodeScheduler::Static || self.disc.shards[s].resident.is_empty() {
            while self.disc.shards[s].resident.len() < self.disc.cfg.max_slots {
                match self.next_admit_index(s) {
                    Some(idx) => self.admit_at(s, idx),
                    None => break,
                }
            }
        }
        if scheduler == DecodeScheduler::ContinuousPreempt {
            self.preempt_for_deadlines(s, now);
        }
        if self.disc.shards[s].resident.is_empty() {
            return; // idle until the next arrival
        }
        // Price the iteration as ONE fused pass: full contexts for newly
        // (re-)admitted requests, one token for everyone already resident.
        // Under the static scheduler finished members stay resident
        // (padded), so `resident.len()` is the formed batch size and the
        // rigid engine keeps paying for it; `live` counts the sequences
        // that actually emit a token this iteration.
        self.lens.clear();
        let d = &mut self.disc;
        for sl in &d.shards[s].resident {
            if sl.is_new {
                // A shared-prefix cache hit discounts the prompt by the
                // cached prefix (at least one fresh token always runs);
                // skip == 0 prices exactly `prefill_len + emitted`.
                let skip = d.prefill_skip[sl.req].min(self.trace[sl.req].prefill_len - 1);
                self.lens
                    .push(self.trace[sl.req].prefill_len - skip + d.emitted[sl.req]);
                d.prefill_passes[sl.req] += 1;
            }
        }
        let size = d.shards[s].resident.len();
        let live = d.shards[s]
            .resident
            .iter()
            .filter(|sl| d.emitted[sl.req] < self.trace[sl.req].output_len)
            .count();
        let old = size - self.lens.len();
        let cost = if self.lens.is_empty() {
            self.decode_cost(s, old) // pure-decode iteration: memoized
        } else {
            self.lens.extend(std::iter::repeat_n(1, old));
            self.books[s]
                .costs
                .service_seconds(&self.designs[s], &self.lens, self.policy)
        } * self.slowdown[s];
        self.launch(s, now, cost, live);
        let sh = &mut self.disc.shards[s];
        for slot in sh.resident.iter_mut() {
            slot.is_new = false;
        }
        sh.stepping_live = live;
        sh.slot_integral += live as f64 * cost;
        sh.peak_resident = sh.peak_resident.max(size);
    }

    /// Takes shard `s`'s *unfinished* residents out of their slots with
    /// their KV state discarded ([`KvTransfer::Reprefill`] semantics: each
    /// re-prefills its grown context on re-admission). Finished sequences
    /// a static batch still holds as padded slots have nothing left to
    /// generate — they are released, never migrated or re-priced.
    fn take_unfinished(&mut self, s: usize) -> Vec<usize> {
        let d = &mut self.disc;
        let mut taken: Vec<usize> = d.shards[s].resident.drain(..).map(|sl| sl.req).collect();
        taken.retain(|&r| d.emitted[r] < self.trace[r].output_len);
        for &r in &taken {
            d.kv_warm[r] = false;
        }
        taken
    }

    /// Sheds shard `s`, already closed to routing, onto the accepting
    /// shards: its waiting queue if `waiting`, and with `migrate` its
    /// unfinished residents too, provided no iteration is in flight (a
    /// busy shard's residents wait for the iteration boundary). Returns
    /// how many residents moved. Decode scale-down and the failure
    /// layer's straggler arm both retire a shard through this call.
    pub(crate) fn shed(&mut self, s: usize, now: f64, waiting: bool, migrate: bool) -> usize {
        let mut moving = if waiting {
            self.take_waiting(s, now)
        } else {
            Vec::new()
        };
        let queued = moving.len();
        if migrate && !self.books[s].busy {
            moving.extend(self.take_unfinished(s));
        }
        let migrated = moving.len() - queued;
        self.readmit(moving, now);
        migrated
    }

    /// One token emitted per live resident at the end of an iteration.
    /// Continuous schedulers free finished slots immediately; the static
    /// scheduler holds every slot (padded) until the whole batch drains.
    /// Does NOT launch the next iteration — [`Discipline::complete`] does,
    /// after the controller's [`Controller::after_completion`] hook.
    fn on_step_end(&mut self, s: usize, now: f64) {
        self.books[s].finish(now);
        self.report.end_at(now);
        let d = &mut self.disc;
        for sl in &d.shards[s].resident {
            let r = sl.req;
            if d.emitted[r] >= self.trace[r].output_len {
                continue; // padded slot in a static batch: no live token
            }
            d.emitted[r] += 1;
            if d.emitted[r] == 1 {
                d.ttft_s[r] = now - self.trace[r].arrival_s;
            } else {
                d.itl_gaps.push(now - d.last_emit_s[r]);
            }
            d.last_emit_s[r] = now;
            if d.emitted[r] == self.trace[r].output_len {
                assert!(self.completion_s[r].is_nan(), "request completed twice");
                self.completion_s[r] = now;
                d.shard_of[r] = s;
                self.books[s].completed += 1;
            }
        }
        let (emitted, trace) = (&d.emitted, self.trace);
        let resident = &mut d.shards[s].resident;
        if d.scheduler == DecodeScheduler::Static {
            if resident
                .iter()
                .all(|sl| emitted[sl.req] >= trace[sl.req].output_len)
            {
                resident.clear();
            }
        } else {
            resident.retain(|sl| emitted[sl.req] < trace[sl.req].output_len);
        }
    }

    /// Assembles the [`DecodeReport`] after the queue drained.
    ///
    /// Requests that never completed (timed out, lost to an unrecovered
    /// outage) are absent from the latency/TTFT populations, and their
    /// [`RequestOutcome`] carries `f64::INFINITY` sentinels (keeping the
    /// report `PartialEq`-comparable for determinism tests). Conservation
    /// is the *caller's* invariant — [`simulate_decode`] asserts it; the
    /// failure layer accounts shortfalls through client dispositions.
    pub(crate) fn into_report(self) -> DecodeReport {
        let n = self.trace.len();
        let d = self.disc;
        let fleet = self.report.into_report(
            self.trace,
            &self.completion_s,
            self.designs,
            self.books.iter(),
        );
        let makespan = fleet.makespan_s;
        let finite_ttfts = d.ttft_s.iter().copied().filter(|t| t.is_finite());
        let (_, ttft_mean, ttft_pcts) = summarize_sample(finite_ttfts.collect());
        let high_ttft_p95_s = {
            let mut high_ttfts: Vec<f64> = self
                .trace
                .iter()
                .zip(&d.ttft_s)
                .filter(|(r, t)| r.priority == Priority::High && t.is_finite())
                .map(|(_, &t)| t)
                .collect();
            p95_mut(&mut high_ttfts)
        };
        let (_, _, itl_pcts) = summarize_sample(d.itl_gaps);
        let max_slots = d.cfg.max_slots;
        let decode_shards: Vec<DecodeShardReport> = d
            .shards
            .iter()
            .enumerate()
            .map(|(i, sh)| DecodeShardReport {
                shard: i,
                preemptions: sh.preemptions,
                slot_utilization: sh.slot_integral / (makespan.max(1e-12) * max_slots as f64),
                peak_resident: sh.peak_resident,
            })
            .collect();
        // INFINITY (not NaN) sentinels for never-started / never-finished
        // requests keep the outcome vector PartialEq-comparable, which the
        // determinism suites rely on (`NaN != NaN` would break them).
        let finite_or_inf = |x: f64| if x.is_finite() { x } else { f64::INFINITY };
        let requests: Vec<RequestOutcome> = (0..n)
            .map(|r| RequestOutcome {
                shard: d.shard_of[r],
                ttft_s: finite_or_inf(d.ttft_s[r]),
                completion_s: finite_or_inf(self.completion_s[r]),
                tokens: d.emitted[r],
                preemptions: d.preempt_of[r],
                re_prefills: d.prefill_passes[r].saturating_sub(1),
            })
            .collect();
        let generated_tokens: u64 = d.emitted.iter().map(|&e| e as u64).sum();
        DecodeReport {
            ttft_mean_s: ttft_mean,
            ttft_p50_s: ttft_pcts[0],
            ttft_p95_s: ttft_pcts[1],
            ttft_p99_s: ttft_pcts[2],
            high_ttft_p95_s,
            itl_p50_s: itl_pcts[0],
            itl_p95_s: itl_pcts[1],
            itl_p99_s: itl_pcts[2],
            generated_tokens,
            goodput_tok_s: generated_tokens as f64 / makespan.max(1e-12),
            slot_utilization: d.shards.iter().map(|sh| sh.slot_integral).sum::<f64>()
                / (makespan.max(1e-12) * (max_slots * self.designs.len()) as f64),
            preemptions: d.shards.iter().map(|sh| sh.preemptions).sum(),
            shards: decode_shards,
            requests,
            fleet,
        }
    }
}

/// Simulates `trace` over a fleet of `shards`, each holding up to
/// `cfg.max_slots` concurrent sequences and stepping them under
/// `scheduler`; arrivals are routed by `dispatch` (length-binned routing
/// bins by prefill length).
///
/// Every request completes exactly once and generates exactly its
/// `output_len` tokens, preempted or not.
///
/// # Panics
///
/// Panics if `shards` or `trace` is empty, `cfg.max_slots == 0`,
/// `cfg.ttft_deadline_s < 0`, any `output_len`/`prefill_len` is zero, or
/// the trace is unsorted / non-finite.
pub fn simulate_decode(
    shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    cfg: &DecodeConfig,
) -> DecodeReport {
    let mut core = DecodeCore::new(
        shards,
        trace,
        policy,
        dispatch,
        scheduler,
        cfg,
        vec![true; shards.len()],
    );
    core.run(&mut NullController);
    let report = core.into_report();
    assert_eq!(
        report.fleet.completed,
        trace.len(),
        "request never completed (conservation bug in the healthy fleet)"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{
        homogeneous_fleet, poisson_trace, simulate_fleet, with_batch_log, BatcherConfig,
    };
    use crate::spec::FpgaSpec;
    use lat_model::config::ModelConfig;
    use lat_model::graph::AttentionMode;
    use lat_workloads::datasets::DatasetSpec;

    fn tiny_design(s_avg: usize) -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            s_avg,
        )
    }

    fn burst(n: usize, at: f64, prefill: usize, output: usize) -> Vec<DecodeRequest> {
        vec![
            DecodeRequest {
                arrival_s: at,
                prefill_len: prefill,
                output_len: output,
                priority: Priority::Normal,
            };
            n
        ]
    }

    /// A logged run, so whole-report equalities compare the step log.
    fn run(
        trace: &[DecodeRequest],
        scheduler: DecodeScheduler,
        slots: usize,
        n_shards: usize,
    ) -> DecodeReport {
        let fleet = homogeneous_fleet(&tiny_design(64), n_shards);
        with_batch_log(|| {
            simulate_decode(
                &fleet,
                trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                scheduler,
                &DecodeConfig {
                    max_slots: slots,
                    ttft_deadline_s: 0.25,
                },
            )
        })
    }

    #[test]
    fn decode_trace_matches_poisson_trace_arrivals() {
        let spec = DatasetSpec::rte();
        let enc = poisson_trace(&spec, 120.0, 40, 99);
        let dec = decode_trace(&spec, &spec.decode_output(), 0.2, 120.0, 40, 99);
        for (a, b) in enc.iter().zip(&dec) {
            assert_eq!(a.arrival_s, b.arrival_s, "arrival process drifted");
            assert_eq!(a.len, b.prefill_len, "prefill stream drifted");
        }
        assert!(dec.iter().all(|r| r.output_len >= 1));
        assert!(dec.iter().any(|r| r.priority == Priority::High));
        assert!(dec.iter().any(|r| r.priority == Priority::Normal));
    }

    #[test]
    fn every_request_generates_its_tokens_once() {
        let trace = decode_trace(
            &DatasetSpec::rte(),
            &DatasetSpec::rte().decode_output(),
            0.25,
            400.0,
            30,
            7,
        );
        for scheduler in DecodeScheduler::ALL {
            let r = run(&trace, scheduler, 4, 2);
            assert_eq!(r.fleet.completed, 30, "{scheduler}");
            assert_eq!(
                r.generated_tokens,
                trace.iter().map(|q| q.output_len as u64).sum::<u64>()
            );
            for (req, out) in trace.iter().zip(&r.requests) {
                assert_eq!(out.tokens, req.output_len, "{scheduler}");
                assert!(out.ttft_s > 0.0 && out.ttft_s <= out.completion_s - req.arrival_s);
            }
        }
    }

    #[test]
    fn static_batch_holds_slots_until_all_finish() {
        // Two requests, outputs 1 and 4: static runs them as one batch and
        // admits nothing until the long one drains, so a third arrival
        // waits. Continuous admits it as soon as the short one frees a
        // slot, finishing strictly earlier.
        let mut trace = burst(2, 0.0, 64, 1);
        trace[1].output_len = 4;
        trace.push(DecodeRequest {
            arrival_s: 1e-6,
            prefill_len: 64,
            output_len: 1,
            priority: Priority::Normal,
        });
        let st = run(&trace, DecodeScheduler::Static, 2, 1);
        let ct = run(&trace, DecodeScheduler::Continuous, 2, 1);
        assert!(
            ct.requests[2].completion_s < st.requests[2].completion_s,
            "continuous {} !< static {}",
            ct.requests[2].completion_s,
            st.requests[2].completion_s
        );
        assert!(ct.requests[2].ttft_s < st.requests[2].ttft_s);
        // Back-filling the freed slot keeps more slots busy.
        assert!(ct.slot_utilization > st.slot_utilization);
    }

    #[test]
    fn continuous_beats_static_goodput_under_saturating_load() {
        // The headline claim at unit scale: under saturating load with
        // skewed output lengths, slots idled by a static batch's
        // stragglers turn directly into lost goodput.
        let trace = decode_trace(
            &DatasetSpec::rte(),
            &DatasetSpec::rte().decode_output(),
            0.0,
            5000.0,
            48,
            13,
        );
        let st = run(&trace, DecodeScheduler::Static, 4, 1);
        let ct = run(&trace, DecodeScheduler::Continuous, 4, 1);
        assert!(
            ct.goodput_tok_s > st.goodput_tok_s,
            "continuous {} !> static {}",
            ct.goodput_tok_s,
            st.goodput_tok_s
        );
        assert!(ct.slot_utilization > st.slot_utilization);
    }

    #[test]
    fn continuous_admits_on_slot_free() {
        // 4 slots, 8 requests with output 2: continuous back-fills freed
        // slots; peak residency is the slot cap and every iteration after
        // the first runs full.
        let trace = burst(8, 0.0, 64, 2);
        let r = run(&trace, DecodeScheduler::Continuous, 4, 1);
        assert_eq!(r.shards[0].peak_resident, 4);
        assert!(!r.fleet.batch_log.is_empty());
        assert!(r.fleet.batch_log.iter().all(|b| b.size <= 4));
        assert_eq!(r.fleet.completed, 8);
    }

    #[test]
    fn preemption_rescues_high_priority_ttft() {
        // Slots saturated by long normal requests; a high-priority arrival
        // with a tight deadline must preempt under ContinuousPreempt and
        // see a strictly lower TTFT than under plain continuous.
        let mut trace = burst(6, 0.0, 64, 40);
        trace.push(DecodeRequest {
            arrival_s: 1e-6, // lands inside the first prefill iteration
            prefill_len: 32,
            output_len: 4,
            priority: Priority::High,
        });
        let tight = |scheduler| {
            let fleet = homogeneous_fleet(&tiny_design(64), 1);
            simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                scheduler,
                &DecodeConfig {
                    max_slots: 2,
                    // Zero deadline: any waiting high-priority request is
                    // urgent at the very next iteration boundary.
                    ttft_deadline_s: 0.0,
                },
            )
        };
        let cont = tight(DecodeScheduler::Continuous);
        let pre = tight(DecodeScheduler::ContinuousPreempt);
        assert!(pre.preemptions > 0, "no preemption happened");
        assert!(
            pre.requests[6].ttft_s < cont.requests[6].ttft_s,
            "preempt TTFT {} !< continuous TTFT {}",
            pre.requests[6].ttft_s,
            cont.requests[6].ttft_s
        );
        // The victims still finish and still generate every token.
        assert_eq!(pre.fleet.completed, 7);
        assert!(pre.requests.iter().any(|q| q.preemptions > 0));
    }

    #[test]
    fn preempting_scheduler_without_high_traffic_matches_continuous() {
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::mrpc().decode_output(),
            0.0,
            300.0,
            24,
            11,
        );
        let a = run(&trace, DecodeScheduler::Continuous, 4, 2);
        let b = run(&trace, DecodeScheduler::ContinuousPreempt, 4, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn single_step_burst_reproduces_fleet_engine_exactly() {
        // output_len == 1 makes every request a pure prefill; on a burst
        // the decode engine forms the same full batches as the encoder
        // fleet's cap-fill path, and both price them with `run_batch`, so
        // throughput agrees to rounding error.
        let design = tiny_design(64);
        let lens = [64usize, 32, 48, 64, 16, 40, 56, 24];
        let dec: Vec<DecodeRequest> = lens
            .iter()
            .map(|&l| DecodeRequest {
                arrival_s: 0.0,
                prefill_len: l,
                output_len: 1,
                priority: Priority::Normal,
            })
            .collect();
        let enc: Vec<crate::fleet::Request> = lens
            .iter()
            .map(|&l| crate::fleet::Request {
                arrival_s: 0.0,
                len: l,
            })
            .collect();
        let d = simulate_decode(
            std::slice::from_ref(&design),
            &dec,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig {
                max_slots: 4,
                ttft_deadline_s: 0.25,
            },
        );
        let f = simulate_fleet(
            std::slice::from_ref(&design),
            &enc,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig {
                batch_window_s: 0.05,
                max_batch: 4,
            },
        );
        let rel = (d.fleet.throughput_seq_s - f.throughput_seq_s).abs() / f.throughput_seq_s;
        assert!(
            rel < 1e-9,
            "decode {} vs fleet {} throughput",
            d.fleet.throughput_seq_s,
            f.throughput_seq_s
        );
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let trace = decode_trace(
            &DatasetSpec::rte(),
            &DatasetSpec::rte().decode_output(),
            0.2,
            500.0,
            40,
            42,
        );
        let go = || run(&trace, DecodeScheduler::ContinuousPreempt, 4, 3);
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "empty arrival trace")]
    fn zero_request_trace_rejected() {
        // The 0-request edge: an empty trace has no makespan to normalize
        // slot utilization by, so the engine must refuse it outright
        // rather than emit a report full of 0/0.
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let _ = simulate_decode(
            &fleet,
            &[],
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
        );
    }

    #[test]
    fn single_request_single_slot_utilization_is_exact() {
        // 1 request × 1 slot arriving at t=0: the slot is live for every
        // iteration and iterations run back-to-back, so live-slot
        // utilization is exactly the busy fraction (= 1) and nothing can
        // be preempted. Exercises the smallest report the engine can emit.
        let trace = burst(1, 0.0, 64, 5);
        for scheduler in DecodeScheduler::ALL {
            let r = run(&trace, scheduler, 1, 1);
            assert_eq!(r.fleet.completed, 1, "{scheduler}");
            assert_eq!(r.generated_tokens, 5);
            assert!(
                (r.slot_utilization - 1.0).abs() < 1e-12,
                "{scheduler}: slot utilization {} != 1",
                r.slot_utilization
            );
            assert!((r.shards[0].slot_utilization - 1.0).abs() < 1e-12);
            assert_eq!(r.preemptions, 0, "{scheduler}");
            assert_eq!(r.shards[0].peak_resident, 1);
            // 5 output tokens = 1 prefill pass + 4 decode iterations.
            assert_eq!(r.fleet.batch_log.len(), 5);
            assert_eq!(r.itl_p50_s, r.itl_p95_s, "uniform decode-step gaps");
        }
    }

    #[test]
    fn one_slot_preemption_evicts_the_only_resident() {
        // 1 slot saturated by a long normal request; a high-priority
        // arrival with a zero deadline must evict that sole resident. Pins
        // the victim search at the resident.len() == 1 boundary.
        let mut trace = burst(1, 0.0, 64, 30);
        trace.push(DecodeRequest {
            arrival_s: 1e-6,
            prefill_len: 32,
            output_len: 2,
            priority: Priority::High,
        });
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let r = simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &DecodeConfig {
                max_slots: 1,
                ttft_deadline_s: 0.0,
            },
        );
        assert!(r.preemptions >= 1, "no eviction at the 1-slot edge");
        assert_eq!(r.requests[0].preemptions as usize, r.preemptions);
        assert_eq!(r.requests[1].preemptions, 0, "high-priority never evicted");
        // The victim still completes with every token, after the high one.
        assert_eq!(r.fleet.completed, 2);
        assert_eq!(r.requests[0].tokens, 30);
        assert!(r.requests[1].completion_s < r.requests[0].completion_s);
        assert!(r.slot_utilization > 0.0 && r.slot_utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn nonstationary_decode_trace_matches_nonstationary_poisson_trace() {
        // Unit-scale pin of the shared nonstationary arrival process (the
        // property version lives in tests/decode_props.rs).
        let spec = DatasetSpec::rte();
        let profile = RateProfile::Diurnal {
            mean_rate: 90.0,
            swing: 4.0,
            period_s: 6.0,
        };
        let enc = crate::fleet::nonstationary_poisson_trace(&spec, &profile, 48, 23);
        let dec = nonstationary_decode_trace(&spec, &spec.decode_output(), 0.2, &profile, 48, 23);
        for (a, b) in enc.iter().zip(&dec) {
            assert_eq!(a.arrival_s, b.arrival_s, "arrival process drifted");
            assert_eq!(a.len, b.prefill_len, "prefill stream drifted");
        }
        assert!(dec.iter().all(|r| r.output_len >= 1));
    }

    #[test]
    #[should_panic(expected = "max_slots")]
    fn zero_slots_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let _ = simulate_decode(
            &fleet,
            &burst(1, 0.0, 64, 2),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            DecodeScheduler::Continuous,
            &DecodeConfig {
                max_slots: 0,
                ttft_deadline_s: 0.1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "output_len")]
    fn zero_output_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let _ = simulate_decode(
            &fleet,
            &burst(1, 0.0, 64, 0),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
        );
    }

    /// Mirror of the fleet engine's zero-completion guard: every
    /// empty-population metric of the decode report degrades to a defined
    /// value, never NaN. Single-token outputs leave the inter-token-gap
    /// population empty, and an all-Normal trace leaves the high-priority
    /// TTFT population empty.
    #[test]
    fn empty_metric_populations_stay_defined_not_nan() {
        let r = run(&burst(3, 0.0, 64, 1), DecodeScheduler::Continuous, 4, 1);
        assert_eq!(r.fleet.completed, 3);
        // No request decodes past its first token → no inter-token gaps.
        assert_eq!(r.itl_p50_s, 0.0, "empty-ITL NaN regression");
        assert_eq!(r.itl_p95_s, 0.0);
        assert_eq!(r.itl_p99_s, 0.0);
        // No high-priority requests → no high-priority tail to report.
        assert_eq!(r.high_ttft_p95_s, None);
        assert!(!r.ttft_mean_s.is_nan() && !r.fleet.mean_batch_size.is_nan());
        assert!(!r.goodput_tok_s.is_nan() && !r.slot_utilization.is_nan());
        assert!(r.shards.iter().all(|s| !s.slot_utilization.is_nan()));
    }
}
