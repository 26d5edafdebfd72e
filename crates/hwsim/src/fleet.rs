//! Event-driven multi-accelerator fleet simulator.
//!
//! This module simulates a *fleet* of N [`AcceleratorDesign`] shards
//! (homogeneous or heterogeneous) fed by a single arrival stream through a
//! pluggable [`DispatchPolicy`].
//! Each shard runs its own batcher which closes a batch at the **earlier**
//! of the batching-window expiry and the batch-cap fill — the cap-fill path
//! is the fix for the batch-window stall the old serial batcher had (a full
//! batch used to idle until the window elapsed).
//!
//! The engine is a classic discrete-event simulation: a priority queue of
//! arrival / window-close / batch-completion events ordered by time with
//! deterministic tie-breaking, so every run is bit-reproducible for a given
//! trace. One shard under [`DispatchPolicy::JoinShortestQueue`] is the
//! single-accelerator online-serving case.
//!
//! # Example
//!
//! A short Poisson burst through a two-shard fleet under
//! join-shortest-queue dispatch:
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::fleet::{
//!     homogeneous_fleet, poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy,
//! };
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
//! let trace = poisson_trace(&DatasetSpec::rte(), 400.0, 8, 11);
//! let report = simulate_fleet(
//!     &homogeneous_fleet(&design, 2),
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//! );
//! // Conservation: every request completes exactly once.
//! assert_eq!(report.completed, 8);
//! assert!(report.p95_latency_s >= report.p50_latency_s);
//! ```

use crate::accelerator::{AcceleratorDesign, StageCostTable};
use crate::failure::FaultTarget;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::sketch::QuantileSketch;
pub use lat_core::sketch::ReportMode;
use lat_tensor::rng::SplitMix64;
use lat_tensor::stats::percentiles;
use lat_workloads::datasets::LengthSampler;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// One serving request in an arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time in seconds since simulation start.
    pub arrival_s: f64,
    /// Sequence length in tokens.
    pub len: usize,
}

/// Shared Poisson trace builder: one exponential gap draw per request from
/// the primary RNG stream, then `payload` turns `(rng, arrival_time)` into
/// the request record, drawing any per-request fields it needs from the
/// same stream.
///
/// Both [`poisson_trace`] and [`crate::decode::decode_trace`] are thin
/// wrappers over this function, so their arrival processes are one piece of
/// code and cannot drift apart: generators that draw the same per-request
/// fields from the primary stream emit bit-identical arrival times for the
/// same `(rate, n, seed)`.
///
/// # Panics
///
/// Panics if `arrival_rate <= 0` or `num_requests == 0`.
pub fn poisson_process<T>(
    arrival_rate: f64,
    num_requests: usize,
    seed: u64,
    mut payload: impl FnMut(&mut SplitMix64, f64) -> T,
) -> Vec<T> {
    assert!(arrival_rate > 0.0, "arrival rate must be positive");
    assert!(num_requests > 0, "num_requests must be >= 1");
    let mut rng = SplitMix64::new(seed);
    let mut trace = Vec::with_capacity(num_requests);
    let mut t = 0.0f64;
    for _ in 0..num_requests {
        let u = rng.next_f64().max(1e-12);
        t += -u.ln() / arrival_rate;
        trace.push(payload(&mut rng, t));
    }
    trace
}

/// Generates a Poisson arrival trace (exponential inter-arrival times) with
/// lengths drawn from `sampler`.
///
/// The RNG call order (one `next_f64` for the gap, then one length sample
/// per request) is the serving simulator's historical stream, so traces are
/// stable across the serial→fleet refactor.
///
/// # Panics
///
/// Panics if `arrival_rate <= 0` or `num_requests == 0`.
pub fn poisson_trace<S: LengthSampler + ?Sized>(
    sampler: &S,
    arrival_rate: f64,
    num_requests: usize,
    seed: u64,
) -> Vec<Request> {
    let lengths = sampler.prepare();
    poisson_process(arrival_rate, num_requests, seed, |rng, t| Request {
        arrival_s: t,
        len: lengths.sample(rng),
    })
}

/// Phase of a piecewise-constant [`RateProfile`]: `rate` requests/second
/// held for `duration_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatePhase {
    /// Phase length in seconds.
    pub duration_s: f64,
    /// Arrival rate during the phase in requests/second.
    pub rate: f64,
}

/// Time-varying arrival-rate profile for nonstationary Poisson traces.
///
/// Nonstationary arrivals are generated by *time-rescaling*: unit-rate
/// exponential gaps from the primary RNG stream accumulate into a unit-rate
/// arrival process, which is mapped through the inverse cumulative rate
/// `Λ⁻¹`. The draw order (one gap per request, then the payload's
/// per-request fields) is exactly the stationary generators', so the
/// nonstationary trace builders share arrival streams the same way
/// [`poisson_trace`] and [`crate::decode::decode_trace`] do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateProfile {
    /// Fixed rate — the stationary law. (Arrival *times* differ from
    /// [`poisson_trace`] only in floating-point rounding; use that
    /// function when bit-compatibility with existing stationary traces
    /// matters.)
    Constant(f64),
    /// Piecewise-constant rate; the last phase's rate extends past its
    /// end indefinitely, so any number of requests can be generated.
    Piecewise(Vec<RatePhase>),
    /// Sinusoidal "diurnal" rate `mean_rate · (1 + a·sin(2πt/period_s))`,
    /// with the amplitude `a` chosen so the peak:trough rate ratio is
    /// `swing`.
    Diurnal {
        /// Time-averaged arrival rate in requests/second.
        mean_rate: f64,
        /// Peak-to-trough rate ratio (`>= 1`; `1` degenerates to constant).
        swing: f64,
        /// Period of one rate cycle in seconds.
        period_s: f64,
    },
    /// Flash-crowd burst: `base_rate` everywhere except the window
    /// `[start_s, start_s + duration_s)`, where the rate steps to
    /// `burst_rate`. The diurnal law models slow swings an autoscaler can
    /// track; a flash crowd is a step — the incident-scenario profile the
    /// failure layer ([`crate::failure`]) stresses recovery with.
    Burst {
        /// Rate outside the burst window, requests/second.
        base_rate: f64,
        /// Rate inside the burst window, requests/second.
        burst_rate: f64,
        /// Burst onset in seconds.
        start_s: f64,
        /// Burst length in seconds.
        duration_s: f64,
    },
}

impl RateProfile {
    /// Sinusoid amplitude giving a peak:trough rate ratio of `swing`.
    fn diurnal_amplitude(swing: f64) -> f64 {
        (swing - 1.0) / (swing + 1.0)
    }

    /// Instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match self {
            RateProfile::Constant(r) => *r,
            RateProfile::Piecewise(phases) => {
                let mut start = 0.0;
                for p in phases {
                    if t < start + p.duration_s {
                        return p.rate;
                    }
                    start += p.duration_s;
                }
                phases.last().expect("non-empty phases").rate
            }
            RateProfile::Diurnal {
                mean_rate,
                swing,
                period_s,
            } => {
                let a = Self::diurnal_amplitude(*swing);
                mean_rate * (1.0 + a * (2.0 * std::f64::consts::PI * t / period_s).sin())
            }
            RateProfile::Burst {
                base_rate,
                burst_rate,
                start_s,
                duration_s,
            } => {
                if t >= *start_s && t < *start_s + *duration_s {
                    *burst_rate
                } else {
                    *base_rate
                }
            }
        }
    }

    /// Cumulative expected arrivals `Λ(t) = ∫₀ᵗ rate(u) du`.
    pub fn cumulative(&self, t: f64) -> f64 {
        match self {
            RateProfile::Constant(r) => r * t,
            RateProfile::Piecewise(phases) => {
                let mut area = 0.0;
                let mut start = 0.0;
                for p in phases {
                    let end = start + p.duration_s;
                    if t <= end {
                        return area + p.rate * (t - start);
                    }
                    area += p.rate * p.duration_s;
                    start = end;
                }
                area + phases.last().expect("non-empty phases").rate * (t - start)
            }
            RateProfile::Diurnal {
                mean_rate,
                swing,
                period_s,
            } => {
                let a = Self::diurnal_amplitude(*swing);
                let omega = 2.0 * std::f64::consts::PI / period_s;
                mean_rate * (t + a / omega * (1.0 - (omega * t).cos()))
            }
            RateProfile::Burst {
                base_rate,
                burst_rate,
                start_s,
                duration_s,
            } => {
                // Base rate everywhere plus the burst surcharge over the
                // overlap of [0, t] with the burst window.
                let overlap = (t.min(start_s + duration_s) - start_s).clamp(0.0, *duration_s);
                base_rate * (t - overlap) + burst_rate * overlap
            }
        }
    }

    /// Inverse cumulative `Λ⁻¹(area)`: the time at which `area` expected
    /// arrivals have accumulated.
    fn invert(&self, area: f64) -> f64 {
        match self {
            RateProfile::Constant(r) => area / r,
            RateProfile::Piecewise(phases) => {
                let mut acc = 0.0;
                let mut start = 0.0;
                for p in phases {
                    let phase_area = p.rate * p.duration_s;
                    if area <= acc + phase_area {
                        return start + (area - acc) / p.rate;
                    }
                    acc += phase_area;
                    start += p.duration_s;
                }
                start + (area - acc) / phases.last().expect("non-empty phases").rate
            }
            RateProfile::Diurnal {
                mean_rate, swing, ..
            } => {
                // Λ is strictly increasing (the rate is positive
                // everywhere), so a bracketed bisection converges past f64
                // resolution and is bit-deterministic.
                let a = Self::diurnal_amplitude(*swing);
                let mut lo = 0.0f64;
                let mut hi = area / (mean_rate * (1.0 - a).max(1e-12)) + 1.0;
                while self.cumulative(hi) < area {
                    hi *= 2.0;
                }
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if self.cumulative(mid) < area {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            }
            RateProfile::Burst {
                base_rate,
                burst_rate,
                start_s,
                duration_s,
            } => {
                // Piecewise-linear Λ: pre-burst, burst, post-burst.
                let pre_area = base_rate * start_s;
                let burst_area = pre_area + burst_rate * duration_s;
                if area <= pre_area {
                    area / base_rate
                } else if area <= burst_area {
                    start_s + (area - pre_area) / burst_rate
                } else {
                    start_s + duration_s + (area - burst_area) / base_rate
                }
            }
        }
    }

    /// Panics unless the profile is well-formed (positive rates, positive
    /// finite durations/periods, finite `swing >= 1`).
    pub fn validate(&self) {
        match self {
            RateProfile::Constant(r) => assert!(*r > 0.0, "arrival rate must be positive"),
            RateProfile::Piecewise(phases) => {
                assert!(
                    !phases.is_empty(),
                    "piecewise profile needs at least one phase"
                );
                for p in phases {
                    assert!(p.rate > 0.0, "arrival rate must be positive");
                    assert!(
                        p.duration_s > 0.0 && p.duration_s.is_finite(),
                        "phase duration must be positive and finite"
                    );
                }
            }
            RateProfile::Diurnal {
                mean_rate,
                swing,
                period_s,
            } => {
                assert!(*mean_rate > 0.0, "arrival rate must be positive");
                assert!(
                    *swing >= 1.0 && swing.is_finite(),
                    "swing must be finite and >= 1"
                );
                assert!(
                    *period_s > 0.0 && period_s.is_finite(),
                    "period must be positive and finite"
                );
            }
            RateProfile::Burst {
                base_rate,
                burst_rate,
                start_s,
                duration_s,
            } => {
                assert!(*base_rate > 0.0, "arrival rate must be positive");
                assert!(*burst_rate > 0.0, "arrival rate must be positive");
                assert!(
                    *start_s >= 0.0 && start_s.is_finite(),
                    "burst start must be non-negative and finite"
                );
                assert!(
                    *duration_s > 0.0 && duration_s.is_finite(),
                    "burst duration must be positive and finite"
                );
            }
        }
    }
}

/// Nonstationary sibling of [`poisson_process`]: arrival times follow the
/// time-varying rate of `profile` by time-rescaling a unit-rate process.
///
/// The RNG stream structure is identical to [`poisson_process`] (one gap
/// draw, then the payload's draws, per request), so generators that share a
/// payload shape emit bit-identical arrival streams for the same
/// `(profile, n, seed)` — the nonstationary analogue of the
/// `poisson_trace`/`decode_trace` pinning.
///
/// # Panics
///
/// Panics if the profile is malformed (see [`RateProfile::validate`]) or
/// `num_requests == 0`.
pub fn nonstationary_poisson_process<T>(
    profile: &RateProfile,
    num_requests: usize,
    seed: u64,
    mut payload: impl FnMut(&mut SplitMix64, f64) -> T,
) -> Vec<T> {
    profile.validate();
    assert!(num_requests > 0, "num_requests must be >= 1");
    let mut rng = SplitMix64::new(seed);
    let mut trace = Vec::with_capacity(num_requests);
    let mut area = 0.0f64;
    let mut prev_t = 0.0f64;
    for _ in 0..num_requests {
        let u = rng.next_f64().max(1e-12);
        area += -u.ln();
        // Clamp to monotone: the numeric inversion is exact to f64
        // resolution but the simulators *require* sorted traces.
        let t = profile.invert(area).max(prev_t);
        prev_t = t;
        trace.push(payload(&mut rng, t));
    }
    trace
}

/// Generates a nonstationary Poisson arrival trace with lengths drawn from
/// `sampler` — [`poisson_trace`] under a time-varying [`RateProfile`].
///
/// # Panics
///
/// Panics if the profile is malformed or `num_requests == 0`.
pub fn nonstationary_poisson_trace<S: LengthSampler + ?Sized>(
    sampler: &S,
    profile: &RateProfile,
    num_requests: usize,
    seed: u64,
) -> Vec<Request> {
    let lengths = sampler.prepare();
    nonstationary_poisson_process(profile, num_requests, seed, |rng, t| Request {
        arrival_s: t,
        len: lengths.sample(rng),
    })
}

/// Per-shard batcher parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatcherConfig {
    /// Maximum time a batch waits after its first queued request. The batch
    /// dispatches earlier if the cap fills or, when the shard is busy past
    /// the window, as soon as the shard frees up.
    pub batch_window_s: f64,
    /// Maximum sequences per batch.
    pub max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            batch_window_s: 0.05,
            max_batch: 16,
        }
    }
}

/// How arriving requests are routed to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through shards in order, ignoring state.
    RoundRobin,
    /// Send to the shard with the fewest waiting + in-flight requests
    /// (lowest index breaks ties).
    JoinShortestQueue,
    /// Route by length: the shard whose tuned `s_avg` is the smallest one
    /// `>=` the request length (or the largest-tuned shard for over-long
    /// requests); join-shortest-queue among equally-tuned shards. Keeps
    /// short traffic off shards sized for long sequences and vice versa.
    LengthBinned,
}

impl DispatchPolicy {
    /// All dispatch policies, for sweeps.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::LengthBinned,
    ];
}

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPolicy::RoundRobin => write!(f, "round-robin"),
            DispatchPolicy::JoinShortestQueue => write!(f, "join-shortest-queue"),
            DispatchPolicy::LengthBinned => write!(f, "length-binned"),
        }
    }
}

/// One executed batch (diagnostics / regression tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Shard that executed the batch.
    pub shard: usize,
    /// Dispatch time in seconds.
    pub start_s: f64,
    /// Completion time in seconds.
    pub completion_s: f64,
    /// Sequences in the batch.
    pub size: usize,
}

/// Per-shard slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index within the fleet.
    pub shard: usize,
    /// The `s_avg` the shard's stage allocation was tuned for.
    pub tuned_length: usize,
    /// Requests completed on this shard.
    pub completed: usize,
    /// Batches executed.
    pub batches: usize,
    /// Mean formed batch size (0 if the shard never ran).
    pub mean_batch_size: f64,
    /// Busy time / fleet makespan.
    pub utilization: f64,
    /// Time-averaged number of waiting requests.
    pub mean_queue_depth: f64,
    /// Peak number of waiting requests.
    pub max_queue_depth: usize,
}

/// Result of a fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Requests completed. Always the trace length for the healthy
    /// fixed-membership fleet (conservation, asserted by
    /// [`simulate_fleet`]); under the failure layer, timed-out or
    /// outage-stranded requests are absent and accounted through client
    /// dispositions instead.
    pub completed: usize,
    /// Mean end-to-end latency (arrival → batch completion) in seconds.
    pub mean_latency_s: f64,
    /// Median latency.
    pub p50_latency_s: f64,
    /// 95th-percentile latency.
    pub p95_latency_s: f64,
    /// 99th-percentile latency.
    pub p99_latency_s: f64,
    /// Sustained throughput in sequences/second.
    pub throughput_seq_s: f64,
    /// Last batch completion time.
    pub makespan_s: f64,
    /// Mean formed batch size across the fleet.
    pub mean_batch_size: f64,
    /// Per-shard statistics.
    pub shards: Vec<ShardReport>,
    /// Every executed batch in dispatch order. Empty unless an Exact run
    /// is inside `with_batch_log`; a diagnostic that no other field is
    /// built from.
    pub batch_log: Vec<BatchRecord>,
}

/// Builds `n` clones of `design` — the homogeneous scaling fleet.
pub fn homogeneous_fleet(design: &AcceleratorDesign, n: usize) -> Vec<AcceleratorDesign> {
    assert!(n > 0, "fleet needs at least one shard");
    vec![design.clone(); n]
}

/// One event-queue entry kind, shared by the fleet and decode engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// Request index arrives and is routed to a shard.
    Arrival(usize),
    /// Shard finishes its in-flight batch (fleet) or iteration (decode).
    /// `epoch` pins the event to the shard state it was scheduled
    /// against; a crash or a mid-flight re-price bumps the shard epoch and
    /// the stale completion is ignored when it pops.
    Completion { shard: usize, epoch: u64 },
    /// Shard's batching window for head request expires (fleet only).
    WindowClose { shard: usize, head: usize },
    /// Controller callback; lowest same-instant priority so arrivals,
    /// completions and window closes settle first. The plain
    /// `simulate_*` entry points never schedule one.
    Control,
}

impl EventKind {
    /// Same-instant pop order: arrivals before completions before window
    /// closes before control callbacks, so same-instant arrivals join the
    /// closing batch exactly as the serial simulator admitted them.
    fn rank(self) -> u8 {
        match self {
            EventKind::Arrival(_) => 0,
            EventKind::Completion { .. } => 1,
            EventKind::WindowClose { .. } => 2,
            EventKind::Control => 3,
        }
    }
}

/// Heap entry shared by the fleet and decode engines; ordered by time, then
/// kind rank ([`EventKind::rank`]), then insertion order. The kind payload
/// never participates in the ordering.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) time: f64,
    pub(crate) rank: u8,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest event.
        let fwd = self
            .time
            .total_cmp(&other.time)
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq));
        fwd.reverse()
    }
}

/// A trace entry: anything with an arrival instant, so [`EventQueue`] can
/// synthesize trace arrival `r` instead of storing it.
pub(crate) trait TraceEvent {
    /// Arrival instant in seconds since simulation start.
    fn arrival_s(&self) -> f64;
}

impl TraceEvent for Request {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }
}

/// Panics unless `trace` is a non-empty, finite, non-negative and
/// time-sorted (under `total_cmp`) arrival trace, and `accepting` masks
/// `n_shards >= 1` shards with at least one accepting — the input checks
/// both cores share.
pub(crate) fn validate_run<R: TraceEvent>(n_shards: usize, trace: &[R], accepting: &[bool]) {
    assert!(n_shards > 0, "fleet needs at least one shard");
    assert!(!trace.is_empty(), "empty arrival trace");
    assert!(
        trace.iter().all(|r| {
            let t = r.arrival_s();
            t.is_finite() && t >= 0.0
        }),
        "arrival times must be finite and non-negative"
    );
    assert!(
        trace
            .windows(2)
            .all(|w| w[0].arrival_s().total_cmp(&w[1].arrival_s()).is_le()),
        "trace must be sorted by arrival time"
    );
    assert_eq!(accepting.len(), n_shards, "accepting mask length");
    assert!(
        accepting.iter().any(|&a| a),
        "at least one shard must accept work"
    );
}

/// The event queue shared by the fleet and decode engines. Trace arrivals
/// are read lazily through a cursor into the time-sorted trace, so the
/// heap holds only in-flight events (completions, window closes, control
/// callbacks, retry arrivals).
///
/// The pop order is that of a heap pre-seeded with every trace arrival:
/// trace arrival `r` carries rank 0 and the virtual seq `r`, pushed events
/// take seqs from `trace.len()` on, and each pop yields the earlier of the
/// cursor's arrival and the heap top under the `(time, rank, seq)` order.
/// So a trace arrival still pops before a retry arrival at the same
/// instant. This needs the trace sorted under `total_cmp`, which
/// [`validate_run`] asserts.
pub(crate) struct EventQueue<'a, R> {
    /// Trace arrivals not yet popped, in trace order.
    arrivals: std::slice::Iter<'a, R>,
    /// Trace index of the first entry of `arrivals`.
    next: usize,
    heap: BinaryHeap<Event>,
    /// Insertion-order tie-breaker of the next pushed event.
    seq: u64,
}

impl<R: TraceEvent> EventQueue<'_, R> {
    pub(crate) fn new(trace: &[R]) -> EventQueue<'_, R> {
        EventQueue {
            arrivals: trace.iter(),
            next: 0,
            heap: BinaryHeap::new(),
            seq: trace.len() as u64,
        }
    }

    /// Pushes an event and bumps the insertion-order tie-breaker.
    pub(crate) fn push(&mut self, time: f64, kind: EventKind) {
        self.heap.push(Event {
            time,
            rank: kind.rank(),
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Pushed events not yet popped; pending trace arrivals do not count.
    pub(crate) fn in_flight(&self) -> usize {
        self.heap.len()
    }

    /// The next event, and whether it is the cursor's trace arrival.
    fn front(&self) -> Option<(Event, bool)> {
        let arrival = self.arrivals.as_slice().first().map(|req| Event {
            time: req.arrival_s(),
            rank: 0,
            seq: self.next as u64,
            kind: EventKind::Arrival(self.next),
        });
        match (arrival, self.heap.peek()) {
            // `Event`'s order is reversed: the earlier event is the greater.
            (Some(a), Some(top)) if *top > a => Some((*top, false)),
            (Some(a), _) => Some((a, true)),
            (None, top) => top.map(|&e| (e, false)),
        }
    }

    /// The next event to pop, if any.
    pub(crate) fn peek(&self) -> Option<Event> {
        self.front().map(|(ev, _)| ev)
    }

    /// Pops the next event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let (ev, from_trace) = self.front()?;
        if from_trace {
            self.arrivals.next();
            self.next += 1;
        } else {
            self.heap.pop();
        }
        Some(ev)
    }
}

/// The per-shard books both cores keep, one name each: a batch here is a
/// fleet batch or a decode iteration. Service is charged at launch, so
/// `busy_time_s` holds the whole in-flight batch until it completes,
/// aborts or is re-priced.
#[derive(Default)]
pub(crate) struct ShardBook {
    pub(crate) queue: VecDeque<usize>,
    /// A batch is in flight (its [`EventKind::Completion`] is scheduled).
    pub(crate) busy: bool,
    /// Bumped whenever the scheduled completion becomes invalid (crash,
    /// straggler re-price); stale [`EventKind::Completion`] events carry
    /// the old epoch and are dropped.
    pub(crate) epoch: u64,
    pub(crate) busy_time_s: f64,
    /// Completion time of the in-flight batch (stale once `busy` drops).
    pub(crate) busy_until_s: f64,
    pub(crate) completed: usize,
    /// Batches launched (a fleet crash rolls its batch back out; a decode
    /// crash keeps its truncated iteration).
    pub(crate) batches: usize,
    /// Σ sizes of those batches (decode: live residents per iteration).
    pub(crate) batch_size_sum: usize,
    pub(crate) queue_integral: f64,
    pub(crate) max_queue_depth: usize,
    pub(crate) last_event_s: f64,
    /// The shard's stage-cost table: every batch or iteration it launches
    /// is priced through it.
    pub(crate) costs: StageCostTable,
}

impl ShardBook {
    /// Advances the queue-depth integral to `now` (call before mutating).
    pub(crate) fn tick(&mut self, now: f64) {
        self.queue_integral += self.queue.len() as f64 * (now - self.last_event_s);
        self.last_event_s = now;
    }

    /// Queues request `r` at `now`.
    pub(crate) fn enqueue(&mut self, r: usize, now: f64) {
        self.tick(now);
        self.queue.push_back(r);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }

    /// Busy time actually *elapsed* by `t`: the in-flight batch's
    /// not-yet-elapsed tail clipped off the charge-at-launch lump.
    fn busy_elapsed(&self, t: f64) -> f64 {
        self.busy_time_s
            - if self.busy {
                (self.busy_until_s - t).max(0.0)
            } else {
                0.0
            }
    }

    /// Charges a batch of `size` launched at `now` for `cost` seconds and
    /// returns its completion time.
    pub(crate) fn launch(&mut self, now: f64, cost: f64, size: usize) -> f64 {
        let done = now + cost;
        self.busy = true;
        self.busy_time_s += cost;
        self.busy_until_s = done;
        self.batches += 1;
        self.batch_size_sum += size;
        done
    }

    /// The in-flight batch completed at `now`.
    pub(crate) fn finish(&mut self, now: f64) {
        self.tick(now);
        self.busy = false;
    }

    /// Scales the in-flight batch's unexecuted remainder by `scale` and
    /// bumps the epoch; returns the change in remaining time. The new
    /// completion time is `busy_until_s`.
    pub(crate) fn reprice(&mut self, scale: f64, now: f64) -> f64 {
        let remaining = (self.busy_until_s - now).max(0.0);
        let new_remaining = remaining * scale;
        self.busy_time_s += new_remaining - remaining;
        self.busy_until_s = now + new_remaining;
        self.epoch += 1;
        new_remaining - remaining
    }

    /// Aborts the in-flight batch at `now` (crash): the destroyed tail
    /// never counts as busy time, and the epoch bumps so the scheduled
    /// completion is dropped. Returns the tail's length.
    pub(crate) fn abort(&mut self, now: f64) -> f64 {
        let remaining = (self.busy_until_s - now).max(0.0);
        self.busy = false;
        self.epoch += 1;
        self.busy_time_s -= remaining;
        self.busy_until_s = now;
        remaining
    }
}

/// Σ over `books` of busy time elapsed by `t`. Window deltas of this
/// integral are exact even when service times span many controller
/// evaluation windows.
pub(crate) fn busy_elapsed<'b>(books: impl Iterator<Item = &'b ShardBook>, t: f64) -> f64 {
    books.map(|b| b.busy_elapsed(t)).sum()
}

/// Count, mean and p50/p95/p99 of one exact latency sample, all zero
/// when empty. Takes the sample by value so it is freed here.
pub(crate) fn summarize_sample(xs: Vec<f64>) -> (usize, f64, Vec<f64>) {
    // One sort for all three percentiles (bit-identical to per-call
    // `percentile`, which re-sorted the sample each time).
    let pcts = percentiles(&xs, &[0.50, 0.95, 0.99]).unwrap_or_else(|| vec![0.0; 3]);
    let mean = if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    (xs.len(), mean, pcts)
}

/// [`summarize_sample`] of the exact sample under [`ReportMode::Exact`]
/// (`exact` is called only then), the sketch's estimates under
/// [`ReportMode::Streaming`].
pub(crate) fn summarize(
    mode: ReportMode,
    exact: impl FnOnce() -> Vec<f64>,
    sketch: &QuantileSketch,
) -> (usize, f64, Vec<f64>) {
    match mode {
        ReportMode::Exact => summarize_sample(exact()),
        ReportMode::Streaming if sketch.count() == 0 => (0, 0.0, vec![0.0; 3]),
        ReportMode::Streaming => (sketch.count() as usize, sketch.mean(), sketch.quantiles()),
    }
}

thread_local! {
    /// Whether a [`ReportBook`] built on this thread keeps a batch log;
    /// set only by [`with_batch_log`].
    static BATCH_LOG: Cell<bool> = const { Cell::new(false) };
}

/// Runs `run` with the batch log switched on: every Exact report an
/// engine builds inside it, on this thread, carries
/// [`FleetReport::batch_log`]. Outside it the log is never grown and
/// comes back empty; no other report field depends on the switch.
///
/// The switch is per thread, so a pool worker must enter the scope
/// itself. It is restored on exit, also when `run` panics, so scopes
/// nest.
///
/// A test seam, hidden from the docs: nothing outside tests and the
/// ablations' equality asserts reads the log. It goes, with the field,
/// once the benchmark stops hashing the log.
#[doc(hidden)]
pub fn with_batch_log<R>(run: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            // `try_with`: a drop must not panic, even in thread teardown.
            let _ = BATCH_LOG.try_with(|on| on.set(self.0));
        }
    }
    let _restore = Restore(BATCH_LOG.with(|on| on.replace(true)));
    run()
}

/// The report half both cores keep, and the one [`FleetReport`] builder.
pub(crate) struct ReportBook {
    /// Report construction mode; only the plain fleet sets it, so
    /// `DecodeCore` always reports Exact. Under [`ReportMode::Streaming`]
    /// completed latencies feed `lat_sketch` as they complete, so memory
    /// stays bounded for million-request traces.
    pub(crate) mode: ReportMode,
    /// Every launched batch (decode: iteration) in launch order; `Some`
    /// only for an Exact book built inside [`with_batch_log`]. The engines
    /// only write it, so no other report field depends on it.
    log: Option<Vec<BatchRecord>>,
    lat_sketch: QuantileSketch,
    /// Running max of final completion times: valid completion pops plus
    /// decode's crash truncations. Order-free, so one value for both modes.
    makespan_s: f64,
}

impl ReportBook {
    pub(crate) fn new() -> Self {
        Self {
            mode: ReportMode::Exact,
            log: BATCH_LOG.with(Cell::get).then(Vec::new),
            lat_sketch: QuantileSketch::p50_p95_p99(),
            makespan_s: 0.0,
        }
    }

    /// Logs a launched batch (only inside [`with_batch_log`]).
    pub(crate) fn log_batch(&mut self, rec: BatchRecord) {
        if let Some(log) = &mut self.log {
            log.push(rec);
        }
    }

    /// Shard `s`'s latest logged batch (`None` when nothing is logged).
    pub(crate) fn last_of(&mut self, s: usize) -> Option<&mut BatchRecord> {
        self.log.as_mut()?.iter_mut().rev().find(|b| b.shard == s)
    }

    /// Drops shard `s`'s latest logged batch (a rolled-back crash).
    pub(crate) fn unlog_last_of(&mut self, s: usize) {
        if let Some(log) = &mut self.log {
            if let Some(i) = log.iter().rposition(|b| b.shard == s) {
                log.remove(i);
            }
        }
    }

    /// A batch's final completion time.
    pub(crate) fn end_at(&mut self, t: f64) {
        self.makespan_s = self.makespan_s.max(t);
    }

    /// A completed request's latency (sketched under Streaming; Exact
    /// reads it back from the completion times at report time).
    pub(crate) fn observe(&mut self, latency: f64) {
        if self.mode == ReportMode::Streaming {
            self.lat_sketch.observe(latency);
        }
    }

    /// Builds the [`FleetReport`]: latencies are the finite `completion_s`
    /// entries less their arrivals in trace order (Exact) or the sketch
    /// (Streaming); batch counts and sizes come from the shard books, not
    /// from the completed population.
    ///
    /// Requests that never completed (timed out, lost to an unrecovered
    /// outage) are simply absent from the latency population: the report
    /// is well-defined all the way down to zero completions, with zeroed
    /// NaN-free percentiles. Conservation is the *caller's* invariant.
    pub(crate) fn into_report<'b, R: TraceEvent>(
        self,
        trace: &[R],
        completion_s: &[f64],
        designs: &[AcceleratorDesign],
        books: impl Iterator<Item = &'b ShardBook> + Clone,
    ) -> FleetReport {
        let makespan = self.makespan_s;
        let exact = || {
            completion_s
                .iter()
                .zip(trace)
                .filter(|(c, _)| c.is_finite())
                .map(|(&c, req)| c - req.arrival_s())
                .collect()
        };
        let (completed, mean_latency, lat_pcts) = summarize(self.mode, exact, &self.lat_sketch);
        let total_batches: usize = books.clone().map(|b| b.batches).sum();
        let total_batch_size: usize = books.clone().map(|b| b.batch_size_sum).sum();
        let shards = books
            .enumerate()
            .map(|(i, b)| ShardReport {
                shard: i,
                tuned_length: designs[i].tuned_length(),
                completed: b.completed,
                batches: b.batches,
                mean_batch_size: if b.batches == 0 {
                    0.0
                } else {
                    b.batch_size_sum as f64 / b.batches as f64
                },
                utilization: b.busy_time_s / makespan.max(1e-12),
                mean_queue_depth: b.queue_integral / makespan.max(1e-12),
                max_queue_depth: b.max_queue_depth,
            })
            .collect();
        FleetReport {
            completed,
            mean_latency_s: mean_latency,
            p50_latency_s: lat_pcts[0],
            p95_latency_s: lat_pcts[1],
            p99_latency_s: lat_pcts[2],
            throughput_seq_s: completed as f64 / makespan.max(1e-12),
            makespan_s: makespan,
            mean_batch_size: if total_batches == 0 {
                0.0
            } else {
                total_batch_size as f64 / total_batches as f64
            },
            shards,
            batch_log: self.log.unwrap_or_default(),
        }
    }
}

#[derive(Default)]
pub(crate) struct ShardState {
    pub(crate) book: ShardBook,
    /// Request indices of the in-flight batch (empty while idle). The
    /// failure layer needs the members, not just the count, to re-route a
    /// crashed shard's batch.
    pub(crate) inflight: Vec<usize>,
    /// Head request a window-close event is already scheduled for
    /// (request indices are unique, so this dedup is safe for the run).
    pub(crate) window_scheduled_for: Option<usize>,
}

impl ShardState {
    /// Waiting + in-flight requests — the load metric JSQ balances.
    pub(crate) fn load(&self) -> usize {
        self.book.queue.len() + self.inflight.len()
    }
}

/// Hooks a controller drives the engine through;
/// [`simulate_fleet`] runs with the no-op [`NullController`], the
/// autoscaler ([`crate::autoscale`]) with a policy-driven one.
pub(crate) trait FleetController {
    /// A control event scheduled via [`FleetCore::schedule_control`] fired.
    fn on_control(&mut self, _core: &mut FleetCore<'_>, _now: f64) {}
    /// A shard finished a batch (called after its queue re-dispatched).
    fn after_completion(&mut self, _core: &mut FleetCore<'_>, _shard: usize, _now: f64) {}
    /// The failure layer crashed `shard` (already marked dead and not
    /// accepting; its orphaned work is re-admitted by the caller). Lets an
    /// autoscaling controller close the shard's cost books and stop
    /// counting it as capacity.
    fn on_shard_down(&mut self, _core: &mut FleetCore<'_>, _shard: usize, _now: f64) {}
    /// The failure layer revived `shard`. The default is a plain rejoin:
    /// the shard starts accepting routed work immediately. An autoscaling
    /// controller overrides this to put the shard back through its normal
    /// launch/warm-up path instead.
    fn on_shard_up(&mut self, core: &mut FleetCore<'_>, shard: usize, _now: f64) {
        core.accepting[shard] = true;
    }
}

/// Controller that never intervenes — the fixed-membership fleet.
pub(crate) struct NullController;

impl FleetController for NullController {}

/// The fleet engine's mutable core, shared by [`simulate_fleet`] (fixed
/// membership, no control events) and
/// [`crate::autoscale::simulate_autoscale`] (runtime shard join/retire):
/// per-shard queues, the event queue, and dispatch bookkeeping.
///
/// `accepting[s]` gates *routing only* — a shard that stops accepting
/// still drains its own queue through the normal window/cap machinery,
/// which is exactly the drain-on-retire semantics the autoscaler needs.
pub(crate) struct FleetCore<'a> {
    pub(crate) shards: &'a [AcceleratorDesign],
    pub(crate) trace: &'a [Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    cfg: &'a BatcherConfig,
    pub(crate) state: Vec<ShardState>,
    pub(crate) accepting: Vec<bool>,
    /// Crashed shards ([`FleetCore::crash_shard`]): routing skips them and
    /// `try_dispatch` refuses to launch batches on them until revived.
    pub(crate) dead: Vec<bool>,
    /// Per-shard service-time multiplier (1.0 = healthy). Applied at
    /// dispatch; [`FleetCore::set_slowdown`] also re-prices an in-flight
    /// batch. Multiplying by exactly 1.0 is an IEEE identity, so healthy
    /// runs stay bit-identical to the pre-failure-layer engine.
    pub(crate) slowdown: Vec<f64>,
    /// Requests that arrived while no shard was accepting (total outage).
    /// The failure layer re-admits them when capacity returns; the
    /// fixed-membership engines never park (they always accept).
    pub(crate) parked: Vec<usize>,
    /// Requests permanently given up on by a client layer (timed out with
    /// an exhausted retry budget). Termination and conservation checks
    /// count `completed() + abandoned` against the trace length.
    pub(crate) abandoned: usize,
    events: EventQueue<'a, Request>,
    rr_next: usize,
    /// Scratch for the lengths of the batch being priced.
    lengths: Vec<usize>,
    pub(crate) completion_s: Vec<f64>,
    /// Trace arrivals processed so far — the RNG-free, wall-clock-free
    /// observation stream predictive scaling policies consume (re-routed
    /// work is not re-counted).
    pub(crate) arrivals_seen: usize,
    report: ReportBook,
    /// Events popped off the queue (all modes; cheap counter for
    /// events/second scaling benches).
    pub(crate) events_processed: u64,
    /// Peak in-flight event population ([`EventQueue::in_flight`]),
    /// tracked engine-side because the workspace forbids a counting
    /// global allocator (`unsafe_code = "forbid"`).
    pub(crate) peak_heap_events: usize,
}

impl<'a> FleetCore<'a> {
    /// Validates the inputs. Trace arrivals are not queued up front: the
    /// [`EventQueue`] reads them from `trace` as the run reaches them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `trace` is empty, `cfg.max_batch == 0`,
    /// `cfg.batch_window_s < 0`, the trace is unsorted / non-finite, or
    /// `accepting` has the wrong length / no accepting shard.
    pub(crate) fn new(
        shards: &'a [AcceleratorDesign],
        trace: &'a [Request],
        policy: SchedulingPolicy,
        dispatch: DispatchPolicy,
        cfg: &'a BatcherConfig,
        accepting: Vec<bool>,
    ) -> Self {
        validate_run(shards.len(), trace, &accepting);
        assert!(cfg.max_batch > 0, "max_batch must be >= 1");
        assert!(cfg.batch_window_s >= 0.0, "negative batch window");

        Self {
            shards,
            trace,
            policy,
            dispatch,
            cfg,
            state: (0..shards.len()).map(|_| ShardState::default()).collect(),
            accepting,
            dead: vec![false; shards.len()],
            slowdown: vec![1.0; shards.len()],
            parked: Vec::new(),
            abandoned: 0,
            events: EventQueue::new(trace),
            rr_next: 0,
            lengths: Vec::new(),
            completion_s: vec![f64::NAN; trace.len()],
            arrivals_seen: 0,
            report: ReportBook::new(),
            events_processed: 0,
            peak_heap_events: 0,
        }
    }

    /// Switches the report mode. Call before [`FleetCore::run`]: under
    /// [`ReportMode::Streaming`] the batch log is dropped, even inside
    /// [`with_batch_log`], and latencies stream into the sketch as
    /// completions pop, so memory stays bounded.
    pub(crate) fn set_mode(&mut self, mode: ReportMode) {
        self.report.mode = mode;
        if mode == ReportMode::Streaming {
            self.report.log = None;
        }
    }

    /// Schedules a [`FleetController::on_control`] callback at `time`.
    pub(crate) fn schedule_control(&mut self, time: f64) {
        self.events.push(time, EventKind::Control);
    }

    /// Requests completed so far across the fleet.
    pub(crate) fn completed(&self) -> usize {
        self.state.iter().map(|st| st.book.completed).sum()
    }

    /// Routes request `r` among accepting shards and queues it; returns
    /// the destination shard, or `None` if no shard is accepting (total
    /// outage), in which case the request is parked until the failure
    /// layer re-admits it.
    pub(crate) fn admit(&mut self, r: usize, now: f64) -> Option<usize> {
        if !self.accepting.iter().any(|&a| a) {
            self.parked.push(r);
            return None;
        }
        let s = {
            let accepting = &self.accepting;
            let state = &self.state;
            route(
                self.dispatch,
                self.shards,
                &|i| accepting[i],
                &|i| state[i].load(),
                self.trace[r].len,
                &mut self.rr_next,
            )
        };
        self.state[s].book.enqueue(r, now);
        Some(s)
    }

    /// Dispatches the shard's next batch if one is ready (shard idle AND
    /// cap full or window expired); otherwise schedules the window close.
    pub(crate) fn try_dispatch(&mut self, s: usize, now: f64) {
        let st = &mut self.state[s];
        if self.dead[s] || st.book.busy || st.book.queue.is_empty() {
            return;
        }
        let head = *st.book.queue.front().expect("non-empty queue");
        let window_close = self.trace[head].arrival_s + self.cfg.batch_window_s;
        if st.book.queue.len() >= self.cfg.max_batch || now >= window_close {
            let take = self.cfg.max_batch.min(st.book.queue.len());
            self.lengths.clear();
            self.lengths
                .extend(st.book.queue.iter().take(take).map(|&r| self.trace[r].len));
            let service =
                st.book
                    .costs
                    .service_seconds(&self.shards[s], &self.lengths, self.policy)
                    * self.slowdown[s];
            let completion = st.book.launch(now, service, take);
            for _ in 0..take {
                let r = st.book.queue.pop_front().expect("counted above");
                self.completion_s[r] = completion;
                st.inflight.push(r);
            }
            st.book.completed += take;
            st.window_scheduled_for = None;
            let epoch = st.book.epoch;
            self.report.log_batch(BatchRecord {
                shard: s,
                start_s: now,
                completion_s: completion,
                size: take,
            });
            self.events
                .push(completion, EventKind::Completion { shard: s, epoch });
        } else if st.window_scheduled_for != Some(head) {
            st.window_scheduled_for = Some(head);
            self.events
                .push(window_close, EventKind::WindowClose { shard: s, head });
        }
    }

    /// Routes `requests` in order, then dispatches on every shard that
    /// received one ([`route_then_kick`]) — how crash orphans, parked
    /// outage work and an evicting retire's queue re-enter the fleet.
    /// With no shard accepting, the requests park again.
    pub(crate) fn readmit(&mut self, requests: Vec<usize>, now: f64) {
        route_then_kick(
            self,
            requests,
            |core, r| core.admit(r, now),
            |core, s| core.try_dispatch(s, now),
        );
    }

    /// Runs the event loop to completion, calling `ctl`'s hooks.
    pub(crate) fn run<C: FleetController>(&mut self, ctl: &mut C) {
        // Shards an arrival burst queued work on; reused across bursts.
        let mut touched = Vec::new();
        loop {
            self.peak_heap_events = self.peak_heap_events.max(self.events.in_flight());
            let Some(ev) = self.events.pop() else { break };
            self.events_processed += 1;
            let now = ev.time;
            match ev.kind {
                EventKind::Arrival(r) => {
                    // Admit ALL same-instant arrivals before any dispatch
                    // decision, so a zero (or exactly-elapsed) window can't
                    // split a simultaneous burst that the serial batcher
                    // would have admitted into one batch. Arrivals rank
                    // first among same-instant events, so ties are
                    // contiguous in pop order.
                    self.arrivals_seen += 1;
                    if let Some(s) = self.admit(r, now) {
                        touched.push(s);
                    }
                    while let Some(next) = self.events.peek() {
                        match next.kind {
                            EventKind::Arrival(r2) if next.time == now => {
                                self.events.pop();
                                self.events_processed += 1;
                                self.arrivals_seen += 1;
                                if let Some(s) = self.admit(r2, now) {
                                    if !touched.contains(&s) {
                                        touched.push(s);
                                    }
                                }
                            }
                            _ => break,
                        }
                    }
                    for s in touched.drain(..) {
                        self.try_dispatch(s, now);
                    }
                }
                EventKind::Completion { shard: s, epoch } => {
                    // Stale if the shard crashed or was re-priced after
                    // this event was scheduled.
                    if epoch != self.state[s].book.epoch {
                        continue;
                    }
                    self.state[s].book.finish(now);
                    // Crash rollbacks never reach this point (stale
                    // epoch), so each completed request is observed
                    // exactly once, with the latency Exact reads from
                    // `completion_s`.
                    for &r in &self.state[s].inflight {
                        self.report.observe(now - self.trace[r].arrival_s);
                    }
                    self.report.end_at(now);
                    self.state[s].inflight.clear();
                    self.try_dispatch(s, now);
                    ctl.after_completion(self, s, now);
                }
                EventKind::WindowClose { shard: s, head } => {
                    // Stale if the head batch already dispatched (cap fill
                    // or a busy shard draining past the window).
                    let book = &mut self.state[s].book;
                    if !book.busy && book.queue.front() == Some(&head) {
                        book.tick(now);
                        self.try_dispatch(s, now);
                    }
                }
                EventKind::Control => ctl.on_control(self, now),
            }
        }
    }

    /// Assembles the [`FleetReport`] after the queue drained
    /// ([`ReportBook::into_report`]). Conservation
    /// (`completed == trace.len()`) is the *caller's* invariant —
    /// [`simulate_fleet`] asserts it because a fixed healthy fleet must
    /// complete everything; the failure layer accounts for the shortfall
    /// through client dispositions instead.
    pub(crate) fn into_report(self) -> FleetReport {
        let books = self.state.iter().map(|st| &st.book);
        self.report
            .into_report(self.trace, &self.completion_s, self.shards, books)
    }
}

/// The fleet core under the failure layer's fault injector.
impl FaultTarget for FleetCore<'_> {
    fn schedule_control(&mut self, time: f64) {
        FleetCore::schedule_control(self, time);
    }

    /// Crashes shard `s` at `now`: marks it dead and non-accepting, drains
    /// its queue, and — if a batch was in flight — unwinds the
    /// charge-at-dispatch bookkeeping (completion times back to NaN,
    /// `completed`/`busy_time_s`/batch log rolled back) and bumps the
    /// shard epoch so the scheduled completion event is dropped. Returns
    /// every orphaned request (queued + in-flight) for the caller to
    /// re-admit elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if the shard is already dead.
    fn crash_shard(&mut self, s: usize, now: f64) -> Vec<usize> {
        assert!(!self.dead[s], "shard crashed twice");
        self.dead[s] = true;
        self.accepting[s] = false;
        let st = &mut self.state[s];
        st.book.tick(now);
        let mut orphans: Vec<usize> = st.book.queue.drain(..).collect();
        st.window_scheduled_for = None;
        if st.book.busy {
            // Work a crash destroys never counts as busy time, and the
            // rolled-back batch leaves the books entirely.
            st.book.abort(now);
            let take = st.inflight.len();
            st.book.completed -= take;
            st.book.batches -= 1;
            st.book.batch_size_sum -= take;
            for &r in &st.inflight {
                self.completion_s[r] = f64::NAN;
            }
            orphans.append(&mut st.inflight);
            self.report.unlog_last_of(s);
        }
        orphans
    }

    /// Brings a crashed shard back. Routing eligibility is the
    /// controller's call ([`FleetController::on_shard_up`]), not this
    /// method's: a plain fleet rejoins immediately, an autoscaled one
    /// relaunches through warm-up.
    fn revive_shard(&mut self, s: usize) {
        assert!(self.dead[s], "revived a live shard");
        self.dead[s] = false;
    }

    /// Sets shard `s`'s service-time multiplier (straggler ×`factor`,
    /// recovery back to 1.0). An in-flight batch is re-priced on the fly:
    /// its unexecuted remainder is scaled by `factor / old`, the shard
    /// epoch bumps so the stale completion event is dropped, and a new one
    /// is scheduled at the re-priced completion time.
    fn set_slowdown(&mut self, s: usize, factor: f64, now: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown factor must be positive and finite"
        );
        let old = self.slowdown[s];
        self.slowdown[s] = factor;
        let st = &mut self.state[s];
        if factor == old || !st.book.busy {
            return;
        }
        st.book.reprice(factor / old, now);
        let (completion, epoch) = (st.book.busy_until_s, st.book.epoch);
        for &r in &st.inflight {
            self.completion_s[r] = completion;
        }
        if let Some(rec) = self.report.last_of(s) {
            rec.completion_s = completion;
        }
        self.events
            .push(completion, EventKind::Completion { shard: s, epoch });
    }

    /// Schedules an arrival event for request `r` at `time` — the re-entry
    /// path for client retries. The event is indistinguishable from a
    /// trace arrival when it pops, so it re-counts in `arrivals_seen`
    /// (a retry *is* offered load, and forecasters should see it).
    fn schedule_arrival(&mut self, r: usize, time: f64) {
        self.events.push(time, EventKind::Arrival(r));
    }

    /// Removes request `r` from wherever it is waiting (parked or queued)
    /// so a client layer can retry or abandon it. Returns `false` if the
    /// request is not waiting — already dispatched (its completion time is
    /// finite under charge-at-dispatch) or never admitted.
    fn cancel_waiting(&mut self, r: usize, now: f64) -> bool {
        if self.completion_s[r].is_finite() {
            return false;
        }
        if let Some(i) = self.parked.iter().position(|&x| x == r) {
            self.parked.remove(i);
            return true;
        }
        for s in 0..self.state.len() {
            let st = &mut self.state[s];
            if let Some(i) = st.book.queue.iter().position(|&x| x == r) {
                st.book.tick(now);
                st.book.queue.remove(i);
                // The head (and so the window-close time) may have
                // changed; let try_dispatch reschedule for the new head.
                st.window_scheduled_for = None;
                self.try_dispatch(s, now);
                return true;
            }
        }
        false
    }

    fn arrival_s(&self, r: usize) -> f64 {
        self.trace[r].arrival_s
    }

    fn abandoned(&mut self) -> &mut usize {
        &mut self.abandoned
    }
}

/// Simulates `trace` over a fleet of `shards`, each batching with `cfg` and
/// executing under `policy`, requests routed by `dispatch`.
///
/// Every request completes exactly once; the returned latencies are
/// arrival → completion of the batch containing the request.
///
/// # Panics
///
/// Panics if `shards` or `trace` is empty, `cfg.max_batch == 0`,
/// `cfg.batch_window_s < 0`, or the trace is unsorted / non-finite.
pub fn simulate_fleet(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    cfg: &BatcherConfig,
) -> FleetReport {
    simulate_fleet_instrumented(shards, trace, policy, dispatch, cfg, ReportMode::Exact).0
}

/// Engine-side run-size counters for scaling benches. Kept out of
/// [`FleetReport`] so exact-mode reports stay bit-identical across PRs;
/// the workspace forbids `unsafe` code, so a counting global allocator is
/// off the table and peak memory is tracked structurally instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetRunStats {
    /// Events popped off the queue (arrivals, completions, window closes,
    /// control callbacks).
    pub events_processed: u64,
    /// Peak event-heap population. Trace arrivals are read from the trace
    /// as the run reaches them, so this counts only in-flight events
    /// (completions, window closes, control callbacks, retry arrivals):
    /// it follows the work in flight, not the trace length.
    pub peak_heap_events: usize,
    /// Per-request latency samples retained at report time (0 under
    /// [`ReportMode::Streaming`]).
    pub retained_latency_samples: usize,
    /// Batch records retained in the report's log: 0 under
    /// [`ReportMode::Streaming`], and under Exact unless run inside
    /// `with_batch_log`.
    pub retained_batch_records: usize,
}

impl FleetRunStats {
    /// Rough peak-allocation proxy in bytes: the event heap's peak plus
    /// the retained report populations. Deterministic (no allocator
    /// introspection), so scaling trajectories can compare it PR-over-PR.
    pub fn peak_tracked_bytes(&self) -> u64 {
        let event = std::mem::size_of::<Event>() as u64;
        let f64s = std::mem::size_of::<f64>() as u64;
        let rec = std::mem::size_of::<BatchRecord>() as u64;
        self.peak_heap_events as u64 * event
            + self.retained_latency_samples as u64 * f64s
            + self.retained_batch_records as u64 * rec
    }
}

/// [`simulate_fleet`] with an explicit [`ReportMode`], returning the
/// run-size counters alongside the report — the one streaming entry point.
///
/// `Exact` is [`simulate_fleet`] verbatim. `Streaming` runs the identical
/// event sequence but feeds each completed latency into a log-linear
/// histogram sketch as its completion event pops, so a million-request
/// trace runs in bounded memory: the report's percentiles are within 2⁻⁷
/// relative of `Exact`'s for latencies from 1e-12 s to 1e9 s, its mean
/// differs by rounding only, and everything else — makespan, throughput,
/// batch-size means, per-shard stats — is bit-identical to `Exact`. Its
/// `batch_log` is always empty; `Exact`'s is empty unless run inside
/// `with_batch_log`.
///
/// # Panics
///
/// Same input panics as [`simulate_fleet`], plus the same conservation
/// assert (every request completes exactly once).
pub fn simulate_fleet_instrumented(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    cfg: &BatcherConfig,
    mode: ReportMode,
) -> (FleetReport, FleetRunStats) {
    let mut core = FleetCore::new(
        shards,
        trace,
        policy,
        dispatch,
        cfg,
        vec![true; shards.len()],
    );
    core.set_mode(mode);
    core.run(&mut NullController);
    let events_processed = core.events_processed;
    let peak_heap_events = core.peak_heap_events;
    let report = core.into_report();
    assert_eq!(
        report.completed,
        trace.len(),
        "request never completed (conservation bug in the healthy fleet)"
    );
    let stats = FleetRunStats {
        events_processed,
        peak_heap_events,
        retained_latency_samples: match mode {
            ReportMode::Exact => report.completed,
            ReportMode::Streaming => 0,
        },
        retained_batch_records: report.batch_log.len(),
    };
    (report, stats)
}

/// Picks the destination shard for a request of length `len` — shared by
/// the encoder fleet, the autoscaler, and the decode engine, which only
/// differ in how they measure per-shard load (`load(i)` = waiting +
/// in-flight requests) and in which shards accept routed work
/// (`accepting(i)`; the fixed-membership engines accept everywhere).
///
/// # Panics
///
/// Panics if no shard accepts.
pub(crate) fn route(
    dispatch: DispatchPolicy,
    shards: &[AcceleratorDesign],
    accepting: &dyn Fn(usize) -> bool,
    load: &dyn Fn(usize) -> usize,
    len: usize,
    rr_next: &mut usize,
) -> usize {
    match dispatch {
        DispatchPolicy::RoundRobin => {
            for _ in 0..shards.len() {
                let s = *rr_next % shards.len();
                *rr_next += 1;
                if accepting(s) {
                    return s;
                }
            }
            panic!("at least one accepting shard")
        }
        DispatchPolicy::JoinShortestQueue => {
            least_loaded(load, (0..shards.len()).filter(|&i| accepting(i)))
        }
        DispatchPolicy::LengthBinned => {
            let target = (0..shards.len())
                .filter(|&i| accepting(i))
                .map(|i| shards[i].tuned_length())
                .filter(|&t| t >= len)
                .min()
                .unwrap_or_else(|| {
                    (0..shards.len())
                        .filter(|&i| accepting(i))
                        .map(|i| shards[i].tuned_length())
                        .max()
                        .expect("at least one accepting shard")
                });
            least_loaded(
                load,
                (0..shards.len()).filter(|&i| accepting(i) && shards[i].tuned_length() == target),
            )
        }
    }
}

/// Routes `requests` in order through `route`, then kicks each shard
/// that received one through `kick`, in first-touch order — the
/// re-admission idiom both cores and the disaggregated handoff share.
/// `route` may decline a request (the fleet parks it in a total outage).
pub(crate) fn route_then_kick<T>(
    core: &mut T,
    requests: Vec<usize>,
    mut route: impl FnMut(&mut T, usize) -> Option<usize>,
    mut kick: impl FnMut(&mut T, usize),
) {
    let mut touched = Vec::new();
    for r in requests {
        if let Some(s) = route(core, r) {
            if !touched.contains(&s) {
                touched.push(s);
            }
        }
    }
    for s in touched {
        kick(core, s);
    }
}

fn least_loaded(load: &dyn Fn(usize) -> usize, candidates: impl Iterator<Item = usize>) -> usize {
    candidates
        .min_by_key(|&i| (load(i), i))
        .expect("at least one candidate shard")
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn burst(n: usize, at: f64, len: usize) -> Vec<Request> {
        vec![Request { arrival_s: at, len }; n]
    }

    /// Round-robin scans one lap for an accepting shard, then panics
    /// like the other policies instead of spinning forever.
    #[test]
    #[should_panic(expected = "at least one accepting shard")]
    fn round_robin_with_no_accepting_shard_panics() {
        let shards = homogeneous_fleet(&tiny_design(64), 3);
        let mut rr_next = 0;
        route(
            DispatchPolicy::RoundRobin,
            &shards,
            &|_| false,
            &|_| 0,
            64,
            &mut rr_next,
        );
    }

    /// With some shard accepting, one lap lands where the unbounded scan
    /// did: the next accepting shard, with the cursor just past it.
    #[test]
    fn round_robin_skips_to_the_next_accepting_shard() {
        let shards = homogeneous_fleet(&tiny_design(64), 4);
        let mut rr_next = 5;
        let s = route(
            DispatchPolicy::RoundRobin,
            &shards,
            &|i| i == 0,
            &|_| 0,
            64,
            &mut rr_next,
        );
        assert_eq!((s, rr_next), (0, 9));
    }

    #[test]
    fn cap_fill_dispatches_at_arrival_not_window_close() {
        // The stall bug: 2×max_batch simultaneous arrivals must start the
        // first batch at the arrival instant, not batch_window_s later.
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let cfg = BatcherConfig {
            batch_window_s: 0.5,
            max_batch: 8,
        };
        let trace = burst(16, 0.25, 64);
        let r = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &cfg,
            )
        });
        assert_eq!(r.batch_log.len(), 2);
        assert_eq!(r.batch_log[0].size, 8);
        assert_eq!(
            r.batch_log[0].start_s, 0.25,
            "full batch stalled until the window closed"
        );
        // The second batch is also already full: it starts the moment the
        // shard frees up.
        assert_eq!(r.batch_log[1].start_s, r.batch_log[0].completion_s);
        assert_eq!(r.completed, 16);
    }

    #[test]
    fn zero_window_keeps_simultaneous_burst_in_one_batch() {
        // With batch_window_s = 0 the dispatch condition is met the moment
        // the first arrival lands; same-instant arrivals must still be
        // admitted into that batch, not split into singletons.
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let cfg = BatcherConfig {
            batch_window_s: 0.0,
            max_batch: 16,
        };
        let trace = burst(6, 0.5, 64);
        let r = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &cfg,
            )
        });
        assert_eq!(r.batch_log.len(), 1, "burst split: {:?}", r.batch_log);
        assert_eq!(r.batch_log[0].size, 6);
        assert_eq!(r.batch_log[0].start_s, 0.5);
    }

    #[test]
    fn under_cap_batch_waits_for_window() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let cfg = BatcherConfig {
            batch_window_s: 0.2,
            max_batch: 8,
        };
        let trace = burst(3, 1.0, 64);
        let r = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &cfg,
            )
        });
        assert_eq!(r.batch_log.len(), 1);
        assert_eq!(r.batch_log[0].size, 3);
        assert!((r.batch_log[0].start_s - 1.2).abs() < 1e-12);
    }

    #[test]
    fn conservation_across_policies_and_shard_counts() {
        let base = tiny_design(64);
        let trace = poisson_trace(&DatasetSpec::rte(), 200.0, 60, 42);
        for n in [1usize, 2, 3, 4] {
            let fleet = homogeneous_fleet(&base, n);
            for dispatch in DispatchPolicy::ALL {
                let r = with_batch_log(|| {
                    simulate_fleet(
                        &fleet,
                        &trace,
                        SchedulingPolicy::LengthAware,
                        dispatch,
                        &BatcherConfig::default(),
                    )
                });
                assert_eq!(r.completed, 60, "{n} shards, {dispatch}");
                assert_eq!(
                    r.shards.iter().map(|s| s.completed).sum::<usize>(),
                    60,
                    "{n} shards, {dispatch}"
                );
                assert_eq!(r.batch_log.iter().map(|b| b.size).sum::<usize>(), 60);
                assert!(r
                    .shards
                    .iter()
                    .all(|s| (0.0..=1.0).contains(&s.utilization)));
            }
        }
    }

    #[test]
    fn round_robin_cycles_shards() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = burst(6, 0.0, 64);
        let r = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &BatcherConfig {
                batch_window_s: 0.0,
                max_batch: 16,
            },
        );
        // 6 requests over 3 shards → every shard saw exactly 2.
        for s in &r.shards {
            assert_eq!(s.completed, 2, "shard {}", s.shard);
        }
    }

    #[test]
    fn length_binned_routes_by_tuned_length() {
        // Shards tuned for 64 and 256; short traffic must land on the
        // short-tuned shard, long traffic on the long-tuned one.
        let fleet = vec![tiny_design(64), tiny_design(256)];
        let mut trace = burst(4, 0.0, 32);
        trace.extend(burst(4, 0.0, 200));
        let r = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::LengthBinned,
            &BatcherConfig::default(),
        );
        assert_eq!(r.shards[0].completed, 4);
        assert_eq!(r.shards[1].completed, 4);
    }

    #[test]
    fn overlong_requests_go_to_largest_shard() {
        let fleet = vec![tiny_design(64), tiny_design(128)];
        let trace = burst(3, 0.0, 500);
        let r = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::LengthBinned,
            &BatcherConfig::default(),
        );
        assert_eq!(r.shards[0].completed, 0);
        assert_eq!(r.shards[1].completed, 3);
    }

    #[test]
    fn jsq_balances_a_heavy_burst() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = burst(32, 0.0, 64);
        let r = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig {
                    batch_window_s: 0.05,
                    max_batch: 8,
                },
            )
        });
        // 32 simultaneous requests, cap 8, 4 shards → one full batch each.
        for s in &r.shards {
            assert_eq!(s.completed, 8, "shard {}", s.shard);
            assert_eq!(s.batches, 1, "shard {}", s.shard);
        }
        // All four batches start at t=0: no shard stalls on the window.
        assert_eq!(r.batch_log.len(), 4);
        assert!(r.batch_log.iter().all(|b| b.start_s == 0.0));
    }

    #[test]
    fn more_shards_scale_throughput_under_saturation() {
        // Saturating load: 256 simultaneous requests (16 full cap-16
        // batches of work). Every batch dispatches on cap fill, so the
        // makespan is pure service time and must shrink with shard count.
        let base = tiny_design(64);
        let mut rng = lat_tensor::rng::SplitMix64::new(7);
        let trace: Vec<Request> = DatasetSpec::mrpc()
            .sample_batch(&mut rng, 256)
            .into_iter()
            .map(|len| Request {
                arrival_s: 0.0,
                len,
            })
            .collect();
        let mut last = 0.0;
        for n in [1usize, 2, 4] {
            let r = simulate_fleet(
                &homogeneous_fleet(&base, n),
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
            );
            assert_eq!(r.completed, 256);
            assert!(
                r.throughput_seq_s > last * 1.5,
                "{n} shards: {} !> 1.5 × {last}",
                r.throughput_seq_s
            );
            last = r.throughput_seq_s;
        }
    }

    #[test]
    fn report_percentiles_ordered_and_shards_labeled() {
        let fleet = vec![tiny_design(64), tiny_design(128)];
        let trace = poisson_trace(&DatasetSpec::mrpc(), 300.0, 80, 9);
        let r = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::LengthBinned,
            &BatcherConfig::default(),
        );
        assert!(r.p50_latency_s <= r.p95_latency_s);
        assert!(r.p95_latency_s <= r.p99_latency_s);
        assert_eq!(r.shards[0].tuned_length, 64);
        assert_eq!(r.shards[1].tuned_length, 128);
        assert!(r.makespan_s > 0.0);
        assert!(r.mean_batch_size >= 1.0);
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::rte(), 400.0, 90, 1234);
        let run = || {
            with_batch_log(|| {
                simulate_fleet(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                )
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace = vec![
            Request {
                arrival_s: 1.0,
                len: 64,
            },
            Request {
                arrival_s: 0.5,
                len: 64,
            },
        ];
        let _ = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &BatcherConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_rejected() {
        let _ = simulate_fleet(
            &[],
            &burst(1, 0.0, 64),
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &BatcherConfig::default(),
        );
    }

    #[test]
    fn poisson_trace_is_sorted_and_deterministic() {
        let a = poisson_trace(&DatasetSpec::squad_v1(), 50.0, 64, 5);
        let b = poisson_trace(&DatasetSpec::squad_v1(), 50.0, 64, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().all(|r| r.arrival_s > 0.0));
    }

    #[test]
    fn constant_profile_matches_stationary_law() {
        // Same seed, same rate: time-rescaling through a constant profile
        // reproduces the stationary trace up to floating-point rounding
        // (per-gap division vs. divided cumulative sum).
        let profile = RateProfile::Constant(80.0);
        let a = poisson_trace(&DatasetSpec::rte(), 80.0, 64, 11);
        let b = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 64, 11);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.arrival_s - y.arrival_s).abs() < 1e-9, "{x:?} vs {y:?}");
            assert_eq!(x.len, y.len, "length stream drifted");
        }
    }

    #[test]
    fn piecewise_profile_concentrates_arrivals_in_fast_phases() {
        // 1 s at 10/s then 1 s at 1000/s: nearly all of a 200-request
        // trace must land in the second phase's window.
        let profile = RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 1.0,
                rate: 10.0,
            },
            RatePhase {
                duration_s: 1.0,
                rate: 1000.0,
            },
        ]);
        let trace = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 200, 3);
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        let early = trace.iter().filter(|r| r.arrival_s < 1.0).count();
        let late = trace.iter().filter(|r| r.arrival_s >= 1.0).count();
        assert!(early < 30, "phase-1 arrivals: {early}");
        assert!(late > 170, "phase-2 arrivals: {late}");
    }

    #[test]
    fn diurnal_cumulative_inverts_exactly() {
        let profile = RateProfile::Diurnal {
            mean_rate: 100.0,
            swing: 4.0,
            period_s: 8.0,
        };
        for &t in &[0.1, 0.5, 2.0, 7.9, 8.0, 13.7, 40.0] {
            let area = profile.cumulative(t);
            let back = profile.invert(area);
            assert!((back - t).abs() < 1e-6, "t {t} → Λ {area} → {back}");
        }
        // Peak:trough rate ratio is the configured swing.
        let peak = profile.rate_at(2.0); // sin peak of an 8 s period
        let trough = profile.rate_at(6.0);
        assert!((peak / trough - 4.0).abs() < 1e-9, "{peak}/{trough}");
    }

    #[test]
    fn diurnal_trace_is_sorted_and_tracks_the_rate() {
        let profile = RateProfile::Diurnal {
            mean_rate: 200.0,
            swing: 4.0,
            period_s: 4.0,
        };
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &profile, 800, 17);
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // First half-period (high rate) holds more arrivals than the
        // second (low rate) within the first full cycle.
        let high = trace.iter().filter(|r| r.arrival_s < 2.0).count();
        let low = trace
            .iter()
            .filter(|r| r.arrival_s >= 2.0 && r.arrival_s < 4.0)
            .count();
        assert!(high > low, "high-phase {high} !> low-phase {low}");
    }

    #[test]
    fn nonstationary_trace_is_deterministic() {
        let profile = RateProfile::Diurnal {
            mean_rate: 50.0,
            swing: 3.0,
            period_s: 5.0,
        };
        let a = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 64, 9);
        let b = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 64, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "swing must be finite")]
    fn diurnal_swing_below_one_rejected() {
        let profile = RateProfile::Diurnal {
            mean_rate: 10.0,
            swing: 0.5,
            period_s: 1.0,
        };
        let _ = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 4, 0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_piecewise_profile_rejected() {
        let profile = RateProfile::Piecewise(Vec::new());
        let _ = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 4, 0);
    }

    #[test]
    fn burst_cumulative_inverts_exactly() {
        let profile = RateProfile::Burst {
            base_rate: 20.0,
            burst_rate: 300.0,
            start_s: 2.0,
            duration_s: 1.5,
        };
        for &t in &[0.0, 0.5, 2.0, 2.7, 3.5, 4.0, 10.0] {
            let area = profile.cumulative(t);
            let back = profile.invert(area);
            assert!((back - t).abs() < 1e-9, "t {t} → Λ {area} → {back}");
        }
        assert_eq!(profile.rate_at(1.9), 20.0);
        assert_eq!(profile.rate_at(2.0), 300.0);
        assert_eq!(profile.rate_at(3.4), 300.0);
        assert_eq!(profile.rate_at(3.5), 20.0);
    }

    #[test]
    fn burst_trace_concentrates_arrivals_in_window() {
        // 20/s baseline with a 300/s flash crowd over [2.0, 3.5): the
        // burst window must hold the bulk of a 300-request trace.
        let profile = RateProfile::Burst {
            base_rate: 20.0,
            burst_rate: 300.0,
            start_s: 2.0,
            duration_s: 1.5,
        };
        let trace = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 300, 21);
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        let in_window = trace
            .iter()
            .filter(|r| r.arrival_s >= 2.0 && r.arrival_s < 3.5)
            .count();
        assert!(in_window > 200, "burst-window arrivals: {in_window}");
        let before = trace.iter().filter(|r| r.arrival_s < 2.0).count();
        assert!(before < 80, "pre-burst arrivals: {before}");
    }

    #[test]
    #[should_panic(expected = "burst duration must be positive")]
    fn burst_zero_duration_rejected() {
        let profile = RateProfile::Burst {
            base_rate: 10.0,
            burst_rate: 100.0,
            start_s: 1.0,
            duration_s: 0.0,
        };
        let _ = nonstationary_poisson_trace(&DatasetSpec::rte(), &profile, 4, 0);
    }

    #[test]
    fn zero_completion_report_is_valid_and_nan_free() {
        // Regression for the `fleet.rs:828` panic: a core whose heap never
        // ran (a total-outage stand-in) must yield a well-defined empty
        // report, not `expect("non-empty latencies")`.
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = burst(5, 0.0, 64);
        let cfg = BatcherConfig::default();
        let core = FleetCore::new(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            vec![true; 2],
        );
        let r = core.into_report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.mean_latency_s, 0.0);
        assert_eq!(r.p50_latency_s, 0.0);
        assert_eq!(r.p95_latency_s, 0.0);
        assert_eq!(r.p99_latency_s, 0.0);
        assert_eq!(r.mean_batch_size, 0.0, "0/0 batch-size NaN regression");
        assert!(r.throughput_seq_s.is_finite());
        assert!(r.shards.iter().all(|s| s.mean_batch_size == 0.0));
    }

    /// The heap [`EventQueue`] replaces: every trace arrival pushed up
    /// front, in trace order, before any other event.
    struct PreSeeded {
        heap: BinaryHeap<Event>,
        seq: u64,
    }

    impl PreSeeded {
        fn new(trace: &[Request]) -> Self {
            let mut q = Self {
                heap: BinaryHeap::new(),
                seq: 0,
            };
            for (r, req) in trace.iter().enumerate() {
                q.push(req.arrival_s, 0, EventKind::Arrival(r));
            }
            q
        }

        fn push(&mut self, time: f64, rank: u8, kind: EventKind) {
            self.heap.push(Event {
                time,
                rank,
                seq: self.seq,
                kind,
            });
            self.seq += 1;
        }
    }

    /// Everything that identifies a popped event, the kind included.
    fn key(ev: Option<Event>) -> Option<(u64, u8, u64, EventKind)> {
        ev.map(|e| (e.time.to_bits(), e.rank, e.seq, e.kind))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The lazy queue pops exactly the pre-seeded heap's sequence. The
        /// trace has many equal timestamps, and pushes land on trace
        /// arrival instants: retry arrivals (rank 0) tie with pending trace
        /// arrivals, completions, window closes and control events (ranks
        /// 1–3) tie with both.
        #[test]
        fn event_queue_pops_the_pre_seeded_order(
            gaps in proptest::collection::vec(0usize..5, 1..=40),
            ops in proptest::collection::vec((0usize..4, 0usize..256), 0..120),
        ) {
            let mut at = 0.0;
            let trace: Vec<Request> = gaps
                .iter()
                .map(|&g| {
                    at += [0.0, 0.0, 0.0, 0.5, 1.0][g];
                    Request { arrival_s: at, len: 64 }
                })
                .collect();
            let n = trace.len();
            let mut lazy = EventQueue::new(&trace);
            let mut reference = PreSeeded::new(&trace);
            for (i, &(op, pick)) in ops.iter().enumerate() {
                if op == 0 {
                    proptest::prop_assert_eq!(key(lazy.peek()), key(reference.heap.peek().copied()));
                    proptest::prop_assert_eq!(key(lazy.pop()), key(reference.heap.pop()));
                } else {
                    // On a trace arrival instant, or just after one.
                    let base = trace[(pick / 4) % n].arrival_s;
                    let time = if op == 3 { base + 0.25 } else { base };
                    let (rank, kind) = match pick % 4 {
                        0 => (0, EventKind::Arrival(pick % n)),
                        1 => (1, EventKind::Completion { shard: i, epoch: 0 }),
                        2 => (2, EventKind::WindowClose { shard: i, head: pick % n }),
                        _ => (3, EventKind::Control),
                    };
                    // The reference takes the rank as data, so this also
                    // pins `EventKind::rank`.
                    lazy.push(time, kind);
                    reference.push(time, rank, kind);
                }
                // The heap holds only pushed events; pending trace
                // arrivals live in the trace.
                proptest::prop_assert_eq!(
                    lazy.in_flight() + lazy.arrivals.len(),
                    reference.heap.len()
                );
            }
            loop {
                let (a, b) = (lazy.pop(), reference.heap.pop());
                proptest::prop_assert_eq!(key(a), key(b));
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Peak event-heap population follows in-flight work, not the trace
    /// length: ten times the requests at the same rate leave it flat.
    #[test]
    fn peak_heap_events_is_independent_of_trace_length() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let peak = |n: usize| {
            let trace = poisson_trace(&DatasetSpec::rte(), 5_000.0, n, 5);
            let (_, stats) = simulate_fleet_instrumented(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                ReportMode::Streaming,
            );
            stats.peak_heap_events
        };
        let (small, large) = (peak(2_000), peak(20_000));
        // Stale window closes wait in the heap until their instant, so the
        // peak follows the arrival rate; at 5k seq/s it is about 20.
        assert!(
            small * 50 <= 2_000,
            "peak {small} is not far below n = 2000"
        );
        assert!(
            large <= small + 4,
            "peak grew from {small} to {large} with 10x the requests"
        );
    }
}
