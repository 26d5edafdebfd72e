//! Failure-and-burst scenario layer over the fleet and decode engines.
//!
//! The serving engines ([`crate::fleet`], [`crate::decode`]) and the
//! autoscaler ([`crate::autoscale`]) model a *healthy* deployment: every
//! shard that is launched stays up, and every request eventually
//! completes. Real fleets lose shards mid-peak, develop stragglers, and
//! face clients that give up. This module injects exactly those events —
//! deterministically, from a seed-free declarative [`FaultPlan`] — through
//! one fault injector that drives the fleet and the decode core alike: it
//! holds the plan cursor, the client timeouts and the retry books once,
//! and runs as the engine's controller around the inner one (none, an
//! autoscaler, or the disaggregation controller). A dead shard's queued
//! work and live KV residents re-route through the same re-admission and
//! shed calls scale-down uses, and a straggler's in-flight batches are
//! re-priced on the fly.
//!
//! Three layers compose here:
//!
//! - **Faults** ([`FaultPlan`]): shard crashes (with optional recovery)
//!   and straggler windows (service ×`slowdown` between two instants).
//!   Applied via control events, so a healthy run with an empty plan is
//!   *bit-identical* to the plain engine (multiplying by a slowdown of
//!   exactly 1.0 is an IEEE identity, and no extra events fire).
//! - **Clients** ([`ClientConfig`]): per-request timeout, bounded retry
//!   with exponential backoff, and an end-to-end deadline. A retried
//!   request re-enters the arrival stream as a new event; every request
//!   ends in a [`Disposition`] — completed, completed-after-retries, or
//!   timed out — so nothing is ever silently dropped.
//! - **Bursts**: flash crowds are a *trace* property, not a fault —
//!   [`crate::fleet::RateProfile::Burst`] generates them; this module
//!   reports how the fleet rode them out.
//!
//! Reporting slices the run into pre-incident / during-incident /
//! post-incident [`IncidentPhase`]s along the plan's
//! [`FaultPlan::incident_window`], each with SLO attainment, goodput, and
//! (for the autoscaled entry point) the scale-event count — the
//! time-to-recovery view the `ablate_failures` bin asserts on.
//!
//! Entry points: [`simulate_fleet_failure`] (fixed fleet),
//! [`simulate_autoscale_failure`] (autoscaled fleet — crashed capacity
//! stops billing immediately and recovered shards rejoin through the
//! normal launch/warm-up path), [`simulate_decode_failure`]
//! (generative decode, with [`DecodeScaleDown`] choosing what happens to
//! a straggler's KV residents), and [`simulate_disagg_failure`]
//! (disaggregated prefill/decode serving — faults may hit either pool;
//! a crashed decode shard's residents re-prefill on the prefill pool and
//! hand off again).
//!
//! # Example
//!
//! The containment pin, runnable: an empty [`FaultPlan`] with the
//! infinitely patient client adds no events and re-prices nothing, so
//! the engine-level report is bit-identical to the plain fleet and every
//! disposition is a zero-retry completion.
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::failure::{simulate_fleet_failure, ClientConfig, FaultPlan};
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
//! let fleet = homogeneous_fleet(&design, 2);
//! let trace = poisson_trace(&DatasetSpec::rte(), 600.0, 10, 5);
//! # // Logged, so the equality also compares the batch logs.
//! # lat_hwsim::fleet::with_batch_log(|| {
//! let plain = simulate_fleet(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//! );
//! let healthy = simulate_fleet_failure(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//!     &FaultPlan::none(),
//!     &ClientConfig::patient(),
//!     0.25, // SLO used only for attainment reporting
//! );
//! assert_eq!(healthy.fleet, plain);
//! assert_eq!(healthy.completed, trace.len());
//! assert_eq!(healthy.timed_out + healthy.retried + healthy.retries, 0);
//! # assert!(!plain.batch_log.is_empty());
//! # });
//! ```

use crate::accelerator::AcceleratorDesign;
use crate::autoscale::{AutoscaleConfig, DecodeScaleDown, ScaleBooks, ScaleEvent};
use crate::decode::{
    DecodeConfig, DecodeCore, DecodeReport, DecodeRequest, DecodeScheduler, Slots,
};
use crate::disagg::{combined_fleet, DisaggConfig, DisaggController, DisaggReport};
use crate::fleet::{
    p95_mut, Batcher, BatcherConfig, Controller, Core, Discipline, DispatchPolicy, FleetCore,
    FleetReport, NullController, Request, TraceEvent,
};
use lat_core::pipeline::SchedulingPolicy;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

// ───────────────────────────── fault plans ─────────────────────────────

/// What goes wrong with one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The shard dies at `at_s`: its queued work and in-flight batch are
    /// orphaned and re-routed to survivors; with `recover_s` it comes
    /// back (a plain fleet re-admits it immediately, an autoscaled one
    /// relaunches it through warm-up), without it stays down forever.
    Crash {
        /// Crash instant in seconds.
        at_s: f64,
        /// Recovery instant, strictly after `at_s`; `None` = never.
        recover_s: Option<f64>,
    },
    /// The shard serves ×`slowdown` slower over `[from_s, until_s)`; an
    /// in-flight batch at either boundary is re-priced on the fly.
    Straggler {
        /// Slow-down onset in seconds.
        from_s: f64,
        /// Recovery instant, strictly after `from_s`.
        until_s: f64,
        /// Service-time multiplier while slow (e.g. `8.0`).
        slowdown: f64,
    },
}

/// One fault on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Shard the fault hits.
    pub shard: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

impl Fault {
    /// The `[start, end)` interval the shard is unhealthy (end is
    /// `f64::INFINITY` for an unrecovered crash).
    fn interval(&self) -> (f64, f64) {
        match self.kind {
            FaultKind::Crash { at_s, recover_s } => (at_s, recover_s.unwrap_or(f64::INFINITY)),
            FaultKind::Straggler {
                from_s, until_s, ..
            } => (from_s, until_s),
        }
    }
}

/// A deterministic failure scenario: every fault with its exact timing.
/// No randomness lives here — plans are data, so a scenario replays
/// bit-for-bit and property suites can perturb it systematically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// The faults, in any order (applied in time order).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults: the healthy baseline (runs bit-identical to
    /// the plain engine).
    pub fn none() -> Self {
        Self::default()
    }

    /// Panics unless the plan is well-formed for a fleet of `max_shards`:
    /// shards in range, times finite and ordered, and per-shard fault
    /// intervals disjoint (a shard cannot crash while already down or
    /// straggle twice at once).
    pub fn validate(&self, max_shards: usize) {
        let mut per_shard: Vec<Vec<(f64, f64)>> = vec![Vec::new(); max_shards];
        for f in &self.faults {
            assert!(f.shard < max_shards, "fault shard out of range");
            match f.kind {
                FaultKind::Crash { at_s, recover_s } => {
                    assert!(
                        at_s.is_finite() && at_s >= 0.0,
                        "crash time must be finite and non-negative"
                    );
                    if let Some(rec) = recover_s {
                        assert!(
                            rec.is_finite() && rec > at_s,
                            "recovery must be finite and after the crash"
                        );
                    }
                }
                FaultKind::Straggler {
                    from_s,
                    until_s,
                    slowdown,
                } => {
                    assert!(
                        from_s.is_finite() && from_s >= 0.0,
                        "straggler start must be finite and non-negative"
                    );
                    assert!(
                        until_s.is_finite() && until_s > from_s,
                        "straggler window must be finite and non-empty"
                    );
                    assert!(
                        slowdown.is_finite() && slowdown > 0.0,
                        "slowdown factor must be positive and finite"
                    );
                }
            }
            per_shard[f.shard].push(f.interval());
        }
        for intervals in &mut per_shard {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping fault intervals on one shard");
            }
        }
    }

    /// The `[start, end)` hull of every fault — the incident window the
    /// per-phase report slices on. `None` for an empty plan; the end is
    /// `f64::INFINITY` if any crash never recovers.
    pub fn incident_window(&self) -> Option<(f64, f64)> {
        let mut window: Option<(f64, f64)> = None;
        for f in &self.faults {
            let (lo, hi) = f.interval();
            window = Some(match window {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
        window
    }

    /// The plan flattened into time-ordered injector actions (stable on
    /// ties, so two same-instant faults apply in declaration order).
    fn actions(&self) -> Vec<(f64, Action)> {
        let mut actions = Vec::new();
        for f in &self.faults {
            match f.kind {
                FaultKind::Crash { at_s, recover_s } => {
                    actions.push((at_s, Action::Down(f.shard)));
                    if let Some(rec) = recover_s {
                        actions.push((rec, Action::Up(f.shard)));
                    }
                }
                FaultKind::Straggler {
                    from_s,
                    until_s,
                    slowdown,
                } => {
                    actions.push((
                        from_s,
                        Action::Slow {
                            shard: f.shard,
                            factor: slowdown,
                        },
                    ));
                    actions.push((until_s, Action::Unslow(f.shard)));
                }
            }
        }
        actions.sort_by(|a, b| a.0.total_cmp(&b.0));
        actions
    }
}

/// A fault's primitive effect, applied at one instant.
#[derive(Debug, Clone, Copy)]
enum Action {
    Down(usize),
    Up(usize),
    Slow { shard: usize, factor: f64 },
    Unslow(usize),
}

// ─────────────────────────────── clients ───────────────────────────────

/// Client-side request semantics: how long a request waits before giving
/// up on an attempt, how often it retries, and the end-to-end budget.
///
/// The timeout clock is checked once per attempt: a request still
/// *waiting* (queued or outage-parked) at `arrival + timeout_s` is
/// cancelled and either retried or abandoned; a request already executing
/// is left to complete — in this model the client keeps the connection
/// once service starts. A retry re-enters the arrival stream
/// `backoff_s × 2^(attempt-1)` after the timeout fired, as a brand-new
/// arrival event (so forecasters see retry load — a retry *is* offered
/// load).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Per-attempt patience in seconds (`f64::INFINITY` = never time
    /// out).
    pub timeout_s: f64,
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff_s: f64,
    /// End-to-end budget from the original arrival: a retry that would
    /// start after `arrival + deadline_s` is abandoned instead
    /// (`f64::INFINITY` = unbounded).
    pub deadline_s: f64,
}

impl ClientConfig {
    /// The infinitely patient client: no timeouts, no retries — every
    /// request waits forever. The failure layer with this client and an
    /// empty [`FaultPlan`] reproduces the plain engine bit-for-bit.
    pub fn patient() -> Self {
        Self {
            timeout_s: f64::INFINITY,
            max_retries: 0,
            backoff_s: 0.0,
            deadline_s: f64::INFINITY,
        }
    }

    /// Panics unless the configuration is well-formed.
    pub fn validate(&self) {
        assert!(self.timeout_s > 0.0, "timeout must be positive");
        assert!(
            self.backoff_s.is_finite() && self.backoff_s >= 0.0,
            "backoff must be finite and non-negative"
        );
        assert!(self.deadline_s > 0.0, "deadline must be positive");
    }

    /// The client's verdict when attempt number `attempts` (0-based)
    /// times out at `now` for a request that originally arrived at
    /// `arrival_s`: retry after exponential backoff if both the retry cap
    /// and the end-to-end deadline permit, else abandon.
    ///
    /// This is the *single* source of retry/timeout scheduling: the one
    /// fault injector applies it on the fleet and the decode core alike.
    pub fn on_timeout(&self, now: f64, arrival_s: f64, attempts: u32) -> RetryDecision {
        let retry_at = now + self.backoff_s * 2f64.powi(attempts as i32);
        let within_deadline = retry_at <= arrival_s + self.deadline_s;
        if attempts < self.max_retries && within_deadline {
            RetryDecision::Retry {
                retry_at,
                timeout_at: if self.timeout_s.is_finite() {
                    retry_at + self.timeout_s
                } else {
                    f64::INFINITY
                },
            }
        } else {
            RetryDecision::Abandon
        }
    }

    /// Hard cap on attempts implied by the budget: `max_retries`, further
    /// clamped by how many timeout periods fit in the deadline. Property
    /// suites assert observed attempt counts against this.
    pub fn attempt_bound(&self) -> u32 {
        if self.timeout_s.is_infinite() {
            return self.max_retries;
        }
        if self.deadline_s.is_infinite() {
            return self.max_retries;
        }
        // Each retry only launches if it starts inside the deadline, and
        // every attempt consumes at least one timeout period first.
        let by_deadline = (self.deadline_s / self.timeout_s).ceil() as u32;
        self.max_retries.min(by_deadline)
    }
}

/// What a [`ClientConfig`] does about one timed-out attempt
/// ([`ClientConfig::on_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Re-issue the request at `retry_at`; the next per-attempt timeout
    /// fires at `timeout_at` (`f64::INFINITY` for a client that never
    /// times out).
    Retry {
        /// Backoff-delayed re-arrival instant.
        retry_at: f64,
        /// When the re-issued attempt times out.
        timeout_at: f64,
    },
    /// Retry cap or deadline exhausted: give up on the request.
    Abandon,
}

/// How one request's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// Completed on the first attempt.
    Completed,
    /// Completed after this many retries.
    Retried(u32),
    /// Never completed: timed out with an exhausted retry budget, or
    /// stranded by an unrecovered outage.
    TimedOut,
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disposition::Completed => write!(f, "completed"),
            Disposition::Retried(n) => write!(f, "retried×{n}"),
            Disposition::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// Client-side outcome of one request (parallel to the trace).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientOutcome {
    /// How the request ended.
    pub disposition: Disposition,
    /// Retries performed (0 = served, or gave up, on the first attempt).
    pub attempts: u32,
    /// Absolute completion time; `f64::INFINITY` if it never completed
    /// (kept non-NaN so outcome vectors stay `PartialEq`-comparable).
    pub completion_s: f64,
    /// Completion − *original* arrival (retries included);
    /// `f64::INFINITY` if it never completed.
    pub latency_s: f64,
}

// ─────────────────────────────── reports ───────────────────────────────

/// One slice of the run relative to the incident window: pre-incident,
/// during, post-incident. Requests are bucketed by *original* arrival
/// time; goodput by completion time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentPhase {
    /// Phase start (inclusive).
    pub start_s: f64,
    /// Phase end (exclusive); `f64::INFINITY` for the last phase.
    pub end_s: f64,
    /// Requests that arrived in the phase.
    pub arrivals: usize,
    /// Of those, how many eventually completed (whenever that happened).
    pub completed: usize,
    /// Of those, how many never completed.
    pub timed_out: usize,
    /// Fraction of the phase's arrivals that completed inside the SLO
    /// (timed-out requests count as misses); 1.0 for an empty phase.
    pub slo_attainment: f64,
    /// Completions landing *inside* the phase per second of phase (the
    /// delivery rate through the window, whoever's requests they were).
    pub goodput_seq_s: f64,
    /// 95th-percentile latency of the phase's completed arrivals (0 when
    /// none completed).
    pub p95_latency_s: f64,
    /// Autoscaler actions inside the phase (0 for fixed fleets).
    pub scale_events: usize,
}

/// Result of [`simulate_fleet_failure`]: the engine-level report plus the
/// client's view of every request.
///
/// Accounting invariant: `completed + timed_out == trace.len()` — a
/// request is never lost, only completed or explicitly given up on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureReport {
    /// Engine-level report (latency percentiles over the completed
    /// population, per-shard stats, batch log).
    pub fleet: FleetReport,
    /// Per-request client outcomes in trace order.
    pub outcomes: Vec<ClientOutcome>,
    /// Requests that completed (on any attempt).
    pub completed: usize,
    /// Requests that never completed.
    pub timed_out: usize,
    /// Completed requests that needed at least one retry.
    pub retried: usize,
    /// Total retry events across all requests (including those that
    /// still timed out).
    pub retries: usize,
    /// Fraction of *all* requests completed inside the SLO (timed-out
    /// requests are misses).
    pub slo_attainment: f64,
    /// Completed requests per second of makespan.
    pub goodput_seq_s: f64,
    /// Pre / during / post incident slices ([`FaultPlan::incident_window`];
    /// one all-run phase for an empty plan).
    pub phases: Vec<IncidentPhase>,
}

/// Result of [`simulate_autoscale_failure`]: the failure view plus the
/// autoscaler's cost books and event log. Crashed capacity is not billed
/// (`shard_seconds` stops accruing at the crash), and recovery shows up
/// as a `Recovered` scale event followed by a normal launch + warm-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleFailureReport {
    /// The failure-layer view ([`FailureReport`]).
    pub failure: FailureReport,
    /// Σ paid shard-seconds (same books as
    /// [`ScaleBooks::shard_seconds`]).
    pub shard_seconds: f64,
    /// Time-averaged committed shard count.
    pub mean_active_shards: f64,
    /// Peak committed shard count.
    pub peak_active_shards: usize,
    /// Every scaling action in time order, `Failed`/`Recovered`
    /// included.
    pub scale_events: Vec<ScaleEvent>,
}

/// Result of [`simulate_decode_failure`]: the decode report plus client
/// outcomes. SLO attainment here is over *TTFT* (the user-facing latency
/// of generative serving), and `affected_drain_s` is the
/// time-to-recovery metric the migrate-vs-drain ablation compares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeFailureReport {
    /// Engine-level decode report (TTFT/ITL percentiles over the
    /// population that got tokens, goodput, per-shard stats).
    pub decode: DecodeReport,
    /// Client outcomes, tallies and incident phases, scored on TTFT.
    pub client: ClientBooks,
    /// Latest completion time among requests that were KV-resident on a
    /// faulty shard at fault onset (0 if none, `f64::INFINITY` if one
    /// never finished) — how long the incident's victims lingered.
    /// Migrating them off a straggler should beat draining in place.
    pub affected_drain_s: f64,
}

// ──────────────────────────── client timeouts ───────────────────────────

/// Pending client timeouts (at most one per request) and the due set the
/// fault injector fires from.
///
/// First-attempt timeouts are `arrival_s + timeout_s` over a trace the
/// engines require sorted by arrival, so they come due in index order and
/// a cursor walks them. Only retry timeouts go on a heap, which holds just
/// the requests currently retrying.
struct ClientTimeouts {
    /// Pending timeout instant per request (`f64::INFINITY` = none).
    at: Vec<f64>,
    /// First request whose first-attempt timeout has not come due.
    cursor: usize,
    /// Retry timeouts, earliest first.
    retries: BinaryHeap<Reverse<RetryTimeout>>,
    /// Every `(now, request)` fired, in firing order.
    #[cfg(test)]
    fired: Vec<(f64, usize)>,
}

/// One retry's timeout instant on the [`ClientTimeouts`] heap.
#[derive(Clone, Copy, PartialEq)]
struct RetryTimeout {
    at: f64,
    req: usize,
}

impl Eq for RetryTimeout {}

impl PartialOrd for RetryTimeout {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryTimeout {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.total_cmp(&other.at).then(self.req.cmp(&other.req))
    }
}

impl ClientTimeouts {
    fn new(n_requests: usize) -> Self {
        Self {
            at: vec![f64::INFINITY; n_requests],
            cursor: 0,
            retries: BinaryHeap::new(),
            #[cfg(test)]
            fired: Vec::new(),
        }
    }

    /// Arms every first-attempt timeout and returns their instants, for
    /// the caller to schedule control events at. `arrivals` must be the
    /// (sorted) trace's arrival times.
    fn arm_first_attempts(
        &mut self,
        arrivals: impl Iterator<Item = f64>,
        timeout_s: f64,
    ) -> &[f64] {
        for (at, arrival_s) in self.at.iter_mut().zip(arrivals) {
            *at = arrival_s + timeout_s;
        }
        &self.at
    }

    /// Arms request `r`'s retry timeout at `at`.
    fn arm_retry(&mut self, r: usize, at: f64) {
        self.at[r] = at;
        self.retries.push(Reverse(RetryTimeout { at, req: r }));
    }

    /// Takes every timeout due at `now` off the pending set, in ascending
    /// request index — the order a scan over all requests fires them in.
    fn take_due(&mut self, now: f64) -> Vec<usize> {
        #[cfg(test)]
        let expected = self.due_by_scan(now);
        let mut due = Vec::new();
        while self.at.get(self.cursor).is_some_and(|&t| t <= now) {
            due.push(self.cursor);
            self.cursor += 1;
        }
        while let Some(&Reverse(next)) = self.retries.peek() {
            if next.at > now {
                break;
            }
            self.retries.pop();
            due.push(next.req);
        }
        due.sort_unstable();
        due.dedup();
        // A stale heap entry (its request re-armed later) is not due.
        due.retain(|&r| self.at[r] <= now);
        for &r in &due {
            self.at[r] = f64::INFINITY;
        }
        #[cfg(test)]
        {
            assert_eq!(due, expected, "due set diverged from the scan at {now}");
            self.fired.extend(due.iter().map(|&r| (now, r)));
        }
        due
    }

    /// True when no timeout is pending.
    fn is_empty(&self) -> bool {
        self.retries.is_empty() && self.at.get(self.cursor).is_none_or(|t| t.is_infinite())
    }

    /// Reference for [`ClientTimeouts::take_due`]: the O(n) scan over
    /// every request the fault injector used to run at each control event.
    #[cfg(test)]
    fn due_by_scan(&self, now: f64) -> Vec<usize> {
        (0..self.at.len()).filter(|&r| self.at[r] <= now).collect()
    }
}

// ──────────────────────────── fault injector ────────────────────────────

/// The controller that applies a [`FaultPlan`] and enforces
/// [`ClientConfig`] timeouts on either engine core, wrapping an inner
/// controller (the no-op one for fixed fleets, the
/// [`Autoscaler`](crate::autoscale::Autoscaler), or the
/// [`DisaggController`]) whose hooks it forwards.
///
/// The plan cursor, the timeout book, the retry counts, the crash and
/// re-admission path and outage parking live here once, driving the
/// [`Core`] directly. What a discipline does beyond that under faults is
/// its [`FaultResponse`], held in `per_core`: nothing for the fleet,
/// [`DecodeFaults`] for decode.
struct FaultInjector<C, P = ()> {
    inner: C,
    per_core: P,
    actions: Vec<(f64, Action)>,
    next_action: usize,
    client: ClientConfig,
    timeouts: ClientTimeouts,
    /// Retries performed per request.
    attempts: Vec<u32>,
    /// The incident window the client books slice on.
    window: Option<(f64, f64)>,
    /// The latency SLO the client books score against.
    slo: f64,
}

impl<C, P> FaultInjector<C, P> {
    /// Checks `plan` against a fleet of `n_shards`, `client` and `slo` —
    /// the failure layer's one input check, which every entry point runs
    /// before it builds its core.
    fn new(
        inner: C,
        per_core: P,
        plan: &FaultPlan,
        client: &ClientConfig,
        slo: f64,
        n_shards: usize,
        n_requests: usize,
    ) -> Self {
        plan.validate(n_shards);
        client.validate();
        assert!(slo > 0.0, "SLO latency must be positive");
        Self {
            inner,
            per_core,
            actions: plan.actions(),
            next_action: 0,
            client: *client,
            timeouts: ClientTimeouts::new(n_requests),
            attempts: vec![0; n_requests],
            window: plan.incident_window(),
            slo,
        }
    }

    /// Schedules a control event at every fault instant and every
    /// first-attempt timeout. Call once before `core.run`.
    fn prime<D: Discipline>(&mut self, core: &mut Core<'_, D>) {
        for &(t, _) in &self.actions {
            core.schedule_control(t);
        }
        if self.client.timeout_s.is_finite() {
            let arrivals = core.trace.iter().map(TraceEvent::arrival_s);
            for &t in self
                .timeouts
                .arm_first_attempts(arrivals, self.client.timeout_s)
            {
                core.schedule_control(t);
            }
        }
    }

    /// Takes the next plan action due at `now` off the cursor.
    fn next_due(&mut self, now: f64) -> Option<Action> {
        let &(t, action) = self.actions.get(self.next_action)?;
        (t <= now).then(|| {
            self.next_action += 1;
            action
        })
    }

    /// Fires every client timeout due at `now`: a still-waiting request
    /// is cancelled, then retried (backoff-delayed, budget permitting) or
    /// abandoned. Requests already executing are left alone — their
    /// timeout simply lapses; that includes a decode request already
    /// emitting tokens, since its KV state is live
    /// ([`Discipline::started`]).
    fn fire_due_timeouts<D: Discipline>(&mut self, core: &mut Core<'_, D>, now: f64) {
        for r in self.timeouts.take_due(now) {
            if !core.cancel_waiting(r, now) {
                continue; // not waiting anywhere: nothing to give up on
            }
            match self
                .client
                .on_timeout(now, core.trace[r].arrival_s(), self.attempts[r])
            {
                RetryDecision::Retry {
                    retry_at,
                    timeout_at,
                } => {
                    self.attempts[r] += 1;
                    core.schedule_arrival(r, retry_at);
                    if timeout_at.is_finite() {
                        self.timeouts.arm_retry(r, timeout_at);
                        core.schedule_control(timeout_at);
                    }
                }
                RetryDecision::Abandon => core.abandoned += 1,
            }
        }
    }

    /// The client view of a finished run over `trace` — the tail every
    /// entry point shares. The SLO and phase latency is TTFT when
    /// `ttft_s` is given (decode), else completion − arrival (fleet).
    fn summarize<R: TraceEvent>(
        &self,
        trace: &[R],
        completion_s: &[f64],
        ttft_s: Option<&[f64]>,
        makespan: f64,
        scale_events: &[ScaleEvent],
    ) -> ClientBooks {
        let arrivals: Vec<f64> = trace.iter().map(R::arrival_s).collect();
        summarize_clients(
            self.window,
            &arrivals,
            completion_s,
            &self.attempts,
            |r| match ttft_s {
                Some(ttft_s) => ttft_latency(ttft_s, r),
                None => end_to_end_latency(completion_s, &arrivals, r),
            },
            self.slo,
            makespan,
            scale_events,
        )
    }
}

impl<C: Controller<Batcher>> FaultInjector<C> {
    /// The fleet entry points' report of the finished run on `core`.
    fn failure_report(&self, core: FleetCore<'_>, scale_events: &[ScaleEvent]) -> FailureReport {
        let (trace, completion_s) = (core.trace, core.completion_s.clone());
        let fleet = core.into_report();
        let makespan = fleet.makespan_s;
        let ClientBooks {
            outcomes,
            completed,
            timed_out,
            retried,
            retries,
            slo_attainment,
            phases,
        } = self.summarize(trace, &completion_s, None, makespan, scale_events);
        FailureReport {
            goodput_seq_s: completed as f64 / makespan.max(1e-12),
            fleet,
            outcomes,
            completed,
            timed_out,
            retried,
            retries,
            slo_attainment,
            phases,
        }
    }
}

/// What a discipline does under faults beyond the injector's shared
/// crash, re-admission and parking. The defaults are the fleet's, which
/// adds nothing.
trait FaultResponse<D: Discipline> {
    /// Shard `s` is about to crash.
    fn before_crash(&mut self, _core: &Core<'_, D>, _s: usize) {}
    /// A crash just closed a shard to routing, before its orphans are
    /// re-admitted.
    fn after_crash(&mut self, _core: &mut Core<'_, D>) {}
    /// Shard `s` starts straggling ×`factor`.
    fn slow(&mut self, core: &mut Core<'_, D>, s: usize, factor: f64, now: f64) {
        core.set_slowdown(s, factor, now);
    }
    /// Shard `s` stops straggling.
    fn unslow(&mut self, core: &mut Core<'_, D>, s: usize, now: f64) {
        core.set_slowdown(s, 1.0, now);
    }
    /// Shard `s` finished a batch or an iteration, before the inner
    /// controller's hook.
    fn at_boundary(&mut self, _core: &mut Core<'_, D>, _s: usize, _now: f64) {}
}

/// The fleet parks a crash's orphans when no survivor accepts, so it
/// needs nothing beyond the shared path.
impl FaultResponse<Batcher> for () {}

/// The shared fault path: a crash's orphans re-admit among the survivors,
/// and with none accepting they park until capacity returns (a parking
/// discipline only).
impl<D: Discipline, C: Controller<D>, P: FaultResponse<D>> Controller<D> for FaultInjector<C, P> {
    fn on_arrival(&mut self, core: &mut Core<'_, D>, r: usize, now: f64) {
        self.inner.on_arrival(core, r, now);
    }

    fn on_control(&mut self, core: &mut Core<'_, D>, now: f64) {
        while let Some(action) = self.next_due(now) {
            match action {
                Action::Down(s) => {
                    self.per_core.before_crash(core, s);
                    let orphans = core.crash_shard(s, now);
                    self.per_core.after_crash(core);
                    self.inner.on_shard_down(core, s, now);
                    // Orphans' batching windows have long expired, so
                    // survivors dispatch them at once.
                    core.readmit(orphans, now);
                }
                Action::Up(s) => {
                    core.revive_shard(s);
                    self.inner.on_shard_up(core, s, now);
                }
                Action::Slow { shard, factor } => self.per_core.slow(core, shard, factor, now),
                Action::Unslow(s) => self.per_core.unslow(core, s, now),
            }
        }
        self.fire_due_timeouts(core, now);
        // A dead end: every fault applied, no pending timeout, *every*
        // shard dead with no recovery coming, nothing queued or in
        // flight. Whatever is still parked is stranded — counted
        // abandoned so an inner autoscaler's evaluation tick chain stops
        // and the queue can drain (the unrecovered-total-outage-with-a-
        // patient-client end state). A merely cold shard does NOT make a
        // dead end: an autoscaler can relaunch it, so the run must keep
        // ticking.
        if !core.parked.is_empty()
            && self.next_action == self.actions.len()
            && self.timeouts.is_empty()
            && core.dead.iter().all(|&d| d)
            && core.books.iter().all(|b| !b.busy && b.queue.is_empty())
        {
            core.abandoned = core.trace.len() - core.completed();
        }
        // The inner controller ticks after faults and timeouts settle, so
        // an autoscaler's same-instant warm-up completions see the
        // post-fault fleet …
        self.inner.on_control(core, now);
        // … and parked outage work re-enters as soon as any shard
        // accepts again (a revival above, or a warm-up that just
        // finished).
        if !core.parked.is_empty() && core.accepting.iter().any(|&a| a) {
            let parked = std::mem::take(&mut core.parked);
            core.readmit(parked, now);
        }
    }

    fn after_completion(&mut self, core: &mut Core<'_, D>, shard: usize, now: f64) {
        self.per_core.at_boundary(core, shard, now);
        self.inner.after_completion(core, shard, now);
    }
}

/// The decode discipline's response to faults. The engine cannot park
/// work, so when a crash leaves no shard accepting, the live stragglers
/// the injector closed to routing reopen (a slow shard beats none), and a
/// plan must leave at least one live routable shard. A straggler's KV
/// residents follow `straggler_response`: [`DecodeScaleDown::Drain`]
/// decodes them in place at the slow rate, [`DecodeScaleDown::Migrate`]
/// evicts them at the next iteration boundary to re-prefill on a healthy
/// shard.
struct DecodeFaults {
    straggler_response: DecodeScaleDown,
    /// Shards whose residents await eviction at the next step boundary.
    migrate_from: Vec<bool>,
    /// Shards the straggler arm closed to routing (they were accepting)
    /// and nothing has reopened since.
    straggler_closed: Vec<bool>,
    /// Requests KV-resident on a faulty shard at fault onset.
    affected: Vec<usize>,
}

impl DecodeFaults {
    fn new(n_shards: usize, straggler_response: DecodeScaleDown) -> Self {
        Self {
            straggler_response,
            migrate_from: vec![false; n_shards],
            straggler_closed: vec![false; n_shards],
            affected: Vec::new(),
        }
    }

    /// Records the shard's unfinished residents as incident victims.
    fn record_affected(&mut self, core: &DecodeCore<'_>, s: usize) {
        for sl in &core.disc.shards[s].resident {
            if core.disc.emitted[sl.req] < core.trace[sl.req].output_len
                && !self.affected.contains(&sl.req)
            {
                self.affected.push(sl.req);
            }
        }
    }

    /// Latest completion among the requests KV-resident on a faulty
    /// shard at fault onset: 0 if none, `f64::INFINITY` if one never
    /// finished.
    fn affected_drain_s(&self, completion_s: &[f64]) -> f64 {
        self.affected
            .iter()
            .map(|&r| {
                if completion_s[r].is_finite() {
                    completion_s[r]
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0f64, f64::max)
    }
}

impl FaultResponse<Slots> for DecodeFaults {
    fn before_crash(&mut self, core: &DecodeCore<'_>, s: usize) {
        self.record_affected(core, s);
    }

    /// Reopens the live shards the straggler arm closed, cancelling their
    /// pending migrations, if the crash took the last accepting shard: the
    /// engine cannot park work.
    fn after_crash(&mut self, core: &mut DecodeCore<'_>) {
        if !core.accepting.iter().any(|&a| a) {
            for s in 0..self.straggler_closed.len() {
                if self.straggler_closed[s] && !core.dead[s] {
                    self.straggler_closed[s] = false;
                    self.migrate_from[s] = false;
                    core.accepting[s] = true;
                }
            }
        }
        assert!(
            core.accepting.iter().any(|&a| a),
            "decode fault plan killed every accepting shard \
             (the decode engine cannot park work)"
        );
    }

    fn slow(&mut self, core: &mut DecodeCore<'_>, s: usize, factor: f64, now: f64) {
        self.record_affected(core, s);
        core.set_slowdown(s, factor, now);
        let has_other = core.accepting.iter().enumerate().any(|(i, &a)| a && i != s);
        if !has_other {
            return; // sole shard: nowhere to shift work to
        }
        // Waiting work always flees a straggler; what happens to its
        // residents is the drain-vs-migrate choice.
        self.straggler_closed[s] = core.accepting[s];
        core.accepting[s] = false;
        let migrate = self.straggler_response == DecodeScaleDown::Migrate;
        core.shed(s, now, true, migrate);
        if migrate && core.books[s].busy {
            self.migrate_from[s] = true; // evict at the boundary
        }
    }

    fn unslow(&mut self, core: &mut DecodeCore<'_>, s: usize, now: f64) {
        core.set_slowdown(s, 1.0, now);
        self.migrate_from[s] = false;
        self.straggler_closed[s] = false;
        if !core.dead[s] {
            core.accepting[s] = true;
        }
    }

    fn at_boundary(&mut self, core: &mut DecodeCore<'_>, s: usize, now: f64) {
        if self.migrate_from[s] {
            self.migrate_from[s] = false;
            core.shed(s, now, false, true);
        }
    }
}

impl<C: Controller<Slots>> FaultInjector<C, DecodeFaults> {
    /// The decode entry points' report of the finished run on `core`;
    /// the client books are over TTFT, what generative SLOs are written
    /// against.
    fn failure_report(&self, core: DecodeCore<'_>) -> DecodeFailureReport {
        let (trace, completion_s, ttft_s) = (
            core.trace,
            core.completion_s.clone(),
            core.disc.ttft_s.clone(),
        );
        let decode = core.into_report();
        let makespan = decode.fleet.makespan_s;
        DecodeFailureReport {
            decode,
            client: self.summarize(trace, &completion_s, Some(&ttft_s), makespan, &[]),
            affected_drain_s: self.per_core.affected_drain_s(&completion_s),
        }
    }
}

// ──────────────────────────── client books ────────────────────────────

/// The client's view of one run: per-request outcomes, disposition
/// tallies, SLO attainment and the incident phases. The latency the SLO
/// and the phases score is end-to-end for the fleet client and TTFT for
/// the decode client. [`DecodeFailureReport`] and [`DisaggFailureReport`]
/// hold it as `client`; [`FailureReport`] holds the same fields flat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientBooks {
    /// Per-request client outcomes in trace order.
    pub outcomes: Vec<ClientOutcome>,
    /// Requests that completed (on any attempt).
    pub completed: usize,
    /// Requests that never completed.
    pub timed_out: usize,
    /// Completed requests that needed at least one retry.
    pub retried: usize,
    /// Total retry events across all requests (including those that
    /// still timed out).
    pub retries: usize,
    /// Fraction of *all* requests inside the SLO (timed-out requests are
    /// misses).
    pub slo_attainment: f64,
    /// Pre / during / post incident slices ([`FaultPlan::incident_window`];
    /// one all-run phase for an empty plan).
    pub phases: Vec<IncidentPhase>,
}

/// Request `r`'s completion − original arrival; `f64::INFINITY` if it
/// never completed.
fn end_to_end_latency(completion_s: &[f64], arrivals: &[f64], r: usize) -> f64 {
    if completion_s[r].is_finite() {
        completion_s[r] - arrivals[r]
    } else {
        f64::INFINITY
    }
}

/// Request `r`'s time to first token; `f64::INFINITY` if it never got one.
fn ttft_latency(ttft_s: &[f64], r: usize) -> f64 {
    if ttft_s[r].is_finite() {
        ttft_s[r]
    } else {
        f64::INFINITY
    }
}

/// One incident phase's running counts while [`summarize_clients`] walks
/// the trace.
struct PhaseTally {
    lo: f64,
    hi: f64,
    arrivals: usize,
    slo_hits: usize,
    delivered: usize,
    /// The phase's finite latencies in trace order, one per arrival that
    /// completed.
    latencies: Vec<f64>,
}

/// Builds the [`ClientBooks`] of a finished run in one pass over the
/// trace. `arrivals` are the *original* trace arrivals; `latency_of(r)`
/// is the SLO/phase latency metric (end-to-end for the fleet client, TTFT
/// for the decode client), `f64::INFINITY` when the request never got
/// there.
///
/// The run is sliced into pre / during / post incident phases along
/// `window`. With no window the whole run is one phase; an unrecovered
/// incident leaves the post phase empty (`[∞, ∞)`), keeping the
/// three-phase shape stable for downstream indexing.
#[allow(clippy::too_many_arguments)]
fn summarize_clients(
    window: Option<(f64, f64)>,
    arrivals: &[f64],
    completion_s: &[f64],
    attempts: &[u32],
    latency_of: impl Fn(usize) -> f64,
    slo: f64,
    makespan: f64,
    scale_events: &[ScaleEvent],
) -> ClientBooks {
    let edges: Vec<f64> = match window {
        None => vec![0.0, f64::INFINITY],
        Some((w0, w1)) => vec![0.0, w0, w1, f64::INFINITY],
    };
    let mut tallies: Vec<PhaseTally> = edges
        .windows(2)
        .map(|w| PhaseTally {
            lo: w[0],
            hi: w[1],
            arrivals: 0,
            slo_hits: 0,
            delivered: 0,
            latencies: Vec::new(),
        })
        .collect();
    let mut outcomes = Vec::new();
    let (mut completed, mut retried, mut retries, mut slo_hits) = (0, 0, 0, 0);
    for r in 0..arrivals.len() {
        let done = completion_s[r].is_finite();
        let latency = latency_of(r);
        let tries = attempts[r];
        completed += usize::from(done);
        retried += usize::from(done && tries > 0);
        retries += tries as usize;
        slo_hits += usize::from(latency <= slo);
        outcomes.push(ClientOutcome {
            disposition: if !done {
                Disposition::TimedOut
            } else if tries > 0 {
                Disposition::Retried(tries)
            } else {
                Disposition::Completed
            },
            attempts: tries,
            completion_s: if done { completion_s[r] } else { f64::INFINITY },
            latency_s: end_to_end_latency(completion_s, arrivals, r),
        });
        for t in &mut tallies {
            if done && completion_s[r] >= t.lo && completion_s[r] < t.hi {
                t.delivered += 1;
            }
            if arrivals[r] >= t.lo && arrivals[r] < t.hi {
                t.arrivals += 1;
                if latency.is_finite() {
                    t.slo_hits += usize::from(latency <= slo);
                    t.latencies.push(latency);
                }
            }
        }
    }
    let phases = tallies
        .into_iter()
        .map(|mut t| {
            let hi_eff = if t.hi.is_finite() {
                t.hi
            } else {
                makespan.max(t.lo)
            };
            IncidentPhase {
                start_s: t.lo,
                end_s: t.hi,
                arrivals: t.arrivals,
                completed: t.latencies.len(),
                timed_out: t.arrivals - t.latencies.len(),
                slo_attainment: if t.arrivals == 0 {
                    1.0
                } else {
                    t.slo_hits as f64 / t.arrivals as f64
                },
                goodput_seq_s: t.delivered as f64 / (hi_eff - t.lo).max(1e-12),
                p95_latency_s: p95_mut(&mut t.latencies).unwrap_or(0.0),
                scale_events: scale_events
                    .iter()
                    .filter(|e| e.time_s >= t.lo && e.time_s < t.hi)
                    .count(),
            }
        })
        .collect();
    let books = ClientBooks {
        outcomes,
        completed,
        timed_out: arrivals.len() - completed,
        retried,
        retries,
        // The engines reject an empty trace, so the divisor is positive.
        slo_attainment: slo_hits as f64 / arrivals.len() as f64,
        phases,
    };
    #[cfg(test)]
    {
        let reference = reference_summary(
            window,
            arrivals,
            completion_s,
            attempts,
            &latency_of,
            slo,
            makespan,
            scale_events,
        );
        // `Debug` prints every f64 in its shortest round-trip form, so
        // equal strings mean equal bits.
        assert_eq!(
            format!("{books:?}"),
            format!("{reference:?}"),
            "client books diverged from the reference chain"
        );
    }
    books
}

/// Reference for [`summarize_clients`]: the chain the entry points ran
/// before it, one step after another. Build the outcomes, tally them,
/// override each outcome's latency with `latency_of` (TTFT for decode, a
/// no-op for the fleet), then slice phases and fold SLO attainment over
/// the overridden outcomes.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn reference_summary(
    window: Option<(f64, f64)>,
    arrivals: &[f64],
    completion_s: &[f64],
    attempts: &[u32],
    latency_of: &dyn Fn(usize) -> f64,
    slo: f64,
    makespan: f64,
    scale_events: &[ScaleEvent],
) -> ClientBooks {
    let outcomes: Vec<ClientOutcome> = (0..arrivals.len())
        .map(|r| {
            let done = completion_s[r].is_finite();
            ClientOutcome {
                disposition: if !done {
                    Disposition::TimedOut
                } else if attempts[r] > 0 {
                    Disposition::Retried(attempts[r])
                } else {
                    Disposition::Completed
                },
                attempts: attempts[r],
                completion_s: if done { completion_s[r] } else { f64::INFINITY },
                latency_s: if done {
                    completion_s[r] - arrivals[r]
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect();
    let completed = outcomes
        .iter()
        .filter(|o| o.completion_s.is_finite())
        .count();
    let retried = outcomes
        .iter()
        .filter(|o| matches!(o.disposition, Disposition::Retried(_)))
        .count();
    let overridden: Vec<ClientOutcome> = outcomes
        .iter()
        .enumerate()
        .map(|(r, o)| ClientOutcome {
            latency_s: latency_of(r),
            ..*o
        })
        .collect();
    let edges: Vec<f64> = match window {
        None => vec![0.0, f64::INFINITY],
        Some((w0, w1)) => vec![0.0, w0, w1, f64::INFINITY],
    };
    let phases = edges
        .windows(2)
        .map(|w| {
            let (lo, hi) = (w[0], w[1]);
            let in_phase: Vec<&ClientOutcome> = arrivals
                .iter()
                .zip(&overridden)
                .filter(|(&a, _)| a >= lo && a < hi)
                .map(|(_, o)| o)
                .collect();
            let completed_lat: Vec<f64> = in_phase
                .iter()
                .filter(|o| o.latency_s.is_finite())
                .map(|o| o.latency_s)
                .collect();
            let delivered = overridden
                .iter()
                .filter(|o| o.completion_s >= lo && o.completion_s < hi)
                .count();
            let hi_eff = if hi.is_finite() { hi } else { makespan.max(lo) };
            IncidentPhase {
                start_s: lo,
                end_s: hi,
                arrivals: in_phase.len(),
                completed: completed_lat.len(),
                timed_out: in_phase.len() - completed_lat.len(),
                slo_attainment: if in_phase.is_empty() {
                    1.0
                } else {
                    completed_lat.iter().filter(|&&l| l <= slo).count() as f64
                        / in_phase.len() as f64
                },
                goodput_seq_s: delivered as f64 / (hi_eff - lo).max(1e-12),
                p95_latency_s: lat_tensor::stats::percentile(&completed_lat, 0.95).unwrap_or(0.0),
                scale_events: scale_events
                    .iter()
                    .filter(|e| e.time_s >= lo && e.time_s < hi)
                    .count(),
            }
        })
        .collect();
    let slo_attainment =
        overridden.iter().filter(|o| o.latency_s <= slo).count() as f64 / arrivals.len() as f64;
    ClientBooks {
        timed_out: outcomes.len() - completed,
        retries: outcomes.iter().map(|o| o.attempts as usize).sum(),
        outcomes,
        completed,
        retried,
        slo_attainment,
        phases,
    }
}

// ───────────────────────────── entry points ────────────────────────────

/// Runs `trace` over a *fixed* fleet under `plan` and `client`,
/// reporting SLO attainment against `slo_latency_s` through the incident
/// window.
///
/// With [`FaultPlan::none`] and [`ClientConfig::patient`] the run is
/// bit-identical to [`crate::fleet::simulate_fleet`] (no extra events, no
/// arithmetic difference).
///
/// # Panics
///
/// Panics on the [`crate::fleet::simulate_fleet`] input errors, a
/// malformed plan or client, or a non-positive SLO.
#[allow(clippy::too_many_arguments)]
pub fn simulate_fleet_failure(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    batcher: &BatcherConfig,
    plan: &FaultPlan,
    client: &ClientConfig,
    slo_latency_s: f64,
) -> FailureReport {
    let mut injector = FaultInjector::new(
        NullController,
        (),
        plan,
        client,
        slo_latency_s,
        shards.len(),
        trace.len(),
    );
    let mut core = FleetCore::new(
        shards,
        trace,
        policy,
        dispatch,
        batcher,
        vec![true; shards.len()],
    );
    injector.prime(&mut core);
    core.run(&mut injector);
    injector.failure_report(core, &[])
}

/// Runs `trace` over an *autoscaled* fleet under `plan` and `client`.
/// The policy keeps evaluating through the incident: a crash frees its
/// billing immediately ([`crate::autoscale::ScaleEventKind::Failed`]),
/// and a recovered shard is launchable again but only rejoins through
/// the normal launch + warm-up path — so post-incident capacity, and
/// with it SLO recovery, lags the recovery instant by about one warm-up.
///
/// # Panics
///
/// Panics on [`crate::autoscale::simulate_autoscale`] input errors or a
/// malformed plan / client.
#[allow(clippy::too_many_arguments)]
pub fn simulate_autoscale_failure(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    batcher: &BatcherConfig,
    cfg: &AutoscaleConfig,
    plan: &FaultPlan,
    client: &ClientConfig,
) -> AutoscaleFailureReport {
    let (ctl, accepting) = cfg.autoscaler(shards.len());
    let mut injector = FaultInjector::new(
        ctl,
        (),
        plan,
        client,
        cfg.slo_latency_s,
        shards.len(),
        trace.len(),
    );
    let mut core = FleetCore::new(shards, trace, policy, dispatch, batcher, accepting);
    injector.prime(&mut core);
    // Unlike the healthy entry point, the controller always runs — even a
    // pinned policy must observe crashes to keep its books truthful (for
    // Pinned, `evaluate` is a no-op, so only the books differ).
    core.schedule_control(cfg.eval_interval_s);
    core.run(&mut injector);

    let failure = injector.failure_report(core, &injector.inner.pool.events);
    let ScaleBooks {
        shard_seconds,
        mean_active_shards,
        peak_active_shards,
        scale_events,
    } = injector.inner.pool.close_books(failure.fleet.makespan_s);
    AutoscaleFailureReport {
        failure,
        shard_seconds,
        mean_active_shards,
        peak_active_shards,
        scale_events,
    }
}

/// Runs a decode `trace` over a fixed generative fleet under `plan` and
/// `client`. `straggler_response` picks what happens to a straggler's KV
/// residents (drain in place at the slow rate vs migrate-and-re-prefill);
/// crashes always migrate, since a dead shard's KV is gone either way.
/// SLO attainment is over TTFT against `slo_ttft_s`.
///
/// # Panics
///
/// Panics on the [`crate::decode::simulate_decode`] input errors, a
/// malformed plan / client, a non-positive SLO, or a plan whose crashes
/// ever leave every shard down (the decode engine cannot park work; a
/// straggler closed to routing reopens when it is the last live shard).
#[allow(clippy::too_many_arguments)]
pub fn simulate_decode_failure(
    shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    cfg: &DecodeConfig,
    plan: &FaultPlan,
    client: &ClientConfig,
    straggler_response: DecodeScaleDown,
    slo_ttft_s: f64,
) -> DecodeFailureReport {
    let mut injector = FaultInjector::new(
        NullController,
        DecodeFaults::new(shards.len(), straggler_response),
        plan,
        client,
        slo_ttft_s,
        shards.len(),
        trace.len(),
    );
    let mut core = DecodeCore::new(
        shards,
        trace,
        policy,
        dispatch,
        scheduler,
        cfg,
        vec![true; shards.len()],
    );
    injector.prime(&mut core);
    core.run(&mut injector);

    injector.failure_report(core)
}

/// Result of a disaggregated failure simulation: the full
/// [`DisaggReport`] plus the same client-disposition and incident-phase
/// view as [`DecodeFailureReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggFailureReport {
    /// Disaggregated-serving view (pools, transfers, prefix cache).
    pub disagg: DisaggReport,
    /// Client outcomes, tallies and incident phases, scored on TTFT.
    pub client: ClientBooks,
    /// Latest completion time among the incident's KV-resident victims.
    pub affected_drain_s: f64,
}

/// [`simulate_disaggregated`](crate::disagg::simulate_disaggregated)
/// under a [`FaultPlan`] and a retrying client. Shard indices in the plan
/// are combined-fleet indices: `0..prefill_shards.len()` hits the prefill
/// pool, the rest the decode pool. A crashed decode shard's orphans (and
/// a straggler's migrated residents) lose their KV state, re-prefill on
/// the prefill pool, and hand off again; the controller re-closes the
/// decode pool to fresh arrivals after every recovery.
///
/// # Panics
///
/// Panics on the [`crate::disagg::simulate_disaggregated`] input errors,
/// a malformed plan / client, a non-positive SLO, or a plan whose crashes
/// leave every prefill shard down (a straggler closed to routing reopens
/// when it is the last live prefill shard).
#[allow(clippy::too_many_arguments)]
pub fn simulate_disagg_failure(
    prefill_shards: &[AcceleratorDesign],
    decode_shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    prefixes: &[Option<lat_workloads::prefix::PrefixGroup>],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    cfg: &DecodeConfig,
    dcfg: &DisaggConfig,
    plan: &FaultPlan,
    client: &ClientConfig,
    straggler_response: DecodeScaleDown,
    slo_ttft_s: f64,
) -> DisaggFailureReport {
    let designs = combined_fleet(prefill_shards, decode_shards, trace, prefixes, dcfg);
    let n_prefill = prefill_shards.len();
    let ctl = DisaggController::new(
        designs.len(),
        n_prefill,
        decode_shards.len(),
        prefixes,
        trace.len(),
        dcfg,
    );
    let mut injector = FaultInjector::new(
        ctl,
        DecodeFaults::new(designs.len(), straggler_response),
        plan,
        client,
        slo_ttft_s,
        designs.len(),
        trace.len(),
    );
    let accepting: Vec<bool> = (0..designs.len()).map(|s| s < n_prefill).collect();
    let mut core = DecodeCore::new(&designs, trace, policy, dispatch, scheduler, cfg, accepting);
    injector.prime(&mut core);
    core.run(&mut injector);

    let DecodeFailureReport {
        decode,
        client,
        affected_drain_s,
    } = injector.failure_report(core);
    DisaggFailureReport {
        disagg: injector.inner.into_report(decode),
        client,
        affected_drain_s,
    }
}

#[cfg(test)]
#[path = "../../../tests/support/value_fold.rs"]
mod value_fold;

#[cfg(test)]
mod tests {
    use super::value_fold::value_fold;
    use super::*;
    use crate::autoscale::{RetirePolicy, ScaleEventKind, ScalePolicy};
    use crate::decode::Priority;
    use crate::fleet::{homogeneous_fleet, simulate_fleet, with_batch_log};
    use crate::spec::FpgaSpec;
    use lat_model::config::ModelConfig;
    use lat_model::graph::AttentionMode;

    fn tiny_design(s_avg: usize) -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            s_avg,
        )
    }

    /// `n` requests, one every `gap` seconds.
    fn steady_trace(n: usize, gap: f64, len: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                arrival_s: i as f64 * gap,
                len,
            })
            .collect()
    }

    fn steady_decode_trace(
        n: usize,
        gap: f64,
        prefill: usize,
        output: usize,
    ) -> Vec<DecodeRequest> {
        (0..n)
            .map(|i| DecodeRequest {
                arrival_s: i as f64 * gap,
                prefill_len: prefill,
                output_len: output,
                priority: Priority::Normal,
            })
            .collect()
    }

    fn batcher() -> BatcherConfig {
        BatcherConfig {
            max_batch: 4,
            batch_window_s: 0.002,
        }
    }

    #[test]
    fn empty_plan_patient_client_matches_healthy_fleet_bit_for_bit() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = steady_trace(40, 0.003, 64);
        let healthy = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::RoundRobin,
                &batcher(),
            )
        });
        let report = with_batch_log(|| {
            simulate_fleet_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::RoundRobin,
                &batcher(),
                &FaultPlan::none(),
                &ClientConfig::patient(),
                0.25,
            )
        });
        assert_eq!(report.fleet, healthy);
        assert_eq!(report.completed, trace.len());
        assert_eq!(report.timed_out, 0);
        assert_eq!(report.retries, 0);
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.disposition == Disposition::Completed));
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].arrivals, trace.len());
    }

    #[test]
    fn crash_with_recovery_loses_nothing() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = steady_trace(120, 0.002, 64);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.05,
                    recover_s: Some(0.15),
                },
            }],
        };
        let report = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher(),
            &plan,
            &ClientConfig::patient(),
            0.25,
        );
        // A patient client over a recovering fleet completes everything:
        // the crash re-routes, never drops.
        assert_eq!(report.completed, trace.len());
        assert_eq!(report.timed_out, 0);
        assert_eq!(report.completed + report.timed_out, trace.len());
        assert_eq!(report.phases.len(), 3);
        assert_eq!(
            report.phases.iter().map(|p| p.arrivals).sum::<usize>(),
            trace.len()
        );
        // The revived shard serves again after recovery.
        assert!(report.fleet.shards[0].completed > 0);
    }

    #[test]
    fn unrecovered_total_outage_produces_valid_zero_completion_report() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace = steady_trace(10, 0.01, 64);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.0,
                    recover_s: None,
                },
            }],
        };
        let report = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher(),
            &plan,
            &ClientConfig::patient(),
            0.25,
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.timed_out, trace.len());
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.disposition == Disposition::TimedOut));
        // The report stays NaN-free all the way down to zero completions.
        assert_eq!(report.fleet.completed, 0);
        assert_eq!(report.fleet.mean_latency_s, 0.0);
        assert_eq!(report.fleet.p99_latency_s, 0.0);
        assert_eq!(report.slo_attainment, 0.0);
        assert!(report.goodput_seq_s == 0.0);
        for p in &report.phases {
            assert!(!p.slo_attainment.is_nan());
            assert!(!p.goodput_seq_s.is_nan());
        }
    }

    #[test]
    fn timeouts_retry_then_abandon_within_budget() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace = steady_trace(8, 0.005, 64);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.0,
                    recover_s: None,
                },
            }],
        };
        let client = ClientConfig {
            timeout_s: 0.02,
            max_retries: 3,
            backoff_s: 0.01,
            deadline_s: f64::INFINITY,
        };
        let report = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher(),
            &plan,
            &client,
            0.25,
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.timed_out, trace.len());
        // Everyone exhausts exactly the retry budget, no more.
        assert!(report.outcomes.iter().all(|o| o.attempts == 3));
        assert_eq!(report.retries, 3 * trace.len());
    }

    /// True when no request has a pending timeout, by the reference scan.
    fn scan_is_empty(t: &ClientTimeouts) -> bool {
        t.at.iter().all(|at| at.is_infinite())
    }

    /// Asserts a run exercised the due set's hard cases: several timeouts
    /// on one instant, and retries coming due after later requests' first
    /// attempts (out of index order).
    fn assert_fired_hard_cases(fired: &[(f64, usize)]) {
        assert!(
            fired.windows(2).any(|w| w[0].0 == w[1].0),
            "no instant fired several timeouts"
        );
        let mut max_seen = 0;
        let out_of_order = fired.iter().any(|&(_, r)| {
            let behind = r < max_seen;
            max_seen = max_seen.max(r);
            behind
        });
        assert!(out_of_order, "timeouts never came due out of index order");
    }

    #[test]
    fn client_timeouts_match_the_scan_step_by_step() {
        // `take_due` asserts against the scan on every call in test
        // builds; this drives it through retries, ties and re-arms.
        let mut t = ClientTimeouts::new(6);
        assert!(t.is_empty());
        let arrivals = [0.0, 0.0, 0.1, 0.1, 0.1, 0.4];
        t.arm_first_attempts(arrivals.iter().copied(), 0.5);
        assert!(!t.is_empty());
        assert!(t.take_due(0.4).is_empty());
        assert_eq!(t.take_due(0.5), vec![0, 1]);
        t.arm_retry(1, 0.6);
        t.arm_retry(0, 0.6);
        assert_eq!(t.take_due(0.6), vec![0, 1, 2, 3, 4]);
        t.arm_retry(3, 0.7);
        assert_eq!(t.take_due(0.7), vec![3]);
        assert!(!t.is_empty());
        assert_eq!(t.take_due(0.9), vec![5]);
        assert!(t.is_empty() && scan_is_empty(&t));
        t.arm_retry(2, 1.0);
        assert!(!t.is_empty());
        assert_eq!(t.take_due(2.0), vec![2]);
        assert!(t.is_empty() && scan_is_empty(&t));
        let fired: Vec<usize> = t.fired.iter().map(|&(_, r)| r).collect();
        assert_eq!(fired, vec![0, 1, 0, 1, 2, 3, 4, 3, 5, 2]);
    }

    #[test]
    fn due_set_fires_like_the_scan_on_both_cores() {
        // Bursts of four identical arrivals put first-attempt timeouts
        // four to an instant; an outage (fleet) or a straggling sole shard
        // (decode) makes requests time out and retry, and the retries'
        // timeouts fall between later requests' first attempts.
        let client = ClientConfig {
            timeout_s: 0.01,
            max_retries: 3,
            backoff_s: 0.002,
            deadline_s: f64::INFINITY,
        };
        let arrival = |i: usize| (i / 4) as f64 * 0.003;

        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace: Vec<Request> = (0..48)
            .map(|i| Request {
                arrival_s: arrival(i),
                len: 64,
            })
            .collect();
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.0,
                    recover_s: Some(0.03),
                },
            }],
        };
        let batcher = batcher();
        let mut core = FleetCore::new(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher,
            vec![true],
        );
        let mut injector =
            FaultInjector::new(NullController, (), &plan, &client, 0.25, 1, trace.len());
        injector.prime(&mut core);
        core.run(&mut injector);
        assert!(injector.attempts.iter().any(|&a| a > 0));
        assert_fired_hard_cases(&injector.timeouts.fired);
        assert!(injector.timeouts.is_empty() && scan_is_empty(&injector.timeouts));

        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace: Vec<DecodeRequest> = (0..48)
            .map(|i| DecodeRequest {
                arrival_s: arrival(i),
                prefill_len: 48,
                output_len: 40,
                priority: Priority::Normal,
            })
            .collect();
        let cfg = DecodeConfig::default();
        let mut core = DecodeCore::new(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            DecodeScheduler::Continuous,
            &cfg,
            vec![true],
        );
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Straggler {
                    from_s: 0.0,
                    until_s: 0.03,
                    slowdown: 500.0,
                },
            }],
        };
        let mut injector = FaultInjector::new(
            NullController,
            DecodeFaults::new(1, DecodeScaleDown::Drain),
            &plan,
            &client,
            0.25,
            1,
            trace.len(),
        );
        injector.prime(&mut core);
        core.run(&mut injector);
        assert!(injector.attempts.iter().any(|&a| a > 0));
        assert_fired_hard_cases(&injector.timeouts.fired);
        assert!(injector.timeouts.is_empty() && scan_is_empty(&injector.timeouts));
    }

    #[test]
    fn deadline_caps_retries_before_max_retries() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace = steady_trace(4, 0.005, 64);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.0,
                    recover_s: None,
                },
            }],
        };
        let client = ClientConfig {
            timeout_s: 0.02,
            max_retries: 100,
            backoff_s: 0.0,
            deadline_s: 0.05, // fits ~2 timeout periods
        };
        let report = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher(),
            &plan,
            &client,
            0.25,
        );
        let bound = client.attempt_bound();
        assert!(bound < 100);
        assert!(report.outcomes.iter().all(|o| o.attempts <= bound));
    }

    #[test]
    fn straggler_repricing_stretches_the_run_then_recovers() {
        let fleet = homogeneous_fleet(&tiny_design(64), 1);
        let trace = steady_trace(30, 0.004, 64);
        let healthy = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher(),
        );
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Straggler {
                    from_s: 0.01,
                    until_s: 0.08,
                    slowdown: 10.0,
                },
            }],
        };
        let report = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            &batcher(),
            &plan,
            &ClientConfig::patient(),
            0.25,
        );
        assert_eq!(report.completed, trace.len());
        assert!(
            report.fleet.mean_latency_s > healthy.mean_latency_s,
            "batches dispatched inside a ×10 straggler window must cost \
             latency (straggler {} vs healthy {})",
            report.fleet.mean_latency_s,
            healthy.mean_latency_s
        );
    }

    #[test]
    fn autoscaled_crash_stops_billing_and_relaunches_through_warmup() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = steady_trace(400, 0.001, 64);
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 2,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 0.5,
            },
            retire: RetirePolicy::Evict,
            eval_interval_s: 0.01,
            warmup_s: 0.02,
            cooldown_s: 0.0,
            slo_latency_s: 0.25,
            phase_bounds_s: Vec::new(),
        };
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.1,
                    recover_s: Some(0.2),
                },
            }],
        };
        let report = simulate_autoscale_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher(),
            &cfg,
            &plan,
            &ClientConfig::patient(),
        );
        assert_eq!(report.failure.completed, trace.len());
        let kinds: Vec<ScaleEventKind> = report.scale_events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ScaleEventKind::Failed));
        assert!(kinds.contains(&ScaleEventKind::Recovered));
        // Crashed capacity is not billed: the books never exceed what an
        // always-everything-on fleet would have paid.
        assert!(report.shard_seconds < fleet.len() as f64 * report.failure.fleet.makespan_s);
        assert!(report.shard_seconds > 0.0);
        assert_eq!(report.failure.phases.len(), 3);
    }

    #[test]
    fn decode_crash_reroutes_residents_and_finishes_generation() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = steady_decode_trace(24, 0.002, 48, 12);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.05,
                    recover_s: Some(0.2),
                },
            }],
        };
        let report = simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::RoundRobin,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &plan,
            &ClientConfig::patient(),
            DecodeScaleDown::Migrate,
            0.25,
        );
        assert_eq!(report.client.completed, trace.len());
        assert_eq!(report.client.timed_out, 0);
        // Every request generated its full output despite the crash.
        let want: u64 = trace.iter().map(|r| r.output_len as u64).sum();
        assert_eq!(report.decode.generated_tokens, want);
        assert!(report.affected_drain_s.is_finite());
    }

    #[test]
    fn decode_migrate_beats_drain_on_straggler_victims() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        // Long generations: the straggler's residents are the story.
        let trace = steady_decode_trace(18, 0.001, 48, 60);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Straggler {
                    from_s: 0.02,
                    until_s: 2.0,
                    slowdown: 25.0,
                },
            }],
        };
        let run = |resp| {
            simulate_decode_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::RoundRobin,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &plan,
                &ClientConfig::patient(),
                resp,
                0.25,
            )
        };
        let migrate = run(DecodeScaleDown::Migrate);
        let drain = run(DecodeScaleDown::Drain);
        assert_eq!(migrate.client.completed, trace.len());
        assert_eq!(drain.client.completed, trace.len());
        assert!(
            migrate.affected_drain_s <= drain.affected_drain_s,
            "migrating victims off a ×25 straggler cannot be slower than \
             decoding them in place (migrate {} vs drain {})",
            migrate.affected_drain_s,
            drain.affected_drain_s
        );
    }

    #[test]
    fn incident_window_is_the_fault_hull() {
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    shard: 0,
                    kind: FaultKind::Straggler {
                        from_s: 1.0,
                        until_s: 2.0,
                        slowdown: 4.0,
                    },
                },
                Fault {
                    shard: 1,
                    kind: FaultKind::Crash {
                        at_s: 0.5,
                        recover_s: Some(3.0),
                    },
                },
            ],
        };
        plan.validate(2);
        assert_eq!(plan.incident_window(), Some((0.5, 3.0)));
        assert_eq!(FaultPlan::none().incident_window(), None);
    }

    #[test]
    #[should_panic(expected = "overlapping fault intervals")]
    fn overlapping_faults_on_one_shard_rejected() {
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    shard: 0,
                    kind: FaultKind::Crash {
                        at_s: 1.0,
                        recover_s: Some(2.0),
                    },
                },
                Fault {
                    shard: 0,
                    kind: FaultKind::Straggler {
                        from_s: 1.5,
                        until_s: 2.5,
                        slowdown: 2.0,
                    },
                },
            ],
        };
        plan.validate(1);
    }

    #[test]
    #[should_panic(expected = "fault shard out of range")]
    fn out_of_range_fault_shard_rejected() {
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 2,
                kind: FaultKind::Crash {
                    at_s: 1.0,
                    recover_s: None,
                },
            }],
        };
        plan.validate(2);
    }

    fn disagg_cfg() -> DisaggConfig {
        DisaggConfig {
            transfer: crate::decode::KvTransfer::Copy {
                base_s: 1e-5,
                per_token_s: 1e-8,
            },
            prefix_cache_capacity: 0,
        }
    }

    fn run_disagg_failure(
        n_prefill: usize,
        n_decode: usize,
        trace: &[DecodeRequest],
        plan: &FaultPlan,
    ) -> DisaggFailureReport {
        let fleet = homogeneous_fleet(&tiny_design(64), n_prefill.max(n_decode));
        simulate_disagg_failure(
            &fleet[..n_prefill],
            &fleet[..n_decode],
            trace,
            &[],
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &disagg_cfg(),
            plan,
            &ClientConfig::patient(),
            DecodeScaleDown::Migrate,
            0.25,
        )
    }

    /// Empty plan + infinitely patient client: the failure layer adds no
    /// events, so the disagg run is bit-identical to the plain engine.
    #[test]
    fn disagg_healthy_failure_run_is_bit_identical_to_plain() {
        let trace = steady_decode_trace(20, 0.002, 48, 12);
        let healthy = with_batch_log(|| run_disagg_failure(2, 2, &trace, &FaultPlan::none()));
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let plain = with_batch_log(|| {
            crate::disagg::simulate_disaggregated(
                &fleet,
                &fleet,
                &trace,
                &[],
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &disagg_cfg(),
            )
        });
        assert_eq!(healthy.disagg, plain);
        assert_eq!(healthy.client.completed, trace.len());
        assert_eq!(healthy.client.timed_out, 0);
        assert_eq!(healthy.client.retries, 0);
    }

    /// A decode-pool crash orphans in-flight generations; they re-prefill
    /// on the prefill pool, hand off again, and still all complete.
    #[test]
    fn disagg_decode_pool_crash_recovers_and_completes() {
        // Few, very long generations: the crash lands mid-decode for
        // certain instead of racing the (sub-millisecond) decode dwell.
        let trace = steady_decode_trace(4, 0.0002, 48, 4000);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 2, // first decode shard of a 2+2 fleet
                kind: FaultKind::Crash {
                    at_s: 0.001,
                    recover_s: Some(0.05),
                },
            }],
        };
        let r = run_disagg_failure(2, 2, &trace, &plan);
        assert_eq!(r.client.completed, trace.len());
        assert_eq!(r.client.timed_out, 0);
        let want: u64 = trace.iter().map(|q| q.output_len as u64).sum();
        assert_eq!(r.disagg.decode.generated_tokens, want);
        // Orphaned generations crossed the interconnect a second time.
        assert!(r.disagg.transfers > trace.len());
        // The revived decode shard must NOT accept fresh arrivals: all
        // completions belong to a pool, none to a stray admission path.
        assert_eq!(
            r.disagg.prefill_pool.completed + r.disagg.decode_pool.completed,
            trace.len()
        );
        assert!(r.affected_drain_s.is_finite() && r.affected_drain_s > 0.0);
    }

    /// A prefill-pool crash re-routes queued prompts to the surviving
    /// prefill shard; nothing lands on the decode pool early.
    #[test]
    fn disagg_prefill_pool_crash_completes_on_survivor() {
        let trace = steady_decode_trace(14, 0.002, 48, 10);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.01,
                    recover_s: None,
                },
            }],
        };
        let r = run_disagg_failure(2, 2, &trace, &plan);
        assert_eq!(r.client.completed, trace.len());
        assert_eq!(r.client.timed_out, 0);
        let multi = trace.iter().filter(|q| q.output_len > 1).count();
        assert!(r.disagg.transfers >= multi);
    }

    /// A straggler on `straggler` closes it to routing while `crashed`
    /// still accepts; the crash then takes the last accepting shard.
    fn straggler_then_crash_plan(straggler: usize, crashed: usize) -> FaultPlan {
        FaultPlan {
            faults: vec![
                Fault {
                    shard: straggler,
                    kind: FaultKind::Straggler {
                        from_s: 0.01,
                        until_s: 0.5,
                        slowdown: 4.0,
                    },
                },
                Fault {
                    shard: crashed,
                    kind: FaultKind::Crash {
                        at_s: 0.02,
                        recover_s: Some(0.3),
                    },
                },
            ],
        }
    }

    /// The straggler reopens instead of the run panicking with no
    /// accepting shard, and every generation still runs in full.
    #[test]
    fn decode_straggler_then_crash_reopens_the_straggler() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = steady_decode_trace(24, 0.002, 48, 12);
        let want: u64 = trace.iter().map(|q| q.output_len as u64).sum();
        for response in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
            let r = simulate_decode_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &straggler_then_crash_plan(0, 1),
                &ClientConfig::patient(),
                response,
                0.25,
            );
            assert_eq!(r.client.completed, trace.len(), "{response:?}");
            assert_eq!(r.decode.generated_tokens, want, "{response:?}");
        }
    }

    /// The disagg twin: the straggling prefill shard reopens when the
    /// other prefill shard crashes.
    #[test]
    fn disagg_straggler_then_crash_reopens_the_straggler() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = steady_decode_trace(24, 0.002, 48, 12);
        let want: u64 = trace.iter().map(|q| q.output_len as u64).sum();
        for response in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
            let r = simulate_disagg_failure(
                &fleet,
                &fleet,
                &trace,
                &[],
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &disagg_cfg(),
                &straggler_then_crash_plan(0, 1),
                &ClientConfig::patient(),
                response,
                0.25,
            );
            assert_eq!(r.client.completed, trace.len(), "{response:?}");
            assert_eq!(r.disagg.decode.generated_tokens, want, "{response:?}");
        }
    }

    // ── exact client books vs the reference chain ──
    //
    // Under `cfg(test)`, `summarize_clients` asserts its exact path
    // against `reference_summary` on every call, so each test below
    // checks one entry point bit for bit through a run with crashes,
    // retries and abandonments.

    /// The seed the property suites run under: `HARNESS_SEED` (decimal
    /// or `0x` hex) if set, else their default. `lat-bench`, which owns
    /// the helper, depends on this crate, so it is mirrored here.
    fn harness_seed() -> u64 {
        match std::env::var("HARNESS_SEED") {
            Ok(s) => {
                let s = s.trim();
                match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                }
                .expect("HARNESS_SEED is not a u64")
            }
            Err(_) => 0xDAC2_2022,
        }
    }

    /// Shard 0 crashes and recovers; meanwhile shard 1, left alone,
    /// drags ×100, so queued requests time out, retry and abandon.
    fn surge_plan() -> FaultPlan {
        FaultPlan {
            faults: vec![
                Fault {
                    shard: 0,
                    kind: FaultKind::Crash {
                        at_s: 0.1,
                        recover_s: Some(1.0),
                    },
                },
                Fault {
                    shard: 1,
                    kind: FaultKind::Straggler {
                        from_s: 0.15,
                        until_s: 0.8,
                        slowdown: 100.0,
                    },
                },
            ],
        }
    }

    /// Fires fast, gives up fast: queued requests retry, then abandon.
    fn hasty_client() -> ClientConfig {
        ClientConfig {
            timeout_s: 0.01,
            max_retries: 3,
            backoff_s: 0.005,
            deadline_s: 0.03,
        }
    }

    /// Reactive scaling on a fast tick, evicting on retire.
    fn reactive_autoscale() -> AutoscaleConfig {
        AutoscaleConfig {
            min_shards: 1,
            initial_shards: 2,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 0.5,
            },
            retire: RetirePolicy::Evict,
            eval_interval_s: 0.01,
            warmup_s: 0.02,
            cooldown_s: 0.0,
            slo_latency_s: 0.25,
            phase_bounds_s: Vec::new(),
        }
    }

    fn assert_stormy(tag: &str, retries: usize, timed_out: usize) {
        assert!(retries > 0, "{tag}: no client retried");
        assert!(timed_out > 0, "{tag}: no client abandoned");
    }

    #[test]
    fn fleet_exact_summary_matches_reference_chain() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = crate::fleet::poisson_trace(
            &lat_workloads::datasets::DatasetSpec::rte(),
            8000.0,
            2000,
            harness_seed(),
        );
        let r = simulate_fleet_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher(),
            &surge_plan(),
            &hasty_client(),
            0.25,
        );
        assert_stormy("fleet", r.retries, r.timed_out);
    }

    #[test]
    fn autoscale_exact_summary_matches_reference_chain() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = crate::fleet::poisson_trace(
            &lat_workloads::datasets::DatasetSpec::rte(),
            8000.0,
            2000,
            harness_seed(),
        );
        let r = simulate_autoscale_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher(),
            &reactive_autoscale(),
            &surge_plan(),
            &hasty_client(),
        );
        assert_stormy("autoscale", r.failure.retries, r.failure.timed_out);
        assert!(r.failure.phases.iter().any(|p| p.scale_events > 0));
    }

    #[test]
    fn decode_exact_summary_matches_reference_chain() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let mrpc = lat_workloads::datasets::DatasetSpec::mrpc();
        let trace = crate::decode::decode_trace(
            &mrpc,
            &mrpc.decode_output(),
            0.2,
            8000.0,
            2000,
            harness_seed(),
        );
        let r = simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &surge_plan(),
            &hasty_client(),
            DecodeScaleDown::Migrate,
            0.1,
        );
        assert_stormy("decode", r.client.retries, r.client.timed_out);
    }

    #[test]
    fn disagg_exact_summary_matches_reference_chain() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let mrpc = lat_workloads::datasets::DatasetSpec::mrpc();
        let trace = crate::decode::decode_trace(
            &mrpc,
            &mrpc.decode_output(),
            0.2,
            8000.0,
            2000,
            harness_seed(),
        );
        // The surge hits the prefill pool while decode shard 2 crashes,
        // orphaning its residents onto a second prefill pass.
        let mut plan = surge_plan();
        plan.faults.push(Fault {
            shard: 2,
            kind: FaultKind::Crash {
                at_s: 0.2,
                recover_s: Some(0.6),
            },
        });
        let r = simulate_disagg_failure(
            &fleet,
            &fleet,
            &trace,
            &[],
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &disagg_cfg(),
            &plan,
            &hasty_client(),
            DecodeScaleDown::Migrate,
            0.1,
        );
        assert_stormy("disagg", r.client.retries, r.client.timed_out);
    }

    /// 64-bit FNV-1a of `s`.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every entry point through the surge plan and the hasty client,
    /// hashed over its `Debug` form: `Debug` prints each f64 in its
    /// shortest round-trip form, so equal hashes mean bit-identical
    /// reports. Decode and disagg run under both straggler responses: once
    /// on two shards, where the crash leaves the straggler alone and
    /// clients time out, and once on three with long generations, where
    /// the straggler sheds its residents onto a healthy peer, so the two
    /// responses differ. The seed is fixed so the constants hold at any
    /// `HARNESS_SEED`.
    #[test]
    fn faulted_reports_match_their_recorded_fingerprints() {
        const SEED: u64 = 17;
        let three = homogeneous_fleet(&tiny_design(64), 3);
        let two = &three[..2];
        let rte = lat_workloads::datasets::DatasetSpec::rte();
        let trace = crate::fleet::poisson_trace(&rte, 8000.0, 1500, SEED);
        let mrpc = lat_workloads::datasets::DatasetSpec::mrpc();
        let decode_trace =
            crate::decode::decode_trace(&mrpc, &mrpc.decode_output(), 0.2, 8000.0, 1500, SEED);
        // Long generations keep residents on every shard at fault onset.
        let long_trace = steady_decode_trace(240, 0.001, 48, 200);
        let (plan, client, cfg) = (surge_plan(), hasty_client(), reactive_autoscale());
        let (lp, dp, b) = (
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            batcher(),
        );
        let (cont, dcfg) = (DecodeScheduler::Continuous, DecodeConfig::default());
        // The recorded constants hash the batch log too.
        let (prints, values) = with_batch_log(|| {
            let (mut prints, mut values) = (Vec::new(), Vec::new());
            let r = simulate_fleet_failure(two, &trace, lp, dp, &b, &plan, &client, 0.25);
            assert_stormy("fleet", r.retries, r.timed_out);
            prints.push(fnv1a(&format!("{r:?}")));
            let r = simulate_autoscale_failure(two, &trace, lp, dp, &b, &cfg, &plan, &client);
            assert_stormy("autoscale", r.failure.retries, r.failure.timed_out);
            prints.push(fnv1a(&format!("{r:?}")));
            for (shards, dtrace) in [(two, &decode_trace), (&three[..], &long_trace)] {
                // The disagg plan also crashes the first decode shard.
                let mut disagg_plan = surge_plan();
                disagg_plan.faults.push(Fault {
                    shard: shards.len(),
                    kind: FaultKind::Crash {
                        at_s: 0.2,
                        recover_s: Some(0.6),
                    },
                });
                for response in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
                    let r = simulate_decode_failure(
                        shards, dtrace, lp, dp, cont, &dcfg, &plan, &client, response, 0.1,
                    );
                    if shards.len() == 2 {
                        assert_stormy("decode", r.client.retries, r.client.timed_out);
                    }
                    prints.push(fnv1a(&format!("{r:?}")));
                    values.push(value_fold(&r));
                    let r = simulate_disagg_failure(
                        shards,
                        two,
                        dtrace,
                        &[],
                        lp,
                        dp,
                        cont,
                        &dcfg,
                        &disagg_cfg(),
                        &disagg_plan,
                        &client,
                        response,
                        0.1,
                    );
                    if shards.len() == 2 {
                        assert_stormy("disagg", r.client.retries, r.client.timed_out);
                    }
                    prints.push(fnv1a(&format!("{r:?}")));
                    values.push(value_fold(&r));
                }
            }
            (prints, values)
        });
        // Fleet, autoscale, then (two shards, three shards) ×
        // (drain, migrate) × (decode, disagg).
        let expected: [u64; 10] = [
            0x1b6b_3ba3_4eaa_52a6,
            0x216c_0514_401f_3248,
            0xa179_afb7_2b5c_5b5a,
            0x68bf_7d23_3d29_7971,
            0xa179_afb7_2b5c_5b5a,
            0x68bf_7d23_3d29_7971,
            0xa4c7_922a_04dc_dbbe,
            0x38b8_5f0a_9cfe_fd82,
            0x7cb0_82c9_0bcd_863f,
            0xfbb1_aa9a_4d8d_f3f7,
        ];
        assert_eq!(prints, expected, "faulted report fingerprints moved");
        // The decode and disagg entries' value fingerprints, which hold
        // when a report's fields are renamed or nested.
        let expected_values: [u64; 8] = [
            0x9feb_965a_1d5e_7c86,
            0xf039_970e_52f9_1ca0,
            0x9feb_965a_1d5e_7c86,
            0xf039_970e_52f9_1ca0,
            0x5678_bab3_6ead_636a,
            0xd5b9_5989_dad9_b174,
            0x71e6_a8ba_c460_8f68,
            0xb95e_1a0b_d7e9_a6a4,
        ];
        assert_eq!(values, expected_values, "faulted report values moved");
    }

    /// A decode engine cannot park work: crashing both shards of a
    /// two-shard fleet for good panics instead of stranding requests.
    #[test]
    #[should_panic(expected = "decode fault plan killed every accepting shard")]
    fn decode_plan_crashing_every_shard_panics() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = steady_decode_trace(12, 0.002, 48, 12);
        let crash = |shard| Fault {
            shard,
            kind: FaultKind::Crash {
                at_s: 0.01,
                recover_s: None,
            },
        };
        simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &FaultPlan {
                faults: vec![crash(0), crash(1)],
            },
            &ClientConfig::patient(),
            DecodeScaleDown::Drain,
            0.25,
        );
    }

    /// The disagg twin: crashing the only prefill shard panics even
    /// though it recovers later, since its queue has nowhere to go.
    #[test]
    #[should_panic(expected = "decode fault plan killed every accepting shard")]
    fn disagg_plan_crashing_the_only_prefill_shard_panics() {
        let trace = steady_decode_trace(12, 0.002, 48, 12);
        let plan = FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.01,
                    recover_s: Some(0.05),
                },
            }],
        };
        run_disagg_failure(1, 2, &trace, &plan);
    }

    /// Completions landing exactly on both incident edges: each belongs
    /// to the phase it opens, not the one it closes.
    #[test]
    fn summary_buckets_edge_completions_like_the_reference_chain() {
        let arrivals = [0.0, 0.5, 1.0, 1.5, 2.0];
        let completion_s = [1.0, 2.0, f64::INFINITY, 3.0, 2.5];
        let attempts = [0, 1, 2, 0, 1];
        let latency_of = |r: usize| end_to_end_latency(&completion_s, &arrivals, r);
        let s = summarize_clients(
            Some((1.0, 2.0)),
            &arrivals,
            &completion_s,
            &attempts,
            latency_of,
            1.2,
            3.0,
            &[],
        );
        let delivered: Vec<f64> = s.phases.iter().map(|p| p.goodput_seq_s).collect();
        assert_eq!(delivered, [0.0, 1.0, 3.0]);
        assert_eq!((s.completed, s.timed_out, s.retried), (4, 1, 2));
    }
}
