//! Runtime autoscaling over the fleet engine: shard join/retire driven by
//! pluggable policies under nonstationary load.
//!
//! The encoder fleet ([`crate::fleet`]) and decode engine
//! ([`crate::decode`]) simulate a *fixed* shard count, which wastes
//! shard-seconds in the trough of a diurnal load curve and blows latency
//! SLOs at its peak. This module drives the same event-driven core with
//! one controller, `Autoscaler`, that changes fleet membership at
//! runtime over either batching discipline:
//!
//! - [`ScalePolicy::Pinned`] — never scales; with `min == max` shards this
//!   reproduces [`simulate_fleet`](crate::fleet::simulate_fleet) **bit-for-bit** (it is literally the
//!   same code path), which `tests/autoscale_props.rs` pins.
//! - [`ScalePolicy::Reactive`] — queue-depth threshold with hysteresis:
//!   scale up one shard when mean waiting depth per accepting shard
//!   crosses `scale_up_depth`, down when it falls below
//!   `scale_down_depth`.
//! - [`ScalePolicy::UtilizationTarget`] — hold the fleet's busy fraction
//!   over the last evaluation window inside `[low, high]`.
//! - [`ScalePolicy::Scheduled`] — a time-of-day table of shard counts
//!   (applied at evaluation ticks).
//!
//! **Scale-up** pays a configurable warm-up delay (weight streaming into a
//! cold shard's HBM) before the shard joins dispatch; a warming shard is
//! paid for (shard-seconds) but never admits work. **Scale-down** follows
//! the decode engine's eviction-vs-drain split: [`RetirePolicy::Drain`]
//! stops routing to the shard and lets it finish its queued work before
//! retiring; [`RetirePolicy::Evict`] re-routes the queued (not yet
//! dispatched) requests to the surviving shards immediately — like decode
//! preemption, evicted work loses its place and re-queues, but is never
//! dropped. In both cases an in-flight batch always completes. If load
//! re-spikes while a shard is still draining, scale-up *recalls* it —
//! it rejoins dispatch immediately (weights still resident, no warm-up;
//! the event log shows a bare `Join`) instead of cold-launching a
//! replacement.
//!
//! The [`AutoscaleReport`] extends the [`FleetReport`] with the cost side
//! of the trade, its [`ScaleBooks`] — shard-seconds (the cost proxy a
//! deployment bills by), mean/peak active shards and the scaling-event
//! log — plus SLO attainment overall and per workload phase: enough to
//! sweep a cost × p95 frontier, which the `ablate_autoscale` bin does
//! under a 4× diurnal swing. The decode and disaggregated autoscalers
//! report the same books, one per scaled pool.
//!
//! ## Predictive scaling
//!
//! The feedback policies only react *after* a backlog forms, so every
//! up-ramp eats a queueing spike plus a warm-up delay before relief
//! arrives. [`ScalePolicy::Predictive`] instead scales on a *forecast*:
//! a [`RateForecaster`] turns the observed arrival stream into a
//! windowed-EWMA rate estimate, optionally sharpened by a least-squares
//! diurnal-harmonic fit at a known period, and the policy provisions
//! `ceil(forecast(now + horizon) / shard_capacity)` shards — launching
//! capacity one warm-up *ahead* of the demand it predicts. The estimator
//! consumes only `(simulation time, cumulative arrivals)` pairs — no wall
//! clock, no RNG — so predictive runs stay bit-reproducible (pinned by
//! the determinism properties in `tests/autoscale_props.rs` and
//! `tests/decode_autoscale_props.rs`).
//!
//! ## Decode autoscaling
//!
//! [`simulate_decode_autoscale`] applies the same policy machinery to the
//! generative-decode engine ([`crate::decode`]), where scale-down is
//! harder: a retiring shard holds *KV-resident* sequences mid-generation,
//! not just queued work. [`DecodeScaleDown::Drain`] lets residents decode
//! to completion while the shard rejects new admissions (its waiting
//! queue re-routes to survivors immediately);
//! [`DecodeScaleDown::Migrate`] additionally evicts the residents at the
//! next iteration boundary and re-routes them, paying one re-prefill of
//! each evicted sequence's *grown* context on re-admission — the decode
//! engine's preemption machinery applied to scale-down. Either way no
//! request is ever dropped, and a pinned `min == max` decode autoscaler
//! reproduces [`crate::decode::simulate_decode`] bit-for-bit (same
//! `DecodeCore` code path, zero control events). The fleet and decode
//! autoscalers are one controller with one configuration,
//! [`AutoscaleConfig<R>`](AutoscaleConfig): each discipline supplies only
//! its scale-down rule `R` in the `retire` field ([`RetirePolicy`] or
//! [`DecodeScaleDown`]), and decode scores `slo_latency_s` against TTFT.
//!
//! # Example
//!
//! The containment pin, runnable: a pinned autoscaler holding the full
//! fleet drives the identical code path as [`simulate_fleet`](crate::fleet::simulate_fleet), so the
//! two reports agree bit-for-bit and the event log stays empty.
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::autoscale::{simulate_autoscale, AutoscaleConfig, ScalePolicy};
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
//! let trace = poisson_trace(&DatasetSpec::rte(), 600.0, 12, 7);
//! # // Logged, so the equality also compares the batch logs.
//! # lat_hwsim::fleet::with_batch_log(|| {
//! let plain = simulate_fleet(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//! );
//! let pinned = simulate_autoscale(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//!     &AutoscaleConfig {
//!         min_shards: 2,
//!         initial_shards: 2,
//!         policy: ScalePolicy::Pinned,
//!         ..AutoscaleConfig::default()
//!     },
//! );
//! assert_eq!(pinned.fleet, plain);
//! assert!(pinned.scale.scale_events.is_empty());
//! # assert!(!plain.batch_log.is_empty());
//! # });
//! ```

use crate::accelerator::AcceleratorDesign;
use crate::decode::{
    DecodeConfig, DecodeCore, DecodeReport, DecodeRequest, DecodeScheduler, Slots,
};
use crate::fleet::{
    p95_mut, Batcher, BatcherConfig, Controller, Core, Discipline, DispatchPolicy, FleetCore,
    FleetReport, NullController, Request,
};
use lat_core::pipeline::SchedulingPolicy;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// One entry of a [`ScalePolicy::Scheduled`] table: hold `shards` shards
/// from `start_s` until the next entry's start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulePhase {
    /// Time the phase begins, in seconds since simulation start.
    pub start_s: f64,
    /// Shard count to hold during the phase.
    pub shards: usize,
}

/// How the controller decides the target shard count at each evaluation
/// tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalePolicy {
    /// Never scale: the fleet stays at `initial_shards`. With
    /// `min_shards == max shards` this is [`simulate_fleet`](crate::fleet::simulate_fleet) bit-for-bit.
    Pinned,
    /// Queue-depth threshold with hysteresis: scale up by one shard when
    /// the mean waiting depth per accepting shard exceeds
    /// `scale_up_depth`, down by one when it falls below
    /// `scale_down_depth` (`scale_up_depth > scale_down_depth` — the gap
    /// is the hysteresis band that stops flapping).
    Reactive {
        /// Mean waiting requests per accepting shard that triggers +1.
        scale_up_depth: f64,
        /// Mean waiting requests per accepting shard that triggers −1.
        scale_down_depth: f64,
    },
    /// Hold the fleet's busy fraction over the last evaluation window
    /// inside `[low, high]`: above `high` scale up, below `low` scale
    /// down.
    UtilizationTarget {
        /// Busy fraction below which a shard is retired.
        low: f64,
        /// Busy fraction above which a shard is launched.
        high: f64,
    },
    /// Time-of-day table of shard counts, applied at evaluation ticks;
    /// before the first entry's start the fleet stays at
    /// `initial_shards`.
    Scheduled(Vec<SchedulePhase>),
    /// Model-based scaling on a *forecast* of the arrival rate rather
    /// than the observed backlog: provision
    /// `ceil(forecast(now + horizon_s) / shard_capacity)` shards, where
    /// the forecast comes from a [`RateForecaster`] (windowed EWMA,
    /// optionally a diurnal-harmonic fit at a known period). Not subject
    /// to the cooldown — the whole point is to act *before* the backlog
    /// forms.
    Predictive {
        /// Sustainable per-shard throughput (requests/second) that maps
        /// the forecast rate to a shard count.
        shard_capacity: f64,
        /// Forecast lead time; `warmup_s + eval_interval_s` makes the
        /// launched shard warm exactly when the predicted load lands.
        horizon_s: f64,
        /// EWMA smoothing factor in `(0, 1]` (1 = last window only).
        alpha: f64,
        /// Known diurnal period enabling the harmonic fit; `None` keeps
        /// the estimator a pure EWMA.
        period_s: Option<f64>,
    },
}

impl ScalePolicy {
    /// Panics unless the policy is well-formed for a fleet scaling
    /// between `min_shards` and `max_shards` shards. Shared by
    /// [`AutoscaleConfig`] (fleet and decode) and each pool of
    /// [`crate::disagg::DisaggAutoscaleConfig`]. A scheduled table must
    /// be non-empty, sorted by strictly increasing, finite start times,
    /// and hold counts inside the envelope: a phase starting at NaN or
    /// +∞ would never apply.
    pub(crate) fn validate(&self, min_shards: usize, max_shards: usize) {
        match self {
            ScalePolicy::Pinned => {}
            ScalePolicy::Reactive {
                scale_up_depth,
                scale_down_depth,
            } => assert!(
                scale_up_depth > scale_down_depth && *scale_down_depth >= 0.0,
                "reactive thresholds need scale_up_depth > scale_down_depth >= 0"
            ),
            ScalePolicy::UtilizationTarget { low, high } => assert!(
                high > low && *low >= 0.0,
                "utilization band needs high > low >= 0"
            ),
            ScalePolicy::Scheduled(table) => {
                assert!(
                    !table.is_empty(),
                    "scheduled table needs at least one phase"
                );
                assert!(
                    table.iter().all(|p| p.start_s.is_finite()),
                    "scheduled phase start times must be finite"
                );
                assert!(
                    table.windows(2).all(|w| w[0].start_s < w[1].start_s),
                    "scheduled table must be sorted by start time"
                );
                assert!(
                    table
                        .iter()
                        .all(|p| (min_shards..=max_shards).contains(&p.shards)),
                    "scheduled shard counts outside [min_shards, fleet size]"
                );
            }
            ScalePolicy::Predictive {
                shard_capacity,
                horizon_s,
                alpha,
                period_s,
            } => {
                assert!(
                    *shard_capacity > 0.0 && shard_capacity.is_finite(),
                    "predictive shard_capacity must be positive and finite"
                );
                assert!(
                    *horizon_s >= 0.0 && horizon_s.is_finite(),
                    "predictive horizon must be non-negative and finite"
                );
                assert!(
                    *alpha > 0.0 && *alpha <= 1.0,
                    "predictive alpha outside (0, 1]"
                );
                if let Some(p) = period_s {
                    assert!(
                        *p > 0.0 && p.is_finite(),
                        "predictive period must be positive and finite"
                    );
                }
            }
        }
    }

    /// Whether the policy is a ±1 feedback loop subject to the cooldown.
    fn is_feedback(&self) -> bool {
        matches!(
            self,
            ScalePolicy::Reactive { .. } | ScalePolicy::UtilizationTarget { .. }
        )
    }
}

impl fmt::Display for ScalePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalePolicy::Pinned => write!(f, "pinned"),
            ScalePolicy::Reactive { .. } => write!(f, "reactive"),
            ScalePolicy::UtilizationTarget { .. } => write!(f, "utilization"),
            ScalePolicy::Scheduled(_) => write!(f, "scheduled"),
            ScalePolicy::Predictive { .. } => write!(f, "predictive"),
        }
    }
}

/// Windowed arrival-rate estimator behind [`ScalePolicy::Predictive`]: an
/// EWMA over per-window observed rates, optionally sharpened by a
/// least-squares diurnal-harmonic fit
/// `r(t) ≈ c₀ + c₁·sin(ωt) + c₂·cos(ωt)` at a known period.
///
/// Observations are `(simulation time, cumulative arrivals)` pairs — the
/// shared, RNG-stream-free observation path both autoscalers expose. The
/// estimator never reads a wall clock, so forecast-driven runs are as
/// bit-reproducible as reactive ones.
#[derive(Debug, Clone)]
pub struct RateForecaster {
    alpha: f64,
    period_s: Option<f64>,
    last_t: f64,
    last_count: usize,
    ewma: Option<f64>,
    /// Windows folded into the harmonic normal equations.
    n_obs: usize,
    /// Mid-time of the earliest / latest harmonic observation: the fit is
    /// trusted only once the observations span a full period.
    first_mid_t: f64,
    last_mid_t: f64,
    /// Normal equations Σxxᵀ·c = Σx·r over the basis [1, sin ωt, cos ωt].
    xtx: [[f64; 3]; 3],
    xty: [f64; 3],
}

/// Harmonic observations needed before the fit outranks the EWMA (three
/// would determine the coefficients exactly; demanding more suppresses
/// noise-chasing on short histories).
const FORECAST_MIN_OBS: usize = 8;

impl RateForecaster {
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `period_s` is not
    /// positive and finite.
    pub fn new(alpha: f64, period_s: Option<f64>) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha outside (0, 1]");
        if let Some(p) = period_s {
            assert!(p > 0.0 && p.is_finite(), "period must be positive/finite");
        }
        Self {
            alpha,
            period_s,
            last_t: 0.0,
            last_count: 0,
            ewma: None,
            n_obs: 0,
            first_mid_t: f64::INFINITY,
            last_mid_t: f64::NEG_INFINITY,
            xtx: [[0.0; 3]; 3],
            xty: [0.0; 3],
        }
    }

    /// Feeds one observation: by `now`, `total_arrivals` requests have
    /// arrived since the start of the run. The window since the previous
    /// call becomes one rate sample; a zero-arrival window is a valid
    /// sample (rate 0 — it cannot NaN the estimate), and a zero-length
    /// window is folded into the next one.
    pub fn observe(&mut self, now: f64, total_arrivals: usize) {
        let dt = now - self.last_t;
        if dt <= 1e-12 {
            return; // degenerate window: keep the arrivals for the next one
        }
        let arrived = total_arrivals.saturating_sub(self.last_count);
        let rate = arrived as f64 / dt;
        self.last_t = now;
        self.last_count = total_arrivals;
        self.ewma = Some(match self.ewma {
            Some(e) => self.alpha * rate + (1.0 - self.alpha) * e,
            None => rate,
        });
        if let Some(p) = self.period_s {
            // Attribute the window's mean rate to its midpoint.
            let t_mid = now - dt / 2.0;
            let omega = std::f64::consts::TAU / p;
            let x = [1.0, (omega * t_mid).sin(), (omega * t_mid).cos()];
            for i in 0..3 {
                for j in 0..3 {
                    self.xtx[i][j] += x[i] * x[j];
                }
                self.xty[i] += x[i] * rate;
            }
            self.n_obs += 1;
            self.first_mid_t = self.first_mid_t.min(t_mid);
            self.last_mid_t = self.last_mid_t.max(t_mid);
        }
    }

    /// Current smoothed rate estimate (0 before the first window closes).
    pub fn rate_estimate(&self) -> f64 {
        self.ewma.unwrap_or(0.0)
    }

    /// Forecast arrival rate at time `t` (typically `now + horizon`): the
    /// harmonic fit once a full period of observations exists, the EWMA
    /// before that (a flat extrapolation). Never negative, never NaN.
    pub fn forecast(&self, t: f64) -> f64 {
        if let Some(p) = self.period_s {
            if self.n_obs >= FORECAST_MIN_OBS && self.last_mid_t - self.first_mid_t >= p {
                if let Some(c) = solve3(&self.xtx, &self.xty) {
                    let omega = std::f64::consts::TAU / p;
                    let r = c[0] + c[1] * (omega * t).sin() + c[2] * (omega * t).cos();
                    if r.is_finite() {
                        return r.max(0.0);
                    }
                }
            }
        }
        self.rate_estimate()
    }
}

/// Solves the 3×3 system `a·x = b` by Gaussian elimination with partial
/// pivoting; `None` when (near-)singular — e.g. every observation at the
/// same diurnal phase.
fn solve3(a: &[[f64; 3]; 3], b: &[f64; 3]) -> Option<[f64; 3]> {
    let mut m = [[0.0f64; 4]; 3];
    for i in 0..3 {
        m[i][..3].copy_from_slice(&a[i]);
        m[i][3] = b[i];
    }
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, pivot);
        for row in col + 1..3 {
            let f = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (k, &p) in pivot_row.iter().enumerate().skip(col) {
                m[row][k] -= f * p;
            }
        }
    }
    let mut x = [0.0f64; 3];
    for i in (0..3).rev() {
        let mut acc = m[i][3];
        for j in i + 1..3 {
            acc -= m[i][j] * x[j];
        }
        x[i] = acc / m[i][i];
    }
    Some(x)
}

/// One evaluation tick's observed inputs to [`PolicyEngine::desired`]:
/// engine-agnostic numbers both the fleet and decode autoscalers can
/// produce. All of them are simulation-state reads — no RNG, no clock.
struct Observation {
    /// Shards committed going forward (active + warming, not retiring).
    staying: usize,
    /// The engine's backlog metric, in requests. The encoder fleet counts
    /// requests waiting in queues; the decode engine counts waiting +
    /// KV-resident requests (slot-pool pressure) — a held slot is as much
    /// a capacity commitment as a queued request, and counting only the
    /// queue would read a fully-occupied-but-unqueued fleet as idle and
    /// flap it down.
    waiting: usize,
    /// Shards currently accepting routed work.
    accepting: usize,
    /// Paid (committed) shards right now.
    paid: usize,
    /// Fleet busy time actually elapsed by now.
    busy_elapsed: f64,
    /// Trace arrivals observed by now.
    arrivals: usize,
}

/// Policy evaluation shared by the request-level and decode autoscalers:
/// one source of truth for what each [`ScalePolicy`] does with the
/// observed state, so the two engines cannot drift apart in policy
/// semantics.
struct PolicyEngine {
    policy: ScalePolicy,
    initial_shards: usize,
    eval_interval_s: f64,
    /// Total busy time at the previous tick (utilization window).
    busy_snapshot: f64,
    /// Present only for [`ScalePolicy::Predictive`].
    forecaster: Option<RateForecaster>,
}

impl PolicyEngine {
    fn new(policy: &ScalePolicy, initial_shards: usize, eval_interval_s: f64) -> Self {
        let forecaster = match policy {
            ScalePolicy::Predictive {
                alpha, period_s, ..
            } => Some(RateForecaster::new(*alpha, *period_s)),
            _ => None,
        };
        Self {
            policy: policy.clone(),
            initial_shards,
            eval_interval_s,
            busy_snapshot: 0.0,
            forecaster,
        }
    }

    /// The policy's target committed-shard count at `now` (unclamped),
    /// relative to the shards committed going forward for the feedback
    /// policies, absolute for scheduled/predictive. Also advances the
    /// utilization window and the rate estimator — call exactly once per
    /// evaluation tick.
    fn desired(&mut self, now: f64, obs: &Observation) -> usize {
        if let Some(f) = &mut self.forecaster {
            f.observe(now, obs.arrivals);
        }
        let target = match &self.policy {
            ScalePolicy::Pinned => obs.staying,
            ScalePolicy::Reactive {
                scale_up_depth,
                scale_down_depth,
            } => {
                let depth = obs.waiting as f64 / obs.accepting.max(1) as f64;
                if depth > *scale_up_depth {
                    obs.staying + 1
                } else if depth < *scale_down_depth {
                    obs.staying.saturating_sub(1)
                } else {
                    obs.staying
                }
            }
            ScalePolicy::UtilizationTarget { low, high } => {
                // Busy fraction over the last window, normalized by the
                // *paid* fleet (retiring shards still serve).
                let util = (obs.busy_elapsed - self.busy_snapshot)
                    / (self.eval_interval_s * obs.paid.max(1) as f64);
                if util > *high {
                    obs.staying + 1
                } else if util < *low {
                    obs.staying.saturating_sub(1)
                } else {
                    obs.staying
                }
            }
            ScalePolicy::Scheduled(table) => table
                .iter()
                .take_while(|p| p.start_s <= now)
                .last()
                .map_or(self.initial_shards, |p| p.shards),
            ScalePolicy::Predictive {
                shard_capacity,
                horizon_s,
                ..
            } => {
                let f = self.forecaster.as_ref().expect("predictive forecaster");
                (f.forecast(now + horizon_s) / shard_capacity).ceil() as usize
            }
        };
        // The utilization window resets every tick, acted on or not.
        self.busy_snapshot = obs.busy_elapsed;
        target
    }
}

/// What happens to a retiring shard's waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetirePolicy {
    /// The shard stops accepting new work but serves its queue to empty
    /// before retiring (slow, graceful).
    Drain,
    /// The shard's waiting requests are re-routed to surviving shards
    /// immediately (the decode engine's preemption move applied to
    /// scale-down); the shard retires as soon as its in-flight batch
    /// completes. Evicted requests re-queue — they are never dropped.
    Evict,
}

impl fmt::Display for RetirePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetirePolicy::Drain => write!(f, "drain"),
            RetirePolicy::Evict => write!(f, "evict"),
        }
    }
}

/// Parameters of the autoscaling layer, generic over the scale-down rule
/// `R`: [`RetirePolicy`] for the encoder fleet ([`simulate_autoscale`]),
/// [`DecodeScaleDown`] for the decode engine
/// ([`simulate_decode_autoscale`]). The maximum shard count is the length
/// of the design slice handed to the entry point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig<R = RetirePolicy> {
    /// Floor on committed (active + warming) shards; never retires below.
    pub min_shards: usize,
    /// Shards active at `t = 0` (already warm).
    pub initial_shards: usize,
    /// Scaling decision rule.
    pub policy: ScalePolicy,
    /// Scale-down rule: what a retiring shard does with its queued work
    /// ([`RetirePolicy`]) or with its KV residents ([`DecodeScaleDown`]).
    pub retire: R,
    /// Controller sampling period in seconds.
    pub eval_interval_s: f64,
    /// Weight-streaming delay between launching a shard and it joining
    /// dispatch; the shard is paid for but admits no work while warming.
    pub warmup_s: f64,
    /// Minimum time between scaling actions of the feedback policies
    /// (reactive / utilization-target); scheduled and predictive policies
    /// ignore it.
    pub cooldown_s: f64,
    /// Latency SLO used for attainment reporting: end-to-end latency for
    /// the fleet, time to first token (the user-facing target of
    /// generative serving) for decode.
    pub slo_latency_s: f64,
    /// Ascending arrival-time boundaries splitting the trace into
    /// reporting phases (empty = one phase). Purely observational.
    pub phase_bounds_s: Vec<f64>,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 12.0,
                scale_down_depth: 2.0,
            },
            retire: RetirePolicy::Drain,
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
            slo_latency_s: 0.25,
            phase_bounds_s: Vec::new(),
        }
    }
}

impl Default for AutoscaleConfig<DecodeScaleDown> {
    fn default() -> Self {
        Self {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 8.0,
                scale_down_depth: 1.0,
            },
            retire: DecodeScaleDown::Drain,
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
            slo_latency_s: 0.25,
            phase_bounds_s: Vec::new(),
        }
    }
}

impl<R: Copy> AutoscaleConfig<R> {
    /// Panics unless the configuration is well-formed for a fleet of
    /// `max_shards` designs.
    pub fn validate(&self, max_shards: usize) {
        validate_envelope("fleet", self.min_shards, self.initial_shards, max_shards);
        validate_timing(self.eval_interval_s, self.warmup_s, self.cooldown_s);
        assert!(self.slo_latency_s > 0.0, "SLO latency must be positive");
        let bounds = &self.phase_bounds_s;
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1])
                && bounds.iter().all(|b| b.is_finite() && *b > 0.0),
            "phase bounds must be ascending, positive and finite"
        );
        self.policy.validate(self.min_shards, max_shards);
    }

    /// The start-up path of every autoscaled entry point: checks the
    /// fleet of `n_shards` and this configuration (before any input check
    /// of the core), then returns the [`Autoscaler`] and the core's
    /// initial `accepting` mask, where the first `initial_shards` shards
    /// start warm.
    pub(crate) fn autoscaler(&self, n_shards: usize) -> (Autoscaler<R>, Vec<bool>) {
        assert!(n_shards > 0, "fleet needs at least one shard");
        self.validate(n_shards);
        let ctl = Autoscaler {
            rule: self.retire,
            pool: ShardPool::new(
                0..n_shards,
                self.min_shards,
                self.initial_shards,
                &self.policy,
                self.eval_interval_s,
                self.warmup_s,
                self.cooldown_s,
            ),
            ticker: Ticker::new(self.eval_interval_s),
            pinned: matches!(self.policy, ScalePolicy::Pinned),
            migrations: 0,
        };
        let accepting = (0..n_shards).map(|s| s < self.initial_shards).collect();
        (ctl, accepting)
    }
}

/// Panics unless `initial_shards` lies in `[min_shards, max_shards]` with
/// `min_shards >= 1`; `scope` names what scales (the fleet, or one pool of
/// [`crate::disagg::DisaggAutoscaleConfig`]).
pub(crate) fn validate_envelope(
    scope: &str,
    min_shards: usize,
    initial_shards: usize,
    max_shards: usize,
) {
    assert!(min_shards >= 1, "{scope} min_shards must be >= 1");
    assert!(
        min_shards <= max_shards,
        "min_shards exceeds the {scope} size"
    );
    assert!(
        (min_shards..=max_shards).contains(&initial_shards),
        "initial_shards outside [min_shards, {scope} size]"
    );
}

/// Panics unless the controller timing shared by every autoscaling
/// config is well-formed: a positive evaluation interval, and a warm-up
/// and a cooldown that are not negative (nor NaN).
pub(crate) fn validate_timing(eval_interval_s: f64, warmup_s: f64, cooldown_s: f64) {
    assert!(eval_interval_s > 0.0, "eval interval must be positive");
    assert!(warmup_s >= 0.0, "negative warm-up");
    assert!(cooldown_s >= 0.0, "negative cooldown");
}

/// What a [`ScaleEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleEventKind {
    /// A cold shard started warming up (paid from here on).
    Launch,
    /// A warmed shard joined dispatch.
    Join,
    /// A shard stopped accepting work and began draining/evicting.
    RetireStart,
    /// A retiring shard went idle and left the paid fleet.
    Retired,
    /// The failure layer crashed the shard; it left the paid fleet
    /// immediately (crashed capacity is not billed) and cannot be
    /// relaunched until it recovers.
    Failed,
    /// The failure layer revived the shard; it is launchable again but
    /// rejoins only through the normal launch/warm-up path.
    Recovered,
}

impl fmt::Display for ScaleEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleEventKind::Launch => write!(f, "launch"),
            ScaleEventKind::Join => write!(f, "join"),
            ScaleEventKind::RetireStart => write!(f, "retire-start"),
            ScaleEventKind::Retired => write!(f, "retired"),
            ScaleEventKind::Failed => write!(f, "failed"),
            ScaleEventKind::Recovered => write!(f, "recovered"),
        }
    }
}

/// One entry of the scaling-event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Event time in seconds.
    pub time_s: f64,
    /// Shard the event concerns.
    pub shard: usize,
    /// What happened.
    pub kind: ScaleEventKind,
    /// Committed (active + warming + retiring) shards after the event.
    pub on_after: usize,
}

/// SLO attainment over one reporting phase of the trace. The latency is
/// end-to-end for the fleet and TTFT for decode, as in
/// [`AutoscaleConfig::slo_latency_s`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSlo {
    /// Phase start (arrival-time bucket), inclusive.
    pub start_s: f64,
    /// Phase end, exclusive (`f64::INFINITY` for the last phase).
    pub end_s: f64,
    /// Requests that arrived in the phase.
    pub requests: usize,
    /// Fraction of the phase's requests inside the latency SLO (1 when
    /// the phase is empty).
    pub slo_attainment: f64,
    /// 95th-percentile latency of the phase's requests (0 when empty).
    pub p95_latency_s: f64,
}

/// The cost books of one autoscaled pool of shards, closed at the end of
/// the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleBooks {
    /// Σ over shards of paid time (launch → retirement, warm-up
    /// included; still-on shards are charged to the makespan) — the cost
    /// proxy autoscaling tries to shrink.
    pub shard_seconds: f64,
    /// Time-averaged committed shard count over the makespan.
    pub mean_active_shards: f64,
    /// Peak committed shard count.
    pub peak_active_shards: usize,
    /// Every scaling action in time order (empty for a pinned policy).
    pub scale_events: Vec<ScaleEvent>,
}

/// Result of an autoscaling simulation: the fleet-level report plus the
/// cost/SLO view the scaling trade-off is judged by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleReport {
    /// Fleet-level view (latency percentiles, throughput, per-shard
    /// stats, batch log). Shards that never joined show zero work.
    pub fleet: FleetReport,
    /// Shard-seconds, active shards and the scaling-event log.
    pub scale: ScaleBooks,
    /// Fraction of all requests inside `slo_latency_s`.
    pub slo_attainment: f64,
    /// Per-phase SLO attainment along `phase_bounds_s`.
    pub phases: Vec<PhaseSlo>,
}

/// Lifecycle of one shard under the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lifecycle {
    /// Cold: not paid, not dispatched to.
    Off,
    /// Launched, streaming weights; paid but not yet dispatched to.
    Warming {
        /// Time the shard finishes warming and joins dispatch.
        ready_s: f64,
    },
    /// In the dispatch set.
    Active,
    /// Out of the dispatch set, finishing residual work.
    Retiring,
}

/// What a [`ShardPool`] asks of the engine whose shards it scales. Each
/// autoscaler wraps its core in one of these; the lifecycle, policy,
/// cooldown, event log and billing all live in the pool.
pub(crate) trait PoolHost {
    /// Opens (`true`) or closes shard `s` to routed work.
    fn set_routable(&mut self, s: usize, open: bool);
    /// Shards of `range` currently routable.
    fn routable(&self, range: Range<usize>) -> usize;
    /// Hands the work of shard `s`, just closed to routing, to the
    /// survivors — as much of it as the engine's scale-down rule moves.
    fn drain(&mut self, s: usize, now: f64);
    /// Whether shard `s` holds no work (queued, in flight or resident).
    fn is_idle(&self, s: usize) -> bool;
    /// Schedules a control event at `time`.
    fn schedule_control(&mut self, time: f64);
}

/// Scaling state of one contiguous range of shard indices: the
/// [`PolicyEngine`], the per-shard lifecycles and the cost books. The
/// fleet and decode autoscalers run one pool over the whole fleet; the
/// disaggregated one runs a pool per phase
/// ([`crate::disagg::simulate_disagg_autoscale`]).
pub(crate) struct ShardPool {
    range: Range<usize>,
    min_shards: usize,
    /// The policy is a ±1 feedback loop subject to the cooldown.
    feedback: bool,
    warmup_s: f64,
    cooldown_s: f64,
    engine: PolicyEngine,
    /// Per shard of the range (index `s - range.start`), like the two
    /// vectors below.
    lifecycle: Vec<Lifecycle>,
    /// Time each non-[`Lifecycle::Off`] shard started being paid for.
    on_since: Vec<f64>,
    /// Shards currently crashed by the failure layer: never launch
    /// targets until their [`ScaleEventKind::Recovered`] event.
    failed: Vec<bool>,
    /// Committed (non-Off) shards right now.
    on_count: usize,
    peak_on: usize,
    on_integral: f64,
    last_on_change_s: f64,
    shard_seconds: f64,
    last_action_s: f64,
    pub(crate) events: Vec<ScaleEvent>,
}

impl ShardPool {
    /// A pool over `range` whose first `initial_shards` shards start warm.
    pub(crate) fn new(
        range: Range<usize>,
        min_shards: usize,
        initial_shards: usize,
        policy: &ScalePolicy,
        eval_interval_s: f64,
        warmup_s: f64,
        cooldown_s: f64,
    ) -> Self {
        let n = range.len();
        let lifecycle = (0..n)
            .map(|i| {
                if i < initial_shards {
                    Lifecycle::Active
                } else {
                    Lifecycle::Off
                }
            })
            .collect();
        Self {
            range,
            min_shards,
            feedback: policy.is_feedback(),
            warmup_s,
            cooldown_s,
            engine: PolicyEngine::new(policy, initial_shards, eval_interval_s),
            lifecycle,
            on_since: vec![0.0; n],
            failed: vec![false; n],
            on_count: initial_shards,
            peak_on: initial_shards,
            on_integral: 0.0,
            last_on_change_s: 0.0,
            shard_seconds: 0.0,
            last_action_s: f64::NEG_INFINITY,
            events: Vec::new(),
        }
    }

    /// The shard indices the pool scales.
    pub(crate) fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    fn local(&self, s: usize) -> usize {
        s - self.range.start
    }

    pub(crate) fn is_retiring(&self, s: usize) -> bool {
        self.lifecycle[self.local(s)] == Lifecycle::Retiring
    }

    /// Shards committed *going forward* — active or warming, but not
    /// retiring (those leave as soon as they drain). Scaling decisions
    /// compare targets against this count, so in-progress drains can't
    /// stack further retires and push the surviving pool below
    /// `min_shards`.
    fn staying(&self) -> usize {
        self.lifecycle
            .iter()
            .filter(|l| matches!(l, Lifecycle::Active | Lifecycle::Warming { .. }))
            .count()
    }

    /// Closes the cost books at `makespan`, charging still-on shards to
    /// the makespan. The event log moves into the books.
    pub(crate) fn close_books(self, makespan: f64) -> ScaleBooks {
        let mut shard_seconds = self.shard_seconds;
        for (life, since) in self.lifecycle.iter().zip(&self.on_since) {
            if *life != Lifecycle::Off {
                shard_seconds += (makespan - since).max(0.0);
            }
        }
        let end = makespan.max(self.last_on_change_s).max(1e-12);
        let on_integral = self.on_integral + self.on_count as f64 * (end - self.last_on_change_s);
        ScaleBooks {
            shard_seconds,
            mean_active_shards: on_integral / end,
            peak_active_shards: self.peak_on,
            scale_events: self.events,
        }
    }

    /// Advances the committed-shard integral and applies `delta`.
    fn change_on_count(&mut self, now: f64, delta: isize) {
        self.on_integral += self.on_count as f64 * (now - self.last_on_change_s);
        self.last_on_change_s = now;
        self.on_count = (self.on_count as isize + delta) as usize;
        self.peak_on = self.peak_on.max(self.on_count);
    }

    fn record(&mut self, now: f64, shard: usize, kind: ScaleEventKind) {
        self.events.push(ScaleEvent {
            time_s: now,
            shard,
            kind,
            on_after: self.on_count,
        });
    }

    /// Puts shard `s` in the dispatch set.
    fn join(&mut self, host: &mut impl PoolHost, s: usize, now: f64) {
        let l = self.local(s);
        self.lifecycle[l] = Lifecycle::Active;
        host.set_routable(s, true);
        self.record(now, s, ScaleEventKind::Join);
    }

    /// Takes shard `s` out of the paid pool.
    fn stop_paying(&mut self, s: usize, now: f64) {
        let l = self.local(s);
        self.lifecycle[l] = Lifecycle::Off;
        self.change_on_count(now, -1);
        self.shard_seconds += now - self.on_since[l];
    }

    /// Joins every shard whose warm-up is over by `now`. Call it before
    /// tick gating, so a shard can join and receive work decided at the
    /// very same tick.
    pub(crate) fn join_warmed(&mut self, host: &mut impl PoolHost, now: f64) {
        for s in self.range() {
            if let Lifecycle::Warming { ready_s } = self.lifecycle[self.local(s)] {
                if ready_s <= now {
                    self.join(host, s, now);
                }
            }
        }
    }

    /// Starts paying for shard `s`; it joins dispatch after the warm-up.
    fn launch(&mut self, host: &mut impl PoolHost, s: usize, now: f64) {
        self.change_on_count(now, 1);
        let l = self.local(s);
        self.on_since[l] = now;
        self.record(now, s, ScaleEventKind::Launch);
        if self.warmup_s <= 0.0 {
            self.join(host, s, now);
        } else {
            let ready_s = now + self.warmup_s;
            self.lifecycle[l] = Lifecycle::Warming { ready_s };
            host.schedule_control(ready_s);
        }
    }

    /// Removes shard `s` from dispatch; the host drains it, and it leaves
    /// the paid pool once idle.
    fn retire(&mut self, host: &mut impl PoolHost, s: usize, now: f64) {
        let l = self.local(s);
        self.lifecycle[l] = Lifecycle::Retiring;
        host.set_routable(s, false);
        self.record(now, s, ScaleEventKind::RetireStart);
        host.drain(s, now);
        self.finish_retire_if_idle(host, s, now);
    }

    /// Completes the retirement of shard `s` once it is idle.
    pub(crate) fn finish_retire_if_idle(&mut self, host: &impl PoolHost, s: usize, now: f64) {
        if self.is_retiring(s) && host.is_idle(s) {
            self.stop_paying(s, now);
            self.record(now, s, ScaleEventKind::Retired);
        }
    }

    /// One evaluation tick: decide a target and recall/launch/retire
    /// towards it. `waiting`, `busy_elapsed` and `arrivals` are the
    /// engine's readings of the [`Observation`] fields of those names.
    pub(crate) fn evaluate(
        &mut self,
        host: &mut impl PoolHost,
        now: f64,
        waiting: usize,
        busy_elapsed: f64,
        arrivals: usize,
    ) {
        let staying = self.staying();
        let obs = Observation {
            staying,
            waiting,
            accepting: host.routable(self.range()),
            paid: self.on_count,
            busy_elapsed,
            arrivals,
        };
        let desired = self
            .engine
            .desired(now, &obs)
            .clamp(self.min_shards, self.range.len());
        if desired == staying {
            return;
        }
        if self.feedback && now - self.last_action_s < self.cooldown_s {
            return;
        }
        let mut acted = false;
        if desired > staying {
            let mut need = desired - staying;
            // Recall retiring shards first: they are still warm (weights
            // and any draining residents in place), so rejoining dispatch
            // is free — no warm-up, no fresh Launch; the event log shows a
            // bare Join.
            for s in self.range().rev() {
                if need == 0 {
                    break;
                }
                if self.is_retiring(s) {
                    self.join(host, s, now);
                    need -= 1;
                    acted = true;
                }
            }
            for s in self.range() {
                if need == 0 {
                    break;
                }
                let l = self.local(s);
                if self.lifecycle[l] == Lifecycle::Off && !self.failed[l] {
                    self.launch(host, s, now);
                    need -= 1;
                    acted = true;
                }
            }
        } else {
            // desired >= min_shards (clamped) and each retire moves one
            // shard out of `staying`, so the surviving pool never drops
            // below the floor even while earlier drains are in flight.
            let mut staying_now = staying;
            for s in self.range().rev() {
                if staying_now == desired {
                    break;
                }
                // Retire only active shards, and never the last routable
                // one — a warming shard is not yet a routing target.
                if self.lifecycle[self.local(s)] == Lifecycle::Active
                    && host.routable(self.range()) > 1
                {
                    self.retire(host, s, now);
                    staying_now -= 1;
                    acted = true;
                }
            }
        }
        if acted {
            self.last_action_s = now;
        }
    }

    /// The failure layer crashed shard `s`. Crashed capacity stops billing
    /// immediately, whatever lifecycle stage it was in (a crash
    /// mid-warm-up or mid-retire also lands here; the pending warm-up
    /// control event finds no Warming state and is a no-op).
    pub(crate) fn shard_down(&mut self, s: usize, now: f64) {
        let l = self.local(s);
        if self.lifecycle[l] != Lifecycle::Off {
            self.stop_paying(s, now);
        }
        self.failed[l] = true;
        self.record(now, s, ScaleEventKind::Failed);
    }

    /// The failure layer revived shard `s`. It is deliberately not made
    /// routable: a recovered shard is cold, so it rejoins through the
    /// policy's normal launch + warm-up path at the next evaluation that
    /// wants capacity.
    pub(crate) fn shard_up(&mut self, s: usize, now: f64) {
        let l = self.local(s);
        self.failed[l] = false;
        self.record(now, s, ScaleEventKind::Recovered);
    }
}

/// The evaluation-tick chain an autoscaler runs on its control events.
pub(crate) struct Ticker {
    interval_s: f64,
    next_s: f64,
    /// The chain has stopped, so the event heap can drain.
    done: bool,
}

impl Ticker {
    pub(crate) fn new(interval_s: f64) -> Self {
        Self {
            interval_s,
            next_s: interval_s,
            done: false,
        }
    }

    /// Whether the control event at `now` is an evaluation tick. Once
    /// `finished()` — every request completed or given up on by the
    /// client layer — the chain stops instead.
    pub(crate) fn due(&mut self, now: f64, finished: impl FnOnce() -> bool) -> bool {
        if self.done || now + 1e-9 < self.next_s {
            return false;
        }
        self.done = finished();
        !self.done
    }

    /// Arms the tick after the one at `now` and returns its time.
    pub(crate) fn rearm(&mut self, now: f64) -> f64 {
        self.next_s = now + self.interval_s;
        self.next_s
    }
}

/// A discipline's scale-down rule: what a retiring shard hands to the
/// survivors. [`RetirePolicy`] is the fleet's, [`DecodeScaleDown`]
/// decode's.
pub(crate) trait ScaleDown<D: Discipline>: Copy {
    /// Shard `s` was just closed to routing: hands its work to the
    /// survivors, as much of it as the rule moves. Returns the KV
    /// residents moved.
    fn drain(self, core: &mut Core<'_, D>, s: usize, now: f64) -> usize;
    /// Retiring shard `s` finished a batch or an iteration, before its
    /// next launch. Returns the KV residents moved.
    fn at_boundary(self, _core: &mut Core<'_, D>, _s: usize, _now: f64) -> usize {
        0
    }
}

impl ScaleDown<Batcher> for RetirePolicy {
    /// [`RetirePolicy::Evict`] re-routes the waiting queue to the
    /// survivors; under [`RetirePolicy::Drain`] the shard serves it.
    fn drain(self, core: &mut FleetCore<'_>, s: usize, now: f64) -> usize {
        if self == RetirePolicy::Evict {
            let evicted = core.take_waiting(s, now);
            core.disc.window_for[s] = None;
            // At least one shard keeps accepting during a retire (the
            // evaluate() guard), so eviction never parks.
            core.readmit(evicted, now);
        }
        0
    }
}

impl ScaleDown<Slots> for DecodeScaleDown {
    /// Both modes hand the waiting queue to the survivors immediately (a
    /// retiring shard admits nothing new into its slots); Migrate also
    /// evicts the residents — at once if the shard is idle, else at the
    /// next iteration boundary ([`ScaleDown::at_boundary`]).
    fn drain(self, core: &mut DecodeCore<'_>, s: usize, now: f64) -> usize {
        core.shed(s, now, true, self == DecodeScaleDown::Migrate)
    }

    /// The in-flight iteration completed: under Migrate, hand the
    /// survivors the still-unfinished residents.
    fn at_boundary(self, core: &mut DecodeCore<'_>, s: usize, now: f64) -> usize {
        core.shed(s, now, false, self == DecodeScaleDown::Migrate)
    }
}

/// [`PoolHost`] over a whole core, retiring by the rule `R`.
struct CoreHost<'c, 'a, D: Discipline, R> {
    core: &'c mut Core<'a, D>,
    rule: R,
    /// Where the rule's moved residents are counted.
    moved: &'c mut usize,
}

impl<D: Discipline, R: ScaleDown<D>> PoolHost for CoreHost<'_, '_, D, R> {
    fn set_routable(&mut self, s: usize, open: bool) {
        self.core.accepting[s] = open;
    }

    fn routable(&self, range: Range<usize>) -> usize {
        self.core.accepting[range].iter().filter(|&&a| a).count()
    }

    fn drain(&mut self, s: usize, now: f64) {
        *self.moved += self.rule.drain(self.core, s, now);
    }

    fn is_idle(&self, s: usize) -> bool {
        self.core.is_idle(s)
    }

    fn schedule_control(&mut self, time: f64) {
        self.core.schedule_control(time);
    }
}

/// The policy-driven [`Controller`] over either core: one [`ShardPool`]
/// over the whole fleet, retiring shards by the discipline's scale-down
/// rule `R`. `pub(crate)` so the failure layer ([`crate::failure`]) can
/// wrap it inside its fault injector.
pub(crate) struct Autoscaler<R> {
    rule: R,
    pub(crate) pool: ShardPool,
    ticker: Ticker,
    /// The policy is [`ScalePolicy::Pinned`].
    pinned: bool,
    /// KV residents the rule moved off retiring shards (decode Migrate).
    migrations: usize,
}

impl<R> Autoscaler<R> {
    /// Runs `core` to the end under this autoscaler. A pinned policy
    /// runs with no control events at all, so the event stream is the
    /// plain engine's — which is what makes the min==max pins
    /// bit-for-bit.
    fn drive<D: Discipline>(&mut self, core: &mut Core<'_, D>)
    where
        R: ScaleDown<D>,
    {
        if self.pinned {
            core.run(&mut NullController);
        } else {
            core.schedule_control(self.ticker.interval_s);
            core.run(self);
        }
    }
}

impl<D: Discipline, R: ScaleDown<D>> Controller<D> for Autoscaler<R> {
    fn on_control(&mut self, core: &mut Core<'_, D>, now: f64) {
        let (rule, moved) = (self.rule, &mut self.migrations);
        self.pool
            .join_warmed(&mut CoreHost { core, rule, moved }, now);
        if !self.ticker.due(now, || core.finished()) {
            return;
        }
        let (waiting, busy_elapsed) = core.load_of(0..core.books.len(), now);
        let arrivals = core.arrivals_seen;
        self.pool.evaluate(
            &mut CoreHost { core, rule, moved },
            now,
            waiting,
            busy_elapsed,
            arrivals,
        );
        core.schedule_control(self.ticker.rearm(now));
    }

    fn after_completion(&mut self, core: &mut Core<'_, D>, shard: usize, now: f64) {
        if !self.pool.is_retiring(shard) {
            return;
        }
        self.migrations += self.rule.at_boundary(core, shard, now);
        let (rule, moved) = (self.rule, &mut self.migrations);
        self.pool
            .finish_retire_if_idle(&CoreHost { core, rule, moved }, shard, now);
    }

    fn on_shard_down(&mut self, _core: &mut Core<'_, D>, s: usize, now: f64) {
        self.pool.shard_down(s, now);
    }

    fn on_shard_up(&mut self, _core: &mut Core<'_, D>, s: usize, now: f64) {
        self.pool.shard_up(s, now);
    }
}

/// Simulates `trace` over a fleet of up to `shards.len()` shards whose
/// membership the autoscaling controller drives at runtime; batching,
/// dispatch and the cost model are exactly [`simulate_fleet`](crate::fleet::simulate_fleet)'s.
///
/// Every request completes exactly once — scaling events re-route or delay
/// work but never drop it.
///
/// # Panics
///
/// Panics on the [`simulate_fleet`](crate::fleet::simulate_fleet) input errors or a malformed
/// [`AutoscaleConfig`] (see [`AutoscaleConfig::validate`]).
pub fn simulate_autoscale(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    batcher: &BatcherConfig,
    cfg: &AutoscaleConfig,
) -> AutoscaleReport {
    let (mut ctl, accepting) = cfg.autoscaler(shards.len());
    let mut core = FleetCore::new(shards, trace, policy, dispatch, batcher, accepting);
    ctl.drive(&mut core);

    let latencies: Vec<f64> = core
        .completion_s
        .iter()
        .zip(trace)
        .map(|(&c, req)| c - req.arrival_s)
        .collect();
    let fleet = core.into_report();
    let scale = ctl.pool.close_books(fleet.makespan_s);
    let (slo_attainment, phases) = slo_phases(
        trace,
        |r| r.arrival_s,
        &latencies,
        cfg.slo_latency_s,
        &cfg.phase_bounds_s,
    );

    AutoscaleReport {
        fleet,
        scale,
        slo_attainment,
        phases,
    }
}

/// SLO attainment of `latencies` (one per `trace` request, in trace
/// order) against `slo_s`: overall, and per arrival-time phase along
/// `phase_bounds_s` with each phase's p95. Shared by the fleet (latency)
/// and decode (TTFT) reports.
fn slo_phases<R>(
    trace: &[R],
    arrival_s: impl Fn(&R) -> f64,
    latencies: &[f64],
    slo_s: f64,
    phase_bounds_s: &[f64],
) -> (f64, Vec<PhaseSlo>) {
    let in_slo = |lat: f64| lat <= slo_s;
    let slo_attainment =
        latencies.iter().filter(|&&l| in_slo(l)).count() as f64 / latencies.len() as f64;
    let mut edges = vec![0.0];
    edges.extend(phase_bounds_s.iter().copied());
    edges.push(f64::INFINITY);
    let phases = edges
        .windows(2)
        .map(|w| {
            let mut phase_lat: Vec<f64> = trace
                .iter()
                .zip(latencies)
                .filter(|(r, _)| arrival_s(r) >= w[0] && arrival_s(r) < w[1])
                .map(|(_, &l)| l)
                .collect();
            PhaseSlo {
                start_s: w[0],
                end_s: w[1],
                requests: phase_lat.len(),
                slo_attainment: if phase_lat.is_empty() {
                    1.0
                } else {
                    phase_lat.iter().filter(|&&l| in_slo(l)).count() as f64 / phase_lat.len() as f64
                },
                p95_latency_s: p95_mut(&mut phase_lat).unwrap_or(0.0),
            }
        })
        .collect();
    (slo_attainment, phases)
}

// ────────────────────────── decode autoscaling ──────────────────────────

/// What happens to a retiring decode shard's KV-resident sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeScaleDown {
    /// The shard stops accepting routed work and hands its *waiting*
    /// queue to the survivors, but its residents keep decoding to
    /// completion in place; the shard retires when the last resident
    /// finishes (slow, no re-prefill cost).
    Drain,
    /// Residents are evicted at the next iteration boundary and re-routed
    /// to surviving shards, where each re-prefills its *grown* context on
    /// re-admission — the decode engine's preemption machinery applied to
    /// scale-down. The shard retires as soon as its in-flight iteration
    /// completes (fast, pays one re-prefill per evicted resident).
    Migrate,
}

impl fmt::Display for DecodeScaleDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeScaleDown::Drain => write!(f, "drain"),
            DecodeScaleDown::Migrate => write!(f, "migrate"),
        }
    }
}

/// Result of a decode autoscaling simulation: the full [`DecodeReport`]
/// (TTFT/ITL percentiles, token goodput, slot utilization, per-request
/// outcomes) plus the cost/SLO view and the KV-migration accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeAutoscaleReport {
    /// Decode-engine view; under a pinned `min == max` policy this is
    /// [`crate::decode::simulate_decode`]'s report bit-for-bit.
    pub decode: DecodeReport,
    /// Shard-seconds, active shards and the scaling-event log.
    pub scale: ScaleBooks,
    /// Fraction of all requests whose TTFT met `slo_latency_s`.
    pub slo_attainment: f64,
    /// Per-phase TTFT SLO attainment along `phase_bounds_s`; each phase's
    /// `p95_latency_s` is its p95 TTFT.
    pub phases: Vec<PhaseSlo>,
    /// KV residents evicted by scale-down ([`DecodeScaleDown::Migrate`]).
    pub migrations: usize,
    /// Context re-prefill passes actually priced (one per preemption or
    /// migration whose re-admission ran) — the cost migrating KV state
    /// adds on top of drain.
    pub re_prefills: usize,
}

/// Simulates a decode `trace` over a fleet of up to `shards.len()` shards
/// whose membership the autoscaling controller drives at runtime;
/// scheduling, admission and the iteration cost model are exactly
/// [`crate::decode::simulate_decode`]'s.
///
/// Every request completes exactly once and generates exactly its
/// `output_len` tokens — scale-down drains or migrates KV residents but
/// never drops one.
///
/// # Panics
///
/// Panics on the [`crate::decode::simulate_decode`] input errors or a
/// malformed [`AutoscaleConfig`] (see [`AutoscaleConfig::validate`]).
pub fn simulate_decode_autoscale(
    shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    decode_cfg: &DecodeConfig,
    cfg: &AutoscaleConfig<DecodeScaleDown>,
) -> DecodeAutoscaleReport {
    let (mut ctl, accepting) = cfg.autoscaler(shards.len());
    let mut core = DecodeCore::new(
        shards, trace, policy, dispatch, scheduler, decode_cfg, accepting,
    );
    ctl.drive(&mut core);
    let decode = core.into_report();
    let scale = ctl.pool.close_books(decode.fleet.makespan_s);
    let ttfts: Vec<f64> = decode.requests.iter().map(|r| r.ttft_s).collect();
    let (slo_attainment, phases) = slo_phases(
        trace,
        |r| r.arrival_s,
        &ttfts,
        cfg.slo_latency_s,
        &cfg.phase_bounds_s,
    );
    let re_prefills = decode.requests.iter().map(|r| r.re_prefills as usize).sum();

    DecodeAutoscaleReport {
        decode,
        scale,
        slo_attainment,
        phases,
        migrations: ctl.migrations,
        re_prefills,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{
        homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet,
        with_batch_log, RatePhase, RateProfile,
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

    fn reactive_cfg(min: usize, initial: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            min_shards: min,
            initial_shards: initial,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 6.0,
                scale_down_depth: 1.0,
            },
            eval_interval_s: 0.05,
            warmup_s: 0.1,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        }
    }

    /// A two-phase burst profile: quiet, then far past 1-shard capacity.
    fn burst_profile() -> RateProfile {
        RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 1.0,
                rate: 30.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 2500.0,
            },
        ])
    }

    #[test]
    fn pinned_full_fleet_reproduces_simulate_fleet_bit_for_bit() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::rte(), 500.0, 90, 42);
        let batcher = BatcherConfig::default();
        let auto = with_batch_log(|| {
            simulate_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &batcher,
                &AutoscaleConfig {
                    min_shards: 3,
                    initial_shards: 3,
                    policy: ScalePolicy::Pinned,
                    ..AutoscaleConfig::default()
                },
            )
        });
        let fixed = with_batch_log(|| {
            simulate_fleet(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &batcher,
            )
        });
        assert_eq!(auto.fleet, fixed);
        assert!(auto.scale.scale_events.is_empty());
        assert_eq!(auto.scale.peak_active_shards, 3);
        let expect = 3.0 * fixed.makespan_s;
        assert!((auto.scale.shard_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn reactive_scales_up_under_burst_and_back_down() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 400, 7);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &reactive_cfg(1, 1),
        );
        assert_eq!(r.fleet.completed, 400);
        assert!(
            r.scale.peak_active_shards > 1,
            "never scaled up under the burst"
        );
        assert!(
            r.scale
                .scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Join),
            "no shard ever joined"
        );
        assert!(
            r.scale
                .scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "never scaled back down after the burst"
        );
        assert!(r.scale.mean_active_shards < r.scale.peak_active_shards as f64);
        assert!(r.scale.shard_seconds < 4.0 * r.fleet.makespan_s);
    }

    #[test]
    fn warming_shards_admit_no_work_before_join() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 400, 11);
        let r = with_batch_log(|| {
            simulate_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                &reactive_cfg(1, 1),
            )
        });
        // Every batch on a launched shard starts at/after that shard's
        // join; shard 0 (initial) is exempt.
        for e in r
            .scale
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Join)
        {
            let launch = r
                .scale
                .scale_events
                .iter()
                .find(|l| l.shard == e.shard && l.kind == ScaleEventKind::Launch)
                .expect("join without launch");
            assert!(e.time_s - launch.time_s >= 0.1 - 1e-9, "warm-up skipped");
        }
        assert!(!r.fleet.batch_log.is_empty());
        for b in &r.fleet.batch_log {
            if b.shard == 0 {
                continue;
            }
            let join = r
                .scale
                .scale_events
                .iter()
                .filter(|e| e.shard == b.shard && e.kind == ScaleEventKind::Join)
                .map(|e| e.time_s)
                .next()
                .expect("batch on a shard that never joined");
            assert!(
                b.start_s >= join - 1e-9,
                "shard {} ran a batch at {} before joining at {}",
                b.shard,
                b.start_s,
                join
            );
        }
    }

    #[test]
    fn evict_reroutes_queued_work_and_conserves_requests() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 500, 3);
        for retire in [RetirePolicy::Drain, RetirePolicy::Evict] {
            let r = with_batch_log(|| {
                simulate_autoscale(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                    &AutoscaleConfig {
                        retire,
                        ..reactive_cfg(1, 4)
                    },
                )
            });
            assert_eq!(r.fleet.completed, 500, "{retire}");
            assert_eq!(
                r.fleet.shards.iter().map(|s| s.completed).sum::<usize>(),
                500,
                "{retire}"
            );
            // No batch on a shard after it retired (until a relaunch).
            assert!(!r.fleet.batch_log.is_empty());
            for b in &r.fleet.batch_log {
                let mut allowed = true;
                for e in r.scale.scale_events.iter().filter(|e| e.shard == b.shard) {
                    if e.time_s > b.start_s + 1e-12 {
                        break;
                    }
                    match e.kind {
                        ScaleEventKind::Retired | ScaleEventKind::Failed => allowed = false,
                        ScaleEventKind::Launch | ScaleEventKind::Join => allowed = true,
                        ScaleEventKind::RetireStart | ScaleEventKind::Recovered => {}
                    }
                }
                assert!(allowed, "{retire}: batch on retired shard {}", b.shard);
            }
        }
    }

    #[test]
    fn scheduled_policy_follows_the_table() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::mrpc(), 120.0, 360, 5);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Scheduled(vec![
                    SchedulePhase {
                        start_s: 0.5,
                        shards: 3,
                    },
                    SchedulePhase {
                        start_s: 1.5,
                        shards: 1,
                    },
                ]),
                eval_interval_s: 0.1,
                warmup_s: 0.05,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 360);
        let launches = r
            .scale
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Launch)
            .count();
        let retires = r
            .scale
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::RetireStart)
            .count();
        assert_eq!(launches, 2, "table never scaled to 3");
        assert!(retires >= 2, "table never scaled back to 1");
        assert_eq!(r.scale.peak_active_shards, 3);
    }

    #[test]
    fn slo_and_phase_accounting_consistent() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 200.0, 120, 9);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 2,
                initial_shards: 2,
                policy: ScalePolicy::Pinned,
                slo_latency_s: 10.0, // generous: everything attains
                phase_bounds_s: vec![0.2, 0.4],
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.slo_attainment, 1.0);
        assert_eq!(r.phases.len(), 3);
        assert_eq!(r.phases.iter().map(|p| p.requests).sum::<usize>(), 120);
        assert!(r.phases.iter().all(|p| p.slo_attainment == 1.0));
        assert_eq!(r.phases[0].start_s, 0.0);
        assert_eq!(r.phases[2].end_s, f64::INFINITY);
    }

    #[test]
    fn utilization_target_scales_up_under_saturation() {
        // A tiny shard sustains ~78k seq/s, so saturate with a 200k seq/s
        // stream and tick fast enough to observe the busy window.
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::mrpc(), 200_000.0, 2000, 13);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::UtilizationTarget {
                    low: 0.3,
                    high: 0.85,
                },
                eval_interval_s: 0.002,
                warmup_s: 0.002,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 2000);
        assert_eq!(
            r.scale.peak_active_shards, 3,
            "saturation never filled the fleet"
        );
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::rte(), &burst_profile(), 300, 21);
        let go = || {
            with_batch_log(|| {
                simulate_autoscale(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                    &reactive_cfg(1, 2),
                )
            })
        };
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "initial_shards outside")]
    fn initial_below_min_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 2,
                initial_shards: 1,
                ..AutoscaleConfig::default()
            },
        );
    }

    // ───────────────────── rate forecaster ─────────────────────

    /// Feeds the forecaster the expected cumulative arrivals of `profile`
    /// sampled every `window_s` up to `horizon_s`.
    fn feed_profile(f: &mut RateForecaster, profile: &RateProfile, window_s: f64, horizon_s: f64) {
        let mut t = window_s;
        while t <= horizon_s + 1e-9 {
            f.observe(t, profile.cumulative(t).round() as usize);
            t += window_s;
        }
    }

    #[test]
    fn forecaster_converges_on_piecewise_profile() {
        // 2 s at 50/s then 400/s: after three seconds in the second
        // phase the EWMA must have converged to the new rate.
        let profile = RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 2.0,
                rate: 50.0,
            },
            RatePhase {
                duration_s: 10.0,
                rate: 400.0,
            },
        ]);
        let mut f = RateForecaster::new(0.3, None);
        feed_profile(&mut f, &profile, 0.1, 5.0);
        let est = f.rate_estimate();
        assert!(
            (est - 400.0).abs() / 400.0 < 0.1,
            "EWMA {est} not within 10% of 400"
        );
        // Without a period the forecast is the flat EWMA extrapolation.
        assert_eq!(f.forecast(9.0), est);
    }

    #[test]
    fn forecaster_harmonic_fit_tracks_diurnal_profile() {
        let profile = RateProfile::Diurnal {
            mean_rate: 100.0,
            swing: 4.0,
            period_s: 8.0,
        };
        let mut f = RateForecaster::new(0.3, Some(8.0));
        feed_profile(&mut f, &profile, 0.1, 16.0); // two full periods
        for &t in &[17.0, 18.5, 20.0, 22.0, 23.5] {
            let predicted = f.forecast(t);
            let truth = profile.rate_at(t);
            assert!(
                (predicted - truth).abs() / truth < 0.1,
                "forecast({t}) = {predicted} not within 10% of {truth}"
            );
        }
    }

    #[test]
    fn forecaster_harmonic_needs_a_full_period_of_history() {
        // Half a period of data: the fit must NOT be trusted yet — the
        // forecast falls back to the EWMA instead of extrapolating a
        // sinusoid through an under-determined history.
        let profile = RateProfile::Diurnal {
            mean_rate: 100.0,
            swing: 4.0,
            period_s: 8.0,
        };
        let mut f = RateForecaster::new(0.3, Some(8.0));
        feed_profile(&mut f, &profile, 0.1, 3.0);
        assert_eq!(f.forecast(100.0), f.rate_estimate());
    }

    #[test]
    fn forecaster_zero_arrival_windows_do_not_nan() {
        let mut f = RateForecaster::new(0.5, Some(4.0));
        for i in 1..=20 {
            f.observe(i as f64 * 0.5, 0); // dead air
        }
        assert_eq!(f.rate_estimate(), 0.0);
        let fc = f.forecast(30.0);
        assert!(fc.is_finite() && fc >= 0.0, "forecast {fc} not finite/≥0");
        // A zero-length window is folded into the next one, not divided
        // by zero.
        f.observe(10.0, 40);
        f.observe(10.0, 45);
        f.observe(10.5, 50);
        assert!(f.rate_estimate().is_finite());
        assert!(f.forecast(11.0).is_finite());
    }

    #[test]
    fn predictive_policy_scales_the_fleet_to_the_forecast() {
        // Demand ramps 40 → 150 seq/s against a declared 60 seq/s shard
        // capacity: the predictive fleet must provision ≥ 3 shards at the
        // peak and fall back towards 1 in the quiet tail, with every
        // request served.
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let profile = RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 1.0,
                rate: 40.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 150.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 40.0,
            },
        ]);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &profile, 400, 5);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Predictive {
                    shard_capacity: 60.0,
                    horizon_s: 0.15,
                    alpha: 0.5,
                    period_s: None,
                },
                eval_interval_s: 0.05,
                warmup_s: 0.1,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 400);
        assert!(
            r.scale.peak_active_shards >= 3,
            "forecast never provisioned the ramp: peak {}",
            r.scale.peak_active_shards
        );
        assert!(
            r.scale
                .scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "never scaled back down after the ramp"
        );
    }

    // ───────────────────── decode autoscaling ─────────────────────

    use crate::decode::{nonstationary_decode_trace, simulate_decode};

    /// Trickle → saturating burst → trickle. A tiny 4-slot shard sustains
    /// ~48k decode seq/s, so the 200k/s burst phase dumps a backlog that
    /// takes tens of milliseconds to drain — visible across many 2 ms
    /// controller ticks.
    fn decode_burst_trace(n: usize, seed: u64) -> Vec<DecodeRequest> {
        let spec = DatasetSpec::mrpc();
        nonstationary_decode_trace(
            &spec,
            &spec.decode_output(),
            0.1,
            &RateProfile::Piecewise(vec![
                RatePhase {
                    duration_s: 0.1,
                    rate: 1000.0,
                },
                RatePhase {
                    duration_s: 0.005,
                    rate: 200_000.0,
                },
                RatePhase {
                    duration_s: 1.0,
                    rate: 1000.0,
                },
            ]),
            n,
            seed,
        )
    }

    fn decode_reactive_cfg(min: usize, initial: usize) -> AutoscaleConfig<DecodeScaleDown> {
        AutoscaleConfig {
            min_shards: min,
            initial_shards: initial,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 0.5,
            },
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        }
    }

    /// A logged run, so whole-report equalities compare the step log.
    fn run_decode_auto(
        trace: &[DecodeRequest],
        fleet: &[AcceleratorDesign],
        cfg: &AutoscaleConfig<DecodeScaleDown>,
        scheduler: DecodeScheduler,
    ) -> DecodeAutoscaleReport {
        with_batch_log(|| {
            simulate_decode_autoscale(
                fleet,
                trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                scheduler,
                &DecodeConfig {
                    max_slots: 4,
                    ttft_deadline_s: 0.25,
                },
                cfg,
            )
        })
    }

    #[test]
    fn pinned_decode_full_fleet_reproduces_simulate_decode_bit_for_bit() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(400, 42);
        let decode_cfg = DecodeConfig {
            max_slots: 4,
            ttft_deadline_s: 0.25,
        };
        let auto = with_batch_log(|| {
            simulate_decode_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::ContinuousPreempt,
                &decode_cfg,
                &AutoscaleConfig {
                    min_shards: 3,
                    initial_shards: 3,
                    policy: ScalePolicy::Pinned,
                    ..AutoscaleConfig::default()
                },
            )
        });
        let fixed = with_batch_log(|| {
            simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::ContinuousPreempt,
                &decode_cfg,
            )
        });
        assert_eq!(auto.decode, fixed);
        assert!(auto.scale.scale_events.is_empty());
        assert_eq!(auto.migrations, 0);
        assert_eq!(auto.scale.peak_active_shards, 3);
        let expect = 3.0 * fixed.fleet.makespan_s;
        assert!((auto.scale.shard_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn decode_reactive_scales_up_under_burst_and_back_down() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(1400, 7);
        for scale_down in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
            let r = run_decode_auto(
                &trace,
                &fleet,
                &AutoscaleConfig {
                    retire: scale_down,
                    ..decode_reactive_cfg(1, 1)
                },
                DecodeScheduler::Continuous,
            );
            assert_eq!(r.decode.fleet.completed, 1400, "{scale_down}");
            assert_eq!(
                r.decode.generated_tokens,
                trace.iter().map(|q| q.output_len as u64).sum::<u64>(),
                "{scale_down}"
            );
            assert!(
                r.scale.peak_active_shards > 1,
                "{scale_down}: never scaled up under the burst"
            );
            assert!(
                r.scale
                    .scale_events
                    .iter()
                    .any(|e| e.kind == ScaleEventKind::Retired),
                "{scale_down}: never scaled back down"
            );
            assert!(r.scale.mean_active_shards < r.scale.peak_active_shards as f64);
        }
    }

    #[test]
    fn decode_migrate_re_prefills_evicted_residents_exactly_once() {
        // Start wide and schedule down to 1 shard mid-burst: residents
        // are mid-generation on the retiring shards, so Migrate must
        // evict them and every eviction must be matched by exactly one
        // re-prefill on a survivor. Continuous scheduling keeps deadline
        // preemptions out of the count.
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(800, 11);
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 3,
            policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                start_s: 0.104, // mid-burst backlog: residents in flight
                shards: 1,
            }]),
            retire: DecodeScaleDown::Migrate,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        };
        let r = run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::Continuous);
        assert_eq!(r.decode.fleet.completed, 800);
        assert!(r.migrations > 0, "scale-down never caught a resident");
        assert_eq!(
            r.re_prefills, r.migrations,
            "every migrated resident re-prefills exactly once"
        );
        assert_eq!(r.decode.preemptions, 0, "continuous never preempts");
        // Token conservation survives the migrations.
        for (req, out) in trace.iter().zip(&r.decode.requests) {
            assert_eq!(out.tokens, req.output_len);
        }
        // The per-request split agrees with the totals.
        let per_req: usize = r
            .decode
            .requests
            .iter()
            .map(|q| q.re_prefills as usize)
            .sum();
        assert_eq!(per_req, r.re_prefills);
    }

    #[test]
    fn decode_migrate_releases_finished_static_residents_without_re_prefill() {
        // Static scheduling pads finished sequences in their slots until
        // the whole batch drains. A Migrate scale-down that catches such
        // a batch must evict (and re-prefill) only the residents still
        // generating — the finished ones are released, not migrated.
        // Shard 1 holds {out=1 (finished after one iteration), out=200
        // (mid-generation)} when the scheduled retire lands.
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let mk = |output_len: usize| DecodeRequest {
            arrival_s: 0.0,
            prefill_len: 64,
            output_len,
            priority: crate::decode::Priority::Normal,
        };
        // JSQ routes in order: s0, s1, s0, s1.
        let trace = vec![mk(1), mk(1), mk(200), mk(200)];
        let r = simulate_decode_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Static,
            &DecodeConfig {
                max_slots: 2,
                ttft_deadline_s: 0.25,
            },
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 2,
                policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                    start_s: 1e-4, // lands mid-batch, after the out=1 members finished
                    shards: 1,
                }]),
                retire: DecodeScaleDown::Migrate,
                eval_interval_s: 1e-4,
                warmup_s: 0.001,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.decode.fleet.completed, 4);
        assert_eq!(r.decode.generated_tokens, 402);
        // Only the unfinished resident of the retired shard migrates; its
        // finished batch-mate is released with no phantom re-prefill.
        assert_eq!(r.migrations, 1, "finished padded resident was migrated");
        assert_eq!(r.re_prefills, 1);
        assert_eq!(
            r.decode.requests[1].re_prefills, 0,
            "finished request re-priced"
        );
        assert_eq!(
            r.decode.requests[3].re_prefills, 1,
            "live resident not re-prefilled"
        );
    }

    #[test]
    fn decode_drain_retires_without_re_prefills() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(800, 13);
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 3,
            policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                start_s: 0.104,
                shards: 1,
            }]),
            retire: DecodeScaleDown::Drain,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        };
        let r = run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::Continuous);
        assert_eq!(r.decode.fleet.completed, 800);
        assert_eq!(r.migrations, 0, "drain never evicts");
        assert_eq!(r.re_prefills, 0, "drain pays no re-prefill");
        assert!(
            r.scale
                .scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "the table scale-down never completed"
        );
        // Drained shards must not run an iteration after retiring.
        assert!(!r.decode.fleet.batch_log.is_empty());
        for b in &r.decode.fleet.batch_log {
            let mut allowed = true;
            for e in r.scale.scale_events.iter().filter(|e| e.shard == b.shard) {
                if e.time_s > b.start_s + 1e-12 {
                    break;
                }
                match e.kind {
                    ScaleEventKind::Retired | ScaleEventKind::Failed => allowed = false,
                    ScaleEventKind::Launch | ScaleEventKind::Join => allowed = true,
                    ScaleEventKind::RetireStart | ScaleEventKind::Recovered => {}
                }
            }
            assert!(allowed, "iteration on retired shard {}", b.shard);
        }
    }

    #[test]
    fn decode_warmup_never_admits_work_to_a_cold_shard() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(1400, 17);
        let r = with_batch_log(|| {
            run_decode_auto(
                &trace,
                &fleet,
                &decode_reactive_cfg(1, 1),
                DecodeScheduler::Continuous,
            )
        });
        for e in r
            .scale
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Join)
        {
            let launch = r
                .scale
                .scale_events
                .iter()
                .find(|l| l.shard == e.shard && l.kind == ScaleEventKind::Launch)
                .expect("join without launch");
            assert!(e.time_s - launch.time_s >= 0.004 - 1e-9, "warm-up skipped");
        }
        assert!(!r.decode.fleet.batch_log.is_empty());
        for b in &r.decode.fleet.batch_log {
            if b.shard == 0 {
                continue;
            }
            let join = r
                .scale
                .scale_events
                .iter()
                .filter(|e| e.shard == b.shard && e.kind == ScaleEventKind::Join)
                .map(|e| e.time_s)
                .next()
                .expect("iteration on a shard that never joined");
            assert!(
                b.start_s >= join - 1e-9,
                "shard {} ran an iteration at {} before joining at {}",
                b.shard,
                b.start_s,
                join
            );
        }
    }

    #[test]
    fn decode_predictive_autoscale_is_deterministic() {
        // Predictive scaling consumes only the simulation-time arrival
        // stream — re-running the identical inputs must be bit-identical
        // (the satellite pin: no wall-clock reads in the estimator).
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(600, 21);
        let cfg = AutoscaleConfig {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Predictive {
                shard_capacity: 2000.0,
                horizon_s: 0.006,
                alpha: 0.4,
                period_s: Some(0.5),
            },
            retire: DecodeScaleDown::Migrate,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        };
        let go = || run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::ContinuousPreempt);
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "initial_shards outside")]
    fn decode_initial_below_min_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = decode_burst_trace(10, 1);
        let _ = run_decode_auto(
            &trace,
            &fleet,
            &AutoscaleConfig {
                min_shards: 2,
                initial_shards: 1,
                ..AutoscaleConfig::default()
            },
            DecodeScheduler::Continuous,
        );
    }

    #[test]
    #[should_panic(expected = "predictive alpha")]
    fn predictive_zero_alpha_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                policy: ScalePolicy::Predictive {
                    shard_capacity: 50.0,
                    horizon_s: 0.1,
                    alpha: 0.0,
                    period_s: None,
                },
                ..AutoscaleConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "scale_up_depth > scale_down_depth")]
    fn inverted_hysteresis_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                policy: ScalePolicy::Reactive {
                    scale_up_depth: 1.0,
                    scale_down_depth: 4.0,
                },
                ..AutoscaleConfig::default()
            },
        );
    }

    /// A one-phase table starting at `start_s`.
    fn one_phase_schedule(start_s: f64) -> AutoscaleConfig {
        AutoscaleConfig {
            policy: ScalePolicy::Scheduled(vec![SchedulePhase { start_s, shards: 2 }]),
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "start times must be finite")]
    fn scheduled_nan_start_rejected() {
        one_phase_schedule(f64::NAN).validate(2);
    }

    #[test]
    #[should_panic(expected = "start times must be finite")]
    fn scheduled_infinite_start_rejected() {
        one_phase_schedule(f64::INFINITY).validate(2);
    }
}
