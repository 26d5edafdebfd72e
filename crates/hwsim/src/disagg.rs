//! Disaggregated prefill/decode serving with shared-prefix caching.
//!
//! The colocated decode engine ([`crate::decode`]) runs prefill and
//! decode on the same shards, so a long prompt's prefill pass stalls
//! every resident's next token and a deep decode batch queues incoming
//! prompts. The DistServe/Splitwise-style split gives each phase its own
//! pool: a **prefill pool** admits arrivals, runs each prompt's prefill
//! (emitting the first token), and hands the sequence's KV state to a
//! **decode pool** that steps it to completion. The handoff is priced by
//! a [`KvTransfer`] — latency linear in the resident context length —
//! and an infinite transfer cost degenerates to the colocated engine
//! bit-for-bit (residents simply decode where they prefilled, and the
//! decode pool idles).
//!
//! Chat-style workloads amplify the split with a **shared-prefix cache**
//! on the prefill pool: requests declare membership in a prefix group
//! ([`PrefixGroup`], assigned by
//! [`lat_workloads::prefix::PrefixProfile`]), and a hit skips the cached
//! prefix's share of the prefill pass. The cache is a deterministic,
//! capacity-bounded table evicting least-recently-used-by-sim-time; a
//! zero-capacity cache never hits and reproduces the uncached engine
//! bit-for-bit.
//!
//! Everything runs on the SAME `DecodeCore` event loop as
//! [`crate::decode::simulate_decode`] — the pools are one fleet whose
//! `accepting` mask confines fresh arrivals to the prefill shards, and
//! the handoff queue is a controller agenda — so the existing layers
//! compose: fault injection on either pool
//! ([`crate::failure::simulate_disagg_failure`]) and per-pool
//! autoscaling through the shared [`crate::autoscale::ScalePolicy`]
//! semantics ([`simulate_disagg_autoscale`]).
//!
//! # Example
//!
//! One prefill shard feeding one decode shard over a cheap interconnect:
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::decode::{decode_trace, DecodeConfig, DecodeScheduler, KvTransfer};
//! use lat_hwsim::disagg::{simulate_disaggregated, DisaggConfig};
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
//! let pool = homogeneous_fleet(&design, 1);
//! let spec = DatasetSpec::rte();
//! let trace = decode_trace(&spec, &spec.decode_output(), 0.0, 150.0, 4, 11);
//! let report = simulate_disaggregated(
//!     &pool, // prefill pool
//!     &pool, // decode pool
//!     &trace,
//!     &[], // no declared prefix groups
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     DecodeScheduler::Continuous,
//!     &DecodeConfig::default(),
//!     &DisaggConfig {
//!         transfer: KvTransfer::Copy { base_s: 1e-4, per_token_s: 1e-7 },
//!         prefix_cache_capacity: 0,
//!     },
//! );
//! assert_eq!(report.decode.fleet.completed, 4);
//! // Every multi-token request crossed the interconnect exactly once.
//! let multi = trace.iter().filter(|r| r.output_len > 1).count();
//! assert_eq!(report.transfers, multi);
//! ```

use crate::accelerator::AcceleratorDesign;
use crate::autoscale::{
    decode_load, decode_shard_idle, PoolHost, ScaleEvent, ScalePolicy, ShardPool, Ticker,
};
use crate::decode::{
    DecodeConfig, DecodeController, DecodeCore, DecodeReport, DecodeRequest, DecodeScheduler,
    KvTransfer,
};
use crate::fleet::{route_then_kick, DispatchPolicy};
use lat_core::pipeline::SchedulingPolicy;
use lat_workloads::prefix::PrefixGroup;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Parameters of the disaggregated serving layer (pool sizes are the two
/// design slices handed to [`simulate_disaggregated`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisaggConfig {
    /// How KV state crosses from the prefill pool to the decode pool.
    /// [`KvTransfer::Reprefill`] hands off instantly but re-prefills the
    /// grown context on the decode shard; [`KvTransfer::Copy`] pays wire
    /// latency and resumes decoding. A non-finite copy cost means "never
    /// hand off" — sequences decode in place, colocated-style.
    pub transfer: KvTransfer,
    /// Shared-prefix cache capacity in *entries* (distinct prefix
    /// groups); 0 disables caching bit-for-bit.
    pub prefix_cache_capacity: usize,
}

impl Default for DisaggConfig {
    fn default() -> Self {
        Self {
            transfer: KvTransfer::Copy {
                base_s: 5e-4,
                per_token_s: 2e-6,
            },
            prefix_cache_capacity: 0,
        }
    }
}

impl DisaggConfig {
    /// Panics unless the configuration is well-formed.
    pub fn validate(&self) {
        self.transfer.validate();
    }
}

/// Aggregated view of one pool's shards in a [`DisaggReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolReport {
    /// Shards in the pool.
    pub shards: usize,
    /// Requests that *completed* on this pool's shards (a handed-off
    /// request completes on the decode pool).
    pub completed: usize,
    /// Iterations launched across the pool.
    pub iterations: usize,
    /// Mean busy-time utilization over the pool's shards (busy time /
    /// makespan, averaged).
    pub utilization: f64,
    /// Mean occupied-slot utilization over the pool's shards.
    pub slot_utilization: f64,
}

/// Shared-prefix cache counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefixCacheReport {
    /// Configured capacity in entries.
    pub capacity: usize,
    /// Lookups that found their group resident.
    pub hits: usize,
    /// Lookups that missed (including every lookup at capacity 0).
    pub misses: usize,
    /// Entries displaced by LRU capacity eviction.
    pub evictions: usize,
    /// Prefill tokens skipped across all hits (after clamping to each
    /// request's own prompt length).
    pub tokens_saved: u64,
}

/// Result of a disaggregated simulation: the combined-fleet
/// [`DecodeReport`] (shards = prefill pool ++ decode pool, in that
/// order) plus per-pool rollups, KV-transfer accounting, and the prefix
/// cache counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggReport {
    /// Combined-fleet decode report. Fleet-wide `slot_utilization`
    /// averages over BOTH pools; use the per-pool rollups when comparing
    /// against a colocated baseline.
    pub decode: DecodeReport,
    /// Rollup over the prefill shards (indices `0..prefill_shards`).
    pub prefill_pool: PoolReport,
    /// Rollup over the decode shards (indices `prefill_shards..`).
    pub decode_pool: PoolReport,
    /// Completed prefill→decode handoffs.
    pub transfers: usize,
    /// Σ modeled transfer latency over those handoffs.
    pub transfer_time_s: f64,
    /// Σ context tokens (KV state) moved across the interconnect.
    pub transferred_tokens: u64,
    /// Shared-prefix cache counters.
    pub prefix: PrefixCacheReport,
}

/// One resident entry of the deterministic shared-prefix cache.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    group: u64,
    prefix_len: usize,
    last_used_s: f64,
    /// Monotone touch counter breaking `last_used_s` ties (same-instant
    /// arrivals), keeping eviction deterministic.
    lru_seq: u64,
}

/// Capacity-bounded prefix table, LRU by simulation time. Lookup order is
/// the arrival event order, so the whole cache history is a pure function
/// of the trace and the prefix assignment.
struct PrefixCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    seq: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PrefixCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::with_capacity(capacity.min(64)),
            seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the cached prefix length on a hit (touching the entry);
    /// on a miss, inserts the group (evicting the LRU entry at capacity)
    /// and returns `None`. Capacity 0 records a miss and stores nothing.
    fn lookup(&mut self, g: PrefixGroup, now: f64) -> Option<usize> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.group == g.group) {
            e.last_used_s = now;
            e.lru_seq = seq;
            self.hits += 1;
            return Some(e.prefix_len);
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.last_used_s
                        .total_cmp(&b.last_used_s)
                        .then(a.lru_seq.cmp(&b.lru_seq))
                })
                .map(|(i, _)| i)
                .expect("non-empty cache at capacity");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push(CacheEntry {
            group: g.group,
            prefix_len: g.prefix_len,
            last_used_s: now,
            lru_seq: seq,
        });
        None
    }
}

/// The disaggregation controller: confines fresh arrivals to the prefill
/// pool (via the core's `accepting` mask), detaches first-token residents
/// from prefill shards at iteration boundaries, prices each handoff with
/// the [`KvTransfer`], and lands completed handoffs in the decode pool.
pub(crate) struct DisaggController<'a> {
    n_prefill: usize,
    transfer: KvTransfer,
    prefixes: &'a [Option<PrefixGroup>],
    cache: PrefixCache,
    /// One prefix lookup per request, at its first arrival event.
    looked_up: Vec<bool>,
    /// In-flight handoffs as `(ready_s, request)`; drained in insertion
    /// order among the due when the control event at `ready_s` fires.
    pending: Vec<(f64, usize)>,
    /// Decode-pool routing eligibility (autoscaling retires/launches flip
    /// this); indexed by combined-fleet shard, `false` on every prefill
    /// shard.
    open: Vec<bool>,
    /// Decode-pool round-robin cursor, separate from the core's
    /// fresh-arrival cursor.
    rr_decode: usize,
    transfers: usize,
    transfer_time_s: f64,
    transferred_tokens: u64,
    tokens_saved: u64,
}

impl<'a> DisaggController<'a> {
    /// `n_total` combined shards, the first `n_prefill` of which form the
    /// prefill pool; `open_decode` caps how many decode shards start
    /// routable (autoscaling starts below the ceiling).
    pub(crate) fn new(
        n_total: usize,
        n_prefill: usize,
        open_decode: usize,
        prefixes: &'a [Option<PrefixGroup>],
        n_requests: usize,
        cfg: &DisaggConfig,
    ) -> Self {
        let open = (0..n_total)
            .map(|s| s >= n_prefill && s < n_prefill + open_decode)
            .collect();
        Self {
            n_prefill,
            transfer: cfg.transfer,
            prefixes,
            cache: PrefixCache::new(cfg.prefix_cache_capacity),
            looked_up: vec![false; n_requests],
            pending: Vec::new(),
            open,
            rr_decode: 0,
            transfers: 0,
            transfer_time_s: 0.0,
            transferred_tokens: 0,
            tokens_saved: 0,
        }
    }

    /// Routable decode-pool mask right now (open, alive).
    fn decode_mask(&self, core: &DecodeCore<'_>) -> Vec<bool> {
        (0..self.open.len())
            .map(|s| self.open[s] && !core.dead[s])
            .collect()
    }

    /// Routes request `r` into the decode pool. If the whole decode pool
    /// is unroutable (crashed/retired), the sequence falls back to the
    /// accepting shards and re-prefills there — the KV copy has no
    /// destination, so its warmth is forfeit.
    fn route_to_decode(&mut self, core: &mut DecodeCore<'_>, r: usize, now: f64) -> usize {
        let mask = self.decode_mask(core);
        if mask.iter().any(|&m| m) {
            core.route_request_into(r, now, &mask, &mut self.rr_decode)
        } else {
            core.kv_warm[r] = false;
            core.route_request(r, now)
        }
    }

    /// Routes `requests` into the decode pool in order
    /// ([`DisaggController::route_to_decode`]), then kicks every shard
    /// that received one.
    fn hand_off(&mut self, core: &mut DecodeCore<'_>, requests: Vec<usize>, now: f64) {
        route_then_kick(
            core,
            requests,
            |core, r| Some(self.route_to_decode(core, r, now)),
            |core, s| core.start_iteration(s, now),
        );
    }

    /// Lands every due handoff in the decode pool, in insertion order.
    fn land_due_handoffs(&mut self, core: &mut DecodeCore<'_>, now: f64) {
        let mut due = Vec::new();
        self.pending.retain(|&(ready_s, r)| {
            if ready_s <= now {
                due.push(r);
            }
            ready_s > now
        });
        self.hand_off(core, due, now);
    }

    /// Re-asserts the pool boundary: no decode shard ever accepts fresh
    /// arrivals. The generic failure layer's recovery actions re-open
    /// `accepting` without knowing about pools; this runs on every
    /// control event, after those actions and before any later arrival.
    fn enforce_pools(&self, core: &mut DecodeCore<'_>) {
        for s in self.n_prefill..core.accepting.len() {
            core.accepting[s] = false;
        }
    }

    /// Consumes the controller into the disagg view of a finished run.
    pub(crate) fn into_report(self, decode: DecodeReport) -> DisaggReport {
        let n_prefill = self.n_prefill;
        let pool = |range: std::ops::Range<usize>| {
            let n = range.len().max(1) as f64;
            PoolReport {
                shards: range.len(),
                completed: decode.fleet.shards[range.clone()]
                    .iter()
                    .map(|s| s.completed)
                    .sum(),
                iterations: decode.fleet.shards[range.clone()]
                    .iter()
                    .map(|s| s.batches)
                    .sum(),
                utilization: decode.fleet.shards[range.clone()]
                    .iter()
                    .map(|s| s.utilization)
                    .sum::<f64>()
                    / n,
                slot_utilization: decode.shards[range]
                    .iter()
                    .map(|s| s.slot_utilization)
                    .sum::<f64>()
                    / n,
            }
        };
        let n_total = decode.fleet.shards.len();
        DisaggReport {
            prefill_pool: pool(0..n_prefill),
            decode_pool: pool(n_prefill..n_total),
            transfers: self.transfers,
            transfer_time_s: self.transfer_time_s,
            transferred_tokens: self.transferred_tokens,
            prefix: PrefixCacheReport {
                capacity: self.cache.capacity,
                hits: self.cache.hits,
                misses: self.cache.misses,
                evictions: self.cache.evictions,
                tokens_saved: self.tokens_saved,
            },
            decode,
        }
    }
}

impl DecodeController for DisaggController<'_> {
    fn on_arrival(&mut self, core: &mut DecodeCore<'_>, r: usize, now: f64) {
        if self.looked_up[r] {
            return; // a retry re-arrives; the lookup already happened
        }
        self.looked_up[r] = true;
        let Some(g) = self.prefixes.get(r).copied().flatten() else {
            return;
        };
        if let Some(cached_len) = self.cache.lookup(g, now) {
            // The discount can never consume the whole prompt: at least
            // one fresh token must run through prefill.
            let skip = cached_len.min(core.trace[r].prefill_len.saturating_sub(1));
            core.prefill_skip[r] = skip;
            self.tokens_saved += skip as u64;
        }
    }

    fn on_control(&mut self, core: &mut DecodeCore<'_>, now: f64) {
        self.enforce_pools(core);
        self.land_due_handoffs(core, now);
    }

    fn after_step(&mut self, core: &mut DecodeCore<'_>, shard: usize, now: f64) {
        if shard >= self.n_prefill {
            return; // decode-pool sequences finish in place
        }
        // Detach every resident whose prefill pass is done (first token
        // emitted) but whose generation is not: its KV state ships to the
        // decode pool. A non-finite transfer latency keeps it decoding
        // here — exactly the colocated engine.
        let mut detached: Vec<(usize, usize)> = Vec::new(); // (req, context)
        {
            let emitted = &core.emitted;
            let trace = core.trace;
            let transfer = self.transfer;
            core.shards[shard].resident.retain(|sl| {
                let r = sl.req;
                let decoding = emitted[r] >= 1 && emitted[r] < trace[r].output_len;
                if !decoding {
                    return true;
                }
                let context = trace[r].prefill_len + emitted[r];
                if !transfer.latency_s(context).is_finite() {
                    return true;
                }
                detached.push((r, context));
                false
            });
        }
        for (r, context) in detached {
            let latency = self.transfer.latency_s(context);
            self.transfers += 1;
            self.transfer_time_s += latency;
            self.transferred_tokens += context as u64;
            if self.transfer.preserves_kv() {
                core.kv_warm[r] = true;
            }
            let ready = now + latency;
            self.pending.push((ready, r));
            core.schedule_control(ready);
        }
    }

    fn on_shard_up(&mut self, core: &mut DecodeCore<'_>, shard: usize, _now: f64) {
        // A revived prefill shard rejoins dispatch; a revived decode
        // shard only rejoins handoff routing (`open` already covers it).
        core.accepting[shard] = shard < self.n_prefill;
    }
}

/// Simulates `trace` over a disaggregated fleet: `prefill_shards` admit
/// and prefill requests (with `prefixes`-driven cache discounts), then
/// hand KV state to `decode_shards` at the configured transfer cost.
/// `dispatch` routes fresh arrivals over the prefill pool and handoffs
/// over the decode pool (independent cursors); `scheduler` and `cfg`
/// apply to every shard.
///
/// `prefixes` must be empty (no declared groups) or one entry per trace
/// request, as produced by
/// [`lat_workloads::prefix::PrefixProfile::assign`].
///
/// Every request completes exactly once and generates exactly its
/// `output_len` tokens.
///
/// # Panics
///
/// Panics on the [`crate::decode::simulate_decode`] input errors, an
/// empty pool, a misaligned `prefixes` slice, or a malformed
/// [`DisaggConfig`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_disaggregated(
    prefill_shards: &[AcceleratorDesign],
    decode_shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    prefixes: &[Option<PrefixGroup>],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    cfg: &DecodeConfig,
    dcfg: &DisaggConfig,
) -> DisaggReport {
    let designs = combined_fleet(prefill_shards, decode_shards, trace, prefixes, dcfg);
    let n_prefill = prefill_shards.len();
    let accepting: Vec<bool> = (0..designs.len()).map(|s| s < n_prefill).collect();
    let mut core = DecodeCore::new(&designs, trace, policy, dispatch, scheduler, cfg, accepting);
    let mut ctl = DisaggController::new(
        designs.len(),
        n_prefill,
        decode_shards.len(),
        prefixes,
        trace.len(),
        dcfg,
    );
    core.run(&mut ctl);
    let report = ctl.into_report(core.into_report());
    assert_eq!(
        report.decode.fleet.completed,
        trace.len(),
        "request never completed (conservation bug in the disaggregated fleet)"
    );
    report
}

/// Validates the pool/trace/prefix inputs and concatenates the pools
/// (prefill first) into the combined fleet the `DecodeCore` runs.
pub(crate) fn combined_fleet(
    prefill_shards: &[AcceleratorDesign],
    decode_shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    prefixes: &[Option<PrefixGroup>],
    dcfg: &DisaggConfig,
) -> Vec<AcceleratorDesign> {
    assert!(
        !prefill_shards.is_empty(),
        "prefill pool needs at least one shard"
    );
    assert!(
        !decode_shards.is_empty(),
        "decode pool needs at least one shard"
    );
    assert!(
        prefixes.is_empty() || prefixes.len() == trace.len(),
        "prefix assignment must be empty or one entry per request"
    );
    dcfg.validate();
    prefill_shards
        .iter()
        .chain(decode_shards)
        .cloned()
        .collect()
}

// ───────────────────────── per-pool autoscaling ─────────────────────────

/// Scaling envelope of one pool in [`simulate_disagg_autoscale`]; the
/// ceiling is the pool's design-slice length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolPolicy {
    /// Floor on committed shards; never retires below.
    pub min_shards: usize,
    /// Shards active (already warm) at `t = 0`.
    pub initial_shards: usize,
    /// Scaling decision rule — the SAME [`ScalePolicy`] semantics as the
    /// fleet and decode autoscalers, evaluated against this pool's
    /// backlog and busy time.
    pub policy: ScalePolicy,
}

impl PoolPolicy {
    /// A pinned pool: all `n` shards on, no scaling.
    pub fn pinned(n: usize) -> Self {
        Self {
            min_shards: n,
            initial_shards: n,
            policy: ScalePolicy::Pinned,
        }
    }
}

/// Parameters of the per-pool autoscaling layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggAutoscaleConfig {
    /// Prefill-pool envelope.
    pub prefill: PoolPolicy,
    /// Decode-pool envelope. Its reactive/predictive signals see the
    /// *handoff* stream as the arrival process.
    pub decode: PoolPolicy,
    /// Controller sampling period in seconds (shared by both pools; each
    /// decides independently at every tick).
    pub eval_interval_s: f64,
    /// Weight-streaming delay before a launched shard joins its pool.
    pub warmup_s: f64,
    /// Minimum time between scaling actions per pool (feedback policies).
    pub cooldown_s: f64,
}

impl Default for DisaggAutoscaleConfig {
    fn default() -> Self {
        Self {
            prefill: PoolPolicy::pinned(1),
            decode: PoolPolicy::pinned(1),
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
        }
    }
}

impl DisaggAutoscaleConfig {
    /// Panics unless the configuration is well-formed for the given pool
    /// ceilings.
    pub fn validate(&self, max_prefill: usize, max_decode: usize) {
        for (pool, max, name) in [
            (&self.prefill, max_prefill, "prefill"),
            (&self.decode, max_decode, "decode"),
        ] {
            assert!(pool.min_shards >= 1, "{name} pool min_shards must be >= 1");
            assert!(
                pool.min_shards <= max,
                "{name} pool min_shards exceeds the pool size"
            );
            assert!(
                (pool.min_shards..=max).contains(&pool.initial_shards),
                "{name} pool initial_shards outside [min_shards, pool size]"
            );
            pool.policy.validate(pool.min_shards, max);
        }
        assert!(self.eval_interval_s > 0.0, "eval interval must be positive");
        assert!(self.warmup_s >= 0.0, "negative warm-up");
        assert!(self.cooldown_s >= 0.0, "negative cooldown");
    }
}

/// Result of [`simulate_disagg_autoscale`]: the disagg view plus each
/// pool's cost and scaling history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggAutoscaleReport {
    /// The disaggregated serving report.
    pub disagg: DisaggReport,
    /// Σ paid shard-seconds of the prefill pool (warm-up included).
    pub prefill_shard_seconds: f64,
    /// Σ paid shard-seconds of the decode pool.
    pub decode_shard_seconds: f64,
    /// Peak committed prefill shards.
    pub peak_prefill_shards: usize,
    /// Peak committed decode shards.
    pub peak_decode_shards: usize,
    /// Every scaling action of both pools, in time order (prefill before
    /// decode at equal instants). Shard indices are combined-fleet
    /// indices.
    pub scale_events: Vec<ScaleEvent>,
}

/// [`PoolHost`] over the disaggregated fleet: prefill shards route
/// through the core's `accepting` mask, decode shards through the
/// controller's handoff mask.
struct DisaggHost<'c, 'a, 'b> {
    core: &'c mut DecodeCore<'a>,
    ctl: &'c mut DisaggController<'b>,
}

impl PoolHost for DisaggHost<'_, '_, '_> {
    fn set_routable(&mut self, s: usize, open: bool) {
        if s < self.ctl.n_prefill {
            self.core.accepting[s] = open;
        } else {
            self.ctl.open[s] = open;
        }
    }

    fn routable(&self, range: Range<usize>) -> usize {
        if range.start < self.ctl.n_prefill {
            self.core.accepting[range].iter().filter(|&&a| a).count()
        } else {
            range
                .filter(|&s| self.ctl.open[s] && !self.core.dead[s])
                .count()
        }
    }

    /// Drain-style retirement: the waiting queue goes back to the pool's
    /// survivors, and the residents step to completion in place.
    fn drain(&mut self, s: usize, now: f64) {
        if s < self.ctl.n_prefill {
            self.core.shed(s, now, true, false);
        } else {
            let waiting = self.core.take_waiting(s, now);
            self.ctl.hand_off(self.core, waiting, now);
        }
    }

    fn is_idle(&self, s: usize) -> bool {
        decode_shard_idle(self.core, s)
    }

    fn schedule_control(&mut self, time: f64) {
        self.core.schedule_control(time);
    }
}

/// The per-pool autoscaling controller: one [`ShardPool`] per pool on a
/// shared tick, wrapping the [`DisaggController`] that keeps doing the
/// handoff/caching work.
struct DisaggAutoscaler<'a> {
    inner: DisaggController<'a>,
    /// The prefill pool, then the decode pool.
    pools: [ShardPool; 2],
    ticker: Ticker,
}

impl<'a> DisaggAutoscaler<'a> {
    fn new(
        inner: DisaggController<'a>,
        cfg: &DisaggAutoscaleConfig,
        n_prefill: usize,
        n_total: usize,
    ) -> Self {
        let pool = |p: &PoolPolicy, range| {
            ShardPool::new(
                range,
                p.min_shards,
                p.initial_shards,
                &p.policy,
                cfg.eval_interval_s,
                cfg.warmup_s,
                cfg.cooldown_s,
            )
        };
        Self {
            inner,
            pools: [
                pool(&cfg.prefill, 0..n_prefill),
                pool(&cfg.decode, n_prefill..n_total),
            ],
            ticker: Ticker::new(cfg.eval_interval_s),
        }
    }

    fn evaluate_pool(&mut self, core: &mut DecodeCore<'_>, pool: usize, now: f64) {
        let (waiting, busy_elapsed) = decode_load(&core.shards[self.pools[pool].range()], now);
        // The decode pool's offered load is the handoff stream, not the
        // trace arrivals.
        let arrivals = if pool == 0 {
            core.arrivals_seen
        } else {
            self.inner.transfers
        };
        let host = &mut DisaggHost {
            core,
            ctl: &mut self.inner,
        };
        self.pools[pool].evaluate(host, now, waiting, busy_elapsed, arrivals);
    }
}

impl DecodeController for DisaggAutoscaler<'_> {
    fn on_arrival(&mut self, core: &mut DecodeCore<'_>, r: usize, now: f64) {
        self.inner.on_arrival(core, r, now);
    }

    fn on_control(&mut self, core: &mut DecodeCore<'_>, now: f64) {
        let host = &mut DisaggHost {
            core,
            ctl: &mut self.inner,
        };
        for pool in &mut self.pools {
            pool.join_warmed(host, now);
        }
        self.inner.on_control(core, now);
        if !self.ticker.due(now, || {
            core.completed() + core.abandoned == core.trace.len()
        }) {
            return;
        }
        self.evaluate_pool(core, 0, now);
        self.evaluate_pool(core, 1, now);
        core.schedule_control(self.ticker.rearm(now));
    }

    fn after_step(&mut self, core: &mut DecodeCore<'_>, shard: usize, now: f64) {
        self.inner.after_step(core, shard, now);
        let pool = usize::from(shard >= self.inner.n_prefill);
        let host = DisaggHost {
            core,
            ctl: &mut self.inner,
        };
        self.pools[pool].finish_retire_if_idle(&host, shard, now);
    }
}

/// [`simulate_disaggregated`] with runtime pool membership: each pool
/// scales independently through the shared [`ScalePolicy`] semantics —
/// the prefill pool against trace arrivals and its own backlog, the
/// decode pool against the handoff stream. Scale-down drains (residents
/// finish in place; the waiting queue moves to pool survivors).
///
/// Pinning BOTH pools (`min == initial == pool size`,
/// [`ScalePolicy::Pinned`]) schedules no evaluation ticks at all, so the
/// run reproduces [`simulate_disaggregated`] bit-for-bit.
///
/// # Panics
///
/// Panics on the [`simulate_disaggregated`] input errors or a malformed
/// [`DisaggAutoscaleConfig`], and asserts conservation (every request
/// completes).
#[allow(clippy::too_many_arguments)]
pub fn simulate_disagg_autoscale(
    prefill_shards: &[AcceleratorDesign],
    decode_shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    prefixes: &[Option<PrefixGroup>],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    cfg: &DecodeConfig,
    dcfg: &DisaggConfig,
    acfg: &DisaggAutoscaleConfig,
) -> DisaggAutoscaleReport {
    let designs = combined_fleet(prefill_shards, decode_shards, trace, prefixes, dcfg);
    let n_prefill = prefill_shards.len();
    acfg.validate(n_prefill, decode_shards.len());
    let accepting: Vec<bool> = (0..designs.len())
        .map(|s| s < acfg.prefill.initial_shards)
        .collect();
    let mut core = DecodeCore::new(&designs, trace, policy, dispatch, scheduler, cfg, accepting);
    let inner = DisaggController::new(
        designs.len(),
        n_prefill,
        acfg.decode.initial_shards,
        prefixes,
        trace.len(),
        dcfg,
    );
    let pinned = matches!(acfg.prefill.policy, ScalePolicy::Pinned)
        && matches!(acfg.decode.policy, ScalePolicy::Pinned);
    let mut ctl = DisaggAutoscaler::new(inner, acfg, n_prefill, designs.len());
    if pinned {
        // No evaluation ticks: the event stream is simulate_disaggregated's.
        core.run(&mut ctl.inner);
    } else {
        core.schedule_control(acfg.eval_interval_s);
        core.run(&mut ctl);
    }
    let decode = core.into_report();
    assert_eq!(
        decode.fleet.completed,
        trace.len(),
        "request never completed (conservation bug in the disagg autoscaler)"
    );
    let makespan = decode.fleet.makespan_s;
    // Close the books on shards still committed at the end of the run.
    let (prefill_shard_seconds, _, peak_prefill_shards) = ctl.pools[0].close_books(makespan);
    let (decode_shard_seconds, _, peak_decode_shards) = ctl.pools[1].close_books(makespan);
    let [prefill, decode_pool] = ctl.pools;
    let mut scale_events = prefill.events;
    scale_events.extend(decode_pool.events);
    scale_events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    DisaggAutoscaleReport {
        disagg: ctl.inner.into_report(decode),
        prefill_shard_seconds,
        decode_shard_seconds,
        peak_prefill_shards,
        peak_decode_shards,
        scale_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::ScaleEventKind;
    use crate::fleet::{homogeneous_fleet, with_batch_log};
    use crate::spec::FpgaSpec;
    use lat_model::config::ModelConfig;
    use lat_model::graph::AttentionMode;
    use lat_workloads::datasets::DatasetSpec;
    use lat_workloads::prefix::PrefixProfile;

    fn tiny_design(s_avg: usize) -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            s_avg,
        )
    }

    fn trace(n: usize, rate: f64, seed: u64) -> Vec<DecodeRequest> {
        let spec = DatasetSpec::rte();
        crate::decode::decode_trace(&spec, &spec.decode_output(), 0.0, rate, n, seed)
    }

    /// A logged run, so whole-report equalities compare the step log.
    fn run(
        n_prefill: usize,
        n_decode: usize,
        trace: &[DecodeRequest],
        prefixes: &[Option<PrefixGroup>],
        dcfg: &DisaggConfig,
    ) -> DisaggReport {
        let fleet = homogeneous_fleet(&tiny_design(64), n_prefill.max(n_decode));
        with_batch_log(|| {
            simulate_disaggregated(
                &fleet[..n_prefill],
                &fleet[..n_decode],
                trace,
                prefixes,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                dcfg,
            )
        })
    }

    fn cheap() -> DisaggConfig {
        DisaggConfig {
            transfer: KvTransfer::Copy {
                base_s: 1e-5,
                per_token_s: 1e-8,
            },
            prefix_cache_capacity: 0,
        }
    }

    #[test]
    fn every_request_completes_and_multi_token_requests_transfer_once() {
        let t = trace(24, 300.0, 5);
        let r = run(2, 2, &t, &[], &cheap());
        assert_eq!(r.decode.fleet.completed, 24);
        assert_eq!(
            r.decode.generated_tokens,
            t.iter().map(|q| q.output_len as u64).sum::<u64>()
        );
        let multi = t.iter().filter(|q| q.output_len > 1).count();
        assert_eq!(r.transfers, multi, "one handoff per multi-token request");
        assert!(r.transfer_time_s > 0.0);
        // Prefill iterations stay in the prefill pool; completions of
        // handed-off requests land in the decode pool.
        assert!(r.decode_pool.completed >= multi);
        assert!(r.transferred_tokens >= multi as u64);
    }

    #[test]
    fn infinite_transfer_never_hands_off() {
        let t = trace(12, 200.0, 9);
        let dcfg = DisaggConfig {
            transfer: KvTransfer::Copy {
                base_s: f64::INFINITY,
                per_token_s: 0.0,
            },
            prefix_cache_capacity: 0,
        };
        let r = run(2, 2, &t, &[], &dcfg);
        assert_eq!(r.transfers, 0);
        assert_eq!(r.transfer_time_s, 0.0);
        assert_eq!(r.decode_pool.iterations, 0, "decode pool never stepped");
        assert_eq!(r.decode.fleet.completed, 12);
    }

    #[test]
    fn reprefill_transfer_pays_re_prefills_instead_of_wire_time() {
        let t = trace(10, 250.0, 13);
        let dcfg = DisaggConfig {
            transfer: KvTransfer::Reprefill,
            prefix_cache_capacity: 0,
        };
        let r = run(1, 1, &t, &[], &dcfg);
        assert_eq!(r.decode.fleet.completed, 10);
        assert_eq!(r.transfer_time_s, 0.0, "re-prefill moves no KV bytes");
        let multi = t.iter().filter(|q| q.output_len > 1).count();
        assert_eq!(r.transfers, multi);
        // Every handed-off request re-prefilled on the decode shard.
        let re_prefills: u32 = r.decode.requests.iter().map(|q| q.re_prefills).sum();
        assert_eq!(re_prefills as usize, multi);
        // The KV-copy variant never re-prefills.
        let copy = run(1, 1, &t, &[], &cheap());
        assert_eq!(
            copy.decode
                .requests
                .iter()
                .map(|q| q.re_prefills)
                .sum::<u32>(),
            0
        );
    }

    #[test]
    fn prefix_cache_hits_save_tokens_and_speed_up_prefill() {
        let t = trace(40, 400.0, 21);
        let profile = PrefixProfile {
            num_groups: 2,
            prefix_len: 48,
            grouped_fraction: 1.0,
        };
        let prefixes = profile.assign(t.len(), 21);
        let mut dcfg = cheap();
        dcfg.prefix_cache_capacity = 2;
        let cached = run(2, 2, &t, &prefixes, &dcfg);
        let uncached = run(2, 2, &t, &[], &cheap());
        assert!(cached.prefix.hits >= 30, "2 groups, 40 grouped requests");
        assert_eq!(cached.prefix.misses, 2, "one cold miss per group");
        assert_eq!(cached.prefix.evictions, 0);
        assert!(cached.prefix.tokens_saved > 0);
        assert_eq!(cached.decode.fleet.completed, 40);
        // Skipping cached prefixes strictly reduces prefill work, so the
        // run can only get faster.
        assert!(cached.decode.fleet.makespan_s < uncached.decode.fleet.makespan_s);
        assert!(cached.decode.ttft_p95_s <= uncached.decode.ttft_p95_s);
    }

    #[test]
    fn zero_capacity_cache_is_bit_identical_to_no_cache() {
        let t = trace(20, 300.0, 33);
        let profile = PrefixProfile {
            num_groups: 3,
            prefix_len: 32,
            grouped_fraction: 0.8,
        };
        let prefixes = profile.assign(t.len(), 33);
        let mut dcfg = cheap();
        dcfg.prefix_cache_capacity = 0;
        let with_groups = run(2, 1, &t, &prefixes, &dcfg);
        let without = run(2, 1, &t, &[], &cheap());
        assert_eq!(with_groups.decode, without.decode);
        assert_eq!(with_groups.transfers, without.transfers);
        assert_eq!(with_groups.prefix.hits, 0);
        assert_eq!(with_groups.prefix.tokens_saved, 0);
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let t = trace(30, 500.0, 42);
        let profile = PrefixProfile {
            num_groups: 4,
            prefix_len: 24,
            grouped_fraction: 0.6,
        };
        let prefixes = profile.assign(t.len(), 42);
        let mut dcfg = cheap();
        dcfg.prefix_cache_capacity = 2;
        let go = || run(2, 2, &t, &prefixes, &dcfg);
        assert_eq!(go(), go());
    }

    #[test]
    fn pinned_pools_reproduce_plain_disagg_bit_for_bit() {
        let t = trace(18, 280.0, 17);
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let dcfg = cheap();
        let plain = with_batch_log(|| {
            simulate_disaggregated(
                &fleet,
                &fleet,
                &t,
                &[],
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &dcfg,
            )
        });
        let acfg = DisaggAutoscaleConfig {
            prefill: PoolPolicy::pinned(2),
            decode: PoolPolicy::pinned(2),
            ..DisaggAutoscaleConfig::default()
        };
        let scaled = with_batch_log(|| {
            simulate_disagg_autoscale(
                &fleet,
                &fleet,
                &t,
                &[],
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &DecodeConfig::default(),
                &dcfg,
                &acfg,
            )
        });
        assert_eq!(scaled.disagg, plain);
        assert!(scaled.scale_events.is_empty());
        assert_eq!(scaled.peak_prefill_shards, 2);
        assert_eq!(scaled.peak_decode_shards, 2);
    }

    #[test]
    fn reactive_decode_pool_scales_up_under_handoff_pressure() {
        let t = trace(200, 600.0, 3);
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let acfg = DisaggAutoscaleConfig {
            prefill: PoolPolicy::pinned(1),
            decode: PoolPolicy {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Reactive {
                    scale_up_depth: 0.5,
                    scale_down_depth: 0.0,
                },
            },
            eval_interval_s: 0.005,
            warmup_s: 0.002,
            cooldown_s: 0.0,
        };
        let r = simulate_disagg_autoscale(
            &fleet[..1],
            &fleet,
            &t,
            &[],
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &cheap(),
            &acfg,
        );
        assert_eq!(r.disagg.decode.fleet.completed, 200);
        assert!(
            r.peak_decode_shards > 1,
            "handoff backlog never triggered decode-pool scale-up"
        );
        assert!(r
            .scale_events
            .iter()
            .any(|e| e.kind == ScaleEventKind::Launch));
        assert!(r.decode_shard_seconds > 0.0 && r.prefill_shard_seconds > 0.0);
    }
}
