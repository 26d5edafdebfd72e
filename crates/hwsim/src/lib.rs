//! # lat-hwsim
//!
//! Cycle-approximate simulator of the paper's FPGA accelerator (§4, Fig. 2).
//!
//! The original system is an Alveo U280 design written in Vivado HLS; this
//! crate substitutes a calibrated performance/energy model with the same
//! resource envelope (see DESIGN.md's substitution table):
//!
//! - [`spec::FpgaSpec`] — the chip: 200 MHz clock, 3000 DSP slices in SLR0,
//!   460 GB/s HBM, 35 MB of on-chip memory, and a simple static+dynamic
//!   power model.
//! - [`kernels`] — cycle models of the individual hardware units: the tiled
//!   MM unit, the bits-selector + LUT distance unit, the II=1 merge-sort
//!   top-k unit, and the fused attention kernel.
//! - [`accelerator::AcceleratorDesign`] — glues a model configuration, an
//!   Algorithm-1 stage allocation and the chip spec into per-stage timing
//!   (compute/memory overlap per §4.1's prefetching), and runs whole
//!   batches through the length-aware pipeline to produce a
//!   [`report::FpgaRunReport`].
//! - [`energy`] — energy and GOP/J accounting used by Table 2.
//! - [`fleet`] — event-driven multi-shard serving simulator (round-robin /
//!   join-shortest-queue / length-binned dispatch over N designs), plus
//!   stationary and nonstationary (piecewise / diurnal) Poisson trace
//!   generators. One shard under join-shortest-queue dispatch is the
//!   single-accelerator online-serving case.
//! - [`decode`] — generative (multi-step) serving on the fleet machinery:
//!   static vs continuous (iteration-level) batching and deadline-driven
//!   preemption, with TTFT / inter-token-latency / goodput reporting.
//! - [`autoscale`] — runtime shard join/retire over the fleet engine:
//!   reactive / utilization-target / scheduled policies, warm-up delays,
//!   drain-vs-evict scale-down, and cost (shard-seconds) × SLO reporting.
//! - [`failure`] — deterministic fault injection over both engines: shard
//!   crashes and stragglers from a declarative [`failure::FaultPlan`],
//!   client timeout/retry/deadline semantics, and pre/during/post-incident
//!   SLO, goodput and scale-event reporting.
//! - [`disagg`] — disaggregated prefill/decode serving on the decode
//!   engine: independent pools joined by a priced
//!   [`decode::KvTransfer`] handoff, a deterministic shared-prefix
//!   cache, and per-pool autoscaling.
//!
//! # Example
//!
//! ```
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::spec::FpgaSpec;
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_model::config::ModelConfig;
//! use lat_model::graph::AttentionMode;
//!
//! let design = AcceleratorDesign::new(
//!     &ModelConfig::bert_base(),
//!     AttentionMode::paper_sparse(),
//!     FpgaSpec::alveo_u280(),
//!     177, // average sequence length used for stage allocation
//! );
//! let report = design.run_batch(&[140, 100, 82, 78, 72], SchedulingPolicy::LengthAware);
//! assert!(report.seconds > 0.0);
//! assert!(report.stage_utilization.iter().all(|&u| u <= 1.0));
//! ```

#![warn(missing_docs)]

pub mod accelerator;
pub mod autoscale;
pub mod decode;
pub mod disagg;
pub mod dse;
pub mod energy;
pub mod failure;
pub mod fleet;
pub mod hbm;
pub mod kernels;
pub mod report;
pub mod roofline;
#[cfg(test)]
mod serving;
pub mod spec;
pub mod statemachine;
pub mod substage;
