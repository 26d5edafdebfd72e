//! # lat-core
//!
//! The primary contribution of the DAC'22 paper *"A Length Adaptive
//! Algorithm-Hardware Co-design of Transformer on FPGA Through Sparse
//! Attention and Dynamic Pipelining"*, as a pure-Rust library:
//!
//! 1. **Sparse attention** (§3): [`preselect`] quantizes Q/K to 1 or 4 bits
//!    and ranks candidate keys with a LUT integer matmul; [`topk`] selects
//!    the Top-k per query row (heap reference + the hardware's merge-sort
//!    network model); [`sparse::SparseAttention`] then computes *exact*
//!    attention over only the selected candidates, dropping complexity from
//!    `O(n²)` to `O(n·k)`. [`fused`] provides the Fig. 4 fused kernel that
//!    folds scale/mask/exp into the score loop.
//! 2. **Stage allocation** (§4.2, Algorithm 1): [`stage_alloc`] partitions
//!    the encoder operator graph into coarse-grained pipeline stages by
//!    critical-path priority under a DSP budget, with per-operator
//!    parallelism rate-matching.
//! 3. **Length-aware dynamic pipelining** (§4.2): [`pipeline`] schedules a
//!    batch of variable-length sequences through the coarse stages in
//!    decreasing-length order, eliminating pipeline bubbles; padding and
//!    micro-batching baselines are provided for comparison.
//!
//! Supporting infrastructure: [`pool`] is the deterministic scoped-thread
//! work pool the evaluation harnesses fan their sweep grids across —
//! results land in input order regardless of worker count, so parallelism
//! never changes output. [`sketch`] provides the streaming (fixed-size)
//! latency summary — an exact count and mean plus p50/p95/p99 from a
//! log-linear histogram, within 2⁻⁷ relative for latencies from 1e-12 s
//! to 1e9 s — the fleet engine uses under `ReportMode::Streaming` to
//! survive million-request traces in bounded memory.
//!
//! # Quickstart
//!
//! ```
//! use lat_core::sparse::{SparseAttention, SparseAttentionConfig};
//! use lat_model::attention::{AttentionOp, DenseAttention};
//! use lat_tensor::rng::SplitMix64;
//!
//! # fn main() -> Result<(), lat_model::ModelError> {
//! let mut rng = SplitMix64::new(1);
//! let q = rng.gaussian_matrix(64, 32, 1.0);
//! let k = rng.gaussian_matrix(64, 32, 1.0);
//! let v = rng.gaussian_matrix(64, 32, 1.0);
//!
//! let sparse = SparseAttention::new(SparseAttentionConfig::paper_default());
//! let approx = sparse.attend(&q, &k, &v)?;
//! let exact = DenseAttention.attend(&q, &k, &v)?;
//! assert_eq!(approx.shape(), exact.shape());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod dag;
pub mod fused;
pub mod pipeline;
pub mod pool;
pub mod preselect;
pub mod runtime;
pub mod sketch;
pub mod sparse;
pub mod stage_alloc;
pub mod topk;
