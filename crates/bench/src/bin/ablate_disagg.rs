//! Ablation: disaggregated prefill/decode serving vs colocated
//! continuous batching, iso-hardware ([`DISAGG_COLOCATED_SHARDS`] shards
//! either way), on a prefill-heavy QA workload (SQuAD prompts, short
//! continuations).
//!
//! The grid crosses the KV-interconnect class (NVLink-class cheap vs
//! congested-Ethernet-class costly) with the shared-prefix cache (warm,
//! every group resident vs disabled). Three claims, asserted while the
//! table prints:
//!
//! 1. **Disaggregation wins its regime** — with a cheap interconnect and
//!    a warm prefix cache, the split fleet beats the colocated baseline
//!    on BOTH goodput and p95 TTFT: prefill shards see no decode-slot
//!    contention, and cache hits skip most of each grouped prompt.
//! 2. **Crossover** — with a costly interconnect and no cache, the
//!    colocated baseline wins both metrics back: every handoff stalls
//!    the decode pool for ~a request's service time, and full-price
//!    prefill on half the fleet queues deeper than prefill on all of it.
//! 3. **Accounting** — every cell conserves requests; warm-cache cells
//!    hit at the grouped fraction after one compulsory miss per group;
//!    handoffs equal multi-token requests whenever transfers happen.
//!
//! Deterministic under `HARNESS_SEED`.

use lat_bench::scenarios::{
    bert_base_design, disagg_outputs, disagg_prompts, DISAGG_CACHE_CAPACITY, DISAGG_CHEAP_BASE_S,
    DISAGG_CHEAP_PER_TOKEN_S, DISAGG_COLOCATED_SHARDS, DISAGG_COSTLY_BASE_S,
    DISAGG_COSTLY_PER_TOKEN_S, DISAGG_DECODE_SHARDS, DISAGG_GROUPED_FRACTION,
    DISAGG_PREFILL_SHARDS, DISAGG_PREFIX_GROUPS, DISAGG_PREFIX_LEN, DISAGG_RATE, DISAGG_REQUESTS,
    DISAGG_SLOTS, HARNESS_SEED,
};
use lat_bench::tables;
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::decode::{decode_trace, simulate_decode, DecodeConfig, DecodeScheduler, KvTransfer};
use lat_hwsim::disagg::{simulate_disaggregated, DisaggConfig};
use lat_hwsim::fleet::{homogeneous_fleet, DispatchPolicy};
use lat_workloads::prefix::PrefixProfile;

fn cheap_wire() -> KvTransfer {
    KvTransfer::Copy {
        base_s: DISAGG_CHEAP_BASE_S,
        per_token_s: DISAGG_CHEAP_PER_TOKEN_S,
    }
}

fn costly_wire() -> KvTransfer {
    KvTransfer::Copy {
        base_s: DISAGG_COSTLY_BASE_S,
        per_token_s: DISAGG_COSTLY_PER_TOKEN_S,
    }
}

/// One grid arm: the colocated baseline or a disaggregated cell.
#[derive(Clone, Copy)]
enum Arm {
    Colocated,
    Disagg {
        label: &'static str,
        transfer: KvTransfer,
        capacity: usize,
    },
}

/// The per-arm summary every row and claim reads.
struct Outcome {
    label: String,
    goodput_tok_s: f64,
    ttft_p95_s: f64,
    makespan_s: f64,
    completed: usize,
    transfers: usize,
    hits: usize,
    misses: usize,
    tokens_saved: u64,
}

fn main() {
    let prompts = disagg_prompts();
    let outputs = disagg_outputs();
    let cfg = DecodeConfig {
        max_slots: DISAGG_SLOTS,
        ttft_deadline_s: f64::INFINITY,
    };
    let trace = decode_trace(
        &prompts,
        &outputs,
        0.0,
        DISAGG_RATE,
        DISAGG_REQUESTS,
        HARNESS_SEED,
    );
    let profile = PrefixProfile {
        num_groups: DISAGG_PREFIX_GROUPS,
        prefix_len: DISAGG_PREFIX_LEN,
        grouped_fraction: DISAGG_GROUPED_FRACTION,
    };
    let prefixes = profile.assign(trace.len(), HARNESS_SEED);
    let grouped = prefixes.iter().filter(|p| p.is_some()).count();
    let distinct_groups = prefixes
        .iter()
        .flatten()
        .map(|g| g.group)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let multi = trace.iter().filter(|r| r.output_len > 1).count();
    let pool = Scheduler::from_env();
    println!(
        "Ablation — disaggregated prefill/decode vs colocated ({} prompts, {} outputs,\n\
         {} requests at {:.0}/s, {}P+{}D vs {} colocated shards, {} groups × {}-token prefix,\n\
         {:.0}% grouped, seed {HARNESS_SEED:#x}, {} workers)\n",
        prompts.name,
        outputs.name,
        DISAGG_REQUESTS,
        DISAGG_RATE,
        DISAGG_PREFILL_SHARDS,
        DISAGG_DECODE_SHARDS,
        DISAGG_COLOCATED_SHARDS,
        DISAGG_PREFIX_GROUPS,
        DISAGG_PREFIX_LEN,
        DISAGG_GROUPED_FRACTION * 100.0,
        pool.parallelism(),
    );
    let base = bert_base_design(disagg_prompts().avg_len);
    let fleet = homogeneous_fleet(&base, DISAGG_COLOCATED_SHARDS);
    let (prefill_pool, decode_pool) = fleet.split_at(DISAGG_PREFILL_SHARDS);

    let arms = [
        Arm::Colocated,
        Arm::Disagg {
            label: "disagg cheap wire + warm cache",
            transfer: cheap_wire(),
            capacity: DISAGG_CACHE_CAPACITY,
        },
        Arm::Disagg {
            label: "disagg cheap wire, no cache",
            transfer: cheap_wire(),
            capacity: 0,
        },
        Arm::Disagg {
            label: "disagg costly wire + warm cache",
            transfer: costly_wire(),
            capacity: DISAGG_CACHE_CAPACITY,
        },
        Arm::Disagg {
            label: "disagg costly wire, no cache",
            transfer: costly_wire(),
            capacity: 0,
        },
    ];
    let outcomes = pool.par_map_indexed(&arms, |arm| match *arm {
        Arm::Colocated => {
            let r = simulate_decode(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &cfg,
            );
            Outcome {
                label: "colocated continuous".into(),
                goodput_tok_s: r.goodput_tok_s,
                ttft_p95_s: r.ttft_p95_s,
                makespan_s: r.fleet.makespan_s,
                completed: r.fleet.completed,
                transfers: 0,
                hits: 0,
                misses: 0,
                tokens_saved: 0,
            }
        }
        Arm::Disagg {
            label,
            transfer,
            capacity,
        } => {
            let r = simulate_disaggregated(
                prefill_pool,
                decode_pool,
                &trace,
                &prefixes,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &cfg,
                &DisaggConfig {
                    transfer,
                    prefix_cache_capacity: capacity,
                },
            );
            Outcome {
                label: label.into(),
                goodput_tok_s: r.decode.goodput_tok_s,
                ttft_p95_s: r.decode.ttft_p95_s,
                makespan_s: r.decode.fleet.makespan_s,
                completed: r.decode.fleet.completed,
                transfers: r.transfers,
                hits: r.prefix.hits,
                misses: r.prefix.misses,
                tokens_saved: r.prefix.tokens_saved,
            }
        }
    });

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.0}", o.goodput_tok_s),
                format!("{:.1}", o.ttft_p95_s * 1e3),
                format!("{:.3}", o.makespan_s),
                format!("{}", o.transfers),
                format!("{}/{}", o.hits, o.hits + o.misses),
                format!("{}", o.tokens_saved),
            ]
        })
        .collect();
    println!(
        "{}",
        tables::render(
            &[
                "arm",
                "goodput (tok/s)",
                "p95 TTFT (ms)",
                "makespan (s)",
                "handoffs",
                "cache hits",
                "tokens saved",
            ],
            &rows,
        )
    );

    // ── Claim 3: accounting, on every arm ───────────────────────────────
    let colo = &outcomes[0];
    let best = &outcomes[1];
    let worst = &outcomes[4];
    for o in &outcomes {
        assert_eq!(
            o.completed, DISAGG_REQUESTS,
            "{}: conservation violated",
            o.label
        );
    }
    for o in &outcomes[1..] {
        assert_eq!(
            o.transfers, multi,
            "{}: every multi-token request crosses the wire exactly once",
            o.label
        );
    }
    for o in [&outcomes[1], &outcomes[3]] {
        assert_eq!(
            o.hits,
            grouped - distinct_groups,
            "{}: warm cache must hit every grouped request after one \
             compulsory miss per group",
            o.label
        );
        assert!(o.tokens_saved > 0, "{}: hits saved no tokens", o.label);
    }
    for o in [&outcomes[2], &outcomes[4]] {
        assert_eq!(o.hits, 0, "{}: capacity 0 must never hit", o.label);
        assert_eq!(o.tokens_saved, 0, "{}: capacity 0 saved tokens", o.label);
    }

    // ── Claim 1: disaggregation wins its regime on both metrics ─────────
    assert!(
        best.goodput_tok_s > colo.goodput_tok_s,
        "cheap wire + warm cache: disagg goodput {:.0} !> colocated {:.0}",
        best.goodput_tok_s,
        colo.goodput_tok_s
    );
    assert!(
        best.ttft_p95_s < colo.ttft_p95_s,
        "cheap wire + warm cache: disagg p95 TTFT {:.1} ms !< colocated {:.1} ms",
        best.ttft_p95_s * 1e3,
        colo.ttft_p95_s * 1e3
    );

    // ── Claim 2: the crossover — colocated wins the hostile regime ──────
    assert!(
        colo.goodput_tok_s > worst.goodput_tok_s,
        "costly wire, no cache: colocated goodput {:.0} !> disagg {:.0}",
        colo.goodput_tok_s,
        worst.goodput_tok_s
    );
    assert!(
        colo.ttft_p95_s < worst.ttft_p95_s,
        "costly wire, no cache: colocated p95 TTFT {:.1} ms !< disagg {:.1} ms",
        colo.ttft_p95_s * 1e3,
        worst.ttft_p95_s * 1e3
    );

    println!(
        "Crossover: disaggregation {} goodput ({} p95 TTFT) on the cheap wire with a warm cache;\n\
         colocated takes both back on the costly wire without one ({} goodput, {} p95 TTFT).",
        tables::speedup(best.goodput_tok_s / colo.goodput_tok_s),
        tables::speedup(colo.ttft_p95_s / best.ttft_p95_s),
        tables::speedup(colo.goodput_tok_s / worst.goodput_tok_s),
        tables::speedup(worst.ttft_p95_s / colo.ttft_p95_s),
    );
}
