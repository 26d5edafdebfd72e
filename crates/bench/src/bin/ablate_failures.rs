//! Ablation: failure & burst scenarios — a flash-crowd burst with a
//! mid-peak shard crash, driven through the fault-injection layer
//! (`lat_hwsim::failure`) over fixed and autoscaled fleets.
//!
//! Four claims, asserted while the tables print:
//!
//! 1. **Conservation** — zero dropped requests through a mid-peak shard
//!    crash: every request is accounted as completed or explicitly
//!    timed-out, and a patient client over the recovering fleet completes
//!    everything (the crash re-routes, never loses).
//! 2. **Recovery** — post-incident SLO attainment (arrivals after
//!    recovery + one warm-up) comes within [`FAILURE_RECOVERY_TOLERANCE`]
//!    of the pre-incident level, under the reactive AND the predictive
//!    autoscaling policy.
//! 3. **Outage validity** — an unrecovered total outage (zero
//!    completions) produces a well-defined, NaN-free report instead of a
//!    panic.
//! 4. **Migrate beats drain** — when a decode shard straggles with large
//!    live KV residents, evicting and re-prefilling the victims on the
//!    survivors finishes them sooner than draining in place.
//!
//! Also maintains `BENCH_fleet.json` (schema 2): an append-style
//! `entries` array of wall-time records — the fixed-fleet scenario plus a
//! serial-vs-4-worker parallel sweep (asserted bit-identical) — so the
//! file accumulates a PR-over-PR perf trajectory instead of overwriting a
//! single snapshot. A pre-existing schema-1 record is migrated into the
//! array on first run. Deterministic under `HARNESS_SEED` (the JSON's
//! wall-clock fields are the one deliberate exception).

use lat_bench::scenarios::{
    bert_base_design, failure_mix, DECODE_SLOTS, FAILURE_BACKOFF_S, FAILURE_BASE_RATE,
    FAILURE_BURST_DURATION_S, FAILURE_BURST_RATE, FAILURE_BURST_START_S, FAILURE_CRASH_S,
    FAILURE_DEADLINE_S, FAILURE_DECODE_GAP_S, FAILURE_DECODE_OUTPUT, FAILURE_DECODE_PREFILL,
    FAILURE_DECODE_REQUESTS, FAILURE_DECODE_SHARDS, FAILURE_DECODE_SLO_TTFT_S, FAILURE_MAX_RETRIES,
    FAILURE_MAX_SHARDS, FAILURE_MIN_SHARDS, FAILURE_RECOVERY_TOLERANCE, FAILURE_RECOVER_S,
    FAILURE_REQUESTS, FAILURE_SHARD_CAPACITY, FAILURE_SLO_LATENCY_S, FAILURE_STRAGGLER_SLOWDOWN,
    FAILURE_STRAGGLER_WINDOW_S, FAILURE_TIMEOUT_S, FAILURE_WARMUP_S, HARNESS_SEED,
};
use lat_bench::{benchfile, tables};
use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_hwsim::autoscale::{AutoscaleConfig, DecodeScaleDown, RetirePolicy, ScalePolicy};
use lat_hwsim::decode::{DecodeConfig, DecodeRequest, DecodeScheduler, Priority};
use lat_hwsim::failure::{
    simulate_autoscale_failure, simulate_decode_failure, simulate_fleet_failure, ClientConfig,
    ClientOutcome, FailureReport, Fault, FaultKind, FaultPlan, IncidentPhase,
};
use lat_hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, with_batch_log, BatcherConfig, DispatchPolicy,
    RateProfile, Request,
};
use lat_workloads::datasets::LengthSampler;
use serde::json::Value;

fn incident_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![Fault {
            shard: 0,
            kind: FaultKind::Crash {
                at_s: FAILURE_CRASH_S,
                recover_s: Some(FAILURE_RECOVER_S),
            },
        }],
    }
}

fn retry_client() -> ClientConfig {
    ClientConfig {
        timeout_s: FAILURE_TIMEOUT_S,
        max_retries: FAILURE_MAX_RETRIES,
        backoff_s: FAILURE_BACKOFF_S,
        deadline_s: FAILURE_DEADLINE_S,
    }
}

fn base_cfg(policy: ScalePolicy) -> AutoscaleConfig {
    AutoscaleConfig {
        min_shards: FAILURE_MIN_SHARDS,
        initial_shards: 2, // sized for the base rate; the burst forces the rest
        policy,
        retire: RetirePolicy::Drain,
        eval_interval_s: 0.1,
        warmup_s: FAILURE_WARMUP_S,
        cooldown_s: 0.2,
        slo_latency_s: FAILURE_SLO_LATENCY_S,
        phase_bounds_s: Vec::new(),
    }
}

/// SLO attainment over the requests whose *original* arrival falls in
/// `[lo, hi)`: completed inside the SLO / arrivals (timed-out = miss).
fn slo_over(trace: &[Request], outcomes: &[ClientOutcome], lo: f64, hi: f64) -> f64 {
    let mut arrivals = 0usize;
    let mut in_slo = 0usize;
    for (r, o) in trace.iter().zip(outcomes) {
        if r.arrival_s >= lo && r.arrival_s < hi {
            arrivals += 1;
            if o.latency_s <= FAILURE_SLO_LATENCY_S {
                in_slo += 1;
            }
        }
    }
    if arrivals == 0 {
        1.0
    } else {
        in_slo as f64 / arrivals as f64
    }
}

fn phase_label(p: &IncidentPhase) -> String {
    let end = if p.end_s.is_finite() {
        format!("{:.1}", p.end_s)
    } else {
        "∞".into()
    };
    format!("[{:.1}, {end}) s", p.start_s)
}

fn phase_rows(phases: &[IncidentPhase]) -> Vec<Vec<String>> {
    let names = ["pre", "during", "post"];
    phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                names.get(i).unwrap_or(&"?").to_string(),
                phase_label(p),
                format!("{}", p.arrivals),
                format!("{}", p.timed_out),
                tables::pct(p.slo_attainment),
                format!("{:.0}", p.goodput_seq_s),
                format!("{:.0}", p.p95_latency_s * 1e3),
                format!("{}", p.scale_events),
            ]
        })
        .collect()
}

fn print_phases(title: &str, phases: &[IncidentPhase]) {
    println!("{title}");
    println!(
        "{}",
        tables::render(
            &[
                "phase",
                "window",
                "arrivals",
                "timed-out",
                "SLO att.",
                "goodput/s",
                "p95 (ms)",
                "scale ev.",
            ],
            &phase_rows(phases),
        )
    );
}

/// Claim 1's accounting: nothing vanished, whatever the client policy.
fn assert_conserved(name: &str, r: &FailureReport, total: usize) {
    assert_eq!(
        r.completed + r.timed_out,
        total,
        "{name}: {} completed + {} timed-out != {total} requests — a request was lost",
        r.completed,
        r.timed_out
    );
    assert_eq!(r.outcomes.len(), total);
    assert_eq!(
        r.phases.iter().map(|p| p.arrivals).sum::<usize>(),
        total,
        "{name}: incident phases do not partition the trace"
    );
}

fn main() {
    let profile = RateProfile::Burst {
        base_rate: FAILURE_BASE_RATE,
        burst_rate: FAILURE_BURST_RATE,
        start_s: FAILURE_BURST_START_S,
        duration_s: FAILURE_BURST_DURATION_S,
    };
    let trace =
        nonstationary_poisson_trace(&failure_mix(), &profile, FAILURE_REQUESTS, HARNESS_SEED);
    let fleet = homogeneous_fleet(&bert_base_design(99), FAILURE_MAX_SHARDS);
    let batcher = BatcherConfig::default();
    let plan = incident_plan();
    let pool = Scheduler::from_env();

    println!(
        "Ablation — failure & burst (BERT-base, {} prompts, {} requests,\n\
         burst {:.0}→{:.0} seq/s over [{:.1}, {:.1}) s, shard 0 crash {:.1} s → recover {:.1} s,\n\
         SLO {:.0} ms, seed {HARNESS_SEED:#x}, {} workers)\n",
        failure_mix().label(),
        FAILURE_REQUESTS,
        FAILURE_BASE_RATE,
        FAILURE_BURST_RATE,
        FAILURE_BURST_START_S,
        FAILURE_BURST_START_S + FAILURE_BURST_DURATION_S,
        FAILURE_CRASH_S,
        FAILURE_RECOVER_S,
        FAILURE_SLO_LATENCY_S * 1e3,
        pool.parallelism(),
    );

    // ── Claim 1: fixed fleet, patient client — the crash drops nothing ──
    // The patient and retrying runs share every input but the client
    // policy: fan the pair across the pool, consume in index order.
    let clients = [ClientConfig::patient(), retry_client()];
    let mut client_runs = pool
        .par_map_indexed(&clients, |client| {
            simulate_fleet_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &batcher,
                &plan,
                client,
                FAILURE_SLO_LATENCY_S,
            )
        })
        .into_iter();
    let patient = client_runs.next().expect("patient report");
    let fixed_retry = client_runs.next().expect("retry report");
    assert_conserved("fixed/patient", &patient, trace.len());
    assert_eq!(
        patient.completed,
        trace.len(),
        "a patient client over the recovering fleet must complete everything \
         ({} of {} completed)",
        patient.completed,
        trace.len()
    );
    print_phases(
        "Fixed fleet (4 shards), patient client — incident phases",
        &patient.phases,
    );

    // Same fleet under the retrying client (second pool slot above): still
    // conserved, retries are re-offered load, and timeouts (if any) are
    // explicit dispositions.
    assert_conserved("fixed/retry", &fixed_retry, trace.len());

    // ── Claim 2: autoscaled fleets recover their SLO post-incident ─────
    // Reactive vs predictive differ only in the scaling policy — another
    // independent pair for the pool.
    let scale_cfgs = [
        base_cfg(ScalePolicy::Reactive {
            scale_up_depth: 8.0,
            scale_down_depth: 2.0,
        }),
        base_cfg(ScalePolicy::Predictive {
            shard_capacity: FAILURE_SHARD_CAPACITY,
            horizon_s: FAILURE_WARMUP_S + 0.1,
            alpha: 0.4,
            period_s: None,
        }),
    ];
    let mut scale_runs = pool
        .par_map_indexed(&scale_cfgs, |cfg| {
            simulate_autoscale_failure(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &batcher,
                cfg,
                &plan,
                &retry_client(),
            )
        })
        .into_iter();
    let reactive = scale_runs.next().expect("reactive report");
    let predictive = scale_runs.next().expect("predictive report");

    let rows: Vec<Vec<String>> = [
        ("fixed-max", &fixed_retry, None),
        ("reactive", &reactive.failure, Some(&reactive)),
        ("predictive", &predictive.failure, Some(&predictive)),
    ]
    .iter()
    .map(|(name, r, auto)| {
        vec![
            name.to_string(),
            match auto {
                Some(a) => format!("{:.1}", a.shard_seconds),
                None => format!("{:.1}", FAILURE_MAX_SHARDS as f64 * r.fleet.makespan_s),
            },
            format!("{}", r.completed),
            format!("{}", r.timed_out),
            format!("{}", r.retries),
            tables::pct(r.slo_attainment),
            format!("{:.0}", r.goodput_seq_s),
            match auto {
                Some(a) => format!("{}", a.scale_events.len()),
                None => "0".into(),
            },
        ]
    })
    .collect();
    println!("Policy comparison through the incident (retrying client)");
    println!(
        "{}",
        tables::render(
            &[
                "config",
                "shard-sec",
                "completed",
                "timed-out",
                "retries",
                "SLO att.",
                "goodput/s",
                "events",
            ],
            &rows,
        )
    );
    print_phases("Reactive — incident phases", &reactive.failure.phases);
    print_phases("Predictive — incident phases", &predictive.failure.phases);

    let recovery_cut = FAILURE_RECOVER_S + FAILURE_WARMUP_S;
    for (name, r) in [("reactive", &reactive), ("predictive", &predictive)] {
        assert_conserved(name, &r.failure, trace.len());
        let pre = slo_over(&trace, &r.failure.outcomes, 0.0, FAILURE_CRASH_S);
        let post = slo_over(&trace, &r.failure.outcomes, recovery_cut, f64::INFINITY);
        println!(
            "{name}: pre-incident SLO {} → post-recovery (≥ {recovery_cut:.1} s) {}",
            tables::pct(pre),
            tables::pct(post)
        );
        assert!(
            post >= pre - FAILURE_RECOVERY_TOLERANCE,
            "{name}: post-incident SLO {post:.3} has not recovered to within \
             {FAILURE_RECOVERY_TOLERANCE} of pre-incident {pre:.3} one warm-up \
             after recovery"
        );
        // The incident is visible in the books: the crash and the
        // recovery both show up as scale events.
        assert!(
            r.scale_events.len() >= 2,
            "{name}: the incident left no trace in the scale-event log"
        );
    }

    // ── Claim 3: unrecovered total outage → valid zero-completion report ─
    let outage_trace: Vec<Request> = (0..40)
        .map(|i| Request {
            arrival_s: i as f64 * 0.01,
            len: 64,
        })
        .collect();
    let outage = simulate_fleet_failure(
        &homogeneous_fleet(&bert_base_design(99), 1),
        &outage_trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::RoundRobin,
        &batcher,
        &FaultPlan {
            faults: vec![Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.0,
                    recover_s: None,
                },
            }],
        },
        &retry_client(),
        FAILURE_SLO_LATENCY_S,
    );
    assert_conserved("outage", &outage, outage_trace.len());
    assert_eq!(outage.completed, 0, "nothing completes in a total outage");
    assert_eq!(outage.timed_out, outage_trace.len());
    assert!(
        !outage.fleet.mean_latency_s.is_nan()
            && !outage.fleet.mean_batch_size.is_nan()
            && !outage.slo_attainment.is_nan()
            && outage
                .phases
                .iter()
                .all(|p| !p.slo_attainment.is_nan() && !p.goodput_seq_s.is_nan()),
        "zero-completion outage report contains NaN"
    );
    println!(
        "Outage check: 0 of {} completed, {} retries spent, report NaN-free ✓\n",
        outage_trace.len(),
        outage.retries
    );

    // ── Claim 4: migrate beats drain for a straggler's large residents ──
    let decode_trace: Vec<DecodeRequest> = (0..FAILURE_DECODE_REQUESTS)
        .map(|i| DecodeRequest {
            arrival_s: i as f64 * FAILURE_DECODE_GAP_S,
            prefill_len: FAILURE_DECODE_PREFILL,
            output_len: FAILURE_DECODE_OUTPUT,
            priority: Priority::Normal,
        })
        .collect();
    let straggler_plan = FaultPlan {
        faults: vec![Fault {
            shard: 0,
            kind: FaultKind::Straggler {
                from_s: FAILURE_STRAGGLER_WINDOW_S.0,
                until_s: FAILURE_STRAGGLER_WINDOW_S.1,
                slowdown: FAILURE_STRAGGLER_SLOWDOWN,
            },
        }],
    };
    let decode_fleet = homogeneous_fleet(&bert_base_design(99), FAILURE_DECODE_SHARDS);
    let decode_cfg = DecodeConfig {
        max_slots: DECODE_SLOTS,
        ..DecodeConfig::default()
    };
    // Drain vs migrate are independent given the same straggler plan —
    // the last pool pair.
    let responses = [DecodeScaleDown::Drain, DecodeScaleDown::Migrate];
    let mut decode_runs = pool
        .par_map_indexed(&responses, |&response| {
            simulate_decode_failure(
                &decode_fleet,
                &decode_trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &decode_cfg,
                &straggler_plan,
                &ClientConfig::patient(),
                response,
                FAILURE_DECODE_SLO_TTFT_S,
            )
        })
        .into_iter();
    let drain = decode_runs.next().expect("drain report");
    let migrate = decode_runs.next().expect("migrate report");
    for (name, r) in [("drain", &drain), ("migrate", &migrate)] {
        assert_eq!(
            r.client.completed,
            decode_trace.len(),
            "{name}: a straggler must not lose generations"
        );
    }
    let decode_rows: Vec<Vec<String>> = [("drain", &drain), ("migrate", &migrate)]
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{:.2}", r.affected_drain_s),
                format!("{:.2}", r.decode.fleet.makespan_s),
                format!("{:.0}", r.decode.ttft_p95_s * 1e3),
                tables::pct(r.client.slo_attainment),
            ]
        })
        .collect();
    println!(
        "Straggler response (decode, ×{FAILURE_STRAGGLER_SLOWDOWN:.0} slow-down, \
         {FAILURE_DECODE_OUTPUT}-token outputs)"
    );
    println!(
        "{}",
        tables::render(
            &[
                "response",
                "victims done (s)",
                "makespan (s)",
                "TTFT p95 (ms)",
                "SLO att.",
            ],
            &decode_rows,
        )
    );
    assert!(
        migrate.affected_drain_s < drain.affected_drain_s,
        "migrating large live residents off a ×{FAILURE_STRAGGLER_SLOWDOWN:.0} \
         straggler ({:.2} s) must beat draining in place ({:.2} s)",
        migrate.affected_drain_s,
        drain.affected_drain_s
    );

    // ── Perf trajectory: wall-times into BENCH_fleet.json (schema 2) ────
    let t0 = std::time::Instant::now();
    let timed = simulate_fleet_failure(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &batcher,
        &plan,
        &ClientConfig::patient(),
        FAILURE_SLO_LATENCY_S,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    // Arrivals plus one dispatch and one completion per executed batch —
    // the heap traffic the engine actually processed. A crash rolls its
    // batch out of the shard's count, so Σ batches is the executed count.
    let batches: usize = timed.fleet.shards.iter().map(|s| s.batches).sum();
    let events = trace.len() + 2 * batches;

    // Multi-cell sweep timed serial vs 4 pool workers: the dispatch ×
    // client grid of the incident scenario. The equality assert is the
    // determinism contract — worker count must never change a report bit,
    // batch logs included, so each worker runs its cells logged.
    let sweep_cells: Vec<(DispatchPolicy, bool)> = DispatchPolicy::ALL
        .iter()
        .flat_map(|&d| [(d, false), (d, true)])
        .collect();
    let run_sweep = |sched: &Scheduler| {
        let t = std::time::Instant::now();
        let reports = sched.par_map_indexed(&sweep_cells, |&(dispatch, retrying)| {
            let client = if retrying {
                retry_client()
            } else {
                ClientConfig::patient()
            };
            with_batch_log(|| {
                simulate_fleet_failure(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    dispatch,
                    &batcher,
                    &plan,
                    &client,
                    FAILURE_SLO_LATENCY_S,
                )
            })
        });
        (reports, t.elapsed().as_secs_f64())
    };
    let (sweep_serial, sweep_serial_s) = run_sweep(&Scheduler::serial());
    let (sweep_parallel, sweep_parallel_s) = run_sweep(&Scheduler::new(4));
    assert_eq!(
        sweep_serial, sweep_parallel,
        "4-worker sweep must be bit-identical to the serial sweep"
    );
    println!(
        "parallel sweep: {} cells, serial {sweep_serial_s:.3} s vs 4-worker \
         {sweep_parallel_s:.3} s, bit-identical ✓",
        sweep_cells.len(),
    );

    // Read-migrate-append (shared helper): keep prior entries so the file
    // accumulates a PR-over-PR trajectory, scrubbing legacy single-core
    // speedup records along the way.
    let mut entries: Vec<Value> = benchfile::read_entries(benchfile::FLEET_PATH);
    let seed_str = || Value::Str(format!("{HARNESS_SEED:#x}"));
    entries.push(Value::obj([
        ("bench".into(), Value::Str("fleet-failure".into())),
        (
            "scenario".into(),
            Value::Str(format!(
                "burst+crash {FAILURE_MAX_SHARDS} shards, {FAILURE_REQUESTS} requests"
            )),
        ),
        ("requests".into(), Value::UInt(trace.len() as u64)),
        ("batches".into(), Value::UInt(batches as u64)),
        ("wall_s".into(), Value::Float(wall_s)),
        (
            "events_per_s".into(),
            Value::Float((events as f64 / wall_s.max(1e-9)).round()),
        ),
        ("seed".into(), seed_str()),
    ]));
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut sweep_entry = vec![
        ("bench".to_string(), Value::Str("parallel-sweep".into())),
        (
            "scenario".to_string(),
            Value::Str("dispatch × client failure grid".into()),
        ),
        ("cells".to_string(), Value::UInt(sweep_cells.len() as u64)),
        ("workers".to_string(), Value::UInt(4)),
        ("host_parallelism".to_string(), Value::UInt(host as u64)),
        ("wall_s_serial".to_string(), Value::Float(sweep_serial_s)),
        (
            "wall_s_parallel".to_string(),
            Value::Float(sweep_parallel_s),
        ),
        ("seed".to_string(), seed_str()),
    ];
    // A speedup figure only means something when the host can actually
    // run the workers side by side; on a single core the "parallel" run
    // just adds scheduling overhead, so record a note instead of a
    // misleading sub-1.0 ratio.
    if host > 1 {
        sweep_entry.push((
            "speedup".to_string(),
            Value::Float(sweep_serial_s / sweep_parallel_s.max(1e-9)),
        ));
    } else {
        sweep_entry.push((
            "speedup_note".to_string(),
            Value::Str(benchfile::SPEEDUP_NOTE.into()),
        ));
    }
    entries.push(Value::obj(sweep_entry));
    match benchfile::write(benchfile::FLEET_PATH, "fleet", entries) {
        Ok(()) => println!("wrote BENCH_fleet.json ({events} events in {wall_s:.3} s)"),
        Err(e) => println!("BENCH_fleet.json not written: {e}"),
    }

    println!(
        "\n(zero-drop conservation, post-incident SLO within {:.0}% of pre under\n\
         reactive and predictive scaling, NaN-free outage report, and\n\
         migrate-beats-drain asserted above)",
        FAILURE_RECOVERY_TOLERANCE * 100.0
    );
}
