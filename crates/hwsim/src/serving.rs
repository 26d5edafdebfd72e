//! Single-accelerator online serving: one BERT-base shard under Poisson
//! RTE arrivals, run as the 1-shard join-shortest-queue fleet
//! ([`crate::fleet::simulate_fleet`]). The fleet is the engine; this
//! module only holds the serving-level checks.

mod tests {
    use crate::accelerator::AcceleratorDesign;
    use crate::fleet::{
        poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy, FleetReport, Request,
    };
    use crate::spec::FpgaSpec;
    use lat_core::pipeline::SchedulingPolicy;
    use lat_model::config::ModelConfig;
    use lat_model::graph::AttentionMode;
    use lat_workloads::datasets::DatasetSpec;

    fn design() -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::bert_base(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            68,
        )
    }

    /// 200 Poisson RTE arrivals at `rate`, batches of at most 16 within a
    /// 50 ms window.
    fn run(rate: f64, policy: SchedulingPolicy) -> FleetReport {
        let trace = poisson_trace(&DatasetSpec::rte(), rate, 200, 7);
        simulate_fleet(
            &[design()],
            &trace,
            policy,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig {
                batch_window_s: 0.05,
                max_batch: 16,
            },
        )
    }

    #[test]
    fn all_requests_complete() {
        let r = run(20.0, SchedulingPolicy::LengthAware);
        assert_eq!(r.completed, 200);
        assert!(r.mean_latency_s > 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = run(30.0, SchedulingPolicy::LengthAware);
        assert!(r.p50_latency_s <= r.p95_latency_s);
        assert!(r.p95_latency_s <= r.p99_latency_s);
        assert!(r.mean_latency_s <= r.p99_latency_s);
    }

    #[test]
    fn higher_load_raises_latency() {
        let light = run(5.0, SchedulingPolicy::LengthAware);
        let heavy = run(120.0, SchedulingPolicy::LengthAware);
        assert!(
            heavy.p95_latency_s > light.p95_latency_s,
            "heavy p95 {} !> light p95 {}",
            heavy.p95_latency_s,
            light.p95_latency_s
        );
        assert!(heavy.mean_batch_size >= light.mean_batch_size);
    }

    #[test]
    fn length_aware_serves_lower_tail_latency_under_load() {
        // The deployment-level payoff of the co-design: at the same load
        // the adaptive schedule completes batches faster, cutting tails.
        let adaptive = run(80.0, SchedulingPolicy::LengthAware);
        let padded = run(80.0, SchedulingPolicy::PadToMax);
        assert!(
            adaptive.p95_latency_s < padded.p95_latency_s,
            "adaptive p95 {} !< padded p95 {}",
            adaptive.p95_latency_s,
            padded.p95_latency_s
        );
    }

    #[test]
    fn throughput_bounded_by_offered_load() {
        let r = run(20.0, SchedulingPolicy::LengthAware);
        assert!(
            r.throughput_seq_s <= 20.0 * 1.2,
            "throughput {}",
            r.throughput_seq_s
        );
        assert!(r.throughput_seq_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_rejected() {
        let _ = poisson_trace(&DatasetSpec::rte(), 0.0, 400, 1);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run(40.0, SchedulingPolicy::LengthAware);
        let b = run(40.0, SchedulingPolicy::LengthAware);
        assert_eq!(a, b);
    }

    #[test]
    fn full_batch_dispatches_at_arrival_time_not_window_close() {
        // Regression for the batch-window stall: a burst of 2×max_batch
        // simultaneous arrivals must start its first batch at the arrival
        // time.
        let cfg = BatcherConfig {
            batch_window_s: 0.5,
            max_batch: 16,
        };
        let trace = vec![
            Request {
                arrival_s: 1.0,
                len: 68,
            };
            32
        ];
        let r = simulate_fleet(
            &[design()],
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
        );
        assert_eq!(r.batch_log[0].size, 16);
        assert_eq!(
            r.batch_log[0].start_s, 1.0,
            "first full batch must not wait out the 0.5 s window"
        );
        // End-to-end: the fastest requests therefore see pure service time,
        // strictly below the window the old batcher always added.
        assert!(r.p50_latency_s < cfg.batch_window_s);
    }

    #[test]
    fn poisson_cap_fill_dispatches_before_window_close() {
        // Stall regression under Poisson traffic (not just a hand-built
        // burst): at 800 seq/s the cap (16) fills long before the 50 ms
        // window, so the first batch must start at the cap-filling
        // arrival's time — the old batcher stalled it to window close.
        let cfg = BatcherConfig {
            batch_window_s: 0.05,
            max_batch: 16,
        };
        let trace = poisson_trace(&DatasetSpec::rte(), 800.0, 64, 7);
        let cap_fill = trace[cfg.max_batch - 1].arrival_s;
        assert!(
            cap_fill < trace[0].arrival_s + cfg.batch_window_s,
            "test premise: cap fills inside the window ({cap_fill})"
        );
        let r = simulate_fleet(
            &[design()],
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
        );
        assert_eq!(r.batch_log[0].size, cfg.max_batch);
        assert_eq!(
            r.batch_log[0].start_s, cap_fill,
            "first batch stalled past the cap-filling arrival"
        );
    }
}
