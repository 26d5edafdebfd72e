//! Output checks: a fingerprint over every simulated statistic of a
//! report (FNV-1a over the raw bits, so a speed-only change must leave it
//! bit-identical) that also counts NaNs on the way.

use lat_hwsim::autoscale::ScaleEvent;
use lat_hwsim::decode::DecodeReport;
use lat_hwsim::disagg::{DisaggReport, PoolReport};
use lat_hwsim::failure::{AutoscaleFailureReport, Disposition};
use lat_hwsim::fleet::FleetReport;

pub struct Fingerprint {
    hash: u64,
    pub nans: usize,
}

impl Fingerprint {
    pub fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            nans: 0,
        }
    }

    pub fn value(&self) -> u64 {
        self.hash
    }

    pub fn u(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f(&mut self, x: f64) {
        if x.is_nan() {
            self.nans += 1;
        }
        self.u(x.to_bits());
    }

    pub fn fleet(&mut self, r: &FleetReport) {
        self.u(r.completed as u64);
        for x in [
            r.mean_latency_s,
            r.p50_latency_s,
            r.p95_latency_s,
            r.p99_latency_s,
            r.throughput_seq_s,
            r.makespan_s,
            r.mean_batch_size,
        ] {
            self.f(x);
        }
        for s in &r.shards {
            for n in [
                s.shard,
                s.tuned_length,
                s.completed,
                s.batches,
                s.max_queue_depth,
            ] {
                self.u(n as u64);
            }
            for x in [s.mean_batch_size, s.utilization, s.mean_queue_depth] {
                self.f(x);
            }
        }
        for b in &r.batch_log {
            self.u(b.shard as u64);
            self.u(b.size as u64);
            self.f(b.start_s);
            self.f(b.completion_s);
        }
    }

    pub fn decode(&mut self, r: &DecodeReport) {
        self.fleet(&r.fleet);
        for x in [
            r.ttft_mean_s,
            r.ttft_p50_s,
            r.ttft_p95_s,
            r.ttft_p99_s,
            r.high_ttft_p95_s.unwrap_or(-1.0),
            r.itl_p50_s,
            r.itl_p95_s,
            r.itl_p99_s,
            r.goodput_tok_s,
            r.slot_utilization,
        ] {
            self.f(x);
        }
        self.u(r.generated_tokens);
        self.u(r.preemptions as u64);
        for s in &r.shards {
            self.u(s.shard as u64);
            self.u(s.preemptions as u64);
            self.u(s.peak_resident as u64);
            self.f(s.slot_utilization);
        }
        for o in &r.requests {
            self.u(o.shard as u64);
            self.u(o.tokens as u64);
            self.u(o.preemptions as u64);
            self.u(o.re_prefills as u64);
            self.f(o.ttft_s);
            self.f(o.completion_s);
        }
    }

    fn pool(&mut self, p: &PoolReport) {
        for n in [p.shards, p.completed, p.iterations] {
            self.u(n as u64);
        }
        self.f(p.utilization);
        self.f(p.slot_utilization);
    }

    pub fn disagg(&mut self, r: &DisaggReport) {
        self.decode(&r.decode);
        self.pool(&r.prefill_pool);
        self.pool(&r.decode_pool);
        self.u(r.transfers as u64);
        self.f(r.transfer_time_s);
        self.u(r.transferred_tokens);
        let p = &r.prefix;
        for n in [p.capacity, p.hits, p.misses, p.evictions] {
            self.u(n as u64);
        }
        self.u(p.tokens_saved);
    }

    fn scale_event(&mut self, e: &ScaleEvent) {
        self.f(e.time_s);
        self.u(e.shard as u64);
        self.u(e.kind as u64);
        self.u(e.on_after as u64);
    }

    pub fn autoscale_failure(&mut self, r: &AutoscaleFailureReport) {
        let f = &r.failure;
        self.fleet(&f.fleet);
        for o in &f.outcomes {
            self.u(match o.disposition {
                Disposition::Completed => 0,
                Disposition::Retried(n) => 1 + n as u64,
                Disposition::TimedOut => u64::MAX,
            });
            self.u(o.attempts as u64);
            self.f(o.completion_s);
            self.f(o.latency_s);
        }
        for n in [f.completed, f.timed_out, f.retried, f.retries] {
            self.u(n as u64);
        }
        self.f(f.slo_attainment);
        self.f(f.goodput_seq_s);
        for p in &f.phases {
            for x in [
                p.start_s,
                p.end_s,
                p.slo_attainment,
                p.goodput_seq_s,
                p.p95_latency_s,
            ] {
                self.f(x);
            }
            for n in [p.arrivals, p.completed, p.timed_out, p.scale_events] {
                self.u(n as u64);
            }
        }
        self.f(r.shard_seconds);
        self.f(r.mean_active_shards);
        self.u(r.peak_active_shards as u64);
        for e in &r.scale_events {
            self.scale_event(e);
        }
    }
}
