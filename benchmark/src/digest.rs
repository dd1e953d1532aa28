//! `result_digest`: FNV-1a-64 over the bit patterns of every simulated
//! statistic a pass produced.
//!
//! The digest is not a metric. It exists so that a change meant only to make
//! the simulator faster can be seen, at a glance, to have left every
//! simulated number where it was: same seed ⇒ same digest, on every pass and
//! on every commit that does not change simulated behaviour.

use noc_dvfs::OperatingPointResult;
use noc_sim::{SimCounters, SimStats, WindowMeasurement};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a-64 hash of simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one integer in (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one float in by bit pattern, so `-0.0`, `NaN` payloads and the
    /// last ulp all count.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a control-window ledger in.
    pub fn window(&mut self, w: &WindowMeasurement) {
        for v in [
            w.noc_cycles,
            w.node_cycles,
            w.flits_generated,
            w.flits_injected,
            w.packets_ejected,
            w.flits_ejected,
            w.latency_cycles_sum,
            w.flits_dropped,
        ] {
            self.u64(v);
        }
        self.f64(w.wall_time_ps);
        self.f64(w.delay_ps_sum);
    }

    /// Folds the end-of-run flit ledger and clock in.
    pub fn counters(&mut self, c: &SimCounters) {
        for v in [
            c.cycle,
            c.skipped_cycles,
            c.active_routers as u64,
            c.gated_routers as u64,
            c.in_flight_flits as u64,
            c.in_flight_credits as u64,
            c.queued_source_flits as u64,
            c.buffered_network_flits as u64,
            c.flits_generated,
            c.flits_received,
            c.flits_dropped,
            c.packets_delivered,
        ] {
            self.u64(v);
        }
        self.f64(c.wall_time_ps);
        self.f64(c.reachable_pairs);
    }

    /// Folds the aggregate latency/delay statistics in.
    pub fn stats(&mut self, s: &SimStats) {
        for v in [
            s.packets,
            s.flits,
            s.latency_cycles_sum,
            s.max_latency_cycles,
            s.hops_sum,
        ] {
            self.u64(v);
        }
        self.f64(s.delay_ps_sum);
        self.f64(s.max_delay_ps);
    }

    /// Folds one closed-loop operating point in.
    pub fn point(&mut self, p: &OperatingPointResult) {
        self.bytes(p.policy.as_bytes());
        for v in [
            p.offered_load,
            p.measured_rate,
            p.avg_latency_cycles,
            p.avg_delay_ns,
            p.max_delay_ns,
            p.power_mw,
            p.dynamic_power_mw,
            p.static_power_mw,
            p.avg_frequency_ghz,
            p.avg_vdd,
            p.throughput,
            p.measurement_wall_ns,
            p.reachability,
        ] {
            self.f64(v);
        }
        self.u64(p.packets_delivered);
        self.u64(p.flits_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let mut d = Digest::default();
        assert_eq!(d.value(), 0xcbf2_9ce4_8422_2325);
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
    }
}
