//! Latency, delay and throughput statistics.

use crate::flit::PacketId;

/// Completion record of one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Identifier of the packet.
    pub packet_id: PacketId,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Number of flits in the packet.
    pub flits: usize,
    /// Latency from creation to tail ejection, in NoC clock cycles.
    pub latency_cycles: u64,
    /// Delay from creation to tail ejection, in picoseconds of wall-clock time.
    pub delay_ps: f64,
    /// Router hops traversed by the head flit.
    pub hops: u32,
}

/// Running aggregate of packet statistics.
///
/// Two aggregates are kept by the simulation: the *total* since the last
/// reset (used to report an experiment's result after warm-up) and a
/// *window* aggregate that DVFS controllers consume periodically.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Packets completed.
    pub packets: u64,
    /// Flits ejected as part of completed packets.
    pub flits: u64,
    /// Sum of packet latencies in cycles.
    pub latency_cycles_sum: u64,
    /// Sum of packet delays in picoseconds.
    pub delay_ps_sum: f64,
    /// Maximum packet latency observed, in cycles.
    pub max_latency_cycles: u64,
    /// Maximum packet delay observed, in picoseconds.
    pub max_delay_ps: f64,
    /// Sum of hop counts.
    pub hops_sum: u64,
}

impl SimStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Folds one completed packet into the aggregate.
    pub fn record(&mut self, rec: &PacketRecord) {
        self.packets += 1;
        self.flits += rec.flits as u64;
        self.latency_cycles_sum += rec.latency_cycles;
        self.delay_ps_sum += rec.delay_ps;
        self.max_latency_cycles = self.max_latency_cycles.max(rec.latency_cycles);
        if rec.delay_ps > self.max_delay_ps {
            self.max_delay_ps = rec.delay_ps;
        }
        self.hops_sum += rec.hops as u64;
    }

    /// Average packet latency in NoC cycles, or `None` if no packet completed.
    pub fn avg_latency_cycles(&self) -> Option<f64> {
        (self.packets > 0).then(|| self.latency_cycles_sum as f64 / self.packets as f64)
    }

    /// Average packet delay in nanoseconds, or `None` if no packet completed.
    pub fn avg_delay_ns(&self) -> Option<f64> {
        (self.packets > 0).then(|| self.delay_ps_sum / self.packets as f64 / 1.0e3)
    }

    /// Average hop count, or `None` if no packet completed.
    #[cfg(test)]
    pub fn avg_hops(&self) -> Option<f64> {
        (self.packets > 0).then(|| self.hops_sum as f64 / self.packets as f64)
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.packets += other.packets;
        self.flits += other.flits;
        self.latency_cycles_sum += other.latency_cycles_sum;
        self.delay_ps_sum += other.delay_ps_sum;
        self.max_latency_cycles = self.max_latency_cycles.max(other.max_latency_cycles);
        if other.max_delay_ps > self.max_delay_ps {
            self.max_delay_ps = other.max_delay_ps;
        }
        self.hops_sum += other.hops_sum;
    }
}

impl SimStats {
    /// Encodes the aggregate for a simulation checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u64(self.packets);
        w.put_u64(self.flits);
        w.put_u64(self.latency_cycles_sum);
        w.put_f64(self.delay_ps_sum);
        w.put_u64(self.max_latency_cycles);
        w.put_f64(self.max_delay_ps);
        w.put_u64(self.hops_sum);
    }

    /// Restores the aggregate from a checkpoint.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.packets = r.read_u64()?;
        self.flits = r.read_u64()?;
        self.latency_cycles_sum = r.read_u64()?;
        self.delay_ps_sum = r.read_f64()?;
        self.max_latency_cycles = r.read_u64()?;
        self.max_delay_ps = r.read_f64()?;
        self.hops_sum = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(latency: u64, delay_ns: f64) -> PacketRecord {
        PacketRecord {
            packet_id: PacketId::new(0),
            src: 0,
            dst: 1,
            flits: 4,
            latency_cycles: latency,
            delay_ps: delay_ns * 1e3,
            hops: 2,
        }
    }

    #[test]
    fn empty_stats_have_no_averages() {
        let s = SimStats::new();
        assert_eq!(s.avg_latency_cycles(), None);
        assert_eq!(s.avg_delay_ns(), None);
        assert_eq!(s.avg_hops(), None);
    }

    #[test]
    fn averages_and_maxima() {
        let mut s = SimStats::new();
        s.record(&rec(10, 20.0));
        s.record(&rec(30, 60.0));
        assert_eq!(s.packets, 2);
        assert_eq!(s.flits, 8);
        assert_eq!(s.avg_latency_cycles(), Some(20.0));
        assert_eq!(s.avg_delay_ns(), Some(40.0));
        assert_eq!(s.max_latency_cycles, 30);
        assert_eq!(s.max_delay_ps, 60.0e3);
        assert_eq!(s.avg_hops(), Some(2.0));
    }

    #[test]
    fn merge_combines_aggregates() {
        let mut a = SimStats::new();
        a.record(&rec(10, 10.0));
        let mut b = SimStats::new();
        b.record(&rec(20, 20.0));
        b.record(&rec(30, 30.0));
        a.merge(&b);
        assert_eq!(a.packets, 3);
        assert_eq!(a.avg_latency_cycles(), Some(20.0));
        assert_eq!(a.max_latency_cycles, 30);
    }
}
