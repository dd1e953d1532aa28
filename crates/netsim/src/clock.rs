//! Dual-clock bookkeeping: fixed node clock, scalable NoC clock.
//!
//! This is the mechanism the paper adds to Booksim: the network runs on its
//! own clock `F_noc ∈ [F_min, F_max]` while the injecting nodes keep running
//! at `F_node`. The simulator advances in NoC cycles; [`DualClock`] converts
//! each NoC cycle into elapsed wall-clock time and tells the traffic sources
//! how many *node* cycles elapsed in the meantime.

use crate::units::{Hertz, Picoseconds};

/// Tracks the NoC clock, the node clock and the wall-clock time.
#[derive(Debug, Clone)]
pub struct DualClock {
    node_frequency_hz: f64,
    noc_frequency_hz: f64,
    /// Cached `1e12 / noc_frequency_hz` — the per-cycle hot path adds this
    /// every NoC cycle and must not pay a division for it.
    noc_period_ps: f64,
    /// Cached `node_frequency_hz / 1e12` (node cycles per picosecond).
    node_cycles_per_ps: f64,
    noc_cycle: u64,
    wall_time_ps: f64,
    node_cycles_emitted: u64,
}

impl DualClock {
    /// Creates a clock pair with both domains starting at time zero.
    pub fn new(node_frequency: Hertz, noc_frequency: Hertz) -> Self {
        DualClock {
            node_frequency_hz: node_frequency.as_hz(),
            noc_frequency_hz: noc_frequency.as_hz(),
            noc_period_ps: 1.0e12 / noc_frequency.as_hz(),
            node_cycles_per_ps: node_frequency.as_hz() / 1.0e12,
            noc_cycle: 0,
            wall_time_ps: 0.0,
            node_cycles_emitted: 0,
        }
    }

    /// Current NoC clock frequency.
    pub fn noc_frequency(&self) -> Hertz {
        Hertz::new(self.noc_frequency_hz)
    }

    /// Changes the NoC clock frequency (takes effect from the next cycle).
    pub fn set_noc_frequency(&mut self, f: Hertz) {
        self.noc_frequency_hz = f.as_hz();
        self.noc_period_ps = 1.0e12 / self.noc_frequency_hz;
    }

    /// Number of NoC cycles elapsed since the start of the simulation.
    pub fn noc_cycle(&self) -> u64 {
        self.noc_cycle
    }

    /// Wall-clock time elapsed since the start of the simulation.
    pub fn wall_time(&self) -> Picoseconds {
        Picoseconds::new(self.wall_time_ps)
    }

    /// Total number of node-clock cycles handed out by
    /// [`advance_noc_cycle`](Self::advance_noc_cycle) so far.
    pub fn node_cycles_emitted(&self) -> u64 {
        self.node_cycles_emitted
    }

    /// Advances the simulation by one NoC cycle and returns the number of
    /// *node* clock cycles that completed during that NoC cycle.
    ///
    /// When the NoC runs slower than the nodes (the DVFS case), each NoC cycle
    /// spans more than one node cycle, so the return value is frequently
    /// larger than one; when the two clocks match it is exactly one on
    /// average.
    pub fn advance_noc_cycle(&mut self) -> u64 {
        self.noc_cycle += 1;
        self.wall_time_ps += self.noc_period_ps;
        // Node cycles completed up to the new wall-clock time.
        let total_node_cycles = (self.wall_time_ps * self.node_cycles_per_ps) as u64;
        let newly_completed = total_node_cycles.saturating_sub(self.node_cycles_emitted);
        self.node_cycles_emitted = total_node_cycles;
        newly_completed
    }

    /// Number of node cycles the *next* [`advance_noc_cycle`](Self::advance_noc_cycle)
    /// call would return, without advancing anything.
    ///
    /// Replicates the float operations of `advance_noc_cycle` in the same
    /// order (one addition, one multiplication, one truncation), so the
    /// prediction is bit-exact: the event-horizon skipping engine uses it to
    /// prove a future tick emits zero node cycles (and therefore draws no
    /// RNG) before committing to jump over it.
    pub fn peek_advance(&self) -> u64 {
        let wall = self.wall_time_ps + self.noc_period_ps;
        let total_node_cycles = (wall * self.node_cycles_per_ps) as u64;
        total_node_cycles.saturating_sub(self.node_cycles_emitted)
    }
}

impl DualClock {
    /// Encodes the complete clock state for a checkpoint; the configured node
    /// frequency and the cached period and rate terms are stored to be
    /// compared on load.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_f64(self.node_frequency_hz);
        w.put_f64(self.noc_frequency_hz);
        w.put_f64(self.noc_period_ps);
        w.put_f64(self.node_cycles_per_ps);
        w.put_u64(self.noc_cycle);
        w.put_f64(self.wall_time_ps);
        w.put_u64(self.node_cycles_emitted);
    }

    /// Replaces the clock state with the checkpointed one, refusing what no
    /// run of this configuration could have written: node-clock terms other
    /// than the constructor's, a NoC frequency outside `min_hz ..= max_hz` or
    /// a period that is not its own, a wall time the cycle count could not
    /// have accumulated at frequencies within the range (latency sums
    /// overflow on a cycle count from nowhere), an emitted-cycle count that
    /// is not the wall time's. The next tick emits the difference of those
    /// two: unchecked, one flipped word asks the traffic sources for billions
    /// of node cycles; checked, a tick emits at most `ceil(node_f / min_f) + 1`.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        min_hz: f64,
        max_hz: f64,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let node_frequency_hz = r.read_f64()?;
        let noc_frequency_hz = r.read_f64()?;
        let noc_period_ps = r.read_f64()?;
        let node_cycles_per_ps = r.read_f64()?;
        let noc_cycle = r.read_u64()?;
        let wall_time_ps = r.read_f64()?;
        let node_cycles_emitted = r.read_u64()?;
        if node_frequency_hz.to_bits() != self.node_frequency_hz.to_bits()
            || node_cycles_per_ps.to_bits() != self.node_cycles_per_ps.to_bits()
        {
            return Err(SnapshotError::Corrupt("clock node frequency"));
        }
        if !(noc_frequency_hz > 0.0 && (min_hz..=max_hz).contains(&noc_frequency_hz))
            || noc_period_ps.to_bits() != (1.0e12 / noc_frequency_hz).to_bits()
        {
            return Err(SnapshotError::Corrupt("clock NoC frequency"));
        }
        // Every cycle added one period of a frequency within the range; the
        // slack covers the rounding of that running sum for 10¹² cycles.
        let periods = |hz: f64| noc_cycle as f64 * (1.0e12 / hz);
        if !(wall_time_ps >= periods(max_hz) * (1.0 - 1.0e-3)
            && wall_time_ps <= periods(min_hz) * (1.0 + 1.0e-3)
            && wall_time_ps.is_finite())
            || node_cycles_emitted != (wall_time_ps * node_cycles_per_ps) as u64
        {
            return Err(SnapshotError::Corrupt("clock wall time"));
        }
        self.noc_frequency_hz = noc_frequency_hz;
        self.noc_period_ps = noc_period_ps;
        self.noc_cycle = noc_cycle;
        self.wall_time_ps = wall_time_ps;
        self.node_cycles_emitted = node_cycles_emitted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_clocks_emit_one_node_cycle_per_noc_cycle() {
        let mut clk = DualClock::new(Hertz::from_ghz(1.0), Hertz::from_ghz(1.0));
        let mut total = 0;
        for _ in 0..1000 {
            total += clk.advance_noc_cycle();
        }
        assert_eq!(total, 1000);
        assert_eq!(clk.noc_cycle(), 1000);
        assert!((clk.wall_time().as_ns() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn slow_noc_emits_multiple_node_cycles() {
        // NoC at 1/3 of node frequency: on average 3 node cycles per NoC cycle.
        let mut clk = DualClock::new(Hertz::from_ghz(1.0), Hertz::from_mhz(333.333_333));
        let mut total = 0;
        for _ in 0..1000 {
            total += clk.advance_noc_cycle();
        }
        assert!((total as f64 - 3000.0).abs() < 5.0, "expected about 3000 node cycles, got {total}");
    }

    #[test]
    fn fast_noc_sometimes_emits_zero_node_cycles() {
        // If the NoC were faster than the nodes, node cycles would arrive
        // less than once per NoC cycle (not used by the paper, but the
        // bookkeeping must stay consistent).
        let mut clk = DualClock::new(Hertz::from_mhz(500.0), Hertz::from_ghz(1.0));
        let mut total = 0;
        for _ in 0..1000 {
            total += clk.advance_noc_cycle();
        }
        assert!((total as f64 - 500.0).abs() < 3.0);
    }

    #[test]
    fn frequency_change_affects_subsequent_wall_time() {
        let mut clk = DualClock::new(Hertz::from_ghz(1.0), Hertz::from_ghz(1.0));
        for _ in 0..100 {
            clk.advance_noc_cycle();
        }
        let t_fast = clk.wall_time().as_ns();
        clk.set_noc_frequency(Hertz::from_mhz(500.0));
        for _ in 0..100 {
            clk.advance_noc_cycle();
        }
        let t_total = clk.wall_time().as_ns();
        assert!((t_fast - 100.0).abs() < 1e-6);
        assert!((t_total - 300.0).abs() < 1e-6, "100 cycles at 2 ns each after the change");
    }

    #[test]
    fn node_cycle_count_is_monotonic_and_conserved() {
        let mut clk = DualClock::new(Hertz::from_ghz(1.0), Hertz::from_mhz(700.0));
        let mut sum = 0;
        for _ in 0..10_000 {
            sum += clk.advance_noc_cycle();
        }
        assert_eq!(sum, clk.node_cycles_emitted());
        let expected = clk.wall_time().as_secs() * 1.0e9;
        assert!((sum as f64 - expected).abs() <= 1.0);
    }
}
