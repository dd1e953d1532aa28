//! Island clocking: the per-island clock dividers driven by the base tick,
//! the DVFS frequency actuators, and the per-island measurement windows.

use super::{NocSimulation, WindowMeasurement};
use crate::region::RegionMap;
use crate::units::Hertz;

/// Tolerance used when deciding whether a slowed island's accumulated
/// fractional cycles amount to a full domain cycle this base tick; absorbs
/// the rounding drift of repeated `ratio` additions.
const FIRE_EPS: f64 = 1.0e-9;

/// One voltage-frequency island's clock-domain state.
///
/// The simulation advances on a **base tick** — one cycle of the fastest
/// island's clock, tracked by the shared [`DualClock`](crate::clock::DualClock). An island running at
/// the base rate (`ratio == 1.0`) *fires* (executes one domain cycle: router
/// pipelines and local injection) on every base tick; a slower island
/// accumulates `ratio = f_island / f_base` fractional cycles per tick and
/// fires whenever a whole cycle has accrued. With a single island the ratio
/// is exactly `1.0`, every tick fires, and the machinery reduces to the
/// pre-VFI single-clock simulator bit for bit.
#[derive(Debug, Clone)]
pub(super) struct IslandDomain {
    /// The island's clock frequency in hertz.
    pub(super) frequency_hz: f64,
    /// `frequency_hz / base_hz`, the fraction of a domain cycle completed
    /// per base tick (exactly `1.0` for islands at the base rate).
    pub(super) ratio: f64,
    /// Fractional domain cycles accrued but not yet fired, in `[0, 1)`.
    pub(super) acc: f64,
    /// Whether the island fires on the current base tick.
    pub(super) fires: bool,
    /// Domain cycles completed since the start of the run.
    pub(super) local_cycle: u64,
    /// Per-island measurement accumulators (drained by
    /// [`NocSimulation::take_island_windows`]). `noc_cycles` counts *island*
    /// cycles; `wall_time_ps`/`node_cycles` are stamped from the shared
    /// clocks when the window is taken.
    pub(super) window: WindowMeasurement,
}

/// Advances every island's divider by one base tick. While every island runs
/// at the base frequency (in particular with a single island) all of them
/// fire on every tick.
pub(super) fn advance_island_clocks(islands: &mut [IslandDomain]) {
    for island in islands.iter_mut() {
        if island.ratio >= 1.0 {
            island.fires = true;
        } else {
            island.acc += island.ratio;
            island.fires = island.acc + FIRE_EPS >= 1.0;
            if island.fires {
                island.acc -= 1.0;
            }
        }
        if island.fires {
            island.local_cycle += 1;
            island.window.noc_cycles += 1;
        }
    }
}

impl NocSimulation {
    /// Current **base** NoC clock frequency: the frequency of the fastest
    /// voltage-frequency island, which drives the base tick. With a
    /// single island (the default) this is simply the NoC clock frequency.
    pub fn noc_frequency(&self) -> Hertz {
        self.clock.noc_frequency()
    }

    /// Changes the clock frequency of **every** island at once; the new
    /// period applies from the next cycle. The value is clamped to the
    /// configuration's frequency range.
    ///
    /// This is the global-DVFS actuator of the paper. For per-island control
    /// use [`set_island_frequency`](Self::set_island_frequency).
    pub fn set_noc_frequency(&mut self, f: Hertz) {
        let clamped = f.clamp(self.cfg.min_frequency(), self.cfg.max_frequency());
        for island in &mut self.islands {
            island.frequency_hz = clamped.as_hz();
            island.ratio = 1.0;
            island.acc = 0.0;
        }
        self.clock.set_noc_frequency(clamped);
        if let Some(t) = self.telemetry.as_deref_mut() {
            let now = self.clock.noc_cycle();
            for island in 0..self.islands.len() {
                t.on_set_frequency(island as u32, clamped.as_hz(), now);
            }
        }
    }

    /// Number of voltage-frequency islands in this simulation (1 unless the
    /// configuration set a [`RegionScheme`](crate::RegionScheme)).
    pub fn island_count(&self) -> usize {
        self.islands.len()
    }

    /// The node → island partition in force.
    pub fn region_map(&self) -> &RegionMap {
        &self.regions
    }

    /// The clock frequency of one island.
    ///
    /// # Panics
    ///
    /// Panics if `island >= island_count()`.
    pub fn island_frequency(&self, island: usize) -> Hertz {
        Hertz::new(self.islands[island].frequency_hz)
    }

    /// Domain cycles completed by one island since the start of the run.
    /// With a single island this equals [`current_cycle`](Self::current_cycle).
    ///
    /// # Panics
    ///
    /// Panics if `island >= island_count()`.
    pub fn island_cycle(&self, island: usize) -> u64 {
        self.islands[island].local_cycle
    }

    /// Changes the clock frequency of one island; the value is clamped to
    /// the configuration's frequency range and applies from the next cycle.
    ///
    /// The base tick rate is the maximum island frequency, so slowing the
    /// fastest island re-scales every other island's divider, and speeding
    /// an island up can raise the base rate. A single-island call is
    /// equivalent to [`set_noc_frequency`](Self::set_noc_frequency). To
    /// retune several islands at one control update use
    /// [`set_island_frequencies`](Self::set_island_frequencies), which
    /// applies the whole vector atomically (no transient intermediate base
    /// rates).
    ///
    /// # Panics
    ///
    /// Panics if `island >= island_count()`.
    pub fn set_island_frequency(&mut self, island: usize, f: Hertz) {
        let clamped = f.clamp(self.cfg.min_frequency(), self.cfg.max_frequency());
        self.islands[island].frequency_hz = clamped.as_hz();
        self.retune_island_dividers();
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_set_frequency(island as u32, clamped.as_hz(), self.clock.noc_cycle());
        }
    }

    /// Changes every island's clock frequency in one step (one value per
    /// island, clamped to the configuration's range, applying from the next
    /// cycle).
    ///
    /// Unlike a loop of [`set_island_frequency`](Self::set_island_frequency)
    /// calls, the base rate and the per-island dividers are recomputed once
    /// from the final vector, so no island observes a transient
    /// intermediate base rate (which could spuriously clear its
    /// fractional-cycle accumulator). This is the actuator a per-island
    /// DVFS control loop should use at each update.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies.len() != island_count()`.
    pub fn set_island_frequencies(&mut self, frequencies: &[Hertz]) {
        assert_eq!(frequencies.len(), self.islands.len(), "one frequency per island required");
        let (min, max) = (self.cfg.min_frequency(), self.cfg.max_frequency());
        for (island, &f) in self.islands.iter_mut().zip(frequencies.iter()) {
            island.frequency_hz = f.clamp(min, max).as_hz();
        }
        self.retune_island_dividers();
        if let Some(t) = self.telemetry.as_deref_mut() {
            let now = self.clock.noc_cycle();
            for (island, domain) in self.islands.iter().enumerate() {
                t.on_set_frequency(island as u32, domain.frequency_hz, now);
            }
        }
    }

    /// Recomputes the base rate and every island's divider from the current
    /// island frequencies.
    fn retune_island_dividers(&mut self) {
        let base = self.islands.iter().map(|i| i.frequency_hz).fold(f64::NEG_INFINITY, f64::max);
        for domain in &mut self.islands {
            // `x / x == 1.0` exactly in IEEE-754, so islands at the base
            // rate keep the fire-every-tick fast path. An island at the
            // base rate owes no fractional cycles: clear its accumulator so
            // a later slowdown does not fire early on stale backlog.
            domain.ratio = (domain.frequency_hz / base).min(1.0);
            if domain.ratio >= 1.0 {
                domain.acc = 0.0;
            }
        }
        self.clock.set_noc_frequency(Hertz::new(base));
    }

    /// Drains the per-island measurement windows accumulated since the last
    /// call (one [`WindowMeasurement`] per island, indexed by island id).
    ///
    /// Attribution: `flits_generated` / `flits_injected` belong to the
    /// island of the **source** node; ejection-side fields
    /// (`packets_ejected`, `flits_ejected`, latency and delay sums) belong
    /// to the island of the **destination** router. Summed over all
    /// islands, these additive fields equal the global
    /// [`take_window`](Self::take_window) fields for the same span.
    /// `noc_cycles` counts the island's *own* domain cycles;
    /// `wall_time_ps` and `node_cycles` are shared-clock spans, identical
    /// for every island.
    ///
    /// The island span is tracked independently of the global window, so a
    /// control loop can drain both back to back each interval.
    pub fn take_island_windows(&mut self) -> Vec<WindowMeasurement> {
        let wall = self.clock.wall_time().as_ps();
        let node_cycles = self.clock.node_cycles_emitted();
        let wall_span = wall - self.island_window_start_wall_ps;
        let node_span = node_cycles - self.island_window_start_node_cycles;
        self.island_window_start_wall_ps = wall;
        self.island_window_start_node_cycles = node_cycles;
        self.islands
            .iter_mut()
            .map(|island| {
                let mut w = island.window;
                w.wall_time_ps = wall_span;
                w.node_cycles = node_span;
                island.window = WindowMeasurement::default();
                w
            })
            .collect()
    }
}
