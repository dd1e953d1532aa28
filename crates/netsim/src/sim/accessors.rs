//! The simulation's query and actuation surface: configuration and state
//! getters, the gating / tenant / telemetry switches, the skipping switch,
//! and the measurement-window and activity drains.

use super::{NocSimulation, TenantAccounting, WindowMeasurement};
use crate::activity::{NetworkActivity, RouterActivity};
use crate::gating::GateState;
use crate::stats::SimStats;
use crate::telemetry::{CongestionHeatmap, SimCounters, TelemetryConfig, TelemetryState};
use crate::tenant::{TenantMap, TenantMapError};
use crate::topology::Direction;
use crate::units::Picoseconds;

impl NocSimulation {
    /// Number of nodes in the simulated grid.
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Whether power gating is enabled (the configuration value).
    pub fn gating_enabled(&self) -> bool {
        self.gating.enabled
    }

    /// Power-gating state of one router.
    ///
    /// # Panics
    ///
    /// Panics if `node >= node_count()`.
    pub fn router_gate_state(&self, node: usize) -> GateState {
        self.gating.states[node]
    }

    /// Number of routers currently in the [`GateState::Gated`] state.
    pub fn gated_router_count(&self) -> usize {
        self.gating.gated_count()
    }

    /// Current idle threshold of one island, in that island's domain cycles
    /// ([`GATE_NEVER`](crate::gating::GATE_NEVER) means the island never
    /// initiates a power-down).
    ///
    /// # Panics
    ///
    /// Panics if `island >= island_count()`.
    pub fn island_idle_threshold(&self, island: usize) -> u64 {
        self.gating.threshold(island)
    }

    /// Changes one island's idle threshold at run time — the actuator a
    /// gating policy drives each control interval. Routers already gated
    /// stay gated until traffic wakes them (even at
    /// [`GATE_NEVER`](crate::gating::GATE_NEVER)); only future power-down
    /// decisions use the new threshold. Walks only the island's own nodes.
    ///
    /// # Panics
    ///
    /// Panics if `island >= island_count()`.
    pub fn set_island_idle_threshold(&mut self, island: usize, threshold: u64) {
        let now = self.islands[island].local_cycle;
        self.gating.set_island_threshold(island, threshold, now, &self.island_masks[island]);
    }

    /// Total flits delivered to sinks since the start of the run — the
    /// received side of the flit-conservation ledger (`generated = received
    /// + queued + buffered + in flight + dropped`, pinned by the gating and
    /// fault invariants; `dropped` is zero without fault injection).
    pub fn total_flits_received(&self) -> u64 {
        self.sink.flits_received()
    }

    /// Total flits dropped by failed components since the start of the run
    /// — purged from dying routers, drained from the channels around them,
    /// or discarded as orphaned packet segments whose head died upstream.
    /// Always zero unless the configuration injects faults.
    pub fn total_flits_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Fraction of ordered `(source, destination)` node pairs that are
    /// currently connected through live routers and links, over all
    /// `n · (n - 1)` pairs of the fault-free topology — the degraded-mode
    /// reachability metric (`1.0` while the network is whole; pairs touching
    /// a dead router or separated by a partition count as unreachable).
    pub fn reachable_pairs_fraction(&self) -> f64 {
        let n = self.topo.node_count();
        if n < 2 {
            return 1.0;
        }
        let Some(faults) = self.faults.as_ref() else { return 1.0 };
        if !faults.any_active() {
            return 1.0;
        }
        // Union-find over live routers joined by live links.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for node in 0..n {
            if faults.router_dead(node) {
                continue;
            }
            for dir in [Direction::East, Direction::South] {
                let Some(nbr) = self.topo.neighbor(node, dir) else { continue };
                if faults.router_dead(nbr) || faults.link_dead(&self.topo, node, dir) {
                    continue;
                }
                let (a, b) = (find(&mut parent, node as u32), find(&mut parent, nbr as u32));
                parent[a as usize] = b;
            }
        }
        let mut component_size = vec![0u64; n];
        for node in 0..n {
            if !faults.router_dead(node) {
                component_size[find(&mut parent, node as u32) as usize] += 1;
            }
        }
        let reachable: u64 = component_size.iter().map(|&s| s * s.saturating_sub(1)).sum();
        reachable as f64 / (n as u64 * (n as u64 - 1)) as f64
    }

    /// Number of NoC cycles simulated so far.
    pub fn current_cycle(&self) -> u64 {
        self.clock.noc_cycle()
    }

    /// Wall-clock time simulated so far.
    pub fn wall_time(&self) -> Picoseconds {
        self.clock.wall_time()
    }

    /// Aggregate statistics since the last [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> &SimStats {
        &self.totals
    }

    /// Clears the aggregate statistics (typically after warm-up).
    pub fn reset_stats(&mut self) {
        self.totals = SimStats::new();
    }

    /// Total number of flits currently waiting in source queues — a direct
    /// indicator of saturation (queues grow without bound past the saturation
    /// point).
    pub fn queued_source_flits(&self) -> usize {
        self.sources.iter().map(|s| s.queued_flits()).sum()
    }

    /// Total number of flits currently buffered inside routers.
    pub fn buffered_network_flits(&self) -> usize {
        self.routers.iter().map(|r| r.buffered_flits()).sum()
    }

    /// Total flits generated by all sources since the start of the run.
    pub fn total_flits_generated(&self) -> u64 {
        self.sources.iter().map(|s| s.flits_generated()).sum()
    }

    /// Total packets fully delivered since the start of the run.
    pub fn total_packets_delivered(&self) -> u64 {
        self.sink.packets_completed()
    }

    /// Enables or disables event-horizon cycle-skipping (enabled by default).
    ///
    /// When enabled, [`run_cycles`](Self::run_cycles) jumps the clock over
    /// spans it can prove are event-free — no buffered flit, no pending
    /// source, no channel delivery due, no gating or fault transition due,
    /// and no RNG draw owed by a traffic source — executing only the clock
    /// and island-divider bookkeeping for each skipped base tick. The
    /// observable behaviour (every window, counter and RNG stream) is
    /// bit-identical with skipping on or off; the switch exists for
    /// differential testing.
    pub fn set_event_skipping(&mut self, enabled: bool) {
        self.event_skip = enabled;
    }

    /// Base ticks absorbed by event-horizon jumps since the start of the
    /// run. Each skipped tick still advanced the shared clock and every
    /// island divider; the counter only reports how many ticks bypassed the
    /// full phase loop.
    pub fn skipped_cycle_count(&self) -> u64 {
        self.skipped_cycles
    }

    /// Number of routers on the active worklist — routers holding at least
    /// one buffered flit.
    pub fn active_router_count(&self) -> usize {
        self.active.len()
    }

    /// Flits currently in flight on inter-router links and injection
    /// channels.
    pub fn in_flight_flits(&self) -> usize {
        self.flits_in_flight.len()
    }

    /// Credits currently in flight on credit-return channels.
    pub fn in_flight_credits(&self) -> usize {
        self.credits_in_flight.len()
    }

    /// Whether the network is fully drained: no router buffers a flit, no
    /// source queues one, and no channel carries a flit or credit.
    ///
    /// This is the **quiescence contract** of the sparse engine: when it
    /// holds, a step does no pipeline, delivery or injection work at all
    /// (only the clock advances and — RNG draw order being sacred — traffic
    /// generation runs). It also implies every packet that entered a sink
    /// was fully reassembled (a missing tail would still be buffered or in
    /// flight).
    pub fn is_quiescent(&self) -> bool {
        self.active_router_count() == 0
            && self.queued_source_flits() == 0
            && self.in_flight_flits() == 0
            && self.in_flight_credits() == 0
    }

    /// Drains the per-router activity counters accumulated since the last
    /// call (or since the start of the run).
    ///
    /// Elapsed cycles are accounted centrally here (the sparse engine skips
    /// quiescent routers, which therefore never see a per-cycle tick), so
    /// every router reports the full window length in `cycles` — measured in
    /// its **own island's** domain cycles, which is what an activity-driven
    /// power model must integrate against. Gating residency rides along:
    /// `gated_cycles` and the sleep/wake events let the power model split
    /// leakage into active and gated time and charge the transitions.
    ///
    /// Cost: one record per router is built from its island's window span
    /// and its open gated span; only the routers that were busy, drained or
    /// changed gating state in the window (`active ∪ touched`) are read
    /// beyond that. A router that stayed gated or idle through the window
    /// is never visited.
    pub fn take_activity(&mut self) -> NetworkActivity {
        let island_of = self.regions.assignments();
        let mut routers: Vec<RouterActivity> = island_of
            .iter()
            .enumerate()
            .map(|(node, &island)| {
                let island = island as usize;
                let now = self.islands[island].local_cycle;
                RouterActivity {
                    cycles: now - self.gating.window_start[island],
                    gated_cycles: self.gating.open_gated_span(node, now),
                    ..RouterActivity::default()
                }
            })
            .collect();
        self.drain_touched(|node, a| routers[node] += a);
        NetworkActivity { routers }
    }

    /// Discards the activity accumulated since the last
    /// [`take_activity`](Self::take_activity) (or reset) without building the
    /// per-router vector — the cheap path for control loops that throw
    /// warm-up windows away. Costs O(routers touched in the window +
    /// nodes / 64 + islands): it visits the active routers and those marked
    /// touched — every router that drained, died, slept or was woken since
    /// the last drain, hence every router whose counters may be non-zero —
    /// and no router that stayed gated or idle.
    pub fn reset_activity(&mut self) {
        self.drain_touched(|_, _| {});
    }

    /// Ends the activity window: hands `f` the drained router and gating
    /// window counters of every router in `active ∪ touched` (in ascending
    /// node order), empties `touched` and restarts every island's window.
    /// The routers outside the set have nothing to drain — their counters
    /// are zero by the `touched` invariant — and an open gated span needs no
    /// closing: it counts from the later of its gating and the new start.
    fn drain_touched(&mut self, mut f: impl FnMut(usize, RouterActivity)) {
        let NocSimulation { routers, active, touched, gating, islands, .. } = self;
        for (widx, (t, &a)) in touched.words.iter_mut().zip(&active.words).enumerate() {
            let mut w = std::mem::take(t) | a;
            while w != 0 {
                let node = (widx << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                let mut activity = routers[node].take_activity();
                let (gated, sleeps, wakes) = gating.drain_router_window(node);
                activity.gated_cycles += gated;
                activity.sleep_events += sleeps;
                activity.wake_events += wakes;
                f(node, activity);
            }
        }
        gating.restart_window(islands.iter().map(|d| d.local_cycle));
    }

    /// Drains the measurement window accumulated since the last call.
    pub fn take_window(&mut self) -> WindowMeasurement {
        let mut w = self.window;
        w.wall_time_ps = self.clock.wall_time().as_ps() - self.window_start_wall_ps;
        w.node_cycles = self.clock.node_cycles_emitted() - self.window_start_node_cycles;
        self.window = WindowMeasurement::default();
        self.window_start_wall_ps = self.clock.wall_time().as_ps();
        self.window_start_node_cycles = self.clock.node_cycles_emitted();
        w
    }

    /// Installs (or replaces) the tenant partition used for per-tenant QoS
    /// accounting, resetting the per-tenant windows and starting their span
    /// at the current clock.
    ///
    /// Installing a map changes **no** simulation behaviour — routing,
    /// injection, RNG streams, the global window and the per-island windows
    /// are bit-identical with or without it; the map only adds per-slot
    /// attribution of the events the global window already counts.
    ///
    /// # Errors
    ///
    /// [`TenantMapError::WrongLength`] when the map does not cover exactly
    /// this network's nodes.
    pub fn set_tenant_map(&mut self, map: TenantMap) -> Result<(), TenantMapError> {
        if map.node_count() != self.topo.node_count() {
            return Err(TenantMapError::WrongLength {
                expected: self.topo.node_count(),
                got: map.node_count(),
            });
        }
        let windows = vec![WindowMeasurement::default(); map.slot_count()];
        self.tenants = Some(TenantAccounting {
            map,
            windows,
            window_start_noc_cycles: self.clock.noc_cycle(),
            window_start_node_cycles: self.clock.node_cycles_emitted(),
            window_start_wall_ps: self.clock.wall_time().as_ps(),
        });
        Ok(())
    }

    /// Drains the per-tenant measurement windows accumulated since the last
    /// call (or since [`set_tenant_map`](Self::set_tenant_map)): one
    /// [`WindowMeasurement`] per slot, indexed by tenant id, with the
    /// background slot — the events of nodes no tenant owns — last. Returns
    /// an empty vector while no map is installed.
    ///
    /// Attribution mirrors the per-island contract
    /// ([`take_island_windows`](Self::take_island_windows)):
    /// `flits_generated` / `flits_injected` belong to the tenant of the
    /// **source** node; ejection-side fields (`packets_ejected`,
    /// `flits_ejected`, latency and delay sums) to the tenant of the
    /// **destination** router; `flits_dropped` to the tenant of the router
    /// that dropped. Every counted event lands in exactly one slot, so the
    /// additive fields summed over all slots equal the global
    /// [`take_window`](Self::take_window) fields for the same span.
    /// `noc_cycles`, `node_cycles` and `wall_time_ps` are shared-clock
    /// spans, identical for every slot.
    pub fn take_tenant_windows(&mut self) -> Vec<WindowMeasurement> {
        let noc = self.clock.noc_cycle();
        let node_cycles = self.clock.node_cycles_emitted();
        let wall = self.clock.wall_time().as_ps();
        let Some(t) = self.tenants.as_mut() else { return Vec::new() };
        let noc_span = noc - t.window_start_noc_cycles;
        let node_span = node_cycles - t.window_start_node_cycles;
        let wall_span = wall - t.window_start_wall_ps;
        t.window_start_noc_cycles = noc;
        t.window_start_node_cycles = node_cycles;
        t.window_start_wall_ps = wall;
        t.windows
            .iter_mut()
            .map(|slot| {
                let mut w = *slot;
                w.noc_cycles = noc_span;
                w.node_cycles = node_span;
                w.wall_time_ps = wall_span;
                *slot = WindowMeasurement::default();
                w
            })
            .collect()
    }

    /// Installs the zero-perturbation telemetry layer ([`TelemetryConfig`]):
    /// the per-router counter fabric, the typed event trace (exportable as a
    /// Chrome/Perfetto `trace_events` JSON via
    /// [`TraceEmitter::write_perfetto`](crate::telemetry::TraceEmitter::write_perfetto))
    /// and, when [`TelemetryConfig::with_profile`] is set, the wall-time
    /// [`EngineProfile`](crate::telemetry::EngineProfile).
    ///
    /// Installing telemetry changes **no** simulation behaviour: probes are
    /// read-only observers, draw no RNG, and touch no scheduling state, so a
    /// telemetry-enabled run is bit-identical — window by window — to the
    /// same run without it (enforced by `tests/telemetry_invariants.rs`).
    /// Memory is bounded: the snapshot ring keeps the last
    /// [`TelemetryConfig::with_history`] windows and the event trace is a
    /// fixed-capacity ring that counts its evictions.
    ///
    /// Telemetry is deliberately **not** captured by snapshots — it
    /// describes how the run was watched, not what the simulation state is —
    /// so reinstall it after a restore if you want continued observation.
    pub fn install_telemetry(&mut self, cfg: TelemetryConfig) {
        let now = self.clock.noc_cycle();
        self.telemetry = Some(Box::new(TelemetryState::new(cfg, self.topo.node_count(), now)));
        self.gating.set_transition_log(true);
    }

    /// Removes the telemetry layer, returning the simulation to the
    /// zero-cost (one dead branch per probe site) configuration.
    pub fn clear_telemetry(&mut self) {
        self.telemetry = None;
        self.gating.set_transition_log(false);
    }

    /// The installed telemetry layer, if any — snapshots, the event trace
    /// and the engine profile are read through this.
    pub fn telemetry(&self) -> Option<&TelemetryState> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the installed telemetry layer (to drain snapshots
    /// or the event ring).
    pub fn telemetry_mut(&mut self) -> Option<&mut TelemetryState> {
        self.telemetry.as_deref_mut()
    }

    /// Renders the per-router congestion heatmap accumulated since
    /// [`install_telemetry`](Self::install_telemetry): mean forwarded flits
    /// per base tick, laid out row-major over the mesh. `None` while no
    /// telemetry is installed.
    pub fn telemetry_heatmap(&self) -> Option<CongestionHeatmap> {
        let t = self.telemetry.as_deref()?;
        Some(t.heatmap(self.topo.width(), self.topo.height(), self.clock.noc_cycle()))
    }

    /// One-call bundle of the simulation's diagnostic counters (always
    /// available, telemetry installed or not) — replaces chains of
    /// `current_cycle()` / `in_flight_flits()` / … getters in monitoring
    /// loops and examples.
    pub fn counters(&self) -> SimCounters {
        SimCounters {
            cycle: self.current_cycle(),
            wall_time_ps: self.clock.wall_time().as_ps(),
            skipped_cycles: self.skipped_cycles,
            active_routers: self.active_router_count(),
            gated_routers: self.gating.gated_count(),
            in_flight_flits: self.in_flight_flits(),
            in_flight_credits: self.in_flight_credits(),
            queued_source_flits: self.queued_source_flits(),
            buffered_network_flits: self.buffered_network_flits(),
            flits_generated: self.total_flits_generated(),
            flits_received: self.total_flits_received(),
            flits_dropped: self.total_dropped,
            packets_delivered: self.total_packets_delivered(),
            reachable_pairs: self.reachable_pairs_fraction(),
        }
    }

    /// Closes the current telemetry sample window (no-op without
    /// telemetry). Take/put keeps the borrow checker happy while the
    /// sampler reads the router vector.
    pub(super) fn sample_telemetry(&mut self, now: u64) {
        let Some(mut t) = self.telemetry.take() else { return };
        let island_cycles: Vec<u64> = self.islands.iter().map(|d| d.local_cycle).collect();
        t.sample(&self.routers, self.gating.gated_count(), &island_cycles, now);
        self.telemetry = Some(t);
    }

    /// Per-step telemetry bookkeeping: worklist-occupancy accumulation and
    /// the sample-cadence check. Called once per stepped base tick (skipped
    /// ticks are accounted by the horizon-jump probe instead).
    pub(super) fn telemetry_step_tick(&mut self) {
        let (active, pending) = (self.active.len(), self.pending_sources.len());
        let now = self.clock.noc_cycle();
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        t.tick_worklist(active, pending);
        if now >= t.next_sample_at {
            self.sample_telemetry(now);
        }
    }

    /// Moves the gating controller's transition log (kept only while
    /// telemetry is installed) into the telemetry event stream.
    pub(super) fn drain_gate_transitions(&mut self, now: u64) {
        let NocSimulation { gating, telemetry, .. } = self;
        if let Some(t) = telemetry.as_deref_mut() {
            gating.drain_transition_log(|node, to_sleep| t.on_gate_transition(node, to_sleep, now));
        }
    }
}
