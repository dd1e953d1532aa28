//! Snapshot glue: [`NocSimulation::snapshot`] / [`NocSimulation::restore`]
//! over the per-module `save_state` / `load_state` codecs.

use super::{CreditInFlight, FlitInFlight, NocSimulation, TenantAccounting, WindowMeasurement};
use crate::flit::Flit;
use crate::router::LOCAL_PORT;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use crate::tenant::TenantMap;
use rand::rngs::StdRng;

/// Section tags of the snapshot payload — one byte ahead of every section so
/// a truncated or shifted stream fails fast with a tag mismatch instead of
/// silently decoding garbage into a later section.
mod snap_tags {
    pub const CLOCK: u8 = 1;
    pub const RNG: u8 = 2;
    pub const ROUTERS: u8 = 3;
    pub const SOURCES: u8 = 4;
    pub const SINK: u8 = 5;
    pub const TRAFFIC: u8 = 6;
    pub const CHANNELS: u8 = 7;
    pub const ISLANDS: u8 = 8;
    pub const GATING: u8 = 9;
    pub const FAULTS: u8 = 10;
    pub const STATS: u8 = 11;
    pub const WINDOW: u8 = 12;
    pub const TENANTS: u8 = 13;
}

fn save_window(wm: &WindowMeasurement, w: &mut SnapWriter) {
    w.put_u64(wm.noc_cycles);
    w.put_u64(wm.node_cycles);
    w.put_f64(wm.wall_time_ps);
    w.put_u64(wm.flits_generated);
    w.put_u64(wm.flits_injected);
    w.put_u64(wm.packets_ejected);
    w.put_u64(wm.flits_ejected);
    w.put_u64(wm.latency_cycles_sum);
    w.put_f64(wm.delay_ps_sum);
    w.put_u64(wm.flits_dropped);
}

fn load_window(r: &mut SnapReader<'_>) -> Result<WindowMeasurement, SnapshotError> {
    Ok(WindowMeasurement {
        noc_cycles: r.read_u64()?,
        node_cycles: r.read_u64()?,
        wall_time_ps: r.read_f64()?,
        flits_generated: r.read_u64()?,
        flits_injected: r.read_u64()?,
        packets_ejected: r.read_u64()?,
        flits_ejected: r.read_u64()?,
        latency_cycles_sum: r.read_u64()?,
        delay_ps_sum: r.read_f64()?,
        flits_dropped: r.read_u64()?,
    })
}

/// Reads one wheel — a count, then `(due − now, item)` for each in
/// due-then-send order — handing every due cycle to `item`, which reads the
/// item behind it and pushes it. An item must be due within `latency` cycles
/// after `now` and never before its predecessor. Nothing is sized by the
/// stored count: a hostile one runs into the end of the payload.
fn read_wheel(
    r: &mut SnapReader<'_>,
    now: u64,
    latency: u64,
    mut item: impl FnMut(&mut SnapReader<'_>, u64) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let in_flight = r.read_usize()?;
    let mut earliest = 1;
    for _ in 0..in_flight {
        let ahead = r.read_u64()?;
        if !(earliest..=latency).contains(&ahead) {
            return Err(SnapshotError::Corrupt("in-flight due cycle"));
        }
        earliest = ahead;
        item(r, now + ahead)?;
    }
    Ok(())
}

impl NocSimulation {
    /// The channel section: each wheel once, in `EventWheel::iter` order
    /// (due-then-send), as `(due − now, address, item)`.
    pub(super) fn save_channels(&self, w: &mut SnapWriter) {
        let now = self.clock.noc_cycle();
        w.put_usize(self.flits_in_flight.len());
        for (due, f) in self.flits_in_flight.iter(now) {
            w.put_u64(due - now);
            w.put_u32(f.dest);
            w.put_u8(f.in_port);
            f.flit.save_state(w);
        }
        w.put_usize(self.credits_in_flight.len());
        for (due, c) in self.credits_in_flight.iter(now) {
            w.put_u64(due - now);
            w.put_u32(c.target);
            w.put_u8(c.out_port);
            w.put_u8(c.vc);
        }
    }

    /// Refills the wheels from the channel section in the section's order —
    /// which is the order a live run delivers in — refusing whatever a live
    /// run could not have put in flight: a due cycle the wheel has no slot
    /// for, a flit or credit addressed to a router or through a port the
    /// fabric does not have, a flit whose endpoints or VC it does not have, a
    /// credit for a VC that does not exist.
    fn load_channels(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let now = self.clock.noc_cycle();
        let nodes = self.topo.node_count();
        let vcs = self.cfg.virtual_channels();
        let NocSimulation {
            flits_in_flight, credits_in_flight, inbound_flits, neighbor_table, ..
        } = self;
        flits_in_flight.clear();
        credits_in_flight.clear();
        inbound_flits.fill(0);
        // Whether `port` of `node` is the far end of something: a link to a
        // neighbour, or the channel between the router and its own source.
        let connected = |node: u32, port: u8| {
            let port = usize::from(port);
            neighbor_table.get(node as usize).is_some_and(|ports| {
                port == LOCAL_PORT || ports.get(port).is_some_and(Option::is_some)
            })
        };
        read_wheel(r, now, flits_in_flight.latency(), |r, due| {
            let (dest, in_port) = (r.read_u32()?, r.read_u8()?);
            let flit = Flit::load_state(r)?;
            if !connected(dest, in_port)
                || flit.src as usize >= nodes
                || flit.dst as usize >= nodes
                || flit.vc() >= vcs
            {
                return Err(SnapshotError::Corrupt("flit in flight"));
            }
            inbound_flits[dest as usize] += 1;
            flits_in_flight.push_due(due, FlitInFlight { dest, in_port, flit });
            Ok(())
        })?;
        read_wheel(r, now, credits_in_flight.latency(), |r, due| {
            let (target, out_port, vc) = (r.read_u32()?, r.read_u8()?, r.read_u8()?);
            if !connected(target, out_port) || usize::from(vc) >= vcs {
                return Err(SnapshotError::Corrupt("credit in flight"));
            }
            credits_in_flight.push_due(due, CreditInFlight { target, out_port, vc });
            Ok(())
        })
    }

    /// Rebuilds the worklists from the restored network state. A pending
    /// source whose router is fenced belongs in the fenced-source set, not
    /// the worklist — it rejoins when the router wakes. Every router is marked
    /// touched: whatever its window counters hold, the next activity drain
    /// reads them.
    fn rebuild_sparse_worklists(&mut self) {
        for (node, router) in self.routers.iter().enumerate() {
            self.active.set_to(node, !router.is_quiescent());
            self.touched.insert(node);
        }
        for (node, source) in self.sources.iter().enumerate() {
            let pending = source.has_pending_flits();
            if self.faults.as_ref().is_some_and(|f| f.router_dead(node)) {
                // A dead router's source is parked; it rejoins the
                // worklist when the router recovers (or on the next
                // generated flit, which phase 6 re-parks).
                self.pending_sources.set_to(node, false);
            } else if self.gating.enabled && self.gating.states[node].is_fenced() {
                // `fenced_sources` implies the wakeup request was already
                // raised (phase 6 sets both together), so the source
                // rejoins via `complete_wakeups`. Without it the request is
                // still owed — keep the source on the worklist so phase 6
                // raises it.
                self.pending_sources.set_to(node, pending && !self.gating.fenced_sources[node]);
            } else {
                self.pending_sources.set_to(node, pending);
            }
        }
    }

    /// Captures the complete mutable state of the simulation at the current
    /// cycle boundary as a versioned [`SimSnapshot`](crate::snapshot::SimSnapshot).
    ///
    /// The contract is **bit-identity**: a run paused here, saved, and later
    /// [`restore`](Self::restore)d into a fresh simulation built from the
    /// same configuration, traffic specification and seed produces windows,
    /// counters and RNG streams identical — bit for bit — to a run that
    /// never paused. This holds with event-horizon skipping on or off and
    /// with or without island workers, because the skipping switch and the
    /// skipped-cycle diagnostic are deliberately *not* part of the snapshot:
    /// they describe how state is computed, not what the state is.
    ///
    /// Configuration- and topology-derived structure (routing tables,
    /// neighbour tables, island partition, channel latencies) is likewise
    /// never serialized; the snapshot instead records a fingerprint of the
    /// configuration and [`restore`](Self::restore) refuses a mismatch.
    ///
    /// Must be called at a cycle boundary (i.e. between
    /// [`run_cycles`](Self::run_cycles) calls) — the only observable
    /// boundary the public API exposes, so this is not a practical
    /// restriction.
    pub fn snapshot(&self) -> crate::snapshot::SimSnapshot {
        use crate::snapshot::{config_fingerprint, SimSnapshot};
        let mut w = SnapWriter::new();

        w.put_tag(snap_tags::CLOCK);
        self.clock.save_state(&mut w);

        w.put_tag(snap_tags::RNG);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_u64(self.next_packet_id);

        w.put_tag(snap_tags::ROUTERS);
        for router in &self.routers {
            router.save_state(&mut w);
        }

        w.put_tag(snap_tags::SOURCES);
        for source in &self.sources {
            source.save_state(&mut w);
        }

        w.put_tag(snap_tags::SINK);
        self.sink.save_state(&mut w);

        w.put_tag(snap_tags::TRAFFIC);
        let mut blob = Vec::new();
        self.traffic.save_extra_state(&mut blob);
        w.put_usize(blob.len());
        for b in blob {
            w.put_u8(b);
        }

        w.put_tag(snap_tags::CHANNELS);
        self.save_channels(&mut w);

        w.put_tag(snap_tags::ISLANDS);
        for island in &self.islands {
            w.put_f64(island.frequency_hz);
            w.put_f64(island.ratio);
            w.put_f64(island.acc);
            w.put_bool(island.fires);
            w.put_u64(island.local_cycle);
            save_window(&island.window, &mut w);
        }
        for start in &self.gating.window_start {
            w.put_u64(*start);
        }
        w.put_f64(self.island_window_start_wall_ps);
        w.put_u64(self.island_window_start_node_cycles);

        w.put_tag(snap_tags::GATING);
        self.gating.save_state(&mut w);

        w.put_tag(snap_tags::FAULTS);
        w.put_bool(self.faults.is_some());
        if let Some(faults) = &self.faults {
            faults.save_state(&mut w);
        }

        w.put_tag(snap_tags::STATS);
        self.totals.save_state(&mut w);
        w.put_u64(self.total_dropped);

        w.put_tag(snap_tags::WINDOW);
        save_window(&self.window, &mut w);
        w.put_f64(self.window_start_wall_ps);
        w.put_u64(self.window_start_node_cycles);

        // The tenant partition is run-time state (installed via
        // `set_tenant_map`, not derived from the configuration), so the map
        // itself travels with the snapshot and `restore` recreates the whole
        // accounting block — including on a fresh simulation that never had
        // a map installed.
        w.put_tag(snap_tags::TENANTS);
        w.put_bool(self.tenants.is_some());
        if let Some(t) = &self.tenants {
            t.map.save_state(&mut w);
            for slot in &t.windows {
                save_window(slot, &mut w);
            }
            w.put_u64(t.window_start_noc_cycles);
            w.put_u64(t.window_start_node_cycles);
            w.put_f64(t.window_start_wall_ps);
        }

        SimSnapshot::new(config_fingerprint(&self.cfg), w.into_vec())
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// simulation, which must have been built from the **same
    /// configuration** (checked via the snapshot's configuration
    /// fingerprint) — typically a freshly constructed simulation standing in
    /// for a restarted process, though restoring over a used simulation is
    /// equally valid (rewind, branching exploration).
    ///
    /// The skipping switch ([`set_event_skipping`](Self::set_event_skipping))
    /// and the [`skipped_cycle_count`](Self::skipped_cycle_count) diagnostic
    /// are left untouched: the restored run may step in any engine mode,
    /// serial or with island workers, and stays bit-identical to the
    /// uninterrupted one.
    ///
    /// The two in-flight wheels are refilled from the channel section in the
    /// order they were written; the worklists are rebuilt from the restored
    /// network state, not deserialized. Every section refuses the bytes it
    /// can judge on its own; then the restored state as a whole must pass
    /// [`check_invariants`](Self::check_invariants) — the credit ledger of
    /// every link across sections, the flit ledger, the gating fence.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`](crate::snapshot::SnapshotError::UnsupportedVersion) for a snapshot from a different
    /// format version, [`SnapshotError::ConfigMismatch`](crate::snapshot::SnapshotError::ConfigMismatch) when the snapshot
    /// was taken under a different configuration, and
    /// [`SnapshotError::Corrupt`](crate::snapshot::SnapshotError::Corrupt)/[`SnapshotError::UnexpectedEof`](crate::snapshot::SnapshotError::UnexpectedEof)/
    /// [`SnapshotError::TrailingBytes`](crate::snapshot::SnapshotError::TrailingBytes) for a mangled payload — a
    /// restored state that breaks an invariant is `Corrupt` with the
    /// clause's name. The simulation may be left partially restored on error
    /// and should be discarded.
    pub fn restore(&mut self, snap: &crate::snapshot::SimSnapshot) -> Result<(), SnapshotError> {
        use crate::snapshot::{config_fingerprint, SNAP_VERSION};
        if snap.version() != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version()));
        }
        if snap.config_fingerprint() != config_fingerprint(&self.cfg) {
            return Err(SnapshotError::ConfigMismatch);
        }
        let r = &mut SnapReader::new(snap.payload());

        r.expect_tag(snap_tags::CLOCK)?;
        let (min, max) = (self.cfg.min_frequency(), self.cfg.max_frequency());
        self.clock.load_state(r, min.as_hz(), max.as_hz())?;

        r.expect_tag(snap_tags::RNG)?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.read_u64()?;
        }
        self.rng = StdRng::from_state(rng_state);
        self.next_packet_id = r.read_u64()?;

        r.expect_tag(snap_tags::ROUTERS)?;
        let nodes = self.topo.node_count();
        for router in &mut self.routers {
            router.load_state(r, nodes)?;
        }

        r.expect_tag(snap_tags::SOURCES)?;
        let depth = self.cfg.buffer_depth();
        for source in &mut self.sources {
            source.load_state(r, depth, nodes)?;
        }

        r.expect_tag(snap_tags::SINK)?;
        self.sink.load_state(r)?;

        r.expect_tag(snap_tags::TRAFFIC)?;
        let blob_len = r.read_usize()?;
        if !self.traffic.load_extra_state(r.read_bytes(blob_len)?) {
            return Err(SnapshotError::Corrupt("traffic state"));
        }

        r.expect_tag(snap_tags::CHANNELS)?;
        self.load_channels(r)?;

        r.expect_tag(snap_tags::ISLANDS)?;
        for island in &mut self.islands {
            island.frequency_hz = r.read_f64()?;
            island.ratio = r.read_f64()?;
            island.acc = r.read_f64()?;
            island.fires = r.read_bool()?;
            island.local_cycle = r.read_u64()?;
            island.window = load_window(r)?;
        }
        for (start, island) in self.gating.window_start.iter_mut().zip(&self.islands) {
            *start = r.read_u64()?;
            if *start > island.local_cycle {
                return Err(SnapshotError::Corrupt("activity window start"));
            }
        }
        self.island_window_start_wall_ps = r.read_f64()?;
        self.island_window_start_node_cycles = r.read_u64()?;

        r.expect_tag(snap_tags::GATING)?;
        let islands = &self.islands;
        self.gating.load_state(r, |island| islands[island].local_cycle)?;

        r.expect_tag(snap_tags::FAULTS)?;
        let has_faults = r.read_bool()?;
        if has_faults != self.faults.is_some() {
            return Err(SnapshotError::Corrupt("fault subsystem presence"));
        }
        if let Some(faults) = &mut self.faults {
            faults.load_state(r)?;
        }

        r.expect_tag(snap_tags::STATS)?;
        self.totals.load_state(r)?;
        self.total_dropped = r.read_u64()?;

        r.expect_tag(snap_tags::WINDOW)?;
        self.window = load_window(r)?;
        self.window_start_wall_ps = r.read_f64()?;
        self.window_start_node_cycles = r.read_u64()?;

        r.expect_tag(snap_tags::TENANTS)?;
        self.tenants = if r.read_bool()? {
            let map = TenantMap::load_state(r)?;
            if map.node_count() != self.topo.node_count() {
                return Err(SnapshotError::Corrupt("tenant map node count"));
            }
            let mut windows = Vec::with_capacity(map.slot_count());
            for _ in 0..map.slot_count() {
                windows.push(load_window(r)?);
            }
            Some(TenantAccounting {
                map,
                windows,
                window_start_noc_cycles: r.read_u64()?,
                window_start_node_cycles: r.read_u64()?,
                window_start_wall_ps: r.read_f64()?,
            })
        } else {
            None
        };

        r.finish()?;
        self.rebuild_sparse_worklists();
        self.check_invariants().map_err(|v| SnapshotError::Corrupt(v.clause))
    }
}
