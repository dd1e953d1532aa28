//! Snapshot glue: [`NocSimulation::snapshot`] / [`NocSimulation::restore`]
//! over the per-module `save_state` / `load_state` codecs.

use super::worklist::DueWheel;
use super::{NocSimulation, TenantAccounting, WindowMeasurement};
use crate::flit::Flit;
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

fn save_window(wm: &WindowMeasurement, w: &mut crate::snapshot::SnapWriter) {
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

fn load_window(
    r: &mut crate::snapshot::SnapReader<'_>,
) -> Result<WindowMeasurement, crate::snapshot::SnapshotError> {
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

impl NocSimulation {
    /// Captures the complete mutable state of the simulation at the current
    /// cycle boundary as a versioned [`SimSnapshot`](crate::snapshot::SimSnapshot).
    ///
    /// The contract is **bit-identity**: a run paused here, saved, and later
    /// [`restore`](Self::restore)d into a fresh simulation built from the
    /// same configuration, traffic specification and seed produces windows,
    /// counters and RNG streams identical — bit for bit — to a run that
    /// never paused. This holds under both stepping engines and with
    /// event-horizon skipping on or off, because engine selection flags and
    /// the skipped-cycle diagnostic are deliberately *not* part of the
    /// snapshot: they describe how state is computed, not what the state is.
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
        use crate::snapshot::{config_fingerprint, SimSnapshot, SnapWriter};
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
        for channel in self.flit_channels.iter().flatten() {
            channel.save_state(&mut w, |flit, w| flit.save_state(w));
        }
        for channel in &self.credit_channels {
            channel.save_state(&mut w, |credits, w| w.put_usize(*credits));
        }
        for channel in &self.injection_channels {
            channel.save_state(&mut w, |flit, w| flit.save_state(w));
        }

        w.put_tag(snap_tags::ISLANDS);
        for island in &self.islands {
            w.put_f64(island.frequency_hz);
            w.put_f64(island.ratio);
            w.put_f64(island.acc);
            w.put_bool(island.fires);
            w.put_u64(island.local_cycle);
            save_window(&island.window, &mut w);
        }
        for start in &self.activity_start_island {
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
    /// Engine selection ([`set_dense_stepping`](Self::set_dense_stepping),
    /// [`set_event_skipping`](Self::set_event_skipping)) and the
    /// [`skipped_cycle_count`](Self::skipped_cycle_count) diagnostic are
    /// left untouched: the restored run may step under any engine, serial
    /// or with island workers, and stays bit-identical to the uninterrupted
    /// one.
    ///
    /// Derived acceleration state — the channel timing wheels and the sparse
    /// engine's worklists — is rebuilt from the restored network state, not
    /// deserialized.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`](crate::snapshot::SnapshotError::UnsupportedVersion) for a snapshot from a different
    /// format version, [`SnapshotError::ConfigMismatch`](crate::snapshot::SnapshotError::ConfigMismatch) when the snapshot
    /// was taken under a different configuration, and
    /// [`SnapshotError::Corrupt`](crate::snapshot::SnapshotError::Corrupt)/[`SnapshotError::UnexpectedEof`](crate::snapshot::SnapshotError::UnexpectedEof)/
    /// [`SnapshotError::TrailingBytes`](crate::snapshot::SnapshotError::TrailingBytes) for a mangled payload. The
    /// simulation may be left partially restored on error and should be
    /// discarded.
    pub fn restore(
        &mut self,
        snap: &crate::snapshot::SimSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{config_fingerprint, SnapReader, SnapshotError, SNAP_VERSION};
        if snap.version() != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version()));
        }
        if snap.config_fingerprint() != config_fingerprint(&self.cfg) {
            return Err(SnapshotError::ConfigMismatch);
        }
        let r = &mut SnapReader::new(snap.payload());

        r.expect_tag(snap_tags::CLOCK)?;
        self.clock.load_state(r)?;

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
        let mut blob = Vec::with_capacity(blob_len);
        for _ in 0..blob_len {
            blob.push(r.read_u8()?);
        }
        if !self.traffic.load_extra_state(&blob) {
            return Err(SnapshotError::Corrupt("traffic state"));
        }

        r.expect_tag(snap_tags::CHANNELS)?;
        for channel in self.flit_channels.iter_mut().flatten() {
            channel.load_state(r, Flit::load_state)?;
        }
        for channel in &mut self.credit_channels {
            channel.load_state(r, |r| r.read_usize())?;
        }
        for channel in &mut self.injection_channels {
            channel.load_state(r, Flit::load_state)?;
        }

        r.expect_tag(snap_tags::ISLANDS)?;
        for island in &mut self.islands {
            island.frequency_hz = r.read_f64()?;
            island.ratio = r.read_f64()?;
            island.acc = r.read_f64()?;
            island.fires = r.read_bool()?;
            island.local_cycle = r.read_u64()?;
            island.window = load_window(r)?;
        }
        for start in &mut self.activity_start_island {
            *start = r.read_u64()?;
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

        // Rebuild the derived acceleration state: the timing wheels from
        // every channel's in-flight due times, in flat-index order, and the
        // worklists from the restored routers and sources.
        self.flit_wheel = DueWheel::rebuilt(
            self.link_latency,
            self.flit_channels.iter().map(|ch| ch.iter().flat_map(|ch| ch.due_times())),
        );
        self.credit_wheel = DueWheel::rebuilt(
            self.credit_latency,
            self.credit_channels.iter().map(|ch| ch.due_times()),
        );
        self.inject_wheel = DueWheel::rebuilt(
            self.link_latency,
            self.injection_channels.iter().map(|ch| ch.due_times()),
        );
        self.rebuild_sparse_worklists();
        Ok(())
    }
}
