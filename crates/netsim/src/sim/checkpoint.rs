//! Snapshot glue: [`NocSimulation::snapshot`] / [`NocSimulation::restore`]
//! over the per-module `save_state` / `load_state` codecs.

use super::pipeline::credit_receiver;
use super::{FlitInFlight, NocSimulation, TenantAccounting, WindowMeasurement};
use crate::flit::Flit;
use crate::router::LOCAL_PORT;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use crate::tenant::TenantMap;
use crate::topology::PORT_COUNT;
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

/// Writes the channels `ids` (ascending) out of `items`, which are sorted by
/// channel and in queue order within one: per channel its item count, then
/// `(due, item)` for each. `at` is the cursor into `items`.
fn put_channels<T>(
    w: &mut SnapWriter,
    items: &[(u32, u64, T)],
    at: &mut usize,
    ids: impl Iterator<Item = usize>,
    encode: impl Fn(&T, &mut SnapWriter),
) {
    for id in ids {
        let queued =
            items[*at..].iter().take_while(|(channel, ..)| *channel as usize == id).count();
        w.put_usize(queued);
        for (_, due, item) in &items[*at..*at + queued] {
            w.put_u64(*due);
            encode(item, w);
        }
        *at += queued;
    }
}

/// Reads one channel — a count, then `(due, item)` for each — handing every
/// due cycle to `item`, which reads the item behind it. A due cycle must lie
/// within `latency` cycles after `now` and never before its predecessor on
/// the channel. Nothing is sized by the stored count: a hostile one runs
/// into the end of the payload.
fn read_channel(
    r: &mut SnapReader<'_>,
    now: u64,
    latency: u64,
    mut item: impl FnMut(&mut SnapReader<'_>, u64) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let queued = r.read_usize()?;
    let mut earliest = 1;
    for _ in 0..queued {
        let due = r.read_u64()?;
        match due.checked_sub(now) {
            Some(ahead) if (earliest..=latency).contains(&ahead) => earliest = ahead,
            _ => return Err(SnapshotError::Corrupt("channel due cycle")),
        }
        item(r, due)?;
    }
    Ok(())
}

impl NocSimulation {
    /// The flat index of the far end of the link at `port` of `node`: the
    /// sender's `node × PORT_COUNT + out_port` for a flit arriving on input
    /// `port`, the credit sender's `node × PORT_COUNT + in_port` for a credit
    /// arriving behind output `port`.
    fn far_end(&self, node: u32, port: u8) -> usize {
        let (far_node, far_port) = self.neighbor_table[node as usize][usize::from(port)]
            .expect("items in flight travel between neighbours");
        far_node * PORT_COUNT + far_port
    }

    /// The channel section. The format predates the wheels and does not
    /// follow the memory layout: it lists, per link (`node × PORT_COUNT +
    /// out_port`, existing links only), per credit channel (`node ×
    /// PORT_COUNT + in_port`) and per injection channel (by node), what the
    /// channel has in flight in queue order. The wheels are regrouped into
    /// that order with one gather in due-then-send order and a stable sort
    /// by channel.
    pub(super) fn save_channels(&self, w: &mut SnapWriter) {
        let now = self.clock.noc_cycle();
        let links = self.topo.node_count() * PORT_COUNT;
        let mut flits: Vec<(u32, u64, &Flit)> = self
            .flits_in_flight
            .iter(now)
            .map(|(due, f)| {
                let channel = if usize::from(f.in_port) == LOCAL_PORT {
                    links + f.dest as usize
                } else {
                    self.far_end(f.dest, f.in_port)
                };
                (channel as u32, due, &f.flit)
            })
            .collect();
        flits.sort_by_key(|&(channel, ..)| channel);
        let mut credits: Vec<(u32, u64, u8)> = self
            .credits_in_flight
            .iter(now)
            .map(|(due, c)| {
                let channel = if usize::from(c.out_port) == LOCAL_PORT {
                    c.target as usize * PORT_COUNT + LOCAL_PORT
                } else {
                    self.far_end(c.target, c.out_port)
                };
                (channel as u32, due, c.vc)
            })
            .collect();
        credits.sort_by_key(|&(channel, ..)| channel);

        let put_flit = |flit: &&Flit, w: &mut SnapWriter| flit.save_state(w);
        let is_link =
            |idx: &usize| self.neighbor_table[idx / PORT_COUNT][idx % PORT_COUNT].is_some();
        let mut at = 0;
        put_channels(w, &flits, &mut at, (0..links).filter(is_link), put_flit);
        put_channels(w, &credits, &mut 0, 0..links, |vc, w| w.put_usize(usize::from(*vc)));
        put_channels(w, &flits, &mut at, links..links + self.topo.node_count(), put_flit);
    }

    /// Refills the wheels from the channel section, channel by channel in
    /// the section's order, refusing whatever a live run could not have put
    /// in flight: a due cycle the wheel has no slot for, a flit whose
    /// endpoints or VC the fabric does not have, a credit for a VC or on a
    /// port that does not exist.
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
        let link_latency = flits_in_flight.latency();
        let mut load_flit = |r: &mut SnapReader<'_>, due: u64, dest: usize, in_port: usize| {
            let flit = Flit::load_state(r)?;
            if flit.src as usize >= nodes || flit.dst as usize >= nodes || flit.vc() >= vcs {
                return Err(SnapshotError::Corrupt("flit in flight"));
            }
            inbound_flits[dest] += 1;
            flits_in_flight
                .push_due(due, FlitInFlight { dest: dest as u32, in_port: in_port as u8, flit });
            Ok(())
        };
        for link in neighbor_table.iter().flatten() {
            if let Some((dest, in_port)) = *link {
                read_channel(r, now, link_latency, |r, due| load_flit(r, due, dest, in_port))?;
            }
        }
        for (node, ports) in neighbor_table.iter().enumerate() {
            for (in_port, link) in ports.iter().enumerate() {
                read_channel(r, now, credits_in_flight.latency(), |r, due| {
                    let vc = r.read_usize()?;
                    if in_port != LOCAL_PORT && link.is_none() {
                        return Err(SnapshotError::Corrupt("credit on a port with no neighbour"));
                    }
                    if vc >= vcs {
                        return Err(SnapshotError::Corrupt("credit vc"));
                    }
                    credits_in_flight
                        .push_due(due, credit_receiver(neighbor_table, node, in_port, vc));
                    Ok(())
                })?;
            }
        }
        for node in 0..nodes {
            read_channel(r, now, link_latency, |r, due| load_flit(r, due, node, LOCAL_PORT))?;
        }
        Ok(())
    }

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
    /// The two in-flight wheels are refilled from the channel section; the
    /// sparse engine's worklists are rebuilt from the restored network
    /// state, not deserialized.
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

        // Rebuild the worklists from the restored routers and sources.
        self.rebuild_sparse_worklists();
        Ok(())
    }
}
