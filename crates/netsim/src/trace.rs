//! Trace-driven workload record / replay.
//!
//! A **trace** is the exact injection history of a run: one event per
//! generated packet, carrying the absolute node-clock cycle, the source, the
//! destination and the tenant slot of the source. Traces close the loop
//! between synthetic experiments and workload-driven ones:
//!
//! * [`RecordingTraffic`] wraps any live [`TrafficSpec`] and streams every
//!   generation event into a [`TraceWriter`] while behaving — RNG draws,
//!   windows, goldens — bit-identically to the wrapped source;
//! * [`TraceTraffic`] replays a recorded trace deterministically: it draws
//!   **nothing** from the RNG and re-injects each event at exactly the
//!   recorded `(node_cycle, src)`, so a replay run reproduces the recorded
//!   run's windows and ledgers bit for bit (pinned by
//!   `tests/trace_invariants.rs`).
//!
//! # On-disk format
//!
//! A trace is a directory: `manifest.bin` plus `chunk-NNNNNN.bin` files.
//! Chunks are written atomically ([`write_atomic`]) as they fill, so the
//! writer holds at most one chunk of events in memory regardless of trace
//! length, and the reader ([`TraceReader`]) keeps exactly one chunk resident
//! (observable via [`chunk_loads`](TraceReader::chunk_loads)). Events are
//! delta-encoded: cycles and sources as zigzag varint deltas, destinations
//! and tenant slots as plain varints — a dense uniform-load trace costs a
//! few bytes per packet. The codec is layered on the snapshot module's
//! little-endian [`SnapWriter`]/[`SnapReader`] primitives.
//!
//! # Replay determinism contract
//!
//! Replay relies on the run having the **same generation schedule** as the
//! recording: the same topology, node clock and DVFS policy trajectory
//! produce the same node-cycle batches in the same node-major order, so the
//! recorded event stream is consumed strictly in order with an O(1) head
//! match per query. Idle gaps honour the event-horizon contract
//! ([`TrafficSpec::silent_node_cycles`]): the span to the earliest pending
//! event is declared silent, so a replay of a bursty trace skips its dead
//! time. If the schedules diverge (a different frequency trajectory), events
//! whose slot has already passed are counted in
//! [`missed_events`](TraceTraffic::missed_events) instead of being silently
//! re-timed — a nonzero count means the replay is *not* a reproduction.
//!
//! ```no_run
//! use noc_sim::{
//!     NetworkConfig, NocSimulation, RecordingTraffic, SyntheticTraffic, TraceTraffic, TraceWriter,
//!     TrafficPattern,
//! };
//! use std::sync::{Arc, Mutex};
//!
//! let cfg = NetworkConfig::builder()
//!     .mesh(4, 4).virtual_channels(2).buffer_depth(4).packet_length(5)
//!     .build().unwrap();
//! let dir = std::path::Path::new("/tmp/trace-demo");
//! // Record: wrap the live source, run, finish the writer.
//! let writer = Arc::new(Mutex::new(
//!     TraceWriter::create(dir, cfg.packet_length(), 16, 4096).unwrap(),
//! ));
//! let live = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, cfg.packet_length());
//! let recording = RecordingTraffic::new(Box::new(live), Arc::clone(&writer));
//! let mut sim = NocSimulation::new(cfg.clone(), Box::new(recording), 7);
//! sim.run_cycles(10_000);
//! drop(sim);
//! writer.lock().unwrap().finish().unwrap();
//! // Replay: same config and seed, traffic from the trace.
//! let replay = TraceTraffic::open(dir).unwrap();
//! let mut sim2 = NocSimulation::new(cfg, Box::new(replay), 7);
//! sim2.run_cycles(10_000);
//! ```

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;

use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use crate::tenant::TenantMap;
use crate::topology::Topology;
use crate::traffic::TrafficSpec;

/// Magic number leading the manifest and every chunk file ("NOCTRACE").
pub const TRACE_MAGIC: u64 = 0x4E4F_4354_5241_4345;

/// Current trace format version. Bumped on any layout change; other
/// versions are rejected rather than misread.
pub const TRACE_VERSION: u32 = 1;

/// Atomic file replacement: write to a sibling temp file, then rename over
/// the destination. A crash at any instant leaves either the old complete
/// file or the new complete file — never a torn mix.
///
/// (This is the primitive the sweep coordinator's journal and checkpoints
/// are built on.)
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// One recorded injection: a packet generated at `src` on the absolute
/// node-clock cycle `node_cycle`, bound for `dst`. `tenant` is the
/// accounting slot of the source at record time (0 when no tenant map was
/// installed); packet length is uniform per trace and lives in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Absolute node-clock cycle of the generation draw.
    pub node_cycle: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Tenant accounting slot of the source when recorded.
    pub tenant: u32,
}

/// Errors opening or reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A manifest or chunk failed to decode.
    Snapshot(SnapshotError),
    /// The decoded data is structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Snapshot(e) => write!(f, "trace decode error: {e}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Snapshot(e) => Some(e),
            TraceError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<SnapshotError> for TraceError {
    fn from(e: SnapshotError) -> Self {
        TraceError::Snapshot(e)
    }
}

/// Manifest entry of one chunk: how many events it holds and the cycle
/// range they span. `min_cycle` is a true minimum (record order is
/// node-major within a generation batch, so the first event of a chunk is
/// not necessarily its earliest) — the replay source's silence bound
/// depends on that.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    events: u64,
    min_cycle: u64,
    max_cycle: u64,
}

fn chunk_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:06}.bin"))
}

fn manifest_file(dir: &Path) -> PathBuf {
    dir.join("manifest.bin")
}

// --------------------------------------------------------------------------
// Varint / zigzag codec (layered on SnapWriter / SnapReader bytes)
// --------------------------------------------------------------------------

fn put_varint(w: &mut SnapWriter, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.put_u8(byte);
            return;
        }
        w.put_u8(byte | 0x80);
    }
}

fn read_varint(r: &mut SnapReader<'_>) -> Result<u64, TraceError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.read_u8()?;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if shift == 63 && byte > 1 {
                return Err(TraceError::Corrupt("varint overflows u64"));
            }
            return Ok(v);
        }
    }
    Err(TraceError::Corrupt("varint longer than 10 bytes"))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

/// Summary returned by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events recorded.
    pub events: u64,
    /// Chunk files written.
    pub chunks: usize,
}

/// Streams trace events into a directory of atomically-written chunks plus
/// a manifest, holding at most one chunk of events in memory.
///
/// I/O errors are **latched** rather than returned per event — a recorder
/// on the simulation hot path has nowhere to put a `Result` — and surface
/// from [`finish`](Self::finish). A trace whose writer was never finished
/// has no manifest and is rejected by [`TraceReader::open`].
#[derive(Debug)]
pub struct TraceWriter {
    dir: PathBuf,
    packet_length: usize,
    node_count: usize,
    chunk_events: usize,
    buffer: Vec<TraceEvent>,
    chunks: Vec<ChunkMeta>,
    total_events: u64,
    error: Option<std::io::Error>,
    finished: bool,
}

impl TraceWriter {
    /// Creates the trace directory (and parents) and an empty writer.
    /// `chunk_events` bounds the in-memory buffer; each time it fills, one
    /// chunk file is flushed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(
        dir: impl Into<PathBuf>,
        packet_length: usize,
        node_count: usize,
        chunk_events: usize,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceWriter {
            dir,
            packet_length,
            node_count,
            chunk_events: chunk_events.max(1),
            buffer: Vec::new(),
            chunks: Vec::new(),
            total_events: 0,
            error: None,
            finished: false,
        })
    }

    /// Appends one event, flushing a chunk when the buffer fills. I/O
    /// failures are latched and reported by [`finish`](Self::finish);
    /// recording continues as a no-op after a latched error.
    pub fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() || self.finished {
            return;
        }
        self.buffer.push(event);
        self.total_events += 1;
        if self.buffer.len() >= self.chunk_events {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let index = self.chunks.len();
        let mut w = SnapWriter::new();
        w.put_u64(TRACE_MAGIC);
        w.put_u32(TRACE_VERSION);
        w.put_usize(index);
        w.put_usize(self.buffer.len());
        let mut prev_cycle = 0i64;
        let mut prev_src = 0i64;
        let mut min_cycle = u64::MAX;
        let mut max_cycle = 0u64;
        for ev in &self.buffer {
            put_varint(&mut w, zigzag(ev.node_cycle as i64 - prev_cycle));
            put_varint(&mut w, zigzag(i64::from(ev.src) - prev_src));
            put_varint(&mut w, u64::from(ev.dst));
            put_varint(&mut w, u64::from(ev.tenant));
            prev_cycle = ev.node_cycle as i64;
            prev_src = i64::from(ev.src);
            min_cycle = min_cycle.min(ev.node_cycle);
            max_cycle = max_cycle.max(ev.node_cycle);
        }
        let events = self.buffer.len() as u64;
        match write_atomic(&chunk_file(&self.dir, index), &w.into_vec()) {
            Ok(()) => {
                self.chunks.push(ChunkMeta { events, min_cycle, max_cycle });
                self.buffer.clear();
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes the final partial chunk and writes the manifest, completing
    /// the trace. Idempotent: a second call returns the same summary.
    ///
    /// # Errors
    ///
    /// Returns the first latched recording error, or the flush/manifest
    /// write failure.
    pub fn finish(&mut self) -> std::io::Result<TraceSummary> {
        if !self.finished {
            self.flush_chunk();
            if let Some(e) = self.error.take() {
                self.error = Some(std::io::Error::new(e.kind(), e.to_string()));
                return Err(e);
            }
            let mut w = SnapWriter::new();
            w.put_u64(TRACE_MAGIC);
            w.put_u32(TRACE_VERSION);
            w.put_usize(self.packet_length);
            w.put_usize(self.node_count);
            w.put_u64(self.total_events);
            w.put_usize(self.chunks.len());
            for chunk in &self.chunks {
                w.put_u64(chunk.events);
                w.put_u64(chunk.min_cycle);
                w.put_u64(chunk.max_cycle);
            }
            write_atomic(&manifest_file(&self.dir), &w.into_vec())?;
            self.finished = true;
        }
        Ok(TraceSummary { events: self.total_events, chunks: self.chunks.len() })
    }
}

// --------------------------------------------------------------------------
// Reader
// --------------------------------------------------------------------------

/// Streams a trace back, keeping exactly **one chunk resident** at a time —
/// replaying a trace larger than the chunk budget never holds more than one
/// chunk of events in memory, observable via
/// [`chunk_loads`](Self::chunk_loads).
#[derive(Debug)]
pub struct TraceReader {
    dir: PathBuf,
    packet_length: usize,
    node_count: usize,
    total_events: u64,
    chunks: Vec<ChunkMeta>,
    /// `meta_min_suffix[i]` = min of `chunks[i..].min_cycle` (`u64::MAX`
    /// past the end) — the earliest cycle any not-yet-loaded chunk holds.
    meta_min_suffix: Vec<u64>,
    /// The resident chunk's events, in record order.
    current: Vec<TraceEvent>,
    /// `current_min_suffix[i]` = min cycle over `current[i..]`.
    current_min_suffix: Vec<u64>,
    /// Index of the resident chunk; `usize::MAX` before the first load.
    current_chunk: usize,
    /// Read position inside the resident chunk.
    pos: usize,
    /// Events consumed in chunks before the resident one.
    consumed_before: u64,
    chunk_loads: u64,
}

impl TraceReader {
    /// Opens a finished trace directory by reading its manifest.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the manifest is unreadable (in particular for
    /// a trace whose writer never [`finish`](TraceWriter::finish)ed),
    /// [`TraceError::Snapshot`] / [`TraceError::Corrupt`] when it does not
    /// decode.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let dir = dir.into();
        let bytes = std::fs::read(manifest_file(&dir))?;
        let mut r = SnapReader::new(&bytes);
        if r.read_u64()? != TRACE_MAGIC {
            return Err(TraceError::Corrupt("manifest magic"));
        }
        let version = r.read_u32()?;
        if version != TRACE_VERSION {
            return Err(TraceError::Corrupt("unsupported trace version"));
        }
        let packet_length = r.read_usize()?;
        if packet_length == 0 {
            return Err(TraceError::Corrupt("zero packet length"));
        }
        let node_count = r.read_usize()?;
        let total_events = r.read_u64()?;
        let chunk_count = r.read_usize()?;
        let mut chunks = Vec::with_capacity(chunk_count.min(1 << 20));
        let mut sum = 0u64;
        for _ in 0..chunk_count {
            let meta = ChunkMeta {
                events: r.read_u64()?,
                min_cycle: r.read_u64()?,
                max_cycle: r.read_u64()?,
            };
            if meta.events == 0 {
                return Err(TraceError::Corrupt("empty chunk in manifest"));
            }
            sum += meta.events;
            chunks.push(meta);
        }
        r.finish()?;
        if sum != total_events {
            return Err(TraceError::Corrupt("manifest event count mismatch"));
        }
        let mut meta_min_suffix = vec![u64::MAX; chunks.len() + 1];
        for (i, chunk) in chunks.iter().enumerate().rev() {
            meta_min_suffix[i] = chunk.min_cycle.min(meta_min_suffix[i + 1]);
        }
        Ok(TraceReader {
            dir,
            packet_length,
            node_count,
            total_events,
            chunks,
            meta_min_suffix,
            current: Vec::new(),
            current_min_suffix: Vec::new(),
            current_chunk: usize::MAX,
            pos: 0,
            consumed_before: 0,
            chunk_loads: 0,
        })
    }

    /// Uniform packet length of every recorded event (from the manifest).
    pub fn packet_length(&self) -> usize {
        self.packet_length
    }

    /// Node count of the recorded network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total events in the trace.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Chunk files decoded so far — the memory-bound observable: a full
    /// sequential read of an `n`-chunk trace costs exactly `n` loads.
    pub fn chunk_loads(&self) -> u64 {
        self.chunk_loads
    }

    /// Events already consumed via [`next`](Self::next).
    pub fn consumed(&self) -> u64 {
        self.consumed_before + self.pos as u64
    }

    fn load_chunk(&mut self, index: usize) -> Result<(), TraceError> {
        let meta = self.chunks[index];
        let bytes = std::fs::read(chunk_file(&self.dir, index))?;
        let mut r = SnapReader::new(&bytes);
        if r.read_u64()? != TRACE_MAGIC {
            return Err(TraceError::Corrupt("chunk magic"));
        }
        if r.read_u32()? != TRACE_VERSION {
            return Err(TraceError::Corrupt("unsupported trace version"));
        }
        if r.read_usize()? != index {
            return Err(TraceError::Corrupt("chunk index mismatch"));
        }
        let events = r.read_usize()?;
        if events as u64 != meta.events {
            return Err(TraceError::Corrupt("chunk event count mismatch"));
        }
        self.current.clear();
        self.current.reserve(events);
        let mut prev_cycle = 0i64;
        let mut prev_src = 0i64;
        for _ in 0..events {
            let cycle = prev_cycle
                .checked_add(unzigzag(read_varint(&mut r)?))
                .filter(|&c| c >= 0)
                .ok_or(TraceError::Corrupt("cycle delta out of range"))?;
            let src = prev_src
                .checked_add(unzigzag(read_varint(&mut r)?))
                .filter(|&s| (0..=i64::from(u32::MAX)).contains(&s))
                .ok_or(TraceError::Corrupt("source delta out of range"))?;
            let dst = u32::try_from(read_varint(&mut r)?)
                .map_err(|_| TraceError::Corrupt("destination out of range"))?;
            let tenant = u32::try_from(read_varint(&mut r)?)
                .map_err(|_| TraceError::Corrupt("tenant slot out of range"))?;
            self.current.push(TraceEvent {
                node_cycle: cycle as u64,
                src: src as u32,
                dst,
                tenant,
            });
            prev_cycle = cycle;
            prev_src = src;
        }
        r.finish()?;
        self.current_min_suffix.clear();
        self.current_min_suffix.resize(events + 1, u64::MAX);
        for i in (0..events).rev() {
            self.current_min_suffix[i] =
                self.current[i].node_cycle.min(self.current_min_suffix[i + 1]);
        }
        if self.current_min_suffix.first().copied().unwrap_or(u64::MAX) != meta.min_cycle {
            return Err(TraceError::Corrupt("chunk cycle range mismatch"));
        }
        self.current_chunk = index;
        self.pos = 0;
        self.chunk_loads += 1;
        Ok(())
    }

    /// Returns the next event in record order, or `None` at the end of the
    /// trace.
    ///
    /// # Errors
    ///
    /// Chunk read/decode failures.
    // Not `Iterator`: the fallible `Result<Option<_>>` shape (and `seek`)
    // is the point of this reader; an `Iterator` face would bury errors.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        while self.pos >= self.current.len() {
            let next_chunk =
                if self.current_chunk == usize::MAX { 0 } else { self.current_chunk + 1 };
            if next_chunk >= self.chunks.len() {
                return Ok(None);
            }
            self.consumed_before += self.current.len() as u64;
            self.load_chunk(next_chunk)?;
        }
        let ev = self.current[self.pos];
        self.pos += 1;
        Ok(Some(ev))
    }

    /// The earliest node cycle among the not-yet-consumed events, or
    /// `u64::MAX` when the trace is exhausted. Exact — chunk manifests carry
    /// true minima, so unloaded chunks need no decode.
    pub fn min_pending_cycle(&self) -> u64 {
        let in_current = self.current_min_suffix.get(self.pos).copied().unwrap_or(u64::MAX);
        let next_chunk = if self.current_chunk == usize::MAX {
            0
        } else {
            self.current_chunk + 1
        };
        in_current.min(self.meta_min_suffix.get(next_chunk).copied().unwrap_or(u64::MAX))
    }

    /// Repositions the cursor so that exactly `consumed` events precede it
    /// (loading the containing chunk) — checkpoint-restore support for
    /// [`TraceTraffic`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] when `consumed` exceeds the trace length;
    /// chunk read failures.
    pub fn seek(&mut self, consumed: u64) -> Result<(), TraceError> {
        if consumed > self.total_events {
            return Err(TraceError::Corrupt("seek past end of trace"));
        }
        let mut before = 0u64;
        for index in 0..self.chunks.len() {
            let events = self.chunks[index].events;
            if consumed < before + events {
                if self.current_chunk != index {
                    self.load_chunk(index)?;
                }
                self.pos = (consumed - before) as usize;
                self.consumed_before = before;
                return Ok(());
            }
            before += events;
        }
        // Exactly at the end: park on an empty resident chunk.
        self.current.clear();
        self.current_min_suffix.clear();
        self.current_chunk = self.chunks.len().saturating_sub(1);
        if self.chunks.is_empty() {
            self.current_chunk = usize::MAX;
        }
        self.pos = 0;
        self.consumed_before = consumed;
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Recording traffic
// --------------------------------------------------------------------------

/// Wraps a live [`TrafficSpec`] and records every generation event into a
/// shared [`TraceWriter`] handle, while delegating every trait method to
/// the wrapped source — the recorded run is bit-identical to an unrecorded
/// one.
///
/// The writer travels behind `Arc<Mutex<…>>` because the simulation takes
/// ownership of its traffic box: keep a clone of the handle and call
/// [`TraceWriter::finish`] on it after the run.
#[derive(Debug)]
pub struct RecordingTraffic {
    inner: Box<dyn TrafficSpec>,
    writer: Arc<Mutex<TraceWriter>>,
    /// `node → tenant slot` table stamped into events (0 for every node
    /// when recording without a tenant map).
    tenant_slots: Option<Vec<u32>>,
}

impl RecordingTraffic {
    /// Wraps `inner`, recording into `writer`.
    pub fn new(inner: Box<dyn TrafficSpec>, writer: Arc<Mutex<TraceWriter>>) -> Self {
        RecordingTraffic { inner, writer, tenant_slots: None }
    }

    /// Stamps each recorded event with the source node's accounting slot
    /// from `map` (mirror of the partition installed via
    /// [`NocSimulation::set_tenant_map`](crate::NocSimulation::set_tenant_map)).
    #[must_use]
    pub fn with_tenants(mut self, map: &TenantMap) -> Self {
        self.tenant_slots = Some(map.assignments().to_vec());
        self
    }
}

impl TrafficSpec for RecordingTraffic {
    fn packet_length(&self) -> usize {
        self.inner.packet_length()
    }

    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }

    fn maybe_generate(
        &mut self,
        src: usize,
        node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        let dst = self.inner.maybe_generate(src, node_cycle, topo, rng)?;
        let tenant = self.tenant_slots.as_ref().map_or(0, |slots| slots[src]);
        self.writer.lock().expect("trace writer poisoned").record(TraceEvent {
            node_cycle,
            src: src as u32,
            dst: dst as u32,
            tenant,
        });
        Some(dst)
    }

    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        topo: &Topology,
        rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        let RecordingTraffic { inner, writer, tenant_slots } = self;
        // Locked by the tick's first packet and held to its end: a tick that
        // generates nothing never touches the mutex.
        let mut locked = None;
        inner.generate_tick(
            nodes,
            start_node_cycle,
            node_cycles,
            topo,
            rng,
            &mut |src, node_cycle, dst| {
                let tenant = tenant_slots.as_ref().map_or(0, |slots| slots[src]);
                locked
                    .get_or_insert_with(|| writer.lock().expect("trace writer poisoned"))
                    .record(TraceEvent { node_cycle, src: src as u32, dst: dst as u32, tenant });
                emit(src, node_cycle, dst);
            },
        );
    }

    fn silent_node_cycles(&self, from_node_cycle: u64) -> u64 {
        self.inner.silent_node_cycles(from_node_cycle)
    }

    fn skip_node_cycles(&mut self, node_cycles: u64) {
        self.inner.skip_node_cycles(node_cycles);
    }

    // Checkpoint state delegates to the wrapped source; the trace file
    // position is deliberately not part of it — a restored run re-records
    // from its resume point into whatever writer it is handed.
    fn save_extra_state(&self, out: &mut Vec<u8>) {
        self.inner.save_extra_state(out);
    }

    fn load_extra_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.load_extra_state(bytes)
    }
}

// --------------------------------------------------------------------------
// Replay traffic
// --------------------------------------------------------------------------

/// Replays a recorded trace as a [`TrafficSpec`]: each event re-injects at
/// exactly its recorded `(node_cycle, src)`, no RNG is drawn, and idle gaps
/// are declared silent so the event-horizon engine skips them. Its
/// [`generate_tick`](TrafficSpec::generate_tick) walks the recorded events
/// inside the batch, not every node and node cycle of it.
///
/// The determinism contract is in the `trace` module docs;
/// [`missed_events`](Self::missed_events) counts events whose slot passed
/// without a matching query (schedule divergence).
#[derive(Debug)]
pub struct TraceTraffic {
    reader: TraceReader,
    /// The next unmatched event, in record order.
    head: Option<TraceEvent>,
    offered_load: f64,
    /// Source of the previous query — a drop marks a new generation batch.
    last_src: usize,
    /// Cycles strictly below this bound can no longer be queried; a head
    /// below it is a missed event.
    completed_through: u64,
    missed: u64,
    replayed: u64,
    error: Option<TraceError>,
}

impl TraceTraffic {
    /// Opens a finished trace for replay.
    ///
    /// # Errors
    ///
    /// Everything [`TraceReader::open`] raises, plus decode failures of the
    /// first chunk.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let mut reader = TraceReader::open(dir)?;
        let head = reader.next()?;
        let span_cycles = reader.chunks.iter().map(|c| c.max_cycle + 1).max().unwrap_or(0);
        let offered_load = if span_cycles == 0 || reader.node_count == 0 {
            0.0
        } else {
            (reader.total_events * reader.packet_length as u64) as f64
                / (span_cycles as f64 * reader.node_count as f64)
        };
        Ok(TraceTraffic {
            reader,
            head,
            offered_load,
            last_src: usize::MAX,
            completed_through: 0,
            missed: 0,
            replayed: 0,
            error: None,
        })
    }

    /// Events re-injected so far.
    pub fn events_replayed(&self) -> u64 {
        self.replayed
    }

    /// Events not yet re-injected (or missed).
    pub fn events_pending(&self) -> u64 {
        self.reader.total_events() - self.replayed - self.missed
    }

    /// Events whose recorded slot passed without a matching generation
    /// query. Nonzero means the replay run's generation schedule diverged
    /// from the recording (different clock trajectory) — the replay is then
    /// not a bit-exact reproduction.
    pub fn missed_events(&self) -> u64 {
        self.missed
    }

    /// Chunk files decoded so far (see [`TraceReader::chunk_loads`]).
    pub fn chunk_loads(&self) -> u64 {
        self.reader.chunk_loads()
    }

    /// Node count of the recorded network (the replay network must match).
    pub fn node_count(&self) -> usize {
        self.reader.node_count()
    }

    /// A chunk read/decode error encountered mid-replay, if any. Replay
    /// treats a failed chunk load as end-of-trace rather than panicking on
    /// the simulation hot path; check this after the run.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    fn advance_head(&mut self) {
        self.head = match self.reader.next() {
            Ok(head) => head,
            Err(e) => {
                self.error = Some(e);
                None
            }
        };
    }

    /// Counts the events whose slot has passed as missed and moves past them.
    fn drop_missed(&mut self) {
        while self.head.is_some_and(|head| head.node_cycle < self.completed_through) {
            self.missed += 1;
            self.advance_head();
        }
    }
}

impl TrafficSpec for TraceTraffic {
    fn packet_length(&self) -> usize {
        self.reader.packet_length()
    }

    fn offered_load(&self) -> f64 {
        self.offered_load
    }

    fn maybe_generate(
        &mut self,
        src: usize,
        node_cycle: u64,
        _topo: &Topology,
        _rng: &mut StdRng,
    ) -> Option<usize> {
        // Queries sweep nodes in ascending order within a generation batch,
        // so a source drop marks a batch boundary: the new batch starts at
        // this query's cycle, and every earlier cycle is complete.
        if src < self.last_src {
            self.completed_through = node_cycle;
        }
        self.last_src = src;
        self.drop_missed();
        match self.head {
            Some(head) if head.node_cycle == node_cycle && head.src as usize == src => {
                self.replayed += 1;
                self.advance_head();
                Some(head.dst as usize)
            }
            _ => None,
        }
    }

    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        _topo: &Topology,
        _rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        // The default body's sweep, visiting only the queries that can
        // match: a query compares against the head alone, so the next match
        // is the head's own slot if that slot is still ahead in this batch.
        if nodes == 0 || node_cycles == 0 {
            return;
        }
        let end = start_node_cycle + node_cycles;
        // The first query, node 0, opens a new batch unless the previous
        // query was node 0 as well (a one-node fabric).
        if self.last_src > 0 {
            self.completed_through = start_node_cycle;
        }
        self.last_src = nodes - 1;
        let last_query = (nodes - 1, end - 1);
        // The next query of the sweep, in its (node, cycle) order.
        let mut next = (0, start_node_cycle);
        loop {
            self.drop_missed();
            let Some(head) = self.head else { break };
            let slot = (head.src as usize, head.node_cycle);
            if slot.0 >= nodes || !(start_node_cycle..end).contains(&slot.1) || slot < next {
                break;
            }
            self.replayed += 1;
            self.advance_head();
            emit(slot.0, slot.1, head.dst as usize);
            if slot == last_query {
                // No query follows, so none drops a missed event.
                break;
            }
            next = (slot.0, slot.1 + 1);
        }
    }

    fn silent_node_cycles(&self, from_node_cycle: u64) -> u64 {
        // Exact silence bound: nothing can generate before the earliest
        // pending event (replay draws no RNG at all, so every event-free
        // node cycle is silent).
        let earliest = self
            .head
            .map_or(u64::MAX, |h| h.node_cycle)
            .min(self.reader.min_pending_cycle());
        if earliest == u64::MAX {
            return u64::MAX;
        }
        earliest.saturating_sub(from_node_cycle)
    }

    // The default `skip_node_cycles` no-op is correct: matching is on
    // absolute cycles, so skipped spans need no positional catch-up.

    fn save_extra_state(&self, out: &mut Vec<u8>) {
        let mut w = SnapWriter::new();
        w.put_u64(self.reader.consumed());
        w.put_u64(self.replayed);
        w.put_u64(self.missed);
        w.put_u64(self.completed_through);
        w.put_opt_u64((self.last_src != usize::MAX).then_some(self.last_src as u64));
        w.put_bool(self.head.is_some());
        if let Some(h) = self.head {
            w.put_u64(h.node_cycle);
            w.put_u32(h.src);
            w.put_u32(h.dst);
            w.put_u32(h.tenant);
        }
        out.extend_from_slice(&w.into_vec());
    }

    fn load_extra_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = SnapReader::new(bytes);
        let Ok(consumed) = r.read_u64() else { return false };
        let Ok(replayed) = r.read_u64() else { return false };
        let Ok(missed) = r.read_u64() else { return false };
        let Ok(completed_through) = r.read_u64() else { return false };
        let Ok(last_src) = r.read_opt_u64() else { return false };
        let Ok(has_head) = r.read_bool() else { return false };
        let head = if has_head {
            let (Ok(node_cycle), Ok(src), Ok(dst), Ok(tenant)) =
                (r.read_u64(), r.read_u32(), r.read_u32(), r.read_u32())
            else {
                return false;
            };
            Some(TraceEvent { node_cycle, src, dst, tenant })
        } else {
            None
        };
        if r.finish().is_err() {
            return false;
        }
        if self.reader.seek(consumed).is_err() {
            return false;
        }
        self.replayed = replayed;
        self.missed = missed;
        self.completed_through = completed_through;
        self.last_src = last_src.map_or(usize::MAX, |s| s as usize);
        self.head = head;
        self.error = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-trace-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event(node_cycle: u64, src: u32, dst: u32, tenant: u32) -> TraceEvent {
        TraceEvent { node_cycle, src, dst, tenant }
    }

    #[test]
    fn varints_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut w = SnapWriter::new();
        for &v in &values {
            put_varint(&mut w, v);
        }
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_varint(&mut r).unwrap(), v);
        }
        r.finish().unwrap();
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn write_read_round_trip_across_chunks() {
        let dir = tmpdir("roundtrip");
        let mut writer = TraceWriter::create(&dir, 5, 16, 4).unwrap();
        // 11 events over a 3-cycle batch pattern — crosses two chunk
        // boundaries with a 4-event chunk budget.
        let mut events = Vec::new();
        for batch in 0..4u64 {
            for src in 0..3u32 {
                if (batch + u64::from(src)) % 2 == 0 {
                    events.push(event(batch * 10 + u64::from(src % 2), src, src + 1, src % 2));
                }
            }
        }
        for &ev in &events {
            writer.record(ev);
        }
        let summary = writer.finish().unwrap();
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.chunks, events.len().div_ceil(4));

        let mut reader = TraceReader::open(&dir).unwrap();
        assert_eq!(reader.packet_length(), 5);
        assert_eq!(reader.node_count(), 16);
        assert_eq!(reader.total_events(), events.len() as u64);
        let mut back = Vec::new();
        while let Some(ev) = reader.next().unwrap() {
            back.push(ev);
        }
        assert_eq!(back, events);
        assert_eq!(reader.chunk_loads(), summary.chunks as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_is_idempotent_and_unfinished_traces_do_not_open() {
        let dir = tmpdir("finish");
        let mut writer = TraceWriter::create(&dir, 5, 4, 8).unwrap();
        writer.record(event(3, 1, 2, 0));
        assert!(TraceReader::open(&dir).is_err(), "no manifest before finish");
        let a = writer.finish().unwrap();
        let b = writer.finish().unwrap();
        assert_eq!(a, b);
        assert_eq!(TraceReader::open(&dir).unwrap().total_events(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn min_pending_cycle_is_exact_across_chunks() {
        let dir = tmpdir("minpending");
        let mut writer = TraceWriter::create(&dir, 5, 4, 2).unwrap();
        // Record order is batch-major: cycles within a chunk are not
        // sorted; chunk 1 holds an earlier cycle (7) than chunk 0's last.
        for &ev in
            &[event(5, 0, 1, 0), event(9, 1, 2, 0), event(7, 2, 3, 0), event(12, 0, 3, 0)]
        {
            writer.record(ev);
        }
        writer.finish().unwrap();
        let mut reader = TraceReader::open(&dir).unwrap();
        assert_eq!(reader.min_pending_cycle(), 5);
        reader.next().unwrap();
        assert_eq!(reader.min_pending_cycle(), 7, "chunk-1 minimum, not chunk-0 order");
        reader.next().unwrap();
        assert_eq!(reader.min_pending_cycle(), 7);
        reader.next().unwrap();
        assert_eq!(reader.min_pending_cycle(), 12);
        reader.next().unwrap();
        assert_eq!(reader.min_pending_cycle(), u64::MAX);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seek_lands_on_the_right_event() {
        let dir = tmpdir("seek");
        let mut writer = TraceWriter::create(&dir, 5, 4, 3).unwrap();
        let events: Vec<TraceEvent> =
            (0..10).map(|i| event(i * 2, (i % 4) as u32, ((i + 1) % 4) as u32, 0)).collect();
        for &ev in &events {
            writer.record(ev);
        }
        writer.finish().unwrap();
        let mut reader = TraceReader::open(&dir).unwrap();
        for &target in &[7u64, 0, 9, 3, 10] {
            reader.seek(target).unwrap();
            assert_eq!(reader.consumed(), target);
            assert_eq!(reader.next().unwrap(), events.get(target as usize).copied());
        }
        assert!(reader.seek(11).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_chunks_are_rejected() {
        let dir = tmpdir("corrupt");
        let mut writer = TraceWriter::create(&dir, 5, 4, 8).unwrap();
        writer.record(event(3, 1, 2, 0));
        writer.record(event(4, 2, 3, 1));
        writer.finish().unwrap();
        // Truncate the chunk: decode must fail, not panic or misread.
        let chunk = chunk_file(&dir, 0);
        let bytes = std::fs::read(&chunk).unwrap();
        std::fs::write(&chunk, &bytes[..bytes.len() - 1]).unwrap();
        let mut reader = TraceReader::open(&dir).unwrap();
        assert!(reader.next().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_matches_heads_and_counts_misses() {
        let dir = tmpdir("replay");
        let mut writer = TraceWriter::create(&dir, 5, 4, 8).unwrap();
        for &ev in &[event(2, 1, 3, 0), event(5, 0, 2, 0), event(5, 2, 0, 0)] {
            writer.record(ev);
        }
        writer.finish().unwrap();
        let mut replay = TraceTraffic::open(&dir).unwrap();
        let topo = Topology::mesh(2, 2);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        // Cycle 0..2: silent.
        assert_eq!(replay.silent_node_cycles(0), 2);
        // Batch at cycle 2: only src 1 fires.
        for src in 0..4 {
            let got = replay.maybe_generate(src, 2, &topo, &mut rng);
            assert_eq!(got, (src == 1).then_some(3));
        }
        assert_eq!(replay.silent_node_cycles(3), 2);
        // Batch at cycle 5: src 0 and src 2 fire.
        for src in 0..4 {
            let got = replay.maybe_generate(src, 5, &topo, &mut rng);
            let want = match src {
                0 => Some(2),
                2 => Some(0),
                _ => None,
            };
            assert_eq!(got, want);
        }
        assert_eq!(replay.events_replayed(), 3);
        assert_eq!(replay.events_pending(), 0);
        assert_eq!(replay.missed_events(), 0);
        assert_eq!(replay.silent_node_cycles(6), u64::MAX);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_divergence_is_counted_not_retimed() {
        let dir = tmpdir("diverge");
        let mut writer = TraceWriter::create(&dir, 5, 4, 8).unwrap();
        writer.record(event(2, 1, 3, 0));
        writer.record(event(6, 2, 0, 0));
        writer.finish().unwrap();
        let mut replay = TraceTraffic::open(&dir).unwrap();
        let topo = Topology::mesh(2, 2);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        // The replay run's schedule jumps straight to cycle 4: the cycle-2
        // event's slot has passed once the cycle-4 batch starts.
        for src in 0..4 {
            assert_eq!(replay.maybe_generate(src, 4, &topo, &mut rng), None);
        }
        assert_eq!(replay.missed_events(), 1);
        // The cycle-6 event still replays on time.
        for src in 0..4 {
            let got = replay.maybe_generate(src, 6, &topo, &mut rng);
            assert_eq!(got, (src == 2).then_some(0));
        }
        assert_eq!(replay.missed_events(), 1);
        assert_eq!(replay.events_replayed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_state_checkpoints_and_restores() {
        let dir = tmpdir("ckpt");
        let mut writer = TraceWriter::create(&dir, 5, 4, 2).unwrap();
        for i in 0..6u64 {
            writer.record(event(i * 3, (i % 4) as u32, ((i + 1) % 4) as u32, 0));
        }
        writer.finish().unwrap();
        let topo = Topology::mesh(2, 2);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut replay = TraceTraffic::open(&dir).unwrap();
        for src in 0..4 {
            replay.maybe_generate(src, 0, &topo, &mut rng);
            replay.maybe_generate(src, 3, &topo, &mut rng);
        }
        let mut blob = Vec::new();
        replay.save_extra_state(&mut blob);
        let mut restored = TraceTraffic::open(&dir).unwrap();
        assert!(restored.load_extra_state(&blob));
        assert_eq!(restored.events_replayed(), replay.events_replayed());
        // Both continue identically.
        for cycle in [6u64, 9, 12, 15] {
            for src in 0..4 {
                assert_eq!(
                    replay.maybe_generate(src, cycle, &topo, &mut rng),
                    restored.maybe_generate(src, cycle, &topo, &mut rng),
                );
            }
        }
        assert_eq!(replay.events_pending(), 0);
        assert_eq!(restored.events_pending(), 0);
        assert!(!restored.load_extra_state(&[1, 2, 3]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_generation_matches_the_per_call_definition() {
        use crate::traffic::batch_contract::{
            assert_batched_matches_per_call, cases, schedule, topologies,
        };
        let read_all = |dir: &PathBuf| {
            let mut reader = TraceReader::open(dir).unwrap();
            std::iter::from_fn(|| reader.next().unwrap()).collect::<Vec<_>>()
        };
        let (dir, dir_ref) = (tmpdir("batched"), tmpdir("batched-ref"));
        for topo in topologies() {
            // Slots differ between neighbours so a misattributed event shows.
            let owners = (0..topo.node_count()).map(|node| Some((node % 3) as u32)).collect();
            let tenants = TenantMap::new(owners, 3).unwrap();
            let nodes = topo.node_count();
            for ((case, inner), (_, inner_ref)) in cases(&topo).into_iter().zip(cases(&topo)) {
                let record = |inner: Box<dyn TrafficSpec>, dir: &PathBuf| {
                    let writer = TraceWriter::create(dir, inner.packet_length(), nodes, 512);
                    let writer = Arc::new(Mutex::new(writer.unwrap()));
                    (RecordingTraffic::new(inner, writer.clone()).with_tenants(&tenants), writer)
                };
                let (mut batched, writer) = record(inner, &dir);
                let (reference, writer_ref) = record(inner_ref, &dir_ref);
                let case = format!("recording {case}");
                let reference = Box::new(reference);
                let packets =
                    assert_batched_matches_per_call(&mut batched, reference, &topo, nodes, &case);
                writer.lock().unwrap().finish().unwrap();
                writer_ref.lock().unwrap().finish().unwrap();
                let events = read_all(&dir);
                assert_eq!(events.len(), packets, "{case}: one event per packet");
                assert_eq!(events, read_all(&dir_ref), "{case}: recorded events");
            }
        }

        // Replay: the override walks only the recorded events of a batch.
        let topo = Topology::mesh(4, 4);
        let faithful = recorded(&topo, schedule());
        let gaps = recorded(
            &topo,
            schedule().filter(|&(start, _)| {
                start < 200 || (1_500..1_600).contains(&start) || start >= 3_100
            }),
        );
        // Two events out of sweep order, and one whose slot passed long ago.
        let mut out_of_order = faithful.clone();
        out_of_order.swap(faithful.len() / 2, faithful.len() / 2 + 1);
        out_of_order.insert(faithful.len() / 4, event(10, 1, 2, 0));
        // A match on a batch's last query, then an event whose slot has
        // passed: no query follows in the batch, so it is dropped at the next.
        let last_queries = schedule()
            .filter(|&(_, node_cycles)| node_cycles > 0)
            .step_by(5)
            .flat_map(|(start, n)| {
                [event(start + n - 1, 15, 3, 0), event(start.max(1) - 1, 0, 3, 0)]
            })
            .collect();
        // Recorded one node cycle per tick, replayed on up to three.
        let diverged = recorded(&topo, (0..3_200).map(|cycle| (cycle, 1)));
        // One node: no query ever opens a batch after the first, so the
        // stale event blocks every later one and none counts as missed.
        let mut one_node: Vec<TraceEvent> =
            (0..3_200).step_by(7).map(|cycle| event(cycle, 0, 1, 0)).collect();
        one_node.insert(one_node.len() / 2, event(5, 0, 1, 0));
        let replays = [
            ("long gaps", 16, gaps, false),
            ("events out of order", 16, out_of_order, true),
            ("matches on a batch's last query", 16, last_queries, true),
            ("a diverged clock", 16, diverged, true),
            ("one node", 1, one_node, false),
        ];
        for (case, nodes, events, misses) in replays {
            let case = format!("replay with {case}");
            let _ = std::fs::remove_dir_all(&dir);
            let mut writer = TraceWriter::create(&dir, 4, nodes, 64).unwrap();
            events.iter().for_each(|&ev| writer.record(ev));
            writer.finish().unwrap();
            let mut batched = TraceTraffic::open(&dir).unwrap();
            let reference = Box::new(TraceTraffic::open(&dir).unwrap());
            let packets =
                assert_batched_matches_per_call(&mut batched, reference, &topo, nodes, &case);
            assert!(packets > 0, "{case}: nothing replayed");
            assert_eq!(batched.missed_events() > 0, misses, "{case}: missed events");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_ref);
    }

    /// The trace a recording of a busy uniform source writes when the
    /// engine's ticks cover `batches` (start node cycle, node cycles).
    fn recorded(topo: &Topology, batches: impl Iterator<Item = (u64, u64)>) -> Vec<TraceEvent> {
        use crate::traffic::{SyntheticTraffic, TrafficPattern};
        let mut live = SyntheticTraffic::new(TrafficPattern::Uniform, 0.3, 4);
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let mut events = Vec::new();
        for (start, node_cycles) in batches {
            let nodes = topo.node_count();
            live.generate_tick(nodes, start, node_cycles, topo, &mut rng, &mut |src, cycle, dst| {
                events.push(event(cycle, src as u32, dst as u32, 0))
            });
        }
        events
    }
}
