//! Versioned full-fidelity simulation checkpoints.
//!
//! A [`SimSnapshot`] captures **every piece of mutable simulation state** —
//! router pipelines and VC buffers, the flits and credits in flight,
//! source/sink queues and counters, all RNG streams (traffic and hazard), the
//! dual clock and per-island accumulators, gating state machines and timers,
//! the fault-process position, and the in-progress stats windows — as a
//! self-describing binary blob with a magic/version/config-fingerprint
//! header.
//!
//! The contract is **bit-identity**: a run paused with
//! [`NocSimulation::snapshot`](crate::NocSimulation::snapshot) and later
//! resumed with [`NocSimulation::restore`](crate::NocSimulation::restore)
//! produces exactly the windows, counters and RNG draws of a run that never
//! paused — with event-horizon skipping on or off, serial or with island
//! workers.
//!
//! What is deliberately **not** serialized:
//!
//! * Configuration-derived structure (topology, neighbour tables, island
//!   masks, channel latencies): a snapshot restores **into a simulation
//!   built from the same [`NetworkConfig`]**; the header carries a config
//!   fingerprint and restore fails with [`SnapshotError::ConfigMismatch`]
//!   when it disagrees.
//! * Engine-mode settings (event skipping, parallel islands) and the
//!   `skipped_cycles` diagnostic: they are properties of the *host*
//!   process, not of the simulated state — the bit-identity contract makes
//!   them interchangeable.
//! * Derived acceleration state (the worklists): rebuilt from the restored
//!   ground truth, then checked with the rest of the restored state by
//!   [`NocSimulation::check_invariants`](crate::NocSimulation::check_invariants).
//!
//! The payload encoding is a hand-rolled little-endian binary codec
//! ([`SnapWriter`] / [`SnapReader`]). Floats travel as raw IEEE-754 bits,
//! which is what makes the restored clock/accumulator arithmetic bit-exact.

use std::fmt;

use crate::config::NetworkConfig;

/// Magic number leading every serialized snapshot ("NOCSNAP" padded).
pub const SNAP_MAGIC: u64 = 0x4E4F_4353_4E41_5031;

/// Current snapshot format version. Bumped on any layout change; old
/// versions are rejected rather than misread. Version 2 added the tenant
/// accounting section (partition map + per-tenant windows). Version 3 writes
/// what the engine holds: one record per queued packet in the source
/// section, each in-flight wheel once in due-then-send order in the channel
/// section, and a header fingerprint over an ordered field encoding of the
/// configuration.
pub const SNAP_VERSION: u32 = 3;

/// Errors raised while decoding or applying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The byte stream ended before the expected field.
    UnexpectedEof,
    /// The leading magic number is wrong — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an unknown (newer or retired) format
    /// version.
    UnsupportedVersion(u32),
    /// The snapshot was taken from a simulation built with a different
    /// [`NetworkConfig`] than the one being restored into.
    ConfigMismatch,
    /// A decoded value is structurally impossible (bad tag, out-of-range
    /// index, inconsistent length).
    Corrupt(&'static str),
    /// Decoding finished with unread bytes left over.
    TrailingBytes,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of data"),
            SnapshotError::BadMagic => write!(f, "not a simulation snapshot (bad magic number)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (expected {SNAP_VERSION})")
            }
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different network configuration")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapshotError::TrailingBytes => write!(f, "snapshot has trailing bytes after decode"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A serialized simulation checkpoint.
///
/// Produced by [`NocSimulation::snapshot`](crate::NocSimulation::snapshot);
/// consumed by [`NocSimulation::restore`](crate::NocSimulation::restore).
/// The byte form ([`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes)) is what a checkpoint file contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    version: u32,
    config_fingerprint: u64,
    payload: Vec<u8>,
}

impl SimSnapshot {
    /// Wraps a freshly encoded payload under the current format version.
    pub(crate) fn new(config_fingerprint: u64, payload: Vec<u8>) -> Self {
        SimSnapshot { version: SNAP_VERSION, config_fingerprint, payload }
    }

    /// Format version this snapshot was written under.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Fingerprint of the [`NetworkConfig`] the snapshot belongs to.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Borrow of the raw state payload (header excluded).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Size of the state payload in bytes (header excluded) — useful for
    /// overhead accounting and for locating the payload inside
    /// [`to_bytes`](Self::to_bytes) output.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Serializes the snapshot (header + payload) into a byte vector
    /// suitable for writing to a checkpoint file.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.payload.len());
        out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a snapshot previously produced by [`to_bytes`](Self::to_bytes),
    /// validating magic, version and payload length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        if r.read_u64()? != SNAP_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.read_u32()?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config_fingerprint = r.read_u64()?;
        let len = r.read_u64()? as usize;
        let payload = r.read_bytes(len)?.to_vec();
        r.finish()?;
        Ok(SimSnapshot { version, config_fingerprint, payload })
    }
}

/// FNV-1a fingerprint of a [`NetworkConfig`], used to reject restores into
/// a differently configured simulation.
///
/// The hash runs over the ordered field encoding the configuration writes of
/// itself (`NetworkConfig::encode_fields`), which destructures every
/// configuration type exhaustively: a new knob does not compile until it is
/// hashed, and no `Debug` rendering is part of the file format.
pub fn config_fingerprint(cfg: &NetworkConfig) -> u64 {
    let mut fields = SnapWriter::new();
    cfg.encode_fields(&mut fields);
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in fields.into_vec() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Little-endian binary encoder for snapshot payloads.
///
/// Each stateful module writes its own fields through this writer; the
/// driver brackets sections with [`put_tag`](Self::put_tag) markers so a
/// desynchronised decode fails loudly instead of misinterpreting bytes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (the format is 64-bit on every
    /// host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern, preserving the
    /// value exactly (including signed zeros and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a section marker byte; [`SnapReader::expect_tag`] checks it.
    pub fn put_tag(&mut self, tag: u8) {
        self.put_u8(tag);
    }
}

/// Little-endian binary decoder for snapshot payloads.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Reads `n` raw bytes; an `n` past the end of the data is a truncation,
    /// not an allocation.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(SnapshotError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.read_bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`], rejecting
    /// values that do not fit the host width.
    pub fn read_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.read_u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads a boolean byte, rejecting anything other than 0 or 1.
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("boolean byte")),
        }
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads an `Option<u64>` written by [`SnapWriter::put_opt_u64`].
    pub fn read_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.read_bool()? {
            Ok(Some(self.read_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Checks a section marker written by [`SnapWriter::put_tag`].
    pub fn expect_tag(&mut self, tag: u8) -> Result<(), SnapshotError> {
        if self.read_u8()? == tag {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("section tag mismatch"))
        }
    }

    /// Asserts that every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 5);
        w.put_usize(123_456);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
        w.put_tag(7);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.read_usize().unwrap(), 123_456);
        assert!(r.read_bool().unwrap());
        assert!(!r.read_bool().unwrap());
        let neg_zero = r.read_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.read_opt_u64().unwrap(), Some(42));
        assert_eq!(r.read_opt_u64().unwrap(), None);
        r.expect_tag(7).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = SnapWriter::new();
        w.put_u64(9);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(r.read_u64(), Err(SnapshotError::UnexpectedEof));
    }

    #[test]
    fn bad_bools_and_tags_are_corrupt() {
        let bytes = [3u8, 5u8];
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.read_bool(), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(r.expect_tag(9), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn snapshot_container_round_trips() {
        let snap = SimSnapshot::new(0x1234_5678_9ABC_DEF0, vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version(), SNAP_VERSION);
        assert_eq!(back.config_fingerprint(), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn container_rejects_bad_magic_version_and_truncation() {
        let snap = SimSnapshot::new(7, vec![9; 16]);
        let mut bytes = snap.to_bytes();
        assert_eq!(
            SimSnapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::UnexpectedEof)
        );
        bytes[0] ^= 0xFF;
        assert_eq!(SimSnapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic));
        let mut versioned = snap.to_bytes();
        versioned[8] = 0xEE;
        assert!(matches!(
            SimSnapshot::from_bytes(&versioned),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(4)
            .build()
            .unwrap();
        let b = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(8)
            .packet_length(4)
            .build()
            .unwrap();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
