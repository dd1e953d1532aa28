//! Invariants of the trace record/replay engine.
//!
//! Three contracts are pinned here:
//!
//! 1. **Replay ≡ record bit-identity** — wrapping any live traffic source
//!    in a [`RecordingTraffic`] and re-running the *same* configuration
//!    from the recorded trace ([`TraceTraffic`]) reproduces the window
//!    ledger and aggregate statistics bit for bit, across the gating ×
//!    faults × islands × topology configuration axes and under mid-run
//!    DVFS frequency changes. The replay run deliberately uses a
//!    *different* RNG seed: a recorded trace must drive the network
//!    without consulting the traffic RNG at all. Every record→replay pair
//!    runs under every engine mode ([`common::ENGINE_MODES`]): sparse with
//!    and without event-horizon skipping, and two island workers (clamped
//!    to the serial step where the configuration has a single island).
//! 2. **Per-tenant ledger replay** — with a [`TenantMap`] installed on
//!    both runs, the per-tenant window ledgers replay bit-identically too.
//! 3. **Bounded memory** — replaying a trace much larger than one chunk
//!    never holds more than one chunk resident: the reader's chunk-load
//!    counter shows every chunk decoded exactly once over a sequential
//!    scan.

use noc_sim::{
    Direction, FaultConfig, FaultEvent, FaultTarget, GatingConfig, Hertz, NetworkConfig,
    NocSimulation, RecordingTraffic, RegionLayout, SyntheticTraffic, TenantMap, TopologyKind,
    TraceReader, TraceTraffic, TraceWriter, TrafficPattern, WindowMeasurement,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

mod common;
use common::{EngineMode, ENGINE_MODES};

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("noc-trace-invariants-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base() -> noc_sim::NetworkConfigBuilder {
    NetworkConfig::builder().mesh(4, 4).virtual_channels(2).buffer_depth(4).packet_length(5)
}

/// The gating × faults × islands × topology configuration axes the replay
/// contract is pinned on.
fn configs() -> Vec<(&'static str, NetworkConfig)> {
    vec![
        ("baseline", base().build().unwrap()),
        ("gated", base().gating(GatingConfig::enabled(12, 4)).build().unwrap()),
        (
            "faulted",
            base()
                .faults(FaultConfig::scheduled(vec![
                    FaultEvent::permanent(FaultTarget::Link { node: 5, dir: Direction::East }, 200),
                    FaultEvent::permanent(FaultTarget::Link { node: 10, dir: Direction::South }, 400),
                ]))
                .build()
                .unwrap(),
        ),
        ("quadrants", base().regions(RegionLayout::Quadrants).build().unwrap()),
        ("torus", base().topology(TopologyKind::Torus).build().unwrap()),
    ]
}

/// The shared run schedule: four measurement windows with a DVFS frequency
/// change before each, so replay must match generation batches wider than
/// one node cycle per NoC tick.
const PLAN: [(f64, u64); 4] = [(1000.0, 500), (500.0, 400), (800.0, 600), (333.0, 500)];

/// Drives `sim` through the shared schedule under `mode` and returns its
/// window ledger (plus the per-tenant ledgers when a map is installed).
fn drive(
    sim: &mut NocSimulation,
    mode: &EngineMode,
) -> (Vec<WindowMeasurement>, Vec<Vec<WindowMeasurement>>) {
    let mut windows = Vec::new();
    let mut tenant_windows = Vec::new();
    for (mhz, cycles) in PLAN {
        sim.set_noc_frequency(Hertz::from_mhz(mhz));
        mode.run(sim, cycles);
        windows.push(sim.take_window());
        tenant_windows.push(sim.take_tenant_windows());
    }
    (windows, tenant_windows)
}

/// In every engine mode: records a run of `cfg` under uniform traffic into a
/// directory, then replays the trace on a fresh simulation with a different
/// seed and asserts bit-identity.
fn assert_replay_matches_record(name: &str, cfg: NetworkConfig, map: Option<TenantMap>) {
    for mode in &ENGINE_MODES {
        assert_replay_matches_record_under(mode, name, cfg.clone(), map.clone());
    }
}

fn assert_replay_matches_record_under(
    mode: &EngineMode,
    name: &str,
    cfg: NetworkConfig,
    map: Option<TenantMap>,
) {
    let name = &format!("{name} [{}]", mode.name);
    let dir = tmpdir(&name.replace(|c: char| !c.is_ascii_alphanumeric(), "-"));
    let writer = Arc::new(Mutex::new(
        TraceWriter::create(&dir, cfg.packet_length(), cfg.node_count(), 256).unwrap(),
    ));
    let inner = SyntheticTraffic::new(TrafficPattern::Uniform, 0.12, cfg.packet_length());
    let mut recording = RecordingTraffic::new(Box::new(inner), Arc::clone(&writer));
    if let Some(map) = &map {
        recording = recording.with_tenants(map);
    }
    let mut record_sim = NocSimulation::new(cfg.clone(), Box::new(recording), 2015);
    mode.select(&mut record_sim);
    if let Some(map) = &map {
        record_sim.set_tenant_map(map.clone()).unwrap();
    }
    let (recorded_windows, recorded_tenants) = drive(&mut record_sim, mode);
    let recorded_stats = *record_sim.stats();
    let summary = writer.lock().unwrap().finish().unwrap();
    assert!(summary.events > 0, "{name}: the recording must capture injections");

    // Replay with a different seed: the trace alone must reproduce the run.
    let replay = TraceTraffic::open(&dir).unwrap();
    assert_eq!(replay.node_count(), cfg.node_count());
    let mut replay_sim = NocSimulation::new(cfg, Box::new(replay), 77_777);
    mode.select(&mut replay_sim);
    if let Some(map) = &map {
        replay_sim.set_tenant_map(map.clone()).unwrap();
    }
    let (replayed_windows, replayed_tenants) = drive(&mut replay_sim, mode);

    assert_eq!(replayed_windows, recorded_windows, "{name}: window ledger must replay exactly");
    assert_eq!(replayed_tenants, recorded_tenants, "{name}: tenant ledgers must replay exactly");
    assert_eq!(replay_sim.stats(), &recorded_stats, "{name}: aggregate stats must replay exactly");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_reproduces_the_record_bit_for_bit_across_config_axes() {
    for (name, cfg) in configs() {
        assert_replay_matches_record(name, cfg, None);
    }
}

#[test]
fn replay_reproduces_per_tenant_ledgers() {
    let cfg = base().build().unwrap();
    // Two 8-node tenants splitting the 4×4 fabric.
    let owner = (0..16).map(|n| Some(u32::from(n >= 8))).collect();
    let map = TenantMap::new(owner, 2).unwrap();
    assert_replay_matches_record("tenants", cfg, Some(map));
}

#[test]
fn replay_is_deterministic_across_replays() {
    // Two replays of the same trace (different seeds) must agree with each
    // other — the replay source owns all the injection state.
    let (name, cfg) = ("replay-twice", base().build().unwrap());
    let dir = tmpdir(name);
    let writer = Arc::new(Mutex::new(
        TraceWriter::create(&dir, cfg.packet_length(), cfg.node_count(), 128).unwrap(),
    ));
    let inner = SyntheticTraffic::new(TrafficPattern::Transpose, 0.2, cfg.packet_length());
    let recording = RecordingTraffic::new(Box::new(inner), Arc::clone(&writer));
    let mut sim = NocSimulation::new(cfg.clone(), Box::new(recording), 9);
    let _ = drive(&mut sim, &ENGINE_MODES[0]);
    writer.lock().unwrap().finish().unwrap();

    let mut ledgers = Vec::new();
    for seed in [1u64, 424_242] {
        let replay = TraceTraffic::open(&dir).unwrap();
        let mut sim = NocSimulation::new(cfg.clone(), Box::new(replay), seed);
        ledgers.push(drive(&mut sim, &ENGINE_MODES[0]));
    }
    assert_eq!(ledgers[0], ledgers[1], "replay must not depend on the simulation seed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replaying_a_trace_larger_than_one_chunk_streams_chunk_by_chunk() {
    let cfg = base().build().unwrap();
    let dir = tmpdir("memory-bound");
    // A tiny chunk budget: the recorded trace spans many chunks, far more
    // than the reader's single resident buffer could hold at once.
    let writer = Arc::new(Mutex::new(
        TraceWriter::create(&dir, cfg.packet_length(), cfg.node_count(), 64).unwrap(),
    ));
    let inner = SyntheticTraffic::new(TrafficPattern::Uniform, 0.25, cfg.packet_length());
    let recording = RecordingTraffic::new(Box::new(inner), Arc::clone(&writer));
    let mut sim = NocSimulation::new(cfg.clone(), Box::new(recording), 31);
    sim.run_cycles(3_000);
    let summary = writer.lock().unwrap().finish().unwrap();
    assert!(summary.chunks > 10, "the trace must span many chunks, got {}", summary.chunks);

    // A full sequential scan decodes every chunk exactly once: the reader
    // holds one chunk resident and never re-reads or prefetches.
    let mut reader = TraceReader::open(&dir).unwrap();
    assert_eq!(reader.chunk_loads(), 0, "opening must not load event chunks");
    let mut events = 0u64;
    let mut last_loads = 0;
    while let Some(_event) = reader.next().unwrap() {
        events += 1;
        let loads = reader.chunk_loads();
        assert!(loads <= last_loads + 1, "the reader must load at most one new chunk per event");
        last_loads = loads;
    }
    assert_eq!(events, summary.events);
    assert_eq!(reader.chunk_loads(), summary.chunks as u64, "each chunk decodes exactly once");

    // Replaying through the TrafficSpec face streams the same way.
    let replay = TraceTraffic::open(&dir).unwrap();
    assert_eq!(replay.chunk_loads(), 1, "opening the replay source loads only the first chunk");
    let mut sim = NocSimulation::new(cfg, Box::new(replay), 5);
    sim.run_cycles(6_000);
    let window = sim.take_window();
    assert!(window.flits_generated > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
