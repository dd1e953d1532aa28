//! Generation runs ahead: a `run_cycles` call that owes at least 2²⁰ packet
//! draws lends the traffic spec to a helper thread, which makes the draws
//! while the engine steps; the engine only queues what they emit. The
//! contract is bit-identity with the same cycles stepped one `run_cycles(1)`
//! at a time, which never lends the spec:
//!
//! 1. **Every spec kind, every engine mode** — Bernoulli (uniform,
//!    transpose, hotspot), Markov-modulated (including a chain that is
//!    permanently ON), matrix, and a recording of a bursty source under a
//!    tenant map: windows, island and tenant windows, statistics, counters
//!    and snapshot bytes agree at every call boundary, and the long calls
//!    did run ahead.
//! 2. **Silence hands the spec back** — a trace replay with a gap and a
//!    quiescent-then-burst source go silent mid-call; the helper stops
//!    there and the engine finishes the call inline, bit-identically.
//! 3. **Engagement** — a silent spec never lends itself out.
//! 4. **No hang** — a panic in the helper's `generate_tick` and a panic in
//!    the engine while the helper runs both surface from `run_cycles`.

mod common;
use common::{QuiescentThenBurst, ENGINE_MODES};

use noc_sim::{
    BurstyTraffic, Hertz, MatrixTraffic, NetworkConfig, NocSimulation, RecordingTraffic,
    RegionLayout, SimCounters, SimStats, SyntheticTraffic, TelemetryConfig, TenantMap, Topology,
    TraceEvent, TraceReader, TraceTraffic, TraceWriter, TrafficPattern, TrafficSpec,
    WindowMeasurement,
};
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A call this long on [`fabric`] owes 4 200 × 256 ≈ 1.08 M draws: it runs
/// ahead.
const LONG: u64 = 4_200;

/// A 16×16 mesh in four islands, so the island-worker mode runs threaded.
fn fabric() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(16, 16)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(RegionLayout::Quadrants)
        .build()
        .expect("valid configuration")
}

/// Whether the helper can run here at all (it needs a second core).
fn second_core() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy)]
enum Call {
    Run(u64),
    NocFrequency(Hertz),
}

/// Short, long, then long again at a slowed NoC clock (2.5 node cycles per
/// tick): the second long call checks multi-cycle batches.
fn schedule() -> [Call; 4] {
    [
        Call::Run(200),
        Call::Run(LONG),
        Call::NocFrequency(Hertz::from_mhz(400.0)),
        Call::Run(LONG / 2),
    ]
}

/// What a run shows at a call boundary.
#[derive(Debug, PartialEq)]
struct Boundary {
    counters: SimCounters,
    stats: SimStats,
    snapshot: Vec<u8>,
    window: WindowMeasurement,
    islands: Vec<WindowMeasurement>,
    tenants: Vec<WindowMeasurement>,
}

fn observe(sim: &mut NocSimulation) -> Boundary {
    let mut counters = sim.counters();
    // How many ticks were jumped is how the state was computed, not what it
    // is (single steps never jump), and is not in the snapshot either.
    counters.skipped_cycles = 0;
    Boundary {
        counters,
        stats: *sim.stats(),
        snapshot: sim.snapshot().to_bytes(),
        window: sim.take_window(),
        islands: sim.take_island_windows(),
        tenants: sim.take_tenant_windows(),
    }
}

/// Runs `schedule`, advancing with `run`, and observes every boundary.
fn boundaries(
    sim: &mut NocSimulation,
    schedule: &[Call],
    mut run: impl FnMut(&mut NocSimulation, u64),
) -> Vec<Boundary> {
    let mut seen = Vec::new();
    for &call in schedule {
        match call {
            Call::Run(cycles) => {
                run(sim, cycles);
                seen.push(observe(sim));
            }
            Call::NocFrequency(f) => sim.set_noc_frequency(f),
        }
    }
    seen
}

fn stepped(sim: &mut NocSimulation, cycles: u64) {
    for _ in 0..cycles {
        sim.run_cycles(1);
    }
}

/// A scenario: how to build its simulation (fresh state on every call).
struct Scenario<'a> {
    name: &'a str,
    cfg: NetworkConfig,
    schedule: &'a [Call],
    build: &'a dyn Fn(&NetworkConfig, &str) -> NocSimulation,
}

/// Steps the scenario one tick per call once, then runs it under every
/// engine mode with the schedule's own calls, and requires equal
/// boundaries. Returns the ticks each mode ran ahead.
fn check_against_single_steps(scenario: &Scenario<'_>) -> Vec<u64> {
    let Scenario { name, cfg, schedule, build } = scenario;
    let reference = boundaries(&mut build(cfg, "stepped"), schedule, stepped);
    let mut ahead = Vec::new();
    for mode in &ENGINE_MODES {
        let mut sim = build(cfg, mode.name);
        mode.select(&mut sim);
        sim.install_telemetry(TelemetryConfig::default().with_profile(true));
        let seen = boundaries(&mut sim, schedule, |sim, cycles| mode.run(sim, cycles));
        assert_eq!(seen.len(), reference.len());
        for (i, (long, step)) in seen.iter().zip(&reference).enumerate() {
            assert!(long == step, "{name} ({}): boundary {i} differs from single steps", mode.name);
        }
        let profile = sim.telemetry().expect("installed").profile();
        if second_core() {
            assert!(profile.ahead_ticks > 0, "{name} ({}): the long calls ran inline", mode.name);
        }
        ahead.push(profile.ahead_ticks);
    }
    ahead
}

fn plain(
    spec: impl Fn() -> Box<dyn TrafficSpec>,
) -> impl Fn(&NetworkConfig, &str) -> NocSimulation {
    move |cfg, _| NocSimulation::new(cfg.clone(), spec(), 2015)
}

#[test]
fn bernoulli_sources_run_ahead_bit_identically() {
    for pattern in [TrafficPattern::Uniform, TrafficPattern::Transpose, TrafficPattern::Hotspot] {
        let build = plain(|| Box::new(SyntheticTraffic::new(pattern, 0.02, 4)));
        let name = format!("synthetic {}", pattern.name());
        let scenario =
            Scenario { name: &name, cfg: fabric(), schedule: &schedule(), build: &build };
        check_against_single_steps(&scenario);
    }
}

#[test]
fn markov_modulated_sources_run_ahead_bit_identically() {
    let build = plain(|| Box::new(BurstyTraffic::new(TrafficPattern::Uniform, 0.02, 4, 50.0, 4.0)));
    let scenario = Scenario { name: "bursty", cfg: fabric(), schedule: &schedule(), build: &build };
    check_against_single_steps(&scenario);

    // A chain permanently ON offers one packet per node cycle and draws no
    // Bernoulli trial. On a 2×2 mesh tornado maps every node onto itself, so
    // its 2²⁰ decisions emit nothing and the fabric stays empty; at the
    // slowest clock each tick carries three node cycles.
    let cfg = NetworkConfig::builder().mesh(2, 2).packet_length(5).build().expect("valid");
    let build = move |cfg: &NetworkConfig, _: &str| {
        let on = BurstyTraffic::new(TrafficPattern::Tornado, 5.0, 5, 10.0, 2.0);
        let mut sim = NocSimulation::new(cfg.clone(), Box::new(on), 2015);
        sim.set_noc_frequency(cfg.min_frequency());
        sim
    };
    let schedule = [Call::Run(50), Call::Run(90_000)];
    let scenario =
        Scenario { name: "bursty permanently on", cfg, schedule: &schedule, build: &build };
    check_against_single_steps(&scenario);
}

#[test]
fn matrix_sources_run_ahead_bit_identically() {
    let build = plain(|| {
        // Each node sends to three others; every fifth row sends nothing.
        let n = 256;
        let rates = (0..n)
            .map(|src| {
                let mut row = vec![0.0; n];
                if src % 5 != 0 {
                    for k in 1..=3 {
                        row[(src * 7 + k * 31) % n] += 0.007 * k as f64;
                    }
                }
                row
            })
            .collect();
        Box::new(MatrixTraffic::new(rates, 4))
    });
    let scenario = Scenario { name: "matrix", cfg: fabric(), schedule: &schedule(), build: &build };
    check_against_single_steps(&scenario);
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("noc-generation-ahead-{}", std::process::id()))
        .join(name.replace(['+', ' '], "-"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_trace(dir: &PathBuf) -> Vec<TraceEvent> {
    let mut reader = TraceReader::open(dir).expect("finished trace");
    std::iter::from_fn(|| reader.next().expect("readable chunk")).collect()
}

#[test]
fn a_recording_under_a_tenant_map_runs_ahead_bit_identically() {
    // Quadrant tiles as tenants 0..3.
    let owners = (0..256).map(|node: usize| Some(((node % 16) / 8 + 2 * (node / 128)) as u32));
    let tenants = TenantMap::new(owners.collect(), 4).expect("valid map");
    let writers = Mutex::new(Vec::new());
    let build = |cfg: &NetworkConfig, run: &str| {
        let dir = tmpdir(&format!("recording-{run}"));
        let writer = TraceWriter::create(&dir, 4, 256, 256).expect("trace directory");
        let writer = Arc::new(Mutex::new(writer));
        let live = BurstyTraffic::new(TrafficPattern::Uniform, 0.02, 4, 50.0, 4.0);
        let recording =
            RecordingTraffic::new(Box::new(live), writer.clone()).with_tenants(&tenants);
        let mut sim = NocSimulation::new(cfg.clone(), Box::new(recording), 2015);
        sim.set_tenant_map(tenants.clone()).expect("map fits");
        writers.lock().unwrap().push((dir, writer));
        sim
    };
    let scenario =
        Scenario { name: "recording", cfg: fabric(), schedule: &schedule(), build: &build };
    check_against_single_steps(&scenario);
    // The recordings themselves agree too: the helper recorded exactly what
    // the stepped run did.
    let traces: Vec<Vec<TraceEvent>> = writers
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|(dir, writer)| {
            writer.lock().unwrap().finish().expect("trace finishes");
            let events = read_trace(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            events
        })
        .collect();
    assert!(!traces[0].is_empty());
    assert!(traces.iter().all(|trace| *trace == traces[0]), "recorded traces differ");
}

#[test]
fn a_replay_hands_the_spec_back_at_its_gap() {
    // One event per node cycle, none in 2 000..2 600: the long call starts
    // on an event, so it runs ahead, and the helper stops at the gap.
    let dir = tmpdir("replay");
    let mut writer = TraceWriter::create(&dir, 4, 256, 512).expect("trace directory");
    for cycle in (0..5_000u64).filter(|c| !(2_000..2_600).contains(c)) {
        let src = (cycle * 37 % 256) as u32;
        writer.record(TraceEvent {
            node_cycle: cycle,
            src,
            dst: (src + 1 + (cycle % 200) as u32) % 256,
            tenant: 0,
        });
    }
    writer.finish().expect("trace finishes");
    let build = |cfg: &NetworkConfig, _: &str| {
        let replay = TraceTraffic::open(&dir).expect("finished trace");
        NocSimulation::new(cfg.clone(), Box::new(replay), 2015)
    };
    let schedule = [Call::Run(200), Call::Run(LONG)];
    let scenario = Scenario { name: "replay", cfg: fabric(), schedule: &schedule, build: &build };
    for ahead in check_against_single_steps(&scenario) {
        assert!(ahead < 2_000, "the helper ran past the gap ({ahead} ticks)");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_quiescent_then_burst_source_hands_the_spec_back() {
    // Silent until node cycle 300 (the short first call runs inline), a
    // burst until 2 300 (the long call starts in it and runs ahead), then
    // silent for good: the helper stops and the engine jumps the rest.
    let build = plain(|| {
        Box::new(QuiescentThenBurst {
            burst_start: 300,
            burst_end: 2_300,
            rate: 0.05,
            packet_length: 4,
        })
    });
    let schedule = [Call::Run(400), Call::Run(LONG)];
    let scenario = Scenario {
        name: "quiescent then burst",
        cfg: fabric(),
        schedule: &schedule,
        build: &build,
    };
    for ahead in check_against_single_steps(&scenario) {
        assert!(ahead < 2_000, "the helper ran past the burst ({ahead} ticks)");
    }
}

#[test]
fn a_silent_spec_never_runs_ahead() {
    let mut sim = NocSimulation::new(
        fabric(),
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.0, 4)),
        2015,
    );
    sim.install_telemetry(TelemetryConfig::default().with_profile(true));
    sim.run_cycles(4 * LONG);
    assert_eq!(sim.telemetry().expect("installed").profile().ahead_ticks, 0);
    assert_eq!(sim.counters().flits_generated, 0);
}

/// Uniform Bernoulli traffic that goes wrong in its `fault`-th
/// `generate_tick` call: `Panic` panics there, `BadSource` emits a packet
/// from a node the fabric does not have, which panics the engine.
#[derive(Debug)]
struct Faulty {
    inner: SyntheticTraffic,
    calls: u64,
    fault: u64,
    bad_source: bool,
}

impl TrafficSpec for Faulty {
    fn packet_length(&self) -> usize {
        self.inner.packet_length()
    }
    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }
    fn maybe_generate(
        &mut self,
        src: usize,
        cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        self.inner.maybe_generate(src, cycle, topo, rng)
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
        self.calls += 1;
        if self.calls == self.fault {
            if !self.bad_source {
                panic!("generate_tick failed on call {}", self.calls);
            }
            emit(nodes, start_node_cycle, 0);
        }
        self.inner.generate_tick(nodes, start_node_cycle, node_cycles, topo, rng, emit);
    }
}

/// Runs one long call of a [`Faulty`] spec on its own thread and returns
/// the panic message, failing the test if the call returns or hangs.
fn long_call_panics(bad_source: bool) -> String {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let inner = SyntheticTraffic::new(TrafficPattern::Uniform, 0.02, 4);
        let faulty = Faulty { inner, calls: 0, fault: 1_000, bad_source };
        let mut sim = NocSimulation::new(fabric(), Box::new(faulty), 2015);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_cycles(LONG)));
        let message = result.err().map(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        let _ = done.send(message);
    });
    outcome
        .recv_timeout(Duration::from_secs(300))
        .expect("run_cycles hung")
        .expect("run_cycles returned instead of panicking")
}

#[test]
fn a_panic_in_the_helper_surfaces_from_run_cycles() {
    assert_eq!(long_call_panics(false), "generate_tick failed on call 1000");
}

#[test]
fn a_panic_in_the_engine_releases_the_helper() {
    assert!(long_call_panics(true).contains("out of bounds"));
}
