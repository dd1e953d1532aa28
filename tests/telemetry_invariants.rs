//! Differential suite for the zero-perturbation telemetry layer.
//!
//! The telemetry fabric ([`NocSimulation::install_telemetry`]) is a pure
//! observer: probes read pipeline outputs that already exist, sampling is
//! driven by the simulated clock, and profiling reads the host clock without
//! feeding it back. Four contracts are pinned here:
//!
//! 1. **Zero perturbation** — an instrumented run produces bit-identical
//!    [`WindowMeasurement`] sequences and aggregate statistics to an
//!    uninstrumented twin across the full subsystem grid (gating × faults ×
//!    islands × bursty injection), with event-horizon skipping on and off.
//! 2. **Parallel parity** — per-island threaded stepping with per-worker
//!    profiling enabled still matches the uninstrumented serial golden,
//!    window for window.
//! 3. **Bounded memory** — the snapshot ring and the event ring never exceed
//!    their configured capacities, however long the run.
//! 4. **Export shape** — the Perfetto export of a real instrumented run is
//!    structurally valid Chrome `trace_events` JSON (every event carries
//!    `name`/`ph`/`ts`/`pid`, phases drawn from the documented set), and the
//!    congestion heatmap matches the topology's shape; the sweep
//!    coordinator's profile/trace journal the same way.
//!
//! [`NocSimulation::install_telemetry`]: noc_sim::NocSimulation::install_telemetry
//! [`WindowMeasurement`]: noc_sim::WindowMeasurement

use noc_sim::{
    BurstyTraffic, FaultConfig, GatingConfig, HazardConfig, Hertz, NetworkConfig, NocSimulation,
    RegionLayout, RoutingKind, SyntheticTraffic, TelemetryConfig, TrafficPattern,
    TrafficSpec,
};
use proptest::prelude::*;

/// The 4×4 mesh exercising the chosen subsystem combination — the same
/// grid the event-horizon differentials (`tests/sparse_equivalence.rs`)
/// pin, so telemetry is proven inert on exactly the hardest scenarios.
fn subsystem_cfg(gated: bool, faulted: bool, islands: bool) -> NetworkConfig {
    let mut b =
        NetworkConfig::builder().mesh(4, 4).virtual_channels(2).buffer_depth(4).packet_length(4);
    if gated {
        b = b.gating(GatingConfig::enabled(24, 8));
    }
    if faulted {
        b = b.routing(RoutingKind::MinimalAdaptive).faults(FaultConfig::none().with_hazard(
            HazardConfig {
                link_rate: 2e-4,
                router_rate: 1e-4,
                transient_fraction: 1.0,
                transient_duration: 120,
            },
        ));
    }
    if islands {
        b = b.regions(RegionLayout::Quadrants);
    }
    b.build().expect("subsystem combinations are valid")
}

fn scenario_traffic(rate: f64, bursty: bool) -> Box<dyn TrafficSpec> {
    if bursty {
        Box::new(BurstyTraffic::new(TrafficPattern::Uniform, rate, 4, 200.0, 4.0))
    } else {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, rate, 4))
    }
}

/// Runs the window schedule with a mid-run NoC frequency retune (which also
/// lands a `SetFrequency` event in the instrumented twin's trace).
fn window_sequence(sim: &mut NocSimulation, chunks: &[u64]) -> Vec<noc_sim::WindowMeasurement> {
    let mut windows = Vec::with_capacity(chunks.len());
    for (i, &cycles) in chunks.iter().enumerate() {
        if i == 2 {
            sim.set_noc_frequency(Hertz::from_mhz(500.0));
        }
        if i == 4 {
            sim.set_noc_frequency(Hertz::from_ghz(1.0));
        }
        sim.run_cycles(cycles);
        windows.push(sim.take_window());
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The hard invariant of the telemetry layer: installing it — counters,
    /// event trace, periodic sampling and the wall-clock profiler all on —
    /// never changes a single measurement, with horizon skipping on or off,
    /// across every subsystem combination.
    #[test]
    fn telemetry_never_perturbs_the_simulation(
        gated in prop_oneof![Just(false), Just(true)],
        faulted in prop_oneof![Just(false), Just(true)],
        islands in prop_oneof![Just(false), Just(true)],
        bursty in prop_oneof![Just(false), Just(true)],
        skipping in prop_oneof![Just(false), Just(true)],
        rate in 0.05f64..0.3,
        seed in 0u64..1_000_000,
        chunk in 80u64..240,
    ) {
        let cfg = subsystem_cfg(gated, faulted, islands);
        let mut observed = NocSimulation::new(cfg.clone(), scenario_traffic(rate, bursty), seed);
        let mut plain = NocSimulation::new(cfg.clone(), scenario_traffic(rate, bursty), seed);
        observed.install_telemetry(
            TelemetryConfig::default().with_sample_interval(64).with_history(64).with_profile(true),
        );
        for sim in [&mut observed, &mut plain] {
            sim.set_event_skipping(skipping);
        }
        if islands {
            observed.set_island_frequency(2, Hertz::from_mhz(400.0));
            plain.set_island_frequency(2, Hertz::from_mhz(400.0));
        }
        let chunks = [chunk, 2 * chunk, chunk / 2 + 1, chunk + 37, chunk];
        let wo = window_sequence(&mut observed, &chunks);
        let wp = window_sequence(&mut plain, &chunks);
        prop_assert_eq!(wo, wp,
            "telemetry perturbed the run (gated={} faulted={} islands={} bursty={} skip={} seed={})",
            gated, faulted, islands, bursty, skipping, seed);
        prop_assert_eq!(observed.stats(), plain.stats());
        prop_assert_eq!(observed.total_packets_delivered(), plain.total_packets_delivered());
        prop_assert_eq!(observed.queued_source_flits(), plain.queued_source_flits());
        prop_assert_eq!(observed.buffered_network_flits(), plain.buffered_network_flits());
        prop_assert_eq!(observed.in_flight_flits(), plain.in_flight_flits());
        prop_assert_eq!(observed.in_flight_credits(), plain.in_flight_credits());
        prop_assert_eq!(observed.skipped_cycle_count(), plain.skipped_cycle_count());

        // The observer really observed: windows were sampled and — with real
        // traffic flowing — the counter fabric saw grants.
        let telemetry = observed.telemetry().expect("telemetry stays installed");
        prop_assert!(telemetry.snapshots().count() >= 1, "no sample window was taken");
        let grants: u64 = telemetry.snapshots().map(|s| s.grants).sum();
        if observed.total_packets_delivered() > 0 {
            prop_assert!(grants > 0, "delivered traffic must be visible to the probes");
        }
        if observed.skipped_cycle_count() > 0 {
            let jumped: u64 = telemetry.snapshots().map(|s| s.horizon_skipped_cycles).sum();
            prop_assert!(jumped > 0, "horizon jumps must be visible to the probes");
        }
    }

    /// The counter bundle and the conservation ledger: one `counters()` call
    /// agrees with the individual getters and satisfies
    /// `generated = received + in-transit + dropped` at any observation point.
    #[test]
    fn counters_bundle_preserves_the_conservation_ledger(
        faulted in prop_oneof![Just(false), Just(true)],
        rate in 0.05f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let cfg = subsystem_cfg(false, faulted, false);
        let mut sim = NocSimulation::new(cfg, scenario_traffic(rate, false), seed);
        sim.run_cycles(1_500);
        let c = sim.counters();
        prop_assert_eq!(c.cycle, sim.current_cycle());
        prop_assert_eq!(c.flits_generated, sim.total_flits_generated());
        prop_assert_eq!(c.packets_delivered, sim.total_packets_delivered());
        prop_assert_eq!(c.in_flight_flits, sim.in_flight_flits());
        prop_assert_eq!(c.queued_source_flits, sim.queued_source_flits());
        prop_assert_eq!(c.buffered_network_flits, sim.buffered_network_flits());
        prop_assert_eq!(c.active_routers, sim.active_router_count());
        prop_assert_eq!(
            c.flits_generated,
            c.flits_received + c.in_transit_flits() + c.flits_dropped,
            "conservation ledger must balance"
        );
        if !faulted {
            prop_assert_eq!(c.flits_dropped, 0);
            prop_assert!((c.reachable_pairs - 1.0).abs() < 1e-12);
        }
    }
}

/// Per-island parallel stepping with the profiler armed (per-worker busy
/// tracking included) pinned against the uninstrumented serial golden: the
/// quadrant scenario with 1, 2 and 4 workers must produce bit-identical
/// windows, island windows and aggregate stats.
#[test]
fn profiled_parallel_stepping_matches_the_serial_golden() {
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .regions(RegionLayout::Quadrants)
        .build()
        .unwrap();
    let mk = || Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.12, 5));
    let mut serial = NocSimulation::new(cfg.clone(), mk(), 2015);
    let mut threaded2 = NocSimulation::new(cfg.clone(), mk(), 2015);
    let mut threaded4 = NocSimulation::new(cfg.clone(), mk(), 2015);
    threaded2.install_telemetry(TelemetryConfig::default().with_profile(true));
    threaded4.install_telemetry(TelemetryConfig::default().with_profile(true));
    for window in 0..6 {
        if window == 2 {
            for sim in [&mut serial, &mut threaded2, &mut threaded4] {
                sim.set_island_frequency(1, Hertz::from_mhz(500.0));
            }
        }
        serial.run_cycles_with_workers(500, 1);
        threaded2.run_cycles_with_workers(500, 2);
        threaded4.run_cycles_with_workers(500, 4);
        let golden = serial.take_window();
        assert_eq!(golden, threaded2.take_window(), "2-worker window {window} diverged");
        assert_eq!(golden, threaded4.take_window(), "4-worker window {window} diverged");
        let island_golden = serial.take_island_windows();
        assert_eq!(island_golden, threaded2.take_island_windows());
        assert_eq!(island_golden, threaded4.take_island_windows());
    }
    assert_eq!(serial.stats(), threaded2.stats());
    assert_eq!(serial.stats(), threaded4.stats());
    // The profiler measured real work on every worker thread.
    for (sim, workers) in [(&threaded2, 2), (&threaded4, 4)] {
        let profile = sim.telemetry().expect("telemetry installed").profile();
        assert!(profile.steps >= 3_000, "every base tick is a profiled step");
        assert!(profile.total_ns() > 0);
        assert_eq!(profile.worker_busy_ns.len(), workers);
        assert!(profile.worker_busy_ns.iter().all(|&ns| ns > 0), "idle profiled worker");
        assert!(profile.worker_imbalance().is_some());
    }
}

/// The threaded driver attributes its barrier-to-barrier span: a profiled
/// run with island workers has a pipeline bucket, and the total covers every
/// bucket (it once covered only `pre` and `post`).
#[test]
fn profiled_island_workers_attribute_the_pipeline_span() {
    let mut sim = NocSimulation::new(subsystem_cfg(false, false, true), scenario_traffic(0.15, false), 5);
    sim.install_telemetry(TelemetryConfig::default().with_profile(true));
    sim.run_cycles_with_workers(1_000, 2);
    let profile = sim.telemetry().expect("telemetry installed").profile();
    assert!(profile.pipeline_ns > 0, "the span between the barriers went unattributed");
    assert!(profile.total_ns() >= profile.pre_ns + profile.post_ns + profile.pipeline_ns);
}

/// Snapshot ring and event ring stay bounded; the snapshot windows abut.
#[test]
fn telemetry_memory_stays_bounded() {
    let cfg = subsystem_cfg(true, false, false);
    let mut sim = NocSimulation::new(cfg, scenario_traffic(0.15, false), 7);
    sim.install_telemetry(
        TelemetryConfig::default()
            .with_sample_interval(128)
            .with_history(4)
            .with_trace_capacity(8),
    );
    sim.run_cycles(4_096);
    let telemetry = sim.telemetry_mut().expect("telemetry installed");
    assert_eq!(telemetry.snapshots().count(), 4, "history ring keeps exactly the last K windows");
    let snaps = telemetry.take_snapshots();
    for pair in snaps.windows(2) {
        assert_eq!(pair[0].end_cycle, pair[1].start_cycle, "sample windows must abut");
    }
    for snap in &snaps {
        assert!(snap.end_cycle - snap.start_cycle >= 128, "windows span the sample interval");
    }
    assert!(telemetry.snapshots().count() == 0, "take_snapshots drains the ring");
    let events = telemetry.events();
    assert!(events.len() <= 8, "event ring exceeded its capacity");
    // The gated 4×4 mesh generates far more sleep/wake events than 8 over
    // 4k cycles, so eviction accounting must have kicked in.
    assert!(events.dropped_events() > 0, "expected evictions at capacity 8");
}

/// The Perfetto export of a real instrumented run — gating, faults, islands
/// and a mid-run retune all active — is structurally valid `trace_events`
/// JSON: one object per event, every object carries `name`/`ph`/`ts`/`pid`,
/// and every phase is from the documented M/I/X/C/B/E set.
#[test]
fn perfetto_export_of_a_real_run_has_the_trace_events_shape() {
    let cfg = subsystem_cfg(true, true, true);
    let mut sim = NocSimulation::new(cfg, scenario_traffic(0.15, true), 2015);
    sim.install_telemetry(TelemetryConfig::default().with_sample_interval(256));
    sim.run_cycles(2_000);
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    sim.run_cycles(2_000);

    let telemetry = sim.telemetry().expect("telemetry installed");
    let trace = telemetry.events();
    assert!(!trace.is_empty(), "this scenario must emit events");
    let json = trace.perfetto_json();

    // Envelope.
    assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
    assert!(json.ends_with("\n]}\n"));
    // Balanced structure (no brace ever appears inside a string here).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // One JSON object per retained event, plus the process-name metadata.
    assert_eq!(json.matches("\"ph\": ").count(), trace.len() + 1);
    assert!(json.contains("\"name\": \"process_name\""));
    // Every event object carries the required trace_events keys and a
    // phase from the documented set.
    let mut phases = std::collections::BTreeSet::new();
    for line in json.lines().filter(|l| l.starts_with('{') && !l.contains("traceEvents")) {
        let object = line.trim_end_matches(',');
        for key in ["\"name\": ", "\"ph\": ", "\"ts\": ", "\"pid\": "] {
            assert!(object.contains(key), "event missing {key}: {object}");
        }
        let ph = object.split("\"ph\": \"").nth(1).and_then(|s| s.chars().next()).unwrap();
        assert!("MIXCBE".contains(ph), "undocumented phase {ph:?} in {object}");
        phases.insert(ph);
    }
    // The retune must be on a counter track; the trace uses several phases.
    assert!(json.contains("island2_freq_mhz"));
    assert!(phases.contains(&'C'), "counter events expected, got {phases:?}");

    // The congestion heatmap matches the topology shape and carries load.
    let heatmap = sim.telemetry_heatmap().expect("telemetry installed");
    assert_eq!((heatmap.width, heatmap.height), (4, 4));
    assert_eq!(heatmap.utilization.len(), 16);
    assert!(heatmap.peak() > 0.0, "a loaded mesh has a hot router");
    assert!(heatmap.utilization.iter().all(|u| u.is_finite() && *u >= 0.0));
    let csv = heatmap.to_csv();
    assert_eq!(csv.lines().count(), 4);
    assert!(csv.lines().all(|row| row.split(',').count() == 4));
}

/// An uninstrumented simulation exports nothing: the heatmap and the state
/// accessors stay `None`, and `clear_telemetry` returns a sim to that state.
#[test]
fn telemetry_is_off_by_default_and_removable() {
    let mut sim =
        NocSimulation::new(subsystem_cfg(false, false, false), scenario_traffic(0.1, false), 3);
    assert!(sim.telemetry().is_none());
    assert!(sim.telemetry_heatmap().is_none());
    sim.run_cycles(200);
    sim.install_telemetry(TelemetryConfig::default());
    sim.run_cycles(200);
    assert!(sim.telemetry().is_some());
    sim.clear_telemetry();
    assert!(sim.telemetry().is_none());
    assert!(sim.telemetry_heatmap().is_none());
    sim.run_cycles(200);
    assert!(sim.telemetry().is_none(), "cleared telemetry must not come back");
}

// ---------------------------------------------------------------------------
// Sweep-coordinator observability
// ---------------------------------------------------------------------------

mod coordinator {
    use noc_dvfs::coordinator::{
        profile_path, run_sweep, ChaosConfig, CoordinatorConfig, PointContext, PointRunner,
        WorkUnit,
    };
    use noc_dvfs::PolicyKind;
    use noc_sim::TelemetryEvent;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn grid(n: usize) -> Vec<WorkUnit> {
        (0..n)
            .map(|i| WorkUnit::new(&format!("pt{i}"), PolicyKind::NoDvfs, 0.1 * i as f64, i as u64))
            .collect()
    }

    fn trivial_runner() -> Arc<PointRunner> {
        Arc::new(|unit: &WorkUnit, ctx: &mut PointContext| {
            ctx.checkpoint_tick();
            Ok(format!("seed={}", unit.seed))
        })
    }

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("telemetry-invariants-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// A sweep journals its profile and trace: the profile counts every
    /// point, the trace brackets each point with begin/end events, and the
    /// profile JSON lands next to the journal.
    #[test]
    fn sweep_profile_and_trace_cover_every_point() {
        let units = grid(3);
        let journal = temp_journal("clean.jsonl");
        let report =
            run_sweep(&units, trivial_runner(), &journal, &CoordinatorConfig::quick()).unwrap();
        assert!(report.failures.is_empty());
        let p = &report.profile;
        assert_eq!((p.points_total, p.completed, p.resumed), (3, 3, 0));
        assert_eq!((p.retries, p.watchdog_timeouts, p.chaos_kills, p.failed), (0, 0, 0, 0));
        let starts = report
            .trace
            .events()
            .filter(|e| matches!(e.event, TelemetryEvent::SweepPointStart { .. }))
            .count();
        let completes = report
            .trace
            .events()
            .filter(|e| matches!(e.event, TelemetryEvent::SweepPointComplete { ok: true, .. }))
            .count();
        assert_eq!((starts, completes), (3, 3));
        let sidecar = profile_path(&journal);
        let json = std::fs::read_to_string(&sidecar).expect("profile sidecar written");
        assert_eq!(json, p.to_json());
        for key in ["points_total", "completed", "retries", "wall_micros"] {
            assert!(json.contains(key), "profile JSON missing {key}");
        }

        // Resuming the finished sweep reads everything from the journal.
        let resumed =
            run_sweep(&units, trivial_runner(), &journal, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(resumed.profile.resumed, 3);
        assert_eq!(resumed.profile.completed, 3);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&sidecar);
    }

    /// Chaos-killed attempts show up in the profile as kills and retries,
    /// and the converged sweep still completes every point.
    #[test]
    fn chaos_kills_are_counted_in_the_profile() {
        let units = grid(2);
        let journal = temp_journal("chaos.jsonl");
        let cfg = CoordinatorConfig::quick()
            .with_chaos(ChaosConfig { kill_probability: 1.0, seed: 11 });
        let report = run_sweep(&units, trivial_runner(), &journal, &cfg).unwrap();
        assert!(report.failures.is_empty(), "retries must absorb the chaos");
        assert_eq!(report.profile.completed, 2);
        assert!(report.profile.chaos_kills >= 2, "every first attempt was condemned");
        assert!(report.profile.retries >= 2);
        assert_eq!(report.profile.retries, report.retries as u64);
        let retried = report
            .trace
            .events()
            .filter(|e| matches!(e.event, TelemetryEvent::SweepPointRetry { .. }))
            .count();
        assert_eq!(retried as u64, report.profile.retries);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(profile_path(&journal));
    }
}
