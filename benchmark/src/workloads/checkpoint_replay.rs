//! `checkpoint_replay`: state, codecs and I/O at light load.
//!
//! Snapshots (encode / decode / restore), trace record and replay, the
//! journaled sweep coordinator, the fault process and the telemetry export —
//! `netsim.snapshot`, `netsim.trace`, `netsim.fault`, `netsim.telemetry` and
//! `core.coordinator`, none of which the other workloads touch — with the
//! router pipeline lightly loaded. The replay case is also the one place
//! where event-horizon skipping jumps real gaps between recorded injections.

use super::{built, finish_engine, new_sim, run_sliced, uniform, EngineCase, Workload};
use crate::pass::{profile_telemetry, Mode, Pass, RunConfig, Verdict};
use noc_dvfs::coordinator::{
    run_sweep, shard_policy_grid, CoordinatorConfig, PointRunner, WorkUnit,
};
use noc_dvfs::{
    encode_operating_point, run_operating_point, ClosedLoopConfig, DmsdConfig, PolicyKind,
    RmsdConfig,
};
use noc_sim::{
    BurstyTraffic, FaultConfig, HazardConfig, NetworkConfig, NocSimulation, RecordingTraffic,
    RoutingKind, SimSnapshot, SimStats, SyntheticTraffic, TelemetryConfig, TraceEvent, TraceReader,
    TraceTraffic, TraceWriter, TrafficPattern, TrafficSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// See the [module docs](self).
#[derive(Debug)]
pub struct CheckpointReplay;

/// Cycles between two snapshots of the checkpointed run.
const SNAPSHOT_EVERY: u64 = 200;
/// Cycles between two restores into the twin.
const RESTORE_EVERY: u64 = 2_000;
/// Events per trace chunk.
const CHUNK_EVENTS: usize = 4_096;

/// What `setup` hands to `pass`.
pub struct Inputs {
    tmp: PathBuf,
    snap_main: NocSimulation,
    snap_twin: NocSimulation,
    snap_rounds: u64,
    record: NocSimulation,
    writer: Arc<Mutex<TraceWriter>>,
    trace_cycles: u64,
    journal_units: Vec<WorkUnit>,
    journal_runner: Arc<PointRunner>,
    storm: EngineCase,
    watched: NocSimulation,
    watched_cycles: u64,
}

impl std::fmt::Debug for Inputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inputs")
            .field("tmp", &self.tmp)
            .finish_non_exhaustive()
    }
}

fn mesh8x8() -> NetworkConfig {
    built(NetworkConfig::builder().mesh(8, 8))
}

/// The light load every non-trace case of this workload runs at.
fn light_uniform(net: &NetworkConfig) -> Box<dyn TrafficSpec> {
    uniform(net, 0.05)
}

fn sparse_mmp(net: &NetworkConfig) -> Box<BurstyTraffic> {
    Box::new(BurstyTraffic::new(
        TrafficPattern::Uniform,
        0.01,
        net.packet_length(),
        200.0,
        4.0,
    ))
}

/// The journaled sweep's network: a small mesh, so that a work unit is a
/// whole closed-loop operating point yet the journal's own cost stays visible.
fn journal_net() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .build()
        .expect("valid configuration")
}

/// Where a run has got to: the clock, the flit ledger and the latency
/// aggregate. Two runs with equal ledgers at the same cycle are in step.
/// (`skipped_cycles` is left out on purpose: how many ticks were jumped rather
/// than stepped depends on where the `run_cycles` calls were cut, not on the
/// simulated behaviour.)
fn ledger(sim: &NocSimulation) -> ([u64; 7], SimStats) {
    let c = sim.counters();
    let clock = [
        c.cycle,
        c.wall_time_ps.to_bits(),
        c.flits_generated,
        c.flits_received,
        c.flits_dropped,
        c.packets_delivered,
        c.in_transit_flits(),
    ];
    (clock, *sim.stats())
}

/// One closed-loop operating point per work unit, encoded bit-exactly.
fn operating_point_runner(loop_cfg: ClosedLoopConfig) -> Arc<PointRunner> {
    let net = journal_net();
    Arc::new(move |unit: &WorkUnit, _ctx| {
        let traffic =
            SyntheticTraffic::new(TrafficPattern::Uniform, unit.load, net.packet_length());
        let point = run_operating_point(
            &net,
            Box::new(traffic),
            unit.policy.clone(),
            &loop_cfg,
            unit.seed,
        );
        Ok(encode_operating_point(&point))
    })
}

impl Workload for CheckpointReplay {
    const NAME: &'static str = "checkpoint_replay";
    const WHY: &'static str = "snapshot, trace, journal, fault and telemetry-export paths at \
        light load: codecs and I/O that no other workload touches";
    type Inputs = Inputs;

    fn setup(cfg: &RunConfig, pass: &mut Pass) -> Inputs {
        let seed = cfg.seed;
        let tmp = cfg.out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("temporary directory under the output directory");

        let net = mesh8x8();
        let snap_rounds = cfg.scaled(110_000, RESTORE_EVERY) / RESTORE_EVERY;
        let snap_cycles = snap_rounds * RESTORE_EVERY;
        let snap_main = new_sim(pass, net.clone(), light_uniform(&net), seed, snap_cycles);
        let snap_twin = new_sim(pass, net.clone(), light_uniform(&net), seed, snap_cycles);

        let trace_cycles = cfg.scaled(810_000, 2_000);
        let writer = Arc::new(Mutex::new(
            TraceWriter::create(
                tmp.join("trace"),
                net.packet_length(),
                net.node_count(),
                CHUNK_EVENTS,
            )
            .expect("trace directory"),
        ));
        let recording = RecordingTraffic::new(sparse_mmp(&net), Arc::clone(&writer));
        let record = new_sim(pass, net.clone(), Box::new(recording), seed, trace_cycles);

        let policies = [
            PolicyKind::NoDvfs,
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3)),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(80.0)),
        ];
        let loads: &[f64] = if cfg.scale > 1 {
            &[0.05]
        } else {
            &[0.10, 0.15, 0.20, 0.25]
        };
        let journal_units = shard_policy_grid("bench-4x4", &policies, loads, seed);
        let loop_cfg = if cfg.scale > 1 {
            ClosedLoopConfig {
                control_period_cycles: 300,
                warmup_intervals: 1,
                measure_intervals: 2,
                max_settle_intervals: 2,
                settle_tolerance: 0.05,
            }
        } else {
            ClosedLoopConfig::quick()
        };
        let journal_runner = operating_point_runner(loop_cfg);

        let storm_net = NetworkConfig::builder()
            .mesh(8, 8)
            .virtual_channels(2)
            .routing(RoutingKind::MinimalAdaptive)
            .faults(FaultConfig::none().with_hazard(HazardConfig::transient(1e-4, 5e-5, 150)))
            .build()
            .expect("valid configuration");
        let storm_cycles = cfg.scaled(136_000, 2_000);
        let storm = EngineCase::new(
            pass,
            "hazard_storm_adaptive8x8_0.05",
            storm_net.clone(),
            light_uniform(&storm_net),
            seed,
            storm_cycles,
        );

        let watched_cycles = cfg.scaled(198_000, 2_000);
        let mut watched = pass.span("netsim.sim.new", || {
            NocSimulation::new(net.clone(), light_uniform(&net), seed)
        });
        // A profiling pass keeps the whole run in the snapshot ring, but the
        // event trace stays on: exporting it is the case.
        let telemetry = if pass.mode == Mode::Profile {
            profile_telemetry(watched_cycles)
        } else {
            TelemetryConfig::default()
        };
        watched.install_telemetry(telemetry);

        Inputs {
            tmp,
            snap_main,
            snap_twin,
            snap_rounds,
            record,
            writer,
            trace_cycles,
            journal_units,
            journal_runner,
            storm,
            watched,
            watched_cycles,
        }
    }

    fn pass(cfg: &RunConfig, inputs: Inputs, pass: &mut Pass) {
        let Inputs {
            tmp,
            mut snap_main,
            mut snap_twin,
            snap_rounds,
            mut record,
            writer,
            trace_cycles,
            journal_units,
            journal_runner,
            storm,
            mut watched,
            watched_cycles,
        } = inputs;

        // Restore ≡ never-paused: the twin restores the checkpointed run's
        // latest snapshot every RESTORE_EVERY cycles, runs the next leg on its
        // own, and must arrive where the never-restored run arrives.
        pass.case("snapshot_roundtrip_8x8_0.05", |p| {
            let mut bytes = Vec::new();
            for round in 0..snap_rounds {
                let (main_ledger, twin_ledger) = p.timed(|p| {
                    for _ in 0..RESTORE_EVERY / SNAPSHOT_EVERY {
                        p.span("netsim.sim.run_cycles", || {
                            snap_main.run_cycles(SNAPSHOT_EVERY)
                        });
                        bytes =
                            p.span("netsim.snapshot.encode", || snap_main.snapshot().to_bytes());
                        if p.traced() {
                            p.layers.add("raw.snapshot_bytes", bytes.len() as f64);
                        }
                    }
                    p.span("netsim.sim.run_cycles", || {
                        snap_twin.run_cycles(RESTORE_EVERY)
                    });
                    let ledgers = (ledger(&snap_main), ledger(&snap_twin));
                    let snap = p.span("netsim.snapshot.decode", || SimSnapshot::from_bytes(&bytes));
                    let restored = p.span("netsim.snapshot.restore", || {
                        snap.map_err(|e| e.to_string())
                            .and_then(|s| snap_twin.restore(&s).map_err(|e| e.to_string()))
                    });
                    if let Err(e) = restored {
                        panic!("round {round}: snapshot did not restore: {e}");
                    }
                    ledgers
                });
                let mut v = Verdict::default();
                v.require(main_ledger == twin_ledger, || {
                    format!("round {round}: restored twin diverged from the never-paused run")
                });
                p.digest.stats(&main_ledger.1);
                p.op("snapshot round trip", v);
            }
            if p.traced() {
                p.layers.add(
                    "netsim.sim.cycles",
                    (2 * snap_rounds * RESTORE_EVERY) as f64,
                );
            }
            finish_engine(p, "snapshot_roundtrip_8x8_0.05", &mut snap_main, true);
        });

        let mut recorded = None;
        pass.case("trace_record_8x8_mmp_0.01", |p| {
            run_sliced(p, trace_cycles, |n| record.run_cycles(n));
            let events = p.timed(|p| {
                p.span("netsim.trace.finish", || {
                    writer
                        .lock()
                        .expect("trace writer lock")
                        .finish()
                        .map(|s| s.events)
                })
            });
            let mut v = Verdict::default();
            v.require(events.as_ref().is_ok_and(|&n| n > 0), || {
                format!("trace not written: {events:?}")
            });
            p.op("trace finish", v);
            if p.traced() {
                p.layers.add("netsim.sim.cycles", trace_cycles as f64);
            }
            recorded = Some(finish_engine(
                p,
                "trace_record_8x8_mmp_0.01",
                &mut record,
                true,
            ));
        });

        // Replay ≡ record, from a different seed: the trace alone must drive
        // the run.
        pass.case("trace_replay_8x8_mmp_0.01", |p| {
            let mut replay = p.timed(|p| {
                let traffic = p
                    .span("netsim.trace.open", || {
                        TraceTraffic::open(tmp.join("trace"))
                    })
                    .expect("finished trace opens");
                new_sim(
                    p,
                    mesh8x8(),
                    Box::new(traffic),
                    cfg.seed ^ 0x5eed,
                    trace_cycles,
                )
            });
            run_sliced(p, trace_cycles, |n| replay.run_cycles(n));
            if p.traced() {
                p.layers.add("netsim.sim.cycles", trace_cycles as f64);
            }
            let (c, w, s) = finish_engine(p, "trace_replay_8x8_mmp_0.01", &mut replay, true);
            let mut v = Verdict::default();
            v.require(
                recorded.as_ref().is_some_and(|(rc, rw, rs)| {
                    *rw == w
                        && *rs == s
                        && (rc.flits_generated, rc.flits_received, rc.packets_delivered)
                            == (c.flits_generated, c.flits_received, c.packets_delivered)
                }),
                || "replayed ledgers differ from the recorded run".to_string(),
            );
            p.op("replay equals record", v);
        });

        pass.case("journaled_sweep_4x4", |p| {
            let journal = tmp.join("sweep.jsonl");
            let coordinator = CoordinatorConfig::quick();
            let run = |p: &mut Pass, span: &'static str| {
                p.timed(|p| {
                    p.span(span, || {
                        run_sweep(
                            &journal_units,
                            Arc::clone(&journal_runner),
                            &journal,
                            &coordinator,
                        )
                    })
                })
                .expect("journal I/O")
            };
            let first = run(p, "core.coordinator.run_sweep");
            let mut v = Verdict::default();
            v.require(
                first.failures.is_empty() && first.results.len() == journal_units.len(),
                || {
                    format!(
                        "{} of {} points failed",
                        first.failures.len(),
                        journal_units.len()
                    )
                },
            );
            p.op("journaled sweep", v);
            for (key, value) in &first.results {
                p.digest.bytes(key.as_bytes());
                p.digest.bytes(value.as_bytes());
                if let Some(point) = noc_dvfs::decode_operating_point(value) {
                    p.flits += point.packets_delivered * journal_net().packet_length() as u64;
                }
            }
            let resumed = run(p, "core.coordinator.resume");
            let mut v = Verdict::default();
            v.require(resumed.resumed == journal_units.len(), || {
                format!(
                    "{} of {} points resumed",
                    resumed.resumed,
                    journal_units.len()
                )
            });
            v.require(resumed.results == first.results, || {
                "resumed results differ from the first run".to_string()
            });
            p.op("resumed sweep", v);
            if p.traced() {
                p.layers.add(
                    "core.coordinator.retries",
                    (first.retries + resumed.retries) as f64,
                );
                p.layers.add(
                    "core.coordinator.failed",
                    (first.failures.len() + resumed.failures.len()) as f64,
                );
            }
        });

        storm.run(pass);

        pass.case("telemetry_export_8x8_0.05", |p| {
            run_sliced(p, watched_cycles, |n| watched.run_cycles(n));
            let (perfetto, heat_json, heat_csv) = p.timed(|p| {
                let perfetto = p.span("netsim.telemetry.perfetto_export", || {
                    watched
                        .telemetry()
                        .map(|t| t.events().perfetto_json())
                        .unwrap_or_default()
                });
                let heat = p.span("netsim.telemetry.heatmap_export", || {
                    watched
                        .telemetry_heatmap()
                        .map(|h| (h.to_json(), h.to_csv()))
                        .unwrap_or_default()
                });
                (perfetto, heat.0, heat.1)
            });
            let mut v = Verdict::default();
            v.require(
                perfetto.contains("traceEvents") && perfetto.len() > 64,
                || "Perfetto export is empty".to_string(),
            );
            v.require(!heat_json.is_empty() && !heat_csv.is_empty(), || {
                "heatmap export is empty".to_string()
            });
            p.op("telemetry export", v);
            if p.traced() {
                p.layers.add("netsim.sim.cycles", watched_cycles as f64);
                let dropped = watched
                    .telemetry()
                    .map_or(0, |t| t.events().dropped_events());
                p.layers
                    .add("netsim.telemetry.dropped_events", dropped as f64);
            }
            finish_engine(p, "telemetry_export_8x8_0.05", &mut watched, true);
        });

        let _ = std::fs::remove_dir_all(&tmp);
    }

    fn probes(cfg: &RunConfig, pass: &mut Pass) {
        let tmp = cfg.out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        probe_trace_codec(cfg, pass, &tmp.join("codec"));
        probe_journal(cfg, pass, &tmp.join("constant.jsonl"));
        probe_telemetry_overhead(cfg, pass);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

/// The trace codec on its own: seeded synthetic injections written through
/// `TraceWriter` and scanned back through `TraceReader`, no simulation.
fn probe_trace_codec(cfg: &RunConfig, pass: &mut Pass, dir: &Path) {
    let events = cfg.scaled(400_000, 4_000);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut node_cycle = 0u64;
    let input: Vec<TraceEvent> = (0..events)
        .map(|_| {
            node_cycle += rng.gen_range(0..8usize) as u64;
            let src = rng.gen_range(0..64usize) as u32;
            let dst = rng.gen_range(0..64usize) as u32;
            TraceEvent {
                node_cycle,
                src,
                dst,
                tenant: 0,
            }
        })
        .collect();

    let t0 = Instant::now();
    let mut writer = TraceWriter::create(dir, 20, 64, CHUNK_EVENTS).expect("codec directory");
    for &e in &input {
        writer.record(e);
    }
    let written = writer.finish();
    let record_ns = t0.elapsed().as_nanos() as f64;

    let bytes: u64 = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);

    let t0 = Instant::now();
    let mut scanned = 0u64;
    let mut in_order = true;
    let mut chunk_loads = 0;
    if let Ok(mut reader) = TraceReader::open(dir) {
        while let Ok(Some(e)) = reader.next() {
            in_order &= input.get(scanned as usize) == Some(&e);
            scanned += 1;
        }
        chunk_loads = reader.chunk_loads();
    }
    let replay_ns = t0.elapsed().as_nanos() as f64;

    let mut v = Verdict::default();
    v.require(written.is_ok_and(|s| s.events == events), || {
        "codec write failed".to_string()
    });
    v.require(scanned == events && in_order, || {
        format!("codec read back {scanned} of {events} events (in order: {in_order})")
    });
    pass.op("trace codec round trip", v);
    let l = &mut pass.layers;
    l.set(
        "netsim.trace.record_ns_per_event",
        record_ns / events as f64,
    );
    l.set(
        "netsim.trace.replay_ns_per_event",
        replay_ns / events as f64,
    );
    l.set("netsim.trace.bytes_per_event", bytes as f64 / events as f64);
    l.set("netsim.trace.chunk_loads", chunk_loads as f64);
}

/// The journal on its own: a runner that returns a constant, so the time per
/// point is the coordinator's dispatch plus one atomic append.
fn probe_journal(cfg: &RunConfig, pass: &mut Pass, journal: &Path) {
    let points = cfg.scaled(256, 8) as usize;
    let units: Vec<WorkUnit> = (0..points)
        .map(|i| {
            WorkUnit::new(
                "constant",
                PolicyKind::NoDvfs,
                i as f64 / points as f64,
                cfg.seed,
            )
        })
        .collect();
    let runner: Arc<PointRunner> = Arc::new(|_unit, _ctx| Ok("constant".to_string()));
    let t0 = Instant::now();
    let report = run_sweep(&units, runner, journal, &CoordinatorConfig::quick());
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let mut v = Verdict::default();
    v.require(
        report.is_ok_and(|r| r.results.len() == points && r.failures.is_empty()),
        || "constant-runner sweep did not complete".to_string(),
    );
    pass.op("journal probe", v);
    pass.layers
        .set("core.coordinator.journal_us_per_point", us / points as f64);
}

/// The same light 8×8 run with and without the telemetry layer installed.
/// The watched run must also be bit-identical to the unwatched one.
fn probe_telemetry_overhead(cfg: &RunConfig, pass: &mut Pass) {
    let net = mesh8x8();
    let cycles = cfg.scaled(200_000, 2_000);
    let run = |watched: bool| {
        let mut sim = NocSimulation::new(net.clone(), light_uniform(&net), cfg.seed);
        if watched {
            sim.install_telemetry(TelemetryConfig::default());
        }
        let t0 = Instant::now();
        sim.run_cycles(cycles);
        (t0.elapsed().as_secs_f64(), sim.take_window(), *sim.stats())
    };
    let off = run(false);
    let on = run(true);
    let mut v = Verdict::default();
    v.require((off.1, off.2) == (on.1, on.2), || {
        "telemetry perturbed the run".to_string()
    });
    pass.op("telemetry zero perturbation", v);
    pass.layers
        .set("netsim.telemetry.on_overhead_frac", on.0 / off.0 - 1.0);
}
