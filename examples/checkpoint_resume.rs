//! Crash-safe sweeps end to end: journaled progress, a simulated kill,
//! resume, chaos mode, and snapshot warm-starts.
//!
//! ```text
//! cargo run --release --example checkpoint_resume [-- --chaos]
//! ```
//!
//! Four demonstrations on a power-gated, fault-ridden 4×4 torus:
//!
//! 1. **The uninterrupted reference.** A `(policy × load)` sweep runs to
//!    completion through [`run_sweep`], journaling every operating point.
//! 2. **Kill partway, resume.** The same sweep is "killed" after a prefix
//!    of the grid (the process simply stops dispatching, as if SIGKILLed
//!    between points — the journal on disk is always a valid prefix). A
//!    fresh coordinator pointed at the same journal re-runs *only* the
//!    missing points, and the merged journal is byte-identical to the
//!    uninterrupted one.
//! 3. **Chaos mode** (`--chaos`, always summarised). Worker attempts are
//!    randomly killed mid-point; retries with exponential backoff converge
//!    to — again — the byte-identical journal.
//! 4. **Snapshot warm-start.** A long point checkpoints a full
//!    [`SimSnapshot`] between work chunks; a crashed attempt resumes from
//!    the latest checkpoint instead of from scratch, and the bit-identity
//!    contract of the snapshot subsystem makes the warm-started result
//!    indistinguishable from a never-crashed one.

use noc_dvfs_repro::dvfs::coordinator::{
    run_sweep, shard_policy_grid, ChaosConfig, CoordinatorConfig, PointContext, PointRunner,
    WorkUnit,
};
use noc_dvfs_repro::dvfs::{
    encode_operating_point, run_operating_point, ClosedLoopConfig, DmsdConfig, PolicyKind,
    RmsdConfig,
};
use noc_dvfs_repro::sim::{
    FaultConfig, GatingConfig, HazardConfig, NetworkConfig, NocSimulation, SimSnapshot,
    SnapshotError, SyntheticTraffic, TrafficPattern,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The gated, faulted torus every sweep below runs on.
fn torus_under_fire() -> NetworkConfig {
    NetworkConfig::builder()
        .torus(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .gating(GatingConfig::enabled(24, 8))
        .faults(FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 1e-4,
            router_rate: 5e-5,
            transient_fraction: 1.0,
            transient_duration: 150,
        }))
        .build()
        .expect("gated faulted torus configuration is valid")
}

/// The real operating-point runner: each work unit is one closed-loop
/// co-simulation, encoded bit-exactly for the journal.
fn operating_point_runner() -> Arc<PointRunner> {
    let net = torus_under_fire();
    let loop_cfg = ClosedLoopConfig::quick();
    Arc::new(move |unit: &WorkUnit, ctx: &mut PointContext| {
        // Let chaos mode kill this attempt "mid-point".
        ctx.checkpoint_tick();
        let traffic =
            SyntheticTraffic::new(TrafficPattern::Uniform, unit.load, net.packet_length());
        let point =
            run_operating_point(&net, Box::new(traffic), unit.policy.clone(), &loop_cfg, unit.seed);
        Ok(encode_operating_point(&point))
    })
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("journal exists")
}

fn main() {
    let chaos_requested = std::env::args().any(|a| a == "--chaos");
    let dir = std::env::temp_dir().join(format!("checkpoint-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = |name: &str| -> PathBuf { dir.join(name) };

    let policies = [
        PolicyKind::NoDvfs,
        PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3)),
        PolicyKind::Dmsd(DmsdConfig::with_target_ns(150.0)),
    ];
    let loads = [0.05, 0.10];
    let grid = shard_policy_grid("torus-under-fire", &policies, &loads, 2015);
    let cfg = CoordinatorConfig::quick();

    // --- 1. the uninterrupted reference sweep --------------------------------
    println!("=== 1. uninterrupted sweep ({} points) ===", grid.len());
    let reference =
        run_sweep(&grid, operating_point_runner(), &journal("clean.jsonl"), &cfg).unwrap();
    assert!(reference.failures.is_empty());
    for (key, _) in &reference.results {
        println!("  done  {key}");
    }

    // --- 2. killed partway, resumed from the journal -------------------------
    // Simulate a hard kill: a first process only gets through a prefix of the
    // grid before dying. Its journal is a valid prefix — that is the whole
    // crash-safety contract of the atomic append.
    println!("\n=== 2. kill after 2 points, then resume ===");
    let partial = &grid[..2];
    run_sweep(partial, operating_point_runner(), &journal("resumed.jsonl"), &cfg).unwrap();
    println!("  \"crashed\" with {} of {} points journaled", partial.len(), grid.len());
    let resumed =
        run_sweep(&grid, operating_point_runner(), &journal("resumed.jsonl"), &cfg).unwrap();
    println!(
        "  resumed: {} points from the journal, {} recomputed",
        resumed.resumed,
        grid.len() - resumed.resumed
    );
    assert_eq!(resumed.resumed, partial.len());
    assert_eq!(
        read(&journal("resumed.jsonl")),
        read(&journal("clean.jsonl")),
        "the merged journal must equal the uninterrupted one byte for byte"
    );
    println!("  merged journal is byte-identical to the uninterrupted sweep");

    // --- 3. chaos mode -------------------------------------------------------
    // With --chaos the kill rate is cranked up; either way the converged
    // artifact must match the reference exactly.
    let kill_probability = if chaos_requested { 0.9 } else { 0.4 };
    println!("\n=== 3. chaos mode (kill probability {kill_probability}) ===");
    let chaos_cfg = CoordinatorConfig::quick()
        .with_chaos(ChaosConfig { kill_probability, seed: 0xC4A0 });
    let chaos =
        run_sweep(&grid, operating_point_runner(), &journal("chaos.jsonl"), &chaos_cfg).unwrap();
    assert!(chaos.failures.is_empty(), "chaos sweeps must converge");
    println!("  {} worker kills absorbed via retry", chaos.retries);
    assert_eq!(
        read(&journal("chaos.jsonl")),
        read(&journal("clean.jsonl")),
        "the chaos journal must equal the uninterrupted one byte for byte"
    );
    println!("  chaos journal is byte-identical to the uninterrupted sweep");

    // --- 4. snapshot warm-start ----------------------------------------------
    // A long point that checkpoints a full simulator snapshot between chunks:
    // the first attempt is killed mid-point, the retry warm-starts from the
    // last checkpoint, and the final ledger still matches a run that never
    // crashed — the snapshot bit-identity contract doing its job.
    println!("\n=== 4. snapshot warm-start of a long point ===");
    let long_unit = WorkUnit::new("long-point", PolicyKind::NoDvfs, 0.10, 7);
    let runner: Arc<PointRunner> = Arc::new(|unit: &WorkUnit, ctx: &mut PointContext| {
        let net = torus_under_fire();
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, unit.load, net.packet_length());
        let mut sim = NocSimulation::new(net, Box::new(traffic), unit.seed);
        if let Some(bytes) = ctx.load_checkpoint() {
            match SimSnapshot::from_bytes(&bytes).and_then(|snap| sim.restore(&snap)) {
                Ok(()) => println!("    warm-start from cycle {}", sim.current_cycle()),
                // A checkpoint left behind by another format version or
                // another configuration is stale, not torn. Both are refused
                // before any state is touched: the point starts at cycle 0.
                Err(e @ (SnapshotError::UnsupportedVersion(_) | SnapshotError::ConfigMismatch)) => {
                    println!("    stale checkpoint ({e}): cold start")
                }
                Err(e) => return Err(format!("checkpoint of {}: {e}", unit.key)),
            }
        }
        while sim.current_cycle() < 2_000 {
            sim.run_cycles(400);
            ctx.save_checkpoint(&sim.snapshot().to_bytes());
        }
        let c = sim.counters();
        Ok(format!(
            "cycle={} generated={} delivered={} dropped={} gated={}",
            c.cycle, c.flits_generated, c.packets_delivered, c.flits_dropped, c.gated_routers,
        ))
    });
    let warm_cfg = CoordinatorConfig::quick()
        .with_chaos(ChaosConfig { kill_probability: 1.0, seed: 1 });
    let killed = run_sweep(
        std::slice::from_ref(&long_unit),
        Arc::clone(&runner),
        &journal("warm.jsonl"),
        &warm_cfg,
    )
    .unwrap();
    assert!(killed.failures.is_empty());
    assert!(killed.retries > 0, "the first attempt must have been chaos-killed");
    let cold = run_sweep(&[long_unit], runner, &journal("cold.jsonl"), &cfg).unwrap();
    assert_eq!(
        killed.results[0].1, cold.results[0].1,
        "warm-started ledger must be bit-identical to the never-crashed run"
    );
    println!("  warm-started result: {}", killed.results[0].1);
    println!("  …identical to the never-crashed run");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nAll checkpoint/resume invariants held.");
}
