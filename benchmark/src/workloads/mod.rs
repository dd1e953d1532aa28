//! The four workloads and what they share.
//!
//! Every workload is a fixed list of cases with fixed cycle / point counts,
//! identical on every commit. `setup` builds everything a pass needs
//! (configurations, traffic sources, simulations, temporary directories) and
//! is timed as `setup_s`; `pass` runs the cases and is timed as
//! `pass_wall_s`. The program under test only ever receives the generated
//! inputs — the seed stays in the benchmark.

pub mod checkpoint_replay;
pub mod fig_sweep;
pub mod loaded_fabric;
pub mod sparse_idle;

use crate::pass::{Pass, RunConfig, Verdict};
use noc_sim::{
    NetworkConfig, NocSimulation, SimCounters, SimStats, TrafficSpec, WindowMeasurement,
};
use std::time::Instant;

/// One workload: a name, a reason, and the two halves of a pass.
pub trait Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One line: why this workload exists.
    const WHY: &'static str;
    /// Everything `pass` consumes.
    type Inputs;

    /// Builds the inputs of one pass (untimed region, reported as `setup_s`).
    fn setup(cfg: &RunConfig, pass: &mut Pass) -> Self::Inputs;

    /// Runs every case once.
    fn pass(cfg: &RunConfig, inputs: Self::Inputs, pass: &mut Pass);

    /// Layer probes that need more than one pass's spans; run once, after
    /// the traced passes. The default has none.
    fn probes(_cfg: &RunConfig, _pass: &mut Pass) {}
}

/// `(name, why)` of every workload, in reporting order.
pub const ALL: [(&str, &str); 4] = [
    (fig_sweep::FigSweep::NAME, fig_sweep::FigSweep::WHY),
    (
        loaded_fabric::LoadedFabric::NAME,
        loaded_fabric::LoadedFabric::WHY,
    ),
    (sparse_idle::SparseIdle::NAME, sparse_idle::SparseIdle::WHY),
    (
        checkpoint_replay::CheckpointReplay::NAME,
        checkpoint_replay::CheckpointReplay::WHY,
    ),
];

/// Timed slices an engine run is cut into (see [`Pass::timed`]).
const SLICES: u64 = 8;

/// Advances a simulation by `cycles` in [`SLICES`] timed slices, each one
/// `step(n)` call inside a `netsim.sim.run_cycles` span. Where the cuts fall
/// does not change simulated results.
pub fn run_sliced(pass: &mut Pass, cycles: u64, mut step: impl FnMut(u64)) {
    let per = cycles / SLICES;
    for slice in 0..SLICES {
        let n = if slice + 1 == SLICES {
            cycles - per * (SLICES - 1)
        } else {
            per
        };
        if n > 0 {
            pass.timed(|p| p.span("netsim.sim.run_cycles", || step(n)));
        }
    }
}

/// How an engine case advances its simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// `run_cycles`.
    Plain,
    /// `run_cycles_with_workers(_, n)` (per-island threads). Run and checked
    /// in every pass but kept out of the pass time: the workers meet at two
    /// barriers per cycle, so the case times the wake-up latency of the
    /// virtual machine — 36 to 110 µs per cycle for the same binary within
    /// one afternoon on the reference box — and at half a second it would
    /// move `pass_wall_s` by more than its bound with no change to the code.
    Workers(usize),
    /// `windows` control windows of `run_cycles(period); take_window();
    /// reset_activity()` — the bookkeeping a DVFS controller pays per update.
    Windows {
        /// Cycles per window.
        period: u64,
    },
}

/// A raw-engine case: one simulation stepped for a fixed cycle count.
#[derive(Debug)]
pub struct EngineCase {
    /// Case name (also the span name).
    pub name: &'static str,
    /// The simulation, built in `setup`.
    pub sim: NocSimulation,
    /// Base cycles to simulate.
    pub cycles: u64,
    /// How to advance it.
    pub stepping: Stepping,
    /// Whether the case injects traffic at all (the idle-window case does
    /// not, so "delivered > 0" is not required of it).
    pub expect_traffic: bool,
}

impl EngineCase {
    /// Builds the simulation inside a `netsim.sim.new` span and, in a
    /// profiling pass, installs the telemetry it is read through.
    pub fn new(
        pass: &mut Pass,
        name: &'static str,
        net: NetworkConfig,
        traffic: Box<dyn TrafficSpec>,
        seed: u64,
        cycles: u64,
    ) -> Self {
        let sim = new_sim(pass, net, traffic, seed, cycles);
        EngineCase {
            name,
            sim,
            cycles,
            stepping: Stepping::Plain,
            expect_traffic: true,
        }
    }

    /// The same case under another stepping path.
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Marks the case as injecting nothing.
    pub fn idle(mut self) -> Self {
        self.expect_traffic = false;
        self
    }

    /// Runs the case: the stepping is timed, the checks are not.
    pub fn run(self, pass: &mut Pass) {
        let EngineCase {
            name,
            mut sim,
            cycles,
            stepping,
            expect_traffic,
        } = self;
        pass.case(name, |p| {
            let t0 = Instant::now();
            match stepping {
                Stepping::Plain => run_sliced(p, cycles, |n| sim.run_cycles(n)),
                Stepping::Workers(workers) => p.host_bound(name, |p| {
                    p.span("netsim.sim.run_cycles", || {
                        sim.run_cycles_with_workers(cycles, workers);
                    });
                }),
                Stepping::Windows { period } => {
                    let windows = cycles / period;
                    for slice in 0..SLICES {
                        p.timed(|p| {
                            for _ in windows * slice / SLICES..windows * (slice + 1) / SLICES {
                                p.span("netsim.sim.run_cycles", || sim.run_cycles(period));
                                p.enter("netsim.sim.window");
                                let w = sim.take_window();
                                sim.reset_activity();
                                p.exit();
                                p.digest.u64(w.noc_cycles);
                            }
                        });
                    }
                }
            }
            if p.traced() {
                p.layers.add("netsim.sim.cycles", cycles as f64);
                if let Stepping::Workers(n) = stepping {
                    p.layers.add(
                        "raw.worker_wall_ns",
                        t0.elapsed().as_nanos() as f64 * n as f64,
                    );
                }
            }
            let timed_flits = p.flits;
            finish_engine(p, name, &mut sim, expect_traffic);
            if matches!(stepping, Stepping::Workers(_)) {
                // Out of the pass time, so out of `host_ns_per_flit` too.
                p.flits = timed_flits;
            }
        });
    }
}

/// Builds a configuration the benchmark knows to be valid.
pub fn built(builder: noc_sim::NetworkConfigBuilder) -> NetworkConfig {
    builder.build().expect("valid configuration")
}

/// Uniform Bernoulli injection at `rate` flits per node cycle.
pub fn uniform(net: &NetworkConfig, rate: f64) -> Box<dyn TrafficSpec> {
    Box::new(noc_sim::SyntheticTraffic::new(
        noc_sim::TrafficPattern::Uniform,
        rate,
        net.packet_length(),
    ))
}

/// `NocSimulation::new` inside its span, instrumented for the pass's mode.
pub fn new_sim(
    pass: &mut Pass,
    net: NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    seed: u64,
    cycles: u64,
) -> NocSimulation {
    let mut sim = pass.span("netsim.sim.new", || NocSimulation::new(net, traffic, seed));
    pass.instrument(&mut sim, cycles);
    sim
}

/// Checks, digests and counts a finished engine run as one operation: the
/// flit ledger `generated = received + dropped + in_transit` must balance,
/// every reported number must be finite, and a case with traffic must have
/// delivered packets. Returns the ledgers it read, for cases that compare two
/// runs against each other.
pub fn finish_engine(
    pass: &mut Pass,
    name: &str,
    sim: &mut NocSimulation,
    expect_traffic: bool,
) -> (SimCounters, WindowMeasurement, SimStats) {
    let c = sim.counters();
    let w = sim.take_window();
    let mut v = Verdict::default();
    v.require(
        c.flits_generated == c.flits_received + c.flits_dropped + c.in_transit_flits(),
        || {
            format!(
                "flit ledger: generated {} != received {} + dropped {} + in transit {}",
                c.flits_generated,
                c.flits_received,
                c.flits_dropped,
                c.in_transit_flits()
            )
        },
    );
    v.require(!expect_traffic || c.packets_delivered > 0, || {
        "no packet delivered".to_string()
    });
    v.finite(
        "counters",
        &[
            c.wall_time_ps,
            c.reachable_pairs,
            w.wall_time_ps,
            w.delay_ps_sum,
        ],
    );
    pass.digest.counters(&c);
    pass.digest.window(&w);
    pass.digest.stats(sim.stats());
    pass.flits += c.flits_received;
    pass.harvest(sim);
    pass.op(name, v);
    (c, w, *sim.stats())
}

/// `netsim.traffic.draw_ns`: mean nanoseconds of one `maybe_generate` call,
/// over the three source kinds the workloads use (Bernoulli, Markov-modulated
/// and matrix injection) on an 8×8 grid at 0.1 flits per node cycle. Batched,
/// because one draw is far shorter than two clock reads.
pub fn probe_traffic_draw(cfg: &RunConfig, pass: &mut Pass) {
    use noc_sim::{BurstyTraffic, MatrixTraffic, SyntheticTraffic, TrafficPattern};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    const NODES: usize = 64;
    let node_cycles = cfg.scaled(2_000, 20);
    let net = NetworkConfig::builder()
        .mesh(8, 8)
        .build()
        .expect("valid configuration");
    let topo = net.topology();
    let length = net.packet_length();
    let row = |src: usize| {
        (0..NODES)
            .map(|dst| if dst == src { 0.0 } else { 0.1 / 63.0 })
            .collect()
    };
    let mut sources: [Box<dyn TrafficSpec>; 3] = [
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, length)),
        Box::new(BurstyTraffic::new(
            TrafficPattern::Uniform,
            0.1,
            length,
            200.0,
            4.0,
        )),
        Box::new(MatrixTraffic::new((0..NODES).map(row).collect(), length)),
    ];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut generated = 0u64;
    let t0 = Instant::now();
    for source in &mut sources {
        // The engine's draw order: nodes ascending within a node cycle.
        for node_cycle in 0..node_cycles {
            for src in 0..NODES {
                generated += u64::from(
                    source
                        .maybe_generate(src, node_cycle, &topo, &mut rng)
                        .is_some(),
                );
            }
        }
    }
    let calls = (sources.len() as u64 * node_cycles * NODES as u64) as f64;
    pass.layers.set(
        "netsim.traffic.draw_ns",
        t0.elapsed().as_nanos() as f64 / calls,
    );
    std::hint::black_box(generated);
}
