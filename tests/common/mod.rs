//! The engine modes every golden and record→replay contract must hold under,
//! selected through the simulation's own setters, and the checked stepping
//! the invariant suites share.

// Each suite that includes this module uses its own part of it.
#![allow(dead_code)]

use noc_sim::{NocSimulation, Topology, TrafficPattern, TrafficSpec};
use rand::rngs::StdRng;

/// One way of stepping a simulation.
pub struct EngineMode {
    pub name: &'static str,
    skipping: bool,
    workers: usize,
}

/// Sparse with event-horizon skipping (the default), sparse on base ticks,
/// and the sparse engine with two island workers.
pub const ENGINE_MODES: [EngineMode; 3] = [
    EngineMode { name: "sparse+skip", skipping: true, workers: 1 },
    EngineMode { name: "sparse+no-skip", skipping: false, workers: 1 },
    EngineMode { name: "2 island workers", skipping: true, workers: 2 },
];

impl EngineMode {
    /// Puts `sim` on this mode's engine.
    pub fn select(&self, sim: &mut NocSimulation) {
        sim.set_event_skipping(self.skipping);
    }

    /// Advances `sim` by `cycles` under this mode. On a single-island
    /// configuration the worker count clamps to the serial step, which must
    /// hold the same goldens.
    pub fn run(&self, sim: &mut NocSimulation, cycles: u64) {
        sim.run_cycles_with_workers(cycles, self.workers);
    }
}

/// Advances `sim` by `cycles` one tick at a time and checks its invariants
/// after every tick ([`NocSimulation::check_invariants`]), panicking with
/// the first violation — the clause, the router and the cycle.
pub fn run_checked(sim: &mut NocSimulation, cycles: u64) {
    for _ in 0..cycles {
        sim.run_cycles(1);
        if let Err(violation) = sim.check_invariants() {
            panic!("{violation}");
        }
    }
}

/// Traffic that is provably silent until `burst_start` node cycles, offers
/// Bernoulli uniform load until `burst_end`, then goes silent forever —
/// the event-horizon contract's stateful-source shape
/// ([`TrafficSpec::silent_node_cycles`] / [`TrafficSpec::skip_node_cycles`]).
#[derive(Debug)]
pub struct QuiescentThenBurst {
    pub burst_start: u64,
    pub burst_end: u64,
    pub rate: f64,
    pub packet_length: usize,
}

impl TrafficSpec for QuiescentThenBurst {
    fn packet_length(&self) -> usize {
        self.packet_length
    }
    fn offered_load(&self) -> f64 {
        self.rate
    }
    fn maybe_generate(
        &mut self,
        src: usize,
        node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if node_cycle < self.burst_start || node_cycle >= self.burst_end {
            return None;
        }
        use rand::Rng;
        if rng.gen_bool((self.rate / self.packet_length as f64).min(1.0)) {
            TrafficPattern::Uniform.destination(src, topo, rng)
        } else {
            None
        }
    }
    fn silent_node_cycles(&self, from_node_cycle: u64) -> u64 {
        if from_node_cycle >= self.burst_end {
            u64::MAX
        } else {
            self.burst_start.saturating_sub(from_node_cycle)
        }
    }
}
