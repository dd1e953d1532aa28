//! The engine modes every golden and record→replay contract must hold under,
//! selected through the simulation's own setters, and the checked stepping
//! the invariant suites share.

// Each suite that includes this module uses its own part of it.
#![allow(dead_code)]

use noc_sim::NocSimulation;

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
