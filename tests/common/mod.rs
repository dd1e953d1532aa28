//! The engine modes every golden and record→replay contract must hold under,
//! selected through the simulation's own setters.

use noc_sim::NocSimulation;

/// One way of stepping a simulation.
pub struct EngineMode {
    pub name: &'static str,
    dense: bool,
    skipping: bool,
    workers: usize,
}

/// Sparse with event-horizon skipping (the default), sparse on base ticks,
/// the dense reference, and the sparse engine with two island workers.
pub const ENGINE_MODES: [EngineMode; 4] = [
    EngineMode { name: "sparse+skip", dense: false, skipping: true, workers: 1 },
    EngineMode { name: "sparse+no-skip", dense: false, skipping: false, workers: 1 },
    EngineMode { name: "dense", dense: true, skipping: false, workers: 1 },
    EngineMode { name: "2 island workers", dense: false, skipping: true, workers: 2 },
];

impl EngineMode {
    /// Puts `sim` on this mode's engine.
    pub fn select(&self, sim: &mut NocSimulation) {
        sim.set_dense_stepping(self.dense);
        sim.set_event_skipping(self.skipping);
    }

    /// Advances `sim` by `cycles` under this mode. On a single-island
    /// configuration the worker count clamps to the serial step, which must
    /// hold the same goldens.
    pub fn run(&self, sim: &mut NocSimulation, cycles: u64) {
        sim.run_cycles_with_workers(cycles, self.workers);
    }
}
