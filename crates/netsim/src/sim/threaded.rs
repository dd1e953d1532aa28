//! Per-island parallel stepping: the second driver of the pipeline kernel.
//!
//! Islands are round-robin-partitioned over scoped worker threads, which run
//! [`tick_router`] over their islands' slice of the active worklist each
//! base tick; everything else (clocks, gating, faults, generation, wheel
//! deliveries, injection) runs on the calling thread between two barrier
//! waits. A worker never applies an effect on shared state — it does not even
//! send: it parks each visited node's traversal output, emitted flits and
//! credits included, and after the closing barrier the main thread hands the
//! parked outputs, in ascending node order, to the same
//! [`Effects::apply`](super::pipeline::Effects::apply) the serial driver
//! calls — which is the order the serial driver visits and applies in, so
//! threaded ≡ serial bit for bit. Event-horizon jumps bypass the barriers
//! entirely — workers only wake for full steps.

use super::islands::IslandDomain;
use super::pipeline::{tick_router, NodeLanes, PipelineView, Visit};
use super::worklist::NodeSet;
use super::{NocSimulation, Tick};
use crate::clock::DualClock;
use crate::fault::FaultState;
use crate::gating::GatingController;
use crate::router::{Router, TraversalOutput};
use crate::routing::RoutingAlgorithm;
use crate::telemetry::RouterProbe;
use crate::topology::Topology;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One router tick a worker ran and the main thread has yet to apply.
#[derive(Debug, Default)]
struct Parked {
    node: u32,
    visit: Visit,
    out: TraversalOutput,
}

/// One worker's parked ticks of one base tick. The slots (and the vectors
/// inside their traversal outputs) are reused tick after tick, so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
struct ParkingLot {
    slots: Vec<Parked>,
    used: usize,
}

impl ParkingLot {
    fn next_slot(&mut self) -> &mut Parked {
        if self.used == self.slots.len() {
            self.slots.push(Parked::default());
        }
        self.used += 1;
        &mut self.slots[self.used - 1]
    }
}

/// The simulation as the pipeline workers see it, republished by the main
/// thread before every opening barrier: the simulation itself, to be read,
/// and the bases of the two per-node arrays workers write into.
///
/// # Disjointness argument
///
/// Workers dereference these pointers only between the two per-tick barrier
/// waits, while the main thread — the only other party — is parked on the
/// barrier and touches nothing; the barrier orders the publication before
/// the workers' loads and the workers' writes before the main thread's next
/// access. In that span a worker
///
/// * holds a plain `&NocSimulation` and reads through it only state nobody
///   writes until the closing barrier: topology, routing, neighbour table,
///   gating controller, fault state, island clocks and masks, worklist
///   words, the clock. It never reaches the routers, wheels or telemetry
///   through that reference.
/// * forms `&mut` only to the [`NodeLanes`] of the node it is visiting —
///   `routers[node]` and `telemetry.routers[node]` — from the array bases,
///   which the main thread took from `&mut` borrows of the arrays. A node
///   belongs to one island and an island to one worker, so no two threads
///   ever hold lanes of the same node.
///
/// Every other write of the pipeline phase is parked and applied by the main
/// thread after the closing barrier. Worker wall-time profiling does not go
/// through these pointers either: it accumulates into per-worker atomics
/// that the main thread folds into the `EngineProfile` after the scope ends.
#[derive(Default)]
struct SimPtr {
    sim: AtomicPtr<NocSimulation>,
    routers: AtomicPtr<Router>,
    /// Null while no telemetry is installed.
    probes: AtomicPtr<RouterProbe>,
}

/// What the workers read through their shared `&NocSimulation` must be
/// shareable between threads; the compiler checks the field types here.
const _: fn() = || {
    fn shareable<T: Sync>() {}
    shareable::<(Topology, Box<dyn RoutingAlgorithm>, GatingController, Option<FaultState>)>();
    shareable::<(DualClock, Vec<IslandDomain>, NodeSet)>();
};

impl SimPtr {
    fn publish(&self, sim: &mut NocSimulation) {
        let probes = sim.telemetry.as_deref_mut().map(|t| t.routers.as_mut_ptr());
        self.probes.store(probes.unwrap_or(std::ptr::null_mut()), Ordering::Relaxed);
        self.routers.store(sim.routers.as_mut_ptr(), Ordering::Relaxed);
        self.sim.store(sim, Ordering::Relaxed);
    }
}

/// The worker-side driver: the kernel over the active routers of the given
/// islands that fire this tick, each tick parked in `lot`.
fn pipeline_for_islands<'l>(
    sim: &NocSimulation,
    worker_islands: &[usize],
    mut lanes: impl FnMut(usize) -> NodeLanes<'l>,
    lot: &mut ParkingLot,
) {
    let view = PipelineView::new(
        sim.tick_ctx(),
        &sim.topo,
        sim.routing.as_ref(),
        &sim.neighbor_table,
        sim.faults.as_ref(),
    );
    lot.used = 0;
    for &island in worker_islands {
        if !sim.islands[island].fires {
            continue;
        }
        for (widx, &mask) in sim.island_masks[island].iter().enumerate() {
            let mut w = sim.active.words[widx] & mask;
            while w != 0 {
                let node = (widx << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                let parked = lot.next_slot();
                parked.node = node as u32;
                parked.visit = tick_router(&view, &sim.gating, node, lanes(node), &mut parked.out);
            }
        }
    }
}

impl NocSimulation {
    /// The threaded cycle loop (see the [module docs](self)).
    #[allow(unsafe_code)]
    pub(super) fn run_cycles_parallel(&mut self, cycles: u64, workers: usize) {
        let island_count = self.islands.len();
        let barrier = Barrier::new(workers + 1);
        let stop = AtomicBool::new(false);
        let shared = SimPtr::default();
        let lots: Vec<Mutex<ParkingLot>> = (0..workers).map(|_| Mutex::default()).collect();
        let profiling = self.profiling();
        // Per-worker busy-time counters live outside the simulation so the
        // workers never write into the telemetry state's profile.
        let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for (w, (lot, busy)) in lots.iter().zip(&busy).enumerate() {
                let worker_islands: Vec<usize> = (w..island_count).step_by(workers).collect();
                let (barrier, stop, shared) = (&barrier, &stop, &shared);
                scope.spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let mut lot = lot.lock().expect("worker parking lot poisoned");
                    let t0 = profiling.then(Instant::now);
                    // SAFETY: between the barriers, with `worker_islands`
                    // disjoint across workers — see [`SimPtr`].
                    unsafe {
                        let routers = shared.routers.load(Ordering::Relaxed);
                        let probes = shared.probes.load(Ordering::Relaxed);
                        let lanes = |node: usize| NodeLanes {
                            router: &mut *routers.add(node),
                            probe: (!probes.is_null()).then(|| &mut *probes.add(node)),
                        };
                        let sim = &*shared.sim.load(Ordering::Relaxed);
                        pipeline_for_islands(sim, &worker_islands, lanes, &mut lot);
                    }
                    if let Some(t0) = t0 {
                        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    drop(lot);
                    barrier.wait();
                });
            }
            // The main thread's side of the lots: swapped with the workers'
            // after every closing barrier, so replay holds no lock.
            let mut parked: Vec<ParkingLot> = (0..workers).map(|_| ParkingLot::default()).collect();
            let mut order: Vec<(u32, usize, usize)> = Vec::new();
            self.run_with(cycles, |sim, tick| {
                shared.publish(sim);
                barrier.wait(); // open: workers run the kernel on their islands
                barrier.wait(); // close: every worker's lot is sealed
                for (mine, theirs) in parked.iter_mut().zip(&lots) {
                    std::mem::swap(mine, &mut theirs.lock().expect("worker parking lot poisoned"));
                }
                sim.apply_parked(tick, &parked, &mut order);
            });
            stop.store(true, Ordering::Release);
            barrier.wait();
        });
        if let Some(t) = self.telemetry.as_deref_mut().filter(|_| profiling) {
            let profile = t.profile_mut();
            profile.ensure_workers(workers);
            for (slot, ns) in profile.worker_busy_ns.iter_mut().zip(&busy) {
                *slot += ns.load(Ordering::Relaxed);
            }
        }
    }

    /// Applies every worker's parked ticks in ascending node order — the
    /// order the serial driver visits in — through the serial effects
    /// path.
    fn apply_parked(
        &mut self,
        tick: Tick,
        parked: &[ParkingLot],
        order: &mut Vec<(u32, usize, usize)>,
    ) {
        order.clear();
        for (worker, lot) in parked.iter().enumerate() {
            order.extend(lot.slots[..lot.used].iter().enumerate().map(|(i, p)| (p.node, worker, i)));
        }
        order.sort_unstable();
        let mut fx = self.serial_pipeline(tick).fx;
        for &(node, worker, slot) in order.iter() {
            let parked = &parked[worker].slots[slot];
            fx.apply(node as usize, parked.visit, &parked.out);
        }
    }
}
