//! Generation runs ahead: on a long call, phase 2's draws move to a helper
//! thread and the engine only queues what they emit.
//!
//! [`TrafficSpec::generate_tick`] reads the spec, the generator and the
//! clock schedule, never network state, so nothing the engine does during a
//! call can change what it returns. When a [`run_cycles`] call owes enough
//! draws ([`NocSimulation::generation_runs_ahead`]), a scoped helper takes
//! the spec and the generator for the call, walks a clone of the
//! [`DualClock`] through the call's ticks exactly as phase 1 does, and makes
//! the one `generate_tick` call phase 2 would make for every tick that
//! completes node cycles. Each tick's emits become one batch — a word per
//! packet, then the tick's start node cycle — in a stream of chunks that
//! circulate between the two threads through two bounded channels, filled
//! ones to the engine and drained ones back: at most [`CHUNKS`] exist, each
//! at most 64 KiB, so a send never waits. Phase 2 drains the tick's batch
//! through the same `queue_packet` closure the inline path feeds, so packet
//! ids, stamps, window and tenant counts and the pending bit stay on the
//! engine thread, in emit order, and the result is bit-identical.
//!
//! **Silence hands the spec back.** A serial run skips a generating tick
//! only when the spec declares it silent. The helper therefore generates a
//! batch only for a tick that is not silent at its start, and stops at the
//! first one that is; the engine takes the spec back once it has drained
//! every batch and finishes the call inline. While the helper holds the
//! spec, the skip routine grants no silent node cycles, so it skips exactly
//! the ticks a serial run would: the ones that emit no node cycle.
//!
//! While lent out, the spec's slot in the simulation holds [`Lent`], which
//! panics if used. A helper panic resurfaces from `run_cycles`; an engine
//! panic drops the engine's channel ends before the scope joins, so a
//! waiting helper returns.
//!
//! [`run_cycles`]: NocSimulation::run_cycles

use super::NocSimulation;
use crate::clock::DualClock;
use crate::topology::Topology;
use crate::traffic::TrafficSpec;
use rand::rngs::StdRng;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Draws a call must owe before generation runs ahead: spawning and joining
/// the helper costs tens of microseconds, under 5 % of this many draws.
const MIN_DRAWS: f64 = (1u64 << 20) as f64;

/// Chunks in circulation: one being filled, one waiting, one being drained.
const CHUNKS: usize = 3;

/// Words per chunk (64 KiB).
const CHUNK_WORDS: usize = 8 * 1024;

/// Draws behind the first chunk of a call: few, so the engine starts early.
/// Each later chunk doubles it up to [`MAX_FLUSH_DRAWS`], so handovers
/// become rare once both threads run.
const FIRST_FLUSH_DRAWS: u64 = 1 << 12;
const MAX_FLUSH_DRAWS: u64 = 1 << 17;

/// How long a thread waiting on the other polls before it blocks: parking
/// and waking a thread costs tens of microseconds on a virtual machine. A
/// poll yields the CPU, so a host that runs both threads on one core loses
/// nothing to it.
const SPIN: Duration = Duration::from_micros(50);

/// Marks a packet word (`PACKET | src << 32 | dst`); a word without it ends
/// its tick's batch and holds the tick's start node cycle.
const PACKET: u64 = 1 << 63;

/// Whether this process may use a second core. Read once: the standard
/// library re-reads cgroup files on every call.
fn second_core() -> bool {
    static SECOND_CORE: OnceLock<bool> = OnceLock::new();
    *SECOND_CORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

impl NocSimulation {
    /// Whether a `cycles`-long call lends the spec to a helper: it owes at
    /// least [`MIN_DRAWS`] draws (cycles × node cycles per NoC cycle ×
    /// nodes), the spec is not silent at the call's first node cycle, and a
    /// second core exists.
    pub(super) fn generation_runs_ahead(&self, cycles: u64) -> bool {
        let node_cycles_per_tick =
            self.cfg.node_frequency().as_hz() / self.clock.noc_frequency().as_hz();
        cycles as f64 * node_cycles_per_tick * self.sources.len() as f64 >= MIN_DRAWS
            && self.traffic.silent_node_cycles(self.clock.node_cycles_emitted()) == 0
            && second_core()
    }

    /// Whether the helper still holds the spec at this point of the call.
    /// Waits until the helper has produced the next batch or stopped; once
    /// it has stopped and every batch is drained, takes the spec back.
    pub(super) fn helper_holds_spec(&mut self, ahead: &mut Option<Ahead<'_>>) -> bool {
        if ahead.as_mut().is_some_and(Ahead::ready) {
            return true;
        }
        if let Some(stopped) = ahead.take() {
            stopped.give_back(self);
        }
        false
    }
}

/// The next value `rx` receives, or `None` once its sender is gone: polls
/// for up to [`SPIN`], then blocks.
fn recv_soon<T>(rx: &Receiver<T>) -> Option<T> {
    let t0 = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if t0.elapsed() < SPIN => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

/// The engine's end of a helper that holds the spec and the generator for
/// the rest of a call.
#[derive(Debug)]
pub(super) struct Ahead<'scope> {
    helper: ScopedJoinHandle<'scope, (Box<dyn TrafficSpec>, StdRng)>,
    /// Filled chunks from the helper, and drained ones back to it. Dropping
    /// them — the call is over, or the engine is unwinding — lets a waiting
    /// helper return.
    filled: Receiver<Vec<u64>>,
    empties: SyncSender<Vec<u64>>,
    /// The chunk being drained (no capacity while none is held), and the
    /// read position in it.
    chunk: Vec<u64>,
    pos: usize,
    /// The lent spec's packet length, for phase 2 to stamp packets with.
    pub(super) packet_length: usize,
    /// Batches drained, and nanoseconds spent waiting for the helper.
    ticks: u64,
    wait_ns: u64,
}

impl<'scope> Ahead<'scope> {
    /// Lends `sim`'s spec and generator to a helper on `scope` for the next
    /// `cycles` ticks.
    pub(super) fn lend(
        scope: &'scope Scope<'scope, '_>,
        sim: &mut NocSimulation,
        cycles: u64,
    ) -> Self {
        let helper = Helper {
            traffic: std::mem::replace(&mut sim.traffic, Box::new(Lent)),
            rng: sim.rng.clone(),
            topo: sim.topo,
            nodes: sim.sources.len(),
            clock: sim.clock.clone(),
            cycles,
        };
        let packet_length = helper.traffic.packet_length();
        let (filled_in, filled) = sync_channel(CHUNKS);
        let (empties, empties_out) = sync_channel(CHUNKS);
        for _ in 0..CHUNKS {
            empties.send(Vec::new()).expect("the channel holds every chunk");
        }
        Ahead {
            helper: scope.spawn(move || helper.run(ChunkWriter::new(filled_in, empties_out))),
            filled,
            empties,
            chunk: Vec::new(),
            pos: 0,
            packet_length,
            ticks: 0,
            wait_ns: 0,
        }
    }

    /// Feeds the batch of the tick that starts at `start_node_cycle` to
    /// `emit`, one `(src, dst)` per packet in emit order.
    ///
    /// # Panics
    ///
    /// If the helper's batch belongs to another node cycle: the two clock
    /// schedules are checked, not assumed.
    pub(super) fn drain_tick(
        &mut self,
        start_node_cycle: u64,
        emit: &mut impl FnMut(usize, usize),
    ) {
        loop {
            let word = self.next_word();
            if word & PACKET == 0 {
                assert_eq!(word, start_node_cycle, "the generation helper ran another schedule");
                break;
            }
            emit((word >> 32) as usize & 0x7fff_ffff, word as u32 as usize);
        }
        self.ticks += 1;
    }

    /// Whether another batch is available, waiting for the helper if needed;
    /// `false` once it has stopped and every batch is drained.
    fn ready(&mut self) -> bool {
        self.pos < self.chunk.len() || self.refill()
    }

    fn next_word(&mut self) -> u64 {
        if self.pos == self.chunk.len() {
            assert!(self.refill(), "the generation helper stopped inside a batch");
        }
        self.pos += 1;
        self.chunk[self.pos - 1]
    }

    /// Hands the drained chunk back and takes the next one.
    fn refill(&mut self) -> bool {
        self.hand_back_chunk();
        let t0 = Instant::now();
        let next = recv_soon(&self.filled);
        self.wait_ns += t0.elapsed().as_nanos() as u64;
        next.map(|chunk| self.chunk = chunk).is_some()
    }

    fn hand_back_chunk(&mut self) {
        let drained = std::mem::take(&mut self.chunk);
        self.pos = 0;
        if drained.capacity() > 0 {
            // Fails only once the helper has returned, which needs no chunk.
            let _ = self.empties.send(drained);
        }
    }

    /// Joins the helper, puts the spec and the generator back into `sim`
    /// and books the profile. A helper panic resurfaces here.
    pub(super) fn give_back(mut self, sim: &mut NocSimulation) {
        assert_eq!(
            self.pos,
            self.chunk.len(),
            "a batch of the generation helper was left undrained"
        );
        self.hand_back_chunk();
        let Ahead { helper, filled, empties, ticks, wait_ns, .. } = self;
        // Every tick the helper can still reach emits no node cycle: release
        // it from a wait for an empty chunk.
        drop(empties);
        let (traffic, rng) = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert!(filled.try_recv().is_err(), "a chunk of the generation helper was left undrained");
        sim.traffic = traffic;
        sim.rng = rng;
        if let Some(t) = sim.telemetry.as_deref_mut().filter(|t| t.profiling()) {
            let profile = t.profile_mut();
            profile.ahead_ticks += ticks;
            profile.ahead_wait_ns += wait_ns;
        }
    }
}

/// What the helper owns for one call.
struct Helper {
    traffic: Box<dyn TrafficSpec>,
    rng: StdRng,
    topo: Topology,
    nodes: usize,
    clock: DualClock,
    cycles: u64,
}

impl Helper {
    /// Generates the batch of every tick of the call that completes node
    /// cycles, up to the first silent one, and returns the spec and the
    /// generator as that tick finds them.
    fn run(self, mut out: ChunkWriter) -> (Box<dyn TrafficSpec>, StdRng) {
        let Helper { mut traffic, mut rng, topo, nodes, mut clock, cycles } = self;
        for _ in 0..cycles {
            let node_cycles = clock.advance_noc_cycle();
            if node_cycles == 0 {
                continue;
            }
            let start = clock.node_cycles_emitted() - node_cycles;
            if out.gone() || traffic.silent_node_cycles(start) != 0 {
                break;
            }
            traffic.generate_tick(
                nodes,
                start,
                node_cycles,
                &topo,
                &mut rng,
                &mut |src, _, dst| out.push(PACKET | (src as u64) << 32 | dst as u64),
            );
            out.end_tick(start, nodes as u64 * node_cycles);
        }
        out.finish();
        (traffic, rng)
    }
}

/// The helper's end of the chunk stream. Dropping it — the helper returned
/// or panicked — tells the engine no further chunk comes.
struct ChunkWriter {
    filled: SyncSender<Vec<u64>>,
    empties: Receiver<Vec<u64>>,
    /// The chunk being filled; `None` once the engine has gone.
    chunk: Option<Vec<u64>>,
    /// Draws behind `chunk`, and the count at which it is handed over.
    draws: u64,
    flush_at: u64,
}

impl ChunkWriter {
    fn new(filled: SyncSender<Vec<u64>>, empties: Receiver<Vec<u64>>) -> Self {
        let mut writer =
            ChunkWriter { filled, empties, chunk: None, draws: 0, flush_at: FIRST_FLUSH_DRAWS };
        writer.chunk = writer.take_empty();
        writer
    }

    fn gone(&self) -> bool {
        self.chunk.is_none()
    }

    fn push(&mut self, word: u64) {
        if self.chunk.as_ref().is_some_and(|chunk| chunk.len() == CHUNK_WORDS) {
            self.flush();
        }
        if let Some(chunk) = &mut self.chunk {
            chunk.push(word);
        }
    }

    /// Ends the batch of the tick that starts at `start`, which owed
    /// `draws` draws.
    fn end_tick(&mut self, start: u64, draws: u64) {
        debug_assert_eq!(start & PACKET, 0);
        self.push(start);
        self.draws += draws;
        if self.draws >= self.flush_at {
            self.flush();
            self.flush_at = (self.flush_at * 2).min(MAX_FLUSH_DRAWS);
        }
    }

    /// An empty chunk to fill, or `None` once the engine has gone.
    fn take_empty(&self) -> Option<Vec<u64>> {
        let mut chunk = recv_soon(&self.empties)?;
        chunk.clear();
        chunk.reserve_exact(CHUNK_WORDS);
        Some(chunk)
    }

    /// Hands the chunk over and takes an empty one.
    fn flush(&mut self) {
        if let Some(filled) = self.chunk.take() {
            if self.filled.send(filled).is_ok() {
                self.chunk = self.take_empty();
            }
            self.draws = 0;
        }
    }

    /// Hands over the last, partly filled chunk.
    fn finish(mut self) {
        if let Some(last) = self.chunk.take().filter(|chunk| !chunk.is_empty()) {
            // Fails only once the engine has gone, which needs no chunk.
            let _ = self.filled.send(last);
        }
    }
}

/// The spec's stand-in while the helper holds it: using it is an engine bug.
#[derive(Debug)]
struct Lent;

fn lent() -> ! {
    panic!("the traffic spec is lent to the generation helper")
}

impl TrafficSpec for Lent {
    fn packet_length(&self) -> usize {
        lent()
    }

    fn offered_load(&self) -> f64 {
        lent()
    }

    fn maybe_generate(
        &mut self,
        _src: usize,
        _node_cycle: u64,
        _topo: &Topology,
        _rng: &mut StdRng,
    ) -> Option<usize> {
        lent()
    }

    fn silent_node_cycles(&self, _from_node_cycle: u64) -> u64 {
        lent()
    }

    fn skip_node_cycles(&mut self, _node_cycles: u64) {
        lent()
    }

    fn save_extra_state(&self, _out: &mut Vec<u8>) {
        lent()
    }

    fn load_extra_state(&mut self, _bytes: &[u8]) -> bool {
        lent()
    }
}
