//! Footprint and allocation contract of the simulator: **state is sized by
//! what is in flight, not by what could be.**
//!
//! Pinned with a counting global allocator, which is why this is a test
//! binary of its own with a single `#[test]`: the three cases run in
//! sequence, so no other test thread's allocations mix into the counts.
//!
//! Budget, what this commit measures, and what the tree measured before
//! source queues held packet records and VC storage appeared on first
//! arrival:
//!
//! * **Idle 64×64 mesh, `NocSimulation::new`:** ≤ 5 000 B live in ≤ 16
//!   allocations per node. Measured 3 365 B in 5 (one arbiter bank per
//!   allocator, grant buffers sized on first use); before, 11 931 B in 51.
//! * **Backlogged 5×5 torus** (hotspot MMP at 0.35, burst 200, factor 4,
//!   seed 2015, 50 000 cycles): the heap grows by ≤ 100 B per queued packet.
//!   Measured 69 B over 12 743 packets; before, 1 199 B.
//! * **Steady 8×8 at 0.30 uniform**, 20 000 cycles after a 20 000-cycle
//!   warm-up: fewer than 32 allocations, of which at most 3 of a chunk's
//!   64 KiB. Measured 28: 14 for the generation helper this 1.3 M-draw call
//!   runs — its thread (4), three 64 KiB chunks, per channel its block
//!   (640 B) and its three slots (96 B), per receiver its wait-queue list
//!   (96 B), and the helper thread's wait context (48 B) — the rest a source
//!   queue or a scratch list outgrowing its own high-water mark. The chunks
//!   and the thread were 7 of the 21 before the channels.
//!
//! Each case prints its count (`cargo test --test footprint -- --nocapture`).

use noc_sim::{BurstyTraffic, NetworkConfig, NocSimulation, SyntheticTraffic, TrafficPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes and blocks currently allocated, and allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`) ever made, in all and of at least
/// [`CHUNK_BYTES`]. Statistics only: `Relaxed` suffices.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static CHUNK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// The size of a chunk of the generation helper (64 KiB).
const CHUNK_BYTES: usize = 64 * 1024;

struct Counting;

/// Counts an allocation call that returned a block of `size` bytes.
fn count_call(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    if size >= CHUNK_BYTES {
        CHUNK_CALLS.fetch_add(1, Relaxed);
    }
}

/// Books a block of `size` bytes that an allocation call returned at `ptr`.
fn book(ptr: *mut u8, size: usize) {
    if !ptr.is_null() {
        LIVE_BYTES.fetch_add(size, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        count_call(size);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states, and returns what it returns; the
// counters are side statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        book(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        book(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
            count_call(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(live bytes, live blocks, allocation calls, chunk-sized calls)` right
/// now.
fn heap() -> (usize, usize, usize, usize) {
    (
        LIVE_BYTES.load(Relaxed),
        LIVE_BLOCKS.load(Relaxed),
        CALLS.load(Relaxed),
        CHUNK_CALLS.load(Relaxed),
    )
}

fn built(builder: noc_sim::NetworkConfigBuilder) -> NetworkConfig {
    builder.build().expect("valid configuration")
}

#[test]
fn state_is_sized_by_what_is_in_flight() {
    // (a) An idle fabric: control state only — no flit storage in any of the
    // 40 input VCs of a router, two bytes per arbiter, eight per output VC.
    let net = built(NetworkConfig::builder().mesh(64, 64));
    let nodes = net.node_count();
    let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.0, net.packet_length());
    let before = heap();
    let idle = NocSimulation::new(net, Box::new(traffic), 2015);
    let after = heap();
    let bytes = (after.0 - before.0) / nodes;
    let blocks = (after.1 - before.1) as f64 / nodes as f64;
    println!("idle 64x64: {bytes} B live in {blocks:.2} allocations per node");
    assert!(bytes <= 5_000, "an idle node holds {bytes} B, budget 5 000");
    assert!(blocks <= 16.0, "an idle node holds {blocks:.2} allocations, budget 16");
    drop(idle);

    // (b) A backlog (the hotspot case of the benchmark's `loaded_fabric`): a
    // waiting packet is one 40-byte record, whatever its length in flits.
    let net = built(NetworkConfig::builder().torus(5, 5));
    let packet_length = net.packet_length();
    let traffic = BurstyTraffic::new(TrafficPattern::Hotspot, 0.35, packet_length, 200.0, 4.0);
    let mut backlogged = NocSimulation::new(net, Box::new(traffic), 2015);
    let before = heap();
    backlogged.run_cycles(50_000);
    let after = heap();
    let packets = backlogged.queued_source_flits().div_ceil(packet_length);
    let per_packet = (after.0 - before.0) / packets;
    println!("backlogged 5x5 torus: {packets} packets queued, heap grew {per_packet} B per packet");
    assert!(packets > 5_000, "the case must build a backlog, got {packets} packets");
    assert!(per_packet <= 100, "the heap grew {per_packet} B per queued packet, budget 100");
    drop(backlogged);

    // (c) Steady state: a VC allocates once, on its first flit, and a queue
    // only to exceed its own high-water mark — after a warm-up nothing else
    // reaches the allocator. The call owes 1.3 M draws, so the generation
    // helper runs it, with at most three chunks.
    let net = built(NetworkConfig::builder().mesh(8, 8));
    let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.30, net.packet_length());
    let mut steady = NocSimulation::new(net, Box::new(traffic), 2015);
    steady.run_cycles(20_000);
    let before = heap();
    steady.run_cycles(20_000);
    let after = heap();
    let (calls, chunks) = (after.2 - before.2, after.3 - before.3);
    println!(
        "steady 8x8 at 0.30: {calls} allocations in 20 000 cycles after warm-up, {chunks} of a chunk's size"
    );
    assert!(calls < 32, "{calls} allocations in steady state, budget 32");
    assert!(chunks <= 3, "{chunks} chunk-sized allocations in one call, bound 3");
}
