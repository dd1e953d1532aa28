//! Traffic generation: synthetic patterns, bursty sources and custom traffic
//! matrices.
//!
//! The paper evaluates the DVFS policies on five synthetic patterns
//! (uniform, tornado, bit-complement, transpose, neighbor) and on two
//! multimedia applications described by traffic matrices. This module adds
//! the standard Booksim-style extensions — hotspot concentration, the
//! shuffle and bit-reverse permutations, and a two-state Markov-modulated
//! (bursty) injection process — so that policy claims can be checked beyond
//! the paper's exact scenarios. All kinds are provided behind the
//! [`TrafficSpec`] trait.

use crate::error::ConfigError;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Debug;

/// Fraction of Hotspot packets that target the hotspot node; the remainder
/// are uniform background traffic.
pub const HOTSPOT_FRACTION: f64 = 0.25;

/// The synthetic traffic patterns: the five used in Sec. V of the paper plus
/// the standard hotspot / shuffle / bit-reverse extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPattern {
    /// Each packet goes to a destination chosen uniformly at random
    /// (excluding the source itself).
    Uniform,
    /// Each node `(x, y)` sends to `((x + ⌈k/2⌉ − 1) mod k, y)`: adversarial
    /// for ring-like dimensions.
    Tornado,
    /// Node `(x, y)` sends to `(k−1−x, k−1−y)` (bit-complement on the grid
    /// coordinates). Deterministic permutation of the non-fixed nodes.
    BitComplement,
    /// Node `(x, y)` sends to `(y, x)`; requires a square grid (validated by
    /// [`NetworkConfig`](crate::NetworkConfig)). Deterministic permutation of
    /// the off-diagonal nodes.
    Transpose,
    /// Node `(x, y)` sends to `((x+1) mod k, y)`: nearest-neighbor traffic.
    /// Deterministic permutation.
    Neighbor,
    /// With probability 0.25 (`HOTSPOT_FRACTION`) a packet targets the hotspot
    /// node at the grid centre `(w/2, h/2)`; otherwise the destination is
    /// uniform random. Models the concentration that a shared memory
    /// controller or accelerator port creates.
    Hotspot,
    /// Perfect-shuffle permutation on the node index: `dst` is `src` rotated
    /// left by one bit over `log2(n)` bits. Requires a power-of-two node
    /// count (validated by [`NetworkConfig`](crate::NetworkConfig)).
    /// Deterministic permutation.
    Shuffle,
    /// Bit-reversal permutation on the node index over `log2(n)` bits.
    /// Requires a power-of-two node count (validated by
    /// [`NetworkConfig`](crate::NetworkConfig)). Deterministic permutation.
    BitReverse,
}

impl TrafficPattern {
    /// All supported patterns: the paper's five plus the extensions.
    pub const ALL: [TrafficPattern; 8] = [
        TrafficPattern::Uniform,
        TrafficPattern::Tornado,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
        TrafficPattern::Hotspot,
        TrafficPattern::Shuffle,
        TrafficPattern::BitReverse,
    ];

    /// The five patterns evaluated in the paper's figures.
    #[cfg(test)]
    pub const PAPER: [TrafficPattern; 5] = [
        TrafficPattern::Uniform,
        TrafficPattern::Tornado,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ];

    /// A short lowercase name (matches the labels used in the paper figures).
    pub fn name(self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Hotspot => "hotspot",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::BitReverse => "bitrev",
        }
    }

    /// Whether the pattern is a deterministic function of the source (no RNG
    /// involved in destination choice).
    pub fn is_deterministic(self) -> bool {
        !matches!(self, TrafficPattern::Uniform | TrafficPattern::Hotspot)
    }

    /// Checks that this pattern is well-defined on `topo`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::PatternNeedsSquare`] — [`Transpose`](Self::Transpose)
    ///   on a non-square grid;
    /// * [`ConfigError::PatternNeedsPowerOfTwoNodes`] —
    ///   [`Shuffle`](Self::Shuffle) or [`BitReverse`](Self::BitReverse) on a
    ///   node count that is not a power of two.
    pub fn validate_for(self, topo: &Topology) -> Result<(), ConfigError> {
        match self {
            TrafficPattern::Transpose if topo.width() != topo.height() => {
                Err(ConfigError::PatternNeedsSquare {
                    pattern: self.name(),
                    width: topo.width(),
                    height: topo.height(),
                })
            }
            TrafficPattern::Shuffle | TrafficPattern::BitReverse
                if !topo.node_count().is_power_of_two() =>
            {
                Err(ConfigError::PatternNeedsPowerOfTwoNodes {
                    pattern: self.name(),
                    nodes: topo.node_count(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Destination node for a packet generated at `src`.
    ///
    /// Returns `None` when the pattern maps the source onto itself (such
    /// nodes simply do not inject, as in the reference simulator) or when the
    /// pattern is not defined on `topo` (rejected up front by
    /// [`validate_for`](Self::validate_for)).
    pub fn destination(self, src: usize, topo: &Topology, rng: &mut StdRng) -> Option<usize> {
        let (x, y) = topo.coords(src);
        let w = topo.width();
        let h = topo.height();
        let dst = match self {
            TrafficPattern::Uniform => uniform_excluding(src, topo.node_count(), rng)?,
            TrafficPattern::Tornado => {
                let dx = (x + w.div_ceil(2) - 1) % w;
                let dy = (y + h.div_ceil(2) - 1) % h;
                topo.node_at(dx, dy)
            }
            TrafficPattern::BitComplement => topo.node_at(w - 1 - x, h - 1 - y),
            TrafficPattern::Transpose => {
                if x < h && y < w {
                    topo.node_at(y, x)
                } else {
                    return None;
                }
            }
            TrafficPattern::Neighbor => topo.node_at((x + 1) % w, y),
            TrafficPattern::Hotspot => {
                let hotspot = topo.node_at(w / 2, h / 2);
                if src != hotspot && rng.gen_bool(HOTSPOT_FRACTION) {
                    hotspot
                } else {
                    uniform_excluding(src, topo.node_count(), rng)?
                }
            }
            TrafficPattern::Shuffle => {
                let n = topo.node_count();
                if !n.is_power_of_two() {
                    return None;
                }
                let bits = n.trailing_zeros();
                ((src << 1) | (src >> (bits - 1) as usize)) & (n - 1)
            }
            TrafficPattern::BitReverse => {
                let n = topo.node_count();
                if !n.is_power_of_two() {
                    return None;
                }
                let bits = n.trailing_zeros();
                src.reverse_bits() >> (usize::BITS - bits) as usize
            }
        };
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }
}

/// Uniform destination in `0..n` excluding `src` (rejection-free).
fn uniform_excluding(src: usize, n: usize, rng: &mut StdRng) -> Option<usize> {
    if n <= 1 {
        return None;
    }
    let mut d = rng.gen_range(0..n - 1);
    if d >= src {
        d += 1;
    }
    Some(d)
}

/// A Bernoulli trial of fixed probability `p` as one integer compare: draws
/// from the generator exactly when `rng.gen_bool(p)` would and returns what it
/// would, for every raw generator output.
///
/// `gen_bool` tests `k·2⁻⁵³ < p` with `k = next_u64() >> 11`. Both sides
/// scale exactly by 2⁵³, and an integer `k` is below the real `p·2⁵³` exactly
/// when it is below its ceiling, so for `0 < p < 1` the test is
/// `k < ⌈p·2⁵³⌉`, a threshold in `1..2⁵³`. The two values outside that range
/// stand for `p ≤ 0` and `p ≥ 1`, which decide without consuming a draw —
/// as `gen_bool` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    const NEVER: u64 = 0;
    const ALWAYS: u64 = 1 << 53;

    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (the range `gen_bool` asserts).
    fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Bernoulli probability must be in [0, 1]");
        let threshold = if p <= 0.0 {
            Self::NEVER
        } else if p >= 1.0 {
            Self::ALWAYS
        } else {
            (p * Self::ALWAYS as f64).ceil() as u64
        };
        Bernoulli { threshold }
    }

    #[inline]
    fn draw(self, rng: &mut StdRng) -> bool {
        match self.threshold {
            Self::NEVER => false,
            Self::ALWAYS => true,
            threshold => (rng.next_u64() >> 11) < threshold,
        }
    }
}

/// A source of traffic: decides, once per node-clock cycle and per node,
/// whether to generate a packet and where it should go.
///
/// # The draw-order contract
///
/// Every simulation result is defined by the order in which the shared
/// generator is consumed, and that order is the contract of
/// [`generate_tick`](Self::generate_tick): nodes ascending, node cycles
/// ascending within a node, [`maybe_generate`](Self::maybe_generate) for each
/// pair. The engine reaches generation through `generate_tick` only, so an
/// implementation that provides just the required methods gets that order
/// from the default body:
///
/// ```
/// # use noc_sim::{SyntheticTraffic, Topology, TopologyKind, TrafficPattern, TrafficSpec};
/// # use rand::{rngs::StdRng, SeedableRng};
/// # let topo = Topology::with_kind(TopologyKind::Mesh, 4, 4);
/// # let mut rng = StdRng::seed_from_u64(1);
/// let mut traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.3, 5);
/// traffic.generate_tick(16, 0, 1, &topo, &mut rng, &mut |src, _, dst| assert_ne!(src, dst));
/// ```
///
/// An override exists to make that sweep cheaper (one call per tick instead
/// of one per node per node cycle, probabilities turned into integer
/// thresholds once). It **may** restructure the loop, hoist per-node checks
/// and batch its own bookkeeping; it **must** leave `rng` in the state the
/// default body would, call `emit` with the same `(src, node_cycle, dst)`
/// sequence, and leave the same
/// [`save_extra_state`](Self::save_extra_state) bytes behind. The
/// `batched_generation_matches_the_per_call_definition` tests in this module
/// and in `trace` hold every override in the crate to that, bit for bit.
///
/// # Threads
///
/// A [`run_cycles`](crate::NocSimulation::run_cycles) call long enough
/// lends the spec and the generator to a helper thread for its duration, and
/// the `generate_tick` and `silent_node_cycles` calls of that call run
/// there (hence `Send`) — ahead of the engine, but in the same order and on
/// the same node-cycle schedule. Both methods see only the spec, their
/// arguments and the generator, never network state, which is what makes
/// that safe. A spec that records as it generates
/// ([`RecordingTraffic`](crate::RecordingTraffic)) writes from that thread.
pub trait TrafficSpec: Debug + Send {
    /// Number of flits in every generated packet.
    fn packet_length(&self) -> usize;

    /// Average offered load in flits per node-clock cycle per node
    /// (used for reporting and by rate-based controllers in open-loop tests).
    fn offered_load(&self) -> f64;

    /// Possibly generates a packet at `src` for the absolute node-clock cycle
    /// `node_cycle` (the same clock [`silent_node_cycles`](Self::silent_node_cycles)
    /// speaks about: cycle 0 is the first node cycle of the run).
    ///
    /// This is the *definition* of the source: the default
    /// [`generate_tick`](Self::generate_tick) calls it for nodes in ascending
    /// order and, within one node, cycles in ascending order, and an
    /// overriding `generate_tick` must be indistinguishable from that sweep.
    /// Memoryless sources ignore `node_cycle`; recorders log it and replay
    /// sources match against it.
    ///
    /// Returns the destination node if a packet is generated.
    fn maybe_generate(
        &mut self,
        src: usize,
        node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize>;

    /// One tick of packet generation for the whole fabric: decides for every
    /// node in `0..nodes` and every node cycle in `start_node_cycle ..
    /// start_node_cycle + node_cycles` whether a packet is generated, and
    /// calls `emit(src, node_cycle, dst)` for each one. This is the only
    /// generation entry point the simulation engine uses, and on a long call
    /// it runs on a helper thread (see the [trait docs](TrafficSpec#threads)).
    ///
    /// The default body is the draw order every result is defined against —
    /// nodes ascending, node cycles ascending within a node,
    /// [`maybe_generate`](Self::maybe_generate) for each. An override must
    /// consume exactly the draws this body would, emit the same sequence and
    /// end in the same state (see the [trait docs](TrafficSpec)).
    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        topo: &Topology,
        rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        for src in 0..nodes {
            for node_cycle in start_node_cycle..start_node_cycle + node_cycles {
                if let Some(dst) = self.maybe_generate(src, node_cycle, topo, rng) {
                    emit(src, node_cycle, dst);
                }
            }
        }
    }

    /// Number of consecutive node cycles, starting at the absolute node cycle
    /// `from_node_cycle`, for which [`maybe_generate`](Self::maybe_generate)
    /// is guaranteed to return `None` **and** draw nothing from the RNG, for
    /// every node.
    ///
    /// This is the traffic side of the event-horizon skipping contract: the
    /// simulation may replace the [`generate_tick`](Self::generate_tick)
    /// calls covering node cycles inside this span with one
    /// [`skip_node_cycles`](Self::skip_node_cycles) call. Returning `0` (the
    /// default) declares the source never provably silent and disables
    /// generation skipping; `u64::MAX` means silent forever. Implementations
    /// must be conservative — claiming silence for a cycle that would have
    /// drawn or generated breaks bit-identity with the non-skipping engine.
    fn silent_node_cycles(&self, from_node_cycle: u64) -> u64 {
        let _ = from_node_cycle;
        0
    }

    /// Informs the source that `node_cycles` node cycles it declared silent
    /// via [`silent_node_cycles`](Self::silent_node_cycles) elapsed without
    /// a [`generate_tick`](Self::generate_tick) call. Stateful sources advance
    /// their internal position here; memoryless sources need no action
    /// (default).
    fn skip_node_cycles(&mut self, node_cycles: u64) {
        let _ = node_cycles;
    }

    /// Appends any *mutable* traffic state to `out` for a simulation
    /// checkpoint. Memoryless sources (everything derived from configuration)
    /// write nothing — the default. Stateful sources (e.g. the per-node
    /// ON/OFF chains of [`BurstyTraffic`]) must write every bit their future
    /// draws depend on; the RNG itself is owned and checkpointed by the
    /// simulation.
    fn save_extra_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Restores the state captured by
    /// [`save_extra_state`](Self::save_extra_state). Returns `false` when the
    /// bytes are not a valid encoding for this source (the restore is then
    /// rejected as corrupt). The default accepts only the empty blob written
    /// by the default `save_extra_state`.
    fn load_extra_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// Bernoulli packet injection following one of the synthetic
/// [`TrafficPattern`]s.
///
/// With injection rate `λ_node` (flits per node cycle) and packets of `S`
/// flits, a packet is generated with probability `λ_node / S` per node cycle,
/// which yields an average flit rate of `λ_node`.
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    pattern: TrafficPattern,
    injection_rate: f64,
    packet_length: usize,
    /// Cached `min(rate / length, 1)` — drawn against once per node per node
    /// cycle, so the division must not be repaid on every call.
    packet_probability: f64,
}

impl SyntheticTraffic {
    /// Creates a synthetic source.
    ///
    /// # Panics
    ///
    /// Panics if `injection_rate` is negative/not finite or `packet_length`
    /// is zero.
    pub fn new(pattern: TrafficPattern, injection_rate: f64, packet_length: usize) -> Self {
        assert!(injection_rate.is_finite() && injection_rate >= 0.0);
        assert!(packet_length > 0);
        let packet_probability = (injection_rate / packet_length as f64).min(1.0);
        SyntheticTraffic { pattern, injection_rate, packet_length, packet_probability }
    }

    /// The pattern followed by this source.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// The configured injection rate in flits per node cycle.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }
}

impl TrafficSpec for SyntheticTraffic {
    fn packet_length(&self) -> usize {
        self.packet_length
    }

    fn offered_load(&self) -> f64 {
        self.injection_rate
    }

    fn maybe_generate(
        &mut self,
        src: usize,
        _node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        // A zero-rate source draws nothing: the draw could never succeed, and
        // skipping it keeps the RNG stream identical whether the engine steps
        // through the cycle or jumps over it (see `silent_node_cycles`).
        if self.packet_probability <= 0.0 {
            return None;
        }
        if rng.gen_bool(self.packet_probability) {
            self.pattern.destination(src, topo, rng)
        } else {
            None
        }
    }

    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        topo: &Topology,
        rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        // A zero-rate source draws nothing, as in `maybe_generate`.
        if self.packet_probability <= 0.0 {
            return;
        }
        let pattern = self.pattern;
        let packet_draw = Bernoulli::new(self.packet_probability);
        for src in 0..nodes {
            for node_cycle in start_node_cycle..start_node_cycle + node_cycles {
                if packet_draw.draw(rng) {
                    if let Some(dst) = pattern.destination(src, topo, rng) {
                        emit(src, node_cycle, dst);
                    }
                }
            }
        }
    }

    fn silent_node_cycles(&self, _from_node_cycle: u64) -> u64 {
        if self.packet_probability <= 0.0 {
            u64::MAX
        } else {
            0
        }
    }
}

/// Two-state Markov-modulated (ON/OFF bursty) packet injection.
///
/// Each node carries an independent ON/OFF state evolving once per node
/// cycle: from ON it falls back to OFF with probability `1 / avg_burst`
/// (bursts last `avg_burst` cycles on average, geometrically distributed),
/// and from OFF it ignites with the probability that makes the stationary ON
/// share equal `injection_rate / burst_rate`. While ON the node injects
/// Bernoulli packets at the peak rate `burst_rate = burst_factor ×
/// injection_rate`; while OFF it is silent. The long-run average rate
/// therefore matches a Bernoulli source of the same `injection_rate`, but
/// arrivals cluster — the workload that exposes how quickly a DVFS controller
/// tracks load swings. All nodes start OFF, so runs need the usual warm-up.
#[derive(Debug, Clone)]
pub struct BurstyTraffic {
    pattern: TrafficPattern,
    injection_rate: f64,
    packet_length: usize,
    burst_rate: f64,
    /// Cached `min(burst_rate / length, 1)` — the ON-state per-cycle draw
    /// probability (see [`SyntheticTraffic::packet_probability`]).
    burst_probability: f64,
    p_on_to_off: f64,
    p_off_to_on: f64,
    on: Vec<bool>,
}

impl BurstyTraffic {
    /// Creates a bursty source.
    ///
    /// `injection_rate` is the long-run average in flits per node cycle,
    /// `avg_burst_cycles` the mean ON duration, and `burst_factor` the
    /// peak-to-average ratio (the ON-state rate is clamped so that at most
    /// one packet starts per node cycle).
    ///
    /// # Panics
    ///
    /// Panics if `injection_rate` is negative/not finite, `packet_length` is
    /// zero, `avg_burst_cycles < 1`, or `burst_factor <= 1`.
    pub fn new(
        pattern: TrafficPattern,
        injection_rate: f64,
        packet_length: usize,
        avg_burst_cycles: f64,
        burst_factor: f64,
    ) -> Self {
        assert!(injection_rate.is_finite() && injection_rate >= 0.0);
        assert!(packet_length > 0);
        assert!(avg_burst_cycles >= 1.0, "bursts must last at least one cycle on average");
        assert!(burst_factor > 1.0, "burst factor must exceed 1 (use SyntheticTraffic otherwise)");
        let burst_rate = (injection_rate * burst_factor).min(packet_length as f64);
        let duty = if burst_rate > 0.0 { injection_rate / burst_rate } else { 0.0 };
        let p_on_to_off = 1.0 / avg_burst_cycles;
        let (p_on_to_off, p_off_to_on) = if duty >= 1.0 {
            // Degenerate: the peak rate equals the average (burst_rate was
            // clamped down to it), so the source is permanently ON.
            (0.0, 1.0)
        } else {
            let raw = duty * p_on_to_off / (1.0 - duty);
            if raw > 1.0 {
                // The requested burst length is unachievable at this duty
                // cycle (OFF gaps would need to end faster than one cycle).
                // Scale both transition probabilities by the same factor:
                // the stationary ON share — and therefore the documented
                // long-run average rate — stays exact, and bursts simply run
                // proportionally longer than requested.
                (p_on_to_off / raw, 1.0)
            } else {
                (p_on_to_off, raw)
            }
        };
        BurstyTraffic {
            pattern,
            injection_rate,
            packet_length,
            burst_rate,
            burst_probability: (burst_rate / packet_length as f64).min(1.0),
            p_on_to_off,
            p_off_to_on,
            on: Vec::new(),
        }
    }

    /// The pattern followed by this source.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Peak injection rate while a node is in the ON state.
    pub fn burst_rate(&self) -> f64 {
        self.burst_rate
    }
}

impl TrafficSpec for BurstyTraffic {
    fn packet_length(&self) -> usize {
        self.packet_length
    }

    fn offered_load(&self) -> f64 {
        self.injection_rate
    }

    fn maybe_generate(
        &mut self,
        src: usize,
        _node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if self.injection_rate <= 0.0 {
            return None;
        }
        if self.on.len() <= src {
            self.on.resize(src + 1, false);
        }
        // Advance the per-node Markov chain, then draw in the current state.
        let flip = if self.on[src] {
            rng.gen_bool(self.p_on_to_off)
        } else {
            rng.gen_bool(self.p_off_to_on)
        };
        if flip {
            self.on[src] = !self.on[src];
        }
        if !self.on[src] {
            return None;
        }
        if rng.gen_bool(self.burst_probability) {
            self.pattern.destination(src, topo, rng)
        } else {
            None
        }
    }

    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        topo: &Topology,
        rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        // No draw, and no growth of the chain vector, without a node cycle.
        if self.injection_rate <= 0.0 || node_cycles == 0 {
            return;
        }
        // The per-call path grows the chain vector node by node; one sweep
        // over `0..nodes` leaves it at this length.
        if self.on.len() < nodes {
            self.on.resize(nodes, false);
        }
        let pattern = self.pattern;
        let burst_draw = Bernoulli::new(self.burst_probability);
        let on_to_off_draw = Bernoulli::new(self.p_on_to_off);
        let off_to_on_draw = Bernoulli::new(self.p_off_to_on);
        for (src, on) in self.on[..nodes].iter_mut().enumerate() {
            for node_cycle in start_node_cycle..start_node_cycle + node_cycles {
                // Advance the node's Markov chain, then draw in the new state.
                *on ^= if *on { on_to_off_draw.draw(rng) } else { off_to_on_draw.draw(rng) };
                if *on && burst_draw.draw(rng) {
                    if let Some(dst) = pattern.destination(src, topo, rng) {
                        emit(src, node_cycle, dst);
                    }
                }
            }
        }
    }

    fn silent_node_cycles(&self, _from_node_cycle: u64) -> u64 {
        // The Markov chains advance (and draw) every node cycle whenever the
        // rate is positive, so only the degenerate zero-rate source — which
        // early-outs before touching the RNG — is ever provably silent.
        if self.injection_rate <= 0.0 {
            u64::MAX
        } else {
            0
        }
    }

    fn save_extra_state(&self, out: &mut Vec<u8>) {
        // The per-node ON/OFF chain states are the source's only mutable
        // state (the vector grows lazily, so its length is part of it).
        out.extend_from_slice(&(self.on.len() as u64).to_le_bytes());
        out.extend(self.on.iter().map(|&b| u8::from(b)));
    }

    fn load_extra_state(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() < 8 {
            return false;
        }
        let (len_bytes, rest) = bytes.split_at(8);
        let n = u64::from_le_bytes(len_bytes.try_into().expect("8-byte slice")) as usize;
        if rest.len() != n || rest.iter().any(|&b| b > 1) {
            return false;
        }
        self.on.clear();
        self.on.extend(rest.iter().map(|&b| b != 0));
        true
    }
}

/// Traffic described by a full source→destination rate matrix, used for the
/// multimedia applications of Sec. VI.
///
/// `rates[src][dst]` is the average number of flits per node-clock cycle that
/// `src` sends to `dst`.
#[derive(Debug, Clone)]
pub struct MatrixTraffic {
    rates: Vec<Vec<f64>>,
    row_totals: Vec<f64>,
    /// Cached per-row `min(total / length, 1)` draw probabilities (see
    /// [`SyntheticTraffic::packet_probability`]).
    row_probabilities: Vec<f64>,
    /// The same probabilities as the integer tests
    /// [`generate_tick`](TrafficSpec::generate_tick) runs; a row that sends
    /// nothing never draws.
    row_draws: Vec<Bernoulli>,
    packet_length: usize,
}

impl MatrixTraffic {
    /// Creates a matrix source.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square-by-row (every row must have the
    /// same length as the number of rows), any rate is negative or not
    /// finite, or `packet_length` is zero.
    pub fn new(rates: Vec<Vec<f64>>, packet_length: usize) -> Self {
        assert!(packet_length > 0, "packet length must be positive");
        let n = rates.len();
        for row in &rates {
            assert_eq!(row.len(), n, "traffic matrix must be square");
            for &r in row {
                assert!(r.is_finite() && r >= 0.0, "rates must be non-negative and finite");
            }
        }
        let row_totals: Vec<f64> = rates.iter().map(|row| row.iter().sum()).collect();
        let row_probabilities: Vec<f64> = row_totals
            .iter()
            .map(|&total| (total / packet_length as f64).min(1.0))
            .collect();
        let row_draws = row_probabilities.iter().map(|&p| Bernoulli::new(p)).collect();
        MatrixTraffic { rates, row_totals, row_probabilities, row_draws, packet_length }
    }

    /// Number of nodes covered by the matrix.
    pub fn node_count(&self) -> usize {
        self.rates.len()
    }

    /// The rate from `src` to `dst` in flits per node cycle.
    pub fn rate(&self, src: usize, dst: usize) -> f64 {
        self.rates[src][dst]
    }

    /// Total flits per node cycle injected by `src`.
    pub fn row_total(&self, src: usize) -> f64 {
        self.row_totals[src]
    }

    /// Returns a copy of this matrix with every rate multiplied by `factor`
    /// (used to sweep the application speed).
    pub fn scaled(&self, factor: f64) -> MatrixTraffic {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be non-negative");
        let rates = self
            .rates
            .iter()
            .map(|row| row.iter().map(|r| r * factor).collect())
            .collect();
        MatrixTraffic::new(rates, self.packet_length)
    }

    /// The destination of a packet `src` has decided to send, chosen
    /// proportionally to the row's rates (one draw; the row total is
    /// positive).
    fn pick_destination(&self, src: usize, rng: &mut StdRng) -> Option<usize> {
        let mut pick = rng.gen_range(0.0..self.row_totals[src]);
        for (dst, &r) in self.rates[src].iter().enumerate() {
            if r <= 0.0 {
                continue;
            }
            if pick < r {
                return if dst == src { None } else { Some(dst) };
            }
            pick -= r;
        }
        None
    }
}

impl TrafficSpec for MatrixTraffic {
    fn packet_length(&self) -> usize {
        self.packet_length
    }

    fn offered_load(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.row_totals.iter().sum::<f64>() / self.rates.len() as f64
    }

    fn maybe_generate(
        &mut self,
        src: usize,
        _node_cycle: u64,
        _topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if src >= self.rates.len() {
            return None;
        }
        let total = self.row_totals[src];
        if total <= 0.0 {
            return None;
        }
        if !rng.gen_bool(self.row_probabilities[src]) {
            return None;
        }
        self.pick_destination(src, rng)
    }

    fn generate_tick(
        &mut self,
        nodes: usize,
        start_node_cycle: u64,
        node_cycles: u64,
        _topo: &Topology,
        rng: &mut StdRng,
        emit: &mut dyn FnMut(usize, u64, usize),
    ) {
        // Nodes beyond the matrix, and rows that send nothing (their draw is
        // `NEVER`: a total of zero is a probability of zero), draw nothing.
        for (src, &row_draw) in self.row_draws.iter().enumerate().take(nodes) {
            for node_cycle in start_node_cycle..start_node_cycle + node_cycles {
                if row_draw.draw(rng) {
                    if let Some(dst) = self.pick_destination(src, rng) {
                        emit(src, node_cycle, dst);
                    }
                }
            }
        }
    }

    fn silent_node_cycles(&self, _from_node_cycle: u64) -> u64 {
        // Each node with a non-zero row draws once per node cycle; only an
        // all-zero matrix is provably silent.
        if self.row_totals.iter().all(|&t| t <= 0.0) {
            u64::MAX
        } else {
            0
        }
    }
}

/// The test harness of the [`generate_tick`](TrafficSpec::generate_tick)
/// override contract, shared with the `trace` module's tests.
#[cfg(test)]
pub(crate) mod batch_contract {
    use super::*;
    use rand::SeedableRng;

    /// Forwards the required methods only, so its `generate_tick` is the
    /// trait's default body: the per-call definition of the wrapped source.
    #[derive(Debug)]
    struct PerCall(Box<dyn TrafficSpec>);

    impl TrafficSpec for PerCall {
        fn packet_length(&self) -> usize {
            self.0.packet_length()
        }
        fn offered_load(&self) -> f64 {
            self.0.offered_load()
        }
        fn maybe_generate(
            &mut self,
            src: usize,
            node_cycle: u64,
            topo: &Topology,
            rng: &mut StdRng,
        ) -> Option<usize> {
            self.0.maybe_generate(src, node_cycle, topo, rng)
        }
    }

    /// Ticks per case, cycling through 0, 1, 2 and 3 node cycles per tick.
    const TICKS: usize = 2_400;

    /// The `(start_node_cycle, node_cycles)` of every tick of a case.
    pub(crate) fn schedule() -> impl Iterator<Item = (u64, u64)> {
        (0..TICKS).scan(0, |start, tick| {
            let node_cycles = [1, 0, 2, 1, 3, 1][tick % 6];
            *start += node_cycles;
            Some((*start - node_cycles, node_cycles))
        })
    }

    /// Drives `batched` through its own `generate_tick` and `reference` —
    /// the same source in the same state — through the default body, from
    /// equal seeds, and asserts after every tick the same emit sequence, the
    /// same generator state and the same `save_extra_state` bytes. Each tick
    /// sweeps nodes `0..nodes` of `topo`. Returns the number of packets
    /// emitted.
    pub(crate) fn assert_batched_matches_per_call(
        batched: &mut dyn TrafficSpec,
        reference: Box<dyn TrafficSpec>,
        topo: &Topology,
        nodes: usize,
        case: &str,
    ) -> usize {
        let mut per_call = PerCall(reference);
        let mut rng = StdRng::seed_from_u64(2015);
        let mut rng_ref = rng.clone();
        let (mut emitted, mut emitted_ref) = (Vec::new(), Vec::new());
        let (mut state, mut state_ref) = (Vec::new(), Vec::new());
        let mut packets = 0;
        for (tick, (start, node_cycles)) in schedule().enumerate() {
            emitted.clear();
            emitted_ref.clear();
            batched.generate_tick(nodes, start, node_cycles, topo, &mut rng, &mut |s, c, d| {
                emitted.push((s, c, d))
            });
            per_call.generate_tick(nodes, start, node_cycles, topo, &mut rng_ref, &mut |s, c, d| {
                emitted_ref.push((s, c, d))
            });
            assert_eq!(emitted, emitted_ref, "{case}: packets of tick {tick}");
            assert_eq!(rng, rng_ref, "{case}: generator state after tick {tick}");
            state.clear();
            state_ref.clear();
            batched.save_extra_state(&mut state);
            per_call.0.save_extra_state(&mut state_ref);
            assert_eq!(state, state_ref, "{case}: checkpoint state after tick {tick}");
            packets += emitted.len();
        }
        assert_eq!(rng.next_u64(), rng_ref.next_u64(), "{case}: next draw");
        packets
    }

    /// The grids the cases run on: square with a power-of-two node count
    /// (every pattern validates), and odd-sized non-square.
    pub(crate) fn topologies() -> [Topology; 2] {
        [Topology::mesh(4, 4), Topology::mesh(5, 3)]
    }

    /// Every source of this module in every regime its draw logic
    /// distinguishes, freshly built for the grid `topo` (two calls give two
    /// sets in equal state).
    pub(crate) fn cases(topo: &Topology) -> Vec<(String, Box<dyn TrafficSpec>)> {
        let mut cases: Vec<(String, Box<dyn TrafficSpec>)> = Vec::new();
        let grid = format!("{}x{}", topo.width(), topo.height());
        for pattern in TrafficPattern::ALL {
            if pattern.validate_for(topo).is_err() {
                continue;
            }
            // Silent, rare, busy, and one packet per node cycle (p = 1: no
            // Bernoulli draw, only the destination's).
            for rate in [0.0, 1e-4, 0.3, 4.0] {
                cases.push((
                    format!("synthetic {} {rate} on {grid}", pattern.name()),
                    Box::new(SyntheticTraffic::new(pattern, rate, 4)),
                ));
            }
        }
        let bursty = |rate, burst, factor| -> Box<dyn TrafficSpec> {
            Box::new(BurstyTraffic::new(TrafficPattern::Uniform, rate, 5, burst, factor))
        };
        cases.push((format!("bursty on {grid}"), bursty(0.2, 50.0, 4.0)));
        cases.push((format!("bursty silent on {grid}"), bursty(0.0, 10.0, 3.0)));
        // Average rate = clamped peak rate: OFF→ON and the packet draw are
        // certain, ON→OFF impossible — no Bernoulli draw at all.
        cases.push((format!("bursty permanently on, {grid}"), bursty(5.0, 10.0, 2.0)));
        // Renormalized transition probabilities: OFF→ON is exactly 1.
        cases.push((format!("bursty clamped off-to-on, {grid}"), bursty(0.3, 2.0, 1.1)));
        cases.push((
            format!("bursty hotspot on {grid}"),
            Box::new(BurstyTraffic::new(TrafficPattern::Hotspot, 0.4, 2, 8.0, 2.0)),
        ));

        // A matrix smaller than the fabric, with a silent row, a row whose
        // packet probability is clamped to 1, a self-addressed rate and
        // ordinary rows.
        let n = topo.node_count() - 3;
        let mut rates = vec![vec![0.0; n]; n];
        for (src, row) in rates.iter_mut().enumerate().skip(1) {
            for (dst, rate) in row.iter_mut().enumerate() {
                *rate = if (src + 2 * dst) % 3 == 0 { 0.02 * (1 + dst % 4) as f64 } else { 0.0 };
            }
        }
        rates[2][5] = 7.0;
        cases.push((format!("matrix on {grid}"), Box::new(MatrixTraffic::new(rates, 3))));
        cases.push((
            format!("matrix all zero on {grid}"),
            Box::new(MatrixTraffic::new(vec![vec![0.0; n]; n], 3)),
        ));
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_never_sends_to_self_and_covers_all_nodes() {
        let mesh = Topology::mesh(4, 4);
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let dst = TrafficPattern::Uniform.destination(5, &mesh, &mut r).unwrap();
            assert_ne!(dst, 5);
            seen[dst] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn tornado_is_deterministic_and_wraps() {
        let mesh = Topology::mesh(4, 4);
        let mut r = rng();
        // k = 4 => shift = k/2 - 1 = 1 in both dimensions.
        let dst = TrafficPattern::Tornado.destination(mesh.node_at(0, 0), &mesh, &mut r).unwrap();
        assert_eq!(dst, mesh.node_at(1, 1));
        let dst = TrafficPattern::Tornado.destination(mesh.node_at(3, 3), &mesh, &mut r).unwrap();
        assert_eq!(dst, mesh.node_at(0, 0));
    }

    #[test]
    fn bit_complement_mirrors_coordinates() {
        let mesh = Topology::mesh(5, 5);
        let mut r = rng();
        let dst = TrafficPattern::BitComplement
            .destination(mesh.node_at(0, 0), &mesh, &mut r)
            .unwrap();
        assert_eq!(dst, mesh.node_at(4, 4));
        // The centre of an odd mesh maps onto itself and therefore does not inject.
        assert_eq!(
            TrafficPattern::BitComplement.destination(mesh.node_at(2, 2), &mesh, &mut r),
            None
        );
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = Topology::mesh(5, 5);
        let mut r = rng();
        let dst =
            TrafficPattern::Transpose.destination(mesh.node_at(1, 3), &mesh, &mut r).unwrap();
        assert_eq!(dst, mesh.node_at(3, 1));
        assert_eq!(TrafficPattern::Transpose.destination(mesh.node_at(2, 2), &mesh, &mut r), None);
    }

    #[test]
    fn neighbor_sends_one_hop_east_with_wraparound() {
        let mesh = Topology::mesh(4, 4);
        let mut r = rng();
        let dst = TrafficPattern::Neighbor.destination(mesh.node_at(3, 2), &mesh, &mut r).unwrap();
        assert_eq!(dst, mesh.node_at(0, 2));
    }

    #[test]
    fn hotspot_concentrates_on_the_centre_node() {
        let mesh = Topology::mesh(4, 4);
        let hotspot = mesh.node_at(2, 2);
        let mut r = rng();
        let mut to_hotspot = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let dst = TrafficPattern::Hotspot.destination(0, &mesh, &mut r).unwrap();
            assert_ne!(dst, 0);
            if dst == hotspot {
                to_hotspot += 1;
            }
        }
        let share = to_hotspot as f64 / trials as f64;
        // 25% direct hotspot picks plus the uniform background's 1/15.
        let expected = HOTSPOT_FRACTION + (1.0 - HOTSPOT_FRACTION) / 15.0;
        assert!((share - expected).abs() < 0.02, "hotspot share {share}, expected {expected}");
        // The hotspot node itself falls back to uniform traffic.
        for _ in 0..200 {
            let dst = TrafficPattern::Hotspot.destination(hotspot, &mesh, &mut r).unwrap();
            assert_ne!(dst, hotspot);
        }
    }

    #[test]
    fn shuffle_rotates_the_node_index_bits() {
        let mesh = Topology::mesh(4, 4); // 16 nodes, 4 bits
        let mut r = rng();
        assert_eq!(TrafficPattern::Shuffle.destination(0b0011, &mesh, &mut r), Some(0b0110));
        assert_eq!(TrafficPattern::Shuffle.destination(0b1000, &mesh, &mut r), Some(0b0001));
        // Fixed points (0 and 15) do not inject.
        assert_eq!(TrafficPattern::Shuffle.destination(0b0000, &mesh, &mut r), None);
        assert_eq!(TrafficPattern::Shuffle.destination(0b1111, &mesh, &mut r), None);
    }

    #[test]
    fn bit_reverse_mirrors_the_node_index_bits() {
        let mesh = Topology::mesh(4, 4); // 16 nodes, 4 bits
        let mut r = rng();
        assert_eq!(TrafficPattern::BitReverse.destination(0b0001, &mesh, &mut r), Some(0b1000));
        assert_eq!(TrafficPattern::BitReverse.destination(0b0011, &mesh, &mut r), Some(0b1100));
        assert_eq!(TrafficPattern::BitReverse.destination(0b0110, &mesh, &mut r), None);
    }

    #[test]
    fn pattern_validation_rejects_undefined_combinations() {
        let square = Topology::mesh(4, 4);
        let tall = Topology::mesh(4, 3);
        assert!(TrafficPattern::Transpose.validate_for(&square).is_ok());
        assert!(matches!(
            TrafficPattern::Transpose.validate_for(&tall),
            Err(ConfigError::PatternNeedsSquare { pattern: "transpose", width: 4, height: 3 })
        ));
        let five = Topology::mesh(5, 5);
        assert!(TrafficPattern::Shuffle.validate_for(&square).is_ok());
        assert!(matches!(
            TrafficPattern::Shuffle.validate_for(&five),
            Err(ConfigError::PatternNeedsPowerOfTwoNodes { pattern: "shuffle", nodes: 25 })
        ));
        assert!(matches!(
            TrafficPattern::BitReverse.validate_for(&five),
            Err(ConfigError::PatternNeedsPowerOfTwoNodes { pattern: "bitrev", nodes: 25 })
        ));
        for p in TrafficPattern::PAPER {
            if p != TrafficPattern::Transpose {
                assert!(p.validate_for(&tall).is_ok(), "{} should accept 4x3", p.name());
            }
        }
    }

    #[test]
    fn synthetic_rate_matches_configuration() {
        let mesh = Topology::mesh(4, 4);
        let mut traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.3, 5);
        let mut r = rng();
        let trials = 200_000;
        let mut packets = 0;
        for _ in 0..trials {
            if traffic.maybe_generate(0, 0, &mesh, &mut r).is_some() {
                packets += 1;
            }
        }
        let measured_flit_rate = packets as f64 * 5.0 / trials as f64;
        assert!(
            (measured_flit_rate - 0.3).abs() < 0.01,
            "measured {measured_flit_rate}, expected 0.3"
        );
    }

    #[test]
    fn bursty_long_run_rate_matches_configuration() {
        let mesh = Topology::mesh(4, 4);
        let mut traffic = BurstyTraffic::new(TrafficPattern::Uniform, 0.2, 5, 50.0, 4.0);
        let mut r = rng();
        let trials = 400_000;
        let mut packets = 0;
        for _ in 0..trials {
            if traffic.maybe_generate(0, 0, &mesh, &mut r).is_some() {
                packets += 1;
            }
        }
        let measured_flit_rate = packets as f64 * 5.0 / trials as f64;
        assert!(
            (measured_flit_rate - 0.2).abs() < 0.02,
            "measured {measured_flit_rate}, expected 0.2"
        );
        assert!((traffic.offered_load() - 0.2).abs() < 1e-12);
        assert!((traffic.burst_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn bursty_arrivals_cluster_more_than_bernoulli() {
        // Compare the per-window variance of packet counts at equal average
        // rate: the MMP source must be burstier.
        let mesh = Topology::mesh(4, 4);
        let mut bursty = BurstyTraffic::new(TrafficPattern::Uniform, 0.2, 5, 100.0, 4.0);
        let mut bernoulli = SyntheticTraffic::new(TrafficPattern::Uniform, 0.2, 5);
        let mut r1 = rng();
        let mut r2 = StdRng::seed_from_u64(43);
        let window = 200;
        let windows = 400;
        let variance = |counts: &[f64]| {
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64
        };
        let mut bursty_counts = Vec::new();
        let mut bernoulli_counts = Vec::new();
        for _ in 0..windows {
            let mut a = 0.0;
            let mut b = 0.0;
            for _ in 0..window {
                if bursty.maybe_generate(0, 0, &mesh, &mut r1).is_some() {
                    a += 1.0;
                }
                if bernoulli.maybe_generate(0, 0, &mesh, &mut r2).is_some() {
                    b += 1.0;
                }
            }
            bursty_counts.push(a);
            bernoulli_counts.push(b);
        }
        assert!(
            variance(&bursty_counts) > 2.0 * variance(&bernoulli_counts),
            "bursty variance {} should clearly exceed bernoulli variance {}",
            variance(&bursty_counts),
            variance(&bernoulli_counts)
        );
    }

    #[test]
    fn bursty_rate_guarantee_survives_extreme_parameterizations() {
        // High duty cycle + short bursts: the naive off->on probability
        // exceeds 1 and must be renormalized, not clamped — the long-run
        // rate is the contract, burst length is best-effort.
        let mesh = Topology::mesh(4, 4);
        let mut traffic = BurstyTraffic::new(TrafficPattern::Uniform, 0.3, 5, 2.0, 1.1);
        let mut r = rng();
        let trials = 400_000;
        let mut packets = 0;
        for _ in 0..trials {
            if traffic.maybe_generate(0, 0, &mesh, &mut r).is_some() {
                packets += 1;
            }
        }
        let measured_flit_rate = packets as f64 * 5.0 / trials as f64;
        assert!(
            (measured_flit_rate - 0.3).abs() < 0.02,
            "measured {measured_flit_rate}, expected 0.3"
        );
    }

    #[test]
    fn bursty_zero_rate_generates_nothing() {
        let mesh = Topology::mesh(4, 4);
        let mut traffic = BurstyTraffic::new(TrafficPattern::Uniform, 0.0, 5, 10.0, 3.0);
        let mut r = rng();
        for _ in 0..5_000 {
            assert_eq!(traffic.maybe_generate(3, 0, &mesh, &mut r), None);
        }
    }

    #[test]
    fn pattern_names_are_stable() {
        assert_eq!(TrafficPattern::Uniform.name(), "uniform");
        assert_eq!(TrafficPattern::BitComplement.name(), "bitcomp");
        assert_eq!(TrafficPattern::Hotspot.name(), "hotspot");
        assert_eq!(TrafficPattern::Shuffle.name(), "shuffle");
        assert_eq!(TrafficPattern::BitReverse.name(), "bitrev");
        assert_eq!(TrafficPattern::ALL.len(), 8);
        assert_eq!(TrafficPattern::PAPER.len(), 5);
    }

    #[test]
    fn matrix_traffic_respects_row_rates() {
        // Node 0 sends twice as much to node 2 as to node 1.
        let rates = vec![
            vec![0.0, 0.1, 0.2, 0.0],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![0.0; 4],
        ];
        let mut traffic = MatrixTraffic::new(rates, 2);
        let mesh = Topology::mesh(2, 2);
        let mut r = rng();
        let mut to1 = 0;
        let mut to2 = 0;
        for _ in 0..100_000 {
            match traffic.maybe_generate(0, 0, &mesh, &mut r) {
                Some(1) => to1 += 1,
                Some(2) => to2 += 1,
                Some(other) => panic!("unexpected destination {other}"),
                None => {}
            }
        }
        let ratio = to2 as f64 / to1 as f64;
        assert!((ratio - 2.0).abs() < 0.2, "destination mix should follow the rates, got {ratio}");
        // Node 1 never sends.
        for _ in 0..1000 {
            assert_eq!(traffic.maybe_generate(1, 0, &mesh, &mut r), None);
        }
    }

    #[test]
    fn matrix_scaling_multiplies_offered_load() {
        let rates = vec![vec![0.0, 0.1], vec![0.1, 0.0]];
        let m = MatrixTraffic::new(rates, 4);
        let m2 = m.scaled(2.0);
        assert!((m2.offered_load() - 2.0 * m.offered_load()).abs() < 1e-12);
        assert!((m2.rate(0, 1) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn matrix_must_be_square() {
        let _ = MatrixTraffic::new(vec![vec![0.0, 0.1], vec![0.0]], 4);
    }

    #[test]
    fn offered_load_averages_rows() {
        let rates = vec![vec![0.0, 0.4], vec![0.0, 0.0]];
        let m = MatrixTraffic::new(rates, 4);
        assert!((m.offered_load() - 0.2).abs() < 1e-12);
        assert!((m.row_total(0) - 0.4).abs() < 1e-12);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn batched_generation_matches_the_per_call_definition() {
        for topo in batch_contract::topologies() {
            let references = batch_contract::cases(&topo);
            for ((case, mut batched), (_, reference)) in
                batch_contract::cases(&topo).into_iter().zip(references)
            {
                let load = batched.offered_load();
                let packets = batch_contract::assert_batched_matches_per_call(
                    batched.as_mut(),
                    reference,
                    &topo,
                    topo.node_count(),
                    &case,
                );
                // A case that never emits would compare two empty sequences.
                assert!(packets > 0 || load < 0.1, "{case}: no packet at load {load}");
            }
        }
    }

    /// `gen_bool` on a generator whose next output is `raw`.
    fn gen_bool_of(raw: u64, p: f64) -> bool {
        struct Fixed(u64);
        impl Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        Fixed(raw).gen_bool(p)
    }

    #[test]
    fn bernoulli_threshold_equals_the_float_compare() {
        let ulp = (1u64 << 53) as f64;
        let mut r = rng();
        for p in [1.0 / ulp, 1e-9, 1e-4, 0.1, 0.5, 1.0 - 1.0 / ulp] {
            let threshold = Bernoulli::new(p).threshold;
            assert!((1..1 << 53).contains(&threshold), "p = {p}: threshold {threshold}");
            let agrees = |raw: u64| {
                assert_eq!((raw >> 11) < threshold, gen_bool_of(raw, p), "p = {p}, raw = {raw:#x}");
            };
            // Around the threshold, with the discarded low bits clear and set.
            for k in (threshold - 1..=threshold + 1).filter(|&k| k < 1 << 53) {
                agrees(k << 11);
                agrees(k << 11 | 0x7ff);
            }
            (0..1_000_000).for_each(|_| agrees(r.next_u64()));
        }
        // The two certain outcomes consume nothing, as `gen_bool` does.
        let before = r.clone();
        assert!(!Bernoulli::new(0.0).draw(&mut r));
        assert!(Bernoulli::new(1.0).draw(&mut r));
        assert_eq!(r, before);
    }
}
