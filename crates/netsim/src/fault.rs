//! Deterministic fault injection: transient and permanent link/router
//! failures.
//!
//! Faults come from two sources, both fully deterministic:
//!
//! - an **explicit schedule** ([`FaultEvent`]) naming the component, the
//!   failure cycle, and an optional recovery delay, and
//! - a **hazard process** ([`HazardConfig`]) that draws failures at a
//!   constant per-cycle rate from a dedicated RNG stream (seeded from the
//!   simulation seed XOR a fixed salt, so the traffic RNG's draw order — and
//!   with it every fault-free golden — is untouched).
//!
//! The runtime state machine ([`FaultState`]) resolves both sources into
//! per-node *blocked-port* masks that the simulator feeds into the same
//! fence/drain contract power gating uses: a failed router behaves like a
//! gated router that never wakes, a failed link like a permanently fenced
//! port. Component deaths and recoveries are reported as
//! [`FaultTransition`]s so the driver can purge dying routers (accounting
//! every lost flit as *dropped*, never silently) and resynchronise credits on
//! recovery.

use crate::error::ConfigError;
use crate::topology::{Direction, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the simulation seed to derive the hazard RNG stream,
/// keeping fault draws independent of the traffic RNG.
pub const FAULT_RNG_SALT: u64 = 0x_FA17_FA17_FA17_FA17;

/// The component a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The bidirectional link leaving `node` in direction `dir`. Both
    /// directed channels fail together; flits already on the wire still
    /// deliver (the failure fences the ports, it does not vaporise photons
    /// in flight).
    Link {
        /// One endpoint of the link.
        node: usize,
        /// Direction of the link as seen from `node` (not [`Direction::Local`]).
        dir: Direction,
    },
    /// The whole router at `node`: every buffered flit is dropped (with
    /// credits returned upstream), the local source is parked, and all
    /// neighbouring ports towards the node are fenced.
    Router {
        /// The failing node.
        node: usize,
    },
}

impl FaultTarget {
    /// The node the target lives at (the named endpoint, for links).
    pub fn node(&self) -> usize {
        match *self {
            FaultTarget::Link { node, .. } => node,
            FaultTarget::Router { node } => node,
        }
    }

    /// Kind, node and direction (0 for a router), as the fault state's
    /// pending queue and the configuration fingerprint write a target.
    fn encode(&self, w: &mut crate::snapshot::SnapWriter) {
        let (kind, node, dir) = match *self {
            FaultTarget::Link { node, dir } => (0, node, dir.index() as u8),
            FaultTarget::Router { node } => (1, node, 0),
        };
        w.put_u8(kind);
        w.put_usize(node);
        w.put_u8(dir);
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The component that fails.
    pub target: FaultTarget,
    /// NoC cycle at which the failure strikes.
    pub at_cycle: u64,
    /// `None` for a permanent failure; `Some(d)` for a transient one that
    /// recovers `d ≥ 1` cycles later.
    pub duration: Option<u64>,
}

impl FaultEvent {
    /// A permanent failure of `target` at `at_cycle`.
    pub fn permanent(target: FaultTarget, at_cycle: u64) -> Self {
        FaultEvent { target, at_cycle, duration: None }
    }

    /// A transient failure of `target` at `at_cycle`, recovering after
    /// `duration` cycles.
    pub fn transient(target: FaultTarget, at_cycle: u64, duration: u64) -> Self {
        FaultEvent { target, at_cycle, duration: Some(duration) }
    }
}

/// Constant-rate random fault arrivals.
///
/// Every cycle the hazard stream draws whether a link and whether a router
/// fails (at most one of each per cycle — adequate for realistic rates,
/// which are many orders of magnitude below one per cycle). Victims are
/// uniform over the topology's links/routers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardConfig {
    /// Per-link, per-cycle failure probability.
    pub link_rate: f64,
    /// Per-router, per-cycle failure probability.
    pub router_rate: f64,
    /// Fraction of hazard failures that are transient (the rest are
    /// permanent).
    pub transient_fraction: f64,
    /// Recovery delay, in cycles, of transient hazard failures.
    pub transient_duration: u64,
}

impl HazardConfig {
    /// A hazard process where every failure is transient.
    pub fn transient(link_rate: f64, router_rate: f64, duration: u64) -> Self {
        HazardConfig {
            link_rate,
            router_rate,
            transient_fraction: 1.0,
            transient_duration: duration,
        }
    }
}

/// Fault-injection configuration: an explicit schedule, an optional hazard
/// process, or both. The default ([`FaultConfig::none`]) injects nothing and
/// keeps the whole fault machinery structurally inert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    schedule: Vec<FaultEvent>,
    hazard: Option<HazardConfig>,
}

impl FaultConfig {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// A configuration replaying exactly the given schedule.
    pub fn scheduled(schedule: Vec<FaultEvent>) -> Self {
        FaultConfig { schedule, hazard: None }
    }

    /// Adds (or replaces) the hazard process.
    pub fn with_hazard(mut self, hazard: HazardConfig) -> Self {
        self.hazard = Some(hazard);
        self
    }

    /// Whether any fault source is configured.
    pub fn is_enabled(&self) -> bool {
        !self.schedule.is_empty() || self.hazard.is_some()
    }

    /// The explicit schedule.
    pub fn schedule(&self) -> &[FaultEvent] {
        &self.schedule
    }

    /// This type's part of `NetworkConfig::encode_fields`.
    pub(crate) fn encode_fields(&self, w: &mut crate::snapshot::SnapWriter) {
        let FaultConfig { schedule, hazard } = self;
        w.put_usize(schedule.len());
        for FaultEvent { target, at_cycle, duration } in schedule {
            target.encode(w);
            w.put_u64(*at_cycle);
            w.put_opt_u64(*duration);
        }
        w.put_bool(hazard.is_some());
        if let Some(hazard) = hazard {
            let HazardConfig { link_rate, router_rate, transient_fraction, transient_duration } =
                hazard;
            w.put_f64(*link_rate);
            w.put_f64(*router_rate);
            w.put_f64(*transient_fraction);
            w.put_u64(*transient_duration);
        }
    }

    /// Checks every scheduled target against the topology and the hazard
    /// rates against `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultNodeOutOfRange`] for a target beyond the grid,
    /// [`ConfigError::FaultLinkMissing`] for a link that does not exist
    /// (local "links", or off-grid directions on a mesh),
    /// [`ConfigError::ZeroFaultDuration`] for a transient fault with zero
    /// duration, and [`ConfigError::FaultRateOutOfRange`] for hazard
    /// probabilities outside `[0, 1]`.
    pub fn validate(&self, topo: &Topology) -> Result<(), ConfigError> {
        let nodes = topo.node_count();
        for event in &self.schedule {
            let node = event.target.node();
            if node >= nodes {
                return Err(ConfigError::FaultNodeOutOfRange { node, nodes });
            }
            if let FaultTarget::Link { node, dir } = event.target {
                if dir == Direction::Local || topo.neighbor(node, dir).is_none() {
                    return Err(ConfigError::FaultLinkMissing { node, dir });
                }
            }
            if event.duration == Some(0) {
                return Err(ConfigError::ZeroFaultDuration);
            }
        }
        if let Some(h) = &self.hazard {
            for rate in [h.link_rate, h.router_rate, h.transient_fraction] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ConfigError::FaultRateOutOfRange { rate });
                }
            }
            if h.transient_fraction > 0.0 && h.transient_duration == 0 {
                return Err(ConfigError::ZeroFaultDuration);
            }
        }
        Ok(())
    }
}

/// A component death or recovery the driver must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTransition {
    /// The link leaving `node` in `dir` went down (ports fenced on both
    /// ends; nothing to purge).
    LinkDown {
        /// Canonical owner endpoint of the link.
        node: usize,
        /// Direction from the owner ([`Direction::East`] or [`Direction::South`]).
        dir: Direction,
    },
    /// The link leaving `node` in `dir` recovered.
    LinkUp {
        /// Canonical owner endpoint of the link.
        node: usize,
        /// Direction from the owner.
        dir: Direction,
    },
    /// The router at `node` died: the driver purges its buffers and channels
    /// (counting drops, returning credits) and parks its source.
    RouterDown {
        /// The dead node.
        node: usize,
    },
    /// The router at `node` recovered: the driver resynchronises its output
    /// credits against the current state of its neighbours' input VCs.
    RouterUp {
        /// The recovered node.
        node: usize,
    },
}

/// An event waiting to be applied (scheduled fault or pending recovery).
#[derive(Debug, Clone, Copy)]
struct Pending {
    cycle: u64,
    target: FaultTarget,
    /// `Some(d)`: a transient failure recovering after `d`; `None` with
    /// `recover = false`: permanent failure; `recover = true`: a recovery.
    duration: Option<u64>,
    recover: bool,
}

/// Runtime fault state machine.
///
/// Owns the schedule cursor, the hazard RNG, per-component down-counters
/// (transient failures can overlap; a component is up again only when every
/// overlapping failure has recovered and no permanent failure hit it), and
/// the cached per-node blocked-port masks the simulator reads every cycle.
#[derive(Debug)]
pub struct FaultState {
    /// Scheduled faults and pending recoveries (small, scanned per tick).
    pending: Vec<Pending>,
    /// Earliest cycle in `pending`, for a cheap per-tick early-out.
    next_due: u64,
    hazard: Option<HazardConfig>,
    rng: StdRng,
    /// All undirected links, as `(owner, East|South)` pairs.
    links: Vec<(usize, Direction)>,
    /// Down-counter per canonical link (`node * 2 + {0: East, 1: South}`).
    link_down: Vec<u32>,
    /// Permanent-failure flag per canonical link.
    link_perm: Vec<bool>,
    /// Down-counter per router.
    router_down: Vec<u32>,
    /// Permanent-failure flag per router.
    router_perm: Vec<bool>,
    /// Cached per-node mask of output ports towards failed links/routers.
    port_block: Vec<u8>,
    /// Number of currently-down components (for the fencing fast path).
    down_components: u32,
}

impl FaultState {
    /// Builds the runtime state for `cfg` on `topo`. `seed` is the
    /// *simulation* seed; the hazard stream is derived from it with
    /// [`FAULT_RNG_SALT`] so traffic draws are unaffected.
    pub fn new(cfg: &FaultConfig, topo: &Topology, seed: u64) -> Self {
        let nodes = topo.node_count();
        let mut links = Vec::new();
        for node in 0..nodes {
            for dir in [Direction::East, Direction::South] {
                if topo.neighbor(node, dir).is_some() {
                    links.push((node, dir));
                }
            }
        }
        let mut pending: Vec<Pending> = cfg
            .schedule
            .iter()
            .map(|e| Pending {
                cycle: e.at_cycle,
                target: e.target,
                duration: e.duration,
                recover: false,
            })
            .collect();
        // Keep application order deterministic and independent of the order
        // events were listed in the config.
        pending.sort_by_key(|p| p.cycle);
        let next_due = pending.iter().map(|p| p.cycle).min().unwrap_or(u64::MAX);
        FaultState {
            pending,
            next_due,
            hazard: cfg.hazard,
            rng: StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT),
            links,
            link_down: vec![0; nodes * 2],
            link_perm: vec![false; nodes * 2],
            router_down: vec![0; nodes],
            router_perm: vec![false; nodes],
            port_block: vec![0; nodes],
            down_components: 0,
        }
    }

    /// Whether any component is currently down.
    #[inline]
    pub fn any_active(&self) -> bool {
        self.down_components > 0
    }

    /// Earliest NoC cycle at which a scheduled fault or pending transient
    /// recovery is due (`u64::MAX` when nothing is pending).
    ///
    /// This is the fault schedule's contribution to the event horizon: on a
    /// cycle strictly before this bound — and with no hazard process drawing
    /// (see [`hazard_draws_per_cycle`](Self::hazard_draws_per_cycle)) —
    /// [`tick`](Self::tick) is a pure no-op, so the skipping engine may omit
    /// the call entirely without changing any fault state.
    #[inline]
    pub fn next_scheduled_due(&self) -> u64 {
        self.next_due
    }

    /// Whether the hazard process draws from its RNG stream on every tick.
    ///
    /// A hazard with any positive rate must be ticked on every single NoC
    /// cycle to keep its draw order deterministic, which makes the whole
    /// simulation ineligible for event-horizon skipping. Zero-rate hazards
    /// (and pure schedules) never touch the RNG.
    #[inline]
    pub fn hazard_draws_per_cycle(&self) -> bool {
        match self.hazard {
            Some(h) => (h.link_rate > 0.0 && !self.links.is_empty()) || h.router_rate > 0.0,
            None => false,
        }
    }

    /// Whether the router at `node` is currently dead.
    #[inline]
    pub fn router_dead(&self, node: usize) -> bool {
        self.router_perm[node] || self.router_down[node] > 0
    }

    /// Mask of `node`'s output ports that lead into a failed link or a dead
    /// neighbouring router (bit = [`Direction::index`]).
    #[inline]
    pub fn blocked_ports(&self, node: usize) -> u8 {
        self.port_block[node]
    }

    /// Whether the link leaving `node` in `dir` is currently down
    /// (equivalently for either endpoint; router deaths do not count).
    pub fn link_dead(&self, topo: &Topology, node: usize, dir: Direction) -> bool {
        match self.link_key(topo, node, dir) {
            Some(key) => self.link_perm[key] || self.link_down[key] > 0,
            None => false,
        }
    }

    /// Advances the fault process to `cycle`, applying scheduled events,
    /// pending recoveries, and hazard draws. Component deaths/recoveries are
    /// appended to `transitions` for the driver to act on. Call exactly once
    /// per NoC cycle (both simulation engines do, which keeps the hazard
    /// draw order — and therefore the fault pattern — engine-independent).
    pub fn tick(&mut self, cycle: u64, topo: &Topology, transitions: &mut Vec<FaultTransition>) {
        if self.next_due <= cycle {
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].cycle <= cycle {
                    let p = self.pending.remove(i);
                    if p.recover {
                        self.apply_recovery(p.target, topo, transitions);
                    } else {
                        self.apply_failure(p.target, p.duration, cycle, topo, transitions);
                    }
                } else {
                    i += 1;
                }
            }
            self.next_due = self.pending.iter().map(|p| p.cycle).min().unwrap_or(u64::MAX);
        }
        if let Some(h) = self.hazard {
            if h.link_rate > 0.0 && !self.links.is_empty() {
                let p_any = (h.link_rate * self.links.len() as f64).min(1.0);
                if self.rng.gen_bool(p_any) {
                    let idx = self.rng.gen_range(0..self.links.len());
                    let (node, dir) = self.links[idx];
                    let duration = self
                        .rng
                        .gen_bool(h.transient_fraction)
                        .then_some(h.transient_duration);
                    self.apply_failure(
                        FaultTarget::Link { node, dir },
                        duration,
                        cycle,
                        topo,
                        transitions,
                    );
                }
            }
            if h.router_rate > 0.0 {
                let p_any = (h.router_rate * topo.node_count() as f64).min(1.0);
                if self.rng.gen_bool(p_any) {
                    let node = self.rng.gen_range(0..topo.node_count());
                    let duration = self
                        .rng
                        .gen_bool(h.transient_fraction)
                        .then_some(h.transient_duration);
                    self.apply_failure(
                        FaultTarget::Router { node },
                        duration,
                        cycle,
                        topo,
                        transitions,
                    );
                }
            }
        }
    }

    /// Canonical index of the undirected link leaving `node` in `dir`
    /// (`owner * 2 + {0: East, 1: South}`), or `None` when no such link
    /// exists.
    fn link_key(&self, topo: &Topology, node: usize, dir: Direction) -> Option<usize> {
        if dir == Direction::Local {
            return None;
        }
        let neighbor = topo.neighbor(node, dir)?;
        let (owner, owner_dir) = match dir {
            Direction::East | Direction::South => (node, dir),
            _ => (neighbor, dir.opposite()),
        };
        let slot = if owner_dir == Direction::East { 0 } else { 1 };
        Some(owner * 2 + slot)
    }

    fn apply_failure(
        &mut self,
        target: FaultTarget,
        duration: Option<u64>,
        cycle: u64,
        topo: &Topology,
        transitions: &mut Vec<FaultTransition>,
    ) {
        if let Some(d) = duration {
            self.pending.push(Pending {
                cycle: cycle + d.max(1),
                target,
                duration: None,
                recover: true,
            });
            self.next_due = self.next_due.min(cycle + d.max(1));
        }
        match target {
            FaultTarget::Link { node, dir } => {
                let Some(key) = self.link_key(topo, node, dir) else { return };
                let was_down = self.link_perm[key] || self.link_down[key] > 0;
                match duration {
                    None => self.link_perm[key] = true,
                    Some(_) => self.link_down[key] += 1,
                }
                if !was_down {
                    self.down_components += 1;
                    let (owner, owner_dir) =
                        (key / 2, if key % 2 == 0 { Direction::East } else { Direction::South });
                    self.recompute_port_block(owner, topo);
                    if let Some(nbr) = topo.neighbor(owner, owner_dir) {
                        self.recompute_port_block(nbr, topo);
                    }
                    transitions.push(FaultTransition::LinkDown { node: owner, dir: owner_dir });
                }
            }
            FaultTarget::Router { node } => {
                let was_down = self.router_dead(node);
                match duration {
                    None => self.router_perm[node] = true,
                    Some(_) => self.router_down[node] += 1,
                }
                if !was_down {
                    self.down_components += 1;
                    for dir in [Direction::North, Direction::East, Direction::South, Direction::West]
                    {
                        if let Some(nbr) = topo.neighbor(node, dir) {
                            self.recompute_port_block(nbr, topo);
                        }
                    }
                    transitions.push(FaultTransition::RouterDown { node });
                }
            }
        }
    }

    fn apply_recovery(
        &mut self,
        target: FaultTarget,
        topo: &Topology,
        transitions: &mut Vec<FaultTransition>,
    ) {
        match target {
            FaultTarget::Link { node, dir } => {
                let Some(key) = self.link_key(topo, node, dir) else { return };
                debug_assert!(self.link_down[key] > 0, "recovery without matching failure");
                self.link_down[key] -= 1;
                if !self.link_perm[key] && self.link_down[key] == 0 {
                    self.down_components -= 1;
                    let (owner, owner_dir) =
                        (key / 2, if key % 2 == 0 { Direction::East } else { Direction::South });
                    self.recompute_port_block(owner, topo);
                    if let Some(nbr) = topo.neighbor(owner, owner_dir) {
                        self.recompute_port_block(nbr, topo);
                    }
                    transitions.push(FaultTransition::LinkUp { node: owner, dir: owner_dir });
                }
            }
            FaultTarget::Router { node } => {
                debug_assert!(self.router_down[node] > 0, "recovery without matching failure");
                self.router_down[node] -= 1;
                if !self.router_dead(node) {
                    self.down_components -= 1;
                    for dir in [Direction::North, Direction::East, Direction::South, Direction::West]
                    {
                        if let Some(nbr) = topo.neighbor(node, dir) {
                            self.recompute_port_block(nbr, topo);
                        }
                    }
                    self.recompute_port_block(node, topo);
                    transitions.push(FaultTransition::RouterUp { node });
                }
            }
        }
    }

    fn recompute_port_block(&mut self, node: usize, topo: &Topology) {
        let mut mask = 0u8;
        for dir in [Direction::North, Direction::East, Direction::South, Direction::West] {
            if let Some(nbr) = topo.neighbor(node, dir) {
                let link_dead = match self.link_key(topo, node, dir) {
                    Some(key) => self.link_perm[key] || self.link_down[key] > 0,
                    None => false,
                };
                if link_dead || self.router_dead(nbr) {
                    mask |= 1u8 << dir.index();
                }
            }
        }
        self.port_block[node] = mask;
    }
}

impl FaultState {
    /// Encodes the mutable fault-process state for a checkpoint: the pending
    /// event queue (in its live order — `tick` scans it front to back, so
    /// order is behaviour), the schedule cursor, the hazard RNG stream, the
    /// per-component down-counters, and the cached port masks. The hazard
    /// parameters and link table are configuration/topology-derived and are
    /// not written.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.pending.len());
        for p in &self.pending {
            w.put_u64(p.cycle);
            p.target.encode(w);
            w.put_opt_u64(p.duration);
            w.put_bool(p.recover);
        }
        w.put_u64(self.next_due);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        for v in &self.link_down {
            w.put_u32(*v);
        }
        for v in &self.link_perm {
            w.put_bool(*v);
        }
        for v in &self.router_down {
            w.put_u32(*v);
        }
        for v in &self.router_perm {
            w.put_bool(*v);
        }
        for v in &self.port_block {
            w.put_u8(*v);
        }
        w.put_u32(self.down_components);
    }

    /// Restores the fault-process state written by
    /// [`save_state`](Self::save_state) into a state machine built from the
    /// same configuration and topology.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let nodes = self.router_down.len();
        self.pending.clear();
        let pending_len = r.read_usize()?;
        for _ in 0..pending_len {
            let cycle = r.read_u64()?;
            let tag = r.read_u8()?;
            let node = r.read_usize()?;
            let dir_idx = r.read_u8()? as usize;
            if node >= nodes {
                return Err(SnapshotError::Corrupt("fault target node"));
            }
            let target = match tag {
                0 => {
                    if dir_idx >= crate::topology::PORT_COUNT {
                        return Err(SnapshotError::Corrupt("fault link direction"));
                    }
                    FaultTarget::Link { node, dir: Direction::from_index(dir_idx) }
                }
                1 => FaultTarget::Router { node },
                _ => return Err(SnapshotError::Corrupt("fault target kind")),
            };
            let duration = r.read_opt_u64()?;
            let recover = r.read_bool()?;
            self.pending.push(Pending { cycle, target, duration, recover });
        }
        self.next_due = r.read_u64()?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.read_u64()?;
        }
        self.rng = StdRng::from_state(rng_state);
        for v in &mut self.link_down {
            *v = r.read_u32()?;
        }
        for v in &mut self.link_perm {
            *v = r.read_bool()?;
        }
        for v in &mut self.router_down {
            *v = r.read_u32()?;
        }
        for v in &mut self.router_perm {
            *v = r.read_bool()?;
        }
        for v in &mut self.port_block {
            *v = r.read_u8()?;
        }
        self.down_components = r.read_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn mesh() -> Topology {
        Topology::mesh(4, 4)
    }

    #[test]
    fn empty_config_is_inert() {
        let topo = mesh();
        let cfg = FaultConfig::none();
        assert!(!cfg.is_enabled());
        assert!(cfg.validate(&topo).is_ok());
        let mut state = FaultState::new(&cfg, &topo, 42);
        let mut tr = Vec::new();
        for cycle in 0..100 {
            state.tick(cycle, &topo, &mut tr);
        }
        assert!(tr.is_empty());
        assert!(!state.any_active());
        assert!((0..16).all(|n| state.blocked_ports(n) == 0 && !state.router_dead(n)));
    }

    #[test]
    fn permanent_link_fault_fences_both_endpoints() {
        let topo = mesh();
        let cfg = FaultConfig::scheduled(vec![FaultEvent::permanent(
            FaultTarget::Link { node: 5, dir: Direction::East },
            10,
        )]);
        let mut state = FaultState::new(&cfg, &topo, 42);
        let mut tr = Vec::new();
        state.tick(9, &topo, &mut tr);
        assert!(tr.is_empty());
        state.tick(10, &topo, &mut tr);
        assert_eq!(tr, vec![FaultTransition::LinkDown { node: 5, dir: Direction::East }]);
        assert!(state.any_active());
        assert_eq!(state.blocked_ports(5), 1 << Direction::East.index());
        assert_eq!(state.blocked_ports(6), 1 << Direction::West.index());
        assert!(state.link_dead(&topo, 5, Direction::East));
        assert!(state.link_dead(&topo, 6, Direction::West), "symmetric view");
        assert!(!state.router_dead(5));
    }

    #[test]
    fn west_link_normalises_to_the_same_key_as_east() {
        let topo = mesh();
        // Killing 6→West is the same undirected link as 5→East.
        let cfg = FaultConfig::scheduled(vec![FaultEvent::permanent(
            FaultTarget::Link { node: 6, dir: Direction::West },
            0,
        )]);
        let mut state = FaultState::new(&cfg, &topo, 42);
        let mut tr = Vec::new();
        state.tick(0, &topo, &mut tr);
        assert_eq!(tr, vec![FaultTransition::LinkDown { node: 5, dir: Direction::East }]);
    }

    #[test]
    fn transient_router_fault_recovers() {
        let topo = mesh();
        let cfg = FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 9 },
            5,
            20,
        )]);
        let mut state = FaultState::new(&cfg, &topo, 42);
        let mut tr = Vec::new();
        state.tick(5, &topo, &mut tr);
        assert_eq!(tr, vec![FaultTransition::RouterDown { node: 9 }]);
        assert!(state.router_dead(9));
        // Every neighbour's port towards node 9 is blocked.
        assert_ne!(state.blocked_ports(8) & (1 << Direction::East.index()), 0);
        assert_ne!(state.blocked_ports(10) & (1 << Direction::West.index()), 0);
        assert_ne!(state.blocked_ports(5) & (1 << Direction::South.index()), 0);
        assert_ne!(state.blocked_ports(13) & (1 << Direction::North.index()), 0);
        tr.clear();
        for cycle in 6..25 {
            state.tick(cycle, &topo, &mut tr);
            assert!(tr.is_empty(), "still down at cycle {cycle}");
        }
        state.tick(25, &topo, &mut tr);
        assert_eq!(tr, vec![FaultTransition::RouterUp { node: 9 }]);
        assert!(!state.router_dead(9));
        assert!(!state.any_active());
        assert!((0..16).all(|n| state.blocked_ports(n) == 0));
    }

    #[test]
    fn overlapping_transients_only_recover_when_all_expire() {
        let topo = mesh();
        let target = FaultTarget::Link { node: 0, dir: Direction::East };
        let cfg = FaultConfig::scheduled(vec![
            FaultEvent::transient(target, 0, 10),
            FaultEvent::transient(target, 5, 10),
        ]);
        let mut state = FaultState::new(&cfg, &topo, 1);
        let mut tr = Vec::new();
        for cycle in 0..=14 {
            state.tick(cycle, &topo, &mut tr);
        }
        // First failure expired at 10, but the second holds the link down.
        assert_eq!(tr.len(), 1, "one LinkDown, no LinkUp yet: {tr:?}");
        state.tick(15, &topo, &mut tr);
        assert_eq!(tr[1], FaultTransition::LinkUp { node: 0, dir: Direction::East });
        assert!(!state.any_active());
    }

    #[test]
    fn permanent_fault_shadows_transient_recovery() {
        let topo = mesh();
        let target = FaultTarget::Router { node: 3 };
        let cfg = FaultConfig::scheduled(vec![
            FaultEvent::transient(target, 0, 5),
            FaultEvent::permanent(target, 2),
        ]);
        let mut state = FaultState::new(&cfg, &topo, 1);
        let mut tr = Vec::new();
        for cycle in 0..50 {
            state.tick(cycle, &topo, &mut tr);
        }
        assert_eq!(tr, vec![FaultTransition::RouterDown { node: 3 }]);
        assert!(state.router_dead(3), "permanent failure never recovers");
    }

    #[test]
    fn hazard_draws_are_deterministic_and_seed_dependent() {
        let topo = mesh();
        let cfg = FaultConfig::none()
            .with_hazard(HazardConfig::transient(1e-3, 1e-3, 8));
        let run = |seed: u64| {
            let mut state = FaultState::new(&cfg, &topo, seed);
            let mut tr = Vec::new();
            for cycle in 0..5_000 {
                state.tick(cycle, &topo, &mut tr);
            }
            tr
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same fault pattern");
        assert!(!a.is_empty(), "rates high enough to fire in 5k cycles");
        let c = run(8);
        assert_ne!(a, c, "different seed, different fault pattern");
    }

    #[test]
    fn validation_rejects_bad_targets_and_rates() {
        let topo = mesh();
        let bad_node =
            FaultConfig::scheduled(vec![FaultEvent::permanent(FaultTarget::Router { node: 16 }, 0)]);
        assert_eq!(
            bad_node.validate(&topo),
            Err(ConfigError::FaultNodeOutOfRange { node: 16, nodes: 16 })
        );
        // Node 3 is the north-east corner: no East link on a mesh.
        let bad_link = FaultConfig::scheduled(vec![FaultEvent::permanent(
            FaultTarget::Link { node: 3, dir: Direction::East },
            0,
        )]);
        assert_eq!(
            bad_link.validate(&topo),
            Err(ConfigError::FaultLinkMissing { node: 3, dir: Direction::East })
        );
        // The same link exists on a torus (wrap-around).
        let torus = crate::topology::Topology::with_kind(crate::topology::TopologyKind::Torus, 4, 4);
        assert!(bad_link.validate(&torus).is_ok());
        let local = FaultConfig::scheduled(vec![FaultEvent::permanent(
            FaultTarget::Link { node: 3, dir: Direction::Local },
            0,
        )]);
        assert!(local.validate(&topo).is_err());
        let zero = FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 0 },
            0,
            0,
        )]);
        assert_eq!(zero.validate(&topo), Err(ConfigError::ZeroFaultDuration));
        let bad_rate = FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 1.5,
            router_rate: 0.0,
            transient_fraction: 0.0,
            transient_duration: 1,
        });
        assert_eq!(bad_rate.validate(&topo), Err(ConfigError::FaultRateOutOfRange { rate: 1.5 }));
    }

    #[test]
    fn torus_wrap_links_are_distinct_canonical_links() {
        let torus =
            crate::topology::Topology::with_kind(crate::topology::TopologyKind::Torus, 4, 4);
        // On a 4x4 torus every node owns exactly an East and a South link.
        let state = FaultState::new(&FaultConfig::none(), &torus, 0);
        assert_eq!(state.links.len(), 32);
        let mesh_state = FaultState::new(&FaultConfig::none(), &mesh(), 0);
        assert_eq!(mesh_state.links.len(), 24, "4x4 mesh has 2*4*3 links");
    }
}
