//! Routing algorithms.
//!
//! The paper uses deterministic dimension-ordered (XY) routing on the mesh,
//! provided here by [`XyRouting`]. The [`RoutingAlgorithm`] trait keeps the
//! router generic so that other deterministic algorithms (e.g. YX or
//! table-based routing) can be plugged in for ablation studies.
//!
//! # Torus routing and datelines
//!
//! On a [`Topology::torus`] the dimension-ordered algorithms take the
//! shortest way around each ring (ties broken towards East/South), which
//! closes a channel-dependency cycle inside every ring. Deadlock freedom is
//! restored with the classic *dateline* discipline (Dally & Seitz): each ring
//! places its dateline on the wrap-around link, packets start in virtual
//! channel class 0 and switch to class 1 once they cross the dateline of the
//! ring they are currently traversing. [`RoutingAlgorithm::next_vc_class`]
//! reports the class a packet must use downstream of its next hop; the router
//! restricts VC allocation to that class (see
//! [`Router`](crate::router::Router)). On a mesh the class is always 0 and no
//! restriction applies.

use crate::topology::{Direction, Topology};
use std::fmt::Debug;

/// A deterministic routing function: which output port should a packet
/// residing at `current` take to reach `dst`?
pub trait RoutingAlgorithm: Debug + Send + Sync {
    /// Returns the output port to take at router `current` for a packet whose
    /// destination is `dst`. Returns [`Direction::Local`] when
    /// `current == dst`.
    fn route(&self, topo: &Topology, current: usize, dst: usize) -> Direction;

    /// The dateline virtual-channel class (0 or 1) the packet must use on the
    /// link chosen by [`route`](Self::route) at `current`.
    ///
    /// `src` is the packet's source (head flits carry it), which determines
    /// where the packet entered the ring it is currently traversing. The
    /// default implementation returns 0, which is correct for any topology
    /// without wrap-around links.
    fn next_vc_class(&self, topo: &Topology, src: usize, current: usize, dst: usize) -> u8 {
        let _ = (topo, src, current, dst);
        0
    }

    /// Routing with blockage context, consulted by the router's RC stage.
    ///
    /// `blocked` is a bitmask of output ports that are currently unusable at
    /// `current` (failed links, failed neighbours, fenced power-gated
    /// neighbours); `in_port` is the port the head flit arrived on and
    /// `in_class` the VC class (0 = escape, 1 = adaptive) of the input VC it
    /// occupies; `adaptive_full` is a bitmask of output ports with no free
    /// adaptive-class VC left. Returns the chosen output port together with
    /// the virtual-channel class the packet must use downstream.
    ///
    /// The default implementation ignores the blockage context entirely and
    /// delegates to [`route`](Self::route) / [`next_vc_class`](Self::next_vc_class):
    /// deterministic dimension-ordered algorithms keep their exact fault-free
    /// behaviour (bit-identical goldens) and visibly strand traffic at failed
    /// components instead of escaping them. Adaptive algorithms override this.
    #[allow(clippy::too_many_arguments)]
    fn route_around(
        &self,
        topo: &Topology,
        src: usize,
        current: usize,
        dst: usize,
        in_port: usize,
        in_class: u8,
        blocked: u8,
        adaptive_full: u8,
    ) -> (Direction, u8) {
        let _ = (in_port, in_class, blocked, adaptive_full);
        (self.route(topo, current, dst), self.next_vc_class(topo, src, current, dst))
    }

    /// Whether [`route_around`](Self::route_around) is a pure function of
    /// `(src, current, dst)` — it ignores the input port and class, the
    /// blocked ports and the adaptive-VC availability.
    ///
    /// The router computes such a route once, when the head flit arrives,
    /// instead of again every cycle the head waits for an output VC. The
    /// default is `false`, which is always safe; the dimension-ordered
    /// algorithms return `true`. An algorithm that overrides `route_around`
    /// to look at any of its context arguments must leave this `false`.
    fn route_is_static(&self) -> bool {
        false
    }

    /// Whether the router must split its virtual channels into an escape
    /// class (class 0) and an adaptive class (class 1) on *every* topology.
    ///
    /// Dimension-ordered algorithms return `false`: they only need the
    /// dateline split the torus already imposes. `MinimalAdaptive` returns
    /// `true` so that meshes also reserve a deadlock-free escape class.
    fn wants_escape_classes(&self) -> bool {
        false
    }

    /// The number of hops the algorithm takes from `src` to `dst`
    /// (used by tests and by zero-load latency estimates).
    fn path_length(&self, topo: &Topology, src: usize, dst: usize) -> usize {
        let mut hops = 0;
        let mut at = src;
        // Loop detector: a deterministic route that revisits a node repeats
        // forever, so `node_count` hops already imply a loop. The bound is
        // deliberately looser — wrap-around routes and future non-minimal
        // algorithms (Valiant-style detours traverse up to two full paths)
        // must not trip it.
        let bound = 2 * topo.node_count() + 2 * (topo.width() + topo.height());
        while at != dst {
            let dir = self.route(topo, at, dst);
            at = topo.neighbor(at, dir).expect("routing function must not route off the topology");
            hops += 1;
            assert!(hops <= bound, "routing loop detected");
        }
        hops
    }
}

/// The travel direction along one ring dimension: positive means increasing
/// coordinate (East/South).
///
/// `k` is the ring size, `c` the current coordinate, `d` the destination
/// coordinate (`c != d`). On a torus the shorter way around wins, with ties
/// broken towards positive; on a mesh wrap-around is not available so the
/// sign of `d - c` decides.
fn ring_positive(torus: bool, k: usize, c: usize, d: usize) -> bool {
    if !torus {
        return c < d;
    }
    let dpos = (d + k - c) % k;
    dpos <= k - dpos
}

/// Dateline class after the next hop along one torus ring.
///
/// `s` is the coordinate at which the packet entered this ring (its source
/// coordinate under dimension-ordered routing), `c` its current coordinate,
/// `d` its destination coordinate (`c != d`). The dateline sits on the
/// wrap-around link; a packet is in class 1 once its path from `s` has used
/// that link. Minimal ring routes keep a constant travel direction, so the
/// direction can be derived from `s` and matches [`ring_positive`] at every
/// intermediate hop.
fn ring_class_after_hop(k: usize, s: usize, c: usize, d: usize) -> u8 {
    let positive = ring_positive(true, k, s, d);
    if positive {
        let next = (c + 1) % k;
        u8::from(next < s)
    } else {
        let next = (c + k - 1) % k;
        u8::from(next > s)
    }
}

/// Dimension-ordered routing: correct the X coordinate first, then Y.
///
/// XY routing on a mesh is minimal and deadlock-free, which is why it is the
/// default in Booksim and in the paper. On a torus it takes the shortest way
/// around each ring and relies on the dateline VC discipline (see the module
/// docs) for deadlock freedom.
///
/// ```
/// use noc_sim::{Direction, RoutingAlgorithm, Topology, TopologyKind, XyRouting};
///
/// let mesh = Topology::with_kind(TopologyKind::Mesh, 5, 5);
/// let routing = XyRouting::new();
/// // From node 0 (0,0) to node 24 (4,4) the first moves go east.
/// assert_eq!(routing.route(&mesh, 0, 24), Direction::East);
/// // On the torus the same pair is one wrap hop west, then one north.
/// let torus = Topology::with_kind(TopologyKind::Torus, 5, 5);
/// assert_eq!(routing.route(&torus, 0, 24), Direction::West);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XyRouting {
    _private: (),
}

impl XyRouting {
    /// Creates the XY routing function.
    pub fn new() -> Self {
        XyRouting { _private: () }
    }
}

impl RoutingAlgorithm for XyRouting {
    fn route(&self, topo: &Topology, current: usize, dst: usize) -> Direction {
        let (cx, cy) = topo.coords(current);
        let (dx, dy) = topo.coords(dst);
        let torus = topo.is_torus();
        if cx != dx {
            if ring_positive(torus, topo.width(), cx, dx) {
                Direction::East
            } else {
                Direction::West
            }
        } else if cy != dy {
            if ring_positive(torus, topo.height(), cy, dy) {
                Direction::South
            } else {
                Direction::North
            }
        } else {
            Direction::Local
        }
    }

    fn next_vc_class(&self, topo: &Topology, src: usize, current: usize, dst: usize) -> u8 {
        if !topo.is_torus() {
            return 0;
        }
        let (cx, cy) = topo.coords(current);
        let (sx, sy) = topo.coords(src);
        let (dx, dy) = topo.coords(dst);
        if cx != dx {
            ring_class_after_hop(topo.width(), sx, cx, dx)
        } else if cy != dy {
            ring_class_after_hop(topo.height(), sy, cy, dy)
        } else {
            0
        }
    }

    fn route_is_static(&self) -> bool {
        true
    }
}

/// Dimension-ordered routing that corrects Y first, then X.
///
/// Not used by the paper's experiments, but handy for checking that the
/// policy-level conclusions do not depend on the routing order (ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YxRouting {
    _private: (),
}

impl YxRouting {
    /// Creates the YX routing function.
    pub fn new() -> Self {
        YxRouting { _private: () }
    }
}

impl RoutingAlgorithm for YxRouting {
    fn route(&self, topo: &Topology, current: usize, dst: usize) -> Direction {
        let (cx, cy) = topo.coords(current);
        let (dx, dy) = topo.coords(dst);
        let torus = topo.is_torus();
        if cy != dy {
            if ring_positive(torus, topo.height(), cy, dy) {
                Direction::South
            } else {
                Direction::North
            }
        } else if cx != dx {
            if ring_positive(torus, topo.width(), cx, dx) {
                Direction::East
            } else {
                Direction::West
            }
        } else {
            Direction::Local
        }
    }

    fn next_vc_class(&self, topo: &Topology, src: usize, current: usize, dst: usize) -> u8 {
        if !topo.is_torus() {
            return 0;
        }
        let (cx, cy) = topo.coords(current);
        let (sx, sy) = topo.coords(src);
        let (dx, dy) = topo.coords(dst);
        if cy != dy {
            ring_class_after_hop(topo.height(), sy, cy, dy)
        } else if cx != dx {
            ring_class_after_hop(topo.width(), sx, cx, dx)
        } else {
            0
        }
    }

    fn route_is_static(&self) -> bool {
        true
    }
}

/// The mesh-style (never wrap-around) XY direction from `current` to `dst`.
///
/// On a torus this deliberately ignores the wrap links, so the directed
/// channel-dependency graph it induces is acyclic on *both* topologies —
/// which is what makes it a valid Duato escape network.
fn mesh_xy(topo: &Topology, current: usize, dst: usize) -> Direction {
    let (cx, cy) = topo.coords(current);
    let (dx, dy) = topo.coords(dst);
    if cx != dx {
        if cx < dx {
            Direction::East
        } else {
            Direction::West
        }
    } else if cy != dy {
        if cy < dy {
            Direction::South
        } else {
            Direction::North
        }
    } else {
        Direction::Local
    }
}

/// Duato-style minimal-adaptive routing with escape virtual channels.
///
/// The virtual channels are split into two classes (see
/// [`Router`](crate::router::Router)): **class 0 — escape** — runs
/// dimension-ordered XY along mesh directions only (never a wrap-around
/// link), so its channel-dependency graph is acyclic on mesh *and* torus and
/// packets restricted to it always drain; **class 1 — adaptive** — carries
/// minimal-adaptive traffic and the deviations around failed links/routers
/// or fenced (power-gated) neighbours.
///
/// **The escape class is sticky** (Duato's condition for wormhole networks):
/// a packet travelling on an escape channel is only ever offered the next
/// escape channel, so an escape-channel holder never waits on adaptive
/// resources — a mixed-class wait would let adaptive credit cycles thread
/// through the escape network and deadlock it. The single exception is a
/// *faulted* escape hop: strict stickiness would strand the packet at a
/// permanent fault, so there (and only there) it re-enters the adaptive
/// class. Re-entry is **restricted**: the packet only leaves the escape
/// class for a port with a currently *free* adaptive VC (minimal ports
/// first, then detours); when every candidate's adaptive VCs are full it
/// stays committed to the faulted escape port and re-selects next cycle.
/// A re-entering packet therefore *takes* adaptive resources but never
/// *waits* on an adaptive holder while itself holding escape channels —
/// the wait edge that used to let a mixed-class cycle close (an earlier
/// revision fell through to the unrestricted adaptive selection and could
/// park an escape holder on a full adaptive VC; that hole is pinned by the
/// regression tests and by
/// [`with_unrestricted_reentry`](MinimalAdaptive::with_unrestricted_reentry),
/// which preserves the old behaviour for demonstration).
///
/// Port choice at each hop, in order:
/// 1. a packet already on the escape class continues on the escape (mesh-XY)
///    port — class 0 — unless that port is fault-blocked (see above);
/// 2. a minimal port (torus-aware, so wrap links are eligible) that is not
///    blocked and still has a free adaptive VC — class 1;
/// 3. the escape port, when it is not blocked and is not the port the packet
///    just arrived through (a deviated packet must not bounce straight back
///    — the U-turn ping-pong builds circular VC dependencies) — class 0;
///    this is the fallback Duato's argument requires every blocked header to
///    keep being offered, and the router re-runs this selection every cycle;
/// 4. a minimal unblocked port whose adaptive VCs are all busy — class 1 —
///    waiting there (the header re-selects, so escape is re-offered);
/// 5. a non-minimal detour: the unblocked port (never the local port and
///    never a U-turn back through `in_port`) whose neighbour is closest to
///    the destination, preferring ports perpendicular to the escape
///    direction over its reverse — class 1.
///
/// When every candidate is blocked the packet commits to the escape port and
/// waits; against a permanent fault it strands there, visibly, in the
/// drop/strand accounting rather than silently. The algorithm is stateless
/// and never U-turns onto the escape class, so it routes around isolated
/// faults but does not search its way out of dead-end corridors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimalAdaptive {
    /// `true` → pre-fix fault re-entry: a packet leaving a faulted escape
    /// hop falls through to the unrestricted adaptive selection and may
    /// wait on a full adaptive VC (the mixed-class wait edge).
    unrestricted_reentry: bool,
}

impl MinimalAdaptive {
    /// Creates the minimal-adaptive routing function.
    pub fn new() -> Self {
        MinimalAdaptive { unrestricted_reentry: false }
    }

    /// The pre-fix fault re-entry semantics: a packet whose escape hop is
    /// faulted re-enters the adaptive class unconditionally, including the
    /// "wait on a full adaptive VC" step — the wait edge that lets a
    /// mixed-class cycle close. Retained **only** so the regression suite
    /// can demonstrate the deadlock the restricted re-entry rule closes;
    /// never use this in a real configuration.
    #[cfg(test)]
    pub fn with_unrestricted_reentry() -> Self {
        MinimalAdaptive { unrestricted_reentry: true }
    }

    /// The torus-aware minimal direction along each still-uncorrected
    /// dimension, X first (up to two candidates).
    fn minimal_candidates(topo: &Topology, current: usize, dst: usize) -> [Option<Direction>; 2] {
        let (cx, cy) = topo.coords(current);
        let (dx, dy) = topo.coords(dst);
        let torus = topo.is_torus();
        let x = (cx != dx).then(|| {
            if ring_positive(torus, topo.width(), cx, dx) {
                Direction::East
            } else {
                Direction::West
            }
        });
        let y = (cy != dy).then(|| {
            if ring_positive(torus, topo.height(), cy, dy) {
                Direction::South
            } else {
                Direction::North
            }
        });
        [x, y]
    }
}

impl RoutingAlgorithm for MinimalAdaptive {
    /// The fault-free deterministic path: the escape network's mesh-XY route.
    fn route(&self, topo: &Topology, current: usize, dst: usize) -> Direction {
        mesh_xy(topo, current, dst)
    }

    /// Packets following [`route`](Self::route) stay on the escape class.
    fn next_vc_class(&self, _topo: &Topology, _src: usize, _current: usize, _dst: usize) -> u8 {
        0
    }

    fn wants_escape_classes(&self) -> bool {
        true
    }

    fn route_around(
        &self,
        topo: &Topology,
        _src: usize,
        current: usize,
        dst: usize,
        in_port: usize,
        in_class: u8,
        blocked: u8,
        adaptive_full: u8,
    ) -> (Direction, u8) {
        let escape = mesh_xy(topo, current, dst);
        if escape == Direction::Local {
            return (Direction::Local, 0);
        }
        let usable = |dir: Direction| {
            blocked & (1u8 << dir.index()) == 0 && topo.neighbor(current, dir).is_some()
        };
        // Non-minimal detour: closest-to-destination unblocked port, never a
        // U-turn. The reverse of the escape direction ranks behind the two
        // perpendicular ports at equal distance — walking *around* a fault
        // beats backing away from it, which tends to orbit the fault region
        // forever. Remaining ties break on port order (N < E < S < W).
        // `require_free` additionally demands a free adaptive VC (the
        // restricted re-entry rule).
        let detour = |require_free: bool| -> Option<Direction> {
            let reverse = escape.opposite();
            let mut best: Option<(usize, bool, Direction)> = None;
            for dir in [Direction::North, Direction::East, Direction::South, Direction::West] {
                if dir == escape || dir.index() == in_port || !usable(dir) {
                    continue;
                }
                if require_free && adaptive_full & (1u8 << dir.index()) != 0 {
                    continue;
                }
                let nbr = topo.neighbor(current, dir).expect("usable port has a neighbor");
                let dist = topo.hop_distance(nbr, dst);
                let backs_away = dir == reverse;
                if best.is_none_or(|(d, b, _)| (dist, backs_away) < (d, b)) {
                    best = Some((dist, backs_away, dir));
                }
            }
            best.map(|(_, _, dir)| dir)
        };
        // Sticky escape: a packet on an escape channel continues on the
        // escape network, whatever the congestion — only a *faulted* escape
        // hop sends it back into the adaptive class (see the type docs).
        // XY never reverses, so this continuation cannot ping-pong.
        let on_escape = in_class == 0 && in_port != Direction::Local.index();
        if on_escape && usable(escape) {
            return (escape, 0);
        }
        // Adaptive class. Minimal progress first (wrap links eligible): any
        // unblocked minimal port with a free adaptive VC, X-dimension first.
        let minimal = MinimalAdaptive::minimal_candidates(topo, current, dst);
        for dir in minimal.into_iter().flatten() {
            if usable(dir) && adaptive_full & (1u8 << dir.index()) == 0 {
                return (dir, 1);
            }
        }
        if on_escape && !self.unrestricted_reentry {
            // Restricted re-entry (the deadlock fix): this packet holds
            // escape channels upstream, so it may only *take* a free
            // adaptive VC (a detour counts), never *wait* on a full one —
            // that wait edge closes mixed-class cycles. With every adaptive
            // candidate full it stays committed to the faulted escape port;
            // the header re-selects every cycle, so it re-enters the moment
            // a VC frees (or the fence drops on a transient fault).
            if let Some(dir) = detour(true) {
                return (dir, 1);
            }
            return (escape, 0);
        }
        // All adaptive minimal VCs busy: offer the escape channel — the
        // fallback Duato's deadlock argument requires every blocked header
        // to see (the RC stage re-runs this selection each cycle). Never
        // through the port the packet arrived on: committing that U-turn to
        // the sticky escape class bounces the packet between two routers
        // forever and wedges both VCs.
        let ping_pong = escape.index() == in_port;
        if usable(escape) && !ping_pong {
            return (escape, 0);
        }
        // Escape blocked (or a bounce): wait minimally in the adaptive class
        // before considering a detour — the header keeps re-selecting.
        for dir in minimal.into_iter().flatten() {
            if usable(dir) {
                return (dir, 1);
            }
        }
        match detour(false) {
            Some(dir) => (dir, 1),
            // Fully blocked: commit to the escape port and wait (or strand).
            None => (escape, 0),
        }
    }
}

/// The routing-algorithm axis of a [`NetworkConfig`](crate::NetworkConfig):
/// a serialisable name that resolves to a [`RoutingAlgorithm`]
/// implementation at simulation construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Dimension-ordered XY (the paper's baseline).
    #[default]
    Xy,
    /// Dimension-ordered YX.
    Yx,
    /// Minimal-adaptive with dimension-ordered escape VCs; requires at least
    /// two virtual channels.
    MinimalAdaptive,
}

impl RoutingKind {
    /// All routing kinds, for sweeping.
    pub const ALL: [RoutingKind; 3] =
        [RoutingKind::Xy, RoutingKind::Yx, RoutingKind::MinimalAdaptive];

    /// Short lowercase name used in scenario labels and result files.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingKind::Xy => "xy",
            RoutingKind::Yx => "yx",
            RoutingKind::MinimalAdaptive => "adaptive",
        }
    }

    /// Instantiates the algorithm.
    pub fn algorithm(&self) -> Box<dyn RoutingAlgorithm> {
        match self {
            RoutingKind::Xy => Box::new(XyRouting::new()),
            RoutingKind::Yx => Box::new(YxRouting::new()),
            RoutingKind::MinimalAdaptive => Box::new(MinimalAdaptive::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn xy_reaches_destination_with_minimal_hops() {
        let mesh = Topology::mesh(5, 5);
        let routing = XyRouting::new();
        for src in 0..mesh.node_count() {
            for dst in 0..mesh.node_count() {
                assert_eq!(routing.path_length(&mesh, src, dst), mesh.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn yx_reaches_destination_with_minimal_hops() {
        let mesh = Topology::mesh(4, 6);
        let routing = YxRouting::new();
        for src in 0..mesh.node_count() {
            for dst in 0..mesh.node_count() {
                assert_eq!(routing.path_length(&mesh, src, dst), mesh.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn xy_corrects_x_before_y() {
        let mesh = Topology::mesh(5, 5);
        let routing = XyRouting::new();
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(3, 3);
        assert_eq!(routing.route(&mesh, src, dst), Direction::East);
        let mid = mesh.node_at(3, 0);
        assert_eq!(routing.route(&mesh, mid, dst), Direction::South);
    }

    #[test]
    fn yx_corrects_y_before_x() {
        let mesh = Topology::mesh(5, 5);
        let routing = YxRouting::new();
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(3, 3);
        assert_eq!(routing.route(&mesh, src, dst), Direction::South);
    }

    #[test]
    fn destination_routes_to_local_port() {
        for topo in [Topology::mesh(4, 4), Topology::torus(4, 4)] {
            let routing = XyRouting::new();
            for node in 0..topo.node_count() {
                assert_eq!(routing.route(&topo, node, node), Direction::Local);
            }
        }
    }

    #[test]
    fn xy_route_never_leaves_mesh() {
        let mesh = Topology::mesh(8, 8);
        let routing = XyRouting::new();
        for src in 0..mesh.node_count() {
            for dst in 0..mesh.node_count() {
                if src == dst {
                    continue;
                }
                let dir = routing.route(&mesh, src, dst);
                assert!(mesh.neighbor(src, dir).is_some(), "route must point at a real neighbor");
            }
        }
    }

    #[test]
    fn torus_routes_are_minimal_for_both_orders() {
        for topo in [Topology::torus(5, 5), Topology::torus(4, 6)] {
            for src in 0..topo.node_count() {
                for dst in 0..topo.node_count() {
                    assert_eq!(
                        XyRouting::new().path_length(&topo, src, dst),
                        topo.hop_distance(src, dst),
                        "xy {topo}: {src} -> {dst}"
                    );
                    assert_eq!(
                        YxRouting::new().path_length(&topo, src, dst),
                        topo.hop_distance(src, dst),
                        "yx {topo}: {src} -> {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_prefers_the_wrap_link_when_shorter() {
        let t = Topology::torus(5, 5);
        let routing = XyRouting::new();
        // (0,0) -> (4,0): one hop west through the wrap link, not four east.
        assert_eq!(routing.route(&t, t.node_at(0, 0), t.node_at(4, 0)), Direction::West);
        // (0,0) -> (3,0): two hops west around the ring.
        assert_eq!(routing.route(&t, t.node_at(0, 0), t.node_at(3, 0)), Direction::West);
        // (0,0) -> (2,0): two hops east, no wrap.
        assert_eq!(routing.route(&t, t.node_at(0, 0), t.node_at(2, 0)), Direction::East);
    }

    #[test]
    fn even_ring_ties_break_towards_east_and_south() {
        let t = Topology::torus(4, 4);
        let routing = XyRouting::new();
        // Distance 2 both ways on a 4-ring: East wins.
        assert_eq!(routing.route(&t, t.node_at(0, 0), t.node_at(2, 0)), Direction::East);
        assert_eq!(routing.route(&t, t.node_at(0, 0), t.node_at(0, 2)), Direction::South);
    }

    #[test]
    fn vc_class_flips_after_the_dateline() {
        let t = Topology::torus(5, 5);
        let routing = XyRouting::new();
        let src = t.node_at(4, 0);
        let dst = t.node_at(1, 0);
        // Route goes East through the wrap link 4 -> 0 -> 1.
        assert_eq!(routing.route(&t, src, dst), Direction::East);
        // The very first hop crosses the dateline: downstream class is 1.
        assert_eq!(routing.next_vc_class(&t, src, src, dst), 1);
        // After the crossing the packet stays in class 1.
        assert_eq!(routing.next_vc_class(&t, src, t.node_at(0, 0), dst), 1);
        // A route that never wraps stays in class 0 throughout.
        let src2 = t.node_at(0, 0);
        let dst2 = t.node_at(2, 0);
        assert_eq!(routing.next_vc_class(&t, src2, src2, dst2), 0);
        assert_eq!(routing.next_vc_class(&t, src2, t.node_at(1, 0), dst2), 0);
    }

    #[test]
    fn vc_class_resets_when_switching_dimension() {
        let t = Topology::torus(5, 5);
        let routing = XyRouting::new();
        // X leg wraps (class 1), the subsequent Y leg does not: the class
        // must fall back to 0 when the packet enters the fresh ring.
        let src = t.node_at(4, 0);
        let dst = t.node_at(0, 2);
        let after_x = t.node_at(0, 0);
        assert_eq!(routing.next_vc_class(&t, src, src, dst), 1);
        assert_eq!(routing.route(&t, after_x, dst), Direction::South);
        assert_eq!(routing.next_vc_class(&t, src, after_x, dst), 0);
    }

    #[test]
    fn mesh_vc_class_is_always_zero() {
        let mesh = Topology::mesh(4, 4);
        for routing in [&XyRouting::new() as &dyn RoutingAlgorithm, &YxRouting::new()] {
            for src in 0..mesh.node_count() {
                for dst in 0..mesh.node_count() {
                    assert_eq!(routing.next_vc_class(&mesh, src, src, dst), 0);
                }
            }
        }
    }

    #[test]
    fn adaptive_selection_is_minimal_and_escape_stays_mesh_xy() {
        for topo in [Topology::mesh(5, 5), Topology::torus(5, 5)] {
            let adaptive = MinimalAdaptive::new();
            let local = Direction::Local.index();
            for src in 0..topo.node_count() {
                for dst in 0..topo.node_count() {
                    // With adaptive VCs free, an injected packet makes
                    // minimal progress in the adaptive class.
                    let (dir, class) = adaptive.route_around(&topo, src, src, dst, local, 1, 0, 0);
                    if src == dst {
                        assert_eq!((dir, class), (Direction::Local, 0));
                        continue;
                    }
                    assert_eq!(class, 1, "fault-free traffic rides the adaptive class");
                    let nbr = topo.neighbor(src, dir).unwrap();
                    assert_eq!(
                        topo.hop_distance(nbr, dst),
                        topo.hop_distance(src, dst) - 1,
                        "{topo}: {src}->{dst} via {dir:?} must be minimal"
                    );
                    // With every adaptive VC busy, the fallback is the
                    // escape network: mesh-XY, class 0, never a wrap link.
                    let (dir, class) =
                        adaptive.route_around(&topo, src, src, dst, local, 1, 0, 0b1111);
                    assert_eq!(dir, mesh_xy(&topo, src, dst));
                    assert_eq!(class, 0, "blocked headers are offered the escape class");
                    let nbr = topo.neighbor(src, dir).unwrap();
                    let (sx, sy) = topo.coords(src);
                    let (nx, ny) = topo.coords(nbr);
                    assert!(
                        sx.abs_diff(nx) + sy.abs_diff(ny) == 1,
                        "escape hop {src}->{nbr} must not wrap"
                    );
                }
            }
        }
    }

    #[test]
    fn escape_class_is_sticky_until_faulted() {
        let mesh = Topology::mesh(5, 5);
        let adaptive = MinimalAdaptive::new();
        let current = mesh.node_at(2, 2);
        let dst = mesh.node_at(4, 2);
        // Escape wants East; the packet arrived on an escape VC from the
        // West. It must continue on escape even though adaptive VCs are
        // free everywhere — an escape holder never waits on adaptive
        // resources (Duato's wormhole condition).
        let in_west = Direction::West.index();
        assert_eq!(
            adaptive.route_around(&mesh, 0, current, dst, in_west, 0, 0, 0),
            (Direction::East, 0)
        );
        // A *faulted* escape hop is the one exception: the packet re-enters
        // the adaptive class instead of stranding at the dead link.
        let blocked = 1u8 << Direction::East.index();
        let (dir, class) = adaptive.route_around(&mesh, 0, current, dst, in_west, 0, blocked, 0);
        assert_eq!(class, 1, "a dead escape hop re-enters the adaptive class");
        assert_ne!(dir, Direction::East);
        // An adaptive packet, by contrast, only takes escape when the
        // adaptive VCs of its minimal port are exhausted.
        let full_east = 1u8 << Direction::East.index();
        assert_eq!(
            adaptive.route_around(&mesh, 0, current, dst, in_west, 1, 0, full_east),
            (Direction::East, 0)
        );
    }

    #[test]
    fn adaptive_deviates_around_a_blocked_escape_port() {
        let mesh = Topology::mesh(5, 5);
        let adaptive = MinimalAdaptive::new();
        let src = mesh.node_at(1, 2);
        let dst = mesh.node_at(3, 4);
        // Escape wants East; block it: the other minimal port (South) wins,
        // in the adaptive class.
        let blocked = 1u8 << Direction::East.index();
        assert_eq!(
            adaptive.route_around(&mesh, src, src, dst, Direction::Local.index(), 1, blocked, 0),
            (Direction::South, 1)
        );
        // Block both minimal ports: a detour (closest to dst, never a
        // U-turn) in the adaptive class.
        let blocked = blocked | 1u8 << Direction::South.index();
        let (dir, class) =
            adaptive.route_around(&mesh, src, src, dst, Direction::West.index(), 1, blocked, 0);
        assert_eq!(class, 1);
        assert_eq!(dir, Direction::North, "north neighbour (1,1) is closer than a U-turn west");
        // Fully blocked: commit to the escape port and wait there.
        assert_eq!(
            adaptive.route_around(&mesh, src, src, dst, Direction::Local.index(), 1, 0b1111, 0),
            (Direction::East, 0)
        );
    }

    #[test]
    fn adaptive_never_routes_off_the_topology_under_arbitrary_blockage() {
        for topo in [Topology::mesh(4, 4), Topology::torus(4, 4)] {
            let adaptive = MinimalAdaptive::new();
            for src in 0..topo.node_count() {
                for dst in 0..topo.node_count() {
                    if src == dst {
                        continue;
                    }
                    for blocked in 0u8..16 {
                        for in_port in 0..5 {
                            for in_class in 0..2u8 {
                                for adaptive_full in [0u8, 0b0101, 0b1111] {
                                    let (dir, class) = adaptive.route_around(
                                        &topo,
                                        src,
                                        src,
                                        dst,
                                        in_port,
                                        in_class,
                                        blocked,
                                        adaptive_full,
                                    );
                                    assert!(dir != Direction::Local);
                                    assert!(
                                        topo.neighbor(src, dir).is_some(),
                                        "{topo}: {src}->{dst} blocked {blocked:#06b} chose {dir:?}"
                                    );
                                    assert!(class <= 1);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dimension_ordered_route_around_ignores_blockage() {
        // The default trait impl must keep DO routing bit-identical with and
        // without blockage context — that is what makes DO visibly strand
        // traffic at faults.
        let t = Topology::torus(5, 5);
        let xy = XyRouting::new();
        for src in 0..t.node_count() {
            for dst in 0..t.node_count() {
                let (dir, class) = xy.route_around(&t, src, src, dst, 0, 1, 0b1111, 0b1111);
                assert_eq!(dir, xy.route(&t, src, dst));
                assert_eq!(class, xy.next_vc_class(&t, src, src, dst));
            }
        }
        assert!(!xy.wants_escape_classes());
        assert!(MinimalAdaptive::new().wants_escape_classes());
    }

    #[test]
    fn static_routes_ignore_every_context_argument() {
        // The premise of `route_is_static`: the router computes such a route
        // once and never again while the head waits, so the answer must not
        // depend on anything that can change meanwhile (`blocked`,
        // `adaptive_full`) or that RC reads off the waiting VC (`in_port`,
        // `in_class`). Every blocked × adaptive_full pair is tried for every
        // (src, current, dst); the input port and class cycle through their
        // ten combinations inside each pair's sweep.
        let xy = XyRouting::new();
        let yx = YxRouting::new();
        assert!(xy.route_is_static() && yx.route_is_static());
        assert!(!MinimalAdaptive::new().route_is_static());
        let algorithms: [&dyn RoutingAlgorithm; 2] = [&xy, &yx];
        let topologies = [
            Topology::mesh(4, 4),
            Topology::torus(4, 4),
            Topology::mesh(5, 3),
            Topology::torus(5, 3),
        ];
        for topo in &topologies {
            let n = topo.node_count();
            for routing in algorithms {
                for (src, current, dst) in
                    (0..n * n * n).map(|i| (i / (n * n), i / n % n, i % n))
                {
                    let expected = (
                        routing.route(topo, current, dst),
                        routing.next_vc_class(topo, src, current, dst),
                    );
                    for context in 0..256 * 16usize {
                        let (blocked, adaptive_full) = ((context >> 4) as u8, (context & 15) as u8);
                        let (in_port, in_class) = (context % 5, (context / 5 % 2) as u8);
                        let got = routing.route_around(
                            topo, src, current, dst, in_port, in_class, blocked, adaptive_full,
                        );
                        assert_eq!(got, expected, "{topo}: {src} -> {dst} at {current}");
                    }
                }
            }
        }
    }

    #[test]
    fn path_length_bound_admits_full_torus_wrap_routes() {
        // Regression for the loop-detector bound: the longest minimal torus
        // routes (half-way around both rings) and every mesh route must stay
        // clearly inside it — `path_length` must never panic on a legal route.
        for topo in [Topology::torus(8, 8), Topology::torus(2, 8), Topology::mesh(8, 8)] {
            let bound = 2 * topo.node_count() + 2 * (topo.width() + topo.height());
            for src in 0..topo.node_count() {
                for dst in 0..topo.node_count() {
                    let hops = XyRouting::new().path_length(&topo, src, dst);
                    assert!(hops <= bound, "{topo}: {src}->{dst} took {hops} hops");
                }
            }
        }
    }
}
