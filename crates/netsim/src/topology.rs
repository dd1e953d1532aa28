//! 2D mesh / torus topology and port algebra.
//!
//! Every router has five ports: the four grid directions plus a local port
//! that connects to the injecting/ejecting node. The paper's experiments use
//! 4×4, 5×5 and 8×8 meshes; the torus variant adds the wrap-around links that
//! standard NoC evaluation (Booksim-style) expects, so that the DVFS policies
//! can be exercised on ring-closed dimensions as well.

use std::fmt;

/// Number of ports on a grid router (North, East, South, West, Local).
pub const PORT_COUNT: usize = 5;

/// One of the five router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards decreasing y.
    North,
    /// Towards increasing x.
    East,
    /// Towards increasing y.
    South,
    /// Towards decreasing x.
    West,
    /// The local injection/ejection port.
    Local,
}

impl Direction {
    /// All directions, in port-index order.
    pub const ALL: [Direction; PORT_COUNT] =
        [Direction::North, Direction::East, Direction::South, Direction::West, Direction::Local];

    /// The port index (0–4) used to address router data structures.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The direction obtained by looking back along this one
    /// (the port a flit arrives on at the downstream router).
    ///
    /// # Panics
    ///
    /// Panics when called on [`Direction::Local`], which has no opposite.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => panic!("the local port has no opposite direction"),
        }
    }

    /// Converts a port index back into a direction.
    ///
    /// # Panics
    ///
    /// Panics if `index >= PORT_COUNT`.
    pub fn from_index(index: usize) -> Direction {
        Direction::ALL[index]
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// Whether the grid's dimensions are open chains (mesh) or closed rings
/// (torus with wrap-around links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Open 2D mesh: boundary routers have no neighbour beyond the edge.
    Mesh,
    /// 2D torus: every row and column closes into a ring via wrap-around
    /// links. Requires dateline-aware routing for deadlock freedom (see
    /// [`RoutingAlgorithm`](crate::RoutingAlgorithm)).
    Torus,
}

impl TopologyKind {
    /// Both supported kinds.
    pub const ALL: [TopologyKind; 2] = [TopologyKind::Mesh, TopologyKind::Torus];

    /// A short lowercase name (`"mesh"` / `"torus"`).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A `width × height` 2D grid, either mesh (open) or torus (wrap-around).
///
/// Nodes are numbered row-major: node `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    kind: TopologyKind,
    width: usize,
    height: usize,
}

impl Topology {
    /// Creates an open `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    #[cfg(test)]
    pub fn mesh(width: usize, height: usize) -> Self {
        Topology::with_kind(TopologyKind::Mesh, width, height)
    }

    /// Creates a `width × height` torus (wrap-around links in both
    /// dimensions).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    #[cfg(test)]
    pub fn torus(width: usize, height: usize) -> Self {
        Topology::with_kind(TopologyKind::Torus, width, height)
    }

    /// Creates a topology of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn with_kind(kind: TopologyKind, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "topology must be at least 2x2");
        Topology { kind, width, height }
    }

    /// Whether this topology has wrap-around links.
    pub fn is_torus(&self) -> bool {
        self.kind == TopologyKind::Torus
    }

    /// Grid width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Cartesian coordinates `(x, y)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.node_count(), "node index out of range");
        (node % self.width, node / self.width)
    }

    /// Node index at coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn node_at(&self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height, "coordinates out of range");
        y * self.width + x
    }

    /// The neighbouring node in direction `dir`, if it exists. On a mesh,
    /// boundary routers have no neighbour beyond the edge; on a torus every
    /// non-local direction wraps around, so the answer is always `Some`.
    pub fn neighbor(&self, node: usize, dir: Direction) -> Option<usize> {
        let (x, y) = self.coords(node);
        match self.kind {
            TopologyKind::Mesh => match dir {
                Direction::North => (y > 0).then(|| self.node_at(x, y - 1)),
                Direction::South => (y + 1 < self.height).then(|| self.node_at(x, y + 1)),
                Direction::East => (x + 1 < self.width).then(|| self.node_at(x + 1, y)),
                Direction::West => (x > 0).then(|| self.node_at(x - 1, y)),
                Direction::Local => None,
            },
            TopologyKind::Torus => match dir {
                Direction::North => Some(self.node_at(x, (y + self.height - 1) % self.height)),
                Direction::South => Some(self.node_at(x, (y + 1) % self.height)),
                Direction::East => Some(self.node_at((x + 1) % self.width, y)),
                Direction::West => Some(self.node_at((x + self.width - 1) % self.width, y)),
                Direction::Local => None,
            },
        }
    }

    /// Minimal hop distance between two nodes: Manhattan distance on the
    /// mesh, per-dimension shortest-way-around distance on the torus.
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        match self.kind {
            TopologyKind::Mesh => ax.abs_diff(bx) + ay.abs_diff(by),
            TopologyKind::Torus => {
                let dx = ax.abs_diff(bx);
                let dy = ay.abs_diff(by);
                dx.min(self.width - dx) + dy.min(self.height - dy)
            }
        }
    }

    /// Iterates over every directed inter-router link as
    /// `(from_node, direction, to_node)`. Torus wrap-around links are
    /// included.
    #[cfg(test)]
    pub fn links(&self) -> Vec<(usize, Direction, usize)> {
        let mut out = Vec::new();
        for node in 0..self.node_count() {
            for dir in
                [Direction::North, Direction::East, Direction::South, Direction::West].iter()
            {
                if let Some(n) = self.neighbor(node, *dir) {
                    out.push((node, *dir, n));
                }
            }
        }
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} {}", self.width, self.height, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_round_trip() {
        let m = Topology::mesh(5, 4);
        for node in 0..m.node_count() {
            let (x, y) = m.coords(node);
            assert_eq!(m.node_at(x, y), node);
        }
    }

    #[test]
    fn corner_neighbors() {
        let m = Topology::mesh(3, 3);
        // Node 0 is the top-left corner (x=0, y=0).
        assert_eq!(m.neighbor(0, Direction::North), None);
        assert_eq!(m.neighbor(0, Direction::West), None);
        assert_eq!(m.neighbor(0, Direction::East), Some(1));
        assert_eq!(m.neighbor(0, Direction::South), Some(3));
        // Node 8 is the bottom-right corner.
        assert_eq!(m.neighbor(8, Direction::South), None);
        assert_eq!(m.neighbor(8, Direction::East), None);
        assert_eq!(m.neighbor(8, Direction::North), Some(5));
        assert_eq!(m.neighbor(8, Direction::West), Some(7));
    }

    #[test]
    fn local_port_has_no_neighbor() {
        for topo in [Topology::mesh(4, 4), Topology::torus(4, 4)] {
            for node in 0..topo.node_count() {
                assert_eq!(topo.neighbor(node, Direction::Local), None);
            }
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let m = Topology::mesh(5, 5);
        assert_eq!(m.hop_distance(0, 24), 8);
        assert_eq!(m.hop_distance(12, 12), 0);
        assert_eq!(m.hop_distance(0, 4), 4);
        assert_eq!(m.hop_distance(m.node_at(1, 1), m.node_at(3, 4)), 5);
    }

    #[test]
    fn link_count_matches_formula() {
        // A k x k mesh has 2*k*(k-1) bidirectional links = 4*k*(k-1) directed.
        let m = Topology::mesh(5, 5);
        assert_eq!(m.links().len(), 4 * 5 * 4);
        let m = Topology::mesh(4, 4);
        assert_eq!(m.links().len(), 4 * 4 * 3);
    }

    #[test]
    fn opposite_directions_pair_up() {
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::South.opposite(), Direction::North);
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::West.opposite(), Direction::East);
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_opposite_panics() {
        let _ = Direction::Local.opposite();
    }

    #[test]
    fn direction_index_round_trip() {
        for dir in Direction::ALL {
            assert_eq!(Direction::from_index(dir.index()), dir);
        }
    }

    #[test]
    fn links_connect_adjacent_nodes_only() {
        for topo in [Topology::mesh(4, 3), Topology::torus(4, 3)] {
            for (from, _dir, to) in topo.links() {
                assert_eq!(topo.hop_distance(from, to), 1, "{topo}: {from} -> {to}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_mesh_panics() {
        let _ = Topology::mesh(1, 8);
    }

    #[test]
    fn torus_neighbors_wrap_around() {
        let t = Topology::torus(4, 3);
        // Top-left corner wraps in all four directions.
        assert_eq!(t.neighbor(0, Direction::North), Some(t.node_at(0, 2)));
        assert_eq!(t.neighbor(0, Direction::West), Some(t.node_at(3, 0)));
        assert_eq!(t.neighbor(0, Direction::East), Some(1));
        assert_eq!(t.neighbor(0, Direction::South), Some(4));
        // East off the right edge wraps to column 0.
        let right = t.node_at(3, 1);
        assert_eq!(t.neighbor(right, Direction::East), Some(t.node_at(0, 1)));
    }

    #[test]
    fn torus_hop_distance_takes_the_short_way_around() {
        let t = Topology::torus(5, 5);
        // Corner to opposite corner is 2 hops on the torus (wrap both dims).
        assert_eq!(t.hop_distance(t.node_at(0, 0), t.node_at(4, 4)), 2);
        assert_eq!(t.hop_distance(t.node_at(0, 0), t.node_at(2, 2)), 4);
        assert_eq!(t.hop_distance(12, 12), 0);
        // A mesh of the same size is strictly farther across the diagonal.
        let m = Topology::mesh(5, 5);
        assert!(m.hop_distance(0, 24) > t.hop_distance(0, 24));
    }

    #[test]
    fn torus_has_a_link_per_node_and_direction() {
        // Every node has all four neighbours on a torus: 4*w*h directed links.
        let t = Topology::torus(4, 4);
        assert_eq!(t.links().len(), 4 * 16);
        let t = Topology::torus(5, 3);
        assert_eq!(t.links().len(), 4 * 15);
    }

    #[test]
    fn kind_accessors_and_display() {
        let m = Topology::mesh(4, 4);
        let t = Topology::torus(4, 4);
        assert!(!m.is_torus());
        assert!(!m.is_torus());
        assert!(t.is_torus());
        assert_eq!(m.to_string(), "4x4 mesh");
        assert_eq!(t.to_string(), "4x4 torus");
        assert_ne!(m, t, "kind participates in equality");
    }
}
