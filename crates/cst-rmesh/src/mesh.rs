//! The reconfigurable mesh (R-Mesh) — the paper's motivating model
//! (reference \[5\]): a 2D grid of PEs, each with four ports (N, S, E, W)
//! it may partition into connected groups *every step*. Port groups fuse
//! with neighboring PEs' wires into global buses; a written value is read
//! by every port on its bus within the step.
//!
//! This is exactly the "extremely fast but power-hungry" regime the
//! paper's introduction describes: solving a problem in O(1) steps
//! requires reconfiguring essentially every PE's switches at every step.
//! [`PortMeter`] charges that under the same hold semantics as the CST's
//! [`cst_core::PowerMeter`], so experiment E12 can price R-Mesh speed
//! against CST/PADR frugality in the same currency.

use cst_core::CstError;
use serde::{Deserialize, Serialize};

/// One of the four ports of an R-Mesh PE.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Port {
    North,
    South,
    East,
    West,
}

impl Port {
    /// All ports in dense-index order.
    pub const ALL: [Port; 4] = [Port::North, Port::South, Port::East, Port::West];

    /// Dense index 0..4.
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
        }
    }
}

/// A partition of the four ports into groups: `group[p]` is the group id
/// (0..4) of port `p`; ports with equal ids are internally fused. The 15
/// set partitions of 4 elements are all expressible.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Partition {
    group: [u8; 4],
}

impl Partition {
    /// All four ports separate (the quiescent configuration).
    pub const ISOLATED: Partition = Partition { group: [0, 1, 2, 3] };

    /// Horizontal through-bus: {E, W}, {N}, {S}.
    pub const EW: Partition = Partition { group: [0, 1, 2, 2] };

    /// Vertical through-bus: {N, S}, {E}, {W}.
    pub const NS: Partition = Partition { group: [0, 0, 1, 2] };

    /// Full crossover: {N, S, E, W} all fused.
    pub const ALL_FUSED: Partition = Partition { group: [0, 0, 0, 0] };

    /// The staircase-down step: {W, S}, {N, E} — a signal entering from
    /// the west leaves south (one row down); one entering from the north
    /// leaves east.
    pub const WS_NE: Partition = Partition { group: [1, 0, 1, 0] };

    /// Build from explicit groups (ids are arbitrary labels).
    pub fn from_groups(groups: &[&[Port]]) -> Partition {
        let mut group = [u8::MAX; 4];
        for (gid, ports) in groups.iter().enumerate() {
            for p in *ports {
                group[p.index()] = gid as u8;
            }
        }
        // unmentioned ports become singletons
        let mut next = groups.len() as u8;
        for g in &mut group {
            if *g == u8::MAX {
                *g = next;
                next += 1;
            }
        }
        Partition { group }
    }

    /// True if the two ports are fused.
    pub fn fused(&self, a: Port, b: Port) -> bool {
        self.group[a.index()] == self.group[b.index()]
    }
}

/// A value written onto a bus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write<V> {
    pub row: usize,
    pub col: usize,
    pub port: Port,
    pub value: V,
}

/// Power accounting for R-Mesh port partitions under hold semantics:
/// reconfiguring a PE whose partition differs from the one it holds costs
/// one unit; keeping it is free (the most charitable model for the
/// R-Mesh — the paper's point survives even so).
#[derive(Clone, Debug)]
pub struct PortMeter {
    held: Vec<Partition>,
    /// Units per PE.
    units: Vec<u64>,
    steps: u64,
}

impl PortMeter {
    fn new(pes: usize) -> PortMeter {
        PortMeter { held: vec![Partition::ISOLATED; pes], units: vec![0; pes], steps: 0 }
    }

    /// Total units across the mesh.
    pub fn total_units(&self) -> u64 {
        self.units.iter().sum()
    }

    /// Maximum units at one PE.
    pub fn max_units(&self) -> u64 {
        self.units.iter().copied().max().unwrap_or(0)
    }

    /// Steps accounted.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// An `rows x cols` R-Mesh with per-PE configurations and a power meter.
pub struct RMesh {
    rows: usize,
    cols: usize,
    config: Vec<Partition>,
    meter: PortMeter,
}

impl RMesh {
    /// Build a mesh with all ports isolated.
    pub fn new(rows: usize, cols: usize) -> RMesh {
        assert!(rows >= 1 && cols >= 1);
        RMesh {
            rows,
            cols,
            config: vec![Partition::ISOLATED; rows * cols],
            meter: PortMeter::new(rows * cols),
        }
    }

    /// Rows of the mesh.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the mesh.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The power meter.
    pub fn meter(&self) -> &PortMeter {
        &self.meter
    }

    fn pe(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        r * self.cols + c
    }

    /// Set the whole mesh's configuration for the next step, charging the
    /// meter for every PE whose partition actually changes.
    pub fn configure<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, usize) -> Partition,
    {
        self.meter.steps += 1;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let i = self.pe(r, c);
                let p = f(r, c);
                if self.meter.held[i] != p {
                    self.meter.held[i] = p;
                    self.meter.units[i] += 1;
                }
                self.config[i] = p;
            }
        }
    }

    /// Node id of `(r, c, port)` in the port graph.
    fn port_node(&self, r: usize, c: usize, port: Port) -> usize {
        self.pe(r, c) * 4 + port.index()
    }

    /// Resolve buses (connected components of the port graph) for the
    /// current configuration. Returns a component id per port node.
    fn resolve_buses(&self) -> Vec<usize> {
        let n = self.rows * self.cols * 4;
        let mut dsu: Vec<usize> = (0..n).collect();
        fn find(dsu: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while dsu[r] != r {
                r = dsu[r];
            }
            let mut cur = x;
            while dsu[cur] != r {
                let next = dsu[cur];
                dsu[cur] = r;
                cur = next;
            }
            r
        }
        let union = |dsu: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(dsu, a), find(dsu, b));
            if ra != rb {
                dsu[ra] = rb;
            }
        };
        // Internal fusions.
        for r in 0..self.rows {
            for c in 0..self.cols {
                let p = self.config[self.pe(r, c)];
                for a in Port::ALL {
                    for b in Port::ALL {
                        if a.index() < b.index() && p.fused(a, b) {
                            union(
                                &mut dsu,
                                self.port_node(r, c, a),
                                self.port_node(r, c, b),
                            );
                        }
                    }
                }
            }
        }
        // External wires: E <-> W and S <-> N between neighbors.
        for r in 0..self.rows {
            for c in 0..self.cols.saturating_sub(1) {
                union(
                    &mut dsu,
                    self.port_node(r, c, Port::East),
                    self.port_node(r, c + 1, Port::West),
                );
            }
        }
        for r in 0..self.rows.saturating_sub(1) {
            for c in 0..self.cols {
                union(
                    &mut dsu,
                    self.port_node(r, c, Port::South),
                    self.port_node(r + 1, c, Port::North),
                );
            }
        }
        (0..n).map(|x| find(&mut dsu, x)).collect()
    }

    /// Execute one step: buses form per the current configuration, the
    /// writers drive their buses, and the returned closure reads any
    /// port's bus value. Two writers on one bus is a conflict.
    pub fn step<V: Clone>(
        &self,
        writes: &[Write<V>],
    ) -> Result<ReadView<V>, CstError> {
        let comp = self.resolve_buses();
        let mut bus_value: std::collections::HashMap<usize, V> = std::collections::HashMap::new();
        for w in writes {
            let node = self.port_node(w.row, w.col, w.port);
            let root = comp[node];
            if bus_value.insert(root, w.value.clone()).is_some() {
                return Err(CstError::ProtocolViolation {
                    node: cst_core::NodeId::ROOT,
                    detail: format!("R-Mesh bus conflict at ({}, {})", w.row, w.col),
                });
            }
        }
        Ok(ReadView { comp, bus_value, cols: self.cols })
    }
}

/// The read side of one executed step.
pub struct ReadView<V> {
    comp: Vec<usize>,
    bus_value: std::collections::HashMap<usize, V>,
    cols: usize,
}

impl<V: Clone> ReadView<V> {
    /// What `(r, c, port)` reads this step.
    pub fn read(&self, r: usize, c: usize, port: Port) -> Option<V> {
        let node = (r * self.cols + c) * 4 + port.index();
        self.bus_value.get(&self.comp[node]).cloned()
    }

    /// True if the two ports ended up on the same bus.
    pub fn same_bus(&self, a: (usize, usize, Port), b: (usize, usize, Port)) -> bool {
        let na = (a.0 * self.cols + a.1) * 4 + a.2.index();
        let nb = (b.0 * self.cols + b.1) * 4 + b.2.index();
        self.comp[na] == self.comp[nb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_express_named_shapes() {
        assert!(Partition::EW.fused(Port::East, Port::West));
        assert!(!Partition::EW.fused(Port::North, Port::South));
        assert!(Partition::NS.fused(Port::North, Port::South));
        assert!(Partition::ALL_FUSED.fused(Port::North, Port::West));
        assert!(Partition::WS_NE.fused(Port::West, Port::South));
        assert!(Partition::WS_NE.fused(Port::North, Port::East));
        assert!(!Partition::WS_NE.fused(Port::West, Port::North));
        let p = Partition::from_groups(&[&[Port::North, Port::East]]);
        assert!(p.fused(Port::North, Port::East));
        assert!(!p.fused(Port::South, Port::West));
    }

    #[test]
    fn row_bus_broadcast() {
        let mut mesh = RMesh::new(2, 8);
        mesh.configure(|_, _| Partition::EW);
        let view = mesh
            .step(&[Write { row: 0, col: 3, port: Port::East, value: 7u32 }])
            .unwrap();
        // every E/W port of row 0 reads the value; row 1 reads nothing
        for c in 0..8 {
            assert_eq!(view.read(0, c, Port::West), Some(7));
            assert_eq!(view.read(1, c, Port::West), None);
        }
    }

    #[test]
    fn isolated_ports_no_propagation() {
        let mut mesh = RMesh::new(2, 2);
        mesh.configure(|_, _| Partition::ISOLATED);
        let view = mesh
            .step(&[Write { row: 0, col: 0, port: Port::East, value: 1u8 }])
            .unwrap();
        // the external wire still joins E(0,0) and W(0,1)
        assert_eq!(view.read(0, 1, Port::West), Some(1));
        // but nothing beyond
        assert_eq!(view.read(0, 1, Port::East), None);
    }

    #[test]
    fn conflict_on_shared_bus() {
        let mut mesh = RMesh::new(1, 4);
        mesh.configure(|_, _| Partition::EW);
        let writes = vec![
            Write { row: 0, col: 0, port: Port::East, value: 1u8 },
            Write { row: 0, col: 3, port: Port::West, value: 2u8 },
        ];
        assert!(mesh.step(&writes).is_err());
    }

    #[test]
    fn staircase_routing() {
        // 3x3, middle column in WS_NE (staircase), others EW: a signal
        // entering row 0 from the far west exits one row lower east of
        // the staircase column.
        let mut mesh = RMesh::new(3, 3);
        mesh.configure(|_, c| if c == 1 { Partition::WS_NE } else { Partition::EW });
        let view = mesh
            .step(&[Write { row: 0, col: 0, port: Port::West, value: 9u8 }])
            .unwrap();
        // signal: (0,0)W ~ (0,0)E -> (0,1)W ~ (0,1)S -> (1,1)N ~ (1,1)E -> (1,2)W ~ (1,2)E
        assert_eq!(view.read(1, 2, Port::East), Some(9));
        assert_eq!(view.read(0, 2, Port::East), None);
        assert!(view.same_bus((0, 0, Port::West), (1, 2, Port::East)));
    }

    #[test]
    fn meter_charges_changes_only() {
        let mut mesh = RMesh::new(4, 4);
        mesh.configure(|_, _| Partition::EW);
        assert_eq!(mesh.meter().total_units(), 16);
        // same configuration again: free
        mesh.configure(|_, _| Partition::EW);
        assert_eq!(mesh.meter().total_units(), 16);
        // flip everything: pay again
        mesh.configure(|_, _| Partition::NS);
        assert_eq!(mesh.meter().total_units(), 32);
        assert_eq!(mesh.meter().max_units(), 2);
        assert_eq!(mesh.meter().steps(), 3);
    }
}
