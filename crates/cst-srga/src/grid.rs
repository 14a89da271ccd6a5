//! The SRGA processing-element grid (Sidhu et al., FPL 2000 — the paper's
//! reference \[7\]).
//!
//! The Self-Reconfigurable Gate Array is a 2D array of PEs in which every
//! **row** and every **column** is internally connected by its own circuit
//! switched tree. Routing between arbitrary PEs is therefore a
//! composition of 1D CST communications — which is exactly what the
//! paper's CSA schedules power-optimally.

use cst_core::{CstError, CstTopology, LeafId};
use serde::{Deserialize, Serialize};

/// A PE coordinate: `row` selects the row CST, `col` the position in it
/// (and vice versa for column CSTs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Coord {
    pub row: usize,
    pub col: usize,
}

impl Coord {
    /// Shorthand constructor.
    pub fn at(row: usize, col: usize) -> Coord {
        Coord { row, col }
    }
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// An `rows x cols` SRGA grid. Both dimensions are powers of two (every
/// row/column hosts a complete binary CST).
#[derive(Clone, Debug)]
pub struct SrgaGrid {
    rows: usize,
    cols: usize,
    /// Topology shared by every row CST (they are all the same shape).
    row_topo: CstTopology,
    /// Topology shared by every column CST.
    col_topo: CstTopology,
}

impl SrgaGrid {
    /// Build a grid; both dimensions must be powers of two, at least 2.
    pub fn new(rows: usize, cols: usize) -> Result<SrgaGrid, CstError> {
        Ok(SrgaGrid {
            rows,
            cols,
            row_topo: CstTopology::new(cols)?,
            col_topo: CstTopology::new(rows)?,
        })
    }

    /// Convenience square-grid constructor that panics on bad sizes.
    pub fn square(n: usize) -> SrgaGrid {
        SrgaGrid::new(n, n).expect("grid dimensions must be powers of two >= 2")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total PEs.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// The topology of every row CST (`cols` leaves).
    pub fn row_topology(&self) -> &CstTopology {
        &self.row_topo
    }

    /// The topology of every column CST (`rows` leaves).
    pub fn col_topology(&self) -> &CstTopology {
        &self.col_topo
    }

    /// True if `c` is a valid coordinate.
    pub fn contains(&self, c: Coord) -> bool {
        c.row < self.rows && c.col < self.cols
    }

    /// Leaf of `c` within its row CST.
    pub fn row_leaf(&self, c: Coord) -> LeafId {
        debug_assert!(self.contains(c));
        LeafId(c.col)
    }

    /// Leaf of `c` within its column CST.
    pub fn col_leaf(&self, c: Coord) -> LeafId {
        debug_assert!(self.contains(c));
        LeafId(c.row)
    }

    /// Total switches across all row and column CSTs.
    pub fn num_switches(&self) -> usize {
        self.rows * self.row_topo.num_switches() + self.cols * self.col_topo.num_switches()
    }

    /// Iterate all coordinates row-major.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| Coord::at(r, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let g = SrgaGrid::new(4, 8).unwrap();
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 8);
        assert_eq!(g.num_pes(), 32);
        assert_eq!(g.row_topology().num_leaves(), 8);
        assert_eq!(g.col_topology().num_leaves(), 4);
        // 4 rows x 7 switches + 8 cols x 3 switches
        assert_eq!(g.num_switches(), 4 * 7 + 8 * 3);
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(SrgaGrid::new(3, 8).is_err());
        assert!(SrgaGrid::new(8, 0).is_err());
        assert!(SrgaGrid::new(1, 8).is_err());
    }

    #[test]
    fn coordinate_mapping() {
        let g = SrgaGrid::square(4);
        let c = Coord::at(2, 3);
        assert!(g.contains(c));
        assert!(!g.contains(Coord::at(4, 0)));
        assert_eq!(g.row_leaf(c), LeafId(3));
        assert_eq!(g.col_leaf(c), LeafId(2));
    }

    #[test]
    fn coords_cover_grid() {
        let g = SrgaGrid::new(2, 4).unwrap();
        let all: Vec<Coord> = g.coords().collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], Coord::at(0, 0));
        assert_eq!(all[7], Coord::at(1, 3));
    }
}
