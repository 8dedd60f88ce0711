//! The PE array: grid geometry and interconnect topology.
//!
//! "Each PE is connected to its surrounding neighbours through a
//! configurable interconnect. Results of operations can be passed on,
//! allowing the routing of operands where no direct connection exists. The
//! framework design … allow[s] an arbitrary number of PEs (e.g. 3x3 or 5x5)
//! and any interconnect structure." (Section III-C.)
//!
//! The SensorAccess module attaches to one edge of the array, so sensor and
//! actuator operations must be bound to I/O-capable PEs (first column by
//! default) — the realistic placement constraint the scheduler has to work
//! around.

/// Interconnect topology between neighbouring PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// 4-neighbour mesh (N, E, S, W).
    Mesh,
    /// 8-neighbour mesh (adds diagonals).
    MeshDiagonal,
    /// 4-neighbour mesh with wrap-around links.
    Torus,
}

/// A PE index (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub u16);

/// Grid configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridConfig {
    /// Number of rows.
    pub rows: u16,
    /// Number of columns.
    pub cols: u16,
    /// Interconnect structure.
    pub topology: Topology,
    /// Number of I/O-capable columns starting at column 0 (the side the
    /// SensorAccess module is attached to).
    pub io_columns: u16,
}

impl GridConfig {
    /// A `rows × cols` mesh with one I/O column.
    pub fn mesh(rows: u16, cols: u16) -> Self {
        assert!(rows >= 1 && cols >= 1);
        Self {
            rows,
            cols,
            topology: Topology::Mesh,
            io_columns: 1,
        }
    }

    /// The paper's example sizes.
    pub fn mesh_3x3() -> Self {
        Self::mesh(3, 3)
    }

    /// 5×5 mesh — the size used for the schedule-length experiments here.
    pub fn mesh_5x5() -> Self {
        Self::mesh(5, 5)
    }

    /// Total PE count.
    pub fn pe_count(&self) -> usize {
        usize::from(self.rows) * usize::from(self.cols)
    }

    /// Row/column of a PE.
    pub fn coords(&self, pe: PeId) -> (u16, u16) {
        let idx = pe.0;
        assert!((idx as usize) < self.pe_count());
        (idx / self.cols, idx % self.cols)
    }

    /// PE at row/column.
    pub fn pe_at(&self, row: u16, col: u16) -> PeId {
        assert!(row < self.rows && col < self.cols);
        PeId(row * self.cols + col)
    }

    /// True if the PE may host sensor/actuator operations.
    pub fn is_io_capable(&self, pe: PeId) -> bool {
        let (_, c) = self.coords(pe);
        c < self.io_columns
    }

    /// Routing distance in interconnect hops between two PEs. Operands need
    /// `hops` extra cycles to travel (one register stage per hop).
    pub fn distance(&self, a: PeId, b: PeId) -> u32 {
        let (ra, ca) = self.coords(a);
        let (rb, cb) = self.coords(b);
        let dr = i32::from(ra) - i32::from(rb);
        let dc = i32::from(ca) - i32::from(cb);
        match self.topology {
            Topology::Mesh => dr.unsigned_abs() + dc.unsigned_abs(),
            Topology::MeshDiagonal => dr.unsigned_abs().max(dc.unsigned_abs()),
            Topology::Torus => {
                let wr = dr
                    .unsigned_abs()
                    .min(u32::from(self.rows) - dr.unsigned_abs());
                let wc = dc
                    .unsigned_abs()
                    .min(u32::from(self.cols) - dc.unsigned_abs());
                wr + wc
            }
        }
    }

    /// All PEs.
    pub fn pes(&self) -> impl Iterator<Item = PeId> {
        (0..self.pe_count() as u16).map(PeId)
    }

    /// All I/O-capable PEs.
    pub fn io_pes(&self) -> Vec<PeId> {
        self.pes().filter(|&p| self.is_io_capable(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes() {
        assert_eq!(GridConfig::mesh_3x3().pe_count(), 9);
        assert_eq!(GridConfig::mesh_5x5().pe_count(), 25);
    }

    #[test]
    fn coords_roundtrip() {
        let g = GridConfig::mesh(3, 4);
        for pe in g.pes() {
            let (r, c) = g.coords(pe);
            assert_eq!(g.pe_at(r, c), pe);
        }
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let g = GridConfig::mesh_5x5();
        let a = g.pe_at(0, 0);
        let b = g.pe_at(2, 3);
        assert_eq!(g.distance(a, b), 5);
        assert_eq!(g.distance(a, a), 0);
        assert_eq!(g.distance(b, a), g.distance(a, b));
    }

    #[test]
    fn diagonal_distance_is_chebyshev() {
        let g = GridConfig {
            topology: Topology::MeshDiagonal,
            ..GridConfig::mesh_5x5()
        };
        let a = g.pe_at(0, 0);
        let b = g.pe_at(2, 3);
        assert_eq!(g.distance(a, b), 3);
    }

    #[test]
    fn torus_wraps_around() {
        let g = GridConfig {
            topology: Topology::Torus,
            ..GridConfig::mesh_5x5()
        };
        let a = g.pe_at(0, 0);
        let b = g.pe_at(0, 4);
        assert_eq!(g.distance(a, b), 1, "wrap link");
        assert_eq!(g.distance(g.pe_at(4, 0), a), 1);
    }

    #[test]
    fn io_column_is_first() {
        let g = GridConfig::mesh_3x3();
        assert!(g.is_io_capable(g.pe_at(0, 0)));
        assert!(g.is_io_capable(g.pe_at(2, 0)));
        assert!(!g.is_io_capable(g.pe_at(0, 1)));
        assert_eq!(g.io_pes().len(), 3);
    }

    #[test]
    fn triangle_inequality_on_mesh() {
        let g = GridConfig::mesh(4, 4);
        for a in g.pes() {
            for b in g.pes() {
                for c in g.pes() {
                    assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c));
                }
            }
        }
    }
}
