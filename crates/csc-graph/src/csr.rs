//! Immutable compressed-sparse-row (CSR) graph snapshot.
//!
//! The labeling construction does millions of adjacency scans; CSR keeps
//! each vertex's neighbor slice contiguous and avoids the per-`Vec` pointer
//! chase of [`DiGraph`]. Both directions are materialized
//! because HP-SPC/CSC run forward *and* backward BFS per hub.

use crate::digraph::DiGraph;
use crate::vertex::VertexId;

/// An immutable CSR snapshot of a directed graph with both directions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    fwd_offsets: Vec<u32>,
    fwd_targets: Vec<u32>,
    bwd_offsets: Vec<u32>,
    bwd_targets: Vec<u32>,
    m: usize,
}

impl Csr {
    /// Builds a CSR snapshot from a [`DiGraph`].
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.vertex_count();
        let mut fwd_offsets = Vec::with_capacity(n + 1);
        let mut fwd_targets = Vec::with_capacity(g.edge_count());
        let mut bwd_offsets = Vec::with_capacity(n + 1);
        let mut bwd_targets = Vec::with_capacity(g.edge_count());
        fwd_offsets.push(0);
        bwd_offsets.push(0);
        for v in g.vertices() {
            fwd_targets.extend_from_slice(g.nbr_out(v));
            fwd_offsets.push(fwd_targets.len() as u32);
            bwd_targets.extend_from_slice(g.nbr_in(v));
            bwd_offsets.push(bwd_targets.len() as u32);
        }
        Csr {
            fwd_offsets,
            fwd_targets,
            bwd_offsets,
            bwd_targets,
            m: g.edge_count(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.fwd_offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Out-neighbors of `v` (sorted ascending).
    #[inline]
    pub fn nbr_out(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        &self.fwd_targets[self.fwd_offsets[i] as usize..self.fwd_offsets[i + 1] as usize]
    }

    /// In-neighbors of `v` (sorted ascending).
    #[inline]
    pub fn nbr_in(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        &self.bwd_targets[self.bwd_offsets[i] as usize..self.bwd_offsets[i + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.nbr_out(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.nbr_in(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Neighbors of `v` in the requested direction.
    ///
    /// `forward == true` gives successors, `false` gives ancestors; the
    /// labeling engine uses this to share one BFS body for both label sides.
    #[inline]
    pub fn nbrs(&self, v: VertexId, forward: bool) -> &[u32] {
        if forward {
            self.nbr_out(v)
        } else {
            self.nbr_in(v)
        }
    }
}

impl From<&DiGraph> for Csr {
    fn from(g: &DiGraph) -> Self {
        Csr::from_digraph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn mirrors_digraph_adjacency() {
        let g = DiGraph::from_edges(5, vec![(0, 1), (0, 2), (1, 2), (3, 0), (2, 4)]);
        let c = Csr::from_digraph(&g);
        assert_eq!(c.vertex_count(), 5);
        assert_eq!(c.edge_count(), 5);
        for u in g.vertices() {
            assert_eq!(c.nbr_out(u), g.nbr_out(u), "out({u})");
            assert_eq!(c.nbr_in(u), g.nbr_in(u), "in({u})");
            assert_eq!(c.degree(u), g.degree(u));
        }
    }

    #[test]
    fn direction_selector() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (2, 1)]);
        let c = Csr::from_digraph(&g);
        assert_eq!(c.nbrs(v(0), true), &[1]);
        assert_eq!(c.nbrs(v(1), false), &[0, 2]);
        assert!(c.nbrs(v(1), true).is_empty());
    }

    #[test]
    fn empty_and_isolated() {
        let g = DiGraph::new(4);
        let c = Csr::from_digraph(&g);
        assert_eq!(c.vertex_count(), 4);
        assert_eq!(c.edge_count(), 0);
        assert!(c.nbr_out(v(3)).is_empty());
    }
}
