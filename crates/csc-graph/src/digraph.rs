//! A mutable simple directed graph with forward and reverse adjacency.
//!
//! [`DiGraph`] is the substrate for everything dynamic in this workspace:
//! the labeling algorithms need `nbr_out` / `nbr_in` in O(degree), and the
//! maintenance algorithms need O(degree) edge insertion and deletion.
//!
//! Invariants maintained at all times:
//!
//! * **simple**: no self-loops, no parallel edges;
//! * **mirrored**: `(u, v)` is in `out[u]` iff `u` is in `in_[v]`;
//! * adjacency lists are kept **sorted** so membership checks are
//!   `O(log degree)` and iteration order is deterministic.

use crate::error::GraphError;
use crate::vertex::VertexId;

/// A simple directed graph over dense vertex ids `0..n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<u32>>,
    in_: Vec<Vec<u32>>,
    m: usize,
}

impl DiGraph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
            in_: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph from an edge list, ignoring self-loops and duplicate
    /// edges rather than failing.
    ///
    /// This is the lenient entry point used by dataset loaders (real edge
    /// lists routinely contain both). Use [`DiGraph::try_add_edge`] when the
    /// caller wants strict semantics.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            if u != v {
                let _ = g.try_add_edge(VertexId(u), VertexId(v));
            }
        }
        g
    }

    /// A graph over adjacency lists the caller has already made simple,
    /// strictly sorted and mirrored, with `m` edges (the bulk
    /// constructor [`BipartiteGraph::from_edges`] builds them whole).
    ///
    /// [`BipartiteGraph::from_edges`]: crate::bipartite::BipartiteGraph::from_edges
    pub(crate) fn from_adjacency(out: Vec<Vec<u32>>, in_: Vec<Vec<u32>>, m: usize) -> Self {
        let g = DiGraph { out, in_, m };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.out.len() as u32).map(VertexId)
    }

    /// Iterates all edges in `(source, target)` order, deterministically.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + Clone + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().map(move |&v| (VertexId(u as u32), VertexId(v))))
    }

    /// Out-neighbors (successors) of `v`, sorted ascending.
    #[inline]
    pub fn nbr_out(&self, v: VertexId) -> &[u32] {
        &self.out[v.index()]
    }

    /// In-neighbors (ancestors) of `v`, sorted ascending.
    #[inline]
    pub fn nbr_in(&self, v: VertexId) -> &[u32] {
        &self.in_[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_[v.index()].len()
    }

    /// Total degree (in + out) of `v` — the paper's `degree(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// `min(|nbr_in(v)|, |nbr_out(v)|)` — the clustering key used by the
    /// paper's query-time experiments (Section VI-A).
    #[inline]
    pub fn min_in_out_degree(&self, v: VertexId) -> usize {
        self.out_degree(v).min(self.in_degree(v))
    }

    /// Returns `true` if the edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out
            .get(u.index())
            .is_some_and(|nbrs| nbrs.binary_search(&v.0).is_ok())
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() >= self.out.len() {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.out.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Appends a new isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::new(self.out.len());
        self.out.push(Vec::new());
        self.in_.push(Vec::new());
        id
    }

    /// Inserts the edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops, and duplicate edges.
    pub fn try_add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let out_u = &mut self.out[u.index()];
        match out_u.binary_search(&v.0) {
            Ok(_) => return Err(GraphError::DuplicateEdge(u, v)),
            Err(pos) => out_u.insert(pos, v.0),
        }
        let in_v = &mut self.in_[v.index()];
        let pos = in_v
            .binary_search(&u.0)
            .expect_err("mirror list out of sync");
        in_v.insert(pos, u.0);
        self.m += 1;
        Ok(())
    }

    /// Removes the edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints and missing edges.
    pub fn try_remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let out_u = &mut self.out[u.index()];
        match out_u.binary_search(&v.0) {
            Ok(pos) => {
                out_u.remove(pos);
            }
            Err(_) => return Err(GraphError::MissingEdge(u, v)),
        }
        let in_v = &mut self.in_[v.index()];
        let pos = in_v.binary_search(&u.0).expect("mirror list out of sync");
        in_v.remove(pos);
        self.m -= 1;
        Ok(())
    }

    /// Returns the reverse graph (all edge orientations flipped).
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out: self.in_.clone(),
            in_: self.out.clone(),
            m: self.m,
        }
    }

    /// Collects all edges into a vector (deterministic order).
    pub fn edge_vec(&self) -> Vec<(u32, u32)> {
        self.edges().map(|(u, v)| (u.0, v.0)).collect()
    }

    /// Debug-grade consistency check: mirrored, sorted, deduplicated, and
    /// edge count matches. Used by tests and by the dynamic-index verifier.
    pub fn validate(&self) -> Result<(), String> {
        if self.out.len() != self.in_.len() {
            return Err("out/in vertex count mismatch".into());
        }
        let mut count = 0usize;
        for (u, nbrs) in self.out.iter().enumerate() {
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("out[{u}] not strictly sorted"));
            }
            count += nbrs.len();
            for &v in nbrs {
                if v as usize >= self.in_.len() {
                    return Err(format!("edge ({u}, {v}) target out of range"));
                }
                if v as usize == u {
                    return Err(format!("self-loop on {u}"));
                }
                if self.in_[v as usize].binary_search(&(u as u32)).is_err() {
                    return Err(format!("edge ({u}, {v}) missing from in-list"));
                }
            }
        }
        if count != self.m {
            return Err(format!("edge count {count} != recorded {}", self.m));
        }
        let in_count: usize = self.in_.iter().map(Vec::len).sum();
        if in_count != self.m {
            return Err(format!("in-list edge count {in_count} != {}", self.m));
        }
        for (v, nbrs) in self.in_.iter().enumerate() {
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("in[{v}] not strictly sorted"));
            }
            for &u in nbrs {
                if self.out[u as usize].binary_search(&(v as u32)).is_err() {
                    return Err(format!("edge ({u}, {v}) missing from out-list"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(3);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = DiGraph::new(4);
        g.try_add_edge(v(0), v(1)).unwrap();
        g.try_add_edge(v(0), v(2)).unwrap();
        g.try_add_edge(v(2), v(0)).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(v(0), v(1)));
        assert!(!g.has_edge(v(1), v(0)));
        assert_eq!(g.nbr_out(v(0)), &[1, 2]);
        assert_eq!(g.nbr_in(v(0)), &[2]);
        assert_eq!(g.degree(v(0)), 3);
        assert_eq!(g.min_in_out_degree(v(0)), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = DiGraph::new(2);
        assert_eq!(g.try_add_edge(v(1), v(1)), Err(GraphError::SelfLoop(v(1))));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = DiGraph::new(2);
        g.try_add_edge(v(0), v(1)).unwrap();
        assert_eq!(
            g.try_add_edge(v(0), v(1)),
            Err(GraphError::DuplicateEdge(v(0), v(1)))
        );
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = DiGraph::new(2);
        assert!(matches!(
            g.try_add_edge(v(0), v(5)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.try_remove_edge(v(7), v(0)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_edge() {
        let mut g = DiGraph::new(3);
        g.try_add_edge(v(0), v(1)).unwrap();
        g.try_add_edge(v(1), v(2)).unwrap();
        g.try_remove_edge(v(0), v(1)).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(v(0), v(1)));
        assert_eq!(
            g.try_remove_edge(v(0), v(1)),
            Err(GraphError::MissingEdge(v(0), v(1)))
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_ignores_junk() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn reversed_flips_all_edges() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let r = g.reversed();
        assert!(r.has_edge(v(1), v(0)));
        assert!(r.has_edge(v(2), v(1)));
        assert!(r.has_edge(v(0), v(2)));
        assert_eq!(r.edge_count(), 3);
        assert!(r.validate().is_ok());
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn add_vertex_grows_graph() {
        let mut g = DiGraph::new(1);
        let nv = g.add_vertex();
        assert_eq!(nv, v(1));
        g.try_add_edge(v(0), nv).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edges_iterate_in_order() {
        let g = DiGraph::from_edges(3, vec![(2, 0), (0, 2), (0, 1)]);
        let edges = g.edge_vec();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 0)]);
    }
}
