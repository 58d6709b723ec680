//! Bipartite conversion (the paper's Algorithm 2, `BI-G`).
//!
//! Every original vertex `v` is decomposed into a *couple* of vertices: an
//! incoming vertex `v_i` that receives all of `v`'s in-edges and an outgoing
//! vertex `v_o` that carries all of `v`'s out-edges, joined by the internal
//! edge `v_i -> v_o`. Every original edge `(v, w)` becomes `(v_o, w_i)`.
//!
//! The resulting graph `Gb` is bipartite between `V_in` and `V_out`, with
//! `2n` vertices and `n + m` edges. A shortest cycle of length `L` through
//! `v` in `G` corresponds one-to-one to a shortest path of length `2L - 1`
//! from `v_o` to `v_i` in `Gb`, which is what lets a shortest-*path*
//! counting index answer shortest-*cycle* counting queries.
//!
//! ## Id scheme
//!
//! We use the dense fixed mapping `v_i = 2v`, `v_o = 2v + 1`. This makes
//! couple lookups branch-free bit operations and — crucially for the
//! couple-vertex-skipping construction — keeps each couple *adjacent* so a
//! rank table can rank `v_i` directly above `v_o`.

use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;

/// Which member of a couple a bipartite vertex is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The incoming vertex `v_i` (receives the original in-edges).
    In,
    /// The outgoing vertex `v_o` (carries the original out-edges).
    Out,
}

/// Returns the bipartite incoming vertex `v_i` of original vertex `v`.
#[inline]
pub fn in_vertex(v: VertexId) -> VertexId {
    VertexId(v.0 * 2)
}

/// Returns the bipartite outgoing vertex `v_o` of original vertex `v`.
#[inline]
pub fn out_vertex(v: VertexId) -> VertexId {
    VertexId(v.0 * 2 + 1)
}

/// Maps a bipartite vertex back to its original vertex and side.
#[inline]
pub fn original(b: VertexId) -> (VertexId, Side) {
    let side = if b.0 & 1 == 0 { Side::In } else { Side::Out };
    (VertexId(b.0 >> 1), side)
}

/// Returns the couple partner of a bipartite vertex (`v_i <-> v_o`).
#[inline]
pub fn couple(b: VertexId) -> VertexId {
    VertexId(b.0 ^ 1)
}

/// Returns `true` if the bipartite vertex is an incoming vertex (`V_in`).
#[inline]
pub fn is_in_vertex(b: VertexId) -> bool {
    b.0 & 1 == 0
}

/// Maps an original edge `(a, b)` to the bipartite edge it induces,
/// `(a_o, b_i)`.
#[inline]
pub fn edge_to_bipartite(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    (out_vertex(a), in_vertex(b))
}

/// The bipartite conversion `Gb` of a directed graph, with id mapping
/// helpers and incremental edge maintenance mirroring updates on `G`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteGraph {
    graph: DiGraph,
    original_n: usize,
}

impl BipartiteGraph {
    /// Builds `Gb` from `G` (Algorithm 2).
    pub fn from_graph(g: &DiGraph) -> Self {
        let edges = g.edges().map(|(u, v)| (u.0, v.0));
        BipartiteGraph::from_edges(g.vertex_count(), edges)
            .expect("a DiGraph is simple and in range")
    }

    /// Builds `Gb` for `n` original vertices straight from the original
    /// edge list (Algorithm 2), in bulk: one pass counts the degrees, each
    /// adjacency list is allocated at its exact size and filled by a
    /// second pass, and a list is sorted only if the edges did not arrive
    /// in order. Edges sorted by `(source, target)`, as
    /// [`DiGraph::edges`] yields them and a checkpoint stores them, fill
    /// every list in order. The result equals inserting the edges one by
    /// one.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`], in original ids, if the edges do not
    /// form a simple graph on `n` vertices.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        for (a, b) in edges.clone() {
            for v in [a, b] {
                if v as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: VertexId(v),
                        n,
                    });
                }
            }
            if a == b {
                return Err(GraphError::SelfLoop(VertexId(a)));
            }
            out_degree[a as usize] += 1;
            in_degree[b as usize] += 1;
        }
        // Per couple: `v_i`'s only out-edge and `v_o`'s only in-edge are
        // the couple edge; the original edges leave `v_o` and enter `v_i`.
        let mut out = Vec::with_capacity(2 * n);
        let mut in_ = Vec::with_capacity(2 * n);
        for v in (0..n as u32).map(VertexId) {
            out.push(vec![out_vertex(v).0]);
            out.push(Vec::with_capacity(out_degree[v.index()]));
            in_.push(Vec::with_capacity(in_degree[v.index()]));
            in_.push(vec![in_vertex(v).0]);
        }
        let mut m = n;
        for (a, b) in edges {
            let (ao, bi) = edge_to_bipartite(VertexId(a), VertexId(b));
            out[ao.index()].push(bi.0);
            in_[bi.index()].push(ao.0);
            m += 1;
        }
        let strictly_sorted = |list: &[u32]| list.windows(2).all(|w| w[0] < w[1]);
        for (u, list) in out.iter_mut().enumerate() {
            if !strictly_sorted(list) {
                list.sort_unstable();
                if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                    let (a, _) = original(VertexId(u as u32));
                    let (b, _) = original(VertexId(w[0]));
                    return Err(GraphError::DuplicateEdge(a, b));
                }
            }
        }
        // No out-list repeats a target, so no in-list repeats a source.
        for list in &mut in_ {
            if !strictly_sorted(list) {
                list.sort_unstable();
            }
        }
        Ok(BipartiteGraph {
            graph: DiGraph::from_adjacency(out, in_, m),
            original_n: n,
        })
    }

    /// Creates an empty conversion for `n` original vertices (couple edges
    /// only). Useful for replaying an edge stream.
    pub fn empty(n: usize) -> Self {
        BipartiteGraph::from_edges(n, []).expect("no edges to reject")
    }

    /// The number of vertices in the *original* graph.
    #[inline]
    pub fn original_vertex_count(&self) -> usize {
        self.original_n
    }

    /// The number of edges in the *original* graph (excludes couple edges).
    #[inline]
    pub fn original_edge_count(&self) -> usize {
        self.graph.edge_count() - self.original_n
    }

    /// The underlying bipartite [`DiGraph`] (read-only).
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Mirrors an original-graph edge insertion `(a, b)` as `(a_o, b_i)`.
    ///
    /// Returns the inserted bipartite edge.
    pub fn insert_original_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
    ) -> Result<(VertexId, VertexId), GraphError> {
        if a.index() >= self.original_n {
            return Err(GraphError::VertexOutOfRange {
                vertex: a,
                n: self.original_n,
            });
        }
        if b.index() >= self.original_n {
            return Err(GraphError::VertexOutOfRange {
                vertex: b,
                n: self.original_n,
            });
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let (ao, bi) = edge_to_bipartite(a, b);
        match self.graph.try_add_edge(ao, bi) {
            Ok(()) => Ok((ao, bi)),
            Err(GraphError::DuplicateEdge(..)) => Err(GraphError::DuplicateEdge(a, b)),
            Err(e) => Err(e),
        }
    }

    /// Mirrors an original-graph edge deletion `(a, b)`.
    ///
    /// Returns the removed bipartite edge.
    pub fn remove_original_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
    ) -> Result<(VertexId, VertexId), GraphError> {
        let (ao, bi) = edge_to_bipartite(a, b);
        match self.graph.try_remove_edge(ao, bi) {
            Ok(()) => Ok((ao, bi)),
            Err(GraphError::MissingEdge(..)) => Err(GraphError::MissingEdge(a, b)),
            Err(e) => Err(e),
        }
    }

    /// Appends a new isolated original vertex (a fresh couple), returning
    /// its original id.
    pub fn add_original_vertex(&mut self) -> VertexId {
        let vi = self.graph.add_vertex();
        let vo = self.graph.add_vertex();
        debug_assert_eq!(couple(vi), vo);
        self.graph
            .try_add_edge(vi, vo)
            .expect("fresh couple edge cannot fail");
        self.original_n += 1;
        VertexId(vi.0 >> 1)
    }

    /// Checks the structural invariants of the conversion: couple edges
    /// present, bipartiteness (`V_out -> V_in` only for converted edges),
    /// and mirrored counts.
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        if self.graph.vertex_count() != 2 * self.original_n {
            return Err("vertex count is not 2n".into());
        }
        for v in 0..self.original_n as u32 {
            let (vi, vo) = (in_vertex(VertexId(v)), out_vertex(VertexId(v)));
            if !self.graph.has_edge(vi, vo) {
                return Err(format!("missing couple edge for original vertex {v}"));
            }
        }
        for (u, w) in self.graph.edges() {
            match (is_in_vertex(u), is_in_vertex(w)) {
                (true, false) => {
                    if couple(u) != w {
                        return Err(format!("in->out edge ({u}, {w}) is not a couple edge"));
                    }
                }
                (false, true) => {}
                _ => return Err(format!("edge ({u}, {w}) violates bipartiteness")),
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
    fn id_mapping_roundtrips() {
        for i in 0..100u32 {
            let vi = in_vertex(v(i));
            let vo = out_vertex(v(i));
            assert_eq!(original(vi), (v(i), Side::In));
            assert_eq!(original(vo), (v(i), Side::Out));
            assert_eq!(couple(vi), vo);
            assert_eq!(couple(vo), vi);
            assert!(is_in_vertex(vi));
            assert!(!is_in_vertex(vo));
            // v_i is ranked directly above v_o under id order.
            assert!(vi.0 < vo.0);
        }
    }

    #[test]
    fn conversion_counts_match_algorithm_2() {
        // Figure 2's graph: 10 vertices, 13 edges -> 20 vertices, 23 edges.
        let g = crate::fixtures::figure2();
        let gb = BipartiteGraph::from_graph(&g);
        assert_eq!(gb.graph().vertex_count(), 2 * g.vertex_count());
        assert_eq!(gb.graph().edge_count(), g.vertex_count() + g.edge_count());
        assert_eq!(gb.original_edge_count(), g.edge_count());
        gb.validate().unwrap();
    }

    #[test]
    fn converted_edges_are_out_to_in() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let gb = BipartiteGraph::from_graph(&g);
        assert!(gb.graph().has_edge(out_vertex(v(0)), in_vertex(v(1))));
        assert!(gb.graph().has_edge(out_vertex(v(2)), in_vertex(v(0))));
        assert!(!gb.graph().has_edge(in_vertex(v(0)), in_vertex(v(1))));
    }

    #[test]
    fn incremental_insert_and_remove_mirror_static_conversion() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0), (0, 2)];
        let g = DiGraph::from_edges(3, edges.clone());
        let static_gb = BipartiteGraph::from_graph(&g);

        let mut dyn_gb = BipartiteGraph::empty(3);
        for &(a, b) in &edges {
            dyn_gb.insert_original_edge(v(a), v(b)).unwrap();
        }
        assert_eq!(dyn_gb, static_gb);

        dyn_gb.remove_original_edge(v(0), v(2)).unwrap();
        let g2 = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(dyn_gb, BipartiteGraph::from_graph(&g2));
        dyn_gb.validate().unwrap();
    }

    #[test]
    fn insert_errors_map_back_to_original_ids() {
        let mut gb = BipartiteGraph::empty(2);
        assert_eq!(
            gb.insert_original_edge(v(0), v(0)),
            Err(GraphError::SelfLoop(v(0)))
        );
        gb.insert_original_edge(v(0), v(1)).unwrap();
        assert_eq!(
            gb.insert_original_edge(v(0), v(1)),
            Err(GraphError::DuplicateEdge(v(0), v(1)))
        );
        assert_eq!(
            gb.remove_original_edge(v(1), v(0)),
            Err(GraphError::MissingEdge(v(1), v(0)))
        );
        assert!(matches!(
            gb.insert_original_edge(v(0), v(9)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn add_original_vertex_extends_couples() {
        let mut gb = BipartiteGraph::empty(1);
        let nv = gb.add_original_vertex();
        assert_eq!(nv, v(1));
        assert_eq!(gb.original_vertex_count(), 2);
        gb.insert_original_edge(v(0), nv).unwrap();
        gb.validate().unwrap();
    }

    /// `Gb` by Algorithm 2's one-edge-at-a-time insertion, the reference
    /// for the bulk constructor.
    fn inserted_one_by_one(n: usize, edges: &[(u32, u32)]) -> BipartiteGraph {
        let mut gb = BipartiteGraph::empty(n);
        for &(a, b) in edges {
            gb.insert_original_edge(v(a), v(b)).unwrap();
        }
        gb
    }

    #[test]
    fn the_bulk_constructor_equals_inserting_edge_by_edge() {
        use crate::generators::{gnm, preferential_attachment};
        let graphs = [
            gnm(60, 300, 3),
            gnm(200, 900, 11),
            preferential_attachment(120, 3, 0.3, 5),
            crate::fixtures::figure2(),
            DiGraph::new(4),
        ];
        for g in &graphs {
            let n = g.vertex_count();
            let edges = g.edge_vec();
            let want = inserted_one_by_one(n, &edges);
            let bulk = BipartiteGraph::from_edges(n, edges.iter().copied()).unwrap();
            assert_eq!(bulk, want);
            assert_eq!(BipartiteGraph::from_graph(g), want);
            assert!(bulk.graph().edges().eq(want.graph().edges()));
            assert_eq!(bulk.original_edge_count(), g.edge_count());
            bulk.validate().unwrap();
            // Edges in no particular order make the same graph.
            let mut shuffled = edges.clone();
            shuffled.reverse();
            shuffled.rotate_left(edges.len() / 3);
            let bulk = BipartiteGraph::from_edges(n, shuffled.iter().copied()).unwrap();
            assert_eq!(bulk, want);
            assert!(bulk.graph().edges().eq(want.graph().edges()));
        }
    }

    #[test]
    fn the_bulk_constructor_rejects_what_insertion_rejects() {
        let build = |edges: &[(u32, u32)]| BipartiteGraph::from_edges(3, edges.iter().copied());
        assert_eq!(build(&[(0, 1), (2, 2)]), Err(GraphError::SelfLoop(v(2))));
        // A duplicate, whether it arrives in order or not.
        for edges in [[(0, 1), (0, 2), (0, 2)], [(0, 2), (1, 0), (0, 2)]] {
            assert_eq!(build(&edges), Err(GraphError::DuplicateEdge(v(0), v(2))));
        }
        for edges in [[(0, 1), (3, 0)], [(0, 1), (1, 7)]] {
            assert!(matches!(
                build(&edges),
                Err(GraphError::VertexOutOfRange { n: 3, .. })
            ));
        }
        assert_eq!(
            build(&[(0, 1), (1, 2)]).unwrap(),
            inserted_one_by_one(3, &[(0, 1), (1, 2)])
        );
    }

    #[test]
    fn shortest_cycle_maps_to_2l_minus_1_path() {
        // Triangle 0 -> 1 -> 2 -> 0: shortest cycle length 3 through every
        // vertex; the bipartite path v_o ~> v_i must have length 2*3-1 = 5.
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let gb = BipartiteGraph::from_graph(&g);
        let dist = crate::traversal::bfs_distances(gb.graph(), out_vertex(v(0)));
        assert_eq!(dist[in_vertex(v(0)).index()], Some(5));
    }
}
