//! Index invariant checking at two price points.
//!
//! [`check_integrity`] is the cheap `O(entries)` *structural* sweep —
//! sortedness, the per-side entry counters and the closure count, the
//! empty couple-copy slots, the inverted-index mirror, and bipartite
//! well-formedness. It is fast enough to run in
//! production after a rejuvenation swap or a recovery (gate it with
//! [`DurabilityConfig::check_integrity`](crate::DurabilityConfig)).
//!
//! [`verify_index`] is the expensive *semantic* check for tests and
//! debugging: it includes the structural sweep, then cross-checks every
//! label distance and every query against brute-force BFS oracles —
//! `O(n * (n + m))`, meant for test-sized graphs. The property-test
//! suites run it after every mutation batch.

use crate::config::UpdateStrategy;
use crate::error::CscError;
use crate::index::CscIndex;
use crate::reduction::{count_closures, CoupleView};
use csc_graph::bipartite::is_in_vertex;
use csc_graph::traversal::{bfs_distances, shortest_cycle_oracle};
use csc_graph::DiGraph;
use csc_labeling::{LabelSide, ListLayout};

/// What [`check_integrity`] swept, for logging and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Label entries of the swept index, counted over all four lists of
    /// every couple as [`CscIndex::total_entries`] counts them; the sweep
    /// visits the two lists the store holds.
    pub entries: usize,
    /// Whether the inverted indexes were present and cross-checked. They
    /// are absent until a deletion or `CLEAN_LABEL` first needs them.
    pub inverted_checked: bool,
}

/// The cheap `O(entries)` structural sweep: bipartite well-formedness,
/// label sortedness/uniqueness, the maintained per-side entry counters
/// and cycle-closure count against a ground-truth recount, empty slots
/// for the couple copies the store derives, and (once built) the inverted
/// indexes as an exact mirror of the labels.
///
/// This deliberately checks only *internal* consistency — nothing here
/// touches a BFS oracle — so it is safe to run inline after a
/// rejuvenation swap or a recovery. Semantic correctness is
/// [`verify_index`]'s job.
///
/// # Errors
///
/// Returns [`CscError::Corrupt`] (section `"integrity"`) describing the
/// first violated invariant.
pub fn check_integrity(index: &CscIndex) -> Result<IntegrityReport, CscError> {
    let violation = |detail: String| CscError::corrupt("integrity", detail);
    index.bipartite().validate().map_err(violation)?;
    // Sortedness, uniqueness, and the side counters vs. a recount.
    let labels = index.labels();
    labels.validate_sorted().map_err(violation)?;
    if labels.layout() != ListLayout::Reduced {
        return Err(violation(
            "the label store holds the lists the couple view derives".into(),
        ));
    }
    let closures = count_closures(labels, index.ranks());
    if closures != index.closures {
        return Err(violation(format!(
            "closure count {} diverged from the {closures} stored",
            index.closures
        )));
    }
    if let Some(inv) = index.inverted.as_ref() {
        inv.validate_against(labels).map_err(violation)?;
    }
    Ok(IntegrityReport {
        entries: index.total_entries(),
        inverted_checked: index.inverted.is_some(),
    })
}

impl CscIndex {
    /// Reconstructs the original (non-bipartite) graph from the index.
    pub fn original_graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.original_vertex_count());
        for (u, v) in self.original_edges() {
            g.try_add_edge(u, v).expect("index edges are valid");
        }
        g
    }
}

/// Checks every structural and semantic invariant of the index:
///
/// 1. the bipartite graph is structurally valid;
/// 2. label lists are sorted and duplicate-free;
/// 3. the inverted indexes (if maintained) mirror the labels exactly;
/// 4. every non-self label hub is an incoming vertex;
/// 5. no label entry under-estimates a true distance, and under the
///    minimality strategy no entry over-estimates one either — the
///    entries of the couple copies `L_in(v_o)` and `L_out(v_i)` too, read
///    through the couple view;
/// 6. every `SCCnt` query matches the brute-force oracle.
///
/// Returns a description of the first violation found.
pub fn verify_index(index: &CscIndex) -> Result<(), String> {
    // Invariants 1–3 are the structural sweep, shared with the
    // production-grade fast path.
    check_integrity(index).map_err(|e| e.to_string())?;

    let gb = index.bipartite().graph();
    let ranks = index.ranks();
    let view = CoupleView::new(index.labels(), ranks);
    let minimal = index.config().update_strategy == UpdateStrategy::Minimality
        && index.stats().insertions + index.stats().deletions > 0;

    // Per-hub forward/backward BFS gives exact distances for invariant 5.
    for hub_rank in 0..ranks.len() as u32 {
        let hub = ranks.vertex_at_rank(hub_rank);
        let fwd = bfs_distances(gb, hub);
        let bwd = csc_graph::traversal::bfs_distances_dir(gb, hub, false);
        for v in gb.vertices() {
            if let Some(e) = view.entry_for(v, LabelSide::In, hub_rank) {
                if !is_in_vertex(hub) && hub != v {
                    return Err(format!("V_out vertex {hub} is a hub of Lin({v})"));
                }
                match fwd[v.index()] {
                    None => {
                        return Err(format!(
                            "Lin({v}) entry for unreachable hub {hub} (d={})",
                            e.dist()
                        ))
                    }
                    Some(sd) if e.dist() < sd => {
                        return Err(format!(
                            "Lin({v}) hub {hub}: stored {} < true {sd}",
                            e.dist()
                        ))
                    }
                    Some(sd) if minimal && e.dist() > sd => {
                        return Err(format!(
                            "minimality violated: Lin({v}) hub {hub}: stored {} > true {sd}",
                            e.dist()
                        ))
                    }
                    _ => {}
                }
            }
            if let Some(e) = view.entry_for(v, LabelSide::Out, hub_rank) {
                if !is_in_vertex(hub) && hub != v {
                    return Err(format!("V_out vertex {hub} is a hub of Lout({v})"));
                }
                match bwd[v.index()] {
                    None => {
                        return Err(format!(
                            "Lout({v}) entry for hub {hub} that cannot be reached (d={})",
                            e.dist()
                        ))
                    }
                    Some(sd) if e.dist() < sd => {
                        return Err(format!(
                            "Lout({v}) hub {hub}: stored {} < true {sd}",
                            e.dist()
                        ))
                    }
                    Some(sd) if minimal && e.dist() > sd => {
                        return Err(format!(
                            "minimality violated: Lout({v}) hub {hub}: stored {} > true {sd}",
                            e.dist()
                        ))
                    }
                    _ => {}
                }
            }
        }
    }

    // Invariant 6: query equivalence with the oracle.
    let g = index.original_graph();
    for v in g.vertices() {
        let got = index.query(v).map(|c| (c.length, c.count));
        let want = shortest_cycle_oracle(&g, v);
        if got != want {
            return Err(format!(
                "SCCnt({v}): index says {got:?}, oracle says {want:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use csc_graph::generators::{gnm, preferential_attachment};
    use csc_graph::VertexId;

    #[test]
    fn fresh_indexes_verify() {
        for seed in 0..3 {
            let g = gnm(20, 60, seed);
            let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            verify_index(&idx).unwrap();
        }
        let g = preferential_attachment(40, 2, 0.6, 5);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        verify_index(&idx).unwrap();
    }

    #[test]
    fn verification_survives_update_storms() {
        let mut g = gnm(16, 40, 8);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        // Remove five edges, insert five fresh ones, verifying throughout.
        let victims: Vec<_> = g.edge_vec().into_iter().take(5).collect();
        for (u, w) in victims {
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            verify_index(&idx).unwrap();
        }
        let mut s = 99u64;
        let mut added = 0;
        while added < 5 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = VertexId((s >> 33) as u32 % 16);
            let b = VertexId((s >> 11) as u32 % 16);
            if a != b && !g.has_edge(a, b) {
                g.try_add_edge(a, b).unwrap();
                idx.insert_edge(a, b).unwrap();
                verify_index(&idx).unwrap();
                added += 1;
            }
        }
    }

    #[test]
    fn integrity_sweep_passes_and_reports_coverage() {
        let g = gnm(20, 60, 3);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let report = check_integrity(&idx).unwrap();
        assert_eq!(report.entries, idx.total_entries());
        assert!(
            !report.inverted_checked,
            "nothing to mirror before a deletion"
        );

        let (a, b) = g.edge_vec()[0];
        idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
        let report = check_integrity(&idx).unwrap();
        assert!(report.inverted_checked, "the deletion built the mirror");
        assert_eq!(report.entries, idx.total_entries());

        // A mirror that lost a carrier fails the sweep.
        let hub = idx.labels().in_of(VertexId(0))[0].hub_rank();
        let inv = idx.inverted.as_mut().unwrap();
        inv.remove(LabelSide::In, hub, VertexId(0));
        assert!(check_integrity(&idx).is_err());
    }

    #[test]
    fn original_graph_roundtrip() {
        let g = gnm(12, 30, 1);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.original_graph(), g);
    }
}
