//! Decremental maintenance: edge deletion (Section V-C), batched.
//!
//! Deleting `(a, b)` removes the bipartite edge `(a_o, b_i)`. Unlike
//! insertion, a deletion can *grow* distances, which both invalidates
//! existing entries and creates brand-new hub relationships (a vertex can
//! become the highest-ranked one on a replacement shortest path it was
//! never maximal on before). This module is the deletion phase of the
//! batch engine: it repairs a whole *window* of deletions at once —
//! [`CscIndex::remove_edge`] is the one-edge window — and splits the
//! affected hubs into two regimes, classified once per window:
//!
//! * **Count-repair hubs** — hubs `v` whose distance to every crossed
//!   endpoint is *unchanged* after the window (a surviving equally-short
//!   route splices into any path that crossed a deleted edge, so *every*
//!   distance from `v` is unchanged — the splicing argument applies to
//!   the last deleted edge on a path, so it survives batching). Such hubs
//!   can gain no new hub roles; they only lose the shortest paths that
//!   crossed deleted edges. Those are subtracted by **one** multi-source
//!   resumed BFS per hub side (`repair::multi_source_subtract`), merging
//!   the cones of every deleted edge the hub crosses: seeded with the
//!   hub's *pre-window* label entries at the deleted tails (in the couple
//!   copies `L_in(a_o)` and `L_out(b_i)`, read through the couple view;
//!   the last-old-edge decomposition counts every vanished path exactly
//!   once; see the pass docs), propagating below-`v` suffix counts
//!   through a bucket queue, and decrementing each reached entry whose
//!   stored distance matches. An entry whose count reaches zero is
//!   removed.
//! * **Re-label hubs** — hubs whose distance to some crossed endpoint
//!   grew (detected exactly with pre/post-window BFS from the endpoints;
//!   the post sweeps are truncated at the pre-sweep eccentricity, which
//!   classifies every vertex without walking the post-deletion tail).
//!   Each demoted side re-runs the couple-skipping pruned BFS of the
//!   static construction **once per hub for the whole window**, in
//!   descending rank order and in upsert mode, with the static build's
//!   prune rule: only strictly higher-ranked hubs count, never the hub's
//!   own stored entries. The pass stamps every vertex it writes or finds
//!   unchanged, and a sweep then removes every other entry of that hub on
//!   that side (its carriers, read from the inverted index, which the
//!   first deletion builds if nothing has yet). The side then holds
//!   exactly the static build's entries for that hub. A side whose stamps
//!   number as many as its carriers lost none, and its sweep reads
//!   nothing; most re-labeled sides change no entry at all
//!   ([`BatchReport::relabel_sides_unchanged`](crate::BatchReport::relabel_sides_unchanged)
//!   counts them). The descending
//!   order keeps the pruning exact: it only consults strictly
//!   higher-ranked hubs, which are unaffected, already re-labeled, or
//!   only count-repaired (distances untouched).
//!
//!   The strict prune and the sweep replace the paper's superset rule,
//!   which deleted only entries whose distance equals a crossing-path
//!   length and let the re-label prune at the hub's own surviving entries.
//!   Under [`UpdateStrategy::Redundancy`](crate::UpdateStrategy) the
//!   insertion repair keeps *dominated* entries on purpose, stored above
//!   the true distance. A later window can lengthen the true distance to
//!   or past such a value; the entry then matches no crossing path, and
//!   a re-label that pruned at it kept an under-estimate or a
//!   count-corrupting tie (a wrong SCCnt). Count-repair sides keep their
//!   distances, so their dominated entries stay dominated and harmless.
//!
//!   This phase dominates deletion cost, so the window merges it: one
//!   pass per demoted hub side for the whole window instead of one per
//!   hub per edge. It is the only repair path for demoted sides, however
//!   many a window demotes; the dead copies its rewritten lists leave in
//!   the label arena are the publisher's to compact (see
//!   [`MaintenanceEngine::publish_from`](crate::MaintenanceEngine::publish_from)).
//!
//! All distance conditions are evaluated with plain BFS traversals from
//! the edge endpoints — deliberately not with index lookups: the
//! couple-skipped index legitimately does not cover `V_out`-source pairs
//! whose maximum is the source itself, and an overestimate here could
//! silently misclassify a hub. The sweeps run through the index's pooled
//! [`TraversalWorkspace`](csc_graph::TraversalWorkspace) (endpoints
//! shared by several window edges are swept once) and stay allocation-free
//! in the steady state.
//!
//! A count-repair pass that meets a saturated (24-bit-capped) count cannot
//! subtract reliably; the hub is then demoted to the re-label regime for
//! that side, preserving exactness.
//!
//! A multi-edge window is equivalent to its edges removed one window at a
//! time at the query level (canonical entries are identical; only
//! harmless dominated leftovers may differ — label distances never
//! under-estimate either way). The `batch_equivalence` suite pins this
//! down.

use crate::build::{LabelWriter, TraversalCounters, WriteMode};
use crate::index::CscIndex;
use crate::reduction::CoupleView;
use crate::repair::{multi_source_subtract, Direction, Seed, SubtractOutcome};
use crate::stats::UpdateReport;
use csc_graph::bipartite::{in_vertex, is_in_vertex, out_vertex};
use csc_graph::{DistMap, SweepHandle, SweepMaps, VertexId, UNREACHED};
use csc_labeling::{LabelSide, LabelingError};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Window-level accounting the batch engine surfaces in
/// [`BatchReport`](crate::BatchReport).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DeletionRepairStats {
    /// Distinct (hub, side) repair passes across the window — subtraction
    /// passes plus re-label sweeps. The per-edge sum this replaces is
    /// `affected_hubs`-shaped and grows with the window size; this union
    /// does not.
    pub hub_union: usize,
    /// Hub caches filled (one per merged subtraction pass).
    pub cache_fills: usize,
    /// Seeds served by an already-filled hub cache — edges whose
    /// subtraction merged into an existing pass instead of refilling.
    pub cache_hits: usize,
    /// Hub sides re-labeled.
    pub relabel_sides: usize,
    /// Re-labeled hub sides that changed no entry.
    pub relabel_sides_unchanged: usize,
}

/// The per-edge sweep handles resolved against the workspace pool: every
/// distance condition of the window reads through these six maps.
struct EdgeSweeps<'a> {
    ao: VertexId,
    bi: VertexId,
    /// `sd_pre(·, a_o)` (backward sweep, window edges still present).
    to_ao: &'a DistMap,
    /// `sd_pre(·, b_i)`.
    to_bi: &'a DistMap,
    /// `sd_pre(b_i, ·)`.
    from_bi: &'a DistMap,
    /// `sd_pre(a_o, ·)`.
    from_ao: &'a DistMap,
    /// `sd_post(·, b_i)`, truncated at `to_bi`'s eccentricity.
    to_bi_post: &'a DistMap,
    /// `sd_post(a_o, ·)`, truncated at `from_ao`'s eccentricity.
    from_ao_post: &'a DistMap,
}

/// Resolves each removed edge's six sweep handles against the map pool.
fn resolve_views<'a>(
    maps: SweepMaps<'a>,
    removals: &[(VertexId, VertexId)],
    pre: &HashMap<(u32, bool), SweepHandle>,
    post: &HashMap<(u32, bool), SweepHandle>,
) -> Vec<EdgeSweeps<'a>> {
    removals
        .iter()
        .map(|&(a, b)| {
            let (ao, bi) = (out_vertex(a), in_vertex(b));
            EdgeSweeps {
                ao,
                bi,
                to_ao: maps.map(pre[&(ao.0, false)]),
                to_bi: maps.map(pre[&(bi.0, false)]),
                from_bi: maps.map(pre[&(bi.0, true)]),
                from_ao: maps.map(pre[&(ao.0, true)]),
                to_bi_post: maps.map(post[&(bi.0, false)]),
                from_ao_post: maps.map(post[&(ao.0, true)]),
            }
        })
        .collect()
}

impl CscIndex {
    /// Removes a window of original edges from the graph and repairs the
    /// index once for the lot (see the [module docs](self)). Every edge
    /// must be present and distinct — callers validate.
    pub(crate) fn repair_deletions(
        &mut self,
        removals: &[(VertexId, VertexId)],
        report: &mut UpdateReport,
    ) -> Result<DeletionRepairStats, LabelingError> {
        let mut stats = DeletionRepairStats::default();
        if removals.is_empty() {
            return Ok(stats);
        }
        // Carrier lookups go through the inverted index, never a label
        // scan. The first deletion builds it (one O(entries) pass), and
        // every later write maintains it.
        self.ensure_inverted();
        let t_classify = Instant::now();

        // ---- Endpoint sweeps, pre and post window. -----------------------
        // Pre maps are keyed by (vertex, direction) so endpoints shared by
        // several window edges are swept once.
        let n = self.gb.graph().vertex_count();
        self.sweeps.ensure(n);
        self.sweeps.release_all();
        self.workspace.ensure(n);
        let mut pre: HashMap<(u32, bool), csc_graph::SweepHandle> = HashMap::new();
        {
            let CscIndex {
                ref gb,
                ref mut sweeps,
                ..
            } = *self;
            let graph = gb.graph();
            for &(a, b) in removals {
                let (ao, bi) = (out_vertex(a), in_vertex(b));
                for (v, forward) in [(ao, false), (ao, true), (bi, false), (bi, true)] {
                    pre.entry((v.0, forward))
                        .or_insert_with(|| sweeps.bfs(graph, v, forward));
                }
            }
        }
        for &(a, b) in removals {
            self.gb
                .remove_original_edge(a, b)
                .expect("caller verified the edge exists");
        }
        let mut post: HashMap<(u32, bool), csc_graph::SweepHandle> = HashMap::new();
        {
            let CscIndex {
                ref gb,
                ref mut sweeps,
                ..
            } = *self;
            let graph = gb.graph();
            for &(a, b) in removals {
                let (ao, bi) = (out_vertex(a), in_vertex(b));
                // Only the distances that can *grow* need a post sweep, and
                // truncating at the pre-sweep eccentricity still classifies
                // every vertex (unchanged distances are ≤ the bound; a
                // truncated vertex is by definition grown).
                for (v, forward) in [(bi, false), (ao, true)] {
                    post.entry((v.0, forward)).or_insert_with(|| {
                        let bound = sweeps.map(pre[&(v.0, forward)]).max_dist();
                        sweeps.bfs_bounded(graph, v, forward, bound)
                    });
                }
            }
        }

        // ---- Classify V_in hubs into the two regimes, once per window. ---
        // rank -> (forward grown, backward grown); BTreeMap so later phases
        // run in descending rank order (ascending rank value).
        let mut relabel: BTreeMap<u32, (bool, bool)> = BTreeMap::new();
        // rank -> (forward seeds, backward seeds) for the merged
        // subtraction passes, snapshotted from the pre-window labels.
        let mut subtract: BTreeMap<u32, (Vec<Seed>, Vec<Seed>)> = BTreeMap::new();
        {
            let graph = self.gb.graph();
            let (maps, _) = self.sweeps.split_mut();
            let views = resolve_views(maps, removals, &pre, &post);
            // The seeds sit in `L_in(a_o)` and `L_out(b_i)`: couple copies.
            let labels = CoupleView::new(&self.labels, &self.ranks);
            for v in 0..graph.vertex_count() {
                let vid = VertexId(v as u32);
                if !is_in_vertex(vid) {
                    continue;
                }
                let (mut cross_f, mut cross_b) = (false, false);
                let (mut grown_f, mut grown_b) = (false, false);
                for ev in &views {
                    let da = ev.to_ao.get(vid);
                    if da != UNREACHED && ev.to_bi.get(vid) == da + 1 {
                        cross_f = true;
                        grown_f |= ev.to_bi_post.get(vid) != da + 1;
                    }
                    let db = ev.from_bi.get(vid);
                    if db != UNREACHED && ev.from_ao.get(vid) == db + 1 {
                        cross_b = true;
                        grown_b |= ev.from_ao_post.get(vid) != db + 1;
                    }
                    if grown_f && grown_b {
                        // Both sides re-label: no seeds will be collected
                        // and the flags cannot change back — stop scanning.
                        break;
                    }
                }
                if !cross_f && !cross_b {
                    continue;
                }
                let rank = self.ranks.rank(vid);
                if grown_f || grown_b {
                    let flags = relabel.entry(rank).or_default();
                    flags.0 |= grown_f;
                    flags.1 |= grown_b;
                }
                // Unchanged-distance sides with a maximal crossing prefix
                // (an exact entry at the deleted tail) need count
                // subtraction; each crossing edge contributes one seed to
                // the hub's merged pass.
                if (cross_f && !grown_f) || (cross_b && !grown_b) {
                    for ev in &views {
                        if cross_f && !grown_f {
                            let da = ev.to_ao.get(vid);
                            if da != UNREACHED && ev.to_bi.get(vid) == da + 1 {
                                if let Some(e) = labels.entry_for(ev.ao, LabelSide::In, rank) {
                                    if e.dist() == da {
                                        let seeds = &mut subtract.entry(rank).or_default().0;
                                        seeds.push((ev.bi, e.dist() + 1, e.count()));
                                    }
                                }
                            }
                        }
                        if cross_b && !grown_b {
                            let db = ev.from_bi.get(vid);
                            if db != UNREACHED && ev.from_ao.get(vid) == db + 1 {
                                if let Some(e) = labels.entry_for(ev.bi, LabelSide::Out, rank) {
                                    if e.dist() == db {
                                        let seeds = &mut subtract.entry(rank).or_default().1;
                                        seeds.push((ev.ao, e.dist() + 1, e.count()));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let t_subtract = Instant::now();
        report.classify_time += t_subtract - t_classify;

        let CscIndex {
            ref gb,
            ref ranks,
            ref mut labels,
            ref mut inverted,
            ref mut closures,
            ref mut workspace,
            ref mut sweeps,
            ..
        } = *self;
        let graph = gb.graph();
        let buckets = sweeps.buckets_mut();

        // ---- Phase A: merged count-repair passes (may demote). -----------
        let (state, cache) = workspace.parts_mut();
        for (&rank, (fwd_seeds, bwd_seeds)) in &subtract {
            let vk = ranks.vertex_at_rank(rank);
            for (seeds, direction) in [
                (fwd_seeds, Direction::Forward),
                (bwd_seeds, Direction::Backward),
            ] {
                if seeds.is_empty() {
                    continue;
                }
                report.affected_hubs += 1;
                stats.hub_union += 1;
                stats.cache_fills += 1;
                stats.cache_hits += seeds.len() - 1;
                let outcome = multi_source_subtract(
                    graph, ranks, labels, inverted, closures, state, cache, buckets, direction,
                    rank, vk, seeds, report,
                );
                if matches!(outcome, SubtractOutcome::Demote) {
                    // Saturated counts: recompute this hub side from scratch.
                    let flags = relabel.entry(rank).or_default();
                    match direction {
                        Direction::Forward => flags.0 = true,
                        Direction::Backward => flags.1 = true,
                    }
                }
            }
        }
        let t_relabel = Instant::now();
        report.subtract_time += t_relabel - t_subtract;

        // ---- Phase B: re-label in descending rank order, once per hub. ---
        // Each demoted side re-runs the static build's traversal, pruning
        // only against strictly higher-ranked hubs, then sweeps away every
        // entry of the hub on that side the traversal did not produce.
        let mut counters = TraversalCounters::default();
        let mut writer = LabelWriter::new(labels, inverted.as_mut(), WriteMode::Upsert, closures);
        for (&rank, &(fwd, bwd)) in &relabel {
            report.affected_hubs += 1;
            let hub = ranks.vertex_at_rank(rank);
            for (side, demoted) in [(LabelSide::In, fwd), (LabelSide::Out, bwd)] {
                if !demoted {
                    continue;
                }
                let written = counters.inserted + counters.updated;
                let removed =
                    workspace.relabel(graph, ranks, hub, side, &mut writer, &mut counters)?;
                report.entries_removed += removed;
                stats.hub_union += 1;
                stats.relabel_sides += 1;
                stats.relabel_sides_unchanged +=
                    usize::from(removed == 0 && counters.inserted + counters.updated == written);
            }
        }
        report.entries_inserted += counters.inserted;
        report.entries_updated += counters.updated;
        report.saturated_counts += counters.saturated;
        report.vertices_visited += counters.dequeues;
        report.relabel_time += t_relabel.elapsed();
        self.sweeps.release_all();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CscConfig, UpdateStrategy};
    use crate::error::CscError;
    use csc_graph::generators::{directed_cycle, gnm, layered_cycle};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::DiGraph;
    use csc_graph::GraphError;

    fn assert_queries_match(idx: &CscIndex, g: &DiGraph, context: &str) {
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(g, v),
                "{context}: SCCnt({v})"
            );
        }
    }

    #[test]
    fn delete_breaks_the_only_cycle() {
        let g = directed_cycle(4);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert!(idx.query(VertexId(0)).is_some());
        let report = idx.remove_edge(VertexId(1), VertexId(2)).unwrap();
        assert!(report.entries_removed > 0);
        for v in g.vertices() {
            assert_eq!(idx.query(v), None, "no cycles remain");
        }
        assert_eq!(idx.original_edge_count(), 3);
        assert_eq!(idx.stats().deletions, 1);
    }

    #[test]
    fn delete_lengthens_shortest_cycles() {
        // Chorded cycle: 0..5 ring plus chord 3 -> 0. Removing the chord
        // restores the length-6 ring as the only cycle.
        let mut g = directed_cycle(6);
        g.try_add_edge(VertexId(3), VertexId(0)).unwrap();
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 4);
        idx.remove_edge(VertexId(3), VertexId(0)).unwrap();
        let g2 = directed_cycle(6);
        assert_queries_match(&idx, &g2, "after chord removal");
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 6);
    }

    #[test]
    fn delete_reduces_parallel_count() {
        // Two parallel 3-cycles through 0; deleting one leaves the other.
        // This exercises the count-repair (subtraction) regime: distances
        // to the endpoints are unchanged for most hubs.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().count, 2);
        idx.remove_edge(VertexId(3), VertexId(4)).unwrap();
        let mut g2 = g.clone();
        g2.try_remove_edge(VertexId(3), VertexId(4)).unwrap();
        assert_queries_match(&idx, &g2, "after breaking one cycle");
        let c = idx.query(VertexId(0)).unwrap();
        assert_eq!((c.length, c.count), (3, 1));
    }

    #[test]
    fn graph_errors_leave_index_clean() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let before = idx.total_entries();
        assert!(matches!(
            idx.remove_edge(VertexId(0), VertexId(2)),
            Err(CscError::Graph(GraphError::MissingEdge(..)))
        ));
        assert!(matches!(
            idx.remove_edge(VertexId(0), VertexId(9)),
            Err(CscError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        assert_eq!(idx.total_entries(), before);
        assert!(!idx.is_poisoned());
        assert_eq!(idx.stats().deletions, 0);
    }

    #[test]
    fn random_deletions_match_oracle() {
        for seed in 0..4 {
            let mut g = gnm(20, 70, seed);
            let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            let edges = g.edge_vec();
            // Delete every 4th edge, verifying after each.
            for (k, &(u, w)) in edges.iter().enumerate().filter(|(k, _)| k % 4 == 0) {
                g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
                idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
                assert_queries_match(&idx, &g, &format!("seed {seed} deletion {k}"));
            }
            if let Some(inv) = &idx.inverted {
                inv.validate_against(&idx.labels).unwrap();
            }
        }
    }

    #[test]
    fn deletions_without_inverted_index_build_it_on_demand() {
        // A build leaves the inverted index unbuilt: the first deletion
        // builds it, and every later write maintains it. The answers stay
        // oracle-exact throughout.
        let mut g = gnm(16, 50, 3);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert!(idx.inverted.is_none());
        let edges = g.edge_vec();
        for &(u, w) in edges.iter().take(10) {
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            let inv = idx.inverted.as_ref().expect("a deletion keeps it built");
            inv.validate_against(&idx.labels).unwrap();
            assert_queries_match(&idx, &g, "on-demand inverted index");
        }
    }

    #[test]
    fn delete_then_reinsert_roundtrip() {
        // The paper's dynamic experiment: remove random edges, insert them
        // back, and the index must answer like the original graph.
        for seed in [11, 12] {
            let g = gnm(18, 60, seed);
            let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            let edges = g.edge_vec();
            let removed: Vec<_> = edges.iter().step_by(3).copied().collect();
            for &(u, w) in &removed {
                idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            }
            for &(u, w) in &removed {
                idx.insert_edge(VertexId(u), VertexId(w)).unwrap();
            }
            assert_queries_match(&idx, &g, &format!("seed {seed} roundtrip"));
        }
    }

    #[test]
    fn minimality_deletion_interplay() {
        let mut g = gnm(15, 45, 21);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let mut idx = CscIndex::build(&g, config).unwrap();
        let edges = g.edge_vec();
        for &(u, w) in edges.iter().take(12) {
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            assert_queries_match(&idx, &g, "minimality deletions");
            if let Some(inv) = &idx.inverted {
                inv.validate_against(&idx.labels).unwrap();
            }
        }
    }

    #[test]
    fn saturated_counts_demote_to_relabel() {
        // 2^26 shortest cycles saturate the 24-bit counts; deleting an edge
        // must stay exact (demotion path) at the distance level.
        let widths = vec![2usize; 27];
        let g = layered_cycle(&widths);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let c = idx.query(VertexId(0)).unwrap();
        assert_eq!(c.length, widths.len() as u32);
        // Remove one edge of the first layer pair: cycles through vertex 0
        // halve (still saturated) and lengths stay identical.
        idx.remove_edge(VertexId(2), VertexId(4)).unwrap();
        let after = idx.query(VertexId(0)).unwrap();
        assert_eq!(after.length, widths.len() as u32);
        let oracle = shortest_cycle_oracle(&idx.original_graph(), VertexId(0)).unwrap();
        assert_eq!(after.length, oracle.0);
    }

    #[test]
    fn a_window_reports_its_relabeled_sides_and_those_that_changed_nothing() {
        // A ring holds one path between any two vertices, so every hub
        // side whose paths cross the deleted edge grows: the window runs
        // no subtraction pass, and every side it changes was re-labeled.
        use crate::batch::GraphUpdate;
        type Side = (u32, bool);
        let sides = |labels: &csc_labeling::Labels| {
            let mut all: BTreeMap<Side, Vec<(u32, csc_labeling::LabelEntry)>> = BTreeMap::new();
            for v in 0..labels.vertex_count() as u32 {
                for side in [LabelSide::In, LabelSide::Out] {
                    for &e in labels.side_of(VertexId(v), side) {
                        let key = (e.hub_rank(), side == LabelSide::Out);
                        all.entry(key).or_default().push((v, e));
                    }
                }
            }
            all
        };
        let g = directed_cycle(12);
        let before = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut idx = before.clone();
        let window = [GraphUpdate::RemoveEdge(VertexId(5), VertexId(6))];
        let report = idx.apply_batch(&window).unwrap();
        let (old, new) = (sides(before.labels()), sides(idx.labels()));
        let changed = old
            .keys()
            .chain(new.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|k| old.get(k) != new.get(k))
            .count();
        assert_eq!(report.relabel_sides, report.delete_hub_union);
        assert_eq!(
            report.relabel_sides - report.relabel_sides_unchanged,
            changed
        );
        assert!(
            changed > 0 && report.relabel_sides_unchanged > 0,
            "{report:?}"
        );
        assert_queries_match(&idx, &idx.original_graph(), "after the window");
    }

    #[test]
    fn phase_timings_cover_the_deletion() {
        let g = gnm(24, 80, 7);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let (a, b) = g.edge_vec()[3];
        let report = idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
        let phases = report.classify_time + report.subtract_time + report.relabel_time;
        assert!(phases > std::time::Duration::ZERO);
        assert!(phases <= report.duration, "phases nest inside the update");
    }

    #[test]
    fn relabel_replaces_a_dominated_entry_that_became_an_underestimate() {
        // Redundancy keeps dominated insertion leftovers; the third window
        // lengthens a true distance past one of them. A re-label that
        // pruned at the hub's own stale entry left SCCnt(v14) = (8, 2)
        // here, where the graph has no cycle through v14.
        use crate::batch::GraphUpdate::{self, InsertEdge, RemoveEdge};
        let ins = |a, b| InsertEdge(VertexId(a), VertexId(b));
        let del = |a, b| RemoveEdge(VertexId(a), VertexId(b));
        let windows = [
            [del(9, 1), ins(2, 5), del(8, 6)],
            [ins(11, 2), del(6, 14), ins(15, 3)],
            [ins(13, 1), del(15, 14), ins(3, 2)],
        ];
        let mut g = gnm(16, 40, 1180);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        for (k, window) in windows.iter().enumerate() {
            idx.apply_batch(window).unwrap();
            for &op in window {
                match op {
                    InsertEdge(a, b) => g.try_add_edge(a, b).unwrap(),
                    RemoveEdge(a, b) => g.try_remove_edge(a, b).unwrap(),
                    GraphUpdate::AddVertex => unreachable!(),
                }
            }
            assert_queries_match(&idx, &g, &format!("window {k}"));
        }
    }

    #[test]
    fn an_overwhelming_window_reports_exactly_what_it_changed() {
        // A window that removes most edges demotes most hub sides; its
        // report must be the diff of the two stores, each changed entry
        // counted once, however many passes touched it.
        use crate::batch::GraphUpdate;
        use csc_labeling::Labels;
        use std::collections::HashMap;
        let entries = |labels: &Labels| {
            let mut all = HashMap::new();
            for v in 0..labels.vertex_count() as u32 {
                for side in [LabelSide::In, LabelSide::Out] {
                    for &e in labels.side_of(VertexId(v), side) {
                        all.insert((v, side == LabelSide::Out, e.hub_rank()), e);
                    }
                }
            }
            all
        };
        for seed in [5u64, 6, 7] {
            let g = gnm(14, 60, seed);
            let before = CscIndex::build(&g, CscConfig::default()).unwrap();
            let mut idx = before.clone();
            let window: Vec<GraphUpdate> = g
                .edge_vec()
                .iter()
                .step_by(2)
                .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
                .collect();
            let report = idx.apply_batch(&window).unwrap().repair;
            let (old, new) = (entries(before.labels()), entries(idx.labels()));
            let removed = old.keys().filter(|k| !new.contains_key(k)).count();
            let inserted = new.keys().filter(|k| !old.contains_key(k)).count();
            let updated = old
                .iter()
                .filter(|&(k, e)| new.get(k).is_some_and(|f| f != e))
                .count();
            assert_eq!(
                (
                    report.entries_removed,
                    report.entries_inserted,
                    report.entries_updated
                ),
                (removed, inserted, updated),
                "seed {seed}"
            );
            assert!(removed < old.len(), "seed {seed}: the diff kept entries");
            assert_queries_match(&idx, &idx.original_graph(), "after the window");
        }
    }

    #[test]
    fn window_repair_matches_sequential_deletions() {
        // The windowed engine against one-at-a-time application of the
        // same removals, on every query.
        for seed in [3u64, 19, 40] {
            let g = gnm(22, 88, seed);
            let base = CscIndex::build(&g, CscConfig::default()).unwrap();
            let removals: Vec<(VertexId, VertexId)> = g
                .edge_vec()
                .iter()
                .step_by(5)
                .map(|&(u, w)| (VertexId(u), VertexId(w)))
                .collect();

            let mut windowed = base.clone();
            let mut report = UpdateReport::default();
            windowed.repair_deletions(&removals, &mut report).unwrap();
            let mut sequential = base;
            for &(u, w) in &removals {
                sequential.remove_edge(u, w).unwrap();
            }
            let g_final = sequential.original_graph();
            assert_eq!(windowed.original_graph(), g_final);
            for v in g_final.vertices() {
                assert_eq!(
                    windowed.query(v),
                    sequential.query(v),
                    "seed {seed}: SCCnt({v})"
                );
            }
            assert_queries_match(&windowed, &g_final, &format!("seed {seed} window"));
            if let Some(inv) = &windowed.inverted {
                inv.validate_against(&windowed.labels).unwrap();
            }
        }
    }
}
