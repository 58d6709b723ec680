//! Shared label-repair primitives for dynamic maintenance.
//!
//! The batch engine (`csc-core::batch`) is the one write path: its
//! insertion phase and its deletion phase (`csc-core::delete`) repair
//! labels the same way: resume a counting traversal from an *affected
//! hub*, prune where the index already covers the distance, and upsert
//! the entries the traversal proves changed. This module holds the pieces
//! they share (the hub-cache fill and the covered-distance prune scan,
//! [`HubCache::covered`], live with the couple BFS in `csc-core::build`):
//!
//! * [`update_label`] — `UPDATE_LABEL` (Algorithm 7);
//! * [`multi_source_pass`] — the resumed BFS of Algorithm 6, one pass per
//!   affected hub no matter how many inserted edges affect it. Seeds sit
//!   at different depths, so the plain BFS queue becomes a monotone
//!   *bucket queue* (unit edge weights keep it `O(V + E)`; the queue
//!   itself is recycled across passes via
//!   [`csc_graph::BucketQueue`]), and a seed reached earlier by the
//!   traversal itself is relaxed downward — which is exactly what makes
//!   the first-new-edge decomposition exact: every brand-new shortest
//!   path decomposes as an *old* shortest prefix to the first inserted
//!   edge it crosses (covered by that edge's pre-batch seed entry) plus a
//!   suffix in the updated graph, which the traversal walks because all
//!   batch edges are already present. A one-edge window has one seed per
//!   hub and is the paper's per-edge pass. The passes run serially in
//!   descending rank order, each writing through a [`RepairWriter`] as it
//!   traverses;
//! * [`multi_source_subtract`] — the decremental mirror: one pass per
//!   count-repair hub subtracts every shortest path a whole *deletion*
//!   window removed, via the dual last-old-edge decomposition (see its
//!   docs).

use crate::build::{covered_dist, fill_hub_cache, TraversalCounters};
use crate::clean::clean_label;
use crate::config::UpdateStrategy;
use crate::invert::InvertedIndex;
use crate::stats::UpdateReport;
use csc_graph::{BucketQueue, DiGraph, RankTable, VertexId};
use csc_labeling::{
    HubCache, LabelEntry, LabelSide, LabelingError, Labels, SearchState, MAX_COUNT,
};

/// Which side of the index a repair traversal rebuilds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// `FORWARD_PASS`: repair in-labels reachable from the seed(s).
    Forward,
    /// `BACKWARD_PASS`: repair out-labels co-reachable from the seed(s).
    Backward,
}

impl Direction {
    /// `(own_side, target_side)`: the hub's own label side consulted for
    /// pruning, and the side of the entries the pass writes.
    #[inline]
    pub(crate) fn sides(self) -> (LabelSide, LabelSide) {
        match self {
            Direction::Forward => (LabelSide::Out, LabelSide::In),
            Direction::Backward => (LabelSide::In, LabelSide::Out),
        }
    }
}

/// `UPDATE_LABEL` (Algorithm 7). Returns `true` when the write shortened a
/// distance or created an entry (the cases that can strand redundancy).
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_label(
    labels: &mut Labels,
    inverted: &mut Option<InvertedIndex>,
    w: VertexId,
    side: LabelSide,
    vk: VertexId,
    vk_rank: u32,
    d: u32,
    c: u64,
    report: &mut UpdateReport,
) -> Result<bool, LabelingError> {
    let wrap = |source| LabelingError::Entry {
        hub: vk,
        vertex: w,
        source,
    };
    match labels.entry_for(w, side, vk_rank) {
        Some(old) => {
            if d < old.dist() {
                labels.upsert(w, side, LabelEntry::new(vk_rank, d, c).map_err(wrap)?);
                report.entries_updated += 1;
                Ok(true)
            } else if d == old.dist() {
                // New same-length shortest paths: accumulate the counting.
                let merged = c.saturating_add(old.count());
                labels.upsert(w, side, LabelEntry::new(vk_rank, d, merged).map_err(wrap)?);
                report.entries_updated += 1;
                Ok(false)
            } else {
                // The traversal found only a longer connection than the
                // recorded one; nothing to repair. (Unreachable when the
                // seed label was exact, possible with stale seeds under
                // the redundancy strategy.)
                Ok(false)
            }
        }
        None => {
            labels.upsert(w, side, LabelEntry::new(vk_rank, d, c).map_err(wrap)?);
            if let Some(inv) = inverted {
                inv.add(side, vk_rank, w);
            }
            report.entries_inserted += 1;
            Ok(true)
        }
    }
}

/// A repair seed: traversal start vertex, its seed distance from the pass
/// hub, and the count of hub-maximal shortest paths realizing it.
pub(crate) type Seed = (VertexId, u32, u64);

/// The writer of [`multi_source_pass`]: [`update_label`] for every visit,
/// plus `CLEAN_LABEL` after an improving write under
/// [`UpdateStrategy::Minimality`].
pub(crate) struct RepairWriter<'a> {
    pub labels: &'a mut Labels,
    pub inverted: &'a mut Option<InvertedIndex>,
    pub ranks: &'a RankTable,
    pub strategy: UpdateStrategy,
    pub report: &'a mut UpdateReport,
}

impl RepairWriter<'_> {
    /// Takes one unpruned visit of `hub`'s pass writing `side`: `w` at
    /// distance `dw`, reached by `cw` hub-maximal shortest paths.
    #[inline]
    fn visit(
        &mut self,
        w: VertexId,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        dw: u32,
        cw: u64,
    ) -> Result<(), LabelingError> {
        let improved = update_label(
            self.labels,
            self.inverted,
            w,
            side,
            hub,
            hub_rank,
            dw,
            cw,
            self.report,
        )?;
        if improved && self.strategy == UpdateStrategy::Minimality {
            let inv = self
                .inverted
                .as_mut()
                .expect("minimality requires inverted indexes");
            clean_label(self.labels, inv, self.ranks, w, side, self.report);
        }
        Ok(())
    }
}

/// The resumed traversal of Algorithm 6 (and its mirror), batched: one
/// pass repairs everything a whole window of edge insertions changed for
/// hub `vk`. With a single seed the bucket queue degenerates to exactly the
/// BFS level order, so a one-edge window runs the paper's per-edge pass.
///
/// Seeds sit at heterogeneous depths (one per inserted edge the hub's
/// pre-batch label reaches), so vertices are processed in nondecreasing
/// distance order through a monotone bucket queue. Two extra cases versus
/// the single-seed BFS:
///
/// * colliding seeds (two edges sharing an endpoint) merge — minimum
///   distance wins, equal distances accumulate counts;
/// * a seed the traversal reaches *earlier* than its seed depth is
///   relaxed downward (its seeded path class is not shortest and counts
///   for nothing), the only downward relaxation possible — non-seed
///   vertices are discovered in final-distance order, exactly as in BFS.
///
/// Every visit that survives the coverage prune goes to `writer` at once:
/// each write lands before the next vertex's prune scan, so later passes —
/// and, under Minimality, the cleaning that removes entries mid-pass —
/// see every earlier write.
#[allow(clippy::too_many_arguments)]
pub(crate) fn multi_source_pass(
    graph: &DiGraph,
    ranks: &RankTable,
    state: &mut SearchState,
    cache: &mut HubCache,
    buckets: &mut BucketQueue,
    direction: Direction,
    vk_rank: u32,
    vk: VertexId,
    seeds: &[Seed],
    writer: &mut RepairWriter<'_>,
    counters: &mut TraversalCounters,
) -> Result<(), LabelingError> {
    debug_assert!(!seeds.is_empty());
    let (own_side, target_side) = direction.sides();
    fill_hub_cache(writer.labels, cache, vk, vk_rank, own_side);
    // The pass resumes over `vk`'s own entries: with its slot at 0 the
    // scan reads a stored entry's distance, so the traversal prunes where
    // the index is already shorter and ties where it is as short.
    cache.put(vk_rank, 0);
    let base = seed_buckets(state, buckets, seeds);

    let mut level = 0usize;
    while level < buckets.depth() {
        let mut i = 0usize;
        while i < buckets.len_at(level) {
            let w = VertexId(buckets.at(level, i));
            i += 1;
            let dw = base + level as u32;
            if state.dist[w.index()] != dw {
                continue; // superseded by a downward relaxation
            }
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let covered = covered_dist(writer.labels, cache, vk_rank, w, target_side);
            if covered < dw {
                counters.pruned += 1;
                continue;
            }
            writer.visit(w, target_side, vk, vk_rank, dw, cw)?;

            let nbrs = match direction {
                Direction::Forward => graph.nbr_out(w),
                Direction::Backward => graph.nbr_in(w),
            };
            for &u in nbrs {
                let u = VertexId(u);
                if !state.visited(u) {
                    if vk_rank < ranks.rank(u) {
                        state.visit(u, dw + 1, cw);
                        buckets.push((dw + 1 - base) as usize, u.0);
                    }
                } else if state.dist[u.index()] == dw + 1 {
                    state.accumulate(u, cw);
                } else if state.dist[u.index()] > dw + 1 {
                    // Only deeper-seeded vertices can be relaxed downward.
                    state.relax(u, dw + 1, cw);
                    buckets.push((dw + 1 - base) as usize, u.0);
                }
            }
        }
        level += 1;
    }
    Ok(())
}

/// Resets `state` and `buckets` and loads `seeds` into them, merging
/// colliding seeds (minimum distance wins, equal distances accumulate).
/// Returns the base distance buckets are relative to.
fn seed_buckets(state: &mut SearchState, buckets: &mut BucketQueue, seeds: &[Seed]) -> u32 {
    state.reset();
    buckets.reset();
    let base = seeds.iter().map(|&(_, d, _)| d).min().expect("non-empty");
    for &(start, d, c) in seeds {
        if !state.visited(start) {
            state.visit(start, d, c);
            buckets.push((d - base) as usize, start.0);
        } else if state.dist[start.index()] == d {
            state.accumulate(start, c);
        } else if d < state.dist[start.index()] {
            state.relax(start, d, c);
            buckets.push((d - base) as usize, start.0);
        }
        // d > recorded: a longer seeded class to the same start; its paths
        // are not shortest and contribute nothing.
    }
    base
}

/// What a count-subtraction pass concluded.
pub(crate) enum SubtractOutcome {
    /// The cone was saturation-free and every buffered edit was applied.
    Done,
    /// A saturated (24-bit-capped) count was met — nothing was written;
    /// the caller must demote the hub to the re-label regime.
    Demote,
}

/// The decremental mirror of [`multi_source_pass`]: one traversal
/// *subtracts* everything a whole window of edge deletions removed from
/// hub `vk`'s shortest-path counts.
///
/// Exactness rests on the **last-old-edge decomposition** — the dual of
/// the insertion engine's first-new-edge one. Every `vk`-maximal
/// pre-window shortest path that crossed at least one deleted edge splits
/// uniquely at its *last* crossing `(a_o, b_i)`: an arbitrary pre-window
/// shortest prefix to `a_o` (counted exactly by the hub's *pre-window*
/// seed entry, snapshotted before any repair) plus a suffix that crosses
/// no deleted edge — which is exactly what the traversal walks, because
/// all window edges are already gone from the graph. Summing over seeds
/// therefore counts each vanished path once, no matter how many deleted
/// edges it crossed.
///
/// Only applicable to hubs whose distances survived the window (the
/// count-repair regime): every reached entry is decremented where its
/// stored distance matches the traversal's, removed when the count hits
/// zero. Edits are buffered and applied only when the whole merged cone
/// is saturation-free; otherwise nothing is written and
/// [`SubtractOutcome::Demote`] tells the caller to re-label instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn multi_source_subtract(
    graph: &DiGraph,
    ranks: &RankTable,
    labels: &mut Labels,
    inverted: &mut Option<InvertedIndex>,
    state: &mut SearchState,
    cache: &mut HubCache,
    buckets: &mut BucketQueue,
    direction: Direction,
    vk_rank: u32,
    vk: VertexId,
    seeds: &[Seed],
    report: &mut UpdateReport,
) -> SubtractOutcome {
    debug_assert!(!seeds.is_empty());
    if seeds.iter().any(|&(_, _, c)| c >= MAX_COUNT) {
        return SubtractOutcome::Demote;
    }
    let (own_side, target_side) = direction.sides();
    fill_hub_cache(labels, cache, vk, vk_rank, own_side);
    cache.put(vk_rank, 0);
    let base = seed_buckets(state, buckets, seeds);

    // (vertex, remaining count) edits; remaining == 0 removes the entry.
    let mut edits: Vec<(VertexId, u64)> = Vec::new();
    let mut level = 0usize;
    while level < buckets.depth() {
        let mut i = 0usize;
        while i < buckets.len_at(level) {
            let w = VertexId(buckets.at(level, i));
            i += 1;
            let dw = base + level as u32;
            if state.dist[w.index()] != dw {
                continue;
            }
            let cw = state.count[w.index()];
            report.vertices_visited += 1;

            // Prune where the crossing paths are not shortest: distances
            // only exceed `sd` deeper in the cone, so nothing there needs
            // subtraction either.
            if dw > covered_dist(labels, cache, vk_rank, w, target_side) {
                continue;
            }

            if let Some(e) = labels.entry_for(w, target_side, vk_rank) {
                if e.dist() == dw {
                    if e.count_saturated() {
                        return SubtractOutcome::Demote;
                    }
                    edits.push((w, e.count().saturating_sub(cw)));
                }
            }

            let nbrs = match direction {
                Direction::Forward => graph.nbr_out(w),
                Direction::Backward => graph.nbr_in(w),
            };
            for &u in nbrs {
                let u = VertexId(u);
                if !state.visited(u) {
                    if vk_rank < ranks.rank(u) {
                        state.visit(u, dw + 1, cw);
                        buckets.push((dw + 1 - base) as usize, u.0);
                    }
                } else if state.dist[u.index()] == dw + 1 {
                    state.accumulate(u, cw);
                }
                // dist[u] < dw + 1: the class through w is not shortest at
                // u; its counts were already excluded there. dist[u] >
                // dw + 1 cannot happen — subtraction seeds sit at exact
                // pre-window distances, so no downward relaxation exists.
            }
        }
        level += 1;
    }

    for (w, remaining) in edits {
        if remaining == 0 {
            labels.remove(w, target_side, vk_rank);
            if let Some(inv) = inverted {
                inv.remove(target_side, vk_rank, w);
            }
            report.entries_removed += 1;
        } else {
            let e = labels
                .entry_for(w, target_side, vk_rank)
                .expect("buffered edit targets an existing entry");
            let updated = LabelEntry::new_unchecked(vk_rank, e.dist(), remaining);
            labels.upsert(w, target_side, updated);
            report.entries_updated += 1;
        }
    }
    SubtractOutcome::Done
}
