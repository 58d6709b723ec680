//! Index reduction (Section IV-E): the two lists per couple a cycle query
//! reads are the only ones stored, and the couple view reads the other two
//! from them.
//!
//! `SCCnt(v)` intersects `L_out(v_o)` with `L_in(v_i)` and reads nothing
//! else. The other two lists of a couple are copies of these, one hop
//! along the couple edge `v_i → v_o`:
//!
//! * `L_in(v_o)  = shift₊₁(L_in(v_i)) ++ (v_o, 0, 1)`
//! * `L_out(v_i) = shift₊₁(L_out(v_o) minus hubs v_i and v_o) ++ (v_i, 0, 1)`
//!
//! where `shift₊₁` adds one to every distance and keeps every count, and
//! the excluded `hub == v_i` entries of `L_out(v_o)` are the cycle
//! closures the backward traversal pruned at the couple (they have no
//! counterpart on `v_i`). Both rules are one rule: a copy holds the
//! entries of its couple's list whose hubs outrank the copy's own vertex,
//! one hop further, then its own self entry.
//!
//! The pairing holds for every index the build and dynamic maintenance
//! produce. `v_i → v_o` is the only edge into `v_o` and the only edge out
//! of `v_i`, so every shortest path into `v_o` runs through `v_i`, and
//! every shortest path out of `v_i` runs through `v_o`. A traversal that
//! reaches one member of a couple therefore reaches the other one step
//! away with the same count, and would write both or neither. Every rank
//! table places `v_o` directly below `v_i` (`RankTable::bipartite_order`,
//! and `add_vertex` appends couples in that order), so both appended self
//! entries rank below every hub they follow.
//!
//! So a `CscIndex`'s label store holds only `L_out(v_o)` and `L_in(v_i)`
//! ([`query_lists`]); the slots of `L_in(v_o)` and `L_out(v_i)` stay empty.
//! The traversals that write labels skip the couple the way the static
//! build always has, and every reader of a copy goes through
//! [`CoupleView`]. The snapshot arena and the checkpoint hold the same two
//! lists; the decoder checks that they derive valid copies ([`CopyRule`])
//! and stores nothing more.
//!
//! Counts of what the index holds keep counting all four lists: per
//! couple, `|L_in(v_o)| = |L_in(v_i)| + 1`, and `|L_out(v_i)| =
//! |L_out(v_o)|` less one when `L_out(v_o)` holds its closure
//! ([`is_closure`]), so `CscIndex` keeps the number of closures alongside
//! the store.

use csc_graph::bipartite::{couple, in_vertex, is_in_vertex, out_vertex};
use csc_graph::{RankTable, VertexId};
use csc_labeling::entry::COUNT_BITS;
use csc_labeling::{LabelEntry, LabelSide, Labels, MAX_DIST, MAX_HUB_RANK};

/// The lists a cycle query reads, in couple order: `L_out(v_o)` then
/// `L_in(v_i)` for every original vertex `v` below `n`. The snapshot arena
/// packs them in this order, and the checkpoint writes them in it.
pub(crate) fn query_lists(n: usize) -> impl Iterator<Item = (VertexId, LabelSide)> {
    (0..n as u32).flat_map(|v| {
        let v = VertexId(v);
        [
            (out_vertex(v), LabelSide::Out),
            (in_vertex(v), LabelSide::In),
        ]
    })
}

/// `true` if `v`'s `side` list is one the store holds: `L_in(v_i)` or
/// `L_out(v_o)`.
#[inline]
pub(crate) fn is_stored(v: VertexId, side: LabelSide) -> bool {
    is_in_vertex(v) == (side == LabelSide::In)
}

/// `true` if hub `hub`'s entry in `v`'s `side` list is a cycle closure:
/// hub `v_i` in `L_out(v_o)`, the one kind of stored entry whose copy the
/// couple view leaves out.
#[inline]
pub(crate) fn is_closure(v: VertexId, side: LabelSide, hub: VertexId) -> bool {
    side == LabelSide::Out && !is_in_vertex(v) && hub == couple(v)
}

/// The closures the store holds: how many couples' `L_out(v_o)` hold hub
/// `v_i`. `O(n log)`; the writers keep the count up to date after that.
pub(crate) fn count_closures(labels: &Labels, ranks: &RankTable) -> usize {
    (0..labels.vertex_count() as u32 / 2)
        .map(VertexId)
        .filter(|&v| {
            let vi = in_vertex(v);
            let closure = labels.entry_for(out_vertex(v), LabelSide::Out, ranks.rank(vi));
            closure.is_some()
        })
        .count()
}

/// One hop further along the couple edge: the distance plus one, the hub
/// and count kept. The caller guarantees `e.dist() < MAX_DIST`: the
/// writers refuse a list whose copy would pass it, and so does the decoder.
#[inline]
fn one_hop(e: LabelEntry) -> LabelEntry {
    debug_assert!(e.dist() < MAX_DIST, "the copy of {e:?} leaves the field");
    LabelEntry::from_raw(e.raw() + (1 << COUNT_BITS))
}

/// Reads all four lists of every couple from the two the store holds: a
/// stored list as it is, a copy through its derivation (see the [module
/// docs](self)).
#[derive(Clone, Copy)]
pub(crate) struct CoupleView<'a> {
    labels: &'a Labels,
    ranks: &'a RankTable,
}

impl<'a> CoupleView<'a> {
    pub(crate) fn new(labels: &'a Labels, ranks: &'a RankTable) -> Self {
        CoupleView { labels, ranks }
    }

    /// `v`'s `side` list, in hub-rank order.
    pub(crate) fn list(self, v: VertexId, side: LabelSide) -> CoupleList<'a> {
        if is_stored(v, side) {
            return CoupleList {
                source: self.labels.side_of(v, side).iter(),
                copy: false,
                below: u32::MAX,
                own: None,
            };
        }
        let own_rank = self.ranks.rank(v);
        CoupleList {
            source: self.labels.side_of(couple(v), side).iter(),
            copy: true,
            below: own_rank,
            own: Some(LabelEntry::new_unchecked(own_rank, 0, 1)),
        }
    }

    /// Hub rank `hub_rank`'s entry in `v`'s `side` list, if any.
    pub(crate) fn entry_for(
        self,
        v: VertexId,
        side: LabelSide,
        hub_rank: u32,
    ) -> Option<LabelEntry> {
        if is_stored(v, side) {
            return self.labels.entry_for(v, side, hub_rank);
        }
        let own_rank = self.ranks.rank(v);
        match hub_rank.cmp(&own_rank) {
            std::cmp::Ordering::Less => self
                .labels
                .entry_for(couple(v), side, hub_rank)
                .map(one_hop),
            std::cmp::Ordering::Equal => Some(LabelEntry::new_unchecked(own_rank, 0, 1)),
            std::cmp::Ordering::Greater => None,
        }
    }

    /// The shortest `s ~> t` distance through a hub of both `L_out(s)` and
    /// `L_in(t)`, if they share one.
    pub(crate) fn dist(self, s: VertexId, t: VertexId) -> Option<u32> {
        let mut out = self.list(s, LabelSide::Out).peekable();
        let mut into = self.list(t, LabelSide::In).peekable();
        let mut best = None;
        while let (Some(a), Some(b)) = (out.peek(), into.peek()) {
            match a.hub_rank().cmp(&b.hub_rank()) {
                std::cmp::Ordering::Less => {
                    out.next();
                }
                std::cmp::Ordering::Greater => {
                    into.next();
                }
                std::cmp::Ordering::Equal => {
                    let d = a.dist() + b.dist();
                    best = Some(best.map_or(d, |x: u32| x.min(d)));
                    out.next();
                    into.next();
                }
            }
        }
        best
    }
}

/// A list read through [`CoupleView::list`]: the stored entries ranked
/// above `below`, each one hop further for a `copy`, then `own`.
pub(crate) struct CoupleList<'a> {
    source: std::slice::Iter<'a, LabelEntry>,
    copy: bool,
    below: u32,
    own: Option<LabelEntry>,
}

impl Iterator for CoupleList<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        match self.source.as_slice().first() {
            Some(&e) if e.hub_rank() < self.below => {
                self.source.next();
                Some(if self.copy { one_hop(e) } else { e })
            }
            _ => self.own.take(),
        }
    }
}

/// What a stored list must hold for its couple copy to be a label list:
/// every entry whose hub is not in `skip` outranks the copy's own vertex,
/// ranked `self_rank` (else the copy would be unsorted, and the view,
/// which keeps only those, would drop entries), and sits below `MAX_DIST`
/// (its shift would leave the entry); and `self_rank` fits the entry's
/// hub field ([`self_fits`](Self::self_fits)).
#[derive(Clone, Copy)]
pub(crate) struct CopyRule {
    /// Hub ranks the copy leaves out; `u32::MAX`, above every hub rank,
    /// for none.
    skip: [u32; 2],
    self_rank: u32,
}

impl CopyRule {
    /// The rule `L_in(v_i)` obeys to derive `L_in(v_o)` for the `v_o`
    /// ranked `vo_rank`.
    pub(crate) fn in_of_vo(vo_rank: u32) -> Self {
        CopyRule {
            skip: [u32::MAX; 2],
            self_rank: vo_rank,
        }
    }

    /// The rule `L_out(v_o)` obeys to derive `L_out(v_i)` for the couple
    /// ranked `vi_rank` and `vo_rank`.
    pub(crate) fn out_of_vi(vi_rank: u32, vo_rank: u32) -> Self {
        CopyRule {
            skip: [vi_rank, vo_rank],
            self_rank: vi_rank,
        }
    }

    /// `true` if the copy's self entry fits the hub field; if not, no
    /// list derives a copy.
    pub(crate) fn self_fits(self) -> bool {
        self.self_rank <= MAX_HUB_RANK
    }

    /// `true` if `e` may stand in the stored list.
    #[inline]
    pub(crate) fn admits(self, e: LabelEntry) -> bool {
        let hub = e.hub_rank();
        self.skip.contains(&hub) || (hub < self.self_rank && e.dist() < MAX_DIST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::GraphUpdate;
    use crate::config::{CscConfig, UpdateStrategy};
    use crate::index::CscIndex;
    use csc_graph::generators::gnm;
    use csc_graph::traversal::bfs_distances_dir;
    use proptest::prelude::*;

    fn e(hub: u32, dist: u32, count: u64) -> LabelEntry {
        LabelEntry::new(hub, dist, count).unwrap()
    }

    #[test]
    fn query_slots_are_the_query_lists() {
        // The query lists are the lists a reduced store holds, one per
        // bipartite vertex, each couple's `L_out(v_o)` first.
        let named: Vec<_> = query_lists(5).collect();
        assert_eq!(named.len(), 10);
        assert_eq!(
            named[..2],
            [(VertexId(1), LabelSide::Out), (VertexId(0), LabelSide::In)]
        );
        let mut labels = Labels::reduced(10);
        for x in 0..10 {
            for side in [LabelSide::In, LabelSide::Out] {
                let v = VertexId(x);
                assert_eq!(
                    named.contains(&(v, side)),
                    is_stored(v, side),
                    "{v:?}/{side:?}"
                );
                if is_stored(v, side) {
                    labels.append(v, side, e(x, 0, 1));
                }
            }
        }
        assert_eq!(labels.total_entries(), 10);
        for x in 0..10 {
            let (v, copy) = (
                VertexId(x),
                if x % 2 == 0 {
                    LabelSide::Out
                } else {
                    LabelSide::In
                },
            );
            assert!(labels.side_of(v, copy).is_empty(), "{v:?} holds no copy");
        }
    }

    #[test]
    fn derivations_refuse_what_no_label_list_can_hold() {
        let derives = |rule: CopyRule, list: &[LabelEntry]| {
            rule.self_fits() && list.iter().all(|&e| rule.admits(e))
        };
        let (in_of_vo, out_of_vi) = (CopyRule::in_of_vo(5), CopyRule::out_of_vi(4, 5));
        // A hub v_o does not outrank: the self entry would sort before it.
        assert!(!derives(in_of_vo, &[e(0, 1, 1), e(6, 1, 1)]));
        assert!(!derives(in_of_vo, &[e(5, 1, 1)]));
        assert!(!derives(out_of_vi, &[e(6, 1, 1)]));
        // A distance whose shift leaves the 17-bit field.
        assert!(!derives(in_of_vo, &[e(0, MAX_DIST, 1)]));
        assert!(!derives(out_of_vi, &[e(0, MAX_DIST, 1)]));
        // A skipped entry is never shifted, so it cannot overflow.
        assert!(derives(out_of_vi, &[e(4, MAX_DIST, 1)]));
        assert!(derives(out_of_vi, &[e(0, MAX_DIST - 1, 1), e(5, 0, 1)]));
        // A self rank past the hub field.
        assert!(!derives(CopyRule::in_of_vo(u32::MAX), &[]));
    }

    #[test]
    fn the_view_reads_the_copies_one_hop_along_the_couple_edge() {
        // Couple 0 at ranks 2 (v_i) and 3 (v_o); hubs ranked 0 and 1 above.
        let ranks = RankTable::from_order(&[2, 3, 0, 1].map(VertexId));
        let (vi, vo) = (VertexId(0), VertexId(1));
        let mut labels = Labels::new(4);
        labels.append(vi, LabelSide::In, e(0, 3, 2));
        labels.append(vi, LabelSide::In, e(2, 0, 1));
        labels.append(vo, LabelSide::Out, e(0, MAX_DIST - 1, 4));
        labels.append(vo, LabelSide::Out, e(2, 7, 1)); // the closure
        labels.append(vo, LabelSide::Out, e(3, 0, 1));
        let view = CoupleView::new(&labels, &ranks);
        let list = |v, side| view.list(v, side).collect::<Vec<_>>();
        assert_eq!(list(vi, LabelSide::In), labels.in_of(vi));
        assert_eq!(list(vo, LabelSide::Out), labels.out_of(vo));
        assert_eq!(
            list(vo, LabelSide::In),
            [e(0, 4, 2), e(2, 1, 1), e(3, 0, 1)]
        );
        assert_eq!(list(vi, LabelSide::Out), [e(0, MAX_DIST, 4), e(2, 0, 1)]);
        for (v, side) in [(vi, LabelSide::Out), (vo, LabelSide::In)] {
            for rank in 0..5 {
                let listed = list(v, side).into_iter().find(|e| e.hub_rank() == rank);
                assert_eq!(
                    view.entry_for(v, side, rank),
                    listed,
                    "{v:?} {side:?} {rank}"
                );
            }
        }
        assert!(is_closure(vo, LabelSide::Out, vi));
        assert!(!is_closure(vi, LabelSide::Out, vo));
        assert!(!is_closure(vo, LabelSide::In, vi));
        assert_eq!(count_closures(&labels, &ranks), 1);
        // v_i ~> v_i through the copy of the closure is not a path: the
        // only route is v_i's own self entry.
        assert_eq!(view.dist(vi, vi), Some(0));
        assert_eq!(view.dist(vo, vi), Some(7));
        assert_eq!(view.dist(vo, vo), Some(0));
    }

    /// The windows of the view property: a few edge insertions and
    /// deletions, or a fresh vertex, chosen by seed.
    fn window(g: &csc_graph::DiGraph, seeds: &[u64]) -> Vec<GraphUpdate> {
        let n = g.vertex_count() as u64;
        seeds
            .iter()
            .map(|&s| {
                let (a, b) = (VertexId((s % n) as u32), VertexId(((s >> 20) % n) as u32));
                match s % 7 {
                    0 => GraphUpdate::AddVertex,
                    1 | 2 if g.has_edge(a, b) => GraphUpdate::RemoveEdge(a, b),
                    _ => GraphUpdate::InsertEdge(a, b),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Invariant 5 of `verify_index` on every entry the view yields,
        /// copies included: no entry under-estimates its true distance,
        /// and under Minimality none over-estimates it. A copy that was
        /// empty, or read at the wrong hop, fails here.
        #[test]
        fn every_entry_the_view_yields_is_bfs_exact(
            n in 4usize..12,
            m_seed in any::<u64>(),
            minimality in any::<bool>(),
            windows in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 1..5),
                1..6,
            ),
        ) {
            let strategy = if minimality {
                UpdateStrategy::Minimality
            } else {
                UpdateStrategy::Redundancy
            };
            let g = gnm(n, (m_seed as usize) % (2 * n + 1), m_seed);
            let config = CscConfig::default().with_update_strategy(strategy);
            let mut index = CscIndex::build(&g, config).unwrap();
            for (k, seeds) in windows.iter().enumerate() {
                let updates = window(&index.original_graph(), seeds);
                index.apply_batch(&updates).unwrap();
                let gb = index.bipartite().graph();
                let view = CoupleView::new(index.labels(), index.ranks());
                for v in gb.vertices() {
                    for side in [LabelSide::In, LabelSide::Out] {
                        let list: Vec<LabelEntry> = view.list(v, side).collect();
                        prop_assert!(!list.is_empty(), "window {}: {:?} {:?} is empty", k, v, side);
                        for e in list {
                            let hub = index.ranks().vertex_at_rank(e.hub_rank());
                            let forward = side == LabelSide::In;
                            let sd = bfs_distances_dir(gb, hub, forward)[v.index()];
                            prop_assert!(sd.is_some(), "window {}: {:?} {:?} {:?}", k, v, side, e);
                            let sd = sd.unwrap();
                            prop_assert!(e.dist() >= sd, "window {}: {:?} {:?} {:?} < {}", k, v, side, e, sd);
                            prop_assert!(
                                !minimality || e.dist() == sd,
                                "window {}: {:?} {:?} {:?} > {}", k, v, side, e, sd
                            );
                            prop_assert_eq!(view.entry_for(v, side, e.hub_rank()), Some(e));
                        }
                    }
                }
            }
        }
    }
}
