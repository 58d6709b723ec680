//! `CLEAN_LABEL` (Algorithm 8): eager removal of dominated label entries
//! under the minimality update strategy.
//!
//! When an update shortens paths *into* a vertex `w`, two kinds of entries
//! can become redundant: entries `(h, d, c)` in `L_in(w)` whose stored `d`
//! now exceeds the true `sd(h, w)`, and entries `(w, d, c)` in `L_out(y)`
//! (where `w` serves as the hub) with the same defect. The inverted indexes
//! locate the second kind without scanning every label list. Shortened
//! paths *out of* `w` are the mirror image.
//!
//! The store holds only `L_in(v_i)` and `L_out(v_o)` (`csc-core::
//! reduction`), and repair writes only those, so `w` is `w_i` when paths
//! into it shortened and `w_o` when paths out of it did. Shorter paths out
//! of `w_o` are shorter paths out of `w_i` one hop further, and only
//! `w_i` acts as a hub, so the second kind is always cleaned for hub
//! `w_i`. The distances come through the couple view, which reads the
//! copies `L_out(h_i)` that the checks need.
//!
//! Removal is sound unconditionally: the test `d > dist_index(h, w)` can
//! only fire when a strictly shorter connection exists in the index, and
//! index distances never under-estimate, so only genuinely dominated
//! entries are dropped.

use crate::invert::InvertedIndex;
use crate::reduction::{is_closure, is_stored, CoupleView};
use crate::stats::UpdateReport;
use csc_graph::bipartite::{couple, is_in_vertex};
use csc_graph::RankTable;
use csc_graph::VertexId;
use csc_labeling::{LabelSide, Labels};

/// Removes entries of `L_side(w)` dominated by strictly shorter index
/// routes, plus entries keyed by hub `w_i` (the incoming member of `w`'s
/// couple) on the opposite side's carriers, keeping `closures`, the
/// index's count of stored cycle closures, up to date.
///
/// `side == In` cleans after new shorter paths *into* `w = w_i`;
/// `side == Out` after new shorter paths *out of* `w = w_o`.
pub(crate) fn clean_label(
    labels: &mut Labels,
    inverted: &mut InvertedIndex,
    closures: &mut usize,
    ranks: &RankTable,
    w: VertexId,
    side: LabelSide,
    report: &mut UpdateReport,
) {
    debug_assert!(is_stored(w, side), "{w:?} {side:?} is a couple copy");
    // Part 1: entries (h, d, c) in L_side(w) with d > current dist.
    let snapshot: Vec<_> = labels.side_of(w, side).to_vec();
    for e in snapshot {
        let h = ranks.vertex_at_rank(e.hub_rank());
        if h == w {
            continue; // self entries are always exact
        }
        let view = CoupleView::new(labels, ranks);
        let best = match side {
            LabelSide::In => view.dist(h, w),
            LabelSide::Out => view.dist(w, h),
        };
        if best.is_some_and(|d| e.dist() > d) {
            labels.remove(w, side, e.hub_rank());
            inverted.remove(side, e.hub_rank(), w);
            *closures -= usize::from(is_closure(w, side, h));
            report.entries_removed += 1;
        }
    }

    // Part 2: entries where w_i is the hub, held on the opposite side by
    // the inverted carriers: (w_i, d, c) in L_out(y) encodes a path
    // y ~> w_i, which new shorter paths into w_i can dominate, and
    // (w_i, d, c) in L_in(y) a path w_i ~> y, which new shorter paths out
    // of w_o, and so out of w_i, can dominate.
    let hub = if is_in_vertex(w) { w } else { couple(w) };
    let hub_rank = ranks.rank(hub);
    let opposite = side.flip();
    let carriers: Vec<u32> = inverted.carriers(opposite, hub_rank).to_vec();
    for y in carriers {
        let y = VertexId(y);
        if y == hub {
            continue;
        }
        let Some(e) = labels.entry_for(y, opposite, hub_rank) else {
            continue;
        };
        let view = CoupleView::new(labels, ranks);
        let best = match side {
            LabelSide::In => view.dist(y, hub),
            LabelSide::Out => view.dist(hub, y),
        };
        if best.is_some_and(|d| e.dist() > d) {
            labels.remove(y, opposite, hub_rank);
            inverted.remove(opposite, hub_rank, y);
            *closures -= usize::from(is_closure(y, opposite, hub));
            report.entries_removed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::bipartite::{in_vertex, out_vertex};
    use csc_labeling::LabelEntry;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    /// Couples 0, 1, 2 of a bipartite store, ranked in couple order:
    /// `v_i` of couple `k` at rank `2k`, its `v_o` at `2k + 1`.
    fn couple_ranks(n: u32) -> RankTable {
        let order: Vec<VertexId> = (0..n)
            .flat_map(|v| [in_vertex(VertexId(v)), out_vertex(VertexId(v))])
            .collect();
        RankTable::from_order(&order)
    }

    /// The self entries every couple's stored lists hold.
    fn self_entries(labels: &mut Labels, n: u32) {
        for v in 0..n {
            let (vi, vo) = (in_vertex(VertexId(v)), out_vertex(VertexId(v)));
            labels.upsert(vi, LabelSide::In, e(2 * v, 0, 1));
            labels.upsert(vo, LabelSide::Out, e(2 * v + 1, 0, 1));
        }
    }

    #[test]
    fn removes_dominated_in_entry() {
        // L_in(2_i) holds hub 1_i at a stale 9 and hub 0_i at 2, while
        // L_out(1_o) reaches hub 0_i at 1, so the copy L_out(1_i) reaches
        // it at 2 and 1_i ~> 2_i is 4 through hub 0_i: (1_i, 9) is
        // dominated.
        let ranks = couple_ranks(3);
        let mut labels = Labels::new(6);
        self_entries(&mut labels, 3);
        labels.upsert(VertexId(3), LabelSide::Out, e(0, 1, 1));
        labels.upsert(VertexId(4), LabelSide::In, e(0, 2, 1));
        labels.upsert(VertexId(4), LabelSide::In, e(2, 9, 1));
        let mut inv = InvertedIndex::from_labels(&labels);
        let mut closures = 0;
        let mut report = UpdateReport::default();
        clean_label(
            &mut labels,
            &mut inv,
            &mut closures,
            &ranks,
            VertexId(4),
            LabelSide::In,
            &mut report,
        );
        assert_eq!(report.entries_removed, 1);
        assert!(labels.entry_for(VertexId(4), LabelSide::In, 2).is_none());
        assert!(labels.entry_for(VertexId(4), LabelSide::In, 0).is_some());
        inv.validate_against(&labels).unwrap();
    }

    #[test]
    fn keeps_exact_entries() {
        let ranks = couple_ranks(2);
        let mut labels = Labels::new(4);
        self_entries(&mut labels, 2);
        labels.upsert(VertexId(2), LabelSide::In, e(0, 2, 1));
        let mut inv = InvertedIndex::from_labels(&labels);
        let mut closures = 0;
        let mut report = UpdateReport::default();
        clean_label(
            &mut labels,
            &mut inv,
            &mut closures,
            &ranks,
            VertexId(2),
            LabelSide::In,
            &mut report,
        );
        assert_eq!(report.entries_removed, 0);
        assert_eq!(labels.total_entries(), 5);
    }

    #[test]
    fn cleans_hub_side_via_inverted_carriers() {
        // Couple 1 acts as hub for couple 2's out-label: (1_i, 7) in
        // L_out(2_o), a stale path 2_o ~> 1_i; hub 0_i connects them at
        // 1 + 2 = 3.
        let ranks = couple_ranks(3);
        let mut labels = Labels::new(6);
        self_entries(&mut labels, 3);
        labels.upsert(VertexId(2), LabelSide::In, e(0, 2, 1)); // 0_i ~> 1_i
        labels.upsert(VertexId(5), LabelSide::Out, e(0, 1, 1)); // 2_o ~> 0_i
        labels.upsert(VertexId(5), LabelSide::Out, e(2, 7, 1)); // stale 2_o ~> 1_i
        let mut inv = InvertedIndex::from_labels(&labels);
        let mut closures = 0;
        let mut report = UpdateReport::default();
        // New shorter paths arrived *into* 1_i.
        clean_label(
            &mut labels,
            &mut inv,
            &mut closures,
            &ranks,
            VertexId(2),
            LabelSide::In,
            &mut report,
        );
        assert_eq!(report.entries_removed, 1);
        assert!(labels.entry_for(VertexId(5), LabelSide::Out, 2).is_none());
        inv.validate_against(&labels).unwrap();
    }

    #[test]
    fn cleans_the_incoming_hub_after_shorter_paths_out_of_its_couple() {
        // (1_i, 9) in L_in(2_i) is a stale path 1_i ~> 2_i: with L_out(1_o)
        // reaching hub 0_i at 1 and L_in(2_i) holding hub 0_i at 2, the
        // copy L_out(1_i) reaches 2_i at 2 + 2 = 4. Cleaning after shorter
        // paths out of 1_o finds it through hub 1_i's carriers. A stale
        // closure of couple 1 in L_out(1_o) goes too, and the count with it.
        let ranks = couple_ranks(3);
        let mut labels = Labels::new(6);
        self_entries(&mut labels, 3);
        labels.upsert(VertexId(3), LabelSide::Out, e(0, 1, 1)); // 1_o ~> 0_i
        labels.upsert(VertexId(2), LabelSide::In, e(0, 1, 1)); // 0_i ~> 1_i
        labels.upsert(VertexId(3), LabelSide::Out, e(2, 5, 1)); // stale closure
        labels.upsert(VertexId(4), LabelSide::In, e(0, 2, 1)); // 0_i ~> 2_i
        labels.upsert(VertexId(4), LabelSide::In, e(2, 9, 1)); // stale 1_i ~> 2_i
        let mut inv = InvertedIndex::from_labels(&labels);
        let mut closures = 1;
        let mut report = UpdateReport::default();
        clean_label(
            &mut labels,
            &mut inv,
            &mut closures,
            &ranks,
            VertexId(3),
            LabelSide::Out,
            &mut report,
        );
        assert_eq!(report.entries_removed, 2);
        assert_eq!(closures, 0);
        assert!(labels.entry_for(VertexId(3), LabelSide::Out, 2).is_none());
        assert!(labels.entry_for(VertexId(4), LabelSide::In, 2).is_none());
        inv.validate_against(&labels).unwrap();
    }
}
