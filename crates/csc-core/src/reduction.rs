//! Index reduction (Section IV-E): the two lists per vertex a cycle query
//! reads, and the derivation of the other two.
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
//! counterpart on `v_i`).
//!
//! The pairing holds for every index the build and dynamic maintenance
//! produce. `v_i → v_o` is the only edge into `v_o` and the only edge out
//! of `v_i`, so every shortest path into `v_o` runs through `v_i`, and
//! every shortest path out of `v_i` runs through `v_o`. A traversal that
//! reaches one member of a paired couple therefore reaches the other one
//! step away with the same count, and writes both or neither. Every rank
//! table places `v_o` directly below `v_i` (`RankTable::bipartite_order`,
//! and `add_vertex` appends couples in that order), so both appended self
//! entries rank below every hub they follow.
//!
//! The snapshot arena holds only the two query lists
//! ([`query_lists`]), and the checkpoint stores only those and derives the
//! other two on load ([`derive_in_of_vo`], [`derive_out_of_vi`]); debug
//! builds check the pairing every time they write a checkpoint.

use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::{RankTable, VertexId};
use csc_labeling::{LabelEntry, LabelSide, Labels};

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

/// `true` if label slot `slot` (see [`csc_labeling::label_slot`]) holds a
/// query list: slot `4v` is `L_in(v_i)` and slot `4v + 3` is `L_out(v_o)`.
pub(crate) fn is_query_slot(slot: u32) -> bool {
    matches!(slot % 4, 0 | 3)
}

/// The first original vertex whose stored `L_in(v_o)` or `L_out(v_i)`
/// differs from its derivation, if any.
pub(crate) fn first_unpaired(labels: &Labels, ranks: &RankTable) -> Option<VertexId> {
    let mut derived = Vec::new();
    (0..labels.vertex_count() as u32 / 2)
        .map(VertexId)
        .find(|&v| {
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            let (ri, ro) = (ranks.rank(vi), ranks.rank(vo));
            !(derive_in_of_vo(labels.in_of(vi), ro, &mut derived)
                && derived == labels.in_of(vo)
                && derive_out_of_vi(labels.out_of(vo), ri, ro, &mut derived)
                && derived == labels.out_of(vi))
        })
}

/// Fills `out` with `L_in(v_o)`, derived from `L_in(v_i)`, a list sorted
/// by hub rank. `false`, with `out` unspecified, when the derived list
/// would not be a label list (see [`shift_onto_couple`]).
pub(crate) fn derive_in_of_vo(
    in_of_vi: &[LabelEntry],
    vo_rank: u32,
    out: &mut Vec<LabelEntry>,
) -> bool {
    shift_onto_couple(in_of_vi, &[], vo_rank, out)
}

/// Fills `out` with `L_out(v_i)`, derived from `L_out(v_o)`, a list sorted
/// by hub rank. `false`, with `out` unspecified, when the derived list
/// would not be a label list (see [`shift_onto_couple`]).
pub(crate) fn derive_out_of_vi(
    out_of_vo: &[LabelEntry],
    vi_rank: u32,
    vo_rank: u32,
    out: &mut Vec<LabelEntry>,
) -> bool {
    shift_onto_couple(out_of_vo, &[vi_rank, vo_rank], vi_rank, out)
}

/// Fills `out` with the entries of `list` whose hub is not in `skip`, one
/// hop further, then the couple's self entry `(self_rank, 0, 1)`. `false`,
/// with `out` unspecified, when that is not a label list: a kept hub that
/// does not outrank `self_rank` (the list would be unsorted), a kept
/// distance at `MAX_DIST` (its shift would overflow the entry), or a
/// `self_rank` past the entry's hub field.
fn shift_onto_couple(
    list: &[LabelEntry],
    skip: &[u32],
    self_rank: u32,
    out: &mut Vec<LabelEntry>,
) -> bool {
    out.clear();
    for &e in list {
        let hub = e.hub_rank();
        if skip.contains(&hub) {
            continue;
        }
        match e.with_dist_count(e.dist() + 1, e.count()) {
            Ok(shifted) if hub < self_rank => out.push(shifted),
            _ => return false,
        }
    }
    match LabelEntry::new(self_rank, 0, 1) {
        Ok(own) => out.push(own),
        Err(_) => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_labeling::{label_slot, slot_list, MAX_DIST};

    fn e(hub: u32, dist: u32, count: u64) -> LabelEntry {
        LabelEntry::new(hub, dist, count).unwrap()
    }

    #[test]
    fn query_slots_are_the_query_lists() {
        let named: Vec<u32> = query_lists(5)
            .map(|(v, side)| label_slot(v, side))
            .collect();
        let filtered: Vec<u32> = (0..20).filter(|&slot| is_query_slot(slot)).collect();
        assert_eq!(named.len(), 10);
        let mut sorted = named.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, filtered);
        assert_eq!(slot_list(named[0]), (VertexId(1), LabelSide::Out));
        assert_eq!(slot_list(named[1]), (VertexId(0), LabelSide::In));
    }

    #[test]
    fn derivations_refuse_what_no_label_list_can_hold() {
        let mut out = Vec::new();
        // A hub v_o does not outrank: the self entry would sort before it.
        assert!(!derive_in_of_vo(&[e(0, 1, 1), e(6, 1, 1)], 5, &mut out));
        assert!(!derive_in_of_vo(&[e(5, 1, 1)], 5, &mut out));
        assert!(!derive_out_of_vi(&[e(6, 1, 1)], 4, 5, &mut out));
        // A distance whose shift leaves the 17-bit field.
        assert!(!derive_in_of_vo(&[e(0, MAX_DIST, 1)], 5, &mut out));
        assert!(!derive_out_of_vi(&[e(0, MAX_DIST, 1)], 4, 5, &mut out));
        // A skipped entry is never shifted, so it cannot overflow.
        assert!(derive_out_of_vi(&[e(4, MAX_DIST, 1)], 4, 5, &mut out));
        // A self rank past the hub field.
        assert!(!derive_in_of_vo(&[], u32::MAX, &mut out));
    }
}
