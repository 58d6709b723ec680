//! Property-based proof that the two label layouts and the two
//! intersection kernels are observationally identical:
//!
//! * [`FrozenLabels`] answers `dist_count` exactly like the [`Labels`] it
//!   was frozen from, for every vertex pair;
//! * the adaptive kernel ([`intersect_adaptive`]: branchless merge +
//!   galloping) equals the reference two-pointer [`intersect`] on
//!   arbitrary — including pathologically skewed — sorted lists;
//! * `SCCnt` agrees between the live `CscIndex` path and the frozen
//!   `SnapshotIndex` path across randomized dynamic workloads.

use csc_core::{CscConfig, CscIndex};
use csc_graph::generators::gnm;
use csc_graph::VertexId;
use csc_labeling::frozen::GALLOP_SKEW;
use csc_labeling::labels::intersect;
use csc_labeling::{intersect_adaptive, FrozenLabels, LabelEntry, LabelSide, LabelStore, Labels};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds one vertex's sorted label list from a hub -> (dist, count) map.
fn list_from(map: &BTreeMap<u32, (u32, u64)>) -> Vec<LabelEntry> {
    map.iter()
        .map(|(&h, &(d, c))| LabelEntry::new(h, d, c).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Freezing preserves every slice and every pairwise query.
    #[test]
    fn frozen_matches_nested_on_random_label_stores(
        sides in proptest::collection::vec(
            proptest::collection::btree_map(0u32..48, (0u32..60, 1u64..9), 0..14),
            2..12,
        )
    ) {
        // Interpret consecutive map pairs as one vertex's (in, out) lists.
        let n = sides.len() / 2;
        let mut labels = Labels::new(n);
        for v in 0..n {
            for (side, map) in [
                (LabelSide::In, &sides[2 * v]),
                (LabelSide::Out, &sides[2 * v + 1]),
            ] {
                for e in list_from(map) {
                    labels.upsert(VertexId(v as u32), side, e);
                }
            }
        }
        let frozen = FrozenLabels::freeze(&labels);
        prop_assert_eq!(LabelStore::vertex_count(&frozen), n);
        prop_assert_eq!(LabelStore::total_entries(&frozen), labels.total_entries());
        for v in 0..n as u32 {
            let v = VertexId(v);
            prop_assert_eq!(LabelStore::in_of(&frozen, v), labels.in_of(v));
            prop_assert_eq!(LabelStore::out_of(&frozen, v), labels.out_of(v));
        }
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                let (s, t) = (VertexId(s), VertexId(t));
                prop_assert_eq!(
                    LabelStore::dist_count(&frozen, s, t),
                    labels.dist_count(s, t),
                    "dist_count({}, {})", s, t
                );
            }
        }
    }

    /// The adaptive kernel equals the reference kernel on arbitrary list
    /// shapes, in both argument orders.
    #[test]
    fn adaptive_kernel_matches_reference(
        a in proptest::collection::btree_map(0u32..64, (0u32..40, 1u64..9), 0..20),
        b in proptest::collection::btree_map(0u32..64, (0u32..40, 1u64..9), 0..20),
    ) {
        let (la, lb) = (list_from(&a), list_from(&b));
        let want = intersect(&la, &lb);
        prop_assert_eq!(intersect_adaptive(&la, &lb), want);
        prop_assert_eq!(intersect_adaptive(&lb, &la), want);
    }

    /// Same, but with both lists long enough to take the dual-chain merge
    /// path (shorter side >= DUAL_CHAIN_MIN, skew < GALLOP_SKEW).
    #[test]
    fn adaptive_kernel_matches_reference_on_long_balanced_lists(
        stride_a in 1u32..4,
        stride_b in 1u32..4,
        len_a in 40usize..160,
        len_b in 40usize..160,
        salt in any::<u32>(),
    ) {
        let la: Vec<LabelEntry> = (0..len_a as u32)
            .map(|i| LabelEntry::new(i * stride_a, (i ^ salt) % 30 + 1, (i % 6 + 1) as u64).unwrap())
            .collect();
        let lb: Vec<LabelEntry> = (0..len_b as u32)
            .map(|i| LabelEntry::new(i * stride_b, (i.wrapping_add(salt)) % 30 + 1, (i % 4 + 1) as u64).unwrap())
            .collect();
        prop_assert!(la.len().min(lb.len()) >= csc_labeling::frozen::DUAL_CHAIN_MIN);
        let want = intersect(&la, &lb);
        prop_assert!(want.is_some(), "strided lists always share hub 0");
        prop_assert_eq!(intersect_adaptive(&la, &lb), want);
        prop_assert_eq!(intersect_adaptive(&lb, &la), want);
    }

    /// Same, but with sizes forced across the galloping threshold: a short
    /// probe list against a long dense one.
    #[test]
    fn adaptive_kernel_matches_reference_on_skewed_lists(
        short in proptest::collection::btree_map(0u32..1024, (0u32..40, 1u64..9), 1..5),
        long_stride in 1u32..5,
        long_len in 64usize..256,
    ) {
        let long: Vec<LabelEntry> = (0..long_len as u32)
            .map(|i| LabelEntry::new(i * long_stride, (i % 13) + 1, (i % 4 + 1) as u64).unwrap())
            .collect();
        let short = list_from(&short);
        prop_assert!(long.len() >= GALLOP_SKEW * short.len(), "must exercise galloping");
        let want = intersect(&short, &long);
        prop_assert_eq!(intersect_adaptive(&short, &long), want);
        prop_assert_eq!(intersect_adaptive(&long, &short), want);
    }

    /// Distance *and* count of `SCCnt(v)` agree between the live nested
    /// path (`CscIndex::query`) and the frozen snapshot path
    /// (`SnapshotIndex::query`) across a randomized dynamic workload, with
    /// a snapshot taken after every update.
    #[test]
    fn sccnt_agrees_between_live_and_frozen_paths(
        n in 6usize..18,
        m_seed in any::<u64>(),
        ops in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..14),
    ) {
        let m = (m_seed as usize) % (n * (n - 1) / 2 + 1);
        let mut index = CscIndex::build(&gnm(n, m, m_seed), CscConfig::default()).unwrap();

        let check_all = |index: &CscIndex| -> Result<(), TestCaseError> {
            let snap = index.freeze();
            for v in 0..n as u32 {
                let v = VertexId(v);
                prop_assert_eq!(snap.query(v), index.query(v), "SCCnt({})", v);
                prop_assert_eq!(snap.query_raw(v), index.query_raw(v), "raw({})", v);
            }
            Ok(())
        };
        check_all(&index)?;

        for (seed, insert) in ops {
            if insert {
                // Derive a fresh non-edge deterministically from the seed.
                let mut s = seed;
                for _ in 0..20 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = VertexId((s % n as u64) as u32);
                    let b = VertexId(((s >> 17) % n as u64) as u32);
                    if a != b && !index.contains_edge(a, b) {
                        index.insert_edge(a, b).unwrap();
                        break;
                    }
                }
            } else {
                let edges: Vec<_> = index.original_edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (a, b) = edges[(seed % edges.len() as u64) as usize];
                index.remove_edge(a, b).unwrap();
            }
            check_all(&index)?;
        }
    }
}

/// Galloping edge cases pinned as deterministic unit tests (the ISSUE's
/// checklist: empty, disjoint, heavily skewed).
mod galloping_edges {
    use super::*;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    #[test]
    fn empty_lists() {
        assert_eq!(intersect_adaptive(&[], &[]), None);
        let long: Vec<LabelEntry> = (0..100).map(|h| e(h, 1, 1)).collect();
        assert_eq!(intersect_adaptive(&long, &[]), None);
        assert_eq!(intersect_adaptive(&[], &long), None);
    }

    #[test]
    fn disjoint_skewed_lists() {
        // Short list entirely below, inside, and above the long list's
        // range — galloping must never report a phantom match.
        let long: Vec<LabelEntry> = (0..128).map(|h| e(2 * h + 100, 1, 1)).collect();
        for short in [
            vec![e(0, 1, 1), e(50, 1, 1)],        // below
            vec![e(101, 1, 1), e(103, 1, 1)],     // interleaved odd
            vec![e(1_000, 1, 1), e(2_000, 1, 1)], // above
        ] {
            assert_eq!(intersect_adaptive(&short, &long), None, "{short:?}");
            assert_eq!(intersect_adaptive(&long, &short), None, "{short:?}");
        }
    }

    #[test]
    fn single_probe_against_huge_list() {
        let long: Vec<LabelEntry> = (0..4096).map(|h| e(h, (h % 7) + 1, 2)).collect();
        // Matches at the very first, middle, and last positions.
        for h in [0u32, 2048, 4095] {
            let short = [e(h, 3, 5)];
            let got = intersect_adaptive(&short, &long).unwrap();
            let want = intersect(&short, &long).unwrap();
            assert_eq!(got, want, "probe at {h}");
        }
        // Just past the end: no match.
        assert_eq!(intersect_adaptive(&[e(4096, 1, 1)], &long), None);
    }

    #[test]
    fn matches_clustered_at_the_tail() {
        // Galloping restarts from the previous match position; clustered
        // tail matches exercise the position-carrying logic.
        let long: Vec<LabelEntry> = (0..512).map(|h| e(h, 1, 1)).collect();
        let short = [e(500, 1, 1), e(505, 2, 3), e(510, 1, 2), e(511, 4, 4)];
        assert_eq!(intersect_adaptive(&short, &long), intersect(&short, &long));
    }

    #[test]
    fn threshold_boundary_picks_a_correct_strategy_either_way() {
        // Exactly at and just below the skew threshold: both strategies
        // must agree, whichever gets chosen.
        let short: Vec<LabelEntry> = (0..4).map(|h| e(h * 16, 1, 1)).collect();
        for long_len in [GALLOP_SKEW * 4 - 1, GALLOP_SKEW * 4, GALLOP_SKEW * 4 + 1] {
            let long: Vec<LabelEntry> = (0..long_len as u32).map(|h| e(h, 1, 1)).collect();
            assert_eq!(
                intersect_adaptive(&short, &long),
                intersect(&short, &long),
                "long_len {long_len}"
            );
        }
    }
}
