//! Index reduction (Section IV-E): exploiting couple symmetry to halve
//! label storage.
//!
//! Couple-vertex skipping writes every in-label of `w_i` onto `w_o` as well
//! (distance `+1`, same count), and symmetrically for out-labels. A cycle
//! query, however, only ever reads `L_out(v_o)` and `L_in(v_i)`. The
//! reduced index therefore keeps exactly those two lists per original
//! vertex — about half the entries — and can *recover* the dropped halves
//! by the couple derivation:
//!
//! * `L_in(v_o)  = {(v_o, 0, 1)} ∪ shift₊₁(L_in(v_i))`
//! * `L_out(v_i) = {(v_i, 0, 1)} ∪ shift₊₁(L_out(v_o) \ self \ hub==v_i)`
//!
//! (the excluded `hub == v_i` entries of `L_out(v_o)` are the cycle
//! closures the backward traversal pruned at the couple — they have no
//! counterpart on `v_i`).
//!
//! The pairing holds for every index the build and dynamic maintenance
//! produce. `v_i → v_o` is the only edge into `v_o` and the only edge out
//! of `v_i`, so every shortest path into `v_o` runs through `v_i`, and
//! every shortest path out of `v_i` runs through `v_o`. A traversal that
//! reaches one member of a paired couple therefore reaches the other one
//! step away with the same count, and writes both or neither. The
//! per-window proptest of `tests/dynamic_equivalence.rs` pins the pairing
//! after every window of random mixed scripts under both update
//! strategies. [`ReducedIndex::recover`] still checks it and rejects a
//! label set where it fails; the reduced index itself stays queryable
//! either way, since the query-relevant halves are stored verbatim.

use crate::error::CscError;
use crate::index::CscIndex;
use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::{RankTable, VertexId};
use csc_labeling::{CycleCount, LabelEntry, LabelSide, Labels};

/// What reduction would save on a given index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReductionReport {
    /// Entries in the full index.
    pub full_entries: usize,
    /// Entries kept by the reduced form.
    pub reduced_entries: usize,
    /// Fraction of entries saved (`0.0 ..= 1.0`).
    pub savings: f64,
    /// Whether the couple derivation can recover the dropped halves
    /// exactly (true for every built or maintained index).
    pub exactly_recoverable: bool,
}

/// A compact, read-only cycle-counting snapshot: `L_in(v_i)` and
/// `L_out(v_o)` per original vertex.
#[derive(Clone, Debug)]
pub struct ReducedIndex {
    in_of_vi: Vec<Vec<LabelEntry>>,
    out_of_vo: Vec<Vec<LabelEntry>>,
    ranks: RankTable,
    exactly_recoverable: bool,
}

impl ReducedIndex {
    /// Builds the reduced snapshot from a full index and reports whether
    /// the dropped halves are derivable.
    pub fn from_index(index: &CscIndex) -> ReducedIndex {
        let n = index.original_vertex_count();
        let labels = index.labels();
        let mut in_of_vi = Vec::with_capacity(n);
        let mut out_of_vo = Vec::with_capacity(n);
        let mut recoverable = true;
        for v in 0..n as u32 {
            let v = VertexId(v);
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            in_of_vi.push(labels.in_of(vi).to_vec());
            out_of_vo.push(labels.out_of(vo).to_vec());
            if recoverable {
                recoverable = derive_in_of_vo(labels.in_of(vi), index.ranks().rank(vo)).as_deref()
                    == Some(labels.in_of(vo))
                    && derive_out_of_vi(
                        labels.out_of(vo),
                        index.ranks().rank(vi),
                        index.ranks().rank(vo),
                    )
                    .as_deref()
                        == Some(labels.out_of(vi));
            }
        }
        ReducedIndex {
            in_of_vi,
            out_of_vo,
            ranks: index.ranks().clone(),
            exactly_recoverable: recoverable,
        }
    }

    /// Number of original vertices covered.
    pub fn vertex_count(&self) -> usize {
        self.in_of_vi.len()
    }

    /// `SCCnt(v)` on the reduced snapshot — identical answers to the full
    /// index it was built from.
    pub fn query(&self, v: VertexId) -> Option<CycleCount> {
        let dc =
            csc_labeling::labels::intersect(&self.out_of_vo[v.index()], &self.in_of_vi[v.index()])?;
        Some(CycleCount::new(dc.dist.div_ceil(2), dc.count))
    }

    /// Entries stored by the reduced form.
    pub fn total_entries(&self) -> usize {
        let a: usize = self.in_of_vi.iter().map(Vec::len).sum();
        let b: usize = self.out_of_vo.iter().map(Vec::len).sum();
        a + b
    }

    /// Bytes under the 64-bit entry encoding.
    pub fn entry_bytes(&self) -> usize {
        self.total_entries() * 8
    }

    /// `true` if [`recover`](Self::recover) will succeed.
    pub fn exactly_recoverable(&self) -> bool {
        self.exactly_recoverable
    }

    /// Recovers the full four-list label set by couple derivation.
    ///
    /// # Errors
    ///
    /// Fails when the couple pairing does not hold on the index the
    /// snapshot came from.
    pub fn recover(&self) -> Result<Labels, CscError> {
        if !self.exactly_recoverable {
            return Err(CscError::Serial(
                "couple pairing does not hold; recovery is not exact".into(),
            ));
        }
        let n = self.in_of_vi.len();
        let mut labels = Labels::new(2 * n);
        for v in 0..n as u32 {
            let v = VertexId(v);
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            let (ri, ro) = (self.ranks.rank(vi), self.ranks.rank(vo));
            for &e in &self.in_of_vi[v.index()] {
                labels.append(vi, LabelSide::In, e);
            }
            for e in derive_in_of_vo(&self.in_of_vi[v.index()], ro).expect("checked recoverable") {
                labels.append(vo, LabelSide::In, e);
            }
            for e in
                derive_out_of_vi(&self.out_of_vo[v.index()], ri, ro).expect("checked recoverable")
            {
                labels.append(vi, LabelSide::Out, e);
            }
            for &e in &self.out_of_vo[v.index()] {
                labels.append(vo, LabelSide::Out, e);
            }
        }
        Ok(labels)
    }
}

/// `L_in(v_o)` from `L_in(v_i)`: shift distances by one, self entry last.
fn derive_in_of_vo(in_of_vi: &[LabelEntry], vo_rank: u32) -> Option<Vec<LabelEntry>> {
    let mut out = Vec::with_capacity(in_of_vi.len() + 1);
    for e in in_of_vi {
        out.push(e.with_dist_count(e.dist() + 1, e.count()).ok()?);
    }
    out.push(LabelEntry::new(vo_rank, 0, 1).ok()?);
    Some(out)
}

/// `L_out(v_i)` from `L_out(v_o)`: drop the self entry and the cycle
/// closures (`hub == v_i`), shift the rest, append `v_i`'s self entry.
fn derive_out_of_vi(
    out_of_vo: &[LabelEntry],
    vi_rank: u32,
    vo_rank: u32,
) -> Option<Vec<LabelEntry>> {
    let mut out = Vec::with_capacity(out_of_vo.len());
    for e in out_of_vo {
        if e.hub_rank() == vo_rank || e.hub_rank() == vi_rank {
            continue;
        }
        out.push(e.with_dist_count(e.dist() + 1, e.count()).ok()?);
    }
    out.push(LabelEntry::new(vi_rank, 0, 1).ok()?);
    Some(out)
}

/// Analyzes the savings reduction would achieve on `index`.
pub fn analyze(index: &CscIndex) -> ReductionReport {
    let reduced = ReducedIndex::from_index(index);
    let full = index.total_entries();
    let kept = reduced.total_entries();
    ReductionReport {
        full_entries: full,
        reduced_entries: kept,
        savings: if full == 0 {
            0.0
        } else {
            1.0 - kept as f64 / full as f64
        },
        exactly_recoverable: reduced.exactly_recoverable(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use csc_graph::fixtures::figure2;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::DiGraph;

    fn check_queries_equal(index: &CscIndex, reduced: &ReducedIndex) {
        for v in 0..index.original_vertex_count() as u32 {
            assert_eq!(
                reduced.query(VertexId(v)),
                index.query(VertexId(v)),
                "reduced query mismatch at {v}"
            );
        }
    }

    #[test]
    fn reduction_halves_static_indexes_and_recovers() {
        for g in [figure2(), gnm(30, 120, 4), directed_cycle(8)] {
            let index = CscIndex::build(&g, CscConfig::default()).unwrap();
            let reduced = ReducedIndex::from_index(&index);
            assert!(reduced.exactly_recoverable(), "static pairing holds");
            check_queries_equal(&index, &reduced);
            // Recovery reproduces the full label set bit for bit.
            let recovered = reduced.recover().unwrap();
            assert_eq!(&recovered, index.labels());

            let report = analyze(&index);
            assert_eq!(report.full_entries, index.total_entries());
            assert!(
                report.savings > 0.3,
                "couple sharing saves a large fraction: {report:?}"
            );
        }
    }

    #[test]
    fn reduced_queries_survive_dynamic_history() {
        // Updates keep the couple pairing: queries match, and recovery
        // reproduces the maintained labels.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
        index.insert_edge(VertexId(4), VertexId(0)).unwrap();
        index.insert_edge(VertexId(2), VertexId(0)).unwrap();
        index.remove_edge(VertexId(2), VertexId(0)).unwrap();
        let reduced = ReducedIndex::from_index(&index);
        check_queries_equal(&index, &reduced);
        assert!(reduced.exactly_recoverable(), "updates keep the pairing");
        assert_eq!(&reduced.recover().unwrap(), index.labels());
    }

    #[test]
    fn savings_reported_sanely() {
        let g = gnm(20, 80, 7);
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        let report = analyze(&index);
        assert!(report.reduced_entries < report.full_entries);
        assert!((0.0..=1.0).contains(&report.savings));
    }
}
