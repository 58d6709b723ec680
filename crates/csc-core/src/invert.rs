//! Inverted hub indexes (`inv_in` / `inv_out`, Section V-A).
//!
//! `inv_in[r]` lists the vertices whose in-label contains the hub ranked
//! `r`; `inv_out[r]` the same for out-labels. They let edge deletion and
//! `CLEAN_LABEL` find all entries of an affected hub in output-sensitive
//! time instead of scanning every label list. The paper constructs them
//! during initial index creation; here nothing else reads them, so an
//! index builds them from its labels the first time a deletion or
//! `CLEAN_LABEL` needs carriers (`CscIndex::ensure_inverted`), and every
//! write maintains them from then on.
//!
//! Lists are kept sorted so membership updates are `O(log k)` and the
//! structure can be diffed deterministically in tests.

use csc_graph::VertexId;
use csc_labeling::{LabelSide, Labels};

/// Both inverted indexes, keyed by hub rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    inv_in: Vec<Vec<u32>>,
    inv_out: Vec<Vec<u32>>,
}

impl InvertedIndex {
    /// Creates empty inverted indexes for `n` ranks.
    pub fn new(n: usize) -> Self {
        InvertedIndex {
            inv_in: vec![Vec::new(); n],
            inv_out: vec![Vec::new(); n],
        }
    }

    /// Builds the inverted indexes from existing labels.
    pub fn from_labels(labels: &Labels) -> Self {
        let n = labels.vertex_count();
        let mut inv = InvertedIndex::new(n);
        for v in 0..n as u32 {
            let v = VertexId(v);
            for e in labels.in_of(v) {
                inv.inv_in[e.hub_rank() as usize].push(v.0);
            }
            for e in labels.out_of(v) {
                inv.inv_out[e.hub_rank() as usize].push(v.0);
            }
        }
        // Vertex ids were visited in ascending order, so lists are sorted.
        inv
    }

    /// Grows to cover one more rank.
    pub fn push_rank(&mut self) {
        self.inv_in.push(Vec::new());
        self.inv_out.push(Vec::new());
    }

    fn side(&self, side: LabelSide) -> &Vec<Vec<u32>> {
        match side {
            LabelSide::In => &self.inv_in,
            LabelSide::Out => &self.inv_out,
        }
    }

    fn side_mut(&mut self, side: LabelSide) -> &mut Vec<Vec<u32>> {
        match side {
            LabelSide::In => &mut self.inv_in,
            LabelSide::Out => &mut self.inv_out,
        }
    }

    /// The vertices whose `side` label contains hub rank `r` (sorted).
    pub fn carriers(&self, side: LabelSide, r: u32) -> &[u32] {
        &self.side(side)[r as usize]
    }

    /// Records that `v`'s `side` label now contains hub rank `r`.
    /// Idempotent.
    pub fn add(&mut self, side: LabelSide, r: u32, v: VertexId) {
        let list = &mut self.side_mut(side)[r as usize];
        if let Err(pos) = list.binary_search(&v.0) {
            list.insert(pos, v.0);
        }
    }

    /// Records that `v`'s `side` label no longer contains hub rank `r`.
    pub fn remove(&mut self, side: LabelSide, r: u32, v: VertexId) {
        let list = &mut self.side_mut(side)[r as usize];
        if let Ok(pos) = list.binary_search(&v.0) {
            list.remove(pos);
        }
    }

    /// Keeps the vertices of hub rank `r`'s `side` carrier list for which
    /// `keep` holds, in one pass over the list.
    pub fn retain(&mut self, side: LabelSide, r: u32, mut keep: impl FnMut(u32) -> bool) {
        self.side_mut(side)[r as usize].retain(|&v| keep(v));
    }

    /// Verifies that the inverted indexes exactly mirror `labels`, whose
    /// lists hold each hub once: strictly ascending carrier lists, one
    /// carrier per label entry, and every entry's vertex among them.
    pub fn validate_against(&self, labels: &Labels) -> Result<(), String> {
        let n = labels.vertex_count();
        for side in [LabelSide::In, LabelSide::Out] {
            let lists = self.side(side);
            let carriers: usize = lists.iter().map(Vec::len).sum();
            let sorted = lists.iter().all(|l| l.windows(2).all(|w| w[0] < w[1]));
            let covered = (0..n as u32).all(|v| {
                let hubs = labels.side_of(VertexId(v), side).iter();
                hubs.map(|e| lists.get(e.hub_rank() as usize))
                    .all(|l| l.is_some_and(|l| l.binary_search(&v).is_ok()))
            });
            if lists.len() != n || !sorted || !covered || carriers != labels.side_entries(side) {
                return Err(format!("inv_{side:?} diverges from the labels"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_labeling::LabelEntry;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    #[test]
    fn from_labels_mirrors() {
        let mut labels = Labels::new(3);
        labels.append(VertexId(0), LabelSide::In, e(0, 0, 1));
        labels.append(VertexId(1), LabelSide::In, e(0, 1, 1));
        labels.append(VertexId(1), LabelSide::Out, e(0, 2, 1));
        labels.append(VertexId(2), LabelSide::In, e(0, 2, 2));
        let inv = InvertedIndex::from_labels(&labels);
        assert_eq!(inv.carriers(LabelSide::In, 0), &[0, 1, 2]);
        assert_eq!(inv.carriers(LabelSide::Out, 0), &[1]);
        inv.validate_against(&labels).unwrap();
    }

    #[test]
    fn add_remove_keep_sorted() {
        let mut inv = InvertedIndex::new(2);
        inv.add(LabelSide::In, 1, VertexId(5));
        inv.add(LabelSide::In, 1, VertexId(2));
        inv.add(LabelSide::In, 1, VertexId(5)); // idempotent
        assert_eq!(inv.carriers(LabelSide::In, 1), &[2, 5]);
        inv.remove(LabelSide::In, 1, VertexId(2));
        assert_eq!(inv.carriers(LabelSide::In, 1), &[5]);
        inv.remove(LabelSide::In, 1, VertexId(99)); // absent: no-op
        assert_eq!(inv.carriers(LabelSide::In, 1), &[5]);
    }

    #[test]
    fn validate_catches_divergence() {
        let mut labels = Labels::new(2);
        labels.append(VertexId(0), LabelSide::In, e(0, 0, 1));
        let mut inv = InvertedIndex::new(2);
        assert!(inv.validate_against(&labels).is_err(), "missing carrier");
        inv.add(LabelSide::In, 0, VertexId(0));
        inv.validate_against(&labels).unwrap();
        inv.add(LabelSide::Out, 1, VertexId(1));
        assert!(inv.validate_against(&labels).is_err(), "extra carrier");
        inv.remove(LabelSide::Out, 1, VertexId(1));
        inv.push_rank();
        assert!(inv.validate_against(&labels).is_err(), "extra rank");
    }

    #[test]
    fn push_rank_grows() {
        let mut inv = InvertedIndex::new(1);
        inv.push_rank();
        assert_eq!((inv.inv_in.len(), inv.inv_out.len()), (2, 2));
        inv.add(LabelSide::Out, 1, VertexId(0));
        assert_eq!(inv.carriers(LabelSide::Out, 1), &[0]);
    }
}
