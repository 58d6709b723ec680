//! Packed 64-bit label entries.
//!
//! The paper (Section VI-A) encodes each label entry in one 64-bit integer:
//! 23 bits of vertex id, 17 bits of distance, 24 bits of count. We keep the
//! exact layout so index-size comparisons against the paper are apples to
//! apples, with one refinement: the 23-bit field stores the hub's **rank**
//! rather than its raw id. Ranks and ids are bijective (`RankTable`), but
//! rank-keyed entries keep every label list sorted by importance, which is
//! what the two-pointer intersection query and every pruning rule want.
//!
//! Counts saturate at `2^24 - 1` (the paper's encoding has the same ceiling;
//! shortest-path counts can be exponential in pathological graphs). Hub and
//! distance overflows are *errors*, not saturation — a truncated hub or
//! distance would corrupt queries, so construction fails loudly instead.

use std::fmt;

/// Number of bits for the hub rank.
pub const HUB_BITS: u32 = 23;
/// Number of bits for the distance.
pub const DIST_BITS: u32 = 17;
/// Number of bits for the count.
pub const COUNT_BITS: u32 = 24;

/// Largest representable hub rank.
pub const MAX_HUB_RANK: u32 = (1 << HUB_BITS) - 1;
/// Largest representable distance.
pub const MAX_DIST: u32 = (1 << DIST_BITS) - 1;
/// Largest representable count; larger counts saturate here.
pub const MAX_COUNT: u64 = (1 << COUNT_BITS) - 1;

/// Why a label entry could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOverflow {
    /// The hub rank exceeds [`MAX_HUB_RANK`] (graph too large: `2n >= 2^23`).
    HubRank(u32),
    /// The distance exceeds [`MAX_DIST`] (graph diameter too large).
    Distance(u32),
}

impl fmt::Display for EntryOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryOverflow::HubRank(r) => {
                write!(
                    f,
                    "hub rank {r} exceeds the 23-bit entry limit {MAX_HUB_RANK}"
                )
            }
            EntryOverflow::Distance(d) => {
                write!(f, "distance {d} exceeds the 17-bit entry limit {MAX_DIST}")
            }
        }
    }
}

impl std::error::Error for EntryOverflow {}

/// One hub-label entry `(hub rank, distance, count)` packed into a `u64`.
///
/// Layout (most significant first): `[hub: 23][dist: 17][count: 24]`.
/// Placing the hub rank in the top bits makes the natural integer order of
/// the packed word equal to `(hub_rank, dist, count)` lexicographic order,
/// so label lists can be sorted and searched on the raw `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelEntry(u64);

impl LabelEntry {
    /// Packs an entry, failing on hub/distance overflow and saturating the
    /// count (see the module docs for why these are treated differently).
    #[inline]
    pub fn new(hub_rank: u32, dist: u32, count: u64) -> Result<Self, EntryOverflow> {
        if hub_rank > MAX_HUB_RANK {
            return Err(EntryOverflow::HubRank(hub_rank));
        }
        if dist > MAX_DIST {
            return Err(EntryOverflow::Distance(dist));
        }
        let count = count.min(MAX_COUNT);
        Ok(LabelEntry(
            ((hub_rank as u64) << (DIST_BITS + COUNT_BITS)) | ((dist as u64) << COUNT_BITS) | count,
        ))
    }

    /// Packs an entry, panicking on overflow. For call sites that have
    /// already validated capacity (e.g. replaying entries that were stored
    /// before).
    #[inline]
    pub fn new_unchecked(hub_rank: u32, dist: u32, count: u64) -> Self {
        Self::new(hub_rank, dist, count).expect("label entry overflow")
    }

    /// The hub's rank (smaller = more important).
    #[inline]
    pub fn hub_rank(self) -> u32 {
        (self.0 >> (DIST_BITS + COUNT_BITS)) as u32
    }

    /// The shortest distance between the labeled vertex and the hub.
    #[inline]
    pub fn dist(self) -> u32 {
        ((self.0 >> COUNT_BITS) & (MAX_DIST as u64)) as u32
    }

    /// The (possibly saturated) number of shortest paths this entry covers.
    #[inline]
    pub fn count(self) -> u64 {
        self.0 & MAX_COUNT
    }

    /// `true` if the stored count hit the 24-bit ceiling.
    #[inline]
    pub fn count_saturated(self) -> bool {
        self.count() == MAX_COUNT
    }

    /// The raw packed word (for serialization).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an entry from a raw packed word (for deserialization).
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        LabelEntry(raw)
    }

    /// Returns a copy with a different distance and count (same hub).
    #[inline]
    pub fn with_dist_count(self, dist: u32, count: u64) -> Result<Self, EntryOverflow> {
        Self::new(self.hub_rank(), dist, count)
    }
}

impl fmt::Debug for LabelEntry {
    /// Shows the decoded triple, e.g. `(r5, d2, c3)`; a trailing `+` marks
    /// a saturated count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(r{}, d{}, c{}{})",
            self.hub_rank(),
            self.dist(),
            self.count(),
            if self.count_saturated() { "+" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let e = LabelEntry::new(12345, 678, 999_999).unwrap();
        assert_eq!(e.hub_rank(), 12345);
        assert_eq!(e.dist(), 678);
        assert_eq!(e.count(), 999_999);
        assert!(!e.count_saturated());
    }

    #[test]
    fn boundary_values() {
        let e = LabelEntry::new(MAX_HUB_RANK, MAX_DIST, MAX_COUNT).unwrap();
        assert_eq!(e.hub_rank(), MAX_HUB_RANK);
        assert_eq!(e.dist(), MAX_DIST);
        assert_eq!(e.count(), MAX_COUNT);
        let z = LabelEntry::new(0, 0, 0).unwrap();
        assert_eq!((z.hub_rank(), z.dist(), z.count()), (0, 0, 0));
    }

    #[test]
    fn count_saturates_silently() {
        let e = LabelEntry::new(1, 1, u64::MAX).unwrap();
        assert_eq!(e.count(), MAX_COUNT);
        assert!(e.count_saturated());
    }

    #[test]
    fn hub_and_dist_overflow_fail() {
        assert_eq!(
            LabelEntry::new(MAX_HUB_RANK + 1, 0, 0),
            Err(EntryOverflow::HubRank(MAX_HUB_RANK + 1))
        );
        assert_eq!(
            LabelEntry::new(0, MAX_DIST + 1, 0),
            Err(EntryOverflow::Distance(MAX_DIST + 1))
        );
        assert!(EntryOverflow::Distance(9).to_string().contains("17-bit"));
    }

    #[test]
    fn packed_order_is_hub_then_dist_then_count() {
        let a = LabelEntry::new(1, 100, 50).unwrap();
        let b = LabelEntry::new(2, 0, 0).unwrap();
        let c = LabelEntry::new(2, 1, 0).unwrap();
        let d = LabelEntry::new(2, 1, 7).unwrap();
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn raw_roundtrip() {
        let e = LabelEntry::new(7, 8, 9).unwrap();
        assert_eq!(LabelEntry::from_raw(e.raw()), e);
    }

    #[test]
    fn with_dist_count_keeps_hub() {
        let e = LabelEntry::new(42, 1, 1).unwrap();
        let f = e.with_dist_count(5, 10).unwrap();
        assert_eq!(f.hub_rank(), 42);
        assert_eq!((f.dist(), f.count()), (5, 10));
    }

    #[test]
    fn entry_is_exactly_8_bytes() {
        assert_eq!(std::mem::size_of::<LabelEntry>(), 8);
    }

    #[test]
    fn debug_format() {
        let e = LabelEntry::new(5, 2, 3).unwrap();
        assert_eq!(format!("{e:?}"), "(r5, d2, c3)");
        let s = LabelEntry::new(5, 2, u64::MAX).unwrap();
        assert!(format!("{s:?}").ends_with("+)"));
    }
}
