//! Versioned, checksummed binary serialization for [`CscIndex`].
//!
//! Persisting the index avoids the (potentially hours-long at paper scale)
//! rebuild on restart, and — since PR 6 — is the checkpoint format of the
//! durability plane, so the decoder must never trust the bytes: a
//! truncated or bit-flipped file has to come back as a precise
//! [`CscError::Corrupt`], not as garbage labels, a panic, or an attempted
//! multi-gigabyte allocation.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic      "CSCIDX\x05\n"                     8 bytes
//! total_len  whole-file length, magic included  u64
//! sections, in fixed order, each framed as:
//!   tag      section id                         u8
//!   len      payload length                     u64
//!   crc      CRC32 of the payload               u32
//!   payload
//! ```
//!
//! | tag | section  | payload |
//! |-----|----------|---------|
//! | 1   | header   | n `u32`, m `u64` |
//! | 2   | edges    | (`u32`, `u32`) × m |
//! | 3   | ranks    | `vertex_at[rank]` `u32` × 2n |
//! | 4   | config   | ordering, update strategy, retired inverted-index flag, snapshot interval, rebuild policy, durability knobs, parallelism width, retired guard slots, I/O retry |
//! | 5   | baseline | entries ×3 `u64`, vertices `u32`, rejuvenations `u32` |
//! | 6   | labels   | per original vertex `v`, `L_out(v_o)` then `L_in(v_i)`: len `u32`, entries `u64` × len |
//!
//! The labels section holds the two lists a cycle query reads, in the
//! snapshot arena's couple order: exactly what the index's label store
//! holds. The other two lists of each couple are their copies one hop
//! along the couple edge (the paper's index reduction, Section IV-E; see
//! `csc-core::reduction`):
//!
//! * `L_in(v_o)  = shift₊₁(L_in(v_i)) ++ (v_o, 0, 1)`
//! * `L_out(v_i) = shift₊₁(L_out(v_o) minus hubs v_i and v_o) ++ (v_i, 0, 1)`
//!
//! so a checkpoint is about half the four-list index, and decoding stores
//! no copy either: it checks that the stored lists derive valid ones.
//!
//! Encoding writes every section in place into one output buffer sized up
//! front: the frame's length and CRC go in over placeholder bytes once
//! the payload is written, so the checkpoint's bytes are written once and
//! checksummed once. A caller that checkpoints repeatedly passes the same
//! buffer every time (`encode_into`), so a checkpoint writes into pages
//! already resident instead of faulting in fresh ones.
//!
//! Decoding is defensive in three layers: `total_len` catches truncation
//! and trailing bytes before any section is touched, every claimed
//! section length — and the header's vertex and edge counts — is checked
//! against the remaining buffer *before* allocating, and every payload
//! must match its CRC before it is parsed. A corrupted file therefore
//! reports *which* section is damaged. Past its CRC, each section is
//! parsed in one pass: the edges become the bipartite graph in one bulk
//! build ([`BipartiteGraph::from_edges`]), which refuses a self-loop, a
//! duplicate or an out-of-range endpoint; and each label list is read,
//! checked and installed entry by entry ([`Labels::try_extend_sorted`]):
//! every hub rank in range and above the one before it, and every entry
//! one the list's couple copy can derive (a stored list whose copy would
//! be unsorted, or whose shifted distance would pass `MAX_DIST`, is
//! corrupt). The cycle closures are counted as each `L_out(v_o)` lands.
//!
//! The rank table is persisted verbatim — after a rejuvenation it is the
//! *recomputed* order, not a derivable one — and the health baseline
//! rides along so a reloaded index keeps measuring drift from its last
//! rebuild, not from the load. The inverted indexes are not persisted: a
//! loaded index, like a built one, builds them at its first deletion or
//! `CLEAN_LABEL`.
//!
//! Format `\x04` differs only in its labels section, which holds all four
//! lists of every bipartite vertex (per vertex, in-list then out-list);
//! it still loads, so an existing durability directory recovers: its
//! copies are checked as lists and dropped, and its query lists load as
//! `\x05`'s do. (Format `\x03` predates the section framing and
//! checksums, `\x02` the rebuild policy and health baseline, `\x01` the
//! snapshot refresh interval; there are no persisted older indexes to
//! migrate, so all are rejected with a version message.)

use crate::build::CoupleBfs;
use crate::config::{CscConfig, DurabilityConfig, FsyncPolicy, ParallelismConfig, UpdateStrategy};
use crate::crc::crc32;
use crate::error::CscError;
use crate::guard::RetryPolicy;
use crate::health::{HealthBaseline, RebuildPolicy};
use crate::index::CscIndex;
use crate::reduction::{query_lists, CopyRule};
use crate::stats::IndexStats;
use bytes::{Buf, BufMut, Bytes};
use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
use csc_graph::{OrderingStrategy, RankTable, VertexId};
use csc_labeling::{LabelEntry, LabelSide, Labels};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"CSCIDX\x05\n";

/// The previous format: its labels section holds all four lists.
const MAGIC_FOUR_LISTS: &[u8; 8] = b"CSCIDX\x04\n";

const TAG_HEADER: u8 = 1;
const TAG_EDGES: u8 = 2;
const TAG_RANKS: u8 = 3;
const TAG_CONFIG: u8 = 4;
const TAG_BASELINE: u8 = 5;
const TAG_LABELS: u8 = 6;

/// The config payload's retired memory budget (`u64`), overload policy
/// (`u8`) and queue watermarks (two `u32`s), which lead the I/O retry
/// group.
const RETIRED_GUARD_BYTES: usize = 17;

/// Encodes the ordering strategy as `(tag, seed, samples)`; the seed slot
/// is shared by `Random` and `CoverageSampling`, and `samples` rides in
/// the trailing config field new writers always emit.
fn order_tag(o: OrderingStrategy) -> (u8, u64, u32) {
    match o {
        OrderingStrategy::Degree => (0, 0, 0),
        OrderingStrategy::DegreeProduct => (1, 0, 0),
        OrderingStrategy::Identity => (2, 0, 0),
        OrderingStrategy::Random(seed) => (3, seed, 0),
        OrderingStrategy::CoverageSampling {
            seed,
            samples_per_log_n,
        } => (4, seed, samples_per_log_n),
    }
}

fn order_from_tag(tag: u8, seed: u64, samples: u32) -> Result<OrderingStrategy, CscError> {
    Ok(match tag {
        0 => OrderingStrategy::Degree,
        1 => OrderingStrategy::DegreeProduct,
        2 => OrderingStrategy::Identity,
        3 => OrderingStrategy::Random(seed),
        4 => OrderingStrategy::CoverageSampling {
            seed,
            samples_per_log_n: samples,
        },
        _ => return Err(CscError::Serial(format!("unknown ordering tag {tag}"))),
    })
}

fn fsync_tag(f: FsyncPolicy) -> (u8, u32) {
    match f {
        FsyncPolicy::Always => (0, 0),
        FsyncPolicy::Every(n) => (1, n),
        FsyncPolicy::Never => (2, 0),
    }
}

fn fsync_from_tag(tag: u8, arg: u32) -> Result<FsyncPolicy, CscError> {
    Ok(match tag {
        0 => FsyncPolicy::Always,
        1 => FsyncPolicy::Every(arg),
        2 => FsyncPolicy::Never,
        _ => return Err(CscError::Serial(format!("unknown fsync policy tag {tag}"))),
    })
}

/// Writes one framed section straight into `buf`: the tag and 12 zeroed
/// bytes, then the payload in place, then the payload's length and CRC
/// over the zeroes.
fn put_section(buf: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.put_u8(tag);
    buf.put_slice(&[0; 12]);
    payload(buf);
    let len = (buf.len() - at - 13) as u64;
    let crc = crc32(&buf[at + 13..]);
    buf[at + 1..at + 9].copy_from_slice(&len.to_le_bytes());
    buf[at + 9..at + 13].copy_from_slice(&crc.to_le_bytes());
}

/// Pops the next section off `rest`, insisting on `tag`, verifying the
/// length against the remaining bytes *before* touching the payload, and
/// the CRC before handing it out.
fn take_section<'a>(rest: &mut &'a [u8], tag: u8, name: &str) -> Result<&'a [u8], CscError> {
    if rest.len() < 13 {
        return Err(CscError::corrupt(
            name,
            format!("section header truncated ({} of 13 bytes)", rest.len()),
        ));
    }
    if rest[0] != tag {
        return Err(CscError::corrupt(
            name,
            format!("unexpected section tag {} (wanted {tag})", rest[0]),
        ));
    }
    let len = u64::from_le_bytes(rest[1..9].try_into().unwrap());
    let crc = u32::from_le_bytes(rest[9..13].try_into().unwrap());
    let body = &rest[13..];
    if (body.len() as u64) < len {
        return Err(CscError::corrupt(
            name,
            format!("payload truncated ({} of {len} bytes)", body.len()),
        ));
    }
    let payload = &body[..len as usize];
    if crc32(payload) != crc {
        return Err(CscError::corrupt(name, "payload crc mismatch"));
    }
    *rest = &body[len as usize..];
    Ok(payload)
}

/// `need`-style guard *inside* a CRC-verified payload: tripping means the
/// payload was internally inconsistent despite a matching checksum (a
/// writer bug or a deliberately crafted file) — still an error, never a
/// panic.
fn need(buf: &[u8], n: usize, name: &str, what: &str) -> Result<(), CscError> {
    if buf.remaining() < n {
        Err(CscError::corrupt(
            name,
            format!("payload ends inside {what}"),
        ))
    } else {
        Ok(())
    }
}

/// Why a label list in a CRC-verified labels section is corrupt; turned
/// into the error by [`ListFault::at`], off the per-entry path.
enum ListFault {
    OutOfRange(u32),
    Unsorted,
    Underivable,
}

impl ListFault {
    /// The error for bipartite vertex `v`'s `side` list.
    fn at(self, v: VertexId, side: LabelSide) -> CscError {
        let detail = match self {
            ListFault::OutOfRange(hub) => format!("vertex {v}: hub rank {hub} out of range"),
            ListFault::Unsorted => format!("label list of vertex {v} is not sorted"),
            ListFault::Underivable => {
                let copy = match side {
                    LabelSide::In => "L_in(v_o)",
                    LabelSide::Out => "L_out(v_i)",
                };
                format!(
                    "original vertex {}: {copy} derives no sorted, in-range label list",
                    v.0 >> 1
                )
            }
        };
        CscError::corrupt("labels", detail)
    }
}

/// Pops one label list off `p` — a `u32` length, then that many raw
/// entries — and yields its entries, each checked as it is read: its hub
/// rank is below `two_n` and strictly above the one before it, and, for
/// a stored list, `rule` admits it, so the list derives its couple copy.
fn take_list<'a>(
    p: &mut &'a [u8],
    two_n: usize,
    rule: Option<CopyRule>,
) -> Result<impl ExactSizeIterator<Item = Result<LabelEntry, ListFault>> + 'a, CscError> {
    need(p, 4, "labels", "list length")?;
    let len = p.get_u32_le() as usize;
    need(p, len.saturating_mul(8), "labels", "list entries")?;
    let (list, tail) = p.split_at(len * 8);
    *p = tail;
    let mut prev: Option<u32> = None;
    Ok(list.chunks_exact(8).map(move |raw| {
        let e = LabelEntry::from_raw(u64::from_le_bytes(raw.try_into().expect("8-byte chunk")));
        let hub = e.hub_rank();
        if hub as usize >= two_n {
            return Err(ListFault::OutOfRange(hub));
        }
        if prev.is_some_and(|r| r >= hub) {
            return Err(ListFault::Unsorted);
        }
        prev = Some(hub);
        if rule.is_some_and(|rule| !rule.admits(e)) {
            return Err(ListFault::Underivable);
        }
        Ok(e)
    }))
}

/// Pops `v`'s stored `side` list off `p` and installs it in `labels`, in
/// one pass that checks each entry as [`take_list`] does under `rule`.
fn install_list(
    labels: &mut Labels,
    p: &mut &[u8],
    two_n: usize,
    v: VertexId,
    side: LabelSide,
    rule: CopyRule,
) -> Result<(), CscError> {
    if !rule.self_fits() {
        return Err(ListFault::Underivable.at(v, side));
    }
    let entries = take_list(p, two_n, Some(rule))?;
    labels
        .try_extend_sorted(v, side, entries)
        .map_err(|fault| fault.at(v, side))
}

/// Pops a `\x04` checkpoint's copy of `v`'s `side` list off `p`: checked
/// as a list, then dropped.
fn skip_list(p: &mut &[u8], two_n: usize, v: VertexId, side: LabelSide) -> Result<(), CscError> {
    for entry in take_list(p, two_n, None)? {
        entry.map_err(|fault| fault.at(v, side))?;
    }
    Ok(())
}

impl CscIndex {
    /// Serializes the index to a byte buffer (the checkpoint format).
    ///
    /// # Errors
    ///
    /// Fails on a poisoned index — persisting a known-inconsistent index
    /// would just defer the corruption to a future process.
    pub fn to_bytes(&self) -> Result<Bytes, CscError> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// The length of the encoding: magic and length, six section frames,
    /// and the payloads — header 12, edges 8m, ranks 8n, config 88,
    /// baseline 32, and labels 4 per list (2n query lists, exactly what
    /// the store holds) plus 8 per entry.
    fn encoded_len(&self) -> usize {
        let (two_n, m) = (2 * self.original_vertex_count(), self.original_edge_count());
        16 + 6 * 13 + 12 + m * 8 + two_n * 4 + 88 + 32 + two_n * 4 + self.labels.total_entries() * 8
    }

    /// [`to_bytes`](Self::to_bytes) into `buf`, replacing its contents. A
    /// buffer too small grows to an eighth more than this encoding, so a
    /// caller that keeps `buf` between checkpoints of a growing index
    /// writes each one into the same allocation.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), CscError> {
        self.check_ready()?;
        let n = self.original_vertex_count();
        let m = self.original_edge_count();
        let two_n = 2 * n;
        // The fallible narrowings come first, so every section below
        // writes straight into the one output buffer.
        let snapshot_every = u32::try_from(self.config.snapshot_every)
            .map_err(|_| CscError::Serial("snapshot_every exceeds u32".into()))?;
        let retry = self.config.durability.io_retry;
        let retry_base = u64::try_from(retry.base.as_micros())
            .map_err(|_| CscError::Serial("io_retry.base exceeds u64 microseconds".into()))?;
        let retry_cap = u64::try_from(retry.cap.as_micros())
            .map_err(|_| CscError::Serial("io_retry.cap exceeds u64 microseconds".into()))?;
        let baseline_vertices = u32::try_from(self.baseline.vertices)
            .map_err(|_| CscError::Serial("baseline vertex count exceeds u32".into()))?;

        let size = self.encoded_len();
        buf.clear();
        if buf.capacity() < size {
            // A fresh allocation: growing the old one would copy its stale
            // bytes and double its capacity.
            *buf = Vec::with_capacity(size + size / 8);
        }
        buf.put_slice(MAGIC);
        buf.put_u64_le(0); // the total length, filled in last

        put_section(buf, TAG_HEADER, |b| {
            b.put_u32_le(n as u32);
            b.put_u64_le(m as u64);
        });
        put_section(buf, TAG_EDGES, |b| {
            for (u, v) in self.original_edges() {
                b.put_u32_le(u.0);
                b.put_u32_le(v.0);
            }
        });
        put_section(buf, TAG_RANKS, |b| {
            for rank in 0..two_n as u32 {
                b.put_u32_le(self.ranks.vertex_at_rank(rank).0);
            }
        });
        put_section(buf, TAG_CONFIG, |b| {
            let c = &self.config;
            let (tag, seed, samples) = order_tag(c.order);
            b.put_u8(tag);
            b.put_u64_le(seed);
            b.put_u8(match c.update_strategy {
                UpdateStrategy::Redundancy => 0,
                UpdateStrategy::Minimality => 1,
            });
            // The retired inverted-index flag: written as 1, ignored on
            // load.
            b.put_u8(1);
            b.put_u32_le(snapshot_every);
            b.put_u32_le(c.rebuild.max_growth_percent);
            // The retired dead-space threshold: written as 0, ignored on
            // load.
            b.put_u32_le(0);
            b.put_u32_le(c.rebuild.max_churned_vertices);
            b.put_u8(c.rebuild.auto as u8);
            let (ftag, farg) = fsync_tag(c.durability.fsync);
            b.put_u8(ftag);
            b.put_u32_le(farg);
            b.put_u32_le(c.durability.checkpoint_every);
            b.put_u32_le(c.durability.keep_checkpoints);
            b.put_u8(c.durability.check_integrity as u8);
            // The recorded worker width steers no work and never changes
            // the labels; it rides along so a reloaded index reports the
            // width it was configured with. The byte after the width held
            // a retired commit-mode flag; it is written as 1 and ignored
            // on load.
            b.put_u32_le(c.parallelism.threads);
            b.put_u8(1);
            // Trailing ordering argument (the coverage-sampling budget);
            // appended after the parallelism knobs so both older payload
            // lengths (39 and 47 bytes) still load with defaults.
            b.put_u32_le(samples);
            // One 37-byte group after the ordering argument; payloads of
            // 39/47/51 bytes predate it and load with defaults. Its first
            // 17 bytes held the retired memory budget, overload policy and
            // queue watermarks: written as 0, ignored on load. The I/O
            // retry schedule follows.
            b.put_slice(&[0; RETIRED_GUARD_BYTES]);
            b.put_u32_le(retry.max_attempts);
            b.put_u64_le(retry_base);
            b.put_u64_le(retry_cap);
        });
        put_section(buf, TAG_BASELINE, |b| {
            b.put_u64_le(self.baseline.entries as u64);
            b.put_u64_le(self.baseline.in_entries as u64);
            b.put_u64_le(self.baseline.out_entries as u64);
            b.put_u32_le(baseline_vertices);
            b.put_u32_le(self.baseline.rejuvenations);
        });
        put_section(buf, TAG_LABELS, |b| {
            for (v, side) in query_lists(n) {
                let list = self.labels.side_of(v, side);
                b.put_u32_le(list.len() as u32);
                // A list at a time: grow once, then fill in place.
                let at = b.len();
                b.resize(at + list.len() * 8, 0);
                for (out, e) in b[at..].chunks_exact_mut(8).zip(list) {
                    out.copy_from_slice(&e.raw().to_le_bytes());
                }
            }
        });
        debug_assert_eq!(buf.len(), size, "the buffer was sized exactly");
        let total = buf.len() as u64;
        buf[8..16].copy_from_slice(&total.to_le_bytes());
        Ok(())
    }

    /// Deserializes an index from bytes produced by
    /// [`to_bytes`](Self::to_bytes), or by the previous format, `\x04`,
    /// whose labels section holds all four lists.
    ///
    /// # Errors
    ///
    /// * [`CscError::Corrupt`] — truncation, framing damage, or a CRC
    ///   mismatch, naming the damaged section. This is the checkpoint
    ///   loader's signal to fall back to an older generation.
    /// * [`CscError::Serial`] — not a CSC index at all, an unsupported
    ///   format version, or an unknown enum value.
    /// * [`CscError::Config`] — the stored configuration fails
    ///   [`CscConfig::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CscIndex, CscError> {
        if bytes.len() < 8 {
            return Err(CscError::corrupt(
                "framing",
                format!("file truncated before magic ({} bytes)", bytes.len()),
            ));
        }
        let four_lists = &bytes[..8] == MAGIC_FOUR_LISTS;
        if &bytes[..8] != MAGIC && !four_lists {
            if bytes[..6] == MAGIC[..6] {
                return Err(CscError::Serial(format!(
                    "unsupported CSC index format version {} (this build reads {} and {})",
                    bytes[6], MAGIC_FOUR_LISTS[6], MAGIC[6]
                )));
            }
            return Err(CscError::Serial("bad magic (not a CSC index)".into()));
        }
        if bytes.len() < 16 {
            return Err(CscError::corrupt(
                "framing",
                "file truncated in length field",
            ));
        }
        let total = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if (bytes.len() as u64) < total {
            return Err(CscError::corrupt(
                "framing",
                format!("file truncated ({} of {total} bytes)", bytes.len()),
            ));
        }
        if (bytes.len() as u64) > total {
            return Err(CscError::corrupt(
                "framing",
                format!("{} trailing bytes after index", bytes.len() as u64 - total),
            ));
        }
        let mut rest = &bytes[16..];

        let mut p = take_section(&mut rest, TAG_HEADER, "header")?;
        need(p, 12, "header", "counts")?;
        let n = p.get_u32_le() as usize;
        let m = p.get_u64_le();
        let two_n = 2 * n;
        // Nothing is sized by `n` before the file vouches for it: the
        // ranks section alone takes 13 + 8n of the bytes that follow.
        if (rest.len() as u64) < 13 + 8 * n as u64 {
            return Err(CscError::corrupt(
                "header",
                format!(
                    "claims {n} vertices, too many for the {} bytes that follow",
                    rest.len()
                ),
            ));
        }

        let p = take_section(&mut rest, TAG_EDGES, "edges")?;
        if m.checked_mul(8) != Some(p.len() as u64) {
            return Err(CscError::corrupt(
                "edges",
                format!("payload is {} bytes, header claims {m} edges", p.len()),
            ));
        }
        let edges = p.chunks_exact(8).map(|e| {
            let endpoint =
                |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("4-byte endpoint"));
            (endpoint(0), endpoint(4))
        });
        let gb = BipartiteGraph::from_edges(n, edges)
            .map_err(|e| CscError::corrupt("edges", format!("bad edge: {e}")))?;

        let mut p = take_section(&mut rest, TAG_RANKS, "ranks")?;
        if p.len() != two_n * 4 {
            return Err(CscError::corrupt(
                "ranks",
                format!("payload is {} bytes, expected {} ranks", p.len(), two_n),
            ));
        }
        let mut order = Vec::with_capacity(two_n);
        let mut seen = vec![false; two_n];
        for _ in 0..two_n {
            let v = p.get_u32_le() as usize;
            // A permutation check: out-of-range or duplicated entries
            // would panic deep inside the rank table / query path later.
            if v >= two_n || seen[v] {
                return Err(CscError::corrupt(
                    "ranks",
                    format!("rank table is not a permutation (vertex {v})"),
                ));
            }
            seen[v] = true;
            order.push(VertexId(v as u32));
        }
        let ranks = RankTable::from_order(&order);

        let mut p = take_section(&mut rest, TAG_CONFIG, "config")?;
        need(p, 42, "config", "knobs")?;
        let tag = p.get_u8();
        let seed = p.get_u64_le();
        let strategy = match p.get_u8() {
            0 => UpdateStrategy::Redundancy,
            1 => UpdateStrategy::Minimality,
            other => return Err(CscError::Serial(format!("unknown update strategy {other}"))),
        };
        p.advance(1); // the retired inverted-index flag
        let snapshot_every = p.get_u32_le() as usize;
        let max_growth_percent = p.get_u32_le();
        p.advance(4); // the retired dead-space threshold
        let rebuild = RebuildPolicy {
            max_growth_percent,
            max_churned_vertices: p.get_u32_le(),
            auto: p.get_u8() != 0,
        };
        let ftag = p.get_u8();
        let farg = p.get_u32_le();
        let mut durability = DurabilityConfig {
            fsync: fsync_from_tag(ftag, farg)?,
            checkpoint_every: p.get_u32_le(),
            keep_checkpoints: p.get_u32_le(),
            check_integrity: p.get_u8() != 0,
            io_retry: RetryPolicy::DEFAULT_IO,
        };
        // The parallelism knobs were appended to the config payload after
        // its first release; a 42-byte payload predates them and means
        // "defaults" (non-semantic runtime field either way).
        let parallelism = if p.remaining() >= 5 {
            let threads = p.get_u32_le();
            p.advance(1); // the retired commit-mode flag
            ParallelismConfig { threads }
        } else {
            ParallelismConfig::default()
        };
        // The ordering argument trails the parallelism knobs (added with
        // ordering tag 4); shorter payloads predate every strategy that
        // needs it, so 0 is safe.
        let samples = if p.remaining() >= 4 {
            p.get_u32_le()
        } else {
            0
        };
        // The I/O retry schedule trails the ordering argument, behind the
        // retired guard slots, as one 37-byte group; shorter payloads
        // predate it and mean "defaults".
        if p.remaining() >= RETIRED_GUARD_BYTES + 20 {
            p.advance(RETIRED_GUARD_BYTES);
            durability.io_retry = RetryPolicy {
                max_attempts: p.get_u32_le(),
                base: Duration::from_micros(p.get_u64_le()),
                cap: Duration::from_micros(p.get_u64_le()),
            };
        }
        let config = CscConfig {
            order: order_from_tag(tag, seed, samples)?,
            update_strategy: strategy,
            snapshot_every,
            rebuild,
            durability,
            parallelism,
        };
        config.validate()?;

        let mut p = take_section(&mut rest, TAG_BASELINE, "baseline")?;
        need(p, 32, "baseline", "counters")?;
        let baseline = HealthBaseline {
            entries: p.get_u64_le() as usize,
            in_entries: p.get_u64_le() as usize,
            out_entries: p.get_u64_le() as usize,
            vertices: p.get_u32_le() as usize,
            rejuvenations: p.get_u32_le(),
        };

        let mut p = take_section(&mut rest, TAG_LABELS, "labels")?;
        let mut labels = Labels::reduced(two_n);
        // Every list lands in one allocation: at most a slot per 8 bytes.
        labels.reserve(p.len() / 8);
        let mut closures = 0;
        for v in 0..n as u32 {
            let (vi, vo) = (in_vertex(VertexId(v)), out_vertex(VertexId(v)));
            let (ri, ro) = (ranks.rank(vi), ranks.rank(vo));
            // The couple view derives the copies from the two stored
            // lists, so each must obey its copy's rule.
            let (in_rule, out_rule) = (CopyRule::in_of_vo(ro), CopyRule::out_of_vi(ri, ro));
            if four_lists {
                // Per bipartite vertex, in-list then out-list: the copies
                // `L_out(v_i)` and `L_in(v_o)` are checked and dropped.
                install_list(&mut labels, &mut p, two_n, vi, LabelSide::In, in_rule)?;
                skip_list(&mut p, two_n, vi, LabelSide::Out)?;
                skip_list(&mut p, two_n, vo, LabelSide::In)?;
                install_list(&mut labels, &mut p, two_n, vo, LabelSide::Out, out_rule)?;
            } else {
                install_list(&mut labels, &mut p, two_n, vo, LabelSide::Out, out_rule)?;
                install_list(&mut labels, &mut p, two_n, vi, LabelSide::In, in_rule)?;
            }
            // A closure, hub `v_i` in `L_out(v_o)`, while the list is hot.
            closures += usize::from(labels.entry_for(vo, LabelSide::Out, ri).is_some());
        }
        if !p.is_empty() {
            return Err(CscError::corrupt(
                "labels",
                format!("{} bytes left over after the last list", p.len()),
            ));
        }
        // Each list was installed once, at the end of the open segment:
        // sealed, it is the one segment the first snapshot shares.
        labels.seal();
        if !rest.is_empty() {
            return Err(CscError::corrupt(
                "framing",
                format!("{} bytes of unexpected extra sections", rest.len()),
            ));
        }

        Ok(CscIndex {
            gb,
            closures,
            ranks,
            labels,
            inverted: None,
            config,
            stats: IndexStats::default(),
            baseline,
            poisoned: None,
            workspace: CoupleBfs::new(two_n),
            sweeps: csc_graph::TraversalWorkspace::new(two_n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::GraphUpdate;
    use crate::snapshot::SnapshotIndex;
    use crate::verify::verify_index;
    use csc_graph::fixtures::figure2;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::DiGraph;

    #[test]
    fn the_encoding_is_independent_of_the_arena_layout() {
        let g = gnm(60, 180, 13);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        // Several windows, each sealed without the publish policy, so the
        // arena stacks one segment per window and never compacts.
        let mut windows = 0;
        for (a, b) in (0..60u32).map(|a| (a, (a * 17 + 5) % 60)) {
            let (a, b) = (VertexId(a), VertexId(b));
            if a != b && !idx.contains_edge(a, b) && windows < 8 {
                idx.insert_edge(a, b).unwrap();
                idx.labels.seal();
                windows += 1;
            }
        }
        let spread = idx.labels.segment_count();
        assert!(spread > 5, "{spread} segments");
        assert!(idx.labels.arena_entries() > idx.labels.total_entries());
        let bytes = idx.to_bytes().unwrap();

        let mut compacted = idx.clone();
        compacted.labels.compact();
        assert_eq!(compacted.labels.segment_count(), 1);
        assert_eq!(compacted.to_bytes().unwrap(), bytes, "the same bytes");

        // Decoding fills one packed segment, which its snapshot shares.
        let mut back = CscIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.labels.segment_count(), 1);
        assert_eq!(back.labels.arena_entries(), back.labels.total_entries());
        let snap = SnapshotIndex::publish(&mut back);
        assert_eq!(snap.labels().segment_count(), 1);
        assert_eq!(snap.labels().dead_entries(), 0);
        let original = SnapshotIndex::publish(&mut idx);
        for v in g.vertices() {
            assert_eq!(snap.query(v), original.query(v), "SCCnt({v})");
            assert_eq!(snap.query(v), idx.query(v), "SCCnt({v})");
        }
    }

    #[test]
    fn roundtrip_static_index() {
        let g = figure2();
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let back = CscIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.labels(), idx.labels());
        assert_eq!(back.ranks(), idx.ranks());
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.original_graph(), g);
        verify_index(&back).unwrap();
    }

    #[test]
    fn roundtrip_after_updates_preserves_behaviour() {
        let g = gnm(20, 60, 5);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let victims: Vec<_> = idx.original_edges().take(4).collect();
        for (u, v) in &victims {
            idx.remove_edge(*u, *v).unwrap();
        }
        for (u, v) in &victims {
            idx.insert_edge(*u, *v).unwrap();
        }
        let bytes = idx.to_bytes().unwrap();
        let back = CscIndex::from_bytes(&bytes).unwrap();
        for v in 0..20u32 {
            assert_eq!(back.query(VertexId(v)), idx.query(VertexId(v)));
        }
        // The restored index remains maintainable.
        let mut back = back;
        let (u, v) = victims[0];
        back.remove_edge(u, v).unwrap();
        verify_index(&back).unwrap();
    }

    #[test]
    fn roundtrip_churned_then_rejuvenated_index() {
        use crate::health::{RebuildPolicy, RebuildReason};
        use crate::maintain::MaintenanceEngine;

        let g = gnm(20, 60, 9);
        let config = CscConfig::default().with_rebuild_policy(
            RebuildPolicy::default()
                .with_growth_percent(180)
                .with_churned_vertices(50)
                .with_auto(true),
        );
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, config).unwrap());
        for k in 0..3u32 {
            let nv = engine.add_vertex().unwrap();
            engine.insert_edge(VertexId(k), nv).unwrap().unwrap();
            engine.insert_edge(nv, VertexId(k + 4)).unwrap().unwrap();
        }
        engine.rejuvenate(RebuildReason::Manual).unwrap();
        // Post-rejuvenation churn, so the persisted baseline differs from
        // the current state — a real mid-life index.
        let nv = engine.add_vertex().unwrap();
        engine.insert_edge(VertexId(0), nv).unwrap().unwrap();
        let idx = engine.into_index();

        let bytes = idx.to_bytes().unwrap();
        let back = CscIndex::from_bytes(&bytes).unwrap();
        // The recomputed (post-rejuvenation) ranks and the re-anchored
        // baseline both survive the round trip.
        assert_eq!(back.ranks(), idx.ranks());
        assert_eq!(back.baseline(), idx.baseline());
        assert_eq!(back.baseline().rejuvenations, 1);
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.health(), idx.health());
        assert_eq!(back.labels(), idx.labels());
        for v in 0..back.original_vertex_count() as u32 {
            assert_eq!(back.query(VertexId(v)), idx.query(VertexId(v)));
        }
        verify_index(&back).unwrap();
    }

    #[test]
    fn durability_config_survives_the_roundtrip() {
        let config = CscConfig::default()
            .with_fsync(FsyncPolicy::Every(8))
            .with_checkpoint_every(17)
            .with_integrity_check(true);
        let idx = CscIndex::build(&figure2(), config).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.config().durability, config.durability);
    }

    #[test]
    fn parallelism_config_survives_the_roundtrip() {
        let config = CscConfig::default().with_threads(3);
        let idx = CscIndex::build(&figure2(), config).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.config().parallelism, config.parallelism);
        assert_eq!(back.config(), idx.config());
    }

    #[test]
    fn coverage_sampling_order_survives_the_roundtrip() {
        let config = CscConfig::default().with_order(OrderingStrategy::CoverageSampling {
            seed: 0xDEAD_BEEF,
            samples_per_log_n: 7,
        });
        let idx = CscIndex::build(&figure2(), config).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.config().order, config.order);
        assert_eq!(back.ranks(), idx.ranks());
        assert_eq!(back.labels(), idx.labels());
    }

    #[test]
    fn legacy_42_47_and_51_byte_config_payloads_load_with_defaults() {
        // Pre-parallelism checkpoints carried a 42-byte config payload;
        // loading one must succeed with default parallelism knobs rather
        // than erroring on the missing trailing bytes.
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap().to_vec();
        let mut off = 16;
        for _ in 0..3 {
            let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap());
            off += 13 + len as usize;
        }
        assert_eq!(bytes[off], TAG_CONFIG);
        let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap()) as usize;
        assert_eq!(
            len, 88,
            "config payload = 42 legacy + 5 parallelism + 4 ordering-arg + 37 resource-guard bytes"
        );
        // Shrink the section to each historical length and re-frame; every
        // legacy prefix must load with defaults for the missing groups.
        for keep in [42usize, 47, 51] {
            let mut bytes = bytes.clone();
            let payload_at = off + 13;
            bytes.drain(payload_at + keep..payload_at + len);
            bytes[off + 1..off + 9].copy_from_slice(&(keep as u64).to_le_bytes());
            let crc = crc32(&bytes[payload_at..payload_at + keep]);
            bytes[off + 9..off + 13].copy_from_slice(&crc.to_le_bytes());
            let total = bytes.len() as u64;
            bytes[8..16].copy_from_slice(&total.to_le_bytes());
            let back = CscIndex::from_bytes(&bytes).unwrap();
            assert_eq!(back.config().parallelism, ParallelismConfig::default());
            assert_eq!(back.config().durability.io_retry, RetryPolicy::DEFAULT_IO);
        }
    }

    #[test]
    fn config_payloads_cut_inside_the_fixed_knobs_are_corrupt() {
        // The fixed knobs take 42 bytes. A payload cut inside them, with
        // its CRC and the total length rewritten to match, must be
        // refused as corrupt, never read past its end.
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap().to_vec();
        let mut off = 16;
        for _ in 0..3 {
            let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap());
            off += 13 + len as usize;
        }
        assert_eq!(bytes[off], TAG_CONFIG);
        let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap()) as usize;
        let payload_at = off + 13;
        for keep in 38..42usize {
            let mut bytes = bytes.clone();
            bytes.drain(payload_at + keep..payload_at + len);
            bytes[off + 1..off + 9].copy_from_slice(&(keep as u64).to_le_bytes());
            let crc = crc32(&bytes[payload_at..payload_at + keep]);
            bytes[off + 9..off + 13].copy_from_slice(&crc.to_le_bytes());
            let total = bytes.len() as u64;
            bytes[8..16].copy_from_slice(&total.to_le_bytes());
            match CscIndex::from_bytes(&bytes) {
                Err(CscError::Corrupt { section, .. }) => {
                    assert_eq!(section, "config", "{keep}-byte payload")
                }
                other => panic!("{keep}-byte payload: {other:?}"),
            }
        }
    }

    #[test]
    fn resource_guard_knobs_round_trip() {
        let config = CscConfig::default().with_io_retry(RetryPolicy::new(
            6,
            Duration::from_micros(750),
            Duration::from_millis(20),
        ));
        let idx = CscIndex::build(&figure2(), config).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.config().durability.io_retry.max_attempts, 6);
    }

    #[test]
    fn checkpoints_holding_the_retired_guard_knobs_still_load() {
        // Writers before the guards' removal stored a memory budget, an
        // overload policy with its watermarks, and a dead-space threshold
        // in the config payload. A checkpoint holding non-default values
        // there loads as if they were zero, and re-encodes with zeros.
        let retry = RetryPolicy::new(5, Duration::from_micros(300), Duration::from_millis(9));
        let g = gnm(40, 160, 3);
        let idx = CscIndex::build(&g, CscConfig::default().with_io_retry(retry)).unwrap();
        let bytes = idx.to_bytes().unwrap().to_vec();
        let mut off = 16;
        for _ in 0..3 {
            let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap());
            off += 13 + len as usize;
        }
        assert_eq!(bytes[off], TAG_CONFIG);
        let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap()) as usize;
        let payload = off + 13;
        // Payload offsets: the dead-space threshold at 19, then the memory
        // budget, the policy byte and the two watermarks at 51..68.
        let mut old = bytes.clone();
        old[payload + 19..payload + 23].copy_from_slice(&40u32.to_le_bytes());
        old[payload + 51..payload + 59].copy_from_slice(&(64u64 << 20).to_le_bytes());
        old[payload + 59] = 1; // Reject
        old[payload + 60..payload + 64].copy_from_slice(&512u32.to_le_bytes());
        old[payload + 64..payload + 68].copy_from_slice(&128u32.to_le_bytes());
        let crc = crc32(&old[payload..payload + len]);
        old[off + 9..off + 13].copy_from_slice(&crc.to_le_bytes());
        assert_ne!(old, bytes);

        let back = CscIndex::from_bytes(&old).unwrap();
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.config().durability.io_retry, retry);
        for v in g.vertices() {
            assert_eq!(back.query(v), idx.query(v), "SCCnt({v})");
        }
        assert_eq!(back.to_bytes().unwrap().to_vec(), bytes, "zeros again");
    }

    #[test]
    fn rejects_old_format_versions() {
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let mut bytes = idx.to_bytes().unwrap().to_vec();
        bytes[6] = 3; // the PR-2..5 era format
        let err = CscIndex::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
        bytes[6] = 1;
        assert!(CscIndex::from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("version 1"));
    }

    #[test]
    fn load_validates_the_configuration() {
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let mut bytes = idx.to_bytes().unwrap().to_vec();
        // Walk the framing to the config section, patch
        // rebuild.max_growth_percent (offset 15 in its payload) to a
        // degenerate 50%, and re-checksum so only validation can object.
        let mut off = 16;
        for _ in 0..3 {
            let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap());
            off += 13 + len as usize;
        }
        assert_eq!(bytes[off], TAG_CONFIG);
        let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap()) as usize;
        let field = off + 13 + 15;
        bytes[field..field + 4].copy_from_slice(&50u32.to_le_bytes());
        let crc = crc32(&bytes[off + 13..off + 13 + len]);
        bytes[off + 9..off + 13].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            CscIndex::from_bytes(&bytes),
            Err(CscError::Config(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            CscIndex::from_bytes(b"not an index"),
            Err(CscError::Serial(_))
        ));
        assert!(matches!(
            CscIndex::from_bytes(b""),
            Err(CscError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_at_every_prefix_length_errs_and_never_panics() {
        let g = figure2();
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        for cut in 0..bytes.len() {
            let prefix = bytes[..cut].to_vec();
            let result = std::panic::catch_unwind(move || CscIndex::from_bytes(&prefix));
            match result {
                Ok(Err(CscError::Corrupt { section, .. })) => {
                    assert!(!section.is_empty(), "cut at {cut}")
                }
                // A cut inside the magic can also read as a wrong format.
                Ok(Err(CscError::Serial(_))) if cut < 16 => {}
                Ok(other) => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
                Err(_) => panic!("cut at {cut}: the loader panicked"),
            }
        }
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(matches!(
            CscIndex::from_bytes(&extended),
            Err(CscError::Corrupt { section, .. }) if section == "framing"
        ));
    }

    #[test]
    fn bit_flips_anywhere_err_and_never_panic_or_load() {
        let g = figure2();
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let mut s = 0xD1CEu64;
        for trial in 0..300 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let byte = (s >> 33) as usize % bytes.len();
            let bit = (s >> 29) as u8 & 7;
            let mut flipped = bytes.to_vec();
            flipped[byte] ^= 1 << bit;
            let result = std::panic::catch_unwind(move || CscIndex::from_bytes(&flipped));
            match result {
                // Every single-bit flip is caught: by the magic check, a
                // framing length, or a section CRC. None may load.
                Ok(Err(CscError::Corrupt { .. }) | Err(CscError::Serial(_))) => {}
                Ok(other) => {
                    panic!("trial {trial}: flip of bit {bit} at byte {byte} gave {other:?}")
                }
                Err(_) => panic!("trial {trial}: flip at byte {byte} panicked the loader"),
            }
        }
    }

    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        // The on-disk format, pinned by length and whole-file CRC: every
        // checkpoint already on disk depends on these bytes, so the
        // encoder may change how it writes them, never what it writes.
        // (The `\x04` pin lives on in the legacy fixture's test.)
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (986, 0x28f2_a982));

        let mut idx = CscIndex::build(&gnm(300, 1200, 7), CscConfig::default()).unwrap();
        let mut window: Vec<GraphUpdate> = idx
            .original_edges()
            .take(20)
            .map(|(u, v)| GraphUpdate::RemoveEdge(u, v))
            .collect();
        window.extend([
            GraphUpdate::AddVertex,
            GraphUpdate::InsertEdge(VertexId(0), VertexId(300)),
            GraphUpdate::InsertEdge(VertexId(300), VertexId(1)),
        ]);
        idx.apply_batch(&window).unwrap();
        let bytes = idx.to_bytes().unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (217_130, 0x0520_9072));
    }

    /// The parent format's encoding of the figure-2 index, written before
    /// the labels section dropped the couple copies.
    const FIGURE2_FOUR_LISTS: &[u8] = include_bytes!("../testdata/figure2-v4.cscidx");

    #[test]
    fn a_four_list_checkpoint_still_loads_and_reencodes_in_the_current_format() {
        // The `\x04` pin: these are the bytes that format wrote.
        assert_eq!(
            (FIGURE2_FOUR_LISTS.len(), crc32(FIGURE2_FOUR_LISTS)),
            (1_626, 0x2eab_6e51)
        );
        assert_eq!(&FIGURE2_FOUR_LISTS[..8], MAGIC_FOUR_LISTS);
        let fresh = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let back = CscIndex::from_bytes(FIGURE2_FOUR_LISTS).unwrap();
        assert_eq!(back.labels(), fresh.labels());
        assert_eq!(back.ranks(), fresh.ranks());
        assert_eq!(back.config(), fresh.config());
        let bytes = back.to_bytes().unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(bytes, fresh.to_bytes().unwrap());
    }

    #[test]
    fn roundtrip_derives_the_couple_copies_of_static_indexes() {
        for g in [figure2(), gnm(30, 120, 4), directed_cycle(8)] {
            let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            // Decoding reproduces the stored lists bit for bit, and the
            // four-list counts with them.
            let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
            assert_eq!(back.labels(), idx.labels());
            assert_eq!(back.health(), idx.health());
            for v in g.vertices() {
                assert_eq!(back.query(v), idx.query(v), "SCCnt({v})");
            }
        }
    }

    #[test]
    fn roundtrip_derives_the_couple_copies_after_dynamic_history() {
        // Updates write only the stored lists and keep the closure count:
        // decoding reproduces the maintained labels and counts, and
        // queries match.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.insert_edge(VertexId(4), VertexId(0)).unwrap();
        idx.insert_edge(VertexId(2), VertexId(0)).unwrap();
        idx.remove_edge(VertexId(2), VertexId(0)).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.labels(), idx.labels());
        assert_eq!(back.health(), idx.health());
        for v in 0..5 {
            assert_eq!(back.query(VertexId(v)), idx.query(VertexId(v)));
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_to_bytes() {
        let idx = CscIndex::build(&gnm(40, 160, 2), CscConfig::default()).unwrap();
        let mut buf = vec![0xAB; 3];
        idx.encode_into(&mut buf).unwrap();
        assert_eq!(buf, idx.to_bytes().unwrap().to_vec());
        let (at, capacity) = (buf.as_ptr(), buf.capacity());
        idx.encode_into(&mut buf).unwrap();
        assert_eq!(buf, idx.to_bytes().unwrap().to_vec());
        assert_eq!(
            (buf.as_ptr(), buf.capacity()),
            (at, capacity),
            "no regrowth"
        );
    }

    /// `bytes` with its labels section's payload replaced by the query
    /// lists `lists` holds (keyed by their position in couple order),
    /// re-framed and re-checksummed so only the label checks can object.
    fn with_query_lists(bytes: &[u8], lists: &[Vec<LabelEntry>]) -> Vec<u8> {
        let mut off = 16;
        for _ in 0..5 {
            let len = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().unwrap());
            off += 13 + len as usize;
        }
        assert_eq!(bytes[off], TAG_LABELS);
        let mut out = bytes[..off].to_vec();
        put_section(&mut out, TAG_LABELS, |b| {
            for list in lists {
                b.put_u32_le(list.len() as u32);
                for e in list {
                    b.put_u64_le(e.raw());
                }
            }
        });
        let total = out.len() as u64;
        out[8..16].copy_from_slice(&total.to_le_bytes());
        out
    }

    #[test]
    fn query_lists_that_derive_no_label_list_are_corrupt() {
        use csc_labeling::MAX_DIST;

        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let lists: Vec<Vec<LabelEntry>> = query_lists(idx.original_vertex_count())
            .map(|(v, side)| idx.labels().side_of(v, side).to_vec())
            .collect();
        assert_eq!(with_query_lists(&bytes, &lists), bytes.to_vec());
        // Positions in couple order of the query lists of the original
        // vertex whose `v_i` holds `rank`: `L_out(v_o)`, then `L_in(v_i)`.
        let at_rank = |rank| {
            let v = idx.ranks().vertex_at_rank(rank).0 as usize / 2;
            (2 * v, 2 * v + 1)
        };
        let lowest = 2 * idx.original_vertex_count() as u32 - 1;
        let entry = |hub, dist| LabelEntry::new(hub, dist, 1).unwrap();
        let mut crafted = Vec::new();
        // `L_in(v_i)` gains a hub `v_o` outranks: sorted and in range as
        // stored, but `v_o`'s self entry would sort before its shift.
        let (out_vo, in_vi) = at_rank(0);
        let mut outranked = lists.clone();
        outranked[in_vi].push(entry(lowest, 3));
        crafted.push(outranked);
        // The same on `L_out(v_o)`, whose kept hubs must outrank `v_i`.
        let mut outranked = lists.clone();
        outranked[out_vo].push(entry(lowest, 3));
        crafted.push(outranked);
        // An entry at `MAX_DIST`: its one-hop shift leaves the field.
        let mut too_far = lists.clone();
        too_far[in_vi][0] = entry(too_far[in_vi][0].hub_rank(), MAX_DIST);
        crafted.push(too_far);
        // The same on `L_out(v_o)`, at hub rank 0, which the `v_i` at
        // rank 2 does not outrank.
        let (out_vo, _) = at_rank(2);
        let mut too_far = lists.clone();
        too_far[out_vo].retain(|e| e.hub_rank() != 0);
        too_far[out_vo].insert(0, entry(0, MAX_DIST));
        crafted.push(too_far);
        for (case, lists) in crafted.into_iter().enumerate() {
            let file = with_query_lists(&bytes, &lists);
            match std::panic::catch_unwind(move || CscIndex::from_bytes(&file)) {
                Ok(Err(CscError::Corrupt { section, detail })) => {
                    assert_eq!(section, "labels", "case {case}: {detail}");
                    assert!(detail.contains("derives no"), "case {case}: {detail}");
                }
                Ok(other) => panic!("case {case}: expected Corrupt, got {other:?}"),
                Err(_) => panic!("case {case}: the loader panicked"),
            }
        }
    }

    #[test]
    fn crafted_header_counts_err_before_anything_is_sized_by_them() {
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap().to_vec();
        // The header section sits right after magic and length; its
        // payload is n (u32) then m (u64). A crafted file recomputes the
        // CRC, so only the counts' plausibility can object.
        let (header, edges) = (16, 16 + 13 + 12);
        let recrc = |bytes: &mut Vec<u8>, at: usize, len: usize| {
            let crc = crc32(&bytes[at + 13..at + 13 + len]);
            bytes[at + 9..at + 13].copy_from_slice(&crc.to_le_bytes());
        };
        let load = |bytes: Vec<u8>| std::panic::catch_unwind(move || CscIndex::from_bytes(&bytes));

        // n = u32::MAX: the graph alone would take ~100 GB.
        let mut huge_n = bytes.clone();
        huge_n[header + 13..header + 17].copy_from_slice(&u32::MAX.to_le_bytes());
        recrc(&mut huge_n, header, 12);
        match load(huge_n) {
            Ok(Err(CscError::Corrupt { section, .. })) => assert_eq!(section, "header"),
            other => panic!("n = u32::MAX: expected Corrupt, got {other:?}"),
        }

        // m = 2^61 over an empty edges payload: `m * 8` wraps to 0.
        let mut huge_m = bytes.clone();
        huge_m[header + 17..header + 25].copy_from_slice(&(1u64 << 61).to_le_bytes());
        recrc(&mut huge_m, header, 12);
        let len = u64::from_le_bytes(huge_m[edges + 1..edges + 9].try_into().unwrap()) as usize;
        huge_m.drain(edges + 13..edges + 13 + len);
        huge_m[edges + 1..edges + 9].copy_from_slice(&0u64.to_le_bytes());
        recrc(&mut huge_m, edges, 0);
        let total = huge_m.len() as u64;
        huge_m[8..16].copy_from_slice(&total.to_le_bytes());
        match load(huge_m) {
            Ok(Err(CscError::Corrupt { section, .. })) => assert_eq!(section, "edges"),
            other => panic!("m = 2^61: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crafted_edges_that_form_no_simple_graph_are_corrupt() {
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap().to_vec();
        let n = idx.original_vertex_count() as u32;
        // The edges section follows the header's 12-byte payload. Each
        // case rewrites one edge in place and recomputes the CRC, so only
        // the bipartite build's checks can object.
        let edges = 16 + 13 + 12;
        let len = u64::from_le_bytes(bytes[edges + 1..edges + 9].try_into().unwrap()) as usize;
        let edge = |bytes: &[u8], k: usize| {
            let at = edges + 13 + 8 * k;
            let endpoint = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            (endpoint(at), endpoint(at + 4))
        };
        let craft = |k: usize, (u, v): (u32, u32)| {
            let mut bytes = bytes.clone();
            let at = edges + 13 + 8 * k;
            bytes[at..at + 4].copy_from_slice(&u.to_le_bytes());
            bytes[at + 4..at + 8].copy_from_slice(&v.to_le_bytes());
            let crc = crc32(&bytes[edges + 13..edges + 13 + len]);
            bytes[edges + 9..edges + 13].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        let (u, _) = edge(&bytes, 1);
        let cases = [
            ("a self-loop", craft(1, (u, u))),
            ("a duplicate", craft(1, edge(&bytes, 0))),
            ("an out-of-range endpoint", craft(0, (edge(&bytes, 0).0, n))),
        ];
        for (case, file) in cases {
            match std::panic::catch_unwind(move || CscIndex::from_bytes(&file)) {
                Ok(Err(CscError::Corrupt { section, detail })) => {
                    assert_eq!(section, "edges", "{case}: {detail}");
                    assert!(detail.contains("bad edge"), "{case}: {detail}");
                }
                Ok(other) => panic!("{case}: expected Corrupt, got {other:?}"),
                Err(_) => panic!("{case}: the loader panicked"),
            }
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = DiGraph::new(0);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let back = CscIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.original_vertex_count(), 0);
    }
}
