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
//! magic      "CSCIDX\x04\n"                     8 bytes
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
//! | 4   | config   | ordering, update strategy, inverted flag, snapshot interval, rebuild policy, durability knobs, parallelism width, resource guards |
//! | 5   | baseline | entries ×3 `u64`, vertices `u32`, rejuvenations `u32` |
//! | 6   | labels   | per bipartite vertex and side: len `u32`, entries `u64` × len |
//!
//! Encoding writes every section in place into one output buffer sized up
//! front: the frame's length and CRC go in over placeholder bytes once
//! the payload is written, so the checkpoint's bytes are written once and
//! checksummed once.
//!
//! Decoding is defensive in three layers: `total_len` catches truncation
//! and trailing bytes before any section is touched, every claimed
//! section length — and the header's vertex and edge counts — is checked
//! against the remaining buffer *before* allocating, and every payload
//! must match its CRC before it is parsed. A corrupted file therefore
//! reports *which* section is damaged. Label lists are checked whole and
//! then installed with one [`Labels::extend_sorted`] each.
//!
//! The rank table is persisted verbatim — after a rejuvenation it is the
//! *recomputed* order, not a derivable one — and the health baseline
//! rides along so a reloaded index keeps measuring drift from its last
//! rebuild, not from the load. The inverted indexes are reconstructed on
//! load (derived data, compresses poorly).
//!
//! (Format `\x03` predates the section framing and checksums, `\x02` the
//! rebuild policy and health baseline, `\x01` the snapshot refresh
//! interval; there are no persisted older indexes to migrate, so all are
//! rejected with a version message.)

use crate::build::CoupleBfs;
use crate::config::{
    CscConfig, DurabilityConfig, FsyncPolicy, OverloadConfig, OverloadPolicy, ParallelismConfig,
    UpdateStrategy,
};
use crate::crc::crc32;
use crate::error::CscError;
use crate::guard::RetryPolicy;
use crate::health::{HealthBaseline, RebuildPolicy};
use crate::index::CscIndex;
use crate::invert::InvertedIndex;
use crate::stats::IndexStats;
use bytes::{Buf, BufMut, Bytes};
use csc_graph::bipartite::BipartiteGraph;
use csc_graph::{DiGraph, OrderingStrategy, RankTable, VertexId};
use csc_labeling::{LabelEntry, LabelSide, Labels};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"CSCIDX\x04\n";

const TAG_HEADER: u8 = 1;
const TAG_EDGES: u8 = 2;
const TAG_RANKS: u8 = 3;
const TAG_CONFIG: u8 = 4;
const TAG_BASELINE: u8 = 5;
const TAG_LABELS: u8 = 6;

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

impl CscIndex {
    /// Serializes the index to a byte buffer (the checkpoint format).
    ///
    /// # Errors
    ///
    /// Fails on a poisoned index — persisting a known-inconsistent index
    /// would just defer the corruption to a future process.
    pub fn to_bytes(&self) -> Result<Bytes, CscError> {
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

        // Magic and length, six section frames, and the payloads: header
        // 12, edges 8m, ranks 8n, config 88, baseline 32, and labels 4 per
        // list (4n lists) plus 8 per entry.
        let size = 16 + 6 * 13 + 12 + m * 8 + two_n * 4 + 88 + 32 + two_n * 8;
        let size = size + self.total_entries() * 8;
        let mut buf = Vec::with_capacity(size);
        buf.put_slice(MAGIC);
        buf.put_u64_le(0); // the total length, filled in last

        put_section(&mut buf, TAG_HEADER, |b| {
            b.put_u32_le(n as u32);
            b.put_u64_le(m as u64);
        });
        put_section(&mut buf, TAG_EDGES, |b| {
            for (u, v) in self.original_edges() {
                b.put_u32_le(u.0);
                b.put_u32_le(v.0);
            }
        });
        put_section(&mut buf, TAG_RANKS, |b| {
            for rank in 0..two_n as u32 {
                b.put_u32_le(self.ranks.vertex_at_rank(rank).0);
            }
        });
        put_section(&mut buf, TAG_CONFIG, |b| {
            let c = &self.config;
            let (tag, seed, samples) = order_tag(c.order);
            b.put_u8(tag);
            b.put_u64_le(seed);
            b.put_u8(match c.update_strategy {
                UpdateStrategy::Redundancy => 0,
                UpdateStrategy::Minimality => 1,
            });
            b.put_u8(c.maintain_inverted as u8);
            b.put_u32_le(snapshot_every);
            b.put_u32_le(c.rebuild.max_growth_percent);
            b.put_u32_le(c.rebuild.max_dead_percent);
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
            // Resource-guard knobs (memory budget, backpressure, I/O
            // retry), appended as one 37-byte group after the ordering
            // argument; payloads of 39/47/51 bytes predate them and load
            // with defaults.
            b.put_u64_le(c.memory_budget as u64);
            b.put_u8(match c.overload.policy {
                OverloadPolicy::Block => 0,
                OverloadPolicy::Reject => 1,
                OverloadPolicy::ShedOldest => 2,
            });
            b.put_u32_le(c.overload.high_watermark);
            b.put_u32_le(c.overload.low_watermark);
            b.put_u32_le(retry.max_attempts);
            b.put_u64_le(retry_base);
            b.put_u64_le(retry_cap);
        });
        put_section(&mut buf, TAG_BASELINE, |b| {
            b.put_u64_le(self.baseline.entries as u64);
            b.put_u64_le(self.baseline.in_entries as u64);
            b.put_u64_le(self.baseline.out_entries as u64);
            b.put_u32_le(baseline_vertices);
            b.put_u32_le(self.baseline.rejuvenations);
        });
        put_section(&mut buf, TAG_LABELS, |b| {
            for v in 0..two_n as u32 {
                for side in [LabelSide::In, LabelSide::Out] {
                    let list = self.labels.side_of(VertexId(v), side);
                    b.put_u32_le(list.len() as u32);
                    // A list at a time: grow once, then fill in place.
                    let at = b.len();
                    b.resize(at + list.len() * 8, 0);
                    for (out, e) in b[at..].chunks_exact_mut(8).zip(list) {
                        out.copy_from_slice(&e.raw().to_le_bytes());
                    }
                }
            }
        });
        debug_assert_eq!(buf.len(), size, "the buffer was sized exactly");
        let total = buf.len() as u64;
        buf[8..16].copy_from_slice(&total.to_le_bytes());
        Ok(Bytes::from(buf))
    }

    /// Deserializes an index from bytes produced by
    /// [`to_bytes`](Self::to_bytes).
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
        if &bytes[..8] != MAGIC {
            if bytes[..6] == MAGIC[..6] {
                return Err(CscError::Serial(format!(
                    "unsupported CSC index format version {} (this build reads {})",
                    bytes[6], MAGIC[6]
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

        let mut p = take_section(&mut rest, TAG_EDGES, "edges")?;
        if m.checked_mul(8) != Some(p.len() as u64) {
            return Err(CscError::corrupt(
                "edges",
                format!("payload is {} bytes, header claims {m} edges", p.len()),
            ));
        }
        let mut g = DiGraph::new(n);
        for _ in 0..m {
            let u = p.get_u32_le();
            let v = p.get_u32_le();
            g.try_add_edge(VertexId(u), VertexId(v))
                .map_err(|e| CscError::corrupt("edges", format!("bad edge: {e}")))?;
        }

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

        let mut p = take_section(&mut rest, TAG_CONFIG, "config")?;
        need(p, 39, "config", "knobs")?;
        let tag = p.get_u8();
        let seed = p.get_u64_le();
        let strategy = match p.get_u8() {
            0 => UpdateStrategy::Redundancy,
            1 => UpdateStrategy::Minimality,
            other => return Err(CscError::Serial(format!("unknown update strategy {other}"))),
        };
        let maintain_inverted = p.get_u8() != 0;
        let snapshot_every = p.get_u32_le() as usize;
        let rebuild = RebuildPolicy {
            max_growth_percent: p.get_u32_le(),
            max_dead_percent: p.get_u32_le(),
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
        // its first release; a 39-byte payload predates them and means
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
        // The resource-guard knobs (memory budget, backpressure, I/O
        // retry) trail the ordering argument as one 37-byte group;
        // shorter payloads predate them and mean "defaults".
        let (memory_budget, overload, io_retry) = if p.remaining() >= 37 {
            let memory_budget = usize::try_from(p.get_u64_le())
                .map_err(|_| CscError::Serial("memory_budget exceeds usize".into()))?;
            let policy = match p.get_u8() {
                0 => OverloadPolicy::Block,
                1 => OverloadPolicy::Reject,
                2 => OverloadPolicy::ShedOldest,
                other => return Err(CscError::Serial(format!("unknown overload policy {other}"))),
            };
            let overload = OverloadConfig {
                policy,
                high_watermark: p.get_u32_le(),
                low_watermark: p.get_u32_le(),
            };
            let io_retry = RetryPolicy {
                max_attempts: p.get_u32_le(),
                base: Duration::from_micros(p.get_u64_le()),
                cap: Duration::from_micros(p.get_u64_le()),
            };
            (memory_budget, overload, io_retry)
        } else {
            (0, OverloadConfig::default(), RetryPolicy::DEFAULT_IO)
        };
        durability.io_retry = io_retry;
        let config = CscConfig {
            order: order_from_tag(tag, seed, samples)?,
            update_strategy: strategy,
            maintain_inverted,
            snapshot_every,
            rebuild,
            durability,
            parallelism,
            overload,
            memory_budget,
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
        let mut labels = Labels::new(two_n);
        let entry = |raw: &[u8]| {
            LabelEntry::from_raw(u64::from_le_bytes(raw.try_into().expect("8-byte chunk")))
        };
        for v in 0..two_n as u32 {
            let v = VertexId(v);
            for side in [LabelSide::In, LabelSide::Out] {
                need(p, 4, "labels", "list length")?;
                let len = p.get_u32_le() as usize;
                need(p, len.saturating_mul(8), "labels", "list entries")?;
                let (list, tail) = p.split_at(len * 8);
                p = tail;
                // Validate the raw list whole, then install it in one go.
                let mut prev: Option<u32> = None;
                for raw in list.chunks_exact(8) {
                    let hub = entry(raw).hub_rank();
                    if hub as usize >= two_n {
                        return Err(CscError::corrupt(
                            "labels",
                            format!("vertex {v}: hub rank {hub} out of range"),
                        ));
                    }
                    if prev.is_some_and(|r| r >= hub) {
                        return Err(CscError::corrupt(
                            "labels",
                            format!("label list of vertex {v} is not sorted"),
                        ));
                    }
                    prev = Some(hub);
                }
                labels.extend_sorted(v, side, list.chunks_exact(8).map(entry));
            }
        }
        if !p.is_empty() {
            return Err(CscError::corrupt(
                "labels",
                format!("{} bytes left over after the last list", p.len()),
            ));
        }
        if !rest.is_empty() {
            return Err(CscError::corrupt(
                "framing",
                format!("{} bytes of unexpected extra sections", rest.len()),
            ));
        }

        let ranks = if order.is_empty() {
            RankTable::from_order(&[])
        } else {
            RankTable::from_order(&order)
        };
        let gb = BipartiteGraph::from_graph(&g);
        let inverted = maintain_inverted.then(|| InvertedIndex::from_labels(&labels));
        Ok(CscIndex {
            gb,
            ranks,
            labels,
            inverted,
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
    use crate::verify::verify_index;
    use csc_graph::fixtures::figure2;
    use csc_graph::generators::gnm;

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
    fn legacy_39_byte_config_payload_defaults_parallelism() {
        // Pre-parallelism checkpoints carried a 39-byte config payload;
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
            assert_eq!(back.config().overload, OverloadConfig::default());
            assert_eq!(back.config().memory_budget, 0);
            assert_eq!(back.config().durability.io_retry, RetryPolicy::DEFAULT_IO);
        }
    }

    #[test]
    fn resource_guard_knobs_round_trip() {
        let config = CscConfig::default()
            .with_memory_budget(64 << 20)
            .with_overload_policy(OverloadPolicy::Reject, 512, 128)
            .with_io_retry(RetryPolicy::new(
                6,
                Duration::from_micros(750),
                Duration::from_millis(20),
            ));
        let idx = CscIndex::build(&figure2(), config).unwrap();
        let back = CscIndex::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(back.config(), idx.config());
        assert_eq!(back.config().memory_budget, 64 << 20);
        assert_eq!(back.config().overload.policy, OverloadPolicy::Reject);
        assert_eq!(back.config().durability.io_retry.max_attempts, 6);
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
        let idx = CscIndex::build(&figure2(), CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (1_626, 0x2eab_6e51));

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
        assert_eq!((bytes.len(), crc32(&bytes)), (424_162, 0x0223_b27f));
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
    fn empty_graph_roundtrip() {
        let g = DiGraph::new(0);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let back = CscIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.original_vertex_count(), 0);
    }
}
