//! CRC32 (IEEE 802.3, the zlib/gzip polynomial) for checkpoint and WAL
//! framing.
//!
//! Slicing-by-8: eight 256-entry tables fold eight input bytes per step,
//! with a byte-at-a-time loop for the tail. Each step's lookups wait on
//! the step before, so one stream runs at the latency of that chain, not
//! at the rate the core can load from the tables. An input of at least
//! [`LANES_MIN`] bytes is therefore cut into three lanes that one loop
//! steps together, three independent chains in flight, and the lane CRCs
//! are joined with zlib's `crc32_combine` ([`combine`]): the CRC of
//! `a ‖ b` is the CRC of `a` shifted past `|b|` zero bytes, a product
//! with `x^(8·|b|)` modulo the polynomial in GF(2), XOR the CRC of `b`.
//! Shorter inputs, such as WAL records and the small checkpoint
//! sections, run one lane, since the join costs more than it saves there.
//!
//! A checkpoint is checksummed whole on every encode and every decode, so
//! the CRC is a real share of both. Over 16.7 MB, the size of the `serve`
//! benchmark's checkpoint, three lanes took 4.6–5.7 ms with the other
//! vCPU idle and 8.4–10.0 ms with it busy, one lane 14.4–16.0 ms either
//! way, and a byte-at-a-time table 62 ms (min of 9, a 2-vCPU 2 GHz Xeon
//! VM, release build). The tables are built in a `const` context so
//! there is no runtime initialization to synchronize.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Inputs this long or longer run as three lanes. Measured as above, the
/// two joins cost about what they save on a 2 KiB input, and at 4 KiB
/// three lanes take a quarter less time than one.
const LANES_MIN: usize = 4096;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so the eight lookups of one
/// step can be XORed together.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `X2N[k]` is `x^(2^k)` modulo the polynomial. The powers repeat with
/// period 32 (`x^(2^32) = x`), so 32 entries shift by any length.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// The product of `a` and `b` modulo the polynomial, both in the CRC's
/// reflected bit order (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `x^(8n)` modulo the polynomial: the operator that shifts a CRC past
/// `n` zero bytes.
fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut k = 3; // 8n = n · 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// zlib's `crc32_combine`: the CRC of `a ‖ b`, given `crc1 = crc32(a)`,
/// `crc2 = crc32(b)` and `len2 = b.len()`.
fn combine(crc1: u32, crc2: u32, len2: usize) -> u32 {
    multmodp(x8nmodp(len2), crc1) ^ crc2
}

/// One slicing-by-8 step: the register `crc` advanced over the eight
/// bytes of `word`, little-endian.
#[inline(always)]
fn step(crc: u32, word: &[u8]) -> u32 {
    let t = &TABLES;
    let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
    let lo = word as u32 ^ crc;
    let hi = (word >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The register `crc` (no initial or final complement) advanced over
/// `bytes`, eight at a time, then the tail byte by byte.
fn one_lane(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = step(crc, c);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// [`crc32`] as three lanes of `8·⌊len/24⌋` bytes stepped together, the
/// third lane then running on over the tail, joined with [`combine`].
/// Correct at every length; [`crc32`] takes it from [`LANES_MIN`] on.
fn three_lanes(bytes: &[u8]) -> u32 {
    let lane = bytes.len() / 24 * 8;
    let (a, rest) = bytes.split_at(lane);
    let (b, c) = rest.split_at(lane);
    let (mut ca, mut cb, mut cc) = (!0u32, !0u32, !0u32);
    for ((x, y), z) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
    {
        ca = step(ca, x);
        cb = step(cb, y);
        cc = step(cc, z);
    }
    let cc = one_lane(cc, &c[lane..]);
    combine(combine(!ca, !cb, lane), !cc, c.len())
}

/// CRC32 of `bytes` (initial value `!0`, final complement — the standard
/// parameterization, so values match `zlib`'s `crc32()`).
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < LANES_MIN {
        !one_lane(!0, bytes)
    } else {
        three_lanes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time: the reference the tables must
    /// reproduce. Returns the register, so a caller can go on feeding it.
    fn bitwise_register(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn bitwise(bytes: &[u8]) -> u32 {
        !bitwise_register(!0, bytes)
    }

    /// A deterministic pseudo-random buffer.
    fn noise(len: usize, mut s: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values (verifiable against zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // zlib's value for a million `a`s, long enough for three lanes.
        assert_eq!(crc32(&vec![b'a'; 1_000_000]), 0xDC25_BFBC);
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_length_and_alignment() {
        // Every length from one lane through the split point to two lane
        // widths past it, so every tail each lane can leave is covered, at
        // each start offset within an 8-byte word. The reference register
        // is carried from one length to the next.
        let top = LANES_MIN + 2 * 24;
        let buf = noise(top + 8, 0xC0FFEE);
        for start in 0..8 {
            let mut reference = !0u32;
            for len in 0..=top {
                if len > 0 {
                    reference = bitwise_register(reference, &buf[start + len - 1..start + len]);
                }
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), !reference, "start {start}, len {len}");
            }
        }
        let big = noise(1 << 20, 0x5EED);
        assert_eq!(crc32(&big), bitwise(&big), "1 MiB buffer");
    }

    #[test]
    fn the_lane_split_matches_the_bitwise_definition_below_the_split_point() {
        // Below `LANES_MIN` the split never runs on its own, yet it is
        // correct there too: lanes of 0 and 8 bytes, every tail length.
        let buf = noise(208, 0xBEEF);
        for start in 0..8 {
            for len in 0..=200 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    three_lanes(slice),
                    bitwise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn combine_joins_the_crcs_of_two_parts() {
        let buf = noise(300, 0xABCD);
        for split in [0, 1, 7, 8, 24, 150, 299, 300] {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len()),
                crc32(&buf),
                "split at {split}"
            );
        }
        // Empty parts: nothing to shift past, or nothing to shift.
        assert_eq!(combine(crc32(&buf), crc32(b""), 0), crc32(&buf));
        assert_eq!(combine(crc32(b""), crc32(&buf), buf.len()), crc32(&buf));
        assert_eq!(combine(0, 0, 0), 0);
        // The squaring table's period, which lets it shift by any length.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }

    proptest! {
        #[test]
        fn combine_and_the_lanes_agree_with_the_definition_on_random_buffers(
            buf in proptest::collection::vec(any::<u8>(), 0..12_000),
            split in 0usize..12_000,
        ) {
            let split = split.min(buf.len());
            let (a, b) = buf.split_at(split);
            prop_assert_eq!(crc32(&buf), bitwise(&buf));
            prop_assert_eq!(combine(crc32(a), crc32(b), b.len()), crc32(&buf));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"length-prefixed, CRC32-checksummed records".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
