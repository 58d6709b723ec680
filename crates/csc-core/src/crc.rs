//! CRC32 (IEEE 802.3, the zlib/gzip polynomial) for checkpoint and WAL
//! framing.
//!
//! Slicing-by-8: eight 256-entry tables fold eight input bytes per step,
//! with a byte-at-a-time loop for the tail. A checkpoint is checksummed
//! whole on every encode and every decode, so the CRC is a real share of
//! both: one pass over 32.9 MB, the size of the `serve` benchmark's
//! checkpoint, took 90–93 ms byte at a time and 23 ms sliced (one core of
//! a 2-vCPU Xeon VM, release build). The tables are built in a `const`
//! context so there is no runtime initialization to synchronize.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

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

/// CRC32 of `bytes` (initial value `!0`, final complement — the standard
/// parameterization, so values match `zlib`'s `crc32()`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the reference the tables must
    /// reproduce.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
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
        !crc
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
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_length_and_alignment() {
        // Every length through eight full steps plus each tail length, at
        // each start offset within an 8-byte word.
        let buf = noise(72, 0xC0FFEE);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), bitwise(slice), "start {start}, len {len}");
            }
        }
        let big = noise(1 << 20, 0x5EED);
        assert_eq!(crc32(&big), bitwise(&big), "1 MiB buffer");
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
