//! Small shared hashing and checksum helpers for trace producers and
//! consumers: record-id hashing on the write side, and the MDF CRC-32 that
//! every parse runs over the whole buffer (the consumer hot path).

/// FNV-1a 64-bit hash, used to derive stable record ids from file paths —
/// the same role Darshan's record-id hashing plays.
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Stable record id for a file path.
#[inline]
pub fn record_id(path: &str) -> u64 {
    fnv1a64(path.as_bytes())
}

/// CRC-32 (IEEE 802.3 polynomial `0xedb88320`, reflected), three
/// interleaved slice-by-16 lanes.
///
/// Used by the MDF footer to detect truncation/bit-rot — the property the
/// MOSAIC pre-processing validity check ① leans on for "corrupted entries".
/// Every MDF byte is checksummed before `TraceView::parse` decodes a field,
/// so this loop is the bulk of the parse layer.
///
/// One slice-by-16 step folds 16 input bytes through 16 const-built
/// 256-entry tables (16 KB, `CRC_TABLES`); table `k` advances a byte's CRC
/// past `k` further zero bytes, so a step is 16 independent lookups XORed
/// together. Each step still waits for the previous one's result, so
/// [`Crc32::update`] cuts every whole block of `3 × LANE` bytes into three
/// adjacent lanes of `LANE` (256) bytes and steps three registers in one
/// loop: the first starts from the running CRC, the other two from zero,
/// and their lookups overlap. CRC is linear, so the lanes fold back with
/// `c = shift(shift(a) ^ b) ^ d`, where `shift` advances a register past
/// `LANE` zero bytes — a multiplication by x^(8·LANE) mod P, read from
/// the const-built 4 KB `SHIFT` table. Why three lanes of 256 B: on a
/// 2-vCPU Xeon, two lanes of 512 B and four of 256 B measured no faster,
/// and lanes of 1 KiB leave typical MDF files (about 1–6 KiB) mostly to
/// the single-register remainder; the 768-byte block already takes a
/// 6 KiB buffer from ≈1.5 to ≈2.0 GiB/s. Input after the last whole block
/// runs through plain slice-by-16 steps and then one byte at a time on
/// table 0, the classic byte-wise table. Each `update` call folds only
/// its own blocks, so any split of the input across calls gives the same
/// digest.
///
/// There is no carry-less-multiply (PCLMULQDQ) path: it needs
/// `std::arch` intrinsics behind `unsafe`, and every target builds under
/// `-F unsafe_code`.
pub struct Crc32 {
    state: u32,
}

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xedb8_8320;

/// Bytes per lane of [`Crc32::update`]'s interleaved loop.
const LANE: usize = 256;

/// Bytes per interleaved block: three lanes.
const BLOCK: usize = 3 * LANE;

/// `CRC_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes; `CRC_TABLES[0]` is the byte-wise table.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated into a static: an out-of-bounds index fails the build, not a run"
)]
const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "const fn (try_from is non-const); i < 256 always fits u32"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

/// `a(x) · b(x) mod P(x)` on reflected registers (bit 31 is x^0), as
/// zlib's `multmodp` computes it.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { POLY ^ (b >> 1) } else { b >> 1 };
    }
    p
}

/// `x^(8·n) mod P(x)`, by square-and-multiply: the operator that advances
/// a register past `n` zero bytes.
const fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(square, p);
        }
        square = multmodp(square, square);
        n >>= 1;
    }
    p
}

/// `SHIFT[k][b]` advances register byte `k` of value `b` past `LANE` zero
/// bytes; XORing the four lookups advances a whole register (see [`shift`]).
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated into a static: an out-of-bounds index fails the build, not a run"
)]
const fn build_shift_table() -> [[u32; 256]; 4] {
    let op = x8nmodp(LANE);
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "const fn (try_from is non-const); i < 256 always fits u32"
            )]
            let byte = i as u32;
            table[k][i] = multmodp(op, byte << (8 * k));
            i += 1;
        }
        k += 1;
    }
    table
}

static SHIFT: [[u32; 256]; 4] = build_shift_table();

/// `table[b]`, the one table lookup of [`Crc32::update`].
#[inline]
#[expect(clippy::indexing_slicing, reason = "a u8 index is at most 255 < table.len() == 256")]
fn lookup(table: &[u32; 256], b: u8) -> u32 {
    table[usize::from(b)]
}

/// Register `c` advanced past `LANE` zero bytes.
#[inline]
fn shift(c: u32) -> u32 {
    let [s0, s1, s2, s3] = &SHIFT;
    let [c0, c1, c2, c3] = c.to_le_bytes();
    lookup(s0, c0) ^ lookup(s1, c1) ^ lookup(s2, c2) ^ lookup(s3, c3)
}

/// Register `c` advanced past 16 input bytes: one slice-by-16 step.
#[inline]
fn step16(c: u32, block: &[u8; 16]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
    let [c0, c1, c2, c3] = c.to_le_bytes();
    lookup(t15, c0 ^ b0)
        ^ lookup(t14, c1 ^ b1)
        ^ lookup(t13, c2 ^ b2)
        ^ lookup(t12, c3 ^ b3)
        ^ lookup(t11, b4)
        ^ lookup(t10, b5)
        ^ lookup(t9, b6)
        ^ lookup(t8, b7)
        ^ lookup(t7, b8)
        ^ lookup(t6, b9)
        ^ lookup(t5, b10)
        ^ lookup(t4, b11)
        ^ lookup(t3, b12)
        ^ lookup(t2, b13)
        ^ lookup(t1, b14)
        ^ lookup(t0, b15)
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        let mut c = self.state;
        for block in blocks {
            let (steps, _) = block.as_chunks::<16>();
            let (a, bd) = steps.split_at(LANE / 16);
            let (b, d) = bd.split_at(LANE / 16);
            let (mut ca, mut cb, mut cd) = (c, 0, 0);
            for ((sa, sb), sd) in a.iter().zip(b).zip(d) {
                ca = step16(ca, sa);
                cb = step16(cb, sb);
                cd = step16(cd, sd);
            }
            c = shift(shift(ca) ^ cb) ^ cd;
        }
        let (steps, tail) = rest.as_chunks::<16>();
        for step in steps {
            c = step16(c, step);
        }
        let [t0, ..] = &CRC_TABLES;
        for &b in tail {
            let [c0, ..] = c.to_le_bytes();
            c = lookup(t0, c0 ^ b) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final digest.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xffff_ffff
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finalize()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // "123456789" is the canonical CRC-32 check value.
        assert_eq!(Crc32::checksum(b"123456789"), 0xcbf4_3926);
        assert_eq!(Crc32::checksum(b""), 0);
    }

    /// Independent reference register: bitwise and table-free, 8 shifts
    /// per byte.
    fn bitwise_register(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c
    }

    /// Independent reference CRC-32.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        bitwise_register(0xffff_ffff, data) ^ 0xffff_ffff
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes()[7]
            })
            .collect()
    }

    #[test]
    fn crc32_matches_standard_check_values() {
        assert_eq!(Crc32::checksum(b"a"), 0xe8b7_be43);
        assert_eq!(Crc32::checksum(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        assert_eq!(bitwise_crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_short_length() {
        let data = noise(64, 1);
        for n in 0..=64 {
            assert_eq!(Crc32::checksum(&data[..n]), bitwise_crc32(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_large_inputs() {
        for (n, seed) in [(65_536, 2), (65_537, 3), (65_551, 4), (200_003, 5)] {
            let data = noise(n, seed);
            assert_eq!(Crc32::checksum(&data), bitwise_crc32(&data), "len {n}");
        }
        let zeros = vec![0u8; 70_000];
        assert_eq!(Crc32::checksum(&zeros), bitwise_crc32(&zeros));
        let ones = vec![0xffu8; 70_000];
        assert_eq!(Crc32::checksum(&ones), bitwise_crc32(&ones));
    }

    #[test]
    fn crc32_any_split_into_two_updates_equals_the_reference() {
        // 77 bytes: splits land on every offset of the 16-byte block, so a
        // block straddles the two calls and each call has its own tail.
        let data = noise(77, 6);
        let want = bitwise_crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.update(b);
            assert_eq!(c.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn crc32_of_a_misaligned_subslice_matches_the_reference() {
        let data = noise(4_099, 7);
        for start in 1..16 {
            let sub = &data[start..data.len() - start];
            assert_eq!(Crc32::checksum(sub), bitwise_crc32(sub), "start {start}");
        }
    }

    #[test]
    fn shift_advances_every_one_bit_register_past_a_lane_of_zeros() {
        let zeros = [0u8; LANE];
        for bit in 0..32 {
            let state = 1u32 << bit;
            assert_eq!(shift(state), bitwise_register(state, &zeros), "bit {bit}");
        }
    }

    #[test]
    fn crc32_matches_the_reference_at_every_length_around_one_and_two_blocks() {
        let data = noise(2 * BLOCK + 17, 8);
        for centre in [BLOCK, 2 * BLOCK] {
            for n in centre - 17..=centre + 17 {
                assert_eq!(Crc32::checksum(&data[..n]), bitwise_crc32(&data[..n]), "len {n}");
            }
        }
    }

    #[test]
    fn crc32_split_at_or_beside_a_lane_boundary_equals_the_reference() {
        // Two whole blocks plus a tail; every lane boundary of both blocks
        // and the bytes either side of it.
        let data = noise(2 * BLOCK + 40, 9);
        let want = bitwise_crc32(&data);
        for boundary in (0..=2 * BLOCK).step_by(LANE) {
            for split in [boundary.saturating_sub(1), boundary, boundary + 1] {
                let (a, b) = data.split_at(split);
                let mut c = Crc32::new();
                c.update(a);
                c.update(b);
                assert_eq!(c.finalize(), want, "split at {split}");
            }
        }
    }

    #[test]
    fn crc32_of_a_misaligned_subslice_spanning_blocks_matches_the_reference() {
        let data = noise(3 * BLOCK + 64, 10);
        for start in 1..=17 {
            for end in [BLOCK + start + 3, 2 * BLOCK + 1, 3 * BLOCK + 63] {
                let sub = &data[start..end];
                assert_eq!(Crc32::checksum(sub), bitwise_crc32(sub), "{start}..{end}");
            }
        }
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.finalize(), Crc32::checksum(b"hello world"));
    }

    #[test]
    fn record_ids_differ_for_different_paths() {
        assert_ne!(record_id("/a"), record_id("/b"));
        assert_eq!(record_id("/a"), record_id("/a"));
    }
}
